//! Property-based tests over the public API: invariants that must hold for
//! arbitrary (bounded) topologies, workloads and PLP command sequences.

use proptest::prelude::*;
use rackfabric::breakeven::{evaluate, min_flow_size, BreakEvenInput};
use rackfabric::prelude::*;
use rackfabric_phy::{PhyState, PlpCommand, PlpExecutor};
use rackfabric_sim::prelude::*;
use rackfabric_sim::units::Power;
use rackfabric_topo::routing::shortest_path;
use rackfabric_topo::NodeId;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Grid and torus topologies of any size are connected, and the torus
    /// never has a larger diameter than the grid of the same dimensions.
    #[test]
    fn grids_and_tori_are_connected(rows in 2usize..6, cols in 2usize..6, lanes in 1usize..4) {
        let mut phy_g = PhyState::new();
        let grid = TopologySpec::grid(rows, cols, lanes).instantiate(&mut phy_g, BitRate::from_gbps(25));
        let mut phy_t = PhyState::new();
        let torus = TopologySpec::torus(rows, cols, lanes).instantiate(&mut phy_t, BitRate::from_gbps(25));
        prop_assert!(grid.is_connected());
        prop_assert!(torus.is_connected());
        prop_assert!(torus.diameter().unwrap() <= grid.diameter().unwrap());
    }

    /// Shortest-path routes on a grid have the Manhattan-distance hop count
    /// and never repeat a node.
    #[test]
    fn grid_routes_are_minimal_and_loop_free(
        rows in 2usize..6,
        cols in 2usize..6,
        src in 0usize..36,
        dst in 0usize..36,
    ) {
        let n = rows * cols;
        let src = src % n;
        let dst = dst % n;
        let spec = TopologySpec::grid(rows, cols, 1);
        let mut phy = PhyState::new();
        let topo = spec.instantiate(&mut phy, BitRate::from_gbps(25));
        let route = shortest_path(&topo, NodeId(src as u32), NodeId(dst as u32)).unwrap();
        let (sr, sc) = (src / cols, src % cols);
        let (dr, dc) = (dst / cols, dst % cols);
        let manhattan = sr.abs_diff(dr) + sc.abs_diff(dc);
        prop_assert_eq!(route.hops(), manhattan);
        let mut nodes = route.nodes.clone();
        nodes.sort();
        nodes.dedup();
        prop_assert_eq!(nodes.len(), route.nodes.len(), "route must not revisit a node");
    }

    /// The break-even threshold really is the break-even point: flows above
    /// it benefit from reconfiguring, flows well below it do not.
    #[test]
    fn breakeven_threshold_separates_worthwhile_flows(
        before_g in 10u64..100,
        uplift in 2u64..8,
        reconfig_us in 1u64..10_000,
    ) {
        let input = BreakEvenInput {
            before: BitRate::from_gbps(before_g),
            after: BitRate::from_gbps(before_g * uplift),
            reconfig_time: SimDuration::from_micros(reconfig_us),
        };
        let threshold = min_flow_size(&input).unwrap();
        let above = Bytes::new(threshold.as_u64().saturating_mul(2).max(threshold.as_u64() + 1));
        let below = Bytes::new((threshold.as_u64() / 2).max(1));
        prop_assert!(evaluate(above, &input).worth_it);
        prop_assert!(!evaluate(below, &input).worth_it);
    }

    /// Lane power gating never changes the number of lanes physically
    /// attached to a link, and capacity scales monotonically with the number
    /// of active lanes.
    #[test]
    fn lane_gating_preserves_lanes_and_orders_capacity(lanes in 1usize..8, active in 0usize..8) {
        let mut phy = PhyState::new();
        let id = phy.add_link(0, 1, rackfabric_phy::media::Media::optical_fiber(),
            rackfabric_sim::units::Length::from_m(2), lanes, BitRate::from_gbps(25));
        let executor = PlpExecutor::default();
        let command = PlpCommand::SetActiveLanes { link: id, lanes: active.min(lanes) };
        executor.execute(&mut phy, &command).unwrap();
        let link = phy.link(id).unwrap();
        prop_assert_eq!(link.total_lanes(), lanes);
        prop_assert_eq!(link.active_lanes(), active.min(lanes));
        prop_assert_eq!(link.raw_capacity(), BitRate::from_gbps(25) * active.min(lanes) as u64);
    }

    /// Every policy's thresholds stay in range and the price book built from
    /// any utilization level gives strictly positive, finite costs for up
    /// links.
    #[test]
    fn price_books_are_well_formed(util in 0.0f64..2.0, links in 1usize..12) {
        let mut phy = PhyState::new();
        for i in 0..links {
            phy.add_link(i as u32, (i + 1) as u32, rackfabric_phy::media::Media::optical_fiber(),
                rackfabric_sim::units::Length::from_m(2), 2, BitRate::from_gbps(25));
        }
        let utilization: std::collections::HashMap<_, _> =
            phy.link_ids().into_iter().map(|id| (id, util)).collect();
        let report = phy.telemetry_report(SimTime::from_micros(1), &utilization,
            &Default::default(), &Default::default());
        let crc = ClosedRingControl::new(CrcConfig {
            policy: CrcPolicy::Hybrid { budget: Power::from_kilowatts(2) },
            ..Default::default()
        });
        let book = crc.price(&report);
        let costs = book.as_cost_map();
        prop_assert_eq!(costs.len(), links);
        for (_, c) in costs {
            prop_assert!(c.is_finite());
            prop_assert!(c > 0.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End-to-end physical invariants of the fabric engine, for any small
    /// shuffle on a small grid or torus, run at one shard and at one shard
    /// per rack (grid and torus racks are rows):
    ///
    /// * both runs give equal summaries,
    /// * every injected byte is eventually delivered (the fabric retries
    ///   drops),
    /// * the job completion time is at least the slowest flow's,
    /// * no packet arrives faster than light crosses the shortest link of
    ///   the rack — the floor of any path's propagation latency.
    #[test]
    fn fabric_delivers_every_byte(
        seed in 0u64..1000,
        side in 2usize..5,
        kib in 1u64..32,
        torus in 0usize..2,
    ) {
        use rackfabric_workload::{MapReduceShuffle, Workload};
        let spec = if torus == 1 {
            TopologySpec::torus(side, side, 2)
        } else {
            TopologySpec::grid(side, side, 2)
        };
        let flows = MapReduceShuffle::all_to_all(spec.nodes, Bytes::from_kib(kib))
            .generate(&mut DetRng::new(seed));
        let expected: u64 = flows.iter().map(|f| f.size.as_u64()).sum();
        let racks = spec.rack_of().into_iter().max().unwrap() as usize + 1;
        let min_propagation = {
            let mut phy = PhyState::new();
            spec.instantiate(&mut phy, BitRate::from_gbps(25));
            phy.link_ids()
                .into_iter()
                .filter_map(|id| phy.link(id).map(|l| l.propagation_delay()))
                .min()
                .unwrap()
        };
        let mut cfg = FabricConfig::adaptive(spec);
        cfg.sim = SimConfig::with_seed(seed).horizon(SimTime::from_millis(2_000));

        let one = run_sharded(ShardedConfig::new(cfg.clone(), 1), flows.clone());
        let per_rack = run_sharded(ShardedConfig::new(cfg, racks), flows);
        prop_assert_eq!(per_rack.shards, racks);
        let s = one.metrics.summary();
        prop_assert_eq!(&s, &per_rack.metrics.summary());

        prop_assert!(one.all_flows_complete);
        prop_assert_eq!(one.metrics.delivered_bytes, expected);
        prop_assert!(s.job_completion_us.unwrap() + 1e-6 >= s.flow_completion_max_us);
        let fastest = one.metrics.packet_latency.min_sample().unwrap();
        prop_assert!(
            fastest >= min_propagation.as_picos(),
            "a packet took {} ps, under the {} ps flight time of the shortest link",
            fastest,
            min_propagation.as_picos()
        );
    }
}
