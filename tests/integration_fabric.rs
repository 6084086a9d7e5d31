//! Cross-crate integration tests: workloads -> core fabric -> metrics, on the
//! public API only. Every run uses one shard; shard-count invariance is
//! `tests/shard_determinism.rs`'s job.

use rackfabric::prelude::*;
use rackfabric_sim::prelude::*;
use rackfabric_topo::NodeId;
use rackfabric_workload::{Flow, IncastWorkload, MapReduceShuffle, Workload, WorkloadFlowId};

fn quick(seed: u64, ms: u64) -> SimConfig {
    SimConfig::with_seed(seed).horizon(SimTime::from_millis(ms))
}

fn run(config: FabricConfig, flows: Vec<Flow>) -> ShardedRun {
    run_sharded(ShardedConfig::new(config, 1), flows)
}

#[test]
fn adaptive_fabric_beats_or_matches_baseline_on_a_shuffle() {
    let flows = MapReduceShuffle::all_to_all(16, Bytes::from_kib(32)).generate(&mut DetRng::new(1));

    let mut base_cfg = FabricConfig::baseline(TopologySpec::grid(4, 4, 2));
    base_cfg.sim = quick(1, 1_000);
    let baseline = run(base_cfg, flows.clone());

    let mut adaptive_cfg = FabricConfig::adaptive(TopologySpec::grid(4, 4, 2));
    adaptive_cfg.upgrade_spec = Some(TopologySpec::torus(4, 4, 1));
    adaptive_cfg.crc.epoch = SimDuration::from_micros(20);
    adaptive_cfg.sim = quick(1, 1_000);
    let adaptive = run(adaptive_cfg, flows);

    assert!(baseline.all_flows_complete);
    assert!(adaptive.all_flows_complete);
    let b = baseline.metrics.summary().job_completion_us.unwrap();
    let a = adaptive.metrics.summary().job_completion_us.unwrap();
    // The adaptive fabric escalates to the torus and must not be slower than
    // the static grid by more than a small reconfiguration overhead.
    assert!(
        a <= b * 1.1,
        "adaptive ({a:.1} us) should not lose to the baseline ({b:.1} us)"
    );
    assert_eq!(adaptive.metrics.topology_reconfigurations, 1);
}

#[test]
fn incast_creates_congestion_and_queueing_at_the_sink() {
    let flows = IncastWorkload {
        sink: NodeId(0),
        senders: (0..9u32).map(NodeId).collect(),
        request_size: Bytes::from_kib(64),
        start: SimTime::ZERO,
    }
    .generate(&mut DetRng::new(2));
    let mut cfg = FabricConfig::baseline(TopologySpec::grid(3, 3, 2));
    cfg.sim = quick(2, 1_000);
    let fabric = run(cfg, flows);
    assert!(fabric.all_flows_complete);
    let s = fabric.metrics.summary();
    // Eight senders into one 2-lane sink link: queueing must dominate.
    assert!(
        s.queueing_latency.p99 > s.packet_latency.p50 * 0.1,
        "incast should produce visible queueing (q p99 {} vs pkt p50 {})",
        s.queueing_latency.p99,
        s.packet_latency.p50
    );
}

#[test]
fn routing_algorithms_all_deliver_the_same_bytes() {
    for routing in [
        RoutingAlgorithm::ShortestHop,
        RoutingAlgorithm::MinCost,
        RoutingAlgorithm::Ecmp,
        RoutingAlgorithm::DimensionOrdered,
    ] {
        let flows =
            MapReduceShuffle::all_to_all(9, Bytes::from_kib(4)).generate(&mut DetRng::new(3));
        let expected: u64 = flows.iter().map(|f| f.size.as_u64()).sum();
        let mut cfg = FabricConfig::adaptive(TopologySpec::grid(3, 3, 2));
        cfg.routing = routing;
        cfg.sim = quick(3, 1_000);
        let fabric = run(cfg, flows);
        assert!(fabric.all_flows_complete, "{routing:?} failed to finish");
        assert_eq!(
            fabric.metrics.delivered_bytes, expected,
            "{routing:?} delivered the wrong volume"
        );
    }
}

#[test]
fn torus_start_beats_grid_start_for_edge_to_edge_traffic() {
    // Corner-to-corner flows benefit directly from wrap-around links.
    let mk_flows = || {
        (0..4u64)
            .map(|i| Flow {
                id: WorkloadFlowId(i),
                src: NodeId(0),
                dst: NodeId(15),
                size: Bytes::from_kib(64),
                start_at: SimTime::ZERO,
            })
            .collect::<Vec<_>>()
    };
    let mut grid_cfg = FabricConfig::baseline(TopologySpec::grid(4, 4, 1));
    grid_cfg.sim = quick(4, 1_000);
    let grid = run(grid_cfg, mk_flows());
    let mut torus_cfg = FabricConfig::baseline(TopologySpec::torus(4, 4, 1));
    torus_cfg.sim = quick(4, 1_000);
    let torus = run(torus_cfg, mk_flows());
    assert!(grid.all_flows_complete && torus.all_flows_complete);
    let g = grid.metrics.summary().packet_latency.p50;
    let t = torus.metrics.summary().packet_latency.p50;
    assert!(
        t < g,
        "torus corner-to-corner p50 ({t}) must beat the grid ({g})"
    );
}

#[test]
fn metrics_are_internally_consistent() {
    let flows = MapReduceShuffle::all_to_all(4, Bytes::from_kib(8)).generate(&mut DetRng::new(5));
    let mut cfg = FabricConfig::adaptive(TopologySpec::ring(4, 2));
    cfg.sim = quick(5, 1_000);
    let fabric = run(cfg, flows);
    let s = fabric.metrics.summary();
    assert_eq!(s.completed_flows, 12);
    assert_eq!(s.delivered_bytes, 12 * 8 * 1024);
    assert!(s.delivered_packets >= 12, "at least one packet per flow");
    assert!(s.packet_latency.count >= s.delivered_packets);
    assert!(s.flow_completion_max_us >= s.flow_completion_mean_us);
    assert!(s.job_completion_us.unwrap() >= s.flow_completion_max_us);
}
