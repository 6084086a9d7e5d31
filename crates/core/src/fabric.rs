//! The fabric model's configuration and datapath constants: PLP + CRC +
//! switching + workload, as plain data.
//!
//! [`FabricConfig`] describes one run — topology, lane rate, switch model,
//! routing, whether the Closed Ring Control is active, buffers, packet-train
//! window. With `adaptive` disabled the very same model is the static
//! packet-switched baseline the paper compares against. The engine that runs
//! it is [`crate::shard`].
//!
//! ## Hot-path architecture
//!
//! The per-packet datapath does **zero hashing** and fires **one event per
//! link drain** rather than one per packet:
//!
//! * All per-link and per-port state (egress queues, epoch byte counters,
//!   reconfiguration fences, cached link constants) lives in dense vectors
//!   indexed by [`LinkIdx`](rackfabric_topo::arena::LinkIdx) and
//!   [`PortIdx`](rackfabric_topo::PortIdx), interned once per topology epoch
//!   by a [`LinkArena`]. The arena is rebuilt — and the dense state migrated
//!   by `LinkId` — only on whole-rack reconfigurations.
//! * Packets move in [`Train`](rackfabric_switch::train::Train)s: each
//!   injection admits a batch of back-to-back frames sized by the first
//!   link's rate window, and each hop forwards the whole batch with a single
//!   event. Per-packet latency stays exact (see
//!   [`Packet::arrived_at`](rackfabric_switch::packet::Packet)).
//! * Routes are served from an epoch-invalidated
//!   [`RouteCache`](rackfabric_topo::cache::RouteCache) instead of being
//!   computed per packet. For shortest-hop and min-cost routing, BFS or
//!   Dijkstra runs once per *source* per epoch, building a predecessor tree
//!   on the source's first lookup; each `(src, dst)` route is built from
//!   that tree on its own first lookup. The other policies cache one route
//!   per `(src, dst)`, keyed by flow too for the per-flow ones (ECMP,
//!   Valiant, adaptive).

use crate::controller::CrcConfig;
use rackfabric_phy::{PhyState, PlpTiming};
use rackfabric_sim::config::SimConfig;
use rackfabric_sim::time::SimDuration;
use rackfabric_sim::units::{BitRate, Bytes};
use rackfabric_switch::model::SwitchModel;
use rackfabric_topo::arena::LinkArena;
use rackfabric_topo::routing::RoutingAlgorithm;
use rackfabric_topo::spec::TopologySpec;

/// Configuration of a fabric run.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Engine-level configuration (seed, horizon).
    pub sim: SimConfig,
    /// The topology the rack starts in.
    pub spec: TopologySpec,
    /// A topology the CRC may escalate to under sustained congestion (the
    /// paper's grid-to-torus move). `None` disables topology escalation.
    pub upgrade_spec: Option<TopologySpec>,
    /// Per-lane signalling rate.
    pub lane_rate: BitRate,
    /// The switch datapath model used at every node.
    pub switch: SwitchModel,
    /// Routing algorithm used when admitting flows.
    pub routing: RoutingAlgorithm,
    /// Whether the Closed Ring Control is active (false = static baseline).
    pub adaptive: bool,
    /// CRC configuration (policy, epoch, price normalisation).
    pub crc: CrcConfig,
    /// Reconfiguration latency table for the PLP executor.
    pub plp_timing: PlpTiming,
    /// Egress buffer per port.
    pub port_buffer: Bytes,
    /// Packetisation size.
    pub mtu: Bytes,
    /// How long to wait before re-injecting after a drop.
    pub retry_delay: SimDuration,
    /// The rate window that sizes packet trains: each drain event transmits
    /// up to `capacity × train_window` bytes of MTU frames back-to-back.
    /// Larger windows collapse more events per train; the default (1 µs) is
    /// a fraction of the port buffer at 100 Gb/s.
    pub train_window: SimDuration,
    /// Stop the simulation as soon as every flow completes.
    pub stop_when_done: bool,
}

impl FabricConfig {
    /// An adaptive fabric over `spec` with the default CRC (hybrid policy).
    pub fn adaptive(spec: TopologySpec) -> Self {
        FabricConfig {
            sim: SimConfig::default(),
            spec,
            upgrade_spec: None,
            lane_rate: BitRate::from_gbps(25),
            switch: SwitchModel::cut_through(),
            routing: RoutingAlgorithm::MinCost,
            adaptive: true,
            crc: CrcConfig::default(),
            plp_timing: PlpTiming::default(),
            port_buffer: Bytes::from_kib(256),
            mtu: Bytes::new(1500),
            retry_delay: SimDuration::from_micros(10),
            train_window: SimDuration::from_micros(1),
            stop_when_done: true,
        }
    }

    /// The static packet-switched baseline over the same topology: no CRC, no
    /// PLP commands, shortest-hop routing.
    pub fn baseline(spec: TopologySpec) -> Self {
        FabricConfig {
            adaptive: false,
            routing: RoutingAlgorithm::ShortestHop,
            ..FabricConfig::adaptive(spec)
        }
    }
}

/// Cached per-link datapath constants, refreshed whenever the physical layer
/// changes (PLP commands, reconfigurations) — never consulted through a hash
/// map on the per-packet path. The engine broadcasts one copy per shard at
/// sync points.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkHot {
    pub(crate) capacity: BitRate,
    pub(crate) propagation: SimDuration,
    pub(crate) fec: SimDuration,
    pub(crate) up: bool,
}

impl LinkHot {
    pub(crate) const DOWN: LinkHot = LinkHot {
        capacity: BitRate::ZERO,
        propagation: SimDuration::ZERO,
        fec: SimDuration::ZERO,
        up: false,
    };

    /// Reads the constants of every interned link out of the physical state,
    /// in dense arena order.
    pub(crate) fn read_all(phy: &PhyState, arena: &LinkArena) -> Vec<LinkHot> {
        arena
            .iter()
            .map(|(_, id)| match phy.link(id) {
                Some(l) => LinkHot {
                    capacity: l.capacity(),
                    propagation: l.propagation_delay(),
                    fec: l.fec_latency(),
                    up: matches!(l.state, rackfabric_phy::LinkState::Up),
                },
                None => LinkHot::DOWN,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{run_sharded, ShardedConfig, ShardedRun};
    use rackfabric_sim::time::SimTime;
    use rackfabric_sim::DetRng;
    use rackfabric_topo::NodeId;
    use rackfabric_workload::{Flow, MapReduceShuffle, Workload, WorkloadFlowId};

    fn small_shuffle(nodes: usize, partition: Bytes) -> Vec<Flow> {
        MapReduceShuffle::all_to_all(nodes, partition).generate(&mut DetRng::new(7))
    }

    fn quick_config(spec: TopologySpec) -> FabricConfig {
        let mut c = FabricConfig::adaptive(spec);
        c.sim = SimConfig::with_seed(1).horizon(SimTime::from_millis(50));
        c
    }

    fn run(config: FabricConfig, flows: Vec<Flow>) -> ShardedRun {
        run_sharded(ShardedConfig::new(config, 1), flows)
    }

    fn one_flow(src: u32, dst: u32, size: Bytes) -> Vec<Flow> {
        vec![Flow {
            id: WorkloadFlowId(0),
            src: NodeId(src),
            dst: NodeId(dst),
            size,
            start_at: SimTime::ZERO,
        }]
    }

    #[test]
    fn single_flow_completes_with_sane_latency() {
        let mut config = quick_config(TopologySpec::line(4, 4));
        config.adaptive = false;
        config.routing = RoutingAlgorithm::ShortestHop;
        let fabric = run(config, one_flow(0, 3, Bytes::from_kib(15)));
        assert!(fabric.all_flows_complete);
        let s = fabric.metrics.summary();
        assert_eq!(s.completed_flows, 1);
        assert_eq!(s.delivered_bytes, 15 * 1024);
        assert_eq!(s.dropped_packets, 0);
        // Two intermediate switches (nodes 1, 2).
        assert!(s.packet_latency.p50 > 0.0);
        // Per-packet latency should be of order a few microseconds at most on
        // an idle 4-node line.
        assert!(
            s.packet_latency.max < 20_000_000.0,
            "p_max latency {} ps is implausibly high",
            s.packet_latency.max
        );
        assert!(fabric.metrics.breakdown.switch_hops > 0);
    }

    #[test]
    fn shuffle_completes_on_grid_baseline_and_adaptive() {
        let flows = small_shuffle(9, Bytes::from_kib(8));
        let baseline = {
            let mut c = FabricConfig::baseline(TopologySpec::grid(3, 3, 2));
            c.sim = SimConfig::with_seed(2).horizon(SimTime::from_millis(100));
            run(c, flows.clone())
        };
        let adaptive = {
            let mut c = quick_config(TopologySpec::grid(3, 3, 2));
            c.sim = SimConfig::with_seed(2).horizon(SimTime::from_millis(100));
            run(c, flows)
        };
        assert!(
            baseline.all_flows_complete,
            "baseline must finish the shuffle"
        );
        assert!(
            adaptive.all_flows_complete,
            "adaptive must finish the shuffle"
        );
        assert_eq!(baseline.metrics.summary().completed_flows, 72);
        assert_eq!(adaptive.metrics.summary().completed_flows, 72);
        // Both delivered the same volume.
        assert_eq!(
            baseline.metrics.delivered_bytes,
            adaptive.metrics.delivered_bytes
        );
    }

    #[test]
    fn runs_are_deterministic_for_the_same_seed() {
        let flows = small_shuffle(4, Bytes::from_kib(4));
        let once = |seed| {
            let mut c = quick_config(TopologySpec::grid(2, 2, 2));
            c.sim = SimConfig::with_seed(seed).horizon(SimTime::from_millis(50));
            let f = run(c, flows.clone());
            (
                f.metrics.summary().job_completion_us,
                f.metrics.delivered_bytes,
                f.metrics.summary().packet_latency.p99,
            )
        };
        assert_eq!(once(5), once(5));
    }

    #[test]
    fn self_flows_complete_trivially() {
        let config = quick_config(TopologySpec::line(2, 2));
        let fabric = run(config, one_flow(1, 1, Bytes::from_kib(4)));
        assert!(fabric.all_flows_complete);
    }

    #[test]
    fn adaptive_fabric_issues_plp_commands_under_idle_power_policy() {
        use crate::policy::CrcPolicy;
        use rackfabric_sim::units::Power;
        // An idle-ish fabric under a power-cap policy sheds lanes.
        let mut config = quick_config(TopologySpec::grid(3, 3, 4));
        config.crc.policy = CrcPolicy::PowerCap {
            budget: Power::from_kilowatts(10),
        };
        config.stop_when_done = false;
        config.sim = SimConfig::with_seed(3).horizon(SimTime::from_millis(2));
        let fabric = run(config, one_flow(0, 8, Bytes::from_kib(1)));
        assert!(
            !fabric.metrics.reconfig_events.is_empty(),
            "the power-cap CRC should have shed lanes on idle links"
        );
        // Power must have gone down over the run.
        let first = fabric
            .metrics
            .power_series
            .points()
            .first()
            .map(|&(_, y)| y)
            .unwrap();
        let last = fabric.metrics.power_series.last_y().unwrap();
        assert!(
            last < first,
            "power should drop as lanes are shed ({first} -> {last})"
        );
    }

    #[test]
    fn congestion_escalates_grid_to_torus_when_upgrade_spec_is_given() {
        let flows = small_shuffle(16, Bytes::from_kib(64));
        let torus = TopologySpec::torus(4, 4, 1);
        let mut config = quick_config(TopologySpec::grid(4, 4, 2));
        config.upgrade_spec = Some(torus.clone());
        config.crc.epoch = SimDuration::from_micros(20);
        config.sim = SimConfig::with_seed(4).horizon(SimTime::from_millis(200));
        let fabric = run(config, flows);
        assert!(fabric.all_flows_complete, "shuffle must finish");
        assert_eq!(
            fabric.metrics.topology_reconfigurations, 1,
            "sustained shuffle pressure should trigger exactly one grid->torus upgrade"
        );
        let upgrade = format!("topology->{}", torus.name);
        assert!(
            fabric
                .metrics
                .reconfig_events
                .iter()
                .any(|(_, name)| *name == upgrade),
            "the reconfiguration log must record the move to {}",
            torus.name
        );
    }

    #[test]
    fn route_cache_serves_repeat_admissions() {
        let flows = small_shuffle(9, Bytes::from_kib(32));
        let mut c = FabricConfig::baseline(TopologySpec::grid(3, 3, 2));
        c.sim = SimConfig::with_seed(6).horizon(SimTime::from_millis(100));
        let fabric = run(c, flows);
        assert!(fabric.all_flows_complete);
        let s = fabric.metrics.summary();
        assert!(
            s.route_cache_hits > 0,
            "repeat admissions must hit the cache"
        );
        assert!(
            s.route_cache_hit_rate > 0.5,
            "static routing should be overwhelmingly cached (rate {})",
            s.route_cache_hit_rate
        );
    }

    #[test]
    fn trains_batch_multiple_frames_per_event() {
        // A single large flow on an idle line: packets must travel in
        // multi-frame trains, i.e. far fewer events than frames.
        let mut config = quick_config(TopologySpec::line(2, 4));
        config.adaptive = false;
        config.routing = RoutingAlgorithm::ShortestHop;
        let fabric = run(config, one_flow(0, 1, Bytes::from_kib(600)));
        assert!(fabric.all_flows_complete);
        let events = fabric.events_processed;
        let frames = fabric.metrics.delivered_packets.get();
        assert!(frames > 100, "600 KiB is hundreds of MTU frames");
        assert!(
            events < frames,
            "batching must use fewer events ({events}) than frames ({frames})"
        );
    }
}
