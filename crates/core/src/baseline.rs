//! The static packet-switched baseline.
//!
//! The baseline is the *same* substrate (same switches, same links, same
//! workload) with the Closed Ring Control switched off and hop-count routing:
//! no lane scaling, no adaptive FEC, no bypasses, no topology changes. Every
//! experiment that claims a win for the adaptive fabric compares against this
//! configuration, exactly as the paper's "backwards compatibility" section
//! implies (the baseline is what you get if you never issue a PLP command).

use crate::fabric::FabricConfig;
use rackfabric_topo::spec::TopologySpec;

/// Builds the baseline configuration for a topology (thin wrapper around
/// [`FabricConfig::baseline`] so call sites read clearly).
pub fn baseline_config(spec: TopologySpec) -> FabricConfig {
    FabricConfig::baseline(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rackfabric_sim::units::Bytes;
    use rackfabric_topo::routing::RoutingAlgorithm;

    #[test]
    fn baseline_config_disables_the_crc() {
        let c = baseline_config(TopologySpec::grid(2, 2, 2));
        assert!(!c.adaptive);
        assert_eq!(c.routing, RoutingAlgorithm::ShortestHop);
        assert!(c.upgrade_spec.is_none());
    }

    #[test]
    fn baseline_never_issues_plp_commands() {
        use crate::shard::{run_sharded, ShardedConfig};
        use rackfabric_sim::config::SimConfig;
        use rackfabric_sim::time::SimTime;
        use rackfabric_sim::DetRng;
        use rackfabric_workload::{MapReduceShuffle, Workload};
        let flows =
            MapReduceShuffle::all_to_all(4, Bytes::from_kib(4)).generate(&mut DetRng::new(1));
        let mut config = baseline_config(TopologySpec::grid(2, 2, 2));
        config.sim = SimConfig::with_seed(1).horizon(SimTime::from_millis(50));
        let fabric = run_sharded(ShardedConfig::new(config, 1), flows);
        assert!(fabric.all_flows_complete);
        assert!(fabric.metrics.reconfig_events.is_empty());
        assert_eq!(fabric.metrics.topology_reconfigurations, 0);
    }
}
