//! `RouteCache` epoch invalidation across a reconfiguration fence.
//!
//! The route cache must serve whole epochs from memory, yet recompute every
//! route after a whole-rack reconfiguration (the grid→torus escalation):
//! stale routes reference links that may have been re-laned or split, and
//! traffic resuming after the fence must see the new fabric. Before this
//! test the property was only exercised indirectly through scenario
//! determinism; here it is pinned directly, at one shard and at four.

use rackfabric::fabric::FabricConfig;
use rackfabric::shard::{run_sharded, ShardedConfig};
use rackfabric_sim::config::SimConfig;
use rackfabric_sim::time::{SimDuration, SimTime};
use rackfabric_sim::units::Bytes;
use rackfabric_sim::DetRng;
use rackfabric_topo::routing::RoutingAlgorithm;
use rackfabric_topo::spec::TopologySpec;
use rackfabric_workload::{Flow, MapReduceShuffle, Workload};

fn shuffle_flows() -> Vec<Flow> {
    MapReduceShuffle::all_to_all(16, Bytes::from_kib(64)).generate(&mut DetRng::new(7))
}

/// Shortest-hop adaptive config: the cache is invalidated **only** by
/// reconfigurations (min-cost routing would also bump it on every price
/// update and wash the signal out).
fn config(upgrade: bool) -> FabricConfig {
    let mut c = FabricConfig::adaptive(TopologySpec::grid(4, 4, 2));
    c.routing = RoutingAlgorithm::ShortestHop;
    c.upgrade_spec = upgrade.then(|| TopologySpec::torus(4, 4, 1));
    c.crc.epoch = SimDuration::from_micros(20);
    c.sim = SimConfig::with_seed(4).horizon(SimTime::from_millis(200));
    c
}

#[test]
fn reconfiguration_fence_invalidates_the_route_cache() {
    let static_run = run_sharded(ShardedConfig::new(config(false), 1), shuffle_flows());
    let upgraded = run_sharded(ShardedConfig::new(config(true), 1), shuffle_flows());

    assert!(static_run.all_flows_complete);
    assert!(upgraded.all_flows_complete);
    assert_eq!(
        upgraded.metrics.topology_reconfigurations, 1,
        "the upgraded run must actually reconfigure"
    );

    let before = static_run.metrics.summary();
    let after = upgraded.metrics.summary();
    // Without an invalidation the post-upgrade routes would be served stale
    // from the cache and the miss counts would match; the epoch bump forces
    // at least one fresh tree per active source after the fence.
    assert!(
        after.route_cache_misses > before.route_cache_misses,
        "upgrade must force route recomputation (static misses {}, upgraded misses {})",
        before.route_cache_misses,
        after.route_cache_misses
    );
    // The cache still carries the bulk of the traffic in both runs.
    assert!(
        before.route_cache_hit_rate > 0.5,
        "static hit rate {}",
        before.route_cache_hit_rate
    );
    assert!(
        after.route_cache_hit_rate > 0.5,
        "upgraded hit rate {}",
        after.route_cache_hit_rate
    );
}

#[test]
fn sharded_engine_invalidates_per_shard_caches_across_the_fence() {
    let run = |upgrade: bool| run_sharded(ShardedConfig::new(config(upgrade), 4), shuffle_flows());
    let static_run = run(false);
    let upgraded = run(true);
    assert!(static_run.all_flows_complete);
    assert!(upgraded.all_flows_complete);
    assert_eq!(upgraded.metrics.topology_reconfigurations, 1);
    let before = static_run.metrics.summary();
    let after = upgraded.metrics.summary();
    assert!(
        after.route_cache_misses > before.route_cache_misses,
        "per-shard caches must all recompute after the fence \
         (static misses {}, upgraded misses {})",
        before.route_cache_misses,
        after.route_cache_misses
    );
    assert!(after.route_cache_hit_rate > 0.5);
}
