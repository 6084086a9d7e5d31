//! The paper's motivating scenario end to end: a MapReduce shuffle whose
//! reducers wait on every mapper, run on (a) the static packet-switched grid
//! baseline and (b) the adaptive fabric that is allowed to reconfigure the
//! grid into a torus when congestion persists.
//!
//! ```sh
//! cargo run --release --example mapreduce_shuffle
//! ```

use rackfabric::prelude::*;
use rackfabric_sim::prelude::*;
use rackfabric_workload::{MapReduceShuffle, Workload};

fn main() {
    let nodes = 16;
    let partition = Bytes::from_kib(64);
    let flows = MapReduceShuffle::all_to_all(nodes, partition).generate(&mut DetRng::new(7));
    println!(
        "shuffle: {nodes} nodes, {} per partition, {} flows",
        partition,
        flows.len()
    );

    // (a) Static baseline: 4x4 grid, 2 lanes per link, no CRC.
    let mut base_cfg = FabricConfig::baseline(TopologySpec::grid(4, 4, 2));
    base_cfg.sim = SimConfig::with_seed(7).horizon(SimTime::from_millis(2_000));
    let baseline = run_sharded(ShardedConfig::new(base_cfg, 1), flows.clone());
    let b = baseline.metrics.summary();

    // (b) Adaptive fabric: same grid, but the CRC may rewire it into a
    // 1-lane torus (same lane budget) when the shuffle saturates it.
    let mut adaptive_cfg = FabricConfig::adaptive(TopologySpec::grid(4, 4, 2));
    adaptive_cfg.upgrade_spec = Some(TopologySpec::torus(4, 4, 1));
    adaptive_cfg.crc.epoch = SimDuration::from_micros(20);
    adaptive_cfg.sim = SimConfig::with_seed(7).horizon(SimTime::from_millis(2_000));
    let adaptive = run_sharded(ShardedConfig::new(adaptive_cfg, 1), flows);
    let a = adaptive.metrics.summary();

    println!("\n{:<34}{:>16}{:>16}", "", "baseline grid", "adaptive");
    let row = |name: &str, bv: String, av: String| println!("{name:<34}{bv:>16}{av:>16}");
    row(
        "shuffle completion (us)",
        format!("{:.1}", b.job_completion_us.unwrap_or(f64::NAN)),
        format!("{:.1}", a.job_completion_us.unwrap_or(f64::NAN)),
    );
    row(
        "slowest flow (us)",
        format!("{:.1}", b.flow_completion_max_us),
        format!("{:.1}", a.flow_completion_max_us),
    );
    row(
        "packet p99 latency (us)",
        format!("{:.2}", b.packet_latency.p99 / 1e6),
        format!("{:.2}", a.packet_latency.p99 / 1e6),
    );
    row(
        "goodput (Gb/s)",
        format!("{:.1}", b.goodput_gbps()),
        format!("{:.1}", a.goodput_gbps()),
    );
    row(
        "mean power (W)",
        format!("{:.1}", b.mean_power_w),
        format!("{:.1}", a.mean_power_w),
    );
    row(
        "topology reconfigurations",
        format!("{}", b.topology_reconfigurations),
        format!("{}", a.topology_reconfigurations),
    );
    let start = TopologySpec::grid(4, 4, 2).name;
    let last_move = adaptive
        .metrics
        .reconfig_events
        .iter()
        .rev()
        .find_map(|(_, name)| name.strip_prefix("topology->"));
    println!(
        "\nfinal adaptive topology: {} (started as {start})",
        last_move.unwrap_or(&start)
    );
    let speedup = b.job_completion_us.unwrap_or(f64::NAN) / a.job_completion_us.unwrap_or(f64::NAN);
    println!("speedup from adaptation: {speedup:.2}x");
}
