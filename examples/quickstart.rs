//! Quickstart: run a small MapReduce shuffle on an adaptive 3x3 rack fabric
//! and print the latency / power summary.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rackfabric::prelude::*;
use rackfabric_sim::prelude::*;
use rackfabric_workload::{MapReduceShuffle, Workload};

fn main() {
    // A 3x3 grid of sleds, two 25 Gb/s lanes per link.
    let spec = TopologySpec::grid(3, 3, 2);

    // The paper's motivating workload: an all-to-all shuffle with a barrier.
    let flows = MapReduceShuffle::all_to_all(9, Bytes::from_kib(64)).generate(&mut DetRng::new(42));
    println!(
        "workload: {} flows, {} each",
        flows.len(),
        Bytes::from_kib(64)
    );

    // Adaptive fabric: Closed Ring Control with the default hybrid policy.
    let mut config = FabricConfig::adaptive(spec);
    config.sim = SimConfig::with_seed(42).horizon(SimTime::from_millis(500));
    let run = run_sharded(ShardedConfig::new(config, 1), flows);

    let s = run.metrics.summary();
    println!("--- adaptive fabric ---");
    println!("flows completed          : {}", s.completed_flows);
    println!(
        "shuffle completion time  : {:.1} us",
        s.job_completion_us.unwrap_or(f64::NAN)
    );
    println!(
        "packet latency p50 / p99 : {:.2} / {:.2} us",
        s.packet_latency.p50 / 1e6,
        s.packet_latency.p99 / 1e6
    );
    println!("goodput                  : {:.1} Gb/s", s.goodput_gbps());
    println!("mean interconnect power  : {:.1} W", s.mean_power_w);
    println!("PLP commands issued      : {}", s.plp_commands);
    println!(
        "latency share in switches: {:.0}%",
        s.switching_fraction * 100.0
    );
}
