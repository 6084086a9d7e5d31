//! Scale gates of the sharded engine, too slow for the default test run.
//! CI's `bench-smoke` job runs them on a 4-vCPU runner:
//!
//! ```text
//! cargo test --release --locked --test scale_gates -- --ignored --nocapture
//! ```
//!
//! * **Dragonfly scale.** The 1152-host `dragonfly(9, 8, 16)` heavy-shuffle
//!   cell at 1 shard and at one shard per group (9 shards, every global
//!   link a partition cut) must export byte-identical CSV/JSON with every
//!   flow complete: `tests/shard_determinism.rs` lifted to 1k+ hosts.
//! * **Worker scaling.** The 16×16 torus adaptive cell at 4 shards, drained
//!   by 1, 2 and 4 window workers, must compute identical results, and 4
//!   workers must not be slower than 1 in the same process. The gate is a
//!   same-process ratio, never an absolute rate: CI boxes are too noisy
//!   for that. Timed distributions live in `perfbench/`.

use rackfabric::prelude::{RoutingAlgorithm, TopologySpec};
use rackfabric::shard::{ShardedConfig, ShardedFabric};
use rackfabric_scenario::prelude::*;
use rackfabric_sim::prelude::*;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// `cargo test` runs tests on parallel threads; a dragonfly arm sharing the
/// cores would skew the worker-scaling ratio, so each gate holds this for
/// its whole run.
static ONE_GATE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn run_alone() -> MutexGuard<'static, ()> {
    // A gate that failed while holding the lock leaves `()`, which is valid.
    ONE_GATE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One heavy-shuffle cell on `dragonfly(9, 8, 16)`: 1152 hosts behind 72
/// routers in 9 groups, ~1.3M all-to-all flows, with 20 m between groups so
/// the global links fund a long conservative lookahead. The static
/// baseline controller with minimal routing keeps the cost in the engine
/// hot path (per-flow Valiant/adaptive routing at this scale would dominate
/// it; those policies are byte-compared across shard counts at small scale
/// in `tests/shard_determinism.rs`).
fn dragonfly_matrix(shards: usize) -> Matrix {
    let topo = TopologySpec::dragonfly(9, 8, 16, 2).with_rack_spacing(Length::from_m(20));
    let base = ScenarioSpec::new(
        "dragonfly-scale",
        topo,
        WorkloadSpec::Shuffle {
            partition: Bytes::new(512),
            load: 1.0,
        },
    )
    .controller(ControllerSpec::Baseline)
    // Deep buffers absorb the shuffle barrier: with the default 256 KiB
    // ports the simultaneous all-to-all start spends ~95% of its events on
    // drop/retry cycles; 64 MiB keeps the cell lossless, so each flow costs
    // one inject, per-hop trains and one ack.
    .port_buffer(Bytes::from_kib(64 * 1024))
    .horizon(SimTime::from_millis(50))
    .shards(shards);
    Matrix::new(base)
        .axis(
            "routing",
            vec![AxisValue::Routing(RoutingAlgorithm::ShortestHop)],
        )
        .master_seed(7)
}

#[test]
#[ignore = "scale gate: minutes of CPU, run by CI's bench-smoke job"]
fn dragonfly_1k_hosts_exports_identical_bytes_at_1_and_9_shards() {
    let _alone = run_alone();
    let run = |shards: usize| {
        let start = Instant::now();
        let result = Runner::single_threaded().run(&dragonfly_matrix(shards));
        println!(
            "dragonfly(9,8,16) at {shards} shard(s): {} events in {:.1} s",
            result.cells[0].events_processed,
            start.elapsed().as_secs_f64()
        );
        assert_eq!(result.failed_jobs(), 0, "{shards}-shard job panicked");
        for cell in &result.cells {
            assert_eq!(
                cell.completed_runs, cell.runs,
                "{shards}-shard cell {:?} left flows incomplete",
                cell.labels
            );
        }
        result
    };
    let one = run(1);
    let nine = run(9);
    assert_eq!(one.to_csv(), nine.to_csv(), "9-shard CSV diverged");
    assert_eq!(one.to_json(), nine.to_json(), "9-shard JSON diverged");
}

/// The heavy sharded cell of the worker-scaling gate: the 16×16 torus
/// under the adaptive controller, 4 KiB all-to-all at load 1.0, racks 20 m
/// apart, 4 shards: the adaptive job of a baseline/adaptive controller
/// matrix over that torus (master seed 7).
fn torus_adaptive_spec() -> ScenarioSpec {
    let base = ScenarioSpec::new(
        "sharded-perf-smoke",
        TopologySpec::grid(3, 3, 2),
        WorkloadSpec::Shuffle {
            partition: Bytes::from_kib(4),
            load: 1.0,
        },
    )
    .horizon(SimTime::from_millis(40))
    .shards(4);
    Matrix::new(base)
        .axis(
            "racks",
            vec![AxisValue::Topology(
                TopologySpec::torus(16, 16, 2).with_rack_spacing(Length::from_m(20)),
            )],
        )
        .axis(
            "controller",
            vec![
                AxisValue::Controller(ControllerSpec::Baseline),
                AxisValue::Controller(ControllerSpec::adaptive_default()),
            ],
        )
        .master_seed(7)
        .expand()
        .remove(1)
        .spec
}

#[test]
#[ignore = "scale gate: needs ≥ 4 real cores for its ratio, run by CI's bench-smoke job"]
fn four_workers_are_not_slower_than_one_on_the_torus_adaptive_cell() {
    let _alone = run_alone();
    let spec = torus_adaptive_spec();
    // (workers, best wall nanos, barrier-wait fraction of that pass)
    let mut points: Vec<(usize, u64, f64)> = Vec::new();
    let mut reference = None;
    for workers in [1, 2, 4] {
        let mut best: Option<(u64, f64)> = None;
        // Best of three passes: a ratio of single shots is scheduler noise.
        for _ in 0..3 {
            let mut config = ShardedConfig::new(spec.to_fabric_config(), spec.shards);
            config.workers = workers;
            config.profile = true;
            let fabric = ShardedFabric::new(config, spec.build_flows());
            let start = Instant::now();
            let run = fabric.run();
            let nanos = start.elapsed().as_nanos() as u64;
            assert!(run.all_flows_complete, "{workers} workers left flows");
            let result = (run.events_processed, format!("{:?}", run.metrics.summary()));
            match &reference {
                None => reference = Some(result),
                Some(first) => assert_eq!(
                    first, &result,
                    "{workers} workers changed the simulation's results"
                ),
            }
            let barrier = run
                .profile
                .expect("profiling enabled")
                .barrier_wait_fraction(nanos, workers);
            if best.is_none_or(|(b, _)| nanos < b) {
                best = Some((nanos, barrier));
            }
        }
        let (nanos, barrier) = best.expect("three passes ran");
        points.push((workers, nanos, barrier));
    }
    let one = points[0].1 as f64;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("available parallelism: {cores}");
    for &(workers, nanos, barrier) in &points {
        println!(
            "{workers} worker(s): best {:.1} ms, {:.2}x vs 1 worker, barrier wait {:.1}%",
            nanos as f64 / 1e6,
            one / nanos as f64,
            barrier * 100.0
        );
    }
    let (_, four, _) = points[2];
    let speedup_vs_1_worker = one / four as f64;
    assert!(
        speedup_vs_1_worker >= 1.0,
        "negative worker scaling: {speedup_vs_1_worker:.2}x at 4 workers"
    );
}
