//! The fabric workloads: one 8×8 heavy-shuffle cell through
//! `ShardedFabric`, run back to back.
//!
//! `static-shuffle` runs the baseline controller on one shard; it exercises
//! the engine core (calendar scheduling, egress drain, drop-and-retry) and
//! bypasses the CRC, route refill and cross-shard sync. `adaptive-shuffle`
//! runs the same traffic under the adaptive CRC on two shards, so the
//! difference between the two isolates the control loop and sharding.

use crate::reference::SpeedGauge;
use crate::stats::{median, peak_rss_mib, quantile, secs, timed, CpuTicks, Elapsed, Report};
use crate::BENCH_LANE;
use rackfabric::prelude::RunSummary;
use rackfabric::prelude::{ClosedRingControl, RoutingAlgorithm, ShardedConfig, ShardedFabric};
use rackfabric_obs::prelude::{Observer, Registry, Span, TimeDomain, TraceSink, WindowProfile};
use rackfabric_phy::PhyState;
use rackfabric_scenario::prelude::{ControllerSpec, ScenarioSpec, WorkloadSpec};
use rackfabric_sim::prelude::{Bytes, SimTime};
use rackfabric_sim::rng::DetRng;
use rackfabric_topo::cache::{InternedRoute, RouteCache};
use rackfabric_topo::routing::{dijkstra_tree, route_from_tree, shortest_path_tree};
use rackfabric_topo::{LinkArena, NodeId, Topology};
use rackfabric_workload::{Flow, WorkloadFlowId};
use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Timed repetitions of the layer calls (`topo.refill_us`,
/// `core.crc_decide_us`); each metric is the median over them.
const REFILL_REPS: usize = 15;
const DECIDE_REPS: usize = 200;
/// Set-ups timed for `setup_s` after each untraced cell.
const SETUPS_PER_CELL: usize = 4;
/// Worker threads of a sharded workload's parallel cells: the untimed
/// check, and the traced cell the barrier waits are read from. Timed cells
/// run every shard on one worker (see [`FabricWorkload::adaptive_shuffle`]).
const PARALLEL_WORKERS: usize = 2;

/// The storage and daemon layers' metrics: `daemon-mixed` measures them,
/// the fabric workloads report 0.
const NOT_EXERCISED: &[(&str, &str)] = &[
    ("sweep.key_us", "us"),
    ("sweep.store_get_us", "us"),
    ("sweep.store_put_us", "us"),
    ("sweep.store_hit_rate", "fraction"),
    ("sim.json_parse_us", "us"),
    ("sim.json_canonical_us", "us"),
    ("cmd.journal_append_us", "us"),
    ("cmd.exec_warm_us", "us"),
    ("cmd.exec_cold_ms", "ms"),
    ("daemon.warm_hits", "count"),
    ("daemon.cold_runs", "count"),
    ("daemon.dedup_attached", "count"),
    ("daemon.rejected", "count"),
    ("daemon.overhead_ms", "ms"),
    ("daemon.req_per_s", "1/s"),
    ("daemon.req_p99_ms", "ms"),
    ("daemon.warm_p50_ms", "ms"),
    ("daemon.warm_p99_ms", "ms"),
    ("daemon.cold_p50_ms", "ms"),
    ("daemon.cold_p90_ms", "ms"),
];

/// One fabric workload: the cell's controller and its shard count. Timed
/// cells run all shards on one worker thread.
pub struct FabricWorkload {
    name: &'static str,
    controller: ControllerSpec,
    shards: usize,
}

impl FabricWorkload {
    /// Baseline controller, one shard.
    pub fn static_shuffle() -> FabricWorkload {
        FabricWorkload {
            name: "static-shuffle",
            controller: ControllerSpec::Baseline,
            shards: 1,
        }
    }

    /// Default adaptive CRC (20 µs epochs, MinCost routing), two shards.
    ///
    /// The timed cells run both shards on one worker, so the shards still
    /// meet at every window edge and trade mailbox trains, but no thread
    /// waits at a barrier. On two workers, each spins while it waits for
    /// the other, so the cell's CPU time is twice its wall time and, like
    /// the wall time, follows whatever slows either vCPU. On a shared
    /// 2-vCPU host, two workers ran a cell about 6% faster than one shard on
    /// one worker, for twice the CPU time. The two-worker layout is still
    /// checked (see [`checked_cell`]) and its barrier waits measured.
    pub fn adaptive_shuffle() -> FabricWorkload {
        FabricWorkload {
            name: "adaptive-shuffle",
            controller: ControllerSpec::adaptive_default(),
            shards: 2,
        }
    }

    /// The cell: an 8×8 grid with 2 lanes per link, all-to-all shuffle of
    /// 64 KiB per pair at load 1.0 (4,032 flows), 50 ms horizon.
    fn spec(&self, seed: u64) -> ScenarioSpec {
        ScenarioSpec::new(
            self.name,
            rackfabric::prelude::TopologySpec::grid(8, 8, 2),
            WorkloadSpec::Shuffle {
                partition: Bytes::from_kib(64),
                load: 1.0,
            },
        )
        .controller(self.controller)
        .horizon(SimTime::from_millis(50))
        .shards(self.shards)
        .seed(seed)
    }
}

/// A workload's inputs for one seed. The shuffle itself has no random
/// part, so the seed picks the order in which its flows reach the engine:
/// flow ids follow that order, and they break ties between simultaneous
/// events, so each seed is a different run of the same traffic.
struct Inputs {
    spec: ScenarioSpec,
    order: Vec<usize>,
}

impl Inputs {
    fn new(workload: &FabricWorkload, seed: u64) -> Inputs {
        let spec = workload.spec(seed);
        let mut order: Vec<usize> = (0..spec.build_flows().len()).collect();
        DetRng::new(seed).split(0xf10).shuffle(&mut order);
        Inputs { spec, order }
    }

    /// The spec's flows in this seed's order, renumbered.
    fn arrange(&self, flows: Vec<Flow>) -> Vec<Flow> {
        self.order
            .iter()
            .enumerate()
            .map(|(i, &j)| Flow {
                id: WorkloadFlowId(i as u64),
                ..flows[j]
            })
            .collect()
    }
}

/// How a cell is instrumented.
enum Probe {
    Off,
    /// Window profile and a metrics registry on; benchmark spans (and,
    /// when `engine_trace`, the engine's own window spans) go to `sink`.
    Traced {
        sink: Arc<TraceSink>,
        engine_trace: bool,
    },
}

/// One cell's outcome. It keeps the run's counters, not its full metrics,
/// so the cells a run holds do not add to its peak RSS.
struct Cell {
    /// Every simulated result of the run.
    summary: RunSummary,
    events: u64,
    windows: u64,
    syncs: u64,
    complete: bool,
    profile: Option<WindowProfile>,
    mailbox_trains: u64,
    /// Wall seconds of the run phase.
    run_s: f64,
    /// CPU seconds of the run phase, all the engine's threads together.
    cpu_s: f64,
    /// Share of the machine's CPU time stolen during the run.
    steal: f64,
}

impl Cell {
    /// Same simulated results, compared byte for byte in `Debug` form.
    fn same_result(&self, other: &Cell) -> bool {
        format!("{:?}", self.summary) == format!("{:?}", other.summary)
            && self.events == other.events
            && self.complete == other.complete
    }
}

fn span(probe: &Probe, name: &'static str) -> Span {
    match probe {
        Probe::Off => Span::disabled(),
        Probe::Traced { sink, .. } => Span::enter(sink.clone(), BENCH_LANE, name, "perfbench"),
    }
}

/// Builds a cell's engine: `build_flows`, then `ShardedFabric::new`.
/// Returns it with the time each step took.
fn set_up(
    inputs: &Inputs,
    shards: usize,
    workers: usize,
    probe: &Probe,
    registry: &Arc<Registry>,
) -> (ShardedFabric, Elapsed, Elapsed) {
    let (flows, build) = {
        let _span = span(probe, "scenario.build_flows");
        timed(|| inputs.spec.build_flows())
    };
    let flows = inputs.arrange(flows);
    let mut config = ShardedConfig::new(inputs.spec.to_fabric_config(), shards);
    config.workers = workers;
    if let Probe::Traced { sink, engine_trace } = probe {
        config.profile = true;
        config.observer = Observer::off().with_registry(registry.clone());
        if *engine_trace {
            config.observer = config.observer.with_trace(sink.clone());
        }
    }
    let (fabric, new) = {
        let _span = span(probe, "core.shard.new");
        timed(|| ShardedFabric::new(config, flows))
    };
    (fabric, build, new)
}

/// Times the set-up of the workload's traffic in the `n`th flow order drawn
/// from `seed`, returning the CPU seconds of `build_flows` and of
/// `ShardedFabric::new`. `ShardedFabric::new` schedules every flow's first
/// event, and its cost depends on the order (1.3x between two seeds on
/// `static-shuffle`), so set-up timed on the run's own order alone would
/// follow the seed.
fn set_up_time(workload: &FabricWorkload, seed: u64, n: usize) -> (f64, f64) {
    let inputs = Inputs::new(
        workload,
        DetRng::new(seed).split(0x5e7 + n as u64).next_u64(),
    );
    let registry = Arc::new(Registry::new());
    let (_, build, new) = set_up(&inputs, workload.shards, 1, &Probe::Off, &registry);
    (build.cpu_s, new.cpu_s)
}

fn run_cell(inputs: &Inputs, shards: usize, workers: usize, probe: &Probe) -> Cell {
    let registry = Arc::new(Registry::new());
    let (fabric, _, _) = set_up(inputs, shards, workers, probe, &registry);
    let ticks = CpuTicks::now();
    let (run, elapsed) = {
        let _span = span(probe, "core.shard.run");
        timed(|| fabric.run())
    };
    let steal = CpuTicks::now().steal_since(&ticks);
    Cell {
        summary: run.metrics.summary(),
        events: run.events_processed,
        windows: run.windows,
        syncs: run.syncs,
        complete: run.all_flows_complete,
        profile: run.profile,
        mailbox_trains: registry
            .counter("engine.mailbox_trains", TimeDomain::Sim)
            .get(),
        run_s: elapsed.wall_s,
        cpu_s: elapsed.cpu_s,
        steal,
    }
}

/// Runs cells until `seconds` have passed (at least three), checking each
/// against `reference`. Untraced, it also runs the reference kernel before
/// each cell and times [`SETUPS_PER_CELL`] set-ups after it (see
/// [`set_up_time`]), so the kernel and set-up samples spread over the run
/// as the cells do, and returns them with the cells.
fn run_cells(
    workload: &FabricWorkload,
    inputs: &Inputs,
    reference: &Cell,
    seconds: f64,
    probe: &Probe,
    report: &mut Report,
) -> (Vec<Cell>, Vec<(f64, f64)>, SpeedGauge) {
    let what = match probe {
        Probe::Off => "untraced",
        Probe::Traced { .. } => "traced",
    };
    let start = Instant::now();
    let mut cells = Vec::new();
    let mut set_ups = Vec::new();
    let mut speed = SpeedGauge::default();
    while cells.len() < 3 || secs(start) < seconds {
        let probe = match probe {
            Probe::Traced { sink, .. } => Probe::Traced {
                sink: sink.clone(),
                engine_trace: cells.is_empty(),
            },
            Probe::Off => {
                speed.sample(1);
                Probe::Off
            }
        };
        let cell = run_cell(inputs, workload.shards, 1, &probe);
        let n = cells.len();
        report.check(cell.same_result(reference), || {
            format!("{what} cell {n} differs from the warm-up cell")
        });
        cells.push(cell);
        if let Probe::Off = probe {
            for _ in 0..SETUPS_PER_CELL {
                set_ups.push(set_up_time(workload, inputs.spec.seed, set_ups.len()));
            }
        }
    }
    (cells, set_ups, speed)
}

/// The share of `workers` × the cell's wall time its workers spent waiting
/// at window barriers, from its window profile (0 without one).
fn barrier_wait(cell: &Cell, workers: usize) -> f64 {
    cell.profile.as_ref().map_or(0.0, |p| {
        p.barrier_wait_fraction((cell.run_s * 1e9) as u64, workers)
    })
}

/// The median over `cells` of `f`.
fn cell_median(cells: &[Cell], f: impl Fn(&Cell) -> f64) -> f64 {
    median(&cells.iter().map(f).collect::<Vec<_>>())
}

/// Runs one untimed cell of `inputs` and checks it: every flow completes,
/// and on a sharded workload, the shards on [`PARALLEL_WORKERS`] workers
/// and 1 shard × 1 worker give the same results as the timed layout.
fn checked_cell(workload: &FabricWorkload, inputs: &Inputs, report: &mut Report) -> Cell {
    let seed = inputs.spec.seed;
    let cell = run_cell(inputs, workload.shards, 1, &Probe::Off);
    report.check(cell.complete, || {
        format!("seed {seed}: not every flow completed")
    });
    if workload.shards > 1 {
        for (shards, workers) in [(workload.shards, PARALLEL_WORKERS), (1, 1)] {
            let other = run_cell(inputs, shards, workers, &Probe::Off);
            report.check(other.same_result(&cell), || {
                format!(
                    "seed {seed}: {shards} shard(s) x {workers} worker(s) differ from {} shards x 1 worker",
                    workload.shards
                )
            });
        }
    }
    cell
}

/// Runs one fabric workload for `seconds` and records its metrics. With a
/// trace sink, half the time runs untraced and half traced, and the
/// per-layer metrics come from the traced half.
pub fn run(
    workload: &FabricWorkload,
    seed: u64,
    seconds: f64,
    trace: Option<&Arc<TraceSink>>,
    report: &mut Report,
) {
    let inputs = Inputs::new(workload, seed);
    // The untimed warm-up cell: the reference every later cell must equal.
    let reference = checked_cell(workload, &inputs, report);
    // The same checks once on a second seed, so that no change can be
    // tuned to one seed.
    checked_cell(
        workload,
        &Inputs::new(workload, seed.wrapping_add(1)),
        report,
    );

    let untraced_s = if trace.is_some() {
        seconds / 2.0
    } else {
        seconds
    };
    let (cells, set_ups, speed) = run_cells(
        workload,
        &inputs,
        &reference,
        untraced_s,
        &Probe::Off,
        report,
    );
    let events = reference.events as f64;
    let (build_s, new_s): (Vec<f64>, Vec<f64>) = set_ups.into_iter().unzip();
    let setup_s: Vec<f64> = build_s.iter().zip(&new_s).map(|(b, n)| b + n).collect();
    // The headline figures are CPU time at the reference speed (see
    // `reference`). CPU time leaves out what the hypervisor stole and what
    // other tasks ran meanwhile: on a shared host, either doubled a cell's
    // wall time.
    let setup_cpu_s = median(&setup_s);
    let cell_cpu_s = cell_median(&cells, |c| c.cpu_s);
    report.metric("setup_s", speed.at_reference(setup_cpu_s), "s");
    report.metric("op_ref_ms", speed.at_reference(cell_cpu_s) * 1e3, "ms");
    report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    report.metric("setup_cpu_s", setup_cpu_s, "s");
    report.metric("core.build_flows_s", median(&build_s), "s");
    report.metric("core.fabric_new_s", median(&new_s), "s");
    report.metric("op_cpu_ms", cell_cpu_s * 1e3, "ms");
    report.metric("ref_kernel_ms", speed.kernel_s() * 1e3, "ms");
    let wall: Vec<f64> = cells.iter().map(|c| c.run_s).collect();
    let cell_wall_s = median(&wall);
    report.metric("cell_wall_s", cell_wall_s, "s");
    report.metric("cell_wall_p90_s", quantile(&wall, 0.9), "s");
    report.metric("events_per_s", events / cell_wall_s, "events/s");
    report.metric("events_per_cpu_s", events / cell_cpu_s, "events/s");
    report.metric("cells", cells.len() as f64, "count");
    report.metric(
        "host.steal_frac",
        cell_median(&cells, |c| c.steal),
        "fraction",
    );

    let Some(sink) = trace else {
        return;
    };
    let probe = Probe::Traced {
        sink: sink.clone(),
        engine_trace: true,
    };
    let (traced, _, _) = run_cells(
        workload,
        &inputs,
        &reference,
        seconds - untraced_s,
        &probe,
        report,
    );
    layer_metrics(workload, &inputs, &traced, &cells, seed, sink, report);
}

/// The per-layer metrics of the traced half.
fn layer_metrics(
    workload: &FabricWorkload,
    inputs: &Inputs,
    traced: &[Cell],
    untraced: &[Cell],
    seed: u64,
    sink: &Arc<TraceSink>,
    report: &mut Report,
) {
    let first = &traced[0];
    let summary = &first.summary;
    let events = first.events as f64;
    let traced_wall = cell_median(traced, |c| c.run_s);
    let untraced_wall = cell_median(untraced, |c| c.run_s);

    // Engine, from the window profile of every traced cell.
    let drain_ns = |c: &Cell| -> f64 {
        c.profile.as_ref().map_or(0.0, |p| {
            p.shards.iter().map(|s| s.drain_nanos).sum::<u64>() as f64
        })
    };
    report.metric("sim.events", events, "count");
    report.metric(
        "sim.ns_per_event",
        cell_median(traced, |c| drain_ns(c) / c.events.max(1) as f64),
        "ns",
    );
    report.metric(
        "switch.dropped_packets",
        summary.dropped_packets as f64,
        "count",
    );
    let attempts = (summary.delivered_packets + summary.dropped_packets).max(1);
    report.metric(
        "switch.delivered_frac",
        summary.delivered_packets as f64 / attempts as f64,
        "fraction",
    );
    report.metric(
        "topo.route_misses",
        summary.route_cache_misses as f64,
        "count",
    );
    report.metric(
        "topo.route_hit_rate",
        summary.route_cache_hit_rate,
        "fraction",
    );
    report.metric("core.crc_syncs", first.syncs as f64, "count");
    report.metric("core.plp_commands", summary.plp_commands as f64, "count");
    report.metric("sim.windows", first.windows as f64, "count");
    report.metric(
        "sim.events_per_window",
        events / first.windows.max(1) as f64,
        "events",
    );
    // Workers wait at barriers only when there are several: on a sharded
    // workload, the waits are read from one traced cell on
    // PARALLEL_WORKERS workers.
    let barrier_wait_frac = if workload.shards > 1 {
        let probe = Probe::Traced {
            sink: sink.clone(),
            engine_trace: false,
        };
        let cell = run_cell(inputs, workload.shards, PARALLEL_WORKERS, &probe);
        report.check(cell.same_result(first), || {
            format!("the traced cell on {PARALLEL_WORKERS} workers differs from the warm-up cell")
        });
        barrier_wait(&cell, PARALLEL_WORKERS)
    } else {
        cell_median(traced, |c| barrier_wait(c, 1))
    };
    report.metric("sim.barrier_wait_frac", barrier_wait_frac, "fraction");
    report.metric("sim.mailbox_trains", first.mailbox_trains as f64, "count");
    report.metric(
        "sim.fused_windows",
        first.profile.as_ref().map_or(0, |p| p.fused_windows) as f64,
        "count",
    );
    report.metric(
        "sim.shard_imbalance",
        first
            .profile
            .as_ref()
            .map_or(0.0, |p| p.shard_event_imbalance()),
        "ratio",
    );
    report.metric(
        "model.packet_p99_us",
        summary.packet_latency.p99 / 1e6,
        "us",
    );
    report.metric(
        "model.job_completion_us",
        summary.job_completion_us.unwrap_or(0.0),
        "us",
    );
    report.metric(
        "model.delivered_bytes",
        summary.delivered_bytes as f64,
        "bytes",
    );

    let (refill_us, decide_us) = {
        let _span = Span::enter(sink.clone(), BENCH_LANE, "layer.topo_core", "perfbench");
        control_layers(inputs, seed)
    };
    report.metric("topo.refill_us", refill_us, "us");
    report.metric("core.crc_decide_us", decide_us, "us");

    report.metric(
        "trace.op_cpu_delta_ms",
        (cell_median(traced, |c| c.cpu_s) - cell_median(untraced, |c| c.cpu_s)) * 1e3,
        "ms",
    );
    report.metric(
        "trace.latency_p50_delta_ms",
        (traced_wall - untraced_wall) * 1e3,
        "ms",
    );
    report.metric(
        "trace.throughput_delta_per_s",
        events / traced_wall - events / untraced_wall,
        "1/s",
    );
    report.metric("trace.samples", traced.len() as f64, "count");
    report.not_exercised(NOT_EXERCISED);
}

/// Times the two control-plane layers from outside, on this workload's
/// topology: the CRC epoch (`price` + `decide` on a telemetry report with
/// one entry per link) and a whole route-cache refill (`bump_epoch`, then
/// every distinct flow pair looked up, each miss filling its source's route
/// tree the way the engine does). Returns microseconds, median over reps.
///
/// The refill repeats the engine's private `cached_route` policy (a whole
/// tree per miss: BFS for shortest-hop, Dijkstra with weight 1.0 under the
/// CRC's prices otherwise); when that policy changes, change this to match.
fn control_layers(inputs: &Inputs, seed: u64) -> (f64, f64) {
    let config = inputs.spec.to_fabric_config();
    let mut phy = PhyState::new();
    let topo = config.spec.instantiate(&mut phy, config.lane_rate);
    let arena = LinkArena::build(&topo);

    // A seeded epoch of telemetry: every link somewhere between idle and
    // overloaded, with matching queue build-up.
    let mut rng = DetRng::new(seed).split(0xc7c);
    let mut utilization = HashMap::new();
    let mut queue_bytes = HashMap::new();
    for id in phy.link_ids() {
        let util = rng.next_f64() * 1.2;
        utilization.insert(id, util);
        queue_bytes.insert(id, util * config.port_buffer.as_u64() as f64 / 2.0);
    }
    let telemetry = phy.telemetry_report(
        SimTime::ZERO + config.crc.epoch,
        &utilization,
        &queue_bytes,
        &HashMap::new(),
    );
    let mut crc = ClosedRingControl::new(config.crc);
    let mut decide_us = Vec::with_capacity(DECIDE_REPS);
    for _ in 0..DECIDE_REPS {
        let start = Instant::now();
        let prices = crc.price(black_box(&telemetry));
        let decision = crc.decide(&telemetry, &phy);
        black_box((prices, decision));
        decide_us.push(secs(start) * 1e6);
    }

    let cost_map = crc.price(&telemetry).as_cost_map();
    let pairs: BTreeSet<(NodeId, NodeId)> = inputs
        .spec
        .build_flows()
        .iter()
        .map(|f| (f.src, f.dst))
        .collect();
    let mut cache = RouteCache::new();
    let mut refill_us = Vec::with_capacity(REFILL_REPS);
    for _ in 0..REFILL_REPS {
        let start = Instant::now();
        cache.bump_epoch();
        for &(src, dst) in &pairs {
            if cache.lookup(src, dst, 0).is_some() {
                continue;
            }
            let tree = match config.routing {
                RoutingAlgorithm::ShortestHop => shortest_path_tree(&topo, src),
                _ => dijkstra_tree(&topo, src, &cost_map, 1.0),
            };
            fill_tree(&mut cache, &topo, &arena, src, &tree);
        }
        refill_us.push(secs(start) * 1e6);
    }
    black_box(&cache);
    (median(&refill_us), median(&decide_us))
}

fn fill_tree(
    cache: &mut RouteCache,
    topo: &Topology,
    arena: &LinkArena,
    src: NodeId,
    tree: &rackfabric_topo::routing::PredecessorTree,
) {
    for node in topo.nodes() {
        let route = route_from_tree(src, node, tree)
            .and_then(|r| InternedRoute::intern(r, arena))
            .map(Arc::new);
        cache.insert(src, node, 0, route);
    }
}
