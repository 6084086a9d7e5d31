//! The `daemon-mixed` workload: `rackfabricd` in process, driven over its
//! socket by a closed loop of clients sending warm and cold submissions.
//!
//! Warm requests draw from a pre-warmed pool of small 2×2-grid specs, so
//! the store answers them; cold requests carry a never-seen seed of the
//! same spec, so each is journaled, executed and stored. The engine does
//! little here: the cost is the JSON codec, key hashing, the store, the
//! journal's fsync, scheduling and the one-connection-per-request round
//! trip. Reads sit beside writes, so a change that speeds one at the
//! other's cost shows in the tail.

use crate::reference::SpeedGauge;
use crate::stats::{median, peak_rss_mib, process_cpu_s, quantile, secs, timed, CpuTicks, Report};
use crate::BENCH_LANE;
use rackfabric::prelude::TopologySpec;
use rackfabric_cmd::command::Command;
use rackfabric_cmd::executor::Executor;
use rackfabric_cmd::journal::Journal;
use rackfabric_daemon::prelude::{execute_oneshot, Client, Daemon, DaemonConfig};
use rackfabric_obs::prelude::{Observer, Registry, Span, TraceSink};
use rackfabric_scenario::prelude::{Runner, ScenarioSpec, WorkloadSpec};
use rackfabric_sim::json;
use rackfabric_sim::prelude::{Bytes, SimTime};
use rackfabric_sim::rng::DetRng;
use rackfabric_sweep::key::{canonical_spec_json, job_key};
use rackfabric_sweep::store::ResultStore;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Distinct warm specs, all executed once before the loop starts.
const POOL: usize = 16;
/// Client threads of the closed loop, and daemon workers.
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Share of requests that carry a never-seen spec.
const COLD_SHARE: f64 = 0.1;
/// Reference-kernel runs before each round of start-ups and after the
/// loop (see `reference`).
const KERNEL_RUNS: usize = 5;
/// Daemon start-ups timed for `setup_s` in each round: one round before
/// the loop and one at each pause between its [`SEGMENTS`].
const START_UPS: usize = 40;
/// The loop runs in this many segments, with a round of start-ups between
/// two, so the start-ups spread over the run as the requests do.
const SEGMENTS: usize = 5;
/// Cold specs the layer calls run on, and repetitions of each call.
const LAYER_SPECS: usize = 32;
const LAYER_REPS: usize = 5;
/// Response lines kept per client for the JSON codec timings.
const KEPT_LINES: usize = 128;
/// `peak_rss_mb` is read when this many loop requests have completed. The
/// daemon keeps every finished job, so its memory grows with requests
/// served; reading it at a fixed amount of work keeps a faster daemon from
/// scoring a worse high-water mark.
const RSS_AT_REQUESTS: u64 = 4000;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// The engine layers' metrics: the fabric workloads measure them,
/// `daemon-mixed` reports 0.
const NOT_EXERCISED: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("switch.dropped_packets", "count"),
    ("switch.delivered_frac", "fraction"),
    ("topo.route_misses", "count"),
    ("topo.route_hit_rate", "fraction"),
    ("topo.refill_us", "us"),
    ("core.crc_syncs", "count"),
    ("core.plp_commands", "count"),
    ("core.crc_decide_us", "us"),
    ("sim.windows", "count"),
    ("sim.events_per_window", "events"),
    ("sim.barrier_wait_frac", "fraction"),
    ("sim.mailbox_trains", "count"),
    ("sim.fused_windows", "count"),
    ("sim.shard_imbalance", "ratio"),
    ("core.build_flows_s", "s"),
    ("core.fabric_new_s", "s"),
    ("model.packet_p99_us", "us"),
    ("model.job_completion_us", "us"),
    ("model.delivered_bytes", "bytes"),
];

/// The spec behind request stream position `k` of a run: pool entries are
/// `k < POOL`, cold requests follow. Every `k` draws its own 64-bit spec
/// seed, so two positions share a job key only by a seed collision.
fn spec(seed: u64, k: u64) -> ScenarioSpec {
    ScenarioSpec::new(
        "daemon-mixed",
        TopologySpec::grid(2, 2, 2),
        WorkloadSpec::Shuffle {
            partition: Bytes::from_kib(2),
            load: if k.is_multiple_of(2) { 0.5 } else { 1.0 },
        },
    )
    .horizon(SimTime::from_millis(5))
    .seed(DetRng::new(seed).split(k).next_u64())
}

/// The warm pool of a run.
fn pool_for(seed: u64) -> Vec<Command> {
    (0..POOL as u64).map(|k| command(&spec(seed, k))).collect()
}

fn command(spec: &ScenarioSpec) -> Command {
    Command::RunScenario {
        spec_json: canonical_spec_json(spec),
    }
}

/// Stream position of client `client`'s `n`th cold request.
fn cold_position(client: usize, n: u64) -> u64 {
    POOL as u64 + n * CLIENTS as u64 + client as u64
}

/// A running daemon with its executor, as `rackfabricd` sets it up by
/// default: a store with the journal under it.
struct Service {
    exec: Arc<Executor>,
    daemon: Daemon,
    client: Client,
}

impl Service {
    /// Opens (creating if needed) the store and its journal under `dir`
    /// and starts the daemon. It accepts connections on return: its
    /// listener is bound, so the kernel queues them for the acceptor.
    fn start(dir: &Path, observer: Observer) -> io::Result<Service> {
        let store_dir = dir.join("store");
        let store = ResultStore::open(&store_dir)?;
        let runner = Runner::new(1).with_observer(observer.clone());
        let exec = Arc::new(Executor::with_journal(
            store,
            runner,
            store_dir.join("journal"),
        )?);
        let daemon = Daemon::start(
            exec.clone(),
            DaemonConfig {
                workers: WORKERS,
                observer,
                ..DaemonConfig::default()
            },
        )?;
        let client = Client::new(daemon.addr(), CLIENT_TIMEOUT);
        Ok(Service {
            exec,
            daemon,
            client,
        })
    }

    /// Submits every pool command once (the untimed warm-up) and returns
    /// the responses.
    fn prewarm(&self, pool: &[Command], report: &mut Report) -> Vec<String> {
        pool.iter()
            .enumerate()
            .map(
                |(i, command)| match self.client.submit("warmup", 0, command.clone()) {
                    Ok(reply) => {
                        report.check(!reply.cached, || {
                            format!("pool spec {i} was cached before its first run")
                        });
                        reply.result_json
                    }
                    Err(e) => {
                        report.check(false, || format!("pool spec {i}: {e}"));
                        String::new()
                    }
                },
            )
            .collect()
    }

    fn stop(self) {
        self.daemon.shutdown();
    }
}

/// One timed request: its round trip and kind.
struct Sample {
    ms: f64,
    cold: bool,
}

/// What one client of the closed loop saw.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    cold_sent: u64,
    /// Warm responses that differed from the pool's first response.
    mismatches: u64,
    /// Replies whose cache flag contradicted the request kind.
    wrong_flag: u64,
    errors: Vec<String>,
    lines: Vec<String>,
}

/// One client's state, kept across the segments of a loop.
struct LoopClient {
    rng: DetRng,
    log: ClientLog,
}

/// One segment of a loop. Loop time is wall time since the loop started,
/// less the pauses between segments.
#[derive(Clone, Copy)]
struct Segment {
    /// When the segment started.
    start: Instant,
    /// Loop time at that moment.
    offset: f64,
    /// Loop time at which it ends.
    until: f64,
}

impl Segment {
    /// The current loop time.
    fn now(&self) -> f64 {
        self.offset + secs(self.start)
    }
}

/// Shared by the clients of one loop: requests completed, and the peak RSS
/// once [`RSS_AT_REQUESTS`] of them have.
#[derive(Default)]
struct Progress {
    completed: AtomicU64,
    rss_mib: OnceLock<f64>,
}

/// One closed-loop client: sends its next request after each reply until
/// `segment` ends.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    client: &Client,
    c: usize,
    seed: u64,
    pool: &[Command],
    expected: &[String],
    segment: Segment,
    sink: Option<&Arc<TraceSink>>,
    progress: &Progress,
    state: &mut LoopClient,
) {
    let LoopClient { rng, log } = state;
    let tenant = format!("tenant-{c}");
    while segment.now() < segment.until {
        let cold = rng.chance(COLD_SHARE);
        let (command, warm_index) = if cold {
            let k = cold_position(c, log.cold_sent);
            log.cold_sent += 1;
            (command(&spec(seed, k)), None)
        } else {
            let i = rng.index(POOL);
            (pool[i].clone(), Some(i))
        };
        let _span = sink.map(|s| {
            let name = if cold { "request.cold" } else { "request.warm" };
            Span::enter(s.clone(), BENCH_LANE + 1 + c as u64, name, "perfbench")
        });
        let sent = Instant::now();
        let reply = client.submit(&tenant, 0, command);
        let ms = secs(sent) * 1e3;
        match reply {
            Ok(reply) => {
                log.samples.push(Sample { ms, cold });
                if progress.completed.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AT_REQUESTS {
                    let _ = progress.rss_mib.set(peak_rss_mib());
                }
                if reply.cached == cold {
                    log.wrong_flag += 1;
                }
                if let Some(i) = warm_index {
                    if reply.result_json != expected[i] {
                        log.mismatches += 1;
                    }
                }
                if log.lines.len() < KEPT_LINES {
                    log.lines.push(reply.result_json);
                }
            }
            Err(e) => log.errors.push(e.to_string()),
        }
    }
}

/// The closed loop's merged outcome.
struct LoopResult {
    logs: Vec<ClientLog>,
    /// The loop's length in loop time (see [`Segment`]).
    wall_s: f64,
    /// CPU milliseconds the whole process (daemon and clients) used per
    /// completed request, one figure per segment.
    cpu_ms_per_request: Vec<f64>,
    /// Share of the machine's CPU time stolen during each segment.
    steal: Vec<f64>,
    /// Peak RSS at [`RSS_AT_REQUESTS`] completed requests (at the end of
    /// the loop if it completed fewer).
    rss_mib: f64,
}

impl LoopResult {
    fn latencies(&self, filter: impl Fn(&Sample) -> bool) -> Vec<f64> {
        self.logs
            .iter()
            .flat_map(|l| l.samples.iter())
            .filter(|s| filter(s))
            .map(|s| s.ms)
            .collect()
    }

    fn requests(&self) -> usize {
        self.logs.iter().map(|l| l.samples.len()).sum()
    }

    fn cold_sent(&self) -> u64 {
        self.logs.iter().map(|l| l.cold_sent).sum()
    }

    fn req_per_s(&self) -> f64 {
        self.requests() as f64 / self.wall_s
    }

    /// CPU milliseconds per completed request, the median over segments.
    /// CPU time leaves out what the hypervisor stole and what other tasks
    /// ran meanwhile; on a shared host, both turn straight into queueing
    /// on the round trip's thread hand-offs, and a p99 doubled at 10%
    /// steal.
    fn cpu_ms_per_request(&self) -> f64 {
        median(&self.cpu_ms_per_request)
    }
}

/// Runs the closed loop against `service` for `seconds` of loop time, in
/// [`SEGMENTS`] with `pause` called between two, and checks what came
/// back. An error means `pause` failed or not one request completed.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    service: &Service,
    pool: &[Command],
    expected: &[String],
    seed: u64,
    seconds: f64,
    sink: Option<&Arc<TraceSink>>,
    report: &mut Report,
    pause: &mut dyn FnMut() -> io::Result<()>,
) -> io::Result<LoopResult> {
    let puts_before = service.exec.store().stats().puts;
    let progress = Progress::default();
    let mut clients: Vec<LoopClient> = (0..CLIENTS)
        .map(|c| LoopClient {
            rng: DetRng::new(seed).split(0xc11e + c as u64),
            log: ClientLog::default(),
        })
        .collect();
    let completed =
        |clients: &[LoopClient]| -> usize { clients.iter().map(|c| c.log.samples.len()).sum() };
    let mut wall_s = 0.0;
    let (mut cpu_ms_per_request, mut steal) = (Vec::new(), Vec::new());
    for n in 0..SEGMENTS {
        if n > 0 {
            pause()?;
        }
        let segment = Segment {
            start: Instant::now(),
            offset: wall_s,
            until: seconds * (n + 1) as f64 / SEGMENTS as f64,
        };
        let (ticks, cpu, done) = (CpuTicks::now(), process_cpu_s(), completed(&clients));
        std::thread::scope(|s| {
            for (c, state) in clients.iter_mut().enumerate() {
                let client = service.client.clone();
                let progress = &progress;
                s.spawn(move || {
                    client_loop(
                        &client, c, seed, pool, expected, segment, sink, progress, state,
                    )
                });
            }
        });
        wall_s = segment.now();
        let cpu_ms = (process_cpu_s() - cpu) * 1e3;
        steal.push(CpuTicks::now().steal_since(&ticks));
        let requests = completed(&clients) - done;
        if requests > 0 {
            cpu_ms_per_request.push(cpu_ms / requests as f64);
        }
    }
    let logs = clients.into_iter().map(|c| c.log).collect();
    let rss_mib = match progress.rss_mib.get() {
        Some(&rss) => rss,
        None => {
            eprintln!("perfbench: fewer than {RSS_AT_REQUESTS} requests completed; peak RSS read at the end");
            peak_rss_mib()
        }
    };
    let result = LoopResult {
        logs,
        wall_s,
        cpu_ms_per_request,
        steal,
        rss_mib,
    };
    for (c, log) in result.logs.iter().enumerate() {
        report.attempted += (log.samples.len() + log.errors.len()) as u64;
        report.failed += log.errors.len() as u64;
        if let Some(e) = log.errors.first() {
            eprintln!(
                "perfbench: client {c}: {} request(s) failed, first: {e}",
                log.errors.len()
            );
        }
        report.check(log.mismatches == 0, || {
            format!("client {c}: {} warm response(s) differ from the first response to the same command", log.mismatches)
        });
        report.check(log.wrong_flag == 0, || {
            format!(
                "client {c}: {} reply(ies) with a cache flag contradicting warm/cold",
                log.wrong_flag
            )
        });
    }
    let puts = service.exec.store().stats().puts - puts_before;
    let cold = result.cold_sent();
    report.check(puts == cold, || {
        format!("store puts {puts} != distinct cold specs sent {cold}")
    });
    if result.requests() == 0 {
        return Err(io::Error::other("no request completed"));
    }
    Ok(result)
}

/// Starts [`START_UPS`] daemons one after the other on the store and
/// journal under `dir`, as restarts of `rackfabricd` would, and appends the
/// CPU seconds each start-up took to `times`. Each daemon then answers a
/// `status` request and stops. That round trip is left out of the time:
/// it is a request, and its thread wake-ups made the figure swing 2x from
/// run to run on a shared host.
fn time_start_ups(dir: &Path, times: &mut Vec<f64>) -> io::Result<()> {
    for _ in 0..START_UPS {
        let (service, elapsed) = timed(|| Service::start(dir, Observer::off()));
        let service = service?;
        times.push(elapsed.cpu_s);
        service.client.status()?;
        service.stop();
    }
    Ok(())
}

/// Checks the daemon's responses against the executor run in process over
/// a separate store under `dir`, without the daemon: the same command must
/// give the same bytes.
fn check_against_executor(dir: &Path, pool: &[Command], expected: &[String], report: &mut Report) {
    let exec = match ResultStore::open(dir) {
        Ok(store) => Executor::new(store, Runner::new(1)),
        Err(e) => return report.check(false, || format!("reference store: {e}")),
    };
    for (i, command) in pool.iter().enumerate() {
        let same =
            matches!(execute_oneshot(&exec, command), Ok((_, bytes)) if bytes == expected[i]);
        report.check(same, || {
            format!("pool spec {i}: daemon bytes differ from the in-process executor's")
        });
    }
}

fn record_latencies(result: &LoopResult, prefix: &str, report: &mut Report) {
    let all = result.latencies(|_| true);
    let warm = result.latencies(|s| !s.cold);
    let cold = result.latencies(|s| s.cold);
    let q = |v: &[f64], q: f64| if v.is_empty() { 0.0 } else { quantile(v, q) };
    report.metric(&format!("{prefix}req_per_s"), result.req_per_s(), "1/s");
    report.metric(&format!("{prefix}req_p50_ms"), q(&all, 0.5), "ms");
    report.metric(&format!("{prefix}req_p99_ms"), q(&all, 0.99), "ms");
    report.metric(&format!("{prefix}warm_p50_ms"), q(&warm, 0.5), "ms");
    report.metric(&format!("{prefix}warm_p99_ms"), q(&warm, 0.99), "ms");
    report.metric(&format!("{prefix}cold_p50_ms"), q(&cold, 0.5), "ms");
    report.metric(&format!("{prefix}cold_p90_ms"), q(&cold, 0.9), "ms");
    report.metric(&format!("{prefix}requests"), all.len() as f64, "count");
    report.metric(
        &format!("{prefix}warm_requests"),
        warm.len() as f64,
        "count",
    );
    report.metric(
        &format!("{prefix}cold_requests"),
        cold.len() as f64,
        "count",
    );
}

/// Runs `daemon-mixed` for `seconds` under `work` (a scratch directory the
/// caller removes) and records its metrics. With a trace sink, half the
/// time drives an untraced daemon and half a traced one, and the per-layer
/// metrics come from the traced half.
pub fn run(
    seed: u64,
    seconds: f64,
    work: &Path,
    trace: Option<&Arc<TraceSink>>,
    report: &mut Report,
) -> io::Result<()> {
    let pool = pool_for(seed);

    // Start-ups are timed on a store and journal of their own, which an
    // untimed first start-up creates.
    let start_ups = work.join("start-ups");
    Service::start(&start_ups, Observer::off())?.stop();
    let mut setup_s = Vec::with_capacity(START_UPS * SEGMENTS);
    let mut speed = SpeedGauge::default();
    speed.sample(KERNEL_RUNS);
    time_start_ups(&start_ups, &mut setup_s)?;
    let service = Service::start(&work.join("daemon"), Observer::off())?;
    let expected = service.prewarm(&pool, report);
    check_against_executor(&work.join("reference"), &pool, &expected, report);
    // The same checks once on a second seed, so that no change can be
    // tuned to one seed; its pool is run cold, then warm.
    let second = pool_for(seed.wrapping_add(1));
    let cold = service.prewarm(&second, report);
    check_against_executor(&work.join("reference-2"), &second, &cold, report);
    for (i, command) in second.iter().enumerate() {
        let warm = service.client.submit("check", 0, command.clone());
        let same = matches!(&warm, Ok(reply) if reply.cached && reply.result_json == cold[i]);
        report.check(same, || {
            format!("second seed, pool spec {i}: the warm response differs from the cold one")
        });
    }

    let untraced_s = if trace.is_some() {
        seconds / 2.0
    } else {
        seconds
    };
    let untraced = closed_loop(
        &service,
        &pool,
        &expected,
        seed,
        untraced_s,
        None,
        report,
        &mut || {
            speed.sample(KERNEL_RUNS);
            time_start_ups(&start_ups, &mut setup_s)
        },
    )?;
    service.stop();
    speed.sample(KERNEL_RUNS);

    // The headline figures are CPU time at the reference speed (see
    // `reference`).
    let (setup_cpu_s, cpu_ms) = (median(&setup_s), untraced.cpu_ms_per_request());
    report.metric("setup_s", speed.at_reference(setup_cpu_s), "s");
    report.metric("op_ref_ms", speed.at_reference(cpu_ms), "ms");
    report.metric("peak_rss_mb", untraced.rss_mib, "MiB");
    report.metric("setup_cpu_s", setup_cpu_s, "s");
    report.metric("op_cpu_ms", cpu_ms, "ms");
    report.metric("ref_kernel_ms", speed.kernel_s() * 1e3, "ms");
    report.metric("host.steal_frac", median(&untraced.steal), "fraction");
    record_latencies(&untraced, "", report);

    let Some(sink) = trace else {
        return Ok(());
    };
    let observer = Observer::off()
        .with_trace(sink.clone())
        .with_registry(Arc::new(Registry::new()));
    let traced_service = Service::start(&work.join("traced"), observer)?;
    let traced_expected = traced_service.prewarm(&pool, report);
    report.check(traced_expected == expected, || {
        "the traced daemon's responses differ from the untraced daemon's".to_string()
    });
    let traced = closed_loop(
        &traced_service,
        &pool,
        &expected,
        seed,
        seconds - untraced_s,
        Some(sink),
        report,
        &mut || Ok(()),
    )?;
    let counts = traced_service.daemon.scheduler().counts();
    let store_stats = traced_service.exec.store().stats();
    traced_service.stop();

    record_latencies(&traced, "daemon.", report);
    report.metric("daemon.warm_hits", counts.warm_hits as f64, "count");
    report.metric(
        "daemon.cold_runs",
        (counts.completed - counts.warm_hits) as f64,
        "count",
    );
    report.metric(
        "daemon.dedup_attached",
        counts.dedup_attached as f64,
        "count",
    );
    report.metric("daemon.rejected", counts.rejected as f64, "count");
    report.metric("sweep.store_hit_rate", store_stats.hit_rate(), "fraction");
    let p50 = |result: &LoopResult| quantile(&result.latencies(|_| true), 0.5);
    report.metric(
        "trace.op_cpu_delta_ms",
        traced.cpu_ms_per_request() - untraced.cpu_ms_per_request(),
        "ms",
    );
    report.metric(
        "trace.latency_p50_delta_ms",
        p50(&traced) - p50(&untraced),
        "ms",
    );
    report.metric(
        "trace.throughput_delta_per_s",
        traced.req_per_s() - untraced.req_per_s(),
        "1/s",
    );
    report.metric("trace.samples", traced.requests() as f64, "count");

    let warm_p50_ms = quantile(&traced.latencies(|s| !s.cold), 0.5);
    let lines: Vec<String> = traced.logs.into_iter().flat_map(|l| l.lines).collect();
    let exec_warm_us = storage_layers(seed, work, &lines, sink, report)?;
    report.metric("daemon.overhead_ms", warm_p50_ms - exec_warm_us / 1e3, "ms");
    report.not_exercised(NOT_EXERCISED);
    Ok(())
}

/// Times the storage path's layers from outside, on this run's specs and
/// responses: key hashing, store get/put, the JSON codec, journal append
/// (with its fsync) and the executor without the daemon. Returns the
/// executor's warm median in microseconds.
fn storage_layers(
    seed: u64,
    work: &Path,
    lines: &[String],
    sink: &Arc<TraceSink>,
    report: &mut Report,
) -> io::Result<f64> {
    let specs: Vec<ScenarioSpec> = (0..LAYER_SPECS)
        .map(|n| spec(seed, cold_position(0, n as u64)))
        .collect();
    let layer_span = |name: &'static str| Span::enter(sink.clone(), BENCH_LANE, name, "perfbench");
    let time_us = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        secs(start) * 1e6
    };

    let mut key_us = Vec::new();
    {
        let _span = layer_span("layer.sweep_key");
        for _ in 0..LAYER_REPS {
            for spec in &specs {
                key_us.push(time_us(&mut || {
                    black_box((canonical_spec_json(spec), job_key(spec)));
                }));
            }
        }
    }
    report.metric("sweep.key_us", median(&key_us), "us");

    let exec_dir = scratch(work, "executor")?;
    let exec = Executor::with_journal(
        ResultStore::open(&exec_dir)?,
        Runner::new(1),
        exec_dir.join("journal"),
    )?;
    let (mut cold_ms, mut warm_us, mut outcomes) = (Vec::new(), Vec::new(), Vec::new());
    {
        let _span = layer_span("layer.cmd_executor");
        for spec in &specs {
            let start = Instant::now();
            let (outcome, cached) = exec.run_scenario_tracked(spec)?;
            cold_ms.push(secs(start) * 1e3);
            report.check(!cached, || "executor: a cold spec was cached".to_string());
            for _ in 0..LAYER_REPS {
                let start = Instant::now();
                let (_, cached) = exec.run_scenario_tracked(spec)?;
                warm_us.push(secs(start) * 1e6);
                report.check(cached, || {
                    "executor: a repeated spec missed the store".to_string()
                });
            }
            outcomes.push(outcome);
        }
    }
    report.metric("cmd.exec_cold_ms", median(&cold_ms), "ms");
    let exec_warm_us = median(&warm_us);
    report.metric("cmd.exec_warm_us", exec_warm_us, "us");

    let store = ResultStore::open(scratch(work, "store")?)?;
    let (mut put_us, mut get_us) = (Vec::new(), Vec::new());
    {
        let _span = layer_span("layer.sweep_store");
        for (spec, outcome) in specs.iter().zip(&outcomes) {
            let (key, spec_json) = (job_key(spec), canonical_spec_json(spec));
            let start = Instant::now();
            store.put(&key, &spec_json, outcome)?;
            put_us.push(secs(start) * 1e6);
        }
        for _ in 0..LAYER_REPS {
            for spec in &specs {
                let key = job_key(spec);
                let start = Instant::now();
                let hit = store.get(&key).is_some();
                get_us.push(secs(start) * 1e6);
                report.check(hit, || "store: a stored record was not found".to_string());
            }
        }
    }
    report.metric("sweep.store_put_us", median(&put_us), "us");
    report.metric("sweep.store_get_us", median(&get_us), "us");

    let (mut parse_us, mut canonical_us) = (Vec::new(), Vec::new());
    {
        let _span = layer_span("layer.sim_json");
        for _ in 0..LAYER_REPS {
            for line in lines {
                let start = Instant::now();
                let value = json::parse(line);
                parse_us.push(secs(start) * 1e6);
                let Ok(value) = value else {
                    report.check(false, || "a response line is not JSON".to_string());
                    continue;
                };
                let start = Instant::now();
                let text = json::canonical(&value);
                canonical_us.push(secs(start) * 1e6);
                report.check(&text == line, || {
                    "a response line is not in canonical form".to_string()
                });
            }
        }
    }
    let median_or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    report.metric("sim.json_parse_us", median_or_zero(&parse_us), "us");
    report.metric("sim.json_canonical_us", median_or_zero(&canonical_us), "us");

    let mut journal = Journal::open(scratch(work, "journal")?)?;
    let mut append_us = Vec::new();
    {
        let _span = layer_span("layer.cmd_journal");
        for spec in &specs {
            let command = command(spec);
            let start = Instant::now();
            journal.append(&command)?;
            append_us.push(secs(start) * 1e6);
        }
    }
    report.metric("cmd.journal_append_us", median(&append_us), "us");
    Ok(exec_warm_us)
}

/// A fresh directory `name` under `work`.
fn scratch(work: &Path, name: &str) -> io::Result<PathBuf> {
    let dir = work.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
