//! The daemon itself: a TCP acceptor, per-connection protocol threads, and
//! a bounded worker pool draining the [`Scheduler`] through one shared
//! [`Executor`].
//!
//! The design keeps every determinism property of the batch path because
//! the daemon *is* the batch path behind a socket: workers call the exact
//! executor methods the CLI calls, results come from the same shared
//! [`ResultStore`](rackfabric_sweep::store::ResultStore), and response
//! payloads are canonical JSON of the same
//! encoded outcomes. Concurrency changes who waits, never what is
//! computed.
//!
//! Worker trace lanes start at [`DAEMON_LANE_BASE`] (see the lane table in
//! `rackfabric-obs`). The service feeds the metrics registry with
//! `daemon.queue_depth` / `daemon.active_jobs` gauges, warm-hit /
//! rejection / cancellation counters, and the `daemon.response_ns`
//! histogram (enqueue-to-completion residence, wall domain).

use crate::proto::{Event, Request, MAX_REQUEST_LINE};
use crate::sched::{JobEnd, Observed, Scheduler, Submitted};
use rackfabric_bench::figures::{figure_defs, FigureKind, Scale};
use rackfabric_cmd::command::Command;
use rackfabric_cmd::executor::Executor;
use rackfabric_obs::{Observer, TimeDomain};
use rackfabric_scenario::codec::decode_spec;
use rackfabric_sim::json::{self, JsonValue};
use rackfabric_sweep::campaign::Sweep;
use rackfabric_sweep::cancel::CancelToken;
use rackfabric_sweep::key::job_key;
use rackfabric_sweep::store::outcome_to_json;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// First trace lane of the daemon's worker pool (worker `w` records on
/// `DAEMON_LANE_BASE + w`). See the lane table in the obs crate.
pub const DAEMON_LANE_BASE: u64 = 3000;

/// How long a connection watcher waits for a single job phase before
/// reporting an error instead of hanging the client forever. Generous:
/// this is a liveness backstop, not a latency target.
const WATCH_TIMEOUT: Duration = Duration::from_secs(300);

/// Service configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Worker pool size (`0` = one per available core).
    pub workers: usize,
    /// Queue bound: submissions past this many waiting jobs are rejected.
    pub max_queue: usize,
    /// Listen address. Port `0` asks the OS for a free port — tests use
    /// this so parallel suites never collide.
    pub addr: SocketAddr,
    /// Service instrumentation (lanes, gauges, response histogram).
    /// Observability only: responses are byte-identical with it on or off.
    pub observer: Observer,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            workers: 0,
            max_queue: 1024,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            observer: Observer::off(),
        }
    }
}

/// A running daemon. Dropping it shuts the service down and joins every
/// worker.
pub struct Daemon {
    addr: SocketAddr,
    sched: Arc<Scheduler>,
    observer: Observer,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    stopped: AtomicBool,
}

impl Daemon {
    /// Boots the service: binds the listener, starts the worker pool and
    /// the acceptor, and returns the handle. `exec` is shared — typically
    /// journaled, always store-backed.
    pub fn start(exec: Arc<Executor>, config: DaemonConfig) -> io::Result<Daemon> {
        let listener = TcpListener::bind(config.addr)?;
        let addr = listener.local_addr()?;
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.workers
        };
        let sched = Arc::new(Scheduler::new(config.max_queue));
        let observer = config.observer.clone();
        let mut threads = Vec::with_capacity(workers + 1);
        for w in 0..workers {
            let exec = exec.clone();
            let sched = sched.clone();
            let observer = observer.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("rackfabricd-worker-{w}"))
                    .spawn(move || worker_loop(w, &exec, &sched, &observer))?,
            );
        }
        {
            let sched = sched.clone();
            let observer = observer.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("rackfabricd-accept".to_string())
                    .spawn(move || accept_loop(listener, sched, observer))?,
            );
        }
        Ok(Daemon {
            addr,
            sched,
            observer,
            threads: Mutex::new(threads),
            stopped: AtomicBool::new(false),
        })
    }

    /// The bound address (with the OS-assigned port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's scheduler (tests inspect counters through it).
    pub fn scheduler(&self) -> &Scheduler {
        &self.sched
    }

    /// The daemon's observer (metrics snapshots, trace export).
    pub fn observer(&self) -> &Observer {
        &self.observer
    }

    /// Blocks until a client's `shutdown` request drains the scheduler,
    /// then completes the shutdown locally (joins workers). The serve
    /// binary's main loop.
    pub fn wait(&self) {
        while !self.sched.is_shutting_down() {
            std::thread::sleep(Duration::from_millis(100));
        }
        self.shutdown();
    }

    /// Drains and stops: queued jobs cancel, active campaigns interrupt at
    /// their next job boundary, workers and the acceptor join. Idempotent.
    pub fn shutdown(&self) {
        if self.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        self.sched.shutdown();
        // Unblock the acceptor's blocking `accept` with a throwaway
        // connection; it observes the drain flag and exits.
        let _ = TcpStream::connect(self.addr);
        let mut threads = self.threads.lock().expect("daemon threads lock");
        for handle in threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The acceptor: one protocol thread per connection. Connection threads
/// are detached — they die with their sockets, and shutdown completes
/// every job they could be watching.
fn accept_loop(listener: TcpListener, sched: Arc<Scheduler>, observer: Observer) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        if sched.is_shutting_down() {
            return;
        }
        let sched = sched.clone();
        let observer = observer.clone();
        let _ = std::thread::Builder::new()
            .name("rackfabricd-conn".to_string())
            .spawn(move || {
                let _ = serve_connection(stream, &sched, &observer);
            });
    }
}

fn write_event(stream: &mut TcpStream, event: &Event) -> io::Result<()> {
    let mut line = event.canonical_json();
    line.push('\n');
    stream.write_all(line.as_bytes())
}

/// One connection: read request lines, answer with event lines. A submit
/// streams its job's lifecycle (`accepted`, `started`, terminal) before
/// the next request is read. A line longer than [`MAX_REQUEST_LINE`] gets
/// one `error` event and closes the connection.
fn serve_connection(stream: TcpStream, sched: &Scheduler, observer: &Observer) -> io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the cap tells an over-long line from one exactly at it.
        let limit = MAX_REQUEST_LINE as u64 + 1;
        if reader.by_ref().take(limit).read_until(b'\n', &mut buf)? == 0 {
            return Ok(());
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
        }
        if buf.len() > MAX_REQUEST_LINE {
            write_event(
                &mut writer,
                &Event::Error {
                    job: None,
                    reason: "request line too long".to_string(),
                },
            )?;
            return Ok(());
        }
        let line = std::str::from_utf8(&buf).ok();
        if line.is_some_and(|line| line.trim().is_empty()) {
            continue;
        }
        let Some(request) = line.and_then(Request::from_line) else {
            write_event(
                &mut writer,
                &Event::Error {
                    job: None,
                    reason: "malformed request".to_string(),
                },
            )?;
            continue;
        };
        match request {
            Request::Submit {
                tenant,
                priority,
                command,
            } => {
                observer.count("daemon.submitted", TimeDomain::Wall, 1);
                match sched.submit(&tenant, priority, command) {
                    Submitted::Rejected(reason) => {
                        observer.count("daemon.rejected", TimeDomain::Wall, 1);
                        write_event(&mut writer, &Event::Rejected { reason })?;
                    }
                    accepted => {
                        let id = accepted.job_id().expect("accepted submissions have ids");
                        observer.gauge_set(
                            "daemon.queue_depth",
                            TimeDomain::Wall,
                            sched.queue_depth() as i64,
                        );
                        write_event(&mut writer, &Event::Accepted { job: job_name(id) })?;
                        stream_job(&mut writer, sched, id)?;
                    }
                }
            }
            Request::Cancel { job } => {
                let ok = parse_job_name(&job).is_some_and(|id| sched.cancel(id));
                if ok {
                    observer.count("daemon.cancel_requests", TimeDomain::Wall, 1);
                    write_event(&mut writer, &Event::Cancelled { job })?;
                } else {
                    write_event(
                        &mut writer,
                        &Event::Error {
                            job: Some(job),
                            reason: "unknown or finished job".to_string(),
                        },
                    )?;
                }
            }
            Request::Status => {
                write_event(&mut writer, &Event::Status(sched.counts()))?;
            }
            Request::Shutdown => {
                write_event(&mut writer, &Event::ShuttingDown)?;
                sched.shutdown();
                return Ok(());
            }
        }
    }
}

/// Streams one job's phases to the client until a terminal event.
fn stream_job(writer: &mut TcpStream, sched: &Scheduler, id: u64) -> io::Result<()> {
    let mut saw_started = false;
    loop {
        match sched.watch(id, saw_started, WATCH_TIMEOUT) {
            Some(Observed::Started) => {
                saw_started = true;
                write_event(writer, &Event::Started { job: job_name(id) })?;
            }
            Some(Observed::Ended(end)) => {
                let event = match end {
                    JobEnd::Done { cached, result } => Event::Done {
                        job: job_name(id),
                        cached,
                        result,
                    },
                    JobEnd::Cancelled => Event::Cancelled { job: job_name(id) },
                    JobEnd::Failed(reason) => Event::Error {
                        job: Some(job_name(id)),
                        reason,
                    },
                };
                return write_event(writer, &event);
            }
            None => {
                return write_event(
                    writer,
                    &Event::Error {
                        job: Some(job_name(id)),
                        reason: "watch timed out".to_string(),
                    },
                );
            }
        }
    }
}

/// Public job id form (`j-17`).
fn job_name(id: u64) -> String {
    format!("j-{id}")
}

fn parse_job_name(name: &str) -> Option<u64> {
    name.strip_prefix("j-")?.parse().ok()
}

/// One worker: take jobs, execute through the shared executor, complete.
fn worker_loop(w: usize, exec: &Executor, sched: &Scheduler, observer: &Observer) {
    let lane = DAEMON_LANE_BASE + w as u64;
    if let Some(sink) = observer.trace() {
        sink.name_lane(lane, format!("daemon worker {w}"));
    }
    while let Some((id, tenant, command, cancel)) = sched.next_job() {
        observer.gauge_set(
            "daemon.queue_depth",
            TimeDomain::Wall,
            sched.queue_depth() as i64,
        );
        observer.gauge_set(
            "daemon.active_jobs",
            TimeDomain::Wall,
            sched.active_jobs() as i64,
        );
        let end = {
            let mut span = observer.span(lane, "job", "daemon");
            span.arg_u64("job", id);
            span.arg_str("tenant", tenant);
            span.arg_str("op", command.op());
            execute_command(exec, &command, &cancel)
        };
        match &end {
            JobEnd::Done { cached: true, .. } => {
                observer.count("daemon.warm_hits", TimeDomain::Wall, 1)
            }
            JobEnd::Done { .. } => observer.count("daemon.cold_runs", TimeDomain::Wall, 1),
            JobEnd::Cancelled => observer.count("daemon.cancelled", TimeDomain::Wall, 1),
            JobEnd::Failed(_) => observer.count("daemon.failed", TimeDomain::Wall, 1),
        }
        let residence = sched.complete(id, end);
        observer.record(
            "daemon.response_ns",
            TimeDomain::Wall,
            residence.as_nanos().min(u64::MAX as u128) as u64,
        );
        observer.gauge_set(
            "daemon.active_jobs",
            TimeDomain::Wall,
            sched.active_jobs() as i64,
        );
    }
}

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Executes one command exactly as a daemon worker would, returning
/// `(cached, canonical_result_line)`. The CLI's `--oneshot` batch mode and
/// CI's byte-comparison gate use this to produce reference bytes with no
/// socket or scheduler in the path.
pub fn execute_oneshot(exec: &Executor, command: &Command) -> Result<(bool, String), String> {
    match execute_command(exec, command, &CancelToken::new()) {
        JobEnd::Done { cached, result } => Ok((cached, json::canonical(&result))),
        JobEnd::Cancelled => Err("cancelled".to_string()),
        JobEnd::Failed(reason) => Err(reason),
    }
}

/// Executes one command through the shared executor, producing the job's
/// terminal state. Scenario results are the canonical outcome encoding the
/// store itself uses, so a response is byte-comparable to a batch run.
fn execute_command(exec: &Executor, command: &Command, cancel: &CancelToken) -> JobEnd {
    if cancel.is_cancelled() {
        return JobEnd::Cancelled;
    }
    match command {
        Command::RunScenario { spec_json } => run_spec(exec, spec_json, None),
        Command::ExecuteCell { key, spec_json } => run_spec(exec, spec_json, Some(*key)),
        Command::RegenerateFigure { id, scale, budget } => {
            let scale = match scale.as_str() {
                "tiny" => Scale::Tiny,
                "paper" => Scale::Paper,
                other => return JobEnd::Failed(format!("unknown figure scale {other:?}")),
            };
            let Some(def) = figure_defs(scale).into_iter().find(|def| def.id == *id) else {
                return JobEnd::Failed(format!("unknown figure {id:?}"));
            };
            let (matrix, export) = match def.kind {
                FigureKind::Analytic(render) => {
                    let result = obj(vec![
                        ("executed", JsonValue::Number("0".into())),
                        ("export", JsonValue::String(render())),
                        ("figure", JsonValue::String(def.id.to_string())),
                        ("interrupted", JsonValue::Bool(false)),
                    ]);
                    return JobEnd::Done {
                        cached: true,
                        result,
                    };
                }
                FigureKind::Sim(matrix, export) => (matrix, export),
            };
            let mut sweep = Sweep::new(*matrix).cancel(cancel.clone());
            if let Some(spec) = budget {
                sweep = sweep.budget(spec.to_policy());
            }
            match exec.regenerate_figure(id, scale.golden_dir(), &sweep) {
                Err(e) => JobEnd::Failed(e.to_string()),
                Ok(outcome) if outcome.interrupted => JobEnd::Cancelled,
                Ok(outcome) => {
                    let result = obj(vec![
                        ("executed", JsonValue::Number(outcome.executed.to_string())),
                        ("export", JsonValue::String(export(&outcome))),
                        ("figure", JsonValue::String(def.id.to_string())),
                        ("interrupted", JsonValue::Bool(false)),
                    ]);
                    JobEnd::Done {
                        cached: outcome.executed == 0,
                        result,
                    }
                }
            }
        }
        Command::GcStore { live } => match exec.gc(live) {
            Err(e) => JobEnd::Failed(e.to_string()),
            Ok(stats) => JobEnd::Done {
                cached: false,
                result: obj(vec![
                    ("kept", JsonValue::Number(stats.kept.to_string())),
                    ("removed", JsonValue::Number(stats.removed.to_string())),
                ]),
            },
        },
        other => JobEnd::Failed(format!(
            "op {:?} is not servable over the daemon API",
            other.op()
        )),
    }
}

/// Runs one scenario spec store-first. With `expect`, the journaled key is
/// verified against the decoded spec before any engine time is spent.
fn run_spec(
    exec: &Executor,
    spec_json: &str,
    expect: Option<rackfabric_sweep::key::JobKey>,
) -> JobEnd {
    let spec = match decode_spec(spec_json) {
        Ok(spec) => spec,
        Err(e) => return JobEnd::Failed(format!("bad spec: {e}")),
    };
    if let Some(expected) = expect {
        let derived = job_key(&spec);
        if derived != expected {
            return JobEnd::Failed(format!(
                "key {expected} does not match its spec (derived {derived})"
            ));
        }
    }
    match exec.run_scenario_tracked(&spec) {
        Err(e) => JobEnd::Failed(e.to_string()),
        Ok((outcome, cached)) => {
            let text = outcome_to_json(&outcome);
            let result = json::parse(&text).expect("outcome_to_json emits valid JSON");
            JobEnd::Done { cached, result }
        }
    }
}
