//! The rackfabric benchmark: runs one workload for a fixed time, checks its
//! results and prints one JSON line with every metric it measured.
//!
//! ```text
//! rackfabric-perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//! rackfabric-perfbench --reference-kernel RUNS
//! ```
//!
//! The second form runs the reference kernel (see [`reference`]) and
//! prints the CPU seconds of each run; the first runs it that way beside
//! the workload.
//!
//! Workloads: `static-shuffle`, `adaptive-shuffle` (see [`fabric`]) and
//! `daemon-mixed` (see [`daemon`]). Every layer is timed from outside, by
//! calls into the crates' public functions, and by the counters those
//! crates already return. `--trace 1` adds a traced half to the run: the
//! window profiler and metrics registry are on, spans around each timed
//! call go to a Perfetto trace under `--out`, and the per-layer metrics
//! come from that half. `perfbench/run.py` builds this binary and selects
//! the metrics `BENCHMARK.json` names.
//!
//! Exit status: 0 when every correctness check passed, 1 when one failed,
//! 2 on bad arguments or an I/O error.

mod daemon;
mod fabric;
mod reference;
mod stats;

use fabric::FabricWorkload;
use rackfabric_obs::prelude::TraceSink;
use stats::Report;
use std::path::PathBuf;
use std::sync::Arc;

/// Trace lane of the benchmark's own spans (clients use the lanes after
/// it). Clear of the engine (0..), job-worker (1000..), orchestrator
/// (2000) and daemon (3000..) lanes.
pub const BENCH_LANE: u64 = 5000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: seconds as f64,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        out: PathBuf::from(value("--out")?),
    })
}

fn run(args: &Args, sink: Option<&Arc<TraceSink>>, report: &mut Report) -> std::io::Result<()> {
    match args.workload.as_str() {
        "static-shuffle" => fabric::run(
            &FabricWorkload::static_shuffle(),
            args.seed,
            args.seconds,
            sink,
            report,
        ),
        "adaptive-shuffle" => fabric::run(
            &FabricWorkload::adaptive_shuffle(),
            args.seed,
            args.seconds,
            sink,
            report,
        ),
        "daemon-mixed" => {
            let work = args.out.join(format!("work-{}", std::process::id()));
            let result = daemon::run(args.seed, args.seconds, &work, sink, report);
            let _ = std::fs::remove_dir_all(&work);
            result?;
        }
        other => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("unknown workload {other:?}"),
            ))
        }
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, runs] = argv.as_slice() {
        if flag == reference::KERNEL_FLAG {
            let done = runs
                .parse()
                .map_err(|e| format!("{flag}: {e}"))
                .and_then(|runs| reference::print_kernel_runs(runs).map_err(|e| e.to_string()));
            if let Err(message) = done {
                eprintln!("perfbench: {message}");
                std::process::exit(2);
            }
            return;
        }
    }
    let args = parse_args().unwrap_or_else(|message| {
        eprintln!("perfbench: {message}");
        std::process::exit(2);
    });
    let sink = args.trace.then(|| {
        let sink = Arc::new(TraceSink::new());
        sink.name_lane(BENCH_LANE, "perfbench");
        sink
    });
    let mut report = Report::default();
    let outcome = std::fs::create_dir_all(&args.out)
        .and_then(|()| run(&args, sink.as_ref(), &mut report))
        .and_then(|()| match &sink {
            Some(sink) => {
                let path = args
                    .out
                    .join(format!("{}-seed{}.trace.json", args.workload, args.seed));
                sink.write_file(&path)?;
                eprintln!(
                    "perfbench: wrote {} trace event(s) ({} dropped) to {}",
                    sink.len(),
                    sink.dropped(),
                    path.display()
                );
                Ok(())
            }
            None => Ok(()),
        });
    if let Err(e) = outcome {
        eprintln!("perfbench: {}: {e}", args.workload);
        std::process::exit(2);
    }
    println!("{}", report.render_json());
    std::process::exit(if report.correct() { 0 } else { 1 });
}
