//! Golden-export regression suite for the paper-figure campaigns.
//!
//! Every figure of the paper (e1–e9, plus the repo's own e10 sharded-scale
//! and e11 fabric-vs-routing figures) is a declarative campaign in
//! `rackfabric_bench::figures` whose CSV export is byte-deterministic. This
//! suite runs the full set at `--tiny` scale end to end through the
//! command-layer `Executor` and pins it four ways:
//!
//! * each export must match its checked-in `golden/tiny/*.csv` **byte for
//!   byte** (an intentional result change regenerates goldens via
//!   `cargo run -p rackfabric-bench --bin sweep -- --figures --tiny
//!   --update-golden`),
//! * a second run against the same store must execute **zero** jobs and
//!   reproduce identical bytes (the resume gate),
//! * a campaign interrupted mid-flight by `max_new_jobs` must recover from
//!   its journal to the exact same golden bytes, re-executing nothing that
//!   was already journaled and stored (the crash-recovery gate),
//! * a perturbed export must *fail* the comparison with a readable
//!   per-column diff (the drift detector itself is tested).
//!
//! The paper's claims are then checked against the checked-in goldens
//! themselves (no simulation runs): switching latency dwarfs media
//! latency, bypassing switches cuts latency, and CRC-driven grid→torus
//! reconfiguration beats the static fabric at paper scale.

use rackfabric_bench::figures::{self, FigureOptions, FigureResolver, Scale};
use rackfabric_cmd::command::Command;
use rackfabric_cmd::Executor;
use rackfabric_daemon::prelude::*;
use rackfabric_scenario::runner::Runner;
use rackfabric_sweep::prelude::*;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn golden_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rackfabric-paper-figures-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn tiny_figures_match_goldens_and_resume_to_zero_jobs() {
    let dir = tmp_dir("e2e");
    let exec = Executor::new(ResultStore::open(&dir).unwrap(), Runner::new(0));

    // Cold: every simulation-backed figure executes its campaign.
    let cold = figures::run_figures(Scale::Tiny, &exec).unwrap();
    assert_eq!(cold.len(), 11, "e1..e11");
    let cold_executed: usize = cold.iter().map(|f| f.executed).sum();
    assert!(cold_executed > 0, "a cold store must execute jobs");
    assert!(cold.iter().all(|f| !f.interrupted));

    // Byte-for-byte against the checked-in goldens.
    let failures = figures::check_goldens(&golden_root(), Scale::Tiny, &cold);
    assert!(
        failures.is_empty(),
        "figure exports drifted from golden/tiny:\n{}",
        failures.join("\n---\n")
    );

    // Warm: the same campaigns against the same store execute nothing and
    // export identical bytes.
    let warm = figures::run_figures(Scale::Tiny, &exec).unwrap();
    let warm_executed: usize = warm.iter().map(|f| f.executed).sum();
    assert_eq!(warm_executed, 0, "a warm store must answer every job");
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(
            c.export,
            w.export,
            "{} must be byte-stable",
            c.export_file()
        );
        assert_eq!(c.export_file(), w.export_file());
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_figure_campaign_recovers_from_journal_to_golden_bytes() {
    let dir = tmp_dir("recover");
    let exec = Executor::with_journal(
        ResultStore::open(dir.join("store")).unwrap(),
        Runner::new(0),
        dir.join("journal"),
    )
    .unwrap();

    // Interrupted: the shared fresh-execution allowance runs out inside the
    // figure sequence; every figure still journals its marker.
    let partial = figures::run_figures_with(
        Scale::Tiny,
        &exec,
        &FigureOptions {
            max_new_jobs: Some(6),
            ..FigureOptions::default()
        },
    )
    .unwrap();
    let partial_executed: usize = partial.iter().map(|f| f.executed).sum();
    assert_eq!(partial_executed, 6, "the cap must interrupt the sequence");
    assert!(partial.iter().any(|f| f.interrupted));

    // Recovery replays the journal through the figure table: the 6 stored
    // jobs cost zero executions, the campaign markers complete the rest.
    let stats = exec.recover(&FigureResolver).unwrap();
    assert_eq!(stats.cells_replayed, 0, "stored jobs must not re-execute");
    assert_eq!(stats.cells_already_stored, 6);
    assert!(stats.campaigns_replayed > 0);

    // The recovered store now answers the full set warm, and the exports
    // are the exact golden bytes of an uninterrupted run.
    let recovered = figures::run_figures(Scale::Tiny, &exec).unwrap();
    let executed: usize = recovered.iter().map(|f| f.executed).sum();
    assert_eq!(executed, 0, "recovery must have completed every campaign");
    let failures = figures::check_goldens(&golden_root(), Scale::Tiny, &recovered);
    assert!(
        failures.is_empty(),
        "recovered exports drifted from golden/tiny:\n{}",
        failures.join("\n---\n")
    );

    // A second recovery pass is a no-op: everything journaled is stored.
    let again = exec.recover(&FigureResolver).unwrap();
    assert_eq!(again.cells_replayed, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_cancelled_figure_campaign_recovers_from_journal_to_batch_bytes() {
    // The crash-recovery gate, extended to the daemon path: a figure
    // campaign cancelled mid-flight through `rackfabricd`'s scheduler
    // leaves the same clean journal prefix as a `max_new_jobs`
    // interruption, `Executor::recover` completes it, and the recovered
    // store answers the daemon byte-identically to the batch path.
    let dir = tmp_dir("daemon-recover");
    let exec = Arc::new(
        Executor::with_journal(
            ResultStore::open(dir.join("store")).unwrap(),
            Runner::new(1),
            dir.join("journal"),
        )
        .unwrap(),
    );
    let command = Command::RegenerateFigure {
        id: "e1".to_string(),
        scale: "tiny".to_string(),
        budget: None,
    };

    // Deterministic interruption: the token's fuse trips at the second
    // job boundary (runner threads = 1, so each dispatch chunk is one
    // job) — e1 tiny has 8 jobs, leaving 6 unexecuted.
    let daemon = Daemon::start(
        exec.clone(),
        DaemonConfig {
            workers: 1,
            ..DaemonConfig::default()
        },
    )
    .unwrap();
    let token = CancelToken::after_checks(2);
    let id = daemon
        .scheduler()
        .submit_with_token("ci", 0, command.clone(), token)
        .job_id()
        .expect("an empty daemon accepts the submission");
    let mut saw_started = false;
    let cancelled = loop {
        match daemon
            .scheduler()
            .watch(id, saw_started, std::time::Duration::from_secs(120))
            .expect("the fused campaign must end, not hang")
        {
            rackfabric_daemon::sched::Observed::Started => saw_started = true,
            rackfabric_daemon::sched::Observed::Ended(end) => break end,
        }
    };
    assert!(
        matches!(cancelled, JobEnd::Cancelled),
        "the tripped fuse must surface as a cancellation: {cancelled:?}"
    );
    daemon.shutdown();
    assert_eq!(
        exec.store().len(),
        2,
        "the cancelled campaign persisted exactly its clean prefix"
    );

    // Recovery replays the journal: both stored jobs cost nothing, the
    // campaign marker completes the remaining six.
    let stats = exec.recover(&FigureResolver).unwrap();
    assert_eq!(stats.cells_replayed, 0, "stored jobs must not re-execute");
    assert!(stats.campaigns_replayed > 0, "the marker drives completion");
    assert_eq!(exec.store().len(), 8, "e1 tiny resolves 8 jobs");

    // Reference: the batch path against an independent store, queried
    // warm so the payload (executed = 0) is comparable.
    let ref_exec = Executor::new(
        ResultStore::open(dir.join("ref-store")).unwrap(),
        Runner::new(1),
    );
    execute_oneshot(&ref_exec, &command).expect("cold reference run");
    let (ref_cached, ref_line) = execute_oneshot(&ref_exec, &command).unwrap();
    assert!(ref_cached, "the second reference run is warm");

    // The daemon on the recovered store answers warm, byte-identically.
    let daemon = Daemon::start(exec.clone(), DaemonConfig::default()).unwrap();
    let client = Client::new(daemon.addr(), std::time::Duration::from_secs(120));
    let reply = client.submit("ci", 0, command).unwrap();
    assert!(reply.cached, "recovery must have completed the campaign");
    assert_eq!(
        reply.result_json, ref_line,
        "recovered daemon bytes must match an uninterrupted batch run"
    );
    client.shutdown().unwrap();
    daemon.wait();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn perturbed_histogram_bucket_fails_with_a_readable_per_column_diff() {
    // The e9 export carries histogram-derived percentile columns; bump one
    // p99 bucket value by a digit and the golden gate must fail, naming the
    // line and the column.
    let golden = std::fs::read_to_string(golden_root().join("tiny/e9_scenario_matrix.csv"))
        .expect("checked-in golden/tiny/e9_scenario_matrix.csv");
    let mut lines: Vec<String> = golden.lines().map(str::to_string).collect();
    let header: Vec<&str> = lines[0].split(',').collect();
    let p99_col = header
        .iter()
        .position(|&h| h == "latency_p99_ps")
        .expect("cells CSV has a latency_p99_ps column");
    let mut fields: Vec<String> = lines[1].split(',').map(str::to_string).collect();
    fields[p99_col].push('1'); // one histogram bucket drifts
    lines[1] = fields.join(",");
    let perturbed = format!("{}\n", lines.join("\n"));

    let err = figures::compare_export("e9_scenario_matrix.csv", &golden, &perturbed)
        .expect_err("a perturbed export must fail the golden gate");
    assert!(err.contains("line 2"), "diff must name the line: {err}");
    assert!(
        err.contains("column `latency_p99_ps`"),
        "diff must name the column: {err}"
    );
    assert!(err.contains("golden="), "diff must show both values: {err}");

    // The untouched export still passes.
    figures::compare_export("e9_scenario_matrix.csv", &golden, &golden).unwrap();
}

#[test]
fn figure_store_gc_reclaims_nothing_while_campaigns_are_live() {
    // After a full figure run, every record in the store is referenced by
    // some figure: gc against the live set must keep them all.
    let dir = tmp_dir("gc");
    let exec = Executor::new(ResultStore::open(&dir).unwrap(), Runner::new(0));
    let runs = figures::run_figures(Scale::Tiny, &exec).unwrap();
    let live: Vec<JobKey> = figures::live_keys(&runs).into_iter().collect();
    assert_eq!(
        exec.store().len(),
        live.len(),
        "one record per resolved job key"
    );
    let stats = exec.gc(&live).unwrap();
    assert_eq!(stats.removed, 0);
    assert_eq!(stats.kept, live.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// One checked-in golden export as rows of `column -> value`.
fn golden_rows(scale: Scale, file: &str) -> Vec<HashMap<String, String>> {
    let path = golden_root().join(scale.golden_dir()).join(file);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().expect("a header row").split(',').collect();
    lines
        .map(|line| {
            let row: HashMap<String, String> = header
                .iter()
                .map(|h| h.to_string())
                .zip(line.split(',').map(str::to_string))
                .collect();
            assert_eq!(row.len(), header.len(), "{file}: ragged row {line:?}");
            row
        })
        .collect()
}

/// A numeric cell of a golden row.
fn num(row: &HashMap<String, String>, column: &str) -> f64 {
    row[column]
        .parse()
        .unwrap_or_else(|e| panic!("{column} = {:?}: {e}", row[column]))
}

/// The job completion time of the single row matching every
/// `(column, value)` pair.
fn jct_where(rows: &[HashMap<String, String>], matches: &[(&str, &str)]) -> f64 {
    let found: Vec<_> = rows
        .iter()
        .filter(|r| matches.iter().all(|(c, v)| r[*c] == *v))
        .collect();
    assert_eq!(found.len(), 1, "exactly one row with {matches:?}");
    num(found[0], "job_completion_us")
}

#[test]
fn e1_switching_dwarfs_media_and_store_and_forward_is_slower() {
    for scale in [Scale::Tiny, Scale::Paper] {
        let rows = golden_rows(scale, "e1_latency_vs_hops.csv");
        let arm =
            |switch: &str| -> Vec<_> { rows.iter().filter(|r| r["switch"] == switch).collect() };
        let (cut_through, store_fwd) = (arm("cut-through"), arm("store-fwd"));
        assert!(cut_through.len() >= 4, "{scale:?}: too few hops");
        assert_eq!(cut_through.len(), store_fwd.len());
        for row in &rows {
            assert!(
                num(row, "switching_ns") > 5.0 * num(row, "media_ns"),
                "{scale:?}: switching must dwarf media at every hop: {row:?}"
            );
        }
        for (ct, sf) in cut_through.iter().zip(&store_fwd) {
            assert_eq!(ct["hops"], sf["hops"]);
            assert!(
                num(sf, "total_ns") > num(ct, "total_ns"),
                "{scale:?}: store-and-forward must be slower at {} hops",
                ct["hops"]
            );
        }
        for pair in cut_through.windows(2) {
            assert!(num(pair[1], "media_ns") > num(pair[0], "media_ns"));
            assert!(num(pair[1], "switching_ns") > num(pair[0], "switching_ns"));
        }
    }
}

#[test]
fn e5_e6_e7_analytic_figures_hold_their_claims() {
    for scale in [Scale::Tiny, Scale::Paper] {
        // e5: ten reconfiguration times; the worthwhile flow size grows
        // with the reconfiguration time.
        let e5 = golden_rows(scale, "e5_breakeven.csv");
        assert_eq!(e5.len(), 10);
        for pair in e5.windows(2) {
            assert!(num(&pair[1], "min_flow_kib") > num(&pair[0], "min_flow_kib"));
        }
        // e6: as the channel degrades, the chosen codec never weakens.
        let e6 = golden_rows(scale, "e6_adaptive_fec.csv");
        for pair in e6.windows(2) {
            assert!(num(&pair[1], "pre_ber_log10") > num(&pair[0], "pre_ber_log10"));
            assert!(
                num(&pair[1], "mode_index") >= num(&pair[0], "mode_index"),
                "{scale:?}: codec weakened as the channel degraded: {pair:?}"
            );
        }
        // e7: the DES switch model stays within 25% of the cycle model.
        for row in golden_rows(scale, "e7_validation.csv") {
            assert!(num(&row, "relative_error") <= 0.25, "{row:?}");
        }
    }
}

#[test]
fn e8_bypass_never_adds_latency_and_full_bypass_saves_a_fifth() {
    for scale in [Scale::Tiny, Scale::Paper] {
        let rows = golden_rows(scale, "e8_bypass.csv");
        let latency: Vec<f64> = rows.iter().map(|r| num(r, "latency_ns")).collect();
        assert!(latency.len() >= 4, "{scale:?}: too few bypass depths");
        assert!(
            latency.windows(2).all(|w| w[1] <= w[0]),
            "{scale:?}: latency rose with more bypassed nodes: {latency:?}"
        );
        assert!(
            latency[latency.len() - 1] < 0.8 * latency[0],
            "{scale:?}: full bypass must save > 20%: {latency:?}"
        );
    }
}

#[test]
fn paper_scale_reconfiguration_and_adaptive_routing_win() {
    // e2: with electrical-class PLP timing the CRC's grid→torus upgrade
    // finishes the shuffle before the static grid does.
    let e2 = golden_rows(Scale::Paper, "e2_reconfiguration.csv");
    let jct = |controller| jct_where(&e2, &[("controller", controller), ("plp", "split-20us")]);
    assert!(
        jct("hybrid") < jct("baseline"),
        "e2: hybrid must beat baseline"
    );

    // e3: the adaptive fabric beats the static grid from 16 nodes up.
    let e3 = golden_rows(Scale::Paper, "e3_mapreduce_scaling.csv");
    for nodes in ["16", "25", "36"] {
        let jct = |controller| jct_where(&e3, &[("nodes", nodes), ("controller", controller)]);
        assert!(
            jct("hybrid") < jct("baseline"),
            "e3: hybrid must beat baseline at {nodes} nodes"
        );
    }

    // e11: adaptive routing is no slower than minimal, and minimal beats
    // Valiant, on the reconfiguring grid and on the dragonfly alike.
    let e11 = golden_rows(Scale::Paper, "e11_fabric_vs_routing.csv");
    let mut fabrics: Vec<&str> = e11.iter().map(|r| r["fabric"].as_str()).collect();
    fabrics.dedup();
    assert_eq!(fabrics.len(), 2);
    for fabric in fabrics {
        let jct = |routing| jct_where(&e11, &[("fabric", fabric), ("routing", routing)]);
        assert!(
            jct("adaptive") <= jct("minimal") && jct("minimal") < jct("valiant"),
            "e11 on {fabric}: want adaptive <= minimal < valiant"
        );
    }
}
