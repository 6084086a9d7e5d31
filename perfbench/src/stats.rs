//! Sample statistics and the result record the benchmark prints.

use rackfabric_sim::json;
use std::time::Instant;

/// The `q`-quantile of `values` by linear interpolation between the two
/// nearest ranks (the rule numpy and `statistics.quantiles` call
/// "inclusive"). Exact: it reads the samples, never a bucketed histogram.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The wall and CPU seconds one call took.
#[derive(Debug, Clone, Copy)]
pub struct Elapsed {
    pub wall_s: f64,
    /// CPU seconds of the whole process, all threads together (see
    /// [`process_cpu_s`]).
    pub cpu_s: f64,
}

/// Times `f` and returns its result with the wall and CPU time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Elapsed) {
    let (start, cpu) = (Instant::now(), process_cpu_s());
    let out = f();
    let elapsed = Elapsed {
        wall_s: secs(start),
        cpu_s: process_cpu_s() - cpu,
    };
    (out, elapsed)
}

/// CPU time the whole process has used, all its threads (live or ended)
/// together, in seconds. The kernel leaves out time the hypervisor stole
/// and time other tasks held the CPU, so on a shared host this reads the
/// program's own work where wall time reads its neighbours' too.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Cumulative CPU time of the whole machine, from the first line of
/// `/proc/stat`, in clock ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    /// Time the hypervisor ran other guests while this one wanted the CPU.
    steal: u64,
    /// All accounted time: user, nice, system, idle, iowait, irq, softirq
    /// and steal.
    total: u64,
}

impl CpuTicks {
    /// The current counters; zero where `/proc/stat` cannot be read, so
    /// every interval then reads as free of steal.
    pub fn now() -> CpuTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .and_then(|line| line.strip_prefix("cpu "))
            .map(|rest| {
                rest.split_whitespace()
                    .filter_map(|f| f.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        if fields.len() < 8 {
            return CpuTicks::default();
        }
        CpuTicks {
            steal: fields[7],
            total: fields[..8].iter().sum(),
        }
    }

    /// The share of CPU time stolen between `earlier` and `self`.
    pub fn steal_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}

/// One workload run's result: every metric it measured, the operations it
/// attempted, and the correctness checks that failed.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    failures: Vec<String>,
    /// Operations attempted (cells run, requests sent, checks made).
    pub attempted: u64,
    /// Operations that errored or failed a correctness check.
    pub failed: u64,
}

impl Report {
    /// Records metric `name` in `unit`. Later values replace earlier ones.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records 0 for each `(name, unit)` of a layer this workload does not
    /// exercise, so every per-layer metric is reported on every workload.
    pub fn not_exercised(&mut self, metrics: &[(&str, &'static str)]) {
        for &(name, unit) in metrics {
            self.metric(name, 0.0, unit);
        }
    }

    /// Counts one checked operation; a `false` verdict fails it with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let message = what();
            eprintln!("perfbench: CHECK FAILED — {message}");
            self.failures.push(message);
        }
    }

    /// True when no check failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// Renders the record as one JSON line.
    pub fn render_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json::escape(name),
                    json::number(*value),
                    json::escape(unit)
                )
            })
            .collect();
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", json::escape(f)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            failures.join(", "),
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert_eq!(median(&values), 2.5);
        assert_eq!(quantile(&values, 0.25), 1.75);
    }
}
