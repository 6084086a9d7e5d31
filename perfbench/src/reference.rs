//! The reference kernel: a fixed piece of work timed beside the program, so
//! CPU times can be put at one host speed.
//!
//! On a shared host the speed of a vCPU changes with what the other guests
//! run, for minutes at a time. On the 2-vCPU KVM guest the benchmark was
//! built on, the same `static-shuffle` cell took 460–520 ms of CPU time in
//! one half hour and 240–320 ms in the next, and a `daemon-mixed` request
//! 1.2–1.4 ms against 0.55–0.75 ms. No filter inside a run sees that,
//! since the whole run is slow. The kernel slows down with the program
//! (between those states the workloads' CPU times moved 2.4–2.6x, and
//! their ratios to the kernel's 9–17%), so the headline figures give CPU
//! time at the reference speed: measured × [`NOMINAL_S`] ÷ the kernel's
//! CPU time measured in the same run.
//!
//! The kernel is the benchmark's own code and never changes with the
//! program, so a program change moves the scaled figures as it moves the
//! raw ones. It runs in a child process (this binary with
//! `--reference-kernel RUNS`), so its memory stays out of the workload's
//! `peak_rss_mb` and its CPU time out of the workload's.

use crate::stats::{median, process_cpu_s};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write;
use std::hint::black_box;
use std::io;
use std::process::Command;

/// The flag that makes this binary run the kernel and print its CPU times.
pub const KERNEL_FLAG: &str = "--reference-kernel";

/// The kernel's CPU time at the reference speed: a fixed scale, near what
/// it took on the machine the benchmark was built on when that machine was
/// fast.
pub const NOMINAL_S: f64 = 0.016;

/// Runs the kernel once and returns the CPU seconds it took. It does the
/// program's two kinds of work: an event loop over a binary-heap calendar
/// with scattered state updates (the engine), then numbers formatted into
/// text and parsed back (the JSON codec of the storage path).
pub fn kernel_cpu_s() -> f64 {
    let start = process_cpu_s();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };

    let slots = 1usize << 19;
    let mut state = vec![0u64; slots];
    let mut calendar = BinaryHeap::with_capacity(1 << 14);
    for id in 0..1u64 << 14 {
        calendar.push(Reverse((next() % 1000, id)));
    }
    for _ in 0..120_000 {
        let Some(Reverse((at, id))) = calendar.pop() else {
            break;
        };
        let slot = (next() as usize ^ id as usize) & (slots - 1);
        state[slot] = state[slot].wrapping_add(at ^ id);
        let delay = if state[slot] & 1 == 0 {
            1 + (next() & 255)
        } else {
            7
        };
        calendar.push(Reverse((at + delay, id)));
    }

    let mut text = String::new();
    for k in 0..12_000u64 {
        let _ = write!(text, "{{\"k\":{k},\"v\":{}}},", next() >> 11);
    }
    let parsed: u64 = text
        .split(',')
        .filter_map(|item| {
            item.rsplit(':')
                .next()?
                .trim_end_matches('}')
                .parse::<u64>()
                .ok()
        })
        .fold(0, u64::wrapping_add);

    black_box((&state, calendar.len(), parsed));
    process_cpu_s() - start
}

/// Kernel runs made beside one workload run: their median is the host's
/// speed during it.
#[derive(Debug, Default)]
pub struct SpeedGauge {
    samples: Vec<f64>,
}

impl SpeedGauge {
    /// Runs the kernel `runs` times in a child process and keeps their CPU
    /// times. Panics if the child cannot run: the benchmark then has no
    /// result to give.
    pub fn sample(&mut self, runs: usize) {
        let child = std::env::current_exe().and_then(|exe| {
            Command::new(exe)
                .args([KERNEL_FLAG, &runs.to_string()])
                .output()
        });
        let output = match child {
            Ok(out) if out.status.success() => out.stdout,
            Ok(out) => panic!("reference kernel exited with {}", out.status),
            Err(e) => panic!("reference kernel: {e}"),
        };
        let times: Vec<f64> = String::from_utf8_lossy(&output)
            .lines()
            .filter_map(|line| line.parse().ok())
            .collect();
        assert_eq!(times.len(), runs, "reference kernel printed {times:?}");
        self.samples.extend(times);
    }

    /// The kernel's median CPU seconds over the samples.
    pub fn kernel_s(&self) -> f64 {
        median(&self.samples)
    }

    /// `cpu_s`, measured beside the samples, at the reference speed.
    pub fn at_reference(&self, cpu_s: f64) -> f64 {
        cpu_s * NOMINAL_S / self.kernel_s()
    }
}

/// The child process's side of [`SpeedGauge::sample`]: runs the kernel
/// `runs` times and prints each run's CPU seconds on a line of its own.
pub fn print_kernel_runs(runs: usize) -> io::Result<()> {
    use std::io::Write as _;
    let mut out = io::stdout().lock();
    for _ in 0..runs {
        writeln!(out, "{}", kernel_cpu_s())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_by_the_median_kernel_time() {
        let gauge = SpeedGauge {
            samples: vec![0.030, 2.0 * NOMINAL_S, 0.031],
        };
        assert_eq!(gauge.kernel_s(), 0.031);
        assert!((gauge.at_reference(0.62) - 0.62 * NOMINAL_S / 0.031).abs() < 1e-12);
        let fast = SpeedGauge {
            samples: vec![NOMINAL_S],
        };
        assert_eq!(fast.at_reference(0.5), 0.5);
    }
}
