//! Reconfiguration break-even analysis.
//!
//! "The problem that arises in all reconfigurable fabrics is finding the
//! minimum flow size for which reconfiguration is worth the cost." This
//! module answers that question analytically: a reconfiguration that takes
//! `reconfig_time` and lifts a transfer's bottleneck bandwidth from
//! `before` to `after` pays off exactly when the serialization time saved
//! exceeds the time lost waiting for the fabric to reconfigure.

use rackfabric_sim::time::SimDuration;
use rackfabric_sim::units::{BitRate, Bytes};

/// Inputs to one break-even decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakEvenInput {
    /// Bottleneck bandwidth available without reconfiguring.
    pub before: BitRate,
    /// Bottleneck bandwidth after the reconfiguration.
    pub after: BitRate,
    /// Time the reconfiguration takes (traffic cannot use the new capacity
    /// until it completes).
    pub reconfig_time: SimDuration,
}

/// The outcome of evaluating a flow against a reconfiguration opportunity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakEvenDecision {
    /// Completion time if the fabric stays as it is.
    pub stay_time: SimDuration,
    /// Completion time if the fabric reconfigures first.
    pub reconfigure_time: SimDuration,
    /// True when reconfiguring is the faster option.
    pub worth_it: bool,
    /// Net saving (positive when `worth_it`).
    pub saving: f64,
}

/// Completion time of `size` at `rate` (infinite when rate is zero).
fn transfer_time(size: Bytes, rate: BitRate) -> SimDuration {
    rate.serialization_delay(size)
}

/// Evaluates whether reconfiguring before sending `size` bytes pays off.
pub fn evaluate(size: Bytes, input: &BreakEvenInput) -> BreakEvenDecision {
    let stay = transfer_time(size, input.before);
    let go = input.reconfig_time + transfer_time(size, input.after);
    let stay_s = stay.as_secs_f64();
    let go_s = go.as_secs_f64();
    BreakEvenDecision {
        stay_time: stay,
        reconfigure_time: go,
        worth_it: go < stay,
        saving: stay_s - go_s,
    }
}

/// The minimum flow size for which reconfiguration is worth the cost:
///
/// ```text
/// size / before > reconfig + size / after
/// size * (1/before - 1/after) > reconfig
/// size > reconfig / (1/before - 1/after)
/// ```
///
/// Returns `None` when the reconfiguration does not increase bandwidth (no
/// finite flow size can ever justify it).
pub fn min_flow_size(input: &BreakEvenInput) -> Option<Bytes> {
    let before = input.before.as_bps() as f64;
    let after = input.after.as_bps() as f64;
    if after <= before || before <= 0.0 {
        return None;
    }
    let seconds = input.reconfig_time.as_secs_f64();
    let inv_delta = 1.0 / before - 1.0 / after; // seconds per bit saved
    let bits = seconds / inv_delta;
    Some(Bytes::new((bits / 8.0).ceil() as u64))
}

/// Sweeps the minimum worthwhile flow size across a range of reconfiguration
/// times (the x-axis of experiment E5). Returns (reconfig_time, min_size)
/// pairs; entries where reconfiguration can never pay off are skipped.
pub fn sweep_min_flow_size(
    before: BitRate,
    after: BitRate,
    reconfig_times: &[SimDuration],
) -> Vec<(SimDuration, Bytes)> {
    reconfig_times
        .iter()
        .filter_map(|&t| {
            min_flow_size(&BreakEvenInput {
                before,
                after,
                reconfig_time: t,
            })
            .map(|s| (t, s))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(before_g: u64, after_g: u64, us: u64) -> BreakEvenInput {
        BreakEvenInput {
            before: BitRate::from_gbps(before_g),
            after: BitRate::from_gbps(after_g),
            reconfig_time: SimDuration::from_micros(us),
        }
    }

    #[test]
    fn large_flows_justify_reconfiguration() {
        // 25 -> 100 Gb/s with a 20 us reconfiguration.
        let inp = input(25, 100, 20);
        let small = evaluate(Bytes::from_kib(10), &inp);
        let large = evaluate(Bytes::from_mib(10), &inp);
        assert!(
            !small.worth_it,
            "a 10 KiB flow finishes before the fabric even reconfigures"
        );
        assert!(large.worth_it);
        assert!(large.saving > 0.0);
        assert!(small.saving < 0.0);
    }

    #[test]
    fn min_flow_size_matches_direct_evaluation() {
        let inp = input(25, 100, 20);
        let threshold = min_flow_size(&inp).unwrap();
        // Just below the threshold: not worth it. Just above: worth it.
        let below = Bytes::new(threshold.as_u64() * 9 / 10);
        let above = Bytes::new(threshold.as_u64() * 11 / 10);
        assert!(!evaluate(below, &inp).worth_it);
        assert!(evaluate(above, &inp).worth_it);
        // Analytical value: 20 us / (1/25G - 1/100G) = 20e-6 / 3e-11 bits ≈ 83.3 kB.
        let kb = threshold.as_u64() as f64 / 1e3;
        assert!((80.0..90.0).contains(&kb), "threshold was {kb} kB");
    }

    #[test]
    fn no_bandwidth_gain_is_never_worth_it() {
        assert!(min_flow_size(&input(100, 100, 1)).is_none());
        assert!(min_flow_size(&input(100, 50, 1)).is_none());
        let d = evaluate(Bytes::from_gib(1), &input(100, 50, 1));
        assert!(!d.worth_it);
    }

    #[test]
    fn threshold_scales_linearly_with_reconfig_time() {
        let t1 = min_flow_size(&input(25, 100, 10)).unwrap().as_u64() as f64;
        let t2 = min_flow_size(&input(25, 100, 100)).unwrap().as_u64() as f64;
        let ratio = t2 / t1;
        assert!(
            (9.5..10.5).contains(&ratio),
            "10x slower reconfig needs ~10x larger flows"
        );
    }

    #[test]
    fn sweep_skips_impossible_entries_and_is_monotone() {
        let times: Vec<SimDuration> = [1u64, 10, 100, 1000, 10000]
            .iter()
            .map(|&us| SimDuration::from_micros(us))
            .collect();
        let sweep = sweep_min_flow_size(BitRate::from_gbps(50), BitRate::from_gbps(100), &times);
        assert_eq!(sweep.len(), times.len());
        assert!(sweep.windows(2).all(|w| w[0].1 <= w[1].1));
        let empty = sweep_min_flow_size(BitRate::from_gbps(100), BitRate::from_gbps(100), &times);
        assert!(empty.is_empty());
    }
}
