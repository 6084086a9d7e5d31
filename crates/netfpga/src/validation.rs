//! Cross-validation of the event-driven switch model against the cycle-level
//! SUME model (Experiment E7).
//!
//! The paper validates its small-scale omnet++ simulation against a NetFPGA
//! SUME proof of concept before scaling up. Here both sides are models, but
//! they are *independent* models of the same datapath built at different
//! levels of abstraction: the DES side charges an analytic pipeline latency
//! plus serialization, the cycle model streams the frame through a clocked
//! 256-bit pipeline. If the two disagree wildly, one of them is wrong.

use crate::pipeline::{SumeConfig, SumeSwitch};
use rackfabric_phy::link::{Link, LinkId};
use rackfabric_phy::media::Media;
use rackfabric_sim::time::SimDuration;
use rackfabric_sim::units::{Bytes, Length};
use rackfabric_switch::model::{SwitchKind, SwitchModel};

/// The outcome of validating one frame size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationPoint {
    /// Frame size examined.
    pub frame_bytes: u64,
    /// Per-hop latency predicted by the discrete-event model (ns).
    pub des_latency_ns: f64,
    /// Per-hop latency predicted by the cycle-level model (ns).
    pub cycle_latency_ns: f64,
    /// Relative error |des - cycle| / cycle.
    pub relative_error: f64,
}

/// A full validation report across frame sizes.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// One point per frame size.
    pub points: Vec<ValidationPoint>,
    /// Largest relative error across all points.
    pub worst_relative_error: f64,
}

impl ValidationReport {
    /// True if every point agrees within `tolerance` (e.g. 0.25 = 25 %).
    pub fn passes(&self, tolerance: f64) -> bool {
        self.worst_relative_error <= tolerance
    }
}

/// Runs the validation: for each frame size, compare the DES per-hop latency
/// (store-and-forward, matching the SUME reference switch's output-queued
/// design, over a 10G link) with the cycle model's idle forwarding latency.
pub fn validate_against_des(frame_sizes: &[u64]) -> ValidationReport {
    let config = SumeConfig::default();
    // The DES-side equivalent of the SUME datapath: a store-and-forward
    // switch whose pipeline depth matches the reference design's fixed
    // cycles, forwarding onto a single-lane 10G link. The ingress
    // store-and-forward is charged explicitly below, mirroring how the fabric
    // model charges the sender's serialization separately.
    let pipeline = config.clock_period * config.fixed_pipeline_cycles;
    let des_model = SwitchModel {
        kind: SwitchKind::StoreAndForward,
        pipeline_latency: pipeline,
    };
    let egress_link = Link::new(
        LinkId(0),
        0,
        1,
        Media::copper_dac(),
        Length::from_m(0),
        1,
        config.port_rate,
        0,
    );

    let mut points = Vec::new();
    for &size in frame_sizes {
        let frame = Bytes::new(size);
        // DES: ingress serialization + switch traversal (pipeline + egress
        // store-and-forward serialization). Propagation over 0 m is nil.
        let ingress = config.port_rate.serialization_delay(frame);
        let des: SimDuration = ingress
            + des_model.traversal_latency(frame, &egress_link)
            + config.clock_period * egress_link.total_lanes() as u64; // retiming
        let mut cycle_model = SumeSwitch::new(config);
        let cyc = cycle_model.idle_forward_latency(frame, 0);
        let des_ns = des.as_nanos_f64();
        let cyc_ns = cyc.as_nanos_f64();
        let rel = (des_ns - cyc_ns).abs() / cyc_ns.max(1e-9);
        points.push(ValidationPoint {
            frame_bytes: size,
            des_latency_ns: des_ns,
            cycle_latency_ns: cyc_ns,
            relative_error: rel,
        });
    }
    let worst = points.iter().map(|p| p.relative_error).fold(0.0, f64::max);
    ValidationReport {
        points,
        worst_relative_error: worst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn models_agree_within_tolerance_across_frame_sizes() {
        let report = validate_against_des(&[64, 256, 512, 1024, 1500]);
        assert_eq!(report.points.len(), 5);
        assert!(
            report.passes(0.25),
            "worst relative error {} exceeds 25 %: {:#?}",
            report.worst_relative_error,
            report.points
        );
    }

    #[test]
    fn latency_grows_with_frame_size_in_both_models() {
        let report = validate_against_des(&[64, 512, 1500]);
        let des: Vec<f64> = report.points.iter().map(|p| p.des_latency_ns).collect();
        let cyc: Vec<f64> = report.points.iter().map(|p| p.cycle_latency_ns).collect();
        assert!(des.windows(2).all(|w| w[0] < w[1]));
        assert!(cyc.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn tolerance_check_is_strict() {
        let report = validate_against_des(&[1500]);
        assert!(!report.passes(report.worst_relative_error / 2.0 - f64::EPSILON));
        assert!(report.passes(1.0));
    }
}
