//! Control policies.
//!
//! A policy tells the Closed Ring Control what to optimise for. Each policy
//! maps to a set of price weights and a set of thresholds used by the
//! decision engine in [`crate::controller`].

use crate::price::PriceWeights;
use rackfabric_sim::units::Power;

/// What the Closed Ring Control optimises for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrcPolicy {
    /// Minimise end-to-end latency; power is spent freely within the budget.
    LatencyMinimize,
    /// Keep the interconnect under a hard power cap, shedding lanes when idle.
    PowerCap {
        /// The interconnect power budget.
        budget: Power,
    },
    /// Balance congestion across links (load balancing through prices).
    CongestionBalance,
    /// The paper's default: latency first, under the rack's power budget.
    Hybrid {
        /// The interconnect power budget.
        budget: Power,
    },
}

impl Default for CrcPolicy {
    fn default() -> Self {
        CrcPolicy::Hybrid {
            budget: Power::from_kilowatts(2),
        }
    }
}

/// Thresholds a policy exposes to the decision engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyThresholds {
    /// Price weights used when building the price book.
    pub weights: PriceWeights,
    /// A link above this utilization is considered congested and a candidate
    /// for widening (more lanes) or unloading (reroute/bypass).
    pub congestion_high: f64,
    /// A link below this utilization for a whole epoch is a candidate for
    /// lane shedding.
    pub utilization_low: f64,
    /// Interconnect power budget, if the policy enforces one.
    pub power_budget: Option<Power>,
    /// Mean utilization above which a whole-fabric topology reconfiguration
    /// (e.g. grid to torus) is considered.
    pub topology_reconfig_mean_utilization: f64,
}

impl CrcPolicy {
    /// The thresholds this policy implies.
    pub fn thresholds(&self) -> PolicyThresholds {
        match *self {
            CrcPolicy::LatencyMinimize => PolicyThresholds {
                weights: PriceWeights::latency_only(),
                congestion_high: 0.6,
                utilization_low: 0.02,
                power_budget: None,
                topology_reconfig_mean_utilization: 0.45,
            },
            CrcPolicy::PowerCap { budget } => PolicyThresholds {
                weights: PriceWeights::power_aware(),
                congestion_high: 0.85,
                utilization_low: 0.15,
                power_budget: Some(budget),
                topology_reconfig_mean_utilization: 0.7,
            },
            CrcPolicy::CongestionBalance => PolicyThresholds {
                weights: PriceWeights::default(),
                congestion_high: 0.5,
                utilization_low: 0.05,
                power_budget: None,
                topology_reconfig_mean_utilization: 0.5,
            },
            CrcPolicy::Hybrid { budget } => PolicyThresholds {
                weights: PriceWeights::default(),
                congestion_high: 0.7,
                utilization_low: 0.1,
                power_budget: Some(budget),
                topology_reconfig_mean_utilization: 0.55,
            },
        }
    }

    /// Short name for experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            CrcPolicy::LatencyMinimize => "latency_minimize",
            CrcPolicy::PowerCap { .. } => "power_cap",
            CrcPolicy::CongestionBalance => "congestion_balance",
            CrcPolicy::Hybrid { .. } => "hybrid",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_policy_produces_consistent_thresholds() {
        let policies = [
            CrcPolicy::LatencyMinimize,
            CrcPolicy::PowerCap {
                budget: Power::from_kilowatts(1),
            },
            CrcPolicy::CongestionBalance,
            CrcPolicy::Hybrid {
                budget: Power::from_kilowatts(2),
            },
        ];
        for p in policies {
            let t = p.thresholds();
            assert!(t.congestion_high > t.utilization_low, "{}", p.name());
            assert!((0.0..=1.0).contains(&t.congestion_high));
            assert!((0.0..=1.0).contains(&t.topology_reconfig_mean_utilization));
        }
    }

    #[test]
    fn power_policies_carry_their_budget() {
        let p = CrcPolicy::PowerCap {
            budget: Power::from_watts(500),
        };
        assert_eq!(p.thresholds().power_budget, Some(Power::from_watts(500)));
        assert_eq!(CrcPolicy::LatencyMinimize.thresholds().power_budget, None);
    }

    #[test]
    fn latency_policy_ignores_power_in_prices() {
        let t = CrcPolicy::LatencyMinimize.thresholds();
        assert_eq!(t.weights.power, 0.0);
        let h = CrcPolicy::default().thresholds();
        assert!(h.weights.power > 0.0);
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<&str> = [
            CrcPolicy::LatencyMinimize.name(),
            CrcPolicy::PowerCap {
                budget: Power::ZERO,
            }
            .name(),
            CrcPolicy::CongestionBalance.name(),
            CrcPolicy::default().name(),
        ]
        .into_iter()
        .collect();
        assert_eq!(names.len(), 4);
    }
}
