//! Flows, flow-size distributions and arrival processes.

use rackfabric_sim::rng::DetRng;
use rackfabric_sim::time::{SimDuration, SimTime};
use rackfabric_sim::units::Bytes;
use rackfabric_topo::NodeId;

/// Identifier of a workload flow (distinct from the switch-layer `FlowId`
/// only in that this one is assigned by the generator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkloadFlowId(pub u64);

/// One transfer the workload asks the fabric to carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    /// Generator-assigned id.
    pub id: WorkloadFlowId,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Total bytes to transfer.
    pub size: Bytes,
    /// When the flow becomes ready to send.
    pub start_at: SimTime,
}

impl Flow {
    /// Number of MTU-sized packets (1500 B) needed to carry the flow.
    pub fn packet_count(&self, mtu: Bytes) -> u64 {
        self.size.as_u64().div_ceil(mtu.as_u64()).max(1)
    }
}

/// Flow-size distributions observed in data-centre measurement studies,
/// parameterised to rack-scale transfers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowSizeDistribution {
    /// Every flow has the same size.
    Fixed(Bytes),
    /// Uniform between the two bounds.
    Uniform(Bytes, Bytes),
    /// Bounded Pareto (heavy tailed, "mice and elephants").
    Pareto {
        /// Tail exponent (1.1–1.6 typical).
        shape: f64,
        /// Minimum flow size.
        min: Bytes,
        /// Maximum flow size.
        max: Bytes,
    },
    /// Log-normal in bytes.
    LogNormal {
        /// Mean of the underlying normal (of ln bytes).
        mu: f64,
        /// Sigma of the underlying normal.
        sigma: f64,
    },
    /// A two-point mix of small RPC-like flows and large bulk flows.
    MiceAndElephants {
        /// Size of a mouse flow.
        mouse: Bytes,
        /// Size of an elephant flow.
        elephant: Bytes,
        /// Probability a flow is an elephant.
        elephant_fraction: f64,
    },
}

impl FlowSizeDistribution {
    /// Draws one flow size.
    pub fn sample(&self, rng: &mut DetRng) -> Bytes {
        match *self {
            FlowSizeDistribution::Fixed(b) => b,
            FlowSizeDistribution::Uniform(lo, hi) => {
                if hi <= lo {
                    lo
                } else {
                    Bytes::new(rng.range_u64(lo.as_u64()..hi.as_u64() + 1))
                }
            }
            FlowSizeDistribution::Pareto { shape, min, max } => Bytes::new(
                rng.pareto(shape, min.as_u64() as f64, max.as_u64() as f64)
                    .round() as u64,
            ),
            FlowSizeDistribution::LogNormal { mu, sigma } => {
                Bytes::new(rng.lognormal(mu, sigma).round().max(1.0) as u64)
            }
            FlowSizeDistribution::MiceAndElephants {
                mouse,
                elephant,
                elephant_fraction,
            } => {
                if rng.chance(elephant_fraction) {
                    elephant
                } else {
                    mouse
                }
            }
        }
    }

    /// The mean flow size (exact where closed form exists, otherwise a large
    /// sample average), used to convert a target load into an arrival rate.
    pub fn mean_bytes(&self, rng: &mut DetRng) -> f64 {
        match *self {
            FlowSizeDistribution::Fixed(b) => b.as_u64() as f64,
            FlowSizeDistribution::Uniform(lo, hi) => (lo.as_u64() + hi.as_u64()) as f64 / 2.0,
            FlowSizeDistribution::MiceAndElephants {
                mouse,
                elephant,
                elephant_fraction,
            } => {
                mouse.as_u64() as f64 * (1.0 - elephant_fraction)
                    + elephant.as_u64() as f64 * elephant_fraction
            }
            _ => {
                let n = 10_000;
                (0..n)
                    .map(|_| self.sample(rng).as_u64() as f64)
                    .sum::<f64>()
                    / n as f64
            }
        }
    }
}

/// When flows arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Every flow starts at the same instant (barrier workloads).
    AllAtOnce(SimTime),
    /// Poisson arrivals with the given mean inter-arrival time, starting at
    /// the given instant.
    Poisson {
        /// Mean time between consecutive flow arrivals.
        mean_interarrival: SimDuration,
        /// First arrival is at or after this instant.
        start: SimTime,
    },
    /// Deterministic arrivals at a fixed period.
    Periodic {
        /// Interval between flows.
        period: SimDuration,
        /// First arrival.
        start: SimTime,
    },
}

impl ArrivalProcess {
    /// Generates the first `count` arrival instants.
    pub fn arrivals(&self, count: usize, rng: &mut DetRng) -> Vec<SimTime> {
        match *self {
            ArrivalProcess::AllAtOnce(t) => vec![t; count],
            ArrivalProcess::Periodic { period, start } => {
                (0..count as u64).map(|i| start + period * i).collect()
            }
            ArrivalProcess::Poisson {
                mean_interarrival,
                start,
            } => {
                let mut t = start;
                let mean_ps = mean_interarrival.as_picos() as f64;
                (0..count)
                    .map(|_| {
                        let gap = rng.exponential(mean_ps);
                        t += SimDuration::from_picos(gap.round().max(1.0) as u64);
                        t
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_count_rounds_up() {
        let f = Flow {
            id: WorkloadFlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            size: Bytes::new(3001),
            start_at: SimTime::ZERO,
        };
        assert_eq!(f.packet_count(Bytes::new(1500)), 3);
        let tiny = Flow {
            size: Bytes::new(10),
            ..f
        };
        assert_eq!(tiny.packet_count(Bytes::new(1500)), 1);
    }

    #[test]
    fn fixed_and_uniform_sizes() {
        let mut rng = DetRng::new(1);
        let d = FlowSizeDistribution::Fixed(Bytes::from_kib(64));
        assert_eq!(d.sample(&mut rng), Bytes::from_kib(64));
        let u = FlowSizeDistribution::Uniform(Bytes::new(100), Bytes::new(200));
        for _ in 0..1000 {
            let s = u.sample(&mut rng).as_u64();
            assert!((100..=200).contains(&s));
        }
    }

    #[test]
    fn pareto_is_heavy_tailed_within_bounds() {
        let mut rng = DetRng::new(2);
        let d = FlowSizeDistribution::Pareto {
            shape: 1.2,
            min: Bytes::new(1_000),
            max: Bytes::from_mib(100),
        };
        let samples: Vec<u64> = (0..5000).map(|_| d.sample(&mut rng).as_u64()).collect();
        assert!(samples
            .iter()
            .all(|&s| (1_000..=100 * 1024 * 1024).contains(&s)));
        let small = samples.iter().filter(|&&s| s < 10_000).count();
        assert!(small > samples.len() / 2, "most Pareto flows are mice");
    }

    #[test]
    fn mice_and_elephants_mean() {
        let mut rng = DetRng::new(3);
        let d = FlowSizeDistribution::MiceAndElephants {
            mouse: Bytes::new(2_000),
            elephant: Bytes::from_mib(1),
            elephant_fraction: 0.1,
        };
        let mean = d.mean_bytes(&mut rng);
        let expected = 2000.0 * 0.9 + (1024.0 * 1024.0) * 0.1;
        assert!((mean - expected).abs() < 1.0);
    }

    #[test]
    fn arrival_processes_have_expected_shape() {
        let mut rng = DetRng::new(4);
        let all = ArrivalProcess::AllAtOnce(SimTime::from_micros(5)).arrivals(4, &mut rng);
        assert!(all.iter().all(|&t| t == SimTime::from_micros(5)));

        let per = ArrivalProcess::Periodic {
            period: SimDuration::from_micros(2),
            start: SimTime::ZERO,
        }
        .arrivals(3, &mut rng);
        assert_eq!(
            per,
            vec![
                SimTime::ZERO,
                SimTime::from_micros(2),
                SimTime::from_micros(4)
            ]
        );

        let poisson = ArrivalProcess::Poisson {
            mean_interarrival: SimDuration::from_micros(10),
            start: SimTime::ZERO,
        }
        .arrivals(2000, &mut rng);
        assert_eq!(poisson.len(), 2000);
        assert!(
            poisson.windows(2).all(|w| w[0] <= w[1]),
            "arrivals are ordered"
        );
        // Mean inter-arrival ~10 us.
        let total = poisson.last().unwrap().as_micros_f64();
        let mean = total / 2000.0;
        assert!(
            (8.0..12.0).contains(&mean),
            "mean inter-arrival was {mean} us"
        );
    }
}
