//! Physical lanes.
//!
//! A lane is the unit the PLPs reason about: a single SerDes-to-SerDes
//! channel running at (typically) 25 Gb/s. Links are bundles of lanes
//! ([`crate::link::Link`]); splitting, bundling, powering down and adaptive
//! FEC all operate at lane granularity, and PLP #5 (per-lane statistics)
//! reports the counters kept here.

use crate::stats::LaneStats;
use rackfabric_sim::time::SimTime;
use rackfabric_sim::units::BitRate;

/// Identifier of a lane within the whole fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LaneId(pub u64);

/// Operational state of a lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LaneState {
    /// Carrying traffic.
    #[default]
    Up,
    /// Powered but still acquiring lock / aligning; not yet carrying traffic.
    Training,
    /// Powered off (PLP #3).
    Off,
    /// Declared faulty by the health monitor.
    Faulty,
}

impl LaneState {
    /// True if the lane currently contributes bandwidth.
    pub fn is_usable(self) -> bool {
        matches!(self, LaneState::Up)
    }
    /// True if the lane consumes active power.
    pub fn is_powered(self) -> bool {
        matches!(self, LaneState::Up | LaneState::Training)
    }
}

/// A single physical lane.
#[derive(Debug, Clone)]
pub struct Lane {
    /// Fabric-wide identifier.
    pub id: LaneId,
    /// Raw signalling rate of the lane.
    pub rate: BitRate,
    /// Operational state.
    pub state: LaneState,
    /// Current pre-FEC bit error rate estimate for this lane.
    pub pre_fec_ber: f64,
    /// Additional impairment margin (dB) accumulated by ageing/temperature;
    /// fed into the signal model by the owning link.
    pub impairment_db: f64,
    /// Running counters reported through PLP #5.
    pub stats: LaneStats,
}

impl Lane {
    /// Creates an up lane at `rate` with a clean channel.
    pub fn new(id: LaneId, rate: BitRate) -> Self {
        Lane {
            id,
            rate,
            state: LaneState::Up,
            pre_fec_ber: 1e-15,
            impairment_db: 0.0,
            stats: LaneStats::default(),
        }
    }

    /// The bandwidth this lane currently contributes (zero unless up).
    pub fn usable_rate(&self) -> BitRate {
        if self.state.is_usable() {
            self.rate
        } else {
            BitRate::ZERO
        }
    }

    /// Records `bytes` carried by this lane at `now`, updating utilization
    /// accounting and the expected bit-error counter.
    pub fn record_traffic(&mut self, now: SimTime, bytes: u64) {
        self.stats.bytes_carried += bytes;
        self.stats.last_activity = now;
        // Expected number of bit errors added by this transfer.
        self.stats.accumulated_bit_errors += self.pre_fec_ber * (bytes as f64 * 8.0);
    }

    /// Transitions the lane's state.
    pub fn set_state(&mut self, state: LaneState) {
        self.state = state;
        self.stats.state_transitions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_lane_is_up_and_clean() {
        let l = Lane::new(LaneId(3), BitRate::from_gbps(25));
        assert_eq!(l.state, LaneState::Up);
        assert!(l.pre_fec_ber < 1e-12);
        assert_eq!(l.usable_rate(), BitRate::from_gbps(25));
    }

    #[test]
    fn non_up_lanes_contribute_no_bandwidth() {
        let mut l = Lane::new(LaneId(0), BitRate::from_gbps(25));
        for s in [LaneState::Training, LaneState::Off, LaneState::Faulty] {
            l.set_state(s);
            assert_eq!(l.usable_rate(), BitRate::ZERO);
        }
        l.set_state(LaneState::Up);
        assert_eq!(l.usable_rate(), BitRate::from_gbps(25));
        assert_eq!(l.stats.state_transitions, 4);
    }

    #[test]
    fn state_predicates() {
        assert!(LaneState::Up.is_usable());
        assert!(!LaneState::Training.is_usable());
        assert!(LaneState::Training.is_powered());
        assert!(!LaneState::Off.is_powered());
        assert!(!LaneState::Faulty.is_powered());
    }

    #[test]
    fn traffic_accounting_accumulates_errors() {
        let mut l = Lane::new(LaneId(1), BitRate::from_gbps(25));
        l.pre_fec_ber = 1e-9;
        l.record_traffic(SimTime::from_micros(5), 1_000_000); // 8e6 bits
        assert_eq!(l.stats.bytes_carried, 1_000_000);
        assert!((l.stats.accumulated_bit_errors - 8e-3).abs() < 1e-12);
        assert_eq!(l.stats.last_activity, SimTime::from_micros(5));
        l.record_traffic(SimTime::from_micros(6), 1_000_000);
        assert_eq!(l.stats.bytes_carried, 2_000_000);
    }
}
