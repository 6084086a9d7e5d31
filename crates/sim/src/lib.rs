//! # rackfabric-sim
//!
//! A deterministic discrete-event simulation (DES) engine used as the
//! substrate for the `rackfabric` reproduction of *"High speed adaptive
//! rack-scale fabrics"* (SIGCOMM 2018).
//!
//! The paper evaluates its architecture in omnet++; this crate plays the same
//! role: it advances simulated time, delivers events in timestamp order, and
//! collects statistics. A model runs split into shards on any number of
//! threads, and every run with the same configuration is bit-for-bit
//! reproducible whatever the shard or thread count.
//!
//! ## Overview
//!
//! * [`time`] — picosecond-resolution [`SimTime`]/[`SimDuration`] arithmetic.
//! * [`units`] — physical units (bit rates, lengths, power) and the
//!   conversions into simulated durations (serialization, propagation).
//! * [`event`] — the [`EventId`](event::EventId) that orders same-instant
//!   events in the pending-event sets.
//! * [`queue`] — the [`Scheduler`] trait and the reference binary-heap
//!   pending-event set, kept as the oracle of the calendar queue.
//! * [`calendar`] — the two-level calendar-queue scheduler every shard runs
//!   on.
//! * [`windowed`] — the engine: conservative time-window execution of
//!   sharded models, with per-shard calendar queues, content-keyed event
//!   ordering, outbox mailboxes exchanged between rounds, and a sync hook for
//!   global control. One shard is the single-core case.
//! * [`rng`] — a self-contained, versioned deterministic RNG plus the
//!   distributions the workloads need.
//! * [`stats`] — counters, histograms, time-weighted gauges, rate meters and
//!   series recorders used for every experiment's output.
//! * [`config`] — engine-level simulation configuration.
//! * [`json`] — a minimal dependency-free JSON reader/writer used for run
//!   provenance and scenario-matrix exports.
//!
//! ## Quick example
//!
//! ```
//! use rackfabric_sim::prelude::*;
//!
//! /// A one-shard model that counts ticks until the simulation horizon.
//! struct Ticker { period: SimDuration, ticks: u64 }
//!
//! struct Tick;
//!
//! impl ShardModel for Ticker {
//!     type Event = Tick;
//!     fn handle(&mut self, ctx: &mut WindowCtx<'_, Tick>, _ev: Tick) {
//!         self.ticks += 1;
//!         let next = ctx.now() + self.period;
//!         // The key orders same-instant events; one tick is pending at a time.
//!         ctx.schedule(next, 0, Tick);
//!     }
//! }
//!
//! /// No global control points; the lookahead bounds the window length.
//! struct NoControl;
//!
//! impl SyncHook<Ticker> for NoControl {
//!     fn next_sync(&self) -> SimTime { SimTime::MAX }
//!     fn on_sync(&mut self, _at: SimTime, _shards: &mut ShardsView<'_, Ticker>) {}
//!     fn lookahead(&self) -> SimDuration { SimDuration::from_nanos(100) }
//! }
//!
//! let period = SimDuration::from_nanos(100);
//! let mut sim = WindowedSim::new(vec![Ticker { period, ticks: 0 }]);
//! sim.schedule(0, SimTime::ZERO + period, 0, Tick);
//! let out = sim.run(SimTime::from_micros(1), &mut NoControl);
//! assert_eq!(out.outcome, RunOutcome::HorizonReached);
//! assert_eq!(sim.into_models()[0].ticks, 10);
//! ```

pub mod calendar;
pub mod config;
#[cfg(test)]
mod engine;
pub mod event;
pub mod json;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod units;
pub mod windowed;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::calendar::CalendarQueue;
    pub use crate::config::SimConfig;
    pub use crate::queue::Scheduler;
    pub use crate::rng::DetRng;
    pub use crate::stats::{Counter, Histogram, RateMeter, Series, Summary, TimeWeighted};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::units::{BitRate, Bytes, Energy, Length, Power};
    pub use crate::windowed::{
        RunOutcome, ShardModel, ShardsView, SyncHook, WindowCtx, WindowedOutcome, WindowedSim,
    };
}

pub use calendar::CalendarQueue;
pub use config::SimConfig;
pub use queue::Scheduler;
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
pub use windowed::{RunOutcome, WindowedSim};
