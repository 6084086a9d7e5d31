//! Event identity in the pending-event sets.
//!
//! The schedulers in [`queue`](crate::queue) and
//! [`calendar`](crate::calendar) deliver events in `(time, EventId)` order.
//! The windowed engine ([`crate::windowed`]) sets the id of every event to a
//! content-derived key chosen by the model, which is what makes same-instant
//! ordering independent of shard count.

/// Identifier of a scheduled event: the tie-break among events pending at
/// the same instant, and the handle for cancellation.
///
/// The raw value is public so models and standalone scheduler harnesses
/// (benchmarks, the cross-scheduler property tests) can choose ids directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u64);

impl EventId {
    /// The raw sequence number of this event.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}
