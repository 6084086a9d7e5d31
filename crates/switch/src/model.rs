//! Switch datapath models.
//!
//! Two forwarding disciplines are modelled:
//!
//! * **Cut-through** — the switch starts transmitting on the egress port as
//!   soon as the header has been received and the forwarding decision made.
//!   Per-hop latency is the pipeline delay plus the serialization of the
//!   header bytes only. This is the "state-of-the-art layer-2 cut-through
//!   switch" of the paper's Figure 1.
//! * **Store-and-forward** — the whole frame is received before forwarding,
//!   so the full serialization delay is paid again at every hop.
//!
//! Both are parameterised by a pipeline latency; the default of 400 ns for
//! cut-through is in the range published for commodity rack switches of the
//! paper's era (300–500 ns port-to-port).
//!
//! A round-robin [`CrossbarArbiter`] (a simplified single-iteration iSLIP) is
//! also provided; the event-driven fabric model uses egress queues directly,
//! but the cycle-level NetFPGA model and the unit tests exercise the arbiter.

use crate::packet::CUT_THROUGH_HEADER;
use rackfabric_phy::Link;
use rackfabric_sim::time::SimDuration;
use rackfabric_sim::units::{BitRate, Bytes};

/// Forwarding discipline of a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SwitchKind {
    /// Forwarding starts once the header is in.
    #[default]
    CutThrough,
    /// The full frame is buffered before forwarding.
    StoreAndForward,
}

/// A per-hop switch latency model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchModel {
    /// Forwarding discipline.
    pub kind: SwitchKind,
    /// Fixed pipeline latency (parsing, lookup, arbitration, SerDes).
    pub pipeline_latency: SimDuration,
}

impl Default for SwitchModel {
    fn default() -> Self {
        SwitchModel::cut_through()
    }
}

impl SwitchModel {
    /// A state-of-the-art cut-through rack switch (~400 ns port to port).
    pub fn cut_through() -> Self {
        SwitchModel {
            kind: SwitchKind::CutThrough,
            pipeline_latency: SimDuration::from_nanos(400),
        }
    }

    /// A store-and-forward switch with the same pipeline.
    pub fn store_and_forward() -> Self {
        SwitchModel {
            kind: SwitchKind::StoreAndForward,
            pipeline_latency: SimDuration::from_nanos(400),
        }
    }

    /// A cut-through model with an explicit pipeline latency.
    pub fn with_pipeline(pipeline_latency: SimDuration) -> Self {
        SwitchModel {
            kind: SwitchKind::CutThrough,
            pipeline_latency,
        }
    }

    /// The switching latency contributed by one traversal of this switch for
    /// a frame of `size` that will leave on `egress`. This is the latency in
    /// *addition* to the egress link's own serialization/propagation/FEC
    /// (which the caller charges separately), so:
    ///
    /// * cut-through pays the pipeline plus receiving the header,
    /// * store-and-forward pays the pipeline plus receiving the whole frame
    ///   at the egress link rate.
    pub fn traversal_latency(&self, size: Bytes, egress: &Link) -> SimDuration {
        self.traversal_latency_at(size, egress.capacity())
    }

    /// [`Self::traversal_latency`] against a raw egress capacity, for
    /// callers that cache link capacities in dense arrays instead of holding
    /// a [`Link`] reference on the hot path.
    pub fn traversal_latency_at(&self, size: Bytes, capacity: BitRate) -> SimDuration {
        match self.kind {
            SwitchKind::CutThrough => {
                let hdr = Bytes::new(size.as_u64().min(CUT_THROUGH_HEADER.as_u64()));
                self.pipeline_latency + capacity.serialization_delay(hdr)
            }
            SwitchKind::StoreAndForward => {
                self.pipeline_latency + capacity.serialization_delay(size)
            }
        }
    }
}

/// A single-iteration round-robin crossbar arbiter over virtual output
/// queues: each output grants one requesting input per arbitration round,
/// rotating its grant pointer for fairness; each input accepts at most one
/// grant per round, rotating its accept pointer.
#[derive(Debug, Clone)]
pub struct CrossbarArbiter {
    ports: usize,
    grant_pointer: Vec<usize>,
    accept_pointer: Vec<usize>,
}

impl CrossbarArbiter {
    /// Creates an arbiter for a `ports x ports` crossbar.
    pub fn new(ports: usize) -> Self {
        CrossbarArbiter {
            ports,
            grant_pointer: vec![0; ports],
            accept_pointer: vec![0; ports],
        }
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Runs one arbitration round. `requests[input][output]` is true when the
    /// input's VOQ toward that output is non-empty. Returns `(input, output)`
    /// matches; each input and each output appears at most once.
    pub fn arbitrate(&mut self, requests: &[Vec<bool>]) -> Vec<(usize, usize)> {
        assert_eq!(requests.len(), self.ports, "request matrix has wrong shape");
        // Grant phase: every output picks one requesting input, round robin
        // from its pointer.
        let mut grants: Vec<Option<usize>> = vec![None; self.ports]; // per output -> input
        for (output, grant) in grants.iter_mut().enumerate() {
            for k in 0..self.ports {
                let input = (self.grant_pointer[output] + k) % self.ports;
                if requests[input].get(output).copied().unwrap_or(false) {
                    *grant = Some(input);
                    break;
                }
            }
        }
        // Accept phase: every input accepts one granting output, round robin.
        let mut matches = Vec::new();
        let mut input_taken = vec![false; self.ports];
        for (input, taken) in input_taken.iter_mut().enumerate() {
            for k in 0..self.ports {
                let output = (self.accept_pointer[input] + k) % self.ports;
                if grants[output] == Some(input) && !*taken {
                    matches.push((input, output));
                    *taken = true;
                    // Pointers advance past the matched peer (iSLIP rule).
                    self.grant_pointer[output] = (input + 1) % self.ports;
                    self.accept_pointer[input] = (output + 1) % self.ports;
                    break;
                }
            }
        }
        matches.sort_unstable();
        matches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rackfabric_phy::link::LinkId;
    use rackfabric_phy::media::Media;
    use rackfabric_sim::units::{BitRate, Length};

    fn link_100g() -> Link {
        Link::new(
            LinkId(0),
            0,
            1,
            Media::optical_fiber(),
            Length::from_m(2),
            4,
            BitRate::from_gbps(25),
            0,
        )
    }

    #[test]
    fn cut_through_latency_is_independent_of_frame_size() {
        let m = SwitchModel::cut_through();
        let link = link_100g();
        let small = m.traversal_latency(Bytes::new(64), &link);
        let large = m.traversal_latency(Bytes::new(1500), &link);
        assert_eq!(small, large, "cut-through only waits for the header");
        // 400 ns pipeline + 64 B @ 100G (5.12 ns).
        let ns = large.as_nanos_f64();
        assert!((404.0..407.0).contains(&ns), "per-hop latency was {ns} ns");
    }

    #[test]
    fn store_and_forward_pays_full_serialization_per_hop() {
        let ct = SwitchModel::cut_through();
        let sf = SwitchModel::store_and_forward();
        let link = link_100g();
        let frame = Bytes::new(1500);
        assert!(sf.traversal_latency(frame, &link) > ct.traversal_latency(frame, &link));
        // The difference is the serialization of (frame - header).
        let diff = sf.traversal_latency(frame, &link) - ct.traversal_latency(frame, &link);
        let expected = link.capacity().serialization_delay(Bytes::new(1500 - 64));
        assert_eq!(diff, expected);
    }

    #[test]
    fn tiny_frames_never_pay_more_than_their_size() {
        let m = SwitchModel::cut_through();
        let link = link_100g();
        let tiny = m.traversal_latency(Bytes::new(32), &link);
        let header = m.traversal_latency(Bytes::new(64), &link);
        assert!(tiny < header);
    }

    #[test]
    fn switching_dominates_media_at_rack_scale() {
        // The core claim behind Figure 1: one switch hop costs far more than
        // 2 m of fibre.
        let m = SwitchModel::cut_through();
        let link = link_100g();
        let switch_hop = m.traversal_latency(Bytes::new(1500), &link);
        let media_hop = link.propagation_delay();
        assert!(switch_hop.as_nanos_f64() > 20.0 * media_hop.as_nanos_f64());
    }

    #[test]
    fn arbiter_matches_non_conflicting_requests_in_one_round() {
        let mut arb = CrossbarArbiter::new(4);
        // Input i wants output (i+1)%4: a perfect permutation.
        let requests: Vec<Vec<bool>> = (0..4)
            .map(|i| (0..4).map(|o| o == (i + 1) % 4).collect())
            .collect();
        let matches = arb.arbitrate(&requests);
        assert_eq!(matches.len(), 4);
        for (i, o) in matches {
            assert_eq!(o, (i + 1) % 4);
        }
    }

    #[test]
    fn arbiter_resolves_output_contention_fairly_over_rounds() {
        let mut arb = CrossbarArbiter::new(4);
        // Inputs 0 and 1 both want output 0 only.
        let requests: Vec<Vec<bool>> = vec![
            vec![true, false, false, false],
            vec![true, false, false, false],
            vec![false, false, false, false],
            vec![false, false, false, false],
        ];
        let r1 = arb.arbitrate(&requests);
        assert_eq!(r1.len(), 1, "only one grant for a contended output");
        let winner1 = r1[0].0;
        let r2 = arb.arbitrate(&requests);
        let winner2 = r2[0].0;
        assert_ne!(winner1, winner2, "round robin alternates the winner");
    }

    #[test]
    fn arbiter_with_no_requests_matches_nothing() {
        let mut arb = CrossbarArbiter::new(3);
        let requests = vec![vec![false; 3]; 3];
        assert!(arb.arbitrate(&requests).is_empty());
    }

    #[test]
    #[should_panic(expected = "wrong shape")]
    fn arbiter_rejects_malformed_request_matrix() {
        let mut arb = CrossbarArbiter::new(3);
        let requests = vec![vec![false; 3]; 2];
        arb.arbitrate(&requests);
    }
}
