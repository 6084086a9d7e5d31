//! Structural diffs between topology specifications.
//!
//! The Closed Ring Control plans a reconfiguration by comparing the spec the
//! fabric is currently wired as with a candidate spec (the paper's Figure 2
//! compares a 2-lane grid with a 1-lane torus). The [`SpecDiff`] lists, per
//! node pair, whether an edge must be added, removed, or re-laned; the core
//! crate's reconfiguration planner turns those changes into concrete PLP
//! command sequences against the live physical state.

use crate::graph::NodeId;
use crate::spec::{EdgeSpec, TopologySpec};
use std::collections::HashMap;

/// One change required to move from the current spec to the target spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeChange {
    /// A new edge must be created between the pair with this many lanes.
    Add {
        /// The edge to create.
        edge: EdgeSpec,
    },
    /// The existing edge between the pair must be removed entirely.
    Remove {
        /// The edge to remove (as described by the current spec).
        edge: EdgeSpec,
    },
    /// The edge stays but its lane count changes.
    Relane {
        /// First endpoint.
        a: NodeId,
        /// Second endpoint.
        b: NodeId,
        /// Lanes in the current spec.
        from_lanes: usize,
        /// Lanes in the target spec.
        to_lanes: usize,
    },
}

/// The full difference between two topology specs.
#[derive(Debug, Clone, Default)]
pub struct SpecDiff {
    /// All required changes, in a deterministic order (removals, then
    /// re-lanings, then additions — freeing lanes before they are consumed).
    pub changes: Vec<EdgeChange>,
}

impl SpecDiff {
    /// Computes the diff taking the fabric from `current` to `target`.
    ///
    /// Both specs must describe the same node count; edges are matched by
    /// unordered node pair (parallel edges between the same pair are summed
    /// into one lane figure).
    pub fn between(current: &TopologySpec, target: &TopologySpec) -> SpecDiff {
        assert_eq!(
            current.nodes, target.nodes,
            "reconfiguration cannot change the number of nodes"
        );
        let cur = pair_lanes(current);
        let tgt = pair_lanes(target);

        let mut removals = Vec::new();
        let mut relanes = Vec::new();
        let mut additions = Vec::new();

        let mut pairs: Vec<(NodeId, NodeId)> = cur.keys().chain(tgt.keys()).copied().collect();
        pairs.sort();
        pairs.dedup();

        for pair in pairs {
            let c = cur.get(&pair);
            let t = tgt.get(&pair);
            match (c, t) {
                (Some(ce), None) => removals.push(EdgeChange::Remove { edge: *ce }),
                (None, Some(te)) => additions.push(EdgeChange::Add { edge: *te }),
                (Some(ce), Some(te)) if ce.lanes != te.lanes => relanes.push(EdgeChange::Relane {
                    a: pair.0,
                    b: pair.1,
                    from_lanes: ce.lanes,
                    to_lanes: te.lanes,
                }),
                _ => {}
            }
        }

        let mut changes = removals;
        changes.extend(relanes);
        changes.extend(additions);
        SpecDiff { changes }
    }

    /// Number of changes of each kind: (adds, removes, relanes).
    pub fn counts(&self) -> (usize, usize, usize) {
        let adds = self
            .changes
            .iter()
            .filter(|c| matches!(c, EdgeChange::Add { .. }))
            .count();
        let removes = self
            .changes
            .iter()
            .filter(|c| matches!(c, EdgeChange::Remove { .. }))
            .count();
        let relanes = self
            .changes
            .iter()
            .filter(|c| matches!(c, EdgeChange::Relane { .. }))
            .count();
        (adds, removes, relanes)
    }

    /// True when the two specs already match.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Net change in total lane demand (positive means the target needs more
    /// SerDes lanes powered than the current spec).
    pub fn net_lane_delta(&self) -> i64 {
        self.changes
            .iter()
            .map(|c| match c {
                EdgeChange::Add { edge } => edge.lanes as i64,
                EdgeChange::Remove { edge } => -(edge.lanes as i64),
                EdgeChange::Relane {
                    from_lanes,
                    to_lanes,
                    ..
                } => *to_lanes as i64 - *from_lanes as i64,
            })
            .sum()
    }
}

/// Collapses a spec into a map from unordered node pair to a representative
/// edge whose lane count is the sum over parallel edges.
fn pair_lanes(spec: &TopologySpec) -> HashMap<(NodeId, NodeId), EdgeSpec> {
    let mut map: HashMap<(NodeId, NodeId), EdgeSpec> = HashMap::new();
    for e in &spec.edges {
        map.entry(e.pair())
            .and_modify(|acc| acc.lanes += e.lanes)
            .or_insert_with(|| {
                let mut c = *e;
                let (a, b) = e.pair();
                c.a = a;
                c.b = b;
                c
            });
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TopologySpec;

    #[test]
    fn identical_specs_produce_empty_diff() {
        let g = TopologySpec::grid(4, 4, 2);
        let d = SpecDiff::between(&g, &g.clone());
        assert!(d.is_empty());
        assert_eq!(d.net_lane_delta(), 0);
    }

    #[test]
    fn grid_to_torus_diff_matches_figure_2() {
        // The paper's Figure 2: a grid at two lanes per link becomes a torus
        // at one lane per link.
        let grid = TopologySpec::grid(4, 4, 2);
        let torus = TopologySpec::torus(4, 4, 1);
        let d = SpecDiff::between(&grid, &torus);
        let (adds, removes, relanes) = d.counts();
        // 8 wrap-around links are added, nothing is removed, and every one of
        // the 24 mesh links is thinned from 2 lanes to 1.
        assert_eq!(adds, 8);
        assert_eq!(removes, 0);
        assert_eq!(relanes, 24);
        // Net lane demand goes down: 24*2=48 lanes -> 24 + 8 = 32 lanes.
        assert_eq!(d.net_lane_delta(), -16);
        // Removals/relanes are ordered before additions so freed lanes exist
        // before they are consumed.
        let first_add = d
            .changes
            .iter()
            .position(|c| matches!(c, EdgeChange::Add { .. }))
            .unwrap();
        let last_relane = d
            .changes
            .iter()
            .rposition(|c| matches!(c, EdgeChange::Relane { .. }))
            .unwrap();
        assert!(last_relane < first_add);
    }

    #[test]
    fn torus_back_to_grid_reverses_the_changes() {
        let grid = TopologySpec::grid(4, 4, 2);
        let torus = TopologySpec::torus(4, 4, 1);
        let forward = SpecDiff::between(&grid, &torus);
        let back = SpecDiff::between(&torus, &grid);
        let (fa, fr, fl) = forward.counts();
        let (ba, br, bl) = back.counts();
        assert_eq!(fa, br);
        assert_eq!(fr, ba);
        assert_eq!(fl, bl);
        assert_eq!(forward.net_lane_delta(), -back.net_lane_delta());
    }

    #[test]
    fn lane_only_changes_are_relanes() {
        let thin = TopologySpec::ring(5, 1);
        let thick = TopologySpec::ring(5, 4);
        let d = SpecDiff::between(&thin, &thick);
        let (adds, removes, relanes) = d.counts();
        assert_eq!((adds, removes, relanes), (0, 0, 5));
        assert_eq!(d.net_lane_delta(), 15);
    }

    #[test]
    #[should_panic(expected = "cannot change the number of nodes")]
    fn node_count_mismatch_panics() {
        let a = TopologySpec::ring(5, 1);
        let b = TopologySpec::ring(6, 1);
        let _ = SpecDiff::between(&a, &b);
    }

    #[test]
    fn line_to_ring_adds_the_closing_edge() {
        let line = TopologySpec::line(6, 1);
        let ring = TopologySpec::ring(6, 1);
        let d = SpecDiff::between(&line, &ring);
        let (adds, removes, relanes) = d.counts();
        assert_eq!((adds, removes, relanes), (1, 0, 0));
    }
}
