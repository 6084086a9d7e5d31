//! Topology reconfiguration planning.
//!
//! Turns a structural diff between two topology specs (see
//! [`rackfabric_topo::reconfig`]) into a concrete sequence of
//! [`PlpCommand`]s against the live physical state, and applies it. This is
//! the machinery behind the paper's Figure 2: the rack starts as a grid with
//! two lanes per link; the CRC decides a torus at one lane per link serves
//! the traffic better within the same lane (and therefore power) budget; the
//! wrap-around links of the torus are created by *breaking* one lane off each
//! edge-of-grid link and re-pointing it (PLP #1), while the remaining mesh
//! links are thinned to one active lane.

use rackfabric_phy::{PhyError, PhyState, PlpCommand, PlpExecutor};
use rackfabric_sim::time::SimDuration;
use rackfabric_topo::reconfig::{EdgeChange, SpecDiff};
use rackfabric_topo::spec::TopologySpec;
use rackfabric_topo::{NodeId, Topology};

/// A planned reconfiguration: the PLP commands to issue and the spec the
/// fabric will match once they complete.
#[derive(Debug, Clone)]
pub struct ReconfigPlan {
    /// Commands, in issue order.
    pub commands: Vec<PlpCommand>,
    /// The target spec.
    pub target: TopologySpec,
}

impl ReconfigPlan {
    /// The time until traffic can use the new fabric, assuming the CRC issues
    /// every command in parallel (commands touch disjoint links by
    /// construction), i.e. the maximum single-command latency.
    pub fn duration(&self, executor: &PlpExecutor) -> SimDuration {
        self.commands
            .iter()
            .map(|c| executor.timing.latency_of(c))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Number of planned commands.
    pub fn len(&self) -> usize {
        self.commands.len()
    }

    /// True when nothing needs to change.
    pub fn is_empty(&self) -> bool {
        self.commands.is_empty()
    }
}

/// Errors from planning or applying a reconfiguration.
#[derive(Debug, Clone, PartialEq)]
pub enum ReconfigError {
    /// An added edge needs lanes but no link had spare lanes to donate.
    NoLaneSource {
        /// The endpoints of the edge that could not be realised.
        edge: (NodeId, NodeId),
    },
    /// A change referenced a node pair with no physical link.
    MissingLink {
        /// The endpoints with no link between them.
        pair: (NodeId, NodeId),
    },
    /// A PLP command failed during application.
    Phy(PhyError),
}

impl std::fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconfigError::NoLaneSource { edge } => {
                write!(f, "no lane source available for new edge {edge:?}")
            }
            ReconfigError::MissingLink { pair } => {
                write!(f, "no physical link between {pair:?}")
            }
            ReconfigError::Phy(e) => write!(f, "physical layer rejected a command: {e}"),
        }
    }
}
impl std::error::Error for ReconfigError {}

impl From<PhyError> for ReconfigError {
    fn from(e: PhyError) -> Self {
        ReconfigError::Phy(e)
    }
}

/// Plans the PLP command sequence taking the fabric from `current` to
/// `target`.
///
/// Strategy, per change in the diff:
///
/// * **Added edges** are realised by [`PlpCommand::SplitLink`]: lanes are
///   taken from a link whose lane count is being reduced anyway (preferring a
///   donor that touches one of the new edge's endpoints), or failing that
///   from any link with spare lanes.
/// * **Re-laned edges** that were not consumed as donors get
///   [`PlpCommand::SetActiveLanes`].
/// * **Removed edges** are powered off.
pub fn plan(
    current: &TopologySpec,
    target: &TopologySpec,
    topo: &Topology,
    phy: &PhyState,
) -> Result<ReconfigPlan, ReconfigError> {
    let diff = SpecDiff::between(current, target);
    let mut commands = Vec::new();

    // Remaining lane budget we may still take from each link: starts at the
    // planned reduction (from - to) for re-laned edges.
    let mut donor_spare: Vec<(rackfabric_phy::LinkId, NodeId, NodeId, usize)> = Vec::new();
    let mut relane_targets: Vec<(rackfabric_phy::LinkId, usize)> = Vec::new();

    for change in &diff.changes {
        match change {
            EdgeChange::Relane {
                a,
                b,
                from_lanes,
                to_lanes,
            } => {
                let link = link_between(topo, *a, *b)
                    .ok_or(ReconfigError::MissingLink { pair: (*a, *b) })?;
                if to_lanes < from_lanes {
                    donor_spare.push((link, *a, *b, from_lanes - to_lanes));
                }
                relane_targets.push((link, *to_lanes));
            }
            EdgeChange::Remove { edge } => {
                let link =
                    link_between(topo, edge.a, edge.b).ok_or(ReconfigError::MissingLink {
                        pair: (edge.a, edge.b),
                    })?;
                commands.push(PlpCommand::SetPower {
                    link,
                    state: rackfabric_phy::PowerState::Off,
                });
            }
            EdgeChange::Add { .. } => {}
        }
    }

    // Realise added edges from donor lanes.
    for change in &diff.changes {
        if let EdgeChange::Add { edge } = change {
            let needed = edge.lanes;
            // Prefer a donor touching one endpoint of the new edge (shorter
            // re-cabling), then any donor with enough spare.
            let donor_idx = donor_spare
                .iter()
                .position(|(_, a, b, spare)| {
                    *spare >= needed
                        && (*a == edge.a || *b == edge.a || *a == edge.b || *b == edge.b)
                })
                .or_else(|| {
                    donor_spare
                        .iter()
                        .position(|(_, _, _, spare)| *spare >= needed)
                });
            let Some(idx) = donor_idx else {
                // Fall back to any physical link with more than `needed` lanes
                // that is not itself being re-laned.
                let fallback = phy.link_ids().into_iter().find(|id| {
                    phy.link(*id)
                        .map(|l| l.total_lanes() > needed)
                        .unwrap_or(false)
                        && !relane_targets.iter().any(|(rid, _)| rid == id)
                });
                match fallback {
                    Some(link) => {
                        commands.push(PlpCommand::SplitLink {
                            link,
                            lanes: needed,
                            new_a: edge.a.as_u32(),
                            new_b: edge.b.as_u32(),
                        });
                        continue;
                    }
                    None => {
                        return Err(ReconfigError::NoLaneSource {
                            edge: (edge.a, edge.b),
                        })
                    }
                }
            };
            let (link, _, _, spare) = &mut donor_spare[idx];
            commands.push(PlpCommand::SplitLink {
                link: *link,
                lanes: needed,
                new_a: edge.a.as_u32(),
                new_b: edge.b.as_u32(),
            });
            *spare -= needed;
            // Splitting already removed the donated lanes, so reduce the
            // pending SetActiveLanes target bookkeeping accordingly: the
            // remaining lanes after the split already equal the relane target
            // when the donation equals the reduction, in which case drop the
            // explicit relane command.
            if *spare == 0 {
                relane_targets.retain(|(rid, _)| rid != link);
            }
        }
    }

    // Any re-laned edge not fully handled by donations gets an explicit lane
    // count change.
    for (link, to_lanes) in relane_targets {
        commands.push(PlpCommand::SetActiveLanes {
            link,
            lanes: to_lanes,
        });
    }

    Ok(ReconfigPlan {
        commands,
        target: target.clone(),
    })
}

fn link_between(topo: &Topology, a: NodeId, b: NodeId) -> Option<rackfabric_phy::LinkId> {
    topo.links_between(a, b).into_iter().next()
}

/// Applies a plan: executes every command against `phy` and updates `topo` so
/// that the graph matches the new physical reality (new links become edges,
/// dissolved/powered-off links lose theirs). Returns the reconfiguration
/// duration (the longest single command).
pub fn apply(
    plan: &ReconfigPlan,
    executor: &PlpExecutor,
    phy: &mut PhyState,
    topo: &mut Topology,
) -> Result<SimDuration, ReconfigError> {
    let mut duration = SimDuration::ZERO;
    for command in &plan.commands {
        let completion = executor.execute(phy, command)?;
        duration = duration.max(completion.duration);
        match command {
            PlpCommand::SplitLink { new_a, new_b, .. } => {
                let new_link = completion
                    .new_link
                    .expect("split always reports the created link");
                topo.add_edge(NodeId(*new_a), NodeId(*new_b), new_link);
            }
            PlpCommand::BundleLinks { from, .. } => {
                topo.remove_edge(*from);
            }
            PlpCommand::SetPower {
                link,
                state: rackfabric_phy::PowerState::Off,
            } => {
                topo.remove_edge(*link);
            }
            _ => {}
        }
    }
    Ok(duration)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rackfabric_sim::units::BitRate;

    fn grid_fabric() -> (TopologySpec, PhyState, Topology) {
        let spec = TopologySpec::grid(4, 4, 2);
        let mut phy = PhyState::new();
        let topo = spec.instantiate(&mut phy, BitRate::from_gbps(25));
        (spec, phy, topo)
    }

    #[test]
    fn grid_to_torus_plan_has_the_expected_shape() {
        let (grid, phy, topo) = grid_fabric();
        let torus = TopologySpec::torus(4, 4, 1);
        let plan = plan(&grid, &torus, &topo, &phy).unwrap();
        // 8 wrap-around links to create.
        let splits = plan
            .commands
            .iter()
            .filter(|c| matches!(c, PlpCommand::SplitLink { .. }))
            .count();
        assert_eq!(splits, 8);
        // Mesh links not used as donors are thinned to 1 lane.
        let relanes = plan
            .commands
            .iter()
            .filter(|c| matches!(c, PlpCommand::SetActiveLanes { lanes: 1, .. }))
            .count();
        assert_eq!(
            splits + relanes,
            24 + 8 - 8,
            "every mesh link is either a donor or re-laned"
        );
        assert!(!plan.is_empty());
        assert!(plan.duration(&PlpExecutor::default()) > SimDuration::ZERO);
    }

    #[test]
    fn applying_the_plan_yields_a_connected_torus_with_lower_diameter() {
        let (grid, mut phy, mut topo) = grid_fabric();
        let torus = TopologySpec::torus(4, 4, 1);
        let before_diameter = topo.diameter().unwrap();
        let before_links = phy.link_count();
        let plan = plan(&grid, &torus, &topo, &phy).unwrap();
        let executor = PlpExecutor::default();
        let duration = apply(&plan, &executor, &mut phy, &mut topo).unwrap();
        assert!(duration >= executor.timing.split);
        assert!(topo.is_connected());
        assert_eq!(topo.edge_count(), 32, "24 mesh + 8 wrap links");
        assert_eq!(phy.link_count(), before_links + 8);
        let after_diameter = topo.diameter().unwrap();
        assert!(
            after_diameter < before_diameter,
            "the torus must shrink the diameter ({before_diameter} -> {after_diameter})"
        );
        // The lane budget went down (32 active links x1 lane vs 24 x2): check
        // the active lane count across the fabric.
        let active_lanes: usize = phy.links().map(|l| l.active_lanes()).sum();
        assert!(
            active_lanes <= 48,
            "torus must not use more lanes than the grid had"
        );
    }

    #[test]
    fn identical_specs_plan_nothing() {
        let (grid, phy, topo) = grid_fabric();
        let plan = plan(&grid, &grid.clone(), &topo, &phy).unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.duration(&PlpExecutor::default()), SimDuration::ZERO);
    }

    #[test]
    fn missing_physical_link_is_reported() {
        let (grid, phy, _) = grid_fabric();
        let torus = TopologySpec::torus(4, 4, 1);
        // An empty topology graph has no links to re-lane.
        let empty = Topology::new(16);
        let err = plan(&grid, &torus, &empty, &phy).unwrap_err();
        assert!(matches!(err, ReconfigError::MissingLink { .. }));
    }

    #[test]
    fn thin_fabric_without_spare_lanes_cannot_grow_a_torus() {
        // A 1-lane grid has no lanes to donate and no link with spare lanes.
        let spec = TopologySpec::grid(3, 3, 1);
        let mut phy = PhyState::new();
        let topo = spec.instantiate(&mut phy, BitRate::from_gbps(25));
        let torus = TopologySpec::torus(3, 3, 1);
        let result = plan(&spec, &torus, &topo, &phy);
        assert!(matches!(result, Err(ReconfigError::NoLaneSource { .. })));
    }
}
