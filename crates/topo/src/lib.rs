//! # rackfabric-topo
//!
//! Topologies and routing for the adaptive rack-scale fabric.
//!
//! Rack-scale systems in the paper are direct-connect fabrics: every node
//! (compute sled, NVMe sled, DRAM sled) embeds a small switch and links run
//! node-to-node, so the interconnect's shape — grid, torus, ring, hypercube —
//! is itself reconfigurable through the Physical Layer Primitives. This crate
//! provides:
//!
//! * [`graph`] — the runtime topology graph ([`Topology`]) mapping node pairs
//!   to the physical [`LinkId`](rackfabric_phy::LinkId)s that realise them.
//! * [`spec`] — declarative topology descriptions ([`TopologySpec`]) and
//!   builders for grids, tori, rings, lines, hypercubes and fat-trees, plus
//!   instantiation against a [`PhyState`](rackfabric_phy::PhyState).
//! * [`routing`] — shortest-path, cost-aware (Dijkstra), ECMP and
//!   dimension-ordered routing, the substrate over which the Closed Ring
//!   Control applies its per-link prices.
//! * [`reconfig`] — structural diffs between two topology specs, the input to
//!   the reconfiguration planner in the core crate (e.g. the paper's
//!   grid-at-2-lanes to torus-at-1-lane example).
//! * [`arena`] — dense [`LinkIdx`]/[`PortIdx`] interning of the live links,
//!   built once per topology epoch so per-packet state lives in plain
//!   vectors instead of hash maps.
//! * [`cache`] — the epoch-invalidated [`RouteCache`] that amortises route
//!   computation across every train of a `(src, dst)` pair: one tree per
//!   source per epoch, each route built on its first use.
//! * [`partition`] — node-to-shard rack grouping and the per-epoch cut-edge
//!   metadata (which links cross shards) the sharded engine synchronises on.

pub mod arena;
pub mod cache;
pub mod graph;
pub mod partition;
pub mod reconfig;
pub mod routing;
pub mod spec;

pub use arena::{LinkArena, LinkIdx, PortIdx};
pub use cache::{InternedRoute, RouteCache, RouteCacheStats};
pub use graph::{NodeId, Topology};
pub use partition::FabricPartition;
pub use reconfig::{EdgeChange, SpecDiff};
pub use routing::{dijkstra_tree, ecmp_paths, shortest_path, Route, RoutingAlgorithm};
pub use spec::{EdgeSpec, TopologyKind, TopologySpec};
