//! Epoch-invalidated route caching.
//!
//! Flow admission used to re-run BFS/Dijkstra for every injected packet —
//! by far the most expensive per-packet work in the fabric model. Within one
//! *topology epoch* (the interval between reconfigurations, and between
//! price updates for cost-aware routing) the route for a `(src, dst)` pair
//! is a pure function, so it can be computed once, interned against the
//! [`LinkArena`], and reused by every subsequent train of that pair.
//!
//! A [`RouteCache`] stores answers in one of two shapes, by algorithm:
//!
//! * **Per-source trees** ([`RouteCache::tree_route`]) for the single-path
//!   algorithms (shortest hop, min cost). The first lookup of a source in an
//!   epoch builds that source's whole predecessor tree — one BFS/Dijkstra
//!   covers every destination. Each `(src, dst)` route is then built from
//!   the stored tree on its own first lookup, so an epoch pays only for the
//!   routes its traffic uses.
//! * **Keyed routes** ([`RouteCache::get_or_compute`]) for the per-pair
//!   algorithms (ECMP, Valiant, adaptive, dimension-ordered), one entry per
//!   `(src, dst, selector)`.
//!
//! Invalidation is by epoch counter: bumping the epoch makes every tree and
//! entry stale without touching them (stale ones are overwritten on next
//! access), so invalidation is O(1) no matter how much is cached.

use crate::arena::{LinkArena, LinkIdx};
use crate::graph::NodeId;
use crate::routing::{route_from_tree, PredecessorTree, Route};
use std::collections::HashMap;
use std::sync::Arc;

/// A route resolved against a [`LinkArena`]: the public [`Route`] plus the
/// dense link indices the hot path consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternedRoute {
    /// The underlying node/link route.
    pub route: Route,
    /// `route.links` interned to dense indices, same order.
    pub links: Vec<LinkIdx>,
}

impl InternedRoute {
    /// Interns `route` against `arena`. Returns `None` when the route
    /// references a link the arena does not know (a torn-down link id from a
    /// previous epoch) — callers should recompute the route.
    pub fn intern(route: Route, arena: &LinkArena) -> Option<InternedRoute> {
        let links = route
            .links
            .iter()
            .map(|&id| arena.index(id))
            .collect::<Option<Vec<_>>>()?;
        Some(InternedRoute { route, links })
    }

    /// Number of hops.
    #[inline]
    pub fn hops(&self) -> usize {
        self.links.len()
    }
}

/// Hit/miss counters of a [`RouteCache`], cheap to copy into run metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to recompute (cold or stale entry).
    pub misses: u64,
}

impl RouteCacheStats {
    /// Fraction of lookups served from the cache (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Cache key: a source/destination pair plus a selector discriminating
/// routes that legitimately differ per flow on the same pair (ECMP).
type Key = (NodeId, NodeId, u64);

/// A cached answer: a route, or "no route exists right now".
type Answer = Option<Arc<InternedRoute>>;

/// One source's predecessor tree and the routes built from it so far.
#[derive(Debug)]
struct TreeSlot {
    /// The epoch the tree was built in; stale once the cache moves on.
    epoch: u64,
    tree: PredecessorTree,
    /// `routes[dst]`: `None` until `(src, dst)` is first looked up.
    routes: Vec<Option<Answer>>,
}

/// An epoch-tagged cache of interned routes: per-source trees for the
/// single-path algorithms, keyed routes for the per-pair ones (see the
/// module docs). One cache serves one routing algorithm.
///
/// "No route" answers are cached too: they are just as expensive to
/// recompute as a route.
#[derive(Debug, Default)]
pub struct RouteCache {
    epoch: u64,
    entries: HashMap<Key, (u64, Answer)>,
    /// `trees[src]`, grown on demand; `None` until `src` is first looked up.
    trees: Vec<Option<TreeSlot>>,
    stats: RouteCacheStats,
}

impl RouteCache {
    /// An empty cache at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current epoch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Invalidates every cached route in O(1) by advancing the epoch. Call
    /// on reconfiguration, and on every price update when routing is
    /// cost-aware.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Frees every stored tree (they are stale after [`bump_epoch`] anyway).
    /// Call when the topology itself is replaced, so trees sized for the old
    /// node set are not kept alive.
    ///
    /// [`bump_epoch`]: RouteCache::bump_epoch
    pub fn drop_trees(&mut self) {
        self.trees = Vec::new();
    }

    /// The route `src -> dst` out of `src`'s predecessor tree for this
    /// epoch, interned against `arena`.
    ///
    /// The first lookup of `src` in an epoch is a miss: it calls `build` for
    /// the tree (which must cover the whole node set) and keeps it. Every
    /// other lookup of `src` in the epoch is a hit, including the first one
    /// of each destination, whose route is built from the stored tree then
    /// and kept. So an epoch counts one miss per source looked up, exactly
    /// as if the miss had filled every destination at once.
    pub fn tree_route(
        &mut self,
        src: NodeId,
        dst: NodeId,
        arena: &LinkArena,
        build: impl FnOnce() -> PredecessorTree,
    ) -> Answer {
        if self.trees.len() <= src.index() {
            self.trees.resize_with(src.index() + 1, || None);
        }
        let epoch = self.epoch;
        let slot = match &mut self.trees[src.index()] {
            Some(slot) if slot.epoch == epoch => {
                self.stats.hits += 1;
                slot
            }
            stale => {
                self.stats.misses += 1;
                let tree = build();
                let mut routes = stale.take().map(|s| s.routes).unwrap_or_default();
                routes.clear();
                routes.resize(tree.len(), None);
                stale.insert(TreeSlot {
                    epoch,
                    tree,
                    routes,
                })
            }
        };
        let build_route = |tree: &PredecessorTree| {
            route_from_tree(src, dst, tree)
                .and_then(|r| InternedRoute::intern(r, arena))
                .map(Arc::new)
        };
        match slot.routes.get_mut(dst.index()) {
            Some(Some(cached)) => cached.clone(),
            Some(unbuilt) => unbuilt.insert(build_route(&slot.tree)).clone(),
            // A destination outside the tree's node set: nothing to keep.
            None => build_route(&slot.tree),
        }
    }

    /// Looks up `(src, dst, selector)` among the keyed routes of the current
    /// epoch. The outer `Option` is hit/miss; the inner one is the cached
    /// answer (which may be "no route"). Counts towards the hit/miss
    /// statistics.
    pub fn lookup(&mut self, src: NodeId, dst: NodeId, selector: u64) -> Option<Answer> {
        if let Some((epoch, cached)) = self.entries.get(&(src, dst, selector)) {
            if *epoch == self.epoch {
                self.stats.hits += 1;
                return Some(cached.clone());
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Stores a keyed answer for `(src, dst, selector)` at the current
    /// epoch.
    pub fn insert(&mut self, src: NodeId, dst: NodeId, selector: u64, value: Answer) {
        self.entries
            .insert((src, dst, selector), (self.epoch, value));
    }

    /// Looks up the keyed route for `(src, dst, selector)` in the current
    /// epoch, computing and caching it via `compute` on a miss.
    pub fn get_or_compute(
        &mut self,
        src: NodeId,
        dst: NodeId,
        selector: u64,
        compute: impl FnOnce() -> Answer,
    ) -> Answer {
        match self.lookup(src, dst, selector) {
            Some(cached) => cached,
            None => {
                let computed = compute();
                self.insert(src, dst, selector, computed.clone());
                computed
            }
        }
    }

    /// Hit/miss counters accumulated since construction.
    #[inline]
    pub fn stats(&self) -> RouteCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{shortest_path, shortest_path_tree};
    use crate::spec::TopologySpec;
    use rackfabric_phy::PhyState;
    use rackfabric_sim::units::BitRate;

    fn setup() -> (crate::graph::Topology, LinkArena) {
        let mut phy = PhyState::new();
        let topo = TopologySpec::grid(3, 3, 1).instantiate(&mut phy, BitRate::from_gbps(25));
        let arena = LinkArena::build(&topo);
        (topo, arena)
    }

    #[test]
    fn caches_within_an_epoch_and_recomputes_after_bump() {
        let (topo, arena) = setup();
        let mut cache = RouteCache::new();
        let mut computes = 0;
        for _ in 0..5 {
            let r = cache.get_or_compute(NodeId(0), NodeId(8), 0, || {
                computes += 1;
                shortest_path(&topo, NodeId(0), NodeId(8))
                    .and_then(|r| InternedRoute::intern(r, &arena))
                    .map(Arc::new)
            });
            assert_eq!(r.unwrap().hops(), 4);
        }
        assert_eq!(computes, 1, "one compute serves the whole epoch");
        assert_eq!(cache.stats().hits, 4);
        assert_eq!(cache.stats().misses, 1);

        cache.bump_epoch();
        cache.get_or_compute(NodeId(0), NodeId(8), 0, || {
            computes += 1;
            None
        });
        assert_eq!(computes, 2, "bumping the epoch invalidates the entry");
    }

    #[test]
    fn selector_discriminates_ecmp_flows() {
        let (_, _) = setup();
        let mut cache = RouteCache::new();
        cache.get_or_compute(NodeId(0), NodeId(1), 7, || None);
        cache.get_or_compute(NodeId(0), NodeId(1), 8, || None);
        assert_eq!(cache.stats().misses, 2, "different selectors are distinct");
        cache.get_or_compute(NodeId(0), NodeId(1), 7, || None);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn negative_results_are_cached() {
        let mut cache = RouteCache::new();
        let mut computes = 0;
        for _ in 0..3 {
            let r = cache.get_or_compute(NodeId(0), NodeId(5), 0, || {
                computes += 1;
                None
            });
            assert!(r.is_none());
        }
        assert_eq!(computes, 1, "'no route' is cached like any other answer");
    }

    #[test]
    fn trees_miss_once_per_source_and_build_routes_on_first_use() {
        let (topo, arena) = setup();
        let mut cache = RouteCache::new();
        let mut builds = 0;
        for _ in 0..2 {
            for dst in topo.nodes() {
                let r = cache.tree_route(NodeId(0), dst, &arena, || {
                    builds += 1;
                    shortest_path_tree(&topo, NodeId(0))
                });
                let eager = shortest_path(&topo, NodeId(0), dst)
                    .and_then(|r| InternedRoute::intern(r, &arena));
                assert_eq!(r.as_deref(), eager.as_ref());
            }
        }
        assert_eq!(builds, 1, "one tree serves every destination of the epoch");
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 17);

        // A second source has a slot of its own.
        cache.tree_route(NodeId(4), NodeId(0), &arena, || {
            builds += 1;
            shortest_path_tree(&topo, NodeId(4))
        });
        assert_eq!((builds, cache.stats().misses), (2, 2));

        cache.bump_epoch();
        let again = cache.tree_route(NodeId(0), NodeId(8), &arena, || {
            builds += 1;
            shortest_path_tree(&topo, NodeId(0))
        });
        assert_eq!(again.unwrap().hops(), 4);
        assert_eq!(builds, 3, "bumping the epoch invalidates the tree");

        cache.drop_trees();
        cache.tree_route(NodeId(0), NodeId(8), &arena, || {
            builds += 1;
            shortest_path_tree(&topo, NodeId(0))
        });
        assert_eq!(builds, 4, "dropped trees are rebuilt");
    }

    #[test]
    fn tree_routes_outside_the_node_set_are_none() {
        let (topo, arena) = setup();
        let mut cache = RouteCache::new();
        let tree = || shortest_path_tree(&topo, NodeId(0));
        assert!(cache
            .tree_route(NodeId(0), NodeId(99), &arena, tree)
            .is_none());
        assert!(cache
            .tree_route(NodeId(0), NodeId(99), &arena, tree)
            .is_none());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn interning_fails_for_unknown_links() {
        let (topo, arena) = setup();
        let route = shortest_path(&topo, NodeId(0), NodeId(8)).unwrap();
        let mut broken = route.clone();
        broken.links[0] = rackfabric_phy::LinkId(9999);
        assert!(InternedRoute::intern(route, &arena).is_some());
        assert!(InternedRoute::intern(broken, &arena).is_none());
    }

    #[test]
    fn hit_rate_counts() {
        let stats = RouteCacheStats { hits: 3, misses: 1 };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(RouteCacheStats::default().hit_rate(), 0.0);
    }
}
