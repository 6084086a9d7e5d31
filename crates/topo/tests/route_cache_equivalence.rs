//! Property test: the lazy per-source route trees of [`RouteCache`] serve
//! exactly the routes an eager whole-tree computation gives, and count
//! exactly one miss per source per epoch.
//!
//! The reference is the plain composition `dijkstra_tree` (under the price
//! *map*) or `shortest_path_tree`, then `route_from_tree`, then
//! `InternedRoute::intern`. The cache side runs the engine's path: Dijkstra
//! under the dense [`cost_vector`] of the same map, trees built on a
//! source's first lookup and routes built on a pair's first lookup. Prices
//! include unusable (`f64::INFINITY`) links, the `1e-6` floor, exact ties
//! and links missing from the map.

use proptest::prelude::*;
use rackfabric_phy::{LinkId, PhyState};
use rackfabric_sim::units::BitRate;
use rackfabric_topo::cache::{InternedRoute, RouteCache};
use rackfabric_topo::routing::{
    cost_vector, dense_cost, dijkstra_tree, dijkstra_tree_with, route_from_tree,
    shortest_path_tree, PredecessorTree,
};
use rackfabric_topo::{LinkArena, NodeId, Topology, TopologySpec};
use std::collections::HashMap;

/// Small xorshift stream for the per-case price draws.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// One of the four spec families the engine routes over, small enough to
/// check every ordered pair.
fn spec(kind: u64, size: usize) -> TopologySpec {
    match kind % 4 {
        0 => TopologySpec::grid(size, size + 1, 1),
        1 => TopologySpec::torus(size + 1, size + 1, 2),
        2 => TopologySpec::fat_tree(2 * size + 2, size, 2, 1),
        _ => TopologySpec::dragonfly(size + 1, 2, 2, 1),
    }
}

/// A random price map over `links`: each link is missing, unusable, at the
/// price floor, at one of two tie-prone round values, or a random price.
fn prices(links: &[LinkId], draws: &mut Draws) -> HashMap<LinkId, f64> {
    let mut map = HashMap::new();
    for &link in links {
        let cost = match draws.next() % 8 {
            0 => continue,
            1 => f64::INFINITY,
            2 => 1e-6,
            3 => 1.0,
            4 => 0.5,
            _ => (draws.next() % 3000) as f64 / 1000.0 + 1e-6,
        };
        map.insert(link, cost);
    }
    map
}

fn eager(
    src: NodeId,
    dst: NodeId,
    tree: &PredecessorTree,
    arena: &LinkArena,
) -> Option<InternedRoute> {
    route_from_tree(src, dst, tree).and_then(|r| InternedRoute::intern(r, arena))
}

/// Looks up every ordered pair of `topo` over two epochs, destination-major
/// so sources interleave, and checks each answer against the eager tree.
fn check_two_epochs(topo: &Topology, arena: &LinkArena, draws: &mut Draws, min_cost: bool) {
    let n = topo.node_count() as u64;
    let links = topo.links();
    let mut cache = RouteCache::new();
    for epoch in 0..2u64 {
        if epoch > 0 {
            cache.bump_epoch();
        }
        let map = prices(&links, draws);
        let dense = cost_vector(&map, 1.0);
        let reference: Vec<PredecessorTree> = topo
            .nodes()
            .map(|src| {
                if min_cost {
                    dijkstra_tree(topo, src, &map, 1.0)
                } else {
                    shortest_path_tree(topo, src)
                }
            })
            .collect();
        // Twice over: the second pass must be all hits, served unchanged.
        for _pass in 0..2 {
            for dst in topo.nodes() {
                for src in topo.nodes() {
                    let got = cache.tree_route(src, dst, arena, || {
                        if min_cost {
                            dijkstra_tree_with(topo, src, dense_cost(&dense, 1.0))
                        } else {
                            shortest_path_tree(topo, src)
                        }
                    });
                    let want = eager(src, dst, &reference[src.index()], arena);
                    prop_assert_eq!(got.as_deref(), want.as_ref(), "{:?} -> {:?}", src, dst);
                }
            }
        }
        let stats = cache.stats();
        let epochs = epoch + 1;
        prop_assert_eq!(stats.misses, epochs * n, "one miss per source per epoch");
        prop_assert_eq!(stats.hits, epochs * (2 * n * n - n));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Min-cost trees under random prices: the cache equals the eager
    /// reference for every pair, over two epochs of fresh prices.
    #[test]
    fn min_cost_cache_matches_eager_trees(
        kind in 0u64..4,
        size in 2usize..4,
        seed in 1u64..u64::MAX,
    ) {
        let mut phy = PhyState::new();
        let topo = spec(kind, size).instantiate(&mut phy, BitRate::from_gbps(25));
        let arena = LinkArena::build(&topo);
        check_two_epochs(&topo, &arena, &mut Draws(seed), true);
    }

    /// Shortest-hop trees: the same equivalence and miss accounting.
    #[test]
    fn shortest_hop_cache_matches_eager_trees(kind in 0u64..4, size in 2usize..4) {
        let mut phy = PhyState::new();
        let topo = spec(kind, size).instantiate(&mut phy, BitRate::from_gbps(25));
        let arena = LinkArena::build(&topo);
        check_two_epochs(&topo, &arena, &mut Draws(0x9e37_79b9), false);
    }
}

/// The dense vector prices every link exactly as the map it came from,
/// including ids the map lacks and ids past the vector's end.
#[test]
fn cost_vector_reads_back_like_the_map() {
    let mut map = HashMap::new();
    map.insert(LinkId(0), 2.5);
    map.insert(LinkId(3), f64::INFINITY);
    map.insert(LinkId(5), 1e-6);
    let dense = cost_vector(&map, 1.0);
    assert_eq!(dense.len(), 6);
    let cost = dense_cost(&dense, 1.0);
    for id in 0..10 {
        let link = LinkId(id);
        assert_eq!(
            cost(link),
            map.get(&link).copied().unwrap_or(1.0),
            "{link:?}"
        );
    }
    assert!(cost_vector(&HashMap::new(), 1.0).is_empty());
}
