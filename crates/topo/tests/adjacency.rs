//! Property test: after any sequence of `add_edge` / `remove_edge`,
//! `Topology::neighbors(n)` is sorted by `(neighbor, link)` and is exactly
//! the live edge set at `n`, and `degree` / `links_between` agree with it.
//! BFS and Dijkstra tie-breaking rest on that order.

use proptest::prelude::*;
use rackfabric_phy::LinkId;
use rackfabric_topo::graph::Adjacency;
use rackfabric_topo::{NodeId, Topology};
use std::collections::BTreeMap;

/// Small xorshift stream for the per-case edit script.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Checks every node of `topo` against the model edge set.
fn check(topo: &Topology, model: &BTreeMap<LinkId, (NodeId, NodeId)>) {
    prop_assert_eq!(topo.edge_count(), model.len());
    for n in topo.nodes() {
        let mut want: Vec<(NodeId, LinkId)> = model
            .iter()
            .filter_map(|(&link, &(a, b))| match (a == n, b == n) {
                (true, _) => Some((b, link)),
                (_, true) => Some((a, link)),
                _ => None,
            })
            .collect();
        want.sort();
        let got: Vec<(NodeId, LinkId)> = topo
            .neighbors(n)
            .iter()
            .map(|adj: &Adjacency| (adj.neighbor, adj.link))
            .collect();
        prop_assert!(got.windows(2).all(|w| w[0] < w[1]), "unsorted at {n:?}");
        prop_assert_eq!(&got, &want, "adjacency of {:?}", n);
        prop_assert_eq!(topo.degree(n), want.len());
        for m in topo.nodes() {
            let between: Vec<LinkId> = want
                .iter()
                .filter(|&&(nb, _)| nb == m)
                .map(|&(_, l)| l)
                .collect();
            prop_assert_eq!(topo.links_between(n, m), between, "{:?} - {:?}", n, m);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn neighbors_stay_sorted_and_match_the_edge_set(
        nodes in 2usize..8,
        steps in 1usize..60,
        seed in 1u64..u64::MAX,
    ) {
        let mut draws = Draws(seed);
        let mut topo = Topology::new(nodes);
        let mut model: BTreeMap<LinkId, (NodeId, NodeId)> = BTreeMap::new();
        for _ in 0..steps {
            if draws.next().is_multiple_of(3) && !model.is_empty() {
                // Remove a live link (or, one time in four, an unknown one).
                let link = if draws.next().is_multiple_of(4) {
                    LinkId(1_000 + draws.next() % 100)
                } else {
                    let k = (draws.next() % model.len() as u64) as usize;
                    *model.keys().nth(k).unwrap()
                };
                prop_assert_eq!(topo.remove_edge(link), model.remove(&link));
            } else {
                // Add an edge under a fresh, randomly ordered link id; small
                // node counts make parallel links common.
                let a = NodeId((draws.next() % nodes as u64) as u32);
                let b = NodeId(((a.index() as u64 + 1 + draws.next() % (nodes as u64 - 1))
                    % nodes as u64) as u32);
                let link = LinkId(draws.next() % 1_000);
                if model.contains_key(&link) {
                    continue;
                }
                topo.add_edge(a, b, link);
                model.insert(link, (a, b));
            }
            check(&topo, &model);
        }
    }
}
