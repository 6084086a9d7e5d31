//! High-speed bypass — PLP #2.
//!
//! A bypass connects two links that meet at a node "at the lowest possible
//! physical level": instead of the packet climbing into the node's switching
//! logic (hundreds of nanoseconds of SerDes, MAC, lookup and arbitration), a
//! cross-connect in the PHY forwards the signal with only a retiming delay of
//! a few tens of nanoseconds. A bypass therefore turns a multi-hop path into
//! something that behaves almost like a single long cable, at the cost of the
//! bypassed node losing the ability to inspect or inject traffic on that
//! pair of links.

use crate::error::PhyError;
use crate::link::LinkId;
use rackfabric_sim::time::SimDuration;
use std::collections::HashMap;

/// One active bypass cross-connect at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bypass {
    /// The node whose switching logic is skipped.
    pub at_node: u32,
    /// The link traffic arrives on.
    pub in_link: LinkId,
    /// The link traffic is forwarded onto.
    pub out_link: LinkId,
    /// Retiming / cross-connect latency added in place of the switch
    /// traversal.
    pub latency: SimDuration,
}

impl Bypass {
    /// Default retiming latency of a PHY-level cross-connect.
    pub fn default_latency() -> SimDuration {
        SimDuration::from_nanos(25)
    }
}

/// The set of bypasses currently active in the fabric, indexed by
/// (node, ingress link).
#[derive(Debug, Clone, Default)]
pub struct BypassTable {
    entries: HashMap<(u32, LinkId), Bypass>,
}

impl BypassTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a bypass. Fails if the ingress link at that node already has
    /// one (the cross-connect hardware is a 1:1 mapping).
    pub fn install(&mut self, bypass: Bypass) -> Result<(), PhyError> {
        let key = (bypass.at_node, bypass.in_link);
        if self.entries.contains_key(&key) {
            return Err(PhyError::BypassAlreadyActive(bypass.in_link));
        }
        self.entries.insert(key, bypass);
        Ok(())
    }

    /// Removes the bypass for `in_link` at `node`, returning it if present.
    pub fn remove(&mut self, node: u32, in_link: LinkId) -> Option<Bypass> {
        self.entries.remove(&(node, in_link))
    }

    /// Looks up the bypass (if any) that traffic arriving at `node` on
    /// `in_link` will take.
    pub fn lookup(&self, node: u32, in_link: LinkId) -> Option<&Bypass> {
        self.entries.get(&(node, in_link))
    }

    /// Number of active bypasses.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no bypasses are active.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes every bypass touching `link` (used when the link is broken,
    /// re-bundled or powered off).
    pub fn purge_link(&mut self, link: LinkId) -> usize {
        let before = self.entries.len();
        self.entries
            .retain(|_, b| b.in_link != link && b.out_link != link);
        before - self.entries.len()
    }

    /// Iterates over all active bypasses.
    pub fn iter(&self) -> impl Iterator<Item = &Bypass> {
        self.entries.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bypass(node: u32, inl: u64, outl: u64) -> Bypass {
        Bypass {
            at_node: node,
            in_link: LinkId(inl),
            out_link: LinkId(outl),
            latency: Bypass::default_latency(),
        }
    }

    #[test]
    fn install_lookup_remove() {
        let mut t = BypassTable::new();
        assert!(t.is_empty());
        t.install(bypass(3, 10, 11)).unwrap();
        assert_eq!(t.len(), 1);
        let found = t.lookup(3, LinkId(10)).unwrap();
        assert_eq!(found.out_link, LinkId(11));
        assert!(
            t.lookup(3, LinkId(11)).is_none(),
            "lookup is keyed by ingress link"
        );
        assert!(t.lookup(4, LinkId(10)).is_none(), "lookup is keyed by node");
        let removed = t.remove(3, LinkId(10)).unwrap();
        assert_eq!(removed.in_link, LinkId(10));
        assert!(t.is_empty());
    }

    #[test]
    fn double_install_is_rejected() {
        let mut t = BypassTable::new();
        t.install(bypass(1, 5, 6)).unwrap();
        let err = t.install(bypass(1, 5, 7)).unwrap_err();
        assert_eq!(err, PhyError::BypassAlreadyActive(LinkId(5)));
        // A different ingress link at the same node is fine.
        t.install(bypass(1, 8, 9)).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn purge_link_removes_both_directions() {
        let mut t = BypassTable::new();
        t.install(bypass(1, 5, 6)).unwrap();
        t.install(bypass(2, 7, 5)).unwrap();
        t.install(bypass(3, 8, 9)).unwrap();
        let purged = t.purge_link(LinkId(5));
        assert_eq!(purged, 2);
        assert_eq!(t.len(), 1);
        assert!(t.lookup(3, LinkId(8)).is_some());
    }

    #[test]
    fn default_latency_is_much_smaller_than_a_switch() {
        // A cut-through switch is hundreds of ns; the bypass must be tens.
        assert!(Bypass::default_latency() < SimDuration::from_nanos(100));
        assert!(Bypass::default_latency() > SimDuration::ZERO);
    }

    #[test]
    fn iteration_sees_all_entries() {
        let mut t = BypassTable::new();
        t.install(bypass(1, 1, 2)).unwrap();
        t.install(bypass(2, 3, 4)).unwrap();
        let nodes: Vec<u32> = t.iter().map(|b| b.at_node).collect();
        assert_eq!(nodes.len(), 2);
        assert!(nodes.contains(&1) && nodes.contains(&2));
    }
}
