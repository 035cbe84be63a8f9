//! Multi-path routing.
//!
//! Routing between NICs enumerates **all minimum-hop switch paths** — the
//! equal-cost set that datacenter ECMP hashes over. MCCS's explicit route
//! control (the paper encodes a route id in the RoCEv2 UDP source port and
//! installs policy-based routing at the switches) is modeled by [`RouteId`]:
//! an index into the deterministic equal-cost path set for a NIC pair.
//!
//! A NIC-to-NIC route is `uplink + switch-level segment + downlink`, and
//! the segments depend only on the two switches the NICs attach to. So
//! what is memoised is the **segment set per `(src switch, dst switch)`**
//! — `k` slices of switch-to-switch links in one flat vector — never a
//! per-NIC-pair route list: memory is O(switch pairs touched), and random
//! placement on a 10k-GPU fabric misses at most once per leaf pair.
//!
//! * A miss costs one reverse BFS over the per-switch in-link index (built
//!   next to `switch_out` by the builder) plus a walk of the shortest-path
//!   DAG: O(switches + switch links reached + paths × hops), independent
//!   of the number of NICs and of the total link count.
//! * A hit costs one hash lookup under a read lock and an `Arc` clone.
//!   [`Topology::route_set`] returns a [`RouteSet`] view whose
//!   [`links`](RouteSet::links) iterate a route without allocating;
//!   [`Topology::ecmp_route`] / [`Topology::pinned_route`] assemble the one
//!   requested [`Route`] in a single `Arc<[LinkId]>` allocation.
//!
//! Route order — and so [`RouteId`] numbering — is lexicographic by link
//! id: the DAG walk visits a switch's out-links in id order.

use crate::graph::{Endpoint, Topology};
use crate::ids::{LinkId, NicId, SwitchId};
#[allow(clippy::disallowed_types)] // the route memo's map
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::sync::RwLock;

/// An index into the equal-cost path set of a NIC pair — the provider's
/// explicit route handle ("route ID" in the paper's §5 Management).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RouteId(pub u32);

impl RouteId {
    /// The dense index behind this id.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// A concrete NIC-to-NIC path: uplink, zero or more switch-to-switch links,
/// downlink.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Route {
    /// Source NIC.
    pub src: NicId,
    /// Destination NIC.
    pub dst: NicId,
    /// Which equal-cost choice this is.
    pub id: RouteId,
    /// The links traversed, in order.
    pub links: Arc<[LinkId]>,
}

/// Why a route could not be resolved.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouteError {
    /// Source and destination are the same NIC (loopback never reaches the
    /// fabric).
    SelfRoute,
    /// No switch path joins the two NICs' switches.
    Partitioned {
        /// The source NIC's switch.
        from: SwitchId,
        /// The destination NIC's switch.
        to: SwitchId,
    },
    /// The route id is not below the pair's path diversity.
    OutOfRange {
        /// The offending id.
        id: RouteId,
        /// Number of equal-cost paths the pair has.
        diversity: usize,
        /// Source NIC.
        src: NicId,
        /// Destination NIC.
        dst: NicId,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RouteError::SelfRoute => write!(f, "no route from a NIC to itself"),
            RouteError::Partitioned { from, to } => {
                write!(f, "fabric partitioned: no switch path {from} -> {to}")
            }
            RouteError::OutOfRange {
                id,
                diversity,
                src,
                dst,
            } => write!(
                f,
                "route {id:?} out of range: {diversity} equal-cost paths {src}->{dst}"
            ),
        }
    }
}

impl std::error::Error for RouteError {}

/// The equal-cost switch-level paths between two switches, stored flat:
/// path `i` is `links[i * hops..(i + 1) * hops]`. Two NICs on one switch
/// have the single empty path (`hops == 0`, `count == 1`).
#[derive(Debug)]
struct Segments {
    hops: usize,
    count: usize,
    links: Vec<LinkId>,
}

/// Memoized segment sets per `(src switch, dst switch)`. Owned by
/// [`Topology`].
#[derive(Default, Debug)]
pub(crate) struct RouteMemo {
    #[allow(clippy::disallowed_types)] // a memo: lookup only, never iterated
    segments: RwLock<HashMap<(SwitchId, SwitchId), Arc<Segments>>>,
}

/// The equal-cost route set of one NIC pair: a view over the memoized
/// switch-level segments plus the pair's own up- and downlink. Walking a
/// route's links through it allocates nothing.
#[derive(Clone, Debug)]
pub struct RouteSet {
    src: NicId,
    dst: NicId,
    uplink: LinkId,
    downlink: LinkId,
    segments: Arc<Segments>,
}

impl RouteSet {
    /// Number of equal-cost routes (at least one).
    pub fn diversity(&self) -> usize {
        self.segments.count
    }

    /// Every route id of the set, in order.
    pub fn ids(&self) -> impl Iterator<Item = RouteId> {
        (0..self.segments.count as u32).map(RouteId)
    }

    /// The route an ECMP hash selects. The hash is mixed (splitmix64
    /// finalizer) before reduction so correlated inputs (consecutive
    /// connection ids) spread across paths like a real switch hash.
    pub fn ecmp_id(&self, hash: u64) -> RouteId {
        let mut z = hash.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        RouteId((z % self.segments.count as u64) as u32)
    }

    /// The links route `id` traverses, in order, or
    /// [`RouteError::OutOfRange`].
    pub fn try_links(&self, id: RouteId) -> Result<impl Iterator<Item = LinkId> + '_, RouteError> {
        let seg = &*self.segments;
        if id.index() >= seg.count {
            return Err(RouteError::OutOfRange {
                id,
                diversity: seg.count,
                src: self.src,
                dst: self.dst,
            });
        }
        let middle = &seg.links[id.index() * seg.hops..(id.index() + 1) * seg.hops];
        Ok(std::iter::once(self.uplink)
            .chain(middle.iter().copied())
            .chain(std::iter::once(self.downlink)))
    }

    /// As [`try_links`](Self::try_links).
    ///
    /// # Panics
    /// Panics if `id` is out of range for the set.
    pub fn links(&self, id: RouteId) -> impl Iterator<Item = LinkId> + '_ {
        self.try_links(id).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Route `id` as an owned [`Route`], or [`RouteError::OutOfRange`].
    fn try_route(&self, id: RouteId) -> Result<Route, RouteError> {
        Ok(Route {
            src: self.src,
            dst: self.dst,
            id,
            // The chain is `TrustedLen`: one allocation, sized up front.
            links: self.try_links(id)?.collect(),
        })
    }

    /// Route `id` as an owned [`Route`].
    ///
    /// # Panics
    /// Panics if `id` is out of range for the set.
    pub fn route(&self, id: RouteId) -> Route {
        self.try_route(id).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl Topology {
    /// The equal-cost (minimum-hop) route set from `src` to `dst`, routes
    /// in a deterministic order (lexicographic by link id). Fails with
    /// [`RouteError::SelfRoute`] if `src == dst` and
    /// [`RouteError::Partitioned`] if no switch path joins the two NICs.
    pub fn try_route_set(&self, src: NicId, dst: NicId) -> Result<RouteSet, RouteError> {
        if src == dst {
            return Err(RouteError::SelfRoute);
        }
        let (src_nic, dst_nic) = (self.nic(src), self.nic(dst));
        Ok(RouteSet {
            src,
            dst,
            uplink: src_nic.uplink,
            downlink: dst_nic.downlink,
            segments: self.segments(src_nic.switch, dst_nic.switch)?,
        })
    }

    /// As [`try_route_set`](Self::try_route_set).
    ///
    /// # Panics
    /// Panics if `src == dst` or if the fabric is partitioned between the
    /// two NICs.
    pub fn route_set(&self, src: NicId, dst: NicId) -> RouteSet {
        self.try_route_set(src, dst)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of equal-cost choices between two NICs — the "network
    /// multi-path choices" count that sizes the ring/channel fan-out in the
    /// paper's §6.5.
    ///
    /// # Panics
    /// As [`route_set`](Self::route_set).
    pub fn path_diversity(&self, src: NicId, dst: NicId) -> usize {
        self.route_set(src, dst).diversity()
    }

    /// The route an ECMP hash selects (see [`RouteSet::ecmp_id`]).
    ///
    /// # Panics
    /// As [`route_set`](Self::route_set).
    pub fn ecmp_route(&self, src: NicId, dst: NicId, hash: u64) -> Route {
        let set = self.route_set(src, dst);
        set.route(set.ecmp_id(hash))
    }

    /// The explicitly pinned route `id` — MCCS's source-routing knob.
    ///
    /// # Panics
    /// As [`route_set`](Self::route_set), or if `id` is out of range for
    /// the pair's equal-cost set.
    pub fn pinned_route(&self, src: NicId, dst: NicId, id: RouteId) -> Route {
        self.route_set(src, dst).route(id)
    }

    /// The memoized segment set between two switches, enumerated on first
    /// use.
    fn segments(&self, from: SwitchId, to: SwitchId) -> Result<Arc<Segments>, RouteError> {
        if let Some(hit) = self
            .route_memo
            .segments
            .read()
            .expect("route memo poisoned")
            .get(&(from, to))
        {
            return Ok(Arc::clone(hit));
        }
        let found = Arc::new(self.enumerate_segments(from, to)?);
        Ok(Arc::clone(
            self.route_memo
                .segments
                .write()
                .expect("route memo poisoned")
                .entry((from, to))
                .or_insert(found),
        ))
    }

    /// Reverse BFS + shortest-path-DAG enumeration.
    fn enumerate_segments(&self, from: SwitchId, to: SwitchId) -> Result<Segments, RouteError> {
        // Distance to `to`, level by level over the in-link index, until
        // the level holding `from` is complete: the walk below only asks
        // about switches strictly nearer than that.
        let mut dist_to_goal = vec![u32::MAX; self.switches().len()];
        dist_to_goal[to.index()] = 0;
        let mut frontier = vec![to];
        while !frontier.is_empty() && dist_to_goal[from.index()] == u32::MAX {
            let mut next = Vec::new();
            for sw in frontier {
                for &lid in self.switch_in_links(sw) {
                    if let Endpoint::Switch(prev) = self.link(lid).from {
                        if dist_to_goal[prev.index()] == u32::MAX {
                            dist_to_goal[prev.index()] = dist_to_goal[sw.index()] + 1;
                            next.push(prev);
                        }
                    }
                }
            }
            frontier = next;
        }
        let hops = dist_to_goal[from.index()];
        if hops == u32::MAX {
            return Err(RouteError::Partitioned { from, to });
        }
        let mut links = Vec::new();
        self.dfs_segments(from, hops, &dist_to_goal, &mut Vec::new(), &mut links);
        Ok(Segments {
            hops: hops as usize,
            // Two NICs of one switch: the single empty segment.
            count: links.len().checked_div(hops as usize).unwrap_or(1),
            links,
        })
    }

    /// Append to `out` every path from `at` that strictly descends the
    /// distance-to-go (`remaining` is `at`'s).
    fn dfs_segments(
        &self,
        at: SwitchId,
        remaining: u32,
        dist_to_goal: &[u32],
        stack: &mut Vec<LinkId>,
        out: &mut Vec<LinkId>,
    ) {
        if remaining == 0 {
            out.extend_from_slice(stack);
            return;
        }
        // Links are visited in id order => deterministic enumeration.
        for &lid in self.switch_out_links(at) {
            if let Endpoint::Switch(peer) = self.link(lid).to {
                if dist_to_goal[peer.index()] == remaining - 1 {
                    stack.push(lid);
                    self.dfs_segments(peer, remaining - 1, dist_to_goal, stack, out);
                    stack.pop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TopologyBuilder;
    use crate::graph::SwitchRole;
    use crate::ids::PodId;
    use crate::presets::{self, SpineLeafConfig};
    use mccs_sim::Bandwidth;
    use proptest::prelude::*;

    /// The enumeration this module shipped before the in-link index and
    /// the switch-pair memo — a scan of every link per switch of the
    /// reverse BFS, full routes per NIC pair — kept as the reference the
    /// new one is checked against.
    impl Topology {
        fn reference_paths(&self, src: NicId, dst: NicId) -> Vec<Route> {
            let src_nic = self.nic(src);
            let dst_nic = self.nic(dst);
            let start = src_nic.switch;
            let goal = dst_nic.switch;

            if start == goal {
                // Same leaf: the only path is up and straight back down.
                return vec![Route {
                    src,
                    dst,
                    id: RouteId(0),
                    links: Arc::from(vec![src_nic.uplink, dst_nic.downlink]),
                }];
            }

            // BFS distances from `start` over switch-to-switch links.
            let n = self.switches().len();
            let mut dist = vec![u32::MAX; n];
            dist[start.index()] = 0;
            let mut frontier = vec![start];
            while !frontier.is_empty() && dist[goal.index()] == u32::MAX {
                let mut next = Vec::new();
                for sw in frontier {
                    for &lid in self.switch_out_links(sw) {
                        if let Endpoint::Switch(peer) = self.link(lid).to {
                            if dist[peer.index()] == u32::MAX {
                                dist[peer.index()] = dist[sw.index()] + 1;
                                next.push(peer);
                            }
                        }
                    }
                }
                frontier = next;
            }
            assert!(
                dist[goal.index()] != u32::MAX,
                "fabric partitioned: no switch path {start} -> {goal}"
            );

            // Walk every path that strictly descends the BFS distance-to-go.
            // Recomputing distance-from-goal gives us that descent test.
            let mut dist_to_goal = vec![u32::MAX; n];
            dist_to_goal[goal.index()] = 0;
            let mut frontier = vec![goal];
            while !frontier.is_empty() {
                let mut next = Vec::new();
                for sw in frontier {
                    // reverse traversal: find links INTO `sw`
                    for link in self.links() {
                        if link.to == Endpoint::Switch(sw) {
                            if let Endpoint::Switch(prev) = link.from {
                                if dist_to_goal[prev.index()] == u32::MAX {
                                    dist_to_goal[prev.index()] = dist_to_goal[sw.index()] + 1;
                                    next.push(prev);
                                }
                            }
                        }
                    }
                }
                frontier = next;
            }

            let total = dist[goal.index()];
            let mut routes = Vec::new();
            let mut stack: Vec<LinkId> = Vec::new();
            self.reference_dfs(
                start,
                goal,
                total,
                &dist_to_goal,
                &mut stack,
                &mut routes,
                src,
                dst,
            );
            for (i, r) in routes.iter_mut().enumerate() {
                r.id = RouteId(i as u32);
            }
            routes
        }

        #[allow(clippy::too_many_arguments)]
        fn reference_dfs(
            &self,
            at: SwitchId,
            goal: SwitchId,
            remaining: u32,
            dist_to_goal: &[u32],
            stack: &mut Vec<LinkId>,
            out: &mut Vec<Route>,
            src: NicId,
            dst: NicId,
        ) {
            if at == goal {
                let mut links = Vec::with_capacity(stack.len() + 2);
                links.push(self.nic(src).uplink);
                links.extend_from_slice(stack);
                links.push(self.nic(dst).downlink);
                out.push(Route {
                    src,
                    dst,
                    id: RouteId(0), // renumbered by caller
                    links: Arc::from(links),
                });
                return;
            }
            // Links are visited in id order => deterministic enumeration.
            for &lid in self.switch_out_links(at) {
                if let Endpoint::Switch(peer) = self.link(lid).to {
                    if dist_to_goal[peer.index()] == remaining - 1 {
                        stack.push(lid);
                        self.reference_dfs(
                            peer,
                            goal,
                            remaining - 1,
                            dist_to_goal,
                            stack,
                            out,
                            src,
                            dst,
                        );
                        stack.pop();
                    }
                }
            }
        }
    }

    /// `ecmp_route`'s choice as it was made over the reference path list.
    fn reference_ecmp(paths: &[Route], hash: u64) -> &Route {
        let mut z = hash.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        &paths[(z % paths.len() as u64) as usize]
    }

    /// 2 leaves x 2 spines, 1 host of 1 GPU per leaf.
    fn two_by_two() -> Topology {
        let mut b = TopologyBuilder::new();
        let pod = PodId(0);
        let r0 = b.add_rack(pod);
        let r1 = b.add_rack(pod);
        let l0 = b.add_switch(SwitchRole::Leaf, Some(r0));
        let l1 = b.add_switch(SwitchRole::Leaf, Some(r1));
        let s0 = b.add_switch(SwitchRole::Spine, None);
        let s1 = b.add_switch(SwitchRole::Spine, None);
        for l in [l0, l1] {
            for s in [s0, s1] {
                b.connect_switches(l, s, Bandwidth::gbps(50.0));
            }
        }
        b.add_host(r0, l0, 1, Bandwidth::gbps(100.0));
        b.add_host(r1, l1, 1, Bandwidth::gbps(100.0));
        b.build()
    }

    /// One leaf wired to one spine by two parallel links, a second leaf by
    /// one: parallel links are distinct equal-cost paths.
    fn parallel_links() -> Topology {
        let mut b = TopologyBuilder::new();
        let r0 = b.add_rack(PodId(0));
        let r1 = b.add_rack(PodId(0));
        let l0 = b.add_switch(SwitchRole::Leaf, Some(r0));
        let l1 = b.add_switch(SwitchRole::Leaf, Some(r1));
        let s = b.add_switch(SwitchRole::Spine, None);
        b.connect_switches(l0, s, Bandwidth::gbps(50.0));
        b.connect_switches(l0, s, Bandwidth::gbps(50.0));
        b.connect_switches(l1, s, Bandwidth::gbps(50.0));
        b.add_host(r0, l0, 2, Bandwidth::gbps(100.0));
        b.add_host(r1, l1, 1, Bandwidth::gbps(100.0));
        b.build()
    }

    /// Every route of a pair, through the public lookups.
    fn all_routes(t: &Topology, src: NicId, dst: NicId) -> Vec<Route> {
        (0..t.path_diversity(src, dst))
            .map(|i| t.pinned_route(src, dst, RouteId(i as u32)))
            .collect()
    }

    #[test]
    fn cross_rack_has_one_path_per_spine() {
        let t = two_by_two();
        let paths = all_routes(&t, NicId(0), NicId(1));
        assert_eq!(paths.len(), 2);
        for (i, p) in paths.iter().enumerate() {
            assert_eq!(p.links.len(), 4); // up, leaf->spine, spine->leaf, down
            assert_eq!(p.id, RouteId(i as u32));
            assert_eq!(p.links[0], t.nic(NicId(0)).uplink);
            assert_eq!(*p.links.last().expect("nonempty"), t.nic(NicId(1)).downlink);
        }
        assert_ne!(paths[0].links, paths[1].links);
    }

    #[test]
    fn same_leaf_single_path() {
        let t = presets::single_switch(2, 1, Bandwidth::gbps(50.0));
        let paths = all_routes(&t, NicId(0), NicId(1));
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].links.len(), 2);
    }

    #[test]
    fn ecmp_route_is_deterministic_and_spreads() {
        let t = two_by_two();
        let a = t.ecmp_route(NicId(0), NicId(1), 1);
        let b = t.ecmp_route(NicId(0), NicId(1), 1);
        assert_eq!(a, b);
        let chosen: std::collections::BTreeSet<RouteId> = (0..32u64)
            .map(|h| t.ecmp_route(NicId(0), NicId(1), h).id)
            .collect();
        assert_eq!(chosen.len(), 2, "hash never spread across both paths");
    }

    #[test]
    fn pinned_route_selects_exactly() {
        let t = two_by_two();
        let p = t.pinned_route(NicId(0), NicId(1), RouteId(1));
        assert_eq!(p.id, RouteId(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pinned_route_rejects_bad_id() {
        let t = two_by_two();
        t.pinned_route(NicId(0), NicId(1), RouteId(99));
    }

    #[test]
    #[should_panic(expected = "itself")]
    fn no_self_route() {
        let t = two_by_two();
        t.path_diversity(NicId(0), NicId(0));
    }

    #[test]
    fn errors_are_typed() {
        let t = two_by_two();
        assert_eq!(
            t.try_route_set(NicId(0), NicId(0)).unwrap_err(),
            RouteError::SelfRoute
        );
        let set = t.try_route_set(NicId(0), NicId(1)).expect("connected");
        let out_of_range = RouteError::OutOfRange {
            id: RouteId(2),
            diversity: 2,
            src: NicId(0),
            dst: NicId(1),
        };
        assert_eq!(set.try_route(RouteId(2)).unwrap_err(), out_of_range);
        assert_eq!(set.try_links(RouteId(2)).err(), Some(out_of_range));
        assert_eq!(
            out_of_range.to_string(),
            "route RouteId(2) out of range: 2 equal-cost paths nic0->nic1"
        );

        // Two leaves joined one way only: the reverse direction is cut,
        // and the failure is not memoized as a route set.
        let mut b = TopologyBuilder::new();
        let r0 = b.add_rack(PodId(0));
        let r1 = b.add_rack(PodId(0));
        let l0 = b.add_switch(SwitchRole::Leaf, Some(r0));
        let l1 = b.add_switch(SwitchRole::Leaf, Some(r1));
        b.connect_switches_oneway(l0, l1, Bandwidth::gbps(50.0));
        b.add_host(r0, l0, 1, Bandwidth::gbps(50.0));
        b.add_host(r1, l1, 1, Bandwidth::gbps(50.0));
        let t = b.build();
        assert_eq!(t.path_diversity(NicId(0), NicId(1)), 1);
        let cut = t.try_route_set(NicId(1), NicId(0)).unwrap_err();
        assert_eq!(cut, RouteError::Partitioned { from: l1, to: l0 });
        assert_eq!(
            cut.to_string(),
            "fabric partitioned: no switch path sw1 -> sw0"
        );
        assert_eq!(t.route_memo.segments.read().expect("memo").len(), 1);
    }

    #[test]
    fn memo_is_per_switch_pair() {
        // Every NIC pair across 4 racks of the §6.5 fabric (128 NICs,
        // 16,256 ordered pairs) shares the 4 x 4 switch-pair entries.
        let t = presets::spine_leaf(&SpineLeafConfig::paper_large_scale());
        let nics: Vec<NicId> = t
            .nics()
            .iter()
            .filter(|n| t.rack_of(n.host).index() < 4)
            .map(|n| n.id)
            .collect();
        assert_eq!(nics.len(), 128);
        for &a in &nics {
            for &b in &nics {
                if a != b {
                    let same_leaf = t.nic(a).switch == t.nic(b).switch;
                    let want = if same_leaf { 1 } else { 16 };
                    assert_eq!(t.path_diversity(a, b), want);
                }
            }
        }
        let memo = t.route_memo.segments.read().expect("memo");
        assert!(memo.len() <= 16, "{} memo entries", memo.len());
        // 12 cross-leaf entries of 16 two-link segments, 4 empty ones.
        let links: usize = memo.values().map(|s| s.links.len()).sum();
        assert_eq!(links, 12 * 16 * 2);
    }

    #[test]
    fn ring_topology_min_hop_only() {
        // 4 switches in a ring; between adjacent switches the 1-hop
        // direction is the unique equal-cost path (the 3-hop way around is
        // longer, so ECMP never uses it).
        let g = Bandwidth::gbps(100.0);
        let t = presets::switch_ring(4, 1, g, g);
        let paths = all_routes(&t, NicId(0), NicId(1));
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].links.len(), 3); // up, sw0->sw1, down

        // Opposite corners: both directions are 2 switch hops -> 2 paths.
        assert_eq!(t.path_diversity(NicId(0), NicId(2)), 2);
    }

    #[test]
    fn parallel_links_are_distinct_paths() {
        let t = parallel_links();
        assert_eq!(t.path_diversity(NicId(0), NicId(2)), 2);
        assert_eq!(t.path_diversity(NicId(2), NicId(0)), 2);
        assert_eq!(t.path_diversity(NicId(0), NicId(1)), 1);
    }

    /// For every ordered NIC pair: same count, order, link lists and ids
    /// as the link-scan reference; the link view yields exactly the pinned
    /// route's links; ECMP picks what it picked over the reference list.
    fn assert_matches_reference(t: &Topology, hash: u64) {
        for a in t.nics() {
            for b in t.nics() {
                let (src, dst) = (a.id, b.id);
                if src == dst {
                    continue;
                }
                let want = t.reference_paths(src, dst);
                let set = t.route_set(src, dst);
                assert_eq!(set.diversity(), want.len(), "{src}->{dst}");
                assert_eq!(t.path_diversity(src, dst), want.len());
                assert!(set.ids().eq(want.iter().map(|r| r.id)));
                for r in &want {
                    assert_eq!(&t.pinned_route(src, dst, r.id), r);
                    assert!(set.links(r.id).eq(r.links.iter().copied()));
                }
                assert_eq!(&t.ecmp_route(src, dst, hash), reference_ecmp(&want, hash));
            }
        }
    }

    #[test]
    fn fixed_fabrics_match_the_link_scan_reference() {
        let g = Bandwidth::gbps(100.0);
        for t in [
            presets::switch_ring(4, 1, g, g),
            presets::switch_ring(5, 2, g, g),
            parallel_links(),
            two_by_two(),
        ] {
            for hash in [0, 1, u64::MAX] {
                assert_matches_reference(&t, hash);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn spine_leaf_fabrics_match_the_link_scan_reference(
            spines in 1usize..=8,
            leaves in 2usize..=12,
            hosts_per_leaf in 1usize..=4,
            gpus_per_host in 1usize..=2,
            hash in any::<u64>(),
        ) {
            let t = presets::spine_leaf(&SpineLeafConfig {
                spines,
                leaves,
                hosts_per_leaf,
                gpus_per_host,
                nic_bandwidth: Bandwidth::gbps(100.0),
                leaf_spine_bandwidth: Bandwidth::gbps(100.0),
            });
            assert_matches_reference(&t, hash);
            let memo = t.route_memo.segments.read().expect("memo");
            prop_assert!(memo.len() <= leaves * leaves);
        }
    }
}
