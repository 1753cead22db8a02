//! Deterministic routing: all-shortest-paths next-hop tables with
//! rank-select ECMP.
//!
//! For every destination host a reverse BFS labels each node with its hop
//! distance, and every outgoing link that decreases the distance by one
//! is an equal-cost candidate. ECMP picks among candidates by *rank in
//! canonical (link-id) order*, indexed by a stable per-flow hash — never
//! by position in the stored list. Storage order therefore cannot leak
//! into any simulation output: [`RouteTable::permute_equal_cost`]
//! shuffles every candidate list and is proptested to leave every routed
//! path — and the fleet report bytes — unchanged.

use crate::topo::{LinkId, NodeId, Topology};

/// Hop distance marker for "unreachable".
const UNREACHABLE: u16 = u16::MAX;

/// How a [`RouteTable`] picks among equal-cost candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteMode {
    /// Per-flow ECMP: rank = flow hash modulo candidate count, varied per
    /// hop so one flow doesn't collapse onto one core group.
    Ecmp,
    /// Topology-aware deterministic shortest path: always the rank-0
    /// (lowest link-id) candidate. No load balancing; useful as a
    /// baseline and for debugging.
    CanonicalShortest,
}

/// FNV-1a over the flow 5-tuple stand-in `(src, dst, seq)`; the stable
/// hash every ECMP decision keys on.
#[must_use]
pub(crate) fn flow_hash(src: NodeId, dst: NodeId, seq: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in src.0.to_le_bytes().into_iter().chain(dst.0.to_le_bytes()).chain(seq.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// All-shortest-paths next-hop tables toward every host.
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// `dist[node * num_hosts + hpos]`: hops from `node` to host `hpos`.
    dist: Vec<u16>,
    /// Equal-cost next-hop links of every `(node, hpos)` slot, back to
    /// back in slot order, each slot's in out-link order. Selection is
    /// rank-based, so the order within a slot is semantically inert.
    next: Vec<LinkId>,
    /// Slot `i` owns `next[next_start[i]..next_start[i + 1]]`.
    next_start: Vec<u32>,
    /// Host position per node id (`u32::MAX` for non-hosts).
    host_pos: Vec<u32>,
    num_hosts: usize,
}

impl RouteTable {
    /// Builds next-hop tables by one reverse BFS per host.
    #[must_use]
    pub(crate) fn shortest_paths(topo: &Topology) -> Self {
        let n = topo.num_nodes();
        let hosts = topo.hosts();
        let num_hosts = hosts.len();
        // Reverse adjacency: in_links[m] = links whose dst is m.
        let mut in_links: Vec<Vec<LinkId>> = vec![Vec::new(); n];
        for (i, l) in topo.links().iter().enumerate() {
            in_links[l.dst.index()].push(LinkId(i as u32));
        }
        let mut host_pos = vec![u32::MAX; n];
        for (p, &h) in hosts.iter().enumerate() {
            host_pos[h.index()] = p as u32;
        }
        let mut dist = vec![UNREACHABLE; n * num_hosts];
        let mut queue: Vec<NodeId> = Vec::with_capacity(n);
        for (p, &h) in hosts.iter().enumerate() {
            dist[h.index() * num_hosts + p] = 0;
            queue.clear();
            queue.push(h);
            let mut head = 0;
            while head < queue.len() {
                let v = queue[head];
                head += 1;
                let dv = dist[v.index() * num_hosts + p];
                for &lid in &in_links[v.index()] {
                    let u = topo.link(lid).src;
                    let slot = u.index() * num_hosts + p;
                    if dist[slot] == UNREACHABLE {
                        dist[slot] = dv + 1;
                        queue.push(u);
                    }
                }
            }
        }
        let mut next = Vec::new();
        let mut next_start = Vec::with_capacity(n * num_hosts + 1);
        for u in 0..n {
            for p in 0..num_hosts {
                next_start.push(u32::try_from(next.len()).unwrap_or(u32::MAX));
                let du = dist[u * num_hosts + p];
                for &lid in topo.out_links(NodeId(u as u32)) {
                    let dv = dist[topo.link(lid).dst.index() * num_hosts + p];
                    if du != UNREACHABLE && dv != UNREACHABLE && dv + 1 == du {
                        next.push(lid);
                    }
                }
            }
        }
        next_start.push(u32::try_from(next.len()).unwrap_or(u32::MAX));
        Self { dist, next, next_start, host_pos, num_hosts }
    }

    /// The equal-cost next hops of slot `node * num_hosts + hpos`.
    fn candidates(&self, slot: usize) -> &[LinkId] {
        &self.next[self.next_start[slot] as usize..self.next_start[slot + 1] as usize]
    }

    fn pos(&self, dst: NodeId) -> Option<usize> {
        let p = *self.host_pos.get(dst.index())?;
        (p != u32::MAX).then_some(p as usize)
    }

    /// The candidate with the `rank`-th smallest link id, found by
    /// counting — no sort, no dependence on storage order.
    fn select_rank(cands: &[LinkId], rank: usize) -> LinkId {
        debug_assert!(rank < cands.len());
        let mut pick = cands[0];
        // Find the (rank+1)-th smallest: repeatedly take the minimum
        // strictly above the previous pick. Candidate lists are a few
        // entries (≤ k/2), so the quadratic scan is cheaper than sorting.
        let mut floor: Option<LinkId> = None;
        for _ in 0..=rank {
            let mut best: Option<LinkId> = None;
            for &c in cands {
                if floor.is_some_and(|f| c <= f) {
                    continue;
                }
                if best.is_none_or(|b| c < b) {
                    best = Some(c);
                }
            }
            match best {
                Some(b) => {
                    pick = b;
                    floor = Some(b);
                }
                None => break,
            }
        }
        pick
    }

    /// The full src→dst path as a link sequence, ECMP-selected by
    /// `hash` (or rank-0 everywhere under
    /// [`RouteMode::CanonicalShortest`]). Returns an empty path when
    /// `src == dst` and `None` when no route exists.
    #[must_use]
    pub fn path(
        &self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        hash: u64,
        mode: RouteMode,
    ) -> Option<Vec<LinkId>> {
        let p = self.pos(dst)?;
        let mut d = self.dist[src.index() * self.num_hosts + p];
        if d == UNREACHABLE {
            return None;
        }
        let mut path = Vec::with_capacity(d as usize);
        let mut at = src;
        let mut hop = 0u32;
        while at != dst {
            let cands = self.candidates(at.index() * self.num_hosts + p);
            debug_assert!(!cands.is_empty(), "distance table promised a next hop");
            let rank = match mode {
                RouteMode::CanonicalShortest => 0,
                // Rotate the hash per hop so a flow spreads independently
                // at each ECMP stage (distinct per-switch hash seeds).
                RouteMode::Ecmp => (hash.rotate_left(hop * 11) % cands.len() as u64) as usize,
            };
            let lid = Self::select_rank(cands, rank);
            at = topo.link(lid).dst;
            path.push(lid);
            hop += 1;
            debug_assert!(d > 0);
            d -= 1;
        }
        Some(path)
    }

    /// Test hook: deterministically shuffles the *storage order* of every
    /// equal-cost candidate list (SplitMix64 from `seed`). Because
    /// selection is rank-based over link ids, every [`RouteTable::path`]
    /// result must be identical afterwards — the property that pins ECMP
    /// determinism against permutations of equal-cost paths.
    pub fn permute_equal_cost(&mut self, seed: u64) {
        let mut state = seed;
        let mut mix = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for bounds in self.next_start.windows(2) {
            let cands = &mut self.next[bounds[0] as usize..bounds[1] as usize];
            // Fisher–Yates.
            for i in (1..cands.len()).rev() {
                let j = (mix() % (i as u64 + 1)) as usize;
                cands.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::LinkSpec;

    impl RouteTable {
        /// Hop distance from `node` to host `dst`, or `None` if unreachable
        /// or `dst` is not a host.
        pub(crate) fn distance(&self, node: NodeId, dst: NodeId) -> Option<usize> {
            let p = self.pos(dst)?;
            let d = self.dist[node.index() * self.num_hosts + p];
            (d != UNREACHABLE).then_some(d as usize)
        }
    }

    fn tree() -> (Topology, RouteTable) {
        let t = Topology::fat_tree(4, 2, LinkSpec::default_datacenter());
        let r = RouteTable::shortest_paths(&t);
        (t, r)
    }

    #[test]
    fn distances_match_fat_tree_structure() {
        let (t, r) = tree();
        let hosts = t.hosts();
        // Same rack: host → edge → host = 2 hops.
        assert_eq!(r.distance(hosts[0], hosts[1]), Some(2));
        // Same pod, different rack: up to agg and back = 4 hops.
        assert_eq!(r.distance(hosts[0], hosts[2]), Some(4));
        // Different pod: through core = 6 hops.
        assert_eq!(r.distance(hosts[0], hosts[4]), Some(6));
        assert_eq!(r.distance(hosts[0], hosts[0]), Some(0));
    }

    #[test]
    fn paths_are_valid_walks() {
        let (t, r) = tree();
        let hosts = t.hosts();
        for (i, &s) in hosts.iter().enumerate() {
            for (j, &d) in hosts.iter().enumerate() {
                let h = flow_hash(s, d, (i * 31 + j) as u64);
                let path = r.path(&t, s, d, h, RouteMode::Ecmp).expect("route");
                assert_eq!(path.len(), r.distance(s, d).expect("dist"));
                let mut at = s;
                for lid in path {
                    let l = t.link(lid);
                    assert_eq!(l.src, at);
                    at = l.dst;
                }
                assert_eq!(at, d);
            }
        }
    }

    #[test]
    fn ecmp_spreads_cross_pod_flows() {
        let (t, r) = tree();
        let hosts = t.hosts();
        let (s, d) = (hosts[0], hosts[15]);
        let mut first_hops = std::collections::BTreeSet::new();
        for seq in 0..64u64 {
            let path = r.path(&t, s, d, flow_hash(s, d, seq), RouteMode::Ecmp).expect("route");
            // Second link leaves the edge switch: the first ECMP stage.
            first_hops.insert(path[1]);
        }
        assert!(first_hops.len() > 1, "ECMP never spread across the {} equal paths", first_hops.len());
    }

    #[test]
    fn canonical_mode_ignores_hash() {
        let (t, r) = tree();
        let hosts = t.hosts();
        let a = r.path(&t, hosts[0], hosts[9], 1, RouteMode::CanonicalShortest);
        let b = r.path(&t, hosts[0], hosts[9], u64::MAX, RouteMode::CanonicalShortest);
        assert_eq!(a, b);
    }

    #[test]
    fn permuting_equal_cost_storage_changes_nothing() {
        let (t, r0) = tree();
        let hosts = t.hosts();
        for seed in [1u64, 0xDEAD_BEEF, u64::MAX] {
            let mut r = r0.clone();
            r.permute_equal_cost(seed);
            for (i, &s) in hosts.iter().enumerate() {
                for (j, &d) in hosts.iter().enumerate() {
                    for seq in 0..4u64 {
                        let h = flow_hash(s, d, seq.wrapping_add((i * 97 + j) as u64));
                        assert_eq!(
                            r0.path(&t, s, d, h, RouteMode::Ecmp),
                            r.path(&t, s, d, h, RouteMode::Ecmp)
                        );
                    }
                }
            }
        }
    }
}
