//! Datacenter topology builders: k-ary fat-trees and leaf-spine racks.
//!
//! A topology is a flat node table plus a table of *directed* links (a
//! cable is two directed links, one per direction, each with its own
//! queue). Builders assign node ids deterministically — switch tiers
//! first, hosts last, hosts grouped rack-by-rack — so a `(k,
//! hosts_per_edge)` pair names exactly one graph and every downstream
//! artifact is byte-reproducible.

use inca_events::SimTime;
use inca_units::Bandwidth;

/// Index of a node (switch or host) in the topology's node table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's position in the node table.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of a directed link in the topology's link table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The link's position in the link table.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a node is — determines which tier its links belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeKind {
    /// An endpoint: a dispatcher or an accelerator chip.
    Host,
    /// A top-of-rack / edge switch (a *leaf* in leaf-spine terms).
    Edge,
    /// A pod aggregation switch (fat-tree middle tier).
    Agg,
    /// A core switch (a *spine* in leaf-spine terms).
    Core,
}

/// Which layer of the fabric a link sits in, for per-tier utilization
/// aggregation in the observability output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkTier {
    /// Host ↔ edge-switch links (the incast bottleneck at dispatchers).
    Access,
    /// Edge ↔ aggregation links inside a pod.
    Aggregation,
    /// Aggregation ↔ core (or leaf ↔ spine) links.
    Core,
}

impl LinkTier {
    /// Stable snake_case name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LinkTier::Access => "access",
            LinkTier::Aggregation => "aggregation",
            LinkTier::Core => "core",
        }
    }

    /// The tier's slot in per-tier accumulators, in [`ALL_TIERS`] order.
    #[must_use]
    pub fn slot(self) -> usize {
        match self {
            LinkTier::Access => 0,
            LinkTier::Aggregation => 1,
            LinkTier::Core => 2,
        }
    }
}

/// Number of [`LinkTier`] variants (size of per-tier accumulators).
pub const TIER_COUNT: usize = 3;

/// All tiers, in accumulator-slot order.
pub const ALL_TIERS: [LinkTier; TIER_COUNT] = [LinkTier::Access, LinkTier::Aggregation, LinkTier::Core];

/// Physical parameters shared by every link a builder lays.
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    /// Serialization rate of the link.
    pub bandwidth: Bandwidth,
    /// One-way propagation + switching latency per hop, in virtual ns.
    pub latency_ns: SimTime,
}

impl LinkSpec {}

/// One directed link: `src → dst` with the builder's [`LinkSpec`].
#[derive(Debug, Clone, Copy)]
pub struct LinkDef {
    /// Transmitting node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Bandwidth and per-hop latency.
    pub spec: LinkSpec,
    /// Fabric tier, derived from the endpoint kinds.
    pub tier: LinkTier,
}

/// An immutable directed graph of switches and hosts.
#[derive(Debug, Clone)]
pub struct Topology {
    kinds: Vec<NodeKind>,
    links: Vec<LinkDef>,
    /// Outgoing link ids per node, in insertion order.
    out: Vec<Vec<LinkId>>,
    /// Host node ids in rack order.
    hosts: Vec<NodeId>,
    racks: usize,
    name: String,
}

impl Topology {
    fn empty(name: String) -> Self {
        Self { kinds: Vec::new(), links: Vec::new(), out: Vec::new(), hosts: Vec::new(), racks: 0, name }
    }

    fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(u32::try_from(self.kinds.len()).unwrap_or(u32::MAX));
        assert!(id.0 != u32::MAX, "topology exceeds u32 node ids");
        self.kinds.push(kind);
        self.out.push(Vec::new());
        id
    }

    fn add_host(&mut self) -> NodeId {
        let id = self.add_node(NodeKind::Host);
        self.hosts.push(id);
        id
    }

    fn tier_between(&self, a: NodeId, b: NodeId) -> LinkTier {
        match (self.kinds[a.index()], self.kinds[b.index()]) {
            (NodeKind::Host, _) | (_, NodeKind::Host) => LinkTier::Access,
            (NodeKind::Edge, NodeKind::Agg) | (NodeKind::Agg, NodeKind::Edge) => LinkTier::Aggregation,
            _ => LinkTier::Core,
        }
    }

    /// Lays a full-duplex cable as two directed links.
    fn add_duplex(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        let tier = self.tier_between(a, b);
        for (src, dst) in [(a, b), (b, a)] {
            let id = LinkId(u32::try_from(self.links.len()).unwrap_or(u32::MAX));
            assert!(id.0 != u32::MAX, "topology exceeds u32 link ids");
            self.links.push(LinkDef { src, dst, spec, tier });
            self.out[src.index()].push(id);
        }
    }

    /// A k-ary fat-tree: `k` pods of `k/2` edge + `k/2` aggregation
    /// switches, `(k/2)²` core switches, and `hosts_per_edge` hosts per
    /// edge switch — `k²/2 × hosts_per_edge` hosts total. Each edge
    /// switch is one *rack*. The classic full-bisection tree has
    /// `hosts_per_edge = k/2`; a larger value oversubscribes the access
    /// tier, which is exactly the incast regime the fleet sweep probes.
    ///
    /// # Panics
    ///
    /// Panics if `k` is odd, `k < 2`, or `hosts_per_edge == 0`.
    #[must_use]
    pub fn fat_tree(k: usize, hosts_per_edge: usize, spec: LinkSpec) -> Self {
        assert!(k >= 2 && k.is_multiple_of(2), "fat-tree radix must be even and >= 2");
        assert!(hosts_per_edge > 0, "fat-tree needs hosts");
        let half = k / 2;
        let mut t = Self::empty(format!("fat_tree(k={k}, hosts_per_edge={hosts_per_edge})"));
        let cores: Vec<NodeId> = (0..half * half).map(|_| t.add_node(NodeKind::Core)).collect();
        let mut rack = 0usize;
        for _pod in 0..k {
            let aggs: Vec<NodeId> = (0..half).map(|_| t.add_node(NodeKind::Agg)).collect();
            let edges: Vec<NodeId> = (0..half).map(|_| t.add_node(NodeKind::Edge)).collect();
            // Every edge switch reaches every aggregation switch in its pod.
            for &e in &edges {
                for &a in &aggs {
                    t.add_duplex(e, a, spec);
                }
            }
            // The j-th aggregation switch of every pod reaches core group j.
            for (j, &a) in aggs.iter().enumerate() {
                for m in 0..half {
                    t.add_duplex(a, cores[j * half + m], spec);
                }
            }
            for &e in &edges {
                for _ in 0..hosts_per_edge {
                    let h = t.add_host();
                    t.add_duplex(h, e, spec);
                }
                rack += 1;
            }
        }
        t.racks = rack;
        t
    }

    /// A two-tier leaf-spine fabric: every leaf (rack) switch connects to
    /// every spine, `hosts_per_leaf` hosts hang off each leaf.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn leaf_spine(leaves: usize, spines: usize, hosts_per_leaf: usize, spec: LinkSpec) -> Self {
        assert!(leaves > 0 && spines > 0 && hosts_per_leaf > 0, "leaf-spine dimensions must be positive");
        let mut t = Self::empty(format!(
            "leaf_spine(leaves={leaves}, spines={spines}, hosts_per_leaf={hosts_per_leaf})"
        ));
        let spine_ids: Vec<NodeId> = (0..spines).map(|_| t.add_node(NodeKind::Core)).collect();
        for _ in 0..leaves {
            let leaf = t.add_node(NodeKind::Edge);
            for &s in &spine_ids {
                t.add_duplex(leaf, s, spec);
            }
            for _ in 0..hosts_per_leaf {
                let h = t.add_host();
                t.add_duplex(h, leaf, spec);
            }
        }
        t.racks = leaves;
        t
    }

    /// Human-readable builder signature (embedded in reports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total node count (switches + hosts).
    #[must_use]
    pub(crate) fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Total directed link count.
    #[must_use]
    pub(crate) fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Host node ids, rack-by-rack in builder order.
    #[must_use]
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// Number of racks (edge/leaf switches with hosts).
    #[must_use]
    pub fn racks(&self) -> usize {
        self.racks
    }

    /// The directed link table.
    #[must_use]
    pub fn links(&self) -> &[LinkDef] {
        &self.links
    }

    /// A directed link's definition.
    #[must_use]
    pub(crate) fn link(&self, id: LinkId) -> &LinkDef {
        &self.links[id.index()]
    }

    /// Outgoing link ids of `node`, in builder insertion order.
    #[must_use]
    pub(crate) fn out_links(&self, node: NodeId) -> &[LinkId] {
        &self.out[node.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LinkSpec {
        /// A typical 40 Gb/s datacenter link with 500 ns per-hop latency.
        pub(crate) fn default_datacenter() -> Self {
            Self { bandwidth: Bandwidth::from_gbps(40.0), latency_ns: 500 }
        }
    }

    #[test]
    fn fat_tree_dimensions() {
        // k=4 classic: 4 core, 8 agg, 8 edge, hosts_per_edge=2 → 16 hosts.
        let t = Topology::fat_tree(4, 2, LinkSpec::default_datacenter());
        assert_eq!(t.hosts().len(), 16);
        assert_eq!(t.racks(), 8);
        assert_eq!(t.num_nodes(), 4 + 8 + 8 + 16);
        // Directed links: duplex cables × 2. Cables: edge-agg 4 per pod ×4
        // pods, agg-core 2 per agg ×8 aggs, host-edge 16.
        assert_eq!(t.num_links(), 2 * (16 + 16 + 16));
        // Every host hangs off exactly one edge switch.
        for &h in t.hosts() {
            assert_eq!(t.kinds[h.index()], NodeKind::Host);
            assert_eq!(t.out_links(h).len(), 1);
            let up = t.link(t.out_links(h)[0]);
            assert_eq!(t.kinds[up.dst.index()], NodeKind::Edge);
            assert_eq!(up.tier, LinkTier::Access);
        }
    }

    #[test]
    fn fat_tree_rack_grouping() {
        let t = Topology::fat_tree(4, 3, LinkSpec::default_datacenter());
        assert_eq!(t.hosts().len(), 24);
        // Hosts come in rack-contiguous groups of hosts_per_edge: two
        // hosts share an edge switch exactly when they share a group.
        let edge = |h: NodeId| t.link(t.out_links(h)[0]).dst;
        for (i, &a) in t.hosts().iter().enumerate() {
            for (j, &b) in t.hosts().iter().enumerate() {
                assert_eq!(edge(a) == edge(b), i / 3 == j / 3, "hosts {i} and {j}");
            }
        }
    }

    #[test]
    fn leaf_spine_dimensions() {
        let t = Topology::leaf_spine(4, 2, 8, LinkSpec::default_datacenter());
        assert_eq!(t.hosts().len(), 32);
        assert_eq!(t.racks(), 4);
        assert_eq!(t.num_nodes(), 2 + 4 + 32);
        assert_eq!(t.num_links(), 2 * (4 * 2 + 32));
        let spine_links = t.links().iter().filter(|l| l.tier == LinkTier::Core).count();
        assert_eq!(spine_links, 2 * 8);
    }

    #[test]
    fn tier_slots_follow_all_tiers() {
        for (i, tier) in ALL_TIERS.into_iter().enumerate() {
            assert_eq!(tier.slot(), i);
        }
    }

    #[test]
    fn tiers_classify_by_endpoints() {
        let t = Topology::fat_tree(4, 1, LinkSpec::default_datacenter());
        for l in t.links() {
            let expect = match (t.kinds[l.src.index()], t.kinds[l.dst.index()]) {
                (NodeKind::Host, _) | (_, NodeKind::Host) => LinkTier::Access,
                (NodeKind::Edge, NodeKind::Agg) | (NodeKind::Agg, NodeKind::Edge) => LinkTier::Aggregation,
                _ => LinkTier::Core,
            };
            assert_eq!(l.tier, expect);
        }
    }
}
