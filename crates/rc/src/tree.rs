//! Rooted RC trees.

/// Index of a node within an [`RcTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RcNodeId(u32);

impl RcNodeId {
    /// Dense index, for indexing the per-node vectors the analyses return.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an id from a dense index; the caller is responsible
    /// for the index having come from the same tree.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        RcNodeId(index as u32)
    }
}

#[derive(Debug, Clone)]
struct RcNode {
    parent: Option<RcNodeId>,
    /// Resistance of the edge to the parent (for the root: the driver's
    /// resistance to the supply), kΩ.
    r: f64,
    /// Capacitance to ground at this node, pF.
    c: f64,
}

/// A rooted RC tree: the root is the driven stage output, the root's edge
/// resistance is the driver's effective resistance, and children hang off
/// through pass-transistor or interconnect resistances.
///
/// Node 0 is always the root; nodes must be added parent-first (the natural
/// order when walking a netlist downstream), which the analyses exploit to
/// run in one or two passes.
#[derive(Debug, Clone)]
pub struct RcTree {
    nodes: Vec<RcNode>,
}

impl RcTree {
    /// Creates a tree whose root is driven through `driver_r` kΩ. The root
    /// starts with zero capacitance; use [`RcTree::add_cap`] to load it.
    pub fn new(driver_r: f64) -> Self {
        assert!(
            driver_r.is_finite() && driver_r >= 0.0,
            "driver resistance must be non-negative, got {driver_r}"
        );
        RcTree {
            nodes: vec![RcNode {
                parent: None,
                r: driver_r,
                c: 0.0,
            }],
        }
    }

    /// The root node (the driven stage output).
    #[inline]
    pub fn root(&self) -> RcNodeId {
        RcNodeId(0)
    }

    /// Number of nodes including the root.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is just a root (never true: the root always exists).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Adds a node under `parent`, connected by `r` kΩ, loaded with `c` pF.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is negative or non-finite, or if `parent` is
    /// not in this tree.
    pub fn add_child(&mut self, parent: RcNodeId, r: f64, c: f64) -> RcNodeId {
        assert!(r.is_finite() && r >= 0.0, "edge resistance must be >= 0");
        assert!(c.is_finite() && c >= 0.0, "node capacitance must be >= 0");
        assert!(parent.index() < self.nodes.len(), "parent not in tree");
        let id = RcNodeId(self.nodes.len() as u32);
        self.nodes.push(RcNode {
            parent: Some(parent),
            r,
            c,
        });
        id
    }

    /// Adds capacitance at an existing node.
    ///
    /// # Panics
    ///
    /// Panics if `c` is negative or non-finite.
    pub fn add_cap(&mut self, node: RcNodeId, c: f64) {
        assert!(c.is_finite() && c >= 0.0, "capacitance must be >= 0");
        self.nodes[node.index()].c += c;
    }

    /// The parent of a node (`None` for the root).
    #[inline]
    pub fn parent(&self, node: RcNodeId) -> Option<RcNodeId> {
        self.nodes[node.index()].parent
    }

    /// Resistance of the edge from `node` to its parent (for the root, the
    /// driver resistance), kΩ.
    #[inline]
    pub fn edge_r(&self, node: RcNodeId) -> f64 {
        self.nodes[node.index()].r
    }

    /// Capacitance at `node`, pF.
    #[inline]
    pub fn cap(&self, node: RcNodeId) -> f64 {
        self.nodes[node.index()].c
    }

    /// Iterates node ids in insertion (parent-first) order.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = RcNodeId> + '_ {
        (0..self.nodes.len()).map(|i| RcNodeId(i as u32))
    }

    /// Total capacitance of the tree, pF.
    pub fn total_cap(&self) -> f64 {
        self.nodes.iter().map(|n| n.c).sum()
    }

    /// Resistance of the path from the supply to `node` (including the
    /// driver resistance), kΩ — the `R_ii` of the bounds literature.
    pub fn path_r(&self, node: RcNodeId) -> f64 {
        let mut r = 0.0;
        let mut cur = Some(node);
        while let Some(n) = cur {
            r += self.nodes[n.index()].r;
            cur = self.nodes[n.index()].parent;
        }
        r
    }

    /// Per-node subtree capacitance (node's own cap plus everything below),
    /// indexed by [`RcNodeId::index`]. One reverse pass over the
    /// parent-first layout.
    pub fn subtree_caps(&self) -> Vec<f64> {
        let mut sub: Vec<f64> = self.nodes.iter().map(|n| n.c).collect();
        for i in (1..self.nodes.len()).rev() {
            let p = self.nodes[i].parent.expect("non-root has parent").index();
            sub[p] += sub[i];
        }
        sub
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_has_driver_resistance() {
        let t = RcTree::new(7.5);
        assert_eq!(t.edge_r(t.root()), 7.5);
        assert_eq!(t.len(), 1);
        assert_eq!(t.parent(t.root()), None);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_driver_rejected() {
        let _ = RcTree::new(-1.0);
    }

    #[test]
    fn path_r_accumulates() {
        let mut t = RcTree::new(10.0);
        let a = t.add_child(t.root(), 5.0, 0.1);
        let b = t.add_child(a, 3.0, 0.1);
        assert!((t.path_r(t.root()) - 10.0).abs() < 1e-12);
        assert!((t.path_r(a) - 15.0).abs() < 1e-12);
        assert!((t.path_r(b) - 18.0).abs() < 1e-12);
    }

    #[test]
    fn subtree_caps_sum_bottom_up() {
        let mut t = RcTree::new(1.0);
        t.add_cap(t.root(), 0.5);
        let a = t.add_child(t.root(), 1.0, 0.2);
        let b = t.add_child(a, 1.0, 0.3);
        let c = t.add_child(t.root(), 1.0, 0.4);
        let sub = t.subtree_caps();
        assert!((sub[b.index()] - 0.3).abs() < 1e-12);
        assert!((sub[a.index()] - 0.5).abs() < 1e-12);
        assert!((sub[c.index()] - 0.4).abs() < 1e-12);
        assert!((sub[t.root().index()] - 1.4).abs() < 1e-12);
        assert!((t.total_cap() - 1.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "parent not in tree")]
    fn bad_parent_panics() {
        let mut t = RcTree::new(1.0);
        let a = t.add_child(t.root(), 1.0, 0.1);
        let mut other = RcTree::new(1.0);
        let _ = a;
        // Construct an id beyond `other`'s length by adding to `t` first.
        let far = t.add_child(t.root(), 1.0, 0.1);
        let _ = t.add_child(far, 1.0, 0.1);
        let bogus = t.ids().last().unwrap();
        other.add_child(bogus, 1.0, 0.1);
    }
}
