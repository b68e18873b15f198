//! Channel-connected components ("stages").
//!
//! Two nodes belong to the same stage when a transistor channel connects
//! them; the rails do not merge stages (everything touches VDD/GND). A
//! stage is the unit TV analyzed electrically: within a stage charge moves
//! through channels, between stages only through gates.

use tv_netlist::Netlist;

/// The number of stages: components of the non-rail nodes with at least
/// one channel device, joined by channels. Gate-only and isolated nodes
/// are in no stage, and the rails never merge two stages.
///
/// # Example
///
/// ```
/// use tv_netlist::{NetlistBuilder, Tech};
/// use tv_flow::stage::count;
///
/// # fn main() -> Result<(), tv_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new(Tech::nmos4um());
/// let a = b.input("a");
/// let x = b.node("x");
/// let y = b.node("y");
/// b.inverter("i1", a, x); // stage 1: {x}
/// b.inverter("i2", x, y); // stage 2: {y} — gates don't merge stages
/// let nl = b.finish()?;
/// assert_eq!(count(&nl), 2);
/// # Ok(())
/// # }
/// ```
pub fn count(netlist: &Netlist) -> usize {
    let vdd = netlist.vdd();
    let gnd = netlist.gnd();
    let rail = |n| n == vdd || n == gnd;
    // Every channel node starts as its own stage, and each union that
    // joins two stages removes one.
    let mut stages = netlist
        .node_ids()
        .filter(|&id| !rail(id) && !netlist.node_devices(id).channel.is_empty())
        .count();
    let mut uf = UnionFind::new(netlist.node_count());
    for dref in netlist.devices() {
        let (s, t) = (dref.device.source(), dref.device.drain());
        if !rail(s) && !rail(t) && uf.union(s.index(), t.index()) {
            stages -= 1;
        }
    }
    stages
}

/// Minimal union-find with path halving and union by size.
#[derive(Debug)]
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            let grand = self.parent[self.parent[x] as usize];
            self.parent[x] = grand;
            x = grand as usize;
        }
        x
    }

    /// Joins the sets of `a` and `b`; whether they were apart.
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tv_netlist::{NetlistBuilder, Tech};

    fn builder() -> NetlistBuilder {
        NetlistBuilder::new(Tech::nmos4um())
    }

    #[test]
    fn inverter_is_one_stage() {
        let mut b = builder();
        let a = b.input("a");
        let out = b.output("out");
        b.inverter("i", a, out);
        let nl = b.finish().unwrap();
        assert_eq!(count(&nl), 1);
    }

    #[test]
    fn gates_do_not_merge_stages() {
        let mut b = builder();
        let a = b.input("a");
        let x = b.node("x");
        let y = b.node("y");
        b.inverter("i1", a, x);
        b.inverter("i2", x, y);
        let nl = b.finish().unwrap();
        assert_eq!(count(&nl), 2);
    }

    #[test]
    fn pass_transistor_merges_stages() {
        let mut b = builder();
        let a = b.input("a");
        let phi = b.clock("phi", 0);
        let x = b.node("x");
        let y = b.node("y");
        let z = b.node("z");
        b.inverter("i1", a, x);
        b.pass("p", phi, x, y);
        b.inverter("i2", y, z);
        let nl = b.finish().unwrap();
        // x and y are channel-connected through the pass transistor; z
        // is its own stage.
        assert_eq!(count(&nl), 2);
    }

    #[test]
    fn rails_never_merge_stages() {
        let mut b = builder();
        let a = b.input("a");
        let x = b.node("x");
        let y = b.node("y");
        // Two independent inverters both touch both rails.
        b.inverter("i1", a, x);
        b.inverter("i2", a, y);
        let nl = b.finish().unwrap();
        assert_eq!(count(&nl), 2);
    }

    #[test]
    fn nand_internal_node_shares_stage_with_output() {
        let mut b = builder();
        let i0 = b.input("i0");
        let i1 = b.input("i1");
        let out = b.node("out");
        b.nand("g", &[i0, i1], out);
        let nl = b.finish().unwrap();
        assert!(
            nl.node_by_name("g_s0").is_some(),
            "the series interior node"
        );
        assert_eq!(count(&nl), 1);
    }

    #[test]
    fn gate_only_input_is_in_no_stage() {
        let mut b = builder();
        let a = b.input("a");
        for i in 0..3 {
            let o = b.node(format!("o{i}"));
            b.inverter(format!("i{i}"), a, o);
        }
        let nl = b.finish().unwrap();
        // Three stages, one per output: `a` gates all three and joins
        // none.
        assert!(nl.node_devices(a).channel.is_empty());
        assert_eq!(count(&nl), 3);
    }

    #[test]
    fn empty_netlist_has_no_stages() {
        let nl = builder().finish().unwrap();
        assert_eq!(count(&nl), 0);
    }
}
