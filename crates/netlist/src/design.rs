//! A revisioned, editable design database around an immutable [`Netlist`].
//!
//! Jouppi's TV was meant to be re-run over a *live* layout: the designer
//! resizes a driver, the verifier answers again. [`Design`] is the
//! database that makes that cheap. It owns one netlist and exposes a
//! typed edit API — resize a device, change a node capacitance, add or
//! remove a device, switch technology — where every edit:
//!
//! * bumps a monotonically increasing [`Revision`],
//! * bumps only the *revision counters* of the facts it can change
//!   (topology, geometry, capacitance, technology), and
//! * records the set of **dirty nodes** whose electrical surroundings
//!   changed, so downstream passes can re-derive just the affected cone
//!   instead of reparsing the chip.
//!
//! The counters are the contract consumed by the pass pipeline in
//! `tv-core`: signal-flow direction and latch finding depend only on
//! `topo_rev` (they never read W/L or capacitance), while delay
//! calculation also depends on `geom_rev`, `cap_rev`, and `tech_rev`.
//! A capacitance edit therefore cannot invalidate flow resolution *by
//! construction*.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::{Device, DeviceId, DeviceKind, Netlist, NetlistError, NodeId, NodeRole, Tech};

/// Global design-identity counter: every [`Design`] (and every
/// [`DesignStamp::unique`]) gets an id no other design in this process
/// shares, so cached pass results can never be confused across designs.
static NEXT_DESIGN_ID: AtomicU64 = AtomicU64::new(1);

/// A monotonically increasing edit counter. Revision 0 is the freshly
/// loaded design; every successful edit increments it by exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Revision(pub u64);

impl std::fmt::Display for Revision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// What kind of fact an edit can change, from the invalidation engine's
/// point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EditClass {
    /// Geometry or capacitance only: node/device *sets* and connectivity
    /// are untouched, so flow, qualification, and latches stay valid.
    Parametric,
    /// Nodes or devices were added/removed/rewired: everything derived
    /// from connectivity is suspect.
    Structural,
    /// The technology file changed: every resistance and capacitance on
    /// the chip changed, but connectivity did not.
    Tech,
}

/// The receipt returned by every edit: which revision the design is now
/// at, how the edit classifies, and which nodes it dirtied (empty means
/// "all nodes" for structural and tech edits).
#[derive(Debug, Clone, PartialEq)]
pub struct EditReceipt {
    /// The design's revision after this edit.
    pub revision: Revision,
    /// Parametric, structural, or tech.
    pub class: EditClass,
    /// Non-rail nodes whose electrical neighborhood changed. Empty for
    /// [`EditClass::Structural`] and [`EditClass::Tech`] edits, which
    /// dirty the whole design.
    pub dirty: Vec<NodeId>,
}

/// A snapshot of the design's revision counters — the fingerprint inputs
/// the pass pipeline hashes. Two stamps comparing equal on a counter
/// guarantees the corresponding fact set is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DesignStamp {
    /// Process-unique identity of the design this stamp came from.
    pub design: u64,
    /// Bumped by edits that change nodes, devices, roles, or connectivity.
    pub topo: u64,
    /// Bumped by edits that change device W/L.
    pub geom: u64,
    /// Bumped by edits that change node capacitance (explicit wiring cap
    /// or, transitively, gate/diffusion cap via geometry/structure).
    pub cap: u64,
    /// Bumped by technology swaps.
    pub tech: u64,
}

impl DesignStamp {
    /// A stamp that can never equal any other stamp: used by the one-shot
    /// `Analyzer` path so a throwaway analysis never aliases a cached one.
    pub fn unique() -> Self {
        let id = NEXT_DESIGN_ID.fetch_add(1, Ordering::Relaxed);
        DesignStamp {
            design: id,
            topo: 0,
            geom: 0,
            cap: 0,
            tech: 0,
        }
    }
}

/// The answer to "what changed since revision R?", used to decide between
/// splicing a few timing-graph roots and rebuilding from scratch.
#[derive(Debug, Clone, PartialEq)]
pub enum DirtySince {
    /// Nothing changed: the queried revision is current.
    Clean,
    /// Only parametric edits happened; the union of their dirty nodes.
    Nodes(Vec<NodeId>),
    /// A structural or tech edit happened (or the log no longer reaches
    /// back that far): treat everything as dirty.
    All,
}

/// How many edit records the dirty log retains. A session that performs
/// more edits than this between analyses simply falls back to "all dirty"
/// — correctness never depends on the log, only splice precision does.
const DIRTY_LOG_CAP: usize = 4096;

#[derive(Debug, Clone)]
enum DirtyScope {
    Nodes(Vec<NodeId>),
    All,
}

/// A live, editable design: one [`Netlist`] plus monotonic revision
/// counters ([`DesignStamp`]) and a bounded dirty log
/// ([`Design::dirty_since`]).
///
/// # Example
///
/// ```
/// use tv_netlist::{Design, NetlistBuilder, Tech};
///
/// # fn main() -> Result<(), tv_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new(Tech::nmos4um());
/// let a = b.input("a");
/// let out = b.output("out");
/// let (_pu, pd) = b.inverter("i1", a, out);
/// let mut design = Design::new(b.finish()?);
///
/// let before = design.stamp();
/// let receipt = design.resize_device(pd, 8.0, 2.0)?;
/// assert_eq!(receipt.dirty, vec![a, out]); // gate + non-rail channel end
/// let after = design.stamp();
/// assert_eq!(before.topo, after.topo);     // connectivity untouched
/// assert_ne!(before.geom, after.geom);     // geometry changed
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Design {
    netlist: Netlist,
    design_id: u64,
    revision: u64,
    topo_rev: u64,
    geom_rev: u64,
    cap_rev: u64,
    tech_rev: u64,
    /// `(revision-after-edit, scope)` per edit, oldest first, capped at
    /// [`DIRTY_LOG_CAP`].
    log: VecDeque<(u64, DirtyScope)>,
}

impl Design {
    /// Wraps a freshly built or parsed netlist at revision 0.
    pub fn new(netlist: Netlist) -> Self {
        Design {
            netlist,
            design_id: NEXT_DESIGN_ID.fetch_add(1, Ordering::Relaxed),
            revision: 0,
            topo_rev: 0,
            geom_rev: 0,
            cap_rev: 0,
            tech_rev: 0,
            log: VecDeque::new(),
        }
    }

    /// The current netlist. Immutable — all mutation goes through the
    /// typed edit API so the revision counters cannot be bypassed.
    #[inline]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The current revision (0 = as loaded).
    #[inline]
    pub fn revision(&self) -> Revision {
        Revision(self.revision)
    }

    /// The current counter snapshot for fingerprinting.
    #[inline]
    pub fn stamp(&self) -> DesignStamp {
        DesignStamp {
            design: self.design_id,
            topo: self.topo_rev,
            geom: self.geom_rev,
            cap: self.cap_rev,
            tech: self.tech_rev,
        }
    }

    /// Everything dirtied strictly after `since`, or [`DirtySince::All`]
    /// if a structural/tech edit intervened or the log has been trimmed
    /// past that point.
    pub fn dirty_since(&self, since: Revision) -> DirtySince {
        if since.0 >= self.revision {
            return DirtySince::Clean;
        }
        // The log must cover every revision in (since, current]; its
        // entries are consecutive, so it suffices that the oldest retained
        // entry is no later than since+1.
        match self.log.front() {
            Some(&(oldest, _)) if oldest <= since.0 + 1 => {}
            _ => return DirtySince::All,
        }
        let mut nodes = Vec::new();
        for (rev, scope) in &self.log {
            if *rev <= since.0 {
                continue;
            }
            match scope {
                DirtyScope::All => return DirtySince::All,
                DirtyScope::Nodes(ns) => nodes.extend_from_slice(ns),
            }
        }
        nodes.sort_unstable();
        nodes.dedup();
        DirtySince::Nodes(nodes)
    }

    fn record(&mut self, class: EditClass, dirty: Vec<NodeId>) -> EditReceipt {
        self.revision += 1;
        let scope = match class {
            EditClass::Parametric => DirtyScope::Nodes(dirty.clone()),
            EditClass::Structural | EditClass::Tech => DirtyScope::All,
        };
        if self.log.len() == DIRTY_LOG_CAP {
            self.log.pop_front();
        }
        self.log.push_back((self.revision, scope));
        EditReceipt {
            revision: Revision(self.revision),
            class,
            dirty,
        }
    }

    /// The non-rail nodes electrically adjacent to a device: its gate and
    /// both channel ends, deduplicated. This is the dirty set of any edit
    /// local to that device.
    fn device_neighborhood(&self, dev: DeviceId) -> Vec<NodeId> {
        let d = self.netlist.device(dev);
        let mut dirty = Vec::with_capacity(3);
        for n in [d.gate(), d.source(), d.drain()] {
            if !self.netlist.node(n).role().is_rail() && !dirty.contains(&n) {
                dirty.push(n);
            }
        }
        dirty.sort_unstable();
        dirty
    }

    // ----- parametric edits -------------------------------------------

    /// Resizes a device's drawn channel to `w_um` × `l_um`.
    ///
    /// Parametric: bumps `geom_rev` and `cap_rev` (gate/diffusion
    /// capacitance follows geometry); dirties the device's gate and
    /// channel nodes.
    ///
    /// # Errors
    ///
    /// [`NetlistError::BadGeometry`] if either dimension is non-positive
    /// or non-finite; the design is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `dev` is not from this design's netlist.
    pub fn resize_device(
        &mut self,
        dev: DeviceId,
        w_um: f64,
        l_um: f64,
    ) -> Result<EditReceipt, NetlistError> {
        if !w_um.is_finite() || !l_um.is_finite() || w_um <= 0.0 || l_um <= 0.0 {
            return Err(NetlistError::BadGeometry {
                device: self.netlist.device(dev).name().to_owned(),
                w_um,
                l_um,
            });
        }
        let dirty = self.device_neighborhood(dev);
        {
            let d = &mut self.netlist.devices[dev.index()];
            d.w_um = w_um;
            d.l_um = l_um;
        }
        self.netlist.recompute_caps();
        self.geom_rev += 1;
        self.cap_rev += 1;
        Ok(self.record(EditClass::Parametric, dirty))
    }

    /// Sets a node's explicit wiring capacitance to `cap_pf` (absolute,
    /// not additive — the session's "what if this wire were shorter"
    /// primitive).
    ///
    /// Parametric: bumps `cap_rev` only; dirties just that node.
    ///
    /// # Errors
    ///
    /// [`NetlistError::BadCapacitance`] if the value is negative or
    /// non-finite; the design is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not from this design's netlist.
    pub fn set_node_cap(&mut self, node: NodeId, cap_pf: f64) -> Result<EditReceipt, NetlistError> {
        if !cap_pf.is_finite() || cap_pf < 0.0 {
            return Err(NetlistError::BadCapacitance {
                node: self.netlist.node_name(node).to_owned(),
                cap_pf,
            });
        }
        self.netlist.nodes[node.index()].extra_cap = cap_pf;
        self.netlist.recompute_caps();
        self.cap_rev += 1;
        let dirty = if self.netlist.node(node).role().is_rail() {
            Vec::new()
        } else {
            vec![node]
        };
        Ok(self.record(EditClass::Parametric, dirty))
    }

    // ----- structural edits -------------------------------------------

    /// Gets or creates a node by name with the given role (same
    /// get-or-create / role-upgrade semantics as the builder).
    ///
    /// Structural: connectivity facts may change (a role upgrade turns an
    /// internal net into a flow source or sink), so `topo_rev` bumps.
    pub fn add_node(&mut self, name: &str, role: NodeRole) -> (NodeId, EditReceipt) {
        let sym = self.netlist.names.intern(name);
        let id = if sym.index() < self.netlist.node_of_symbol.len() {
            let id = self.netlist.node_of_symbol[sym.index()];
            if role != NodeRole::Internal {
                self.netlist.nodes[id.index()].role = role;
            }
            id
        } else {
            let id = NodeId(self.netlist.nodes.len() as u32);
            self.netlist.nodes.push(crate::Node::new(sym, role));
            self.netlist.node_of_symbol.push(id);
            id
        };
        self.netlist.rebuild_indexes();
        self.topo_rev += 1;
        (id, self.record(EditClass::Structural, Vec::new()))
    }

    /// Adds a transistor between existing nodes.
    ///
    /// Structural: bumps `topo_rev`, `geom_rev`, and `cap_rev`.
    ///
    /// # Errors
    ///
    /// [`NetlistError::ShortedChannel`] if `source == drain`,
    /// [`NetlistError::BadGeometry`] for non-positive dimensions; the
    /// design is unchanged on error.
    ///
    /// # Panics
    ///
    /// Panics if a node id is not from this design's netlist.
    #[allow(clippy::too_many_arguments)] // gate/source/drain/W/L is the domain's natural arity
    pub fn add_device(
        &mut self,
        name: &str,
        kind: DeviceKind,
        gate: NodeId,
        source: NodeId,
        drain: NodeId,
        w_um: f64,
        l_um: f64,
    ) -> Result<(DeviceId, EditReceipt), NetlistError> {
        if source == drain {
            return Err(NetlistError::ShortedChannel {
                device: name.to_owned(),
            });
        }
        if !w_um.is_finite() || !l_um.is_finite() || w_um <= 0.0 || l_um <= 0.0 {
            return Err(NetlistError::BadGeometry {
                device: name.to_owned(),
                w_um,
                l_um,
            });
        }
        for n in [gate, source, drain] {
            assert!(
                n.index() < self.netlist.nodes.len(),
                "node {n} out of range"
            );
        }
        let id = DeviceId(self.netlist.devices.len() as u32);
        self.netlist.devices.push(Device {
            name: name.to_owned(),
            kind,
            gate,
            source,
            drain,
            w_um,
            l_um,
        });
        self.netlist.rebuild_indexes();
        self.topo_rev += 1;
        self.geom_rev += 1;
        self.cap_rev += 1;
        Ok((id, self.record(EditClass::Structural, Vec::new())))
    }

    /// Removes a device. **Device ids above `dev` shift down by one**
    /// (the netlist keeps devices dense and in insertion order); node ids
    /// are stable. Callers holding device ids must re-resolve them.
    ///
    /// Structural: bumps `topo_rev`, `geom_rev`, and `cap_rev`.
    ///
    /// # Panics
    ///
    /// Panics if `dev` is not from this design's netlist.
    pub fn remove_device(&mut self, dev: DeviceId) -> EditReceipt {
        self.netlist.devices.remove(dev.index());
        self.netlist.rebuild_indexes();
        self.topo_rev += 1;
        self.geom_rev += 1;
        self.cap_rev += 1;
        self.record(EditClass::Structural, Vec::new())
    }

    // ----- tech edits -------------------------------------------------

    /// Swaps the technology (e.g. a 4 µm → 2 µm shrink what-if). Every
    /// resistance and capacitance changes; connectivity does not.
    ///
    /// Tech: bumps `tech_rev` and `cap_rev`.
    pub fn retech(&mut self, tech: Tech) -> EditReceipt {
        self.netlist.tech = tech;
        self.netlist.recompute_caps();
        self.tech_rev += 1;
        self.cap_rev += 1;
        self.record(EditClass::Tech, Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn design() -> (Design, NodeId, NodeId, DeviceId, DeviceId) {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let out = b.output("out");
        let (pu, pd) = b.inverter("i1", a, out);
        (Design::new(b.finish().unwrap()), a, out, pu, pd)
    }

    #[test]
    fn resize_bumps_geom_not_topo() {
        let (mut d, a, out, _pu, pd) = design();
        let before = d.stamp();
        let r = d.resize_device(pd, 8.0, 2.0).unwrap();
        let after = d.stamp();
        assert_eq!(r.class, EditClass::Parametric);
        assert_eq!(r.dirty, vec![a, out]);
        assert_eq!(before.topo, after.topo);
        assert_eq!(before.tech, after.tech);
        assert_ne!(before.geom, after.geom);
        assert_ne!(before.cap, after.cap);
        assert_eq!(d.netlist().device(pd).width(), 8.0);
        assert_eq!(d.revision(), Revision(1));
    }

    #[test]
    fn resize_updates_caps() {
        let (mut d, a, _out, _pu, pd) = design();
        let before = d.netlist().node_cap(a);
        d.resize_device(pd, 16.0, 8.0).unwrap();
        // `a` drives the pull-down gate: 4x the gate area, more gate cap.
        assert!(d.netlist().node_cap(a) > before);
    }

    #[test]
    fn bad_resize_leaves_design_unchanged() {
        let (mut d, _a, _out, _pu, pd) = design();
        let before = d.stamp();
        let w = d.netlist().device(pd).width();
        assert!(d.resize_device(pd, -1.0, 2.0).is_err());
        assert_eq!(d.stamp(), before);
        assert_eq!(d.revision(), Revision(0));
        assert_eq!(d.netlist().device(pd).width(), w);
    }

    #[test]
    fn cap_edit_bumps_only_cap() {
        let (mut d, _a, out, _pu, _pd) = design();
        let before = d.stamp();
        let r = d.set_node_cap(out, 0.75).unwrap();
        let after = d.stamp();
        assert_eq!(r.dirty, vec![out]);
        assert_eq!(before.topo, after.topo);
        assert_eq!(before.geom, after.geom);
        assert_ne!(before.cap, after.cap);
        assert!(d.netlist().node_cap(out) >= 0.75);
        // Absolute, not additive.
        d.set_node_cap(out, 0.25).unwrap();
        let c = d.netlist().node(out).extra_cap();
        assert_eq!(c, 0.25);
    }

    #[test]
    fn structural_edit_bumps_topo_and_rebuilds_indexes() {
        let (mut d, a, out, _pu, _pd) = design();
        let before = d.stamp();
        let chans_before = d.netlist().node_devices(out).channel.len();
        let (id, r) = d
            .add_device("m9", DeviceKind::Enhancement, a, NodeId(1), out, 4.0, 2.0)
            .unwrap();
        assert_eq!(r.class, EditClass::Structural);
        assert_ne!(before.topo, d.stamp().topo);
        assert_eq!(
            d.netlist().node_devices(out).channel.len(),
            chans_before + 1
        );
        assert!(d.netlist().node_devices(a).gated.contains(&id));

        d.remove_device(id);
        assert_eq!(d.netlist().node_devices(out).channel.len(), chans_before);
    }

    #[test]
    fn add_device_validates_before_mutating() {
        let (mut d, a, out, _pu, _pd) = design();
        let n = d.netlist().device_count();
        assert!(d
            .add_device("bad", DeviceKind::Enhancement, a, out, out, 4.0, 2.0)
            .is_err());
        assert!(d
            .add_device("bad", DeviceKind::Enhancement, a, NodeId(1), out, 0.0, 2.0)
            .is_err());
        assert_eq!(d.netlist().device_count(), n);
        assert_eq!(d.revision(), Revision(0));
    }

    #[test]
    fn retech_bumps_tech_and_recomputes() {
        let (mut d, a, _out, _pu, _pd) = design();
        let cap4 = d.netlist().node_cap(a);
        let r = d.retech(Tech::nmos2um());
        assert_eq!(r.class, EditClass::Tech);
        assert_ne!(d.netlist().node_cap(a), cap4);
        assert_eq!(d.stamp().topo, 0);
        assert_eq!(d.stamp().tech, 1);
    }

    #[test]
    fn dirty_since_accumulates_and_collapses() {
        let (mut d, a, out, _pu, pd) = design();
        let r0 = d.revision();
        assert_eq!(d.dirty_since(r0), DirtySince::Clean);

        d.set_node_cap(out, 0.5).unwrap();
        d.resize_device(pd, 8.0, 2.0).unwrap();
        match d.dirty_since(r0) {
            DirtySince::Nodes(ns) => assert_eq!(ns, vec![a, out]),
            other => panic!("expected Nodes, got {other:?}"),
        }

        let r2 = d.revision();
        d.retech(Tech::nmos2um());
        assert_eq!(d.dirty_since(r2), DirtySince::All);
        assert_eq!(d.dirty_since(r0), DirtySince::All);
        assert_eq!(d.dirty_since(d.revision()), DirtySince::Clean);
    }

    #[test]
    fn dirty_log_overflow_degrades_to_all() {
        let (mut d, _a, out, _pu, _pd) = design();
        let r0 = d.revision();
        for i in 0..(DIRTY_LOG_CAP + 8) {
            d.set_node_cap(out, 0.001 * i as f64).unwrap();
        }
        assert_eq!(d.dirty_since(r0), DirtySince::All);
        // A recent revision is still precisely tracked.
        let recent = Revision(d.revision().0 - 2);
        match d.dirty_since(recent) {
            DirtySince::Nodes(ns) => assert_eq!(ns, vec![out]),
            other => panic!("expected Nodes, got {other:?}"),
        }
    }

    #[test]
    fn stamps_are_design_unique() {
        let (d1, ..) = design();
        let (d2, ..) = design();
        assert_ne!(d1.stamp().design, d2.stamp().design);
        assert_ne!(DesignStamp::unique(), DesignStamp::unique());
    }

    #[test]
    fn add_node_upgrades_role() {
        let (mut d, _a, _out, _pu, _pd) = design();
        let (n, r) = d.add_node("late_in", NodeRole::Input);
        assert_eq!(r.class, EditClass::Structural);
        assert!(d.netlist().inputs().contains(&n));
        let (n2, _) = d.add_node("late_in", NodeRole::Internal);
        assert_eq!(n, n2); // get-or-create, no downgrade
        assert!(d.netlist().inputs().contains(&n));
    }
}
