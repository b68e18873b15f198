//! Incremental construction of [`Netlist`]s, with gate-level conveniences.

use crate::intern::Interner;
use crate::{Device, DeviceId, DeviceKind, Netlist, NetlistError, Node, NodeId, NodeRole, Tech};

/// Builds a [`Netlist`] one node and transistor at a time.
///
/// The builder pre-creates the two rails (`VDD` = id 0, `GND` = id 1).
/// Structural mistakes (shorted channels, non-positive geometry) are
/// recorded as they happen and reported by [`NetlistBuilder::finish`], so
/// generator code can stay free of `Result` plumbing; immediate feedback is
/// available where it is cheap ([`NetlistBuilder::add_cap`]).
///
/// Besides raw transistors, the builder offers the standard cells of a 1983
/// nMOS designer — ratioed inverter, NAND, NOR, super buffer, pass gate,
/// dynamic latch, precharge device — each lowered immediately to correctly
/// sized transistors.
///
/// # Example
///
/// ```
/// use tv_netlist::{NetlistBuilder, Tech};
///
/// # fn main() -> Result<(), tv_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new(Tech::nmos4um());
/// let a = b.input("a");
/// let nb = b.node("a_bar");
/// let q = b.output("q");
/// b.inverter("i1", a, nb);
/// b.inverter("i2", nb, q);
/// let nl = b.finish()?;
/// assert_eq!(nl.device_count(), 4); // two pull-ups, two pull-downs
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    tech: Tech,
    nodes: Vec<Node>,
    devices: Vec<Device>,
    names: Interner,
    /// Symbol index → node id; parallel to `names` (names and nodes are
    /// 1:1, so this is the whole name-lookup table).
    node_of_symbol: Vec<NodeId>,
    pending_error: Option<NetlistError>,
    /// Growth reallocations of the node/device Vecs since construction
    /// (the interner tracks its own; see [`NetlistBuilder::growth_events`]).
    growths: u64,
}

impl NetlistBuilder {
    /// Creates an empty builder for the given technology. The rails `VDD`
    /// and `GND` exist from the start.
    pub fn new(tech: Tech) -> Self {
        let mut b = NetlistBuilder {
            tech,
            nodes: Vec::new(),
            devices: Vec::new(),
            names: Interner::new(),
            node_of_symbol: Vec::new(),
            pending_error: None,
            growths: 0,
        };
        b.insert_node("VDD", NodeRole::Vdd);
        b.insert_node("GND", NodeRole::Gnd);
        // The rails are constant startup cost, not growth the pre-scan
        // could have avoided.
        b.growths = 0;
        b
    }

    /// Pre-sizes the node and device stores (and the name interner) so
    /// that building up to `additional_nodes` / `additional_devices`
    /// more entries performs zero growth reallocations. `name_bytes` is
    /// the total length of the node names still to be interned.
    pub fn reserve(
        &mut self,
        additional_nodes: usize,
        additional_devices: usize,
        name_bytes: usize,
    ) {
        self.nodes.reserve(additional_nodes);
        self.node_of_symbol.reserve(additional_nodes);
        self.devices.reserve(additional_devices);
        self.names.reserve(additional_nodes, name_bytes);
    }

    /// Growth reallocations since construction, interner included — the
    /// `ingest.reallocs` counter is this, sampled after the pre-scan's
    /// [`NetlistBuilder::reserve`].
    #[inline]
    pub fn growth_events(&self) -> u64 {
        self.growths + self.names.growth_events()
    }

    /// Reconstructs a builder from a finished netlist's parts (used by
    /// [`Netlist::to_builder`]).
    pub(crate) fn from_parts(
        tech: Tech,
        nodes: Vec<Node>,
        devices: Vec<Device>,
        names: Interner,
        node_of_symbol: Vec<NodeId>,
    ) -> Self {
        NetlistBuilder {
            tech,
            nodes,
            devices,
            names,
            node_of_symbol,
            pending_error: None,
            growths: 0,
        }
    }

    /// The VDD rail.
    #[inline]
    pub fn vdd(&self) -> NodeId {
        NodeId(0)
    }

    /// The GND rail.
    #[inline]
    pub fn gnd(&self) -> NodeId {
        NodeId(1)
    }

    /// The technology the netlist is being built in.
    #[inline]
    pub fn tech(&self) -> &Tech {
        &self.tech
    }

    /// Number of nodes created so far (including rails).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of devices created so far.
    #[inline]
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    fn insert_node(&mut self, name: impl AsRef<str>, role: NodeRole) -> NodeId {
        let sym = self.names.intern(name.as_ref());
        if sym.index() < self.node_of_symbol.len() {
            // Get-or-create semantics; upgrading Internal to a stronger role
            // is allowed so `input("a")` after `node("a")` does what it says.
            let id = self.node_of_symbol[sym.index()];
            if role != NodeRole::Internal {
                self.nodes[id.index()].role = role;
            }
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        if self.nodes.len() == self.nodes.capacity() {
            self.growths += 1;
        }
        if self.node_of_symbol.len() == self.node_of_symbol.capacity() {
            self.growths += 1;
        }
        self.nodes.push(Node::new(sym, role));
        self.node_of_symbol.push(id);
        id
    }

    /// Re-applies a role to an existing node, with the same
    /// upgrade-only rule as the named get-or-create methods (`Internal`
    /// never downgrades a stronger role). The chunk-merge path of the
    /// `.sim` parser replays `i`/`o`/`k` records by id through this.
    pub fn set_role(&mut self, id: NodeId, role: NodeRole) {
        if role != NodeRole::Internal {
            self.nodes[id.index()].role = role;
        }
    }

    /// The name of an already-created node.
    fn node_name(&self, id: NodeId) -> &str {
        self.names.resolve(self.nodes[id.index()].name)
    }

    /// Gets or creates an internal node by name.
    pub fn node(&mut self, name: impl AsRef<str>) -> NodeId {
        self.insert_node(name, NodeRole::Internal)
    }

    /// Gets or creates a node and marks it a primary input.
    pub fn input(&mut self, name: impl AsRef<str>) -> NodeId {
        self.insert_node(name, NodeRole::Input)
    }

    /// Gets or creates a node and marks it a primary output.
    pub fn output(&mut self, name: impl AsRef<str>) -> NodeId {
        self.insert_node(name, NodeRole::Output)
    }

    /// Gets or creates a node and marks it a clock of the given phase
    /// (0 = φ1, 1 = φ2).
    pub fn clock(&mut self, name: impl AsRef<str>, phase: u8) -> NodeId {
        self.insert_node(name, NodeRole::Clock(phase))
    }

    /// Attaches explicit wiring capacitance to a node, pF.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadCapacitance`] if `cap_pf` is negative or
    /// not finite.
    pub fn add_cap(&mut self, node: NodeId, cap_pf: f64) -> Result<(), NetlistError> {
        if !cap_pf.is_finite() || cap_pf < 0.0 {
            return Err(NetlistError::BadCapacitance {
                node: self.node_name(node).to_owned(),
                cap_pf,
            });
        }
        self.nodes[node.index()].extra_cap += cap_pf;
        Ok(())
    }

    #[allow(clippy::too_many_arguments)] // gate/source/drain/W/L is the domain's natural arity
    fn insert_device(
        &mut self,
        name: String,
        kind: DeviceKind,
        gate: NodeId,
        source: NodeId,
        drain: NodeId,
        w_um: f64,
        l_um: f64,
    ) -> DeviceId {
        if source == drain && self.pending_error.is_none() {
            self.pending_error = Some(NetlistError::ShortedChannel {
                device: name.clone(),
            });
        }
        if (!w_um.is_finite() || !l_um.is_finite() || w_um <= 0.0 || l_um <= 0.0)
            && self.pending_error.is_none()
        {
            self.pending_error = Some(NetlistError::BadGeometry {
                device: name.clone(),
                w_um,
                l_um,
            });
        }
        let id = DeviceId(self.devices.len() as u32);
        if self.devices.len() == self.devices.capacity() {
            self.growths += 1;
        }
        self.devices.push(Device {
            name,
            kind,
            gate,
            source,
            drain,
            w_um,
            l_um,
        });
        id
    }

    /// Adds an enhancement transistor.
    pub fn enhancement(
        &mut self,
        name: impl Into<String>,
        gate: NodeId,
        source: NodeId,
        drain: NodeId,
        w_um: f64,
        l_um: f64,
    ) -> DeviceId {
        self.insert_device(
            name.into(),
            DeviceKind::Enhancement,
            gate,
            source,
            drain,
            w_um,
            l_um,
        )
    }

    /// Adds a depletion transistor with explicit terminals (for unusual
    /// structures; for ordinary pull-ups use
    /// [`NetlistBuilder::depletion_load`]).
    pub fn depletion(
        &mut self,
        name: impl Into<String>,
        gate: NodeId,
        source: NodeId,
        drain: NodeId,
        w_um: f64,
        l_um: f64,
    ) -> DeviceId {
        self.insert_device(
            name.into(),
            DeviceKind::Depletion,
            gate,
            source,
            drain,
            w_um,
            l_um,
        )
    }

    /// Adds a classic depletion pull-up load on `node`: channel from VDD to
    /// `node`, gate tied to `node`.
    pub fn depletion_load(&mut self, node: NodeId, w_um: f64, l_um: f64) -> DeviceId {
        let name = format!("pu_{}", self.node_name(node));
        self.insert_device(
            name,
            DeviceKind::Depletion,
            node,
            self.vdd(),
            node,
            w_um,
            l_um,
        )
    }

    /// Adds a minimum-size pass transistor: channel `a`–`b`, gated by `ctrl`.
    pub fn pass(
        &mut self,
        name: impl Into<String>,
        ctrl: NodeId,
        a: NodeId,
        b: NodeId,
    ) -> DeviceId {
        let s = self.tech.min_size();
        self.enhancement(name, ctrl, a, b, s, s)
    }

    // ----- standard cells ---------------------------------------------

    /// Standard ratioed inverter: pull-down W=2·min, L=min (Z = ½ square);
    /// pull-up W=min/1, L=2·min (Z = 2 squares); ratio 4.
    ///
    /// Returns the (pull-up, pull-down) device ids.
    pub fn inverter(
        &mut self,
        name: impl Into<String>,
        input: NodeId,
        output: NodeId,
    ) -> (DeviceId, DeviceId) {
        let name = name.into();
        let s = self.tech.min_size();
        let pu = self.depletion_load(output, s, 2.0 * s);
        let pd = self.enhancement(format!("{name}_pd"), input, self.gnd(), output, 2.0 * s, s);
        (pu, pd)
    }

    /// k-input NAND: k series pull-downs, each k-times wider than the
    /// inverter pull-down so the worst-case series resistance matches, plus
    /// one shared 4:1 load.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    pub fn nand(&mut self, name: impl Into<String>, inputs: &[NodeId], output: NodeId) {
        assert!(!inputs.is_empty(), "nand needs at least one input");
        let name = name.into();
        let s = self.tech.min_size();
        let k = inputs.len() as f64;
        self.depletion_load(output, s, 2.0 * s);
        // Series chain from output down to ground through internal nodes.
        let mut upper = output;
        for (i, &input) in inputs.iter().enumerate() {
            let lower = if i + 1 == inputs.len() {
                self.gnd()
            } else {
                self.node(format!("{name}_s{i}"))
            };
            self.enhancement(format!("{name}_pd{i}"), input, lower, upper, k * 2.0 * s, s);
            upper = lower;
        }
    }

    /// k-input NOR: k parallel inverter-sized pull-downs and one shared
    /// 4:1 load.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    pub fn nor(&mut self, name: impl Into<String>, inputs: &[NodeId], output: NodeId) {
        assert!(!inputs.is_empty(), "nor needs at least one input");
        let name = name.into();
        let s = self.tech.min_size();
        self.depletion_load(output, s, 2.0 * s);
        for (i, &input) in inputs.iter().enumerate() {
            self.enhancement(
                format!("{name}_pd{i}"),
                input,
                self.gnd(),
                output,
                2.0 * s,
                s,
            );
        }
    }

    /// Inverting super buffer: an internal inverter plus an output stage
    /// whose depletion pull-up is gated by the internal node (so it pulls
    /// up actively instead of as a weak load). Sized `scale`× the standard
    /// inverter; use for driving large capacitances such as buses.
    ///
    /// Returns the internal node.
    pub fn super_buffer(
        &mut self,
        name: impl Into<String>,
        input: NodeId,
        output: NodeId,
        scale: f64,
    ) -> NodeId {
        let name = name.into();
        let s = self.tech.min_size();
        let internal = self.node(format!("{name}_int"));
        self.inverter(format!("{name}_inv"), input, internal);
        // Output stage: active pull-up gated by internal, pull-down by input.
        self.depletion(
            format!("{name}_pu"),
            internal,
            self.vdd(),
            output,
            scale * s,
            s,
        );
        self.enhancement(
            format!("{name}_pd"),
            input,
            self.gnd(),
            output,
            scale * 2.0 * s,
            s,
        );
        internal
    }

    /// Dynamic (pass-transistor) latch: `d` is sampled onto an internal
    /// storage node while `clk` is high, and an inverter restores it to
    /// `q_bar`. This is the 1983 latch: two of these in series on opposite
    /// phases make a master–slave register.
    ///
    /// Returns the storage node.
    pub fn dynamic_latch(
        &mut self,
        name: impl Into<String>,
        clk: NodeId,
        d: NodeId,
        q_bar: NodeId,
    ) -> NodeId {
        let name = name.into();
        let store = self.node(format!("{name}_mem"));
        self.pass(format!("{name}_pass"), clk, d, store);
        self.inverter(format!("{name}_out"), store, q_bar);
        store
    }

    /// Precharge device: pulls `node` toward VDD (to VDD − V_T) while `clk`
    /// is high. The workhorse of precharged buses.
    pub fn precharge(&mut self, name: impl Into<String>, clk: NodeId, node: NodeId) -> DeviceId {
        let s = self.tech.min_size();
        self.enhancement(name, clk, self.vdd(), node, 2.0 * s, s)
    }

    /// Finalizes the netlist: builds connectivity indexes and the
    /// capacitance table.
    ///
    /// # Errors
    ///
    /// Returns the first structural error recorded during construction
    /// (shorted channel or bad geometry).
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        if let Some(e) = self.pending_error {
            return Err(e);
        }
        let mut nl = Netlist {
            tech: self.tech,
            nodes: self.nodes,
            devices: self.devices,
            names: self.names,
            node_of_symbol: self.node_of_symbol,
            gate_starts: Vec::new(),
            gate_devs: Vec::new(),
            channel_starts: Vec::new(),
            channel_devs: Vec::new(),
            total_cap: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            clocks: Vec::new(),
        };
        nl.rebuild_indexes();
        Ok(nl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn builder() -> NetlistBuilder {
        NetlistBuilder::new(Tech::nmos4um())
    }

    #[test]
    fn node_is_get_or_create() {
        let mut b = builder();
        let x1 = b.node("x");
        let x2 = b.node("x");
        assert_eq!(x1, x2);
        assert_eq!(b.node_count(), 3); // rails + x
    }

    #[test]
    fn role_upgrade_sticks() {
        let mut b = builder();
        let x = b.node("x");
        let x2 = b.input("x");
        assert_eq!(x, x2);
        let nl = b.finish().unwrap();
        assert_eq!(nl.node(x).role(), NodeRole::Input);
    }

    #[test]
    fn role_is_not_downgraded_by_plain_node() {
        let mut b = builder();
        let x = b.input("x");
        b.node("x");
        let nl = b.finish().unwrap();
        assert_eq!(nl.node(x).role(), NodeRole::Input);
    }

    #[test]
    fn shorted_channel_is_reported_at_finish() {
        let mut b = builder();
        let a = b.input("a");
        let x = b.node("x");
        b.enhancement("bad", a, x, x, 4.0, 2.0);
        let err = b.finish().unwrap_err();
        assert!(matches!(err, NetlistError::ShortedChannel { device } if device == "bad"));
    }

    #[test]
    fn bad_geometry_is_reported_at_finish() {
        let mut b = builder();
        let a = b.input("a");
        let x = b.node("x");
        let g = b.gnd();
        b.enhancement("bad", a, g, x, -4.0, 2.0);
        let err = b.finish().unwrap_err();
        assert!(matches!(err, NetlistError::BadGeometry { .. }));
    }

    #[test]
    fn negative_cap_is_rejected_immediately() {
        let mut b = builder();
        let x = b.node("x");
        let err = b.add_cap(x, -1.0).unwrap_err();
        assert!(matches!(err, NetlistError::BadCapacitance { .. }));
        assert!(b.add_cap(x, 0.5).is_ok());
    }

    #[test]
    fn inverter_has_correct_ratio() {
        let mut b = builder();
        let a = b.input("a");
        let out = b.node("out");
        let (pu, pd) = b.inverter("i", a, out);
        let nl = b.finish().unwrap();
        let t = nl.tech().clone();
        let r_pu = nl.device(pu).resistance(&t);
        let r_pd = nl.device(pd).resistance(&t);
        // Drawn Z ratio is 4; electrically the rise calibration puts it
        // between 4 and 7 (see Tech::nmos4um docs).
        let ratio = r_pu / r_pd;
        assert!((4.0..7.0).contains(&ratio), "ratio was {ratio}");
    }

    #[test]
    fn nand_series_chain_matches_inverter_worst_case() {
        let mut b = builder();
        let i0 = b.input("i0");
        let i1 = b.input("i1");
        let i2 = b.input("i2");
        let out = b.node("out");
        b.nand("g", &[i0, i1, i2], out);
        let nl = b.finish().unwrap();
        let t = nl.tech().clone();
        // 1 load + 3 pull-downs; series pull-down resistance equals one
        // inverter pull-down.
        assert_eq!(nl.device_count(), 4);
        let series: f64 = nl
            .devices()
            .filter(|d| d.device.kind() == DeviceKind::Enhancement)
            .map(|d| d.device.resistance(&t))
            .sum();
        let mut b2 = builder();
        let a = b2.input("a");
        let o = b2.node("o");
        let (_, pd) = b2.inverter("i", a, o);
        let nl2 = b2.finish().unwrap();
        let inv_pd = nl2.device(pd).resistance(&t);
        assert!((series - inv_pd).abs() < 1e-9);
    }

    #[test]
    fn nor_is_parallel() {
        let mut b = builder();
        let i0 = b.input("i0");
        let i1 = b.input("i1");
        let out = b.node("out");
        b.nor("g", &[i0, i1], out);
        let nl = b.finish().unwrap();
        assert_eq!(nl.device_count(), 3);
        // Both pull-downs touch output and ground directly.
        let gnd_contacts = nl.node_devices(nl.gnd()).channel.len();
        assert_eq!(gnd_contacts, 2);
    }

    #[test]
    fn dynamic_latch_structure() {
        let mut b = builder();
        let phi = b.clock("phi1", 0);
        let d = b.input("d");
        let qb = b.node("qb");
        let store = b.dynamic_latch("l", phi, d, qb);
        let nl = b.finish().unwrap();
        // Pass + inverter = 3 devices; storage node touches exactly the
        // pass channel and gates the inverter pull-down.
        assert_eq!(nl.device_count(), 3);
        let at_store = nl.node_devices(store);
        assert_eq!(at_store.channel.len(), 1);
        assert_eq!(at_store.gated.len(), 1);
        assert_eq!(nl.clocks().len(), 1);
    }

    #[test]
    fn super_buffer_pullup_is_actively_gated() {
        let mut b = builder();
        let a = b.input("a");
        let out = b.node("out");
        let internal = b.super_buffer("sb", a, out, 4.0);
        let nl = b.finish().unwrap();
        // Output-stage pull-up must be a depletion device whose gate is the
        // internal node, not load-connected to the output.
        let pu = nl
            .devices()
            .find(|d| d.device.kind() == DeviceKind::Depletion && d.device.gate() == internal)
            .expect("super buffer pull-up");
        assert!(!pu.device.is_load_connected() || pu.device.gate() == internal);
        assert_eq!(nl.device_count(), 4);
    }

    #[test]
    fn empty_finish_is_ok() {
        assert!(builder().finish().is_ok());
    }
}
