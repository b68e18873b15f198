//! Device-role and node-class inference.
//!
//! TV's node and transistor classification is what lets a timing analyzer
//! treat a raw transistor soup as logic: it must know that *this* depletion
//! device is a load, *that* enhancement device is the third leg of a NAND
//! pull-down, and *that other one* is a pass transistor feeding a dynamic
//! storage node. Everything here is inferred from structure alone.

use tv_netlist::{DeviceKind, Netlist, NodeId, NodeRole};

/// The inferred electrical role of a transistor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceRole {
    /// Depletion device wired as a classic load (gate tied to channel).
    PullUp,
    /// Depletion device with channel to VDD gated by another node — the
    /// output pull-up of a super buffer.
    ActivePullUp,
    /// Enhancement device in a gated path from a stage output to GND
    /// (including interior legs of series NAND chains).
    PullDown,
    /// Enhancement device with channel to VDD gated by a clock: precharges
    /// a dynamic node each cycle.
    Precharge,
    /// Enhancement device with channel to VDD gated by a signal: a source
    /// follower / enhancement pull-up (degraded high).
    EnhPullUp,
    /// Enhancement device whose channel connects two internal nodes and is
    /// not part of a pull-down network: a pass transistor.
    Pass,
}

/// The inferred class of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeClass {
    /// A power rail.
    Rail,
    /// Externally driven: primary input or clock.
    External,
    /// Output of a restoring stage: actively pulled to both rails.
    Restored,
    /// Dynamic node refreshed by a precharge device and conditionally
    /// discharged — the nodes of precharged buses and domino-style logic.
    Precharged,
    /// Driven only through pass transistors and gating at least one device:
    /// a dynamic storage (latch) node.
    Storage,
    /// Interior node of a pass network or pull-down chain: neither stored
    /// from nor directly restored.
    PassInterior,
    /// A node with many channel contacts acting as a shared bus.
    Bus,
    /// A gate-only node with no channel contacts (e.g. an input pad net).
    GateOnly,
}

/// Per-device and per-node classification tables.
#[derive(Debug, Clone)]
pub struct Classification {
    /// Role of each device, indexed by device id.
    pub device_roles: Vec<DeviceRole>,
    /// Class of each node, indexed by node id.
    pub node_classes: Vec<NodeClass>,
}

/// Number of channel contacts at or above which a non-restored node is
/// called a bus.
pub const BUS_THRESHOLD: usize = 6;

/// Classifies every device and node in the netlist.
///
/// # Example
///
/// ```
/// use tv_netlist::{NetlistBuilder, Tech};
/// use tv_flow::classify::{classify, DeviceRole};
///
/// # fn main() -> Result<(), tv_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new(Tech::nmos4um());
/// let a = b.input("a");
/// let out = b.output("out");
/// let (pu, pd) = b.inverter("i", a, out);
/// let nl = b.finish()?;
/// let c = classify(&nl);
/// assert_eq!(c.device_roles[pu.index()], DeviceRole::PullUp);
/// assert_eq!(c.device_roles[pd.index()], DeviceRole::PullDown);
/// # Ok(())
/// # }
/// ```
pub fn classify(netlist: &Netlist) -> Classification {
    let device_roles = classify_devices(netlist);
    let node_classes = classify_nodes(netlist, &device_roles);
    Classification {
        device_roles,
        node_classes,
    }
}

fn is_clock(netlist: &Netlist, node: NodeId) -> bool {
    matches!(netlist.node(node).role(), NodeRole::Clock(_))
}

/// Assigns a [`DeviceRole`] to every device.
pub fn classify_devices(netlist: &Netlist) -> Vec<DeviceRole> {
    let vdd = netlist.vdd();
    let gnd = netlist.gnd();
    let mut roles: Vec<DeviceRole> = Vec::with_capacity(netlist.device_count());

    for dref in netlist.devices() {
        let d = dref.device;
        let role = match d.kind() {
            DeviceKind::Depletion => {
                if d.is_load_connected() {
                    DeviceRole::PullUp
                } else {
                    DeviceRole::ActivePullUp
                }
            }
            DeviceKind::Enhancement => {
                if d.channel_touches(gnd) {
                    DeviceRole::PullDown
                } else if d.channel_touches(vdd) {
                    if is_clock(netlist, d.gate()) {
                        DeviceRole::Precharge
                    } else {
                        DeviceRole::EnhPullUp
                    }
                } else {
                    // Internal–internal channel: interior pull-down leg or
                    // a pass transistor; refined below.
                    DeviceRole::Pass
                }
            }
        };
        roles.push(role);
    }

    refine_pulldown_interiors(netlist, &mut roles);
    roles
}

/// Walks pull-down networks up from GND, relabeling interior series legs
/// (initially marked `Pass`) as `PullDown`. The walk stops at nodes that
/// carry a pull-up (stage outputs) or storage/bus structure, so genuine
/// pass transistors hanging off a stage output are not swallowed.
fn refine_pulldown_interiors(netlist: &Netlist, roles: &mut [DeviceRole]) {
    let gnd = netlist.gnd();

    // Nodes that terminate a pull-down walk: anything holding a pull-up
    // (of any flavor) or a precharge device is a stage output.
    let mut is_output = vec![false; netlist.node_count()];
    for dref in netlist.devices() {
        let role = roles[dref.id.index()];
        if matches!(
            role,
            DeviceRole::PullUp
                | DeviceRole::ActivePullUp
                | DeviceRole::Precharge
                | DeviceRole::EnhPullUp
        ) {
            let d = dref.device;
            for t in [d.source(), d.drain()] {
                if t != netlist.vdd() {
                    is_output[t.index()] = true;
                }
            }
        }
    }

    // BFS from GND through enhancement channels.
    let mut frontier: Vec<NodeId> = vec![gnd];
    let mut visited = vec![false; netlist.node_count()];
    visited[gnd.index()] = true;
    while let Some(node) = frontier.pop() {
        for &did in netlist.node_devices(node).channel {
            let d = netlist.device(did);
            if d.kind() != DeviceKind::Enhancement {
                continue;
            }
            if roles[did.index()] == DeviceRole::Pass {
                roles[did.index()] = DeviceRole::PullDown;
            }
            let other = d.other_channel_end(node);
            if other == netlist.vdd() || visited[other.index()] {
                continue;
            }
            // Stop at stage outputs: devices beyond them are pass logic.
            if is_output[other.index()] {
                visited[other.index()] = true;
                continue;
            }
            visited[other.index()] = true;
            frontier.push(other);
        }
    }
}

/// Assigns a [`NodeClass`] to every node given the device roles.
pub fn classify_nodes(netlist: &Netlist, device_roles: &[DeviceRole]) -> Vec<NodeClass> {
    let mut classes = Vec::with_capacity(netlist.node_count());
    for id in netlist.node_ids() {
        let node = netlist.node(id);
        let class = match node.role() {
            NodeRole::Vdd | NodeRole::Gnd => NodeClass::Rail,
            NodeRole::Input | NodeRole::Clock(_) => NodeClass::External,
            _ => classify_internal_node(netlist, device_roles, id),
        };
        classes.push(class);
    }
    classes
}

fn classify_internal_node(netlist: &Netlist, device_roles: &[DeviceRole], id: NodeId) -> NodeClass {
    let at = netlist.node_devices(id);
    if at.channel.is_empty() {
        return NodeClass::GateOnly;
    }

    let mut has_static_pullup = false;
    let mut has_precharge = false;
    let mut pass_contacts = 0usize;
    for &did in at.channel {
        match device_roles[did.index()] {
            DeviceRole::PullUp | DeviceRole::ActivePullUp | DeviceRole::EnhPullUp => {
                has_static_pullup = true
            }
            DeviceRole::Precharge => has_precharge = true,
            DeviceRole::Pass => pass_contacts += 1,
            DeviceRole::PullDown => {}
        }
    }

    if !has_static_pullup && has_precharge {
        return NodeClass::Precharged;
    }
    if has_static_pullup {
        return NodeClass::Restored;
    }
    if at.channel.len() >= BUS_THRESHOLD {
        return NodeClass::Bus;
    }
    if pass_contacts == at.channel.len() && !at.gated.is_empty() {
        // Only pass channels touch it and it controls something: storage.
        return NodeClass::Storage;
    }
    NodeClass::PassInterior
}

/// Inventory of a chip by inferred class — the statistics table TV-class
/// tools printed for a newly extracted design.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Census {
    /// Node counts by class: rail, external, restored, precharged,
    /// storage, pass-interior, bus, gate-only.
    pub nodes: [usize; 8],
    /// Device counts by role: pull-up, active pull-up, pull-down,
    /// precharge, enhancement pull-up, pass.
    pub devices: [usize; 6],
}

impl Census {
    /// Counts every node class and device role in a classification.
    pub fn new(c: &Classification) -> Self {
        let mut census = Census::default();
        for class in &c.node_classes {
            let i = match class {
                NodeClass::Rail => 0,
                NodeClass::External => 1,
                NodeClass::Restored => 2,
                NodeClass::Precharged => 3,
                NodeClass::Storage => 4,
                NodeClass::PassInterior => 5,
                NodeClass::Bus => 6,
                NodeClass::GateOnly => 7,
            };
            census.nodes[i] += 1;
        }
        for role in &c.device_roles {
            let i = match role {
                DeviceRole::PullUp => 0,
                DeviceRole::ActivePullUp => 1,
                DeviceRole::PullDown => 2,
                DeviceRole::Precharge => 3,
                DeviceRole::EnhPullUp => 4,
                DeviceRole::Pass => 5,
            };
            census.devices[i] += 1;
        }
        census
    }

    /// Total nodes counted.
    pub fn node_total(&self) -> usize {
        self.nodes.iter().sum()
    }

    /// Total devices counted.
    pub fn device_total(&self) -> usize {
        self.devices.iter().sum()
    }
}

impl std::fmt::Display for Census {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "nodes: rail {}  external {}  restored {}  precharged {}  storage {}  interior {}  bus {}  gate-only {}",
            self.nodes[0], self.nodes[1], self.nodes[2], self.nodes[3],
            self.nodes[4], self.nodes[5], self.nodes[6], self.nodes[7],
        )?;
        write!(
            f,
            "devices: pull-up {}  active-pu {}  pull-down {}  precharge {}  enh-pu {}  pass {}",
            self.devices[0],
            self.devices[1],
            self.devices[2],
            self.devices[3],
            self.devices[4],
            self.devices[5],
        )
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
    fn census_totals_match_netlist() {
        let mut b = builder();
        let phi = b.clock("phi1", 0);
        let d = b.input("d");
        let qb = b.node("qb");
        b.dynamic_latch("l", phi, d, qb);
        let nl = b.finish().unwrap();
        let census = Census::new(&classify(&nl));
        assert_eq!(census.node_total(), nl.node_count());
        assert_eq!(census.device_total(), nl.device_count());
        // One storage node, one pass device, rails counted.
        assert_eq!(census.nodes[4], 1);
        assert_eq!(census.devices[5], 1);
        assert_eq!(census.nodes[0], 2);
        let text = census.to_string();
        assert!(text.contains("storage 1"));
        assert!(text.contains("pass 1"));
    }

    #[test]
    fn inverter_roles_and_classes() {
        let mut b = builder();
        let a = b.input("a");
        let out = b.output("out");
        b.inverter("i", a, out);
        let nl = b.finish().unwrap();
        let c = classify(&nl);
        assert_eq!(c.node_classes[a.index()], NodeClass::External);
        assert_eq!(c.node_classes[out.index()], NodeClass::Restored);
        assert_eq!(c.node_classes[nl.vdd().index()], NodeClass::Rail);
    }

    #[test]
    fn nand_interior_legs_become_pulldowns() {
        let mut b = builder();
        let i0 = b.input("i0");
        let i1 = b.input("i1");
        let i2 = b.input("i2");
        let out = b.node("out");
        b.nand("g", &[i0, i1, i2], out);
        let nl = b.finish().unwrap();
        let c = classify(&nl);
        let pulldowns = c
            .device_roles
            .iter()
            .filter(|r| **r == DeviceRole::PullDown)
            .count();
        assert_eq!(pulldowns, 3, "all series legs are pull-downs");
        assert!(!c.device_roles.contains(&DeviceRole::Pass));
        // Interior chain nodes are pass-interior (they restore nothing).
        let s0 = nl.node_by_name("g_s0").unwrap();
        assert_eq!(c.node_classes[s0.index()], NodeClass::PassInterior);
    }

    #[test]
    fn latch_storage_node_and_pass_device() {
        let mut b = builder();
        let phi = b.clock("phi", 0);
        let d = b.input("d");
        let qb = b.node("qb");
        let store = b.dynamic_latch("l", phi, d, qb);
        let nl = b.finish().unwrap();
        let c = classify(&nl);
        assert_eq!(c.node_classes[store.index()], NodeClass::Storage);
        let pass = nl
            .devices()
            .find(|dr| dr.device.name() == "l_pass")
            .unwrap();
        assert_eq!(c.device_roles[pass.id.index()], DeviceRole::Pass);
    }

    #[test]
    fn precharged_node_detected() {
        let mut b = builder();
        let phi = b.clock("phi", 0);
        let en = b.input("en");
        let bus = b.node("bus");
        b.precharge("pre", phi, bus);
        // Conditional discharge.
        b.enhancement("dis", en, b.gnd(), bus, 8.0, 4.0);
        let nl = b.finish().unwrap();
        let c = classify(&nl);
        assert_eq!(c.node_classes[bus.index()], NodeClass::Precharged);
        let pre = nl.devices().find(|d| d.device.name() == "pre").unwrap();
        assert_eq!(c.device_roles[pre.id.index()], DeviceRole::Precharge);
    }

    #[test]
    fn super_buffer_pullup_is_active() {
        let mut b = builder();
        let a = b.input("a");
        let out = b.output("out");
        b.super_buffer("sb", a, out, 4.0);
        let nl = b.finish().unwrap();
        let c = classify(&nl);
        let pu = nl.devices().find(|dr| dr.device.name() == "sb_pu").unwrap();
        assert_eq!(c.device_roles[pu.id.index()], DeviceRole::ActivePullUp);
        assert_eq!(c.node_classes[out.index()], NodeClass::Restored);
    }

    #[test]
    fn enh_pullup_vs_precharge_depends_on_gate() {
        let mut b = builder();
        let sig = b.input("sig");
        let x = b.node("x");
        let y = b.node("y");
        let phi = b.clock("phi", 0);
        let (vdd, gnd) = (b.vdd(), b.gnd());
        b.enhancement("follower", sig, vdd, x, 4.0, 4.0);
        b.enhancement("pre", phi, vdd, y, 4.0, 4.0);
        // Keep x and y from being floating stages only.
        b.enhancement("xd", sig, gnd, x, 4.0, 4.0);
        b.enhancement("yd", sig, gnd, y, 4.0, 4.0);
        let nl = b.finish().unwrap();
        let roles = classify_devices(&nl);
        let by_name = |n: &str| {
            nl.devices()
                .find(|d| d.device.name() == n)
                .map(|d| roles[d.id.index()])
                .unwrap()
        };
        assert_eq!(by_name("follower"), DeviceRole::EnhPullUp);
        assert_eq!(by_name("pre"), DeviceRole::Precharge);
    }

    #[test]
    fn bus_detection_by_contact_count() {
        let mut b = builder();
        let bus = b.node("bus");
        // Eight pass transistors onto the bus, nothing else.
        for i in 0..8 {
            let c = b.input(format!("c{i}"));
            let s = b.node(format!("s{i}"));
            let drv = b.input(format!("d{i}"));
            b.inverter(format!("inv{i}"), drv, s);
            b.pass(format!("p{i}"), c, s, bus);
        }
        let nl = b.finish().unwrap();
        let c = classify(&nl);
        assert_eq!(c.node_classes[bus.index()], NodeClass::Bus);
    }

    #[test]
    fn gate_only_node_class() {
        let mut b = builder();
        let a = b.node("a"); // internal, gates something, no channel
        let out = b.node("out");
        b.inverter("i", a, out);
        let nl = b.finish().unwrap();
        let c = classify(&nl);
        assert_eq!(c.node_classes[a.index()], NodeClass::GateOnly);
    }

    #[test]
    fn pass_chain_interior_nodes() {
        let mut b = builder();
        let a = b.input("a");
        let src = b.node("src");
        b.inverter("i", a, src);
        let mut prev = src;
        for i in 0..3 {
            let c = b.clock(format!("phi{i}"), 0);
            let next = b.node(format!("n{i}"));
            b.pass(format!("p{i}"), c, prev, next);
            prev = next;
        }
        let nl = b.finish().unwrap();
        let c = classify(&nl);
        // Interior chain node that gates nothing.
        let n0 = nl.node_by_name("n0").unwrap();
        assert_eq!(c.node_classes[n0.index()], NodeClass::PassInterior);
        // src still restored despite the pass fanout.
        assert_eq!(c.node_classes[src.index()], NodeClass::Restored);
    }
}
