//! The signal-flow direction fixpoint.

use tv_netlist::{codes, DeviceId, Diagnostic, Netlist, NodeId, NodeRole};

use crate::classify::{classify, DeviceRole, NodeClass};
use crate::rules::{Rule, RuleSet};
use crate::FlowReport;

/// The resolved flow direction of one transistor's channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// No rule could orient the device; the analyzer must treat it
    /// conservatively (both directions) and flag it.
    Unresolved,
    /// Signal flows through the channel *into* the given node (which is one
    /// of the device's channel terminals).
    Toward(NodeId),
    /// Evidence for both directions — a genuine bidirectional structure
    /// such as a shared bus coupler.
    Bidirectional,
}

impl Direction {
    /// Whether the device ended up with a single direction.
    #[inline]
    pub fn is_oriented(self) -> bool {
        matches!(self, Direction::Toward(_))
    }
}

/// The complete result of flow analysis over one netlist.
///
/// Produced by [`crate::analyze`]; owns the stage count, the
/// classification tables, and the per-device directions, which downstream
/// crates (RC modeling, the timing analyzer proper) consume.
#[derive(Debug, Clone)]
pub struct FlowAnalysis {
    stages: usize,
    device_roles: Vec<DeviceRole>,
    node_classes: Vec<NodeClass>,
    directions: Vec<Direction>,
    resolved_by: Vec<Option<Rule>>,
    sweeps: usize,
}

impl FlowAnalysis {
    /// Counts the stages ([`crate::stage::count`]), then runs
    /// classification and the direction fixpoint. Only the count is
    /// kept: the graph builder walks each stage from its output and
    /// groups stages by their canonical trace (`tv_core`'s `macromodel`).
    pub fn run(netlist: &Netlist, rules: &RuleSet) -> Self {
        Self::run_with_seeds(netlist, rules, &[])
    }

    /// Like [`FlowAnalysis::run`], with designer-supplied direction
    /// annotations applied before the rules: each `(device, downstream)`
    /// pair fixes that device's flow toward the given channel terminal.
    /// Seeded directions participate in the fixpoint (chains continue
    /// from them) and are reported as resolved by [`Rule::Seed`].
    ///
    /// # Panics
    ///
    /// Panics if a seed names a node that is not one of its device's
    /// channel terminals.
    pub fn run_with_seeds(
        netlist: &Netlist,
        rules: &RuleSet,
        seeds: &[(DeviceId, NodeId)],
    ) -> Self {
        let _span = tv_obs::span("flow.analyze");
        let stages = crate::stage::count(netlist);
        let c = classify(netlist);
        let n_dev = netlist.device_count();
        let mut directions = vec![Direction::Unresolved; n_dev];
        let mut resolved_by: Vec<Option<Rule>> = vec![None; n_dev];

        orient_drivers(netlist, &c.device_roles, &mut directions, &mut resolved_by);
        for &(dev, downstream) in seeds {
            let d = netlist.device(dev);
            assert!(
                d.channel_touches(downstream),
                "seed for {} names {}, not one of its channel terminals",
                d.name(),
                downstream
            );
            directions[dev.index()] = Direction::Toward(downstream);
            resolved_by[dev.index()] = Some(Rule::Seed);
        }
        let sweeps = orient_pass_devices(
            netlist,
            &c.device_roles,
            &c.node_classes,
            rules,
            &mut directions,
            &mut resolved_by,
        );

        let pass_devices = c
            .device_roles
            .iter()
            .filter(|r| **r == DeviceRole::Pass)
            .count();
        let oriented = directions
            .iter()
            .zip(c.device_roles.iter())
            .filter(|(d, r)| **r == DeviceRole::Pass && d.is_oriented())
            .count();
        tv_obs::add(tv_obs::Counter::FlowPassDevices, pass_devices as u64);
        tv_obs::add(tv_obs::Counter::FlowOriented, oriented as u64);

        FlowAnalysis {
            stages,
            device_roles: c.device_roles,
            node_classes: c.node_classes,
            directions,
            resolved_by,
            sweeps,
        }
    }

    /// The number of channel-connected stages in the netlist.
    #[inline]
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// The inferred role of a device.
    #[inline]
    pub fn device_role(&self, id: DeviceId) -> DeviceRole {
        self.device_roles[id.index()]
    }

    /// The inferred class of a node.
    #[inline]
    pub fn node_class(&self, id: NodeId) -> NodeClass {
        self.node_classes[id.index()]
    }

    /// The resolved direction of a device.
    #[inline]
    pub fn direction(&self, id: DeviceId) -> Direction {
        self.directions[id.index()]
    }

    /// Which rule resolved the device, if any.
    #[inline]
    pub fn resolved_by(&self, id: DeviceId) -> Option<Rule> {
        self.resolved_by[id.index()]
    }

    /// Number of sweeps the fixpoint took to stabilize.
    #[inline]
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }

    /// For an oriented device, `(upstream, downstream)` channel terminals.
    pub fn flow_endpoints(&self, netlist: &Netlist, id: DeviceId) -> Option<(NodeId, NodeId)> {
        match self.directions[id.index()] {
            Direction::Toward(dst) => {
                let d = netlist.device(id);
                Some((d.other_channel_end(dst), dst))
            }
            _ => None,
        }
    }

    /// Summarizes resolution coverage for reporting (experiment T2/A2).
    pub fn report(&self, netlist: &Netlist) -> FlowReport {
        FlowReport::from_analysis(self, netlist)
    }

    /// Chip inventory by inferred class (the statistics table of the era).
    pub fn census(&self) -> crate::classify::Census {
        crate::classify::Census::new(&crate::classify::Classification {
            device_roles: self.device_roles.clone(),
            node_classes: self.node_classes.clone(),
        })
    }

    /// Iterates over the pass devices that remain unresolved.
    pub fn unresolved<'a>(&'a self, netlist: &'a Netlist) -> impl Iterator<Item = DeviceId> + 'a {
        netlist
            .devices()
            .filter(|dref| {
                self.device_roles[dref.id.index()] == DeviceRole::Pass
                    && self.directions[dref.id.index()] == Direction::Unresolved
            })
            .map(|dref| dref.id)
    }

    /// Direction-resolution findings as shared [`Diagnostic`]s: a
    /// [`codes::FLOW_UNRESOLVED`] warning per pass device no rule could
    /// orient (the analyzer falls back to treating it bidirectionally),
    /// and a [`codes::FLOW_BIDIRECTIONAL`] note per device the rules
    /// deliberately left two-way (bus couplers and the like). Empty — and
    /// allocation-free — on a fully oriented netlist.
    pub fn diagnostics(&self, netlist: &Netlist) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for dref in netlist.devices() {
            let i = dref.id.index();
            if self.device_roles[i] != DeviceRole::Pass {
                continue;
            }
            match self.directions[i] {
                Direction::Unresolved => out.push(Diagnostic::warning(
                    codes::FLOW_UNRESOLVED,
                    format!(
                        "pass transistor {} could not be oriented; \
                         both directions will be analyzed",
                        dref.device.name()
                    ),
                )),
                Direction::Bidirectional => out.push(Diagnostic::info(
                    codes::FLOW_BIDIRECTIONAL,
                    format!(
                        "pass transistor {} is genuinely bidirectional",
                        dref.device.name()
                    ),
                )),
                Direction::Toward(_) => {}
            }
        }
        out
    }
}

/// Orients every non-pass device: signal enters a stage from the rail side,
/// so flow is toward the non-rail terminal (for interior pull-down legs,
/// toward the terminal farther from GND).
fn orient_drivers(
    netlist: &Netlist,
    roles: &[DeviceRole],
    directions: &mut [Direction],
    resolved_by: &mut [Option<Rule>],
) {
    let vdd = netlist.vdd();
    let gnd = netlist.gnd();
    let gnd_dist = gnd_distances(netlist, roles);

    for dref in netlist.devices() {
        let d = dref.device;
        let i = dref.id.index();
        let dir = match roles[i] {
            DeviceRole::Pass => continue,
            DeviceRole::PullUp
            | DeviceRole::ActivePullUp
            | DeviceRole::Precharge
            | DeviceRole::EnhPullUp => {
                // Flow from VDD into the stage.
                if d.source() == vdd {
                    Direction::Toward(d.drain())
                } else if d.drain() == vdd {
                    Direction::Toward(d.source())
                } else {
                    // Depletion channel between internal nodes (stray);
                    // leave unresolved rather than guess.
                    continue;
                }
            }
            DeviceRole::PullDown => {
                if d.source() == gnd {
                    Direction::Toward(d.drain())
                } else if d.drain() == gnd {
                    Direction::Toward(d.source())
                } else {
                    // Interior series leg: toward the output, i.e. the
                    // terminal farther from GND in the pull-down network.
                    let ds = gnd_dist[d.source().index()];
                    let dd = gnd_dist[d.drain().index()];
                    match (ds, dd) {
                        (Some(a), Some(b)) if a < b => Direction::Toward(d.drain()),
                        (Some(a), Some(b)) if b < a => Direction::Toward(d.source()),
                        _ => continue,
                    }
                }
            }
        };
        directions[i] = dir;
        resolved_by[i] = Some(Rule::Driver);
    }
}

/// BFS distance from GND through pull-down devices, stopping (like the
/// classifier) at nothing — distances are only compared within one chain.
fn gnd_distances(netlist: &Netlist, roles: &[DeviceRole]) -> Vec<Option<u32>> {
    let mut dist = vec![None; netlist.node_count()];
    let gnd = netlist.gnd();
    dist[gnd.index()] = Some(0);
    let mut frontier = vec![gnd];
    while let Some(node) = frontier.pop() {
        let d0 = dist[node.index()].expect("frontier nodes have distances");
        for &did in netlist.node_devices(node).channel {
            if roles[did.index()] != DeviceRole::PullDown {
                continue;
            }
            let other = netlist.device(did).other_channel_end(node);
            if other == netlist.vdd() {
                continue;
            }
            if dist[other.index()].is_none() {
                dist[other.index()] = Some(d0 + 1);
                frontier.push(other);
            }
        }
    }
    dist
}

/// Drive strength of a node from the pass fixpoint's point of view.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Drive {
    /// No evidence signal ever arrives here.
    None,
    /// Signal arrives only through already-oriented pass devices; such a
    /// node can still absorb more inflow (a wired mux junction).
    Arrived,
    /// Statically driven: restored, precharged, or external. Two `Strong`
    /// ends facing each other through one channel are a genuine
    /// bidirectional coupler.
    Strong,
}

/// The pass-device fixpoint. Returns the number of sweeps to stabilize.
///
/// Direction goes from the stronger end to the weaker; two `Strong` ends
/// make the device [`Direction::Bidirectional`]; two merely-`Arrived` ends
/// stay [`Direction::Unresolved`] (flagged for the designer).
///
/// Implemented as a worklist rather than repeated whole-netlist sweeps:
/// each "round" holds only the devices whose terminal drive changed since
/// they were last examined, marked in a boolean membership array that an
/// ascending cursor walks — so they are examined in ascending device
/// order, the order the sweep engine used, for the cost of one flag test
/// per device instead of a rule evaluation. Because the rules are *not*
/// monotone in drive (the sink rule fires only while a terminal is still
/// [`Drive::None`], the external rule only below [`Drive::Strong`]), that
/// ordering is semantic, not cosmetic: a drive upgrade made while
/// examining device `cur` is visible to device `e` in the same round only
/// if `e > cur` — exactly the devices a sweep had not yet reached, and
/// exactly the flags still ahead of the cursor — otherwise `e` waits for
/// the next round. The returned sweep count likewise reproduces the sweep
/// engine's: rounds map 1:1 to sweeps, plus the final no-change sweep
/// that proved the fixpoint.
fn orient_pass_devices(
    netlist: &Netlist,
    roles: &[DeviceRole],
    classes: &[NodeClass],
    rules: &RuleSet,
    directions: &mut [Direction],
    resolved_by: &mut [Option<Rule>],
) -> usize {
    let mut drive = vec![Drive::None; netlist.node_count()];
    for id in netlist.node_ids() {
        if matches!(
            classes[id.index()],
            NodeClass::External | NodeClass::Restored | NodeClass::Precharged | NodeClass::Rail
        ) {
            drive[id.index()] = Drive::Strong;
        }
    }
    // Pre-oriented devices (drivers and seeds) already deliver signal to
    // their downstream ends; the chain rule continues from there.
    for dir in directions.iter() {
        if let Direction::Toward(dst) = dir {
            if drive[dst.index()] == Drive::None {
                drive[dst.index()] = Drive::Arrived;
            }
        }
    }

    let is_external =
        |n: NodeId| matches!(netlist.node(n).role(), NodeRole::Input | NodeRole::Clock(_));
    let is_sinklike = |n: NodeId| {
        let at = netlist.node_devices(n);
        at.channel.len() == 1
            && (!at.gated.is_empty() || netlist.node(n).role() == NodeRole::Output)
    };
    let upstream_rule = |n: NodeId| {
        if matches!(
            classes[n.index()],
            NodeClass::Restored | NodeClass::Precharged | NodeClass::External
        ) {
            Rule::RestoredDrive
        } else {
            Rule::Chain
        }
    };

    let n_dev = netlist.device_count();
    let mut in_current = vec![false; n_dev];
    let mut in_next = vec![false; n_dev];
    let mut pending = 0usize;
    // The first round is the first sweep: every unresolved pass device.
    for i in 0..n_dev {
        if roles[i] == DeviceRole::Pass && directions[i] == Direction::Unresolved {
            in_current[i] = true;
            pending += 1;
        }
    }
    let mut next: Vec<DeviceId> = Vec::new();

    let mut sweeps = 0;
    let mut pops = 0u64;
    loop {
        sweeps += 1;
        if pending == 0 {
            // A sweep over devices with unchanged terminals cannot
            // resolve anything: this is the engine's final quiet sweep.
            break;
        }
        let mut changed = false;
        let mut cursor = 0usize;
        while cursor < n_dev {
            if !in_current[cursor] {
                cursor += 1;
                continue;
            }
            let i = cursor;
            cursor += 1;
            in_current[i] = false;
            pending -= 1;
            pops += 1;
            if directions[i] != Direction::Unresolved {
                continue;
            }
            let id = DeviceId::from_index(i);
            let d = netlist.device(id);
            let (a, b) = (d.source(), d.drain());
            let (da, db) = (drive[a.index()], drive[b.index()]);

            // The rule cascade, in the sweep engine's exact order.
            let decision = if da == Drive::Strong && db == Drive::Strong {
                // Two static drivers facing each other: genuine coupler.
                Some((Direction::Bidirectional, Rule::RestoredDrive))
            } else if rules.external && is_external(a) && db < Drive::Strong {
                Some((Direction::Toward(b), Rule::External))
            } else if rules.external && is_external(b) && da < Drive::Strong {
                Some((Direction::Toward(a), Rule::External))
            } else if da > db
                && ((upstream_rule(a) == Rule::RestoredDrive && rules.restored)
                    || (upstream_rule(a) == Rule::Chain && rules.chain))
            {
                Some((Direction::Toward(b), upstream_rule(a)))
            } else if db > da
                && ((upstream_rule(b) == Rule::RestoredDrive && rules.restored)
                    || (upstream_rule(b) == Rule::Chain && rules.chain))
            {
                Some((Direction::Toward(a), upstream_rule(b)))
            } else if rules.sink && db == Drive::None && is_sinklike(b) {
                Some((Direction::Toward(b), Rule::Sink))
            } else if rules.sink && da == Drive::None && is_sinklike(a) {
                Some((Direction::Toward(a), Rule::Sink))
            } else {
                None
            };

            let Some((dir, rule)) = decision else {
                continue;
            };
            directions[i] = dir;
            resolved_by[i] = Some(rule);
            changed = true;
            if let Direction::Toward(dst) = dir {
                if drive[dst.index()] == Drive::None {
                    drive[dst.index()] = Drive::Arrived;
                    // Re-examine unresolved pass devices touching the
                    // upgraded node: still-ahead devices join this round
                    // (the sweep had not reached them yet), already-passed
                    // ones wait for the next.
                    for &e in netlist.node_devices(dst).channel {
                        let ei = e.index();
                        if roles[ei] != DeviceRole::Pass || directions[ei] != Direction::Unresolved
                        {
                            continue;
                        }
                        if ei > i {
                            if !in_current[ei] {
                                in_current[ei] = true;
                                pending += 1;
                            }
                        } else if !in_next[ei] {
                            in_next[ei] = true;
                            next.push(e);
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
        for e in next.drain(..) {
            in_next[e.index()] = false;
            in_current[e.index()] = true;
            pending += 1;
        }
    }
    tv_obs::add(tv_obs::Counter::FlowSweeps, sweeps as u64);
    tv_obs::add(tv_obs::Counter::FlowWorklistPops, pops);
    sweeps
}

#[cfg(test)]
mod tests {
    use super::*;
    use tv_netlist::{NetlistBuilder, Tech};

    fn builder() -> NetlistBuilder {
        NetlistBuilder::new(Tech::nmos4um())
    }

    fn find_dev(nl: &Netlist, name: &str) -> DeviceId {
        nl.devices()
            .find(|d| d.device.name() == name)
            .unwrap_or_else(|| panic!("no device named {name}"))
            .id
    }

    #[test]
    fn inverter_devices_flow_into_output() {
        let mut b = builder();
        let a = b.input("a");
        let out = b.output("out");
        let (pu, pd) = b.inverter("i", a, out);
        let nl = b.finish().unwrap();
        let f = FlowAnalysis::run(&nl, &RuleSet::all());
        assert_eq!(f.direction(pu), Direction::Toward(out));
        assert_eq!(f.direction(pd), Direction::Toward(out));
        assert_eq!(f.resolved_by(pu), Some(Rule::Driver));
    }

    #[test]
    fn nand_interior_flows_toward_output() {
        let mut b = builder();
        let i0 = b.input("i0");
        let i1 = b.input("i1");
        let out = b.node("out");
        b.nand("g", &[i0, i1], out);
        let nl = b.finish().unwrap();
        let f = FlowAnalysis::run(&nl, &RuleSet::all());
        // pd0 is the leg adjacent to the output; it must flow into `out`.
        let pd0 = find_dev(&nl, "g_pd0");
        assert_eq!(f.direction(pd0), Direction::Toward(out));
    }

    #[test]
    fn pass_chain_resolves_downstream() {
        let mut b = builder();
        let a = b.input("a");
        let phi = b.clock("phi", 0);
        let src = b.node("src");
        b.inverter("i", a, src);
        let n1 = b.node("n1");
        let n2 = b.node("n2");
        let qb = b.node("qb");
        b.pass("p1", phi, src, n1);
        b.pass("p2", phi, n1, n2);
        b.inverter("i2", n2, qb);
        let nl = b.finish().unwrap();
        let f = FlowAnalysis::run(&nl, &RuleSet::all());
        assert_eq!(f.direction(find_dev(&nl, "p1")), Direction::Toward(n1));
        assert_eq!(f.direction(find_dev(&nl, "p2")), Direction::Toward(n2));
        // p1 resolves off the restored source, p2 by chaining.
        assert_eq!(
            f.resolved_by(find_dev(&nl, "p1")),
            Some(Rule::RestoredDrive)
        );
        assert_eq!(f.resolved_by(find_dev(&nl, "p2")), Some(Rule::Chain));
    }

    #[test]
    fn input_fed_pass_uses_external_rule() {
        let mut b = builder();
        let d = b.input("d");
        let phi = b.clock("phi", 0);
        let qb = b.node("qb");
        b.dynamic_latch("l", phi, d, qb);
        let nl = b.finish().unwrap();
        let f = FlowAnalysis::run(&nl, &RuleSet::all());
        let p = find_dev(&nl, "l_pass");
        let store = nl.node_by_name("l_mem").unwrap();
        assert_eq!(f.direction(p), Direction::Toward(store));
        assert_eq!(f.resolved_by(p), Some(Rule::External));
    }

    #[test]
    fn sink_rule_alone_resolves_latch_from_unknown_source() {
        let mut b = builder();
        // Source side is an undriven internal node: only the sink rule can
        // orient the pass device.
        let mystery = b.node("mystery");
        let other = b.node("other");
        let ctl = b.node("ctl");
        b.pass("p0", ctl, other, mystery); // keep mystery non-sink
        let phi = b.clock("phi", 0);
        let qb = b.node("qb");
        let store = b.dynamic_latch("l", phi, mystery, qb);
        let nl = b.finish().unwrap();
        let only_sink = RuleSet {
            external: false,
            restored: false,
            chain: false,
            sink: true,
        };
        let f = FlowAnalysis::run(&nl, &only_sink);
        let p = find_dev(&nl, "l_pass");
        assert_eq!(f.direction(p), Direction::Toward(store));
        assert_eq!(f.resolved_by(p), Some(Rule::Sink));
    }

    #[test]
    fn two_drivers_meet_bidirectional() {
        let mut b = builder();
        let a = b.input("a");
        let c = b.input("c");
        let x = b.node("x");
        let y = b.node("y");
        b.inverter("i1", a, x);
        b.inverter("i2", a, y);
        b.pass("coupler", c, x, y);
        let nl = b.finish().unwrap();
        let f = FlowAnalysis::run(&nl, &RuleSet::all());
        assert_eq!(
            f.direction(find_dev(&nl, "coupler")),
            Direction::Bidirectional
        );
    }

    #[test]
    fn no_rules_leaves_pass_unresolved() {
        let mut b = builder();
        let a = b.input("a");
        let phi = b.clock("phi", 0);
        let src = b.node("src");
        let dst = b.node("dst");
        b.inverter("i", a, src);
        b.pass("p", phi, src, dst);
        let _tmp_z = b.node("z");
        b.inverter("i2", dst, _tmp_z);
        let nl = b.finish().unwrap();
        let f = FlowAnalysis::run(&nl, &RuleSet::none());
        assert_eq!(f.direction(find_dev(&nl, "p")), Direction::Unresolved);
        assert_eq!(f.unresolved(&nl).count(), 1);
    }

    #[test]
    fn mux_resolves_both_branches_onto_shared_node() {
        let mut b = builder();
        let a = b.input("a");
        let s0 = b.input("s0");
        let s1 = b.input("s1");
        let x0 = b.node("x0");
        let x1 = b.node("x1");
        let m = b.node("m");
        b.inverter("i0", a, x0);
        b.inverter("i1", a, x1);
        b.pass("p0", s0, x0, m);
        b.pass("p1", s1, x1, m);
        let _tmp_mb = b.node("mb");
        b.inverter("im", m, _tmp_mb);
        let nl = b.finish().unwrap();
        let f = FlowAnalysis::run(&nl, &RuleSet::all());
        assert_eq!(f.direction(find_dev(&nl, "p0")), Direction::Toward(m));
        assert_eq!(f.direction(find_dev(&nl, "p1")), Direction::Toward(m));
    }

    #[test]
    fn flow_endpoints_orders_upstream_downstream() {
        let mut b = builder();
        let d = b.input("d");
        let phi = b.clock("phi", 0);
        let qb = b.node("qb");
        b.dynamic_latch("l", phi, d, qb);
        let nl = b.finish().unwrap();
        let f = FlowAnalysis::run(&nl, &RuleSet::all());
        let p = find_dev(&nl, "l_pass");
        let store = nl.node_by_name("l_mem").unwrap();
        assert_eq!(f.flow_endpoints(&nl, p), Some((d, store)));
    }

    #[test]
    fn seed_orients_an_unresolvable_device_and_chains_continue() {
        let mut b = builder();
        let ctl = b.node("ctl");
        let x = b.node("x");
        let y = b.node("y");
        let z = b.node("z");
        // Two floating pass devices: nothing orients them without help.
        b.pass("p0", ctl, x, y);
        b.pass("p1", ctl, y, z);
        let nl = b.finish().unwrap();
        let f = FlowAnalysis::run(&nl, &RuleSet::all());
        assert_eq!(f.unresolved(&nl).count(), 2);

        // Seed the first device; the chain rule finishes the second.
        let p0 = find_dev(&nl, "p0");
        let f = FlowAnalysis::run_with_seeds(&nl, &RuleSet::all(), &[(p0, y)]);
        assert_eq!(f.direction(p0), Direction::Toward(y));
        assert_eq!(f.resolved_by(p0), Some(Rule::Seed));
        let p1 = find_dev(&nl, "p1");
        assert_eq!(f.direction(p1), Direction::Toward(z));
        assert_eq!(f.resolved_by(p1), Some(Rule::Chain));
        assert_eq!(f.unresolved(&nl).count(), 0);
    }

    #[test]
    #[should_panic(expected = "channel terminals")]
    fn seed_with_wrong_node_panics() {
        let mut b = builder();
        let ctl = b.node("ctl");
        let x = b.node("x");
        let y = b.node("y");
        b.pass("p0", ctl, x, y);
        let nl = b.finish().unwrap();
        let p0 = find_dev(&nl, "p0");
        // `ctl` is the gate, not a channel terminal.
        let _ = FlowAnalysis::run_with_seeds(&nl, &RuleSet::all(), &[(p0, ctl)]);
    }

    #[test]
    fn fixpoint_terminates_quickly_on_long_chain() {
        let mut b = builder();
        let a = b.input("a");
        let phi = b.clock("phi", 0);
        let src = b.node("src");
        b.inverter("i", a, src);
        let mut prev = src;
        for i in 0..40 {
            let next = b.node(format!("n{i}"));
            b.pass(format!("p{i}"), phi, prev, next);
            prev = next;
        }
        let _tmp_out = b.node("out");
        b.inverter("fin", prev, _tmp_out);
        let nl = b.finish().unwrap();
        let f = FlowAnalysis::run(&nl, &RuleSet::all());
        // Every pass device oriented; within-sweep propagation keeps the
        // sweep count far below the chain length.
        assert_eq!(f.unresolved(&nl).count(), 0);
        assert!(f.sweeps() <= 3, "took {} sweeps", f.sweeps());
    }
}
