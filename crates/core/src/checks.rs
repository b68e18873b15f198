//! Electrical rule checks — the non-timing half of a 1983 timing
//! verifier's report.
//!
//! Ratioed nMOS fails silently in ways a modern static CMOS designer never
//! sees: a pull-up sized too strong leaves the low level above threshold;
//! a storage node sharing charge with a big undriven network loses its
//! value; an unorientable pass transistor makes every delay downstream of
//! it untrustworthy. TV printed these alongside the critical paths, and
//! so does this module.

use std::fmt;

use tv_clocks::qualify::Qualification;
use tv_flow::{DeviceRole, Direction, FlowAnalysis, NodeClass};
use tv_netlist::{codes, DeviceId, Diagnostic, Netlist, NodeId};

use crate::graph::{
    pull_down_resistance_with, pull_up_resistance, stage_inputs_into, BuildScratch, StageInputKind,
};

/// One electrical diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckIssue {
    /// A restoring stage whose pull-up/pull-down resistance ratio is below
    /// the technology requirement: its logic-low output sits too high.
    RatioViolation {
        /// The stage output node.
        node: NodeId,
        /// Measured R_pu / R_pd.
        ratio: f64,
        /// Required minimum ratio (4, or 8 when driven through pass logic).
        required: f64,
    },
    /// A dynamic node whose stored charge can redistribute onto a
    /// comparable undriven capacitance when a pass device opens.
    ChargeSharing {
        /// The storage/precharged node at risk.
        node: NodeId,
        /// Its capacitance, pF.
        stored_pf: f64,
        /// The undriven capacitance it may share with, pF.
        shared_pf: f64,
    },
    /// A pass transistor no direction rule could orient: delays through it
    /// are analyzed conservatively and should be reviewed.
    UnresolvedDirection {
        /// The unoriented device.
        device: DeviceId,
    },
    /// A node derived from both clock phases.
    ClockConflict {
        /// The conflicted node.
        node: NodeId,
    },
}

impl CheckIssue {
    /// Renders with netlist names.
    pub fn display(&self, netlist: &Netlist) -> String {
        match self {
            CheckIssue::RatioViolation {
                node,
                ratio,
                required,
            } => format!(
                "ratio violation at {}: R_pu/R_pd = {ratio:.2}, need >= {required}",
                netlist.node_name(*node)
            ),
            CheckIssue::ChargeSharing {
                node,
                stored_pf,
                shared_pf,
            } => format!(
                "charge sharing at {}: {stored_pf:.4} pF stored vs {shared_pf:.4} pF shared",
                netlist.node_name(*node)
            ),
            CheckIssue::UnresolvedDirection { device } => format!(
                "unresolved pass direction: {}",
                netlist.device(*device).name()
            ),
            CheckIssue::ClockConflict { node } => format!(
                "clock qualification conflict at {}",
                netlist.node_name(*node)
            ),
        }
    }

    /// The stable diagnostic code for this check kind.
    pub fn code(&self) -> &'static str {
        match self {
            CheckIssue::RatioViolation { .. } => codes::CHECK_RATIO,
            CheckIssue::ChargeSharing { .. } => codes::CHECK_CHARGE_SHARING,
            CheckIssue::UnresolvedDirection { .. } => codes::FLOW_UNRESOLVED,
            CheckIssue::ClockConflict { .. } => codes::CHECK_CLOCK_CONFLICT,
        }
    }

    /// Renders this check as a [`Diagnostic`] on the unified stream.
    /// Electrical checks are warnings: the analysis completed, but the
    /// circuit may not work at the reported speed.
    pub fn diagnostic(&self, netlist: &Netlist) -> Diagnostic {
        Diagnostic::warning(self.code(), self.display(netlist))
    }
}

impl fmt::Display for CheckIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckIssue::RatioViolation {
                ratio, required, ..
            } => {
                write!(f, "ratio violation ({ratio:.2} < {required})")
            }
            CheckIssue::ChargeSharing { .. } => write!(f, "charge sharing hazard"),
            CheckIssue::UnresolvedDirection { device } => {
                write!(f, "unresolved pass direction ({device})")
            }
            CheckIssue::ClockConflict { node } => write!(f, "clock conflict ({node})"),
        }
    }
}

/// Fraction of a dynamic node's capacitance that undriven pass-adjacent
/// capacitance may reach before we call it a charge-sharing hazard.
pub const CHARGE_SHARE_LIMIT: f64 = 0.5;

/// Runs every electrical check. Deterministic order: ratio checks by node
/// id, then charge sharing, then unresolved directions, then conflicts.
pub fn check_electrical(
    netlist: &Netlist,
    flow: &FlowAnalysis,
    qualification: &[Qualification],
) -> Vec<CheckIssue> {
    let tech = netlist.tech();
    let mut issues = Vec::new();

    // Ratio checks on restored nodes. One scratch serves every stage, so
    // the pass is linear in the pull-down networks it walks.
    let mut scratch = BuildScratch::new(netlist.node_count());
    for id in netlist.node_ids() {
        if flow.node_class(id) != NodeClass::Restored {
            continue;
        }
        let (Some(r_pu), Some(r_pd)) = (
            pull_up_resistance(netlist, flow, id),
            pull_down_resistance_with(netlist, flow, id, &mut scratch.on_path),
        ) else {
            continue;
        };
        // A pull-down gate fed by a pass network sees a degraded high
        // level (VDD − V_T), which doubles the required ratio.
        stage_inputs_into(netlist, flow, id, &mut scratch);
        let degraded = scratch.inputs.iter().any(|i| {
            i.kind == StageInputKind::PullDownGate
                && matches!(
                    flow.node_class(i.node),
                    NodeClass::Storage | NodeClass::PassInterior | NodeClass::Bus
                )
        });
        let required = if degraded {
            tech.ratio_through_pass
        } else {
            tech.ratio_restored
        };
        let ratio = r_pu / r_pd;
        if ratio < required * 0.999 {
            issues.push(CheckIssue::RatioViolation {
                node: id,
                ratio,
                required,
            });
        }
    }

    // Charge sharing on dynamic nodes.
    for id in netlist.node_ids() {
        let class = flow.node_class(id);
        if !matches!(class, NodeClass::Storage | NodeClass::Precharged) {
            continue;
        }
        let stored = netlist.node_cap(id);
        let mut shared = 0.0;
        for &did in netlist.node_devices(id).channel {
            if flow.device_role(did) != DeviceRole::Pass {
                continue;
            }
            let other = netlist.device(did).other_channel_end(id);
            // Charge only redistributes onto sides nothing restores.
            if matches!(
                flow.node_class(other),
                NodeClass::PassInterior | NodeClass::Storage | NodeClass::GateOnly
            ) {
                shared += netlist.node_cap(other);
            }
        }
        if stored > 0.0 && shared > CHARGE_SHARE_LIMIT * stored {
            issues.push(CheckIssue::ChargeSharing {
                node: id,
                stored_pf: stored,
                shared_pf: shared,
            });
        }
    }

    // Unresolved pass directions.
    for dref in netlist.devices() {
        if flow.device_role(dref.id) == DeviceRole::Pass
            && flow.direction(dref.id) == Direction::Unresolved
        {
            issues.push(CheckIssue::UnresolvedDirection { device: dref.id });
        }
    }

    // Clock qualification conflicts.
    for id in netlist.node_ids() {
        if qualification[id.index()] == Qualification::Conflict {
            issues.push(CheckIssue::ClockConflict { node: id });
        }
    }

    issues
}

#[cfg(test)]
mod tests {
    use super::*;
    use tv_clocks::qualify::qualify_with_flow;
    use tv_flow::{analyze, RuleSet};
    use tv_netlist::{NetlistBuilder, Tech};

    fn run_checks(nl: &Netlist) -> Vec<CheckIssue> {
        let flow = analyze(nl, &RuleSet::all());
        let q = qualify_with_flow(nl, &flow);
        check_electrical(nl, &flow, &q)
    }

    #[test]
    fn standard_inverter_is_clean() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let out = b.output("out");
        b.inverter("i", a, out);
        let nl = b.finish().unwrap();
        assert!(run_checks(&nl).is_empty(), "{:?}", run_checks(&nl));
    }

    #[test]
    fn overstrong_pulldown_is_fine_overweak_is_not() {
        // Pull-up at 2 squares, pull-down deliberately long at 2 squares:
        // electrical ratio ≈ r_dep/r_enh (~1.4) < 4. Violation.
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let out = b.output("out");
        b.depletion_load(out, 4.0, 8.0);
        let gnd = b.gnd();
        b.enhancement("pd", a, gnd, out, 4.0, 8.0);
        let nl = b.finish().unwrap();
        let issues = run_checks(&nl);
        assert!(issues
            .iter()
            .any(|i| matches!(i, CheckIssue::RatioViolation { ratio, .. } if *ratio < 2.0)));
    }

    #[test]
    fn pass_driven_stage_needs_ratio_eight() {
        // Inverter whose input comes through a pass transistor: the
        // standard 4:1 inverter violates the 8:1 requirement.
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let phi = b.clock("phi1", 0);
        let d = b.input("d");
        let qb = b.node("qb");
        b.dynamic_latch("l", phi, d, qb);
        let nl = b.finish().unwrap();
        let issues = run_checks(&nl);
        assert!(
            issues.iter().any(|i| matches!(
                i,
                CheckIssue::RatioViolation { required, .. } if *required == 8.0
            )),
            "{issues:?}"
        );
    }

    /// The `required` ratio of a violation reported at `out`, if any.
    fn ratio_required_at(nl: &Netlist, out: NodeId) -> Option<f64> {
        run_checks(nl).into_iter().find_map(|i| match i {
            CheckIssue::RatioViolation { node, required, .. } if node == out => Some(required),
            _ => None,
        })
    }

    /// A 2-input NAND whose ground-side series pull-down is gated by a
    /// dynamic-latch storage node (`storage`) or by a restoring inverter.
    fn nand_stack_required(storage: bool) -> Option<f64> {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let (x, y) = (b.input("x"), b.input("y"));
        let top = b.node("top");
        b.inverter("itop", x, top);
        let bottom = if storage {
            let phi = b.clock("phi1", 0);
            let qb = b.node("qb");
            b.dynamic_latch("l", phi, y, qb)
        } else {
            let bottom = b.node("bottom");
            b.inverter("ibot", y, bottom);
            bottom
        };
        let out = b.output("out");
        b.nand("g", &[top, bottom], out);
        ratio_required_at(&b.finish().unwrap(), out)
    }

    #[test]
    fn degraded_input_deep_in_a_series_stack_needs_ratio_eight() {
        // The storage node gates the device one below the output, so
        // only a walk of the whole stack finds it.
        assert_eq!(nand_stack_required(true), Some(8.0));
    }

    #[test]
    fn restored_inputs_hold_a_series_stack_to_ratio_four() {
        // Sized 4:1, the NAND meets the 4:1 rule; it is flagged only if
        // wrongly held to 8:1.
        assert_eq!(nand_stack_required(false), None);
    }

    #[test]
    fn storage_gated_active_pull_up_keeps_ratio_four() {
        // A 4:1 stage whose depletion pull-up is gated by a storage node
        // and whose pull-down is gated by a restored input. Only
        // pull-down gates lower the output's low level, so the degraded
        // pull-up gate must not raise the requirement to 8:1.
        let tech = Tech::nmos4um();
        let s = tech.min_size();
        let mut b = NetlistBuilder::new(tech);
        let phi = b.clock("phi1", 0);
        let (d, x) = (b.input("d"), b.input("x"));
        let qb = b.node("qb");
        let store = b.dynamic_latch("l", phi, d, qb);
        let inp = b.node("inp");
        b.inverter("iin", x, inp);
        let out = b.output("out");
        let (vdd, gnd) = (b.vdd(), b.gnd());
        b.depletion("pu", store, vdd, out, s, 2.0 * s);
        b.enhancement("pd", inp, gnd, out, 2.0 * s, s);
        assert_eq!(ratio_required_at(&b.finish().unwrap(), out), None);
    }

    #[test]
    fn charge_sharing_flagged_on_big_shared_cap() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let phi = b.clock("phi1", 0);
        let sel = b.clock("phi2", 1);
        let d = b.input("d");
        let qb = b.node("qb");
        let store = b.dynamic_latch("l", phi, d, qb);
        // Pass device from the storage node onto a big dead capacitance,
        // opened on the other phase.
        let big = b.node("big");
        b.pass("share", sel, store, big);
        b.add_cap(big, 1.0).unwrap();
        // Give `big` a second pass contact so it is not a single-contact
        // sink and stays an undriven interior node.
        let other = b.node("other");
        b.pass("share2", sel, big, other);
        let nl = b.finish().unwrap();
        let issues = run_checks(&nl);
        assert!(
            issues
                .iter()
                .any(|i| matches!(i, CheckIssue::ChargeSharing { node, .. } if *node == store)),
            "{issues:?}"
        );
    }

    #[test]
    fn unresolved_direction_reported() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let c = b.input("c");
        let x = b.node("x");
        let y = b.node("y");
        // Channel between two floating internal nodes: nothing orients it.
        b.pass("mystery", c, x, y);
        // Keep x/y multi-contact so the sink rule stays quiet.
        let z = b.node("z");
        b.pass("m2", c, y, z);
        let nl = b.finish().unwrap();
        let issues = run_checks(&nl);
        assert!(issues
            .iter()
            .any(|i| matches!(i, CheckIssue::UnresolvedDirection { .. })));
    }

    #[test]
    fn clock_conflict_reported() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let phi1 = b.clock("phi1", 0);
        let phi2 = b.clock("phi2", 1);
        let bad = b.node("bad");
        b.nand("g", &[phi1, phi2], bad);
        let nl = b.finish().unwrap();
        let issues = run_checks(&nl);
        assert!(issues
            .iter()
            .any(|i| matches!(i, CheckIssue::ClockConflict { .. })));
    }

    #[test]
    fn issue_display_uses_names() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let out = b.output("badnode");
        b.depletion_load(out, 4.0, 8.0);
        let gnd = b.gnd();
        b.enhancement("pd", a, gnd, out, 4.0, 8.0);
        let nl = b.finish().unwrap();
        let issues = run_checks(&nl);
        let text = issues[0].display(&nl);
        assert!(text.contains("badnode"));
    }
}
