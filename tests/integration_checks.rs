//! Electrical-check equivalence suite.
//!
//! `check_electrical` runs its ratio checks over one reused scratch: one
//! path-flag array for the pull-down resistance scan and the graph
//! layer's epoch-stamped stage-input walk for the degraded-input test.
//! This suite keeps the per-node formulation as the reference — a fresh
//! path array and a fresh hash-set walk for every restored node — and
//! requires the two to agree issue for issue, with ratios compared bit
//! for bit. The ratio checks are the only part of the pass that walks
//! networks, so the reference re-derives them and takes the remaining
//! checks (charge sharing, directions, conflicts) from the pass itself.

use std::collections::HashSet;

use nmos_tv::clocks::qualify::qualify_with_flow;
use nmos_tv::core::check_electrical;
use nmos_tv::core::graph::pull_up_resistance;
use nmos_tv::core::CheckIssue;
use nmos_tv::flow::{DeviceRole, FlowAnalysis, NodeClass, RuleSet};
use nmos_tv::gen::datapath::{datapath, DatapathConfig};
use nmos_tv::gen::mips_mc::t6_mips_mc;
use nmos_tv::gen::random::{random_logic, RandomMix};
use nmos_tv::gen::{adder, random, regfile, shifter};
use nmos_tv::netlist::{Netlist, NodeId, Tech};

/// Worst series pull-down resistance from `node` to GND, with a path
/// array allocated for this one call.
fn reference_pull_down(netlist: &Netlist, flow: &FlowAnalysis, node: NodeId) -> Option<f64> {
    fn dfs(
        netlist: &Netlist,
        flow: &FlowAnalysis,
        node: NodeId,
        acc: f64,
        on_path: &mut [bool],
        best: &mut Option<f64>,
    ) {
        on_path[node.index()] = true;
        for &did in netlist.node_devices(node).channel {
            if flow.device_role(did) != DeviceRole::PullDown {
                continue;
            }
            let dev = netlist.device(did);
            let other = dev.other_channel_end(node);
            let r = acc + dev.resistance(netlist.tech());
            if other == netlist.gnd() {
                *best = Some(best.map_or(r, |b: f64| b.max(r)));
            } else if other != netlist.vdd() && !on_path[other.index()] {
                dfs(netlist, flow, other, r, on_path, best);
            }
        }
        on_path[node.index()] = false;
    }
    let mut on_path = vec![false; netlist.node_count()];
    let mut best = None;
    dfs(netlist, flow, node, 0.0, &mut on_path, &mut best);
    best
}

/// Whether any pull-down gate below `out` is fed by a pass network,
/// walked with a fresh hash set.
fn reference_degraded(netlist: &Netlist, flow: &FlowAnalysis, out: NodeId) -> bool {
    let mut frontier = vec![out];
    let mut seen = HashSet::new();
    seen.insert(out);
    while let Some(node) = frontier.pop() {
        for &did in netlist.node_devices(node).channel {
            if flow.device_role(did) != DeviceRole::PullDown {
                continue;
            }
            let dev = netlist.device(did);
            if matches!(
                flow.node_class(dev.gate()),
                NodeClass::Storage | NodeClass::PassInterior | NodeClass::Bus
            ) {
                return true;
            }
            let other = dev.other_channel_end(node);
            if other != netlist.gnd() && other != netlist.vdd() && seen.insert(other) {
                frontier.push(other);
            }
        }
    }
    false
}

/// The per-node ratio checks, in node-id order.
fn reference_ratio_issues(netlist: &Netlist, flow: &FlowAnalysis) -> Vec<CheckIssue> {
    let tech = netlist.tech();
    let mut issues = Vec::new();
    for id in netlist.node_ids() {
        if flow.node_class(id) != NodeClass::Restored {
            continue;
        }
        let (Some(r_pu), Some(r_pd)) = (
            pull_up_resistance(netlist, flow, id),
            reference_pull_down(netlist, flow, id),
        ) else {
            continue;
        };
        let required = if reference_degraded(netlist, flow, id) {
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
    issues
}

/// Every field of an issue, floats as bit patterns.
fn key(issue: &CheckIssue) -> (u8, usize, u64, u64) {
    match issue {
        CheckIssue::RatioViolation {
            node,
            ratio,
            required,
        } => (0, node.index(), ratio.to_bits(), required.to_bits()),
        CheckIssue::ChargeSharing {
            node,
            stored_pf,
            shared_pf,
        } => (1, node.index(), stored_pf.to_bits(), shared_pf.to_bits()),
        CheckIssue::UnresolvedDirection { device } => (2, device.index(), 0, 0),
        CheckIssue::ClockConflict { node } => (3, node.index(), 0, 0),
    }
}

fn keys(issues: &[CheckIssue]) -> Vec<(u8, usize, u64, u64)> {
    issues.iter().map(key).collect()
}

/// Runs the pass twice and the reference once on `nl`, and requires all
/// three to agree bit for bit. Returns the number of ratio violations.
fn assert_matches_reference(name: &str, nl: &Netlist) -> usize {
    let flow = nmos_tv::flow::analyze(nl, &RuleSet::all());
    let qual = qualify_with_flow(nl, &flow);
    let got = check_electrical(nl, &flow, &qual);
    let again = check_electrical(nl, &flow, &qual);
    assert_eq!(
        keys(&got),
        keys(&again),
        "{name}: a second call on the same inputs differs"
    );

    // Ratio checks come first in the pass's deterministic order; the
    // reference re-derives exactly that prefix.
    let split = got
        .iter()
        .position(|i| !matches!(i, CheckIssue::RatioViolation { .. }))
        .unwrap_or(got.len());
    let mut want = reference_ratio_issues(nl, &flow);
    let ratio_count = want.len();
    want.extend(got[split..].iter().cloned());
    assert_eq!(
        keys(&got),
        keys(&want),
        "{name}: check_electrical differs from the per-node reference"
    );
    ratio_count
}

#[test]
fn checks_match_reference_on_mips32() {
    let nl = datapath(Tech::nmos4um(), DatapathConfig::mips32()).netlist;
    assert!(assert_matches_reference("mips32", &nl) > 0);
}

#[test]
fn checks_match_reference_on_random_logic() {
    for seed in 1..=3 {
        let nl = random_logic(Tech::nmos4um(), 20_000, seed, RandomMix::default()).netlist;
        assert_matches_reference(&format!("random-20000-seed{seed}"), &nl);
    }
}

#[test]
fn checks_match_reference_on_one_t6_core() {
    let nl = t6_mips_mc(Tech::nmos4um(), 1).netlist;
    assert!(assert_matches_reference("t6-1core", &nl) > 0);
}

#[test]
fn checks_match_reference_on_layout_workloads() {
    let t = Tech::nmos4um();
    let workloads = [
        ("adder-16", adder::ripple_carry_adder(t.clone(), 16).netlist),
        (
            "barrel-8x4",
            shifter::barrel_shifter(t.clone(), 8, 4).netlist,
        ),
        (
            "regfile-4x8",
            regfile::register_file(t.clone(), 4, 8).netlist,
        ),
        (
            "random-800",
            random::random_logic(t, 800, 0xA11CE, random::RandomMix::default()).netlist,
        ),
    ];
    for (name, nl) in &workloads {
        assert_matches_reference(name, nl);
    }
}
