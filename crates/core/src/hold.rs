//! Race (min-delay) analysis: the *other* failure mode of level-sensitive
//! two-phase design.
//!
//! Setup analysis asks whether the slowest path settles before a phase
//! closes. Race analysis asks the opposite: while a phase is open, every
//! latch of that phase is **transparent**, so if logic connects one
//! φp latch's output back to another φp latch's input, data can shoot
//! through two latches in a single phase — the classic race-through bug
//! the two-phase discipline exists to prevent (correct designs alternate
//! phases). TV-class verifiers reported exactly this structural hazard.
//!
//! The check runs on the per-phase timing graph: from every storage node
//! of the active phase, can another storage node of the same phase be
//! reached? The earliest possible arrival (minimum-delay propagation) is
//! reported as the race margin.

use std::collections::VecDeque;

use tv_clocks::latch::Latch;
use tv_netlist::{Netlist, NodeId};

use crate::graph::TimingGraph;

/// A same-phase race-through hazard.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceHazard {
    /// The latch storage node data races *into*.
    pub capture: NodeId,
    /// Earliest arrival at the capture node from some same-phase latch,
    /// ns after the phase opens. Small values are the dangerous ones.
    pub min_arrival: f64,
}

/// Minimum (earliest) arrival at every node from the given sources,
/// `f64::INFINITY` where unreachable. Uses each arc's smaller finite
/// delay — the best case the race needs.
pub fn min_arrivals(netlist: &Netlist, graph: &TimingGraph, sources: &[NodeId]) -> Vec<f64> {
    let n = netlist.node_count();
    let mut arr = vec![f64::INFINITY; n];
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    let mut queued = vec![false; n];
    for &s in sources {
        arr[s.index()] = 0.0;
        if !queued[s.index()] {
            queued[s.index()] = true;
            queue.push_back(s);
        }
    }
    // Monotone decreasing relaxation; terminates on any graph because
    // values only decrease and are bounded below by 0.
    let budget = 64 * (graph.arcs.len() + n).max(1);
    let mut relaxations = 0usize;
    while let Some(node) = queue.pop_front() {
        queued[node.index()] = false;
        if relaxations > budget {
            break;
        }
        let here = arr[node.index()];
        for &ai in graph.out_arcs_of(node) {
            let arc = &graph.arcs[ai as usize];
            let row = graph.delay_of(arc);
            let d = row.rise_delay.min(row.fall_delay);
            if !d.is_finite() {
                continue;
            }
            let cand = here + d;
            let to = arc.to.index();
            relaxations += 1;
            if cand < arr[to] - 1e-15 {
                arr[to] = cand;
                if !queued[to] {
                    queued[to] = true;
                    queue.push_back(arc.to);
                }
            }
        }
    }
    arr
}

/// Finds same-phase race-through hazards in one phase's graph: storage
/// nodes of `phase` reachable *through at least one arc* from storage
/// nodes of the same phase. Results are sorted by margin (most dangerous
/// first).
pub fn race_check(
    netlist: &Netlist,
    graph: &TimingGraph,
    latches: &[Latch],
    phase: u8,
) -> Vec<RaceHazard> {
    let storages: Vec<NodeId> = latches
        .iter()
        .filter(|l| l.phase == phase)
        .map(|l| l.storage)
        .collect();
    if storages.is_empty() {
        return Vec::new();
    }
    let arr = min_arrivals(netlist, graph, &storages);

    // A storage node is both source (arrival 0) and potential victim; the
    // racing arrival is the minimum over its *incoming* arcs.
    let mut is_storage = vec![false; netlist.node_count()];
    for &s in &storages {
        is_storage[s.index()] = true;
    }
    let mut incoming_min = vec![f64::INFINITY; netlist.node_count()];
    for arc in &graph.arcs {
        let row = graph.delay_of(arc);
        let d = row.rise_delay.min(row.fall_delay);
        if !d.is_finite() {
            continue;
        }
        let from_arr = arr[arc.from.index()];
        if !from_arr.is_finite() {
            continue;
        }
        let to = arc.to.index();
        if is_storage[to] {
            incoming_min[to] = incoming_min[to].min(from_arr + d);
        }
    }

    let mut hazards: Vec<RaceHazard> = storages
        .iter()
        .filter_map(|&s| {
            let m = incoming_min[s.index()];
            m.is_finite().then_some(RaceHazard {
                capture: s,
                min_arrival: m,
            })
        })
        .collect();
    hazards.sort_by(|a, b| a.min_arrival.total_cmp(&b.min_arrival));
    hazards
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{PhaseCase, TimingGraph};
    use crate::options::DelayModel;
    use tv_clocks::latch::find_latches;
    use tv_clocks::qualify::qualify_with_flow;
    use tv_flow::{analyze, RuleSet};
    use tv_netlist::{NetlistBuilder, Tech};

    fn setup(nl: &Netlist, phase: u8) -> (TimingGraph, Vec<Latch>) {
        let flow = analyze(nl, &RuleSet::all());
        let q = qualify_with_flow(nl, &flow);
        let latches = find_latches(nl, &flow, &q);
        let g = TimingGraph::build(
            nl,
            &flow,
            &q,
            PhaseCase::phase(phase),
            DelayModel::Elmore,
            1.0,
        );
        (g, latches)
    }

    #[test]
    fn proper_master_slave_has_no_race() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let phi1 = b.clock("phi1", 0);
        let phi2 = b.clock("phi2", 1);
        let d = b.input("d");
        let m = b.node("m");
        b.dynamic_latch("master", phi1, d, m);
        let q = b.node("q");
        b.dynamic_latch("slave", phi2, m, q);
        let nl = b.finish().unwrap();
        for phase in 0..2u8 {
            let (g, latches) = setup(&nl, phase);
            assert!(
                race_check(&nl, &g, &latches, phase).is_empty(),
                "phase {phase} raced"
            );
        }
    }

    #[test]
    fn two_same_phase_latches_in_series_race() {
        // The classic bug: both latches on φ1 — transparent together.
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let phi1 = b.clock("phi1", 0);
        let d = b.input("d");
        let m = b.node("m");
        b.dynamic_latch("first", phi1, d, m);
        let q = b.node("q");
        b.dynamic_latch("second", phi1, m, q);
        let nl = b.finish().unwrap();
        let (g, latches) = setup(&nl, 0);
        let hazards = race_check(&nl, &g, &latches, 0);
        assert_eq!(hazards.len(), 1, "{hazards:?}");
        let second_mem = nl.node_by_name("second_mem").unwrap();
        assert_eq!(hazards[0].capture, second_mem);
        assert!(hazards[0].min_arrival > 0.0);
    }

    #[test]
    fn min_arrivals_are_lower_than_max() {
        use crate::propagate::propagate;
        use tv_rc::SlopeModel;
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let x = b.node("x");
        let y = b.node("y");
        let z = b.output("z");
        b.inverter("i1", a, x);
        b.inverter("i2", x, y);
        b.inverter("i3", y, z);
        let nl = b.finish().unwrap();
        let flow = analyze(&nl, &RuleSet::all());
        let q = qualify_with_flow(&nl, &flow);
        let g = TimingGraph::build(
            &nl,
            &flow,
            &q,
            PhaseCase::all_active(),
            DelayModel::Elmore,
            1.0,
        );
        let min = min_arrivals(&nl, &g, &[a]);
        let max = propagate(&nl, &g, &[a], &[z], &SlopeModel::calibrated());
        for node in [x, y, z] {
            let lo = min[node.index()];
            let hi = max.arrival(node).unwrap();
            assert!(lo.is_finite());
            assert!(lo <= hi + 1e-12, "min {lo} > max {hi}");
            assert!(lo > 0.0);
        }
    }

    #[test]
    fn unreachable_nodes_stay_infinite() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let other = b.input("other");
        let x = b.node("x");
        let y = b.node("y");
        b.inverter("i1", a, x);
        b.inverter("i2", other, y);
        let nl = b.finish().unwrap();
        let flow = analyze(&nl, &RuleSet::all());
        let q = qualify_with_flow(&nl, &flow);
        let g = TimingGraph::build(
            &nl,
            &flow,
            &q,
            PhaseCase::all_active(),
            DelayModel::Elmore,
            1.0,
        );
        let min = min_arrivals(&nl, &g, &[a]);
        assert!(min[x.index()].is_finite());
        assert!(min[y.index()].is_infinite());
    }
}
