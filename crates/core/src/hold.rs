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
//! reached? The earliest possible arrival is reported as the race
//! margin. It comes from the arrival engine's early lane
//! ([`mod@crate::propagate`]), seeded with the phase's own storage nodes, so
//! the setup and race checks of a case share one walk.

use tv_clocks::latch::Latch;
use tv_netlist::{Netlist, NodeId};
use tv_rc::SlopeModel;

use crate::graph::TimingGraph;
use crate::propagate::{early_through, propagate_full, Arrivals, Guards, Workspace};

/// A same-phase race-through hazard.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceHazard {
    /// The latch storage node data races *into*.
    pub capture: NodeId,
    /// Earliest arrival at the capture node from some same-phase latch,
    /// ns after the phase opens. Small values are the dangerous ones.
    pub min_arrival: f64,
}

/// Finds same-phase race-through hazards in one phase's graph: storage
/// nodes of `phase` reachable *through at least one arc* from storage
/// nodes of the same phase. Results are sorted by margin (most dangerous
/// first).
///
/// A standalone walk for harnesses; an analysis reads the same hazards
/// off the case's own propagation.
pub fn race_check(
    netlist: &Netlist,
    graph: &TimingGraph,
    latches: &[Latch],
    phase: u8,
) -> Vec<RaceHazard> {
    let storages = phase_storages(latches, phase);
    if storages.is_empty() {
        return Vec::new();
    }
    // No late sources: only the early lane moves, so the slope model is
    // immaterial.
    let result = propagate_full(
        netlist,
        graph,
        &[],
        &storages,
        &[],
        &SlopeModel::disabled(),
        1,
        Guards::default(),
        &mut Workspace::new(),
        None,
    );
    races(graph, &result.arrivals, &storages)
}

/// Storage captured during phase `p`: transparent while it is open, so
/// both the early lane's sources and the nodes a race captures into.
pub(crate) fn phase_storages(latches: &[Latch], phase: u8) -> Vec<NodeId> {
    latches
        .iter()
        .filter(|l| l.phase == phase)
        .map(|l| l.storage)
        .collect()
}

/// The hazards a propagation whose early lane was seeded with
/// `storages` shows. A storage node is both source (early arrival 0) and
/// potential victim, so its racing arrival is the minimum over its
/// *incoming* arcs.
pub(crate) fn races(
    graph: &TimingGraph,
    arrivals: &Arrivals,
    storages: &[NodeId],
) -> Vec<RaceHazard> {
    let mut hazards: Vec<RaceHazard> = storages
        .iter()
        .filter_map(|&s| {
            let m = graph
                .in_arcs_of(s)
                .iter()
                .map(|&ai| {
                    let arc = &graph.arcs[ai as usize];
                    early_through(arrivals.early[arc.from.index()], graph.delay_of(arc))
                })
                .fold(f64::INFINITY, f64::min);
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

    /// Propagates from input `a` in the all-active case with `a` as the
    /// early lane's only source too.
    fn from_a(nl: &Netlist, a: NodeId, endpoints: &[NodeId]) -> crate::PhaseResult {
        let flow = analyze(nl, &RuleSet::all());
        let q = qualify_with_flow(nl, &flow);
        let g = TimingGraph::build(
            nl,
            &flow,
            &q,
            PhaseCase::all_active(),
            DelayModel::Elmore,
            1.0,
        );
        propagate_full(
            nl,
            &g,
            &[a],
            &[a],
            endpoints,
            &SlopeModel::calibrated(),
            1,
            Guards::default(),
            &mut Workspace::new(),
            None,
        )
    }

    #[test]
    fn min_arrivals_are_lower_than_max() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let x = b.node("x");
        let y = b.node("y");
        let z = b.output("z");
        b.inverter("i1", a, x);
        b.inverter("i2", x, y);
        b.inverter("i3", y, z);
        let nl = b.finish().unwrap();
        let r = from_a(&nl, a, &[z]);
        for node in [x, y, z] {
            let lo = r.arrivals.early(node).expect("reached");
            let hi = r.arrival(node).unwrap();
            assert!(lo <= hi, "early {lo} > late {hi}");
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
        let r = from_a(&nl, a, &[x, y]);
        assert!(r.arrivals.early(x).is_some());
        assert_eq!(r.arrivals.early(y), None);
    }

    /// A φ1 latch ring: `la(y→a)`, `i1(a→x)`, `lb(x→b)`, `i2(b→y)`.
    fn latch_ring() -> Netlist {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let phi1 = b.clock("phi1", 0);
        b.clock("phi2", 1);
        let a = b.node("a");
        let x = b.node("x");
        let bb = b.node("b");
        let y = b.node("y");
        b.dynamic_latch("la", phi1, y, a);
        b.inverter("i1", a, x);
        b.dynamic_latch("lb", phi1, x, bb);
        b.inverter("i2", bb, y);
        b.finish().unwrap()
    }

    #[test]
    fn races_are_found_through_a_diverging_residue() {
        // Both storages race at these bits, captured from the separate
        // min-delay walk this lane replaced.
        const MARGIN: u64 = 0x3fe8_73b7_3837_7c14; // 0.7641254518492837 ns
        let nl = latch_ring();
        let want: Vec<(NodeId, u64)> = ["la_mem", "lb_mem"]
            .iter()
            .map(|n| (nl.node_by_name(n).unwrap(), MARGIN))
            .collect();
        let bits = |hs: &[RaceHazard]| -> Vec<(NodeId, u64)> {
            hs.iter()
                .map(|h| (h.capture, h.min_arrival.to_bits()))
                .collect()
        };

        let (g, latches) = setup(&nl, 0);
        assert_eq!(g.schedule.residue.len(), 6);
        assert_eq!(bits(&race_check(&nl, &g, &latches, 0)), want);

        for jobs in [1, 2, 8] {
            let opts = crate::AnalysisOptions {
                jobs,
                ..crate::AnalysisOptions::default()
            };
            let report = crate::Analyzer::new(&nl).run(&opts);
            let p0 = &report.phases[0];
            assert!(p0.result.cyclic, "jobs {jobs}: the late lane must diverge");
            assert_eq!(p0.result.completion, crate::Completion::BudgetExhausted);
            assert_eq!(bits(&p0.races), want, "jobs {jobs}");
            assert!(report.phases[1].races.is_empty());
        }
    }
}
