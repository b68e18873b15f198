//! The analyzer facade: one call from netlist to full timing report.
//!
//! Since the pass-pipeline refactor this type is a thin shim over
//! [`crate::pipeline`]: each call runs a throwaway
//! [`crate::pipeline::PassManager`] whose every pass computes cold, which
//! is byte-for-byte the pre-pipeline behavior. Hold a `PassManager` over
//! a [`tv_netlist::Design`] instead when you re-analyze after edits.

use tv_clocks::latch::Latch;
use tv_clocks::qualify::qualify_with_flow;
use tv_flow::{Census, FlowReport};
use tv_netlist::{Diagnostic, Netlist, NodeId, NodeRole};

use crate::checks::CheckIssue;
use crate::error::TvError;
use crate::graph::{PhaseCase, TimingGraph};
use crate::hold::RaceHazard;
use crate::options::AnalysisOptions;
use crate::paths::TimingPath;
use crate::propagate::{propagate, Completion, PhaseResult};

/// Assumed driver resistance of primary inputs, kΩ (a strong pad driver).
pub const SOURCE_RESISTANCE: f64 = 1.0;

/// The per-phase slice of a report.
#[derive(Debug, Clone)]
pub struct PhaseAnalysis {
    /// Which phase (0 = φ1, 1 = φ2).
    pub phase: u8,
    /// Arrival propagation outcome.
    pub result: PhaseResult,
    /// Top-K critical paths, latest first.
    pub paths: Vec<TimingPath>,
    /// Setup slack of the worst endpoint against the configured clock's
    /// phase width (negative = violation); `None` when nothing arrives.
    pub slack: Option<f64>,
    /// Same-phase race-through hazards (transparent latch to transparent
    /// latch), most dangerous first.
    pub races: Vec<RaceHazard>,
    /// Number of timing arcs in this phase's graph.
    pub arcs: usize,
}

/// Everything one analysis run produces.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// Signal-flow resolution statistics.
    pub flow_report: FlowReport,
    /// Chip inventory by inferred node class and device role.
    pub census: Census,
    /// The all-clocks-active analysis from primary inputs to outputs —
    /// the right view for purely combinational circuits and for T1-style
    /// estimate-vs-simulation comparisons.
    pub combinational: PhaseResult,
    /// Critical paths of the combinational view.
    pub combinational_paths: Vec<TimingPath>,
    /// Per-phase case analyses (empty when the netlist has no clocks or
    /// case analysis was disabled).
    pub phases: Vec<PhaseAnalysis>,
    /// Latches found.
    pub latches: Vec<Latch>,
    /// Electrical rule diagnostics.
    pub checks: Vec<CheckIssue>,
    /// Smallest two-phase cycle accommodating both phases' critical
    /// arrivals (using the configured clock's non-overlap gap); `None`
    /// without case analysis.
    pub min_cycle: Option<f64>,
    /// Every diagnostic the run produced, in pipeline order: flow
    /// direction findings, graph-construction degradations, per-case
    /// guard exhaustion and worker panics, then electrical check issues.
    /// Empty on a clean run.
    pub diagnostics: Vec<Diagnostic>,
}

impl TimingReport {
    /// The phase analysis for phase `p`, if it was run.
    pub fn phase(&self, p: u8) -> Option<&PhaseAnalysis> {
        self.phases.iter().find(|x| x.phase == p)
    }

    /// Worst combinational arrival at a node (convenience passthrough).
    pub fn arrival(&self, node: NodeId) -> Option<f64> {
        self.combinational.arrival(node)
    }

    /// Whether every propagation case ran to completion — no resource
    /// guard ([`AnalysisOptions::relax_budget`] /
    /// [`AnalysisOptions::deadline`]) tripped.
    pub fn is_complete(&self) -> bool {
        self.combinational.completion == Completion::Complete
            && self
                .phases
                .iter()
                .all(|p| p.result.completion == Completion::Complete)
    }

    /// Nodes left partial or unresolved by any case, deduplicated and
    /// sorted by id. Empty exactly when [`TimingReport::is_complete`].
    pub fn unresolved_nodes(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.combinational.unresolved.clone();
        for p in &self.phases {
            out.extend_from_slice(&p.result.unresolved);
        }
        out.sort_by_key(|id| id.index());
        out.dedup();
        out
    }

    /// Strict view of a possibly partial report: a complete report passes
    /// through, a guard-exhausted one becomes
    /// [`TvError::BudgetExhausted`] — which still carries the partial
    /// report, so nothing computed is thrown away.
    pub fn strict(self, netlist: &Netlist) -> Result<TimingReport, TvError> {
        if self.is_complete() {
            return Ok(self);
        }
        let unresolved = self
            .unresolved_nodes()
            .into_iter()
            .map(|id| netlist.node_name(id).to_string())
            .collect();
        Err(TvError::BudgetExhausted {
            unresolved,
            partial: Box::new(self),
        })
    }
}

/// The analyzer: borrows a netlist, runs the full TV pipeline.
#[derive(Debug)]
pub struct Analyzer<'a> {
    netlist: &'a Netlist,
}

impl<'a> Analyzer<'a> {
    /// Prepares an analyzer for a netlist.
    pub fn new(netlist: &'a Netlist) -> Self {
        Analyzer { netlist }
    }

    /// Runs flow analysis, clock recovery, per-phase timing, path
    /// extraction, and electrical checks.
    ///
    /// With [`AnalysisOptions::jobs`] above one, graph construction and
    /// the levelized propagation fan out across threads (bit-identical
    /// results). To reuse work after a netlist edit, hold a
    /// [`crate::PassManager`] over a [`tv_netlist::Design`] instead.
    pub fn run(&self, options: &AnalysisOptions) -> TimingReport {
        crate::pipeline::oneshot(self.netlist, options, false)
            .expect("size limits are only enforced by try_run")
    }

    /// [`Analyzer::run`] with the size guards enforced: refuses (with
    /// [`TvError::TooLarge`]) netlists above
    /// [`AnalysisOptions::max_nodes`] before doing any work, and timing
    /// graphs above [`AnalysisOptions::max_arcs`] as soon as the first
    /// graph is built. Guard exhaustion mid-run (budget, deadline) is
    /// *not* an error here — the report comes back partial with
    /// [`TimingReport::diagnostics`] explaining what is missing; chain
    /// [`TimingReport::strict`] to turn that into an error too.
    pub fn try_run(&self, options: &AnalysisOptions) -> Result<TimingReport, TvError> {
        crate::pipeline::oneshot(self.netlist, options, true)
    }
}

/// Sources for phase `p`: primary inputs, this phase's clocks, and the
/// storage nodes written during the *other* phase (stable now).
///
/// Public so harnesses (the bench crate's `parallel_scaling` experiment)
/// can drive the propagation engine with exactly the analyzer's case
/// setup.
pub fn phase_sources(nl: &Netlist, latches: &[Latch], phase: u8) -> Vec<NodeId> {
    let mut sources = Vec::new();
    for id in nl.node_ids() {
        match nl.node(id).role() {
            NodeRole::Input => sources.push(id),
            NodeRole::Clock(p) if p == phase => sources.push(id),
            _ => {}
        }
    }
    for l in latches {
        if l.phase != phase {
            sources.push(l.storage);
        }
    }
    sources
}

/// Endpoints for phase `p`: storage captured this phase, plus primary
/// outputs.
pub fn phase_endpoints(nl: &Netlist, latches: &[Latch], phase: u8) -> Vec<NodeId> {
    let mut endpoints = crate::hold::phase_storages(latches, phase);
    endpoints.extend(nl.outputs());
    endpoints
}

impl<'a> Analyzer<'a> {
    /// Point-to-point query: the worst-case path from `from` to `to` in
    /// the all-active (combinational) view — TV's interactive "why is
    /// this slow" mode. Returns `None` when `to` is unreachable from
    /// `from`.
    pub fn path_query(
        &self,
        from: NodeId,
        to: NodeId,
        options: &AnalysisOptions,
    ) -> Option<crate::paths::TimingPath> {
        let nl = self.netlist;
        let flow = tv_flow::analyze(nl, &options.rules);
        let qual = qualify_with_flow(nl, &flow);
        let graph = TimingGraph::build(
            nl,
            &flow,
            &qual,
            PhaseCase::all_active(),
            options.model,
            SOURCE_RESISTANCE,
        );
        let result = propagate(nl, &graph, &[from], &[to], &options.slope);
        let edge = result.arrivals.worst_edge(to)?;
        crate::paths::backtrack(&graph, &result.arrivals, to, edge)
    }
}

/// Sources of the combinational (everything-active) case: primary inputs
/// and all clock nodes. Public for the same reason as [`phase_sources`].
pub fn external_sources(netlist: &Netlist) -> Vec<NodeId> {
    netlist
        .node_ids()
        .filter(|&id| {
            matches!(
                netlist.node(id).role(),
                NodeRole::Input | NodeRole::Clock(_)
            )
        })
        .collect()
}

pub(crate) fn endpoints_or_all(netlist: &Netlist, preferred: &[NodeId]) -> Vec<NodeId> {
    if !preferred.is_empty() {
        return preferred.to_vec();
    }
    netlist
        .node_ids()
        .filter(|&id| !netlist.node(id).role().is_rail())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::AnalysisOptions;
    use tv_gen::{chains, datapath};
    use tv_netlist::Tech;

    #[test]
    fn inverter_chain_combinational_delay_scales() {
        let opts = AnalysisOptions::default();
        let c4 = chains::inverter_chain(Tech::nmos4um(), 4, 1);
        let c8 = chains::inverter_chain(Tech::nmos4um(), 8, 1);
        let d4 = Analyzer::new(&c4.netlist)
            .run(&opts)
            .arrival(c4.output)
            .unwrap();
        let d8 = Analyzer::new(&c8.netlist)
            .run(&opts)
            .arrival(c8.output)
            .unwrap();
        let ratio = d8 / d4;
        assert!(
            (1.8..2.2).contains(&ratio),
            "8 stages should be ~2x of 4, got {ratio}"
        );
    }

    #[test]
    fn datapath_analysis_produces_phases_and_min_cycle() {
        let dp = datapath::datapath(Tech::nmos4um(), datapath::DatapathConfig::small());
        let report = Analyzer::new(&dp.netlist).run(&AnalysisOptions::default());
        assert_eq!(report.phases.len(), 2);
        assert!(!report.latches.is_empty());
        let mc = report.min_cycle.expect("min cycle computed");
        assert!(mc > 0.0);
        // Case analysis keeps each phase acyclic.
        for p in &report.phases {
            assert!(!p.result.cyclic, "phase {} cyclic", p.phase);
        }
    }

    #[test]
    fn disabling_case_analysis_skips_phases() {
        let dp = datapath::datapath(Tech::nmos4um(), datapath::DatapathConfig::small());
        let opts = AnalysisOptions {
            case_analysis: false,
            ..AnalysisOptions::default()
        };
        let report = Analyzer::new(&dp.netlist).run(&opts);
        assert!(report.phases.is_empty());
        assert_eq!(report.min_cycle, None);
    }

    #[test]
    fn combinational_paths_end_at_output() {
        let c = chains::inverter_chain(Tech::nmos4um(), 4, 1);
        let report = Analyzer::new(&c.netlist).run(&AnalysisOptions::default());
        let p = report.combinational_paths.first().expect("path exists");
        assert_eq!(p.endpoint(), c.output);
    }

    #[test]
    fn pass_chain_slower_than_inverter_pair() {
        let opts = AnalysisOptions::default();
        let pc = chains::pass_chain(Tech::nmos4um(), 6);
        let ic = chains::inverter_chain(Tech::nmos4um(), 2, 1);
        let d_pass = Analyzer::new(&pc.netlist)
            .run(&opts)
            .arrival(pc.output)
            .unwrap();
        let d_inv = Analyzer::new(&ic.netlist)
            .run(&opts)
            .arrival(ic.output)
            .unwrap();
        assert!(d_pass > d_inv, "pass {d_pass} vs inv {d_inv}");
    }

    #[test]
    fn path_query_finds_point_to_point_route() {
        let c = chains::inverter_chain(Tech::nmos4um(), 5, 1);
        let nl = &c.netlist;
        let mid = nl.node_by_name("s1").expect("mid node");
        let analyzer = Analyzer::new(nl);
        let opts = AnalysisOptions::default();
        // From the middle to the output: a 3-stage path.
        let p = analyzer
            .path_query(mid, c.output, &opts)
            .expect("reachable");
        assert_eq!(p.steps.first().map(|s| s.node), Some(mid));
        assert_eq!(p.endpoint(), c.output);
        assert_eq!(p.len(), 4); // mid + 3 remaining stages
                                // Reverse direction: unreachable.
        assert!(analyzer.path_query(c.output, mid, &opts).is_none());
    }

    #[test]
    fn try_run_refuses_oversized_netlists() {
        let c = chains::inverter_chain(Tech::nmos4um(), 8, 1);
        let opts = AnalysisOptions {
            max_nodes: Some(3),
            ..AnalysisOptions::default()
        };
        match Analyzer::new(&c.netlist).try_run(&opts) {
            Err(TvError::TooLarge { what, count, limit }) => {
                assert_eq!(what, "nodes");
                assert!(count > limit);
                assert_eq!(limit, 3);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        let opts = AnalysisOptions {
            max_arcs: Some(1),
            ..AnalysisOptions::default()
        };
        match Analyzer::new(&c.netlist).try_run(&opts) {
            Err(TvError::TooLarge { what, .. }) => assert_eq!(what, "arcs"),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // Within limits: same report as run().
        let opts = AnalysisOptions {
            max_nodes: Some(1_000_000),
            max_arcs: Some(1_000_000),
            ..AnalysisOptions::default()
        };
        let r = Analyzer::new(&c.netlist).try_run(&opts).expect("fits");
        assert!(r.is_complete());
        assert!(r.unresolved_nodes().is_empty());
    }

    #[test]
    fn clean_report_has_no_diagnostics_and_passes_strict() {
        let c = chains::inverter_chain(Tech::nmos4um(), 4, 1);
        let report = Analyzer::new(&c.netlist).run(&AnalysisOptions::default());
        assert!(report.is_complete());
        assert!(
            report.diagnostics.is_empty(),
            "clean chain should be diagnostic-free: {:?}",
            report.diagnostics
        );
        assert!(report.strict(&c.netlist).is_ok());
    }

    #[test]
    fn exhausted_budget_yields_partial_report_and_strict_error() {
        use tv_netlist::codes;
        // A cross-coupled pair is a genuine combinational cycle: the
        // residue worklist must relax it, so a one-relaxation budget
        // trips the guard.
        let mut b = tv_netlist::NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let x = b.node("x");
        let y = b.node("y");
        b.inverter("i1", a, x);
        b.inverter("i2", x, y);
        b.inverter("i3", y, x);
        let nl = b.finish().unwrap();
        let opts = AnalysisOptions {
            relax_budget: Some(1),
            ..AnalysisOptions::default()
        };
        let report = Analyzer::new(&nl).run(&opts);
        assert!(!report.is_complete());
        let unresolved = report.unresolved_nodes();
        assert!(!unresolved.is_empty(), "cycle nodes left unresolved");
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == codes::ANALYSIS_BUDGET_EXHAUSTED),
            "budget exhaustion is reported: {:?}",
            report.diagnostics
        );
        match report.strict(&nl) {
            Err(TvError::BudgetExhausted {
                unresolved,
                partial,
            }) => {
                assert!(!unresolved.is_empty());
                // The partial report still carries everything computed.
                assert!(partial.arrival(a).is_some());
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn phase_slack_reflects_clock_width() {
        use tv_clocks::TwoPhaseClock;
        let dp = datapath::datapath(Tech::nmos4um(), datapath::DatapathConfig::small());
        let roomy = AnalysisOptions {
            clock: TwoPhaseClock::symmetric(1000.0, 2.0),
            ..AnalysisOptions::default()
        };
        let tight = AnalysisOptions {
            clock: TwoPhaseClock::symmetric(1.0, 0.01),
            ..AnalysisOptions::default()
        };
        let r1 = Analyzer::new(&dp.netlist).run(&roomy);
        let r2 = Analyzer::new(&dp.netlist).run(&tight);
        let s1 = r1.phase(0).unwrap().slack.unwrap();
        let s2 = r2.phase(0).unwrap().slack.unwrap();
        assert!(s1 > s2);
        assert!(s2 < 0.0, "1 ns cycle must violate");
    }
}
