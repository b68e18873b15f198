//! The pass pipeline: demand-driven analysis over a revisioned design.
//!
//! Each analysis stage — flow resolution, clock qualification, latch
//! finding, per-case timing-graph construction, arrival propagation,
//! electrical checks — is a named **pass** with a declared input
//! fingerprint and a content-based output fingerprint. A
//! [`PassManager`] holds the last result of every pass; an `analyze`
//! call recomputes a pass only when its input fingerprint changed, and
//! because downstream passes key off the upstream pass's *output*
//! fingerprint, an upstream rerun that reproduces the same content
//! revalidates the whole chain below it without recompute (the
//! salsa-style early-exit).
//!
//! Input fingerprints are built from the [`Design`]'s revision stamp,
//! which splits edits into independent counters — topology, geometry,
//! capacitance, technology — matching what each pass actually reads:
//!
//! | pass | reads |
//! |---|---|
//! | `flow` | topology, rules |
//! | `qualify` | flow, topology |
//! | `latches` | flow, qualify, topology |
//! | `graph(case)` | topology, geometry, caps, tech, delay model, flow, qualify |
//! | `arrivals(case)` | graph(case), slope model, relaxation budget, top-K |
//! | `checks` | topology, geometry, caps, tech, flow, qualify |
//!
//! So a capacitance edit cannot re-run flow (flow's inputs don't
//! include the cap counter), and a W/L resize cannot re-find latches.
//!
//! The graph passes go one step further than all-or-nothing: a
//! session-grade manager records per-root arc **spans** and a per-node
//! **extent index** (which roots read which node's caps/geometry) at
//! build time. A parametric edit then resynthesizes only the affected
//! roots and splices their delays into the existing graph — copying a
//! root's rows out of its class's shared block before it writes them —
//! while CSR adjacency and level schedule are untouched because
//! parametric edits cannot change arc structure. The splice reports
//! exactly which nodes' in-arc delay words changed, and the arrival pass
//! re-relaxes their fanout cone over the previous run's arrivals (the
//! cone engine) instead of walking the whole graph.
//!
//! The cases share their graphs too: a full all-active build leaves a
//! case share, and each phase case is built as a **view** over the
//! all-active graph that owns only the roots its phase replaces. A slot
//! set holds one graph plus two views; a parametric splice rewrites an
//! invariant root once, in the all-active graph, and a replaced root in
//! the view that owns it (DESIGN.md §10, §16).
//!
//! Case analysis is the analysis: on a clocked design it is on, the
//! all-active graph is built as the views' base and never walked, so the
//! run has no `arrivals.comb` pass and its all-active result reads empty
//! (cyclic by construction, it would only burn its relaxation budget).
//! Completeness and the critical arrival then come from the phase cases.
//! A design without clocks, and a run with case analysis off, walk the
//! all-active case as their only case.
//!
//! Each walked case's slot keeps its latest result with its critical
//! paths and races, so an unchanged case — cyclic or not — is served
//! without a walk. Two projections read the slots: the owned [`TimingReport`]
//! ([`PassManager::analyze`], and [`crate::Analyzer::run`], which moves
//! the results out) and the [`ReportSummary`] a session reply needs
//! ([`PassManager::try_summarize`]), which renders and clones nothing
//! and hashes the report only when a pass re-ran. Queries
//! ([`PassManager::path_query`], [`PassManager::flow_summary`]) read the
//! slots while they reflect the design. Every reuse path is
//! bit-identical to a cold run; the golden fingerprints in
//! `tests/integration_layout.rs` and the session-vs-oneshot tests in
//! `tests/integration_session.rs` and `tests/integration_warm.rs`
//! enforce it.

use std::time::Instant;

use tv_clocks::latch::{find_latches, Latch};
use tv_clocks::qualify::{qualify_with_flow, Qualification};
use tv_clocks::ClockConstraints;
use tv_flow::{Census, FlowAnalysis, FlowReport};
use tv_netlist::{codes, Design, DesignStamp, Diagnostic, DirtySince, Netlist, NodeId, Revision};
use tv_rc::SlopeModel;

use crate::analyzer::{
    endpoints_or_all, external_sources, phase_endpoints, phase_sources, PhaseAnalysis,
    TimingReport, SOURCE_RESISTANCE,
};
use crate::checks::{check_electrical, CheckIssue};
use crate::error::TvError;
use crate::fingerprint::{flow_fingerprint, hash_words, mix64, PhaseParts, ReportParts};
use crate::graph::{
    changed_targets, splice_roots, ArcGraph, BuildScratch, Extents, GraphBuilder, PhaseCase,
    PhaseView, RootKind, RootSpans, TimingGraph, OWN_ROW,
};
use crate::hold::RaceHazard;
use crate::macromodel::{build, build_view, CaseShare, Extraction, Share};
use crate::options::AnalysisOptions;
use crate::paths::{backtrack, critical_paths, TimingPath};
use crate::propagate::{
    propagate_cone, propagate_full, Arrivals, Completion, Guards, PhaseResult, Workspace,
};

/// Names a pass instance. Graph and arrival passes are per case:
/// `None` is the all-active (combinational) view, `Some(p)` phase `p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassId {
    /// Signal-flow direction resolution.
    Flow,
    /// Clock qualification of every node.
    Qualify,
    /// Latch finding.
    Latches,
    /// Hierarchical macromodel extraction for one case: grouping the
    /// build roots into structural equivalence classes ahead of graph
    /// construction (see `crate::macromodel`).
    Extract(Option<u8>),
    /// Timing-graph construction for one case.
    Graph(Option<u8>),
    /// Arrival propagation for one case, with the case's critical paths
    /// and races. A run under case analysis has none for the all-active
    /// case, which it does not walk.
    Arrivals(Option<u8>),
    /// Electrical rule checks.
    Checks,
}

impl PassId {
    /// Stable dotted name, e.g. `graph.phi1` (used by the session
    /// protocol's pass trace).
    pub fn name(&self) -> &'static str {
        match self {
            PassId::Flow => "flow",
            PassId::Qualify => "qualify",
            PassId::Latches => "latches",
            PassId::Extract(None) => "extract.comb",
            PassId::Extract(Some(0)) => "extract.phi1",
            PassId::Extract(Some(_)) => "extract.phi2",
            PassId::Graph(None) => "graph.comb",
            PassId::Graph(Some(0)) => "graph.phi1",
            PassId::Graph(Some(_)) => "graph.phi2",
            PassId::Arrivals(None) => "arrivals.comb",
            PassId::Arrivals(Some(0)) => "arrivals.phi1",
            PassId::Arrivals(Some(_)) => "arrivals.phi2",
            PassId::Checks => "checks",
        }
    }
}

/// How one pass was satisfied during an `analyze` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassOutcome {
    /// Input fingerprint matched: the cached result was used untouched.
    Reused,
    /// The pass ran from scratch.
    Computed,
    /// Graph pass only: the affected roots were rebuilt and their delays
    /// spliced into the existing graph in place.
    Spliced {
        /// Number of roots resynthesized.
        roots: usize,
    },
    /// Graph pass only: the edit dirtied nodes outside every root's
    /// extent, so the cached graph was revalidated without touching an
    /// arc.
    Revalidated,
    /// Arrival pass only: the demand-driven cone engine re-relaxed just
    /// the affected fanout cone of the kept result (bit-identical to the
    /// full walk).
    Cone {
        /// Number of nodes the cone re-relaxed.
        recomputed: usize,
    },
    /// Extract and graph passes of a phase case only: the case replaces
    /// no build root, so its view is empty and reads the all-active
    /// graph — nothing was extracted, emitted or finished for it.
    Shared,
}

/// One entry of [`PassManager::last_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassEvent {
    /// Which pass.
    pub pass: PassId,
    /// How it was satisfied.
    pub outcome: PassOutcome,
}

impl PassEvent {
    /// Whether the pass did any real work (everything except `Reused`
    /// and `Shared`).
    pub fn reran(&self) -> bool {
        !matches!(self.outcome, PassOutcome::Reused | PassOutcome::Shared)
    }
}

/// What a session reply reports about an analysis, read off the pass
/// slots by [`PassManager::try_summarize`] without assembling a
/// [`TimingReport`]: no case result is cloned and no diagnostic is
/// rendered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportSummary {
    /// [`crate::report_fingerprint`] of the report
    /// [`PassManager::try_analyze`] would return.
    pub fingerprint: u64,
    /// [`TimingReport::is_complete`]: whether every walked case ran to
    /// completion.
    pub complete: bool,
    /// Number of latches found.
    pub latches: usize,
    /// Number of electrical check issues.
    pub checks: usize,
    /// [`TimingReport::min_cycle`].
    pub min_cycle: Option<f64>,
    /// The latest critical arrival of the walked cases: of the phase
    /// cases under case analysis, of the all-active case otherwise.
    pub critical: Option<f64>,
    /// Whether a graph-build or propagation worker panicked (the report
    /// carries a `TV0303` diagnostic).
    pub worker_panic: bool,
    /// Whether a case's propagation ran past its deadline.
    pub deadline_exceeded: bool,
}

/// A cached pass result with its input and output fingerprints.
struct Slot<T> {
    input_fp: u64,
    output_fp: u64,
    value: T,
}

/// The flow pass's result, with the report fields derived from it: they
/// read only the flow analysis and the netlist topology, so they are
/// built once per flow run instead of once per report.
struct FlowOutput {
    analysis: FlowAnalysis,
    report: FlowReport,
    census: Census,
    diagnostics: Vec<Diagnostic>,
}

/// A cached timing graph: the all-active case's, or a phase case's
/// built alone (when no all-active share was at hand, or its view build
/// degraded).
struct GraphSlot {
    input_fp: u64,
    /// Like `input_fp` but excluding the geometry and capacitance
    /// counters: matching shape under a mismatching input means only
    /// delay *values* moved — the precondition for splicing.
    shape_fp: u64,
    /// Design revision the arcs currently reflect; `dirty_since` from
    /// here yields exactly the edits the graph has not absorbed.
    built_revision: Revision,
    graph: TimingGraph,
    roots: Vec<(NodeId, RootKind)>,
    /// Per-root arc and row spans; `None` when a build worker panicked.
    /// Such a slot always rebuilds in full and serves no view.
    spans: Option<RootSpans>,
    /// The per-node extent index for splicing; `None` in one-shot mode.
    extents: Option<Extents>,
    /// The macromodel class partition from the build, used to de-share
    /// instanced stages a parametric edit touches. `None` when the
    /// build degraded to per-root builds or in one-shot mode.
    extraction: Option<Extraction>,
}

/// A phase case's view over the all-active graph slot.
struct ViewSlot {
    input_fp: u64,
    shape_fp: u64,
    built_revision: Revision,
    /// The all-active graph fingerprint the view's invariant arcs
    /// reflect: the view holds while the all-active graph moves on from
    /// here by reuse, revalidation or splice.
    base_fp: u64,
    view: PhaseView,
    /// The replaced roots with their extents under the phase, for
    /// splicing; `None` in one-shot mode.
    splice: Option<(Vec<(NodeId, RootKind)>, Extents)>,
    /// The phase's class partition; `None` for the empty view, whose
    /// partition is the all-active one.
    extraction: Option<Extraction>,
}

/// A case's graph: the all-active graph or a phase built alone, or a
/// phase view over the all-active graph.
enum CaseGraph {
    Own(Box<GraphSlot>),
    View(Box<ViewSlot>),
}

impl CaseGraph {
    fn input_fp(&self) -> u64 {
        match self {
            CaseGraph::Own(s) => s.input_fp,
            CaseGraph::View(v) => v.input_fp,
        }
    }
}

/// The all-active slot, when it holds a graph.
fn comb_graph(graphs: &[Option<CaseGraph>; 3]) -> Option<&GraphSlot> {
    match graphs[case_slot(None)].as_ref()? {
        CaseGraph::Own(s) => Some(s),
        CaseGraph::View(_) => None,
    }
}

/// One case's latest arrival result and what the report derives from
/// it. The only copy: the cone engine advances `result` in place, and a
/// report either clones it (session) or moves it out (one-shot).
#[derive(Clone)]
struct CaseSlot {
    /// `(graph-pass input fingerprint, options digest)` the result was
    /// computed under, while it may serve a later run; `None` once it
    /// must not (a deadline cut it short, a worker panicked, or the
    /// certificate was corrupted).
    key: Option<(u64, u64)>,
    /// Arc count and construction diagnostics of the case graph, kept
    /// here because a one-shot run frees the graph before the report is
    /// assembled.
    arcs: usize,
    graph_diagnostics: Vec<Diagnostic>,
    result: PhaseResult,
    /// Top-K critical paths of `result`, latest first.
    paths: Vec<TimingPath>,
    /// Same-phase races of `result` (empty for the all-active case).
    races: Vec<RaceHazard>,
}

impl CaseSlot {
    /// The all-active case of a run under case analysis: its graph is
    /// built as the phase views' base but never walked, so the slot holds
    /// an empty result and the graph's construction diagnostics.
    fn unwalked(graph_diagnostics: &[Diagnostic]) -> Self {
        CaseSlot {
            key: None,
            arcs: 0,
            graph_diagnostics: graph_diagnostics.to_vec(),
            result: PhaseResult {
                case: PhaseCase::all_active(),
                arrivals: Arrivals::default(),
                endpoints: Vec::new(),
                cyclic: false,
                relaxations: 0,
                completion: Completion::Complete,
                unresolved: Vec::new(),
                diagnostics: Vec::new(),
            },
            paths: Vec::new(),
            races: Vec::new(),
        }
    }

    /// Whether the cone engine may start from this result: it finished
    /// with every node resolved (the graph must also be residue-free).
    fn complete(&self) -> bool {
        self.result.completion == Completion::Complete && self.result.unresolved.is_empty()
    }
}

/// What the graph pass certifies about a case's arcs, handed to the
/// arrival pass (and, for the all-active case, to the phase views).
struct CaseDelta {
    /// Graph-pass input fingerprint the arcs currently reflect.
    graph_fp: u64,
    /// When known: the fingerprint the arcs previously reflected, and
    /// exactly which node indices hold different in-arc delay words now
    /// (the splice's changed targets; empty after a reuse or
    /// revalidation). The certifying pass also guarantees the case's arc
    /// structure, sources and endpoints are unchanged across that step.
    /// `None` means a full rebuild — nothing is certified.
    since: Option<(u64, Vec<u32>)>,
    /// The splice's changed targets by root, `(root ordinal, node
    /// index)`: a phase view takes those of the roots it does not
    /// replace.
    by_root: Vec<(u32, u32)>,
}

impl CaseDelta {
    /// The certificate of a full rebuild.
    fn rebuilt(graph_fp: u64) -> Self {
        CaseDelta {
            graph_fp,
            since: None,
            by_root: Vec::new(),
        }
    }

    /// The certificate of a step from `prev` that changed `changed`.
    fn moved(graph_fp: u64, prev: u64, changed: Vec<(u32, u32)>) -> Self {
        CaseDelta {
            graph_fp,
            since: Some((prev, changed_targets(changed.iter().copied()))),
            by_root: changed,
        }
    }
}

/// Demand-driven pass manager over a [`Design`].
///
/// Hold one per long-lived design (the `tv session` REPL holds one per
/// loaded design) and call [`PassManager::analyze`] after each batch of
/// edits; only the passes whose declared inputs changed re-run, and the
/// graph passes splice rather than rebuild when the edit was
/// parametric. Every pass output lives in one slot, read by two
/// projections: the owned report of [`PassManager::analyze`], and the
/// [`ReportSummary`] of [`PassManager::try_summarize`]. Reports are
/// bit-identical to a fresh [`crate::Analyzer::run`] on the same
/// netlist.
#[derive(Default)]
pub struct PassManager {
    /// Whether this manager keeps state for warm re-analysis: graph
    /// builds record spans/extents for splicing and case results serve
    /// the next run. Costs a little time and memory; the throwaway
    /// one-shot path skips both, frees each case's graph as soon as the
    /// case is done, and moves the results into its report.
    warm: bool,
    flow: Option<Slot<FlowOutput>>,
    qual: Option<Slot<Vec<Qualification>>>,
    latches: Option<Slot<Vec<Latch>>>,
    /// Graph slots: `[comb, phase 0, phase 1]`. A phase slot is normally
    /// a view over the comb slot's graph.
    graphs: [Option<CaseGraph>; 3],
    /// Case results, indexed like `graphs`.
    cases: [Option<CaseSlot>; 3],
    checks: Option<Slot<Vec<CheckIssue>>>,
    /// Design stamp and options digest of the last run that finished:
    /// until the next run starts, every slot reflects exactly them, so
    /// queries may read the slots.
    current: Option<(DesignStamp, u64)>,
    /// Golden fingerprint of the report the slots project, once a
    /// summary has hashed it. A run keeps it only when it reuses every
    /// pass: every design counter and option digest feeds some pass key.
    fingerprint: Option<u64>,
    /// Propagation scratch, reused across cases and runs.
    workspace: Workspace,
    /// Graph-build scratch for splices and extents, reused across runs.
    scratch: BuildScratch,
    trace: Vec<PassEvent>,
}

impl PassManager {
    /// A session-grade manager: graph builds record per-root spans and
    /// extents so parametric edits splice instead of rebuilding.
    pub fn new() -> Self {
        PassManager {
            warm: true,
            ..Default::default()
        }
    }

    /// A throwaway manager for the one-shot `Analyzer` path: no splice
    /// index and no reuse, and each case graph is dropped once the
    /// case's arrivals, paths and races are done.
    pub(crate) fn one_shot() -> Self {
        PassManager::default()
    }

    /// Runs (or revalidates) the full pipeline against the design's
    /// current state. Panics on size-limit errors like
    /// [`crate::Analyzer::run`]; use [`PassManager::try_analyze`] to
    /// enforce limits (and to receive a violated pipeline invariant as
    /// [`TvError::Internal`] instead of a panic).
    pub fn analyze(&mut self, design: &Design, options: &AnalysisOptions) -> TimingReport {
        self.analyze_inner(
            design.netlist(),
            design.stamp(),
            Some(design),
            options,
            false,
        )
        .expect("unguarded analyze: limits are off and pipeline invariants hold")
    }

    /// [`PassManager::analyze`] with [`AnalysisOptions::max_nodes`] and
    /// [`AnalysisOptions::max_arcs`] enforced (refusing with
    /// [`TvError::TooLarge`]).
    pub fn try_analyze(
        &mut self,
        design: &Design,
        options: &AnalysisOptions,
    ) -> Result<TimingReport, TvError> {
        self.analyze_inner(
            design.netlist(),
            design.stamp(),
            Some(design),
            options,
            true,
        )
    }

    /// [`PassManager::try_analyze`] for a caller that needs the reply
    /// figures rather than the report: the same passes run, and the
    /// summary is read off their slots. When every pass was reused, the
    /// previous summary's fingerprint is returned without hashing the
    /// report again.
    pub fn try_summarize(
        &mut self,
        design: &Design,
        options: &AnalysisOptions,
    ) -> Result<ReportSummary, TvError> {
        let nl = design.netlist();
        self.run(nl, design.stamp(), Some(design), options, true)?;
        let (parts, worker_panic, deadline_exceeded) = self.parts(nl, options)?;
        let fingerprint = self.fingerprint.unwrap_or_else(|| parts.fingerprint(nl));
        let summary = ReportSummary {
            fingerprint,
            complete: std::iter::once(parts.combinational)
                .chain(parts.phases.iter().map(|p| p.result))
                .all(|r| r.completion == Completion::Complete),
            latches: parts.latches,
            checks: parts.checks,
            min_cycle: parts.min_cycle,
            critical: parts.critical(),
            worker_panic,
            deadline_exceeded,
        };
        self.fingerprint = Some(fingerprint);
        Ok(summary)
    }

    /// Point-to-point query: the worst-case path from `from` to `to` in
    /// the all-active view, `None` when `to` is unreachable. Propagates
    /// from `from` alone over the cached all-active graph when the slots
    /// reflect `design` under `options` (the last analyze saw exactly
    /// this state), and otherwise over a graph built by a throwaway
    /// manager, as [`crate::Analyzer::path_query`] does.
    pub fn path_query(
        &mut self,
        design: &Design,
        from: NodeId,
        to: NodeId,
        options: &AnalysisOptions,
    ) -> Option<TimingPath> {
        let nl = design.netlist();
        if self.current == Some((design.stamp(), options_fp(options))) {
            if let Some(slot) = comb_graph(&self.graphs) {
                return point_to_point(
                    nl,
                    &slot.graph,
                    from,
                    to,
                    &options.slope,
                    &mut self.workspace,
                );
            }
        }
        path_query_cold(nl, from, to, options)
    }

    /// Flow-resolution statistics and [`crate::flow_fingerprint`] of
    /// `design`: from the flow slot when the slots reflect `design` under
    /// `options`, and otherwise from a flow pass run outside this
    /// manager, so its slots and pass trace stay as they were.
    pub fn flow_summary(&self, design: &Design, options: &AnalysisOptions) -> (FlowReport, u64) {
        if self.current == Some((design.stamp(), options_fp(options))) {
            if let Some(s) = &self.flow {
                return (s.value.report.clone(), s.output_fp);
            }
        }
        let s = flow_pass(design.netlist(), DesignStamp::unique(), options);
        (s.value.report, s.output_fp)
    }

    /// The pass trace of the most recent `analyze`, in execution order.
    pub fn last_trace(&self) -> &[PassEvent] {
        &self.trace
    }

    /// The current fingerprint of a pass: output (content) fingerprints
    /// for the interned analyses (flow, qualify, latches), input
    /// fingerprints for the graph and check passes, `None` for a pass
    /// that has not run or for arrivals (keyed by their graph's
    /// fingerprint, not one of their own).
    pub fn pass_fingerprint(&self, pass: PassId) -> Option<u64> {
        match pass {
            PassId::Flow => self.flow.as_ref().map(|s| s.output_fp),
            PassId::Qualify => self.qual.as_ref().map(|s| s.output_fp),
            PassId::Latches => self.latches.as_ref().map(|s| s.output_fp),
            PassId::Extract(c) => self.extraction(c).map(|e| e.fingerprint()),
            PassId::Graph(c) => self.graphs[case_slot(c)].as_ref().map(CaseGraph::input_fp),
            PassId::Arrivals(_) => None,
            PassId::Checks => self.checks.as_ref().map(|s| s.input_fp),
        }
    }

    /// The macromodel extraction for a case's cached graph, if the most
    /// recent build extracted one (`None` in one-shot mode or after a
    /// degraded build). A phase whose view is empty has the all-active
    /// partition.
    pub fn extraction(&self, case: Option<u8>) -> Option<&Extraction> {
        match self.graphs[case_slot(case)].as_ref()? {
            CaseGraph::Own(s) => s.extraction.as_ref(),
            CaseGraph::View(v) if v.view.is_empty() => self.extraction(None),
            CaseGraph::View(v) => v.extraction.as_ref(),
        }
    }

    /// Runs the passes and assembles the owned report: the session path
    /// and the one-shot `Analyzer` facade share it. `stamp` is the
    /// design's counter snapshot (a [`DesignStamp::unique`] snapshot on
    /// the one-shot path, so nothing ever falsely matches); `design`
    /// enables dirty-set queries for splicing.
    pub(crate) fn analyze_inner(
        &mut self,
        nl: &Netlist,
        stamp: DesignStamp,
        design: Option<&Design>,
        options: &AnalysisOptions,
        enforce_limits: bool,
    ) -> Result<TimingReport, TvError> {
        self.run(nl, stamp, design, options, enforce_limits)?;
        self.report(nl, options)
    }

    /// The pipeline body: brings every slot up to date with `stamp` under
    /// `options`, recording the pass trace.
    fn run(
        &mut self,
        nl: &Netlist,
        stamp: DesignStamp,
        design: Option<&Design>,
        options: &AnalysisOptions,
        enforce_limits: bool,
    ) -> Result<(), TvError> {
        let _span = tv_obs::span("analyze");
        self.trace.clear();
        self.current = None;
        let fingerprint = self.fingerprint.take();
        // Fault plane: pipeline entry is a trust boundary — a forced
        // internal error here must surface as a typed `TvError`, which
        // the session supervisor retries once against a reset pipeline.
        if tv_fault::fault_point!(tv_fault::Site::PassEntry) {
            tv_obs::incr(tv_obs::Counter::FaultInjected);
            return Err(internal("injected fault at pass_entry (tv_fault)"));
        }
        if enforce_limits {
            if let Some(limit) = options.max_nodes {
                let count = nl.node_count();
                if count > limit {
                    return Err(TvError::TooLarge {
                        what: "nodes",
                        count,
                        limit,
                    });
                }
            }
        }
        let jobs = options.effective_jobs();
        let guards = Guards {
            relax_budget: options.relax_budget,
            deadline: options.deadline.map(|d| Instant::now() + d),
        };
        let opts_fp = options_fp(options);

        let (flow_fp, qual_fp) = self.front(nl, stamp, options)?;
        let flow = &self
            .flow
            .as_ref()
            .ok_or(internal("flow pass left no result"))?
            .value
            .analysis;
        let qual = self
            .qual
            .as_ref()
            .ok_or(internal("qualify pass left no result"))?
            .value
            .as_slice();

        // --- latches ---
        let latch_in = hash_words(&[stamp.design, stamp.topo, flow_fp, qual_fp]);
        let latch_reran = match &self.latches {
            Some(s) if s.input_fp == latch_in => false,
            _ => {
                let _s = tv_obs::span("pass.latches");
                let value = find_latches(nl, flow, qual);
                let output_fp = latch_content_fp(&value);
                self.latches = Some(Slot {
                    input_fp: latch_in,
                    output_fp,
                    value,
                });
                true
            }
        };
        push(&mut self.trace, PassId::Latches, latch_reran);
        let latches = self
            .latches
            .as_ref()
            .ok_or(internal("latch pass left no result"))?
            .value
            .as_slice();

        // The case share a full all-active build leaves lives for this
        // run only: a resize changes device geometry without rerunning
        // flow.
        let mut share: Option<CaseShare> = None;
        // The all-active delta while the all-active graph is clean and
        // kept, so that a phase view may read it.
        let mut comb: Option<CaseDelta> = None;
        let run = GraphRun {
            warm: self.warm,
            nl,
            flow,
            qual,
            stamp,
            design,
            options,
            flow_fp,
            qual_fp,
            jobs,
        };

        // --- cases: all-active, then each phase under case analysis ---
        let cases = case_list(nl, options);
        for (i, &active) in cases.iter().enumerate() {
            let k = case_slot(active);
            let case = PhaseCase { active };
            let delta = match active {
                None => {
                    let cross = match cases.len() {
                        1 => Share::Off,
                        _ => Share::Leave(&mut share),
                    };
                    let slot = &mut self.graphs[k];
                    graph_pass(slot, &mut self.trace, &mut self.scratch, &run, case, cross)
                }
                Some(_) => {
                    let (head, tail) = self.graphs.split_at_mut(1);
                    let base = match (&head[0], &comb) {
                        (Some(CaseGraph::Own(s)), Some(d)) => Some((&**s, d)),
                        _ => None,
                    };
                    let slot = &mut tail[k - 1];
                    let trace = &mut self.trace;
                    phase_pass(slot, trace, &mut self.scratch, &run, case, base, &share)
                }
            };
            // The last graph pass is the share's last reader: free it
            // before the case's arrivals allocate.
            if i + 1 == cases.len() {
                share = None;
            }
            let slot = self.graphs[k]
                .as_ref()
                .ok_or(internal("graph pass left no case slot"))?;
            // A view reads the clean all-active graph, whose (empty)
            // diagnostics are the case's; an empty view reads exactly that
            // graph, so its case walks it directly.
            let (graph, view) = match slot {
                CaseGraph::Own(s) => (&s.graph, None),
                CaseGraph::View(v) => {
                    let base = comb_graph(&self.graphs)
                        .ok_or(internal("a view outlived its all-active graph"))?;
                    (&base.graph, Some(&v.view).filter(|v| !v.is_empty()))
                }
            };
            let clean = graph.diagnostics.is_empty();
            // The arc limit is checked on the combinational graph, before
            // any arrival work.
            let limit = options
                .max_arcs
                .filter(|_| enforce_limits && active.is_none());
            if let Some(limit) = limit {
                let count = graph.arc_count();
                if count > limit {
                    return Err(TvError::TooLarge {
                        what: "arcs",
                        count,
                        limit,
                    });
                }
            }
            let case = &mut self.cases[k];
            let diagnostics = &graph.diagnostics;
            // Under case analysis the all-active graph is the phase
            // views' base only: its case is not walked.
            if active.is_none() && cases.len() > 1 {
                *case = Some(CaseSlot::unwalked(diagnostics));
            } else {
                let ws = &mut self.workspace;
                let outcome = match view {
                    None => case_pass(
                        case,
                        self.warm,
                        ws,
                        nl,
                        active,
                        graph,
                        diagnostics,
                        latches,
                        options,
                        opts_fp,
                        jobs,
                        guards,
                        &delta,
                    ),
                    Some(v) => case_pass(
                        case,
                        self.warm,
                        ws,
                        nl,
                        active,
                        &v.on(graph),
                        diagnostics,
                        latches,
                        options,
                        opts_fp,
                        jobs,
                        guards,
                        &delta,
                    ),
                };
                self.trace.push(PassEvent {
                    pass: PassId::Arrivals(active),
                    outcome,
                });
            }
            if active.is_none() && clean {
                comb = Some(delta);
            }
            // A one-shot run never reads a case's graph again once its
            // arrivals, paths and races are done: free it before the
            // next case builds. The all-active graph stays while a
            // later phase may be built as a view over it.
            if !self.warm {
                let keep = share.is_some();
                for (j, g) in self.graphs.iter_mut().enumerate() {
                    if j != case_slot(None) || !keep {
                        *g = None;
                    }
                }
                if !keep {
                    comb = None;
                }
            }
        }

        // --- checks ---
        let checks_in = hash_words(&[
            stamp.design,
            stamp.topo,
            stamp.geom,
            stamp.cap,
            stamp.tech,
            flow_fp,
            qual_fp,
        ]);
        let checks_reran = match &self.checks {
            Some(s) if s.input_fp == checks_in => false,
            _ => {
                let _s = tv_obs::span("pass.checks");
                let value = check_electrical(nl, flow, qual);
                tv_obs::add(tv_obs::Counter::CheckIssues, value.len() as u64);
                self.checks = Some(Slot {
                    input_fp: checks_in,
                    output_fp: 0,
                    value,
                });
                true
            }
        };
        push(&mut self.trace, PassId::Checks, checks_reran);

        // Pass outcomes into the observability counters (the trace is
        // the single source; `add` is a no-op when the plane is off).
        let (mut computed, mut reused, mut spliced, mut revalidated, mut roots) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for e in &self.trace {
            match e.outcome {
                // A cone pass did real (if little) work: it counts as
                // computed in the pass-level telemetry; the cone.*
                // counters carry the finer story.
                PassOutcome::Computed | PassOutcome::Cone { .. } => computed += 1,
                PassOutcome::Reused | PassOutcome::Shared => reused += 1,
                PassOutcome::Spliced { roots: r } => {
                    spliced += 1;
                    // The extract pass reports de-shared instances in
                    // its `roots` field; only graph splices count here.
                    if !matches!(e.pass, PassId::Extract(_)) {
                        roots += r as u64;
                    }
                }
                PassOutcome::Revalidated => revalidated += 1,
            }
        }
        tv_obs::add(tv_obs::Counter::PassComputed, computed);
        tv_obs::add(tv_obs::Counter::PassReused, reused);
        tv_obs::add(tv_obs::Counter::PassSpliced, spliced);
        tv_obs::add(tv_obs::Counter::PassRevalidated, revalidated);
        tv_obs::add(tv_obs::Counter::GraphRootsSpliced, roots);

        // Every pass reused: the report is the one last hashed.
        if reused == self.trace.len() as u64 {
            self.fingerprint = fingerprint;
        }
        self.current = Some((stamp, opts_fp));
        Ok(())
    }

    /// The flow and qualify passes, which every later pass reads. Returns
    /// their output fingerprints.
    fn front(
        &mut self,
        nl: &Netlist,
        stamp: DesignStamp,
        options: &AnalysisOptions,
    ) -> Result<(u64, u64), TvError> {
        // --- flow ---
        let flow_reran = match &self.flow {
            Some(s) if s.input_fp == flow_input(stamp, options) => false,
            _ => {
                self.flow = Some(flow_pass(nl, stamp, options));
                true
            }
        };
        push(&mut self.trace, PassId::Flow, flow_reran);
        let flow_slot = self
            .flow
            .as_ref()
            .ok_or(internal("flow pass left no result"))?;
        let flow_fp = flow_slot.output_fp;

        // --- qualify ---
        let qual_in = hash_words(&[stamp.design, stamp.topo, flow_fp]);
        let qual_reran = match &self.qual {
            Some(s) if s.input_fp == qual_in => false,
            _ => {
                let _s = tv_obs::span("pass.qualify");
                let value = qualify_with_flow(nl, &flow_slot.value.analysis);
                let output_fp = qual_content_fp(&value);
                self.qual = Some(Slot {
                    input_fp: qual_in,
                    output_fp,
                    value,
                });
                true
            }
        };
        push(&mut self.trace, PassId::Qualify, qual_reran);
        let qual_fp = self
            .qual
            .as_ref()
            .ok_or(internal("qualify pass left no result"))?
            .output_fp;
        Ok((flow_fp, qual_fp))
    }

    /// The owned projection: a [`TimingReport`] assembled from the slots
    /// of the run just finished. A one-shot manager moves every result
    /// out (nothing reads its slots again); a session manager clones.
    fn report(&mut self, nl: &Netlist, options: &AnalysisOptions) -> Result<TimingReport, TvError> {
        let take = !self.warm;
        let flow = self
            .flow
            .as_mut()
            .ok_or(internal("flow pass left no result"))?;
        let (flow_report, census) = (flow.value.report.clone(), flow.value.census.clone());
        let mut diagnostics = out(&mut flow.value.diagnostics, take);
        let latches = out(
            &mut self
                .latches
                .as_mut()
                .ok_or(internal("latch pass left no result"))?
                .value,
            take,
        );
        let checks = out(
            &mut self
                .checks
                .as_mut()
                .ok_or(internal("checks pass left no result"))?
                .value,
            take,
        );
        let mut combinational = None;
        let mut phases = Vec::new();
        for &active in case_list(nl, options) {
            let case = out(&mut self.cases[case_slot(active)], take)
                .ok_or(internal("a case left no result"))?;
            diagnostics.extend(case.graph_diagnostics);
            diagnostics.extend(case.result.diagnostics.iter().cloned());
            match active {
                None => combinational = Some((case.result, case.paths)),
                Some(p) => phases.push(PhaseAnalysis {
                    phase: p,
                    arcs: case.arcs,
                    slack: slack(options, p, &case.result),
                    result: case.result,
                    paths: case.paths,
                    races: case.races,
                }),
            }
        }
        let (combinational, combinational_paths) =
            combinational.ok_or(internal("no combinational case"))?;
        diagnostics.extend(checks.iter().map(|c| c.diagnostic(nl)));
        let min_cycle = min_cycle(options, phases.iter().map(|p| &p.result));
        Ok(TimingReport {
            flow_report,
            census,
            combinational,
            combinational_paths,
            phases,
            latches,
            checks,
            min_cycle,
            diagnostics,
        })
    }

    /// The borrowed projection: the report's fingerprinted fields read in
    /// place, plus whether a worker panicked and whether a deadline cut a
    /// case short.
    fn parts(
        &self,
        nl: &Netlist,
        options: &AnalysisOptions,
    ) -> Result<(ReportParts<'_>, bool, bool), TvError> {
        let flow = self
            .flow
            .as_ref()
            .ok_or(internal("flow pass left no result"))?;
        let latches = self
            .latches
            .as_ref()
            .ok_or(internal("latch pass left no result"))?;
        let checks = self
            .checks
            .as_ref()
            .ok_or(internal("checks pass left no result"))?;
        let mut diagnostics = flow.value.diagnostics.len() + checks.value.len();
        let (mut worker_panic, mut deadline_exceeded) = (false, false);
        let mut combinational = None;
        let mut phases = Vec::new();
        for &active in case_list(nl, options) {
            let case = self.cases[case_slot(active)]
                .as_ref()
                .ok_or(internal("a case left no result"))?;
            let r = &case.result;
            diagnostics += case.graph_diagnostics.len() + r.diagnostics.len();
            worker_panic |= case
                .graph_diagnostics
                .iter()
                .chain(&r.diagnostics)
                .any(|d| d.code == codes::ANALYSIS_WORKER_PANIC);
            deadline_exceeded |= r.completion == Completion::DeadlineExceeded;
            match active {
                None => combinational = Some(case),
                Some(p) => phases.push(PhaseParts {
                    phase: p,
                    arcs: case.arcs,
                    slack: slack(options, p, r),
                    result: r,
                    paths: &case.paths,
                    races: &case.races,
                }),
            }
        }
        let combinational = combinational.ok_or(internal("no combinational case"))?;
        let min_cycle = min_cycle(options, phases.iter().map(|p| p.result));
        let parts = ReportParts {
            combinational: &combinational.result,
            combinational_paths: &combinational.paths,
            phases,
            latches: latches.value.len(),
            checks: checks.value.len(),
            diagnostics,
            min_cycle,
        };
        Ok((parts, worker_panic, deadline_exceeded))
    }
}

/// One-shot entry for the `Analyzer` facade: a throwaway manager with a
/// unique stamp, so every pass computes from scratch and no more than
/// one case graph is alive at a time.
pub(crate) fn oneshot(
    nl: &Netlist,
    options: &AnalysisOptions,
    enforce_limits: bool,
) -> Result<TimingReport, TvError> {
    PassManager::one_shot().analyze_inner(nl, DesignStamp::unique(), None, options, enforce_limits)
}

/// [`PassManager::path_query`] on a throwaway manager: runs the flow,
/// qualify and all-active graph passes cold, then the same
/// point-to-point propagation.
pub(crate) fn path_query_cold(
    nl: &Netlist,
    from: NodeId,
    to: NodeId,
    options: &AnalysisOptions,
) -> Option<TimingPath> {
    let mut pm = PassManager::one_shot();
    let stamp = DesignStamp::unique();
    let (flow_fp, qual_fp) = pm.front(nl, stamp, options).ok()?;
    let PassManager {
        flow,
        qual,
        graphs,
        trace,
        scratch,
        workspace,
        ..
    } = &mut pm;
    let run = GraphRun {
        warm: false,
        nl,
        flow: &flow.as_ref()?.value.analysis,
        qual: &qual.as_ref()?.value,
        stamp,
        design: None,
        options,
        flow_fp,
        qual_fp,
        jobs: options.effective_jobs(),
    };
    let slot = &mut graphs[case_slot(None)];
    graph_pass(
        slot,
        trace,
        scratch,
        &run,
        PhaseCase::all_active(),
        Share::Off,
    );
    point_to_point(
        nl,
        &comb_graph(graphs)?.graph,
        from,
        to,
        &options.slope,
        workspace,
    )
}

/// The worst path from `from` to `to` over `graph`: a serial walk with
/// `from` as the only source, backtracked from `to`'s worst edge.
fn point_to_point(
    nl: &Netlist,
    graph: &TimingGraph,
    from: NodeId,
    to: NodeId,
    slope: &SlopeModel,
    ws: &mut Workspace,
) -> Option<TimingPath> {
    let _span = tv_obs::span("pass.paths");
    let result = propagate_full(
        nl,
        graph,
        &[from],
        &[],
        &[to],
        slope,
        1,
        Guards::default(),
        ws,
        None,
    );
    let edge = result.arrivals.worst_edge(to)?;
    backtrack(graph, &result.arrivals, to, edge)
}

/// The flow pass: the analysis, its content fingerprint and the report
/// fields derived from it.
fn flow_pass(nl: &Netlist, stamp: DesignStamp, options: &AnalysisOptions) -> Slot<FlowOutput> {
    let _s = tv_obs::span("pass.flow");
    let analysis = tv_flow::analyze(nl, &options.rules);
    Slot {
        input_fp: flow_input(stamp, options),
        output_fp: flow_fingerprint(nl, &analysis),
        value: FlowOutput {
            report: analysis.report(nl),
            census: analysis.census(),
            diagnostics: analysis.diagnostics(nl),
            analysis,
        },
    }
}

/// What every graph pass of one run reads.
struct GraphRun<'a> {
    /// Whether builds record extents for splicing (a session manager).
    warm: bool,
    nl: &'a Netlist,
    flow: &'a FlowAnalysis,
    qual: &'a [Qualification],
    stamp: DesignStamp,
    /// The design, which enables dirty-set queries for splicing.
    design: Option<&'a Design>,
    options: &'a AnalysisOptions,
    flow_fp: u64,
    qual_fp: u64,
    jobs: usize,
}

impl GraphRun<'_> {
    /// The graph builder of `case`.
    fn builder(&self, case: PhaseCase) -> GraphBuilder<'_> {
        GraphBuilder {
            netlist: self.nl,
            flow: self.flow,
            qualification: self.qual,
            case,
            model: self.options.model,
        }
    }

    /// The graph pass input fingerprint of `case`, and its shape
    /// fingerprint: the same without the geometry and capacitance
    /// counters, so a matching shape under a mismatching input means
    /// only delay values moved.
    fn fps(&self, case: PhaseCase) -> (u64, u64) {
        let s = self.stamp;
        let case_tag = case.active.map_or(0, |p| 1 + p as u64);
        let model_tag = self.options.model as u64;
        let (flow_fp, qual_fp) = (self.flow_fp, self.qual_fp);
        (
            hash_words(&[
                s.design, s.topo, s.geom, s.cap, s.tech, model_tag, case_tag, flow_fp, qual_fp,
            ]),
            hash_words(&[
                s.design, s.topo, s.tech, model_tag, case_tag, flow_fp, qual_fp,
            ]),
        )
    }

    /// The design revision a graph built now reflects.
    fn revision(&self) -> Revision {
        self.design.map_or(Revision(0), |d| d.revision())
    }
}

/// Records how `case`'s extract and graph passes were satisfied.
fn graph_outcome(
    trace: &mut Vec<PassEvent>,
    case: PhaseCase,
    extract: PassOutcome,
    graph: PassOutcome,
) {
    trace.push(PassEvent {
        pass: PassId::Extract(case.active),
        outcome: extract,
    });
    trace.push(PassEvent {
        pass: PassId::Graph(case.active),
        outcome: graph,
    });
}

/// The graph pass of the all-active case, or of a phase case built
/// alone: reuse on a clean input fingerprint, splice on a
/// parametric-only delta ([`keep_graph`]), full rebuild otherwise. A
/// full build takes part in the case share as `share` says.
///
/// Returns the [`CaseDelta`] certificate for the arrival pass: the
/// graph fingerprint the arcs now reflect, and — when the pass reused,
/// revalidated, or spliced — exactly which node indices hold different
/// in-arc words than under the previous fingerprint. The
/// certificate's "sources and endpoints unchanged" clause holds because
/// every non-rebuild outcome pins topology, flow, and qualification
/// (via `shape_fp`), which determine the latch set and hence every
/// case's source/endpoint lists.
fn graph_pass(
    slot: &mut Option<CaseGraph>,
    trace: &mut Vec<PassEvent>,
    scratch: &mut BuildScratch,
    run: &GraphRun<'_>,
    case: PhaseCase,
    share: Share<'_>,
) -> CaseDelta {
    let _span = tv_obs::span("pass.graph");
    if let Some(CaseGraph::Own(s)) = slot.as_mut() {
        if let Some(delta) = keep_graph(s, trace, scratch, run, case) {
            return delta;
        }
    }
    *slot = None;
    let built = build_graph(run, case, share, scratch);
    let delta = CaseDelta::rebuilt(built.input_fp);
    *slot = Some(CaseGraph::Own(Box::new(built)));
    let computed = PassOutcome::Computed;
    graph_outcome(trace, case, computed, computed);
    delta
}

/// A full build of `case` into a fresh slot, with the extent index when
/// the run is warm.
fn build_graph(
    run: &GraphRun<'_>,
    case: PhaseCase,
    share: Share<'_>,
    scratch: &mut BuildScratch,
) -> GraphSlot {
    let (input_fp, shape_fp) = run.fps(case);
    let builder = run.builder(case);
    let (sb, extraction) = build(&builder, SOURCE_RESISTANCE, run.jobs, share, None);
    let extents = sb.spans.as_ref().filter(|_| run.warm).map(|_| {
        scratch.fit(run.nl.node_count());
        builder.extents(&sb.roots, scratch)
    });
    GraphSlot {
        input_fp,
        shape_fp,
        built_revision: run.revision(),
        graph: sb.graph,
        roots: if run.warm { sb.roots } else { Vec::new() },
        spans: sb.spans,
        extents,
        extraction: extraction.filter(|_| run.warm),
    }
}

/// Serves `case` from its own graph slot without a rebuild when it can:
/// reuse on a clean input fingerprint, revalidation when the edit missed
/// every root's extent, and a splice of the affected roots after a
/// parametric-only delta (matching shape, recorded spans and extents,
/// clean diagnostics, node-granular dirty set). `None` when the case
/// must be rebuilt.
///
/// The splice is sound because (a) parametric edits cannot change walk
/// topology, stage membership, or the root set — those depend only on
/// topology, flow, and qualification, all pinned by `shape_fp`; and (b)
/// every edit dirties all terminals of the touched device (or the node
/// whose cap changed), and every device or cap a root's delays read has
/// a node in that root's extent — so `dirty ∩ extent` covers every stale
/// root. `splice_roots` still verifies arc shape per root and falls back
/// on any surprise.
fn keep_graph(
    s: &mut GraphSlot,
    trace: &mut Vec<PassEvent>,
    scratch: &mut BuildScratch,
    run: &GraphRun<'_>,
    case: PhaseCase,
) -> Option<CaseDelta> {
    let (input_fp, shape_fp) = run.fps(case);
    if s.input_fp == input_fp {
        graph_outcome(trace, case, PassOutcome::Reused, PassOutcome::Reused);
        return Some(CaseDelta::moved(input_fp, input_fp, Vec::new()));
    }
    let d = run.design?;
    if s.shape_fp != shape_fp || !s.graph.diagnostics.is_empty() {
        return None;
    }
    let (spans, extents) = (s.spans.as_mut()?, s.extents.as_ref()?);
    let DirtySince::Nodes(dirty) = d.dirty_since(s.built_revision) else {
        return None;
    };
    let affected = extents.hit(&dirty);
    let prev_fp = s.input_fp;
    if affected.is_empty() {
        // The edit landed entirely outside this graph's read set (e.g. a
        // cap tweak on a node no stage's tree reaches): revalidate
        // without touching an arc.
        (s.input_fp, s.built_revision) = (input_fp, d.revision());
        let revalidated = PassOutcome::Revalidated;
        graph_outcome(trace, case, revalidated, revalidated);
        return Some(CaseDelta::moved(input_fp, prev_fp, Vec::new()));
    }
    scratch.fit(run.nl.node_count());
    let graph = &mut s.graph;
    let changed = splice_roots(
        &mut graph.arcs,
        &mut graph.delays,
        0,
        &run.builder(case),
        SOURCE_RESISTANCE,
        &s.roots,
        spans,
        &affected,
        scratch,
    );
    let Ok(changed) = changed else {
        // Shape mismatch (or a contained panic) mid-splice: the graph is
        // partially overwritten and must be discarded, and the scratch
        // may hold a half-finished walk.
        *scratch = BuildScratch::default();
        return None;
    };
    (s.input_fp, s.built_revision) = (input_fp, d.revision());
    spliced(trace, case, s.extraction.as_mut(), &affected);
    Some(CaseDelta::moved(input_fp, prev_fp, changed))
}

/// Records a splice of the `affected` root ordinals: every one that was
/// instanced from a shared macromodel is first split into a singleton
/// class, so the splice never rewrites siblings.
fn spliced(
    trace: &mut Vec<PassEvent>,
    case: PhaseCase,
    extraction: Option<&mut Extraction>,
    affected: &[u32],
) {
    let desplit = extraction.map_or(0, |e| e.desplit(affected));
    graph_outcome(
        trace,
        case,
        PassOutcome::Spliced {
            roots: desplit as usize,
        },
        PassOutcome::Spliced {
            roots: affected.len(),
        },
    );
}

/// The graph pass of phase case `case`. A view over the all-active
/// graph (`base`: its clean slot and this run's delta) is kept while it
/// can be ([`keep_view`]), and a phase built alone while its own slot
/// can be ([`keep_graph`]). Otherwise the case is rebuilt: as a view
/// when the all-active build left `share` this run, alone when it did
/// not or the view's build degraded. A view that replaces no root
/// reports `Shared` where a graph would report a rebuild or a splice.
fn phase_pass(
    slot: &mut Option<CaseGraph>,
    trace: &mut Vec<PassEvent>,
    scratch: &mut BuildScratch,
    run: &GraphRun<'_>,
    case: PhaseCase,
    base: Option<(&GraphSlot, &CaseDelta)>,
    share: &Option<CaseShare>,
) -> CaseDelta {
    let _span = tv_obs::span("pass.graph");
    let kept = match slot.as_mut() {
        Some(CaseGraph::View(v)) => base.and_then(|b| keep_view(v, b, trace, scratch, run, case)),
        Some(CaseGraph::Own(s)) => keep_graph(s, trace, scratch, run, case),
        None => None,
    };
    if let Some(delta) = kept {
        return delta;
    }
    *slot = None;
    let (input_fp, shape_fp) = run.fps(case);
    let view = base.zip(share.as_ref()).and_then(|((b, comb), share)| {
        let builder = run.builder(case);
        let spans = b.spans.as_ref()?;
        let (view, extraction) = build_view(
            &builder,
            SOURCE_RESISTANCE,
            run.jobs,
            (&b.graph, spans),
            share,
            None,
        )?;
        let splice = (run.warm && !view.is_empty()).then(|| {
            let roots: Vec<_> = view.replaced.iter().map(|&r| b.roots[r as usize]).collect();
            scratch.fit(run.nl.node_count());
            let extents = builder.extents(&roots, scratch);
            (roots, extents)
        });
        Some(ViewSlot {
            input_fp,
            shape_fp,
            built_revision: run.revision(),
            base_fp: comb.graph_fp,
            view,
            splice,
            extraction: extraction.filter(|_| run.warm),
        })
    });
    let outcome = match view {
        Some(v) => {
            let outcome = match v.view.is_empty() {
                true => PassOutcome::Shared,
                false => PassOutcome::Computed,
            };
            *slot = Some(CaseGraph::View(Box::new(v)));
            outcome
        }
        None => {
            let built = build_graph(run, case, Share::Off, scratch);
            *slot = Some(CaseGraph::Own(Box::new(built)));
            PassOutcome::Computed
        }
    };
    graph_outcome(trace, case, outcome, outcome);
    CaseDelta::rebuilt(input_fp)
}

/// Serves `case` from its view without a rebuild when it can. The view
/// reads the all-active arcs as of `v.base_fp`, so it holds only while
/// its shape does and this run's all-active delta `comb` steps from
/// exactly there (by reuse, revalidation or splice); `None` otherwise,
/// and the case is rebuilt.
///
/// An invariant root's arcs and rows are its all-active ones, so the
/// all-active splice already rewrote it: of the edit, the view splices
/// only the replaced roots the phase's own extents hit. The case's
/// affected roots are the invariant roots the all-active extents hit
/// (an invariant root's extent is the same in both cases) plus those,
/// and its changed targets are the all-active splice's for invariant
/// roots plus its own. An empty view reports `Shared`.
fn keep_view(
    v: &mut ViewSlot,
    (base, comb): (&GraphSlot, &CaseDelta),
    trace: &mut Vec<PassEvent>,
    scratch: &mut BuildScratch,
    run: &GraphRun<'_>,
    case: PhaseCase,
) -> Option<CaseDelta> {
    let (input_fp, shape_fp) = run.fps(case);
    let (comb_prev, _) = comb.since.as_ref()?;
    if v.shape_fp != shape_fp || v.base_fp != *comb_prev {
        return None;
    }
    let prev_fp = v.input_fp;
    let replaced = &v.view.replaced;
    let invariant = |r: &u32| replaced.binary_search(r).is_err();
    let mut changed: Vec<(u32, u32)> = comb
        .by_root
        .iter()
        .copied()
        .filter(|(r, _)| invariant(r))
        .collect();
    let outcome = if prev_fp == input_fp {
        PassOutcome::Reused
    } else if v.view.is_empty() {
        PassOutcome::Shared
    } else {
        let d = run.design?;
        let (roots, extents) = v.splice.as_ref()?;
        let DirtySince::Nodes(dirty) = d.dirty_since(v.built_revision) else {
            return None;
        };
        let own = extents.hit(&dirty);
        let mut affected: Vec<u32> = base.extents.as_ref()?.hit(&dirty);
        affected.retain(invariant);
        affected.extend(own.iter().map(|&k| replaced[k as usize]));
        affected.sort_unstable();
        if affected.is_empty() {
            PassOutcome::Revalidated
        } else {
            scratch.fit(run.nl.node_count());
            let view = &mut v.view;
            let own_changed = splice_roots(
                &mut view.arcs,
                &mut view.delays,
                OWN_ROW,
                &run.builder(case),
                SOURCE_RESISTANCE,
                roots,
                &mut view.spans,
                &own,
                scratch,
            );
            let Ok(own_changed) = own_changed else {
                *scratch = BuildScratch::default();
                return None;
            };
            changed.extend(own_changed);
            spliced(trace, case, v.extraction.as_mut(), &affected);
            (v.input_fp, v.base_fp, v.built_revision) = (input_fp, comb.graph_fp, d.revision());
            return Some(CaseDelta::moved(input_fp, prev_fp, changed));
        }
    };
    graph_outcome(trace, case, outcome, outcome);
    v.input_fp = input_fp;
    v.base_fp = comb.graph_fp;
    v.built_revision = run.revision();
    Some(CaseDelta::moved(input_fp, prev_fp, changed))
}

/// The arrival pass for one case, with the case's paths and races, and
/// its trace outcome. On a `warm` manager the case slot's kept result
/// serves the run whenever its key still holds:
///
/// * computed under the current graph fingerprint and options digest —
///   nothing changed, so it is used as is (outcome `Reused`, no walk),
///   whatever its completion: a cyclic case that exhausted its budget
///   would exhaust it again identically;
/// * complete over a residue-free graph, under the fingerprint
///   `delta.since` names — only the listed nodes' in-arc words changed,
///   so the cone engine re-relaxes their fanout closure in place
///   (`Cone`, or `Reused` when the list is empty).
///
/// Everything else runs the full walk (`Computed`): a cold or rebuilt
/// graph, a cyclic residue after an edit, a cone over half the graph
/// (the chunkable walk is at least as fast), or an armed deadline (which
/// needs the walk's level-boundary checks). Both cut-offs depend only on
/// the certified edit, never on `jobs`, so the work counters stay
/// schedule-independent. A walked result is kept for reuse unless a
/// deadline cut it short or a worker panicked.
#[allow(clippy::too_many_arguments)]
fn case_pass(
    slot: &mut Option<CaseSlot>,
    warm: bool,
    ws: &mut Workspace,
    nl: &Netlist,
    active: Option<u8>,
    graph: &impl ArcGraph,
    graph_diagnostics: &[Diagnostic],
    latches: &[Latch],
    options: &AnalysisOptions,
    opts_fp: u64,
    jobs: usize,
    guards: Guards,
    delta: &CaseDelta,
) -> PassOutcome {
    let n = graph.node_count();
    let key = (delta.graph_fp, opts_fp);
    // Fault plane: a forced certificate corruption. Dropping the key
    // forces the full walk, whose result is bit-identical — corruption
    // degrades cost, never answers.
    if warm && tv_fault::fault_point!(tv_fault::Site::CertLookup) {
        tv_obs::incr(tv_obs::Counter::FaultInjected);
        tv_obs::incr(tv_obs::Counter::FaultDegraded);
        if let Some(s) = slot.as_mut() {
            s.key = None;
        }
    }
    let hit = warm && slot.as_ref().is_some_and(|s| s.key == Some(key));
    if hit && guards.deadline.is_none() {
        tv_obs::incr(tv_obs::Counter::CacheCaseHits);
        tv_obs::add(tv_obs::Counter::CacheNodesReused, n as u64);
        return PassOutcome::Reused;
    }

    let (sources, storages, endpoints) = match active {
        None => (
            external_sources(nl),
            Vec::new(),
            endpoints_or_all(nl, nl.outputs()),
        ),
        Some(p) => (
            phase_sources(nl, latches, p),
            crate::hold::phase_storages(latches, p),
            phase_endpoints(nl, latches, p),
        ),
    };
    // The nodes whose in-arc words changed since the kept result, when
    // the cone engine may start from it.
    let seeds: Option<&[u32]> = match (slot.as_ref(), &delta.since) {
        (Some(s), _) if !s.complete() || !graph.schedule().residue.is_empty() => None,
        _ if hit => Some(&[]),
        (Some(s), Some((prev_fp, changed))) if s.key == Some((*prev_fp, opts_fp)) => Some(changed),
        _ => None,
    };
    if let (Some(seeds), Some(s)) = (seeds, slot.as_mut()) {
        let recomputed = ws.mark_cone(graph, seeds);
        if guards.deadline.is_none() && recomputed * 2 <= n {
            propagate_cone(
                graph,
                &sources,
                &storages,
                &endpoints,
                &options.slope,
                &mut s.result,
                ws,
            );
            (s.paths, s.races) = derive(active, graph, &s.result, &storages, options.top_k);
            s.key = Some(key);
            tv_obs::incr(tv_obs::Counter::CacheCaseMisses);
            tv_obs::add(tv_obs::Counter::ConeSeeds, seeds.len() as u64);
            tv_obs::add(tv_obs::Counter::CacheNodesReused, (n - recomputed) as u64);
            tv_obs::add(tv_obs::Counter::CacheNodesRecomputed, recomputed as u64);
            return if recomputed == 0 {
                PassOutcome::Reused
            } else {
                PassOutcome::Cone { recomputed }
            };
        }
        tv_obs::incr(tv_obs::Counter::ConeFallbacks);
    }

    // The old result is not read again: free it before the walk builds
    // the new one.
    *slot = None;
    let mut result = propagate_full(
        nl,
        graph,
        &sources,
        &storages,
        &endpoints,
        &options.slope,
        jobs,
        guards,
        ws,
        None,
    );
    // An empty view's case walks the all-active graph.
    result.case = PhaseCase { active };
    if warm {
        tv_obs::incr(tv_obs::Counter::CacheCaseMisses);
        tv_obs::add(tv_obs::Counter::CacheNodesRecomputed, n as u64);
    }
    let keep = result.completion != Completion::DeadlineExceeded
        && !result
            .diagnostics
            .iter()
            .any(|d| d.code == codes::ANALYSIS_WORKER_PANIC);
    let (paths, races) = derive(active, graph, &result, &storages, options.top_k);
    *slot = Some(CaseSlot {
        key: keep.then_some(key),
        arcs: graph.arc_count(),
        graph_diagnostics: graph_diagnostics.to_vec(),
        result,
        paths,
        races,
    });
    PassOutcome::Computed
}

/// What the report derives from a case's fresh result: its top-K
/// critical paths and, for a phase case, its races.
fn derive(
    active: Option<u8>,
    graph: &impl ArcGraph,
    result: &PhaseResult,
    storages: &[NodeId],
    top_k: usize,
) -> (Vec<TimingPath>, Vec<RaceHazard>) {
    let paths = {
        let _s = tv_obs::span("pass.paths");
        critical_paths(graph, result, top_k)
    };
    let races = if active.is_some() {
        let _s = tv_obs::span("pass.races");
        crate::hold::races(graph, &result.arrivals, storages)
    } else {
        Vec::new()
    };
    (paths, races)
}

/// The cases a run builds: all-active, then each phase when case
/// analysis applies. The all-active case is walked only when it is the
/// one case.
fn case_list(nl: &Netlist, options: &AnalysisOptions) -> &'static [Option<u8>] {
    if options.case_analysis && !nl.clocks().is_empty() {
        &[None, Some(0), Some(1)]
    } else {
        &[None]
    }
}

/// Setup slack of phase `p`'s worst endpoint against its clock width.
fn slack(options: &AnalysisOptions, p: u8, result: &PhaseResult) -> Option<f64> {
    result
        .critical_arrival()
        .map(|a| options.clock.width(p) - a)
}

/// Smallest two-phase cycle accommodating both phases' critical
/// arrivals; `None` unless both phases ran.
fn min_cycle<'a>(
    options: &AnalysisOptions,
    phases: impl Iterator<Item = &'a PhaseResult>,
) -> Option<f64> {
    let a: Vec<f64> = phases
        .map(|r| r.critical_arrival().unwrap_or(0.0))
        .collect();
    match a[..] {
        [a0, a1] => Some(ClockConstraints::new(options.clock).min_cycle(a0, a1)),
        _ => None,
    }
}

/// Moves a slot's value out (one-shot: nothing reads it again) or
/// clones it (session: it serves the next run).
fn out<T: Clone + Default>(value: &mut T, take: bool) -> T {
    if take {
        std::mem::take(value)
    } else {
        value.clone()
    }
}

fn case_slot(case: Option<u8>) -> usize {
    match case {
        None => 0,
        Some(p) => 1 + (p as usize).min(1),
    }
}

fn push(trace: &mut Vec<PassEvent>, pass: PassId, reran: bool) {
    trace.push(PassEvent {
        pass,
        outcome: if reran {
            PassOutcome::Computed
        } else {
            PassOutcome::Reused
        },
    });
}

/// A violated pipeline invariant, as a typed error: one session command
/// degrades to an error reply instead of the whole `tv session` process
/// dying on an `unwrap`.
fn internal(what: &'static str) -> TvError {
    TvError::Internal { what }
}

const SEED: u64 = 0xcbf29ce484222325;

/// The flow pass's input fingerprint: design identity, topology, rules.
fn flow_input(stamp: DesignStamp, options: &AnalysisOptions) -> u64 {
    hash_words(&[stamp.design, stamp.topo, rules_fp(options)])
}

fn rules_fp(options: &AnalysisOptions) -> u64 {
    format!("{:?}", options.rules)
        .bytes()
        .fold(SEED, |h, b| mix64(h, b as u64))
}

/// Digest of every option a report depends on beyond the design. The
/// case results are keyed by it: slope model, relaxation budget and
/// top-K act below every graph fingerprint, and the clock (slack and
/// minimum cycle) would otherwise move no pass key, so a run that
/// reuses every pass could serve a stale cached fingerprint. Queries
/// read the slots only under the digest they were built with. `jobs`
/// and the size limits never change a result; a deadline never lets a
/// result be reused.
fn options_fp(options: &AnalysisOptions) -> u64 {
    let clock = &options.clock;
    hash_words(&[
        rules_fp(options),
        options.model as u64,
        options.case_analysis as u64,
        options.top_k as u64,
        options.slope.k_slope.to_bits(),
        options.slope.k_transition.to_bits(),
        options.relax_budget.is_some() as u64,
        options.relax_budget.unwrap_or(0) as u64,
        clock.width(0).to_bits(),
        clock.width(1).to_bits(),
        clock.gap().to_bits(),
    ])
}

fn qual_content_fp(qual: &[Qualification]) -> u64 {
    qual.iter().fold(SEED, |h, q| {
        mix64(
            h,
            match q {
                Qualification::Unclocked => 0,
                Qualification::Phase(p) => 1 + *p as u64,
                Qualification::Conflict => u64::MAX,
            },
        )
    })
}

fn latch_content_fp(latches: &[Latch]) -> u64 {
    latches.iter().fold(SEED, |h, l| {
        let h = mix64(h, l.storage.index() as u64);
        let h = mix64(h, l.pass.index() as u64);
        let h = mix64(h, l.phase as u64);
        mix64(h, l.data_from.index() as u64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Arc, ArcDelay};
    use tv_gen::{chains, datapath};
    use tv_netlist::Tech;

    fn trace_outcome(pm: &PassManager, pass: PassId) -> Option<PassOutcome> {
        pm.last_trace()
            .iter()
            .find(|e| e.pass == pass)
            .map(|e| e.outcome)
    }

    #[test]
    fn one_shot_run_frees_every_case_graph() {
        let dp = datapath::datapath(Tech::nmos4um(), datapath::DatapathConfig::small());
        let nl = &dp.netlist;
        let opts = AnalysisOptions::default();
        let mut pm = PassManager::one_shot();
        let r = pm
            .analyze_inner(nl, DesignStamp::unique(), None, &opts, true)
            .expect("within limits");
        assert_eq!(r.phases.len(), 2, "clocked design runs both phase cases");
        assert!(r.phases.iter().all(|p| p.arcs > 0));
        assert!(
            pm.graphs.iter().all(Option::is_none),
            "a one-shot manager keeps no graph once the report is built"
        );
        // The arc limit is still enforced before the graph is freed.
        let limited = AnalysisOptions {
            max_arcs: Some(1),
            ..AnalysisOptions::default()
        };
        match crate::Analyzer::new(nl).try_run(&limited) {
            Err(TvError::TooLarge { what, .. }) => assert_eq!(what, "arcs"),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // A session manager keeps all three for warm re-analysis.
        let mut warm = PassManager::new();
        warm.analyze(&Design::new(nl.clone()), &opts);
        assert!(warm.graphs.iter().all(Option::is_some));
    }

    #[test]
    fn unchanged_reanalysis_reuses_every_pass() {
        let c = chains::inverter_chain(Tech::nmos4um(), 6, 1);
        let design = Design::new(c.netlist);
        let mut pm = PassManager::new();
        let opts = AnalysisOptions::default();
        let r1 = pm.analyze(&design, &opts);
        assert!(pm.last_trace().iter().all(|e| e.reran()), "cold run");
        let r2 = pm.analyze(&design, &opts);
        for e in pm.last_trace() {
            assert_eq!(e.outcome, PassOutcome::Reused, "{:?}", e.pass);
        }
        let nl = design.netlist();
        assert_eq!(
            crate::fingerprint::report_fingerprint(nl, &r1),
            crate::fingerprint::report_fingerprint(nl, &r2)
        );
    }

    #[test]
    fn cap_edit_skips_flow_and_splices_graph() {
        let c = chains::inverter_chain(Tech::nmos4um(), 8, 1);
        let mut design = Design::new(c.netlist);
        let mut pm = PassManager::new();
        let opts = AnalysisOptions::default();
        pm.analyze(&design, &opts);
        let flow_fp = pm.pass_fingerprint(PassId::Flow).unwrap();
        let latch_fp = pm.pass_fingerprint(PassId::Latches).unwrap();
        let mid = design.netlist().node_by_name("s3").unwrap();
        design.set_node_cap(mid, 0.4).unwrap();
        let r = pm.analyze(&design, &opts);
        assert_eq!(trace_outcome(&pm, PassId::Flow), Some(PassOutcome::Reused));
        assert_eq!(
            trace_outcome(&pm, PassId::Qualify),
            Some(PassOutcome::Reused)
        );
        assert_eq!(
            trace_outcome(&pm, PassId::Latches),
            Some(PassOutcome::Reused)
        );
        assert!(
            matches!(
                trace_outcome(&pm, PassId::Graph(None)),
                Some(PassOutcome::Spliced { .. })
            ),
            "cap edit should splice, got {:?}",
            trace_outcome(&pm, PassId::Graph(None))
        );
        assert_eq!(pm.pass_fingerprint(PassId::Flow), Some(flow_fp));
        assert_eq!(pm.pass_fingerprint(PassId::Latches), Some(latch_fp));
        // And the spliced result matches a cold analysis bit for bit.
        let cold = crate::Analyzer::new(design.netlist()).run(&opts);
        assert_eq!(
            crate::fingerprint::report_fingerprint(design.netlist(), &r),
            crate::fingerprint::report_fingerprint(design.netlist(), &cold)
        );
    }

    #[test]
    fn resize_edit_splices_without_relatching() {
        let dp = datapath::datapath(Tech::nmos4um(), datapath::DatapathConfig::small());
        let mut design = Design::new(dp.netlist);
        let mut pm = PassManager::new();
        let opts = AnalysisOptions::default();
        pm.analyze(&design, &opts);
        let latch_fp = pm.pass_fingerprint(PassId::Latches).unwrap();
        let dev = design.netlist().devices().next().unwrap().id;
        let (w, l) = {
            let d = design.netlist().device(dev);
            (d.width(), d.length())
        };
        design.resize_device(dev, w * 2.0, l).unwrap();
        let r = pm.analyze(&design, &opts);
        assert_eq!(
            trace_outcome(&pm, PassId::Latches),
            Some(PassOutcome::Reused)
        );
        assert_eq!(pm.pass_fingerprint(PassId::Latches), Some(latch_fp));
        for case in [None, Some(0), Some(1)] {
            assert!(
                matches!(
                    trace_outcome(&pm, PassId::Graph(case)),
                    Some(PassOutcome::Spliced { .. } | PassOutcome::Revalidated)
                ),
                "graph {case:?}: {:?}",
                trace_outcome(&pm, PassId::Graph(case))
            );
        }
        let cold = crate::Analyzer::new(design.netlist()).run(&opts);
        assert_eq!(
            crate::fingerprint::report_fingerprint(design.netlist(), &r),
            crate::fingerprint::report_fingerprint(design.netlist(), &cold)
        );
    }

    #[test]
    fn structural_edit_reruns_flow_and_rebuilds() {
        let c = chains::inverter_chain(Tech::nmos4um(), 5, 1);
        let mut design = Design::new(c.netlist);
        let mut pm = PassManager::new();
        let opts = AnalysisOptions::default();
        pm.analyze(&design, &opts);
        let (tap, _) = design.add_node("tap", tv_netlist::NodeRole::Internal);
        let s2 = design.netlist().node_by_name("s2").unwrap();
        design
            .add_device(
                "mtap",
                tv_netlist::DeviceKind::Enhancement,
                s2,
                design.netlist().gnd(),
                tap,
                4.0,
                2.0,
            )
            .unwrap();
        let r = pm.analyze(&design, &opts);
        assert_eq!(
            trace_outcome(&pm, PassId::Flow),
            Some(PassOutcome::Computed)
        );
        assert_eq!(
            trace_outcome(&pm, PassId::Graph(None)),
            Some(PassOutcome::Computed)
        );
        let cold = crate::Analyzer::new(design.netlist()).run(&opts);
        assert_eq!(
            crate::fingerprint::report_fingerprint(design.netlist(), &r),
            crate::fingerprint::report_fingerprint(design.netlist(), &cold)
        );
    }

    fn fingerprint(design: &Design, r: &TimingReport) -> u64 {
        crate::fingerprint::report_fingerprint(design.netlist(), r)
    }

    #[test]
    fn slope_and_model_changes_match_cold_runs() {
        // Slope handling acts below every graph fingerprint: only the
        // slope key stops an unchanged design from serving a snapshot
        // taken under the old slope model.
        let dp = datapath::datapath(Tech::nmos4um(), datapath::DatapathConfig::small());
        let design = Design::new(dp.netlist);
        let mut pm = PassManager::new();
        pm.analyze(&design, &AnalysisOptions::default());
        let configs = [
            AnalysisOptions {
                slope: SlopeModel::disabled(),
                ..AnalysisOptions::default()
            },
            AnalysisOptions {
                model: crate::options::DelayModel::Lumped,
                ..AnalysisOptions::default()
            },
            AnalysisOptions::default(),
        ];
        for opts in &configs {
            let warm = pm.analyze(&design, opts);
            let cold = crate::Analyzer::new(design.netlist()).run(opts);
            assert_eq!(
                fingerprint(&design, &warm),
                fingerprint(&design, &cold),
                "slope {:?} model {:?}",
                opts.slope,
                opts.model
            );
        }
    }

    #[test]
    fn oversized_cone_falls_back_to_full_walk() {
        // A cap edit at the head of a chain dirties most of the graph:
        // the full walk serves it, bit-identically.
        let c = chains::inverter_chain(Tech::nmos4um(), 6, 1);
        let mut design = Design::new(c.netlist);
        let mut pm = PassManager::new();
        let opts = AnalysisOptions::default();
        pm.analyze(&design, &opts);
        let head = design.netlist().node_by_name("s0").unwrap();
        design.set_node_cap(head, 0.4).unwrap();
        let r = pm.analyze(&design, &opts);
        assert!(matches!(
            trace_outcome(&pm, PassId::Graph(None)),
            Some(PassOutcome::Spliced { .. })
        ));
        assert_eq!(
            trace_outcome(&pm, PassId::Arrivals(None)),
            Some(PassOutcome::Computed)
        );
        let cold = crate::Analyzer::new(design.netlist()).run(&opts);
        assert_eq!(fingerprint(&design, &r), fingerprint(&design, &cold));

        // An edit at the tail stays a minority cone.
        let tail = design.netlist().node_by_name("s4").unwrap();
        design.set_node_cap(tail, 0.4).unwrap();
        let r = pm.analyze(&design, &opts);
        assert!(matches!(
            trace_outcome(&pm, PassId::Arrivals(None)),
            Some(PassOutcome::Cone { .. })
        ));
        let cold = crate::Analyzer::new(design.netlist()).run(&opts);
        assert_eq!(fingerprint(&design, &r), fingerprint(&design, &cold));
    }

    fn small_datapath() -> Design {
        let dp = datapath::datapath(Tech::nmos4um(), datapath::DatapathConfig::small());
        Design::new(dp.netlist)
    }

    fn arrival_outcomes(pm: &PassManager) -> Vec<PassOutcome> {
        pm.last_trace()
            .iter()
            .filter(|e| matches!(e.pass, PassId::Arrivals(_)))
            .map(|e| e.outcome)
            .collect()
    }

    #[test]
    fn armed_deadline_forces_full_walk() {
        // A deadline needs the full walk's level-boundary checks, so even
        // an unchanged re-analysis walks instead of serving a kept result
        // — on a cyclic design too, and after a run without a deadline
        // kept every case.
        let c = chains::inverter_chain(Tech::nmos4um(), 5, 1);
        for design in [Design::new(c.netlist), small_datapath()] {
            let mut pm = PassManager::new();
            let opts = AnalysisOptions {
                deadline: Some(std::time::Duration::from_secs(3600)),
                ..AnalysisOptions::default()
            };
            let primed = pm.analyze(&design, &AnalysisOptions::default());
            for _ in 0..2 {
                let warm = pm.analyze(&design, &opts);
                assert_eq!(
                    trace_outcome(&pm, PassId::Graph(None)),
                    Some(PassOutcome::Reused)
                );
                let walked = arrival_outcomes(&pm);
                assert!(
                    walked.iter().all(|&o| o == PassOutcome::Computed),
                    "{walked:?}"
                );
                assert_eq!(fingerprint(&design, &primed), fingerprint(&design, &warm));
            }
        }
    }

    #[test]
    fn results_a_deadline_cut_short_are_never_kept() {
        let design = small_datapath();
        let mut pm = PassManager::new();
        let expired = AnalysisOptions {
            deadline: Some(std::time::Duration::ZERO),
            ..AnalysisOptions::default()
        };
        let cut = pm.try_summarize(&design, &expired).expect("within limits");
        assert!(cut.deadline_exceeded && !cut.complete);
        // The deadline is no cache key: only the keep rule stops the
        // partial results from serving the unguarded run.
        let opts = AnalysisOptions::default();
        let warm = pm.try_summarize(&design, &opts).expect("within limits");
        let walked = arrival_outcomes(&pm);
        assert!(
            walked.iter().all(|&o| o == PassOutcome::Computed),
            "{walked:?}"
        );
        let cold = crate::Analyzer::new(design.netlist()).run(&opts);
        assert_eq!(warm.fingerprint, fingerprint(&design, &cold));
        assert!(!warm.deadline_exceeded);
    }

    #[test]
    fn noop_on_a_cyclic_design_reuses_every_case_without_a_walk() {
        // The demo datapath's all-active view is cyclic and exhausts its
        // relaxation budget, so it never qualified for the cone engine;
        // an unchanged re-analysis still serves it from its slot. Without
        // case analysis it is the case walked.
        let design = small_datapath();
        let mut pm = PassManager::new();
        let opts = AnalysisOptions {
            case_analysis: false,
            ..AnalysisOptions::default()
        };
        let first = pm.try_summarize(&design, &opts).expect("within limits");
        assert!(!first.complete, "the all-active case exhausts its budget");
        let cold = crate::Analyzer::new(design.netlist()).run(&opts);
        assert_eq!(first.fingerprint, fingerprint(&design, &cold));
        tv_obs::counters::set_enabled(true);
        // The counters are process-global and other tests propagate
        // concurrently: some no-op must be seen adding no case at all.
        let quiet = (0..50).any(|_| {
            let before = tv_obs::snapshot();
            let again = pm.try_summarize(&design, &opts).expect("within limits");
            let cases = tv_obs::snapshot()
                .since(&before)
                .get(tv_obs::Counter::PropagateCases);
            assert_eq!(again, first);
            for e in pm.last_trace() {
                assert_eq!(e.outcome, PassOutcome::Reused, "{:?}", e.pass);
            }
            cases == 0
        });
        assert!(quiet, "every no-op added to propagate.cases");
        assert_eq!(
            fingerprint(&design, &pm.analyze(&design, &opts)),
            first.fingerprint
        );
    }

    /// An input NAND-ed with one side of a cross-coupled pair no finite
    /// arrival reaches: the residue converges, so the relaxation budget
    /// decides whether the all-active case completes.
    fn converging_residue() -> Design {
        let mut b = tv_netlist::NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let x = b.node("x");
        let y = b.node("y");
        let z = b.node("z");
        let out = b.output("out");
        b.inverter("ixy", x, y);
        b.inverter("iyx", y, x);
        b.nand("nz", &[a, y], z);
        b.inverter("iout", z, out);
        Design::new(b.finish().expect("valid netlist"))
    }

    #[test]
    fn option_changes_on_an_unchanged_design_are_never_served_from_cache() {
        // Each variant differs from the base options in one cache key
        // only, and runs right after the base: a key missing from the
        // case slots or the cached fingerprint would serve the base run's
        // result.
        let base = AnalysisOptions::default();
        let variants = [
            AnalysisOptions {
                slope: SlopeModel::disabled(),
                ..base.clone()
            },
            AnalysisOptions {
                relax_budget: Some(1),
                ..base.clone()
            },
            AnalysisOptions {
                top_k: 1,
                ..base.clone()
            },
            AnalysisOptions {
                clock: tv_clocks::TwoPhaseClock::symmetric(40.0, 1.0),
                ..base.clone()
            },
        ];
        let designs = [small_datapath(), converging_residue()];
        let colds: Vec<Vec<u64>> = designs
            .iter()
            .map(|d| {
                std::iter::once(&base)
                    .chain(&variants)
                    .map(|o| fingerprint(d, &crate::Analyzer::new(d.netlist()).run(o)))
                    .collect()
            })
            .collect();
        for (v, opts) in variants.iter().enumerate() {
            assert!(
                colds.iter().any(|c| c[v + 1] != c[0]),
                "variant {v} changes no report: {opts:?}"
            );
        }
        for (design, cold) in designs.iter().zip(&colds) {
            let mut pm = PassManager::new();
            for (v, opts) in variants.iter().enumerate() {
                for (opts, want) in [(&base, cold[0]), (opts, cold[v + 1])] {
                    let summary = pm.try_summarize(design, opts).expect("within limits");
                    assert_eq!(summary.fingerprint, want, "variant {v}: {opts:?}");
                    let report = pm.analyze(design, opts);
                    assert_eq!(fingerprint(design, &report), want, "variant {v}: {opts:?}");
                }
            }
        }
    }

    #[test]
    fn queries_read_the_slots_only_while_they_reflect_the_design() {
        let mut design = small_datapath();
        let opts = AnalysisOptions::default();
        let mut pm = PassManager::new();
        // The last arc of a critical path: the all-active view is cyclic,
        // but this pair lies downstream of every loop.
        let (from, to) = {
            let cold = crate::Analyzer::new(design.netlist()).run(&opts);
            let p = &cold.phases[0].paths[0];
            (p.steps[p.len() - 2].node, p.endpoint())
        };
        let cold_flow = |d: &Design| {
            let f = tv_flow::analyze(d.netlist(), &opts.rules);
            (f.report(d.netlist()), flow_fingerprint(d.netlist(), &f))
        };
        let cold_path = |d: &Design| crate::Analyzer::new(d.netlist()).path_query(from, to, &opts);
        assert!(cold_path(&design).is_some());
        // Before any analyze, and after an edit the slots have not seen,
        // the queries answer cold — and leave the pipeline untouched.
        assert_eq!(pm.flow_summary(&design, &opts), cold_flow(&design));
        assert_eq!(pm.path_query(&design, from, to, &opts), cold_path(&design));
        assert!(pm.flow.is_none() && pm.graphs.iter().all(Option::is_none));
        pm.analyze(&design, &opts);
        assert!(pm.current.is_some());
        assert_eq!(pm.flow_summary(&design, &opts), cold_flow(&design));
        assert_eq!(pm.path_query(&design, from, to, &opts), cold_path(&design));
        let dev = design.netlist().devices().next().unwrap().id;
        design.add_node("probe", tv_netlist::NodeRole::Internal);
        design.remove_device(dev);
        assert_eq!(pm.flow_summary(&design, &opts), cold_flow(&design));
        assert_eq!(pm.path_query(&design, from, to, &opts), cold_path(&design));
        pm.analyze(&design, &opts);
        assert_eq!(pm.flow_summary(&design, &opts), cold_flow(&design));
        assert_eq!(pm.path_query(&design, from, to, &opts), cold_path(&design));
    }

    /// The designs the case-share tests run on: seeded random logic (its
    /// φ1 case replaces no root, so its view is empty), the small and mips32
    /// datapaths, one T6 core, and the race golden.
    fn share_designs() -> Vec<(&'static str, Netlist)> {
        let t = Tech::nmos4um();
        let race = tv_netlist::sim_format::parse(
            include_str!("../../../tests/data/race_smoke.sim"),
            t.clone(),
        )
        .expect("race golden parses");
        let random = tv_gen::random::random_logic(
            t.clone(),
            2_000,
            0x5EED,
            tv_gen::random::RandomMix::default(),
        );
        vec![
            ("random", random.netlist),
            ("small", small_datapath().netlist().clone()),
            (
                "mips32",
                datapath::datapath(t.clone(), datapath::DatapathConfig::mips32()).netlist,
            ),
            ("t6x1", tv_gen::mips_mc::t6_mips_mc(t, 1).netlist),
            ("race", race),
        ]
    }

    /// Asserts that case `k` of `pm` reads exactly as `fresh`, a lone
    /// build of the case, and returns whether it is an empty view.
    fn assert_case_reads_as(pm: &PassManager, k: usize, fresh: &TimingGraph, what: &str) -> bool {
        match pm.graphs[k].as_ref().expect("a case graph") {
            CaseGraph::Own(s) => {
                crate::graph::assert_reads_as(&s.graph, fresh, what);
                false
            }
            CaseGraph::View(v) => {
                let base = &comb_graph(&pm.graphs).expect("the all-active graph").graph;
                crate::graph::assert_reads_as(&v.view.on(base), fresh, what);
                v.view.is_empty()
            }
        }
    }

    #[test]
    fn shared_case_builds_equal_fresh_per_case_builds() {
        for (name, nl) in share_designs() {
            let flow = tv_flow::analyze(&nl, &tv_flow::RuleSet::all());
            let qual = qualify_with_flow(&nl, &flow);
            let design = Design::new(nl.clone());
            let mut empty = false;
            for jobs in [1usize, 2, 8] {
                let opts = AnalysisOptions {
                    jobs,
                    ..AnalysisOptions::default()
                };
                let mut pm = PassManager::new();
                pm.analyze(&design, &opts);
                for &active in case_list(&nl, &opts) {
                    let what = format!("{name} case {active:?} jobs {jobs}");
                    let case = PhaseCase { active };
                    let k = case_slot(active);
                    let fresh = TimingGraph::build_par(
                        &nl,
                        &flow,
                        &qual,
                        case,
                        opts.model,
                        SOURCE_RESISTANCE,
                        1,
                    );
                    let is_view = matches!(pm.graphs[k], Some(CaseGraph::View(_)));
                    assert_eq!(is_view, active.is_some(), "{what}: a phase is a view");
                    empty |= assert_case_reads_as(&pm, k, &fresh, &what);
                    let builder = GraphBuilder {
                        netlist: &nl,
                        flow: &flow,
                        qualification: &qual,
                        case,
                        model: opts.model,
                    };
                    let (_, lone) = build(&builder, SOURCE_RESISTANCE, jobs, Share::Off, None);
                    assert_eq!(pm.extraction(active), lone.as_ref(), "{what}");
                }
            }
            assert_eq!(
                empty,
                name == "random",
                "{name}: which designs have an empty view"
            );
        }
    }

    /// One stage root `s` reaching node `z` both through a φ1-gated and
    /// through a φ2-gated pass device, between two stages that reach `z`
    /// through unclocked ones. The all-active walk reaches `z` through
    /// the φ1 branch first, so under φ2 the root gives `z` control arcs
    /// the all-active graph lacks: its phase arcs are no subsequence of
    /// its all-active ones, and `z`'s φ2 in-list interleaves the view's
    /// own arcs between the two invariant roots' arcs.
    #[test]
    fn a_root_reaching_a_node_through_both_phases_merges_in_case_order() {
        let mut b = tv_netlist::NetlistBuilder::new(Tech::nmos4um());
        let [phi1, phi2] = [b.clock("phi1", 0), b.clock("phi2", 1)];
        let [a, e] = [b.input("a"), b.input("e")];
        let z = b.node("z");
        let mut stages = Vec::new();
        for name in ["s0", "s", "s2"] {
            let out = b.node(name);
            b.inverter(format!("i{name}"), a, out);
            stages.push(out);
        }
        let [x, y] = [b.node("x"), b.node("y")];
        b.pass("p1", phi1, stages[1], x);
        b.pass("p2", phi2, stages[1], y);
        b.pass("qx", e, x, z);
        b.pass("qy", a, y, z);
        b.pass("q0", e, stages[0], z);
        b.pass("q2", e, stages[2], z);
        let o = b.output("o");
        b.inverter("io", z, o);
        let nl = b.finish().expect("valid netlist");
        let flow = tv_flow::analyze(&nl, &tv_flow::RuleSet::all());
        let qual = qualify_with_flow(&nl, &flow);
        let design = Design::new(nl.clone());
        let lone = |case| {
            TimingGraph::build_par(
                &nl,
                &flow,
                &qual,
                case,
                crate::options::DelayModel::Elmore,
                SOURCE_RESISTANCE,
                1,
            )
        };
        let controls = |g: &TimingGraph| {
            g.in_arcs_of_index(z.index())
                .iter()
                .map(|&ai| &g.arcs[ai as usize])
                .filter(|a| a.kind == crate::graph::ArcKind::PassControl)
                .map(|a| a.from)
                .collect::<Vec<_>>()
        };
        assert!(!controls(&lone(PhaseCase::all_active())).contains(&phi2));
        assert!(controls(&lone(PhaseCase::phase(1))).contains(&phi2));
        for jobs in [1usize, 2, 8] {
            let opts = AnalysisOptions {
                jobs,
                ..AnalysisOptions::default()
            };
            let mut pm = PassManager::new();
            pm.analyze(&design, &opts);
            for p in 0..2u8 {
                let k = case_slot(Some(p));
                let what = format!("phase {p} jobs {jobs}");
                assert!(matches!(pm.graphs[k], Some(CaseGraph::View(_))), "{what}");
                assert!(!assert_case_reads_as(
                    &pm,
                    k,
                    &lone(PhaseCase::phase(p)),
                    &what
                ));
            }
        }
    }

    /// Seeded resize and setcap edits, each followed by the graph passes
    /// of every case twice over: the phases as views over the all-active
    /// graph, and the phases built alone. Each view must splice the same
    /// number of roots to the same changed targets as its lone graph,
    /// and read as a fresh build afterwards.
    #[test]
    fn view_splices_change_the_targets_a_lone_graph_splice_changes() {
        for (name, nl) in share_designs() {
            let flow = tv_flow::analyze(&nl, &tv_flow::RuleSet::all());
            let qual = qualify_with_flow(&nl, &flow);
            let opts = AnalysisOptions::default();
            let mut design = Design::new(nl);
            let mut rng = tv_gen::rng::Rng64::new(0x5EED_1E57);
            let mut views: [Option<CaseGraph>; 3] = Default::default();
            let mut lones: [Option<CaseGraph>; 2] = Default::default();
            let mut scratch = BuildScratch::default();
            let mut own_splices = 0;
            for step in 0..8 {
                if step > 0 {
                    let nl = design.netlist();
                    if rng.usize_range(0, 2) == 0 {
                        let devs: Vec<_> = nl.devices().map(|d| d.id).collect();
                        let d = devs[rng.usize_range(0, devs.len())];
                        let w = rng.f64_range(3.0, 9.0);
                        design.resize_device(d, w, 2.0).expect("resize");
                    } else {
                        let nodes: Vec<NodeId> = nl
                            .node_ids()
                            .filter(|&n| !nl.node(n).role().is_rail())
                            .collect();
                        let n = nodes[rng.usize_range(0, nodes.len())];
                        let pf = rng.f64_range(0.01, 0.08);
                        design.set_node_cap(n, pf).expect("setcap");
                    }
                }
                let run = GraphRun {
                    warm: true,
                    nl: design.netlist(),
                    flow: &flow,
                    qual: &qual,
                    stamp: design.stamp(),
                    design: Some(&design),
                    options: &opts,
                    flow_fp: 1,
                    qual_fp: 2,
                    jobs: 2,
                };
                let mut trace = Vec::new();
                let mut share = None;
                let comb = graph_pass(
                    &mut views[0],
                    &mut trace,
                    &mut scratch,
                    &run,
                    PhaseCase::all_active(),
                    Share::Leave(&mut share),
                );
                for p in 0..2u8 {
                    let case = PhaseCase::phase(p);
                    let what = format!("{name} step {step} phase {p}");
                    let (head, tail) = views.split_at_mut(1);
                    let Some(CaseGraph::Own(base)) = head[0].as_ref() else {
                        panic!("{what}: no all-active graph");
                    };
                    let mut vt = Vec::new();
                    let slot = &mut tail[p as usize];
                    let base = Some((&**base, &comb));
                    let view = phase_pass(slot, &mut vt, &mut scratch, &run, case, base, &share);
                    let mut lt = Vec::new();
                    let slot = &mut lones[p as usize];
                    let lone = graph_pass(slot, &mut lt, &mut scratch, &run, case, Share::Off);
                    assert_eq!(view.since, lone.since, "{what}: changed targets");
                    if !matches!(vt[1].outcome, PassOutcome::Shared) {
                        assert_eq!(vt[1], lt[1], "{what}: graph pass outcome");
                    }
                    own_splices += matches!(vt[1].outcome, PassOutcome::Spliced { .. }) as usize;
                    let Some(CaseGraph::Own(l)) = lones[p as usize].as_ref() else {
                        panic!("{what}: a lone build");
                    };
                    let mut pm = PassManager::new();
                    pm.graphs = std::mem::take(&mut views);
                    assert_case_reads_as(&pm, case_slot(Some(p)), &l.graph, &what);
                    views = std::mem::take(&mut pm.graphs);
                }
            }
            assert!(own_splices > 0, "{name}: no view spliced");
        }
    }

    /// A case slot's own arcs, rows, row-id tag and spans: the whole
    /// graph of an all-active or lone slot, the replaced roots of a view
    /// (its invariant roots read the all-active slot).
    fn own_rows(g: &CaseGraph) -> (&[Arc], &[ArcDelay], u32, &RootSpans) {
        match g {
            CaseGraph::Own(s) => {
                let spans = s.spans.as_ref().expect("a clean build's spans");
                (&s.graph.arcs, &s.graph.delays, 0, spans)
            }
            CaseGraph::View(v) => (&v.view.arcs, &v.view.delays, OWN_ROW, &v.view.spans),
        }
    }

    /// The row words of each root's arcs in a case slot's own roots.
    fn root_words(g: &CaseGraph) -> Vec<Vec<[u64; 4]>> {
        let (arcs, rows, tag, spans) = own_rows(g);
        let words = |a: &Arc| rows[(a.delay - tag) as usize].words();
        let span = |w: &[u32]| &arcs[w[0] as usize..w[1] as usize];
        spans
            .arcs
            .windows(2)
            .map(|w| span(w).iter().map(words).collect())
            .collect()
    }

    /// The own roots of a case slot whose extents `dirty` hits.
    fn hit_roots(g: &CaseGraph, dirty: &[NodeId]) -> Vec<u32> {
        match g {
            CaseGraph::Own(s) => s.extents.as_ref().expect("warm extents").hit(dirty),
            CaseGraph::View(v) => v.splice.as_ref().map_or(Vec::new(), |(_, e)| e.hit(dirty)),
        }
    }

    /// Seeded resize and setcap edits that keep hitting three roots of
    /// shared classes, on three T6 cores and on mips32 at jobs 1/2/8, in
    /// every case slot (the phase views' own roots included). Splices
    /// copy on write: a root outside an edit's affected set — siblings of
    /// the edited instances among them — reads bit-unchanged row words;
    /// a case's row list grows by exactly the private blocks its roots
    /// now hold, so by at most one block per root ever spliced, and never
    /// past one block per root; and the warm report equals a cold
    /// analysis of the edited design.
    #[test]
    fn copy_on_write_splices_keep_siblings_and_bound_the_rows() {
        let t = Tech::nmos4um();
        let designs = [
            ("t6x3", tv_gen::mips_mc::t6_mips_mc(t.clone(), 3).netlist),
            (
                "mips32",
                datapath::datapath(t, datapath::DatapathConfig::mips32()).netlist,
            ),
        ];
        for (name, nl) in designs {
            for jobs in [1usize, 2, 8] {
                let opts = AnalysisOptions {
                    jobs,
                    ..AnalysisOptions::default()
                };
                let mut design = Design::new(nl.clone());
                let mut pm = PassManager::new();
                pm.analyze(&design, &opts);
                let comb = comb_graph(&pm.graphs).expect("the all-active graph");
                let spans = comb.spans.as_ref().expect("a clean build's spans");
                let readers = |start: u32| match spans.blocks.binary_search_by_key(&start, |b| b.0)
                {
                    Ok(i) => spans.blocks[i].1,
                    Err(_) => 0,
                };
                let shared: Vec<NodeId> = (0..comb.roots.len())
                    .filter(|&k| readers(spans.rows[k].0) > 1)
                    .map(|k| comb.roots[k].0)
                    .collect();
                let mut rng = tv_gen::rng::Rng64::new(0xC0_5EED ^ jobs as u64);
                let pool: Vec<NodeId> = (0..3)
                    .map(|_| shared[rng.usize_range(0, shared.len())])
                    .collect();
                let slots = |pm: &PassManager| -> Vec<usize> {
                    (0..3).filter(|&k| pm.graphs[k].is_some()).collect()
                };
                assert_eq!(slots(&pm).len(), 3, "{name}: three cases");
                let rows0: Vec<usize> = (0..3)
                    .map(|k| own_rows(pm.graphs[k].as_ref().unwrap()).1.len())
                    .collect();
                let (mut copied, mut siblings_kept) = (0usize, 0usize);
                let mut warm = None;
                for step in 0..6 {
                    let before: Vec<_> = (0..3)
                        .map(|k| {
                            let g = pm.graphs[k].as_ref().unwrap();
                            (root_words(g), own_rows(g).3.rows.clone())
                        })
                        .collect();
                    let n = pool[rng.usize_range(0, pool.len())];
                    let receipt = if rng.usize_range(0, 2) == 0 {
                        let channel = design.netlist().node_devices(n).channel;
                        let d = channel[rng.usize_range(0, channel.len())];
                        design.resize_device(d, rng.f64_range(3.0, 9.0), 2.0)
                    } else {
                        design.set_node_cap(n, rng.f64_range(0.01, 0.08))
                    }
                    .expect("a parametric edit");
                    warm = Some(pm.analyze(&design, &opts));
                    for k in slots(&pm) {
                        let what = format!("{name} jobs {jobs} step {step} slot {k}");
                        let g = pm.graphs[k].as_ref().unwrap();
                        let case = [None, Some(0), Some(1)][k];
                        let graph_pass = trace_outcome(&pm, PassId::Graph(case));
                        assert_ne!(graph_pass, Some(PassOutcome::Computed), "{what}: kept");
                        let hit = hit_roots(g, &receipt.dirty);
                        let (words, spans0) = &before[k];
                        let after = root_words(g);
                        assert_eq!(after.len(), words.len(), "{what}");
                        for (r, (b, a)) in words.iter().zip(&after).enumerate() {
                            if hit.binary_search(&(r as u32)).is_err() {
                                assert_eq!(b, a, "{what}: root {r} is outside the edit");
                            }
                        }
                        siblings_kept += hit
                            .iter()
                            .filter(|&&r| {
                                let start = spans0[r as usize];
                                spans0.iter().enumerate().any(|(j, s)| {
                                    s.1 > 0
                                        && *s == start
                                        && hit.binary_search(&(j as u32)).is_err()
                                })
                            })
                            .count();
                        let (_, rows, _, spans) = own_rows(g);
                        let private: usize = spans
                            .rows
                            .iter()
                            .filter(|r| r.0 as usize >= rows0[k])
                            .map(|r| r.1 as usize)
                            .sum();
                        assert_eq!(rows.len() - rows0[k], private, "{what}: one block per root");
                        let per_root: usize = spans.rows.iter().map(|r| r.1 as usize).sum();
                        assert!(rows.len() <= per_root, "{what}: {} rows", rows.len());
                        copied += private;
                    }
                }
                let nl = design.netlist();
                let cold = crate::Analyzer::new(nl).run(&opts);
                assert_eq!(
                    crate::fingerprint::report_fingerprint(nl, &warm.expect("a warm run")),
                    crate::fingerprint::report_fingerprint(nl, &cold),
                    "{name} jobs {jobs}: warm against cold"
                );
                assert!(
                    copied > 0 && siblings_kept > 0,
                    "{name} jobs {jobs}: no copy on write"
                );
            }
        }
    }
}
