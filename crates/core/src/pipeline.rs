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
//! | `arrivals(case)` | graph(case), slope model |
//! | `checks` | topology, geometry, caps, tech, flow, qualify |
//!
//! So a capacitance edit cannot re-run flow (flow's inputs don't
//! include the cap counter), and a W/L resize cannot re-find latches.
//!
//! The graph passes go one step further than all-or-nothing: a
//! session-grade manager records per-root arc **spans** and a per-node
//! **extent index** (which roots read which node's caps/geometry) at
//! build time. A parametric edit then resynthesizes only the affected
//! roots and splices their delays into the existing graph in place —
//! CSR adjacency and level schedule are untouched because parametric
//! edits cannot change arc structure. The splice reports exactly which
//! nodes' in-arc delay words changed, and the arrival pass re-relaxes
//! their fanout cone over the previous run's arrivals (the cone engine)
//! instead of walking the whole graph. Every reuse path is bit-identical
//! to a cold run; the golden fingerprints in `tests/integration_layout.rs`
//! and the session-vs-oneshot tests in `tests/integration_session.rs`
//! enforce it.

use std::time::Instant;

use tv_clocks::latch::{find_latches, Latch};
use tv_clocks::qualify::{qualify_with_flow, Qualification};
use tv_clocks::ClockConstraints;
use tv_flow::FlowAnalysis;
use tv_netlist::{Design, DesignStamp, DirtySince, Netlist, NodeId, Revision};
use tv_rc::SlopeModel;

use crate::analyzer::{
    endpoints_or_all, external_sources, phase_endpoints, phase_sources, PhaseAnalysis,
    TimingReport, SOURCE_RESISTANCE,
};
use crate::checks::{check_electrical, CheckIssue};
use crate::error::TvError;
use crate::fingerprint::{flow_fingerprint, hash_words, mix64};
use crate::graph::{
    splice_roots, BuildScratch, GraphBuilder, PhaseCase, RootKind, SpliceIndex, TimingGraph,
};
use crate::macromodel::{build_spanned, Extraction};
use crate::options::AnalysisOptions;
use crate::paths::critical_paths;
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
    /// Arrival propagation for one case.
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

/// Static description of one pass kind for docs and tooling.
pub struct PassInfo {
    /// Pass family name (case-instantiated passes drop the suffix).
    pub name: &'static str,
    /// The declared inputs, as stamp-counter / upstream-pass names.
    pub inputs: &'static [&'static str],
}

/// The declared pass graph: which inputs each pass reads. This table is
/// documentation-grade truth — the fingerprint construction in this
/// module is the executable version.
pub const PASS_TABLE: &[PassInfo] = &[
    PassInfo {
        name: "flow",
        inputs: &["topology", "rules"],
    },
    PassInfo {
        name: "qualify",
        inputs: &["flow", "topology"],
    },
    PassInfo {
        name: "latches",
        inputs: &["flow", "qualify", "topology"],
    },
    PassInfo {
        name: "extract",
        inputs: &[
            "flow", "qualify", "topology", "geometry", "caps", "tech", "model",
        ],
    },
    PassInfo {
        name: "graph",
        inputs: &[
            "extract", "flow", "qualify", "topology", "geometry", "caps", "tech", "model",
        ],
    },
    PassInfo {
        name: "arrivals",
        inputs: &["graph", "slope"],
    },
    PassInfo {
        name: "checks",
        inputs: &["flow", "qualify", "topology", "geometry", "caps", "tech"],
    },
];

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
    /// the affected fanout cone over a cached snapshot (bit-identical to
    /// the full walk).
    Cone {
        /// Number of nodes the cone re-relaxed.
        recomputed: usize,
    },
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
    /// Whether the pass did any real work (everything except `Reused`).
    pub fn reran(&self) -> bool {
        self.outcome != PassOutcome::Reused
    }
}

/// A cached pass result with its input and output fingerprints.
struct Slot<T> {
    input_fp: u64,
    output_fp: u64,
    value: T,
}

/// A cached timing graph for one case.
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
    roots: Vec<(tv_netlist::NodeId, RootKind)>,
    /// `None` when spans were not recorded (one-shot mode, or a build
    /// worker panicked) — such a slot always rebuilds in full.
    splice: Option<SpliceIndex>,
    /// The macromodel class partition from the build, used to de-share
    /// instanced stages a parametric edit touches. `None` when the
    /// build degraded to flat isolation or spans were not recorded.
    extraction: Option<Extraction>,
}

/// The arrivals of one case's last complete, residue-free propagation,
/// kept as the next run's starting point.
struct ArrivalSlot {
    /// Graph-pass input fingerprint the arrivals were computed under.
    graph_fp: u64,
    arrivals: Arrivals,
}

/// What the graph pass certifies about a case's arcs, handed to the
/// arrival pass.
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
}

/// Demand-driven pass manager over a [`Design`].
///
/// Hold one per long-lived design (the `tv session` REPL holds one per
/// loaded design) and call [`PassManager::analyze`] after each batch of
/// edits; only the passes whose declared inputs changed re-run, and the
/// graph passes splice rather than rebuild when the edit was
/// parametric. Reports are bit-identical to a fresh
/// [`crate::Analyzer::run`] on the same netlist.
#[derive(Default)]
pub struct PassManager {
    /// Whether this manager keeps state for warm re-analysis: graph
    /// builds record spans/extents for splicing and arrival passes keep
    /// snapshots for the cone engine. Costs a little time and memory;
    /// the throwaway one-shot path skips both, and frees each case's
    /// graph as soon as the case is done.
    warm: bool,
    flow: Option<Slot<FlowAnalysis>>,
    qual: Option<Slot<Vec<Qualification>>>,
    latches: Option<Slot<Vec<Latch>>>,
    /// Graph slots: `[comb, phase 0, phase 1]`.
    graphs: [Option<GraphSlot>; 3],
    /// Arrival snapshots, indexed like `graphs`.
    arrivals: [Option<ArrivalSlot>; 3],
    /// Slope-model digest the snapshots were computed under. Slope
    /// handling acts at propagation time, below every graph fingerprint,
    /// so this key is the only guard against serving a stale snapshot
    /// after a slope change.
    slope_key: Option<u64>,
    checks: Option<Slot<Vec<CheckIssue>>>,
    /// Propagation scratch, reused across cases and runs.
    workspace: Workspace,
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
    /// index or arrival snapshots, and each case graph is dropped once
    /// the case's arrivals, paths and races are done.
    pub(crate) fn one_shot() -> Self {
        PassManager::default()
    }

    /// Runs (or revalidates) the full pipeline against the design's
    /// current state. Panics on size-limit errors like
    /// [`crate::Analyzer::run`]; use [`PassManager::try_analyze`] to
    /// enforce limits (and to receive a violated pipeline invariant as
    /// [`TvError::Internal`] instead of a panic).
    pub fn analyze(&mut self, design: &Design, options: &AnalysisOptions) -> TimingReport {
        self.analyze_design(design, options, false)
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
        self.analyze_design(design, options, true)
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
            PassId::Extract(c) => self.graphs[case_slot(c)]
                .as_ref()
                .and_then(|s| s.extraction.as_ref())
                .map(|e| e.fingerprint()),
            PassId::Graph(c) => self.graphs[case_slot(c)].as_ref().map(|s| s.input_fp),
            PassId::Arrivals(_) => None,
            PassId::Checks => self.checks.as_ref().map(|s| s.input_fp),
        }
    }

    /// The macromodel extraction for a case's cached graph, if the most
    /// recent build extracted one (`None` in one-shot mode or after a
    /// degraded build).
    pub fn extraction(&self, case: Option<u8>) -> Option<&Extraction> {
        self.graphs[case_slot(case)]
            .as_ref()
            .and_then(|s| s.extraction.as_ref())
    }

    fn analyze_design(
        &mut self,
        design: &Design,
        options: &AnalysisOptions,
        enforce_limits: bool,
    ) -> Result<TimingReport, TvError> {
        self.analyze_inner(
            design.netlist(),
            design.stamp(),
            Some(design),
            options,
            enforce_limits,
        )
    }

    /// The pipeline body shared by the session path and the one-shot
    /// `Analyzer` facade. `stamp` is the design's counter snapshot (a
    /// [`DesignStamp::unique`] snapshot on the one-shot path, so nothing
    /// ever falsely matches); `design` enables dirty-set queries for
    /// splicing.
    pub(crate) fn analyze_inner(
        &mut self,
        nl: &Netlist,
        stamp: DesignStamp,
        design: Option<&Design>,
        options: &AnalysisOptions,
        enforce_limits: bool,
    ) -> Result<TimingReport, TvError> {
        let _span = tv_obs::span("analyze");
        self.trace.clear();
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
        let slope = hash_words(&[
            options.slope.k_slope.to_bits(),
            options.slope.k_transition.to_bits(),
        ]);
        if self.slope_key != Some(slope) {
            self.arrivals = Default::default();
            self.slope_key = Some(slope);
        }

        // --- flow ---
        let flow_in = hash_words(&[stamp.design, stamp.topo, rules_fp(options)]);
        let flow_reran = match &self.flow {
            Some(s) if s.input_fp == flow_in => false,
            _ => {
                let _s = tv_obs::span("pass.flow");
                let value = tv_flow::analyze(nl, &options.rules);
                let output_fp = flow_fingerprint(nl, &value);
                self.flow = Some(Slot {
                    input_fp: flow_in,
                    output_fp,
                    value,
                });
                true
            }
        };
        push(&mut self.trace, PassId::Flow, flow_reran);
        let flow_slot = self
            .flow
            .as_ref()
            .ok_or(internal("flow pass left no result"))?;
        let flow_fp = flow_slot.output_fp;
        let flow = &flow_slot.value;

        // --- qualify ---
        let qual_in = hash_words(&[stamp.design, stamp.topo, flow_fp]);
        let qual_reran = match &self.qual {
            Some(s) if s.input_fp == qual_in => false,
            _ => {
                let _s = tv_obs::span("pass.qualify");
                let value = qualify_with_flow(nl, flow);
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
        let qual_slot = self
            .qual
            .as_ref()
            .ok_or(internal("qualify pass left no result"))?;
        let qual_fp = qual_slot.output_fp;
        let qual = qual_slot.value.as_slice();

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

        // Derived views are recomputed every run — they are cheap
        // projections of the cached analyses, and keeping them out of
        // the slots keeps the invalidation story small.
        let flow_report = flow.report(nl);
        let census = flow.census();
        let mut diagnostics = flow.diagnostics(nl);

        // The macromodel grouping keys depend only on the netlist and the
        // flow result, so every case's full build shares one computation
        // (made on first need: a run that splices or reuses every case
        // never pays for it). Not cached across runs: a resize changes
        // device geometry without rerunning flow.
        let mut stage_hashes: Option<Vec<u64>> = None;

        // --- cases: all-active, then each phase under case analysis ---
        let mut cases = vec![None];
        if options.case_analysis && !nl.clocks().is_empty() {
            cases.extend([Some(0), Some(1)]);
        }
        let mut combinational = None;
        let mut phases = Vec::new();
        for active in cases {
            let k = case_slot(active);
            let delta = graph_pass(
                &mut self.graphs[k],
                &mut self.trace,
                self.warm,
                nl,
                flow,
                qual,
                PhaseCase { active },
                stamp,
                design,
                options,
                flow_fp,
                qual_fp,
                jobs,
                &mut stage_hashes,
            );
            let slot = self.graphs[k]
                .as_ref()
                .ok_or(internal("graph pass left no case slot"))?;
            // The arc limit is checked on the combinational graph, before
            // any arrival work.
            let limit = options
                .max_arcs
                .filter(|_| enforce_limits && active.is_none());
            if let Some(limit) = limit {
                let count = slot.graph.arc_count();
                if count > limit {
                    return Err(TvError::TooLarge {
                        what: "arcs",
                        count,
                        limit,
                    });
                }
            }
            diagnostics.extend(slot.graph.diagnostics.iter().cloned());
            // Late sources, early sources (the storages a race captures
            // into), and endpoints.
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
            let (result, outcome) = arrival_pass(
                &mut self.arrivals[k],
                self.warm,
                &mut self.workspace,
                nl,
                &slot.graph,
                &sources,
                &storages,
                &endpoints,
                &options.slope,
                jobs,
                guards,
                &delta,
            );
            self.trace.push(PassEvent {
                pass: PassId::Arrivals(active),
                outcome,
            });
            diagnostics.extend(result.diagnostics.iter().cloned());
            let paths = {
                let _s = tv_obs::span("pass.paths");
                critical_paths(&slot.graph, &result, options.top_k)
            };
            match active {
                None => combinational = Some((result, paths)),
                Some(p) => {
                    let slack = result
                        .critical_arrival()
                        .map(|a| options.clock.width(p) - a);
                    let races = {
                        let _s = tv_obs::span("pass.races");
                        crate::hold::races(&slot.graph, &result.arrivals, &storages)
                    };
                    phases.push(PhaseAnalysis {
                        phase: p,
                        arcs: slot.graph.arc_count(),
                        result,
                        paths,
                        slack,
                        races,
                    });
                }
            }
            // A one-shot run never reads a case's graph again once its
            // arrivals, paths and races are done: free it before the
            // next case builds, so at most one case graph is alive at a
            // time.
            if !self.warm {
                self.graphs[k] = None;
            }
        }
        let (combinational, combinational_paths) =
            combinational.ok_or(internal("no combinational case"))?;

        let min_cycle = if phases.len() == 2 {
            let a0 = phases[0].result.critical_arrival().unwrap_or(0.0);
            let a1 = phases[1].result.critical_arrival().unwrap_or(0.0);
            Some(ClockConstraints::new(options.clock).min_cycle(a0, a1))
        } else {
            None
        };

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
        let checks = self
            .checks
            .as_ref()
            .ok_or(internal("checks pass left no result"))?
            .value
            .clone();
        diagnostics.extend(checks.iter().map(|c| c.diagnostic(nl)));

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
                PassOutcome::Reused => reused += 1,
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

        Ok(TimingReport {
            flow_report,
            census,
            combinational,
            combinational_paths,
            phases,
            latches: latches.to_vec(),
            checks,
            min_cycle,
            diagnostics,
        })
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

/// The graph pass for one case: reuse on a clean input fingerprint,
/// splice on a parametric-only delta (matching shape, recorded spans,
/// clean diagnostics, node-granular dirty set), full rebuild otherwise.
///
/// Returns the [`CaseDelta`] certificate for the arrival pass: the
/// graph fingerprint the arcs now reflect, and — when the pass reused,
/// revalidated, or spliced — exactly which node indices hold different
/// in-arc words than under the previous fingerprint. The
/// certificate's "sources and endpoints unchanged" clause holds because
/// every non-rebuild outcome pins topology, flow, and qualification
/// (via `shape_fp`), which determine the latch set and hence every
/// case's source/endpoint lists.
#[allow(clippy::too_many_arguments)]
fn graph_pass(
    slot_opt: &mut Option<GraphSlot>,
    trace: &mut Vec<PassEvent>,
    warm: bool,
    nl: &Netlist,
    flow: &FlowAnalysis,
    qual: &[Qualification],
    case: PhaseCase,
    stamp: DesignStamp,
    design: Option<&Design>,
    options: &AnalysisOptions,
    flow_fp: u64,
    qual_fp: u64,
    jobs: usize,
    stage_hashes: &mut Option<Vec<u64>>,
) -> CaseDelta {
    let _span = tv_obs::span("pass.graph");
    let pass = PassId::Graph(case.active);
    let extract_pass = PassId::Extract(case.active);
    let case_tag = case.active.map_or(0, |p| 1 + p as u64);
    let model_tag = options.model as u64;
    let input_fp = hash_words(&[
        stamp.design,
        stamp.topo,
        stamp.geom,
        stamp.cap,
        stamp.tech,
        model_tag,
        case_tag,
        flow_fp,
        qual_fp,
    ]);
    if let Some(s) = slot_opt.as_ref() {
        if s.input_fp == input_fp {
            trace.push(PassEvent {
                pass: extract_pass,
                outcome: PassOutcome::Reused,
            });
            trace.push(PassEvent {
                pass,
                outcome: PassOutcome::Reused,
            });
            return CaseDelta {
                graph_fp: input_fp,
                since: Some((input_fp, Vec::new())),
            };
        }
    }
    let shape_fp = hash_words(&[
        stamp.design,
        stamp.topo,
        stamp.tech,
        model_tag,
        case_tag,
        flow_fp,
        qual_fp,
    ]);
    let builder = GraphBuilder {
        netlist: nl,
        flow,
        qualification: qual,
        case,
        model: options.model,
    };

    // Splice attempt. Sound because (a) parametric edits cannot change
    // walk topology, stage membership, or the root set — those depend
    // only on topology, flow, and qualification, all pinned by
    // `shape_fp`; and (b) every edit dirties all terminals of the
    // touched device (or the node whose cap changed), and every device
    // or cap a root's delays read has a node in that root's extent — so
    // `dirty ∩ extent` covers every stale root. `splice_roots` still
    // verifies arc shape per root and falls back on any surprise.
    'splice: {
        let Some(d) = design else { break 'splice };
        let Some(s) = slot_opt.as_mut() else {
            break 'splice;
        };
        if s.shape_fp != shape_fp || !s.graph.diagnostics.is_empty() {
            break 'splice;
        }
        let GraphSlot {
            input_fp: slot_in,
            built_revision,
            graph,
            roots,
            splice,
            extraction,
            ..
        } = s;
        let Some(idx) = splice.as_ref() else {
            break 'splice;
        };
        let DirtySince::Nodes(dirty) = d.dirty_since(*built_revision) else {
            break 'splice;
        };
        let mut affected: Vec<u32> = Vec::new();
        for n in &dirty {
            let i = n.index();
            affected.extend_from_slice(
                &idx.extent_roots[idx.extent_starts[i] as usize..idx.extent_starts[i + 1] as usize],
            );
        }
        affected.sort_unstable();
        affected.dedup();
        if affected.is_empty() {
            // The edit landed entirely outside this graph's read set
            // (e.g. a cap tweak on a node no stage's tree reaches):
            // revalidate without touching an arc.
            let prev_fp = *slot_in;
            *slot_in = input_fp;
            *built_revision = d.revision();
            trace.push(PassEvent {
                pass: extract_pass,
                outcome: PassOutcome::Revalidated,
            });
            trace.push(PassEvent {
                pass,
                outcome: PassOutcome::Revalidated,
            });
            return CaseDelta {
                graph_fp: input_fp,
                since: Some((prev_fp, Vec::new())),
            };
        }
        let mut scratch = BuildScratch::new(nl.node_count());
        if let Ok(changed) = splice_roots(
            graph,
            &builder,
            SOURCE_RESISTANCE,
            roots,
            idx,
            &affected,
            &mut scratch,
        ) {
            let prev_fp = *slot_in;
            *slot_in = input_fp;
            *built_revision = d.revision();
            // De-share: every affected root that was instanced from a
            // shared macromodel is split into a singleton class before
            // its re-analysis, so the splice never rewrites siblings.
            let desplit = extraction.as_mut().map_or(0, |e| e.desplit(&affected));
            trace.push(PassEvent {
                pass: extract_pass,
                outcome: PassOutcome::Spliced {
                    roots: desplit as usize,
                },
            });
            trace.push(PassEvent {
                pass,
                outcome: PassOutcome::Spliced {
                    roots: affected.len(),
                },
            });
            return CaseDelta {
                graph_fp: input_fp,
                since: Some((prev_fp, changed)),
            };
        }
        // Shape mismatch mid-splice: the graph is partially overwritten
        // and must be discarded. Fall through to the full rebuild,
        // which replaces the slot wholesale.
    }

    let hashes = stage_hashes.get_or_insert_with(|| flow.stages().structural_hashes(nl));
    let (sb, extraction) = build_spanned(&builder, SOURCE_RESISTANCE, jobs, hashes);
    let slot = if warm {
        let splice = sb.spans.map(|spans| {
            let mut scratch = BuildScratch::new(nl.node_count());
            let (extent_starts, extent_roots) = builder.extents(&sb.roots, &mut scratch);
            SpliceIndex {
                spans,
                extent_starts,
                extent_roots,
            }
        });
        GraphSlot {
            input_fp,
            shape_fp,
            built_revision: design.map_or(Revision(0), |d| d.revision()),
            graph: sb.graph,
            roots: sb.roots,
            splice,
            extraction,
        }
    } else {
        GraphSlot {
            input_fp,
            shape_fp,
            built_revision: Revision(0),
            graph: sb.graph,
            roots: Vec::new(),
            splice: None,
            extraction: None,
        }
    };
    *slot_opt = Some(slot);
    trace.push(PassEvent {
        pass: extract_pass,
        outcome: PassOutcome::Computed,
    });
    trace.push(PassEvent {
        pass,
        outcome: PassOutcome::Computed,
    });
    CaseDelta {
        graph_fp: input_fp,
        since: None,
    }
}

/// The arrival pass for one case, with its trace outcome. On a `warm`
/// manager it starts from the case's snapshot whenever `delta`
/// certifies what changed since it was taken:
///
/// * taken under the current graph fingerprint — nothing changed, so
///   the zero-seed cone serves it as-is (outcome `Reused`);
/// * taken under the fingerprint `delta.since` names — only the listed
///   nodes' in-arc words changed, so the cone engine re-relaxes their
///   fanout closure (`Cone`, or `Reused` when the list is empty).
///
/// Everything else runs the full walk (`Computed`): a cold or rebuilt
/// graph, a cyclic residue, a cone over half the graph (the chunkable
/// walk is at least as fast), or an armed deadline (which needs the
/// walk's level-boundary checks). Both cut-offs depend only on the
/// certified edit, never on `jobs`, so the work counters stay
/// schedule-independent. A complete, residue-free result becomes the
/// next snapshot.
#[allow(clippy::too_many_arguments)]
fn arrival_pass(
    slot: &mut Option<ArrivalSlot>,
    warm: bool,
    ws: &mut Workspace,
    nl: &Netlist,
    graph: &TimingGraph,
    sources: &[NodeId],
    early_sources: &[NodeId],
    endpoints: &[NodeId],
    slope: &SlopeModel,
    jobs: usize,
    guards: Guards,
    delta: &CaseDelta,
) -> (PhaseResult, PassOutcome) {
    let full = |ws: &mut Workspace| {
        let (early, ends) = (early_sources, endpoints);
        propagate_full(
            nl, graph, sources, early, ends, slope, jobs, guards, ws, None,
        )
    };
    if !warm {
        return (full(ws), PassOutcome::Computed);
    }
    let n = graph.node_count();

    // Fault plane: a forced certificate corruption. Dropping the
    // snapshot forces the full walk, whose result is bit-identical —
    // corruption degrades cost, never answers.
    if tv_fault::fault_point!(tv_fault::Site::CertLookup) {
        tv_obs::incr(tv_obs::Counter::FaultInjected);
        tv_obs::incr(tv_obs::Counter::FaultDegraded);
        *slot = None;
    }

    // The nodes whose in-arc words changed since the snapshot, when the
    // graph pass certifies them. Only a residue-free graph leaves a
    // snapshot, and a certificate pins the arc structure, so a
    // certified case is residue-free too.
    let hit = slot.as_ref().is_some_and(|s| s.graph_fp == delta.graph_fp);
    let seeds: Option<&[u32]> = match (slot.as_ref(), &delta.since) {
        _ if hit => Some(&[]),
        (Some(s), Some((prev_fp, changed))) if s.graph_fp == *prev_fp => Some(changed),
        _ => None,
    };
    if let Some(seeds) = seeds {
        let mut affected = vec![false; n];
        for &i in seeds {
            affected[i as usize] = true;
        }
        graph.fanout_closure(&mut affected, seeds.iter().map(|&i| i as usize).collect());
        let recomputed = affected.iter().filter(|&&d| d).count();
        if guards.deadline.is_none() && recomputed * 2 <= n {
            let snapshot = slot.as_mut().expect("a certified case has a snapshot");
            let result = propagate_cone(
                graph,
                sources,
                early_sources,
                endpoints,
                slope,
                &affected,
                &mut snapshot.arrivals,
                ws,
            );
            snapshot.graph_fp = delta.graph_fp;
            if hit {
                tv_obs::incr(tv_obs::Counter::CacheCaseHits);
            } else {
                tv_obs::incr(tv_obs::Counter::CacheCaseMisses);
                tv_obs::add(tv_obs::Counter::ConeSeeds, seeds.len() as u64);
            }
            tv_obs::add(tv_obs::Counter::CacheNodesReused, (n - recomputed) as u64);
            tv_obs::add(tv_obs::Counter::CacheNodesRecomputed, recomputed as u64);
            let outcome = if recomputed == 0 {
                PassOutcome::Reused
            } else {
                PassOutcome::Cone { recomputed }
            };
            return (result, outcome);
        }
        tv_obs::incr(tv_obs::Counter::ConeFallbacks);
    }

    let result = full(ws);
    tv_obs::incr(tv_obs::Counter::CacheCaseMisses);
    tv_obs::add(tv_obs::Counter::CacheNodesRecomputed, n as u64);
    let keep = graph.schedule.residue.is_empty()
        && result.completion == Completion::Complete
        && result.unresolved.is_empty();
    *slot = keep.then(|| ArrivalSlot {
        graph_fp: delta.graph_fp,
        arrivals: result.arrivals.clone(),
    });
    (result, PassOutcome::Computed)
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

fn rules_fp(options: &AnalysisOptions) -> u64 {
    format!("{:?}", options.rules)
        .bytes()
        .fold(SEED, |h, b| mix64(h, b as u64))
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

    #[test]
    fn armed_deadline_forces_full_walk() {
        // A deadline needs the full walk's level-boundary checks, so even
        // an unchanged re-analysis walks instead of serving the snapshot.
        let c = chains::inverter_chain(Tech::nmos4um(), 5, 1);
        let design = Design::new(c.netlist);
        let mut pm = PassManager::new();
        let opts = AnalysisOptions {
            deadline: Some(std::time::Duration::from_secs(3600)),
            ..AnalysisOptions::default()
        };
        let cold = pm.analyze(&design, &opts);
        let warm = pm.analyze(&design, &opts);
        assert_eq!(
            trace_outcome(&pm, PassId::Graph(None)),
            Some(PassOutcome::Reused)
        );
        assert_eq!(
            trace_outcome(&pm, PassId::Arrivals(None)),
            Some(PassOutcome::Computed)
        );
        assert_eq!(fingerprint(&design, &cold), fingerprint(&design, &warm));
    }

    #[test]
    fn pass_table_covers_every_pass_name() {
        let names: Vec<&str> = PASS_TABLE.iter().map(|p| p.name).collect();
        for pass in [
            PassId::Flow,
            PassId::Qualify,
            PassId::Latches,
            PassId::Extract(None),
            PassId::Extract(Some(0)),
            PassId::Graph(None),
            PassId::Arrivals(Some(1)),
            PassId::Checks,
        ] {
            let family = pass.name().split('.').next().unwrap();
            assert!(names.contains(&family), "{family} missing from PASS_TABLE");
        }
    }
}
