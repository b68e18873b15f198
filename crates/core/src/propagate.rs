//! Arrival-time propagation over the timing graph.
//!
//! One walk carries two lanes per node: the **late lane** (worst-case
//! rise/fall arrival, transition and predecessor) for setup and paths,
//! and the **early lane** (earliest arrival from the early sources) for
//! race-through ([`crate::hold`]). Every walk below updates both through
//! one per-arc function, `relax`.
//!
//! # The levelized engine
//!
//! Propagation runs in two phases over the
//! [`crate::graph::LevelSchedule`] the graph carries:
//!
//! 1. **Levels.** Every node whose ancestry is acyclic has a topological
//!    level; all its in-arcs come from strictly earlier levels. Each
//!    level is computed *pull*-style: a node's worst rise/fall arrival is
//!    the maximum over its in-arcs, evaluated in ascending arc-id order.
//!    Because the computation of one node reads only finished earlier
//!    levels and writes only its own entry, a level can be fanned out
//!    across [`tv_fault::isolated_map`] workers in disjoint chunks — and
//!    because per-node evaluation order is fixed by arc id, the result is
//!    **bit-identical** to the serial walk at any thread count.
//! 2. **Residue.** Nodes on or downstream of a combinational cycle never
//!    level; they are finished by the original budgeted worklist
//!    relaxation (seeded from the already-final leveled frontier), which
//!    reports genuine cycles via [`PhaseResult::cyclic`] exactly as the
//!    fully serial engine did. The budget gates the late lane only; the
//!    early lane always converges and is finished by a second worklist.
//!
//! Warm re-analyses of residue-free graphs use the only other engine,
//! the **demand-driven cone engine** (`propagate_cone`): given the
//! previous run's arrivals and the forward-closed affected set of a
//! certified edit, it re-relaxes only the affected nodes in level order
//! and keeps the rest — bit-identical to the full walk, at a cost
//! proportional to the edit's fanout cone instead of the chip.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use tv_netlist::{codes, Diagnostic, Netlist, NodeId};
use tv_rc::SlopeModel;

use crate::graph::{Arc, ArcDelay, ArcKind, PhaseCase, TimingGraph};

/// A signal transition direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Edge {
    /// Low → high.
    Rise,
    /// High → low.
    Fall,
}

impl Edge {
    /// The opposite direction.
    #[inline]
    pub fn flipped(self) -> Edge {
        match self {
            Edge::Rise => Edge::Fall,
            Edge::Fall => Edge::Rise,
        }
    }
}

/// The predecessor record for path backtracking: which arc set this
/// arrival and which edge of the `from` node triggered it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pred {
    pub arc: u32,
    pub from_edge: Edge,
}

/// Worst-case rise/fall arrival times at every node, measured from the
/// analyzed phase's opening edge. `f64::NEG_INFINITY` means the
/// transition never happens in this case. Beside them, the earliest
/// arrival from the early sources (`f64::INFINITY` where none reaches).
#[derive(Debug, Clone)]
pub struct Arrivals {
    pub(crate) rise: Vec<f64>,
    pub(crate) fall: Vec<f64>,
    /// Earliest arrival over either edge from the early sources.
    pub(crate) early: Vec<f64>,
    /// 10–90% transition time of the waveform achieving the worst rise.
    pub(crate) trans_rise: Vec<f64>,
    /// 10–90% transition time of the waveform achieving the worst fall.
    pub(crate) trans_fall: Vec<f64>,
    pub(crate) pred_rise: Vec<Option<Pred>>,
    pub(crate) pred_fall: Vec<Option<Pred>>,
}

impl Arrivals {
    /// Rise arrival at `node`, ns, if it can rise in this case.
    pub fn rise(&self, node: NodeId) -> Option<f64> {
        finite(self.rise[node.index()])
    }

    /// Fall arrival at `node`, ns, if it can fall in this case.
    pub fn fall(&self, node: NodeId) -> Option<f64> {
        finite(self.fall[node.index()])
    }

    /// Earliest arrival at `node` from the early sources over either
    /// edge, ns, if one reaches it.
    pub fn early(&self, node: NodeId) -> Option<f64> {
        finite(self.early[node.index()])
    }

    /// Worst (latest) arrival at `node` over both edges, ns.
    pub fn arrival(&self, node: NodeId) -> Option<f64> {
        match (self.rise(node), self.fall(node)) {
            (Some(r), Some(f)) => Some(r.max(f)),
            (Some(r), None) => Some(r),
            (None, Some(f)) => Some(f),
            (None, None) => None,
        }
    }

    /// 10–90% transition time of the waveform achieving the worst arrival
    /// of the given edge at `node`, ns.
    pub fn transition(&self, node: NodeId, edge: Edge) -> Option<f64> {
        match edge {
            Edge::Rise => self.rise(node).map(|_| self.trans_rise[node.index()]),
            Edge::Fall => self.fall(node).map(|_| self.trans_fall[node.index()]),
        }
    }

    /// The edge achieving [`Arrivals::arrival`], when one exists.
    pub fn worst_edge(&self, node: NodeId) -> Option<Edge> {
        match (self.rise(node), self.fall(node)) {
            (Some(r), Some(f)) => Some(if r >= f { Edge::Rise } else { Edge::Fall }),
            (Some(_), None) => Some(Edge::Rise),
            (None, Some(_)) => Some(Edge::Fall),
            (None, None) => None,
        }
    }
}

fn finite(v: f64) -> Option<f64> {
    v.is_finite().then_some(v)
}

/// Resource guards bounding one propagation run. The default guards
/// reproduce the historical engine: a residue budget of
/// `64 × (arcs + nodes)` and no deadline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Guards {
    /// Overrides the residue worklist's relaxation budget. Exhaustion is
    /// reported via [`PhaseResult::completion`], carrying partial results.
    pub relax_budget: Option<usize>,
    /// Wall-clock deadline for the whole walk. Checked at level
    /// boundaries and periodically inside the residue worklist; nodes
    /// not yet computed when it passes are left without arrivals and
    /// listed in [`PhaseResult::unresolved`]. Note a deadline makes the
    /// set of resolved nodes machine-dependent — leave it `None` where
    /// reproducibility matters.
    pub deadline: Option<Instant>,
}

/// How far a propagation run got before returning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// Every node was resolved.
    Complete,
    /// The residue relaxation budget ran out: late arrivals on the
    /// listed unresolved nodes are lower bounds (too early), not
    /// converged values. The early lane has no budget and converges.
    BudgetExhausted,
    /// The wall-clock deadline passed: the listed unresolved nodes were
    /// never computed and report no arrival at all.
    DeadlineExceeded,
}

/// The outcome of propagating one phase case.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// The case analyzed.
    pub case: PhaseCase,
    /// Per-node arrivals.
    pub arrivals: Arrivals,
    /// Endpoint nodes (latches captured this phase, primary outputs) with
    /// their worst arrivals, sorted latest-first.
    pub endpoints: Vec<(NodeId, f64)>,
    /// Whether relaxation hit the iteration cap — a genuine (or
    /// unresolvable) combinational cycle.
    pub cyclic: bool,
    /// Number of arc relaxations performed (a work measure for T5).
    pub relaxations: usize,
    /// Whether the run finished, ran out of budget, or timed out.
    pub completion: Completion,
    /// Nodes whose values are partial or missing: the residue set when
    /// the budget ran out, uncomputed nodes when the deadline passed,
    /// and any node whose evaluation panicked. Sorted by node id. A
    /// partial late arrival is a lower bound (too early); a partial
    /// early arrival is an upper bound (too late), or absent.
    pub unresolved: Vec<NodeId>,
    /// Engine diagnostics: guard exhaustion and degraded (panicked)
    /// workers. Empty — and unallocated — on a clean run.
    pub diagnostics: Vec<Diagnostic>,
}

impl PhaseResult {
    /// Latest endpoint arrival, ns; `None` when nothing arrives (e.g. an
    /// empty case).
    pub fn critical_arrival(&self) -> Option<f64> {
        self.endpoints.first().map(|&(_, t)| t)
    }

    /// Convenience passthrough to [`Arrivals::arrival`].
    pub fn arrival(&self, node: NodeId) -> Option<f64> {
        self.arrivals.arrival(node)
    }
}

/// Per-node propagation state, kept in level (slot) order during the
/// walk so each level is one contiguous, chunkable slice.
#[derive(Debug, Clone, Copy)]
struct Slot {
    rise: f64,
    fall: f64,
    early: f64,
    trans_rise: f64,
    trans_fall: f64,
    pred_rise: Option<Pred>,
    pred_fall: Option<Pred>,
}

impl Slot {
    /// A node's value before any in-arc: late sources arrive at 0 on
    /// both edges, early sources at 0 in the early lane.
    fn init(source: bool, early_source: bool) -> Slot {
        let t0 = if source { 0.0 } else { f64::NEG_INFINITY };
        Slot {
            rise: t0,
            fall: t0,
            early: if early_source { 0.0 } else { f64::INFINITY },
            trans_rise: 0.0,
            trans_fall: 0.0,
            pred_rise: None,
            pred_fall: None,
        }
    }
}

/// Reusable scratch buffers for repeated propagation runs: the slot
/// permutation, the per-node slot array, and the residue worklist. One
/// instance serves every case of a report, so after the first case at a
/// given netlist size a propagation run allocates only the [`Arrivals`]
/// it returns (which the caller keeps) — everything transient is reused.
#[derive(Debug, Default)]
pub struct Workspace {
    is_source: Vec<bool>,
    is_early: Vec<bool>,
    slot_of: Vec<u32>,
    slots: Vec<Slot>,
    in_residue: Vec<bool>,
    queued: Vec<bool>,
    queue: VecDeque<u32>,
}

impl Workspace {
    /// An empty workspace; buffers grow to the netlist size on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Shared read-only context for node evaluation.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    graph: &'a TimingGraph,
    slope: &'a SlopeModel,
    /// Node index → slot index (level order, then residue).
    slot_of: &'a [u32],
    is_source: &'a [bool],
    is_early: &'a [bool],
    /// Fault-injection hook (tests only); called before each evaluation.
    fault: Option<&'a (dyn Fn(u32) + Sync)>,
}

/// Candidate `(rise arrival, rise trigger, fall arrival, fall trigger)`
/// the arc offers its target through its delay row `d`, padded with the
/// slope penalty of the triggering waveform.
#[inline]
fn candidates(arc: &Arc, d: &ArcDelay, from: &Slot, slope: &SlopeModel) -> (f64, Edge, f64, Edge) {
    match arc.kind {
        ArcKind::PassControl | ArcKind::Precharge => (
            from.rise + d.rise_delay + slope.k_slope * from.trans_rise,
            Edge::Rise,
            from.rise + d.fall_delay + slope.k_slope * from.trans_rise,
            Edge::Rise,
        ),
        _ if arc.inverting => (
            from.fall + d.rise_delay + slope.k_slope * from.trans_fall,
            Edge::Fall,
            from.rise + d.fall_delay + slope.k_slope * from.trans_rise,
            Edge::Rise,
        ),
        _ => (
            from.rise + d.rise_delay + slope.k_slope * from.trans_rise,
            Edge::Rise,
            from.fall + d.fall_delay + slope.k_slope * from.trans_fall,
            Edge::Fall,
        ),
    }
}

/// The earliest arrival an arc with delay row `d` offers its target:
/// the source's earliest arrival plus the arc's faster edge.
#[inline]
pub(crate) fn early_through(from_early: f64, d: &ArcDelay) -> f64 {
    from_early + d.rise_delay.min(d.fall_delay)
}

/// The per-arc update every walk shares: relaxes arc `ai` from `from`
/// into `to`. The late lane keeps the latest [`candidates`] with their
/// transitions and predecessors (unless `late` is false), the early lane
/// the earliest arrival. Returns whether the late and the early lane moved.
#[inline]
fn relax(
    ai: u32,
    arc: &Arc,
    d: &ArcDelay,
    from: &Slot,
    to: &mut Slot,
    slope: &SlopeModel,
    late: bool,
) -> (bool, bool) {
    let mut late_moved = false;
    if late {
        let (cand_rise, rise_src, cand_fall, fall_src) = candidates(arc, d, from, slope);
        if cand_rise.is_finite() && cand_rise > to.rise {
            to.rise = cand_rise;
            to.trans_rise = slope.output_transition(d.rise_tau);
            to.pred_rise = Some(Pred {
                arc: ai,
                from_edge: rise_src,
            });
            late_moved = true;
        }
        if cand_fall.is_finite() && cand_fall > to.fall {
            to.fall = cand_fall;
            to.trans_fall = slope.output_transition(d.fall_tau);
            to.pred_fall = Some(Pred {
                arc: ai,
                from_edge: fall_src,
            });
            late_moved = true;
        }
    }
    let early = early_through(from.early, d);
    let early_moved = early < to.early;
    if early_moved {
        to.early = early;
    }
    (late_moved, early_moved)
}

/// Evaluates one leveled node: both lanes over its in-arcs in ascending
/// arc-id order. Pure in the finished prefix, so the result does not
/// depend on how the level was chunked across workers.
fn compute_node(ctx: Ctx<'_>, done: &[Slot], node: u32) -> (Slot, u32) {
    if let Some(hook) = ctx.fault {
        hook(node);
    }
    // Fault plane: a forced worker panic, caught by the same isolation
    // that contains a genuine one (every caller is under catch_unwind).
    if tv_fault::fault_point!(tv_fault::Site::PropagateWorker) {
        tv_obs::incr(tv_obs::Counter::FaultInjected);
        panic!(
            "{}",
            tv_fault::panic_message(tv_fault::Site::PropagateWorker)
        );
    }
    let ni = node as usize;
    let mut s = Slot::init(ctx.is_source[ni], ctx.is_early[ni]);
    let mut relaxed = 0u32;
    for &ai in ctx.graph.in_arcs_of_index(ni) {
        let arc = &ctx.graph.arcs[ai as usize];
        let d = ctx.graph.delay_of(arc);
        let from = &done[ctx.slot_of[arc.from.index()] as usize];
        relax(ai, arc, d, from, &mut s, ctx.slope, true);
        relaxed += 1;
    }
    (s, relaxed)
}

/// The waveform-state transitions an arc can carry, mirroring
/// [`candidates`]: `(from_edge, to_edge)` index pairs (0 = rise,
/// 1 = fall) such that a finite arrival on `from_edge` of `arc.from`
/// yields a finite candidate on `to_edge` of `arc.to`. An infinite
/// delay in the arc's row `d` carries nothing on its edge.
#[inline]
fn arc_transitions(arc: &Arc, d: &ArcDelay) -> [Option<(usize, usize)>; 2] {
    const RISE: usize = 0;
    const FALL: usize = 1;
    let (rise_from, fall_from) = match arc.kind {
        ArcKind::PassControl | ArcKind::Precharge => (RISE, RISE),
        _ if arc.inverting => (FALL, RISE),
        _ => (RISE, FALL),
    };
    [
        d.rise_delay.is_finite().then_some((rise_from, RISE)),
        d.fall_delay.is_finite().then_some((fall_from, FALL)),
    ]
}

/// Decides whether the budgeted residue relaxation of the late lane can
/// terminate at all. (The early lane always can: it is min-propagation
/// over non-negative delays.)
///
/// The residue is relaxed by monotone max-propagation, so it diverges
/// exactly when a finite arrival reaches a cycle of the *waveform state
/// graph* (states are `(node, edge)` pairs, transitions follow
/// [`arc_transitions`]): every lap around such a cycle adds its strictly
/// positive delay sum, so no fixpoint exists and the old behaviour was
/// to grind through the entire relaxation budget producing unbounded,
/// physically meaningless arrivals. Conversely, if the finite-reachable
/// state subgraph is acyclic the relaxation below converges and runs
/// exactly as it always has, value for value.
///
/// Three linear passes: mark states finite-reachable from the residue
/// seeds (initial slot values plus arcs entering from the finished
/// prefix), then Kahn-peel the subgraph they induce; a leftover state
/// proves a reachable cycle.
fn residue_diverges(
    graph: &TimingGraph,
    slots: &[Slot],
    slot_of: &[u32],
    in_residue: &[bool],
    residue: &[u32],
) -> bool {
    let n = in_residue.len();
    let mut finite = vec![false; 2 * n];
    let mut stack: Vec<u32> = Vec::new();
    // Seed: residue nodes' initial slot values (sources arrive at 0).
    for &r in residue {
        let ri = r as usize;
        let s = &slots[slot_of[ri] as usize];
        for (bit, v) in [(0, s.rise), (1, s.fall)] {
            if v.is_finite() {
                finite[2 * ri + bit] = true;
                stack.push((2 * ri + bit) as u32);
            }
        }
    }
    // Seed: arcs entering the residue from the finished prefix, whose
    // slot values are final.
    for a in &graph.arcs {
        if in_residue[a.to.index()] && !in_residue[a.from.index()] {
            let s = &slots[slot_of[a.from.index()] as usize];
            for (fe, te) in arc_transitions(a, graph.delay_of(a)).into_iter().flatten() {
                let v = if fe == 0 { s.rise } else { s.fall };
                let st = 2 * a.to.index() + te;
                if v.is_finite() && !finite[st] {
                    finite[st] = true;
                    stack.push(st as u32);
                }
            }
        }
    }
    // Fixpoint: a residue node's out-arcs always target residue nodes
    // (anything a non-leveled node feeds is itself non-leveled).
    while let Some(st) = stack.pop() {
        let (node, bit) = (st as usize / 2, st as usize % 2);
        for &ai in graph.out_arcs_of_index(node) {
            let a = &graph.arcs[ai as usize];
            for (fe, te) in arc_transitions(a, graph.delay_of(a)).into_iter().flatten() {
                let to_st = 2 * a.to.index() + te;
                if fe == bit && !finite[to_st] {
                    finite[to_st] = true;
                    stack.push(to_st as u32);
                }
            }
        }
    }
    // Kahn cycle check on the finite residue states.
    let mut indeg = vec![0u32; 2 * n];
    let mut total = 0usize;
    for &r in residue {
        let ri = r as usize;
        total += finite[2 * ri] as usize + finite[2 * ri + 1] as usize;
        for &ai in graph.out_arcs_of_index(ri) {
            let a = &graph.arcs[ai as usize];
            for (fe, te) in arc_transitions(a, graph.delay_of(a)).into_iter().flatten() {
                if finite[2 * ri + fe] && finite[2 * a.to.index() + te] {
                    indeg[2 * a.to.index() + te] += 1;
                }
            }
        }
    }
    let mut peel: Vec<u32> = Vec::new();
    for &r in residue {
        for bit in 0..2 {
            let st = 2 * r as usize + bit;
            if finite[st] && indeg[st] == 0 {
                peel.push(st as u32);
            }
        }
    }
    let mut peeled = 0usize;
    while let Some(st) = peel.pop() {
        peeled += 1;
        let (node, bit) = (st as usize / 2, st as usize % 2);
        for &ai in graph.out_arcs_of_index(node) {
            let a = &graph.arcs[ai as usize];
            for (fe, te) in arc_transitions(a, graph.delay_of(a)).into_iter().flatten() {
                let to_st = 2 * a.to.index() + te;
                if fe == bit && finite[to_st] {
                    indeg[to_st] -= 1;
                    if indeg[to_st] == 0 {
                        peel.push(to_st as u32);
                    }
                }
            }
        }
    }
    peeled < total
}

/// Resets `flags` to `n` clear entries, then sets the listed indices.
fn mark(flags: &mut Vec<bool>, n: usize, nodes: impl IntoIterator<Item = usize>) {
    flags.clear();
    flags.resize(n, false);
    for i in nodes {
        flags[i] = true;
    }
}

/// Minimum level width before fanning a level out across threads;
/// narrower levels are cheaper to finish inline than to dispatch.
/// Public so the bench crate's work-span model mirrors the engine.
pub const PAR_MIN_WIDTH: usize = 128;

/// Propagates worst-case arrivals from `sources` (arrival 0 on both
/// edges, step transitions) through the graph, serially. `endpoints`
/// selects which nodes are reported as capture points. The early lane
/// has no sources here: [`crate::race_check`] is the public entry that
/// seeds it.
///
/// Slope handling follows TV: each arc's delay is padded with
/// `k_slope × input_transition`, and the output transition is
/// `k_transition × τ` of the arc's RC constant. Pass
/// [`SlopeModel::disabled`] for pure step-response analysis.
pub fn propagate(
    netlist: &Netlist,
    graph: &TimingGraph,
    sources: &[NodeId],
    endpoints: &[NodeId],
    slope: &SlopeModel,
) -> PhaseResult {
    propagate_with(netlist, graph, sources, endpoints, slope, 1)
}

/// [`propagate`] with up to `jobs` worker threads per level. The module
/// docs explain why arrivals, transitions, and predecessors are
/// bit-identical at every thread count; `jobs == 1` (or narrow levels)
/// runs inline with no thread startup at all.
///
/// Cyclic structures (the schedule's residue) are first screened for
/// divergence: if a finite arrival reaches a positive-delay cycle of
/// the waveform state graph the relaxation has no fixpoint, so the
/// residue is flagged via [`PhaseResult::cyclic`] up front and left at
/// its seed values. A converging residue is finished by a worklist
/// relaxation with a budget of `64 × (arcs + nodes)` as a backstop;
/// budget exhaustion also reports [`PhaseResult::cyclic`].
pub fn propagate_with(
    netlist: &Netlist,
    graph: &TimingGraph,
    sources: &[NodeId],
    endpoints: &[NodeId],
    slope: &SlopeModel,
    jobs: usize,
) -> PhaseResult {
    propagate_guarded(
        netlist,
        graph,
        sources,
        endpoints,
        slope,
        jobs,
        Guards::default(),
    )
}

/// [`propagate_with`] under explicit resource [`Guards`]. Guard
/// exhaustion is not an error: the result carries whatever was computed,
/// with [`PhaseResult::completion`] and [`PhaseResult::unresolved`]
/// describing what is missing.
#[allow(clippy::too_many_arguments)]
pub fn propagate_guarded(
    netlist: &Netlist,
    graph: &TimingGraph,
    sources: &[NodeId],
    endpoints: &[NodeId],
    slope: &SlopeModel,
    jobs: usize,
    guards: Guards,
) -> PhaseResult {
    propagate_full(
        netlist,
        graph,
        sources,
        &[],
        endpoints,
        slope,
        jobs,
        guards,
        &mut Workspace::new(),
        None,
    )
}

/// Demand-driven cone engine: re-relaxes only the nodes marked
/// `affected`, in level order, over the previous run's arrivals (both
/// lanes: an early arrival depends on the same in-arcs as a late one).
/// `snapshot` is advanced in place to the new arrivals, and the result
/// carries a copy.
///
/// Preconditions (the caller — the pass pipeline's arrival pass —
/// enforces all three, and passes the sources the snapshot was taken
/// with): the graph's schedule has no residue, the
/// `affected` set is forward-closed over out-arcs, and no wall-clock
/// deadline is armed. Under them the result is **bit-identical** to the
/// full walk: a node's predecessors sit at strictly lower levels, so by
/// induction every value an affected node reads is final — freshly
/// recomputed if the predecessor is itself affected, the snapshot value
/// otherwise — and the per-node evaluation reproduces
/// [`compute_node`]'s arithmetic arc for arc.
#[allow(clippy::too_many_arguments)]
pub(crate) fn propagate_cone(
    graph: &TimingGraph,
    sources: &[NodeId],
    early_sources: &[NodeId],
    endpoints: &[NodeId],
    slope: &SlopeModel,
    affected: &[bool],
    snapshot: &mut Arrivals,
    ws: &mut Workspace,
) -> PhaseResult {
    let _span = tv_obs::span("propagate");
    let n = graph.node_count();
    let sched = &graph.schedule;
    debug_assert!(
        sched.residue.is_empty(),
        "cone propagation requires a fully leveled graph"
    );
    debug_assert_eq!(snapshot.rise.len(), n);

    mark(&mut ws.is_source, n, sources.iter().map(|s| s.index()));
    mark(&mut ws.is_early, n, early_sources.iter().map(|s| s.index()));

    // The snapshot's predecessor arc ids are still valid: it was taken
    // on an arc-for-arc identical graph (same fingerprint) or on one a
    // splice changed only in delay words.
    let arr = snapshot;

    let mut cone_nodes = 0u64;
    let mut cone_relax = 0u64;
    for &nd in &sched.order {
        let ni = nd as usize;
        if !affected[ni] {
            continue;
        }
        cone_nodes += 1;
        let mut s = Slot::init(ws.is_source[ni], ws.is_early[ni]);
        for &ai in graph.in_arcs_of_index(ni) {
            let arc = &graph.arcs[ai as usize];
            let fi = arc.from.index();
            let from = Slot {
                rise: arr.rise[fi],
                fall: arr.fall[fi],
                early: arr.early[fi],
                trans_rise: arr.trans_rise[fi],
                trans_fall: arr.trans_fall[fi],
                pred_rise: None,
                pred_fall: None,
            };
            relax(ai, arc, graph.delay_of(arc), &from, &mut s, slope, true);
            cone_relax += 1;
        }
        arr.rise[ni] = s.rise;
        arr.fall[ni] = s.fall;
        arr.early[ni] = s.early;
        arr.trans_rise[ni] = s.trans_rise;
        arr.trans_fall[ni] = s.trans_fall;
        arr.pred_rise[ni] = s.pred_rise;
        arr.pred_fall[ni] = s.pred_fall;
    }

    // The work counters record the cone's *actual* work — that shrinkage
    // is the warm path's whole point.
    tv_obs::add(tv_obs::Counter::PropagateRelaxations, cone_relax);
    tv_obs::add(tv_obs::Counter::PropagateNodes, cone_nodes);
    tv_obs::incr(tv_obs::Counter::PropagateCases);
    tv_obs::add(tv_obs::Counter::ConeNodes, cone_nodes);

    let mut eps: Vec<(NodeId, f64)> = endpoints
        .iter()
        .filter_map(|&e| arr.arrival(e).map(|t| (e, t)))
        .collect();
    eps.sort_by(|a, b| b.1.total_cmp(&a.1));

    PhaseResult {
        case: graph.case,
        arrivals: arr.clone(),
        endpoints: eps,
        cyclic: false,
        // Charge-equivalent, not actual: `PhaseResult::relaxations`
        // feeds the frozen report fingerprint, and the full walk of a
        // residue-free graph relaxes every in-arc exactly once — one per
        // arc in total. The obs counters above record what the cone
        // really did.
        relaxations: graph.arcs.len(),
        completion: Completion::Complete,
        unresolved: Vec::new(),
        diagnostics: Vec::new(),
    }
}

/// The full engine: the levelized (optionally parallel) walk, then the
/// residue worklist, reusing `ws`'s scratch buffers. `fault` is a hook
/// called with each node index before evaluation; tests use a panicking
/// hook to exercise worker isolation, production callers pass `None`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn propagate_full(
    netlist: &Netlist,
    graph: &TimingGraph,
    sources: &[NodeId],
    early_sources: &[NodeId],
    endpoints: &[NodeId],
    slope: &SlopeModel,
    jobs: usize,
    guards: Guards,
    ws: &mut Workspace,
    fault: Option<&(dyn Fn(u32) + Sync)>,
) -> PhaseResult {
    let _span = tv_obs::span("propagate");
    let n = netlist.node_count();
    let sched = &graph.schedule;
    debug_assert_eq!(sched.order.len() + sched.residue.len(), n);

    let Workspace {
        is_source,
        is_early,
        slot_of,
        slots,
        in_residue,
        queued,
        queue,
    } = ws;
    mark(is_source, n, sources.iter().map(|s| s.index()));
    mark(is_early, n, early_sources.iter().map(|s| s.index()));

    // Slot permutation: leveled nodes in level order, then residue.
    slot_of.clear();
    slot_of.resize(n, 0);
    slots.clear();
    slots.reserve(n);
    for (slot, &nd) in sched.order.iter().chain(sched.residue.iter()).enumerate() {
        let ni = nd as usize;
        slot_of[ni] = slot as u32;
        slots.push(Slot::init(is_source[ni], is_early[ni]));
    }

    let ctx = Ctx {
        graph,
        slope,
        slot_of: slot_of.as_slice(),
        is_source: is_source.as_slice(),
        is_early: is_early.as_slice(),
        fault,
    };

    let mut relaxations = 0usize;
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut panicked: Vec<u32> = Vec::new();
    let mut deadline_hit_at: Option<usize> = None;
    // Fault plane: forced early exhaustion of the deadline clock,
    // expressed deterministically (slot 0, never a wall-clock read) so
    // the PARTIAL RESULTS path it exercises is golden-able.
    if tv_fault::fault_point!(tv_fault::Site::ExhaustClock) {
        tv_obs::incr(tv_obs::Counter::FaultInjected);
        deadline_hit_at = Some(0);
    }
    for l in 0..sched.levels() {
        if deadline_hit_at.is_some() {
            break;
        }
        let lo = sched.level_starts[l] as usize;
        let hi = sched.level_starts[l + 1] as usize;
        if let Some(dl) = guards.deadline {
            if Instant::now() >= dl {
                deadline_hit_at = Some(lo);
                break;
            }
        }
        let width = hi - lo;
        let targets = &sched.order[lo..hi];
        let (done, rest) = slots.split_at_mut(lo);
        let level_out = &mut rest[..width];
        let threads = if jobs <= 1 || width < PAR_MIN_WIDTH {
            1
        } else {
            jobs.min(width)
        };
        // First attempt: the fast path, whole level serially or chunked
        // across workers. Any panic is contained to its chunk and
        // reported as `Err`, leaving the level to the degraded pass below.
        let chunk = width.div_ceil(threads);
        let done = &*done;
        let attempt: Result<usize, ()> = tv_fault::isolated_map(
            level_out
                .chunks_mut(chunk)
                .zip(targets.chunks(chunk))
                .collect(),
            threads,
            |(out_chunk, t_chunk): (&mut [Slot], &[u32])| {
                let mut relaxed = 0usize;
                for (out, &t) in out_chunk.iter_mut().zip(t_chunk) {
                    let (s, r) = compute_node(ctx, done, t);
                    *out = s;
                    relaxed += r as usize;
                }
                relaxed
            },
        )
        .into_iter()
        .sum();
        match attempt {
            Ok(relaxed) => relaxations += relaxed,
            Err(()) => {
                // Degraded pass: recompute the whole level serially with
                // per-node isolation. `compute_node` is pure in the
                // finished prefix, so nodes that evaluate cleanly get
                // bit-identical values to an untroubled run; nodes that
                // panic again deterministically resolve to "no arrival".
                tv_obs::incr(tv_obs::Counter::FaultDegraded);
                diagnostics.push(Diagnostic::warning(
                    codes::ANALYSIS_WORKER_PANIC,
                    format!(
                        "a propagation worker panicked on level {l}; level recomputed serially"
                    ),
                ));
                let (done, rest) = slots.split_at_mut(lo);
                let level_out = &mut rest[..width];
                for (out, &t) in level_out.iter_mut().zip(targets) {
                    match catch_unwind(AssertUnwindSafe(|| compute_node(ctx, done, t))) {
                        Ok((s, r)) => {
                            *out = s;
                            relaxations += r as usize;
                        }
                        Err(_) => {
                            let ti = t as usize;
                            *out = Slot::init(ctx.is_source[ti], ctx.is_early[ti]);
                            panicked.push(t);
                        }
                    }
                }
            }
        }
    }

    // Residue: a serial worklist per lane, seeded with residue sources
    // and every node feeding a residue node (their slots are final). The
    // early lane's runs whatever became of the late one's, needs no
    // budget (min-propagation over non-negative delays converges to an
    // order-independent fixpoint), and is not counted in the counters.
    let mut cyclic = false;
    let mut residue_deadline_hit = false;
    if !sched.residue.is_empty() && deadline_hit_at.is_none() {
        mark(in_residue, n, sched.residue.iter().map(|&r| r as usize));
        queued.clear();
        queued.resize(n, false);
        let enqueue = |node: usize, queue: &mut VecDeque<u32>, queued: &mut [bool]| {
            if !queued[node] {
                queued[node] = true;
                queue.push_back(node as u32);
            }
        };
        for late in [true, false] {
            if late && residue_diverges(graph, slots, slot_of, in_residue, &sched.residue) {
                // A finite arrival reaches a positive-delay cycle: max-
                // relaxation has no fixpoint, every lap raises the
                // cycle's arrivals further. Flag the cycle immediately
                // instead of grinding through the relaxation budget
                // accumulating unbounded arrivals; residue nodes keep
                // their seed values (sources at 0, everything else "no
                // arrival").
                cyclic = true;
                continue;
            }
            if residue_deadline_hit {
                break;
            }
            queue.clear();
            queued.fill(false);
            let early_reached = |i: usize| slots[slot_of[i] as usize].early.is_finite();
            for &r in &sched.residue {
                let ri = r as usize;
                if (late && is_source[ri]) || (!late && early_reached(ri)) {
                    enqueue(ri, queue, queued);
                }
            }
            for a in &graph.arcs {
                if in_residue[a.to.index()] && (late || early_reached(a.from.index())) {
                    enqueue(a.from.index(), queue, queued);
                }
            }
            let budget = match guards.relax_budget {
                _ if !late => usize::MAX,
                Some(b) => b,
                None => 64 * (graph.arcs.len() + n).max(1),
            };
            let mut residue_relax = 0usize;
            let mut pops = 0u64;
            while let Some(nidx) = queue.pop_front() {
                let ni = nidx as usize;
                queued[ni] = false;
                if residue_relax > budget {
                    cyclic = true;
                    break;
                }
                pops += 1;
                if pops.is_multiple_of(1024)
                    && guards.deadline.is_some_and(|dl| Instant::now() >= dl)
                {
                    residue_deadline_hit = true;
                    break;
                }
                let from = slots[slot_of[ni] as usize];
                for &ai in graph.out_arcs_of_index(ni) {
                    let arc = &graph.arcs[ai as usize];
                    let to = arc.to.index();
                    let target = &mut slots[slot_of[to] as usize];
                    let moved = relax(ai, arc, graph.delay_of(arc), &from, target, slope, late);
                    residue_relax += 1;
                    if moved.0 || (!late && moved.1) {
                        enqueue(to, queue, queued);
                    }
                }
            }
            if late {
                relaxations += residue_relax;
                tv_obs::add(tv_obs::Counter::PropagateResiduePops, pops);
            }
        }
    }
    tv_obs::add(tv_obs::Counter::PropagateRelaxations, relaxations as u64);
    tv_obs::add(tv_obs::Counter::PropagateNodes, n as u64);
    tv_obs::incr(tv_obs::Counter::PropagateCases);

    // Back from slot order to node order.
    let mut arr = Arrivals {
        rise: vec![f64::NEG_INFINITY; n],
        fall: vec![f64::NEG_INFINITY; n],
        early: vec![f64::INFINITY; n],
        trans_rise: vec![0.0; n],
        trans_fall: vec![0.0; n],
        pred_rise: vec![None; n],
        pred_fall: vec![None; n],
    };
    for node in 0..n {
        let s = &slots[slot_of[node] as usize];
        arr.rise[node] = s.rise;
        arr.fall[node] = s.fall;
        arr.early[node] = s.early;
        arr.trans_rise[node] = s.trans_rise;
        arr.trans_fall[node] = s.trans_fall;
        arr.pred_rise[node] = s.pred_rise;
        arr.pred_fall[node] = s.pred_fall;
    }

    let mut eps: Vec<(NodeId, f64)> = endpoints
        .iter()
        .filter_map(|&e| arr.arrival(e).map(|t| (e, t)))
        .collect();
    eps.sort_by(|a, b| b.1.total_cmp(&a.1));

    // Guard accounting: name what is missing and why. All of this is on
    // exhaustion/degradation paths only — a clean run allocates nothing.
    let ids: Vec<NodeId> =
        if deadline_hit_at.is_some() || residue_deadline_hit || cyclic || !panicked.is_empty() {
            netlist.node_ids().collect()
        } else {
            Vec::new()
        };
    let mut unresolved: Vec<NodeId> = Vec::new();
    let mut completion = Completion::Complete;
    if let Some(from_slot) = deadline_hit_at {
        completion = Completion::DeadlineExceeded;
        unresolved.extend(sched.order[from_slot..].iter().map(|&nd| ids[nd as usize]));
        unresolved.extend(sched.residue.iter().map(|&nd| ids[nd as usize]));
        diagnostics.push(Diagnostic::warning(
            codes::ANALYSIS_DEADLINE,
            format!(
                "deadline passed before propagation finished; {} node(s) left uncomputed",
                unresolved.len()
            ),
        ));
    } else if residue_deadline_hit || cyclic {
        completion = if cyclic {
            Completion::BudgetExhausted
        } else {
            Completion::DeadlineExceeded
        };
        unresolved.extend(sched.residue.iter().map(|&nd| ids[nd as usize]));
        let (code, what) = if cyclic {
            (
                codes::ANALYSIS_BUDGET_EXHAUSTED,
                "relaxation budget exhausted (combinational cycle?)",
            )
        } else {
            (
                codes::ANALYSIS_DEADLINE,
                "deadline passed during cycle relaxation",
            )
        };
        diagnostics.push(Diagnostic::warning(
            code,
            format!(
                "{what}; arrivals on {} residue node(s) are lower bounds",
                sched.residue.len()
            ),
        ));
    }
    for &t in &panicked {
        let id = ids[t as usize];
        diagnostics.push(Diagnostic::error(
            codes::ANALYSIS_WORKER_PANIC,
            format!(
                "evaluation of node {:?} panicked; node left unresolved",
                netlist.node_name(id)
            ),
        ));
        unresolved.push(id);
    }
    unresolved.sort_unstable();
    unresolved.dedup();

    PhaseResult {
        case: graph.case,
        arrivals: arr,
        endpoints: eps,
        cyclic,
        relaxations,
        completion,
        unresolved,
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::PhaseCase;
    use crate::options::DelayModel;
    use tv_clocks::qualify::qualify_with_flow;
    use tv_flow::{analyze, RuleSet};
    use tv_netlist::{NetlistBuilder, Tech};

    fn run(nl: &Netlist, case: PhaseCase, sources: &[NodeId], endpoints: &[NodeId]) -> PhaseResult {
        let flow = analyze(nl, &RuleSet::all());
        let q = qualify_with_flow(nl, &flow);
        let g = TimingGraph::build(nl, &flow, &q, case, DelayModel::Elmore, 1.0);
        propagate(nl, &g, sources, endpoints, &SlopeModel::calibrated())
    }

    #[test]
    fn chain_arrivals_accumulate() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let x = b.node("x");
        let y = b.node("y");
        let z = b.output("z");
        b.inverter("i1", a, x);
        b.inverter("i2", x, y);
        b.inverter("i3", y, z);
        let nl = b.finish().unwrap();
        let r = run(&nl, PhaseCase::all_active(), &[a], &[z]);
        let ax = r.arrival(x).unwrap();
        let ay = r.arrival(y).unwrap();
        let az = r.arrival(z).unwrap();
        assert!(0.0 < ax && ax < ay && ay < az);
        assert!(!r.cyclic);
        assert_eq!(r.critical_arrival(), Some(az));
    }

    #[test]
    fn rise_fall_alternate_down_an_inverter_chain() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let x = b.node("x");
        let y = b.node("y");
        b.inverter("i1", a, x);
        b.inverter("i2", x, y);
        let nl = b.finish().unwrap();
        let r = run(&nl, PhaseCase::all_active(), &[a], &[y]);
        // x's slow edge is its rise (depletion load); y's rise is driven
        // by x's fall, so y's rise is comparatively early, and y's fall
        // waits for x's slow rise.
        let x_rise = r.arrivals.rise(x).unwrap();
        let x_fall = r.arrivals.fall(x).unwrap();
        assert!(x_rise > x_fall);
        let y_fall = r.arrivals.fall(y).unwrap();
        assert!(y_fall > x_rise, "y falls only after x rises");
    }

    #[test]
    fn unreachable_node_has_no_arrival() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let other = b.input("other");
        let x = b.node("x");
        let y = b.node("y");
        b.inverter("i1", a, x);
        b.inverter("i2", other, y);
        let nl = b.finish().unwrap();
        let r = run(&nl, PhaseCase::all_active(), &[a], &[x, y]);
        assert!(r.arrival(x).is_some());
        assert_eq!(r.arrival(y), None);
        assert_eq!(r.endpoints.len(), 1);
    }

    #[test]
    fn ring_oscillator_detected_as_cyclic() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let kick = b.input("kick");
        let n0 = b.node("n0");
        let n1 = b.node("n1");
        let n2 = b.node("n2");
        b.nand("g0", &[kick, n2], n0);
        b.inverter("g1", n0, n1);
        b.inverter("g2", n1, n2);
        let nl = b.finish().unwrap();
        let r = run(&nl, PhaseCase::all_active(), &[kick], &[n2]);
        assert!(r.cyclic, "three-ring must be flagged cyclic");
    }

    #[test]
    fn latch_breaks_the_loop_under_case_analysis() {
        // A two-phase loop: logic -> φ1 latch -> logic -> φ2 latch -> back.
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let phi1 = b.clock("phi1", 0);
        let phi2 = b.clock("phi2", 1);
        let l1_out = b.node("l1_out");
        let inv1 = b.node("inv1");
        b.inverter("i1", l1_out, inv1);
        let l2_out = b.node("l2_out");
        b.dynamic_latch("l2", phi2, inv1, l2_out);
        let inv2 = b.node("inv2");
        b.inverter("i2", l2_out, inv2);
        b.dynamic_latch("l1", phi1, inv2, l1_out);
        let nl = b.finish().unwrap();
        let l1_store = nl.node_by_name("l1_mem").unwrap();
        let l2_store = nl.node_by_name("l2_mem").unwrap();

        // Phase 1 (φ2 active): source is the φ1 latch, endpoint φ2 latch.
        let r = run(&nl, PhaseCase::phase(1), &[l1_store, phi2], &[l2_store]);
        assert!(!r.cyclic);
        assert!(r.arrival(l2_store).is_some());

        // Without case analysis the loop is unbroken and flagged.
        let r_naive = run(
            &nl,
            PhaseCase::all_active(),
            &[l1_store, phi1, phi2],
            &[l2_store],
        );
        assert!(r_naive.cyclic);
    }

    #[test]
    fn worst_edge_matches_arrival() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let x = b.output("x");
        b.inverter("i", a, x);
        let nl = b.finish().unwrap();
        let r = run(&nl, PhaseCase::all_active(), &[a], &[x]);
        // The slow edge of an inverter output is the rise.
        assert_eq!(r.arrivals.worst_edge(x), Some(Edge::Rise));
        assert_eq!(r.arrival(x), r.arrivals.rise(x));
    }

    #[test]
    fn edge_flip_is_involutive() {
        assert_eq!(Edge::Rise.flipped(), Edge::Fall);
        assert_eq!(Edge::Fall.flipped().flipped(), Edge::Fall);
    }

    fn ring() -> (Netlist, NodeId, NodeId) {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let kick = b.input("kick");
        let n0 = b.node("n0");
        let n1 = b.node("n1");
        let n2 = b.node("n2");
        b.nand("g0", &[kick, n2], n0);
        b.inverter("g1", n0, n1);
        b.inverter("g2", n1, n2);
        (b.finish().unwrap(), kick, n2)
    }

    #[test]
    fn clean_run_is_complete_with_no_diagnostics() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let x = b.output("x");
        b.inverter("i", a, x);
        let nl = b.finish().unwrap();
        let r = run(&nl, PhaseCase::all_active(), &[a], &[x]);
        assert_eq!(r.completion, Completion::Complete);
        assert!(r.unresolved.is_empty());
        assert!(r.diagnostics.is_empty());
    }

    #[test]
    fn tiny_relax_budget_returns_partial_results_with_unresolved_nodes() {
        let (nl, kick, n2) = ring();
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
        let guards = Guards {
            relax_budget: Some(1),
            deadline: None,
        };
        let r = propagate_guarded(
            &nl,
            &g,
            &[kick],
            &[n2],
            &SlopeModel::calibrated(),
            1,
            guards,
        );
        assert_eq!(r.completion, Completion::BudgetExhausted);
        assert!(r.cyclic);
        assert!(!r.unresolved.is_empty(), "residue nodes must be listed");
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.code == tv_netlist::codes::ANALYSIS_BUDGET_EXHAUSTED));
        // The partial result still carries every finished arrival.
        assert!(r.arrival(kick).is_some());
    }

    #[test]
    fn panicked_evaluation_degrades_to_no_arrival_with_diagnostic() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let x = b.node("x");
        let y = b.output("y");
        let (u, v) = (b.input("u"), b.output("v"));
        b.inverter("i1", a, x);
        b.inverter("i2", x, y);
        b.inverter("iu", u, v);
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
        let bad = x.index() as u32;
        let hook = move |n: u32| {
            if n == bad {
                panic!("injected fault");
            }
        };
        let r = propagate_full(
            &nl,
            &g,
            &[a, u],
            &[],
            &[y, v],
            &SlopeModel::calibrated(),
            1,
            Guards::default(),
            &mut Workspace::new(),
            Some(&hook),
        );
        // The poisoned node and its downstream have no arrival, the
        // independent path is untouched, and the event is on record.
        assert_eq!(r.arrival(x), None);
        assert_eq!(r.arrival(y), None);
        assert!(r.arrival(v).is_some());
        assert!(r.unresolved.contains(&x));
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.code == tv_netlist::codes::ANALYSIS_WORKER_PANIC));
    }

    #[test]
    fn degraded_run_is_bit_identical_across_thread_counts() {
        let (nl, kick, n2) = ring();
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
        let bad = kick.index() as u32;
        let hook = move |n: u32| {
            if n == bad {
                panic!("injected fault");
            }
        };
        let run_at = |jobs: usize| {
            propagate_full(
                &nl,
                &g,
                &[kick],
                &[],
                &[n2],
                &SlopeModel::calibrated(),
                jobs,
                Guards::default(),
                &mut Workspace::new(),
                Some(&hook),
            )
        };
        let serial = run_at(1);
        let parallel = run_at(4);
        assert_eq!(serial.arrivals.rise, parallel.arrivals.rise);
        assert_eq!(serial.arrivals.fall, parallel.arrivals.fall);
        assert_eq!(serial.unresolved, parallel.unresolved);
    }
}
