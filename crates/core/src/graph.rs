//! Timing-graph construction: from transistors to delay arcs.
//!
//! TV's central move was to analyze **stages**, not gates: each driven
//! node (a restored or precharged stage output) plus the pass network
//! hanging downstream of it forms one RC problem, and every gate input of
//! the stage gets an arc to every node of that RC tree with separate
//! rise and fall delays. This module finds the stages (build roots),
//! walks them, and holds the graph they build into: arc and row types,
//! the CSR finish, the level schedule and root splicing. The arcs
//! themselves are emitted in one place, `macromodel::emit_trace`, from
//! the canonical trace the macromodel signs each root with:
//!
//! * **fall** — through the worst-case series pull-down path resistance;
//! * **rise** — through the (parallel) pull-up resistance, with pass
//!   devices derated by the technology's `pass_rise_factor` (a pass
//!   transistor starves near V_DD − V_T);
//! * pass-device **controls** get arcs too (a latch opens when its clock
//!   rises), as do precharge clocks.
//!
//! Arc delays are single-pole crossing estimates (`T_Elmore · ln 2` at the
//! 50% convention), which the technology calibrates to the transient
//! simulator on single stages; [`crate::options::DelayModel`] switches in
//! the lumped and certified-upper-bound models for the A1 ablation.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tv_clocks::qualify::Qualification;
use tv_flow::{DeviceRole, Direction, FlowAnalysis};
use tv_netlist::{codes, DeviceId, Diagnostic, Netlist, NodeId, NodeRole};

use crate::macromodel::{build_root, MacroTable, Share};
use crate::options::DelayModel;

/// What kind of structure an arc models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArcKind {
    /// Stage input (a transistor gate) to the stage's output tree.
    Gate,
    /// A non-inverting pull-up input (super-buffer internal node).
    BufferPull,
    /// Data transfer through pass devices from an external source node.
    PassData,
    /// A pass device's control opening: the downstream sees the source's
    /// value when the control rises.
    PassControl,
    /// A precharge clock raising a dynamic node.
    Precharge,
}

/// One timing arc's topology: 16 bytes (guarded by a unit test). The
/// arc's delay and τ words live in a shared [`ArcDelay`] row of
/// [`TimingGraph::delays`], read through [`TimingGraph::delay_of`].
/// Those words depend only on the RC-tree node the arc drives, so every
/// gate input and pass control of a stage that reaches the same tree
/// node shares one row instead of carrying its own copy, and every
/// instance of a stage class reads its class's rows.
#[derive(Debug, Clone, Copy)]
pub struct Arc {
    /// Upstream node (a gate input, pass control, or data source).
    pub from: NodeId,
    /// Downstream node (a stage output or pass-network node).
    pub to: NodeId,
    /// Index of the arc's delay row in [`TimingGraph::delays`].
    pub delay: u32,
    /// Whether `from` rising causes `to` to fall (gate inversion).
    pub inverting: bool,
    /// Structural kind (controls propagation semantics).
    pub kind: ArcKind,
}

/// The delay words of one or more arcs: 32 bytes (guarded by a unit
/// test). `rise_delay`/`fall_delay` are the delays for the **to** node
/// rising/falling; `f64::INFINITY` disables that transition. The `*_tau`
/// fields carry the underlying RC time constants, from which the
/// propagation derives the output transition times for slope handling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArcDelay {
    /// Delay for `to` rising, ns.
    pub rise_delay: f64,
    /// Delay for `to` falling, ns.
    pub fall_delay: f64,
    /// Elmore time constant of the rising transition, ns.
    pub rise_tau: f64,
    /// Elmore time constant of the falling transition, ns.
    pub fall_tau: f64,
}

impl ArcDelay {
    /// The four words bit for bit — the unit the splice certificate and
    /// the bit-identity tests compare.
    pub fn words(&self) -> [u64; 4] {
        [
            self.rise_delay,
            self.fall_delay,
            self.rise_tau,
            self.fall_tau,
        ]
        .map(f64::to_bits)
    }
}

/// Growable arc list with its delay rows, over NodeIds: what a graph
/// build instances each root's macromodel table into (the tables
/// themselves, over pin ordinals, come only from
/// `macromodel::emit_trace`). Each arc's `delay` indexes `delays`;
/// [`ArcBuf::append`] rebases the indices when per-worker parts are
/// concatenated in root order. A clean build's parts hold arcs only:
/// their rows are the class row block, set once after emission.
#[derive(Default)]
pub(crate) struct ArcBuf {
    pub(crate) arcs: Vec<Arc>,
    pub(crate) delays: Vec<ArcDelay>,
}

impl ArcBuf {
    pub(crate) fn clear(&mut self) {
        self.arcs.clear();
        self.delays.clear();
    }

    /// Appends `part` after everything already here, rebasing its row
    /// indices. An empty buffer takes `part`'s vectors whole.
    pub(crate) fn append(&mut self, part: ArcBuf) {
        if self.arcs.is_empty() && self.delays.is_empty() {
            *self = part;
            return;
        }
        let base = self.delays.len() as u32;
        self.arcs.extend(part.arcs.into_iter().map(|a| Arc {
            delay: a.delay + base,
            ..a
        }));
        self.delays.extend_from_slice(&part.delays);
    }
}

/// The clock case a graph is built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseCase {
    /// `Some(p)`: phase `p` is high, the other low (TV's case analysis).
    /// `None`: every clock treated as active — the naive mode.
    pub active: Option<u8>,
}

impl PhaseCase {
    /// Case analysis for phase `p`.
    pub fn phase(p: u8) -> Self {
        PhaseCase { active: Some(p) }
    }

    /// All clocks active (no case analysis).
    pub fn all_active() -> Self {
        PhaseCase { active: None }
    }
}

/// Topological level schedule of a timing graph, computed once at build
/// time and consumed by the levelized propagation engine.
///
/// Nodes whose every ancestor is acyclic are assigned a **level** (their
/// longest-path depth from the in-degree-0 frontier); `order` lists them
/// level-major, ascending node index within a level, so the schedule is a
/// pure function of the arc set. Nodes on or downstream of a
/// combinational cycle never drain in Kahn's algorithm and land in
/// `residue`; the engine finishes those with the budgeted serial
/// worklist that also provides cycle detection.
#[derive(Debug, Clone, Default)]
pub struct LevelSchedule {
    /// Leveled node indices, level-major; within a level, ascending.
    pub order: Vec<u32>,
    /// Level boundaries: level `l` is `order[level_starts[l] as usize ..
    /// level_starts[l + 1] as usize]`. Always has `levels() + 1` entries.
    pub level_starts: Vec<u32>,
    /// Node indices that could not be leveled (on or downstream of a
    /// cycle), ascending.
    pub residue: Vec<u32>,
}

impl LevelSchedule {
    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.level_starts.len().saturating_sub(1)
    }

    /// The node indices of level `l`.
    pub fn level(&self, l: usize) -> &[u32] {
        &self.order[self.level_starts[l] as usize..self.level_starts[l + 1] as usize]
    }

    /// Kahn's algorithm over `g`: in-degrees are counted, so only the
    /// frontier walk touches arcs.
    fn build(g: &impl ArcGraph) -> Self {
        let node_count = g.node_count();
        let mut indeg: Vec<u32> = (0..node_count).map(|i| g.in_degree(i) as u32).collect();
        let mut order: Vec<u32> = Vec::with_capacity(node_count);
        let mut level_starts = vec![0u32];
        let mut frontier: Vec<u32> = (0..node_count as u32)
            .filter(|&i| indeg[i as usize] == 0)
            .collect();
        while !frontier.is_empty() {
            order.extend_from_slice(&frontier);
            level_starts.push(order.len() as u32);
            let mut next = Vec::new();
            for &nidx in &frontier {
                for ai in g.out_arcs(nidx as usize) {
                    let t = g.arc(ai).to.index();
                    indeg[t] -= 1;
                    if indeg[t] == 0 {
                        next.push(t as u32);
                    }
                }
            }
            next.sort_unstable();
            frontier = next;
        }
        let mut leveled = vec![false; node_count];
        for &i in &order {
            leveled[i as usize] = true;
        }
        let residue = (0..node_count as u32)
            .filter(|&i| !leveled[i as usize])
            .collect();
        LevelSchedule {
            order,
            level_starts,
            residue,
        }
    }
}

/// Read access to one case's arcs: what propagation, critical paths,
/// races and the cone engine read. A [`TimingGraph`] is one; inside the
/// pass pipeline, so is a phase case's view over the all-active graph,
/// which reads every arc its phase does not change in place.
///
/// Every node's in- and out-list is in **case order**: the arc order of
/// a lone build of the case, by build root and then by emission index
/// within the root. Arc ids are only handles (a view's differ from a
/// lone build's), but every walk meets the same arcs in the same order
/// whichever form the case's graph takes.
pub trait ArcGraph: Sync {
    /// The phase case the graph is of.
    fn case(&self) -> PhaseCase;

    /// Number of nodes the graph was built over.
    fn node_count(&self) -> usize;

    /// Number of arcs in the case.
    fn arc_count(&self) -> usize;

    /// The arc with id `id`.
    fn arc(&self, id: u32) -> &Arc;

    /// The delay row of `arc`.
    fn delay_of(&self, arc: &Arc) -> &ArcDelay;

    /// Arc ids entering node index `i`, in case order.
    fn in_arcs(&self, i: usize) -> impl Iterator<Item = u32>;

    /// Number of arcs entering node index `i`.
    fn in_degree(&self, i: usize) -> usize;

    /// Arc ids leaving node index `i`, in case order.
    fn out_arcs(&self, i: usize) -> impl Iterator<Item = u32>;

    /// The level schedule of the case.
    fn schedule(&self) -> &LevelSchedule;

    /// Every arc of the case, in case order.
    fn arcs_in_order(&self) -> impl Iterator<Item = &Arc>;

    /// Extends `marked` to the forward closure of `seeds` over out-arcs:
    /// the fanout cone a change to the seed nodes can influence. Nodes
    /// already marked act as seeds too (their fanout is included); the
    /// arrival pass uses exactly this to turn a splice's changed nodes
    /// into the affected set the cone engine re-relaxes.
    fn fanout_closure(&self, marked: &mut [bool], mut seeds: Vec<usize>) {
        while let Some(i) = seeds.pop() {
            for ai in self.out_arcs(i) {
                let to = self.arc(ai).to.index();
                if !marked[to] {
                    marked[to] = true;
                    seeds.push(to);
                }
            }
        }
    }
}

/// The timing graph for one netlist under one phase case.
///
/// Both adjacency directions are CSR (compressed sparse row): one
/// offsets array plus one flat arc-id array each, so walking a node's
/// fan-in or fan-out touches two cache lines instead of chasing a
/// per-node `Vec`.
#[derive(Debug, Clone)]
pub struct TimingGraph {
    /// All arcs.
    pub arcs: Vec<Arc>,
    /// Delay rows, indexed by [`Arc::delay`]. A clean build holds one
    /// block per stage class — every class table's rows, concatenated
    /// in class-id order — and every instance's arcs index its class's
    /// block, so the row list, like the arc list, is the same at any
    /// thread count. A degraded build (every root built alone) gives
    /// each root a block of its own. A session's splice appends a
    /// private block for a root whose edit changes rows it shares with
    /// its siblings (`splice_roots`).
    pub delays: Vec<ArcDelay>,
    /// CSR offsets into [`TimingGraph::out_arc_ids`]: arcs leaving node
    /// `i` are `out_arc_ids[out_starts[i] as usize..out_starts[i+1] as
    /// usize]`, ascending by arc id.
    pub out_starts: Vec<u32>,
    /// Arc indices grouped by source node (see
    /// [`TimingGraph::out_starts`]).
    pub out_arc_ids: Vec<u32>,
    /// The phase case the graph was built for.
    pub case: PhaseCase,
    /// CSR offsets into [`TimingGraph::in_arc_ids`]: arcs entering node
    /// `i` are `in_arc_ids[in_starts[i] as usize..in_starts[i+1] as
    /// usize]`, ascending by arc id.
    pub in_starts: Vec<u32>,
    /// Arc indices grouped by target node (see
    /// [`TimingGraph::in_starts`]).
    pub in_arc_ids: Vec<u32>,
    /// Level schedule for the parallel propagation engine.
    pub schedule: LevelSchedule,
    /// Diagnostics recorded during construction: stages whose build
    /// panicked are omitted from the arc set and reported here. Empty —
    /// and unallocated — on a clean build.
    pub diagnostics: Vec<Diagnostic>,
}

/// Minimum number of stage roots before graph construction fans out
/// across threads; below this, thread startup dominates.
pub(crate) const PAR_MIN_ROOTS: usize = 64;

impl TimingGraph {
    /// Builds the graph serially. `qualification` comes from
    /// [`tv_clocks::qualify::qualify_with_flow`]; `source_resistance` is
    /// the assumed driver resistance of primary inputs (kΩ).
    pub fn build(
        netlist: &Netlist,
        flow: &FlowAnalysis,
        qualification: &[Qualification],
        case: PhaseCase,
        model: DelayModel,
        source_resistance: f64,
    ) -> Self {
        Self::build_par(
            netlist,
            flow,
            qualification,
            case,
            model,
            source_resistance,
            1,
        )
    }

    /// Builds the graph with up to `jobs` worker threads. Each driving
    /// stage is an independent RC problem, so workers build disjoint root
    /// chunks and the per-chunk arc vectors are concatenated in root
    /// order — the resulting arc and row lists are **identical** to the
    /// serial build at any thread count.
    ///
    /// This routes through `macromodel::build`: stages with equal
    /// canonical traces are analyzed once and instanced by pin remap over
    /// one row block per class, with every root built alone (rows of its
    /// own) as the fallback. The arc list and every arc's row words are
    /// bit-identical either way (DESIGN.md §16).
    pub fn build_par(
        netlist: &Netlist,
        flow: &FlowAnalysis,
        qualification: &[Qualification],
        case: PhaseCase,
        model: DelayModel,
        source_resistance: f64,
        jobs: usize,
    ) -> Self {
        let builder = GraphBuilder {
            netlist,
            flow,
            qualification,
            case,
            model,
        };
        crate::macromodel::build(&builder, source_resistance, jobs, Share::Off, None)
            .0
            .graph
    }

    /// Number of arcs.
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// The delay row of `arc`.
    #[inline]
    pub fn delay_of(&self, arc: &Arc) -> &ArcDelay {
        &self.delays[arc.delay as usize]
    }

    /// Number of nodes the graph was built over.
    pub fn node_count(&self) -> usize {
        self.out_starts.len() - 1
    }

    /// Arc indices entering node index `i`, ascending by arc id.
    pub fn in_arcs_of_index(&self, i: usize) -> &[u32] {
        &self.in_arc_ids[self.in_starts[i] as usize..self.in_starts[i + 1] as usize]
    }

    /// Arc indices leaving node index `i`, ascending by arc id.
    pub fn out_arcs_of_index(&self, i: usize) -> &[u32] {
        &self.out_arc_ids[self.out_starts[i] as usize..self.out_starts[i + 1] as usize]
    }
}

impl ArcGraph for TimingGraph {
    fn case(&self) -> PhaseCase {
        self.case
    }

    fn node_count(&self) -> usize {
        TimingGraph::node_count(self)
    }

    fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    #[inline]
    fn arc(&self, id: u32) -> &Arc {
        &self.arcs[id as usize]
    }

    #[inline]
    fn delay_of(&self, arc: &Arc) -> &ArcDelay {
        TimingGraph::delay_of(self, arc)
    }

    #[inline]
    fn in_arcs(&self, i: usize) -> impl Iterator<Item = u32> {
        self.in_arcs_of_index(i).iter().copied()
    }

    fn in_degree(&self, i: usize) -> usize {
        self.in_arcs_of_index(i).len()
    }

    #[inline]
    fn out_arcs(&self, i: usize) -> impl Iterator<Item = u32> {
        self.out_arcs_of_index(i).iter().copied()
    }

    fn schedule(&self) -> &LevelSchedule {
        &self.schedule
    }

    fn arcs_in_order(&self) -> impl Iterator<Item = &Arc> {
        self.arcs.iter()
    }
}

/// Finishes a graph from its flat arc list and delay rows: both CSR
/// adjacency directions in two counting passes each (degree counts,
/// prefix sums into offsets, then a cursor pass — iterating arcs in id
/// order keeps each node's list ascending by arc id, the same order the
/// old nested-Vec push loop produced), then the level schedule. The one
/// graph builder (`macromodel::build`) calls it exactly once per
/// build, so the CSR layout is defined in exactly one place.
pub(crate) fn finish_graph(
    node_count: usize,
    buf: ArcBuf,
    case: PhaseCase,
    diagnostics: Vec<Diagnostic>,
) -> TimingGraph {
    let ArcBuf { arcs, delays } = buf;
    tv_obs::incr(tv_obs::Counter::GraphBuilds);
    tv_obs::add(tv_obs::Counter::GraphArcs, arcs.len() as u64);
    let csr = tv_obs::span("graph.csr");
    let n = node_count;
    let mut out_starts = vec![0u32; n + 1];
    let mut in_starts = vec![0u32; n + 1];
    for a in &arcs {
        out_starts[a.from.index() + 1] += 1;
        in_starts[a.to.index() + 1] += 1;
    }
    for i in 0..n {
        out_starts[i + 1] += out_starts[i];
        in_starts[i + 1] += in_starts[i];
    }
    let mut out_cursor = out_starts.clone();
    let mut in_cursor = in_starts.clone();
    let mut out_arc_ids = vec![0u32; arcs.len()];
    let mut in_arc_ids = vec![0u32; arcs.len()];
    for (i, a) in arcs.iter().enumerate() {
        let c = &mut out_cursor[a.from.index()];
        out_arc_ids[*c as usize] = i as u32;
        *c += 1;
        let c = &mut in_cursor[a.to.index()];
        in_arc_ids[*c as usize] = i as u32;
        *c += 1;
    }
    drop(csr);
    let mut graph = TimingGraph {
        arcs,
        delays,
        out_starts,
        out_arc_ids,
        case,
        in_starts,
        in_arc_ids,
        schedule: LevelSchedule::default(),
        diagnostics,
    };
    let _s = tv_obs::span("graph.schedule");
    graph.schedule = LevelSchedule::build(&graph);
    graph
}

/// Per-root spans of a graph's arc and delay-row lists.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct RootSpans {
    /// Prefix offsets, `roots.len() + 1` entries: root `k` owns arcs
    /// `arcs[k] as usize .. arcs[k + 1] as usize`.
    pub(crate) arcs: Vec<u32>,
    /// Root `k`'s row span `(start, len)`: every arc of root `k` indexes
    /// a row in `start .. start + len`. Siblings of one class share a
    /// span until a splice gives one of them a block of its own.
    pub(crate) rows: Vec<(u32, u32)>,
    /// Every row block that some root reads and that holds rows: its
    /// first row and how many roots read it, ascending by first row.
    pub(crate) blocks: Vec<(u32, u32)>,
}

impl RootSpans {
    /// Spans over no root.
    pub(crate) fn empty() -> Self {
        RootSpans {
            arcs: vec![0],
            rows: Vec::new(),
            blocks: Vec::new(),
        }
    }
}

/// A graph built with its root list and per-root arc and row spans
/// recorded — the substrate for the pass pipeline's stage-granular
/// splicing and for the phase views over it.
pub(crate) struct SpannedBuild {
    /// The finished graph, arc-identical to [`TimingGraph::build_par`].
    pub(crate) graph: TimingGraph,
    /// Build roots in deterministic (node id) order.
    pub(crate) roots: Vec<(NodeId, RootKind)>,
    /// `None` when a build worker panicked — the degraded per-stage
    /// recovery path omits stages, so spans would lie; callers then fall
    /// back to full rebuilds, which is exactly the conservative behavior
    /// wanted for a netlist that crashes the builder.
    pub(crate) spans: Option<RootSpans>,
}

/// A phase case's graph as a **view** over the all-active graph
/// (DESIGN.md §10, §16). A root whose case mask says the phase cannot
/// change it has the same arcs and rows in the phase as in the
/// all-active case, so the view reads them in place. It owns only:
///
/// * the arcs and rows of the roots its phase **replaces**, emitted
///   under the phase;
/// * the all-active arc span of each replaced root: the arcs absent in
///   the phase;
/// * for every node those arcs enter or leave, a patch of its
///   all-active in- or out-list: the absent arcs to skip and the own
///   arcs to merge in, in case order;
/// * its own level schedule.
///
/// Arc ids below the all-active arc count are all-active arcs; the
/// view's own arcs follow them. The view's own rows are one block per
/// class its replaced roots read, like a clean graph's, and their row
/// ids carry the [`OWN_ROW`] tag, so they stay apart from the
/// all-active row ids however far an all-active splice grows that
/// list. A phase that replaces no root is the empty view: every read is
/// the all-active graph's.
pub(crate) struct PhaseView {
    case: PhaseCase,
    /// Root ordinals the phase replaces, ascending.
    pub(crate) replaced: Vec<u32>,
    /// The all-active arc span of each replaced root.
    absent: Vec<(u32, u32)>,
    /// The replaced roots' phase arcs, root-major in emission order.
    pub(crate) arcs: Vec<Arc>,
    /// Their delay rows; an own arc's row is
    /// `delays[(arc.delay ^ OWN_ROW) as usize]`.
    pub(crate) delays: Vec<ArcDelay>,
    /// Each replaced root's span of `arcs` and of `delays` (untagged).
    pub(crate) spans: RootSpans,
    /// Patches of the in-lists of the nodes the absent and own arcs
    /// enter.
    ins: Patches,
    /// Patches of the out-lists of the nodes they leave.
    outs: Patches,
    schedule: LevelSchedule,
    arc_count: usize,
}

/// One direction's patches, numbered in node order: node `i` has one
/// when bit `i` of `touched` is set, and its number is the count of set
/// bits before it (`rank` holds the count before each word), so the
/// lookup reads two small arrays instead of a node-sized one. Both are
/// empty when no node is touched. Patch `t` skips the absent arc ids
/// `gone[gone_starts[t]..gone_starts[t + 1]]` (ascending) and merges in
/// the own arcs `own[own_starts[t]..own_starts[t + 1]]`: `(key, id)`
/// pairs in case order, where `key` is the all-active span start of
/// the arc's root.
#[derive(Default)]
struct Patches {
    touched: Vec<u64>,
    rank: Vec<u32>,
    gone_starts: Vec<u32>,
    gone: Vec<u32>,
    own_starts: Vec<u32>,
    own: Vec<(u32, u32)>,
}

/// `(node, item)` pairs grouped by `bucket_of(node)` into `buckets`
/// runs, each run in input order: the run offsets and the items.
fn bucket<T: Copy + Default>(
    bucket_of: impl Fn(usize) -> usize,
    buckets: usize,
    items: impl Iterator<Item = (usize, T)> + Clone,
) -> (Vec<u32>, Vec<T>) {
    let mut starts = vec![0u32; buckets + 1];
    for (i, _) in items.clone() {
        starts[bucket_of(i) + 1] += 1;
    }
    for t in 0..buckets {
        starts[t + 1] += starts[t];
    }
    let mut cursor = starts.clone();
    let mut out = vec![T::default(); starts[buckets] as usize];
    for (i, item) in items {
        let c = &mut cursor[bucket_of(i)];
        out[*c as usize] = item;
        *c += 1;
    }
    (starts, out)
}

impl Patches {
    /// The patches, in the direction `end` picks, for the absent spans
    /// `absent` of `base` and the own arcs `own` (ids from the
    /// all-active arc count on), where own arc `j`'s root has absent
    /// span `absent[root_of[j]]`.
    fn build(
        base: &TimingGraph,
        absent: &[(u32, u32)],
        own: &[Arc],
        root_of: &[u32],
        end: impl Fn(&Arc) -> usize,
    ) -> Self {
        let absent_ids = || absent.iter().flat_map(|&(s, e)| s..e);
        let mut touched = vec![0u64; base.node_count().div_ceil(64)];
        for a in absent_ids().map(|a| &base.arcs[a as usize]).chain(own) {
            let i = end(a);
            touched[i / 64] |= 1 << (i % 64);
        }
        let mut rank = Vec::with_capacity(touched.len());
        let mut count = 0;
        for w in &touched {
            rank.push(count);
            count += w.count_ones();
        }
        let mut p = Patches {
            touched,
            rank,
            ..Default::default()
        };
        let number = |i| p.number(i).expect("a touched node");
        let gone = absent_ids().map(|a| (end(&base.arcs[a as usize]), a));
        let (gone_starts, gone) = bucket(number, count as usize, gone);
        let first_own = base.arcs.len() as u32;
        let own = own
            .iter()
            .zip(root_of)
            .enumerate()
            .map(|(j, (a, &k))| (end(a), (absent[k as usize].0, first_own + j as u32)));
        let (own_starts, own) = bucket(number, count as usize, own);
        (p.gone_starts, p.gone, p.own_starts, p.own) = (gone_starts, gone, own_starts, own);
        p
    }

    /// Node `i`'s patch number, if it has a patch.
    #[inline]
    fn number(&self, i: usize) -> Option<usize> {
        let word = *self.touched.get(i / 64)?;
        let bit = 1u64 << (i % 64);
        let below = (word & (bit - 1)).count_ones() as usize;
        (word & bit != 0).then(|| self.rank[i / 64] as usize + below)
    }

    /// Node `i`'s list, `list` in the all-active graph, as the view
    /// reads it.
    #[inline]
    fn read<'a>(&'a self, i: usize, list: &'a [u32]) -> Patched<'a> {
        let (gone, own) = match self.number(i) {
            Some(t) => (
                &self.gone[self.gone_starts[t] as usize..self.gone_starts[t + 1] as usize],
                &self.own[self.own_starts[t] as usize..self.own_starts[t + 1] as usize],
            ),
            None => (&[][..], &[][..]),
        };
        Patched {
            base: list.iter(),
            gone,
            own,
        }
    }
}

/// A node's arc ids in a view, in case order: its all-active list
/// without the absent arcs, with its own arcs merged in. An own arc of
/// replaced root `r` goes before every surviving all-active arc at or
/// after the start of `r`'s absent span (those belong to later roots)
/// and after every one before it.
struct Patched<'a> {
    base: std::slice::Iter<'a, u32>,
    gone: &'a [u32],
    own: &'a [(u32, u32)],
}

impl Patched<'_> {
    /// Number of ids left.
    fn len(&self) -> usize {
        self.base.len() - self.gone.len() + self.own.len()
    }
}

impl Iterator for Patched<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.own.is_empty() && self.gone.is_empty() {
            return self.base.next().copied();
        }
        loop {
            let next = self.base.as_slice().first().copied();
            if let Some((&(key, id), rest)) = self.own.split_first() {
                if next.is_none_or(|a| key <= a) {
                    self.own = rest;
                    return Some(id);
                }
            }
            let a = next?;
            self.base.next();
            match self.gone.split_first() {
                Some((&g, rest)) if g == a => self.gone = rest,
                _ => return Some(a),
            }
        }
    }
}

/// The tag bit of a view's own row ids: an arc whose `delay` has it set
/// reads row `delay ^ OWN_ROW` of the view's own rows, any other arc
/// the all-active row `delay`. A row list never reaches 2³¹ rows.
pub(crate) const OWN_ROW: u32 = 1 << 31;

impl PhaseView {
    /// The view of phase case `case` that replaces the roots `replaced`
    /// (ascending ordinals into `base`'s roots, whose spans are
    /// `base_spans`) with the arcs and rows in `own`, root-major with
    /// rows numbered from 0 (untagged), whose per-root spans are
    /// `spans`.
    pub(crate) fn new(
        case: PhaseCase,
        base: &TimingGraph,
        base_spans: &RootSpans,
        replaced: Vec<u32>,
        mut own: ArcBuf,
        spans: RootSpans,
    ) -> Self {
        let absent: Vec<(u32, u32)> = replaced
            .iter()
            .map(|&r| (base_spans.arcs[r as usize], base_spans.arcs[r as usize + 1]))
            .collect();
        let absent_count: usize = absent.iter().map(|&(s, e)| (e - s) as usize).sum();
        for a in &mut own.arcs {
            a.delay |= OWN_ROW;
        }
        let mut view = PhaseView {
            case,
            arc_count: base.arcs.len() - absent_count + own.arcs.len(),
            replaced,
            absent,
            arcs: own.arcs,
            delays: own.delays,
            spans,
            ins: Patches::default(),
            outs: Patches::default(),
            schedule: LevelSchedule::default(),
        };
        if view.is_empty() {
            view.schedule = base.schedule.clone();
            return view;
        }
        let csr = tv_obs::span("graph.csr");
        let root_of: Vec<u32> = (0..view.absent.len() as u32)
            .flat_map(|k| {
                let n = view.spans.arcs[k as usize + 1] - view.spans.arcs[k as usize];
                std::iter::repeat_n(k, n as usize)
            })
            .collect();
        let patches =
            |end: fn(&Arc) -> usize| Patches::build(base, &view.absent, &view.arcs, &root_of, end);
        let (ins, outs) = (patches(|a| a.to.index()), patches(|a| a.from.index()));
        (view.ins, view.outs) = (ins, outs);
        drop(csr);
        let _s = tv_obs::span("graph.schedule");
        view.schedule = LevelSchedule::build(&view.on(base));
        view
    }

    /// Number of arcs in the case.
    pub(crate) fn arc_count(&self) -> usize {
        self.arc_count
    }

    /// Whether the phase replaces no root: every read is the all-active
    /// graph's.
    pub(crate) fn is_empty(&self) -> bool {
        self.replaced.is_empty()
    }

    /// The view read over `base`, the all-active graph it was built on.
    pub(crate) fn on<'a>(&'a self, base: &'a TimingGraph) -> View<'a> {
        View {
            base,
            view: self,
            arcs: [&base.arcs, &self.arcs],
            delays: [&base.delays, &self.delays],
        }
    }
}

/// A [`PhaseView`] paired with the all-active graph it reads.
#[derive(Clone, Copy)]
pub(crate) struct View<'a> {
    base: &'a TimingGraph,
    view: &'a PhaseView,
    /// The all-active arcs and rows, then the view's own: read per arc,
    /// so held here rather than behind `base` and `view`.
    arcs: [&'a [Arc]; 2],
    delays: [&'a [ArcDelay]; 2],
}

impl ArcGraph for View<'_> {
    fn case(&self) -> PhaseCase {
        self.view.case
    }

    fn node_count(&self) -> usize {
        self.base.node_count()
    }

    fn arc_count(&self) -> usize {
        self.view.arc_count
    }

    #[inline]
    fn arc(&self, id: u32) -> &Arc {
        let [base, own] = self.arcs;
        match base.get(id as usize) {
            Some(a) => a,
            None => &own[id as usize - base.len()],
        }
    }

    #[inline]
    fn delay_of(&self, arc: &Arc) -> &ArcDelay {
        &self.delays[(arc.delay >> 31) as usize][(arc.delay & !OWN_ROW) as usize]
    }

    #[inline]
    fn in_arcs(&self, i: usize) -> impl Iterator<Item = u32> {
        self.view.ins.read(i, self.base.in_arcs_of_index(i))
    }

    fn in_degree(&self, i: usize) -> usize {
        self.view.ins.read(i, self.base.in_arcs_of_index(i)).len()
    }

    #[inline]
    fn out_arcs(&self, i: usize) -> impl Iterator<Item = u32> {
        self.view.outs.read(i, self.base.out_arcs_of_index(i))
    }

    fn schedule(&self) -> &LevelSchedule {
        &self.view.schedule
    }

    /// The all-active arcs between the absent spans, with each replaced
    /// root's own arcs where its absent span was.
    fn arcs_in_order(&self) -> impl Iterator<Item = &Arc> {
        let (base, view) = (self.base, self.view);
        let starts = std::iter::once(0).chain(view.absent.iter().map(|a| a.1));
        let ends = view.absent.iter().map(|a| a.0);
        let ends = ends.chain(std::iter::once(base.arcs.len() as u32));
        starts.zip(ends).enumerate().flat_map(move |(k, (s, e))| {
            let own = match view.spans.arcs.get(k + 1) {
                Some(&end) => view.spans.arcs[k] as usize..end as usize,
                None => 0..0,
            };
            base.arcs[s as usize..e as usize]
                .iter()
                .chain(&view.arcs[own])
        })
    }
}

/// Per-node extent index of a root list: which roots read each node's
/// caps or adjacent geometry (see [`GraphBuilder::extents`]).
pub(crate) struct Extents {
    /// CSR offsets into `roots` by node index.
    pub(crate) starts: Vec<u32>,
    /// Ordinals into the indexed root list, grouped by node.
    pub(crate) roots: Vec<u32>,
}

impl Extents {
    /// Every root whose extent holds one of `dirty`, sorted and
    /// deduplicated.
    pub(crate) fn hit(&self, dirty: &[NodeId]) -> Vec<u32> {
        let mut hit: Vec<u32> = Vec::new();
        for n in dirty {
            let i = n.index();
            hit.extend_from_slice(
                &self.roots[self.starts[i] as usize..self.starts[i + 1] as usize],
            );
        }
        hit.sort_unstable();
        hit.dedup();
        hit
    }
}

/// Splices freshly rebuilt delay rows for `affected` root ordinals into
/// an arc list, leaving every arc's topology and every other root's
/// rows untouched. `arcs` and `rows` hold the roots `roots` in the
/// spans `spans`; an arc's row id is `tag + ` its index into `rows`
/// (`tag` is 0 for a graph, [`OWN_ROW`] for a phase view's own rows).
///
/// Rows are copied on write. A root whose fresh rows equal its old ones
/// writes nothing. A root whose block other roots also read (its class
/// block, shared with its siblings) gets the fresh rows appended as a
/// private block: its arcs are re-pointed there and its span and the
/// block reader counts follow. A root that is its block's only reader
/// rewrites it in place. So a root gets at most one private block, every
/// block keeps at least one reader, and the row list never outgrows one
/// block per root.
///
/// Valid only after **parametric** edits (geometry or capacitance):
/// those cannot change which arcs a stage produces, only their delay
/// values, so each root's fresh build must match its recorded spans in
/// arc count and row count, and arc by arc in endpoints, kind, inversion
/// and row index relative to the root's first row — all of which this
/// function verifies before writing the root's rows. On any mismatch
/// (or a panic inside a stage build) it returns `Err` and the caller
/// must discard the arcs and rebuild from scratch: earlier affected
/// roots may already have been rewritten, so an `Err` is *not* restored
/// to its prior state.
///
/// On success returns the **changed targets** by root: a `(root
/// ordinal, node index)` pair for every arc whose delay row words differ
/// bitwise from before the splice. The arc-to-row map is verified
/// unchanged and no row another root reads is written, so the nodes
/// named are exactly those whose local evaluation can differ — the
/// arrival pass seeds its cone with them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn splice_roots(
    arcs: &mut [Arc],
    rows: &mut Vec<ArcDelay>,
    tag: u32,
    builder: &GraphBuilder<'_>,
    source_resistance: f64,
    roots: &[(NodeId, RootKind)],
    spans: &mut RootSpans,
    affected: &[u32],
    scratch: &mut BuildScratch,
) -> Result<Vec<(u32, u32)>, ()> {
    let mut changed: Vec<(u32, u32)> = Vec::new();
    let mut fresh = ArcBuf::default();
    let mut row_changed: Vec<bool> = Vec::new();
    for &k in affected {
        let r = k as usize;
        let span = spans.arcs[r] as usize..spans.arcs[r + 1] as usize;
        let (start, len) = spans.rows[r];
        fresh.clear();
        catch_unwind(AssertUnwindSafe(|| {
            graph_build_fault_point();
            build_root(builder, &roots[r], source_resistance, &mut fresh, scratch)
        }))
        .map_err(|_| ())?;
        if fresh.arcs.len() != span.len() || fresh.delays.len() != len as usize {
            return Err(());
        }
        let first = tag + start;
        for (o, f) in arcs[span.clone()].iter().zip(&fresh.arcs) {
            if o.from != f.from
                || o.to != f.to
                || o.kind != f.kind
                || o.inverting != f.inverting
                || o.delay.wrapping_sub(first) != f.delay
            {
                return Err(());
            }
        }
        let own = start as usize..(start + len) as usize;
        row_changed.clear();
        row_changed.extend(
            rows[own.clone()]
                .iter()
                .zip(&fresh.delays)
                .map(|(o, f)| o.words() != f.words()),
        );
        if !row_changed.contains(&true) {
            continue;
        }
        changed.extend(
            fresh
                .arcs
                .iter()
                .filter(|f| row_changed[f.delay as usize])
                .map(|f| (k, f.to.index() as u32)),
        );
        let block = spans
            .blocks
            .binary_search_by_key(&start, |b| b.0)
            .map_err(|_| ())?;
        if spans.blocks[block].1 == 1 {
            rows[own].copy_from_slice(&fresh.delays);
            continue;
        }
        let moved = rows.len() as u32;
        debug_assert!(moved + len <= OWN_ROW, "row ids stay below the tag bit");
        rows.extend_from_slice(&fresh.delays);
        for (o, f) in arcs[span].iter_mut().zip(&fresh.arcs) {
            o.delay = tag + moved + f.delay;
        }
        spans.blocks[block].1 -= 1;
        spans.blocks.push((moved, 1));
        spans.rows[r].0 = moved;
    }
    Ok(changed)
}

/// The node indices of `changed` pairs, sorted and deduplicated.
pub(crate) fn changed_targets(changed: impl Iterator<Item = (u32, u32)>) -> Vec<u32> {
    let mut targets: Vec<u32> = changed.map(|(_, t)| t).collect();
    targets.sort_unstable();
    targets.dedup();
    targets
}

impl<'a> GraphBuilder<'a> {
    /// The **extent** of each root: every node whose capacitance — or
    /// whose adjacent device geometry — the root's arc delays read. That
    /// is the stage's downstream walk (RC tree caps and pass-device
    /// resistances live on walk nodes and their connecting devices) plus,
    /// for stages, the pull-down network interior (series path
    /// resistances) — the same frontier [`stage_inputs_into`] traverses.
    /// Soundness relies on edits dirtying *all* terminals of a resized
    /// device: a device read by a root always has a channel terminal in
    /// this set.
    ///
    /// Returned as an inverted CSR index over node indices, with
    /// ordinals into `roots`.
    pub(crate) fn extents(
        &self,
        roots: &[(NodeId, RootKind)],
        scratch: &mut BuildScratch,
    ) -> Extents {
        let nl = self.netlist;
        let mut pairs: Vec<(u32, u32)> = Vec::new(); // (node index, root ordinal)
        let mut ext: Vec<NodeId> = Vec::new();
        let mut pd_frontier: Vec<NodeId> = Vec::new();
        for (ordinal, root) in roots.iter().enumerate() {
            ext.clear();
            self.walk_downstream(root.0, scratch);
            ext.extend(scratch.walk.iter().map(|w| w.node));
            if root.1 == RootKind::Stage {
                // Pull-down interior, same traversal as stage_inputs_into.
                let epoch = scratch.next_epoch();
                pd_frontier.clear();
                pd_frontier.push(root.0);
                scratch.mark[root.0.index()] = epoch;
                while let Some(node) = pd_frontier.pop() {
                    for &did in nl.node_devices(node).channel {
                        if self.flow.device_role(did) != DeviceRole::PullDown {
                            continue;
                        }
                        let other = nl.device(did).other_channel_end(node);
                        if other != nl.gnd()
                            && other != nl.vdd()
                            && scratch.mark[other.index()] != epoch
                        {
                            scratch.mark[other.index()] = epoch;
                            ext.push(other);
                            pd_frontier.push(other);
                        }
                    }
                }
            }
            ext.sort_unstable();
            ext.dedup();
            pairs.extend(ext.iter().map(|n| (n.index() as u32, ordinal as u32)));
        }
        let n = nl.node_count();
        let mut starts = vec![0u32; n + 1];
        for &(node, _) in &pairs {
            starts[node as usize + 1] += 1;
        }
        for i in 0..n {
            starts[i + 1] += starts[i];
        }
        let mut cursor = starts.clone();
        let mut ordinals = vec![0u32; pairs.len()];
        for &(node, ordinal) in &pairs {
            let c = &mut cursor[node as usize];
            ordinals[*c as usize] = ordinal;
            *c += 1;
        }
        Extents {
            starts,
            roots: ordinals,
        }
    }
}

/// Fault plane: a forced build-worker panic, caught by the same
/// per-chunk/per-stage isolation that contains a genuine one (every
/// per-root build loop sits under `catch_unwind`).
pub(crate) fn graph_build_fault_point() {
    if tv_fault::fault_point!(tv_fault::Site::GraphBuild) {
        tv_obs::incr(tv_obs::Counter::FaultInjected);
        panic!("{}", tv_fault::panic_message(tv_fault::Site::GraphBuild));
    }
}

/// The shared "a build worker panicked" note (also the telemetry point
/// recording that a build degraded to per-stage isolation).
pub(crate) fn degraded_build_note() -> Diagnostic {
    tv_obs::incr(tv_obs::Counter::FaultDegraded);
    Diagnostic::warning(
        codes::ANALYSIS_WORKER_PANIC,
        "a graph-build worker panicked; affected roots rebuilt with per-stage isolation"
            .to_string(),
    )
}

/// What a graph-build root is: a driving stage output or a primary input
/// feeding pass devices directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RootKind {
    /// A restored/precharged stage output with its downstream RC tree.
    Stage,
    /// A primary input feeding pass devices with no on-chip driver.
    Source,
}

/// What one case's graph build reads: the netlist and its analyses, the
/// case, and the delay model. Its methods find the roots and walk the
/// stages; none emits an arc (`macromodel::emit_trace` does, from the
/// canonical trace). `pub(crate)` so the pass pipeline can splice and
/// index roots; external callers go through [`TimingGraph::build_par`].
pub(crate) struct GraphBuilder<'a> {
    pub(crate) netlist: &'a Netlist,
    pub(crate) flow: &'a FlowAnalysis,
    pub(crate) qualification: &'a [Qualification],
    pub(crate) case: PhaseCase,
    pub(crate) model: DelayModel,
}

/// One node of the case-aware downstream walk.
#[derive(Clone, Copy)]
pub(crate) struct WalkNode {
    pub(crate) node: NodeId,
    pub(crate) parent: Option<usize>,
    /// Pass device from the parent (None for the root).
    pub(crate) via: Option<DeviceId>,
}

/// Reusable per-worker node-sized buffers for reading stages off the
/// netlist. One instance serves every root a worker signs, so the
/// steady-state build does no per-root allocation of node-sized arrays:
/// visited sets and the pin-ordinal map are epoch-stamped.
#[derive(Default)]
pub(crate) struct BuildScratch {
    /// Epoch-stamped visited marks, one per node; `mark[i] == epoch`
    /// means node `i` was seen in the current traversal.
    mark: Vec<u32>,
    epoch: u32,
    /// Epoch-stamped NodeId → pin-ordinal map of the root being signed:
    /// `pin_ord[i]` is node `i`'s ordinal when `pin_mark[i] ==
    /// pin_epoch`. Its own epoch, since the walk and the input scan
    /// restart `mark` between ordinal assignments.
    pin_mark: Vec<u32>,
    pin_ord: Vec<u32>,
    pin_epoch: u32,
    /// DFS path membership for the pull-down resistance scan. Always
    /// all-false between calls (the DFS clears flags as it backtracks).
    pub(crate) on_path: Vec<bool>,
    /// Walk nodes of the stage currently being read.
    pub(crate) walk: Vec<WalkNode>,
    /// Gate inputs of the stage currently being read.
    pub(crate) inputs: Vec<StageInput>,
    /// Work stack for the pull-down input scan.
    frontier: Vec<NodeId>,
    /// Trace, pin and table buffers of a root built alone
    /// (`macromodel::build_root`).
    pub(crate) canon: Vec<u64>,
    pub(crate) pins: Vec<NodeId>,
    pub(crate) table: MacroTable,
}

impl BuildScratch {
    /// A scratch for `node_count` nodes. The arrays come zeroed from the
    /// allocator rather than written by [`BuildScratch::fit`], so one a
    /// caller never touches (the pin map, in the electrical checks)
    /// costs no page writes.
    pub(crate) fn new(node_count: usize) -> Self {
        BuildScratch {
            mark: vec![0; node_count],
            pin_mark: vec![0; node_count],
            pin_ord: vec![0; node_count],
            on_path: vec![false; node_count],
            ..Default::default()
        }
    }

    /// Grows the node-indexed arrays to cover `node_count` nodes, so one
    /// scratch can serve a design across structural edits. New marks
    /// start at 0, which no live epoch equals.
    pub(crate) fn fit(&mut self, node_count: usize) {
        if self.mark.len() < node_count {
            self.mark.resize(node_count, 0);
            self.pin_mark.resize(node_count, 0);
            self.pin_ord.resize(node_count, 0);
            self.on_path.resize(node_count, false);
        }
    }

    /// Starts a fresh pin-ordinal map for the next root.
    pub(crate) fn begin_pins(&mut self) {
        if self.pin_epoch == u32::MAX {
            self.pin_mark.fill(0);
            self.pin_epoch = 0;
        }
        self.pin_epoch += 1;
    }

    /// The pin ordinal of `n`, assigning the next one on first encounter
    /// (and recording the node in `pins`).
    pub(crate) fn pin_ordinal(&mut self, pins: &mut Vec<NodeId>, n: NodeId) -> u64 {
        let i = n.index();
        if self.pin_mark[i] != self.pin_epoch {
            self.pin_mark[i] = self.pin_epoch;
            self.pin_ord[i] = pins.len() as u32;
            pins.push(n);
        }
        self.pin_ord[i] as u64
    }

    /// Starts a fresh visited set in O(1). On the (practically
    /// unreachable) epoch wrap the marks are hard-cleared instead.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

impl<'a> GraphBuilder<'a> {
    /// The build roots in deterministic (node id) order.
    pub(crate) fn roots(&self) -> Vec<(NodeId, RootKind)> {
        let nl = self.netlist;
        let mut roots = Vec::new();
        for id in nl.node_ids() {
            if self.is_driver_node(id) {
                roots.push((id, RootKind::Stage));
            } else if matches!(nl.node(id).role(), NodeRole::Input)
                && has_pass_fanout(nl, self.flow, id)
            {
                roots.push((id, RootKind::Source));
            }
        }
        roots
    }

    /// A driver node has at least one pull-up-ish or precharge device on
    /// its channel.
    fn is_driver_node(&self, id: NodeId) -> bool {
        self.netlist.node_devices(id).channel.iter().any(|&d| {
            matches!(
                self.flow.device_role(d),
                DeviceRole::PullUp
                    | DeviceRole::ActivePullUp
                    | DeviceRole::EnhPullUp
                    | DeviceRole::Precharge
            ) && self.netlist.device(d).other_channel_end(id) == self.netlist.vdd()
        })
    }

    /// Whether a pass device conducts in the current case.
    fn pass_is_on(&self, dev: DeviceId) -> bool {
        let Some(active) = self.case.active else {
            return true;
        };
        let gate = self.netlist.device(dev).gate();
        match self.qualification[gate.index()] {
            Qualification::Phase(p) => p == active,
            // Unclocked or conflicting controls could be on: conservative.
            _ => true,
        }
    }

    /// Case-aware walk of the pass network downstream of `root`.
    ///
    /// The walk never enters externally driven nodes (inputs, clocks —
    /// they are sources, not loads) and never expands *through* a node
    /// that is itself **restored**: such a node re-drives its own
    /// downstream and owns its own stage walk, which keeps trees small
    /// and prevents bidirectional bus couplers from dragging neighboring
    /// stages into one RC problem. *Precharged* nodes are passive during
    /// evaluation, so the walk does continue through them — this is what
    /// lets a Manchester carry chain appear as the long series RC path it
    /// electrically is.
    pub(crate) fn walk_downstream(&self, root: NodeId, scratch: &mut BuildScratch) {
        let nl = self.netlist;
        let epoch = scratch.next_epoch();
        scratch.walk.clear();
        scratch.walk.push(WalkNode {
            node: root,
            parent: None,
            via: None,
        });
        scratch.mark[root.index()] = epoch;
        let mut i = 0;
        while i < scratch.walk.len() {
            let here = scratch.walk[i].node;
            // Only the root expands past a driven node; reached driven
            // nodes terminate their branch.
            if i > 0 && self.flow.node_class(here) == tv_flow::NodeClass::Restored {
                i += 1;
                continue;
            }
            for &did in nl.node_devices(here).channel {
                if self.flow.device_role(did) != DeviceRole::Pass || !self.pass_is_on(did) {
                    continue;
                }
                let dev = nl.device(did);
                let other = dev.other_channel_end(here);
                if nl.node(other).role().is_external_source() {
                    continue; // never walk into a source
                }
                let downstream = match self.flow.direction(did) {
                    Direction::Toward(dst) => dst == other,
                    Direction::Bidirectional | Direction::Unresolved => true,
                };
                if !downstream || scratch.mark[other.index()] == epoch {
                    continue;
                }
                scratch.mark[other.index()] = epoch;
                scratch.walk.push(WalkNode {
                    node: other,
                    parent: Some(i),
                    via: Some(did),
                });
            }
            i += 1;
        }
    }
}

fn has_pass_fanout(netlist: &Netlist, flow: &FlowAnalysis, node: NodeId) -> bool {
    netlist
        .node_devices(node)
        .channel
        .iter()
        .any(|&d| flow.device_role(d) == DeviceRole::Pass)
}

/// Effective pull-up resistance at a node: the parallel combination of
/// every static pull-up device (loads, super-buffer pull-ups, enhancement
/// followers) on its channel. `None` if the node has no static pull-up.
pub fn pull_up_resistance(netlist: &Netlist, flow: &FlowAnalysis, node: NodeId) -> Option<f64> {
    let mut conductance = 0.0;
    for &did in netlist.node_devices(node).channel {
        if matches!(
            flow.device_role(did),
            DeviceRole::PullUp | DeviceRole::ActivePullUp | DeviceRole::EnhPullUp
        ) {
            conductance += 1.0 / netlist.device(did).resistance(netlist.tech());
        }
    }
    (conductance > 0.0).then(|| 1.0 / conductance)
}

/// Worst-case (maximum) series resistance of any pull-down path from
/// `node` to GND. `None` if no pull-down path exists. `on_path` is a
/// caller-owned path-flag array, one per node (must be all-false on
/// entry; the DFS leaves it all-false again), so a loop over stages
/// reuses one allocation instead of paying O(nodes) per stage.
pub(crate) fn pull_down_resistance_with(
    netlist: &Netlist,
    flow: &FlowAnalysis,
    node: NodeId,
    on_path: &mut [bool],
) -> Option<f64> {
    let mut best: Option<f64> = None;
    dfs_pd(netlist, flow, node, 0.0, on_path, &mut best);
    best
}

fn dfs_pd(
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
            dfs_pd(netlist, flow, other, r, on_path, best);
        }
    }
    on_path[node.index()] = false;
}

/// How a stage input connects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StageInputKind {
    /// Gates a pull-down device: input rise → output fall.
    PullDownGate,
    /// Gates an active pull-up: input rise → output rise.
    PullUpGate,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct StageInput {
    pub(crate) node: NodeId,
    pub(crate) kind: StageInputKind,
}

/// The gate inputs of the stage driving `out`: gates of the pull-down
/// network reachable below it, plus gates of actively pulled-up devices.
/// Fills `scratch.inputs`; the visited set rides the scratch epoch marks.
pub(crate) fn stage_inputs_into(
    netlist: &Netlist,
    flow: &FlowAnalysis,
    out: NodeId,
    scratch: &mut BuildScratch,
) {
    let epoch = scratch.next_epoch();
    let BuildScratch {
        mark,
        inputs,
        frontier,
        ..
    } = scratch;
    inputs.clear();
    let push = |node: NodeId, kind: StageInputKind, inputs: &mut Vec<StageInput>| {
        if !netlist.node(node).role().is_rail()
            && !inputs.iter().any(|i| i.node == node && i.kind == kind)
        {
            inputs.push(StageInput { node, kind });
        }
    };

    // Active pull-ups on the output.
    for &did in netlist.node_devices(out).channel {
        match flow.device_role(did) {
            DeviceRole::ActivePullUp | DeviceRole::EnhPullUp => {
                let g = netlist.device(did).gate();
                if g != out {
                    push(g, StageInputKind::PullUpGate, inputs);
                }
            }
            _ => {}
        }
    }

    // Pull-down network below the output.
    frontier.clear();
    frontier.push(out);
    mark[out.index()] = epoch;
    while let Some(node) = frontier.pop() {
        for &did in netlist.node_devices(node).channel {
            if flow.device_role(did) != DeviceRole::PullDown {
                continue;
            }
            let dev = netlist.device(did);
            push(dev.gate(), StageInputKind::PullDownGate, inputs);
            let other = dev.other_channel_end(node);
            if other != netlist.gnd() && other != netlist.vdd() && mark[other.index()] != epoch {
                mark[other.index()] = epoch;
                frontier.push(other);
            }
        }
    }
}

/// Asserts that `g` reads exactly as `lone`, a lone build of the same
/// case: the same arc count, every node's in- and out-list with the same
/// `(from, to, kind, inverting, row words)` sequence, the same arc
/// sequence in case order, and the same schedule.
#[cfg(test)]
pub(crate) fn assert_reads_as(g: &impl ArcGraph, lone: &TimingGraph, what: &str) {
    type Read = (NodeId, NodeId, ArcKind, bool, [u64; 4]);
    fn read(g: &impl ArcGraph, ids: impl Iterator<Item = u32>) -> Vec<Read> {
        ids.map(|ai| {
            let a = g.arc(ai);
            (a.from, a.to, a.kind, a.inverting, g.delay_of(a).words())
        })
        .collect()
    }
    assert_eq!(g.arc_count(), lone.arc_count(), "{what}: arc count");
    assert_eq!(g.node_count(), lone.node_count(), "{what}: node count");
    for i in 0..lone.node_count() {
        assert_eq!(g.in_degree(i), lone.in_arcs_of_index(i).len(), "{what}");
        assert_eq!(
            read(g, g.in_arcs(i)),
            read(lone, ArcGraph::in_arcs(lone, i)),
            "{what}: in-arcs of node {i}"
        );
        assert_eq!(
            read(g, g.out_arcs(i)),
            read(lone, ArcGraph::out_arcs(lone, i)),
            "{what}: out-arcs of node {i}"
        );
    }
    let seq = |a: &Arc, w: &ArcDelay| (a.from, a.to, a.kind, a.inverting, w.words());
    assert!(
        g.arcs_in_order()
            .map(|a| seq(a, g.delay_of(a)))
            .eq(lone.arcs.iter().map(|a| seq(a, lone.delay_of(a)))),
        "{what}: arcs in case order"
    );
    let (s, t) = (g.schedule(), &lone.schedule);
    assert_eq!(s.order, t.order, "{what}: schedule order");
    assert_eq!(s.level_starts, t.level_starts, "{what}: level starts");
    assert_eq!(s.residue, t.residue, "{what}: residue");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::macromodel::build;
    use tv_clocks::qualify::qualify_with_flow;
    use tv_flow::{analyze, RuleSet};
    use tv_netlist::{NetlistBuilder, Tech};

    fn graph_for(nl: &Netlist, case: PhaseCase) -> (TimingGraph, FlowAnalysis) {
        let flow = analyze(nl, &RuleSet::all());
        let q = qualify_with_flow(nl, &flow);
        let g = TimingGraph::build(nl, &flow, &q, case, DelayModel::Elmore, 1.0);
        (g, flow)
    }

    #[test]
    fn inverter_yields_one_arc_with_asymmetric_delays() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let out = b.output("out");
        b.inverter("i", a, out);
        let nl = b.finish().unwrap();
        let (g, _) = graph_for(&nl, PhaseCase::all_active());
        assert_eq!(g.arc_count(), 1);
        let arc = &g.arcs[0];
        assert_eq!(arc.from, a);
        assert_eq!(arc.to, out);
        assert!(arc.inverting);
        let d = g.delay_of(arc);
        assert!(
            d.rise_delay > 3.0 * d.fall_delay,
            "ratioed rise {} vs fall {}",
            d.rise_delay,
            d.fall_delay
        );
    }

    #[test]
    fn nand_has_arc_per_input() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let i0 = b.input("i0");
        let i1 = b.input("i1");
        let i2 = b.input("i2");
        let out = b.node("out");
        b.nand("g", &[i0, i1, i2], out);
        let nl = b.finish().unwrap();
        let (g, _) = graph_for(&nl, PhaseCase::all_active());
        // Arcs to the output from each input; the walk root is just `out`
        // (interior chain nodes are not driver roots).
        let to_out: Vec<_> = g.arcs.iter().filter(|a| a.to == out).collect();
        assert_eq!(to_out.len(), 3);
        for a in to_out {
            assert!(a.inverting);
            assert!(g.delay_of(a).fall_delay.is_finite());
        }
    }

    #[test]
    fn fanout_closure_marks_exactly_the_downstream_cone() {
        // a -> s0 -> s1 -> s2, plus an independent c -> t0.
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let c = b.input("c");
        let s0 = b.node("s0");
        let s1 = b.node("s1");
        let s2 = b.node("s2");
        let t0 = b.node("t0");
        b.inverter("i0", a, s0);
        b.inverter("i1", s0, s1);
        b.inverter("i2", s1, s2);
        b.inverter("j0", c, t0);
        let nl = b.finish().unwrap();
        let (g, _) = graph_for(&nl, PhaseCase::all_active());

        let mut marked = vec![false; g.node_count()];
        marked[s0.index()] = true;
        g.fanout_closure(&mut marked, vec![s0.index()]);
        for i in nl.node_ids() {
            let expect = i == s0 || i == s1 || i == s2;
            assert_eq!(
                marked[i.index()],
                expect,
                "fanout of s0 mismarked {:?}",
                nl.node_name(i)
            );
        }
    }

    #[test]
    fn pass_chain_arcs_grow_with_depth() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let en = b.input("en");
        let s0 = b.node("s0");
        b.inverter("drv", a, s0);
        let s1 = b.node("s1");
        let s2 = b.node("s2");
        b.pass("p0", en, s0, s1);
        b.pass("p1", en, s1, s2);
        let out = b.node("out");
        b.inverter("rcv", s2, out);
        let nl = b.finish().unwrap();
        let (g, _) = graph_for(&nl, PhaseCase::all_active());
        let d = |to: NodeId| {
            g.arcs
                .iter()
                .find(|x| x.from == a && x.to == to)
                .map(|x| g.delay_of(x).fall_delay)
                .expect("arc exists")
        };
        assert!(d(s1) > d(s0));
        assert!(d(s2) > d(s1));
        // Control arcs from `en` exist for downstream nodes.
        assert!(g
            .arcs
            .iter()
            .any(|x| x.from == en && x.to == s2 && x.kind == ArcKind::PassControl));
    }

    #[test]
    fn super_buffer_internal_gets_noninverting_pullup_arc() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let out = b.output("out");
        let internal = b.super_buffer("sb", a, out, 4.0);
        let nl = b.finish().unwrap();
        let (g, _) = graph_for(&nl, PhaseCase::all_active());
        let pull = g
            .arcs
            .iter()
            .find(|x| x.from == internal && x.to == out && x.kind == ArcKind::BufferPull)
            .expect("buffer pull arc");
        assert!(!pull.inverting);
        assert!(g.delay_of(pull).rise_delay.is_finite());
        assert!(g.delay_of(pull).fall_delay.is_infinite());
    }

    #[test]
    fn case_analysis_disables_inactive_phase_pass() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let phi1 = b.clock("phi1", 0);
        let d = b.input("d");
        let qb = b.node("qb");
        let store = b.dynamic_latch("l", phi1, d, qb);
        let nl = b.finish().unwrap();

        // Phase 0 active: data flows into the latch.
        let (g0, _) = graph_for(&nl, PhaseCase::phase(0));
        assert!(g0.arcs.iter().any(|a| a.to == store));

        // Phase 1 active: the φ1 pass is off, no arc reaches the storage.
        let (g1, _) = graph_for(&nl, PhaseCase::phase(1));
        assert!(!g1.arcs.iter().any(|a| a.to == store));
    }

    #[test]
    fn precharge_arc_present_only_in_its_phase() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let phi2 = b.clock("phi2", 1);
        let en = b.input("en");
        let bus = b.node("bus");
        b.precharge("pre", phi2, bus);
        let gnd = b.gnd();
        b.enhancement("dis", en, gnd, bus, 8.0, 4.0);
        let nl = b.finish().unwrap();
        let (g1, _) = graph_for(&nl, PhaseCase::phase(1));
        assert!(g1
            .arcs
            .iter()
            .any(|a| a.kind == ArcKind::Precharge && a.to == bus));
        let (g0, _) = graph_for(&nl, PhaseCase::phase(0));
        assert!(!g0.arcs.iter().any(|a| a.kind == ArcKind::Precharge));
        // The discharge arc from `en` exists in both cases.
        assert!(g0.arcs.iter().any(|a| a.from == en && a.to == bus));
    }

    #[test]
    fn pull_down_resistance_takes_worst_path() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let i0 = b.input("i0");
        let i1 = b.input("i1");
        let out = b.node("out");
        // NOR: two parallel pull-downs — worst single path is one device.
        b.nor("g", &[i0, i1], out);
        let nl = b.finish().unwrap();
        let flow = analyze(&nl, &RuleSet::all());
        let mut on_path = vec![false; nl.node_count()];
        let r_nor = pull_down_resistance_with(&nl, &flow, out, &mut on_path).unwrap();
        assert!(on_path.iter().all(|&f| !f), "path flags left set");

        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let i0 = b.input("i0");
        let i1 = b.input("i1");
        let out = b.node("out");
        b.nand("g", &[i0, i1], out);
        let nl2 = b.finish().unwrap();
        let flow2 = analyze(&nl2, &RuleSet::all());
        let mut on_path = vec![false; nl2.node_count()];
        let r_nand = pull_down_resistance_with(&nl2, &flow2, out, &mut on_path).unwrap();
        assert!(on_path.iter().all(|&f| !f), "path flags left set");
        // NAND series devices are sized wider to match the inverter, so
        // its total equals the NOR's single leg.
        assert!((r_nand - r_nor).abs() < 1e-9);
    }

    #[test]
    fn input_fed_latch_gets_pass_data_arc() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let phi1 = b.clock("phi1", 0);
        let d = b.input("d");
        let qb = b.node("qb");
        let store = b.dynamic_latch("l", phi1, d, qb);
        let nl = b.finish().unwrap();
        let (g, _) = graph_for(&nl, PhaseCase::phase(0));
        let data = g
            .arcs
            .iter()
            .find(|a| a.from == d && a.to == store && a.kind == ArcKind::PassData)
            .expect("data arc");
        assert!(!data.inverting);
        // Clock control arc too.
        assert!(g
            .arcs
            .iter()
            .any(|a| a.to == store && a.kind == ArcKind::PassControl));
    }

    #[test]
    fn lumped_model_gives_same_delay_everywhere_in_tree() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let en = b.input("en");
        let s0 = b.node("s0");
        b.inverter("drv", a, s0);
        let s1 = b.node("s1");
        b.pass("p0", en, s0, s1);
        let out = b.node("out");
        b.inverter("rcv", s1, out);
        let nl = b.finish().unwrap();
        let flow = analyze(&nl, &RuleSet::all());
        let q = qualify_with_flow(&nl, &flow);
        let g = TimingGraph::build(
            &nl,
            &flow,
            &q,
            PhaseCase::all_active(),
            DelayModel::Lumped,
            1.0,
        );
        let fall_to = |to: NodeId| {
            let arc = g.arcs.iter().find(|x| x.from == a && x.to == to).unwrap();
            g.delay_of(arc).fall_delay
        };
        let (d0, d1) = (fall_to(s0), fall_to(s1));
        assert!((d0 - d1).abs() < 1e-12, "lumped ignores tree position");
    }

    #[test]
    fn schedule_levels_follow_chain_topology() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let x = b.node("x");
        let y = b.node("y");
        let z = b.output("z");
        b.inverter("i1", a, x);
        b.inverter("i2", x, y);
        b.inverter("i3", y, z);
        let nl = b.finish().unwrap();
        let (g, _) = graph_for(&nl, PhaseCase::all_active());
        let s = &g.schedule;
        assert!(s.residue.is_empty(), "chain is acyclic");
        assert_eq!(
            s.order.len(),
            nl.node_count(),
            "every node gets a level in an acyclic graph"
        );
        let level_of = |n: NodeId| {
            (0..s.levels())
                .find(|&l| s.level(l).contains(&(n.index() as u32)))
                .expect("leveled")
        };
        assert!(level_of(a) < level_of(x));
        assert!(level_of(x) < level_of(y));
        assert!(level_of(y) < level_of(z));
    }

    #[test]
    fn ring_lands_in_schedule_residue() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let kick = b.input("kick");
        let n0 = b.node("n0");
        let n1 = b.node("n1");
        let n2 = b.node("n2");
        b.nand("g0", &[kick, n2], n0);
        b.inverter("g1", n0, n1);
        b.inverter("g2", n1, n2);
        let nl = b.finish().unwrap();
        let (g, _) = graph_for(&nl, PhaseCase::all_active());
        for n in [n0, n1, n2] {
            assert!(
                g.schedule.residue.contains(&(n.index() as u32)),
                "ring node {n:?} must be residue"
            );
        }
        assert!(!g.schedule.residue.contains(&(kick.index() as u32)));
    }

    #[test]
    fn in_arc_csr_matches_arcs() {
        let dp =
            tv_gen::datapath::datapath(Tech::nmos4um(), tv_gen::datapath::DatapathConfig::small());
        let nl = &dp.netlist;
        let (g, _) = graph_for(nl, PhaseCase::phase(0));
        let mut count = 0usize;
        for i in 0..g.node_count() {
            let mut prev = None;
            for &ai in g.in_arcs_of_index(i) {
                assert_eq!(g.arcs[ai as usize].to.index(), i);
                assert!(prev.is_none_or(|p| p < ai), "ascending arc ids");
                prev = Some(ai);
                count += 1;
            }
        }
        assert_eq!(count, g.arc_count());
    }

    #[test]
    fn parallel_build_bit_identical_to_serial() {
        let circuit = tv_gen::random::random_logic(
            Tech::nmos4um(),
            600,
            0xDECAF,
            tv_gen::random::RandomMix::default(),
        );
        let nl = &circuit.netlist;
        let flow = analyze(nl, &RuleSet::all());
        let q = qualify_with_flow(nl, &flow);
        for case in [PhaseCase::all_active(), PhaseCase::phase(0)] {
            let serial = TimingGraph::build(nl, &flow, &q, case, DelayModel::Elmore, 1.0);
            for jobs in [2usize, 3, 8] {
                let par =
                    TimingGraph::build_par(nl, &flow, &q, case, DelayModel::Elmore, 1.0, jobs);
                assert_eq!(serial.arc_count(), par.arc_count());
                for (a, b) in serial.arcs.iter().zip(&par.arcs) {
                    assert_eq!(a.from, b.from);
                    assert_eq!(a.to, b.to);
                    assert_eq!(a.delay, b.delay);
                    assert_eq!(serial.delay_of(a).words(), par.delay_of(b).words());
                    assert_eq!(a.inverting, b.inverting);
                    assert_eq!(a.kind, b.kind);
                }
                assert_eq!(serial.delays.len(), par.delays.len());
                assert_eq!(serial.schedule.order, par.schedule.order);
                assert_eq!(serial.schedule.level_starts, par.schedule.level_starts);
                assert_eq!(serial.schedule.residue, par.schedule.residue);
            }
        }
    }

    #[test]
    fn arc_topology_and_delay_rows_stay_packed() {
        assert_eq!(std::mem::size_of::<Arc>(), 16);
        assert_eq!(std::mem::size_of::<ArcDelay>(), 32);
    }

    #[test]
    fn splice_refuses_a_root_whose_row_span_disagrees() {
        let dp =
            tv_gen::datapath::datapath(Tech::nmos4um(), tv_gen::datapath::DatapathConfig::small());
        let nl = &dp.netlist;
        let flow = analyze(nl, &RuleSet::all());
        let q = qualify_with_flow(nl, &flow);
        let case = PhaseCase::all_active();
        let builder = GraphBuilder {
            netlist: nl,
            flow: &flow,
            qualification: &q,
            case,
            model: DelayModel::Elmore,
        };
        let mut scratch = BuildScratch::new(nl.node_count());
        // Splices root `k` against row spans bent by `bend`.
        let mut splice_with = |k: usize, bend: &dyn Fn(&mut (u32, u32))| {
            let (sb, _) = build(&builder, 1.0, 2, Share::Off, None);
            let mut graph = sb.graph;
            let mut spans = sb.spans.expect("clean build records spans");
            bend(&mut spans.rows[k]);
            let before = (graph.delays.clone(), graph.arcs.clone());
            let out = splice_roots(
                &mut graph.arcs,
                &mut graph.delays,
                0,
                &builder,
                1.0,
                &sb.roots,
                &mut spans,
                &[k as u32],
                &mut scratch,
            );
            let untouched = before.0 == graph.delays
                && before
                    .1
                    .iter()
                    .zip(&graph.arcs)
                    .all(|(a, b)| a.delay == b.delay);
            (out, untouched)
        };
        let (sb, _) = build(&builder, 1.0, 1, Share::Off, None);
        let rows = sb.spans.expect("clean build records spans").rows;
        let k = (0..sb.roots.len())
            .find(|&k| rows[k].1 >= 2)
            .expect("some stage has two delay rows");

        // Honest spans: the unchanged root splices with nothing changed.
        assert_eq!(splice_with(k, &|_| {}), (Ok(Vec::new()), true));
        // One row short: the fresh build's row count disagrees.
        let (out, untouched) = splice_with(k, &|r| r.1 -= 1);
        assert!(out.is_err() && untouched);
        // Same count, shifted by one: relative row indices disagree.
        let (out, untouched) = splice_with(k, &|r| r.0 += 1);
        assert!(out.is_err() && untouched);
    }

    #[test]
    fn upper_bound_model_dominates_elmore() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let out = b.output("out");
        b.inverter("i", a, out);
        b.add_cap(out, 0.2).unwrap();
        let nl = b.finish().unwrap();
        let flow = analyze(&nl, &RuleSet::all());
        let q = qualify_with_flow(&nl, &flow);
        let ge = TimingGraph::build(
            &nl,
            &flow,
            &q,
            PhaseCase::all_active(),
            DelayModel::Elmore,
            1.0,
        );
        let gu = TimingGraph::build(
            &nl,
            &flow,
            &q,
            PhaseCase::all_active(),
            DelayModel::UpperBound,
            1.0,
        );
        let (u, e) = (gu.delay_of(&gu.arcs[0]), ge.delay_of(&ge.arcs[0]));
        assert!(u.fall_delay > e.fall_delay);
        assert!(u.rise_delay > e.rise_delay);
    }
}
