//! Timing-graph construction: from transistors to delay arcs.
//!
//! TV's central move was to analyze **stages**, not gates: each driven
//! node (a restored or precharged stage output) plus the pass network
//! hanging downstream of it forms one RC problem, and every gate input of
//! the stage gets an arc to every node of that RC tree with separate
//! rise and fall delays:
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
use tv_rc::elmore::{crossing_estimate, elmore_delays};
use tv_rc::tree::RcTree;

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
/// node shares one row instead of carrying its own copy.
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

/// Growable arc list with its delay rows: what a stage build emits into.
/// Each arc's `delay` indexes `delays`; [`ArcBuf::append`] rebases the
/// indices when per-worker parts are concatenated in root order.
#[derive(Default)]
pub(crate) struct ArcBuf {
    pub(crate) arcs: Vec<Arc>,
    pub(crate) delays: Vec<ArcDelay>,
}

impl ArcBuf {
    /// Pushes a delay row and returns its index.
    pub(crate) fn row(&mut self, d: ArcDelay) -> u32 {
        self.delays.push(d);
        (self.delays.len() - 1) as u32
    }

    fn arc(&mut self, from: NodeId, to: NodeId, delay: u32, inverting: bool, kind: ArcKind) {
        self.arcs.push(Arc {
            from,
            to,
            delay,
            inverting,
            kind,
        });
    }

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
#[derive(Debug, Clone)]
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

    /// Kahn's algorithm over the finished CSR: in-degrees come straight
    /// from the in-arc offsets, so only the frontier walk touches arcs.
    fn build(
        node_count: usize,
        arcs: &[Arc],
        out_starts: &[u32],
        out_arc_ids: &[u32],
        in_starts: &[u32],
    ) -> Self {
        let mut indeg: Vec<u32> = in_starts.windows(2).map(|w| w[1] - w[0]).collect();
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
                let n = nidx as usize;
                for &ai in &out_arc_ids[out_starts[n] as usize..out_starts[n + 1] as usize] {
                    let t = arcs[ai as usize].to.index();
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
    /// Delay rows, indexed by [`Arc::delay`]. Each build root owns a
    /// contiguous run of rows in emission order, so the row list — like
    /// the arc list — is the same at any thread count.
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
    /// chunks and the per-chunk arc and row vectors are concatenated in
    /// root order — the resulting arc and row lists are **identical** to
    /// the serial build at any thread count.
    ///
    /// Since the hierarchical extraction pass this routes through
    /// `macromodel::build_spanned`: structurally identical
    /// stages are analyzed once and instanced by pin remap, with the
    /// flat per-root build as the verified fallback. The arc and row
    /// lists are bit-identical either way (DESIGN.md §16).
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
        crate::macromodel::build_spanned(
            &builder,
            source_resistance,
            jobs,
            &flow.stages().structural_hashes(netlist),
        )
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

    /// Arc indices entering `node`, ascending by arc id.
    pub fn in_arcs_of(&self, node: NodeId) -> &[u32] {
        self.in_arcs_of_index(node.index())
    }

    /// Arc indices leaving node index `i`, ascending by arc id.
    pub fn out_arcs_of_index(&self, i: usize) -> &[u32] {
        &self.out_arc_ids[self.out_starts[i] as usize..self.out_starts[i + 1] as usize]
    }

    /// Extends `marked` to the forward closure of `seeds` over out-arcs:
    /// the fanout cone a change to the seed nodes can influence. Nodes
    /// already marked act as seeds too (their fanout is included); the
    /// arrival pass uses exactly this to turn a splice's changed nodes
    /// into the affected set the cone engine re-relaxes.
    pub fn fanout_closure(&self, marked: &mut [bool], mut seeds: Vec<usize>) {
        while let Some(i) = seeds.pop() {
            for &ai in self.out_arcs_of_index(i) {
                let to = self.arcs[ai as usize].to.index();
                if !marked[to] {
                    marked[to] = true;
                    seeds.push(to);
                }
            }
        }
    }

    /// Reverse reachability: every node from which some node in
    /// `targets` can be reached over arcs (the targets themselves
    /// included). The dual of [`TimingGraph::fanout_closure`], walking
    /// in-arcs instead of out-arcs — the fan-in cone that determines a
    /// target's arrival.
    pub fn fanin_cone(&self, targets: &[usize]) -> Vec<bool> {
        let mut marked = vec![false; self.node_count()];
        let mut stack: Vec<usize> = Vec::new();
        for &t in targets {
            if !marked[t] {
                marked[t] = true;
                stack.push(t);
            }
        }
        while let Some(i) = stack.pop() {
            for &ai in self.in_arcs_of_index(i) {
                let from = self.arcs[ai as usize].from.index();
                if !marked[from] {
                    marked[from] = true;
                    stack.push(from);
                }
            }
        }
        marked
    }
}

/// Finishes a graph from its flat arc list and delay rows: both CSR
/// adjacency directions in two counting passes each (degree counts,
/// prefix sums into offsets, then a cursor pass — iterating arcs in id
/// order keeps each node's list ascending by arc id, the same order the
/// old nested-Vec push loop produced), then the level schedule. The one
/// graph builder (`macromodel::build_spanned`) calls it exactly once per
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
    let schedule = LevelSchedule::build(n, &arcs, &out_starts, &out_arc_ids, &in_starts);
    TimingGraph {
        arcs,
        delays,
        out_starts,
        out_arc_ids,
        case,
        in_starts,
        in_arc_ids,
        schedule,
        diagnostics,
    }
}

/// Per-root prefix offsets into a graph's arc and delay-row lists, each
/// with `roots.len() + 1` entries.
pub(crate) struct RootSpans {
    /// Root `k` owns arcs `arcs[k] as usize .. arcs[k + 1] as usize`.
    pub(crate) arcs: Vec<u32>,
    /// Root `k` owns rows `rows[k] as usize .. rows[k + 1] as usize`;
    /// every arc of root `k` indexes a row inside that range.
    pub(crate) rows: Vec<u32>,
}

/// A graph built with its root list and per-root arc and row spans
/// recorded — the substrate for the pass pipeline's stage-granular
/// splicing.
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

/// Per-root splice support recorded at graph build time.
pub(crate) struct SpliceIndex {
    /// Which arcs and rows each root owns.
    pub(crate) spans: RootSpans,
    /// CSR offsets into `extent_roots` by node index.
    pub(crate) extent_starts: Vec<u32>,
    /// Root ordinals whose arc delays read the node's caps or adjacent
    /// geometry, grouped by node.
    pub(crate) extent_roots: Vec<u32>,
}

/// Splices freshly rebuilt delay rows for `affected` root ordinals into
/// an existing graph in place, leaving every arc and every other root's
/// rows untouched. Valid only after **parametric** edits (geometry or
/// capacitance): those cannot change which arcs a stage produces, only
/// their delay values, so each root's fresh build must match its
/// recorded spans in arc count and row count, and arc by arc in
/// endpoints, kind, inversion and row index relative to the root's first
/// row — all of which this function verifies before overwriting the
/// root's rows. On any mismatch (or a panic inside a stage build) it
/// returns `Err` and the caller must discard the graph and rebuild from
/// scratch: earlier affected roots may already have been overwritten, so
/// an `Err` graph is *not* restored to its prior state.
///
/// On success returns the **changed targets**: every node index, sorted
/// and deduplicated, with an in-arc whose delay row words differ
/// bitwise from before the splice. Each row belongs to exactly one root
/// and the arc-to-row map is verified unchanged, so these are exactly
/// the nodes whose local evaluation can differ — the arrival pass seeds
/// its cone with them.
pub(crate) fn splice_roots(
    graph: &mut TimingGraph,
    builder: &GraphBuilder<'_>,
    source_resistance: f64,
    roots: &[(NodeId, RootKind)],
    index: &SpliceIndex,
    affected: &[u32],
    scratch: &mut BuildScratch,
) -> Result<Vec<u32>, ()> {
    let spans = &index.spans;
    let mut changed: Vec<u32> = Vec::new();
    let mut fresh = ArcBuf::default();
    let mut row_changed: Vec<bool> = Vec::new();
    for &k in affected {
        let k = k as usize;
        let span = spans.arcs[k] as usize..spans.arcs[k + 1] as usize;
        let rows = spans.rows[k] as usize..spans.rows[k + 1] as usize;
        fresh.clear();
        catch_unwind(AssertUnwindSafe(|| {
            graph_build_fault_point();
            builder.build_root(&roots[k], source_resistance, &mut fresh, scratch)
        }))
        .map_err(|_| ())?;
        if fresh.arcs.len() != span.len() || fresh.delays.len() != rows.len() {
            return Err(());
        }
        let base = rows.start as u32;
        for (o, f) in graph.arcs[span].iter().zip(&fresh.arcs) {
            if o.from != f.from
                || o.to != f.to
                || o.kind != f.kind
                || o.inverting != f.inverting
                || o.delay.wrapping_sub(base) != f.delay
            {
                return Err(());
            }
        }
        let old = &mut graph.delays[rows];
        row_changed.clear();
        row_changed.extend(
            old.iter()
                .zip(&fresh.delays)
                .map(|(o, f)| o.words() != f.words()),
        );
        changed.extend(
            fresh
                .arcs
                .iter()
                .filter(|f| row_changed[f.delay as usize])
                .map(|f| f.to.index() as u32),
        );
        old.copy_from_slice(&fresh.delays);
    }
    changed.sort_unstable();
    changed.dedup();
    Ok(changed)
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
    /// Returned as an inverted CSR index `(starts, root_ordinals)` over
    /// node indices: the roots reading node `i` are
    /// `root_ordinals[starts[i] as usize..starts[i + 1] as usize]`.
    pub(crate) fn extents(
        &self,
        roots: &[(NodeId, RootKind)],
        scratch: &mut BuildScratch,
    ) -> (Vec<u32>, Vec<u32>) {
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
        (starts, ordinals)
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

/// Per-root arc builder. `pub(crate)` so the pass pipeline can reuse the
/// exact per-stage construction for root-granular splicing; external
/// callers go through [`TimingGraph::build_par`].
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

/// Reusable per-worker buffers for stage construction. One instance
/// serves every root a worker builds, so the steady-state build does no
/// per-root allocation: visited sets are epoch-stamped stamps rather
/// than hash sets, and the old per-root `vec![false; node_count]` in
/// the pull-down scan (quadratic over the whole netlist) becomes one
/// shared array whose flags the DFS resets on unwind.
pub(crate) struct BuildScratch {
    /// Epoch-stamped visited marks, one per node; `mark[i] == epoch`
    /// means node `i` was seen in the current traversal.
    mark: Vec<u32>,
    epoch: u32,
    /// DFS path membership for the pull-down resistance scan. Always
    /// all-false between calls (the DFS clears flags as it backtracks).
    pub(crate) on_path: Vec<bool>,
    /// Walk nodes of the stage currently being built.
    pub(crate) walk: Vec<WalkNode>,
    /// Gate controls of one walk node, reconstructed root → leaf.
    controls: Vec<NodeId>,
    /// Gate inputs of the stage currently being built.
    pub(crate) inputs: Vec<StageInput>,
    /// Work stack for the pull-down input scan.
    frontier: Vec<NodeId>,
}

impl BuildScratch {
    pub(crate) fn new(node_count: usize) -> Self {
        BuildScratch {
            mark: vec![0; node_count],
            epoch: 0,
            on_path: vec![false; node_count],
            walk: Vec::new(),
            controls: Vec::new(),
            inputs: Vec::new(),
            frontier: Vec::new(),
        }
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

/// Rebuilds the gate controls of every pass device on the path
/// root → `walk[i]` into `out`, in root-to-leaf order — exactly the
/// order the old per-node `controls` vector accumulated them in.
fn path_controls(netlist: &Netlist, walk: &[WalkNode], mut i: usize, out: &mut Vec<NodeId>) {
    out.clear();
    while let Some(via) = walk[i].via {
        out.push(netlist.device(via).gate());
        i = walk[i].parent.expect("non-root has parent");
    }
    out.reverse();
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

    pub(crate) fn build_root(
        &self,
        root: &(NodeId, RootKind),
        source_resistance: f64,
        out: &mut ArcBuf,
        scratch: &mut BuildScratch,
    ) {
        match root.1 {
            RootKind::Stage => self.build_stage(root.0, out, scratch),
            RootKind::Source => self.build_source_tree(root.0, source_resistance, out, scratch),
        }
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

    /// Per-walk-node delay estimates and Elmore time constants for rising
    /// and falling transitions, according to the configured model. Returns
    /// `(rise_delay, fall_delay, rise_tau, fall_tau)` vectors.
    #[allow(clippy::type_complexity)]
    fn tree_delays(
        &self,
        walk: &[WalkNode],
        r_rise: f64,
        r_fall: f64,
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let nl = self.netlist;
        let tech = nl.tech();
        let x = 1.0 - tech.switch_fraction; // fraction remaining at crossing
        let build = |driver_r: f64, rise: bool| -> (Vec<f64>, Vec<f64>) {
            let mut tree = RcTree::new(driver_r);
            tree.add_cap(tree.root(), nl.node_cap(walk[0].node));
            let mut rc_ids = vec![tree.root()];
            for w in walk.iter().skip(1) {
                let parent_rc = rc_ids[w.parent.expect("non-root has parent")];
                let dev = nl.device(w.via.expect("non-root has device"));
                let mut r = dev.resistance(tech);
                if rise {
                    r *= tech.pass_rise_factor;
                }
                let id = tree.add_child(parent_rc, r, nl.node_cap(w.node));
                rc_ids.push(id);
            }
            let elmore = elmore_delays(&tree);
            let delays = match self.model {
                DelayModel::Elmore => elmore.iter().map(|&e| crossing_estimate(e, x)).collect(),
                DelayModel::Lumped => {
                    let v = crossing_estimate(driver_r * tree.total_cap(), x);
                    vec![v; tree.len()]
                }
                DelayModel::UpperBound => elmore.iter().map(|&e| e / x).collect(),
            };
            (delays, elmore)
        };
        let (rise_d, rise_tau) = if r_rise.is_finite() {
            build(r_rise, true)
        } else {
            (vec![f64::INFINITY; walk.len()], vec![0.0; walk.len()])
        };
        let (fall_d, fall_tau) = if r_fall.is_finite() {
            build(r_fall, false)
        } else {
            (vec![f64::INFINITY; walk.len()], vec![0.0; walk.len()])
        };
        (rise_d, fall_d, rise_tau, fall_tau)
    }

    /// Builds arcs for one driving stage rooted at `out`. Each walk node
    /// gets one delay row shared by its Gate and PassControl arcs, a
    /// second (fall disabled) when the stage has BufferPull inputs, and
    /// one per firing precharge device; a row is emitted only when an arc
    /// uses it.
    fn build_stage(&self, out: NodeId, buf: &mut ArcBuf, scratch: &mut BuildScratch) {
        let nl = self.netlist;
        let r_pu = pull_up_resistance(nl, self.flow, out);
        let r_pd = pull_down_resistance_with(nl, self.flow, out, &mut scratch.on_path);
        self.walk_downstream(out, scratch);
        stage_inputs_into(nl, self.flow, out, scratch);
        let BuildScratch {
            walk,
            controls,
            inputs,
            ..
        } = scratch;
        let (rise_d, fall_d, rise_tau, fall_tau) = self.tree_delays(
            walk,
            r_pu.unwrap_or(f64::INFINITY),
            r_pd.unwrap_or(f64::INFINITY),
        );
        let has_pull_down = inputs
            .iter()
            .any(|i| i.kind == StageInputKind::PullDownGate);
        let has_pull_up = inputs.iter().any(|i| i.kind == StageInputKind::PullUpGate);

        for (i, w) in walk.iter().enumerate() {
            // Domino discipline: a precharged node starts its evaluation
            // phase high and can only FALL until the next precharge; a
            // "rise" through logic is not a transition it can make. Only
            // the precharge arc itself may raise it.
            let rise_dly = if self.flow.node_class(w.node) == tv_flow::NodeClass::Precharged {
                f64::INFINITY
            } else {
                rise_d[i]
            };
            let row = ArcDelay {
                rise_delay: rise_dly,
                fall_delay: fall_d[i],
                rise_tau: rise_tau[i],
                fall_tau: fall_tau[i],
            };
            // Pass controls along the path: when the latest-arriving
            // control rises, the whole path conducts.
            path_controls(nl, walk, i, controls);
            let main = (has_pull_down || !controls.is_empty()).then(|| buf.row(row));
            let pull = has_pull_up.then(|| {
                buf.row(ArcDelay {
                    fall_delay: f64::INFINITY,
                    ..row
                })
            });
            for inp in inputs.iter() {
                let (d, inverting, kind) = match inp.kind {
                    StageInputKind::PullDownGate => (main, true, ArcKind::Gate),
                    StageInputKind::PullUpGate => (pull, false, ArcKind::BufferPull),
                };
                let d = d.expect("a row exists for every input kind present");
                buf.arc(inp.node, w.node, d, inverting, kind);
            }
            for &ctrl in controls.iter() {
                let d = main.expect("controls present, so the shared row exists");
                buf.arc(ctrl, w.node, d, false, ArcKind::PassControl);
            }
        }

        // Precharge arcs: the precharge clock raises the root (and its
        // subtree) when its phase is active.
        for &did in nl.node_devices(out).channel {
            if self.flow.device_role(did) != DeviceRole::Precharge {
                continue;
            }
            let gate = nl.device(did).gate();
            let on = match (self.case.active, self.qualification[gate.index()]) {
                (None, _) => true,
                (Some(p), Qualification::Phase(q)) => p == q,
                (Some(_), _) => true,
            };
            if !on {
                continue;
            }
            let r_pre = nl.device(did).resistance(nl.tech());
            let (pre_rise, _, pre_tau, _) = self.tree_delays(walk, r_pre, f64::INFINITY);
            for (i, w) in walk.iter().enumerate() {
                let d = buf.row(ArcDelay {
                    rise_delay: pre_rise[i],
                    fall_delay: f64::INFINITY,
                    rise_tau: pre_tau[i],
                    fall_tau: pre_tau[i],
                });
                buf.arc(gate, w.node, d, false, ArcKind::Precharge);
            }
        }
    }

    /// Builds pass-data arcs from a primary input that feeds pass devices
    /// directly (no on-chip driver stage): one delay row per walk node
    /// below the source, shared by its PassData and PassControl arcs.
    fn build_source_tree(
        &self,
        source: NodeId,
        source_resistance: f64,
        buf: &mut ArcBuf,
        scratch: &mut BuildScratch,
    ) {
        self.walk_downstream(source, scratch);
        let BuildScratch { walk, controls, .. } = scratch;
        if walk.len() <= 1 {
            return;
        }
        let (rise_d, fall_d, rise_tau, fall_tau) =
            self.tree_delays(walk, source_resistance, source_resistance);
        let nl = self.netlist;
        for (i, w) in walk.iter().enumerate().skip(1) {
            let rise_dly = if self.flow.node_class(w.node) == tv_flow::NodeClass::Precharged {
                f64::INFINITY
            } else {
                rise_d[i]
            };
            let d = buf.row(ArcDelay {
                rise_delay: rise_dly,
                fall_delay: fall_d[i],
                rise_tau: rise_tau[i],
                fall_tau: fall_tau[i],
            });
            buf.arc(source, w.node, d, false, ArcKind::PassData);
            path_controls(nl, walk, i, controls);
            for &ctrl in controls.iter() {
                buf.arc(ctrl, w.node, d, false, ArcKind::PassControl);
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::DelayModel;
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
    fn fanin_cone_is_the_dual_of_fanout_closure() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let c = b.input("c");
        let s0 = b.node("s0");
        let s1 = b.node("s1");
        let t0 = b.node("t0");
        b.inverter("i0", a, s0);
        b.inverter("i1", s0, s1);
        b.inverter("j0", c, t0);
        let nl = b.finish().unwrap();
        let (g, _) = graph_for(&nl, PhaseCase::all_active());

        let cone = g.fanin_cone(&[s1.index()]);
        for i in nl.node_ids() {
            let expect = i == a || i == s0 || i == s1;
            assert_eq!(
                cone[i.index()],
                expect,
                "fanin of s1 mismarked {:?}",
                nl.node_name(i)
            );
        }
        // Duality: j is in fanin_cone(t) iff t is in fanout_closure(j).
        for j in nl.node_ids() {
            let mut fwd = vec![false; g.node_count()];
            fwd[j.index()] = true;
            g.fanout_closure(&mut fwd, vec![j.index()]);
            for t in nl.node_ids() {
                assert_eq!(
                    g.fanin_cone(&[t.index()])[j.index()],
                    fwd[t.index()],
                    "duality broke for j={:?} t={:?}",
                    nl.node_name(j),
                    nl.node_name(t)
                );
            }
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
        let hashes = flow.stages().structural_hashes(nl);
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
        let mut splice_with = |k: usize, bend: &dyn Fn(&mut Vec<u32>)| {
            let (sb, _) = crate::macromodel::build_spanned(&builder, 1.0, 2, &hashes);
            let mut graph = sb.graph;
            let mut spans = sb.spans.expect("clean build records spans");
            bend(&mut spans.rows);
            let index = SpliceIndex {
                spans,
                extent_starts: Vec::new(),
                extent_roots: Vec::new(),
            };
            let before = graph.delays.clone();
            let out = splice_roots(
                &mut graph,
                &builder,
                1.0,
                &sb.roots,
                &index,
                &[k as u32],
                &mut scratch,
            );
            (out, before == graph.delays)
        };
        let (sb, _) = crate::macromodel::build_spanned(&builder, 1.0, 1, &hashes);
        let rows = sb.spans.expect("clean build records spans").rows;
        let k = (0..sb.roots.len())
            .find(|&k| rows[k + 1] - rows[k] >= 2)
            .expect("some stage has two delay rows");

        // Honest spans: the unchanged root splices with nothing changed.
        assert_eq!(splice_with(k, &|_| {}), (Ok(Vec::new()), true));
        // One row short: the fresh build's row count disagrees.
        let (out, untouched) = splice_with(k, &|r| r[k + 1] -= 1);
        assert!(out.is_err() && untouched);
        // Same count, shifted by one: relative row indices disagree.
        let (out, untouched) = splice_with(k, &|r| {
            r[k] += 1;
            r[k + 1] += 1;
        });
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
