//! Hierarchical macromodel extraction: analyze each unique stage once,
//! instance it N times.
//!
//! The paper's analyzer treats every channel-connected stage as an
//! independent RC problem — which is exactly what makes hierarchy
//! exploitable. A 67-core datapath contains 67 structurally identical
//! copies of every bit-slice stage; the flat build re-derives the same
//! Elmore trees 67 times. This module groups build roots into
//! **equivalence classes**, analyzes one *master* per class into a
//! pin-indexed arc table (the macromodel), and emits every other member
//! by remapping the table's pin ordinals onto that instance's own nodes.
//!
//! The bit-identity contract (DESIGN.md §16) rests on a two-tier key:
//!
//! * the **grouping key** — [`tv_flow::stage::Stages::structural_hashes`],
//!   an order-independent multiset hash of the stage's device geometry
//!   and boundary-pin roles. Cheap, permutation-invariant, but only a
//!   *candidate* grouping.
//! * the **canonical trace** (`root_canon`) — the exact scalar inputs
//!   the arc-emission half of the flat builder consumes, serialized in
//!   emission order with every [`NodeId`] replaced by its
//!   first-encounter ordinal. Two roots share a class only if their
//!   traces match word for word; the trace *is* the collision check.
//!
//! Equal traces imply the flat builder would emit arc lists that are
//! bit-identical up to the pin permutation, because every quantity the
//! emission reads — pull-up/pull-down resistances, per-walk-node caps,
//! pass-device resistances, tree topology, input order and kinds,
//! precharge resistances, domino flags — is either a recorded word or a
//! global (`Tech`, `DelayModel`, source resistance). The ordinal
//! assignment scans the trace in one fixed order, so pin `k` of an
//! instance corresponds to pin `k` of its master by construction.
//!
//! Any panic anywhere in extraction degrades to the flat
//! per-stage-isolated build (`TimingGraph::build_isolated`) — the
//! same conservative fallback the spanned flat build used.

use std::collections::HashMap;
use std::hash::Hasher;
use std::panic::{catch_unwind, AssertUnwindSafe};

use tv_clocks::qualify::Qualification;
use tv_flow::{DeviceRole, FlowAnalysis, NodeClass};
use tv_netlist::{FxHasher, Netlist, NodeId};

use crate::fingerprint::mix64;
use crate::graph::{
    finish_graph, graph_build_fault_point, pull_down_resistance_with, pull_up_resistance,
    stage_inputs_into, Arc, ArcBuf, ArcDelay, ArcKind, BuildScratch, GraphBuilder, PhaseCase,
    RootKind, RootSpans, SpannedBuild, StageInputKind, TimingGraph, PAR_MIN_ROOTS,
};
use crate::options::DelayModel;

/// What the extractor learned about one build: the class partition of
/// the root set. Lives in the graph slot so a later parametric edit can
/// **de-share** the touched instances (see `Extraction::desplit`).
pub struct Extraction {
    /// Class id per root ordinal.
    class_of: Vec<u32>,
    /// Member count per class (grows as de-sharing mints new classes).
    class_len: Vec<u32>,
    /// Classes at extraction time (before any de-sharing).
    classes: usize,
    /// Roots analyzed from scratch (masters, plus every member of a
    /// class whose table could not be shared).
    analyzed: u64,
    /// Roots emitted by pin-remapping a shared table.
    instanced: u64,
    /// Content fingerprint of the partition (keys + class assignment),
    /// advanced by every de-share.
    fp: u64,
}

impl Extraction {
    /// Number of equivalence classes at extraction time.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Roots analyzed from scratch.
    pub fn analyzed(&self) -> u64 {
        self.analyzed
    }

    /// Roots emitted by instancing a shared macromodel.
    pub fn instanced(&self) -> u64 {
        self.instanced
    }

    /// Content fingerprint of the class partition.
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// De-shares the given root ordinals: each member of a class with
    /// more than one member is split into a fresh singleton class, so
    /// its subsequent re-analysis (the splice) never contaminates — and
    /// is never contaminated by — the siblings it used to share with.
    /// Returns how many roots actually split (already-singleton roots
    /// are no-ops) and bumps the `macro.desplit` counter by that much.
    pub(crate) fn desplit(&mut self, affected: &[u32]) -> u64 {
        let mut n = 0u64;
        for &r in affected {
            let Some(&c) = self.class_of.get(r as usize) else {
                continue;
            };
            if self.class_len[c as usize] > 1 {
                self.class_len[c as usize] -= 1;
                let fresh = self.class_len.len() as u32;
                self.class_of[r as usize] = fresh;
                self.class_len.push(1);
                self.fp = mix64(self.fp, 0xde5b_11f0 ^ r as u64);
                n += 1;
            }
        }
        if n > 0 {
            tv_obs::add(tv_obs::Counter::MacroDesplit, n);
        }
        n
    }
}

/// One pin-to-pin timing arc of a macromodel: [`Arc`] with both
/// endpoints replaced by pin ordinals into the owning root's pin table,
/// and its row index relative to the master's first delay row.
struct MacroArc {
    from_pin: u32,
    to_pin: u32,
    delay: u32,
    inverting: bool,
    kind: ArcKind,
}

/// The analysis result for one class: a shareable pin-indexed arc
/// table with the master's delay rows, or a marker that members must
/// each build flat (an arc endpoint fell outside the recorded pin table
/// — impossible by construction, kept as a verified fallback rather
/// than an assumption).
enum MacroTable {
    Arcs {
        arcs: Vec<MacroArc>,
        rows: Vec<ArcDelay>,
    },
    Opaque,
}

/// Epoch-stamped NodeId → pin-ordinal map, reused across roots.
struct MacroScratch {
    mark: Vec<u32>,
    ord: Vec<u32>,
    epoch: u32,
}

impl MacroScratch {
    fn new(node_count: usize) -> Self {
        MacroScratch {
            mark: vec![0; node_count],
            ord: vec![0; node_count],
            epoch: 0,
        }
    }

    fn begin(&mut self) {
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// The pin ordinal of `n`, assigning the next one on first
    /// encounter (and recording the node in `pins`).
    fn ordinal(&mut self, pins: &mut Vec<NodeId>, n: NodeId) -> u64 {
        let i = n.index();
        if self.mark[i] != self.epoch {
            self.mark[i] = self.epoch;
            self.ord[i] = pins.len() as u32;
            pins.push(n);
        }
        self.ord[i] as u64
    }

    /// The ordinal previously assigned to `n`, if any.
    fn lookup(&self, n: NodeId) -> Option<u32> {
        let i = n.index();
        (self.mark[i] == self.epoch).then(|| self.ord[i])
    }
}

const CANON_STAGE: u64 = 1;
const CANON_SOURCE: u64 = 2;
const CANON_PRECHARGE: u64 = 0x70;

fn opt_f64_words(canon: &mut Vec<u64>, v: Option<f64>) {
    match v {
        Some(x) => {
            canon.push(1);
            canon.push(x.to_bits());
        }
        None => {
            canon.push(0);
            canon.push(0);
        }
    }
}

/// Serializes the downstream walk exactly as `tree_delays` and the
/// emission loops consume it: per walk node, its pin ordinal, parent
/// walk index, connecting pass-device resistance and gate ordinal, node
/// cap, and domino (precharged) flag.
fn walk_canon(
    b: &GraphBuilder<'_>,
    scratch: &BuildScratch,
    ms: &mut MacroScratch,
    canon: &mut Vec<u64>,
    pins: &mut Vec<NodeId>,
) {
    let nl = b.netlist;
    let tech = nl.tech();
    canon.push(scratch.walk.len() as u64);
    for i in 0..scratch.walk.len() {
        let w = scratch.walk[i];
        canon.push(ms.ordinal(pins, w.node));
        canon.push(w.parent.map_or(u64::MAX, |p| p as u64));
        match w.via {
            Some(did) => {
                let dev = nl.device(did);
                canon.push(dev.resistance(tech).to_bits());
                canon.push(ms.ordinal(pins, dev.gate()));
            }
            None => canon.push(u64::MAX),
        }
        canon.push(nl.node_cap(w.node).to_bits());
        canon.push((b.flow.node_class(w.node) == NodeClass::Precharged) as u64);
    }
}

/// The canonical trace of one build root: every scalar the arc-emission
/// half of the flat builder reads, in a fixed scan order, with NodeIds
/// replaced by first-encounter ordinals (recorded in `pins`). Two roots
/// with equal traces produce bit-identical arcs modulo the pin mapping.
fn root_canon(
    b: &GraphBuilder<'_>,
    root: &(NodeId, RootKind),
    scratch: &mut BuildScratch,
    ms: &mut MacroScratch,
    canon: &mut Vec<u64>,
    pins: &mut Vec<NodeId>,
) {
    let nl = b.netlist;
    ms.begin();
    match root.1 {
        RootKind::Stage => {
            canon.push(CANON_STAGE);
            let out = root.0;
            // The drive resistances enter as *results*: the emission
            // only ever consumes the scalars, so canonizing the DFS
            // that produced them would be needless fragility.
            opt_f64_words(canon, pull_up_resistance(nl, b.flow, out));
            opt_f64_words(
                canon,
                pull_down_resistance_with(nl, b.flow, out, &mut scratch.on_path),
            );
            b.walk_downstream(out, scratch);
            walk_canon(b, scratch, ms, canon, pins);
            stage_inputs_into(nl, b.flow, out, scratch);
            canon.push(scratch.inputs.len() as u64);
            for i in 0..scratch.inputs.len() {
                let inp = scratch.inputs[i];
                canon.push(ms.ordinal(pins, inp.node));
                canon.push(match inp.kind {
                    StageInputKind::PullDownGate => 0,
                    StageInputKind::PullUpGate => 1,
                });
            }
            // Precharge devices the emission loop would fire, in channel
            // order, gated by the same case/qualification test.
            for &did in nl.node_devices(out).channel {
                if b.flow.device_role(did) != DeviceRole::Precharge {
                    continue;
                }
                let gate = nl.device(did).gate();
                let on = match (b.case.active, b.qualification[gate.index()]) {
                    (None, _) => true,
                    (Some(p), Qualification::Phase(q)) => p == q,
                    (Some(_), _) => true,
                };
                if !on {
                    continue;
                }
                canon.push(CANON_PRECHARGE);
                canon.push(ms.ordinal(pins, gate));
                canon.push(nl.device(did).resistance(nl.tech()).to_bits());
            }
        }
        RootKind::Source => {
            canon.push(CANON_SOURCE);
            b.walk_downstream(root.0, scratch);
            walk_canon(b, scratch, ms, canon, pins);
        }
    }
}

/// The grouping key of one root: the flow layer's order-independent
/// stage hash, salted with the root kind. Coarser than the canonical
/// trace on purpose — equal keys merely nominate candidates.
fn root_key(stage_hashes: &[u64], flow: &FlowAnalysis, root: &(NodeId, RootKind)) -> u64 {
    let sh = flow
        .stages()
        .stage_of(root.0)
        .map_or(0x517e_ab5e, |sid| stage_hashes[sid.index()]);
    mix64(
        sh,
        match root.1 {
            RootKind::Stage => 1,
            RootKind::Source => 2,
        },
    )
}

/// The class-lookup hash of a canonical trace. Every root pays it, and
/// a collision costs only one exact trace comparison, so it is one
/// FxHash multiply-rotate per word rather than `mix64`'s full avalanche
/// (which made a mips32 graph build about a quarter slower).
fn trace_hash(canon: &[u64]) -> u64 {
    let mut h = FxHasher::default();
    for &w in canon {
        h.write_u64(w);
    }
    h.finish()
}

/// Per-chunk output of the signature phase.
struct Sigs {
    canon: Vec<u64>,
    pins: Vec<NodeId>,
    /// `(grouping key, canon word count, pin count)` per root.
    meta: Vec<(u64, u32, u32)>,
}

/// The hierarchical replacement for the flat spanned build: groups the
/// root set into equivalence classes, analyzes one master per class,
/// instances the rest, and finishes a graph whose arc and row lists are
/// bit-identical to [`TimingGraph::build_par`]'s flat output at any
/// thread count. `stage_hashes` is
/// [`tv_flow::stage::Stages::structural_hashes`] of the same netlist and
/// flow (a pure function of both, so one analysis computes it once for
/// all its cases). Returns the per-root arc and row spans (for splicing)
/// and the [`Extraction`] partition (for de-sharing); the extraction is
/// `None` when a panic degraded the build to flat per-stage isolation.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_spanned(
    netlist: &Netlist,
    flow: &FlowAnalysis,
    qualification: &[Qualification],
    case: PhaseCase,
    model: DelayModel,
    source_resistance: f64,
    jobs: usize,
    stage_hashes: &[u64],
) -> (SpannedBuild, Option<Extraction>) {
    let builder = GraphBuilder {
        netlist,
        flow,
        qualification,
        case,
        model,
    };
    let roots = builder.roots();
    match hier_build(&builder, &roots, source_resistance, jobs, stage_hashes) {
        Some((arcs, spans, extraction)) => {
            debug_assert_eq!(*spans.arcs.last().unwrap() as usize, arcs.arcs.len());
            debug_assert_eq!(*spans.rows.last().unwrap() as usize, arcs.delays.len());
            (
                SpannedBuild {
                    graph: finish_graph(netlist.node_count(), arcs, case, Vec::new()),
                    roots,
                    spans: Some(spans),
                },
                Some(extraction),
            )
        }
        None => {
            // A stage build panicked during extraction: delegate to the
            // isolated flat builder, which contains the fault per stage
            // and records diagnostics. No spans, no sharing.
            tv_obs::incr(tv_obs::Counter::FaultDegraded);
            let graph = TimingGraph::build_isolated(
                netlist,
                flow,
                qualification,
                case,
                model,
                source_resistance,
                jobs,
                None,
            );
            (
                SpannedBuild {
                    graph,
                    roots,
                    spans: None,
                },
                None,
            )
        }
    }
}

/// The four-phase extraction. Phases A (signatures) and D (emission)
/// chunk the root set exactly like the flat parallel build, so the
/// concatenated output is independent of `jobs`; phase B (grouping) is
/// serial in root order; phase C parallelizes over class masters.
fn hier_build(
    builder: &GraphBuilder<'_>,
    roots: &[(NodeId, RootKind)],
    source_resistance: f64,
    jobs: usize,
    stage_hashes: &[u64],
) -> Option<(ArcBuf, RootSpans, Extraction)> {
    let nl = builder.netlist;
    let node_count = nl.node_count();
    let n_roots = roots.len();
    let threads = jobs.max(1).min(n_roots.max(1));
    let serial = threads <= 1 || n_roots < PAR_MIN_ROOTS;

    // Phases A (signatures) and B (grouping): every root gets a key +
    // canonical trace + pin table, then joins its class in
    // deterministic root order. Classes are looked up by the grouping
    // key mixed with a hash of the trace, so a bucket almost always
    // holds at most one class; the exact trace comparison against each
    // candidate's master stays as the collision check — equal lookup
    // keys with different traces stay separate classes. The first match
    // is the one a scan over every class of the grouping key would find
    // (at most one class per key has a given trace), so class ids and
    // the partition do not depend on the lookup key.
    let mut class_of = vec![0u32; n_roots];
    let mut masters: Vec<u32> = Vec::new();
    let mut class_len: Vec<u32> = Vec::new();
    let mut keys: Vec<u64> = Vec::with_capacity(n_roots);
    let mut pins_all: Vec<NodeId> = Vec::new();
    let mut pin_starts: Vec<usize> = Vec::with_capacity(n_roots + 1);
    pin_starts.push(0);
    // The default (keyed) hasher stays: the lookup keys derive from
    // netlist content, which arrives from outside the program.
    let mut by_key: HashMap<u64, Vec<u32>> = HashMap::new();

    if serial {
        // Fused A+B: one pass, grouping each root as it is signed. A
        // root's canon lives only for its own iteration unless it
        // founds a class — the store holds master traces only, so the
        // at-scale serial build never retains the all-roots canon
        // stream (hundreds of MB at a million devices) that the staged
        // parallel path trades for worker concurrency.
        let mut master_canon: Vec<u64> = Vec::new();
        let mut master_canon_starts: Vec<usize> = vec![0];
        catch_unwind(AssertUnwindSafe(|| {
            let mut scratch = BuildScratch::new(node_count);
            let mut ms = MacroScratch::new(node_count);
            let mut canon_buf: Vec<u64> = Vec::new();
            // Per-root pin buffer: ordinals recorded in the canon are
            // indices into *this root's* pin table, so it must restart
            // at zero for every root (a shared running buffer would
            // leak the root's position into its canon and kill all
            // sharing).
            let mut pin_buf: Vec<NodeId> = Vec::new();
            for (r, root) in roots.iter().enumerate() {
                graph_build_fault_point();
                canon_buf.clear();
                pin_buf.clear();
                root_canon(
                    builder,
                    root,
                    &mut scratch,
                    &mut ms,
                    &mut canon_buf,
                    &mut pin_buf,
                );
                keys.push(root_key(stage_hashes, builder.flow, root));
                pins_all.extend_from_slice(&pin_buf);
                pin_starts.push(pins_all.len());
                let cands = by_key
                    .entry(mix64(keys[r], trace_hash(&canon_buf)))
                    .or_default();
                let hit = cands.iter().copied().find(|&cid| {
                    let c = cid as usize;
                    master_canon[master_canon_starts[c]..master_canon_starts[c + 1]]
                        == canon_buf[..]
                });
                match hit {
                    Some(cid) => {
                        class_of[r] = cid;
                        class_len[cid as usize] += 1;
                    }
                    None => {
                        let cid = masters.len() as u32;
                        masters.push(r as u32);
                        class_len.push(1);
                        class_of[r] = cid;
                        cands.push(cid);
                        master_canon.extend_from_slice(&canon_buf);
                        master_canon_starts.push(master_canon.len());
                    }
                }
            }
        }))
        .ok()?;
    } else {
        // Staged A then B: workers sign chunks of the root set in
        // parallel — the chunk cover is a pure function of the root
        // list, never of the schedule, so the merged root-ordered
        // signature stream (and therefore the grouping) is independent
        // of `jobs` and bit-identical to the fused path's.
        let sign_chunk = |root_chunk: &[(NodeId, RootKind)]| -> Result<Sigs, ()> {
            catch_unwind(AssertUnwindSafe(|| {
                let mut scratch = BuildScratch::new(node_count);
                let mut ms = MacroScratch::new(node_count);
                // See the fused path: pin ordinals restart per root.
                let mut pin_buf: Vec<NodeId> = Vec::new();
                let mut sigs = Sigs {
                    canon: Vec::new(),
                    pins: Vec::new(),
                    meta: Vec::with_capacity(root_chunk.len()),
                };
                for r in root_chunk {
                    graph_build_fault_point();
                    let c0 = sigs.canon.len();
                    pin_buf.clear();
                    root_canon(
                        builder,
                        r,
                        &mut scratch,
                        &mut ms,
                        &mut sigs.canon,
                        &mut pin_buf,
                    );
                    let key = root_key(stage_hashes, builder.flow, r);
                    sigs.meta
                        .push((key, (sigs.canon.len() - c0) as u32, pin_buf.len() as u32));
                    sigs.pins.extend_from_slice(&pin_buf);
                }
                sigs
            }))
            .map_err(|_| ())
        };
        let chunk = n_roots.div_ceil(threads);
        let parts: Vec<Result<Sigs, ()>> = std::thread::scope(|s| {
            let handles: Vec<_> = roots
                .chunks(chunk)
                .map(|rc| {
                    let f = &sign_chunk;
                    s.spawn(move || f(rc))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panic is caught inside the closure"))
                .collect()
        });
        let mut sigs_parts: Vec<Sigs> = Vec::with_capacity(parts.len());
        for part in parts {
            sigs_parts.push(part.ok()?);
        }
        // Exact-capacity merge: these streams are large at scale, and
        // growth doubling would copy them more than once.
        let canon_total: usize = sigs_parts.iter().map(|p| p.canon.len()).sum();
        let pin_total: usize = sigs_parts.iter().map(|p| p.pins.len()).sum();
        let mut canon_all: Vec<u64> = Vec::with_capacity(canon_total);
        let mut canon_starts: Vec<usize> = Vec::with_capacity(n_roots + 1);
        canon_starts.push(0);
        pins_all.reserve_exact(pin_total);
        for sigs in sigs_parts {
            canon_all.extend_from_slice(&sigs.canon);
            pins_all.extend_from_slice(&sigs.pins);
            for (key, cw, pw) in sigs.meta {
                keys.push(key);
                canon_starts.push(canon_starts.last().unwrap() + cw as usize);
                pin_starts.push(pin_starts.last().unwrap() + pw as usize);
            }
        }
        for r in 0..n_roots {
            let c = &canon_all[canon_starts[r]..canon_starts[r + 1]];
            let cands = by_key.entry(mix64(keys[r], trace_hash(c))).or_default();
            let hit = cands.iter().copied().find(|&cid| {
                let m = masters[cid as usize] as usize;
                canon_all[canon_starts[m]..canon_starts[m + 1]] == *c
            });
            match hit {
                Some(cid) => {
                    class_of[r] = cid;
                    class_len[cid as usize] += 1;
                }
                None => {
                    let cid = masters.len() as u32;
                    masters.push(r as u32);
                    class_len.push(1);
                    class_of[r] = cid;
                    cands.push(cid);
                }
            }
        }
    }
    drop(by_key);

    // Phase C: analyze one master per class into a pin-indexed table.
    let n_classes = masters.len();
    let analyze_chunk = |master_chunk: &[u32]| -> Result<Vec<MacroTable>, ()> {
        catch_unwind(AssertUnwindSafe(|| {
            let mut scratch = BuildScratch::new(node_count);
            let mut ms = MacroScratch::new(node_count);
            // Cleared per master, so its row indices come out relative to
            // the master's first row.
            let mut buf = ArcBuf::default();
            let mut tables = Vec::with_capacity(master_chunk.len());
            for &m in master_chunk {
                let m = m as usize;
                buf.clear();
                builder.build_root(&roots[m], source_resistance, &mut buf, &mut scratch);
                let pins = &pins_all[pin_starts[m]..pin_starts[m + 1]];
                ms.begin();
                for (i, &p) in pins.iter().enumerate() {
                    ms.mark[p.index()] = ms.epoch;
                    ms.ord[p.index()] = i as u32;
                }
                let mut table = Vec::with_capacity(buf.arcs.len());
                let mut complete = true;
                for a in &buf.arcs {
                    let (Some(from_pin), Some(to_pin)) = (ms.lookup(a.from), ms.lookup(a.to))
                    else {
                        complete = false;
                        break;
                    };
                    table.push(MacroArc {
                        from_pin,
                        to_pin,
                        delay: a.delay,
                        inverting: a.inverting,
                        kind: a.kind,
                    });
                }
                tables.push(if complete {
                    MacroTable::Arcs {
                        arcs: table,
                        rows: buf.delays.clone(),
                    }
                } else {
                    MacroTable::Opaque
                });
            }
            tables
        }))
        .map_err(|_| ())
    };
    let table_parts: Vec<Result<Vec<MacroTable>, ()>> = if threads <= 1 || n_classes < PAR_MIN_ROOTS
    {
        vec![analyze_chunk(&masters)]
    } else {
        let chunk = n_classes.div_ceil(threads);
        std::thread::scope(|s| {
            let handles: Vec<_> = masters
                .chunks(chunk)
                .map(|mc| {
                    let f = &analyze_chunk;
                    s.spawn(move || f(mc))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panic is caught inside the closure"))
                .collect()
        })
    };
    let mut tables: Vec<MacroTable> = Vec::with_capacity(n_classes);
    for part in table_parts {
        tables.extend(part.ok()?);
    }

    // Phase D: emit every root in order — shared classes by pin remap
    // and a rebased copy of the master's rows, opaque classes by direct
    // flat build.
    type EmitPart = (ArcBuf, Vec<(u32, u32)>);
    let emit_chunk = |start: usize, root_chunk: &[(NodeId, RootKind)]| -> Result<EmitPart, ()> {
        catch_unwind(AssertUnwindSafe(|| {
            // Reserve the exact instanced totals upfront (opaque roots
            // still grow, but they are the rare case): at a million
            // devices the chunk emits tens of millions of arcs, and
            // growth doubling would copy them repeatedly.
            let (est_arcs, est_rows) = (0..root_chunk.len())
                .map(|j| match &tables[class_of[start + j] as usize] {
                    MacroTable::Arcs { arcs, rows } => (arcs.len(), rows.len()),
                    MacroTable::Opaque => (0, 0),
                })
                .fold((0, 0), |(a, r), (da, dr)| (a + da, r + dr));
            let mut buf = ArcBuf {
                arcs: Vec::with_capacity(est_arcs),
                delays: Vec::with_capacity(est_rows),
            };
            let mut counts: Vec<(u32, u32)> = Vec::with_capacity(root_chunk.len());
            let mut scratch = BuildScratch::new(node_count);
            for (j, r) in root_chunk.iter().enumerate() {
                let ri = start + j;
                let (arcs_before, rows_before) = (buf.arcs.len(), buf.delays.len());
                match &tables[class_of[ri] as usize] {
                    MacroTable::Arcs { arcs, rows } => {
                        let pins = &pins_all[pin_starts[ri]..pin_starts[ri + 1]];
                        let base = rows_before as u32;
                        buf.delays.extend_from_slice(rows);
                        buf.arcs.extend(arcs.iter().map(|ma| Arc {
                            from: pins[ma.from_pin as usize],
                            to: pins[ma.to_pin as usize],
                            delay: base + ma.delay,
                            inverting: ma.inverting,
                            kind: ma.kind,
                        }));
                    }
                    MacroTable::Opaque => {
                        builder.build_root(r, source_resistance, &mut buf, &mut scratch);
                    }
                }
                counts.push((
                    (buf.arcs.len() - arcs_before) as u32,
                    (buf.delays.len() - rows_before) as u32,
                ));
            }
            (buf, counts)
        }))
        .map_err(|_| ())
    };
    let emit_parts: Vec<Result<EmitPart, ()>> = if serial {
        vec![emit_chunk(0, roots)]
    } else {
        let chunk = n_roots.div_ceil(threads);
        std::thread::scope(|s| {
            let handles: Vec<_> = roots
                .chunks(chunk)
                .enumerate()
                .map(|(k, rc)| {
                    let f = &emit_chunk;
                    s.spawn(move || f(k * chunk, rc))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panic is caught inside the closure"))
                .collect()
        })
    };

    let mut parts_ok: Vec<EmitPart> = Vec::with_capacity(emit_parts.len());
    for part in emit_parts {
        parts_ok.push(part.ok()?);
    }
    let arc_total: usize = parts_ok.iter().map(|(b, _)| b.arcs.len()).sum();
    let row_total: usize = parts_ok.iter().map(|(b, _)| b.delays.len()).sum();
    let mut buf = ArcBuf::default();
    let mut spans = RootSpans {
        arcs: Vec::with_capacity(n_roots + 1),
        rows: Vec::with_capacity(n_roots + 1),
    };
    spans.arcs.push(0);
    spans.rows.push(0);
    // The serial build produces one part: `append` takes its vectors
    // whole rather than copying ~GBs of arcs.
    for (i, (part, counts)) in parts_ok.into_iter().enumerate() {
        for (a, r) in counts {
            spans.arcs.push(spans.arcs.last().unwrap() + a);
            spans.rows.push(spans.rows.last().unwrap() + r);
        }
        buf.append(part);
        if i == 0 {
            buf.arcs.reserve_exact(arc_total - buf.arcs.len());
            buf.delays.reserve_exact(row_total - buf.delays.len());
        }
    }

    // Work accounting: a class whose table shared counts one analysis
    // and `len - 1` instancings; an opaque class analyzed every member.
    let mut analyzed: u64 = 0;
    let mut instanced: u64 = 0;
    for (cid, &len) in class_len.iter().enumerate() {
        match &tables[cid] {
            MacroTable::Arcs { .. } => {
                analyzed += 1;
                instanced += (len - 1) as u64;
            }
            MacroTable::Opaque => analyzed += len as u64,
        }
    }
    tv_obs::add(tv_obs::Counter::MacroClasses, n_classes as u64);
    tv_obs::add(tv_obs::Counter::MacroAnalyzed, analyzed);
    tv_obs::add(tv_obs::Counter::MacroInstanced, instanced);

    let mut fp = 0x9c0d_e1a2_57a9_0e5d_u64;
    for r in 0..n_roots {
        fp = mix64(fp, keys[r]);
        fp = mix64(fp, class_of[r] as u64);
    }

    Some((
        buf,
        spans,
        Extraction {
            class_of,
            class_len,
            classes: n_classes,
            analyzed,
            instanced,
            fp,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::DelayModel;
    use tv_clocks::qualify::qualify_with_flow;
    use tv_flow::{analyze, RuleSet};
    use tv_netlist::Tech;

    fn spanned(nl: &Netlist, case: PhaseCase, jobs: usize) -> (SpannedBuild, Option<Extraction>) {
        let flow = analyze(nl, &RuleSet::all());
        let qual = qualify_with_flow(nl, &flow);
        let hashes = flow.stages().structural_hashes(nl);
        build_spanned(
            nl,
            &flow,
            &qual,
            case,
            DelayModel::Elmore,
            1.0,
            jobs,
            &hashes,
        )
    }

    fn assert_hier_matches_flat(nl: &Netlist, case: PhaseCase) -> Extraction {
        let flow = analyze(nl, &RuleSet::all());
        let qual = qualify_with_flow(nl, &flow);
        let flat =
            TimingGraph::build_isolated(nl, &flow, &qual, case, DelayModel::Elmore, 1.0, 1, None);
        let mut last = None;
        for jobs in [1usize, 2, 8] {
            let (sb, ex) = spanned(nl, case, jobs);
            let ex = ex.expect("clean build must extract");
            let g = &sb.graph;
            assert_eq!(g.arc_count(), flat.arc_count(), "jobs {jobs}");
            assert_eq!(g.delays.len(), flat.delays.len(), "jobs {jobs}");
            for (h, f) in g.arcs.iter().zip(flat.arcs.iter()) {
                assert_eq!(h.from, f.from);
                assert_eq!(h.to, f.to);
                assert_eq!(h.kind, f.kind);
                assert_eq!(h.inverting, f.inverting);
                assert_eq!(h.delay, f.delay);
                assert_eq!(g.delay_of(h).words(), flat.delay_of(f).words());
            }
            assert_rows_owned(&sb);
            last = Some(ex);
        }
        last.unwrap()
    }

    /// Every arc in root `k`'s arc span indexes a row inside root `k`'s
    /// row span, and the spans tile both lists exactly.
    fn assert_rows_owned(sb: &SpannedBuild) {
        let spans = sb.spans.as_ref().expect("clean build records spans");
        let g = &sb.graph;
        assert_eq!(spans.arcs.len(), sb.roots.len() + 1);
        assert_eq!(spans.rows.len(), sb.roots.len() + 1);
        assert_eq!(*spans.arcs.last().unwrap() as usize, g.arc_count());
        assert_eq!(*spans.rows.last().unwrap() as usize, g.delays.len());
        for k in 0..sb.roots.len() {
            let rows = spans.rows[k]..spans.rows[k + 1];
            for a in &g.arcs[spans.arcs[k] as usize..spans.arcs[k + 1] as usize] {
                assert!(
                    rows.contains(&a.delay),
                    "root {k}: arc row {} outside its span {rows:?}",
                    a.delay
                );
            }
        }
    }

    #[test]
    fn every_arc_indexes_a_row_its_root_owns() {
        let t = Tech::nmos4um();
        let workloads = [
            tv_gen::adder::ripple_carry_adder(t.clone(), 16).netlist,
            tv_gen::shifter::barrel_shifter(t.clone(), 8, 4).netlist,
            tv_gen::regfile::register_file(t.clone(), 4, 8).netlist,
            tv_gen::random::random_logic(
                t.clone(),
                800,
                0xA11CE,
                tv_gen::random::RandomMix::default(),
            )
            .netlist,
            tv_gen::mips_mc::t6_mips_mc(t, 1).netlist,
        ];
        for nl in &workloads {
            for case in [
                PhaseCase::all_active(),
                PhaseCase::phase(0),
                PhaseCase::phase(1),
            ] {
                for jobs in [1usize, 2, 8] {
                    assert_rows_owned(&spanned(nl, case, jobs).0);
                }
            }
        }
    }

    #[test]
    fn replicated_datapath_shares_and_stays_bit_identical() {
        let mc = tv_gen::mips_mc::t6_mips_mc(Tech::nmos4um(), 3);
        for case in [
            PhaseCase::all_active(),
            PhaseCase::phase(0),
            PhaseCase::phase(1),
        ] {
            let ex = assert_hier_matches_flat(&mc.netlist, case);
            assert!(
                ex.instanced() >= 2 * ex.analyzed(),
                "3 identical cores must dedup heavily: analyzed {} instanced {}",
                ex.analyzed(),
                ex.instanced()
            );
        }
    }

    #[test]
    fn irregular_random_logic_stays_bit_identical() {
        let c = tv_gen::random::random_logic(
            Tech::nmos4um(),
            1200,
            0x9aa7,
            tv_gen::random::RandomMix::default(),
        );
        assert_hier_matches_flat(&c.netlist, PhaseCase::all_active());
    }

    #[test]
    fn manchester_carry_chain_stays_bit_identical() {
        let c = tv_gen::manchester::manchester_circuit(Tech::nmos4um(), 16, 4);
        for case in [PhaseCase::all_active(), PhaseCase::phase(0)] {
            assert_hier_matches_flat(&c.netlist, case);
        }
    }

    #[test]
    fn desplit_mints_singleton_classes_once() {
        let mc = tv_gen::mips_mc::t6_mips_mc(Tech::nmos4um(), 2);
        let (_, ex) = spanned(&mc.netlist, PhaseCase::all_active(), 2);
        let mut ex = ex.unwrap();
        let fp0 = ex.fingerprint();
        // Find a root in a shared class.
        let shared = (0..ex.class_of.len() as u32)
            .find(|&r| ex.class_len[ex.class_of[r as usize] as usize] > 1)
            .expect("two identical cores must share something");
        assert_eq!(ex.desplit(&[shared]), 1);
        assert_ne!(ex.fingerprint(), fp0);
        // Now a singleton: a second de-share of the same root is a no-op.
        assert_eq!(ex.desplit(&[shared]), 0);
    }
}
