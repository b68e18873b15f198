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
//! This is the only graph builder. A flat build is the degenerate
//! partition where every root is its own class with an opaque table, and
//! that is exactly the fallback: any panic anywhere in extraction
//! re-emits every root by direct build, with per-root isolation for any
//! emission chunk that panics in turn.

use std::collections::HashMap;
use std::hash::Hasher;

use tv_clocks::qualify::Qualification;
use tv_flow::{DeviceRole, FlowAnalysis, NodeClass};
use tv_netlist::{codes, Diagnostic, FxHasher, NodeId};

use crate::fingerprint::mix64;
use crate::graph::{
    degraded_build_note, finish_graph, graph_build_fault_point, pull_down_resistance_with,
    pull_up_resistance, stage_inputs_into, Arc, ArcBuf, ArcDelay, ArcKind, BuildScratch,
    GraphBuilder, RootKind, RootSpans, SpannedBuild, StageInputKind, PAR_MIN_ROOTS,
};

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

/// Roots per signing block, the unit of phases A+B. A constant, never a
/// function of `jobs`: a block's traces are the only all-roots canon the
/// build ever holds at once, so at any thread count the retained canon is
/// bounded by the master traces plus `threads` blocks. Small on purpose:
/// at 1,024 the block buffers alone raised a served mips32 tenant's peak
/// by about half a MiB (EXPERIMENTS.md P15).
const SIGN_BLOCK: usize = 256;

/// One signing worker's state, reused across waves: node-sized scratch
/// plus the traces of the block it signed last.
struct Signer {
    scratch: BuildScratch,
    ms: MacroScratch,
    /// Per-root pin buffer: ordinals recorded in the canon are indices
    /// into *this root's* pin table, so it must restart at zero for every
    /// root (a running buffer would leak the root's position into its
    /// canon and kill all sharing).
    pin_buf: Vec<NodeId>,
    canon: Vec<u64>,
    pins: Vec<NodeId>,
    /// `(grouping key, canon word count, pin count)` per root.
    meta: Vec<(u64, u32, u32)>,
}

impl Signer {
    fn new(node_count: usize) -> Self {
        Signer {
            scratch: BuildScratch::new(node_count),
            ms: MacroScratch::new(node_count),
            pin_buf: Vec::new(),
            canon: Vec::new(),
            pins: Vec::new(),
            meta: Vec::with_capacity(SIGN_BLOCK),
        }
    }

    /// Phase A for one block: every root's grouping key, canonical trace
    /// and pin table, in root order.
    fn sign(
        &mut self,
        b: &GraphBuilder<'_>,
        block: &[(NodeId, RootKind)],
        stage_hashes: &[u64],
        fault: Fault<'_>,
    ) {
        self.canon.clear();
        self.pins.clear();
        self.meta.clear();
        for r in block {
            if let Some(hook) = fault {
                hook(r.0);
            }
            graph_build_fault_point();
            let c0 = self.canon.len();
            self.pin_buf.clear();
            root_canon(
                b,
                r,
                &mut self.scratch,
                &mut self.ms,
                &mut self.canon,
                &mut self.pin_buf,
            );
            let key = root_key(stage_hashes, b.flow, r);
            self.meta.push((
                key,
                (self.canon.len() - c0) as u32,
                self.pin_buf.len() as u32,
            ));
            self.pins.extend_from_slice(&self.pin_buf);
        }
    }
}

/// A test hook called on each root before it is signed or built flat
/// (tests poison chosen stages with a panicking hook).
type Fault<'a> = Option<&'a (dyn Fn(NodeId) + Sync)>;

/// What phases A–C learn: the class partition, every root's pin table,
/// and one macromodel table per class.
struct Classes {
    class_of: Vec<u32>,
    class_len: Vec<u32>,
    keys: Vec<u64>,
    pins: Vec<NodeId>,
    pin_starts: Vec<usize>,
    tables: Vec<MacroTable>,
}

impl Classes {
    /// Root `ri`'s shared table and pin table, or `None` when its class
    /// is opaque and the root must be built flat.
    fn shared(&self, ri: usize) -> Option<(&[MacroArc], &[ArcDelay], &[NodeId])> {
        match &self.tables[self.class_of[ri] as usize] {
            MacroTable::Arcs { arcs, rows } => Some((
                arcs,
                rows,
                &self.pins[self.pin_starts[ri]..self.pin_starts[ri + 1]],
            )),
            MacroTable::Opaque => None,
        }
    }
}

/// `items` cut into at most `threads` contiguous chunks (one below
/// [`PAR_MIN_ROOTS`], where thread startup dominates), each paired with
/// its start offset.
fn chunked<T>(items: &[T], threads: usize) -> Vec<(usize, &[T])> {
    let threads = if items.len() < PAR_MIN_ROOTS {
        1
    } else {
        threads
    };
    let chunk = items.len().div_ceil(threads).max(1);
    items
        .chunks(chunk)
        .enumerate()
        .map(|(k, c)| (k * chunk, c))
        .collect()
}

/// The hierarchical graph build: groups the root set into equivalence
/// classes, analyzes one master per class, instances the rest, and
/// finishes a graph whose arc and row lists are bit-identical to a
/// serial flat build of every root at any thread count.
/// `stage_hashes` is [`tv_flow::stage::Stages::structural_hashes`] of
/// the same netlist and flow (a pure function of both, so one analysis
/// computes it once for all its cases). Returns the per-root arc and row
/// spans (for splicing) and the [`Extraction`] partition (for
/// de-sharing); both are `None` when a panic degraded the build.
pub(crate) fn build_spanned(
    builder: &GraphBuilder<'_>,
    source_resistance: f64,
    jobs: usize,
    stage_hashes: &[u64],
) -> (SpannedBuild, Option<Extraction>) {
    hier_build(builder, source_resistance, jobs, stage_hashes, None)
}

/// [`build_spanned`] with the test hook. Extraction (phases A–C) either
/// completes or, on any panic, falls back to every root being its own
/// class with an opaque table; emission (phase D) then builds every root
/// flat. An emission chunk that panics is rebuilt root by root, each
/// root with fresh scratch under its own isolation: a root that panics
/// again contributes no arcs and is reported in the graph's
/// diagnostics. A panic on given inputs is deterministic, so the
/// surviving arc list is the same at any thread count.
fn hier_build(
    builder: &GraphBuilder<'_>,
    source_resistance: f64,
    jobs: usize,
    stage_hashes: &[u64],
    fault: Fault<'_>,
) -> (SpannedBuild, Option<Extraction>) {
    let nl = builder.netlist;
    let roots = builder.roots();
    let threads = jobs.max(1);
    let classes = extract(
        builder,
        &roots,
        source_resistance,
        threads,
        stage_hashes,
        fault,
    );
    if classes.is_none() {
        tv_obs::incr(tv_obs::Counter::FaultDegraded);
    }
    let (buf, spans, diagnostics) = emit(
        builder,
        &roots,
        classes.as_ref(),
        source_resistance,
        threads,
        fault,
    );
    // Consumed before `finish_graph`, so the pin tables never overlap
    // the CSR arrays at peak.
    let extraction = classes.filter(|_| diagnostics.is_empty()).map(account);
    (
        SpannedBuild {
            graph: finish_graph(nl.node_count(), buf, builder.case, diagnostics),
            roots,
            spans: extraction.is_some().then_some(spans),
        },
        extraction,
    )
}

/// Phases A–C: sign and group every root, then analyze one master per
/// class into a pin-indexed table. `None` if any of it panicked.
fn extract(
    builder: &GraphBuilder<'_>,
    roots: &[(NodeId, RootKind)],
    source_resistance: f64,
    threads: usize,
    stage_hashes: &[u64],
    fault: Fault<'_>,
) -> Option<Classes> {
    let node_count = builder.netlist.node_count();
    let n_roots = roots.len();

    // Phases A (signatures) and B (grouping), one block pipeline: each
    // wave of up to `threads` blocks is signed in parallel, then every
    // block joins its classes serially in root order. The block cover
    // is a pure function of the root list, so the grouping is
    // independent of `jobs`. Classes are looked up by the grouping key
    // mixed with a hash of the trace, so a bucket almost always holds at
    // most one class; the exact trace comparison against each
    // candidate's master stays as the collision check — equal lookup
    // keys with different traces stay separate classes. The first match
    // is the one a scan over every class of the grouping key would find
    // (at most one class per key has a given trace), so class ids and
    // the partition do not depend on the lookup key. Only master traces
    // outlive their block.
    let mut class_of: Vec<u32> = Vec::with_capacity(n_roots);
    let mut masters: Vec<u32> = Vec::new();
    let mut class_len: Vec<u32> = Vec::new();
    let mut keys: Vec<u64> = Vec::with_capacity(n_roots);
    let mut pins: Vec<NodeId> = Vec::new();
    let mut pin_starts: Vec<usize> = Vec::with_capacity(n_roots + 1);
    pin_starts.push(0);
    let mut master_canon: Vec<u64> = Vec::new();
    let mut master_canon_starts: Vec<usize> = vec![0];
    // The default (keyed) hasher stays: the lookup keys derive from
    // netlist content, which arrives from outside the program.
    let mut by_key: HashMap<u64, Vec<u32>> = HashMap::new();
    let blocks: Vec<&[(NodeId, RootKind)]> = roots.chunks(SIGN_BLOCK).collect();
    let mut signers: Vec<Signer> = (0..threads.min(blocks.len()))
        .map(|_| Signer::new(node_count))
        .collect();
    for wave in blocks.chunks(signers.len().max(1)) {
        let work: Vec<_> = wave.iter().zip(signers.iter_mut()).collect();
        let signed = tv_fault::isolated_map(work, threads, |(block, signer)| {
            signer.sign(builder, block, stage_hashes, fault)
        });
        for (done, signer) in signed.into_iter().zip(&signers) {
            done.ok()?;
            pins.extend_from_slice(&signer.pins);
            let mut c0 = 0usize;
            for &(key, cw, pw) in &signer.meta {
                let r = keys.len() as u32;
                keys.push(key);
                pin_starts.push(pin_starts.last().unwrap() + pw as usize);
                let canon = &signer.canon[c0..c0 + cw as usize];
                c0 += cw as usize;
                let cands = by_key.entry(mix64(key, trace_hash(canon))).or_default();
                let hit = cands.iter().copied().find(|&cid| {
                    let c = cid as usize;
                    master_canon[master_canon_starts[c]..master_canon_starts[c + 1]] == *canon
                });
                match hit {
                    Some(cid) => {
                        class_of.push(cid);
                        class_len[cid as usize] += 1;
                    }
                    None => {
                        let cid = masters.len() as u32;
                        masters.push(r);
                        class_len.push(1);
                        class_of.push(cid);
                        cands.push(cid);
                        master_canon.extend_from_slice(canon);
                        master_canon_starts.push(master_canon.len());
                    }
                }
            }
        }
    }
    drop((by_key, signers, master_canon, master_canon_starts));

    // Phase C: analyze one master per class into a pin-indexed table.
    let analyze_chunk = |master_chunk: &[u32]| -> Vec<MacroTable> {
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
            ms.begin();
            for (i, &p) in pins[pin_starts[m]..pin_starts[m + 1]].iter().enumerate() {
                ms.mark[p.index()] = ms.epoch;
                ms.ord[p.index()] = i as u32;
            }
            let table: Option<Vec<MacroArc>> = buf
                .arcs
                .iter()
                .map(|a| {
                    Some(MacroArc {
                        from_pin: ms.lookup(a.from)?,
                        to_pin: ms.lookup(a.to)?,
                        delay: a.delay,
                        inverting: a.inverting,
                        kind: a.kind,
                    })
                })
                .collect();
            tables.push(match table {
                Some(arcs) => MacroTable::Arcs {
                    arcs,
                    rows: buf.delays.clone(),
                },
                None => MacroTable::Opaque,
            });
        }
        tables
    };
    let mut tables: Vec<MacroTable> = Vec::with_capacity(masters.len());
    for part in tv_fault::isolated_map(chunked(&masters, threads), threads, |(_, mc)| {
        analyze_chunk(mc)
    }) {
        tables.extend(part.ok()?);
    }
    Some(Classes {
        class_of,
        class_len,
        keys,
        pins,
        pin_starts,
        tables,
    })
}

/// Phase D: emits every root in order — shared classes by pin remap and
/// a rebased copy of the master's rows, opaque classes (every root, when
/// `classes` is `None`) by direct flat build — and returns the arcs, the
/// per-root spans, and the diagnostics of any chunk that had to be
/// rebuilt root by root.
fn emit(
    builder: &GraphBuilder<'_>,
    roots: &[(NodeId, RootKind)],
    classes: Option<&Classes>,
    source_resistance: f64,
    threads: usize,
    fault: Fault<'_>,
) -> (ArcBuf, RootSpans, Vec<Diagnostic>) {
    let nl = builder.netlist;
    let n_roots = roots.len();
    let emit_root = |ri: usize, buf: &mut ArcBuf, scratch: &mut BuildScratch| match classes
        .and_then(|c| c.shared(ri))
    {
        Some((arcs, rows, pins)) => {
            let base = buf.delays.len() as u32;
            buf.delays.extend_from_slice(rows);
            buf.arcs.extend(arcs.iter().map(|ma| Arc {
                from: pins[ma.from_pin as usize],
                to: pins[ma.to_pin as usize],
                delay: base + ma.delay,
                inverting: ma.inverting,
                kind: ma.kind,
            }));
        }
        None => {
            if let Some(hook) = fault {
                hook(roots[ri].0);
            }
            graph_build_fault_point();
            builder.build_root(&roots[ri], source_resistance, buf, scratch);
        }
    };
    type EmitPart = (ArcBuf, Vec<(u32, u32)>);
    let emit_chunk = |(start, root_chunk): (usize, &[(NodeId, RootKind)])| -> EmitPart {
        // Reserve the exact instanced totals upfront (opaque roots still
        // grow, but they are the rare case): at a million devices the
        // chunk emits tens of millions of arcs, and growth doubling would
        // copy them repeatedly.
        let (est_arcs, est_rows) = (start..start + root_chunk.len())
            .filter_map(|ri| classes.and_then(|c| c.shared(ri)))
            .fold((0, 0), |(a, r), (arcs, rows, _)| {
                (a + arcs.len(), r + rows.len())
            });
        let mut buf = ArcBuf {
            arcs: Vec::with_capacity(est_arcs),
            delays: Vec::with_capacity(est_rows),
        };
        let mut counts: Vec<(u32, u32)> = Vec::with_capacity(root_chunk.len());
        let mut scratch = BuildScratch::new(nl.node_count());
        for ri in start..start + root_chunk.len() {
            let (arcs_before, rows_before) = (buf.arcs.len(), buf.delays.len());
            emit_root(ri, &mut buf, &mut scratch);
            counts.push((
                (buf.arcs.len() - arcs_before) as u32,
                (buf.delays.len() - rows_before) as u32,
            ));
        }
        (buf, counts)
    };
    // Degraded path: per-root isolation. Each root builds into its own
    // buffer with fresh scratch (a panic can leave stale flags behind),
    // so a mid-stage panic discards only that stage.
    let recover_chunk = |(start, root_chunk): (usize, &[(NodeId, RootKind)]),
                         diagnostics: &mut Vec<Diagnostic>|
     -> EmitPart {
        let mut buf = ArcBuf::default();
        let mut counts: Vec<(u32, u32)> = Vec::with_capacity(root_chunk.len());
        let attempts =
            tv_fault::isolated_map((start..start + root_chunk.len()).collect(), 1, |ri| {
                let mut part = ArcBuf::default();
                emit_root(ri, &mut part, &mut BuildScratch::new(nl.node_count()));
                part
            });
        for (r, attempt) in root_chunk.iter().zip(attempts) {
            match attempt {
                Ok(part) => {
                    counts.push((part.arcs.len() as u32, part.delays.len() as u32));
                    buf.append(part);
                }
                Err(()) => {
                    counts.push((0, 0));
                    diagnostics.push(Diagnostic::error(
                        codes::ANALYSIS_WORKER_PANIC,
                        format!(
                            "graph construction panicked for the stage rooted at node {:?}; stage omitted from analysis",
                            nl.node_name(r.0)
                        ),
                    ));
                }
            }
        }
        (buf, counts)
    };

    let chunks = chunked(roots, threads);
    let parts = tv_fault::isolated_map(chunks.clone(), threads, emit_chunk);
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    if parts.iter().any(Result::is_err) {
        diagnostics.push(degraded_build_note());
    }
    let parts: Vec<EmitPart> = chunks
        .into_iter()
        .zip(parts)
        .map(|(chunk, part)| part.unwrap_or_else(|()| recover_chunk(chunk, &mut diagnostics)))
        .collect();
    let arc_total: usize = parts.iter().map(|(b, _)| b.arcs.len()).sum();
    let row_total: usize = parts.iter().map(|(b, _)| b.delays.len()).sum();
    let mut buf = ArcBuf::default();
    let mut spans = RootSpans {
        arcs: Vec::with_capacity(n_roots + 1),
        rows: Vec::with_capacity(n_roots + 1),
    };
    spans.arcs.push(0);
    spans.rows.push(0);
    // The serial build produces one part: `append` takes its vectors
    // whole rather than copying ~GBs of arcs.
    for (i, (part, counts)) in parts.into_iter().enumerate() {
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
    debug_assert_eq!(*spans.arcs.last().unwrap() as usize, buf.arcs.len());
    debug_assert_eq!(*spans.rows.last().unwrap() as usize, buf.delays.len());
    (buf, spans, diagnostics)
}

/// Work accounting for a clean build: a class whose table shared counts
/// one analysis and `len - 1` instancings; an opaque class analyzed
/// every member.
fn account(c: Classes) -> Extraction {
    let mut analyzed: u64 = 0;
    let mut instanced: u64 = 0;
    for (table, &len) in c.tables.iter().zip(&c.class_len) {
        match table {
            MacroTable::Arcs { .. } => {
                analyzed += 1;
                instanced += (len - 1) as u64;
            }
            MacroTable::Opaque => analyzed += len as u64,
        }
    }
    let n_classes = c.tables.len();
    tv_obs::add(tv_obs::Counter::MacroClasses, n_classes as u64);
    tv_obs::add(tv_obs::Counter::MacroAnalyzed, analyzed);
    tv_obs::add(tv_obs::Counter::MacroInstanced, instanced);

    let mut fp = 0x9c0d_e1a2_57a9_0e5d_u64;
    for (&key, &cid) in c.keys.iter().zip(&c.class_of) {
        fp = mix64(fp, key);
        fp = mix64(fp, cid as u64);
    }
    Extraction {
        class_of: c.class_of,
        class_len: c.class_len,
        classes: n_classes,
        analyzed,
        instanced,
        fp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{PhaseCase, TimingGraph};
    use crate::options::DelayModel;
    use tv_clocks::qualify::qualify_with_flow;
    use tv_flow::{analyze, RuleSet};
    use tv_netlist::{Netlist, Tech};

    fn spanned(nl: &Netlist, case: PhaseCase, jobs: usize) -> (SpannedBuild, Option<Extraction>) {
        let flow = analyze(nl, &RuleSet::all());
        let qual = qualify_with_flow(nl, &flow);
        let hashes = flow.stages().structural_hashes(nl);
        build_spanned(&builder(nl, &flow, &qual, case), 1.0, jobs, &hashes)
    }

    fn builder<'a>(
        nl: &'a Netlist,
        flow: &'a FlowAnalysis,
        qual: &'a [Qualification],
        case: PhaseCase,
    ) -> GraphBuilder<'a> {
        GraphBuilder {
            netlist: nl,
            flow,
            qualification: qual,
            case,
            model: DelayModel::Elmore,
        }
    }

    /// The flat reference: every root built directly, serially, into one
    /// buffer — no classes, no threads, no isolation. Roots in `skip` are
    /// left out.
    fn flat_reference(b: &GraphBuilder<'_>, skip: &[NodeId]) -> TimingGraph {
        let mut buf = ArcBuf::default();
        let mut scratch = BuildScratch::new(b.netlist.node_count());
        for r in b.roots().iter().filter(|r| !skip.contains(&r.0)) {
            b.build_root(r, 1.0, &mut buf, &mut scratch);
        }
        finish_graph(b.netlist.node_count(), buf, b.case, Vec::new())
    }

    fn assert_same_graph(g: &TimingGraph, flat: &TimingGraph, what: &str) {
        assert_eq!(g.arc_count(), flat.arc_count(), "{what}");
        assert_eq!(g.delays.len(), flat.delays.len(), "{what}");
        for (h, f) in g.arcs.iter().zip(flat.arcs.iter()) {
            assert_eq!(h.from, f.from, "{what}");
            assert_eq!(h.to, f.to, "{what}");
            assert_eq!(h.kind, f.kind, "{what}");
            assert_eq!(h.inverting, f.inverting, "{what}");
            assert_eq!(h.delay, f.delay, "{what}");
            assert_eq!(g.delay_of(h).words(), flat.delay_of(f).words(), "{what}");
        }
    }

    fn assert_hier_matches_flat(nl: &Netlist, case: PhaseCase) -> Extraction {
        let flow = analyze(nl, &RuleSet::all());
        let qual = qualify_with_flow(nl, &flow);
        let flat = flat_reference(&builder(nl, &flow, &qual, case), &[]);
        let mut last = None;
        for jobs in [1usize, 2, 8] {
            let (sb, ex) = spanned(nl, case, jobs);
            let ex = ex.expect("clean build must extract");
            assert_same_graph(&sb.graph, &flat, &format!("jobs {jobs}"));
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
    fn panicked_stage_is_omitted_with_diagnostic_at_any_thread_count() {
        let nl = &tv_gen::mips_mc::t6_mips_mc(Tech::nmos4um(), 2).netlist;
        let flow = analyze(nl, &RuleSet::all());
        let qual = qualify_with_flow(nl, &flow);
        let hashes = flow.stages().structural_hashes(nl);
        let b = builder(nl, &flow, &qual, PhaseCase::all_active());
        let (clean, ex) = build_spanned(&b, 1.0, 1, &hashes);
        let ex = ex.expect("clean build must extract");
        assert!(clean.graph.diagnostics.is_empty());
        // One class master, one instanced root and one source root.
        let roots = &clean.roots;
        let shared = |r: usize| ex.class_len[ex.class_of[r] as usize] > 1;
        let master = (0..roots.len())
            .find(|&r| shared(r))
            .expect("a shared class");
        let instance = (master + 1..roots.len())
            .find(|&r| ex.class_of[r] == ex.class_of[master])
            .expect("the class has a second member");
        let source = (0..roots.len())
            .find(|&r| roots[r].1 == RootKind::Source)
            .expect("a source root");
        let bad = [roots[master].0, roots[instance].0, roots[source].0];
        let hook = move |root: NodeId| {
            if bad.contains(&root) {
                panic!("injected fault");
            }
        };
        let expected = flat_reference(&b, &bad);
        for jobs in [1usize, 2, 4, 8] {
            let (sb, ex) = hier_build(&b, 1.0, jobs, &hashes, Some(&hook));
            assert!(sb.spans.is_none() && ex.is_none(), "jobs {jobs}");
            assert_same_graph(&sb.graph, &expected, &format!("jobs {jobs}"));
            let errors = sb
                .graph
                .diagnostics
                .iter()
                .filter(|d| {
                    d.code == codes::ANALYSIS_WORKER_PANIC
                        && d.severity == tv_netlist::Severity::Error
                })
                .count();
            assert_eq!(errors, bad.len(), "jobs {jobs}");
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
