//! Hierarchical macromodel extraction: analyze each unique stage once,
//! instance it N times.
//!
//! The paper's analyzer treats every channel-connected stage as an
//! independent RC problem — which is exactly what makes hierarchy
//! exploitable. A 67-core datapath contains 67 structurally identical
//! copies of every bit-slice stage, whose Elmore trees are the same 67
//! times. This module groups build roots into **equivalence classes**,
//! analyzes one *master* per class into a pin-indexed arc table (the
//! macromodel), and emits every other member by remapping the table's
//! pin ordinals onto that instance's own nodes.
//!
//! One function reads a root's timing scalars off the netlist, and one
//! turns them into arcs. `root_canon` writes the **canonical trace**:
//! every scalar arc emission reads — pull-up/pull-down resistances,
//! per-walk-node caps, pass-device resistances, tree topology, input
//! order and kinds, precharge resistances, domino flags — in a fixed
//! scan order, with every [`NodeId`] replaced by its first-encounter
//! ordinal. `emit_trace` turns a trace into the root's arc table over
//! those ordinals, reading nothing else but globals (`Tech`,
//! `DelayModel`, source resistance). So equal traces give equal tables
//! by construction, and pin `k` of an instance corresponds to pin `k` of
//! its master.
//!
//! The trace is therefore the one class key (DESIGN.md §16): two roots
//! share a class exactly when their traces match word for word. Classes
//! are looked up by a hash of the trace, and the trace *is* the
//! collision check. No coarser structural key sits in front of it: such
//! a key could only split classes whose arcs are identical.
//!
//! This is the only graph builder. A root built alone (`build_root`:
//! sign, emit, instance) is a class of one, and that is the fallback:
//! any panic anywhere in extraction re-emits every root alone, with
//! per-root isolation for any emission chunk that panics in turn.
//!
//! The same idea runs across clock cases. While the all-active build
//! signs a root it records the root's **case mask**: bit `q` is set when
//! a pass device its walk crosses, or a precharge device on its channel,
//! is gated by a node qualified to phase `q`. A root whose mask has no
//! bit but `p` is *invariant* in case `p` — its walk, trace, pins and
//! arcs there are its all-active ones. So the all-active build leaves a
//! `CaseShare` (masks and its whole partition: every class's master
//! trace and table), and a phase case is built as a **view** over the
//! all-active graph (`build_view`): it signs and emits only the roots
//! its phase replaces, and reads every invariant root's arcs in place.
//! A replaced root whose trace matches an all-active class joins it and
//! borrows its table. A phase that replaces no root is the empty view
//! (DESIGN.md §10, §16).

use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::Hasher;
use std::mem::take;
use std::ops::Range;

use tv_clocks::qualify::Qualification;
use tv_flow::{DeviceRole, NodeClass};
use tv_netlist::{codes, Diagnostic, FxHasher, NodeId};
use tv_rc::elmore::{crossing_estimate, elmore_delays};
use tv_rc::tree::{RcNodeId, RcTree};

use crate::fingerprint::mix64;
use crate::graph::{
    degraded_build_note, finish_graph, graph_build_fault_point, pull_down_resistance_with,
    pull_up_resistance, stage_inputs_into, Arc, ArcBuf, ArcDelay, ArcKind, BuildScratch,
    GraphBuilder, PhaseView, RootKind, RootSpans, SpannedBuild, StageInputKind, TimingGraph,
    PAR_MIN_ROOTS,
};
use crate::options::DelayModel;

/// What the extractor learned about one build: the class partition of
/// the root set. Lives in the graph slot so a later parametric edit can
/// **de-share** the touched instances (see `Extraction::desplit`).
#[derive(Debug, PartialEq, Eq)]
pub struct Extraction {
    /// Class id per root ordinal.
    class_of: Vec<u32>,
    /// Member count per class (grows as de-sharing mints new classes).
    class_len: Vec<u32>,
    /// Classes at extraction time (before any de-sharing).
    classes: usize,
    /// Roots emitted by pin-remapping a shared table.
    instanced: u64,
    /// Content fingerprint of the partition (the class of every root),
    /// advanced by every de-share.
    fp: u64,
}

impl Extraction {
    /// Number of equivalence classes at extraction time.
    pub fn classes(&self) -> usize {
        self.classes
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
/// and its row index relative to the table's first delay row.
#[derive(Clone)]
struct MacroArc {
    from_pin: u32,
    to_pin: u32,
    delay: u32,
    inverting: bool,
    kind: ArcKind,
}

/// The analysis result for one class: a pin-indexed arc table with its
/// delay rows, numbered from 0. Only [`emit_trace`] writes one.
#[derive(Clone, Default)]
pub(crate) struct MacroTable {
    arcs: Vec<MacroArc>,
    rows: Vec<ArcDelay>,
}

impl MacroTable {
    /// Pushes a delay row and returns its index.
    fn row(&mut self, d: ArcDelay) -> u32 {
        self.rows.push(d);
        (self.rows.len() - 1) as u32
    }

    fn arc(&mut self, from_pin: u64, to_pin: u64, delay: u32, inverting: bool, kind: ArcKind) {
        self.arcs.push(MacroArc {
            from_pin: from_pin as u32,
            to_pin: to_pin as u32,
            delay,
            inverting,
            kind,
        });
    }

    /// Appends the table's arcs to `arcs` for a root whose pin table is
    /// `pins` and whose copy of the table's rows starts at row id
    /// `first_row`: every pin ordinal mapped to its node, and every row
    /// index offset by `first_row`. It copies no row: the instances of a
    /// class all read the one block of its rows.
    pub(crate) fn instance(&self, pins: &[NodeId], first_row: u32, arcs: &mut Vec<Arc>) {
        arcs.extend(self.arcs.iter().map(|ma| Arc {
            from: pins[ma.from_pin as usize],
            to: pins[ma.to_pin as usize],
            delay: first_row + ma.delay,
            inverting: ma.inverting,
            kind: ma.kind,
        }));
    }
}

const CANON_STAGE: u64 = 1;
const CANON_SOURCE: u64 = 2;

/// Words per walk record of a canonical trace: pin ordinal, parent walk
/// index, connecting pass-device resistance and gate ordinal, node cap,
/// precharged flag. The root's parent is `u64::MAX` and its via words
/// are `[0, u64::MAX]`.
const WALK_WORDS: usize = 6;

/// Stage-input kind words of a canonical trace.
const INPUT_PULL_DOWN: u64 = 0;
const INPUT_PULL_UP: u64 = 1;
const INPUT_PASS_DATA: u64 = 2;

/// The inputs a source root's emission reads: its one input is pass data
/// from its own pin, ordinal 0.
const SOURCE_INPUTS: [u64; 2] = [0, INPUT_PASS_DATA];

/// The case-mask bits of a device gated by a node of qualification `q`:
/// bit `q` for `Phase(q)` of a two-phase clock (the device is off in the
/// other case), both bits for any other phase (off in both), none for an
/// unclocked or conflicting gate (on in every case).
fn case_bits(q: Qualification) -> u8 {
    match q {
        Qualification::Phase(0) => 1,
        Qualification::Phase(1) => 2,
        Qualification::Phase(_) => 3,
        _ => 0,
    }
}

/// The mask bit of phase case `p`.
fn phase_bit(p: u8) -> u8 {
    1 << p.min(1)
}

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

/// Serializes the downstream walk as [`emit_trace`] reads it: one
/// [`WALK_WORDS`] record per walk node, preceded by the node count.
/// Returns the case bits of the pass devices the walk crosses.
fn walk_canon(
    b: &GraphBuilder<'_>,
    scratch: &mut BuildScratch,
    canon: &mut Vec<u64>,
    pins: &mut Vec<NodeId>,
) -> u8 {
    let nl = b.netlist;
    let tech = nl.tech();
    let mut mask = 0;
    canon.push(scratch.walk.len() as u64);
    for i in 0..scratch.walk.len() {
        let w = scratch.walk[i];
        canon.push(scratch.pin_ordinal(pins, w.node));
        canon.push(w.parent.map_or(u64::MAX, |p| p as u64));
        match w.via {
            Some(did) => {
                let dev = nl.device(did);
                mask |= case_bits(b.qualification[dev.gate().index()]);
                canon.push(dev.resistance(tech).to_bits());
                canon.push(scratch.pin_ordinal(pins, dev.gate()));
            }
            None => canon.extend([0, u64::MAX]),
        }
        canon.push(nl.node_cap(w.node).to_bits());
        canon.push((b.flow.node_class(w.node) == NodeClass::Precharged) as u64);
    }
    mask
}

/// The canonical trace of one build root: every scalar arc emission
/// reads, in a fixed scan order, with NodeIds replaced by first-encounter
/// ordinals (recorded in `pins`). This is the only place a root's timing
/// scalars are read off the netlist: [`emit_trace`] turns the trace into
/// the root's arc table, so two roots with equal traces have equal
/// tables.
///
/// A stage's trace is `CANON_STAGE`, its pull-up and pull-down
/// resistances (each a present flag and the bits), its walk, its input
/// count and `(pin, kind)` pairs, then one `(gate pin, resistance)` pair
/// per firing precharge device. A source's is `CANON_SOURCE` and its
/// walk.
///
/// Returns the root's case mask under `b`'s case: the case bits of every
/// pass device the walk crosses and every precharge device on a stage's
/// channel. Under the all-active case that mask decides invariance: in
/// phase case `p` the walk and the precharge test differ from the
/// all-active ones only on devices gated by a phase other than `p`, and
/// a root whose mask has no such bit crossed none and owns none — a
/// device of that kind the all-active walk did not cross is skipped
/// under both cases. So the root's walk, trace, pins and arcs in case
/// `p` are its all-active ones.
fn root_canon(
    b: &GraphBuilder<'_>,
    root: &(NodeId, RootKind),
    scratch: &mut BuildScratch,
    canon: &mut Vec<u64>,
    pins: &mut Vec<NodeId>,
) -> u8 {
    let nl = b.netlist;
    scratch.begin_pins();
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
            let mut mask = walk_canon(b, scratch, canon, pins);
            stage_inputs_into(nl, b.flow, out, scratch);
            canon.push(scratch.inputs.len() as u64);
            for i in 0..scratch.inputs.len() {
                let inp = scratch.inputs[i];
                canon.push(scratch.pin_ordinal(pins, inp.node));
                canon.push(match inp.kind {
                    StageInputKind::PullDownGate => INPUT_PULL_DOWN,
                    StageInputKind::PullUpGate => INPUT_PULL_UP,
                });
            }
            // Precharge devices that fire in the case, in channel order:
            // under case analysis a precharge gated by the other phase is
            // off.
            for &did in nl.node_devices(out).channel {
                if b.flow.device_role(did) != DeviceRole::Precharge {
                    continue;
                }
                let gate = nl.device(did).gate();
                mask |= case_bits(b.qualification[gate.index()]);
                let on = match (b.case.active, b.qualification[gate.index()]) {
                    (None, _) => true,
                    (Some(p), Qualification::Phase(q)) => p == q,
                    (Some(_), _) => true,
                };
                if !on {
                    continue;
                }
                canon.push(scratch.pin_ordinal(pins, gate));
                canon.push(nl.device(did).resistance(nl.tech()).to_bits());
            }
            mask
        }
        RootKind::Source => {
            canon.push(CANON_SOURCE);
            b.walk_downstream(root.0, scratch);
            walk_canon(b, scratch, canon, pins)
        }
    }
}

/// Per-walk-record delay estimates and Elmore time constants of the RC
/// tree the trace's walk records describe, driven through `driver_r`
/// under `b`'s delay model. A rising transition derates pass devices by
/// the technology's `pass_rise_factor`; a non-finite driver disables the
/// transition (infinite delays, zero time constants).
fn tree_delays(
    b: &GraphBuilder<'_>,
    walk: &[u64],
    driver_r: f64,
    rise: bool,
) -> (Vec<f64>, Vec<f64>) {
    let n = walk.len() / WALK_WORDS;
    if !driver_r.is_finite() {
        return (vec![f64::INFINITY; n], vec![0.0; n]);
    }
    let tech = b.netlist.tech();
    let x = 1.0 - tech.switch_fraction; // fraction remaining at crossing
    let mut tree = RcTree::new(driver_r);
    tree.add_cap(tree.root(), f64::from_bits(walk[4]));
    for w in walk.chunks_exact(WALK_WORDS).skip(1) {
        let mut r = f64::from_bits(w[2]);
        if rise {
            r *= tech.pass_rise_factor;
        }
        // Walk indices are RC node ids: both are assigned parent-first.
        tree.add_child(RcNodeId::from_index(w[1] as usize), r, f64::from_bits(w[4]));
    }
    let elmore = elmore_delays(&tree);
    let delays = match b.model {
        DelayModel::Elmore => elmore.iter().map(|&e| crossing_estimate(e, x)).collect(),
        DelayModel::Lumped => vec![crossing_estimate(driver_r * tree.total_cap(), x); n],
        DelayModel::UpperBound => elmore.iter().map(|&e| e / x).collect(),
    };
    (delays, elmore)
}

/// Emits the arc table of the root whose canonical trace is `canon` into
/// `table` (cleared first): arcs over pin ordinals, rows numbered from 0.
/// This is the one function that writes an arc table. It reads only the
/// trace, `Tech::{switch_fraction, pass_rise_factor}`, `b`'s delay model
/// and `source_resistance`, so equal traces give equal tables.
///
/// A stage drives its walk through its pull-up (rise) and pull-down
/// (fall) resistances. Each walk node gets one delay row shared by its
/// pull-down-gate and pass-control arcs, a second (fall disabled) when
/// the stage has pull-up-gate inputs, and one per firing precharge
/// device; a row is emitted only when an arc uses it. A source is a
/// stage driven through `source_resistance` both ways whose one input is
/// pass data from pin 0, emitted below its own walk root.
pub(crate) fn emit_trace(
    b: &GraphBuilder<'_>,
    source_resistance: f64,
    canon: &[u64],
    table: &mut MacroTable,
) {
    table.arcs.clear();
    table.rows.clear();
    let stage = canon[0] == CANON_STAGE;
    let opt_f64 = |w: &[u64]| match w[0] {
        0 => f64::INFINITY,
        _ => f64::from_bits(w[1]),
    };
    let (drive, at) = if stage {
        ([opt_f64(&canon[1..3]), opt_f64(&canon[3..5])], 5)
    } else {
        ([source_resistance; 2], 1)
    };
    let n = canon[at] as usize;
    let walk = &canon[at + 1..at + 1 + n * WALK_WORDS];
    let rest = &canon[at + 1 + n * WALK_WORDS..];
    let (inputs, precharges, first): (&[u64], &[u64], usize) = if stage {
        let k = 1 + 2 * rest[0] as usize;
        (&rest[1..k], &rest[k..], 0)
    } else {
        (&SOURCE_INPUTS, &[], 1)
    };
    let kinds = || inputs.chunks_exact(2).map(|inp| inp[1]);
    let has_main = kinds().any(|k| k != INPUT_PULL_UP);
    let has_pull = kinds().any(|k| k == INPUT_PULL_UP);
    let (rise_d, rise_tau) = tree_delays(b, walk, drive[0], true);
    let (fall_d, fall_tau) = tree_delays(b, walk, drive[1], false);
    let record = |i: usize| &walk[i * WALK_WORDS..(i + 1) * WALK_WORDS];
    let mut controls: Vec<u64> = Vec::new();
    for i in first..n {
        let w = record(i);
        // Domino discipline: a precharged node starts its evaluation
        // phase high and can only FALL until the next precharge; a
        // "rise" through logic is not a transition it can make. Only
        // the precharge arc itself may raise it.
        let row = ArcDelay {
            rise_delay: if w[5] != 0 { f64::INFINITY } else { rise_d[i] },
            fall_delay: fall_d[i],
            rise_tau: rise_tau[i],
            fall_tau: fall_tau[i],
        };
        // Pass controls along the path, root to leaf: when the
        // latest-arriving control rises, the whole path conducts.
        controls.clear();
        let mut j = i;
        while j != 0 {
            controls.push(record(j)[3]);
            j = record(j)[1] as usize;
        }
        controls.reverse();
        let main = (has_main || !controls.is_empty()).then(|| table.row(row));
        let pull = has_pull.then(|| {
            table.row(ArcDelay {
                fall_delay: f64::INFINITY,
                ..row
            })
        });
        for inp in inputs.chunks_exact(2) {
            let (d, inverting, kind) = match inp[1] {
                INPUT_PULL_DOWN => (main, true, ArcKind::Gate),
                INPUT_PULL_UP => (pull, false, ArcKind::BufferPull),
                _ => (main, false, ArcKind::PassData),
            };
            let d = d.expect("a row exists for every input kind present");
            table.arc(inp[0], w[0], d, inverting, kind);
        }
        for &ctrl in &controls {
            let d = main.expect("controls present, so the shared row exists");
            table.arc(ctrl, w[0], d, false, ArcKind::PassControl);
        }
    }
    // Precharge arcs: the precharge clock raises the root and its
    // subtree.
    for pre in precharges.chunks_exact(2) {
        let (pre_rise, pre_tau) = tree_delays(b, walk, f64::from_bits(pre[1]), true);
        for i in 0..n {
            let d = table.row(ArcDelay {
                rise_delay: pre_rise[i],
                fall_delay: f64::INFINITY,
                rise_tau: pre_tau[i],
                fall_tau: pre_tau[i],
            });
            table.arc(pre[0], record(i)[0], d, false, ArcKind::Precharge);
        }
    }
}

/// Builds one root alone into `buf`: signs it, emits its table from the
/// trace, appends the table's rows as a block of the root's own and
/// instances the table on its pins over that block — the arcs a class
/// build gives the root, with rows of its own. Degraded emission and
/// splices use it; the trace, pins and table buffers are the scratch's,
/// so a splice of many roots allocates them once.
pub(crate) fn build_root(
    b: &GraphBuilder<'_>,
    root: &(NodeId, RootKind),
    source_resistance: f64,
    buf: &mut ArcBuf,
    scratch: &mut BuildScratch,
) {
    let (mut canon, mut pins) = (take(&mut scratch.canon), take(&mut scratch.pins));
    let mut table = take(&mut scratch.table);
    canon.clear();
    pins.clear();
    root_canon(b, root, scratch, &mut canon, &mut pins);
    emit_trace(b, source_resistance, &canon, &mut table);
    let first_row = buf.delays.len() as u32;
    buf.delays.extend_from_slice(&table.rows);
    table.instance(&pins, first_row, &mut buf.arcs);
    (scratch.canon, scratch.pins, scratch.table) = (canon, pins, table);
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
    /// Per-root pin buffer: ordinals recorded in the canon are indices
    /// into *this root's* pin table, so it must restart at zero for every
    /// root (a running buffer would leak the root's position into its
    /// canon and kill all sharing).
    pin_buf: Vec<NodeId>,
    canon: Vec<u64>,
    pins: Vec<NodeId>,
    /// `(canon word count, pin count, case mask)` per signed root.
    meta: Vec<(u32, u32, u8)>,
}

impl Signer {
    fn new(node_count: usize) -> Self {
        Signer {
            scratch: BuildScratch::new(node_count),
            pin_buf: Vec::new(),
            canon: Vec::new(),
            pins: Vec::new(),
            meta: Vec::with_capacity(SIGN_BLOCK),
        }
    }

    /// Phase A for one block: every signed root's canonical trace, pin
    /// table and case mask, in root order. Every root of the
    /// block crosses the fault hooks once, signed or not, so a fault plan
    /// counts the same hits whether or not a build has a share.
    fn sign(
        &mut self,
        b: &GraphBuilder<'_>,
        roots: &[(NodeId, RootKind)],
        block: Range<usize>,
        base: Option<Base<'_>>,
        fault: Fault<'_>,
    ) {
        self.canon.clear();
        self.pins.clear();
        self.meta.clear();
        for ri in block {
            let r = &roots[ri];
            if let Some(hook) = fault {
                hook(r.0);
            }
            graph_build_fault_point();
            if base.is_some_and(|s| s.invariant(ri)) {
                continue;
            }
            let c0 = self.canon.len();
            self.pin_buf.clear();
            let mask = root_canon(b, r, &mut self.scratch, &mut self.canon, &mut self.pin_buf);
            self.meta.push((
                (self.canon.len() - c0) as u32,
                self.pin_buf.len() as u32,
                mask,
            ));
            self.pins.extend_from_slice(&self.pin_buf);
        }
    }
}

/// A test hook called on each root before it is signed or built alone
/// (tests poison chosen stages with a panicking hook).
pub(crate) type Fault<'a> = Option<&'a (dyn Fn(NodeId) + Sync)>;

/// The class lookup of a build: master traces by [`trace_hash`].
#[derive(Default)]
struct Lookup {
    /// Trace hash to the classes whose master trace hashed there.
    by_hash: HashMap<u64, Vec<u32>>,
    master_canon: Vec<u64>,
    master_canon_starts: Vec<usize>,
}

impl Lookup {
    fn new() -> Self {
        Lookup {
            master_canon_starts: vec![0],
            ..Default::default()
        }
    }

    /// Number of classes.
    fn len(&self) -> usize {
        self.master_canon_starts.len() - 1
    }

    /// Class `c`'s master trace.
    fn trace(&self, c: u32) -> &[u64] {
        let c = c as usize;
        &self.master_canon[self.master_canon_starts[c]..self.master_canon_starts[c + 1]]
    }

    /// The class whose master trace is `canon`, which hashes to `hash`.
    /// At most one class has a given trace, so the first match is the
    /// only one.
    fn find(&self, hash: u64, canon: &[u64]) -> Option<u32> {
        self.by_hash
            .get(&hash)?
            .iter()
            .copied()
            .find(|&c| self.trace(c) == canon)
    }

    /// The class whose master trace is `canon`, minted (the next id) with
    /// `canon` as its master trace if there is none.
    fn find_or_mint(&mut self, hash: u64, canon: &[u64]) -> u32 {
        if let Some(cid) = self.find(hash, canon) {
            return cid;
        }
        let cid = self.len() as u32;
        self.by_hash.entry(hash).or_default().push(cid);
        self.master_canon.extend_from_slice(canon);
        self.master_canon_starts.push(self.master_canon.len());
        cid
    }
}

/// What the all-active build of a clocked design leaves for the phase
/// views of the same analysis (see the module docs): its masks and its
/// whole partition, with the lookup and tables of every class. A phase
/// view reads the classes of the roots it does not replace, and looks
/// the traces of the roots it does replace up against every all-active
/// class first, so a replaced root joins a class of the same trace and
/// borrows its table rather than minting an equal one.
pub(crate) struct CaseShare {
    /// Case mask per root ordinal.
    masks: Vec<u8>,
    /// Roots each phase case replaces: `sensitive[p]` counts the roots
    /// whose mask has a bit other than `p`'s.
    sensitive: [usize; 2],
    /// The build roots, which do not depend on the case.
    roots: Vec<(NodeId, RootKind)>,
    /// All-active class per root ordinal.
    class_of: Vec<u32>,
    /// Lookup and tables of the all-active classes.
    lookup: Lookup,
    tables: Vec<MacroTable>,
}

impl CaseShare {
    /// The share of a clean all-active build, taking its masks,
    /// partition, lookup and tables as they are.
    fn new(
        masks: Vec<u8>,
        roots: &[(NodeId, RootKind)],
        class_of: Vec<u32>,
        lookup: Lookup,
        tables: Vec<MacroTable>,
    ) -> Self {
        let mut sensitive = [0usize; 2];
        for &m in &masks {
            for p in 0..2u8 {
                sensitive[p as usize] += (m & !phase_bit(p) != 0) as usize;
            }
        }
        CaseShare {
            masks,
            sensitive,
            roots: roots.to_vec(),
            class_of,
            lookup,
            tables,
        }
    }

    /// Whether phase case `p` replaces no root, so that its view is
    /// empty.
    pub(crate) fn replaces_none(&self, p: u8) -> bool {
        self.sensitive[p.min(1) as usize] == 0
    }

    /// The root ordinals phase case `p` replaces, ascending.
    pub(crate) fn replaced(&self, p: u8) -> Vec<u32> {
        let b = Base {
            share: self,
            phase: p,
        };
        (0..self.masks.len() as u32)
            .filter(|&r| !b.invariant(r as usize))
            .collect()
    }
}

/// A phase build's view of the share.
#[derive(Clone, Copy)]
struct Base<'s> {
    share: &'s CaseShare,
    phase: u8,
}

impl Base<'_> {
    /// Whether root `ri` is invariant in the build's phase.
    fn invariant(&self, ri: usize) -> bool {
        self.share.masks[ri] & !phase_bit(self.phase) == 0
    }
}

/// How a build takes part in the cross-case share.
pub(crate) enum Share<'s> {
    /// A lone build: nothing shared.
    Off,
    /// An all-active build followed by phase views: a clean build leaves
    /// its [`CaseShare`] here.
    Leave(&'s mut Option<CaseShare>),
}

/// What phases A–C learn: the class partition, the pin tables of the
/// roots signed, and one macromodel table per class. A phase view
/// borrows the tables of the all-active classes it reads from the share.
struct Classes<'s> {
    class_of: Vec<u32>,
    class_len: Vec<u32>,
    /// Pin tables of the roots this build signed (invariant roots of a
    /// phase view have empty spans).
    pins: Vec<NodeId>,
    pin_starts: Vec<usize>,
    tables: Vec<Cow<'s, MacroTable>>,
    /// The case masks and class lookup of an all-active build that
    /// leaves a share.
    leave: Option<(Vec<u8>, Lookup)>,
}

impl Classes<'_> {
    /// Root `ri`'s pin table.
    fn pins_of(&self, ri: usize) -> &[NodeId] {
        &self.pins[self.pin_starts[ri]..self.pin_starts[ri + 1]]
    }

    /// Root `ri`'s class table.
    fn table(&self, ri: usize) -> &MacroTable {
        &self.tables[self.class_of[ri] as usize]
    }

    /// The row block of the roots `members`: the rows of every class one
    /// of them belongs to, one block per class in class-id order (so the
    /// same at any `jobs`), with the members' row spans, in order, and
    /// the blocks' reader counts. The spans' arc offsets are left to the
    /// emission.
    fn row_block(
        &self,
        members: impl Iterator<Item = usize> + Clone,
    ) -> (Vec<ArcDelay>, RootSpans) {
        let mut readers = vec![0u32; self.tables.len()];
        for ri in members.clone() {
            readers[self.class_of[ri] as usize] += 1;
        }
        let (mut rows, mut first, mut blocks) = (Vec::new(), Vec::new(), Vec::new());
        for (table, &n) in self.tables.iter().zip(&readers) {
            first.push(rows.len() as u32);
            if n > 0 && !table.rows.is_empty() {
                blocks.push((rows.len() as u32, n));
                rows.extend_from_slice(&table.rows);
            }
        }
        let spans = members
            .map(|ri| {
                let c = self.class_of[ri] as usize;
                (first[c], self.tables[c].rows.len() as u32)
            })
            .collect();
        let spans = RootSpans {
            arcs: Vec::new(),
            rows: spans,
            blocks,
        };
        (rows, spans)
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

/// The graph build of one case: groups the root set into equivalence
/// classes, analyzes one master per class, instances the rest, and
/// finishes a graph that reads as a serial build of every root alone at
/// any thread count: the same arc list, each arc reading the same row
/// words. Its rows are one block per class, in class-id order, and
/// every instance's arcs index its class's block. Returns the per-root
/// arc and row spans (for splicing and phase views) and the
/// [`Extraction`] partition (for de-sharing); both are `None` when a
/// panic degraded the build. An all-active build followed by phase
/// views leaves a [`CaseShare`] (`Share::Leave`) when it is clean.
///
/// Extraction (phases A–C) either completes or, on any panic, falls back
/// to every root being its own class; emission (phase D) then builds
/// every root alone, with rows of its own. An emission chunk that panics
/// is rebuilt root by root, each root with fresh scratch under its own
/// isolation: a root that panics again contributes no arcs and is
/// reported in the graph's diagnostics. A panic on given inputs is
/// deterministic, so the surviving arc list is the same at any thread
/// count.
pub(crate) fn build(
    builder: &GraphBuilder<'_>,
    source_resistance: f64,
    jobs: usize,
    share: Share<'_>,
    fault: Fault<'_>,
) -> (SpannedBuild, Option<Extraction>) {
    let nl = builder.netlist;
    let threads = jobs.max(1);
    let roots = builder.roots();
    let leave = matches!(share, Share::Leave(_));
    let classes = {
        let _s = tv_obs::span("graph.sign");
        extract(
            builder,
            &roots,
            source_resistance,
            threads,
            fault,
            None,
            leave,
        )
    };
    if classes.is_none() {
        tv_obs::incr(tv_obs::Counter::FaultDegraded);
    }
    let block = classes.as_ref().map(|c| c.row_block(0..roots.len()));
    let (mut buf, arcs, diagnostics) = {
        let _s = tv_obs::span("graph.emit");
        let spans = block.as_ref().map(|(_, spans)| &spans.rows[..]);
        emit(
            builder,
            &roots,
            classes.as_ref().zip(spans),
            source_resistance,
            threads,
            fault,
        )
    };
    let spans = block.map(|(rows, spans)| {
        buf.delays = rows;
        RootSpans { arcs, ..spans }
    });
    // Consumed before `finish_graph`, so the pin tables never overlap
    // the CSR arrays at peak.
    let (extraction, left) = match classes.filter(|_| diagnostics.is_empty()) {
        Some(c) => {
            let (ex, left) = account(c, &roots);
            (Some(ex), left)
        }
        None => (None, None),
    };
    if let Share::Leave(slot) = share {
        *slot = left;
    }
    (
        SpannedBuild {
            graph: finish_graph(nl.node_count(), buf, builder.case, diagnostics),
            roots,
            spans: spans.filter(|_| extraction.is_some()),
        },
        extraction,
    )
}

/// The view of phase case `builder.case` over `base`, the clean
/// all-active graph that left `share`, with its root spans. Signs,
/// groups and emits only the roots the phase replaces — their rows one
/// block per class they read, like a clean graph's — then finishes the
/// view's lists and schedule ([`PhaseView::new`]). The view's arcs,
/// lists and schedule read as a lone build of the case, and the returned
/// partition and `macro.*` counters are that build's too; an empty view
/// returns no partition of its own (it is the all-active one).
///
/// Every root crosses the fault hooks once, replaced or not, so a fault
/// plan counts the same hits as a lone build. `None` if any of it
/// panicked: the caller then builds the case alone, which is the
/// degraded path.
pub(crate) fn build_view(
    builder: &GraphBuilder<'_>,
    source_resistance: f64,
    jobs: usize,
    (base, base_spans): (&TimingGraph, &RootSpans),
    share: &CaseShare,
    fault: Fault<'_>,
) -> Option<(PhaseView, Option<Extraction>)> {
    let _span = tv_obs::span("graph.view");
    let phase = builder.case.active?;
    let roots = &share.roots;
    if share.replaces_none(phase) {
        let crossed = tv_fault::isolated_map(vec![()], 1, |()| {
            for r in roots {
                if let Some(hook) = fault {
                    hook(r.0);
                }
                graph_build_fault_point();
            }
        });
        if crossed.iter().any(Result::is_err) {
            tv_obs::incr(tv_obs::Counter::FaultDegraded);
            return None;
        }
        // The all-active extraction's `macro.*` counts are the empty
        // view's own.
        let classes = share.tables.len();
        add_counts(classes as u64, (roots.len() - classes) as u64);
        let empty = PhaseView::new(
            builder.case,
            base,
            base_spans,
            Vec::new(),
            ArcBuf::default(),
            RootSpans::empty(),
        );
        return Some((empty, None));
    }
    let base_share = Base { share, phase };
    let classes = {
        let _s = tv_obs::span("graph.sign");
        extract(
            builder,
            roots,
            source_resistance,
            jobs.max(1),
            fault,
            Some(base_share),
            false,
        )
    };
    let Some(classes) = classes else {
        tv_obs::incr(tv_obs::Counter::FaultDegraded);
        return None;
    };
    let replaced = share.replaced(phase);
    let (own, spans) = {
        let _s = tv_obs::span("graph.emit");
        let (delays, mut spans) = classes.row_block(replaced.iter().map(|&r| r as usize));
        let mut own = ArcBuf {
            arcs: Vec::new(),
            delays,
        };
        spans.arcs.push(0);
        for (&r, &(first, _)) in replaced.iter().zip(&spans.rows) {
            let r = r as usize;
            classes
                .table(r)
                .instance(classes.pins_of(r), first, &mut own.arcs);
            spans.arcs.push(own.arcs.len() as u32);
        }
        (own, spans)
    };
    let (extraction, _) = account(classes, roots);
    let view = PhaseView::new(builder.case, base, base_spans, replaced, own, spans);
    tv_obs::incr(tv_obs::Counter::GraphBuilds);
    tv_obs::add(tv_obs::Counter::GraphArcs, view.arc_count() as u64);
    Some((view, Some(extraction)))
}

/// Phases A–C: sign and group every root, then emit one pin-indexed
/// table per class from its master trace. `None` if any of it panicked.
///
/// A phase view (`base`) signs only the roots its phase replaces. An
/// invariant root keeps its all-active class; a re-signed root joins the
/// share's class with its trace if there is one, and a class of the
/// build's own otherwise. Classes are then renumbered by first
/// appearance in root order, so the partition, class ids and tables are
/// those of a lone build of the case, and only the new classes' masters
/// are analyzed. `leave` keeps the masks and lookup a share needs.
fn extract<'s>(
    builder: &GraphBuilder<'_>,
    roots: &[(NodeId, RootKind)],
    source_resistance: f64,
    threads: usize,
    fault: Fault<'_>,
    base: Option<Base<'s>>,
    leave: bool,
) -> Option<Classes<'s>> {
    let node_count = builder.netlist.node_count();
    let n_roots = roots.len();
    let signs = |ri: usize| !base.is_some_and(|b| b.invariant(ri));

    // Phases A (signatures) and B (grouping), one block pipeline: each
    // wave of up to `threads` blocks is signed in parallel, then every
    // block joins its classes serially in root order. A block is a run
    // of roots holding `SIGN_BLOCK` signed roots, so the block cover is
    // a pure function of the root list and the masks, and the grouping
    // is independent of `jobs`. Classes are looked up by a hash of the
    // trace, so a bucket almost always holds at most one class; the exact
    // trace comparison against each candidate's master stays as the
    // collision check — equal hashes with different traces stay separate
    // classes. At most one class has a given trace, so class ids and the
    // partition do not depend on the hash. Only master traces outlive
    // their block.
    let mut blocks: Vec<Range<usize>> = Vec::new();
    let (mut start, mut signed) = (0usize, 0usize);
    for ri in 0..n_roots {
        if signs(ri) {
            signed += 1;
            if signed == SIGN_BLOCK {
                blocks.push(start..ri + 1);
                (start, signed) = (ri + 1, 0);
            }
        }
    }
    if start < n_roots {
        blocks.push(start..n_roots);
    }
    // Provisional class ids: a phase build's own classes count on from
    // the share's.
    let base_classes = base.map_or(0, |b| b.share.tables.len() as u32);
    let mut class_of: Vec<u32> = Vec::with_capacity(n_roots);
    let mut masks: Vec<u8> = Vec::with_capacity(if leave { n_roots } else { 0 });
    let mut pins: Vec<NodeId> = Vec::new();
    let mut pin_starts: Vec<usize> = Vec::with_capacity(n_roots + 1);
    pin_starts.push(0);
    // The default (keyed) hasher in the lookup stays: the trace hashes
    // derive from netlist content, which arrives from outside the
    // program.
    let mut lookup = Lookup::new();
    let mut signers: Vec<Signer> = (0..threads.min(blocks.len()))
        .map(|_| Signer::new(node_count))
        .collect();
    for wave in blocks.chunks(signers.len().max(1)) {
        let work: Vec<_> = wave.iter().cloned().zip(signers.iter_mut()).collect();
        let signed = tv_fault::isolated_map(work, threads, |(block, signer)| {
            signer.sign(builder, roots, block, base, fault)
        });
        for ((done, signer), block) in signed.into_iter().zip(&signers).zip(wave) {
            done.ok()?;
            pins.extend_from_slice(&signer.pins);
            let mut meta = signer.meta.iter();
            let mut c0 = 0usize;
            for ri in block.clone() {
                let pin_end = *pin_starts.last().expect("pin_starts starts at 0");
                if let Some(b) = base.filter(|b| b.invariant(ri)) {
                    class_of.push(b.share.class_of[ri]);
                    pin_starts.push(pin_end);
                    continue;
                }
                let &(cw, pw, mask) = meta.next()?;
                if leave {
                    masks.push(mask);
                }
                pin_starts.push(pin_end + pw as usize);
                let canon = &signer.canon[c0..c0 + cw as usize];
                c0 += cw as usize;
                let hash = trace_hash(canon);
                let shared = base.and_then(|b| b.share.lookup.find(hash, canon));
                class_of.push(match shared {
                    Some(cid) => cid,
                    None => base_classes + lookup.find_or_mint(hash, canon),
                });
            }
        }
    }
    drop(signers);
    let minted = lookup.len();

    // A phase build renumbers by first appearance: `order` lists the
    // provisional ids in final order (a lone build's are already).
    let order: Vec<u32> = match base {
        None => (0..minted as u32).collect(),
        Some(_) => {
            let mut final_of = vec![u32::MAX; base_classes as usize + minted];
            let mut order = Vec::new();
            for cid in class_of.iter_mut() {
                let f = &mut final_of[*cid as usize];
                if *f == u32::MAX {
                    *f = order.len() as u32;
                    order.push(*cid);
                }
                *cid = *f;
            }
            order
        }
    };
    let mut class_len = vec![0u32; order.len()];
    for &c in &class_of {
        class_len[c as usize] += 1;
    }

    // Phase C: emit each new class's table from its master trace.
    let own_ids: Vec<u32> = (0..minted as u32).collect();
    let mut own: Vec<Option<MacroTable>> = Vec::with_capacity(minted);
    for part in tv_fault::isolated_map(chunked(&own_ids, threads), threads, |(_, ids)| {
        ids.iter()
            .map(|&c| {
                let mut table = MacroTable::default();
                emit_trace(builder, source_resistance, lookup.trace(c), &mut table);
                table
            })
            .collect::<Vec<_>>()
    }) {
        own.extend(part.ok()?.into_iter().map(Some));
    }
    let tables = order
        .iter()
        .map(|&pid| match pid.checked_sub(base_classes) {
            Some(j) => own[j as usize].take().map(Cow::Owned),
            None => base.map(|b| Cow::Borrowed(&b.share.tables[pid as usize])),
        })
        .collect::<Option<Vec<_>>>()?;
    // A build that leaves a share is all-active, so its ids are final.
    let leave = leave.then_some((masks, lookup));
    Some(Classes {
        class_of,
        class_len,
        pins,
        pin_starts,
        tables,
        leave,
    })
}

/// Phase D: emits every root's arcs in order — its class table
/// instanced on its pins over its class's rows (root `ri`'s row span is
/// `rows[ri]`), or, when `classes` is `None`, the root built alone with
/// rows of its own ([`build_root`]) — and returns the arcs (with the
/// degraded build's rows), the per-root arc span offsets, and the
/// diagnostics of any chunk that had to be rebuilt root by root.
fn emit(
    builder: &GraphBuilder<'_>,
    roots: &[(NodeId, RootKind)],
    classes: Option<(&Classes<'_>, &[(u32, u32)])>,
    source_resistance: f64,
    threads: usize,
    fault: Fault<'_>,
) -> (ArcBuf, Vec<u32>, Vec<Diagnostic>) {
    let nl = builder.netlist;
    let n_roots = roots.len();
    let emit_root = |ri: usize, buf: &mut ArcBuf, scratch: &mut BuildScratch| match classes {
        Some((c, rows)) => c
            .table(ri)
            .instance(c.pins_of(ri), rows[ri].0, &mut buf.arcs),
        None => {
            if let Some(hook) = fault {
                hook(roots[ri].0);
            }
            graph_build_fault_point();
            build_root(builder, &roots[ri], source_resistance, buf, scratch);
        }
    };
    type EmitPart = (ArcBuf, Vec<u32>);
    let emit_chunk = |(start, root_chunk): (usize, &[(NodeId, RootKind)])| -> EmitPart {
        // Reserve the exact instanced arc total upfront (a degraded
        // build still grows): at a million devices the chunk emits tens
        // of millions of arcs, and growth doubling would copy them
        // repeatedly.
        let est_arcs = classes.map_or(0, |(c, _)| {
            (start..start + root_chunk.len())
                .map(|ri| c.table(ri).arcs.len())
                .sum()
        });
        let mut buf = ArcBuf {
            arcs: Vec::with_capacity(est_arcs),
            delays: Vec::new(),
        };
        let mut counts: Vec<u32> = Vec::with_capacity(root_chunk.len());
        let mut scratch = BuildScratch::new(nl.node_count());
        for ri in start..start + root_chunk.len() {
            let arcs_before = buf.arcs.len();
            emit_root(ri, &mut buf, &mut scratch);
            counts.push((buf.arcs.len() - arcs_before) as u32);
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
        let mut counts: Vec<u32> = Vec::with_capacity(root_chunk.len());
        let attempts =
            tv_fault::isolated_map((start..start + root_chunk.len()).collect(), 1, |ri| {
                let mut part = ArcBuf::default();
                emit_root(ri, &mut part, &mut BuildScratch::new(nl.node_count()));
                part
            });
        for (r, attempt) in root_chunk.iter().zip(attempts) {
            match attempt {
                Ok(part) => {
                    counts.push(part.arcs.len() as u32);
                    buf.append(part);
                }
                Err(()) => {
                    counts.push(0);
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
    let mut spans: Vec<u32> = Vec::with_capacity(n_roots + 1);
    spans.push(0);
    // The serial build produces one part: `append` takes its vectors
    // whole rather than copying ~GBs of arcs.
    for (i, (part, counts)) in parts.into_iter().enumerate() {
        for a in counts {
            spans.push(spans.last().unwrap() + a);
        }
        buf.append(part);
        if i == 0 {
            buf.arcs.reserve_exact(arc_total - buf.arcs.len());
            buf.delays.reserve_exact(row_total - buf.delays.len());
        }
    }
    debug_assert_eq!(*spans.last().unwrap() as usize, buf.arcs.len());
    (buf, spans, diagnostics)
}

/// Work accounting for a clean build: each class counts one analysis
/// (its table) and `len - 1` instancings. Returns the extraction, and
/// the share when the build leaves one.
fn account(c: Classes<'_>, roots: &[(NodeId, RootKind)]) -> (Extraction, Option<CaseShare>) {
    let Classes {
        class_of,
        class_len,
        tables,
        leave,
        ..
    } = c;
    let n_classes = tables.len();
    let instanced = (class_of.len() - n_classes) as u64;
    add_counts(n_classes as u64, instanced);

    let mut fp = 0x9c0d_e1a2_57a9_0e5d_u64;
    for &cid in &class_of {
        fp = mix64(fp, cid as u64);
    }
    let left = leave.map(|(masks, lookup)| {
        let tables = tables.into_iter().map(Cow::into_owned).collect();
        CaseShare::new(masks, roots, class_of.clone(), lookup, tables)
    });
    let ex = Extraction {
        class_of,
        class_len,
        classes: n_classes,
        instanced,
        fp,
    };
    (ex, left)
}

/// Records one case's extraction in the `macro.*` counters: one analysis
/// per class.
fn add_counts(classes: u64, instanced: u64) {
    tv_obs::add(tv_obs::Counter::MacroClasses, classes);
    tv_obs::add(tv_obs::Counter::MacroAnalyzed, classes);
    tv_obs::add(tv_obs::Counter::MacroInstanced, instanced);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{assert_reads_as, PhaseCase, TimingGraph};
    use tv_clocks::qualify::qualify_with_flow;
    use tv_flow::{analyze, FlowAnalysis, RuleSet};
    use tv_netlist::{Netlist, NetlistBuilder, Tech};

    fn lone_build(b: &GraphBuilder<'_>, jobs: usize) -> (SpannedBuild, Option<Extraction>) {
        build(b, 1.0, jobs, Share::Off, None)
    }

    fn spanned(nl: &Netlist, case: PhaseCase, jobs: usize) -> (SpannedBuild, Option<Extraction>) {
        let flow = analyze(nl, &RuleSet::all());
        let qual = qualify_with_flow(nl, &flow);
        lone_build(&builder(nl, &flow, &qual, case), jobs)
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

    /// The flat reference: every root built alone, serially, into one
    /// buffer — no classes, no threads, no isolation, a block of rows per
    /// root. Roots in `skip` are left out.
    fn flat_reference(b: &GraphBuilder<'_>, skip: &[NodeId]) -> TimingGraph {
        let mut buf = ArcBuf::default();
        let mut scratch = BuildScratch::new(b.netlist.node_count());
        for r in b.roots().iter().filter(|r| !skip.contains(&r.0)) {
            build_root(b, r, 1.0, &mut buf, &mut scratch);
        }
        finish_graph(b.netlist.node_count(), buf, b.case, Vec::new())
    }

    fn assert_hier_matches_flat(nl: &Netlist, case: PhaseCase) -> Extraction {
        let flow = analyze(nl, &RuleSet::all());
        let qual = qualify_with_flow(nl, &flow);
        let b = builder(nl, &flow, &qual, case);
        let flat = flat_reference(&b, &[]);
        let mut last = None;
        for jobs in [1usize, 2, 8] {
            let (sb, ex) = lone_build(&b, jobs);
            let ex = ex.expect("clean build must extract");
            assert_reads_as(&sb.graph, &flat, &format!("jobs {jobs}"));
            assert_rows_owned(&b, &sb, &ex);
            last = Some(ex);
        }
        last.unwrap()
    }

    /// The arc spans tile the arc list, and every arc of root `k` indexes
    /// a row inside `k`'s row span. The rows are one block per class: the
    /// members of a class share one span, as long as the rows of a member
    /// built alone; the class spans tile the row list in class-id order,
    /// so the row count is the sum of the class tables' rows; and each
    /// block's reader count is its class's member count.
    fn assert_rows_owned(b: &GraphBuilder<'_>, sb: &SpannedBuild, ex: &Extraction) {
        let spans = sb.spans.as_ref().expect("clean build records spans");
        let g = &sb.graph;
        assert_eq!(spans.arcs.len(), sb.roots.len() + 1);
        assert_eq!(spans.rows.len(), sb.roots.len());
        assert_eq!(*spans.arcs.last().unwrap() as usize, g.arc_count());
        let mut class_span = vec![None; ex.class_len.len()];
        for k in 0..sb.roots.len() {
            let (start, len) = spans.rows[k];
            for a in &g.arcs[spans.arcs[k] as usize..spans.arcs[k + 1] as usize] {
                assert!(
                    (start..start + len).contains(&a.delay),
                    "root {k}: arc row {} outside its span {:?}",
                    a.delay,
                    spans.rows[k]
                );
            }
            let c = ex.class_of[k] as usize;
            let span = *class_span[c].get_or_insert(spans.rows[k]);
            assert_eq!(span, spans.rows[k], "root {k} reads its class's rows");
        }
        let (mut next, mut blocks) = (0, Vec::new());
        let mut scratch = BuildScratch::new(b.netlist.node_count());
        for (c, span) in class_span.into_iter().enumerate() {
            let (start, len) = span.expect("every class has a member");
            assert_eq!(start, next, "class {c}: blocks in class-id order");
            let member = ex.class_of.iter().position(|&m| m as usize == c).unwrap();
            let mut alone = ArcBuf::default();
            build_root(b, &sb.roots[member], 1.0, &mut alone, &mut scratch);
            assert_eq!(len as usize, alone.delays.len(), "class {c}: table rows");
            if len > 0 {
                blocks.push((start, ex.class_len[c]));
            }
            next += len;
        }
        assert_eq!(next as usize, g.delays.len(), "one block per class");
        assert_eq!(spans.blocks, blocks, "block readers");
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
            let flow = analyze(nl, &RuleSet::all());
            let qual = qualify_with_flow(nl, &flow);
            for case in [
                PhaseCase::all_active(),
                PhaseCase::phase(0),
                PhaseCase::phase(1),
            ] {
                let b = builder(nl, &flow, &qual, case);
                for jobs in [1usize, 2, 8] {
                    let (sb, ex) = lone_build(&b, jobs);
                    assert_rows_owned(&b, &sb, &ex.expect("clean build must extract"));
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
                ex.instanced() >= 2 * ex.classes() as u64,
                "3 identical cores must dedup heavily: classes {} instanced {}",
                ex.classes(),
                ex.instanced()
            );
        }
    }

    #[test]
    fn irregular_random_logic_stays_bit_identical() {
        // Random logic is where keying classes on the trace alone merges
        // the most roots.
        for seed in [0x9aa7, 0x5eed, 0xc0ffee] {
            let c = tv_gen::random::random_logic(
                Tech::nmos4um(),
                5_000,
                seed,
                tv_gen::random::RandomMix::default(),
            );
            for case in [
                PhaseCase::all_active(),
                PhaseCase::phase(0),
                PhaseCase::phase(1),
            ] {
                let ex = assert_hier_matches_flat(&c.netlist, case);
                assert!(
                    ex.instanced() > 0,
                    "seed {seed:#x} {case:?}: nothing shared"
                );
            }
        }
    }

    #[test]
    fn equal_traces_share_whatever_gates_them() {
        // Two identical inverters with identical loads: `x` is gated by
        // the primary input `a`, `y` by the internal node `x`. The role
        // of the gate node is read by no arc, so their traces are equal
        // and they form one class.
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let [x, y] = [b.node("x"), b.node("y")];
        let w = b.output("w");
        b.inverter("ix", a, x);
        b.inverter("iy", x, y);
        b.inverter("iw", y, w);
        let nl = b.finish().unwrap();
        let ex = assert_hier_matches_flat(&nl, PhaseCase::all_active());
        let flow = analyze(&nl, &RuleSet::all());
        let qual = qualify_with_flow(&nl, &flow);
        let roots = builder(&nl, &flow, &qual, PhaseCase::all_active()).roots();
        let [rx, ry, rw] = [x, y, w].map(|n| ordinal(&roots, n));
        assert_eq!(ex.class_of[rx], ex.class_of[ry], "x and y share a class");
        assert_ne!(ex.class_of[rx], ex.class_of[rw], "w carries no load");
        assert_eq!((ex.classes(), ex.instanced()), (2, 1));
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
        let b = builder(nl, &flow, &qual, PhaseCase::all_active());
        let (clean, ex) = lone_build(&b, 1);
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
            let (sb, ex) = build(&b, 1.0, jobs, Share::Off, Some(&hook));
            assert!(sb.spans.is_none() && ex.is_none(), "jobs {jobs}");
            assert_reads_as(&sb.graph, &expected, &format!("jobs {jobs}"));
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

    /// Every root's case mask under `b`'s case, as signing records it.
    fn masks(b: &GraphBuilder<'_>) -> Vec<u8> {
        let mut scratch = BuildScratch::new(b.netlist.node_count());
        let (mut canon, mut pins) = (Vec::new(), Vec::new());
        b.roots()
            .iter()
            .map(|r| root_canon(b, r, &mut scratch, &mut canon, &mut pins))
            .collect()
    }

    #[test]
    fn invariant_roots_walk_sign_and_build_as_under_all_active() {
        let t = Tech::nmos4um();
        let race = tv_netlist::sim_format::parse(
            include_str!("../../../tests/data/race_smoke.sim"),
            t.clone(),
        )
        .expect("race golden parses");
        let workloads = [
            tv_gen::manchester::manchester_circuit(t.clone(), 8, 4).netlist,
            tv_gen::datapath::datapath(t.clone(), tv_gen::datapath::DatapathConfig::small())
                .netlist,
            tv_gen::random::random_logic(t.clone(), 800, 7, tv_gen::random::RandomMix::default())
                .netlist,
            tv_gen::mips_mc::t6_mips_mc(t, 1).netlist,
            race,
        ];
        let (mut invariant, mut sensitive) = ([0usize; 2], [0usize; 2]);
        for nl in &workloads {
            let flow = analyze(nl, &RuleSet::all());
            let qual = qualify_with_flow(nl, &flow);
            let all = builder(nl, &flow, &qual, PhaseCase::all_active());
            let mask = masks(&all);
            let n = nl.node_count();
            let (mut s1, mut s2) = (BuildScratch::new(n), BuildScratch::new(n));
            for p in 0..2u8 {
                let pb = builder(nl, &flow, &qual, PhaseCase::phase(p));
                for (ri, r) in all.roots().iter().enumerate() {
                    if mask[ri] & !phase_bit(p) != 0 {
                        sensitive[p as usize] += 1;
                        continue;
                    }
                    invariant[p as usize] += 1;
                    let walk = |b: &GraphBuilder<'_>, s: &mut BuildScratch| {
                        b.walk_downstream(r.0, s);
                        s.walk
                            .iter()
                            .map(|w| (w.node, w.parent, w.via))
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(
                        walk(&all, &mut s1),
                        walk(&pb, &mut s2),
                        "root {ri} phase {p}"
                    );
                    let (mut c1, mut c2, mut p1, mut p2) = (vec![], vec![], vec![], vec![]);
                    root_canon(&all, r, &mut s1, &mut c1, &mut p1);
                    root_canon(&pb, r, &mut s2, &mut c2, &mut p2);
                    assert_eq!((c1, p1), (c2, p2), "root {ri} phase {p}: trace and pins");
                    let (mut b1, mut b2) = (ArcBuf::default(), ArcBuf::default());
                    build_root(&all, r, 1.0, &mut b1, &mut s1);
                    build_root(&pb, r, 1.0, &mut b2, &mut s2);
                    let arcs = |b: &ArcBuf| {
                        b.arcs
                            .iter()
                            .map(|a| (a.from, a.to, a.delay, a.inverting, a.kind))
                            .collect::<Vec<_>>()
                    };
                    let rows = |b: &ArcBuf| b.delays.iter().map(|d| d.words()).collect::<Vec<_>>();
                    assert_eq!(arcs(&b1), arcs(&b2), "root {ri} phase {p}: arcs");
                    assert_eq!(rows(&b1), rows(&b2), "root {ri} phase {p}: rows");
                }
            }
        }
        for p in 0..2 {
            assert!(
                invariant[p] > 0 && sensitive[p] > 0,
                "phase {p}: {} invariant, {} sensitive roots",
                invariant[p],
                sensitive[p]
            );
        }
    }

    /// Builds every case of `nl` at jobs 1/2/8 both as a view over the
    /// all-active build and alone, asserts that they read alike and
    /// that their partitions agree (an empty view's being the all-active
    /// one), and returns the lone extractions `[all-active, φ1, φ2]`
    /// with the root list.
    fn shared_agrees_with_lone(nl: &Netlist) -> ([Extraction; 3], Vec<(NodeId, RootKind)>) {
        let flow = analyze(nl, &RuleSet::all());
        let qual = qualify_with_flow(nl, &flow);
        let cases = [
            PhaseCase::all_active(),
            PhaseCase::phase(0),
            PhaseCase::phase(1),
        ];
        let mut last = None;
        for jobs in [1usize, 2, 8] {
            let mut share = None;
            let b = builder(nl, &flow, &qual, cases[0]);
            let (comb, comb_ex) = build(&b, 1.0, jobs, Share::Leave(&mut share), None);
            let share = share.expect("a clean all-active build leaves a share");
            let comb_spans = comb.spans.as_ref().expect("clean build records spans");
            let mut lone = Vec::new();
            for &case in &cases {
                let what = format!("case {case:?} jobs {jobs}");
                let b = builder(nl, &flow, &qual, case);
                let (sb, ex) = lone_build(&b, jobs);
                let ex = ex.expect("clean build must extract");
                let mine = match case.active {
                    None => {
                        assert_reads_as(&comb.graph, &sb.graph, &what);
                        assert_eq!(comb.spans, sb.spans, "{what}");
                        comb_ex.as_ref()
                    }
                    Some(_) => {
                        let (view, vex) =
                            build_view(&b, 1.0, jobs, (&comb.graph, comb_spans), &share, None)
                                .expect("a clean view");
                        assert_reads_as(&view.on(&comb.graph), &sb.graph, &what);
                        match vex {
                            Some(vex) => {
                                assert_eq!(vex, ex, "{what}");
                                lone.push(ex);
                                continue;
                            }
                            None => comb_ex.as_ref(),
                        }
                    }
                };
                assert_eq!(mine, Some(&ex), "{what}");
                lone.push(ex);
            }
            last = Some((lone.try_into().ok().unwrap(), comb.roots));
        }
        last.unwrap()
    }

    fn ordinal(roots: &[(NodeId, RootKind)], n: NodeId) -> usize {
        roots.iter().position(|r| r.0 == n).expect("a build root")
    }

    #[test]
    fn a_class_whose_members_differ_in_sensitivity_splits() {
        // Two identical stages, each driving a latch through a pass
        // device: one gated by a φ1-qualified node, one by a φ2-qualified
        // one. The gates are internal nodes, not raw clocks, so both
        // stages have one grouping key and one all-active trace.
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let phi = [b.clock("phi1", 0), b.clock("phi2", 1)];
        let mut stages = Vec::new();
        for (i, clk) in phi.into_iter().enumerate() {
            let g = b.node(format!("g{i}"));
            b.inverter(format!("ig{i}"), clk, g);
            let s = b.node(format!("s{i}"));
            b.inverter(format!("is{i}"), a, s);
            let n = b.node(format!("n{i}"));
            b.pass(format!("p{i}"), g, s, n);
            let o = b.output(format!("o{i}"));
            b.inverter(format!("io{i}"), n, o);
            stages.push(s);
        }
        let nl = b.finish().unwrap();
        let (ex, roots) = shared_agrees_with_lone(&nl);
        let [s0, s1] = [ordinal(&roots, stages[0]), ordinal(&roots, stages[1])];
        assert_eq!(
            ex[0].class_of[s0], ex[0].class_of[s1],
            "one all-active class"
        );
        for (k, e) in ex.iter().enumerate().skip(1) {
            assert_ne!(e.class_of[s0], e.class_of[s1], "split in case {k}");
        }
    }

    #[test]
    fn a_sensitive_root_joins_an_invariant_class() {
        // One stage, so one grouping key for its source roots: input `x`
        // feeds a latch through a pass device gated by a φ2-qualified
        // node, and inputs `w` and `v` hang off it through pass devices
        // no walk enters (walks never enter an input). `w` carries two
        // device terminals, like `x`. Under φ1 the latch is off, so `x`'s
        // trace becomes `w`'s all-active one.
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let phi2 = b.clock("phi2", 1);
        let g = b.node("g");
        b.inverter("ig", phi2, g);
        let [x, w, v] = [b.input("x"), b.input("w"), b.input("v")];
        let n = b.node("n");
        b.pass("p", g, x, n);
        let o = b.output("o");
        b.inverter("io", n, o);
        b.pass("r", g, w, x);
        b.pass("q", g, w, v);
        let nl = b.finish().unwrap();
        let flow = analyze(&nl, &RuleSet::all());
        let qual = qualify_with_flow(&nl, &flow);
        let mask = masks(&builder(&nl, &flow, &qual, PhaseCase::all_active()));
        let (ex, roots) = shared_agrees_with_lone(&nl);
        let [rx, rw] = [ordinal(&roots, x), ordinal(&roots, w)];
        assert_eq!((mask[rx], mask[rw]), (phase_bit(1), 0));
        assert_ne!(ex[0].class_of[rx], ex[0].class_of[rw]);
        assert_eq!(ex[1].class_of[rx], ex[1].class_of[rw], "joins under φ1");
        assert_ne!(ex[2].class_of[rx], ex[2].class_of[rw]);
    }

    #[test]
    fn a_replaced_root_joins_an_all_active_class_no_view_reads() {
        // Random logic holds all-active classes whose members every
        // non-empty view replaces (on this design, one replaced root's
        // φ2 trace matches one). The share keeps them, so such a root
        // joins the class and borrows its table, and the views still
        // read as lone builds.
        let nl = tv_gen::random::random_logic(
            Tech::nmos4um(),
            20_000,
            1,
            tv_gen::random::RandomMix::default(),
        )
        .netlist;
        shared_agrees_with_lone(&nl);
        let flow = analyze(&nl, &RuleSet::all());
        let qual = qualify_with_flow(&nl, &flow);
        let mut share = None;
        let all = builder(&nl, &flow, &qual, PhaseCase::all_active());
        build(&all, 1.0, 1, Share::Leave(&mut share), None);
        let share = share.expect("a clean all-active build leaves a share");
        let phases: Vec<u8> = (0..2).filter(|&p| !share.replaces_none(p)).collect();
        assert!(!phases.is_empty(), "some phase replaces a root");
        let mut read = vec![false; share.tables.len()];
        for (ri, &c) in share.class_of.iter().enumerate() {
            read[c as usize] |= phases.iter().any(|&phase| {
                let b = Base {
                    share: &share,
                    phase,
                };
                b.invariant(ri)
            });
        }
        let mut scratch = BuildScratch::new(nl.node_count());
        let (mut canon, mut pins) = (Vec::new(), Vec::new());
        let mut joins = 0;
        for &p in &phases {
            let pb = builder(&nl, &flow, &qual, PhaseCase::phase(p));
            for r in share.replaced(p) {
                canon.clear();
                pins.clear();
                root_canon(
                    &pb,
                    &share.roots[r as usize],
                    &mut scratch,
                    &mut canon,
                    &mut pins,
                );
                let c = share.lookup.find(trace_hash(&canon), &canon);
                joins += c.is_some_and(|c| !read[c as usize]) as usize;
            }
        }
        assert!(joins > 0, "no replaced root joins an unread class");
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
