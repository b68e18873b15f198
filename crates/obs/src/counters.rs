//! The deterministic counter plane.
//!
//! A fixed registry of named `u64` counters, held as process-global
//! atomics. Instrumented code calls [`add`]/[`incr`]; both are no-ops
//! (one relaxed load and an untaken branch) until [`set_enabled`] turns
//! the plane on, so the disabled hot path costs nothing measurable.
//!
//! Determinism is structural: every counter records an *amount of
//! algorithmic work*, call sites accumulate locally (the per-thread
//! shard) and publish one [`add`] at a merge point, and atomic addition
//! commutes — so the totals are bit-identical no matter how worker
//! threads interleave. No counter ever records a time, an address, or a
//! thread id; wall-clock belongs to the span plane
//! ([`crate::spans`]) and is never mixed in here.
//!
//! Counters come in two planes (see [`Counter::is_work`]):
//!
//! * **work** — measures of the algorithmic work actually performed
//!   (arc relaxations, residue pops, nodes finished, cone seeds). The
//!   engine guarantees these are bit-identical across `--jobs` counts
//!   for a fixed command sequence. A warm run taking the demand-driven
//!   cone path legitimately records *less* work than the cold run —
//!   that shrinkage is the whole point of incremental propagation —
//!   but for a given sequence of edits the totals never depend on the
//!   worker schedule.
//! * **telemetry** — measures of how the run was satisfied (cache
//!   hits, pass skips, parse statistics). Deterministic for a fixed
//!   command sequence, but a warm run legitimately differs from a cold
//!   one — that difference is the signal.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Every counter the subsystem knows, in dump order. The enum is the
/// registry: adding a counter means adding a variant, its name, and its
/// plane — nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Arc relaxations performed by propagation.
    PropagateRelaxations,
    /// Worklist pops of the residue (cyclic) relaxation.
    PropagateResiduePops,
    /// Nodes evaluated by propagation, i.e. in-arc CSR rows touched by
    /// the arrival walk.
    PropagateNodes,
    /// Propagation cases finished (combinational + per-phase).
    PropagateCases,
    /// Certified changed nodes handed to the cone engine as seeds.
    ConeSeeds,
    /// Nodes re-relaxed by the cone engine (the affected fanout cone).
    ConeNodes,
    /// Certified warm passes that fell back from the cone engine to a
    /// full walk (cone too large, or a deadline guard armed).
    ConeFallbacks,
    /// Sweeps the flow fixpoint took to stabilize.
    FlowSweeps,
    /// Worklist examinations inside the flow fixpoint.
    FlowWorklistPops,
    /// Devices classified as pass transistors by flow analysis.
    FlowPassDevices,
    /// Pass devices the rules oriented to a definite direction.
    FlowOriented,
    /// Timing graphs built from scratch.
    GraphBuilds,
    /// Timing arcs synthesized by graph builds.
    GraphArcs,
    /// Stage roots resynthesized in place by graph splices.
    GraphRootsSpliced,
    /// Lines read by the `.sim` parser (including blank and comment).
    ParseLines,
    /// Devices accepted by the `.sim` parser.
    ParseDevices,
    /// Diagnostics constructed anywhere in the pipeline.
    DiagnosticsEmitted,
    /// Pipeline passes that ran from scratch.
    PassComputed,
    /// Pipeline passes skipped because their input fingerprint matched.
    PassReused,
    /// Graph passes satisfied by an in-place splice.
    PassSpliced,
    /// Graph passes revalidated without touching an arc.
    PassRevalidated,
    /// Nodes whose kept arrivals an arrival pass served unchanged.
    CacheNodesReused,
    /// Nodes an arrival pass re-evaluated (the cone, or every node on a
    /// full walk).
    CacheNodesRecomputed,
    /// Cases whose graph was unchanged, served by the zero-seed cone.
    CacheCaseHits,
    /// All other cases: a certified cone over a changed graph, or the
    /// full walk.
    CacheCaseMisses,
    /// Electrical-check issues found.
    CheckIssues,
    /// Session commands evaluated.
    SessionCommands,
    /// Faults injected by an armed `tv_fault` plan.
    FaultInjected,
    /// Commands the session supervisor retried after a recoverable
    /// failure (transient I/O, worker panic, internal error).
    FaultRetries,
    /// Degraded recoveries: parallel work recomputed serially after a
    /// worker panic, or a corrupt certificate recomputed cold.
    FaultDegraded,
    /// Journal entries replayed through the edit API on `--resume`.
    FaultJournalReplays,
    /// Chunks the `.sim` ingest path split its input into (1 = serial).
    IngestChunks,
    /// Bytes of `.sim` text swept by the ingest pre-scan.
    IngestBytes,
    /// Name-token upper bound the pre-scan sized the intern table for.
    IngestPrescanSyms,
    /// Growth reallocations the pre-sized ingest structures performed
    /// after the pre-scan reserve — asserted zero by the ingest gate.
    IngestReallocs,
    /// Deterministic peak-allocation estimate (bytes) the pre-scan
    /// derived for the netlist under construction.
    IngestPeakAllocEst,
    /// Stage equivalence classes the hierarchical extractor found.
    MacroClasses,
    /// Master stages fully analyzed (one per class, plus any root the
    /// extractor declined to instance).
    MacroAnalyzed,
    /// Stage instances served by copying a master's macromodel arc table
    /// instead of re-deriving the stage graph.
    MacroInstanced,
    /// Instances split out of their class by an edit (de-shared and
    /// re-analyzed individually).
    MacroDesplit,
    /// Connections the serving plane admitted (hello accepted).
    ServeAccepted,
    /// Connections admission control refused with a typed `busy` frame.
    ServeRejected,
    /// High-water mark of concurrently admitted sessions (via
    /// [`set_max`], not [`add`]).
    ServeActivePeak,
    /// Request frames the serving plane dispatched to a session.
    ServeRequests,
    /// Frame reads/writes the serving plane retried after a transient
    /// transport fault.
    ServeRetries,
}

/// Number of counters in the registry.
pub const COUNT: usize = Counter::ServeRetries as usize + 1;

/// All counters, in dump order.
pub const ALL: [Counter; COUNT] = [
    Counter::PropagateRelaxations,
    Counter::PropagateResiduePops,
    Counter::PropagateNodes,
    Counter::PropagateCases,
    Counter::ConeSeeds,
    Counter::ConeNodes,
    Counter::ConeFallbacks,
    Counter::FlowSweeps,
    Counter::FlowWorklistPops,
    Counter::FlowPassDevices,
    Counter::FlowOriented,
    Counter::GraphBuilds,
    Counter::GraphArcs,
    Counter::GraphRootsSpliced,
    Counter::ParseLines,
    Counter::ParseDevices,
    Counter::DiagnosticsEmitted,
    Counter::PassComputed,
    Counter::PassReused,
    Counter::PassSpliced,
    Counter::PassRevalidated,
    Counter::CacheNodesReused,
    Counter::CacheNodesRecomputed,
    Counter::CacheCaseHits,
    Counter::CacheCaseMisses,
    Counter::CheckIssues,
    Counter::SessionCommands,
    Counter::FaultInjected,
    Counter::FaultRetries,
    Counter::FaultDegraded,
    Counter::FaultJournalReplays,
    Counter::IngestChunks,
    Counter::IngestBytes,
    Counter::IngestPrescanSyms,
    Counter::IngestReallocs,
    Counter::IngestPeakAllocEst,
    Counter::MacroClasses,
    Counter::MacroAnalyzed,
    Counter::MacroInstanced,
    Counter::MacroDesplit,
    Counter::ServeAccepted,
    Counter::ServeRejected,
    Counter::ServeActivePeak,
    Counter::ServeRequests,
    Counter::ServeRetries,
];

impl Counter {
    /// The stable dotted name used in every dump format.
    pub fn name(self) -> &'static str {
        match self {
            Counter::PropagateRelaxations => "propagate.relaxations",
            Counter::PropagateResiduePops => "propagate.residue_pops",
            Counter::PropagateNodes => "propagate.nodes",
            Counter::PropagateCases => "propagate.cases",
            Counter::ConeSeeds => "cone.seeds",
            Counter::ConeNodes => "cone.nodes",
            Counter::ConeFallbacks => "cone.fallbacks",
            Counter::FlowSweeps => "flow.sweeps",
            Counter::FlowWorklistPops => "flow.worklist_pops",
            Counter::FlowPassDevices => "flow.pass_devices",
            Counter::FlowOriented => "flow.oriented",
            Counter::GraphBuilds => "graph.builds",
            Counter::GraphArcs => "graph.arcs",
            Counter::GraphRootsSpliced => "graph.roots_spliced",
            Counter::ParseLines => "parse.lines",
            Counter::ParseDevices => "parse.devices",
            Counter::DiagnosticsEmitted => "diag.emitted",
            Counter::PassComputed => "pass.computed",
            Counter::PassReused => "pass.reused",
            Counter::PassSpliced => "pass.spliced",
            Counter::PassRevalidated => "pass.revalidated",
            Counter::CacheNodesReused => "cache.nodes_reused",
            Counter::CacheNodesRecomputed => "cache.nodes_recomputed",
            Counter::CacheCaseHits => "cache.case_hits",
            Counter::CacheCaseMisses => "cache.case_misses",
            Counter::CheckIssues => "checks.issues",
            Counter::SessionCommands => "session.commands",
            Counter::FaultInjected => "fault.injected",
            Counter::FaultRetries => "fault.retries",
            Counter::FaultDegraded => "fault.degraded",
            Counter::FaultJournalReplays => "fault.journal_replays",
            Counter::IngestChunks => "ingest.chunks",
            Counter::IngestBytes => "ingest.bytes",
            Counter::IngestPrescanSyms => "ingest.prescan_syms",
            Counter::IngestReallocs => "ingest.reallocs",
            Counter::IngestPeakAllocEst => "ingest.peak_alloc_est",
            Counter::MacroClasses => "macro.classes",
            Counter::MacroAnalyzed => "macro.analyzed",
            Counter::MacroInstanced => "macro.instanced",
            Counter::MacroDesplit => "macro.desplit",
            Counter::ServeAccepted => "serve.accepted",
            Counter::ServeRejected => "serve.rejected",
            Counter::ServeActivePeak => "serve.active_peak",
            Counter::ServeRequests => "serve.requests",
            Counter::ServeRetries => "serve.retries",
        }
    }

    /// Whether the counter belongs to the **work** plane: bit-identical
    /// across `--jobs` counts for a fixed command sequence. A warm run
    /// served by the cone engine records less work than a cold one —
    /// legitimately — but never a schedule-dependent amount. Everything
    /// else is **telemetry**: still deterministic for a fixed command
    /// sequence, but reuse-dependent by design.
    pub fn is_work(self) -> bool {
        matches!(
            self,
            Counter::PropagateRelaxations
                | Counter::PropagateResiduePops
                | Counter::PropagateNodes
                | Counter::PropagateCases
                | Counter::ConeSeeds
                | Counter::ConeNodes
                | Counter::ConeFallbacks
                | Counter::MacroClasses
                | Counter::MacroAnalyzed
                | Counter::MacroInstanced
                | Counter::MacroDesplit
        )
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

// `AtomicU64` has no const Default; spell the array out via a const.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static VALUES: [AtomicU64; COUNT] = [ZERO; COUNT];

/// Whether the counter plane is recording. One relaxed load: this is
/// the check hot paths make before accumulating anything.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the counter plane on or off. Values persist across toggles;
/// use [`reset`] to zero them.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Adds `n` to a counter. No-op while the plane is disabled.
///
/// Call sites on hot paths should accumulate into a local (their
/// per-thread shard) and publish once per chunk or per run — the adds
/// commute, so totals are interleaving-independent.
#[inline]
pub fn add(c: Counter, n: u64) {
    if enabled() && n != 0 {
        VALUES[c as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Adds 1 to a counter. No-op while the plane is disabled.
#[inline]
pub fn incr(c: Counter) {
    if enabled() {
        VALUES[c as usize].fetch_add(1, Ordering::Relaxed);
    }
}

/// Raises a counter to at least `v` (a high-water mark, e.g.
/// `serve.active_peak`). `fetch_max` commutes just like addition, so
/// concurrent publishers still yield a schedule-independent total.
/// No-op while the plane is disabled.
#[inline]
pub fn set_max(c: Counter, v: u64) {
    if enabled() {
        VALUES[c as usize].fetch_max(v, Ordering::Relaxed);
    }
}

/// Zeroes every counter (the enabled flag is untouched).
pub fn reset() {
    for v in &VALUES {
        v.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of every counter: the mergeable value type the
/// dump formats and delta arithmetic work over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    values: [u64; COUNT],
}

// `[u64; N]: Default` stops at N = 32; the registry outgrew it.
impl Default for Snapshot {
    fn default() -> Self {
        Snapshot { values: [0; COUNT] }
    }
}

/// Captures the current counter values.
pub fn snapshot() -> Snapshot {
    let mut values = [0u64; COUNT];
    for (v, a) in values.iter_mut().zip(VALUES.iter()) {
        *v = a.load(Ordering::Relaxed);
    }
    Snapshot { values }
}

impl Snapshot {
    /// The value of one counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.values[c as usize]
    }

    /// Counter-wise `self - earlier` (saturating, so a reset between
    /// snapshots degrades to zeros instead of wrapping).
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let mut values = [0u64; COUNT];
        for (i, v) in values.iter_mut().enumerate() {
            *v = self.values[i].saturating_sub(earlier.values[i]);
        }
        Snapshot { values }
    }

    /// Counter-wise sum: merging another shard into this one.
    pub fn merge(&mut self, other: &Snapshot) {
        for (v, o) in self.values.iter_mut().zip(other.values.iter()) {
            *v += o;
        }
    }

    /// Whether the work-plane counters equal `other`'s — the invariant
    /// the determinism tests assert across `--jobs` counts.
    pub fn work_eq(&self, other: &Snapshot) -> bool {
        ALL.iter()
            .filter(|c| c.is_work())
            .all(|&c| self.get(c) == other.get(c))
    }

    /// The counter block as one JSON object with `"work"` and
    /// `"telemetry"` sub-objects, every counter present in registry
    /// order. No times, no floats: byte-stable across machines.
    pub fn render_json(&self) -> String {
        let group = |want_work: bool| {
            let mut s = String::new();
            for c in ALL.iter().filter(|c| c.is_work() == want_work) {
                if !s.is_empty() {
                    s.push(',');
                }
                s.push_str(&format!(r#""{}":{}"#, c.name(), self.get(*c)));
            }
            s
        };
        format!(
            r#"{{"work":{{{}}},"telemetry":{{{}}}}}"#,
            group(true),
            group(false)
        )
    }

    /// A human-readable two-column table of the nonzero counters,
    /// grouped into the work and telemetry planes.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for (title, want_work) in [("work", true), ("telemetry", false)] {
            let rows: Vec<&Counter> = ALL
                .iter()
                .filter(|c| c.is_work() == want_work && self.get(**c) != 0)
                .collect();
            if rows.is_empty() {
                continue;
            }
            out.push_str(&format!("{title} counters\n"));
            for c in rows {
                out.push_str(&format!("  {:<26} {:>14}\n", c.name(), self.get(*c)));
            }
        }
        if out.is_empty() {
            out.push_str("counters: all zero (plane disabled?)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Counter tests mutate process-global state; serialize them against
    // each other (other test modules use disjoint counters or tolerate
    // concurrent increments).
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static M: std::sync::Mutex<()> = std::sync::Mutex::new(());
        M.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_adds_are_dropped_and_enabled_adds_stick() {
        let _g = lock();
        set_enabled(false);
        let before = snapshot();
        add(Counter::GraphArcs, 17);
        assert_eq!(snapshot().since(&before).get(Counter::GraphArcs), 0);
        set_enabled(true);
        add(Counter::GraphArcs, 17);
        incr(Counter::GraphArcs);
        let delta = snapshot().since(&before);
        set_enabled(false);
        assert_eq!(delta.get(Counter::GraphArcs), 18);
    }

    #[test]
    fn concurrent_adds_merge_exactly() {
        let _g = lock();
        set_enabled(true);
        let before = snapshot();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    // The shard pattern: accumulate locally, publish once.
                    let mut local = 0u64;
                    for i in 0..1000u64 {
                        local += i % 7;
                    }
                    add(Counter::PropagateRelaxations, local);
                });
            }
        });
        let delta = snapshot().since(&before);
        set_enabled(false);
        let one: u64 = (0..1000u64).map(|i| i % 7).sum();
        assert_eq!(delta.get(Counter::PropagateRelaxations), 8 * one);
    }

    #[test]
    fn set_max_is_a_high_water_mark() {
        let _g = lock();
        set_enabled(false);
        let before = snapshot();
        set_max(Counter::ServeActivePeak, 9);
        assert_eq!(
            snapshot().since(&before).get(Counter::ServeActivePeak),
            0,
            "disabled set_max must be dropped"
        );
        set_enabled(true);
        set_max(Counter::ServeActivePeak, 3);
        set_max(Counter::ServeActivePeak, 7);
        set_max(Counter::ServeActivePeak, 5);
        let delta = snapshot().since(&before);
        set_enabled(false);
        assert_eq!(delta.get(Counter::ServeActivePeak), 7);
    }

    #[test]
    fn json_dump_lists_every_counter_once_in_registry_order() {
        let s = Snapshot::default();
        let json = s.render_json();
        for c in ALL {
            assert_eq!(
                json.matches(&format!(r#""{}":"#, c.name())).count(),
                1,
                "{} missing or duplicated",
                c.name()
            );
        }
        assert!(json.starts_with(r#"{"work":{"#));
        assert!(json.contains(r#""telemetry":{"#));
    }

    #[test]
    fn work_plane_comparison_ignores_telemetry() {
        let mut a = Snapshot::default();
        let mut b = Snapshot::default();
        a.values[Counter::PassReused as usize] = 5;
        assert!(a.work_eq(&b), "telemetry differences must not matter");
        b.values[Counter::PropagateRelaxations as usize] = 1;
        assert!(!a.work_eq(&b), "work differences must matter");
    }

    #[test]
    fn since_and_merge_are_inverse_shapes() {
        let mut a = Snapshot::default();
        a.values[0] = 10;
        let mut b = a;
        b.values[0] = 25;
        let d = b.since(&a);
        assert_eq!(d.values[0], 15);
        let mut m = a;
        m.merge(&d);
        assert_eq!(m, b);
        // Saturation: a "later" snapshot that is behind yields zero.
        assert_eq!(a.since(&b).values[0], 0);
    }

    #[test]
    fn table_elides_zeros() {
        let mut s = Snapshot::default();
        s.values[Counter::FlowSweeps as usize] = 3;
        let t = s.render_table();
        assert!(t.contains("flow.sweeps"));
        assert!(!t.contains("graph.arcs"));
    }
}
