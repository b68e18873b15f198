//! The deterministic fault-injection plane.
//!
//! Production recovery code is only trustworthy if its failure paths run
//! on every commit, not just when the data center misbehaves. This crate
//! provides the machinery: a seeded [`FaultPlan`] names one trust
//! boundary ([`Site`]) and a trigger count, and [`fault_point!`] hooks
//! compiled into those boundaries fire the plan's fault exactly once —
//! a forced worker panic, a forced `io::Error`, a corrupted arrival
//! certificate, an exhausted deadline clock — after which the hosting
//! subsystem's recovery path (serial degradation, bounded retry, cold
//! recompute) must restore the documented contract. `tv chaos` sweeps
//! seeds over golden workloads and asserts exactly that.
//!
//! The recovery half of worker-panic isolation lives here too:
//! [`isolated_map`] is the one fork-join primitive every panic-isolated
//! fan-out in the workspace runs through, so scoped worker threads,
//! per-item `catch_unwind` and in-order collection are written once.
//!
//! Design constraints, in order:
//!
//! * **Zero-cost disarmed.** Every hook is one relaxed atomic load and
//!   an untaken branch, the same budget as the `tv_obs` counter plane;
//!   the bench-smoke 2× gate holds it there. No allocation, no TLS.
//! * **Deterministic.** A plan is a pure function of its seed
//!   (SplitMix64, the same generator as `tv_gen::rng`). Firing is
//!   one-shot and atomic, so even when worker threads race to a site
//!   the fault fires exactly once, and every forced failure is
//!   expressed in deterministic terms (a poisoned deadline flag, never
//!   a wall-clock read) so recovery transcripts are golden-able.
//! * **Dependency-free.** Nothing below `std`; every crate in the
//!   workspace can host a hook without a cycle.
//!
//! The plane is process-global, like the counter plane: tests that arm
//! plans serialize on their own mutex (see `tv chaos` and the fuzzer's
//! `--faults` mode, which run workloads back to back, never in
//! parallel).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Every trust boundary carrying a [`fault_point!`] hook. The variants
/// are the registry: `tv chaos` sweeps plans over all of them and its
/// summary reports per-site injection counts under [`Site::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Site {
    /// Reading a `.sim` file from disk (session `load`, CLI load).
    SimRead,
    /// A 64-line chunk boundary inside the recovering `.sim` parser.
    ParseChunk,
    /// A graph-build worker, per stage root (forced panic).
    GraphBuild,
    /// A levelized-propagation worker, per node evaluation (forced
    /// panic).
    PropagateWorker,
    /// Entry into the pass pipeline (forced `TvError::Internal`).
    PassEntry,
    /// The arrival pass's certificate lookup (forced corruption: the
    /// kept arrivals must be dropped and the case recomputed cold).
    CertLookup,
    /// The propagation deadline/budget clock (forced early exhaustion,
    /// expressed deterministically — never a wall-clock read).
    ExhaustClock,
    /// Writing a `--trace` Chrome trace file.
    TraceWrite,
    /// Writing a `--metrics` counter dump.
    MetricsWrite,
    /// Appending to a `--journal` session journal.
    JournalWrite,
    /// The serving plane's listener accepting a connection.
    Accept,
    /// Reading a protocol frame off a served connection.
    FrameRead,
    /// Writing a protocol frame to a served connection.
    FrameWrite,
}

/// All sites, in registry order.
pub const SITES: [Site; 13] = [
    Site::SimRead,
    Site::ParseChunk,
    Site::GraphBuild,
    Site::PropagateWorker,
    Site::PassEntry,
    Site::CertLookup,
    Site::ExhaustClock,
    Site::TraceWrite,
    Site::MetricsWrite,
    Site::JournalWrite,
    Site::Accept,
    Site::FrameRead,
    Site::FrameWrite,
];

/// What failure a site expresses when its hook fires. Each site has
/// exactly one kind — the fault model is "this boundary breaks the way
/// that boundary breaks", not an arbitrary cross product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A forced `std::io::Error` from a read or write.
    Io,
    /// A forced panic inside an isolated worker.
    Panic,
    /// A forced internal-invariant error (`TvError::Internal`).
    Internal,
    /// A forced certificate corruption (cache must recompute cold).
    Corrupt,
    /// A forced early exhaustion of a resource guard.
    Exhaust,
}

impl Site {
    /// Stable snake_case name used in chaos summaries and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Site::SimRead => "sim_read",
            Site::ParseChunk => "parse_chunk",
            Site::GraphBuild => "graph_build",
            Site::PropagateWorker => "propagate_worker",
            Site::PassEntry => "pass_entry",
            Site::CertLookup => "cert_lookup",
            Site::ExhaustClock => "exhaust_clock",
            Site::TraceWrite => "trace_write",
            Site::MetricsWrite => "metrics_write",
            Site::JournalWrite => "journal_write",
            Site::Accept => "accept",
            Site::FrameRead => "frame_read",
            Site::FrameWrite => "frame_write",
        }
    }

    /// The failure kind this site expresses.
    pub fn kind(self) -> Kind {
        match self {
            Site::SimRead | Site::TraceWrite | Site::MetricsWrite | Site::JournalWrite => Kind::Io,
            Site::ParseChunk => Kind::Io,
            Site::Accept | Site::FrameRead | Site::FrameWrite => Kind::Io,
            Site::GraphBuild | Site::PropagateWorker => Kind::Panic,
            Site::PassEntry => Kind::Internal,
            Site::CertLookup => Kind::Corrupt,
            Site::ExhaustClock => Kind::Exhaust,
        }
    }
}

/// One seeded fault: fire `site`'s failure on its `after`-th hit
/// (0 = the first time the boundary is crossed). One-shot: once fired,
/// the plan stays spent until the next [`arm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The trust boundary to break.
    pub site: Site,
    /// How many hits of the site to let pass before firing.
    pub after: u64,
}

/// One SplitMix64 step (the same finalizer as `tv_gen::rng::Rng64`,
/// vendored so this crate stays dependency-free).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// The plan a seed deterministically names: a uniformly chosen site
    /// and a small trigger count (0–2, so plans fire early enough for
    /// short workloads to reach them).
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut s = seed;
        let site = SITES[(splitmix(&mut s) % SITES.len() as u64) as usize];
        let after = splitmix(&mut s) % 3;
        FaultPlan { site, after }
    }
}

static ARMED: AtomicBool = AtomicBool::new(false);
static SITE: AtomicUsize = AtomicUsize::new(0);
static AFTER: AtomicU64 = AtomicU64::new(0);
static HITS: AtomicU64 = AtomicU64::new(0);
static FIRED: AtomicBool = AtomicBool::new(false);

/// Arms `plan` for the whole process, resetting hit and fired state.
pub fn arm(plan: FaultPlan) {
    // Order matters: publish the plan before raising the armed flag so
    // a hook that observes `ARMED` sees a consistent plan.
    ARMED.store(false, Ordering::SeqCst);
    SITE.store(plan.site as usize, Ordering::SeqCst);
    AFTER.store(plan.after, Ordering::SeqCst);
    HITS.store(0, Ordering::SeqCst);
    FIRED.store(false, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarms the plane; hooks return to their one-relaxed-load fast path.
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
}

/// Whether the currently armed plan has fired.
pub fn fired() -> bool {
    FIRED.load(Ordering::SeqCst)
}

/// The armed plan, if any (chaos reads this back for its summary).
pub fn armed() -> Option<FaultPlan> {
    if !ARMED.load(Ordering::SeqCst) {
        return None;
    }
    Some(FaultPlan {
        site: SITES[SITE.load(Ordering::SeqCst)],
        after: AFTER.load(Ordering::SeqCst),
    })
}

/// The hook primitive: reports whether `site`'s fault fires at this
/// crossing. Disarmed, this is one relaxed load and an untaken branch.
/// Armed, each crossing of the plan's site counts one hit, and the
/// `after`-th hit fires — exactly once, even under worker races.
#[inline]
pub fn fire(site: Site) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    fire_slow(site)
}

#[cold]
fn fire_slow(site: Site) -> bool {
    if SITE.load(Ordering::SeqCst) != site as usize || FIRED.load(Ordering::SeqCst) {
        return false;
    }
    let hit = HITS.fetch_add(1, Ordering::SeqCst);
    if hit == AFTER.load(Ordering::SeqCst) {
        // `swap` keeps the one-shot guarantee when two workers reach
        // the trigger hit concurrently.
        !FIRED.swap(true, Ordering::SeqCst)
    } else {
        false
    }
}

/// A forced `io::Error` for an I/O site, if the plan fires here.
pub fn io_error(site: Site) -> Option<std::io::Error> {
    fire(site)
        .then(|| std::io::Error::other(format!("injected fault at {} (tv_fault)", site.name())))
}

/// The panic message an injected worker panic carries (asserted on by
/// isolation tests).
pub fn panic_message(site: Site) -> String {
    format!("injected fault at {} (tv_fault)", site.name())
}

/// The workspace's one fork-join primitive: maps `f` over `items` on up
/// to `threads` scoped workers, isolating every item under its own
/// `catch_unwind`, and returns the results in item order. A panicking
/// item yields `Err(())` in its own slot only; recovery (serial
/// recompute, per-root rebuild, reparse) is the caller's, since only the
/// caller knows what a degraded item means.
///
/// With `threads <= 1` or at most one item everything runs inline on
/// the caller's thread, with no spawn. Otherwise each worker takes one
/// contiguous run of items, so the item-to-worker cover is a pure
/// function of `items.len()` and `threads`.
pub fn isolated_map<I, T, F>(items: Vec<I>, threads: usize, f: F) -> Vec<Result<T, ()>>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let run = |item: I| catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|_| ());
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(run).collect();
    }
    let per = items.len().div_ceil(threads);
    let mut items = items.into_iter();
    let mut runs: Vec<Vec<I>> = Vec::with_capacity(threads);
    loop {
        let part: Vec<I> = items.by_ref().take(per).collect();
        if part.is_empty() {
            break;
        }
        runs.push(part);
    }
    let run = &run;
    std::thread::scope(|s| {
        let handles: Vec<_> = runs
            .into_iter()
            .map(|part| s.spawn(move || part.into_iter().map(run).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("every item is panic-isolated"))
            .collect()
    })
}

/// The hook as an expression: `fault_point!(Site::GraphBuild)` is
/// `true` exactly when the armed plan fires at this crossing.
#[macro_export]
macro_rules! fault_point {
    ($site:expr) => {
        $crate::fire($site)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The plane is process-global; serialize tests touching it.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static M: std::sync::Mutex<()> = std::sync::Mutex::new(());
        M.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disarmed_hooks_never_fire() {
        let _g = lock();
        disarm();
        for s in SITES {
            assert!(!fire(s));
        }
        assert!(armed().is_none());
    }

    #[test]
    fn fires_once_on_the_nth_hit_of_the_right_site() {
        let _g = lock();
        arm(FaultPlan {
            site: Site::GraphBuild,
            after: 2,
        });
        assert!(!fire(Site::PropagateWorker), "wrong site must not fire");
        assert!(!fire(Site::GraphBuild)); // hit 0
        assert!(!fire(Site::GraphBuild)); // hit 1
        assert!(fire(Site::GraphBuild)); // hit 2 — fires
        assert!(fired());
        assert!(!fire(Site::GraphBuild), "one-shot: spent after firing");
        disarm();
    }

    #[test]
    fn rearming_resets_hits_and_fired() {
        let _g = lock();
        arm(FaultPlan {
            site: Site::SimRead,
            after: 0,
        });
        assert!(fire(Site::SimRead));
        arm(FaultPlan {
            site: Site::SimRead,
            after: 0,
        });
        assert!(!fired());
        assert!(fire(Site::SimRead));
        disarm();
    }

    #[test]
    fn concurrent_racers_fire_exactly_once() {
        let _g = lock();
        arm(FaultPlan {
            site: Site::PropagateWorker,
            after: 4,
        });
        let fired_count = std::sync::atomic::AtomicU64::new(0);
        isolated_map((0..8).collect::<Vec<u32>>(), 8, |_| {
            for _ in 0..100 {
                if fire(Site::PropagateWorker) {
                    fired_count.fetch_add(1, Ordering::SeqCst);
                }
            }
        });
        assert_eq!(fired_count.load(Ordering::SeqCst), 1);
        disarm();
    }

    #[test]
    fn plans_are_deterministic_in_the_seed_and_cover_sites() {
        let _g = lock();
        let mut seen = [false; SITES.len()];
        for seed in 0..256u64 {
            let a = FaultPlan::from_seed(seed);
            let b = FaultPlan::from_seed(seed);
            assert_eq!(a, b);
            assert!(a.after < 3);
            seen[a.site as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "256 seeds must cover every site");
    }

    #[test]
    fn io_error_only_materializes_on_fire() {
        let _g = lock();
        disarm();
        assert!(io_error(Site::JournalWrite).is_none());
        arm(FaultPlan {
            site: Site::JournalWrite,
            after: 0,
        });
        let e = io_error(Site::JournalWrite).expect("fires on hit 0");
        assert!(e.to_string().contains("journal_write"));
        assert!(io_error(Site::JournalWrite).is_none(), "one-shot");
        disarm();
    }

    #[test]
    fn isolated_map_keeps_item_order_and_isolates_panics() {
        for threads in [1usize, 2, 8] {
            for n in [0usize, 1, 3, 17] {
                let items: Vec<usize> = (0..n).collect();
                let out = isolated_map(items, threads, |i| i * 10);
                let want: Vec<Result<usize, ()>> = (0..n).map(|i| Ok(i * 10)).collect();
                assert_eq!(out, want, "threads {threads}, {n} items");
            }
            // Item 5 panics: its slot alone is `Err`.
            let out = isolated_map((0..12usize).collect(), threads, |i| {
                if i == 5 {
                    panic!("poisoned item");
                }
                i
            });
            for (i, r) in out.iter().enumerate() {
                assert_eq!(
                    *r,
                    if i == 5 { Err(()) } else { Ok(i) },
                    "threads {threads}"
                );
            }
        }
    }

    #[test]
    fn site_names_are_stable_and_kinds_partition() {
        for s in SITES {
            assert!(!s.name().is_empty());
        }
        assert_eq!(Site::GraphBuild.kind(), Kind::Panic);
        assert_eq!(Site::CertLookup.kind(), Kind::Corrupt);
        assert_eq!(Site::ExhaustClock.kind(), Kind::Exhaust);
        assert_eq!(Site::PassEntry.kind(), Kind::Internal);
        assert_eq!(Site::SimRead.kind(), Kind::Io);
        assert_eq!(Site::Accept.kind(), Kind::Io);
        assert_eq!(Site::FrameRead.kind(), Kind::Io);
        assert_eq!(Site::FrameWrite.kind(), Kind::Io);
    }
}
