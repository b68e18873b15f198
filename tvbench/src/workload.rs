//! The workload catalog and the settings one run takes.

use std::path::PathBuf;
use std::time::Instant;

use crate::report::Outcome;
use crate::{batch, interactive};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    T6Batch,
    RandomBatch,
    SessionMips32,
    ServeMips32,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::T6Batch,
        Workload::RandomBatch,
        Workload::SessionMips32,
        Workload::ServeMips32,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::T6Batch => "t6-batch",
            Workload::RandomBatch => "random-batch",
            Workload::SessionMips32 => "session-mips32",
            Workload::ServeMips32 => "serve-mips32",
        }
    }

    /// Why the workload is in the catalog.
    pub fn why(self) -> &'static str {
        match self {
            Workload::T6Batch => {
                "the 1M-device T6 chip parsed, analyzed and rendered cold: the scale reference, \
                 where 75 shared masters make extraction do almost all graph work"
            }
            Workload::RandomBatch => {
                "the same cold pipeline on 409,600-device random logic with little sharing, so \
                 a gain that only helps replicated designs reads as no change"
            }
            Workload::SessionMips32 => {
                "one closed-loop caller editing and querying mips32 in-process: the pipeline \
                 cache, splice and cone engine, with no ingest"
            }
            Workload::ServeMips32 => {
                "the session mix from two tenants over loopback TCP: the same engine work plus \
                 wire, dispatch and two-tenant contention"
            }
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload: untraced for the end-to-end metrics, traced
    /// for the per-layer ones. An error means the run could not go on.
    pub fn run(self, cfg: &Config) -> Result<Outcome, String> {
        match (self, cfg.trace) {
            (Workload::T6Batch | Workload::RandomBatch, false) => batch::run(self, cfg),
            (Workload::T6Batch | Workload::RandomBatch, true) => batch::run_traced(self, cfg),
            (_, false) => interactive::run(self, cfg),
            (_, true) => interactive::run_traced(self, cfg),
        }
    }
}

/// Design sizes and run lengths. `Full` is the benchmark; `Smoke` runs
/// every code path at toy sizes for the test suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn by_name(name: &str) -> Option<Scale> {
        match name {
            "full" => Some(Scale::Full),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        self.pick("full", "smoke")
    }

    fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }

    /// Cores of the T6 design (67 is the first count past 1M devices).
    pub fn t6_cores(self) -> usize {
        self.pick(67, 1)
    }

    pub fn random_devices(self) -> usize {
        self.pick(409_600, 2_048)
    }

    /// Size of the random-logic sibling the warm-path probe edits.
    pub fn probe_random_devices(self) -> usize {
        self.pick(16_384, 1_024)
    }

    /// Seconds the repeated set-ups of a run last at least.
    pub fn setup_seconds(self) -> f64 {
        self.pick(2.0, 0.0)
    }

    /// Fewest timed reps of a batch run, whatever `--seconds` says.
    pub fn min_reps(self) -> usize {
        self.pick(2, 1)
    }

    /// Fewest steps per caller of an interactive run.
    pub fn min_steps(self) -> usize {
        self.pick(200, 10)
    }

    /// Steps (over all callers) of each of the sixteen untraced and
    /// traced shares an interactive traced run compares.
    pub fn overhead_steps(self) -> usize {
        self.pick(250, 4)
    }

    /// Seconds the layer ledger repeats cold analyses for (one pass at
    /// least).
    pub fn ledger_seconds(self) -> f64 {
        self.pick(10.0, 0.0)
    }

    /// Steps the warm-path probe replays three ways.
    pub fn probe_steps(self) -> usize {
        self.pick(300, 10)
    }
}

pub struct Config {
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    pub scale: Scale,
    pub trace: bool,
    /// Where a traced run writes its Chrome trace and ledger.
    pub trace_dir: PathBuf,
}

/// Seconds of each of at least 5 repeats of `setup` (each torn down,
/// untimed, before the next), repeated until they add up to `seconds`,
/// at most 100 times; `setup_s` is their median. Runs call this after
/// the measured window: the first set-ups of a fresh process run up to a
/// third slower (heap growth, cold caches), and a median over cold and
/// warm repeats would straddle the two.
pub fn setup_times<T>(
    seconds: f64,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<Vec<f64>, String> {
    let mut secs = Vec::new();
    while secs.len() < 5 || (secs.len() < 100 && secs.iter().sum::<f64>() < seconds) {
        let t = Instant::now();
        let done = setup()?;
        secs.push(t.elapsed().as_secs_f64());
        teardown(done);
    }
    Ok(secs)
}
