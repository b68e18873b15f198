//! Fault-injection and recovery suite.
//!
//! Exercises the `tv_fault` plane end to end: the in-process `tv chaos`
//! sweep against its committed golden, the `--faults` fuzz mode, and the
//! binary-level `--fault-seed` hook for the two sites only the CLI
//! crosses (`trace_write`, `metrics_write`).
//!
//! The fault plane is process-global, so every in-process test that
//! arms it serializes on [`plane_lock`]. Binary-level tests spawn their
//! own process and need no lock.

use std::io::Write as _;
use std::process::{Command, Stdio};
use std::sync::{Mutex, MutexGuard};

use nmos_tv::chaos::run_chaos;
use nmos_tv::core::AnalysisOptions;
use nmos_tv::fault::{FaultPlan, Site};

fn plane_lock() -> MutexGuard<'static, ()> {
    static M: Mutex<()> = Mutex::new(());
    M.lock().unwrap_or_else(|e| e.into_inner())
}

fn tv() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tv"))
}

fn temp_path(stem: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "tv-chaos-test-{}-{}-{stem}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock")
            .as_nanos()
    ));
    p
}

/// The committed chaos golden is exactly what `tv chaos --seeds 64`
/// prints (scripts/verify.sh pins the release binary to the same file).
#[test]
fn chaos_sweep_matches_committed_golden() {
    let _g = plane_lock();
    let report = run_chaos(64, &AnalysisOptions::default()).expect("sweep runs");
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/chaos_smoke.golden"
    ))
    .expect("read chaos golden");
    assert_eq!(format!("{report}\n"), golden);
    assert!(report.is_clean(), "{report}");
}

/// Two sweeps of the same seed range must render identically — the
/// whole report is a pure function of (seeds, options).
#[test]
fn chaos_sweep_is_deterministic() {
    let _g = plane_lock();
    let a = run_chaos(8, &AnalysisOptions::default()).expect("sweep runs");
    let b = run_chaos(8, &AnalysisOptions::default()).expect("sweep runs");
    assert_eq!(a.to_string(), b.to_string());
}

/// The sweep's recovery paths hold at a parallel jobs setting too (the
/// worker-panic sites degrade chunked scoped threads, not just the
/// serial fast path).
#[test]
fn chaos_sweep_is_clean_with_parallel_workers() {
    let _g = plane_lock();
    let options = AnalysisOptions {
        jobs: 2,
        ..AnalysisOptions::default()
    };
    let report = run_chaos(12, &options).expect("sweep runs");
    assert!(report.is_clean(), "{report}");
}

/// `tv fuzz --faults` — random session scripts under seeded plans obey
/// the same contract.
#[test]
fn fault_fuzz_is_clean() {
    let _g = plane_lock();
    let report = nmos_tv::fuzz::run_faults(25, 0xFA17).expect("fuzz runs");
    assert!(report.is_clean(), "{report}");
    assert!(report.triggered > 0, "no plan ever fired: {report}");
}

/// Finds a seed whose plan is `site` on the first crossing.
fn seed_for(site: Site) -> u64 {
    (0..10_000u64)
        .find(|&s| FaultPlan::from_seed(s) == FaultPlan { site, after: 0 })
        .expect("10k seeds cover every (site, after=0) plan")
}

/// A session driven through the real binary with `--fault-seed` aimed at
/// the trace writer: the injected write failure is retried once, the
/// run stays clean, and the written trace still validates.
#[test]
fn binary_fault_seed_trace_write_recovers() {
    let trace = temp_path("trace.json");
    let seed = seed_for(Site::TraceWrite);
    let mut child = tv()
        .arg("session")
        .arg("--trace")
        .arg(&trace)
        .arg("--fault-seed")
        .arg(seed.to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tv");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(b"demo small\nanalyze\nquit\n")
        .expect("feed session");
    let out = child.wait_with_output().expect("run tv");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let check = tv()
        .arg("trace-check")
        .arg(&trace)
        .output()
        .expect("run tv");
    assert_eq!(check.status.code(), Some(0));
    let _ = std::fs::remove_file(&trace);
}

/// Same at the metrics writer: the dump is written on the retry and is
/// valid JSON with the fault counters recording the injection.
#[test]
fn binary_fault_seed_metrics_write_recovers() {
    let metrics = temp_path("metrics.json");
    let seed = seed_for(Site::MetricsWrite);
    let mut child = tv()
        .arg("session")
        .arg("--metrics")
        .arg(&metrics)
        .arg("--fault-seed")
        .arg(seed.to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tv");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(b"demo small\nanalyze\nquit\n")
        .expect("feed session");
    let out = child.wait_with_output().expect("run tv");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&metrics).expect("metrics written on retry");
    nmos_tv::obs::json::parse(&text).expect("metrics dump is valid JSON");
    assert!(
        text.contains("\"fault.injected\""),
        "fault counters missing from dump: {text}"
    );
    let _ = std::fs::remove_file(&metrics);
}

/// A `graph_build` plan fired at the first, middle and last root: the
/// panic voids extraction, every root is re-emitted by direct build, and
/// the graph reads as the clean build bit for bit at any jobs setting.
#[test]
fn graph_build_fault_at_any_root_rebuilds_the_clean_graph() {
    use nmos_tv::clocks::qualify::qualify_with_flow;
    use nmos_tv::core::{DelayModel, PhaseCase, TimingGraph};
    use nmos_tv::flow::{analyze, RuleSet};

    let _g = plane_lock();
    let nl = nmos_tv::gen::random::random_logic(
        nmos_tv::netlist::Tech::nmos4um(),
        3000,
        0xDECAF,
        nmos_tv::gen::random::RandomMix::default(),
    )
    .netlist;
    let flow = analyze(&nl, &RuleSet::all());
    let q = qualify_with_flow(&nl, &flow);
    let case = PhaseCase::all_active();
    let build = |jobs| TimingGraph::build_par(&nl, &flow, &q, case, DelayModel::Elmore, 1.0, jobs);
    let clean = build(1);
    // Signing crosses the site once per root and a clean extraction
    // crosses it nowhere else, so a plan fires exactly when `after` is
    // below the root count.
    let fires = |after: u64| {
        nmos_tv::fault::arm(FaultPlan {
            site: Site::GraphBuild,
            after,
        });
        build(1);
        let fired = nmos_tv::fault::fired();
        nmos_tv::fault::disarm();
        fired
    };
    let probe: Vec<u64> = (0..nl.node_count() as u64).collect();
    let roots = probe.partition_point(|&k| fires(k)) as u64;
    // More roots than one signing block, so jobs 2 and 8 sign in waves.
    assert!(roots > 512, "the design has {roots} roots");
    for after in [0, roots / 2, roots - 1] {
        for jobs in [1usize, 2, 8] {
            nmos_tv::fault::arm(FaultPlan {
                site: Site::GraphBuild,
                after,
            });
            let g = build(jobs);
            assert!(nmos_tv::fault::fired(), "after {after}, jobs {jobs}");
            nmos_tv::fault::disarm();
            let what = format!("after {after}, jobs {jobs}");
            assert!(g.diagnostics.is_empty(), "{what}");
            assert_eq!(g.arc_count(), clean.arc_count(), "{what}");
            // The degraded build gives every root rows of its own and the
            // clean one shares a block per class, so each arc is compared
            // by what walks read of it: its endpoints, inversion, kind and
            // row words.
            let read = |t: &TimingGraph, a: &nmos_tv::core::Arc| {
                (a.from, a.to, a.inverting, a.kind, t.delay_of(a).words())
            };
            for (a, b) in g.arcs.iter().zip(&clean.arcs) {
                assert_eq!(read(&g, a), read(&clean, b), "{what}");
            }
            assert_eq!(g.schedule.order, clean.schedule.order, "{what}");
            assert_eq!(
                g.schedule.level_starts, clean.schedule.level_starts,
                "{what}"
            );
            assert_eq!(g.schedule.residue, clean.schedule.residue, "{what}");
        }
    }
}

/// A case result a fault degraded — cut short by the exhausted deadline
/// clock, or carrying a worker-panic diagnostic — is never kept: the
/// next, fault-free analyze of the unchanged design walks that case
/// again instead of reusing it, and its report matches a cold run.
#[test]
fn fault_degraded_case_results_are_never_kept() {
    use nmos_tv::core::{report_fingerprint, Analyzer, PassId, PassManager, PassOutcome};
    use nmos_tv::gen::datapath::{datapath, DatapathConfig};
    use nmos_tv::netlist::{codes, Design, Tech};

    let _g = plane_lock();
    let design = Design::new(datapath(Tech::nmos4um(), DatapathConfig::small()).netlist);
    let opts = AnalysisOptions::default();
    let cold = report_fingerprint(
        design.netlist(),
        &Analyzer::new(design.netlist()).run(&opts),
    );
    for (site, code) in [
        (Site::ExhaustClock, codes::ANALYSIS_DEADLINE),
        (Site::PropagateWorker, codes::ANALYSIS_WORKER_PANIC),
    ] {
        let mut pm = PassManager::new();
        // The first walk is the φ1 case's: under case analysis the
        // all-active case is not walked.
        nmos_tv::fault::arm(FaultPlan { site, after: 0 });
        let degraded = pm.analyze(&design, &opts);
        assert!(nmos_tv::fault::fired(), "{site:?} never fired");
        nmos_tv::fault::disarm();
        let phi1 = &degraded.phase(0).expect("φ1 analyzed").result;
        assert!(
            phi1.diagnostics.iter().any(|d| d.code == code),
            "{site:?}: {:?}",
            phi1.diagnostics
        );
        let again = pm.analyze(&design, &opts);
        let outcome = |pass| {
            pm.last_trace()
                .iter()
                .find(|e| e.pass == pass)
                .map(|e| e.outcome)
        };
        assert_eq!(outcome(PassId::Arrivals(None)), None, "{site:?}");
        assert_eq!(
            outcome(PassId::Arrivals(Some(0))),
            Some(PassOutcome::Computed),
            "{site:?}"
        );
        assert_eq!(
            outcome(PassId::Arrivals(Some(1))),
            Some(PassOutcome::Reused),
            "{site:?}"
        );
        assert_eq!(
            report_fingerprint(design.netlist(), &again),
            cold,
            "{site:?}"
        );
    }
}

/// How many times a clean run of `work` crosses the `graph_build`
/// site: a plan fires exactly when its `after` is below that count.
fn graph_build_hits(work: &dyn Fn()) -> u64 {
    let fires = |after: u64| {
        nmos_tv::fault::arm(FaultPlan {
            site: Site::GraphBuild,
            after,
        });
        work();
        let fired = nmos_tv::fault::fired();
        nmos_tv::fault::disarm();
        fired
    };
    let (mut lo, mut hi) = (0u64, 1u64);
    while fires(hi) {
        (lo, hi) = (hi, hi * 2);
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fires(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// A full analysis crosses the `graph_build` site once per root and case,
/// exactly as three lone case builds do, whether a phase case re-signs
/// only the roots it can change or reads the all-active graph. A plan
/// firing inside a phase case's shared extraction voids that extraction
/// only: the case is re-emitted root by root and the report equals the
/// clean one, at any jobs setting.
#[test]
fn graph_build_fault_in_a_shared_phase_extraction_degrades_like_a_lone_build() {
    use nmos_tv::clocks::qualify::qualify_with_flow;
    use nmos_tv::core::{report_fingerprint, Analyzer, PhaseCase, TimingGraph};
    use nmos_tv::flow::{analyze, RuleSet};
    use nmos_tv::gen::datapath::{datapath, DatapathConfig};
    use nmos_tv::netlist::{codes, Tech};

    let _g = plane_lock();
    let t = Tech::nmos4um();
    let mix = nmos_tv::gen::random::RandomMix::default();
    let designs = [
        (
            "small",
            datapath(t.clone(), DatapathConfig::small()).netlist,
        ),
        (
            "mips32",
            datapath(t.clone(), DatapathConfig::mips32()).netlist,
        ),
        // φ1 replaces no root here: its view is empty.
        (
            "random",
            nmos_tv::gen::random::random_logic(t, 1_000, 0xFA17, mix).netlist,
        ),
    ];
    for (name, nl) in &designs {
        let flow = analyze(nl, &RuleSet::all());
        let q = qualify_with_flow(nl, &flow);
        let opts = |jobs| AnalysisOptions {
            jobs,
            ..AnalysisOptions::default()
        };
        let lone = |case| {
            graph_build_hits(&|| {
                TimingGraph::build_par(nl, &flow, &q, case, opts(2).model, 1.0, 2);
            })
        };
        let comb = lone(PhaseCase::all_active());
        let cases = comb + lone(PhaseCase::phase(0)) + lone(PhaseCase::phase(1));
        let run = graph_build_hits(&|| {
            Analyzer::new(nl).run(&opts(2));
        });
        assert_eq!(run, cases, "{name}: graph_build hits per analyze");

        let clean = report_fingerprint(nl, &Analyzer::new(nl).run(&opts(1)));
        // The first and a middle root of φ1, and the last root of φ2.
        for after in [comb, comb + comb / 2, run - 1] {
            for jobs in [1usize, 2, 8] {
                nmos_tv::fault::arm(FaultPlan {
                    site: Site::GraphBuild,
                    after,
                });
                let report = Analyzer::new(nl).run(&opts(jobs));
                let what = format!("{name}: after {after}, jobs {jobs}");
                assert!(nmos_tv::fault::fired(), "{what}");
                nmos_tv::fault::disarm();
                assert_eq!(report_fingerprint(nl, &report), clean, "{what}");
                assert!(
                    report
                        .diagnostics
                        .iter()
                        .all(|d| d.code != codes::ANALYSIS_WORKER_PANIC),
                    "{what}"
                );
            }
        }
    }
}
