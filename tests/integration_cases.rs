//! Which cases an analysis walks.
//!
//! Under case analysis a clocked design is timed one clock phase at a
//! time: the all-active graph is still built, as the base the phase
//! views read, but it is not walked. Its result reads empty, and the
//! report's completeness and critical arrival come from the phase
//! cases. A design without clocks, and a run with case analysis off,
//! walk the all-active case as their only case.

use std::sync::{Mutex, MutexGuard};

use nmos_tv::core::{AnalysisOptions, Analyzer, Completion, PassId, PassManager, PassOutcome};
use nmos_tv::gen::datapath::{datapath, DatapathConfig};
use nmos_tv::gen::{adder, mips_mc};
use nmos_tv::netlist::{Design, Netlist, Tech};
use nmos_tv::obs::Counter;

/// The counter plane is process-global: the tests of this file take
/// turns, so no walk of one lands in another's count.
static PLANE: Mutex<()> = Mutex::new(());

fn plane_lock() -> MutexGuard<'static, ()> {
    let guard = PLANE.lock().unwrap_or_else(|e| e.into_inner());
    nmos_tv::obs::counters::set_enabled(true);
    guard
}

fn mips32() -> Netlist {
    datapath(Tech::nmos4um(), DatapathConfig::mips32()).netlist
}

/// The cases whose arrival pass the last analyze recorded, in order,
/// with how each was satisfied.
fn arrival_passes(pm: &PassManager) -> Vec<(Option<u8>, PassOutcome)> {
    pm.last_trace()
        .iter()
        .filter_map(|e| match e.pass {
            PassId::Arrivals(case) => Some((case, e.outcome)),
            _ => None,
        })
        .collect()
}

/// Runs `f` and returns its value with the number of cases it walked.
fn walked_cases<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = nmos_tv::obs::snapshot();
    let r = f();
    let cases = nmos_tv::obs::snapshot()
        .since(&before)
        .get(Counter::PropagateCases);
    (r, cases)
}

#[test]
fn a_cold_clocked_analyze_walks_only_the_phase_cases() {
    let _g = plane_lock();
    let opts = AnalysisOptions::default();
    let small = datapath(Tech::nmos4um(), DatapathConfig::small()).netlist;
    for (name, nl) in [("small", small), ("mips32", mips32())] {
        let design = Design::new(nl);
        let mut pm = PassManager::new();
        let (report, cases) = walked_cases(|| pm.analyze(&design, &opts));
        assert_eq!(cases, 2, "{name}: propagate.cases");
        let computed = PassOutcome::Computed;
        assert_eq!(
            arrival_passes(&pm),
            [(Some(0), computed), (Some(1), computed)],
            "{name}: no arrivals.comb in the trace"
        );
        // The all-active graph is still built: the views read it.
        assert!(
            pm.last_trace()
                .iter()
                .any(|e| e.pass == PassId::Graph(None) && e.outcome == computed),
            "{name}: graph.comb was not built"
        );
        let comb = &report.combinational;
        assert_eq!(comb.relaxations, 0, "{name}");
        assert!(comb.endpoints.is_empty(), "{name}");
        assert_eq!(comb.completion, Completion::Complete, "{name}");
        assert!(!comb.cyclic, "{name}");
        assert!(report.combinational_paths.is_empty(), "{name}");
        let nl = design.netlist();
        assert!(nl.node_ids().all(|id| comb.arrival(id).is_none()), "{name}");
        assert_eq!(report.phases.len(), 2, "{name}");

        // The one-shot path walks the same two cases.
        let (_, cases) = walked_cases(|| Analyzer::new(nl).run(&opts));
        assert_eq!(cases, 2, "{name}: one-shot propagate.cases");
    }
}

#[test]
fn one_core_t6_and_mips32_report_complete_with_a_critical_arrival() {
    let _g = plane_lock();
    let opts = AnalysisOptions::default();
    let t6 = mips_mc::t6_mips_mc(Tech::nmos4um(), 1).netlist;
    for (name, nl) in [("t6-1core", t6), ("mips32", mips32())] {
        let report = Analyzer::new(&nl).run(&opts);
        assert!(report.is_complete(), "{name}");
        assert!(report.unresolved_nodes().is_empty(), "{name}");
        let text = report.render(&nl);
        assert!(!text.contains("PARTIAL RESULTS"), "{name}");
        let latest = report
            .phases
            .iter()
            .map(|p| p.result.critical_arrival().expect("each phase arrives"))
            .fold(f64::NEG_INFINITY, f64::max);
        let summary = PassManager::new()
            .try_summarize(&Design::new(nl), &opts)
            .expect("within limits");
        assert!(summary.complete, "{name}");
        let critical = summary.critical.expect("a numeric critical arrival");
        assert!(critical.is_finite() && critical > 0.0, "{name}: {critical}");
        assert_eq!(critical.to_bits(), latest.to_bits(), "{name}");
    }
}

#[test]
fn unclocked_and_no_case_runs_walk_the_all_active_case() {
    let _g = plane_lock();
    let adder = adder::ripple_carry_adder(Tech::nmos4um(), 16).netlist;
    assert!(adder.clocks().is_empty());
    let no_case = AnalysisOptions {
        case_analysis: false,
        ..AnalysisOptions::default()
    };
    let runs = [
        ("adder-16", adder, AnalysisOptions::default()),
        ("mips32 --no-case", mips32(), no_case.clone()),
    ];
    for (name, nl, opts) in runs {
        let design = Design::new(nl);
        let mut pm = PassManager::new();
        let (summary, cases) = walked_cases(|| pm.try_summarize(&design, &opts));
        let summary = summary.expect("within limits");
        assert_eq!(cases, 1, "{name}: propagate.cases");
        assert_eq!(
            arrival_passes(&pm),
            [(None, PassOutcome::Computed)],
            "{name}"
        );
        let report = pm.analyze(&design, &opts);
        assert!(report.phases.is_empty(), "{name}");
        let comb = &report.combinational;
        assert!(comb.relaxations > 0, "{name}");
        let nl = design.netlist();
        assert!(nl.node_ids().any(|id| comb.arrival(id).is_some()), "{name}");
        assert_eq!(summary.critical, comb.critical_arrival(), "{name}");
        assert_eq!(summary.complete, report.is_complete(), "{name}");
    }
    // The all-active view of the clocked design is cyclic: walked alone,
    // it still exhausts its relaxation budget and reports partial.
    let report = Analyzer::new(&mips32()).run(&no_case);
    assert!(report.combinational.cyclic);
    assert_eq!(report.combinational.completion, Completion::BudgetExhausted);
    assert!(!report.is_complete());
}
