//! Demand-driven cone propagation suite.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Shape-mismatch safety** — an edit that changes the netlist's
//!    node count (`addnode` + `adddev`) defeats the graph splice, so the
//!    rebuilt graph carries no `since` certificate: the arrival passes
//!    run the full engine (never the cone against a stale snapshot) and
//!    the rebuilt fingerprints match a cold run exactly.
//! 2. **Bit-identity under randomized edits** — for arbitrary edit
//!    sequences, the cone engine's arrivals, predecessor records, race
//!    lists, and golden report fingerprints equal the full walk's at
//!    `--jobs` 1/2/8, and the cone's relaxation work never exceeds the
//!    full walk's.
//! 3. **Certificate exactness** — the cone seeds a splice certifies are
//!    exactly the nodes whose in-arc delay words differ between cold
//!    graph builds before and after the edit.
//!
//! The counter plane is process-global, so the tests that read it
//! serialize behind `OBS_LOCK` and every other test in this binary
//! takes the same lock.

use std::path::Path;
use std::process::Command;
use std::sync::Mutex;

use nmos_tv::clocks::qualify::qualify_with_flow;
use nmos_tv::core::{
    report_fingerprint, AnalysisOptions, Analyzer, PassId, PassManager, PassOutcome, PhaseCase,
    TimingGraph, TimingReport,
};
use nmos_tv::flow::RuleSet;
use nmos_tv::gen::datapath::{datapath, DatapathConfig};
use nmos_tv::gen::random;
use nmos_tv::gen::rng::Rng64;
use nmos_tv::netlist::{Design, DeviceId, DeviceKind, NodeId, NodeRole, Tech};
use nmos_tv::obs::Counter;

/// Serializes counter-reading tests against everything else in this
/// binary (the counters are process-global atomics).
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn small_design() -> Design {
    let dp = datapath(Tech::nmos4um(), DatapathConfig::small());
    Design::new(dp.netlist)
}

/// The committed workload with same-phase races (56 in φ1).
fn random_800() -> Design {
    let c = random::random_logic(Tech::nmos4um(), 800, 0xA11CE, random::RandomMix::default());
    Design::new(c.netlist)
}

/// Every phase's race list, margins as bits.
fn race_bits(report: &TimingReport) -> Vec<Vec<(NodeId, u64)>> {
    report
        .phases
        .iter()
        .map(|p| {
            p.races
                .iter()
                .map(|h| (h.capture, h.min_arrival.to_bits()))
                .collect()
        })
        .collect()
}

fn editable_nodes(design: &Design) -> Vec<NodeId> {
    design
        .netlist()
        .node_ids()
        .filter(|&i| !design.netlist().node(i).role().is_rail())
        .collect()
}

fn device_ids(design: &Design) -> Vec<DeviceId> {
    design.netlist().devices().map(|d| d.id).collect()
}

fn trace_outcome(pm: &PassManager, pass: PassId) -> Option<PassOutcome> {
    pm.last_trace()
        .iter()
        .find(|e| e.pass == pass)
        .map(|e| e.outcome)
}

/// Arrival passes of the most recent analyze that took the cone engine.
fn cone_passes(pm: &PassManager) -> usize {
    pm.last_trace()
        .iter()
        .filter(|e| {
            matches!(e.pass, PassId::Arrivals(_)) && matches!(e.outcome, PassOutcome::Cone { .. })
        })
        .count()
}

#[test]
fn mid_splice_shape_mismatch_rebuilds_and_matches_cold() {
    let _guard = OBS_LOCK.lock().unwrap();
    let mut design = small_design();
    let mut pm = PassManager::new();
    let opts = AnalysisOptions::default();
    pm.analyze(&design, &opts);

    // Prime the warm path: a parametric resize takes the cone engine.
    let dev = device_ids(&design)[7];
    design.resize_device(dev, 6.0, 2.0).expect("resize");
    pm.analyze(&design, &opts);
    assert!(
        cone_passes(&pm) > 0,
        "resize edit did not take the cone engine"
    );

    // Now a shape-changing edit: a new node plus a device driving it.
    // The node count changes mid-splice, so the graph pass must rebuild
    // from scratch and hand the cache *no* `since` certificate — the
    // stale snapshot's preds are indexed against the old arc lists.
    let (new_node, _) = design.add_node("cone_probe", NodeRole::Internal);
    let gate = editable_nodes(&design)[5];
    design
        .add_device(
            "cone_probe_dev",
            DeviceKind::Enhancement,
            gate,
            new_node,
            design.netlist().node_by_name("GND").expect("GND rail"),
            4.0,
            2.0,
        )
        .expect("adddev");
    let warm = pm.analyze(&design, &opts);

    // Graph passes rebuilt, and no arrival pass ran the cone.
    for p in [
        PassId::Graph(None),
        PassId::Graph(Some(0)),
        PassId::Graph(Some(1)),
    ] {
        assert_eq!(
            trace_outcome(&pm, p),
            Some(PassOutcome::Computed),
            "{}: shape change must force a rebuild",
            p.name()
        );
    }
    for case in [None, Some(0), Some(1)] {
        assert_eq!(
            trace_outcome(&pm, PassId::Arrivals(case)),
            Some(PassOutcome::Computed),
            "stale certificate reached the cone engine after a shape change"
        );
    }

    // The rebuilt graph fingerprints and the report match a cold run.
    let cold = Analyzer::new(design.netlist()).run(&opts);
    assert_eq!(
        report_fingerprint(design.netlist(), &warm),
        report_fingerprint(design.netlist(), &cold),
        "report diverged from cold analysis after the rebuild"
    );
    let mut cold_pm = PassManager::new();
    cold_pm.analyze(&design, &opts);
    for p in [
        PassId::Graph(None),
        PassId::Graph(Some(0)),
        PassId::Graph(Some(1)),
    ] {
        assert_eq!(
            pm.pass_fingerprint(p),
            cold_pm.pass_fingerprint(p),
            "{}: rebuilt graph fingerprint differs from a cold pipeline",
            p.name()
        );
    }

    // And the cache re-primes: the next parametric edit cones again,
    // still bit-identical to cold.
    design.resize_device(dev, 5.0, 2.0).expect("resize");
    let warm2 = pm.analyze(&design, &opts);
    assert!(
        cone_passes(&pm) > 0,
        "snapshots did not re-prime after the rebuild"
    );
    let cold2 = Analyzer::new(design.netlist()).run(&opts);
    assert_eq!(
        report_fingerprint(design.netlist(), &warm2),
        report_fingerprint(design.netlist(), &cold2)
    );
}

#[test]
fn random_edits_cone_bit_identical_to_full_walk_across_jobs() {
    let _guard = OBS_LOCK.lock().unwrap();
    nmos_tv::obs::counters::set_enabled(true);
    random_edits_match_cold(small_design, 200);
    // Races ride the arrival pass's early lane, so a cone-served phase
    // must reproduce the cold race list bit for bit.
    let cone_races = random_edits_match_cold(random_800, 60);
    assert!(
        cone_races > 0,
        "no cone-served phase of random-800 carried a race"
    );
}

/// Applies `steps` random edits to three lockstep copies of `make()`'s
/// design and checks every warm report against a cold one-shot run.
/// Returns how many cone-served phases had a non-empty race list.
fn random_edits_match_cold(make: fn() -> Design, steps: usize) -> usize {
    // Three pipelines over three lockstep copies of the design, one per
    // worker count; every iteration applies the same random edit to all
    // three and checks each warm report against a cold one-shot run.
    const JOBS: [usize; 3] = [1, 2, 8];
    let mut designs: Vec<Design> = (0..JOBS.len()).map(|_| make()).collect();
    let mut pms: Vec<PassManager> = (0..JOBS.len()).map(|_| PassManager::new()).collect();
    let opts_for = |jobs: usize| AnalysisOptions {
        jobs,
        ..AnalysisOptions::default()
    };
    for (k, jobs) in JOBS.iter().enumerate() {
        pms[k].analyze(&designs[k], &opts_for(*jobs));
    }

    let mut rng = Rng64::new(0xC0DE_CAFE);
    let mut cone_runs = 0usize;
    let mut cone_races = 0usize;
    for step in 0..steps {
        // One random edit, replicated across the lockstep designs.
        let devs = device_ids(&designs[0]);
        let nodes = editable_nodes(&designs[0]);
        match rng.usize_range(0, 4) {
            0 => {
                let di = rng.usize_range(0, devs.len());
                let w = rng.f64_range(3.0, 8.0);
                for d in &mut designs {
                    d.resize_device(devs[di], w, 2.0).expect("resize");
                }
            }
            1 => {
                let ni = rng.usize_range(0, nodes.len());
                let pf = rng.f64_range(0.01, 0.08);
                for d in &mut designs {
                    d.set_node_cap(nodes[ni], pf).expect("setcap");
                }
            }
            2 => {
                let di = rng.usize_range(0, devs.len());
                let (g, s, dr) = {
                    let dv = designs[0].netlist().device(devs[di]);
                    (dv.gate(), dv.source(), dv.drain())
                };
                let keep = rng.bool(0.5);
                for d in &mut designs {
                    let (id, _) = d
                        .add_device(
                            &format!("cone_t{step}"),
                            DeviceKind::Enhancement,
                            g,
                            s,
                            dr,
                            4.0,
                            2.0,
                        )
                        .expect("adddev");
                    if !keep {
                        d.remove_device(id);
                    }
                }
            }
            _ => {
                let ni = rng.usize_range(0, nodes.len());
                let pf = rng.f64_range(0.02, 0.05);
                for d in &mut designs {
                    d.set_node_cap(nodes[ni], pf).expect("setcap");
                }
            }
        }

        // Warm analyses at every worker count, plus the jobs-1 cone work
        // measured against a cold full walk of the same netlist.
        let before = nmos_tv::obs::snapshot();
        let warm0 = pms[0].analyze(&designs[0], &opts_for(JOBS[0]));
        let after_warm = nmos_tv::obs::snapshot();
        let fp0 = report_fingerprint(designs[0].netlist(), &warm0);
        cone_runs += cone_passes(&pms[0]);

        let cold = Analyzer::new(designs[0].netlist()).run(&opts_for(1));
        let after_cold = nmos_tv::obs::snapshot();
        assert_eq!(
            fp0,
            report_fingerprint(designs[0].netlist(), &cold),
            "edit #{step}: warm jobs-1 report diverged from cold analysis"
        );
        assert_eq!(
            race_bits(&warm0),
            race_bits(&cold),
            "edit #{step}: warm race list diverged from cold analysis"
        );
        for p in &warm0.phases {
            let served = matches!(
                trace_outcome(&pms[0], PassId::Arrivals(Some(p.phase))),
                Some(PassOutcome::Cone { .. })
            );
            cone_races += (served && !p.races.is_empty()) as usize;
        }
        let warm_relax = after_warm.since(&before).get(Counter::PropagateRelaxations);
        let cold_relax = after_cold
            .since(&after_warm)
            .get(Counter::PropagateRelaxations);
        assert!(
            warm_relax <= cold_relax,
            "edit #{step}: cone did more relaxation work ({warm_relax}) than the full walk ({cold_relax})"
        );

        for (k, jobs) in JOBS.iter().enumerate().skip(1) {
            let warm = pms[k].analyze(&designs[k], &opts_for(*jobs));
            assert_eq!(
                fp0,
                report_fingerprint(designs[k].netlist(), &warm),
                "edit #{step}: jobs {jobs} diverged from jobs 1"
            );
        }
    }
    assert!(
        cone_runs > 0,
        "{steps} random edits never exercised the cone engine"
    );
    cone_races
}

#[test]
fn cone_smoke_replays_to_golden_and_saves_ninety_percent() {
    // The committed MIPS-class transcript is the acceptance evidence: a
    // warm single-resize re-analysis performs under 10% of the cold
    // run's relaxations, bit-identically at every worker count.
    let _guard = OBS_LOCK.lock().unwrap();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let golden = std::fs::read_to_string(dir.join("cone_smoke.golden")).expect("read golden");
    for jobs in [1, 2, 8] {
        let out = Command::new(env!("CARGO_BIN_EXE_tv"))
            .arg("batch")
            .arg(dir.join("cone_smoke.txt"))
            .args(["--jobs", &jobs.to_string()])
            .output()
            .expect("run tv batch");
        assert!(
            out.status.success(),
            "batch failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            golden,
            String::from_utf8_lossy(&out.stdout),
            "cone smoke replay differs from committed golden at --jobs {jobs}"
        );
    }
    // Re-derive the acceptance figure from the golden itself, so the
    // transcript can't silently rot into a weaker claim.
    let relax: Vec<u64> = golden
        .lines()
        .filter(|l| l.contains("\"cmd\":\"metrics\""))
        .map(|l| {
            let key = "\"propagate.relaxations\":";
            let at = l.find(key).expect("relaxations counter") + key.len();
            l[at..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .expect("numeric counter")
        })
        .collect();
    assert_eq!(relax.len(), 2, "expected cold and warm metrics marks");
    assert!(
        relax[1] * 10 < relax[0],
        "warm resize did {} relaxations, not under 10% of cold {}",
        relax[1],
        relax[0]
    );
}

/// Cold graphs of every case, `[comb, φ1, φ2]`, built the one-shot way.
fn cold_graphs(design: &Design) -> Vec<TimingGraph> {
    let nl = design.netlist();
    let flow = nmos_tv::flow::analyze(nl, &RuleSet::all());
    let qual = qualify_with_flow(nl, &flow);
    [
        PhaseCase::all_active(),
        PhaseCase::phase(0),
        PhaseCase::phase(1),
    ]
    .into_iter()
    .map(|case| {
        TimingGraph::build_par(
            nl,
            &flow,
            &qual,
            case,
            nmos_tv::core::DelayModel::Elmore,
            nmos_tv::core::SOURCE_RESISTANCE,
            1,
        )
    })
    .collect()
}

/// Brute-force certificate: the nodes whose in-arc delay/τ words differ
/// between two builds of the same graph shape.
fn changed_targets(before: &TimingGraph, after: &TimingGraph) -> u64 {
    let words = |g: &TimingGraph, i: usize| -> Vec<[u64; 4]> {
        g.in_arcs_of_index(i)
            .iter()
            .map(|&ai| g.delay_of(&g.arcs[ai as usize]).words())
            .collect()
    };
    (0..after.node_count())
        .filter(|&i| words(before, i) != words(after, i))
        .count() as u64
}

#[test]
fn certified_seeds_equal_brute_force_word_diff() {
    let _guard = OBS_LOCK.lock().unwrap();
    nmos_tv::obs::counters::set_enabled(true);

    const JOBS: [usize; 3] = [1, 2, 8];
    let mut designs: Vec<Design> = (0..JOBS.len()).map(|_| small_design()).collect();
    let mut pms: Vec<PassManager> = (0..JOBS.len()).map(|_| PassManager::new()).collect();
    let opts_for = |jobs: usize| AnalysisOptions {
        jobs,
        ..AnalysisOptions::default()
    };
    for (k, jobs) in JOBS.iter().enumerate() {
        pms[k].analyze(&designs[k], &opts_for(*jobs));
    }
    let mut graphs = cold_graphs(&designs[0]);

    let mut rng = Rng64::new(0x5EED_CE27);
    let mut cone_edits = 0usize;
    for step in 0..120 {
        let devs = device_ids(&designs[0]);
        let nodes = editable_nodes(&designs[0]);
        if rng.bool(0.5) {
            let di = rng.usize_range(0, devs.len());
            let w = rng.f64_range(3.0, 8.0);
            for d in &mut designs {
                d.resize_device(devs[di], w, 2.0).expect("resize");
            }
        } else {
            let ni = rng.usize_range(0, nodes.len());
            let pf = rng.f64_range(0.01, 0.08);
            for d in &mut designs {
                d.set_node_cap(nodes[ni], pf).expect("setcap");
            }
        }
        let fresh = cold_graphs(&designs[0]);
        let brute: Vec<u64> = graphs
            .iter()
            .zip(&fresh)
            .map(|(b, a)| changed_targets(b, a))
            .collect();
        graphs = fresh;
        let cold = Analyzer::new(designs[0].netlist()).run(&opts_for(1));
        let cold_fp = report_fingerprint(designs[0].netlist(), &cold);

        for (k, jobs) in JOBS.iter().enumerate() {
            let before = nmos_tv::obs::snapshot();
            let warm = pms[k].analyze(&designs[k], &opts_for(*jobs));
            let seeds = nmos_tv::obs::snapshot()
                .since(&before)
                .get(Counter::ConeSeeds);
            assert_eq!(
                report_fingerprint(designs[k].netlist(), &warm),
                cold_fp,
                "edit #{step} jobs {jobs}: warm report diverged from cold"
            );
            if cone_passes(&pms[k]) == 0 {
                continue;
            }
            // Only cases served from a snapshot contribute seeds.
            let expected: u64 = [None, Some(0), Some(1)]
                .into_iter()
                .zip(&brute)
                .filter(|(case, _)| {
                    trace_outcome(&pms[k], PassId::Arrivals(*case)) != Some(PassOutcome::Computed)
                })
                .map(|(_, &b)| b)
                .sum();
            assert_eq!(
                seeds, expected,
                "edit #{step} jobs {jobs}: certified seeds differ from the brute-force word diff"
            );
            if k == 0 {
                cone_edits += 1;
            }
        }
    }
    assert!(
        cone_edits >= 50,
        "only {cone_edits} of 120 edits took the cone engine"
    );
}
