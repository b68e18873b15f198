//! Hierarchical macromodel extraction suite (DESIGN.md §16).
//!
//! Three guarantees are pinned here:
//!
//! 1. **Flat identity** — the hierarchical build is an optimization,
//!    not an approximation: report fingerprints are bit-identical
//!    across `--jobs` 1/2/8 and between the one-shot analyzer and the
//!    pass pipeline on every golden workload.
//! 2. **Edit de-sharing** — a randomized 16-edit session on a
//!    replicated multi-core design splits edited stages out of their
//!    equivalence classes (the `extract` pass reports de-shared
//!    instances) and every warm result stays bit-identical to a cold
//!    flat analysis at every worker count.
//! 3. **Case sharing** — on a design whose φ1 case changes no build
//!    root (so it reads the all-active graph), a seeded warm session of
//!    parametric and structural edits stays bit-identical to cold
//!    analyses at every worker count.

use std::path::Path;
use std::process::Command;

use nmos_tv::core::{report_fingerprint, AnalysisOptions, Analyzer, PassId, PassManager};
use nmos_tv::gen::rng::Rng64;
use nmos_tv::netlist::{Design, Netlist, NodeId, Tech};

/// The golden workloads the flat-identity contract is checked on: the
/// MIPS-class datapath, a replicated two-core T6 design, irregular
/// random logic, and the Manchester carry chain.
fn golden_workloads() -> Vec<(&'static str, Netlist)> {
    use nmos_tv::gen;
    let tech = Tech::nmos4um();
    vec![
        (
            "mips32",
            gen::datapath::datapath(tech.clone(), gen::datapath::DatapathConfig::small()).netlist,
        ),
        (
            "t6-2core",
            gen::mips_mc::t6_mips_mc(tech.clone(), 2).netlist,
        ),
        (
            "random-1200",
            gen::random::random_logic(
                tech.clone(),
                1200,
                0x9AA7,
                gen::random::RandomMix::default(),
            )
            .netlist,
        ),
        (
            "manchester-16",
            gen::manchester::manchester_circuit(tech, 16, 4).netlist,
        ),
    ]
}

#[test]
fn reports_identical_across_jobs_and_pipelines_on_golden_workloads() {
    for (name, nl) in golden_workloads() {
        let opts_for = |jobs: usize| AnalysisOptions {
            jobs,
            ..AnalysisOptions::default()
        };
        let reference = Analyzer::new(&nl).run(&opts_for(1));
        let fp = report_fingerprint(&nl, &reference);
        for jobs in [2, 8] {
            let report = Analyzer::new(&nl).run(&opts_for(jobs));
            assert_eq!(
                fp,
                report_fingerprint(&nl, &report),
                "{name}: analyzer report diverged at jobs {jobs}"
            );
        }
        let design = Design::new(nl);
        for jobs in [1, 2, 8] {
            let mut pm = PassManager::new();
            let report = pm.analyze(&design, &opts_for(jobs));
            assert_eq!(
                fp,
                report_fingerprint(design.netlist(), &report),
                "{name}: pipeline report diverged at jobs {jobs}"
            );
            assert!(
                pm.extraction(None).is_some(),
                "{name}: combinational extraction missing after a cold analyze"
            );
        }
    }
}

#[test]
fn random_edit_session_desplits_and_stays_bit_identical() {
    // Lockstep pipelines over three copies of a replicated two-core
    // design, one per worker count. Every edit lands on all three;
    // every warm report must equal a cold flat analysis bit for bit.
    const JOBS: [usize; 3] = [1, 2, 8];
    let make = || Design::new(nmos_tv::gen::mips_mc::t6_mips_mc(Tech::nmos4um(), 2).netlist);
    let mut designs: Vec<Design> = (0..JOBS.len()).map(|_| make()).collect();
    let mut pms: Vec<PassManager> = (0..JOBS.len()).map(|_| PassManager::new()).collect();
    let opts_for = |jobs: usize| AnalysisOptions {
        jobs,
        ..AnalysisOptions::default()
    };
    for (k, jobs) in JOBS.iter().enumerate() {
        pms[k].analyze(&designs[k], &opts_for(*jobs));
    }

    let devs: Vec<_> = designs[0].netlist().devices().map(|d| d.id).collect();
    let caps: Vec<NodeId> = designs[0].netlist().outputs().to_vec();
    let mut rng = Rng64::new(0xDE5B_11F0);
    let mut desplit_total = 0usize;
    for step in 0..16 {
        if rng.bool(0.7) {
            let di = rng.usize_range(0, devs.len());
            let w = rng.f64_range(3.0, 8.0);
            for d in &mut designs {
                d.resize_device(devs[di], w, 2.0).expect("resize");
            }
        } else {
            let ni = rng.usize_range(0, caps.len());
            let pf = rng.f64_range(0.01, 0.08);
            for d in &mut designs {
                d.set_node_cap(caps[ni], pf).expect("setcap");
            }
        }

        let warm0 = pms[0].analyze(&designs[0], &opts_for(JOBS[0]));
        let fp0 = report_fingerprint(designs[0].netlist(), &warm0);
        desplit_total += pms[0]
            .last_trace()
            .iter()
            .filter(|e| matches!(e.pass, PassId::Extract(_)))
            .map(|e| match e.outcome {
                nmos_tv::core::PassOutcome::Spliced { roots } => roots,
                _ => 0,
            })
            .sum::<usize>();

        let cold = Analyzer::new(designs[0].netlist()).run(&opts_for(1));
        assert_eq!(
            fp0,
            report_fingerprint(designs[0].netlist(), &cold),
            "edit #{step}: warm jobs-1 report diverged from cold flat analysis"
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
    // On a design that is two copies of the same core, a resized stage
    // is near-certainly instanced: the session must have de-shared.
    assert!(
        desplit_total > 0,
        "16 random edits on a replicated design never de-shared an instanced stage"
    );
}

#[test]
fn extract_smoke_replays_to_golden_and_shares_ninety_percent() {
    // The committed transcript is the acceptance evidence for
    // hierarchical extraction: the cold mips32 analyze analyzes one
    // master per stage class — under 10% of the stages it covers — and
    // the resize de-shares one instance per phase graph, bit-identically
    // at every worker count.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let golden = std::fs::read_to_string(dir.join("extract_smoke.golden")).expect("read golden");
    for jobs in [1, 2, 8] {
        let out = Command::new(env!("CARGO_BIN_EXE_tv"))
            .arg("batch")
            .arg(dir.join("extract_smoke.txt"))
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
            "extract smoke replay differs from committed golden at --jobs {jobs}"
        );
    }

    // Re-derive the acceptance figures from the golden itself, so the
    // transcript cannot drift away from the claim it exists to pin.
    let grab = |key: &str| -> Vec<u64> {
        golden
            .match_indices(&format!("\"{key}\":"))
            .map(|(i, m)| {
                golden[i + m.len()..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>()
                    .parse()
                    .expect("counter value")
            })
            .collect()
    };
    let analyzed = grab("macro.analyzed");
    let instanced = grab("macro.instanced");
    let desplit = grab("macro.desplit");
    let total = analyzed[0] + instanced[0];
    assert!(
        analyzed[0] * 10 < total,
        "cold analyze must analyze under 10% of stages: {} of {total}",
        analyzed[0]
    );
    assert!(
        desplit.iter().any(|&d| d > 0),
        "the resize never de-shared an instanced stage"
    );
}

#[test]
fn warm_edits_on_an_aliasing_design_match_cold_runs() {
    // Random logic changes no root under φ1, so that case reads the
    // all-active graph: one splice must serve both cases. Lockstep
    // pipelines at jobs 1/2/8 take the same seeded resize, setcap,
    // add-device and remove-device edits; every warm report must equal
    // a cold analysis bit for bit.
    use nmos_tv::core::PassOutcome;
    use nmos_tv::netlist::DeviceKind;

    const JOBS: [usize; 3] = [1, 2, 8];
    let make = || {
        let mix = nmos_tv::gen::random::RandomMix::default();
        Design::new(nmos_tv::gen::random::random_logic(Tech::nmos4um(), 1_500, 0xA1A5, mix).netlist)
    };
    let mut designs: Vec<Design> = (0..JOBS.len()).map(|_| make()).collect();
    let mut pms: Vec<PassManager> = (0..JOBS.len()).map(|_| PassManager::new()).collect();
    let opts_for = |jobs: usize| AnalysisOptions {
        jobs,
        ..AnalysisOptions::default()
    };
    let phi1 = |pm: &PassManager| {
        pm.last_trace()
            .iter()
            .find(|e| e.pass == PassId::Graph(Some(0)))
            .map(|e| e.outcome)
    };
    for (k, jobs) in JOBS.iter().enumerate() {
        pms[k].analyze(&designs[k], &opts_for(*jobs));
        assert_eq!(phi1(&pms[k]), Some(PassOutcome::Shared), "jobs {jobs}");
    }

    let mut rng = Rng64::new(0x5A4E_D0CA);
    let mut shared_after_edit = 0;
    for step in 0..24 {
        let nl = designs[0].netlist();
        let devs: Vec<_> = nl.devices().map(|d| d.id).collect();
        let nodes: Vec<NodeId> = nl
            .node_ids()
            .filter(|&n| !nl.node(n).role().is_rail())
            .collect();
        let what = match rng.usize_range(0, 10) {
            0..=4 => {
                let d = devs[rng.usize_range(0, devs.len())];
                let w = rng.f64_range(3.0, 9.0);
                for design in &mut designs {
                    design.resize_device(d, w, 2.0).expect("resize");
                }
                "resize"
            }
            5..=7 => {
                let n = nodes[rng.usize_range(0, nodes.len())];
                let pf = rng.f64_range(0.01, 0.08);
                for design in &mut designs {
                    design.set_node_cap(n, pf).expect("setcap");
                }
                "setcap"
            }
            8 => {
                let g = nodes[rng.usize_range(0, nodes.len())];
                let s = nodes[rng.usize_range(0, nodes.len())];
                for design in &mut designs {
                    let gnd = design.netlist().gnd();
                    design
                        .add_device(
                            &format!("x{step}"),
                            DeviceKind::Enhancement,
                            g,
                            s,
                            gnd,
                            4.0,
                            2.0,
                        )
                        .expect("adddev");
                }
                "adddev"
            }
            _ => {
                let d = devs[rng.usize_range(0, devs.len())];
                for design in &mut designs {
                    design.remove_device(d);
                }
                "rmdev"
            }
        };
        let cold = Analyzer::new(designs[0].netlist()).run(&opts_for(1));
        let want = report_fingerprint(designs[0].netlist(), &cold);
        for (k, jobs) in JOBS.iter().enumerate() {
            let warm = pms[k].analyze(&designs[k], &opts_for(*jobs));
            assert_eq!(
                report_fingerprint(designs[k].netlist(), &warm),
                want,
                "edit #{step} ({what}), jobs {jobs}: warm report diverged from cold"
            );
        }
        shared_after_edit += (phi1(&pms[0]) == Some(PassOutcome::Shared)) as usize;
    }
    assert!(
        shared_after_edit > 0,
        "no edit kept the φ1 case reading the all-active graph"
    );
}
