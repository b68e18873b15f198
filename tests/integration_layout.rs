//! Layout-refactor equivalence suite.
//!
//! The interner/CSR/workspace rewrite must be *observationally invisible*:
//! every `TimingReport` bit, every flow resolution, and every adjacency
//! list must come out exactly as the nested-Vec/String layout produced
//! them. These tests pin that down with the frozen FNV fingerprints from
//! [`nmos_tv::core::fingerprint`] on the `gen` workloads, captured from
//! the pre-refactor engine and hard-coded as goldens. (This suite used
//! to carry its own copy of the hash; the library version is the same
//! byte-for-byte definition, promoted so the session protocol and these
//! goldens can never drift apart.)

use nmos_tv::core::propagate::Edge;
use nmos_tv::core::{
    report_fingerprint, AnalysisOptions, Analyzer, Completion, DelayModel, Fnv, TimingReport,
};
use nmos_tv::flow::RuleSet;
use nmos_tv::gen::{adder, chains, datapath, manchester, mips_mc, random, regfile, shifter};
use nmos_tv::netlist::{Netlist, Tech};

/// The frozen flow fingerprint over a fresh flow analysis.
fn flow_fingerprint(nl: &Netlist) -> u64 {
    let flow = nmos_tv::flow::analyze(nl, &RuleSet::all());
    nmos_tv::core::flow_fingerprint(nl, &flow)
}

fn workloads() -> Vec<(&'static str, Netlist)> {
    let t = Tech::nmos4um();
    vec![
        ("adder-16", adder::ripple_carry_adder(t.clone(), 16).netlist),
        (
            "barrel-8x4",
            shifter::barrel_shifter(t.clone(), 8, 4).netlist,
        ),
        (
            "regfile-4x8",
            regfile::register_file(t.clone(), 4, 8).netlist,
        ),
        (
            "random-800",
            random::random_logic(t, 800, 0xA11CE, random::RandomMix::default()).netlist,
        ),
    ]
}

/// Golden (report, flow) fingerprints captured from the nested-Vec /
/// String-name layout. The layout refactor must reproduce these exactly.
/// The clocked designs' report fingerprints (`regfile-4x8`,
/// `random-800`) hash their phase results, which `PHASE_GOLDENS` also
/// pins.
const GOLDENS: [(&str, u64, u64); 4] = [
    ("adder-16", 0xd81f4d67fd462d9e, 0xf19cea6b0e689915),
    ("barrel-8x4", 0x2c40b3fdbb1e99bd, 0x9665b05ab6c7a427),
    ("regfile-4x8", 0x082024d8f2281c77, 0x13a72841390d883d),
    ("random-800", 0xa2144027e44d1c8f, 0xa1dd0f0fba92b578),
];

#[test]
fn reports_bit_identical_to_pre_layout_goldens() {
    for (name, nl) in workloads() {
        let report = Analyzer::new(&nl).run(&AnalysisOptions::default());
        let rf = report_fingerprint(&nl, &report);
        let ff = flow_fingerprint(&nl);
        let golden = GOLDENS.iter().find(|g| g.0 == name).expect("golden");
        assert_eq!(
            rf, golden.1,
            "{name}: report fingerprint drifted (got {rf:#x})"
        );
        assert_eq!(
            ff, golden.2,
            "{name}: flow fingerprint drifted (got {ff:#x})"
        );
    }
}

/// The four workloads plus designs with precharged nodes, source roots
/// and pass chains: every arm of arc emission under every delay model.
fn model_workloads() -> Vec<(&'static str, Netlist)> {
    let t = Tech::nmos4um();
    let race = nmos_tv::netlist::sim_format::parse(include_str!("data/race_smoke.sim"), t.clone())
        .expect("race_smoke.sim parses");
    let mut w = workloads();
    w.extend([
        (
            "mips32",
            datapath::datapath(t.clone(), datapath::DatapathConfig::mips32()).netlist,
        ),
        (
            "manchester-8x4",
            manchester::manchester_circuit(t.clone(), 8, 4).netlist,
        ),
        (
            "precharged-bus-4",
            chains::precharged_bus(t.clone(), 4).netlist,
        ),
        ("race-smoke", race),
        // One T6 core has the full chip's case shape: φ1 replaces about
        // two fifths of the roots, the all-active view has a divergent
        // residue, and both phases are acyclic.
        ("t6-1core", mips_mc::t6_mips_mc(t, 1).netlist),
    ]);
    w
}

const MODELS: [DelayModel; 3] = [
    DelayModel::Elmore,
    DelayModel::Lumped,
    DelayModel::UpperBound,
];

/// Golden report fingerprints under `[Elmore, Lumped, UpperBound]`,
/// captured from the stage builder that walked the netlist a second time
/// to emit arcs. Where a design's stages drive one-node trees, the lumped
/// model equals Elmore. A clocked design's line hashes its phase
/// results, which `PHASE_GOLDENS` also pins.
const MODEL_GOLDENS: [(&str, [u64; 3]); 9] = [
    (
        "adder-16",
        [0xd81f4d67fd462d9e, 0xd81f4d67fd462d9e, 0x2b51a079f3559b82],
    ),
    (
        "barrel-8x4",
        [0x2c40b3fdbb1e99bd, 0x77c13a2612b7c6e5, 0xcbb5f312407ea995],
    ),
    (
        "regfile-4x8",
        [0x082024d8f2281c77, 0xc89cdd05cd54e8f6, 0x382d754d0bcd01f0],
    ),
    (
        "random-800",
        [0xa2144027e44d1c8f, 0xec205ae2bfc9bb18, 0xcfe101501e79b9df],
    ),
    (
        "mips32",
        [0x77e1f186ffe682ba, 0xac1f9e75f38c923c, 0x94ca9b954aa5d430],
    ),
    (
        "manchester-8x4",
        [0x8b3a4496cbfaced6, 0xa079a4b2c6a60975, 0x54cfd64fd12a522e],
    ),
    (
        "precharged-bus-4",
        [0x4d3d86f4bf899964, 0x4d3d86f4bf899964, 0x096e689e50c6eda1],
    ),
    (
        "race-smoke",
        [0xcccf1aa1b99723b4, 0x8684bbf04bf5a851, 0x358faf2822e52354],
    ),
    (
        "t6-1core",
        [0xe0a2752f40c9c116, 0x241244f13b963ce5, 0x662e2996c881cf79],
    ),
];

#[test]
fn every_delay_model_reproduces_its_goldens_at_every_job_count() {
    for (name, nl) in model_workloads() {
        let golden = MODEL_GOLDENS.iter().find(|g| g.0 == name).expect("golden");
        for (model, want) in MODELS.into_iter().zip(golden.1) {
            for jobs in [1, 2] {
                let report = Analyzer::new(&nl).run(&AnalysisOptions {
                    model,
                    jobs,
                    ..AnalysisOptions::default()
                });
                let rf = report_fingerprint(&nl, &report);
                assert_eq!(
                    rf, want,
                    "{name} {model:?} jobs {jobs}: report fingerprint drifted (got {rf:#x})"
                );
            }
        }
    }
}

/// A digest of what a report's phase cases hold: each phase's per-node
/// arrivals (late, early and transition), endpoints, completion,
/// critical paths, races, slack and arc count, then the minimum cycle
/// and the latch and check counts. It reads nothing of the all-active
/// case, so it pins the phase results on their own.
fn phase_digest(nl: &Netlist, report: &TimingReport) -> u64 {
    let mut h = Fnv::new();
    h.u64(report.phases.len() as u64);
    for p in &report.phases {
        h.u64(p.phase as u64);
        h.u64(p.arcs as u64);
        h.opt_f64(p.slack);
        let r = &p.result;
        for id in nl.node_ids() {
            h.opt_f64(r.arrivals.rise(id));
            h.opt_f64(r.arrivals.fall(id));
            h.opt_f64(r.arrivals.early(id));
            h.opt_f64(r.arrivals.transition(id, Edge::Rise));
            h.opt_f64(r.arrivals.transition(id, Edge::Fall));
        }
        h.u64(r.endpoints.len() as u64);
        for &(id, at) in &r.endpoints {
            h.u64(id.index() as u64);
            h.f64(at);
        }
        h.u64(r.cyclic as u64);
        h.u64(r.relaxations as u64);
        h.u64(matches!(r.completion, Completion::Complete) as u64);
        h.u64(r.unresolved.len() as u64);
        h.u64(p.paths.len() as u64);
        for path in &p.paths {
            h.u64(path.steps.len() as u64);
            for s in &path.steps {
                h.u64(s.node.index() as u64);
                h.u64(matches!(s.edge, Edge::Rise) as u64);
                h.f64(s.at);
            }
        }
        h.u64(p.races.len() as u64);
        for race in &p.races {
            h.u64(race.capture.index() as u64);
            h.f64(race.min_arrival);
        }
    }
    h.opt_f64(report.min_cycle);
    h.u64(report.latches.len() as u64);
    h.u64(report.checks.len() as u64);
    h.0
}

/// [`phase_digest`] under `[Elmore, Lumped, UpperBound]` for every
/// clocked design of [`model_workloads`], and beside it the report
/// fingerprint of the same design with case analysis off (the
/// all-active case alone).
const PHASE_GOLDENS: [(&str, [u64; 3], [u64; 3]); 7] = [
    (
        "regfile-4x8",
        [0xca952f8d3b3c153b, 0xcff7d10f5ab2351e, 0xc6803ef882a97af0],
        [0x613724ae4487348b, 0x116be5aecc33e97b, 0x17bde185c4b604fb],
    ),
    (
        "random-800",
        [0x693fa313d725a9ad, 0x86b153d8ed2b897a, 0xb526c24b1dcbd215],
        [0x6db10ca02d6ecaad, 0x1a3644e7c372b911, 0xcccdd73f47f7d55b],
    ),
    (
        "mips32",
        [0xca55538051ef3955, 0x74d7a0b47bb1e03a, 0x39697237f6547efe],
        [0xb1d399a104e0c201, 0xb1d399a104e0c201, 0x23e290b2c1f42d81],
    ),
    (
        "manchester-8x4",
        [0x8183cbab35af0fd3, 0xc953e3ca55fb8cc0, 0xf8cd11e2eaffe20b],
        [0xb7ca0edfa50bc68b, 0x72f9dc054b1fb117, 0xe7ae44f78cdf590a],
    ),
    (
        "precharged-bus-4",
        [0xc18d8ac0945b696f, 0xc18d8ac0945b696f, 0x1b4654965518ba3a],
        [0xc7209ea4318e1410, 0xc7209ea4318e1410, 0x7c356c694aae1d8d],
    ),
    (
        "race-smoke",
        [0x8e6338061d29ef8b, 0x62dd02315b96c32a, 0xc445d2ee48aa410e],
        [0x45202b5620a4fbab, 0x8048b956d4d9374f, 0x3626fce9ff311b2f],
    ),
    (
        "t6-1core",
        [0xf5e42ae92b6805d1, 0x81ccea84e532c43c, 0xe87ecef55109fb31],
        [0x86ee27f9497ad66d, 0x86ee27f9497ad66d, 0x187e3212809fdf6d],
    ),
];

fn clocked_model_workloads() -> Vec<(&'static str, Netlist)> {
    model_workloads()
        .into_iter()
        .filter(|(_, nl)| !nl.clocks().is_empty())
        .collect()
}

#[test]
fn phase_results_and_no_case_reports_reproduce_their_goldens() {
    let clocked = clocked_model_workloads();
    let names: Vec<&str> = clocked.iter().map(|w| w.0).collect();
    let pinned: Vec<&str> = PHASE_GOLDENS.iter().map(|g| g.0).collect();
    assert_eq!(names, pinned, "every clocked design is pinned");
    for (name, nl) in clocked {
        let golden = PHASE_GOLDENS.iter().find(|g| g.0 == name).expect("golden");
        for (i, model) in MODELS.into_iter().enumerate() {
            for jobs in [1, 2] {
                let opts = AnalysisOptions {
                    model,
                    jobs,
                    ..AnalysisOptions::default()
                };
                let report = Analyzer::new(&nl).run(&opts);
                assert_eq!(report.phases.len(), 2, "{name}: both phases analyzed");
                let pd = phase_digest(&nl, &report);
                assert_eq!(
                    pd, golden.1[i],
                    "{name} {model:?} jobs {jobs}: phase digest drifted (got {pd:#x})"
                );
                let no_case = Analyzer::new(&nl).run(&AnalysisOptions {
                    case_analysis: false,
                    ..opts
                });
                let rf = report_fingerprint(&nl, &no_case);
                assert_eq!(
                    rf, golden.2[i],
                    "{name} {model:?} jobs {jobs}: --no-case fingerprint drifted (got {rf:#x})"
                );
            }
        }
    }
}

#[test]
fn reports_bit_identical_at_every_job_count() {
    for (name, nl) in workloads() {
        let base = report_fingerprint(
            &nl,
            &Analyzer::new(&nl).run(&AnalysisOptions {
                jobs: 1,
                ..AnalysisOptions::default()
            }),
        );
        for jobs in [2, 4, 8] {
            let r = Analyzer::new(&nl).run(&AnalysisOptions {
                jobs,
                ..AnalysisOptions::default()
            });
            assert_eq!(
                base,
                report_fingerprint(&nl, &r),
                "{name}: report differs at jobs={jobs}"
            );
        }
    }
}

/// The CSR adjacency (netlist gate/channel incidence and timing-graph
/// in/out arc lists) must match, element for element, a nested-Vec
/// reference rebuilt here from first principles with the old push-per-
/// edge scheme. Order matters: downstream walks and input collection
/// depend on ascending-id iteration, so a permutation would silently
/// change report contents even if the edge *sets* were equal.
#[test]
fn csr_adjacency_matches_nested_vec_reference() {
    use nmos_tv::core::analyzer::SOURCE_RESISTANCE;
    use nmos_tv::core::{PhaseCase, TimingGraph};

    for (name, nl) in workloads() {
        // Netlist incidence: one scan over devices in id order, exactly
        // how the pre-CSR builder populated its per-node Vecs.
        let n = nl.node_count();
        let mut gated = vec![Vec::new(); n];
        let mut channel = vec![Vec::new(); n];
        for d in nl.devices() {
            gated[d.device.gate().index()].push(d.id);
            channel[d.device.source().index()].push(d.id);
            channel[d.device.drain().index()].push(d.id);
        }
        for id in nl.node_ids() {
            let nd = nl.node_devices(id);
            assert_eq!(
                nd.gated,
                &gated[id.index()][..],
                "{name}: gate devices of node {id:?} differ"
            );
            assert_eq!(
                nd.channel,
                &channel[id.index()][..],
                "{name}: channel devices of node {id:?} differ"
            );
        }

        // Timing graph: rebuild nested out/in arc lists from the flat
        // arc array (push in arc-id order), compare against the CSR.
        let flow = nmos_tv::flow::analyze(&nl, &RuleSet::all());
        let qual = nmos_tv::clocks::qualify::qualify_with_flow(&nl, &flow);
        let g = TimingGraph::build(
            &nl,
            &flow,
            &qual,
            PhaseCase::all_active(),
            DelayModel::Elmore,
            SOURCE_RESISTANCE,
        );
        let gn = g.node_count();
        let mut outs = vec![Vec::new(); gn];
        let mut ins = vec![Vec::new(); gn];
        for (ai, a) in g.arcs.iter().enumerate() {
            outs[a.from.index()].push(ai as u32);
            ins[a.to.index()].push(ai as u32);
        }
        for i in 0..gn {
            assert_eq!(
                g.out_arcs_of_index(i),
                &outs[i][..],
                "{name}: out arcs of node {i} differ"
            );
            assert_eq!(
                g.in_arcs_of_index(i),
                &ins[i][..],
                "{name}: in arcs of node {i} differ"
            );
        }
    }
}

/// Prints current fingerprints; run with `--ignored --nocapture` to
/// regenerate `GOLDENS`, `MODEL_GOLDENS` and `PHASE_GOLDENS` after an
/// *intentional* semantic change.
#[test]
#[ignore]
fn print_fingerprints() {
    for (name, nl) in workloads() {
        let report = Analyzer::new(&nl).run(&AnalysisOptions::default());
        println!(
            "(\"{name}\", {:#x}, {:#x}),",
            report_fingerprint(&nl, &report),
            flow_fingerprint(&nl)
        );
    }
    for (name, nl) in model_workloads() {
        let fps = MODELS.map(|model| {
            let report = Analyzer::new(&nl).run(&AnalysisOptions {
                model,
                ..AnalysisOptions::default()
            });
            format!("{:#x}", report_fingerprint(&nl, &report))
        });
        println!("(\"{name}\", [{}]),", fps.join(", "));
    }
    for (name, nl) in clocked_model_workloads() {
        let run = |model, case_analysis| {
            Analyzer::new(&nl).run(&AnalysisOptions {
                model,
                case_analysis,
                ..AnalysisOptions::default()
            })
        };
        let digests = MODELS.map(|m| format!("{:#x}", phase_digest(&nl, &run(m, true))));
        let no_case = MODELS.map(|m| format!("{:#x}", report_fingerprint(&nl, &run(m, false))));
        println!(
            "(\"{name}\", [{}], [{}]),",
            digests.join(", "),
            no_case.join(", ")
        );
    }
}
