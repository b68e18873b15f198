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

use nmos_tv::core::{report_fingerprint, AnalysisOptions, Analyzer, DelayModel};
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
const GOLDENS: [(&str, u64, u64); 4] = [
    ("adder-16", 0xd81f4d67fd462d9e, 0xf19cea6b0e689915),
    ("barrel-8x4", 0x2c40b3fdbb1e99bd, 0x9665b05ab6c7a427),
    ("regfile-4x8", 0xd86d6780ad0e82a5, 0x13a72841390d883d),
    ("random-800", 0x443d83214401d559, 0xa1dd0f0fba92b578),
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
/// model equals Elmore.
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
        [0xd86d6780ad0e82a5, 0xff182652eebf4df4, 0xf9c93d433cf31f3e],
    ),
    (
        "random-800",
        [0x443d83214401d559, 0x605d9d7c2e6da98e, 0x79aae7cae4f1d9b],
    ),
    (
        "mips32",
        [0x13d4281894a8ab9e, 0xa857b110b0fb3d68, 0x50573fa336b5acf4],
    ),
    (
        "manchester-8x4",
        [0x2258db71ef7e92c5, 0x1ad0d91902b21bc6, 0x8b7400e71d7cdf78],
    ),
    (
        "precharged-bus-4",
        [0xf33d4c8b6d200ae6, 0xf33d4c8b6d200ae6, 0xd7ca95fa783bbffa],
    ),
    (
        "race-smoke",
        [0x76ac115f3f211bdd, 0x4bcd1749c57fd858, 0xf59ed28c0bbc11cd],
    ),
    (
        "t6-1core",
        [0x2472bbfc47c55a5e, 0x2cb047b893a749b1, 0x00b5ee7d7ad1db91],
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
/// regenerate `GOLDENS` and `MODEL_GOLDENS` after an *intentional*
/// semantic change.
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
}
