//! End-to-end pipeline tests: netlist construction → `.sim` round trip →
//! flow analysis → clock recovery → timing → report rendering, spanning
//! every crate in the workspace.

use nmos_tv::core::{AnalysisOptions, Analyzer};
use nmos_tv::flow::{analyze, RuleSet};
use nmos_tv::gen::datapath::{datapath, DatapathConfig};
use nmos_tv::gen::{chains, random};
use nmos_tv::netlist::{sim_format, NetlistBuilder, Tech};

#[test]
fn sim_format_round_trip_preserves_analysis_results() {
    let dp = datapath(Tech::nmos4um(), DatapathConfig::small());
    let text = sim_format::write(&dp.netlist);
    let back = sim_format::parse(&text, Tech::nmos4um()).expect("parse back");

    assert_eq!(back.device_count(), dp.netlist.device_count());
    assert_eq!(back.node_count(), dp.netlist.node_count());

    // The re-parsed netlist must produce the same timing verdicts.
    let opts = AnalysisOptions::default();
    let r1 = Analyzer::new(&dp.netlist).run(&opts);
    let r2 = Analyzer::new(&back).run(&opts);
    let m1 = r1.min_cycle.expect("phases ran");
    let m2 = r2.min_cycle.expect("phases ran");
    assert!(
        (m1 - m2).abs() < 1e-6,
        "round trip changed min cycle: {m1} vs {m2}"
    );
    assert_eq!(r1.latches.len(), r2.latches.len());
    assert_eq!(r1.checks.len(), r2.checks.len());
}

#[test]
fn datapath_report_is_complete_and_clean_of_cycles() {
    let dp = datapath(Tech::nmos4um(), DatapathConfig::small());
    let report = Analyzer::new(&dp.netlist).run(&AnalysisOptions::default());

    // Both phases analyzed, neither cyclic, with real critical paths.
    assert_eq!(report.phases.len(), 2);
    for phase in &report.phases {
        assert!(!phase.result.cyclic, "phase {} cyclic", phase.phase);
        assert!(phase.result.critical_arrival().unwrap_or(0.0) > 0.0);
        assert!(!phase.paths.is_empty());
    }
    // Latch population: 2 regs × 4 bits × (master + slave).
    assert_eq!(report.latches.len(), 16);
    // Rendering works and names real nodes.
    let text = report.render(&dp.netlist);
    assert!(text.contains("minimum cycle"));
    assert!(text.contains("rf_r0"));
}

#[test]
fn analysis_is_deterministic() {
    let c = random::random_logic(Tech::nmos4um(), 600, 42, random::RandomMix::default());
    let opts = AnalysisOptions::default();
    let r1 = Analyzer::new(&c.netlist).run(&opts);
    let r2 = Analyzer::new(&c.netlist).run(&opts);
    // Every case's endpoints: random logic is clocked, so the phases
    // carry them and the all-active case is not walked.
    assert_eq!(r1.phases.len(), 2);
    assert_eq!(r1.combinational.endpoints, r2.combinational.endpoints);
    for (p1, p2) in r1.phases.iter().zip(&r2.phases) {
        assert!(!p1.result.endpoints.is_empty(), "phase {}", p1.phase);
        assert_eq!(p1.result.endpoints, p2.result.endpoints);
    }
    assert_eq!(r1.checks.len(), r2.checks.len());
    assert_eq!(
        r1.flow_report.oriented + r1.flow_report.bidirectional,
        r2.flow_report.oriented + r2.flow_report.bidirectional
    );
}

#[test]
fn deeper_logic_is_slower_across_all_generators() {
    let opts = AnalysisOptions::default();
    let pairs = [
        (
            chains::inverter_chain(Tech::nmos4um(), 3, 1),
            chains::inverter_chain(Tech::nmos4um(), 9, 1),
        ),
        (
            chains::nand_chain(Tech::nmos4um(), 2, 2),
            chains::nand_chain(Tech::nmos4um(), 6, 2),
        ),
        (
            chains::pass_chain(Tech::nmos4um(), 2),
            chains::pass_chain(Tech::nmos4um(), 5),
        ),
    ];
    for (short, long) in pairs {
        let d_short = Analyzer::new(&short.netlist)
            .run(&opts)
            .arrival(short.output)
            .expect("reachable");
        let d_long = Analyzer::new(&long.netlist)
            .run(&opts)
            .arrival(long.output)
            .expect("reachable");
        assert!(d_long > d_short, "{d_long} should exceed {d_short}");
    }
}

#[test]
fn flow_and_clocks_compose_on_hand_built_register() {
    // Hand-build a master–slave register and verify the full stack sees
    // one coherent story: classification, qualification, latches, timing.
    let mut b = NetlistBuilder::new(Tech::nmos4um());
    let phi1 = b.clock("phi1", 0);
    let phi2 = b.clock("phi2", 1);
    let d = b.input("d");
    let m = b.node("m");
    b.dynamic_latch("master", phi1, d, m);
    let q = b.output("q");
    b.dynamic_latch("slave", phi2, m, q);
    let nl = b.finish().expect("valid");

    let flow = analyze(&nl, &RuleSet::all());
    assert_eq!(flow.report(&nl).unresolved, 0);

    let report = Analyzer::new(&nl).run(&AnalysisOptions::default());
    assert_eq!(report.latches.len(), 2);
    let phases: Vec<u8> = report.latches.iter().map(|l| l.phase).collect();
    assert!(phases.contains(&0) && phases.contains(&1));

    // φ1 case: new data arrives at the master storage strictly after the
    // phase opens, while the φ2 slave is a *source* holding stable data
    // (arrival 0 — nothing new reaches it through its closed pass gate).
    let p0 = report.phase(0).expect("phase 0 ran");
    let master_mem = nl.node_by_name("master_mem").unwrap();
    let slave_mem = nl.node_by_name("slave_mem").unwrap();
    assert!(p0.result.arrival(master_mem).unwrap_or(0.0) > 0.0);
    assert_eq!(p0.result.arrival(slave_mem), Some(0.0));

    // φ2 case: the master's stored value propagates into the slave, which
    // therefore arrives strictly later than the phase opening.
    let p1 = report.phase(1).expect("phase 1 ran");
    assert!(p1.result.arrival(slave_mem).unwrap_or(0.0) > 0.0);
}

#[test]
fn tech_scaling_speeds_up_circuits() {
    // The same topology in the scaled process has lower absolute delay
    // (smaller min devices => smaller gate loads at same resistance).
    let opts = AnalysisOptions::default();
    let big = chains::inverter_chain(Tech::nmos4um(), 6, 2);
    let small = chains::inverter_chain(Tech::nmos2um(), 6, 2);
    let d_big = Analyzer::new(&big.netlist)
        .run(&opts)
        .arrival(big.output)
        .unwrap();
    let d_small = Analyzer::new(&small.netlist)
        .run(&opts)
        .arrival(small.output)
        .unwrap();
    assert!(
        d_small < d_big,
        "scaled process should be faster: {d_small} vs {d_big}"
    );
}
