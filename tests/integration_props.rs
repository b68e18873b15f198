//! Property-style tests over the core data structures and invariants.
//!
//! These were originally written against `proptest`; the suite now drives
//! the same properties from the in-tree seeded PRNG (`tv_gen::rng::Rng64`)
//! so the workspace builds with no external dependencies (and therefore
//! offline). Every case is deterministic in its seed, so a failure report
//! of the form `seed=N` reproduces exactly.

use nmos_tv::core::{AnalysisOptions, Analyzer, PhaseResult, TimingReport};
use nmos_tv::flow::{analyze, DeviceRole, Direction, RuleSet};
use nmos_tv::gen::random::{random_logic, RandomMix};
use nmos_tv::gen::rng::Rng64;
use nmos_tv::netlist::{sim_format, Netlist, Tech};
use nmos_tv::rc::bounds::crossing_bounds_all;
use nmos_tv::rc::elmore::{crossing_estimate, elmore_delays};
use nmos_tv::rc::lumped::lumped_tau;
use nmos_tv::rc::passchain::{buffered_chain_delay, chain_elmore};
use nmos_tv::rc::tree::RcTree;

/// A random RC tree: node 0 is the root; each extra edge hangs off a
/// deterministically varied parent.
fn random_rc_tree(rng: &mut Rng64) -> RcTree {
    let driver_r = rng.f64_range(0.01, 50.0);
    let root_c = rng.f64_range(0.0005, 2.0);
    let edges = rng.usize_range(0, 24);
    let mut tree = RcTree::new(driver_r);
    tree.add_cap(tree.root(), root_c);
    let mut ids = vec![tree.root()];
    for i in 0..edges {
        let parent = ids[(i * 7 + 3) % ids.len()];
        let r = rng.f64_range(0.01, 50.0);
        let c = rng.f64_range(0.0005, 2.0);
        ids.push(tree.add_child(parent, r, c));
    }
    tree
}

#[test]
fn elmore_is_monotone_along_every_path() {
    for seed in 0..64u64 {
        let tree = random_rc_tree(&mut Rng64::new(seed));
        let d = elmore_delays(&tree);
        for id in tree.ids() {
            if let Some(p) = tree.parent(id) {
                assert!(d[id.index()] >= d[p.index()] - 1e-12, "seed={seed}");
            }
        }
    }
}

#[test]
fn bounds_bracket_single_pole_estimate() {
    for seed in 0..64u64 {
        let mut rng = Rng64::new(seed);
        let tree = random_rc_tree(&mut rng);
        let x = rng.f64_range(0.05, 0.95);
        let elmore = elmore_delays(&tree);
        for (i, b) in crossing_bounds_all(&tree, x).iter().enumerate() {
            let est = crossing_estimate(elmore[i], x);
            assert!(
                b.lower <= est + 1e-9,
                "seed={seed}: lower {} > est {est}",
                b.lower
            );
            assert!(
                est <= b.upper + 1e-9,
                "seed={seed}: est {est} > upper {}",
                b.upper
            );
        }
    }
}

#[test]
fn moment_matched_estimate_respects_certified_bounds() {
    use nmos_tv::rc::moments::moment_matched_crossings;
    for seed in 0..64u64 {
        let mut rng = Rng64::new(seed);
        let tree = random_rc_tree(&mut rng);
        let x = rng.f64_range(0.1, 0.9);
        let matched = moment_matched_crossings(&tree, x);
        for (i, b) in crossing_bounds_all(&tree, x).iter().enumerate() {
            assert!(
                matched[i] <= b.upper + 1e-6,
                "seed={seed}: matched {} above certified upper {}",
                matched[i],
                b.upper
            );
            assert!(matched[i] >= 0.0, "seed={seed}");
        }
    }
}

#[test]
fn subtree_caps_conserve_total() {
    for seed in 0..64u64 {
        let tree = random_rc_tree(&mut Rng64::new(seed));
        let sub = tree.subtree_caps();
        let total: f64 = tree.ids().map(|i| tree.cap(i)).sum();
        assert!((sub[0] - total).abs() < 1e-9, "seed={seed}");
        assert!((tree.total_cap() - total).abs() < 1e-9, "seed={seed}");
    }
}

#[test]
fn lumped_never_exceeds_elmore_at_leaves() {
    // Lumped tau (driver R × total C) is a lower bound on the Elmore
    // delay of the far end of any chain hanging off the driver.
    for seed in 0..64u64 {
        let tree = random_rc_tree(&mut Rng64::new(seed));
        let d = elmore_delays(&tree);
        let worst = d.iter().cloned().fold(0.0f64, f64::max);
        assert!(lumped_tau(&tree) <= worst + 1e-9, "seed={seed}");
    }
}

#[test]
fn chain_formula_matches_tree_everywhere() {
    for seed in 0..64u64 {
        let mut rng = Rng64::new(seed);
        let rd = rng.f64_range(0.1, 40.0);
        let r = rng.f64_range(0.1, 40.0);
        let c = rng.f64_range(0.001, 1.0);
        let n = rng.usize_range(1, 20);
        let mut tree = RcTree::new(rd);
        let mut last = tree.root();
        for _ in 0..n {
            last = tree.add_child(last, r, c);
        }
        let formula = chain_elmore(rd, r, c, n);
        let direct = elmore_delays(&tree)[last.index()];
        assert!(
            (formula - direct).abs() < 1e-6 * formula.max(1.0),
            "seed={seed}: formula {formula} vs direct {direct}"
        );
    }
}

#[test]
fn buffering_never_loses_to_raw_on_long_chains() {
    // At the optimal interval, a 64-section buffered chain never loses
    // to the raw quadratic chain.
    for seed in 0..64u64 {
        let mut rng = Rng64::new(seed);
        let r = rng.f64_range(1.0, 40.0);
        let c = rng.f64_range(0.01, 0.5);
        let t_buf = rng.f64_range(0.1, 5.0);
        let k = nmos_tv::rc::passchain::optimal_buffer_interval(r, c, t_buf);
        let raw = chain_elmore(0.0, r, c, 64);
        let buffered = buffered_chain_delay(0.0, r, c, t_buf, 64, k);
        assert!(buffered <= raw + 1e-9, "seed={seed}");
    }
}

#[test]
fn random_netlists_analyze_cleanly() {
    for seed in 0..24u64 {
        let mut rng = Rng64::new(seed ^ 0xA5A5);
        let size = rng.usize_range(50, 400);
        let circuit = random_logic(Tech::nmos4um(), size, seed, RandomMix::default());
        let nl = &circuit.netlist;

        // Flow invariants: every pass device gets exactly one disposition.
        let flow = analyze(nl, &RuleSet::all());
        let report = flow.report(nl);
        assert_eq!(
            report.oriented + report.bidirectional + report.unresolved,
            report.pass_devices,
            "seed={seed}"
        );
        assert_eq!(
            report.by_external + report.by_restored + report.by_chain + report.by_sink,
            report.oriented,
            "seed={seed}"
        );

        // Oriented directions point at actual channel terminals.
        for dref in nl.devices() {
            if let Direction::Toward(dst) = flow.direction(dref.id) {
                assert!(dref.device.channel_touches(dst), "seed={seed}");
            }
            if flow.device_role(dref.id) != DeviceRole::Pass {
                assert!(
                    flow.direction(dref.id) != Direction::Unresolved
                        || flow.device_role(dref.id) == DeviceRole::Pass,
                    "seed={seed}"
                );
            }
        }

        // The analyzer terminates and every case's arrivals are
        // non-negative.
        let timing = Analyzer::new(nl).run(&AnalysisOptions::default());
        let mut arrivals = 0usize;
        let cases =
            std::iter::once(&timing.combinational).chain(timing.phases.iter().map(|p| &p.result));
        for result in cases {
            for id in nl.node_ids() {
                if let Some(t) = result.arrival(id) {
                    assert!(t >= 0.0, "seed={seed}");
                    arrivals += 1;
                }
            }
        }
        assert!(arrivals > 0, "seed={seed}: no case holds an arrival");
    }
}

#[test]
fn sim_format_round_trips_random_netlists() {
    for seed in 0..16u64 {
        let circuit = random_logic(Tech::nmos4um(), 150, seed, RandomMix::default());
        let text = sim_format::write(&circuit.netlist);
        let back = sim_format::parse(&text, Tech::nmos4um()).expect("parse");
        assert_eq!(
            back.device_count(),
            circuit.netlist.device_count(),
            "seed={seed}"
        );
        assert_eq!(
            back.node_count(),
            circuit.netlist.node_count(),
            "seed={seed}"
        );
        // Capacitance totals survive (gate/diffusion re-derived, extras kept).
        let c1 = circuit.netlist.total_capacitance();
        let c2 = back.total_capacitance();
        assert!((c1 - c2).abs() < 1e-9 * c1.max(1.0), "seed={seed}");
    }
}

#[test]
fn two_phase_windows_partition_the_cycle() {
    for seed in 0..64u64 {
        let mut rng = Rng64::new(seed);
        let w1 = rng.f64_range(0.5, 50.0);
        let w2 = rng.f64_range(0.5, 50.0);
        let gap = rng.f64_range(0.1, 5.0);
        let clk = nmos_tv::clocks::TwoPhaseClock::new(w1, w2, gap);
        let (s1, e1) = clk.window(0);
        let (s2, e2) = clk.window(1);
        assert!(
            s1 < e1 && e1 <= s2 && s2 < e2 && e2 <= clk.cycle(),
            "seed={seed}"
        );
        assert!(
            (clk.cycle() - (w1 + w2 + 2.0 * gap)).abs() < 1e-9,
            "seed={seed}"
        );
        // Scaling to a larger cycle preserves the ratio.
        let scaled = clk.with_cycle(clk.cycle() * 2.0);
        assert!(
            (scaled.width(0) / scaled.width(1) - w1 / w2).abs() < 1e-6,
            "seed={seed}"
        );
    }
}

// Cross-engine validation: on random restoring logic (no pass muxes or
// latches, so values are strictly determined), the switch-level and
// analog simulators must agree at every node.
#[test]
fn switch_level_agrees_with_analog_on_random_logic() {
    use nmos_tv::sim::switch::{Level, SwitchSim};
    use nmos_tv::sim::{SimOptions, Simulator, Stimulus, Waveform};

    for case in 0..12u64 {
        let mut rng = Rng64::new(case.wrapping_mul(0x9E3779B9));
        let seed = rng.next_u64() % 100;
        let inputs_high = (rng.next_u64() % 256) as u32;

        let mix = RandomMix {
            inverter: 0.5,
            nand: 0.3,
            nor: 0.2,
            pass_mux: 0.0,
            latch: 0.0,
        };
        let tech = Tech::nmos4um();
        let c = random_logic(tech.clone(), 60, seed, mix);
        let nl = &c.netlist;

        // Switch level.
        let mut sw = SwitchSim::new(nl);
        let input_nodes = nl.inputs();
        for (i, &n) in input_nodes.iter().enumerate() {
            let high = (inputs_high >> i) & 1 == 1;
            sw.set(n, if high { Level::One } else { Level::Zero });
        }
        for &(clk, _) in nl.clocks() {
            sw.set(clk, Level::Zero);
        }
        sw.settle().expect("restoring logic settles");

        // Analog, same input vector, settled DC.
        let mut stim = Stimulus::new(nl);
        for (i, &n) in input_nodes.iter().enumerate() {
            let high = (inputs_high >> i) & 1 == 1;
            stim.drive(n, Waveform::Const(if high { tech.vdd } else { 0.0 }));
        }
        // Clock node exists but gates nothing in this mix; hold it low.
        for &(clk, _) in nl.clocks() {
            stim.drive(clk, Waveform::Const(0.0));
        }
        let mut opts = SimOptions::for_duration(1.0);
        opts.settle = 400.0;
        let r = Simulator::new(nl, stim, opts).run();

        let flow = analyze(nl, &RuleSet::all());
        for id in nl.node_ids() {
            if nl.node(id).role().is_rail() {
                continue;
            }
            let v = r.final_voltages()[id.index()];
            let analog = if v > tech.switch_voltage() {
                Level::One
            } else {
                Level::Zero
            };
            match sw.value(id) {
                // X is legitimate only on isolated interior nodes (e.g.
                // the series node of a NAND whose legs are all off); a
                // restored stage output must always resolve and agree.
                Level::X => assert_ne!(
                    flow.node_class(id),
                    nmos_tv::flow::NodeClass::Restored,
                    "seed={seed}: restored node {} is X",
                    nl.node_name(id)
                ),
                switchv => assert_eq!(
                    switchv,
                    analog,
                    "seed={seed}: node {} (analog {} V)",
                    nl.node_name(id),
                    v
                ),
            }
        }
    }
}

// The simulator is expensive; a handful of random cases suffices to
// guard the static-conservatism contract.
#[test]
fn static_estimate_not_wildly_optimistic_on_random_inverter_trees() {
    use nmos_tv::gen::chains::inverter_chain;
    use nmos_tv::sim::{measure, SimOptions, Simulator, Stimulus, Waveform};
    for stages in 2usize..5 {
        for fanout in 1usize..3 {
            let tech = Tech::nmos4um();
            let c = inverter_chain(tech.clone(), 2 * stages, fanout);
            let report = Analyzer::new(&c.netlist).run(&AnalysisOptions::default());
            let est = report.combinational.arrivals.rise(c.output).expect("rises");

            let mut stim = Stimulus::new(&c.netlist);
            stim.drive(c.input, Waveform::step_up(1.0, tech.vdd));
            let r = Simulator::new(&c.netlist, stim, SimOptions::for_duration(60.0)).run();
            let sim = measure::delay_50(&r, c.input, c.output, &tech).expect("switches");
            assert!(
                est >= 0.9 * sim,
                "stages={stages} fanout={fanout}: estimate {est} vs sim {sim}"
            );
            assert!(
                est <= 2.0 * sim,
                "stages={stages} fanout={fanout}: estimate {est} vs sim {sim}"
            );
        }
    }
}

/// Tentpole guarantee: the levelized engine is bit-identical at every
/// thread count — arrivals, the cyclic flag, the relaxation count, and
/// the endpoint table all match the serial walk exactly.
#[test]
fn parallel_propagation_bit_identical_to_serial() {
    use nmos_tv::clocks::qualify::qualify_with_flow;
    use nmos_tv::core::{propagate_with, DelayModel, PhaseCase, TimingGraph};
    use nmos_tv::rc::SlopeModel;

    for seed in 0..8u64 {
        let circuit = random_logic(
            Tech::nmos4um(),
            500 + 100 * seed as usize,
            0xFEED_0000 + seed,
            RandomMix::default(),
        );
        let nl = &circuit.netlist;
        let flow = analyze(nl, &RuleSet::all());
        let q = qualify_with_flow(nl, &flow);
        for case in [
            PhaseCase::all_active(),
            PhaseCase::phase(0),
            PhaseCase::phase(1),
        ] {
            let g = TimingGraph::build(nl, &flow, &q, case, DelayModel::Elmore, 1.0);
            let sources: Vec<_> = nl
                .node_ids()
                .filter(|&i| nl.node(i).role().is_external_source())
                .collect();
            let endpoints: Vec<_> = nl
                .node_ids()
                .filter(|&i| !nl.node(i).role().is_rail())
                .collect();
            let slope = SlopeModel::calibrated();
            let serial = propagate_with(nl, &g, &sources, &endpoints, &slope, 1);
            for jobs in [2usize, 8] {
                let par = propagate_with(nl, &g, &sources, &endpoints, &slope, jobs);
                assert_eq!(serial.cyclic, par.cyclic, "seed={seed} jobs={jobs}");
                assert_eq!(
                    serial.relaxations, par.relaxations,
                    "seed={seed} jobs={jobs}"
                );
                for i in nl.node_ids() {
                    for (a, b) in [
                        (serial.arrivals.rise(i), par.arrivals.rise(i)),
                        (serial.arrivals.fall(i), par.arrivals.fall(i)),
                    ] {
                        assert_eq!(
                            a.map(f64::to_bits),
                            b.map(f64::to_bits),
                            "seed={seed} jobs={jobs} node={i:?}"
                        );
                    }
                }
                assert_eq!(serial.endpoints.len(), par.endpoints.len());
                for ((n1, t1), (n2, t2)) in serial.endpoints.iter().zip(&par.endpoints) {
                    assert_eq!(n1, n2, "seed={seed} jobs={jobs}");
                    assert_eq!(t1.to_bits(), t2.to_bits(), "seed={seed} jobs={jobs}");
                }
            }
        }
    }
}

/// Asserts that two reports hold bit-identical arrivals at every node in
/// every case: the all-active one and each phase. On a clocked design
/// the all-active case is not walked and holds none, so the phases carry
/// the comparison; at least one case must hold an arrival.
fn assert_same_arrivals(nl: &Netlist, a: &TimingReport, b: &TimingReport, what: &str) {
    fn cases(r: &TimingReport) -> Vec<(Option<u8>, &PhaseResult)> {
        std::iter::once((None, &r.combinational))
            .chain(r.phases.iter().map(|p| (Some(p.phase), &p.result)))
            .collect()
    }
    let (ca, cb) = (cases(a), cases(b));
    assert_eq!(ca.len(), cb.len(), "{what}: case count");
    let mut arrivals = 0usize;
    for ((case, ra), (_, rb)) in ca.iter().zip(&cb) {
        for i in nl.node_ids() {
            assert_eq!(
                ra.arrival(i).map(f64::to_bits),
                rb.arrival(i).map(f64::to_bits),
                "{what} case={case:?} node={i:?}"
            );
            arrivals += ra.arrival(i).is_some() as usize;
        }
    }
    assert!(arrivals > 0, "{what}: no case holds an arrival");
}

/// Full-pipeline determinism: `Analyzer::run` with jobs 1/2/4/8 and a
/// warm `PassManager` re-analysis produce bit-identical reports on
/// random netlists — arrivals, min cycle, and slack included.
#[test]
fn analyzer_jobs_and_incremental_bit_identical() {
    use nmos_tv::core::{PassId, PassManager, PassOutcome};
    use nmos_tv::netlist::Design;

    for seed in 0..6u64 {
        let circuit = random_logic(
            Tech::nmos4um(),
            400 + 150 * seed as usize,
            0xAB5EED + seed,
            RandomMix::default(),
        );
        let nl = &circuit.netlist;
        let cold = Analyzer::new(nl).run(&AnalysisOptions::default());
        let variants = [
            AnalysisOptions {
                jobs: 2,
                ..AnalysisOptions::default()
            },
            AnalysisOptions {
                jobs: 8,
                ..AnalysisOptions::default()
            },
            AnalysisOptions {
                jobs: 4,
                ..AnalysisOptions::default()
            },
        ];
        for (vi, opts) in variants.iter().enumerate() {
            let r = Analyzer::new(nl).run(opts);
            assert_eq!(
                cold.min_cycle.map(f64::to_bits),
                r.min_cycle.map(f64::to_bits),
                "seed={seed} variant={vi}"
            );
            assert_eq!(cold.phases.len(), r.phases.len(), "seed={seed}");
            for (p0, p1) in cold.phases.iter().zip(&r.phases) {
                assert_eq!(
                    p0.slack.map(f64::to_bits),
                    p1.slack.map(f64::to_bits),
                    "seed={seed} variant={vi} phase={}",
                    p0.phase
                );
            }
            assert_same_arrivals(nl, &cold, &r, &format!("seed={seed} variant={vi}"));
        }

        // Cross-run: a warm re-analysis on a held pipeline is
        // bit-identical to cold and recomputes nothing.
        let design = Design::new(nl.clone());
        let mut pm = PassManager::new();
        let first = pm.analyze(&design, &AnalysisOptions::default());
        let second = pm.analyze(&design, &AnalysisOptions::default());
        assert_same_arrivals(nl, &first, &second, &format!("seed={seed} warm"));
        assert_same_arrivals(nl, &cold, &second, &format!("seed={seed} warm-vs-cold"));
        for e in pm.last_trace() {
            // Every walked case (the phase cases of these clocked
            // designs) is reused whole or walked whole on an identical
            // re-run, never re-relaxed as a cone.
            if let PassId::Arrivals(case) = e.pass {
                assert!(
                    matches!(e.outcome, PassOutcome::Reused | PassOutcome::Computed),
                    "seed={seed} case={case:?}: partial recompute {:?} on identical input",
                    e.outcome
                );
            }
        }
    }
}
