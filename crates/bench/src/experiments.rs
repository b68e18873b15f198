//! The experiment implementations (T1–T5, F1–F3, A1–A2).

use std::time::Instant;

use tv_clocks::TwoPhaseClock;
use tv_core::{AnalysisOptions, Analyzer, DelayModel};
use tv_flow::{Rule, RuleSet};
use tv_gen::chains::{buffered_pass_chain, loaded_inverter, pass_chain};
use tv_gen::datapath::{datapath, Datapath, DatapathConfig};
use tv_gen::random::{random_logic, RandomMix};
use tv_gen::workload::{t1_suite, t2_suite};
use tv_netlist::Tech;
use tv_sim::{measure, SimOptions, Simulator, Stimulus, Waveform};

/// One row of the T1 accuracy table.
#[derive(Debug, Clone)]
pub struct T1Row {
    /// Circuit name.
    pub name: &'static str,
    /// TV's static estimate, ns.
    pub static_ns: f64,
    /// Transient-simulated delay, ns (`None` if the output never switched).
    pub sim_ns: Option<f64>,
}

impl T1Row {
    /// static / simulated; > 1 means conservative.
    pub fn ratio(&self) -> Option<f64> {
        self.sim_ns.map(|s| self.static_ns / s)
    }
}

/// T1: static estimate vs transient simulation over the calibration suite.
pub fn t1_delay_accuracy(tech: &Tech) -> Vec<T1Row> {
    t1_suite(tech)
        .into_iter()
        .map(|item| {
            let nl = &item.circuit.netlist;
            let report = Analyzer::new(nl).run(&AnalysisOptions::default());
            // Compare the edge the measurement exercises: the input steps
            // up, so the output's measured edge is fixed by the circuit's
            // inversion parity.
            let static_ns = if item.output_falls_on_input_rise {
                report.combinational.arrivals.fall(item.circuit.output)
            } else {
                report.combinational.arrivals.rise(item.circuit.output)
            }
            .expect("T1 outputs are reachable");

            let mut stim = Stimulus::new(nl);
            stim.drive(item.circuit.input, Waveform::step_up(1.0, tech.vdd));
            if let Some(en) = nl.node_by_name("en") {
                // NOR chains need `en` low to stay transparent; everything
                // else wants it high.
                let level = if item.name.starts_with("nor") {
                    0.0
                } else {
                    tech.vdd
                };
                stim.drive(en, Waveform::Const(level));
            }
            let result = Simulator::new(nl, stim, SimOptions::for_duration(100.0)).run();
            let sim_ns = measure::delay_50(&result, item.circuit.input, item.circuit.output, tech)
                .filter(|&d| d > 0.0);
            T1Row {
                name: item.name,
                static_ns,
                sim_ns,
            }
        })
        .collect()
}

/// One row of the T2 flow-resolution table.
#[derive(Debug, Clone)]
pub struct T2Row {
    /// Circuit name.
    pub name: &'static str,
    /// Total devices.
    pub devices: usize,
    /// Pass devices.
    pub pass: usize,
    /// Coverage (oriented + bidirectional) / pass.
    pub coverage: f64,
    /// Fixpoint sweeps.
    pub sweeps: usize,
    /// Resolutions per rule: external, restored, chain, sink.
    pub by_rule: [usize; 4],
}

/// T2: direction-resolution statistics over pass-heavy circuits.
pub fn t2_flow_resolution(tech: &Tech) -> Vec<T2Row> {
    t2_suite(tech)
        .into_iter()
        .map(|item| {
            let flow = tv_flow::analyze(&item.circuit.netlist, &RuleSet::all());
            let r = flow.report(&item.circuit.netlist);
            T2Row {
                name: item.name,
                devices: r.devices,
                pass: r.pass_devices,
                coverage: r.coverage(),
                sweeps: r.sweeps,
                by_rule: [r.by_external, r.by_restored, r.by_chain, r.by_sink],
            }
        })
        .collect()
}

/// The T3 result: critical paths of the MIPS-class datapath.
#[derive(Debug)]
pub struct T3Result {
    /// The generated datapath (netlist owned here for rendering).
    pub datapath: Datapath,
    /// Per phase: (phase index, critical arrival ns, top paths as
    /// (endpoint name, arrival, step count)).
    #[allow(clippy::type_complexity)] // a report row, not an abstraction
    pub phases: Vec<(u8, f64, Vec<(String, f64, usize)>)>,
    /// Minimum cycle, ns.
    pub min_cycle: f64,
}

/// T3: critical paths of the 32-bit datapath, top `k` per phase.
pub fn t3_critical_paths(tech: &Tech, config: DatapathConfig, k: usize) -> T3Result {
    let dp = datapath(tech.clone(), config);
    let opts = AnalysisOptions {
        top_k: k,
        ..AnalysisOptions::default()
    };
    let report = Analyzer::new(&dp.netlist).run(&opts);
    let phases = report
        .phases
        .iter()
        .map(|p| {
            let paths = p
                .paths
                .iter()
                .map(|path| {
                    (
                        dp.netlist.node_name(path.endpoint()).to_owned(),
                        path.arrival(),
                        path.len(),
                    )
                })
                .collect();
            (p.phase, p.result.critical_arrival().unwrap_or(0.0), paths)
        })
        .collect();
    T3Result {
        min_cycle: report.min_cycle.unwrap_or(0.0),
        datapath: dp,
        phases,
    }
}

/// One row of the T4 clock table.
#[derive(Debug, Clone)]
pub struct T4Row {
    /// Tested cycle time, ns.
    pub cycle_ns: f64,
    /// Phase-1 slack, ns.
    pub slack1: f64,
    /// Phase-2 slack, ns.
    pub slack2: f64,
    /// Whether the scheme is feasible.
    pub feasible: bool,
}

/// The T4 result: feasibility sweep plus the naive-mode comparison.
#[derive(Debug)]
pub struct T4Result {
    /// Feasibility per swept cycle.
    pub rows: Vec<T4Row>,
    /// Minimum feasible cycle from arrivals, ns.
    pub min_cycle: f64,
    /// φ1/φ2 critical arrivals, ns.
    pub arrivals: (f64, f64),
    /// Latch counts (φ1, φ2).
    pub latches: (usize, usize),
    /// Whether the no-case-analysis mode hit a cycle (it should: the
    /// datapath loop is only broken by phase case analysis).
    pub naive_cyclic: bool,
}

/// T4: two-phase clock case analysis and minimum cycle on the datapath.
pub fn t4_clock_analysis(tech: &Tech, config: DatapathConfig, cycles: &[f64]) -> T4Result {
    let dp = datapath(tech.clone(), config);
    let report = Analyzer::new(&dp.netlist).run(&AnalysisOptions::default());
    let a1 = report.phases[0].result.critical_arrival().unwrap_or(0.0);
    let a2 = report.phases[1].result.critical_arrival().unwrap_or(0.0);
    let min_cycle = report.min_cycle.expect("case analysis ran");
    let latches = tv_clocks::latch::latch_counts(&report.latches);

    let rows = cycles
        .iter()
        .map(|&cycle| {
            let clock = TwoPhaseClock::symmetric(cycle, 1.0);
            let opts = AnalysisOptions {
                clock,
                ..AnalysisOptions::default()
            };
            let r = Analyzer::new(&dp.netlist).run(&opts);
            let s1 = r.phases[0].slack.unwrap_or(f64::INFINITY);
            let s2 = r.phases[1].slack.unwrap_or(f64::INFINITY);
            T4Row {
                cycle_ns: cycle,
                slack1: s1,
                slack2: s2,
                feasible: s1 >= 0.0 && s2 >= 0.0,
            }
        })
        .collect();

    let naive = Analyzer::new(&dp.netlist).run(&AnalysisOptions {
        case_analysis: false,
        ..AnalysisOptions::default()
    });

    T4Result {
        rows,
        min_cycle,
        arrivals: (a1, a2),
        latches,
        naive_cyclic: naive.combinational.cyclic,
    }
}

/// One row of the T5 scaling table.
#[derive(Debug, Clone)]
pub struct T5Row {
    /// Transistor count.
    pub devices: usize,
    /// Node count.
    pub nodes: usize,
    /// Full-analysis wall time, ms.
    pub analyze_ms: f64,
    /// Devices analyzed per millisecond.
    pub devices_per_ms: f64,
}

/// T5: analyzer runtime vs circuit size on seeded random logic.
pub fn t5_scaling(tech: &Tech, sizes: &[usize]) -> Vec<T5Row> {
    sizes
        .iter()
        .map(|&target| {
            let c = random_logic(tech.clone(), target, 0xC0FFEE, RandomMix::default());
            let t0 = Instant::now();
            let report = Analyzer::new(&c.netlist).run(&AnalysisOptions::default());
            let dt = t0.elapsed().as_secs_f64() * 1e3;
            // Touch the report so the work cannot be optimized away.
            assert!(report.flow_report.devices > 0);
            T5Row {
                devices: c.netlist.device_count(),
                nodes: c.netlist.node_count(),
                analyze_ms: dt,
                devices_per_ms: c.netlist.device_count() as f64 / dt,
            }
        })
        .collect()
}

/// One point of the F1 pass-chain figure.
#[derive(Debug, Clone)]
pub struct F1Point {
    /// Chain length.
    pub n: usize,
    /// Static delay of the raw chain, ns.
    pub raw_ns: f64,
    /// Static delay with buffers every `k`, ns.
    pub buffered_ns: f64,
    /// Transient-simulated raw-chain delay, ns.
    pub sim_ns: Option<f64>,
}

/// F1: delay vs pass-chain length, raw and buffered, static and simulated.
pub fn f1_pass_chain(tech: &Tech, lengths: &[usize], k: usize, simulate: bool) -> Vec<F1Point> {
    lengths
        .iter()
        .map(|&n| {
            // The measured transfer is input rise → chain falls → output
            // rises; compare that edge.
            let raw = pass_chain(tech.clone(), n);
            let raw_ns = Analyzer::new(&raw.netlist)
                .run(&AnalysisOptions::default())
                .combinational
                .arrivals
                .rise(raw.output)
                .expect("reachable");
            let buf = buffered_pass_chain(tech.clone(), n, k);
            let buffered_ns = Analyzer::new(&buf.netlist)
                .run(&AnalysisOptions::default())
                .combinational
                .arrivals
                .rise(buf.output)
                .expect("reachable");
            let sim_ns = simulate.then(|| simulate_chain(tech, &raw)).flatten();
            F1Point {
                n,
                raw_ns,
                buffered_ns,
                sim_ns,
            }
        })
        .collect()
}

fn simulate_chain(tech: &Tech, c: &tv_gen::Circuit) -> Option<f64> {
    let mut stim = Stimulus::new(&c.netlist);
    stim.drive(c.input, Waveform::step_up(1.0, tech.vdd));
    if let Some(en) = c.netlist.node_by_name("en") {
        stim.drive(en, Waveform::Const(tech.vdd));
    }
    let result = Simulator::new(&c.netlist, stim, SimOptions::for_duration(400.0)).run();
    measure::delay_50(&result, c.input, c.output, tech).filter(|&d| d > 0.0)
}

/// One point of the F2 rise/fall-vs-load figure.
#[derive(Debug, Clone)]
pub struct F2Point {
    /// Explicit load, pF.
    pub load_pf: f64,
    /// Static rise arrival at the output, ns.
    pub rise_ns: f64,
    /// Static fall arrival at the output, ns.
    pub fall_ns: f64,
    /// Simulated fall delay (input step up), ns.
    pub sim_fall_ns: Option<f64>,
    /// Simulated rise delay (input step down), ns.
    pub sim_rise_ns: Option<f64>,
}

/// F2: inverter rise/fall delay vs capacitive load.
pub fn f2_rise_fall(tech: &Tech, loads: &[f64], simulate: bool) -> Vec<F2Point> {
    loads
        .iter()
        .map(|&load| {
            let c = loaded_inverter(tech.clone(), load);
            let report = Analyzer::new(&c.netlist).run(&AnalysisOptions::default());
            let rise_ns = report
                .combinational
                .arrivals
                .rise(c.output)
                .expect("output rises");
            let fall_ns = report
                .combinational
                .arrivals
                .fall(c.output)
                .expect("output falls");

            let (sim_fall_ns, sim_rise_ns) = if simulate {
                // Depletion loads charge big loads slowly (constant
                // saturation current): give the quiescent point time.
                let mut opts = SimOptions::for_duration(220.0);
                opts.settle = 900.0;
                let fall = {
                    let mut stim = Stimulus::new(&c.netlist);
                    stim.drive(c.input, Waveform::step_up(1.0, tech.vdd));
                    let r = Simulator::new(&c.netlist, stim, opts.clone()).run();
                    measure::delay_50(&r, c.input, c.output, tech)
                };
                let rise = {
                    let mut stim = Stimulus::new(&c.netlist);
                    stim.drive(c.input, Waveform::step_down(1.0, tech.vdd));
                    let r = Simulator::new(&c.netlist, stim, opts).run();
                    measure::delay_50(&r, c.input, c.output, tech)
                };
                (fall, rise)
            } else {
                (None, None)
            };
            F2Point {
                load_pf: load,
                rise_ns,
                fall_ns,
                sim_fall_ns,
                sim_rise_ns,
            }
        })
        .collect()
}

/// The F3 histogram: endpoint slack distribution per phase.
#[derive(Debug, Clone)]
pub struct F3Histogram {
    /// Phase index.
    pub phase: u8,
    /// Histogram bucket edges, ns.
    pub edges: Vec<f64>,
    /// Endpoint count per bucket.
    pub counts: Vec<usize>,
    /// Total endpoints.
    pub total: usize,
}

/// F3: slack histogram of every latch endpoint at a given cycle time.
pub fn f3_slack_histogram(
    tech: &Tech,
    config: DatapathConfig,
    cycle: f64,
    buckets: usize,
) -> Vec<F3Histogram> {
    let dp = datapath(tech.clone(), config);
    let opts = AnalysisOptions {
        clock: TwoPhaseClock::symmetric(cycle, 1.0),
        ..AnalysisOptions::default()
    };
    let report = Analyzer::new(&dp.netlist).run(&opts);
    report
        .phases
        .iter()
        .map(|p| {
            let width = opts.clock.width(p.phase);
            let slacks: Vec<f64> = p.result.endpoints.iter().map(|&(_, t)| width - t).collect();
            let (lo, hi) = slacks
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &s| {
                    (l.min(s), h.max(s))
                });
            let (lo, hi) = if slacks.is_empty() {
                (0.0, 1.0)
            } else {
                (lo, hi)
            };
            let span = (hi - lo).max(1e-9);
            let mut counts = vec![0usize; buckets];
            for &s in &slacks {
                let mut idx = ((s - lo) / span * buckets as f64) as usize;
                if idx >= buckets {
                    idx = buckets - 1;
                }
                counts[idx] += 1;
            }
            let edges = (0..=buckets)
                .map(|i| lo + span * i as f64 / buckets as f64)
                .collect();
            F3Histogram {
                phase: p.phase,
                edges,
                counts,
                total: slacks.len(),
            }
        })
        .collect()
}

/// One row of the A1 model-ablation table.
#[derive(Debug, Clone)]
pub struct A1Row {
    /// Circuit name.
    pub name: &'static str,
    /// Delay under the lumped model, ns.
    pub lumped_ns: f64,
    /// Delay under the Elmore model, ns.
    pub elmore_ns: f64,
    /// Delay under the certified upper bound, ns.
    pub upper_ns: f64,
    /// Simulated reference, ns.
    pub sim_ns: Option<f64>,
}

/// A1: delay-model ablation over the T1 suite.
pub fn a1_model_ablation(tech: &Tech, simulate: bool) -> Vec<A1Row> {
    t1_suite(tech)
        .into_iter()
        .map(|item| {
            let nl = &item.circuit.netlist;
            // Same edge convention as T1: the edge the simulation measures.
            let run = |model: DelayModel| {
                let report = Analyzer::new(nl).run(&AnalysisOptions {
                    model,
                    ..AnalysisOptions::default()
                });
                if item.output_falls_on_input_rise {
                    report.combinational.arrivals.fall(item.circuit.output)
                } else {
                    report.combinational.arrivals.rise(item.circuit.output)
                }
                .expect("reachable")
            };
            let sim_ns = if simulate {
                let mut stim = Stimulus::new(nl);
                stim.drive(item.circuit.input, Waveform::step_up(1.0, tech.vdd));
                if let Some(en) = nl.node_by_name("en") {
                    let level = if item.name.starts_with("nor") {
                        0.0
                    } else {
                        tech.vdd
                    };
                    stim.drive(en, Waveform::Const(level));
                }
                let r = Simulator::new(nl, stim, SimOptions::for_duration(100.0)).run();
                measure::delay_50(&r, item.circuit.input, item.circuit.output, tech)
                    .filter(|&d| d > 0.0)
            } else {
                None
            };
            A1Row {
                name: item.name,
                lumped_ns: run(DelayModel::Lumped),
                elmore_ns: run(DelayModel::Elmore),
                upper_ns: run(DelayModel::UpperBound),
                sim_ns,
            }
        })
        .collect()
}

/// One row of the A2 rule-ablation table.
#[derive(Debug, Clone)]
pub struct A2Row {
    /// Which rule was disabled (`None` = full rule set).
    pub disabled: Option<Rule>,
    /// Mean coverage over the T2 suite.
    pub coverage: f64,
    /// Total unresolved devices over the suite.
    pub unresolved: usize,
}

/// A2: direction-rule ablation — coverage with each rule knocked out.
pub fn a2_rule_ablation(tech: &Tech) -> Vec<A2Row> {
    let configs: Vec<(Option<Rule>, RuleSet)> = vec![
        (None, RuleSet::all()),
        (Some(Rule::External), RuleSet::all().without(Rule::External)),
        (
            Some(Rule::RestoredDrive),
            RuleSet::all().without(Rule::RestoredDrive),
        ),
        (Some(Rule::Chain), RuleSet::all().without(Rule::Chain)),
        (Some(Rule::Sink), RuleSet::all().without(Rule::Sink)),
    ];
    configs
        .into_iter()
        .map(|(disabled, rules)| {
            let suite = t2_suite(tech);
            let mut cov_sum = 0.0;
            let mut unresolved = 0usize;
            let n = suite.len();
            for item in suite {
                let flow = tv_flow::analyze(&item.circuit.netlist, &rules);
                let r = flow.report(&item.circuit.netlist);
                cov_sum += r.coverage();
                unresolved += r.unresolved;
            }
            A2Row {
                disabled,
                coverage: cov_sum / n as f64,
                unresolved,
            }
        })
        .collect()
}

/// One row of the A3 adder-architecture table.
#[derive(Debug, Clone)]
pub struct A3Row {
    /// Adder width, bits.
    pub width: usize,
    /// Ripple-carry (NAND full adders) carry-out arrival, ns.
    pub ripple_ns: f64,
    /// Manchester chain-end arrival, unbuffered, ns.
    pub manchester_ns: f64,
    /// Manchester with a chain buffer every 4 bits, ns.
    pub manchester_buf_ns: f64,
}

/// A3: adder architecture comparison — the design-exploration use case a
/// timing verifier existed for. Ripple carry is static NAND logic; the
/// Manchester chain is a precharged pass chain (quadratic unbuffered,
/// linear when buffered every 4 bits).
pub fn a3_adder_architectures(tech: &Tech, widths: &[usize]) -> Vec<A3Row> {
    widths
        .iter()
        .map(|&width| {
            let opts = AnalysisOptions::default();
            let ripple = tv_gen::adder::ripple_carry_adder(tech.clone(), width);
            let ripple_ns = Analyzer::new(&ripple.netlist)
                .run(&opts)
                .arrival(ripple.output)
                .expect("carry out reachable");
            let mdelay = |buffer_every: usize| {
                let m = tv_gen::manchester::manchester_adder(tech.clone(), width, buffer_every);
                let report = Analyzer::new(&m.netlist).run(&opts);
                report
                    .phase(0)
                    .expect("phase 0 ran")
                    .result
                    .arrival(*m.chain.last().expect("width > 0"))
                    .expect("chain end reachable")
            };
            A3Row {
                width,
                ripple_ns,
                manchester_ns: mdelay(0),
                manchester_buf_ns: mdelay(4),
            }
        })
        .collect()
}

/// One row of the T6 process-scaling table.
#[derive(Debug, Clone)]
pub struct T6Row {
    /// Circuit name.
    pub name: &'static str,
    /// Critical delay in the 4 µm process, ns.
    pub nmos4_ns: f64,
    /// Critical delay in the scaled 2 µm process, ns.
    pub nmos2_ns: f64,
}

impl T6Row {
    /// Speedup factor from scaling.
    pub fn speedup(&self) -> f64 {
        self.nmos4_ns / self.nmos2_ns
    }
}

/// T6: first-order process scaling — the same topologies re-analyzed in
/// the hypothetical λ = 1 µm process. Constant-voltage nMOS scaling
/// halves gate *area* per function while areal oxide capacitance doubles,
/// so self-loaded logic speeds up ~2× while fixed external loads don't
/// scale — exactly the discussion every early-80s paper closed with.
pub fn t6_process_scaling(widths_datapath: DatapathConfig) -> Vec<T6Row> {
    let opts = AnalysisOptions::default();
    let delay_of = |tech: Tech, which: &str| -> f64 {
        match which {
            "inv-chain-8" => {
                let c = tv_gen::chains::inverter_chain(tech, 8, 2);
                Analyzer::new(&c.netlist)
                    .run(&opts)
                    .arrival(c.output)
                    .expect("reachable")
            }
            "adder-8" => {
                let c = tv_gen::adder::ripple_carry_adder(tech, 8);
                Analyzer::new(&c.netlist)
                    .run(&opts)
                    .arrival(c.output)
                    .expect("reachable")
            }
            "datapath" => {
                let dp = datapath(tech, widths_datapath);
                Analyzer::new(&dp.netlist).run(&opts).phases[0]
                    .result
                    .critical_arrival()
                    .expect("phase arrivals")
            }
            other => unreachable!("unknown workload {other}"),
        }
    };
    ["inv-chain-8", "adder-8", "datapath"]
        .into_iter()
        .map(|name| T6Row {
            name,
            nmos4_ns: delay_of(Tech::nmos4um(), name),
            nmos2_ns: delay_of(Tech::nmos2um(), name),
        })
        .collect()
}

/// One row of the parallel-scaling table: the levelized engine (graph
/// construction plus arrival propagation for the combinational case and
/// both clock phases) timed at one worker count.
#[derive(Debug, Clone)]
pub struct ParallelScalingRow {
    /// Worker threads used for graph build and propagation.
    pub jobs: usize,
    /// Graph-construction time summed over the three cases, ms.
    pub build_ms: f64,
    /// Propagation time summed over the three cases, ms.
    pub propagate_ms: f64,
    /// Work-span speedup of the whole engine at this worker count,
    /// projected from the measured serial build/propagate split and the
    /// structural parallelism of each stage. Graph construction chunks
    /// thousands of independent stage roots evenly, so its span is
    /// `work / jobs`; propagation's span charges each level of width
    /// `w ≥ PAR_MIN_WIDTH` only `ceil(w / jobs)` node evaluations while
    /// narrow levels and the cyclic residue stay serial — exactly the
    /// engine's dispatch policy. This is the speedup the engine
    /// *exposes*, reachable wall-clock on a host with that many free
    /// cores (the wall column can't show it on a single-core machine).
    pub modeled_speedup: f64,
}

impl ParallelScalingRow {
    /// Combined engine time, ms.
    pub fn total_ms(&self) -> f64 {
        self.build_ms + self.propagate_ms
    }

    /// Speedup of this row relative to `baseline` (normally jobs = 1).
    pub fn speedup_over(&self, baseline: &ParallelScalingRow) -> f64 {
        baseline.total_ms() / self.total_ms()
    }
}

/// Parallel scaling of the levelized timing engine on a generated
/// datapath. For each requested worker count the three analysis cases
/// (combinational, φ1, φ2) are rebuilt and re-propagated `iters` times
/// with exactly the analyzer's case setup; the fastest run is kept.
/// Every run is also asserted **bit-identical** to the single-worker
/// arrivals — the engine's determinism claim, enforced at the same place
/// the speedup is measured.
pub fn parallel_scaling(
    tech: &Tech,
    config: DatapathConfig,
    jobs_list: &[usize],
    iters: usize,
) -> Vec<ParallelScalingRow> {
    use tv_clocks::latch::find_latches;
    use tv_clocks::qualify::qualify_with_flow;
    use tv_core::{
        external_sources, phase_endpoints, phase_sources, propagate_with, PhaseCase, PhaseResult,
        TimingGraph, SOURCE_RESISTANCE,
    };

    let dp = datapath(tech.clone(), config);
    let nl = &dp.netlist;
    let opts = AnalysisOptions::default();
    let flow = tv_flow::analyze(nl, &opts.rules);
    let qual = qualify_with_flow(nl, &flow);
    let latches = find_latches(nl, &flow, &qual);

    let mut cases = vec![(
        PhaseCase::all_active(),
        external_sources(nl),
        nl.outputs().to_vec(),
    )];
    for p in 0..2u8 {
        cases.push((
            PhaseCase::phase(p),
            phase_sources(nl, &latches, p),
            phase_endpoints(nl, &latches, p),
        ));
    }

    let run = |jobs: usize| -> (f64, f64, Vec<PhaseResult>) {
        let mut results = Vec::with_capacity(cases.len());
        let (mut build_ms, mut prop_ms) = (0.0, 0.0);
        for (case, sources, endpoints) in &cases {
            let t0 = Instant::now();
            let graph = TimingGraph::build_par(
                nl,
                &flow,
                &qual,
                *case,
                opts.model,
                SOURCE_RESISTANCE,
                jobs,
            );
            build_ms += t0.elapsed().as_secs_f64() * 1e3;
            let t1 = Instant::now();
            results.push(propagate_with(
                nl,
                &graph,
                sources,
                endpoints,
                &opts.slope,
                jobs,
            ));
            prop_ms += t1.elapsed().as_secs_f64() * 1e3;
        }
        (build_ms, prop_ms, results)
    };

    // Propagation's span fraction under the engine's dispatch policy:
    // a level of width `w ≥ PAR_MIN_WIDTH` costs `ceil(w / j)` node
    // evaluations on the critical worker, narrower levels and the
    // cyclic residue stay serial.
    let schedules: Vec<tv_core::LevelSchedule> = cases
        .iter()
        .map(|(case, _, _)| {
            TimingGraph::build_par(nl, &flow, &qual, *case, opts.model, SOURCE_RESISTANCE, 1)
                .schedule
        })
        .collect();
    let prop_span_fraction = |jobs: usize| -> f64 {
        let j = jobs.max(1);
        let (mut work, mut span) = (0usize, 0usize);
        for s in &schedules {
            for l in 0..s.levels() {
                let w = s.level(l).len();
                work += w;
                span += if w < tv_core::PAR_MIN_WIDTH {
                    w
                } else {
                    w.div_ceil(j)
                };
            }
            work += s.residue.len();
            span += s.residue.len();
        }
        span as f64 / work.max(1) as f64
    };

    let _ = run(1); // warm-up: page in the netlist and allocator
    let (base_build, base_prop, baseline) = run(1);
    // Project the whole-engine speedup from the measured serial split:
    // graph build chunks its (thousands of) independent stage roots
    // evenly, so its span is work / j; propagation follows the level
    // schedule above.
    let modeled = |jobs: usize| -> f64 {
        let j = jobs.max(1) as f64;
        (base_build + base_prop) / (base_build / j + base_prop * prop_span_fraction(jobs))
    };
    let same = |x: Option<f64>, y: Option<f64>| match (x, y) {
        (None, None) => true,
        (Some(a), Some(b)) => a.to_bits() == b.to_bits(),
        _ => false,
    };

    jobs_list
        .iter()
        .map(|&jobs| {
            let mut best: Option<ParallelScalingRow> = None;
            for _ in 0..iters.max(1) {
                let (build_ms, propagate_ms, results) = run(jobs);
                for (b, g) in baseline.iter().zip(&results) {
                    assert_eq!(b.cyclic, g.cyclic, "cyclic flag differs at jobs={jobs}");
                    for id in nl.node_ids() {
                        assert!(
                            same(b.arrivals.rise(id), g.arrivals.rise(id))
                                && same(b.arrivals.fall(id), g.arrivals.fall(id)),
                            "arrivals differ from serial at jobs={jobs}"
                        );
                    }
                }
                let row = ParallelScalingRow {
                    jobs,
                    build_ms,
                    propagate_ms,
                    modeled_speedup: modeled(jobs),
                };
                if best.as_ref().is_none_or(|b| row.total_ms() < b.total_ms()) {
                    best = Some(row);
                }
            }
            best.expect("iters >= 1")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Tech {
        Tech::nmos4um()
    }

    #[test]
    fn t2_rows_cover_suite() {
        let rows = t2_flow_resolution(&tech());
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.coverage > 0.9, "{} coverage {}", r.name, r.coverage);
        }
    }

    #[test]
    fn t3_finds_carry_chain() {
        let r = t3_critical_paths(&tech(), DatapathConfig::small(), 5);
        assert_eq!(r.phases.len(), 2);
        assert!(r.min_cycle > 0.0);
        // The longest φ1 path should run through the ALU (carry chain) —
        // check the worst path is dozens of steps, not a single stage.
        let (_, _, paths) = &r.phases[0];
        assert!(!paths.is_empty());
    }

    #[test]
    fn t4_sweep_is_monotone() {
        let r = t4_clock_analysis(&tech(), DatapathConfig::small(), &[20.0, 60.0, 200.0]);
        assert!(r.naive_cyclic, "naive mode must hit the datapath loop");
        assert!(r.min_cycle > 0.0);
        // Larger cycles never lose feasibility.
        let mut seen_feasible = false;
        for row in &r.rows {
            if seen_feasible {
                assert!(row.feasible, "feasibility must be monotone in cycle");
            }
            seen_feasible |= row.feasible;
        }
    }

    #[test]
    fn t5_runtime_grows_with_size() {
        let rows = t5_scaling(&tech(), &[200, 800]);
        assert_eq!(rows.len(), 2);
        assert!(rows[1].devices > rows[0].devices);
    }

    #[test]
    fn f1_static_is_quadratic_and_buffering_helps() {
        let pts = f1_pass_chain(&tech(), &[2, 4, 8], 3, false);
        let growth_small = pts[1].raw_ns - pts[0].raw_ns;
        let growth_large = pts[2].raw_ns - pts[1].raw_ns;
        assert!(
            growth_large > 1.5 * growth_small,
            "raw chain must accelerate: {growth_small} vs {growth_large}"
        );
        assert!(pts[2].buffered_ns < pts[2].raw_ns);
    }

    #[test]
    fn f2_rise_exceeds_fall_and_grows_with_load() {
        let pts = f2_rise_fall(&tech(), &[0.1, 0.4], false);
        for p in &pts {
            assert!(p.rise_ns > 2.0 * p.fall_ns, "ratioed asymmetry");
        }
        assert!(pts[1].rise_ns > pts[0].rise_ns);
        assert!(pts[1].fall_ns > pts[0].fall_ns);
    }

    #[test]
    fn f3_histogram_counts_all_endpoints() {
        let hists = f3_slack_histogram(&tech(), DatapathConfig::small(), 400.0, 8);
        assert_eq!(hists.len(), 2);
        for h in &hists {
            assert_eq!(h.counts.iter().sum::<usize>(), h.total);
            assert_eq!(h.edges.len(), h.counts.len() + 1);
        }
    }

    #[test]
    fn a1_model_ordering_holds() {
        for row in a1_model_ablation(&tech(), false) {
            assert!(
                row.elmore_ns <= row.upper_ns + 1e-9,
                "{}: elmore {} > upper {}",
                row.name,
                row.elmore_ns,
                row.upper_ns
            );
        }
    }

    #[test]
    fn a2_full_rules_dominate() {
        let rows = a2_rule_ablation(&tech());
        let full = rows[0].coverage;
        for r in &rows[1..] {
            assert!(
                r.coverage <= full + 1e-12,
                "disabling {:?} should not raise coverage",
                r.disabled
            );
        }
    }

    #[test]
    fn parallel_scaling_rows_are_well_formed() {
        // A small datapath keeps the test fast; the bit-identity check
        // inside parallel_scaling is the real assertion.
        let rows = parallel_scaling(&tech(), DatapathConfig::small(), &[1, 2], 1);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].jobs, 1);
        assert_eq!(rows[1].jobs, 2);
        for r in &rows {
            assert!(r.total_ms() > 0.0);
            assert!(r.speedup_over(&rows[0]).is_finite());
        }
    }
}
