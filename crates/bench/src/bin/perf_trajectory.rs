//! Machine-readable perf trajectory: a fixed smoke suite over the
//! acceptance benchmarks (analyzer scaling, flow resolution, parallel
//! propagation, and the P4 session suite), appended as a labeled run to
//! `BENCH_TRAJECTORY.json` so CI and future PRs can compare against a
//! committed baseline instead of eyeballing tables — and so the history
//! of runs accumulates instead of each PR's file silently superseding
//! the last (BENCH_4.json replaced BENCH_3.json; never again).
//!
//! Usage:
//!   perf_trajectory --out BENCH_TRAJECTORY.json --label pr5-obs [--at-scale]
//!                                               # run suite, append a run
//!   perf_trajectory --check BENCH_TRAJECTORY.json
//!                                               # fail on >2x regression
//!                                               # vs the *latest* run
//!   perf_trajectory --check BENCH_TRAJECTORY.json --threshold 3.0
//!
//! Each bench entry carries `name`, `input_size` (devices), `ns_per_op`
//! (median), `min_ns` (fastest iteration), `peak_rss_kb` (the bench's
//! own peak resident set, see [`peak_rss_kb`]), and `counters` — the
//! deterministic `tv_obs` work counters from **one instrumented run**
//! performed after the timed loop, so the timing numbers are always
//! measured with instrumentation disabled. The JSON is hand-rolled (the
//! workspace is dependency-free) with one bench object per line, and
//! read back with `tv_obs::json`, so the file stays both greppable and
//! strictly parseable.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use tv_bench::experiments::parallel_scaling;
use tv_bench::harness::bench;
use tv_core::{AnalysisOptions, Analyzer, TimingReport};
use tv_flow::RuleSet;
use tv_gen::datapath::DatapathConfig;
use tv_gen::random::{random_logic, RandomMix};
use tv_gen::workload::t2_suite;
use tv_netlist::Tech;
use tv_obs::json::Value;
use tv_obs::Counter;

/// One measured benchmark: label, workload size in devices, median and
/// fastest ns/op, plus the deterministic work counters from a single
/// instrumented (untimed) run. The median is the reported figure; the
/// min is what the regression gate compares, because on
/// microsecond-scale benches the median of a noisy run can swing 2x
/// while the min stays put — gating `current min > threshold × baseline
/// median` can only produce false passes, never false failures.
struct Entry {
    name: String,
    input_size: usize,
    ns_per_op: f64,
    min_ns: f64,
    iters: usize,
    /// Peak resident set (VmHWM, kB) over this bench — setup, timed
    /// loop and counted run — when the run's `peak_rss` scope is
    /// per-bench; the process's running peak in older runs. 0 where
    /// procfs is unavailable or in pre-P9 runs.
    peak_rss_kb: u64,
    counters: Vec<(String, u64)>,
}

/// Whether every high-water-mark reset of this run succeeded, so each
/// entry's `peak_rss_kb` is that bench's own peak.
static PEAK_RESETS_OK: AtomicBool = AtomicBool::new(true);

/// `peak_rss` scope of a run whose every reset succeeded.
const PEAK_PER_BENCH: &str = "per-bench";

/// Restarts the kernel's resident-set high-water mark at the current
/// resident size (writing `5` to `/proc/self/clear_refs`). A failed
/// write leaves the lifetime mark in place and marks the run's peaks
/// as running maxima.
fn reset_peak_rss() {
    if std::fs::write("/proc/self/clear_refs", "5").is_err() {
        PEAK_RESETS_OK.store(false, Ordering::Relaxed);
    }
}

/// Peak resident set size in kB since the previous reading, from the
/// `VmHWM` line of `/proc/self/status` — no dependency, no syscall
/// wrapper — then resets the mark for the next bench. Call it once per
/// bench, after the bench's counted run, so each entry records its own
/// peak (setup included) rather than the suite's running maximum. The
/// mark restarts at the resident size, so memory the allocator still
/// holds from an earlier bench counts toward the next one. If a
/// reset fails the figure degrades to the running maximum and the run
/// says so in its `peak_rss` field. Returns 0 where procfs is missing
/// (non-Linux).
fn peak_rss_kb() -> u64 {
    let peak = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().strip_suffix("kB"))
                .and_then(|n| n.trim().parse().ok())
        })
        .unwrap_or(0);
    reset_peak_rss();
    peak
}

/// One labeled suite execution: the unit the trajectory file appends.
struct Run {
    label: String,
    /// What the entries' `peak_rss_kb` measures: [`PEAK_PER_BENCH`], or
    /// a note that the figures are running maxima. `None` in runs
    /// recorded before schema 4, whose peaks are all running maxima.
    peak_rss: Option<String>,
    benches: Vec<Entry>,
}

/// The deterministic counters worth recording per bench entry: the work
/// plane (workload-intrinsic and jobs-invariant — warm runs taking the
/// demand-driven cone path legitimately record less than cold ones)
/// plus the flow fixpoint and graph-size telemetry, which are equally
/// deterministic for a fixed input. Timing-plane spans never appear
/// here.
const KEPT_COUNTERS: [Counter; 23] = [
    Counter::PropagateRelaxations,
    Counter::PropagateResiduePops,
    Counter::PropagateNodes,
    Counter::PropagateCases,
    Counter::ConeSeeds,
    Counter::ConeNodes,
    Counter::ConeFallbacks,
    Counter::FlowSweeps,
    Counter::FlowWorklistPops,
    Counter::GraphArcs,
    Counter::IngestChunks,
    Counter::IngestBytes,
    Counter::IngestPrescanSyms,
    Counter::IngestReallocs,
    Counter::MacroClasses,
    Counter::MacroAnalyzed,
    Counter::MacroInstanced,
    Counter::MacroDesplit,
    Counter::ServeAccepted,
    Counter::ServeRejected,
    Counter::ServeActivePeak,
    Counter::ServeRequests,
    Counter::ServeRetries,
];

/// Relaxations over every walked case of a report: the all-active
/// case's, and each phase's (on a clocked design under case analysis the
/// all-active case is not walked). Benches return it so the timed
/// analysis is not optimized away.
fn relaxations(report: &TimingReport) -> usize {
    report.combinational.relaxations
        + report
            .phases
            .iter()
            .map(|p| p.result.relaxations)
            .sum::<usize>()
}

/// Runs `f` once with the counter plane enabled and returns the nonzero
/// kept counters it incremented. Called *after* the timed loop so
/// instrumentation cost never contaminates `ns_per_op`.
fn counted<R>(mut f: impl FnMut() -> R) -> Vec<(String, u64)> {
    tv_obs::counters::set_enabled(true);
    let before = tv_obs::snapshot();
    std::hint::black_box(f());
    let delta = tv_obs::snapshot().since(&before);
    tv_obs::counters::set_enabled(false);
    KEPT_COUNTERS
        .iter()
        .map(|&c| (c.name().to_string(), delta.get(c)))
        .filter(|&(_, v)| v != 0)
        .collect()
}

/// Runs the fixed smoke suite. Sizes are chosen so the whole suite
/// finishes in a few seconds in release mode — this runs inside
/// `scripts/verify.sh`, so it has to stay cheap. `at_scale` adds the
/// million-device T6 ingest benches (tens of seconds; run manually when
/// appending a trajectory run, never inside the verify gate).
fn run_suite(at_scale: bool) -> Vec<Entry> {
    let tech = Tech::nmos4um();
    let mut out = Vec::new();
    reset_peak_rss();

    // Analyzer scaling (the T5 bench, smoke sizes).
    for target in [1_600usize, 6_400] {
        let circuit = random_logic(tech.clone(), target, 0xC0FFEE, RandomMix::default());
        let devices = circuit.netlist.device_count();
        let mut work = || {
            Analyzer::new(&circuit.netlist)
                .run(&AnalysisOptions::default())
                .flow_report
                .devices
        };
        let s = bench(&format!("scaling/random-{target}"), 10, &mut work);
        let counters = counted(&mut work);
        out.push(Entry {
            name: s.name,
            input_size: devices,
            ns_per_op: s.median_ms * 1e6,
            min_ns: s.min_ms * 1e6,
            iters: s.iters,
            peak_rss_kb: peak_rss_kb(),
            counters,
        });
    }

    // Flow direction-resolution fixpoint (the T2 bench, full suite —
    // each item is microseconds).
    for item in t2_suite(&tech) {
        let devices = item.circuit.netlist.device_count();
        let mut work = || tv_flow::analyze(&item.circuit.netlist, &RuleSet::all()).sweeps();
        let s = bench(&format!("flow/{}", item.name), 50, &mut work);
        let counters = counted(&mut work);
        out.push(Entry {
            name: s.name,
            input_size: devices,
            ns_per_op: s.median_ms * 1e6,
            min_ns: s.min_ms * 1e6,
            iters: s.iters,
            peak_rss_kb: peak_rss_kb(),
            counters,
        });
    }

    // Serial graph build + propagation on the MIPS-class datapath (the
    // P1 bench at jobs=1: the single-thread cost the parallel speedups
    // are measured against). The timed figure comes from the scaling
    // harness; the counters from one instrumented single-thread analyze
    // of the same netlist.
    let cfg = DatapathConfig::mips32();
    let dp_netlist = tv_gen::datapath::datapath(tech.clone(), cfg).netlist;
    let devices = dp_netlist.device_count();
    let rows = parallel_scaling(&tech, cfg, &[1], 5);
    let counters =
        counted(|| relaxations(&Analyzer::new(&dp_netlist).run(&AnalysisOptions::default())));
    out.push(Entry {
        name: "propagate/mips32-jobs1".to_string(),
        input_size: devices,
        ns_per_op: rows[0].total_ms() * 1e6,
        min_ns: rows[0].total_ms() * 1e6,
        iters: 5,
        peak_rss_kb: peak_rss_kb(),
        counters,
    });

    out.extend(session_suite(&tech));
    // The million-device ingest benches run last: the allocator keeps
    // much of their memory resident after they finish, and a per-bench
    // peak starts from the resident size at its reset.
    out.extend(serve_suite(&tech));
    out.extend(ingest_suite(&tech, at_scale));

    out
}

/// The P10 serving suite: an in-process `tv serve` on a loopback port,
/// hammered by the loadgen at 8 concurrent clients over the same
/// demo-small workload the chaos serve sweep uses, plus an
/// admission-rejection exercise against a one-slot server. The
/// percentile entries carry the loadgen's p50/p95/p99 directly
/// (ns_per_op == min_ns — there is no median-of-iterations here), and
/// all `serve/*` entries are exempt from the min-vs-median regression
/// ratio in `check`: wall-clock through a socket under concurrency is
/// too noisy for a 2x gate. The latency promise is pinned instead by
/// `check_serve_latency` — p99 must stay under 20x the warm
/// single-edit median of the *same* run.
fn serve_suite(tech: &Tech) -> Vec<Entry> {
    use tv_serve::client;
    use tv_serve::loadgen::{run_loadgen, LoadgenConfig};
    use tv_serve::server::{serve_tcp, ServeConfig};

    let mut out = Vec::new();
    let devices = tv_gen::datapath::datapath(tech.clone(), DatapathConfig::small())
        .netlist
        .device_count();
    let script: Vec<String> = [
        "demo small",
        "analyze",
        "edit resize pu_wq0 6 2",
        "analyze",
        "flow",
        "revision",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    let handle = serve_tcp("127.0.0.1:0", ServeConfig::default()).expect("bind loopback");
    let cfg = LoadgenConfig {
        clients: 8,
        repeat: 3,
        ..LoadgenConfig::default()
    };
    let report = run_loadgen(handle.endpoint(), &script, &cfg).expect("loadgen run");
    assert_eq!(report.failed, 0, "loadgen workload must be all-ok");
    // One instrumented (untimed) pass records the serve.* counters.
    let counters = counted(|| {
        let counted_cfg = LoadgenConfig {
            clients: 2,
            repeat: 1,
            tenant_prefix: "counted-".into(),
            ..LoadgenConfig::default()
        };
        run_loadgen(handle.endpoint(), &script, &counted_cfg)
            .expect("counted loadgen run")
            .requests
    });
    handle.stop();
    let iters = report.requests as usize;
    // One loadgen run backs all three percentile entries.
    let peak = peak_rss_kb();
    for (name, ns, counters) in [
        ("serve/loadgen-c8", report.p50_ns, counters),
        ("serve/loadgen-c8-p95", report.p95_ns, Vec::new()),
        ("serve/loadgen-c8-p99", report.p99_ns, Vec::new()),
    ] {
        out.push(Entry {
            name: name.to_string(),
            input_size: devices,
            ns_per_op: ns as f64,
            min_ns: ns as f64,
            iters,
            peak_rss_kb: peak,
            counters,
        });
    }

    // Admission rejection, provably: a one-slot server with the slot
    // held must answer every further hello with the typed busy frame
    // (and count it), never stall or silently drop.
    let tiny = serve_tcp(
        "127.0.0.1:0",
        ServeConfig {
            max_sessions: 1,
            ..ServeConfig::default()
        },
    )
    .expect("bind one-slot server");
    let mut hold = tiny.endpoint().connect().expect("connect holder");
    client::handshake(&mut hold, "holder", tv_proto::Limits::default()).expect("holder admitted");
    let mut reject = || {
        let mut s = tiny.endpoint().connect().expect("connect prober");
        match client::handshake(&mut s, "prober", tv_proto::Limits::default()) {
            Err(client::ClientError::Refused { code, .. }) => {
                assert_eq!(code, tv_proto::codes::BUSY, "refusal must be typed busy");
                1usize
            }
            other => panic!("one-slot server admitted a second session: {other:?}"),
        }
    };
    let s = bench("serve/admission-reject", 10, &mut reject);
    let counters = counted(&mut reject);
    out.push(Entry {
        name: s.name,
        input_size: devices,
        ns_per_op: s.median_ms * 1e6,
        min_ns: s.min_ms * 1e6,
        iters: s.iters,
        peak_rss_kb: peak_rss_kb(),
        counters,
    });
    drop(hold);
    tiny.stop();

    out
}

/// The P8 ingest suite: the serial T5-scale parse (always — it is the
/// figure the 1.5x gate in `check` pins), the electrical checks and the
/// cold three-case analysis on the same netlist, plus, at scale, the
/// million-device T6 multi-core design with the parse/build/checks/
/// propagate split measured separately at jobs=1 and its whole cold
/// analysis.
fn ingest_suite(tech: &Tech, at_scale: bool) -> Vec<Entry> {
    use tv_clocks::latch::find_latches;
    use tv_clocks::qualify::qualify_with_flow;
    use tv_core::{
        check_electrical, external_sources, propagate_with, PhaseCase, TimingGraph,
        SOURCE_RESISTANCE,
    };
    use tv_gen::mips_mc::{t6_mips_mc, MILLION_DEVICE_CORES};
    use tv_netlist::{sim_format, Diagnostics};

    let mut out = Vec::new();
    let entry =
        |s: tv_bench::harness::Sample, devices: usize, counters: Vec<(String, u64)>| Entry {
            name: s.name,
            input_size: devices,
            ns_per_op: s.median_ms * 1e6,
            min_ns: s.min_ms * 1e6,
            iters: s.iters,
            peak_rss_kb: peak_rss_kb(),
            counters,
        };

    // Serial T5-scale parse: pre-scan + zero-realloc ingest of the same
    // 102k-device random-logic text the T5 scaling experiment uses.
    let t5 = random_logic(tech.clone(), 102_400, 0xC0FFEE, RandomMix::default());
    let text = sim_format::write(&t5.netlist);
    let devices = t5.netlist.device_count();
    let mut work = || {
        let mut diags = Diagnostics::new();
        sim_format::parse_recovering(&text, tech.clone(), &mut diags)
            .expect("T5 round-trip parses")
            .device_count()
    };
    let s = bench("ingest/t5-parse-serial", 5, &mut work);
    out.push(entry(s, devices, counted(&mut work)));

    // Electrical checks on the same netlist, flow and qualification
    // precomputed. The pass must stay linear in the pull-down networks:
    // any per-stage O(nodes) cost makes it quadratic, which this gates.
    let flow = tv_flow::analyze(&t5.netlist, &RuleSet::all());
    let qual = qualify_with_flow(&t5.netlist, &flow);
    let mut checks_work = || check_electrical(&t5.netlist, &flow, &qual).len();
    let s = bench("checks/t5-102k", 5, &mut checks_work);
    out.push(entry(s, devices, counted(&mut checks_work)));

    // The cold three-case analysis of the same netlist: flow, clocks,
    // the all-active and both phase graphs, arrivals, checks. Random
    // logic changes no build root under φ1, so that case reads the
    // all-active graph instead of building its own.
    let opts = AnalysisOptions::default();
    let mut analyze_work = || Analyzer::new(&t5.netlist).run(&opts).phases.len();
    let s = bench("analyze/t5-102k", 5, &mut analyze_work);
    out.push(entry(s, devices, counted(&mut analyze_work)));

    if !at_scale {
        return out;
    }

    // The million-device workload, end to end: generate T6, serialize,
    // then time each ingest/analysis stage once (a single iteration is
    // tens-of-milliseconds to seconds per stage — far above timer noise).
    let mc = t6_mips_mc(tech.clone(), MILLION_DEVICE_CORES);
    let text = sim_format::write(&mc.netlist);
    let nl = &mc.netlist;
    let devices = nl.device_count();

    let mut parse_work = || {
        let mut diags = Diagnostics::new();
        sim_format::parse_recovering(&text, tech.clone(), &mut diags)
            .expect("T6 round-trip parses")
            .device_count()
    };
    let s = bench("ingest/t6-1m-parse", 1, &mut parse_work);
    out.push(entry(s, devices, counted(&mut parse_work)));

    let opts = AnalysisOptions::default();
    let case = PhaseCase::all_active();
    let mut build_work = || {
        let flow = tv_flow::analyze(nl, &opts.rules);
        let qual = qualify_with_flow(nl, &flow);
        let _latches = find_latches(nl, &flow, &qual);
        TimingGraph::build_par(nl, &flow, &qual, case, opts.model, SOURCE_RESISTANCE, 1)
            .schedule
            .levels()
    };
    let s = bench("ingest/t6-1m-build", 1, &mut build_work);
    out.push(entry(s, devices, counted(&mut build_work)));

    let flow = tv_flow::analyze(nl, &opts.rules);
    let qual = qualify_with_flow(nl, &flow);
    let mut checks_work = || check_electrical(nl, &flow, &qual).len();
    let s = bench("ingest/t6-1m-checks", 1, &mut checks_work);
    out.push(entry(s, devices, counted(&mut checks_work)));

    let graph = TimingGraph::build_par(nl, &flow, &qual, case, opts.model, SOURCE_RESISTANCE, 1);
    let sources = external_sources(nl);
    let endpoints = nl.outputs().to_vec();
    let mut prop_work =
        || propagate_with(nl, &graph, &sources, &endpoints, &opts.slope, 1).relaxations;
    let s = bench("ingest/t6-1m-propagate", 1, &mut prop_work);
    out.push(entry(s, devices, counted(&mut prop_work)));
    drop(graph);

    // The whole cold analysis at scale: every phase case re-signs only
    // the roots it can change.
    let mut analyze_work = || Analyzer::new(nl).run(&opts).phases.len();
    let s = bench("ingest/t6-1m-analyze", 1, &mut analyze_work);
    out.push(entry(s, devices, counted(&mut analyze_work)));

    out
}

/// The P4 session suite: cold one-shot analysis vs warm pass-pipeline
/// re-analysis after each edit kind, plus the 100-edit session loop,
/// all on the MIPS-class datapath. The cold figure does what one `tv
/// analyze` invocation does — parse the `.sim` text, analyze, render
/// the report — and the warm figures include the edit itself and the
/// full re-analysis (splice or rebuild, propagation, paths, checks) —
/// exactly what one `analyze` reply costs a session. The last two
/// entries time whole session requests: a no-op `analyze` and a
/// `paths` query.
fn session_suite(tech: &Tech) -> Vec<Entry> {
    use tv_core::PassManager;
    use tv_netlist::{sim_format, Design, DeviceKind};

    let mut out = Vec::new();
    let dp = tv_gen::datapath::datapath(tech.clone(), DatapathConfig::mips32());
    let devices = dp.netlist.device_count();
    let opts = AnalysisOptions::default();
    let entry = |s: tv_bench::harness::Sample, counters: Vec<(String, u64)>| Entry {
        name: s.name,
        input_size: devices,
        ns_per_op: s.median_ms * 1e6,
        min_ns: s.min_ms * 1e6,
        iters: s.iters,
        peak_rss_kb: peak_rss_kb(),
        counters,
    };

    let sim_text = sim_format::write(&dp.netlist);
    let mut cold = || {
        let parsed = sim_format::parse(&sim_text, tech.clone()).expect("round-trip");
        let report = Analyzer::new(&parsed).run(&opts);
        report.render(&parsed).len()
    };
    let s = bench("session/mips32-cold", 10, &mut cold);
    out.push(entry(s, counted(&mut cold)));

    let mut cold_analyze = || relaxations(&Analyzer::new(&dp.netlist).run(&opts));
    let s = bench("session/mips32-cold-analyze-only", 10, &mut cold_analyze);
    out.push(entry(s, counted(&mut cold_analyze)));

    let mut design = Design::new(dp.netlist.clone());
    let mut pm = PassManager::new();
    pm.analyze(&design, &opts);

    let probe = design
        .netlist()
        .devices()
        .nth(devices / 2)
        .expect("mid-array device");
    let dev = probe.id;
    let (gate, src, drain) = (
        probe.device.gate(),
        probe.device.source(),
        probe.device.drain(),
    );
    let cap_node = *design.netlist().outputs().first().expect("an output");

    let mut flip = false;
    let mut resize = |design: &mut Design, pm: &mut PassManager| {
        flip = !flip;
        let w = if flip { 6.0 } else { 4.0 };
        design.resize_device(dev, w, 2.0).expect("resize");
        relaxations(&pm.analyze(design, &opts))
    };
    let s = bench("session/mips32-warm-resize", 20, || {
        resize(&mut design, &mut pm)
    });
    out.push(entry(s, counted(|| resize(&mut design, &mut pm))));

    let mut flip = false;
    let mut setcap = |design: &mut Design, pm: &mut PassManager| {
        flip = !flip;
        let pf = if flip { 0.08 } else { 0.05 };
        design.set_node_cap(cap_node, pf).expect("setcap");
        relaxations(&pm.analyze(design, &opts))
    };
    let s = bench("session/mips32-warm-setcap", 20, || {
        setcap(&mut design, &mut pm)
    });
    out.push(entry(s, counted(|| setcap(&mut design, &mut pm))));

    let adddev = |design: &mut Design, pm: &mut PassManager| {
        let (id, _) = design
            .add_device(
                "bench_dev",
                DeviceKind::Enhancement,
                gate,
                src,
                drain,
                4.0,
                2.0,
            )
            .expect("adddev");
        design.remove_device(id);
        relaxations(&pm.analyze(design, &opts))
    };
    let s = bench("session/mips32-warm-adddev", 5, || {
        adddev(&mut design, &mut pm)
    });
    out.push(entry(s, counted(|| adddev(&mut design, &mut pm))));

    let mut flip = false;
    let mut retech = |design: &mut Design, pm: &mut PassManager| {
        flip = !flip;
        let t = if flip {
            Tech::nmos2um()
        } else {
            Tech::nmos4um()
        };
        design.retech(t);
        relaxations(&pm.analyze(design, &opts))
    };
    let s = bench("session/mips32-warm-retech", 5, || {
        retech(&mut design, &mut pm)
    });
    out.push(entry(s, counted(|| retech(&mut design, &mut pm))));

    // Leave the design back on its home technology before the loop.
    design.retech(tech.clone());
    pm.analyze(&design, &opts);

    let all_devs: Vec<_> = design.netlist().devices().map(|d| d.id).collect();
    let cap_nodes: Vec<_> = design.netlist().outputs().to_vec();
    let edit_loop = |design: &mut Design, pm: &mut PassManager| {
        let mut acc = 0usize;
        for i in 0..100usize {
            if i % 20 == 19 {
                // Structural: a parallel transistor appears and goes away.
                let (id, _) = design
                    .add_device(
                        "bench_dev",
                        DeviceKind::Enhancement,
                        gate,
                        src,
                        drain,
                        4.0,
                        2.0,
                    )
                    .expect("adddev");
                design.remove_device(id);
            } else if i % 2 == 0 {
                let d = all_devs[(i * 37) % all_devs.len()];
                design
                    .resize_device(d, 4.0 + (i % 3) as f64, 2.0)
                    .expect("resize");
            } else {
                let n = cap_nodes[(i * 13) % cap_nodes.len()];
                design
                    .set_node_cap(n, 0.05 + (i % 5) as f64 * 0.01)
                    .expect("setcap");
            }
            acc += relaxations(&pm.analyze(design, &opts));
        }
        acc
    };
    let s = bench("session/edit-loop-100", 3, || {
        edit_loop(&mut design, &mut pm)
    });
    out.push(entry(s, counted(|| edit_loop(&mut design, &mut pm))));

    // The session protocol's warm requests, through `Session::eval` as
    // `tv session` answers them: a no-op `analyze` (every pass reused,
    // the reply read off the pass slots) and a `paths` query over the
    // cached all-active graph, between the endpoint of a φ1 critical
    // path and the node before it (downstream of every all-active loop).
    let mut session = tv_serve::session::Session::new(opts.clone(), tv_netlist::DEFAULT_MAX_ERRORS);
    // A session turns the counter plane on; the timed loops run with it
    // off, like every other bench here.
    tv_obs::counters::set_enabled(false);
    let mut eval = move |line: &str| {
        let (reply, ok) = session.eval(line).expect("a command replies");
        assert!(ok, "{line}: {reply}");
        reply.len()
    };
    eval("demo mips32");
    eval("analyze");
    let mut noop = || eval("analyze");
    let s = bench("session/mips32-noop", 200, &mut noop);
    out.push(entry(s, counted(&mut noop)));

    let query = {
        let report = Analyzer::new(&dp.netlist).run(&opts);
        let p = &report.phases[0].paths[0];
        let name = |n| dp.netlist.node_name(n).to_string();
        format!(
            "paths {} {}",
            name(p.steps[p.len() - 2].node),
            name(p.endpoint())
        )
    };
    let mut paths = || eval(&query);
    let s = bench("session/mips32-paths", 50, &mut paths);
    out.push(entry(s, counted(&mut paths)));

    out
}

fn write_json(runs: &[Run]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"tv-bench-trajectory/4\",\n");
    s.push_str(
        "  \"unit\": \"ns_per_op is the median of `iters` timed runs; counters are \
         deterministic tv_obs work from one instrumented run; peak_rss_kb is each bench's \
         own peak in runs whose peak_rss is per-bench, the running process peak otherwise \
         (every run before schema 4)\",\n",
    );
    s.push_str("  \"runs\": [\n");
    for (r, run) in runs.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"label\": \"{}\",\n", run.label));
        if let Some(scope) = &run.peak_rss {
            s.push_str(&format!("      \"peak_rss\": \"{scope}\",\n"));
        }
        s.push_str("      \"benches\": [\n");
        for (i, e) in run.benches.iter().enumerate() {
            let counters = if e.counters.is_empty() {
                String::new()
            } else {
                let body: Vec<String> = e
                    .counters
                    .iter()
                    .map(|(k, v)| format!("\"{k}\": {v}"))
                    .collect();
                format!(", \"counters\": {{ {} }}", body.join(", "))
            };
            s.push_str(&format!(
                "        {{ \"name\": \"{}\", \"input_size\": {}, \"ns_per_op\": {:.1}, \"min_ns\": {:.1}, \"iters\": {}, \"peak_rss_kb\": {}{} }}{}\n",
                e.name,
                e.input_size,
                e.ns_per_op,
                e.min_ns,
                e.iters,
                e.peak_rss_kb,
                counters,
                if i + 1 < run.benches.len() { "," } else { "" }
            ));
        }
        s.push_str("      ]\n");
        s.push_str(&format!(
            "    }}{}\n",
            if r + 1 < runs.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Reads a trajectory file back into runs, via the strict `tv_obs`
/// JSON parser. Accepts both the current `runs` schema and the flat v1
/// `benches` shape (a single unlabeled run), so a v1 baseline can be
/// appended to in place.
fn load_runs(text: &str) -> Result<Vec<Run>, String> {
    let root = tv_obs::json::parse(text)?;
    let runs_of = |v: &Value| -> Result<Vec<Entry>, String> {
        let arr = v.as_arr().ok_or("\"benches\" is not an array")?;
        arr.iter().map(load_entry).collect()
    };
    if let Some(runs) = root.get("runs") {
        let arr = runs.as_arr().ok_or("\"runs\" is not an array")?;
        arr.iter()
            .map(|r| {
                let label = r
                    .get("label")
                    .and_then(Value::as_str)
                    .ok_or("run without a string \"label\"")?
                    .to_string();
                let peak_rss = r
                    .get("peak_rss")
                    .and_then(Value::as_str)
                    .map(str::to_string);
                let benches = runs_of(r.get("benches").ok_or("run without \"benches\"")?)?;
                Ok(Run {
                    label,
                    peak_rss,
                    benches,
                })
            })
            .collect()
    } else if let Some(benches) = root.get("benches") {
        Ok(vec![Run {
            label: "pre-trajectory".to_string(),
            peak_rss: None,
            benches: runs_of(benches)?,
        }])
    } else {
        Err("neither \"runs\" nor \"benches\" at top level".to_string())
    }
}

fn load_entry(v: &Value) -> Result<Entry, String> {
    let s = |k: &str| {
        v.get(k)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or(format!("bench without string \"{k}\""))
    };
    let n = |k: &str| {
        v.get(k)
            .and_then(Value::as_num)
            .ok_or(format!("bench without numeric \"{k}\""))
    };
    // Keep counters in registry order so a re-rendered file diffs
    // cleanly against a freshly written one.
    let mut counters = Vec::new();
    if let Some(Value::Obj(map)) = v.get("counters") {
        for c in tv_obs::counters::ALL {
            if let Some(x) = map.get(c.name()).and_then(Value::as_num) {
                counters.push((c.name().to_string(), x as u64));
            }
        }
    }
    Ok(Entry {
        name: s("name")?,
        input_size: n("input_size")? as usize,
        ns_per_op: n("ns_per_op")?,
        min_ns: n("min_ns")?,
        iters: n("iters")? as usize,
        peak_rss_kb: n("peak_rss_kb").unwrap_or(0.0) as u64,
        counters,
    })
}

fn check(entries: &[Entry], baseline_path: &str, threshold: f64) -> ExitCode {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perf_trajectory: cannot read baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let runs = match load_runs(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perf_trajectory: bad baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The gate compares against the *latest* appended run; earlier runs
    // are history, kept for the trajectory tables in EXPERIMENTS.md.
    let Some(baseline) = runs.last() else {
        eprintln!("perf_trajectory: no runs found in {baseline_path}");
        return ExitCode::FAILURE;
    };
    println!(
        "\n{:<28} {:>14} {:>14} {:>8}  vs {}x gate (baseline run \"{}\")",
        "bench", "baseline ns", "current min", "ratio", threshold, baseline.label
    );
    let mut failed = false;
    for e in entries {
        // Socket latency under concurrency is too noisy for the ratio
        // gate; serve/* is pinned by `check_serve_latency` instead.
        if e.name.starts_with("serve/") {
            println!(
                "{:<28} {:>14} {:>14.0}   (serve — gated by the p99 bound below)",
                e.name, "-", e.ns_per_op
            );
            continue;
        }
        let Some(base) = baseline.benches.iter().find(|b| b.name == e.name) else {
            println!(
                "{:<28} {:>14} {:>14.0}   (new — no baseline)",
                e.name, "-", e.ns_per_op
            );
            continue;
        };
        // Gate on the current run's *fastest* iteration vs the baseline
        // median (see `Entry`): immune to one-sided scheduler noise.
        let gate = gate_threshold(&e.name, threshold);
        let ratio = e.min_ns / base.ns_per_op;
        let verdict = if ratio > gate {
            failed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        let tighter = if gate < threshold {
            format!("  ({gate}x gate)")
        } else {
            String::new()
        };
        println!(
            "{:<28} {:>14.0} {:>14.0} {:>7.2}x  {}{}",
            e.name, base.ns_per_op, e.min_ns, ratio, verdict, tighter
        );
    }
    if let Err(msg) = check_cone_work(entries) {
        eprintln!("perf_trajectory: {msg}");
        failed = true;
    }
    if let Err(msg) = check_macro_sharing(&runs) {
        eprintln!("perf_trajectory: {msg}");
        failed = true;
    }
    if let Err(msg) = check_serve_latency(entries) {
        eprintln!("perf_trajectory: {msg}");
        failed = true;
    }
    if let Err(msg) = check_build_peak(entries, &runs) {
        eprintln!("perf_trajectory: {msg}");
        failed = true;
    }
    if failed {
        eprintln!("perf_trajectory: regression beyond {threshold}x of committed baseline");
        ExitCode::FAILURE
    } else {
        println!("perf_trajectory: within {threshold}x of baseline");
        ExitCode::SUCCESS
    }
}

/// Per-bench gate override: the serial T5 parse is the PR 8 headline
/// figure, pinned tighter (1.5x) than the general suite gate so the
/// pre-scanned ingest path cannot silently drift back toward the old
/// allocate-per-line cost.
fn gate_threshold(name: &str, default: f64) -> f64 {
    if name == "ingest/t5-parse-serial" {
        default.min(1.5)
    } else {
        default
    }
}

/// Counter gate on the current run: the demand-driven cone must keep
/// the warm mips32 resize's relaxation work well clear of the cold
/// analyze count. The counters are deterministic, so this gate has no
/// noise margin — a warm count within 2x of cold means the cone engine
/// stopped engaging (fell back to the full walk) and is a regression.
fn check_cone_work(entries: &[Entry]) -> Result<(), String> {
    let relax_of = |name: &str| -> Option<u64> {
        entries
            .iter()
            .find(|e| e.name == name)?
            .counters
            .iter()
            .find(|(k, _)| k == Counter::PropagateRelaxations.name())
            .map(|&(_, v)| v)
    };
    let (Some(cold), Some(warm)) = (
        relax_of("session/mips32-cold-analyze-only"),
        relax_of("session/mips32-warm-resize"),
    ) else {
        // Counter-less entries (an old-format file) can't be gated.
        return Ok(());
    };
    println!(
        "{:<28} {:>14} {:>14} {:>7.2}x  cone work gate (must stay under 0.50x)",
        "warm-resize relaxations",
        cold,
        warm,
        warm as f64 / cold as f64
    );
    if warm * 2 >= cold {
        return Err(format!(
            "warm mips32 resize does {warm} relaxations, within 2x of the cold count {cold}: \
             the cone engine is not engaging"
        ));
    }
    Ok(())
}

/// Serving-latency gate on the current run: the loadgen's p99 latency
/// at 8 concurrent clients must stay under 20x the warm single-edit
/// analyze median from the same run. Both figures move with the host,
/// so the ratio is host-independent: it fails only when the serving
/// plane itself (framing, admission, queueing across 8 sessions) adds
/// more than an order of magnitude over the engine work it wraps.
fn check_serve_latency(entries: &[Entry]) -> Result<(), String> {
    let ns_of = |name: &str| entries.iter().find(|e| e.name == name).map(|e| e.ns_per_op);
    let (Some(p99), Some(warm)) = (
        ns_of("serve/loadgen-c8-p99"),
        ns_of("session/mips32-warm-resize"),
    ) else {
        return Ok(());
    };
    println!(
        "{:<28} {:>14.0} {:>14.0} {:>7.2}x  serve p99 gate (must stay under 20x warm edit)",
        "serve loadgen p99",
        warm,
        p99,
        p99 / warm
    );
    if p99 >= 20.0 * warm {
        return Err(format!(
            "serve loadgen p99 {p99:.0} ns is >= 20x the warm single-edit median {warm:.0} ns: \
             the serving plane is adding more than an order of magnitude over the engine"
        ));
    }
    Ok(())
}

/// The `peak_rss` scope of the run just measured.
fn current_peak_scope() -> String {
    if PEAK_RESETS_OK.load(Ordering::Relaxed) {
        PEAK_PER_BENCH.to_string()
    } else {
        "running (clear_refs unavailable: each entry is the process peak so far)".to_string()
    }
}

/// Bound on the at-scale T6 build's own peak against the latest
/// committed per-bench reading of it.
const BUILD_PEAK_BOUND: f64 = 1.25;

/// Memory gate on the current run (at-scale runs only): the
/// million-device T6 graph build's own peak resident set must stay
/// within [`BUILD_PEAK_BOUND`] of the latest committed run that
/// recorded it per bench. The build is jobs=1 and its inputs are fixed,
/// so its peak moves only with the graph layout — this is what pins
/// the 16-byte arc and shared delay-row layout (DESIGN.md §9). Skipped
/// when either side's peak is a running maximum.
fn check_build_peak(entries: &[Entry], runs: &[Run]) -> Result<(), String> {
    const NAME: &str = "ingest/t6-1m-build";
    let Some(current) = entries.iter().find(|e| e.name == NAME) else {
        return Ok(());
    };
    if !PEAK_RESETS_OK.load(Ordering::Relaxed) {
        println!("{NAME:<28} peak gate skipped: this run's peaks are running maxima");
        return Ok(());
    }
    let Some((label, base)) = runs.iter().rev().find_map(|r| {
        (r.peak_rss.as_deref() == Some(PEAK_PER_BENCH))
            .then(|| r.benches.iter().find(|b| b.name == NAME))
            .flatten()
            .map(|b| (&r.label, b))
    }) else {
        println!("{NAME:<28} peak gate skipped: no committed per-bench reading");
        return Ok(());
    };
    let ratio = current.peak_rss_kb as f64 / base.peak_rss_kb.max(1) as f64;
    println!(
        "{:<28} {:>14} {:>14} {:>7.2}x  build peak kB gate (run \"{}\", must stay under {}x)",
        NAME, base.peak_rss_kb, current.peak_rss_kb, ratio, label, BUILD_PEAK_BOUND
    );
    if ratio > BUILD_PEAK_BOUND {
        return Err(format!(
            "{NAME} peaked at {} kB, {ratio:.2}x the {} kB of run \"{label}\" \
             (bound {BUILD_PEAK_BOUND}x): the graph build's memory grew",
            current.peak_rss_kb, base.peak_rss_kb
        ));
    }
    Ok(())
}

/// Hierarchical-extraction gate on the committed trajectory: in the
/// latest run carrying the at-scale T6 build bench, the macromodel
/// extractor must have analyzed fewer than 10% of the stages it
/// covered (`macro.analyzed` against `macro.analyzed +
/// macro.instanced`, which together count every root once). The T6
/// multi-core design is replication-heavy by construction, so losing
/// the sharing there means the canonical-trace class key broke — a
/// determinism bug, not a tuning matter. Runs without
/// the at-scale bench (the verify-gate smoke suite, pre-P9 history)
/// are not gated.
fn check_macro_sharing(runs: &[Run]) -> Result<(), String> {
    let Some((label, bench)) = runs.iter().rev().find_map(|r| {
        r.benches
            .iter()
            .find(|b| b.name == "ingest/t6-1m-build")
            .map(|b| (&r.label, b))
    }) else {
        return Ok(());
    };
    let get = |c: Counter| {
        bench
            .counters
            .iter()
            .find(|(k, _)| k == c.name())
            .map(|&(_, v)| v)
    };
    let (Some(analyzed), Some(instanced)) =
        (get(Counter::MacroAnalyzed), get(Counter::MacroInstanced))
    else {
        return Ok(());
    };
    let total = analyzed + instanced;
    println!(
        "{:<28} {:>14} {:>14} {:>7.2}%  macro sharing gate (run \"{}\", must stay under 10%)",
        "t6 stages analyzed",
        total,
        analyzed,
        100.0 * analyzed as f64 / total.max(1) as f64,
        label
    );
    if analyzed * 10 >= total {
        return Err(format!(
            "run \"{label}\": hierarchical extraction analyzed {analyzed} of {total} T6 stages \
             (>= 10%): stage dedup is not engaging"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut label: Option<String> = None;
    let mut threshold = 2.0f64;
    let mut at_scale = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--at-scale" => {
                at_scale = true;
                i += 1;
            }
            "--out" => {
                out_path = args.get(i + 1).cloned();
                i += 2;
            }
            "--check" => {
                check_path = args.get(i + 1).cloned();
                i += 2;
            }
            "--label" => {
                label = args.get(i + 1).cloned();
                i += 2;
            }
            "--threshold" => {
                threshold = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(threshold);
                i += 2;
            }
            other => {
                eprintln!("perf_trajectory: unknown argument {other}");
                eprintln!(
                    "usage: perf_trajectory [--out FILE --label NAME] [--check FILE] [--threshold X] [--at-scale]"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if out_path.is_none() && check_path.is_none() {
        eprintln!(
            "usage: perf_trajectory [--out FILE --label NAME] [--check FILE] [--threshold X] [--at-scale]"
        );
        return ExitCode::FAILURE;
    }

    let entries = run_suite(at_scale);

    if let Some(path) = &out_path {
        // Append, never supersede: keep every prior run in the file.
        let mut runs = match std::fs::read_to_string(path) {
            Ok(text) => match load_runs(&text) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("perf_trajectory: refusing to overwrite {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(_) => Vec::new(),
        };
        runs.push(Run {
            label: label.unwrap_or_else(|| "dev".to_string()),
            peak_rss: Some(current_peak_scope()),
            benches: entries,
        });
        let json = write_json(&runs);
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("perf_trajectory: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "wrote {path} ({} runs, latest \"{}\")",
            runs.len(),
            runs.last().expect("just pushed").label
        );
    } else if let Some(path) = &check_path {
        return check(&entries, path, threshold);
    }
    ExitCode::SUCCESS
}
