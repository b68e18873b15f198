//! Warm session queries against cold references.
//!
//! A session answers `analyze`, `paths` and `flow` from its pass
//! pipeline's slots: the analyze reply is read off the kept case
//! results (its fingerprint re-hashed only when a pass re-ran), `paths`
//! propagates over the cached all-active graph, and `flow` reads the
//! flow slot — each only while the slots reflect the current design
//! revision, with a cold fallback otherwise. This suite replays seeded
//! scripts mixing parametric and structural edits, no-op analyzes and
//! queries (some issued between an edit and its analyze, so both the
//! warm path and the fallback answer) on `demo small` and `demo mips32`
//! at `--jobs` 1/2/8, and checks every reply against a reference built
//! from scratch:
//!
//! * `analyze`: `report_fingerprint` and the reply figures of a cold
//!   `Analyzer::run` of the session's netlist;
//! * `paths`: `TimingGraph::build` + `propagate` + `backtrack` on the
//!   all-active view;
//! * `flow`: `tv_flow::analyze` + `flow_fingerprint`.
//!
//! The transcripts must also be byte-identical across job counts.

use nmos_tv::clocks::qualify::qualify_with_flow;
use nmos_tv::core::paths::backtrack;
use nmos_tv::core::propagate::Edge;
use nmos_tv::core::{
    flow_fingerprint, propagate, report_fingerprint, AnalysisOptions, Analyzer, PhaseCase,
    TimingGraph, TimingReport, SOURCE_RESISTANCE,
};
use nmos_tv::gen::rng::Rng64;
use nmos_tv::netlist::{Netlist, NodeId, DEFAULT_MAX_ERRORS};
use nmos_tv::session::Session;

fn options(jobs: usize) -> AnalysisOptions {
    AnalysisOptions {
        jobs,
        ..AnalysisOptions::default()
    }
}

fn json_f64(v: f64) -> String {
    format!("{v}")
}

fn json_opt_f64(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => json_f64(x),
        _ => "null".into(),
    }
}

/// The reply a session must give to `analyze`, up to its pass trace.
fn analyze_reference(nl: &Netlist, revision: u64) -> String {
    let report = Analyzer::new(nl).run(&options(1));
    format!(
        r#"{{"ok":true,"cmd":"analyze","revision":{},"fingerprint":"{:#018x}","complete":{},"latches":{},"checks":{},"min_cycle":{},"critical":{},"passes":["#,
        revision,
        report_fingerprint(nl, &report),
        report.is_complete(),
        report.latches.len(),
        report.checks.len(),
        json_opt_f64(report.min_cycle),
        json_opt_f64(critical_reference(&report)),
    )
}

/// The latest critical arrival over the walked cases: each phase case
/// on a clocked design (the all-active case is not walked there), the
/// all-active case otherwise.
fn critical_reference(report: &TimingReport) -> Option<f64> {
    if report.phases.is_empty() {
        return report.combinational.critical_arrival();
    }
    report
        .phases
        .iter()
        .filter_map(|p| p.result.critical_arrival())
        .reduce(f64::max)
}

/// The reply a session must give to `paths <from> <to>`.
fn paths_reference(nl: &Netlist, from: &str, to: &str) -> String {
    let opts = options(1);
    let (f, t) = (node(nl, from), node(nl, to));
    let flow = nmos_tv::flow::analyze(nl, &opts.rules);
    let qual = qualify_with_flow(nl, &flow);
    let graph = TimingGraph::build(
        nl,
        &flow,
        &qual,
        PhaseCase::all_active(),
        opts.model,
        SOURCE_RESISTANCE,
    );
    let result = propagate(nl, &graph, &[f], &[t], &opts.slope);
    let path = result
        .arrivals
        .worst_edge(t)
        .and_then(|edge| backtrack(&graph, &result.arrivals, t, edge));
    let Some(path) = path else {
        return format!(
            r#"{{"ok":false,"code":"TV0602","error":"{to} is not reachable from {from}"}}"#
        );
    };
    let steps: Vec<String> = path
        .steps
        .iter()
        .map(|s| {
            format!(
                r#"{{"node":"{}","edge":"{}","at":{}}}"#,
                nl.node_name(s.node),
                match s.edge {
                    Edge::Rise => "rise",
                    Edge::Fall => "fall",
                },
                json_f64(s.at)
            )
        })
        .collect();
    format!(
        r#"{{"ok":true,"cmd":"paths","from":"{}","to":"{}","arrival":{},"steps":[{}]}}"#,
        from,
        to,
        json_f64(path.arrival()),
        steps.join(",")
    )
}

/// The reply a session must give to `flow`.
fn flow_reference(nl: &Netlist) -> String {
    let flow = nmos_tv::flow::analyze(nl, &options(1).rules);
    let r = flow.report(nl);
    format!(
        r#"{{"ok":true,"cmd":"flow","devices":{},"pass_devices":{},"oriented":{},"bidirectional":{},"unresolved":{},"stages":{},"fingerprint":"{:#018x}"}}"#,
        r.devices,
        r.pass_devices,
        r.oriented,
        r.bidirectional,
        r.unresolved,
        r.stages,
        flow_fingerprint(nl, &flow)
    )
}

fn node(nl: &Netlist, name: &str) -> NodeId {
    nl.node_by_name(name)
        .unwrap_or_else(|| panic!("no node {name:?}"))
}

/// Query pairs: node pairs along the cold run's critical paths and from
/// inputs to outputs, keeping every pair a cold query answers and three
/// it does not (the reply must say so too).
fn query_pairs(nl: &Netlist) -> Vec<(String, String)> {
    let opts = options(1);
    let report = Analyzer::new(nl).run(&opts);
    let mut candidates: Vec<(NodeId, NodeId)> = Vec::new();
    // A clocked design's all-active case is not walked and has no paths,
    // so its pairs come from the phase cases' paths.
    let paths = report
        .combinational_paths
        .iter()
        .chain(report.phases.iter().flat_map(|p| &p.paths));
    // On clocked designs the all-active view `paths` queries is cyclic,
    // and only pairs downstream of every loop answer: the steps just
    // before each endpoint come first.
    for p in paths.filter(|p| p.len() >= 2).take(8) {
        let (n, last) = (p.len(), p.endpoint());
        let tail = (2..n.min(4) + 1).map(|k| (p.steps[n - k].node, last));
        candidates.extend(tail.chain([(p.steps[0].node, last), (last, p.steps[0].node)]));
    }
    for &i in nl.inputs().iter().take(6) {
        candidates.extend(nl.outputs().iter().take(6).map(|&o| (i, o)));
    }
    let analyzer = Analyzer::new(nl);
    let (reachable, unreachable): (Vec<_>, Vec<_>) = candidates
        .into_iter()
        .partition(|&(a, b)| analyzer.path_query(a, b, &opts).is_some());
    assert!(!reachable.is_empty(), "no candidate pair is reachable");
    reachable
        .into_iter()
        .chain(unreachable.into_iter().take(3))
        .map(|(a, b)| (nl.node_name(a).to_string(), nl.node_name(b).to_string()))
        .collect()
}

/// A seeded session script over the design `demo` loads: parametric and
/// structural edits (an added transistor in parallel with an existing
/// one, later removed), analyzes (some of them no-ops), and `paths` and
/// `flow` queries, some issued before the pending edit is analyzed.
fn script(demo: &str, seed: u64, steps: usize) -> Vec<String> {
    let mut s = Session::new(options(1), DEFAULT_MAX_ERRORS);
    s.eval(&format!("demo {demo}")).expect("demo replies");
    let nl = s.design().expect("demo loaded").netlist().clone();
    let devices: Vec<(String, [String; 3])> = nl
        .devices()
        .map(|d| {
            let dev = d.device;
            let name = |n: NodeId| nl.node_name(n).to_string();
            (
                dev.name().to_string(),
                [name(dev.gate()), name(dev.source()), name(dev.drain())],
            )
        })
        .collect();
    let nodes: Vec<String> = nl
        .node_ids()
        .filter(|&i| !nl.node(i).role().is_rail())
        .map(|i| nl.node_name(i).to_string())
        .collect();
    let pairs = query_pairs(&nl);

    let mut rng = Rng64::new(seed);
    let mut lines = vec![format!("demo {demo}"), "analyze".to_string()];
    let mut added: Option<String> = None;
    for k in 0..steps {
        let roll = rng.f64();
        let edit = if roll < 0.3 {
            let (dev, _) = &devices[rng.usize_range(0, devices.len())];
            let w = rng.usize_inclusive(2, 8);
            Some(format!("edit resize {dev} {w} 2"))
        } else if roll < 0.5 {
            let n = &nodes[rng.usize_range(0, nodes.len())];
            let pf = 0.01 * rng.usize_inclusive(1, 20) as f64;
            Some(format!("edit setcap {n} {pf}"))
        } else if roll < 0.6 {
            Some(match added.take() {
                Some(name) => format!("edit rmdev {name}"),
                None => {
                    let (_, [g, src, drn]) = &devices[rng.usize_range(0, devices.len())];
                    let name = format!("warm_add{k}");
                    added = Some(name.clone());
                    format!("edit adddev {name} e {g} {src} {drn} 4 2")
                }
            })
        } else {
            None
        };
        match edit {
            Some(e) => {
                lines.push(e);
                // Most edits are analyzed at once; the rest leave the
                // slots stale for the queries that follow.
                if rng.bool(0.7) {
                    lines.push("analyze".into());
                }
            }
            None if roll < 0.72 => lines.push("analyze".into()),
            None if roll < 0.9 => {
                let (a, b) = &pairs[rng.usize_range(0, pairs.len())];
                lines.push(format!("paths {a} {b}"));
            }
            None => lines.push("flow".into()),
        }
    }
    lines.push("analyze".into());
    lines
}

/// Replays `lines` at `jobs` and returns the transcript; with `check`,
/// every `analyze`, `paths` and `flow` reply is compared against its
/// cold reference.
fn replay(lines: &[String], jobs: usize, check: bool) -> Vec<String> {
    let mut s = Session::new(options(jobs), DEFAULT_MAX_ERRORS);
    let mut transcript = Vec::new();
    for line in lines {
        let (reply, ok) = s.eval(line).expect("every line is a command");
        let nl = s.design().expect("a design is loaded").netlist();
        let verb = line.split_whitespace().next().unwrap_or_default();
        if verb != "paths" {
            assert!(ok, "{line}: {reply}");
        }
        if check {
            match verb {
                "analyze" => {
                    let revision = s.design().expect("loaded").revision().0;
                    let want = analyze_reference(nl, revision);
                    assert!(
                        reply.starts_with(&want),
                        "{line} at revision {revision}:\n got {reply}\nwant {want}..."
                    );
                }
                "paths" => {
                    let mut it = line.split_whitespace().skip(1);
                    let (a, b) = (it.next().unwrap(), it.next().unwrap());
                    assert_eq!(reply, paths_reference(nl, a, b), "{line}");
                }
                "flow" => assert_eq!(reply, flow_reference(nl), "{line}"),
                _ => {}
            }
        }
        transcript.push(reply);
    }
    transcript
}

fn check_design(demo: &str, seed: u64, steps: usize) {
    let lines = script(demo, seed, steps);
    for verb in ["analyze", "paths", "flow", "edit adddev", "edit rmdev"] {
        assert!(
            lines.iter().any(|l| l.starts_with(verb)),
            "seed {seed} draws no {verb:?} line"
        );
    }
    assert!(
        lines
            .windows(2)
            .any(|w| w[0] == "analyze" && w[1] == "analyze"),
        "seed {seed} draws no no-op analyze"
    );
    // Both query paths must be exercised: from the warm slots, and from
    // the cold fallback while an edit is still unanalyzed.
    let (mut warm, mut stale, mut pending) = (0, 0, false);
    for l in &lines {
        if l.starts_with("edit ") {
            pending = true;
        } else if l == "analyze" {
            pending = false;
        } else if l.starts_with("paths") || l == "flow" {
            *(if pending { &mut stale } else { &mut warm }) += 1;
        }
    }
    assert!(
        warm > 0 && stale > 0,
        "seed {seed}: {warm} warm, {stale} stale queries"
    );
    let reference = replay(&lines, 1, true);
    assert!(
        reference
            .iter()
            .any(|r| r.starts_with(r#"{"ok":true,"cmd":"paths""#)),
        "seed {seed}: no query path was reachable"
    );
    for jobs in [2, 8] {
        assert_eq!(
            reference,
            replay(&lines, jobs, false),
            "{demo} seed {seed}: transcript differs at --jobs {jobs}"
        );
    }
}

#[test]
fn warm_small_session_matches_cold_references_at_every_job_count() {
    for seed in [11, 12] {
        check_design("small", seed, 60);
    }
}

#[test]
fn warm_mips32_session_matches_cold_references_at_every_job_count() {
    check_design("mips32", 21, 60);
}
