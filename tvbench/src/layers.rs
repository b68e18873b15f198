//! The traced run's per-layer measurements.
//!
//! - The **ledger** takes one cold analysis apart: it times
//!   `Analyzer::run` whole, then calls each layer's public entry point in
//!   turn on the same netlist. Whatever the layers do not add up to is
//!   `ledger.unattributed_frac`.
//! - The **probe** replays a command stream three ways side by side (a bare
//!   `PassManager` over a `Design`, an in-process `Session`, one served
//!   connection) so the differences between them attribute a warm edit's
//!   latency to the pipeline, the session reply and the wire.
//!
//! Both time calls from outside the program; neither adds spans inside
//! it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use crate::interactive::{final_fingerprint, start, step, Client, Tally, Way};
use crate::report::Outcome;
use crate::stats::median;
use crate::stream::{Class, Exchange, Inputs, Request};
use crate::sut::{self, Counter, Netlist};
use crate::trace::{self, Tracer};
use crate::workload::{Config, Workload};

/// The tracing overhead: the median traced share of the work over the
/// median untraced one, minus one. `f(traced)` does one share and
/// returns its milliseconds; each of `rounds` rounds runs shares
/// untraced, traced, traced, untraced, so drift falls on both sides
/// alike, and the medians keep a slow first share (a cold heap) from
/// deciding the sign.
pub fn overhead(
    rounds: usize,
    mut f: impl FnMut(bool) -> Result<f64, String>,
) -> Result<f64, String> {
    let mut ms = [Vec::new(), Vec::new()];
    for _ in 0..rounds {
        for traced in [false, true, true, false] {
            ms[usize::from(traced)].push(f(traced)?);
        }
    }
    match ms.each_ref().map(|v| median(v)) {
        [Some(plain), Some(traced)] if plain > 0.0 => Ok(traced / plain - 1.0),
        _ => Err("no untraced work to compare the traced run with".into()),
    }
}

/// Work counts of one cold analysis; they repeat exactly, so the first
/// ledger pass's stand.
struct Counts {
    reallocs: u64,
    report_bytes: usize,
    pops: u64,
    arcs: u64,
    relax: u64,
    analyzed: u64,
    instanced: u64,
    issues: usize,
}

/// The layers `Analyzer::run` is made of, by metric name.
const ANALYSIS_LAYERS: [&str; 9] = [
    "flow.analyze_ms",
    "clocks.qualify_ms",
    "clocks.latches_ms",
    "graph.build_ms",
    "propagate.ms",
    "paths.ms",
    "hold.ms",
    "checks.ms",
    "assemble.ms",
];

/// One cold analysis of `text`: parse, `Analyzer::run` whole and its
/// render, then each layer of the analysis on its own. Appends each
/// layer's milliseconds to `times` under its metric name.
fn ledger_pass(
    tr: &mut Tracer,
    text: &str,
    pass: u64,
    times: &mut BTreeMap<&'static str, Vec<f64>>,
) -> Result<Counts, String> {
    let mut t = |name: &'static str, ms: f64| times.entry(name).or_default().push(ms);
    let top = tr.open("ledger", pass);
    let c = sut::snapshot();
    let (parsed, ms) = tr.time("netlist.parse", pass, || sut::parse_sim(text));
    let reallocs = sut::counter_delta(&c, Counter::IngestReallocs);
    let nl = match parsed {
        Ok(nl) => nl,
        Err(e) => {
            tr.close(top);
            return Err(format!("ledger parse: {e}"));
        }
    };
    t("netlist.parse_ms", ms);
    let (report, ms) = tr.time("analyzer.run", pass, || sut::analyze(&nl));
    t("analyzer.run_ms", ms);
    let (report_bytes, ms) = tr.time("report.render", pass, || sut::render(&report, &nl).len());
    t("report.render_ms", ms);
    drop(report);

    let c = sut::snapshot();
    let (flow, ms) = tr.time("flow.analyze", pass, || sut::flow(&nl));
    t("flow.analyze_ms", ms);
    let pops = sut::counter_delta(&c, Counter::FlowWorklistPops);
    let (qual, ms) = tr.time("clocks.qualify", pass, || sut::qualify(&nl, &flow));
    t("clocks.qualify_ms", ms);
    let (latches, ms) = tr.time("clocks.latches", pass, || sut::latches(&nl, &flow, &qual));
    t("clocks.latches_ms", ms);
    let c = sut::snapshot();
    let mut case_ms = [0.0; 4];
    for case in sut::cases(&nl) {
        let (g, ms) = tr.time("graph.build", pass, || sut::graph(&nl, &flow, &qual, case));
        case_ms[0] += ms;
        let (r, ms) = tr.time("propagate", pass, || {
            sut::propagate(&nl, &g, &latches, case)
        });
        case_ms[1] += ms;
        let paths = || black_box(sut::critical_paths(&g, &r));
        case_ms[2] += tr.time("paths.critical", pass, paths).1;
        if let Some(p) = case {
            let races = || sut::race_check(&nl, &g, &latches, p);
            case_ms[3] += tr.time("hold.race_check", pass, races).1;
        }
    }
    for (name, ms) in ["graph.build_ms", "propagate.ms", "paths.ms", "hold.ms"]
        .into_iter()
        .zip(case_ms)
    {
        t(name, ms);
    }
    let delta = |k| sut::counter_delta(&c, k);
    let (arcs, relax) = (
        delta(Counter::GraphArcs),
        delta(Counter::PropagateRelaxations),
    );
    let (analyzed, instanced) = (
        delta(Counter::MacroAnalyzed),
        delta(Counter::MacroInstanced),
    );
    let (checks, ms) = tr.time("checks.electrical", pass, || sut::checks(&nl, &flow, &qual));
    t("checks.ms", ms);
    let assemble = || sut::assemble(&nl, &flow, &checks);
    t("assemble.ms", tr.time("report.assemble", pass, assemble).1);
    tr.close(top);
    Ok(Counts {
        reallocs,
        report_bytes,
        pops,
        arcs,
        relax,
        analyzed,
        instanced,
        issues: checks.len(),
    })
}

/// Times cold analyses of `text` whole and layer by layer, repeating
/// for about `seconds` (at most 200 passes) and reporting each layer's
/// median: the whole and the parts are separate executions, so only
/// many passes make their difference steadier than host noise.
pub fn ledger(tr: &mut Tracer, text: &str, seconds: f64, out: &mut Outcome) {
    sut::counters_on(true);
    let start = Instant::now();
    let mut times = BTreeMap::new();
    let mut counts = None;
    for pass in 0..200 {
        if counts.is_some() && start.elapsed().as_secs_f64() > seconds {
            break;
        }
        match ledger_pass(tr, text, pass, &mut times) {
            Ok(c) => {
                counts.get_or_insert(c);
            }
            Err(e) => return out.fail(e),
        }
    }
    let Some(c) = counts else { return };
    let med = |name: &str| median(&times[name]).unwrap_or(0.0);
    for (name, samples) in &times {
        out.metric(name, med(name), samples.len());
    }
    let parse_s = med("netlist.parse_ms") / 1e3;
    out.metric(
        "netlist.parse_mb_per_s",
        text.len() as f64 / 1e6 / parse_s,
        1,
    );
    out.metric("flow.worklist_pops", c.pops as f64, 1);
    out.metric("graph.arcs", c.arcs as f64, 1);
    let shared = c.analyzed as f64 / (c.analyzed + c.instanced).max(1) as f64;
    out.metric("macro.analyzed_frac", shared, 1);
    out.metric("propagate.relaxations", c.relax as f64, 1);
    out.metric("checks.issues", c.issues as f64, 1);
    out.metric("report.bytes", c.report_bytes as f64, 1);
    let attributed: f64 = ANALYSIS_LAYERS.iter().map(|l| med(l)).sum();
    let unattributed = 1.0 - attributed / med("analyzer.run_ms");
    out.metric(
        "ledger.unattributed_frac",
        unattributed,
        times["analyzer.run_ms"].len(),
    );
    out.extra("ingest.reallocs", c.reallocs as f64, "count", 1);
    if c.reallocs > 0 {
        out.fail(format!(
            "ingest reallocated {} times; it must pre-size exactly",
            c.reallocs
        ));
    }
}

/// The design the probe edits, and the command that loads it into a
/// session.
pub struct ProbeDesign {
    setup: String,
    nl: Netlist,
}

impl ProbeDesign {
    /// The mips32 datapath, loaded with `demo mips32`.
    pub fn demo(nl: Netlist) -> ProbeDesign {
        ProbeDesign {
            setup: sut::MIPS32_DEMO.into(),
            nl,
        }
    }

    /// `nl` written to a file in `dir` for the session's `load`. The
    /// netlist kept is the file parsed back, so edit targets carry the
    /// device names the session will see.
    pub fn from_file(nl: &Netlist, dir: &Path, name: &str) -> Result<ProbeDesign, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{name}.probe.sim"));
        let text = sut::write_sim(nl);
        std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
        let path = path
            .to_str()
            .filter(|p| !p.contains(char::is_whitespace))
            .ok_or("the probe file's path must be UTF-8 without spaces")?;
        Ok(ProbeDesign {
            setup: format!("load {path}"),
            nl: sut::parse_sim(&text)?,
        })
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// A bare `PassManager` over a `Design`: what a session does per
/// request, minus parsing the command and rendering the reply.
struct Pipeline {
    design: sut::Design,
    pm: sut::PassManager,
    samples: [Vec<f64>; 4],
    fingerprint_ms: Vec<f64>,
    query_ms: Vec<f64>,
    passes_rerun: Vec<f64>,
    warm_relax: Vec<f64>,
    cold_relax: f64,
    fallbacks: u64,
}

impl Pipeline {
    /// Loads `nl` and analyzes it cold.
    fn new(tr: &mut Tracer, nl: &Netlist) -> Pipeline {
        let design = sut::design(nl.clone());
        let mut pm = sut::pipeline();
        let c = sut::snapshot();
        tr.time("pipeline.analyze", 0, || {
            sut::pipeline_analyze(&mut pm, &design)
        });
        Pipeline {
            design,
            pm,
            samples: Default::default(),
            fingerprint_ms: Vec::new(),
            query_ms: Vec::new(),
            passes_rerun: Vec::new(),
            warm_relax: Vec::new(),
            cold_relax: sut::counter_delta(&c, Counter::PropagateRelaxations) as f64,
            fallbacks: 0,
        }
    }

    /// One step, each exchange timed as one sample of its class. The
    /// counters are read around each call alone, since the session and
    /// the server in this process count into the same plane.
    fn step(&mut self, tr: &mut Tracer, req: u64, step: &[Exchange], out: &mut Outcome) {
        for ex in step {
            out.attempted += 1;
            let open = tr.open(ex.class.span(), req);
            if let Some(e) = &ex.edit {
                if let Err(err) = e.apply(&mut self.design) {
                    out.fail(format!("{}: {err}", e.line()));
                }
            }
            let nl = sut::design_netlist(&self.design);
            let report = match &ex.request {
                Request::Analyze => {
                    let before = sut::snapshot();
                    let ((r, rerun), _) = tr.time("pipeline.analyze", req, || {
                        sut::pipeline_analyze(&mut self.pm, &self.design)
                    });
                    self.fallbacks += sut::counter_delta(&before, Counter::ConeFallbacks);
                    if ex.class == Class::Edit {
                        self.passes_rerun.push(rerun as f64);
                        let relax = sut::counter_delta(&before, Counter::PropagateRelaxations);
                        self.warm_relax.push(relax as f64);
                    }
                    Some(r)
                }
                Request::Paths(a, b) => {
                    let (found, ms) = tr.time("paths.query", req, || sut::path_query(nl, a, b));
                    self.query_ms.push(ms);
                    if !found {
                        out.fail(format!("paths {a} {b}: no path"));
                    }
                    None
                }
                Request::Flow => {
                    tr.time("flow.analyze", req, || black_box(sut::flow(nl)));
                    None
                }
            };
            self.samples[ex.class as usize].push(tr.close(open));
            if let Some(r) = report {
                let (_, ms) = tr.time("fingerprint.report", req, || sut::fingerprint(nl, &r));
                self.fingerprint_ms.push(ms);
            }
        }
    }

    fn fingerprint(&mut self) -> String {
        let (r, _) = sut::pipeline_analyze(&mut self.pm, &self.design);
        let nl = sut::design_netlist(&self.design);
        sut::fingerprint_text(sut::fingerprint(nl, &r))
    }
}

/// The final fingerprint of a session-command way; an error fails the
/// probe.
fn finish_way<W: Way>(way: &mut W, name: &str, out: &mut Outcome) -> String {
    out.attempted += 1;
    final_fingerprint(way).unwrap_or_else(|e| {
        out.fail(format!("{name}: {e}"));
        String::new()
    })
}

/// The first `n` steps of the stream for `seed`, extended until every
/// class and a `paths` query have turned up, so each probe metric has
/// samples.
fn covering_prefix(inputs: &Inputs, seed: u64, n: usize) -> Vec<Vec<Exchange>> {
    let mut seen = [false; 4];
    let mut paths = !inputs.has_pairs();
    let mut steps = Vec::new();
    for step in inputs.steps(seed) {
        for ex in &step {
            seen[ex.class as usize] = true;
            paths |= matches!(ex.request, Request::Paths(..));
        }
        steps.push(step);
        if steps.len() >= n && paths && seen.iter().all(|&s| s) {
            return steps;
        }
    }
    unreachable!("the step stream is endless")
}

/// Steps one probe way runs before the next takes over: enough that its
/// design is back in cache after the first, few enough that host drift
/// falls on all three ways alike. (Taking turns step by step evicts each
/// way's design for the next and inflates all three.)
const PROBE_BLOCK: usize = 25;

/// Replays the first steps of the workload's stream on `pd` three ways,
/// taking turns in blocks, so that warm-up and host drift fall on all
/// three alike and their differences are the layers between them.
pub fn probe(tr: &mut Tracer, pd: &ProbeDesign, cfg: &Config, out: &mut Outcome) {
    sut::counters_on(true);
    let inputs = Inputs::new(&pd.nl, &sut::analyze(&pd.nl));
    let steps = covering_prefix(&inputs, cfg.seed, cfg.scale.probe_steps());
    let server = match sut::serve() {
        Ok(s) => s,
        Err(e) => return out.fail(format!("serve: {e}")),
    };
    let before = sut::snapshot();
    out.attempted += 4; // each command way's load and first analyze
    let started = Client::connect(&server, "probe").and_then(|mut client| {
        let mut sess = sut::new_session();
        start(&mut sess, &pd.setup)?;
        start(&mut client, &pd.setup)?;
        Ok((sess, client))
    });
    let (mut sess, mut client) = match started {
        Ok(ways) => ways,
        Err(e) => {
            server.stop();
            return out.fail(format!("probe: {e}"));
        }
    };
    let top = tr.open("probe", 0);
    let mut pipe = Pipeline::new(tr, &pd.nl);
    let (mut session, mut served) = (Tally::default(), Tally::default());
    for (b, block) in steps.chunks(PROBE_BLOCK).enumerate() {
        let reqs = (b * PROBE_BLOCK) as u64..;
        let open = tr.open("probe.pipeline", reqs.start);
        for (req, s) in reqs.clone().zip(block) {
            pipe.step(tr, req, s, out);
        }
        tr.close(open);
        let open = tr.open("probe.session", reqs.start);
        let session_ok = (reqs.clone().zip(block))
            .all(|(req, s)| step(&mut sess, s, req, tr, &mut session).is_ok());
        tr.close(open);
        let open = tr.open("probe.serve", reqs.start);
        let served_ok = (reqs.clone().zip(block))
            .all(|(req, s)| step(&mut client, s, req, tr, &mut served).is_ok());
        tr.close(open);
        if !(session_ok && served_ok) {
            break;
        }
    }
    let pipe_fp = pipe.fingerprint();
    let session_fp = finish_way(&mut sess, "probe.session", out);
    let served_fp = finish_way(&mut client, "probe.serve", out);
    tr.close(top);
    drop(client);
    server.stop();
    session.report(out);
    served.report(out);
    let rejected = sut::counter_delta(&before, Counter::ServeRejected);
    if rejected > 0 {
        out.fail(format!("{rejected} connections rejected"));
    }
    let requests = sut::counter_delta(&before, Counter::ServeRequests);
    out.extra("serve.requests", requests as f64, "count", 1);
    if !(pipe_fp == session_fp && session_fp == served_fp) {
        out.fail(format!(
            "probe fingerprints differ: pipeline {pipe_fp}, session {session_fp}, served {served_fp}"
        ));
    }
    let med = |s: &[f64]| median(s).unwrap_or(0.0);
    let pipe_edit = med(&pipe.samples[Class::Edit as usize]);
    let session_edit = med(session.class(Class::Edit));
    let fp_ms = med(&pipe.fingerprint_ms);
    for (c, name) in [
        (Class::Edit, "pipeline.edit_ms"),
        (Class::Noop, "pipeline.noop_ms"),
        (Class::Rebuild, "pipeline.rebuild_ms"),
    ] {
        out.median_metric(name, &pipe.samples[c as usize]);
    }
    let edits = pipe.passes_rerun.len();
    out.metric("pipeline.passes_rerun", mean(&pipe.passes_rerun), edits);
    out.metric(
        "cone.work_frac",
        mean(&pipe.warm_relax) / pipe.cold_relax.max(1.0),
        edits,
    );
    // Zero on most streams, so a figure of the ledger, not a metric.
    out.extra("cone.fallbacks", pipe.fallbacks as f64, "count", edits);
    out.median_metric("paths.query_ms", &pipe.query_ms);
    out.median_metric("fingerprint.report_ms", &pipe.fingerprint_ms);
    let n = session.class(Class::Edit).len();
    out.metric(
        "session.reply_overhead_ms",
        session_edit - pipe_edit - fp_ms,
        n,
    );
    out.metric(
        "serve.wire_ms",
        med(served.class(Class::Edit)) - session_edit,
        served.class(Class::Edit).len(),
    );
    out.metric(
        "proto.reply_bytes",
        served.reply_bytes as f64 / served.requests.max(1) as f64,
        served.requests as usize,
    );
    for (way, samples) in [
        ("pipeline", &pipe.samples),
        ("session", &session.samples),
        ("serve", &served.samples),
    ] {
        for c in Class::ALL {
            if let Some(m) = median(&samples[c as usize]) {
                let name = format!("probe.{way}.{}_p50_ms", c.name());
                out.extra(name, m, "ms", samples[c as usize].len());
            }
        }
    }
}

/// Writes the run's Chrome trace and ledger to the trace directory and
/// validates the trace.
pub fn finish(w: Workload, cfg: &Config, tr: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let dir = &cfg.trace_dir;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let trace_path = dir.join(format!("{}.trace.json", w.name()));
    std::fs::write(&trace_path, trace::chrome(tr.spans()))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let written = std::fs::read_to_string(&trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    match sut::validate_trace(&written) {
        Ok(n) => out.notes.push(format!(
            "trace {} ({n} events) is valid",
            trace_path.display()
        )),
        Err(e) => out.fail(format!("trace {}: {e}", trace_path.display())),
    }
    let ledger_path = dir.join(format!("{}.ledger.json", w.name()));
    std::fs::write(&ledger_path, ledger_json(w, cfg, tr, out))
        .map_err(|e| format!("{}: {e}", ledger_path.display()))?;
    out.notes.push(format!("ledger {}", ledger_path.display()));
    Ok(())
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Every metric and extra with its sample count, and the self time of
/// every span name.
fn ledger_json(w: Workload, cfg: &Config, tr: &Tracer, out: &Outcome) -> String {
    let mut s = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"nproc\": {},\n  \"metrics\": {{\n",
        w.name(),
        cfg.seed,
        crate::nproc()
    );
    let values: Vec<_> = out.metrics.iter().chain(&out.extras).collect();
    for (i, v) in values.iter().enumerate() {
        let _ = writeln!(
            s,
            "    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}{}",
            v.name,
            num(v.value),
            v.unit,
            v.samples,
            if i + 1 < values.len() { "," } else { "" }
        );
    }
    s.push_str("  },\n  \"spans\": {\n");
    let spans = trace::self_times(tr.spans());
    for (i, (name, (count, total, own))) in spans.iter().enumerate() {
        let _ = writeln!(
            s,
            "    \"{name}\": {{\"count\": {count}, \"total_ms\": {}, \"self_ms\": {}}}{}",
            num(*total),
            num(*own),
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    s.push_str("  }\n}\n");
    s
}
