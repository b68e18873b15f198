//! The adapter between tvbench and the system under test.
//!
//! Every call the benchmark makes into the TV crates goes through this
//! module, so it lists the public entry points the benchmark depends on:
//!
//! - the `tv_gen` generators (`t6_mips_mc`, `random_logic`, `datapath`);
//! - `sim_format::{write, parse_recovering}`;
//! - `Analyzer::run`, `TimingReport::render` and `report_fingerprint`;
//! - `Session::eval` and `reply_fingerprint`;
//! - `serve_tcp` and `client::{handshake, request}`;
//! - the per-layer calls of the traced run (`tv_flow::analyze`,
//!   `qualify_with_flow`, `find_latches`, `TimingGraph::build_par`,
//!   `propagate_with`, `critical_paths`, `race_check`,
//!   `check_electrical`, the report assembly (`FlowAnalysis::{report,
//!   census, diagnostics}`, `CheckIssue::diagnostic`,
//!   `flow_fingerprint`), `Analyzer::path_query`, `PassManager::analyze`
//!   and the `Design` edits);
//! - the `tv_obs` counter plane and trace validator.
//!
//! A change that renames or removes one of these touches this file and
//! nothing else in the benchmark.

use std::hint::black_box;
use tv_clocks::latch::{find_latches, Latch};
use tv_clocks::qualify::{qualify_with_flow, Qualification};

use tv_core::{
    external_sources, phase_endpoints, phase_sources, propagate_with, AnalysisOptions, Analyzer,
    CheckIssue, PhaseCase, PhaseResult, TimingGraph, TimingPath, SOURCE_RESISTANCE,
};
use tv_flow::FlowAnalysis;
use tv_gen::datapath::{datapath, DatapathConfig};
use tv_gen::random::{random_logic, RandomMix};
use tv_netlist::{sim_format, DeviceKind, Diagnostics, NodeId, NodeRole, Tech};
use tv_proto::Limits;
use tv_serve::client;
use tv_serve::server::{serve_tcp, ServeConfig};

pub use tv_core::{PassManager, TimingReport};
pub use tv_netlist::{Design, Netlist};
pub use tv_obs::json;
pub use tv_obs::trace::validate as validate_trace;
pub use tv_obs::{Counter, Snapshot};
pub use tv_serve::server::{ServerHandle, Stream};
pub use tv_serve::session::Session;

/// The session command that loads the mips32 datapath server-side.
pub const MIPS32_DEMO: &str = "demo mips32";

fn tech() -> Tech {
    Tech::nmos4um()
}

/// The options every analysis in the benchmark runs with: the defaults,
/// which are serial (`jobs = 1`).
pub fn options() -> AnalysisOptions {
    AnalysisOptions::default()
}

/// The multi-core MIPS-class design `tv gen` writes; 67 cores is T6.
pub fn t6_design(cores: usize) -> Netlist {
    tv_gen::mips_mc::t6_mips_mc(tech(), cores).netlist
}

/// Seeded random logic of about `devices` transistors (the T5 family).
pub fn random_design(devices: usize, seed: u64) -> Netlist {
    random_logic(tech(), devices, seed, RandomMix::default()).netlist
}

/// The 32-bit MIPS-class datapath behind `demo mips32`.
pub fn mips32_design() -> Netlist {
    datapath(tech(), DatapathConfig::mips32()).netlist
}

pub fn device_count(nl: &Netlist) -> usize {
    nl.device_count()
}

pub fn write_sim(nl: &Netlist) -> String {
    sim_format::write(nl)
}

/// Parses `.sim` text; any parse error is a failure.
pub fn parse_sim(text: &str) -> Result<Netlist, String> {
    let mut diags = Diagnostics::new();
    let nl = sim_format::parse_recovering(text, tech(), &mut diags).map_err(|e| e.to_string())?;
    match diags.error_count() {
        0 => Ok(nl),
        n => Err(format!("{n} parse errors")),
    }
}

pub fn analyze(nl: &Netlist) -> TimingReport {
    Analyzer::new(nl).run(&options())
}

pub fn render(report: &TimingReport, nl: &Netlist) -> String {
    report.render(nl)
}

pub fn fingerprint(nl: &Netlist, report: &TimingReport) -> u64 {
    tv_core::report_fingerprint(nl, report)
}

/// A digest of a report that survives the node renumbering of a `.sim`
/// round trip, which `report_fingerprint` (it hashes node order) does
/// not: every node's worst arrival in every analyzed case, keyed by node
/// name, plus the latch, check and arc counts and the minimum cycle.
pub fn name_keyed_digest(nl: &Netlist, report: &TimingReport) -> u64 {
    let results: Vec<&PhaseResult> = std::iter::once(&report.combinational)
        .chain(report.phases.iter().map(|p| &p.result))
        .collect();
    let mut rows: Vec<(&str, NodeId)> = nl.node_ids().map(|id| (nl.node_name(id), id)).collect();
    rows.sort_unstable();
    let mut h = tv_core::Fnv::new();
    for (name, id) in rows {
        h.bytes(name.as_bytes());
        for r in &results {
            h.opt_f64(r.arrival(id));
        }
    }
    for p in &report.phases {
        h.u64(p.arcs as u64);
    }
    h.u64(report.latches.len() as u64);
    h.u64(report.checks.len() as u64);
    h.opt_f64(report.min_cycle);
    h.0
}

/// A fingerprint as an `analyze` reply spells it.
pub fn fingerprint_text(fp: u64) -> String {
    format!("{fp:#018x}")
}

/// The `"fingerprint"` of an `analyze` reply line.
pub fn reply_fingerprint(reply: &str) -> Option<String> {
    tv_serve::session::reply_fingerprint(reply)
}

pub fn new_session() -> Session {
    Session::new(options(), tv_netlist::DEFAULT_MAX_ERRORS)
}

/// One session command: the reply line and whether it was `ok`.
pub fn eval(session: &mut Session, line: &str) -> (String, bool) {
    session.eval(line).unwrap_or_default()
}

/// A copy of the session's current netlist, for a cold re-analysis.
pub fn session_netlist(session: &Session) -> Option<Netlist> {
    session.design().map(|d| d.netlist().clone())
}

/// An in-process `tv serve` on a loopback port, with default caps.
pub fn serve() -> std::io::Result<ServerHandle> {
    serve_tcp("127.0.0.1:0", ServeConfig::default())
}

/// Connects to `server` and performs the `hello` handshake.
pub fn connect(server: &ServerHandle, tenant: &str) -> Result<Stream, String> {
    let mut s = server.endpoint().connect().map_err(|e| e.to_string())?;
    client::handshake(&mut s, tenant, Limits::default()).map_err(|e| e.to_string())?;
    Ok(s)
}

/// One request frame and its reply: `(body, ok)`.
pub fn request(s: &mut Stream, id: u64, line: &str) -> Result<(String, bool), String> {
    client::request(s, id, line).map_err(|e| e.to_string())
}

pub fn counters_on(on: bool) {
    tv_obs::counters::set_enabled(on);
}

pub fn snapshot() -> Snapshot {
    tv_obs::snapshot()
}

/// How much `c` grew since `before`.
pub fn counter_delta(before: &Snapshot, c: Counter) -> u64 {
    tv_obs::snapshot().since(before).get(c)
}

/// A device a parametric or structural edit can target.
pub struct DeviceInfo {
    pub name: String,
    pub width: f64,
    pub length: f64,
    pub gate: String,
    pub source: String,
    pub drain: String,
}

/// What the command streams may edit: every device, and every node that
/// is not a rail or a clock.
pub struct Targets {
    pub devices: Vec<DeviceInfo>,
    pub nodes: Vec<String>,
}

pub fn targets(nl: &Netlist) -> Targets {
    let devices = nl
        .devices()
        .map(|d| DeviceInfo {
            name: d.device.name().to_string(),
            width: d.device.width(),
            length: d.device.length(),
            gate: nl.node_name(d.device.gate()).to_string(),
            source: nl.node_name(d.device.source()).to_string(),
            drain: nl.node_name(d.device.drain()).to_string(),
        })
        .collect();
    let nodes = nl
        .node_ids()
        .filter(|&id| {
            let role = nl.node(id).role();
            !role.is_rail() && !matches!(role, NodeRole::Clock(_))
        })
        .map(|id| nl.node_name(id).to_string())
        .collect();
    Targets { devices, nodes }
}

/// Candidate `paths` endpoints from a report's critical paths (the
/// combinational ones and each phase's), paired with each path's
/// endpoint: first the steps just before it, then each path's start and
/// midpoint. Tail steps come first because on clocked designs the view
/// `paths` queries (all clocks active) is cyclic, and only pairs
/// downstream of every loop have an answer.
pub fn critical_pairs(nl: &Netlist, report: &TimingReport) -> Vec<(String, String)> {
    let paths: Vec<&TimingPath> = report
        .combinational_paths
        .iter()
        .chain(report.phases.iter().flat_map(|p| &p.paths))
        .filter(|p| p.steps.len() > 1)
        .collect();
    let pick = |from_end: bool, k: usize| {
        paths.iter().filter_map(move |p| {
            let n = p.steps.len();
            let i = if from_end {
                n.checked_sub(k + 1)?
            } else {
                k * (n - 1) / 2
            };
            let (from, to) = (p.steps[i].node, p.steps[n - 1].node);
            (from != to).then(|| (nl.node_name(from).to_string(), nl.node_name(to).to_string()))
        })
    };
    let mut pairs: Vec<(String, String)> = Vec::new();
    let ordered = pick(true, 1)
        .chain(pick(true, 2))
        .chain(pick(false, 0))
        .chain(pick(false, 1));
    for pair in ordered {
        if !pairs.contains(&pair) {
            pairs.push(pair);
        }
    }
    pairs
}

/// `paths <from> <to>` without a session: whether a path was found.
pub fn path_query(nl: &Netlist, from: &str, to: &str) -> bool {
    let (Some(f), Some(t)) = (nl.node_by_name(from), nl.node_by_name(to)) else {
        return false;
    };
    Analyzer::new(nl).path_query(f, t, &options()).is_some()
}

fn device(design: &Design, name: &str) -> Result<tv_netlist::DeviceId, String> {
    design
        .netlist()
        .device_by_name(name)
        .ok_or_else(|| format!("unknown device {name:?}"))
}

fn node(design: &Design, name: &str) -> Result<tv_netlist::NodeId, String> {
    design
        .netlist()
        .node_by_name(name)
        .ok_or_else(|| format!("unknown node {name:?}"))
}

pub fn resize(design: &mut Design, dev: &str, w: f64, l: f64) -> Result<(), String> {
    let id = device(design, dev)?;
    design.resize_device(id, w, l).map_err(|e| e.to_string())?;
    Ok(())
}

pub fn set_cap(design: &mut Design, n: &str, pf: f64) -> Result<(), String> {
    let id = node(design, n)?;
    design.set_node_cap(id, pf).map_err(|e| e.to_string())?;
    Ok(())
}

/// Adds an enhancement transistor.
pub fn add_device(
    design: &mut Design,
    name: &str,
    terminals: [&str; 3],
    w: f64,
    l: f64,
) -> Result<(), String> {
    let [g, s, d] = terminals.map(|t| node(design, t));
    let (g, s, d) = (g?, s?, d?);
    design
        .add_device(name, DeviceKind::Enhancement, g, s, d, w, l)
        .map_err(|e| e.to_string())?;
    Ok(())
}

pub fn remove_device(design: &mut Design, name: &str) -> Result<(), String> {
    let id = device(design, name)?;
    design.remove_device(id);
    Ok(())
}

/// A revisioned design for the bare-pipeline replay.
pub fn design(nl: Netlist) -> Design {
    Design::new(nl)
}

/// A session-grade pass manager (graph builds record splice spans).
pub fn pipeline() -> PassManager {
    PassManager::new()
}

pub fn design_netlist(design: &Design) -> &Netlist {
    design.netlist()
}

/// `PassManager::analyze` plus how many passes did real work.
pub fn pipeline_analyze(pm: &mut PassManager, design: &Design) -> (TimingReport, usize) {
    let report = pm.analyze(design, &options());
    let rerun = pm.last_trace().iter().filter(|e| e.reran()).count();
    (report, rerun)
}

// --- The layers of one cold analysis, called one at a time. ---

pub fn flow(nl: &Netlist) -> FlowAnalysis {
    tv_flow::analyze(nl, &options().rules)
}

pub fn qualify(nl: &Netlist, flow: &FlowAnalysis) -> Vec<Qualification> {
    qualify_with_flow(nl, flow)
}

pub fn latches(nl: &Netlist, flow: &FlowAnalysis, qual: &[Qualification]) -> Vec<Latch> {
    find_latches(nl, flow, qual)
}

/// The cases `Analyzer::run` analyzes: combinational (`None`), then each
/// clock phase when the design has clocks.
pub fn cases(nl: &Netlist) -> Vec<Option<u8>> {
    let mut cases = vec![None];
    if options().case_analysis && !nl.clocks().is_empty() {
        cases.extend([Some(0), Some(1)]);
    }
    cases
}

pub fn graph(
    nl: &Netlist,
    flow: &FlowAnalysis,
    qual: &[Qualification],
    case: Option<u8>,
) -> TimingGraph {
    let o = options();
    let case = case.map_or(PhaseCase::all_active(), PhaseCase::phase);
    TimingGraph::build_par(nl, flow, qual, case, o.model, SOURCE_RESISTANCE, o.jobs)
}

/// Arrival propagation for one case, with the sources and endpoints
/// `Analyzer::run` uses for it.
pub fn propagate(
    nl: &Netlist,
    graph: &TimingGraph,
    latches: &[Latch],
    case: Option<u8>,
) -> PhaseResult {
    let o = options();
    let (sources, endpoints) = match case {
        None if nl.outputs().is_empty() => (
            external_sources(nl),
            nl.node_ids()
                .filter(|&id| !nl.node(id).role().is_rail())
                .collect(),
        ),
        None => (external_sources(nl), nl.outputs().to_vec()),
        Some(p) => (
            phase_sources(nl, latches, p),
            phase_endpoints(nl, latches, p),
        ),
    };
    propagate_with(nl, graph, &sources, &endpoints, &o.slope, o.jobs)
}

pub fn critical_paths(graph: &TimingGraph, result: &PhaseResult) -> Vec<TimingPath> {
    tv_core::paths::critical_paths(graph, result, options().top_k)
}

/// Same-phase race hazards found.
pub fn race_check(nl: &Netlist, graph: &TimingGraph, latches: &[Latch], phase: u8) -> usize {
    tv_core::race_check(nl, graph, latches, phase).len()
}

pub fn checks(nl: &Netlist, flow: &FlowAnalysis, qual: &[Qualification]) -> Vec<CheckIssue> {
    tv_core::check_electrical(nl, flow, qual)
}

/// What `Analyzer::run` assembles around the layers' results on every
/// cold analysis: the flow report, census and diagnostics, the check
/// issues rendered as diagnostics, and the flow fingerprint its pass
/// cache keys on. Returns the diagnostic count.
pub fn assemble(nl: &Netlist, flow: &FlowAnalysis, checks: &[CheckIssue]) -> usize {
    let mut diagnostics = flow.diagnostics(nl);
    diagnostics.extend(checks.iter().map(|c| c.diagnostic(nl)));
    black_box((
        flow.report(nl),
        flow.census(),
        tv_core::flow_fingerprint(nl, flow),
    ));
    diagnostics.len()
}
