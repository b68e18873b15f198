//! The long-lived session protocol behind `tv session` and `tv batch`.
//!
//! One resident [`Design`] plus a [`PassManager`] serve a stream of
//! newline-delimited commands; every command gets exactly one JSON reply
//! line. The same loop drives the interactive REPL (`tv session`, stdin
//! to stdout) and deterministic replay (`tv batch <script>`), so a
//! committed script plus its golden transcript pin the whole protocol —
//! replies carry revisions, pass traces, and report fingerprints, never
//! wall-clock times.
//!
//! # Command grammar
//!
//! ```text
//! load <file.sim>                      # parse a netlist into the session
//! demo [small|mips32]                  # load a generated datapath
//! edit resize <dev> <w> <l>            # device W/L, microns
//! edit setcap <node> <pf>              # explicit node capacitance
//! edit addnode <name> <in|out|int>     # new node with a role
//! edit adddev <name> <e|d> <gate> <source> <drain> <w> <l>
//! edit rmdev <dev>                     # remove a device
//! edit retech <nmos4um|nmos2um>        # swap the technology file
//! analyze                              # run the pass pipeline
//! paths <from> <to>                    # point-to-point worst path
//! flow                                 # flow resolution statistics
//! revision                             # current design revision
//! metrics                              # deterministic counters since the last metrics
//! quit                                 # end the session
//! ```
//!
//! Blank lines and lines starting with `#` are ignored (batch scripts
//! use them for comments). An unknown or failing command replies
//! `{"ok":false,"code":"TV06xx",...}` and the session continues — one
//! bad line can never kill the session (or a served connection hosting
//! it): `TV0601` names an unknown verb, `TV0602` a known command that
//! failed, and `TV0603` a command the supervisor had to abandon after a
//! panic. The exit code of the whole run is 1 if any command failed, 0
//! otherwise.
//!
//! The `analyze` reply's `fingerprint` is [`tv_core::report_fingerprint`]
//! — the same golden FNV the equivalence suite pins — and `passes` lists
//! every pass with how it was satisfied (`computed`, `reused`,
//! `revalidated`, `spliced` with a root count, or `cone` with the
//! recomputed-node count), so a transcript documents both the result
//! bits and how little work the pipeline did to get them. The reply is
//! read off the pipeline's pass slots ([`PassManager::try_summarize`]),
//! and `paths` and `flow` answer from the same slots while they reflect
//! the current design revision.

use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use tv_core::{AnalysisOptions, PassManager, PassOutcome, TvError};
use tv_gen::datapath::{datapath, DatapathConfig};
use tv_netlist::{codes, sim_format, Design, DeviceKind, Diagnostics, EditClass, NodeRole, Tech};
use tv_obs::json::escape as json_escape;

use crate::journal;

/// The technologies a process knows, interned once and shared read-only
/// by every session it hosts. `Tech` is a small table of constants, so
/// the sharing buys identity more than memory: a server hosting a
/// thousand tenants hands each the *same* technology object, and a
/// technology tweak (when that becomes a feature) lands in one place.
#[derive(Debug)]
pub struct TechTable {
    /// The 4 µm teaching technology ([`Tech::nmos4um`]), the default.
    pub nmos4um: Tech,
    /// The scaled 2 µm technology ([`Tech::nmos2um`]).
    pub nmos2um: Tech,
}

impl TechTable {
    /// The process-wide shared table.
    pub fn shared() -> Arc<TechTable> {
        static TABLE: OnceLock<Arc<TechTable>> = OnceLock::new();
        TABLE
            .get_or_init(|| {
                Arc::new(TechTable {
                    nmos4um: Tech::nmos4um(),
                    nmos2um: Tech::nmos2um(),
                })
            })
            .clone()
    }

    /// Looks a technology up by its session-command name.
    pub fn get(&self, name: &str) -> Option<&Tech> {
        match name {
            "nmos4um" => Some(&self.nmos4um),
            "nmos2um" => Some(&self.nmos2um),
            _ => None,
        }
    }
}

/// A failing command's typed reply: a stable `TV06xx` code plus the
/// human-readable message. Command handlers return plain `String`
/// errors; the `From` impl stamps them [`codes::SESSION_COMMAND_FAILED`]
/// and the dispatcher reserves [`codes::SESSION_UNKNOWN_COMMAND`] and
/// [`codes::SESSION_PANIC`] for its own failure classes.
pub(crate) struct CmdError {
    pub(crate) code: &'static str,
    pub(crate) msg: String,
}

impl From<String> for CmdError {
    fn from(msg: String) -> CmdError {
        CmdError {
            code: codes::SESSION_COMMAND_FAILED,
            msg,
        }
    }
}

/// One resident design and the demand-driven pipeline serving it.
pub struct Session {
    design: Option<Design>,
    passes: PassManager,
    options: AnalysisOptions,
    max_errors: usize,
    techs: Arc<TechTable>,
    /// Counter baseline for the `metrics` command: each reply reports
    /// the delta since the previous `metrics` (or session start).
    metrics_mark: tv_obs::Snapshot,
    /// Set by a command that failed (or degraded) in a way one bounded
    /// retry can repair; the supervisor consumes it. The value is the
    /// recovery kind reported in the reply's `"recovered"` object.
    retry_hint: Option<&'static str>,
}

/// The reply to one command line.
enum Reply {
    /// Nothing to say (blank line or comment).
    Silent,
    /// One JSON line; `ok` mirrors the `"ok"` field.
    Line { json: String, ok: bool },
    /// A successful `quit`.
    Quit(String),
}

impl Session {
    /// A fresh session with no design loaded. `options` applies to every
    /// `analyze`; `max_errors` caps reported parse errors per `load`.
    pub fn new(options: AnalysisOptions, max_errors: usize) -> Self {
        Session::with_techs(options, max_errors, TechTable::shared())
    }

    /// [`Session::new`] against an explicit technology table (the server
    /// hands every hosted session one `Arc` clone of its own).
    pub fn with_techs(options: AnalysisOptions, max_errors: usize, techs: Arc<TechTable>) -> Self {
        // Sessions always keep the deterministic counter plane on: the
        // `metrics` command reports work done since its last baseline,
        // and the counters are interleaving-independent so this cannot
        // perturb any golden transcript.
        tv_obs::counters::set_enabled(true);
        Session {
            design: None,
            passes: PassManager::new(),
            options,
            max_errors,
            techs,
            metrics_mark: tv_obs::snapshot(),
            retry_hint: None,
        }
    }

    /// The loaded design, if any (tests inspect it).
    pub fn design(&self) -> Option<&Design> {
        self.design.as_ref()
    }

    /// The pipeline serving this session (tests inspect pass state).
    pub fn passes(&self) -> &PassManager {
        &self.passes
    }

    /// Evaluates one command line and returns its JSON reply, or `None`
    /// for blank/comment lines. `quit` returns its reply via the run
    /// loop; calling `eval` again afterwards is allowed.
    pub fn eval(&mut self, line: &str) -> Option<(String, bool)> {
        match self.dispatch(line) {
            Reply::Silent => None,
            Reply::Line { json, ok } => Some((json, ok)),
            Reply::Quit(json) => Some((json, true)),
        }
    }

    fn dispatch(&mut self, line: &str) -> Reply {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Reply::Silent;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        tv_obs::incr(tv_obs::Counter::SessionCommands);
        let _span = tv_obs::span(command_span_label(tokens[0]));
        if tokens[0] == "quit" {
            return Reply::Quit(r#"{"ok":true,"cmd":"quit"}"#.into());
        }
        match self.supervised(&tokens) {
            Ok(json) => Reply::Line { json, ok: true },
            Err(e) => Reply::Line {
                json: format!(
                    r#"{{"ok":false,"code":"{}","error":"{}"}}"#,
                    e.code,
                    json_escape(&e.msg)
                ),
                ok: false,
            },
        }
    }

    /// The per-command supervisor: runs the command with panic
    /// containment, then applies the bounded per-kind retry policy.
    ///
    /// A command may set [`Session::retry_hint`] when it failed — or
    /// succeeded degraded — in a way one retry against reset pipeline
    /// state can repair: a transient read failure (`io`), a typed
    /// internal error (`internal`), a worker-panic degradation
    /// (`worker_panic`), or an exhausted deadline clock (`deadline`).
    /// Engine-level kinds reset the [`PassManager`] first, because
    /// degradation diagnostics live inside cached pass slots and shift
    /// the report fingerprint; only a cold pipeline reproduces the
    /// fault-free reply bits. A retry that comes back clean replaces
    /// the degraded reply and is annotated
    /// `"recovered":{"kind":...,"retries":1}`; a retry that is still
    /// symptomatic is returned as-is — degraded but honest. Exactly one
    /// retry, ever: recovery must never turn a persistent fault into a
    /// loop.
    fn supervised(&mut self, tokens: &[&str]) -> Result<String, CmdError> {
        self.retry_hint = None;
        let first = match catch_unwind(AssertUnwindSafe(|| self.run_cmd(tokens))) {
            Ok(r) => r,
            Err(payload) => {
                // An escaped panic must fail loudly, never kill the
                // session; the pipeline may be mid-update, so drop its
                // state wholesale. Not retried: the command may have
                // partially applied, and a blind re-run could double it.
                self.passes = PassManager::new();
                return Err(CmdError {
                    code: codes::SESSION_PANIC,
                    msg: format!("command panicked: {}", panic_text(&payload)),
                });
            }
        };
        let Some(kind) = self.retry_hint.take() else {
            return first;
        };
        tv_obs::incr(tv_obs::Counter::FaultRetries);
        if kind != "io" {
            self.passes = PassManager::new();
        }
        match catch_unwind(AssertUnwindSafe(|| self.run_cmd(tokens))) {
            Ok(second) => {
                if self.retry_hint.take().is_none() {
                    second.map(|json| annotate_recovered(&json, kind))
                } else {
                    second
                }
            }
            Err(payload) => {
                self.passes = PassManager::new();
                Err(CmdError {
                    code: codes::SESSION_PANIC,
                    msg: format!("command panicked during retry: {}", panic_text(&payload)),
                })
            }
        }
    }

    /// Dispatches one tokenized command (everything but `quit`, which
    /// the caller handles — it must bypass the retry machinery).
    fn run_cmd(&mut self, tokens: &[&str]) -> Result<String, CmdError> {
        match tokens[0] {
            "load" => self.cmd_load(&tokens[1..]).map_err(CmdError::from),
            "demo" => self.cmd_demo(&tokens[1..]).map_err(CmdError::from),
            "edit" => self.cmd_edit(&tokens[1..]).map_err(CmdError::from),
            "analyze" => self.cmd_analyze(&tokens[1..]).map_err(CmdError::from),
            "paths" => self.cmd_paths(&tokens[1..]).map_err(CmdError::from),
            "flow" => self.cmd_flow(&tokens[1..]).map_err(CmdError::from),
            "revision" => self.cmd_revision(&tokens[1..]).map_err(CmdError::from),
            "metrics" => self.cmd_metrics(&tokens[1..]).map_err(CmdError::from),
            other => Err(CmdError {
                code: codes::SESSION_UNKNOWN_COMMAND,
                msg: format!("unknown command {other:?}"),
            }),
        }
    }

    fn cmd_load(&mut self, args: &[&str]) -> Result<String, String> {
        let [path] = args else {
            return Err("load needs <file.sim>".into());
        };
        let text = match tv_fault::io_error(tv_fault::Site::SimRead) {
            Some(e) => {
                tv_obs::incr(tv_obs::Counter::FaultInjected);
                Err(e)
            }
            None => std::fs::read_to_string(path),
        }
        .map_err(|e| {
            // A failed read leaves no partial state behind, so it is
            // always safe to retry once before giving up.
            self.retry_hint = Some("io");
            format!("cannot read {path}: {e}")
        })?;
        let mut diags = Diagnostics::with_max_errors(self.max_errors);
        let popts = sim_format::ParseOptions {
            jobs: self.options.effective_jobs(),
            ..sim_format::ParseOptions::default()
        };
        let netlist = sim_format::parse_recovering_with(
            &text,
            self.techs.nmos4um.clone(),
            &mut diags,
            &popts,
        )
        .map_err(|e| {
            // Nothing was installed, so a re-read-and-re-parse is
            // safe; on a genuinely bad file the retry fails the
            // same way and the error stands.
            self.retry_hint = Some("parse");
            format!("unrecoverable parse failure in {path}: {e}")
        })?;
        let errors = diags.error_count();
        self.install(Design::new(netlist));
        let d = self.design.as_ref().expect("just installed");
        Ok(format!(
            r#"{{"ok":true,"cmd":"load","path":"{}","nodes":{},"devices":{},"parse_errors":{},"revision":{}}}"#,
            json_escape(path),
            d.netlist().node_count(),
            d.netlist().device_count(),
            errors,
            d.revision().0
        ))
    }

    fn cmd_demo(&mut self, args: &[&str]) -> Result<String, String> {
        let config = match args {
            [] | ["mips32"] => DatapathConfig::mips32(),
            ["small"] => DatapathConfig::small(),
            [other, ..] => return Err(format!("unknown demo config {other:?}")),
        };
        let which = if args == ["small"] { "small" } else { "mips32" };
        let dp = datapath(self.techs.nmos4um.clone(), config);
        self.install(Design::new(dp.netlist));
        let d = self.design.as_ref().expect("just installed");
        Ok(format!(
            r#"{{"ok":true,"cmd":"demo","config":"{}","nodes":{},"devices":{},"revision":{}}}"#,
            which,
            d.netlist().node_count(),
            d.netlist().device_count(),
            d.revision().0
        ))
    }

    /// Installs a new design, dropping all pass state from the previous
    /// one (a fresh manager: slot fingerprints must not carry across
    /// designs).
    fn install(&mut self, design: Design) {
        self.design = Some(design);
        self.passes = PassManager::new();
    }

    fn cmd_edit(&mut self, args: &[&str]) -> Result<String, String> {
        let techs = self.techs.clone();
        let design = self.design.as_mut().ok_or("no design loaded")?;
        let (kind, receipt) = match args {
            ["resize", dev, w, l] => {
                let id = device_named(design, dev)?;
                let (w, l) = (num(w, "width")?, num(l, "length")?);
                (
                    "resize",
                    design.resize_device(id, w, l).map_err(|e| e.to_string())?,
                )
            }
            ["setcap", node, pf] => {
                let id = node_named(design, node)?;
                let pf = num(pf, "capacitance")?;
                (
                    "setcap",
                    design.set_node_cap(id, pf).map_err(|e| e.to_string())?,
                )
            }
            ["addnode", name, role] => {
                let role = match *role {
                    "in" => NodeRole::Input,
                    "out" => NodeRole::Output,
                    "int" => NodeRole::Internal,
                    other => return Err(format!("unknown node role {other:?} (in|out|int)")),
                };
                ("addnode", design.add_node(name, role).1)
            }
            ["adddev", name, kind, gate, source, drain, w, l] => {
                let kind = match *kind {
                    "e" => DeviceKind::Enhancement,
                    "d" => DeviceKind::Depletion,
                    other => return Err(format!("unknown device kind {other:?} (e|d)")),
                };
                let (g, s, dr) = (
                    node_named(design, gate)?,
                    node_named(design, source)?,
                    node_named(design, drain)?,
                );
                let (w, l) = (num(w, "width")?, num(l, "length")?);
                (
                    "adddev",
                    design
                        .add_device(name, kind, g, s, dr, w, l)
                        .map_err(|e| e.to_string())?
                        .1,
                )
            }
            ["rmdev", dev] => {
                let id = device_named(design, dev)?;
                ("rmdev", design.remove_device(id))
            }
            ["retech", tech] => {
                let tech = techs
                    .get(tech)
                    .ok_or_else(|| format!("unknown tech {tech:?} (nmos4um|nmos2um)"))?
                    .clone();
                ("retech", design.retech(tech))
            }
            _ => {
                return Err(
                    "edit needs resize|setcap|addnode|adddev|rmdev|retech with its operands".into(),
                )
            }
        };
        let class = match receipt.class {
            EditClass::Parametric => "parametric",
            EditClass::Structural => "structural",
            EditClass::Tech => "tech",
        };
        Ok(format!(
            r#"{{"ok":true,"cmd":"edit","kind":"{}","class":"{}","dirty_nodes":{},"revision":{}}}"#,
            kind,
            class,
            receipt.dirty.len(),
            receipt.revision.0
        ))
    }

    fn cmd_analyze(&mut self, args: &[&str]) -> Result<String, String> {
        if !args.is_empty() {
            return Err("analyze takes no operands".into());
        }
        let design = self.design.as_ref().ok_or("no design loaded")?;
        let summary = match self.passes.try_summarize(design, &self.options) {
            Ok(summary) => summary,
            Err(e) => {
                if matches!(e, TvError::Internal { .. }) {
                    self.retry_hint = Some("internal");
                }
                return Err(e.to_string());
            }
        };
        // A report can also come back *degraded*: a worker panic forced
        // a serial fallback (and left a TV0303 diagnostic that shifts
        // the fingerprint), or the deadline clock fired early and the
        // propagation is incomplete. Both are one-shot conditions worth
        // a single retry against a cold pipeline.
        if summary.worker_panic {
            self.retry_hint = Some("worker_panic");
        } else if summary.deadline_exceeded {
            self.retry_hint = Some("deadline");
        }
        let mut passes = String::new();
        for (i, ev) in self.passes.last_trace().iter().enumerate() {
            if i > 0 {
                passes.push(',');
            }
            let outcome = match ev.outcome {
                PassOutcome::Reused => r#""reused""#.to_string(),
                PassOutcome::Computed => r#""computed""#.to_string(),
                PassOutcome::Revalidated => r#""revalidated""#.to_string(),
                PassOutcome::Shared => r#""shared""#.to_string(),
                PassOutcome::Spliced { roots } => format!(r#""spliced","roots":{roots}"#),
                PassOutcome::Cone { recomputed } => {
                    format!(r#""cone","recomputed":{recomputed}"#)
                }
            };
            passes.push_str(&format!(
                r#"{{"pass":"{}","outcome":{}}}"#,
                ev.pass.name(),
                outcome
            ));
        }
        Ok(format!(
            r#"{{"ok":true,"cmd":"analyze","revision":{},"fingerprint":"{:#018x}","complete":{},"latches":{},"checks":{},"min_cycle":{},"critical":{},"passes":[{}]}}"#,
            design.revision().0,
            summary.fingerprint,
            summary.complete,
            summary.latches,
            summary.checks,
            json_opt_f64(summary.min_cycle),
            json_opt_f64(summary.critical),
            passes
        ))
    }

    fn cmd_paths(&mut self, args: &[&str]) -> Result<String, String> {
        let [from, to] = args else {
            return Err("paths needs <from-node> <to-node>".into());
        };
        let design = self.design.as_ref().ok_or("no design loaded")?;
        let f = node_named(design, from)?;
        let t = node_named(design, to)?;
        let nl = design.netlist();
        match self.passes.path_query(design, f, t, &self.options) {
            Some(path) => {
                let mut steps = String::new();
                for (i, s) in path.steps.iter().enumerate() {
                    if i > 0 {
                        steps.push(',');
                    }
                    steps.push_str(&format!(
                        r#"{{"node":"{}","edge":"{}","at":{}}}"#,
                        json_escape(nl.node_name(s.node)),
                        match s.edge {
                            tv_core::propagate::Edge::Rise => "rise",
                            tv_core::propagate::Edge::Fall => "fall",
                        },
                        json_f64(s.at)
                    ));
                }
                Ok(format!(
                    r#"{{"ok":true,"cmd":"paths","from":"{}","to":"{}","arrival":{},"steps":[{}]}}"#,
                    json_escape(from),
                    json_escape(to),
                    json_f64(path.arrival()),
                    steps
                ))
            }
            None => Err(format!("{to} is not reachable from {from}")),
        }
    }

    fn cmd_flow(&mut self, args: &[&str]) -> Result<String, String> {
        if !args.is_empty() {
            return Err("flow takes no operands".into());
        }
        let design = self.design.as_ref().ok_or("no design loaded")?;
        let (r, fingerprint) = self.passes.flow_summary(design, &self.options);
        Ok(format!(
            r#"{{"ok":true,"cmd":"flow","devices":{},"pass_devices":{},"oriented":{},"bidirectional":{},"unresolved":{},"stages":{},"fingerprint":"{:#018x}"}}"#,
            r.devices,
            r.pass_devices,
            r.oriented,
            r.bidirectional,
            r.unresolved,
            r.stages,
            fingerprint
        ))
    }

    fn cmd_metrics(&mut self, args: &[&str]) -> Result<String, String> {
        if !args.is_empty() {
            return Err("metrics takes no operands".into());
        }
        let now = tv_obs::snapshot();
        let delta = now.since(&self.metrics_mark);
        self.metrics_mark = now;
        Ok(format!(
            r#"{{"ok":true,"cmd":"metrics","counters":{}}}"#,
            delta.render_json()
        ))
    }

    fn cmd_revision(&mut self, args: &[&str]) -> Result<String, String> {
        if !args.is_empty() {
            return Err("revision takes no operands".into());
        }
        let design = self.design.as_ref().ok_or("no design loaded")?;
        Ok(format!(
            r#"{{"ok":true,"cmd":"revision","revision":{}}}"#,
            design.revision().0
        ))
    }
}

/// Best-effort text of a caught panic payload (panics raised with
/// `panic!("{}", ...)` carry a `String`; literals carry `&str`).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".into()
    }
}

/// Appends `"recovered":{"kind":...,"retries":1}` to a reply object, so
/// transcripts show both that the command succeeded and that it took
/// the supervisor to get there.
fn annotate_recovered(json: &str, kind: &str) -> String {
    match json.strip_suffix('}') {
        Some(body) => format!(r#"{body},"recovered":{{"kind":"{kind}","retries":1}}}}"#),
        None => json.to_string(),
    }
}

/// Extracts the `"revision":<n>` stamp from a reply line, if present
/// (replies are generated by this module, so plain text scanning is
/// exact — no reply nests another object with a `revision` key first).
pub fn reply_revision(json: &str) -> Option<u64> {
    let rest = &json[json.find(r#""revision":"#)? + r#""revision":"#.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the `"fingerprint":"0x..."` stamp from a reply line.
pub fn reply_fingerprint(json: &str) -> Option<String> {
    let rest = &json[json.find(r#""fingerprint":""#)? + r#""fingerprint":""#.len()..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Static span label for a session command (span names must be
/// `&'static str`; unknown commands share one bucket).
fn command_span_label(cmd: &str) -> &'static str {
    match cmd {
        "load" => "session.load",
        "demo" => "session.demo",
        "edit" => "session.edit",
        "analyze" => "session.analyze",
        "paths" => "session.paths",
        "flow" => "session.flow",
        "revision" => "session.revision",
        "metrics" => "session.metrics",
        _ => "session.other",
    }
}

fn node_named(design: &Design, name: &str) -> Result<tv_netlist::NodeId, String> {
    design
        .netlist()
        .node_by_name(name)
        .ok_or_else(|| format!("unknown node {name:?}"))
}

fn device_named(design: &Design, name: &str) -> Result<tv_netlist::DeviceId, String> {
    design
        .netlist()
        .device_by_name(name)
        .ok_or_else(|| format!("unknown device {name:?}"))
}

fn num(s: &str, what: &str) -> Result<f64, String> {
    let v: f64 = s.parse().map_err(|_| format!("bad {what} {s:?}"))?;
    if !v.is_finite() {
        return Err(format!("bad {what} {s:?}"));
    }
    Ok(v)
}

/// Finite floats render with Rust's shortest round-trip `Display`;
/// that representation is platform-independent, so golden transcripts
/// are stable.
fn json_f64(v: f64) -> String {
    debug_assert!(v.is_finite());
    // Bare integers are still valid JSON numbers, no fixup needed.
    format!("{v}")
}

fn json_opt_f64(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => json_f64(x),
        _ => "null".into(),
    }
}

/// Runs a whole session: reads commands from `input` line by line,
/// writes one JSON reply line per command to `out`, stops at `quit` or
/// end of input. Returns the session exit code: 0 when every command
/// succeeded, 1 if any failed.
pub fn run_session<R: BufRead, W: Write>(
    input: R,
    out: &mut W,
    options: AnalysisOptions,
    max_errors: usize,
) -> std::io::Result<u8> {
    run_session_with(input, out, options, max_errors, None, None)
}

/// [`run_session`] with the crash-safety plane attached.
///
/// With `journal`, every accepted (non-quit, `ok:true`) command is
/// appended to the file after it executes, stamped with the revision
/// and fingerprint its reply carried. With `resume`, the journal at
/// that path is validated and replayed through the ordinary command
/// API *before* any input is read; replay must land on the recorded
/// stamps exactly (else `TV0503` refuses), a torn tail is dropped and
/// truncated with a `TV0502` note, and interior damage refuses with
/// `TV0501`. After a successful resume, the same file continues to
/// receive appends, so resume composes with itself.
pub fn run_session_with<R: BufRead, W: Write>(
    input: R,
    out: &mut W,
    options: AnalysisOptions,
    max_errors: usize,
    journal: Option<&str>,
    resume: Option<&str>,
) -> std::io::Result<u8> {
    let mut session = Session::new(options, max_errors);
    let mut failed = false;
    let journal_path = resume.or(journal);
    let mut sink = None;
    if let Some(path) = resume {
        let loaded = match journal::load(path) {
            Ok(l) => l,
            Err(e) => {
                let code = match e {
                    journal::JournalError::Io(_) => codes::JOURNAL_IO,
                    journal::JournalError::Malformed { .. } => codes::JOURNAL_MALFORMED,
                };
                writeln!(
                    out,
                    r#"{{"ok":false,"cmd":"resume","code":"{}","error":"{}"}}"#,
                    code,
                    json_escape(&e.to_string())
                )?;
                return Ok(1);
            }
        };
        if loaded.torn {
            // Drop the torn tail on disk too, so the file we go on
            // appending to is exactly the prefix we replayed.
            journal::truncate_to(path, loaded.valid_len)?;
        }
        let mut last_revision = None;
        let mut last_fingerprint = None;
        for (i, entry) in loaded.entries.iter().enumerate() {
            tv_obs::incr(tv_obs::Counter::FaultJournalReplays);
            let reply = session.eval(&entry.command);
            let (json, ok) = match reply {
                Some(r) => r,
                None => (String::new(), true),
            };
            let diverged = !ok
                || entry
                    .revision
                    .is_some_and(|want| reply_revision(&json) != Some(want))
                || entry
                    .fingerprint
                    .as_deref()
                    .is_some_and(|want| reply_fingerprint(&json).as_deref() != Some(want));
            if diverged {
                writeln!(
                    out,
                    r#"{{"ok":false,"cmd":"resume","code":"{}","error":"replay diverged at entry {} ({})"}}"#,
                    codes::JOURNAL_DIVERGED,
                    i + 1,
                    json_escape(&entry.command)
                )?;
                return Ok(1);
            }
            last_revision = reply_revision(&json).or(last_revision);
            last_fingerprint = reply_fingerprint(&json).or(last_fingerprint);
        }
        writeln!(
            out,
            r#"{{"ok":true,"cmd":"resume","replayed":{},"torn":{},"revision":{},"fingerprint":{}}}"#,
            loaded.entries.len(),
            loaded.torn,
            last_revision
                .map(|r| r.to_string())
                .unwrap_or_else(|| "null".into()),
            last_fingerprint
                .map(|f| format!("\"{f}\""))
                .unwrap_or_else(|| "null".into()),
        )?;
        out.flush()?;
        sink = Some(journal::Journal::open_append(path)?);
    } else if let Some(path) = journal_path {
        sink = Some(journal::Journal::create(path)?);
    }
    for line in input.lines() {
        let line = line?;
        let quit = line.trim() == "quit";
        if let Some((json, ok)) = session.eval(&line) {
            writeln!(out, "{json}")?;
            out.flush()?;
            failed |= !ok;
            if ok && !quit {
                if let Some(j) = sink.as_mut() {
                    j.append(&journal::Entry {
                        revision: reply_revision(&json),
                        fingerprint: reply_fingerprint(&json),
                        command: line.trim().to_string(),
                    })?;
                }
            }
        }
        if quit {
            break;
        }
    }
    Ok(if failed { 1 } else { 0 })
}
