//! `tv` — the command-line timing verifier.
//!
//! The shape of the original tool: read an extracted `.sim` netlist, run
//! the full analysis, print the report. Subcommands:
//!
//! ```text
//! tv analyze <file.sim> [--cycle NS] [--no-case] [--model lumped|elmore|upper]
//!                       [--top K] [--jobs N] [--check]
//!                       [--relax-budget N] [--deadline SECS]
//!                       [--max-nodes N] [--max-arcs N]
//! tv check   <file.sim>            # electrical rules only
//! tv flow    <file.sim>            # signal-flow resolution statistics
//! tv query   <file.sim> <from> <to># point-to-point worst path
//! tv spice   <file.sim>            # convert to a SPICE deck on stdout
//! tv gen     [--cores N] [--out F] # generate a multi-core MIPS-class .sim
//! tv demo    [--jobs N]            # analyze a built-in MIPS-class datapath
//! tv session [--journal F | --resume F] # long-lived REPL, crash-safe with a journal
//! tv batch   <script> [--resume F] # replay a session script deterministically
//! tv serve   [--listen ADDR | --unix PATH] # multi-tenant session server
//! tv client  [--connect ADDR | --unix PATH] [script] # replay a script remotely
//! tv loadgen [--connect ADDR | --unix PATH] <script> # concurrent load + percentiles
//! tv fuzz    [--iters N] [--seed S] [--faults] # deterministic ingest/fault fuzzing
//! tv chaos   [--seeds N]           # seeded fault sweeps over a golden workload
//! tv trace-check <trace.json>      # validate a Chrome trace written by --trace
//! ```
//!
//! Every subcommand additionally accepts the observability flags:
//! `--profile` prints a wall-clock span summary and the nonzero
//! deterministic counters to stderr; `--trace FILE` writes the span tree
//! as a Chrome trace-event file (load in `chrome://tracing` or
//! Perfetto); `--metrics FILE` writes the deterministic counter dump as
//! JSON — bit-identical across `--jobs` values, which `tv trace-check`
//! and the committed counter goldens enforce.
//!
//! `session` holds one design resident behind the pass pipeline: edits
//! (`edit resize|setcap|adddev|rmdev|retech ...`) bump its revision, and
//! each `analyze` re-runs only the passes whose inputs changed, replying
//! with the pass trace and the report's golden fingerprint. `batch` runs
//! the same loop over a script file, so a committed script plus its
//! transcript pin the protocol bit-for-bit (see `nmos_tv::session`).
//!
//! Malformed `.sim` input no longer stops at the first bad line: the
//! recovering parser reports *every* problem (`--max-errors` caps the
//! count, `--diag-format json` switches to machine-readable output) and
//! analyzes whatever parsed. `--jobs N` fans graph construction and
//! levelized propagation out over `N` threads (`0` = all cores) with
//! bit-identical results; `--relax-budget` / `--deadline` bound the work
//! a pathological netlist can consume, returning partial results.
//!
//! Exit status: `0` clean, `1` analysis failure (unreadable or
//! unrecoverable input, parse errors, exhausted resource guards), `2`
//! usage error, `3` timing/electrical violations — for `analyze` only
//! when `--check` asks for violation gating.

use std::process::ExitCode;
use std::time::Duration;

use nmos_tv::clocks::TwoPhaseClock;
use nmos_tv::core::{AnalysisOptions, Analyzer, DelayModel, TvError};
use nmos_tv::flow::{analyze as flow_analyze, RuleSet};
use nmos_tv::netlist::{sim_format, spice, Diagnostics, Netlist, Tech};

const EXIT_CLEAN: u8 = 0;
const EXIT_FAILURE: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_VIOLATIONS: u8 = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("tv: {e}");
            if matches!(e, TvError::Usage(_)) {
                eprintln!();
                eprintln!("{USAGE}");
                ExitCode::from(EXIT_USAGE)
            } else {
                ExitCode::from(EXIT_FAILURE)
            }
        }
    }
}

const USAGE: &str = "usage:
  tv analyze <file.sim> [--cycle NS] [--no-case] [--model lumped|elmore|upper]
                        [--top K] [--jobs N] [--check]
                        [--relax-budget N] [--deadline SECS]
                        [--max-nodes N] [--max-arcs N]
  tv check   <file.sim>
  tv flow    <file.sim>
  tv query   <file.sim> <from-node> <to-node>
  tv spice   <file.sim>
  tv gen     [--cores N] [--out FILE] generate a multi-core MIPS-class design
                                     (default: the smallest core count past
                                     one million devices; stdout without --out)
  tv demo    [--jobs N]
  tv session [engine flags]          commands on stdin, one JSON reply per line
             [--journal FILE]        append each accepted command to a crash-safe journal
             [--resume FILE]         replay a journal to its exact state, then continue
  tv batch   <script> [engine flags] replay a session script from a file
             [--resume FILE]         resume a journal before running the script
  tv serve   [--listen ADDR]         serve sessions over TCP (default 127.0.0.1:7683)
             [--unix PATH]           ... or over a unix socket instead
             [--max-sessions N]      global concurrent-session cap (default 64)
             [--max-tenant N]        per-tenant session cap (default 8)
             [--journal-dir DIR]     crash-safe per-tenant journals + resume
  tv client  [--connect ADDR | --unix PATH] [script]
             [--tenant NAME]         tenant identity (default \"cli\")
                                     replay a script (or stdin) against a server;
                                     the transcript matches `tv batch` exactly
  tv loadgen [--connect ADDR | --unix PATH] <script>
             [--clients N]           concurrent connections (default 8)
             [--repeat N]            script replays per client (default 1)
                                     prints one JSON object: throughput + p50/p95/p99
  tv fuzz    [--iters N] [--seed S] [--faults]
                                     --faults drives seeded fault plans through
                                     random session scripts
  tv chaos   [--seeds N] [--jobs N]  sweep N seeded fault plans over a golden
                                     workload, asserting the recovery contract
  tv trace-check <trace.json>        validate a Chrome trace written by --trace

diagnostics (all netlist-reading subcommands):
  --max-errors N        stop reporting parse errors after N (default 20)
  --diag-format FMT     text (default) or json

observability (all subcommands):
  --profile             span summary + nonzero counters to stderr
  --trace FILE          Chrome trace-event JSON (chrome://tracing, Perfetto)
  --metrics FILE        deterministic counter dump as JSON

exit status:
  0  clean
  1  analysis failure: unreadable/unrecoverable input, parse errors,
     exhausted resource guards (--relax-budget / --deadline), fuzz findings
  2  usage error (unknown subcommand or flag, missing argument)
  3  violations found (negative slack, races, electrical issues,
     unresolved pass directions); for `analyze` only with --check";

/// Everything the flag parser produces: engine options plus CLI-only
/// ingest and gating knobs.
struct Cli {
    options: AnalysisOptions,
    max_errors: usize,
    json: bool,
    check: bool,
    journal: Option<String>,
    resume: Option<String>,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            options: AnalysisOptions::default(),
            max_errors: 20,
            json: false,
            check: false,
            journal: None,
            resume: None,
        }
    }
}

/// The observability surface: which planes to enable and where the
/// outputs go. Parsed twice — once by a pre-scan in `run` (the planes
/// must be live before any subcommand work starts) and once by each
/// subcommand's `parse_cli` (so the flags are accepted, not rejected as
/// unknown).
#[derive(Default, Clone)]
struct ObsFlags {
    profile: bool,
    trace: Option<String>,
    metrics: Option<String>,
}

impl ObsFlags {
    /// Pre-scan of the raw argument list, using the same
    /// value-consuming rules as `split_flags` so a flag value can never
    /// be misread as a flag. `--trace`/`--metrics` need a filename
    /// operand: a missing one, or a following token that is itself a
    /// flag (`tv analyze --trace --profile x.sim` would otherwise write
    /// a file literally named `--profile`), is a usage error.
    fn scan(args: &[String]) -> Result<ObsFlags, TvError> {
        let mut obs = ObsFlags::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--profile" => obs.profile = true,
                "--trace" => obs.trace = Some(file_operand(a, it.next())?),
                "--metrics" => obs.metrics = Some(file_operand(a, it.next())?),
                f if f.starts_with("--") && takes_value(f) => {
                    it.next();
                }
                _ => {}
            }
        }
        Ok(obs)
    }

    /// Turns on the planes the requested outputs need.
    fn activate(&self) {
        if self.profile || self.trace.is_some() {
            nmos_tv::obs::spans::set_enabled(true);
        }
        if self.profile || self.metrics.is_some() {
            nmos_tv::obs::counters::set_enabled(true);
        }
    }

    /// Writes the requested outputs after the subcommand ran. The
    /// profile summary goes to stderr so it composes with report output
    /// on stdout. Each file write crosses a fault site (`trace_write`,
    /// `metrics_write`); an injected — or genuinely transient — failure
    /// is retried once before it surfaces as the run's error.
    fn finish(&self) -> Result<(), TvError> {
        let write = |path: &String, text: String, site: nmos_tv::fault::Site| {
            let first = match nmos_tv::fault::io_error(site) {
                Some(e) => {
                    nmos_tv::obs::incr(nmos_tv::obs::Counter::FaultInjected);
                    Err(e)
                }
                None => std::fs::write(path, &text),
            };
            first
                .or_else(|_| {
                    nmos_tv::obs::incr(nmos_tv::obs::Counter::FaultRetries);
                    std::fs::write(path, &text)
                })
                .map_err(|e| TvError::Io {
                    path: path.clone(),
                    source: e,
                })
        };
        if self.profile || self.trace.is_some() {
            let events = nmos_tv::obs::spans::take_events();
            if let Some(path) = &self.trace {
                write(
                    path,
                    nmos_tv::obs::trace::render_chrome(&events),
                    nmos_tv::fault::Site::TraceWrite,
                )?;
            }
            if self.profile {
                eprint!("{}", nmos_tv::obs::spans::render_summary(&events));
            }
        }
        if self.profile || self.metrics.is_some() {
            let snap = nmos_tv::obs::counters::snapshot();
            if let Some(path) = &self.metrics {
                write(
                    path,
                    format!("{}\n", snap.render_json()),
                    nmos_tv::fault::Site::MetricsWrite,
                )?;
            }
            if self.profile {
                eprint!("{}", snap.render_table());
            }
        }
        Ok(())
    }
}

/// Activates the observability planes before dispatch and flushes their
/// outputs after, so `--profile`/`--trace`/`--metrics` compose with any
/// subcommand. Outputs are written even when the subcommand exits
/// nonzero (a failing run is exactly when a profile is wanted), but a
/// dispatch error suppresses them — nothing ran.
fn run(args: &[String]) -> Result<u8, TvError> {
    let obs = ObsFlags::scan(args)?;
    obs.activate();
    // `--fault-seed N` arms one seeded fault plan for this whole
    // invocation — the binary-level hook the fault-injection integration
    // tests drive (`tv chaos` sweeps seeds in-process instead).
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fault-seed" => {
                let v = it
                    .next()
                    .ok_or_else(|| TvError::Usage("--fault-seed needs a value".into()))?;
                let seed: u64 = v
                    .parse()
                    .map_err(|_| TvError::Usage(format!("bad fault seed {v:?}")))?;
                nmos_tv::fault::arm(nmos_tv::fault::FaultPlan::from_seed(seed));
            }
            f if f.starts_with("--") && takes_value(f) => {
                it.next();
            }
            _ => {}
        }
    }
    let code = run_inner(args)?;
    obs.finish()?;
    Ok(code)
}

fn run_inner(args: &[String]) -> Result<u8, TvError> {
    let cmd = args
        .first()
        .ok_or_else(|| TvError::Usage("missing subcommand".into()))?;
    match cmd.as_str() {
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(EXIT_CLEAN)
        }
        "analyze" => {
            let cli = parse_cli(&args[2..])?;
            let (netlist, diags) = load(&args[1..], &cli)?;
            let dirty_parse = emit_diags(&diags, args.get(1), &cli);
            let report = Analyzer::new(&netlist).try_run(&cli.options)?;
            print!("{}", report.render(&netlist));
            let slack_ok = report
                .phases
                .iter()
                .all(|p| p.slack.is_none_or(|s| s >= 0.0));
            let race_free = report.phases.iter().all(|p| p.races.is_empty());
            let violations = !(report.checks.is_empty() && slack_ok && race_free);
            if dirty_parse || !report.is_complete() {
                Ok(EXIT_FAILURE)
            } else if cli.check && violations {
                Ok(EXIT_VIOLATIONS)
            } else {
                Ok(EXIT_CLEAN)
            }
        }
        "check" => {
            let cli = parse_cli(&args[2..])?;
            let (netlist, diags) = load(&args[1..], &cli)?;
            let dirty_parse = emit_diags(&diags, args.get(1), &cli);
            let report = Analyzer::new(&netlist).run(&cli.options);
            if report.checks.is_empty() {
                println!("electrical checks: clean");
            } else {
                for issue in &report.checks {
                    println!("{}", issue.display(&netlist));
                }
            }
            if dirty_parse {
                Ok(EXIT_FAILURE)
            } else if report.checks.is_empty() {
                Ok(EXIT_CLEAN)
            } else {
                Ok(EXIT_VIOLATIONS)
            }
        }
        "flow" => {
            let cli = parse_cli(&args[2..])?;
            let (netlist, diags) = load(&args[1..], &cli)?;
            let dirty_parse = emit_diags(&diags, args.get(1), &cli);
            let flow = flow_analyze(&netlist, &RuleSet::all());
            println!("{}", flow.report(&netlist));
            if dirty_parse {
                Ok(EXIT_FAILURE)
            } else if flow.unresolved(&netlist).count() == 0 {
                Ok(EXIT_CLEAN)
            } else {
                Ok(EXIT_VIOLATIONS)
            }
        }
        "query" => {
            let (flags, rest) = split_flags(&args[1..]);
            let cli = parse_cli(&flags)?;
            let [path, from_name, to_name] = rest.as_slice() else {
                return Err(TvError::Usage(
                    "query needs <file.sim> <from-node> <to-node>".into(),
                ));
            };
            let (netlist, diags) = load(std::slice::from_ref(path), &cli)?;
            let dirty_parse = emit_diags(&diags, Some(path), &cli);
            let from = netlist
                .node_by_name(from_name)
                .ok_or_else(|| TvError::UnknownNode(from_name.clone()))?;
            let to = netlist
                .node_by_name(to_name)
                .ok_or_else(|| TvError::UnknownNode(to_name.clone()))?;
            match Analyzer::new(&netlist).path_query(from, to, &cli.options) {
                Some(path) => {
                    println!(
                        "worst path {} -> {}: {:.3} ns, {} steps",
                        from_name,
                        to_name,
                        path.arrival(),
                        path.len()
                    );
                    print!("{}", path.display(&netlist));
                    Ok(if dirty_parse {
                        EXIT_FAILURE
                    } else {
                        EXIT_CLEAN
                    })
                }
                None => {
                    println!("{to_name} is not reachable from {from_name}");
                    Ok(EXIT_FAILURE)
                }
            }
        }
        "spice" => {
            let cli = parse_cli(&args[2..])?;
            let (netlist, diags) = load(&args[1..], &cli)?;
            let dirty_parse = emit_diags(&diags, args.get(1), &cli);
            print!("{}", spice::write(&netlist));
            Ok(if dirty_parse {
                EXIT_FAILURE
            } else {
                EXIT_CLEAN
            })
        }
        "gen" => {
            let (cores, out) = parse_gen(&args[1..])?;
            let mc = nmos_tv::gen::mips_mc::t6_mips_mc(Tech::nmos4um(), cores);
            let text = sim_format::write(&mc.netlist);
            match &out {
                Some(path) => std::fs::write(path, &text).map_err(|e| TvError::Io {
                    path: path.clone(),
                    source: e,
                })?,
                None => print!("{text}"),
            }
            // The summary goes to stderr so `tv gen > file.sim` stays a
            // clean netlist on stdout.
            eprintln!(
                "generated {cores}-core design: {} devices, {} nodes, {} bytes{}",
                mc.netlist.device_count(),
                mc.netlist.node_count(),
                text.len(),
                out.map(|p| format!(" -> {p}")).unwrap_or_default()
            );
            Ok(EXIT_CLEAN)
        }
        "demo" => {
            let cli = parse_cli(&args[1..])?;
            let dp = nmos_tv::gen::datapath::datapath(
                Tech::nmos4um(),
                nmos_tv::gen::datapath::DatapathConfig::mips32(),
            );
            let report = Analyzer::new(&dp.netlist).run(&cli.options);
            print!("{}", report.render(&dp.netlist));
            Ok(EXIT_CLEAN)
        }
        "session" => {
            let cli = parse_cli(&args[1..])?;
            if cli.journal.is_some() && cli.resume.is_some() {
                return Err(TvError::Usage(
                    "--journal and --resume are mutually exclusive (resume keeps \
                     appending to the journal it replays)"
                        .into(),
                ));
            }
            let stdin = std::io::stdin();
            let mut out = std::io::stdout();
            let code = nmos_tv::session::run_session_with(
                stdin.lock(),
                &mut out,
                cli.options,
                cli.max_errors,
                cli.journal.as_deref(),
                cli.resume.as_deref(),
            )
            .map_err(|e| TvError::Io {
                path: "<stdin>".into(),
                source: e,
            })?;
            Ok(code)
        }
        "batch" => {
            let (flags, rest) = split_flags(&args[1..]);
            let cli = parse_cli(&flags)?;
            let [script] = rest.as_slice() else {
                return Err(TvError::Usage("batch needs <script>".into()));
            };
            let text = std::fs::read_to_string(script).map_err(|e| TvError::Io {
                path: script.clone(),
                source: e,
            })?;
            let mut out = std::io::stdout();
            let code = nmos_tv::session::run_session_with(
                std::io::Cursor::new(text),
                &mut out,
                cli.options,
                cli.max_errors,
                cli.journal.as_deref(),
                cli.resume.as_deref(),
            )
            .map_err(|e| TvError::Io {
                path: script.clone(),
                source: e,
            })?;
            Ok(code)
        }
        "serve" => {
            let (listen, unix, config) = parse_serve(&args[1..])?;
            let handle = match (listen, unix) {
                (Some(_), Some(_)) => {
                    return Err(TvError::Usage(
                        "--listen and --unix are mutually exclusive".into(),
                    ))
                }
                #[cfg(unix)]
                (None, Some(path)) => nmos_tv::serve::server::serve_unix(&path, config),
                #[cfg(not(unix))]
                (None, Some(_)) => {
                    return Err(TvError::Usage(
                        "--unix is not available on this platform".into(),
                    ))
                }
                (listen, None) => nmos_tv::serve::server::serve_tcp(
                    listen.as_deref().unwrap_or("127.0.0.1:7683"),
                    config,
                ),
            }
            .map_err(|e| TvError::Io {
                path: "<listener>".into(),
                source: e,
            })?;
            // The banner goes to stderr so scripted callers parsing
            // stdout see nothing until they connect.
            eprintln!("tv serve: listening on {}", handle.endpoint());
            handle.wait();
            Ok(EXIT_CLEAN)
        }
        "client" => {
            let (flags, rest) = split_flags(&args[1..]);
            let (endpoint, tenant, limits) = parse_client(&flags)?;
            let mut stream = endpoint.connect().map_err(|e| TvError::Io {
                path: endpoint.to_string(),
                source: e,
            })?;
            let mut out = std::io::stdout();
            let result = match rest.as_slice() {
                [] => {
                    let stdin = std::io::stdin();
                    nmos_tv::serve::client::run_client(
                        &mut stream,
                        &tenant,
                        limits,
                        stdin.lock(),
                        &mut out,
                    )
                }
                [script] => {
                    let text = std::fs::read_to_string(script).map_err(|e| TvError::Io {
                        path: script.clone(),
                        source: e,
                    })?;
                    nmos_tv::serve::client::run_client(
                        &mut stream,
                        &tenant,
                        limits,
                        std::io::Cursor::new(text),
                        &mut out,
                    )
                }
                _ => return Err(TvError::Usage("client takes at most one <script>".into())),
            };
            match result {
                Ok(code) => Ok(code),
                Err(e) => {
                    eprintln!("tv client: {e}");
                    Ok(EXIT_FAILURE)
                }
            }
        }
        "loadgen" => {
            let (flags, rest) = split_flags(&args[1..]);
            let (endpoint, config) = parse_loadgen(&flags)?;
            let [script] = rest.as_slice() else {
                return Err(TvError::Usage("loadgen needs <script>".into()));
            };
            let text = std::fs::read_to_string(script).map_err(|e| TvError::Io {
                path: script.clone(),
                source: e,
            })?;
            let lines: Vec<String> = text.lines().map(str::to_string).collect();
            match nmos_tv::serve::loadgen::run_loadgen(&endpoint, &lines, &config) {
                Ok(report) => {
                    println!("{}", report.render_json());
                    Ok(EXIT_CLEAN)
                }
                Err(msg) => {
                    eprintln!("tv loadgen: {msg}");
                    Ok(EXIT_FAILURE)
                }
            }
        }
        "chaos" => {
            let (seeds, options) = parse_chaos(&args[1..])?;
            let report = nmos_tv::chaos::run_chaos(seeds, &options).map_err(|e| TvError::Io {
                path: "<chaos temp files>".into(),
                source: e,
            })?;
            println!("{report}");
            Ok(if report.is_clean() {
                EXIT_CLEAN
            } else {
                EXIT_FAILURE
            })
        }
        "trace-check" => {
            let (flags, rest) = split_flags(&args[1..]);
            parse_cli(&flags)?;
            let [path] = rest.as_slice() else {
                return Err(TvError::Usage("trace-check needs <trace.json>".into()));
            };
            let text = std::fs::read_to_string(path).map_err(|e| TvError::Io {
                path: path.clone(),
                source: e,
            })?;
            match nmos_tv::obs::trace::validate(&text) {
                Ok(n) => {
                    println!("trace ok: {n} event(s), spans nest");
                    Ok(EXIT_CLEAN)
                }
                Err(msg) => {
                    // A truncated or garbage trace is a coded diagnostic
                    // and exit 1, never a panic (TV0505).
                    let d = nmos_tv::netlist::Diagnostic::error(
                        nmos_tv::netlist::codes::OBS_BAD_TRACE,
                        format!("invalid trace: {msg}"),
                    );
                    eprintln!("{}", d.render_text(Some(path)));
                    Ok(EXIT_FAILURE)
                }
            }
        }
        "fuzz" => {
            let (iters, seed, faults) = parse_fuzz(&args[1..])?;
            if faults {
                let report = nmos_tv::fuzz::run_faults(iters.unwrap_or(60), seed).map_err(|e| {
                    TvError::Io {
                        path: "<fuzz session>".into(),
                        source: e,
                    }
                })?;
                println!("{report}");
                return Ok(if report.is_clean() {
                    EXIT_CLEAN
                } else {
                    EXIT_FAILURE
                });
            }
            let report = nmos_tv::fuzz::run(iters.unwrap_or(500), seed);
            println!("{report}");
            Ok(if report.is_clean() {
                EXIT_CLEAN
            } else {
                EXIT_FAILURE
            })
        }
        other => Err(TvError::Usage(format!("unknown subcommand {other:?}"))),
    }
}

/// Loads the `.sim` file named by the first argument with the recovering
/// parser; returns the (possibly partial) netlist and the diagnostics the
/// parse accumulated.
fn load(args: &[String], cli: &Cli) -> Result<(Netlist, Diagnostics), TvError> {
    let path = args
        .first()
        .ok_or_else(|| TvError::Usage("missing <file.sim>".into()))?;
    let text = match nmos_tv::fault::io_error(nmos_tv::fault::Site::SimRead) {
        Some(e) => {
            nmos_tv::obs::incr(nmos_tv::obs::Counter::FaultInjected);
            Err(e)
        }
        None => std::fs::read_to_string(path),
    }
    .map_err(|e| TvError::Io {
        path: path.clone(),
        source: e,
    })?;
    let mut diags = Diagnostics::with_max_errors(cli.max_errors);
    let popts = sim_format::ParseOptions {
        jobs: cli.options.effective_jobs(),
        ..sim_format::ParseOptions::default()
    };
    let netlist = sim_format::parse_recovering_with(&text, Tech::nmos4um(), &mut diags, &popts)
        .map_err(|e| TvError::Parse {
            path: path.clone(),
            message: e.to_string(),
        })?;
    Ok((netlist, diags))
}

/// Prints accumulated diagnostics to stderr in the requested format.
/// Returns whether any were errors (the input was not clean).
fn emit_diags(diags: &Diagnostics, path: Option<&String>, cli: &Cli) -> bool {
    let path = path.map(|p| p.as_str());
    if !diags.is_empty() {
        if cli.json {
            eprintln!("{}", diags.render_json(path));
        } else {
            eprint!("{}", diags.render_text(path));
        }
    }
    diags.has_errors()
}

/// Splits `args` into (flags-with-values, positional operands) so
/// `query <file> <from> <to> --jobs 2` parses in any order.
fn split_flags(args: &[String]) -> (Vec<String>, Vec<String>) {
    let mut flags = Vec::new();
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a.starts_with("--") {
            flags.push(a.clone());
            if takes_value(a) {
                if let Some(v) = it.next() {
                    flags.push(v.clone());
                }
            }
        } else {
            rest.push(a.clone());
        }
    }
    (flags, rest)
}

/// Validates the filename operand of an output flag (`--trace`,
/// `--metrics`): it must exist and must not look like another flag.
fn file_operand(flag: &str, v: Option<&String>) -> Result<String, TvError> {
    match v {
        None => Err(TvError::Usage(format!("{flag} needs a filename"))),
        Some(v) if v.starts_with("--") => Err(TvError::Usage(format!(
            "{flag} needs a filename, got flag {v:?}"
        ))),
        Some(v) => Ok(v.clone()),
    }
}

fn takes_value(flag: &str) -> bool {
    matches!(
        flag,
        "--cycle"
            | "--model"
            | "--top"
            | "--jobs"
            | "--max-errors"
            | "--diag-format"
            | "--relax-budget"
            | "--deadline"
            | "--max-nodes"
            | "--max-arcs"
            | "--iters"
            | "--seed"
            | "--seeds"
            | "--cores"
            | "--out"
            | "--trace"
            | "--metrics"
            | "--journal"
            | "--resume"
            | "--fault-seed"
            | "--listen"
            | "--unix"
            | "--connect"
            | "--max-sessions"
            | "--max-tenant"
            | "--journal-dir"
            | "--tenant"
            | "--clients"
            | "--repeat"
    )
}

/// The one shared option parser: walks a `--flag [value]` list with
/// uniform "needs a value" / "bad value" errors. Every subcommand's flag
/// set — the engine flags, the fuzzer's, and the session grammar on top
/// of them — goes through this walker instead of hand-rolling its own
/// `it.next()` boilerplate.
struct Flags<'a> {
    it: std::slice::Iter<'a, String>,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags { it: args.iter() }
    }

    /// The next flag token, if any.
    fn next_flag(&mut self) -> Option<&'a str> {
        self.it.next().map(|s| s.as_str())
    }

    /// The value operand of `flag`, or a usage error naming it.
    fn value(&mut self, flag: &str) -> Result<&'a str, TvError> {
        self.it
            .next()
            .map(|s| s.as_str())
            .ok_or_else(|| TvError::Usage(format!("{flag} needs a value")))
    }

    /// The value operand of `flag`, parsed; a parse failure reports
    /// `bad <what> <value>`.
    fn parsed<T: std::str::FromStr>(&mut self, flag: &str, what: &str) -> Result<T, TvError> {
        let v = self.value(flag)?;
        v.parse()
            .map_err(|_| TvError::Usage(format!("bad {what} {v:?}")))
    }
}

fn parse_cli(args: &[String]) -> Result<Cli, TvError> {
    let mut cli = Cli::default();
    let mut fl = Flags::new(args);
    while let Some(flag) = fl.next_flag() {
        match flag {
            "--no-case" => cli.options.case_analysis = false,
            "--check" => cli.check = true,
            "--cycle" => {
                let cycle: f64 = fl.parsed(flag, "cycle")?;
                if !cycle.is_finite() || cycle <= 0.0 {
                    return Err(TvError::Usage(format!(
                        "cycle must be positive, got {cycle:?}"
                    )));
                }
                cli.options.clock = TwoPhaseClock::symmetric(cycle, cycle * 0.02);
            }
            "--model" => {
                cli.options.model = match fl.value(flag)? {
                    "lumped" => DelayModel::Lumped,
                    "elmore" => DelayModel::Elmore,
                    "upper" => DelayModel::UpperBound,
                    other => return Err(TvError::Usage(format!("unknown model {other:?}"))),
                };
            }
            "--top" => cli.options.top_k = fl.parsed(flag, "top-k")?,
            "--jobs" => cli.options.jobs = fl.parsed(flag, "job count")?,
            "--max-errors" => cli.max_errors = fl.parsed(flag, "error cap")?,
            "--diag-format" => {
                cli.json = match fl.value(flag)? {
                    "text" => false,
                    "json" => true,
                    other => return Err(TvError::Usage(format!("unknown diag format {other:?}"))),
                };
            }
            "--relax-budget" => {
                cli.options.relax_budget = Some(fl.parsed(flag, "relaxation budget")?)
            }
            "--deadline" => {
                let secs: f64 = fl.parsed(flag, "deadline")?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(TvError::Usage(format!(
                        "deadline must be positive, got {secs:?}"
                    )));
                }
                cli.options.deadline = Some(Duration::from_secs_f64(secs));
            }
            "--max-nodes" => cli.options.max_nodes = Some(fl.parsed(flag, "node limit")?),
            "--max-arcs" => cli.options.max_arcs = Some(fl.parsed(flag, "arc limit")?),
            "--journal" => {
                let v = fl.value(flag)?.to_string();
                cli.journal = Some(file_operand(flag, Some(&v))?);
            }
            "--resume" => {
                let v = fl.value(flag)?.to_string();
                cli.resume = Some(file_operand(flag, Some(&v))?);
            }
            // The observability flags were already consumed by the
            // `ObsFlags::scan` pre-pass in `run`; accept them here so
            // subcommand parsers don't reject them as unknown, with the
            // same filename-operand validation as the pre-scan.
            "--profile" => {}
            "--trace" | "--metrics" => {
                let v = fl.value(flag)?.to_string();
                file_operand(flag, Some(&v))?;
            }
            // Consumed by the fault-plane pre-scan in `run`.
            "--fault-seed" => {
                fl.value(flag)?;
            }
            other => return Err(TvError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    Ok(cli)
}

/// Fuzz flags. `iters` stays `None` when unset so each mode picks its
/// own default (500 parse-fuzz iterations, 60 fault-fuzz iterations —
/// the latter runs two full sessions per iteration).
fn parse_fuzz(args: &[String]) -> Result<(Option<usize>, u64, bool), TvError> {
    let mut iters = None;
    let mut seed = 0x7001u64;
    let mut faults = false;
    let mut fl = Flags::new(args);
    while let Some(flag) = fl.next_flag() {
        match flag {
            "--iters" => iters = Some(fl.parsed(flag, "iteration count")?),
            "--seed" => seed = fl.parsed(flag, "seed")?,
            "--faults" => faults = true,
            "--profile" => {}
            "--trace" | "--metrics" => {
                let v = fl.value(flag)?.to_string();
                file_operand(flag, Some(&v))?;
            }
            other => return Err(TvError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    Ok((iters, seed, faults))
}

/// Gen flags: the multi-core tiling size and the output file. Defaults
/// to the smallest core count that crosses one million devices; with no
/// `--out` the netlist goes to stdout.
fn parse_gen(args: &[String]) -> Result<(usize, Option<String>), TvError> {
    let mut cores = nmos_tv::gen::mips_mc::MILLION_DEVICE_CORES;
    let mut out = None;
    let mut fl = Flags::new(args);
    while let Some(flag) = fl.next_flag() {
        match flag {
            "--cores" => {
                cores = fl.parsed(flag, "core count")?;
                if cores == 0 {
                    return Err(TvError::Usage("core count must be positive".into()));
                }
            }
            "--out" => {
                let v = fl.value(flag)?.to_string();
                out = Some(file_operand(flag, Some(&v))?);
            }
            "--profile" => {}
            "--trace" | "--metrics" => {
                let v = fl.value(flag)?.to_string();
                file_operand(flag, Some(&v))?;
            }
            other => return Err(TvError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    Ok((cores, out))
}

/// Serve flags: where to listen plus the admission caps, the journal
/// directory, and the engine ceilings hosted sessions start from.
#[allow(clippy::type_complexity)]
fn parse_serve(
    args: &[String],
) -> Result<(Option<String>, Option<String>, nmos_tv::serve::ServeConfig), TvError> {
    let mut listen = None;
    let mut unix = None;
    let mut config = nmos_tv::serve::ServeConfig::default();
    let mut fl = Flags::new(args);
    while let Some(flag) = fl.next_flag() {
        match flag {
            "--listen" => listen = Some(fl.value(flag)?.to_string()),
            "--unix" => unix = Some(fl.value(flag)?.to_string()),
            "--max-sessions" => {
                config.max_sessions = fl.parsed(flag, "session cap")?;
                if config.max_sessions == 0 {
                    return Err(TvError::Usage("session cap must be positive".into()));
                }
            }
            "--max-tenant" => {
                config.max_per_tenant = fl.parsed(flag, "tenant cap")?;
                if config.max_per_tenant == 0 {
                    return Err(TvError::Usage("tenant cap must be positive".into()));
                }
            }
            "--journal-dir" => {
                let v = fl.value(flag)?.to_string();
                config.journal_dir = Some(file_operand(flag, Some(&v))?);
            }
            "--jobs" => config.options.jobs = fl.parsed(flag, "job count")?,
            "--max-errors" => config.max_errors = fl.parsed(flag, "error cap")?,
            "--relax-budget" => {
                config.options.relax_budget = Some(fl.parsed(flag, "relaxation budget")?)
            }
            "--deadline" => {
                let secs: f64 = fl.parsed(flag, "deadline")?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(TvError::Usage(format!(
                        "deadline must be positive, got {secs:?}"
                    )));
                }
                config.options.deadline = Some(Duration::from_secs_f64(secs));
            }
            "--max-nodes" => config.options.max_nodes = Some(fl.parsed(flag, "node limit")?),
            "--max-arcs" => config.options.max_arcs = Some(fl.parsed(flag, "arc limit")?),
            "--profile" => {}
            "--trace" | "--metrics" => {
                let v = fl.value(flag)?.to_string();
                file_operand(flag, Some(&v))?;
            }
            "--fault-seed" => {
                fl.value(flag)?;
            }
            other => return Err(TvError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    Ok((listen, unix, config))
}

/// Resolves the client-side `--connect ADDR` / `--unix PATH` pair into
/// an [`Endpoint`](nmos_tv::serve::server::Endpoint). Exactly one may be
/// given; neither means the default TCP address `tv serve` binds.
fn parse_endpoint(
    connect: Option<String>,
    unix: Option<String>,
) -> Result<nmos_tv::serve::server::Endpoint, TvError> {
    use std::net::ToSocketAddrs;
    match (connect, unix) {
        (Some(_), Some(_)) => Err(TvError::Usage(
            "--connect and --unix are mutually exclusive".into(),
        )),
        #[cfg(unix)]
        (None, Some(path)) => Ok(nmos_tv::serve::server::Endpoint::Unix(path.into())),
        #[cfg(not(unix))]
        (None, Some(_)) => Err(TvError::Usage(
            "--unix is not available on this platform".into(),
        )),
        (connect, None) => {
            let spec = connect.unwrap_or_else(|| "127.0.0.1:7683".into());
            let addr = spec
                .to_socket_addrs()
                .map_err(|_| TvError::Usage(format!("cannot resolve address {spec:?}")))?
                .next()
                .ok_or_else(|| TvError::Usage(format!("cannot resolve address {spec:?}")))?;
            Ok(nmos_tv::serve::server::Endpoint::Tcp(addr))
        }
    }
}

/// Client flags: the endpoint, the tenant identity, and the resource
/// asks (`--relax-budget`, `--deadline`, `--max-nodes`) forwarded in
/// `hello` — the server clamps them against its own ceilings.
fn parse_client(
    args: &[String],
) -> Result<
    (
        nmos_tv::serve::server::Endpoint,
        String,
        nmos_tv::proto::Limits,
    ),
    TvError,
> {
    let mut connect = None;
    let mut unix = None;
    let mut tenant = "cli".to_string();
    let mut limits = nmos_tv::proto::Limits::default();
    let mut fl = Flags::new(args);
    while let Some(flag) = fl.next_flag() {
        match flag {
            "--connect" => connect = Some(fl.value(flag)?.to_string()),
            "--unix" => unix = Some(fl.value(flag)?.to_string()),
            "--tenant" => tenant = fl.value(flag)?.to_string(),
            "--relax-budget" => limits.relax_budget = Some(fl.parsed(flag, "relaxation budget")?),
            "--deadline" => {
                let secs: f64 = fl.parsed(flag, "deadline")?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(TvError::Usage(format!(
                        "deadline must be positive, got {secs:?}"
                    )));
                }
                limits.deadline_ms = Some((secs * 1000.0).ceil() as u64);
            }
            "--max-nodes" => limits.max_nodes = Some(fl.parsed(flag, "node limit")?),
            "--profile" => {}
            "--trace" | "--metrics" => {
                let v = fl.value(flag)?.to_string();
                file_operand(flag, Some(&v))?;
            }
            "--fault-seed" => {
                fl.value(flag)?;
            }
            other => return Err(TvError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    Ok((parse_endpoint(connect, unix)?, tenant, limits))
}

/// Loadgen flags: the endpoint plus the run shape (`--clients`,
/// `--repeat`).
fn parse_loadgen(
    args: &[String],
) -> Result<
    (
        nmos_tv::serve::server::Endpoint,
        nmos_tv::serve::loadgen::LoadgenConfig,
    ),
    TvError,
> {
    let mut connect = None;
    let mut unix = None;
    let mut config = nmos_tv::serve::loadgen::LoadgenConfig::default();
    let mut fl = Flags::new(args);
    while let Some(flag) = fl.next_flag() {
        match flag {
            "--connect" => connect = Some(fl.value(flag)?.to_string()),
            "--unix" => unix = Some(fl.value(flag)?.to_string()),
            "--clients" => {
                config.clients = fl.parsed(flag, "client count")?;
                if config.clients == 0 {
                    return Err(TvError::Usage("client count must be positive".into()));
                }
            }
            "--repeat" => {
                config.repeat = fl.parsed(flag, "repeat count")?;
                if config.repeat == 0 {
                    return Err(TvError::Usage("repeat count must be positive".into()));
                }
            }
            "--profile" => {}
            "--trace" | "--metrics" => {
                let v = fl.value(flag)?.to_string();
                file_operand(flag, Some(&v))?;
            }
            "--fault-seed" => {
                fl.value(flag)?;
            }
            other => return Err(TvError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    Ok((parse_endpoint(connect, unix)?, config))
}

/// Chaos flags: the sweep size and the engine's worker count (the one
/// engine knob that changes which recovery paths a sweep crosses).
fn parse_chaos(args: &[String]) -> Result<(u64, AnalysisOptions), TvError> {
    let mut seeds = 64u64;
    let mut options = AnalysisOptions::default();
    let mut fl = Flags::new(args);
    while let Some(flag) = fl.next_flag() {
        match flag {
            "--seeds" => seeds = fl.parsed(flag, "seed count")?,
            "--jobs" => options.jobs = fl.parsed(flag, "job count")?,
            "--profile" => {}
            "--trace" | "--metrics" => {
                let v = fl.value(flag)?.to_string();
                file_operand(flag, Some(&v))?;
            }
            other => return Err(TvError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    Ok((seeds, options))
}
