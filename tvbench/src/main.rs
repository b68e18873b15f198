//! tvbench: the end-to-end and per-layer benchmark of TV's batch,
//! session and served timing analysis. See `TVBENCH.md`.
//!
//! ```text
//! tvbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//!         [--scale full|smoke] [--trace-dir <dir>]
//!     one workload in this process; the last stdout line is the result
//! tvbench --seed <n> [--seconds <s>] [--trace 0|1] [--scale full|smoke]
//!         [--trace-dir <dir>] [--out <file>]
//!     every workload, each in its own child process, collected in <file>
//! tvbench compare A.json... -- B.json...
//!     two sets of --out files, one row per workload and metric
//! ```

mod batch;
mod compare;
mod interactive;
mod layers;
mod report;
mod stats;
mod stream;
mod sut;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use report::{HostWatch, END_TO_END, PER_LAYER};
use workload::{Config, Scale, Workload};

const USAGE: &str = "usage:
  tvbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--scale full|smoke] [--trace-dir <dir>]
  tvbench --seed <n> [--seconds <s>] [--trace 0|1] [--scale full|smoke] [--trace-dir <dir>] [--out <file>]
  tvbench compare A.json... -- B.json...
workloads: t6-batch random-batch session-mips32 serve-mips32";

/// Seconds one run measures unless `--seconds` says otherwise (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

/// Cores available to this process, recorded with every result.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Opts {
    workload: Option<Workload>,
    cfg: Config,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut trace_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out/trace"));
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::by_name(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => scale = Scale::by_name(value).ok_or_else(bad)?,
            "--trace-dir" => trace_dir = PathBuf::from(value),
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Opts {
        workload,
        cfg: Config {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            scale,
            trace,
            trace_dir,
        },
        out,
    })
}

fn run_one(w: Workload, cfg: &Config) -> ExitCode {
    println!(
        "tvbench {} seed={} seconds={} trace={} scale={} nproc={}",
        w.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.scale.name(),
        nproc()
    );
    let watch = HostWatch::start();
    match w.run(cfg) {
        Ok(mut out) => {
            watch.record(&mut out);
            print!("{}", out.human(w.name()));
            let defs = if cfg.trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            println!("{}", out.json(defs));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tvbench: {}: {e}", w.name());
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload in its own child process, so peak memory and
/// allocator state belong to that workload alone.
fn run_all(opts: &Opts) -> ExitCode {
    let cfg = &opts.cfg;
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("tvbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut results = Vec::new();
    let mut ok = true;
    for w in Workload::ALL {
        let child = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &cfg.seed.to_string()])
            .args(["--seconds", &cfg.seconds.to_string()])
            .args(["--trace", if cfg.trace { "1" } else { "0" }])
            .args(["--scale", cfg.scale.name()])
            .arg("--trace-dir")
            .arg(&cfg.trace_dir)
            .stderr(Stdio::inherit())
            .output();
        let output = match child {
            Ok(o) => o,
            Err(e) => {
                eprintln!("tvbench: cannot run {}: {e}", w.name());
                ok = false;
                continue;
            }
        };
        let text = String::from_utf8_lossy(&output.stdout);
        print!("{text}");
        let result = text
            .lines()
            .last()
            .filter(|l| sut::json::parse(l).is_ok())
            .filter(|_| output.status.success());
        match result {
            Some(line) => results.push((w, line.to_string())),
            None => {
                eprintln!("tvbench: {} gave no result ({})", w.name(), output.status);
                ok = false;
            }
        }
    }
    if let Some(path) = &opts.out {
        let runs: Vec<String> = results
            .iter()
            .map(|(w, line)| {
                format!(
                    "    {{\"name\": \"{}\", \"why\": \"{}\", \"result\": {line}}}",
                    w.name(),
                    w.why()
                )
            })
            .collect();
        let doc = format!(
            "{{\n  \"tool\": \"tvbench\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"scale\": \"{}\",\n  \"trace\": {},\n  \"nproc\": {},\n  \"workloads\": [\n{}\n  ]\n}}\n",
            cfg.seed,
            cfg.seconds,
            cfg.scale.name(),
            u8::from(cfg.trace),
            nproc(),
            runs.join(",\n")
        );
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("tvbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_main(args: &[String]) -> ExitCode {
    let split = args.iter().position(|a| a == "--");
    let (a, b) = match split {
        Some(i) if i > 0 && i + 1 < args.len() => (&args[..i], &args[i + 1..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match compare::compare(a, b) {
        Ok((table, any_worse)) => {
            print!("{table}");
            if any_worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("tvbench compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_main(&args[1..]);
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("tvbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match opts.workload {
        Some(w) => run_one(w, &opts.cfg),
        None => run_all(&opts),
    }
}
