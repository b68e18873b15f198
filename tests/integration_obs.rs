//! End-to-end determinism tests for the observability subsystem.
//!
//! The counter plane's contract is structural: **work** counters are
//! bit-identical across `--jobs` counts, deterministic for a fixed
//! command sequence — and a warm run taking the demand-driven cone path
//! legitimately records *less* work than the cold run it shortcuts. The
//! counters are process-global atomics, so exact-value assertions spawn
//! the `tv` binary per measurement instead of sharing this test
//! process — which also exercises the `--metrics`/`--trace` plumbing
//! exactly the way a user does.

use std::path::{Path, PathBuf};
use std::process::Command;

use nmos_tv::gen::{adder, random, regfile, shifter};
use nmos_tv::netlist::{sim_format, Netlist, Tech};
use nmos_tv::obs::json::{self, Value};

fn tv() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tv"))
}

/// The four golden workloads of `integration_layout.rs`, by name.
fn workloads() -> Vec<(&'static str, Netlist)> {
    let t = Tech::nmos4um();
    vec![
        ("adder-16", adder::ripple_carry_adder(t.clone(), 16).netlist),
        (
            "barrel-8x4",
            shifter::barrel_shifter(t.clone(), 8, 4).netlist,
        ),
        (
            "regfile-4x8",
            regfile::register_file(t.clone(), 4, 8).netlist,
        ),
        (
            "random-800",
            random::random_logic(t, 800, 0xA11CE, random::RandomMix::default()).netlist,
        ),
    ]
}

/// A self-cleaning scratch file under the system temp dir.
struct TempPath(PathBuf);

impl TempPath {
    fn new(tag: &str, contents: &str) -> Self {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "tv-obs-{}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos(),
            tag,
        ));
        std::fs::write(&path, contents).expect("write temp file");
        TempPath(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Runs `tv analyze <sim> --jobs N --metrics <out>` and returns the raw
/// metrics dump.
fn metrics_dump(sim: &Path, jobs: u32) -> String {
    let out = TempPath::new("metrics.json", "");
    let status = tv()
        .arg("analyze")
        .arg(sim)
        .args(["--jobs", &jobs.to_string(), "--metrics"])
        .arg(out.path())
        .output()
        .expect("run tv analyze");
    assert!(
        status.status.success(),
        "analyze failed: {}",
        String::from_utf8_lossy(&status.stderr)
    );
    std::fs::read_to_string(out.path()).expect("read metrics dump")
}

/// The `"work"` sub-object of a parsed counter block.
fn work_of(counters: &Value) -> Vec<(String, f64)> {
    let Some(Value::Obj(work)) = counters.get("work") else {
        panic!("no work block in {counters:?}");
    };
    work.iter()
        .map(|(k, v)| (k.clone(), v.as_num().expect("numeric counter")))
        .collect()
}

#[test]
fn metrics_dump_bit_identical_across_jobs() {
    for (name, netlist) in workloads() {
        let sim = TempPath::new("w.sim", &sim_format::write(&netlist));
        let base = metrics_dump(sim.path(), 1);
        for jobs in [2, 8] {
            let dump = metrics_dump(sim.path(), jobs);
            assert_eq!(
                base, dump,
                "{name}: metrics dump differs between --jobs 1 and --jobs {jobs}"
            );
        }
        // And the dump is a valid JSON document with a nonzero work plane.
        let work = work_of(&json::parse(&base).expect("metrics dump parses"));
        assert!(
            work.iter().any(|(_, v)| *v > 0.0),
            "{name}: work plane all zero"
        );
    }
}

#[test]
fn sim_round_trip_preserves_every_counter() {
    // `sim_format::write` is canonical, so parse → write → parse must
    // reproduce the byte-identical workload — and therefore the
    // byte-identical counter dump, parse statistics included.
    let t = Tech::nmos4um();
    for (name, netlist) in workloads() {
        let text = sim_format::write(&netlist);
        let parsed = sim_format::parse(&text, t.clone())
            .unwrap_or_else(|e| panic!("{name}: round trip failed: {e}"));
        let round = sim_format::write(&parsed);
        let a = TempPath::new("a.sim", &text);
        let b = TempPath::new("b.sim", &round);
        assert_eq!(
            metrics_dump(a.path(), 2),
            metrics_dump(b.path(), 2),
            "{name}: counters drift across a .sim round trip"
        );
    }
}

/// Replays the committed metrics smoke script and returns stdout.
fn batch_replay(jobs: u32) -> String {
    let script = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/metrics_smoke.txt");
    let out = tv()
        .arg("batch")
        .arg(&script)
        .args(["--jobs", &jobs.to_string()])
        .output()
        .expect("run tv batch");
    assert!(
        out.status.success(),
        "batch failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 replies")
}

#[test]
fn session_metrics_match_committed_golden_across_jobs() {
    let golden = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/metrics_smoke.golden"),
    )
    .expect("read committed golden");
    for jobs in [1, 2, 8] {
        assert_eq!(
            golden,
            batch_replay(jobs),
            "metrics smoke replay differs from committed golden at --jobs {jobs}"
        );
    }
}

#[test]
fn warm_session_analyses_report_less_work_than_cold() {
    // The smoke script takes three `metrics` marks: after the cold
    // analysis, after an edit + incremental re-analysis, and after a
    // fully-reused re-analysis. The demand-driven cone engine makes the
    // warm marks record strictly *less* propagation than the cold one —
    // that is the point of the cone — while staying deterministic (the
    // golden replay test pins the exact values across --jobs).
    let replies = batch_replay(2);
    let works: Vec<Vec<(String, f64)>> = replies
        .lines()
        .filter(|l| l.contains("\"cmd\":\"metrics\""))
        .map(|l| {
            let root = json::parse(l).expect("metrics reply parses");
            work_of(root.get("counters").expect("counters block"))
        })
        .collect();
    assert_eq!(works.len(), 3, "expected three metrics marks");
    let get = |mark: &[(String, f64)], key: &str| -> f64 {
        mark.iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no {key} counter"))
            .1
    };
    // Cold mark: full propagation, no cone activity.
    assert!(get(&works[0], "propagate.relaxations") > 0.0);
    assert_eq!(get(&works[0], "cone.seeds"), 0.0);
    assert_eq!(get(&works[0], "cone.nodes"), 0.0);
    // Warm-after-edit mark: the cone fired (seeds and nodes nonzero, no
    // fallback) and did a small fraction of the cold relaxation work.
    assert!(get(&works[1], "cone.seeds") > 0.0, "cone never seeded");
    assert!(get(&works[1], "cone.nodes") > 0.0, "cone relaxed no nodes");
    assert_eq!(get(&works[1], "cone.fallbacks"), 0.0);
    assert!(
        get(&works[1], "propagate.relaxations") * 2.0 < get(&works[0], "propagate.relaxations"),
        "warm edit did not save relaxation work: warm {} vs cold {}",
        get(&works[1], "propagate.relaxations"),
        get(&works[0], "propagate.relaxations"),
    );
    // Fully-warm mark: everything reuses and no case walks, so even
    // less work than the warm edit.
    assert!(
        get(&works[2], "propagate.relaxations") <= get(&works[1], "propagate.relaxations"),
        "fully-warm did more work than warm edit"
    );
}

#[test]
fn trace_flag_emits_chrome_trace_that_validates() {
    // regfile-4x8 is clocked, so the trace covers the per-phase cases.
    let (_, netlist) = workloads().remove(2);
    let sim = TempPath::new("t.sim", &sim_format::write(&netlist));
    let trace = TempPath::new("trace.json", "");
    let out = tv()
        .arg("analyze")
        .arg(sim.path())
        .arg("--trace")
        .arg(trace.path())
        .output()
        .expect("run tv analyze --trace");
    assert!(out.status.success());

    // Validate twice: through the library, and through the user-facing
    // `tv trace-check` subcommand.
    let text = std::fs::read_to_string(trace.path()).expect("read trace");
    let events = nmos_tv::obs::trace::validate(&text).expect("trace validates");
    assert!(events > 0, "trace has no events");
    // Every per-case pass after the arrivals is accounted for by a span.
    let doc = json::parse(&text).expect("trace parses");
    let names: Vec<&str> = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents")
        .iter()
        .filter_map(|e| e.get("name").and_then(Value::as_str))
        .collect();
    for pass in ["pass.checks", "pass.paths", "pass.races"] {
        assert!(names.contains(&pass), "trace has no {pass} event");
    }

    let check = tv()
        .arg("trace-check")
        .arg(trace.path())
        .output()
        .expect("run tv trace-check");
    assert!(
        check.status.success(),
        "trace-check rejected the trace: {}",
        String::from_utf8_lossy(&check.stderr)
    );
}
