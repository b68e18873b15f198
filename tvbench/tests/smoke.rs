//! Every workload at toy sizes, untraced and traced, through the same
//! command line the benchmark runs: every operation succeeds and every
//! metric `BENCHMARK.json` names is reported with its unit.

use std::path::Path;
use std::process::Command;

fn json_get<'a>(text: &'a str, key: &str) -> &'a str {
    let at = text
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key:?} in {text}"));
    &text[at..]
}

/// `(name, unit)` of every metric of one `BENCHMARK.json` list.
fn listed(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let list = json_get(&text, key);
    let list = &list[..list.find(']').expect("list end")];
    list.split('{')
        .skip(1)
        .map(|entry| {
            let field = |k: &str| {
                let rest = json_get(entry, k);
                let rest = &rest[k.len() + 2..];
                let start = rest.find('"').expect("value") + 1;
                let end = start + rest[start..].find('"').expect("value end");
                rest[start..end].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_tvbench"))
        .args(args)
        .output()
        .expect("run tvbench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "tvbench {args:?} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// Runs all four workloads (one child process each) and checks every
/// result in the `--out` file.
fn all_workloads(trace: &str, dir: &Path) {
    let out_file = dir.join(format!("smoke-trace{trace}.json"));
    let trace_dir = dir.join(format!("trace{trace}"));
    run(&[
        "--seed",
        "7",
        "--seconds",
        "0.3",
        "--scale",
        "smoke",
        "--trace",
        trace,
        "--trace-dir",
        trace_dir.to_str().unwrap(),
        "--out",
        out_file.to_str().unwrap(),
    ]);
    let doc = std::fs::read_to_string(&out_file).expect("--out file");
    let metrics = listed(if trace == "1" {
        "per_layer"
    } else {
        "end_to_end"
    });
    let results: Vec<&str> = doc.split("\"result\": ").skip(1).collect();
    assert_eq!(results.len(), 4, "{doc}");
    for result in results {
        let result = &result[..result.find('\n').unwrap_or(result.len())];
        assert!(result.starts_with("{\"correct\": true,"), "{result}");
        assert!(result.contains("\"failed\": 0,"), "{result}");
        for (name, unit) in &metrics {
            let m = json_get(result, name);
            let m = &m[..m.find('}').expect("metric end")];
            assert!(m.contains(&format!("\"unit\": \"{unit}\"")), "{name}: {m}");
        }
        assert_eq!(
            result.matches("\"unit\"").count(),
            metrics.len(),
            "{result}"
        );
    }
    if trace == "1" {
        for w in ["t6-batch", "random-batch", "session-mips32", "serve-mips32"] {
            assert!(trace_dir.join(format!("{w}.trace.json")).exists(), "{w}");
            assert!(trace_dir.join(format!("{w}.ledger.json")).exists(), "{w}");
        }
    }
    // A set of runs compared with itself reads as unchanged throughout.
    let f = out_file.to_str().unwrap();
    let table = run(&["compare", f, "--", f]);
    assert!(table.lines().count() > metrics.len(), "{table}");
    assert!(
        table.lines().skip(1).all(|l| l.ends_with("unchanged")),
        "{table}"
    );
}

#[test]
fn every_workload_runs_clean_at_smoke_scale() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("tvbench-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    all_workloads("0", &dir);
    all_workloads("1", &dir);
}
