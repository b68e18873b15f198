//! End-to-end tests of the `tv` command-line binary, driving it exactly
//! as a user would: on `.sim` files from disk.

use std::path::Path;
use std::process::Command;

fn tv() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tv"))
}

/// A small two-phase circuit with known properties: an input buffered
/// through a φ1 latch and a φ2 latch to an output, with two (deliberate)
/// 8:1 ratio violations.
const LATCH_SIM: &str = "| tiny two-phase latch chain
i d
k phi1 0
k phi2 1
e d VDD x 4 8
d x VDD x 8 4
e phi1 x m 4 4
e m GND qb 4 8
d qb VDD qb 8 4
e phi2 qb q2 4 4
e q2 GND out 4 8
d out VDD out 8 4
o out
C out 100
";

fn write_sim() -> tempfile::NamedTempPath {
    tempfile::NamedTempPath::new(LATCH_SIM)
}

/// Minimal self-cleaning temp file (no external crate needed).
mod tempfile {
    pub struct NamedTempPath(std::path::PathBuf);
    impl NamedTempPath {
        pub fn new(contents: &str) -> Self {
            let mut path = std::env::temp_dir();
            path.push(format!(
                "tv-test-{}-{}.sim",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .expect("clock")
                    .as_nanos()
            ));
            std::fs::write(&path, contents).expect("write temp file");
            NamedTempPath(path)
        }
        pub fn path(&self) -> &std::path::Path {
            &self.0
        }
    }
    impl Drop for NamedTempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }
}

#[test]
fn analyze_reports_violations_but_exits_clean_without_check() {
    let f = write_sim();
    let out = tv().arg("analyze").arg(f.path()).output().expect("run tv");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("TV timing report"), "{text}");
    assert!(text.contains("minimum cycle"));
    assert!(text.contains("ratio violation"));
    // Violations are reported but not gated without --check.
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn analyze_with_check_exits_three_on_violations() {
    let f = write_sim();
    let out = tv()
        .args(["analyze"])
        .arg(f.path())
        .args(["--check"])
        .output()
        .expect("run tv");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ratio violation"), "{text}");
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn check_lists_the_ratio_violations() {
    let f = write_sim();
    let out = tv().arg("check").arg(f.path()).output().expect("run tv");
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.matches("ratio violation").count(), 2, "{text}");
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn flow_exits_clean_when_everything_resolves() {
    let f = write_sim();
    let out = tv().arg("flow").arg(f.path()).output().expect("run tv");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("100.0% coverage"), "{text}");
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn query_prints_a_path_with_arrivals() {
    let f = write_sim();
    let out = tv()
        .args(["query"])
        .arg(f.path())
        .args(["d", "out"])
        .output()
        .expect("run tv");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("worst path d -> out"), "{text}");
    assert!(text.lines().count() >= 4);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn query_unreachable_exits_dirty() {
    let f = write_sim();
    let out = tv()
        .args(["query"])
        .arg(f.path())
        .args(["out", "d"])
        .output()
        .expect("run tv");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("not reachable"), "{text}");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn spice_emits_a_deck() {
    let f = write_sim();
    let out = tv().arg("spice").arg(f.path()).output().expect("run tv");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains(".model ENH NMOS"));
    assert!(text.trim_end().ends_with(".end"));
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn bad_usage_exits_two_with_usage_text() {
    let out = tv().output().expect("run tv");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");

    let out = tv().args(["frobnicate"]).output().expect("run tv");
    assert_eq!(out.status.code(), Some(2));

    let f = write_sim();
    for flag in ["--frob", "--incremental"] {
        let out = tv()
            .args(["analyze"])
            .arg(f.path())
            .args([flag])
            .output()
            .expect("run tv");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag"), "{flag}: {err}");
    }
}

#[test]
fn cycle_rejects_non_positive_and_non_finite_values() {
    // A clock period that is zero, negative or not finite has no phase
    // windows: every subcommand taking `--cycle` must refuse it as a
    // usage error (exit 2), never reach the clock constructor's assert.
    let f = write_sim();
    let script = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/session_smoke.txt");
    for bad in ["0", "-5", "nan", "inf"] {
        for (sub, operand) in [
            ("analyze", Some(f.path())),
            ("session", None),
            ("batch", Some(script.as_path())),
        ] {
            let mut cmd = tv();
            cmd.arg(sub);
            if let Some(path) = operand {
                cmd.arg(path);
            }
            let out = cmd
                .args(["--cycle", bad])
                .stdin(std::process::Stdio::null())
                .output()
                .expect("run tv");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{sub} --cycle {bad}: {err}");
            assert!(
                err.contains("cycle must be positive"),
                "{sub} --cycle {bad}: {err}"
            );
            assert!(err.contains("usage:"), "{sub} --cycle {bad}: {err}");
        }
    }
}

#[test]
fn gen_rejects_zero_negative_and_non_numeric_core_counts() {
    // `tv gen` must refuse a meaningless core count as a usage error
    // (exit 2) with a diagnostic plus the usage text — not generate an
    // empty design, and not crash on the bad parse.
    for bad in ["0", "-3", "x"] {
        let out = tv()
            .args(["gen", "--cores", bad, "--out", "/dev/null"])
            .output()
            .expect("run tv gen");
        assert_eq!(
            out.status.code(),
            Some(2),
            "--cores {bad} must be a usage error"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("core count"), "--cores {bad}: {err}");
        assert!(err.contains("usage:"), "--cores {bad}: {err}");
    }
}

#[test]
fn trace_flag_rejects_missing_or_flaglike_operand() {
    let f = write_sim();
    // `--trace` followed by another flag used to silently write a file
    // literally named `--profile`; it must be a usage error instead.
    let out = tv()
        .args(["analyze", "--trace", "--profile"])
        .arg(f.path())
        .output()
        .expect("run tv");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--trace needs a filename"), "{err}");
    assert!(
        !std::path::Path::new("--profile").exists(),
        "flag-named file was created"
    );

    // Trailing `--trace` with no operand at all.
    let out = tv()
        .args(["analyze"])
        .arg(f.path())
        .args(["--trace"])
        .output()
        .expect("run tv");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--trace needs a filename"), "{err}");
}

#[test]
fn metrics_flag_rejects_missing_or_flaglike_operand() {
    let f = write_sim();
    let out = tv()
        .args(["analyze", "--metrics", "--jobs"])
        .arg(f.path())
        .output()
        .expect("run tv");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--metrics needs a filename"), "{err}");

    let out = tv()
        .args(["analyze"])
        .arg(f.path())
        .args(["--metrics"])
        .output()
        .expect("run tv");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn help_documents_exit_codes() {
    let out = tv().arg("--help").output().expect("run tv");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("exit status"), "{text}");
    assert!(text.contains("usage error"), "{text}");
    assert!(text.contains("--max-errors"), "{text}");
    assert!(text.contains("fuzz"), "{text}");
}

#[test]
fn missing_file_is_an_analysis_failure() {
    let out = tv()
        .args(["analyze", "/nonexistent/definitely.sim"])
        .output()
        .expect("run tv");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot read"), "{err}");
}

#[test]
fn analyze_flags_are_honored() {
    let f = write_sim();
    // A 1 ns cycle cannot be met: slack goes negative; --check gates it.
    let out = tv()
        .args(["analyze"])
        .arg(f.path())
        .args([
            "--cycle", "1.0", "--top", "2", "--model", "lumped", "--check",
        ])
        .output()
        .expect("run tv");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("slack -"), "{text}");
    assert_eq!(out.status.code(), Some(3));

    // --no-case suppresses the per-phase sections.
    let out = tv()
        .args(["analyze"])
        .arg(f.path())
        .args(["--no-case"])
        .output()
        .expect("run tv");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(!text.contains("phase 1:"), "{text}");
}

/// The latch corpus with three injected faults: an unknown record, a
/// transistor line with a malformed width, and a shorted channel.
const BROKEN_SIM: &str = "| corpus with three injected errors
i d
k phi1 0
k phi2 1
frob x y
e d VDD x 4 eight
e phi1 x x 4 4
e d VDD x 4 8
d x VDD x 8 4
o x
C x 100
";

#[test]
fn recovering_parse_reports_all_errors_in_one_run() {
    let f = tempfile::NamedTempPath::new(BROKEN_SIM);
    let out = tv().arg("analyze").arg(f.path()).output().expect("run tv");
    let err = String::from_utf8_lossy(&out.stderr);
    // All three faults in a single invocation, each with line:col and code.
    assert!(err.contains("TV0001"), "unknown record: {err}");
    assert!(err.contains("TV0003"), "bad number: {err}");
    assert!(err.contains("TV0005"), "shorted channel: {err}");
    assert!(err.matches("error").count() >= 3, "{err}");
    assert!(err.contains(":5:"), "line of first fault: {err}");
    // Parse errors present => analysis failure exit, but the surviving
    // netlist is still analyzed and reported.
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("TV timing report"), "{text}");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn diag_format_json_emits_machine_readable_diagnostics() {
    let f = tempfile::NamedTempPath::new(BROKEN_SIM);
    let out = tv()
        .args(["analyze"])
        .arg(f.path())
        .args(["--diag-format", "json"])
        .output()
        .expect("run tv");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("\"code\":\"TV0001\""), "{err}");
    assert!(err.contains("\"code\":\"TV0003\""), "{err}");
    assert!(err.contains("\"code\":\"TV0005\""), "{err}");
    assert!(err.contains("\"severity\":\"error\""), "{err}");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn max_errors_caps_the_report_and_counts_the_rest() {
    let f = tempfile::NamedTempPath::new(BROKEN_SIM);
    let out = tv()
        .args(["analyze"])
        .arg(f.path())
        .args(["--max-errors", "1"])
        .output()
        .expect("run tv");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("TV0001"), "{err}");
    assert!(!err.contains("TV0005"), "capped: {err}");
    assert!(err.contains("suppressed"), "{err}");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn deadline_and_relax_budget_flags_parse() {
    let f = write_sim();
    let out = tv()
        .args(["analyze"])
        .arg(f.path())
        .args(["--relax-budget", "100000", "--deadline", "30"])
        .output()
        .expect("run tv");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("TV timing report"), "{text}");
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn oversized_input_is_refused_with_max_nodes() {
    let f = write_sim();
    let out = tv()
        .args(["analyze"])
        .arg(f.path())
        .args(["--max-nodes", "2"])
        .output()
        .expect("run tv");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("too large"), "{err}");
}
