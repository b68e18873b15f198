//! Session-mode equivalence and invalidation-precision suite.
//!
//! Three guarantees from the pass-pipeline design are pinned here:
//!
//! 1. **Invalidation precision** — edits invalidate only the passes
//!    whose declared inputs they touch: a capacitance edit cannot re-run
//!    flow resolution, a W/L resize cannot re-find latches.
//! 2. **Bit-identity** — a warm session re-analysis after any edit
//!    sequence produces a report whose golden FNV fingerprint equals a
//!    cold one-shot analysis of the same netlist, including after a
//!    `.sim` serialize/re-parse round trip.
//! 3. **Transcript stability** — the committed batch script replays to
//!    the committed golden transcript, byte for byte (also enforced by
//!    `scripts/verify.sh` against the installed binary).

use std::process::Command;

use nmos_tv::core::{
    report_fingerprint, AnalysisOptions, Analyzer, PassId, PassManager, PassOutcome,
};
use nmos_tv::gen::datapath::{datapath, DatapathConfig};
use nmos_tv::netlist::{sim_format, Design, DeviceId, DeviceKind, NodeId, Tech};
use nmos_tv::session::Session;

fn small_design() -> Design {
    let dp = datapath(Tech::nmos4um(), DatapathConfig::small());
    Design::new(dp.netlist)
}

/// Splitmix-style deterministic generator so the randomized loop is
/// reproducible without a rand dependency.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn editable_nodes(design: &Design) -> Vec<NodeId> {
    design
        .netlist()
        .node_ids()
        .filter(|&i| !design.netlist().node(i).role().is_rail())
        .collect()
}

fn device_ids(design: &Design) -> Vec<DeviceId> {
    design.netlist().devices().map(|d| d.id).collect()
}

#[test]
fn cap_only_edits_never_rerun_flow() {
    let mut design = small_design();
    let mut pm = PassManager::new();
    let opts = AnalysisOptions::default();
    pm.analyze(&design, &opts);
    let flow_fp = pm.pass_fingerprint(PassId::Flow).unwrap();
    let qual_fp = pm.pass_fingerprint(PassId::Qualify).unwrap();

    let nodes = editable_nodes(&design);
    let mut rng = Lcg(0xfeed);
    for step in 0..8 {
        let node = nodes[rng.pick(nodes.len())];
        let pf = 0.01 + 0.01 * (step as f64);
        design.set_node_cap(node, pf).expect("cap edit");
        pm.analyze(&design, &opts);
        assert_eq!(
            trace_outcome(&pm, PassId::Flow),
            Some(PassOutcome::Reused),
            "cap edit #{step} re-ran flow"
        );
        assert_eq!(pm.pass_fingerprint(PassId::Flow), Some(flow_fp));
        assert_eq!(pm.pass_fingerprint(PassId::Qualify), Some(qual_fp));
    }
}

#[test]
fn wl_only_edits_never_refind_latches() {
    let mut design = small_design();
    let mut pm = PassManager::new();
    let opts = AnalysisOptions::default();
    let baseline = pm.analyze(&design, &opts);
    let latch_fp = pm.pass_fingerprint(PassId::Latches).unwrap();
    assert!(!baseline.latches.is_empty(), "datapath has latches");

    let devs = device_ids(&design);
    let mut rng = Lcg(0xbeef);
    for step in 0..8 {
        let dev = devs[rng.pick(devs.len())];
        let w = 3.0 + (step % 4) as f64;
        design.resize_device(dev, w, 2.0).expect("resize");
        let report = pm.analyze(&design, &opts);
        assert_eq!(
            trace_outcome(&pm, PassId::Latches),
            Some(PassOutcome::Reused),
            "W/L edit #{step} re-found latches"
        );
        assert_eq!(pm.pass_fingerprint(PassId::Latches), Some(latch_fp));
        assert_eq!(report.latches.len(), baseline.latches.len());
    }
}

#[test]
fn random_edit_session_bit_identical_to_oneshot() {
    let mut design = small_design();
    let mut pm = PassManager::new();
    let opts = AnalysisOptions::default();
    pm.analyze(&design, &opts);

    let nodes = editable_nodes(&design);
    let mut rng = Lcg(0x5eed);
    for step in 0..16 {
        let devs = device_ids(&design);
        match step % 5 {
            // Parametric: resize a random device.
            0 | 2 => {
                let dev = devs[rng.pick(devs.len())];
                let w = 3.0 + (rng.pick(5) as f64);
                design.resize_device(dev, w, 2.0).expect("resize");
            }
            // Parametric: retune a random wiring cap.
            1 | 3 => {
                let node = nodes[rng.pick(nodes.len())];
                let pf = 0.02 + 0.005 * (rng.pick(8) as f64);
                design.set_node_cap(node, pf).expect("setcap");
            }
            // Structural: add a parallel device, sometimes remove it.
            _ => {
                let probe = devs[rng.pick(devs.len())];
                let (g, s, d) = {
                    let dv = design.netlist().device(probe);
                    (dv.gate(), dv.source(), dv.drain())
                };
                let (id, _) = design
                    .add_device(
                        &format!("sess_t{step}"),
                        DeviceKind::Enhancement,
                        g,
                        s,
                        d,
                        4.0,
                        2.0,
                    )
                    .expect("adddev");
                if rng.pick(2) == 0 {
                    design.remove_device(id);
                }
            }
        }
        let warm = pm.analyze(&design, &opts);
        let cold = Analyzer::new(design.netlist()).run(&opts);
        assert_eq!(
            report_fingerprint(design.netlist(), &warm),
            report_fingerprint(design.netlist(), &cold),
            "edit #{step}: warm session report diverged from cold analysis"
        );
    }
}

#[test]
fn edited_session_matches_fresh_parse_and_analyze() {
    // Edit in a session, serialize the edited netlist to `.sim`, parse
    // it back, and check two things: (a) on the re-parsed netlist a
    // session pipeline and a cold one-shot run are bit-identical, and
    // (b) the analysis figures survive the serialization round trip.
    // (The golden fingerprint itself hashes node order, which `.sim`
    // serialization permutes, so (a) compares within the re-parsed
    // netlist rather than across the round trip.)
    let mut design = small_design();
    let mut pm = PassManager::new();
    let opts = AnalysisOptions::default();
    pm.analyze(&design, &opts);

    let dev = device_ids(&design)[3];
    design.resize_device(dev, 7.0, 2.0).expect("resize");
    let node = *design.netlist().outputs().first().expect("an output");
    design.set_node_cap(node, 0.09).expect("setcap");
    let warm = pm.analyze(&design, &opts);

    let text = sim_format::write(design.netlist());
    let reparsed = sim_format::parse(&text, Tech::nmos4um()).expect("round-trip parse");
    let cold = Analyzer::new(&reparsed).run(&opts);

    let mut fresh_design = Design::new(reparsed.clone());
    let mut fresh_pm = PassManager::new();
    let fresh = fresh_pm.analyze(&fresh_design, &opts);
    assert_eq!(
        report_fingerprint(&reparsed, &fresh),
        report_fingerprint(&reparsed, &cold),
        "pipeline diverged from one-shot on the re-parsed netlist"
    );
    // A follow-up edit on the fresh session stays identical too.
    let dev2 = device_ids(&fresh_design)[5];
    fresh_design.resize_device(dev2, 5.0, 2.0).expect("resize");
    let fresh2 = fresh_pm.analyze(&fresh_design, &opts);
    let cold2 = Analyzer::new(fresh_design.netlist()).run(&opts);
    assert_eq!(
        report_fingerprint(fresh_design.netlist(), &fresh2),
        report_fingerprint(fresh_design.netlist(), &cold2)
    );

    assert_eq!(warm.latches.len(), cold.latches.len());
    assert_eq!(warm.checks.len(), cold.checks.len());
    assert_eq!(
        warm.min_cycle.map(f64::to_bits),
        cold.min_cycle.map(f64::to_bits),
        "min-cycle figure diverged across the .sim round trip"
    );
}

#[test]
fn session_protocol_reports_cold_fingerprint() {
    // Drive the string protocol itself: the fingerprint in an `analyze`
    // reply is the golden FNV of a cold run on the same netlist.
    let mut session = Session::new(AnalysisOptions::default(), 20);
    let (reply, ok) = session.eval("demo small").expect("reply");
    assert!(ok, "demo failed: {reply}");

    let dev_name = session
        .design()
        .unwrap()
        .netlist()
        .devices()
        .nth(10)
        .unwrap()
        .device
        .name()
        .to_string();
    let (reply, ok) = session
        .eval(&format!("edit resize {dev_name} 6 2"))
        .expect("reply");
    assert!(ok, "edit failed: {reply}");

    let (reply, ok) = session.eval("analyze").expect("reply");
    assert!(ok, "analyze failed: {reply}");
    let fp_hex = reply
        .split(r#""fingerprint":"0x"#)
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("fingerprint field");
    let session_fp = u64::from_str_radix(fp_hex, 16).expect("hex fingerprint");

    let nl = session.design().unwrap().netlist();
    let cold = Analyzer::new(nl).run(&AnalysisOptions::default());
    assert_eq!(session_fp, report_fingerprint(nl, &cold));
}

#[test]
fn repeated_analyze_replies_are_byte_identical() {
    let mut session = Session::new(AnalysisOptions::default(), 20);
    session.eval("demo small").expect("reply");
    let (first, ok) = session.eval("analyze").expect("reply");
    assert!(ok);
    let (second, _) = session.eval("analyze").expect("reply");
    // Pass outcomes differ (computed vs reused) but everything the
    // result depends on — revision, fingerprint, figures — must not.
    let strip = |s: &str| s.split(r#","passes":"#).next().unwrap().to_string();
    assert_eq!(strip(&first), strip(&second));
    assert!(second.contains(r#""pass":"flow","outcome":"reused""#));
}

#[test]
fn batch_script_replays_to_golden_transcript() {
    let root = env!("CARGO_MANIFEST_DIR");
    let script = format!("{root}/tests/data/session_smoke.txt");
    let golden = format!("{root}/tests/data/session_smoke.golden");
    let out = Command::new(env!("CARGO_BIN_EXE_tv"))
        .args(["batch", &script])
        .output()
        .expect("tv batch runs");
    assert!(
        out.status.success(),
        "tv batch failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let expected = std::fs::read_to_string(&golden).expect("golden transcript");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        expected,
        "batch transcript diverged from {golden}"
    );
}

/// Writes `contents` to a self-cleaning temp script file.
struct TempScript(std::path::PathBuf);

impl TempScript {
    fn new(contents: &str) -> Self {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "tv-batch-test-{}-{}.txt",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos()
        ));
        std::fs::write(&path, contents).expect("write temp script");
        TempScript(path)
    }
}

impl Drop for TempScript {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// An empty batch script is a successful no-op: no replies, exit 0.
#[test]
fn batch_empty_script_exits_clean_with_no_output() {
    let script = TempScript::new("");
    let out = Command::new(env!("CARGO_BIN_EXE_tv"))
        .arg("batch")
        .arg(&script.0)
        .output()
        .expect("tv batch runs");
    assert_eq!(out.status.code(), Some(0));
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// A script whose final line has no trailing newline still executes
/// that line — a truncated-by-one-byte script must not silently drop
/// its last command.
#[test]
fn batch_missing_trailing_newline_runs_final_command() {
    let script = TempScript::new("demo small\nrevision");
    let out = Command::new(env!("CARGO_BIN_EXE_tv"))
        .arg("batch")
        .arg(&script.0)
        .output()
        .expect("tv batch runs");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    assert!(
        lines[1].contains(r#""cmd":"revision""#),
        "final unterminated command was dropped: {text}"
    );
}

fn trace_outcome(pm: &PassManager, pass: PassId) -> Option<PassOutcome> {
    pm.last_trace()
        .iter()
        .find(|e| e.pass == pass)
        .map(|e| e.outcome)
}

/// A phase case that changes no build root reads the all-active graph:
/// the reply shows its extract and graph passes as `shared` after a cold
/// build or a splice of the all-active graph, `reused` when nothing
/// changed, and every fingerprint matches a cold run.
#[test]
fn aliasing_phase_case_replies_shared() {
    let mix = nmos_tv::gen::random::RandomMix::default();
    let nl = nmos_tv::gen::random::random_logic(Tech::nmos4um(), 1_000, 0x5A5E, mix).netlist;
    let file = TempScript::new(&sim_format::write(&nl));
    let mut session = Session::new(AnalysisOptions::default(), 20);
    let (reply, ok) = session
        .eval(&format!("load {}", file.0.display()))
        .expect("reply");
    assert!(ok, "load failed: {reply}");
    let dev = session
        .design()
        .expect("loaded")
        .netlist()
        .devices()
        .nth(40);
    let dev = dev.expect("a device").device.name().to_string();
    let outcome = |reply: &str, pass: &str| {
        reply
            .split(&format!(r#""pass":"{pass}","outcome":""#))
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .map(str::to_string)
    };
    let cold_fp = |session: &Session| {
        let nl = session.design().expect("loaded").netlist();
        format!(
            "{:#018x}",
            report_fingerprint(nl, &Analyzer::new(nl).run(&AnalysisOptions::default()))
        )
    };
    for (step, want) in [("analyze", "shared"), ("analyze", "reused")]
        .into_iter()
        .chain([
            (&*format!("edit resize {dev} 6 2"), ""),
            ("analyze", "shared"),
        ])
    {
        let (reply, ok) = session.eval(step).expect("reply");
        assert!(ok, "{step} failed: {reply}");
        if want.is_empty() {
            continue;
        }
        for pass in ["extract.phi1", "graph.phi1"] {
            assert_eq!(
                outcome(&reply, pass).as_deref(),
                Some(want),
                "{step}: {reply}"
            );
        }
        let fp = reply
            .split(r#""fingerprint":""#)
            .nth(1)
            .and_then(|r| r.split('"').next());
        assert_eq!(fp, Some(cold_fp(&session).as_str()), "{step}");
    }
}
