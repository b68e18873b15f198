//! The cold batch workloads: `.sim` text → parse → `Analyzer::run` →
//! render, each rep from scratch, as one `tv analyze` invocation does.

use std::hint::black_box;
use std::time::Instant;

use crate::layers::{self, ProbeDesign};
use crate::report::{peak_rss_mb, Outcome};
use crate::sut::{self, Netlist, TimingReport};
use crate::trace::Tracer;
use crate::workload::{setup_times, Config, Scale, Workload};

fn design(w: Workload, cfg: &Config) -> Netlist {
    match w {
        Workload::T6Batch => sut::t6_design(cfg.scale.t6_cores()),
        _ => sut::random_design(cfg.scale.random_devices(), cfg.seed),
    }
}

/// One set-up: the design and its `.sim` text, with the generate and
/// write times in milliseconds.
fn setup(w: Workload, cfg: &Config, tr: &mut Tracer) -> (Netlist, String, f64, f64) {
    let (nl, gen_ms) = tr.time("gen.design", 0, || design(w, cfg));
    let (text, write_ms) = tr.time("netlist.write", 0, || sut::write_sim(&nl));
    (nl, text, gen_ms, write_ms)
}

/// One timed rep; returns its milliseconds, the parsed netlist and the
/// report.
fn rep(tr: &mut Tracer, text: &str, id: u64) -> Result<(f64, Netlist, TimingReport), String> {
    let open = tr.open("rep", id);
    let (parsed, _) = tr.time("netlist.parse", id, || sut::parse_sim(text));
    let nl = match parsed {
        Ok(nl) => nl,
        Err(e) => {
            tr.close(open);
            return Err(e);
        }
    };
    let (report, _) = tr.time("analyzer.run", id, || sut::analyze(&nl));
    tr.time("report.render", id, || black_box(sut::render(&report, &nl)));
    Ok((tr.close(open), nl, report))
}

/// Reps whose fingerprint differs from the first fail.
fn verify(out: &mut Outcome, fps: &[u64]) {
    let Some(&first) = fps.first() else { return };
    out.notes
        .push(format!("fingerprint {}", sut::fingerprint_text(first)));
    for (i, &fp) in fps.iter().enumerate().skip(1) {
        if fp != first {
            out.fail(format!(
                "rep {i} fingerprint {} differs from rep 0",
                sut::fingerprint_text(fp)
            ));
        }
    }
}

/// Runs as many reps as fit `budget_ms` at the first rep's pace, and at
/// least `min`, stopping early if one fails. The count is fixed after
/// the first rep and rounded, so that host noise cannot add or drop a
/// rep at the end and flip which sample the median picks. Returns each
/// rep's milliseconds; every rep's fingerprint, taken after the clock
/// stops, must match the first. With `digest`, the first rep's report
/// must match it (see [`sut::name_keyed_digest`]).
fn reps(
    tr: &mut Tracer,
    text: &str,
    min: usize,
    budget_ms: f64,
    digest: Option<u64>,
    out: &mut Outcome,
) -> Vec<f64> {
    let (mut ms, mut fps) = (Vec::new(), Vec::new());
    let mut count = min.max(1);
    while ms.len() < count {
        out.attempted += 1;
        match rep(tr, text, ms.len() as u64) {
            Ok((t, nl, report)) => {
                if ms.is_empty() {
                    count = count.max((budget_ms / t).round() as usize);
                }
                if let (true, Some(want)) = (ms.is_empty(), digest) {
                    let got = sut::name_keyed_digest(&nl, &report);
                    if got != want {
                        out.fail(format!(
                            "parsed text analyzes to digest {got:#018x}, \
                             the in-memory netlist to {want:#018x}"
                        ));
                    }
                }
                ms.push(t);
                fps.push(sut::fingerprint(&nl, &report));
            }
            Err(e) => {
                out.fail(format!("rep {}: {e}", ms.len()));
                break;
            }
        }
    }
    verify(out, &fps);
    ms
}

pub fn run(w: Workload, cfg: &Config) -> Result<Outcome, String> {
    let mut tr = Tracer::off();
    let (nl, text, ..) = setup(w, cfg, &mut tr);
    let mut out = Outcome::default();
    out.notes.push(format!(
        "design {} devices, {} bytes of .sim",
        sut::device_count(&nl),
        text.len()
    ));
    // On random logic the parsed text must analyze like the netlist it
    // was written from. Node order differs across the round trip, so the
    // two are compared by a name-keyed digest, not the fingerprint.
    let digest =
        (w == Workload::RandomBatch).then(|| sut::name_keyed_digest(&nl, &sut::analyze(&nl)));
    drop(nl);

    let ms = reps(
        &mut tr,
        &text,
        cfg.scale.min_reps(),
        cfg.seconds * 1e3,
        digest,
        &mut out,
    );

    // Read before the timed set-ups, which can only add to the peak.
    let rss = peak_rss_mb();
    drop(text);
    let once = || Ok(setup(w, cfg, &mut Tracer::off()));
    let setup_s = setup_times(cfg.scale.setup_seconds(), once, drop)?;

    out.median_metric("setup_s", &setup_s);
    out.median_metric("latency_p50_ms", &ms);
    let busy_s = ms.iter().sum::<f64>() / 1e3;
    out.metric(
        "throughput_rps",
        ms.len() as f64 / busy_s.max(1e-9),
        ms.len(),
    );
    out.metric("peak_rss_mb", rss, 1);
    Ok(out)
}

/// The traced run: one set-up, reps untraced and traced (for the tracing
/// overhead), the layer ledger on the workload's design, and the
/// warm-path probe on a small sibling design.
pub fn run_traced(w: Workload, cfg: &Config) -> Result<Outcome, String> {
    let mut tr = Tracer::new(true, Instant::now(), 0);
    let mut out = Outcome::default();
    let open = tr.open("setup", 0);
    let (nl, text, gen_ms, write_ms) = setup(w, cfg, &mut tr);
    tr.close(open);
    drop(nl);
    out.metric("gen.design_ms", gen_ms, 1);
    out.metric("netlist.write_ms", write_ms, 1);

    // One round of T6 reps (about 11 s each) keeps the traced run within
    // its time limit.
    let rounds = if w == Workload::T6Batch { 1 } else { 2 };
    let mut plain = Tracer::off();
    let overhead = layers::overhead(rounds, |traced| {
        sut::counters_on(traced);
        let t = if traced { &mut tr } else { &mut plain };
        Ok(reps(t, &text, 1, 0.0, None, &mut out).iter().sum())
    })?;
    out.metric("trace.overhead_frac", overhead, 4 * rounds);

    layers::ledger(&mut tr, &text, cfg.scale.ledger_seconds(), &mut out);
    drop(text);

    // A one-core T6 is the smallest of its family; smoke runs probe toy
    // random logic instead, to stay quick.
    let sibling = match (w, cfg.scale) {
        (Workload::T6Batch, Scale::Full) => sut::t6_design(1),
        _ => sut::random_design(cfg.scale.probe_random_devices(), cfg.seed),
    };
    match ProbeDesign::from_file(&sibling, &cfg.trace_dir, w.name()) {
        Ok(pd) => layers::probe(&mut tr, &pd, cfg, &mut out),
        Err(e) => out.fail(format!("probe design: {e}")),
    }
    layers::finish(w, cfg, &tr, &mut out)?;
    Ok(out)
}
