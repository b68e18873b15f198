//! The interactive workloads: closed loops of seeded steps against the
//! mips32 datapath, in-process (`session-mips32`) or over loopback TCP
//! from two tenant threads (`serve-mips32`). A closed loop sends a
//! caller's next request only once the previous reply is back.

use std::time::{Duration, Instant};

use crate::layers::{self, ProbeDesign};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median, tail};
use crate::stream::{Class, Exchange, Inputs, Request, Rng};
use crate::sut::{self, ServerHandle, Session};
use crate::trace::Tracer;
use crate::workload::{setup_times, Config, Workload};

/// Tenant connections of the serve workload, one client thread each:
/// as many as the 2-core build host has cores.
const TENANTS: usize = 2;

/// Steps between a session's cross-checks against a cold analysis.
const CHECK_EVERY: usize = 1000;

/// Something that answers session commands.
pub trait Way {
    /// Span name of one request.
    const SPAN: &'static str;
    fn send(&mut self, line: &str) -> Result<(String, bool), String>;
}

impl Way for Session {
    const SPAN: &'static str = "session.eval";
    fn send(&mut self, line: &str) -> Result<(String, bool), String> {
        Ok(sut::eval(self, line))
    }
}

/// One tenant's connection to an in-process server.
pub struct Client {
    stream: sut::Stream,
    next_id: u64,
}

impl Client {
    pub fn connect(server: &ServerHandle, tenant: &str) -> Result<Client, String> {
        Ok(Client {
            stream: sut::connect(server, tenant)?,
            next_id: 0,
        })
    }
}

impl Way for Client {
    const SPAN: &'static str = "client.request";
    fn send(&mut self, line: &str) -> Result<(String, bool), String> {
        self.next_id += 1;
        sut::request(&mut self.stream, self.next_id, line)
    }
}

/// Loads a design with `setup` and analyzes it once.
pub fn start<W: Way>(way: &mut W, setup: &str) -> Result<(), String> {
    for line in [setup, "analyze"] {
        let (body, ok) = way.send(line)?;
        if !ok {
            return Err(format!("{line}: {body}"));
        }
    }
    Ok(())
}

/// The final `analyze` of a run, as its fingerprint.
pub fn final_fingerprint<W: Way>(way: &mut W) -> Result<String, String> {
    match way.send("analyze")? {
        (body, true) => sut::reply_fingerprint(&body).ok_or(body),
        (body, false) => Err(body),
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Stop {
    Steps(usize),
    /// At the deadline, once at least this many steps ran.
    Until(Instant, usize),
}

#[derive(Default)]
pub struct Tally {
    /// Milliseconds per exchange, indexed by `Class as usize`.
    pub samples: [Vec<f64>; 4],
    pub requests: u64,
    pub failed: u64,
    pub reply_bytes: u64,
    /// Every edit command that succeeded, in order.
    pub edits: Vec<String>,
    /// Milliseconds spent in untimed checks.
    pub check_ms: f64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn class(&self, c: Class) -> &[f64] {
        &self.samples[c as usize]
    }

    fn error(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(e);
        }
    }

    /// Adds the counts to `out`, with the first errors as notes.
    pub fn report(&self, out: &mut Outcome) {
        out.attempted += self.requests;
        out.failed += self.failed;
        out.notes
            .extend(self.errors.iter().map(|e| format!("FAILED: {e}")));
    }
}

/// A cross-check run after a step that ended with an `analyze` reply.
pub type Check<'a, W> = &'a mut dyn FnMut(&W, &str) -> Result<(), String>;

/// Sends one step's exchanges through `way`, timing each exchange as
/// one sample of its class in `t`. Returns the reply when the step ended
/// with a successful `analyze`; `Err` on a transport error, which ends a
/// run.
pub fn step<W: Way>(
    way: &mut W,
    step: &[Exchange],
    req: u64,
    tr: &mut Tracer,
    t: &mut Tally,
) -> Result<Option<String>, ()> {
    let mut last_analyze = None;
    for ex in step {
        let open = tr.open(ex.class.span(), req);
        let mut reply = None;
        for line in ex.lines() {
            let (r, _) = tr.time(W::SPAN, req, || way.send(&line));
            t.requests += 1;
            match r {
                Ok((body, ok)) => {
                    t.reply_bytes += body.len() as u64;
                    if !ok {
                        t.error(format!("{line}: {body}"));
                    } else if line.starts_with("edit ") {
                        t.edits.push(line);
                    }
                    reply = ok.then_some(body);
                }
                Err(e) => {
                    t.error(format!("{line}: {e}"));
                    tr.close(open);
                    return Err(());
                }
            }
        }
        t.samples[ex.class as usize].push(tr.close(open));
        last_analyze = reply.filter(|_| ex.request == Request::Analyze);
    }
    Ok(last_analyze)
}

/// Drives `way` through `steps` until `stop`. Every `CHECK_EVERY` steps,
/// `check` runs (untimed) after the next step that ends with an
/// `analyze` reply.
pub fn drive<W: Way>(
    way: &mut W,
    steps: impl IntoIterator<Item = Vec<Exchange>>,
    stop: Stop,
    tr: &mut Tracer,
    mut check: Option<Check<W>>,
) -> Tally {
    let mut t = Tally::default();
    let mut due = false;
    for (k, s) in steps.into_iter().enumerate() {
        let done = match stop {
            Stop::Steps(n) => k >= n,
            Stop::Until(deadline, min) => k >= min && Instant::now() >= deadline,
        };
        if done {
            break;
        }
        let Ok(last_analyze) = step(way, &s, k as u64, tr, &mut t) else {
            return t;
        };
        due |= (k + 1) % CHECK_EVERY == 0;
        if let (true, Some(reply), Some(check)) = (due, &last_analyze, check.as_mut()) {
            let start = Instant::now();
            if let Err(e) = check(way, reply) {
                t.error(e);
            }
            t.check_ms += start.elapsed().as_secs_f64() * 1e3;
            due = false;
        }
    }
    t
}

/// The session's fingerprint in `reply` must equal a cold analysis of a
/// copy of its netlist.
fn cold_check(s: &Session, reply: &str) -> Result<(), String> {
    let nl = sut::session_netlist(s).ok_or("no design loaded")?;
    let want = sut::fingerprint_text(sut::fingerprint(&nl, &sut::analyze(&nl)));
    match sut::reply_fingerprint(reply) {
        Some(got) if got == want => Ok(()),
        got => Err(format!("session fingerprint {got:?}, cold analysis {want}")),
    }
}

/// Per-class latencies: the edit-class median is the end-to-end
/// `latency_p50_ms`; the rest, and each class's tail, are extras.
fn class_metrics(out: &mut Outcome, tallies: &[&Tally]) {
    for c in Class::ALL {
        let all: Vec<f64> = tallies.iter().flat_map(|t| t.class(c)).copied().collect();
        if c == Class::Edit {
            out.median_metric("latency_p50_ms", &all);
        } else if let Some(m) = median(&all) {
            out.extra(format!("{}_p50_ms", c.name()), m, "ms", all.len());
        }
        if let Some((p, v)) = tail(&all) {
            out.extra(format!("{}_p{p}_ms", c.name()), v, "ms", all.len());
        }
    }
}

fn session_setup() -> Result<Session, String> {
    let mut s = sut::new_session();
    start(&mut s, sut::MIPS32_DEMO)?;
    Ok(s)
}

fn serve_setup() -> Result<(ServerHandle, Vec<Client>), String> {
    let server = sut::serve().map_err(|e| format!("serve: {e}"))?;
    let clients = (0..TENANTS)
        .map(|t| {
            let mut c = Client::connect(&server, &format!("tenant{t}"))?;
            start(&mut c, sut::MIPS32_DEMO)?;
            Ok(c)
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((server, clients))
}

/// Closes the connections first: the server joins their threads.
fn teardown(server: ServerHandle, clients: Vec<Client>) {
    drop(clients);
    server.stop();
}

fn tenant_seed(seed: u64, tenant: usize) -> u64 {
    Rng::new(seed ^ (tenant as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// Runs every tenant's loop on its own thread.
fn tenants(
    clients: Vec<Client>,
    inputs: &Inputs,
    seed: u64,
    stop: Stop,
    tr: &Tracer,
) -> Vec<(Client, Tally, Tracer)> {
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(t, mut c)| {
                let mut ttr = tr.fork(t as u32 + 1);
                s.spawn(move || {
                    let steps = inputs.steps(tenant_seed(seed, t));
                    let tally = drive(&mut c, steps, stop, &mut ttr, None);
                    (c, tally, ttr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread panicked"))
            .collect()
    })
}

/// A tenant's final served fingerprint must equal that of a local
/// session that replays only the tenant's edits.
fn replay_check(c: &mut Client, edits: &[String], out: &mut Outcome) {
    out.attempted += 1;
    let served = final_fingerprint(c);
    let local = (|| {
        let mut s = sut::new_session();
        start(&mut s, sut::MIPS32_DEMO)?;
        for e in edits {
            if let (body, false) = s.send(e)? {
                return Err(format!("{e}: {body}"));
            }
        }
        final_fingerprint(&mut s)
    })();
    match (served, local) {
        (Ok(a), Ok(b)) if a == b => {}
        (a, b) => out.fail(format!("served fingerprint {a:?}, local replay {b:?}")),
    }
}

pub fn run(w: Workload, cfg: &Config) -> Result<Outcome, String> {
    let nl = sut::mips32_design();
    let inputs = Inputs::new(&nl, &sut::analyze(&nl));
    let stop = |t0: Instant| {
        Stop::Until(
            t0 + Duration::from_secs_f64(cfg.seconds),
            cfg.scale.min_steps(),
        )
    };
    match w {
        Workload::SessionMips32 => run_session(cfg, &inputs, stop),
        _ => run_serve(cfg, &inputs, stop),
    }
}

fn run_session(
    cfg: &Config,
    inputs: &Inputs,
    stop: impl Fn(Instant) -> Stop,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut s = session_setup()?;
    let t0 = Instant::now();
    let mut check = |s: &Session, reply: &str| cold_check(s, reply);
    let tally = drive(
        &mut s,
        inputs.steps(cfg.seed),
        stop(t0),
        &mut Tracer::off(),
        Some(&mut check),
    );
    let busy_s = t0.elapsed().as_secs_f64() - tally.check_ms / 1e3;
    tally.report(&mut out);
    out.attempted += 1;
    match s.send("analyze") {
        Ok((reply, true)) => {
            if let Err(e) = cold_check(&s, &reply) {
                out.fail(e);
            }
        }
        r => out.fail(format!("final analyze: {r:?}")),
    }
    // Read before the timed set-ups, which can only add to the peak.
    out.metric("peak_rss_mb", peak_rss_mb(), 1);
    drop(s);
    let setup_s = setup_times(cfg.scale.setup_seconds(), session_setup, drop)?;
    out.median_metric("setup_s", &setup_s);
    class_metrics(&mut out, &[&tally]);
    out.metric("throughput_rps", tally.requests as f64 / busy_s, 1);
    Ok(out)
}

fn run_serve(
    cfg: &Config,
    inputs: &Inputs,
    stop: impl Fn(Instant) -> Stop,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (server, clients) = serve_setup()?;
    let t0 = Instant::now();
    let results = tenants(clients, inputs, cfg.seed, stop(t0), &Tracer::off());
    let wall_s = t0.elapsed().as_secs_f64();
    // Read before the replay checks, whose local sessions would add to it.
    out.metric("peak_rss_mb", peak_rss_mb(), 1);
    let mut clients = Vec::new();
    let mut tallies = Vec::new();
    for (mut c, tally, _) in results {
        tally.report(&mut out);
        replay_check(&mut c, &tally.edits, &mut out);
        clients.push(c);
        tallies.push(tally);
    }
    teardown(server, clients);
    let setup_s = setup_times(cfg.scale.setup_seconds(), serve_setup, |(s, c)| {
        teardown(s, c)
    })?;
    out.median_metric("setup_s", &setup_s);
    let requests: u64 = tallies.iter().map(|t| t.requests).sum();
    class_metrics(&mut out, &tallies.iter().collect::<Vec<_>>());
    out.metric("throughput_rps", requests as f64 / wall_s, TENANTS);
    Ok(out)
}

/// `n` steps (over all callers) on a fresh session or server; returns
/// the loop's wall milliseconds.
fn segment(
    w: Workload,
    cfg: &Config,
    inputs: &Inputs,
    n: usize,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<f64, String> {
    if w == Workload::SessionMips32 {
        let mut s = session_setup()?;
        let t0 = Instant::now();
        let tally = drive(&mut s, inputs.steps(cfg.seed), Stop::Steps(n), tr, None);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        tally.report(out);
        return Ok(ms);
    }
    let (server, clients) = serve_setup()?;
    let t0 = Instant::now();
    let results = tenants(clients, inputs, cfg.seed, Stop::Steps(n / TENANTS), tr);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut clients = Vec::new();
    for (c, tally, ttr) in results {
        tally.report(out);
        tr.absorb(ttr);
        clients.push(c);
    }
    teardown(server, clients);
    Ok(ms)
}

/// The traced run: the same steps twice untraced and twice traced (for
/// the tracing overhead), the layer ledger of a cold mips32 analysis,
/// and the warm-path probe replaying the workload's own stream.
pub fn run_traced(w: Workload, cfg: &Config) -> Result<Outcome, String> {
    let mut tr = Tracer::new(true, Instant::now(), 0);
    let mut out = Outcome::default();
    let open = tr.open("setup", 0);
    let (nl, gen_ms) = tr.time("gen.design", 0, sut::mips32_design);
    let (text, write_ms) = tr.time("netlist.write", 0, || sut::write_sim(&nl));
    tr.close(open);
    out.metric("gen.design_ms", gen_ms, 1);
    out.metric("netlist.write_ms", write_ms, 1);

    let inputs = Inputs::new(&nl, &sut::analyze(&nl));
    // Four rounds of short shares, so host drift averages out.
    let n = cfg.scale.overhead_steps();
    let mut plain = Tracer::off();
    let overhead = layers::overhead(4, |traced| {
        let t = if traced { &mut tr } else { &mut plain };
        segment(w, cfg, &inputs, n, t, &mut out)
    })?;
    out.metric("trace.overhead_frac", overhead, 16);

    layers::ledger(&mut tr, &text, cfg.scale.ledger_seconds(), &mut out);
    layers::probe(&mut tr, &ProbeDesign::demo(nl), cfg, &mut out);
    layers::finish(w, cfg, &tr, &mut out)?;
    Ok(out)
}
