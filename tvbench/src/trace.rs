//! The benchmark's own spans: recorded around its calls into the system
//! under test, never inside it.

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span, in nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same span list.
    pub parent: Option<usize>,
    /// The request (step, rep) the span belongs to.
    pub req: u64,
    /// Thread ordinal: 0 for the driving thread, 1.. for client threads.
    pub tid: u32,
}

/// A span that has been opened but not closed.
pub struct Open {
    start: Instant,
    index: Option<usize>,
}

/// Times calls into the system under test and, when recording, keeps a
/// span per call. Opening and closing read the clock either way, so a
/// traced run differs from an untraced one only by the span records.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, tid: u32) -> Self {
        Tracer {
            on,
            epoch,
            tid,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A tracer that only measures.
    pub fn off() -> Self {
        Tracer::new(false, Instant::now(), 0)
    }

    /// A tracer for another thread of the same run.
    pub fn fork(&self, tid: u32) -> Tracer {
        Tracer::new(self.on, self.epoch, tid)
    }

    pub fn open(&mut self, name: &'static str, req: u64) -> Open {
        let start = Instant::now();
        let index = self.on.then(|| {
            let ns = self.ns(start);
            self.spans.push(Span {
                name,
                start_ns: ns,
                end_ns: ns,
                parent: self.stack.last().copied(),
                req,
                tid: self.tid,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { start, index }
    }

    /// Closes `open` (the innermost open span) and returns its duration
    /// in milliseconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(i) = open.index {
            self.spans[i].end_ns = self.ns(end);
            self.stack.pop();
        }
        (end - open.start).as_secs_f64() * 1e3
    }

    /// Runs `f` inside a span and returns its result and milliseconds.
    pub fn time<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.open(name, req);
        let r = f();
        (r, self.close(open))
    }

    /// Appends another thread's spans.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.epoch).as_nanos() as u64
    }
}

/// Renders spans as a Chrome trace-event document. Timestamps are
/// truncated to whole microseconds (both ends of every span, so nesting
/// survives), and each event carries its request id and parent index in
/// `args`, which `tv_obs::trace::render_chrome` has no room for.
pub fn chrome(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let (ts, end) = (s.start_ns / 1000, s.end_ns / 1000);
        let parent = s.parent.map_or(-1, |p| p as i64);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"req\":{},\"parent\":{parent}}}}}",
            s.name,
            end - ts,
            s.tid,
            s.req
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// Per span name: how many spans, their total milliseconds, and their
/// self milliseconds (total minus the time their child spans cover).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let dur = |s: &Span| (s.end_ns - s.start_ns) as f64 / 1e6;
    let mut child = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += dur(s);
        }
    }
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for (s, c) in spans.iter().zip(&child) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur(s);
        e.2 += dur(s) - c;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_validate_and_report_self_time() {
        let mut tr = Tracer::new(true, Instant::now(), 0);
        let outer = tr.open("outer", 7);
        let ((), inner_ms) = tr.time("inner", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer_ms = tr.close(outer);
        assert!(outer_ms >= inner_ms && inner_ms >= 2.0);
        let mut other = tr.fork(1);
        other.time("client", 8, || ());
        tr.absorb(other);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[2].parent, None);
        assert_eq!(tr.spans()[2].tid, 1);
        let doc = chrome(tr.spans());
        assert_eq!(crate::sut::validate_trace(&doc), Ok(3));
        let t = self_times(tr.spans());
        let (n, total, own) = t["outer"];
        assert_eq!(n, 1);
        assert!(own < total && (total - own - t["inner"].1).abs() < 1e-9);
    }

    #[test]
    fn an_untraced_tracer_still_measures() {
        let mut tr = Tracer::off();
        let ((), ms) = tr.time("x", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(ms >= 1.0);
        assert!(tr.spans().is_empty());
    }
}
