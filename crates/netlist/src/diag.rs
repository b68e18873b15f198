//! The unified diagnostic stream shared by every pipeline layer.
//!
//! Extracted netlists arrive truncated, mis-labelled, or structurally
//! degenerate, and a production analyzer must report *all* of a file's
//! problems in one run instead of bailing at the first. Every layer —
//! the `.sim` parser, the structural lints ([`crate::validate`]), the
//! signal-flow fixpoint, and the timing engine's resource guards — emits
//! [`Diagnostic`]s into one [`Diagnostics`] sink, so a single renderer
//! (human text or machine JSON) covers parse, lint, and analysis output.
//!
//! Each diagnostic carries a **stable code** (`TV0xxx`) so downstream
//! tooling can filter without string-matching messages:
//!
//! | range | layer |
//! |---|---|
//! | `TV00xx` | `.sim`/SPICE parse and structural ingest |
//! | `TV01xx` | netlist lints ([`crate::validate`]) |
//! | `TV02xx` | signal-flow resolution |
//! | `TV03xx` | timing engine resource guards and worker isolation |
//! | `TV04xx` | electrical rule checks |
//! | `TV05xx` | session journal recovery and observability readers |
//! | `TV06xx` | session command dispatch (typed `ok:false` replies) |
//! | `TV07xx` | serving-plane wire protocol (defined in `tv_proto`) |

use std::fmt;

use tv_obs::json::escape as json_escape;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Purely informational (e.g. suppression notices).
    Info,
    /// Suspicious but analysis proceeds (lints, partial results).
    Warning,
    /// The input or analysis is genuinely broken at this point.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes. The numeric ranges are documented in the
/// module docs; codes are never reused once published.
pub mod codes {
    /// Unknown `.sim` record type.
    pub const PARSE_UNKNOWN_RECORD: &str = "TV0001";
    /// A `.sim` record with the wrong number of fields.
    pub const PARSE_FIELD_COUNT: &str = "TV0002";
    /// A numeric field that does not parse.
    pub const PARSE_BAD_NUMBER: &str = "TV0003";
    /// A negative or non-finite explicit capacitance.
    pub const PARSE_BAD_CAP: &str = "TV0004";
    /// A transistor whose source and drain are the same node.
    pub const PARSE_SHORTED_CHANNEL: &str = "TV0005";
    /// A transistor with non-positive or non-finite geometry.
    pub const PARSE_BAD_GEOMETRY: &str = "TV0006";
    /// Further errors were suppressed by the `--max-errors` cap.
    pub const PARSE_SUPPRESSED: &str = "TV0007";

    /// A node gates transistors but nothing can ever drive it.
    pub const LINT_FLOATING_GATE: &str = "TV0101";
    /// A channel-only node that connects to nothing else.
    pub const LINT_DEAD_END: &str = "TV0102";
    /// An enhancement channel bridging VDD and GND.
    pub const LINT_RAIL_BRIDGE: &str = "TV0103";
    /// A depletion device wired as neither load nor buffer.
    pub const LINT_STRAY_DEPLETION: &str = "TV0104";
    /// A primary input that is also driven on-chip.
    pub const LINT_DRIVEN_INPUT: &str = "TV0105";

    /// A pass transistor no direction rule could orient.
    pub const FLOW_UNRESOLVED: &str = "TV0201";
    /// A pass transistor proven genuinely bidirectional.
    pub const FLOW_BIDIRECTIONAL: &str = "TV0202";

    /// The relaxation budget was exhausted; arrivals are partial.
    pub const ANALYSIS_BUDGET_EXHAUSTED: &str = "TV0301";
    /// The wall-clock deadline expired; arrivals are partial.
    pub const ANALYSIS_DEADLINE: &str = "TV0302";
    /// A worker thread panicked and its level was degraded to serial.
    pub const ANALYSIS_WORKER_PANIC: &str = "TV0303";
    /// The netlist exceeds the configured size guard.
    pub const ANALYSIS_TOO_LARGE: &str = "TV0304";
    /// A combinational cycle was detected (residue did not settle).
    pub const ANALYSIS_CYCLIC: &str = "TV0305";

    /// Pull-up/pull-down ratio below the technology requirement.
    pub const CHECK_RATIO: &str = "TV0401";
    /// Stored charge may redistribute onto undriven capacitance.
    pub const CHECK_CHARGE_SHARING: &str = "TV0402";
    /// A node derived from both clock phases.
    pub const CHECK_CLOCK_CONFLICT: &str = "TV0403";

    /// A session journal whose header or interior is malformed; the
    /// file cannot be trusted and resume is refused.
    pub const JOURNAL_MALFORMED: &str = "TV0501";
    /// A session journal with a torn final entry (a crash mid-append);
    /// the tail is dropped and replay proceeds from the valid prefix.
    pub const JOURNAL_TRUNCATED: &str = "TV0502";
    /// A replayed journal entry whose revision or fingerprint does not
    /// match what the journal recorded; resume is refused.
    pub const JOURNAL_DIVERGED: &str = "TV0503";
    /// The journal file could not be read or appended.
    pub const JOURNAL_IO: &str = "TV0504";
    /// A `--trace` file `tv trace-check` could not parse.
    pub const OBS_BAD_TRACE: &str = "TV0505";
    /// A `--metrics` dump a reader could not parse.
    pub const OBS_BAD_METRICS: &str = "TV0506";

    /// A session command whose verb the dispatcher does not know. The
    /// reply is `ok:false` with this code; the session (and any served
    /// connection hosting it) stays alive.
    pub const SESSION_UNKNOWN_COMMAND: &str = "TV0601";
    /// A known session command that failed (bad arguments, analysis
    /// error, missing file). The session stays alive.
    pub const SESSION_COMMAND_FAILED: &str = "TV0602";
    /// A session command that panicked past the supervisor's retry
    /// budget; the command is abandoned but the session stays alive.
    pub const SESSION_PANIC: &str = "TV0603";
}

/// One reportable condition, with a stable code and an optional source
/// location (1-based line and column into the input file).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable `TV0xxx` code (see [`codes`]).
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// 1-based line in the input file, when the condition has one.
    pub line: Option<u32>,
    /// 1-based column of the offending token, when known.
    pub col: Option<u32>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// An error diagnostic without a source location.
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            line: None,
            col: None,
            message: message.into(),
        }
    }

    /// A warning diagnostic without a source location.
    pub fn warning(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, message)
        }
    }

    /// An info diagnostic without a source location.
    pub fn info(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Info,
            ..Diagnostic::error(code, message)
        }
    }

    /// Attaches a 1-based line/column source location.
    pub fn at(mut self, line: usize, col: usize) -> Self {
        self.line = Some(line as u32);
        self.col = Some(col as u32);
        self
    }

    /// Renders the diagnostic as one human-readable line, prefixed with
    /// `path:` when a path is given (the GCC-style format editors parse).
    pub fn render_text(&self, path: Option<&str>) -> String {
        let mut s = String::new();
        if let Some(p) = path {
            s.push_str(p);
            s.push(':');
        }
        if let Some(l) = self.line {
            s.push_str(&l.to_string());
            s.push(':');
            if let Some(c) = self.col {
                s.push_str(&c.to_string());
                s.push(':');
            }
        }
        if !s.is_empty() {
            s.push(' ');
        }
        s.push_str(&format!(
            "{} [{}]: {}",
            self.severity, self.code, self.message
        ));
        s
    }

    /// Renders the diagnostic as one JSON object.
    pub fn render_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"code\":\"{}\"", self.code));
        s.push_str(&format!(",\"severity\":\"{}\"", self.severity));
        if let Some(l) = self.line {
            s.push_str(&format!(",\"line\":{l}"));
        }
        if let Some(c) = self.col {
            s.push_str(&format!(",\"col\":{c}"));
        }
        s.push_str(&format!(",\"message\":\"{}\"", json_escape(&self.message)));
        s.push('}');
        s
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render_text(None))
    }
}

/// The accumulating sink every pipeline layer pushes into.
///
/// A fresh sink performs **no allocation** until the first diagnostic
/// arrives, so threading one through a clean-input hot path is free.
/// The error cap (`--max-errors`) bounds work on pathological inputs:
/// once `max_errors` error-severity diagnostics have been recorded,
/// [`Diagnostics::push`] reports saturation so producers can stop, and a
/// single suppression notice is appended.
#[derive(Debug, Clone)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
    max_errors: usize,
    suppressed: usize,
}

impl Default for Diagnostics {
    fn default() -> Self {
        Self::new()
    }
}

/// The default error cap, matching the CLI's `--max-errors` default.
pub const DEFAULT_MAX_ERRORS: usize = 20;

impl Diagnostics {
    /// An empty sink with the default error cap.
    pub fn new() -> Self {
        Self::with_max_errors(DEFAULT_MAX_ERRORS)
    }

    /// An empty sink capping error-severity diagnostics at `max_errors`
    /// (0 is treated as 1 — a rejection must always carry at least one
    /// diagnostic).
    pub fn with_max_errors(max_errors: usize) -> Self {
        Diagnostics {
            items: Vec::new(),
            max_errors: max_errors.max(1),
            suppressed: 0,
        }
    }

    /// Records a diagnostic. Returns `false` once the error cap is
    /// reached — producers should stop generating more errors (further
    /// pushes of error diagnostics are counted but dropped).
    pub fn push(&mut self, d: Diagnostic) -> bool {
        tv_obs::incr(tv_obs::Counter::DiagnosticsEmitted);
        if d.severity == Severity::Error && self.error_count() >= self.max_errors {
            self.suppressed += 1;
            return false;
        }
        self.items.push(d);
        self.error_count() < self.max_errors
    }

    /// Records every diagnostic of an iterator (the cap still applies).
    pub fn extend(&mut self, items: impl IntoIterator<Item = Diagnostic>) {
        for d in items {
            self.push(d);
        }
    }

    /// All recorded diagnostics, in arrival order (plus a trailing
    /// suppression notice when the cap was hit).
    pub fn items(&self) -> &[Diagnostic] {
        &self.items
    }

    /// Number of recorded diagnostics.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty() && self.suppressed == 0
    }

    /// Number of error-severity diagnostics recorded.
    pub fn error_count(&self) -> usize {
        self.items
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics recorded.
    pub fn warning_count(&self) -> usize {
        self.items
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Whether any error-severity diagnostic was recorded.
    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Error)
    }

    /// Number of error diagnostics dropped by the cap.
    pub fn suppressed(&self) -> usize {
        self.suppressed
    }

    /// The error cap this sink was built with.
    pub fn max_errors(&self) -> usize {
        self.max_errors
    }

    /// Records that `n` error diagnostics were generated but dropped
    /// without ever being materialized. Byte-for-byte equivalent to `n`
    /// capped [`Diagnostics::push`] calls: the suppressed tally and the
    /// `DiagnosticsEmitted` counter advance identically — which is how
    /// the chunk-parallel `.sim` parser merges each worker's overflow.
    pub fn note_suppressed(&mut self, n: usize) {
        tv_obs::add(tv_obs::Counter::DiagnosticsEmitted, n as u64);
        self.suppressed += n;
    }

    /// Consumes the sink, yielding the diagnostics (with a suppression
    /// notice appended when any were dropped).
    pub fn into_items(mut self) -> Vec<Diagnostic> {
        if self.suppressed > 0 {
            let n = self.suppressed;
            self.items.push(Diagnostic::info(
                codes::PARSE_SUPPRESSED,
                format!("{n} further error(s) suppressed by the error cap"),
            ));
        }
        self.items
    }

    /// Renders every diagnostic as human-readable text, one per line.
    pub fn render_text(&self, path: Option<&str>) -> String {
        let mut s = String::new();
        for d in &self.items {
            s.push_str(&d.render_text(path));
            s.push('\n');
        }
        if self.suppressed > 0 {
            s.push_str(&format!(
                "{} further error(s) suppressed by the error cap\n",
                self.suppressed
            ));
        }
        s
    }

    /// Renders the whole stream as one JSON document:
    /// `{"diagnostics":[...],"errors":N,"warnings":M,"suppressed":K}`.
    pub fn render_json(&self, path: Option<&str>) -> String {
        let mut s = String::from("{\"diagnostics\":[");
        for (i, d) in self.items.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&d.render_json());
        }
        s.push_str(&format!(
            "],\"errors\":{},\"warnings\":{},\"suppressed\":{}",
            self.error_count(),
            self.warning_count(),
            self.suppressed
        ));
        if let Some(p) = path {
            s.push_str(&format!(",\"path\":\"{}\"", json_escape(p)));
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_rendering_includes_location_and_code() {
        let d = Diagnostic::error(codes::PARSE_BAD_NUMBER, "bad length \"four\"").at(3, 9);
        assert_eq!(
            d.render_text(Some("a.sim")),
            "a.sim:3:9: error [TV0003]: bad length \"four\""
        );
        let d = Diagnostic::warning(codes::LINT_DEAD_END, "dead-end node");
        assert_eq!(d.render_text(None), "warning [TV0102]: dead-end node");
    }

    #[test]
    fn json_rendering_escapes_and_carries_fields() {
        let d = Diagnostic::error(codes::PARSE_UNKNOWN_RECORD, "unknown \"z\"\n").at(1, 1);
        let j = d.render_json();
        assert!(j.contains("\"code\":\"TV0001\""));
        assert!(j.contains("\"line\":1"));
        assert!(j.contains("\\\"z\\\"\\n"), "{j}");
    }

    #[test]
    fn sink_caps_errors_and_counts_suppressed() {
        let mut sink = Diagnostics::with_max_errors(2);
        assert!(sink.push(Diagnostic::error(codes::PARSE_BAD_NUMBER, "e1")));
        assert!(!sink.push(Diagnostic::error(codes::PARSE_BAD_NUMBER, "e2")));
        assert!(!sink.push(Diagnostic::error(codes::PARSE_BAD_NUMBER, "e3")));
        // Warnings are unaffected by the cap.
        sink.push(Diagnostic::warning(codes::LINT_DEAD_END, "w"));
        assert_eq!(sink.error_count(), 2);
        assert_eq!(sink.warning_count(), 1);
        assert_eq!(sink.suppressed(), 1);
        let items = sink.into_items();
        assert_eq!(items.last().unwrap().code, codes::PARSE_SUPPRESSED);
    }

    #[test]
    fn empty_sink_allocates_nothing_and_renders_empty() {
        let sink = Diagnostics::new();
        assert!(sink.is_empty());
        assert_eq!(sink.len(), 0);
        assert_eq!(sink.render_text(None), "");
        assert!(sink.render_json(None).starts_with("{\"diagnostics\":[]"));
    }

    #[test]
    fn severity_orders_info_warning_error() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn json_stream_has_summary_counts() {
        let mut sink = Diagnostics::new();
        sink.push(Diagnostic::error(codes::PARSE_FIELD_COUNT, "x"));
        sink.push(Diagnostic::warning(codes::FLOW_UNRESOLVED, "y"));
        let j = sink.render_json(Some("f.sim"));
        assert!(j.contains("\"errors\":1"));
        assert!(j.contains("\"warnings\":1"));
        assert!(j.contains("\"path\":\"f.sim\""));
    }
}
