//! Reader/writer for a `.sim`-style transistor interchange format.
//!
//! The MOSIS/Berkeley `.sim` format was how 1983 layout extractors handed
//! transistor netlists to analyzers like TV. This module implements a
//! documented dialect of it:
//!
//! ```text
//! | anything            comment
//! e g s d L W           enhancement transistor (geometry in µm)
//! d g s d L W           depletion transistor
//! C n cap               explicit capacitance on node n, femtofarads
//! i n                   declare n a primary input
//! o n                   declare n a primary output
//! k n p                 declare n a clock of phase p (0 = φ1, 1 = φ2)
//! ```
//!
//! Node names are arbitrary whitespace-free tokens; `VDD` and `GND` are the
//! rails. Geometry is in µm (the historical format used centimicrons; the
//! writer emits a header comment naming the unit so files are
//! self-describing).
//!
//! # Scale
//!
//! The reader is built for million-device files. A cheap byte-level
//! **pre-scan** sizes the intern arena, the symbol table, and the
//! node/device stores before the first record is built, so the hot loop
//! performs zero growth reallocations (`ingest.reallocs` counts any that
//! slip through — the verify gate asserts it stays zero). With
//! [`ParseOptions::jobs`] above one, the input is split on line
//! boundaries into fixed-size chunks — a pure function of the input
//! bytes, never of the job count — scanned by worker threads, and merged
//! **deterministically**: the resulting netlist and the diagnostic
//! stream (codes, order, columns, `--max-errors` truncation) are
//! byte-identical to the serial reader's at any `jobs` setting.
//!
//! # Example
//!
//! ```
//! use tv_netlist::{sim_format, NetlistBuilder, Tech};
//!
//! # fn main() -> Result<(), tv_netlist::NetlistError> {
//! let mut b = NetlistBuilder::new(Tech::nmos4um());
//! let a = b.input("a");
//! let out = b.output("out");
//! b.inverter("inv", a, out);
//! let nl = b.finish()?;
//!
//! let text = sim_format::write(&nl);
//! let back = sim_format::parse(&text, Tech::nmos4um())?;
//! assert_eq!(back.device_count(), nl.device_count());
//! # Ok(())
//! # }
//! ```

use std::fmt::Write as _;

use crate::diag::{codes, Diagnostic, Diagnostics};
use crate::intern::{Interner, Symbol};
use crate::{DeviceKind, Netlist, NetlistBuilder, NetlistError, NodeId, NodeRole, Tech};

/// Serializes a netlist to the `.sim` dialect described in the module docs.
///
/// Only *explicit* capacitance is emitted (`C` lines); gate and diffusion
/// capacitance is re-derived from geometry on parse, so a round trip
/// reproduces the same totals.
pub fn write(netlist: &Netlist) -> String {
    // Pre-size the output so million-device exports append into one
    // allocation instead of quadratically regrowing: names are counted
    // exactly, numeric fields and separators by a worst-case width.
    let mut cap = 96usize;
    for id in netlist.node_ids() {
        let node = netlist.node(id);
        let name_len = netlist.node_name(id).len();
        match node.role() {
            NodeRole::Input | NodeRole::Output => cap += name_len + 3,
            NodeRole::Clock(_) => cap += name_len + 6,
            _ => {}
        }
        if node.extra_cap() > 0.0 {
            cap += name_len + 28;
        }
    }
    for dref in netlist.devices() {
        let d = dref.device;
        cap += 8
            + netlist.node_name(d.gate()).len()
            + netlist.node_name(d.source()).len()
            + netlist.node_name(d.drain()).len()
            + 48;
    }
    let mut out = String::with_capacity(cap);
    let _ = writeln!(out, "| nmos-tv sim file, geometry in um, caps in fF");
    let _ = writeln!(
        out,
        "| nodes={} devices={}",
        netlist.node_count(),
        netlist.device_count()
    );
    for id in netlist.node_ids() {
        let node = netlist.node(id);
        match node.role() {
            NodeRole::Input => {
                let _ = writeln!(out, "i {}", netlist.node_name(id));
            }
            NodeRole::Output => {
                let _ = writeln!(out, "o {}", netlist.node_name(id));
            }
            NodeRole::Clock(p) => {
                let _ = writeln!(out, "k {} {}", netlist.node_name(id), p);
            }
            _ => {}
        }
        if node.extra_cap() > 0.0 {
            // pF -> fF for the file.
            let _ = writeln!(
                out,
                "C {} {}",
                netlist.node_name(id),
                node.extra_cap() * 1000.0
            );
        }
    }
    for dref in netlist.devices() {
        let d = dref.device;
        let _ = writeln!(
            out,
            "{} {} {} {} {} {}",
            d.kind().sim_code(),
            netlist.node_name(d.gate()),
            netlist.node_name(d.source()),
            netlist.node_name(d.drain()),
            d.length(),
            d.width(),
        );
    }
    out
}

/// Tuning knobs for the recovering reader (see [`parse_recovering_with`]).
#[derive(Debug, Clone)]
pub struct ParseOptions {
    /// Worker threads for chunk scanning. `1` (the default) is fully
    /// serial; `0` expands to the machine's available parallelism.
    /// Results are bit-identical at any setting.
    pub jobs: usize,
    /// Target chunk size in bytes; each chunk is extended to the next
    /// line boundary. Chunking is a pure function of the input and this
    /// knob — never of `jobs` — so the `ingest.chunks` counter and every
    /// downstream artifact are jobs-independent.
    pub chunk_bytes: usize,
}

/// Default chunk target: 1 MiB of text per worker unit.
pub const DEFAULT_CHUNK_BYTES: usize = 1 << 20;

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions {
            jobs: 1,
            chunk_bytes: DEFAULT_CHUNK_BYTES,
        }
    }
}

/// Parses the `.sim` dialect into a netlist under the given technology.
///
/// This is the **strict** entry point: the first malformed line aborts
/// the parse. Use [`parse_recovering`] to collect every problem in one
/// pass instead.
///
/// # Errors
///
/// Returns [`NetlistError::SimParse`] for malformed lines (with the
/// 1-based line number and column of the offending token) and the
/// matching structural error ([`NetlistError::ShortedChannel`],
/// [`NetlistError::BadGeometry`], [`NetlistError::BadCapacitance`]) for
/// degenerate devices in the file.
pub fn parse(text: &str, tech: Tech) -> Result<Netlist, NetlistError> {
    let mut sink = Diagnostics::with_max_errors(1);
    parse_inner(text, tech, &mut sink, true, &ParseOptions::default())
}

/// Parses the `.sim` dialect with **error recovery**: every malformed
/// line is reported into `diags` (severity `Error`, with line/column)
/// and skipped, and the netlist is built from the remaining good lines.
/// Degenerate devices (shorted channel, bad geometry, bad capacitance)
/// are likewise reported and dropped instead of poisoning the build.
///
/// A UTF-8 BOM is tolerated (and reported as an info diagnostic), as are
/// CRLF line endings. Once the sink's error cap is reached further error
/// diagnostics are counted but dropped; parsing continues so every valid
/// line still contributes to the netlist.
///
/// Returns the (possibly partial) netlist; inspect
/// [`Diagnostics::has_errors`] to learn whether the input was clean.
///
/// # Errors
///
/// Only a failure to finalize the recovered netlist — which recovery
/// prevents by construction — is returned as `Err`.
pub fn parse_recovering(
    text: &str,
    tech: Tech,
    diags: &mut Diagnostics,
) -> Result<Netlist, NetlistError> {
    parse_inner(text, tech, diags, false, &ParseOptions::default())
}

/// [`parse_recovering`] with explicit [`ParseOptions`] — the entry point
/// for chunk-parallel ingest. The netlist and the diagnostic stream are
/// bit-identical to the serial reader's at any `jobs` setting.
///
/// # Errors
///
/// As [`parse_recovering`].
pub fn parse_recovering_with(
    text: &str,
    tech: Tech,
    diags: &mut Diagnostics,
    opts: &ParseOptions,
) -> Result<Netlist, NetlistError> {
    parse_inner(text, tech, diags, false, opts)
}

fn parse_inner(
    text: &str,
    tech: Tech,
    diags: &mut Diagnostics,
    strict: bool,
    opts: &ParseOptions,
) -> Result<Netlist, NetlistError> {
    let _span = tv_obs::span("parse.sim");
    // Tolerate a UTF-8 byte-order mark from Windows-side extractors.
    let body = if let Some(stripped) = text.strip_prefix('\u{feff}') {
        if !strict {
            diags.push(Diagnostic::info(
                codes::PARSE_SUPPRESSED,
                "input begins with a UTF-8 byte-order mark (stripped)".to_string(),
            ));
        }
        stripped
    } else {
        text
    };
    // Pre-scan: one byte sweep that sizes every structure the build
    // will touch, so the hot loop below never grows an allocation.
    let pre = prescan(body);
    let mut b = NetlistBuilder::new(tech);
    b.reserve(pre.name_tokens + 2, pre.dev_lines, pre.name_bytes);
    let realloc_base = b.growth_events();
    // Chunk boundaries are a pure function of the input bytes, computed
    // on every path so `ingest.chunks` never depends on `jobs`.
    let chunks = split_chunks(body, opts.chunk_bytes);
    let jobs = if opts.jobs == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        opts.jobs
    };
    let (line_count, dev_count) = if !strict && jobs > 1 && chunks.len() > 1 {
        parse_chunked(&mut b, body, &chunks, diags, pre.lines, jobs)?
    } else {
        parse_serial_body(&mut b, body, diags, strict)?
    };
    tv_obs::add(tv_obs::Counter::ParseLines, line_count);
    tv_obs::add(tv_obs::Counter::ParseDevices, dev_count as u64);
    tv_obs::add(tv_obs::Counter::IngestChunks, chunks.len().max(1) as u64);
    tv_obs::add(tv_obs::Counter::IngestBytes, body.len() as u64);
    tv_obs::add(tv_obs::Counter::IngestPrescanSyms, pre.name_tokens as u64);
    tv_obs::add(
        tv_obs::Counter::IngestReallocs,
        b.growth_events() - realloc_base,
    );
    tv_obs::add(tv_obs::Counter::IngestPeakAllocEst, pre.peak_alloc_est());
    b.finish()
}

// ----- pre-scan --------------------------------------------------------

/// What one cheap byte sweep learns about the input before parsing: the
/// sizing facts that let [`NetlistBuilder::reserve`] pre-empt every
/// growth reallocation of the build.
struct Prescan {
    /// Lines, counted exactly as `str::lines` counts them.
    lines: u64,
    /// Lines whose first token is a transistor record (`e`/`d`) — the
    /// device-store reservation.
    dev_lines: usize,
    /// Name tokens the parse will intern (an upper bound on distinct
    /// node names): three per transistor line, one per `C`/`i`/`o`/`k`.
    name_tokens: usize,
    /// Total bytes of those name tokens — the intern-arena reservation.
    name_bytes: usize,
}

impl Prescan {
    /// Deterministic estimate (bytes) of the peak allocation the
    /// pre-sized ingest structures reserve, surfaced as
    /// `ingest.peak_alloc_est`. A pure function of the input text.
    fn peak_alloc_est(&self) -> u64 {
        let nodes = self.name_tokens as u64 + 2;
        let table = (2 * (nodes + 1)).next_power_of_two().max(16);
        self.name_bytes as u64
            + (nodes + 1) * 4
            + table * 4
            + nodes * (std::mem::size_of::<crate::Node>() + std::mem::size_of::<NodeId>()) as u64
            + self.dev_lines as u64 * std::mem::size_of::<crate::Device>() as u64
    }
}

/// ASCII whitespace as `char::is_whitespace` sees it (U+0009–U+000D and
/// space), so the byte-level sweeps agree with the char-level reader.
#[inline]
fn is_ws(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

fn prescan(body: &str) -> Prescan {
    let bytes = body.as_bytes();
    let mut p = Prescan {
        lines: 0,
        dev_lines: 0,
        name_tokens: 0,
        name_bytes: 0,
    };
    let mut i = 0usize;
    while i < bytes.len() {
        p.lines += 1;
        let eol = match bytes[i..].iter().position(|&b| b == b'\n') {
            Some(k) => i + k,
            None => bytes.len(),
        };
        let line = &bytes[i..eol];
        let mut j = 0usize;
        while j < line.len() && is_ws(line[j]) {
            j += 1;
        }
        if j < line.len() {
            let mut k = j;
            while k < line.len() && !is_ws(line[k]) {
                k += 1;
            }
            let names_wanted = match line[j] {
                b'e' | b'd' if k - j == 1 => {
                    p.dev_lines += 1;
                    3
                }
                b'C' | b'i' | b'o' | b'k' if k - j == 1 => 1,
                _ => 0,
            };
            let mut taken = 0;
            while taken < names_wanted && k < line.len() {
                while k < line.len() && is_ws(line[k]) {
                    k += 1;
                }
                if k >= line.len() {
                    break;
                }
                let s = k;
                while k < line.len() && !is_ws(line[k]) {
                    k += 1;
                }
                p.name_tokens += 1;
                p.name_bytes += k - s;
                taken += 1;
            }
        }
        i = if eol < bytes.len() { eol + 1 } else { eol };
    }
    p
}

/// Splits the input into chunks of roughly `chunk_bytes`, each extended
/// to end just past a newline so no line ever straddles two chunks. A
/// pure function of the input bytes and the knob — never of `jobs`.
fn split_chunks(body: &str, chunk_bytes: usize) -> Vec<&str> {
    let cb = chunk_bytes.max(1);
    let bytes = body.as_bytes();
    let mut chunks = Vec::with_capacity(body.len() / cb + 1);
    let mut start = 0usize;
    while start < bytes.len() {
        let mut end = (start + cb).min(bytes.len());
        while end < bytes.len() && bytes[end - 1] != b'\n' {
            end += 1;
        }
        chunks.push(&body[start..end]);
        start = end;
    }
    chunks
}

// ----- line scanning ---------------------------------------------------

const MAX_FIELDS: usize = 6;

/// One whitespace-separated field of a `.sim` line, with its 1-based
/// character column in the raw line.
#[derive(Clone, Copy, Default)]
struct Field<'a> {
    col: usize,
    text: &'a str,
}

/// Splits a raw line into up to [`MAX_FIELDS`] stack-stored fields,
/// tracking 1-based *character* columns so diagnostics can point at the
/// offending token. Returns the total field count, which may exceed the
/// stored count (error messages report it). ASCII lines — the entirety
/// of machine-written files — take a byte loop; anything else falls back
/// to a char walk with identical column semantics.
fn split_fields<'a>(raw: &'a str, out: &mut [Field<'a>; MAX_FIELDS]) -> usize {
    let mut n = 0usize;
    if raw.is_ascii() {
        let bytes = raw.as_bytes();
        let mut i = 0usize;
        while i < bytes.len() {
            while i < bytes.len() && is_ws(bytes[i]) {
                i += 1;
            }
            if i >= bytes.len() {
                break;
            }
            let start = i;
            while i < bytes.len() && !is_ws(bytes[i]) {
                i += 1;
            }
            if n < MAX_FIELDS {
                out[n] = Field {
                    col: start + 1,
                    text: &raw[start..i],
                };
            }
            n += 1;
        }
    } else {
        let mut start: Option<(usize, usize)> = None; // (1-based col, byte offset)
        let mut col = 0usize;
        for (byte, c) in raw.char_indices() {
            col += 1;
            if c.is_whitespace() {
                if let Some((s_col, s_byte)) = start.take() {
                    if n < MAX_FIELDS {
                        out[n] = Field {
                            col: s_col,
                            text: &raw[s_byte..byte],
                        };
                    }
                    n += 1;
                }
            } else if start.is_none() {
                start = Some((col, byte));
            }
        }
        if let Some((s_col, s_byte)) = start {
            if n < MAX_FIELDS {
                out[n] = Field {
                    col: s_col,
                    text: &raw[s_byte..],
                };
            }
            n += 1;
        }
    }
    n
}

/// One validated `.sim` record, borrowing its name tokens from the line.
/// Scanning is split from building so chunk workers can scan without a
/// builder and the serial path can build without re-validating.
enum Record<'a> {
    /// Blank or comment line.
    Skip,
    /// `e`/`d` transistor line, fully validated.
    Device {
        kind: DeviceKind,
        g: &'a str,
        s: &'a str,
        d: &'a str,
        w: f64,
        l: f64,
    },
    /// `C` explicit-capacitance line (already converted to pF).
    Cap { node: &'a str, pf: f64 },
    /// `i`/`o`/`k` role declaration.
    Role { node: &'a str, role: NodeRole },
}

/// A problem found on one line, located at a token. Device-numbered
/// messages are materialized later, once the global index of the
/// would-be device is known (chunk workers don't know it).
struct ScanProblem {
    code: &'static str,
    col: usize,
    kind: ProblemKind,
}

enum ProblemKind {
    /// Message fully known at scan time.
    Plain(String),
    /// Transistor with source and drain on the same node.
    Shorted { node: String },
    /// Transistor with non-positive or non-finite geometry.
    Geometry { w: f64, l: f64 },
    /// Negative or non-finite explicit capacitance.
    BadCap { node: String, pf: f64 },
}

impl ScanProblem {
    fn plain(code: &'static str, col: usize, message: String) -> Self {
        ScanProblem {
            code,
            col,
            kind: ProblemKind::Plain(message),
        }
    }

    /// The recovering-mode message, given the index the device would
    /// have taken had the line been accepted.
    fn into_message(self, dev_index: usize) -> String {
        match self.kind {
            ProblemKind::Plain(m) => m,
            ProblemKind::Shorted { node } => {
                let name = format!("m{dev_index}");
                format!("device {name:?} has source and drain on the same node {node:?}")
            }
            ProblemKind::Geometry { w, l } => {
                let name = format!("m{dev_index}");
                format!("device {name:?} has non-positive geometry W={w} µm, L={l} µm")
            }
            ProblemKind::BadCap { node, pf } => {
                format!("node {node:?} given invalid capacitance {pf} pF")
            }
        }
    }

    /// The strict-mode error (structural problems keep their historical
    /// [`NetlistError`] variants).
    fn into_strict(self, lineno: usize, dev_index: usize) -> NetlistError {
        match self.kind {
            ProblemKind::Plain(message) => NetlistError::SimParse {
                line: lineno,
                col: self.col,
                message,
            },
            ProblemKind::Shorted { .. } => NetlistError::ShortedChannel {
                device: format!("m{dev_index}"),
            },
            ProblemKind::Geometry { w, l } => NetlistError::BadGeometry {
                device: format!("m{dev_index}"),
                w_um: w,
                l_um: l,
            },
            ProblemKind::BadCap { node, pf } => NetlistError::BadCapacitance { node, cap_pf: pf },
        }
    }
}

/// Scans one raw line into a validated [`Record`] without touching any
/// builder. On `Err` the line contributes nothing to the netlist, so a
/// recovered build always finishes.
fn scan_line(raw: &str) -> Result<Record<'_>, ScanProblem> {
    let mut fields = [Field::default(); MAX_FIELDS];
    let total = split_fields(raw, &mut fields);
    if total == 0 || fields[0].text.starts_with('|') {
        return Ok(Record::Skip);
    }
    let f0 = fields[0];
    let num = |f: &Field<'_>, what: &str| -> Result<f64, ScanProblem> {
        f.text.parse::<f64>().map_err(|_| {
            ScanProblem::plain(
                codes::PARSE_BAD_NUMBER,
                f.col,
                format!("bad {what} {:?}", f.text),
            )
        })
    };
    match f0.text {
        "e" | "d" => {
            if total != 6 {
                return Err(ScanProblem::plain(
                    codes::PARSE_FIELD_COUNT,
                    f0.col,
                    format!("transistor line needs 6 fields, got {total}"),
                ));
            }
            let l = num(&fields[4], "length")?;
            let w = num(&fields[5], "width")?;
            // Validate the device *before* anything reaches a builder so
            // a rejected line leaves the netlist untouched.
            if fields[2].text == fields[3].text {
                return Err(ScanProblem {
                    code: codes::PARSE_SHORTED_CHANNEL,
                    col: fields[3].col,
                    kind: ProblemKind::Shorted {
                        node: fields[2].text.to_string(),
                    },
                });
            }
            if !w.is_finite() || !l.is_finite() || w <= 0.0 || l <= 0.0 {
                return Err(ScanProblem {
                    code: codes::PARSE_BAD_GEOMETRY,
                    col: fields[4].col,
                    kind: ProblemKind::Geometry { w, l },
                });
            }
            Ok(Record::Device {
                kind: if f0.text == "e" {
                    DeviceKind::Enhancement
                } else {
                    DeviceKind::Depletion
                },
                g: fields[1].text,
                s: fields[2].text,
                d: fields[3].text,
                w,
                l,
            })
        }
        "C" => {
            if total != 3 {
                return Err(ScanProblem::plain(
                    codes::PARSE_FIELD_COUNT,
                    f0.col,
                    "capacitance line needs 3 fields".into(),
                ));
            }
            let ff = fields[2].text.parse::<f64>().map_err(|_| {
                ScanProblem::plain(
                    codes::PARSE_BAD_NUMBER,
                    fields[2].col,
                    format!("bad capacitance {:?}", fields[2].text),
                )
            })?;
            let pf = ff / 1000.0;
            if !pf.is_finite() || pf < 0.0 {
                return Err(ScanProblem {
                    code: codes::PARSE_BAD_CAP,
                    col: fields[2].col,
                    kind: ProblemKind::BadCap {
                        node: fields[1].text.to_string(),
                        pf,
                    },
                });
            }
            Ok(Record::Cap {
                node: fields[1].text,
                pf,
            })
        }
        "i" => {
            if total != 2 {
                return Err(ScanProblem::plain(
                    codes::PARSE_FIELD_COUNT,
                    f0.col,
                    "input line needs 2 fields".into(),
                ));
            }
            Ok(Record::Role {
                node: fields[1].text,
                role: NodeRole::Input,
            })
        }
        "o" => {
            if total != 2 {
                return Err(ScanProblem::plain(
                    codes::PARSE_FIELD_COUNT,
                    f0.col,
                    "output line needs 2 fields".into(),
                ));
            }
            Ok(Record::Role {
                node: fields[1].text,
                role: NodeRole::Output,
            })
        }
        "k" => {
            if total != 3 {
                return Err(ScanProblem::plain(
                    codes::PARSE_FIELD_COUNT,
                    f0.col,
                    "clock line needs 3 fields".into(),
                ));
            }
            let p = fields[2].text.parse::<u8>().map_err(|_| {
                ScanProblem::plain(
                    codes::PARSE_BAD_NUMBER,
                    fields[2].col,
                    format!("bad phase {:?}", fields[2].text),
                )
            })?;
            Ok(Record::Role {
                node: fields[1].text,
                role: NodeRole::Clock(p),
            })
        }
        other => Err(ScanProblem::plain(
            codes::PARSE_UNKNOWN_RECORD,
            f0.col,
            format!("unknown record type {other:?}"),
        )),
    }
}

/// Builds one accepted record into the builder. Shared by the serial
/// reader, the fault-replay prefix, and the worker-panic fallback.
#[inline]
fn apply_record(b: &mut NetlistBuilder, rec: Record<'_>, dev_count: &mut usize) {
    match rec {
        Record::Skip => {}
        Record::Device {
            kind,
            g,
            s,
            d,
            w,
            l,
        } => {
            let gn = b.node(g);
            let sn = b.node(s);
            let dn = b.node(d);
            let name = format!("m{}", *dev_count);
            *dev_count += 1;
            match kind {
                DeviceKind::Enhancement => {
                    b.enhancement(name, gn, sn, dn, w, l);
                }
                DeviceKind::Depletion => {
                    b.depletion(name, gn, sn, dn, w, l);
                }
            }
        }
        Record::Cap { node, pf } => {
            let n = b.node(node);
            b.add_cap(n, pf).expect("validated by scan");
        }
        Record::Role { node, role } => {
            let id = b.node(node);
            b.set_role(id, role);
        }
    }
}

// ----- serial reader ---------------------------------------------------

fn parse_serial_body(
    b: &mut NetlistBuilder,
    body: &str,
    diags: &mut Diagnostics,
    strict: bool,
) -> Result<(u64, usize), NetlistError> {
    let mut dev_count = 0usize;
    let mut line_count = 0u64;
    for (i, raw) in body.lines().enumerate() {
        let lineno = i + 1;
        line_count += 1;
        // Fault plane: a chunk boundary every 64 lines is a trust
        // boundary — a mid-read failure must surface as a loud parse
        // error, never a half-ingested netlist.
        if lineno % 64 == 0 && tv_fault::fault_point!(tv_fault::Site::ParseChunk) {
            tv_obs::incr(tv_obs::Counter::FaultInjected);
            return Err(NetlistError::SimParse {
                line: lineno,
                col: 1,
                message: "injected fault at parse_chunk (tv_fault)".to_string(),
            });
        }
        match scan_line(raw) {
            Ok(rec) => apply_record(b, rec, &mut dev_count),
            Err(p) => {
                if strict {
                    return Err(p.into_strict(lineno, dev_count));
                }
                // Past the error cap the sink drops and counts; parsing
                // continues so every valid line still reaches the netlist.
                let (code, col) = (p.code, p.col);
                diags.push(Diagnostic::error(code, p.into_message(dev_count)).at(lineno, col));
            }
        }
    }
    Ok((line_count, dev_count))
}

// ----- chunk-parallel reader -------------------------------------------

/// Everything one worker learned about its chunk, in local coordinates.
/// The merge replays it against the shared builder in chunk order, which
/// reproduces the serial reader's first-seen node order, device
/// numbering, capacitance accumulation order, and diagnostic stream
/// byte for byte.
struct ChunkOut {
    /// Local symbol table: every name token of every accepted record,
    /// interned in line order — within a chunk, local symbol order *is*
    /// the serial first-seen order.
    names: Interner,
    /// Accepted transistors, in line order, terminals as local symbols.
    devs: Vec<ChunkDev>,
    /// Role and capacitance records, in line order. Capacitance is
    /// replayed per record (not pre-summed) so float accumulation
    /// grouping matches the serial reader exactly.
    events: Vec<ChunkEvent>,
    /// Rejected lines, chunk-relative, capped at the sink's error cap
    /// (the global stream can never keep more from one chunk).
    problems: Vec<ChunkProblem>,
    /// Error lines beyond the retained cap — merged via
    /// [`Diagnostics::note_suppressed`].
    overflow: usize,
    /// Lines in the chunk, blank and comment included.
    lines: u64,
}

struct ChunkDev {
    kind: DeviceKind,
    g: u32,
    s: u32,
    d: u32,
    w: f64,
    l: f64,
}

enum ChunkEvent {
    Role(u32, NodeRole),
    Cap(u32, f64),
}

struct ChunkProblem {
    /// 1-based line within the chunk.
    line_rel: u32,
    /// Accepted devices in this chunk before this line (for device
    /// numbering in messages).
    dev_rel: u32,
    problem: ScanProblem,
}

/// Scans one chunk into local coordinates. Pure function of the chunk
/// text — runs on a worker thread with no shared state.
fn scan_chunk(chunk: &str, retain: usize) -> ChunkOut {
    let mut out = ChunkOut {
        names: Interner::with_capacity(chunk.len() / 16),
        devs: Vec::new(),
        events: Vec::new(),
        problems: Vec::new(),
        overflow: 0,
        lines: 0,
    };
    for (i, raw) in chunk.lines().enumerate() {
        out.lines += 1;
        match scan_line(raw) {
            Ok(Record::Skip) => {}
            Ok(Record::Device {
                kind,
                g,
                s,
                d,
                w,
                l,
            }) => {
                let g = out.names.intern(g).index() as u32;
                let s = out.names.intern(s).index() as u32;
                let d = out.names.intern(d).index() as u32;
                out.devs.push(ChunkDev {
                    kind,
                    g,
                    s,
                    d,
                    w,
                    l,
                });
            }
            Ok(Record::Cap { node, pf }) => {
                let sym = out.names.intern(node).index() as u32;
                out.events.push(ChunkEvent::Cap(sym, pf));
            }
            Ok(Record::Role { node, role }) => {
                let sym = out.names.intern(node).index() as u32;
                out.events.push(ChunkEvent::Role(sym, role));
            }
            Err(p) => {
                if out.problems.len() < retain {
                    out.problems.push(ChunkProblem {
                        line_rel: (i + 1) as u32,
                        dev_rel: out.devs.len() as u32,
                        problem: p,
                    });
                } else {
                    out.overflow += 1;
                }
            }
        }
    }
    out
}

fn parse_chunked(
    b: &mut NetlistBuilder,
    body: &str,
    chunks: &[&str],
    diags: &mut Diagnostics,
    total_lines: u64,
    jobs: usize,
) -> Result<(u64, usize), NetlistError> {
    // Fault plane: the serial reader probes the parse_chunk site every
    // 64 lines, in line order. Replay the same probe sequence up front
    // so an armed plan fires at the identical boundary; if it does,
    // degrade to the serial reader for the completed prefix and return
    // the identical error.
    let mut fired: Option<usize> = None;
    let mut lb = 64u64;
    while lb <= total_lines {
        if tv_fault::fault_point!(tv_fault::Site::ParseChunk) {
            fired = Some(lb as usize);
            break;
        }
        lb += 64;
    }
    if let Some(line) = fired {
        let mut dev_count = 0usize;
        for (i, raw) in body.lines().take(line - 1).enumerate() {
            match scan_line(raw) {
                Ok(rec) => apply_record(b, rec, &mut dev_count),
                Err(p) => {
                    let (code, col) = (p.code, p.col);
                    diags.push(Diagnostic::error(code, p.into_message(dev_count)).at(i + 1, col));
                }
            }
        }
        tv_obs::incr(tv_obs::Counter::FaultInjected);
        return Err(NetlistError::SimParse {
            line,
            col: 1,
            message: "injected fault at parse_chunk (tv_fault)".to_string(),
        });
    }

    // Scan: each worker takes a contiguous run of chunks, every scan
    // panic-isolated so one poisoned chunk degrades, never crashes.
    let retain = diags.max_errors();
    let slots = tv_fault::isolated_map(chunks.to_vec(), jobs, |c| scan_chunk(c, retain));

    // Merge, strictly in chunk order.
    let mut line_base = 0u64;
    let mut dev_count = 0usize;
    for (ci, slot) in slots.into_iter().enumerate() {
        match slot {
            Ok(out) => {
                // Interning local symbols in index order reproduces the
                // serial first-seen node creation order.
                let mut remap: Vec<NodeId> = Vec::with_capacity(out.names.len());
                for sym in 0..out.names.len() {
                    remap.push(b.node(out.names.resolve(Symbol::from_index(sym))));
                }
                for ev in &out.events {
                    match *ev {
                        ChunkEvent::Role(sym, role) => b.set_role(remap[sym as usize], role),
                        ChunkEvent::Cap(sym, pf) => {
                            b.add_cap(remap[sym as usize], pf)
                                .expect("validated by scan");
                        }
                    }
                }
                let dev_base = dev_count;
                for d in &out.devs {
                    let name = format!("m{dev_count}");
                    dev_count += 1;
                    match d.kind {
                        DeviceKind::Enhancement => {
                            b.enhancement(
                                name,
                                remap[d.g as usize],
                                remap[d.s as usize],
                                remap[d.d as usize],
                                d.w,
                                d.l,
                            );
                        }
                        DeviceKind::Depletion => {
                            b.depletion(
                                name,
                                remap[d.g as usize],
                                remap[d.s as usize],
                                remap[d.d as usize],
                                d.w,
                                d.l,
                            );
                        }
                    }
                }
                for p in out.problems {
                    let lineno = line_base + p.line_rel as u64;
                    let (code, col) = (p.problem.code, p.problem.col);
                    let message = p.problem.into_message(dev_base + p.dev_rel as usize);
                    diags.push(Diagnostic::error(code, message).at(lineno as usize, col));
                }
                diags.note_suppressed(out.overflow);
                line_base += out.lines;
            }
            Err(()) => {
                // A worker panicked on this chunk: report it and degrade
                // the chunk to the serial reader, exactly like PR 2's
                // per-level propagation fallback.
                tv_obs::incr(tv_obs::Counter::FaultDegraded);
                diags.push(Diagnostic::warning(
                    codes::ANALYSIS_WORKER_PANIC,
                    "a parse worker panicked; chunk reparsed serially".to_string(),
                ));
                let mut lines = 0u64;
                for (i, raw) in chunks[ci].lines().enumerate() {
                    lines += 1;
                    match scan_line(raw) {
                        Ok(rec) => apply_record(b, rec, &mut dev_count),
                        Err(p) => {
                            let lineno = line_base + i as u64 + 1;
                            let (code, col) = (p.code, p.col);
                            diags.push(
                                Diagnostic::error(code, p.into_message(dev_count))
                                    .at(lineno as usize, col),
                            );
                        }
                    }
                }
                line_base += lines;
            }
        }
    }
    Ok((line_base, dev_count))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetlistBuilder, Tech};

    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let phi = b.clock("phi1", 0);
        let out = b.output("out");
        let mid = b.node("mid");
        b.inverter("i1", a, mid);
        b.pass("p1", phi, mid, out);
        b.add_cap(out, 0.123).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn round_trip_preserves_structure_and_caps() {
        let nl = sample();
        let text = write(&nl);
        let back = parse(&text, Tech::nmos4um()).unwrap();
        assert_eq!(back.device_count(), nl.device_count());
        assert_eq!(back.node_count(), nl.node_count());
        assert_eq!(back.inputs().len(), 1);
        assert_eq!(back.outputs().len(), 1);
        assert_eq!(back.clocks(), {
            let n = back.node_by_name("phi1").unwrap();
            vec![(n, 0)]
        });
        let out = back.node_by_name("out").unwrap();
        let orig_out = nl.node_by_name("out").unwrap();
        assert!((back.node_cap(out) - nl.node_cap(orig_out)).abs() < 1e-9);
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let text = "| header\n\n| another comment\ni a\n";
        let nl = parse(text, Tech::nmos4um()).unwrap();
        assert_eq!(nl.inputs().len(), 1);
    }

    #[test]
    fn malformed_transistor_line_reports_line_number() {
        let text = "| ok\ne a b\n";
        let err = parse(text, Tech::nmos4um()).unwrap_err();
        match err {
            NetlistError::SimParse { line, .. } => assert_eq!(line, 2),
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn unknown_record_is_an_error() {
        let err = parse("z foo\n", Tech::nmos4um()).unwrap_err();
        assert!(matches!(err, NetlistError::SimParse { .. }));
    }

    #[test]
    fn bad_number_is_an_error() {
        let err = parse("e a b c four 4\n", Tech::nmos4um()).unwrap_err();
        assert!(matches!(err, NetlistError::SimParse { .. }));
    }

    #[test]
    fn shorted_channel_in_file_is_caught() {
        let err = parse("e g x x 2 4\n", Tech::nmos4um()).unwrap_err();
        assert!(matches!(err, NetlistError::ShortedChannel { .. }));
    }

    #[test]
    fn writer_emits_rails_by_name() {
        let nl = sample();
        let text = write(&nl);
        assert!(text.contains("GND"));
        assert!(text.contains("VDD"));
    }

    #[test]
    fn parse_error_reports_offending_column() {
        // "four" starts at column 9 of "e a b c four 4".
        let err = parse("e a b c four 4\n", Tech::nmos4um()).unwrap_err();
        match err {
            NetlistError::SimParse { line, col, message } => {
                assert_eq!(line, 1);
                assert_eq!(col, 9);
                assert!(message.contains("four"), "message was {message:?}");
            }
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn recovering_parse_collects_all_errors_in_one_pass() {
        // Three distinct problems: unknown record, bad field count, bad number.
        let text = "i a\nz what\ne a b\nC out nope\no out\n";
        let mut diags = Diagnostics::new();
        let nl = parse_recovering(text, Tech::nmos4um(), &mut diags).unwrap();
        assert_eq!(diags.error_count(), 3);
        let seen: Vec<&str> = diags.items().iter().map(|d| d.code).collect();
        assert!(seen.contains(&codes::PARSE_UNKNOWN_RECORD));
        assert!(seen.contains(&codes::PARSE_FIELD_COUNT));
        assert!(seen.contains(&codes::PARSE_BAD_NUMBER));
        // The good lines still built a netlist.
        assert_eq!(nl.inputs().len(), 1);
        assert_eq!(nl.outputs().len(), 1);
    }

    #[test]
    fn recovering_parse_drops_degenerate_devices_but_keeps_the_rest() {
        let text = "i a\ne a x x 2 4\ne a GND out 2 4\no out\n";
        let mut diags = Diagnostics::new();
        let nl = parse_recovering(text, Tech::nmos4um(), &mut diags).unwrap();
        assert_eq!(diags.error_count(), 1);
        assert_eq!(diags.items()[0].code, codes::PARSE_SHORTED_CHANNEL);
        assert_eq!(nl.device_count(), 1);
    }

    #[test]
    fn recovering_parse_respects_error_cap() {
        let mut text = String::new();
        for _ in 0..10 {
            text.push_str("z junk\n");
        }
        let mut diags = Diagnostics::with_max_errors(3);
        parse_recovering(&text, Tech::nmos4um(), &mut diags).unwrap();
        assert_eq!(diags.error_count(), 3);
        assert_eq!(diags.suppressed(), 7, "the rest are counted, not kept");
        assert!(diags.render_text(None).contains("suppressed"));
    }

    #[test]
    fn empty_input_parses_to_empty_netlist() {
        let mut diags = Diagnostics::new();
        let nl = parse_recovering("", Tech::nmos4um(), &mut diags).unwrap();
        assert!(!diags.has_errors());
        assert_eq!(nl.device_count(), 0);
    }

    #[test]
    fn bom_prefixed_input_is_tolerated() {
        let text = "\u{feff}| header\ni a\n";
        let mut diags = Diagnostics::new();
        let nl = parse_recovering(text, Tech::nmos4um(), &mut diags).unwrap();
        assert!(!diags.has_errors());
        assert_eq!(nl.inputs().len(), 1);
        // The BOM is surfaced as an informational note, not an error.
        assert!(diags
            .items()
            .iter()
            .any(|d| d.message.contains("byte-order")));
    }

    #[test]
    fn crlf_input_parses_cleanly() {
        let text = "| header\r\ni a\r\no out\r\ne a GND out 2 4\r\n";
        let mut diags = Diagnostics::new();
        let nl = parse_recovering(text, Tech::nmos4um(), &mut diags).unwrap();
        assert!(!diags.has_errors(), "diags: {:?}", diags.items());
        assert_eq!(nl.device_count(), 1);
    }

    #[test]
    fn truncated_input_reports_the_partial_last_line() {
        // A transistor line cut off mid-record, as from a truncated copy.
        let nl = sample();
        let full = write(&nl);
        let cut = &full[..full.len() - 8];
        let mut diags = Diagnostics::new();
        let back = parse_recovering(cut, Tech::nmos4um(), &mut diags).unwrap();
        assert!(diags.has_errors());
        assert!(back.device_count() < nl.device_count());
    }

    // ----- chunk-parallel determinism ----------------------------------

    /// A workload with repeated structure, cross-chunk node reuse, and
    /// interleaved bad lines — the adversarial case for chunked ingest.
    fn mixed_text(bad_every: usize) -> String {
        let mut t = String::from("| mixed workload\ni a\nk phi1 0\n");
        for n in 0..400 {
            t.push_str(&format!("e a n{} n{} 2 4\n", n, n + 1));
            t.push_str(&format!("C n{} 1.5\n", n % 7));
            if bad_every != 0 && n % bad_every == 0 {
                t.push_str("z junk line\n");
                t.push_str(&format!("e a n{n} n{n} 2 4\n")); // shorted
            }
        }
        t.push_str("o n400\n");
        t
    }

    fn opts(jobs: usize, chunk_bytes: usize) -> ParseOptions {
        ParseOptions { jobs, chunk_bytes }
    }

    #[test]
    fn chunked_parse_is_bit_identical_to_serial() {
        let text = mixed_text(13);
        let mut serial_diags = Diagnostics::new();
        let serial = parse_recovering(&text, Tech::nmos4um(), &mut serial_diags).unwrap();
        for jobs in [2, 3, 8] {
            for chunk_bytes in [64, 301, 4096] {
                let mut diags = Diagnostics::new();
                let nl = parse_recovering_with(
                    &text,
                    Tech::nmos4um(),
                    &mut diags,
                    &opts(jobs, chunk_bytes),
                )
                .unwrap();
                // The writer is canonical: byte-equal output means equal
                // nodes, names, order, roles, caps, and devices.
                assert_eq!(
                    write(&nl),
                    write(&serial),
                    "netlist drift at jobs={jobs} chunk_bytes={chunk_bytes}"
                );
                assert_eq!(
                    diags.render_text(None),
                    serial_diags.render_text(None),
                    "diagnostic drift at jobs={jobs} chunk_bytes={chunk_bytes}"
                );
                assert_eq!(diags.suppressed(), serial_diags.suppressed());
            }
        }
    }

    #[test]
    fn chunked_parse_matches_error_cap_truncation_exactly() {
        let text = mixed_text(3); // many errors, cap will truncate
        let mut serial_diags = Diagnostics::with_max_errors(5);
        let serial = parse_recovering(&text, Tech::nmos4um(), &mut serial_diags).unwrap();
        assert!(serial_diags.suppressed() > 0, "cap must actually engage");
        for jobs in [2, 8] {
            let mut diags = Diagnostics::with_max_errors(5);
            let nl = parse_recovering_with(&text, Tech::nmos4um(), &mut diags, &opts(jobs, 128))
                .unwrap();
            assert_eq!(write(&nl), write(&serial));
            assert_eq!(diags.render_text(None), serial_diags.render_text(None));
            assert_eq!(diags.render_json(None), serial_diags.render_json(None));
            assert_eq!(diags.suppressed(), serial_diags.suppressed());
        }
    }

    #[test]
    fn bad_line_longer_than_a_chunk_is_reported_once_with_exact_position() {
        // The malformed line is far longer than chunk_bytes, so the
        // splitter must extend a chunk across it rather than tearing it.
        let long_name = "n".repeat(300);
        let text = format!("i a\ne a {long_name} {long_name} 2 4\no out\n");
        let mut serial_diags = Diagnostics::new();
        let serial = parse_recovering(&text, Tech::nmos4um(), &mut serial_diags).unwrap();
        let mut diags = Diagnostics::new();
        let nl = parse_recovering_with(&text, Tech::nmos4um(), &mut diags, &opts(4, 16)).unwrap();
        assert_eq!(write(&nl), write(&serial));
        assert_eq!(diags.render_text(None), serial_diags.render_text(None));
        assert_eq!(diags.error_count(), 1);
        let d = &diags.items()[0];
        assert_eq!(d.code, codes::PARSE_SHORTED_CHANNEL);
        assert_eq!(d.line, Some(2));
        assert_eq!(d.col, Some(5 + long_name.len() as u32 + 1));
    }

    #[test]
    fn chunk_split_is_a_pure_line_respecting_cover() {
        let text = mixed_text(7);
        for chunk_bytes in [1, 50, 777] {
            let chunks = split_chunks(&text, chunk_bytes);
            assert_eq!(chunks.concat(), text, "chunks must cover the input");
            for c in &chunks[..chunks.len() - 1] {
                assert!(c.ends_with('\n'), "interior chunk tore a line");
            }
        }
    }

    #[test]
    fn prescan_reserve_eliminates_builder_growth() {
        let text = mixed_text(0);
        let pre = prescan(&text);
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        b.reserve(pre.name_tokens + 2, pre.dev_lines, pre.name_bytes);
        let base = b.growth_events();
        let mut diags = Diagnostics::new();
        parse_serial_body(&mut b, &text, &mut diags, false).unwrap();
        assert_eq!(b.growth_events(), base, "pre-sized parse still grew");
        assert!(b.device_count() > 0);
    }

    #[test]
    fn prescan_counts_match_str_lines_and_records() {
        let text = "| c\n\ni a\ne a b c 2 4\nC b 1\nk phi1 0\ntrailing no newline";
        let pre = prescan(text);
        assert_eq!(pre.lines, text.lines().count() as u64);
        assert_eq!(pre.dev_lines, 1);
        // 3 device names + C + i + k node tokens.
        assert_eq!(pre.name_tokens, 6);
        assert_eq!(
            pre.name_bytes,
            "abc".len() + "b".len() + "a".len() + "phi1".len()
        );
        assert!(pre.peak_alloc_est() > 0);
    }
}
