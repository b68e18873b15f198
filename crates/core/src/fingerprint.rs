//! Report and flow fingerprints: the bit-identity contract, as code.
//!
//! Two hash families live here and must not be confused:
//!
//! * The **golden FNV** ([`Fnv`], [`report_fingerprint`],
//!   [`flow_fingerprint`]) — a byte-wise FNV-1a over every observable
//!   field of a [`TimingReport`] / flow analysis. The committed golden
//!   values in `tests/integration_layout.rs` were captured with exactly
//!   this function, so its traversal order and byte-level mixing are
//!   frozen: any change here *is* a semantic change to the equivalence
//!   contract. The session protocol also reports these fingerprints, so
//!   a session transcript pins the full report bit-for-bit.
//! * The **internal mixer** (`mix64`, `hash_words`) — a fast
//!   word-wise splitmix64-style finalizer used for pass input/output
//!   fingerprints. These
//!   are compared only within one process and never committed, so they
//!   can favor speed (one multiply chain per word instead of per byte).

use std::fmt::Write as _;

use tv_flow::{Direction, FlowAnalysis, NodeClass, Rule};
use tv_netlist::Netlist;

use crate::analyzer::TimingReport;
use crate::hold::RaceHazard;
use crate::paths::TimingPath;
use crate::propagate::{Completion, Edge, PhaseResult};

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// Byte-wise FNV-1a accumulator (the golden-fingerprint hash).
#[derive(Debug, Clone)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    /// A fresh accumulator at the FNV offset basis.
    pub fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    /// Mixes one `u64`, little-endian byte by byte.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Mixes an `f64` by its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Mixes an `Option<f64>` with a presence tag.
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u64(1);
                self.f64(x);
            }
            None => self.u64(0),
        }
    }

    /// Mixes a length-prefixed byte string.
    pub fn bytes(&mut self, s: &[u8]) {
        self.u64(s.len() as u64);
        for &b in s {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

fn hash_phase_result(h: &mut Fnv, nl: &Netlist, r: &PhaseResult) {
    for id in nl.node_ids() {
        h.opt_f64(r.arrivals.rise(id));
        h.opt_f64(r.arrivals.fall(id));
        h.opt_f64(r.arrivals.transition(id, Edge::Rise));
        h.opt_f64(r.arrivals.transition(id, Edge::Fall));
    }
    h.u64(r.endpoints.len() as u64);
    for &(id, at) in &r.endpoints {
        h.u64(id.index() as u64);
        h.f64(at);
    }
    h.u64(r.cyclic as u64);
    h.u64(r.relaxations as u64);
    h.u64(matches!(r.completion, Completion::Complete) as u64);
    h.u64(r.unresolved.len() as u64);
}

fn hash_paths(h: &mut Fnv, paths: &[TimingPath]) {
    h.u64(paths.len() as u64);
    for p in paths {
        h.u64(p.len() as u64);
        for s in &p.steps {
            h.u64(s.node.index() as u64);
            h.bytes(edge_debug_bytes(s.edge));
            h.f64(s.at);
        }
    }
}

/// Hashes everything a [`TimingReport`] observably contains, bit-exact on
/// every floating-point value. Node *names* are hashed too, so identity
/// covers naming, not just values. This is the function behind the golden
/// fingerprints in `tests/integration_layout.rs` and the `fingerprint`
/// field of session `analyze` replies. A report with phase cases hashes
/// one word in place of its all-active block: case analysis does not
/// walk that case, so its result is empty.
pub fn report_fingerprint(nl: &Netlist, report: &TimingReport) -> u64 {
    ReportParts {
        combinational: &report.combinational,
        combinational_paths: &report.combinational_paths,
        phases: report
            .phases
            .iter()
            .map(|p| PhaseParts {
                phase: p.phase,
                arcs: p.arcs,
                slack: p.slack,
                result: &p.result,
                paths: &p.paths,
                races: &p.races,
            })
            .collect(),
        latches: report.latches.len(),
        checks: report.checks.len(),
        diagnostics: report.diagnostics.len(),
        min_cycle: report.min_cycle,
    }
    .fingerprint(nl)
}

/// The fields of a report the golden fingerprint reads, borrowed from
/// wherever they live: an owned [`TimingReport`], or the pass slots of a
/// [`crate::PassManager`] that answers a session without assembling one.
pub(crate) struct ReportParts<'a> {
    pub combinational: &'a PhaseResult,
    pub combinational_paths: &'a [TimingPath],
    pub phases: Vec<PhaseParts<'a>>,
    pub latches: usize,
    pub checks: usize,
    pub diagnostics: usize,
    pub min_cycle: Option<f64>,
}

/// One phase case's share of [`ReportParts`].
pub(crate) struct PhaseParts<'a> {
    pub phase: u8,
    pub arcs: usize,
    pub slack: Option<f64>,
    pub result: &'a PhaseResult,
    pub paths: &'a [TimingPath],
    pub races: &'a [RaceHazard],
}

/// The word a report with phase cases hashes in place of its all-active
/// block.
const UNWALKED: u64 = u64::MAX;

impl ReportParts<'_> {
    /// The latest critical arrival of the walked cases: the phase cases
    /// when there are any, the all-active case otherwise.
    pub(crate) fn critical(&self) -> Option<f64> {
        if self.phases.is_empty() {
            return self.combinational.critical_arrival();
        }
        self.phases
            .iter()
            .filter_map(|p| p.result.critical_arrival())
            .reduce(f64::max)
    }

    /// The one traversal behind every golden report fingerprint.
    pub(crate) fn fingerprint(&self, nl: &Netlist) -> u64 {
        let mut h = Fnv::new();
        h.u64(nl.node_count() as u64);
        h.u64(nl.device_count() as u64);
        for id in nl.node_ids() {
            h.bytes(nl.node_name(id).as_bytes());
            h.f64(nl.node_cap(id));
        }
        // Under case analysis the all-active case is not walked, and one
        // word stands for its empty result.
        if self.phases.is_empty() {
            hash_phase_result(&mut h, nl, self.combinational);
            hash_paths(&mut h, self.combinational_paths);
        } else {
            h.u64(UNWALKED);
        }
        h.u64(self.phases.len() as u64);
        for p in &self.phases {
            h.u64(p.phase as u64);
            h.u64(p.arcs as u64);
            h.opt_f64(p.slack);
            hash_phase_result(&mut h, nl, p.result);
            hash_paths(&mut h, p.paths);
            h.u64(p.races.len() as u64);
            for race in p.races {
                h.u64(race.capture.index() as u64);
                h.f64(race.min_arrival);
            }
        }
        h.u64(self.latches as u64);
        h.u64(self.checks as u64);
        h.u64(self.diagnostics as u64);
        h.opt_f64(self.min_cycle);
        h.0
    }
}

/// Hashes a full flow analysis: per-device direction, resolving rule,
/// per-node class, and the sweep count. Pins the direction fixpoint to
/// its exact classifications.
pub fn flow_fingerprint(nl: &Netlist, flow: &FlowAnalysis) -> u64 {
    let mut h = Fnv::new();
    h.u64(flow.sweeps() as u64);
    // The golden values were captured by hashing `format!("{:?}", ..)` of
    // each classification. The per-item allocation dominated cold-path flow
    // hashing at scale, so the Debug renderings are reproduced here as
    // static byte strings; `debug_bytes_match_derived_debug` pins each one
    // against the derived impl.
    let mut buf = String::with_capacity(24);
    for d in nl.devices() {
        match flow.direction(d.id) {
            Direction::Unresolved => h.bytes(b"Unresolved"),
            Direction::Bidirectional => h.bytes(b"Bidirectional"),
            Direction::Toward(n) => {
                buf.clear();
                let _ = write!(buf, "Toward(n{})", n.index());
                h.bytes(buf.as_bytes());
            }
        }
        h.bytes(rule_debug_bytes(flow.resolved_by(d.id)));
    }
    for id in nl.node_ids() {
        h.bytes(class_debug_bytes(flow.node_class(id)));
    }
    h.0
}

/// `format!("{:?}", edge)` without the allocation.
#[inline]
fn edge_debug_bytes(e: Edge) -> &'static [u8] {
    match e {
        Edge::Rise => b"Rise",
        Edge::Fall => b"Fall",
    }
}

/// `format!("{:?}", resolved_by)` without the allocation.
#[inline]
fn rule_debug_bytes(r: Option<Rule>) -> &'static [u8] {
    match r {
        None => b"None",
        Some(Rule::Driver) => b"Some(Driver)",
        Some(Rule::External) => b"Some(External)",
        Some(Rule::RestoredDrive) => b"Some(RestoredDrive)",
        Some(Rule::Chain) => b"Some(Chain)",
        Some(Rule::Sink) => b"Some(Sink)",
        Some(Rule::Seed) => b"Some(Seed)",
    }
}

/// `format!("{:?}", class)` without the allocation.
#[inline]
fn class_debug_bytes(c: NodeClass) -> &'static [u8] {
    match c {
        NodeClass::Rail => b"Rail",
        NodeClass::External => b"External",
        NodeClass::Restored => b"Restored",
        NodeClass::Precharged => b"Precharged",
        NodeClass::Storage => b"Storage",
        NodeClass::PassInterior => b"PassInterior",
        NodeClass::Bus => b"Bus",
        NodeClass::GateOnly => b"GateOnly",
    }
}

// ----- internal word mixer --------------------------------------------

/// One round of a splitmix64-style finalizer: strong per-word avalanche
/// at a handful of ALU ops, an order of magnitude cheaper than byte-wise
/// FNV on `u64` streams. Internal fingerprints only — never golden.
#[inline]
pub(crate) fn mix64(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hashes a word sequence with [`mix64`], seeded off the FNV basis.
#[inline]
pub(crate) fn hash_words(words: &[u64]) -> u64 {
    let mut h = FNV_OFFSET;
    for &w in words {
        h = mix64(h, w);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_bytes() {
        // FNV-1a of the empty input is the offset basis; of one zero byte
        // it is basis * prime (xor with 0 is identity).
        let h = Fnv::new();
        assert_eq!(h.0, FNV_OFFSET);
        let mut h = Fnv::new();
        h.0 ^= 0;
        h.0 = h.0.wrapping_mul(FNV_PRIME);
        assert_eq!(h.0, FNV_OFFSET.wrapping_mul(FNV_PRIME));
    }

    #[test]
    fn debug_bytes_match_derived_debug() {
        // The golden flow fingerprints were captured via format!("{:?}");
        // every static rendering must stay byte-identical to the derived
        // Debug impl or the equivalence contract silently breaks.
        for e in [Edge::Rise, Edge::Fall] {
            assert_eq!(edge_debug_bytes(e), format!("{e:?}").as_bytes());
        }
        let rules = [
            None,
            Some(Rule::Driver),
            Some(Rule::External),
            Some(Rule::RestoredDrive),
            Some(Rule::Chain),
            Some(Rule::Sink),
            Some(Rule::Seed),
        ];
        for r in rules {
            assert_eq!(rule_debug_bytes(r), format!("{r:?}").as_bytes());
        }
        let classes = [
            NodeClass::Rail,
            NodeClass::External,
            NodeClass::Restored,
            NodeClass::Precharged,
            NodeClass::Storage,
            NodeClass::PassInterior,
            NodeClass::Bus,
            NodeClass::GateOnly,
        ];
        for c in classes {
            assert_eq!(class_debug_bytes(c), format!("{c:?}").as_bytes());
        }
        for d in [
            Direction::Unresolved,
            Direction::Bidirectional,
            Direction::Toward(tv_netlist::NodeId::from_index(7)),
        ] {
            let mut buf = String::new();
            match d {
                Direction::Unresolved => buf.push_str("Unresolved"),
                Direction::Bidirectional => buf.push_str("Bidirectional"),
                Direction::Toward(n) => {
                    let _ = write!(buf, "Toward(n{})", n.index());
                }
            }
            assert_eq!(buf, format!("{d:?}"));
        }
    }

    #[test]
    fn mix64_is_order_sensitive_and_spreads() {
        assert_ne!(hash_words(&[1, 2]), hash_words(&[2, 1]));
        assert_ne!(hash_words(&[0]), hash_words(&[]));
        // Single-bit input changes flip roughly half the output bits.
        let a = hash_words(&[0x1]);
        let b = hash_words(&[0x3]);
        let flipped = (a ^ b).count_ones();
        assert!((16..=48).contains(&flipped), "weak avalanche: {flipped}");
    }
}
