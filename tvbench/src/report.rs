//! Metric definitions and the result every run prints.
//!
//! The tables here are the benchmark's contract with `BENCHMARK.json`
//! (a test keeps the two in step): every workload reports every
//! end-to-end metric on an untraced run and every per-layer metric on a
//! traced one, so each metric must mean something on all four.

use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// How much worse than the parent's median, as a share of it, the
    /// metric may read before it counts as a regression.
    pub bound: f64,
}

const fn def(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

pub const END_TO_END: [MetricDef; 4] = [
    def("setup_s", "s", Lower, 0.25),
    def("latency_p50_ms", "ms", Lower, 0.25),
    def("throughput_rps", "req/s", Higher, 0.25),
    def("peak_rss_mb", "MiB", Lower, 0.2),
];

/// Per-layer metrics have no bound; `bound` is unused (0).
pub const PER_LAYER: [MetricDef; 33] = [
    def("gen.design_ms", "ms", Lower, 0.0),
    def("netlist.write_ms", "ms", Lower, 0.0),
    def("netlist.parse_ms", "ms", Lower, 0.0),
    def("netlist.parse_mb_per_s", "MB/s", Higher, 0.0),
    def("flow.analyze_ms", "ms", Lower, 0.0),
    def("flow.worklist_pops", "count", Lower, 0.0),
    def("clocks.qualify_ms", "ms", Lower, 0.0),
    def("clocks.latches_ms", "ms", Lower, 0.0),
    def("graph.build_ms", "ms", Lower, 0.0),
    def("graph.arcs", "count", Lower, 0.0),
    def("macro.analyzed_frac", "ratio", Lower, 0.0),
    def("propagate.ms", "ms", Lower, 0.0),
    def("propagate.relaxations", "count", Lower, 0.0),
    def("paths.ms", "ms", Lower, 0.0),
    def("hold.ms", "ms", Lower, 0.0),
    def("checks.ms", "ms", Lower, 0.0),
    def("checks.issues", "count", Lower, 0.0),
    def("assemble.ms", "ms", Lower, 0.0),
    def("report.render_ms", "ms", Lower, 0.0),
    def("report.bytes", "B", Lower, 0.0),
    def("analyzer.run_ms", "ms", Lower, 0.0),
    def("ledger.unattributed_frac", "ratio", Lower, 0.0),
    def("trace.overhead_frac", "ratio", Lower, 0.0),
    def("pipeline.edit_ms", "ms", Lower, 0.0),
    def("pipeline.noop_ms", "ms", Lower, 0.0),
    def("pipeline.rebuild_ms", "ms", Lower, 0.0),
    def("pipeline.passes_rerun", "count", Lower, 0.0),
    def("cone.work_frac", "ratio", Lower, 0.0),
    def("paths.query_ms", "ms", Lower, 0.0),
    def("fingerprint.report_ms", "ms", Lower, 0.0),
    def("session.reply_overhead_ms", "ms", Lower, 0.0),
    def("serve.wire_ms", "ms", Lower, 0.0),
    def("proto.reply_bytes", "B", Lower, 0.0),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// One measured value and how many samples it summarizes.
#[derive(Debug, Clone)]
pub struct Value {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Contract metrics (an `END_TO_END` or `PER_LAYER` name).
    pub metrics: Vec<Value>,
    /// Further figures printed and written to the ledger only.
    pub extras: Vec<Value>,
    /// Informational lines (fingerprints, check results).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a contract metric; its unit comes from the table.
    pub fn metric(&mut self, name: &str, value: f64, samples: usize) {
        let def = find(name).unwrap_or_else(|| panic!("{name} is not a defined metric"));
        self.metrics.push(Value {
            name: name.to_string(),
            value,
            unit: def.unit,
            samples,
        });
    }

    /// Records the median of `samples`; no samples is a failure.
    pub fn median_metric(&mut self, name: &str, samples: &[f64]) {
        match crate::stats::median(samples) {
            Some(m) => self.metric(name, m, samples.len()),
            None => {
                self.fail(format!("{name}: no samples"));
                self.metric(name, 0.0, 0);
            }
        }
    }

    pub fn extra(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.extras.push(Value {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Counts a failed consistency check, with the reason as a note.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {why}"));
    }

    /// The human-readable lines: every metric by name with its unit and
    /// sample count, then the notes.
    pub fn human(&self, workload: &str) -> String {
        let mut s = String::new();
        for v in self.metrics.iter().chain(&self.extras) {
            let _ = writeln!(
                s,
                "{workload:<15} {:<28} {:>16} {:<6} n={}",
                v.name,
                format!("{:.6}", v.value),
                v.unit,
                v.samples
            );
        }
        for n in &self.notes {
            let _ = writeln!(s, "{workload:<15} {n}");
        }
        let _ = writeln!(
            s,
            "{workload:<15} attempted={} failed={}",
            self.attempted, self.failed
        );
        s
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, with the metrics of `defs` in table order. Panics if one
    /// is missing or not finite, which is a bug in the workload.
    pub fn json(&self, defs: &[MetricDef]) -> String {
        let mut m = Vec::new();
        for d in defs {
            let v = self
                .metrics
                .iter()
                .find(|v| v.name == d.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
            assert!(v.value.is_finite(), "metric {} is {}", d.name, v.value);
            m.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name, v.value, d.unit
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            m.join(", ")
        )
    }
}

/// Jiffies the hypervisor gave to other guests (`steal` of the `cpu`
/// line of `/proc/stat`), or 0 where procfs is missing.
fn steal_jiffies() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?.strip_prefix("cpu ")?;
            cpu.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Measures how much CPU the host took away while a run measured: on a
/// shared virtual machine, stolen time inflates every wall-clock metric,
/// so each run records it beside them.
pub struct HostWatch {
    start: std::time::Instant,
    steal: u64,
}

impl HostWatch {
    pub fn start() -> HostWatch {
        HostWatch {
            start: std::time::Instant::now(),
            steal: steal_jiffies(),
        }
    }

    /// Stolen CPU time as a share of all CPU time since `start`
    /// (`/proc/stat` counts in hundredths of a second).
    pub fn record(&self, out: &mut Outcome) {
        let stolen_s = steal_jiffies().saturating_sub(self.steal) as f64 / 100.0;
        let cpu_s = self.start.elapsed().as_secs_f64() * crate::nproc() as f64;
        out.extra("host.steal_frac", stolen_s / cpu_s.max(1e-9), "ratio", 1);
    }
}

/// This process's peak resident set in MiB (`VmHWM`), or 0 where procfs
/// is missing.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|r| r.trim().strip_suffix("kB"))
                .and_then(|n| n.trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::json;

    /// The tables and `BENCHMARK.json` name the same metrics, units,
    /// directions and bounds, in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).and_then(json::Value::as_arr).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (l, d) in listed.iter().zip(defs) {
                assert_eq!(l.get("name").and_then(json::Value::as_str), Some(d.name));
                assert_eq!(l.get("unit").and_then(json::Value::as_str), Some(d.unit));
                let better = l.get("better").and_then(json::Value::as_str);
                assert_eq!(better, Some(d.better.name()), "{}", d.name);
                if key == "end_to_end" {
                    assert_eq!(l.get("bound").and_then(json::Value::as_num), Some(d.bound));
                }
            }
        }
        let workloads = doc.get("workloads").and_then(json::Value::as_arr).unwrap();
        let names: Vec<_> = workloads
            .iter()
            .map(|w| w.get("name").and_then(json::Value::as_str).unwrap())
            .collect();
        let ours: Vec<_> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for d in &END_TO_END {
            o.metric(d.name, 1.5, 1);
        }
        o.extra("noop_p50_ms", 2.0, "ms", 4);
        let doc = json::parse(&o.json(&END_TO_END)).unwrap();
        let json::Value::Obj(top) = &doc else {
            panic!()
        };
        let keys: Vec<_> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let json::Value::Obj(m) = doc.get("metrics").unwrap() else {
            panic!()
        };
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(doc.get("correct"), Some(&json::Value::Bool(true)));
    }
}
