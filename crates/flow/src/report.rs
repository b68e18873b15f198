//! Resolution-coverage statistics (experiments T2 and A2).

use std::fmt;

use tv_netlist::Netlist;

use crate::classify::DeviceRole;
use crate::direction::{Direction, FlowAnalysis};
use crate::rules::Rule;

/// Summary of how well the direction rules covered a netlist.
///
/// Produced by [`FlowAnalysis::report`]; printable as the row format used
/// by the T2/A2 report tables.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowReport {
    /// Total transistors in the netlist.
    pub devices: usize,
    /// Transistors classified as pass devices (the ones needing rules).
    pub pass_devices: usize,
    /// Pass devices oriented to a single direction.
    pub oriented: usize,
    /// Pass devices found genuinely bidirectional.
    pub bidirectional: usize,
    /// Pass devices no rule could orient.
    pub unresolved: usize,
    /// Of the oriented ones: resolved by the external rule.
    pub by_external: usize,
    /// Of the oriented ones: resolved by the restored-drive rule.
    pub by_restored: usize,
    /// Of the oriented ones: resolved by the chain rule.
    pub by_chain: usize,
    /// Of the oriented ones: resolved by the sink rule.
    pub by_sink: usize,
    /// Fixpoint sweeps to stabilize.
    pub sweeps: usize,
    /// Number of channel-connected stages.
    pub stages: usize,
}

impl FlowReport {
    pub(crate) fn from_analysis(analysis: &FlowAnalysis, netlist: &Netlist) -> Self {
        let mut r = FlowReport {
            devices: netlist.device_count(),
            pass_devices: 0,
            oriented: 0,
            bidirectional: 0,
            unresolved: 0,
            by_external: 0,
            by_restored: 0,
            by_chain: 0,
            by_sink: 0,
            sweeps: analysis.sweeps(),
            stages: analysis.stages(),
        };
        for dref in netlist.devices() {
            if analysis.device_role(dref.id) != DeviceRole::Pass {
                continue;
            }
            r.pass_devices += 1;
            match analysis.direction(dref.id) {
                Direction::Toward(_) => {
                    r.oriented += 1;
                    match analysis.resolved_by(dref.id) {
                        Some(Rule::External) => r.by_external += 1,
                        Some(Rule::RestoredDrive) => r.by_restored += 1,
                        Some(Rule::Chain) => r.by_chain += 1,
                        Some(Rule::Sink) => r.by_sink += 1,
                        _ => {}
                    }
                }
                Direction::Bidirectional => r.bidirectional += 1,
                Direction::Unresolved => r.unresolved += 1,
            }
        }
        r
    }

    /// Fraction of pass devices given a definite treatment (oriented or
    /// proven bidirectional), in [0, 1]. Reports 1.0 for netlists with no
    /// pass devices.
    pub fn coverage(&self) -> f64 {
        if self.pass_devices == 0 {
            1.0
        } else {
            (self.oriented + self.bidirectional) as f64 / self.pass_devices as f64
        }
    }
}

impl fmt::Display for FlowReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "devices {}  stages {}  pass {}  oriented {} ({:.1}% coverage)",
            self.devices,
            self.stages,
            self.pass_devices,
            self.oriented,
            100.0 * self.coverage(),
        )?;
        writeln!(
            f,
            "  by rule: external {}  restored {}  chain {}  sink {}",
            self.by_external, self.by_restored, self.by_chain, self.by_sink
        )?;
        write!(
            f,
            "  bidirectional {}  unresolved {}  sweeps {}",
            self.bidirectional, self.unresolved, self.sweeps
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::{analyze, RuleSet};
    use tv_netlist::{NetlistBuilder, Tech};

    #[test]
    fn report_counts_add_up() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let phi = b.clock("phi", 0);
        let src = b.node("src");
        b.inverter("i", a, src);
        let n1 = b.node("n1");
        let n2 = b.node("n2");
        b.pass("p1", phi, src, n1);
        b.pass("p2", phi, n1, n2);
        let _tmp_z = b.node("z");
        b.inverter("i2", n2, _tmp_z);
        let nl = b.finish().unwrap();
        let r = analyze(&nl, &RuleSet::all()).report(&nl);
        assert_eq!(r.pass_devices, 2);
        assert_eq!(r.oriented + r.bidirectional + r.unresolved, r.pass_devices);
        assert_eq!(
            r.by_external + r.by_restored + r.by_chain + r.by_sink,
            r.oriented
        );
        assert!((r.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_with_no_pass_devices_is_one() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let _tmp_x = b.node("x");
        b.inverter("i", a, _tmp_x);
        let nl = b.finish().unwrap();
        let r = analyze(&nl, &RuleSet::all()).report(&nl);
        assert_eq!(r.pass_devices, 0);
        assert_eq!(r.coverage(), 1.0);
    }

    #[test]
    fn display_mentions_coverage() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let _tmp_x = b.node("x");
        b.inverter("i", a, _tmp_x);
        let nl = b.finish().unwrap();
        let r = analyze(&nl, &RuleSet::all()).report(&nl);
        let s = r.to_string();
        assert!(s.contains("coverage"));
        assert!(s.contains("sweeps"));
    }

    #[test]
    fn disabling_rules_lowers_coverage() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let a = b.input("a");
        let phi = b.clock("phi", 0);
        let src = b.node("src");
        b.inverter("i", a, src);
        let mut prev = src;
        for i in 0..4 {
            let n = b.node(format!("n{i}"));
            b.pass(format!("p{i}"), phi, prev, n);
            prev = n;
        }
        let _tmp_out = b.node("out");
        b.inverter("fin", prev, _tmp_out);
        let nl = b.finish().unwrap();
        let full = analyze(&nl, &RuleSet::all()).report(&nl);
        let none = analyze(&nl, &RuleSet::none()).report(&nl);
        assert!(full.coverage() > none.coverage());
        assert_eq!(none.oriented, 0);
    }
}
