//! `tvbench compare A.json... -- B.json...`: two sets of full runs, one
//! row per workload and metric, each with a verdict against the metric's
//! bound.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::report::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use crate::sut::json::{self, Value};
use crate::workload::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

/// How much worse `x` is than `base`, as a share of `base` (negative
/// when better).
fn worse_by(better: Better, x: f64, base: f64) -> f64 {
    let d = match better {
        Better::Lower => x - base,
        Better::Higher => base - x,
    };
    d / base.abs().max(f64::MIN_POSITIVE)
}

/// Distance between the quartiles as a share of the median; 0 below two
/// runs.
fn spread(v: &[f64]) -> f64 {
    match (quartiles(v), median(v)) {
        (Some([q1, _, q3]), Some(m)) => (q3 - q1) / m.abs().max(f64::MIN_POSITIVE),
        _ => 0.0,
    }
}

/// The verdict on B against A for one metric:
///
/// - where either side's spread exceeds the bound, `unresolved` unless
///   every run of one side beats every run of the other;
/// - `worse` when B's median is worse than A's by more than the bound
///   (for a metric without a bound: by more than A's own spread, losing
///   nine tenths of all run pairs);
/// - `better` when B's median beats A's by more than A's own spread and
///   B wins nine tenths of all run pairs;
/// - otherwise `unchanged`.
///
/// A gain (or an unbounded loss) that fewer than ten runs a side show is
/// `unresolved`: with so few, the spread itself is not known.
pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> Option<Verdict> {
    let change = worse_by(def.better, median(b)?, median(a)?);
    let pairs = a.len() * b.len();
    let count = |pred: fn(f64) -> bool| {
        a.iter()
            .flat_map(|&x| b.iter().map(move |&y| worse_by(def.better, y, x)))
            .filter(|&d| pred(d))
            .count()
    };
    let (wins, losses) = (count(|d| d < 0.0), count(|d| d > 0.0));
    let bounded = def.bound > 0.0;
    if bounded && spread(a).max(spread(b)) > def.bound {
        return Some(if wins == pairs {
            Verdict::Better
        } else if losses == pairs {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        });
    }
    let gate = spread(a);
    let enough = |v: Verdict| {
        if a.len() >= 10 && b.len() >= 10 {
            v
        } else {
            Verdict::Unresolved
        }
    };
    Some(if bounded && change > def.bound {
        Verdict::Worse
    } else if -change > gate && wins * 10 >= pairs * 9 {
        enough(Verdict::Better)
    } else if !bounded && change > gate && losses * 10 >= pairs * 9 {
        enough(Verdict::Worse)
    } else {
        Verdict::Unchanged
    })
}

/// Per (workload, metric), one value per run file.
type Values = BTreeMap<(String, String), Vec<f64>>;

fn load(paths: &[String]) -> Result<Values, String> {
    let mut values = Values::new();
    for p in paths {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{p}: {e}"))?;
        let runs = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or(format!("{p}: no \"workloads\" array"))?;
        for run in runs {
            let name = run.get("name").and_then(Value::as_str).unwrap_or("");
            let Some(Value::Obj(metrics)) = run.get("result").and_then(|r| r.get("metrics")) else {
                return Err(format!("{p}: {name} has no result metrics"));
            };
            for (metric, v) in metrics {
                if let Some(x) = v.get("value").and_then(Value::as_num) {
                    let key = (name.to_string(), metric.clone());
                    values.entry(key).or_default().push(x);
                }
            }
        }
    }
    Ok(values)
}

fn side(v: &[f64]) -> String {
    let m = median(v).unwrap_or(f64::NAN);
    let [q1, _, q3] = quartiles(v).unwrap_or([m, m, m]);
    format!("{m:>12.4} [{q1:.4}, {q3:.4}] n={}", v.len())
}

/// The comparison table, and whether any end-to-end metric got worse.
pub fn compare(a_paths: &[String], b_paths: &[String]) -> Result<(String, bool), String> {
    let (a, b) = (load(a_paths)?, load(b_paths)?);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<15} {:<26} {:<6} {:<6} {:>38} {:>38} {:>8}  verdict",
        "workload", "metric", "unit", "better", "A median [q1, q3]", "B median [q1, q3]", "change"
    );
    let mut any_worse = false;
    for w in Workload::ALL {
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            let key = (w.name().to_string(), def.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let Some(v) = verdict(def, va, vb) else {
                continue;
            };
            any_worse |= v == Verdict::Worse && def.bound > 0.0;
            let (ma, mb) = (median(va).unwrap_or(0.0), median(vb).unwrap_or(0.0));
            let change = 100.0 * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
            let _ = writeln!(
                s,
                "{:<15} {:<26} {:<6} {:<6} {} {} {:>+7.1}%  {}",
                w.name(),
                def.name,
                def.unit,
                def.better.name(),
                side(va),
                side(vb),
                change,
                format!("{v:?}").to_lowercase()
            );
        }
    }
    Ok((s, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency() -> &'static MetricDef {
        &END_TO_END[1]
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0];
        let shift = |k: f64| a.map(|x| x * k);
        assert_eq!(verdict(latency(), &a, &a), Some(Verdict::Unchanged));
        assert_eq!(
            verdict(latency(), &a, &shift(1.05)),
            Some(Verdict::Unchanged)
        );
        assert_eq!(verdict(latency(), &a, &shift(1.3)), Some(Verdict::Worse));
        assert_eq!(verdict(latency(), &a, &shift(0.9)), Some(Verdict::Better));
        // Throughput is better when higher.
        let rps = &END_TO_END[2];
        assert_eq!(verdict(rps, &a, &shift(0.7)), Some(Verdict::Worse));
        assert_eq!(verdict(rps, &a, &shift(1.1)), Some(Verdict::Better));
        // A spread wider than the bound cannot call a small change.
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(
            verdict(latency(), &noisy, &noisy.map(|x| x * 1.05)),
            Some(Verdict::Unresolved)
        );
        // ... unless every run of one side beats every run of the other.
        assert_eq!(
            verdict(latency(), &noisy, &noisy.map(|x| x * 4.0)),
            Some(Verdict::Worse)
        );
        assert_eq!(verdict(latency(), &a, &[]), None);
        // One run a side cannot show a gain, only a loss beyond the bound.
        assert_eq!(
            verdict(latency(), &[10.0], &[9.0]),
            Some(Verdict::Unresolved)
        );
        assert_eq!(verdict(latency(), &[10.0], &[13.0]), Some(Verdict::Worse));
        assert_eq!(
            verdict(latency(), &[10.0], &[10.0]),
            Some(Verdict::Unchanged)
        );
    }
}
