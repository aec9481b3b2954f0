//! `compare A B`: per workload × end-to-end metric, the two medians, the
//! relative change, the bound and a verdict.  B is the candidate, A the
//! baseline; the acceptance check ("two sets of the same commit agree") is
//! this with both files from one commit.

use crate::json::Value;
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats;
use crate::trial::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Run-to-run spread is wider than the bound, so the sample cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(def: &EndToEnd, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs().max(1e-12);
    match def.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// The rule of choosing-metrics §6.5: within the bound is ok; beyond it is a
/// regression; but where either side's own spread exceeds the bound the
/// metric is unresolved — unless every candidate trial beats every baseline
/// trial, which no amount of spread explains away.
pub fn verdict(def: &EndToEnd, a: f64, a_samples: &[f64], b: f64, b_samples: &[f64]) -> Verdict {
    let noisy = stats::spread(a_samples) > def.bound || stats::spread(b_samples) > def.bound;
    if noisy {
        let b_always_better = !a_samples.is_empty()
            && !b_samples.is_empty()
            && a_samples
                .iter()
                .all(|&x| b_samples.iter().all(|&y| worsening(def, x, y) < 0.0));
        return if b_always_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(def, a, b) > def.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn metric<'a>(report: &'a Value, workload: Workload, name: &str) -> Option<&'a Value> {
    report
        .get("workloads")?
        .get(workload.name())?
        .get("end_to_end")?
        .get("metrics")?
        .items()
        .iter()
        .find(|m| m.str("name") == Some(name))
}

fn failed_ratio(report: &Value, workload: Workload) -> Option<f64> {
    report
        .get("workloads")?
        .get(workload.name())?
        .get("end_to_end")?
        .num("failed_ops_ratio")
}

/// Prints the table; returns how many pairings regressed and how many are
/// unresolved.
pub fn compare(a: &Value, b: &Value) -> (usize, usize) {
    let (mut regressed, mut unresolved) = (0, 0);
    println!(
        "{:<20} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for workload in Workload::ALL {
        for def in &END_TO_END {
            let (Some(ma), Some(mb)) =
                (metric(a, workload, def.name), metric(b, workload, def.name))
            else {
                continue;
            };
            let (va, vb) = (
                ma.num("value").unwrap_or(0.0),
                mb.num("value").unwrap_or(0.0),
            );
            let result = verdict(def, va, &ma.nums("samples"), vb, &mb.nums("samples"));
            regressed += usize::from(result == Verdict::Regressed);
            unresolved += usize::from(result == Verdict::Unresolved);
            println!(
                "{:<20} {:<20} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}%  {}",
                workload.name(),
                def.name,
                va,
                vb,
                worsening(def, va, vb) * 100.0,
                def.bound * 100.0,
                result.name()
            );
        }
        // failed_ops_ratio has bound 0: any increase is a regression.
        if let (Some(fa), Some(fb)) = (failed_ratio(a, workload), failed_ratio(b, workload)) {
            let result = if fb > fa {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            regressed += usize::from(result == Verdict::Regressed);
            println!(
                "{:<20} {:<20} {:>14.6} {:>14.6} {:>9} {:>6.0}%  {}",
                workload.name(),
                "failed_ops_ratio",
                fa,
                fb,
                "",
                0.0,
                result.name()
            );
        }
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    (regressed, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: EndToEnd = EndToEnd {
        name: "t",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
    };
    const HIGHER: EndToEnd = EndToEnd {
        name: "t",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let tight = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound either way.
        assert_eq!(verdict(&LOWER, 100.0, &tight, 105.0, &tight), Verdict::Ok);
        assert_eq!(verdict(&LOWER, 100.0, &tight, 80.0, &tight), Verdict::Ok);
        // Beyond it, in the metric's bad direction only.
        assert_eq!(
            verdict(&LOWER, 100.0, &tight, 115.0, &tight),
            Verdict::Regressed
        );
        assert_eq!(verdict(&HIGHER, 100.0, &tight, 115.0, &tight), Verdict::Ok);
        assert_eq!(
            verdict(&HIGHER, 100.0, &tight, 85.0, &tight),
            Verdict::Regressed
        );
        // A spread wider than the bound cannot resolve a 15% change...
        let wide = [80.0, 120.0, 100.0, 60.0, 140.0];
        assert_eq!(
            verdict(&LOWER, 100.0, &wide, 115.0, &tight),
            Verdict::Unresolved
        );
        // ...unless every candidate trial beats every baseline trial.
        let all_better = [50.0, 55.0, 52.0];
        assert_eq!(
            verdict(&LOWER, 100.0, &wide, 52.0, &all_better),
            Verdict::Ok
        );
    }
}
