//! `perf compare <a> <b>`: the rule every performance claim on this repo
//! is checked by. For each workload it prints one row per end-to-end
//! metric (and `sql.stmts_per_s` where measured) with both reported
//! values, their ratio with its base, the ratio of the two median
//! slices, and a verdict under the bound fixed in `BENCHMARK.json`
//! (which a test keeps equal to the registry's):
//!
//! * `worse` — `b`'s reported value (the fast-decile slice, what the
//!   driver compares) is worse than `a`'s by more than the bound, or its
//!   median slice is: a regression that reaches only some slices moves
//!   the median first;
//! * `unresolved` — only the median slice is worse, and on one side the
//!   slices disagree among themselves (distance between their quartiles
//!   over their median) by more than the bound: a run that other tenants
//!   disturbed for half its length looks the same, so the run cannot
//!   tell. Disturbances outlast many slices, so the spread is not
//!   divided by √slices;
//! * `better` — the reported value is better by more than the bound;
//! * `same` — otherwise.
//!
//! Then one row per counted metric. Two runs with the same seed and the
//! same fixed slice count executed the same operations, so any
//! difference is a change in counted cost and reads `worse`, whichever
//! way it points; runs that are time-limited or differ in seed cannot be
//! compared on counts and read `unresolved`.
//!
//! Exit status is non-zero on any `worse` row or any rise in failures.

use std::path::Path;

use crate::json::{self, Json};
use crate::registry::{Better, COUNTED, END_TO_END, STMTS_PER_S, WORKLOADS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Same,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Side {
    /// The reported value and the median slice (equal for a metric with
    /// no slices behind it).
    pub value: f64,
    pub median: f64,
    /// Distance between the slice quartiles over the median slice.
    pub spread: f64,
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn verdict(a: Side, b: Side, better: Better, bound: f64) -> Verdict {
    let reported = worsening(a.value, b.value, better);
    if reported > bound {
        return Verdict::Worse;
    }
    if worsening(a.median, b.median, better) > bound {
        return if a.spread.max(b.spread) > bound {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        };
    }
    if reported < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// `comparable`: both sides ran the same operations.
pub fn counted_verdict(a: f64, b: f64, comparable: bool) -> Verdict {
    match (comparable, a == b) {
        (false, _) => Verdict::Unresolved,
        (true, true) => Verdict::Same,
        (true, false) => Verdict::Worse,
    }
}

/// The result files of one side: a directory holding `<workload>.json`,
/// or a single result file.
fn load(path: &Path) -> Result<Vec<Json>, String> {
    let read = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    if path.is_dir() {
        let mut out = Vec::new();
        for (w, _) in WORKLOADS {
            let p = path.join(format!("{w}.json"));
            if p.exists() {
                out.push(read(&p)?);
            }
        }
        if out.is_empty() {
            return Err(format!(
                "{}: no <workload>.json result files",
                path.display()
            ));
        }
        Ok(out)
    } else {
        Ok(vec![read(path)?])
    }
}

fn side(result: &Json, metric: &str) -> Option<Side> {
    let m = result.get("metrics")?.get(metric)?;
    let value = m.get("value")?.as_f64()?;
    Some(Side {
        value,
        median: m.get("median").and_then(Json::as_f64).unwrap_or(value),
        spread: m.get("spread").and_then(Json::as_f64).unwrap_or(0.0),
    })
}

/// Same seed, same schedule, same fixed slice count.
fn same_operations(a: &Json, b: &Json) -> bool {
    let text = |r: &Json, key: &str| r.get(key).and_then(Json::as_str).map(str::to_owned);
    let limit = text(a, "limit");
    limit.as_deref().is_some_and(|l| l.ends_with("slices"))
        && limit == text(b, "limit")
        && text(a, "schedule_hash").is_some()
        && text(a, "schedule_hash") == text(b, "schedule_hash")
}

/// Load both sides and print the table; `Ok(true)` when nothing got
/// worse.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    Ok(table(&load(a)?, &load(b)?))
}

fn table(left: &[Json], right: &[Json]) -> bool {
    let mut ok = true;
    println!(
        "{:<13} {:<20} {:>14} {:>14} {:>8} {:>8}  {:<10} rule",
        "workload", "metric", "a", "b", "b/a", "med b/a", "verdict"
    );
    let ratio = |a: f64, b: f64| if a == b { 1.0 } else { b / a };
    let mut row = |name: &str, metric: &str, a: Side, b: Side, v: Verdict, rule: String| {
        ok &= v != Verdict::Worse;
        println!(
            "{name:<13} {metric:<20} {:>14.4} {:>14.4} {:>8.4} {:>8.4}  {:<10} {rule}",
            a.value,
            b.value,
            ratio(a.value, b.value),
            ratio(a.median, b.median),
            v.label()
        );
    };
    let mut missing = false;
    for ra in left {
        let name = ra.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(rb) = right
            .iter()
            .find(|r| r.get("workload").and_then(Json::as_str) == Some(name))
        else {
            println!("{name:<13} missing on side b");
            missing = true;
            continue;
        };
        let timings = END_TO_END
            .iter()
            .map(|(m, bound)| (m.name, m.better, *bound, true))
            .chain([(STMTS_PER_S.0, Better::Higher, STMTS_PER_S.1, false)]);
        for (metric, better, bound, required) in timings {
            let (Some(sa), Some(sb)) = (side(ra, metric), side(rb, metric)) else {
                if required {
                    println!("{name:<13} {metric:<20} missing on one side");
                    missing = true;
                }
                continue;
            };
            let rule = format!(
                "{} by {:.0}% of a={:.4}",
                better.label(),
                bound * 100.0,
                sa.value
            );
            row(name, metric, sa, sb, verdict(sa, sb, better, bound), rule);
        }
        let comparable = same_operations(ra, rb);
        for metric in COUNTED {
            let (Some(sa), Some(sb)) = (side(ra, metric), side(rb, metric)) else {
                println!("{name:<13} {metric:<20} missing on one side");
                missing = true;
                continue;
            };
            let rule = if comparable {
                "counted: must be identical"
            } else {
                "counted: needs equal seed and --slices"
            };
            row(
                name,
                metric,
                sa,
                sb,
                counted_verdict(sa.value, sb.value, comparable),
                rule.to_owned(),
            );
        }
        let failed = |r: &Json| {
            let value = r.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            Side {
                value,
                median: value,
                spread: 0.0,
            }
        };
        let (fa, fb) = (failed(ra), failed(rb));
        let v = if fb.value > fa.value {
            Verdict::Worse
        } else {
            Verdict::Same
        };
        row(name, "failed", fa, fb, v, "must not rise".to_owned());
    }
    ok && !missing
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::PER_LAYER;

    /// A side whose slices agree: fast decile and median 2 % apart.
    fn quiet(value: f64) -> Side {
        Side {
            value,
            median: value * 1.02,
            spread: 0.05,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        use Better::{Higher, Lower};
        assert_eq!(
            verdict(quiet(100.0), quiet(104.0), Lower, 0.1),
            Verdict::Same
        );
        assert_eq!(
            verdict(quiet(100.0), quiet(111.0), Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(quiet(100.0), quiet(89.0), Lower, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(quiet(100.0), quiet(111.0), Higher, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(quiet(100.0), quiet(89.0), Higher, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(quiet(100.0), quiet(100.0), Lower, 0.1),
            Verdict::Same
        );
    }

    #[test]
    fn a_worse_median_slice_is_worse_or_unresolved_never_unchanged() {
        // Most slices slowed down, the fastest few did not.
        let partly = |spread| Side {
            value: 101.0,
            median: 130.0,
            spread,
        };
        assert_eq!(
            verdict(quiet(100.0), partly(0.04), Better::Lower, 0.1),
            Verdict::Worse
        );
        // Slices that disagree that much: a disturbed run looks the same.
        assert_eq!(
            verdict(quiet(100.0), partly(0.3), Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // A worse reported value is worse however noisy the run.
        let slow = Side {
            value: 120.0,
            median: 150.0,
            spread: 0.3,
        };
        assert_eq!(
            verdict(quiet(100.0), slow, Better::Lower, 0.1),
            Verdict::Worse
        );
    }

    #[test]
    fn counted_metrics_must_be_identical_when_the_operations_are() {
        assert_eq!(counted_verdict(0.62, 0.62, true), Verdict::Same);
        // A cheaper count is a change too: it must be claimed, not slip by.
        assert_eq!(counted_verdict(0.62, 0.70, true), Verdict::Worse);
        assert_eq!(counted_verdict(0.62, 0.50, true), Verdict::Worse);
        assert_eq!(counted_verdict(0.62, 0.70, false), Verdict::Unresolved);
    }

    /// A result file with every compared metric at 10, except as given.
    fn result(limit: &str, fresh: f64, tw_io: f64, failed: f64) -> Vec<Json> {
        let timing = END_TO_END
            .iter()
            .map(|(m, _)| m.name)
            .chain([STMTS_PER_S.0]);
        let metrics = timing.chain(COUNTED).map(|name| {
            let value = match name {
                "fresh_p50_us" => fresh,
                "tw_io_per_row" => tw_io,
                _ => 10.0,
            };
            let fields = [
                ("value", Json::Num(value)),
                ("median", Json::Num(value * 1.01)),
                ("spread", Json::Num(0.02)),
            ];
            (name, Json::obj(fields))
        });
        vec![Json::obj([
            ("workload", Json::str("sql_serve")),
            ("limit", Json::str(limit)),
            ("schedule_hash", Json::str("00ff")),
            ("failed", Json::Num(failed)),
            ("metrics", Json::obj(metrics)),
        ])]
    }

    #[test]
    fn tables_flag_regressions_failures_and_missing_sides() {
        let base = result("60 slices", 100.0, 3.5, 0.0);
        assert!(table(&base, &result("60 slices", 103.0, 3.5, 0.0)));
        assert!(!table(&base, &result("60 slices", 140.0, 3.5, 0.0)));
        assert!(!table(&base, &result("60 slices", 100.0, 3.5, 2.0)));
        assert!(!table(&base, &[]));
        assert!(run(Path::new("no/such/a"), Path::new("no/such/b")).is_err());
    }

    #[test]
    fn counted_rows_are_exact_only_between_runs_of_the_same_operations() {
        let base = result("60 slices", 100.0, 3.5, 0.0);
        assert!(!table(&base, &result("60 slices", 100.0, 3.4, 0.0)));
        // Another slice count, or a time limit: the counts say nothing.
        assert!(table(&base, &result("40 slices", 100.0, 3.4, 0.0)));
        let timed = result("20 s", 100.0, 3.5, 0.0);
        assert!(table(&timed, &result("20 s", 100.0, 3.4, 0.0)));
        assert!(same_operations(&base[0], &base[0]) && !same_operations(&timed[0], &timed[0]));
        assert!(COUNTED
            .iter()
            .all(|c| PER_LAYER.iter().any(|m| m.name == *c)));
    }
}
