//! `hawkbench --compare base.json change.json`: the A/B verdict table.
//!
//! Each file is what `--out` wrote: one JSON record per line, one line per
//! run of one workload. For every workload and end-to-end metric the two
//! sets' medians are compared against the metric's fixed bound.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, FAILED_SHARE};
use crate::stats::{median, spread};
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is no worse than the base's by more than the
    /// bound.
    Ok,
    Worse,
    /// The run-to-run spread of a side is wider than the bound, so the
    /// medians cannot tell `ok` from `worse`.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    pub base: f64,
    pub change: f64,
    /// The wider of the two sides' interquartile spreads, as a share of
    /// that side's median.
    pub spread: f64,
    pub verdict: Verdict,
}

/// Judges one metric on one workload. `bound` is the share of the base
/// median the change may be worse by; a bound of zero is absolute (any
/// worsening counts, and spread does not excuse it).
pub fn judge(base: &[f64], change: &[f64], better: Better, bound: f64) -> Comparison {
    let (a, b) = (median(base), median(change));
    let worse_by = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    let spread = spread(base).max(spread(change));
    let verdict = if bound == 0.0 {
        if worse_by > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Ok
        }
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound * a.abs() {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    Comparison {
        base: a,
        change: b,
        spread,
        verdict,
    }
}

/// Values per (workload, metric) of the untraced runs in one `--out` file.
type RunSet = BTreeMap<(String, String), Vec<f64>>;

pub fn parse_runs(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let context = |what: &str| format!("line {}: {what}", number + 1);
        let record = Json::parse(line).map_err(|e| context(&e))?;
        if record.get("traced") == Some(&Json::Bool(true)) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| context("no workload"))?;
        let metrics = record
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| context("no metrics"))?;
        let mut push = |metric: &str, value: f64| {
            set.entry((workload.to_string(), metric.to_string()))
                .or_default()
                .push(value);
        };
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| context(&format!("metric {name} has no value")))?;
            push(name, value);
        }
        let failed_share = record
            .get(FAILED_SHARE)
            .and_then(Json::as_f64)
            .ok_or_else(|| context("no failed_share"))?;
        push(FAILED_SHARE, failed_share);
    }
    Ok(set)
}

/// Renders the verdict table and reports whether any row reads `worse`.
pub fn render(base: &RunSet, change: &RunSet) -> (String, bool) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<18} {:<16} {:>14} {:>14} {:>12} {:>6} {:>7}  verdict",
        "workload", "metric", "base median", "change median", "change/base", "bound", "spread"
    );
    let rows = END_TO_END
        .iter()
        .map(|m| (m.name, m.better, m.bound))
        .chain([(FAILED_SHARE, Better::Lower, 0.0)]);
    for workload in WORKLOADS {
        for (metric, better, bound) in rows.clone() {
            let key = (workload.name.to_string(), metric.to_string());
            let (Some(a), Some(b)) = (base.get(&key), change.get(&key)) else {
                continue;
            };
            let c = judge(a, b, better, bound);
            any_worse |= c.verdict == Verdict::Worse;
            let ratio = if c.base == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}", c.change / c.base)
            };
            let _ = writeln!(
                out,
                "{:<18} {:<16} {:>14.6} {:>14.6} {:>12} {:>6.2} {:>7.4}  {} (n={}/{})",
                workload.name,
                metric,
                c.base,
                c.change,
                ratio,
                bound,
                c.spread,
                c.verdict.as_str(),
                a.len(),
                b.len(),
            );
        }
    }
    (out, any_worse)
}

/// The `--compare` entry point: exit code 0 when no row is `worse`, 1 when
/// one is, 2 when a file cannot be read.
pub fn run(base_path: &str, change_path: &str) -> u8 {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| parse_runs(&text))
            .map_err(|e| eprintln!("hawkbench: {path}: {e}"))
    };
    let (Ok(base), Ok(change)) = (load(base_path), load(change_path)) else {
        return 2;
    };
    println!("base = {base_path}, change = {change_path}; ratios are change / base");
    let (table, any_worse) = render(&base, &change);
    print!("{table}");
    u8::from(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let steady = [1.00, 1.01, 0.99, 1.00, 1.01];
        // Lower is better, 10 % bound.
        let slower = [1.20, 1.21, 1.19, 1.20, 1.20];
        let faster = [0.80, 0.81, 0.79, 0.80, 0.80];
        let within = [1.05, 1.06, 1.04, 1.05, 1.05];
        assert_eq!(
            judge(&steady, &slower, Better::Lower, 0.10).verdict,
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady, &faster, Better::Lower, 0.10).verdict,
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady, &within, Better::Lower, 0.10).verdict,
            Verdict::Ok
        );
        // Higher is better: the direction flips.
        assert_eq!(
            judge(&steady, &slower, Better::Higher, 0.10).verdict,
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady, &faster, Better::Higher, 0.10).verdict,
            Verdict::Worse
        );
        // A side noisier than the bound cannot be resolved either way.
        let noisy = [0.7, 1.0, 1.3, 0.8, 1.2];
        let c = judge(&steady, &noisy, Better::Lower, 0.10);
        assert_eq!(c.verdict, Verdict::Unresolved);
        assert!(c.spread > 0.10);
        // A zero bound is absolute.
        assert_eq!(
            judge(&[0.0], &[0.0], Better::Lower, 0.0).verdict,
            Verdict::Ok
        );
        assert_eq!(
            judge(&[0.0], &[0.001], Better::Lower, 0.0).verdict,
            Verdict::Worse
        );
    }

    fn record(workload: &str, wall: f64, failed_share: f64, traced: bool) -> String {
        Json::obj([
            ("workload", Json::str(workload)),
            ("traced", Json::Bool(traced)),
            (FAILED_SHARE, Json::Num(failed_share)),
            (
                "metrics",
                Json::obj([(
                    "cell_wall_s",
                    Json::obj([("value", Json::Num(wall)), ("unit", Json::str("s"))]),
                )]),
            ),
        ])
        .render()
    }

    #[test]
    fn compare_reads_run_files_and_flags_a_regression() {
        let base = [
            record("hawk_flat_15k", 2.50, 0.0, false),
            record("hawk_flat_15k", 2.52, 0.0, false),
            record("hawk_flat_15k", 9.99, 0.0, true), // traced: ignored
            record("proto_chaos_1k", 2.70, 0.0, false),
        ]
        .join("\n");
        let change = [
            record("hawk_flat_15k", 3.50, 0.0, false),
            record("hawk_flat_15k", 3.52, 0.0, false),
            record("proto_chaos_1k", 2.71, 0.5, false),
        ]
        .join("\n");
        let (base, change) = (parse_runs(&base).unwrap(), parse_runs(&change).unwrap());
        let key = ("hawk_flat_15k".to_string(), "cell_wall_s".to_string());
        assert_eq!(base[&key], vec![2.50, 2.52]);
        let (table, any_worse) = render(&base, &change);
        assert!(any_worse);
        let row = |workload: &str, metric: &str| {
            table
                .lines()
                .find(|l| l.starts_with(workload) && l.contains(metric))
                .unwrap_or_else(|| panic!("no row for {workload} {metric} in\n{table}"))
                .to_string()
        };
        assert!(row("hawk_flat_15k", "cell_wall_s").contains("worse"));
        assert!(row("proto_chaos_1k", "cell_wall_s").contains(" ok "));
        assert!(row("proto_chaos_1k", FAILED_SHARE).contains("worse"));
        assert!(row("hawk_flat_15k", FAILED_SHARE).contains(" ok "));
        // Same set against itself: nothing is worse.
        assert!(!render(&base, &base).1);
    }

    #[test]
    fn malformed_run_files_are_errors() {
        assert!(parse_runs("{not json").is_err());
        assert!(parse_runs("{\"metrics\": {}}")
            .unwrap_err()
            .contains("workload"));
        assert!(parse_runs("\n\n").unwrap().is_empty());
    }
}
