//! `cntr_bench compare <parent-dir> <change-dir>`: judges a change against
//! its parent with the bounds `BENCHMARK.json` fixes.
//!
//! Each directory holds one file per run, named `<workload>.<pair>.json`,
//! whose last line is that run's result line. Run `k` of the parent and run
//! `k` of the change form pair `k`; alternate which side runs first.
//!
//! Per (metric, workload) row:
//! * `unresolved` — either side's spread (interquartile range over median)
//!   exceeds the bound, and not every change run beats every parent run;
//! * `regression` — the change's median is worse by more than the bound;
//! * `gain` — the change wins at least 9 of 10 pairs (ties count for
//!   neither) and the medians differ, in the better direction, by more
//!   than the parent's interquartile range;
//! * `unchanged` — none of the above.

use crate::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// Fewest pairs a comparison accepts.
pub const MIN_PAIRS: usize = 10;

/// One end-to-end metric's rule from `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Rule {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    Unchanged,
    Regression,
    Unresolved,
}

/// One judged row.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub parent_median: f64,
    pub change_median: f64,
    pub wins: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

pub fn rules(spec: &Json) -> Result<Vec<Rule>, String> {
    spec.get("end_to_end")
        .ok_or("spec has no end_to_end list")?
        .as_arr()
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without `better`")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            Ok(Rule {
                name: name.to_string(),
                higher_is_better: better == "higher",
                bound,
            })
        })
        .collect()
}

/// Quartiles as Python's `statistics.quantiles(v, n=4)` (exclusive
/// method) gives them, the definition the bounds are set against.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut d = v.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len() as i64;
    let q = |i: i64| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        (d[j as usize - 1] * (4.0 - delta) + d[j as usize] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Judges one row from paired runs (`parent[k]` with `change[k]`).
pub fn judge(rule: &Rule, parent: &[f64], change: &[f64]) -> Result<(Verdict, usize), String> {
    if parent.len() != change.len() || parent.len() < MIN_PAIRS {
        return Err(format!(
            "{}: needs at least {MIN_PAIRS} pairs, got {} parent and {} change runs",
            rule.name,
            parent.len(),
            change.len()
        ));
    }
    let better = |a: f64, b: f64| if rule.higher_is_better { a > b } else { a < b };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    let (p1, pm, p3) = quartiles(parent);
    let (c1, cm, c3) = quartiles(change);
    let spread = |q1: f64, q3: f64, m: f64| if m == 0.0 { 0.0 } else { (q3 - q1) / m.abs() };
    let all_better = change.iter().all(|c| parent.iter().all(|p| better(*c, *p)));
    let verdict = if spread(p1, p3, pm) > rule.bound || spread(c1, c3, cm) > rule.bound {
        if all_better {
            Verdict::Gain
        } else {
            Verdict::Unresolved
        }
    } else if better(pm, cm) && (cm - pm).abs() > rule.bound * pm.abs() {
        Verdict::Regression
    } else if wins * 10 >= parent.len() * 9 && better(cm, pm) && (cm - pm).abs() > p3 - p1 {
        Verdict::Gain
    } else {
        Verdict::Unchanged
    };
    Ok((verdict, wins))
}

/// Result files of one side, as `(file name, contents)`.
fn read_dir(dir: &Path) -> Result<Vec<(String, String)>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut files = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            files.push((name.to_string(), text));
        }
    }
    Ok(files)
}

/// Tabulates `<workload>.<pair>.json` files: workload → metric → values
/// in pair order. Other file names are ignored.
fn tabulate(
    files: &[(String, String)],
) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut runs: BTreeMap<String, BTreeMap<u64, Json>> = BTreeMap::new();
    for (name, text) in files {
        let Some((workload, pair)) = name
            .strip_suffix(".json")
            .and_then(|stem| stem.rsplit_once('.'))
            .and_then(|(w, k)| Some((w.to_string(), k.parse::<u64>().ok()?)))
        else {
            continue;
        };
        let line = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("");
        let result = json::parse(line).map_err(|e| format!("{name}: {e}"))?;
        runs.entry(workload).or_default().insert(pair, result);
    }
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for (workload, by_pair) in runs {
        let table = out.entry(workload).or_default();
        for result in by_pair.values() {
            for (metric, m) in result
                .get("metrics")
                .and_then(Json::as_obj)
                .into_iter()
                .flatten()
            {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    table.entry(metric.clone()).or_default().push(v);
                }
            }
        }
    }
    Ok(out)
}

pub fn compare(spec: &Json, parent_dir: &Path, change_dir: &Path) -> Result<Vec<Row>, String> {
    judge_all(spec, &read_dir(parent_dir)?, &read_dir(change_dir)?)
}

fn judge_all(
    spec: &Json,
    parent: &[(String, String)],
    change: &[(String, String)],
) -> Result<Vec<Row>, String> {
    let rules = rules(spec)?;
    let parent = tabulate(parent)?;
    let change = tabulate(change)?;
    let mut rows = Vec::new();
    for (workload, p) in &parent {
        let c = change
            .get(workload)
            .ok_or_else(|| format!("{workload}: no change runs"))?;
        for rule in &rules {
            let (Some(pv), Some(cv)) = (p.get(&rule.name), c.get(&rule.name)) else {
                return Err(format!("{workload}: {} missing from the runs", rule.name));
            };
            let (verdict, wins) = judge(rule, pv, cv)?;
            rows.push(Row {
                workload: workload.clone(),
                metric: rule.name.clone(),
                parent_median: quartiles(pv).1,
                change_median: quartiles(cv).1,
                wins,
                pairs: pv.len(),
                verdict,
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(higher: bool, bound: f64) -> Rule {
        Rule {
            name: "m".into(),
            higher_is_better: higher,
            bound,
        }
    }

    fn runs(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * f64::from(i % 5)).collect()
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    }

    #[test]
    fn steady_faster_change_is_a_gain() {
        let (v, wins) = judge(&rule(false, 0.1), &runs(100.0, 0.5), &runs(90.0, 0.5)).unwrap();
        assert_eq!((v, wins), (Verdict::Gain, 10));
    }

    #[test]
    fn slower_beyond_the_bound_is_a_regression() {
        let (v, _) = judge(&rule(false, 0.1), &runs(100.0, 0.5), &runs(115.0, 0.5)).unwrap();
        assert_eq!(v, Verdict::Regression);
        let (v, _) = judge(&rule(true, 0.1), &runs(100.0, 0.5), &runs(85.0, 0.5)).unwrap();
        assert_eq!(v, Verdict::Regression);
    }

    #[test]
    fn small_moves_are_unchanged() {
        let (v, _) = judge(&rule(false, 0.1), &runs(100.0, 0.5), &runs(101.0, 0.5)).unwrap();
        assert_eq!(v, Verdict::Unchanged);
        // Wins every pair, but by less than the parent's own spread.
        let (v, wins) = judge(&rule(false, 0.1), &runs(100.0, 2.0), &runs(99.0, 2.0)).unwrap();
        assert_eq!((v, wins), (Verdict::Unchanged, 10));
    }

    #[test]
    fn noisy_rows_are_unresolved_unless_every_run_is_better() {
        let noisy = runs(100.0, 10.0);
        let (v, _) = judge(&rule(false, 0.1), &noisy, &runs(95.0, 10.0)).unwrap();
        assert_eq!(v, Verdict::Unresolved);
        let (v, _) = judge(&rule(false, 0.1), &noisy, &runs(50.0, 10.0)).unwrap();
        assert_eq!(v, Verdict::Gain);
    }

    #[test]
    fn too_few_pairs_are_refused() {
        let short: Vec<f64> = vec![1.0; 9];
        assert!(judge(&rule(false, 0.1), &short, &short).is_err());
    }

    #[test]
    fn judges_result_files_against_the_spec() {
        let spec = json::parse(
            r#"{"end_to_end": [{"name": "op_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
                               {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let side = |lat: f64, rate: f64| -> Vec<(String, String)> {
            let mut files: Vec<(String, String)> = (0..10)
                .map(|k| {
                    let jitter = f64::from(k % 3) * 0.01;
                    (
                        format!("meta-walk.{k}.json"),
                        format!(
                            "log line\n{{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {{\"op_p50_us\": {{\"value\": {}, \"unit\": \"us\"}}, \"ops_per_s\": {{\"value\": {}, \"unit\": \"1/s\"}}}}}}\n",
                            lat + jitter,
                            rate + jitter
                        ),
                    )
                })
                .collect();
            files.push(("notes.txt".into(), "ignored".into()));
            files
        };
        let rows = judge_all(&spec, &side(10.0, 1000.0), &side(8.0, 1000.005)).unwrap();
        let verdicts: Vec<(&str, Verdict)> = rows
            .iter()
            .map(|r| (r.metric.as_str(), r.verdict))
            .collect();
        assert_eq!(
            verdicts,
            vec![
                ("op_p50_us", Verdict::Gain),
                ("ops_per_s", Verdict::Unchanged)
            ]
        );
        assert!(judge_all(&spec, &side(10.0, 1000.0), &side(8.0, 1000.005)[..5]).is_err());
    }
}
