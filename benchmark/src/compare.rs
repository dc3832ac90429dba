//! Reading result files back: `compare` sets two of them side by side
//! against the bounds in `BENCHMARK.json`; `smoke` checks that what a run
//! printed is what that file declares.

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median};
use std::collections::BTreeMap;
use std::path::Path;

/// One declared metric: whether lower is better, and its regression bound
/// (end-to-end metrics only).
#[derive(Clone, Debug, PartialEq)]
struct Declared {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: Option<f64>,
}

/// What `BENCHMARK.json` declares.
#[derive(Debug)]
struct Contract {
    workloads: Vec<String>,
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

impl Contract {
    fn read(path: &Path) -> Result<Contract, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Contract::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn parse(text: &str) -> Result<Contract, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("`{key}` is not a list"))
        };
        let text_of = |item: &Json, key: &str| -> Result<String, String> {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("an entry lacks `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<Declared>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(Declared {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        lower_is_better: match text_of(m, "better")?.as_str() {
                            "lower" => true,
                            "higher" => false,
                            other => return Err(format!("`better` is `{other}`")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Contract {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    fn metrics(&self, trace: bool) -> &[Declared] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// Per metric name, the `(value, unit)` of every run.
type Cell = BTreeMap<String, Vec<(f64, String)>>;

/// The runs of one result file by `(workload, traced)`.
#[derive(Debug, Default)]
struct Runs {
    by_cell: BTreeMap<(String, bool), Cell>,
    incorrect: usize,
}

impl Runs {
    fn read(path: &Path) -> Result<Runs, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut runs = Runs::default();
        for (i, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            runs.add_line(line)
                .map_err(|e| format!("{} line {}: {e}", path.display(), i + 1))?;
        }
        Ok(runs)
    }

    fn add_line(&mut self, line: &str) -> Result<(), String> {
        let record = Json::parse(line)?;
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("no `workload`")?;
        let trace = record
            .get("trace")
            .and_then(Json::as_bool)
            .ok_or("no `trace`")?;
        let result = record.get("result").ok_or("no `result`")?;
        if result.get("correct").and_then(Json::as_bool) != Some(true) {
            self.incorrect += 1;
        }
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("no `metrics`")?;
        let cell = self
            .by_cell
            .entry((workload.to_string(), trace))
            .or_default();
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
            cell.entry(name.clone())
                .or_default()
                .push((value, unit.to_string()));
        }
        Ok(())
    }

    fn values(&self, workload: &str, trace: bool, metric: &str) -> Vec<f64> {
        self.by_cell
            .get(&(workload.to_string(), trace))
            .and_then(|cell| cell.get(metric))
            .map(|runs| runs.iter().map(|(v, _)| *v).collect())
            .unwrap_or_default()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Same,
    Better,
    Worse,
    /// The runs of one side spread wider than the bound, and the sides
    /// overlap.
    Unresolved,
    /// A count that must repeat exactly did not.
    Differs,
    /// No bound applies (a timed per-layer metric).
    Unbounded,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "DIFFERS",
            Verdict::Unbounded => "-",
        }
    }
}

/// Judges side `b` against base `a` for one metric.
fn judge(a: &[f64], b: &[f64], metric: &Declared, exact: bool) -> Verdict {
    if exact {
        let all_equal = a.iter().chain(b).all(|v| *v == a[0]);
        return if all_equal {
            Verdict::Same
        } else {
            Verdict::Differs
        };
    }
    let Some(bound) = metric.bound else {
        return Verdict::Unbounded;
    };
    // Orient every comparison so that larger is worse.
    let sign = if metric.lower_is_better { 1.0 } else { -1.0 };
    let (ma, mb) = (median(&mut a.to_vec()), median(&mut b.to_vec()));
    let worse_by = sign * (mb - ma) / ma.abs();
    let wide = |xs: &[f64]| iqr_share(xs).is_some_and(|s| s > bound);
    if wide(a) || wide(b) {
        let max = |xs: &[f64]| xs.iter().map(|v| sign * v).fold(f64::MIN, f64::max);
        let min = |xs: &[f64]| xs.iter().map(|v| sign * v).fold(f64::MAX, f64::min);
        return if max(b) < min(a) {
            Verdict::Better
        } else if min(b) > max(a) && worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Prints every metric of every workload in `a` and `b` side by side.
/// `Ok(false)` when a metric got worse than its bound or a count differs.
pub fn compare(a: &Path, b: &Path, contract: &Path) -> Result<bool, String> {
    let contract = Contract::read(contract)?;
    let (runs_a, runs_b) = (Runs::read(a)?, Runs::read(b)?);
    println!("base a = {}, b = {}", a.display(), b.display());
    let mut ok = runs_a.incorrect + runs_b.incorrect == 0;
    if !ok {
        println!("a file holds runs that failed their correctness checks");
    }
    for workload in &contract.workloads {
        for trace in [false, true] {
            let rows: Vec<_> = contract
                .metrics(trace)
                .iter()
                .filter_map(|m| {
                    let va = runs_a.values(workload, trace, &m.name);
                    let vb = runs_b.values(workload, trace, &m.name);
                    (!va.is_empty() && !vb.is_empty()).then_some((m, va, vb))
                })
                .collect();
            if rows.is_empty() {
                continue;
            }
            println!(
                "\n{workload} ({}): {} run(s) in a, {} in b",
                if trace { "per layer" } else { "end to end" },
                rows[0].1.len(),
                rows[0].2.len()
            );
            println!(
                "  {:<36} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict",
                "metric", "a (median)", "b (median)", "b/a", "iqr a", "iqr b", "bound"
            );
            for (m, va, vb) in rows {
                let exact = PER_LAYER.iter().any(|d| d.exact && d.name == m.name);
                let verdict = judge(&va, &vb, m, exact);
                ok &= !matches!(verdict, Verdict::Worse | Verdict::Differs);
                let (ma, mb) = (median(&mut va.clone()), median(&mut vb.clone()));
                let share = |xs: &[f64]| iqr_share(xs).map_or("-".into(), |s| format!("{s:.3}"));
                println!(
                    "  {:<36} {:>14.6} {:>14.6} {:>8.3} {:>7} {:>7} {:>6}  {}{}",
                    m.name,
                    ma,
                    mb,
                    mb / ma,
                    share(&va),
                    share(&vb),
                    m.bound.map_or("-".into(), |b| format!("{b:.2}")),
                    verdict.label(),
                    if exact { " (=)" } else { "" },
                );
            }
        }
    }
    println!("\ncompare: {}", if ok { "agree" } else { "DISAGREE" });
    Ok(ok)
}

fn name_ok(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// The ways the runs in `results` and the tables in `metrics.rs` depart from
/// what the contract declares.
pub fn check_against_contract(results: &Path, contract: &Path) -> Result<Vec<String>, String> {
    let contract = Contract::read(contract)?;
    let runs = Runs::read(results)?;
    let mut problems = Vec::new();
    if runs.incorrect > 0 {
        problems.push(format!("{} run(s) failed their checks", runs.incorrect));
    }
    for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
        let declared: Vec<(&str, &str)> = contract
            .metrics(trace)
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        let in_code: Vec<(&str, &str)> = table.iter().map(|d| (d.name, d.unit)).collect();
        if declared != in_code {
            problems.push(format!(
                "metrics.rs and BENCHMARK.json list different {} metrics",
                if trace { "per-layer" } else { "end-to-end" }
            ));
        }
        for (name, _) in &declared {
            if !name_ok(name) {
                problems.push(format!("metric name `{name}` is malformed"));
            }
        }
        for workload in &contract.workloads {
            let Some(cell) = runs.by_cell.get(&(workload.clone(), trace)) else {
                problems.push(format!(
                    "workload {workload} did not run with trace {trace}"
                ));
                continue;
            };
            let mut emitted: Vec<(&str, &str)> = cell
                .iter()
                .map(|(name, runs)| (name.as_str(), runs[0].1.as_str()))
                .collect();
            let mut wanted = declared.clone();
            emitted.sort_unstable();
            wanted.sort_unstable();
            if emitted != wanted {
                let emitted_names: Vec<_> = emitted.iter().map(|e| e.0).collect();
                let wanted_names: Vec<_> = wanted.iter().map(|e| e.0).collect();
                problems.push(format!(
                    "{workload} trace {trace}: printed {emitted_names:?}, declared {wanted_names:?} \
                     (or a unit differs)"
                ));
            }
        }
    }
    Ok(problems)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower_is_better: bool, bound: Option<f64>) -> Declared {
        Declared {
            name: "m".into(),
            unit: "ms".into(),
            lower_is_better,
            bound,
        }
    }

    #[test]
    fn a_metric_is_judged_against_its_bound_and_direction() {
        let lower = metric(true, Some(0.10));
        assert_eq!(judge(&[100.0], &[105.0], &lower, false), Verdict::Same);
        assert_eq!(judge(&[100.0], &[111.0], &lower, false), Verdict::Worse);
        assert_eq!(judge(&[100.0], &[80.0], &lower, false), Verdict::Better);
        let higher = metric(false, Some(0.10));
        assert_eq!(judge(&[100.0], &[80.0], &higher, false), Verdict::Worse);
        assert_eq!(judge(&[100.0], &[120.0], &higher, false), Verdict::Better);
        assert_eq!(
            judge(&[1.0], &[2.0], &metric(true, None), false),
            Verdict::Unbounded
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_leaves_the_metric_unresolved() {
        let lower = metric(true, Some(0.10));
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(&noisy, &[95.0, 105.0, 99.0], &lower, false),
            Verdict::Unresolved
        );
        // ...unless every run of one side beats every run of the other.
        assert_eq!(
            judge(&noisy, &[60.0, 70.0, 65.0], &lower, false),
            Verdict::Better
        );
        assert_eq!(
            judge(&noisy, &[160.0, 170.0, 165.0], &lower, false),
            Verdict::Worse
        );
    }

    #[test]
    fn counts_must_be_equal() {
        let any = metric(true, None);
        assert_eq!(judge(&[5.0, 5.0], &[5.0], &any, true), Verdict::Same);
        assert_eq!(judge(&[5.0, 5.0], &[6.0], &any, true), Verdict::Differs);
    }

    #[test]
    fn result_lines_and_the_contract_parse() {
        let contract = Contract::parse(
            r#"{"workloads": [{"name": "w", "why": "x"}],
                "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
                "per_layer": [{"name": "l.count", "unit": "count", "better": "higher"}]}"#,
        )
        .unwrap();
        assert_eq!(contract.workloads, vec!["w"]);
        assert_eq!(contract.end_to_end[0].bound, Some(0.25));
        assert!(!contract.per_layer[0].lower_is_better);
        assert_eq!(contract.per_layer[0].bound, None);

        let mut runs = Runs::default();
        let line = r#"{"workload": "w", "trace": false, "result": {"correct": true,
            "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}}"#;
        runs.add_line(line).unwrap();
        runs.add_line(&line.replace("0.5", "0.7")).unwrap();
        assert_eq!(runs.values("w", false, "setup_s"), vec![0.5, 0.7]);
        assert!(runs.values("w", true, "setup_s").is_empty());
        assert_eq!(runs.incorrect, 0);
        runs.add_line(&line.replace("true", "false")).unwrap();
        assert_eq!(runs.incorrect, 1);
    }
}
