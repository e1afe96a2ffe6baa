//! The report of a measurement: statistics per workload over its runs,
//! the printed metric table, the result line, and `--compare` of two
//! reports.

use std::path::Path;

use lac_rt::json::Value;

use crate::outcome::{metrics_json, parse_metrics, Metric};
use crate::stats::{median, quartiles, spread};
use crate::{Run, TraceMode, OUT_DIR};

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The metric lists of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Benchmark {
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Benchmark {
    /// Read `BENCHMARK.json` from the working directory (the repository
    /// root).
    pub fn load() -> Result<Benchmark, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
        let doc = Value::parse(&text).map_err(|e| format!("parse BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<Vec<MetricSpec>, String> {
            let items = doc
                .get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json has no `{key}`"))?;
            items
                .iter()
                .map(|m| {
                    Some(MetricSpec {
                        name: m.get("name")?.as_str()?.to_owned(),
                        unit: m.get("unit")?.as_str()?.to_owned(),
                        lower_is_better: m.get("better")?.as_str()? == "lower",
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| format!("BENCHMARK.json: malformed entry in `{key}`"))
        };
        Ok(Benchmark {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }

    fn spec(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// Every `(name, unit)` in first-seen order with its values over `runs`.
fn collect(runs: &[&Run], key: &str) -> Vec<(String, String, Vec<f64>)> {
    let mut out: Vec<(String, String, Vec<f64>)> = Vec::new();
    for run in runs {
        for (name, value, unit) in parse_metrics(run.doc.get(key)) {
            match out.iter_mut().find(|m| m.0 == name) {
                Some(m) => m.2.push(value),
                None => out.push((name, unit, vec![value])),
            }
        }
    }
    out
}

fn runs_of<'a>(runs: &'a [Run], workload: &str, traced: bool) -> Vec<&'a Run> {
    runs.iter()
        .filter(|r| r.workload == workload && r.traced == traced)
        .collect()
}

/// Median, quartiles and spread of each metric; end-to-end metrics whose
/// spread exceeds their `BENCHMARK.json` bound are flagged.
fn stats_json(metrics: &[(String, String, Vec<f64>)], bench: Option<&Benchmark>) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|(name, unit, values)| {
                let (q1, q3) = quartiles(values);
                let mut m = vec![
                    ("unit".to_owned(), Value::Str(unit.clone())),
                    ("n".to_owned(), Value::Num(values.len() as f64)),
                    ("median".to_owned(), Value::Num(median(values))),
                    ("q1".to_owned(), Value::Num(q1)),
                    ("q3".to_owned(), Value::Num(q3)),
                    (
                        "values".to_owned(),
                        Value::Arr(values.iter().map(|&v| Value::Num(v)).collect()),
                    ),
                ];
                if values.len() > 1 {
                    let s = spread(values);
                    m.push(("spread".to_owned(), Value::Num(s)));
                    if let Some(bound) = bench.and_then(|b| b.spec(name)).and_then(|s| s.bound) {
                        m.push(("bound".to_owned(), Value::Num(bound)));
                        m.push(("over_bound".to_owned(), Value::Bool(s > bound)));
                    }
                }
                (name.clone(), Value::Obj(m))
            })
            .collect(),
    )
}

/// The whole report document.
pub fn build(runs: &[Run], workloads: &[&str], settings: Value) -> Value {
    let bench = Benchmark::load().ok();
    let summary = workloads
        .iter()
        .map(|&w| {
            let plain = runs_of(runs, w, false);
            let traced = runs_of(runs, w, true);
            let all: Vec<&Run> = runs.iter().filter(|r| r.workload == w).collect();
            let mut members = vec![
                (
                    "correct".to_owned(),
                    Value::Bool(all.iter().all(|r| r.correct())),
                ),
                (
                    "attempted".to_owned(),
                    Value::Num(all.iter().map(|r| r.count("attempted")).sum::<u64>() as f64),
                ),
                (
                    "failed".to_owned(),
                    Value::Num(all.iter().map(|r| r.count("failed")).sum::<u64>() as f64),
                ),
                (
                    "end_to_end".to_owned(),
                    stats_json(&collect(&plain, "metrics"), bench.as_ref()),
                ),
                (
                    "per_layer".to_owned(),
                    stats_json(&collect(&traced, "layers"), bench.as_ref()),
                ),
            ];
            // Tracing overhead on the workload's main wall-time metric.
            let round = |rs: &[&Run]| {
                let v: Vec<f64> = collect(rs, "metrics")
                    .into_iter()
                    .find(|m| m.0 == "round_s")
                    .map(|m| m.2)?;
                Some(median(&v))
            };
            if let (Some(u), Some(t)) = (round(&plain), round(&traced)) {
                members.push(("tracing_overhead".to_owned(), Value::Num(t / u - 1.0)));
            }
            (w.to_owned(), Value::Obj(members))
        })
        .collect();
    Value::Obj(vec![
        ("settings".to_owned(), settings),
        ("summary".to_owned(), Value::Obj(summary)),
        (
            "runs".to_owned(),
            Value::Arr(runs.iter().map(Run::to_json).collect()),
        ),
    ])
}

pub fn write(doc: &Value, path: &Path) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_json() + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

fn fmt(v: f64) -> String {
    if v == 0.0 || (1e-3..1e6).contains(&v.abs()) {
        format!("{v:.4}")
    } else {
        format!("{v:.4e}")
    }
}

/// Print every metric of every workload, then the report-only facts.
pub fn print(doc: &Value) {
    let Some(Value::Obj(summary)) = doc.get("summary") else {
        return;
    };
    for (w, s) in summary {
        let ok = matches!(s.get("correct"), Some(Value::Bool(true)));
        println!(
            "== {w}: {} ({} attempted, {} failed)",
            if ok { "correct" } else { "INCORRECT" },
            s.get("attempted").and_then(Value::as_usize).unwrap_or(0),
            s.get("failed").and_then(Value::as_usize).unwrap_or(0)
        );
        for section in ["end_to_end", "per_layer"] {
            let Some(Value::Obj(metrics)) = s.get(section) else {
                continue;
            };
            if metrics.is_empty() {
                continue;
            }
            println!("  -- {section}");
            for (name, m) in metrics {
                let num = |k: &str| m.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
                let mut line = format!("  {name:<34} {:>12} {unit}", fmt(num("median")));
                if num("n") > 1.0 {
                    line += &format!(
                        "  [q1 {} q3 {}] spread {:.3}",
                        fmt(num("q1")),
                        fmt(num("q3")),
                        num("spread")
                    );
                    if matches!(m.get("over_bound"), Some(Value::Bool(true))) {
                        line += &format!("  SPREAD OVER BOUND {}", num("bound"));
                    }
                }
                println!("{line}");
            }
        }
        if let Some(o) = s.get("tracing_overhead").and_then(Value::as_f64) {
            println!(
                "  tracing overhead (traced / untraced round_s - 1): {:+.4}",
                o
            );
        }
    }
    let Some(runs) = doc.get("runs").and_then(Value::as_arr) else {
        return;
    };
    for run in runs {
        let (Some(w), Some(Value::Obj(info))) = (
            run.get("workload"),
            run.get("outcome").and_then(|o| o.get("info")),
        ) else {
            continue;
        };
        let traced = matches!(run.get("traced"), Some(Value::Bool(true)));
        println!(
            "-- {} seed {} {}",
            w.as_str().unwrap_or("?"),
            run.get("seed").and_then(Value::as_usize).unwrap_or(0),
            if traced { "traced" } else { "untraced" }
        );
        for (k, v) in info {
            match v {
                Value::Num(x) => println!("  {k:<34} {}", fmt(*x)),
                other => println!("  {k:<34} {}", other.to_json()),
            }
        }
        if let Some(Value::Arr(problems)) = run.get("outcome").and_then(|o| o.get("problems")) {
            for p in problems {
                println!("  PROBLEM: {}", p.as_str().unwrap_or("?"));
            }
        }
    }
}

/// The final stdout line: correctness, counts and the medians of the
/// metrics the trace mode selects (prefixed `workload:` when several
/// workloads ran).
pub fn result_line(runs: &[Run], workloads: &[&str], mode: &TraceMode) -> Value {
    let mut metrics: Vec<Metric> = Vec::new();
    for &w in workloads {
        let prefix = if workloads.len() > 1 {
            format!("{w}:")
        } else {
            String::new()
        };
        let mut add = |traced: bool, key: &str| {
            for (name, unit, values) in collect(&runs_of(runs, w, traced), key) {
                metrics.push((format!("{prefix}{name}"), median(&values), unit));
            }
        };
        if *mode != TraceMode::Off {
            if *mode == TraceMode::Both {
                add(false, "metrics");
            }
            add(true, "layers");
        } else {
            add(false, "metrics");
        }
    }
    Value::Obj(vec![
        (
            "correct".to_owned(),
            Value::Bool(runs.iter().all(Run::correct)),
        ),
        (
            "attempted".to_owned(),
            Value::Num(runs.iter().map(|r| r.count("attempted")).sum::<u64>() as f64),
        ),
        (
            "failed".to_owned(),
            Value::Num(runs.iter().map(|r| r.count("failed")).sum::<u64>() as f64),
        ),
        ("metrics".to_owned(), metrics_json(&metrics)),
    ])
}

/// Verdict on one end-to-end metric of one workload (choosing-metrics
/// §6.5 and §8).
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// Over at least ten pairs, the change wins ≥ 9/10 of them and the
    /// medians differ by more than the parent's interquartile range.
    Gain,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regression,
    /// The change would be a gain but rests on fewer than ten pairs, or
    /// the parent's own spread is wider than the bound and the change
    /// does not beat every parent run.
    Unresolved,
    /// None of the above: within the bound.
    NoRegression,
}

/// Fewest pairs of runs a gain may rest on (choosing-metrics §8).
const MIN_PAIRS: usize = 10;

/// Compare paired runs of one metric; `parent[i]` pairs with `change[i]`.
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |a: f64, b: f64| if lower_is_better { b < a } else { b > a };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(a, b)| better(**a, **b))
        .count();
    let (mp, mc) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let worse_by = if lower_is_better { mc - mp } else { mp - mc };
    let wins_clearly =
        wins as f64 >= 0.9 * pairs as f64 && better(mp, mc) && (mc - mp).abs() > q3 - q1;
    if pairs >= MIN_PAIRS && wins_clearly {
        Verdict::Gain
    } else if wins_clearly {
        Verdict::Unresolved
    } else if worse_by > bound * mp.abs() {
        Verdict::Regression
    } else if spread(parent) > bound
        && !change.iter().all(|&c| parent.iter().all(|&p| better(p, c)))
    {
        Verdict::Unresolved
    } else {
        Verdict::NoRegression
    }
}

fn load_runs(path: &Path) -> Result<Vec<Run>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = Value::parse(text.trim()).map_err(|e| format!("parse {}: {e}", path.display()))?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{}: no `runs`", path.display()))?;
    runs.iter()
        .map(|r| Run::from_json(r).ok_or_else(|| format!("{}: malformed run", path.display())))
        .collect()
}

/// `--compare PARENT CHANGE`: one row per workload with a verdict per
/// end-to-end metric, run `i` of the parent paired with run `i` of the
/// change.
pub fn compare(parent: &Path, change: &Path) -> Result<(), String> {
    let bench = Benchmark::load()?;
    let (a, b) = (load_runs(parent)?, load_runs(change)?);
    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.dedup();
    let mut rows = Vec::new();
    for w in workloads {
        let (ra, rb) = (runs_of(&a, w, false), runs_of(&b, w, false));
        if rb.is_empty() {
            continue;
        }
        let (ma, mb) = (collect(&ra, "metrics"), collect(&rb, "metrics"));
        let failed = |rs: &[&Run]| rs.iter().map(|r| r.count("failed")).sum::<u64>();
        let mut cells = Vec::new();
        let mut members = Vec::new();
        for spec in &bench.end_to_end {
            let (Some(pa), Some(pb)) = (
                ma.iter().find(|m| m.0 == spec.name),
                mb.iter().find(|m| m.0 == spec.name),
            ) else {
                continue;
            };
            let mut v = verdict(
                &pa.2,
                &pb.2,
                spec.lower_is_better,
                spec.bound.unwrap_or(0.0),
            );
            if v == Verdict::Gain && failed(&rb) > failed(&ra) {
                v = Verdict::Unresolved;
            }
            let rel = median(&pb.2) / median(&pa.2) - 1.0;
            cells.push(format!("{}={:?}({:+.1}%)", spec.name, v, rel * 100.0));
            members.push((spec.name.clone(), Value::Str(format!("{v:?}"))));
        }
        println!(
            "{w:<11} failed {}->{}  {}",
            failed(&ra),
            failed(&rb),
            cells.join("  ")
        );
        rows.push((w.to_owned(), Value::Obj(members)));
    }
    let path = Path::new(OUT_DIR).join("compare.json");
    write(&Value::Obj(rows), &path)?;
    eprintln!("perf: comparison written to {}", path.display());
    Ok(())
}
