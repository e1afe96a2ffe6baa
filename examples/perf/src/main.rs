//! `perf`: the LAC benchmark — end-to-end and per-layer metrics of four
//! workloads (`train`, `sweep`, `serve-blur`, `serve-mix`), with output
//! checks, an optional span trace, repeat statistics and a comparison
//! of two reports. See `README.md` beside this crate for the workloads,
//! the metric table and how to read a trace.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path examples/perf/Cargo.toml -- \
//!     --workload <name|all> --seed N [--seconds S] [--trace 0|1|PATH] \
//!     [--repeat N] [--report PATH]
//! ... -- --compare PARENT.json CHANGE.json
//! ... -- --self-test
//! ... -- --smoke
//! ```
//!
//! Every workload runs in a fresh child process of this binary with the
//! `LAC_*` environment removed, `LAC_SEED` set from `--seed` and
//! `LAC_RESULTS` pointing at a fresh scratch directory. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

mod outcome;
mod probe;
mod report;
mod selftest;
mod serve;
mod speed;
mod stats;
mod sweep;
mod trace;
mod train;

use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use lac_rt::json::Value;

use crate::outcome::Outcome;
use crate::trace::Tracer;

/// Workload names, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["train", "sweep", "serve-blur", "serve-mix"];
/// Measured seconds per run when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;
/// Where reports, traces and per-run scratch directories go.
pub const OUT_DIR: &str = "results/perf/out";
/// A child still running this long after its measured seconds is
/// killed and its run fails.
const CHILD_GRACE: Duration = Duration::from_secs(100);

const USAGE: &str =
    "usage: perf --workload <train|sweep|serve-blur|serve-mix|all> [--seed N] [--seconds S] \
[--trace 0|1|PATH] [--repeat N] [--report PATH]
       perf --compare PARENT.json CHANGE.json
       perf --self-test
       perf --smoke";

/// Which runs a measurement makes, and which metrics its last line
/// carries.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceMode {
    /// `--trace` not given: an untraced run, then a traced one; every
    /// metric.
    Both,
    /// `--trace 0`: the untraced run only; end-to-end metrics.
    Off,
    /// `--trace 1` or `--trace PATH`: the traced run only (spans to PATH
    /// or a default file); per-layer metrics.
    On(Option<PathBuf>),
}

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: TraceMode,
    repeat: usize,
    report: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    self_test: bool,
    smoke: bool,
    child: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            workload: None,
            seed: 42,
            seconds: DEFAULT_SECONDS,
            trace: TraceMode::Both,
            repeat: 1,
            report: None,
            compare: None,
            self_test: false,
            smoke: false,
            child: false,
        };
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => a.workload = Some(value()?),
                "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".to_owned());
                    }
                }
                "--trace" => {
                    a.trace = match value()?.as_str() {
                        "0" => TraceMode::Off,
                        "1" => TraceMode::On(None),
                        path => TraceMode::On(Some(PathBuf::from(path))),
                    }
                }
                "--repeat" => {
                    a.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                    if a.repeat == 0 {
                        return Err("--repeat must be at least 1".to_owned());
                    }
                }
                "--report" => a.report = Some(PathBuf::from(value()?)),
                "--compare" => {
                    let parent = PathBuf::from(value()?);
                    a.compare = Some((parent, PathBuf::from(value()?)));
                }
                "--self-test" => a.self_test = true,
                "--smoke" => a.smoke = true,
                "--child" => a.child = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if let Some(w) = &a.workload {
            if w != "all" && !WORKLOADS.contains(&w.as_str()) {
                return Err(format!("unknown workload `{w}`"));
            }
            let single = w != "all" && a.repeat == 1;
            if matches!(a.trace, TraceMode::On(Some(_))) && !single && !a.child {
                return Err(
                    "--trace PATH takes one workload and no --repeat; use --trace 1".to_owned(),
                );
            }
        }
        Ok(a)
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = if args.child {
        child(&args)
    } else if args.self_test || args.smoke {
        let mut ok = true;
        if args.self_test {
            ok &= selftest::run();
        }
        if args.smoke {
            ok &= smoke()
                .map_err(|e| eprintln!("perf: smoke: {e}"))
                .unwrap_or(false);
        }
        if ok {
            Ok(())
        } else {
            Err("checks failed".to_owned())
        }
    } else if let Some((parent, change)) = &args.compare {
        report::compare(parent, change)
    } else if let Some(w) = &args.workload {
        measure(&args, w)
    } else {
        Err(format!("nothing to do\n{USAGE}"))
    };
    if let Err(e) = result {
        eprintln!("perf: {e}");
        std::process::exit(1);
    }
}

/// Run one workload in this process and print its outcome as one JSON
/// line.
fn child(args: &Args) -> Result<(), String> {
    let workload = args.workload.as_deref().ok_or("--child needs --workload")?;
    let work =
        PathBuf::from(std::env::var("LAC_RESULTS").map_err(|_| "--child needs LAC_RESULTS")?);
    let trace_path = match &args.trace {
        TraceMode::On(Some(p)) => Some(p.clone()),
        _ => None,
    };
    let mut tracer = Tracer::new(trace_path.is_some());
    let mut out = Outcome::default();
    match workload {
        "train" => train::run(args.seconds, &mut tracer, &mut out)?,
        "sweep" => sweep::run(args.seconds, &work, &mut tracer, &mut out)?,
        "serve-blur" => serve::run(
            &serve::SERVE_BLUR,
            args.seed,
            args.seconds,
            &work,
            &mut tracer,
            &mut out,
        )?,
        "serve-mix" => serve::run(
            &serve::SERVE_MIX,
            args.seed,
            args.seconds,
            &work,
            &mut tracer,
            &mut out,
        )?,
        other => return Err(format!("unknown workload `{other}`")),
    }
    out.metric("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    if let Some(path) = trace_path {
        probe::run(args.seed, &work, &mut tracer, &mut out)?;
        tracer.write(&path)?;
        out.info("trace.file", Value::Str(path.display().to_string()));
        out.info("trace.summary", tracer.summary_json());
    }
    let rate = if out.attempted == 0 {
        0.0
    } else {
        out.failed as f64 / out.attempted as f64
    };
    out.layer("error_rate", rate, "ratio");
    println!("{}", out.to_json().to_json());
    Ok(())
}

/// One finished child run.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// The child's outcome object.
    pub doc: Value,
}

impl Run {
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("workload".to_owned(), Value::Str(self.workload.clone())),
            ("seed".to_owned(), Value::Num(self.seed as f64)),
            ("traced".to_owned(), Value::Bool(self.traced)),
            ("outcome".to_owned(), self.doc.clone()),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Run> {
        Some(Run {
            workload: v.get("workload")?.as_str()?.to_owned(),
            seed: v.get("seed")?.as_usize()? as u64,
            traced: matches!(v.get("traced")?, Value::Bool(true)),
            doc: v.get("outcome")?.clone(),
        })
    }

    pub fn correct(&self) -> bool {
        matches!(self.doc.get("correct"), Some(Value::Bool(true)))
    }

    pub fn count(&self, key: &str) -> u64 {
        self.doc.get(key).and_then(Value::as_usize).unwrap_or(0) as u64
    }
}

/// Run `workload` in a fresh child process with a clean environment.
fn spawn(workload: &str, seed: u64, seconds: f64, trace: Option<&Path>) -> Result<Run, String> {
    let work = Path::new(OUT_DIR).join(format!("tmp-{}-{workload}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("locate this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--child",
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    cmd.arg("--trace")
        .arg(trace.map_or_else(|| "0".into(), |p| p.as_os_str().to_owned()));
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("LAC_") {
            cmd.env_remove(key);
        }
    }
    cmd.env("LAC_SEED", seed.to_string())
        .env("LAC_RESULTS", &work);
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut proc = cmd.spawn().map_err(|e| format!("start {workload}: {e}"))?;
    let mut stdout = proc.stdout.take().ok_or("child has no stdout")?;
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let deadline = Instant::now() + Duration::from_secs_f64(seconds) + CHILD_GRACE;
    let status = loop {
        match proc.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            waited => {
                let _ = proc.kill();
                let _ = proc.wait();
                break Err(match waited {
                    Err(e) => format!("wait for {workload}: {e}"),
                    Ok(_) => {
                        format!("{workload} (seed {seed}) ran past its time limit and was killed")
                    }
                });
            }
        }
    };
    let text = reader
        .join()
        .map_err(|_| "stdout reader panicked")?
        .map_err(|e| format!("read child output: {e}"));
    let _ = std::fs::remove_dir_all(&work);
    let status = status?;
    let text = text?;
    if !status.success() {
        return Err(format!("{workload} (seed {seed}) failed with {status}"));
    }
    let line = text
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    let doc = Value::parse(line).map_err(|e| format!("{workload} printed bad JSON: {e}"))?;
    Ok(Run {
        workload: workload.to_owned(),
        seed,
        traced: trace.is_some(),
        doc,
    })
}

/// Default span file of a traced run: one per workload, the latest run's
/// (a serving trace holds a span per request, tens of MB).
fn trace_path(workload: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!("trace-{workload}.jsonl"))
}

/// Run the requested workloads (each `--repeat` times, seeds `seed`,
/// `seed + 1`, ...), print every metric, write the report and print the
/// result line.
fn measure(args: &Args, workload: &str) -> Result<(), String> {
    let names: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workload]
    };
    let mut runs = Vec::new();
    for w in &names {
        for k in 0..args.repeat as u64 {
            let seed = args.seed + k;
            if !matches!(args.trace, TraceMode::On(_)) {
                runs.push(spawn(w, seed, args.seconds, None)?);
            }
            match &args.trace {
                TraceMode::Off => {}
                TraceMode::On(Some(path)) => runs.push(spawn(w, seed, args.seconds, Some(path))?),
                _ => runs.push(spawn(w, seed, args.seconds, Some(&trace_path(w)))?),
            }
        }
    }
    let settings = settings(args);
    let doc = report::build(&runs, &names, settings);
    report::print(&doc);
    let path = args
        .report
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join(format!("{workload}-seed{}.json", args.seed)));
    report::write(&doc, &path)?;
    eprintln!("perf: report written to {}", path.display());
    println!(
        "{}",
        report::result_line(&runs, &names, &args.trace).to_json()
    );
    Ok(())
}

/// What the report records about the machine and the settings.
fn settings(args: &Args) -> Value {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rates = |m: &serve::Mix| Value::Arr(m.rates.iter().map(|&r| Value::Num(r)).collect());
    let cfg = serve::server_config();
    Value::Obj(vec![
        ("cores".to_owned(), Value::Num(cores as f64)),
        ("seed".to_owned(), Value::Num(args.seed as f64)),
        ("seconds".to_owned(), Value::Num(args.seconds)),
        ("repeat".to_owned(), Value::Num(args.repeat as f64)),
        ("git_commit".to_owned(), Value::Str(git_commit())),
        (
            "rates".to_owned(),
            Value::Obj(vec![
                (serve::SERVE_BLUR.name.to_owned(), rates(&serve::SERVE_BLUR)),
                (serve::SERVE_MIX.name.to_owned(), rates(&serve::SERVE_MIX)),
            ]),
        ),
        (
            "server".to_owned(),
            Value::Obj(vec![
                ("workers".to_owned(), Value::Num(cfg.workers as f64)),
                ("max_batch".to_owned(), Value::Num(cfg.max_batch as f64)),
                (
                    "linger_us".to_owned(),
                    Value::Num(cfg.linger.as_micros() as f64),
                ),
                ("queue_cap".to_owned(), Value::Num(cfg.queue_cap as f64)),
                ("connections".to_owned(), Value::Num(serve::CONNS as f64)),
                (
                    "generator_threads".to_owned(),
                    Value::Num(serve::CONNS as f64),
                ),
            ]),
        ),
        (
            "train_threads".to_owned(),
            Value::Num(train::THREADS as f64),
        ),
        ("speed_ref_us".to_owned(), Value::Num(speed::REF_US)),
        (
            "speed_period_ms".to_owned(),
            Value::Num(speed::PERIOD.as_secs_f64() * 1e3),
        ),
        (
            "sweep_workers".to_owned(),
            Value::Num(sweep::WORKERS as f64),
        ),
        (
            "sweep_units".to_owned(),
            Value::Arr(
                sweep::UNITS
                    .iter()
                    .map(|u| Value::Str((*u).to_owned()))
                    .collect(),
            ),
        ),
    ])
}

/// The checked-out commit, read from `.git` (no subprocess); `unknown`
/// outside a git checkout.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".to_owned()
        } else {
            head.to_owned()
        };
    };
    if let Ok(hash) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return hash.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_owned()))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Run every workload briefly, untraced and traced, and check that every
/// metric `BENCHMARK.json` names appears with its unit.
fn smoke() -> Result<bool, String> {
    let bench = report::Benchmark::load()?;
    let mut ok = true;
    for w in WORKLOADS {
        let t = Instant::now();
        let mut runs = vec![spawn(w, 7, 0.5, None)?];
        if w == "train" {
            runs.push(spawn(w, 7, 0.5, Some(&trace_path(w)))?);
        }
        for run in &runs {
            let (key, wanted) = if run.traced {
                ("layers", &bench.per_layer)
            } else {
                ("metrics", &bench.end_to_end)
            };
            let got = outcome::parse_metrics(run.doc.get(key));
            for m in wanted {
                match got.iter().find(|g| g.0 == m.name) {
                    Some(g) if g.2 == m.unit && g.1.is_finite() => {}
                    Some(g) => {
                        ok = false;
                        eprintln!(
                            "smoke: {w}: {} = {} {} (want a finite value in {})",
                            m.name, g.1, g.2, m.unit
                        );
                    }
                    None => {
                        ok = false;
                        eprintln!(
                            "smoke: {w}: {} missing from the {key} of the report",
                            m.name
                        );
                    }
                }
            }
            if !run.correct() || run.count("failed") > 0 {
                ok = false;
                eprintln!(
                    "smoke: {w}: output checks failed: {:?}",
                    run.doc.get("problems")
                );
            }
        }
        eprintln!("smoke: {w} done in {:.1} s", t.elapsed().as_secs_f64());
    }
    let _ = std::fs::remove_file(trace_path("train"));
    eprintln!("smoke: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}
