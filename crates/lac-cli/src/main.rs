//! `lac` — command-line interface to the LAC library.
//!
//! ```text
//! lac-cli list                      list the multiplier catalog
//! lac-cli characterize <mult>       error statistics + heatmap of a unit
//! lac-cli train <app> <mult> [opts] fixed-hardware LAC training
//! lac-cli search <app> [opts]       binarized-gate hardware search
//! lac-cli sweep <app> [opts]        orchestrated catalog sweep (cached)
//! lac-cli serve <ckpt>... [opts]    batched concurrent inference daemon
//! lac-cli loadgen [opts]            seeded load generator / latency bench
//! ```
//!
//! Applications: `blur`, `edge`, `sharpen`, `jpeg`, `dft`, `inversek2j`,
//! `cnn`.
//! Options: `--epochs N`, `--lr X`, `--train N`, `--test N`, `--seed N`,
//! `--patience N` (early stopping), `--log PATH` (per-epoch JSONL),
//! `--area X` / `--power X` / `--delay X` (search budgets),
//! `--multistart` (train with power-of-two restarts),
//! `--fault-rate X` (seeded transient bit-flips in the multiplier),
//! `--resume PATH` (checkpointed, resumable training).
//!
//! Exit codes: 0 on success, 2 on a usage error (bad flags/arguments,
//! reported with the usage text), 1 on a runtime failure (diverged
//! training, I/O, ...).

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use lac_apps::{
    CnnApp, DftApp, FilterApp, FilterKind, InverseK2jApp, JpegApp, JpegMode, Kernel, StageMode,
};
use lac_core::{
    prune, search_single_observed, train_fixed_multistart_observed, train_fixed_observed,
    train_fixed_resumable_observed, JsonlObserver, NullObserver, TrainObserver,
};
use lac_data::{IkDataset, ImageDataset};
use lac_hw::{catalog, characterize, ErrorMap, FaultConfig, Multiplier};

mod args;
mod serve_cmd;
use args::Options;

/// CLI failure, split by blame: usage errors are the caller's fault (exit
/// code 2, usage text included); runtime errors are the run's fault (exit
/// code 1).
#[derive(Debug)]
enum CliError {
    Usage(String),
    Runtime(String),
}

fn usage_err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError::Usage(msg.into()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  lac-cli list
  lac-cli characterize <multiplier>
  lac-cli train <app> <multiplier> [--epochs N] [--lr X] [--train N] [--test N]
                                   [--seed N] [--patience N] [--log PATH]
                                   [--multistart] [--fault-rate X]
                                   [--resume PATH]
  lac-cli search <app> [--area X | --power X | --delay X] [--epochs N] [--lr X]
                       [--train N] [--test N] [--seed N] [--patience N]
                       [--log PATH]
  lac-cli sweep <app> [--jobs N] [--no-cache]
  lac-cli serve <checkpoint>... [--port N] [--workers N] [--batch N]
                                [--linger-us N] [--queue-cap N]
                                [--deadline-default US] [--debug-opcodes]
                                [--slo X] [--ladder auto|SPECS]
                                [--sample-rate X] [--gov-window N]
                                [--gov-dwell N] [--gov-seed N]
                                [--governor-log PATH]
  lac-cli loadgen [--port N] [--app NAME] [--requests N] [--conns N]
                  [--window N] [--seed N] [--timeout S] [--chaos SPEC]
                  [--sweep] [--out PATH] [--swap PATH] [--shutdown]

apps: blur | edge | sharpen | jpeg | dft | inversek2j | cnn

`--patience N` stops a training run after N epochs without a new best
training loss; `--log PATH` streams one JSON object per epoch to PATH.
`--fault-rate X` injects seeded transient bit-flips into X of all
multiplies (deterministic in `--seed`); `--resume PATH` checkpoints
training to PATH and continues from it when it already exists.

`sweep` trains the application against every Table I multiplier through
the deterministic sweep orchestrator: `--jobs N` sets the worker-pool
size (0 = all cores; output is byte-identical for any N), `--no-cache`
bypasses the content-addressed result cache under `results/cache/`.
Sweep sizing follows the benchmark env knobs (`LAC_QUICK`, `LAC_TRAIN`,
`LAC_TEST`, `LAC_EPOCHS`, `LAC_SEED`, `LAC_RESULTS`, `LAC_JOBS`).

`serve` publishes trained checkpoints (written by `train --resume`)
behind a batching TCP daemon; same-kernel requests coalesce into one
forward pass of up to `--batch` samples spread over `--workers`
threads (the dispatcher plus `--workers` - 1 persistent workers), and a
SWAP frame hot-swaps a checkpoint without dropping connections.
`--linger-us` caps how long a short batch may wait to fill: the daemon
does not wait when every connection is waiting for its answers (as
many in flight as it has ever had), and otherwise waits only when its
average inter-arrival gap predicts another request inside the cap, and
only until that predicted arrival, so sparse and closed-loop traffic
is served at once and 0 never waits. `--slo X` turns on the quality
governor: the daemon samples `--sample-rate` of live batches, replays
them through the exact datapath, and steps each app along its `--ladder` (auto = the
catalog slice around the trained multiplier, most exact first) to hold
the SLO at minimum area; `--governor-log` streams JSONL telemetry.
`--queue-cap` bounds admission (over-cap requests are shed with a BUSY
frame and a retry hint); `--deadline-default` drops requests still
queued after that many microseconds with a `deadline:` error;
`--debug-opcodes` accepts DEBUG_PANIC fault-injection frames (off by
default).
`loadgen` drives a daemon with a seeded request stream and reports
p50/p99 latency and throughput; `--timeout S` caps the per-response
wait; `--chaos \"seed=7,panics=1,oversized=2,drops=2,frags=2,\
corrupt-swaps=1\"` injects seeded faults before the clean load pass;
`loadgen --sweep` runs the in-process (workers x batch) grid and
writes `BENCH_serve.json`;
`loadgen --swap PATH` hot-swaps a checkpoint into a running daemon;
`loadgen --shutdown` stops a daemon gracefully.";

fn run(argv: &[String]) -> Result<(), CliError> {
    let Some(command) = argv.first() else {
        return usage_err("missing command");
    };
    match command.as_str() {
        "list" => cmd_list(),
        "characterize" => {
            let Some(name) = argv.get(1) else {
                return usage_err("characterize needs a multiplier name");
            };
            cmd_characterize(name)
        }
        "train" => {
            let Some(app) = argv.get(1) else {
                return usage_err("train needs an application");
            };
            let Some(mult) = argv.get(2) else {
                return usage_err("train needs a multiplier name");
            };
            let opts = Options::parse(&argv[3..]).map_err(CliError::Usage)?;
            cmd_train(app, mult, &opts)
        }
        "search" => {
            let Some(app) = argv.get(1) else {
                return usage_err("search needs an application");
            };
            let opts = Options::parse(&argv[2..]).map_err(CliError::Usage)?;
            cmd_search(app, &opts)
        }
        "sweep" => {
            let Some(app) = argv.get(1) else {
                return usage_err("sweep needs an application");
            };
            cmd_sweep(app, &argv[2..])
        }
        "serve" => serve_cmd::cmd_serve(&argv[1..]),
        "loadgen" => serve_cmd::cmd_loadgen(&argv[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => usage_err(format!("unknown command `{other}`")),
    }
}

fn cmd_list() -> Result<(), CliError> {
    println!("{:<12} {:>5} {:>9} {:>6} {:>6} {:>6}", "name", "bits", "sign", "area", "power", "delay");
    for m in catalog::paper_multipliers() {
        let md = m.metadata();
        println!(
            "{:<12} {:>5} {:>9} {:>6.2} {:>6.2} {:>6}",
            m.name(),
            m.bits(),
            m.signedness().to_string(),
            md.area,
            md.power,
            md.delay.map(|d| format!("{d:.2}")).unwrap_or_else(|| "-".into()),
        );
    }
    println!("\nextras: {}", catalog::EXTRA_NAMES.join(", "));
    Ok(())
}

fn cmd_characterize(name: &str) -> Result<(), CliError> {
    let m = catalog::by_name(name)
        .ok_or_else(|| CliError::Usage(format!("unknown multiplier `{name}`")))?;
    let stats = characterize(&*m, 100_000, 42);
    println!("{name}: {stats}");
    let map = ErrorMap::compute(&*m, 24);
    println!(
        "quiet fraction (<1% rel err): {:.3}   concentration: {:.1}",
        map.quiet_fraction(0.01),
        map.concentration()
    );
    println!("\nrelative-error heatmap (operand plane, darker = worse):");
    println!("{}", map.to_ascii());
    Ok(())
}

/// Resolve a catalog unit and inject the `--fault-rate` fault model if
/// asked for (seeded by `--seed`); the kernel's `adapt` tabulates it.
fn resolve_mult(name: &str, opts: &Options) -> Result<Arc<dyn Multiplier>, CliError> {
    let raw = catalog::by_name(name)
        .ok_or_else(|| CliError::Usage(format!("unknown multiplier `{name}`")))?;
    match opts.fault_rate {
        Some(rate) if rate > 0.0 => {
            let cfg = FaultConfig::new(opts.seed).flip_rate(rate);
            cfg.validate().map_err(CliError::Usage)?;
            Ok(cfg.apply(raw))
        }
        _ => Ok(raw),
    }
}

/// Monomorphized train/search drivers per application.
macro_rules! with_app {
    ($app:expr, $opts:expr, |$kernel:ident, $train:ident, $test:ident| $body:expr) => {{
        match $app {
            "blur" => {
                let $kernel = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
                let ds = ImageDataset::generate($opts.train, $opts.test, 32, 32, $opts.seed);
                let ($train, $test) = (ds.train, ds.test);
                $body
            }
            "edge" => {
                let $kernel = FilterApp::new(FilterKind::EdgeDetection, StageMode::Single);
                let ds = ImageDataset::generate($opts.train, $opts.test, 32, 32, $opts.seed);
                let ($train, $test) = (ds.train, ds.test);
                $body
            }
            "sharpen" => {
                let $kernel = FilterApp::new(FilterKind::Sharpening, StageMode::Single);
                let ds = ImageDataset::generate($opts.train, $opts.test, 32, 32, $opts.seed);
                let ($train, $test) = (ds.train, ds.test);
                $body
            }
            "jpeg" => {
                let $kernel = JpegApp::new(JpegMode::Single);
                let ds = ImageDataset::generate($opts.train, $opts.test, 32, 32, $opts.seed);
                let ($train, $test) = (ds.train, ds.test);
                $body
            }
            "dft" => {
                let $kernel = DftApp::new();
                let ds = ImageDataset::generate($opts.train, $opts.test, 32, 32, $opts.seed);
                let ($train, $test) = (ds.train, ds.test);
                $body
            }
            "inversek2j" => {
                let $kernel = InverseK2jApp::new();
                let ds = IkDataset::generate($opts.train * 10, $opts.test * 10, $opts.seed);
                let ($train, $test) = (ds.train, ds.test);
                $body
            }
            "cnn" => {
                let $kernel = CnnApp::paper();
                let ds = lac_data::CnnDataset::generate($opts.train, $opts.test, 16, 16, $opts.seed);
                let ($train, $test) = (ds.train, ds.test);
                $body
            }
            other => return usage_err(format!("unknown application `{other}`")),
        }
    }};
}

/// The observer implied by `--log` (a JSONL stream, or a no-op).
fn observer(opts: &Options) -> Result<Box<dyn TrainObserver>, CliError> {
    match &opts.log {
        Some(path) => JsonlObserver::create(path)
            .map(|o| Box::new(o) as Box<dyn TrainObserver>)
            .map_err(|e| CliError::Runtime(format!("cannot create log `{path}`: {e}"))),
        None => Ok(Box::new(NullObserver)),
    }
}

/// Checkpoint cadence for `--resume`: every 10 epochs keeps the restart
/// cost bounded without noticeable save overhead.
const CHECKPOINT_EVERY: usize = 10;

fn cmd_train(app: &str, mult_name: &str, opts: &Options) -> Result<(), CliError> {
    if opts.multistart && opts.resume.is_some() {
        return usage_err("--multistart and --resume cannot be combined");
    }
    let raw = resolve_mult(mult_name, opts)?;
    let config = opts.config(app);
    let mut obs = observer(opts)?;
    with_app!(app, opts, |kernel, train, test| {
        let mult = kernel.adapt(&raw);
        let result = if opts.multistart {
            train_fixed_multistart_observed(
                &kernel,
                &mult,
                &train,
                &test,
                &config,
                &[0, 3, 6],
                obs.as_mut(),
            )
        } else if let Some(ck) = &opts.resume {
            train_fixed_resumable_observed(
                &kernel,
                &mult,
                &train,
                &test,
                &config,
                Path::new(ck),
                CHECKPOINT_EVERY,
                obs.as_mut(),
            )
        } else {
            train_fixed_observed(&kernel, &mult, &train, &test, &config, obs.as_mut())
        };
        let result = result.map_err(|e| CliError::Runtime(e.to_string()))?;
        println!(
            "{} on {}: {:.4} -> {:.4} ({:+.4}) in {:.1}s",
            kernel.name(),
            mult_name,
            result.before,
            result.after,
            result.after - result.before,
            result.seconds
        );
        Ok(())
    })
}

/// `sweep <app>`: every Table I multiplier through the deterministic
/// sweep orchestrator — parallel (`--jobs`), cached, resumable. The same
/// engine behind the `lac-bench` figure binaries.
fn cmd_sweep(app_name: &str, rest: &[String]) -> Result<(), CliError> {
    use lac_bench::driver::AppId;
    use lac_bench::sched::{Job, Sweep, UnitJob};

    let flags = lac_bench::parse_sweep_flags(rest).map_err(CliError::Usage)?;
    if let Some(extra) = flags.rest.first() {
        return usage_err(format!("sweep does not take `{extra}`"));
    }

    // The CNN classifier lives outside the six-app `AppId` figure grid;
    // it sweeps through its dedicated job kind (same payload shape).
    let jobs: Vec<Job> = if app_name == "cnn" {
        catalog::paper_multipliers()
            .iter()
            .map(|m| {
                Job::new(
                    format!("cnn-classifier:{}", m.name()),
                    UnitJob::CnnFixed { spec: m.name().to_owned() },
                )
            })
            .collect()
    } else {
        let Some(app) = AppId::parse(app_name) else {
            return usage_err(format!("unknown application `{app_name}`"));
        };
        catalog::paper_multipliers()
            .iter()
            .map(|m| {
                Job::new(
                    format!("{}:{}", app.display(), m.name()),
                    UnitJob::Fixed { app, spec: m.name().to_owned() },
                )
            })
            .collect()
    };
    let outcomes = flags.configure(Sweep::new(format!("sweep-{app_name}"), jobs)).run();

    println!(
        "{:<14} {:>9} {:>9} {:>9}  {}",
        "multiplier", "before", "after", "gain", "status"
    );
    for o in &outcomes {
        match (o.text("multiplier"), o.num("before"), o.num("after")) {
            (Some(name), Some(before), Some(after)) => println!(
                "{:<14} {:>9.4} {:>9.4} {:>+9.4}  {}",
                name,
                before,
                after,
                after - before,
                if o.cached { "cached" } else { "trained" }
            ),
            _ => println!(
                "{:<14} {:>9} {:>9} {:>9}  error: {}",
                o.detail,
                "-",
                "-",
                "-",
                o.value.as_ref().err().map(String::as_str).unwrap_or("missing payload")
            ),
        }
    }
    Ok(())
}

fn cmd_search(app: &str, opts: &Options) -> Result<(), CliError> {
    let config = opts.config(app);
    let constraint = opts.constraint();
    let mut obs = observer(opts)?;
    with_app!(app, opts, |kernel, train, test| {
        let candidates: Vec<Arc<dyn Multiplier>> =
            catalog::paper_multipliers().iter().map(|m| kernel.adapt(m)).collect();
        let admitted = prune(&candidates, constraint);
        if admitted.is_empty() {
            return usage_err(format!("constraint {constraint:?} admits no candidates"));
        }
        println!("searching {} candidates under {constraint:?} ...", admitted.len());
        let result =
            search_single_observed(&kernel, &admitted, &train, &test, &config, 2.0, obs.as_mut());
        for (name, p) in result.candidates.iter().zip(&result.probabilities) {
            println!("  {name:<12} {p:.3}");
        }
        println!(
            "chosen: {} (area {:.2})  quality {:.4}  in {:.1}s",
            result.chosen_name(),
            result.area,
            result.quality,
            result.seconds
        );
        Ok(())
    })
}
