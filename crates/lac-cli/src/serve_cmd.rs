//! The `serve` and `loadgen` subcommands.
//!
//! `serve` loads one or more session checkpoints into a
//! `lac_serve::Registry` and runs the batching daemon in the
//! foreground; `loadgen` drives a running daemon with a seeded request
//! stream and prints a latency/throughput report, or — with `--sweep` —
//! runs the in-process (workers × batch) benchmark grid and writes
//! `BENCH_serve.json`. `loadgen --swap PATH` / `--shutdown` are the
//! control-plane front ends for the SWAP and SHUTDOWN frames.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use lac_apps::serving::ServeApp;
use lac_core::ServingModel;
use lac_hw::ModeLadder;
use lac_serve::{
    run_chaos, run_loadgen, run_sweep, serve, write_bench, ChaosPlan, GovernorConfig,
    LoadgenConfig, Registry, ServerConfig, SweepConfig,
};

use crate::CliError;

/// Parsed `serve` flags.
#[derive(Debug)]
pub struct ServeOpts {
    /// Checkpoint files to publish (one model per application slot).
    pub checkpoints: Vec<String>,
    /// TCP port (0 = ephemeral, printed at startup).
    pub port: u16,
    /// Threads per batched forward pass: the dispatcher plus
    /// `workers - 1` persistent workers.
    pub workers: usize,
    /// Max requests coalesced into one batch.
    pub batch: usize,
    /// Linger cap in microseconds: a short batch waits only while some
    /// connection may still send and an arrival is predicted inside it.
    pub linger_us: u64,
    /// Quality SLO; setting it turns the governor on.
    pub slo: Option<f64>,
    /// Mode ladder: `auto` or a comma-separated spec list, most exact
    /// first. Defaults to `auto` when `--slo` is set.
    pub ladder: Option<String>,
    /// Fraction of batches the governor replays exactly.
    pub sample_rate: f64,
    /// Governor rolling-window capacity.
    pub gov_window: usize,
    /// Sampled observations between probes toward approximate.
    pub gov_dwell: usize,
    /// Governor sampling seed.
    pub gov_seed: u64,
    /// JSONL telemetry path for governor events.
    pub governor_log: Option<String>,
    /// Admission cap: queued requests beyond this are shed with `BUSY`.
    pub queue_cap: usize,
    /// Default per-request deadline (µs) for requests that carry none.
    pub deadline_default_us: Option<u64>,
    /// Accept debug opcodes (`DEBUG_PANIC`) for fault injection.
    pub debug_opcodes: bool,
}

impl ServeOpts {
    /// Parse `serve` arguments: positional checkpoint paths plus flags.
    pub fn parse(args: &[String]) -> Result<ServeOpts, String> {
        let mut opts = ServeOpts {
            checkpoints: Vec::new(),
            port: 4242,
            workers: 4,
            batch: 16,
            linger_us: 200,
            slo: None,
            ladder: None,
            sample_rate: 0.25,
            gov_window: 4,
            gov_dwell: 8,
            gov_seed: 42,
            governor_log: None,
            queue_cap: 1024,
            deadline_default_us: None,
            debug_opcodes: false,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| {
                it.next().map(String::as_str).ok_or_else(|| format!("{name} needs a value"))
            };
            match arg.as_str() {
                "--port" => opts.port = parse_int("--port", value("--port")?)? as u16,
                "--workers" => {
                    opts.workers = parse_int("--workers", value("--workers")?)?;
                    if opts.workers == 0 {
                        return Err("--workers must be positive".into());
                    }
                }
                "--batch" => {
                    opts.batch = parse_int("--batch", value("--batch")?)?;
                    if opts.batch == 0 {
                        return Err("--batch must be positive".into());
                    }
                }
                "--linger-us" => {
                    opts.linger_us = parse_int("--linger-us", value("--linger-us")?)? as u64
                }
                "--slo" => {
                    let raw = value("--slo")?;
                    let slo = parse_float("--slo", raw)?;
                    if !(slo > 0.0 && slo <= 1.0) {
                        return Err(format!("--slo: `{raw}` is not in (0, 1]"));
                    }
                    opts.slo = Some(slo);
                }
                "--ladder" => {
                    let raw = value("--ladder")?;
                    if raw.is_empty() {
                        return Err("--ladder: `` is not `auto` or a spec list".into());
                    }
                    opts.ladder = Some(raw.to_owned());
                }
                "--sample-rate" => {
                    let raw = value("--sample-rate")?;
                    let rate = parse_float("--sample-rate", raw)?;
                    if !(rate > 0.0 && rate <= 1.0) {
                        return Err(format!("--sample-rate: `{raw}` is not in (0, 1]"));
                    }
                    opts.sample_rate = rate;
                }
                "--gov-window" => {
                    opts.gov_window = parse_int("--gov-window", value("--gov-window")?)?;
                    if opts.gov_window == 0 {
                        return Err("--gov-window must be positive".into());
                    }
                }
                "--gov-dwell" => {
                    opts.gov_dwell = parse_int("--gov-dwell", value("--gov-dwell")?)?;
                    if opts.gov_dwell == 0 {
                        return Err("--gov-dwell must be positive".into());
                    }
                }
                "--gov-seed" => {
                    opts.gov_seed = parse_int("--gov-seed", value("--gov-seed")?)? as u64
                }
                "--governor-log" => opts.governor_log = Some(value("--governor-log")?.to_owned()),
                "--queue-cap" => {
                    opts.queue_cap = parse_int("--queue-cap", value("--queue-cap")?)?;
                    if opts.queue_cap == 0 {
                        return Err("--queue-cap must be positive".into());
                    }
                }
                "--deadline-default" => {
                    let us =
                        parse_int("--deadline-default", value("--deadline-default")?)? as u64;
                    if us == 0 {
                        return Err("--deadline-default must be positive".into());
                    }
                    opts.deadline_default_us = Some(us);
                }
                "--debug-opcodes" => opts.debug_opcodes = true,
                flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
                path => opts.checkpoints.push(path.to_owned()),
            }
        }
        if opts.checkpoints.is_empty() {
            return Err("serve needs at least one checkpoint file".into());
        }
        Ok(opts)
    }
}

/// `serve <checkpoint>... [--port N] [--workers N] [--batch N] [--linger-us N]
/// [--queue-cap N] [--deadline-default US] [--debug-opcodes]
/// [--slo X [--ladder auto|SPEC,..] [--sample-rate X] [--gov-window N]
/// [--gov-dwell N] [--gov-seed N] [--governor-log PATH]]`
pub fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let opts = ServeOpts::parse(args).map_err(CliError::Usage)?;

    // `--slo` implies a ladder (`auto` unless one was named): the
    // governor needs rungs to step through.
    let ladder_arg = opts.ladder.clone().or_else(|| opts.slo.map(|_| "auto".to_owned()));

    let registry = Arc::new(Registry::new());
    for path in &opts.checkpoints {
        let mut model = ServingModel::load(Path::new(path))
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        if let Some(arg) = &ladder_arg {
            // A ladder that doesn't resolve, or that omits the model's
            // trained spec, is a bad `--ladder` value: a usage error.
            let ladder = if arg == "auto" {
                ModeLadder::auto(model.app().kernel_name(), model.mult_spec())
            } else {
                ModeLadder::from_specs(model.app().kernel_name(), arg.split(','))
            }
            .map_err(|e| CliError::Usage(format!("--ladder: `{arg}`: {e}")))?;
            model = model
                .with_ladder(&ladder)
                .map_err(|e| CliError::Usage(format!("--ladder: `{arg}`: {e}")))?;
        }
        println!(
            "loaded {}: {} on {} ({} epochs, {} mode{})",
            path,
            model.app().cli_id(),
            model.mult_spec(),
            model.epochs(),
            model.mode_count(),
            if model.mode_count() == 1 { "" } else { "s" }
        );
        if let Some(old) = registry.swap(model) {
            println!("  (replaces earlier {} model)", old.app().cli_id());
        }
    }

    let governor = opts.slo.map(|slo| {
        let mut g = GovernorConfig::new(slo);
        g.sample_rate = opts.sample_rate;
        g.window = opts.gov_window;
        g.dwell = opts.gov_dwell;
        g.seed = opts.gov_seed;
        g.log = opts.governor_log.as_ref().map(std::path::PathBuf::from);
        g
    });
    let cfg = ServerConfig {
        workers: opts.workers,
        max_batch: opts.batch,
        linger: Duration::from_micros(opts.linger_us),
        governor,
        queue_cap: opts.queue_cap,
        default_deadline_us: opts.deadline_default_us,
        debug_opcodes: opts.debug_opcodes,
        ..ServerConfig::default()
    };
    let running = serve(registry, cfg, opts.port)
        .map_err(|e| CliError::Runtime(format!("cannot bind port {}: {e}", opts.port)))?;
    println!(
        "serving on 127.0.0.1:{} (workers {}, batch {}, linger cap {}us, queue-cap {}{}{}); \
         send a SHUTDOWN frame to stop",
        running.port(),
        opts.workers,
        opts.batch,
        opts.linger_us,
        opts.queue_cap,
        opts.deadline_default_us
            .map(|us| format!(", deadline-default {us}us"))
            .unwrap_or_default(),
        if opts.debug_opcodes { ", debug opcodes ON" } else { "" }
    );
    if let Some(slo) = opts.slo {
        println!(
            "governor on: slo {slo}, sample-rate {}, window {}, dwell {}, seed {}{}",
            opts.sample_rate,
            opts.gov_window,
            opts.gov_dwell,
            opts.gov_seed,
            opts.governor_log
                .as_deref()
                .map(|p| format!(", log {p}"))
                .unwrap_or_default()
        );
    }
    running.join();
    println!("shut down cleanly");
    Ok(())
}

/// Parsed `loadgen` flags.
#[derive(Debug)]
pub struct LoadgenOpts {
    /// Target port of a running daemon (ignored with `--sweep`).
    pub port: u16,
    /// Application to drive.
    pub app: ServeApp,
    /// Total requests.
    pub requests: usize,
    /// Concurrent connections.
    pub conns: usize,
    /// In-flight requests per connection.
    pub window: usize,
    /// Payload seed.
    pub seed: u64,
    /// Run the in-process benchmark sweep instead of driving a daemon.
    pub sweep: bool,
    /// Send a SHUTDOWN frame to the daemon instead of generating load.
    pub shutdown: bool,
    /// Checkpoint to hot-swap into the daemon instead of generating load.
    pub swap: Option<String>,
    /// Where `--sweep` writes its JSON document.
    pub out: String,
    /// Per-response receive timeout, seconds.
    pub timeout_s: u64,
    /// Fault-injection plan to run before the clean load pass.
    pub chaos: Option<ChaosPlan>,
}

impl LoadgenOpts {
    /// Parse `loadgen` arguments.
    pub fn parse(args: &[String]) -> Result<LoadgenOpts, String> {
        let mut opts = LoadgenOpts {
            port: 4242,
            app: ServeApp::Blur,
            requests: 256,
            conns: 4,
            window: 32,
            seed: 42,
            sweep: false,
            shutdown: false,
            swap: None,
            out: "results/bench/BENCH_serve.json".into(),
            timeout_s: lac_serve::DEFAULT_CLIENT_TIMEOUT.as_secs(),
            chaos: None,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| {
                it.next().map(String::as_str).ok_or_else(|| format!("{name} needs a value"))
            };
            match arg.as_str() {
                "--port" => opts.port = parse_int("--port", value("--port")?)? as u16,
                "--app" => {
                    let name = value("--app")?;
                    opts.app = ServeApp::parse(name)
                        .ok_or_else(|| format!("--app: unknown application `{name}`"))?;
                }
                "--requests" => {
                    opts.requests = parse_int("--requests", value("--requests")?)?;
                    if opts.requests == 0 {
                        return Err("--requests must be positive".into());
                    }
                }
                "--conns" => {
                    opts.conns = parse_int("--conns", value("--conns")?)?;
                    if opts.conns == 0 {
                        return Err("--conns must be positive".into());
                    }
                }
                "--window" => {
                    opts.window = parse_int("--window", value("--window")?)?;
                    if opts.window == 0 {
                        return Err("--window must be positive".into());
                    }
                }
                "--seed" => opts.seed = parse_int("--seed", value("--seed")?)? as u64,
                "--sweep" => opts.sweep = true,
                "--shutdown" => opts.shutdown = true,
                "--swap" => opts.swap = Some(value("--swap")?.to_owned()),
                "--out" => opts.out = value("--out")?.to_owned(),
                "--timeout" => {
                    opts.timeout_s = parse_int("--timeout", value("--timeout")?)? as u64;
                    if opts.timeout_s == 0 {
                        return Err("--timeout must be positive".into());
                    }
                }
                "--chaos" => opts.chaos = Some(ChaosPlan::parse(value("--chaos")?)?),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(opts)
    }
}

/// `loadgen [--port N] [--app NAME] [--requests N] [--conns N] [--window N]
/// [--seed N] [--timeout S] [--chaos SPEC] [--sweep] [--swap PATH]
/// [--shutdown] [--out PATH]`
pub fn cmd_loadgen(args: &[String]) -> Result<(), CliError> {
    let opts = LoadgenOpts::parse(args).map_err(CliError::Usage)?;

    if let Some(path) = &opts.swap {
        let mut client = lac_serve::Client::connect(opts.port)
            .map_err(|e| CliError::Runtime(format!("connect to port {}: {e}", opts.port)))?;
        client
            .set_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        // The daemon loads and validates the checkpoint itself (the
        // path travels over the wire); a broken spec comes back as an
        // error frame naming the spec and the file, and the old model
        // stays live.
        match client
            .round_trip(&lac_serve::Request::Swap { id: 1, path: path.clone() })
            .map_err(|e| CliError::Runtime(format!("swap: {e}")))?
        {
            lac_serve::Response::Swapped { kernel, .. } => {
                let name = ServeApp::from_code(kernel)
                    .map_or_else(|| format!("kernel {kernel}"), |a| a.cli_id().to_owned());
                println!("server on port {} hot-swapped {name} from {path}", opts.port);
                return Ok(());
            }
            lac_serve::Response::Error { message, .. } => {
                return Err(CliError::Runtime(format!("swap rejected: {message}")))
            }
            other => {
                return Err(CliError::Runtime(format!("unexpected swap response: {other:?}")))
            }
        }
    }

    if opts.shutdown {
        let mut client = lac_serve::Client::connect(opts.port)
            .map_err(|e| CliError::Runtime(format!("connect to port {}: {e}", opts.port)))?;
        client
            .set_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        match client
            .round_trip(&lac_serve::Request::Shutdown { id: 1 })
            .map_err(|e| CliError::Runtime(format!("shutdown: {e}")))?
        {
            lac_serve::Response::Bye { .. } => {
                println!("server on port {} acknowledged shutdown", opts.port);
                return Ok(());
            }
            other => {
                return Err(CliError::Runtime(format!(
                    "unexpected shutdown response: {other:?}"
                )))
            }
        }
    }

    if opts.sweep {
        let cfg = SweepConfig {
            requests: opts.requests,
            conns: opts.conns,
            window: opts.window,
            seed: opts.seed,
            ..SweepConfig::default()
        };
        println!(
            "sweeping workers {:?} x batch {:?} ({} requests per cell) ...",
            cfg.workers, cfg.batches, cfg.requests
        );
        let doc = run_sweep(&cfg).map_err(CliError::Runtime)?;
        write_bench(&doc, Path::new(&opts.out)).map_err(CliError::Runtime)?;
        print_sweep(&doc);
        println!("wrote {}", opts.out);
        return Ok(());
    }

    let cfg = LoadgenConfig {
        port: opts.port,
        app: opts.app,
        requests: opts.requests,
        conns: opts.conns,
        window: opts.window,
        seed: opts.seed,
        timeout: Duration::from_secs(opts.timeout_s),
    };
    let report = if let Some(plan) = &opts.chaos {
        let chaos = run_chaos(&cfg, plan).map_err(CliError::Runtime)?;
        println!(
            "chaos: {} panics ({} refused), {} oversized rejected, {} conns dropped, \
             {} fragmented ok, {} corrupt swaps refused",
            chaos.injected_panics,
            chaos.refused_panics,
            chaos.oversized_rejections,
            chaos.dropped_conns,
            chaos.fragmented_ok,
            chaos.corrupt_swap_rejections
        );
        chaos.loadgen
    } else {
        run_loadgen(&cfg).map_err(CliError::Runtime)?
    };
    println!(
        "{}: {} ok / {} err in {:.2}s  p50 {:.0}us  p99 {:.0}us  {:.0} req/s",
        report.app.cli_id(),
        report.completed,
        report.errors,
        report.elapsed_s,
        report.p50_us,
        report.p99_us,
        report.throughput_rps
    );
    Ok(())
}

fn print_sweep(doc: &lac_rt::json::Value) {
    let Some(benches) = doc.get("benches").and_then(|b| b.as_arr()) else {
        return;
    };
    println!("{:<20} {:>10} {:>10} {:>12}", "cell", "p50_us", "p99_us", "req/s");
    for b in benches {
        let id = b.get("id").and_then(|v| v.as_str()).unwrap_or("?");
        let num = |k: &str| b.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
        println!(
            "{:<20} {:>10.0} {:>10.0} {:>12.0}",
            id,
            num("p50_us"),
            num("p99_us"),
            num("throughput_rps")
        );
    }
}

fn parse_int(flag: &str, s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("{flag}: `{s}` is not a valid integer"))
}

fn parse_float(flag: &str, s: &str) -> Result<f64, String> {
    s.parse().map_err(|_| format!("{flag}: `{s}` is not a valid number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn serve_parses_checkpoints_and_flags() {
        let o = ServeOpts::parse(&strs(&[
            "a.json", "--port", "9000", "--workers", "8", "b.json", "--batch", "4",
            "--linger-us", "50",
        ]))
        .unwrap();
        assert_eq!(o.checkpoints, vec!["a.json", "b.json"]);
        assert_eq!((o.port, o.workers, o.batch, o.linger_us), (9000, 8, 4, 50));
    }

    #[test]
    fn serve_usage_errors_name_flag_and_value() {
        let err = ServeOpts::parse(&strs(&["a.json", "--port", "nine"])).unwrap_err();
        assert!(err.contains("--port") && err.contains("`nine`"), "{err}");
        let err = ServeOpts::parse(&strs(&["a.json", "--workers", "0"])).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
        let err = ServeOpts::parse(&[]).unwrap_err();
        assert!(err.contains("checkpoint"), "{err}");
        let err = ServeOpts::parse(&strs(&["a.json", "--bogus"])).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
    }

    #[test]
    fn serve_parses_governor_flags() {
        let o = ServeOpts::parse(&strs(&[
            "a.json",
            "--slo",
            "0.95",
            "--ladder",
            "exact8u,mul8u_185Q,mul8u_FTA",
            "--sample-rate",
            "0.5",
            "--gov-window",
            "2",
            "--gov-dwell",
            "3",
            "--gov-seed",
            "7",
            "--governor-log",
            "gov.jsonl",
        ]))
        .unwrap();
        assert_eq!(o.slo, Some(0.95));
        assert_eq!(o.ladder.as_deref(), Some("exact8u,mul8u_185Q,mul8u_FTA"));
        assert_eq!(o.sample_rate, 0.5);
        assert_eq!((o.gov_window, o.gov_dwell, o.gov_seed), (2, 3, 7));
        assert_eq!(o.governor_log.as_deref(), Some("gov.jsonl"));
        // Governor flags are all optional; slo alone is enough.
        let o = ServeOpts::parse(&strs(&["a.json", "--slo", "0.9"])).unwrap();
        assert_eq!(o.slo, Some(0.9));
        assert!(o.ladder.is_none());
    }

    #[test]
    fn serve_governor_usage_errors_name_flag_and_value() {
        let err = ServeOpts::parse(&strs(&["a.json", "--slo", "high"])).unwrap_err();
        assert!(err.contains("--slo") && err.contains("`high`"), "{err}");
        let err = ServeOpts::parse(&strs(&["a.json", "--slo", "1.5"])).unwrap_err();
        assert!(err.contains("--slo") && err.contains("`1.5`"), "{err}");
        let err = ServeOpts::parse(&strs(&["a.json", "--slo", "0"])).unwrap_err();
        assert!(err.contains("--slo") && err.contains("`0`"), "{err}");
        let err = ServeOpts::parse(&strs(&["a.json", "--sample-rate", "-0.1"])).unwrap_err();
        assert!(err.contains("--sample-rate") && err.contains("`-0.1`"), "{err}");
        let err = ServeOpts::parse(&strs(&["a.json", "--ladder", ""])).unwrap_err();
        assert!(err.contains("--ladder"), "{err}");
        let err = ServeOpts::parse(&strs(&["a.json", "--ladder"])).unwrap_err();
        assert!(err.contains("--ladder") && err.contains("value"), "{err}");
        let err = ServeOpts::parse(&strs(&["a.json", "--gov-window", "0"])).unwrap_err();
        assert!(err.contains("--gov-window"), "{err}");
    }

    #[test]
    fn loadgen_parses_flags() {
        let o = LoadgenOpts::parse(&strs(&[
            "--port", "9000", "--app", "inversek2j", "--requests", "64", "--conns", "2",
            "--window", "8", "--seed", "7", "--sweep", "--out", "x.json",
        ]))
        .unwrap();
        assert_eq!(o.port, 9000);
        assert_eq!(o.app, ServeApp::InverseK2j);
        assert_eq!((o.requests, o.conns, o.window, o.seed), (64, 2, 8, 7));
        assert!(o.sweep);
        assert_eq!(o.out, "x.json");
    }

    #[test]
    fn loadgen_parses_control_flags() {
        let o = LoadgenOpts::parse(&strs(&["--swap", "new.ckpt.json"])).unwrap();
        assert_eq!(o.swap.as_deref(), Some("new.ckpt.json"));
        let err = LoadgenOpts::parse(&strs(&["--swap"])).unwrap_err();
        assert!(err.contains("--swap"), "{err}");
        let o = LoadgenOpts::parse(&strs(&["--shutdown"])).unwrap();
        assert!(o.shutdown);
    }

    #[test]
    fn serve_parses_resilience_flags() {
        let o = ServeOpts::parse(&strs(&[
            "a.json",
            "--queue-cap",
            "64",
            "--deadline-default",
            "5000",
            "--debug-opcodes",
        ]))
        .unwrap();
        assert_eq!(o.queue_cap, 64);
        assert_eq!(o.deadline_default_us, Some(5000));
        assert!(o.debug_opcodes);
        // All optional, with safe defaults.
        let o = ServeOpts::parse(&strs(&["a.json"])).unwrap();
        assert_eq!(o.queue_cap, 1024);
        assert_eq!(o.deadline_default_us, None);
        assert!(!o.debug_opcodes);
    }

    #[test]
    fn serve_resilience_usage_errors_name_flag_and_value() {
        let err = ServeOpts::parse(&strs(&["a.json", "--queue-cap", "0"])).unwrap_err();
        assert!(err.contains("--queue-cap"), "{err}");
        let err = ServeOpts::parse(&strs(&["a.json", "--queue-cap", "deep"])).unwrap_err();
        assert!(err.contains("--queue-cap") && err.contains("`deep`"), "{err}");
        let err = ServeOpts::parse(&strs(&["a.json", "--deadline-default", "0"])).unwrap_err();
        assert!(err.contains("--deadline-default"), "{err}");
    }

    #[test]
    fn loadgen_parses_timeout_and_chaos() {
        let o = LoadgenOpts::parse(&strs(&["--timeout", "5"])).unwrap();
        assert_eq!(o.timeout_s, 5);
        let o = LoadgenOpts::parse(&[]).unwrap();
        assert_eq!(o.timeout_s, lac_serve::DEFAULT_CLIENT_TIMEOUT.as_secs());
        let o = LoadgenOpts::parse(&strs(&["--chaos", "seed=3,panics=1,drops=2"])).unwrap();
        let plan = o.chaos.unwrap();
        assert_eq!((plan.seed, plan.panics, plan.drops), (3, 1, 2));
    }

    #[test]
    fn loadgen_timeout_and_chaos_usage_errors() {
        let err = LoadgenOpts::parse(&strs(&["--timeout", "0"])).unwrap_err();
        assert!(err.contains("--timeout"), "{err}");
        let err = LoadgenOpts::parse(&strs(&["--timeout", "forever"])).unwrap_err();
        assert!(err.contains("--timeout") && err.contains("`forever`"), "{err}");
        let err = LoadgenOpts::parse(&strs(&["--chaos", "meteors=9"])).unwrap_err();
        assert!(err.contains("unknown key `meteors`"), "{err}");
    }

    #[test]
    fn loadgen_usage_errors_name_flag_and_value() {
        let err = LoadgenOpts::parse(&strs(&["--requests", "lots"])).unwrap_err();
        assert!(err.contains("--requests") && err.contains("`lots`"), "{err}");
        let err = LoadgenOpts::parse(&strs(&["--app", "toaster"])).unwrap_err();
        assert!(err.contains("--app") && err.contains("`toaster`"), "{err}");
        let err = LoadgenOpts::parse(&strs(&["--conns", "0"])).unwrap_err();
        assert!(err.contains("--conns"), "{err}");
    }
}
