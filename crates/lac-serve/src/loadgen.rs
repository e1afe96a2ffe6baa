//! Seeded load generator and the serving latency benchmark.
//!
//! [`run_loadgen`] drives a running daemon from `conns` concurrent
//! connections, each pipelining up to `window` in-flight requests, and
//! reports p50/p99 latency and aggregate throughput. Payloads are drawn
//! from the seeded synthetic generators (`lac_data::synth_image`, and
//! forward-kinematics targets that are reachable by construction), so
//! two runs with the same seed issue byte-identical request streams.
//!
//! [`run_sweep`] is the benchmark harness behind
//! `results/bench/BENCH_serve.json`: it sweeps (worker count × max
//! batch size) over in-process servers and records one entry per cell,
//! which `scripts/bench_check.sh` gates on (batched throughput must
//! beat unbatched at 4 workers).

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lac_apps::serving::ServeApp;
use lac_core::ServingModel;
use lac_data::{forward_kinematics, synth_image};
use lac_rt::json::Value;
use lac_rt::rng::{RngExt, SeedableRng, StdRng};

use crate::client::Client;
use crate::protocol::{Request, Response};
use crate::registry::Registry;
use crate::server::{serve, ServerConfig};

/// How long a load-generator connection waits for a response before
/// giving up. Shared with the serving test suites so "a reasonable
/// client timeout" means one thing across the repo; the CLI overrides
/// it with `--timeout`.
pub const DEFAULT_CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Load-generator knobs.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Port of the daemon under test (on 127.0.0.1).
    pub port: u16,
    /// Application whose payloads to generate.
    pub app: ServeApp,
    /// Total requests across all connections.
    pub requests: usize,
    /// Concurrent connections.
    pub conns: usize,
    /// In-flight requests per connection (pipelining window).
    pub window: usize,
    /// Payload-stream seed.
    pub seed: u64,
    /// Per-response receive timeout.
    pub timeout: Duration,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            port: 0,
            app: ServeApp::Blur,
            requests: 256,
            conns: 4,
            window: 32,
            seed: 42,
            timeout: DEFAULT_CLIENT_TIMEOUT,
        }
    }
}

/// What one load-generator run measured.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Application driven.
    pub app: ServeApp,
    /// Requests answered with an infer response.
    pub completed: usize,
    /// Requests answered with an error frame.
    pub errors: usize,
    /// Median request latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
    /// Completed requests per wall-clock second.
    pub throughput_rps: f64,
    /// Wall-clock duration of the run, seconds.
    pub elapsed_s: f64,
}

/// A deterministic payload for request number `n` of `app`.
///
/// Image applications get a seeded synthetic 32×32 image; inversek2j
/// gets a target reached by forward kinematics from random joint
/// angles, so it is inside the reachable annulus by construction.
pub fn payload(app: ServeApp, seed: u64, n: u64) -> Vec<f64> {
    match app {
        ServeApp::InverseK2j => {
            let mut rng = StdRng::seed_from_u64(seed ^ n.wrapping_mul(0x9e3779b97f4a7c15));
            let theta1 = rng.random_range(0.1..std::f64::consts::FRAC_PI_2);
            let theta2 = rng.random_range(0.1..std::f64::consts::FRAC_PI_2);
            let (x, y) = forward_kinematics(theta1, theta2);
            vec![x, y]
        }
        _ => synth_image(32, 32, seed.wrapping_add(n)).pixels().to_vec(),
    }
}

fn percentile_us(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)].as_secs_f64() * 1e6
}

/// Drive the daemon and measure latency/throughput.
///
/// Requests are split across `cfg.conns` connections; each connection
/// keeps up to `cfg.window` requests in flight and matches responses to
/// send timestamps by request id.
pub fn run_loadgen(cfg: &LoadgenConfig) -> Result<LoadgenReport, String> {
    let conns = cfg.conns.max(1);
    let window = cfg.window.max(1);
    let per_conn: Vec<usize> = (0..conns)
        .map(|c| cfg.requests / conns + usize::from(c < cfg.requests % conns))
        .collect();

    // Payload synthesis is deterministic seeded work the server never
    // executes; build every request before the clock starts so the
    // measured window covers serving, not client-side image generation.
    let kernel = cfg.app.code();
    let requests_per_conn: Vec<Vec<Request>> = (0..conns as u64)
        .map(|c| {
            // Distinct id/payload streams per connection.
            let base = c << 32;
            (0..per_conn[c as usize] as u64)
                .map(|n| Request::Infer {
                    kernel,
                    id: base | n,
                    values: payload(cfg.app, cfg.seed, base | n),
                    deadline_us: None,
                })
                .collect()
        })
        .collect();

    let start = Instant::now();
    let results: Vec<Result<(Vec<Duration>, usize), String>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..conns)
                .map(|c| {
                    let reqs = &requests_per_conn[c];
                    scope.spawn(move || conn_worker(cfg, reqs, window))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|p| {
                        Err(format!("loadgen connection panicked: {}", lac_rt::par::panic_message(&p)))
                    })
                })
                .collect()
        });
    let elapsed = start.elapsed();

    let mut latencies = Vec::with_capacity(cfg.requests);
    let mut errors = 0usize;
    for r in results {
        let (lat, errs) = r?;
        latencies.extend(lat);
        errors += errs;
    }
    latencies.sort_unstable();

    let completed = latencies.len();
    let elapsed_s = elapsed.as_secs_f64().max(1e-9);
    Ok(LoadgenReport {
        app: cfg.app,
        completed,
        errors,
        p50_us: percentile_us(&latencies, 0.50),
        p99_us: percentile_us(&latencies, 0.99),
        throughput_rps: completed as f64 / elapsed_s,
        elapsed_s,
    })
}

/// One connection: pipeline its pre-built requests with at most
/// `window` in flight, recording per-request latency.
fn conn_worker(
    cfg: &LoadgenConfig,
    reqs: &[Request],
    window: usize,
) -> Result<(Vec<Duration>, usize), String> {
    let mut client =
        Client::connect(cfg.port).map_err(|e| format!("connect to port {}: {e}", cfg.port))?;
    client.set_timeout(Some(cfg.timeout)).map_err(|e| e.to_string())?;

    let count = reqs.len();
    let mut sent_at: Vec<Option<Instant>> = vec![None; count];
    let mut latencies = Vec::with_capacity(count);
    let mut errors = 0usize;
    let mut next = 0usize;
    let mut outstanding = 0usize;
    let mut done = 0usize;

    while done < count {
        while next < count && outstanding < window {
            sent_at[next] = Some(Instant::now());
            client.send(&reqs[next]).map_err(|e| format!("send: {e}"))?;
            next += 1;
            outstanding += 1;
        }
        let resp = client.recv().map_err(|e| format!("recv: {e}"))?;
        let id = match resp {
            Response::Infer { id, .. } => id,
            // A shed request is complete from the client's point of
            // view: the server answered it (with back-pressure).
            Response::Busy { id, .. } => {
                errors += 1;
                id
            }
            Response::Error { id, message } => {
                errors += 1;
                if id == 0 {
                    return Err(format!("server rejected the stream: {message}"));
                }
                id
            }
            other => return Err(format!("unexpected response: {other:?}")),
        };
        let slot = (id & 0xffff_ffff) as usize;
        let at = sent_at
            .get_mut(slot)
            .and_then(Option::take)
            .ok_or_else(|| format!("response for unknown or duplicate id {id}"))?;
        latencies.push(at.elapsed());
        outstanding -= 1;
        done += 1;
    }
    Ok((latencies, errors))
}

/// The sweep grid behind `BENCH_serve.json`.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Worker counts to sweep.
    pub workers: Vec<usize>,
    /// Max batch sizes to sweep.
    pub batches: Vec<usize>,
    /// Requests per cell.
    pub requests: usize,
    /// Connections per cell.
    pub conns: usize,
    /// Pipelining window per connection.
    pub window: usize,
    /// Dispatcher linger cap in microseconds (see
    /// [`ServerConfig::linger`]).
    ///
    /// Defaults to 0: the sweep drives saturated pipelined load, so the
    /// batch queue is always deep and a short batch would never have a
    /// reason to wait. The cap matters only when arrivals are spaced
    /// closely enough to predict one inside it, which is not what this
    /// grid measures.
    pub linger_us: u64,
    /// Payload seed.
    pub seed: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            workers: vec![1, 2, 4],
            batches: vec![1, 8, 32],
            requests: 512,
            conns: 8,
            window: 64,
            linger_us: 0,
            seed: 42,
        }
    }
}

/// Run the (workers × max_batch) grid against in-process servers and
/// return the `BENCH_serve.json` document.
///
/// Each cell starts a fresh server on an ephemeral port publishing an
/// untrained gaussian-blur model on `mul8u_FTA` (serving cost does not
/// depend on coefficient values, and untrained models need no
/// checkpoint on disk). Loopback scheduling noise on a shared box
/// easily swamps the cell-to-cell signal, so each cell runs one warmup
/// pass and then reports the best of three measured runs — the run
/// least perturbed by the scheduler.
///
/// The document records `cores`
/// ([`std::thread::available_parallelism`]): the headline batching win
/// — a coalesced batch fans out across the worker pool while a batch-1
/// server leaves the pool idle — needs more than one physical core to
/// show up in wall-clock throughput. On a single-core box batching can
/// only amortize per-dispatch fixed costs (graph construction, LUT
/// tabulation, response-write coalescing), a far smaller effect, and
/// `scripts/bench_check.sh` gates accordingly.
pub fn run_sweep(cfg: &SweepConfig) -> Result<Value, String> {
    let mut benches = Vec::new();
    for &workers in &cfg.workers {
        for &max_batch in &cfg.batches {
            let registry = Arc::new(Registry::new());
            registry.swap(
                ServingModel::untrained(ServeApp::Blur, "mul8u_FTA")
                    .map_err(|e| e.to_string())?,
            );
            let server_cfg = ServerConfig {
                workers,
                max_batch,
                linger: Duration::from_micros(cfg.linger_us),
                ..ServerConfig::default()
            };
            let running =
                serve(registry, server_cfg, 0).map_err(|e| format!("start server: {e}"))?;
            let lg = LoadgenConfig {
                port: running.port(),
                app: ServeApp::Blur,
                requests: cfg.requests,
                conns: cfg.conns,
                window: cfg.window,
                seed: cfg.seed,
                timeout: DEFAULT_CLIENT_TIMEOUT,
            };
            let mut best: Option<LoadgenReport> = None;
            let mut failure = None;
            // One warmup pass, then best-of-three measured runs.
            for round in 0..4 {
                match run_loadgen(&lg) {
                    Ok(report) if report.errors > 0 => {
                        failure = Some(format!(
                            "sweep cell w{workers}/b{max_batch}: {} requests errored",
                            report.errors
                        ));
                        break;
                    }
                    Ok(report) => {
                        if round > 0
                            && best
                                .as_ref()
                                .is_none_or(|b| report.throughput_rps > b.throughput_rps)
                        {
                            best = Some(report);
                        }
                    }
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
            }
            running.shutdown();
            running.join();
            if let Some(e) = failure {
                return Err(e);
            }
            let report = best.expect("three measured rounds ran");
            benches.push(bench_entry(workers, max_batch, &report));
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    Ok(Value::Obj(vec![
        ("suite".into(), Value::Str("serve".into())),
        ("app".into(), Value::Str(ServeApp::Blur.cli_id().into())),
        ("cores".into(), Value::Num(cores as f64)),
        ("requests".into(), Value::Num(cfg.requests as f64)),
        ("conns".into(), Value::Num(cfg.conns as f64)),
        ("window".into(), Value::Num(cfg.window as f64)),
        ("benches".into(), Value::Arr(benches)),
    ]))
}

fn bench_entry(workers: usize, max_batch: usize, report: &LoadgenReport) -> Value {
    Value::Obj(vec![
        (
            "id".into(),
            Value::Str(format!("serve/{}/w{workers}/b{max_batch}", report.app.cli_id())),
        ),
        ("workers".into(), Value::Num(workers as f64)),
        ("max_batch".into(), Value::Num(max_batch as f64)),
        ("completed".into(), Value::Num(report.completed as f64)),
        ("p50_us".into(), Value::Num(round3(report.p50_us))),
        ("p99_us".into(), Value::Num(round3(report.p99_us))),
        ("throughput_rps".into(), Value::Num(round3(report.throughput_rps))),
        ("elapsed_s".into(), Value::Num(round3(report.elapsed_s))),
    ])
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// Write a sweep document to `path` (creating parent directories).
pub fn write_bench(doc: &Value, path: &Path) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    let mut text = doc.to_json();
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}
