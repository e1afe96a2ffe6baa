//! The `probe.*` phase of a traced run: times the public calls of each
//! layer, from outside the crate, on inputs generated from the run's
//! seed. Every workload runs the same probes, so every per-layer metric
//! has one definition; the metric names say which crate each one times.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lac_apps::serving::ServeApp;
use lac_apps::Kernel;
use lac_bench::driver::{cnn_sizing, AppId};
use lac_core::{batch_grads, batch_outputs, batch_references, ServingModel, TrainConfig};
use lac_hw::{catalog, signed_capable, LutMultiplier, Multiplier};
use lac_metrics::{ssim, ImageView};
use lac_rt::rng::{RngExt, SeedableRng, StdRng};
use lac_serve::{Client, Registry, Request, Response};
use lac_tensor::{Graph, Tensor, Var};

use crate::outcome::Outcome;
use crate::serve::{sample, server_config, write_checkpoint};
use crate::speed::Speed;
use crate::stats::median;
use crate::trace::Tracer;
use crate::train::{self, Visit};

/// Wall time each micro-probe spends measuring.
const BUDGET: Duration = Duration::from_millis(30);
/// Samples per `batch_grads` / `batch_outputs` probe call.
const GRAD_SAMPLES: usize = 16;
/// Requests of the saturated-capacity probe, and how many it keeps in
/// flight.
const BURST_REQUESTS: u64 = 4096;
const BURST_WINDOW: u64 = 32;
/// Daemons started for the first-PING probe.
const FIRST_PINGS: usize = 20;
/// The served apps, with the unit each is served on.
const SERVED: [(ServeApp, &str, &str); 4] = [
    (ServeApp::Blur, "blur", "mul8u_FTA"),
    (ServeApp::Jpeg, "jpeg", "mul8u_FTA"),
    (ServeApp::Dft, "dft", "mul8u_FTA"),
    (ServeApp::InverseK2j, "ik", "DRUM16-4"),
];

/// Median time per call of `f`, in µs: one warm-up call, then five
/// batches sized to fill `BUDGET` together.
fn per_call_us(mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    f();
    let one = t.elapsed().as_secs_f64().max(1e-8);
    let batch = ((BUDGET.as_secs_f64() / 5.0) / one).clamp(1.0, 1e7) as usize;
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / batch as f64
        })
        .collect();
    median(&times)
}

/// Median of `n` timings of `f`, in ms.
fn median_ms<R>(n: usize, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Run every probe, recording one `probe` span per layer.
pub fn run(seed: u64, work: &Path, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    layer("lac-data", tracer, out, |_, out, _| {
        let ms = median_ms(5, || {
            (
                AppId::Blur.sizing().0.image_dataset(),
                AppId::Ik.sizing().0.ik_dataset(),
                cnn_sizing().0.cnn_dataset(),
            )
        });
        out.layer("data.generate_ms", ms, "ms");
        Ok(())
    })?;

    layer("lac-hw", tracer, out, |_, out, _| {
        let blur = lac_apps::FilterApp::new(
            lac_apps::FilterKind::GaussianBlur,
            lac_apps::StageMode::Single,
        );
        let jpeg = lac_apps::JpegApp::new(lac_apps::JpegMode::Single);
        let mut per_unit = Vec::new();
        for name in catalog::PAPER_NAMES {
            per_unit.push(median_ms(3, || {
                let unit = LutMultiplier::maybe_wrap(catalog::by_name(name).expect("Table I unit"));
                (blur.adapt(&unit), jpeg.adapt(&unit))
            }));
        }
        out.layer("hw.tabulate_ms_sum", per_unit.iter().sum(), "ms");
        out.layer(
            "hw.tabulate_ms_max",
            per_unit.iter().copied().fold(0.0, f64::max),
            "ms",
        );
        let mut pairs = StdRng::seed_from_u64(seed);
        for (metric, unit) in [
            (
                "hw.mul_ns.lut8",
                LutMultiplier::maybe_wrap(catalog::by_spec("mul8u_FTA")?),
            ),
            ("hw.mul_ns.virtual16", catalog::by_spec("mul16s_GAT")?),
        ] {
            let (lo, hi) = unit.operand_range();
            let ops: Vec<(i64, i64)> = (0..1024)
                .map(|_| (pairs.random_range(lo..=hi), pairs.random_range(lo..=hi)))
                .collect();
            let us = per_call_us(|| {
                let mut acc = 0i64;
                for &(a, b) in &ops {
                    acc = acc.wrapping_add(unit.multiply(black_box(a), black_box(b)));
                }
                black_box(acc);
            });
            out.layer(metric, us * 1e3 / ops.len() as f64, "ns");
        }
        Ok(())
    })?;

    layer("lac-rt", tracer, out, |_, out, _| {
        let items = [0u64; 16];
        let us = per_call_us(|| {
            black_box(lac_rt::par::chunk_map(&items, 8, 2, |c| black_box(c.len())));
        });
        out.layer("rt.chunk_map_us", us, "us");
        Ok(())
    })?;

    layer("lac-tensor", tracer, out, |_, out, _| {
        tensor_probes(&mut rng, out)
    })?;

    let prepared = train::prepare()?;
    layer("lac-apps", tracer, out, |_, out, _| {
        for p in &prepared {
            let us = p.visit(&mut Forward);
            out.layer(format!("apps.forward_us.{}", p.app), us, "us");
        }
        Ok(())
    })?;

    layer("lac-metrics", tracer, out, |_, out, _| {
        let a = lac_data::synth_image(32, 32, seed);
        let b = lac_data::synth_image(32, 32, seed.wrapping_add(1));
        let us = per_call_us(|| {
            black_box(ssim(
                ImageView::new(a.pixels(), 32, 32),
                ImageView::new(b.pixels(), 32, 32),
            ));
        });
        out.layer("metrics.ssim_us", us, "us");
        Ok(())
    })?;

    layer("lac-core engine", tracer, out, |tracer, out, parent| {
        for p in &prepared {
            let (grads, outputs) = p.visit(&mut Grads);
            out.layer(format!("core.grads_us.{}", p.app), grads, "us");
            out.layer(format!("core.outputs_us.{}", p.app), outputs, "us");
        }
        for run in train::cycle(&prepared) {
            let ok = out.check(run.result.is_ok(), || {
                format!("probe session {}: {:?}", run.app, run.result.as_ref().err())
            });
            out.attempt(ok);
            let wall = Speed::default();
            out.layer(
                format!("core.session_s.{}", run.app),
                run.seconds(&wall),
                "s",
            );
            out.layer(
                format!("core.epoch_ms.{}", run.app),
                median(&run.epoch_gaps_ms(&wall)),
                "ms",
            );
            out.layer(
                format!("core.eval_ms.{}", run.app),
                run.eval_ms(&wall),
                "ms",
            );
            run.record(tracer, parent);
        }
        Ok(())
    })?;

    let dir = work.join("probe");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let dir = dir
        .canonicalize()
        .map_err(|e| format!("resolve {}: {e}", dir.display()))?;
    layer("lac-core serving", tracer, out, |_, out, _| {
        serving_probes(seed, &dir, out)
    })?;

    layer("lac-bench sched", tracer, out, |tracer, out, _| {
        let sweep_dir = dir.join("sweep");
        let sweep =
            crate::sweep::configured("perf-probe", crate::sweep::jobs(&["mul8u_FTA"]), &sweep_dir);
        let p = crate::speed::on_one_cpu(|| crate::sweep::pass(&sweep, &sweep_dir))??;
        crate::sweep::check_pass(&p, out);
        for o in &p.outcomes {
            let app = AppId::all()
                .into_iter()
                .find(|a| o.detail.starts_with(a.display()))
                .ok_or("unknown cell")?;
            out.layer(
                format!("bench.cell_s.{}", crate::sweep::short(app)),
                o.seconds,
                "s",
            );
        }
        out.layer("bench.cell_s_sum", p.cell_sum(), "s");
        out.layer(
            "bench.cell_s_max",
            p.outcomes.iter().map(|o| o.seconds).fold(0.0, f64::max),
            "s",
        );
        out.layer("bench.idle_share", p.idle_share(), "ratio");
        p.record(tracer, "probe");
        Ok(())
    })?;

    layer("lac-serve", tracer, out, |_, out, _| {
        daemon_probes(seed, &dir, out)
    })?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Run one layer's probes under a `probe` span.
fn layer(
    name: &str,
    tracer: &mut Tracer,
    out: &mut Outcome,
    body: impl FnOnce(&mut Tracer, &mut Outcome, Option<usize>) -> Result<(), String>,
) -> Result<(), String> {
    let parent = tracer.span("probe", name, None, Instant::now(), Instant::now());
    let r = body(tracer, out, parent);
    tracer.close(parent, Instant::now());
    r
}

/// Deterministic integer operand matrix in `[-hi, hi]`.
fn operand(rng: &mut StdRng, n: usize, hi: i64) -> Tensor {
    Tensor::from_vec(
        (0..n * n)
            .map(|_| rng.random_range(-hi..=hi) as f64)
            .collect(),
        &[n, n],
    )
}

fn tensor_probes(rng: &mut StdRng, out: &mut Outcome) -> Result<(), String> {
    let signed = LutMultiplier::maybe_wrap(signed_capable(catalog::by_spec("mul8u_FTA")?));
    let (_, hi) = signed.operand_range();
    let fixed = operand(rng, 8, hi);
    let partners: Vec<Tensor> = (0..32).map(|_| operand(rng, 8, hi)).collect();
    let mut i = 0;
    let mut matmul = |backward: bool| {
        let g = Graph::new();
        let a = g.var(fixed.clone());
        let x = g.var(partners[i % partners.len()].clone());
        i += 1;
        let y = a.approx_matmul(&x, &signed);
        if backward {
            black_box(g.backward(&y.sum()).get(&a));
        } else {
            black_box(y.value());
        }
    };
    out.layer("tensor.matmul8_fwd_us", per_call_us(|| matmul(false)), "us");
    out.layer(
        "tensor.matmul8_fwdbwd_us",
        per_call_us(|| matmul(true)),
        "us",
    );

    let unit = LutMultiplier::maybe_wrap(catalog::by_spec("mul8u_FTA")?);
    let image = Tensor::from_vec(
        lac_data::synth_image(32, 32, rng.random_range(0..u64::MAX))
            .pixels()
            .to_vec(),
        &[32, 32],
    );
    let taps = Tensor::from_vec(
        vec![16.0, 32.0, 16.0, 32.0, 64.0, 32.0, 16.0, 32.0, 16.0],
        &[3, 3],
    );
    let conv = |backward: bool| {
        let g = Graph::new();
        let x = g.var(image.clone());
        let k: Var = g.var(taps.clone());
        let y = x.approx_conv2d(&k, &unit);
        if backward {
            black_box(g.backward(&y.sum()).get(&k));
        } else {
            black_box(y.value());
        }
    };
    out.layer("tensor.conv32_fwd_us", per_call_us(|| conv(false)), "us");
    out.layer("tensor.conv32_fwdbwd_us", per_call_us(|| conv(true)), "us");
    Ok(())
}

/// `Kernel::forward_approx` of one sample, µs.
struct Forward;

impl Visit for Forward {
    type Out = f64;
    fn visit<K: Kernel + Sync>(
        &mut self,
        kernel: &K,
        train: &[K::Sample],
        _: &[K::Sample],
        mult: &Arc<dyn Multiplier>,
        _: &TrainConfig,
    ) -> f64 {
        let mults = vec![Arc::clone(mult); kernel.num_stages()];
        let coeffs = kernel.init_coeffs(&mults);
        per_call_us(|| {
            let g = Graph::new();
            let vars: Vec<Var> = coeffs.iter().map(|c| g.var(c.clone())).collect();
            black_box(kernel.forward_approx(&g, &train[0], &vars, &mults).value());
        })
    }
}

/// `batch_grads` and `batch_outputs` at one thread, µs per sample.
struct Grads;

impl Visit for Grads {
    type Out = (f64, f64);
    fn visit<K: Kernel + Sync>(
        &mut self,
        kernel: &K,
        train: &[K::Sample],
        _: &[K::Sample],
        mult: &Arc<dyn Multiplier>,
        _: &TrainConfig,
    ) -> (f64, f64) {
        let mults = vec![Arc::clone(mult); kernel.num_stages()];
        let coeffs = kernel.init_coeffs(&mults);
        let samples = &train[..GRAD_SAMPLES.min(train.len())];
        let refs = batch_references(kernel, samples);
        let n = samples.len() as f64;
        let grads = per_call_us(|| {
            black_box(batch_grads(kernel, &coeffs, &mults, samples, &refs, 1));
        });
        let outputs = per_call_us(|| {
            black_box(batch_outputs(kernel, &coeffs, &mults, samples, 1));
        });
        (grads / n, outputs / n)
    }
}

/// Checkpoint loading and batched inference of every served app.
fn serving_probes(seed: u64, dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let workers = server_config().workers;
    for (app, short, spec) in SERVED {
        let ckpt = dir.join(format!("{short}.ck.json"));
        write_checkpoint(app, spec, &ckpt)?;
        out.layer(
            format!("core.load_ms.{short}"),
            median_ms(3, || ServingModel::load(&ckpt)),
            "ms",
        );
        let model = ServingModel::load(&ckpt).map_err(|e| e.to_string())?;
        let batch = (0..16)
            .map(|n| sample(app, seed, n))
            .collect::<Result<Vec<_>, _>>()?;
        let b1 = per_call_us(|| {
            black_box(model.infer(&batch[..1], workers)).ok();
        });
        let b16 = per_call_us(|| {
            black_box(model.infer(&batch, workers)).ok();
        });
        out.layer(format!("core.infer_us.{short}.b1"), b1, "us");
        out.layer(format!("core.infer_us.{short}.b16"), b16, "us");
    }
    Ok(())
}

/// Wire codec costs and an unloaded daemon: window-1 round trip,
/// checkpoint hot-swap, saturated capacity, and the first PING on a
/// daemon just started.
fn daemon_probes(seed: u64, dir: &Path, out: &mut Outcome) -> Result<(), String> {
    for (app, short, _) in SERVED {
        let values = lac_serve::loadgen::payload(app, seed, 0);
        let req = Request::Infer {
            kernel: app.code(),
            id: 7,
            values,
            deadline_us: None,
        };
        let encode = per_call_us(|| {
            black_box(req.encode()).ok();
        });
        let body = Response::Infer {
            id: 7,
            values: vec![0.5; app.output_len()],
        }
        .encode()?
        .split_off(4);
        let parse = per_call_us(|| {
            black_box(Response::parse(&body)).ok();
        });
        out.layer(format!("serve.codec_us.encode.{short}"), encode, "us");
        out.layer(format!("serve.codec_us.parse.{short}"), parse, "us");
    }

    let registry = Arc::new(Registry::new());
    for (_, short, _) in SERVED {
        registry.swap(
            ServingModel::load(&dir.join(format!("{short}.ck.json"))).map_err(|e| e.to_string())?,
        );
    }
    let server =
        lac_serve::serve(registry, server_config(), 0).map_err(|e| format!("start server: {e}"))?;
    let result = (|| -> Result<(), String> {
        let mut client = Client::connect(server.port()).map_err(|e| format!("connect: {e}"))?;
        client
            .set_timeout(Some(Duration::from_secs(5)))
            .map_err(|e| e.to_string())?;
        let blur = lac_serve::loadgen::payload(ServeApp::Blur, seed, 0);
        let mut rtts = Vec::with_capacity(300);
        for id in 0..300u64 {
            let req = Request::Infer {
                kernel: ServeApp::Blur.code(),
                id,
                values: blur.clone(),
                deadline_us: None,
            };
            let t = Instant::now();
            match client.round_trip(&req).map_err(|e| e.to_string())? {
                Response::Infer { .. } => rtts.push(t.elapsed().as_secs_f64() * 1e6),
                other => return Err(format!("probe request answered with {other:?}")),
            }
        }
        let rtt = median(&rtts[50..]);
        out.layer("serve.rtt_us", rtt, "us");
        let b1 = out
            .layer_value("core.infer_us.blur.b1")
            .ok_or("blur b1 inference was not probed")?;
        out.layer("serve.overhead_us", rtt - b1, "us");
        let path = dir.join("blur.ck.json").display().to_string();
        let mut swaps = Vec::new();
        for id in 0..5u64 {
            let t = Instant::now();
            match client
                .round_trip(&Request::Swap {
                    id,
                    path: path.clone(),
                })
                .map_err(|e| e.to_string())?
            {
                Response::Swapped { .. } => swaps.push(t.elapsed().as_secs_f64() * 1e3),
                other => return Err(format!("probe swap answered with {other:?}")),
            }
        }
        out.layer("serve.swap_ms", median(&swaps), "ms");

        // Saturated capacity: one connection keeps BURST_WINDOW blur
        // requests in flight.
        let t = Instant::now();
        let (mut sent, mut got) = (0u64, 0u64);
        while got < BURST_REQUESTS {
            while sent < BURST_REQUESTS && sent - got < BURST_WINDOW {
                let req = Request::Infer {
                    kernel: ServeApp::Blur.code(),
                    id: sent,
                    values: blur.clone(),
                    deadline_us: None,
                };
                client.send(&req).map_err(|e| format!("burst send: {e}"))?;
                sent += 1;
            }
            match client.recv().map_err(|e| format!("burst receive: {e}"))? {
                Response::Infer { .. } => got += 1,
                other => return Err(format!("burst request answered with {other:?}")),
            }
        }
        out.layer(
            "serve.burst_us",
            t.elapsed().as_secs_f64() * 1e6 / BURST_REQUESTS as f64,
            "us",
        );
        Ok(())
    })();
    server.shutdown();
    server.join();
    result?;

    // Connect to a daemon just started and time the first PING: the wait
    // for its accept loop, left out of the serving `setup_s`. That wait is
    // either about 0.3 ms or one 2 ms poll period, so the mean is
    // reported; a median would jump between the two.
    let blur_ckpt = dir.join("blur.ck.json");
    let mut first = Vec::with_capacity(FIRST_PINGS);
    for _ in 0..FIRST_PINGS {
        let registry = Arc::new(Registry::new());
        registry.swap(ServingModel::load(&blur_ckpt).map_err(|e| e.to_string())?);
        let server = lac_serve::serve(registry, server_config(), 0)
            .map_err(|e| format!("start server: {e}"))?;
        let ms = (|| -> Result<f64, String> {
            let t = Instant::now();
            let mut client = Client::connect(server.port()).map_err(|e| format!("connect: {e}"))?;
            client
                .set_timeout(Some(Duration::from_secs(5)))
                .map_err(|e| e.to_string())?;
            match client
                .round_trip(&Request::Ping { id: 1 })
                .map_err(|e| e.to_string())?
            {
                Response::Pong { .. } => Ok(t.elapsed().as_secs_f64() * 1e3),
                other => Err(format!("first PING answered with {other:?}")),
            }
        })();
        server.shutdown();
        server.join();
        first.push(ms?);
    }
    out.layer(
        "serve.first_ping_ms",
        first.iter().sum::<f64>() / first.len() as f64,
        "ms",
    );
    Ok(())
}
