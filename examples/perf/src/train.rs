//! The `train` workload: a researcher's training session, closed loop.
//!
//! One cycle runs one fixed-hardware LAC session per app, in sequence:
//! blur, jpeg, dft and cnn on `mul8u_FTA`, inversek2j on `DRUM16-4`, with
//! the paper's sizing (`AppId::sizing`, `cnn_sizing`). Time goes to the
//! tape, the LUT kernels and the engine; the serving code and the sweep
//! orchestrator stay idle. The run is confined to one CPU with a speed
//! meter beside it, and its times are reference seconds (see `speed`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use lac_apps::{
    CnnApp, DftApp, FilterApp, FilterKind, InverseK2jApp, JpegApp, JpegMode, Kernel, StageMode,
};
use lac_bench::driver::{cnn_sizing, AppId};
use lac_core::{train_fixed_observed, EpochEvent, FixedResult, TrainConfig, TrainObserver};
use lac_data::{CnnDataset, IkDataset, ImageDataset};
use lac_hw::{catalog, LutMultiplier, Multiplier};
use lac_rt::json::Value;

use crate::outcome::Outcome;
use crate::speed::{self, Speed};
use crate::stats::{median, sorted, summed_percentile, tail_percentile, Setups};
use crate::trace::Tracer;

/// Worker threads of every training session. One: on a two-vCPU
/// virtual machine, two threads made a cycle slower and its time between
/// runs half again as variable (see `README.md`).
pub const THREADS: usize = 1;
/// Timed cycles run even when `--seconds` is shorter.
const MIN_CYCLES: usize = 1;

/// One app's kernel, data and adapted unit, ready to train.
pub struct Prepared {
    pub app: &'static str,
    cfg: TrainConfig,
    data: AppData,
}

enum AppData {
    Blur(FilterApp, ImageDataset, Arc<dyn Multiplier>),
    Jpeg(JpegApp, ImageDataset, Arc<dyn Multiplier>),
    Dft(DftApp, ImageDataset, Arc<dyn Multiplier>),
    Ik(InverseK2jApp, IkDataset, Arc<dyn Multiplier>),
    Cnn(CnnApp, CnnDataset, Arc<dyn Multiplier>),
}

/// Something done to one app with its concrete kernel type.
pub trait Visit {
    type Out;
    fn visit<K: Kernel + Sync>(
        &mut self,
        kernel: &K,
        train: &[K::Sample],
        test: &[K::Sample],
        mult: &Arc<dyn Multiplier>,
        cfg: &TrainConfig,
    ) -> Self::Out;
}

impl Prepared {
    pub fn visit<V: Visit>(&self, v: &mut V) -> V::Out {
        let cfg = &self.cfg;
        match &self.data {
            AppData::Blur(k, d, m) => v.visit(k, &d.train, &d.test, m, cfg),
            AppData::Jpeg(k, d, m) => v.visit(k, &d.train, &d.test, m, cfg),
            AppData::Dft(k, d, m) => v.visit(k, &d.train, &d.test, m, cfg),
            AppData::Ik(k, d, m) => v.visit(k, &d.train, &d.test, m, cfg),
            AppData::Cnn(k, d, m) => v.visit(k, &d.train, &d.test, m, cfg),
        }
    }
}

fn lut_unit<K: Kernel>(kernel: &K, spec: &str) -> Result<Arc<dyn Multiplier>, String> {
    Ok(kernel.adapt(&LutMultiplier::maybe_wrap(catalog::by_spec(spec)?)))
}

/// Dataset generation plus unit adaptation (LUT tabulation) for the five
/// sessions — what `setup_s` times on this workload.
pub fn prepare() -> Result<Vec<Prepared>, String> {
    let sized = |app: AppId| {
        let (sizing, lr) = app.sizing();
        (sizing, sizing.config(lr).threads(THREADS))
    };
    let (s, blur_cfg) = sized(AppId::Blur);
    let blur = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
    let blur_unit = lut_unit(&blur, "mul8u_FTA")?;
    let blur_data = AppData::Blur(blur, s.image_dataset(), blur_unit);
    let (s, jpeg_cfg) = sized(AppId::Jpeg);
    let jpeg = JpegApp::new(JpegMode::Single);
    let jpeg_unit = lut_unit(&jpeg, "mul8u_FTA")?;
    let jpeg_data = AppData::Jpeg(jpeg, s.image_dataset(), jpeg_unit);
    let (s, dft_cfg) = sized(AppId::Dft);
    let dft = DftApp::new();
    let dft_unit = lut_unit(&dft, "mul8u_FTA")?;
    let dft_data = AppData::Dft(dft, s.image_dataset(), dft_unit);
    let (s, ik_cfg) = sized(AppId::Ik);
    let ik = InverseK2jApp::new();
    let ik_unit = lut_unit(&ik, "DRUM16-4")?;
    let ik_data = AppData::Ik(ik, s.ik_dataset(), ik_unit);
    let (s, lr) = cnn_sizing();
    let cnn = CnnApp::paper();
    let cnn_unit = cnn.adapt(&catalog::by_spec("mul8u_FTA")?);
    let cnn_data = AppData::Cnn(cnn, s.cnn_dataset(), cnn_unit);
    let cnn_cfg = s.config(lr).threads(THREADS);
    Ok(vec![
        Prepared {
            app: "blur",
            cfg: blur_cfg,
            data: blur_data,
        },
        Prepared {
            app: "jpeg",
            cfg: jpeg_cfg,
            data: jpeg_data,
        },
        Prepared {
            app: "dft",
            cfg: dft_cfg,
            data: dft_data,
        },
        Prepared {
            app: "ik",
            cfg: ik_cfg,
            data: ik_data,
        },
        Prepared {
            app: "cnn",
            cfg: cnn_cfg,
            data: cnn_data,
        },
    ])
}

/// Wall-clock instant of every `on_epoch` callback.
struct EpochClock(Vec<Instant>);

impl TrainObserver for EpochClock {
    fn on_epoch(&mut self, _event: &EpochEvent<'_>) {
        self.0.push(Instant::now());
    }
}

struct Session;

impl Visit for Session {
    type Out = (Result<FixedResult, String>, Vec<Instant>);
    fn visit<K: Kernel + Sync>(
        &mut self,
        kernel: &K,
        train: &[K::Sample],
        test: &[K::Sample],
        mult: &Arc<dyn Multiplier>,
        cfg: &TrainConfig,
    ) -> Self::Out {
        let mut clock = EpochClock(Vec::with_capacity(cfg.epochs));
        let r = train_fixed_observed(kernel, mult, train, test, cfg, &mut clock);
        (r.map_err(|e| e.to_string()), clock.0)
    }
}

/// One training session with the instants of its epoch callbacks.
pub struct SessionRun {
    pub app: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub callbacks: Vec<Instant>,
    pub result: Result<FixedResult, String>,
}

impl SessionRun {
    /// Session time, in `speed`'s seconds.
    pub fn seconds(&self, speed: &Speed) -> f64 {
        speed.seconds(self.start, self.end)
    }

    /// Gaps between consecutive epoch callbacks, in `speed`'s ms.
    pub fn epoch_gaps_ms(&self, speed: &Speed) -> Vec<f64> {
        self.callbacks
            .windows(2)
            .map(|w| speed.ms(w[0], w[1]))
            .collect()
    }

    /// Session time outside the epoch gaps (references, quality
    /// evaluations, the first epoch and the final scoring), in `speed`'s
    /// ms.
    pub fn eval_ms(&self, speed: &Speed) -> f64 {
        self.seconds(speed) * 1e3 - self.epoch_gaps_ms(speed).iter().sum::<f64>()
    }

    /// `session` span cut into `eval` and `epoch` children at the
    /// observer callbacks; the children cover the session exactly.
    pub fn record(&self, tracer: &mut Tracer, parent: Option<usize>) {
        let Some(id) = tracer.span("session", self.app, parent, self.start, self.end) else {
            return;
        };
        let (Some(first), Some(last)) = (self.callbacks.first(), self.callbacks.last()) else {
            tracer.span("eval", self.app, Some(id), self.start, self.end);
            return;
        };
        tracer.span("eval", self.app, Some(id), self.start, *first);
        for w in self.callbacks.windows(2) {
            tracer.span("epoch", self.app, Some(id), w[0], w[1]);
        }
        tracer.span("eval", self.app, Some(id), *last, self.end);
    }

    /// Bit patterns of everything a rerun must reproduce.
    fn quality_bits(&self) -> Option<Vec<f64>> {
        let r = self.result.as_ref().ok()?;
        Some(
            [r.before, r.after]
                .into_iter()
                .chain(r.loss_history.iter().copied())
                .collect(),
        )
    }
}

/// Train every prepared app once, in order.
pub fn cycle(prepared: &[Prepared]) -> Vec<SessionRun> {
    prepared
        .iter()
        .map(|p| {
            let start = Instant::now();
            let (result, callbacks) = p.visit(&mut Session);
            SessionRun {
                app: p.app,
                start,
                end: Instant::now(),
                callbacks,
                result,
            }
        })
        .collect()
}

/// Check one cycle against the first, counting failed sessions.
fn check_cycle(
    runs: &[SessionRun],
    reference: &[Option<Vec<f64>>],
    prepared: &[Prepared],
    out: &mut Outcome,
) {
    for ((run, want), p) in runs.iter().zip(reference).zip(prepared) {
        let ok = match &run.result {
            Err(e) => out.check(false, || format!("train/{}: {e}", run.app)),
            Ok(r) => {
                let direction = p.visit(&mut MetricDirection);
                let kept = out.check(!direction.is_better(r.before, r.after), || {
                    format!(
                        "train/{}: after {} is worse than before {}",
                        run.app, r.after, r.before
                    )
                });
                let same = out.check(run.quality_bits().as_ref() == want.as_ref(), || {
                    format!(
                        "train/{}: quality or loss history differs from cycle 1",
                        run.app
                    )
                });
                kept && same
            }
        };
        out.attempt(ok);
    }
}

struct MetricDirection;

impl Visit for MetricDirection {
    type Out = lac_metrics::MetricDirection;
    fn visit<K: Kernel + Sync>(
        &mut self,
        kernel: &K,
        _: &[K::Sample],
        _: &[K::Sample],
        _: &Arc<dyn Multiplier>,
        _: &TrainConfig,
    ) -> Self::Out {
        kernel.metric().direction()
    }
}

/// What one run times: set-ups, the warm-up cycle, then timed cycles with
/// their start and end, and the set-up left over after the last.
struct Timed {
    setups: Setups,
    warm: Vec<SessionRun>,
    cycles: Vec<(Instant, Instant, Vec<SessionRun>)>,
    prepared: Vec<Prepared>,
}

fn time_cycles(seconds: f64) -> Result<Timed, String> {
    let mut setups = Setups::default();
    let mut prepared = setups.sample(None, prepare, |_| Ok(()))?;
    let warm = cycle(&prepared);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut cycles = Vec::new();
    while cycles.len() < MIN_CYCLES || Instant::now() < deadline {
        let start = Instant::now();
        let runs = cycle(&prepared);
        cycles.push((start, Instant::now(), runs));
        // The next cycle trains on a fresh set-up, so only one set is
        // alive at a time and peak memory stays that of one.
        drop(prepared);
        prepared = setups.sample(None, prepare, |_| Ok(()))?;
    }
    Ok(Timed {
        setups,
        warm,
        cycles,
        prepared,
    })
}

/// Run the workload for about `seconds` after one warm-up cycle, on one
/// CPU with a speed meter beside it; times are in reference seconds.
pub fn run(seconds: f64, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let (timed, speed) = speed::metered(|| time_cycles(seconds))?;
    let Timed {
        setups,
        warm,
        cycles,
        prepared,
    } = timed?;
    let reference: Vec<Option<Vec<f64>>> = warm.iter().map(SessionRun::quality_bits).collect();
    check_cycle(&warm, &reference, &prepared, out);
    for (_, _, runs) in &cycles {
        check_cycle(runs, &reference, &prepared, out);
    }

    let walls: Vec<f64> = cycles
        .iter()
        .map(|(s, e, _)| speed.seconds(*s, *e))
        .collect();
    let gaps: Vec<Vec<f64>> = (0..prepared.len())
        .map(|i| {
            sorted(
                cycles
                    .iter()
                    .flat_map(|(_, _, r)| r[i].epoch_gaps_ms(&speed))
                    .collect(),
            )
        })
        .collect();
    let tail = tail_percentile(&gaps.iter().map(Vec::len).collect::<Vec<_>>());
    out.metric("setup_s", setups.median(&speed), "s");
    out.metric("round_s", median(&walls), "s");
    out.metric("p50_ms", summed_percentile(&gaps, 0.50), "ms");
    out.layer("p99_ms", summed_percentile(&gaps, tail), "ms");

    out.num("train.cycles", cycles.len() as f64);
    out.info(
        "train.cycle_s",
        Value::Arr(walls.iter().map(|&w| Value::Num(w)).collect()),
    );
    let wall = Speed::default();
    out.num(
        "train.cycle_wall_s",
        median(
            &cycles
                .iter()
                .map(|(s, e, _)| wall.seconds(*s, *e))
                .collect::<Vec<_>>(),
        ),
    );
    speed.report("train", out);
    out.num("train.tail_percentile", tail * 100.0);
    out.info(
        "train.quality_fp",
        Value::Str(crate::stats::bits_fingerprint(
            reference.iter().flatten().flatten().copied(),
        )),
    );
    for (i, p) in prepared.iter().enumerate() {
        let secs: Vec<f64> = cycles
            .iter()
            .map(|(_, _, r)| r[i].seconds(&speed))
            .collect();
        out.num(format!("train.session_s.{}", p.app), median(&secs));
    }

    for (start, end, runs) in &cycles {
        let id = tracer.span("cycle", "train", None, *start, *end);
        for r in runs {
            r.record(tracer, id);
        }
    }
    Ok(())
}
