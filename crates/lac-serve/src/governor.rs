//! The quality governor: closed-loop runtime mode control.
//!
//! LAC trains coefficients against a fixed approximate multiplier, but
//! *which* multiplier a kernel runs with at serve time is a runtime
//! knob (a [`ModeLadder`] rung per app, held in the registry's
//! [`ModeSelector`](lac_core::ModeSelector)). The governor closes the
//! loop around that knob: it deterministically samples a seeded
//! fraction of live batches, replays them through the model's exact
//! reference datapath, scores the served outputs with `lac-metrics`
//! (SSIM for image kernels, relative error otherwise), feeds a rolling
//! window per app, and steps the ladder through a hysteresis FSM to
//! hold a quality SLO at minimum area.
//!
//! # FSM
//!
//! ```text
//!             window not yet full
//!            ┌─────────────┐
//!            ▼             │
//!        ┌───────────────────┐   mean < slo, rung > 0
//!        │     SETTLING      │  ┌──────────────────────┐
//!        │ (refilling window)│  │ step toward exact    │
//!        └───────┬───────────┘  │ reason=slo-violation │
//!                │ window full  └──────────▲───────────┘
//!                ▼                         │ (clears window,
//!        ┌───────────────────┐─────────────┘  doubles probe
//!        │      STEADY       │                dwell if a probe
//!        │ (mean vs slo)     │─────────────┐  just failed)
//!        └───────────────────┘             │
//!                                          ▼
//!                         mean ≥ slo+margin, dwell elapsed,
//!                         cheaper rung exists: step approx
//!                         (reason=probe-approx, clears window)
//! ```
//!
//! Hysteresis has three teeth: decisions need a *full* window (cleared
//! on every step), probes need `dwell` sampled observations since the
//! last step, and a probe that gets reverted by an SLO violation
//! doubles the dwell requirement (capped at 8×) before the next probe —
//! so constant traffic cannot oscillate A→B→A within a dwell window.
//!
//! # Determinism
//!
//! Every input to the loop is seeded and every output is wall-clock
//! free: the sample decision is a pure hash of (seed, app, batch seq),
//! replay rides the bit-identical `ServingModel::infer_reference`
//! datapath, and telemetry carries batch sequence numbers instead of
//! timestamps. Identical traffic therefore produces byte-identical
//! JSONL traces for any worker count — pinned by the governor test
//! suite.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{mpsc, Arc};

use lac_apps::serving::{ServeApp, ServeSample};
use lac_core::ServingModel;
use lac_hw::ModeLadder;
use lac_metrics::{mean_relative_error, ssim, ImageView, RollingWindow};
use lac_rt::hash::{fnv1a_64, fnv1a_64_hex};
use lac_rt::json::Value;

use crate::pool::WorkerPool;
use crate::registry::Registry;
use crate::server::forward;

/// Governor knobs. All decision inputs are deterministic; `log` only
/// adds a JSONL sink.
#[derive(Debug, Clone)]
pub struct GovernorConfig {
    /// Quality floor the windowed mean must hold (SSIM-like, in (0, 1]).
    pub slo: f64,
    /// Probe hysteresis: only probe cheaper rungs while the windowed
    /// mean clears `slo + margin`.
    pub margin: f64,
    /// Fraction of live batches sampled for exact replay, in (0, 1].
    pub sample_rate: f64,
    /// Rolling window capacity (sampled observations per decision).
    pub window: usize,
    /// Sampled observations required between probes toward approximate.
    pub dwell: usize,
    /// Seed of the batch-sampling hash.
    pub seed: u64,
    /// Optional JSONL telemetry path (every sample/step/decision).
    pub log: Option<PathBuf>,
}

impl GovernorConfig {
    /// Defaults around a quality floor: margin 0.005, sample rate 0.25,
    /// window 4, dwell 8, seed 42, no log file.
    pub fn new(slo: f64) -> Self {
        GovernorConfig {
            slo,
            margin: 0.005,
            sample_rate: 0.25,
            window: 4,
            dwell: 8,
            seed: 42,
            log: None,
        }
    }
}

/// Deterministic per-batch sampling decision: a pure hash of
/// (seed, app, batch sequence number) scaled to [0, 1) against `rate`.
///
/// No RNG state is consumed, so the decision for batch `seq` is
/// independent of worker count, batch interleaving across apps, and
/// how many batches were sampled before it.
pub fn should_sample(seed: u64, app: ServeApp, seq: u64, rate: f64) -> bool {
    if rate >= 1.0 {
        return true;
    }
    if rate <= 0.0 {
        return false;
    }
    let mut key = [0u8; 17];
    key[..8].copy_from_slice(&seed.to_le_bytes());
    key[8] = app.code();
    key[9..].copy_from_slice(&seq.to_le_bytes());
    let h = fnv1a_64(&key);
    // Top 53 bits -> an exact f64 in [0, 1).
    ((h >> 11) as f64) / ((1u64 << 53) as f64) < rate
}

/// Score served outputs against the exact reference replay, as a
/// higher-is-better quality in [0, 1]: mean SSIM for the 32×32 image
/// kernels, `1 - mean relative error` (clamped) for DFT and inverse
/// kinematics.
pub fn quality_score(app: ServeApp, served: &[Vec<f64>], exact: &[Vec<f64>]) -> f64 {
    assert_eq!(served.len(), exact.len(), "served/exact batch length mismatch");
    assert!(!served.is_empty(), "quality of an empty batch");
    let n = served.len() as f64;
    match app {
        ServeApp::Dft | ServeApp::InverseK2j => {
            let mre = served
                .iter()
                .zip(exact)
                .map(|(s, e)| mean_relative_error(s, e, 1e-6))
                .sum::<f64>()
                / n;
            (1.0 - mre).clamp(0.0, 1.0)
        }
        _ => {
            served
                .iter()
                .zip(exact)
                .map(|(s, e)| ssim(ImageView::new(s, 32, 32), ImageView::new(e, 32, 32)))
                .sum::<f64>()
                / n
        }
    }
}

/// One sampled batch handed to the governor: the model and mode that
/// served it, plus the inputs and the outputs that went on the wire.
#[derive(Debug)]
pub struct GovernorJob {
    /// The model `Arc` the dispatcher resolved for this batch (replay
    /// uses *its* reference datapath, so a concurrent hot-swap cannot
    /// score outputs against a different generation's coefficients).
    pub model: Arc<ServingModel>,
    /// The batch's application.
    pub app: ServeApp,
    /// Per-app batch sequence number (drives sampling + telemetry).
    pub seq: u64,
    /// The ladder rung the batch ran at.
    pub mode: usize,
    /// The decoded inputs.
    pub samples: Vec<ServeSample>,
    /// The served outputs.
    pub outputs: Vec<Vec<f64>>,
}

/// What one [`QualityGovernor::observe`] call measured and decided.
#[derive(Debug, Clone)]
pub struct Observation {
    /// Quality of the sampled batch against the exact replay.
    pub quality: f64,
    /// Windowed mean after pushing this sample (None while warming up).
    pub window: Option<f64>,
    /// FSM decision label (`"warmup"`, `"hold"`, `"step-exact"`,
    /// `"pinned-exact"`, `"probe-approx"`, or `"stale-mode"` for a
    /// batch that was served at a rung the selector has since left).
    pub decision: &'static str,
    /// The mode transition applied, if any.
    pub step: Option<ModeStep>,
}

/// A mode transition the governor applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeStep {
    /// Application stepped.
    pub app: ServeApp,
    /// Batch sequence number of the sample that triggered the step.
    pub seq: u64,
    /// Rung before.
    pub from: usize,
    /// Rung after.
    pub to: usize,
    /// `"slo-violation"` or `"probe-approx"`.
    pub reason: &'static str,
}

/// Where governor telemetry goes.
#[derive(Debug)]
pub enum GovernorSink {
    /// Drop events.
    Null,
    /// Keep events in memory (tests, the closed-loop harness).
    Memory(Vec<String>),
    /// Append JSONL lines to a file, flushed per event.
    File(std::io::BufWriter<std::fs::File>),
}

impl GovernorSink {
    fn emit(&mut self, line: String) {
        match self {
            GovernorSink::Null => {}
            GovernorSink::Memory(lines) => lines.push(line),
            GovernorSink::File(w) => {
                let _ = writeln!(w, "{line}");
                let _ = w.flush();
            }
        }
    }
}

/// Per-app FSM state.
#[derive(Debug)]
struct AppState {
    window: RollingWindow,
    /// Sampled observations since the last step (or start).
    since_step: usize,
    /// Current dwell requirement for probing (doubles when a probe gets
    /// reverted, decays back to `cfg.dwell` once a probe survives).
    probe_dwell: usize,
    /// The most recent step was a probe toward approximate.
    probe_pending: bool,
}

/// The closed-loop controller. One instance governs every app slot of
/// one registry; it is the only component that calls
/// [`ModeSelector::set_mode`](lac_core::ModeSelector::set_mode)
/// (enforced by a verify.sh grep guard).
#[derive(Debug)]
pub struct QualityGovernor {
    cfg: GovernorConfig,
    registry: Arc<Registry>,
    apps: Vec<AppState>,
    sink: GovernorSink,
}

impl QualityGovernor {
    /// A governor over `registry`, logging to `cfg.log` when set.
    pub fn new(cfg: GovernorConfig, registry: Arc<Registry>) -> std::io::Result<Self> {
        let sink = match &cfg.log {
            None => GovernorSink::Null,
            Some(path) => {
                if let Some(parent) = path.parent() {
                    if !parent.as_os_str().is_empty() {
                        std::fs::create_dir_all(parent)?;
                    }
                }
                GovernorSink::File(std::io::BufWriter::new(std::fs::File::create(path)?))
            }
        };
        Ok(Self::with_sink(cfg, registry, sink))
    }

    /// A governor with an explicit telemetry sink.
    pub fn with_sink(cfg: GovernorConfig, registry: Arc<Registry>, sink: GovernorSink) -> Self {
        let apps = ServeApp::ALL
            .iter()
            .map(|_| AppState {
                window: RollingWindow::new(cfg.window.max(1)),
                since_step: cfg.dwell, // allow an immediate first probe
                probe_dwell: cfg.dwell,
                probe_pending: false,
            })
            .collect();
        QualityGovernor { cfg, registry, apps, sink }
    }

    /// The configured knobs.
    pub fn config(&self) -> &GovernorConfig {
        &self.cfg
    }

    /// Telemetry lines captured so far (memory sink only).
    pub fn lines(&self) -> &[String] {
        match &self.sink {
            GovernorSink::Memory(lines) => lines,
            _ => &[],
        }
    }

    /// Score one sampled batch and run the FSM. Replays the batch
    /// through the model's exact reference datapath with `threads`
    /// workers (bit-identical for any value), emits a `sample` event,
    /// and — when the FSM steps — moves the registry's selector and
    /// emits a `step` event. Returns what was measured and decided.
    pub fn observe(&mut self, job: &GovernorJob, threads: usize) -> Result<Observation, String> {
        let exact = job.model.infer_reference(&job.samples, threads)?;
        let quality = quality_score(job.app, &job.outputs, &exact);
        // A batch dispatched before a step can land after it: its
        // quality describes the *old* rung and must not feed the new
        // rung's window (it would re-trigger the step that just fired).
        // Logged for the record, ignored by the FSM.
        if self.registry.selector(job.app).current() != job.mode {
            self.emit_sample(job, quality, None, "stale-mode");
            return Ok(Observation { quality, window: None, decision: "stale-mode", step: None });
        }
        let rungs = job.model.mode_count();
        let cfg_slo = self.cfg.slo;
        let cfg_margin = self.cfg.margin;
        let cfg_dwell = self.cfg.dwell;
        let state = &mut self.apps[job.app.code() as usize];

        state.since_step = state.since_step.saturating_add(1);
        state.window.push(quality);
        let windowed = state.window.full_mean();
        // A probe that survived a full (possibly backed-off) dwell at
        // the cheaper rung *while holding the SLO* is vindicated: decay
        // the dwell requirement. The SLO condition matters — without it
        // a probe would be "vindicated" by the very observation that
        // reveals the violation, and backoff would never engage.
        if state.probe_pending
            && state.since_step >= state.probe_dwell
            && windowed.is_some_and(|mean| mean >= cfg_slo)
        {
            state.probe_dwell = cfg_dwell;
            state.probe_pending = false;
        }
        let mut step: Option<(usize, &'static str)> = None;
        let decision = match windowed {
            None => "warmup",
            Some(mean) if mean < cfg_slo => {
                if job.mode > 0 {
                    step = Some((job.mode - 1, "slo-violation"));
                    if state.probe_pending {
                        // The probe failed: back off exponentially
                        // before probing again (oscillation guard).
                        state.probe_dwell = (state.probe_dwell * 2).min(cfg_dwell * 8);
                        state.probe_pending = false;
                    }
                    "step-exact"
                } else {
                    "pinned-exact"
                }
            }
            Some(mean)
                if mean >= cfg_slo + cfg_margin
                    && state.since_step >= state.probe_dwell
                    && job.mode + 1 < rungs =>
            {
                step = Some((job.mode + 1, "probe-approx"));
                state.probe_pending = true;
                "probe-approx"
            }
            Some(_) => "hold",
        };

        self.emit_sample(job, quality, windowed, decision);
        let mut applied = None;
        if let Some((to, reason)) = step {
            let state = &mut self.apps[job.app.code() as usize];
            state.window.clear();
            state.since_step = 0;
            self.registry.selector(job.app).set_mode(to);
            self.emit_step(job, to, reason);
            applied = Some(ModeStep { app: job.app, seq: job.seq, from: job.mode, to, reason });
        }
        Ok(Observation { quality, window: windowed, decision, step: applied })
    }

    fn emit_sample(&mut self, job: &GovernorJob, quality: f64, windowed: Option<f64>, decision: &str) {
        let line = Value::Obj(vec![
            ("event".into(), Value::Str("sample".into())),
            ("app".into(), Value::Str(job.app.cli_id().into())),
            ("seq".into(), Value::Num(job.seq as f64)),
            ("mode".into(), Value::Num(job.mode as f64)),
            ("spec".into(), Value::Str(job.model.mode_spec(job.mode).into())),
            ("quality".into(), Value::Num(quality)),
            ("window".into(), windowed.map(Value::Num).unwrap_or(Value::Null)),
            ("decision".into(), Value::Str(decision.into())),
        ])
        .to_json();
        self.sink.emit(line);
    }

    fn emit_step(&mut self, job: &GovernorJob, to: usize, reason: &str) {
        let line = Value::Obj(vec![
            ("event".into(), Value::Str("step".into())),
            ("app".into(), Value::Str(job.app.cli_id().into())),
            ("seq".into(), Value::Num(job.seq as f64)),
            ("from".into(), Value::Num(job.mode as f64)),
            ("to".into(), Value::Num(to as f64)),
            ("from_spec".into(), Value::Str(job.model.mode_spec(job.mode).into())),
            ("to_spec".into(), Value::Str(job.model.mode_spec(to).into())),
            ("area".into(), Value::Num(job.model.mode_area(to))),
            ("reason".into(), Value::Str(reason.into())),
            (
                "ladder".into(),
                Value::Str(job.model.ladder_fingerprint().unwrap_or("").into()),
            ),
        ])
        .to_json();
        self.sink.emit(line);
    }
}

/// Spawn the daemon's governor thread: jobs arrive over a channel from
/// the dispatcher; the thread exits when the sender drops. The loop
/// runs under a panic supervisor — a panicking observation (a torn
/// model invariant, say) bumps `restarts` and restarts the loop with
/// the governor state intact instead of silently losing quality
/// control for the rest of the process.
pub(crate) fn spawn(
    cfg: GovernorConfig,
    registry: Arc<Registry>,
    threads: usize,
    restarts: Arc<std::sync::atomic::AtomicU64>,
) -> std::io::Result<(mpsc::Sender<GovernorJob>, std::thread::JoinHandle<()>)> {
    let mut governor = QualityGovernor::new(cfg, registry)?;
    let (tx, rx) = mpsc::channel::<GovernorJob>();
    let handle = std::thread::spawn(move || {
        lac_rt::supervise::supervise(
            || {
                while let Ok(job) = rx.recv() {
                    // A replay failure only loses one telemetry sample;
                    // the batch itself was already answered.
                    let _ = governor.observe(&job, threads);
                }
            },
            |_msg| {
                restarts.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                true
            },
        );
    });
    Ok((tx, handle))
}

/// Configuration for [`run_closed_loop`]: a fully deterministic
/// traffic + fault schedule driven through a governed registry without
/// sockets or timers.
#[derive(Debug, Clone)]
pub struct ClosedLoopConfig {
    /// Application under test.
    pub app: ServeApp,
    /// The healthy mode ladder.
    pub ladder: ModeLadder,
    /// The "trained" rung's spec (models are untrained; only the
    /// datapath matters for the control loop).
    pub trained_spec: String,
    /// Transient bit-flip probability injected into every approximate
    /// rung during the fault window (`flip=` fault spec; rung 0 — the
    /// exact anchor — stays healthy).
    pub flip: f64,
    /// Seed of the injected fault model.
    pub fault_seed: u64,
    /// Batch sequence range `[start, end)` with the degraded model
    /// hot-swapped in.
    pub fault_window: (u64, u64),
    /// Total batches to drive.
    pub batches: u64,
    /// Samples per batch.
    pub batch_size: usize,
    /// Worker threads for inference and replay (must not affect the
    /// trace — the determinism pin runs {1, 2, 4}).
    pub threads: usize,
    /// Seed of the synthetic traffic.
    pub traffic_seed: u64,
    /// Governor knobs.
    pub governor: GovernorConfig,
}

/// What a closed-loop run did.
#[derive(Debug)]
pub struct ClosedLoopReport {
    /// Full JSONL telemetry (every sample and step).
    pub trace: Vec<String>,
    /// (batch seq, rung the batch ran at), one entry per batch.
    pub mode_timeline: Vec<(u64, usize)>,
    /// Rung in use on the last batch before the fault window.
    pub mode_before_fault: usize,
    /// Most-exact rung reached during the fault window.
    pub min_mode_during_fault: usize,
    /// Rung in use on the final batch.
    pub mode_at_end: usize,
    /// The rung the run settled on: most-used rung over the final
    /// quarter of the timeline (ties break toward exact). Robust
    /// against the run ending mid-probe.
    pub settled_mode: usize,
    /// Spec of the settled rung.
    pub settled_spec: String,
    /// Area of the settled rung.
    pub settled_area: f64,
    /// Area of the exact anchor (rung 0) — the "always exact" cost.
    pub exact_area: f64,
    /// Batches from fault clearance until the governor was back at the
    /// pre-fault rung (`None` if it never returned).
    pub recovery_batches: Option<u64>,
    /// Mean sampled quality at the settled rung over the final quarter
    /// of the run held the SLO (`false` when nothing was sampled there).
    pub holds_slo: bool,
    /// FNV-1a of the newline-joined trace (the determinism pin).
    pub trace_fingerprint: String,
}

/// Drive a governed registry through seeded traffic with a seeded
/// mid-run fault injection, entirely in-process and wall-clock free.
///
/// Each batch goes through the daemon's own forward step
/// (`server::forward`): resolve `(model, mode)`, infer, and package
/// sampled batches for the governor, with the batch index as the
/// sequence number. Faults arrive as a checkpoint hot-swap to a model
/// whose approximate rungs carry a `flip=` fault spec — exactly how a
/// degraded redeploy looks in production — and clear by swapping the
/// healthy model back, which also exercises swap/step position handoff
/// under live stepping.
pub fn run_closed_loop(cfg: &ClosedLoopConfig) -> Result<ClosedLoopReport, String> {
    let healthy = Arc::new(
        ServingModel::untrained(cfg.app, &cfg.trained_spec)
            .map_err(|e| e.to_string())?
            .with_ladder(&cfg.ladder)
            .map_err(|e| e.to_string())?,
    );
    // Degraded twin: same ladder shape, every approximate rung faulted.
    let fault_suffix = format!("!seed={},flip={}", cfg.fault_seed, cfg.flip);
    let faulty_specs: Vec<String> = cfg
        .ladder
        .specs()
        .iter()
        .enumerate()
        .map(|(i, s)| if i == 0 { s.to_string() } else { format!("{s}{fault_suffix}") })
        .collect();
    let faulty_ladder = ModeLadder::from_specs(cfg.ladder.kernel(), &faulty_specs)?;
    let trained_rung = cfg
        .ladder
        .position_of(&cfg.trained_spec)
        .ok_or_else(|| format!("trained spec `{}` not on the ladder", cfg.trained_spec))?;
    let faulty = Arc::new(
        ServingModel::untrained(cfg.app, &faulty_specs[trained_rung])
            .map_err(|e| e.to_string())?
            .with_ladder(&faulty_ladder)
            .map_err(|e| e.to_string())?,
    );

    let registry = Arc::new(Registry::new());
    registry.swap_shared(Arc::clone(&healthy));
    let mut governor = QualityGovernor::with_sink(
        cfg.governor.clone(),
        Arc::clone(&registry),
        GovernorSink::Memory(Vec::new()),
    );

    let pool = WorkerPool::new(cfg.threads);
    let (fault_start, fault_end) = cfg.fault_window;
    let mut mode_timeline = Vec::with_capacity(cfg.batches as usize);
    // (seq, mode, quality) for every sampled batch.
    let mut sampled: Vec<(u64, usize, f64)> = Vec::new();
    for seq in 0..cfg.batches {
        if seq == fault_start {
            registry.swap_shared(Arc::clone(&faulty));
        }
        if seq == fault_end {
            registry.swap_shared(Arc::clone(&healthy));
        }
        let mut samples = Vec::with_capacity(cfg.batch_size);
        for k in 0..cfg.batch_size {
            let n = seq * cfg.batch_size as u64 + k as u64;
            samples.push(cfg.app.decode(&crate::loadgen::payload(cfg.app, cfg.traffic_seed, n))?);
        }
        let fwd = forward(&registry, cfg.app, samples, &pool, Some((&cfg.governor, seq)))?;
        mode_timeline.push((seq, fwd.mode));
        if let Some(job) = fwd.job {
            let obs = governor.observe(&job, cfg.threads)?;
            sampled.push((seq, job.mode, obs.quality));
        }
    }

    let mode_before_fault = mode_timeline
        .iter()
        .rev()
        .find(|(seq, _)| *seq < fault_start)
        .map(|&(_, m)| m)
        .unwrap_or(trained_rung);
    let min_mode_during_fault = mode_timeline
        .iter()
        .filter(|(seq, _)| *seq >= fault_start && *seq < fault_end)
        .map(|&(_, m)| m)
        .min()
        .unwrap_or(mode_before_fault);
    let mode_at_end = mode_timeline.last().map(|&(_, m)| m).unwrap_or(trained_rung);
    let recovery_batches = mode_timeline
        .iter()
        .find(|(seq, m)| *seq >= fault_end && *m == mode_before_fault)
        .map(|&(seq, _)| seq - fault_end);

    // Settled mode: the rung most batches ran at over the final quarter
    // of the run (tie toward exact). The *final* batch might be
    // mid-probe; the modal rung is the steady state.
    let tail_start = mode_timeline.len() - mode_timeline.len() / 4;
    let mut counts = vec![0usize; healthy.mode_count()];
    for &(_, m) in &mode_timeline[tail_start..] {
        counts[m] += 1;
    }
    let settled_mode =
        counts.iter().enumerate().max_by_key(|&(i, c)| (c, std::cmp::Reverse(i))).map_or(0, |(i, _)| i);
    let tail_seq = mode_timeline.get(tail_start).map(|&(s, _)| s).unwrap_or(0);
    let settled_samples: Vec<f64> = sampled
        .iter()
        .filter(|&&(seq, m, _)| seq >= tail_seq && m == settled_mode)
        .map(|&(_, _, q)| q)
        .collect();
    let holds_slo = !settled_samples.is_empty()
        && settled_samples.iter().sum::<f64>() / settled_samples.len() as f64
            >= cfg.governor.slo;
    let trace: Vec<String> = governor.lines().to_vec();
    let trace_fingerprint = fnv1a_64_hex(trace.join("\n").as_bytes());

    Ok(ClosedLoopReport {
        trace,
        mode_timeline,
        mode_before_fault,
        min_mode_during_fault,
        mode_at_end,
        settled_mode,
        settled_spec: healthy.mode_spec(settled_mode).to_string(),
        settled_area: healthy.mode_area(settled_mode),
        exact_area: healthy.mode_area(0),
        recovery_batches,
        holds_slo,
        trace_fingerprint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_a_pure_function_with_the_right_rate() {
        let mut hits = 0u32;
        for seq in 0..4000 {
            let a = should_sample(42, ServeApp::Blur, seq, 0.25);
            let b = should_sample(42, ServeApp::Blur, seq, 0.25);
            assert_eq!(a, b, "decision must be reproducible");
            hits += a as u32;
        }
        let rate = f64::from(hits) / 4000.0;
        assert!((0.2..0.3).contains(&rate), "empirical rate {rate}");
        // Different seeds and apps decorrelate.
        let flips = (0..1000)
            .filter(|&s| {
                should_sample(1, ServeApp::Blur, s, 0.5) != should_sample(2, ServeApp::Blur, s, 0.5)
            })
            .count();
        assert!(flips > 100, "seed must matter, {flips} disagreements");
        assert!(should_sample(7, ServeApp::Edge, 3, 1.0));
        assert!(!should_sample(7, ServeApp::Edge, 3, 0.0));
    }

    #[test]
    fn quality_score_is_one_for_identical_outputs() {
        let img: Vec<f64> = (0..1024).map(|i| f64::from(i % 251)).collect();
        let q = quality_score(ServeApp::Blur, &[img.clone()], &[img.clone()]);
        assert!((q - 1.0).abs() < 1e-9, "identical images: {q}");
        let degraded: Vec<f64> = img.iter().map(|&p| (p + 14.0).min(255.0)).collect();
        let worse = quality_score(ServeApp::Blur, &[degraded], &[img]);
        assert!(worse < 1.0 && worse > 0.0, "shifted image: {worse}");

        let v = vec![1.0, 2.0];
        let q = quality_score(ServeApp::InverseK2j, &[v.clone()], &[v.clone()]);
        assert!((q - 1.0).abs() < 1e-12);
        let q = quality_score(ServeApp::InverseK2j, &[vec![1.1, 2.0]], &[vec![1.0, 2.0]]);
        assert!(q < 1.0 && q > 0.9, "10% error on one joint: {q}");
    }
}
