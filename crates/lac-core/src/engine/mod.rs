//! The unified training engine behind every LAC trainer and search.
//!
//! The paper's contribution is *one* optimization idea — dual-branch
//! Adam training through STE quantization, optionally steered by
//! binarized gates (Eqs. 1–5) — so this crate implements the epoch loop
//! exactly once. A [`TrainSession`] owns the Adam state,
//! best-coefficient checkpointing, the deterministic minibatch rotation,
//! and early stopping; a [`HardwarePlan`] names the hardware-assignment
//! structure being trained against (uniform unit, per-stage, per-tap);
//! a [`ConstraintSet`] scores sampled assignments uniformly for every
//! constrained search; and a [`TrainObserver`] receives structured
//! per-epoch telemetry from all of it.
//!
//! [`train_fixed`], [`search_single`], [`search_accuracy_constrained`],
//! [`search_multi`], [`brute_force`], and [`greedy_multi`] are thin
//! drivers over these pieces — this module contains the **only**
//! `Adam::new` call site in `lac-core` (enforced by
//! `scripts/verify.sh`), so a new search variant is a new driver, not a
//! sixth copy of the loop.
//!
//! [`train_fixed`]: crate::train_fixed
//! [`search_single`]: crate::search_single
//! [`search_accuracy_constrained`]: crate::search_accuracy_constrained
//! [`search_multi`]: crate::search_multi
//! [`brute_force`]: crate::brute_force
//! [`greedy_multi`]: crate::greedy_multi

pub mod checkpoint;
pub mod observer;
pub mod plan;

use std::fmt;
use std::time::Instant;

use lac_apps::{Kernel, Metric};
use lac_tensor::{Adam, Tensor};

use crate::config::TrainConfig;
use crate::constraints::{accuracy_hinge, hinge_area};
use crate::eval::{batch_grads, batch_loss};
use crate::nas::multi::MultiObjective;

pub use checkpoint::SessionCheckpoint;
pub use observer::{
    EpochEvent, ErrorEvent, JsonlObserver, MemoryObserver, NullObserver, TrainObserver,
};
pub use plan::HardwarePlan;

/// A structured training failure.
///
/// The engine's epoch loop ([`TrainSession::run`]) never panics on bad
/// numerics: a non-finite loss or gradient rolls the session back to its
/// best-loss checkpoint (halving the learning rate) up to
/// [`TrainConfig::rollbacks`] times, and exhausting that budget returns
/// [`TrainError::Diverged`] instead of poisoning downstream results with
/// NaN. Checkpoint/resume I-O failures surface as
/// [`TrainError::Checkpoint`].
#[derive(Debug, Clone)]
pub enum TrainError {
    /// Training hit non-finite numerics and the rollback budget is spent.
    Diverged {
        /// The failing loop (see [`EpochEvent::run`]).
        run: String,
        /// Loop-specific context (see [`EpochEvent::detail`]).
        detail: String,
        /// Epoch index at which the final (unrecovered) failure occurred.
        epoch: usize,
        /// The offending batch loss (NaN/infinite, or finite with
        /// non-finite gradients).
        last_loss: f64,
        /// Losses of the epochs completed before the failure.
        history: Vec<f64>,
    },
    /// A session checkpoint could not be written, read, or decoded.
    Checkpoint {
        /// Path of the checkpoint file involved.
        path: String,
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Diverged { run, detail, epoch, last_loss, history } => write!(
                f,
                "training run `{run}` ({detail}) diverged at epoch {epoch} with loss \
                 {last_loss} after {} completed epochs; rollback budget exhausted",
                history.len()
            ),
            TrainError::Checkpoint { path, reason } => {
                write!(f, "session checkpoint `{path}`: {reason}")
            }
        }
    }
}

impl std::error::Error for TrainError {}

/// A scalar "loss" view of a quality score, used as the gate training
/// signal (lower is better): `1 - SSIM`, `-PSNR` (dB), `1 - accuracy`,
/// or the relative error itself.
pub fn metric_loss(metric: Metric, q: f64) -> f64 {
    match metric {
        Metric::Ssim { .. } | Metric::Accuracy => 1.0 - q,
        Metric::Psnr => -q,
        Metric::RelativeError => q,
    }
}

/// Uniform scoring of a (quality, area) pair for every constrained
/// search (lower is better).
///
/// The three arms cover the paper's objectives:
///
/// * [`ConstraintSet::QualityOnly`] — plain quality-driven search
///   (Fig. 7): the score is [`metric_loss`];
/// * [`ConstraintSet::AreaBudget`] — Eqs. 2–3: quality plus a hinged
///   mean-area excess with safety factor `gamma` and weight `delta`;
/// * [`ConstraintSet::QualityFloor`] — Eqs. 4–5: area plus a hinged
///   quality deficit with weight `delta`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConstraintSet {
    /// Quality-driven search: minimize [`metric_loss`].
    QualityOnly,
    /// Eqs. 2–3: maximize quality subject to a mean-area budget.
    AreaBudget {
        /// Mean-area budget `a_th`.
        area_threshold: f64,
        /// Hinge safety factor `γ`.
        gamma: f64,
        /// Hinge weight `δ`.
        delta: f64,
    },
    /// Eqs. 4–5: minimize mean area subject to a quality floor.
    QualityFloor {
        /// Quality target `l_target` in the kernel's metric.
        quality_target: f64,
        /// Hinge weight `δ`.
        delta: f64,
    },
}

impl ConstraintSet {
    /// Score an assignment with quality `q` and mean area `area` under
    /// the kernel's `metric` (lower is better).
    pub fn score(&self, metric: Metric, q: f64, area: f64) -> f64 {
        match *self {
            ConstraintSet::QualityOnly => metric_loss(metric, q),
            ConstraintSet::AreaBudget { area_threshold, gamma, delta } => {
                metric_loss(metric, q) + delta * hinge_area(area, area_threshold, gamma)
            }
            ConstraintSet::QualityFloor { quality_target, delta } => {
                area + delta * accuracy_hinge(q, quality_target, metric.direction())
            }
        }
    }
}

impl From<MultiObjective> for ConstraintSet {
    fn from(objective: MultiObjective) -> Self {
        match objective {
            MultiObjective::AreaConstrained { area_threshold, gamma, delta } => {
                ConstraintSet::AreaBudget { area_threshold, gamma, delta }
            }
            MultiObjective::AccuracyConstrained { quality_target, delta } => {
                ConstraintSet::QualityFloor { quality_target, delta }
            }
        }
    }
}

/// Telemetry context for a [`TrainSession::run`]: which loop is driving
/// the session, and when the enclosing entry point started (so events
/// report wall-clock seconds consistently across phases).
#[derive(Debug, Clone, Copy)]
pub struct RunScope<'a> {
    /// The emitting loop's name (see [`EpochEvent::run`]).
    pub run: &'a str,
    /// Loop-specific context (see [`EpochEvent::detail`]).
    pub detail: &'a str,
    /// Start of the enclosing entry point.
    pub start: Instant,
}

impl<'a> RunScope<'a> {
    /// A scope starting now.
    pub fn new(run: &'a str, detail: &'a str) -> Self {
        RunScope { run, detail, start: Instant::now() }
    }

    /// The same scope with a different detail label.
    pub fn with_detail(&self, detail: &'a str) -> Self {
        RunScope { run: self.run, detail, start: self.start }
    }
}

/// One coefficient-training session: the epoch loop shared by every
/// trainer and search in the crate.
///
/// A session owns the Adam optimizer state, the current coefficient
/// iterate, and the best-loss checkpoint. Loops drive it either one
/// [`step`] at a time (NAS path interleaving, per-epoch gate updates) or
/// with [`run`] (fixed training, fine-tuning), and read back whichever
/// iterate their semantics call for: [`best_coeffs`] for
/// checkpoint-keeping trainers, [`coeffs`] for loops that deploy the
/// final iterate.
///
/// [`step`]: TrainSession::step
/// [`run`]: TrainSession::run
/// [`best_coeffs`]: TrainSession::best_coeffs
/// [`coeffs`]: TrainSession::coeffs
#[derive(Debug, Clone)]
pub struct TrainSession {
    coeffs: Vec<Tensor>,
    best_loss: f64,
    best_coeffs: Vec<Tensor>,
    opt: Adam,
    steps: usize,
}

impl TrainSession {
    /// Start a session from `init` with Adam learning rate `lr`.
    ///
    /// This is the one place in `lac-core` that constructs an optimizer.
    pub fn new(init: Vec<Tensor>, lr: f64) -> Self {
        TrainSession {
            best_coeffs: init.clone(),
            coeffs: init,
            best_loss: f64::INFINITY,
            opt: Adam::new(lr),
            steps: 0,
        }
    }

    /// One optimizer epoch on the minibatch that `config`'s rotation
    /// assigns to this session's step counter; returns the batch loss.
    pub fn step<K: Kernel + Sync>(
        &mut self,
        kernel: &K,
        plan: &HardwarePlan,
        train: &[K::Sample],
        train_refs: &[Vec<f64>],
        config: &TrainConfig,
        threads: usize,
    ) -> f64 {
        let idx = config.step_indices(self.steps, train.len());
        let batch: Vec<K::Sample> = idx.iter().map(|&i| train[i].clone()).collect();
        let refs: Vec<Vec<f64>> = idx.iter().map(|&i| train_refs[i].clone()).collect();
        self.step_on(kernel, plan, &batch, &refs, threads)
    }

    /// One optimizer epoch on an explicit batch (for loops that reuse
    /// the batch for gate scoring); returns the batch loss.
    ///
    /// The loss is checkpointed *before* the optimizer update, so
    /// [`best_coeffs`](TrainSession::best_coeffs) is always the iterate
    /// that achieved [`best_loss`](TrainSession::best_loss).
    pub fn step_on<K: Kernel + Sync>(
        &mut self,
        kernel: &K,
        plan: &HardwarePlan,
        batch: &[K::Sample],
        refs: &[Vec<f64>],
        threads: usize,
    ) -> f64 {
        let mults = plan.materialize(kernel.num_stages());
        let (grads, loss) = batch_grads(kernel, &self.coeffs, &mults, batch, refs, threads);
        if loss < self.best_loss {
            self.best_loss = loss;
            self.best_coeffs = self.coeffs.clone();
        }
        let mut params: Vec<&mut Tensor> = self.coeffs.iter_mut().collect();
        self.opt.step(&mut params, &grads);
        self.steps += 1;
        loss
    }

    /// Like [`step`](TrainSession::step), but refusing to apply an
    /// update when the batch loss or any gradient element is non-finite:
    /// the session is left untouched (no optimizer step, no checkpoint,
    /// no step-counter advance) and the offending loss is returned as
    /// the error.
    pub fn try_step<K: Kernel + Sync>(
        &mut self,
        kernel: &K,
        plan: &HardwarePlan,
        train: &[K::Sample],
        train_refs: &[Vec<f64>],
        config: &TrainConfig,
        threads: usize,
    ) -> Result<f64, f64> {
        let idx = config.step_indices(self.steps, train.len());
        let batch: Vec<K::Sample> = idx.iter().map(|&i| train[i].clone()).collect();
        let refs: Vec<Vec<f64>> = idx.iter().map(|&i| train_refs[i].clone()).collect();
        self.try_step_on(kernel, plan, &batch, &refs, threads)
    }

    /// [`try_step`](TrainSession::try_step) on an explicit batch.
    ///
    /// On the healthy path this performs exactly the arithmetic of
    /// [`step_on`](TrainSession::step_on) — same checkpointing order,
    /// same optimizer update — so loops switching to the guarded variant
    /// keep bit-identical trajectories.
    pub fn try_step_on<K: Kernel + Sync>(
        &mut self,
        kernel: &K,
        plan: &HardwarePlan,
        batch: &[K::Sample],
        refs: &[Vec<f64>],
        threads: usize,
    ) -> Result<f64, f64> {
        let mults = plan.materialize(kernel.num_stages());
        let (grads, loss) = batch_grads(kernel, &self.coeffs, &mults, batch, refs, threads);
        let finite =
            loss.is_finite() && grads.iter().all(|g| g.data().iter().all(|v| v.is_finite()));
        if !finite {
            return Err(loss);
        }
        if loss < self.best_loss {
            self.best_loss = loss;
            self.best_coeffs = self.coeffs.clone();
        }
        let mut params: Vec<&mut Tensor> = self.coeffs.iter_mut().collect();
        self.opt.step(&mut params, &grads);
        self.steps += 1;
        Ok(loss)
    }

    /// Divergence recovery: restore the best-loss checkpoint, discard
    /// the optimizer's momentum (it points into the diverged region),
    /// halve the learning rate, and advance the step counter by one so
    /// the retry sees the *next* minibatch window — a single batch of
    /// poisoned data must not wedge the run in a permanent retry loop.
    pub fn rollback(&mut self) {
        self.coeffs = self.best_coeffs.clone();
        self.opt.reset_moments();
        let lr = (self.opt.learning_rate() / 2.0).max(f64::MIN_POSITIVE);
        self.opt.set_learning_rate(lr);
        self.steps += 1;
    }

    /// Run `config.epochs` epochs (honoring `config.patience` early
    /// stopping), emitting one [`EpochEvent`] per epoch; returns the
    /// loss history.
    ///
    /// Non-finite losses or gradients trigger checkpoint rollback (see
    /// [`rollback`](TrainSession::rollback)); observers see the attempt
    /// as an [`EpochEvent`] with `rollback: true`, and the epoch is
    /// retried. After [`TrainConfig::rollbacks`] recoveries the run
    /// gives up with [`TrainError::Diverged`] (the session still holds
    /// its best checkpoint). Healthy runs perform bit-identical
    /// arithmetic to the pre-guard engine.
    #[allow(clippy::too_many_arguments)]
    pub fn run<K: Kernel + Sync>(
        &mut self,
        kernel: &K,
        plan: &HardwarePlan,
        train: &[K::Sample],
        train_refs: &[Vec<f64>],
        config: &TrainConfig,
        threads: usize,
        scope: RunScope<'_>,
        observer: &mut dyn TrainObserver,
    ) -> Result<Vec<f64>, TrainError> {
        let mut history = Vec::with_capacity(config.epochs);
        let mut stale = 0usize;
        let mut rollbacks_left = config.rollbacks;
        self.run_span(
            kernel,
            plan,
            train,
            train_refs,
            config,
            threads,
            scope,
            observer,
            config.epochs,
            &mut stale,
            &mut rollbacks_left,
            &mut history,
        )?;
        Ok(history)
    }

    /// The resumable core of [`run`](TrainSession::run): advance the
    /// session from epoch `history.len()` up to (exclusive) `to_epoch`,
    /// threading the early-stop counter, rollback budget, and loss
    /// history through `&mut` so a checkpoint/resume driver can train in
    /// bounded spans. Returns `Ok(true)` when patience stopped the run.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_span<K: Kernel + Sync>(
        &mut self,
        kernel: &K,
        plan: &HardwarePlan,
        train: &[K::Sample],
        train_refs: &[Vec<f64>],
        config: &TrainConfig,
        threads: usize,
        scope: RunScope<'_>,
        observer: &mut dyn TrainObserver,
        to_epoch: usize,
        stale: &mut usize,
        rollbacks_left: &mut usize,
        history: &mut Vec<f64>,
    ) -> Result<bool, TrainError> {
        let mut epoch = history.len();
        while epoch < to_epoch {
            let best_before = self.best_loss;
            match self.try_step(kernel, plan, train, train_refs, config, threads) {
                Ok(loss) => {
                    history.push(loss);
                    observer.on_epoch(&EpochEvent {
                        run: scope.run,
                        detail: scope.detail,
                        epoch,
                        loss: Some(loss),
                        area: Some(plan.mean_area()),
                        delay: plan.mean_delay(),
                        seconds: scope.start.elapsed().as_secs_f64(),
                        ..Default::default()
                    });
                    if let Some(patience) = config.patience {
                        if self.best_loss < best_before {
                            *stale = 0;
                        } else {
                            *stale += 1;
                            if *stale >= patience {
                                return Ok(true);
                            }
                        }
                    }
                    epoch += 1;
                }
                Err(bad_loss) => {
                    if *rollbacks_left == 0 {
                        let error = format!(
                            "diverged at epoch {epoch}: non-finite loss or gradients \
                             (loss {bad_loss}); rollback budget of {} exhausted",
                            config.rollbacks
                        );
                        observer.on_error(&ErrorEvent {
                            run: scope.run,
                            detail: scope.detail,
                            error: &error,
                            seconds: scope.start.elapsed().as_secs_f64(),
                        });
                        return Err(TrainError::Diverged {
                            run: scope.run.to_owned(),
                            detail: scope.detail.to_owned(),
                            epoch,
                            last_loss: bad_loss,
                            history: history.clone(),
                        });
                    }
                    *rollbacks_left -= 1;
                    self.rollback();
                    observer.on_epoch(&EpochEvent {
                        run: scope.run,
                        detail: scope.detail,
                        epoch,
                        rollback: true,
                        loss: Some(bad_loss),
                        area: Some(plan.mean_area()),
                        delay: plan.mean_delay(),
                        seconds: scope.start.elapsed().as_secs_f64(),
                        ..Default::default()
                    });
                    // Retry the same epoch index on the next window.
                }
            }
        }
        Ok(false)
    }

    /// Score the *current* iterate on an explicit (usually full) batch
    /// and adopt it as the checkpoint if it beats the best loss — the
    /// "the last step may be the best" check of fixed-hardware training.
    pub fn consider_final<K: Kernel + Sync>(
        &mut self,
        kernel: &K,
        plan: &HardwarePlan,
        samples: &[K::Sample],
        references: &[Vec<f64>],
        threads: usize,
    ) {
        let mults = plan.materialize(kernel.num_stages());
        let loss = batch_loss(kernel, &self.coeffs, &mults, samples, references, threads);
        if loss < self.best_loss {
            self.best_loss = loss;
            self.best_coeffs = self.coeffs.clone();
        }
    }

    /// The current coefficient iterate.
    pub fn coeffs(&self) -> &[Tensor] {
        &self.coeffs
    }

    /// The best-loss checkpoint (the initial coefficients until the
    /// first step).
    pub fn best_coeffs(&self) -> &[Tensor] {
        &self.best_coeffs
    }

    /// The lowest batch loss seen so far.
    pub fn best_loss(&self) -> f64 {
        self.best_loss
    }

    /// The optimizer's current learning rate (halved by each
    /// [`rollback`](TrainSession::rollback)).
    pub fn learning_rate(&self) -> f64 {
        self.opt.learning_rate()
    }

    /// Completed optimizer steps.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Consume the session, returning the best-loss checkpoint.
    pub fn into_best(self) -> Vec<Tensor> {
        self.best_coeffs
    }

    /// Consume the session, returning the final iterate.
    pub fn into_coeffs(self) -> Vec<Tensor> {
        self.coeffs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use lac_apps::{FilterApp, FilterKind, StageMode};
    use lac_data::{synth_image, GrayImage};
    use lac_hw::{catalog, Multiplier};

    use crate::eval::batch_references;

    fn setup() -> (FilterApp, Arc<dyn Multiplier>, Vec<GrayImage>) {
        let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
        let mult = app.adapt(&catalog::by_name("mul8u_FTA").unwrap());
        let samples: Vec<GrayImage> = (0..4).map(|i| synth_image(32, 32, i)).collect();
        (app, mult, samples)
    }

    #[test]
    fn session_checkpoints_best_loss_iterate() {
        let (app, mult, samples) = setup();
        let plan = HardwarePlan::uniform(&mult);
        let init = app.init_coeffs(&plan.materialize(1));
        let refs = batch_references(&app, &samples);
        let cfg = TrainConfig::new().learning_rate(2.0);
        let mut session = TrainSession::new(init.clone(), cfg.lr);
        assert_eq!(session.best_loss(), f64::INFINITY);
        let first = session.step(&app, &plan, &samples, &refs, &cfg, 2);
        assert_eq!(session.steps(), 1);
        assert_eq!(session.best_loss(), first);
        for _ in 0..5 {
            session.step(&app, &plan, &samples, &refs, &cfg, 2);
        }
        assert!(session.best_loss() <= first);
        // The checkpoint differs from the moving iterate in general; it
        // must reproduce the best loss exactly.
        let mults = plan.materialize(1);
        let check = batch_loss(&app, session.best_coeffs(), &mults, &samples, &refs, 2);
        assert_eq!(check.to_bits(), session.best_loss().to_bits());
    }

    #[test]
    fn run_matches_manual_stepping_bit_for_bit() {
        let (app, mult, samples) = setup();
        let plan = HardwarePlan::uniform(&mult);
        let init = app.init_coeffs(&plan.materialize(1));
        let refs = batch_references(&app, &samples);
        let cfg = TrainConfig::new().epochs(6).learning_rate(2.0).minibatch(2);

        let mut manual = TrainSession::new(init.clone(), cfg.lr);
        let mut manual_history = Vec::new();
        for _ in 0..cfg.epochs {
            manual_history.push(manual.step(&app, &plan, &samples, &refs, &cfg, 2));
        }

        let mut driven = TrainSession::new(init, cfg.lr);
        let mut obs = MemoryObserver::new();
        let history = driven
            .run(&app, &plan, &samples, &refs, &cfg, 2, RunScope::new("test", "unit"), &mut obs)
            .expect("healthy run");
        assert_eq!(history.len(), manual_history.len());
        for (a, b) in history.iter().zip(&manual_history) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(obs.len(), cfg.epochs);
        for (c, d) in driven.coeffs().iter().zip(manual.coeffs()) {
            for (x, y) in c.data().iter().zip(d.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn patience_stops_stale_sessions_early() {
        let (app, mult, samples) = setup();
        // Exact hardware: the loss is 0 from step one and never improves,
        // so a patient session must stop after `patience` stale epochs.
        let exact = app.adapt(&catalog::by_name("exact16u").unwrap());
        let plan = HardwarePlan::uniform(&exact);
        let init = app.init_coeffs(&plan.materialize(1));
        let refs = batch_references(&app, &samples);
        let cfg = TrainConfig::new().epochs(50).patience(3);
        let mut session = TrainSession::new(init, cfg.lr);
        let mut obs = MemoryObserver::new();
        let history = session
            .run(&app, &plan, &samples, &refs, &cfg, 2, RunScope::new("test", "patience"), &mut obs)
            .expect("healthy run");
        // Epoch 0 improves (inf -> 0), then 3 stale epochs.
        assert_eq!(history.len(), 4, "history {history:?}");
        assert_eq!(obs.len(), 4);
        let _ = mult;
    }

    #[test]
    fn poisoned_references_roll_back_then_diverge() {
        let (app, mult, samples) = setup();
        let plan = HardwarePlan::uniform(&mult);
        let init = app.init_coeffs(&plan.materialize(1));
        // Every reference is NaN: the loss is NaN on every window, so
        // each retry burns one rollback until the budget is gone.
        let refs: Vec<Vec<f64>> =
            samples.iter().map(|_| vec![f64::NAN; 32 * 32]).collect();
        let cfg = TrainConfig::new().epochs(10).rollbacks(2);
        let mut session = TrainSession::new(init.clone(), cfg.lr);
        let mut obs = MemoryObserver::new();
        let err = session
            .run(&app, &plan, &samples, &refs, &cfg, 2, RunScope::new("test", "nan"), &mut obs)
            .expect_err("all-NaN references must diverge");
        match &err {
            TrainError::Diverged { run, epoch, last_loss, history, .. } => {
                assert_eq!(run, "test");
                assert_eq!(*epoch, 0, "no epoch can complete");
                assert!(last_loss.is_nan());
                assert!(history.is_empty());
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
        // 2 rollback events + 1 error row.
        assert_eq!(obs.len(), 3, "{:?}", obs.lines);
        assert!(obs.lines[0].contains("\"rollback\":true"), "{}", obs.lines[0]);
        assert!(obs.lines[1].contains("\"rollback\":true"), "{}", obs.lines[1]);
        assert!(obs.lines[2].contains("\"error\""), "{}", obs.lines[2]);
        // The session never adopted a NaN iterate: coefficients are the
        // rolled-back initial values, bit for bit.
        for (c, i) in session.coeffs().iter().zip(&init) {
            for (x, y) in c.data().iter().zip(i.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn rollback_restores_best_iterate_and_halves_lr() {
        let (app, mult, samples) = setup();
        let plan = HardwarePlan::uniform(&mult);
        let init = app.init_coeffs(&plan.materialize(1));
        let refs = batch_references(&app, &samples);
        let cfg = TrainConfig::new().learning_rate(2.0);
        let mut session = TrainSession::new(init, cfg.lr);
        for _ in 0..5 {
            session.step(&app, &plan, &samples, &refs, &cfg, 2);
        }
        let best: Vec<Vec<u64>> = session
            .best_coeffs()
            .iter()
            .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
            .collect();
        let steps_before = session.steps();
        session.rollback();
        assert_eq!(session.learning_rate(), 1.0, "lr must halve");
        assert_eq!(session.steps(), steps_before + 1, "skip the bad window");
        for (c, b) in session.coeffs().iter().zip(&best) {
            for (x, y) in c.data().iter().zip(b) {
                assert_eq!(x.to_bits(), *y, "rollback must restore best bits");
            }
        }
    }

    #[test]
    fn single_poisoned_window_recovers_within_budget() {
        let (app, mult, samples) = setup();
        let plan = HardwarePlan::uniform(&mult);
        let init = app.init_coeffs(&plan.materialize(1));
        let mut refs = batch_references(&app, &samples);
        // One bad sample out of four; minibatch 1 isolates it to one
        // window per rotation cycle.
        for v in refs[1].iter_mut() {
            *v = f64::NAN;
        }
        let cfg = TrainConfig::new().epochs(6).minibatch(1).rollbacks(3);
        let mut session = TrainSession::new(init, cfg.lr);
        let mut obs = MemoryObserver::new();
        let history = session
            .run(&app, &plan, &samples, &refs, &cfg, 2, RunScope::new("test", "poison"), &mut obs)
            .expect("a single poisoned window must be recoverable");
        assert_eq!(history.len(), 6, "all epochs completed");
        assert!(history.iter().all(|l| l.is_finite()));
        let rollbacks =
            obs.lines.iter().filter(|l| l.contains("\"rollback\":true")).count();
        assert!(rollbacks >= 1, "the poisoned window must have been hit");
        assert!(session.best_loss().is_finite());
    }

    #[test]
    fn try_step_leaves_session_untouched_on_failure() {
        let (app, mult, samples) = setup();
        let plan = HardwarePlan::uniform(&mult);
        let init = app.init_coeffs(&plan.materialize(1));
        let refs: Vec<Vec<f64>> =
            samples.iter().map(|_| vec![f64::NAN; 32 * 32]).collect();
        let cfg = TrainConfig::new();
        let mut session = TrainSession::new(init.clone(), cfg.lr);
        let bad = session
            .try_step(&app, &plan, &samples, &refs, &cfg, 2)
            .expect_err("NaN refs cannot produce a finite loss");
        assert!(bad.is_nan());
        assert_eq!(session.steps(), 0);
        assert_eq!(session.best_loss(), f64::INFINITY);
        for (c, i) in session.coeffs().iter().zip(&init) {
            for (x, y) in c.data().iter().zip(i.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn train_error_displays_context() {
        let e = TrainError::Diverged {
            run: "fixed".into(),
            detail: "mul8u_FTA".into(),
            epoch: 7,
            last_loss: f64::NAN,
            history: vec![0.5, 0.4],
        };
        let msg = format!("{e}");
        assert!(msg.contains("fixed") && msg.contains("epoch 7") && msg.contains("2"), "{msg}");
        let c = TrainError::Checkpoint { path: "x.json".into(), reason: "truncated".into() };
        assert!(format!("{c}").contains("x.json"));
    }

    #[test]
    fn constraint_set_scores_match_the_paper_objectives() {
        let metric = Metric::Ssim { width: 32, height: 32 };
        let q = 0.8;
        let area = 0.6;
        assert!(
            (ConstraintSet::QualityOnly.score(metric, q, area) - metric_loss(metric, q)).abs()
                < 1e-15
        );
        let budget =
            ConstraintSet::AreaBudget { area_threshold: 0.5, gamma: 1.0, delta: 2.0 };
        let expect = metric_loss(metric, q) + 2.0 * hinge_area(area, 0.5, 1.0);
        assert_eq!(budget.score(metric, q, area).to_bits(), expect.to_bits());
        let floor = ConstraintSet::QualityFloor { quality_target: 0.9, delta: 10.0 };
        let expect = area + 10.0 * accuracy_hinge(q, 0.9, metric.direction());
        assert_eq!(floor.score(metric, q, area).to_bits(), expect.to_bits());
    }

    #[test]
    fn constraint_set_converts_from_multi_objective() {
        let a: ConstraintSet =
            MultiObjective::AreaConstrained { area_threshold: 0.3, gamma: 0.9, delta: 1.0 }
                .into();
        assert_eq!(
            a,
            ConstraintSet::AreaBudget { area_threshold: 0.3, gamma: 0.9, delta: 1.0 }
        );
        let b: ConstraintSet =
            MultiObjective::AccuracyConstrained { quality_target: 0.7, delta: 5.0 }.into();
        assert_eq!(b, ConstraintSet::QualityFloor { quality_target: 0.7, delta: 5.0 });
    }

    #[test]
    fn metric_loss_directions() {
        assert!((metric_loss(Metric::Ssim { width: 1, height: 1 }, 0.9) - 0.1).abs() < 1e-12);
        assert_eq!(metric_loss(Metric::Psnr, 40.0), -40.0);
        assert_eq!(metric_loss(Metric::RelativeError, 0.3), 0.3);
    }
}
