//! Ablation cells for the design choices called out in `DESIGN.md` §7:
//!
//! 1. **Adam vs SGD vs random search** — the paper migrated from a Matlab
//!    surrogate solver to Adam (Section III-D); random integer search
//!    stands in for a gradient-free optimizer at equal step budget.
//! 2. **Two-path vs single-path NAS** — Section IV argues two-path
//!    sampling "improves application training, which allows NAS results to
//!    reach brute-force search results".
//!
//! Each variant is one sweep cell: the `ablations` binary declares
//! [`crate::sched::UnitJob::Ablation`] jobs and the scheduler executes
//! [`run_ablation`]. All variants run on Gaussian blur with the ETM8-k4
//! unit (optimizer ablations) or the full catalog (NAS ablations).

use std::sync::Arc;

use lac_apps::{FilterApp, FilterKind, Kernel, StageMode};
use lac_core::{
    batch_grads, batch_outputs, batch_references, quality, search_single_observed,
    train_fixed_observed, BinaryGate, TrainObserver,
};
use lac_hw::Multiplier;
use lac_rt::rng::{RngExt, SeedableRng, StdRng};
use lac_tensor::{Sgd, Tensor};

use crate::driver::AppId;
use crate::adapted_catalog;

/// The ablated variants, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AblationVariant {
    /// The paper's optimizer (baseline of ablation 1).
    Adam,
    /// SGD at the same step budget.
    Sgd,
    /// Random integer search at the same evaluation budget.
    RandomSearch,
    /// The paper's two-path gate sampling (baseline of ablation 2).
    TwoPathNas,
    /// Single-path score-function gate sampling.
    SinglePathNas,
}

impl AblationVariant {
    /// All variants in report order.
    pub fn all() -> [AblationVariant; 5] {
        [
            AblationVariant::Adam,
            AblationVariant::Sgd,
            AblationVariant::RandomSearch,
            AblationVariant::TwoPathNas,
            AblationVariant::SinglePathNas,
        ]
    }

    /// Stable token for job keys and sweep details.
    pub fn token(self) -> &'static str {
        match self {
            AblationVariant::Adam => "adam",
            AblationVariant::Sgd => "sgd",
            AblationVariant::RandomSearch => "random-search",
            AblationVariant::TwoPathNas => "two-path",
            AblationVariant::SinglePathNas => "single-path",
        }
    }

    /// Which ablation group the variant belongs to (report column 1).
    pub fn group(self) -> &'static str {
        match self {
            AblationVariant::Adam | AblationVariant::Sgd | AblationVariant::RandomSearch => {
                "optimizer"
            }
            AblationVariant::TwoPathNas | AblationVariant::SinglePathNas => "nas-sampling",
        }
    }
}

/// One ablation cell's outcome: the achieved quality plus a
/// variant-specific annotation (baseline quality, chosen unit).
#[derive(Debug, Clone)]
pub struct AblationOutcome {
    /// Post-training/search test quality.
    pub quality: f64,
    /// Report annotation (e.g. `before 0.9123` or `chose mul8u_FTA`).
    pub note: String,
}

/// Execute one ablation variant as a sweep cell.
///
/// # Panics
///
/// Panics if the Adam baseline training diverges (the ablation is
/// meaningless without its baseline) — the scheduler turns this into a
/// structured error row.
pub fn run_ablation(
    variant: AblationVariant,
    threads: usize,
    obs: &mut dyn TrainObserver,
) -> AblationOutcome {
    let (sizing, lr) = AppId::Blur.sizing();
    let cfg = sizing.config(lr).threads(threads);
    let data = sizing.image_dataset();
    let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
    match variant {
        AblationVariant::Adam => {
            let mult = etm_unit(&app);
            let adam = train_fixed_observed(&app, &mult, &data.train, &data.test, &cfg, obs)
                .expect("adam ablation diverged");
            AblationOutcome {
                quality: adam.after,
                note: format!("before {:.4}", adam.before),
            }
        }
        AblationVariant::Sgd => AblationOutcome {
            quality: train_sgd(&app, &etm_unit(&app), &data, &cfg),
            note: "same step budget".into(),
        },
        AblationVariant::RandomSearch => AblationOutcome {
            quality: random_search(&app, &etm_unit(&app), &data, cfg.epochs),
            note: "surrogate-solver stand-in".into(),
        },
        AblationVariant::TwoPathNas => {
            let candidates = adapted_catalog(&app);
            let two = search_single_observed(
                &app,
                &candidates,
                &data.train,
                &data.test,
                &cfg,
                2.0,
                obs,
            );
            AblationOutcome {
                quality: two.quality,
                note: format!("chose {}", two.chosen_name()),
            }
        }
        AblationVariant::SinglePathNas => {
            let candidates = adapted_catalog(&app);
            let (chosen, q) = single_path_nas(&app, &candidates, &data, &cfg);
            AblationOutcome { quality: q, note: format!("chose {chosen}") }
        }
    }
}

/// The fixed unit the optimizer ablations run on.
fn etm_unit(app: &FilterApp) -> Arc<dyn Multiplier> {
    app.adapt(&lac_hw::catalog::by_name("ETM8-k4").unwrap())
}

/// Fixed-hardware training with SGD in place of Adam.
fn train_sgd(
    app: &FilterApp,
    mult: &Arc<dyn Multiplier>,
    data: &lac_data::ImageDataset,
    cfg: &lac_core::TrainConfig,
) -> f64 {
    let mults = vec![Arc::clone(mult)];
    let train_refs = batch_references(app, &data.train);
    let test_refs = batch_references(app, &data.test);
    let threads = cfg.effective_threads();
    let mut coeffs = app.init_coeffs(&mults);
    // SGD needs a much smaller step: gradients carry the image scale.
    let mut opt = Sgd::new(cfg.lr * 1e-5);
    let mut best = (f64::INFINITY, coeffs.clone());
    for step in 0..cfg.epochs {
        let idx = cfg.step_indices(step, data.train.len());
        let batch: Vec<_> = idx.iter().map(|&i| data.train[i].clone()).collect();
        let refs: Vec<_> = idx.iter().map(|&i| train_refs[i].clone()).collect();
        let (grads, loss) = batch_grads(app, &coeffs, &mults, &batch, &refs, threads);
        if loss < best.0 {
            best = (loss, coeffs.clone());
        }
        let mut params: Vec<&mut Tensor> = coeffs.iter_mut().collect();
        opt.step(&mut params, &grads);
    }
    let q_trained = quality(app, &best.1, &mults, &data.test, &test_refs, threads);
    let q_init = quality(app, &app.init_coeffs(&mults), &mults, &data.test, &test_refs, threads);
    q_trained.max(q_init)
}

/// Random integer search at the same evaluation budget.
fn random_search(
    app: &FilterApp,
    mult: &Arc<dyn Multiplier>,
    data: &lac_data::ImageDataset,
    budget: usize,
) -> f64 {
    let mults = vec![Arc::clone(mult)];
    let train_refs = batch_references(app, &data.train);
    let test_refs = batch_references(app, &data.test);
    let bounds = app.coeff_bounds(&mults);
    let mut rng = StdRng::seed_from_u64(crate::seed());
    let metric = app.metric();
    let mut best_q = f64::NEG_INFINITY;
    let mut best: Vec<Tensor> = app.init_coeffs(&mults);
    for _ in 0..budget {
        let cand: Vec<Tensor> = bounds
            .iter()
            .map(|&(lo, hi)| Tensor::scalar(rng.random_range(lo..=hi).round()))
            .collect();
        let outputs = batch_outputs(app, &cand, &mults, &data.train, 0);
        let q = metric.evaluate(&outputs, &train_refs);
        if q > best_q {
            best_q = q;
            best = cand;
        }
    }
    let q_trained = quality(app, &best, &mults, &data.test, &test_refs, 0);
    let q_init = quality(app, &app.init_coeffs(&mults), &mults, &data.test, &test_refs, 0);
    q_trained.max(q_init)
}

/// A single-path NAS variant: one sampled path per iteration, gate updated
/// with the score-function rule (the ablated alternative to the paper's
/// two-path scheme).
fn single_path_nas(
    app: &FilterApp,
    candidates: &[Arc<dyn Multiplier>],
    data: &lac_data::ImageDataset,
    cfg: &lac_core::TrainConfig,
) -> (String, f64) {
    use lac_tensor::Adam;
    let threads = cfg.effective_threads();
    let train_refs = batch_references(app, &data.train);
    let test_refs = batch_references(app, &data.test);
    let metric = app.metric();

    struct P {
        mult: Arc<dyn Multiplier>,
        coeffs: Vec<Tensor>,
        best: (f64, Vec<Tensor>),
        opt: Adam,
        steps: usize,
    }
    let mut paths: Vec<P> = candidates
        .iter()
        .map(|m| {
            let init = app.init_coeffs(std::slice::from_ref(m));
            P {
                mult: Arc::clone(m),
                coeffs: init.clone(),
                best: (f64::INFINITY, init),
                opt: Adam::new(cfg.lr),
                steps: 0,
            }
        })
        .collect();
    let mut gate = BinaryGate::new(candidates.len(), 2.0);
    let mut rng = StdRng::seed_from_u64(crate::seed() ^ 0xab1a);

    for _ in 0..cfg.epochs {
        let i = gate.sample_one(&mut rng);
        let p = &mut paths[i];
        let idx = cfg.step_indices(p.steps, data.train.len());
        let batch: Vec<_> = idx.iter().map(|&k| data.train[k].clone()).collect();
        let refs: Vec<_> = idx.iter().map(|&k| train_refs[k].clone()).collect();
        let mults = vec![Arc::clone(&p.mult)];
        let (grads, loss) = batch_grads(app, &p.coeffs, &mults, &batch, &refs, threads);
        if loss < p.best.0 {
            p.best = (loss, p.coeffs.clone());
        }
        let mut params: Vec<&mut Tensor> = p.coeffs.iter_mut().collect();
        p.opt.step(&mut params, &grads);
        p.steps += 1;
        let outputs = batch_outputs(app, &p.best.1, &mults, &batch, threads);
        let q = metric.evaluate(&outputs, &refs);
        gate.update_single_path(i, lac_core::metric_loss(metric, q));
    }
    let chosen = gate.best();
    let p = &paths[chosen];
    let mults = vec![Arc::clone(&p.mult)];
    let q = quality(app, &p.best.1, &mults, &data.test, &test_refs, threads);
    let q_init = quality(app, &app.init_coeffs(&mults), &mults, &data.test, &test_refs, threads);
    (p.mult.name().to_owned(), q.max(q_init))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_enumerate_with_stable_tokens() {
        let tokens: Vec<&str> = AblationVariant::all().iter().map(|v| v.token()).collect();
        assert_eq!(tokens, ["adam", "sgd", "random-search", "two-path", "single-path"]);
        assert_eq!(AblationVariant::Adam.group(), "optimizer");
        assert_eq!(AblationVariant::SinglePathNas.group(), "nas-sampling");
    }
}
