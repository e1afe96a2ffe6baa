//! Search baselines the paper compares NAS against (Figs. 10–12,
//! Table IV): brute-force per-candidate training, greedy stage-by-stage
//! search, and selection without any LAC training.

use std::sync::Arc;
use std::time::Instant;

use lac_apps::Kernel;
use lac_hw::Multiplier;
use lac_metrics::MetricDirection;
use lac_rt::rng::{SeedableRng, StdRng};

use crate::config::TrainConfig;
use crate::engine::{
    ConstraintSet, NullObserver, RunScope, TrainError, TrainObserver, TrainSession,
};
use crate::eval::{batch_outputs, batch_references, quality};
use crate::fixed::{train_fixed_observed, FixedResult};
use crate::nas::multi::{assignment_plan, fine_tune, mean_area, MultiNasResult, MultiObjective};

/// Outcome of brute-force per-candidate training.
#[derive(Debug, Clone)]
pub struct BruteForceResult {
    /// Per-candidate fixed-hardware results, in candidate order.
    pub results: Vec<FixedResult>,
    /// Index of the best candidate by post-training quality.
    pub best: usize,
    /// Total wall-clock seconds (the sum of all trainings).
    pub seconds: f64,
}

/// Brute-force trained-hardware search: train every candidate to
/// convergence with fixed-hardware LAC and pick the best post-training
/// quality — the exhaustive reference NAS is compared against.
///
/// # Panics
///
/// Panics if `candidates` is empty.
///
/// # Errors
///
/// Returns [`TrainError::Diverged`] if any candidate's training exhausts
/// its rollback budget — the exhaustive reference is only meaningful when
/// every candidate finished training.
pub fn brute_force<K: Kernel + Sync>(
    kernel: &K,
    candidates: &[Arc<dyn Multiplier>],
    train: &[K::Sample],
    test: &[K::Sample],
    config: &TrainConfig,
) -> Result<BruteForceResult, TrainError> {
    brute_force_observed(kernel, candidates, train, test, config, &mut NullObserver)
}

/// [`brute_force`] with per-epoch telemetry: each candidate's training
/// emits `"fixed"` events with the candidate's name as detail.
///
/// # Panics
///
/// Panics if `candidates` is empty.
///
/// # Errors
///
/// Returns [`TrainError::Diverged`] if any candidate's training exhausts
/// its rollback budget.
pub fn brute_force_observed<K: Kernel + Sync>(
    kernel: &K,
    candidates: &[Arc<dyn Multiplier>],
    train: &[K::Sample],
    test: &[K::Sample],
    config: &TrainConfig,
    observer: &mut dyn TrainObserver,
) -> Result<BruteForceResult, TrainError> {
    assert!(!candidates.is_empty(), "brute force needs at least one candidate");
    let start = Instant::now();
    let direction = kernel.metric().direction();
    let results: Vec<FixedResult> = candidates
        .iter()
        .map(|m| train_fixed_observed(kernel, m, train, test, config, observer))
        .collect::<Result<_, _>>()?;
    let best = argbest(results.iter().map(|r| r.after), direction);
    Ok(BruteForceResult { best, results, seconds: start.elapsed().as_secs_f64() })
}

/// Accuracy-constrained brute-force selection (Fig. 10): among candidates
/// whose *post-training* quality satisfies `target`, pick the smallest
/// area. Returns `None` when no candidate satisfies the target.
pub fn brute_force_min_area(
    results: &BruteForceResult,
    candidates: &[Arc<dyn Multiplier>],
    target: f64,
    direction: MetricDirection,
) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, r) in results.results.iter().enumerate() {
        let satisfies = !direction.is_better(target, r.after);
        if satisfies {
            let better = match best {
                None => true,
                Some(b) => candidates[i].metadata().area < candidates[b].metadata().area,
            };
            if better {
                best = Some(i);
            }
        }
    }
    best
}

/// Selection without LAC (Fig. 10's "no LAC" baseline): evaluate every
/// candidate with the *original* coefficients and pick the smallest area
/// whose untrained quality satisfies `target`. Returns `None` when no
/// candidate qualifies — the paper's observation that "a search without
/// LAC has a too scarce selection of multipliers with high accuracy".
pub fn no_lac_min_area<K: Kernel + Sync>(
    kernel: &K,
    candidates: &[Arc<dyn Multiplier>],
    test: &[K::Sample],
    target: f64,
    threads: usize,
) -> Option<(usize, f64)> {
    let refs = batch_references(kernel, test);
    let direction = kernel.metric().direction();
    let mut best: Option<(usize, f64)> = None;
    for (i, m) in candidates.iter().enumerate() {
        let mults = vec![Arc::clone(m); kernel.num_stages()];
        let coeffs = kernel.init_coeffs(&mults);
        let q = quality(kernel, &coeffs, &mults, test, &refs, threads);
        let satisfies = !direction.is_better(target, q);
        if satisfies {
            let better = match best {
                None => true,
                Some((b, _)) => m.metadata().area < candidates[b].metadata().area,
            };
            if better {
                best = Some((i, q));
            }
        }
    }
    best
}

/// Greedy stage-by-stage multi-hardware search (Section V-C): visit the
/// stages in a random order; at each stage, brute-force every candidate
/// (with a short coefficient-training run per option), keep the best under
/// `objective`, and freeze it before moving on.
///
/// `config.epochs` is the per-option training budget, so the total cost is
/// `stages × candidates × epochs` coefficient steps — the 17×-and-worse
/// runtimes of Table IV.
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub fn greedy_multi<K: Kernel + Sync>(
    kernel: &K,
    candidates: &[Arc<dyn Multiplier>],
    train: &[K::Sample],
    test: &[K::Sample],
    config: &TrainConfig,
    objective: MultiObjective,
) -> MultiNasResult {
    greedy_multi_observed(kernel, candidates, train, test, config, objective, &mut NullObserver)
}

/// [`greedy_multi`] with per-epoch telemetry: each per-option training
/// run emits `"greedy"` events whose detail names the stage under
/// consideration and the candidate being tried
/// (`"stage<idx>:<candidate>"`); the final polish emits `"fine-tune"`
/// events.
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub fn greedy_multi_observed<K: Kernel + Sync>(
    kernel: &K,
    candidates: &[Arc<dyn Multiplier>],
    train: &[K::Sample],
    test: &[K::Sample],
    config: &TrainConfig,
    objective: MultiObjective,
    observer: &mut dyn TrainObserver,
) -> MultiNasResult {
    assert!(!candidates.is_empty(), "greedy search needs at least one candidate");
    let start = Instant::now();
    let n_stages = kernel.num_stages();
    let threads = config.effective_threads();
    let metric = kernel.metric();
    let constraint: ConstraintSet = objective.into();
    let train_refs = batch_references(kernel, train);
    let test_refs = batch_references(kernel, test);

    // Random stage order, as in the paper.
    let mut order: Vec<usize> = (0..n_stages).collect();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x9eed_9eed);
    shuffle(&mut order, &mut rng);

    let rep: Vec<Arc<dyn Multiplier>> = vec![Arc::clone(&candidates[0]); n_stages];
    let mut coeffs = kernel.init_coeffs(&rep);
    let mut choices = vec![0usize; n_stages];
    let scope = RunScope { run: "greedy", detail: "", start };

    for &stage in &order {
        let mut best_choice = 0usize;
        let mut best_score = f64::INFINITY;
        let mut best_coeffs = coeffs.clone();
        for (c, unit) in candidates.iter().enumerate() {
            let mut trial = choices.clone();
            trial[stage] = c;
            let plan = assignment_plan(kernel, candidates, &trial);
            let mults = plan.materialize(n_stages);
            // Short per-option coefficient training from the current
            // state; greedy deploys the final iterate, not the best one.
            let mut session = TrainSession::new(coeffs.clone(), config.lr);
            let detail = format!("stage{stage}:{}", unit.name());
            // A diverged option is simply a bad candidate: the engine
            // already rolled the session back to its best finite
            // iterate, and scoring below rejects it on merit.
            let _ = session.run(
                kernel,
                &plan,
                train,
                &train_refs,
                config,
                threads,
                scope.with_detail(&detail),
                observer,
            );
            let trial_coeffs = session.into_coeffs();
            let outputs = batch_outputs(kernel, &trial_coeffs, &mults, train, threads);
            let q = metric.evaluate(&outputs, &train_refs);
            let area = mean_area(candidates, &trial);
            let score = constraint.score(metric, q, area);
            if score < best_score {
                best_score = score;
                best_choice = c;
                best_coeffs = trial_coeffs;
            }
        }
        choices[stage] = best_choice;
        coeffs = best_coeffs;
    }

    let final_plan = assignment_plan(kernel, candidates, &choices);
    let final_mults = final_plan.materialize(n_stages);
    // Final polish of the frozen assignment, as in the NAS flow.
    let coeffs = fine_tune(
        kernel,
        coeffs,
        &final_plan,
        train,
        &train_refs,
        config,
        threads,
        RunScope { run: "fine-tune", detail: "polish", start },
        observer,
    );
    let q = quality(kernel, &coeffs, &final_mults, test, &test_refs, threads);
    MultiNasResult {
        stage_names: kernel.stage_names(),
        candidates: candidates.iter().map(|m| m.name().to_owned()).collect(),
        choices: choices.clone(),
        gate_probabilities: Vec::new(),
        area: mean_area(candidates, &choices),
        quality: q,
        coeffs,
        seconds: start.elapsed().as_secs_f64(),
    }
}

fn argbest(scores: impl Iterator<Item = f64>, direction: MetricDirection) -> usize {
    let mut best = 0;
    let mut best_score = None;
    for (i, s) in scores.enumerate() {
        let better = match best_score {
            None => true,
            Some(b) => direction.is_better(s, b),
        };
        if better {
            best = i;
            best_score = Some(s);
        }
    }
    best
}

fn shuffle(items: &mut [usize], rng: &mut StdRng) {
    use lac_rt::rng::RngExt;
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_apps::{FilterApp, FilterKind, Metric, StageMode};
    use lac_data::{synth_image, GrayImage};
    use lac_hw::catalog;

    fn dataset() -> (Vec<GrayImage>, Vec<GrayImage>) {
        let train: Vec<GrayImage> = (0..5).map(|i| synth_image(32, 32, i)).collect();
        let test: Vec<GrayImage> = (70..73).map(|i| synth_image(32, 32, i)).collect();
        (train, test)
    }

    fn adapt(app: &FilterApp, names: &[&str]) -> Vec<Arc<dyn Multiplier>> {
        names.iter().map(|n| app.adapt(&catalog::by_name(n).unwrap())).collect()
    }

    #[test]
    fn brute_force_picks_the_best_trained_candidate() {
        let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
        let candidates = adapt(&app, &["mul8u_JV3", "DRUM16-6"]);
        let (train, test) = dataset();
        let cfg = TrainConfig::new().epochs(8).learning_rate(2.0).threads(4);
        let result = brute_force(&app, &candidates, &train, &test, &cfg).expect("brute force");
        assert_eq!(result.results.len(), 2);
        assert_eq!(result.best, 1, "DRUM16-6 must beat JV3 on blur");
        assert!(result.seconds > 0.0);
    }

    #[test]
    fn brute_force_min_area_respects_target() {
        let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
        let candidates = adapt(&app, &["mul8u_FTA", "DRUM16-6"]);
        let (train, test) = dataset();
        let cfg = TrainConfig::new().epochs(20).learning_rate(2.0).threads(4);
        let result = brute_force(&app, &candidates, &train, &test, &cfg).expect("brute force");
        // A loose target admits both: the cheaper FTA must win.
        let pick = brute_force_min_area(
            &result,
            &candidates,
            0.5,
            Metric::Ssim { width: 32, height: 32 }.direction(),
        );
        assert_eq!(pick, Some(0));
        // An impossible target admits nobody.
        let none = brute_force_min_area(
            &result,
            &candidates,
            1.1,
            Metric::Ssim { width: 32, height: 32 }.direction(),
        );
        assert_eq!(none, None);
    }

    #[test]
    fn no_lac_selection_uses_untrained_quality() {
        let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
        let candidates = adapt(&app, &["mul8u_JV3", "DRUM16-6"]);
        let (_, test) = dataset();
        // JV3 untrained is catastrophic; DRUM16-6 untrained is good.
        let pick = no_lac_min_area(&app, &candidates, &test, 0.9, 4);
        let (idx, q) = pick.expect("DRUM16-6 qualifies untrained");
        assert_eq!(idx, 1);
        assert!(q > 0.9);
        assert_eq!(no_lac_min_area(&app, &candidates, &test, 1.1, 4), None);
    }

    #[test]
    fn greedy_multi_produces_a_full_assignment() {
        let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::PerTap);
        let candidates = adapt(&app, &["mul8u_FTA", "DRUM16-4"]);
        let (train, test) = dataset();
        let cfg = TrainConfig::new().epochs(2).learning_rate(2.0).threads(4).seed(8);
        let result = greedy_multi(
            &app,
            &candidates,
            &train,
            &test,
            &cfg,
            MultiObjective::AreaConstrained { area_threshold: 1.0, gamma: 1.0, delta: 1.0 },
        );
        assert_eq!(result.choices.len(), 9);
        assert!(result.quality > 0.0);
        assert!(result.seconds > 0.0);
    }

    #[test]
    fn argbest_respects_direction() {
        let scores = [0.3, 0.9, 0.5];
        assert_eq!(argbest(scores.iter().copied(), MetricDirection::HigherIsBetter), 1);
        assert_eq!(argbest(scores.iter().copied(), MetricDirection::LowerIsBetter), 0);
    }
}
