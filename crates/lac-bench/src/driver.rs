//! Uniform cell-level drivers over the six paper applications.
//!
//! The applications have two sample types (images and inverse-kinematics
//! targets), so the sweep scheduler dispatches through [`AppId`] and a
//! handful of monomorphized helpers instead of trait objects. Every
//! driver here trains or evaluates exactly **one sweep cell** — one
//! (application, unit-spec) pair, one NAS run, one brute-force pass —
//! and takes an explicit `threads` count so the orchestrator
//! ([`crate::sched`]) can divide the machine between concurrently
//! running cells. Experiment binaries never call these directly: they
//! declare [`crate::sched::UnitJob`]s and let the scheduler execute
//! them (enforced by `scripts/verify.sh`).

use std::sync::Arc;

use lac_apps::{
    CnnApp, DftApp, FilterApp, FilterKind, InverseK2jApp, JpegApp, JpegMode, Kernel, Metric,
    StageMode,
};
use lac_core::{
    brute_force_observed, greedy_multi_observed, search_accuracy_constrained_observed,
    search_multi_observed, search_single_observed, train_fixed_multistart_observed,
    train_fixed_observed, BruteForceResult, Constraint, FixedResult, MultiNasResult,
    MultiObjective, NasResult, TrainError, TrainObserver,
};
use lac_hw::Multiplier;

use crate::{adapted_catalog, quick, Sizing};

/// The six applications of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppId {
    /// Gaussian blur (3×3, unsigned, SSIM).
    Blur,
    /// Sobel edge detection (3×3, signed, SSIM).
    Edge,
    /// Laplacian sharpening (3×3, signed, SSIM).
    Sharpen,
    /// JPEG compression through the 8×8 DCT (PSNR).
    Jpeg,
    /// 12×12 complex DFT (PSNR).
    Dft,
    /// Inversek2j (relative error).
    Ik,
}

impl AppId {
    /// All six applications in the paper's figure order.
    pub fn all() -> [AppId; 6] {
        [AppId::Blur, AppId::Edge, AppId::Sharpen, AppId::Jpeg, AppId::Dft, AppId::Ik]
    }

    /// Display name matching the paper's sub-figure captions.
    pub fn display(self) -> &'static str {
        match self {
            AppId::Blur => "gaussian-blur",
            AppId::Edge => "edge-detection",
            AppId::Sharpen => "image-sharpening",
            AppId::Jpeg => "jpeg-dct",
            AppId::Dft => "dft",
            AppId::Ik => "inversek2j",
        }
    }

    /// Parse either the display name or the short CLI name.
    pub fn parse(name: &str) -> Option<AppId> {
        match name {
            "gaussian-blur" | "blur" => Some(AppId::Blur),
            "edge-detection" | "edge" => Some(AppId::Edge),
            "image-sharpening" | "sharpen" => Some(AppId::Sharpen),
            "jpeg-dct" | "jpeg" => Some(AppId::Jpeg),
            "dft" => Some(AppId::Dft),
            "inversek2j" | "ik" => Some(AppId::Ik),
            _ => None,
        }
    }

    /// The application's quality metric label.
    pub fn metric_label(self) -> &'static str {
        match self {
            AppId::Blur | AppId::Edge | AppId::Sharpen => "SSIM",
            AppId::Jpeg | AppId::Dft => "PSNR(dB)",
            AppId::Ik => "rel-err",
        }
    }

    /// Default sizing and learning rate per application.
    pub fn sizing(self) -> (Sizing, f64) {
        match self {
            AppId::Blur | AppId::Edge | AppId::Sharpen => (Sizing::images(240, 16), 2.0),
            AppId::Jpeg => (Sizing::images(160, 8), 2.0),
            AppId::Dft => (Sizing::images(120, 16), 2.0),
            AppId::Ik => (Sizing::ik(120, 64), 50.0),
        }
    }

    /// The metric object of the kernel (for direction checks).
    pub fn metric(self) -> Metric {
        match self {
            AppId::Blur | AppId::Edge | AppId::Sharpen => Metric::Ssim { width: 32, height: 32 },
            AppId::Jpeg | AppId::Dft => Metric::Psnr,
            AppId::Ik => Metric::RelativeError,
        }
    }
}

/// The two multi-hardware pipelines of Figs. 11–12 / Table IV: one gate
/// per stage instead of one shared unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiPipeline {
    /// Gaussian blur with one gate per kernel tap (9 gates, Fig. 11).
    BlurPerTap,
    /// JPEG with one gate per pipeline stage (dct/dequant/idct, Fig. 12).
    Jpeg3Stage,
}

impl MultiPipeline {
    /// The single-gate application this pipeline refines (sizing source).
    pub fn app_id(self) -> AppId {
        match self {
            MultiPipeline::BlurPerTap => AppId::Blur,
            MultiPipeline::Jpeg3Stage => AppId::Jpeg,
        }
    }

    /// Stable token for job keys and sweep details.
    pub fn token(self) -> &'static str {
        match self {
            MultiPipeline::BlurPerTap => "blur-per-tap",
            MultiPipeline::Jpeg3Stage => "jpeg-3stage",
        }
    }

    /// Number of independently gated stages (the `n` of the `k^n`
    /// brute-force estimate in Table IV).
    pub fn num_stages(self) -> usize {
        match self {
            MultiPipeline::BlurPerTap => 9,
            MultiPipeline::Jpeg3Stage => 3,
        }
    }
}

/// Dispatch a monomorphized closure for the application, handing it the
/// kernel, train/test samples, config (with the cell's thread budget
/// applied), and any extra trailing arguments (constraints, observers,
/// ...).
macro_rules! dispatch {
    ($app:expr, $threads:expr, $body:ident $(, $extra:expr)*) => {{
        let (sizing, lr) = $app.sizing();
        let cfg = sizing.config(lr).threads($threads);
        match $app {
            AppId::Blur => {
                let kernel = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
                let ds = sizing.image_dataset();
                $body(&kernel, &ds.train, &ds.test, cfg $(, $extra)*)
            }
            AppId::Edge => {
                let kernel = FilterApp::new(FilterKind::EdgeDetection, StageMode::Single);
                let ds = sizing.image_dataset();
                $body(&kernel, &ds.train, &ds.test, cfg $(, $extra)*)
            }
            AppId::Sharpen => {
                let kernel = FilterApp::new(FilterKind::Sharpening, StageMode::Single);
                let ds = sizing.image_dataset();
                $body(&kernel, &ds.train, &ds.test, cfg $(, $extra)*)
            }
            AppId::Jpeg => {
                let kernel = JpegApp::new(JpegMode::Single);
                let ds = sizing.image_dataset();
                $body(&kernel, &ds.train, &ds.test, cfg $(, $extra)*)
            }
            AppId::Dft => {
                let kernel = DftApp::new();
                let ds = sizing.image_dataset();
                $body(&kernel, &ds.train, &ds.test, cfg $(, $extra)*)
            }
            AppId::Ik => {
                let kernel = InverseK2jApp::new();
                let ds = sizing.ik_dataset();
                $body(&kernel, &ds.train, &ds.test, cfg $(, $extra)*)
            }
        }
    }};
}

/// Fixed-hardware LAC for an arbitrary multiplier *spec* — a catalog name
/// with an optional `!key=value,...` fault suffix (see
/// [`lac_hw::catalog::by_spec`]). Unknown names, malformed fault configs,
/// and diverged trainings all surface as structured error strings so the
/// scheduler can record them as error rows instead of crashing.
///
/// # Errors
///
/// Returns a human-readable message naming the spec on catalog-lookup or
/// fault-parse failure, or the rendered [`TrainError`] on divergence.
pub fn fixed_spec_observed(
    app: AppId,
    spec: &str,
    threads: usize,
    obs: &mut dyn TrainObserver,
) -> Result<FixedResult, String> {
    dispatch!(app, threads, fixed_cell, spec, obs)
}

/// The body of a fixed-hardware cell, shared by the paper apps
/// ([`fixed_spec_observed`]) and the CNN ([`cnn_fixed_observed`]).
fn fixed_cell<K: Kernel + Sync>(
    kernel: &K,
    train: &[K::Sample],
    test: &[K::Sample],
    cfg: lac_core::TrainConfig,
    spec: &str,
    obs: &mut dyn TrainObserver,
) -> Result<FixedResult, String> {
    let mult = kernel.adapt(&lac_hw::catalog::by_spec(spec)?);
    train_fixed_observed(kernel, &mult, train, test, &cfg, obs).map_err(|e| e.to_string())
}

/// Multi-start fixed-hardware LAC for a multiplier spec: initializations
/// at `2^shift` times the original coefficients (see `DESIGN.md` §7).
///
/// # Errors
///
/// Same contract as [`fixed_spec_observed`].
pub fn multistart_spec_observed(
    app: AppId,
    spec: &str,
    scale_bits: &[u32],
    threads: usize,
    obs: &mut dyn TrainObserver,
) -> Result<FixedResult, String> {
    fn shim<K: Kernel + Sync>(
        kernel: &K,
        train: &[K::Sample],
        test: &[K::Sample],
        cfg: lac_core::TrainConfig,
        spec: &str,
        scale_bits: &[u32],
        obs: &mut dyn TrainObserver,
    ) -> Result<FixedResult, String> {
        let mult = kernel.adapt(&lac_hw::catalog::by_spec(spec)?);
        train_fixed_multistart_observed(kernel, &mult, train, test, &cfg, scale_bits, obs)
            .map_err(|e| e.to_string())
    }
    dispatch!(app, threads, shim, spec, scale_bits, obs)
}

/// Untrained quality for an arbitrary multiplier spec (catalog name plus
/// optional `!fault` suffix): evaluate the kernel's *original* coefficients
/// on the test split — the "no retraining" side of fault sweeps and the
/// "traditional setup" baseline of Fig. 10.
///
/// # Errors
///
/// Returns a message naming the spec when the catalog lookup or fault
/// parse fails.
pub fn untrained_spec(app: AppId, spec: &str, threads: usize) -> Result<(String, f64), String> {
    dispatch!(app, threads, untrained_cell, spec)
}

/// The body of an untrained-quality cell, shared by the paper apps
/// ([`untrained_spec`]) and the CNN ([`cnn_untrained`]).
fn untrained_cell<K: Kernel + Sync>(
    kernel: &K,
    _train: &[K::Sample],
    test: &[K::Sample],
    cfg: lac_core::TrainConfig,
    spec: &str,
) -> Result<(String, f64), String> {
    let mult = kernel.adapt(&lac_hw::catalog::by_spec(spec)?);
    let refs = lac_core::batch_references(kernel, test);
    let mults: Vec<Arc<dyn Multiplier>> = vec![Arc::clone(&mult); kernel.num_stages()];
    let coeffs = kernel.init_coeffs(&mults);
    let q = lac_core::quality(kernel, &coeffs, &mults, test, &refs, cfg.effective_threads());
    Ok((mult.name().to_owned(), q))
}

/// NAS iteration budget: a multiple of the fixed-training epochs, since
/// each iteration trains only the two sampled paths (the paper's NAS runs
/// used roughly a third of the brute-force budget; this keeps the best
/// path trained enough to compare against dedicated training).
pub const NAS_EPOCH_FACTOR: usize = 3;

/// Single-gate NAS with an explicit iteration-budget factor (Figs. 7–9
/// use [`NAS_EPOCH_FACTOR`]; Table IV's runtime comparison uses factor 1:
/// the same budget as one fixed run).
pub fn nas_search_budgeted_observed(
    app: AppId,
    constraint: Constraint,
    gate_lr: f64,
    epoch_factor: usize,
    threads: usize,
    obs: &mut dyn TrainObserver,
) -> NasResult {
    fn inner<K: Kernel + Sync>(
        kernel: &K,
        train: &[K::Sample],
        test: &[K::Sample],
        cfg: lac_core::TrainConfig,
        constraint: Constraint,
        gate_lr: f64,
        epoch_factor: usize,
        obs: &mut dyn TrainObserver,
    ) -> NasResult {
        let epochs = cfg.epochs * epoch_factor.max(1);
        let cfg = cfg.epochs(epochs);
        let candidates = lac_core::prune(&adapted_catalog(kernel), constraint);
        assert!(
            !candidates.is_empty(),
            "constraint {constraint:?} admits no candidates for {}",
            kernel.name()
        );
        search_single_observed(kernel, &candidates, train, test, &cfg, gate_lr, obs)
    }
    dispatch!(app, threads, inner, constraint, gate_lr, epoch_factor, obs)
}

/// Accuracy-constrained single-gate NAS (Fig. 10).
pub fn nas_accuracy_observed(
    app: AppId,
    target: f64,
    delta: f64,
    gate_lr: f64,
    threads: usize,
    obs: &mut dyn TrainObserver,
) -> NasResult {
    fn inner<K: Kernel + Sync>(
        kernel: &K,
        train: &[K::Sample],
        test: &[K::Sample],
        cfg: lac_core::TrainConfig,
        target: f64,
        delta: f64,
        gate_lr: f64,
        obs: &mut dyn TrainObserver,
    ) -> NasResult {
        let epochs = cfg.epochs * NAS_EPOCH_FACTOR;
        let cfg = cfg.epochs(epochs);
        let candidates = adapted_catalog(kernel);
        search_accuracy_constrained_observed(
            kernel, &candidates, train, test, &cfg, gate_lr, target, delta, obs,
        )
    }
    dispatch!(app, threads, inner, target, delta, gate_lr, obs)
}

/// Brute-force per-candidate training (Fig. 10 / Table IV baseline).
///
/// # Errors
///
/// Returns [`TrainError::Diverged`] if any candidate's training exhausts
/// its rollback budget.
pub fn brute_force_all_observed(
    app: AppId,
    threads: usize,
    obs: &mut dyn TrainObserver,
) -> Result<BruteForceResult, TrainError> {
    fn body<K: Kernel + Sync>(
        kernel: &K,
        train: &[K::Sample],
        test: &[K::Sample],
        cfg: lac_core::TrainConfig,
        obs: &mut dyn TrainObserver,
    ) -> Result<BruteForceResult, TrainError> {
        let candidates = adapted_catalog(kernel);
        brute_force_observed(kernel, &candidates, train, test, &cfg, obs)
    }
    dispatch!(app, threads, body, obs)
}

/// Build a multi-hardware pipeline's kernel, dataset, and base config and
/// hand them to `body` (the Figs. 11–12 / Table IV kernels both take
/// image samples, so one monomorphization suffices).
fn with_pipeline<R>(
    pipeline: MultiPipeline,
    threads: usize,
    body: impl FnOnce(
        &dyn PipelineKernel,
        &[lac_data::GrayImage],
        &[lac_data::GrayImage],
        lac_core::TrainConfig,
    ) -> R,
) -> R {
    let (sizing, lr) = pipeline.app_id().sizing();
    let cfg = sizing.config(lr).threads(threads);
    let ds = sizing.image_dataset();
    match pipeline {
        MultiPipeline::BlurPerTap => {
            let kernel = FilterApp::new(FilterKind::GaussianBlur, StageMode::PerTap);
            body(&kernel, &ds.train, &ds.test, cfg)
        }
        MultiPipeline::Jpeg3Stage => {
            let kernel = JpegApp::new(JpegMode::ThreeStage);
            body(&kernel, &ds.train, &ds.test, cfg)
        }
    }
}

/// Object-safe shim over the two pipeline kernels so [`with_pipeline`]
/// needs no generic plumbing at the call sites.
trait PipelineKernel {
    fn search_multi(
        &self,
        train: &[lac_data::GrayImage],
        test: &[lac_data::GrayImage],
        cfg: &lac_core::TrainConfig,
        gate_lr: f64,
        objective: MultiObjective,
        obs: &mut dyn TrainObserver,
    ) -> MultiNasResult;
    fn greedy_multi(
        &self,
        train: &[lac_data::GrayImage],
        test: &[lac_data::GrayImage],
        cfg: &lac_core::TrainConfig,
        objective: MultiObjective,
        obs: &mut dyn TrainObserver,
    ) -> MultiNasResult;
}

impl<K: Kernel<Sample = lac_data::GrayImage> + Sync> PipelineKernel for K {
    fn search_multi(
        &self,
        train: &[lac_data::GrayImage],
        test: &[lac_data::GrayImage],
        cfg: &lac_core::TrainConfig,
        gate_lr: f64,
        objective: MultiObjective,
        obs: &mut dyn TrainObserver,
    ) -> MultiNasResult {
        let candidates = adapted_catalog(self);
        search_multi_observed(self, &candidates, train, test, cfg, gate_lr, objective, obs)
    }
    fn greedy_multi(
        &self,
        train: &[lac_data::GrayImage],
        test: &[lac_data::GrayImage],
        cfg: &lac_core::TrainConfig,
        objective: MultiObjective,
        obs: &mut dyn TrainObserver,
    ) -> MultiNasResult {
        let candidates = adapted_catalog(self);
        greedy_multi_observed(self, &candidates, train, test, cfg, objective, obs)
    }
}

/// Multi-hardware NAS over a pipeline (Figs. 11–12 / Table IV): one
/// binarized gate per stage, `epoch_factor` × the fixed-training budget
/// (multiple gates share the sampling budget).
pub fn multi_nas_observed(
    pipeline: MultiPipeline,
    epoch_factor: usize,
    objective: MultiObjective,
    threads: usize,
    obs: &mut dyn TrainObserver,
) -> MultiNasResult {
    with_pipeline(pipeline, threads, |kernel, train, test, cfg| {
        let cfg = cfg.clone().epochs(cfg.epochs * epoch_factor.max(1));
        kernel.search_multi(train, test, &cfg, 1.0, objective, obs)
    })
}

/// Greedy stage-by-stage multi-hardware baseline (Fig. 11 / Table IV).
/// Greedy "brute forces all options" with real per-option training: a
/// quarter of the fixed budget per option, times stages × candidates —
/// the Table IV runtime blow-up.
pub fn greedy_multi_pipeline_observed(
    pipeline: MultiPipeline,
    objective: MultiObjective,
    threads: usize,
    obs: &mut dyn TrainObserver,
) -> MultiNasResult {
    with_pipeline(pipeline, threads, |kernel, train, test, cfg| {
        let cfg = cfg.clone().epochs(if quick() { 2 } else { (cfg.epochs / 4).max(1) });
        kernel.greedy_multi(train, test, &cfg, objective, obs)
    })
}

/// Sizing and learning rate for the CNN classifier workload (96/32
/// samples matching `CnnDataset::paper_split`). 160 epochs saturate the
/// per-unit accuracies (40 epochs leave every unit undertrained and the
/// frontier ranking noisy).
pub fn cnn_sizing() -> (Sizing, f64) {
    (Sizing::cnn(160, 8), 2.0)
}

/// Build the CNN kernel, dataset, and base config and hand them to
/// `body`. The CNN sample type ([`lac_data::CnnSample`]) differs from
/// both existing dispatch families, so the classifier gets its own
/// monomorphization instead of an [`AppId`] arm.
fn with_cnn<R>(
    threads: usize,
    body: impl FnOnce(
        &CnnApp,
        &[lac_data::CnnSample],
        &[lac_data::CnnSample],
        lac_core::TrainConfig,
    ) -> R,
) -> R {
    let (sizing, lr) = cnn_sizing();
    let cfg = sizing.config(lr).threads(threads);
    let ds = sizing.cnn_dataset();
    let kernel = CnnApp::paper();
    body(&kernel, &ds.train, &ds.test, cfg)
}

/// Fixed-hardware LAC for the CNN classifier under a multiplier spec
/// (same spec grammar and error contract as [`fixed_spec_observed`]).
///
/// # Errors
///
/// Returns a message naming the spec on catalog-lookup or fault-parse
/// failure, or the rendered [`TrainError`] on divergence.
pub fn cnn_fixed_observed(
    spec: &str,
    threads: usize,
    obs: &mut dyn TrainObserver,
) -> Result<FixedResult, String> {
    with_cnn(threads, |kernel, train, test, cfg| fixed_cell(kernel, train, test, cfg, spec, obs))
}

/// Untrained CNN accuracy for a multiplier spec: evaluate the seeded
/// initial weights on the test split — the "no LAC training" baseline
/// of the accuracy-vs-area frontier.
///
/// # Errors
///
/// Returns a message naming the spec when the catalog lookup or fault
/// parse fails.
pub fn cnn_untrained(spec: &str, threads: usize) -> Result<(String, f64), String> {
    with_cnn(threads, |kernel, train, test, cfg| untrained_cell(kernel, train, test, cfg, spec))
}

/// Per-layer hardware NAS over the CNN classifier: one binarized gate
/// per layer (conv1/conv2/dense), `epoch_factor` × the fixed-training
/// budget, with an `AreaConstrained` hinge at `area_threshold`.
///
/// The Table I candidates are pruned to the *feasible* set first: a unit
/// whose area exceeds `num_stages × area_threshold` cannot appear in any
/// assignment meeting the mean-area budget (even with zero-area units
/// everywhere else), and keeping infeasible units in the supernet only
/// dilutes the shared coefficients' training signal.
pub fn cnn_per_layer_nas_observed(
    epoch_factor: usize,
    area_threshold: f64,
    gamma: f64,
    delta: f64,
    threads: usize,
    obs: &mut dyn TrainObserver,
) -> MultiNasResult {
    with_cnn(threads, |kernel, train, test, cfg| {
        let cfg = cfg.clone().epochs(cfg.epochs * epoch_factor.max(1));
        let objective = MultiObjective::AreaConstrained { area_threshold, gamma, delta };
        let feasible = Constraint::Area(kernel.num_stages() as f64 * area_threshold);
        let candidates = lac_core::prune(&adapted_catalog(kernel), feasible);
        assert!(
            !candidates.is_empty(),
            "area threshold {area_threshold} admits no candidates for {}",
            kernel.name()
        );
        search_multi_observed(kernel, &candidates, train, test, &cfg, 1.0, objective, obs)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_ids_enumerate_table2() {
        assert_eq!(AppId::all().len(), 6);
        let names: Vec<&str> = AppId::all().iter().map(|a| a.display()).collect();
        assert!(names.contains(&"jpeg-dct"));
        assert!(names.contains(&"inversek2j"));
    }

    #[test]
    fn app_ids_parse_both_spellings() {
        for app in AppId::all() {
            assert_eq!(AppId::parse(app.display()), Some(app));
        }
        assert_eq!(AppId::parse("blur"), Some(AppId::Blur));
        assert_eq!(AppId::parse("ik"), Some(AppId::Ik));
        assert_eq!(AppId::parse("warp"), None);
    }

    #[test]
    fn metric_labels_match_directions() {
        use lac_metrics::MetricDirection;
        for app in AppId::all() {
            let d = app.metric().direction();
            match app {
                AppId::Ik => assert_eq!(d, MetricDirection::LowerIsBetter),
                _ => assert_eq!(d, MetricDirection::HigherIsBetter),
            }
        }
    }

    #[test]
    fn pipelines_map_to_their_apps() {
        assert_eq!(MultiPipeline::BlurPerTap.app_id(), AppId::Blur);
        assert_eq!(MultiPipeline::Jpeg3Stage.app_id(), AppId::Jpeg);
        assert_ne!(MultiPipeline::BlurPerTap.token(), MultiPipeline::Jpeg3Stage.token());
        // The advertised stage counts must match the actual kernels.
        let blur = FilterApp::new(FilterKind::GaussianBlur, StageMode::PerTap);
        assert_eq!(MultiPipeline::BlurPerTap.num_stages(), blur.num_stages());
        let jpeg = JpegApp::new(JpegMode::ThreeStage);
        assert_eq!(MultiPipeline::Jpeg3Stage.num_stages(), jpeg.num_stages());
    }
}
