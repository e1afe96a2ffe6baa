//! The [`Kernel`] abstraction: a parameterizable application that LAC can
//! train against approximate hardware.
//!
//! A kernel exposes everything the trainers in `lac-core` need:
//!
//! * its trainable coefficient tensors with per-multiplier initialization
//!   and integer bounds (Section III-B's `[0, 2^m - 1]` /
//!   `[-(2^m - 1), 2^m - 1]` constraints);
//! * an *approximate branch* — a differentiable forward pass whose
//!   multiplications run on behavioral approximate-hardware models;
//! * an *accurate branch* — the reference output computed with the
//!   original coefficients and exact arithmetic (the training target of
//!   Eq. 1);
//! * its quality [`Metric`];
//! * a stage structure for multi-hardware NAS (serial JPEG stages,
//!   parallel per-tap filter stages).

use std::sync::Arc;

use lac_hw::Multiplier;
use lac_metrics::MetricDirection;
use lac_tensor::{Graph, Tensor, Var};

/// The quality metric of an application (Table II / Section III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Mean SSIM over image outputs of the given dimensions.
    Ssim {
        /// Output image width.
        width: usize,
        /// Output image height.
        height: usize,
    },
    /// Mean PSNR (dB, peak 255) over outputs, capped per-pair at 80 dB.
    Psnr,
    /// Mean relative error (lower is better).
    RelativeError,
    /// Top-1 classification accuracy: the fraction of samples whose
    /// output argmax matches the reference argmax (one-hot targets).
    Accuracy,
}

impl Metric {
    /// Whether larger values of this metric mean better quality.
    pub fn direction(self) -> MetricDirection {
        match self {
            Metric::Ssim { .. } | Metric::Psnr | Metric::Accuracy => {
                MetricDirection::HigherIsBetter
            }
            Metric::RelativeError => MetricDirection::LowerIsBetter,
        }
    }

    /// Score a batch of outputs against references.
    ///
    /// # Panics
    ///
    /// Panics on empty or mismatched batches.
    pub fn evaluate(self, outputs: &[Vec<f64>], references: &[Vec<f64>]) -> f64 {
        match self {
            Metric::Ssim { width, height } => {
                lac_metrics::mean_ssim(outputs, references, width, height)
            }
            Metric::Psnr => lac_metrics::mean_psnr_255(outputs, references, 80.0),
            Metric::RelativeError => {
                assert_eq!(outputs.len(), references.len(), "batch length mismatch");
                assert!(!outputs.is_empty(), "empty batch");
                let mut total = 0.0;
                for (o, r) in outputs.iter().zip(references) {
                    total += lac_metrics::mean_relative_error(o, r, 1e-6);
                }
                total / outputs.len() as f64
            }
            Metric::Accuracy => {
                assert_eq!(outputs.len(), references.len(), "batch length mismatch");
                assert!(!outputs.is_empty(), "empty batch");
                let argmax = |v: &[f64]| {
                    assert!(!v.is_empty(), "empty score vector");
                    // First maximum wins on ties — deterministic for every
                    // accumulation order that produces identical bits.
                    let mut best = 0usize;
                    for (i, &s) in v.iter().enumerate() {
                        if s > v[best] {
                            best = i;
                        }
                    }
                    best
                };
                let hits = outputs
                    .iter()
                    .zip(references)
                    .filter(|(o, r)| argmax(o) == argmax(r))
                    .count();
                hits as f64 / outputs.len() as f64
            }
        }
    }

    /// The score of a hopelessly broken configuration, used as the
    /// "absence of a bar" sentinel in reports.
    pub fn worst(self) -> f64 {
        match self {
            Metric::Ssim { .. } => -1.0,
            Metric::Psnr | Metric::Accuracy => 0.0,
            Metric::RelativeError => f64::INFINITY,
        }
    }
}

/// A parameterizable application kernel trainable by LAC.
///
/// Implementations must be deterministic: the same coefficients, sample
/// and multipliers always produce the same output.
pub trait Kernel {
    /// The input sample type (an image, an inverse-kinematics target, …).
    type Sample: Clone + Send + Sync;

    /// Human-readable application name (Table II row).
    fn name(&self) -> &str;

    /// Number of hardware stages. Fixed-hardware training uses kernels
    /// with one stage; serial/parallel multi-hardware NAS assigns one
    /// multiplier per stage.
    fn num_stages(&self) -> usize {
        1
    }

    /// Short per-stage labels, e.g. `["dct", "dequant", "idct"]`.
    fn stage_names(&self) -> Vec<String> {
        (0..self.num_stages()).map(|i| format!("stage{i}")).collect()
    }

    /// Whether this kernel's stages are parallel slots (per-tap layering,
    /// Fig. 11) rather than serial pipeline stages (Fig. 12). Purely
    /// descriptive — multi-hardware search treats both the same, but
    /// telemetry and hardware plans label them differently.
    fn stages_are_parallel(&self) -> bool {
        false
    }

    /// Whether this kernel's serial stages are *network layers* (CNN
    /// conv/dense layers, HEAM/ApproxDARTS-style) rather than algorithmic
    /// pipeline stages. Purely descriptive, like
    /// [`stages_are_parallel`](Kernel::stages_are_parallel): search treats
    /// both the same, but hardware plans label per-layer assignments
    /// distinctly. Ignored when `stages_are_parallel()` is true.
    fn stages_are_layers(&self) -> bool {
        false
    }

    /// The application's quality metric.
    fn metric(&self) -> Metric;

    /// The unit this kernel's ops run on, built from a catalog unit: one
    /// call to [`lac_hw::adapt_unit`] with the kernel's operand
    /// signedness. Units of at most [`lac_hw::MAX_LUT_BITS`] bits come
    /// back tabulated (an unsigned core under a signed kernel as a table
    /// of its [`SignMagnitude`](lac_hw::SignMagnitude) adapter), wider
    /// units as the model itself, adapted if needed. Callers hand it the
    /// raw catalog unit; adapting an adapted unit returns it unchanged,
    /// and every product is bit-identical to the catalog model's.
    fn adapt(&self, mult: &Arc<dyn Multiplier>) -> Arc<dyn Multiplier>;

    /// Initial coefficient tensors (the application's original
    /// coefficients, scaled into the operand range of the given per-stage
    /// multipliers).
    fn init_coeffs(&self, mults: &[Arc<dyn Multiplier>]) -> Vec<Tensor>;

    /// Inclusive integer bounds for each coefficient tensor under the
    /// given per-stage multipliers.
    fn coeff_bounds(&self, mults: &[Arc<dyn Multiplier>]) -> Vec<(f64, f64)>;

    /// Build the approximate branch for one sample. `coeffs` are leaf
    /// `Var`s of the master (float) coefficients, `mults` has
    /// `num_stages()` entries.
    fn forward_approx(
        &self,
        graph: &Graph,
        sample: &Self::Sample,
        coeffs: &[Var],
        mults: &[Arc<dyn Multiplier>],
    ) -> Var;

    /// The approximate branch's outputs for `samples`, in order, as an
    /// inference pass: `coeffs` are recorded as constants, so the pass
    /// records no backward op. Each output is bit-identical to the
    /// default, one [`forward_approx`](Kernel::forward_approx) per sample
    /// on `graph`, reset before each; a kernel may override it with one
    /// pass over the whole slice.
    fn infer(
        &self,
        graph: &Graph,
        samples: &[Self::Sample],
        coeffs: &[Tensor],
        mults: &[Arc<dyn Multiplier>],
    ) -> Vec<Vec<f64>> {
        samples
            .iter()
            .map(|sample| {
                graph.reset();
                let leaves: Vec<Var> =
                    coeffs.iter().map(|c| graph.constant(c.clone())).collect();
                self.forward_approx(graph, sample, &leaves, mults).value().into_data()
            })
            .collect()
    }

    /// The accurate branch: reference output for one sample, computed with
    /// the original coefficients and exact arithmetic.
    fn reference(&self, sample: &Self::Sample) -> Tensor;
}

/// Right-shift needed so 8-bit pixels (max 255) fit a multiplier's operand
/// range, e.g. 1 for a native signed 8-bit unit whose range caps at 127.
///
/// # Examples
///
/// ```
/// use lac_apps::pixel_shift;
/// use lac_hw::catalog;
///
/// assert_eq!(pixel_shift(&*catalog::by_name("mul8u_FTA").unwrap()), 0);
/// assert_eq!(pixel_shift(&*catalog::by_name("mul8s_1KR3").unwrap()), 1);
/// ```
pub fn pixel_shift(mult: &dyn Multiplier) -> u32 {
    let (_, hi) = mult.operand_range();
    let mut shift = 0;
    while (255 >> shift) > hi {
        shift += 1;
    }
    shift
}

/// Largest power-of-two exponent `s` such that `max_base · 2^s` still fits
/// below `hi`; the coefficient up-scaling rule of Section III-B ("scaled up
/// by 2^m ... to fill the integer input range").
///
/// # Examples
///
/// ```
/// use lac_apps::coeff_upscale;
///
/// // A max base coefficient of 4 fits 255 when scaled by 2^5 = 32.
/// assert_eq!(coeff_upscale(4.0, 255), 5);
/// // DCT-style fractional coefficients scale by ~2^m.
/// assert_eq!(coeff_upscale(0.5, 255), 8);
/// ```
///
/// # Panics
///
/// Panics if `max_base` is not positive or `hi < 1`.
pub fn coeff_upscale(max_base: f64, hi: i64) -> u32 {
    assert!(max_base > 0.0, "max_base must be positive, got {max_base}");
    assert!(hi >= 1, "operand bound must be at least 1, got {hi}");
    let mut s = 0u32;
    while max_base * 2f64.powi(s as i32 + 1) <= hi as f64 {
        s += 1;
    }
    s
}

/// Right-shift needed so a datapath value of magnitude `max_abs` fits a
/// multiplier port bounded by `hi`.
///
/// # Examples
///
/// ```
/// use lac_apps::fit_shift;
///
/// assert_eq!(fit_shift(2040.0, 255), 3);
/// assert_eq!(fit_shift(100.0, 255), 0);
/// ```
pub fn fit_shift(max_abs: f64, hi: i64) -> u32 {
    let mut shift = 0u32;
    while max_abs / 2f64.powi(shift as i32) > hi as f64 {
        shift += 1;
    }
    shift
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_hw::catalog;

    #[test]
    fn metric_directions() {
        assert_eq!(
            Metric::Ssim { width: 1, height: 1 }.direction(),
            MetricDirection::HigherIsBetter
        );
        assert_eq!(Metric::Psnr.direction(), MetricDirection::HigherIsBetter);
        assert_eq!(Metric::Accuracy.direction(), MetricDirection::HigherIsBetter);
        assert_eq!(Metric::RelativeError.direction(), MetricDirection::LowerIsBetter);
    }

    #[test]
    fn metric_evaluate_accuracy() {
        let out = vec![vec![0.2, 0.9, 0.1], vec![5.0, 1.0, 2.0], vec![0.0, 0.0, 1.0]];
        let reference = vec![
            vec![0.0, 1.0, 0.0], // hit
            vec![0.0, 1.0, 0.0], // miss (argmax 0 vs 1)
            vec![0.0, 0.0, 1.0], // hit
        ];
        let acc = Metric::Accuracy.evaluate(&out, &reference);
        assert!((acc - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn accuracy_ties_take_the_first_maximum() {
        // All-equal scores argmax to index 0 in both vectors: a hit.
        let out = vec![vec![3.0, 3.0]];
        let reference = vec![vec![1.0, 1.0]];
        assert_eq!(Metric::Accuracy.evaluate(&out, &reference), 1.0);
    }

    #[test]
    fn metric_evaluate_relative_error() {
        let out = vec![vec![1.1, 2.0]];
        let reference = vec![vec![1.0, 2.0]];
        let e = Metric::RelativeError.evaluate(&out, &reference);
        assert!((e - 0.05).abs() < 1e-9);
    }

    #[test]
    fn metric_evaluate_psnr_caps() {
        let out = vec![vec![1.0, 2.0]];
        let reference = vec![vec![1.0, 2.0]];
        assert_eq!(Metric::Psnr.evaluate(&out, &reference), 80.0);
    }

    #[test]
    fn worst_scores() {
        assert_eq!(Metric::Psnr.worst(), 0.0);
        assert_eq!(Metric::Accuracy.worst(), 0.0);
        assert_eq!(Metric::Ssim { width: 1, height: 1 }.worst(), -1.0);
        assert!(Metric::RelativeError.worst().is_infinite());
    }

    #[test]
    fn pixel_shift_for_catalog_units() {
        // 16-bit units never need a shift.
        assert_eq!(pixel_shift(&*catalog::by_name("DRUM16-4").unwrap()), 0);
        // Native signed 8-bit: 255 must drop to <= 127.
        assert_eq!(pixel_shift(&*catalog::by_name("mul8s_1KVL").unwrap()), 1);
    }

    #[test]
    fn coeff_upscale_edge_cases() {
        assert_eq!(coeff_upscale(255.0, 255), 0);
        assert_eq!(coeff_upscale(128.0, 255), 0);
        assert_eq!(coeff_upscale(127.0, 255), 1);
        assert_eq!(coeff_upscale(0.49, 65535), 17);
    }

    #[test]
    fn fit_shift_edge_cases() {
        assert_eq!(fit_shift(255.0, 255), 0);
        assert_eq!(fit_shift(256.0, 255), 1);
        assert_eq!(fit_shift(0.0, 255), 0);
    }
}
