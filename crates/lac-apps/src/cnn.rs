//! CNN classifier kernel: 2 conv layers + a dense head, trained with STE
//! through approximate conv/matmul ops (HEAM/ApproxDARTS workload shape).
//!
//! Architecture, all fixed-point:
//!
//! ```text
//! x [h,w] ──conv 3×3──▶ ≫S_CONV, clamp[0,255] ──conv 3×3──▶ ≫S_CONV,
//!   clamp[0,255] ──flatten──▶ dense [classes, h·w] ──▶ ≫S_DENSE = scores
//! ```
//!
//! Every stage is one *layer* with its own hardware gate
//! ([`Kernel::stages_are_layers`]), generalizing the serial 3-stage JPEG
//! pipeline to per-layer hardware assignment. The datapath follows the
//! JPEG conventions: pixels and activations live in `[0, 255]`, operands
//! are pre-shifted into narrow units' ranges ([`pixel_shift`]), and
//! coefficients share the 8-bit cap ([`COEFF_CAP`]) so one trained
//! coefficient set serves whichever multiplier each gate samples.
//!
//! Unlike the signal-processing kernels, a randomly initialized network
//! has no meaningful "original coefficients", so the accurate branch
//! degenerates to the supervised target: [`Kernel::reference`] returns
//! the one-hot label vector (scaled to [`TARGET_SCORE`]), the MSE loss
//! regresses class scores onto it, and [`Metric::Accuracy`] scores the
//! argmax match. This is exactly how HEAM trains through approximate
//! multipliers — labels are the exact branch.

use std::sync::Arc;

use lac_data::CnnSample;
use lac_hw::{adapt_unit, Multiplier, Signedness};
use lac_rt::rng::{RngExt, SeedableRng, StdRng};
use lac_tensor::{Epilogue, Graph, Tensor, Var};

use crate::kernel::{pixel_shift, Kernel, Metric};

/// Convolution kernel side (3×3, same-padded).
const KSIZE: usize = 3;

/// Shared coefficient magnitude cap (8-bit convention): the same trained
/// coefficients must be valid operands for every gate-sampled unit, as in
/// the JPEG three-stage mode.
const COEFF_CAP: i64 = 255;

/// Accumulator downshift after each convolution layer, chosen so the
/// initial weights produce mid-range activations (random ±48 taps over
/// 8-bit pixels accumulate to ~2^12–2^14 over 9 products); the saturating
/// clamp handles the headroom training adds.
const S_CONV: u32 = 6;

/// Accumulator downshift after the dense layer (256 products).
const S_DENSE: u32 = 10;

/// One-hot target magnitude for the true class's score.
pub const TARGET_SCORE: f64 = 96.0;

/// Seed for the deterministic random initialization of the weights.
const INIT_SEED: u64 = 0x00c4_a551_f1e5_0001;

/// The CNN classification application (conv1 → conv2 → dense).
#[derive(Debug, Clone)]
pub struct CnnApp {
    width: usize,
    height: usize,
    classes: usize,
}

impl CnnApp {
    /// Create a classifier for `width`×`height` inputs over `classes`
    /// classes.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is below [`KSIZE`] or `classes < 2`.
    pub fn new(width: usize, height: usize, classes: usize) -> Self {
        assert!(
            width >= KSIZE && height >= KSIZE,
            "cnn inputs must be at least {KSIZE}x{KSIZE}, got {width}x{height}"
        );
        assert!(classes >= 2, "need at least two classes, got {classes}");
        CnnApp { width, height, classes }
    }

    /// The workload's default shape, matching
    /// [`CnnDataset::paper_split`](lac_data::CnnDataset::paper_split):
    /// 16×16 inputs, [`lac_data::CNN_CLASSES`] classes.
    pub fn paper() -> Self {
        CnnApp::new(16, 16, lac_data::CNN_CLASSES)
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    fn bound_for(&self, mult: &Arc<dyn Multiplier>) -> (f64, f64) {
        let (lo, hi) = mult.operand_range();
        ((lo.max(-COEFF_CAP)) as f64, (hi.min(COEFF_CAP)) as f64)
    }

    fn check_sample(&self, sample: &CnnSample) {
        assert_eq!(
            (sample.image.width(), sample.image.height()),
            (self.width, self.height),
            "cnn: expected {}x{} input",
            self.width,
            self.height
        );
        assert!(
            sample.label < self.classes,
            "cnn: label {} out of range (classes: {})",
            sample.label,
            self.classes
        );
    }

    /// One conv layer: shift the input into the unit's operand range,
    /// convolve on approximate hardware, downshift the accumulator and
    /// saturate back into the activation range — the downshift, round
    /// and saturation inside the conv node ([`Epilogue`]).
    fn conv_layer(&self, x: &Var, taps: &Var, mult: &Arc<dyn Multiplier>) -> Var {
        let ps = pixel_shift(&**mult);
        let xs = if ps == 0 { x.clone() } else { x.scale_round_ste(2f64.powi(-(ps as i32))) };
        let stage =
            Epilogue::new().scale(2f64.powi(ps as i32 - S_CONV as i32)).rounded().clamp(0.0, 255.0);
        xs.approx_conv2d_fused(taps, mult, self.height, stage)
    }
}

impl Kernel for CnnApp {
    type Sample = CnnSample;

    fn name(&self) -> &str {
        "cnn-classifier"
    }

    fn num_stages(&self) -> usize {
        3
    }

    fn stage_names(&self) -> Vec<String> {
        vec!["conv1".to_owned(), "conv2".to_owned(), "dense".to_owned()]
    }

    fn stages_are_layers(&self) -> bool {
        true
    }

    fn metric(&self) -> Metric {
        Metric::Accuracy
    }

    fn adapt(&self, mult: &Arc<dyn Multiplier>) -> Arc<dyn Multiplier> {
        // Taps and dense weights are signed.
        adapt_unit(mult, Signedness::Signed)
    }

    fn init_coeffs(&self, mults: &[Arc<dyn Multiplier>]) -> Vec<Tensor> {
        assert_eq!(mults.len(), self.num_stages(), "need one multiplier per stage");
        // A fixed seeded integer init, independent of the hardware: the
        // coefficients stay valid under every gate-sampled unit (the
        // tightest native signed range is ±127 > the init magnitudes).
        let mut rng = StdRng::seed_from_u64(INIT_SEED);
        let mut tensor = |shape: &[usize], cap: i64| {
            let n: usize = shape.iter().product();
            Tensor::from_vec((0..n).map(|_| rng.random_range(-cap..=cap) as f64).collect(), shape)
        };
        vec![
            tensor(&[KSIZE, KSIZE], 48),
            tensor(&[KSIZE, KSIZE], 48),
            tensor(&[self.classes, self.width * self.height], 24),
        ]
    }

    fn coeff_bounds(&self, mults: &[Arc<dyn Multiplier>]) -> Vec<(f64, f64)> {
        assert_eq!(mults.len(), self.num_stages(), "need one multiplier per stage");
        mults.iter().map(|m| self.bound_for(m)).collect()
    }

    fn forward_approx(
        &self,
        graph: &Graph,
        sample: &Self::Sample,
        coeffs: &[Var],
        mults: &[Arc<dyn Multiplier>],
    ) -> Var {
        self.check_sample(sample);
        assert_eq!(coeffs.len(), 3, "cnn has conv1, conv2 and dense coefficient tensors");
        assert_eq!(mults.len(), self.num_stages(), "need one multiplier per stage");

        let bounds = self.coeff_bounds(mults);
        let c1 = coeffs[0].quantize_ste(bounds[0].0, bounds[0].1);
        let c2 = coeffs[1].quantize_ste(bounds[1].0, bounds[1].1);
        let w = coeffs[2].quantize_ste(bounds[2].0, bounds[2].1);

        let x = graph.constant(Tensor::from_vec(
            sample.image.pixels().to_vec(),
            &[self.height, self.width],
        ));
        let a1 = self.conv_layer(&x, &c1, &mults[0]);
        let a2 = self.conv_layer(&a1, &c2, &mults[1]);

        // Dense head: flatten, shift into range, one matmul per sample.
        let ps = pixel_shift(&*mults[2]);
        let flat = if ps == 0 {
            a2
        } else {
            a2.scale_round_ste(2f64.powi(-(ps as i32)))
        }
        .reshape(&[self.width * self.height, 1]);
        w.approx_matmul_scale_round(&flat, &mults[2], 2f64.powi(ps as i32 - S_DENSE as i32))
            .reshape(&[self.classes])
    }

    fn reference(&self, sample: &Self::Sample) -> Tensor {
        self.check_sample(sample);
        let mut target = vec![0.0; self.classes];
        target[sample.label] = TARGET_SCORE;
        Tensor::from_vec(target, &[self.classes])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_data::synth_class_image;
    use lac_hw::catalog;

    fn scores(app: &CnnApp, mult_names: &[&str], sample: &CnnSample) -> Vec<f64> {
        let mults: Vec<Arc<dyn Multiplier>> =
            mult_names.iter().map(|n| app.adapt(&catalog::by_name(n).unwrap())).collect();
        let coeffs = app.init_coeffs(&mults);
        let g = Graph::new();
        let vars: Vec<Var> = coeffs.iter().map(|c| g.var(c.clone())).collect();
        app.forward_approx(&g, sample, &vars, &mults).value().into_data()
    }

    #[test]
    fn stage_structure_is_layered() {
        let app = CnnApp::paper();
        assert_eq!(app.num_stages(), 3);
        assert_eq!(app.stage_names(), vec!["conv1", "conv2", "dense"]);
        assert!(app.stages_are_layers());
        assert!(!app.stages_are_parallel());
        assert_eq!(app.metric(), Metric::Accuracy);
    }

    #[test]
    fn forward_emits_one_integral_score_per_class() {
        let app = CnnApp::paper();
        let sample = synth_class_image(16, 16, 1, 3);
        let s = scores(&app, &["exact16u", "exact16u", "exact16u"], &sample);
        assert_eq!(s.len(), app.classes());
        for &v in &s {
            assert_eq!(v, v.round(), "score {v} is not integral");
        }
    }

    #[test]
    fn forward_is_deterministic() {
        let app = CnnApp::paper();
        let sample = synth_class_image(16, 16, 2, 9);
        let names = ["mul8u_FTA", "kulkarni8u", "DRUM16-4"];
        assert_eq!(scores(&app, &names, &sample), scores(&app, &names, &sample));
    }

    #[test]
    fn approximate_hardware_perturbs_scores() {
        let app = CnnApp::paper();
        let sample = synth_class_image(16, 16, 0, 5);
        let exact = scores(&app, &["exact16u", "exact16u", "exact16u"], &sample);
        let noisy = scores(&app, &["mul8u_JV3", "mul8u_JV3", "mul8u_JV3"], &sample);
        assert_ne!(exact, noisy, "a high-error unit should move the class scores");
    }

    #[test]
    fn narrow_signed_units_fit_via_pixel_shift() {
        // Native signed 8-bit units cap operands at ±127; the activation
        // pre-shift must keep every operand in range (the behavioral model
        // clamps, so this is a does-not-distort check: scores stay finite
        // and integral).
        let app = CnnApp::paper();
        let sample = synth_class_image(16, 16, 3, 7);
        let s = scores(&app, &["mul8s_1KR3", "mul8s_1KR3", "mul8s_1KR3"], &sample);
        assert_eq!(s.len(), app.classes());
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn init_coeffs_are_integral_and_within_every_units_bounds() {
        let app = CnnApp::paper();
        for name in ["mul8s_1KR3", "mul8u_FTA", "DRUM16-6"] {
            let m = app.adapt(&catalog::by_name(name).unwrap());
            let mults = vec![Arc::clone(&m), Arc::clone(&m), Arc::clone(&m)];
            let coeffs = app.init_coeffs(&mults);
            assert_eq!(coeffs.len(), 3);
            assert_eq!(coeffs[2].shape(), &[4, 256]);
            for (t, (lo, hi)) in coeffs.iter().zip(app.coeff_bounds(&mults)) {
                for &v in t.data() {
                    assert_eq!(v, v.round());
                    assert!(v >= lo && v <= hi, "{name}: init {v} outside [{lo}, {hi}]");
                }
            }
        }
    }

    #[test]
    fn init_is_deterministic_across_calls() {
        let app = CnnApp::paper();
        let m = app.adapt(&catalog::by_name("exact8u").unwrap());
        let mults = vec![Arc::clone(&m), Arc::clone(&m), m];
        let a = app.init_coeffs(&mults);
        let b = app.init_coeffs(&mults);
        assert_eq!(a, b);
    }

    #[test]
    fn reference_is_the_scaled_one_hot_label() {
        let app = CnnApp::paper();
        let sample = synth_class_image(16, 16, 2, 1);
        let r = app.reference(&sample);
        assert_eq!(r.shape(), &[4]);
        assert_eq!(r.data(), &[0.0, 0.0, TARGET_SCORE, 0.0]);
    }

    #[test]
    #[should_panic(expected = "expected 16x16")]
    fn forward_rejects_wrong_image_shape() {
        let app = CnnApp::paper();
        let sample = synth_class_image(8, 8, 0, 1);
        let _ = scores(&app, &["exact8u", "exact8u", "exact8u"], &sample);
    }
}
