//! The Inversek2j application from AxBench: inverse kinematics of a
//! 2-joint robotic arm (Table II, 4 coefficients, quality = relative
//! error).
//!
//! The kernel computes, for a reachable end-effector target `(x, y)`:
//!
//! ```text
//! cos θ₂ = (x² + y² - (l1² + l2²)) / (2·l1·l2)
//! θ₂     = acos(cos θ₂)
//! θ₁     = atan2(y, x) - atan2(l2·sin θ₂, l1 + l2·cos θ₂)
//! ```
//!
//! In the fixed-point datapath the four trainable coefficients are the
//! integer encodings of the geometric constants (the paper's "4
//! coefficients"):
//!
//! * `C1` — `(l1² + l2²)` at squared input scale (subtraction only);
//! * `C2` — the reciprocal `1 / (2·l1·l2)` factor, used in an approximate
//!   multiply;
//! * `C3` — `l2` multiplying `sin θ₂` on approximate hardware;
//! * `C4` — `l2` multiplying `cos θ₂` on approximate hardware.
//!
//! `x²` and `y²` are also computed on the approximate multiplier
//! (input × input, not trainable). Trigonometric functions are exact, as
//! the paper approximates multipliers only.

use std::sync::Arc;

use lac_data::{inverse_kinematics, IkSample, LINK1, LINK2};
use lac_hw::{adapt_unit, Multiplier, Signedness};
use lac_tensor::{concat, Graph, Tensor, Var};

use crate::kernel::{fit_shift, Kernel, Metric};

/// The Inversek2j application kernel (single hardware stage).
///
/// # Examples
///
/// ```
/// use lac_apps::{InverseK2jApp, Kernel};
/// use lac_data::IkDataset;
/// use lac_hw::catalog;
/// use lac_tensor::Graph;
///
/// let app = InverseK2jApp::new();
/// let mult = app.adapt(&catalog::by_name("exact16u").unwrap());
/// let mults = vec![mult];
/// let sample = IkDataset::paper_split(1).test[0];
///
/// let coeffs = app.init_coeffs(&mults);
/// let g = Graph::new();
/// let vars: Vec<_> = coeffs.iter().map(|c| g.var(c.clone())).collect();
/// let out = app.forward_approx(&g, &sample, &vars, &mults);
/// let reference = app.reference(&sample);
/// // With exact 16-bit hardware the fixed-point kernel tracks the float
/// // reference to a few milliradians.
/// for (a, b) in out.value().data().iter().zip(reference.data()) {
///     assert!((a - b).abs() < 0.02, "{a} vs {b}");
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct InverseK2jApp;

impl InverseK2jApp {
    /// Create the Inversek2j kernel.
    pub fn new() -> Self {
        InverseK2jApp
    }

    /// Power-of-two input scale `2^b` for a multiplier with operand bound
    /// `hi`: the largest power of two not exceeding `hi`.
    fn input_scale_bits(hi: i64) -> u32 {
        let mut b = 0u32;
        while (1i64 << (b + 1)) <= hi {
            b += 1;
        }
        b
    }
}

impl Kernel for InverseK2jApp {
    type Sample = IkSample;

    fn name(&self) -> &str {
        "inversek2j"
    }

    fn metric(&self) -> Metric {
        Metric::RelativeError
    }

    fn adapt(&self, mult: &Arc<dyn Multiplier>) -> Arc<dyn Multiplier> {
        // cos θ₂ may be negative, so the datapath is signed.
        adapt_unit(mult, Signedness::Signed)
    }

    fn init_coeffs(&self, mults: &[Arc<dyn Multiplier>]) -> Vec<Tensor> {
        assert_eq!(mults.len(), 1, "inversek2j is a single-stage kernel");
        let (_, hi) = mults[0].operand_range();
        let b = Self::input_scale_bits(hi) as i32;
        let s = 2f64.powi(b);
        vec![
            // C1: (l1² + l2²) at squared input scale.
            Tensor::scalar(((LINK1 * LINK1 + LINK2 * LINK2) * s * s).round()),
            // C2: encodes 1/(2 l1 l2); with l1 = l2 = 0.5 the natural
            // mid-range encoding is 2^(b-1) (see forward_approx scaling).
            Tensor::scalar(2f64.powi(b - 1)),
            // C3, C4: l2 at input scale.
            Tensor::scalar((LINK2 * s).round()),
            Tensor::scalar((LINK2 * s).round()),
        ]
    }

    fn coeff_bounds(&self, mults: &[Arc<dyn Multiplier>]) -> Vec<(f64, f64)> {
        assert_eq!(mults.len(), 1, "inversek2j is a single-stage kernel");
        let (lo, hi) = mults[0].operand_range();
        let b = Self::input_scale_bits(hi) as i32;
        vec![
            // C1 feeds a subtraction, not a multiplier port: its range is
            // the squared-input scale.
            (0.0, 2f64.powi(2 * b + 1)),
            (lo as f64, hi as f64),
            (lo as f64, hi as f64),
            (lo as f64, hi as f64),
        ]
    }

    fn forward_approx(
        &self,
        graph: &Graph,
        sample: &Self::Sample,
        coeffs: &[Var],
        mults: &[Arc<dyn Multiplier>],
    ) -> Var {
        assert_eq!(coeffs.len(), 4, "inversek2j has four coefficients");
        assert_eq!(mults.len(), 1, "inversek2j is a single-stage kernel");
        let m = &mults[0];
        let (_, hi) = m.operand_range();
        let b = Self::input_scale_bits(hi) as i32;
        let s = 2f64.powi(b);

        let bounds = self.coeff_bounds(mults);
        let c1 = coeffs[0].quantize_ste(bounds[0].0, bounds[0].1);
        let c2 = coeffs[1].quantize_ste(bounds[1].0, bounds[1].1);
        let c3 = coeffs[2].quantize_ste(bounds[2].0, bounds[2].1);
        let c4 = coeffs[3].quantize_ste(bounds[3].0, bounds[3].1);

        // Quantized inputs at scale 2^b.
        let xi = graph.constant(Tensor::scalar((sample.x * s).round()));
        let yi = graph.constant(Tensor::scalar((sample.y * s).round()));

        // d2 = x² + y² on approximate hardware (input × input products).
        let d2 = xi.approx_mul_elem(&xi, m).add(&yi.approx_mul_elem(&yi, m));

        // num = d2 - C1 (exact subtraction), |num| <= 2 * 2^2b.
        let num = d2.sub(&c1);
        let f = fit_shift(2f64.powi(2 * b + 1), hi);
        let num_s = num.mul_scalar(2f64.powi(-(f as i32))).round_ste();

        // cos θ₂ = num / (2 l1 l2 · 2^2b)
        //        ≈ approx(num >> f, C2) · 2^(f + 2 - 3b)   for C2 = 2^(b-1),
        // because num · 2^(b-1) · 2^(f+2-3b-f) = num · 2^(1-2b) = num / (½·2^2b).
        let g_exp = f as i32 + 2 - 3 * b;
        let cos_t2 = num_s.approx_scale(&c2, m).mul_scalar(2f64.powi(g_exp));
        let theta2 = cos_t2.acos_clamped();

        // Re-quantized trigonometric intermediates at scale 2^b.
        let sin_q = theta2.sin().mul_scalar(s).round_ste();
        let cos_q = theta2.cos().mul_scalar(s).round_ste();

        // atan2(l2 sin θ₂, l1 + l2 cos θ₂), all terms at scale 2^2b
        // (atan2 is scale-invariant).
        let num2 = sin_q.approx_scale(&c3, m);
        let den = cos_q.approx_scale(&c4, m).add_scalar(LINK1 * s * s);
        let theta1 = yi.atan2(&xi).sub(&num2.atan2(&den));

        concat(&[theta1, theta2])
    }

    fn reference(&self, sample: &Self::Sample) -> Tensor {
        // Accurate branch: double-precision inverse kinematics.
        let (t1, t2) = inverse_kinematics(sample.x, sample.y);
        Tensor::from_vec(vec![t1, t2], &[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_data::IkDataset;
    use lac_hw::catalog;
    use lac_metrics::mean_relative_error;

    fn run(app: &InverseK2jApp, name: &str, sample: &IkSample) -> Vec<f64> {
        let m = app.adapt(&catalog::by_name(name).unwrap());
        let mults = vec![m];
        let coeffs = app.init_coeffs(&mults);
        let g = Graph::new();
        let vars: Vec<Var> = coeffs.iter().map(|c| g.var(c.clone())).collect();
        app.forward_approx(&g, sample, &vars, &mults).value().into_data()
    }

    #[test]
    fn exact_16bit_kernel_tracks_float_reference() {
        let app = InverseK2jApp::new();
        let ds = IkDataset::generate(0, 20, 5);
        let mut total = 0.0;
        for sample in &ds.test {
            let out = run(&app, "exact16u", sample);
            let reference = app.reference(sample);
            total += mean_relative_error(&out, reference.data(), 1e-6);
        }
        let avg = total / ds.test.len() as f64;
        assert!(avg < 0.02, "16-bit fixed-point error too high: {avg}");
    }

    #[test]
    fn reference_matches_dataset_ground_truth() {
        let app = InverseK2jApp::new();
        let ds = IkDataset::generate(0, 5, 1);
        for sample in &ds.test {
            let reference = app.reference(sample);
            assert!((reference.data()[0] - sample.theta1).abs() < 1e-9);
            assert!((reference.data()[1] - sample.theta2).abs() < 1e-9);
        }
    }

    #[test]
    fn cheap_multiplier_is_worse_than_exact() {
        let app = InverseK2jApp::new();
        let ds = IkDataset::generate(0, 20, 2);
        let err = |name: &str| {
            let mut total = 0.0;
            for sample in &ds.test {
                let out = run(&app, name, sample);
                let reference = app.reference(sample);
                total += mean_relative_error(&out, reference.data(), 1e-6);
            }
            total / ds.test.len() as f64
        };
        let exact = err("exact16u");
        let bad = err("mul8u_JV3");
        assert!(bad > exact, "JV3 ({bad}) should be worse than exact ({exact})");
    }

    #[test]
    fn four_coefficients_with_expected_inits() {
        let app = InverseK2jApp::new();
        let m = app.adapt(&catalog::by_name("exact16u").unwrap());
        let mults = vec![m];
        let coeffs = app.init_coeffs(&mults);
        assert_eq!(coeffs.len(), 4);
        // 16-bit sign-magnitude: hi = 65535, b = 15, s = 32768.
        let s = 32768.0f64;
        assert_eq!(coeffs[0].item(), (0.5 * s * s).round());
        assert_eq!(coeffs[1].item(), s / 2.0);
        assert_eq!(coeffs[2].item(), (0.5 * s).round());
    }

    #[test]
    fn output_has_two_angles() {
        let app = InverseK2jApp::new();
        let ds = IkDataset::generate(0, 1, 9);
        let out = run(&app, "DRUM16-6", &ds.test[0]);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|v| v.is_finite()));
    }
}
