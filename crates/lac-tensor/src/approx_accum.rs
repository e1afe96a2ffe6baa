//! Approximate *accumulation*: convolution whose adder tree also runs on
//! approximate hardware.
//!
//! The LAC paper approximates multipliers only ("they add the most energy
//! and time delay costs"), but the EvoApprox library it draws units from
//! is a library of approximate adders *and* multipliers. This op extends
//! LAC-style training to datapaths where the partial products of a
//! convolution are summed by an approximate adder — the natural next
//! question for a user of this library.
//!
//! Forward: each kernel-tap product goes through the multiplier model and
//! the running sum through the adder model (negative partial sums are
//! handled sign-magnitude, as in a real unsigned adder datapath with a
//! sign bit). Backward: exact-sum surrogate gradients, the same
//! straight-through convention as the multiplier ops.

use std::sync::Arc;

use lac_hw::adders::Adder;
use lac_hw::Multiplier;

use crate::graph::Var;
use crate::ops::{conv_rule, ConvShape};
use crate::tensor::Tensor;

/// Add two signed values on an unsigned adder model using sign-magnitude
/// handling: same-sign operands go through the adder, opposite signs fall
/// back to exact subtraction (a real datapath subtracts with a borrow
/// chain whose approximation we do not model).
fn approx_add_signed(adder: &dyn Adder, acc: i64, term: i64) -> i64 {
    if (acc >= 0) == (term >= 0) {
        let sign = if acc < 0 { -1 } else { 1 };
        sign * adder.add(acc.abs(), term.abs())
    } else {
        acc + term
    }
}

impl Var {
    /// Same-padded 2-D convolution with approximate multiplies *and*
    /// approximate accumulation.
    ///
    /// Like [`Var::approx_conv2d`](crate::graph::Var), with the partial
    /// products of each output pixel summed through `adder` instead of
    /// exactly.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as `conv2d`.
    pub fn approx_conv2d_accum(
        &self,
        kernel: &Var,
        mult: &Arc<dyn Multiplier>,
        adder: &Arc<dyn Adder>,
    ) -> Var {
        assert!(
            self.same_tape(kernel),
            "approx_conv2d_accum: operands belong to different graphs"
        );
        let (out, s) = self.with_values(kernel, |x, k| {
            let (h, w) = x.dims2("approx_conv2d_accum image");
            let s = ConvShape::new(h, w, k);
            // Per output, partial products join the running sum in
            // row-major tap order — the order the adder tree sees them.
            let mut acc = vec![0i64; h * w];
            s.rows(0..s.kh * s.kw, |t, pixels, outs| {
                let tap = k.data()[t].round() as i64;
                for (a, &pixel) in acc[outs].iter_mut().zip(&x.data()[pixels]) {
                    *a = approx_add_signed(&**adder, *a, mult.multiply(tap, pixel.round() as i64));
                }
            });
            (Tensor::from_vec(acc.into_iter().map(|a| a as f64).collect(), &[h, w]), s)
        });
        self.record_binary(kernel, out, |nx, nk| conv_rule(self, kernel, s, nx, nk))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use lac_hw::adders::{ExactAdder, LowerOrAdder};
    use lac_hw::catalog;

    fn exact_mult() -> Arc<dyn Multiplier> {
        catalog::by_name("exact16u").unwrap()
    }

    #[test]
    fn exact_adder_matches_plain_approx_conv() {
        let g = Graph::new();
        let x = g.var(Tensor::from_vec((0..36).map(|v| (v * 5 % 250) as f64).collect(), &[6, 6]));
        let k = g.var(Tensor::from_vec(vec![1.0, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0, 2.0, 1.0], &[3, 3]));
        let adder: Arc<dyn Adder> = Arc::new(ExactAdder::new(32));
        let mult = exact_mult();
        let with_accum = x.approx_conv2d_accum(&k, &mult, &adder);
        let plain = x.approx_conv2d(&k, &mult);
        assert_eq!(with_accum.value(), plain.value());
    }

    #[test]
    fn approximate_adder_perturbs_output() {
        let g = Graph::new();
        let x = g.var(Tensor::from_vec((0..36).map(|v| (v * 7 % 255) as f64).collect(), &[6, 6]));
        let k = g.var(Tensor::from_vec(vec![1.0, 3.0, 1.0, 3.0, 5.0, 3.0, 1.0, 3.0, 1.0], &[3, 3]));
        let adder: Arc<dyn Adder> = Arc::new(LowerOrAdder::new(16, 6));
        let mult = exact_mult();
        let approx = x.approx_conv2d_accum(&k, &mult, &adder).value();
        let exact = x.conv2d(&k).value();
        assert_ne!(approx, exact);
        // Lower-OR accumulation error stays bounded: each of the 9 adds
        // loses at most 2^6 per step.
        for (a, e) in approx.data().iter().zip(exact.data()) {
            assert!((a - e).abs() <= 9.0 * 64.0, "{a} vs {e}");
        }
    }

    #[test]
    fn backward_uses_exact_surrogate() {
        let g = Graph::new();
        let x = g.var(Tensor::full(&[4, 4], 10.0));
        let k = g.var(Tensor::from_vec(vec![0.0, 1.0, 0.0, 1.0, 2.0, 1.0, 0.0, 1.0, 0.0], &[3, 3]));
        let adder: Arc<dyn Adder> = Arc::new(LowerOrAdder::new(16, 4));
        let mult = exact_mult();
        let loss = x.approx_conv2d_accum(&k, &mult, &adder).sum();
        let grads = g.backward(&loss);
        // dOut/dk for a constant image: each tap sees the (exact) sum of
        // covered pixels — interior taps cover more than corner taps.
        let dk = grads.get(&k);
        assert!(dk.data()[4] > dk.data()[0]);
        assert!(dk.data().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn sign_magnitude_addition_helper() {
        let adder = ExactAdder::new(16);
        assert_eq!(approx_add_signed(&adder, 10, 5), 15);
        assert_eq!(approx_add_signed(&adder, -10, -5), -15);
        assert_eq!(approx_add_signed(&adder, -10, 5), -5);
        assert_eq!(approx_add_signed(&adder, 10, -5), 5);
    }
}
