//! Straight-through-estimator (STE) quantization.
//!
//! The LAC paper (Section III-D) keeps a high-precision floating-point
//! master copy of every coefficient and quantizes to integers on the fly,
//! passing gradients straight through the rounding — the estimator of
//! Bengio (2013) used for training quantized neural networks. The
//! [`Var::quantize_ste`] op implements exactly that, with the *clipped*
//! variant: gradients are zeroed where the master value has saturated the
//! integer range, so Adam cannot push coefficients ever further out of
//! range.

use lac_hw::round_half_away;

use crate::graph::Var;
use crate::ops::product_rule;
use crate::tensor::Tensor;

impl Var {
    /// Round to the nearest integer and clamp into `[lo, hi]`; gradients
    /// pass straight through except where the input saturated the range.
    ///
    /// `lo`/`hi` are the operand bounds of the target hardware (e.g.
    /// `(0, 255)` for an 8-bit unsigned multiplier port).
    ///
    /// # Examples
    ///
    /// ```
    /// use lac_tensor::{Graph, Tensor};
    ///
    /// let g = Graph::new();
    /// let w = g.var(Tensor::from_vec(vec![1.4, -0.6, 300.0], &[3]));
    /// let q = w.quantize_ste(0.0, 255.0);
    /// assert_eq!(q.value().data(), &[1.0, 0.0, 255.0]);
    ///
    /// let loss = q.sum();
    /// let grads = g.backward(&loss);
    /// // Gradient flows through the in-range lane and is clipped on the
    /// // two saturated lanes (-0.6 < 0 and 300 > 255).
    /// assert_eq!(grads.get(&w).data(), &[1.0, 0.0, 0.0]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn quantize_ste(&self, lo: f64, hi: f64) -> Var {
        assert!(lo <= hi, "quantize_ste bounds inverted: [{lo}, {hi}]");
        let value = self.with_value(|a| a.map(|v| round_half_away(v).clamp(lo, hi)));
        self.record_unary(value, || {
            let a = self.value();
            move |g: &Tensor| {
                g.zip_map(&a, |gv, av| {
                    // Clipped STE: block the gradient once the master value
                    // has left the representable range.
                    if av < lo || av > hi {
                        0.0
                    } else {
                        gv
                    }
                })
            }
        })
    }

    /// Round to the nearest integer with a plain straight-through gradient
    /// (no range clipping). Used for intermediate datapath values that are
    /// re-quantized between stages.
    pub fn round_ste(&self) -> Var {
        let value = self.with_value(|a| a.map(round_half_away));
        self.record_unary(value, || |g: &Tensor| g.clone())
    }

    /// Fused `mul_scalar(c).round_ste()`: scale by an exact constant (a
    /// power-of-two datapath shift) and round, recording one tape node
    /// instead of two. Forward values and the straight-through gradient
    /// `g · c` are bit-identical to the unfused pair.
    pub fn scale_round_ste(&self, c: f64) -> Var {
        let value = self.with_value(|a| a.map(|v| round_half_away(v * c)));
        self.record_unary(value, || move |g: &Tensor| g.map(|gv| gv * c))
    }

    /// Fused `mul(other).round_ste()`: elementwise product followed by
    /// rounding in one tape node. Gradients are the product rule's with
    /// the rounding passed straight through — bit-identical to the
    /// unfused pair.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or cross-graph operands.
    pub fn mul_round_ste(&self, other: &Var) -> Var {
        assert!(self.same_tape(other), "mul_round_ste: operands belong to different graphs");
        let value = self.with_values(other, |a, b| a.zip_map(b, |x, y| round_half_away(x * y)));
        self.record_binary(other, value, |na, nb| product_rule(self, other, na, nb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    #[test]
    fn forward_rounds_and_clamps() {
        let g = Graph::new();
        let w = g.var(Tensor::from_vec(vec![1.5, 2.49, -3.7, 400.0, -400.0], &[5]));
        let q = w.quantize_ste(-255.0, 255.0);
        assert_eq!(q.value().data(), &[2.0, 2.0, -4.0, 255.0, -255.0]);
    }

    #[test]
    fn gradient_passes_through_in_range() {
        let g = Graph::new();
        let w = g.var(Tensor::from_vec(vec![10.3, -5.8], &[2]));
        let loss = w.quantize_ste(-255.0, 255.0).square().sum();
        let grads = g.backward(&loss);
        // d/dq (q²) = 2q evaluated at the quantized values, passed through.
        assert_eq!(grads.get(&w).data(), &[20.0, -12.0]);
    }

    #[test]
    fn gradient_clipped_at_saturation() {
        let g = Graph::new();
        let w = g.var(Tensor::from_vec(vec![300.0, -300.0, 100.0], &[3]));
        let loss = w.quantize_ste(-255.0, 255.0).sum();
        let grads = g.backward(&loss);
        assert_eq!(grads.get(&w).data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn round_ste_keeps_gradient() {
        let g = Graph::new();
        let w = g.var(Tensor::from_vec(vec![1.4], &[1]));
        let loss = w.round_ste().mul_scalar(3.0).sum();
        let grads = g.backward(&loss);
        assert_eq!(grads.get(&w).data(), &[3.0]);
        assert_eq!(w.round_ste().value().data(), &[1.0]);
    }

    #[test]
    fn half_way_rounds_away_from_zero() {
        // Documents Rust's f64::round tie-breaking, which the datapath
        // inherits.
        let g = Graph::new();
        let w = g.var(Tensor::from_vec(vec![0.5, -0.5], &[2]));
        assert_eq!(w.quantize_ste(-10.0, 10.0).value().data(), &[1.0, -1.0]);
    }

    /// The fused scale-and-round node must match the two-node chain
    /// bit-for-bit in both forward values and gradients.
    #[test]
    fn fused_scale_round_matches_unfused_bits() {
        let vals: Vec<f64> = (0..32).map(|i| (i as f64 - 15.3) * 0.37).collect();
        for s in [0.5, 0.125, 8.0, 2f64.powi(-7), 3.7] {
            let g1 = Graph::new();
            let w1 = g1.var(Tensor::from_vec(vals.clone(), &[32]));
            let unfused = w1.mul_scalar(s).round_ste();
            let gr1 = g1.backward(&unfused.square().sum());

            let g2 = Graph::new();
            let w2 = g2.var(Tensor::from_vec(vals.clone(), &[32]));
            let fused = w2.scale_round_ste(s);
            let gr2 = g2.backward(&fused.square().sum());

            for (a, b) in unfused.value().data().iter().zip(fused.value().data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "forward diverged at scale {s}");
            }
            for (a, b) in gr1.get(&w1).data().iter().zip(gr2.get(&w2).data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "gradient diverged at scale {s}");
            }
        }
    }

    /// Same for the fused elementwise-multiply-and-round node.
    #[test]
    fn fused_mul_round_matches_unfused_bits() {
        let av: Vec<f64> = (0..16).map(|i| (i as f64 - 7.2) * 1.13).collect();
        let bv: Vec<f64> = (0..16).map(|i| 1.0 / (i as f64 + 1.5)).collect();

        let g1 = Graph::new();
        let a1 = g1.var(Tensor::from_vec(av.clone(), &[16]));
        let b1 = g1.var(Tensor::from_vec(bv.clone(), &[16]));
        let unfused = a1.mul(&b1).round_ste();
        let gr1 = g1.backward(&unfused.square().sum());

        let g2 = Graph::new();
        let a2 = g2.var(Tensor::from_vec(av, &[16]));
        let b2 = g2.var(Tensor::from_vec(bv, &[16]));
        let fused = a2.mul_round_ste(&b2);
        let gr2 = g2.backward(&fused.square().sum());

        assert_eq!(unfused.value(), fused.value());
        for (u, f) in [(gr1.get(&a1), gr2.get(&a2)), (gr1.get(&b1), gr2.get(&b2))] {
            for (x, y) in u.data().iter().zip(f.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "gradient diverged");
            }
        }
    }

    #[test]
    #[should_panic(expected = "different graphs")]
    fn mul_round_ste_rejects_cross_graph() {
        let g1 = Graph::new();
        let g2 = Graph::new();
        let a = g1.var(Tensor::scalar(1.0));
        let b = g2.var(Tensor::scalar(2.0));
        let _ = a.mul_round_ste(&b);
    }

    #[test]
    #[should_panic(expected = "bounds inverted")]
    fn rejects_inverted_bounds() {
        let g = Graph::new();
        let w = g.var(Tensor::scalar(0.0));
        let _ = w.quantize_ste(1.0, -1.0);
    }
}
