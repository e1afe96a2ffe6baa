//! Numerical gradient checking.
//!
//! [`check_gradients`] compares the analytic gradients of a scalar loss
//! against central finite differences. It is used throughout this crate's
//! test suite and exported so downstream kernels (e.g. the `lac-apps`
//! pipelines) can verify their own composite gradients.

use crate::graph::{Graph, Var};
use crate::tensor::Tensor;

/// Compare analytic and numerical gradients of a scalar-valued function.
///
/// `build` receives a fresh [`Graph`] and one [`Var`] per entry of
/// `leaves` and must return a scalar loss `Var`. Each leaf element is
/// perturbed by `±eps` for the central difference; the analytic gradient
/// must match within `tol` absolute-or-relative error.
///
/// Not meaningful for losses built from quantizing or approximate ops —
/// those are deliberately non-differentiable and use straight-through
/// surrogate gradients.
///
/// # Examples
///
/// ```
/// use lac_tensor::{check_gradients, Tensor};
///
/// let x = Tensor::from_vec(vec![1.0, -2.0, 0.5], &[3]);
/// check_gradients(&[x], |_g, vars| vars[0].square().sum(), 1e-5, 1e-6);
/// ```
///
/// # Panics
///
/// Panics when any gradient entry disagrees beyond the tolerance, or when
/// `build` does not return a scalar.
pub fn check_gradients(
    leaves: &[Tensor],
    build: impl Fn(&Graph, &[Var]) -> Var,
    eps: f64,
    tol: f64,
) {
    check_surrogate_gradients(leaves, &build, &build, eps, tol);
}

/// Verify straight-through surrogate gradients against a smooth reference.
///
/// Approximate and quantizing ops are step functions of their inputs, so
/// plain finite differences of *their* loss are meaningless (zero or
/// spiky). The STE convention instead defines their backward pass as the
/// gradients of the exact smooth operation. This checker makes that
/// contract testable: analytic gradients come from the loss built by
/// `surrogate` (approximate forward, surrogate backward), numerical
/// central differences come from the loss built by `smooth` (the exact
/// ops whose gradients the surrogate claims to reproduce).
///
/// For the check to be exact the two losses only need matching *gradient
/// structure*, not matching values — e.g. `approx_matmul` under any unit
/// versus exact `matmul`.
///
/// # Examples
///
/// ```
/// use lac_hw::catalog;
/// use lac_tensor::{check_surrogate_gradients, Tensor};
///
/// let mult = catalog::by_name("kulkarni8u").unwrap();
/// let a = Tensor::from_vec(vec![3.0, 5.0], &[1, 2]);
/// let b = Tensor::from_vec(vec![3.0, 2.0], &[2, 1]);
/// check_surrogate_gradients(
///     &[a, b],
///     |_g, v| v[0].approx_matmul(&v[1], &mult).sum(),
///     |_g, v| v[0].matmul(&v[1]).sum(),
///     1e-5,
///     1e-6,
/// );
/// ```
///
/// # Panics
///
/// Panics when any surrogate gradient entry disagrees with the smooth
/// loss's numerical gradient beyond `tol`, or when either builder does
/// not return a scalar.
pub fn check_surrogate_gradients(
    leaves: &[Tensor],
    surrogate: impl Fn(&Graph, &[Var]) -> Var,
    smooth: impl Fn(&Graph, &[Var]) -> Var,
    eps: f64,
    tol: f64,
) {
    let build = |g: &Graph, leaves: &[Tensor], f: &dyn Fn(&Graph, &[Var]) -> Var| {
        let vars: Vec<Var> = leaves.iter().map(|t| g.var(t.clone())).collect();
        let loss = f(g, &vars);
        assert_eq!(loss.value().len(), 1, "a gradient check requires a scalar loss");
        (vars, loss)
    };
    // Analytic gradients of the surrogate (approximate-forward) loss.
    let graph = Graph::new();
    let (vars, loss) = build(&graph, leaves, &surrogate);
    let grads = graph.backward(&loss);
    let analytic: Vec<Tensor> = vars.iter().map(|v| grads.get(v)).collect();

    // Numerical gradients of the smooth reference loss.
    let eval = |leaves: &[Tensor]| build(&Graph::new(), leaves, &smooth).1.item();

    let mut perturbed: Vec<Tensor> = leaves.to_vec();
    for (li, leaf) in leaves.iter().enumerate() {
        for ei in 0..leaf.len() {
            let orig = leaf.data()[ei];
            perturbed[li].data_mut()[ei] = orig + eps;
            let plus = eval(&perturbed);
            perturbed[li].data_mut()[ei] = orig - eps;
            let minus = eval(&perturbed);
            perturbed[li].data_mut()[ei] = orig;

            let numeric = (plus - minus) / (2.0 * eps);
            let got = analytic[li].data()[ei];
            let scale = 1.0f64.max(numeric.abs());
            assert!(
                (got - numeric).abs() <= tol * scale,
                "gradient mismatch at leaf {li} element {ei}: analytic {got}, numeric {numeric}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_hw::catalog;

    #[test]
    fn passes_on_correct_gradient() {
        let x = Tensor::from_vec(vec![0.3, -1.2], &[2]);
        check_gradients(&[x], |_g, v| v[0].mul(&v[0]).sum(), 1e-5, 1e-6);
    }

    #[test]
    fn composite_expression() {
        let x = Tensor::from_vec(vec![0.5, 1.5, -0.5], &[3]);
        let y = Tensor::from_vec(vec![2.0, -1.0, 0.25], &[3]);
        check_gradients(
            &[x, y],
            |_g, v| v[0].mul(&v[1]).add_scalar(1.0).square().mean(),
            1e-5,
            1e-6,
        );
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn rejects_non_scalar_loss() {
        let x = Tensor::ones(&[2]);
        check_gradients(&[x], |_g, v| v[0].clone(), 1e-5, 1e-6);
    }

    #[test]
    fn approx_matmul_surrogate_matches_exact_matmul_gradients() {
        let mult = catalog::by_name("kulkarni8u").unwrap();
        let a = Tensor::from_vec(vec![3.0, 5.0, 7.0, 2.0, 11.0, 4.0], &[2, 3]);
        let b = Tensor::from_vec(vec![3.0, 9.0, 6.0, 5.0, 13.0, 8.0], &[3, 2]);
        check_surrogate_gradients(
            &[a, b],
            |_g, v| v[0].approx_matmul(&v[1], &mult).sum(),
            |_g, v| v[0].matmul(&v[1]).sum(),
            1e-4,
            1e-6,
        );
    }

    /// The JPEG hot path runs 8×8 DCT matmuls through the LUT-wrapped
    /// signed adapter, where the backward pass uses the fused
    /// `matmul_abt` / `matmul_atb` kernels. Parametrize the surrogate
    /// check over the DCT shapes (square 8×8 plus the non-square shapes
    /// that bracket it) so those kernels — not just the tiny matmul
    /// above — carry gradcheck coverage.
    #[test]
    fn approx_matmul_surrogate_matches_exact_at_dct_shapes() {
        for unit in ["mul8u_FTA", "ETM8-k4"] {
            let mult = lac_hw::LutMultiplier::maybe_wrap(lac_hw::signed_capable(
                catalog::by_name(unit).unwrap(),
            ));
            for &(m, k, n) in &[(8usize, 8usize, 8usize), (8, 8, 3), (3, 8, 8), (1, 8, 8)] {
                // Signed integer operands in the DCT coefficient range.
                let a = Tensor::from_vec(
                    (0..m * k).map(|v| (((v * 37) % 91) as f64) - 45.0).collect(),
                    &[m, k],
                );
                let b = Tensor::from_vec(
                    (0..k * n).map(|v| (((v * 53) % 101) as f64) - 50.0).collect(),
                    &[k, n],
                );
                check_surrogate_gradients(
                    &[a, b],
                    |_g, v| v[0].approx_matmul(&v[1], &mult).sum(),
                    |_g, v| v[0].matmul(&v[1]).sum(),
                    1e-4,
                    1e-6,
                );
            }
        }
    }

    #[test]
    fn approx_conv2d_surrogate_matches_exact_conv_gradients() {
        // Exercise the LUT fast path's backward too: wrap the unit.
        let mult = lac_hw::LutMultiplier::maybe_wrap(catalog::by_name("ETM8-k4").unwrap());
        let x = Tensor::from_vec((0..25).map(|v| ((v * 7) % 19) as f64).collect(), &[5, 5]);
        let k = Tensor::from_vec(vec![1.0, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0, 2.0, 1.0], &[3, 3]);
        check_surrogate_gradients(
            &[x, k],
            |_g, v| v[0].approx_conv2d(&v[1], &mult).mean(),
            |_g, v| v[0].conv2d(&v[1]).mean(),
            1e-4,
            1e-6,
        );
    }

    #[test]
    fn approx_mul_elem_and_scale_surrogates_match_exact_gradients() {
        let mult = catalog::by_name("mul8u_JV3").unwrap();
        let a = Tensor::from_vec(vec![3.0, 5.0, 9.0, 14.0], &[4]);
        let b = Tensor::from_vec(vec![6.0, 2.0, 11.0, 7.0], &[4]);
        check_surrogate_gradients(
            &[a.clone(), b],
            |_g, v| v[0].approx_mul_elem(&v[1], &mult).sum(),
            |_g, v| v[0].mul(&v[1]).sum(),
            1e-4,
            1e-6,
        );
        let c = Tensor::scalar(5.0);
        check_surrogate_gradients(
            &[a, c],
            |_g, v| v[0].approx_scale(&v[1], &mult).sum(),
            // The coefficient enters through `.item()`, so the numeric
            // difference still sees its perturbation.
            |_g, v| v[0].mul_scalar(v[1].item()).sum(),
            1e-4,
            1e-6,
        );
    }
}
