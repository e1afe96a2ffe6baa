//! Gradients only where needed: recording a data operand as a
//! [`Graph::constant`] instead of a [`Graph::var`] skips its side of every
//! backward kernel, and must change no output and no coefficient gradient
//! by a single bit — for every op LAC trains through, on tabulated,
//! untabulated and sign-magnitude units.

use std::sync::Arc;

use lac_hw::{catalog, signed_capable, LutMultiplier, Multiplier};
use lac_rt::proptest::prelude::*;
use lac_tensor::{BlockSide, Graph, Tensor, Var};

/// The units under test: a tabulated unsigned unit, its tabulated
/// sign-magnitude adapter, an untabulated sign-magnitude adapter and an
/// untabulated wide signed unit.
fn unit(index: usize) -> Arc<dyn Multiplier> {
    let by_name = |name: &str| catalog::by_name(name).unwrap();
    match index {
        0 => LutMultiplier::maybe_wrap(by_name("mul8u_FTA")),
        1 => LutMultiplier::maybe_wrap(signed_capable(by_name("mul8u_FTA"))),
        2 => signed_capable(by_name("kulkarni8u")),
        _ => by_name("mul16s_GAT"),
    }
}

/// A deterministic tensor of `shape` from `seed`: mostly integral values
/// inside `lo..=hi`, with zeros and a few off-grid values sprinkled in.
fn tensor(seed: u64, shape: &[usize], (lo, hi): (i64, i64)) -> Tensor {
    let len = shape.iter().product();
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let data = (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let span = (hi - lo + 1) as u64;
            let v = (lo + (state % span) as i64) as f64;
            match state % 11 {
                0 => 0.0,
                1 => v + 0.3,
                _ => v,
            }
        })
        .collect();
    Tensor::from_vec(data, shape)
}

fn bits(t: &Tensor) -> Vec<u64> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Run `op(data, coeff)` three times — both operands as vars, the data
/// as a constant, the coefficient as a constant — under the same
/// upstream gradient `weights`, and require identical output bits and
/// identical gradient bits for every operand that is a var, with zeros
/// for the constant.
fn check(
    what: &str,
    data: &Tensor,
    coeff: &Tensor,
    weights_seed: u64,
    op: impl Fn(&Var, &Var) -> Var,
) -> Result<(), TestCaseError> {
    let run = |data_var: bool, coeff_var: bool| {
        let g = Graph::new();
        let leaf = |t: &Tensor, is_var: bool| {
            if is_var {
                g.var(t.clone())
            } else {
                g.constant(t.clone())
            }
        };
        let (x, c) = (leaf(data, data_var), leaf(coeff, coeff_var));
        let out = op(&x, &c);
        let weights = g.constant(tensor(weights_seed, &out.shape(), (-3, 3)));
        let grads = g.backward(&out.mul(&weights).sum());
        (out.value(), grads.get(&x), grads.get(&c))
    };
    let (out, dx, dc) = run(true, true);
    let (out_dc, dx_const, dc_only) = run(false, true);
    let (out_dx, dx_only, dc_const) = run(true, false);
    for other in [&out_dc, &out_dx] {
        prop_assert_eq!(bits(&out), bits(other), "{}: output", what);
    }
    prop_assert_eq!(bits(&dc), bits(&dc_only), "{}: coefficient gradient", what);
    prop_assert_eq!(bits(&dx), bits(&dx_only), "{}: data gradient", what);
    for zero in [&dx_const, &dc_const] {
        prop_assert!(zero.data().iter().all(|&v| v.to_bits() == 0), "{}: constant gradient", what);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every op LAC trains through, data operand constant vs var.
    #[test]
    fn constant_data_operands_change_no_bit(
        dims in (1usize..5, 1usize..5, 1usize..5),
        stack in (1usize..4, 0usize..2),
        unit_index in 0usize..4,
        seed in any::<u64>(),
    ) {
        let ((m, k, n), (bands, kernel)) = (dims, stack);
        let mult = unit(unit_index);
        let (lo, hi) = mult.operand_range();
        let range = (lo.max(-40), hi.min(60));
        let kd = 2 * kernel + 1;
        let t = |s: u64, shape: &[usize]| tensor(seed ^ s, shape, range);
        let w = seed.rotate_left(17);

        let (img, taps) = (t(1, &[m + 1, n + 1]), t(2, &[kd, kd]));
        check("approx_conv2d", &img, &taps, w, |x, c| x.approx_conv2d(c, &mult))?;
        check("conv2d", &img, &taps, w, |x, c| x.conv2d(c))?;
        let stack = t(3, &[bands * (m + 1), n + 1]);
        check("approx_conv2d_stacked", &stack, &taps, w, |x, c| {
            x.approx_conv2d_stacked(c, &mult, m + 1)
        })?;

        // Coefficient on the left (a JPEG stage), then on the right.
        let (lhs, rhs) = (t(4, &[m, k]), t(5, &[k, n]));
        check("approx_matmul coeff·data", &rhs, &lhs, w, |x, c| c.approx_matmul(x, &mult))?;
        check("approx_matmul data·coeff", &lhs, &rhs, w, |x, c| x.approx_matmul(c, &mult))?;
        check("approx_matmul_scale_round", &rhs, &lhs, w, |x, c| {
            c.approx_matmul_scale_round(x, &mult, 0.25)
        })?;
        check("matmul coeff·data", &rhs, &lhs, w, |x, c| c.matmul(x))?;
        check("matmul data·coeff", &lhs, &rhs, w, |x, c| x.matmul(c))?;

        let (blocks, c) = (t(6, &[bands * k, k]), t(7, &[k, k]));
        for side in [BlockSide::Forward, BlockSide::Inverse] {
            check("approx_block_transform", &blocks, &c, w, |x, c| {
                x.approx_block_transform(c, side, &mult, [0.5, 0.25, 0.125])
            })?;
        }

        let (elems, table) = (t(8, &[m, n]), t(9, &[m, n]));
        check("approx_mul_elem", &elems, &table, w, |x, c| x.approx_mul_elem(c, &mult))?;
        check("approx_mul_elem_scale", &elems, &table, w, |x, c| {
            x.approx_mul_elem_scale(c, &mult, 0.5)
        })?;
        check("mul_round_ste", &elems, &table, w, |x, c| x.mul_round_ste(c))?;
        check("approx_scale", &elems, &t(10, &[1]), w, |x, c| x.approx_scale(c, &mult))?;
    }
}
