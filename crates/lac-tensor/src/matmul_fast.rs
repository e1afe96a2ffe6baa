//! The LUT matmul kernel and the fused backward kernels.
//!
//! Every `approx_matmul` with a tabulated unit multiplies by looking
//! each scalar product up in the unit's dense product table
//! ([`DenseLut`]). [`matmul_lut`] quantizes both operands once — the lhs
//! into row offsets, the rhs into column offsets — and then runs an
//! `i-p-j` loop: for each `a[i, p]` it takes that operand's row of the
//! table, `side` products long, and adds `row[col(b[p, j])]` into an
//! `i64` accumulator for `out[i, j]` across the row, converting each
//! output to `f64` once.
//!
//! # Bit-equivalence contract
//!
//! [`matmul_lut`] produces output **bit-identical** to the `i-j-p`
//! reference loop over [`DenseLut::product`], which sums in `f64` in
//! ascending `p` from `0.0`: every product is an integer and an output
//! sums far fewer than 2^21 of them, so every `f64` partial sum of the
//! reference is exact and equals the `i64` sum (the exact-sum lemma,
//! DESIGN.md §7b). Operands are quantized by
//! [`DenseLut::row`]/[`DenseLut::col`], the same round-and-clamp as the
//! reference.
//!
//! The fused backward kernels ([`matmul_abt`], [`matmul_atb`]) keep
//! `Tensor::matmul`'s per-output add order and zero-skip exactly, so
//! surrogate gradients are bit-identical to `g.matmul(&b.transpose())` /
//! `a.transpose().matmul(g)`. Their inner loops are slice zips down
//! contiguous rows, which the compiler vectorizes: `matmul_atb` reads
//! `g` and `out` row by row as they lie, and `matmul_abt` first copies
//! `b` transposed into a pooled scratch buffer (`k · n` copies against
//! `m · k · n` multiply-adds) and then runs `Tensor::matmul`'s own loop,
//! `matmul_acc`. They work on slices, so one copy of each
//! serves whole operands (`approx_matmul`) and the blocks of a stacked
//! operand (`approx_block_transform`) alike.
//!
//! Operand quantization rounds through [`lac_hw::round_half_away`] (via
//! [`DenseLut::col`]), `f64::round`'s bits without the libm call.

use lac_hw::DenseLut;

use crate::pool;
use crate::tensor::{matmul_acc, Tensor};

/// The `[m, n]` output of a forward approximate matmul: row `i` is the
/// `i64` sum over `p` of the product rows `add_row(i, p, acc)` adds into
/// `acc`, converted to `f64` once per output.
pub(crate) fn sum_product_rows(
    (m, k, n): (usize, usize, usize),
    mut add_row: impl FnMut(usize, usize, &mut [i64]),
) -> Tensor {
    let mut out = Tensor::zeros(&[m, n]);
    if n == 0 {
        return out;
    }
    let mut acc = vec![0i64; n];
    for (i, orow) in out.data_mut().chunks_exact_mut(n).enumerate() {
        acc.fill(0);
        for p in 0..k {
            add_row(i, p, &mut acc);
        }
        orow.iter_mut().zip(&acc).for_each(|(o, &s)| *o = s as f64);
    }
    out
}

/// `a · b` (`[m, k]` × `[k, n]`) with every scalar product read from
/// `lut`: `out[i, j]` is the `i64` sum of
/// `table[row(a[i, p]) + col(b[p, j])]` over `p`, looped `i-p-j` over
/// rows of the table.
pub(crate) fn matmul_lut(a: &Tensor, b: &Tensor, lut: DenseLut<'_>) -> Tensor {
    let (m, k) = a.dims2("approx_matmul lhs");
    let (_, n) = b.dims2("approx_matmul rhs");
    let (table, side) = (lut.table(), lut.side());
    let arows: Vec<usize> = a.data().iter().map(|&v| lut.row(v)).collect();
    let bcols: Vec<usize> = b.data().iter().map(|&v| lut.col(v)).collect();
    sum_product_rows((m, k, n), |i, p, acc| {
        let row = &table[arows[i * k + p]..][..side];
        for (s, &c) in acc.iter_mut().zip(&bcols[p * n..][..n]) {
            *s += i64::from(row[c]);
        }
    })
}

/// Gradients `[g · bᵀ, aᵀ · g]` of the product `a · b` (`[m, k]` ×
/// `[k, n]`) under the upstream gradient `g`, `[m, n]`, by the fused
/// kernels below. Each gradient reads only the other operand: `da` is
/// computed when `b` is given and `db` when `a` is, so a caller passes
/// just the operands the gradients it needs read.
pub(crate) fn matmul_grads(
    a: Option<&Tensor>,
    b: Option<&Tensor>,
    g: &Tensor,
) -> [Option<Tensor>; 2] {
    let (m, n) = g.dims2("matmul gradient");
    let da = b.map(|b| {
        let k = b.dims2("matmul rhs").0;
        let mut da = Tensor::zeros(&[m, k]);
        matmul_abt(g.data(), b.data(), da.data_mut(), (m, n, k));
        da
    });
    let db = a.map(|a| {
        let k = a.dims2("matmul lhs").1;
        let mut db = Tensor::zeros(&[k, n]);
        matmul_atb(a.data(), g.data(), db.data_mut(), (m, k, n));
        db
    });
    [da, db]
}

/// `g · bᵀ`: `g` is `[m, n]`, `b` is `[k, n]`, and the product is added
/// into `out`, `[m, k]`, which callers pass zeroed. `b` is first copied
/// transposed into a pooled scratch buffer, then `Tensor::matmul`'s own
/// loop ([`matmul_acc`]) runs down contiguous rows: each output sums
/// `g[i, p] · b[j, p]` in ascending `p`, skipping `g[i, p] == 0`, exactly
/// as `Tensor::matmul(g, b.transpose())` does — gradients are
/// bit-identical.
pub(crate) fn matmul_abt(g: &[f64], b: &[f64], out: &mut [f64], (m, n, k): (usize, usize, usize)) {
    assert!(
        g.len() == m * n && b.len() == k * n && out.len() == m * k,
        "matmul_abt: operands do not match {m}x{n} · ({k}x{n})ᵀ"
    );
    if n == 0 || k == 0 {
        return;
    }
    // `bt` is `bᵀ`, `[n, k]`: row `p` is column `p` of `b`.
    let mut bt = pool::take_with_capacity(n * k);
    for p in 0..n {
        bt.extend(b[p..].iter().step_by(n));
    }
    matmul_acc(g, &bt, out, n, k);
    pool::give(bt);
}

/// `aᵀ · g`: `a` is `[m, k]`, `g` is `[m, n]`, and the product is added
/// into `out`, `[k, n]`, which callers pass zeroed. Each output sums
/// `a[p, i] · g[p, j]` in ascending `p`, skipping `a[p, i] == 0`, down
/// contiguous rows of `g` and `out` — bit-identical to
/// `Tensor::matmul(a.transpose(), g)` without materializing `aᵀ`.
pub(crate) fn matmul_atb(a: &[f64], g: &[f64], out: &mut [f64], (m, k, n): (usize, usize, usize)) {
    assert!(
        a.len() == m * k && g.len() == m * n && out.len() == k * n,
        "matmul_atb: operands do not match ({m}x{k})ᵀ · {m}x{n}"
    );
    if n == 0 || k == 0 {
        return;
    }
    for (i, o_row) in out.chunks_exact_mut(n).enumerate() {
        for (a_row, g_row) in a.chunks_exact(k).zip(g.chunks_exact(n)) {
            let av = a_row[i];
            if av == 0.0 {
                continue;
            }
            for (o, &gv) in o_row.iter_mut().zip(g_row) {
                *o += av * gv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_hw::{catalog, LutMultiplier, Multiplier};
    use std::sync::Arc;

    fn lut_unit(name: &str) -> Arc<dyn Multiplier> {
        LutMultiplier::maybe_wrap(catalog::by_name(name).unwrap())
    }

    fn tensor(seed: u64, rows: usize, cols: usize, span: f64) -> Tensor {
        let data = (0..rows * cols)
            .map(|i| (((i as u64).wrapping_mul(2654435761).wrapping_add(seed * 977)) % 1013) as f64
                % span
                - span / 3.0)
            .collect();
        Tensor::from_vec(data, &[rows, cols])
    }

    /// The `i-j-p` reference: each output sums `lut.product` of its
    /// quantized operands in ascending `p` from `0.0`.
    fn reference(a: &Tensor, b: &Tensor, lut: DenseLut<'_>) -> Tensor {
        let (m, k) = a.dims2("reference lhs");
        let (_, n) = b.dims2("reference rhs");
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += lut.product(lut.row(a.data()[i * k + p]), lut.col(b.data()[p * n + j]));
                }
                out.data_mut()[i * n + j] = acc;
            }
        }
        out
    }

    /// `matmul_lut` matches the reference bit for bit on tabulated
    /// unsigned units and a sign-magnitude adapter, across degenerate
    /// shapes, matrix-vector shapes, wide rows and `k == 0`.
    #[test]
    fn matmul_lut_matches_the_ijp_reference_bit_for_bit() {
        let signed = LutMultiplier::maybe_wrap(lac_hw::signed_capable(
            catalog::by_name("mul8u_FTA").unwrap(),
        ));
        let units = ["mul8u_FTA", "mul8u_JV3", "kulkarni8u", "exact8u"]
            .map(lut_unit)
            .into_iter()
            .chain([signed]);
        let shapes = [
            (8, 8, 8),
            (3, 7, 5),
            (1, 9, 4),
            (6, 1, 3),
            (5, 130, 2),
            (4, 256, 1),
            (1, 1, 1),
            (1, 8, 1),
            (1, 1, 9),
            (9, 1, 1),
            (0, 3, 4),
            (3, 0, 4),
            (3, 0, 1),
            (3, 4, 0),
            (67, 2, 65),
            (2, 3, 63),
            (2, 3, 128),
        ];
        for unit in units {
            let lut = unit.as_lut().expect("tabulated unit");
            for (m, k, n) in shapes {
                // Spans past both ends of the operand range exercise the
                // clamp, and the fractional offset (`span / 3`) the round.
                let a = tensor(3, m, k, 600.5);
                let b = tensor(17, k, n, 600.5);
                let want = reference(&a, &b, lut);
                let got = matmul_lut(&a, &b, lut);
                assert_eq!(got.shape(), want.shape(), "{} {m}x{k}x{n}", unit.name());
                for (idx, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{} {m}x{k}x{n} @{idx}",
                        unit.name()
                    );
                }
            }
        }
    }

    #[test]
    fn fused_backward_kernels_match_transposed_matmuls() {
        let shapes = [
            (8, 8, 8),
            (2, 5, 3),
            (1, 4, 6),
            (7, 1, 2),
            (3, 3, 0),
            (0, 3, 4),
            (3, 0, 4),
            (5, 9, 130),
        ];
        for (m, k, n) in shapes {
            let mut a = tensor(11, m, k, 50.0);
            let b = tensor(13, k, n, 50.0);
            let mut g = tensor(19, m, n, 20.0);
            // Exercise both kernels' zero-skip branches.
            for t in [&mut a, &mut g] {
                if !t.is_empty() {
                    t.data_mut()[0] = 0.0;
                }
            }
            let da_ref = g.matmul(&b.transpose());
            let db_ref = a.transpose().matmul(&g);
            let [Some(da), Some(db)] = matmul_grads(Some(&a), Some(&b), &g) else {
                panic!("both operands given, both gradients expected")
            };
            // One operand given: only the gradient that reads it.
            assert!(matches!(matmul_grads(Some(&a), None, &g), [None, Some(_)]));
            assert!(matches!(matmul_grads(None, Some(&b), &g), [Some(_), None]));
            assert_eq!(da.shape(), da_ref.shape());
            assert_eq!(db.shape(), db_ref.shape());
            for (x, y) in da.data().iter().zip(da_ref.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "abt {m}x{k}x{n}");
            }
            for (x, y) in db.data().iter().zip(db_ref.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "atb {m}x{k}x{n}");
            }
        }
    }
}
