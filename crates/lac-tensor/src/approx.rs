//! Differentiable operations that execute on approximate hardware.
//!
//! Forward passes evaluate the true behavioral model of the approximate
//! multiplier on integer operands; backward passes use the gradients of
//! the *exact* product — the straight-through convention of
//! approximate-aware training frameworks (TFApprox, AdaPT) that the LAC
//! paper follows. Intuitively: the approximate product is treated as
//! `a·b + ε(a, b)` where `ε` is piecewise constant, so its surrogate
//! derivative is the exact product's.
//!
//! Operand values are expected to be integral (produced by
//! [`Var::quantize_ste`](crate::graph::Var::quantize_ste) or integral
//! inputs); they are rounded defensively and clamped into the unit's
//! operand range by the multiplier model itself.

use std::sync::Arc;

use lac_hw::{operand_offset, round_half_away, Multiplier};

use crate::graph::Var;
use crate::matmul_fast;
use crate::ops::{conv_rule, matmul_rule, product_rule, ConvShape};
use crate::tensor::Tensor;

fn approx_product(mult: &dyn Multiplier, a: f64, b: f64) -> i64 {
    mult.multiply(round_half_away(a) as i64, round_half_away(b) as i64)
}

/// The exact-sum lemma's bound (DESIGN.md §7b), checked once per op
/// call: a unit of at most 16-bit operands has products below 2^32 in
/// magnitude, so a sum of at most 2^21 of them stays below 2^53. Every
/// `f64` partial sum of it is then an exact integer, whatever the add
/// order, and equals the `i64` sum converted once, which is how the
/// forward kernels sum.
fn assert_exact_sums(terms: usize, mult: &dyn Multiplier) {
    let bits = mult.bits();
    assert!(terms <= 1 << 21 && bits <= 16, "{terms} products of {bits}-bit {}", mult.name());
}

// ---------------------------------------------------------------------
// Devirtualized fast paths.
//
// When the multiplier memoizes its full product table
// (`Multiplier::as_lut` returns a view), the forwards below resolve the
// table once per tensor op, pre-quantize each operand buffer into
// row/column indices outside the inner loop, and read every product
// straight out of the table. Values are bit-identical to one `multiply`
// call per product: `DenseLut::row`/`col` perform exactly the
// round-and-clamp of `Multiplier::multiply`, and the table holds the
// unit's own outputs.
//
// Units without a table (wide 16-bit models, sign-magnitude adapters)
// make one `Multiplier::multiply_row` call per row of products sharing a
// first operand, whose contract is one `multiply` per element.
// `approx_matmul` calls it once per element `a[i,p]` against row `p` of
// `b`. The tap-wise ops (`approx_conv2d`, `approx_conv2d_stacked`,
// `approx_scale`) fill one product row per distinct tap over the span of
// the rounded pixels with it, gather, and drop the rows when they
// return. Elementwise products stay one call per pair.
// ---------------------------------------------------------------------

/// Where [`ProductRows`] reads its products.
enum RowTable<'a> {
    /// The unit's dense table.
    Dense(&'a [i32]),
    /// Rows built for this op; a wide unit's products need 32 bits.
    Built(Vec<i64>),
}

/// Every product of one op's taps × pixels, tabulated: `get(t, col(v))`
/// is `approx_product(mult, tap, v)` for tap `t` and every pixel `v` of
/// the op.
struct ProductRows<'a> {
    table: RowTable<'a>,
    /// Offset of each tap's row in `table`.
    taps: Vec<usize>,
    /// Rounded pixels clamp into `lo..=hi`, the operand range a row
    /// covers; `col` is the offset from `lo`.
    lo: i64,
    hi: i64,
}

impl<'a> ProductRows<'a> {
    /// Tabulate `taps × pixels` for an op that multiplies `products`
    /// (tap, pixel) pairs.
    ///
    /// A tabulated unit lends rows of its dense table. Otherwise one row
    /// per distinct rounded tap is filled over `[pmin, pmax]`, the span
    /// of the rounded pixels — unless that costs at least as many model
    /// calls as `products`, or the span overflows (huge or non-finite
    /// pixels): then this returns `None` and the op walks products one
    /// model call at a time.
    fn new(
        mult: &'a dyn Multiplier,
        taps: &[f64],
        pixels: &[f64],
        products: usize,
    ) -> Option<Self> {
        if let Some(lut) = mult.as_lut() {
            let (lo, hi) = lut.operand_range();
            return Some(ProductRows {
                table: RowTable::Dense(lut.table()),
                taps: taps.iter().map(|&v| lut.row(v)).collect(),
                lo,
                hi,
            });
        }
        let mut rounded = pixels.iter().map(|&v| round_half_away(v) as i64);
        let first = rounded.next()?;
        let (pmin, pmax) = rounded.fold((first, first), |(lo, hi), p| (lo.min(p), hi.max(p)));
        let span = usize::try_from(pmax.checked_sub(pmin)?).ok()?.checked_add(1)?;
        if span >= products {
            return None; // not even one row pays
        }
        let mut distinct: Vec<i64> = Vec::new();
        let rows: Vec<usize> = taps
            .iter()
            .map(|&v| {
                let a = round_half_away(v) as i64;
                match distinct.iter().position(|&d| d == a) {
                    Some(r) => r,
                    None => {
                        distinct.push(a);
                        distinct.len() - 1
                    }
                }
            })
            .collect();
        if distinct.len().checked_mul(span)? >= products {
            return None;
        }
        let pixels: Vec<i64> = (pmin..=pmax).collect();
        let mut table = vec![0; distinct.len() * span];
        for (&a, row) in distinct.iter().zip(table.chunks_mut(span)) {
            mult.multiply_row(a, &pixels, row);
        }
        Some(ProductRows {
            table: RowTable::Built(table),
            taps: rows.iter().map(|r| r * span).collect(),
            lo: pmin,
            hi: pmax,
        })
    }

    /// Column of pixel `v` within a row: [`operand_offset`], the
    /// quantizer behind `DenseLut::col` too — the round-and-clamp of
    /// `Multiplier::multiply` for a unit's table, and a plain offset for
    /// built rows, whose span holds every pixel.
    #[inline(always)]
    fn col(&self, v: f64) -> usize {
        operand_offset(v, self.lo, self.hi)
    }

    /// The product of tap `t` with the pixel at column `col`.
    #[inline(always)]
    fn get(&self, t: usize, col: usize) -> i64 {
        let at = self.taps[t] + col;
        match &self.table {
            RowTable::Dense(table) => table[at].into(),
            RowTable::Built(table) => table[at],
        }
    }

    /// Add tap `t`'s products with the pixels at columns `cols` into
    /// `dst`, matching the table kind once per row.
    #[inline(always)]
    fn add_row(&self, t: usize, cols: &[usize], dst: &mut [i64]) {
        fn gather<T: Copy + Into<i64>>(row: &[T], cols: &[usize], dst: &mut [i64]) {
            dst.iter_mut().zip(cols).for_each(|(o, &c)| *o += row[c].into());
        }
        match &self.table {
            RowTable::Dense(table) => gather(&table[self.taps[t]..], cols, dst),
            RowTable::Built(table) => gather(&table[self.taps[t]..], cols, dst),
        }
    }
}

/// Forward of [`Var::approx_conv2d_stacked`]: every `img_h`-row band of
/// `x` convolved with `k` on its own, products gathered from one
/// [`ProductRows`] for the whole stack when it pays, else one model call
/// per product. Both walks sum each output in `i64`.
fn approx_conv2d_bands(x: &Tensor, k: &Tensor, img_h: usize, mult: &dyn Multiplier) -> Tensor {
    let (h, w) = x.dims2("conv2d image");
    let s = ConvShape::new(img_h, w, k);
    assert_exact_sums(k.len(), mult);
    let mut out = Tensor::zeros(&[h, w]);
    let band_len = img_h * w;
    if band_len == 0 {
        return out;
    }
    let rows = ProductRows::new(mult, k.data(), x.data(), s.products() * (h / img_h));
    let (mut acc, mut cols) = (vec![0i64; band_len], vec![0; band_len]);
    for (o, img) in out.data_mut().chunks_mut(band_len).zip(x.data().chunks(band_len)) {
        match &rows {
            Some(rows) => {
                cols.iter_mut().zip(img).for_each(|(c, &v)| *c = rows.col(v));
                s.forward(&mut acc, |t, pixels, dst| rows.add_row(t, &cols[pixels], dst));
            }
            None => s.forward(&mut acc, |t, pixels, dst| {
                for (o, &p) in dst.iter_mut().zip(&img[pixels]) {
                    *o += approx_product(mult, k.data()[t], p);
                }
            }),
        }
        o.iter_mut().zip(&acc).for_each(|(o, &a)| *o = a as f64);
    }
    out
}

/// Forward of [`Var::approx_matmul`]: the LUT row kernel for a
/// tabulated unit, else one `multiply_row` call per `(i, p)` — `a[i,p]`
/// against row `p` of `b` — added into an `i64` accumulator for row `i`
/// of the output.
fn approx_matmul_forward(a: &Tensor, b: &Tensor, mult: &dyn Multiplier) -> Tensor {
    let (m, k) = a.dims2("approx_matmul lhs");
    let (k2, n) = b.dims2("approx_matmul rhs");
    assert_eq!(k, k2, "approx_matmul inner dimension mismatch: {k} vs {k2}");
    assert_exact_sums(k, mult);
    if let Some(lut) = mult.as_lut() {
        return matmul_fast::matmul_lut(a, b, lut);
    }
    let round =
        |t: &Tensor| t.data().iter().map(|&v| round_half_away(v) as i64).collect::<Vec<_>>();
    let (a, b) = (round(a), round(b));
    let mut products = vec![0; n];
    matmul_fast::sum_product_rows((m, k, n), |i, p, acc| {
        mult.multiply_row(a[i * k + p], &b[p * n..][..n], &mut products);
        acc.iter_mut().zip(&products).for_each(|(s, &v)| *s += v);
    })
}

/// Which two-sided product [`Var::approx_block_transform`] applies to
/// every block `X` with the coefficient matrix `C`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockSide {
    /// `C·X·Cᵀ`: the forward DCT.
    Forward,
    /// `Cᵀ·X·C`: the inverse DCT.
    Inverse,
}

/// Fold one block's `k × k` coefficient gradient into `acc` the way
/// [`Graph::backward`](crate::Graph::backward) accumulates a parent's
/// contributions: the first is assigned, each later one added in turn.
/// `transpose` maps a gradient of `Cᵀ` back onto `C`, as a `transpose`
/// node's backward does.
fn fold_block_grad(acc: &mut Option<Tensor>, grad: &[f64], k: usize, transpose: bool) {
    let t = Tensor::from_vec(grad.to_vec(), &[k, k]);
    let t = if transpose { t.transpose() } else { t };
    match acc {
        Some(sum) => sum.accumulate(&t),
        None => *acc = Some(t),
    }
}

impl Var {
    /// 2-D matrix product computed on approximate hardware.
    ///
    /// Forward: every scalar product `a_ik · b_kj` goes through `mult`;
    /// accumulation is exact (the paper approximates multipliers only).
    /// Backward: exact-matmul gradients.
    ///
    /// # Examples
    ///
    /// ```
    /// use lac_hw::catalog;
    /// use lac_tensor::{Graph, Tensor};
    ///
    /// let g = Graph::new();
    /// let a = g.var(Tensor::from_vec(vec![3.0, 1.0, 2.0, 4.0], &[2, 2]));
    /// let b = g.var(Tensor::from_vec(vec![10.0, 0.0, 5.0, 1.0], &[2, 2]));
    /// let exact = catalog::by_name("exact8u").unwrap();
    /// let out = a.approx_matmul(&b, &exact);
    /// assert_eq!(out.value(), a.value().matmul(&b.value()));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics unless `self` is `[m, k]`, `other` is `[k, n]`, and both live
    /// on the same graph.
    pub fn approx_matmul(&self, other: &Var, mult: &Arc<dyn Multiplier>) -> Var {
        self.approx_matmul_node(other, &**mult, "approx_matmul", None)
    }

    /// Fused `approx_matmul(other, mult).scale_round_ste(c)`: the
    /// approximate product, a power-of-two datapath shift, and the
    /// round recorded as one tape node instead of two.
    ///
    /// Bit-identical to the unfused pair: the forward maps the very same
    /// product tensor through `round(v * c)`, and the backward first
    /// applies the scale node's gradient (`g · c`) and then the matmul's
    /// fused transposed kernels — the exact op sequence the two separate
    /// nodes would run.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Var::approx_matmul`].
    pub fn approx_matmul_scale_round(
        &self,
        other: &Var,
        mult: &Arc<dyn Multiplier>,
        c: f64,
    ) -> Var {
        self.approx_matmul_node(other, &**mult, "approx_matmul_scale_round", Some(c))
    }

    /// The node of [`Var::approx_matmul`] (`scale: None`) and of
    /// [`Var::approx_matmul_scale_round`] (`scale: Some(c)`).
    /// Backward: exact-matmul gradients of `g`, or of `g · c`, by the
    /// fused transposed kernels — bit-identical to
    /// `g.matmul(&b.transpose())` / `a.transpose().matmul(g)` without
    /// materializing either transpose.
    fn approx_matmul_node(
        &self,
        other: &Var,
        mult: &dyn Multiplier,
        op: &str,
        scale: Option<f64>,
    ) -> Var {
        assert!(self.same_tape(other), "{op}: operands belong to different graphs");
        let product = self.with_values(other, |a, b| approx_matmul_forward(a, b, mult));
        let value = match scale {
            Some(c) => product.map(|v| round_half_away(v * c)),
            None => product,
        };
        self.record_binary(other, value, |na, nb| {
            let rule = matmul_rule(self, other, na, nb);
            move |g: &Tensor| {
                let scaled = scale.map(|c| g.map(|gv| gv * c));
                rule(scaled.as_ref().unwrap_or(g))
            }
        })
    }

    /// Two-sided block transform on approximate hardware: every `k × k`
    /// block `X` of `self` becomes `C·X·Cᵀ` ([`BlockSide::Forward`], the
    /// DCT) or `Cᵀ·X·C` ([`BlockSide::Inverse`], the IDCT), with the
    /// datapath shifts `[s_in, s_mid, s_out]` between the products.
    ///
    /// `self` is `[nb · k, k]`: `nb` blocks stacked block-major, each
    /// block row-major. `coeff` is `C`, `[k, k]`. Writing `L·X·R` for
    /// either side, a block's output is
    ///
    /// ```text
    /// round(s_out · (round(s_mid · round(s_in · (L ⊛ X))) ⊛ R))
    /// ```
    ///
    /// where `⊛` is [`Var::approx_matmul`]'s product. The whole stack is
    /// one tape node, bit-identical to the per-block chain
    /// `approx_matmul_scale_round(s_in)` → `scale_round_ste(s_mid)` →
    /// `approx_matmul_scale_round(s_out)` that a `transpose` node of `C`
    /// feeds (the rhs for the forward side, the lhs for the inverse):
    ///
    /// * forward, every output the same exact integer sum by the same
    ///   matmul kernels, two products for the whole stack: `L` times
    ///   the blocks laid side by side (`[k, nb·k]`), then the rounded
    ///   result restacked block-major (`[nb·k, k]`) times `R`;
    /// * backward, blocks in descending order, each block's gradients
    ///   by the same kernels and scale maps in the tape's sequence;
    /// * the gradient of `C` folds each block's two contributions in the
    ///   order the tape would reach them — the second product's (`R`)
    ///   before the first's (`L`), the `Cᵀ` one transposed — with the
    ///   first contribution assigned rather than added to zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use lac_hw::catalog;
    /// use lac_tensor::{BlockSide, Graph, Tensor};
    ///
    /// let g = Graph::new();
    /// // Two 2x2 blocks stacked: [[1, 2], [3, 4]] and the identity.
    /// let x = g.var(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 1.0, 0.0, 0.0, 1.0], &[4, 2]));
    /// let c = g.var(Tensor::from_vec(vec![1.0, 1.0, 0.0, 1.0], &[2, 2]));
    /// let exact = catalog::by_name("exact8u").unwrap();
    /// let y = x.approx_block_transform(&c, BlockSide::Forward, &exact, [1.0; 3]);
    /// // C·X·Cᵀ per block.
    /// assert_eq!(y.value().data(), &[10.0, 6.0, 7.0, 4.0, 2.0, 1.0, 1.0, 1.0]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics unless `coeff` is square `[k, k]` with `k > 0`, `self` is
    /// `[nb · k, k]`, and both live on the same graph.
    pub fn approx_block_transform(
        &self,
        coeff: &Var,
        side: BlockSide,
        mult: &Arc<dyn Multiplier>,
        [s_in, s_mid, s_out]: [f64; 3],
    ) -> Var {
        assert!(
            self.same_tape(coeff),
            "approx_block_transform: operands belong to different graphs"
        );
        let (out, mid, ct) = self.with_values(coeff, |x, c| {
            let (k, kc) = c.dims2("approx_block_transform coefficient");
            let (rows, cols) = x.dims2("approx_block_transform blocks");
            assert!(
                k == kc && k > 0 && cols == k && rows % k == 0,
                "approx_block_transform: blocks [{rows}, {cols}] do not stack [{k}, {kc}] blocks"
            );
            let ct = c.transpose();
            let (l, r) = match side {
                BlockSide::Forward => (c, &ct),
                BlockSide::Inverse => (&ct, c),
            };
            let (blk, nb) = (k * k, rows / k);
            // First product for every block at once: the blocks side by
            // side, `[k, nb·k]` (row `i` of block `b` at columns
            // `b·k..(b+1)·k`), under `L` as one `[k, k] × [k, nb·k]`
            // product.
            let mut side_by_side = Vec::with_capacity(x.len());
            for i in 0..k {
                for xb in x.data().chunks(blk) {
                    side_by_side.extend_from_slice(&xb[i * k..(i + 1) * k]);
                }
            }
            let side_by_side = Tensor::from_vec(side_by_side, &[k, nb * k]);
            let t = approx_matmul_forward(l, &side_by_side, &**mult);
            // `mid`: the rounded first products restacked block-major,
            // `[nb·k, k]` — the lhs of the second product, one `× R` for
            // the whole stack, and kept for the coefficient gradient.
            let mut mid = Vec::with_capacity(x.len());
            for b in 0..nb {
                for row in t.data().chunks(nb * k) {
                    mid.extend(
                        row[b * k..(b + 1) * k]
                            .iter()
                            .map(|&v| round_half_away(round_half_away(v * s_in) * s_mid)),
                    );
                }
            }
            let mid = Tensor::from_vec(mid, &[rows, k]);
            let out = approx_matmul_forward(&mid, r, &**mult).map(|v| round_half_away(v * s_out));
            (out, mid, ct)
        });

        self.record_binary(coeff, out, |nx, nc| {
            let c = coeff.value();
            let k = ct.shape()[0];
            let (l, r) = match side {
                BlockSide::Forward => (c, ct),
                BlockSide::Inverse => (ct, c),
            };
            // `dx` reads `L`; the gradient of `C` reads the blocks and
            // `mid`. Both read `R`, through `d_mid`.
            let l = nx.then_some(l);
            let x_mid = nc.then(|| (self.value(), mid));
            move |g: &Tensor| {
                let (blk, dims) = (k * k, (k, k, k));
                // `C` enters the second product transposed on the forward
                // side and the first product transposed on the inverse.
                let r_is_ct = side == BlockSide::Forward;
                let mut dx = l.as_ref().map(|_| Tensor::zeros(g.shape()));
                let mut dc = None;
                let (mut gs, mut d_mid) = (vec![0.0; blk], vec![0.0; blk]);
                let (mut d_l, mut d_r) = (vec![0.0; blk], vec![0.0; blk]);
                for b in (0..g.len() / blk).rev() {
                    let at = b * blk..(b + 1) * blk;
                    // Second product `mid ⊛ R`, under the scale `s_out`.
                    for (o, &gv) in gs.iter_mut().zip(&g.data()[at.clone()]) {
                        *o = gv * s_out;
                    }
                    d_mid.fill(0.0);
                    matmul_fast::matmul_abt(&gs, r.data(), &mut d_mid, dims);
                    if let Some((_, mid)) = &x_mid {
                        d_r.fill(0.0);
                        matmul_fast::matmul_atb(&mid.data()[at.clone()], &gs, &mut d_r, dims);
                    }
                    // Straight through the `s_mid` round, then the first
                    // product `L ⊛ X` under `s_in`: two multiplies, as the
                    // two tape nodes apply them.
                    for (o, &dv) in gs.iter_mut().zip(&d_mid) {
                        *o = dv * s_mid * s_in;
                    }
                    if let (Some(l), Some(dx)) = (&l, &mut dx) {
                        let dxb = &mut dx.data_mut()[at.clone()];
                        matmul_fast::matmul_atb(l.data(), &gs, dxb, dims);
                    }
                    if let Some((x, _)) = &x_mid {
                        d_l.fill(0.0);
                        matmul_fast::matmul_abt(&gs, &x.data()[at], &mut d_l, dims);
                        fold_block_grad(&mut dc, &d_r, k, r_is_ct);
                        fold_block_grad(&mut dc, &d_l, k, !r_is_ct);
                    }
                }
                [dx, nc.then(|| dc.unwrap_or_else(|| Tensor::zeros(&[k, k])))]
            }
        })
    }

    /// Same-padded 2-D convolution computed on approximate hardware.
    ///
    /// The kernel tap is the multiplier's first operand and the image pixel
    /// the second, matching the fixed coefficient-port wiring of a filter
    /// datapath (relevant for units with asymmetric error such as
    /// row-truncated multipliers).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`Var::conv2d`](crate::graph::Var::conv2d).
    pub fn approx_conv2d(&self, kernel: &Var, mult: &Arc<dyn Multiplier>) -> Var {
        let (h, _) = self.with_value(|x| x.dims2("conv2d image"));
        self.approx_conv2d_stacked(kernel, mult, h)
    }

    /// Batched approximate convolution over images stacked vertically.
    ///
    /// `self` is `[n * img_h, w]`: every `img_h`-row band is one
    /// independent image, convolved with `kernel` under the same
    /// same-padding rule as [`Var::approx_conv2d`]. Zero padding applies
    /// at each band's own borders, so band seams never leak pixels into
    /// a neighbouring image.
    ///
    /// Each band runs the same per-image walk and exact integer sums, so
    /// its output is bit-identical to convolving that image alone
    /// ([`Var::approx_conv2d`] is the one-band case) — while the graph
    /// node, tap quantization, and the product rows are paid once per
    /// stack instead of once per image.
    ///
    /// Backward: exact conv2d gradients per band; the kernel gradient
    /// accumulates over bands in stacking order.
    ///
    /// # Panics
    ///
    /// Panics if `img_h` is zero, the stacked height is not a multiple
    /// of `img_h`, or under the conditions of [`Var::approx_conv2d`].
    pub fn approx_conv2d_stacked(
        &self,
        kernel: &Var,
        mult: &Arc<dyn Multiplier>,
        img_h: usize,
    ) -> Var {
        assert!(
            self.same_tape(kernel),
            "approx_conv2d_stacked: operands belong to different graphs"
        );
        assert!(img_h > 0, "approx_conv2d_stacked: img_h must be positive");
        let (out, s) = self.with_values(kernel, |x, k| {
            let (h, w) = x.dims2("conv2d stacked image");
            assert!(
                h % img_h == 0,
                "approx_conv2d_stacked: stacked height {h} is not a multiple of img_h {img_h}"
            );
            (approx_conv2d_bands(x, k, img_h, &**mult), ConvShape::new(img_h, w, k))
        });
        self.record_binary(kernel, out, |nx, nk| conv_rule(self, kernel, s, nx, nk))
    }

    /// Multiply every element of `self` by the scalar coefficient `coeff`
    /// (a one-element `Var`) on approximate hardware.
    ///
    /// This is the building block of the Inversek2j kernel and of
    /// parallel multi-hardware NAS, where each scalar coefficient of a
    /// kernel may use a different multiplier. The coefficient is the
    /// multiplier's first operand.
    ///
    /// # Panics
    ///
    /// Panics if `coeff` does not hold exactly one element or the operands
    /// belong to different graphs.
    pub fn approx_scale(&self, coeff: &Var, mult: &Arc<dyn Multiplier>) -> Var {
        assert!(self.same_tape(coeff), "approx_scale: operands belong to different graphs");
        let cv = coeff.with_value(|c| {
            assert_eq!(c.len(), 1, "approx_scale coefficient must be a single element");
            c.data()[0]
        });
        let value = self.with_value(|x| match ProductRows::new(&**mult, &[cv], x.data(), x.len()) {
            Some(rows) => x.map(|v| rows.get(0, rows.col(v)) as f64),
            None => x.map(|v| approx_product(&**mult, cv, v) as f64),
        });
        self.record_binary(coeff, value, |nx, nc| {
            // `dc` reads the pixels; `dx` only the scalar `cv`.
            let x_shape = nc.then(|| (self.value(), coeff.shape()));
            move |g: &Tensor| {
                let dx = nx.then(|| g.map(|gv| gv * cv));
                let dc = x_shape.map(|(x, shape)| {
                    Tensor::from_vec(
                        vec![g.data().iter().zip(x.data()).map(|(&gv, &xv)| gv * xv).sum()],
                        &shape,
                    )
                });
                [dx, dc]
            }
        })
    }
}

impl Var {
    /// Elementwise product computed on approximate hardware: element `i` of
    /// the output is `mult(self_i, other_i)`.
    ///
    /// `self` is the multiplier's first operand. Used for the dequantize
    /// stage of the JPEG pipeline, where each DCT coefficient is multiplied
    /// by its quantization-table entry.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or cross-graph operands.
    pub fn approx_mul_elem(&self, other: &Var, mult: &Arc<dyn Multiplier>) -> Var {
        self.approx_mul_elem_node(other, &**mult, "approx_mul_elem", None)
    }

    /// Fused `approx_mul_elem(other, mult).mul_scalar(c)`: the
    /// approximate elementwise product and an exact constant scale in
    /// one tape node. Bit-identical to the unfused pair — the backward
    /// scales the incoming gradient first (`g · c`), then applies the
    /// product rule, exactly as the two separate nodes would.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or cross-graph operands.
    pub fn approx_mul_elem_scale(&self, other: &Var, mult: &Arc<dyn Multiplier>, c: f64) -> Var {
        self.approx_mul_elem_node(other, &**mult, "approx_mul_elem_scale", Some(c))
    }

    /// The node of [`Var::approx_mul_elem`] (`scale: None`) and of
    /// [`Var::approx_mul_elem_scale`] (`scale: Some(c)`). Backward: the
    /// exact product rule on `g`, or on `g · c`.
    fn approx_mul_elem_node(
        &self,
        other: &Var,
        mult: &dyn Multiplier,
        op: &str,
        scale: Option<f64>,
    ) -> Var {
        assert!(self.same_tape(other), "{op}: operands belong to different graphs");
        let product = self.with_values(other, |a, b| match mult.as_lut() {
            Some(lut) => a.zip_map(b, |x, y| lut.product(lut.row(x), lut.col(y))),
            None => a.zip_map(b, |x, y| approx_product(mult, x, y) as f64),
        });
        let value = match scale {
            Some(c) => product.map(|v| v * c),
            None => product,
        };
        self.record_binary(other, value, |na, nb| {
            let rule = product_rule(self, other, na, nb);
            move |g: &Tensor| {
                let scaled = scale.map(|c| g.map(|gv| gv * c));
                rule(scaled.as_ref().unwrap_or(g))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use lac_hw::catalog;

    fn exact8u() -> Arc<dyn Multiplier> {
        catalog::by_name("exact8u").unwrap()
    }

    fn kulkarni8() -> Arc<dyn Multiplier> {
        catalog::by_name("kulkarni8u").unwrap()
    }

    #[test]
    fn approx_matmul_with_exact_unit_matches_matmul() {
        let g = Graph::new();
        let a = g.var(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]));
        let b = g.var(Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]));
        let out = a.approx_matmul(&b, &exact8u());
        assert_eq!(out.value(), a.value().matmul(&b.value()));
    }

    #[test]
    fn approx_matmul_applies_hardware_error() {
        let g = Graph::new();
        // 3 x 3 = 7 under Kulkarni.
        let a = g.var(Tensor::from_vec(vec![3.0], &[1, 1]));
        let b = g.var(Tensor::from_vec(vec![3.0], &[1, 1]));
        let out = a.approx_matmul(&b, &kulkarni8());
        assert_eq!(out.value().data(), &[7.0]);
    }

    #[test]
    fn approx_matmul_backward_uses_exact_gradients() {
        let g = Graph::new();
        let a = g.var(Tensor::from_vec(vec![3.0, 5.0], &[1, 2]));
        let b = g.var(Tensor::from_vec(vec![3.0, 2.0], &[2, 1]));
        let loss = a.approx_matmul(&b, &kulkarni8()).sum();
        let grads = g.backward(&loss);
        // Surrogate gradients are those of the exact product.
        assert_eq!(grads.get(&a).data(), &[3.0, 2.0]);
        assert_eq!(grads.get(&b).data(), &[3.0, 5.0]);
    }

    #[test]
    fn approx_conv2d_matches_exact_conv_for_exact_unit() {
        let g = Graph::new();
        let x = g.var(Tensor::from_vec((0..36).map(|v| (v % 11) as f64).collect(), &[6, 6]));
        let k = g.var(Tensor::from_vec(vec![1.0, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0, 2.0, 1.0], &[3, 3]));
        let approx = x.approx_conv2d(&k, &exact8u());
        let exact = x.conv2d(&k);
        assert_eq!(approx.value(), exact.value());
    }

    #[test]
    fn approx_conv2d_error_appears_with_kulkarni() {
        let g = Graph::new();
        let x = g.var(Tensor::full(&[5, 5], 3.0));
        let mut kc = Tensor::zeros(&[3, 3]);
        kc.data_mut()[4] = 3.0; // center tap 3: every product is 3x3
        let k = g.var(kc);
        let out = x.approx_conv2d(&k, &kulkarni8()).value();
        assert!(out.data().iter().all(|&v| v == 7.0));
    }

    #[test]
    fn stacked_conv_bands_match_single_image_convs() {
        for name in ["exact8u", "kulkarni8u", "mul8u_FTA"] {
            let mult = catalog::by_name(name).unwrap();
            let imgs: Vec<Tensor> = (0..3)
                .map(|s| {
                    Tensor::from_vec(
                        (0..30).map(|v| ((v * 7 + s * 13) % 19) as f64).collect(),
                        &[5, 6],
                    )
                })
                .collect();
            let kc =
                Tensor::from_vec(vec![1.0, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0, 2.0, 1.0], &[3, 3]);

            let g = Graph::new();
            let mut stacked = Vec::new();
            for img in &imgs {
                stacked.extend_from_slice(img.data());
            }
            let x = g.var(Tensor::from_vec(stacked, &[15, 6]));
            let k = g.var(kc.clone());
            let out = x.approx_conv2d_stacked(&k, &mult, 5).value();

            for (band, img) in imgs.iter().enumerate() {
                let g1 = Graph::new();
                let xi = g1.var(img.clone());
                let ki = g1.var(kc.clone());
                let single = xi.approx_conv2d(&ki, &mult).value();
                assert_eq!(
                    &out.data()[band * 30..(band + 1) * 30],
                    single.data(),
                    "{name}: band {band} differs from the single-image conv"
                );
            }
        }
    }

    #[test]
    fn stacked_conv_backward_matches_per_image_gradients() {
        let mult = kulkarni8();
        let imgs: Vec<Tensor> = (0..2)
            .map(|s| Tensor::from_vec((0..20).map(|v| ((v + s * 3) % 9) as f64).collect(), &[4, 5]))
            .collect();
        let kc = Tensor::from_vec(vec![0.0, 1.0, 0.0, 1.0, 2.0, 1.0, 0.0, 1.0, 0.0], &[3, 3]);

        let g = Graph::new();
        let mut stacked = Vec::new();
        for img in &imgs {
            stacked.extend_from_slice(img.data());
        }
        let x = g.var(Tensor::from_vec(stacked, &[8, 5]));
        let k = g.var(kc.clone());
        let loss = x.approx_conv2d_stacked(&k, &mult, 4).sum();
        let grads = g.backward(&loss);

        let mut want_dx = Vec::new();
        let mut want_dk = Tensor::zeros(&[3, 3]);
        for img in &imgs {
            let g1 = Graph::new();
            let xi = g1.var(img.clone());
            let ki = g1.var(kc.clone());
            let l1 = xi.approx_conv2d(&ki, &mult).sum();
            let g1s = g1.backward(&l1);
            want_dx.extend_from_slice(g1s.get(&xi).data());
            for (acc, d) in want_dk.data_mut().iter_mut().zip(g1s.get(&ki).data()) {
                *acc += d;
            }
        }
        assert_eq!(grads.get(&x).data(), &want_dx[..]);
        assert_eq!(grads.get(&k).data(), want_dk.data());
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn stacked_conv_rejects_ragged_height() {
        let g = Graph::new();
        let x = g.var(Tensor::zeros(&[7, 4]));
        let k = g.var(Tensor::zeros(&[3, 3]));
        x.approx_conv2d_stacked(&k, &exact8u(), 4);
    }

    #[test]
    fn approx_scale_values_and_gradients() {
        let g = Graph::new();
        let x = g.var(Tensor::from_vec(vec![3.0, 4.0], &[2]));
        let c = g.var(Tensor::scalar(3.0));
        let out = x.approx_scale(&c, &kulkarni8());
        assert_eq!(out.value().data(), &[7.0, 12.0]); // 3x3 -> 7, 3x4 exact
        let loss = out.sum();
        let grads = g.backward(&loss);
        assert_eq!(grads.get(&c).item(), 7.0); // Σ x
        assert_eq!(grads.get(&x).data(), &[3.0, 3.0]); // c
    }

    #[test]
    fn operands_are_rounded_defensively() {
        let g = Graph::new();
        let a = g.var(Tensor::from_vec(vec![2.4], &[1, 1]));
        let b = g.var(Tensor::from_vec(vec![3.6], &[1, 1]));
        let out = a.approx_matmul(&b, &exact8u());
        assert_eq!(out.value().data(), &[8.0]); // 2 * 4
    }

    #[test]
    fn approx_mul_elem_values_and_gradients() {
        let g = Graph::new();
        let a = g.var(Tensor::from_vec(vec![3.0, 5.0], &[2]));
        let b = g.var(Tensor::from_vec(vec![3.0, 4.0], &[2]));
        let out = a.approx_mul_elem(&b, &kulkarni8());
        assert_eq!(out.value().data(), &[7.0, 20.0]);
        let grads = g.backward(&out.sum());
        assert_eq!(grads.get(&a).data(), &[3.0, 4.0]);
        assert_eq!(grads.get(&b).data(), &[3.0, 5.0]);
    }

    /// The devirtualized LUT fast path must be bit-identical to the
    /// trait-object path for every catalog unit narrow enough to memoize.
    /// A raw unit reports `as_lut() == None` (slow path); the same unit
    /// wrapped in a `LutMultiplier` takes the fast path — outputs of all
    /// four approx ops must match exactly.
    #[test]
    fn lut_fast_path_matches_trait_object_path_for_all_catalog_units() {
        use lac_hw::{catalog, LutMultiplier, MAX_LUT_BITS};

        // Mixed-sign integral operands; both paths clamp identically, so
        // values outside a unit's range still must agree bit-for-bit.
        let av: Vec<f64> = (0..48).map(|i| ((i * 37 + 11) % 61) as f64 - 14.0).collect();
        let bv: Vec<f64> = (0..48).map(|i| ((i * 53 + 7) % 59) as f64 - 9.0).collect();

        let mut checked = 0;
        for name in catalog::PAPER_NAMES.iter().chain(catalog::EXTRA_NAMES.iter()) {
            let raw = catalog::by_name(name).unwrap();
            if raw.bits() > MAX_LUT_BITS {
                continue;
            }
            assert!(raw.as_lut().is_none(), "{name}: raw unit unexpectedly memoized");
            let fast: Arc<dyn Multiplier> = LutMultiplier::maybe_wrap(Arc::clone(&raw));
            assert!(fast.as_lut().is_some(), "{name}: maybe_wrap did not memoize");

            let g = Graph::new();
            let a6 = g.var(Tensor::from_vec(av[..36].to_vec(), &[6, 6]));
            let b6 = g.var(Tensor::from_vec(bv[..36].to_vec(), &[6, 6]));
            let k3 = g.var(Tensor::from_vec(bv[..9].to_vec(), &[3, 3]));
            let c = g.var(Tensor::scalar(av[5]));

            let pairs = [
                (a6.approx_matmul(&b6, &raw), a6.approx_matmul(&b6, &fast)),
                (a6.approx_conv2d(&k3, &raw), a6.approx_conv2d(&k3, &fast)),
                (a6.approx_scale(&c, &raw), a6.approx_scale(&c, &fast)),
                (a6.approx_mul_elem(&b6, &raw), a6.approx_mul_elem(&b6, &fast)),
            ];
            for (slow, lut) in pairs {
                assert_eq!(slow.value(), lut.value(), "{name}: fast path diverged");
            }
            checked += 1;
        }
        assert!(checked >= 8, "too few narrow catalog units exercised: {checked}");
    }

    /// Untabulated units get one row per distinct rounded tap over the
    /// pixel span when that is cheaper than the products, and fall back
    /// to the per-product walk on costly, overflowing or empty spans.
    #[test]
    fn product_rows_build_only_when_cheaper_than_the_products() {
        let wide = lac_hw::catalog::by_name("mul16s_GAT").unwrap();
        let taps = [2.0, 2.4, -3.0, 1.6];
        let rows = ProductRows::new(&*wide, &taps, &[5.0, 7.0, 6.2], 100).expect("narrow span");
        // Taps round to 2, 2, -3, 2: two distinct rows of span 3 (5..=7).
        assert!(matches!(&rows.table, RowTable::Built(t) if t.len() == 6));
        assert_eq!(rows.taps, vec![0, 0, 3, 0]);
        assert_eq!((rows.lo, rows.hi), (5, 7));
        for (t, &a) in taps.iter().enumerate() {
            for b in [5.0, 7.0, 6.2] {
                assert_eq!(rows.get(t, rows.col(b)), approx_product(&*wide, a, b));
            }
        }
        // Six row cells are not cheaper than six products.
        assert!(ProductRows::new(&*wide, &taps, &[5.0, 7.0, 6.2], 6).is_none());
        for extreme in [f64::INFINITY, 1e300] {
            assert!(ProductRows::new(&*wide, &taps, &[0.0, -extreme], 1 << 40).is_none());
            assert!(ProductRows::new(&*wide, &taps, &[extreme, 0.0], 1 << 40).is_none());
            // A single-valued extreme image has a span of one.
            assert!(ProductRows::new(&*wide, &taps, &[extreme; 4], 16).is_some());
        }
        assert!(ProductRows::new(&*wide, &taps, &[], 0).is_none());
        // Tabulated units always lend rows of their table.
        let lut = lac_hw::LutMultiplier::maybe_wrap(exact8u());
        assert!(ProductRows::new(&*lut, &taps, &[0.0, 255.0], 1).is_some());
    }

    /// The fused matmul+scale+round and elem-mul+scale nodes must match
    /// their unfused chains bit-for-bit, on both the LUT and the
    /// trait-object path, in values and gradients.
    #[test]
    fn fused_approx_nodes_match_unfused_bits() {
        use lac_hw::LutMultiplier;

        let av: Vec<f64> = (0..16).map(|i| ((i * 37 + 11) % 61) as f64 - 14.0).collect();
        let bv: Vec<f64> = (0..16).map(|i| ((i * 53 + 7) % 59) as f64 - 9.0).collect();
        let raw = kulkarni8();
        let fast = LutMultiplier::maybe_wrap(Arc::clone(&raw));

        for mult in [&raw, &fast] {
            for c in [0.25, 8.0, 2f64.powi(-5)] {
                let g1 = Graph::new();
                let a1 = g1.var(Tensor::from_vec(av.clone(), &[4, 4]));
                let b1 = g1.var(Tensor::from_vec(bv.clone(), &[4, 4]));
                let unfused = a1.approx_matmul(&b1, mult).mul_scalar(c).round_ste();
                let gr1 = g1.backward(&unfused.square().sum());

                let g2 = Graph::new();
                let a2 = g2.var(Tensor::from_vec(av.clone(), &[4, 4]));
                let b2 = g2.var(Tensor::from_vec(bv.clone(), &[4, 4]));
                let fused = a2.approx_matmul_scale_round(&b2, mult, c);
                let gr2 = g2.backward(&fused.square().sum());

                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&unfused.value()), bits(&fused.value()), "matmul fwd at {c}");
                assert_eq!(bits(&gr1.get(&a1)), bits(&gr2.get(&a2)), "matmul grad-a at {c}");
                assert_eq!(bits(&gr1.get(&b1)), bits(&gr2.get(&b2)), "matmul grad-b at {c}");

                let g3 = Graph::new();
                let a3 = g3.var(Tensor::from_vec(av.clone(), &[16]));
                let b3 = g3.var(Tensor::from_vec(bv.clone(), &[16]));
                let unfused = a3.approx_mul_elem(&b3, mult).mul_scalar(c);
                let gr3 = g3.backward(&unfused.square().sum());

                let g4 = Graph::new();
                let a4 = g4.var(Tensor::from_vec(av.clone(), &[16]));
                let b4 = g4.var(Tensor::from_vec(bv.clone(), &[16]));
                let fused = a4.approx_mul_elem_scale(&b4, mult, c);
                let gr4 = g4.backward(&fused.square().sum());

                assert_eq!(bits(&unfused.value()), bits(&fused.value()), "elem fwd at {c}");
                assert_eq!(bits(&gr3.get(&a3)), bits(&gr4.get(&a4)), "elem grad-a at {c}");
                assert_eq!(bits(&gr3.get(&b3)), bits(&gr4.get(&b4)), "elem grad-b at {c}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "single element")]
    fn approx_scale_rejects_vector_coefficient() {
        let g = Graph::new();
        let x = g.var(Tensor::ones(&[2]));
        let c = g.var(Tensor::ones(&[2]));
        let _ = x.approx_scale(&c, &exact8u());
    }

    #[test]
    #[should_panic(expected = "different graphs")]
    fn approx_matmul_rejects_cross_graph() {
        let g1 = Graph::new();
        let g2 = Graph::new();
        let a = g1.var(Tensor::ones(&[1, 1]));
        let b = g2.var(Tensor::ones(&[1, 1]));
        let _ = a.approx_matmul(&b, &exact8u());
    }
}
