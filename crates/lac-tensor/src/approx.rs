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

use std::borrow::Cow;
use std::sync::Arc;

use lac_hw::{operand_offset, round_half_away, Multiplier};

use crate::graph::{Op, Slots, Var};
use crate::matmul_fast;
use crate::ops::ConvShape;
use crate::pool;
use crate::tensor::{add_assign, matmul_acc, Tensor};

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

// Devirtualized fast paths. With a unit's dense product table
// (`Multiplier::as_lut`), the forwards quantize each operand buffer into
// row/column offsets once and read every product out of the table —
// bit-identical to one `multiply` per product, since `DenseLut::row`/`col`
// round and clamp as `multiply` does. Units without a table make one
// `Multiplier::multiply_row` call (one `multiply` per element) per row of
// products sharing a first operand: per `a[i,p]` in `approx_matmul`, per
// distinct tap in the tap-wise ops ([`ProductRows`]). Elementwise products
// stay one call per pair.

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
                distinct.iter().position(|&d| d == a).unwrap_or_else(|| {
                    distinct.push(a);
                    distinct.len() - 1
                })
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

/// The output stage a fixed-point datapath applies to the exact sums of
/// an approximate product, recorded inside the product's node: up to two
/// scales (power-of-two shifts) multiplied in turn, then an optional
/// round, then an optional clamp.
///
/// A node with an epilogue is bit-identical to the product node followed
/// by the unfused chain `mul_scalar(c₁)` → `mul_scalar(c₂)` →
/// `round_ste` → `clamp(lo, hi)` (each link present only when set). The
/// forward maps every sum through the same operations in that order. The
/// backward runs the chain's backward maps in the tape's order before the
/// product's rule: the clamp mask, read off the pre-clamp value, then
/// each scale multiply on its own, last scale first (the round passes
/// gradients straight through).
///
/// # Examples
///
/// ```
/// use lac_hw::catalog;
/// use lac_tensor::{Epilogue, Graph, Tensor};
///
/// let g = Graph::new();
/// let x = g.var(Tensor::full(&[3, 3], 100.0));
/// let k = g.var(Tensor::full(&[3, 3], 1.0));
/// let exact = catalog::by_name("exact8u").unwrap();
/// // Sums of 4, 6 or 9 products of 100, shifted right by 2 and saturated.
/// let stage = Epilogue::new().scale(0.25).rounded().clamp(0.0, 200.0);
/// let y = x.approx_conv2d_fused(&k, &exact, 3, stage);
/// assert_eq!(y.value().data()[..3], [100.0, 150.0, 100.0]);
/// assert_eq!(y.value().data()[4], 200.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Epilogue {
    scales: [f64; 2],
    n_scales: usize,
    round: bool,
    clamp: Option<(f64, f64)>,
}

impl Epilogue {
    /// The empty stage: the product's sums as they are.
    pub fn new() -> Self {
        Self::default()
    }

    /// Multiply by `c` after the scales already given.
    ///
    /// # Panics
    ///
    /// Panics on a third scale.
    pub fn scale(mut self, c: f64) -> Self {
        assert!(self.n_scales < 2, "an epilogue holds at most two scales");
        self.scales[self.n_scales] = c;
        self.n_scales += 1;
        self
    }

    /// Round to the nearest integer, half away from zero, after the
    /// scales.
    pub fn rounded(mut self) -> Self {
        self.round = true;
        self
    }

    /// Clamp into `[lo, hi]` last; the gradient is zero where the
    /// pre-clamp value lies outside.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamp(mut self, lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "clamp bounds inverted: [{lo}, {hi}]");
        self.clamp = Some((lo, hi));
        self
    }

    fn scales(&self) -> &[f64] {
        &self.scales[..self.n_scales]
    }

    /// The stage over `sums`, in place, and — when `keep_pre` asks and
    /// the stage clamps — the pre-clamp values a backward masks with.
    /// One pass per step, each a plain loop the compiler vectorizes.
    fn forward(&self, mut sums: Tensor, keep_pre: bool) -> (Tensor, Option<Tensor>) {
        for &c in self.scales() {
            sums.data_mut().iter_mut().for_each(|v| *v *= c);
        }
        if self.round {
            sums.data_mut().iter_mut().for_each(|v| *v = round_half_away(*v));
        }
        let Some((lo, hi)) = self.clamp else { return (sums, None) };
        let pre = keep_pre.then(|| sums.clone());
        sums.data_mut().iter_mut().for_each(|v| *v = v.clamp(lo, hi));
        (sums, pre)
    }

    /// The gradient entering the product from the node's gradient `g`:
    /// `g` itself for the empty stage, else the chain's maps in the
    /// tape's order. `pre` is what [`Epilogue::forward`] kept.
    pub(crate) fn backward<'g>(&self, g: &'g Tensor, pre: Option<&Tensor>) -> Cow<'g, Tensor> {
        let mut scales = self.scales().iter().rev();
        let mut g = match (self.clamp, pre) {
            (Some((lo, hi)), Some(pre)) => {
                g.zip_map(pre, |gv, av| if (lo..=hi).contains(&av) { gv } else { 0.0 })
            }
            (Some(_), None) => panic!("a clamping epilogue's backward needs its pre-clamp values"),
            (None, _) => match scales.next() {
                Some(&c) => g.map(|gv| gv * c),
                None => return Cow::Borrowed(g),
            },
        };
        for &c in scales {
            g.data_mut().iter_mut().for_each(|v| *v *= c);
        }
        Cow::Owned(g)
    }
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

impl BlockSide {
    /// `(L, R)` of the block product `L·X·R`, for the coefficient matrix
    /// `c` and its transpose `ct`.
    fn operands<'t>(self, c: &'t Tensor, ct: &'t Tensor) -> (&'t Tensor, &'t Tensor) {
        match self {
            BlockSide::Forward => (c, ct),
            BlockSide::Inverse => (ct, c),
        }
    }
}

/// The gradients `[d_blocks, d_coeff]` of a block transform node (see
/// [`Var::approx_block_transform`]) from `gs`, the node's gradient past
/// its output stage, each only where that parent needs one. `mid` holds
/// the rounded first products, kept when the coefficient needs one.
pub(crate) fn block_transform_grads(
    side: BlockSide,
    [s_in, s_mid]: [f64; 2],
    mid: Option<&Tensor>,
    gs: &Tensor,
    slots: &Slots<'_>,
) -> [Option<Tensor>; 2] {
    let (x, c) = (slots.value(0), slots.value(1));
    let ct = c.transpose();
    let (l, r) = side.operands(c, &ct);
    let k = c.shape()[0];
    let (blk, dims) = (k * k, (k, k, k));
    // The second product `mid ⊛ R`'s input gradient for the whole stack,
    // then straight through the `s_mid` round and into the first product
    // under `s_in`: two multiplies, as the per-block chain's nodes apply
    // them. The blocks' gradient reads `L`; the coefficient's, the blocks
    // and `mid`.
    let mut d_mid = Tensor::zeros(gs.shape());
    let stack = (gs.len() / k, k, k);
    matmul_fast::matmul_abt(gs.data(), r.data(), d_mid.data_mut(), stack);
    for d in d_mid.data_mut() {
        *d = *d * s_mid * s_in;
    }
    let dx = slots.needs(0).then(|| {
        let mut dx = Tensor::zeros(gs.shape());
        for (dxb, db) in dx.data_mut().chunks_mut(blk).zip(d_mid.data().chunks(blk)) {
            matmul_fast::matmul_atb(l.data(), db, dxb, dims);
        }
        dx
    });
    // `C` enters the second product transposed on the forward side and
    // the first product transposed on the inverse.
    let r_is_ct = side == BlockSide::Forward;
    let dc = mid.filter(|_| slots.needs(1)).map(|mid| {
        let mut dc = Tensor::zeros(&[k, k]);
        // `R`'s partial, `L`'s partial, and a transposed block.
        let mut scratch = pool::take_filled(3 * blk, 0.0);
        let (d_r, rest) = scratch.split_at_mut(blk);
        let (d_l, t) = rest.split_at_mut(blk);
        let mut first = true;
        for b in (0..gs.len() / blk).rev() {
            let at = b * blk..(b + 1) * blk;
            d_r.fill(0.0);
            let (mid_b, gs_b) = (&mid.data()[at.clone()], &gs.data()[at.clone()]);
            matmul_fast::matmul_atb(mid_b, gs_b, d_r, dims);
            // `d_mid · Xᵀ`: `matmul_abt`'s loop over the block transposed
            // into scratch.
            transpose_block(&x.data()[at.clone()], t, k);
            d_l.fill(0.0);
            matmul_acc(&d_mid.data()[at], t, d_l, k, k);
            fold_block_grad(dc.data_mut(), d_r, t, (k, r_is_ct), &mut first);
            fold_block_grad(dc.data_mut(), d_l, t, (k, !r_is_ct), &mut first);
        }
        pool::give(scratch);
        dc
    });
    [dx, dc]
}

/// `dst = srcᵀ` for `k × k` blocks.
fn transpose_block(src: &[f64], dst: &mut [f64], k: usize) {
    for (i, row) in src.chunks_exact(k).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            dst[j * k + i] = v;
        }
    }
}

/// Fold one block's `k × k` coefficient gradient into `acc` the way
/// [`Graph::backward`](crate::Graph::backward) accumulates a parent's
/// contributions: the first is assigned, each later one added in turn
/// by the tape's own add loop. `transpose` maps a gradient of `Cᵀ` back
/// onto `C` by index, through `scratch`, as a `transpose` node's
/// backward does.
fn fold_block_grad(
    acc: &mut [f64],
    grad: &[f64],
    scratch: &mut [f64],
    (k, transpose): (usize, bool),
    first: &mut bool,
) {
    let grad = if transpose {
        transpose_block(grad, scratch, k);
        &*scratch
    } else {
        grad
    };
    if std::mem::take(first) {
        acc.copy_from_slice(grad);
    } else {
        add_assign(acc, grad);
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
        self.approx_matmul_node(other, &**mult, "approx_matmul", Epilogue::new())
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
        let stage = Epilogue::new().scale(c).rounded();
        self.approx_matmul_node(other, &**mult, "approx_matmul_scale_round", stage)
    }

    /// The node of [`Var::approx_matmul`] (the empty epilogue) and of
    /// [`Var::approx_matmul_scale_round`] (scale `c`, round).
    fn approx_matmul_node(
        &self,
        other: &Var,
        mult: &dyn Multiplier,
        op: &str,
        epilogue: Epilogue,
    ) -> Var {
        let product = self.with_values(other, op, |a, b| approx_matmul_forward(a, b, mult));
        let (value, _) = epilogue.forward(product, false);
        self.record([self.id, other.id], value, Op::Matmul(epilogue))
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
    /// * backward, the straight-through maps and the `R` product's input
    ///   gradient once over the whole `[nb·k, k]` stack (each row the
    ///   same sum as its block alone), the other kernels block by block;
    /// * the gradient of `C` folds each block's two contributions in the
    ///   order the tape would reach them — blocks descending, the second
    ///   product's (`R`) before the first's (`L`), the `Cᵀ` one
    ///   transposed — with the first contribution assigned rather than
    ///   added to zero.
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
        let out = Epilogue::new().scale(s_out).rounded();
        self.block_transform_node(coeff, side, &**mult, [s_in, s_mid], out)
    }

    /// [`Var::approx_block_transform`] with its output clamped into
    /// `[lo, hi]` in the same node: bit-identical, values and gradients,
    /// to `approx_block_transform(coeff, side, mult, scales).clamp(lo, hi)`
    /// (see [`Epilogue`]).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`, or as [`Var::approx_block_transform`] does.
    pub fn approx_block_transform_clamped(
        &self,
        coeff: &Var,
        side: BlockSide,
        mult: &Arc<dyn Multiplier>,
        [s_in, s_mid, s_out]: [f64; 3],
        (lo, hi): (f64, f64),
    ) -> Var {
        let out = Epilogue::new().scale(s_out).rounded().clamp(lo, hi);
        self.block_transform_node(coeff, side, &**mult, [s_in, s_mid], out)
    }

    /// The node of [`Var::approx_block_transform`] and its clamped form:
    /// the shifts into the second product, and the output stage after it.
    fn block_transform_node(
        &self,
        coeff: &Var,
        side: BlockSide,
        mult: &dyn Multiplier,
        [s_in, s_mid]: [f64; 2],
        epilogue: Epilogue,
    ) -> Var {
        let keep = self.needs_grad() || coeff.needs_grad();
        let ((out, pre), mid) = self.with_values(coeff, "approx_block_transform", |x, c| {
            let (k, kc) = c.dims2("approx_block_transform coefficient");
            let (rows, cols) = x.dims2("approx_block_transform blocks");
            assert!(
                k == kc && k > 0 && cols == k && rows % k == 0,
                "approx_block_transform: blocks [{rows}, {cols}] do not stack [{k}, {kc}] blocks"
            );
            let ct = c.transpose();
            let (l, r) = side.operands(c, &ct);
            let (blk, nb) = (k * k, rows / k);
            // First product for every block at once: the blocks side by
            // side, `[k, nb·k]` (row `i` of block `b` at columns
            // `b·k..(b+1)·k`), under `L` as one `[k, k] × [k, nb·k]`
            // product.
            let side_by_side = Tensor::build(&[k, nb * k], |buf| {
                for i in 0..k {
                    for xb in x.data().chunks(blk) {
                        buf.extend_from_slice(&xb[i * k..(i + 1) * k]);
                    }
                }
            });
            let t = approx_matmul_forward(l, &side_by_side, mult);
            // `mid`: the rounded first products restacked block-major,
            // `[nb·k, k]` — the lhs of the second product, one `× R` for
            // the whole stack, and kept for the coefficient gradient.
            let mid = Tensor::build(&[rows, k], |buf| {
                for b in 0..nb {
                    for row in t.data().chunks(nb * k) {
                        buf.extend(
                            row[b * k..(b + 1) * k]
                                .iter()
                                .map(|&v| round_half_away(round_half_away(v * s_in) * s_mid)),
                        );
                    }
                }
            });
            let out = epilogue.forward(approx_matmul_forward(&mid, r, mult), keep);
            (out, coeff.needs_grad().then_some(mid))
        });
        let op = Op::BlockTransform { side, scales: [s_in, s_mid], epilogue, pre, mid };
        self.record([self.id, coeff.id], out, op)
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
        self.approx_conv2d_fused(kernel, mult, img_h, Epilogue::new())
    }

    /// [`Var::approx_conv2d_stacked`] with the datapath's output stage
    /// applied to every output in the same node: bit-identical, values
    /// and gradients, to the conv node followed by the epilogue's
    /// unfused chain (see [`Epilogue`]) — one node, one output tensor
    /// and one backward op where the chain records up to five.
    ///
    /// # Panics
    ///
    /// Panics as [`Var::approx_conv2d_stacked`] does.
    pub fn approx_conv2d_fused(
        &self,
        kernel: &Var,
        mult: &Arc<dyn Multiplier>,
        img_h: usize,
        epilogue: Epilogue,
    ) -> Var {
        assert!(img_h > 0, "approx_conv2d_stacked: img_h must be positive");
        let keep_pre = self.needs_grad() || kernel.needs_grad();
        let ((out, pre), shape) = self.with_values(kernel, "approx_conv2d_stacked", |x, k| {
            let (h, w) = x.dims2("conv2d stacked image");
            assert!(
                h % img_h == 0,
                "approx_conv2d_stacked: stacked height {h} is not a multiple of img_h {img_h}"
            );
            let sums = approx_conv2d_bands(x, k, img_h, &**mult);
            (epilogue.forward(sums, keep_pre), ConvShape::new(img_h, w, k))
        });
        self.record([self.id, kernel.id], out, Op::Conv { shape, epilogue, pre })
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
        self.same_graph(coeff, "approx_scale");
        let cv = coeff.with_value(|c| {
            assert_eq!(c.len(), 1, "approx_scale coefficient must be a single element");
            c.data()[0]
        });
        let value =
            self.with_value(|x| match ProductRows::new(&**mult, &[cv], x.data(), x.len()) {
                Some(rows) => x.map(|v| rows.get(0, rows.col(v)) as f64),
                None => x.map(|v| approx_product(&**mult, cv, v) as f64),
            });
        self.record([self.id, coeff.id], value, Op::ApproxScale(cv))
    }

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
        self.approx_mul_elem_node(other, &**mult, "approx_mul_elem", Epilogue::new())
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
        self.approx_mul_elem_node(other, &**mult, "approx_mul_elem_scale", Epilogue::new().scale(c))
    }

    /// The node of [`Var::approx_mul_elem`] (the empty epilogue) and of
    /// [`Var::approx_mul_elem_scale`] (scale `c`).
    fn approx_mul_elem_node(
        &self,
        other: &Var,
        mult: &dyn Multiplier,
        op: &str,
        epilogue: Epilogue,
    ) -> Var {
        let product = self.with_values(other, op, |a, b| match mult.as_lut() {
            Some(lut) => a.zip_map(b, |x, y| lut.product(lut.row(x), lut.col(y))),
            None => a.zip_map(b, |x, y| approx_product(mult, x, y) as f64),
        });
        let (value, _) = epilogue.forward(product, false);
        self.record([self.id, other.id], value, Op::Product(epilogue))
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

        for mult in &epilogue_units() {
            for x_is_var in [true, false] {
                check_conv_epilogues(mult, x_is_var);
            }
        }
    }

    /// The epilogue battery's units: exact, an unsigned table, the
    /// signed adapter over that table, the untabulated 16-bit unit
    /// (built product rows) and a fault-injected table.
    fn epilogue_units() -> Vec<Arc<dyn Multiplier>> {
        use lac_hw::{signed_capable, LutMultiplier};
        let fta = LutMultiplier::maybe_wrap(catalog::by_name("mul8u_FTA").unwrap());
        vec![
            exact8u(),
            Arc::clone(&fta),
            LutMultiplier::maybe_wrap(signed_capable(fta)),
            catalog::by_name("mul16s_GAT").unwrap(),
            LutMultiplier::maybe_wrap(catalog::by_spec("mul8u_FTA!seed=5,flip=0.05").unwrap()),
        ]
    }

    /// Every epilogue form of the stacked conv — scale only, one or two
    /// scales, round, clamp, and sharpening's unclamped stage under a
    /// residual add and a later clamp — against the conv node followed
    /// by the unfused chain, in values and in the image and tap
    /// gradients. Clamp bounds sit on output values, so some outputs lie
    /// exactly on each edge; upstream gradients hold ±0, non-integral
    /// values and non-finite entries.
    fn check_conv_epilogues(mult: &Arc<dyn Multiplier>, x_is_var: bool) {
        let (img_h, w) = (6, 7);
        let xv: Vec<f64> = (0..2 * img_h * w)
            .map(|i| match i % 11 {
                4 => 0.5 + i as f64,
                7 => -3.0,
                _ => ((i * 53 + 7) % 256) as f64,
            })
            .collect();
        let kv = vec![3.0, -2.0, 5.0, 1.0, 7.0, -1.0, 0.0, 2.0, 4.0];
        let rv: Vec<f64> = (0..xv.len())
            .map(|i| match i % 13 {
                2 => 0.0,
                5 => -0.0,
                9 => [f64::NAN, f64::INFINITY][i % 2],
                _ => ((i * 7919) % 1000) as f64 / 997.0 - 0.5,
            })
            .collect();
        let resid: Vec<f64> = (0..xv.len()).map(|i| ((i * 31) % 97) as f64).collect();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let tensor = |v: &[f64], shape: &[usize]| Tensor::from_vec(v.to_vec(), shape);
        let shape = [2 * img_h, w];
        // (scales, round, clamp, residual add before a later clamp)
        let forms: [(&[f64], bool, bool, bool); 9] = [
            (&[], false, false, false),
            (&[0.25], false, false, false),
            (&[8.0, 2f64.powi(-5)], false, false, false),
            (&[], true, false, false),
            (&[2f64.powi(-3)], true, false, false),
            (&[], false, true, false),
            (&[2f64.powi(-4)], true, true, false),
            (&[2.0, 2f64.powi(-6)], true, true, false),
            (&[2f64.powi(-2)], true, false, true),
        ];
        for (scales, round, clamp, residual) in forms {
            let what = format!(
                "{} {scales:?} round {round} clamp {clamp} residual {residual}",
                mult.name()
            );
            // The unfused chain up to its clamp, whose output values
            // supply the clamp edges.
            let chain = |g: &Graph, x: &Var, k: &Var| {
                let mut v = x.approx_conv2d_stacked(k, mult, img_h);
                for &c in scales {
                    v = v.mul_scalar(c);
                }
                if round {
                    v = v.round_ste();
                }
                if residual {
                    v = v.add(&g.constant(tensor(&resid, &shape)));
                }
                v
            };
            let g0 = Graph::new();
            let pre = chain(&g0, &g0.var(tensor(&xv, &shape)), &g0.var(tensor(&kv, &[3, 3])));
            let mut sorted = pre.value().into_data();
            sorted.sort_by(f64::total_cmp);
            let edges = (sorted[sorted.len() / 5], sorted[sorted.len() * 4 / 5]);
            let clamped = |v: Var| if clamp || residual { v.clamp(edges.0, edges.1) } else { v };

            let run = |fused: bool| {
                let g = Graph::new();
                let x = tensor(&xv, &shape);
                let x = if x_is_var { g.var(x) } else { g.constant(x) };
                let k = g.var(tensor(&kv, &[3, 3]));
                let out = if fused {
                    let mut stage = Epilogue::new();
                    for &c in scales {
                        stage = stage.scale(c);
                    }
                    if round {
                        stage = stage.rounded();
                    }
                    if clamp {
                        stage = stage.clamp(edges.0, edges.1);
                    }
                    let v = x.approx_conv2d_fused(&k, mult, img_h, stage);
                    if residual {
                        v.add(&g.constant(tensor(&resid, &shape))).clamp(edges.0, edges.1)
                    } else {
                        v
                    }
                } else {
                    clamped(chain(&g, &x, &k))
                };
                let grads = g.backward(&out.mul(&g.constant(tensor(&rv, &shape))).sum());
                (bits(&out.value()), bits(&grads.get(&x)), bits(&grads.get(&k)))
            };
            let (want, got) = (run(false), run(true));
            let on_edge = pre.value().data().contains(&edges.0);
            assert!(!clamp || on_edge, "{what}: no output on the edge");
            assert_eq!(got.0, want.0, "{what}: values");
            assert_eq!(got.1, want.1, "{what}: image gradient");
            assert_eq!(got.2, want.2, "{what}: tap gradient");
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
