//! Exact differentiable operations on [`Var`].
//!
//! These are the accurate-datapath building blocks: elementwise
//! arithmetic, reductions, 2-D matrix product and 2-D convolution with
//! same-size zero padding. Approximate-hardware counterparts live in
//! [`crate::approx`].

use std::ops::Range;

use crate::graph::{BackwardFn, Var};
use crate::tensor::Tensor;

impl Var {
    fn binary_guard(&self, other: &Var, what: &str) {
        assert!(self.same_tape(other), "{what}: operands belong to different graphs");
    }

    /// Elementwise addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or cross-graph operands.
    pub fn add(&self, other: &Var) -> Var {
        self.binary_guard(other, "add");
        let value = self.with_values(other, |a, b| a.zip_map(b, |a, b| a + b));
        self.record_binary(other, value, |na, nb| {
            move |g: &Tensor| [na.then(|| g.clone()), nb.then(|| g.clone())]
        })
    }

    /// Elementwise subtraction `self - other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or cross-graph operands.
    pub fn sub(&self, other: &Var) -> Var {
        self.binary_guard(other, "sub");
        let value = self.with_values(other, |a, b| a.zip_map(b, |a, b| a - b));
        self.record_binary(other, value, |na, nb| {
            move |g: &Tensor| [na.then(|| g.clone()), nb.then(|| g.map(|v| -v))]
        })
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or cross-graph operands.
    pub fn mul(&self, other: &Var) -> Var {
        self.binary_guard(other, "mul");
        let value = self.with_values(other, |a, b| a.zip_map(b, |x, y| x * y));
        self.record_binary(other, value, |na, nb| product_rule(self, other, na, nb))
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Var {
        let value = self.with_value(|a| a.map(|v| -v));
        self.record_unary(value, || |g: &Tensor| g.map(|v| -v))
    }

    /// Add a scalar constant to every element.
    pub fn add_scalar(&self, c: f64) -> Var {
        let value = self.with_value(|a| a.map(|v| v + c));
        self.record_unary(value, || |g: &Tensor| g.clone())
    }

    /// Multiply every element by a scalar constant (e.g. an exact
    /// power-of-two bit shift in the datapath).
    pub fn mul_scalar(&self, c: f64) -> Var {
        let value = self.with_value(|a| a.map(|v| v * c));
        self.record_unary(value, || move |g: &Tensor| g.map(|v| v * c))
    }

    /// Elementwise square.
    pub fn square(&self) -> Var {
        let value = self.with_value(|a| a.map(|v| v * v));
        self.record_unary(value, || {
            let a = self.value();
            move |g: &Tensor| g.zip_map(&a, |gv, av| 2.0 * av * gv)
        })
    }

    /// Clamp into `[lo, hi]`; gradient passes through inside the range and
    /// is zero outside (the saturation used to keep outputs in `[0, 255]`).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamp(&self, lo: f64, hi: f64) -> Var {
        assert!(lo <= hi, "clamp bounds inverted: [{lo}, {hi}]");
        let value = self.with_value(|a| a.map(|v| v.clamp(lo, hi)));
        self.record_unary(value, || {
            let a = self.value();
            move |g: &Tensor| {
                g.zip_map(&a, |gv, av| if (lo..=hi).contains(&av) { gv } else { 0.0 })
            }
        })
    }

    /// Sum all elements into a scalar.
    pub fn sum(&self) -> Var {
        let value = Tensor::scalar(self.with_value(Tensor::sum));
        self.record_unary(value, || {
            let shape = self.shape();
            move |g: &Tensor| Tensor::full(&shape, g.item())
        })
    }

    /// Mean of all elements as a scalar.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn mean(&self) -> Var {
        let value = Tensor::scalar(self.with_value(Tensor::mean));
        self.record_unary(value, || {
            let shape = self.shape();
            let n = shape.iter().product::<usize>() as f64;
            move |g: &Tensor| Tensor::full(&shape, g.item() / n)
        })
    }

    /// 2-D matrix product.
    ///
    /// # Panics
    ///
    /// Panics unless `self` is `[m, k]`, `other` is `[k, n]`, and both live
    /// on the same graph.
    pub fn matmul(&self, other: &Var) -> Var {
        self.binary_guard(other, "matmul");
        let value = self.with_values(other, Tensor::matmul);
        self.record_binary(other, value, |na, nb| matmul_rule(self, other, na, nb))
    }

    /// 2-D convolution with an odd-sized kernel and same-size zero padding.
    ///
    /// `self` is the image `[h, w]`, `kernel` is `[kh, kw]` with odd
    /// dimensions. Output is `[h, w]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D, if the kernel has even
    /// dimensions, or on cross-graph operands.
    pub fn conv2d(&self, kernel: &Var) -> Var {
        self.binary_guard(kernel, "conv2d");
        let (value, s) = self.with_values(kernel, |x, k| {
            let (h, w) = x.dims2("conv2d image");
            let s = ConvShape::new(h, w, k);
            let mut value = Tensor::zeros(&[h, w]);
            s.forward(value.data_mut(), |t, pixels, dst| {
                for (o, &p) in dst.iter_mut().zip(&x.data()[pixels]) {
                    *o += k.data()[t] * p;
                }
            });
            (value, s)
        });
        self.record_binary(kernel, value, |nx, nk| conv_rule(self, kernel, s, nx, nk))
    }

    /// Mean-squared-error loss against `target`: `mean((self - target)²)`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or cross-graph operands.
    pub fn mse_loss(&self, target: &Var) -> Var {
        self.sub(target).square().mean()
    }

    /// Mean-squared-error loss against a target held outside the tape,
    /// compared in row-major order whatever `self`'s shape: one node,
    /// bit-identical in value and gradient to
    /// `self.reshape(&[n]).mse_loss(&g.constant(target))`, without
    /// copying the target into the tape. The squared differences sum
    /// left to right from the first element, as [`Tensor::sum`] does.
    ///
    /// # Examples
    ///
    /// ```
    /// use lac_tensor::{Graph, Tensor};
    ///
    /// let g = Graph::new();
    /// let x = g.var(Tensor::from_vec(vec![2.0, -1.0], &[1, 2]));
    /// let loss = x.mse_loss_to(&[0.0, 1.0]);
    /// assert_eq!(loss.item(), 4.0);
    /// assert_eq!(g.backward(&loss).get(&x).data(), &[2.0, -2.0]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `target` and `self` differ in element count, or both are
    /// empty.
    pub fn mse_loss_to(&self, target: &[f64]) -> Var {
        let n = target.len();
        assert_eq!(self.with_value(Tensor::len), n, "mse_loss_to: length mismatch");
        assert!(n > 0, "mean of empty tensor");
        let d = self.with_value(|o| {
            Tensor::build(&[n], |buf| buf.extend(o.data().iter().zip(target).map(|(o, t)| o - t)))
        });
        let sq_sum: f64 = d.data().iter().map(|d| d * d).sum();
        self.record_unary(Tensor::scalar(sq_sum / n as f64), || {
            let shape = self.shape();
            // The chain's backward: `mean` hands each element `g / n`, the
            // square node doubles `d·(g / n)`, `sub` and `reshape` pass it
            // through. The differences become the gradient in place.
            move |g: &Tensor| {
                let gv = g.item() / n as f64;
                let mut d = d;
                d.data_mut().iter_mut().for_each(|d| *d = 2.0 * *d * gv);
                d.reshaped(&shape)
            }
        })
    }

    /// Reinterpret this node's value under a new shape of equal volume —
    /// the buffer is never permuted.
    ///
    /// When the shape already matches, this is free: the same node handle
    /// is returned and nothing is recorded on the tape. Otherwise one
    /// pass-through node is recorded whose value is one copy of the
    /// input's buffer under the new shape, and whose backward (recorded
    /// only when the input needs a gradient) moves the incoming
    /// gradient's buffer back under the old shape without copying it.
    ///
    /// # Examples
    ///
    /// ```
    /// use lac_tensor::{Graph, Tensor};
    ///
    /// let g = Graph::new();
    /// let x = g.var(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
    /// let flat = x.reshape(&[4]);
    /// assert_eq!(flat.value().data(), x.value().data());
    /// let grads = g.backward(&flat.square().sum());
    /// assert_eq!(grads.get(&x).shape(), vec![2, 2]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the new shape's volume differs from the node's element
    /// count.
    pub fn reshape(&self, shape: &[usize]) -> Var {
        let old_shape = self.shape();
        if old_shape == shape {
            return self.clone();
        }
        let value = self.value().reshaped(shape);
        self.record_unary(value, || move |g: &Tensor| g.clone().reshaped(&old_shape))
    }

    /// 2-D transpose.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is 2-D.
    pub fn transpose(&self) -> Var {
        let value = self.with_value(Tensor::transpose);
        self.record_unary(value, || |g: &Tensor| g.transpose())
    }

    /// Elementwise sine.
    pub fn sin(&self) -> Var {
        let value = self.with_value(|a| a.map(f64::sin));
        self.record_unary(value, || {
            let a = self.value();
            move |g: &Tensor| g.zip_map(&a, |gv, av| gv * av.cos())
        })
    }

    /// Elementwise cosine.
    pub fn cos(&self) -> Var {
        let value = self.with_value(|a| a.map(f64::cos));
        self.record_unary(value, || {
            let a = self.value();
            move |g: &Tensor| g.zip_map(&a, |gv, av| -gv * av.sin())
        })
    }

    /// Elementwise arccosine with the argument clamped into `[-1, 1]`.
    ///
    /// The derivative `-1/√(1 - x²)` is capped near the endpoints so a
    /// saturated argument cannot produce an infinite gradient — the usual
    /// treatment for inverse-kinematics kernels where `cos θ₂` may quantize
    /// to exactly ±1.
    pub fn acos_clamped(&self) -> Var {
        let value = self.with_value(|a| a.map(|v| v.clamp(-1.0, 1.0).acos()));
        self.record_unary(value, || {
            let a = self.value();
            move |g: &Tensor| {
                g.zip_map(&a, |gv, av| {
                    let c = av.clamp(-0.999, 0.999);
                    -gv / (1.0 - c * c).sqrt()
                })
            }
        })
    }

    /// Elementwise four-quadrant arctangent `atan2(self, x)` (self is the
    /// `y` argument).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or cross-graph operands.
    pub fn atan2(&self, x: &Var) -> Var {
        self.binary_guard(x, "atan2");
        let value = self.with_values(x, |y, x| y.zip_map(x, f64::atan2));
        self.record_binary(x, value, |ny, nx| {
            let (yv, xv) = (self.value(), x.value());
            move |g: &Tensor| {
                let mut dy = ny.then(|| Tensor::zeros(yv.shape()));
                let mut dx = nx.then(|| Tensor::zeros(xv.shape()));
                for i in 0..yv.len() {
                    let (y, x) = (yv.data()[i], xv.data()[i]);
                    let r2 = (x * x + y * y).max(1e-12);
                    if let Some(dy) = &mut dy {
                        dy.data_mut()[i] = g.data()[i] * x / r2;
                    }
                    if let Some(dx) = &mut dx {
                        dx.data_mut()[i] = -g.data()[i] * y / r2;
                    }
                }
                [dy, dx]
            }
        })
    }
}

/// The product rule of `a ⊙ b`: the map from the node's gradient `g` to
/// `[g ⊙ b, g ⊙ a]`, each side only where `na` / `nb` says it is needed.
/// Each gradient reads the other operand, copied here only then.
pub(crate) fn product_rule(
    a: &Var,
    b: &Var,
    na: bool,
    nb: bool,
) -> impl FnOnce(&Tensor) -> [Option<Tensor>; 2] + 'static {
    let b = na.then(|| b.value());
    let a = nb.then(|| a.value());
    move |g| {
        [
            b.map(|b| g.zip_map(&b, |gv, bv| gv * bv)),
            a.map(|a| g.zip_map(&a, |gv, av| gv * av)),
        ]
    }
}

/// The gradients of the matrix product `a · b`: the map from the node's
/// gradient `g` to `[g · bᵀ, aᵀ · g]`, each only where `na` / `nb` says
/// it is needed, by the fused transposed kernels of `matmul_fast` —
/// bit-identical to transposing, then multiplying. Each gradient reads
/// the other operand, copied here only then.
pub(crate) fn matmul_rule(
    a: &Var,
    b: &Var,
    na: bool,
    nb: bool,
) -> impl FnOnce(&Tensor) -> [Option<Tensor>; 2] + 'static {
    let b = na.then(|| b.value());
    let a = nb.then(|| a.value());
    move |g| crate::matmul_fast::matmul_grads(a.as_ref(), b.as_ref(), g)
}

/// The exact gradients of a same-padded convolution of `x` under taps
/// `k` — one image, or images stacked in bands of `s.h` rows each
/// convolved on its own: the map from the node's gradient to
/// `[d_image, d_kernel]`, each only where `nx` / `nk` says it is needed.
/// `d_image` reads the taps and `d_kernel` the pixels, each copied here
/// only then. `d_kernel` sums per band, then folds the bands in stacking
/// order.
pub(crate) fn conv_rule(
    x: &Var,
    k: &Var,
    s: ConvShape,
    nx: bool,
    nk: bool,
) -> impl FnOnce(&Tensor) -> [Option<Tensor>; 2] + 'static {
    let taps = nx.then(|| k.value());
    let pixels = nk.then(|| x.value());
    move |g| {
        let band = (s.h * s.w).max(1);
        let dx = taps.map(|k| {
            let mut dx = Tensor::zeros(g.shape());
            for (bdx, bg) in dx.data_mut().chunks_mut(band).zip(g.data().chunks(band)) {
                s.backward_pixels(k.data(), bg, bdx);
            }
            dx
        });
        let dk = pixels.map(|x| {
            let mut dk = Tensor::zeros(&[s.kh, s.kw]);
            let mut band_dk = vec![0.0; s.kh * s.kw];
            for (img, bg) in x.data().chunks(band).zip(g.data().chunks(band)) {
                band_dk.fill(0.0);
                s.backward_taps(img, bg, &mut band_dk);
                for (acc, d) in dk.data_mut().iter_mut().zip(&band_dk) {
                    *acc += d;
                }
            }
            dk
        });
        [dx, dk]
    }
}

/// Concatenate the flattened values of several `Var`s into one 1-D `Var`.
///
/// Gradients are split back to the inputs. Used to assemble block-wise or
/// multi-component outputs (JPEG blocks, complex DFT real/imaginary parts,
/// joint-angle pairs) into a single output vector for a loss.
///
/// # Examples
///
/// ```
/// use lac_tensor::{concat, Graph, Tensor};
///
/// let g = Graph::new();
/// let a = g.var(Tensor::from_vec(vec![1.0, 2.0], &[2]));
/// let b = g.var(Tensor::scalar(3.0));
/// let c = concat(&[a.clone(), b]);
/// assert_eq!(c.value().data(), &[1.0, 2.0, 3.0]);
///
/// let grads = g.backward(&c.square().sum());
/// assert_eq!(grads.get(&a).data(), &[2.0, 4.0]);
/// ```
///
/// # Panics
///
/// Panics if `vars` is empty or the inputs live on different graphs.
pub fn concat(vars: &[Var]) -> Var {
    assert!(!vars.is_empty(), "concat of zero vars");
    for v in &vars[1..] {
        assert!(vars[0].same_tape(v), "concat: operands belong to different graphs");
    }
    let mut data = Vec::new();
    for v in vars {
        v.with_value(|t| data.extend_from_slice(t.data()));
    }
    let total = data.len();
    let need: Vec<bool> = vars.iter().map(Var::needs_grad).collect();
    let closure = need.contains(&true).then(|| {
        let shapes: Vec<Vec<usize>> = vars.iter().map(Var::shape).collect();
        Box::new(move |g: &Tensor| {
            let mut offset = 0;
            need.iter()
                .zip(&shapes)
                .map(|(&needed, shape)| {
                    let len = shape.iter().product::<usize>();
                    let chunk = &g.data()[offset..offset + len];
                    offset += len;
                    needed.then(|| Tensor::from_vec(chunk.to_vec(), shape))
                })
                .collect()
        }) as BackwardFn
    });
    let parents: Vec<usize> = vars.iter().map(|v| v.id).collect();
    vars[0].record(&parents, Tensor::from_vec(data, &[total]), closure)
}

/// Geometry of one same-padded 2-D convolution: an `h × w` image under
/// an odd `kh × kw` kernel. Tap `t` is kernel element `t` (row-major);
/// pixel `p` is image element `p` (row-major).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConvShape {
    pub h: usize,
    pub w: usize,
    pub kh: usize,
    pub kw: usize,
}

impl ConvShape {
    /// The geometry of an `h × w` image under kernel `k`.
    ///
    /// # Panics
    ///
    /// Panics unless `k` is 2-D with odd dimensions.
    pub fn new(h: usize, w: usize, k: &Tensor) -> Self {
        let (kh, kw) = k.dims2("conv2d kernel");
        assert!(
            kh % 2 == 1 && kw % 2 == 1,
            "conv2d kernel must have odd dimensions, got {kh}x{kw}"
        );
        ConvShape { h, w, kh, kw }
    }

    /// Number of in-bounds (tap, pixel) products over the whole image;
    /// zero-padding terms are not products.
    pub fn products(&self) -> usize {
        let reach = |n: usize, k: usize| -> usize {
            (0..k).map(|i| n.saturating_sub(i.abs_diff(k / 2))).sum()
        };
        reach(self.h, self.kh) * reach(self.w, self.kw)
    }

    /// The walk, tap-major: for each tap in `taps` order and each output
    /// row it reaches, `f(tap, pixels, outputs)` with the contiguous
    /// ranges of in-bounds source pixels and the outputs they feed
    /// (equal lengths; zero padding is never visited).
    ///
    /// A tap's rows come in ascending output order, so every output
    /// receives its products in the order the taps are given. For one
    /// source pixel, outputs ascending means taps descending.
    #[inline(always)]
    pub fn rows(
        &self,
        taps: impl Iterator<Item = usize>,
        mut f: impl FnMut(usize, Range<usize>, Range<usize>),
    ) {
        let ConvShape { h, w, kw, .. } = *self;
        let (ph, pw) = (self.kh / 2, kw / 2);
        for t in taps {
            let (i, j) = (t / kw, t % kw);
            // Output rows y with 0 <= y + i - ph < h; columns likewise.
            let (y_lo, y_hi) = (ph.saturating_sub(i), h.min((h + ph).saturating_sub(i)));
            let (x_lo, x_hi) = (pw.saturating_sub(j), w.min((w + pw).saturating_sub(j)));
            if x_lo >= x_hi {
                continue;
            }
            for y in y_lo..y_hi {
                let src = (y + i - ph) * w + j + x_lo - pw;
                f(t, src..src + x_hi - x_lo, y * w + x_lo..y * w + x_hi);
            }
        }
    }

    /// Forward walk: `out[y * w + x]` becomes the left-to-right sum, from
    /// zero (`T::default()`), of the products of output pixel `(y, x)`'s
    /// in-bounds (tap, pixel) pairs in row-major tap order.
    ///
    /// `add_row(tap, pixels, dst)` adds the product of `tap` with each
    /// pixel of the contiguous range `pixels` into the matching slot of
    /// `dst`. The walk is tap-major ([`ConvShape::rows`]), so inner loops
    /// stream whole rows, yet each output still sums in tap order: the
    /// bits equal a per-pixel accumulator's.
    #[inline(always)]
    pub fn forward<T: Copy + Default>(
        &self,
        out: &mut [T],
        mut add_row: impl FnMut(usize, Range<usize>, &mut [T]),
    ) {
        out.fill(T::default());
        self.rows(0..self.kh * self.kw, |t, pixels, outs| add_row(t, pixels, &mut out[outs]));
    }

    /// Exact kernel gradient of the forward walk for one image `x` under
    /// output gradient `g`, accumulated into `dk`: `dk[t]` sums over
    /// outputs in ascending order, zero gradients skipped — bit-identical
    /// to the per-output walk (each output in row-major order, its taps
    /// in row-major order).
    ///
    /// One walk over the outputs advances every tap's sum together, so
    /// the taps' add chains overlap instead of running one after another;
    /// each chain still starts from `dk[t]` and takes its outputs in
    /// ascending order.
    pub fn backward_taps(&self, x: &[f64], g: &[f64], dk: &mut [f64]) {
        match (self.kh, self.kw) {
            (3, 3) => self.backward_taps_fixed::<3, 3>(x, g, dk),
            _ => self.backward_taps_fixed::<0, 0>(x, g, dk),
        }
    }

    /// [`ConvShape::backward_taps`] for a `KH × KW` kernel, with the
    /// accumulators in registers; `KH == 0` reads the kernel size from
    /// `self` and accumulates in `dk` itself.
    #[inline(always)]
    fn backward_taps_fixed<const KH: usize, const KW: usize>(
        &self,
        x: &[f64],
        g: &[f64],
        dk: &mut [f64],
    ) {
        let ConvShape { h, w, .. } = *self;
        let (kh, kw) = if KH > 0 { (KH, KW) } else { (self.kh, self.kw) };
        let (ph, pw) = (kh / 2, kw / 2);
        let mut fixed = [[0.0; KW]; KH];
        if KH > 0 {
            for (t, &d) in dk.iter().enumerate() {
                fixed[t / KW][t % KW] = d;
            }
        }
        for (y, g_row) in g.chunks_exact(w).enumerate().take(h) {
            for (xo, &gv) in g_row.iter().enumerate() {
                if gv == 0.0 {
                    continue;
                }
                for i in 0..kh {
                    // Source row `y + i - ph` and column `xo + j - pw`
                    // in bounds, else zero padding.
                    if y + i < ph || y + i - ph >= h {
                        continue;
                    }
                    let src = &x[(y + i - ph) * w..][..w];
                    for j in 0..kw {
                        if xo + j < pw || xo + j - pw >= w {
                            continue;
                        }
                        let term = gv * src[xo + j - pw];
                        if KH > 0 {
                            fixed[i][j] += term;
                        } else {
                            dk[i * kw + j] += term;
                        }
                    }
                }
            }
        }
        if KH > 0 {
            for (t, d) in dk.iter_mut().enumerate() {
                *d = fixed[t / KW][t % KW];
            }
        }
    }

    /// Exact image gradient of the forward walk under taps `k` and output
    /// gradient `g`, accumulated into `dx`: each `dx[p]` takes its terms
    /// tap-descending — ascending in output order, as the per-output walk
    /// adds them — zero gradients skipped.
    pub fn backward_pixels(&self, k: &[f64], g: &[f64], dx: &mut [f64]) {
        self.rows((0..self.kh * self.kw).rev(), |t, pixels, outs| {
            for (d, &gv) in dx[pixels].iter_mut().zip(&g[outs]) {
                if gv != 0.0 {
                    *d += gv * k[t];
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::gradcheck::check_gradients;

    #[test]
    fn add_sub_mul_values() {
        let g = Graph::new();
        let a = g.var(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let b = g.var(Tensor::from_vec(vec![3.0, 5.0], &[2]));
        assert_eq!(a.add(&b).value().data(), &[4.0, 7.0]);
        assert_eq!(a.sub(&b).value().data(), &[-2.0, -3.0]);
        assert_eq!(a.mul(&b).value().data(), &[3.0, 10.0]);
        assert_eq!(a.neg().value().data(), &[-1.0, -2.0]);
    }

    #[test]
    fn scalar_ops_values() {
        let g = Graph::new();
        let a = g.var(Tensor::from_vec(vec![1.0, -2.0], &[2]));
        assert_eq!(a.add_scalar(1.0).value().data(), &[2.0, -1.0]);
        assert_eq!(a.mul_scalar(-3.0).value().data(), &[-3.0, 6.0]);
        assert_eq!(a.square().value().data(), &[1.0, 4.0]);
        assert_eq!(a.clamp(0.0, 255.0).value().data(), &[1.0, 0.0]);
    }

    #[test]
    fn reductions_and_loss() {
        let g = Graph::new();
        let a = g.var(Tensor::from_vec(vec![1.0, 3.0], &[2]));
        let t = g.var(Tensor::from_vec(vec![0.0, 0.0], &[2]));
        assert_eq!(a.sum().item(), 4.0);
        assert_eq!(a.mean().item(), 2.0);
        assert_eq!(a.mse_loss(&t).item(), 5.0);
    }

    #[test]
    fn mse_gradient_matches_closed_form() {
        let g = Graph::new();
        let a = g.var(Tensor::from_vec(vec![2.0, -1.0], &[2]));
        let t = g.var(Tensor::from_vec(vec![0.0, 1.0], &[2]));
        let loss = a.mse_loss(&t);
        let grads = g.backward(&loss);
        // d/da mean((a-t)^2) = 2(a-t)/n
        assert_eq!(grads.get(&a).data(), &[2.0, -2.0]);
        assert_eq!(grads.get(&t).data(), &[-2.0, 2.0]);
    }

    #[test]
    fn mse_loss_to_matches_the_chain_bit_for_bit() {
        let out: Vec<f64> = (0..6).map(|i| (i as f64 * 1.37 - 2.9).powi(3) / 7.0).collect();
        let target: Vec<f64> = (0..6).map(|i| 1.0 / (i as f64 + 0.3)).collect();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        let g1 = Graph::new();
        let x1 = g1.var(Tensor::from_vec(out.clone(), &[2, 3]));
        let t1 = g1.constant(Tensor::from_vec(target.clone(), &[6]));
        let chain = x1.reshape(&[6]).mse_loss(&t1);
        let d1 = g1.backward(&chain).get(&x1);

        let g2 = Graph::new();
        let x2 = g2.var(Tensor::from_vec(out, &[2, 3]));
        let fused = x2.mse_loss_to(&target);
        assert_eq!(g2.len(), 2, "one loss node");
        let d2 = g2.backward(&fused).get(&x2);

        assert_eq!(chain.item().to_bits(), fused.item().to_bits());
        assert_eq!(d2.shape(), &[2, 3]);
        assert_eq!(bits(&d1), bits(&d2));
    }

    #[test]
    fn matmul_gradients_numerical() {
        let a = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.3, 1.1, -0.7], &[2, 3]);
        let b = Tensor::from_vec(vec![1.0, 0.2, -0.4, 0.9, 2.0, -1.5], &[3, 2]);
        check_gradients(&[a, b], |_g, vars| vars[0].matmul(&vars[1]).sum(), 1e-5, 1e-6);
    }

    #[test]
    fn conv2d_gradients_numerical() {
        let x = Tensor::from_vec((0..25).map(|v| (v % 7) as f64 - 3.0).collect(), &[5, 5]);
        let k = Tensor::from_vec(vec![1.0, 0.5, -0.5, 2.0, 0.0, -1.0, 0.3, -0.3, 1.5], &[3, 3]);
        check_gradients(&[x, k], |_g, vars| vars[0].conv2d(&vars[1]).square().sum(), 1e-5, 1e-5);
    }

    #[test]
    fn conv2d_identity_kernel() {
        let g = Graph::new();
        let x = g.var(Tensor::from_vec((0..16).map(|v| v as f64).collect(), &[4, 4]));
        let mut id_k = Tensor::zeros(&[3, 3]);
        id_k.data_mut()[4] = 1.0;
        let k = g.var(id_k);
        assert_eq!(x.conv2d(&k).value(), x.value());
    }

    #[test]
    fn conv2d_zero_padding_at_borders() {
        let g = Graph::new();
        let x = g.var(Tensor::ones(&[3, 3]));
        let k = g.var(Tensor::ones(&[3, 3]));
        let out = x.conv2d(&k).value();
        // Center sees all 9 taps, corner sees 4.
        assert_eq!(out.data()[4], 9.0);
        assert_eq!(out.data()[0], 4.0);
    }

    #[test]
    fn clamp_blocks_gradient_outside_range() {
        let g = Graph::new();
        let x = g.var(Tensor::from_vec(vec![-1.0, 0.5, 2.0], &[3]));
        let loss = x.clamp(0.0, 1.0).sum();
        let grads = g.backward(&loss);
        assert_eq!(grads.get(&x).data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn reshape_is_identity_on_data_and_routes_gradients() {
        let g = Graph::new();
        let x = g.var(Tensor::from_vec((0..6).map(|v| v as f64).collect(), &[2, 3]));
        let flat = x.reshape(&[6]);
        assert_eq!(flat.shape(), vec![6]);
        assert_eq!(flat.value().data(), x.value().data());
        let grads = g.backward(&flat.square().sum());
        let dx = grads.get(&x);
        assert_eq!(dx.shape(), &[2, 3]);
        // d/dx Σ x² = 2x, delivered in the original shape.
        assert_eq!(dx.data(), &[0.0, 2.0, 4.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn reshape_to_same_shape_records_no_node() {
        let g = Graph::new();
        let x = g.var(Tensor::ones(&[4]));
        let before = g.len();
        let same = x.reshape(&[4]);
        assert_eq!(g.len(), before);
        assert_eq!(same.id, x.id);
    }

    #[test]
    fn reshape_gradients_numerical() {
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.3, 1.1, -0.7], &[2, 3]);
        check_gradients(&[x], |_g, v| v[0].reshape(&[6]).square().sum(), 1e-5, 1e-6);
    }

    #[test]
    #[should_panic(expected = "reshape volume mismatch")]
    fn reshape_rejects_wrong_volume() {
        let g = Graph::new();
        let x = g.var(Tensor::ones(&[4]));
        let _ = x.reshape(&[5]);
    }

    #[test]
    fn transpose_gradients_numerical() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0, 0.1, -1.1], &[2, 3]);
        let b = Tensor::from_vec(vec![0.4, 1.2, -0.8, 2.0, 0.6, -0.2], &[2, 3]);
        check_gradients(
            &[a, b],
            |_g, v| v[0].transpose().matmul(&v[1]).square().sum(),
            1e-5,
            1e-5,
        );
    }

    #[test]
    fn trig_gradients_numerical() {
        let x = Tensor::from_vec(vec![0.3, -1.2, 2.5], &[3]);
        check_gradients(&[x.clone()], |_g, v| v[0].sin().sum(), 1e-6, 1e-6);
        check_gradients(&[x.clone()], |_g, v| v[0].cos().sum(), 1e-6, 1e-6);
        let t = Tensor::from_vec(vec![0.2, -0.7, 0.9], &[3]);
        check_gradients(&[t], |_g, v| v[0].acos_clamped().sum(), 1e-6, 1e-4);
    }

    #[test]
    fn atan2_gradients_numerical() {
        let y = Tensor::from_vec(vec![0.5, -1.0, 2.0], &[3]);
        let x = Tensor::from_vec(vec![1.0, 0.5, -1.5], &[3]);
        check_gradients(&[y, x], |_g, v| v[0].atan2(&v[1]).sum(), 1e-6, 1e-6);
    }

    #[test]
    fn atan2_quadrants() {
        let g = Graph::new();
        let y = g.var(Tensor::from_vec(vec![1.0, -1.0], &[2]));
        let x = g.var(Tensor::from_vec(vec![-1.0, -1.0], &[2]));
        let v = y.atan2(&x).value();
        assert!((v.data()[0] - 3.0 * std::f64::consts::FRAC_PI_4).abs() < 1e-12);
        assert!((v.data()[1] + 3.0 * std::f64::consts::FRAC_PI_4).abs() < 1e-12);
    }

    #[test]
    fn acos_clamps_out_of_domain() {
        let g = Graph::new();
        let x = g.var(Tensor::from_vec(vec![1.5, -1.5], &[2]));
        let v = x.acos_clamped().value();
        assert_eq!(v.data(), &[0.0, std::f64::consts::PI]);
    }

    #[test]
    #[should_panic(expected = "different graphs")]
    fn cross_graph_binary_op_panics() {
        let g1 = Graph::new();
        let g2 = Graph::new();
        let a = g1.var(Tensor::scalar(1.0));
        let b = g2.var(Tensor::scalar(2.0));
        let _ = a.add(&b);
    }

    #[test]
    #[should_panic(expected = "odd dimensions")]
    fn conv2d_rejects_even_kernel() {
        let g = Graph::new();
        let x = g.var(Tensor::ones(&[4, 4]));
        let k = g.var(Tensor::ones(&[2, 2]));
        let _ = x.conv2d(&k);
    }
}
