//! Dense row-major `f64` tensors.
//!
//! [`Tensor`] is the plain value type flowing through the autograd graph:
//! a shape plus a row-major buffer. It deliberately supports only what the
//! LAC training stack needs — elementwise arithmetic, 2-D matrix products
//! and shape bookkeeping — with validation on every operation.

use std::fmt;

use crate::pool;

/// A dense row-major tensor of `f64` values.
///
/// Storage participates in the thread-local scratch-buffer pool: inside a
/// [`crate::pool::scope`], dropped tensors recycle their buffers and new
/// tensors reuse them (see the pool module docs for the lifetime rules).
/// Outside a scope, allocation and drop behave conventionally.
///
/// # Examples
///
/// ```
/// use lac_tensor::Tensor;
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let b = Tensor::eye(2);
/// assert_eq!(a.matmul(&b).data(), a.data());
/// ```
#[derive(Debug, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f64>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor { shape: self.shape.clone(), data: pool::take_copy(&self.data) }
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        pool::give(std::mem::take(&mut self.data));
    }
}

impl Tensor {
    /// Create a tensor from a flat buffer and shape.
    ///
    /// # Panics
    ///
    /// Panics if the buffer length does not match the shape volume.
    pub fn from_vec(data: Vec<f64>, shape: &[usize]) -> Self {
        let volume: usize = shape.iter().product();
        assert_eq!(data.len(), volume, "data length {} != shape volume {volume}", data.len());
        Tensor { shape: shape.to_vec(), data }
    }

    /// A tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor { shape: shape.to_vec(), data: pool::take_zeroed(shape.iter().product()) }
    }

    /// A tensor of ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor filled with a constant.
    pub fn full(shape: &[usize], value: f64) -> Self {
        Tensor { shape: shape.to_vec(), data: pool::take_filled(shape.iter().product(), value) }
    }

    /// A tensor whose elements `fill` pushes, in row-major order, onto
    /// an empty buffer — one pass, into storage drawn from the pool.
    ///
    /// # Examples
    ///
    /// ```
    /// use lac_tensor::Tensor;
    ///
    /// let t = Tensor::build(&[2, 2], |buf| {
    ///     buf.extend_from_slice(&[1.0, 2.0]);
    ///     buf.extend([3.0, 4.0]);
    /// });
    /// assert_eq!(t.data(), &[1.0, 2.0, 3.0, 4.0]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `fill` pushes other than the shape's volume of elements.
    pub fn build(shape: &[usize], fill: impl FnOnce(&mut Vec<f64>)) -> Self {
        let volume: usize = shape.iter().product();
        let mut data = pool::take_with_capacity(volume);
        fill(&mut data);
        Tensor::from_vec(data, shape)
    }

    /// A rank-0 scalar tensor.
    pub fn scalar(value: f64) -> Self {
        Tensor { shape: vec![], data: vec![value] }
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for rank-0 tensors with a single element... never: a rank-0
    /// tensor still holds one value, so this is only true for shapes with a
    /// zero dimension.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the flat buffer.
    pub fn into_data(mut self) -> Vec<f64> {
        std::mem::take(&mut self.data)
    }

    /// Reinterpret the same buffer under a new shape — a move, never a
    /// copy (row-major order is shape-independent).
    ///
    /// # Panics
    ///
    /// Panics if the new shape's volume differs from the element count.
    pub fn reshaped(mut self, shape: &[usize]) -> Tensor {
        let volume: usize = shape.iter().product();
        assert_eq!(
            self.data.len(),
            volume,
            "reshape volume mismatch: {} elements into shape {shape:?}",
            self.data.len()
        );
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self
    }

    /// The single value of a scalar (rank-0 or one-element) tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f64 {
        assert_eq!(self.data.len(), 1, "item() on tensor with {} elements", self.data.len());
        self.data[0]
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Tensor {
        let mut data = pool::take_with_capacity(self.data.len());
        data.extend(self.data.iter().map(|&v| f(v)));
        Tensor { shape: self.shape.clone(), data }
    }

    /// Elementwise combination of two same-shaped tensors.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f64, f64) -> f64) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip_map shape mismatch");
        let mut data = pool::take_with_capacity(self.data.len());
        data.extend(self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)));
        Tensor { shape: self.shape.clone(), data }
    }

    /// In-place elementwise accumulation `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn accumulate(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "accumulate shape mismatch");
        add_assign(&mut self.data, &other.data);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn mean(&self) -> f64 {
        assert!(!self.data.is_empty(), "mean of empty tensor");
        self.sum() / self.data.len() as f64
    }

    /// 2-D matrix product.
    ///
    /// # Panics
    ///
    /// Panics unless `self` is `[m, k]` and `other` is `[k, n]`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, k) = self.dims2("matmul lhs");
        let (k2, n) = other.dims2("matmul rhs");
        assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
        let mut out = Tensor::zeros(&[m, n]);
        matmul_acc(&self.data, &other.data, &mut out.data, k, n);
        out
    }

    /// 2-D transpose.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is 2-D.
    pub fn transpose(&self) -> Tensor {
        let (m, n) = self.dims2("transpose");
        let mut out = Tensor::zeros(&[n, m]);
        for i in 0..m {
            for j in 0..n {
                out.data[j * m + i] = self.data[i * n + j];
            }
        }
        out
    }

    /// Interpret as 2-D, returning `(rows, cols)`.
    ///
    /// # Panics
    ///
    /// Panics (with `context` in the message) unless the tensor is 2-D.
    pub fn dims2(&self, context: &str) -> (usize, usize) {
        assert_eq!(self.shape.len(), 2, "{context}: expected 2-D tensor, got {:?}", self.shape);
        (self.shape[0], self.shape[1])
    }

    /// Maximum absolute element (0 for empty tensors).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?} ", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, "{:?}", self.data)
        } else {
            write!(f, "[{:.4}, {:.4}, … ; {} values]", self.data[0], self.data[1], self.data.len())
        }
    }
}

/// `acc[i] += other[i]` for every `i`: the loop behind
/// [`Tensor::accumulate`], and so behind every gradient fold of
/// [`Graph::backward`](crate::Graph::backward).
///
/// Kernels that replay a fold of the tape call this very body. Which
/// operand's NaN an add returns depends on the operand order the
/// compiler picks for it, so only a shared, never-inlined body keeps
/// non-finite gradient bits equal too.
#[inline(never)]
pub(crate) fn add_assign(acc: &mut [f64], other: &[f64]) {
    for (a, &b) in acc.iter_mut().zip(other) {
        *a += b;
    }
}

/// `a · b` added into `out`: `a` is `[m, k]`, `b` is `[k, n]` and `out`
/// is `[m, n]`, all row-major. Row `i` of `out` gathers
/// `a[i, p] · b[p, ..]` in ascending `p`, skipping zero `a[i, p]`, down
/// contiguous rows. [`Tensor::matmul`] and the fused backward kernel
/// `matmul_abt` both run this loop, so their sums agree bit for bit —
/// non-finite ones too, as one never-inlined body (see [`add_assign`]).
#[inline(never)]
pub(crate) fn matmul_acc(a: &[f64], b: &[f64], out: &mut [f64], k: usize, n: usize) {
    if k == 0 || n == 0 {
        return;
    }
    for (o_row, a_row) in out.chunks_exact_mut(n).zip(a.chunks_exact(k)) {
        for (&av, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
            if av == 0.0 {
                continue;
            }
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_shape() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "shape volume")]
    fn construction_validates_volume() {
        Tensor::from_vec(vec![1.0], &[2, 3]);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(4.5).item(), 4.5);
    }

    #[test]
    #[should_panic(expected = "item()")]
    fn item_rejects_vectors() {
        Tensor::ones(&[3]).item();
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_vec(vec![1.0, 0.0, 2.0, -1.0, 3.0, 1.0], &[2, 3]);
        let b = Tensor::from_vec(vec![3.0, 1.0, 2.0, 1.0, 1.0, 0.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[5.0, 1.0, 4.0, 2.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec((0..12).map(|v| v as f64).collect(), &[3, 4]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), &[4, 3]);
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor::from_vec(vec![1.0, -2.0], &[2]);
        assert_eq!(a.map(f64::abs).data(), &[1.0, 2.0]);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        assert_eq!(a.zip_map(&b, |x, y| x * y).data(), &[3.0, -8.0]);
    }

    #[test]
    fn accumulate_adds_in_place() {
        let mut a = Tensor::zeros(&[2]);
        a.accumulate(&Tensor::from_vec(vec![1.0, 2.0], &[2]));
        a.accumulate(&Tensor::from_vec(vec![0.5, 0.5], &[2]));
        assert_eq!(a.data(), &[1.5, 2.5]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 6.0], &[4]);
        assert_eq!(a.sum(), 12.0);
        assert_eq!(a.mean(), 3.0);
        assert_eq!(a.max_abs(), 6.0);
    }

    #[test]
    fn reshaped_preserves_data_in_row_major_order() {
        let t = Tensor::from_vec((0..6).map(|v| v as f64).collect(), &[2, 3]);
        let flat = t.clone().reshaped(&[6]);
        assert_eq!(flat.shape(), &[6]);
        assert_eq!(flat.data(), t.data());
        let back = flat.reshaped(&[3, 2]);
        assert_eq!(back.shape(), &[3, 2]);
    }

    #[test]
    #[should_panic(expected = "reshape volume mismatch")]
    fn reshaped_rejects_wrong_volume() {
        let _ = Tensor::ones(&[4]).reshaped(&[5]);
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let a = Tensor::from_vec((1..=9).map(|v| v as f64).collect(), &[3, 3]);
        assert_eq!(a.matmul(&Tensor::eye(3)), a);
        assert_eq!(Tensor::eye(3).matmul(&a), a);
    }

    #[test]
    fn display_never_empty() {
        assert!(!format!("{}", Tensor::zeros(&[2, 2])).is_empty());
        assert!(!format!("{}", Tensor::zeros(&[100])).is_empty());
    }
}
