//! Core abstractions for approximate multiplier hardware models.
//!
//! Every hardware unit in this crate implements [`Multiplier`]: a behavioral
//! model that maps two integer operands to an (possibly approximate) product,
//! together with silicon metadata (area / power / delay, normalized to an
//! accurate 16-bit multiplier as in Table I of the LAC paper).

use std::fmt;
use std::sync::Arc;

/// Operand signedness of a hardware multiplier.
///
/// Unsigned units accept operands in `[0, 2^m - 1]`; signed units accept the
/// symmetric range `[-(2^(m-1) - 1), 2^(m-1) - 1]` (the most negative
/// two's-complement value is excluded so that sign-magnitude behavioral
/// models are well defined for every representable operand).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Signedness {
    /// Operands are non-negative.
    Unsigned,
    /// Operands may be negative.
    Signed,
}

impl fmt::Display for Signedness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Signedness::Unsigned => f.write_str("unsigned"),
            Signedness::Signed => f.write_str("signed"),
        }
    }
}

/// Silicon cost metadata of a hardware unit, normalized to an accurate
/// 16-bit multiplier (Table I / Table III of the LAC paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwMetadata {
    /// Area relative to an accurate 16-bit multiplier.
    pub area: f64,
    /// Power relative to an accurate 16-bit multiplier.
    pub power: f64,
    /// Critical-path delay relative to an accurate 16-bit multiplier.
    ///
    /// `None` when the paper does not report a delay for this unit
    /// (Table III only covers the EvoApprox subset).
    pub delay: Option<f64>,
}

impl HwMetadata {
    /// Metadata with the given area and power and no published delay.
    pub const fn new(area: f64, power: f64) -> Self {
        HwMetadata { area, power, delay: None }
    }

    /// Metadata with area, power, and delay.
    pub const fn with_delay(area: f64, power: f64, delay: f64) -> Self {
        HwMetadata { area, power, delay: Some(delay) }
    }
}

impl Default for HwMetadata {
    fn default() -> Self {
        HwMetadata { area: 1.0, power: 1.0, delay: Some(1.0) }
    }
}

/// A behavioral model of a (possibly approximate) integer multiplier.
///
/// Implementations are deterministic pure functions of their operands: the
/// same `(a, b)` always yields the same product. This is what lets LAC train
/// application coefficients against the unit's error profile.
///
/// Operands outside [`operand_range`](Multiplier::operand_range) are clamped
/// into range before multiplication, mirroring the saturation performed by
/// the fixed-point datapath feeding the unit.
///
/// # Examples
///
/// ```
/// use lac_hw::{ExactMultiplier, Multiplier, Signedness};
///
/// let m = ExactMultiplier::new(8, Signedness::Unsigned);
/// assert_eq!(m.multiply(12, 10), 120);
/// assert_eq!(m.operand_range(), (0, 255));
/// ```
pub trait Multiplier: Send + Sync + fmt::Debug {
    /// Human-readable unit name, e.g. `"mul8u_JV3"` or `"DRUM16-6"`.
    fn name(&self) -> &str;

    /// Operand bit width `m`.
    fn bits(&self) -> u32;

    /// Operand signedness.
    fn signedness(&self) -> Signedness;

    /// Multiply two in-range operands.
    ///
    /// This is the raw behavioral model; callers normally use
    /// [`multiply`](Multiplier::multiply), which clamps out-of-range
    /// operands first. **Both operands must lie inside
    /// [`operand_range`](Multiplier::operand_range)**: implementations
    /// (table lookups in particular) may index memory by operand value and
    /// are free to panic or return nonsense on out-of-range inputs.
    fn multiply_raw(&self, a: i64, b: i64) -> i64;

    /// Silicon metadata (area / power / delay) of this unit.
    fn metadata(&self) -> HwMetadata;

    /// Inclusive operand range `(lo, hi)` accepted by this unit.
    fn operand_range(&self) -> (i64, i64) {
        operand_range(self.bits(), self.signedness())
    }

    /// Multiply two operands, clamping each into the operand range first.
    fn multiply(&self, a: i64, b: i64) -> i64 {
        let (lo, hi) = self.operand_range();
        self.multiply_raw(a.clamp(lo, hi), b.clamp(lo, hi))
    }

    /// One row of products sharing the first operand:
    /// `out[j] = self.multiply(a, bs[j])` for every `j`.
    ///
    /// Untabulated hot loops (`approx_matmul` rows, product-row
    /// tabulation in `lac-tensor`) make one virtual call per row instead
    /// of one per product. The default body loops over
    /// [`multiply`](Multiplier::multiply); it is compiled per unit, so
    /// the unit's model inlines behind the single call. Units override it
    /// to hoist the work that depends on `a` alone out of the loop.
    ///
    /// **Purity contract:** `multiply` must be a pure function of its
    /// operands, so callers may batch, reorder and deduplicate products
    /// freely. Every override must equal the per-element loop exactly,
    /// for any operands (clamping included).
    ///
    /// # Panics
    ///
    /// Panics if `bs` and `out` differ in length.
    fn multiply_row(&self, a: i64, bs: &[i64], out: &mut [i64]) {
        assert_eq!(bs.len(), out.len(), "multiply_row: operand and output rows differ in length");
        for (o, &b) in out.iter_mut().zip(bs) {
            *o = self.multiply(a, b);
        }
    }

    /// A borrowable dense product-table view, when this unit memoizes one.
    ///
    /// Hot loops (the `lac-tensor` approximate ops) call this once per
    /// tensor operation and, on `Some`, run a devirtualized fast path that
    /// indexes the table directly. The default is `None`; only wrappers
    /// that actually hold a full table ([`crate::LutMultiplier`]) return a
    /// view. Semantics are guaranteed identical: the table is filled by
    /// calling the unit's own behavioral model.
    fn as_lut(&self) -> Option<crate::lut::DenseLut<'_>> {
        None
    }

    /// The accurate product of two clamped operands; the reference against
    /// which this unit's error is measured.
    fn exact(&self, a: i64, b: i64) -> i64 {
        let (lo, hi) = self.operand_range();
        a.clamp(lo, hi) * b.clamp(lo, hi)
    }

    /// Signed error `multiply(a, b) - exact(a, b)` for one operand pair.
    fn error_at(&self, a: i64, b: i64) -> i64 {
        self.multiply(a, b) - self.exact(a, b)
    }
}

/// Inclusive operand range for a `bits`-wide operand of the given signedness.
///
/// # Examples
///
/// ```
/// use lac_hw::{operand_range, Signedness};
///
/// assert_eq!(operand_range(8, Signedness::Unsigned), (0, 255));
/// assert_eq!(operand_range(8, Signedness::Signed), (-127, 127));
/// ```
///
/// # Panics
///
/// Panics if `bits` is zero or greater than 32.
pub fn operand_range(bits: u32, signedness: Signedness) -> (i64, i64) {
    assert!((1..=32).contains(&bits), "operand width {bits} out of range 1..=32");
    match signedness {
        Signedness::Unsigned => (0, (1i64 << bits) - 1),
        Signedness::Signed => {
            let hi = (1i64 << (bits - 1)) - 1;
            (-hi, hi)
        }
    }
}

/// An accurate (error-free) multiplier of a given width and signedness.
///
/// Used as the reference branch of LAC training and as the normalization
/// point for silicon metadata (`ExactMultiplier::new(16, ..)` has area =
/// power = delay = 1.0).
#[derive(Debug, Clone)]
pub struct ExactMultiplier {
    name: String,
    bits: u32,
    signedness: Signedness,
    metadata: HwMetadata,
}

impl ExactMultiplier {
    /// Create an accurate multiplier of the given width.
    ///
    /// Metadata follows the normalization of the paper: the 16-bit exact
    /// multiplier is the unit reference (1.0 / 1.0 / 1.0); narrower exact
    /// multipliers are scaled by the usual quadratic area/power and
    /// logarithmic delay trends of array multipliers.
    pub fn new(bits: u32, signedness: Signedness) -> Self {
        let scale = (bits as f64 / 16.0).powi(2);
        let delay = (bits as f64).log2() / 16f64.log2();
        ExactMultiplier {
            name: format!("exact{}{}", bits, if signedness == Signedness::Signed { "s" } else { "u" }),
            bits,
            signedness,
            metadata: HwMetadata::with_delay(scale, scale, delay),
        }
    }
}

impl Multiplier for ExactMultiplier {
    fn name(&self) -> &str {
        &self.name
    }

    fn bits(&self) -> u32 {
        self.bits
    }

    fn signedness(&self) -> Signedness {
        self.signedness
    }

    fn multiply_raw(&self, a: i64, b: i64) -> i64 {
        a * b
    }

    fn metadata(&self) -> HwMetadata {
        self.metadata
    }
}

/// Adapts an unsigned multiplier core to signed operands using
/// sign-magnitude arithmetic.
///
/// The LAC paper evaluates unsigned multipliers on applications with signed
/// coefficients (edge detection, sharpening, DCT, DFT); the standard way to
/// do that in a fixed-point datapath is to multiply magnitudes in the
/// unsigned core and re-apply the product sign, which is exactly what this
/// wrapper models. The signed operand range becomes `[-(2^m - 1), 2^m - 1]`
/// — the range quoted in Section III-B of the paper.
///
/// # Examples
///
/// ```
/// use lac_hw::{ExactMultiplier, Multiplier, SignMagnitude, Signedness};
/// use std::sync::Arc;
///
/// let unsigned = Arc::new(ExactMultiplier::new(8, Signedness::Unsigned));
/// let signed = SignMagnitude::new(unsigned);
/// assert_eq!(signed.multiply(-12, 10), -120);
/// assert_eq!(signed.operand_range(), (-255, 255));
/// ```
#[derive(Debug, Clone)]
pub struct SignMagnitude {
    inner: Arc<dyn Multiplier>,
}

impl SignMagnitude {
    /// Wrap an unsigned multiplier core for signed operands.
    ///
    /// # Panics
    ///
    /// Panics if `inner` is already signed.
    pub fn new(inner: Arc<dyn Multiplier>) -> Self {
        assert_eq!(
            inner.signedness(),
            Signedness::Unsigned,
            "SignMagnitude wraps unsigned cores only; {} is already signed",
            inner.name()
        );
        SignMagnitude { inner }
    }

    /// The wrapped unsigned core.
    pub fn inner(&self) -> &Arc<dyn Multiplier> {
        &self.inner
    }
}

impl Multiplier for SignMagnitude {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn bits(&self) -> u32 {
        self.inner.bits()
    }

    fn signedness(&self) -> Signedness {
        Signedness::Signed
    }

    fn operand_range(&self) -> (i64, i64) {
        let (_, hi) = self.inner.operand_range();
        (-hi, hi)
    }

    fn multiply_raw(&self, a: i64, b: i64) -> i64 {
        let sign = (a < 0) != (b < 0);
        let mag = self.inner.multiply_raw(a.abs(), b.abs());
        if sign {
            -mag
        } else {
            mag
        }
    }

    /// The magnitude products of `|a|`, taken once for the whole row,
    /// with each product's sign re-applied. An unsigned core's range
    /// starts at 0, so magnitude `m` sits at index `m` of a core row:
    ///
    /// * a tabulated core lends its table row of `|a|` (no model call);
    /// * a row longer than the core's range takes the core's whole row
    ///   of `|a|` in one call (a table fill: `hi + 1` calls per row);
    /// * a shorter row makes one core call per element, in chunks.
    fn multiply_row(&self, a: i64, bs: &[i64], out: &mut [i64]) {
        assert_eq!(bs.len(), out.len(), "multiply_row: operand and output rows differ in length");
        let (lo, hi) = self.operand_range();
        let a = a.clamp(lo, hi);
        let signed = |b: i64, mag: i64| if (a < 0) != (b < 0) { -mag } else { mag };
        if let Some(lut) = self.inner.as_lut() {
            let row = &lut.table()[lut.row(a.abs() as f64)..][..lut.side()];
            for (o, &b) in out.iter_mut().zip(bs) {
                let b = b.clamp(lo, hi);
                *o = signed(b, row[b.unsigned_abs() as usize].into());
            }
        } else if bs.len() > hi as usize {
            let range: Vec<i64> = (0..=hi).collect();
            let mut mags = vec![0; range.len()];
            self.inner.multiply_row(a.abs(), &range, &mut mags);
            for (o, &b) in out.iter_mut().zip(bs) {
                let b = b.clamp(lo, hi);
                *o = signed(b, mags[b.unsigned_abs() as usize]);
            }
        } else {
            let mut mags = [0; 128];
            for (bs, out) in bs.chunks(mags.len()).zip(out.chunks_mut(mags.len())) {
                let mags = &mut mags[..bs.len()];
                for (m, &b) in mags.iter_mut().zip(bs) {
                    *m = b.clamp(lo, hi).abs();
                }
                self.inner.multiply_row(a.abs(), mags, out);
                for (o, &b) in out.iter_mut().zip(bs) {
                    *o = signed(b, *o);
                }
            }
        }
    }

    fn metadata(&self) -> HwMetadata {
        self.inner.metadata()
    }
}

/// Return a signed-capable view of `mult`: signed units pass through
/// unchanged, unsigned units are wrapped in [`SignMagnitude`].
///
/// # Examples
///
/// ```
/// use lac_hw::{signed_capable, ExactMultiplier, Multiplier, Signedness};
/// use std::sync::Arc;
///
/// let m: Arc<dyn Multiplier> = Arc::new(ExactMultiplier::new(8, Signedness::Unsigned));
/// let s = signed_capable(m);
/// assert_eq!(s.signedness(), Signedness::Signed);
/// assert_eq!(s.multiply(-3, 5), -15);
/// ```
pub fn signed_capable(mult: Arc<dyn Multiplier>) -> Arc<dyn Multiplier> {
    match mult.signedness() {
        Signedness::Signed => mult,
        Signedness::Unsigned => Arc::new(SignMagnitude::new(mult)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_multiplier_is_exact() {
        let m = ExactMultiplier::new(8, Signedness::Unsigned);
        for a in [0, 1, 17, 200, 255] {
            for b in [0, 3, 128, 255] {
                assert_eq!(m.multiply(a, b), a * b);
                assert_eq!(m.error_at(a, b), 0);
            }
        }
    }

    #[test]
    fn exact16_is_normalization_reference() {
        let m = ExactMultiplier::new(16, Signedness::Unsigned);
        let md = m.metadata();
        assert_eq!(md.area, 1.0);
        assert_eq!(md.power, 1.0);
        assert_eq!(md.delay, Some(1.0));
    }

    #[test]
    fn exact8_is_cheaper_than_exact16() {
        let m8 = ExactMultiplier::new(8, Signedness::Unsigned).metadata();
        let m16 = ExactMultiplier::new(16, Signedness::Unsigned).metadata();
        assert!(m8.area < m16.area);
        assert!(m8.power < m16.power);
        assert!(m8.delay.unwrap() < m16.delay.unwrap());
    }

    #[test]
    fn operand_ranges() {
        assert_eq!(operand_range(2, Signedness::Unsigned), (0, 3));
        assert_eq!(operand_range(16, Signedness::Unsigned), (0, 65535));
        assert_eq!(operand_range(16, Signedness::Signed), (-32767, 32767));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn operand_range_rejects_zero_width() {
        operand_range(0, Signedness::Unsigned);
    }

    #[test]
    fn multiply_clamps_out_of_range_operands() {
        let m = ExactMultiplier::new(8, Signedness::Unsigned);
        assert_eq!(m.multiply(300, 2), 255 * 2);
        assert_eq!(m.multiply(-5, 2), 0);
    }

    #[test]
    fn sign_magnitude_signs() {
        let core: Arc<dyn Multiplier> = Arc::new(ExactMultiplier::new(8, Signedness::Unsigned));
        let s = SignMagnitude::new(core);
        assert_eq!(s.multiply(-4, -4), 16);
        assert_eq!(s.multiply(-4, 4), -16);
        assert_eq!(s.multiply(4, -4), -16);
        assert_eq!(s.multiply(0, -4), 0);
    }

    #[test]
    fn sign_magnitude_range_matches_paper() {
        let core: Arc<dyn Multiplier> = Arc::new(ExactMultiplier::new(8, Signedness::Unsigned));
        let s = SignMagnitude::new(core);
        // Section III-B: signed coefficients constrained to [-(2^m-1), 2^m-1].
        assert_eq!(s.operand_range(), (-255, 255));
    }

    #[test]
    fn signed_capable_passthrough_for_signed() {
        let m: Arc<dyn Multiplier> = Arc::new(ExactMultiplier::new(8, Signedness::Signed));
        let s = signed_capable(m.clone());
        assert_eq!(s.name(), m.name());
        assert_eq!(s.operand_range(), (-127, 127));
    }

    #[test]
    #[should_panic(expected = "unsigned cores only")]
    fn sign_magnitude_rejects_signed_core() {
        let m: Arc<dyn Multiplier> = Arc::new(ExactMultiplier::new(8, Signedness::Signed));
        let _ = SignMagnitude::new(m);
    }

    #[test]
    fn multiplier_trait_is_object_safe_and_send_sync() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn Multiplier>();
    }
}
