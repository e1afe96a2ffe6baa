//! Lookup-table acceleration for narrow multipliers.
//!
//! Training repeatedly evaluates the same behavioral model over the full
//! 8-bit operand grid; precomputing the 256 x 256 product table turns every
//! multiply into a single indexed load. This mirrors the paper's "parallel
//! versions of the approximate multipliers" engineering (Section III-D):
//! the goal is simulation throughput, not a change in semantics.

use std::sync::Arc;

use crate::mult::{signed_capable, HwMetadata, Multiplier, Signedness};

/// Maximum operand width for which a full product table is built.
///
/// A 10-bit signed table is ~2^22 entries (16 MiB of `i32`); anything wider
/// is cheaper to evaluate directly.
pub const MAX_LUT_BITS: u32 = 10;

/// A borrowed view of a dense product table: every product of a narrow
/// multiplier, indexable without virtual dispatch.
///
/// Obtained from [`Multiplier::as_lut`]. Hot loops resolve the view once
/// per tensor operation, pre-quantize their operands into row/column
/// indices with [`DenseLut::row`] / [`DenseLut::col`], and then read
/// products straight out of the table — no trait-object call, no repeated
/// clamp-path re-derivation per scalar product.
///
/// The table holds `multiply_raw(a, b)` at `(a - lo) * side + (b - lo)`
/// for every in-range `(a, b)`, so `product(row(a), col(b))` is
/// bit-identical to `multiply(a.round(), b.round())` on the wrapped unit.
/// Entries are `i32`: a tabulated unit has at most [`MAX_LUT_BITS`]-bit
/// operands, so its products need at most `2 · MAX_LUT_BITS + 1` bits.
#[derive(Debug, Clone, Copy)]
pub struct DenseLut<'a> {
    table: &'a [i32],
    lo: i64,
    hi: i64,
    side: usize,
}

impl<'a> DenseLut<'a> {
    /// Build a view over a full product table.
    ///
    /// # Panics
    ///
    /// Panics unless `table.len() == side * side` and `side == hi - lo + 1`.
    pub fn new(table: &'a [i32], lo: i64, hi: i64) -> Self {
        let side = (hi - lo + 1) as usize;
        assert_eq!(table.len(), side * side, "dense LUT table/side mismatch");
        DenseLut { table, lo, hi, side }
    }

    /// Inclusive operand range `(lo, hi)` covered by the table.
    pub fn operand_range(&self) -> (i64, i64) {
        (self.lo, self.hi)
    }

    /// Quantize an operand (round to nearest, clamp into range) and return
    /// its **row** offset: already multiplied by the table stride, so the
    /// inner loop adds a column offset and indexes.
    #[inline(always)]
    pub fn row(&self, v: f64) -> usize {
        self.col(v) * self.side
    }

    /// Quantize an operand (round to nearest, clamp into range) and return
    /// its **column** offset: [`operand_offset`] over the table's range.
    #[inline(always)]
    pub fn col(&self, v: f64) -> usize {
        operand_offset(v, self.lo, self.hi)
    }

    /// The product at a pre-quantized `(row, col)` index pair, as the `f64`
    /// the tensor datapath accumulates.
    ///
    /// # Panics
    ///
    /// Panics if `row + col` indexes past the table (i.e. the offsets did
    /// not come from [`DenseLut::row`] / [`DenseLut::col`]).
    #[inline(always)]
    pub fn product(&self, row: usize, col: usize) -> f64 {
        self.table[row + col] as f64
    }

    /// The raw product table, row-major with stride `side`: the products
    /// of the operand at row offset `r` are `table[r..r + side]`. Fast
    /// kernels walk such rows without going through
    /// [`DenseLut::product`] per element.
    #[inline(always)]
    pub fn table(&self) -> &'a [i32] {
        self.table
    }

    /// The table stride (number of columns; equals `hi - lo + 1`).
    #[inline(always)]
    pub fn side(&self) -> usize {
        self.side
    }
}

/// `f64::round`, bit for bit, without the call: round to nearest with
/// ties away from zero, keeping the sign of `v` (so `-0.3` gives `-0.0`).
///
/// On the baseline x86-64 target `f64::round` is an out-of-line libm
/// call; every operand quantization and datapath shift of the training
/// hot path rounds, so the datapath uses this instead. For `|v| < 2^52`
/// adding and subtracting `2^52` rounds `|v|` to an integer with ties to
/// even, and the one case that differs from `f64::round` — a tie that
/// went down — is moved up. `|v| ≥ 2^52` (integral already) and `±inf`
/// are returned as they are. A NaN fails `a >= 2^52` and takes the
/// arithmetic path, whose adds hand it back quiet with its payload (the
/// x86-64 rule for a NaN operand), and `copysign` restores its sign: the
/// bits `f64::round` returns. The body is branch-free, so loops over it
/// vectorize.
#[inline(always)]
pub fn round_half_away(v: f64) -> f64 {
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    let a = v.abs();
    let r = (a + TWO_52) - TWO_52;
    // For `a < 2^52`, `a - r` is exact (Sterbenz), so it is 0.5 only on a
    // tie rounded down.
    let r = if a - r == 0.5 { r + 1.0 } else { r };
    if a >= TWO_52 {
        v
    } else {
        r.copysign(v)
    }
}

/// The datapath's one operand quantizer: round `v` to nearest
/// ([`round_half_away`]), clamp into `[lo, hi]`, and return the offset
/// from `lo` — the column of `v` in a product table or row covering
/// `lo..=hi`. `DenseLut::col` and the tap-wise ops' product rows both
/// quantize through it, so a table read sees the operand `multiply`
/// would after its own clamp.
#[inline(always)]
pub fn operand_offset(v: f64, lo: i64, hi: i64) -> usize {
    ((round_half_away(v) as i64).clamp(lo, hi) - lo) as usize
}

/// A multiplier wrapper that memoizes the full product table of a narrow
/// unit and answers every multiplication from it.
///
/// Semantics are identical to the wrapped unit (verified by construction:
/// the table is filled by calling the inner model).
///
/// # Examples
///
/// ```
/// use lac_hw::{EtmMultiplier, LutMultiplier, Multiplier};
/// use std::sync::Arc;
///
/// let inner = Arc::new(EtmMultiplier::new(8, 4));
/// let fast = LutMultiplier::new(inner.clone());
/// assert_eq!(fast.multiply(200, 17), inner.multiply(200, 17));
/// ```
#[derive(Clone)]
pub struct LutMultiplier {
    inner: Arc<dyn Multiplier>,
    lo: i64,
    side: usize,
    /// Shared as built: turning the `Vec` into an `Arc<[i32]>` would copy
    /// the whole table into a fresh allocation, which cost more than
    /// filling it.
    table: Arc<Vec<i32>>,
}

impl std::fmt::Debug for LutMultiplier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LutMultiplier")
            .field("inner", &self.inner.name())
            .field("entries", &self.table.len())
            .finish()
    }
}

impl LutMultiplier {
    /// Build the full product table of `inner`, one
    /// [`Multiplier::multiply_row`] call per row: the unit's model
    /// inlines behind one virtual call per row, and an adapter over a
    /// tabulated core ([`crate::SignMagnitude`]) copies the core's rows
    /// instead of calling a model at all.
    ///
    /// # Panics
    ///
    /// Panics if `inner.bits() > MAX_LUT_BITS` (use
    /// [`LutMultiplier::maybe_wrap`] to fall back gracefully), or if a
    /// product does not fit the table's `i32` entries.
    pub fn new(inner: Arc<dyn Multiplier>) -> Self {
        assert!(
            inner.bits() <= MAX_LUT_BITS,
            "refusing to tabulate {}-bit multiplier {} (> {MAX_LUT_BITS} bits)",
            inner.bits(),
            inner.name()
        );
        let (lo, hi) = inner.operand_range();
        let operands: Vec<i64> = (lo..=hi).collect();
        let side = operands.len();
        let mut row = vec![0; side];
        let mut table = Vec::with_capacity(side * side);
        for &a in &operands {
            inner.multiply_row(a, &operands, &mut row);
            table.extend(row.iter().map(|&p| {
                i32::try_from(p).unwrap_or_else(|_| {
                    panic!("{}: product {p} of {a} does not fit an i32 table", inner.name())
                })
            }));
        }
        LutMultiplier { inner, lo, side, table: Arc::new(table) }
    }

    /// Wrap `inner` in a LUT when it is narrow enough, otherwise return it
    /// unchanged. Idempotent: a unit that already exposes a dense table
    /// (e.g. an existing `LutMultiplier`, possibly behind an adapter that
    /// forwards `as_lut`) is returned as-is rather than re-tabulated.
    pub fn maybe_wrap(inner: Arc<dyn Multiplier>) -> Arc<dyn Multiplier> {
        if inner.as_lut().is_some() || inner.bits() > MAX_LUT_BITS {
            inner
        } else {
            Arc::new(LutMultiplier::new(inner))
        }
    }

    /// The wrapped behavioral model.
    pub fn inner(&self) -> &Arc<dyn Multiplier> {
        &self.inner
    }
}

/// The unit a kernel's ops run on, built from a catalog unit: the one
/// datapath policy behind every `Kernel::adapt`.
///
/// 1. A core of at most [`MAX_LUT_BITS`] bits is tabulated.
/// 2. For signed `operands`, an unsigned core is wrapped in
///    [`SignMagnitude`](crate::SignMagnitude).
/// 3. That adapter is tabulated as well; its fill copies the core's
///    table rows and makes no model call.
///
/// Wider units pass through untabulated, and an already adapted unit
/// comes back as it is. Every product is bit-identical to the catalog
/// unit's own model.
///
/// # Examples
///
/// ```
/// use lac_hw::{adapt_unit, catalog, Multiplier, Signedness};
///
/// let fta = catalog::by_name("mul8u_FTA").unwrap();
/// let signed = adapt_unit(&fta, Signedness::Signed);
/// assert!(signed.as_lut().is_some());
/// assert_eq!(signed.multiply(-200, 17), -fta.multiply(200, 17));
/// ```
pub fn adapt_unit(unit: &Arc<dyn Multiplier>, operands: Signedness) -> Arc<dyn Multiplier> {
    let core = LutMultiplier::maybe_wrap(Arc::clone(unit));
    match operands {
        Signedness::Unsigned => core,
        Signedness::Signed => LutMultiplier::maybe_wrap(signed_capable(core)),
    }
}

impl Multiplier for LutMultiplier {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn bits(&self) -> u32 {
        self.inner.bits()
    }

    fn signedness(&self) -> Signedness {
        self.inner.signedness()
    }

    fn operand_range(&self) -> (i64, i64) {
        self.inner.operand_range()
    }

    fn multiply_raw(&self, a: i64, b: i64) -> i64 {
        let ia = (a - self.lo) as usize;
        let ib = (b - self.lo) as usize;
        self.table[ia * self.side + ib].into()
    }

    /// Clamp against the cached bounds and index the table directly.
    ///
    /// The default implementation would re-derive the operand range
    /// through `self.operand_range()` — a virtual call into the wrapped
    /// unit on every product. The bounds are fixed at table-build time,
    /// so the slow (non-`as_lut`) callers get a dispatch-free clamp too.
    fn multiply(&self, a: i64, b: i64) -> i64 {
        let hi = self.lo + self.side as i64 - 1;
        let ia = (a.clamp(self.lo, hi) - self.lo) as usize;
        let ib = (b.clamp(self.lo, hi) - self.lo) as usize;
        self.table[ia * self.side + ib].into()
    }

    fn as_lut(&self) -> Option<DenseLut<'_>> {
        Some(DenseLut::new(&self.table, self.lo, self.lo + self.side as i64 - 1))
    }

    fn metadata(&self) -> HwMetadata {
        self.inner.metadata()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etm::EtmMultiplier;
    use crate::kulkarni::KulkarniMultiplier;
    use crate::mult::ExactMultiplier;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn lut_matches_inner_exhaustively() {
        let inner = Arc::new(KulkarniMultiplier::new(8));
        let lut = LutMultiplier::new(inner.clone());
        for a in 0..256 {
            for b in 0..256 {
                assert_eq!(lut.multiply(a, b), inner.multiply(a, b), "{a}x{b}");
            }
        }
    }

    #[test]
    fn lut_matches_signed_inner() {
        let inner: Arc<dyn Multiplier> =
            Arc::new(ExactMultiplier::new(8, Signedness::Signed));
        let lut = LutMultiplier::new(inner.clone());
        for a in [-127i64, -1, 0, 1, 127] {
            for b in [-127i64, -64, 0, 64, 127] {
                assert_eq!(lut.multiply(a, b), a * b);
            }
        }
    }

    #[test]
    fn maybe_wrap_leaves_wide_units_alone() {
        let wide: Arc<dyn Multiplier> =
            Arc::new(ExactMultiplier::new(16, Signedness::Unsigned));
        let wrapped = LutMultiplier::maybe_wrap(wide.clone());
        assert_eq!(wrapped.name(), wide.name());
        assert_eq!(wrapped.multiply(1234, 4321), 1234 * 4321);
    }

    #[test]
    fn adapt_unit_leaves_wide_units_untabulated_and_is_idempotent() {
        let wide: Arc<dyn Multiplier> =
            Arc::new(ExactMultiplier::new(16, Signedness::Unsigned));
        assert!(Arc::ptr_eq(&adapt_unit(&wide, Signedness::Unsigned), &wide));
        let signed = adapt_unit(&wide, Signedness::Signed);
        assert_eq!(signed.signedness(), Signedness::Signed);
        assert!(signed.as_lut().is_none());
        assert_eq!(signed.multiply(-1234, 4321), -1234 * 4321);
        assert!(Arc::ptr_eq(&adapt_unit(&signed, Signedness::Signed), &signed));
        let narrow: Arc<dyn Multiplier> = Arc::new(EtmMultiplier::new(8, 4));
        for operands in [Signedness::Unsigned, Signedness::Signed] {
            let adapted = adapt_unit(&narrow, operands);
            assert!(adapted.as_lut().is_some());
            assert!(Arc::ptr_eq(&adapt_unit(&adapted, operands), &adapted));
        }
    }

    #[test]
    fn lut_preserves_metadata_and_identity() {
        let inner = Arc::new(EtmMultiplier::new(8, 4));
        let lut = LutMultiplier::new(inner.clone());
        assert_eq!(lut.name(), inner.name());
        assert_eq!(lut.metadata(), inner.metadata());
        assert_eq!(lut.bits(), 8);
    }

    #[test]
    fn as_lut_view_matches_multiply_everywhere() {
        let inner = Arc::new(EtmMultiplier::new(8, 4));
        let lut = LutMultiplier::new(inner);
        let view = lut.as_lut().expect("LutMultiplier exposes its table");
        assert_eq!(view.operand_range(), lut.operand_range());
        // Including out-of-range and fractional operands: the view's
        // round+clamp quantization must agree with multiply()'s clamp.
        for a in [-3.0, 0.0, 0.4, 17.6, 200.0, 255.0, 300.0] {
            for b in [-1.0, 2.5, 128.0, 255.0, 999.0] {
                let via_view = view.product(view.row(a), view.col(b));
                let via_trait = lut.multiply(a.round() as i64, b.round() as i64) as f64;
                assert_eq!(via_view, via_trait, "{a} x {b}");
            }
        }
    }

    #[test]
    fn multiply_override_clamps_like_default() {
        let inner = Arc::new(KulkarniMultiplier::new(8));
        let lut = LutMultiplier::new(inner.clone());
        for (a, b) in [(300, 2), (-5, 7), (256, 256), (255, 255), (0, 0)] {
            assert_eq!(lut.multiply(a, b), inner.multiply(a, b), "{a} x {b}");
        }
    }

    #[test]
    fn plain_units_expose_no_lut() {
        assert!(ExactMultiplier::new(8, Signedness::Unsigned).as_lut().is_none());
        assert!(EtmMultiplier::new(8, 4).as_lut().is_none());
    }

    /// A unit that counts its model calls: `multiply`, and with it the
    /// default `multiply_row`, reach `multiply_raw` once per product.
    #[derive(Debug)]
    struct Counting {
        inner: Arc<dyn Multiplier>,
        calls: AtomicUsize,
    }

    impl Counting {
        fn take(&self) -> usize {
            self.calls.swap(0, Ordering::Relaxed)
        }
    }

    impl Multiplier for Counting {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn bits(&self) -> u32 {
            self.inner.bits()
        }

        fn signedness(&self) -> Signedness {
            self.inner.signedness()
        }

        fn multiply_raw(&self, a: i64, b: i64) -> i64 {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.multiply_raw(a, b)
        }

        fn metadata(&self) -> HwMetadata {
            self.inner.metadata()
        }
    }

    /// What a table costs, in model calls: one per cell for an unsigned
    /// 8-bit table; one magnitude row of 256 per table row for the
    /// signed adapter over the raw core (each of the 511 rows takes the
    /// row of its `|a|`); none at all over a tabulated core.
    #[test]
    fn table_builds_count_model_calls() {
        let core = Arc::new(Counting {
            inner: crate::catalog::by_name("mul8u_FTA").unwrap(),
            calls: AtomicUsize::new(0),
        });
        let unsigned: Arc<dyn Multiplier> = Arc::new(LutMultiplier::new(core.clone()));
        assert_eq!(core.take(), 1 << 16);
        let over_raw = LutMultiplier::new(signed_capable(core.clone()));
        assert_eq!(core.take(), 511 * 256);
        let over_table = LutMultiplier::new(signed_capable(unsigned));
        assert_eq!(core.take(), 0);
        assert_eq!(over_raw.table, over_table.table);
    }

    #[test]
    #[should_panic(expected = "table/side mismatch")]
    fn dense_lut_validates_geometry() {
        let table = [0i32; 5];
        let _ = DenseLut::new(&table, 0, 2);
    }

    #[test]
    #[should_panic(expected = "refusing to tabulate")]
    fn rejects_wide_units() {
        let wide: Arc<dyn Multiplier> =
            Arc::new(ExactMultiplier::new(16, Signedness::Unsigned));
        let _ = LutMultiplier::new(wide);
    }
}
