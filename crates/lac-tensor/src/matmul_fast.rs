//! Blocked LUT-matmul kernels with per-coefficient row tabulation.
//!
//! During an optimizer step, every `approx_matmul` of an application
//! kernel multiplies one matrix that is *fixed across the batch* (the
//! trained coefficient matrix, quantized once per step) against one that
//! varies per sample. The generic LUT path still resolves every scalar
//! product with an indexed load into the full product table, paying the
//! index arithmetic, `i64 → f64` conversion, and quantization of the
//! fixed operand on every call.
//!
//! The kernels here tabulate, per distinct quantized coefficient of the
//! fixed operand, its full product row (or column) from the resolved
//! [`DenseLut`] — converted to `f64` once — and then run a cache-blocked
//! loop whose inner body is a pure gather-and-add over those rows. A
//! small per-thread cache detects fixed operands across calls: the first
//! sighting of an `(operand, table)` pair records a candidate, the second
//! promotes it to tabulated row tables, and every later call reuses them.
//! A caller that knows which side is the coefficient names it
//! ([`Fixed`]), and the other side is never looked up or recorded.
//!
//! # Bit-equivalence contract
//!
//! Every kernel in this module produces output **bit-identical** to the
//! scalar reference path in [`crate::approx`]:
//!
//! * Row tables hold exactly `table[row + col] as f64` — the same value
//!   [`DenseLut::product`] returns — so each scalar product is the same
//!   `f64`.
//! * Per output element, partial products are accumulated in ascending-`p`
//!   order, one add at a time, starting from `0.0` — the same association
//!   as the reference `i-j-p` loop. Loop *order* differs (`i-p-j`, tiled
//!   over `j`), which re-interleaves independent output elements but never
//!   reorders the adds of any single element.
//! * Quantization of the varying operand uses [`DenseLut::row`]/
//!   [`DenseLut::col`], the same round-and-clamp as the reference.
//! * Fixed-operand detection compares the full `f64` bit pattern of the
//!   operand plus the table's identity token, so a cache hit can never
//!   pair an operand with stale tables.
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

use std::cell::RefCell;

use lac_hw::DenseLut;

use crate::pool;
use crate::tensor::{matmul_acc, Tensor};

/// Tile width of the inner `j` loop. Keeps the active slice of the output
/// row, the index row, and one product row resident in L1 for large `n`;
/// has no effect on results (each output element's accumulation order is
/// `p`-ascending regardless of tiling).
const J_TILE: usize = 64;

/// Maximum number of cache entries per thread (fixed candidates plus the
/// churn of varying operands awaiting eviction).
const MAX_ENTRIES: usize = 16;

/// Cap on the summed length of all tabulated rows per thread (f64 count);
/// 1 Mi f64 = 8 MiB.
const MAX_TABLE_F64S: usize = 1 << 20;

/// Operands larger than this are never considered as fixed candidates:
/// coefficient matrices are small, and storing the bit pattern of a large
/// varying operand would be pure waste.
const MAX_FIXED_ELEMS: usize = 4096;

/// Which side of the matmul the cached operand sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Lhs,
    Rhs,
}

/// Tabulated product rows for one fixed operand.
struct Tables {
    /// Per element of the fixed operand: index of its product row.
    slots: Vec<u32>,
    /// `distinct` rows of `side` products each, `f64`-converted.
    data: Vec<f64>,
}

struct Entry {
    token: u64,
    role: Role,
    rows: usize,
    cols: usize,
    /// `f64::to_bits` of every element of the fixed operand.
    bits: Vec<u64>,
    /// `None` while the entry is a once-seen candidate.
    tables: Option<Tables>,
    stamp: u64,
}

#[derive(Default)]
struct Cache {
    entries: Vec<Entry>,
    clock: u64,
}

thread_local! {
    static CACHE: RefCell<Cache> = RefCell::new(Cache::default());
}

fn bits_match(bits: &[u64], t: &Tensor) -> bool {
    bits.len() == t.len() && bits.iter().zip(t.data()).all(|(&b, v)| b == v.to_bits())
}

impl Cache {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Find the entry whose `(token, role, shape, bits)` all match `t`,
    /// promoting a once-seen candidate to tabulated row tables. The full
    /// bit pattern is part of the key: distinct operands sharing a table,
    /// role, and shape (a fixed coefficient matrix and a varying
    /// intermediate, say) each get their own entry, and stale tables from
    /// a previous optimizer step can never match the moved coefficients.
    fn lookup(&mut self, token: u64, role: Role, t: &Tensor, lut: &DenseLut<'_>) -> Option<usize> {
        let (rows, cols) = t.dims2("matmul_fast operand");
        let idx = self.entries.iter().position(|e| {
            e.token == token
                && e.role == role
                && e.rows == rows
                && e.cols == cols
                && bits_match(&e.bits, t)
        })?;
        let stamp = self.tick();
        let e = &mut self.entries[idx];
        e.stamp = stamp;
        if e.tables.is_none() {
            // Second sighting: the operand really is fixed. Tabulate.
            e.tables = Some(tabulate(t, role, lut));
            // Eviction swap-removes entries, which can relocate the one
            // just tabulated; return its final position, not `idx`.
            return Some(self.enforce_caps(idx));
        }
        Some(idx)
    }

    fn insert_candidate(&mut self, token: u64, role: Role, t: &Tensor) {
        if t.len() > MAX_FIXED_ELEMS || t.shape().len() != 2 {
            return;
        }
        let (rows, cols) = t.dims2("matmul_fast operand");
        let stamp = self.tick();
        self.entries.push(Entry {
            token,
            role,
            rows,
            cols,
            bits: t.data().iter().map(|v| v.to_bits()).collect(),
            tables: None,
            stamp,
        });
        self.enforce_caps(usize::MAX);
    }

    /// Evict least-recently-used entries beyond the entry/byte caps,
    /// never evicting `keep`. Returns `keep`'s position after eviction:
    /// `swap_remove` backfills the victim slot with the last entry, so
    /// the protected entry can move.
    fn enforce_caps(&mut self, mut keep: usize) -> usize {
        loop {
            let total: usize =
                self.entries.iter().map(|e| e.tables.as_ref().map_or(0, |t| t.data.len())).sum();
            if self.entries.len() <= MAX_ENTRIES && total <= MAX_TABLE_F64S {
                return keep;
            }
            let Some(victim) = self
                .entries
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != keep)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
            else {
                return keep;
            };
            let last = self.entries.len() - 1;
            let e = self.entries.swap_remove(victim);
            if keep == last {
                keep = victim;
            }
            if let Some(t) = e.tables {
                pool::give(t.data);
            }
        }
    }
}

/// Build per-coefficient product rows for a fixed operand.
///
/// For a fixed LHS, row `s` of the tables holds `table[r + c] as f64` for
/// every column offset `c`, where `r` is the row offset of the `s`-th
/// distinct quantized coefficient. For a fixed RHS it holds
/// `table[r + c] as f64` for every row index, i.e. the product *column*.
/// Either way `tables.data[slot * side + q]` is exactly what
/// [`DenseLut::product`] would have returned.
fn tabulate(t: &Tensor, role: Role, lut: &DenseLut<'_>) -> Tables {
    let side = lut.side();
    let table = lut.table();
    // Distinct quantized values, keyed by column index (0..side).
    let mut slot_of = vec![u32::MAX; side];
    let mut slots = Vec::with_capacity(t.len());
    let mut data = pool::take();
    let mut distinct: u32 = 0;
    for &v in t.data() {
        let c = lut.col(v);
        let slot = if slot_of[c] != u32::MAX {
            slot_of[c]
        } else {
            let s = distinct;
            slot_of[c] = s;
            distinct += 1;
            match role {
                // Product row: fixed value is the first operand.
                Role::Lhs => data.extend(table[c * side..(c + 1) * side].iter().map(|&p| p as f64)),
                // Product column: fixed value is the second operand.
                Role::Rhs => data.extend((0..side).map(|r| table[r * side + c] as f64)),
            }
            s
        };
        slots.push(slot);
    }
    Tables { slots, data }
}

/// The scalar reference kernel: quantize both operands, then the
/// `i-j-p` triple loop reading every product from the table. This is the
/// path every fast kernel must match bit-for-bit.
fn matmul_gather(a: &Tensor, b: &Tensor, lut: DenseLut<'_>) -> Tensor {
    let (m, k) = a.dims2("approx_matmul lhs");
    let (_, n) = b.dims2("approx_matmul rhs");
    let arows: Vec<usize> = a.data().iter().map(|&v| lut.row(v)).collect();
    let bcols: Vec<usize> = b.data().iter().map(|&v| lut.col(v)).collect();
    let mut out = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for p in 0..k {
                acc += lut.product(arows[i * k + p], bcols[p * n + j]);
            }
            out.data_mut()[i * n + j] = acc;
        }
    }
    out
}

/// Row-tabulated kernel for a fixed LHS: `out[i, j] += row_i_p[bcol[p, j]]`,
/// looped `i-p-j` with the `j` loop tiled and unrolled. Ascending-`p`
/// accumulation per output element keeps bit-identity with the reference.
fn matmul_fixed_lhs(t: &Tables, m: usize, k: usize, n: usize, b: &Tensor, lut: DenseLut<'_>) -> Tensor {
    let side = lut.side();
    let bcols: Vec<usize> = b.data().iter().map(|&v| lut.col(v)).collect();
    let mut out = Tensor::zeros(&[m, n]);
    let od = out.data_mut();
    if n == 1 {
        // Matrix–vector shape (the CNN dense head: [classes, h·w] × a
        // flattened activation column): the tiled loop degenerates to
        // one-element row slices, so accumulate each output scalar
        // directly. Still ascending-p from 0.0 — bit-identical.
        for (i, o) in od.iter_mut().enumerate() {
            let mut acc = 0.0;
            for p in 0..k {
                acc += t.data[t.slots[i * k + p] as usize * side + bcols[p]];
            }
            *o = acc;
        }
        return out;
    }
    for j0 in (0..n).step_by(J_TILE) {
        let j1 = (j0 + J_TILE).min(n);
        for i in 0..m {
            let orow = &mut od[i * n + j0..i * n + j1];
            for p in 0..k {
                let row = &t.data[t.slots[i * k + p] as usize * side..][..side];
                let bc = &bcols[p * n + j0..p * n + j1];
                let mut pairs = orow.chunks_exact_mut(4).zip(bc.chunks_exact(4));
                for (o, c) in &mut pairs {
                    // Four independent output elements per iteration; each
                    // still receives its products in ascending-p order.
                    o[0] += row[c[0]];
                    o[1] += row[c[1]];
                    o[2] += row[c[2]];
                    o[3] += row[c[3]];
                }
                let rem = bc.len() % 4;
                let base = bc.len() - rem;
                for jj in 0..rem {
                    orow[base + jj] += row[bc[base + jj]];
                }
            }
        }
    }
    out
}

/// Column-tabulated kernel for a fixed RHS: `out[i, j] += col_p_j[acol[i, p]]`.
fn matmul_fixed_rhs(t: &Tables, m: usize, k: usize, n: usize, a: &Tensor, lut: DenseLut<'_>) -> Tensor {
    let side = lut.side();
    let acols: Vec<usize> = a.data().iter().map(|&v| lut.col(v)).collect();
    let mut out = Tensor::zeros(&[m, n]);
    let od = out.data_mut();
    if n == 1 {
        // Fixed column vector: out[i] = Σ_p col_p[acol[i, p]], ascending p.
        for (i, o) in od.iter_mut().enumerate() {
            let mut acc = 0.0;
            for p in 0..k {
                acc += t.data[t.slots[p] as usize * side + acols[i * k + p]];
            }
            *o = acc;
        }
        return out;
    }
    for j0 in (0..n).step_by(J_TILE) {
        let j1 = (j0 + J_TILE).min(n);
        for i in 0..m {
            let orow = &mut od[i * n + j0..i * n + j1];
            for p in 0..k {
                let av = acols[i * k + p];
                let slots = &t.slots[p * n + j0..p * n + j1];
                for (o, &s) in orow.iter_mut().zip(slots) {
                    *o += t.data[s as usize * side + av];
                }
            }
        }
    }
    out
}

/// Which operands of a [`matmul_lut`] call the operand cache considers:
/// only those are looked up and recorded as candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fixed {
    /// Either side may be the one fixed across calls (`approx_matmul`).
    Either,
    /// The lhs is the fixed coefficient; the rhs varies call to call.
    Lhs,
    /// The rhs is the fixed coefficient; the lhs varies call to call.
    Rhs,
}

/// LUT matmul entry point: dispatches to a row-tabulated kernel when an
/// operand `fixed` admits is detected as fixed across calls, and to the
/// scalar gather reference otherwise. Output is bit-identical either way.
pub(crate) fn matmul_lut(a: &Tensor, b: &Tensor, lut: DenseLut<'_>, fixed: Fixed) -> Tensor {
    let token = lut.token();
    if token == 0 {
        // Anonymous table: no identity to key a cross-call cache on.
        return matmul_gather(a, b, lut);
    }
    let (m, k) = a.dims2("approx_matmul lhs");
    let (_, n) = b.dims2("approx_matmul rhs");
    let (lhs, rhs) = (fixed != Fixed::Rhs, fixed != Fixed::Lhs);
    CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if lhs {
            if let Some(idx) = cache.lookup(token, Role::Lhs, a, &lut) {
                let t = cache.entries[idx].tables.as_ref().expect("lookup returns tabulated entries");
                return matmul_fixed_lhs(t, m, k, n, b, lut);
            }
        }
        if rhs {
            if let Some(idx) = cache.lookup(token, Role::Rhs, b, &lut) {
                let t = cache.entries[idx].tables.as_ref().expect("lookup returns tabulated entries");
                return matmul_fixed_rhs(t, m, k, n, a, lut);
            }
        }
        if lhs {
            cache.insert_candidate(token, Role::Lhs, a);
        }
        if rhs {
            cache.insert_candidate(token, Role::Rhs, b);
        }
        matmul_gather(a, b, lut)
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

    /// Exhaustive 8-bit row-tabulation check: for every operand pair of an
    /// 8-bit unit, the tabulated product row/column entry must equal the
    /// `DenseLut` lookup bit-for-bit.
    #[test]
    fn row_tabulation_matches_dense_lut_exhaustively() {
        let unit = lut_unit("mul8u_FTA");
        let lut = unit.as_lut().unwrap();
        let side = lut.side();
        // One fixed operand holding every representable 8-bit value.
        let all: Vec<f64> = (0..side).map(|v| v as f64).collect();
        let fixed = Tensor::from_vec(all, &[1, side]);
        let rows = tabulate(&fixed, Role::Lhs, &lut);
        let cols = tabulate(&fixed, Role::Rhs, &lut);
        for a in 0..side {
            let ra = rows.slots[a] as usize;
            let ca = cols.slots[a] as usize;
            for b in 0..side {
                let expect = lut.product(lut.row(a as f64), lut.col(b as f64));
                assert_eq!(
                    rows.data[ra * side + b].to_bits(),
                    expect.to_bits(),
                    "row table {a}x{b}"
                );
                let expect_t = lut.product(lut.row(b as f64), lut.col(a as f64));
                assert_eq!(
                    cols.data[ca * side + b].to_bits(),
                    expect_t.to_bits(),
                    "col table {b}x{a}"
                );
            }
        }
    }

    /// The fixed-operand kernels must reproduce the gather reference
    /// bit-for-bit without going through cache promotion.
    #[test]
    fn fixed_kernels_match_gather_reference() {
        for name in ["mul8u_FTA", "mul8u_JV3", "kulkarni8u", "exact8u"] {
            let unit = lut_unit(name);
            let lut = unit.as_lut().unwrap();
            for (m, k, n) in
                [(8, 8, 8), (3, 7, 5), (1, 9, 4), (6, 1, 3), (5, 130, 2), (4, 256, 1), (1, 1, 1)]
            {
                let a = tensor(3, m, k, 300.0);
                let b = tensor(17, k, n, 300.0);
                let reference = matmul_gather(&a, &b, lut);
                let ta = tabulate(&a, Role::Lhs, &lut);
                let lhs = matmul_fixed_lhs(&ta, m, k, n, &b, lut);
                let tb = tabulate(&b, Role::Rhs, &lut);
                let rhs = matmul_fixed_rhs(&tb, m, k, n, &a, lut);
                for (idx, r) in reference.data().iter().enumerate() {
                    assert_eq!(lhs.data()[idx].to_bits(), r.to_bits(), "{name} lhs {m}x{k}x{n} @{idx}");
                    assert_eq!(rhs.data()[idx].to_bits(), r.to_bits(), "{name} rhs {m}x{k}x{n} @{idx}");
                }
            }
        }
    }

    /// Degenerate shapes: 1×N, N×1, empty, and non-multiple-of-tile sizes
    /// must all agree with the reference through the public entry point.
    #[test]
    fn degenerate_shapes_match_reference() {
        let unit = lut_unit("mul8u_FTA");
        let lut = unit.as_lut().unwrap();
        let shapes = [
            (1, 1, 1),
            (1, 8, 1),
            (1, 1, 9),
            (9, 1, 1),
            (0, 3, 4),
            (3, 0, 4),
            (3, 4, 0),
            (J_TILE + 3, 2, J_TILE + 1),
            (2, 3, 2 * J_TILE),
        ];
        for (m, k, n) in shapes {
            let a = tensor(5, m, k, 200.0);
            let b = tensor(23, k, n, 200.0);
            let reference = matmul_gather(&a, &b, lut);
            // Call thrice so the cache walks candidate → tabulated → hit.
            for round in 0..3 {
                let got = matmul_lut(&a, &b, lut, Fixed::Either);
                assert_eq!(got.shape(), reference.shape());
                for (idx, r) in reference.data().iter().enumerate() {
                    assert_eq!(
                        got.data()[idx].to_bits(),
                        r.to_bits(),
                        "{m}x{k}x{n} round {round} @{idx}"
                    );
                }
            }
        }
    }

    /// Changing the fixed operand's bits must invalidate its tables: the
    /// cache may never serve products tabulated for other coefficients.
    #[test]
    fn cache_invalidates_on_operand_change() {
        let unit = lut_unit("mul8u_JV3");
        let lut = unit.as_lut().unwrap();
        let b = tensor(7, 4, 4, 200.0);
        for step in 0..5u64 {
            let a = tensor(100 + step, 4, 4, 200.0);
            let reference = matmul_gather(&a, &b, lut);
            for _ in 0..3 {
                let got = matmul_lut(&a, &b, lut, Fixed::Either);
                assert_eq!(got, reference, "step {step}");
            }
        }
    }

    #[test]
    fn anonymous_tables_bypass_the_cache() {
        let unit = lut_unit("mul8u_FTA");
        let stamped = unit.as_lut().unwrap();
        let anon = lac_hw::DenseLut::new(stamped.table(), {
            let (lo, _) = stamped.operand_range();
            lo
        }, stamped.operand_range().1);
        assert_eq!(anon.token(), 0);
        let a = tensor(1, 4, 4, 200.0);
        let b = tensor(2, 4, 4, 200.0);
        let before = CACHE.with(|c| c.borrow().entries.len());
        let got = matmul_lut(&a, &b, anon, Fixed::Either);
        let after = CACHE.with(|c| c.borrow().entries.len());
        assert_eq!(before, after, "anonymous view must not touch the cache");
        assert_eq!(got, matmul_gather(&a, &b, anon));
    }

    #[test]
    fn cache_entry_count_stays_capped() {
        let unit = lut_unit("mul8u_FTA");
        let lut = unit.as_lut().unwrap();
        for step in 0..(MAX_ENTRIES as u64 * 3) {
            let a = tensor(1000 + step, 3, 3, 100.0);
            let b = tensor(2000 + step, 3, 3, 100.0);
            let _ = matmul_lut(&a, &b, lut, Fixed::Either);
        }
        CACHE.with(|c| assert!(c.borrow().entries.len() <= MAX_ENTRIES));
    }

    /// Regression: when a lookup tabulates the cache's *last* entry and
    /// the byte cap trips, eviction `swap_remove`s a victim and backfills
    /// its slot with that last entry — the index `lookup` returns must
    /// follow the move. The stale index used to panic out of bounds.
    #[test]
    fn lookup_survives_eviction_relocating_the_tabulated_entry() {
        let unit = LutMultiplier::maybe_wrap(lac_hw::signed_capable(
            catalog::by_name("mul8u_FTA").unwrap(),
        ));
        let lut = unit.as_lut().unwrap();
        // A permutation of every representable signed operand: tabulating
        // such an entry costs side^2 f64s, so a handful exceed
        // MAX_TABLE_F64S and force evictions mid-lookup. Multipliers are
        // coprime with 511 so each row really has 511 distinct values.
        let full = |mult: i64| {
            let data = (0..511i64).map(|i| ((i * mult) % 511 - 255) as f64).collect::<Vec<_>>();
            Tensor::from_vec(data, &[1, 511])
        };
        let col = |t: &Tensor| Tensor::from_vec(t.data().to_vec(), &[511, 1]);
        for (ma, mb) in [(1, 3), (5, 9), (11, 13), (15, 17)] {
            let a = full(ma);
            let b = col(&full(mb));
            for _ in 0..2 {
                let got = matmul_lut(&a, &b, lut, Fixed::Either);
                assert_eq!(got, matmul_gather(&a, &b, lut), "warm pair {ma}/{mb}");
            }
        }
        // Fresh pair sighted once (candidates only, RHS pushed last),
        // then the same RHS under new LHS operands: its tabulation blows
        // the byte cap, the entry is relocated by eviction, and the
        // kernel must still read the relocated tables.
        let b = col(&full(19));
        let _ = matmul_lut(&full(23), &b, lut, Fixed::Either);
        for ma in [25i64, 27, 29] {
            let a = full(ma);
            let got = matmul_lut(&a, &b, lut, Fixed::Either);
            assert_eq!(got, matmul_gather(&a, &b, lut), "relocated rhs, lhs {ma}");
        }
    }

    /// A call that names its fixed side keeps the varying side out of
    /// the cache: a JPEG stage's side-by-side blocks and restacked
    /// products are never recorded, however often they repeat, while
    /// the coefficient is still tabulated and served.
    #[test]
    fn a_named_fixed_side_keeps_the_varying_side_out_of_the_cache() {
        let unit = lut_unit("mul8u_FTA");
        let lut = unit.as_lut().unwrap();
        let coeff = tensor(31, 8, 8, 200.0);
        let blocks = tensor(37, 8, 128, 200.0);
        let stacked = tensor(41, 128, 8, 200.0);
        for _ in 0..3 {
            let got = matmul_lut(&coeff, &blocks, lut, Fixed::Lhs);
            assert_eq!(got, matmul_gather(&coeff, &blocks, lut));
            let got = matmul_lut(&stacked, &coeff, lut, Fixed::Rhs);
            assert_eq!(got, matmul_gather(&stacked, &coeff, lut));
        }
        CACHE.with(|c| {
            let c = c.borrow();
            let mine: Vec<_> = c.entries.iter().filter(|e| e.token == lut.token()).collect();
            assert_eq!(mine.len(), 2, "one entry per coefficient role");
            for e in mine {
                assert_eq!((e.rows, e.cols), (8, 8), "{:?} entry holds a varying operand", e.role);
                assert!(e.tables.is_some(), "{:?} coefficient was not tabulated", e.role);
            }
        });
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
