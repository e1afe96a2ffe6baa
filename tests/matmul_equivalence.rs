//! Bit-equivalence battery for the LUT-matmul kernel.
//!
//! `approx_matmul` has two implementations that must be observably one:
//! the scalar trait-object path (one virtual `multiply_row` call per row
//! of products) and the LUT fast path in `lac-tensor::matmul_fast` (one
//! `i-p-j` kernel over rows of the dense product table, with fused
//! surrogate-gradient kernels). These tests pin
//! the contract from DESIGN.md §7d: for every catalog unit — healthy or
//! fault-injected — forward values and surrogate gradients are
//! bit-identical across the two paths, across repeated calls with one
//! operand held fixed (as a coefficient is across a batch), and across
//! worker counts.
//!
//! The second battery covers units with no dense table in the tap-wise
//! ops (`approx_conv2d`, `approx_conv2d_stacked`, `approx_scale`): their
//! per-tap product rows, and the per-product fallback that huge or
//! non-finite pixels force, must match a one-model-call-per-product
//! reference walk bit-for-bit.
//!
//! The third battery holds the same units to that reference in
//! `approx_matmul` and `approx_matmul_scale_round`, which make one
//! `Multiplier::multiply_row` call per row of products, and in
//! `approx_mul_elem(_scale)`, at the JPEG and DFT shapes and at
//! degenerate ones.

use std::sync::Arc;

use lac::core::{batch_grads, batch_references};
use lac::data::synth_image;
use lac::hw::{catalog, signed_capable, LutMultiplier, Multiplier, MAX_LUT_BITS};
use lac::tensor::{Graph, Tensor};
use lac_rt::proptest::prelude::*;
use lac_rt::rng::{RngExt, SeedableRng, StdRng};

/// Forward bits and (grad-a, grad-b) bits of `sum(approx_matmul(a, b))`.
fn run(mult: &Arc<dyn Multiplier>, a: &Tensor, b: &Tensor) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let g = Graph::new();
    let va = g.var(a.clone());
    let vb = g.var(b.clone());
    let out = va.approx_matmul(&vb, mult);
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    let value = bits(&out.value());
    let grads = g.backward(&out.sum());
    (value, bits(&grads.get(&va)), bits(&grads.get(&vb)))
}

/// Random integer-valued operand in the unit's operand range.
fn random_operand(rng: &mut StdRng, rows: usize, cols: usize, lo: i64, hi: i64) -> Tensor {
    // Keep 16-bit ranges exercised without astronomically large sums.
    let (lo, hi) = (lo.max(-4096), hi.min(4096));
    let data = (0..rows * cols).map(|_| rng.random_range(lo..=hi) as f64).collect();
    Tensor::from_vec(data, &[rows, cols])
}

/// Scalar path (raw unit) vs fast path (LUT-wrapped) over random shapes,
/// repeating each product with one side held fixed and the other
/// redrawn, on both sides: the fast path keeps no state between calls,
/// so a repeated operand must read the same bits as a fresh one.
fn assert_paths_equivalent(raw: Arc<dyn Multiplier>, seed: u64) {
    let fast = LutMultiplier::maybe_wrap(Arc::clone(&raw));
    let (lo, hi) = raw.operand_range();
    let mut rng = StdRng::seed_from_u64(seed);
    for trial in 0..4 {
        let (m, k, n) = (
            rng.random_range(1..=9usize),
            rng.random_range(1..=9usize),
            rng.random_range(1..=9usize),
        );
        let a = random_operand(&mut rng, m, k, lo, hi);
        let b = random_operand(&mut rng, k, n, lo, hi);
        // Fixed lhs, varying rhs — then the converse, three calls each,
        // the way a coefficient meets every sample of a batch.
        for rep in 0..3 {
            let b2 = if rep == 0 { b.clone() } else { random_operand(&mut rng, k, n, lo, hi) };
            let scalar = run(&raw, &a, &b2);
            let lut = run(&fast, &a, &b2);
            assert_eq!(scalar, lut, "{}: fixed-lhs trial {trial} rep {rep}", raw.name());

            let a2 = if rep == 0 { a.clone() } else { random_operand(&mut rng, m, k, lo, hi) };
            let scalar = run(&raw, &a2, &b);
            let lut = run(&fast, &a2, &b);
            assert_eq!(scalar, lut, "{}: fixed-rhs trial {trial} rep {rep}", raw.name());
        }
    }
}

/// Forward/grad bits of the fused dense-head op `approx_matmul_scale_round`
/// — the exact node `CnnApp` records for its classifier layer.
fn run_dense(
    mult: &Arc<dyn Multiplier>,
    a: &Tensor,
    b: &Tensor,
    c: f64,
) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let g = Graph::new();
    let va = g.var(a.clone());
    let vb = g.var(b.clone());
    let out = va.approx_matmul_scale_round(&vb, mult, c);
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    let value = bits(&out.value());
    let grads = g.backward(&out.sum());
    (value, bits(&grads.get(&va)), bits(&grads.get(&vb)))
}

/// Forward/grad bits of `approx_conv2d_stacked` — the conv node of the
/// 3x3 filters' stacked pass (images stacked vertically, shared 3x3
/// taps); the CNN layers call `approx_conv2d`, its one-band case, per
/// image.
fn run_conv_stacked(
    mult: &Arc<dyn Multiplier>,
    x: &Tensor,
    k: &Tensor,
    img_h: usize,
) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let g = Graph::new();
    let vx = g.var(x.clone());
    let vk = g.var(k.clone());
    let out = vx.approx_conv2d_stacked(&vk, mult, img_h);
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    let value = bits(&out.value());
    let grads = g.backward(&out.sum());
    (value, bits(&grads.get(&vx)), bits(&grads.get(&vk)))
}

/// Scalar vs fast path at the CNN layer dimensions: the non-square dense
/// head (classes x h*w times a flattened activation column, hitting the
/// n == 1 matrix-vector path), the same shape through the fused
/// scale-round node, and the batch-stacked 3x3 convolution. Each shape
/// repeats with one operand held fixed, as across a batch.
fn assert_cnn_shapes_equivalent(raw: Arc<dyn Multiplier>, seed: u64) {
    let fast = LutMultiplier::maybe_wrap(Arc::clone(&raw));
    let (lo, hi) = raw.operand_range();
    let mut rng = StdRng::seed_from_u64(seed);

    // Dense head: weights [4, 256] x flattened activations [256, 1].
    // Fixed lhs (the trained weights) against varying activation columns,
    // three calls.
    let w = random_operand(&mut rng, 4, 256, lo, hi);
    for rep in 0..3 {
        let col = random_operand(&mut rng, 256, 1, lo, hi);
        let scalar = run(&raw, &w, &col);
        let lut = run(&fast, &w, &col);
        assert_eq!(scalar, lut, "{}: dense matvec rep {rep}", raw.name());
        // The fused datapath-shift node CnnApp actually records.
        let scalar = run_dense(&raw, &w, &col, 2f64.powi(-4));
        let lut = run_dense(&fast, &w, &col, 2f64.powi(-4));
        assert_eq!(scalar, lut, "{}: dense scale-round rep {rep}", raw.name());
    }
    // Fixed rhs: one activation column against varying weight matrices
    // (the converse repetition, also on the n == 1 path).
    let col = random_operand(&mut rng, 256, 1, lo, hi);
    for rep in 0..3 {
        let w2 = random_operand(&mut rng, 4, 256, lo, hi);
        let scalar = run(&raw, &w2, &col);
        let lut = run(&fast, &w2, &col);
        assert_eq!(scalar, lut, "{}: dense fixed-rhs rep {rep}", raw.name());
    }

    // Conv layers: three 16x16 images stacked vertically, one shared
    // 3x3 tap tensor, same-padded — the CnnApp conv1/conv2 shape.
    let taps = random_operand(&mut rng, 3, 3, lo, hi);
    for rep in 0..2 {
        let stacked = random_operand(&mut rng, 3 * 16, 16, lo, hi);
        let scalar = run_conv_stacked(&raw, &stacked, &taps, 16);
        let lut = run_conv_stacked(&fast, &stacked, &taps, 16);
        assert_eq!(scalar, lut, "{}: stacked conv rep {rep}", raw.name());
    }
}

#[test]
fn every_catalog_unit_is_bit_identical_across_paths() {
    for name in catalog::PAPER_NAMES.iter().chain(catalog::EXTRA_NAMES.iter()) {
        let raw = catalog::by_name(name).expect("catalog unit");
        assert_paths_equivalent(raw, 0x1ac0 ^ name.len() as u64);
    }
}

/// The JPEG/DFT hot path wraps units in the sign-magnitude adapter first;
/// the tabulated signed table must agree with the virtual adapter.
#[test]
fn signed_adapters_are_bit_identical_across_paths() {
    for name in ["mul8u_FTA", "ETM8-k4", "mul8u_JV3", "kulkarni8u"] {
        let raw = signed_capable(catalog::by_name(name).expect("catalog unit"));
        assert_paths_equivalent(raw, 0x51ed ^ name.len() as u64);
    }
}

/// Fault-injected units tabulate their faults into the LUT; the fast
/// path must reproduce the degraded products bit-for-bit.
#[test]
fn fault_injected_units_are_bit_identical_across_paths() {
    for spec in
        ["mul8u_FTA!seed=7,flip=0.01", "ETM8-k4!seed=7,flip=0.01", "mul8s_1KR3!seed=7,flip=0.05"]
    {
        let raw = catalog::by_spec(spec).expect("fault spec");
        assert_paths_equivalent(raw, 0xfa11);
    }
}

/// CNN layer dimensions for every catalog unit: the dense head's
/// non-square matrix-vector shapes and the batch-stacked convolution
/// must be bit-identical across paths, values and gradients alike.
#[test]
fn every_catalog_unit_is_bit_identical_at_cnn_shapes() {
    for name in catalog::PAPER_NAMES.iter().chain(catalog::EXTRA_NAMES.iter()) {
        let raw = catalog::by_name(name).expect("catalog unit");
        assert_cnn_shapes_equivalent(raw, 0xc221 ^ name.len() as u64);
    }
}

/// The CNN app adapts units through the sign-magnitude wrapper (signed
/// taps and coefficients); the signed tables must agree at CNN shapes.
#[test]
fn signed_adapters_are_bit_identical_at_cnn_shapes() {
    for name in ["mul8u_FTA", "ETM8-k4", "mul8u_JV3", "kulkarni8u"] {
        let raw = signed_capable(catalog::by_name(name).expect("catalog unit"));
        assert_cnn_shapes_equivalent(raw, 0xc25e ^ name.len() as u64);
    }
}

/// Fault-injected units at CNN shapes: the degraded LUTs must flow
/// through the matvec and stacked-conv kernels bit-for-bit.
#[test]
fn fault_injected_units_are_bit_identical_at_cnn_shapes() {
    for spec in
        ["mul8u_FTA!seed=7,flip=0.01", "ETM8-k4!seed=7,flip=0.01", "mul8s_1KR3!seed=7,flip=0.05"]
    {
        let raw = catalog::by_spec(spec).expect("fault spec");
        assert_cnn_shapes_equivalent(raw, 0xc2fa);
    }
}

/// Worker count must not leak into results: each worker runs its share
/// of samples through the same kernels, so batch gradients at 1, 2, and
/// 4 threads are bit-identical, for single-unit JPEG and for three-stage
/// JPEG on a mixed plan.
#[test]
fn jpeg_batch_grads_bit_identical_across_thread_counts() {
    use lac::apps::{JpegApp, JpegMode, Kernel};

    let plans: [(JpegMode, &[&str]); 2] = [
        (JpegMode::Single, &["mul8u_FTA"]),
        (JpegMode::ThreeStage, &["DRUM16-6", "mul16s_GK2", "mul8u_FTA"]),
    ];
    for (mode, names) in plans {
        let app = JpegApp::new(mode);
        let mults: Vec<_> = names
            .iter()
            .map(|n| app.adapt(&catalog::by_name(n).expect("catalog unit")))
            .collect();
        let coeffs = app.init_coeffs(&mults);
        let images: Vec<_> = (0..4).map(|i| synth_image(32, 32, 100 + i)).collect();
        let refs = batch_references(&app, &images);

        let (g1, l1) = batch_grads(&app, &coeffs, &mults, &images, &refs, 1);
        for threads in [2usize, 4] {
            let (gn, ln) = batch_grads(&app, &coeffs, &mults, &images, &refs, threads);
            assert_eq!(l1.to_bits(), ln.to_bits(), "{mode:?}: loss drifted at {threads} threads");
            assert_eq!(g1.len(), gn.len());
            for (a, b) in g1.iter().zip(&gn) {
                let (ab, bb): (Vec<u64>, Vec<u64>) = (
                    a.data().iter().map(|v| v.to_bits()).collect(),
                    b.data().iter().map(|v| v.to_bits()).collect(),
                );
                assert_eq!(ab, bb, "{mode:?}: gradients drifted at {threads} threads");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Untabulated units in approx_conv2d / approx_conv2d_stacked /
// approx_scale: the per-tap product-row gather (and its per-product
// fallback on wide or non-finite pixel spans) against a plain
// one-model-call-per-product reference walk.

/// Units with no dense product table: every catalog unit wider than
/// `MAX_LUT_BITS`, the sign-magnitude adapters the signed filter apps
/// put in front of tabulated 8-bit units, and fault-injected wide specs.
fn untabulated_units() -> Vec<Arc<dyn Multiplier>> {
    let mut units: Vec<Arc<dyn Multiplier>> = catalog::PAPER_NAMES
        .iter()
        .chain(catalog::EXTRA_NAMES.iter())
        .map(|n| catalog::by_name(n).expect("catalog unit"))
        .filter(|u| u.bits() > MAX_LUT_BITS)
        .collect();
    for name in ["mul8u_FTA", "ETM8-k4", "mul8u_JV3", "kulkarni8u", "mitchell8u"] {
        let unit = catalog::by_name(name).expect("catalog unit");
        units.push(signed_capable(LutMultiplier::maybe_wrap(unit)));
    }
    for spec in ["mul16s_GAT!seed=7,flip=0.01", "DRUM16-6!seed=3,flip=0.05", "mul16s_GK2!sa1=0x4"] {
        units.push(catalog::by_spec(spec).expect("fault spec"));
    }
    for u in &units {
        assert!(u.as_lut().is_none(), "{} has a dense table", u.name());
    }
    units
}

/// One model call per product, rounded exactly as the tensor ops round.
fn product(mult: &dyn Multiplier, a: f64, b: f64) -> f64 {
    mult.multiply(a.round() as i64, b.round() as i64) as f64
}

/// Reference forward of a band-stacked same-padded 3x3 conv: per output
/// pixel, a fresh accumulator sums the in-bounds products in row-major
/// tap order, one model call each.
fn reference_conv(mult: &dyn Multiplier, x: &[f64], img_h: usize, w: usize, k: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; x.len()];
    for (band, o) in x.chunks(img_h * w).zip(out.chunks_mut(img_h * w)) {
        for y in 0..img_h as isize {
            for xx in 0..w as isize {
                let mut acc = 0.0;
                for i in 0..3isize {
                    for j in 0..3isize {
                        let (sy, sx) = (y + i - 1, xx + j - 1);
                        if sy >= 0 && sx >= 0 && sy < img_h as isize && sx < w as isize {
                            let pixel = band[sy as usize * w + sx as usize];
                            acc += product(mult, k[(i * 3 + j) as usize], pixel);
                        }
                    }
                }
                o[y as usize * w + xx as usize] = acc;
            }
        }
    }
    out
}

/// Reference surrogate gradients `(d_image, d_kernel)` of the band conv
/// under output gradient `g`: exact-conv gradients per band, the kernel
/// gradient of each band summed from zero and added in stacking order.
fn reference_conv_grads(
    x: &[f64],
    img_h: usize,
    w: usize,
    k: &[f64],
    g: &[f64],
) -> (Vec<f64>, Vec<f64>) {
    let (mut dx, mut dk) = (vec![0.0; x.len()], vec![0.0; 9]);
    let len = img_h * w;
    for ((band, gb), dxb) in x.chunks(len).zip(g.chunks(len)).zip(dx.chunks_mut(len)) {
        let mut band_dk = [0.0; 9];
        for y in 0..img_h as isize {
            for xx in 0..w as isize {
                let gv = gb[y as usize * w + xx as usize];
                if gv == 0.0 {
                    continue;
                }
                for i in 0..3isize {
                    for j in 0..3isize {
                        let (sy, sx) = (y + i - 1, xx + j - 1);
                        if sy >= 0 && sx >= 0 && sy < img_h as isize && sx < w as isize {
                            let si = sy as usize * w + sx as usize;
                            band_dk[(i * 3 + j) as usize] += gv * band[si];
                            dxb[si] += gv * k[(i * 3 + j) as usize];
                        }
                    }
                }
            }
        }
        for (acc, d) in dk.iter_mut().zip(band_dk) {
            *acc += d;
        }
    }
    (dx, dk)
}

fn bits(vs: &[f64]) -> Vec<u64> {
    vs.iter().map(|v| v.to_bits()).collect()
}

/// Forward and gradient bits of `op(x, k)` under the loss `sum(out ⊙ r)`.
fn run_op(
    x: &Tensor,
    k: &Tensor,
    r: &Tensor,
    op: impl Fn(&lac::tensor::Var, &lac::tensor::Var) -> lac::tensor::Var,
) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let g = Graph::new();
    let (vx, vk) = (g.var(x.clone()), g.var(k.clone()));
    let out = op(&vx, &vk);
    let grads = g.backward(&out.mul(&g.constant(r.clone())).sum());
    (bits(out.value().data()), bits(grads.get(&vx).data()), bits(grads.get(&vk).data()))
}

/// `approx_conv2d` (one band), `approx_conv2d_stacked` and `approx_scale`
/// on `mult` must match the per-product reference bit-for-bit, values
/// and gradients, for `bands` stacked `img_h x w` images in `x`.
fn check_untabulated(
    mult: &Arc<dyn Multiplier>,
    x: &[f64],
    bands: usize,
    img_h: usize,
    w: usize,
    k: &[f64],
    r: &[f64],
) {
    let name = mult.name();
    let (h, len) = (bands * img_h, bands * img_h * w);
    let (x, r) = (&x[..len], &r[..len]);
    let xt = Tensor::from_vec(x.to_vec(), &[h, w]);
    let kt = Tensor::from_vec(k.to_vec(), &[3, 3]);
    let rt = Tensor::from_vec(r.to_vec(), &[h, w]);

    let (dx, dk) = reference_conv_grads(x, img_h, w, k, r);
    let want = (bits(&reference_conv(&**mult, x, img_h, w, k)), bits(&dx), bits(&dk));
    let got = run_op(&xt, &kt, &rt, |vx, vk| vx.approx_conv2d_stacked(vk, mult, img_h));
    assert_eq!(got, want, "{name}: approx_conv2d_stacked, {bands} bands of {img_h}x{w}");

    let (first, first_r) = (&x[..img_h * w], &r[..img_h * w]);
    let (dx, dk) = reference_conv_grads(first, img_h, w, k, first_r);
    let want = (bits(&reference_conv(&**mult, first, img_h, w, k)), bits(&dx), bits(&dk));
    let one = |t: &[f64]| Tensor::from_vec(t.to_vec(), &[img_h, w]);
    let got = run_op(&one(first), &kt, &one(first_r), |vx, vk| vx.approx_conv2d(vk, mult));
    assert_eq!(got, want, "{name}: approx_conv2d, {img_h}x{w}");

    // approx_scale: the centre tap times every pixel of the stack.
    let c = k[4];
    let want_value: Vec<f64> = x.iter().map(|&v| product(&**mult, c, v)).collect();
    let want_dx: Vec<f64> = r.iter().map(|&gv| gv * c).collect();
    let want_dc: f64 = r.iter().zip(x).map(|(&gv, &xv)| gv * xv).sum();
    let got = run_op(&xt, &Tensor::scalar(c), &rt, |vx, vc| vx.approx_scale(vc, mult));
    assert_eq!(got, (bits(&want_value), bits(&want_dx), bits(&[want_dc])), "{name}: approx_scale");
}

/// Pixels at ±1e300 and ±inf overflow any product-row span: the ops
/// must take the per-product walk without overflowing, and still agree
/// with the reference; a single-valued image (span 1) of the same
/// extremes rides the rows. Checked on every untabulated unit.
#[test]
fn untabulated_units_match_per_product_walk_on_extreme_pixels() {
    const EXTREMES: [f64; 4] = [1e300, -1e300, f64::INFINITY, f64::NEG_INFINITY];
    let taps = [3.0, -7.0, 3.0, 250.0, 40.0, 250.0, 3.0, -7.0, 1.5];
    let r: Vec<f64> = (0..2 * 36).map(|i| (i % 5) as f64 - 2.0).collect();
    for mult in untabulated_units() {
        let mixed: Vec<f64> = (0..2 * 36)
            .map(|i| if i % 7 == 3 { EXTREMES[i / 7 % 4] } else { (i % 9) as f64 })
            .collect();
        check_untabulated(&mult, &mixed, 2, 6, 6, &taps, &r);
        for &e in &EXTREMES {
            check_untabulated(&mult, &[e; 72], 2, 6, 6, &taps, &r);
        }
        // Out-of-range and non-integral pixels on a narrow span.
        let narrow: Vec<f64> =
            (0..72).map(|i| -40_000.0 - (i % 3) as f64 + 0.5 * (i % 2) as f64).collect();
        check_untabulated(&mult, &narrow, 2, 6, 6, &taps, &r);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random untabulated unit, stack and taps: `kind` picks the regime —
    /// 0 narrow integral pixels and repeated taps (rows), 1 a
    /// single-valued image, 2 narrow negative pixels and non-integral
    /// taps and pixels, 3 wide out-of-range pixels (mostly the
    /// per-product fallback). Shrinking walks every value toward zero.
    #[test]
    fn untabulated_conv_and_scale_match_per_product_walk(
        unit in 0..untabulated_units().len(),
        dims in (1usize..=3, 1usize..=7, 1usize..=7),
        taps in proptest::collection::vec(-300i64..=300, 9),
        pixels in proptest::collection::vec(-70_000i64..=70_000, 3 * 49),
        frac in proptest::collection::vec(-1.0f64..1.0, 3 * 49),
        kind in 0u8..4,
    ) {
        let mult = &untabulated_units()[unit];
        let (bands, img_h, w) = dims;
        let k: Vec<f64> = taps
            .iter()
            .zip(&frac)
            .map(|(&t, &f)| match kind {
                0 | 1 => (t % 4) as f64,
                2 => t as f64 + f,
                _ => t as f64,
            })
            .collect();
        let x: Vec<f64> = pixels
            .iter()
            .zip(&frac)
            .map(|(&p, &f)| match kind {
                0 => (p % 8) as f64,
                1 => pixels[0] as f64,
                2 => (p % 8) as f64 + f,
                _ => p as f64 + f,
            })
            .collect();
        check_untabulated(mult, &x, bands, img_h, w, &k, &frac);
    }
}

// ---------------------------------------------------------------------
// Untabulated units in approx_matmul / approx_matmul_scale_round (one
// `multiply_row` call per row of products) and approx_mul_elem(_scale)
// (one call per pair) against the one-model-call-per-product walk.

/// `approx_matmul` and `approx_matmul_scale_round(c)` on `a` `[m, k]` ×
/// `b` `[k, n]` must match the per-product reference bit-for-bit: each
/// output a fresh `0.0` accumulator over ascending `p`, and exact-matmul
/// gradients (of `r`, or `r · c`) through the materialized transposes.
fn check_untabulated_matmul(
    mult: &Arc<dyn Multiplier>,
    a: &[f64],
    b: &[f64],
    (m, k, n): (usize, usize, usize),
    r: &[f64],
    c: f64,
) {
    let name = mult.name();
    let (a, b, r) = (&a[..m * k], &b[..k * n], &r[..m * n]);
    let at = Tensor::from_vec(a.to_vec(), &[m, k]);
    let bt = Tensor::from_vec(b.to_vec(), &[k, n]);
    let rt = Tensor::from_vec(r.to_vec(), &[m, n]);
    let mut want = vec![0.0; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for p in 0..k {
                acc += product(&**mult, a[i * k + p], b[p * n + j]);
            }
            want[i * n + j] = acc;
        }
    }
    let grads = |g: &Tensor| {
        (bits(g.matmul(&bt.transpose()).data()), bits(at.transpose().matmul(g).data()))
    };

    let (da, db) = grads(&rt);
    let got = run_op(&at, &bt, &rt, |va, vb| va.approx_matmul(vb, mult));
    assert_eq!(got, (bits(&want), da, db), "{name}: approx_matmul {m}x{k}x{n}");

    let scaled: Vec<f64> = want.iter().map(|v| (v * c).round()).collect();
    let (da, db) = grads(&rt.map(|g| g * c));
    let got = run_op(&at, &bt, &rt, |va, vb| va.approx_matmul_scale_round(vb, mult, c));
    assert_eq!(got, (bits(&scaled), da, db), "{name}: approx_matmul_scale_round {m}x{k}x{n} c={c}");
}

/// `approx_mul_elem` and `approx_mul_elem_scale(c)` on equal-length `a`
/// and `b`: one model call per pair, product-rule gradients.
fn check_untabulated_elem(mult: &Arc<dyn Multiplier>, a: &[f64], b: &[f64], r: &[f64], c: f64) {
    let name = mult.name();
    let len = a.len();
    let (at, bt, rt) = (
        Tensor::from_vec(a.to_vec(), &[len]),
        Tensor::from_vec(b.to_vec(), &[len]),
        Tensor::from_vec(r[..len].to_vec(), &[len]),
    );
    let want: Vec<f64> = a.iter().zip(b).map(|(&x, &y)| product(&**mult, x, y)).collect();
    let grads = |g: &[f64]| {
        let da: Vec<f64> = g.iter().zip(b).map(|(gv, bv)| gv * bv).collect();
        let db: Vec<f64> = g.iter().zip(a).map(|(gv, av)| gv * av).collect();
        (bits(&da), bits(&db))
    };

    let (da, db) = grads(&r[..len]);
    let got = run_op(&at, &bt, &rt, |va, vb| va.approx_mul_elem(vb, mult));
    assert_eq!(got, (bits(&want), da, db), "{name}: approx_mul_elem x{len}");

    let scaled: Vec<f64> = want.iter().map(|v| v * c).collect();
    let gm: Vec<f64> = r[..len].iter().map(|g| g * c).collect();
    let (da, db) = grads(&gm);
    let got = run_op(&at, &bt, &rt, |va, vb| va.approx_mul_elem_scale(vb, mult, c));
    assert_eq!(got, (bits(&scaled), da, db), "{name}: approx_mul_elem_scale x{len} c={c}");
}

/// JPEG block (8x8x8) and DFT tile (12x12x12) shapes, degenerate 0/1
/// dimensions, and operands at ±1e300, ±inf, out of range and
/// non-integral, for every untabulated unit.
#[test]
fn untabulated_matmul_and_elem_match_per_product_walk() {
    const EXTREMES: [f64; 4] = [1e300, -1e300, f64::INFINITY, f64::NEG_INFINITY];
    let shapes = [
        (8, 8, 8),
        (12, 12, 12),
        (1, 1, 1),
        (1, 12, 1),
        (12, 1, 12),
        (0, 3, 2),
        (3, 0, 2),
        (3, 2, 0),
        (0, 0, 0),
    ];
    let len = 144;
    let r: Vec<f64> = (0..len).map(|i| (i % 5) as f64 - 2.0).collect();
    let operand_sets: [(Vec<f64>, Vec<f64>); 3] = [
        // In range, mixed signs.
        (
            (0..len).map(|i| ((i * 37 + 11) % 601) as f64 - 300.0).collect(),
            (0..len).map(|i| ((i * 53 + 7) % 40_001) as f64 - 20_000.0).collect(),
        ),
        // Non-integral and out of every unit's range.
        (
            (0..len).map(|i| (i % 9) as f64 * 1.25 - 4.5).collect(),
            (0..len).map(|i| -70_000.0 + (i * 997 % 140_001) as f64 + 0.5).collect(),
        ),
        // Extremes mixed into small integers, on both sides.
        (
            (0..len)
                .map(|i| if i % 7 == 3 { EXTREMES[i / 7 % 4] } else { (i % 9) as f64 })
                .collect(),
            (0..len)
                .map(|i| if i % 5 == 1 { EXTREMES[i / 5 % 4] } else { (i % 11) as f64 })
                .collect(),
        ),
    ];
    for mult in untabulated_units() {
        for (a, b) in &operand_sets {
            for &dims in &shapes {
                check_untabulated_matmul(&mult, a, b, dims, &r, 2f64.powi(-7));
            }
            check_untabulated_elem(&mult, &a[..64], &b[..64], &r, 2f64.powi(-3));
            check_untabulated_elem(&mult, &[], &[], &r, 0.5);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random untabulated unit, shape and operands: `kind` picks 0
    /// in-range integers, 1 non-integral values, 2 wide out-of-range
    /// values, 3 a sprinkle of ±1e300 / ±inf. Shrinking walks dimensions
    /// and values toward zero.
    #[test]
    fn untabulated_matmul_and_elem_match_per_product_walk_randomly(
        unit in 0..untabulated_units().len(),
        dims in (0usize..=12, 0usize..=12, 0usize..=12),
        a in proptest::collection::vec(-40_000i64..=40_000, 144),
        b in proptest::collection::vec(-40_000i64..=40_000, 144),
        frac in proptest::collection::vec(-1.0f64..1.0, 144),
        mode in (0u8..4, -8i32..=2),
    ) {
        let (kind, shift) = mode;
        const EXTREMES: [f64; 4] = [1e300, -1e300, f64::INFINITY, f64::NEG_INFINITY];
        let mult = &untabulated_units()[unit];
        let values = |vs: &[i64]| -> Vec<f64> {
            vs.iter()
                .zip(&frac)
                .enumerate()
                .map(|(i, (&v, &f))| match kind {
                    0 => (v % 300) as f64,
                    1 => (v % 300) as f64 + f,
                    2 => v as f64 * 4.0 + f,
                    _ if i % 11 == 5 => EXTREMES[v.unsigned_abs() as usize % 4],
                    _ => (v % 300) as f64,
                })
                .collect()
        };
        let (a, b) = (values(&a), values(&b));
        let c = 2f64.powi(shift);
        check_untabulated_matmul(mult, &a, &b, dims, &frac, c);
        let len = dims.0 * dims.1;
        check_untabulated_elem(mult, &a[..len], &b[..len], &frac, c);
    }
}
