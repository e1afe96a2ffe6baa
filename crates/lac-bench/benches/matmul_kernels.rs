//! Throughput of the `approx_matmul` kernel family at the JPEG/DFT hot
//! shapes: the scalar trait-object path and the LUT row kernel, plus a
//! full forward+backward step exercising the fused surrogate-gradient
//! kernels. The LUT rows share one kernel, which keeps no state between
//! calls: `gather` times it with both operands changing every call, and
//! `fixed_lhs` / `fixed_rhs` time it with one operand repeated across
//! calls (as a coefficient is across a batch) on either side. The ids
//! are kept from when each named a kernel of its own, so their history
//! stays comparable. The `conv32/*` rows time one 32x32 3x3 `approx_conv2d`
//! forward (the filter apps' hot op) on a wide untabulated unit and on a
//! tabulated 8-bit unit. The `matmul8/*` and `matmul12/*` rows time one
//! JPEG/DFT-shaped `approx_matmul` forward on the untabulated 16-bit
//! `mul16s_GAT`, one `multiply_row` call per row of products, over the
//! unit's full operand range. The `jpeg_image/*` rows time forward and
//! backward of one 32x32 image through `JpegApp` (DCT, dequantize,
//! IDCT over all sixteen 8x8 blocks) on a tabulated 8-bit unit and on
//! the untabulated `mul16s_GAT`. All paths are bit-identical (see
//! `tests/matmul_equivalence`); this suite tracks their relative cost.
//! The `tabulate/mul8u_FTA/*` rows time one product-table build: the
//! unit's own (`unsigned`), and the sign-magnitude adapter's over the
//! unit's table (`signed_over_table`, as the apps' `adapt` builds it)
//! and over the raw unit (`signed_over_raw`).
//!
//! Writes `BENCH_matmul_kernels.json`; see `lac_rt::bench` for the
//! protocol and `LAC_BENCH_FAST` / `LAC_BENCH_SAMPLES` knobs.

use lac_apps::{JpegApp, JpegMode, Kernel};
use lac_data::synth_image;
use lac_hw::{catalog, signed_capable, LutMultiplier, Multiplier};
use lac_rt::bench::Harness;
use lac_tensor::{Graph, Tensor};
use std::hint::black_box;
use std::sync::Arc;

/// Deterministic signed integer operand in `[-hi, hi]`.
fn operand(n: usize, hi: i64, salt: u64) -> Tensor {
    let mut x: u64 = 0x9e3779b97f4a7c15 ^ salt;
    let data = (0..n * n)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 33) as i64 % (2 * hi + 1) - hi) as f64
        })
        .collect();
    Tensor::from_vec(data, &[n, n])
}

fn main() {
    let mut h = Harness::new("matmul_kernels");
    let mut group = h.group("matmul_kernels");

    let raw = signed_capable(catalog::by_name("mul8u_FTA").unwrap());
    let fast = LutMultiplier::maybe_wrap(Arc::clone(&raw));
    let (_, hi) = raw.operand_range();

    for n in [8usize, 12] {
        let fixed = operand(n, hi, 1);
        // Distinct partners for the side that changes every call.
        let partners: Vec<Tensor> = (0..32).map(|s| operand(n, hi, 100 + s)).collect();

        // Scalar path: one virtual `multiply_row` call per row of products.
        group.bench_function(format!("{n}x{n}/scalar"), |b| {
            let mut i = 0;
            b.iter(|| {
                let g = Graph::new();
                let a = g.var(fixed.clone());
                let x = g.var(partners[i % partners.len()].clone());
                i += 1;
                black_box(a.approx_matmul(&x, &raw).value())
            })
        });

        // LUT kernel, no operand repeats.
        group.bench_function(format!("{n}x{n}/gather"), |b| {
            let mut i = 0;
            b.iter(|| {
                let g = Graph::new();
                let a = g.var(partners[i % partners.len()].clone());
                let x = g.var(partners[(i + 1) % partners.len()].clone());
                i += 2;
                black_box(a.approx_matmul(&x, &fast).value())
            })
        });

        // LUT kernel, one operand repeated across calls on either side.
        group.bench_function(format!("{n}x{n}/fixed_lhs"), |b| {
            let mut i = 0;
            b.iter(|| {
                let g = Graph::new();
                let a = g.var(fixed.clone());
                let x = g.var(partners[i % partners.len()].clone());
                i += 1;
                black_box(a.approx_matmul(&x, &fast).value())
            })
        });
        group.bench_function(format!("{n}x{n}/fixed_rhs"), |b| {
            let mut i = 0;
            b.iter(|| {
                let g = Graph::new();
                let x = g.var(partners[i % partners.len()].clone());
                let a = g.var(fixed.clone());
                i += 1;
                black_box(x.approx_matmul(&a, &fast).value())
            })
        });

        // Forward + backward: fused matmul_abt / matmul_atb surrogate
        // kernels dominate the tape replay.
        group.bench_function(format!("{n}x{n}/fwd_bwd"), |b| {
            let mut i = 0;
            b.iter(|| {
                let g = Graph::new();
                let a = g.var(fixed.clone());
                let x = g.var(partners[i % partners.len()].clone());
                i += 1;
                let loss = a.approx_matmul(&x, &fast).sum();
                let grads = g.backward(&loss);
                black_box(grads.get(&a))
            })
        });
    }

    // One filter-app forward: a 32x32 8-bit image through 3x3 taps.
    let mut x: u64 = 0x2545f4914f6cdd1d;
    let image = Tensor::from_vec(
        (0..32 * 32)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 56) as f64
            })
            .collect(),
        &[32, 32],
    );
    let taps = Tensor::from_vec(vec![9.0, 17.0, 9.0, 17.0, 31.0, 17.0, 9.0, 17.0, 9.0], &[3, 3]);
    for name in ["mul16s_GAT", "mul8u_FTA"] {
        let unit = LutMultiplier::maybe_wrap(catalog::by_name(name).unwrap());
        group.bench_function(format!("conv32/{name}"), |b| {
            b.iter(|| {
                let g = Graph::new();
                let img = g.var(image.clone());
                let k = g.var(taps.clone());
                black_box(img.approx_conv2d(&k, &unit).value())
            })
        });
    }

    // One JPEG block / DFT tile matmul forward on the wide unit.
    let wide = catalog::by_name("mul16s_GAT").unwrap();
    let (_, wide_hi) = wide.operand_range();
    for n in [8usize, 12] {
        let (lhs, rhs) = (operand(n, wide_hi, 7), operand(n, wide_hi, 8));
        group.bench_function(format!("matmul{n}/mul16s_GAT"), |b| {
            b.iter(|| {
                let g = Graph::new();
                let a = g.var(lhs.clone());
                let x = g.var(rhs.clone());
                black_box(a.approx_matmul(&x, &wide).value())
            })
        });
    }

    // One JPEG image, forward and backward, through the app's tape.
    let jpeg = JpegApp::new(JpegMode::Single);
    let jpeg_image = synth_image(32, 32, 1);
    for name in ["mul8u_FTA", "mul16s_GAT"] {
        let mults = vec![jpeg.adapt(&catalog::by_name(name).unwrap())];
        let coeffs = jpeg.init_coeffs(&mults);
        group.bench_function(format!("jpeg_image/{name}"), |b| {
            b.iter(|| {
                let g = Graph::new();
                let vars: Vec<_> = coeffs.iter().map(|c| g.var(c.clone())).collect();
                let out = jpeg.forward_approx(&g, &jpeg_image, &vars, &mults);
                let grads = g.backward(&out.sum());
                black_box(grads.get(&vars[0]))
            })
        });
    }

    // Product-table builds of one 8-bit unit: its own 256x256 table, and
    // the signed adapter's 511x511 table over the unit's table and over
    // the raw unit.
    let fta = catalog::by_name("mul8u_FTA").unwrap();
    let fta_table: Arc<dyn Multiplier> = Arc::new(LutMultiplier::new(Arc::clone(&fta)));
    let forms = [
        ("unsigned", Arc::clone(&fta)),
        ("signed_over_table", signed_capable(fta_table)),
        ("signed_over_raw", signed_capable(fta)),
    ];
    for (form, unit) in forms {
        group.bench_function(format!("tabulate/mul8u_FTA/{form}"), |b| {
            b.iter(|| black_box(LutMultiplier::new(Arc::clone(&unit))))
        });
    }
    group.finish();
    h.finish();
}
