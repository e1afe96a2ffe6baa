//! Equivalence battery for `Var::approx_block_transform`, the fused
//! JPEG stage node.
//!
//! The reference is the per-block tape the JPEG app recorded before its
//! stages were fused: every `k × k` block runs its own
//! `approx_matmul_scale_round` → `scale_round_ste` →
//! `approx_matmul_scale_round` chain, fed by its own `transpose` node of
//! the coefficient matrix, and the block outputs are concatenated. The
//! fused node must reproduce that tape bit-for-bit — forward values,
//! the input gradient, and the coefficient gradient, whose per-block
//! contributions the tape folds in one particular order — on both
//! sides (DCT `C·X·Cᵀ`, IDCT `Cᵀ·X·C`), at 1, 2 and 16 blocks, for
//! tabulated units, every catalog unit too wide to tabulate,
//! sign-magnitude adapters and fault-injected specs. Upstream gradients
//! carry non-integral values, zeros (the matmul kernels' zero-skip) and
//! non-finite entries; operands are non-integral or out of range. The
//! clamping form of the node is held to the unclamped node followed by
//! a `clamp` node.

use std::sync::{Arc, OnceLock};

use lac::hw::{catalog, signed_capable, LutMultiplier, Multiplier, MAX_LUT_BITS};
use lac::tensor::{concat, BlockSide, Graph, Tensor, Var};
use lac_rt::proptest::prelude::*;

/// Forward bits, input-gradient bits and coefficient-gradient bits.
type Bits = (Vec<u64>, Vec<u64>, Vec<u64>);

fn bits(vs: &[f64]) -> Vec<u64> {
    vs.iter().map(|v| v.to_bits()).collect()
}

/// Every unit kind the JPEG stages can run on: each catalog unit
/// (tabulated when narrow enough, else untabulated), sign-magnitude
/// adapters both untabulated and tabulated (the JPEG app's own
/// adaptation), and fault-injected narrow and wide specs. Built once:
/// tabulating the narrow units dominates a case's cost otherwise.
fn units() -> &'static [Arc<dyn Multiplier>] {
    static UNITS: OnceLock<Vec<Arc<dyn Multiplier>>> = OnceLock::new();
    UNITS.get_or_init(build_units)
}

fn build_units() -> Vec<Arc<dyn Multiplier>> {
    let mut units: Vec<Arc<dyn Multiplier>> = catalog::PAPER_NAMES
        .iter()
        .chain(catalog::EXTRA_NAMES.iter())
        .map(|n| LutMultiplier::maybe_wrap(catalog::by_name(n).expect("catalog unit")))
        .collect();
    for name in ["mul8u_FTA", "ETM8-k4", "mul8u_JV3", "kulkarni8u", "mitchell8u"] {
        let unit = catalog::by_name(name).expect("catalog unit");
        units.push(signed_capable(LutMultiplier::maybe_wrap(Arc::clone(&unit))));
        units.push(LutMultiplier::maybe_wrap(signed_capable(unit)));
    }
    for spec in [
        "mul8u_FTA!seed=7,flip=0.01",
        "mul8s_1KR3!seed=7,flip=0.05",
        "mul16s_GAT!seed=7,flip=0.01",
        "DRUM16-6!seed=3,flip=0.05",
        "mul16s_GK2!sa1=0x4",
    ] {
        units.push(LutMultiplier::maybe_wrap(catalog::by_spec(spec).expect("fault spec")));
    }
    let wide = units.iter().filter(|u| u.bits() > MAX_LUT_BITS).count();
    assert!(wide >= 4 && units.iter().any(|u| u.as_lut().is_some()), "both unit kinds covered");
    units
}

/// The per-block tape: one node chain per block, concatenated.
fn per_block_tape(
    mult: &Arc<dyn Multiplier>,
    side: BlockSide,
    x: &Tensor,
    c: &Tensor,
    [s_in, s_mid, s_out]: [f64; 3],
    r: &[f64],
) -> Bits {
    let k = c.shape()[0];
    let g = Graph::new();
    let vc = g.var(c.clone());
    let blocks: Vec<Var> =
        x.data().chunks(k * k).map(|b| g.var(Tensor::from_vec(b.to_vec(), &[k, k]))).collect();
    let outs: Vec<Var> = blocks
        .iter()
        .map(|xb| match side {
            BlockSide::Forward => {
                let t = vc.approx_matmul_scale_round(xb, mult, s_in).scale_round_ste(s_mid);
                t.approx_matmul_scale_round(&vc.transpose(), mult, s_out)
            }
            BlockSide::Inverse => {
                let t = vc.transpose().approx_matmul_scale_round(xb, mult, s_in);
                t.scale_round_ste(s_mid).approx_matmul_scale_round(&vc, mult, s_out)
            }
        })
        .collect();
    let out = concat(&outs);
    let grads = g.backward(&out.mul(&g.constant(Tensor::from_vec(r.to_vec(), &[r.len()]))).sum());
    let dx: Vec<f64> = blocks.iter().flat_map(|b| grads.get(b).into_data()).collect();
    (bits(out.value().data()), bits(&dx), bits(grads.get(&vc).data()))
}

/// The fused node over the stacked blocks.
fn fused(
    mult: &Arc<dyn Multiplier>,
    side: BlockSide,
    x: &Tensor,
    c: &Tensor,
    scales: [f64; 3],
    r: &[f64],
) -> Bits {
    let g = Graph::new();
    let (vx, vc) = (g.var(x.clone()), g.var(c.clone()));
    let out = vx.approx_block_transform(&vc, side, mult, scales);
    let grads = g.backward(&out.mul(&g.constant(Tensor::from_vec(r.to_vec(), x.shape()))).sum());
    (bits(out.value().data()), bits(grads.get(&vx).data()), bits(grads.get(&vc).data()))
}

/// Fused node against the per-block tape on `nb` blocks of `k × k`.
fn check(
    mult: &Arc<dyn Multiplier>,
    side: BlockSide,
    (nb, k): (usize, usize),
    x: &[f64],
    c: &[f64],
    scales: [f64; 3],
    r: &[f64],
) {
    let len = nb * k * k;
    let xt = Tensor::from_vec(x[..len].to_vec(), &[nb * k, k]);
    let ct = Tensor::from_vec(c[..k * k].to_vec(), &[k, k]);
    let want = per_block_tape(mult, side, &xt, &ct, scales, &r[..len]);
    let got = fused(mult, side, &xt, &ct, scales, &r[..len]);
    let what = format!("{} {side:?} {nb}x[{k}x{k}] scales {scales:?}", mult.name());
    assert_eq!(got.0, want.0, "{what}: forward");
    assert_eq!(got.1, want.1, "{what}: input gradient");
    assert_eq!(got.2, want.2, "{what}: coefficient gradient");
}

/// JPEG shapes on every unit kind: pixels and DCT-sized coefficients
/// with non-integral and out-of-range entries, non-integral upstream
/// gradients with zeros, NaN and ±inf mixed in, at the app's scales.
#[test]
fn fused_stage_matches_per_block_tape_for_every_unit_kind() {
    let c: Vec<f64> =
        (0..64).map(|i| ((i * 37 + 11) % 301) as f64 - 150.0 + 0.25 * (i % 3) as f64).collect();
    let x: Vec<f64> = (0..1024)
        .map(|i| match i % 13 {
            5 => 70_000.0 + i as f64,
            9 => -300.5,
            _ => ((i * 53 + 7) % 256) as f64,
        })
        .collect();
    let r: Vec<f64> = (0..1024)
        .map(|i| match i % 17 {
            3 => 0.0,
            8 => f64::NAN,
            11 => f64::INFINITY,
            14 => f64::NEG_INFINITY,
            _ => ((i * 7919) % 1000) as f64 / 997.0 - 0.5,
        })
        .collect();
    let scales = [2f64.powi(-7), 2f64.powi(-3), 2f64.powi(-4)];
    for mult in units() {
        for side in [BlockSide::Forward, BlockSide::Inverse] {
            for nb in [1, 2, 16] {
                check(mult, side, (nb, 8), &x, &c, scales, &r);
            }
        }
    }
}

/// Finite non-integral upstream gradients make the coefficient sum
/// order-sensitive, so a fold that visits blocks, or the two product
/// paths of a block, in another order than the tape changes low bits.
/// Units adapted as the JPEG app adapts them: a tabulated
/// sign-magnitude adapter and the untabulated `mul16s_GAT`.
#[test]
fn fused_stage_gradients_fold_blocks_in_tape_order() {
    let c: Vec<f64> = (0..64).map(|i| ((i * 29 + 3) % 255) as f64 - 127.0).collect();
    let x: Vec<f64> = (0..1024).map(|i| ((i * 97 + 13) % 256) as f64).collect();
    let r: Vec<f64> = (0..1024).map(|i| ((i * 6151) % 1009) as f64 / 1009.0 - 0.37).collect();
    for name in ["mul8u_FTA", "mul16s_GAT"] {
        let mult = LutMultiplier::maybe_wrap(signed_capable(catalog::by_name(name).unwrap()));
        for side in [BlockSide::Forward, BlockSide::Inverse] {
            for nb in [2, 16] {
                check(&mult, side, (nb, 8), &x, &c, [0.5, 2f64.powi(-2), 2f64.powi(-6)], &r);
            }
        }
    }
}

/// `approx_block_transform_clamped` against the unclamped node followed
/// by a `clamp` node, the chain the JPEG IDCT recorded before its clamp
/// moved into the node: values, input gradient and coefficient gradient,
/// bit for bit. The clamp bounds sit on output values, so outputs lie
/// exactly on each edge; upstream gradients hold ±0 and non-integral
/// values. Units: exact, an unsigned table, the signed adapter over it,
/// the untabulated `mul16s_GAT` and a fault-injected table.
#[test]
fn clamped_stage_matches_the_unfused_clamp() {
    let fta = LutMultiplier::maybe_wrap(catalog::by_name("mul8u_FTA").unwrap());
    let units: Vec<Arc<dyn Multiplier>> = vec![
        catalog::by_name("exact8u").unwrap(),
        Arc::clone(&fta),
        LutMultiplier::maybe_wrap(signed_capable(fta)),
        catalog::by_name("mul16s_GAT").unwrap(),
        LutMultiplier::maybe_wrap(catalog::by_spec("mul8u_FTA!seed=5,flip=0.05").unwrap()),
    ];
    let c: Vec<f64> = (0..64).map(|i| ((i * 29 + 3) % 255) as f64 - 127.0).collect();
    let x: Vec<f64> = (0..1024).map(|i| ((i * 97 + 13) % 256) as f64 - 40.0).collect();
    let r: Vec<f64> = (0..1024)
        .map(|i| match i % 7 {
            2 => 0.0,
            5 => -0.0,
            _ => ((i * 6151) % 1009) as f64 / 1009.0 - 0.37,
        })
        .collect();
    let scales = [2f64.powi(-3), 2f64.powi(-2), 2f64.powi(-6)];
    for mult in &units {
        for side in [BlockSide::Forward, BlockSide::Inverse] {
            for nb in [1, 16] {
                let len = nb * 64;
                let run = |edges: Option<(f64, f64)>| {
                    let g = Graph::new();
                    let vx = g.var(Tensor::from_vec(x[..len].to_vec(), &[nb * 8, 8]));
                    let vc = g.var(Tensor::from_vec(c.clone(), &[8, 8]));
                    let out = match edges {
                        Some(edges) => {
                            vx.approx_block_transform_clamped(&vc, side, mult, scales, edges)
                        }
                        None => vx.approx_block_transform(&vc, side, mult, scales),
                    };
                    (g, vx, vc, out)
                };
                let (_, _, _, plain) = run(None);
                let mut sorted = plain.value().into_data();
                sorted.sort_by(f64::total_cmp);
                let (lo, hi) = (sorted[len / 5], sorted[len * 4 / 5]);
                let upstream =
                    |g: &Graph| g.constant(Tensor::from_vec(r[..len].to_vec(), &[nb * 8, 8]));

                let (g1, x1, c1, unclamped) = run(None);
                let want = unclamped.clamp(lo, hi);
                let gr1 = g1.backward(&want.mul(&upstream(&g1)).sum());
                let (g2, x2, c2, got) = run(Some((lo, hi)));
                let gr2 = g2.backward(&got.mul(&upstream(&g2)).sum());

                let what = format!("{} {side:?} {nb} blocks clamped to [{lo}, {hi}]", mult.name());
                assert_eq!(bits(got.value().data()), bits(want.value().data()), "{what}: forward");
                let (dx, dc) = (gr2.get(&x2), gr2.get(&c2));
                assert_eq!(bits(dx.data()), bits(gr1.get(&x1).data()), "{what}: input gradient");
                let want_dc = gr1.get(&c1);
                assert_eq!(bits(dc.data()), bits(want_dc.data()), "{what}: coefficient gradient");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random unit, side, block count and size, operands and upstream
    /// gradients: `kind` picks 0 in-range integers, 1 non-integral
    /// values, 2 wide out-of-range values, 3 a sprinkle of zero and
    /// non-finite upstream gradients. Shrinking walks the block count,
    /// block size and every value toward zero.
    #[test]
    fn fused_stage_matches_per_block_tape_randomly(
        unit in 0..units().len(),
        shape in (0usize..3, 1usize..=8, 0u8..2),
        c in proptest::collection::vec(-300i64..=300, 64),
        x in proptest::collection::vec(-40_000i64..=40_000, 1024),
        frac in proptest::collection::vec(-1.0f64..1.0, 1024),
        mode in (0u8..4, -8i32..=1, -4i32..=0, -8i32..=1),
    ) {
        let (nb, k, side) = shape;
        let nb = [1, 2, 16][nb];
        let side = if side == 0 { BlockSide::Forward } else { BlockSide::Inverse };
        let (kind, e_in, e_mid, e_out) = mode;
        let value = |v: i64, f: f64| match kind {
            0 | 3 => (v % 256) as f64,
            1 => (v % 256) as f64 + f,
            _ => v as f64 * 2.0 + f,
        };
        let c: Vec<f64> = c.iter().zip(&frac).map(|(&v, &f)| value(v, f)).collect();
        let x: Vec<f64> = x.iter().zip(&frac).map(|(&v, &f)| value(v, f)).collect();
        let r: Vec<f64> = frac
            .iter()
            .enumerate()
            .map(|(i, &f)| match (kind, i % 9) {
                (3, 2) => 0.0,
                (3, 5) => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][i % 3],
                _ => f,
            })
            .collect();
        let scales = [2f64.powi(e_in), 2f64.powi(e_mid), 2f64.powi(e_out)];
        check(&units()[unit], side, (nb, k), &x, &c, scales, &r);
    }
}

#[test]
#[should_panic(expected = "do not stack")]
fn ragged_stack_is_rejected() {
    let g = Graph::new();
    let x = g.var(Tensor::zeros(&[12, 8]));
    let c = g.var(Tensor::zeros(&[8, 8]));
    let exact = catalog::by_name("exact8u").unwrap();
    let _ = x.approx_block_transform(&c, BlockSide::Forward, &exact, [1.0; 3]);
}
