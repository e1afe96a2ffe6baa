//! Golden-seed regression tests: the engine-backed trainers must
//! reproduce the pre-refactor (seed-commit) results bit-for-bit.
//!
//! The constants below were captured on the last commit before the
//! training loops were unified behind `lac-core::engine`, by running each
//! entry point on a fixed synthetic dataset and FNV-1a-hashing every f64
//! of the result (`to_bits`, little-endian bytes). Any change to the
//! engine's arithmetic, step ordering, RNG consumption, or checkpointing
//! shows up here as a hash mismatch.

use std::sync::Arc;

use lac::apps::{DftApp, FilterApp, FilterKind, JpegApp, JpegMode, Kernel, StageMode};
use lac::core::{
    greedy_multi, search_accuracy_constrained, search_multi, search_single, train_fixed,
    MultiObjective, TrainConfig,
};
use lac::data::{synth_image, GrayImage};
use lac::hw::{catalog, Multiplier};
use lac::tensor::Tensor;

fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn hash_tensors(ts: &[Tensor]) -> u64 {
    fnv1a(ts.iter().flat_map(|t| t.data().iter().flat_map(|v| v.to_bits().to_le_bytes())))
}

fn hash_f64s(vs: &[f64]) -> u64 {
    fnv1a(vs.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

fn images(range: std::ops::Range<u64>) -> Vec<GrayImage> {
    range.map(|i| synth_image(32, 32, i)).collect()
}

fn adapt(app: &FilterApp, names: &[&str]) -> Vec<Arc<dyn Multiplier>> {
    names.iter().map(|n| app.adapt(&catalog::by_name(n).unwrap())).collect()
}

fn dataset() -> (Vec<GrayImage>, Vec<GrayImage>) {
    (images(0..8), images(100..104))
}

#[test]
fn train_fixed_matches_pre_refactor_bits() {
    let (train, test) = dataset();
    let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
    let mult = app.adapt(&catalog::by_name("mul8u_FTA").unwrap());
    let cfg = TrainConfig::new().epochs(12).learning_rate(2.0).minibatch(4).seed(7).threads(2);
    let r = train_fixed(&app, &mult, &train, &test, &cfg).expect("training");
    assert_eq!(r.before.to_bits(), 0x3fecd352b20ea88e, "before quality drifted");
    assert_eq!(r.after.to_bits(), 0x3fef93d51ce0be5c, "after quality drifted");
    assert_eq!(r.loss_history.len(), 12);
    assert_eq!(hash_f64s(&r.loss_history), 0x5b788e2e4e64e28e, "loss trajectory drifted");
    assert_eq!(hash_tensors(&r.coeffs), 0x7bbad9fce667bc5e, "trained coefficients drifted");
}

/// Pins the JPEG training trajectory across the PR-6 kernel swap: the
/// blocked row-tabulated LUT matmuls must reproduce the exact bits the
/// element-by-element path produced. Constants captured on the commit
/// immediately before `matmul_fast` landed.
#[test]
fn jpeg_train_fixed_matches_pre_kernel_swap_bits() {
    let (train, test) = dataset();
    let app = JpegApp::new(JpegMode::Single);
    let mult = app.adapt(&catalog::by_name("mul8u_FTA").unwrap());
    let cfg = TrainConfig::new().epochs(6).learning_rate(2.0).minibatch(4).seed(11).threads(2);
    let r = train_fixed(&app, &mult, &train, &test, &cfg).expect("training");
    assert_eq!(r.before.to_bits(), 0x4038e4b2040bdb26, "before quality drifted");
    assert_eq!(r.after.to_bits(), 0x403ae8e83e5e48bc, "after quality drifted");
    assert_eq!(r.loss_history.len(), 6);
    assert_eq!(hash_f64s(&r.loss_history), 0xddeccadc0fc2321b, "loss trajectory drifted");
    assert_eq!(hash_tensors(&r.coeffs), 0x1a68dafa68f5ec19, "trained coefficients drifted");
}

#[test]
fn search_single_matches_pre_refactor_bits() {
    let (train, test) = dataset();
    let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
    let candidates = adapt(&app, &["mul8u_JV3", "mul8u_FTA", "DRUM16-4"]);
    let cfg = TrainConfig::new().epochs(10).learning_rate(2.0).minibatch(4).seed(9).threads(2);
    let r = search_single(&app, &candidates, &train, &test, &cfg, 2.0);
    assert_eq!(r.chosen, 1, "chosen candidate drifted");
    assert_eq!(r.quality.to_bits(), 0x3fef93d51ce0be5c, "quality drifted");
    assert_eq!(hash_f64s(&r.probabilities), 0x7d47527faa261483, "gate probabilities drifted");
    assert_eq!(hash_tensors(&r.coeffs), 0x7bbad9fce667bc5e, "coefficients drifted");
}

#[test]
fn search_accuracy_constrained_matches_pre_refactor_bits() {
    let (train, test) = dataset();
    let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
    let candidates = adapt(&app, &["mul8u_FTA", "DRUM16-6"]);
    let cfg = TrainConfig::new().epochs(10).learning_rate(2.0).minibatch(4).seed(5).threads(2);
    let r = search_accuracy_constrained(&app, &candidates, &train, &test, &cfg, 2.0, 0.7, 10.0);
    assert_eq!(r.chosen, 0, "chosen candidate drifted");
    assert_eq!(r.quality.to_bits(), 0x3fef93d51ce0be5c, "quality drifted");
    assert_eq!(hash_tensors(&r.coeffs), 0x7bbad9fce667bc5e, "coefficients drifted");
}

#[test]
fn search_multi_matches_pre_refactor_bits() {
    let (train, test) = dataset();
    let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::PerTap);
    let candidates = adapt(&app, &["mul8u_FTA", "DRUM16-4"]);
    let cfg = TrainConfig::new().epochs(10).learning_rate(2.0).minibatch(4).seed(2).threads(2);
    let r = search_multi(
        &app,
        &candidates,
        &train,
        &test,
        &cfg,
        0.8,
        MultiObjective::AreaConstrained { area_threshold: 0.3, gamma: 0.9, delta: 1.0 },
    );
    assert_eq!(r.choices, vec![1, 1, 1, 1, 1, 1, 1, 1, 1], "assignment drifted");
    assert_eq!(r.quality.to_bits(), 0x3fedcfeb442297f4, "quality drifted");
    assert_eq!(r.area.to_bits(), 0x3fd0000000000000, "area drifted");
    assert_eq!(hash_tensors(&r.coeffs), 0xc3bebce58d966ef5, "coefficients drifted");
}

#[test]
fn greedy_multi_matches_pre_refactor_bits() {
    let (train, test) = dataset();
    let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::PerTap);
    let candidates = adapt(&app, &["mul8u_FTA", "DRUM16-4"]);
    let cfg = TrainConfig::new().epochs(2).learning_rate(2.0).minibatch(4).seed(8).threads(2);
    let r = greedy_multi(
        &app,
        &candidates,
        &train,
        &test,
        &cfg,
        MultiObjective::AreaConstrained { area_threshold: 0.3, gamma: 0.9, delta: 1.0 },
    );
    assert_eq!(r.choices, vec![0, 0, 1, 1, 1, 1, 1, 0, 1], "assignment drifted");
    assert_eq!(r.quality.to_bits(), 0x3feb8683a99afda3, "quality drifted");
    assert_eq!(hash_tensors(&r.coeffs), 0x867fb1a4fea442ac, "coefficients drifted");
}

/// Smoke-scale `train_fixed` on the wide 16-bit `mul16s_GAT`, which has
/// no dense product table: pins the untabulated forwards (the filter
/// apps' per-tap product-row conv and its per-product fallback, the
/// JPEG/DFT row-batched matmuls and elementwise products) to the bits
/// the one-model-call-per-product walk produced. Returns
/// `(before, after, loss-trajectory hash, coefficient hash)`.
fn wide_unit_train_fixed<K: Kernel<Sample = GrayImage> + Sync>(
    app: &K,
    seed: u64,
) -> (u64, u64, u64, u64) {
    let (train, test) = (images(0..4), images(100..102));
    let mult = app.adapt(&catalog::by_name("mul16s_GAT").unwrap());
    assert!(mult.as_lut().is_none(), "mul16s_GAT must stay untabulated for this pin");
    let cfg = TrainConfig::new().epochs(4).learning_rate(2.0).minibatch(2).seed(seed).threads(2);
    let r = train_fixed(app, &mult, &train, &test, &cfg).expect("training");
    assert_eq!(r.loss_history.len(), 4);
    (r.before.to_bits(), r.after.to_bits(), hash_f64s(&r.loss_history), hash_tensors(&r.coeffs))
}

#[test]
fn blur_train_fixed_on_wide_unit_matches_per_product_bits() {
    let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
    let got = wide_unit_train_fixed(&app, 13);
    assert_eq!(
        got,
        (0x3fe2997643a5ce58, 0x3fee7dc855abc947, 0x4371a811e00ea855, 0xdf9446d4a7be81bf)
    );
}

#[test]
fn edge_train_fixed_on_wide_unit_matches_per_product_bits() {
    // The Sobel taps' initial quality is already the best iterate, so
    // before == after; the loss trajectory still pins every forward.
    let app = FilterApp::new(FilterKind::EdgeDetection, StageMode::Single);
    let got = wide_unit_train_fixed(&app, 17);
    assert_eq!(
        got,
        (0x3feddae41860a74a, 0x3feddae41860a74a, 0x6d07e6a81b408f27, 0xad20fa381f552e45)
    );
}

/// JPEG (DCT, quantize, dequantize, IDCT) on `mul16s_GAT`: every block
/// matmul and the dequantize elementwise product run on the untabulated
/// unit. Constants captured on the one-model-call-per-product walk,
/// before the row-batched matmul landed.
#[test]
fn jpeg_train_fixed_on_wide_unit_matches_per_product_bits() {
    // As for edge, the initial coefficients stay the best iterate.
    let got = wide_unit_train_fixed(&JpegApp::new(JpegMode::Single), 19);
    assert_eq!(
        got,
        (0x403961436b4d267a, 0x403961436b4d267a, 0xedc3149b3b83a0a5, 0xb7c8328d37d77a85)
    );
}

/// DFT (real and imaginary 12x12 tile matmuls) on `mul16s_GAT`,
/// captured on the same pre-row-batching walk.
#[test]
fn dft_train_fixed_on_wide_unit_matches_per_product_bits() {
    let got = wide_unit_train_fixed(&DftApp::new(), 23);
    assert_eq!(
        got,
        (0x4051a7c2b766eaa2, 0x4051a7c2b766eaa2, 0xc1ae4b030cb93cf8, 0x6a03758b46fa40a5)
    );
}

/// Three-stage JPEG (`JpegMode::ThreeStage`, the serial layering of
/// Fig. 12 and the multi-hardware NAS) trained on a mixed per-stage
/// plan: a 16-bit DRUM unit on the DCT, the untabulated `mul16s_GK2` on
/// dequantization and the tabulated `mul8u_FTA` on the IDCT. Runs the
/// engine loop `train_fixed` runs, on a `HardwarePlan::PerStage`.
/// Constants captured on the per-block tape, before each JPEG stage ran
/// as one fused node.
#[test]
fn jpeg_three_stage_train_fixed_on_mixed_plan_matches_per_block_bits() {
    use lac::core::{batch_references, quality, HardwarePlan, NullObserver, RunScope, TrainSession};

    let app = JpegApp::new(JpegMode::ThreeStage);
    let mults: Vec<Arc<dyn Multiplier>> = ["DRUM16-6", "mul16s_GK2", "mul8u_FTA"]
        .iter()
        .map(|n| app.adapt(&catalog::by_name(n).unwrap()))
        .collect();
    assert!(mults[0].as_lut().is_none() && mults[2].as_lut().is_some(), "plan must mix unit kinds");
    let plan = HardwarePlan::PerStage(mults.clone());
    let (train, test) = (images(0..4), images(100..102));
    let cfg = TrainConfig::new().epochs(4).learning_rate(2.0).minibatch(2).seed(29).threads(2);
    let (train_refs, test_refs) = (batch_references(&app, &train), batch_references(&app, &test));

    let init = app.init_coeffs(&mults);
    let before = quality(&app, &init, &mults, &test, &test_refs, 2);
    let mut session = TrainSession::new(init, cfg.lr);
    let scope = RunScope::new("fixed", "mixed");
    let history = session
        .run(&app, &plan, &train, &train_refs, &cfg, 2, scope, &mut NullObserver)
        .expect("training");
    session.consider_final(&app, &plan, &train, &train_refs, 2);
    let best = session.into_best();
    let after = quality(&app, &best, &mults, &test, &test_refs, 2);
    assert_eq!(history.len(), 4);
    let got = (before.to_bits(), after.to_bits(), hash_f64s(&history), hash_tensors(&best));
    // The best training-loss iterate scores a little lower on the two
    // held-out images than the initial coefficients (30.14 -> 29.87 dB);
    // the pin is on the bits, not on the direction.
    assert_eq!(
        got,
        (0x403e245cf9821802, 0x403ddfdbc82af30a, 0xb9d91018ec9946db, 0x0f9cc8ce21b619d0)
    );
}
