//! CNN workload pipeline pins: golden-seed training bits, per-layer gate
//! search determinism across worker counts, and bit-exact
//! checkpoint/resume through a CNN session.
//!
//! The CNN classifier is the first LAC app whose quality metric is
//! argmax accuracy rather than PSNR, and the first to route gradients
//! through `approx_conv2d` (one call per image, the one-band case of
//! `approx_conv2d_stacked`) and the n == 1 mat-vec kernels. These
//! tests pin that whole path the same way `golden_seed.rs` pins the
//! image apps: FNV-1a over every result f64, captured at the commit that
//! introduced the workload.

use std::sync::Arc;

use lac::apps::{CnnApp, Kernel};
use lac::core::{
    search_multi, train_fixed, train_fixed_resumable, Constraint, MultiObjective, TrainConfig,
};
use lac::data::CnnDataset;
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

/// Smoke-scale dataset: enough samples for a meaningful accuracy split,
/// small enough that the full suite stays in seconds.
fn dataset() -> CnnDataset {
    CnnDataset::generate(24, 8, 16, 16, 42)
}

fn cfg(epochs: usize) -> TrainConfig {
    TrainConfig::new().epochs(epochs).learning_rate(4.0).minibatch(4).seed(7).threads(2)
}

/// Golden-seed pin for fixed-hardware CNN training: any change to the
/// conv/matmul arithmetic, STE gradients, step ordering, or RNG
/// consumption on this path shows up as a hash mismatch here.
#[test]
fn cnn_train_fixed_matches_golden_bits() {
    let ds = dataset();
    let app = CnnApp::paper();
    let mult = app.adapt(&catalog::by_name("mul8u_FTA").unwrap());
    let r = train_fixed(&app, &mult, &ds.train, &ds.test, &cfg(12)).expect("training");
    // Untrained accuracy 0.0, trained 0.625: training genuinely moves
    // the classifier, so the pin covers a non-trivial trajectory.
    assert_eq!(r.before.to_bits(), 0x0, "before accuracy drifted");
    assert_eq!(r.after.to_bits(), 0x3fe4000000000000, "after accuracy drifted");
    assert_eq!(r.loss_history.len(), 12);
    assert_eq!(hash_f64s(&r.loss_history), 0x3a2a4448e0da49c0, "loss trajectory drifted");
    assert_eq!(hash_tensors(&r.coeffs), 0x139b62687c0b7214, "trained coefficients drifted");
}

/// The per-layer gate search (one binarized gate per conv/dense layer)
/// must be bit-deterministic in the worker count: assignment, quality,
/// area, and trained coefficients identical at 1, 2, and 4 threads.
#[test]
fn cnn_per_layer_search_is_thread_count_invariant() {
    let ds = dataset();
    let app = CnnApp::paper();
    // The frontier driver's feasibility pruning: only units that can
    // appear in some assignment meeting the mean-area budget.
    let area_threshold = 0.08;
    let raw = catalog::paper_multipliers();
    let adapted: Vec<Arc<dyn Multiplier>> = raw.iter().map(|m| app.adapt(m)).collect();
    let candidates = lac::core::prune(
        &adapted,
        Constraint::Area(app.num_stages() as f64 * area_threshold),
    );
    assert!(candidates.len() >= 2, "pruning must leave a real search space");

    let objective =
        MultiObjective::AreaConstrained { area_threshold, gamma: 0.9, delta: 8.0 };
    let run = |threads: usize| {
        let c = cfg(8).threads(threads);
        search_multi(&app, &candidates, &ds.train, &ds.test, &c, 1.0, objective)
    };
    let r1 = run(1);
    assert_eq!(r1.choices.len(), 3, "one gate per layer: conv1, conv2, dense");
    for threads in [2usize, 4] {
        let rn = run(threads);
        assert_eq!(r1.choices, rn.choices, "assignment drifted at {threads} threads");
        assert_eq!(
            r1.quality.to_bits(),
            rn.quality.to_bits(),
            "quality drifted at {threads} threads"
        );
        assert_eq!(r1.area.to_bits(), rn.area.to_bits(), "area drifted at {threads} threads");
        assert_eq!(
            hash_tensors(&r1.coeffs),
            hash_tensors(&rn.coeffs),
            "coefficients drifted at {threads} threads"
        );
    }
}

/// An interrupted-and-resumed CNN training run must reproduce the
/// uninterrupted run bit for bit: 12 epochs straight vs 6 + 6 through a
/// checkpoint file, comparing accuracy and every coefficient bit.
#[test]
fn cnn_resume_from_checkpoint_matches_uninterrupted_run() {
    let ds = dataset();
    let app = CnnApp::paper();
    let mult = app.adapt(&catalog::by_name("mul8u_FTA").unwrap());
    let full = train_fixed(&app, &mult, &ds.train, &ds.test, &cfg(12)).expect("uninterrupted");

    let dir = std::env::temp_dir().join("lac-cnn-resume-test");
    let _ = std::fs::remove_dir_all(&dir);
    let ck = dir.join("ck.json");
    let leg1 = train_fixed_resumable(&app, &mult, &ds.train, &ds.test, &cfg(6), &ck, 3)
        .expect("leg 1");
    assert!(ck.exists(), "leg 1 must leave a checkpoint behind");
    let leg2 = train_fixed_resumable(&app, &mult, &ds.train, &ds.test, &cfg(12), &ck, 3)
        .expect("leg 2");

    assert_eq!(leg2.after.to_bits(), full.after.to_bits(), "final accuracy must be bit-equal");
    assert_eq!(hash_tensors(&leg2.coeffs), hash_tensors(&full.coeffs));
    assert_eq!(leg1.loss_history.len(), 6);
    assert_eq!(leg2.loss_history.len(), 12);
    let _ = std::fs::remove_dir_all(&dir);
}
