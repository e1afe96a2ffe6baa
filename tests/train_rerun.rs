//! Rerun check: a training session must not depend on anything an
//! earlier session in the same thread left behind.
//!
//! Trains blur, jpeg, dft and cnn on `mul8u_FTA` and inversek2j on
//! `DRUM16-4` in sequence on one worker thread, as the `train` benchmark
//! workload cycles them, then builds fresh adapted units and trains the
//! five again in the same thread. Every before, after and loss bit of
//! the second pass must equal the first, and no session may end with a
//! quality worse than it began with. State that outlives a session (a
//! buffer pool, a cache) or an output that reads what a recycled buffer
//! held before shows up here as a bit difference.

use std::sync::Arc;

use lac::apps::{
    CnnApp, DftApp, FilterApp, FilterKind, InverseK2jApp, JpegApp, JpegMode, Kernel, StageMode,
};
use lac::core::{train_fixed, TrainConfig};
use lac::data::{synth_image, CnnDataset, GrayImage, IkDataset};
use lac::hw::{catalog, LutMultiplier, Multiplier};

/// One session's `[before, after, losses…]`, after checking that the
/// session did not end worse than it began.
fn session<K: Kernel + Sync>(
    name: &str,
    kernel: &K,
    unit: Arc<dyn Multiplier>,
    (train, test): (&[K::Sample], &[K::Sample]),
    cfg: &TrainConfig,
) -> Vec<u64> {
    let mult = kernel.adapt(&unit);
    let r = train_fixed(kernel, &mult, train, test, cfg).expect("training");
    assert!(
        !kernel.metric().direction().is_better(r.before, r.after),
        "{name}: after {} is worse than before {}",
        r.after,
        r.before
    );
    [r.before, r.after].iter().chain(&r.loss_history).map(|v| v.to_bits()).collect()
}

/// A table-backed catalog unit, wrapped as the benchmark wraps it.
fn lut(spec: &str) -> Arc<dyn Multiplier> {
    LutMultiplier::maybe_wrap(catalog::by_spec(spec).unwrap())
}

/// The five sessions in the benchmark's order, each on freshly adapted
/// units.
fn cycle() -> Vec<(&'static str, Vec<u64>)> {
    let images =
        |r: std::ops::Range<u64>| -> Vec<GrayImage> { r.map(|i| synth_image(32, 32, i)).collect() };
    let (train, test) = (images(0..4), images(100..102));
    let cfg = |lr: f64, mb: usize| {
        TrainConfig::new().epochs(3).learning_rate(lr).minibatch(mb).seed(3).threads(1)
    };
    let ik = IkDataset::generate(24, 8, 3);
    let cnn = CnnDataset::generate(8, 4, 16, 16, 3);
    let blur = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
    let data = (&train[..], &test[..]);
    vec![
        ("blur", session("blur", &blur, lut("mul8u_FTA"), data, &cfg(2.0, 2))),
        (
            "jpeg",
            session("jpeg", &JpegApp::new(JpegMode::Single), lut("mul8u_FTA"), data, &cfg(2.0, 2)),
        ),
        ("dft", session("dft", &DftApp::new(), lut("mul8u_FTA"), data, &cfg(2.0, 2))),
        (
            "ik",
            session(
                "ik",
                &InverseK2jApp::new(),
                lut("DRUM16-4"),
                (&ik.train, &ik.test),
                &cfg(50.0, 8),
            ),
        ),
        (
            "cnn",
            session(
                "cnn",
                &CnnApp::paper(),
                catalog::by_spec("mul8u_FTA").unwrap(),
                (&cnn.train, &cnn.test),
                &cfg(2.0, 4),
            ),
        ),
    ]
}

#[test]
fn a_second_pass_of_the_five_sessions_repeats_every_bit() {
    let first = cycle();
    let second = cycle();
    for ((app, a), (_, b)) in first.iter().zip(&second) {
        assert_eq!(a, b, "{app}: quality or loss history differs from the first pass");
    }
}
