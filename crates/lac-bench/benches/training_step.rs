//! Cost of one fixed-hardware LAC training step (forward + backward +
//! Adam) per application kernel.
//!
//! Writes `BENCH_training_step.json`; see `lac_rt::bench` for the
//! protocol and `LAC_BENCH_FAST` / `LAC_BENCH_SAMPLES` knobs.

use lac_apps::{FilterApp, FilterKind, InverseK2jApp, JpegApp, JpegMode, Kernel, StageMode};
use lac_core::{batch_grads, batch_references};
use lac_data::{IkDataset, ImageDataset};
use lac_hw::catalog;
use lac_rt::bench::Harness;
use std::hint::black_box;

fn main() {
    let mut h = Harness::new("training_step");
    let mut group = h.group("training_step");
    let images = ImageDataset::generate(8, 2, 32, 32, 1);

    let blur = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
    let m = blur.adapt(&catalog::by_name("ETM8-k4").unwrap());
    let mults = vec![m];
    let coeffs = blur.init_coeffs(&mults);
    let refs = batch_references(&blur, &images.train);
    group.bench_function("blur/8imgs", |b| {
        b.iter(|| {
            black_box(batch_grads(&blur, &coeffs, &mults, &images.train, &refs, 1))
        })
    });

    let jpeg = JpegApp::new(JpegMode::Single);
    let m = jpeg.adapt(&catalog::by_name("mul8u_FTA").unwrap());
    let mults = vec![m];
    let coeffs = jpeg.init_coeffs(&mults);
    let refs = batch_references(&jpeg, &images.train);
    group.bench_function("jpeg/8imgs", |b| {
        b.iter(|| {
            black_box(batch_grads(&jpeg, &coeffs, &mults, &images.train, &refs, 1))
        })
    });

    let ik = InverseK2jApp::new();
    let ikdata = IkDataset::generate(64, 8, 1);
    let m = ik.adapt(&catalog::by_name("DRUM16-4").unwrap());
    let mults = vec![m];
    let coeffs = ik.init_coeffs(&mults);
    let refs = batch_references(&ik, &ikdata.train);
    group.bench_function("inversek2j/64samples", |b| {
        b.iter(|| {
            black_box(batch_grads(&ik, &coeffs, &mults, &ikdata.train, &refs, 1))
        })
    });
    group.finish();
    h.finish();
}
