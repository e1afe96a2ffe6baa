//! Cost of one end-to-end fixed-hardware training epoch: every
//! mini-batch of the training set through forward, backward, and an Adam
//! update — the outermost loop a LAC user actually waits on.
//!
//! Complements `training_step` (one batch, gradients only) by covering
//! the optimizer and the chunked multi-threaded dispatch path. Writes
//! `BENCH_training_epoch.json`; see `lac_rt::bench` for the protocol and
//! `LAC_BENCH_FAST` / `LAC_BENCH_SAMPLES` knobs.

use lac_apps::{FilterApp, FilterKind, Kernel, StageMode};
use lac_core::{batch_grads, batch_references};
use lac_data::ImageDataset;
use lac_hw::catalog;
use lac_rt::bench::Harness;
use lac_tensor::Adam;
use std::hint::black_box;

const BATCH: usize = 16;

fn main() {
    let mut h = Harness::new("training_epoch");
    let mut group = h.group("training_epoch");
    let images = ImageDataset::generate(32, 2, 32, 32, 1);

    let blur = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
    let m = blur.adapt(&catalog::by_name("ETM8-k4").unwrap());
    let mults = vec![m];
    let refs = batch_references(&blur, &images.train);

    // Single-threaded on purpose: multi-worker dispatch is covered by the
    // determinism tests, and timing it on a constrained CI box measures
    // the scheduler, not this crate.
    group.bench_function("blur/32imgs", |b| {
        b.iter(|| {
            // Restart from the unaltered application each iteration so
            // every epoch performs identical work.
            let mut coeffs = blur.init_coeffs(&mults);
            let mut opt = Adam::new(0.1);
            let mut last_loss = 0.0;
            for (samples, references) in images.train.chunks(BATCH).zip(refs.chunks(BATCH)) {
                let (grads, loss) =
                    batch_grads(&blur, &coeffs, &mults, samples, references, 1);
                let mut params: Vec<&mut lac_tensor::Tensor> = coeffs.iter_mut().collect();
                opt.step(&mut params, &grads);
                last_loss = loss;
            }
            black_box((coeffs, last_loss))
        })
    });
    group.finish();
    h.finish();
}
