//! Scaling of batch evaluation with worker threads (`lac_rt::par` scoped
//! threads standing in for the paper's multi-core simulation).
//!
//! Writes `BENCH_batch_eval.json`; see `lac_rt::bench` for the protocol
//! and `LAC_BENCH_FAST` / `LAC_BENCH_SAMPLES` knobs.

use lac_apps::{FilterApp, FilterKind, Kernel, StageMode};
use lac_core::batch_outputs;
use lac_data::ImageDataset;
use lac_hw::catalog;
use lac_rt::bench::Harness;
use std::hint::black_box;

fn main() {
    let mut h = Harness::new("batch_eval");
    let mut group = h.group("batch_eval");
    let data = ImageDataset::generate(32, 2, 32, 32, 1);
    let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
    let m = app.adapt(&catalog::by_name("DRUM16-4").unwrap());
    let mults = vec![m];
    let coeffs = app.init_coeffs(&mults);
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(format!("blur32imgs/{threads}threads"), |b| {
            b.iter(|| {
                black_box(batch_outputs(&app, &coeffs, &mults, &data.train, threads))
            })
        });
    }
    group.finish();
    h.finish();
}
