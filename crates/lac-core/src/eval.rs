//! Parallel batch evaluation of kernels: outputs, quality scores,
//! training losses, and accumulated training gradients.
//!
//! Each worker thread builds its own autodiff graphs for a chunk of
//! samples — the Rust equivalent of the paper's "parallel versions of the
//! approximate multipliers to spread the work across multiple CPU cores"
//! (Section III-D). This is the one place samples are partitioned:
//! training, evaluation and serving (`ServingModel::infer_mode`) all
//! run their batches through it.
//!
//! # Determinism
//!
//! Samples are partitioned into fixed-size chunks of [`EVAL_CHUNK`]
//! samples — the partition never depends on the worker count. Workers
//! return *per-sample* results, [`lac_rt::par::chunk_map`] yields them in
//! chunk (hence sample) order, and the reductions below are strict left
//! folds over samples in that order. Because the fold never sees chunk
//! boundaries, losses and gradients are bit-identical for any worker
//! count *and any chunk size* (floating-point addition is not
//! associative; summing per-chunk subtotals first would tie the result to
//! the chunk size, and a partition that moved with the thread count would
//! reorder the sums).
//!
//! # Allocation reuse
//!
//! Each chunk runs inside a [`lac_tensor::pool::scope`], so tensor
//! buffers freed by one sample's forward/backward are recycled by the
//! next, and one [`Graph`] per chunk is recycled across samples with
//! [`Graph::reset`] — after the chunk's first sample the steady state
//! performs no tape or buffer allocation.
//!
//! # Gradients only where needed
//!
//! Samples, references and quantization tables enter every graph as
//! constants, so backward passes compute coefficient gradients only.
//! [`batch_outputs`] and [`batch_loss`] record the coefficients as
//! constants too: their graphs hold no backward closure at all.
//! [`batch_outputs`] hands each chunk to [`Kernel::infer`] whole, so a
//! kernel that can (the 3×3 filters) answers a chunk with one stacked
//! pass.

use std::sync::Arc;

use lac_apps::Kernel;
use lac_hw::Multiplier;
use lac_tensor::{pool, Graph, Tensor, Var};

/// Samples per evaluation chunk.
///
/// Large enough to amortize task dispatch and let the per-chunk graph
/// and buffer pool reach their allocation-free steady state (twice the
/// seed's 4 — the optimized per-sample cost is an order of magnitude
/// smaller, so more samples are needed to swamp dispatch), small enough
/// to split the paper's batch sizes across workers. It also caps a
/// stacked filter pass at 8 images of 32×32 (64 KiB per intermediate),
/// which stays in L2. Purely a scheduling knob: the per-sample reduction
/// (see the module docs) makes results independent of this value, and
/// the chunk-size invariance test pins that down.
pub const EVAL_CHUNK: usize = 8;

/// Precomputed accurate-branch outputs for a sample set.
pub fn batch_references<K: Kernel + Sync>(kernel: &K, samples: &[K::Sample]) -> Vec<Vec<f64>> {
    samples.iter().map(|s| kernel.reference(s).into_data()).collect()
}

/// Approximate-branch outputs for every sample, in order: one
/// [`Kernel::infer`] inference pass per chunk, which records no backward
/// closure. Outputs are bit-identical for every `threads` value.
pub fn batch_outputs<K: Kernel + Sync>(
    kernel: &K,
    coeffs: &[Tensor],
    mults: &[Arc<dyn Multiplier>],
    samples: &[K::Sample],
    threads: usize,
) -> Vec<Vec<f64>> {
    let per_chunk = lac_rt::par::chunk_map(samples, EVAL_CHUNK, threads, |chunk| {
        pool::scope(|| kernel.infer(&Graph::new(), chunk, coeffs, mults))
    });
    per_chunk.into_iter().flatten().collect()
}

/// Test-set quality of a configuration under the kernel's metric.
pub fn quality<K: Kernel + Sync>(
    kernel: &K,
    coeffs: &[Tensor],
    mults: &[Arc<dyn Multiplier>],
    samples: &[K::Sample],
    references: &[Vec<f64>],
    threads: usize,
) -> f64 {
    let outputs = batch_outputs(kernel, coeffs, mults, samples, threads);
    kernel.metric().evaluate(&outputs, references)
}

/// Mean training loss and summed coefficient gradients over a batch.
///
/// The loss is the mean squared error between the approximate branch and
/// the precomputed accurate-branch references — the dual-branch training
/// signal of Fig. 2 / Eq. 1 of the paper.
///
/// # Panics
///
/// Panics if `samples` and `references` differ in length or are empty.
pub fn batch_grads<K: Kernel + Sync>(
    kernel: &K,
    coeffs: &[Tensor],
    mults: &[Arc<dyn Multiplier>],
    samples: &[K::Sample],
    references: &[Vec<f64>],
    threads: usize,
) -> (Vec<Tensor>, f64) {
    batch_grads_with_chunk(kernel, coeffs, mults, samples, references, threads, EVAL_CHUNK)
}

/// [`batch_grads`] with an explicit chunk size, bit-identical for every
/// `chunk` value: workers emit per-sample gradients and losses, and the
/// reduction is a strict left fold over samples in sample order, so
/// chunk boundaries never influence any floating-point sum. The tests
/// pin that invariance down.
fn batch_grads_with_chunk<K: Kernel + Sync>(
    kernel: &K,
    coeffs: &[Tensor],
    mults: &[Arc<dyn Multiplier>],
    samples: &[K::Sample],
    references: &[Vec<f64>],
    threads: usize,
    chunk: usize,
) -> (Vec<Tensor>, f64) {
    let results = per_sample(samples, references, threads, chunk, |graph, sample, reference| {
        let vars: Vec<Var> = coeffs.iter().map(|c| graph.var(c.clone())).collect();
        let loss = sample_loss(kernel, graph, sample, &vars, mults, reference);
        let g = graph.backward(&loss);
        (vars.iter().map(|v| g.get(v)).collect::<Vec<_>>(), loss.item())
    });

    // Strict left fold over samples in sample order: deterministic for
    // any worker count and any chunk size.
    let mut grads: Vec<Tensor> = coeffs.iter().map(|c| Tensor::zeros(c.shape())).collect();
    for (sample_grads, _) in &results {
        for (acc, g) in grads.iter_mut().zip(sample_grads) {
            acc.accumulate(g);
        }
    }
    let n = samples.len() as f64;
    for g in &mut grads {
        *g = g.map(|v| v / n);
    }
    (grads, mean_loss(results.iter().map(|(_, loss)| *loss)))
}

/// The loss of [`batch_grads`] alone, bit-identical to it: the same
/// per-sample MSE and the same strict left fold, with the coefficients
/// recorded as constants so no graph holds a backward closure. For
/// scoring an iterate without stepping it.
///
/// # Panics
///
/// Panics if `samples` and `references` differ in length or are empty.
pub fn batch_loss<K: Kernel + Sync>(
    kernel: &K,
    coeffs: &[Tensor],
    mults: &[Arc<dyn Multiplier>],
    samples: &[K::Sample],
    references: &[Vec<f64>],
    threads: usize,
) -> f64 {
    let losses = per_sample(samples, references, threads, EVAL_CHUNK, |graph, sample, reference| {
        let leaves: Vec<Var> = coeffs.iter().map(|c| graph.constant(c.clone())).collect();
        sample_loss(kernel, graph, sample, &leaves, mults, reference).item()
    });
    mean_loss(losses.into_iter())
}

/// One sample's training loss: the mean squared error between the
/// approximate branch over the coefficient leaves and the sample's
/// reference. Outputs may carry structured shapes; the loss compares
/// them in row-major order, reading the reference in place.
fn sample_loss<K: Kernel>(
    kernel: &K,
    graph: &Graph,
    sample: &K::Sample,
    leaves: &[Var],
    mults: &[Arc<dyn Multiplier>],
    reference: &[f64],
) -> Var {
    kernel.forward_approx(graph, sample, leaves, mults).mse_loss_to(reference)
}

/// Mean of per-sample losses by a strict left fold in sample order.
fn mean_loss(losses: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = losses.len() as f64;
    losses.fold(0.0, |acc, loss| acc + loss) / n
}

/// `f(graph, sample, reference)` for every sample, in sample order. Each
/// chunk of `chunk` samples runs in one buffer-pool scope on one graph,
/// reset before every sample. Results are per sample, never per-chunk
/// subtotals: see the module docs.
fn per_sample<S: Sync, T: Send>(
    samples: &[S],
    references: &[Vec<f64>],
    threads: usize,
    chunk: usize,
    f: impl Fn(&Graph, &S, &[f64]) -> T + Sync,
) -> Vec<T> {
    assert_eq!(samples.len(), references.len(), "samples/references length mismatch");
    assert!(!samples.is_empty(), "empty training batch");
    let pairs: Vec<(&S, &Vec<f64>)> = samples.iter().zip(references).collect();
    let per_chunk = lac_rt::par::chunk_map(&pairs, chunk, threads, |chunk| {
        pool::scope(|| {
            let graph = Graph::new();
            chunk
                .iter()
                .map(|(sample, reference)| {
                    graph.reset();
                    f(&graph, sample, reference)
                })
                .collect::<Vec<_>>()
        })
    });
    per_chunk.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_apps::{FilterApp, FilterKind, Kernel, StageMode};
    use lac_data::{synth_image, GrayImage};
    use lac_hw::catalog;

    fn setup() -> (FilterApp, Vec<Arc<dyn Multiplier>>, Vec<Tensor>, Vec<GrayImage>) {
        let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
        let mult = app.adapt(&catalog::by_name("ETM8-k4").unwrap());
        let mults = vec![mult];
        let coeffs = app.init_coeffs(&mults);
        let samples: Vec<GrayImage> = (0..6).map(|i| synth_image(32, 32, i)).collect();
        (app, mults, coeffs, samples)
    }

    #[test]
    fn outputs_match_serial_and_parallel() {
        let (app, mults, coeffs, samples) = setup();
        let serial = batch_outputs(&app, &coeffs, &mults, &samples, 1);
        let parallel = batch_outputs(&app, &coeffs, &mults, &samples, 4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn grads_are_bit_identical_across_worker_counts() {
        let (app, mults, coeffs, samples) = setup();
        let refs = batch_references(&app, &samples);
        let (gs, ls) = batch_grads(&app, &coeffs, &mults, &samples, &refs, 1);
        for threads in [2, 4, 8] {
            let (gp, lp) = batch_grads(&app, &coeffs, &mults, &samples, &refs, threads);
            // Fixed-size chunking makes the reduction order independent
            // of the worker count, so equality is exact, not approximate.
            assert_eq!(ls.to_bits(), lp.to_bits(), "loss differs at {threads} threads");
            for (a, b) in gs.iter().zip(&gp) {
                for (x, y) in a.data().iter().zip(b.data()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "grad differs at {threads} threads");
                }
            }
        }
    }

    #[test]
    fn grads_are_bit_identical_across_chunk_sizes() {
        let (app, mults, coeffs, samples) = setup();
        let refs = batch_references(&app, &samples);
        let (gs, ls) = batch_grads_with_chunk(&app, &coeffs, &mults, &samples, &refs, 2, 1);
        for chunk in [2, 3, 5, 8, EVAL_CHUNK] {
            let (gp, lp) =
                batch_grads_with_chunk(&app, &coeffs, &mults, &samples, &refs, 3, chunk);
            // The reduction folds per-sample results in sample order, so
            // chunk boundaries never enter any floating-point sum.
            assert_eq!(ls.to_bits(), lp.to_bits(), "loss differs at chunk size {chunk}");
            for (a, b) in gs.iter().zip(&gp) {
                for (x, y) in a.data().iter().zip(b.data()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "grad differs at chunk size {chunk}");
                }
            }
        }
    }

    #[test]
    fn exact_hardware_has_zero_loss_and_perfect_quality() {
        let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
        let mult = app.adapt(&catalog::by_name("exact16u").unwrap());
        let mults = vec![mult];
        let coeffs = app.init_coeffs(&mults);
        let samples: Vec<GrayImage> = (0..3).map(|i| synth_image(32, 32, i)).collect();
        let refs = batch_references(&app, &samples);
        let loss = batch_loss(&app, &coeffs, &mults, &samples, &refs, 2);
        assert_eq!(loss, 0.0);
        let q = quality(&app, &coeffs, &mults, &samples, &refs, 2);
        assert!((q - 1.0).abs() < 1e-12, "SSIM {q}");
    }

    #[test]
    fn approximate_hardware_has_positive_loss() {
        let (app, mults, coeffs, samples) = setup();
        let refs = batch_references(&app, &samples);
        let (grads, loss) = batch_grads(&app, &coeffs, &mults, &samples, &refs, 2);
        assert!(loss > 0.0);
        // At least one coefficient must receive a nonzero gradient.
        assert!(grads.iter().any(|g| g.max_abs() > 0.0));
    }

    #[test]
    fn batch_loss_matches_batch_grads_bit_for_bit() {
        let (app, mults, coeffs, samples) = setup();
        let refs = batch_references(&app, &samples);
        let (_, want) = batch_grads(&app, &coeffs, &mults, &samples, &refs, 1);
        assert!(want > 0.0);
        for threads in [1, 3] {
            let got = batch_loss(&app, &coeffs, &mults, &samples, &refs, threads);
            assert_eq!(got.to_bits(), want.to_bits(), "loss differs at {threads} threads");
        }
    }

    /// `infer` on `samples` records nodes but no backward closure, and
    /// answers what per-sample `infer` calls, `batch_outputs` and the
    /// serving path answer; the same forward over var leaves does record
    /// closures.
    fn assert_inference_records_no_closure<K: Kernel + Sync>(
        kernel: &K,
        samples: &[K::Sample],
        coeffs: &[Tensor],
        mults: &[Arc<dyn Multiplier>],
        served: &[Vec<f64>],
    ) {
        let name = kernel.name().to_string();
        let graph = Graph::new();
        let out = kernel.infer(&graph, samples, coeffs, mults);
        assert!(!graph.is_empty(), "{name}: nothing recorded");
        assert_eq!(graph.backward_closures(), 0, "{name}: inference recorded closures");
        assert_eq!(out, served, "{name}: serving outputs differ");
        assert_eq!(out, batch_outputs(kernel, coeffs, mults, samples, 2), "{name}: batch_outputs");
        for (sample, want) in samples.iter().zip(&out) {
            let one = kernel.infer(&graph, std::slice::from_ref(sample), coeffs, mults);
            assert_eq!(&one[0], want, "{name}: per-sample infer differs");
            assert_eq!(graph.backward_closures(), 0, "{name}: per-sample inference");
        }
        graph.reset();
        let vars: Vec<Var> = coeffs.iter().map(|c| graph.var(c.clone())).collect();
        kernel.forward_approx(&graph, &samples[0], &vars, mults);
        assert!(graph.backward_closures() > 0, "{name}: training records no closure");
    }

    #[test]
    fn inference_paths_record_no_backward_closures() {
        use crate::ServingModel;
        use lac_apps::{AppKernel, ServeApp, ServeSample};

        for app in ServeApp::ALL {
            let model = ServingModel::untrained(app, "mul8u_FTA").unwrap();
            let kernel = app.build();
            let mults = vec![kernel.adapt(&catalog::by_name("mul8u_FTA").unwrap())];
            let samples: Vec<ServeSample> = (0..3u64)
                .map(|i| match app {
                    ServeApp::InverseK2j => vec![0.5, 0.3 + 0.1 * i as f64],
                    _ => synth_image(32, 32, 5 + i).pixels().to_vec(),
                })
                .map(|payload| app.decode(&payload).unwrap())
                .collect();
            let served = model.infer(&samples, 1).unwrap();
            let coeffs = model.coeffs();
            let images = || -> Vec<GrayImage> {
                samples
                    .iter()
                    .map(|s| match s {
                        ServeSample::Image(img) => img.clone(),
                        ServeSample::Ik(_) => panic!("{}: ik sample", app.cli_id()),
                    })
                    .collect()
            };
            match &kernel {
                AppKernel::Filter(k) => {
                    assert_inference_records_no_closure(k, &images(), coeffs, &mults, &served)
                }
                AppKernel::Jpeg(k) => {
                    assert_inference_records_no_closure(k, &images(), coeffs, &mults, &served)
                }
                AppKernel::Dft(k) => {
                    assert_inference_records_no_closure(k, &images(), coeffs, &mults, &served)
                }
                AppKernel::InverseK2j(k) => {
                    let targets: Vec<_> = samples
                        .iter()
                        .map(|s| match s {
                            ServeSample::Ik(ik) => *ik,
                            ServeSample::Image(_) => panic!("inversek2j: image sample"),
                        })
                        .collect();
                    assert_inference_records_no_closure(k, &targets, coeffs, &mults, &served)
                }
            }
        }
    }

    #[test]
    fn empty_sample_list_yields_empty_outputs() {
        let (app, mults, coeffs, _) = setup();
        let out = batch_outputs(&app, &coeffs, &mults, &[], 4);
        assert!(out.is_empty());
    }
}
