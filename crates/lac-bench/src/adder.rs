//! The approximate-accumulation extension cell (the `adder_lac` binary):
//! Gaussian blur whose convolution sums partial products through a
//! Lower-OR Adder, trained with fixed-hardware LAC.
//!
//! Lives in the library so the sweep scheduler ([`crate::sched`]) is the
//! only executor — binaries just declare `UnitJob::AdderLac` cells.

use std::sync::Arc;

use lac_apps::{output_shift, Kernel, Metric};
use lac_core::{batch_grads, batch_references, quality, TrainConfig};
use lac_data::GrayImage;
use lac_hw::adders::{Adder, ExactAdder, LowerOrAdder};
use lac_hw::{adapt_unit, catalog, Multiplier, Signedness};
use lac_tensor::{Adam, Graph, Tensor, Var};

use crate::driver::AppId;

/// Accumulator width (bits) of the explicit adder models.
const ACCUM_BITS: u32 = 20;

/// Gaussian blur whose convolution uses an explicit adder model — a local
/// kernel variant built on `approx_conv2d_accum`.
struct BlurWithAdder {
    adder: Arc<dyn Adder>,
}

impl Kernel for BlurWithAdder {
    type Sample = GrayImage;

    fn name(&self) -> &str {
        "blur-approx-accum"
    }

    fn metric(&self) -> Metric {
        Metric::Ssim { width: 32, height: 32 }
    }

    fn adapt(&self, mult: &Arc<dyn Multiplier>) -> Arc<dyn Multiplier> {
        adapt_unit(mult, Signedness::Unsigned)
    }

    fn init_coeffs(&self, _mults: &[Arc<dyn Multiplier>]) -> Vec<Tensor> {
        vec![Tensor::from_vec(
            vec![1.0, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0, 2.0, 1.0],
            &[3, 3],
        )]
    }

    fn coeff_bounds(&self, mults: &[Arc<dyn Multiplier>]) -> Vec<(f64, f64)> {
        let (_, hi) = mults[0].operand_range();
        vec![(0.0, hi.min(255) as f64)]
    }

    fn forward_approx(
        &self,
        graph: &Graph,
        sample: &Self::Sample,
        coeffs: &[Var],
        mults: &[Arc<dyn Multiplier>],
    ) -> Var {
        let bounds = self.coeff_bounds(mults);
        let taps = coeffs[0].value();
        let quantized: Vec<f64> = taps
            .data()
            .iter()
            .map(|&v| v.round().clamp(bounds[0].0, bounds[0].1))
            .collect();
        let shift = output_shift(&quantized);
        let img = graph.constant(Tensor::from_vec(sample.pixels().to_vec(), &[32, 32]));
        let k = coeffs[0].quantize_ste(bounds[0].0, bounds[0].1);
        img.approx_conv2d_accum(&k, &mults[0], &self.adder)
            .mul_scalar(2f64.powi(-(shift as i32)))
            .round_ste()
            .clamp(0.0, 255.0)
    }

    fn reference(&self, sample: &Self::Sample) -> Tensor {
        let graph = Graph::new();
        let img = graph.constant(Tensor::from_vec(sample.pixels().to_vec(), &[32, 32]));
        let k = graph.constant(Tensor::from_vec(
            vec![1.0, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0, 2.0, 1.0],
            &[3, 3],
        ));
        img.conv2d(&k).mul_scalar(1.0 / 16.0).round_ste().clamp(0.0, 255.0).value()
    }
}

fn train(
    kernel: &BlurWithAdder,
    mult: &Arc<dyn Multiplier>,
    data: &lac_data::ImageDataset,
    cfg: &TrainConfig,
) -> (f64, f64) {
    let mults = vec![Arc::clone(mult)];
    let train_refs = batch_references(kernel, &data.train);
    let test_refs = batch_references(kernel, &data.test);
    let threads = cfg.effective_threads();
    let init = kernel.init_coeffs(&mults);
    let before = quality(kernel, &init, &mults, &data.test, &test_refs, threads);
    let mut coeffs = init.clone();
    let mut opt = Adam::new(cfg.lr);
    let mut best = (f64::INFINITY, init.clone());
    for step in 0..cfg.epochs {
        let idx = cfg.step_indices(step, data.train.len());
        let batch: Vec<GrayImage> = idx.iter().map(|&i| data.train[i].clone()).collect();
        let refs: Vec<Vec<f64>> = idx.iter().map(|&i| train_refs[i].clone()).collect();
        let (grads, loss) = batch_grads(kernel, &coeffs, &mults, &batch, &refs, threads);
        if loss < best.0 {
            best = (loss, coeffs.clone());
        }
        let mut params: Vec<&mut Tensor> = coeffs.iter_mut().collect();
        opt.step(&mut params, &grads);
    }
    let after = quality(kernel, &best.1, &mults, &data.test, &test_refs, threads);
    (before, after.max(before))
}

/// Train blur through an explicit adder model: `or_bits == 0` is the
/// exact adder baseline, otherwise a Lower-OR Adder with that many OR-ed
/// low bits. Returns `(ssim_before, ssim_after)`.
pub fn run_adder_lac(or_bits: usize, threads: usize) -> (f64, f64) {
    let (sizing, lr) = AppId::Blur.sizing();
    let cfg = sizing.config(lr).threads(threads);
    let data = sizing.image_dataset();
    let adder: Arc<dyn Adder> = if or_bits == 0 {
        Arc::new(ExactAdder::new(ACCUM_BITS))
    } else {
        Arc::new(LowerOrAdder::new(ACCUM_BITS, or_bits as u32))
    };
    let kernel = BlurWithAdder { adder };
    let mult = kernel.adapt(&catalog::by_name("mul8u_FTA").unwrap());
    train(&kernel, &mult, &data, &cfg)
}
