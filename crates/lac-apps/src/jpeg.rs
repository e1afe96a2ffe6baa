//! JPEG compression through the 8×8 Discrete Cosine Transform at quality
//! level 50 (Cabeen & Gent), the paper's "DCT" application.
//!
//! The pipeline is the paper's three serial stages (Section IV):
//!
//! 1. **dct** — forward 8×8 DCT, `Y = C·X·Cᵀ`, with a trainable integer
//!    coefficient matrix;
//! 2. **dequant** — quantization by the Q50 table (exact division + round,
//!    no multiplier involved) followed by dequantization, whose per-entry
//!    multiply runs on approximate hardware;
//! 3. **idct** — inverse DCT `X' = Cᵀ·Y·C` with an independently trainable
//!    coefficient matrix.
//!
//! In single-stage mode (fixed-hardware LAC, Fig. 3d) all three stages use
//! the same multiplier. Quality is PSNR between the approximate branch and
//! the accurate branch over the reconstructed image, as in the paper.
//!
//! Fixed-point conventions: coefficients are scaled by `2^m` into the
//! multiplier's operand range and intermediate values are re-quantized and
//! range-fitted between stages by exact power-of-two shifts — the standard
//! integer-DCT datapath the paper's scaling description implies.
//!
//! The approximate branch stacks the image's sixteen 8×8 blocks into one
//! `[128, 8]` tensor, block-major, and records each stage over the whole
//! stack: the DCT and IDCT are one [`Var::approx_block_transform`] node
//! each, and dequantization is elementwise against Q50 tiled once per
//! image. The output is the `[1024]` stack flattened, blocks in
//! raster order — bit-identical to running every block through its own
//! chain of nodes.

use std::sync::Arc;

use lac_hw::{adapt_unit, Multiplier, Signedness};
use lac_tensor::{BlockSide, Graph, Tensor, Var};

use crate::kernel::{coeff_upscale, fit_shift, pixel_shift, Kernel, Metric};

use lac_data::GrayImage;

/// Block size of the DCT.
pub const BLOCK: usize = 8;

/// The standard JPEG luminance quantization table at quality 50.
pub const Q50: [f64; 64] = [
    16.0, 11.0, 10.0, 16.0, 24.0, 40.0, 51.0, 61.0, //
    12.0, 12.0, 14.0, 19.0, 26.0, 58.0, 60.0, 55.0, //
    14.0, 13.0, 16.0, 24.0, 40.0, 57.0, 69.0, 56.0, //
    14.0, 17.0, 22.0, 29.0, 51.0, 87.0, 80.0, 62.0, //
    18.0, 22.0, 37.0, 56.0, 68.0, 109.0, 103.0, 77.0, //
    24.0, 35.0, 55.0, 64.0, 81.0, 104.0, 113.0, 92.0, //
    49.0, 64.0, 78.0, 87.0, 103.0, 121.0, 120.0, 101.0, //
    72.0, 92.0, 95.0, 98.0, 112.0, 100.0, 103.0, 99.0,
];

/// The orthonormal 8×8 DCT-II matrix.
pub fn dct_matrix() -> Tensor {
    let n = BLOCK;
    let mut c = Tensor::zeros(&[n, n]);
    for i in 0..n {
        for j in 0..n {
            let v = if i == 0 {
                (1.0 / n as f64).sqrt()
            } else {
                (2.0 / n as f64).sqrt()
                    * ((2 * j + 1) as f64 * i as f64 * std::f64::consts::PI / (2 * n) as f64).cos()
            };
            c.data_mut()[i * n + j] = v;
        }
    }
    c
}

/// The shared 8-bit coefficient cap used in three-stage mode (see
/// [`JpegApp::coeff_scale`]).
const COEFF_CAP: i64 = 255;

/// Stage layout of a [`JpegApp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JpegMode {
    /// One multiplier for the whole pipeline (fixed-hardware LAC).
    Single,
    /// Three serial stages with independent multipliers (serial NAS).
    ThreeStage,
}

/// The JPEG / DCT application kernel.
///
/// # Examples
///
/// ```
/// use lac_apps::{JpegApp, JpegMode, Kernel};
/// use lac_data::synth_image;
/// use lac_hw::catalog;
/// use lac_tensor::Graph;
///
/// let app = JpegApp::new(JpegMode::Single);
/// let mult = app.adapt(&catalog::by_name("exact16u").unwrap());
/// let mults = vec![mult];
/// let img = synth_image(32, 32, 1);
///
/// let coeffs = app.init_coeffs(&mults);
/// let g = Graph::new();
/// let vars: Vec<_> = coeffs.iter().map(|c| g.var(c.clone())).collect();
/// let out = app.forward_approx(&g, &img, &vars, &mults);
/// // An exact wide multiplier gets very close to the float reference
/// // (small residue from coefficient quantization).
/// let reference = app.reference(&img);
/// let err = out
///     .value()
///     .data()
///     .iter()
///     .zip(reference.data())
///     .map(|(a, b)| (a - b).abs())
///     .fold(0.0f64, f64::max);
/// assert!(err < 16.0, "max abs err {err}");
/// ```
#[derive(Debug, Clone)]
pub struct JpegApp {
    mode: JpegMode,
    width: usize,
    height: usize,
    /// `max|C|` over [`dct_matrix`], which sizes the coefficient scales.
    dct_max: f64,
    /// `[1/q, q]` for the Q50 entry `q` at every position of every
    /// block, `[blocks · 8, 8]`: the quantize and dequantize constants.
    q50: [Tensor; 2],
}

impl JpegApp {
    /// Create a JPEG application for 32×32 inputs.
    pub fn new(mode: JpegMode) -> Self {
        let (width, height) = (32, 32);
        let tiled = |f: fn(f64) -> f64| {
            let data = Q50.iter().cycle().take(width * height).map(|&q| f(q)).collect();
            Tensor::from_vec(data, &[width * height / BLOCK, BLOCK])
        };
        let q50 = [tiled(|q| 1.0 / q), tiled(|q| q)];
        JpegApp { mode, width, height, dct_max: dct_matrix().max_abs(), q50 }
    }

    /// The stage layout.
    pub fn mode(&self) -> JpegMode {
        self.mode
    }

    fn stage(&self, logical: usize) -> usize {
        match self.mode {
            JpegMode::Single => 0,
            JpegMode::ThreeStage => logical,
        }
    }

    /// Coefficient up-scale exponent `s` (coefficients are `C · 2^s`),
    /// shared by the forward and inverse DCT matrices.
    ///
    /// Single mode adapts to the multiplier's operand range (the paper's
    /// per-multiplier `2^m` scaling); three-stage mode pins the scale to
    /// the shared 8-bit coefficient convention because the same
    /// coefficients must serve whichever multiplier each gate samples.
    fn coeff_scale(&self, mults: &[Arc<dyn Multiplier>]) -> i32 {
        let hi = match self.mode {
            JpegMode::Single => mults[0].operand_range().1,
            JpegMode::ThreeStage => COEFF_CAP,
        };
        coeff_upscale(self.dct_max, hi) as i32
    }

    /// Coefficient bounds for a stage's multiplier, capped at the shared
    /// convention in three-stage mode.
    fn bound_for(&self, mult: &Arc<dyn Multiplier>) -> (f64, f64) {
        let (lo, hi) = mult.operand_range();
        match self.mode {
            JpegMode::Single => (lo as f64, hi as f64),
            JpegMode::ThreeStage => ((lo.max(-COEFF_CAP)) as f64, (hi.min(COEFF_CAP)) as f64),
        }
    }

    fn check_sample(&self, img: &GrayImage) {
        assert_eq!(
            (img.width(), img.height()),
            (self.width, self.height),
            "jpeg: expected {}x{} input",
            self.width,
            self.height
        );
        assert!(
            self.width.is_multiple_of(BLOCK) && self.height.is_multiple_of(BLOCK),
            "image dimensions must be multiples of {BLOCK}"
        );
    }

    /// The image's 8×8 blocks stacked into `[blocks · 8, 8]`: blocks in
    /// raster order, each row-major, every pixel mapped through `f` —
    /// one pass over row slices.
    fn blocks(&self, img: &GrayImage, f: impl Fn(f64) -> f64) -> Tensor {
        Tensor::build(&[self.width * self.height / BLOCK, BLOCK], |buf| {
            for band in img.pixels().chunks_exact(self.width * BLOCK) {
                for bx in 0..self.width / BLOCK {
                    for row in band.chunks_exact(self.width) {
                        buf.extend(row[bx * BLOCK..][..BLOCK].iter().map(|&p| f(p)));
                    }
                }
            }
        })
    }
}

impl Kernel for JpegApp {
    type Sample = GrayImage;

    fn name(&self) -> &str {
        "jpeg-dct"
    }

    fn num_stages(&self) -> usize {
        match self.mode {
            JpegMode::Single => 1,
            JpegMode::ThreeStage => 3,
        }
    }

    fn stage_names(&self) -> Vec<String> {
        match self.mode {
            JpegMode::Single => vec!["pipeline".to_owned()],
            JpegMode::ThreeStage => {
                vec!["dct".to_owned(), "dequant".to_owned(), "idct".to_owned()]
            }
        }
    }

    fn metric(&self) -> Metric {
        Metric::Psnr
    }

    fn adapt(&self, mult: &Arc<dyn Multiplier>) -> Arc<dyn Multiplier> {
        // DCT coefficients and intermediate values are signed.
        adapt_unit(mult, Signedness::Signed)
    }

    fn init_coeffs(&self, mults: &[Arc<dyn Multiplier>]) -> Vec<Tensor> {
        assert_eq!(mults.len(), self.num_stages(), "need one multiplier per stage");
        let s = self.coeff_scale(mults);
        let c = dct_matrix().map(|v| (v * 2f64.powi(s)).round());
        vec![c.clone(), c]
    }

    fn coeff_bounds(&self, mults: &[Arc<dyn Multiplier>]) -> Vec<(f64, f64)> {
        assert_eq!(mults.len(), self.num_stages(), "need one multiplier per stage");
        vec![
            self.bound_for(&mults[self.stage(0)]),
            self.bound_for(&mults[self.stage(2.min(mults.len() - 1))]),
        ]
    }

    fn forward_approx(
        &self,
        graph: &Graph,
        sample: &Self::Sample,
        coeffs: &[Var],
        mults: &[Arc<dyn Multiplier>],
    ) -> Var {
        self.check_sample(sample);
        assert_eq!(coeffs.len(), 2, "jpeg has forward and inverse DCT coefficient matrices");
        assert_eq!(mults.len(), self.num_stages(), "need one multiplier per stage");

        let bounds = self.coeff_bounds(mults);
        let s = self.coeff_scale(mults);

        let c_fwd = coeffs[0].quantize_ste(bounds[0].0, bounds[0].1);
        let c_inv = coeffs[1].quantize_ste(bounds[1].0, bounds[1].1);
        let m_dct = &mults[self.stage(0)];
        let m_deq = &mults[self.stage(1)];
        let m_idct = &mults[self.stage(2.min(mults.len() - 1))];
        let pow2 = |e: i32| 2f64.powi(e);

        // Stage 1: forward DCT, Y = C·X·Cᵀ per block. Pixels pre-shifted
        // into the operand range; |C·X| <= 255 * 8 * max|C| ~ 1020 is
        // fitted for the second product.
        let ps = pixel_shift(&**m_dct) as i32;
        let x = graph.constant(self.blocks(sample, |p| ((p as i64) >> ps) as f64));
        let f1 = fit_shift(1020.0, m_dct.operand_range().1) as i32;
        let y = x.approx_block_transform(
            &c_fwd,
            BlockSide::Forward,
            m_dct,
            [pow2(ps - s), pow2(-f1), pow2(f1 - s)],
        );

        // Stage 2: quantize (exact divide + round, no multiplier), then
        // dequantize on approximate hardware. |K| <= 2040 / 10 ~ 204.
        let [recip_q, q] = self.q50.clone().map(|t| graph.constant(t));
        let k = y.mul_round_ste(&recip_q);
        let f2 = fit_shift(204.0, m_deq.operand_range().1) as i32;
        let yd = k.scale_round_ste(pow2(-f2)).approx_mul_elem_scale(&q, m_deq, pow2(f2));

        // Stage 3: inverse DCT, X' = Cᵀ·Yd·C per block, with
        // |Cᵀ·Yd| <= 8 * 0.5 * 2040 fitted for the second product.
        let hi_idct = m_idct.operand_range().1;
        let (f3, f4) = (fit_shift(2040.0, hi_idct) as i32, fit_shift(8160.0, hi_idct) as i32);
        // The output saturates into [0, 255] inside the IDCT node.
        let out = yd.scale_round_ste(pow2(-f3)).approx_block_transform_clamped(
            &c_inv,
            BlockSide::Inverse,
            m_idct,
            [pow2(f3 - s), pow2(-f4), pow2(f4 - s)],
            (0.0, 255.0),
        );
        out.reshape(&[self.width * self.height])
    }

    fn reference(&self, sample: &Self::Sample) -> Tensor {
        self.check_sample(sample);
        // Accurate branch: float DCT, exact arithmetic, identical
        // quantize/dequantize semantics.
        let c = dct_matrix();
        let ct = c.transpose();
        let mut out = Vec::with_capacity(self.width * self.height);
        for block in self.blocks(sample, |p| p).data().chunks(BLOCK * BLOCK) {
            let x = Tensor::from_vec(block.to_vec(), &[BLOCK, BLOCK]);
            let y = c.matmul(&x).matmul(&ct);
            let k = Tensor::from_vec(
                y.data().iter().zip(Q50.iter()).map(|(&v, &q)| (v / q).round()).collect(),
                &[BLOCK, BLOCK],
            );
            let yd = Tensor::from_vec(
                k.data().iter().zip(Q50.iter()).map(|(&v, &q)| v * q).collect(),
                &[BLOCK, BLOCK],
            );
            let rec = ct.matmul(&yd).matmul(&c);
            out.extend(rec.data().iter().map(|&v| v.round().clamp(0.0, 255.0)));
        }
        let n = out.len();
        Tensor::from_vec(out, &[n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_data::synth_image;
    use lac_hw::catalog;
    use lac_metrics::psnr_255;

    fn run(app: &JpegApp, mult_names: &[&str], img: &GrayImage) -> Vec<f64> {
        let mults: Vec<Arc<dyn Multiplier>> =
            mult_names.iter().map(|n| app.adapt(&catalog::by_name(n).unwrap())).collect();
        let coeffs = app.init_coeffs(&mults);
        let g = Graph::new();
        let vars: Vec<Var> = coeffs.iter().map(|c| g.var(c.clone())).collect();
        app.forward_approx(&g, img, &vars, &mults).value().into_data()
    }

    #[test]
    fn dct_matrix_is_orthonormal() {
        let c = dct_matrix();
        let prod = c.matmul(&c.transpose());
        for i in 0..BLOCK {
            for j in 0..BLOCK {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (prod.data()[i * BLOCK + j] - expect).abs() < 1e-12,
                    "C Cᵀ [{i}{j}] = {}",
                    prod.data()[i * BLOCK + j]
                );
            }
        }
    }

    #[test]
    fn reference_is_a_faithful_jpeg_round_trip() {
        // Q50 JPEG on natural-ish images lands in the 30-50 dB range.
        let img = synth_image(32, 32, 7);
        let app = JpegApp::new(JpegMode::Single);
        let reference = app.reference(&img);
        // Compare against the raw blocks (the "uncompressed" image).
        let raw = app.blocks(&img, |p| p).into_data();
        let p = psnr_255(reference.data(), &raw);
        assert!((25.0..=60.0).contains(&p), "reference JPEG PSNR {p} out of plausible range");
    }

    #[test]
    fn exact_16bit_pipeline_close_to_reference() {
        let img = synth_image(32, 32, 2);
        let app = JpegApp::new(JpegMode::Single);
        let out = run(&app, &["exact16u"], &img);
        let reference = app.reference(&img);
        let p = psnr_255(&out, reference.data());
        assert!(p > 35.0, "integer pipeline PSNR vs reference too low: {p}");
    }

    #[test]
    fn approximate_multiplier_degrades_quality_monotonically() {
        let img = synth_image(32, 32, 3);
        let app = JpegApp::new(JpegMode::Single);
        let reference = app.reference(&img);
        let p_exact = psnr_255(&run(&app, &["exact16u"], &img), reference.data());
        let p_bad = psnr_255(&run(&app, &["mul8u_JV3"], &img), reference.data());
        assert!(
            p_exact > p_bad,
            "exact ({p_exact} dB) should beat mul8u_JV3 ({p_bad} dB)"
        );
    }

    #[test]
    fn three_stage_mode_accepts_mixed_hardware() {
        let img = synth_image(32, 32, 4);
        let app = JpegApp::new(JpegMode::ThreeStage);
        assert_eq!(app.num_stages(), 3);
        assert_eq!(app.stage_names(), vec!["dct", "dequant", "idct"]);
        let out = run(&app, &["DRUM16-6", "mul16s_GK2", "mul16s_GAT"], &img);
        assert_eq!(out.len(), 1024);
        assert!(out.iter().all(|&v| (0.0..=255.0).contains(&v)));
    }

    #[test]
    fn output_block_order_matches_reference_order() {
        let img = synth_image(32, 32, 5);
        let app = JpegApp::new(JpegMode::Single);
        let out = run(&app, &["exact16u"], &img);
        let reference = app.reference(&img).into_data();
        assert_eq!(out.len(), reference.len());
        // Per-element comparability is what PSNR relies on; verify strong
        // agreement element by element for the exact pipeline.
        let close = out
            .iter()
            .zip(&reference)
            .filter(|(a, b)| (**a - **b).abs() <= 8.0)
            .count();
        assert!(close > 1000, "only {close}/1024 elements agree closely");
    }

    #[test]
    fn init_coeffs_are_integral_and_in_range() {
        let app = JpegApp::new(JpegMode::Single);
        let m = app.adapt(&catalog::by_name("mul8u_FTA").unwrap());
        let coeffs = app.init_coeffs(std::slice::from_ref(&m));
        let bounds = app.coeff_bounds(std::slice::from_ref(&m));
        for (c, (lo, hi)) in coeffs.iter().zip(bounds) {
            for &v in c.data() {
                assert_eq!(v, v.round());
                assert!((lo..=hi).contains(&v), "{v} outside [{lo}, {hi}]");
            }
        }
    }
}
