//! The three 3×3 filter applications of Table II: Gaussian blur, Sobel
//! edge detection, and Laplacian image sharpening.
//!
//! Each filter is expressed as nine scalar coefficient taps so the same
//! kernel serves both fixed-hardware training (all taps share one
//! multiplier) and the paper's *parallel multi-hardware NAS* (Section IV),
//! where every tap may use a different multiplier — the paper's own
//! decomposition of convolution into "9 matrix scalar multiplications".
//!
//! Datapath model (both branches, mirroring Section III-B):
//! coefficients are scaled up by a power of two to fill the multiplier's
//! operand range, the convolution accumulates exactly, and the result is
//! bit-shifted back so the maximum output is 255, then post-processed
//! (sharpening adds the original image) and clamped to `[0, 255]`.

use std::sync::Arc;

use lac_hw::{adapt_unit, Multiplier, Signedness};
use lac_tensor::{Epilogue, Graph, Tensor, Var};

use crate::kernel::{pixel_shift, Kernel, Metric};

use lac_data::GrayImage;

/// Which 3×3 filter application to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterKind {
    /// 3×3 Gaussian blur (unsigned coefficients).
    GaussianBlur,
    /// Sobel horizontal-gradient edge detection (signed coefficients).
    EdgeDetection,
    /// Laplacian sharpening: filter output added to the source image
    /// (signed coefficients).
    Sharpening,
}

impl FilterKind {
    /// The base (original) 3×3 coefficients, row-major.
    pub fn base_coeffs(self) -> [f64; 9] {
        match self {
            FilterKind::GaussianBlur => [1.0, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0, 2.0, 1.0],
            FilterKind::EdgeDetection => [-1.0, 0.0, 1.0, -2.0, 0.0, 2.0, -1.0, 0.0, 1.0],
            FilterKind::Sharpening => [0.0, -1.0, 0.0, -1.0, 4.0, -1.0, 0.0, -1.0, 0.0],
        }
    }

    /// Whether the base coefficients contain negative values.
    pub fn is_signed(self) -> bool {
        !matches!(self, FilterKind::GaussianBlur)
    }

    /// Shift that brings the worst-case base filter output back into
    /// `[0, 255]` (the paper's "bit shift chosen such that the maximum of
    /// bit shifted output is 255").
    fn base_shift(self) -> u32 {
        // Worst-case |output| = 255 * (sum of same-sign coefficients).
        let max_gain: f64 = match self {
            FilterKind::GaussianBlur => 16.0,
            FilterKind::EdgeDetection | FilterKind::Sharpening => 4.0,
        };
        max_gain.log2().ceil() as u32
    }

    /// Display name matching the paper's figures.
    pub fn display_name(self) -> &'static str {
        match self {
            FilterKind::GaussianBlur => "gaussian-blur",
            FilterKind::EdgeDetection => "edge-detection",
            FilterKind::Sharpening => "image-sharpening",
        }
    }
}

/// The paper's 8-bit coefficient convention (`[0, 255]` / `[-255, 255]`),
/// used as the shared coefficient cap whenever one coefficient set must
/// serve multipliers of different widths.
const COEFF_CAP: i64 = 255;

/// Stage layout of a [`FilterApp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageMode {
    /// One multiplier for the whole convolution (fixed-hardware LAC and
    /// single-gate NAS).
    Single,
    /// One multiplier per coefficient tap (the paper's parallel
    /// multi-hardware NAS on Gaussian blur: 9 gates).
    PerTap,
}

/// A 3×3 filter application kernel.
///
/// # Examples
///
/// ```
/// use lac_apps::{FilterApp, FilterKind, Kernel, StageMode};
/// use lac_data::synth_image;
/// use lac_hw::catalog;
/// use lac_tensor::Graph;
///
/// let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
/// let mult = app.adapt(&catalog::by_name("exact8u").unwrap());
/// let img = synth_image(32, 32, 1);
///
/// let coeffs = app.init_coeffs(std::slice::from_ref(&mult));
/// let g = Graph::new();
/// let vars: Vec<_> = coeffs.iter().map(|c| g.var(c.clone())).collect();
/// let out = app.forward_approx(&g, &img, &vars, std::slice::from_ref(&mult));
/// // With an exact multiplier the approximate branch reproduces the
/// // reference bit-for-bit.
/// assert_eq!(out.value(), app.reference(&img));
/// ```
#[derive(Debug, Clone)]
pub struct FilterApp {
    kind: FilterKind,
    stage_mode: StageMode,
    width: usize,
    height: usize,
}

impl FilterApp {
    /// Create a filter application for 32×32 inputs.
    pub fn new(kind: FilterKind, stage_mode: StageMode) -> Self {
        FilterApp { kind, stage_mode, width: 32, height: 32 }
    }

    /// The filter variant.
    pub fn kind(&self) -> FilterKind {
        self.kind
    }

    fn stage_of_tap(&self, tap: usize) -> usize {
        match self.stage_mode {
            StageMode::Single => 0,
            StageMode::PerTap => tap,
        }
    }

    /// The output bit shift for a given set of (already quantized)
    /// coefficient taps; see [`output_shift`].
    pub fn output_shift(taps: &[f64]) -> u32 {
        output_shift(taps)
    }

    /// The samples translated by `(dy, dx)` with zero padding and pixels
    /// truncated by `shift` bits (operand-range pre-scaling), stacked
    /// vertically: one `height`-row band per sample, built in one pass
    /// from row slices.
    fn shifted_images(&self, imgs: &[GrayImage], dy: isize, dx: isize, shift: u32) -> Tensor {
        let (w, h) = (self.width, self.height);
        // Output column `x` reads source column `x + dx`: in bounds for
        // `x` in `x_lo..x_hi`, zero padding elsewhere.
        let clip = |v: isize| v.clamp(0, w as isize) as usize;
        let (x_lo, x_hi) = (clip(-dx), clip(w as isize - dx));
        Tensor::build(&[imgs.len() * h, w], |buf| {
            for img in imgs {
                for y in 0..h as isize {
                    let sy = y + dy;
                    if sy < 0 || sy >= h as isize || x_lo >= x_hi {
                        buf.resize(buf.len() + w, 0.0);
                        continue;
                    }
                    let row = &img.pixels()[sy as usize * w..][..w];
                    let src = (x_lo as isize + dx) as usize..(x_hi as isize + dx) as usize;
                    buf.resize(buf.len() + x_lo, 0.0);
                    buf.extend(row[src].iter().map(|&p| ((p as i64) >> shift) as f64));
                    buf.resize(buf.len() + w - x_hi, 0.0);
                }
            }
        })
    }

    /// The approximate branch over samples stacked vertically into
    /// `[n * height, width]`: [`Kernel::forward_approx`] is the stack of
    /// one, and [`Kernel::infer`] runs one stack per chunk.
    ///
    /// Each band is bit-identical to the stack of its sample alone: the
    /// convolution runs the same per-image walk on every band
    /// ([`Var::approx_conv2d_stacked`](lac_tensor::Var::approx_conv2d_stacked)),
    /// and every other step (pre-shift compensation, output shift,
    /// rounding, the sharpening residual add, the final clamp) is
    /// elementwise. Tape and node construction and coefficient
    /// quantization are paid once per stack.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty, a sample is not `width × height`,
    /// or `coeffs`/`mults` do not match the kernel's taps and stages.
    fn forward_stacked(
        &self,
        graph: &Graph,
        samples: &[GrayImage],
        coeffs: &[Var],
        mults: &[Arc<dyn Multiplier>],
    ) -> Var {
        assert!(!samples.is_empty(), "{}: empty stack", self.kind.display_name());
        for sample in samples {
            self.check_sample(sample);
        }
        assert_eq!(coeffs.len(), 9, "filter kernels have nine coefficient taps");
        assert_eq!(mults.len(), self.num_stages(), "need one multiplier per stage");
        let bounds = self.coeff_bounds(mults);

        // The datapath's output shift follows the current quantized taps.
        let quantized: Vec<f64> = coeffs
            .iter()
            .zip(&bounds)
            .map(|(c, &(lo, hi))| c.item().round().clamp(lo, hi))
            .collect();
        let out_shift = 2f64.powi(-(Self::output_shift(&quantized) as i32));
        // Sharpening adds the source image before it saturates.
        let saturate = self.kind != FilterKind::Sharpening;

        let out = match self.stage_mode {
            // One multiplier for all taps: the nine scalar stages compose
            // into a single approximate convolution. Per output pixel the
            // products and their accumulation order are identical to the
            // per-tap formulation (products come from integer models, so
            // skipped zero-padding terms are exact +0.0), and the
            // power-of-two pre-shift compensation commutes exactly — but
            // one conv2d quantizes the image once instead of nine times
            // and rides the multiplier's dense-LUT fast path. The
            // compensation, output shift, round and clamp run inside the
            // conv node ([`Epilogue`]).
            StageMode::Single => {
                let mult = &mults[0];
                let ps = pixel_shift(&**mult);
                let img = graph.constant(self.shifted_images(samples, 0, 0, ps));
                let taps: Vec<Var> = coeffs
                    .iter()
                    .zip(&bounds)
                    .map(|(c, &(lo, hi))| c.quantize_ste(lo, hi))
                    .collect();
                let kernel = lac_tensor::concat(&taps).reshape(&[3, 3]);
                let mut stage = Epilogue::new();
                if ps > 0 {
                    // Compensate the pixel pre-shift exactly.
                    stage = stage.scale(2f64.powi(ps as i32));
                }
                stage = stage.scale(out_shift).rounded();
                if saturate {
                    stage = stage.clamp(0.0, 255.0);
                }
                img.approx_conv2d_fused(&kernel, mult, self.height, stage)
            }
            // Per-tap multipliers (parallel multi-hardware NAS): each tap
            // keeps its own scalar stage.
            StageMode::PerTap => {
                let mut acc: Option<Var> = None;
                for tap in 0..9 {
                    let mult = &mults[self.stage_of_tap(tap)];
                    let ps = pixel_shift(&**mult);
                    let (dy, dx) = (tap as isize / 3 - 1, tap as isize % 3 - 1);
                    let img = graph.constant(self.shifted_images(samples, dy, dx, ps));
                    let (lo, hi) = bounds[tap];
                    let c = coeffs[tap].quantize_ste(lo, hi);
                    let mut term = img.approx_scale(&c, mult);
                    if ps > 0 {
                        // Compensate the pixel pre-shift exactly.
                        term = term.mul_scalar(2f64.powi(ps as i32));
                    }
                    acc = Some(match acc {
                        Some(a) => a.add(&term),
                        None => term,
                    });
                }
                let out = acc.expect("nine taps accumulated").scale_round_ste(out_shift);
                if saturate {
                    out.clamp(0.0, 255.0)
                } else {
                    out
                }
            }
        };
        if saturate {
            return out;
        }
        let original = graph.constant(Tensor::build(
            &[samples.len() * self.height, self.width],
            |buf| samples.iter().for_each(|s| buf.extend_from_slice(s.pixels())),
        ));
        out.add(&original).clamp(0.0, 255.0)
    }

    fn check_sample(&self, img: &GrayImage) {
        assert_eq!(
            (img.width(), img.height()),
            (self.width, self.height),
            "{}: expected {}x{} input",
            self.kind.display_name(),
            self.width,
            self.height,
        );
    }
}

impl Kernel for FilterApp {
    type Sample = GrayImage;

    fn name(&self) -> &str {
        self.kind.display_name()
    }

    fn num_stages(&self) -> usize {
        match self.stage_mode {
            StageMode::Single => 1,
            StageMode::PerTap => 9,
        }
    }

    fn stage_names(&self) -> Vec<String> {
        match self.stage_mode {
            StageMode::Single => vec!["conv".to_owned()],
            StageMode::PerTap => (0..9).map(|t| format!("tap{}{}", t / 3, t % 3)).collect(),
        }
    }

    fn stages_are_parallel(&self) -> bool {
        matches!(self.stage_mode, StageMode::PerTap)
    }

    fn metric(&self) -> Metric {
        Metric::Ssim { width: self.width, height: self.height }
    }

    fn adapt(&self, mult: &Arc<dyn Multiplier>) -> Arc<dyn Multiplier> {
        adapt_unit(mult, natural_signedness(self.kind))
    }

    fn init_coeffs(&self, mults: &[Arc<dyn Multiplier>]) -> Vec<Tensor> {
        assert_eq!(mults.len(), self.num_stages(), "need one multiplier per stage");
        // The unaltered application: the original filter taps. Training
        // may rescale them within the coefficient bounds; the output shift
        // tracks whatever magnitude they take.
        self.kind.base_coeffs().iter().map(|&c| Tensor::scalar(c)).collect()
    }

    fn coeff_bounds(&self, mults: &[Arc<dyn Multiplier>]) -> Vec<(f64, f64)> {
        assert_eq!(mults.len(), self.num_stages(), "need one multiplier per stage");
        (0..9)
            .map(|tap| {
                let (lo, hi) = mults[self.stage_of_tap(tap)].operand_range();
                // The paper's coefficient convention: [0, 255] unsigned,
                // [-255, 255] signed, intersected with the unit's range.
                let (lo, hi) = (lo.max(-COEFF_CAP), hi.min(COEFF_CAP));
                if self.kind.is_signed() {
                    (lo as f64, hi as f64)
                } else {
                    (0.0, hi as f64)
                }
            })
            .collect()
    }

    fn forward_approx(
        &self,
        graph: &Graph,
        sample: &Self::Sample,
        coeffs: &[Var],
        mults: &[Arc<dyn Multiplier>],
    ) -> Var {
        self.forward_stacked(graph, std::slice::from_ref(sample), coeffs, mults)
    }

    /// One stacked pass over the whole chunk, split back into one output
    /// per sample.
    fn infer(
        &self,
        graph: &Graph,
        samples: &[Self::Sample],
        coeffs: &[Tensor],
        mults: &[Arc<dyn Multiplier>],
    ) -> Vec<Vec<f64>> {
        if samples.is_empty() {
            return Vec::new();
        }
        graph.reset();
        let leaves: Vec<Var> = coeffs.iter().map(|c| graph.constant(c.clone())).collect();
        let stacked = self.forward_stacked(graph, samples, &leaves, mults).value();
        stacked.data().chunks(self.height * self.width).map(<[f64]>::to_vec).collect()
    }

    fn reference(&self, sample: &Self::Sample) -> Tensor {
        self.check_sample(sample);
        // The accurate branch: original coefficients, exact multiplies,
        // the base bit shift, post-processing, and the [0, 255] clamp.
        let graph = Graph::new();
        let img = graph.constant(Tensor::from_vec(
            sample.pixels().to_vec(),
            &[self.height, self.width],
        ));
        let kernel = graph.constant(Tensor::from_vec(self.kind.base_coeffs().to_vec(), &[3, 3]));
        let conv = img.conv2d(&kernel);
        let mut out = conv
            .mul_scalar(2f64.powi(-(self.kind.base_shift() as i32)))
            .round_ste();
        if self.kind == FilterKind::Sharpening {
            out = out.add(&img);
        }
        out.clamp(0.0, 255.0).value()
    }
}

/// The output bit shift for a set of (already quantized) coefficient taps
/// — "chosen such that the maximum of bit shifted output is 255"
/// (Section III-B). The worst-case positive output is
/// `255 · Σ(positive taps)` and the worst negative magnitude is
/// `255 · Σ|negative taps|`, so the shift covers the larger gain.
///
/// Recomputing this from the *current* coefficients is what lets LAC
/// rescale taps freely: the datapath shift tracks the coefficient
/// magnitude in both branches. Shared by the 2-D filters and the 1-D FIR
/// extension.
///
/// # Examples
///
/// ```
/// use lac_apps::output_shift;
///
/// // Gaussian blur taps sum to 16: shift 4.
/// assert_eq!(output_shift(&[1.0, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0, 2.0, 1.0]), 4);
/// ```
pub fn output_shift(taps: &[f64]) -> u32 {
    let pos: f64 = taps.iter().filter(|&&t| t > 0.0).sum();
    let neg: f64 = -taps.iter().filter(|&&t| t < 0.0).sum::<f64>();
    let gain = pos.max(neg).max(1.0);
    gain.log2().ceil() as u32
}

/// The paper's signedness note: Gaussian blur uses unsigned multipliers
/// natively; the other two filters require signed capability.
pub fn natural_signedness(kind: FilterKind) -> Signedness {
    if kind.is_signed() {
        Signedness::Signed
    } else {
        Signedness::Unsigned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_data::synth_image;
    use lac_hw::catalog;

    fn exact(spec: &str) -> Arc<dyn Multiplier> {
        catalog::by_spec(spec).unwrap()
    }

    fn run_forward(app: &FilterApp, mult: &Arc<dyn Multiplier>, img: &GrayImage) -> Vec<f64> {
        let m = app.adapt(mult);
        let mults = vec![m; app.num_stages()];
        let coeffs = app.init_coeffs(&mults);
        let g = Graph::new();
        let vars: Vec<Var> = coeffs.iter().map(|c| g.var(c.clone())).collect();
        app.forward_approx(&g, img, &vars, &mults).value().into_data()
    }

    /// Every band of an n-sample stack is bit-identical to the stack of
    /// its sample alone ([`Kernel::forward_approx`]), for every filter
    /// kind, stage mode, and representative hardware: exact, FTA, an ETM
    /// unit whose pixel pre-shift is nonzero, an untabulated 16-bit unit
    /// (built product rows) and a fault-injected unit.
    #[test]
    fn batched_forward_is_bit_identical_to_per_sample_forward() {
        let samples: Vec<GrayImage> = (0..5).map(|s| synth_image(32, 32, s)).collect();
        for kind in [FilterKind::GaussianBlur, FilterKind::EdgeDetection, FilterKind::Sharpening] {
            for mode in [StageMode::Single, StageMode::PerTap] {
                for unit in
                    ["exact8u", "mul8u_FTA", "ETM8-k4", "DRUM16-4", "mul8u_FTA!seed=5,flip=0.05"]
                {
                    let app = FilterApp::new(kind, mode);
                    let m = app.adapt(&exact(unit));
                    let mults = vec![m; app.num_stages()];
                    let coeffs = app.init_coeffs(&mults);
                    for n in [1usize, 2, 5] {
                        let batch = &samples[..n];
                        let g = Graph::new();
                        let vars: Vec<Var> =
                            coeffs.iter().map(|c| g.var(c.clone())).collect();
                        let stacked =
                            app.forward_stacked(&g, batch, &vars, &mults).value().into_data();
                        assert_eq!(stacked.len(), n * 1024);
                        for (band, img) in batch.iter().enumerate() {
                            let single = run_forward(&app, &exact(unit), img);
                            assert_eq!(
                                &stacked[band * 1024..(band + 1) * 1024],
                                &single[..],
                                "{kind:?}/{mode:?}/{unit}: band {band} of {n} diverged"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn exact_hardware_reproduces_reference_for_all_kinds() {
        let img = synth_image(32, 32, 3);
        for kind in [FilterKind::GaussianBlur, FilterKind::EdgeDetection, FilterKind::Sharpening] {
            let app = FilterApp::new(kind, StageMode::Single);
            let out = run_forward(&app, &exact("exact16u"), &img);
            let reference = app.reference(&img).into_data();
            assert_eq!(out, reference, "{kind:?}");
        }
    }

    #[test]
    fn outputs_stay_in_pixel_range() {
        let img = synth_image(32, 32, 9);
        for kind in [FilterKind::GaussianBlur, FilterKind::EdgeDetection, FilterKind::Sharpening] {
            let app = FilterApp::new(kind, StageMode::Single);
            for name in ["mul8u_JV3", "DRUM16-4", "mul8s_1KR3"] {
                let out = run_forward(&app, &exact(name), &img);
                assert!(
                    out.iter().all(|&v| (0.0..=255.0).contains(&v)),
                    "{kind:?} with {name} escaped [0,255]"
                );
            }
        }
    }

    #[test]
    fn approximate_hardware_degrades_blur_output() {
        let img = synth_image(32, 32, 4);
        let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
        let reference = app.reference(&img).into_data();
        let degraded = run_forward(&app, &exact("mul8u_JV3"), &img);
        assert_ne!(degraded, reference);
    }

    #[test]
    fn blur_reference_matches_direct_convolution() {
        // Hand-check one interior pixel of the Gaussian blur reference.
        let img = synth_image(32, 32, 5);
        let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
        let reference = app.reference(&img);
        let k = FilterKind::GaussianBlur.base_coeffs();
        let (x, y) = (10usize, 12usize);
        let mut acc = 0.0;
        for i in 0..3 {
            for j in 0..3 {
                acc += k[i * 3 + j] * img.at(x + j - 1, y + i - 1);
            }
        }
        let expect = (acc / 16.0).round().clamp(0.0, 255.0);
        assert_eq!(reference.data()[y * 32 + x], expect);
    }

    #[test]
    fn per_tap_mode_has_nine_stages() {
        let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::PerTap);
        assert_eq!(app.num_stages(), 9);
        assert_eq!(app.stage_names().len(), 9);
        let img = synth_image(32, 32, 6);
        // Mixed multipliers across taps must still produce valid output.
        let mults: Vec<Arc<dyn Multiplier>> = (0..9)
            .map(|t| {
                app.adapt(&exact(if t % 2 == 0 { "mul8u_FTA" } else { "DRUM16-6" }))
            })
            .collect();
        let coeffs = app.init_coeffs(&mults);
        let g = Graph::new();
        let vars: Vec<Var> = coeffs.iter().map(|c| g.var(c.clone())).collect();
        let out = app.forward_approx(&g, &img, &vars, &mults).value();
        assert!(out.data().iter().all(|&v| (0.0..=255.0).contains(&v)));
    }

    #[test]
    fn signed_kernels_adapt_unsigned_multipliers() {
        let app = FilterApp::new(FilterKind::EdgeDetection, StageMode::Single);
        let adapted = app.adapt(&exact("mul8u_FTA"));
        assert_eq!(adapted.signedness(), Signedness::Signed);
        assert_eq!(adapted.operand_range(), (-255, 255));
        // Blur keeps the unsigned core untouched.
        let blur = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
        assert_eq!(blur.adapt(&exact("mul8u_FTA")).signedness(), Signedness::Unsigned);
    }

    #[test]
    fn coeff_bounds_respect_signedness() {
        let blur = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
        let m = blur.adapt(&exact("mul8s_1KR3"));
        let bounds = blur.coeff_bounds(std::slice::from_ref(&m));
        assert!(bounds.iter().all(|&(lo, hi)| lo == 0.0 && hi == 127.0));

        let edge = FilterApp::new(FilterKind::EdgeDetection, StageMode::Single);
        let m = edge.adapt(&exact("mul8u_FTA"));
        let bounds = edge.coeff_bounds(std::slice::from_ref(&m));
        assert!(bounds.iter().all(|&(lo, hi)| lo == -255.0 && hi == 255.0));
    }

    #[test]
    fn init_coeffs_are_the_unaltered_application() {
        let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
        let m = app.adapt(&exact("exact8u"));
        let coeffs = app.init_coeffs(std::slice::from_ref(&m));
        let values: Vec<f64> = coeffs.iter().map(|c| c.data()[0]).collect();
        assert_eq!(values, FilterKind::GaussianBlur.base_coeffs());
    }

    #[test]
    fn output_shift_matches_base_shift_on_originals() {
        for kind in [FilterKind::GaussianBlur, FilterKind::EdgeDetection, FilterKind::Sharpening] {
            assert_eq!(
                FilterApp::output_shift(&kind.base_coeffs()),
                kind.base_shift(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn output_shift_tracks_rescaled_taps() {
        // Scaling every tap by 2^5 raises the shift by exactly 5, so a
        // uniformly rescaled filter computes the same image.
        let base = FilterKind::GaussianBlur.base_coeffs();
        let scaled: Vec<f64> = base.iter().map(|&c| c * 32.0).collect();
        assert_eq!(
            FilterApp::output_shift(&scaled),
            FilterApp::output_shift(&base) + 5
        );
    }

    #[test]
    #[should_panic(expected = "expected 32x32")]
    fn rejects_wrong_image_size() {
        let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
        let img = synth_image(16, 16, 0);
        app.reference(&img);
    }
}
