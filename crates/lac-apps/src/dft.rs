//! The 12×12 complex Discrete Fourier Transform application (Table II).
//!
//! The paper applies a 12×12 DFT matrix along both axes of the input
//! ("DFT is performed twice on the x and y axes"), scales the complex
//! coefficients by `2^m` into the multiplier range, and scores PSNR
//! between the approximate and accurate spectra.
//!
//! This kernel transforms the central 12×12 tile of each input image:
//! `F = W · X · Wᵀ` with `W[j,k] = exp(-2πi·jk/12)`, realized as real
//! matmuls on the approximate hardware (a complex product is four real
//! products). The output vector is the concatenation of the real and
//! imaginary parts of `F`, scaled down to the natural DFT range.

use std::sync::Arc;

use lac_hw::{adapt_unit, Multiplier, Signedness};
use lac_tensor::{concat, Graph, Tensor, Var};

use crate::kernel::{coeff_upscale, fit_shift, pixel_shift, Kernel, Metric};

use lac_data::GrayImage;

/// Transform size.
pub const N: usize = 12;

/// Real and imaginary parts of the `N × N` DFT matrix.
pub fn dft_matrices() -> (Tensor, Tensor) {
    let mut re = Tensor::zeros(&[N, N]);
    let mut im = Tensor::zeros(&[N, N]);
    for j in 0..N {
        for k in 0..N {
            let angle = -2.0 * std::f64::consts::PI * (j * k) as f64 / N as f64;
            re.data_mut()[j * N + k] = angle.cos();
            im.data_mut()[j * N + k] = angle.sin();
        }
    }
    (re, im)
}

/// The 12×12 complex DFT application kernel (single hardware stage).
///
/// # Examples
///
/// ```
/// use lac_apps::{DftApp, Kernel};
/// use lac_data::synth_image;
/// use lac_hw::catalog;
/// use lac_tensor::Graph;
///
/// let app = DftApp::new();
/// let mult = app.adapt(&catalog::by_name("exact16u").unwrap());
/// let mults = vec![mult];
/// let img = synth_image(32, 32, 1);
/// let coeffs = app.init_coeffs(&mults);
/// let g = Graph::new();
/// let vars: Vec<_> = coeffs.iter().map(|c| g.var(c.clone())).collect();
/// let out = app.forward_approx(&g, &img, &vars, &mults);
/// assert_eq!(out.value().len(), 2 * 12 * 12); // real + imaginary
/// ```
#[derive(Debug, Clone)]
pub struct DftApp {
    width: usize,
    height: usize,
}

impl Default for DftApp {
    fn default() -> Self {
        Self::new()
    }
}

impl DftApp {
    /// Create a DFT application for 32×32 inputs.
    pub fn new() -> Self {
        DftApp { width: 32, height: 32 }
    }

    fn check_sample(&self, img: &GrayImage) {
        assert_eq!(
            (img.width(), img.height()),
            (self.width, self.height),
            "dft: expected {}x{} input",
            self.width,
            self.height
        );
        assert!(self.width >= N && self.height >= N, "image smaller than the DFT tile");
    }

    /// Central `N × N` tile of the image, pixels pre-shifted by `shift`,
    /// built in one pass from row slices.
    fn tile(&self, img: &GrayImage, shift: u32) -> Tensor {
        let (x0, y0) = ((self.width - N) / 2, (self.height - N) / 2);
        Tensor::build(&[N, N], |buf| {
            for row in img.pixels().chunks_exact(self.width).skip(y0).take(N) {
                buf.extend(row[x0..x0 + N].iter().map(|&p| ((p as i64) >> shift) as f64));
            }
        })
    }
}

impl Kernel for DftApp {
    type Sample = GrayImage;

    fn name(&self) -> &str {
        "dft"
    }

    fn metric(&self) -> Metric {
        Metric::Psnr
    }

    fn adapt(&self, mult: &Arc<dyn Multiplier>) -> Arc<dyn Multiplier> {
        adapt_unit(mult, Signedness::Signed)
    }

    fn init_coeffs(&self, mults: &[Arc<dyn Multiplier>]) -> Vec<Tensor> {
        assert_eq!(mults.len(), 1, "dft is a single-stage kernel");
        let (_, hi) = mults[0].operand_range();
        let s = coeff_upscale(1.0, hi);
        let (re, im) = dft_matrices();
        vec![
            re.map(|v| (v * 2f64.powi(s as i32)).round()),
            im.map(|v| (v * 2f64.powi(s as i32)).round()),
        ]
    }

    fn coeff_bounds(&self, mults: &[Arc<dyn Multiplier>]) -> Vec<(f64, f64)> {
        assert_eq!(mults.len(), 1, "dft is a single-stage kernel");
        let (lo, hi) = mults[0].operand_range();
        vec![(lo as f64, hi as f64), (lo as f64, hi as f64)]
    }

    fn forward_approx(
        &self,
        graph: &Graph,
        sample: &Self::Sample,
        coeffs: &[Var],
        mults: &[Arc<dyn Multiplier>],
    ) -> Var {
        self.check_sample(sample);
        assert_eq!(coeffs.len(), 2, "dft has real and imaginary coefficient matrices");
        assert_eq!(mults.len(), 1, "dft is a single-stage kernel");
        let m = &mults[0];
        let (_, hi) = m.operand_range();
        let s = coeff_upscale(1.0, hi);
        let ps = pixel_shift(&**m);

        let bounds = self.coeff_bounds(mults);
        let wr = coeffs[0].quantize_ste(bounds[0].0, bounds[0].1);
        let wi = coeffs[1].quantize_ste(bounds[1].0, bounds[1].1);

        let x = graph.constant(self.tile(sample, ps));

        // T = W · X (X real): one complex column transform.
        let down = 2f64.powi(ps as i32 - s as i32);
        let tr = wr.approx_matmul_scale_round(&x, m, down);
        let ti = wi.approx_matmul_scale_round(&x, m, down);

        // |T| <= N * 255 = 3060; fit into the operand range for the second
        // transform, where T is the data port.
        let f = fit_shift((N * 255) as f64, hi);
        let tr2 = tr.scale_round_ste(2f64.powi(-(f as i32)));
        let ti2 = ti.scale_round_ste(2f64.powi(-(f as i32)));

        // F = T · Wᵀ (complex product, four real matmuls).
        let up = 2f64.powi(f as i32 - s as i32);
        let wr_t = wr.transpose();
        let wi_t = wi.transpose();
        let fr = tr2
            .approx_matmul(&wr_t, m)
            .sub(&ti2.approx_matmul(&wi_t, m))
            .mul_scalar(up);
        let fi = tr2
            .approx_matmul(&wi_t, m)
            .add(&ti2.approx_matmul(&wr_t, m))
            .mul_scalar(up);

        // Scale the spectrum into a pixel-comparable range (the paper's
        // 2^-2m normalization after two transforms): divide by N so the DC
        // term is N * mean <= 3060 / 12 = 255.
        let norm = 1.0 / N as f64;
        concat(&[fr.mul_scalar(norm), fi.mul_scalar(norm)])
    }

    fn reference(&self, sample: &Self::Sample) -> Tensor {
        self.check_sample(sample);
        let x = self.tile(sample, 0);
        let (wr, wi) = dft_matrices();
        // T = W X.
        let tr = wr.matmul(&x);
        let ti = wi.matmul(&x);
        // F = T Wᵀ.
        let wr_t = wr.transpose();
        let wi_t = wi.transpose();
        let fr = tr.matmul(&wr_t).zip_map(&ti.matmul(&wi_t), |a, b| a - b);
        let fi = tr.matmul(&wi_t).zip_map(&ti.matmul(&wr_t), |a, b| a + b);
        let norm = 1.0 / N as f64;
        let mut out = Vec::with_capacity(2 * N * N);
        out.extend(fr.data().iter().map(|&v| v * norm));
        out.extend(fi.data().iter().map(|&v| v * norm));
        let len = out.len();
        Tensor::from_vec(out, &[len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_data::synth_image;
    use lac_hw::catalog;
    use lac_metrics::psnr_255;

    fn run(app: &DftApp, name: &str, img: &GrayImage) -> Vec<f64> {
        let m = app.adapt(&catalog::by_name(name).unwrap());
        let mults = vec![m];
        let coeffs = app.init_coeffs(&mults);
        let g = Graph::new();
        let vars: Vec<Var> = coeffs.iter().map(|c| g.var(c.clone())).collect();
        app.forward_approx(&g, img, &vars, &mults).value().into_data()
    }

    #[test]
    fn dft_matrices_satisfy_unitarity() {
        // W · conj(W)ᵀ = N · I for the DFT matrix.
        let (re, im) = dft_matrices();
        let rr = re.matmul(&re.transpose());
        let ii = im.matmul(&im.transpose());
        for i in 0..N {
            for j in 0..N {
                let real = rr.data()[i * N + j] + ii.data()[i * N + j];
                let expect = if i == j { N as f64 } else { 0.0 };
                assert!((real - expect).abs() < 1e-9, "[{i}{j}] = {real}");
            }
        }
    }

    #[test]
    fn reference_dc_term_is_scaled_sum() {
        let img = synth_image(32, 32, 2);
        let app = DftApp::new();
        let reference = app.reference(&img);
        let tile = app.tile(&img, 0);
        let expect = tile.sum() / N as f64;
        assert!((reference.data()[0] - expect).abs() < 1e-9);
        // DC imaginary part is zero.
        assert!(reference.data()[N * N].abs() < 1e-9);
    }

    #[test]
    fn exact_16bit_matches_reference_closely() {
        let img = synth_image(32, 32, 3);
        let app = DftApp::new();
        let out = run(&app, "exact16u", &img);
        let reference = app.reference(&img);
        let p = psnr_255(&out, reference.data());
        assert!(p > 35.0, "integer DFT PSNR vs reference too low: {p}");
    }

    #[test]
    fn cheap_multiplier_is_worse_than_exact() {
        let img = synth_image(32, 32, 4);
        let app = DftApp::new();
        let reference = app.reference(&img);
        let p_exact = psnr_255(&run(&app, "exact16u", &img), reference.data());
        let p_bad = psnr_255(&run(&app, "mul8u_JV3", &img), reference.data());
        assert!(p_exact > p_bad, "{p_exact} vs {p_bad}");
    }

    #[test]
    fn coefficients_are_signed_and_in_range() {
        let app = DftApp::new();
        let m = app.adapt(&catalog::by_name("mul8u_FTA").unwrap());
        let mults = vec![m];
        let coeffs = app.init_coeffs(&mults);
        let (lo, hi) = app.coeff_bounds(&mults)[0];
        assert!(coeffs[1].data().iter().any(|&v| v < 0.0), "imag part must contain negatives");
        for c in &coeffs {
            for &v in c.data() {
                assert!((lo..=hi).contains(&v));
            }
        }
    }
}
