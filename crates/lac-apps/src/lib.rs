//! Parameterizable application kernels for Learned Approximate Computing.
//!
//! This crate implements every application of Table II of the LAC paper as
//! a [`Kernel`]: a dual-branch computation with a differentiable
//! *approximate branch* (multiplications on behavioral approximate-hardware
//! models, coefficients trainable through straight-through quantization)
//! and an exact *accurate branch* that provides the training target.
//!
//! | Application | Kernel | Coefficients | Metric |
//! |---|---|---|---|
//! | Gaussian blur | [`FilterApp`] | 3×3 (unsigned) | SSIM |
//! | Edge detection (Sobel) | [`FilterApp`] | 3×3 (signed) | SSIM |
//! | Image sharpening (Laplacian) | [`FilterApp`] | 3×3 (signed) | SSIM |
//! | JPEG / DCT (Q50) | [`JpegApp`] | 2 × 8×8 | PSNR |
//! | DFT | [`DftApp`] | 2 × 12×12 (complex) | PSNR |
//! | Inversek2j | [`InverseK2jApp`] | 4 | relative error |
//! | CNN classifier | [`CnnApp`] | 2 × 3×3 + 4×256 | accuracy |
//!
//! # Quick start
//!
//! ```
//! use lac_apps::{FilterApp, FilterKind, Kernel, StageMode};
//! use lac_data::synth_image;
//! use lac_hw::catalog;
//! use lac_tensor::Graph;
//!
//! let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
//! let mult = app.adapt(&catalog::by_name("DRUM16-4").unwrap());
//! let mults = vec![mult];
//!
//! let img = synth_image(32, 32, 0);
//! let coeffs = app.init_coeffs(&mults);
//! let g = Graph::new();
//! let vars: Vec<_> = coeffs.iter().map(|c| g.var(c.clone())).collect();
//! let out = app.forward_approx(&g, &img, &vars, &mults);
//! assert_eq!(out.value().len(), 32 * 32);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cnn;
mod dft;
mod filters;
mod fir;
mod inversek2j;
mod jpeg;
mod kernel;
pub mod serving;

pub use cnn::{CnnApp, TARGET_SCORE};
pub use dft::{dft_matrices, DftApp, N as DFT_SIZE};
pub use filters::{natural_signedness, output_shift, FilterApp, FilterKind, StageMode};
pub use fir::{FirApp, FirKind, FirStageMode};
pub use inversek2j::InverseK2jApp;
pub use jpeg::{dct_matrix, JpegApp, JpegMode, BLOCK as DCT_BLOCK, Q50};
pub use kernel::{coeff_upscale, fit_shift, pixel_shift, Kernel, Metric};
pub use serving::{AppKernel, ServeApp, ServeSample};
