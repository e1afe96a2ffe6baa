//! Serving-side entry points: wire identities and request decoding for
//! the application kernels.
//!
//! The `lac-serve` daemon speaks a binary protocol whose requests name a
//! kernel by a one-byte wire code and carry a flat `f64` payload. This
//! module owns the mapping from those wire identities to concrete
//! [`Kernel`] instances ([`ServeApp`]) and the validated decoding of
//! payloads into sample types ([`ServeApp::decode`] — a malformed
//! payload is a per-request error, never a panic). Inference runs in
//! `lac-core` (`ServingModel::infer_mode`), through the same
//! `eval::batch_outputs` loop as evaluation: this crate schedules
//! nothing.

use std::sync::Arc;

use lac_data::{inverse_kinematics, GrayImage, IkSample, LINK1, LINK2};
use lac_hw::Multiplier;
use lac_tensor::Tensor;

use crate::dft::DftApp;
use crate::filters::{FilterApp, FilterKind, StageMode};
use crate::inversek2j::InverseK2jApp;
use crate::jpeg::{JpegApp, JpegMode};
use crate::kernel::Kernel;

/// Side length of the served image kernels' inputs.
pub const SERVE_IMAGE_DIM: usize = 32;

/// A servable application, identified on the wire by a one-byte code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServeApp {
    /// 3×3 Gaussian blur (`blur`, wire code 0).
    Blur,
    /// 3×3 Sobel edge detection (`edge`, wire code 1).
    Edge,
    /// 3×3 Laplacian sharpening (`sharpen`, wire code 2).
    Sharpen,
    /// 8×8 DCT JPEG pipeline (`jpeg`, wire code 3).
    Jpeg,
    /// 12×12 complex DFT (`dft`, wire code 4).
    Dft,
    /// 2-joint inverse kinematics (`inversek2j`, wire code 5).
    InverseK2j,
}

/// One decoded request payload, ready for a kernel's forward pass.
#[derive(Debug, Clone)]
pub enum ServeSample {
    /// A 32×32 grayscale image (blur / edge / sharpen / jpeg / dft).
    Image(GrayImage),
    /// An inverse-kinematics end-effector target.
    Ik(IkSample),
}

/// A concrete single-stage kernel instance behind a [`ServeApp`].
#[derive(Debug, Clone)]
pub enum AppKernel {
    /// One of the three 3×3 filters.
    Filter(FilterApp),
    /// The JPEG/DCT pipeline.
    Jpeg(JpegApp),
    /// The complex DFT.
    Dft(DftApp),
    /// Inverse kinematics.
    InverseK2j(InverseK2jApp),
}

impl ServeApp {
    /// Every servable application, in wire-code order.
    pub const ALL: [ServeApp; 6] = [
        ServeApp::Blur,
        ServeApp::Edge,
        ServeApp::Sharpen,
        ServeApp::Jpeg,
        ServeApp::Dft,
        ServeApp::InverseK2j,
    ];

    /// The one-byte wire code.
    pub fn code(self) -> u8 {
        match self {
            ServeApp::Blur => 0,
            ServeApp::Edge => 1,
            ServeApp::Sharpen => 2,
            ServeApp::Jpeg => 3,
            ServeApp::Dft => 4,
            ServeApp::InverseK2j => 5,
        }
    }

    /// Decode a wire code.
    pub fn from_code(code: u8) -> Option<ServeApp> {
        Self::ALL.into_iter().find(|app| app.code() == code)
    }

    /// The short CLI identifier (`blur`, `edge`, …).
    pub fn cli_id(self) -> &'static str {
        match self {
            ServeApp::Blur => "blur",
            ServeApp::Edge => "edge",
            ServeApp::Sharpen => "sharpen",
            ServeApp::Jpeg => "jpeg",
            ServeApp::Dft => "dft",
            ServeApp::InverseK2j => "inversek2j",
        }
    }

    /// The kernel display name ([`Kernel::name`]) recorded in
    /// checkpoints.
    pub fn kernel_name(self) -> &'static str {
        match self {
            ServeApp::Blur => "gaussian-blur",
            ServeApp::Edge => "edge-detection",
            ServeApp::Sharpen => "image-sharpening",
            ServeApp::Jpeg => "jpeg-dct",
            ServeApp::Dft => "dft",
            ServeApp::InverseK2j => "inversek2j",
        }
    }

    /// Parse either a CLI identifier or a kernel display name.
    pub fn parse(name: &str) -> Option<ServeApp> {
        Self::ALL
            .into_iter()
            .find(|app| app.cli_id() == name || app.kernel_name() == name)
    }

    /// Number of `f64` values an inference payload must carry.
    pub fn payload_len(self) -> usize {
        match self {
            ServeApp::InverseK2j => 2,
            _ => SERVE_IMAGE_DIM * SERVE_IMAGE_DIM,
        }
    }

    /// Number of `f64` values in an inference response.
    pub fn output_len(self) -> usize {
        match self {
            ServeApp::Blur | ServeApp::Edge | ServeApp::Sharpen | ServeApp::Jpeg => {
                SERVE_IMAGE_DIM * SERVE_IMAGE_DIM
            }
            // Real and imaginary parts of the 12×12 spectrum.
            ServeApp::Dft => 2 * 12 * 12,
            // (θ₁, θ₂).
            ServeApp::InverseK2j => 2,
        }
    }

    /// Construct the kernel instance this app serves.
    pub fn build(self) -> AppKernel {
        match self {
            ServeApp::Blur => {
                AppKernel::Filter(FilterApp::new(FilterKind::GaussianBlur, StageMode::Single))
            }
            ServeApp::Edge => {
                AppKernel::Filter(FilterApp::new(FilterKind::EdgeDetection, StageMode::Single))
            }
            ServeApp::Sharpen => {
                AppKernel::Filter(FilterApp::new(FilterKind::Sharpening, StageMode::Single))
            }
            ServeApp::Jpeg => AppKernel::Jpeg(JpegApp::new(JpegMode::Single)),
            ServeApp::Dft => AppKernel::Dft(DftApp::new()),
            ServeApp::InverseK2j => AppKernel::InverseK2j(InverseK2jApp::new()),
        }
    }

    /// Validate and decode a flat payload into this app's sample type.
    ///
    /// Every malformed payload — wrong length, non-finite or out-of-range
    /// pixels, an unreachable kinematics target — is a structured error
    /// naming what was wrong, so a bad request can be answered with an
    /// error frame instead of unwinding a server thread.
    pub fn decode(self, values: &[f64]) -> Result<ServeSample, String> {
        let want = self.payload_len();
        if values.len() != want {
            return Err(format!(
                "{}: payload holds {} values, expected {want}",
                self.cli_id(),
                values.len()
            ));
        }
        match self {
            ServeApp::InverseK2j => {
                let (x, y) = (values[0], values[1]);
                if !x.is_finite() || !y.is_finite() {
                    return Err(format!("inversek2j: non-finite target ({x}, {y})"));
                }
                // Reachability guard: inverse_kinematics panics outside
                // the annulus, so refuse those targets here.
                let c2 = (x * x + y * y - LINK1 * LINK1 - LINK2 * LINK2) / (2.0 * LINK1 * LINK2);
                if !(-1.0 - 1e-9..=1.0 + 1e-9).contains(&c2) {
                    return Err(format!(
                        "inversek2j: target ({x}, {y}) outside the reachable annulus"
                    ));
                }
                let (theta1, theta2) = inverse_kinematics(x, y);
                Ok(ServeSample::Ik(IkSample { x, y, theta1, theta2 }))
            }
            _ => {
                if let Some(p) = values.iter().find(|p| !(0.0..=255.0).contains(*p)) {
                    return Err(format!(
                        "{}: pixel value {p} outside [0, 255]",
                        self.cli_id()
                    ));
                }
                Ok(ServeSample::Image(GrayImage::from_pixels(
                    SERVE_IMAGE_DIM,
                    SERVE_IMAGE_DIM,
                    values.to_vec(),
                )))
            }
        }
    }
}

impl AppKernel {
    /// The kernel display name.
    pub fn name(&self) -> &str {
        match self {
            AppKernel::Filter(app) => app.name(),
            AppKernel::Jpeg(app) => app.name(),
            AppKernel::Dft(app) => app.name(),
            AppKernel::InverseK2j(app) => app.name(),
        }
    }

    /// The unit the kernel's ops run on ([`Kernel::adapt`]).
    pub fn adapt(&self, mult: &Arc<dyn Multiplier>) -> Arc<dyn Multiplier> {
        match self {
            AppKernel::Filter(app) => app.adapt(mult),
            AppKernel::Jpeg(app) => app.adapt(mult),
            AppKernel::Dft(app) => app.adapt(mult),
            AppKernel::InverseK2j(app) => app.adapt(mult),
        }
    }

    /// Initial coefficient tensors under the given per-stage multipliers.
    pub fn init_coeffs(&self, mults: &[Arc<dyn Multiplier>]) -> Vec<Tensor> {
        match self {
            AppKernel::Filter(app) => app.init_coeffs(mults),
            AppKernel::Jpeg(app) => app.init_coeffs(mults),
            AppKernel::Dft(app) => app.init_coeffs(mults),
            AppKernel::InverseK2j(app) => app.init_coeffs(mults),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_data::synth_image;

    #[test]
    fn codes_and_names_round_trip() {
        for app in ServeApp::ALL {
            assert_eq!(ServeApp::from_code(app.code()), Some(app));
            assert_eq!(ServeApp::parse(app.cli_id()), Some(app));
            assert_eq!(ServeApp::parse(app.kernel_name()), Some(app));
            assert_eq!(app.build().name(), app.kernel_name());
        }
        assert_eq!(ServeApp::from_code(6), None);
        assert_eq!(ServeApp::parse("no-such-kernel"), None);
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        assert!(ServeApp::Blur.decode(&[0.0; 3]).unwrap_err().contains("expected 1024"));
        let mut px = vec![0.0; 1024];
        px[17] = 256.0;
        assert!(ServeApp::Blur.decode(&px).unwrap_err().contains("outside [0, 255]"));
        px[17] = f64::NAN;
        assert!(ServeApp::Blur.decode(&px).is_err());
        assert!(ServeApp::InverseK2j
            .decode(&[2.0, 2.0])
            .unwrap_err()
            .contains("reachable annulus"));
        assert!(ServeApp::InverseK2j.decode(&[f64::INFINITY, 0.0]).is_err());
    }

    #[test]
    fn decode_accepts_valid_payloads() {
        let img = synth_image(32, 32, 3);
        match ServeApp::Jpeg.decode(img.pixels()).unwrap() {
            ServeSample::Image(decoded) => assert_eq!(decoded, img),
            other => panic!("expected image, got {other:?}"),
        }
        match ServeApp::InverseK2j.decode(&[0.5, 0.3]).unwrap() {
            ServeSample::Ik(ik) => {
                let (x, y) = lac_data::forward_kinematics(ik.theta1, ik.theta2);
                assert!((x - 0.5).abs() < 1e-9 && (y - 0.3).abs() < 1e-9);
            }
            other => panic!("expected ik sample, got {other:?}"),
        }
    }
}
