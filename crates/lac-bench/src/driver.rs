//! What a sweep cell runs on: the six paper applications ([`AppId`]), the
//! two multi-gate pipelines ([`MultiPipeline`]) and the CNN classifier's
//! sizing ([`cnn_sizing`]), with the NAS iteration budget.
//!
//! These are names and sizings only. The scheduler ([`crate::sched`])
//! turns each [`crate::sched::UnitJob`] into its kernel, dataset and base
//! training config and runs it through one cell body; experiment
//! binaries declare jobs and never build kernels for a sweep themselves
//! (enforced by `scripts/verify.sh`).

use lac_apps::{Metric, IMAGE_DIM};

use crate::Sizing;

/// The six applications of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppId {
    /// Gaussian blur (3×3, unsigned, SSIM).
    Blur,
    /// Sobel edge detection (3×3, signed, SSIM).
    Edge,
    /// Laplacian sharpening (3×3, signed, SSIM).
    Sharpen,
    /// JPEG compression through the 8×8 DCT (PSNR).
    Jpeg,
    /// 12×12 complex DFT (PSNR).
    Dft,
    /// Inversek2j (relative error).
    Ik,
}

impl AppId {
    /// All six applications in the paper's figure order.
    pub fn all() -> [AppId; 6] {
        [AppId::Blur, AppId::Edge, AppId::Sharpen, AppId::Jpeg, AppId::Dft, AppId::Ik]
    }

    /// Display name matching the paper's sub-figure captions.
    pub fn display(self) -> &'static str {
        match self {
            AppId::Blur => "gaussian-blur",
            AppId::Edge => "edge-detection",
            AppId::Sharpen => "image-sharpening",
            AppId::Jpeg => "jpeg-dct",
            AppId::Dft => "dft",
            AppId::Ik => "inversek2j",
        }
    }

    /// Parse either the display name or the short CLI name.
    pub fn parse(name: &str) -> Option<AppId> {
        match name {
            "gaussian-blur" | "blur" => Some(AppId::Blur),
            "edge-detection" | "edge" => Some(AppId::Edge),
            "image-sharpening" | "sharpen" => Some(AppId::Sharpen),
            "jpeg-dct" | "jpeg" => Some(AppId::Jpeg),
            "dft" => Some(AppId::Dft),
            "inversek2j" | "ik" => Some(AppId::Ik),
            _ => None,
        }
    }

    /// The application's quality metric label.
    pub fn metric_label(self) -> &'static str {
        match self {
            AppId::Blur | AppId::Edge | AppId::Sharpen => "SSIM",
            AppId::Jpeg | AppId::Dft => "PSNR(dB)",
            AppId::Ik => "rel-err",
        }
    }

    /// Default sizing and learning rate per application.
    pub fn sizing(self) -> (Sizing, f64) {
        match self {
            AppId::Blur | AppId::Edge | AppId::Sharpen => (Sizing::images(240, 16), 2.0),
            AppId::Jpeg => (Sizing::images(160, 8), 2.0),
            AppId::Dft => (Sizing::images(120, 16), 2.0),
            AppId::Ik => (Sizing::ik(120, 64), 50.0),
        }
    }

    /// The metric object of the kernel (for direction checks).
    pub fn metric(self) -> Metric {
        match self {
            AppId::Blur | AppId::Edge | AppId::Sharpen => {
                Metric::Ssim { width: IMAGE_DIM, height: IMAGE_DIM }
            }
            AppId::Jpeg | AppId::Dft => Metric::Psnr,
            AppId::Ik => Metric::RelativeError,
        }
    }
}

/// The two multi-hardware pipelines of Figs. 11–12 / Table IV: one gate
/// per stage instead of one shared unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiPipeline {
    /// Gaussian blur with one gate per kernel tap (9 gates, Fig. 11).
    BlurPerTap,
    /// JPEG with one gate per pipeline stage (dct/dequant/idct, Fig. 12).
    Jpeg3Stage,
}

impl MultiPipeline {
    /// The single-gate application this pipeline refines (sizing source).
    pub fn app_id(self) -> AppId {
        match self {
            MultiPipeline::BlurPerTap => AppId::Blur,
            MultiPipeline::Jpeg3Stage => AppId::Jpeg,
        }
    }

    /// Stable token for job keys and sweep details.
    pub fn token(self) -> &'static str {
        match self {
            MultiPipeline::BlurPerTap => "blur-per-tap",
            MultiPipeline::Jpeg3Stage => "jpeg-3stage",
        }
    }

    /// Number of independently gated stages (the `n` of the `k^n`
    /// brute-force estimate in Table IV).
    pub fn num_stages(self) -> usize {
        match self {
            MultiPipeline::BlurPerTap => 9,
            MultiPipeline::Jpeg3Stage => 3,
        }
    }
}

/// NAS iteration budget: a multiple of the fixed-training epochs, since
/// each iteration trains only the two sampled paths (the paper's NAS runs
/// used roughly a third of the brute-force budget; this keeps the best
/// path trained enough to compare against dedicated training).
pub const NAS_EPOCH_FACTOR: usize = 3;

/// Sizing and learning rate for the CNN classifier workload (96/32
/// samples matching `CnnDataset::paper_split`). 160 epochs saturate the
/// per-unit accuracies (40 epochs leave every unit undertrained and the
/// frontier ranking noisy).
pub fn cnn_sizing() -> (Sizing, f64) {
    (Sizing::cnn(160, 8), 2.0)
}

#[cfg(test)]
mod tests {
    use lac_apps::{FilterApp, FilterKind, JpegApp, JpegMode, Kernel, StageMode};

    use super::*;

    #[test]
    fn app_ids_enumerate_table2() {
        assert_eq!(AppId::all().len(), 6);
        let names: Vec<&str> = AppId::all().iter().map(|a| a.display()).collect();
        assert!(names.contains(&"jpeg-dct"));
        assert!(names.contains(&"inversek2j"));
    }

    #[test]
    fn app_ids_parse_both_spellings() {
        for app in AppId::all() {
            assert_eq!(AppId::parse(app.display()), Some(app));
        }
        assert_eq!(AppId::parse("blur"), Some(AppId::Blur));
        assert_eq!(AppId::parse("ik"), Some(AppId::Ik));
        assert_eq!(AppId::parse("warp"), None);
    }

    #[test]
    fn metric_labels_match_directions() {
        use lac_metrics::MetricDirection;
        for app in AppId::all() {
            let d = app.metric().direction();
            match app {
                AppId::Ik => assert_eq!(d, MetricDirection::LowerIsBetter),
                _ => assert_eq!(d, MetricDirection::HigherIsBetter),
            }
        }
    }

    #[test]
    fn pipelines_map_to_their_apps() {
        assert_eq!(MultiPipeline::BlurPerTap.app_id(), AppId::Blur);
        assert_eq!(MultiPipeline::Jpeg3Stage.app_id(), AppId::Jpeg);
        assert_ne!(MultiPipeline::BlurPerTap.token(), MultiPipeline::Jpeg3Stage.token());
        // The advertised stage counts must match the actual kernels.
        let blur = FilterApp::new(FilterKind::GaussianBlur, StageMode::PerTap);
        assert_eq!(MultiPipeline::BlurPerTap.num_stages(), blur.num_stages());
        let jpeg = JpegApp::new(JpegMode::ThreeStage);
        assert_eq!(MultiPipeline::Jpeg3Stage.num_stages(), jpeg.num_stages());
    }
}
