//! A 1-D FIR filtering application — an extension beyond the paper's
//! Table II, exercising LAC on audio-style signal processing (the domain
//! of the coefficient-perturbation prior work the paper cites, e.g.
//! Bonetti et al. on low-power FIR filters).
//!
//! The kernel mirrors the 2-D filter applications: integer taps,
//! approximate multiplies, exact accumulation, and a power-of-two output
//! shift tracking the taps' gain. Quality is PSNR against the accurate
//! branch.

use std::sync::Arc;

use lac_hw::{adapt_unit, Multiplier, Signedness};
use lac_tensor::{Graph, Tensor, Var};

use crate::filters::output_shift;
use crate::kernel::{pixel_shift, Kernel, Metric};

/// The paper-style 8-bit coefficient convention shared across mixed-width
/// candidates in per-tap mode.
const COEFF_CAP: i64 = 255;

/// Which FIR application to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirKind {
    /// 9-tap triangular low-pass (unsigned taps, gain 64).
    LowPass9,
    /// 5-tap sharpening high-boost (signed taps).
    HighBoost5,
}

impl FirKind {
    /// The base (original) taps.
    pub fn base_taps(self) -> Vec<f64> {
        match self {
            FirKind::LowPass9 => vec![1.0, 4.0, 8.0, 12.0, 14.0, 12.0, 8.0, 4.0, 1.0],
            FirKind::HighBoost5 => vec![-1.0, -2.0, 10.0, -2.0, -1.0],
        }
    }

    /// Whether the taps contain negative values.
    pub fn is_signed(self) -> bool {
        matches!(self, FirKind::HighBoost5)
    }

    /// Display name.
    pub fn display_name(self) -> &'static str {
        match self {
            FirKind::LowPass9 => "fir-lowpass9",
            FirKind::HighBoost5 => "fir-highboost5",
        }
    }
}

/// Stage layout: one multiplier for all taps, or one per tap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirStageMode {
    /// A single hardware stage.
    Single,
    /// One gate per tap (parallel multi-hardware NAS).
    PerTap,
}

/// The FIR application kernel.
///
/// # Examples
///
/// ```
/// use lac_apps::{FirApp, FirKind, FirStageMode, Kernel};
/// use lac_data::synth_signal;
/// use lac_hw::catalog;
/// use lac_tensor::Graph;
///
/// let app = FirApp::new(FirKind::LowPass9, FirStageMode::Single);
/// let mult = app.adapt(&catalog::by_name("exact16u").unwrap());
/// let mults = vec![mult];
/// let signal = synth_signal(256, 1);
///
/// let coeffs = app.init_coeffs(&mults);
/// let g = Graph::new();
/// let vars: Vec<_> = coeffs.iter().map(|c| g.var(c.clone())).collect();
/// let out = app.forward_approx(&g, &signal, &vars, &mults);
/// assert_eq!(out.value(), app.reference(&signal));
/// ```
#[derive(Debug, Clone)]
pub struct FirApp {
    kind: FirKind,
    stage_mode: FirStageMode,
}

impl FirApp {
    /// Create a FIR application.
    pub fn new(kind: FirKind, stage_mode: FirStageMode) -> Self {
        FirApp { kind, stage_mode }
    }

    /// The filter variant.
    pub fn kind(&self) -> FirKind {
        self.kind
    }

    fn ntaps(&self) -> usize {
        self.kind.base_taps().len()
    }

    fn stage_of_tap(&self, tap: usize) -> usize {
        match self.stage_mode {
            FirStageMode::Single => 0,
            FirStageMode::PerTap => tap,
        }
    }

    /// Signal delayed by `offset` (taps are centered), zero-padded, with
    /// samples truncated by `shift` bits.
    fn delayed(&self, signal: &[f64], offset: isize, shift: u32) -> Tensor {
        let n = signal.len();
        let mut out = Tensor::zeros(&[n]);
        for i in 0..n as isize {
            let j = i + offset;
            if j < 0 || j >= n as isize {
                continue;
            }
            out.data_mut()[i as usize] = ((signal[j as usize] as i64) >> shift) as f64;
        }
        out
    }
}

impl Kernel for FirApp {
    type Sample = Vec<f64>;

    fn name(&self) -> &str {
        self.kind.display_name()
    }

    fn num_stages(&self) -> usize {
        match self.stage_mode {
            FirStageMode::Single => 1,
            FirStageMode::PerTap => self.ntaps(),
        }
    }

    fn stage_names(&self) -> Vec<String> {
        match self.stage_mode {
            FirStageMode::Single => vec!["fir".to_owned()],
            FirStageMode::PerTap => (0..self.ntaps()).map(|t| format!("tap{t}")).collect(),
        }
    }

    fn stages_are_parallel(&self) -> bool {
        matches!(self.stage_mode, FirStageMode::PerTap)
    }

    fn metric(&self) -> Metric {
        Metric::Psnr
    }

    fn adapt(&self, mult: &Arc<dyn Multiplier>) -> Arc<dyn Multiplier> {
        let operands =
            if self.kind.is_signed() { Signedness::Signed } else { Signedness::Unsigned };
        adapt_unit(mult, operands)
    }

    fn init_coeffs(&self, mults: &[Arc<dyn Multiplier>]) -> Vec<Tensor> {
        assert_eq!(mults.len(), self.num_stages(), "need one multiplier per stage");
        self.kind.base_taps().iter().map(|&c| Tensor::scalar(c)).collect()
    }

    fn coeff_bounds(&self, mults: &[Arc<dyn Multiplier>]) -> Vec<(f64, f64)> {
        assert_eq!(mults.len(), self.num_stages(), "need one multiplier per stage");
        (0..self.ntaps())
            .map(|tap| {
                let (lo, hi) = mults[self.stage_of_tap(tap)].operand_range();
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
        let ntaps = self.ntaps();
        assert_eq!(coeffs.len(), ntaps, "tap count mismatch");
        assert_eq!(mults.len(), self.num_stages(), "need one multiplier per stage");
        let bounds = self.coeff_bounds(mults);

        let quantized: Vec<f64> = coeffs
            .iter()
            .zip(&bounds)
            .map(|(c, &(lo, hi))| c.value().item().round().clamp(lo, hi))
            .collect();
        let shift = output_shift(&quantized);

        let center = ntaps as isize / 2;
        let mut acc: Option<Var> = None;
        for tap in 0..ntaps {
            let mult = &mults[self.stage_of_tap(tap)];
            let ps = pixel_shift(&**mult);
            let x = graph.constant(self.delayed(sample, tap as isize - center, ps));
            let (lo, hi) = bounds[tap];
            let c = coeffs[tap].quantize_ste(lo, hi);
            let mut term = x.approx_scale(&c, mult);
            if ps > 0 {
                term = term.mul_scalar(2f64.powi(ps as i32));
            }
            acc = Some(match acc {
                Some(a) => a.add(&term),
                None => term,
            });
        }
        acc.expect("taps accumulated")
            .mul_scalar(2f64.powi(-(shift as i32)))
            .round_ste()
            .clamp(0.0, 255.0)
    }

    fn reference(&self, sample: &Self::Sample) -> Tensor {
        let taps = self.kind.base_taps();
        let shift = output_shift(&taps);
        let n = sample.len();
        let center = taps.len() as isize / 2;
        let mut out = Tensor::zeros(&[n]);
        for i in 0..n as isize {
            let mut acc = 0.0;
            for (t, &w) in taps.iter().enumerate() {
                let j = i + t as isize - center;
                if j < 0 || j >= n as isize {
                    continue;
                }
                acc += w * sample[j as usize];
            }
            out.data_mut()[i as usize] =
                (acc / 2f64.powi(shift as i32)).round().clamp(0.0, 255.0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_data::synth_signal;
    use lac_hw::catalog;
    use lac_metrics::psnr_255;

    fn run(app: &FirApp, name: &str, signal: &[f64]) -> Vec<f64> {
        let m = app.adapt(&catalog::by_name(name).unwrap());
        let mults = vec![m; app.num_stages()];
        let coeffs = app.init_coeffs(&mults);
        let g = Graph::new();
        let vars: Vec<Var> = coeffs.iter().map(|c| g.var(c.clone())).collect();
        app.forward_approx(&g, &signal.to_vec(), &vars, &mults).value().into_data()
    }

    #[test]
    fn exact_hardware_matches_reference() {
        let signal = synth_signal(256, 2);
        for kind in [FirKind::LowPass9, FirKind::HighBoost5] {
            let app = FirApp::new(kind, FirStageMode::Single);
            assert_eq!(
                run(&app, "exact16u", &signal),
                app.reference(&signal).into_data(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn lowpass_attenuates_high_frequency() {
        // The reference low-pass must reduce the total variation of the
        // signal (a crude high-frequency energy proxy).
        let signal = synth_signal(256, 5);
        let app = FirApp::new(FirKind::LowPass9, FirStageMode::Single);
        let filtered = app.reference(&signal);
        let tv = |s: &[f64]| s.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>();
        assert!(tv(filtered.data()) < 0.8 * tv(&signal));
    }

    #[test]
    fn approximate_hardware_degrades_output() {
        let signal = synth_signal(256, 6);
        let app = FirApp::new(FirKind::LowPass9, FirStageMode::Single);
        let reference = app.reference(&signal).into_data();
        let p_exact = psnr_255(&run(&app, "exact16u", &signal), &reference);
        let p_bad = psnr_255(&run(&app, "mul8u_JV3", &signal), &reference);
        assert!(p_exact > p_bad);
    }

    #[test]
    fn per_tap_mode_stage_structure() {
        let app = FirApp::new(FirKind::LowPass9, FirStageMode::PerTap);
        assert_eq!(app.num_stages(), 9);
        assert_eq!(app.stage_names()[3], "tap3");
        let signal = synth_signal(128, 7);
        let mults: Vec<Arc<dyn Multiplier>> = (0..9)
            .map(|t| app.adapt(&catalog::by_name(if t % 2 == 0 { "DRUM16-4" } else { "mul8u_FTA" }).unwrap()))
            .collect();
        let coeffs = app.init_coeffs(&mults);
        let g = Graph::new();
        let vars: Vec<Var> = coeffs.iter().map(|c| g.var(c.clone())).collect();
        let out = app.forward_approx(&g, &signal, &vars, &mults).value();
        assert!(out.data().iter().all(|&v| (0.0..=255.0).contains(&v)));
    }

    #[test]
    fn signed_kind_adapts_multiplier() {
        let app = FirApp::new(FirKind::HighBoost5, FirStageMode::Single);
        let m = app.adapt(&catalog::by_name("mul8u_FTA").unwrap());
        assert_eq!(m.signedness(), lac_hw::Signedness::Signed);
    }
}
