//! The multiplier catalog of the LAC paper (Tables I and III).
//!
//! [`paper_multipliers`] returns the eleven units the paper evaluates:
//! two ETM variants, two DRUM variants, and seven EvoApprox-style units
//! (behavioral stand-ins; see `DESIGN.md` §4 and the [`crate::evo`] module
//! docs). Area and power come from Table I, delays from Table III (only
//! published for the EvoApprox subset).
//!
//! Every constructor returns the behavioral model itself. The unit a
//! kernel runs on comes from [`crate::adapt_unit`] (what every
//! `Kernel::adapt` calls), which tabulates and sign-adapts it.

use std::sync::Arc;

use crate::booth::BoothMultiplier;
use crate::drum::DrumMultiplier;
use crate::etm::EtmMultiplier;
use crate::evo::{OperandMaskMultiplier, TruncatedMultiplier};
use crate::kulkarni::KulkarniMultiplier;
use crate::mitchell::{MitchellMultiplier, SsmMultiplier};
use crate::mult::{ExactMultiplier, HwMetadata, Multiplier, Signedness};

/// Construct one catalog unit by its paper name.
///
/// Recognized names: `ETM8-k4`, `ETM16-k4`, `DRUM16-4`, `DRUM16-6`,
/// `mul8u_JV3`, `mul8u_FTA`, `mul8u_185Q`, `mul8s_1KR3`, `mul8s_1KVL`,
/// `mul16s_GK2`, `mul16s_GAT`, plus the extras `kulkarni8u`, `kulkarni16u`,
/// `mitchell8u`, `mitchell16u`, `ssm16-8`, `ssm16-10`, `exact8u`,
/// `exact8s`, `exact16u`, `exact16s` (see [`EXTRA_NAMES`]).
///
/// # Examples
///
/// ```
/// use lac_hw::catalog::by_name;
///
/// let m = by_name("DRUM16-6").expect("catalog unit");
/// assert_eq!(m.bits(), 16);
/// ```
pub fn by_name(name: &str) -> Option<Arc<dyn Multiplier>> {
    let m: Arc<dyn Multiplier> = match name {
        "ETM8-k4" => Arc::new(EtmMultiplier::new(8, 4)),
        "ETM16-k4" => Arc::new(EtmMultiplier::new(16, 4)),
        "DRUM16-4" => Arc::new(DrumMultiplier::new(16, 4)),
        "DRUM16-6" => Arc::new(DrumMultiplier::new(16, 6)),
        // EvoApprox-style stand-ins: Table I area/power, Table III delay.
        "mul8u_JV3" => Arc::new(TruncatedMultiplier::new(
            "mul8u_JV3",
            8,
            Signedness::Unsigned,
            9,
            false,
            HwMetadata::with_delay(0.03, 0.02, 0.58),
        )),
        "mul8u_FTA" => Arc::new(TruncatedMultiplier::new(
            "mul8u_FTA",
            8,
            Signedness::Unsigned,
            6,
            false,
            HwMetadata::with_delay(0.07, 0.04, 0.95),
        )),
        "mul8u_185Q" => Arc::new(TruncatedMultiplier::new(
            "mul8u_185Q",
            8,
            Signedness::Unsigned,
            4,
            true,
            HwMetadata::with_delay(0.13, 0.09, 1.41),
        )),
        "mul8s_1KR3" => Arc::new(OperandMaskMultiplier::new(
            "mul8s_1KR3",
            8,
            Signedness::Signed,
            3,
            HwMetadata::with_delay(0.07, 0.02, 0.89),
        )),
        "mul8s_1KVL" => Arc::new(TruncatedMultiplier::new(
            "mul8s_1KVL",
            8,
            Signedness::Signed,
            3,
            true,
            HwMetadata::with_delay(0.21, 0.12, 1.33),
        )),
        "mul16s_GK2" => Arc::new(TruncatedMultiplier::new(
            "mul16s_GK2",
            16,
            Signedness::Signed,
            2,
            true,
            HwMetadata::with_delay(1.01, 0.89, 2.95),
        )),
        "mul16s_GAT" => Arc::new(TruncatedMultiplier::new(
            "mul16s_GAT",
            16,
            Signedness::Signed,
            8,
            true,
            HwMetadata::with_delay(0.74, 0.58, 2.57),
        )),
        // Extras beyond Table I, useful for ablations and examples.
        "kulkarni8u" => Arc::new(KulkarniMultiplier::new(8)),
        "kulkarni16u" => Arc::new(KulkarniMultiplier::new(16)),
        "booth8s-a2" => Arc::new(BoothMultiplier::new(8, 2)),
        "booth16s-a3" => Arc::new(BoothMultiplier::new(16, 3)),
        "mitchell8u" => Arc::new(MitchellMultiplier::new(8)),
        "mitchell16u" => Arc::new(MitchellMultiplier::new(16)),
        "ssm16-8" => Arc::new(SsmMultiplier::new(16, 8)),
        "ssm16-10" => Arc::new(SsmMultiplier::new(16, 10)),
        "exact8u" => Arc::new(ExactMultiplier::new(8, Signedness::Unsigned)),
        "exact8s" => Arc::new(ExactMultiplier::new(8, Signedness::Signed)),
        "exact16u" => Arc::new(ExactMultiplier::new(16, Signedness::Unsigned)),
        "exact16s" => Arc::new(ExactMultiplier::new(16, Signedness::Signed)),
        _ => return None,
    };
    Some(m)
}

/// Construct a catalog unit from a `name` or `name!faults` spec.
///
/// The part after `!` is a [`FaultConfig`](crate::FaultConfig) spec
/// (see [`FaultConfig::parse`](crate::FaultConfig::parse)), so sweeps
/// and CLI flags can name degraded hardware as a single string:
///
/// ```
/// use lac_hw::catalog::by_spec;
///
/// let healthy = by_spec("mul8u_FTA").unwrap();
/// let degraded = by_spec("mul8u_FTA!flip=0.01,seed=7").unwrap();
/// assert_eq!(healthy.name(), "mul8u_FTA");
/// assert_eq!(degraded.name(), "mul8u_FTA!seed=7,flip=0.01");
/// ```
pub fn by_spec(spec: &str) -> Result<Arc<dyn Multiplier>, String> {
    let (name, fault_spec) = match spec.split_once('!') {
        Some((name, faults)) => (name, Some(faults)),
        None => (spec, None),
    };
    let unit = by_name(name).ok_or_else(|| format!("unknown multiplier `{name}`"))?;
    match fault_spec {
        None => Ok(unit),
        Some(fs) => Ok(crate::faults::FaultConfig::parse(fs)?.apply(unit)),
    }
}

/// A catalog unit with a fault model applied (fault-free configs pass
/// the unit through unchanged).
pub fn faulty(name: &str, faults: &crate::faults::FaultConfig) -> Option<Arc<dyn Multiplier>> {
    by_name(name).map(|m| faults.apply(m))
}

/// Names of the eleven Table I multipliers, in the paper's order.
pub const PAPER_NAMES: [&str; 11] = [
    "ETM8-k4",
    "ETM16-k4",
    "DRUM16-4",
    "DRUM16-6",
    "mul8u_JV3",
    "mul8u_FTA",
    "mul8u_185Q",
    "mul8s_1KR3",
    "mul8s_1KVL",
    "mul16s_GK2",
    "mul16s_GAT",
];

/// Names of the extra units beyond Table I (classic approximate
/// multipliers and exact references) available for ablations.
pub const EXTRA_NAMES: [&str; 12] = [
    "kulkarni8u",
    "kulkarni16u",
    "booth8s-a2",
    "booth16s-a3",
    "mitchell8u",
    "mitchell16u",
    "ssm16-8",
    "ssm16-10",
    "exact8u",
    "exact8s",
    "exact16u",
    "exact16s",
];

/// The full Table I multiplier set, in the paper's order.
///
/// # Examples
///
/// ```
/// use lac_hw::catalog::paper_multipliers;
///
/// let units = paper_multipliers();
/// assert_eq!(units.len(), 11);
/// ```
pub fn paper_multipliers() -> Vec<Arc<dyn Multiplier>> {
    PAPER_NAMES.iter().map(|n| by_name(n).expect("paper unit")).collect()
}

/// Filter a unit list by signedness.
pub fn with_signedness(
    units: &[Arc<dyn Multiplier>],
    signedness: Signedness,
) -> Vec<Arc<dyn Multiplier>> {
    units.iter().filter(|m| m.signedness() == signedness).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::LutMultiplier;
    use crate::stats::characterize;

    #[test]
    fn all_paper_units_resolve() {
        for name in PAPER_NAMES {
            let m = by_name(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.name(), name);
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(by_name("mul8u_NOPE").is_none());
    }

    #[test]
    fn by_spec_injects_faults() {
        let healthy = by_spec("mul8u_FTA").unwrap();
        let degraded = by_spec("mul8u_FTA!sa1=0x1,seed=3").unwrap();
        assert_eq!(degraded.multiply(10, 10) & 1, 1, "bit 0 stuck at 1");
        assert_eq!(healthy.bits(), degraded.bits());
        assert!(by_spec("mul8u_NOPE!flip=0.1").is_err(), "unknown base unit");
        assert!(by_spec("mul8u_FTA!flip=nope").is_err(), "bad fault spec");
    }

    #[test]
    fn faulty_with_noop_config_is_passthrough() {
        use crate::faults::FaultConfig;
        let m = faulty("mul8u_FTA", &FaultConfig::new(1)).unwrap();
        assert_eq!(m.name(), "mul8u_FTA");
        assert!(faulty("mul8u_NOPE", &FaultConfig::new(1)).is_none());
    }

    #[test]
    fn table1_metadata_matches_paper() {
        let cases = [
            ("ETM8-k4", 0.14, 0.04),
            ("ETM16-k4", 0.14, 0.04),
            ("DRUM16-4", 0.25, 0.12),
            ("DRUM16-6", 0.39, 0.29),
            ("mul8u_JV3", 0.03, 0.02),
            ("mul8u_FTA", 0.07, 0.04),
            ("mul8u_185Q", 0.13, 0.09),
            ("mul8s_1KR3", 0.07, 0.02),
            ("mul8s_1KVL", 0.21, 0.12),
            ("mul16s_GK2", 1.01, 0.89),
            ("mul16s_GAT", 0.74, 0.58),
        ];
        for (name, area, power) in cases {
            let md = by_name(name).unwrap().metadata();
            assert_eq!(md.area, area, "{name} area");
            assert_eq!(md.power, power, "{name} power");
        }
    }

    #[test]
    fn table3_delays_match_paper() {
        let cases = [
            ("mul8u_JV3", 0.58),
            ("mul8u_FTA", 0.95),
            ("mul8u_185Q", 1.41),
            ("mul8s_1KR3", 0.89),
            ("mul8s_1KVL", 1.33),
            ("mul16s_GK2", 2.95),
            ("mul16s_GAT", 2.57),
        ];
        for (name, delay) in cases {
            assert_eq!(by_name(name).unwrap().metadata().delay, Some(delay), "{name}");
        }
        // ETM / DRUM delays are not published in the paper.
        assert_eq!(by_name("DRUM16-4").unwrap().metadata().delay, None);
        assert_eq!(by_name("ETM8-k4").unwrap().metadata().delay, None);
    }

    #[test]
    fn cheaper_units_have_larger_error() {
        // The catalog preserves the monotone cost/error trade-off that makes
        // the paper's Pareto plots meaningful: within each family, the
        // cheapest unit must have the largest mean relative error.
        let order = ["mul8u_JV3", "mul8u_FTA", "mul8u_185Q"];
        let mres: Vec<f64> =
            order.iter().map(|n| characterize(&*by_name(n).unwrap(), 0, 0).mre).collect();
        assert!(mres[0] > mres[1], "JV3 {} should exceed FTA {}", mres[0], mres[1]);
        assert!(mres[1] > mres[2], "FTA {} should exceed 185Q {}", mres[1], mres[2]);
    }

    #[test]
    fn accelerated_set_matches_raw_set() {
        let raw = paper_multipliers();
        let fast = raw.iter().map(|r| LutMultiplier::maybe_wrap(Arc::clone(r)));
        for (r, f) in raw.iter().zip(fast) {
            assert_eq!(r.name(), f.name());
            let (lo, hi) = r.operand_range();
            for &a in &[lo, 0.max(lo), hi / 3, hi] {
                for &b in &[lo, hi / 2, hi] {
                    assert_eq!(r.multiply(a, b), f.multiply(a, b), "{} {a}x{b}", r.name());
                }
            }
        }
    }

    #[test]
    fn signedness_filter() {
        let units = paper_multipliers();
        let unsigned = with_signedness(&units, Signedness::Unsigned);
        let signed = with_signedness(&units, Signedness::Signed);
        assert_eq!(unsigned.len() + signed.len(), units.len());
        assert!(unsigned.iter().any(|m| m.name() == "mul8u_JV3"));
        assert!(signed.iter().any(|m| m.name() == "mul16s_GK2"));
    }

    #[test]
    fn gk2_is_nearly_exact_and_gat_is_worse() {
        let gk2 = characterize(&*by_name("mul16s_GK2").unwrap(), 50_000, 3);
        let gat = characterize(&*by_name("mul16s_GAT").unwrap(), 50_000, 3);
        assert!(gk2.mre < 1e-4, "GK2 mre {}", gk2.mre);
        assert!(gat.mre > gk2.mre);
    }
}
