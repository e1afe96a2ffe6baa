//! Property-based tests of the hardware behavioral models.

use lac_rt::proptest::prelude::*;

use lac_hw::evo::TruncatedMultiplier;
use lac_hw::{
    catalog, operand_range, signed_capable, DrumMultiplier, EtmMultiplier, ExactMultiplier,
    HwMetadata, KulkarniMultiplier, LutMultiplier, Multiplier, SignMagnitude, Signedness,
};
use std::sync::Arc;

fn all_units() -> Vec<Arc<dyn Multiplier>> {
    let mut units = catalog::paper_multipliers();
    units.push(catalog::by_name("kulkarni8u").unwrap());
    units.push(catalog::by_name("kulkarni16u").unwrap());
    units.push(catalog::by_name("exact8u").unwrap());
    units.push(catalog::by_name("exact16s").unwrap());
    units
}

proptest! {
    /// Every unit is a deterministic pure function of its operands.
    #[test]
    fn multiply_is_deterministic(a in -70000i64..70000, b in -70000i64..70000) {
        for m in all_units() {
            prop_assert_eq!(m.multiply(a, b), m.multiply(a, b), "{}", m.name());
        }
    }

    /// Clamping: multiply() equals multiply_raw() on pre-clamped operands.
    #[test]
    fn multiply_clamps_consistently(a in -70000i64..70000, b in -70000i64..70000) {
        for m in all_units() {
            let (lo, hi) = m.operand_range();
            prop_assert_eq!(
                m.multiply(a, b),
                m.multiply_raw(a.clamp(lo, hi), b.clamp(lo, hi)),
                "{}", m.name()
            );
        }
    }

    /// Zero annihilates for every unit except ETM (whose constant fill is
    /// a documented non-zero estimate when the other operand is large).
    #[test]
    fn zero_annihilates_for_non_etm(b in -70000i64..70000) {
        for m in all_units() {
            if m.name().starts_with("ETM") {
                continue;
            }
            prop_assert_eq!(m.multiply(0, b), 0, "{} with b={}", m.name(), b);
        }
    }

    /// The product error never exceeds the exact product's magnitude scale
    /// plus the unit's worst additive error: a loose but universal sanity
    /// bound |approx| <= 2 * hi^2.
    #[test]
    fn products_are_bounded(a in -70000i64..70000, b in -70000i64..70000) {
        for m in all_units() {
            let (_, hi) = m.operand_range();
            let bound = 2 * hi * hi;
            let p = m.multiply(a, b);
            prop_assert!(p.abs() <= bound, "{}: {} * {} -> {}", m.name(), a, b, p);
        }
    }

    /// Sign-magnitude wrapping is odd-symmetric in each operand.
    #[test]
    fn sign_magnitude_odd_symmetry(a in -255i64..=255, b in -255i64..=255) {
        let core: Arc<dyn Multiplier> = catalog::by_name("mul8u_FTA").unwrap();
        let sm = SignMagnitude::new(core);
        prop_assert_eq!(sm.multiply(a, b), -sm.multiply(-a, b));
        prop_assert_eq!(sm.multiply(a, b), -sm.multiply(a, -b));
        prop_assert_eq!(sm.multiply(a, b), sm.multiply(-a, -b));
    }

    /// signed_capable() preserves unsigned-domain behaviour exactly.
    #[test]
    fn signed_capable_preserves_positive_products(a in 0i64..=255, b in 0i64..=255) {
        for name in ["ETM8-k4", "mul8u_JV3", "kulkarni8u"] {
            let raw = catalog::by_name(name).unwrap();
            let wrapped = signed_capable(raw.clone());
            prop_assert_eq!(raw.multiply(a, b), wrapped.multiply(a, b), "{}", name);
        }
    }

    /// LUT acceleration is semantically transparent.
    #[test]
    fn lut_equals_behavioral(a in -300i64..=300, b in -300i64..=300) {
        for name in ["ETM8-k4", "mul8u_185Q", "mul8s_1KVL", "kulkarni8u"] {
            let raw = catalog::by_name(name).unwrap();
            let lut = LutMultiplier::maybe_wrap(raw.clone());
            prop_assert_eq!(raw.multiply(a, b), lut.multiply(a, b), "{}", name);
        }
    }

    /// Kulkarni never overestimates and is exact when either operand has
    /// no `11` two-bit slice.
    #[test]
    fn kulkarni_underestimates(a in 0i64..=65535, b in 0i64..=65535) {
        let m = KulkarniMultiplier::new(16);
        let p = m.multiply(a, b);
        prop_assert!(p <= a * b);
        let has3 = |x: i64| (0..8).any(|s| (x >> (2 * s)) & 3 == 3);
        if !has3(a) || !has3(b) {
            prop_assert_eq!(p, a * b);
        }
    }

    /// DRUM is exact whenever both operands fit in the k-bit core.
    #[test]
    fn drum_exact_below_core(k in 3u32..=7, a in 0i64..127, b in 0i64..127) {
        let m = DrumMultiplier::new(16, k);
        let mask = (1i64 << k) - 1;
        let (a, b) = (a & mask, b & mask);
        prop_assert_eq!(m.multiply(a, b), a * b);
    }

    /// DRUM's relative product error stays within the analytic bound.
    #[test]
    fn drum_relative_error_bound(k in 3u32..=8, a in 1i64..=65535, b in 1i64..=65535) {
        let m = DrumMultiplier::new(16, k);
        let per_op = 2f64.powi(-(k as i32 - 1));
        let bound = (1.0 + per_op) * (1.0 + per_op) - 1.0;
        let rel = (m.multiply(a, b) - a * b).abs() as f64 / (a * b) as f64;
        prop_assert!(rel <= bound + 1e-12, "k={} {}x{} rel={}", k, a, b, rel);
    }

    /// ETM is exact exactly when both high sections are zero.
    #[test]
    fn etm_exactness_criterion(a in 0i64..=255, b in 0i64..=255) {
        let m = EtmMultiplier::new(8, 4);
        if a < 16 && b < 16 {
            prop_assert_eq!(m.multiply(a, b), a * b);
        }
    }

    /// Exact units are exact over their whole range.
    #[test]
    fn exact_units_are_exact(a in -32767i64..=32767, b in -32767i64..=32767) {
        let m = ExactMultiplier::new(16, Signedness::Signed);
        prop_assert_eq!(m.multiply(a, b), a * b);
    }

    /// operand_range is symmetric for signed and starts at zero for
    /// unsigned, for any width.
    #[test]
    fn operand_range_structure(bits in 1u32..=32) {
        let (lo_u, hi_u) = operand_range(bits, Signedness::Unsigned);
        prop_assert_eq!(lo_u, 0);
        prop_assert_eq!(hi_u, (1i64 << bits) - 1);
        let (lo_s, hi_s) = operand_range(bits, Signedness::Signed);
        prop_assert_eq!(lo_s, -hi_s);
    }
}

/// Commutativity holds for the symmetric mechanisms (column truncation,
/// operand masking, DRUM, ETM, Kulkarni) — checked exhaustively on a grid
/// rather than property-sampled, since it is cheap.
#[test]
fn symmetric_units_commute_on_grid() {
    for name in ["ETM8-k4", "DRUM16-4", "mul8u_JV3", "mul8u_185Q", "mul8s_1KVL", "kulkarni8u"] {
        let m = catalog::by_name(name).unwrap();
        let (lo, hi) = m.operand_range();
        let step = ((hi - lo) / 23).max(1);
        let mut a = lo;
        while a <= hi {
            let mut b = lo;
            while b <= hi {
                assert_eq!(m.multiply(a, b), m.multiply(b, a), "{name}: {a} x {b}");
                b += step;
            }
            a += step;
        }
    }
}

/// Every kind of unit `multiply_row` has a body for: each catalog unit
/// and narrow fault-injected spec, in its raw, LUT-wrapped and
/// sign-magnitude-adapted forms (the adapter over the raw unit and over
/// its table, and the adapter's own table, filled row by row from the
/// unit's table); fault-injected wide specs; and column truncation at
/// every width-8 and width-16 setting.
fn row_units() -> &'static [Arc<dyn Multiplier>] {
    static UNITS: std::sync::OnceLock<Vec<Arc<dyn Multiplier>>> = std::sync::OnceLock::new();
    UNITS.get_or_init(|| {
        let mut units = Vec::new();
        let narrow_faulty =
            ["mul8u_FTA!seed=5,flip=0.05", "mul8u_JV3!sa0=0x6", "kulkarni8u!seed=9,lut=0.02"];
        let names = catalog::PAPER_NAMES.iter().chain(&catalog::EXTRA_NAMES).chain(&narrow_faulty);
        for name in names {
            let raw = catalog::by_spec(name).unwrap();
            let lut = LutMultiplier::maybe_wrap(Arc::clone(&raw));
            units.push(signed_capable(Arc::clone(&raw)));
            units.push(signed_capable(Arc::clone(&lut)));
            units.push(LutMultiplier::maybe_wrap(signed_capable(Arc::clone(&lut))));
            units.extend([raw, lut]);
        }
        for spec in
            ["mul16s_GAT!seed=7,flip=0.01", "DRUM16-6!seed=3,flip=0.05", "mul16s_GK2!sa1=0x4"]
        {
            units.push(catalog::by_spec(spec).unwrap());
        }
        for bits in [8, 16] {
            for signedness in [Signedness::Unsigned, Signedness::Signed] {
                for t in 0..2 * bits {
                    for compensated in [false, true] {
                        units.push(Arc::new(TruncatedMultiplier::new(
                            "trunc",
                            bits,
                            signedness,
                            t,
                            compensated,
                            HwMetadata::new(0.1, 0.1),
                        )));
                    }
                }
            }
        }
        units
    })
}

/// An operand: small values around zero (signs, ±1), the 8-bit range,
/// values in and beyond the 16-bit ranges, or the extremes of `i64`.
fn operand((kind, v): (u8, i64)) -> i64 {
    match kind {
        0..=2 => v % 16,
        3 => v % 300,
        6 => i64::MIN,
        7 => i64::MAX,
        _ => v,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `multiply_row` equals one `multiply` per element for every unit,
    /// on rows of any length (past an 8-bit core's 256 magnitudes too,
    /// where a sign-magnitude adapter takes the core's whole row) and any
    /// operands, out-of-range ones included.
    #[test]
    fn multiply_row_matches_per_element_multiply(
        a in (0u8..8, -100_000i64..=100_000),
        bs in proptest::collection::vec((0u8..8, -100_000i64..=100_000), 300),
        len in 0usize..=300,
    ) {
        let a = operand(a);
        let bs: Vec<i64> = bs[..len].iter().copied().map(operand).collect();
        let mut out = vec![0; len];
        for m in row_units() {
            m.multiply_row(a, &bs, &mut out);
            let want: Vec<i64> = bs.iter().map(|&b| m.multiply(a, b)).collect();
            prop_assert_eq!(&out, &want, "{} ({} bits, {}) a={}", m.name(), m.bits(), m.signedness(), a);
        }
    }
}
