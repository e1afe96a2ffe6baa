//! `round_half_away` must return exactly the bits `f64::round` returns,
//! on every input: the training datapath rounds through it, and the
//! golden-seed pins were recorded with `f64::round`.

use lac_rt::proptest::prelude::*;

use lac_hw::{operand_offset, round_half_away};

/// Bit-for-bit agreement with `f64::round` on one input.
fn agrees(v: f64) -> Result<(), String> {
    let (got, want) = (round_half_away(v), v.round());
    if got.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(format!(
            "round_half_away({v:e} = {:#018x}) = {got:e} ({:#018x}), \
             f64::round = {want:e} ({:#018x})",
            v.to_bits(),
            got.to_bits(),
            want.to_bits()
        ))
    }
}

/// The value `n` ulps above (`n > 0`) or below `v`, `v` finite and
/// positive.
fn ulps(v: f64, n: i64) -> f64 {
    f64::from_bits((v.to_bits() as i64 + n) as u64)
}

#[test]
fn boundary_table_matches_f64_round() {
    let two52 = 2f64.powi(52);
    let two53 = 2f64.powi(53);
    let mut table = vec![
        0.0,
        0.5,
        ulps(0.5, -1),
        ulps(0.5, 1),
        1.0,
        1.5,
        2.5,
        ulps(2.5, -1),
        ulps(2.5, 1),
        3.5,
        4.5,
        two52 - 0.5,
        two52 - 1.5,
        ulps(two52, -1),
        two52,
        two52 + 1.0,
        two53,
        two53 + 2.0,
        f64::MAX,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::from_bits(0x000f_ffff_ffff_ffff),
        f64::INFINITY,
        f64::EPSILON,
        255.5,
        ulps(255.5, -1),
        1e300,
    ];
    // Every tie x.5 for small x: the 2^52 trick already rounds half of
    // them up (ties to even), the other half need the fix-up.
    table.extend((0..64).map(|i| i as f64 + 0.5));
    let negated: Vec<f64> = table.iter().map(|v| -v).collect();
    table.extend(negated);
    // Quiet and signaling NaNs of both signs, with payloads.
    for bits in [0x7ff8_0000_0000_0000u64, 0x7ff0_0000_0000_0001, 0x7ff4_0000_dead_beef] {
        table.push(f64::from_bits(bits));
        table.push(f64::from_bits(bits | 1 << 63));
    }
    let failures: Vec<String> = table.iter().filter_map(|&v| agrees(v).err()).collect();
    assert!(failures.is_empty(), "{} mismatches:\n{}", failures.len(), failures.join("\n"));
}

#[test]
fn quantizer_matches_round_then_clamp() {
    for (lo, hi) in [(0i64, 255i64), (-255, 255), (-32768, 32767)] {
        let vs = [-1e300f64, -40000.5, -255.5, -0.5, -0.3, 0.0, 0.49, 0.5, 17.5, 254.5, 255.5, 1e9];
        for v in vs {
            let want = ((v.round() as i64).clamp(lo, hi) - lo) as usize;
            assert_eq!(operand_offset(v, lo, hi), want, "{v} in [{lo}, {hi}]");
        }
        assert_eq!(operand_offset(f64::NAN, lo, hi), (0i64.clamp(lo, hi) - lo) as usize);
    }
}

/// A float near the integers whose rounding matters: sign, a binary
/// exponent from 2^-3 to 2^54 and random mantissa bits, then nudged onto
/// the nearest tie (`x.5`) or one ulp either side of it when `tie` says so.
fn near_integer((neg, exp, mantissa, tie): (bool, i32, u64, u8)) -> f64 {
    let bits = ((exp + 1023) as u64) << 52 | (mantissa & 0x000f_ffff_ffff_ffff);
    let v = f64::from_bits(bits);
    let v = match tie % 4 {
        t @ 1..=3 if v < 2f64.powi(52) => {
            let half = v.trunc() + 0.5;
            [half, ulps(half, -1), ulps(half, 1)][t as usize - 1]
        }
        _ => v,
    };
    if neg {
        -v
    } else {
        v
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random bit patterns: every exponent, NaN payloads and subnormals
    /// included.
    #[test]
    fn random_bit_patterns_match_f64_round(
        bits in proptest::collection::vec(any::<u64>(), 256),
    ) {
        for &b in &bits {
            let r = agrees(f64::from_bits(b));
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        }
    }

    /// Values where rounding is not the identity, ties and their
    /// neighbours dense among them.
    #[test]
    fn near_integer_values_match_f64_round(
        vs in proptest::collection::vec(
            (any::<bool>(), -3i32..=54, any::<u64>(), any::<u8>()),
            256,
        ),
    ) {
        for &v in &vs {
            let r = agrees(near_integer(v));
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        }
    }
}
