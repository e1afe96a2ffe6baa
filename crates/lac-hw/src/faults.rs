//! Seeded, deterministic fault injection over any [`Multiplier`].
//!
//! LAC's robustness question: the trainers absorb an approximate unit's
//! *designed* error profile — do they also absorb *faulty* or aging
//! silicon? This module models three classic defect classes on the
//! product path of any behavioral multiplier:
//!
//! * **stuck-at faults** — output-bus bits permanently forced to 0 or 1
//!   ([`FaultConfig::stuck_at_zero`] / [`FaultConfig::stuck_at_one`]);
//! * **transient bit-flips** — a single product bit flipped at a
//!   configurable per-multiply rate ([`FaultConfig::flip_rate`]);
//! * **LUT-cell corruption** — a fraction of the unit's product table
//!   replaced with junk values ([`FaultConfig::lut_corrupt_rate`]),
//!   modeling defective ROM/LUT cells in table-based implementations.
//!
//! Every fault decision is a **pure hash of `(seed, a, b)`** — no
//! mutable RNG state, no invocation counter. That choice is forced by
//! two invariants the workspace already guarantees: the [`Multiplier`]
//! contract ("deterministic pure functions of their operands"), and
//! bit-identical training results regardless of worker-thread count
//! (parallel batch evaluation would otherwise interleave counter-based
//! faults nondeterministically). The price is that "transient" flips
//! are frozen per operand pair — a fixed pattern of weak product cells
//! rather than true temporal noise — which is exactly the error model
//! LAC can train against, and is documented in `DESIGN.md`.
//!
//! Because a [`FaultyMultiplier`] is itself a well-behaved multiplier,
//! it composes with the existing acceleration path:
//! [`adapt_unit`](crate::adapt_unit) tabulates the *faulted* model like
//! any other narrow unit, so training on degraded hardware keeps the
//! devirtualized [`DenseLut`](crate::DenseLut) fast path.
//!
//! # Examples
//!
//! ```
//! use lac_hw::{catalog, FaultConfig, Multiplier};
//!
//! let cfg = FaultConfig::new(7).flip_rate(0.01);
//! let faulty = cfg.apply(catalog::by_name("mul8u_FTA").unwrap());
//! // Deterministic: the same operands always see the same fault.
//! assert_eq!(faulty.multiply(200, 13), faulty.multiply(200, 13));
//! ```

use std::sync::Arc;

use lac_rt::rng::splitmix64;

use crate::mult::{HwMetadata, Multiplier, Signedness};

/// Domain-separation salts for the per-fault-class hash streams.
const SALT_FLIP: u64 = 0xF11F_F11F_0000_0001;
const SALT_CELL: u64 = 0xCE11_CE11_0000_0002;

/// A seeded description of the faults injected into one hardware unit.
///
/// The default (any seed, everything else zero) is fault-free; see
/// [`FaultConfig::is_noop`]. Build with the chained setters or parse a
/// compact spec string with [`FaultConfig::parse`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault pattern; different seeds place the same fault
    /// *rates* on different operand pairs / bits.
    pub seed: u64,
    /// Product bits permanently forced to 0 (mask over the output bus).
    pub stuck_at_zero: u64,
    /// Product bits permanently forced to 1 (mask over the output bus).
    pub stuck_at_one: u64,
    /// Probability that a product has one bit flipped, per operand pair.
    pub flip_rate: f64,
    /// Fraction of product-table cells replaced with junk values.
    pub lut_corrupt_rate: f64,
}

impl FaultConfig {
    /// A fault-free configuration with the given pattern seed.
    pub fn new(seed: u64) -> Self {
        FaultConfig { seed, stuck_at_zero: 0, stuck_at_one: 0, flip_rate: 0.0, lut_corrupt_rate: 0.0 }
    }

    /// Set the stuck-at-0 output-bit mask.
    pub fn stuck_at_zero(mut self, mask: u64) -> Self {
        self.stuck_at_zero = mask;
        self
    }

    /// Set the stuck-at-1 output-bit mask.
    pub fn stuck_at_one(mut self, mask: u64) -> Self {
        self.stuck_at_one = mask;
        self
    }

    /// Set the per-multiply transient bit-flip rate.
    pub fn flip_rate(mut self, rate: f64) -> Self {
        self.flip_rate = rate;
        self
    }

    /// Set the LUT-cell corruption fraction.
    pub fn lut_corrupt_rate(mut self, rate: f64) -> Self {
        self.lut_corrupt_rate = rate;
        self
    }

    /// True when no fault class is active — [`FaultConfig::apply`]
    /// returns the unit unchanged.
    pub fn is_noop(&self) -> bool {
        self.stuck_at_zero == 0
            && self.stuck_at_one == 0
            && self.flip_rate == 0.0
            && self.lut_corrupt_rate == 0.0
    }

    /// Check rates and masks for consistency.
    ///
    /// Rates must lie in `[0, 1]`; a bit cannot be stuck at 0 and 1
    /// simultaneously.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.flip_rate) || !self.flip_rate.is_finite() {
            return Err(format!("flip rate {} outside [0, 1]", self.flip_rate));
        }
        if !(0.0..=1.0).contains(&self.lut_corrupt_rate) || !self.lut_corrupt_rate.is_finite() {
            return Err(format!("lut corruption rate {} outside [0, 1]", self.lut_corrupt_rate));
        }
        if self.stuck_at_zero & self.stuck_at_one != 0 {
            return Err(format!(
                "bits {:#x} are stuck at both 0 and 1",
                self.stuck_at_zero & self.stuck_at_one
            ));
        }
        Ok(())
    }

    /// Parse a compact comma-separated spec: `key=value` pairs with keys
    /// `seed`, `sa0`, `sa1` (masks, `0x`-prefixed hex or decimal),
    /// `flip`, and `lut` (rates). Example: `"flip=0.01,sa0=0x6,seed=7"`.
    pub fn parse(spec: &str) -> Result<FaultConfig, String> {
        let mut cfg = FaultConfig::new(0);
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec item `{part}` is not key=value"))?;
            let mask = || -> Result<u64, String> {
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                parsed.map_err(|_| format!("invalid mask `{value}` for fault key `{key}`"))
            };
            let rate = || -> Result<f64, String> {
                value
                    .parse()
                    .map_err(|_| format!("invalid rate `{value}` for fault key `{key}`"))
            };
            match key {
                "seed" => cfg.seed = mask()?,
                "sa0" => cfg.stuck_at_zero = mask()?,
                "sa1" => cfg.stuck_at_one = mask()?,
                "flip" => cfg.flip_rate = rate()?,
                "lut" => cfg.lut_corrupt_rate = rate()?,
                other => return Err(format!("unknown fault key `{other}`")),
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// The compact spec string describing this configuration (inverse of
    /// [`FaultConfig::parse`], omitting inactive fault classes).
    pub fn summary(&self) -> String {
        let mut parts = vec![format!("seed={}", self.seed)];
        if self.stuck_at_zero != 0 {
            parts.push(format!("sa0={:#x}", self.stuck_at_zero));
        }
        if self.stuck_at_one != 0 {
            parts.push(format!("sa1={:#x}", self.stuck_at_one));
        }
        if self.flip_rate != 0.0 {
            parts.push(format!("flip={}", self.flip_rate));
        }
        if self.lut_corrupt_rate != 0.0 {
            parts.push(format!("lut={}", self.lut_corrupt_rate));
        }
        parts.join(",")
    }

    /// Wrap a unit with this fault model ([`FaultyMultiplier`]), passing
    /// it through unchanged when [`FaultConfig::is_noop`].
    ///
    /// # Panics
    ///
    /// Panics when [`FaultConfig::validate`] fails; parse-sourced
    /// configurations are already validated.
    pub fn apply(&self, inner: Arc<dyn Multiplier>) -> Arc<dyn Multiplier> {
        if let Err(e) = self.validate() {
            // A programmatic (non-parsed) config with contradictory
            // masks is a caller bug, matching the crate's other
            // constructor contracts.
            panic!("invalid fault config: {e}");
        }
        if self.is_noop() {
            inner
        } else {
            Arc::new(FaultyMultiplier::new(inner, self.clone()))
        }
    }
}

/// Two decorrelated hash words for one `(seed, salt, a, b)` tuple.
///
/// Pure integer arithmetic — the whole fault model is a deterministic
/// function of the operands, so faulted products are bit-identical
/// across platforms, runs, and worker-thread counts.
#[inline]
fn fault_hash(seed: u64, salt: u64, a: i64, b: i64) -> (u64, u64) {
    let mut state = seed
        ^ salt
        ^ (a as u64).wrapping_mul(0xA24B_AED4_963E_E407)
        ^ (b as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25);
    (splitmix64(&mut state), splitmix64(&mut state))
}

/// Map a hash word to a uniform probability in `[0, 1)` (53-bit).
#[inline]
fn unit_prob(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Uniform value in `[0, span)` from a hash word (widening multiply).
#[inline]
fn bounded(h: u64, span: u64) -> u64 {
    (((h as u128) * (span as u128)) >> 64) as u64
}

/// A [`Multiplier`] wrapper that injects the faults described by a
/// [`FaultConfig`] into the wrapped unit's products.
///
/// Fault application order models the physical layering: LUT-cell
/// corruption replaces the stored product first, a transient flip
/// perturbs the read-out value next, and stuck-at masks clamp the output
/// bus last. Faults act on the product's magnitude bits (width
/// `2 × bits`); the sign of signed units rides a separate wire and is
/// preserved, except for corrupted cells, whose junk value may carry
/// either sign.
#[derive(Debug, Clone)]
pub struct FaultyMultiplier {
    inner: Arc<dyn Multiplier>,
    cfg: FaultConfig,
    name: String,
    /// Mask selecting the product's magnitude bits (`2 × bits` wide).
    product_mask: u64,
    /// Largest in-range product magnitude (for corrupted-cell values).
    max_magnitude: u64,
}

impl FaultyMultiplier {
    /// Wrap `inner` with the given fault model.
    ///
    /// # Panics
    ///
    /// Panics when `cfg` fails [`FaultConfig::validate`].
    pub fn new(inner: Arc<dyn Multiplier>, cfg: FaultConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid fault config for {}: {e}", inner.name());
        }
        let width = (2 * inner.bits()).min(63);
        let product_mask = (1u64 << width) - 1;
        let (lo, hi) = inner.operand_range();
        let max_magnitude = (lo.unsigned_abs().max(hi.unsigned_abs())).pow(2);
        let name = format!("{}!{}", inner.name(), cfg.summary());
        FaultyMultiplier { inner, cfg, name, product_mask, max_magnitude }
    }

    /// The wrapped (healthy) behavioral model.
    pub fn inner(&self) -> &Arc<dyn Multiplier> {
        &self.inner
    }

    /// The fault model.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }
}

impl Multiplier for FaultyMultiplier {
    fn name(&self) -> &str {
        &self.name
    }

    fn bits(&self) -> u32 {
        self.inner.bits()
    }

    fn signedness(&self) -> Signedness {
        self.inner.signedness()
    }

    fn operand_range(&self) -> (i64, i64) {
        self.inner.operand_range()
    }

    fn multiply_raw(&self, a: i64, b: i64) -> i64 {
        let healthy = self.inner.multiply_raw(a, b);
        let mut negative = healthy < 0;
        let mut magnitude = healthy.unsigned_abs();

        // 1. LUT-cell corruption: a defective table cell holds junk
        //    instead of the designed product (persistent per cell).
        if self.cfg.lut_corrupt_rate > 0.0 {
            let (h1, h2) = fault_hash(self.cfg.seed, SALT_CELL, a, b);
            if unit_prob(h1) < self.cfg.lut_corrupt_rate {
                magnitude = bounded(h2, self.max_magnitude + 1);
                negative = self.inner.signedness() == Signedness::Signed && h2 & 1 == 1;
            }
        }

        // 2. Transient single-bit flip on the read-out product.
        if self.cfg.flip_rate > 0.0 {
            let (h1, h2) = fault_hash(self.cfg.seed, SALT_FLIP, a, b);
            if unit_prob(h1) < self.cfg.flip_rate {
                let width = (2 * self.inner.bits()).min(63) as u64;
                magnitude ^= 1u64 << bounded(h2, width);
            }
        }

        // 3. Stuck-at faults on the output bus, last (permanent wires
        //    dominate whatever the datapath computed).
        magnitude = (magnitude | (self.cfg.stuck_at_one & self.product_mask))
            & !(self.cfg.stuck_at_zero & self.product_mask);

        if negative {
            -(magnitude as i64)
        } else {
            magnitude as i64
        }
    }

    fn metadata(&self) -> HwMetadata {
        self.inner.metadata()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::LutMultiplier;
    use crate::mult::ExactMultiplier;

    fn exact8() -> Arc<dyn Multiplier> {
        Arc::new(ExactMultiplier::new(8, Signedness::Unsigned))
    }

    #[test]
    fn noop_config_passes_unit_through() {
        let m = exact8();
        let same = FaultConfig::new(3).apply(Arc::clone(&m));
        assert!(Arc::ptr_eq(&m, &same));
        assert!(FaultConfig::new(9).is_noop());
        assert!(!FaultConfig::new(9).flip_rate(0.1).is_noop());
    }

    #[test]
    fn faults_are_deterministic_per_operand_pair() {
        let cfg = FaultConfig::new(11).flip_rate(0.2).lut_corrupt_rate(0.05);
        let f = FaultyMultiplier::new(exact8(), cfg);
        for a in 0..256 {
            for b in 0..256 {
                assert_eq!(f.multiply_raw(a, b), f.multiply_raw(a, b), "{a}x{b}");
            }
        }
    }

    #[test]
    fn different_seeds_place_faults_differently() {
        let grid = |seed: u64| -> Vec<i64> {
            let f = FaultyMultiplier::new(exact8(), FaultConfig::new(seed).flip_rate(0.05));
            (0..256i64).flat_map(|a| (0..256i64).map(move |b| (a, b)))
                .map(|(a, b)| f.multiply_raw(a, b))
                .collect()
        };
        assert_ne!(grid(1), grid(2));
        assert_eq!(grid(1), grid(1));
    }

    #[test]
    fn stuck_at_semantics_on_every_product() {
        let cfg = FaultConfig::new(0).stuck_at_one(0b100).stuck_at_zero(0b001);
        let f = FaultyMultiplier::new(exact8(), cfg);
        for (a, b) in [(0, 0), (1, 1), (7, 3), (255, 255), (200, 13)] {
            let p = f.multiply_raw(a, b) as u64;
            assert_eq!(p & 0b100, 0b100, "{a}x{b}: bit 2 must be stuck at 1");
            assert_eq!(p & 0b001, 0, "{a}x{b}: bit 0 must be stuck at 0");
        }
        // Unaffected bits keep the exact product.
        assert_eq!(f.multiply_raw(4, 4) as u64 & !0b101, 16 & !0b101u64);
    }

    #[test]
    fn flip_rate_scales_the_number_of_faulted_cells() {
        let count = |rate: f64| -> usize {
            let f = FaultyMultiplier::new(exact8(), FaultConfig::new(5).flip_rate(rate));
            (0..256i64)
                .flat_map(|a| (0..256i64).map(move |b| (a, b)))
                .filter(|&(a, b)| f.multiply_raw(a, b) != a * b)
                .count()
        };
        let low = count(0.001);
        let mid = count(0.01);
        let high = count(0.1);
        assert!(low < mid && mid < high, "{low} {mid} {high}");
        // Rates land near the expected cell fractions of the 65536 grid.
        assert!((30..2000).contains(&mid), "1% of grid ≈ 655, got {mid}");
        assert!((3000..12000).contains(&high), "10% of grid ≈ 6554, got {high}");
    }

    #[test]
    fn flips_stay_inside_the_product_width() {
        let f = FaultyMultiplier::new(exact8(), FaultConfig::new(1).flip_rate(1.0));
        for a in 0..256i64 {
            for b in 0..256i64 {
                let p = f.multiply_raw(a, b);
                assert!((0..(1i64 << 16)).contains(&p), "{a}x{b} -> {p}");
            }
        }
    }

    #[test]
    fn sign_is_preserved_for_signed_units() {
        let signed: Arc<dyn Multiplier> = Arc::new(ExactMultiplier::new(8, Signedness::Signed));
        let f = FaultyMultiplier::new(signed, FaultConfig::new(2).flip_rate(1.0));
        for (a, b) in [(-5i64, 7i64), (5, -7), (-5, -7), (5, 7)] {
            let p = f.multiply_raw(a, b);
            if p != 0 {
                assert_eq!(p < 0, (a < 0) != (b < 0), "{a}x{b} -> {p}");
            }
        }
    }

    #[test]
    fn corrupted_cells_hold_in_range_junk() {
        let f = FaultyMultiplier::new(exact8(), FaultConfig::new(4).lut_corrupt_rate(0.1));
        let mut corrupted = 0usize;
        for a in 0..256i64 {
            for b in 0..256i64 {
                let p = f.multiply_raw(a, b);
                assert!((0..=255 * 255).contains(&p), "{a}x{b} -> {p}");
                if p != a * b {
                    corrupted += 1;
                }
            }
        }
        assert!((3000..12000).contains(&corrupted), "10% of grid, got {corrupted}");
    }

    #[test]
    fn lut_wrapper_tabulates_the_faulted_model() {
        let cfg = FaultConfig::new(8).flip_rate(0.02).stuck_at_one(0x10);
        let faulty: Arc<dyn Multiplier> = Arc::new(FaultyMultiplier::new(exact8(), cfg));
        let fast = LutMultiplier::maybe_wrap(Arc::clone(&faulty));
        assert!(fast.as_lut().is_some(), "8-bit faulty unit must get the fast path");
        for a in (0..256).step_by(7) {
            for b in (0..256).step_by(11) {
                assert_eq!(fast.multiply(a, b), faulty.multiply(a, b), "{a}x{b}");
            }
        }
    }

    #[test]
    fn products_are_worker_count_invariant() {
        // The whole point of hash-based (counter-free) fault decisions:
        // evaluating the grid with different parallel chunkings yields
        // bit-identical products.
        let cfg = FaultConfig::new(21).flip_rate(0.05).lut_corrupt_rate(0.01);
        let f = Arc::new(FaultyMultiplier::new(exact8(), cfg));
        let rows: Vec<i64> = (0..256).collect();
        let grid = |workers: usize| -> Vec<i64> {
            let f = Arc::clone(&f);
            lac_rt::par::chunk_map(&rows, 16, workers, move |chunk| {
                chunk
                    .iter()
                    .flat_map(|&a| (0..256i64).map(|b| f.multiply_raw(a, b)).collect::<Vec<_>>())
                    .collect::<Vec<i64>>()
            })
            .into_iter()
            .flatten()
            .collect()
        };
        let one = grid(1);
        for workers in [2, 4, 8] {
            assert_eq!(one, grid(workers), "workers={workers}");
        }
    }

    #[test]
    fn spec_round_trips_through_summary() {
        let cfg = FaultConfig::parse("seed=7,sa0=0x6,flip=0.25,lut=0.5").unwrap();
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.stuck_at_zero, 0x6);
        assert_eq!(cfg.flip_rate, 0.25);
        assert_eq!(cfg.lut_corrupt_rate, 0.5);
        let again = FaultConfig::parse(&cfg.summary()).unwrap();
        assert_eq!(again, cfg);
    }

    #[test]
    fn spec_rejects_bad_input() {
        assert!(FaultConfig::parse("flip").is_err());
        assert!(FaultConfig::parse("flip=fast").is_err());
        assert!(FaultConfig::parse("warp=0.5").is_err());
        assert!(FaultConfig::parse("flip=1.5").is_err());
        assert!(FaultConfig::parse("sa0=0x3,sa1=0x1").is_err(), "contradictory stuck-ats");
    }

    #[test]
    fn name_and_metadata_describe_the_faulted_unit() {
        let cfg = FaultConfig::new(3).stuck_at_one(0x2);
        let f = FaultyMultiplier::new(exact8(), cfg);
        assert_eq!(f.name(), "exact8u!seed=3,sa1=0x2");
        assert_eq!(f.metadata(), exact8().metadata());
        assert_eq!(f.bits(), 8);
        assert_eq!(f.operand_range(), (0, 255));
    }
}
