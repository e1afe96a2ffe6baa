//! Behavioral models of approximate arithmetic hardware for LAC (Learned
//! Approximate Computing).
//!
//! This crate provides the hardware substrate of the LAC reproduction:
//!
//! * the [`Multiplier`] trait and an accurate reference unit
//!   ([`ExactMultiplier`]);
//! * the published approximate multipliers the paper evaluates — the
//!   recursive Kulkarni underdesigned multiplier ([`KulkarniMultiplier`]),
//!   the Error-Tolerant Multiplier ([`EtmMultiplier`]), the Dynamic Range
//!   Unbiased Multiplier ([`DrumMultiplier`]), and behavioral stand-ins for
//!   the EvoApprox units (module [`evo`]);
//! * the paper's multiplier [`catalog`] with Table I area/power and
//!   Table III delay metadata;
//! * ordered exact↔approximate catalog slices ([`ModeLadder`]) that give
//!   runtime mode switching a validated, fingerprintable vocabulary;
//! * lookup-table acceleration ([`LutMultiplier`]) and sign-magnitude
//!   adaptation ([`SignMagnitude`]) wrappers, and the one policy that
//!   applies them to a kernel's unit ([`adapt_unit`]);
//! * seeded deterministic fault injection over any unit — stuck-at bits,
//!   transient bit-flips, LUT-cell corruption (module [`faults`]);
//! * exhaustive and sampled error characterization (module [`stats`]);
//! * approximate adders (module [`adders`]) as an extension.
//!
//! # Quick start
//!
//! ```
//! use lac_hw::{catalog, exhaustive_stats, Multiplier};
//!
//! let drum = catalog::by_name("DRUM16-4").expect("catalog unit");
//! println!("{} area={}", drum.name(), drum.metadata().area);
//! assert!(drum.multiply(40_000, 3) != 0);
//!
//! let kulkarni = catalog::by_name("kulkarni8u").unwrap();
//! let stats = exhaustive_stats(&*kulkarni);
//! assert!(stats.error_rate < 0.6);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adders;
mod booth;
pub mod catalog;
pub mod faults;
mod drum;
mod etm;
pub mod error_map;
pub mod evo;
mod kulkarni;
pub mod ladder;
mod lut;
mod mitchell;
mod mult;
pub mod netlist;
pub mod stats;

pub use booth::BoothMultiplier;
pub use faults::{FaultConfig, FaultyMultiplier};
pub use drum::DrumMultiplier;
pub use etm::EtmMultiplier;
pub use kulkarni::KulkarniMultiplier;
pub use ladder::ModeLadder;
pub use lut::{
    adapt_unit, operand_offset, round_half_away, DenseLut, LutMultiplier, MAX_LUT_BITS,
};
pub use mitchell::{MitchellMultiplier, SsmMultiplier};
pub use error_map::ErrorMap;
pub use netlist::NetlistMultiplier;
pub use mult::{
    operand_range, signed_capable, ExactMultiplier, HwMetadata, Multiplier, SignMagnitude,
    Signedness,
};
pub use stats::{characterize, exhaustive_stats, sampled_stats, ErrorStats};
