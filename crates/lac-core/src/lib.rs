//! LAC: Learned Approximate Computing — the trainers.
//!
//! This crate implements the paper's contribution on top of the hardware
//! models (`lac-hw`), autodiff engine (`lac-tensor`) and application
//! kernels (`lac-apps`):
//!
//! * [`train_fixed`] — **fixed-hardware LAC** (Sections II–III): train an
//!   application's coefficients against one approximate multiplier's error
//!   profile;
//! * [`search_single`] — **trained-hardware LAC** (Section IV): a
//!   binarized-gate NAS that co-searches the multiplier while training
//!   per-candidate coefficients with two-path sampling;
//! * [`search_accuracy_constrained`] — area minimization under a quality
//!   floor (Eqs. 4–5, Fig. 10);
//! * [`search_multi`] — **multi-hardware NAS** (serial/parallel layering,
//!   Eqs. 2–3, Figs. 11–12) with one gate per application stage;
//! * [`Constraint`] / [`prune`] — search-space pruning for area / power /
//!   delay budgets (Figs. 8–9);
//! * [`brute_force`], [`greedy_multi`], [`no_lac_min_area`] — the baselines
//!   of Figs. 10–12 and Table IV.
//!
//! # Quick start
//!
//! ```no_run
//! use lac_apps::{FilterApp, FilterKind, Kernel, StageMode};
//! use lac_core::{train_fixed, TrainConfig};
//! use lac_data::ImageDataset;
//! use lac_hw::catalog;
//!
//! let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
//! let mult = app.adapt(&catalog::by_name("ETM8-k4").unwrap());
//! let data = ImageDataset::paper_split(42);
//! let result = train_fixed(&app, &mult, &data.train, &data.test, &TrainConfig::new())
//!     .expect("training diverged");
//! println!(
//!     "{}: SSIM {:.3} -> {:.3}",
//!     result.multiplier, result.before, result.after
//! );
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod baselines;
mod config;
mod constraints;
pub mod engine;
mod eval;
mod fixed;
mod nas;
pub mod serving;

pub use baselines::{
    brute_force, brute_force_min_area, brute_force_observed, greedy_multi, greedy_multi_observed,
    no_lac_min_area, BruteForceResult,
};
pub use config::TrainConfig;
pub use constraints::{accuracy_hinge, hinge_area, prune, Constraint};
pub use engine::{
    metric_loss, ConstraintSet, EpochEvent, ErrorEvent, HardwarePlan, JsonlObserver,
    MemoryObserver, NullObserver, RunScope, SessionCheckpoint, TrainError, TrainObserver,
    TrainSession,
};
pub use eval::{batch_grads, batch_loss, batch_outputs, batch_references, quality};
pub use fixed::{
    train_fixed, train_fixed_multistart, train_fixed_multistart_observed, train_fixed_observed,
    train_fixed_resumable, train_fixed_resumable_observed, FixedResult,
};
pub use nas::gate::BinaryGate;
pub use nas::multi::{
    mean_area, search_multi, search_multi_observed, MultiNasResult, MultiObjective,
};
pub use nas::single::{
    search_accuracy_constrained, search_accuracy_constrained_observed, search_single,
    search_single_observed, NasResult,
};
pub use serving::{HealthSnapshot, ModeSelector, ServeError, ServingModel};
