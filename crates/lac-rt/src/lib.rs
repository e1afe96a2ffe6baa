//! Hermetic zero-dependency runtime for the LAC workspace.
//!
//! Everything stochastic, parallel, property-tested, or benchmarked in
//! this workspace goes through this crate instead of a registry
//! dependency, so a clean checkout builds and tests with
//! `cargo build --offline` on a machine with no network access and no
//! crates.io cache. Determinism is not just a sandboxing convenience:
//! LAC's binarized-gate search (ProxylessNAS-style two-path sampling)
//! and the multi-hardware NAS are seed-sensitive, so reproducing the
//! paper's trajectories requires a bit-reproducible PRNG and evaluation
//! results that do not depend on how many worker threads happen to run.
//!
//! The four modules:
//!
//! * [`rng`] — a SplitMix64-seeded xoshiro256++ generator with the
//!   `StdRng::seed_from_u64` / [`rng::RngExt`] surface the trainers use:
//!   uniform integers and floats over ranges, shuffling, and normal
//!   deviates via Box–Muller. Bit-reproducible across platforms (only
//!   integer ops and IEEE-754 double arithmetic).
//! * [`par`] — scoped parallel map / chunked map built on
//!   [`std::thread::scope`] with explicit worker counts. Chunk
//!   boundaries are chosen by the *caller*, never by the worker count,
//!   so reductions over chunk results are bit-identical whether they run
//!   on one thread or sixteen.
//! * [`proptest`] — a minimal property-testing harness: generator
//!   combinators for ints, floats, vectors and tuples, configurable case
//!   counts, greedy shrinking, and failure-seed reporting
//!   (`LAC_PROPTEST_SEED=<seed>` reproduces a failing case).
//! * [`bench`] — a warmup + median micro-bench harness that emits
//!   machine-readable `BENCH_<suite>.json` files so the performance
//!   trajectory of the workspace can be tracked across PRs.
//! * [`json`] — a small JSON value tree with a parser and a
//!   deterministic writer, used by session checkpointing and the sweep
//!   result cache (the places in the workspace that must read JSON
//!   back).
//! * [`hash`] — stable FNV-1a content hashing for the sweep
//!   orchestrator's content-addressed result cache.
//! * [`clock`] — a mockable monotonic microsecond clock so serving
//!   deadlines are testable without wall-clock readings leaking into
//!   committed artifacts.
//! * [`supervise`] — a catch-unwind restart loop for long-running
//!   service threads, with a structured `on_panic` decision point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bench;
pub mod clock;
pub mod hash;
pub mod json;
pub mod par;
pub mod proptest;
pub mod rng;
pub mod supervise;
