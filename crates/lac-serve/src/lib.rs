//! Batched concurrent approximate-inference serving for LAC models.
//!
//! The daemon loads trained coefficient sets and multiplier specs from
//! `lac-core` session checkpoints and answers inference requests over a
//! zero-dependency, length-prefixed binary TCP protocol
//! ([`protocol`]). Its performance heart is *request batching*
//! ([`batch`]): pending same-kernel requests coalesce into one batched
//! forward pass, amortizing graph setup, buffer-pool reuse and LUT-row
//! tabulation across the batch, with a configurable max batch size and
//! a linger cap that a short batch waits under only when some
//! connection may still send and an arrival is predicted inside it.
//! Checkpoints hot-swap atomically ([`registry`]):
//! in-flight batches finish on the model they started with and no
//! connection is dropped. A seeded load generator ([`loadgen`])
//! produces the `BENCH_serve.json` latency/throughput benchmark. A
//! quality governor ([`governor`]) can close the loop on runtime
//! approximation modes: it samples live batches, replays them through
//! the exact datapath, and steps each app's mode ladder to hold a
//! quality SLO at minimum area.
//!
//! The daemon is hardened against overload and misbehaving peers
//! ([`server`], [`chaos`]): admission is bounded (`BUSY` shed frames
//! with a retry hint), requests carry optional deadlines dropped
//! pre-dispatch once expired, slow readers get bounded write buffers
//! and write timeouts instead of blocking dispatch, and the dispatcher
//! and governor run under panic supervision — a poisoned batch becomes
//! per-request error frames, the thread restarts, and the crash
//! counters ride on the extended `PING` health reply. A seeded chaos
//! harness ([`chaos`]) injects connection drops, fragmented writes,
//! oversized frames, dispatcher panics and corrupt checkpoint swaps,
//! and produces the deterministic `BENCH_resilience.json`. The TCP
//! daemon and that in-process harness are two drivers of one serving
//! core in [`server`] (admission → batch → dispatch → respond), so the
//! resilience benchmark measures the daemon's own code.
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use lac_apps::serving::ServeApp;
//! use lac_core::ServingModel;
//! use lac_serve::{serve, Client, Registry, Request, Response, ServerConfig};
//!
//! let registry = Arc::new(Registry::new());
//! registry.swap(ServingModel::untrained(ServeApp::InverseK2j, "DRUM16-4").unwrap());
//! let server = serve(registry, ServerConfig::default(), 0).unwrap();
//!
//! let mut client = Client::connect(server.port()).unwrap();
//! let req = Request::Infer {
//!     kernel: ServeApp::InverseK2j.code(),
//!     id: 1,
//!     values: vec![0.6, 0.3],
//!     deadline_us: None,
//! };
//! match client.round_trip(&req).unwrap() {
//!     Response::Infer { id, values } => {
//!         assert_eq!(id, 1);
//!         assert_eq!(values.len(), 2); // theta1, theta2
//!     }
//!     other => panic!("unexpected response: {other:?}"),
//! }
//!
//! server.shutdown();
//! server.join();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod chaos;
pub mod client;
pub mod governor;
pub mod loadgen;
mod pool;
pub mod protocol;
pub mod registry;
pub mod server;

pub use batch::{Admission, BatchQueue};
pub use chaos::{
    run_chaos, run_resilience, run_resilience_sweep, ChaosPlan, ChaosReport, ResilienceConfig,
    ResilienceReport,
};
pub use client::Client;
pub use governor::{
    quality_score, run_closed_loop, should_sample, ClosedLoopConfig, ClosedLoopReport,
    GovernorConfig, GovernorJob, GovernorSink, ModeStep, Observation, QualityGovernor,
};
pub use loadgen::{
    run_loadgen, run_sweep, write_bench, LoadgenConfig, LoadgenReport, SweepConfig,
    DEFAULT_CLIENT_TIMEOUT,
};
pub use protocol::{FrameEvent, FrameReader, Request, Response, MAX_FRAME_LEN};
pub use registry::Registry;
pub use server::{serve, RunningServer, ServerConfig};
