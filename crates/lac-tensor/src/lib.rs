//! A minimal reverse-mode autodiff engine for Learned Approximate
//! Computing.
//!
//! The LAC paper trains application coefficients with PyTorch's Adam
//! optimizer, quantizing weights on the fly with a straight-through
//! estimator while the forward pass runs behavioral models of approximate
//! multipliers. This crate rebuilds exactly that stack from scratch:
//!
//! * [`Tensor`] — dense row-major `f64` values;
//! * [`Graph`] / [`Var`] — a define-by-run autodiff tape with elementwise
//!   ops, matmul, same-padded conv2d, and reductions, which does backward
//!   work only for nodes that need a gradient ([`Graph::constant`] leaves
//!   — inputs, targets, tables — need none);
//! * [`Var::quantize_ste`] — clipped straight-through integer quantization
//!   (Section III-D of the paper);
//! * [`Var::approx_matmul`] / [`Var::approx_conv2d`] /
//!   [`Var::approx_scale`] — forward on true approximate-hardware models
//!   from [`lac_hw`], backward with exact-product surrogate gradients;
//! * [`Var::approx_block_transform`] — a stack of `C·X·Cᵀ` / `Cᵀ·X·C`
//!   block transforms (the JPEG DCT/IDCT stages) as one tape node;
//! * [`Epilogue`] — a datapath's output stage (shifts, round, clamp)
//!   recorded inside the product's node
//!   ([`Var::approx_conv2d_fused`], [`Var::approx_block_transform_clamped`]);
//! * [`Adam`] / [`Sgd`] — optimizers over plain tensors;
//! * [`check_gradients`] — finite-difference gradient verification.
//!
//! # Quick start: learn a coefficient around hardware error
//!
//! ```
//! use lac_hw::catalog;
//! use lac_tensor::{Adam, Graph, Tensor};
//!
//! // mul8s_1KR3 zeroes the low 3 bits of each operand. The original
//! // coefficient w0 = 100 computes 96 * 8 = 768 for input 9 instead of
//! // the exact 900; LAC-style training should move the coefficient so
//! // the *approximate* product lands closer to the exact target.
//! let mult = catalog::by_name("mul8s_1KR3").unwrap();
//! let target_value = 100.0 * 9.0;
//! let initial_error = (mult.multiply(100, 9) as f64 - target_value).abs();
//!
//! let mut w = Tensor::from_vec(vec![100.0], &[1, 1]);
//! let mut opt = Adam::new(0.5);
//! for _ in 0..200 {
//!     let g = Graph::new();
//!     let wv = g.var(w.clone());
//!     let x = g.constant(Tensor::from_vec(vec![9.0], &[1, 1]));
//!     let q = wv.quantize_ste(-127.0, 127.0);
//!     let out = q.approx_matmul(&x, &mult);
//!     let target = g.constant(Tensor::from_vec(vec![target_value], &[1, 1]));
//!     let loss = out.mse_loss(&target);
//!     let grads = g.backward(&loss);
//!     let grad_w = grads.get(&wv);
//!     opt.step(&mut [&mut w], &[grad_w]);
//! }
//! let trained = w.data()[0].round() as i64;
//! let trained_error = (mult.multiply(trained, 9) as f64 - target_value).abs();
//! assert!(trained_error < initial_error);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod approx;
mod approx_accum;
mod gradcheck;
mod graph;
mod matmul_fast;
mod ops;
mod optim;
pub mod pool;
mod ste;
mod tensor;

pub use approx::{BlockSide, Epilogue};
pub use gradcheck::{check_gradients, check_surrogate_gradients};
pub use graph::{Gradients, Graph, Var};
pub use ops::concat;
pub use optim::{Adam, Sgd};
pub use tensor::Tensor;
