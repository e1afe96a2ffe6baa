//! Step-cost guard: the heap allocations and tape nodes one training
//! sample costs, counted exactly.
//!
//! Each case runs the per-sample step of `lac_core::eval::batch_grads`
//! as a worker does: inside one buffer-pool scope, on one graph reset
//! before every sample, it records the coefficient leaves, the
//! approximate forward, `mse_loss_to`, the backward pass and every
//! coefficient gradient. Two warm-up samples bring the pool to its
//! steady state; the third is counted. The counts are deterministic, so
//! the bounds below are the figures of the code that set them: a change
//! that adds a node or an allocation to the step fails here and must
//! justify the new bound; a change that removes some should lower it.
//!
//! A counting global allocator tallies allocations and reallocations
//! per thread, so test threads running beside this one do not disturb
//! the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use lac::apps::{FilterApp, FilterKind, JpegApp, JpegMode, Kernel, StageMode};
use lac::data::{synth_image, GrayImage};
use lac::hw::{catalog, LutMultiplier, Multiplier};
use lac::tensor::{pool, Graph, Tensor, Var};

struct Counting;

thread_local! {
    static HEAP_CALLS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: an allocation during thread teardown goes uncounted
    // rather than panicking.
    let _ = HEAP_CALLS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// tally is a const-initialized thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What one steady-state training sample costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StepCost {
    /// Heap allocations and reallocations.
    heap_calls: usize,
    /// Tape nodes, the loss included.
    nodes: usize,
}

/// The cost of one training sample of `kernel` on `mul8u_FTA`, tabulated
/// and adapted as a training session adapts it.
fn step_cost<K: Kernel<Sample = GrayImage>>(kernel: &K) -> StepCost {
    let unit = LutMultiplier::maybe_wrap(catalog::by_spec("mul8u_FTA").unwrap());
    let mults: Vec<Arc<dyn Multiplier>> = vec![kernel.adapt(&unit); kernel.num_stages()];
    // Off-grid coefficients, as mid-training: the quantizers round.
    let coeffs: Vec<Tensor> =
        kernel.init_coeffs(&mults).iter().map(|c| c.map(|v| v + 0.3)).collect();
    let images: Vec<_> = (0..3).map(|s| synth_image(32, 32, s)).collect();
    let references: Vec<Vec<f64>> =
        images.iter().map(|i| kernel.reference(i).into_data()).collect();
    pool::scope(|| {
        let graph = Graph::new();
        let mut cost = StepCost { heap_calls: 0, nodes: 0 };
        for (image, reference) in images.iter().zip(&references) {
            let before = HEAP_CALLS.with(Cell::get);
            graph.reset();
            let vars: Vec<Var> = coeffs.iter().map(|c| graph.var(c.clone())).collect();
            let loss = kernel.forward_approx(&graph, image, &vars, &mults).mse_loss_to(reference);
            let nodes = graph.len();
            let grads = graph.backward(&loss);
            let sample_grads: Vec<Tensor> = vars.iter().map(|v| grads.get(v)).collect();
            drop((sample_grads, grads, loss, vars));
            cost = StepCost { heap_calls: HEAP_CALLS.with(Cell::get) - before, nodes };
        }
        cost
    })
}

fn check(name: &str, got: StepCost, bound: StepCost) {
    assert!(
        got.heap_calls <= bound.heap_calls && got.nodes <= bound.nodes,
        "{name}: one training sample costs {got:?}, above the bound {bound:?}"
    );
}

#[test]
fn blur_and_jpeg_samples_stay_within_their_step_cost() {
    let blur = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
    check("blur", step_cost(&blur), StepCost { heap_calls: 79, nodes: 23 });
    let jpeg = JpegApp::new(JpegMode::Single);
    check("jpeg", step_cost(&jpeg), StepCost { heap_calls: 99, nodes: 15 });
}
