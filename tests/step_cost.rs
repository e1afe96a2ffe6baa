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
//! What a sample still allocates: the step's own lists of leaves and
//! gradients, the backward pass's gradient-slot list, the apps' small
//! coefficient lists, and the integer scratch of the LUT kernels (the
//! quantized operand offsets and `i64` sums of every approximate matmul
//! and convolution), which the `f64` buffer pool does not hold. Tape
//! nodes themselves allocate nothing.
//!
//! A counting global allocator tallies allocations and reallocations
//! per thread, so test threads running beside this one do not disturb
//! the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use lac::apps::{
    CnnApp, DftApp, FilterApp, FilterKind, InverseK2jApp, JpegApp, JpegMode, Kernel, StageMode,
};
use lac::data::{synth_image, CnnDataset, GrayImage, IkDataset};
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

/// The cost of one training sample of `kernel` on the catalog unit
/// `spec`, tabulated and adapted as a training session adapts it, over
/// three samples: two warm-ups, then the counted one.
fn step_cost<K: Kernel>(kernel: &K, spec: &str, samples: &[K::Sample]) -> StepCost {
    let unit = LutMultiplier::maybe_wrap(catalog::by_spec(spec).unwrap());
    let mults: Vec<Arc<dyn Multiplier>> = vec![kernel.adapt(&unit); kernel.num_stages()];
    // Off-grid coefficients, as mid-training: the quantizers round.
    let coeffs: Vec<Tensor> =
        kernel.init_coeffs(&mults).iter().map(|c| c.map(|v| v + 0.3)).collect();
    let references: Vec<Vec<f64>> =
        samples.iter().map(|s| kernel.reference(s).into_data()).collect();
    pool::scope(|| {
        let graph = Graph::new();
        let mut cost = StepCost { heap_calls: 0, nodes: 0 };
        for (sample, reference) in samples.iter().zip(&references) {
            let before = HEAP_CALLS.with(Cell::get);
            graph.reset();
            let vars: Vec<Var> = coeffs.iter().map(|c| graph.var(c.clone())).collect();
            let loss = kernel.forward_approx(&graph, sample, &vars, &mults).mse_loss_to(reference);
            let nodes = graph.len();
            let grads = graph.backward(&loss);
            let sample_grads: Vec<Tensor> = vars.iter().map(|v| grads.get(v)).collect();
            drop((sample_grads, grads, loss, vars));
            cost = StepCost { heap_calls: HEAP_CALLS.with(Cell::get) - before, nodes };
        }
        cost
    })
}

fn images() -> Vec<GrayImage> {
    (0..3).map(|s| synth_image(32, 32, s)).collect()
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
    check("blur", step_cost(&blur, "mul8u_FTA", &images()), StepCost { heap_calls: 9, nodes: 23 });
    let jpeg = JpegApp::new(JpegMode::Single);
    check("jpeg", step_cost(&jpeg, "mul8u_FTA", &images()), StepCost { heap_calls: 16, nodes: 15 });
}

#[test]
fn dft_ik_and_cnn_samples_stay_within_their_step_cost() {
    check(
        "dft",
        step_cost(&DftApp::new(), "mul8u_FTA", &images()),
        StepCost { heap_calls: 22, nodes: 23 },
    );
    let ik = IkDataset::generate(3, 0, 1).train;
    check(
        "ik",
        step_cost(&InverseK2jApp::new(), "DRUM16-4", &ik),
        StepCost { heap_calls: 4, nodes: 33 },
    );
    let cnn = CnnDataset::generate(3, 0, 16, 16, 1).train;
    check(
        "cnn",
        step_cost(&CnnApp::paper(), "mul8u_FTA", &cnn),
        StepCost { heap_calls: 14, nodes: 13 },
    );
}
