//! The reverse-mode autodiff tape.
//!
//! A [`Graph`] records every operation applied to its [`Var`] handles;
//! [`Graph::backward`] replays the tape in reverse, producing gradients
//! for the nodes that need them. Training code keeps parameters as plain
//! [`Tensor`]s, builds a fresh graph per step, and reads gradients out of
//! the returned [`Gradients`] map — the same discipline as a define-by-run
//! framework like the PyTorch setup the LAC paper trains with.
//!
//! A node is its value and a `needs_grad` flag. [`Graph::var`] leaves
//! need a gradient, [`Graph::constant`] leaves do not, and an op node
//! needs one iff some parent does (`requires_grad` in PyTorch terms); only
//! such a node enters the tape's op list, with a span of its one parent-id
//! list and an [`Op`] holding only what its backward reads beyond the
//! parents' values. So recording copies no operand and, with a warm
//! buffer pool, allocates nothing (DESIGN.md §7b). A backward never computes or
//! sends a gradient for a parent that needs none, so [`Gradients::get`] of
//! a constant is zeros, and a graph of constants alone (an inference pass)
//! keeps no op ([`Graph::backward_closures`] counts them). [`Graph::backward`]
//! runs the op list in descending id; each op sends its parents their shares,
//! in parent order, moved into an empty slot or added into a filled one by
//! [`Tensor::accumulate`]'s never-inlined loop.

use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

use crate::approx::{block_transform_grads, BlockSide, Epilogue};
use crate::ops::ConvShape;
use crate::pool;
use crate::tensor::Tensor;

/// How an op node's backward maps its gradient `g` to its parents'
/// (whose values it reads off the tape): one variant per backward rule,
/// holding only what the rule reads beyond `g` and those values.
pub(crate) enum Op {
    Pass, // every parent receives `g`: add, add_scalar, round_ste
    Sub,
    Neg,
    Scale(f64),               // mul_scalar, scale_round_ste
    Map(fn(f64, f64) -> f64), // `g ⊙ f'(a)` as `df(g, a)`: square, sin, cos, acos
    Clamp(f64, f64),
    QuantizeSte(f64, f64),
    Sum,
    Mean,
    MseTo(Tensor), // the differences to the target
    Reshape,
    Transpose,
    Atan2,
    Concat,
    Product(Epilogue), // mul, mul_round_ste, approx_mul_elem(_scale)
    Matmul(Epilogue),  // matmul, approx_matmul(_scale_round)
    // Exact and approximate convolutions of an image stack; `pre` holds
    // the pre-clamp values a clamping stage masks with.
    Conv { shape: ConvShape, epilogue: Epilogue, pre: Option<Tensor> },
    // The shifts into the second product, the output stage, and the
    // rounded first products `mid` the coefficient's gradient reads.
    BlockTransform {
        side: BlockSide,
        scales: [f64; 2],
        epilogue: Epilogue,
        pre: Option<Tensor>,
        mid: Option<Tensor>,
    },
    ApproxScale(f64), // the scalar coefficient's value
}

pub(crate) struct Node {
    pub(crate) value: Tensor,
    pub(crate) needs_grad: bool,
}

/// An op node that needs a gradient: its id, its span of
/// [`Tape::parent_ids`] and its backward rule.
struct OpNode {
    id: u32,
    parents: Range<u32>,
    op: Op,
}

#[derive(Default)]
pub(crate) struct Tape {
    pub(crate) nodes: Vec<Node>,
    /// The op nodes that need a gradient, in ascending id: apart from
    /// `nodes`, so a node is only its value and flag, and a graph of
    /// constants alone keeps none.
    ops: Vec<OpNode>,
    /// The op nodes' parent ids, in recording order: one list, reused
    /// across [`Graph::reset`], whatever a node's parent count.
    parent_ids: Vec<u32>,
}

/// The gradient slots a node's backward writes: its parents', below the
/// node on the tape.
pub(crate) struct Slots<'t> {
    nodes: &'t [Node],
    grads: &'t mut [Option<Tensor>],
    parents: &'t [u32],
}

impl Slots<'_> {
    /// Whether parent `i` needs a gradient.
    pub(crate) fn needs(&self, i: usize) -> bool {
        self.nodes[self.parents[i] as usize].needs_grad
    }

    pub(crate) fn value(&self, i: usize) -> &Tensor {
        &self.nodes[self.parents[i] as usize].value
    }

    /// Parent `i`'s value when parent `needer` needs a gradient.
    pub(crate) fn value_for(&self, i: usize, needer: usize) -> Option<&Tensor> {
        self.needs(needer).then(|| self.value(i))
    }

    /// Fold `grad` into parent `i`'s slot: moved into an empty slot,
    /// added into a filled one. Dropped for a parent that needs none.
    pub(crate) fn put(&mut self, i: usize, grad: Tensor) {
        let p = self.parents[i] as usize;
        if !self.nodes[p].needs_grad {
            return;
        }
        match &mut self.grads[p] {
            Some(acc) => acc.accumulate(&grad),
            slot @ None => *slot = Some(grad),
        }
    }

    /// [`Slots::put`] for each present contribution, in parent order.
    pub(crate) fn put_each<const N: usize>(&mut self, grads: [Option<Tensor>; N]) {
        for (i, grad) in grads.into_iter().enumerate() {
            if let Some(grad) = grad {
                self.put(i, grad);
            }
        }
    }
}

/// A dynamic computation graph (autodiff tape).
///
/// # Examples
///
/// ```
/// use lac_tensor::{Graph, Tensor};
///
/// let g = Graph::new();
/// let x = g.var(Tensor::from_vec(vec![2.0, 3.0], &[2]));
/// let y = x.mul(&x).sum(); // y = Σ x²
/// let grads = g.backward(&y);
/// assert_eq!(grads.get(&x).data(), &[4.0, 6.0]); // dy/dx = 2x
/// ```
pub struct Graph {
    tape: Rc<RefCell<Tape>>,
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph").field("nodes", &self.tape.borrow().nodes.len()).finish()
    }
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Graph { tape: Rc::new(RefCell::new(Tape::default())) }
    }

    /// Record a leaf that needs a gradient (a parameter snapshot).
    pub fn var(&self, value: Tensor) -> Var {
        self.leaf(value, true)
    }

    /// Record a leaf that needs no gradient: an input, a target or a
    /// fixed table — data, never differentiated.
    ///
    /// Ops whose operands are all constants record their value and no
    /// backward op; an op mixing a constant with a [`Graph::var`]
    /// skips the constant's side of its backward. [`Gradients::get`] of
    /// a constant is zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// use lac_tensor::{Graph, Tensor};
    ///
    /// let g = Graph::new();
    /// let x = g.constant(Tensor::from_vec(vec![2.0, 3.0], &[2]));
    /// let w = g.var(Tensor::from_vec(vec![0.5, -1.0], &[2]));
    /// let y = x.square(); // constant-only: no backward op
    /// assert_eq!(g.backward_closures(), 0);
    /// let grads = g.backward(&y.mul(&w).sum());
    /// assert_eq!(grads.get(&w).data(), &[4.0, 9.0]);
    /// assert_eq!(grads.get(&x).data(), &[0.0, 0.0]);
    /// ```
    pub fn constant(&self, value: Tensor) -> Var {
        self.leaf(value, false)
    }

    fn leaf(&self, value: Tensor, needs_grad: bool) -> Var {
        let mut tape = self.tape.borrow_mut();
        tape.nodes.push(Node { value, needs_grad });
        Var { tape: Rc::clone(&self.tape), id: tape.nodes.len() - 1 }
    }

    /// Clear the tape for reuse, keeping the node list's capacity.
    ///
    /// Training loops that build one graph per sample pay a fresh
    /// allocation ramp every time; a recycled graph records the next
    /// sample's nodes into the same backing storage. All [`Var`] and
    /// [`Gradients`] handles from before the reset are invalidated — their
    /// ids now point at nodes of the *next* recording (or out of bounds).
    /// Callers must drop them first; this is the same single-owner
    /// discipline as "build a fresh graph per step", minus the allocation.
    pub fn reset(&self) {
        let mut tape = self.tape.borrow_mut();
        tape.nodes.clear();
        tape.ops.clear();
        tape.parent_ids.clear();
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.tape.borrow().nodes.len()
    }

    /// True when no node has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of recorded op nodes whose backward has not yet run: the op
    /// nodes that need a gradient, until [`Graph::backward`] consumes
    /// them. Zero for a graph built from constants alone.
    pub fn backward_closures(&self) -> usize {
        self.tape.borrow().ops.len()
    }

    /// Run the backward pass from `loss`, consuming the tape's ops.
    ///
    /// Returns the gradient of `loss` with respect to every recorded node
    /// that needs one; nodes that need none (constants and ops over
    /// constants only) are skipped and read as zeros.
    /// A second call on the same graph yields zero gradients because the
    /// ops have been consumed — build a fresh graph per step instead.
    ///
    /// # Panics
    ///
    /// Panics if `loss` belongs to a different graph.
    pub fn backward(&self, loss: &Var) -> Gradients {
        assert!(
            Rc::ptr_eq(&self.tape, &loss.tape),
            "backward() called with a Var from a different graph"
        );
        let mut tape = self.tape.borrow_mut();
        let Tape { nodes, ops, parent_ids } = &mut *tape;
        let mut grads: Vec<Option<Tensor>> = vec![None; nodes.len()];
        grads[loss.id] = Some(Tensor::ones(nodes[loss.id].value.shape()));
        for OpNode { id, parents, op } in ops.drain(..).rev() {
            let (below, here) = grads.split_at_mut(id as usize);
            let Some(g) = &here[0] else { continue };
            let parents = &parent_ids[parents.start as usize..parents.end as usize];
            op.backward(g, &mut Slots { nodes: &nodes[..id as usize], grads: below, parents });
        }
        Gradients { grads, tape: Rc::clone(&self.tape) }
    }
}

/// A handle to a node in a [`Graph`].
///
/// Cloning a `Var` clones the handle, not the value. All tensor operations
/// live in the ops modules as inherent methods (`add`, `mul`, `matmul`,
/// `conv2d`, `quantize_ste`, `approx_matmul`, …).
#[derive(Clone)]
pub struct Var {
    pub(crate) tape: Rc<RefCell<Tape>>,
    pub(crate) id: usize,
}

impl std::fmt::Debug for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Var").field("id", &self.id).field("value", &self.value()).finish()
    }
}

impl Var {
    /// A snapshot of this node's value.
    pub fn value(&self) -> Tensor {
        self.tape.borrow().nodes[self.id].value.clone()
    }

    /// Shape of this node's value.
    pub fn shape(&self) -> Vec<usize> {
        self.tape.borrow().nodes[self.id].value.shape().to_vec()
    }

    /// The scalar value of a one-element node.
    ///
    /// # Panics
    ///
    /// Panics if the node holds more than one element.
    pub fn item(&self) -> f64 {
        self.tape.borrow().nodes[self.id].value.item()
    }

    /// Whether this node needs a gradient: a [`Graph::var`] leaf, or an
    /// op with at least one parent that needs one.
    pub(crate) fn needs_grad(&self) -> bool {
        self.tape.borrow().nodes[self.id].needs_grad
    }

    /// Run `f` on this node's value, borrowed from the tape: the forward
    /// read of an op, without [`Var::value`]'s copy. `f` must not record
    /// on the tape.
    pub(crate) fn with_value<R>(&self, f: impl FnOnce(&Tensor) -> R) -> R {
        f(&self.tape.borrow().nodes[self.id].value)
    }

    /// [`Var::with_value`] on the values of `self` and `other` at once,
    /// after [`Var::same_graph`] on them.
    pub(crate) fn with_values<R>(
        &self,
        other: &Var,
        op: &str,
        f: impl FnOnce(&Tensor, &Tensor) -> R,
    ) -> R {
        self.same_graph(other, op);
        self.with_value(|a| other.with_value(|b| f(a, b)))
    }

    /// Panic, naming `op`, unless `other` lives on this node's graph.
    pub(crate) fn same_graph(&self, other: &Var, op: &str) {
        assert!(Rc::ptr_eq(&self.tape, &other.tape), "{op}: operands belong to different graphs");
    }

    /// Record an op node holding `value` over the nodes `parents` of
    /// this tape. The node needs a gradient iff some parent does; only
    /// then does it keep `op` and its parent list (an op computes any
    /// value `op` saves only then too).
    pub(crate) fn record<P>(&self, parents: P, value: Tensor, op: Op) -> Var
    where
        P: IntoIterator<Item = usize>,
        P::IntoIter: Clone,
    {
        let parents = parents.into_iter();
        let mut tape = self.tape.borrow_mut();
        let needs_grad = parents.clone().any(|p| tape.nodes[p].needs_grad);
        tape.nodes.push(Node { value, needs_grad });
        let id = tape.nodes.len() - 1;
        if needs_grad {
            let at = |n: usize| u32::try_from(n).expect("a tape holds fewer than 2^32 nodes");
            let start = at(tape.parent_ids.len());
            tape.parent_ids.extend(parents.map(at));
            let parents = start..at(tape.parent_ids.len());
            tape.ops.push(OpNode { id: at(id), parents, op });
        }
        Var { tape: Rc::clone(&self.tape), id }
    }

    /// [`Var::record`] of the elementwise map `f` of this node's value.
    pub(crate) fn record_map(&self, f: impl Fn(f64) -> f64, op: Op) -> Var {
        let value = self.with_value(|a| a.map(f));
        self.record([self.id], value, op)
    }
}

impl Op {
    /// The backward rule: send each parent that needs one its share of
    /// the node's gradient `g`, in parent order.
    fn backward(self, g: &Tensor, slots: &mut Slots<'_>) {
        use crate::{matmul_fast, ops};
        match self {
            Op::Pass => {
                for i in 0..slots.parents.len() {
                    if slots.needs(i) {
                        slots.put(i, g.clone());
                    }
                }
            }
            Op::Sub => {
                let grads =
                    [slots.needs(0).then(|| g.clone()), slots.needs(1).then(|| g.map(|v| -v))];
                slots.put_each(grads);
            }
            Op::Neg => slots.put(0, g.map(|v| -v)),
            Op::Scale(c) => slots.put(0, g.map(|v| v * c)),
            Op::Map(df) => slots.put(0, g.zip_map(slots.value(0), df)),
            Op::Clamp(lo, hi) => {
                let df = |gv, av: f64| if (lo..=hi).contains(&av) { gv } else { 0.0 };
                slots.put(0, g.zip_map(slots.value(0), df));
            }
            // The clipped straight-through estimator: blocked once the
            // master value has left the representable range.
            Op::QuantizeSte(lo, hi) => {
                let df = |gv, av| if av < lo || av > hi { 0.0 } else { gv };
                slots.put(0, g.zip_map(slots.value(0), df));
            }
            Op::Sum => slots.put(0, Tensor::full(slots.value(0).shape(), g.item())),
            Op::Mean => {
                let a = slots.value(0);
                slots.put(0, Tensor::full(a.shape(), g.item() / a.len() as f64));
            }
            // The loss chain's backward: `mean` hands each element `g / n`,
            // the square doubles `d·(g / n)`, `sub` and `reshape` pass it on.
            Op::MseTo(mut d) => {
                let gv = g.item() / d.len() as f64;
                d.data_mut().iter_mut().for_each(|d| *d = 2.0 * *d * gv);
                slots.put(0, d.reshaped(slots.value(0).shape()));
            }
            Op::Reshape => slots.put(0, g.clone().reshaped(slots.value(0).shape())),
            Op::Transpose => slots.put(0, g.transpose()),
            Op::Atan2 => slots.put_each(ops::atan2_grads(g, slots)),
            // Each parent receives a copy of its span of `g`, under its
            // own shape.
            Op::Concat => {
                let mut offset = 0;
                for i in 0..slots.parents.len() {
                    let part = slots.value(i);
                    let chunk = &g.data()[offset..offset + part.len()];
                    offset += chunk.len();
                    if slots.needs(i) {
                        slots.put(i, Tensor::from_vec(pool::take_copy(chunk), part.shape()));
                    }
                }
            }
            // The product rule: `g ⊙ b` to `a`, `g ⊙ a` to `b`.
            Op::Product(epilogue) => {
                let g = epilogue.backward(g, None);
                let (a, b) = (slots.value_for(0, 1), slots.value_for(1, 0));
                let grads = [
                    b.map(|b| g.zip_map(b, |gv, bv| gv * bv)),
                    a.map(|a| g.zip_map(a, |gv, av| gv * av)),
                ];
                slots.put_each(grads);
            }
            Op::Matmul(epilogue) => {
                let g = epilogue.backward(g, None);
                let (a, b) = (slots.value_for(0, 1), slots.value_for(1, 0));
                slots.put_each(matmul_fast::matmul_grads(a, b, &g));
            }
            Op::Conv { shape, epilogue, pre } => {
                let g = epilogue.backward(g, pre.as_ref());
                let (pixels, taps) = (slots.value_for(0, 1), slots.value_for(1, 0));
                slots.put_each(ops::conv_grads(shape, taps, pixels, &g));
            }
            Op::BlockTransform { side, scales, epilogue, pre, mid } => {
                let g = epilogue.backward(g, pre.as_ref());
                slots.put_each(block_transform_grads(side, scales, mid.as_ref(), &g, slots));
            }
            // `dx` reads only the coefficient value, `dc` the pixels.
            Op::ApproxScale(cv) => {
                let dx = slots.needs(0).then(|| g.map(|gv| gv * cv));
                let dc = slots.value_for(0, 1).map(|x| {
                    let dc: f64 = g.data().iter().zip(x.data()).map(|(&gv, &xv)| gv * xv).sum();
                    Tensor::full(slots.value(1).shape(), dc)
                });
                slots.put_each([dx, dc]);
            }
        }
    }
}

/// Gradients produced by [`Graph::backward`].
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
    tape: Rc<RefCell<Tape>>,
}

impl std::fmt::Debug for Gradients {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let present = self.grads.iter().filter(|g| g.is_some()).count();
        f.debug_struct("Gradients")
            .field("nodes", &self.grads.len())
            .field("with_grad", &present)
            .finish()
    }
}

impl Gradients {
    /// Gradient of the loss with respect to `var`, zero-filled when the
    /// loss does not depend on it or `var` needs no gradient (a
    /// [`Graph::constant`], or an op over constants only).
    ///
    /// # Panics
    ///
    /// Panics if `var` belongs to a different graph.
    pub fn get(&self, var: &Var) -> Tensor {
        assert!(
            Rc::ptr_eq(&self.tape, &var.tape),
            "Gradients::get called with a Var from a different graph"
        );
        match &self.grads[var.id] {
            Some(g) => g.clone(),
            None => Tensor::zeros(self.tape.borrow().nodes[var.id].value.shape()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_round_trip() {
        let g = Graph::new();
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let v = g.var(t.clone());
        assert_eq!(v.value(), t);
        assert_eq!(v.shape(), vec![2]);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn grad_of_unrelated_leaf_is_zero() {
        let g = Graph::new();
        let a = g.var(Tensor::scalar(1.0));
        let b = g.var(Tensor::scalar(2.0));
        let loss = a.mul(&a);
        let grads = g.backward(&loss);
        assert_eq!(grads.get(&b).item(), 0.0);
        assert_eq!(grads.get(&a).item(), 2.0);
    }

    #[test]
    fn diamond_graph_accumulates() {
        // loss = x*x + x*x : dloss/dx = 4x
        let g = Graph::new();
        let x = g.var(Tensor::scalar(3.0));
        let a = x.mul(&x);
        let b = x.mul(&x);
        let loss = a.add(&b);
        let grads = g.backward(&loss);
        assert_eq!(grads.get(&x).item(), 12.0);
    }

    #[test]
    #[should_panic(expected = "different graph")]
    fn backward_rejects_foreign_var() {
        let g1 = Graph::new();
        let g2 = Graph::new();
        let v2 = g2.var(Tensor::scalar(1.0));
        g1.backward(&v2);
    }

    #[test]
    fn reset_reuses_tape_and_keeps_results_identical() {
        let g = Graph::new();
        let mut first: Option<Vec<f64>> = None;
        for _ in 0..3 {
            g.reset();
            assert!(g.is_empty());
            let x = g.var(Tensor::from_vec(vec![2.0, 3.0], &[2]));
            let loss = x.mul(&x).sum();
            let grads = g.backward(&loss);
            let got = grads.get(&x).data().to_vec();
            match &first {
                Some(expect) => assert_eq!(&got, expect),
                None => first = Some(got),
            }
        }
    }

    #[test]
    fn constant_only_subgraph_records_no_closure() {
        let g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]));
        let t = g.constant(Tensor::from_vec(vec![0.5, 0.5, 0.5], &[3]));
        let y = x.square().mul(&t).add_scalar(1.0).clamp(0.0, 4.0).sum();
        assert_eq!(g.backward_closures(), 0);
        assert!(!y.needs_grad());
        assert_eq!(y.item(), 1.5 + 3.0 + 4.0);
        // One var operand makes its op, and every op downstream, record.
        let w = g.var(Tensor::scalar(2.0));
        let z = y.reshape(&[1]).mul(&w.reshape(&[1])).sum();
        assert!(z.needs_grad());
        // `w`'s reshape, the product and the sum; not `y`'s reshape.
        assert_eq!(g.backward_closures(), 3);
        g.backward(&z);
        assert_eq!(g.backward_closures(), 0, "backward consumes every op");
    }

    #[test]
    fn gradient_of_a_constant_is_zeros() {
        let g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![2.0, 3.0], &[2]));
        let w = g.var(Tensor::from_vec(vec![5.0, -1.0], &[2]));
        let sq = x.square();
        let grads = g.backward(&sq.mul(&w).sum());
        assert_eq!(grads.get(&w).data(), &[4.0, 9.0]);
        assert_eq!(grads.get(&x).data(), &[0.0, 0.0]);
        assert_eq!(grads.get(&sq).data(), &[0.0, 0.0]);
        // The same graph with `x` as a var gives `x` its gradient and `w`
        // the same one as before.
        let g = Graph::new();
        let x = g.var(Tensor::from_vec(vec![2.0, 3.0], &[2]));
        let w = g.var(Tensor::from_vec(vec![5.0, -1.0], &[2]));
        let grads = g.backward(&x.square().mul(&w).sum());
        assert_eq!(grads.get(&w).data(), &[4.0, 9.0]);
        assert_eq!(grads.get(&x).data(), &[20.0, -6.0]);
    }

    #[test]
    fn var_debug_is_nonempty() {
        let g = Graph::new();
        let v = g.var(Tensor::scalar(1.0));
        assert!(!format!("{v:?}").is_empty());
        assert!(!format!("{g:?}").is_empty());
    }
}
