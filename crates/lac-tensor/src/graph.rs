//! The reverse-mode autodiff tape.
//!
//! A [`Graph`] records every operation applied to its [`Var`] handles;
//! [`Graph::backward`] replays the tape in reverse, producing gradients
//! for the nodes that need them. Training code keeps parameters as plain
//! [`Tensor`]s, builds a fresh graph per step, and reads gradients out of
//! the returned [`Gradients`] map — the same discipline as a define-by-run
//! framework like the PyTorch setup the LAC paper trains with.
//!
//! # What needs a gradient
//!
//! Every node carries a `needs_grad` flag, fixed when it is recorded:
//! [`Graph::var`] leaves need a gradient, [`Graph::constant`] leaves do
//! not, and an op node needs one iff at least one of its parents does
//! (`requires_grad` in PyTorch terms). Only a node that needs a gradient
//! stores a backward closure, and an op builds that closure — copying the
//! inputs its backward reads — only then; otherwise the op computes its
//! value from borrowed inputs and records nothing else. Within a closure,
//! the gradient of an operand that needs none is never computed, and
//! [`Graph::backward`] never sends a gradient to such a parent, so
//! [`Gradients::get`] of a constant is zeros. A graph built from
//! constants alone (an inference pass) records no closure at all;
//! [`Graph::backward_closures`] counts them.

use std::cell::RefCell;
use std::rc::Rc;

use crate::tensor::Tensor;

/// Backward closure: maps the gradient flowing into a node to the gradient
/// contributions of its parents, aligned with the node's parent list —
/// `None` for a parent that needs no gradient.
pub(crate) type BackwardFn = Box<dyn FnOnce(&Tensor) -> Vec<Option<Tensor>>>;

pub(crate) struct Node {
    pub(crate) value: Tensor,
    pub(crate) parents: Vec<usize>,
    pub(crate) needs_grad: bool,
    pub(crate) backward: Option<BackwardFn>,
}

#[derive(Default)]
pub(crate) struct Tape {
    pub(crate) nodes: Vec<Node>,
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
    /// backward closure; an op mixing a constant with a [`Graph::var`]
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
    /// let y = x.square(); // constant-only: no closure
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
        tape.nodes.push(Node { value, parents: Vec::new(), needs_grad, backward: None });
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
        self.tape.borrow_mut().nodes.clear();
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.tape.borrow().nodes.len()
    }

    /// True when no node has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of recorded nodes holding a backward closure not yet
    /// consumed by [`Graph::backward`]: the op nodes that need a
    /// gradient. Zero for a graph built from constants alone.
    pub fn backward_closures(&self) -> usize {
        self.tape.borrow().nodes.iter().filter(|n| n.backward.is_some()).count()
    }

    /// Run the backward pass from `loss`, consuming the tape's closures.
    ///
    /// Returns the gradient of `loss` with respect to every recorded node
    /// that needs one; nodes that need none (constants and ops over
    /// constants only) are skipped and read as zeros.
    /// A second call on the same graph yields zero gradients because the
    /// closures have been consumed — build a fresh graph per step instead.
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
        let n = tape.nodes.len();
        let mut grads: Vec<Option<Tensor>> = vec![None; n];
        grads[loss.id] = Some(Tensor::ones(tape.nodes[loss.id].value.shape()));

        for id in (0..n).rev() {
            if grads[id].is_none() {
                continue;
            }
            let Some(backward) = tape.nodes[id].backward.take() else { continue };
            // Move the node's gradient out for the closure call and put it
            // back afterwards: same values as a clone, without the deep
            // copy of a tensor (and a parents vec) per node.
            let grad = grads[id].take().expect("checked above");
            let parents = std::mem::take(&mut tape.nodes[id].parents);
            let parent_grads = backward(&grad);
            grads[id] = Some(grad);
            assert_eq!(
                parent_grads.len(),
                parents.len(),
                "backward fn of node {id} returned {} grads for {} parents",
                parent_grads.len(),
                parents.len()
            );
            for (pid, pgrad) in parents.into_iter().zip(parent_grads) {
                let Some(pgrad) = pgrad.filter(|_| tape.nodes[pid].needs_grad) else { continue };
                match &mut grads[pid] {
                    Some(existing) => existing.accumulate(&pgrad),
                    slot @ None => *slot = Some(pgrad),
                }
            }
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

    /// [`Var::with_value`] on the values of `self` and `other` at once.
    pub(crate) fn with_values<R>(&self, other: &Var, f: impl FnOnce(&Tensor, &Tensor) -> R) -> R {
        self.with_value(|a| other.with_value(|b| f(a, b)))
    }

    pub(crate) fn same_tape(&self, other: &Var) -> bool {
        Rc::ptr_eq(&self.tape, &other.tape)
    }

    /// Record an op node holding `value` over the nodes `parents` of
    /// this tape. A `backward` closure — which an op builds only when
    /// some parent needs a gradient, copying the inputs it reads then and
    /// never before — makes the node need a gradient; without one the
    /// node keeps neither closure nor parent list.
    pub(crate) fn record(
        &self,
        parents: &[usize],
        value: Tensor,
        backward: Option<BackwardFn>,
    ) -> Var {
        let parents = if backward.is_some() { parents.to_vec() } else { Vec::new() };
        let needs_grad = backward.is_some();
        let mut tape = self.tape.borrow_mut();
        tape.nodes.push(Node { value, parents, needs_grad, backward });
        Var { tape: Rc::clone(&self.tape), id: tape.nodes.len() - 1 }
    }

    /// [`Var::record`] for a one-input op: `backward` builds the map from
    /// the node's gradient to this input's, called only when this input
    /// needs a gradient.
    pub(crate) fn record_unary<F>(&self, value: Tensor, backward: impl FnOnce() -> F) -> Var
    where
        F: FnOnce(&Tensor) -> Tensor + 'static,
    {
        let closure = self.needs_grad().then(|| {
            let f = backward();
            Box::new(move |g: &Tensor| vec![Some(f(g))]) as BackwardFn
        });
        self.record(&[self.id], value, closure)
    }

    /// [`Var::record`] for a two-input op `self ∘ other`: `backward`
    /// receives whether `self` and `other` need a gradient — called only
    /// when one does — and builds the map to their two gradients, `None`
    /// where one is not needed.
    pub(crate) fn record_binary<F>(
        &self,
        other: &Var,
        value: Tensor,
        backward: impl FnOnce(bool, bool) -> F,
    ) -> Var
    where
        F: FnOnce(&Tensor) -> [Option<Tensor>; 2] + 'static,
    {
        let (na, nb) = (self.needs_grad(), other.needs_grad());
        let closure = (na || nb).then(|| {
            let f = backward(na, nb);
            Box::new(move |g: &Tensor| Vec::from(f(g))) as BackwardFn
        });
        self.record(&[self.id, other.id], value, closure)
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
        assert_eq!(g.backward_closures(), 0, "backward consumes every closure");
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
