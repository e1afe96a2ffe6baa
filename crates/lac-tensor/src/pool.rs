//! Per-thread scratch-buffer recycling for tensor storage.
//!
//! The training hot loop allocates a fresh `Vec<f64>` for every `map`,
//! `zip_map`, clone, and gradient tensor — thousands of short-lived
//! heap allocations per sample. Inside a [`scope`], dropped tensors
//! return their buffers to a thread-local free list and new tensors are
//! carved out of it, so after the first sample of a chunk the steady
//! state is allocation-free.
//!
//! # Lifetime rules
//!
//! * The pool is **thread-local**: each evaluation worker recycles only
//!   its own buffers; nothing is shared or locked.
//! * Recycling happens only while at least one [`scope`] is active on
//!   the current thread. Outside a scope, tensor drops free normally and
//!   tensor allocations hit the system allocator — library users who
//!   never opt in pay only an untaken branch.
//! * Scopes nest; the free list is emptied when the outermost scope
//!   exits (including on panic), so pooled memory never outlives the
//!   evaluation call that created it.
//! * Tensors may freely *escape* a scope (e.g. per-chunk gradient
//!   results sent back to the reducing thread): a tensor owns its buffer
//!   wherever it goes, and a drop on a thread or time without an active
//!   scope is an ordinary free.
//! * The free list is capped at [`MAX_POOLED`] buffers; excess drops
//!   free normally, bounding worst-case retention.
//!
//! # Size classes
//!
//! Idle buffers are binned by capacity into power-of-two classes: a
//! buffer of capacity `c` sits in class `⌊log₂ c⌋`. A request for `n`
//! elements looks at two places only — the most recently freed buffer
//! of class `⌊log₂ n⌋`, taken if its capacity reaches `n`, and then any
//! buffer of the next class up, whose capacity always does — and
//! otherwise allocates exactly `n`. A step's tensors come in a handful
//! of repeating sizes, so a request finds a freed buffer of its own size
//! in O(1), and a small request never walks off with the large buffer
//! the next large request needs (which would then have to grow a small
//! one).
//!
//! Determinism is unaffected by construction: the pool changes where
//! buffers come from, never what is written into them — every element of
//! a pooled tensor is written before it is read.

use std::cell::RefCell;

/// Maximum number of idle buffers retained per thread.
pub(crate) const MAX_POOLED: usize = 256;

/// One class per possible `⌊log₂ capacity⌋`.
const CLASSES: usize = usize::BITS as usize;

thread_local! {
    static POOL: RefCell<Pool> = const {
        RefCell::new(Pool { free: [const { Vec::new() }; CLASSES], idle: 0, depth: 0 })
    };
}

struct Pool {
    /// Idle buffers by size class, most recently freed last.
    free: [Vec<Vec<f64>>; CLASSES],
    /// Idle buffers over all classes.
    idle: usize,
    depth: usize,
}

/// The size class of a buffer of capacity `cap > 0`: `⌊log₂ cap⌋`.
fn class(cap: usize) -> usize {
    (usize::BITS - 1 - cap.leading_zeros()) as usize
}

impl Pool {
    /// An idle buffer, emptied, with capacity at least `n`, if one of
    /// the two classes a request looks at holds one.
    #[inline]
    fn take(&mut self, n: usize) -> Option<Vec<f64>> {
        let c = class(n | 1);
        let mut buf = match self.free[c].last() {
            Some(top) if top.capacity() >= n => self.free[c].pop(),
            _ => self.free.get_mut(c + 1).and_then(Vec::pop),
        }?;
        self.idle -= 1;
        buf.clear();
        Some(buf)
    }

    fn clear(&mut self) {
        self.free.iter_mut().for_each(Vec::clear);
        self.idle = 0;
    }
}

/// Run `f` with buffer recycling enabled on the current thread.
///
/// See the module docs for the lifetime rules. Returns `f`'s result;
/// the pool is emptied when the outermost scope exits, panic or not.
pub fn scope<R>(f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            POOL.with(|p| {
                let mut p = p.borrow_mut();
                p.depth -= 1;
                if p.depth == 0 {
                    p.clear();
                }
            });
        }
    }
    POOL.with(|p| p.borrow_mut().depth += 1);
    let _guard = Guard;
    f()
}

/// An empty buffer with at least `cap` capacity, recycled when the pool
/// is active and one of the size classes it looks at has one.
#[inline]
pub(crate) fn take_with_capacity(cap: usize) -> Vec<f64> {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        let recycled = if p.depth > 0 { p.take(cap) } else { None };
        recycled.unwrap_or_else(|| Vec::with_capacity(cap))
    })
}

/// A buffer of length `len`, every element `value`.
#[inline]
pub(crate) fn take_filled(len: usize, value: f64) -> Vec<f64> {
    let mut buf = take_with_capacity(len);
    buf.resize(len, value);
    buf
}

/// A zero-filled buffer of length `len`.
#[inline]
pub(crate) fn take_zeroed(len: usize) -> Vec<f64> {
    take_filled(len, 0.0)
}

/// A buffer holding a copy of `src`.
#[inline]
pub(crate) fn take_copy(src: &[f64]) -> Vec<f64> {
    let mut buf = take_with_capacity(src.len());
    buf.extend_from_slice(src);
    buf
}

/// Return a buffer to the pool (dropped in place when no scope is
/// active, the buffer never allocated, or the free list is full).
#[inline]
pub(crate) fn give(buf: Vec<f64>) {
    if buf.capacity() == 0 {
        return;
    }
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.depth > 0 && p.idle < MAX_POOLED {
            p.idle += 1;
            p.free[class(buf.capacity())].push(buf);
        }
    });
}

/// Number of idle buffers currently held by this thread's pool
/// (test/diagnostic hook).
#[cfg(test)]
pub(crate) fn idle_buffers() -> usize {
    POOL.with(|p| p.borrow().idle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn recycles_inside_scope_only() {
        // Outside any scope: drops free normally, nothing retained.
        drop(Tensor::zeros(&[64]));
        assert_eq!(idle_buffers(), 0);

        scope(|| {
            drop(Tensor::zeros(&[64]));
            assert_eq!(idle_buffers(), 1);
            let t = Tensor::zeros(&[32]); // reuses the idle buffer
            assert_eq!(idle_buffers(), 0);
            assert!(t.data().iter().all(|&v| v == 0.0));
        });
        // Outermost scope exit empties the free list.
        assert_eq!(idle_buffers(), 0);
    }

    #[test]
    fn pooled_buffers_are_fully_rewritten() {
        scope(|| {
            drop(Tensor::from_vec(vec![9.0; 16], &[16]));
            let z = Tensor::zeros(&[8]);
            assert!(z.data().iter().all(|&v| v == 0.0), "stale data leaked");
            drop(z);
            let m = Tensor::from_vec(vec![1.0; 4], &[4]).map(|v| v + 1.0);
            assert_eq!(m.data(), &[2.0, 2.0, 2.0, 2.0]);
        });
    }

    #[test]
    fn nested_scopes_share_one_pool() {
        scope(|| {
            drop(Tensor::zeros(&[4]));
            scope(|| {
                assert_eq!(idle_buffers(), 1);
                let a = Tensor::zeros(&[4]); // takes the idle buffer
                assert_eq!(idle_buffers(), 0);
                let b = Tensor::zeros(&[4]); // pool empty: fresh allocation
                drop(a);
                drop(b);
                assert_eq!(idle_buffers(), 2);
            });
            // Inner exit is not the outermost: list survives.
            assert_eq!(idle_buffers(), 2);
        });
        assert_eq!(idle_buffers(), 0);
    }

    #[test]
    fn scope_cleans_up_on_panic() {
        let result = std::panic::catch_unwind(|| {
            scope(|| {
                drop(Tensor::zeros(&[4]));
                panic!("boom");
            })
        });
        assert!(result.is_err());
        assert_eq!(idle_buffers(), 0);
    }

    #[test]
    fn escaping_tensors_stay_valid() {
        let t = scope(|| {
            let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
            a.map(|v| v * 3.0)
        });
        assert_eq!(t.data(), &[3.0, 6.0]);
    }

    /// A request takes a freed buffer of its own size class (or the
    /// next), never a far larger one another request will want, and
    /// never a smaller one it would have to grow.
    #[test]
    fn requests_take_from_their_size_class() {
        scope(|| {
            let (small, large) = (Tensor::zeros(&[64]), Tensor::zeros(&[1024]));
            let large_ptr = large.data().as_ptr();
            drop(large);
            drop(small);
            // The most recently freed buffer is the small one, but the
            // large request finds its own class.
            let large = Tensor::zeros(&[1000]);
            assert_eq!(large.data().as_ptr(), large_ptr);
            assert_eq!(idle_buffers(), 1);
            // A 9-element request leaves the 64-element buffer (class 6)
            // to requests of 32 or more elements.
            let taps = Tensor::zeros(&[9]);
            assert_eq!(idle_buffers(), 1);
            drop(taps);
            let t = Tensor::zeros(&[33]);
            assert_eq!(t.data().len(), 33);
            assert_eq!(idle_buffers(), 1, "the 9-element buffer stays idle");
            // A freed 9-element buffer (class 3) serves 8 to 9 elements.
            let eight = Tensor::zeros(&[8]);
            assert_eq!(idle_buffers(), 0);
            drop(eight);
        });
    }

    #[test]
    fn pool_is_capped() {
        scope(|| {
            for _ in 0..(MAX_POOLED + 50) {
                // Each tensor allocates (list is drained one-for-one), so
                // force distinct buffers by holding them all first.
                std::hint::black_box(());
            }
            let held: Vec<Tensor> = (0..MAX_POOLED + 50).map(|_| Tensor::zeros(&[1])).collect();
            drop(held);
            assert_eq!(idle_buffers(), MAX_POOLED);
        });
    }
}
