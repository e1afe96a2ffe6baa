//! The request batcher: a bounded FIFO queue that coalesces same-key
//! runs.
//!
//! Readers push `(key, item)` pairs in arrival order; the dispatcher
//! pops *batches*. A batch is the head run of consecutive same-key
//! items, capped at `max_batch` — a pure function of the queue's
//! arrival order, so batch composition is reproducible from a recorded
//! arrival order alone, independent of thread scheduling. Lingering
//! only ever adds items that arrive at the head of the queue, never
//! reorders.
//!
//! # Linger is a cap, not a wait
//!
//! Batching is *work-conserving*: a short batch waits for more
//! same-key work only when an arrival is possible and due. Two pieces
//! of queue state decide it, both kept under the queue's lock.
//!
//! **The in-flight ledger.** Every push names its *source* (the
//! connection it came from). Per source the queue counts `outstanding`
//! admitted requests not yet [released](BatchQueue::release) and the
//! `window`, the most it has ever had outstanding. A source is
//! *blocked* when `outstanding ≥ window ≥ 1`: a client that has never
//! sent more than `window` ahead cannot send again until it is
//! answered. After taking the head run, the dispatcher dispatches at
//! once when every live source is blocked, since no arrival can come.
//! A source enters the ledger with its first admitted request (so a
//! connection that only pings is never one) and leaves it when
//! [closed](BatchQueue::close_source). A pipelining client shows a
//! window of two or more the first time it sends ahead, so open-loop
//! traffic keeps the arrival rule below. The dispatcher must release a
//! batch's slots before its answers reach the transport, or a client
//! that resends on reading its answer is seen with two outstanding and
//! its window grows.
//!
//! **The arrival rule.** The queue stamps every admitted arrival with
//! its [`Clock`] and keeps one queue-wide EWMA of the inter-arrival
//! gaps (integer µs, α = 1/8). When some source is not blocked, the
//! dispatcher waits only while the batch is short, the queue head is
//! empty, the queue is open, and the predicted next arrival
//! (`last_arrival + ewma_gap`) falls before `first_pop + linger`. It
//! waits until that predicted instant, not to the end of the cap; an
//! arrival it catches extends the batch and is followed by a fresh
//! decision, and the first predicted instant that passes with no
//! arrival dispatches the batch. Sparse traffic (gaps above the cap)
//! therefore dispatches at once, and a linger of zero never waits.
//!
//! Both rules are pure functions of queue state (`Arrivals::linger_until`
//! and `Ledger::all_blocked`), tested on a mock clock.
//!
//! The key is generic (`K: Copy + PartialEq`): the server batches on a
//! composite of the kernel and a poison marker, so fault-injection
//! probes never share a batch with real traffic.
//!
//! Admission is *bounded*: a queue built with
//! [`BatchQueue::bounded`] refuses pushes past its depth cap with
//! [`Admission::Busy`] instead of growing without limit — the caller
//! turns that into a `BUSY` shed frame. Response bytes do not depend on
//! batch composition (per-sample outputs are batch-invariant — see
//! `lac_core::ServingModel::infer_mode`), so lingering trades latency for
//! throughput without touching determinism.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use lac_rt::clock::{Clock, MonotonicClock};

/// Outcome of a [`BatchQueue::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The item was queued.
    Admitted,
    /// The queue is at its depth cap; the item was refused.
    Busy {
        /// Queue depth at the moment of refusal.
        depth: usize,
    },
    /// The queue is closed (server draining); the item was refused.
    Closed,
}

/// Arrival history behind the linger decision: the last admitted
/// arrival's clock reading and an EWMA of the gaps between arrivals.
#[derive(Debug, Default)]
pub(crate) struct Arrivals {
    last: Option<u64>,
    ewma_gap: Option<u64>,
}

impl Arrivals {
    /// Record an arrival at clock reading `now_us`. The first gap seeds
    /// the EWMA; later gaps move it by one eighth of the difference.
    pub(crate) fn stamp(&mut self, now_us: u64) {
        if let Some(last) = self.last {
            let gap = now_us.saturating_sub(last);
            self.ewma_gap = Some(match self.ewma_gap {
                Some(ewma) => ewma.saturating_mul(7).saturating_add(gap) / 8,
                None => gap,
            });
        }
        self.last = Some(now_us);
    }

    /// The linger decision for a short batch whose first item was
    /// popped at `first_pop_us`, asked at `now_us`: `Some(t)` waits
    /// until clock reading `t` for the predicted next arrival; `None`
    /// dispatches now. Waits only when the prediction is still ahead
    /// of `now_us` and before the cap `first_pop_us + linger_us`, so a
    /// wait never passes the cap and a zero linger never waits. Nothing
    /// is predicted before two arrivals have been seen.
    pub(crate) fn linger_until(
        &self,
        now_us: u64,
        first_pop_us: u64,
        linger_us: u64,
    ) -> Option<u64> {
        let predicted = self.last?.saturating_add(self.ewma_gap?);
        let cap = first_pop_us.saturating_add(linger_us);
        (predicted > now_us && predicted < cap).then_some(predicted)
    }
}

/// One source's in-flight counts.
#[derive(Debug, Default)]
struct InFlight {
    /// Admitted requests not yet released.
    outstanding: usize,
    /// The most this source has ever had outstanding.
    window: usize,
    /// The connection is gone; the entry stays only until its
    /// outstanding requests are released.
    closed: bool,
}

/// The per-source in-flight ledger behind the blocked-source rule (see
/// the [module docs](self)).
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    sources: HashMap<u64, InFlight>,
}

impl Ledger {
    /// Count one admitted request from `source`.
    pub(crate) fn admit(&mut self, source: u64) {
        let f = self.sources.entry(source).or_default();
        f.outstanding += 1;
        f.window = f.window.max(f.outstanding);
    }

    /// Free the slot of one answered request from `source`.
    pub(crate) fn release(&mut self, source: u64) {
        if let Some(f) = self.sources.get_mut(&source) {
            f.outstanding = f.outstanding.saturating_sub(1);
            if f.closed && f.outstanding == 0 {
                self.sources.remove(&source);
            }
        }
    }

    /// `source` will send nothing more: it leaves the source set, and
    /// its entry goes once its outstanding requests are released.
    pub(crate) fn close(&mut self, source: u64) {
        if let Some(f) = self.sources.get_mut(&source) {
            f.closed = true;
            if f.outstanding == 0 {
                self.sources.remove(&source);
            }
        }
    }

    /// Whether every live source is blocked (`outstanding ≥ window`),
    /// so no new request can arrive.
    pub(crate) fn all_blocked(&self) -> bool {
        self.sources.values().filter(|f| !f.closed).all(|f| f.outstanding >= f.window)
    }

    /// Admitted requests not yet released, over every source.
    pub(crate) fn in_flight(&self) -> usize {
        self.sources.values().map(|f| f.outstanding).sum()
    }
}

struct State<K, T> {
    queue: VecDeque<(K, T)>,
    arrivals: Arrivals,
    ledger: Ledger,
    closed: bool,
}

/// A closeable, optionally depth-capped multi-producer batch queue.
pub struct BatchQueue<K, T> {
    state: Mutex<State<K, T>>,
    cv: Condvar,
    cap: usize,
    clock: Arc<dyn Clock>,
}

impl<K: Copy + PartialEq, T> Default for BatchQueue<K, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, T> std::fmt::Debug for BatchQueue<K, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchQueue").field("cap", &self.cap).finish_non_exhaustive()
    }
}

impl<K: Copy + PartialEq, T> BatchQueue<K, T> {
    /// An empty, open, unbounded queue on the real monotonic clock.
    pub fn new() -> Self {
        Self::bounded(usize::MAX, Arc::new(MonotonicClock::new()))
    }

    /// An empty, open queue that refuses pushes beyond `cap` queued
    /// items and stamps arrivals and linger decisions with `clock`. A
    /// cap of 0 refuses everything — useful for forcing the shed path
    /// in tests.
    pub fn bounded(cap: usize, clock: Arc<dyn Clock>) -> Self {
        BatchQueue {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                arrivals: Arrivals::default(),
                ledger: Ledger::default(),
                closed: false,
            }),
            cv: Condvar::new(),
            cap,
            clock,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<K, T>> {
        // A poisoning panic in another holder must not cascade; the
        // queue's state is valid after any partial operation.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Try to append one item from connection `source`, reporting the
    /// admission decision. Admitted items are stamped as arrivals and
    /// take one of `source`'s in-flight slots until
    /// [`release`](Self::release); refused ones take nothing.
    pub fn push(&self, key: K, source: u64, item: T) -> Admission {
        let mut s = self.lock();
        if s.closed {
            return Admission::Closed;
        }
        if s.queue.len() >= self.cap {
            return Admission::Busy { depth: s.queue.len() };
        }
        s.arrivals.stamp(self.clock.now_us());
        s.ledger.admit(source);
        s.queue.push_back((key, item));
        self.cv.notify_one();
        Admission::Admitted
    }

    /// Free the in-flight slots of answered items, one per entry of
    /// `sources`. Call it before the answers reach their connections.
    pub fn release(&self, sources: &[u64]) {
        let mut s = self.lock();
        for &source in sources {
            s.ledger.release(source);
        }
    }

    /// Connection `source` is gone: it no longer counts as a possible
    /// sender when a short batch decides whether to wait.
    pub fn close_source(&self, source: u64) {
        self.lock().ledger.close(source);
        self.cv.notify_all();
    }

    /// Admitted items not yet released, over every source.
    pub fn in_flight(&self) -> usize {
        self.lock().ledger.in_flight()
    }

    /// Close the queue: wakes all poppers; pending items still drain.
    pub fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }

    /// Queued items not yet popped.
    pub fn len(&self) -> usize {
        self.lock().queue.len()
    }

    /// Whether the queue currently holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pop the next batch: the head run of consecutive same-key items,
    /// at most `max_batch` of them.
    ///
    /// Blocks until at least one item is available. A short run
    /// dispatches at once when every live source is blocked, and
    /// otherwise waits only for a predicted same-key arrival that falls
    /// within `linger` of the first pop (see the [module docs](self));
    /// new same-key arrivals extend the batch, a different key at the
    /// head ends it.
    /// Returns `None` once the queue is closed *and* drained.
    pub fn pop_batch(&self, max_batch: usize, linger: Duration) -> Option<(K, Vec<T>)> {
        let max_batch = max_batch.max(1);
        let linger_us = u64::try_from(linger.as_micros()).unwrap_or(u64::MAX);
        let mut s = self.lock();
        let (key, first) = loop {
            if let Some(head) = s.queue.pop_front() {
                break head;
            }
            if s.closed {
                return None;
            }
            s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
        };

        let mut batch = vec![first];
        let first_pop = self.clock.now_us();
        loop {
            // Extend with the head run.
            while batch.len() < max_batch {
                match s.queue.front() {
                    Some((k, _)) if *k == key => {
                        if let Some((_, item)) = s.queue.pop_front() {
                            batch.push(item);
                        }
                    }
                    _ => break,
                }
            }
            // Full, mixed head, or closed: dispatch.
            if batch.len() >= max_batch || s.queue.front().is_some() || s.closed {
                break;
            }
            let now = self.clock.now_us();
            let wait = s.arrivals.linger_until(now, first_pop, linger_us);
            let Some(until) = wait.filter(|_| !s.ledger.all_blocked()) else {
                break; // no arrival possible, or none predicted inside the cap
            };
            let (guard, timeout) = self
                .cv
                .wait_timeout(s, Duration::from_micros(until - now))
                .unwrap_or_else(|e| e.into_inner());
            s = guard;
            if timeout.timed_out() && s.queue.is_empty() {
                break; // the predicted instant passed with no arrival
            }
        }
        Some((key, batch))
    }

    /// The learned window of `source`, while it is in the ledger.
    #[cfg(test)]
    pub(crate) fn window(&self, source: u64) -> Option<usize> {
        self.lock().ledger.sources.get(&source).map(|f| f.window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_apps::serving::ServeApp;
    use lac_rt::clock::MockClock;
    use lac_rt::rng::{RngExt, SeedableRng, StdRng};

    const NO_LINGER: Duration = Duration::ZERO;

    #[test]
    fn pops_head_run_up_to_max_batch() {
        let q = BatchQueue::new();
        for i in 0..5 {
            assert_eq!(q.push(ServeApp::Blur, 0, i), Admission::Admitted);
        }
        assert_eq!(q.push(ServeApp::Jpeg, 0, 5), Admission::Admitted);
        assert_eq!(q.push(ServeApp::Blur, 0, 6), Admission::Admitted);

        let (app, batch) = q.pop_batch(3, NO_LINGER).unwrap();
        assert_eq!((app, batch), (ServeApp::Blur, vec![0, 1, 2]));
        let (app, batch) = q.pop_batch(3, NO_LINGER).unwrap();
        assert_eq!((app, batch), (ServeApp::Blur, vec![3, 4]));
        let (app, batch) = q.pop_batch(3, NO_LINGER).unwrap();
        assert_eq!((app, batch), (ServeApp::Jpeg, vec![5]));
        let (app, batch) = q.pop_batch(3, NO_LINGER).unwrap();
        assert_eq!((app, batch), (ServeApp::Blur, vec![6]));
    }

    #[test]
    fn bounded_queue_sheds_at_cap_and_reports_depth() {
        let (q, _) = mock_queue(2);
        assert_eq!(q.push(ServeApp::Blur, 0, 0), Admission::Admitted);
        assert_eq!(q.push(ServeApp::Blur, 0, 1), Admission::Admitted);
        assert_eq!(q.push(ServeApp::Blur, 0, 2), Admission::Busy { depth: 2 });
        assert_eq!(q.len(), 2, "refused items are not queued");
        // Draining one batch frees capacity again.
        let (_, batch) = q.pop_batch(8, NO_LINGER).unwrap();
        assert_eq!(batch, vec![0, 1]);
        assert_eq!(q.push(ServeApp::Blur, 0, 3), Admission::Admitted);
    }

    #[test]
    fn zero_cap_refuses_everything() {
        let (q, _) = mock_queue::<u32>(0);
        assert_eq!(q.push(ServeApp::Blur, 0, 1), Admission::Busy { depth: 0 });
        assert!(q.is_empty());
    }

    #[test]
    fn generic_keys_split_batches() {
        // The server keys batches on (kernel, poison marker); distinct
        // keys never share a batch even with identical payload types.
        let q: BatchQueue<(u8, bool), u32> = BatchQueue::new();
        let _ = q.push((0, false), 0, 1);
        let _ = q.push((0, true), 0, 2);
        let _ = q.push((0, false), 0, 3);
        assert_eq!(q.pop_batch(8, NO_LINGER), Some(((0, false), vec![1])));
        assert_eq!(q.pop_batch(8, NO_LINGER), Some(((0, true), vec![2])));
        assert_eq!(q.pop_batch(8, NO_LINGER), Some(((0, false), vec![3])));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BatchQueue::new();
        assert_eq!(q.push(ServeApp::Dft, 0, 1), Admission::Admitted);
        q.close();
        assert_eq!(q.push(ServeApp::Dft, 0, 2), Admission::Closed);
        assert_eq!(q.pop_batch(8, NO_LINGER), Some((ServeApp::Dft, vec![1])));
        assert_eq!(q.pop_batch(8, NO_LINGER), None);
    }

    /// A queue on a mock clock, so arrival stamps and linger decisions
    /// read scripted time.
    fn mock_queue<T>(cap: usize) -> (BatchQueue<ServeApp, T>, Arc<MockClock>) {
        let clock = Arc::new(MockClock::new(0));
        (BatchQueue::bounded(cap, clock.clone()), clock)
    }

    /// Arrival history stamped at each reading of `stamps`.
    fn arrivals(stamps: &[u64]) -> Arrivals {
        let mut a = Arrivals::default();
        for &t in stamps {
            a.stamp(t);
        }
        a
    }

    #[test]
    fn ewma_seeds_on_the_first_gap_and_moves_by_an_eighth() {
        assert_eq!(arrivals(&[]).linger_until(0, 0, 1_000), None);
        let one = arrivals(&[50]);
        assert_eq!(one.linger_until(50, 50, 1_000), None, "one arrival predicts nothing");
        // Gaps 80 then 160: 80 seeds the EWMA, 160 moves it to 90.
        let a = arrivals(&[0, 80, 240]);
        assert_eq!(a.linger_until(240, 240, 1_000), Some(330));
    }

    #[test]
    fn sparse_arrivals_dispatch_without_waiting() {
        // 1 ms gaps against a 200 µs cap: the next arrival is never due
        // inside the cap, so a lone request dispatches at once.
        let a = arrivals(&[0, 1_000, 2_000, 3_000]);
        for pop_delay in [0, 50, 199] {
            let first_pop = 3_000 + pop_delay;
            assert_eq!(a.linger_until(first_pop, first_pop, 200), None);
        }

        let (q, clock) = mock_queue(usize::MAX);
        for i in 0..3 {
            let _ = q.push(ServeApp::Blur, 0, i);
            clock.advance(1_000);
        }
        let linger = Duration::from_micros(200);
        assert_eq!(q.pop_batch(16, linger), Some((ServeApp::Blur, vec![0, 1, 2])));
    }

    /// Give `q` a source that has had one request answered: it may
    /// send again at any moment, so it keeps the arrival rule in force.
    fn idle_source<T>(q: &BatchQueue<ServeApp, T>, source: u64) {
        let mut s = q.lock();
        s.ledger.admit(source);
        s.ledger.release(source);
    }

    #[test]
    fn dense_arrivals_fill_up_to_max_batch() {
        // 10 µs gaps: a short batch would wait for the next arrival, but
        // a full one dispatches and leaves the rest queued.
        let (q, clock) = mock_queue(usize::MAX);
        idle_source(&q, 9);
        for i in 0..20 {
            clock.advance(10);
            let _ = q.push(ServeApp::Blur, 0, i);
        }
        let linger = Duration::from_micros(200);
        assert_eq!(q.pop_batch(16, linger), Some((ServeApp::Blur, (0..16).collect())));
        let stamps: Vec<u64> = (1..=20).map(|i| i * 10).collect();
        assert_eq!(arrivals(&stamps).linger_until(200, 200, 200), Some(210));
        // The short remainder waits 10 µs for an arrival that never
        // comes, then dispatches what it has.
        assert_eq!(q.pop_batch(16, linger), Some((ServeApp::Blur, vec![16, 17, 18, 19])));
    }

    #[test]
    fn closed_loop_waits_at_most_one_predicted_gap() {
        // Two connections with one request each in flight: both arrive
        // δ apart, the batch is answered, and neither sends again until
        // its response. A wait after the second arrival therefore never
        // catches anything: it must end one predicted gap after that
        // arrival, inside the cap, and then dispatch.
        const LINGER: u64 = 200;
        const DELTA: u64 = 15;
        const SERVICE: u64 = 60;
        let mut a = Arrivals::default();
        let mut t = 0u64;
        let mut waits = 0;
        for _ in 0..50 {
            a.stamp(t);
            let first_pop = t;
            a.stamp(t + DELTA);
            let caught = t + DELTA;
            let mut dispatch = caught;
            if let Some(until) = a.linger_until(caught, first_pop, LINGER) {
                let gap = until - caught;
                assert!(gap > 0 && until < first_pop + LINGER, "wait {gap} µs past the cap");
                assert_eq!(a.linger_until(until, first_pop, LINGER), None, "waited a second gap");
                dispatch = until;
                waits += 1;
            }
            t = dispatch + SERVICE;
        }
        assert!(waits > 0, "the pattern never predicted an arrival inside the cap");
    }

    #[test]
    fn waits_never_pass_the_cap() {
        let mut rng = StdRng::seed_from_u64(16);
        for _ in 0..10_000 {
            let mut t = 0u64;
            let mut a = Arrivals::default();
            for _ in 0..rng.random_range(0..6usize) {
                t += rng.random_range(0..500u64);
                a.stamp(t);
            }
            let first_pop = t + rng.random_range(0..300u64);
            let now = first_pop + rng.random_range(0..300u64);
            let linger = rng.random_range(0..400u64);
            if let Some(until) = a.linger_until(now, first_pop, linger) {
                assert!(now < until && until < first_pop + linger, "{a:?} at {now}");
            }
            assert_eq!(a.linger_until(now, first_pop, 0), None, "zero linger waited: {a:?}");
        }
    }

    #[test]
    fn zero_linger_never_waits() {
        // Back-to-back arrivals predict the next one immediately, yet a
        // zero linger dispatches the short batch as it stands.
        let a = arrivals(&[100, 101, 102]);
        assert_eq!(a.linger_until(102, 102, 0), None);
        let (q, clock) = mock_queue(usize::MAX);
        let _ = q.push(ServeApp::Blur, 0, 0);
        clock.advance(1);
        let _ = q.push(ServeApp::Blur, 0, 1);
        assert_eq!(q.pop_batch(8, NO_LINGER), Some((ServeApp::Blur, vec![0, 1])));
    }

    #[test]
    fn different_key_head_ends_the_batch() {
        // Dense arrivals predict more blur work inside a 5 s cap, but a
        // jpeg request at the head ends the blur batch at once.
        let (q, clock) = mock_queue(usize::MAX);
        for (i, app) in [ServeApp::Blur, ServeApp::Blur, ServeApp::Jpeg].into_iter().enumerate() {
            let _ = q.push(app, 0, i);
            clock.advance(10);
        }
        let linger = Duration::from_secs(5);
        assert_eq!(q.pop_batch(8, linger), Some((ServeApp::Blur, vec![0, 1])));
        assert_eq!(q.pop_batch(1, linger), Some((ServeApp::Jpeg, vec![2])));
    }

    /// Sources 1 and 2 each with one request queued 10 s apart on the
    /// mock clock: the EWMA predicts a third arrival 10 s out, inside a
    /// 60 s cap.
    fn long_prediction() -> (Arc<BatchQueue<ServeApp, u32>>, Arc<MockClock>) {
        let (q, clock) = mock_queue(usize::MAX);
        let _ = q.push(ServeApp::Blur, 1, 0);
        clock.advance(10_000_000);
        let _ = q.push(ServeApp::Blur, 2, 1);
        (Arc::new(q), clock)
    }

    /// Pop a batch of up to three on another thread, failing if it takes
    /// longer than `watchdog` of real time.
    fn pop_within(
        q: &Arc<BatchQueue<ServeApp, u32>>,
        watchdog: Duration,
    ) -> Option<(ServeApp, Vec<u32>)> {
        let (tx, rx) = std::sync::mpsc::channel();
        let q = Arc::clone(q);
        std::thread::spawn(move || {
            let _ = tx.send(q.pop_batch(3, Duration::from_secs(60)));
        });
        rx.recv_timeout(watchdog).expect("pop_batch waited past the watchdog")
    }

    #[test]
    fn blocked_sources_dispatch_at_once() {
        // Both sources wait for their answers, so the predicted arrival
        // cannot come: the batch goes at once instead of after 10 s.
        let (q, _clock) = long_prediction();
        assert_eq!(pop_within(&q, Duration::from_secs(5)), Some((ServeApp::Blur, vec![0, 1])));
    }

    #[test]
    fn linger_catches_a_predicted_arrival() {
        // Source 3 has been answered and may send again, so the popper
        // waits for the prediction; the producer pushes from source 3
        // only once the popper holds the first two.
        let (q, _clock) = long_prediction();
        idle_source(&q, 3);
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                while !q.is_empty() {
                    std::thread::yield_now();
                }
                let _ = q.push(ServeApp::Blur, 3, 2);
            })
        };
        let batch = pop_within(&q, Duration::from_secs(30));
        producer.join().unwrap();
        assert_eq!(batch, Some((ServeApp::Blur, vec![0, 1, 2])));
    }

    #[test]
    fn closed_loop_sources_never_wait() {
        // The closed loop of `closed_loop_waits_at_most_one_predicted_gap`
        // with its two connections in the ledger: at every decision both
        // wait for their answers, so no round waits, although the EWMA
        // alone predicts an arrival inside the cap in some of them.
        const LINGER: u64 = 200;
        const DELTA: u64 = 15;
        const SERVICE: u64 = 60;
        let (mut a, mut ledger) = (Arrivals::default(), Ledger::default());
        let mut ewma_waits = 0;
        let mut t = 0u64;
        for _ in 0..50 {
            for (source, at) in [(1, t), (2, t + DELTA)] {
                a.stamp(at);
                ledger.admit(source);
            }
            if a.linger_until(t + DELTA, t, LINGER).is_some() {
                ewma_waits += 1;
            }
            assert!(ledger.all_blocked(), "a closed loop waited: {ledger:?}");
            ledger.release(1);
            ledger.release(2);
            assert!(!ledger.all_blocked(), "answered sources may send again");
            t += DELTA + SERVICE;
        }
        assert!(ewma_waits > 0, "the pattern never tested the ledger against a prediction");
        assert_eq!(ledger.in_flight(), 0);
    }

    #[test]
    fn a_source_that_sent_ahead_keeps_ewma_waits() {
        let mut ledger = Ledger::default();
        ledger.admit(1);
        ledger.admit(2);
        ledger.admit(2);
        ledger.release(2);
        // Source 2 once had two outstanding: with one, it may send again.
        assert!(!ledger.all_blocked(), "{ledger:?}");
        ledger.admit(2);
        assert!(ledger.all_blocked(), "{ledger:?}");
    }

    #[test]
    fn refused_pushes_take_no_slot() {
        let (q, _) = mock_queue(1);
        assert_eq!(q.push(ServeApp::Blur, 1, 0), Admission::Admitted);
        assert_eq!(q.push(ServeApp::Blur, 2, 1), Admission::Busy { depth: 1 });
        q.close();
        assert_eq!(q.push(ServeApp::Blur, 3, 2), Admission::Closed);
        assert_eq!((q.window(1), q.window(2), q.window(3)), (Some(1), None, None));
        assert_eq!(q.in_flight(), 1);
        assert!(q.lock().ledger.all_blocked(), "shed and refused senders are not sources");
    }

    #[test]
    fn closing_a_source_removes_it_from_the_source_set() {
        let mut ledger = Ledger::default();
        ledger.admit(1);
        ledger.admit(2);
        ledger.release(2);
        assert!(!ledger.all_blocked());
        ledger.close(2);
        assert!(ledger.all_blocked(), "a closed connection cannot send");
        // A connection closed with a request in flight keeps its slot
        // until the answer releases it.
        ledger.close(1);
        assert_eq!(ledger.in_flight(), 1);
        ledger.release(1);
        assert_eq!(ledger.in_flight(), 0);
        assert!(ledger.sources.is_empty(), "{ledger:?}");
    }

    #[test]
    fn a_ping_only_connection_is_not_a_source() {
        // PING is answered on the reader and never pushed, so its
        // connection never enters the ledger; closing it changes nothing.
        let mut ledger = Ledger::default();
        ledger.admit(1);
        ledger.close(7);
        assert!(ledger.all_blocked(), "{ledger:?}");
        assert!(Ledger::default().all_blocked(), "no source can send");
    }

    #[test]
    fn blocked_pop_wakes_on_push() {
        let q = Arc::new(BatchQueue::new());
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(4, NO_LINGER))
        };
        std::thread::sleep(Duration::from_millis(5));
        let _ = q.push(ServeApp::InverseK2j, 0, 9);
        assert_eq!(popper.join().unwrap(), Some((ServeApp::InverseK2j, vec![9])));
    }

    #[test]
    fn blocked_pop_wakes_on_close() {
        let q: Arc<BatchQueue<ServeApp, u32>> = Arc::new(BatchQueue::new());
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(4, NO_LINGER))
        };
        std::thread::sleep(Duration::from_millis(5));
        q.close();
        assert_eq!(popper.join().unwrap(), None);
    }
}
