//! The dispatcher's long-lived forward-pass workers.
//!
//! A served batch of `n` samples splits into contiguous chunks of
//! `ceil(n / workers)`. The dispatcher thread runs chunk 0 itself; each
//! other chunk goes, as owned data, to one of `workers − 1` threads
//! started with the pool, so a batch costs two channel hops per chunk
//! instead of spawning and joining threads. Results are collected in
//! chunk order, and per-sample outputs do not depend on the partition
//! (see `lac_core::ServingModel::infer_mode`), so the response bytes are
//! the same for every worker count.
//!
//! A worker runs each chunk under [`catch_unwind`]: a panic comes back
//! as that chunk's result and the dispatcher re-raises it with
//! [`deliberate_panic`], inside the batch's supervisor, while the
//! worker thread lives on for the next batch. Threads are joined by
//! [`WorkerPool::shutdown`] or on drop.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, SendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use lac_apps::serving::ServeSample;
use lac_core::ServingModel;
use lac_rt::par::panic_message;
use lac_rt::supervise::deliberate_panic;

/// One chunk of a batch, owned, with the channel its result goes back
/// on.
struct Job {
    chunk: usize,
    model: Arc<ServingModel>,
    mode: usize,
    samples: Vec<ServeSample>,
    done: mpsc::Sender<Done>,
}

/// A finished chunk. The samples come back so the batch can still be
/// handed to the governor without a clone.
struct Done {
    chunk: usize,
    samples: Vec<ServeSample>,
    /// The forward pass's own result, or the message of a panic it
    /// raised.
    result: Result<Result<Vec<Vec<f64>>, String>, String>,
}

impl Job {
    fn run(self) {
        let Job { chunk, model, mode, samples, done } = self;
        let result = catch_unwind(AssertUnwindSafe(|| model.infer_mode(mode, &samples, 1)))
            .map_err(|payload| panic_message(payload.as_ref()));
        // The dispatcher stops listening only if its own chunk failed.
        let _ = done.send(Done { chunk, samples, result });
    }
}

struct Worker {
    jobs: mpsc::Sender<Job>,
    thread: JoinHandle<()>,
}

/// `workers − 1` forward-pass threads beside the dispatcher.
pub(crate) struct WorkerPool {
    workers: Mutex<Vec<Worker>>,
    /// Held by every worker thread until it exits.
    alive: Arc<()>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("live_threads", &self.live_threads()).finish()
    }
}

impl WorkerPool {
    /// Start `workers − 1` threads (none for `workers ≤ 1`).
    pub(crate) fn new(workers: usize) -> Self {
        let alive = Arc::new(());
        let workers = (1..workers)
            .map(|_| {
                let (jobs, queue) = mpsc::channel::<Job>();
                let token = Arc::clone(&alive);
                let thread = std::thread::spawn(move || {
                    let _alive = token;
                    for job in queue {
                        job.run();
                    }
                });
                Worker { jobs, thread }
            })
            .collect();
        WorkerPool { workers: Mutex::new(workers), alive }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Worker>> {
        // Only sends and joins happen under the lock; the list stays
        // valid if a holder panicked.
        self.workers.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Run `samples` at `model`'s rung `mode` across the pool. Returns
    /// the samples, in batch order, with their outputs. A chunk that
    /// panicked panics here with its message; the first failure in
    /// chunk order wins.
    pub(crate) fn infer(
        &self,
        model: &Arc<ServingModel>,
        mode: usize,
        mut samples: Vec<ServeSample>,
    ) -> Result<(Vec<ServeSample>, Vec<Vec<f64>>), String> {
        let workers = self.lock();
        let size = samples.len().div_ceil(workers.len() + 1).max(1);
        let mut tails = Vec::new();
        for start in (size..samples.len()).step_by(size).rev() {
            tails.push(samples.split_off(start));
        }
        tails.reverse();
        let sent = tails.len();
        let (done, results) = mpsc::channel();
        for ((i, tail), worker) in tails.into_iter().enumerate().zip(workers.iter()) {
            let job = Job {
                chunk: i + 1,
                model: Arc::clone(model),
                mode,
                samples: tail,
                done: done.clone(),
            };
            // A worker that is gone leaves its chunk to the dispatcher.
            if let Err(SendError(job)) = worker.jobs.send(job) {
                job.run();
            }
        }
        drop(done);
        drop(workers);

        let mut outputs = model.infer_mode(mode, &samples, 1)?;
        // Ends once every job has answered or been dropped unanswered.
        let mut chunks: Vec<Done> = results.iter().collect();
        if chunks.len() != sent {
            return Err("a dispatch worker exited mid-batch".into());
        }
        chunks.sort_unstable_by_key(|d| d.chunk);
        for Done { samples: tail, result, .. } in chunks {
            match result {
                Ok(out) => outputs.extend(out?),
                Err(message) => deliberate_panic(&message),
            }
            samples.extend(tail);
        }
        Ok((samples, outputs))
    }

    /// Stop and join every worker thread. Idempotent.
    pub(crate) fn shutdown(&self) {
        let workers = std::mem::take(&mut *self.lock());
        let threads: Vec<JoinHandle<()>> = workers
            .into_iter()
            .map(|Worker { jobs, thread }| {
                drop(jobs);
                thread
            })
            .collect();
        for thread in threads {
            let _ = thread.join();
        }
    }

    /// Worker threads that have not exited yet.
    pub(crate) fn live_threads(&self) -> usize {
        Arc::strong_count(&self.alive) - 1
    }

    /// Watches the worker threads: fails to upgrade once the pool is
    /// dropped and every thread has exited.
    #[cfg(test)]
    pub(crate) fn watch(&self) -> std::sync::Weak<()> {
        Arc::downgrade(&self.alive)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}
