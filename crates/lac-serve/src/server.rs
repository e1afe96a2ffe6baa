//! The serving core, and the TCP daemon that drives it.
//!
//! # Architecture
//!
//! ```text
//! accept loop ──spawns──▶ reader thread per connection
//!                            │  FrameReader → Core::handle_event:
//!                            │  parse, decode, stamp deadline,
//!                            │  bounded admission
//!                            ▼
//!               BatchQueue (arrival order, depth-capped)
//!                            │  head run of one key, ≤ max_batch
//!                            ▼
//!        dispatcher ── Core::dispatch_next, one supervised batch ──▶
//!        deadline pass → forward(): chunk 0 on the dispatcher, the rest
//!        on cfg.workers − 1 long-lived pool threads (crate::pool)
//!        → responses coalesced per connection (bounded outbox + writer)
//! ```
//!
//! [`Core`] is the one copy of the serving semantics: admission → batch
//! → dispatch → respond. It reads time from [`ServerConfig::clock`] and
//! answers through a [`Transport`] (send a response to a connection,
//! flush at the end of an event or batch). Two thin drivers run it:
//! the TCP daemon in this module ([`serve`]), whose transport coalesces
//! each connection's responses into one outbox enqueue per batch, and
//! the in-process resilience harness ([`crate::chaos`]), whose
//! transport logs frames in emission order on a mock clock.
//!
//! Readers do all per-request validation (framing, opcodes, payload
//! decoding), answering malformed requests with error frames so only
//! valid samples reach the queue. The dispatcher pops deterministic
//! head-run batches — lingering for more same-key work only while some
//! connection may still send and an arrival is predicted inside
//! [`ServerConfig::linger`] (see [`crate::batch`]) — drops expired requests with `deadline:` errors
//! before spending kernel time, resolves the model `Arc` once per batch
//! (so a concurrent hot-swap never splits a batch across models), runs
//! the batched forward pass across the core's persistent worker threads,
//! and answers every request in batch order. The worker threads start
//! with the core and are joined by [`RunningServer::join`] or when the
//! core is dropped.
//!
//! # Resilience
//!
//! * **Bounded admission** — the queue refuses pushes past
//!   [`ServerConfig::queue_cap`]; shed requests get a
//!   [`Response::Busy`] frame with the depth and a retry-after hint.
//! * **Deadlines** — requests carry an optional relative deadline
//!   (or inherit [`ServerConfig::default_deadline_us`]); the dispatcher
//!   drops expired ones pre-dispatch. "Now" comes from the config's
//!   [`Clock`], so tests and the chaos harness drive a mock.
//! * **Slow-client protection** — responses go through a bounded
//!   per-connection outbox drained by a writer thread with a write
//!   timeout. A reader that stalls past the buffer or the timeout is
//!   condemned (socket shut down, buffer discarded) without ever
//!   blocking the dispatcher's fan-out.
//! * **Panic supervision** — every batch runs under
//!   [`lac_rt::supervise::supervise`]: a panic converts the batch's
//!   in-flight requests into per-request `panic:` error frames, bumps a
//!   restart counter, and the dispatcher goes on to the next batch (the
//!   governor thread is supervised the same way). A panic on a pool
//!   worker is caught there and re-raised on the dispatcher, so it is
//!   answered the same way and the worker thread survives. Injected panics
//!   ([`Request::DebugPanic`], gated by
//!   [`ServerConfig::debug_opcodes`]) are dispatched as solo poison
//!   batches, so they can never take innocent requests down with them.
//! * **Health** — `PING` answers with a full
//!   [`lac_core::HealthSnapshot`]: queue depth, shed/expired counts,
//!   restart counters, slow-client disconnects, and live per-app modes.
//!
//! Response bytes are a pure function of (model, mode, payload):
//! inference is per-sample with no cross-sample reduction. Worker
//! count, batch size, and linger change only scheduling, never bytes —
//! the serving determinism suite pins this.
//!
//! With a [`GovernorConfig`] set, the dispatcher also counts batches
//! per app, hands a deterministic sample of them to the governor
//! thread ([`crate::governor`]), and serves each batch at the ladder
//! rung the governor last selected.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::Duration;

use lac_apps::serving::{ServeApp, ServeSample};
use lac_core::{HealthSnapshot, ServingModel};
use lac_rt::clock::{Clock, MonotonicClock};
use lac_rt::supervise::{deliberate_panic, supervise};

use crate::batch::{Admission, BatchQueue};
use crate::governor::{self, should_sample, GovernorConfig, GovernorJob};
use crate::pool::WorkerPool;
use crate::protocol::{FrameEvent, FrameReader, Request, Response, MAX_FRAME_LEN};
use crate::registry::Registry;

/// Per-queued-item term of the `BUSY` retry-after hint: a shed client
/// is told to come back after roughly `depth × this` microseconds. A
/// deliberate constant (not a wall-clock measurement) so the hint is a
/// pure function of queue depth.
const RETRY_HINT_PER_QUEUED_US: u64 = 100;

/// Serving knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Threads a batched forward pass is spread across: the dispatcher
    /// plus `workers − 1` long-lived pool threads started with the
    /// server (none for 1).
    pub workers: usize,
    /// Most requests coalesced into one batch.
    pub max_batch: usize,
    /// Cap on how long a short batch may wait for its head run to
    /// fill. The dispatcher does not wait when every connection with a
    /// request in flight is waiting for its answers (each has as many
    /// outstanding as it has ever had); otherwise it waits only while
    /// the queue's inter-arrival EWMA predicts a same-key arrival before
    /// the cap, and only until that predicted instant. Zero never waits.
    pub linger: Duration,
    /// Quality-governor knobs; `None` serves every batch at the
    /// selector's (initially trained) mode with no sampling thread.
    pub governor: Option<GovernorConfig>,
    /// Admission cap: requests arriving while this many are already
    /// queued are shed with a `BUSY` frame instead of queued.
    pub queue_cap: usize,
    /// Deadline applied to requests that do not carry their own
    /// (microseconds from admission); `None` means such requests never
    /// expire.
    pub default_deadline_us: Option<u64>,
    /// Per-connection response buffer cap in bytes. Must exceed the
    /// largest single response frame; a connection whose unsent backlog
    /// would pass the cap is condemned as a slow client.
    pub write_buf_cap: usize,
    /// How long a connection's writer thread may block on one socket
    /// write before the connection is condemned as a slow client.
    pub write_timeout: Duration,
    /// Honor [`Request::DebugPanic`] fault injection. Off by default;
    /// the chaos harness and resilience tests switch it on.
    pub debug_opcodes: bool,
    /// Time source for deadline stamping and expiry, arrival stamps and
    /// linger decisions. Defaults to the real monotonic clock; tests and
    /// the chaos harness install a [`lac_rt::clock::MockClock`].
    pub clock: Arc<dyn Clock>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_batch: 16,
            linger: Duration::from_micros(200),
            governor: None,
            queue_cap: 1024,
            default_deadline_us: None,
            write_buf_cap: 1 << 20,
            write_timeout: Duration::from_secs(2),
            debug_opcodes: false,
            clock: Arc::new(MonotonicClock::new()),
        }
    }
}

/// A driver's connection handle. The core clones it into each pending
/// request and names the connection by [`source`](Connection::source)
/// in the queue's in-flight ledger.
pub(crate) trait Connection: Clone {
    /// An id no other live connection of the same core shares.
    fn source(&self) -> u64;
}

impl Connection for usize {
    fn source(&self) -> u64 {
        *self as u64
    }
}

/// Where the core's responses go. The core emits every response in
/// order through [`send`](Transport::send) and calls
/// [`flush`](Transport::flush) at the end of each framing event and
/// each batch.
pub(crate) trait Transport {
    /// The driver's connection handle.
    type Conn;
    /// Deliver `resp`, already encoded as `frame`, to `conn`.
    fn send(&mut self, conn: &Self::Conn, resp: &Response, frame: Vec<u8>);
    /// Deliver whatever [`send`](Transport::send) buffered.
    fn flush(&mut self);
}

/// One validated request waiting for a batch. `sample` is `None` only
/// for injected poison probes ([`Request::DebugPanic`]).
struct Pending<C> {
    id: u64,
    sample: Option<ServeSample>,
    conn: C,
    /// Absolute expiry reading of the config clock, if any.
    expires_at: Option<u64>,
}

/// Batch key: real traffic batches per kernel; every poison probe gets
/// a unique key so it dispatches as a solo batch and can never take
/// innocent requests down with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BatchKey {
    App(ServeApp),
    Poison(u64),
}

/// The `unavailable:` answer for a kernel with no published model.
fn no_model(app: ServeApp) -> String {
    format!("unavailable: no model loaded for kernel `{}`", app.cli_id())
}

/// One batch's forward pass (see [`forward`]).
pub(crate) struct Forward {
    /// Per-sample outputs, in batch order.
    pub(crate) outputs: Vec<Vec<f64>>,
    /// The ladder rung the batch ran at.
    pub(crate) mode: usize,
    /// The batch packaged for the governor, when sampled.
    pub(crate) job: Option<GovernorJob>,
}

/// The forward step every driver shares: resolve `app`'s live
/// `(model, mode)` once, run the batch at that rung on `pool`, and — when
/// `sampling` names governor knobs and this batch's per-app sequence
/// number and the seeded hash picks it — package the batch as a
/// [`GovernorJob`].
pub(crate) fn forward(
    registry: &Registry,
    app: ServeApp,
    samples: Vec<ServeSample>,
    pool: &WorkerPool,
    sampling: Option<(&GovernorConfig, u64)>,
) -> Result<Forward, String> {
    // Resolve once per batch: a hot-swap or a governor step between
    // batches takes effect cleanly; one during a batch lets it finish
    // on the state it started with.
    let (model, mode) = registry.resolve_mode(app).ok_or_else(|| no_model(app))?;
    let (samples, outputs) =
        pool.infer(&model, mode, samples).map_err(|e| format!("inference: {e}"))?;
    let job = sampling
        .filter(|(g, seq)| should_sample(g.seed, app, *seq, g.sample_rate))
        .map(|(_, seq)| GovernorJob { model, app, seq, mode, samples, outputs: outputs.clone() });
    Ok(Forward { outputs, mode, job })
}

/// The serving state machine: admission → batch → dispatch → respond,
/// generic over the driver's connection handle `C`.
#[derive(Debug)]
pub(crate) struct Core<C> {
    registry: Arc<Registry>,
    queue: BatchQueue<BatchKey, Pending<C>>,
    pool: WorkerPool,
    cfg: ServerConfig,
    stop: AtomicBool,
    /// Per-app dispatched-batch counters (governor sampling keys on
    /// these, so the sample set depends only on batch arrival order).
    batch_seq: [AtomicU64; 6],
    /// Unique keys for poison probes.
    poison_seq: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    dispatcher_restarts: AtomicU64,
    /// `Arc` so the governor thread can bump it from its supervisor.
    governor_restarts: Arc<AtomicU64>,
    slow_disconnects: AtomicU64,
}

impl<C: Connection> Core<C> {
    pub(crate) fn new(registry: Arc<Registry>, cfg: ServerConfig) -> Self {
        Core {
            registry,
            queue: BatchQueue::bounded(cfg.queue_cap, Arc::clone(&cfg.clock)),
            pool: WorkerPool::new(cfg.workers),
            cfg,
            stop: AtomicBool::new(false),
            batch_seq: Default::default(),
            poison_seq: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            dispatcher_restarts: AtomicU64::new(0),
            governor_restarts: Arc::new(AtomicU64::new(0)),
            slow_disconnects: AtomicU64::new(0),
        }
    }

    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.queue.close();
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Whether no request is waiting for a batch.
    pub(crate) fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// `conn` is gone: it no longer counts as a connection that may
    /// send while a short batch decides whether to wait.
    pub(crate) fn disconnect(&self, conn: &C) {
        self.queue.close_source(conn.source());
    }

    /// Admitted requests not yet answered.
    pub(crate) fn in_flight(&self) -> usize {
        self.queue.in_flight()
    }

    #[cfg(test)]
    pub(crate) fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    pub(crate) fn health(&self) -> HealthSnapshot {
        let mut modes = Vec::new();
        for app in self.registry.apps() {
            if let Some((_, mode)) = self.registry.resolve_mode(app) {
                modes.push((app.code(), mode as u8));
            }
        }
        HealthSnapshot {
            queue_depth: self.queue.len() as u32,
            shed: self.shed.load(Ordering::SeqCst),
            expired: self.expired.load(Ordering::SeqCst),
            dispatcher_restarts: self.dispatcher_restarts.load(Ordering::SeqCst),
            governor_restarts: self.governor_restarts.load(Ordering::SeqCst),
            slow_client_disconnects: self.slow_disconnects.load(Ordering::SeqCst),
            modes,
        }
    }

    fn respond<T: Transport<Conn = C>>(&self, out: &mut T, conn: &C, resp: &Response) {
        if let Some(frame) = resp.encode_or_degrade() {
            out.send(conn, resp, frame);
        }
    }

    fn error<T: Transport<Conn = C>>(&self, out: &mut T, conn: &C, id: u64, message: String) {
        self.respond(out, conn, &Response::Error { id, message });
    }

    /// Answer one framing event from `conn`, then flush. Returns `true`
    /// on `SHUTDOWN`.
    pub(crate) fn handle_event<T: Transport<Conn = C>>(
        &self,
        out: &mut T,
        conn: &C,
        event: FrameEvent,
    ) -> bool {
        let shutdown = self.answer(out, conn, event);
        out.flush();
        shutdown
    }

    fn answer<T: Transport<Conn = C>>(&self, out: &mut T, conn: &C, event: FrameEvent) -> bool {
        let body = match event {
            FrameEvent::Oversized { advertised } => {
                let message = format!(
                    "overflow: frame advertises {advertised} bytes, limit is {MAX_FRAME_LEN}; \
                     skipped"
                );
                self.error(out, conn, 0, message);
                return false;
            }
            FrameEvent::Frame(body) => body,
        };
        let request = match Request::parse(&body) {
            Ok(req) => req,
            Err(e) => {
                self.error(out, conn, 0, format!("malformed request: {e}"));
                return false;
            }
        };
        match request {
            Request::Ping { id } => {
                self.respond(out, conn, &Response::Pong { id, health: self.health() });
            }
            Request::Infer { kernel, id, values, deadline_us } => {
                let Some(app) = ServeApp::from_code(kernel) else {
                    let message = format!("malformed request: unknown kernel {kernel}");
                    self.error(out, conn, id, message);
                    return false;
                };
                if self.registry.resolve(app).is_none() {
                    self.error(out, conn, id, no_model(app));
                    return false;
                }
                match app.decode(&values) {
                    Ok(sample) => {
                        let deadline = deadline_us.or(self.cfg.default_deadline_us);
                        let expires_at =
                            deadline.map(|d| self.cfg.clock.now_us().saturating_add(d));
                        let pending =
                            Pending { id, sample: Some(sample), conn: conn.clone(), expires_at };
                        self.admit(out, BatchKey::App(app), pending);
                    }
                    Err(e) => self.error(out, conn, id, format!("malformed request: {e}")),
                }
            }
            Request::DebugPanic { id } => {
                if !self.cfg.debug_opcodes {
                    let message =
                        "debug: DEBUG_PANIC refused (server started without debug opcodes)";
                    self.error(out, conn, id, message.into());
                    return false;
                }
                let token = self.poison_seq.fetch_add(1, Ordering::SeqCst);
                let pending = Pending { id, sample: None, conn: conn.clone(), expires_at: None };
                self.admit(out, BatchKey::Poison(token), pending);
            }
            Request::Swap { id, path } => {
                let loaded = ServingModel::load(Path::new(&path)).map_err(|e| e.to_string());
                self.swap(out, conn, id, loaded);
            }
            Request::Shutdown { id } => {
                self.respond(out, conn, &Response::Bye { id });
                self.request_stop();
                return true;
            }
        }
        false
    }

    /// Publish a loaded checkpoint, or answer with a `swap:` error
    /// naming why it was refused. Responds without flushing.
    pub(crate) fn swap<T: Transport<Conn = C>>(
        &self,
        out: &mut T,
        conn: &C,
        id: u64,
        loaded: Result<ServingModel, String>,
    ) {
        match loaded {
            Ok(model) => {
                let kernel = model.app().code();
                self.registry.swap(model);
                self.respond(out, conn, &Response::Swapped { id, kernel });
            }
            Err(e) => self.error(out, conn, id, format!("swap: {e}")),
        }
    }

    /// Push one request through bounded admission, answering the
    /// shed/drain cases with structured frames.
    fn admit<T: Transport<Conn = C>>(&self, out: &mut T, key: BatchKey, pending: Pending<C>) {
        let (conn, id) = (pending.conn.clone(), pending.id);
        match self.queue.push(key, conn.source(), pending) {
            Admission::Admitted => {}
            Admission::Busy { depth } => {
                self.shed.fetch_add(1, Ordering::SeqCst);
                let retry_after_us = (depth as u64 + 1) * RETRY_HINT_PER_QUEUED_US;
                let busy = Response::Busy { id, depth: depth as u32, retry_after_us };
                self.respond(out, &conn, &busy);
            }
            Admission::Closed => {
                self.error(out, &conn, id, "shutdown: server is draining, request refused".into());
            }
        }
    }

    /// Pop the next batch (blocking until one is queued, lingering per
    /// the config) and run it under the panic supervisor: a panicking
    /// batch answers its in-flight requests with `panic:` errors and
    /// bumps the restart counter, and the caller goes on to the next
    /// batch. Every popped request is answered here (response,
    /// `deadline:`, forward error or `panic:` frame), so the batch's
    /// in-flight slots are released together, then the answers are
    /// flushed. Returns `false` once the queue is closed and drained.
    pub(crate) fn dispatch_next<T: Transport<Conn = C>>(
        &self,
        out: &mut T,
        governor: Option<&mpsc::Sender<GovernorJob>>,
    ) -> bool {
        let Some((key, batch)) = self.queue.pop_batch(self.cfg.max_batch, self.cfg.linger) else {
            return false;
        };
        let sources: Vec<u64> = batch.iter().map(|p| p.conn.source()).collect();
        let mut batch = Some(batch);
        let mut inflight = Vec::new();
        let mut panicked = None;
        supervise(
            || {
                if let Some(batch) = batch.take() {
                    self.run_batch(out, key, batch, &mut inflight, governor);
                }
            },
            |msg| {
                panicked = Some(msg.to_owned());
                false
            },
        );
        if let Some(msg) = panicked {
            self.dispatcher_restarts.fetch_add(1, Ordering::SeqCst);
            for (conn, id) in inflight {
                self.error(out, &conn, id, format!("panic: dispatcher restarted: {msg}"));
            }
        }
        // Release before the flush hands the answers over: a client that
        // resends on reading its answer must find its slot free, or its
        // window grows to two and its connection never counts as blocked.
        self.queue.release(&sources);
        out.flush();
        true
    }

    /// Answer one batch. Requests handed to the forward pass (or the
    /// poison probe) sit in `inflight` until answered, so a panic
    /// leaves exactly the unanswered ones there.
    fn run_batch<T: Transport<Conn = C>>(
        &self,
        out: &mut T,
        key: BatchKey,
        batch: Vec<Pending<C>>,
        inflight: &mut Vec<(C, u64)>,
        governor: Option<&mpsc::Sender<GovernorJob>>,
    ) {
        let app = match key {
            BatchKey::Poison(_) => {
                inflight.extend(batch.into_iter().map(|p| (p.conn, p.id)));
                deliberate_panic("injected dispatcher panic (DEBUG_PANIC opcode)");
            }
            BatchKey::App(app) => app,
        };
        // Deadline pass: drop expired requests before spending kernel
        // time on them. `now >= expires_at` so a zero deadline is
        // deterministically expired at dispatch.
        let now = self.cfg.clock.now_us();
        let mut samples = Vec::with_capacity(batch.len());
        for p in batch {
            if p.expires_at.is_some_and(|t| now >= t) {
                self.expired.fetch_add(1, Ordering::SeqCst);
                self.error(out, &p.conn, p.id, "deadline: expired before dispatch".into());
            } else if let Some(sample) = p.sample {
                inflight.push((p.conn, p.id));
                samples.push(sample);
            }
        }
        if samples.is_empty() {
            return;
        }
        let sampling = match (&self.cfg.governor, governor) {
            (Some(gcfg), Some(_)) => {
                Some((gcfg, self.batch_seq[app.code() as usize].fetch_add(1, Ordering::SeqCst)))
            }
            _ => None,
        };
        match forward(&self.registry, app, samples, &self.pool, sampling) {
            Ok(fwd) => {
                if let (Some(job), Some(tx)) = (fwd.job, governor) {
                    let _ = tx.send(job);
                }
                for ((conn, id), values) in inflight.drain(..).zip(fwd.outputs) {
                    self.respond(out, &conn, &Response::Infer { id, values });
                }
            }
            Err(message) => {
                for (conn, id) in inflight.drain(..) {
                    self.error(out, &conn, id, message.clone());
                }
            }
        }
    }
}

/// Unsent response bytes for one connection.
struct Outbox {
    buf: Vec<u8>,
    /// No more bytes will be enqueued; the writer drains and exits.
    closed: bool,
    /// Condemned: buffered bytes are discarded and the socket is shut.
    dead: bool,
}

/// Outcome of enqueueing bytes on a connection's outbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Enqueue {
    /// Bytes buffered; the writer thread will deliver them.
    Queued,
    /// This enqueue pushed the backlog over the cap and condemned the
    /// connection (first condemnation only — count it).
    Condemned,
    /// The connection is already condemned or closed; bytes dropped.
    Dropped,
}

/// One connection's write side: a bounded outbox drained by a dedicated
/// writer thread, so neither readers nor the dispatcher ever block on a
/// slow peer's socket.
struct Conn {
    /// The connection's source id in the in-flight ledger.
    id: u64,
    stream: TcpStream,
    outbox: Mutex<Outbox>,
    cv: Condvar,
    cap: usize,
}

impl std::fmt::Debug for Conn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Conn").field("cap", &self.cap).finish_non_exhaustive()
    }
}

impl Connection for Arc<Conn> {
    fn source(&self) -> u64 {
        self.id
    }
}

impl Conn {
    fn new(id: u64, stream: TcpStream, cap: usize) -> Self {
        Conn {
            id,
            stream,
            outbox: Mutex::new(Outbox { buf: Vec::new(), closed: false, dead: false }),
            cv: Condvar::new(),
            cap,
        }
    }

    fn lock_outbox(&self) -> MutexGuard<'_, Outbox> {
        self.outbox.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Buffer `bytes` for the writer thread, condemning the connection
    /// if its backlog would pass the cap.
    fn enqueue(&self, bytes: &[u8]) -> Enqueue {
        {
            let mut o = self.lock_outbox();
            if o.dead || o.closed {
                return Enqueue::Dropped;
            }
            if o.buf.len() + bytes.len() <= self.cap {
                o.buf.extend_from_slice(bytes);
                self.cv.notify_one();
                return Enqueue::Queued;
            }
        }
        if self.condemn() {
            Enqueue::Condemned
        } else {
            Enqueue::Dropped
        }
    }

    /// Condemn the connection: discard the backlog and shut the socket
    /// down so its reader exits too. Returns `true` on the first
    /// condemnation (idempotent afterwards).
    fn condemn(&self) -> bool {
        {
            let mut o = self.lock_outbox();
            if o.dead {
                return false;
            }
            o.dead = true;
            o.buf = Vec::new();
        }
        let _ = self.stream.shutdown(Shutdown::Both);
        self.cv.notify_all();
        true
    }

    /// Drain-and-exit: the writer delivers what is buffered, then
    /// stops. Later enqueues are dropped.
    fn close(&self) {
        self.lock_outbox().closed = true;
        self.cv.notify_all();
    }
}

/// The daemon's transport: responses coalesce per connection, and
/// `flush` hands each connection's bytes to its outbox in one enqueue,
/// folding slow-client condemnations into the health counters.
struct Outgoing<'a> {
    pending: Vec<(Arc<Conn>, Vec<u8>)>,
    slow_disconnects: &'a AtomicU64,
}

impl<'a> Outgoing<'a> {
    fn new(core: &'a Core<Arc<Conn>>) -> Self {
        Outgoing { pending: Vec::new(), slow_disconnects: &core.slow_disconnects }
    }
}

impl Transport for Outgoing<'_> {
    type Conn = Arc<Conn>;

    fn send(&mut self, conn: &Arc<Conn>, _resp: &Response, frame: Vec<u8>) {
        match self.pending.iter_mut().find(|(c, _)| Arc::ptr_eq(c, conn)) {
            Some((_, bytes)) => bytes.extend_from_slice(&frame),
            None => self.pending.push((Arc::clone(conn), frame)),
        }
    }

    fn flush(&mut self) {
        for (conn, bytes) in self.pending.drain(..) {
            if conn.enqueue(&bytes) == Enqueue::Condemned {
                self.slow_disconnects.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
}

#[derive(Debug)]
struct Shared {
    core: Core<Arc<Conn>>,
    /// Every accepted connection, for outbox close at join time.
    /// `join` takes the list and leaves `None`: a reader that registers
    /// after that closes its own outbox on exit.
    conns: Mutex<Option<Vec<Weak<Conn>>>>,
    /// Source id of the next accepted connection.
    next_conn: AtomicU64,
}

impl Shared {
    fn new(registry: Arc<Registry>, cfg: ServerConfig) -> Self {
        Shared {
            core: Core::new(registry, cfg),
            conns: Mutex::new(Some(Vec::new())),
            next_conn: AtomicU64::new(0),
        }
    }

    fn request_stop(&self) {
        self.core.request_stop();
    }
}

/// A running server; dropping the handle does not stop it — call
/// [`shutdown`](RunningServer::shutdown) and/or
/// [`join`](RunningServer::join).
#[derive(Debug)]
pub struct RunningServer {
    port: u16,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
    governor: Option<std::thread::JoinHandle<()>>,
    readers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

/// Bind `port` (0 = ephemeral) and start serving `registry`.
///
/// Returns once the listener is bound; serving runs on background
/// threads until a client sends `SHUTDOWN` or
/// [`RunningServer::shutdown`] is called.
pub fn serve(
    registry: Arc<Registry>,
    cfg: ServerConfig,
    port: u16,
) -> std::io::Result<RunningServer> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let port = listener.local_addr()?.port();
    listener.set_nonblocking(true)?;

    let shared = Arc::new(Shared::new(registry, cfg));
    let readers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::default();

    // The governor thread (if configured) scores sampled batches off
    // the hot path; it exits when the dispatcher drops its sender.
    let core = &shared.core;
    let (governor_tx, governor_handle) = match core.cfg.governor.clone() {
        Some(gcfg) => {
            let registry = Arc::clone(&core.registry);
            let restarts = Arc::clone(&core.governor_restarts);
            let (tx, handle) = governor::spawn(gcfg, registry, core.cfg.workers, restarts)
                .map_err(|e| std::io::Error::new(e.kind(), format!("governor log: {e}")))?;
            (Some(tx), Some(handle))
        }
        None => (None, None),
    };
    let dispatcher = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            let mut out = Outgoing::new(&shared.core);
            while shared.core.dispatch_next(&mut out, governor_tx.as_ref()) {}
        })
    };
    let accept = {
        let shared = Arc::clone(&shared);
        let readers = Arc::clone(&readers);
        std::thread::spawn(move || accept_loop(&shared, listener, &readers))
    };

    Ok(RunningServer {
        port,
        shared,
        accept: Some(accept),
        dispatcher: Some(dispatcher),
        governor: governor_handle,
        readers,
    })
}

impl RunningServer {
    /// The bound port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Requests admitted and not yet answered, over every connection.
    /// Zero whenever every response has been handed to its connection.
    pub fn in_flight(&self) -> usize {
        self.shared.core.in_flight()
    }

    /// Ask the server to stop: no new connections, queued requests
    /// drain, then threads exit. Idempotent.
    pub fn shutdown(&self) {
        self.shared.request_stop();
    }

    /// Block until every server thread has exited (after a `SHUTDOWN`
    /// frame or [`shutdown`](Self::shutdown)).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
        self.shared.core.pool.shutdown();
        // The dispatcher owned the governor's sender; with it gone the
        // governor drains its queue and exits.
        if let Some(h) = self.governor.take() {
            let _ = h.join();
        }
        // The dispatcher has drained: close every surviving outbox so
        // writer threads deliver what is buffered and exit, releasing
        // their readers.
        let conns = self.shared.conns.lock().unwrap_or_else(|e| e.into_inner()).take();
        for weak in conns.into_iter().flatten() {
            if let Some(conn) = weak.upgrade() {
                conn.close();
            }
        }
        let handles = {
            let mut r = self.readers.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *r)
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    shared: &Arc<Shared>,
    listener: TcpListener,
    readers: &Mutex<Vec<std::thread::JoinHandle<()>>>,
) {
    while !shared.core.stopping() {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let shared = Arc::clone(shared);
                let handle = std::thread::spawn(move || reader_loop(&shared, stream));
                readers.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

/// Drain one connection's outbox onto its socket until the outbox is
/// closed (drain, then exit) or the connection is condemned. A write
/// that fails — including one that blocks past the configured write
/// timeout — condemns the connection.
fn writer_loop(core: &Core<Arc<Conn>>, conn: &Conn) {
    let _ = conn.stream.set_write_timeout(Some(core.cfg.write_timeout));
    loop {
        let chunk = {
            let mut o = conn.lock_outbox();
            while o.buf.is_empty() && !o.closed && !o.dead {
                o = conn.cv.wait(o).unwrap_or_else(|e| e.into_inner());
            }
            if o.dead || o.buf.is_empty() {
                return; // condemned, or closed and drained
            }
            std::mem::take(&mut o.buf)
        };
        if (&conn.stream).write_all(&chunk).is_err() {
            if conn.condemn() {
                core.slow_disconnects.fetch_add(1, Ordering::SeqCst);
            }
            return;
        }
    }
}

fn reader_loop(shared: &Arc<Shared>, mut stream: TcpStream) {
    let core = &shared.core;
    let id = shared.next_conn.fetch_add(1, Ordering::SeqCst);
    let conn = match stream.try_clone() {
        Ok(write_half) => Arc::new(Conn::new(id, write_half, core.cfg.write_buf_cap)),
        Err(_) => return,
    };
    let registered = match &mut *shared.conns.lock().unwrap_or_else(|e| e.into_inner()) {
        Some(conns) => {
            conns.push(Arc::downgrade(&conn));
            true
        }
        None => false,
    };
    let writer = {
        let conn = Arc::clone(&conn);
        let shared = Arc::clone(shared);
        std::thread::spawn(move || writer_loop(&shared.core, &conn))
    };
    // Short read timeouts let the reader poll the stop flag while idle;
    // arriving bytes wake it immediately.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));

    let mut frames = FrameReader::new();
    let mut events = Vec::new();
    let mut out = Outgoing::new(core);
    let mut buf = [0u8; 64 * 1024];
    'conn: loop {
        if core.stopping() {
            break;
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        frames.push(&buf[..n], &mut events);
        for event in events.drain(..) {
            if core.handle_event(&mut out, &conn, event) {
                break 'conn; // SHUTDOWN acknowledged
            }
        }
    }
    core.disconnect(&conn);
    // Peer gone (EOF/error/condemned): drain what is buffered and let
    // the writer exit. On server stop the outbox stays open — join()
    // closes it once the dispatcher has fanned out the drained queue —
    // unless join() had already closed the others before this
    // connection registered.
    if !core.stopping() || !registered {
        conn.close();
    }
    let _ = writer.join();
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_data::GrayImage;

    /// Records every response with its connection.
    #[derive(Default)]
    struct Log(Vec<(usize, Response)>);

    impl Transport for Log {
        type Conn = usize;
        fn send(&mut self, conn: &usize, resp: &Response, _frame: Vec<u8>) {
            self.0.push((*conn, resp.clone()));
        }
        fn flush(&mut self) {}
    }

    fn dft_core(workers: usize) -> (Core<usize>, Arc<ServingModel>) {
        let registry = Arc::new(Registry::new());
        registry.swap(ServingModel::untrained(ServeApp::Dft, "mul8u_FTA").unwrap());
        let (model, _) = registry.resolve_mode(ServeApp::Dft).unwrap();
        let cfg =
            ServerConfig { workers, max_batch: 4, linger: Duration::ZERO, ..Default::default() };
        (Core::new(registry, cfg), model)
    }

    fn queue(core: &Core<usize>, first_id: u64, samples: &[ServeSample]) {
        for (id, sample) in (first_id..).zip(samples) {
            let pending = Pending { id, sample: Some(sample.clone()), conn: 0, expires_at: None };
            let key = BatchKey::App(ServeApp::Dft);
            assert_eq!(core.queue.push(key, 0, pending), Admission::Admitted);
        }
    }

    /// A panic inside a pool worker's chunk is the batch's panic: every
    /// request of that batch gets a `panic:` frame, the restart counter
    /// moves once, and the same worker threads serve the next batch.
    #[test]
    fn worker_chunk_panic_answers_its_batch_and_the_pool_serves_on() {
        let (core, model) = dft_core(2);
        assert_eq!(core.pool().live_threads(), 1);
        let good: Vec<ServeSample> = (0..4)
            .map(|n| ServeApp::Dft.decode(&crate::loadgen::payload(ServeApp::Dft, 3, n)).unwrap())
            .collect();
        // A 4×4 image cannot go through the 32×32 DFT; with four samples
        // on two workers it lands in chunk 1, on the pool thread.
        let poison = ServeSample::Image(GrayImage::from_pixels(4, 4, vec![0.0; 16]));
        queue(&core, 0, &[good[0].clone(), good[1].clone(), good[2].clone(), poison]);
        let mut log = Log::default();
        assert!(core.dispatch_next(&mut log, None));
        assert_eq!(log.0.len(), 4);
        for (i, (_, resp)) in log.0.iter().enumerate() {
            match resp {
                Response::Error { id, message } => {
                    assert_eq!(*id, i as u64);
                    assert!(message.starts_with("panic: dispatcher restarted: "), "{message}");
                }
                other => panic!("expected a panic frame, got {other:?}"),
            }
        }
        assert_eq!(core.health().dispatcher_restarts, 1);
        assert_eq!(core.pool().live_threads(), 1, "the worker thread survives its panic");

        queue(&core, 4, &good);
        let mut log = Log::default();
        assert!(core.dispatch_next(&mut log, None));
        let expected = model.infer(&good, 1).unwrap();
        let served: Vec<(u64, Vec<f64>)> = log
            .0
            .into_iter()
            .map(|(_, resp)| match resp {
                Response::Infer { id, values } => (id, values),
                other => panic!("expected an inference frame, got {other:?}"),
            })
            .collect();
        assert_eq!(served, (4..).zip(expected).collect::<Vec<_>>());
        assert_eq!(core.health().dispatcher_restarts, 1);
    }

    /// Feed one request frame from `conn` through the core.
    fn feed(core: &Core<usize>, log: &mut Log, conn: usize, request: &Request) {
        let frame = FrameEvent::Frame(request.encode().unwrap()[4..].to_vec());
        core.handle_event(log, &conn, frame);
    }

    /// Only admitted requests take an in-flight slot, and every answer
    /// path gives it back: response, `deadline:`, `panic:` and forward
    /// error. Pings, malformed frames, `BUSY` sheds and draining
    /// refusals never enter the ledger.
    #[test]
    fn ledger_counts_admitted_requests_and_balances_on_every_answer_path() {
        let registry = Arc::new(Registry::new());
        registry.swap(ServingModel::untrained(ServeApp::Dft, "mul8u_FTA").unwrap());
        registry.swap(ServingModel::untrained(ServeApp::InverseK2j, "DRUM16-4").unwrap());
        let cfg = ServerConfig {
            workers: 1,
            queue_cap: 2,
            debug_opcodes: true,
            linger: Duration::ZERO,
            ..Default::default()
        };
        let core = Core::new(registry, cfg);
        let mut log = Log::default();
        let infer = |id, deadline_us| Request::Infer {
            kernel: ServeApp::Dft.code(),
            id,
            values: crate::loadgen::payload(ServeApp::Dft, 3, id),
            deadline_us,
        };
        feed(&core, &mut log, 5, &Request::Ping { id: 0 });
        core.handle_event(&mut log, &6, FrameEvent::Frame(vec![0xEE; 9]));
        let unknown = Request::Infer { kernel: 42, id: 1, values: vec![0.0], deadline_us: None };
        feed(&core, &mut log, 6, &unknown);
        assert_eq!((core.queue.window(5), core.queue.window(6)), (None, None));

        // Connection 1 fills the queue; its third request is shed.
        for id in 10..13 {
            feed(&core, &mut log, 1, &infer(id, None));
        }
        assert_eq!((core.queue.window(1), core.in_flight()), (Some(2), 2));
        assert!(core.dispatch_next(&mut log, None));
        assert_eq!(core.in_flight(), 0);

        feed(&core, &mut log, 2, &infer(20, Some(0)));
        feed(&core, &mut log, 2, &Request::DebugPanic { id: 21 });
        assert_eq!((core.queue.window(2), core.in_flight()), (Some(2), 2));
        assert!(core.dispatch_next(&mut log, None));
        assert!(core.dispatch_next(&mut log, None));
        assert_eq!(core.in_flight(), 0);

        // An image under the ik key fails the forward pass itself.
        let image = ServeApp::Dft.decode(&crate::loadgen::payload(ServeApp::Dft, 3, 0)).unwrap();
        let pending = Pending { id: 30, sample: Some(image), conn: 3, expires_at: None };
        let key = BatchKey::App(ServeApp::InverseK2j);
        assert_eq!(core.queue.push(key, 3, pending), Admission::Admitted);
        assert!(core.dispatch_next(&mut log, None));
        assert_eq!(core.in_flight(), 0);

        core.request_stop();
        feed(&core, &mut log, 4, &infer(40, None));
        assert_eq!((core.queue.window(4), core.in_flight()), (None, 0));

        let classes: Vec<(u64, String)> = log
            .0
            .iter()
            .filter_map(|(_, resp)| match resp {
                Response::Error { id, message } => Some((*id, class_of(message))),
                Response::Busy { id, .. } => Some((*id, "busy".into())),
                _ => None,
            })
            .collect();
        let want = [
            (0, "malformed request"),
            (1, "malformed request"),
            (12, "busy"),
            (20, "deadline"),
            (21, "panic"),
            (30, "inference"),
            (40, "shutdown"),
        ];
        let want: Vec<(u64, String)> = want.iter().map(|(id, c)| (*id, c.to_string())).collect();
        assert_eq!(classes, want);
    }

    fn class_of(message: &str) -> String {
        message.split_once(':').map_or(message, |(class, _)| class).to_owned()
    }

    /// Poll `done` every millisecond, 30 000 times at most.
    fn eventually(mut done: impl FnMut() -> bool) -> bool {
        (0..30_000).any(|_| {
            std::thread::sleep(Duration::from_millis(1));
            done()
        })
    }

    /// A client that never reads is condemned with requests still in
    /// flight; the dispatcher answers them into the void, and the
    /// ledger ends empty, the closed connection's entry gone with them.
    #[test]
    fn a_condemned_slow_client_leaves_no_slot_in_flight() {
        let registry = Arc::new(Registry::new());
        registry.swap(ServingModel::untrained(ServeApp::Blur, "mul8u_FTA").unwrap());
        let cfg =
            ServerConfig { workers: 1, max_batch: 2, write_buf_cap: 64, ..Default::default() };
        let server = serve(registry, cfg, 0).unwrap();
        let mut client = crate::client::Client::connect(server.port()).unwrap();
        for id in 0..8 {
            let values = crate::loadgen::payload(ServeApp::Blur, 1, id);
            let request =
                Request::Infer { kernel: ServeApp::Blur.code(), id, values, deadline_us: None };
            // Sends after the condemnation meet a shut socket.
            let _ = client.send(&request);
        }
        let core = &server.shared.core;
        assert!(
            eventually(|| core.health().slow_client_disconnects >= 1
                && core.in_flight() == 0
                && core.queue.window(0).is_none()),
            "in flight {}, window {:?}",
            core.in_flight(),
            core.queue.window(0)
        );
        drop(client);
        server.shutdown();
        server.join();
    }

    /// A closed loop over loopback: the client resends the moment it
    /// reads each answer. The batch's slots are released before its
    /// answers are flushed, so the connection never shows two in flight
    /// and its learned window stays 1.
    #[test]
    fn release_precedes_flush_so_a_closed_loop_keeps_window_one() {
        let registry = Arc::new(Registry::new());
        registry.swap(ServingModel::untrained(ServeApp::InverseK2j, "DRUM16-4").unwrap());
        let server = serve(registry, ServerConfig { workers: 1, ..Default::default() }, 0).unwrap();
        let mut client = crate::client::Client::connect(server.port()).unwrap();
        for id in 0..500 {
            let values = crate::loadgen::payload(ServeApp::InverseK2j, 1, id);
            let request = Request::Infer {
                kernel: ServeApp::InverseK2j.code(),
                id,
                values,
                deadline_us: None,
            };
            match client.round_trip(&request).unwrap() {
                Response::Infer { id: got, .. } => assert_eq!(got, id),
                other => panic!("expected an inference frame, got {other:?}"),
            }
        }
        assert_eq!(server.shared.core.queue.window(0), Some(1));
        assert_eq!(server.in_flight(), 0);
        drop(client);
        server.shutdown();
        server.join();
    }

    /// A transport whose clients read each answer on the flush that
    /// delivers it and send their next request at once, from inside
    /// that flush.
    struct Resend<'a> {
        core: &'a Core<usize>,
        answered: Vec<(usize, u64)>,
    }

    impl Transport for Resend<'_> {
        type Conn = usize;
        fn send(&mut self, conn: &usize, resp: &Response, _frame: Vec<u8>) {
            if let Response::Infer { id, .. } = resp {
                self.answered.push((*conn, *id));
            }
        }
        fn flush(&mut self) {
            for (conn, id) in std::mem::take(&mut self.answered) {
                let values = crate::loadgen::payload(ServeApp::Dft, 1, id + 2);
                let next = Request::Infer {
                    kernel: ServeApp::Dft.code(),
                    id: id + 2,
                    values,
                    deadline_us: None,
                };
                feed(self.core, &mut Log::default(), conn, &next);
            }
        }
    }

    /// The ordering the blocked-source rule rests on, without a socket
    /// race: a batch's slots are free before its flush, so a client that
    /// resends during the flush is still seen with one in flight.
    #[test]
    fn a_resend_during_the_flush_finds_its_slot_free() {
        let (core, _) = dft_core(1);
        for conn in 0..2 {
            let values = crate::loadgen::payload(ServeApp::Dft, 1, conn as u64);
            let first = Request::Infer {
                kernel: ServeApp::Dft.code(),
                id: conn as u64,
                values,
                deadline_us: None,
            };
            feed(&core, &mut Log::default(), conn, &first);
        }
        let mut out = Resend { core: &core, answered: Vec::new() };
        for _ in 0..10 {
            assert!(core.dispatch_next(&mut out, None));
            assert_eq!((core.queue.window(0), core.queue.window(1)), (Some(1), Some(1)));
        }
        assert_eq!(core.in_flight(), 2, "each client has its next request in flight");
    }

    /// `join` stops the pool: once it returns, no worker thread runs.
    #[test]
    fn join_leaves_no_pool_thread_running() {
        let (registry, cfg) = (Arc::new(Registry::new()), ServerConfig::default());
        let server = serve(registry, cfg, 0).unwrap();
        let shared = Arc::clone(&server.shared);
        assert_eq!(shared.core.pool().live_threads(), 3);
        server.shutdown();
        server.join();
        assert_eq!(shared.core.pool().live_threads(), 0);
    }

    /// The interleaving behind a `join()` hang: `join()` takes the
    /// connection list before a just-accepted reader registers. That
    /// reader must close its own outbox so its writer, and then the
    /// reader itself, exit.
    #[test]
    fn reader_registering_after_join_closes_its_own_outbox() {
        let shared = Arc::new(Shared::new(Arc::new(Registry::new()), ServerConfig::default()));
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        // What join() does before the reader gets to register.
        shared.request_stop();
        assert!(shared.conns.lock().unwrap().take().is_some());

        let (done_tx, done_rx) = mpsc::channel();
        let reader = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                reader_loop(&shared, stream);
                let _ = done_tx.send(());
            })
        };
        done_rx.recv_timeout(Duration::from_secs(30)).expect("reader hung on its writer");
        reader.join().unwrap();
        drop(peer);
    }
}
