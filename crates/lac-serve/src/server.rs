//! The serving daemon: accept loop, per-connection readers/writers, and
//! the supervised batching dispatcher.
//!
//! # Architecture
//!
//! ```text
//! accept loop ──spawns──▶ reader thread per connection
//!                            │  parse frame → decode sample
//!                            │  stamp deadline, bounded admission
//!                            ▼
//!               BatchQueue (arrival order, depth-capped)
//!                            │  head run of one key, ≤ max_batch
//!                            ▼
//!        supervised dispatcher ── lac_rt::par pool (cfg.workers) ──▶
//!        deadline pass → one batched forward pass → responses
//!        enqueued per connection (bounded outbox + writer thread)
//! ```
//!
//! Readers do all per-request validation (framing, opcodes, payload
//! decoding), answering malformed requests with error frames so only
//! valid samples reach the queue. The dispatcher pops deterministic
//! head-run batches, drops expired requests with `deadline:` errors
//! before spending kernel time, resolves the model `Arc` once per batch
//! (so a concurrent hot-swap never splits a batch across models), runs
//! the batched forward pass across the worker pool, and enqueues each
//! connection's responses as one coalesced buffer.
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
//! * **Panic supervision** — the dispatcher (and governor) run under
//!   [`lac_rt::supervise::supervise`]: a panic converts the in-flight
//!   batch into per-request `panic:` error frames, bumps a restart
//!   counter, and restarts the thread. Injected panics
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
use crate::governor::{self, GovernorConfig, GovernorJob};
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
    /// Worker threads a batched forward pass is spread across.
    pub workers: usize,
    /// Most requests coalesced into one batch.
    pub max_batch: usize,
    /// How long a partial batch waits for the head run to fill.
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
    /// Time source for deadline stamping and expiry. Defaults to the
    /// real monotonic clock; tests and the chaos harness install a
    /// [`lac_rt::clock::MockClock`].
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

/// Retry-after hint for a request shed at `depth` queued items.
pub(crate) fn retry_after_hint(depth: usize) -> u64 {
    (depth as u64 + 1) * RETRY_HINT_PER_QUEUED_US
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

impl Conn {
    fn new(stream: TcpStream, cap: usize) -> Self {
        Conn {
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

    /// Encode and buffer one response. An unencodable (over-limit)
    /// response degrades to a structured error frame.
    fn send(&self, resp: &Response) -> Enqueue {
        let bytes = match resp.encode() {
            Ok(b) => b,
            Err(e) => match (Response::Error { id: resp.id(), message: e }).encode() {
                Ok(b) => b,
                Err(_) => return Enqueue::Dropped,
            },
        };
        self.enqueue(&bytes)
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

/// One validated request waiting for a batch. `sample` is `None` only
/// for injected poison probes ([`Request::DebugPanic`]).
struct Pending {
    id: u64,
    sample: Option<ServeSample>,
    conn: Arc<Conn>,
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

#[derive(Debug)]
struct Shared {
    registry: Arc<Registry>,
    queue: BatchQueue<BatchKey, Pending>,
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
    /// The batch the dispatcher is currently working on; on a
    /// dispatcher panic the supervisor converts these into `panic:`
    /// error frames so no request silently vanishes.
    inflight: Mutex<Vec<(Arc<Conn>, u64)>>,
    /// Every accepted connection, for outbox close at join time.
    /// `join` takes the list and leaves `None`: a reader that registers
    /// after that closes its own outbox on exit.
    conns: Mutex<Option<Vec<Weak<Conn>>>>,
}

impl Shared {
    fn new(registry: Arc<Registry>, cfg: ServerConfig) -> Self {
        Shared {
            registry,
            queue: BatchQueue::bounded(cfg.queue_cap),
            cfg,
            stop: AtomicBool::new(false),
            batch_seq: Default::default(),
            poison_seq: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            dispatcher_restarts: AtomicU64::new(0),
            governor_restarts: Arc::new(AtomicU64::new(0)),
            slow_disconnects: AtomicU64::new(0),
            inflight: Mutex::new(Vec::new()),
            conns: Mutex::new(Some(Vec::new())),
        }
    }

    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.queue.close();
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Enqueue one response, folding a slow-client condemnation into
    /// the health counters.
    fn send_counted(&self, conn: &Conn, resp: &Response) {
        if conn.send(resp) == Enqueue::Condemned {
            self.slow_disconnects.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn health(&self) -> HealthSnapshot {
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
    let (governor_tx, governor_handle) = match shared.cfg.governor.clone() {
        Some(gcfg) => {
            let registry = Arc::clone(&shared.registry);
            let workers = shared.cfg.workers;
            let restarts = Arc::clone(&shared.governor_restarts);
            let (tx, handle) = governor::spawn(gcfg, registry, workers, restarts)
                .map_err(|e| std::io::Error::new(e.kind(), format!("governor log: {e}")))?;
            (Some(tx), Some(handle))
        }
        None => (None, None),
    };
    let dispatcher = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || dispatcher_loop(&shared, governor_tx))
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
    while !shared.stopping() {
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
fn writer_loop(shared: &Shared, conn: &Conn) {
    let _ = conn.stream.set_write_timeout(Some(shared.cfg.write_timeout));
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
                shared.slow_disconnects.fetch_add(1, Ordering::SeqCst);
            }
            return;
        }
    }
}

fn reader_loop(shared: &Arc<Shared>, mut stream: TcpStream) {
    let conn = match stream.try_clone() {
        Ok(write_half) => Arc::new(Conn::new(write_half, shared.cfg.write_buf_cap)),
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
        std::thread::spawn(move || writer_loop(&shared, &conn))
    };
    // Short read timeouts let the reader poll the stop flag while idle;
    // arriving bytes wake it immediately.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));

    let mut frames = FrameReader::new();
    let mut events = Vec::new();
    let mut buf = [0u8; 64 * 1024];
    'conn: loop {
        if shared.stopping() {
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
            if handle_event(shared, &conn, event) {
                break 'conn; // SHUTDOWN acknowledged
            }
        }
    }
    // Peer gone (EOF/error/condemned): drain what is buffered and let
    // the writer exit. On server stop the outbox stays open — join()
    // closes it once the dispatcher has fanned out the drained queue —
    // unless join() had already closed the others before this
    // connection registered.
    if !shared.stopping() || !registered {
        conn.close();
    }
    let _ = writer.join();
}

/// Process one framing event; returns `true` on `SHUTDOWN`.
fn handle_event(shared: &Shared, conn: &Arc<Conn>, event: FrameEvent) -> bool {
    let body = match event {
        FrameEvent::Oversized { advertised } => {
            shared.send_counted(
                conn,
                &Response::Error {
                    id: 0,
                    message: format!(
                        "overflow: frame advertises {advertised} bytes, limit is \
                         {MAX_FRAME_LEN}; skipped"
                    ),
                },
            );
            return false;
        }
        FrameEvent::Frame(body) => body,
    };
    let request = match Request::parse(&body) {
        Ok(req) => req,
        Err(e) => {
            shared.send_counted(
                conn,
                &Response::Error { id: 0, message: format!("malformed request: {e}") },
            );
            return false;
        }
    };
    match request {
        Request::Ping { id } => {
            shared.send_counted(conn, &Response::Pong { id, health: shared.health() });
        }
        Request::Infer { kernel, id, values, deadline_us } => {
            let Some(app) = ServeApp::from_code(kernel) else {
                shared.send_counted(
                    conn,
                    &Response::Error { id, message: format!("unknown kernel code {kernel}") },
                );
                return false;
            };
            if shared.registry.resolve(app).is_none() {
                shared.send_counted(
                    conn,
                    &Response::Error {
                        id,
                        message: format!("no model loaded for kernel `{}`", app.cli_id()),
                    },
                );
                return false;
            }
            match app.decode(&values) {
                Ok(sample) => {
                    let deadline = deadline_us.or(shared.cfg.default_deadline_us);
                    let expires_at =
                        deadline.map(|d| shared.cfg.clock.now_us().saturating_add(d));
                    let pending =
                        Pending { id, sample: Some(sample), conn: Arc::clone(conn), expires_at };
                    admit(shared, conn, id, BatchKey::App(app), pending);
                }
                Err(message) => shared.send_counted(conn, &Response::Error { id, message }),
            }
        }
        Request::DebugPanic { id } => {
            if !shared.cfg.debug_opcodes {
                shared.send_counted(
                    conn,
                    &Response::Error {
                        id,
                        message: "debug: DEBUG_PANIC refused (server started without debug \
                                  opcodes)"
                            .into(),
                    },
                );
                return false;
            }
            let token = shared.poison_seq.fetch_add(1, Ordering::SeqCst);
            let pending = Pending { id, sample: None, conn: Arc::clone(conn), expires_at: None };
            admit(shared, conn, id, BatchKey::Poison(token), pending);
        }
        Request::Swap { id, path } => match ServingModel::load(Path::new(&path)) {
            Ok(model) => {
                let code = model.app().code();
                shared.registry.swap(model);
                shared.send_counted(conn, &Response::Swapped { id, kernel: code });
            }
            Err(e) => {
                shared.send_counted(conn, &Response::Error { id, message: e.to_string() })
            }
        },
        Request::Shutdown { id } => {
            shared.send_counted(conn, &Response::Bye { id });
            shared.request_stop();
            return true;
        }
    }
    false
}

/// Push one pending request through bounded admission, answering the
/// shed/drain cases with structured frames.
fn admit(shared: &Shared, conn: &Conn, id: u64, key: BatchKey, pending: Pending) {
    match shared.queue.push(key, pending) {
        Admission::Admitted => {}
        Admission::Busy { depth } => {
            shared.shed.fetch_add(1, Ordering::SeqCst);
            shared.send_counted(
                conn,
                &Response::Busy {
                    id,
                    depth: depth as u32,
                    retry_after_us: retry_after_hint(depth),
                },
            );
        }
        Admission::Closed => {
            shared.send_counted(
                conn,
                &Response::Error {
                    id,
                    message: "shutdown: server is draining, request refused".into(),
                },
            );
        }
    }
}

/// Remember the batch the dispatcher is about to work on, so a panic
/// mid-batch can be converted into per-request errors.
fn set_inflight(shared: &Shared, metas: &[(Arc<Conn>, u64)]) {
    let mut inflight = shared.inflight.lock().unwrap_or_else(|e| e.into_inner());
    inflight.clear();
    inflight.extend(metas.iter().map(|(c, id)| (Arc::clone(c), *id)));
}

fn clear_inflight(shared: &Shared) {
    shared.inflight.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// The dispatcher under its panic supervisor: a panicking batch is
/// converted into per-request `panic:` errors, the restart counter is
/// bumped, and the loop resumes — the daemon never dies with the batch.
fn dispatcher_loop(shared: &Shared, governor_tx: Option<mpsc::Sender<GovernorJob>>) {
    supervise(
        || dispatcher_run(shared, &governor_tx),
        |msg| {
            shared.dispatcher_restarts.fetch_add(1, Ordering::SeqCst);
            let poisoned = {
                let mut inflight = shared.inflight.lock().unwrap_or_else(|e| e.into_inner());
                std::mem::take(&mut *inflight)
            };
            for (conn, id) in poisoned {
                shared.send_counted(
                    &conn,
                    &Response::Error {
                        id,
                        message: format!("panic: dispatcher restarted: {msg}"),
                    },
                );
            }
            true
        },
    );
}

fn dispatcher_run(shared: &Shared, governor_tx: &Option<mpsc::Sender<GovernorJob>>) {
    let cfg = &shared.cfg;
    while let Some((key, batch)) = shared.queue.pop_batch(cfg.max_batch, cfg.linger) {
        let app = match key {
            BatchKey::Poison(_) => {
                // A poison probe is always a solo batch (unique key);
                // record it as in-flight so the supervisor answers it
                // with a structured `panic:` error frame.
                let metas: Vec<(Arc<Conn>, u64)> =
                    batch.iter().map(|p| (Arc::clone(&p.conn), p.id)).collect();
                set_inflight(shared, &metas);
                deliberate_panic("injected dispatcher panic (DEBUG_PANIC opcode)");
            }
            BatchKey::App(app) => app,
        };
        // Deadline pass: drop expired requests before spending kernel
        // time on them. `now >= expires_at` so a zero deadline is
        // deterministically expired at dispatch.
        let now = cfg.clock.now_us();
        let mut live = Vec::with_capacity(batch.len());
        for p in batch {
            if p.expires_at.is_some_and(|t| now >= t) {
                shared.expired.fetch_add(1, Ordering::SeqCst);
                shared.send_counted(
                    &p.conn,
                    &Response::Error {
                        id: p.id,
                        message: "deadline: expired before dispatch".into(),
                    },
                );
            } else {
                live.push(p);
            }
        }
        if live.is_empty() {
            continue;
        }
        // Resolve model + runtime mode once per batch: a hot-swap or a
        // governor step between batches takes effect cleanly; one
        // during a batch lets it finish on the state it started with.
        let Some((model, mode)) = shared.registry.resolve_mode(app) else {
            for p in &live {
                shared.send_counted(
                    &p.conn,
                    &Response::Error {
                        id: p.id,
                        message: format!("no model loaded for kernel `{}`", app.cli_id()),
                    },
                );
            }
            continue;
        };
        let mut metas = Vec::with_capacity(live.len());
        let mut samples = Vec::with_capacity(live.len());
        for p in live {
            if let Some(sample) = p.sample {
                metas.push((p.conn, p.id));
                samples.push(sample);
            }
        }
        set_inflight(shared, &metas);
        match model.infer_mode(mode, &samples, cfg.workers) {
            Ok(outputs) => {
                if let (Some(gcfg), Some(tx)) = (&cfg.governor, governor_tx) {
                    let seq =
                        shared.batch_seq[app.code() as usize].fetch_add(1, Ordering::SeqCst);
                    if governor::should_sample(gcfg.seed, app, seq, gcfg.sample_rate) {
                        let _ = tx.send(GovernorJob {
                            model: Arc::clone(&model),
                            app,
                            seq,
                            mode,
                            samples: samples.clone(),
                            outputs: outputs.clone(),
                        });
                    }
                }
                // Coalesce each connection's responses into one
                // enqueue; the per-connection writer threads do the
                // socket I/O, so a stalled peer never blocks this loop.
                let mut per_conn: Vec<(Arc<Conn>, Vec<u8>)> = Vec::new();
                for ((conn, id), values) in metas.into_iter().zip(outputs) {
                    let frame = match (Response::Infer { id, values }).encode() {
                        Ok(b) => b,
                        Err(e) => match (Response::Error { id, message: e }).encode() {
                            Ok(b) => b,
                            Err(_) => continue,
                        },
                    };
                    match per_conn.iter_mut().find(|(c, _)| Arc::ptr_eq(c, &conn)) {
                        Some((_, bytes)) => bytes.extend_from_slice(&frame),
                        None => per_conn.push((conn, frame)),
                    }
                }
                for (conn, bytes) in per_conn {
                    if conn.enqueue(&bytes) == Enqueue::Condemned {
                        shared.slow_disconnects.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
            Err(message) => {
                for (conn, id) in metas {
                    shared
                        .send_counted(&conn, &Response::Error { id, message: message.clone() });
                }
            }
        }
        clear_inflight(shared);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
