//! The serving workloads: open-loop Poisson traffic from two generator
//! threads against an in-process `lac_serve::serve` daemon.
//!
//! Each generator thread owns one connection, sends its half of the
//! schedule when each request is due and reads responses in between
//! (non-blocking socket, short sleeps when idle). Latency is measured
//! from a request's *scheduled* send time, so a stall also charges the
//! requests queued behind it; how late the generator itself ran is
//! reported per phase. A run is: warm-up, the three fixed rates in
//! slices interleaved with closed-loop rounds of one request in flight
//! per connection (`round_s`, the time to serve a fixed batch that way),
//! then a rate ladder that finds the highest rate meeting the latency
//! limit. Every phase runs on a daemon started for it, so the set-up
//! `setup_s` times is the one the phase then uses.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use lac_apps::serving::ServeApp;
use lac_core::{HealthSnapshot, ServingModel, SessionCheckpoint, TrainSession};
use lac_hw::catalog;
use lac_rt::json::Value;
use lac_rt::rng::{splitmix64, RngExt, SeedableRng, StdRng};
use lac_serve::{
    serve, FrameEvent, FrameReader, Registry, Request, Response, RunningServer, ServerConfig,
};

use crate::outcome::Outcome;
use crate::speed::Probes;
use crate::stats::{median, percentile, sorted, tail_percentile, Setups};
use crate::trace::{Span, Tracer};

/// A serving workload: which apps, in what proportion, at what rates.
#[derive(Debug)]
pub struct Mix {
    pub name: &'static str,
    /// `(app, multiplier spec, share of requests by count)`.
    pub apps: &'static [(ServeApp, &'static str, u32)],
    /// Fixed open-loop rates r1 < r2 < r3, requests per second.
    pub rates: [f64; 3],
    /// Hot-swap the blur checkpoint on connection 0 this often.
    pub swap_every: Option<Duration>,
}

/// Blur only: the stacked-conv forward pass dominates.
pub const SERVE_BLUR: Mix = Mix {
    name: "serve-blur",
    apps: &[(ServeApp::Blur, "mul8u_FTA", 1)],
    rates: [1_000.0, 2_500.0, 4_000.0],
    swap_every: None,
};

/// Tiny ik requests interleaved with image kernels, plus hot-swaps.
pub const SERVE_MIX: Mix = Mix {
    name: "serve-mix",
    apps: &[
        (ServeApp::InverseK2j, "DRUM16-4", 60),
        (ServeApp::Blur, "mul8u_FTA", 25),
        (ServeApp::Dft, "mul8u_FTA", 10),
        (ServeApp::Jpeg, "mul8u_FTA", 5),
    ],
    rates: [1_000.0, 2_500.0, 4_000.0],
    swap_every: Some(Duration::from_secs(5)),
};

/// The daemon settings every serving run uses.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        max_batch: 16,
        linger: Duration::from_micros(200),
        queue_cap: 1024,
        ..ServerConfig::default()
    }
}

/// Seeded payloads per app.
const POOL: usize = 512;
/// Connections, one per generator thread.
pub const CONNS: usize = 2;
/// One response in this many is compared bit for bit.
const CHECK_EVERY: usize = 16;
/// Latency limit on a rate step's tail percentile.
const P99_LIMIT_MS: f64 = 5.0;
/// Limit on the generator's own lateness (tail percentile).
const LATE_LIMIT_MS: f64 = 1.0;
/// Largest share of failed requests a passing step may have.
const FAIL_LIMIT: f64 = 0.001;
/// How long after a phase's last scheduled send responses may arrive.
const DRAIN: Duration = Duration::from_secs(1);
/// Rate growth per ladder step, and the most steps taken.
pub const LADDER_FACTOR: f64 = 1.1;
pub const LADDER_STEPS: usize = 10;
/// Closed-loop round: requests per round and in-flight window per
/// connection. One in flight keeps the daemon lightly loaded: with more,
/// a round saturates both cores, and its time then varies between runs by
/// up to a third with the virtual machine's share of its second core.
const ROUND_REQUESTS: usize = 2048;
const ROUND_WINDOW: usize = 1;
/// A round still unanswered this long after it starts has failed.
const ROUND_LIMIT: Duration = Duration::from_secs(5);
/// Health probe period on connection 0 in a traced run.
const PING_EVERY: Duration = Duration::from_millis(100);
/// Longest sleep of an idle generator loop.
const POLL: Duration = Duration::from_micros(20);
/// Marks control-frame ids (ping, swap) apart from inference ids.
const CONTROL: u64 = 1 << 63;

/// One app's checkpoint, pre-encoded request frames and expected
/// outputs.
pub struct AppPool {
    pub app: ServeApp,
    pub ckpt: PathBuf,
    frames: Vec<Vec<u8>>,
    expected: Vec<Vec<f64>>,
}

/// Write an untrained checkpoint of `app` on `spec` (serving cost does
/// not depend on coefficient values).
pub fn write_checkpoint(app: ServeApp, spec: &str, path: &Path) -> Result<(), String> {
    let kernel = app.build();
    let unit = catalog::by_spec(spec)?;
    let session = TrainSession::new(kernel.init_coeffs(&[kernel.adapt(&unit)]), 1.0);
    SessionCheckpoint::capture(&session, 0, 0, &[])
        .with_model(app.kernel_name(), spec)
        .save(path)
        .map_err(|e| e.to_string())
}

/// The decoded sample of seeded payload `n` of `app`.
pub fn sample(app: ServeApp, seed: u64, n: usize) -> Result<lac_apps::ServeSample, String> {
    app.decode(&lac_serve::loadgen::payload(app, seed, n as u64))
}

/// Checkpoints, payload pools and the expected output of every pooled
/// payload (benchmark preparation, not timed).
pub fn prepare(mix: &Mix, seed: u64, dir: &Path) -> Result<Vec<AppPool>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let dir = dir
        .canonicalize()
        .map_err(|e| format!("resolve {}: {e}", dir.display()))?;
    mix.apps
        .iter()
        .map(|&(app, spec, _)| {
            let ckpt = dir.join(format!("{}.ck.json", app.cli_id()));
            write_checkpoint(app, spec, &ckpt)?;
            let model = ServingModel::load(&ckpt).map_err(|e| e.to_string())?;
            let payloads: Vec<Vec<f64>> = (0..POOL)
                .map(|n| lac_serve::loadgen::payload(app, seed, n as u64))
                .collect();
            let samples = payloads
                .iter()
                .map(|p| app.decode(p))
                .collect::<Result<Vec<_>, _>>()?;
            let expected = model.infer(&samples, server_config().workers)?;
            let frames = payloads
                .into_iter()
                .map(|values| {
                    Request::Infer {
                        kernel: app.code(),
                        id: 0,
                        values,
                        deadline_us: None,
                    }
                    .encode()
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(AppPool {
                app,
                ckpt,
                frames,
                expected,
            })
        })
        .collect()
}

/// Byte offset of the request id in an encoded `INFER` frame: length
/// prefix (4), opcode (1), kernel code (1).
const ID_OFFSET: usize = 6;

/// One scheduled request: when (ns after the phase start), which app of
/// the mix, which pooled payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planned {
    pub at_ns: u64,
    pub app: u8,
    pub item: u16,
}

/// Poisson arrivals at `rate` per second for `dur`, apps drawn by
/// `weights`, payloads uniformly from the pool. Same seed, same schedule.
pub fn poisson(seed: u64, rate: f64, dur: Duration, weights: &[u32]) -> Vec<Planned> {
    let mut rng = StdRng::seed_from_u64(seed);
    let total: u32 = weights.iter().sum();
    let mut t = 0.0;
    let mut plan = Vec::with_capacity((rate * dur.as_secs_f64() * 1.2) as usize + 16);
    loop {
        t += -(1.0 - rng.random_f64()).ln() / rate;
        if t >= dur.as_secs_f64() {
            return plan;
        }
        let mut pick = rng.random_range(0..total);
        let app = weights.iter().position(|&w| {
            pick < w || {
                pick -= w;
                false
            }
        });
        plan.push(Planned {
            at_ns: (t * 1e9) as u64,
            app: app.unwrap_or(0) as u8,
            item: rng.random_range(0..POOL as u16),
        });
    }
}

/// Independent stream seed per (run seed, phase, thread).
fn stream_seed(seed: u64, phase: u8, thread: usize) -> u64 {
    let mut s = seed ^ (u64::from(phase) << 8) ^ thread as u64;
    splitmix64(&mut s)
}

fn request_id(phase: u8, thread: usize, seq: usize) -> u64 {
    (u64::from(phase) << 40) | ((thread as u64) << 32) | seq as u64
}

/// Outcome of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Status {
    /// Not answered (before the drain deadline).
    #[default]
    Missing,
    Ok,
    /// Shed at admission.
    Busy,
    /// Answered with an error frame.
    Error,
    /// Wrong output length, wrong bits, or answered twice.
    Bad,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Rec {
    pub sent: Option<Instant>,
    pub recv: Option<Instant>,
    pub status: Status,
}

/// A control frame's round trip (`ping` with the queue depth it read,
/// or `swap`).
#[derive(Debug, Clone, Copy)]
pub struct ControlTrip {
    pub name: &'static str,
    pub sent: Instant,
    pub recv: Instant,
    pub depth: u32,
}

/// What one generator thread observed during one phase.
pub struct ThreadOut {
    pub recs: Vec<Rec>,
    pub end: Instant,
    pub controls: Vec<ControlTrip>,
    /// Error-frame messages (the first few) and refused control frames.
    pub errors: Vec<String>,
    pub control_errors: usize,
    /// The daemon's health after the phase (connection 0 only).
    pub health: Option<HealthSnapshot>,
}

/// One phase for one generator thread: send `plan` on `stream` at its
/// times (`window == None`) or keeping at most `window` in flight; stop
/// waiting at `stop_at`.
struct Drive {
    phase: u8,
    start: Instant,
    plan: Arc<Vec<Planned>>,
    window: Option<usize>,
    stop_at: Instant,
    stream: TcpStream,
}

/// Control traffic that connection 0 carries beside its requests; it
/// outlives the phase's connection.
struct Control {
    swap: Option<(Duration, String)>,
    next_swap: Instant,
    swap_sent: Option<Instant>,
    pings: bool,
    next_ping: Instant,
    ping_sent: Vec<(u64, Instant)>,
    seq: u64,
}

/// One generator thread's connection for one phase.
struct Gen<'a> {
    thread: usize,
    stream: TcpStream,
    reader: FrameReader,
    events: Vec<FrameEvent>,
    buf: Vec<u8>,
    out: Vec<u8>,
    out_pos: usize,
    pools: &'a [AppPool],
    control: Option<&'a mut Control>,
    /// The server closed the connection, as it does to a client that
    /// falls too far behind reading its responses; requests still
    /// unanswered then stay missing.
    closed: bool,
}

impl<'a> Gen<'a> {
    fn new(
        thread: usize,
        stream: TcpStream,
        pools: &'a [AppPool],
        mut control: Option<&'a mut Control>,
    ) -> Result<Self, String> {
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        if let Some(c) = control.as_mut() {
            // Replies still owed on the previous phase's connection are
            // lost with it.
            c.swap_sent = None;
            c.ping_sent.clear();
        }
        Ok(Gen {
            thread,
            stream,
            reader: FrameReader::new(),
            events: Vec::new(),
            buf: vec![0; 32 * 1024],
            out: Vec::new(),
            out_pos: 0,
            pools,
            control,
            closed: false,
        })
    }

    fn flush(&mut self) -> Result<bool, String> {
        let mut progressed = false;
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    self.closed = true;
                    break;
                }
                Ok(n) => {
                    self.out_pos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if closed_by_peer(&e) => {
                    self.closed = true;
                    break;
                }
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(progressed)
    }

    fn read(&mut self) -> Result<bool, String> {
        let mut progressed = false;
        loop {
            match self.stream.read(&mut self.buf) {
                Ok(0) => {
                    self.closed = true;
                    return Ok(progressed);
                }
                Ok(n) => {
                    self.reader.push(&self.buf[..n], &mut self.events);
                    progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(progressed),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if closed_by_peer(&e) => {
                    self.closed = true;
                    return Ok(progressed);
                }
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    fn send(&mut self, req: &Request) -> Result<(), String> {
        self.out.extend_from_slice(&req.encode()?);
        Ok(())
    }

    /// Queue a due ping or swap on connection 0.
    fn control_tick(&mut self, now: Instant) -> Result<(), String> {
        let Some(c) = self.control.as_mut() else {
            return Ok(());
        };
        let mut frames = Vec::new();
        if c.pings && now >= c.next_ping {
            c.seq += 1;
            c.ping_sent.push((CONTROL | c.seq, now));
            c.next_ping = now + PING_EVERY;
            frames.push(Request::Ping {
                id: CONTROL | c.seq,
            });
        }
        if let Some((every, path)) = &c.swap {
            if c.swap_sent.is_none() && now >= c.next_swap {
                c.seq += 1;
                c.swap_sent = Some(now);
                c.next_swap = now + *every;
                frames.push(Request::Swap {
                    id: CONTROL | c.seq,
                    path: path.clone(),
                });
            }
        }
        frames.iter().try_for_each(|f| self.send(f))
    }

    /// Run one phase; see [`Drive`].
    fn drive(
        &mut self,
        phase: u8,
        start: Instant,
        plan: &[Planned],
        window: Option<usize>,
        stop_at: Instant,
    ) -> Result<ThreadOut, String> {
        let mut recs = vec![Rec::default(); plan.len()];
        let mut controls = Vec::new();
        let mut errors = Vec::new();
        let mut control_errors = 0;
        let (mut next, mut outstanding) = (0usize, 0usize);
        sleep_until(start);
        loop {
            let now = Instant::now();
            let mut progressed = false;
            while next < plan.len() {
                let due = match window {
                    None => start + Duration::from_nanos(plan[next].at_ns),
                    Some(w) if outstanding < w => now,
                    Some(_) => break,
                };
                if due > now {
                    break;
                }
                let p = plan[next];
                let frame = &self.pools[p.app as usize].frames[p.item as usize];
                let at = self.out.len();
                self.out.extend_from_slice(frame);
                self.out[at + ID_OFFSET..at + ID_OFFSET + 8]
                    .copy_from_slice(&request_id(phase, self.thread, next).to_le_bytes());
                recs[next].sent = Some(now);
                next += 1;
                outstanding += 1;
                progressed = true;
            }
            self.control_tick(now)?;
            progressed |= self.flush()?;
            progressed |= self.read()?;
            let recv = Instant::now();
            let mut events = std::mem::take(&mut self.events);
            for event in events.drain(..) {
                let FrameEvent::Frame(body) = event else {
                    return Err("server sent an oversized frame".to_owned());
                };
                match Response::parse(&body)? {
                    Response::Infer { id, values } => {
                        let check = |seq: usize| self.check(plan[seq], seq, &values);
                        outstanding -= settle(&mut recs, id, phase, self.thread, recv, check);
                    }
                    Response::Busy { id, .. } => {
                        outstanding -=
                            settle(&mut recs, id, phase, self.thread, recv, |_| Status::Busy);
                    }
                    Response::Error { id, message } if id & CONTROL == 0 => {
                        if errors.len() < 5 {
                            errors.push(message);
                        }
                        outstanding -=
                            settle(&mut recs, id, phase, self.thread, recv, |_| Status::Error);
                    }
                    Response::Error { message, .. } => {
                        control_errors += 1;
                        errors.push(format!("control frame refused: {message}"));
                        if let Some(c) = self.control.as_mut() {
                            c.swap_sent = None;
                        }
                    }
                    Response::Pong { id, health } => {
                        if let Some(c) = self.control.as_mut() {
                            if let Some(k) = c.ping_sent.iter().position(|(pid, _)| *pid == id) {
                                let (_, sent) = c.ping_sent.swap_remove(k);
                                controls.push(ControlTrip {
                                    name: "ping",
                                    sent,
                                    recv,
                                    depth: health.queue_depth,
                                });
                            }
                        }
                    }
                    Response::Swapped { .. } => {
                        if let Some(sent) = self.control.as_mut().and_then(|c| c.swap_sent.take()) {
                            controls.push(ControlTrip {
                                name: "swap",
                                sent,
                                recv,
                                depth: 0,
                            });
                        }
                    }
                    Response::Bye { .. } => {}
                }
            }
            self.events = events;
            let control_idle = self
                .control
                .as_ref()
                .is_none_or(|c| c.swap_sent.is_none() && c.ping_sent.is_empty());
            if next == plan.len() && outstanding == 0 && self.out.is_empty() && control_idle {
                break;
            }
            if now >= stop_at || self.closed {
                break;
            }
            if !progressed {
                let wake = match window {
                    None if next < plan.len() => start + Duration::from_nanos(plan[next].at_ns),
                    _ => now + POLL,
                };
                std::thread::sleep(wake.saturating_duration_since(Instant::now()).min(POLL));
            }
        }
        let end = Instant::now();
        if self.closed {
            errors.push("server closed the connection".to_owned());
        }
        let health = match self.control {
            Some(_) if !self.closed => Some(self.ping_now()?),
            _ => None,
        };
        Ok(ThreadOut {
            recs,
            end,
            controls,
            errors,
            control_errors,
            health,
        })
    }

    fn check(&self, p: Planned, seq: usize, values: &[f64]) -> Status {
        let pool = &self.pools[p.app as usize];
        if values.len() != pool.app.output_len() {
            return Status::Bad;
        }
        if seq.is_multiple_of(CHECK_EVERY) {
            let want = &pool.expected[p.item as usize];
            if values
                .iter()
                .zip(want)
                .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                return Status::Bad;
            }
        }
        Status::Ok
    }

    /// Ping and wait (up to 5 s) for the reply, skipping stale frames.
    fn ping_now(&mut self) -> Result<HealthSnapshot, String> {
        self.send(&Request::Ping { id: CONTROL })?;
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            self.flush()?;
            self.read()?;
            for event in std::mem::take(&mut self.events) {
                if let FrameEvent::Frame(body) = event {
                    if let Ok(Response::Pong {
                        id: CONTROL,
                        health,
                    }) = Response::parse(&body)
                    {
                        return Ok(health);
                    }
                }
            }
            if self.closed {
                return Err("server closed the connection before the final PING".to_owned());
            }
            std::thread::sleep(POLL);
        }
        Err("no reply to the final PING".to_owned())
    }
}

/// Record the response to request `id` of this phase and thread;
/// returns 1 when it settled an outstanding request. An id that is not
/// one of this phase's and thread's is ignored; a second response to the
/// same id marks it bad.
fn settle(
    recs: &mut [Rec],
    id: u64,
    phase: u8,
    thread: usize,
    now: Instant,
    status: impl FnOnce(usize) -> Status,
) -> usize {
    let seq = (id & 0xffff_ffff) as usize;
    if (id >> 40) as u8 != phase || ((id >> 32) & 0xff) as usize != thread || seq >= recs.len() {
        return 0;
    }
    let rec = &mut recs[seq];
    if rec.recv.is_some() {
        rec.status = Status::Bad;
        return 0;
    }
    rec.recv = Some(now);
    rec.status = status(seq);
    1
}

fn closed_by_peer(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
    )
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// One generator thread: runs each phase it is sent on that phase's
/// connection, which it closes when the phase ends.
fn generator(
    thread: usize,
    pools: &[AppPool],
    mut control: Option<Control>,
    cmds: mpsc::Receiver<Drive>,
    replies: mpsc::Sender<(usize, Result<ThreadOut, String>)>,
) {
    for d in cmds {
        let reply = Gen::new(thread, d.stream, pools, control.as_mut())
            .and_then(|mut gen| gen.drive(d.phase, d.start, &d.plan, d.window, d.stop_at));
        if replies.send((thread, reply)).is_err() {
            return;
        }
    }
}

/// A running daemon with the benchmark's connections open.
struct Live {
    server: RunningServer,
    conns: Vec<TcpStream>,
}

impl Live {
    /// Get a PING answered on every connection. The daemon registers a
    /// connection only when its reader thread starts, and a shutdown
    /// racing that registration leaves the connection's writer waiting
    /// forever, so `RunningServer::join` never returns: every connection
    /// is answered once before the daemon may be stopped.
    fn ping_all(&mut self) -> Result<(), String> {
        for conn in &mut self.conns {
            match blocking_round_trip(conn, &Request::Ping { id: 1 })? {
                Response::Pong { .. } => {}
                other => return Err(format!("first PING answered with {other:?}")),
            }
        }
        Ok(())
    }

    /// Close the connections, stop the daemon and wait for its threads.
    fn stop(mut self) -> Result<(), String> {
        let pinged = self.ping_all();
        drop(self.conns);
        self.server.shutdown();
        self.server.join();
        pinged
    }
}

/// What `setup_s` times on the serving workloads: load every model,
/// start the daemon and open both connections. The first PING is left
/// out: the daemon's accept loop polls every 2 ms, and whether it first
/// looks before or after the connections arrive is a race whose answer,
/// 0.3 ms or 2.2 ms, changed from run to run (`serve.first_ping_ms`
/// reports it).
fn open(pools: &[AppPool]) -> Result<Live, String> {
    let registry = Arc::new(Registry::new());
    for p in pools {
        registry.swap(ServingModel::load(&p.ckpt).map_err(|e| e.to_string())?);
    }
    let server = serve(registry, server_config(), 0).map_err(|e| format!("start server: {e}"))?;
    let mut conns = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        let s = TcpStream::connect(("127.0.0.1", server.port()))
            .map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .map_err(|e| e.to_string())?;
        conns.push(s);
    }
    Ok(Live { server, conns })
}

/// Send one request on a blocking stream and read one response.
fn blocking_round_trip(stream: &mut TcpStream, req: &Request) -> Result<Response, String> {
    stream
        .write_all(&req.encode()?)
        .map_err(|e| format!("write: {e}"))?;
    let mut reader = FrameReader::new();
    let mut events = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        if let Some(FrameEvent::Frame(body)) = events.first() {
            return Response::parse(body);
        }
        let n = stream.read(&mut buf).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection before replying".to_owned());
        }
        reader.push(&buf[..n], &mut events);
    }
}

/// Aggregates of one phase over both threads.
#[derive(Debug, Default)]
pub struct PhaseStats {
    pub name: String,
    pub rate: f64,
    pub sent: usize,
    pub ok: usize,
    pub busy: usize,
    pub errors: usize,
    pub bad: usize,
    pub missing: usize,
    /// Ascending latencies from the scheduled send time, ms.
    pub latency_ms: Vec<f64>,
    /// Ascending generator lateness (sent − scheduled), ms.
    pub late_ms: Vec<f64>,
    /// First send to last response, s.
    pub wall_s: f64,
    pub depths: Vec<f64>,
    pub swaps_ms: Vec<f64>,
    pub messages: Vec<String>,
    pub control_errors: usize,
}

impl PhaseStats {
    pub fn failures(&self) -> usize {
        self.busy + self.errors + self.bad + self.missing
    }

    /// Requests scheduled, sent or not.
    pub fn planned(&self) -> usize {
        self.ok + self.failures()
    }

    pub fn tail_ms(&self, p: f64) -> f64 {
        percentile(&self.latency_ms, p)
    }

    /// Whether a rate step meets every limit, and whether the generator
    /// itself ran too late to tell.
    pub fn verdict(&self, p: f64) -> (bool, bool) {
        let generator_bound = percentile(&self.late_ms, p) > LATE_LIMIT_MS;
        let ok = self.sent > 0
            && self.missing == 0
            && self.failures() as f64 <= FAIL_LIMIT * self.sent as f64
            && self.tail_ms(p) <= P99_LIMIT_MS
            && !generator_bound;
        (ok, generator_bound)
    }

    /// One phase made of slices run at the same rate.
    fn merge(name: &str, slices: Vec<PhaseStats>) -> PhaseStats {
        let mut m = PhaseStats {
            name: name.to_owned(),
            rate: slices.first().map_or(0.0, |s| s.rate),
            ..PhaseStats::default()
        };
        for s in slices {
            m.sent += s.sent;
            m.ok += s.ok;
            m.busy += s.busy;
            m.errors += s.errors;
            m.bad += s.bad;
            m.missing += s.missing;
            m.latency_ms.extend(s.latency_ms);
            m.late_ms.extend(s.late_ms);
            m.wall_s += s.wall_s;
            m.depths.extend(s.depths);
            m.swaps_ms.extend(s.swaps_ms);
            m.messages.extend(s.messages);
            m.control_errors += s.control_errors;
        }
        m.latency_ms.sort_by(f64::total_cmp);
        m.late_ms.sort_by(f64::total_cmp);
        m
    }
}

/// The ladder's stop rule: step up from `start` by [`LADDER_FACTOR`]
/// while `step` passes, at most [`LADDER_STEPS`] times or until `step`
/// returns `None` (out of time). Returns the highest passing rate and
/// whether a step failed.
pub fn ladder(start: f64, mut step: impl FnMut(f64) -> Option<bool>) -> (f64, bool) {
    let mut best = start;
    for k in 1..=LADDER_STEPS {
        let rate = start * LADDER_FACTOR.powi(k as i32);
        match step(rate) {
            Some(true) => best = rate,
            Some(false) => return (best, true),
            None => break,
        }
    }
    (best, false)
}

/// Drives phases through both generator threads and collects them.
struct Driver<'a> {
    mix: &'a Mix,
    pools: &'a [AppPool],
    seed: u64,
    cmds: Vec<mpsc::Sender<Drive>>,
    replies: mpsc::Receiver<(usize, Result<ThreadOut, String>)>,
    next_phase: u8,
    /// Requests sent and hot-swap round trips (ms) over every phase.
    sent: usize,
    swaps_ms: Vec<f64>,
    /// Set-up of every phase's daemon, and the speed read around it.
    setups: Setups,
    probes: Probes,
    /// Health of every phase's daemon when its phase ended.
    healths: Vec<HealthSnapshot>,
}

impl Driver<'_> {
    fn collect(&self) -> Result<Vec<ThreadOut>, String> {
        let mut got: Vec<Option<ThreadOut>> = (0..self.cmds.len()).map(|_| None).collect();
        for _ in 0..self.cmds.len() {
            let (t, r) = self
                .replies
                .recv()
                .map_err(|_| "a generator thread stopped".to_owned())?;
            got[t] = Some(r?);
        }
        Ok(got.into_iter().flatten().collect())
    }

    /// Run one phase on a freshly set-up daemon; `rate == None` is a
    /// closed-loop round.
    fn phase(
        &mut self,
        name: &str,
        rate: Option<f64>,
        dur: Duration,
        tracer: &mut Tracer,
    ) -> Result<PhaseStats, String> {
        let context = |e: String| format!("phase {name}: {e}");
        let mut live = self
            .setups
            .sample(Some(&mut self.probes), || open(self.pools), Live::stop)
            .map_err(context)?;
        if let Err(e) = live.ping_all() {
            let _ = live.stop();
            return Err(context(e));
        }
        let Live { server, conns } = live;
        let phase = self.next_phase;
        self.next_phase += 1;
        let plans = self.plans(phase, rate, dur);
        let start = Instant::now() + Duration::from_millis(2);
        let outs = self.drive(phase, start, start + dur + DRAIN, rate, &plans, conns);
        // The generators closed their connections when the phase ended.
        server.shutdown();
        server.join();
        let outs = outs.map_err(context)?;
        self.healths
            .extend(outs.iter().filter_map(|o| o.health.clone()));
        record(tracer, name, phase, start, &plans, &outs, rate.is_some());
        let s = summarize(name, rate.unwrap_or(0.0), start, &plans, &outs);
        self.sent += s.sent;
        self.swaps_ms.extend_from_slice(&s.swaps_ms);
        Ok(s)
    }

    /// Each generator's schedule for one phase.
    fn plans(&self, phase: u8, rate: Option<f64>, dur: Duration) -> Vec<Arc<Vec<Planned>>> {
        let weights: Vec<u32> = self.mix.apps.iter().map(|a| a.2).collect();
        (0..self.cmds.len())
            .map(|t| {
                let seed = stream_seed(self.seed, phase, t);
                Arc::new(match rate {
                    Some(r) => poisson(seed, r / CONNS as f64, dur, &weights),
                    // Only the app and payload draws matter in a round.
                    None => {
                        let mut p = poisson(
                            seed,
                            2.0 * ROUND_REQUESTS as f64,
                            Duration::from_secs(1),
                            &weights,
                        );
                        p.truncate(ROUND_REQUESTS / CONNS);
                        p
                    }
                })
            })
            .collect()
    }

    /// Hand each generator its connection and schedule, and wait for both.
    fn drive(
        &self,
        phase: u8,
        start: Instant,
        stop_at: Instant,
        rate: Option<f64>,
        plans: &[Arc<Vec<Planned>>],
        conns: Vec<TcpStream>,
    ) -> Result<Vec<ThreadOut>, String> {
        for ((tx, plan), stream) in self.cmds.iter().zip(plans).zip(conns) {
            tx.send(Drive {
                phase,
                start,
                plan: Arc::clone(plan),
                window: rate.is_none().then_some(ROUND_WINDOW),
                stop_at,
                stream,
            })
            .map_err(|_| "a generator thread stopped".to_owned())?;
        }
        self.collect()
    }
}

pub fn summarize(
    name: &str,
    rate: f64,
    start: Instant,
    plans: &[Arc<Vec<Planned>>],
    outs: &[ThreadOut],
) -> PhaseStats {
    let mut s = PhaseStats {
        name: name.to_owned(),
        rate,
        ..PhaseStats::default()
    };
    let mut lat = Vec::new();
    let mut late = Vec::new();
    let mut last = start;
    for (plan, out) in plans.iter().zip(outs) {
        for (p, r) in plan.iter().zip(&out.recs) {
            let due = start + Duration::from_nanos(p.at_ns);
            if let Some(sent) = r.sent {
                s.sent += 1;
                late.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
            }
            match r.status {
                Status::Ok => s.ok += 1,
                Status::Busy => s.busy += 1,
                Status::Error => s.errors += 1,
                Status::Bad => s.bad += 1,
                Status::Missing => s.missing += 1,
            }
            if let (Status::Ok, Some(recv)) = (r.status, r.recv) {
                lat.push(recv.saturating_duration_since(due).as_secs_f64() * 1e3);
                last = last.max(recv);
            }
        }
        s.messages.extend(out.errors.iter().cloned());
        s.control_errors += out.control_errors;
        for c in &out.controls {
            match c.name {
                "ping" => s.depths.push(f64::from(c.depth)),
                _ => s.swaps_ms.push((c.recv - c.sent).as_secs_f64() * 1e3),
            }
        }
    }
    s.latency_ms = sorted(lat);
    s.late_ms = sorted(late);
    s.wall_s = (last - start).as_secs_f64();
    s
}

/// `phase` span with `request`, `ping` and `swap` children.
fn record(
    tracer: &mut Tracer,
    name: &str,
    phase: u8,
    start: Instant,
    plans: &[Arc<Vec<Planned>>],
    outs: &[ThreadOut],
    open_loop: bool,
) {
    if !tracer.enabled() {
        return;
    }
    let end = outs.iter().map(|o| o.end).max().unwrap_or(start);
    let id = tracer.span("phase", name, None, start, end);
    for (t, (plan, out)) in plans.iter().zip(outs).enumerate() {
        for (seq, (p, r)) in plan.iter().zip(&out.recs).enumerate() {
            let Some(sent) = r.sent else { continue };
            let begin = if open_loop {
                start + Duration::from_nanos(p.at_ns)
            } else {
                sent
            };
            tracer.push(Span {
                name: "request",
                label: format!("{:?}", r.status),
                parent: id,
                id: request_id(phase, t, seq),
                start_us: tracer.us(begin),
                end_us: tracer.us(r.recv.unwrap_or(out.end)),
                sent_us: Some(tracer.us(sent)),
            });
        }
        for c in &out.controls {
            tracer.span(c.name, name, id, c.sent, c.recv);
        }
    }
}

/// Run one serving workload for about `seconds`.
pub fn run(
    mix: &Mix,
    seed: u64,
    seconds: f64,
    work: &Path,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let pools = prepare(mix, seed, &work.join("serve"))?;
    out.info(
        "serve.response_fp",
        Value::Str(crate::stats::bits_fingerprint(
            pools
                .iter()
                .flat_map(|p| p.expected.iter().flatten().copied()),
        )),
    );

    let swap_path = pools
        .iter()
        .find(|p| p.app == ServeApp::Blur)
        .map(|p| p.ckpt.display().to_string())
        .ok_or("every mix serves blur")?;
    std::thread::scope(|scope| -> Result<(), String> {
        let (reply_tx, replies) = mpsc::channel();
        let mut cmds = Vec::new();
        let now = Instant::now();
        for thread in 0..CONNS {
            let control = (thread == 0).then(|| Control {
                swap: mix.swap_every.map(|every| (every, swap_path.clone())),
                next_swap: now + mix.swap_every.unwrap_or_default(),
                swap_sent: None,
                pings: tracer.enabled(),
                next_ping: now,
                ping_sent: Vec::new(),
                seq: 0,
            });
            let (tx, rx) = mpsc::channel();
            cmds.push(tx);
            let reply_tx = reply_tx.clone();
            let pools = &pools;
            scope.spawn(move || generator(thread, pools, control, rx, reply_tx));
        }
        let mut driver = Driver {
            mix,
            pools: &pools,
            seed,
            cmds,
            replies,
            next_phase: 0,
            sent: 0,
            swaps_ms: Vec::new(),
            setups: Setups::default(),
            probes: Probes::new(),
            healths: Vec::new(),
        };
        let outcome = measure(&mut driver, seconds, tracer, out);
        // Dropping the driver ends the generator threads.
        let Driver {
            sent,
            setups,
            probes,
            healths,
            ..
        } = driver;
        outcome?;
        // Latencies and rounds wait on the network and the scheduler more
        // than they compute, and they stay wall times. Set-up is mostly
        // model loading (LUT tabulation), and on the shared machine its
        // wall-time median moved by half between sets of runs hours apart,
        // so it is in reference seconds, from the probes read around each
        // sample.
        let speed = probes.speed();
        out.metric("setup_s", setups.median(&speed), "s");
        speed.report("serve", out);
        if tracer.enabled() {
            let spans = tracer.count("request");
            out.check(spans == sent, || {
                format!("trace: {spans} request spans for {sent} requests sent")
            });
        }
        let total = |f: fn(&HealthSnapshot) -> u64| healths.iter().map(f).sum::<u64>() as f64;
        out.num("serve.daemons", healths.len() as f64);
        out.num("serve.shed", total(|h| h.shed));
        out.num("serve.expired", total(|h| h.expired));
        out.num(
            "serve.restarts",
            total(|h| h.dispatcher_restarts + h.governor_restarts),
        );
        for h in &healths {
            out.check(
                h.dispatcher_restarts == 0 && h.governor_restarts == 0,
                || format!("{}: final PING shows restarts {h:?}", mix.name),
            );
        }
        Ok(())
    })
}

/// The measured part: warm-up, fixed rates, closed-loop rounds, ladder.
fn measure(
    d: &mut Driver<'_>,
    seconds: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let origin = Instant::now();
    let secs = |share: f64, floor: f64| Duration::from_secs_f64((seconds * share).max(floor));
    let warm = d.phase("warmup", Some(d.mix.rates[1]), secs(0.06, 0.2), tracer)?;
    // The machine's speed drifts over seconds, so each fixed rate is
    // measured in slices spread over the run, with closed-loop rounds
    // between them, rather than in one stretch that sees one state of it.
    let blocks = ((seconds / 5.0) as usize).clamp(1, 4);
    let slice = secs(0.17 / blocks as f64, 0.1);
    let mut slices: [Vec<PhaseStats>; 3] = Default::default();
    let mut rounds = Vec::new();
    for b in 1..=blocks {
        for (k, &rate) in d.mix.rates.iter().enumerate() {
            slices[k].push(d.phase(&format!("r{}.{b}", k + 1), Some(rate), slice, tracer)?);
            if k + 1 < d.mix.rates.len() {
                let name = format!("round{}", rounds.len() + 1);
                rounds.push(d.phase(&name, None, ROUND_LIMIT, tracer)?);
            }
        }
    }
    let phases: Vec<PhaseStats> = slices
        .into_iter()
        .enumerate()
        .map(|(k, s)| PhaseStats::merge(&format!("r{}", k + 1), s))
        .collect();
    out.info(
        "serve.round_s",
        Value::Arr(rounds.iter().map(|s| Value::Num(s.wall_s)).collect()),
    );
    for s in std::iter::once(&warm).chain(&phases).chain(&rounds) {
        account(s, false, out);
    }

    let counts: Vec<usize> = phases.iter().map(|s| s.latency_ms.len()).collect();
    let p = tail_percentile(&counts);
    let fixed_pass: Vec<bool> = phases.iter().map(|s| s.verdict(p).0).collect();
    let step = secs(0.0625, 0.2);
    let mut steps = Vec::new();
    let max_rps = if fixed_pass.iter().all(|&ok| ok) {
        let mut failure: Option<String> = None;
        let (best, _) = ladder(d.mix.rates[2], |rate| {
            if origin.elapsed() + step > Duration::from_secs_f64(seconds) || failure.is_some() {
                return None;
            }
            match d.phase(&format!("ladder{rate:.0}"), Some(rate), step, tracer) {
                Ok(s) => {
                    let (ok, generator_bound) = s.verdict(tail_percentile(&[s.latency_ms.len()]));
                    // Shed and late requests are the capacity signal the
                    // ladder looks for, not failures.
                    account(&s, true, out);
                    steps.push((s, ok, generator_bound));
                    Some(ok)
                }
                Err(e) => {
                    failure = Some(e);
                    None
                }
            }
        });
        if let Some(e) = failure {
            return Err(e);
        }
        best
    } else {
        d.mix
            .rates
            .iter()
            .zip(&fixed_pass)
            .take_while(|(_, ok)| **ok)
            .last()
            .map_or(0.0, |(r, _)| *r)
    };

    let walls: Vec<f64> = rounds.iter().map(|s| s.wall_s).collect();
    out.metric("round_s", median(&walls), "s");
    out.metric("p50_ms", phases[0].tail_ms(0.5), "ms");
    out.layer("p99_ms", phases[1].tail_ms(p), "ms");

    out.num("max_rps", max_rps);
    out.num("serve.tail_percentile", p * 100.0);
    for s in std::iter::once(&warm).chain(&phases) {
        phase_info(s, p, out);
    }
    if !d.swaps_ms.is_empty() {
        out.num("serve.swap_ms", median(&d.swaps_ms));
        out.num("serve.swaps", d.swaps_ms.len() as f64);
    }
    let ladder: Vec<Value> = steps
        .iter()
        .map(|(s, ok, gb)| {
            let tp = tail_percentile(&[s.latency_ms.len()]);
            Value::Obj(vec![
                ("rate".to_owned(), Value::Num(s.rate)),
                ("sent".to_owned(), Value::Num(s.sent as f64)),
                ("failed".to_owned(), Value::Num(s.failures() as f64)),
                ("tail_ms".to_owned(), Value::Num(s.tail_ms(tp))),
                ("late_ms".to_owned(), Value::Num(percentile(&s.late_ms, tp))),
                ("pass".to_owned(), Value::Bool(*ok)),
                ("generator_bound".to_owned(), Value::Bool(*gb)),
            ])
        })
        .collect();
    out.info("serve.ladder", Value::Arr(ladder));
    Ok(())
}

/// Count a phase's requests and failures. In a ladder step (`overload`),
/// shed and unanswered requests are the capacity signal being measured,
/// not failures.
fn account(s: &PhaseStats, overload: bool, out: &mut Outcome) {
    out.attempted += s.planned() as u64;
    out.failed += (s.errors + s.bad + if overload { 0 } else { s.busy + s.missing }) as u64;
    out.check(s.bad == 0, || {
        format!("{}: {} responses wrong or duplicated", s.name, s.bad)
    });
    out.check(s.errors == 0 && s.control_errors == 0, || {
        format!(
            "{}: {} error frames: {:?}",
            s.name,
            s.errors + s.control_errors,
            s.messages
        )
    });
}

/// Per-phase report lines: latency, generator lateness, counts, queue
/// depth (traced runs).
fn phase_info(s: &PhaseStats, p: f64, out: &mut Outcome) {
    let n = &s.name;
    out.num(format!("p50_ms_{n}"), s.tail_ms(0.5));
    out.num(format!("p99_ms_{n}"), s.tail_ms(p));
    out.num(
        format!("loadgen.late_ms_p99.{n}"),
        percentile(&s.late_ms, p),
    );
    out.num(format!("loadgen.sent.{n}"), s.sent as f64);
    out.num(format!("loadgen.ok.{n}"), s.ok as f64);
    out.num(format!("loadgen.failed.{n}"), s.failures() as f64);
    if !s.depths.is_empty() {
        let depths = sorted(s.depths.clone());
        out.num(
            format!("serve.queue_depth_p50.{n}"),
            percentile(&depths, 0.5),
        );
        out.num(
            format!("serve.queue_depth_max.{n}"),
            depths[depths.len() - 1],
        );
    }
}
