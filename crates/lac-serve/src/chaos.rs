//! Seeded fault injection for the serving stack.
//!
//! Two harnesses share one [`ChaosPlan`] vocabulary:
//!
//! - [`run_resilience`] drives the daemon's own serving core in
//!   process: real protocol frames (poison probes included, as real
//!   `DEBUG_PANIC` frames) go through real [`FrameReader`]s into the
//!   same admission → batch → dispatch → respond code the TCP daemon
//!   runs, with a [`MockClock`] instead of wall time, seeded arrivals
//!   instead of sockets, and a transport that logs every response frame
//!   in emission order. This module keeps only the harness: the tick
//!   loop, fault placement, connection picking, and report counters
//!   derived from the frames the transport saw and the core's health
//!   counters. The report (and the committed `BENCH_resilience.json`
//!   built from it by `resilience_sweep`) is a pure function of the
//!   config, byte-identical for every `--jobs` and worker count.
//! - [`run_chaos`] drives a *live* daemon over TCP: it front-loads the
//!   plan's faults (dropped connections, oversized frames, fragmented
//!   writes, `DEBUG_PANIC` pokes, a corrupt checkpoint swap) and then
//!   runs a normal load-generator pass to show the server still serves
//!   clean traffic to completion.
//!
//! Every fault count and placement comes from the plan's seed, so a
//! failing chaos run reproduces exactly.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use lac_apps::serving::ServeApp;
use lac_core::ServingModel;
use lac_rt::clock::MockClock;
use lac_rt::hash::fnv1a_64_hex;
use lac_rt::json::Value;
use lac_rt::rng::{RngExt, SeedableRng, StdRng};

use crate::client::Client;
use crate::loadgen::{payload, run_loadgen, LoadgenConfig, LoadgenReport};
use crate::protocol::{FrameEvent, FrameReader, Request, Response, MAX_FRAME_LEN};
use crate::registry::Registry;
use crate::server::{Core, ServerConfig, Transport};

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Poison the dispatcher (the `DEBUG_PANIC` opcode).
    Panic,
    /// A frame header advertising more than [`MAX_FRAME_LEN`] bytes.
    Oversized,
    /// A client that vanishes mid-stream without reading its responses.
    Drop,
    /// A request written one byte at a time.
    Fragment,
    /// A checkpoint swap that must be refused (corrupt artifact).
    CorruptSwap,
}

impl ChaosEvent {
    /// Stable ordering rank for same-tick events.
    fn rank(self) -> u8 {
        match self {
            ChaosEvent::Panic => 0,
            ChaosEvent::Oversized => 1,
            ChaosEvent::Drop => 2,
            ChaosEvent::Fragment => 3,
            ChaosEvent::CorruptSwap => 4,
        }
    }
}

/// A seeded schedule of faults to inject.
///
/// Parsed from the CLI spec syntax
/// `seed=7,panics=1,oversized=2,drops=2,frags=2,corrupt-swaps=1`
/// (any subset of keys; missing keys default to zero faults, seed 7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Seed for fault placement.
    pub seed: u64,
    /// Injected dispatcher panics.
    pub panics: u32,
    /// Oversized frame headers.
    pub oversized: u32,
    /// Connections dropped without reading responses.
    pub drops: u32,
    /// Requests written one byte at a time.
    pub frags: u32,
    /// Corrupt checkpoint swap attempts.
    pub corrupt_swaps: u32,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        ChaosPlan::none()
    }
}

impl ChaosPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        ChaosPlan { seed: 7, panics: 0, oversized: 0, drops: 0, frags: 0, corrupt_swaps: 0 }
    }

    /// Whether the plan injects any fault at all.
    pub fn is_empty(&self) -> bool {
        self.panics == 0
            && self.oversized == 0
            && self.drops == 0
            && self.frags == 0
            && self.corrupt_swaps == 0
    }

    /// Parse the `key=value,key=value` CLI spec syntax.
    pub fn parse(spec: &str) -> Result<ChaosPlan, String> {
        let mut plan = ChaosPlan::none();
        for token in spec.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("chaos: `{token}` is not of the form key=value"))?;
            let n: u64 = value
                .trim()
                .parse()
                .map_err(|_| format!("chaos: `{value}` is not a valid count for `{key}`"))?;
            match key.trim() {
                "seed" => plan.seed = n,
                "panics" => plan.panics = n as u32,
                "oversized" => plan.oversized = n as u32,
                "drops" => plan.drops = n as u32,
                "frags" => plan.frags = n as u32,
                "corrupt-swaps" => plan.corrupt_swaps = n as u32,
                other => {
                    return Err(format!(
                        "chaos: unknown key `{other}` (known: seed, panics, oversized, \
                         drops, frags, corrupt-swaps)"
                    ));
                }
            }
        }
        Ok(plan)
    }

    /// Place every fault at a seeded tick in `[0, ticks)`, sorted by
    /// `(tick, kind)`. Pure: the same plan and horizon always yield the
    /// same schedule.
    pub fn events(&self, ticks: u64) -> Vec<(u64, ChaosEvent)> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let span = ticks.max(1);
        let mut out: Vec<(u64, ChaosEvent)> = Vec::new();
        let kinds = [
            (self.panics, ChaosEvent::Panic),
            (self.oversized, ChaosEvent::Oversized),
            (self.drops, ChaosEvent::Drop),
            (self.frags, ChaosEvent::Fragment),
            (self.corrupt_swaps, ChaosEvent::CorruptSwap),
        ];
        for (count, kind) in kinds {
            for _ in 0..count {
                out.push((rng.random_range(0..span), kind));
            }
        }
        out.sort_by_key(|(tick, kind)| (*tick, kind.rank()));
        out
    }
}

/// Knobs for one deterministic in-process resilience run.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Application under load.
    pub app: ServeApp,
    /// Multiplier spec for the untrained serving model.
    pub spec: String,
    /// Simulated scheduler ticks.
    pub ticks: u64,
    /// Simulated client connections.
    pub conns: usize,
    /// New requests per tick (round-robin across live connections).
    pub arrivals_per_tick: usize,
    /// Admission cap for the batch queue.
    pub queue_cap: usize,
    /// Dispatcher batch size cap.
    pub max_batch: usize,
    /// Batches dispatched per tick (the service rate).
    pub batches_per_tick: usize,
    /// Deadline attached to every request, µs from admission.
    pub deadline_us: Option<u64>,
    /// Mock-clock advance per tick, µs.
    pub tick_us: u64,
    /// Mock-clock advance per inferred sample, µs.
    pub service_per_item_us: u64,
    /// Payload-stream seed.
    pub seed: u64,
    /// Inference worker threads (outputs are invariant to this).
    pub threads: usize,
    /// Fault schedule.
    pub chaos: ChaosPlan,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            app: ServeApp::Blur,
            spec: "mul8u_FTA".to_owned(),
            ticks: 32,
            conns: 4,
            arrivals_per_tick: 3,
            queue_cap: 64,
            max_batch: 8,
            batches_per_tick: 2,
            deadline_us: Some(5_000),
            tick_us: 100,
            service_per_item_us: 10,
            seed: 42,
            threads: 2,
            chaos: ChaosPlan::none(),
        }
    }
}

/// What one in-process resilience run measured. Every field is a pure
/// function of the [`ResilienceConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// Requests that reached admission (including poison probes).
    pub offered: u64,
    /// Requests answered with an infer response to a live connection.
    pub completed: u64,
    /// Requests refused with a `BUSY` frame at admission.
    pub shed: u64,
    /// Requests dropped pre-dispatch by their deadline.
    pub expired: u64,
    /// Dispatcher restarts after injected panics.
    pub restarts: u64,
    /// Connections dropped by the chaos schedule.
    pub dropped_conns: u64,
    /// Response frames that had no live connection to go to.
    pub dropped_deliveries: u64,
    /// Batches dispatched (including the poisoned ones).
    pub batches: u64,
    /// Worst-case batches from a panic to the next successful batch
    /// (`None` when no panic was injected).
    pub recovery_batches: Option<u64>,
    /// Error frames delivered, counted by taxonomy class (the message
    /// prefix before the first `:`).
    pub taxonomy: BTreeMap<String, u64>,
    /// FNV-1a hash of every response frame delivered to a live
    /// connection, in delivery order.
    pub fingerprint: String,
}

impl ResilienceReport {
    /// Completed requests as a fraction of offered.
    pub fn goodput(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.completed as f64 / self.offered as f64
    }

    /// Shed requests as a fraction of offered.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.shed as f64 / self.offered as f64
    }
}

/// The taxonomy class of an error message: its prefix before `:`.
fn class_of(message: &str) -> String {
    match message.split_once(':') {
        Some((class, _)) => class.to_owned(),
        None => "other".to_owned(),
    }
}

/// The in-process transport. Frames for live connections append to one
/// delivery log in emission order (the report's fingerprint); frames
/// for dropped connections are only counted. Every frame is tallied by
/// kind whether or not its connection is still there.
#[derive(Debug, Default)]
struct Wire {
    /// Per connection: dropped by the chaos schedule.
    dropped: Vec<bool>,
    /// Every frame delivered to a live connection, concatenated.
    delivered: Vec<u8>,
    /// Infer frames delivered to a live connection.
    completed: u64,
    dropped_deliveries: u64,
    /// Infer frames, delivered or not.
    inferred: u64,
    /// Error frames by class, plus `busy` for `BUSY` frames.
    taxonomy: BTreeMap<String, u64>,
}

impl Wire {
    /// Frames of one taxonomy class so far.
    fn count(&self, class: &str) -> u64 {
        self.taxonomy.get(class).copied().unwrap_or(0)
    }

    /// Samples a forward pass answered so far: infer frames plus
    /// `inference:` errors.
    fn forwarded(&self) -> u64 {
        self.inferred + self.count("inference")
    }
}

impl Transport for Wire {
    type Conn = usize;

    fn send(&mut self, conn: &usize, resp: &Response, frame: Vec<u8>) {
        let class = match resp {
            Response::Infer { .. } => {
                self.inferred += 1;
                None
            }
            Response::Busy { .. } => Some("busy".to_owned()),
            Response::Error { message, .. } => Some(class_of(message)),
            _ => None,
        };
        if let Some(class) = class {
            *self.taxonomy.entry(class).or_insert(0) += 1;
        }
        if self.dropped.get(*conn).is_none_or(|&dropped| dropped) {
            self.dropped_deliveries += 1;
            return;
        }
        if let Response::Infer { .. } = resp {
            self.completed += 1;
        }
        self.delivered.extend_from_slice(&frame);
    }

    fn flush(&mut self) {}
}

/// The in-process driver: the daemon's [`Core`] fed by simulated
/// connections through real [`FrameReader`]s, answering over a
/// [`Wire`].
struct InProcess {
    core: Core<usize>,
    readers: Vec<FrameReader>,
    wire: Wire,
}

impl InProcess {
    fn new(registry: Arc<Registry>, cfg: ServerConfig, conns: usize) -> Self {
        InProcess {
            core: Core::new(registry, cfg),
            readers: (0..conns).map(|_| FrameReader::new()).collect(),
            wire: Wire { dropped: vec![false; conns], ..Wire::default() },
        }
    }

    /// Feed raw bytes into connection `conn` (one byte at a time when
    /// `fragmented`) and let the core answer every framing event.
    fn feed(&mut self, conn: usize, bytes: &[u8], fragmented: bool) {
        let mut events = Vec::new();
        if let Some(reader) = self.readers.get_mut(conn) {
            if fragmented {
                for byte in bytes {
                    reader.push(std::slice::from_ref(byte), &mut events);
                }
            } else {
                reader.push(bytes, &mut events);
            }
        }
        for event in events {
            self.core.handle_event(&mut self.wire, &conn, event);
        }
    }

    /// Dispatch one queued batch; `false` when nothing is queued.
    fn dispatch(&mut self) -> bool {
        !self.core.is_idle() && self.core.dispatch_next(&mut self.wire, None)
    }
}

/// The tick loop's state around an [`InProcess`] driver: which
/// connections fragment their next write, and the fault and recovery
/// bookkeeping the report needs beyond what the wire counted.
struct Harness {
    io: InProcess,
    app: ServeApp,
    clock: Arc<MockClock>,
    service_per_item_us: u64,
    /// Per connection: write the next request one byte at a time.
    frag_next: Vec<bool>,
    poisons: u64,
    offered: u64,
    dropped_conns: u64,
    batches: u64,
    recovering: bool,
    batches_since_restart: u64,
    recovery_batches: Option<u64>,
}

impl Harness {
    fn is_live(&self, conn: usize) -> bool {
        self.io.wire.dropped.get(conn).is_some_and(|&dropped| !dropped)
    }

    /// First live connection at or after `salt % conns`.
    fn pick_conn(&self, salt: u64) -> usize {
        let n = self.io.wire.dropped.len().max(1);
        let start = (salt as usize) % n;
        (0..n).map(|i| (start + i) % n).find(|&c| self.is_live(c)).unwrap_or(start)
    }

    /// Apply one scheduled fault at `tick`.
    fn apply_event(&mut self, tick: u64, event: ChaosEvent) {
        let c = self.pick_conn(tick);
        match event {
            ChaosEvent::Drop => {
                if let Some(dropped) = self.io.wire.dropped.get_mut(c) {
                    if !*dropped {
                        *dropped = true;
                        self.dropped_conns += 1;
                        self.io.core.disconnect(&c);
                    }
                }
            }
            ChaosEvent::Fragment => {
                if let Some(frag) = self.frag_next.get_mut(c) {
                    *frag = true;
                }
            }
            ChaosEvent::Oversized => {
                let advertised = (MAX_FRAME_LEN as u32).saturating_add(1);
                self.io.feed(c, &advertised.to_le_bytes(), false);
                // Complete the oversized body so the stream resyncs and
                // later requests on this connection still parse.
                self.io.feed(c, &vec![0u8; advertised as usize], false);
            }
            ChaosEvent::Panic => {
                let id = 0xFEED_0000_0000_0000 | self.poisons;
                self.poisons += 1;
                if let Ok(bytes) = (Request::DebugPanic { id }).encode() {
                    self.offered += 1;
                    self.io.feed(c, &bytes, false);
                }
            }
            ChaosEvent::CorruptSwap => {
                // The core's swap step refuses the corrupt artifact and
                // answers the connection with a structured error.
                let refused = ServingModel::untrained(self.app, "mul8u_CORRUPT")
                    .map_err(|e| format!("corrupt checkpoint refused ({e})"));
                self.io.core.swap(&mut self.io.wire, &c, 0xC0_0000_0000_0000 | tick, refused);
            }
        }
    }

    /// Dispatch one batch, then advance the clock by its service time
    /// and track panic recovery from the frames it produced. Returns
    /// `false` when nothing is queued.
    fn serve_batch(&mut self) -> bool {
        let wire = &self.io.wire;
        let before = (wire.count("panic"), wire.inferred, wire.forwarded());
        if !self.io.dispatch() {
            return false;
        }
        self.batches += 1;
        if self.recovering {
            self.batches_since_restart += 1;
        }
        let wire = &self.io.wire;
        self.clock.advance(self.service_per_item_us * (wire.forwarded() - before.2));
        if wire.count("panic") > before.0 {
            self.recovering = true;
            self.batches_since_restart = 0;
        } else if self.recovering && wire.inferred > before.1 {
            let took = self.batches_since_restart;
            self.recovery_batches =
                Some(self.recovery_batches.map_or(took, |worst| worst.max(took)));
            self.recovering = false;
        }
        true
    }
}

/// Run one deterministic in-process resilience cell.
///
/// Wall-clock-free: time is a [`MockClock`] advanced by the tick loop,
/// so the report — fingerprint included — is byte-identical across
/// machines, `--jobs`, and worker counts.
pub fn run_resilience(cfg: &ResilienceConfig) -> Result<ResilienceReport, String> {
    let sim = simulate(cfg)?;
    let health = sim.io.core.health();
    let wire = sim.io.wire;
    Ok(ResilienceReport {
        offered: sim.offered,
        completed: wire.completed,
        shed: health.shed,
        expired: health.expired,
        restarts: health.dispatcher_restarts,
        dropped_conns: sim.dropped_conns,
        dropped_deliveries: wire.dropped_deliveries,
        batches: sim.batches,
        recovery_batches: sim.recovery_batches,
        taxonomy: wire.taxonomy,
        fingerprint: fnv1a_64_hex(&wire.delivered),
    })
}

/// Run one cell's tick loop, then drain its queue.
fn simulate(cfg: &ResilienceConfig) -> Result<Harness, String> {
    let registry = Arc::new(Registry::new());
    registry.swap(ServingModel::untrained(cfg.app, &cfg.spec).map_err(|e| e.to_string())?);
    let clock = Arc::new(MockClock::new(0));
    let server = ServerConfig {
        workers: cfg.threads,
        max_batch: cfg.max_batch,
        linger: Duration::ZERO,
        queue_cap: cfg.queue_cap,
        default_deadline_us: cfg.deadline_us,
        debug_opcodes: true,
        clock: clock.clone(),
        ..ServerConfig::default()
    };
    let conns = cfg.conns.max(1);
    let mut sim = Harness {
        io: InProcess::new(registry, server, conns),
        app: cfg.app,
        clock,
        service_per_item_us: cfg.service_per_item_us,
        frag_next: vec![false; conns],
        poisons: 0,
        offered: 0,
        dropped_conns: 0,
        batches: 0,
        recovering: false,
        batches_since_restart: 0,
        recovery_batches: None,
    };

    let events = cfg.chaos.events(cfg.ticks);
    let mut next_event = 0usize;
    let mut arrival: u64 = 0;
    for tick in 0..cfg.ticks {
        sim.clock.advance(cfg.tick_us);
        while next_event < events.len() && events[next_event].0 == tick {
            sim.apply_event(tick, events[next_event].1);
            next_event += 1;
        }
        for _ in 0..cfg.arrivals_per_tick {
            let conn = sim.pick_conn(arrival);
            if !sim.is_live(conn) {
                break; // every connection is gone; no more arrivals
            }
            let id = ((conn as u64) << 48) | arrival;
            let request = Request::Infer {
                kernel: cfg.app.code(),
                id,
                values: payload(cfg.app, cfg.seed, arrival),
                deadline_us: None, // the per-cell default deadline applies
            };
            arrival += 1;
            let Ok(bytes) = request.encode() else { continue };
            let fragmented = sim.frag_next.get_mut(conn).is_some_and(std::mem::take);
            sim.offered += 1;
            sim.io.feed(conn, &bytes, fragmented);
        }
        for _ in 0..cfg.batches_per_tick {
            if !sim.serve_batch() {
                break;
            }
        }
    }
    // Drain whatever is still queued, as the daemon does on shutdown.
    while sim.serve_batch() {}
    Ok(sim)
}

/// The storm plan used by the committed sweep: every fault kind at
/// least once, seeded.
pub fn storm_plan() -> ChaosPlan {
    ChaosPlan { seed: 7, panics: 2, oversized: 2, drops: 1, frags: 3, corrupt_swaps: 1 }
}

/// The sweep grid: {light, heavy} load × {none, storm} chaos.
pub fn resilience_cells(threads: usize) -> Vec<(String, ResilienceConfig)> {
    let light = ResilienceConfig { threads, ..ResilienceConfig::default() };
    let heavy = ResilienceConfig {
        arrivals_per_tick: 12,
        queue_cap: 16,
        batches_per_tick: 1,
        deadline_us: Some(400),
        threads,
        ..ResilienceConfig::default()
    };
    let mut cells = Vec::new();
    for (load, base) in [("light", light), ("heavy", heavy)] {
        for (weather, chaos) in [("none", ChaosPlan::none()), ("chaos", storm_plan())] {
            let id = format!("resilience/{load}/{weather}");
            cells.push((id, ResilienceConfig { chaos: chaos.clone(), ..base.clone() }));
        }
    }
    cells
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// Run the full sweep grid and assemble the `BENCH_resilience.json`
/// document. `jobs` parallelizes across cells; the document is
/// byte-identical for every `jobs` and `threads` value.
pub fn run_resilience_sweep(jobs: usize, threads: usize) -> Result<Value, String> {
    let cells = resilience_cells(threads);
    let reports = lac_rt::par::run_indexed(cells.len(), jobs, |i| run_resilience(&cells[i].1));
    let mut benches = Vec::new();
    for ((id, cfg), report) in cells.iter().zip(reports) {
        let report = report.map_err(|e| format!("{id}: {e}"))?;
        let errors: Vec<(String, Value)> = report
            .taxonomy
            .iter()
            .map(|(class, count)| (class.clone(), Value::Num(*count as f64)))
            .collect();
        benches.push(Value::Obj(vec![
            ("id".to_owned(), Value::Str(id.clone())),
            ("offered".to_owned(), Value::Num(report.offered as f64)),
            ("completed".to_owned(), Value::Num(report.completed as f64)),
            ("shed".to_owned(), Value::Num(report.shed as f64)),
            ("expired".to_owned(), Value::Num(report.expired as f64)),
            ("restarts".to_owned(), Value::Num(report.restarts as f64)),
            ("dropped_conns".to_owned(), Value::Num(report.dropped_conns as f64)),
            (
                "dropped_deliveries".to_owned(),
                Value::Num(report.dropped_deliveries as f64),
            ),
            ("batches".to_owned(), Value::Num(report.batches as f64)),
            (
                "recovery_batches".to_owned(),
                match report.recovery_batches {
                    Some(n) => Value::Num(n as f64),
                    None => Value::Null,
                },
            ),
            ("goodput".to_owned(), Value::Num(round3(report.goodput()))),
            ("shed_rate".to_owned(), Value::Num(round3(report.shed_rate()))),
            ("errors".to_owned(), Value::Obj(errors)),
            ("fingerprint".to_owned(), Value::Str(report.fingerprint.clone())),
            ("queue_cap".to_owned(), Value::Num(cfg.queue_cap as f64)),
            (
                "deadline_us".to_owned(),
                match cfg.deadline_us {
                    Some(d) => Value::Num(d as f64),
                    None => Value::Null,
                },
            ),
        ]));
    }
    Ok(Value::Obj(vec![
        ("suite".to_owned(), Value::Str("resilience".to_owned())),
        ("app".to_owned(), Value::Str(ServeApp::Blur.cli_id().to_owned())),
        ("spec".to_owned(), Value::Str("mul8u_FTA".to_owned())),
        ("seed".to_owned(), Value::Num(42.0)),
        ("benches".to_owned(), Value::Arr(benches)),
    ]))
}

/// What one live chaos run observed.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// `DEBUG_PANIC` pokes acknowledged with a `panic:` error frame.
    pub injected_panics: u64,
    /// `DEBUG_PANIC` pokes refused (`debug:` — opcodes disabled).
    pub refused_panics: u64,
    /// Oversized headers answered with an `overflow:` error frame.
    pub oversized_rejections: u64,
    /// Connections dropped without reading their responses.
    pub dropped_conns: u64,
    /// Fragmented (byte-at-a-time) requests still answered.
    pub fragmented_ok: u64,
    /// Corrupt checkpoint swaps refused with an error frame.
    pub corrupt_swap_rejections: u64,
    /// The clean load-generator pass run after the faults.
    pub loadgen: LoadgenReport,
}

/// One raw framed round trip over a fresh connection, writing `bytes`
/// one at a time when `fragmented`.
fn raw_round_trip(
    port: u16,
    bytes: &[u8],
    timeout: Duration,
    fragmented: bool,
) -> Result<Response, String> {
    let mut stream =
        TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("chaos connect: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| format!("chaos timeout: {e}"))?;
    let chunk = if fragmented { 1 } else { bytes.len().max(1) };
    for piece in bytes.chunks(chunk) {
        stream.write_all(piece).map_err(|e| format!("chaos write: {e}"))?;
    }
    let mut reader = FrameReader::new();
    let mut events = Vec::new();
    let mut buf = [0u8; 64 * 1024];
    loop {
        for event in events.drain(..) {
            if let FrameEvent::Frame(body) = event {
                return Response::parse(&body);
            }
        }
        let n = stream.read(&mut buf).map_err(|e| format!("chaos read: {e}"))?;
        if n == 0 {
            return Err("chaos: server closed the connection".to_owned());
        }
        reader.push(&buf[..n], &mut events);
    }
}

/// Drive a live daemon through the plan's faults, then run a clean
/// load-generator pass to show service survived.
pub fn run_chaos(cfg: &LoadgenConfig, plan: &ChaosPlan) -> Result<ChaosReport, String> {
    let mut report = ChaosReport {
        injected_panics: 0,
        refused_panics: 0,
        oversized_rejections: 0,
        dropped_conns: 0,
        fragmented_ok: 0,
        corrupt_swap_rejections: 0,
        loadgen: LoadgenReport {
            app: cfg.app,
            completed: 0,
            errors: 0,
            p50_us: 0.0,
            p99_us: 0.0,
            throughput_rps: 0.0,
            elapsed_s: 0.0,
        },
    };

    // Vanishing clients: send traffic, never read, drop the socket.
    for i in 0..plan.drops {
        let mut client = Client::connect(cfg.port).map_err(|e| format!("chaos connect: {e}"))?;
        let request = Request::Infer {
            kernel: cfg.app.code(),
            id: 0xD0_0000 | u64::from(i),
            values: payload(cfg.app, plan.seed, u64::from(i)),
            deadline_us: None,
        };
        client.send(&request).map_err(|e| format!("chaos send: {e}"))?;
        drop(client);
        report.dropped_conns += 1;
    }

    // Oversized frame headers: the server must answer with a structured
    // overflow error instead of buffering the advertised body.
    for _ in 0..plan.oversized {
        let header = ((MAX_FRAME_LEN as u32).saturating_add(1)).to_le_bytes();
        let resp = raw_round_trip(cfg.port, &header, cfg.timeout, false)?;
        match resp {
            Response::Error { message, .. } if message.starts_with("overflow:") => {
                report.oversized_rejections += 1;
            }
            other => return Err(format!("chaos: oversized header got {other:?}")),
        }
    }

    // Fragmented writes: a valid request, one byte at a time.
    for i in 0..plan.frags {
        let id = 0xF0_0000 | u64::from(i);
        let request = Request::Infer {
            kernel: cfg.app.code(),
            id,
            values: payload(cfg.app, plan.seed ^ 0x5eed, u64::from(i)),
            deadline_us: None,
        };
        let resp = raw_round_trip(cfg.port, &request.encode()?, cfg.timeout, true)?;
        match resp {
            Response::Infer { id: got, .. } if got == id => report.fragmented_ok += 1,
            other => return Err(format!("chaos: fragmented request got {other:?}")),
        }
    }

    // Corrupt checkpoint swap: the registry must refuse it.
    for i in 0..plan.corrupt_swaps {
        let path = std::env::temp_dir()
            .join(format!("lac-chaos-corrupt-{}-{i}.json", std::process::id()));
        std::fs::write(&path, b"{ this is not a checkpoint")
            .map_err(|e| format!("chaos: corrupt artifact: {e}"))?;
        let request = Request::Swap {
            id: 0xC0_0000 | u64::from(i),
            path: path.to_string_lossy().into_owned(),
        };
        let resp = raw_round_trip(cfg.port, &request.encode()?, cfg.timeout, false);
        let _ = std::fs::remove_file(&path);
        match resp? {
            Response::Error { .. } => report.corrupt_swap_rejections += 1,
            other => return Err(format!("chaos: corrupt swap got {other:?}")),
        }
    }

    // Dispatcher poison: requires the daemon to run with debug opcodes.
    for i in 0..plan.panics {
        let request = Request::DebugPanic { id: 0xBAD | (u64::from(i) << 16) };
        match raw_round_trip(cfg.port, &request.encode()?, cfg.timeout, false)? {
            Response::Error { message, .. } if message.starts_with("panic:") => {
                report.injected_panics += 1;
            }
            Response::Error { message, .. } if message.starts_with("debug:") => {
                report.refused_panics += 1;
            }
            other => return Err(format!("chaos: DEBUG_PANIC got {other:?}")),
        }
    }

    // Finally: a clean load-generator pass. Whatever the faults did,
    // the daemon must still serve ordinary traffic to completion.
    report.loadgen = run_loadgen(cfg)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_parses_full_spec() {
        let plan =
            ChaosPlan::parse("seed=9, panics=1, oversized=2, drops=3, frags=4, corrupt-swaps=5")
                .unwrap();
        assert_eq!(
            plan,
            ChaosPlan { seed: 9, panics: 1, oversized: 2, drops: 3, frags: 4, corrupt_swaps: 5 }
        );
        assert!(!plan.is_empty());
    }

    #[test]
    fn plan_parses_empty_and_partial_specs() {
        assert_eq!(ChaosPlan::parse("").unwrap(), ChaosPlan::none());
        assert!(ChaosPlan::parse("").unwrap().is_empty());
        let plan = ChaosPlan::parse("panics=2").unwrap();
        assert_eq!(plan.panics, 2);
        assert_eq!(plan.seed, ChaosPlan::none().seed);
    }

    #[test]
    fn plan_rejects_unknown_keys_and_bad_values() {
        let err = ChaosPlan::parse("selfdestruct=1").unwrap_err();
        assert!(err.contains("unknown key `selfdestruct`"), "{err}");
        let err = ChaosPlan::parse("panics=lots").unwrap_err();
        assert!(err.contains("not a valid count"), "{err}");
        let err = ChaosPlan::parse("panics").unwrap_err();
        assert!(err.contains("key=value"), "{err}");
    }

    #[test]
    fn event_schedule_is_seeded_and_sorted() {
        let plan = storm_plan();
        let a = plan.events(32);
        let b = plan.events(32);
        assert_eq!(a, b, "same plan, same schedule");
        assert_eq!(
            a.len(),
            (plan.panics + plan.oversized + plan.drops + plan.frags + plan.corrupt_swaps)
                as usize
        );
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "sorted by tick");
        assert!(a.iter().all(|(t, _)| *t < 32));
        let other = ChaosPlan { seed: plan.seed + 1, ..plan };
        assert_ne!(other.events(32), a, "different seed, different placement");
    }

    #[test]
    fn quiet_cell_completes_everything() {
        let report = run_resilience(&ResilienceConfig::default()).unwrap();
        assert_eq!(report.completed, report.offered, "{report:?}");
        assert_eq!(report.shed, 0);
        assert_eq!(report.expired, 0);
        assert_eq!(report.restarts, 0);
        assert!(report.taxonomy.is_empty(), "{:?}", report.taxonomy);
        assert_eq!(report.recovery_batches, None);
    }

    #[test]
    fn storm_cell_recovers_and_keeps_taxonomy() {
        let cfg = ResilienceConfig { chaos: storm_plan(), ..ResilienceConfig::default() };
        let report = run_resilience(&cfg).unwrap();
        assert_eq!(report.restarts, u64::from(storm_plan().panics), "{report:?}");
        assert!(report.taxonomy.contains_key("panic"), "{:?}", report.taxonomy);
        assert!(report.taxonomy.contains_key("overflow"), "{:?}", report.taxonomy);
        assert!(report.taxonomy.contains_key("swap"), "{:?}", report.taxonomy);
        assert_eq!(report.dropped_conns, u64::from(storm_plan().drops));
        assert!(report.completed > 0, "service continued after panics");
        assert_eq!(report.recovery_batches, Some(1), "next batch after a panic succeeds");
    }

    #[test]
    fn reports_are_invariant_to_threads() {
        let base = ResilienceConfig { chaos: storm_plan(), ..ResilienceConfig::default() };
        let one = run_resilience(&ResilienceConfig { threads: 1, ..base.clone() }).unwrap();
        let four = run_resilience(&ResilienceConfig { threads: 4, ..base }).unwrap();
        assert_eq!(one, four);
    }

    /// Each cell's core owns its dispatch workers: dropping the driver
    /// joins them, so a sweep of cells leaks no threads.
    #[test]
    fn per_cell_cores_leak_no_threads() {
        let registry = Arc::new(Registry::new());
        registry.swap(ServingModel::untrained(ServeApp::Blur, "mul8u_FTA").unwrap());
        let cfg = ServerConfig {
            workers: 4,
            max_batch: 8,
            linger: Duration::ZERO,
            ..ServerConfig::default()
        };
        let mut io = InProcess::new(registry, cfg, 1);
        for id in 0..8 {
            let values = payload(ServeApp::Blur, 1, id);
            let request =
                Request::Infer { kernel: ServeApp::Blur.code(), id, values, deadline_us: None };
            io.feed(0, &request.encode().unwrap(), false);
        }
        assert!(io.dispatch());
        assert_eq!(io.wire.completed, 8);
        assert_eq!(io.core.pool().live_threads(), 3);
        let workers = io.core.pool().watch();
        drop(io);
        assert!(workers.upgrade().is_none(), "a dispatch worker outlived its cell");
    }

    /// Every admitted request gives its in-flight slot back: once each
    /// sweep cell drains, shed, expired, panicked and dropped-connection
    /// traffic included, the ledger holds nothing.
    #[test]
    fn every_cell_drains_its_in_flight_ledger() {
        let mut classes = BTreeMap::new();
        let mut dropped = 0;
        for (id, cfg) in resilience_cells(2) {
            let sim = simulate(&cfg).unwrap();
            assert_eq!(sim.io.core.in_flight(), 0, "{id} leaked an in-flight slot");
            classes.extend(sim.io.wire.taxonomy);
            dropped += sim.dropped_conns;
        }
        for class in ["busy", "deadline", "panic"] {
            assert!(classes.contains_key(class), "no cell answered {class}: {classes:?}");
        }
        assert!(dropped > 0, "no cell dropped a connection");
    }

    #[test]
    fn heavy_cell_sheds_deterministically() {
        let cells = resilience_cells(2);
        let heavy = cells.iter().find(|(id, _)| id == "resilience/heavy/none").unwrap();
        let report = run_resilience(&heavy.1).unwrap();
        assert!(report.shed > 0, "overload must shed: {report:?}");
        assert!(report.taxonomy.contains_key("busy"));
        let again = run_resilience(&heavy.1).unwrap();
        assert_eq!(report, again);
    }

    /// Send `bytes` on `stream` and read back exactly one response
    /// frame, length prefix included.
    fn round_trip(stream: &mut TcpStream, reader: &mut FrameReader, bytes: &[u8]) -> Vec<u8> {
        stream.write_all(bytes).unwrap();
        let mut events = Vec::new();
        let mut buf = [0u8; 64 * 1024];
        loop {
            if let Some(event) = events.pop() {
                assert!(events.is_empty(), "one request outstanding, one response");
                let FrameEvent::Frame(body) = event else { panic!("oversized response") };
                let mut frame = (body.len() as u32).to_le_bytes().to_vec();
                frame.extend_from_slice(&body);
                return frame;
            }
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0, "daemon closed the connection");
            reader.push(&buf[..n], &mut events);
        }
    }

    /// The TCP daemon and the in-process driver run one core: the same
    /// per-connection script of requests, one outstanding at a time,
    /// gets the same response bytes from both.
    #[test]
    fn tcp_and_in_process_drivers_answer_byte_identically() {
        let registry = || {
            let registry = Arc::new(Registry::new());
            for (app, spec) in [
                (ServeApp::Blur, "mul8u_FTA"),
                (ServeApp::Jpeg, "mul8u_FTA"),
                (ServeApp::Dft, "mul8u_FTA"),
                (ServeApp::InverseK2j, "DRUM16-4"),
            ] {
                registry.swap(ServingModel::untrained(app, spec).unwrap());
            }
            registry
        };
        let cfg = ServerConfig {
            workers: 2,
            max_batch: 4,
            linger: Duration::ZERO,
            debug_opcodes: true,
            ..ServerConfig::default()
        };
        let infer = |kernel: u8, id: u64, values: Vec<f64>| {
            Request::Infer { kernel, id, values, deadline_us: None }.encode().unwrap()
        };
        let valid = |app: ServeApp, id: u64| infer(app.code(), id, payload(app, 9, id));
        // An oversized header plus the body it advertises, so the
        // stream resyncs for the requests after it.
        let mut oversized = (MAX_FRAME_LEN as u32 + 1).to_le_bytes().to_vec();
        oversized.resize(4 + MAX_FRAME_LEN + 1, 0);
        let script = [
            vec![
                valid(ServeApp::Blur, 1),
                valid(ServeApp::InverseK2j, 2),
                infer(ServeApp::Blur.code(), 3, vec![1.0; 3]),
                valid(ServeApp::Dft, 4),
            ],
            vec![
                infer(42, 5, vec![0.0; 4]),
                oversized,
                valid(ServeApp::Jpeg, 6),
                Request::DebugPanic { id: 7 }.encode().unwrap(),
                valid(ServeApp::Blur, 8),
            ],
        ];
        let steps = script.iter().map(Vec::len).max().unwrap();

        let server = crate::serve(registry(), cfg.clone(), 0).unwrap();
        let mut streams: Vec<(TcpStream, FrameReader)> = script
            .iter()
            .map(|_| {
                let stream = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
                stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                (stream, FrameReader::new())
            })
            .collect();
        let mut tcp = vec![Vec::new(); script.len()];
        for step in 0..steps {
            for (c, (stream, reader)) in streams.iter_mut().enumerate() {
                if let Some(bytes) = script[c].get(step) {
                    tcp[c].extend(round_trip(stream, reader, bytes));
                }
            }
        }
        server.shutdown();
        server.join();

        let mut io = InProcess::new(registry(), cfg, script.len());
        let mut local = vec![Vec::new(); script.len()];
        for step in 0..steps {
            for (c, requests) in script.iter().enumerate() {
                if let Some(bytes) = requests.get(step) {
                    let before = io.wire.delivered.len();
                    io.feed(c, bytes, false);
                    while io.dispatch() {}
                    local[c].extend_from_slice(&io.wire.delivered[before..]);
                }
            }
        }
        assert_eq!(tcp, local, "the two drivers answered differently");
        for class in ["malformed request", "overflow", "panic"] {
            assert!(io.wire.taxonomy.contains_key(class), "{class}: {:?}", io.wire.taxonomy);
        }
        assert_eq!(io.wire.completed, 5, "every valid infer was answered");
    }
}
