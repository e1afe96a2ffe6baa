//! The wire protocol: length-prefixed binary frames.
//!
//! Every message travels as one *frame*: a little-endian `u32` body
//! length followed by that many body bytes. The first body byte is an
//! opcode; `f64` payloads travel as raw IEEE-754 bit patterns
//! (little-endian), so responses are bit-exact — the byte stream a
//! client reads back is a pure function of the request payload and the
//! serving model.
//!
//! Framing ([`FrameReader`]) is deliberately separate from body parsing
//! ([`Request::parse`] / [`Response::parse`]): the framing layer only
//! finds frame boundaries in a byte stream (surviving partial reads and
//! pipelined frames), while body parsing turns one complete frame into
//! a typed message. [`MAX_FRAME_LEN`] bounds frames in *both*
//! directions: a received frame advertising more is reported as a
//! [`FrameEvent::Oversized`] event and its advertised bytes are skipped,
//! so the stream *resyncs* on the next frame instead of the connection
//! dying, and [`Request::encode`] / [`Response::encode`] refuse to build
//! an over-limit outbound frame with a structured error instead of
//! silently emitting bytes no peer would accept. A frame with a garbage
//! body parses to an error that the server answers with an error frame.
//!
//! # Resilience extensions
//!
//! * `INFER` carries an optional trailing deadline (µs, relative to
//!   admission); the dispatcher drops expired requests pre-dispatch
//!   with a `deadline:` error.
//! * [`Response::Busy`] is the admission-control shed frame: queue
//!   depth at refusal plus a retry-after hint.
//! * [`Response::Pong`] carries a full [`HealthSnapshot`] (queue depth,
//!   shed/expired counters, supervisor restarts, live modes), turning
//!   the liveness probe into a health probe.
//! * [`Request::DebugPanic`] poisons the dispatcher on purpose — fault
//!   injection for the chaos harness, honored only when the server was
//!   started with debug opcodes enabled.

use lac_core::HealthSnapshot;

/// Largest frame body, in bytes (4 MiB — a full 32×32 image payload is
/// ~8 KiB, so this is generous headroom, not a limit any well-formed
/// client approaches). Shared by the [`FrameReader`] resync path and
/// the [`Request::encode`] / [`Response::encode`] frame writers.
pub const MAX_FRAME_LEN: usize = 1 << 22;

/// Request opcode: run inference on a payload.
pub const OP_INFER: u8 = 0x01;
/// Request opcode: liveness/health probe.
pub const OP_PING: u8 = 0x02;
/// Request opcode: hot-swap a checkpoint into the model registry.
pub const OP_SWAP: u8 = 0x03;
/// Request opcode: graceful shutdown.
pub const OP_SHUTDOWN: u8 = 0x04;
/// Request opcode: poison the dispatcher (chaos fault injection; only
/// honored when the server runs with debug opcodes enabled).
pub const OP_DEBUG_PANIC: u8 = 0x66;
/// Response opcode: inference output.
pub const OP_INFER_OK: u8 = 0x81;
/// Response opcode: ping reply with a health snapshot.
pub const OP_PONG: u8 = 0x82;
/// Response opcode: swap acknowledged.
pub const OP_SWAPPED: u8 = 0x83;
/// Response opcode: shutdown acknowledged.
pub const OP_BYE: u8 = 0x84;
/// Response opcode: request shed at admission (queue at cap).
pub const OP_BUSY: u8 = 0x7D;
/// Response opcode: per-request error (the connection stays open).
pub const OP_ERROR: u8 = 0x7F;

/// One client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run the kernel with wire code `kernel` on `values`.
    Infer {
        /// [`lac_apps::serving::ServeApp`] wire code.
        kernel: u8,
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
        /// Flat request payload.
        values: Vec<f64>,
        /// Optional deadline in microseconds, measured from admission:
        /// if the request is still queued this long after the server
        /// accepts it, it is dropped pre-dispatch with a `deadline:`
        /// error instead of wasting kernel time. Encoded as an optional
        /// trailing `u64`, so deadline-less encoders stay compatible.
        deadline_us: Option<u64>,
    },
    /// Liveness/health probe.
    Ping {
        /// Correlation id.
        id: u64,
    },
    /// Load the checkpoint at `path` and swap it into the registry.
    Swap {
        /// Correlation id.
        id: u64,
        /// Server-side checkpoint file path.
        path: String,
    },
    /// Ask the server to drain and exit.
    Shutdown {
        /// Correlation id.
        id: u64,
    },
    /// Poison the dispatcher thread (panic fault injection). Refused
    /// with an error frame unless the server was started with debug
    /// opcodes enabled.
    DebugPanic {
        /// Correlation id.
        id: u64,
    },
}

/// One server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Inference output for the request with the same id.
    Infer {
        /// Echoed correlation id.
        id: u64,
        /// Flat output values.
        values: Vec<f64>,
    },
    /// Ping reply carrying the daemon's health snapshot.
    Pong {
        /// Echoed correlation id.
        id: u64,
        /// Point-in-time daemon health.
        health: HealthSnapshot,
    },
    /// A checkpoint was swapped in for the kernel with this wire code.
    Swapped {
        /// Echoed correlation id.
        id: u64,
        /// Wire code of the swapped kernel.
        kernel: u8,
    },
    /// Shutdown acknowledged; the server drains and exits.
    Bye {
        /// Echoed correlation id.
        id: u64,
    },
    /// The request was shed at admission: the batch queue is at its
    /// configured cap. The client should back off and retry.
    Busy {
        /// Echoed correlation id.
        id: u64,
        /// Queue depth at the moment of refusal.
        depth: u32,
        /// Server's estimate of when retrying could succeed (µs).
        retry_after_us: u64,
    },
    /// The request failed; the connection stays usable.
    Error {
        /// Echoed correlation id (0 when the request's id was
        /// unparseable).
        id: u64,
        /// What went wrong, prefixed with its taxonomy class
        /// (`malformed request:`, `deadline:`, `panic:`, `overflow:`, …;
        /// DESIGN.md §10 lists them all).
        message: String,
    },
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64s(out: &mut Vec<u8>, values: &[f64]) {
    put_u32(out, values.len() as u32);
    for v in values {
        put_u64(out, v.to_bits());
    }
}

/// Wrap a message body in a length-prefixed frame, refusing over-limit
/// bodies: a frame longer than [`MAX_FRAME_LEN`] would only be skipped
/// by the peer's resync path, so building one is always a bug worth a
/// structured error.
fn frame(body: Vec<u8>) -> Result<Vec<u8>, String> {
    if body.len() > MAX_FRAME_LEN {
        return Err(format!(
            "overflow: frame body is {} bytes, over MAX_FRAME_LEN ({} bytes)",
            body.len(),
            MAX_FRAME_LEN
        ));
    }
    let mut out = Vec::with_capacity(4 + body.len());
    put_u32(&mut out, body.len() as u32);
    out.extend_from_slice(&body);
    Ok(out)
}

/// Sequential reader over a frame body.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.bytes.len() - self.pos < n {
            return Err(format!(
                "truncated frame: {what} needs {n} bytes, {} left",
                self.bytes.len() - self.pos
            ));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn f64s(&mut self) -> Result<Vec<f64>, String> {
        let n = self.u32("value count")? as usize;
        let b = self.take(8 * n, "values")?;
        Ok(b.chunks_exact(8)
            .map(|c| {
                let mut a = [0u8; 8];
                a.copy_from_slice(c);
                f64::from_bits(u64::from_le_bytes(a))
            })
            .collect())
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn done(&self, what: &str) -> Result<(), String> {
        if self.pos != self.bytes.len() {
            return Err(format!(
                "{what}: {} trailing bytes after the message",
                self.bytes.len() - self.pos
            ));
        }
        Ok(())
    }
}

impl Request {
    /// The correlation id the client chose for this request.
    pub fn id(&self) -> u64 {
        match self {
            Request::Infer { id, .. }
            | Request::Ping { id }
            | Request::Swap { id, .. }
            | Request::Shutdown { id }
            | Request::DebugPanic { id } => *id,
        }
    }

    /// Encode as a complete frame (length prefix included). Fails with
    /// a structured error when the body would exceed
    /// [`MAX_FRAME_LEN`].
    pub fn encode(&self) -> Result<Vec<u8>, String> {
        let mut body = Vec::new();
        match self {
            Request::Infer { kernel, id, values, deadline_us } => {
                body.push(OP_INFER);
                body.push(*kernel);
                put_u64(&mut body, *id);
                put_f64s(&mut body, values);
                if let Some(d) = deadline_us {
                    put_u64(&mut body, *d);
                }
            }
            Request::Ping { id } => {
                body.push(OP_PING);
                put_u64(&mut body, *id);
            }
            Request::Swap { id, path } => {
                body.push(OP_SWAP);
                put_u64(&mut body, *id);
                put_u32(&mut body, path.len() as u32);
                body.extend_from_slice(path.as_bytes());
            }
            Request::Shutdown { id } => {
                body.push(OP_SHUTDOWN);
                put_u64(&mut body, *id);
            }
            Request::DebugPanic { id } => {
                body.push(OP_DEBUG_PANIC);
                put_u64(&mut body, *id);
            }
        }
        frame(body)
    }

    /// Parse one complete frame body.
    pub fn parse(body: &[u8]) -> Result<Request, String> {
        let mut c = Cursor::new(body);
        let op = c.u8("opcode")?;
        let req = match op {
            OP_INFER => {
                let kernel = c.u8("kernel code")?;
                let id = c.u64("request id")?;
                let values = c.f64s()?;
                // Optional trailing deadline: exactly 8 more bytes.
                // Anything else trailing is refused by done() below.
                let deadline_us =
                    if c.remaining() == 8 { Some(c.u64("deadline")?) } else { None };
                Request::Infer { kernel, id, values, deadline_us }
            }
            OP_PING => Request::Ping { id: c.u64("request id")? },
            OP_SWAP => {
                let id = c.u64("request id")?;
                let len = c.u32("path length")? as usize;
                let bytes = c.take(len, "path")?;
                let path = std::str::from_utf8(bytes)
                    .map_err(|_| "checkpoint path is not UTF-8".to_owned())?
                    .to_owned();
                Request::Swap { id, path }
            }
            OP_SHUTDOWN => Request::Shutdown { id: c.u64("request id")? },
            OP_DEBUG_PANIC => Request::DebugPanic { id: c.u64("request id")? },
            other => return Err(format!("unknown request opcode 0x{other:02x}")),
        };
        c.done("request")?;
        Ok(req)
    }
}

impl Response {
    /// The correlation id this response answers.
    pub fn id(&self) -> u64 {
        match self {
            Response::Infer { id, .. }
            | Response::Pong { id, .. }
            | Response::Swapped { id, .. }
            | Response::Bye { id }
            | Response::Busy { id, .. }
            | Response::Error { id, .. } => *id,
        }
    }

    /// Encode as a complete frame (length prefix included). Fails with
    /// a structured error when the body would exceed
    /// [`MAX_FRAME_LEN`].
    pub fn encode(&self) -> Result<Vec<u8>, String> {
        let mut body = Vec::new();
        match self {
            Response::Infer { id, values } => {
                body.push(OP_INFER_OK);
                put_u64(&mut body, *id);
                put_f64s(&mut body, values);
            }
            Response::Pong { id, health } => {
                body.push(OP_PONG);
                put_u64(&mut body, *id);
                put_u32(&mut body, health.queue_depth);
                put_u64(&mut body, health.shed);
                put_u64(&mut body, health.expired);
                put_u64(&mut body, health.dispatcher_restarts);
                put_u64(&mut body, health.governor_restarts);
                put_u64(&mut body, health.slow_client_disconnects);
                body.push(health.modes.len() as u8);
                for (app, mode) in &health.modes {
                    body.push(*app);
                    body.push(*mode);
                }
            }
            Response::Swapped { id, kernel } => {
                body.push(OP_SWAPPED);
                put_u64(&mut body, *id);
                body.push(*kernel);
            }
            Response::Bye { id } => {
                body.push(OP_BYE);
                put_u64(&mut body, *id);
            }
            Response::Busy { id, depth, retry_after_us } => {
                body.push(OP_BUSY);
                put_u64(&mut body, *id);
                put_u32(&mut body, *depth);
                put_u64(&mut body, *retry_after_us);
            }
            Response::Error { id, message } => {
                body.push(OP_ERROR);
                put_u64(&mut body, *id);
                put_u32(&mut body, message.len() as u32);
                body.extend_from_slice(message.as_bytes());
            }
        }
        frame(body)
    }

    /// [`encode`](Self::encode), degrading an unencodable (over-limit)
    /// response to an error frame that carries the `overflow:` reason.
    /// `None` only if even that frame cannot be built.
    pub(crate) fn encode_or_degrade(&self) -> Option<Vec<u8>> {
        self.encode().or_else(|message| Response::Error { id: self.id(), message }.encode()).ok()
    }

    /// Parse one complete frame body.
    pub fn parse(body: &[u8]) -> Result<Response, String> {
        let mut c = Cursor::new(body);
        let op = c.u8("opcode")?;
        let resp = match op {
            OP_INFER_OK => {
                let id = c.u64("response id")?;
                let values = c.f64s()?;
                Response::Infer { id, values }
            }
            OP_PONG => {
                let id = c.u64("response id")?;
                let queue_depth = c.u32("queue depth")?;
                let shed = c.u64("shed count")?;
                let expired = c.u64("expired count")?;
                let dispatcher_restarts = c.u64("dispatcher restarts")?;
                let governor_restarts = c.u64("governor restarts")?;
                let slow_client_disconnects = c.u64("slow-client disconnects")?;
                let n = c.u8("mode count")? as usize;
                let mut modes = Vec::with_capacity(n);
                for _ in 0..n {
                    let app = c.u8("mode app code")?;
                    let mode = c.u8("mode value")?;
                    modes.push((app, mode));
                }
                Response::Pong {
                    id,
                    health: HealthSnapshot {
                        queue_depth,
                        shed,
                        expired,
                        dispatcher_restarts,
                        governor_restarts,
                        slow_client_disconnects,
                        modes,
                    },
                }
            }
            OP_SWAPPED => {
                let id = c.u64("response id")?;
                let kernel = c.u8("kernel code")?;
                Response::Swapped { id, kernel }
            }
            OP_BYE => Response::Bye { id: c.u64("response id")? },
            OP_BUSY => {
                let id = c.u64("response id")?;
                let depth = c.u32("queue depth")?;
                let retry_after_us = c.u64("retry hint")?;
                Response::Busy { id, depth, retry_after_us }
            }
            OP_ERROR => {
                let id = c.u64("response id")?;
                let len = c.u32("message length")? as usize;
                let bytes = c.take(len, "message")?;
                let message = String::from_utf8_lossy(bytes).into_owned();
                Response::Error { id, message }
            }
            other => return Err(format!("unknown response opcode 0x{other:02x}")),
        };
        c.done("response")?;
        Ok(resp)
    }
}

/// One framing-layer event: a complete frame body, or an oversized
/// header whose advertised bytes are being skipped.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameEvent {
    /// A complete frame body, ready for [`Request::parse`] /
    /// [`Response::parse`].
    Frame(Vec<u8>),
    /// A frame advertised more than [`MAX_FRAME_LEN`] bytes. The reader
    /// discards that many bytes and resyncs; the caller should answer
    /// with an error frame rather than close the connection.
    Oversized {
        /// The advertised body length.
        advertised: u32,
    },
}

/// Incremental frame-boundary decoder over an arbitrary chunking of the
/// byte stream.
///
/// Feed it whatever the socket yields — single bytes, half a header,
/// three pipelined frames at once — and it emits each complete frame
/// exactly once, in order. Pure: no I/O, fully property-testable.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Bytes of an oversized frame still to discard.
    skip: usize,
}

impl FrameReader {
    /// A reader at a frame boundary.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Consume `data`, appending decoded events to `out`.
    pub fn push(&mut self, data: &[u8], out: &mut Vec<FrameEvent>) {
        self.buf.extend_from_slice(data);
        loop {
            if self.skip > 0 {
                let n = self.skip.min(self.buf.len());
                self.buf.drain(..n);
                self.skip -= n;
                if self.skip > 0 {
                    return; // need more bytes to finish skipping
                }
            }
            if self.buf.len() < 4 {
                return;
            }
            let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]);
            if len as usize > MAX_FRAME_LEN {
                out.push(FrameEvent::Oversized { advertised: len });
                self.buf.drain(..4);
                self.skip = len as usize;
                continue;
            }
            let total = 4 + len as usize;
            if self.buf.len() < total {
                return;
            }
            let body = self.buf[4..total].to_vec();
            self.buf.drain(..total);
            out.push(FrameEvent::Frame(body));
        }
    }

    /// Bytes buffered but not yet decodable (partial header or body).
    pub fn pending(&self) -> usize {
        self.buf.len() + self.skip
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(reader: &mut FrameReader, data: &[u8]) -> Vec<FrameEvent> {
        let mut out = Vec::new();
        reader.push(data, &mut out);
        out
    }

    fn health_fixture() -> HealthSnapshot {
        HealthSnapshot {
            queue_depth: 3,
            shed: 17,
            expired: 2,
            dispatcher_restarts: 1,
            governor_restarts: 0,
            slow_client_disconnects: 4,
            modes: vec![(0, 2), (3, 1)],
        }
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Infer {
                kernel: 3,
                id: 42,
                values: vec![1.5, -0.0, f64::NAN],
                deadline_us: None,
            },
            Request::Infer { kernel: 0, id: 9, values: vec![2.0], deadline_us: Some(12_345) },
            Request::Ping { id: u64::MAX },
            Request::Swap { id: 7, path: "results/ck.json".into() },
            Request::Shutdown { id: 0 },
            Request::DebugPanic { id: 11 },
        ];
        for req in reqs {
            let frame = req.encode().expect("encode");
            let mut r = FrameReader::new();
            let events = feed(&mut r, &frame);
            assert_eq!(events.len(), 1);
            let FrameEvent::Frame(body) = &events[0] else { panic!("expected frame") };
            let parsed = Request::parse(body).expect("parse");
            // NaN payloads survive bit-exactly, so compare encodings.
            assert_eq!(parsed.encode().expect("re-encode"), frame);
        }
    }

    #[test]
    fn deadline_survives_round_trip_exactly() {
        for deadline_us in [None, Some(0u64), Some(1), Some(u64::MAX)] {
            let req = Request::Infer { kernel: 1, id: 5, values: vec![1.0, 2.0], deadline_us };
            let frame = req.encode().expect("encode");
            let parsed = Request::parse(&frame[4..]).expect("parse");
            assert_eq!(parsed, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Infer { id: 9, values: vec![2.5f64.powi(40), f64::INFINITY] },
            Response::Pong { id: 1, health: HealthSnapshot::default() },
            Response::Pong { id: 8, health: health_fixture() },
            Response::Swapped { id: 2, kernel: 5 },
            Response::Bye { id: 3 },
            Response::Busy { id: 6, depth: 1024, retry_after_us: 50_000 },
            Response::Error { id: 0, message: "no model loaded".into() },
        ];
        for resp in resps {
            let frame = resp.encode().expect("encode");
            let body = &frame[4..];
            let parsed = Response::parse(body).expect("parse");
            assert_eq!(parsed, resp);
            assert_eq!(parsed.encode().expect("re-encode"), frame);
        }
    }

    #[test]
    fn response_ids_are_exposed_uniformly() {
        assert_eq!(Response::Bye { id: 3 }.id(), 3);
        assert_eq!(Response::Busy { id: 6, depth: 0, retry_after_us: 0 }.id(), 6);
        assert_eq!(Response::Pong { id: 1, health: HealthSnapshot::default() }.id(), 1);
    }

    #[test]
    fn over_limit_outbound_frames_are_refused_structurally() {
        // (MAX_FRAME_LEN / 8) f64s plus the header push the body over.
        let req = Request::Infer {
            kernel: 0,
            id: 1,
            values: vec![0.0; MAX_FRAME_LEN / 8],
            deadline_us: None,
        };
        let err = req.encode().expect_err("over-limit encode must fail");
        assert!(err.contains("MAX_FRAME_LEN"), "error names the limit: {err}");
        assert!(err.starts_with("overflow:"), "taxonomy prefix: {err}");

        let resp = Response::Error { id: 1, message: "x".repeat(MAX_FRAME_LEN + 1) };
        assert!(resp.encode().expect_err("oversized error frame").contains("MAX_FRAME_LEN"));
    }

    #[test]
    fn byte_at_a_time_delivery() {
        let frame = Request::Ping { id: 77 }.encode().expect("encode");
        let mut r = FrameReader::new();
        let mut events = Vec::new();
        for &b in &frame {
            r.push(&[b], &mut events);
        }
        assert_eq!(events.len(), 1);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn pipelined_frames_in_one_read() {
        let mut bytes = Request::Ping { id: 1 }.encode().expect("encode");
        bytes.extend(Request::Shutdown { id: 2 }.encode().expect("encode"));
        bytes.extend(Request::Ping { id: 3 }.encode().expect("encode"));
        let mut r = FrameReader::new();
        let events = feed(&mut r, &bytes);
        assert_eq!(events.len(), 3);
    }

    #[test]
    fn oversized_frame_resyncs() {
        let advertised = (MAX_FRAME_LEN + 1) as u32;
        let mut bytes = advertised.to_le_bytes().to_vec();
        bytes.extend(std::iter::repeat(0xAB).take(100)); // partial junk body
        let mut r = FrameReader::new();
        let events = feed(&mut r, &bytes);
        assert_eq!(events, vec![FrameEvent::Oversized { advertised }]);
        // Deliver the rest of the junk, then a healthy frame: it decodes.
        let junk = vec![0xCD; MAX_FRAME_LEN + 1 - 100];
        assert!(feed(&mut r, &junk).is_empty());
        let healthy = Request::Ping { id: 5 }.encode().expect("encode");
        let events = feed(&mut r, &healthy);
        assert_eq!(events.len(), 1);
        let FrameEvent::Frame(body) = &events[0] else { panic!("expected frame") };
        assert_eq!(Request::parse(body), Ok(Request::Ping { id: 5 }));
    }

    #[test]
    fn garbage_bodies_are_parse_errors_not_panics() {
        assert!(Request::parse(&[]).is_err());
        assert!(Request::parse(&[0xEE]).is_err());
        assert!(Request::parse(&[OP_INFER, 0]).is_err());
        // Advertised value count larger than the body.
        let mut body = vec![OP_INFER, 0];
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(&1000u32.to_le_bytes());
        assert!(Request::parse(&body).unwrap_err().contains("truncated"));
        // Trailing bytes are refused: 1 extra byte is neither a bare
        // infer nor an infer-with-deadline.
        let req = Request::Infer { kernel: 0, id: 1, values: vec![], deadline_us: None };
        let mut ok = req.encode().expect("encode")[4..].to_vec();
        ok.push(0);
        assert!(Request::parse(&ok).unwrap_err().contains("trailing"));
        // And 7 trailing bytes (a torn deadline) are refused too.
        let mut torn = req.encode().expect("encode")[4..].to_vec();
        torn.extend_from_slice(&[0; 7]);
        assert!(Request::parse(&torn).unwrap_err().contains("trailing"));
    }
}
