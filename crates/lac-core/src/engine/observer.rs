//! Structured per-epoch telemetry for the training engine.
//!
//! Every trainer/search entry point drives a [`TrainSession`] and emits
//! one [`EpochEvent`] per optimizer epoch through a [`TrainObserver`].
//! Events carry the epoch index, the training loss, the sampled
//! paths / gate probabilities of NAS loops, the quality and area/delay of
//! the current hardware assignment, and wall-clock seconds — everything
//! the experiment binaries previously re-derived with per-loop
//! bookkeeping. The [`JsonlObserver`] streams events as JSON lines, one
//! object per epoch, so run logs under `results/runs/` can be tailed,
//! diffed, and plotted without re-running a search.
//!
//! [`TrainSession`]: crate::TrainSession

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use lac_rt::json::Value;

/// One per-epoch telemetry record.
///
/// Borrowed fields keep the hot loop allocation-light: observers that
/// outlive the event (e.g. [`MemoryObserver`]) serialize it instead of
/// storing it.
#[derive(Debug, Clone, Default)]
pub struct EpochEvent<'a> {
    /// The emitting loop: `"fixed"`, `"search-single"`,
    /// `"search-accuracy"`, `"search-multi"`, `"greedy"`, `"fine-tune"`.
    pub run: &'a str,
    /// Loop-specific context: multiplier name, stage label, restart index.
    pub detail: &'a str,
    /// Zero-based optimizer epoch within the loop.
    pub epoch: usize,
    /// True when this event records a divergence rollback instead of a
    /// completed optimizer step: the session restored its best-loss
    /// checkpoint and halved the learning rate, and `loss` carries the
    /// offending (often non-finite, hence serialized `null`) batch loss.
    pub rollback: bool,
    /// Mean training loss of this epoch's batch, when one was computed.
    pub loss: Option<f64>,
    /// Quality of the current assignment under the kernel's metric, when
    /// the loop evaluated it this epoch.
    pub quality: Option<f64>,
    /// Mean normalized area of the assignment trained this epoch.
    pub area: Option<f64>,
    /// Mean normalized delay, when every unit in the assignment
    /// publishes one.
    pub delay: Option<f64>,
    /// Candidate indices sampled by the gate(s) this epoch (empty for
    /// non-NAS loops).
    pub sampled: &'a [usize],
    /// Per-gate sampling probabilities after this epoch's update (empty
    /// for non-NAS loops).
    pub gate_probs: &'a [Vec<f64>],
    /// Wall-clock seconds since the entry point started.
    pub seconds: f64,
}

impl EpochEvent<'_> {
    /// Serialize the event as one JSON object (no trailing newline).
    /// Non-finite values use the `lac_rt::json` extension tokens, so a
    /// diverged run's NaN/±inf loss survives a round trip through the run
    /// log or result cache instead of decaying into `null`; an absent
    /// value is `null`.
    pub fn to_json(&self) -> String {
        let opt = |v: Option<f64>| v.map_or(Value::Null, Value::Num);
        let sampled = self.sampled.iter().map(|&s| Value::Num(s as f64)).collect();
        let gate_probs = self
            .gate_probs
            .iter()
            .map(|probs| Value::Arr(probs.iter().copied().map(Value::Num).collect()))
            .collect();
        Value::Obj(vec![
            member("run", Value::Str(self.run.to_owned())),
            member("detail", Value::Str(self.detail.to_owned())),
            member("epoch", Value::Num(self.epoch as f64)),
            member("rollback", Value::Bool(self.rollback)),
            member("loss", opt(self.loss)),
            member("quality", opt(self.quality)),
            member("area", opt(self.area)),
            member("delay", opt(self.delay)),
            member("sampled", Value::Arr(sampled)),
            member("gate_probs", Value::Arr(gate_probs)),
            member("seconds", Value::Num(self.seconds)),
        ])
        .to_json()
    }
}

fn member(key: &str, value: Value) -> (String, Value) {
    (key.to_owned(), value)
}

/// A structured training-failure record, emitted by the engine right
/// before it returns a [`TrainError`](crate::TrainError): divergence
/// with the rollback budget exhausted, or a checkpoint I/O failure.
///
/// Written to run logs as a JSON line with an `"error"` key, so a sweep
/// over many runs records *which* run failed and why without losing the
/// remaining rows.
#[derive(Debug, Clone, Default)]
pub struct ErrorEvent<'a> {
    /// The emitting loop (see [`EpochEvent::run`]).
    pub run: &'a str,
    /// Loop-specific context (see [`EpochEvent::detail`]).
    pub detail: &'a str,
    /// Human-readable failure description.
    pub error: &'a str,
    /// Wall-clock seconds since the entry point started.
    pub seconds: f64,
}

impl ErrorEvent<'_> {
    /// Serialize the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        Value::Obj(vec![
            member("run", Value::Str(self.run.to_owned())),
            member("detail", Value::Str(self.detail.to_owned())),
            member("error", Value::Str(self.error.to_owned())),
            member("seconds", Value::Num(self.seconds)),
        ])
        .to_json()
    }
}

/// Receiver of per-epoch training telemetry.
pub trait TrainObserver {
    /// Called once per optimizer epoch by every engine-backed loop.
    fn on_epoch(&mut self, event: &EpochEvent<'_>);

    /// Called once when an engine-backed loop fails with a structured
    /// error, right before the corresponding
    /// [`TrainError`](crate::TrainError) is returned. Default: ignored.
    fn on_error(&mut self, _event: &ErrorEvent<'_>) {}
}

/// Discards every event (the default for the non-`_observed` entry
/// points).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl TrainObserver for NullObserver {
    fn on_epoch(&mut self, _event: &EpochEvent<'_>) {}
}

/// Collects events as serialized JSON lines in memory (tests and
/// post-run summaries).
#[derive(Debug, Clone, Default)]
pub struct MemoryObserver {
    /// One JSON object per observed epoch, in emission order.
    pub lines: Vec<String>,
}

impl MemoryObserver {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of observed epochs.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True when no event has been observed.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

impl TrainObserver for MemoryObserver {
    fn on_epoch(&mut self, event: &EpochEvent<'_>) {
        self.lines.push(event.to_json());
    }

    fn on_error(&mut self, event: &ErrorEvent<'_>) {
        self.lines.push(event.to_json());
    }
}

/// Streams events as JSON lines (one object per line) to a file,
/// creating parent directories as needed.
#[derive(Debug)]
pub struct JsonlObserver {
    path: PathBuf,
    out: BufWriter<File>,
}

impl JsonlObserver {
    /// Open (truncate) `path` for writing, creating parent directories.
    pub fn create(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let out = BufWriter::new(File::create(&path)?);
        Ok(JsonlObserver { path, out })
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl TrainObserver for JsonlObserver {
    fn on_epoch(&mut self, event: &EpochEvent<'_>) {
        // A full disk mid-run must not abort a multi-hour search; the
        // run log is best-effort.
        let _ = writeln!(self.out, "{}", event.to_json());
    }

    fn on_error(&mut self, event: &ErrorEvent<'_>) {
        let _ = writeln!(self.out, "{}", event.to_json());
        // Errors are worth surviving a crash: flush eagerly.
        let _ = self.out.flush();
    }
}

impl Drop for JsonlObserver {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_serializes_all_fields() {
        let probs = vec![vec![0.25, 0.75]];
        let sampled = [1usize, 0];
        let e = EpochEvent {
            run: "search-single",
            detail: "blur",
            epoch: 3,
            rollback: false,
            loss: Some(0.5),
            quality: None,
            area: Some(0.125),
            delay: None,
            sampled: &sampled,
            gate_probs: &probs,
            seconds: 1.5,
        };
        assert_eq!(
            e.to_json(),
            r#"{"run":"search-single","detail":"blur","epoch":3,"rollback":false,"loss":0.5,"quality":null,"area":0.125,"delay":null,"sampled":[1,0],"gate_probs":[[0.25,0.75]],"seconds":1.5}"#
        );
        // Every optional field absent, no gates.
        assert_eq!(
            EpochEvent::default().to_json(),
            r#"{"run":"","detail":"","epoch":0,"rollback":false,"loss":null,"quality":null,"area":null,"delay":null,"sampled":[],"gate_probs":[],"seconds":0}"#
        );
        // Non-finite values and ragged per-gate probabilities, one gate empty.
        let nested = vec![vec![0.5, 0.25, 0.25], vec![], vec![1.0]];
        let sampled = [2usize, 0, 0];
        let e = EpochEvent {
            run: "search-multi",
            detail: "tap00",
            epoch: 12,
            rollback: true,
            loss: Some(f64::NAN),
            quality: Some(f64::INFINITY),
            area: Some(f64::NEG_INFINITY),
            delay: Some(0.0625),
            sampled: &sampled,
            gate_probs: &nested,
            seconds: 0.0,
        };
        assert_eq!(
            e.to_json(),
            r#"{"run":"search-multi","detail":"tap00","epoch":12,"rollback":true,"loss":NaN,"quality":Infinity,"area":-Infinity,"delay":0.0625,"sampled":[2,0,0],"gate_probs":[[0.5,0.25,0.25],[],[1]],"seconds":0}"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        let esc = "q\"b\\s\nn\rr\tt\u{1}u";
        let e = EpochEvent { run: esc, detail: esc, ..Default::default() };
        assert_eq!(
            e.to_json(),
            r#"{"run":"q\"b\\s\nn\rr\tt\u0001u","detail":"q\"b\\s\nn\rr\tt\u0001u","epoch":0,"rollback":false,"loss":null,"quality":null,"area":null,"delay":null,"sampled":[],"gate_probs":[],"seconds":0}"#
        );
        let e =
            ErrorEvent { run: esc, detail: "mul8u_FTA!flip=0.1", error: esc, seconds: f64::NAN };
        assert_eq!(
            e.to_json(),
            r#"{"run":"q\"b\\s\nn\rr\tt\u0001u","detail":"mul8u_FTA!flip=0.1","error":"q\"b\\s\nn\rr\tt\u0001u","seconds":NaN}"#
        );
    }

    #[test]
    fn memory_observer_collects_lines() {
        let mut obs = MemoryObserver::new();
        assert!(obs.is_empty());
        obs.on_epoch(&EpochEvent { epoch: 0, ..Default::default() });
        obs.on_epoch(&EpochEvent { epoch: 1, ..Default::default() });
        assert_eq!(obs.len(), 2);
        assert!(obs.lines[1].contains("\"epoch\":1"));
    }

    #[test]
    fn jsonl_observer_writes_one_line_per_event() {
        let dir = std::env::temp_dir().join("lac-engine-observer-test");
        let path = dir.join("run.jsonl");
        {
            let mut obs = JsonlObserver::create(&path).expect("create log");
            assert_eq!(obs.path(), path.as_path());
            obs.on_epoch(&EpochEvent { epoch: 0, loss: Some(1.0), ..Default::default() });
            obs.on_epoch(&EpochEvent { epoch: 1, loss: Some(0.5), ..Default::default() });
        }
        let text = std::fs::read_to_string(&path).expect("read log");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"loss\":1"));
        assert!(lines[1].contains("\"loss\":0.5"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_finite_floats_round_trip_losslessly() {
        // Regression: these used to serialize as null, so a Diverged
        // row's NaN loss was indistinguishable from "no loss computed".
        let e = EpochEvent { loss: Some(f64::INFINITY), ..Default::default() };
        assert!(e.to_json().contains("\"loss\":Infinity"), "{}", e.to_json());
        let e = EpochEvent { loss: Some(f64::NEG_INFINITY), ..Default::default() };
        assert!(e.to_json().contains("\"loss\":-Infinity"), "{}", e.to_json());
        let e = EpochEvent { loss: Some(f64::NAN), ..Default::default() };
        let parsed = lac_rt::json::Value::parse(&e.to_json()).expect("run-log line parses");
        assert!(parsed.get("loss").unwrap().as_f64().unwrap().is_nan());
        // Absent values still serialize as null — "not computed" stays
        // distinguishable from "computed and non-finite".
        let e = EpochEvent { loss: None, ..Default::default() };
        assert!(e.to_json().contains("\"loss\":null"), "{}", e.to_json());
    }

    #[test]
    fn rollback_flag_serializes() {
        let normal = EpochEvent { epoch: 2, ..Default::default() };
        assert!(normal.to_json().contains("\"rollback\":false"), "{}", normal.to_json());
        let rolled =
            EpochEvent { epoch: 2, rollback: true, loss: Some(f64::NAN), ..Default::default() };
        let json = rolled.to_json();
        assert!(json.contains("\"rollback\":true"), "{json}");
        assert!(json.contains("\"loss\":NaN"), "{json}");
    }

    #[test]
    fn error_event_serializes_and_reaches_observers() {
        let e = ErrorEvent {
            run: "fixed",
            detail: "mul8u_FTA",
            error: "diverged at epoch 3",
            seconds: 2.5,
        };
        let json = e.to_json();
        assert!(json.starts_with("{\"run\":\"fixed\""), "{json}");
        assert!(json.contains("\"error\":\"diverged at epoch 3\""), "{json}");
        assert!(json.ends_with("\"seconds\":2.5}"), "{json}");

        let mut obs = MemoryObserver::new();
        obs.on_error(&e);
        assert_eq!(obs.len(), 1);
        assert!(obs.lines[0].contains("\"error\""));
        // The default impl ignores errors without panicking.
        NullObserver.on_error(&e);
    }
}
