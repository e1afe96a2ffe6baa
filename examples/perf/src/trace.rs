//! In-memory spans recorded around the calls the benchmark makes into
//! each layer, written out as JSON lines when a traced run ends.
//!
//! A span's self time is its duration minus the part of its interval
//! that its children cover (children may overlap, e.g. sweep cells
//! running on two workers, so the union of their intervals is used).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use lac_rt::json::Value;

/// One recorded interval. Times are microseconds since the tracer's
/// origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span kind: `cycle`, `session`, `epoch`, `eval`, `pass`, `cell`,
    /// `phase`, `request`, `swap`, `ping`.
    pub name: &'static str,
    /// What the span covers (an app, a cell label, a phase name).
    pub label: String,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request id (0 for spans that are not requests).
    pub id: u64,
    /// Start (for requests: the scheduled send time).
    pub start_us: f64,
    /// End (for requests: when the response arrived).
    pub end_us: f64,
    /// Actual send time of a request.
    pub sent_us: Option<f64>,
}

/// Span recorder; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Record `[start, end]`; returns the span's index when enabled.
    pub fn span(
        &mut self,
        name: &'static str,
        label: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        let (start_us, end_us) = (self.us(start), self.us(end));
        self.push(Span {
            name,
            label: label.to_owned(),
            parent,
            id: 0,
            start_us,
            end_us,
            sent_us: None,
        })
    }

    pub fn push(&mut self, span: Span) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Set the end of a span recorded open (e.g. before its children).
    pub fn close(&mut self, idx: Option<usize>, end: Instant) {
        let end_us = self.us(end);
        if let Some(s) = idx.and_then(|i| self.spans.get_mut(i)) {
            s.end_us = end_us;
        }
    }

    /// Write one JSON object per span.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        let file =
            std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        let selfs = self_times(&self.spans);
        for (i, s) in self.spans.iter().enumerate() {
            let mut members = vec![
                ("i".to_owned(), Value::Num(i as f64)),
                ("name".to_owned(), Value::Str(s.name.to_owned())),
                ("label".to_owned(), Value::Str(s.label.clone())),
                (
                    "parent".to_owned(),
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("id".to_owned(), Value::Num(s.id as f64)),
                ("start_us".to_owned(), Value::Num(round1(s.start_us))),
                ("end_us".to_owned(), Value::Num(round1(s.end_us))),
                ("self_us".to_owned(), Value::Num(round1(selfs[i]))),
            ];
            if let Some(sent) = s.sent_us {
                members.push(("sent_us".to_owned(), Value::Num(round1(sent))));
            }
            writeln!(out, "{}", Value::Obj(members).to_json())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        out.flush()
            .map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// Count, total and self time (ms) per span name, in name order.
    pub fn summary_json(&self) -> Value {
        let selfs = self_times(&self.spans);
        let mut by_name: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, self_us) in self.spans.iter().zip(selfs) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end_us - s.start_us) / 1e3;
            e.2 += self_us / 1e3;
        }
        let row = |(c, t, s): (usize, f64, f64)| {
            Value::Obj(vec![
                ("count".to_owned(), Value::Num(c as f64)),
                ("total_ms".to_owned(), Value::Num(t)),
                ("self_ms".to_owned(), Value::Num(s)),
            ])
        };
        Value::Obj(
            by_name
                .into_iter()
                .map(|(n, v)| (n.to_owned(), row(v)))
                .collect(),
        )
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }
}

fn round1(v: f64) -> f64 {
    (v * 10.0).round() / 10.0
}

/// Self time of every span: its duration minus the length of the union
/// of its children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            let covered = union_len(&mut kids, s.start_us, s.end_us);
            (s.end_us - s.start_us) - covered
        })
        .collect()
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if b <= a {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}
