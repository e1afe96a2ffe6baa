//! What one workload run hands back to the parent process.

use lac_rt::json::Value;

/// A measured value with its unit.
pub type Metric = (String, f64, String);

/// Metrics, counts and checks of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (sessions, cells, requests).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Output checks that did not hold; empty means correct.
    pub problems: Vec<String>,
    /// End-to-end metrics, in order.
    pub metrics: Vec<Metric>,
    /// Per-layer metrics, in order.
    pub layers: Vec<Metric>,
    /// Report-only facts: fingerprints, settings, workload breakdowns.
    pub info: Vec<(String, Value)>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.metrics.push((name.into(), value, unit.to_owned()));
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.layers.push((name.into(), value, unit.to_owned()));
    }

    /// A per-layer metric recorded earlier in this run.
    pub fn layer_value(&self, name: &str) -> Option<f64> {
        self.layers.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    pub fn info(&mut self, key: impl Into<String>, value: Value) {
        self.info.push((key.into(), value));
    }

    pub fn num(&mut self, key: impl Into<String>, value: f64) {
        self.info(key, Value::Num(value));
    }

    /// `true` when a check held, otherwise record `what` as a problem.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.problems.push(what());
        }
        ok
    }

    /// Count one attempted operation, failed unless `ok`.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("correct".to_owned(), Value::Bool(self.problems.is_empty())),
            ("attempted".to_owned(), Value::Num(self.attempted as f64)),
            ("failed".to_owned(), Value::Num(self.failed as f64)),
            ("metrics".to_owned(), metrics_json(&self.metrics)),
            ("layers".to_owned(), metrics_json(&self.layers)),
            (
                "problems".to_owned(),
                Value::Arr(
                    self.problems
                        .iter()
                        .map(|p| Value::Str(p.clone()))
                        .collect(),
                ),
            ),
            ("info".to_owned(), Value::Obj(self.info.clone())),
        ])
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|(n, v, u)| {
                let m = vec![
                    ("value".to_owned(), Value::Num(*v)),
                    ("unit".to_owned(), Value::Str(u.clone())),
                ];
                (n.clone(), Value::Obj(m))
            })
            .collect(),
    )
}

/// Inverse of [`metrics_json`]; members that are not metrics are skipped.
pub fn parse_metrics(v: Option<&Value>) -> Vec<Metric> {
    let Some(Value::Obj(members)) = v else {
        return Vec::new();
    };
    members
        .iter()
        .filter_map(|(n, m)| {
            Some((
                n.clone(),
                m.get("value")?.as_f64()?,
                m.get("unit")?.as_str()?.to_owned(),
            ))
        })
        .collect()
}
