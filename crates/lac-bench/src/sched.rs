//! Deterministic parallel sweep orchestrator.
//!
//! Every experiment binary's grid is turned into an explicit job list —
//! one [`UnitJob`] per sweep cell — and executed across a configurable
//! worker pool ([`lac_rt::par::run_indexed`]) with a determinism
//! contract (see `DESIGN.md` §7c):
//!
//! * **Output order equals job-list order**, regardless of completion
//!   order or worker count: canonical result rows, report rows, and
//!   per-job run logs are all keyed by job index.
//! * **Canonical result payloads carry no wall-clock.** Timing lives in
//!   the cache envelope and stderr telemetry only, so a `--jobs 8` run
//!   is byte-identical to a `--jobs 1` run (training itself is
//!   worker-count-invariant; see `lac_rt::par`).
//! * **Failures are rows, not crashes**: a panicking or structurally
//!   failing cell becomes `Err(message)` in its slot (and an
//!   `ErrorEvent` in its run log), and the sweep continues.
//!
//! Completed cells are stored in a content-addressed cache
//! (`results/cache/<fnv-hash>.json`, see [`crate::cache`]) keyed by a
//! stable fingerprint of (binary, detail, unit spec, train config incl.
//! seed, dataset sizes, crate version), so re-running a sweep skips
//! completed cells and an interrupted sweep resumes where it was killed.
//!
//! Artifacts per sweep, under the results directory:
//!
//! * `<run>-seed<seed>.rows.jsonl` — one canonical row per job, in job
//!   order: `{"detail":…,"fingerprint":…,"run":…,"value":…}` (or
//!   `"error":…`). Rewritten atomically each run.
//! * `runs/<run>-seed<seed>/<idx>-<detail>.jsonl` — per-epoch telemetry
//!   of freshly executed cells (cache hits skip training entirely, so
//!   they write no log).
//! * `cache/<fingerprint>.json` — the content-addressed cell results.

use std::path::PathBuf;
use std::time::Instant;

use lac_core::{Constraint, ErrorEvent, MemoryObserver, MultiObjective, TrainObserver};
use lac_rt::json::Value;
use lac_rt::par;

use crate::driver::{self, AppId, MultiPipeline};
use crate::ablate::{run_ablation, AblationVariant};
use crate::cache;

/// One sweep cell, as data: what to train/search/evaluate. Binaries
/// declare these; only the scheduler executes them (enforced by
/// `scripts/verify.sh`, which greps `src/bin` for direct trainer calls).
#[derive(Debug, Clone, PartialEq)]
pub enum UnitJob {
    /// Fixed-hardware LAC for one multiplier spec (Figs. 3–4, fault
    /// sweeps, dedicated fig-7 comparisons).
    Fixed {
        /// Application under test.
        app: AppId,
        /// Catalog name with optional `!key=value` fault suffix.
        spec: String,
    },
    /// Untrained ("traditional setup") quality of one multiplier spec.
    Untrained {
        /// Application under test.
        app: AppId,
        /// Catalog name with optional fault suffix.
        spec: String,
    },
    /// Multi-start fixed-hardware LAC (power-of-two coefficient rescales).
    Multistart {
        /// Application under test.
        app: AppId,
        /// Catalog name with optional fault suffix.
        spec: String,
        /// Initialization scales, in bits (`2^b` × original coefficients).
        scale_bits: Vec<u32>,
    },
    /// Single-gate NAS under a resource constraint (Figs. 7–9, Table IV).
    Nas {
        /// Application under test.
        app: AppId,
        /// Resource budget pruning the candidate set.
        constraint: Constraint,
        /// Gate learning rate.
        gate_lr: f64,
        /// Iteration budget as a multiple of the fixed-training epochs.
        epoch_factor: usize,
    },
    /// Accuracy-constrained single-gate NAS (Fig. 10).
    NasAccuracy {
        /// Application under test.
        app: AppId,
        /// Quality floor.
        target: f64,
        /// Hinge weight δ.
        delta: f64,
        /// Gate learning rate.
        gate_lr: f64,
    },
    /// Brute-force per-candidate training (Fig. 10 / Table IV baseline).
    BruteForce {
        /// Application under test.
        app: AppId,
    },
    /// Multi-hardware NAS over a pipeline (Figs. 11–12, Table IV).
    MultiNas {
        /// Which multi-gate pipeline.
        pipeline: MultiPipeline,
        /// Iteration budget as a multiple of the fixed-training epochs.
        epoch_factor: usize,
        /// Mean-area budget `a_th`.
        area_threshold: f64,
        /// Hinge safety factor γ.
        gamma: f64,
        /// Hinge weight δ.
        delta: f64,
    },
    /// Greedy stage-by-stage multi-hardware baseline (Fig. 11, Table IV).
    GreedyMulti {
        /// Which multi-gate pipeline.
        pipeline: MultiPipeline,
        /// Mean-area budget `a_th`.
        area_threshold: f64,
        /// Hinge safety factor γ.
        gamma: f64,
        /// Hinge weight δ.
        delta: f64,
    },
    /// One ablation variant (DESIGN.md §7).
    Ablation {
        /// Which ablated design choice.
        variant: AblationVariant,
    },
    /// Approximate-accumulation extension: blur through an explicit adder
    /// model (`or_bits == 0` = exact baseline; see [`crate::adder`]).
    AdderLac {
        /// OR-ed low bits of the Lower-OR Adder.
        or_bits: usize,
    },
    /// Fixed-hardware LAC for the CNN classifier under one multiplier
    /// spec (the trained points of the accuracy-vs-area frontier).
    CnnFixed {
        /// Catalog name with optional `!key=value` fault suffix.
        spec: String,
    },
    /// Untrained CNN accuracy of one multiplier spec (seeded initial
    /// weights — the frontier's "no LAC training" baseline).
    CnnUntrained {
        /// Catalog name with optional fault suffix.
        spec: String,
    },
    /// Per-layer hardware NAS over the CNN classifier: one gate per
    /// layer (conv1/conv2/dense) over the full Table I catalog.
    CnnPerLayerNas {
        /// Iteration budget as a multiple of the fixed-training epochs.
        epoch_factor: usize,
        /// Mean-area budget `a_th`.
        area_threshold: f64,
        /// Hinge safety factor γ.
        gamma: f64,
        /// Hinge weight δ.
        delta: f64,
    },
    /// A cell that panics with the given message on execution — the
    /// public probe for the sweep determinism/error-row tests.
    InjectedPanic {
        /// The panic payload.
        message: String,
    },
}

impl UnitJob {
    /// Stable canonical JSON of the cell spec, part of the job key.
    pub fn canonical_json(&self) -> Value {
        let obj = |kind: &str, mut rest: Vec<(String, Value)>| {
            rest.push(("kind".to_owned(), Value::Str(kind.to_owned())));
            Value::Obj(rest).canonical()
        };
        let app_field = |app: AppId| ("app".to_owned(), Value::Str(app.display().to_owned()));
        let spec_field = |spec: &str| ("spec".to_owned(), Value::Str(spec.to_owned()));
        match self {
            UnitJob::Fixed { app, spec } => obj("fixed", vec![app_field(*app), spec_field(spec)]),
            UnitJob::Untrained { app, spec } => {
                obj("untrained", vec![app_field(*app), spec_field(spec)])
            }
            UnitJob::Multistart { app, spec, scale_bits } => obj(
                "multistart",
                vec![
                    app_field(*app),
                    spec_field(spec),
                    (
                        "scale_bits".to_owned(),
                        Value::Arr(scale_bits.iter().map(|&b| Value::Num(b as f64)).collect()),
                    ),
                ],
            ),
            UnitJob::Nas { app, constraint, gate_lr, epoch_factor } => obj(
                "nas",
                vec![
                    app_field(*app),
                    ("constraint".to_owned(), constraint_json(*constraint)),
                    ("gate_lr".to_owned(), Value::Num(*gate_lr)),
                    ("epoch_factor".to_owned(), Value::Num(*epoch_factor as f64)),
                ],
            ),
            UnitJob::NasAccuracy { app, target, delta, gate_lr } => obj(
                "nas-accuracy",
                vec![
                    app_field(*app),
                    ("target".to_owned(), Value::Num(*target)),
                    ("delta".to_owned(), Value::Num(*delta)),
                    ("gate_lr".to_owned(), Value::Num(*gate_lr)),
                ],
            ),
            UnitJob::BruteForce { app } => obj("brute-force", vec![app_field(*app)]),
            UnitJob::MultiNas { pipeline, epoch_factor, area_threshold, gamma, delta } => obj(
                "multi-nas",
                vec![
                    ("pipeline".to_owned(), Value::Str(pipeline.token().to_owned())),
                    ("epoch_factor".to_owned(), Value::Num(*epoch_factor as f64)),
                    ("area_threshold".to_owned(), Value::Num(*area_threshold)),
                    ("gamma".to_owned(), Value::Num(*gamma)),
                    ("delta".to_owned(), Value::Num(*delta)),
                ],
            ),
            UnitJob::GreedyMulti { pipeline, area_threshold, gamma, delta } => obj(
                "greedy-multi",
                vec![
                    ("pipeline".to_owned(), Value::Str(pipeline.token().to_owned())),
                    ("area_threshold".to_owned(), Value::Num(*area_threshold)),
                    ("gamma".to_owned(), Value::Num(*gamma)),
                    ("delta".to_owned(), Value::Num(*delta)),
                ],
            ),
            UnitJob::Ablation { variant } => obj(
                "ablation",
                vec![("variant".to_owned(), Value::Str(variant.token().to_owned()))],
            ),
            UnitJob::AdderLac { or_bits } => obj(
                "adder-lac",
                vec![("or_bits".to_owned(), Value::Num(*or_bits as f64))],
            ),
            UnitJob::CnnFixed { spec } => obj("cnn-fixed", vec![spec_field(spec)]),
            UnitJob::CnnUntrained { spec } => obj("cnn-untrained", vec![spec_field(spec)]),
            UnitJob::CnnPerLayerNas { epoch_factor, area_threshold, gamma, delta } => obj(
                "cnn-per-layer-nas",
                vec![
                    ("epoch_factor".to_owned(), Value::Num(*epoch_factor as f64)),
                    ("area_threshold".to_owned(), Value::Num(*area_threshold)),
                    ("gamma".to_owned(), Value::Num(*gamma)),
                    ("delta".to_owned(), Value::Num(*delta)),
                ],
            ),
            UnitJob::InjectedPanic { message } => obj(
                "injected-panic",
                vec![("message".to_owned(), Value::Str(message.clone()))],
            ),
        }
    }

    /// The base training config and dataset sizes this cell derives its
    /// work from (factors like `epoch_factor` are already part of the
    /// unit spec). `None` for cells with no training config (the panic
    /// probe).
    fn base_config(&self) -> Option<(lac_core::TrainConfig, usize, usize)> {
        let app = match self {
            UnitJob::Fixed { app, .. }
            | UnitJob::Untrained { app, .. }
            | UnitJob::Multistart { app, .. }
            | UnitJob::Nas { app, .. }
            | UnitJob::NasAccuracy { app, .. }
            | UnitJob::BruteForce { app } => *app,
            UnitJob::MultiNas { pipeline, .. } | UnitJob::GreedyMulti { pipeline, .. } => {
                pipeline.app_id()
            }
            UnitJob::Ablation { .. } | UnitJob::AdderLac { .. } => AppId::Blur,
            UnitJob::CnnFixed { .. }
            | UnitJob::CnnUntrained { .. }
            | UnitJob::CnnPerLayerNas { .. } => {
                let (sizing, lr) = driver::cnn_sizing();
                return Some((sizing.config(lr), sizing.train, sizing.test));
            }
            UnitJob::InjectedPanic { .. } => return None,
        };
        let (sizing, lr) = app.sizing();
        Some((sizing.config(lr), sizing.train, sizing.test))
    }
}

/// Render a [`Constraint`] as stable canonical JSON for job keys.
fn constraint_json(c: Constraint) -> Value {
    let kinded = |kind: &str, budget: Option<f64>| {
        let mut members = vec![("kind".to_owned(), Value::Str(kind.to_owned()))];
        if let Some(b) = budget {
            members.push(("budget".to_owned(), Value::Num(b)));
        }
        Value::Obj(members).canonical()
    };
    match c {
        Constraint::None => kinded("none", None),
        Constraint::Area(b) => kinded("area", Some(b)),
        Constraint::Power(b) => kinded("power", Some(b)),
        Constraint::Delay(b) => kinded("delay", Some(b)),
    }
}

/// One entry of a sweep's job list: a cell plus its human-readable row
/// label (also part of the job key, so two rows of the same sweep never
/// alias).
#[derive(Debug, Clone)]
pub struct Job {
    /// Row label, e.g. `gaussian-blur:mul8u_FTA`.
    pub detail: String,
    /// The cell to execute.
    pub unit: UnitJob,
}

impl Job {
    /// Label + cell.
    pub fn new(detail: impl Into<String>, unit: UnitJob) -> Self {
        Job { detail: detail.into(), unit }
    }
}

/// The outcome of one job, in job-list order.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Row label, copied from the job.
    pub detail: String,
    /// Content-address of the job key (hex FNV-1a).
    pub fingerprint: String,
    /// Canonical result payload, or the structured/panic error text.
    pub value: Result<Value, String>,
    /// Envelope wall-clock: fresh execution time, or the cached run's.
    pub seconds: f64,
    /// Whether the cell was served from the result cache.
    pub cached: bool,
    /// Per-epoch telemetry lines observed during *this* execution.
    /// Empty on a cache hit — the proof that no training ran.
    pub log: Vec<String>,
}

impl JobOutcome {
    /// The payload, when the cell succeeded.
    pub fn ok(&self) -> Option<&Value> {
        self.value.as_ref().ok()
    }

    /// A numeric payload field.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.ok()?.get(key)?.as_f64()
    }

    /// A string payload field.
    pub fn text(&self, key: &str) -> Option<&str> {
        self.ok()?.get(key)?.as_str()
    }
}

/// A configured sweep: a named job list plus execution options.
#[derive(Debug)]
pub struct Sweep {
    run: String,
    jobs: Vec<Job>,
    workers: usize,
    use_cache: bool,
    results_dir: PathBuf,
    seed: u64,
}

impl Sweep {
    /// A sweep named after its binary (the name scopes every artifact:
    /// rows file, run-log directory, job keys).
    pub fn new(run: impl Into<String>, jobs: Vec<Job>) -> Self {
        Sweep {
            run: run.into(),
            jobs,
            workers: 1,
            use_cache: true,
            results_dir: crate::results_dir(),
            seed: crate::seed(),
        }
    }

    /// Set the worker-pool size (0 = available parallelism; default 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Enable/disable the content-addressed result cache (default on).
    pub fn cache(mut self, use_cache: bool) -> Self {
        self.use_cache = use_cache;
        self
    }

    /// Override the results directory (default: [`crate::results_dir`]).
    /// Rows, run logs, and the cache all live under it.
    pub fn results_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.results_dir = dir.into();
        self
    }

    /// The stable job key of job `i` (canonical JSON).
    fn job_key(&self, job: &Job) -> Value {
        let mut members = vec![
            ("binary".to_owned(), Value::Str(self.run.clone())),
            ("detail".to_owned(), Value::Str(job.detail.clone())),
            ("unit".to_owned(), job.unit.canonical_json()),
            ("version".to_owned(), Value::Str(env!("CARGO_PKG_VERSION").to_owned())),
        ];
        if let Some((cfg, train, test)) = job.unit.base_config() {
            members.push(("config".to_owned(), cfg.canonical_json()));
            members.push(("train".to_owned(), Value::Num(train as f64)));
            members.push(("test".to_owned(), Value::Num(test as f64)));
        }
        Value::Obj(members).canonical()
    }

    /// Execute the job list and return outcomes in job-list order.
    ///
    /// Side effects, all under the results directory: the canonical rows
    /// file is rewritten atomically, fresh cells append their run logs
    /// under `runs/<run>-seed<seed>/`, and (unless caching is off) every
    /// executed cell is persisted to `cache/`.
    pub fn run(&self) -> Vec<JobOutcome> {
        let n = self.jobs.len();
        let workers = par::resolve_workers(self.workers).max(1);
        // Divide the machine between concurrent cells: with one worker
        // the cell trains at full auto parallelism; with more, each cell
        // gets an equal share (at least one thread). Results are
        // bit-identical either way — thread count is an execution
        // detail (see lac_rt::par) — only wall-clock changes.
        let inner_threads =
            if workers <= 1 { 0 } else { (par::available_workers() / workers).max(1) };
        let cache_dir = self.results_dir.join("cache");
        let keys: Vec<(Value, String)> = self
            .jobs
            .iter()
            .map(|job| {
                let key = self.job_key(job);
                let fp = lac_rt::hash::fnv1a_64_hex(key.to_json().as_bytes());
                (key, fp)
            })
            .collect();

        let outcomes = par::run_indexed(n, workers, |i| {
            self.run_one(i, n, &keys[i].0, &keys[i].1, &cache_dir, inner_threads)
        });

        self.write_rows(&outcomes);
        self.write_run_logs(&outcomes);
        let hits = outcomes.iter().filter(|o| o.cached).count();
        eprintln!(
            "[{}] {} jobs, {} cached, {} executed ({} workers)",
            self.run,
            n,
            hits,
            n - hits,
            workers
        );
        outcomes
    }

    /// Execute (or serve from cache) a single job.
    fn run_one(
        &self,
        i: usize,
        n: usize,
        key: &Value,
        fingerprint: &str,
        cache_dir: &std::path::Path,
        threads: usize,
    ) -> JobOutcome {
        let job = &self.jobs[i];
        let path = cache_dir.join(format!("{fingerprint}.json"));
        if self.use_cache {
            if let Some(entry) = cache::load(&path, fingerprint) {
                return JobOutcome {
                    detail: job.detail.clone(),
                    fingerprint: fingerprint.to_owned(),
                    value: entry.value,
                    seconds: entry.seconds,
                    cached: true,
                    log: Vec::new(),
                };
            }
        }

        eprintln!("[{}] job {}/{}: {} ...", self.run, i + 1, n, job.detail);
        let mut obs = MemoryObserver::new();
        let start = Instant::now();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute(&job.unit, threads, &mut obs)
        }));
        let seconds = start.elapsed().as_secs_f64();
        let value = match result {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(e)) => Err(e),
            Err(payload) => Err(format!("panic: {}", par::panic_message(payload.as_ref()))),
        };
        if let Err(error) = &value {
            // The PR 4 error-row contract, per cell: stderr echo plus a
            // structured ErrorEvent in the cell's run log.
            eprintln!("[{}/{}] error: {error}", self.run, job.detail);
            obs.on_error(&ErrorEvent { run: &self.run, detail: &job.detail, error, seconds });
        }
        if self.use_cache {
            cache::store(&path, fingerprint, key, seconds, &value);
        }
        JobOutcome {
            detail: job.detail.clone(),
            fingerprint: fingerprint.to_owned(),
            value,
            seconds,
            cached: false,
            log: std::mem::take(&mut obs.lines),
        }
    }

    /// Rewrite `<run>-seed<seed>.rows.jsonl` atomically: one canonical
    /// row per job, in job order, carrying **no timing** — the file is
    /// byte-identical across worker counts, re-runs, and resumes.
    fn write_rows(&self, outcomes: &[JobOutcome]) {
        let mut text = String::new();
        for o in outcomes {
            let mut members = vec![
                ("detail".to_owned(), Value::Str(o.detail.clone())),
                ("fingerprint".to_owned(), Value::Str(o.fingerprint.clone())),
                ("run".to_owned(), Value::Str(self.run.clone())),
            ];
            match &o.value {
                Ok(v) => members.push(("value".to_owned(), v.clone())),
                Err(e) => members.push(("error".to_owned(), Value::Str(e.clone()))),
            }
            text.push_str(&Value::Obj(members).canonical().to_json());
            text.push('\n');
        }
        let path = self.rows_path();
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let tmp = path.with_extension("tmp");
        if std::fs::write(&tmp, text).is_ok() && std::fs::rename(&tmp, &path).is_ok() {
            eprintln!("[{}] rows: {}", self.run, path.display());
        } else {
            eprintln!("[{}] failed to write rows at {}", self.run, path.display());
        }
    }

    /// The canonical rows artifact path.
    pub fn rows_path(&self) -> PathBuf {
        self.results_dir.join(format!("{}-seed{}.rows.jsonl", self.run, self.seed))
    }

    /// Write per-job run logs for freshly executed cells (cache hits ran
    /// no epochs, so they have nothing to log).
    fn write_run_logs(&self, outcomes: &[JobOutcome]) {
        let dir = self.results_dir.join("runs").join(format!("{}-seed{}", self.run, self.seed));
        for (i, o) in outcomes.iter().enumerate() {
            if o.cached || o.log.is_empty() {
                continue;
            }
            if std::fs::create_dir_all(&dir).is_err() {
                return;
            }
            let path = dir.join(format!("{:03}-{}.jsonl", i, slug(&o.detail)));
            let mut text = String::with_capacity(o.log.iter().map(|l| l.len() + 1).sum());
            for line in &o.log {
                text.push_str(line);
                text.push('\n');
            }
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("[{}] failed to write run log {}: {e}", self.run, path.display());
            }
        }
    }
}

/// Filename-safe form of a job detail.
fn slug(detail: &str) -> String {
    detail
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '.' { c } else { '-' })
        .collect()
}

/// Execute one cell at the given thread budget, producing its canonical
/// payload. This is the *only* place experiment cells call into the
/// drivers.
fn execute(unit: &UnitJob, threads: usize, obs: &mut dyn TrainObserver) -> Result<Value, String> {
    let num = |k: &str, v: f64| (k.to_owned(), Value::Num(v));
    let text = |k: &str, v: &str| (k.to_owned(), Value::Str(v.to_owned()));
    match unit {
        UnitJob::Fixed { app, spec } => {
            let r = driver::fixed_spec_observed(*app, spec, threads, obs)?;
            Ok(Value::Obj(vec![
                text("multiplier", &r.multiplier),
                num("before", r.before),
                num("after", r.after),
            ]))
        }
        UnitJob::Untrained { app, spec } => {
            let (name, q) = driver::untrained_spec(*app, spec, threads)?;
            Ok(Value::Obj(vec![text("multiplier", &name), num("quality", q)]))
        }
        UnitJob::Multistart { app, spec, scale_bits } => {
            let r = driver::multistart_spec_observed(*app, spec, scale_bits, threads, obs)?;
            Ok(Value::Obj(vec![
                text("multiplier", &r.multiplier),
                num("before", r.before),
                num("after", r.after),
            ]))
        }
        UnitJob::Nas { app, constraint, gate_lr, epoch_factor } => {
            let r = driver::nas_search_budgeted_observed(
                *app,
                *constraint,
                *gate_lr,
                *epoch_factor,
                threads,
                obs,
            );
            Ok(Value::Obj(vec![
                text("chosen", r.chosen_name()),
                num("quality", r.quality),
                num("area", r.area),
            ]))
        }
        UnitJob::NasAccuracy { app, target, delta, gate_lr } => {
            let r = driver::nas_accuracy_observed(*app, *target, *delta, *gate_lr, threads, obs);
            Ok(Value::Obj(vec![
                text("chosen", r.chosen_name()),
                num("quality", r.quality),
                num("area", r.area),
            ]))
        }
        UnitJob::BruteForce { app } => {
            let r = driver::brute_force_all_observed(*app, threads, obs)
                .map_err(|e| e.to_string())?;
            let rows = r
                .results
                .iter()
                .map(|f| {
                    Value::Obj(vec![
                        text("multiplier", &f.multiplier),
                        num("before", f.before),
                        num("after", f.after),
                    ])
                })
                .collect();
            Ok(Value::Obj(vec![("results".to_owned(), Value::Arr(rows))]))
        }
        UnitJob::MultiNas { pipeline, epoch_factor, area_threshold, gamma, delta } => {
            let objective = MultiObjective::AreaConstrained {
                area_threshold: *area_threshold,
                gamma: *gamma,
                delta: *delta,
            };
            let r = driver::multi_nas_observed(*pipeline, *epoch_factor, objective, threads, obs);
            Ok(multi_payload(&r))
        }
        UnitJob::GreedyMulti { pipeline, area_threshold, gamma, delta } => {
            let objective = MultiObjective::AreaConstrained {
                area_threshold: *area_threshold,
                gamma: *gamma,
                delta: *delta,
            };
            let r = driver::greedy_multi_pipeline_observed(*pipeline, objective, threads, obs);
            Ok(multi_payload(&r))
        }
        UnitJob::Ablation { variant } => {
            let out = run_ablation(*variant, threads, obs);
            Ok(Value::Obj(vec![
                text("variant", variant.token()),
                text("group", variant.group()),
                ("quality".to_owned(), Value::Num(out.quality)),
                text("note", &out.note),
            ]))
        }
        UnitJob::AdderLac { or_bits } => {
            let (before, after) = crate::adder::run_adder_lac(*or_bits, threads);
            Ok(Value::Obj(vec![
                ("or_bits".to_owned(), Value::Num(*or_bits as f64)),
                num("before", before),
                num("after", after),
            ]))
        }
        UnitJob::CnnFixed { spec } => {
            let r = driver::cnn_fixed_observed(spec, threads, obs)?;
            Ok(Value::Obj(vec![
                text("multiplier", &r.multiplier),
                num("before", r.before),
                num("after", r.after),
            ]))
        }
        UnitJob::CnnUntrained { spec } => {
            let (name, q) = driver::cnn_untrained(spec, threads)?;
            Ok(Value::Obj(vec![text("multiplier", &name), num("quality", q)]))
        }
        UnitJob::CnnPerLayerNas { epoch_factor, area_threshold, gamma, delta } => {
            let r = driver::cnn_per_layer_nas_observed(
                *epoch_factor,
                *area_threshold,
                *gamma,
                *delta,
                threads,
                obs,
            );
            Ok(multi_payload(&r))
        }
        UnitJob::InjectedPanic { message } => panic!("{}", message),
    }
}

/// Canonical payload of a multi-hardware result: per-stage assignment in
/// stage order, mean area, achieved quality.
fn multi_payload(r: &lac_core::MultiNasResult) -> Value {
    let assignment: Vec<Value> =
        r.assignment().into_iter().map(|(_, m)| Value::Str(m)).collect();
    Value::Obj(vec![
        ("assignment".to_owned(), Value::Arr(assignment)),
        ("area".to_owned(), Value::Num(r.area)),
        ("quality".to_owned(), Value::Num(r.quality)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_jsons_are_distinct_and_canonical() {
        let jobs = [
            UnitJob::Fixed { app: AppId::Blur, spec: "mul8u_FTA".into() },
            UnitJob::Fixed { app: AppId::Edge, spec: "mul8u_FTA".into() },
            UnitJob::Fixed { app: AppId::Blur, spec: "mul8u_JQQ".into() },
            UnitJob::Untrained { app: AppId::Blur, spec: "mul8u_FTA".into() },
            UnitJob::Nas {
                app: AppId::Blur,
                constraint: Constraint::Area(0.1),
                gate_lr: 2.0,
                epoch_factor: 3,
            },
            UnitJob::Nas {
                app: AppId::Blur,
                constraint: Constraint::Power(0.1),
                gate_lr: 2.0,
                epoch_factor: 3,
            },
            UnitJob::InjectedPanic { message: "boom".into() },
        ];
        let encodings: Vec<String> = jobs.iter().map(|j| j.canonical_json().to_json()).collect();
        for (i, a) in encodings.iter().enumerate() {
            // Canonical: re-canonicalizing is a fixed point.
            let v = Value::parse(a).unwrap();
            assert_eq!(&v.canonical().to_json(), a);
            for (j, b) in encodings.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "jobs {i} and {j} alias");
                }
            }
        }
    }

    #[test]
    fn job_keys_separate_binaries_and_details() {
        let job = Job::new("cell", UnitJob::Untrained { app: AppId::Blur, spec: "mul8".into() });
        let a = Sweep::new("fig3", vec![job.clone()]);
        let b = Sweep::new("fig4", vec![job.clone()]);
        assert_ne!(a.job_key(&a.jobs[0]).to_json(), b.job_key(&b.jobs[0]).to_json());
        let c = Sweep::new("fig3", vec![Job::new("other", job.unit.clone())]);
        assert_ne!(a.job_key(&a.jobs[0]).to_json(), c.job_key(&c.jobs[0]).to_json());
    }

    #[test]
    fn slug_sanitizes() {
        assert_eq!(slug("gaussian-blur:mul8u_FTA!seed=1"), "gaussian-blur-mul8u-FTA-seed-1");
    }

    #[test]
    fn injected_panic_becomes_an_error_outcome_and_row() {
        let dir = std::env::temp_dir()
            .join(format!("lac-sched-panic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sweep = Sweep::new(
            "panic-probe",
            vec![Job::new("bad-cell", UnitJob::InjectedPanic { message: "poisoned".into() })],
        )
        .results_dir(&dir);
        let out = sweep.run();
        assert_eq!(out.len(), 1);
        let err = out[0].value.as_ref().unwrap_err();
        assert_eq!(err, "panic: poisoned");
        assert!(!out[0].cached);
        // The error surfaced as a structured row in the cell's log.
        assert_eq!(out[0].log.len(), 1);
        assert!(out[0].log[0].contains("\"error\":\"panic: poisoned\""), "{}", out[0].log[0]);
        // And the failure was cached: a second run serves it without
        // re-executing (no log lines — nothing ran).
        let again = sweep.run();
        assert!(again[0].cached);
        assert!(again[0].log.is_empty());
        assert_eq!(again[0].value.as_ref().unwrap_err(), "panic: poisoned");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
