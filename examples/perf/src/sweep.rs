//! The `sweep` workload: a Fig. 3 grid through the sweep orchestrator.
//!
//! Every pass runs the same cold job list (cache off, fresh results
//! directory) through the orchestrator on one worker, with the process
//! confined to one CPU so that each cell trains on one thread. The grid
//! is the six apps on `mul16s_GAT`, a 16-bit Table I unit multiplied
//! through its behavioural model: the slowest kind of cell, which `train`
//! does not run. On the two-vCPU reference machine, passes that kept both
//! CPUs busy (two workers, or one worker whose cells spawn threads per
//! batch) varied between runs two to three times as much as one CPU's
//! (see `README.md`). The full 66-cell grid is too long for a run to hold
//! the several passes its median needs. One untimed pass comes first: the
//! first pass of a run is up to 15% slower than the ones after it. A
//! speed meter shares the CPU, and times are reference seconds (see
//! `speed`).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use lac_bench::driver::AppId;
use lac_bench::sched::{Job, JobOutcome, Sweep, UnitJob};
use lac_rt::json::Value;

use crate::outcome::Outcome;
use crate::speed::{self, Speed};
use crate::stats::{median, sorted, summed_percentile, tail_percentile};
use crate::trace::Tracer;

/// Units of the grid.
pub const UNITS: [&str; 1] = ["mul16s_GAT"];
/// Orchestrator workers.
pub const WORKERS: usize = 1;
/// Timed passes run even when `--seconds` is shorter; each one's rows
/// fingerprint is compared with the untimed first pass's.
const MIN_PASSES: usize = 1;

/// Short app name used in metric names.
pub fn short(app: AppId) -> &'static str {
    match app {
        AppId::Blur => "blur",
        AppId::Edge => "edge",
        AppId::Sharpen => "sharpen",
        AppId::Jpeg => "jpeg",
        AppId::Dft => "dft",
        AppId::Ik => "ik",
    }
}

/// The job list of one pass over `units`.
pub fn jobs(units: &[&str]) -> Vec<Job> {
    AppId::all()
        .into_iter()
        .flat_map(|app| {
            units.iter().map(move |u| {
                Job::new(
                    format!("{}:{u}", app.display()),
                    UnitJob::Fixed {
                        app,
                        spec: (*u).to_owned(),
                    },
                )
            })
        })
        .collect()
}

/// The orchestrator as every pass runs it: cold, on [`WORKERS`] workers,
/// writing under `dir`.
pub fn configured(name: &str, jobs: Vec<Job>, dir: &Path) -> Sweep {
    Sweep::new(name, jobs)
        .workers(WORKERS)
        .cache(false)
        .results_dir(dir)
}

/// One executed pass.
pub struct Pass {
    pub start: Instant,
    pub end: Instant,
    pub outcomes: Vec<JobOutcome>,
    pub rows_fp: String,
}

impl Pass {
    pub fn wall(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    pub fn cell_sum(&self) -> f64 {
        self.outcomes.iter().map(|o| o.seconds).sum()
    }

    /// Share of worker time not spent inside a cell.
    pub fn idle_share(&self) -> f64 {
        1.0 - self.cell_sum() / (WORKERS as f64 * self.wall())
    }

    /// When each cell started. The orchestrator reports only each cell's
    /// duration, so starts are rebuilt by replaying its policy: a free
    /// worker takes the next job in order.
    pub fn cell_starts(&self) -> Vec<Instant> {
        let mut free = [self.start; WORKERS];
        self.outcomes
            .iter()
            .map(|o| {
                let lane = (0..WORKERS).min_by_key(|&w| free[w]).unwrap_or(0);
                let start = free[lane];
                free[lane] = start + Duration::from_secs_f64(o.seconds);
                start
            })
            .collect()
    }

    /// `pass` span with one `cell` child per job.
    pub fn record(&self, tracer: &mut Tracer, label: &str) {
        let Some(id) = tracer.span("pass", label, None, self.start, self.end) else {
            return;
        };
        for (o, start) in self.outcomes.iter().zip(self.cell_starts()) {
            let end = start + Duration::from_secs_f64(o.seconds);
            tracer.span("cell", &o.detail, Some(id), start, end);
        }
    }
}

/// Run one pass of `sweep` into its emptied results directory `dir`.
pub fn pass(sweep: &Sweep, dir: &Path) -> Result<Pass, String> {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let outcomes = sweep.run();
    let end = Instant::now();
    let rows = std::fs::read(sweep.rows_path())
        .map_err(|e| format!("read {}: {e}", sweep.rows_path().display()))?;
    Ok(Pass {
        start,
        end,
        outcomes,
        rows_fp: lac_rt::hash::fnv1a_64_hex(&rows),
    })
}

/// Count error and cached cells of a pass as failures.
pub fn check_pass(p: &Pass, out: &mut Outcome) {
    for o in &p.outcomes {
        let ok = out.check(o.value.is_ok(), || {
            format!("sweep/{}: error row {:?}", o.detail, o.value)
        }) & out.check(!o.cached, || {
            format!("sweep/{}: served from the cache", o.detail)
        });
        out.attempt(ok);
    }
}

/// The `seconds` of every epoch event in one cell's run log: time since
/// the cell's training entry point started.
fn epoch_seconds(o: &JobOutcome) -> Vec<f64> {
    o.log
        .iter()
        .filter_map(|line| Value::parse(line).ok())
        .filter(|v| v.get("epoch").is_some())
        .filter_map(|v| v.get("seconds").and_then(Value::as_f64))
        .collect()
}

/// Gaps between consecutive epoch events of one cell's run log, in
/// `speed`'s ms, for a cell that started at `start`.
fn epoch_gaps_ms(o: &JobOutcome, start: Instant, speed: &Speed) -> Vec<f64> {
    let at = |s: f64| start + Duration::from_secs_f64(s);
    epoch_seconds(o)
        .windows(2)
        .map(|w| speed.ms(at(w[0]), at(w[1])))
        .collect()
}

fn dir(work: &Path, k: usize) -> PathBuf {
    work.join(format!("sweep-pass{k}"))
}

/// The untimed first pass, then passes until `seconds` have passed.
fn time_passes(seconds: f64, work: &Path) -> Result<(Pass, Vec<Pass>), String> {
    let run = |k: usize| {
        pass(
            &configured("perf-sweep", jobs(&UNITS), &dir(work, k)),
            &dir(work, k),
        )
    };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let warm = run(0)?;
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < MIN_PASSES || Instant::now() < deadline {
        passes.push(run(passes.len() + 1)?);
    }
    Ok((warm, passes))
}

/// Run passes for about `seconds`, on one CPU with a speed meter beside
/// them; times are in reference seconds.
pub fn run(
    seconds: f64,
    work: &Path,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let (timed, speed) = speed::metered(|| time_passes(seconds, work))?;
    let (warm, passes) = timed?;
    for p in std::iter::once(&warm).chain(&passes) {
        check_pass(p, out);
        let same = out.check(p.rows_fp == warm.rows_fp, || {
            format!(
                "sweep: rows fingerprint {} differs from the first pass's {}",
                p.rows_fp, warm.rows_fp
            )
        });
        out.attempt(same);
    }

    let walls: Vec<f64> = passes
        .iter()
        .map(|p| speed.seconds(p.start, p.end))
        .collect();
    out.info(
        "sweep.pass_s",
        Value::Arr(walls.iter().map(|&w| Value::Num(w)).collect()),
    );
    out.num(
        "sweep.pass_wall_s",
        median(&passes.iter().map(Pass::wall).collect::<Vec<_>>()),
    );
    speed.report("sweep", out);
    let starts: Vec<Vec<Instant>> = passes.iter().map(Pass::cell_starts).collect();
    let cells = warm.outcomes.len();
    let gaps: Vec<Vec<f64>> = (0..cells)
        .map(|i| {
            sorted(
                passes
                    .iter()
                    .zip(&starts)
                    .flat_map(|(p, s)| epoch_gaps_ms(&p.outcomes[i], s[i], &speed))
                    .collect(),
            )
        })
        .collect();
    // Each cell's set-up: from its start to its first epoch event
    // (reference outputs, the quality before training, and the first
    // epoch).
    let firsts: Vec<Vec<f64>> = (0..cells)
        .map(|i| {
            sorted(
                passes
                    .iter()
                    .zip(&starts)
                    .filter_map(|(p, s)| {
                        let first = *epoch_seconds(&p.outcomes[i]).first()?;
                        Some(speed.seconds(s[i], s[i] + Duration::from_secs_f64(first)))
                    })
                    .collect(),
            )
        })
        .collect();
    let tail = tail_percentile(&gaps.iter().map(Vec::len).collect::<Vec<_>>());
    out.metric("setup_s", summed_percentile(&firsts, 0.50), "s");
    out.metric("round_s", median(&walls), "s");
    out.metric("p50_ms", summed_percentile(&gaps, 0.50), "ms");
    out.layer("p99_ms", summed_percentile(&gaps, tail), "ms");

    out.num("sweep.passes", passes.len() as f64);
    out.num("sweep.cells", cells as f64);
    out.num("sweep.tail_percentile", tail * 100.0);
    out.info("sweep.rows_fp", Value::Str(warm.rows_fp.clone()));
    out.num(
        "sweep.cell_s_sum",
        median(&passes.iter().map(Pass::cell_sum).collect::<Vec<_>>()),
    );
    out.num(
        "sweep.idle_share",
        median(&passes.iter().map(Pass::idle_share).collect::<Vec<_>>()),
    );
    for app in AppId::all() {
        let prefix = format!("{}:", app.display());
        let cells: Vec<f64> = passes
            .iter()
            .zip(&starts)
            .flat_map(|(p, s)| {
                p.outcomes
                    .iter()
                    .zip(s)
                    .filter(|(o, _)| o.detail.starts_with(&prefix))
                    .map(|(o, &c)| speed.seconds(c, c + Duration::from_secs_f64(o.seconds)))
            })
            .collect();
        out.num(format!("sweep.cell_s.{}", short(app)), median(&cells));
    }
    warm.record(tracer, "warmup");
    for p in &passes {
        p.record(tracer, "sweep");
    }
    for k in 0..=passes.len() + 1 {
        let _ = std::fs::remove_dir_all(dir(work, k));
    }
    Ok(())
}
