//! Shared harness utilities for the LAC experiment binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin` that
//! prints the corresponding rows/series and writes a CSV under
//! `results/`. Sweep binaries declare their grid as a job list over the
//! applications and pipelines named in [`driver`] and hand it to the
//! [`sched`] orchestrator, which builds each cell's kernel and runs it
//! through one cell body across a worker pool, with deterministic output
//! and a content-addressed result cache ([`cache`]). Environment knobs:
//!
//! * `LAC_QUICK=1` — shrink datasets and epochs for a fast smoke run;
//! * `LAC_EPOCHS` / `LAC_TRAIN` / `LAC_TEST` — override individual sizes;
//! * `LAC_SEED` — change the global seed (default 42);
//! * `LAC_JOBS` — default sweep worker count (overridden by `--jobs N`).
//!
//! Sweep binaries additionally accept `--jobs N` (parallel cells;
//! 0 = all cores) and `--no-cache` (ignore cached results) — see
//! [`sweep_flags`].

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use lac_apps::Kernel;
use lac_core::TrainConfig;
use lac_data::{CnnDataset, IkDataset, ImageDataset};
use lac_hw::Multiplier;

/// True when `LAC_QUICK=1`: smoke-test sizes instead of paper sizes.
pub fn quick() -> bool {
    std::env::var("LAC_QUICK").map(|v| v == "1").unwrap_or(false)
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// The global experiment seed (`LAC_SEED`, default 42).
pub fn seed() -> u64 {
    env_usize("LAC_SEED", 42) as u64
}

/// Experiment sizing: dataset sizes and training epochs.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Training samples.
    pub train: usize,
    /// Test samples.
    pub test: usize,
    /// Optimizer steps.
    pub epochs: usize,
    /// Minibatch size (0 = full batch).
    pub minibatch: usize,
}

impl Sizing {
    /// Paper-scale image sizing (100 train / 20 test), honoring the env
    /// overrides, with per-experiment default epochs.
    pub fn images(default_epochs: usize, default_minibatch: usize) -> Self {
        let q = quick();
        Sizing {
            train: env_usize("LAC_TRAIN", if q { 12 } else { 100 }),
            test: env_usize("LAC_TEST", if q { 4 } else { 20 }),
            epochs: env_usize("LAC_EPOCHS", if q { (default_epochs / 4).max(4) } else { default_epochs }),
            minibatch: default_minibatch,
        }
    }

    /// Paper-scale Inversek2j sizing (1000 train / 200 test).
    pub fn ik(default_epochs: usize, default_minibatch: usize) -> Self {
        let q = quick();
        Sizing {
            train: env_usize("LAC_TRAIN", if q { 64 } else { 1000 }),
            test: env_usize("LAC_TEST", if q { 32 } else { 200 }),
            epochs: env_usize("LAC_EPOCHS", if q { (default_epochs / 4).max(4) } else { default_epochs }),
            minibatch: default_minibatch,
        }
    }

    /// Paper-scale CNN classification sizing (96 train / 32 test,
    /// matching [`CnnDataset::paper_split`]).
    pub fn cnn(default_epochs: usize, default_minibatch: usize) -> Self {
        let q = quick();
        Sizing {
            train: env_usize("LAC_TRAIN", if q { 24 } else { 96 }),
            test: env_usize("LAC_TEST", if q { 8 } else { 32 }),
            epochs: env_usize("LAC_EPOCHS", if q { (default_epochs / 4).max(4) } else { default_epochs }),
            minibatch: default_minibatch,
        }
    }

    /// Build the image dataset for this sizing.
    pub fn image_dataset(&self) -> ImageDataset {
        ImageDataset::generate(self.train, self.test, 32, 32, seed())
    }

    /// Build the CNN classification dataset for this sizing.
    pub fn cnn_dataset(&self) -> CnnDataset {
        CnnDataset::generate(self.train, self.test, 16, 16, seed())
    }

    /// Build the Inversek2j dataset for this sizing.
    pub fn ik_dataset(&self) -> IkDataset {
        IkDataset::generate(self.train, self.test, seed())
    }

    /// A [`TrainConfig`] with this sizing and the given learning rate.
    pub fn config(&self, lr: f64) -> TrainConfig {
        let mut cfg = TrainConfig::new().epochs(self.epochs.max(1)).learning_rate(lr).seed(seed());
        if self.minibatch > 0 {
            cfg = cfg.minibatch(self.minibatch);
        }
        cfg
    }
}

/// Adapt the full Table I catalog to a kernel.
pub fn adapted_catalog<K: Kernel>(kernel: &K) -> Vec<Arc<dyn Multiplier>> {
    lac_hw::catalog::paper_multipliers().iter().map(|m| kernel.adapt(m)).collect()
}

/// A simple fixed-width text table that accumulates a CSV twin.
#[derive(Debug, Default)]
pub struct Report {
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Start a report with column headers.
    pub fn new(name: &str, header: &[&str]) -> Self {
        Report {
            name: name.to_owned(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render the report as CSV (what [`emit`](Self::emit) writes).
    pub fn to_csv(&self) -> String {
        let mut csv = self.header.join(",") + "\n";
        for row in &self.rows {
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        csv
    }

    /// Render the report as an aligned text table.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(out, "{c:>w$}  ", w = w);
            }
            out.push('\n');
        };
        fmt_row(&self.header, &widths, &mut out);
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }

    /// Print the table and write `results/<name>.csv`.
    pub fn emit(&self) {
        println!("{}", self.to_text());
        let dir = results_dir();
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(format!("{}.csv", self.name));
        match std::fs::write(&path, self.to_csv()) {
            Ok(()) => println!("[wrote {}]", path.display()),
            Err(e) => eprintln!("[failed to write {}: {e}]", path.display()),
        }
    }
}

/// Directory for CSV outputs (`results/` next to the workspace root, or
/// `LAC_RESULTS`).
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("LAC_RESULTS") {
        return PathBuf::from(dir);
    }
    // CARGO_MANIFEST_DIR = crates/lac-bench; results live at the root.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.join("results")
}

/// Format an `Option<f64>` metadata value.
pub fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.2}"),
        None => "-".to_owned(),
    }
}

/// Orchestrator flags shared by every sweep binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepFlags {
    /// Worker-pool size (`--jobs N`; 0 = all cores). Defaults to
    /// `LAC_JOBS` or 1.
    pub jobs: usize,
    /// Whether the content-addressed result cache is consulted/updated
    /// (`--no-cache` turns it off).
    pub cache: bool,
    /// Arguments this parser did not consume, in order — for binaries
    /// with extra flags of their own (e.g. `fault_sweep`).
    pub rest: Vec<String>,
}

impl SweepFlags {
    /// Apply the flags to a sweep.
    pub fn configure(&self, sweep: sched::Sweep) -> sched::Sweep {
        sweep.workers(self.jobs).cache(self.cache)
    }

    /// Exit with a usage error (code 2) if any unconsumed argument
    /// remains — for binaries without extra flags.
    pub fn reject_rest(&self, binary: &str) {
        if let Some(arg) = self.rest.first() {
            eprintln!("{binary}: unknown flag `{arg}`");
            eprintln!("usage: {binary} [--jobs N] [--no-cache]");
            std::process::exit(2);
        }
    }
}

/// Parse `--jobs N` / `--no-cache` out of an argument list, leaving
/// everything else in `rest`.
///
/// # Errors
///
/// Returns a message naming the flag when `--jobs` is missing its value
/// or the value is not an integer.
pub fn parse_sweep_flags(args: &[String]) -> Result<SweepFlags, String> {
    let mut flags = SweepFlags { jobs: env_usize("LAC_JOBS", 1), cache: true, rest: Vec::new() };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                flags.jobs =
                    v.parse().map_err(|_| format!("--jobs: `{v}` is not a valid integer"))?;
            }
            "--no-cache" => flags.cache = false,
            other => flags.rest.push(other.to_owned()),
        }
    }
    Ok(flags)
}

/// [`parse_sweep_flags`] over the process arguments, exiting with a
/// usage error (code 2) on a malformed flag.
pub fn sweep_flags() -> SweepFlags {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_sweep_flags(&args).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_and_aligns() {
        let mut r = Report::new("demo", &["name", "value"]);
        r.row(&["a".into(), "1.0".into()]);
        r.row(&["longer-name".into(), "2.5".into()]);
        let text = r.to_text();
        assert!(text.contains("longer-name"));
        assert!(text.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn report_validates_row_width() {
        let mut r = Report::new("demo", &["a", "b"]);
        r.row(&["only-one".into()]);
    }

    #[test]
    fn sizing_config_carries_values() {
        let s = Sizing { train: 10, test: 5, epochs: 20, minibatch: 4 };
        let cfg = s.config(1.5);
        assert_eq!(cfg.epochs, 20);
        assert_eq!(cfg.minibatch, Some(4));
        assert_eq!(cfg.lr, 1.5);
    }

    #[test]
    fn fmt_opt_formats() {
        assert_eq!(fmt_opt(Some(1.234)), "1.23");
        assert_eq!(fmt_opt(None), "-");
    }

    #[test]
    fn sweep_flags_parse_and_pass_rest_through() {
        let strs = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let f = parse_sweep_flags(&strs(&["--jobs", "8", "--no-cache", "--base", "mul8u_FTA"]))
            .unwrap();
        assert_eq!(f.jobs, 8);
        assert!(!f.cache);
        assert_eq!(f.rest, strs(&["--base", "mul8u_FTA"]));
        // Defaults: cache on, unparsed args preserved in order.
        let f = parse_sweep_flags(&[]).unwrap();
        assert!(f.cache);
        assert!(f.rest.is_empty());
        // Malformed values are errors naming the flag.
        assert!(parse_sweep_flags(&strs(&["--jobs"])).is_err());
        assert!(parse_sweep_flags(&strs(&["--jobs", "many"])).unwrap_err().contains("--jobs"));
    }
}
pub mod ablate;
pub mod adder;
pub mod cache;
pub mod driver;
pub mod sched;
