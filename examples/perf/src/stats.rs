//! Order statistics used by every workload and by `--repeat`/`--compare`.

use std::time::{Duration, Instant};

use crate::speed::{Probes, Speed};

/// Percentiles tried, highest first, when reporting a tail.
const TAIL_LADDER: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// Fewest samples that must lie beyond a reported percentile.
const MIN_BEYOND: usize = 10;

/// Median as Python's `statistics.median` gives it (mean of the two
/// middle values for an even count). `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld < 2 {
        let only = d.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sum over `groups` (each ascending) of each group's nearest-rank `p`
/// percentile. Epoch times differ several-fold between apps and cells, so
/// one percentile over all epochs falls where two modes meet and jumps
/// between runs; one percentile per group, summed, does not.
pub fn summed_percentile(groups: &[Vec<f64>], p: f64) -> f64 {
    groups.iter().map(|g| percentile(g, p)).sum()
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it in every one of `counts`.
pub fn tail_percentile(counts: &[usize]) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| counts.iter().all(|&n| n > 0 && beyond(n, p) >= MIN_BEYOND))
        .unwrap_or(0.50)
}

/// How long set-up repeats at each point of a run where it is timed, so
/// a set-up of microseconds is still the median of many.
const SETUP_SLICE: Duration = Duration::from_millis(20);

/// Set-up times sampled through a run: before the work and again between
/// its units (cycles, phases). The machine's speed drifts over seconds, so
/// set-up timed only at the start would see one state of it.
#[derive(Debug, Default)]
pub struct Setups(Vec<(Instant, Instant)>);

impl Setups {
    /// Time `make` once and then until [`SETUP_SLICE`] has passed; return
    /// the last result, tearing the others down with `discard`, untimed.
    /// `probes`, when given, are read right before and right after each
    /// timed `make`.
    pub fn sample<T>(
        &mut self,
        mut probes: Option<&mut Probes>,
        mut make: impl FnMut() -> Result<T, String>,
        mut discard: impl FnMut(T) -> Result<(), String>,
    ) -> Result<T, String> {
        let begin = Instant::now();
        loop {
            if let Some(p) = probes.as_deref_mut() {
                p.read();
            }
            let t = Instant::now();
            let made = make()?;
            self.0.push((t, Instant::now()));
            if let Some(p) = probes.as_deref_mut() {
                p.read();
            }
            if begin.elapsed() >= SETUP_SLICE {
                return Ok(made);
            }
            discard(made)?;
        }
    }

    /// Median set-up time, in `speed`'s seconds.
    pub fn median(&self, speed: &Speed) -> f64 {
        median(
            &self
                .0
                .iter()
                .map(|&(a, b)| speed.seconds(a, b))
                .collect::<Vec<_>>(),
        )
    }
}

/// Sort a sample in place and return it, for percentile lookups.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a fingerprint of a sequence of `f64` bit patterns.
pub fn bits_fingerprint(values: impl IntoIterator<Item = f64>) -> String {
    let bytes: Vec<u8> = values
        .into_iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    lac_rt::hash::fnv1a_64_hex(&bytes)
}
