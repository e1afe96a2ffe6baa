//! The CPU's speed, sampled beside a compute workload, and timings
//! converted to the reference speed.
//!
//! The machine this benchmark runs on shares its physical cores with
//! other tenants. For minutes at a time, and at other times for a few
//! hundred milliseconds, a training epoch takes half again as long as it
//! does on an idle core, while the program does the same work. Wall time
//! of compute-bound code then tells more about the neighbours than about
//! the program. So the `train` and `sweep` workloads run confined to one
//! CPU with a [`Meter`] thread beside them, which every
//! [`PERIOD`] times [`probe`], a fixed kernel of the same kind of work as
//! a training step, on that CPU. The serving set-up, which loads models
//! (LUT tabulation) between phases that use both CPUs, is bracketed by
//! [`Probes`] read right before and right after each sample instead. A
//! timed interval is then reported in reference seconds: each part of it
//! weighted by [`REF_US`] over the probe time read nearest to it, and the
//! probes' own time left out. On an idle core of the reference machine a
//! reference second is a second.
//!
//! The probe is part of the benchmark, not of the program, and must stay
//! as it is: changing it changes what every compute timing means.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::outcome::Outcome;
use crate::stats::{median, quartiles};

/// How often the meter probes.
pub const PERIOD: Duration = Duration::from_millis(4);

/// [`probe`] time on an idle core of the reference machine (2-vCPU Intel
/// Xeon VM, 2.1 GHz), in µs.
pub const REF_US: f64 = 8.0;

/// The probe's inputs: a 32x32 image, nine weights and a 64K-entry
/// product table, as an 8-bit approximate multiplier's LUT would be.
struct ProbeInputs {
    image: Vec<u8>,
    weights: [u8; 9],
    lut: Vec<u16>,
}

impl ProbeInputs {
    fn new() -> ProbeInputs {
        ProbeInputs {
            image: (0..1024u32).map(|i| (i * 37 % 251) as u8).collect(),
            weights: [3, 17, 29, 41, 53, 67, 79, 97, 131],
            lut: (0..65536u32)
                .map(|i| (((i >> 8) * (i & 255)) >> 2) as u16)
                .collect(),
        }
    }
}

/// A 3x3 convolution of the image through the product table, then an
/// f32 gradient of its weights: LUT gathers, integer sums, float
/// multiply-adds and an allocation, the mix a training step is made of.
/// Workload slowdowns on a shared core tracked this kernel's within 5%,
/// where a pure integer or pure table loop missed them by a third.
#[inline(never)]
fn conv_step(p: &ProbeInputs) -> f32 {
    let (img, w, lut) = (&p.image, &p.weights, &p.lut);
    let mut out = vec![0f32; 30 * 30];
    for y in 0..30 {
        for x in 0..30 {
            let mut s = 0u32;
            for k in 0..9 {
                let px = img[(y + k / 3) * 32 + x + k % 3] as usize;
                s += lut[(w[k] as usize) << 8 | px] as u32;
            }
            out[y * 30 + x] = s as f32 * (1.0 / 4096.0);
        }
    }
    let mut g = [0f32; 9];
    for y in 0..30 {
        for x in 0..30 {
            let e = out[y * 30 + x] - 0.5;
            for k in 0..9 {
                g[k] += e * img[(y + k / 3) * 32 + x + k % 3] as f32;
            }
        }
    }
    g.iter().sum()
}

/// Time [`conv_step`] twice and keep the faster, in µs, so that one
/// preemption of the meter does not read as a slow core.
fn probe(p: &ProbeInputs) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let t = Instant::now();
        black_box(conv_step(black_box(p)));
        best = best.min(t.elapsed().as_secs_f64() * 1e6);
    }
    best
}

/// One probe: when it ran and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub start: Instant,
    pub end: Instant,
    pub us: f64,
}

/// Readings taken on the calling thread, one per [`Probes::read`].
pub struct Probes {
    inputs: ProbeInputs,
    readings: Vec<Reading>,
}

impl Probes {
    pub fn new() -> Probes {
        Probes {
            inputs: ProbeInputs::new(),
            readings: Vec::new(),
        }
    }

    /// Probe now.
    pub fn read(&mut self) {
        let start = Instant::now();
        let us = probe(&self.inputs);
        self.readings.push(Reading {
            start,
            end: Instant::now(),
            us,
        });
    }

    /// The readings so far, in time order.
    pub fn speed(&self) -> Speed {
        Speed(self.readings.clone())
    }
}

/// A thread probing the CPU it shares with the workload.
pub struct Meter {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Speed>,
}

impl Meter {
    /// Start probing on the CPUs the calling thread may use (a new thread
    /// inherits its creator's affinity).
    pub fn start() -> Meter {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut probes = Probes::new();
            while !flag.load(Ordering::Relaxed) {
                probes.read();
                std::thread::sleep(PERIOD);
            }
            Speed(probes.readings)
        });
        Meter { stop, handle }
    }

    /// Stop probing and hand back every reading.
    pub fn stop(self) -> Result<Speed, String> {
        // The flag publishes nothing else: the readings come back through
        // `join`, which synchronises with the thread's end.
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .join()
            .map_err(|_| "the speed meter panicked".to_owned())
    }
}

/// The readings of one [`Meter`], in time order.
#[derive(Debug, Default)]
pub struct Speed(Vec<Reading>);

impl Speed {
    /// Readings in time order, as a meter would have made them.
    pub fn new(readings: Vec<Reading>) -> Speed {
        Speed(readings)
    }

    /// Reference seconds of the interval `[a, b]`: each reading stands
    /// for the time from halfway after the previous one to halfway before
    /// the next, weighted by `REF_US / us`; the readings' own run time is
    /// left out. Wall seconds when there is no reading.
    pub fn seconds(&self, a: Instant, b: Instant) -> f64 {
        let r = &self.0;
        if r.is_empty() || b <= a {
            return b.saturating_duration_since(a).as_secs_f64();
        }
        let mid = |i: usize| r[i].start + (r[i + 1].start - r[i].start) / 2;
        let overlap =
            |lo: Instant, hi: Instant| hi.min(b).saturating_duration_since(lo.max(a)).as_secs_f64();
        // Binary search for the first reading whose share ends after `a`.
        let (mut first, mut last) = (0, r.len() - 1);
        while first < last {
            let m = (first + last) / 2;
            if mid(m) > a {
                last = m;
            } else {
                first = m + 1;
            }
        }
        let mut total = 0.0;
        for i in first..r.len() {
            let lo = if i == 0 {
                a.min(r[0].start)
            } else {
                mid(i - 1)
            };
            if lo >= b {
                break;
            }
            let hi = if i + 1 == r.len() {
                b.max(r[i].end)
            } else {
                mid(i)
            };
            let own = overlap(r[i].start, r[i].end);
            total += (overlap(lo, hi) - own).max(0.0) * REF_US / r[i].us;
        }
        total
    }

    /// Reference milliseconds of `[a, b]`.
    pub fn ms(&self, a: Instant, b: Instant) -> f64 {
        self.seconds(a, b) * 1e3
    }

    /// Record the number of readings and their quartiles, in µs, as
    /// `<prefix>.speed.*`: how much slower than the reference the CPU was.
    pub fn report(&self, prefix: &str, out: &mut Outcome) {
        let us: Vec<f64> = self.0.iter().map(|r| r.us).collect();
        let (q1, q3) = quartiles(&us);
        out.num(format!("{prefix}.speed.readings"), us.len() as f64);
        out.num(format!("{prefix}.speed.probe_us_q1"), q1);
        out.num(format!("{prefix}.speed.probe_us_median"), median(&us));
        out.num(format!("{prefix}.speed.probe_us_q3"), q3);
    }
}

// glibc's CPU-affinity calls; `mask` points at a `cpu_set_t` of `size`
// bytes, and pid 0 names the calling thread.
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: one bit for each of 1024 CPUs.
type CpuSet = [u64; 16];

fn set_affinity(mask: &CpuSet) -> Result<(), String> {
    // SAFETY: `mask` is an initialised `CpuSet` that lives for the whole
    // call, and the size passed is exactly its size.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Run `f` with the calling thread, and every thread it starts, confined
/// to the first CPU this process may use, then restore the affinity.
/// `std::thread::available_parallelism` then reports one CPU, so the
/// sweep orchestrator's cells train on one thread.
pub fn on_one_cpu<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    let mut saved: CpuSet = [0; 16];
    // SAFETY: `saved` is a writable `CpuSet` that lives for the whole call,
    // and the size passed is exactly its size.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), saved.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let word = saved
        .iter()
        .position(|&w| w != 0)
        .ok_or("this process may run on no CPU")?;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << saved[word].trailing_zeros();
    set_affinity(&one)?;
    let result = f();
    set_affinity(&saved)?;
    Ok(result)
}

/// Run `f` on one CPU with a [`Meter`] beside it.
pub fn metered<T>(f: impl FnOnce() -> T) -> Result<(T, Speed), String> {
    on_one_cpu(|| {
        let meter = Meter::start();
        let result = f();
        Ok((result, meter.stop()?))
    })?
}
