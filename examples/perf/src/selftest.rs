//! `--self-test`: offline checks of the benchmark's own rules — the tail
//! percentile, the seeded Poisson schedule, latency from the scheduled
//! time, the rate ladder's stop rule, span self time, quartiles, the
//! comparison verdict and the conversion to reference seconds.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::report::{verdict, Verdict};
use crate::serve::{
    ladder, poisson, summarize, Planned, Rec, Status, ThreadOut, LADDER_FACTOR, LADDER_STEPS,
};
use crate::speed::{Reading, Speed, REF_US};
use crate::stats::{beyond, percentile, quartiles, tail_percentile};
use crate::trace::{self_times, Span};

type Check = fn() -> Result<(), String>;

/// Run every check; print each failure and return whether all held.
pub fn run() -> bool {
    let checks: [(&str, Check); 8] = [
        ("tail percentile keeps >= 10 samples beyond", tail_rule),
        ("poisson schedule is a function of the seed", schedule),
        (
            "latency is measured from the scheduled time",
            scheduled_latency,
        ),
        ("ladder stops at the first failing step", ladder_rule),
        ("span self time subtracts the union of children", self_time),
        (
            "quartiles match Python statistics.quantiles",
            python_quartiles,
        ),
        ("compare verdicts follow the pairing rule", compare_rule),
        (
            "reference seconds weight time by the probe, meter left out",
            reference_seconds,
        ),
    ];
    let mut ok = true;
    for (name, check) in checks {
        match check() {
            Ok(()) => eprintln!("self-test: ok   {name}"),
            Err(e) => {
                ok = false;
                eprintln!("self-test: FAIL {name}: {e}");
            }
        }
    }
    ok
}

fn ensure(cond: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what())
    }
}

fn tail_rule() -> Result<(), String> {
    ensure(beyond(1000, 0.99) == 10, || {
        format!("beyond(1000, p99) = {}", beyond(1000, 0.99))
    })?;
    ensure(tail_percentile(&[1000]) == 0.99, || {
        "1000 samples support p99".to_owned()
    })?;
    ensure(tail_percentile(&[999]) == 0.95, || {
        "999 samples leave 9 beyond p99".to_owned()
    })?;
    ensure(tail_percentile(&[5000, 300]) == 0.95, || {
        "every phase must support the percentile".to_owned()
    })?;
    ensure(tail_percentile(&[15]) == 0.50, || {
        "15 samples support only the median".to_owned()
    })?;
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    ensure(
        percentile(&v, 0.99) == 99.0 && percentile(&v, 0.5) == 50.0,
        || "nearest-rank percentile".to_owned(),
    )
}

fn schedule() -> Result<(), String> {
    let a = poisson(7, 5000.0, Duration::from_secs(2), &[60, 25, 10, 5]);
    let b = poisson(7, 5000.0, Duration::from_secs(2), &[60, 25, 10, 5]);
    let c = poisson(8, 5000.0, Duration::from_secs(2), &[60, 25, 10, 5]);
    ensure(a == b, || "same seed gave two schedules".to_owned())?;
    ensure(a != c, || "different seeds gave one schedule".to_owned())?;
    ensure((9_500..10_500).contains(&a.len()), || {
        format!("{} arrivals for 5000/s over 2 s", a.len())
    })?;
    ensure(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns), || {
        "arrivals out of order".to_owned()
    })?;
    let ik = a.iter().filter(|p| p.app == 0).count() as f64 / a.len() as f64;
    ensure((0.57..0.63).contains(&ik), || {
        format!("share of app 0 is {ik}, want 0.60")
    })
}

fn scheduled_latency() -> Result<(), String> {
    let start = Instant::now();
    let ms = |m: u64| start + Duration::from_millis(m);
    let plan = Arc::new(vec![
        Planned {
            at_ns: 1_000_000,
            app: 0,
            item: 0,
        },
        Planned {
            at_ns: 2_000_000,
            app: 0,
            item: 1,
        },
    ]);
    // The generator stalled: both requests went out at 5 ms.
    let recs = vec![
        Rec {
            sent: Some(ms(5)),
            recv: Some(ms(6)),
            status: Status::Ok,
        },
        Rec {
            sent: Some(ms(5)),
            recv: Some(ms(7)),
            status: Status::Ok,
        },
    ];
    let out = ThreadOut {
        recs,
        end: ms(7),
        controls: Vec::new(),
        errors: Vec::new(),
        control_errors: 0,
        health: None,
    };
    let s = summarize("t", 1.0, start, &[plan], &[out]);
    let close = |a: f64, b: f64| (a - b).abs() < 1e-6;
    ensure(
        close(s.latency_ms[0], 5.0) && close(s.latency_ms[1], 5.0),
        || format!("latencies {:?}", s.latency_ms),
    )?;
    ensure(close(s.late_ms[0], 3.0) && close(s.late_ms[1], 4.0), || {
        format!("lateness {:?}", s.late_ms)
    })
}

fn ladder_rule() -> Result<(), String> {
    let mut tried = Vec::new();
    let (best, failed) = ladder(1000.0, |r| {
        tried.push(r);
        Some(r < 1300.0)
    });
    ensure(failed && (best - 1210.0).abs() < 1e-6, || {
        format!("best {best}, failed {failed}")
    })?;
    ensure(tried.len() == 3, || {
        format!("tried {tried:?}, want three steps")
    })?;
    let (best, failed) = ladder(1000.0, |_| Some(true));
    let top = 1000.0 * LADDER_FACTOR.powi(LADDER_STEPS as i32);
    ensure(!failed && (best - top).abs() < 1e-6, || {
        format!("all steps pass: best {best}")
    })?;
    let (best, failed) = ladder(1000.0, |r| (r < 1150.0).then_some(true));
    ensure(!failed && (best - 1100.0).abs() < 1e-6, || {
        format!("out of time after one step: best {best}")
    })
}

fn self_time() -> Result<(), String> {
    let span = |parent: Option<usize>, start_us: f64, end_us: f64| Span {
        name: "t",
        label: String::new(),
        parent,
        id: 0,
        start_us,
        end_us,
        sent_us: None,
    };
    let spans = vec![
        span(None, 0.0, 100.0),
        span(Some(0), 10.0, 30.0),
        span(Some(0), 20.0, 50.0),
        span(Some(0), 60.0, 70.0),
        span(Some(3), 60.0, 65.0),
        span(Some(0), 95.0, 120.0),
    ];
    let selfs = self_times(&spans);
    ensure(selfs[0] == 45.0, || {
        format!("parent self time {}, want 100 - (40 + 10 + 5)", selfs[0])
    })?;
    ensure(selfs[3] == 5.0 && selfs[1] == 20.0, || {
        format!("child self times {selfs:?}")
    })
}

fn python_quartiles() -> Result<(), String> {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    let (q1, q3) = quartiles(&v);
    ensure(q1 == 2.75 && q3 == 8.25, || {
        format!("quartiles of 1..10: {q1}, {q3}")
    })?;
    let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
    ensure(q1 == 1.0 && q3 == 3.0, || {
        format!("quartiles of 1..3: {q1}, {q3}")
    })
}

fn compare_rule() -> Result<(), String> {
    let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
    let faster: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
    let slower: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
    let same: Vec<f64> = parent.iter().rev().copied().collect();
    ensure(
        verdict(&parent, &faster, true, 0.1) == Verdict::Gain,
        || "20% faster is a gain".to_owned(),
    )?;
    ensure(
        verdict(&parent[..3], &faster[..3], true, 0.1) == Verdict::Unresolved,
        || "three pairs are too few for a gain".to_owned(),
    )?;
    ensure(
        verdict(&parent, &slower, true, 0.1) == Verdict::Regression,
        || "20% slower regresses".to_owned(),
    )?;
    ensure(
        verdict(&parent, &same, true, 0.1) == Verdict::NoRegression,
        || "same values".to_owned(),
    )?;
    ensure(
        verdict(&parent, &same, true, 0.01) == Verdict::Unresolved,
        || "spread over bound".to_owned(),
    )
}

fn reference_seconds() -> Result<(), String> {
    let t0 = Instant::now();
    let ms = |m: f64| t0 + Duration::from_secs_f64(m / 1e3);
    let reading = |at: f64, us: f64| Reading {
        start: ms(at),
        end: ms(at + 0.01),
        us,
    };
    // A core at reference speed, then half speed around 10 ms.
    let speed = Speed::new(vec![
        reading(0.0, REF_US),
        reading(10.0, 2.0 * REF_US),
        reading(20.0, REF_US),
    ]);
    let close = |a: f64, b: f64| (a - b).abs() < 1e-6;
    let got = speed.ms(ms(0.0), ms(20.0));
    // [0, 5): 4.99 ms at full weight; [5, 15): 9.99 ms at half;
    // [15, 20]: 5 ms at full (the last reading starts at the end).
    ensure(close(got, 4.99 + 4.995 + 5.0), || {
        format!("0-20 ms reads {got} reference ms")
    })?;
    let got = speed.ms(ms(6.0), ms(8.0));
    ensure(close(got, 1.0), || {
        format!("6-8 ms at half speed reads {got} reference ms")
    })?;
    // Readings right before and right after an interval, as `Probes`
    // bracket a set-up sample: each weighs for half of it.
    let bracket = Speed::new(vec![reading(30.0, REF_US), reading(40.0, 2.0 * REF_US)]);
    let got = bracket.ms(ms(30.01), ms(40.0));
    ensure(close(got, 4.99 + 2.5), || {
        format!("a bracketed 30-40 ms reads {got} reference ms")
    })?;
    let got = Speed::default().ms(ms(0.0), ms(20.0));
    ensure(close(got, 20.0), || {
        format!("no readings: 20 ms reads {got} ms")
    })
}
