//! Table IV: runtime comparison — NAS vs brute-force vs greedy search on
//! Gaussian blur and JPEG, in both trained-hardware (single gate) and
//! multi-hardware setups.
//!
//! The paper's shape: NAS is ~3–5× faster than brute force for the single
//! gate; for multi-hardware, brute force is combinatorially infeasible
//! (`k^n` configurations — estimated, as in the paper) and greedy costs a
//! large multiple of NAS.
//!
//! Timing comes from the cache envelope ([`JobOutcome::seconds`]): a cell
//! served from the cache reports the seconds of the run that produced it,
//! so a resumed sweep prints the same table as an uninterrupted one. This
//! table is inherently wall-clock data — unlike the fig sweeps its CSV is
//! *not* byte-stable across fresh `--no-cache` runs.
//!
//! Run with: `cargo run --release -p lac-bench --bin table4 [--jobs N] [--no-cache]`
//! (`LAC_QUICK=1` for a fast smoke run)

use lac_bench::driver::{AppId, MultiPipeline};
use lac_bench::sched::{Job, JobOutcome, Sweep, UnitJob};
use lac_bench::Report;
use lac_core::Constraint;

fn main() {
    let flags = lac_bench::sweep_flags();
    flags.reject_rest("table4");

    // (label, single-gate app, pipeline, paper hinge hyperparameters).
    let setups = [
        ("gaussian-blur", AppId::Blur, MultiPipeline::BlurPerTap, 0.12, 0.9, 20.0),
        ("jpeg", AppId::Jpeg, MultiPipeline::Jpeg3Stage, 0.5, 1.0, 300.0),
    ];
    let mut jobs = Vec::new();
    for &(label, app, pipeline, area_threshold, gamma, delta) in &setups {
        // Trained-hardware (single gate): NAS vs brute force. Greedy on a
        // single layer equals brute force, as the paper notes. The
        // runtime comparison uses the *same* per-iteration budget for NAS
        // as one fixed-hardware training run, so the speedup reflects the
        // paper's setup (NAS trains only two sampled paths per iteration
        // while brute force trains all k candidates to convergence).
        jobs.push(Job::new(
            format!("{label}:nas"),
            UnitJob::Nas { app, constraint: Constraint::None, gate_lr: 2.0, epoch_factor: 1 },
        ));
        jobs.push(Job::new(format!("{label}:brute-force"), UnitJob::BruteForce { app }));
        jobs.push(Job::new(
            format!("{label}:multi-nas"),
            UnitJob::MultiNas { pipeline, epoch_factor: 1, area_threshold, gamma, delta },
        ));
        jobs.push(Job::new(
            format!("{label}:greedy"),
            UnitJob::GreedyMulti { pipeline, area_threshold, gamma, delta },
        ));
    }
    let outcomes = flags.configure(Sweep::new("table4", jobs)).run();

    let mut report = Report::new(
        "table4",
        &["application", "setup", "nas_sec", "brute_force_sec", "greedy_sec", "speedup"],
    );
    let seconds = |o: &JobOutcome| o.ok().map(|_| o.seconds);
    for (s, &(label, _, pipeline, ..)) in setups.iter().enumerate() {
        let cells = &outcomes[s * 4..(s + 1) * 4];
        let (Some(nas_sec), Some(bf_sec), Some(multi_sec), Some(greedy_sec)) =
            (seconds(&cells[0]), seconds(&cells[1]), seconds(&cells[2]), seconds(&cells[3]))
        else {
            eprintln!("[table4] {label}: a cell failed; skipping its rows");
            continue;
        };
        report.row(&[
            label.to_owned(),
            "trained-hardware".to_owned(),
            format!("{nas_sec:.0}"),
            format!("{bf_sec:.0}"),
            format!("{bf_sec:.0}"),
            format!("{:.1}x", bf_sec / nas_sec.max(1e-9)),
        ]);

        // Brute force over k^n full trainings, estimated from one fixed run.
        let k = lac_hw::catalog::paper_multipliers().len() as f64;
        let per_config = bf_sec / k;
        let bf_estimate = per_config * k.powi(pipeline.num_stages() as i32);
        report.row(&[
            label.to_owned(),
            "multi-hardware".to_owned(),
            format!("{multi_sec:.0}"),
            format!("~{bf_estimate:.2e} (est)"),
            format!("{greedy_sec:.0}"),
            format!("{:.1}x (greedy)", greedy_sec / multi_sec.max(1e-9)),
        ]);
    }
    println!("Table IV: runtime comparison (NAS vs brute force vs greedy)\n");
    report.emit();
}
