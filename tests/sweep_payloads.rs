//! Every kernel job kind's canonical payload, pinned through the sweep
//! scheduler: one [`Sweep`] runs one cell of each kind that trains,
//! searches or evaluates an application kernel, and the rows artifact —
//! payloads, details and job fingerprints, in job order — must hash to
//! the bytes recorded before the scheduler's cell layer was rewritten.
//!
//! One `#[test]` because the sizing env knobs are process-global.

use lac_bench::driver::{AppId, MultiPipeline};
use lac_bench::sched::{Job, Sweep, UnitJob};
use lac_core::Constraint;

/// One cell per kernel job kind, on 8-bit units where a job names one.
fn jobs() -> Vec<Job> {
    let spec = |s: &str| s.to_owned();
    let cells = [
        ("fixed", UnitJob::Fixed { app: AppId::Blur, spec: spec("mul8u_JV3") }),
        ("untrained", UnitJob::Untrained { app: AppId::Edge, spec: spec("mul8u_JV3") }),
        (
            "multistart",
            UnitJob::Multistart {
                app: AppId::Sharpen,
                spec: spec("mul8u_FTA"),
                scale_bits: vec![0, 1],
            },
        ),
        (
            "nas",
            UnitJob::Nas {
                app: AppId::Dft,
                constraint: Constraint::Area(0.5),
                gate_lr: 2.0,
                epoch_factor: 2,
            },
        ),
        (
            "nas-accuracy",
            UnitJob::NasAccuracy { app: AppId::Ik, target: 0.2, delta: 1.0, gate_lr: 2.0 },
        ),
        ("brute-force", UnitJob::BruteForce { app: AppId::Blur }),
        (
            "multi-nas",
            UnitJob::MultiNas {
                pipeline: MultiPipeline::BlurPerTap,
                epoch_factor: 2,
                area_threshold: 0.5,
                gamma: 0.9,
                delta: 1.0,
            },
        ),
        (
            "greedy-multi",
            UnitJob::GreedyMulti {
                pipeline: MultiPipeline::Jpeg3Stage,
                area_threshold: 0.5,
                gamma: 0.9,
                delta: 1.0,
            },
        ),
        ("cnn-fixed", UnitJob::CnnFixed { spec: spec("mul8u_FTA") }),
        ("cnn-untrained", UnitJob::CnnUntrained { spec: spec("mul8s_1KR3") }),
        (
            "cnn-per-layer-nas",
            UnitJob::CnnPerLayerNas {
                epoch_factor: 2,
                area_threshold: 0.5,
                gamma: 0.9,
                delta: 1.0,
            },
        ),
    ];
    cells.into_iter().map(|(detail, unit)| Job::new(detail, unit)).collect()
}

#[test]
fn every_kernel_job_kind_keeps_its_payload_bytes() {
    std::env::set_var("LAC_QUICK", "1");
    std::env::set_var("LAC_SEED", "42");
    std::env::set_var("LAC_EPOCHS", "4");
    std::env::set_var("LAC_TRAIN", "4");
    std::env::set_var("LAC_TEST", "8");

    let dir = std::env::temp_dir().join(format!("lac-sweep-payloads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sweep = Sweep::new("payload-probe", jobs()).workers(1).cache(false).results_dir(&dir);
    let outcomes = sweep.run();

    assert_eq!(outcomes.len(), 11);
    for o in &outcomes {
        assert!(o.value.is_ok(), "{}: {:?}", o.detail, o.value);
        assert!(!o.cached, "{}", o.detail);
    }
    let rows = std::fs::read(sweep.rows_path()).expect("rows artifact must exist after a run");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        lac_rt::hash::fnv1a_64_hex(&rows),
        "d9602f20f2b85987",
        "a kernel job kind's payload bytes moved:\n{}",
        String::from_utf8_lossy(&rows)
    );
}
