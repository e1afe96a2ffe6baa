//! Integration tests pinning the paper-level invariants the reproduction
//! relies on — the facts that make the figures come out with the right
//! shape.

use lac::apps::{
    DftApp, FilterApp, FilterKind, InverseK2jApp, JpegApp, JpegMode, Kernel, Metric, StageMode,
};
use lac::core::{batch_references, quality, Constraint};
use lac::data::{IkDataset, ImageDataset};
use lac::hw::{catalog, characterize, Signedness};
use std::sync::Arc;

#[test]
fn catalog_is_the_paper_table() {
    // Eleven units, Table I metadata, Table III delays on the EvoApprox
    // subset only.
    let units = catalog::paper_multipliers();
    assert_eq!(units.len(), 11);
    let with_delay = units.iter().filter(|m| m.metadata().delay.is_some()).count();
    assert_eq!(with_delay, 7);
    // Signedness split: 4 unsigned EvoApprox-style + ETM/DRUM unsigned,
    // 4 signed EvoApprox-style.
    let signed = units.iter().filter(|m| m.signedness() == Signedness::Signed).count();
    assert_eq!(signed, 4);
}

#[test]
fn area_orders_error_within_families() {
    // The Pareto trade-off that makes Figs. 4/8 meaningful: within the
    // 8-bit unsigned family, cheaper units have strictly larger mean
    // relative error.
    let mre = |name: &str| characterize(&*catalog::by_name(name).unwrap(), 0, 0).mre;
    assert!(mre("mul8u_JV3") > mre("mul8u_FTA"));
    assert!(mre("mul8u_FTA") > mre("mul8u_185Q"));
}

#[test]
fn every_kernel_is_exact_under_exact_hardware() {
    // The dual-branch construction is consistent: with exact multipliers
    // and original coefficients, the approximate branch sits at (or very
    // near) the accurate branch for every application.
    let images = ImageDataset::generate(0, 3, 32, 32, 21);

    fn check<K: Kernel + Sync>(kernel: &K, test: &[K::Sample], min_quality: f64) {
        let mult = kernel.adapt(&catalog::by_name("exact16u").unwrap());
        let mults: Vec<Arc<dyn lac::hw::Multiplier>> =
            vec![mult; kernel.num_stages()];
        let refs = batch_references(kernel, test);
        let coeffs = kernel.init_coeffs(&mults);
        let q = quality(kernel, &coeffs, &mults, test, &refs, 2);
        match kernel.metric() {
            Metric::RelativeError => {
                assert!(q <= min_quality, "{}: rel err {q}", kernel.name())
            }
            _ => assert!(q >= min_quality, "{}: quality {q}", kernel.name()),
        }
    }

    for kind in [FilterKind::GaussianBlur, FilterKind::EdgeDetection, FilterKind::Sharpening] {
        check(&FilterApp::new(kind, StageMode::Single), &images.test, 0.999);
    }
    check(&JpegApp::new(JpegMode::Single), &images.test, 35.0);
    check(&DftApp::new(), &images.test, 35.0);
    let ik = IkDataset::generate(0, 20, 21);
    check(&InverseK2jApp::new(), &ik.test, 0.01);
}

#[test]
fn untrained_quality_varies_strongly_across_hardware() {
    // The motivation of LAC (Section II): the same application has wildly
    // different quality on different approximate units — the spread
    // between the best and worst untrained SSIM must be large.
    let app = FilterApp::new(FilterKind::GaussianBlur, StageMode::Single);
    let images = ImageDataset::generate(0, 4, 32, 32, 31);
    let refs = batch_references(&app, &images.test);
    let mut best = f64::NEG_INFINITY;
    let mut worst = f64::INFINITY;
    for raw in catalog::paper_multipliers() {
        let m = app.adapt(&raw);
        let mults = vec![m];
        let coeffs = app.init_coeffs(&mults);
        let q = quality(&app, &coeffs, &mults, &images.test, &refs, 2);
        best = best.max(q);
        worst = worst.min(q);
    }
    assert!(best > 0.99, "some unit should be near-exact untrained, best {best}");
    assert!(worst < 0.2, "some unit should be unusable untrained, worst {worst}");
}

#[test]
fn constraints_partition_the_catalog_consistently() {
    let all = catalog::paper_multipliers();
    for budget in [0.05, 0.1, 0.2, 0.5, 1.0] {
        let admitted = lac::core::prune(&all, Constraint::Area(budget));
        for m in &all {
            let inside = admitted.iter().any(|a| a.name() == m.name());
            assert_eq!(inside, m.metadata().area <= budget, "{} at {budget}", m.name());
        }
    }
}

#[test]
fn dataset_substitutes_are_reproducible_across_calls() {
    // Determinism end-to-end: dataset, references, quality.
    let a = ImageDataset::paper_split(99);
    let b = ImageDataset::paper_split(99);
    assert_eq!(a.train.len(), b.train.len());
    for (x, y) in a.train.iter().zip(&b.train) {
        assert_eq!(x.pixels(), y.pixels());
    }
    let app = JpegApp::new(JpegMode::Single);
    let ra = batch_references(&app, &a.test);
    let rb = batch_references(&app, &b.test);
    assert_eq!(ra, rb);
}
