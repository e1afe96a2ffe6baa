//! Trained-hardware LAC: binarized-gate NAS over the full Table I catalog.
//!
//! Searches for the best multiplier for edge detection under an area
//! budget, co-training the application coefficients — the Fig. 5/7/8 flow
//! of the paper in one program.
//!
//! Run with: `cargo run --release --example hardware_search`

use lac::apps::{FilterApp, FilterKind, Kernel, StageMode};
use lac::core::{prune, search_single, Constraint, TrainConfig};
use lac::data::ImageDataset;
use lac::hw::catalog;

fn main() {
    let app = FilterApp::new(FilterKind::EdgeDetection, StageMode::Single);
    let data = ImageDataset::generate(40, 10, 32, 32, 7);

    // Adapt every catalog unit to the kernel's signedness, then prune to
    // an area budget (Section IV: constrained searches shrink the space
    // instead of adding a loss term).
    let budget = Constraint::Area(0.30);
    let candidates: Vec<_> = catalog::paper_multipliers().iter().map(|m| app.adapt(m)).collect();
    let admitted = prune(&candidates, budget);
    println!("area budget 0.30 admits {} of {} candidates:", admitted.len(), candidates.len());
    for m in &admitted {
        println!("  {:<12} area {:.2}", m.name(), m.metadata().area);
    }

    let config = TrainConfig::new().epochs(150).learning_rate(2.0).minibatch(16).seed(3);
    let result = search_single(&app, &admitted, &data.train, &data.test, &config, 2.0);

    println!("\nsearch finished in {:.1}s", result.seconds);
    println!("gate probabilities:");
    for (name, p) in result.candidates.iter().zip(&result.probabilities) {
        println!("  {:<12} {:.3}", name, p);
    }
    println!(
        "\nchosen: {} (area {:.2})  SSIM after co-training: {:.4}",
        result.chosen_name(),
        result.area,
        result.quality
    );
}
