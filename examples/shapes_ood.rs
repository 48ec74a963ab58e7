//! Per-class pattern monitoring on a glyph classifier — the DATE 2019
//! setup (one pattern set per output class) with robust construction.
//!
//! ```text
//! cargo run --release --example shapes_ood
//! ```

use napmon::absint::Domain;
use napmon::core::{ComposedMonitor, MonitorKind, MonitorSpec, PatternBackend, ThresholdPolicy};
use napmon::data::shapes::ShapesConfig;
use napmon::eval::table::{percent, Table};
use napmon::eval::warn_rate;
use napmon::nn::{accuracy, Activation, LayerSpec, Loss, Network, Optimizer, Trainer};
use napmon::tensor::Prng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = ShapesConfig::default();
    let mut rng = Prng::seed(99);
    let train = cfg.dataset(300, &mut rng);
    let test = cfg.dataset(100, &mut rng);
    let ood = cfg.ood_inputs(400, &mut rng);

    // Train a 4-class glyph classifier.
    let mut net = Network::seeded(
        5,
        cfg.input_dim(),
        &[
            LayerSpec::dense(48, Activation::Relu),
            LayerSpec::dense(24, Activation::Relu),
            LayerSpec::dense(4, Activation::Identity),
        ],
    );
    Trainer::new(Loss::SoftmaxCrossEntropy, Optimizer::adam(0.005))
        .batch_size(32)
        .epochs(25)
        .run(&mut net, &train.inputs, &train.targets, 17);
    println!(
        "test accuracy: {:.1}%",
        100.0 * accuracy(&net, &test.inputs, &test.targets)
    );

    // One pattern set per class, as in the DATE 2019 monitor; robust
    // construction with a small input Δ.
    let labels = train.labels.as_ref().expect("classification dataset");
    let kind = MonitorKind::pattern_with(ThresholdPolicy::Mean, PatternBackend::Bdd, 0);
    let spec = MonitorSpec::new(net.penultimate_boundary(), kind).per_class(4);
    let standard = spec.build_with_labels(&net, &train.inputs, labels)?;
    let robust =
        spec.robust(0.002, 0, Domain::Box)
            .build_with_labels(&net, &train.inputs, labels)?;

    let rate = |pc: &ComposedMonitor, xs: &[Vec<f64>]| warn_rate(pc, &net, xs);

    let mut t = Table::new(vec![
        "per-class monitor".into(),
        "FP (in-dist test)".into(),
        "detection (star + inverted glyphs)".into(),
    ]);
    t.row(vec![
        "standard".into(),
        percent(rate(&standard, &test.inputs)),
        percent(rate(&standard, &ood)),
    ]);
    t.row(vec![
        "robust Δ=0.002".into(),
        percent(rate(&robust, &test.inputs)),
        percent(rate(&robust, &ood)),
    ]);
    println!("{t}");
    Ok(())
}
