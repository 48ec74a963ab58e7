//! The paper's §III-C extension: multi-bit interval monitors, including
//! the Figure 1 robust encoding, demonstrated neuron by neuron.
//!
//! ```text
//! cargo run --release --example interval_monitor
//! ```

use napmon::absint::BoxBounds;
use napmon::core::{FeatureExtractor, IntervalPatternMonitor, QueryScratch};
use napmon::eval::table::Table;
use napmon::nn::{Activation, LayerSpec, Network};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 1-neuron feature layer keeps the encoding visible.
    let net = Network::seeded(1, 2, &[LayerSpec::dense(1, Activation::Identity)]);
    let fx = FeatureExtractor::new(&net, 1)?;

    // Thresholds c1 < c2 < c3 split the reals into four intervals
    // encoded 00 / 01 / 10 / 11 (B = 2 bits).
    let mut monitor = IntervalPatternMonitor::empty(fx, 2, vec![vec![0.0, 1.0, 2.0]])?;

    // The ten cases of Figure 1: where [l, u] sits relative to the
    // thresholds decides which symbol *set* is recorded.
    println!("Figure 1 — the robust encoding ab_R([l, u]):\n");
    let mut t = Table::new(vec!["[l, u]".into(), "recorded symbols".into()]);
    for (l, u) in [
        (2.5, 3.0),
        (1.2, 1.8),
        (0.3, 0.7),
        (-1.0, -0.5),
        (-0.5, 0.5),
        (0.5, 1.5),
        (1.5, 2.5),
        (-0.5, 1.5),
        (0.5, 2.5),
        (-0.5, 2.5),
    ] {
        let symbols: Vec<String> = monitor
            .symbol_range(0, l, u)
            .map(|s| format!("{s:02b}"))
            .collect();
        t.row(vec![
            format!("[{l:+.1}, {u:+.1}]"),
            format!("{{{}}}", symbols.join(", ")),
        ]);
    }
    println!("{t}");

    // Absorb one perturbation estimate and query around it.
    monitor.absorb_bounds(&BoxBounds::new(vec![0.5], vec![1.5])); // {01, 10}
    println!("after absorbing [0.5, 1.5] (symbols {{01, 10}}):");
    let mut scratch = QueryScratch::new();
    for v in [-0.5, 0.7, 1.4, 2.5] {
        // The network here is weights*(x) so craft inputs mapping to v.
        let warn = monitor.verdict_features_scratch(&[v], &mut scratch).warning;
        println!("  feature {v:+.1} -> warning: {warn}");
    }

    // Footnote 3: multi-bit monitors generalize min-max and on-off.
    println!(
        "\ncoverage: {:.3e} of the 2-bit pattern space",
        monitor.coverage()
    );
    Ok(())
}
