//! Quickstart: train a tiny network, declare a monitor spec, build, query.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Construction is spec-first: the whole monitor build is declared as a
//! serializable `MonitorSpec` value, so the exact configuration that
//! produced a deployed monitor can be saved, diffed, and rebuilt (see
//! `examples/artifact_roundtrip.rs` for the full deployment pipeline).

use napmon::absint::Domain;
use napmon::core::{Monitor, MonitorKind, MonitorSpec};
use napmon::nn::{Activation, LayerSpec, Loss, Network, Optimizer, Trainer};
use napmon::tensor::Prng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A regression task: y = sin(3x0) + x1, sampled on a small domain.
    let mut rng = Prng::seed(7);
    let inputs: Vec<Vec<f64>> = (0..512).map(|_| rng.uniform_vec(2, -1.0, 1.0)).collect();
    let targets: Vec<Vec<f64>> = inputs
        .iter()
        .map(|x| vec![(3.0 * x[0]).sin() + x[1]])
        .collect();

    // 2. Train a small feed-forward network on it.
    let mut net = Network::seeded(
        42,
        2,
        &[
            LayerSpec::dense(24, Activation::Relu),
            LayerSpec::dense(12, Activation::Relu),
            LayerSpec::dense(1, Activation::Identity),
        ],
    );
    let report = Trainer::new(Loss::Mse, Optimizer::adam(0.01))
        .batch_size(32)
        .epochs(120)
        .run(&mut net, &inputs, &targets, 11);
    println!("trained: final MSE = {:.5}", report.final_loss());

    // 3. Declare monitor builds at the last hidden layer: one standard,
    //    one robust (Definition 1 with Δ = 0.02 at the input, box domain).
    //    A spec is plain data — `serde_json::to_string(&spec)` is the
    //    reviewable record of exactly what was built.
    let layer = net.penultimate_boundary();
    let standard = MonitorSpec::new(layer, MonitorKind::pattern()).build(&net, &inputs)?;
    let robust = MonitorSpec::new(layer, MonitorKind::pattern())
        .robust(0.02, 0, Domain::Box)
        .build(&net, &inputs)?;

    // 4. Query: in-distribution points and their small perturbations never
    //    warn under the robust monitor (Lemma 1); far-away points do.
    let near: Vec<f64> = vec![inputs[0][0] + 0.015, inputs[0][1] - 0.015];
    let far = vec![9.0, -9.0];
    println!("standard monitor:");
    println!(
        "  near training point -> warning: {}",
        standard.verdict(&net, &near)?.warning
    );
    println!(
        "  far from training   -> warning: {}",
        standard.verdict(&net, &far)?.warning
    );
    println!("robust monitor (provably silent within Δ of the training set):");
    println!(
        "  near training point -> warning: {}",
        robust.verdict(&net, &near)?.warning
    );
    println!(
        "  far from training   -> warning: {}",
        robust.verdict(&net, &far)?.warning
    );

    assert!(
        !robust.verdict(&net, &near)?.warning,
        "Lemma 1 guarantees this"
    );

    // 5. An input outside the network's domain gets a typed refusal, never
    //    a verdict.
    match robust.verdict(&net, &[f64::NAN, 0.0]) {
        Err(refusal) => println!("NaN input -> refused: {refusal}"),
        Ok(verdict) => panic!("a NaN input got a verdict: {verdict:?}"),
    }
    Ok(())
}
