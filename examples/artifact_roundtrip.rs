//! Artifact round trip: the full build → save → load → serve pipeline.
//!
//! ```text
//! cargo run --release --example artifact_roundtrip
//! ```
//!
//! Stage 1 plays the *training side*: it trains a network, declares a
//! robust interval monitor as a [`MonitorSpec`], builds it, and saves the
//! whole deployment as one versioned artifact file. Stage 2 plays the
//! *operations side*: a (conceptually fresh) process that knows nothing
//! but the file path loads it — validation included — mounts it on the
//! pooled serving engine, and serves traffic. The example asserts that
//! the served verdicts are bit-identical to the builder's in-memory
//! monitor, and that tampered files are rejected with typed errors.

use napmon::absint::Domain;
use napmon::artifact::{ArtifactError, MonitorArtifact};
use napmon::core::{Monitor, MonitorKind, MonitorSpec};
use napmon::nn::{Activation, LayerSpec, Loss, Network, Optimizer, Trainer};
use napmon::serve::{EngineConfig, MonitorEngine};
use napmon::tensor::Prng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("napmon_artifact_roundtrip");
    let path = dir.join("monitor.artifact.json");

    // ---- Stage 1: the training side -------------------------------------
    // Train a small regressor on y = sin(3x0) + x1.
    let mut rng = Prng::seed(7);
    let inputs: Vec<Vec<f64>> = (0..512).map(|_| rng.uniform_vec(2, -1.0, 1.0)).collect();
    let targets: Vec<Vec<f64>> = inputs
        .iter()
        .map(|x| vec![(3.0 * x[0]).sin() + x[1]])
        .collect();
    let mut net = Network::seeded(
        42,
        2,
        &[
            LayerSpec::dense(24, Activation::Relu),
            LayerSpec::dense(12, Activation::Relu),
            LayerSpec::dense(1, Activation::Identity),
        ],
    );
    Trainer::new(Loss::Mse, Optimizer::adam(0.01))
        .batch_size(32)
        .epochs(60)
        .run(&mut net, &inputs, &targets, 11);

    // Declare the whole monitor build as data: a robust 2-bit interval
    // monitor at the last hidden layer, Δ = 0.02 at the input, box domain.
    let spec = MonitorSpec::new(net.penultimate_boundary(), MonitorKind::interval(2)).robust(
        0.02,
        0,
        Domain::Box,
    );
    let artifact = MonitorArtifact::build(spec, &net, &inputs)?;
    println!("built    {artifact}");

    // Keep reference verdicts to compare the round trip against.
    let probes: Vec<Vec<f64>> = (0..256).map(|_| rng.uniform_vec(2, -1.5, 1.5)).collect();
    let reference = artifact.monitor().query_batch(&net, &probes)?;

    artifact.save_json(&path)?;
    let bytes = std::fs::metadata(&path)?.len();
    println!("saved    {} ({bytes} bytes)", path.display());

    // ---- Stage 2: the operations side -----------------------------------
    // A fresh process: only the file crosses the boundary. Loading
    // re-validates the format version, the spec invariants, and the
    // agreement between spec, network, and monitor.
    let loaded = MonitorArtifact::load_json(&path)?;
    println!("loaded   {loaded}");

    // Mount it on the serving engine and serve the same probes.
    let engine = MonitorEngine::from_artifact(loaded, EngineConfig::with_shards(2));
    let served = engine.submit_batch(probes.clone())?;
    let report = engine.shutdown();
    assert_eq!(served, reference, "round trip must be bit-identical");
    println!(
        "served   {} requests on 2 pool workers, warn rate {:.3} — verdicts bit-identical",
        report.requests, report.warn_rate
    );

    // ---- Tampered files fail typed, not loud ----------------------------
    let json = std::fs::read_to_string(&path)?;
    let bumped = json.replacen("\"format_version\":1", "\"format_version\":2", 1);
    match MonitorArtifact::from_json_str(&bumped) {
        Err(ArtifactError::UnsupportedVersion { found, supported }) => {
            println!("rejected future format v{found} (this build reads v{supported})");
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
