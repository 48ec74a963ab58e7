//! Persistence & warm restart, end to end:
//!
//! 1. declare a store-backed monitor spec and build it — the pattern set
//!    lands in a log-structured on-disk store, not process RAM;
//! 2. serve traffic on the sharded engine and *absorb* novel
//!    operation-time patterns into the store (no rebuild — every shard
//!    sees them immediately);
//! 3. save a (tiny) artifact that references the store by path;
//! 4. simulate a restart: boot a fresh engine straight from the segments
//!    on disk and verify nothing was lost.
//!
//! Run with `cargo run --release --example store_monitor`.

use napmon::core::{Monitor, MonitorKind, MonitorSpec, PatternBackend, ThresholdPolicy};
use napmon::nn::{Activation, LayerSpec, Network};
use napmon::serve::{EngineConfig, MonitorEngine};
use napmon::store::{PatternStore, StoreProvider};
use napmon::tensor::Prng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("napmon_store_example_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store_root = dir.join("patterns");

    // A small trained-elsewhere network and its training distribution.
    let net = Network::seeded(
        2024,
        4,
        &[
            LayerSpec::dense(24, Activation::Relu),
            LayerSpec::dense(3, Activation::Identity),
        ],
    );
    let mut rng = Prng::seed(11);
    let train: Vec<Vec<f64>> = (0..256).map(|_| rng.uniform_vec(4, -1.0, 1.0)).collect();

    // 1. Store-backed build: the spec says "patterns live in a store".
    let spec = MonitorSpec::new(
        2,
        MonitorKind::pattern_with(ThresholdPolicy::Sign, PatternBackend::Store, 0),
    );
    let monitor = spec.build_with_sources(&net, &train, &mut StoreProvider::new(&store_root))?;
    println!("built store-backed monitor: {monitor}");
    for x in &train {
        assert!(!monitor.verdict(&net, x)?.warning);
    }

    // The artifact references the store; it does not embed the word set.
    let artifact =
        napmon::artifact::MonitorArtifact::from_parts(spec.clone(), net.clone(), monitor, 256)?;
    let artifact_path = dir.join("monitor.artifact.json");
    artifact.save_json(&artifact_path)?;
    println!(
        "artifact on disk: {} bytes (references {})",
        std::fs::metadata(&artifact_path)?.len(),
        store_root.display(),
    );
    // Store opens are exclusive; release the build's handle before the
    // serving process reopens the segments.
    drop(artifact);

    // 2. Serve and absorb. Out-of-distribution traffic warns at first…
    let engine = MonitorEngine::from_artifact(
        napmon::artifact::MonitorArtifact::load_json(&artifact_path)?,
        EngineConfig::with_shards(2),
    );
    let ood: Vec<Vec<f64>> = (0..64).map(|_| rng.uniform_vec(4, -2.5, 2.5)).collect();
    let before = engine.submit_batch(ood.clone())?;
    let warned = before.iter().filter(|v| v.warning).count();
    println!(
        "novel traffic: {warned}/{} warnings before absorption",
        ood.len()
    );

    // …until the operator absorbs it: the store grows, the abstraction
    // enlarges, and every shard serves the new patterns with no rebuild.
    let fresh = engine.absorb_batch(&ood)?;
    let after = engine.submit_batch(ood.clone())?;
    assert!(after.iter().all(|v| !v.warning));
    println!("absorbed {fresh} new patterns; the same traffic is now clean");
    let report = engine.shutdown();
    println!("{report}");

    // 3. "Restart": a fresh engine warm-starts from the segments on disk —
    // no training data, no construction loop.
    let warm = MonitorEngine::from_store(&spec, net, &store_root, EngineConfig::with_shards(2))?;
    let served = warm.submit_batch(ood)?;
    assert!(
        served.iter().all(|v| !v.warning),
        "absorbed patterns persisted"
    );
    println!("warm restart serves the enlarged abstraction from disk");
    warm.shutdown();

    // A peek at the store itself.
    let mut store = PatternStore::open(StoreProvider::member_dir(&store_root, 0))?;
    let stats = store.stats()?;
    println!(
        "store: {} words ({} sealed segments), {} bytes on disk",
        stats.sealed_words + stats.tail_words,
        stats.segments,
        stats.disk_bytes
    );

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
