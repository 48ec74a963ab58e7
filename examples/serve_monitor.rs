//! Operation-time monitoring as a long-lived service: train the race-track
//! perception network, freeze its monitor, and serve mixed traffic through
//! a pooled `napmon-serve` engine — the deployment shape the paper's
//! monitors are designed for.
//!
//! ```text
//! cargo run --release --example serve_monitor
//! ```

use napmon::core::{MonitorKind, MonitorSpec, PatternBackend, ThresholdPolicy};
use napmon::data::ood::OodScenario;
use napmon::data::Image;
use napmon::eval::experiment::{Experiment, RacetrackConfig};
use napmon::serve::{EngineConfig, MonitorEngine};

fn main() {
    // 1. Train the perception network and build the frozen monitor.
    println!("training perception network…");
    let exp = Experiment::prepare(RacetrackConfig {
        train_size: 400,
        test_size: 400,
        ood_size: 100,
        epochs: 8,
        ..RacetrackConfig::default()
    });
    let net = exp.network();
    let monitor = MonitorSpec::new(
        exp.monitored_boundary(),
        MonitorKind::pattern_with(ThresholdPolicy::Mean, PatternBackend::Bdd, 0),
    )
    .build(net, &exp.train_data().inputs)
    .expect("build monitor");
    println!("monitor: {monitor}");

    // 2. Stand the engine up: a pool of two workers, each holding one scratch
    //    for its whole lifetime.
    let engine = MonitorEngine::new(net.clone(), monitor, EngineConfig::with_shards(2));
    println!(
        "engine up: {} pool workers, micro-batch {}\n",
        engine.shards(),
        engine.config().micro_batch
    );

    // 3. Serve nominal in-ODD traffic.
    let nominal = exp.test_data().inputs.clone();
    let verdicts = engine.submit_batch(nominal).expect("serve nominal traffic");
    let warned = verdicts.iter().filter(|v| v.warning).count();
    println!(
        "nominal traffic: {warned}/{} warned (false positives)",
        verdicts.len()
    );

    // 4. Serve out-of-ODD traffic: the paper's Figure-2 corruptions.
    let cfg = exp.config().track;
    let mut sampler = napmon::data::racetrack::TrackSampler::new(cfg, 999);
    for scenario in OodScenario::PAPER {
        let corrupted: Vec<Vec<f64>> = exp.test_data().inputs[..100]
            .iter()
            .map(|x| {
                let img = Image::from_pixels(cfg.height, cfg.width, x.clone());
                scenario.apply(&img, sampler.rng_mut()).into_pixels()
            })
            .collect();
        let verdicts = engine.submit_batch(corrupted).expect("serve OOD traffic");
        let detected = verdicts.iter().filter(|v| v.warning).count();
        println!("{scenario}: detected {detected}/100");
    }

    // 5. Live metrics, then graceful shutdown (drains, then reports).
    println!("\nmid-stream snapshot:\n{}", engine.report());
    let report = engine.shutdown();
    println!("final report after shutdown:\n{report}");
}
