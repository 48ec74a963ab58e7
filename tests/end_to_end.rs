//! Cross-crate integration: the full pipeline from synthetic data through
//! training to monitoring, exercising every workspace crate through the
//! `napmon` facade.

use napmon::absint::Domain;
use napmon::core::{Monitor, MonitorKind, MonitorSpec, PatternBackend, ThresholdPolicy};
use napmon::data::ood::OodScenario;
use napmon::data::racetrack::{TrackConfig, TrackSampler};
use napmon::eval::experiment::{Experiment, RacetrackConfig};
use napmon::eval::warn_rate;
use napmon::nn::{Activation, LayerSpec, Loss, Network, Optimizer, Trainer};
use napmon::tensor::Prng;

fn small_config() -> RacetrackConfig {
    RacetrackConfig {
        train_size: 120,
        test_size: 120,
        ood_size: 40,
        hidden: vec![16, 8],
        epochs: 4,
        track: TrackConfig {
            height: 8,
            width: 8,
            ..TrackConfig::default()
        },
        ..RacetrackConfig::default()
    }
}

#[test]
fn racetrack_pipeline_standard_vs_robust() {
    let exp = Experiment::prepare(small_config());
    let rows = exp.standard_vs_robust(0.002, Domain::Box);
    assert_eq!(rows.len(), 6);
    // The robust construction can only widen the abstraction: FP never up.
    for pair in rows.chunks(2) {
        assert!(
            pair[1].fp_rate <= pair[0].fp_rate + 1e-12,
            "{}",
            pair[1].name
        );
    }
    // Rates are well-formed probabilities.
    for row in &rows {
        assert!((0.0..=1.0).contains(&row.fp_rate));
        for rate in row.detection.values() {
            assert!((0.0..=1.0).contains(rate));
        }
    }
}

#[test]
fn lemma_1_holds_on_the_racetrack_pipeline() {
    let exp = Experiment::prepare(small_config());
    let net = exp.network();
    let delta = 0.004;
    let monitor = MonitorSpec::new(
        exp.monitored_boundary(),
        MonitorKind::pattern_with(ThresholdPolicy::Mean, PatternBackend::Bdd, 0),
    )
    .robust(delta, 0, Domain::Box)
    .build(net, &exp.train_data().inputs)
    .expect("build robust monitor");
    let mut rng = Prng::seed(404);
    for base in exp.train_data().inputs.iter().take(30) {
        let perturbed: Vec<f64> = base
            .iter()
            .map(|&v| v + rng.uniform(-delta, delta))
            .collect();
        assert!(
            !monitor.verdict(net, &perturbed).unwrap().warning,
            "robust monitor warned within its Δ guarantee"
        );
    }
}

#[test]
fn ood_scenarios_shift_activations_measurably() {
    // Substrate sanity behind E1: the corruptions must move feature vectors
    // (otherwise detection rates would be vacuous).
    let cfg = TrackConfig {
        height: 8,
        width: 8,
        ..TrackConfig::default()
    };
    let mut sampler = TrackSampler::new(cfg, 7);
    let train = sampler.dataset(100);

    let mut net = Network::seeded(
        3,
        cfg.input_dim(),
        &[
            LayerSpec::dense(16, Activation::Relu),
            LayerSpec::dense(2, Activation::Identity),
        ],
    );
    Trainer::new(Loss::Mse, Optimizer::adam(0.005))
        .epochs(4)
        .run(&mut net, &train.inputs, &train.targets, 9);

    let boundary = net.penultimate_boundary();
    let feature_mean = |inputs: &[Vec<f64>]| -> Vec<f64> {
        let mut acc = vec![0.0; net.dim_at(boundary)];
        for x in inputs {
            for (a, v) in acc.iter_mut().zip(net.forward_prefix(x, boundary)) {
                *a += v;
            }
        }
        acc.iter().map(|a| a / inputs.len() as f64).collect()
    };
    let nominal_mean = feature_mean(&train.inputs);
    for scenario in OodScenario::PAPER {
        let corrupted: Vec<Vec<f64>> = train.inputs[..40]
            .iter()
            .map(|x| {
                let img = napmon::data::Image::from_pixels(8, 8, x.clone());
                scenario.apply(&img, sampler.rng_mut()).into_pixels()
            })
            .collect();
        let shifted_mean = feature_mean(&corrupted);
        let shift: f64 = nominal_mean
            .iter()
            .zip(&shifted_mean)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / nominal_mean.len() as f64;
        assert!(
            shift > 1e-3,
            "{scenario} produced no feature shift ({shift})"
        );
    }
}

#[test]
fn monitors_survive_model_save_load() {
    // A monitor built against a saved-then-reloaded network must behave
    // identically — parameters round-trip bit-exactly through JSON.
    let mut rng = Prng::seed(21);
    let inputs: Vec<Vec<f64>> = (0..64).map(|_| rng.uniform_vec(4, -1.0, 1.0)).collect();
    let net = Network::seeded(
        33,
        4,
        &[
            LayerSpec::dense(12, Activation::Relu),
            LayerSpec::dense(2, Activation::Identity),
        ],
    );

    let dir = std::env::temp_dir().join("napmon_root_integration");
    let path = dir.join("model.json");
    napmon::nn::io::save(&net, &path).unwrap();
    let reloaded = napmon::nn::io::load(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let m1 = MonitorSpec::new(2, MonitorKind::interval(2))
        .build(&net, &inputs)
        .unwrap();
    let m2 = MonitorSpec::new(2, MonitorKind::interval(2))
        .build(&reloaded, &inputs)
        .unwrap();
    for _ in 0..200 {
        let probe = rng.uniform_vec(4, -2.0, 2.0);
        assert_eq!(
            m1.verdict(&net, &probe).unwrap().warning,
            m2.verdict(&reloaded, &probe).unwrap().warning
        );
    }
}

#[test]
fn warn_rate_composes_with_any_family() {
    let exp = Experiment::prepare(small_config());
    let net = exp.network();
    for (name, kind) in Experiment::monitor_families() {
        let monitor = MonitorSpec::new(exp.monitored_boundary(), kind)
            .build(net, &exp.train_data().inputs)
            .unwrap();
        let fp = warn_rate(&monitor, net, &exp.test_data().inputs);
        assert!((0.0..=1.0).contains(&fp), "{name}: fp {fp}");
        // A monitor never warns on its own training data.
        assert_eq!(
            warn_rate(&monitor, net, &exp.train_data().inputs),
            0.0,
            "{name}"
        );
    }
}
