//! Shared fixtures for the `napmon` benchmarks.
//!
//! The criterion benches and the `paper_tables` binary both need trained
//! perception networks and sampled datasets; this module provides seeded,
//! size-parameterized fixtures so every benchmark is reproducible.

use napmon_data::racetrack::TrackConfig;
use napmon_eval::{Experiment, RacetrackConfig};
use napmon_nn::{Activation, LayerSpec, Network};
use napmon_tensor::Prng;

/// A small trained race-track experiment for latency benchmarks
/// (seconds to prepare; the full-scale variant lives in `paper_tables`).
pub fn bench_experiment() -> Experiment {
    Experiment::prepare(RacetrackConfig {
        train_size: 512,
        test_size: 256,
        ood_size: 64,
        hidden: vec![32, 16],
        epochs: 5,
        track: TrackConfig {
            height: 12,
            width: 12,
            ..TrackConfig::default()
        },
        ..RacetrackConfig::default()
    })
}

/// An untrained (random) network of the given hidden widths over `input`
/// dimensions — enough for propagation/throughput benches where training
/// does not change the cost profile.
pub fn random_network(seed: u64, input: usize, hidden: &[usize]) -> Network {
    let mut specs: Vec<LayerSpec> = hidden
        .iter()
        .map(|&w| LayerSpec::dense(w, Activation::Relu))
        .collect();
    specs.push(LayerSpec::dense(2, Activation::Identity));
    Network::seeded(seed, input, &specs)
}

/// `n` random inputs for the given network.
pub fn random_inputs(seed: u64, net: &Network, n: usize) -> Vec<Vec<f64>> {
    let mut rng = Prng::seed(seed);
    (0..n)
        .map(|_| rng.uniform_vec(net.input_dim(), 0.0, 1.0))
        .collect()
}

/// The golden-artifact fixture: one deterministic monitor deployment,
/// committed as `tests/golden_artifact.json` at the workspace root.
///
/// The committed file is the compatibility contract for
/// [`napmon_artifact::FORMAT_VERSION`]: `validate_artifact` (run in CI)
/// rebuilds this fixture, loads the committed file, and fails if the
/// current reader can no longer parse it or its verdicts drift from the
/// freshly built monitor. Two composite goldens sit next to it, a
/// multi-layer and a per-class deployment over the same network and
/// training set, so the serde shape of every composition is pinned too.
/// Regenerate all three (after an intentional format bump) with
/// `NAPMON_REGEN_GOLDEN=1 cargo run -p napmon-bench --bin
/// validate_artifact`.
pub mod golden {
    use napmon_absint::Domain;
    use napmon_artifact::MonitorArtifact;
    use napmon_core::{
        MonitorKind, MonitorSpec, PatternBackend, ThresholdPolicy, Vote, WatchedLayer,
    };
    use napmon_nn::{Activation, LayerSpec, Network};
    use napmon_tensor::Prng;

    /// The network the golden monitor is built against.
    pub fn network() -> Network {
        Network::seeded(
            2021,
            8,
            &[
                LayerSpec::dense(12, Activation::Relu),
                LayerSpec::dense(3, Activation::Identity),
            ],
        )
    }

    /// The golden training set.
    pub fn train() -> Vec<Vec<f64>> {
        let mut rng = Prng::seed(77);
        (0..64).map(|_| rng.uniform_vec(8, -1.0, 1.0)).collect()
    }

    /// Every golden fixture: its file name under `tests/` at the workspace
    /// root, and its spec.
    pub fn fixtures() -> Vec<(&'static str, MonitorSpec)> {
        vec![
            // A robust 2-bit interval monitor (BDD-backed, so the arena
            // serializer is part of the contract) at the last hidden
            // boundary.
            (
                "golden_artifact.json",
                MonitorSpec::new(2, MonitorKind::interval(2)).robust(0.05, 0, Domain::Box),
            ),
            // Robust hash-set pattern monitors with Hamming tolerance 1 at
            // the pre- and post-ReLU boundaries (the second restricted to a
            // neuron subset), combined by `AtLeast(1)`.
            (
                "golden_multi_layer.json",
                MonitorSpec::multi_layer(
                    vec![
                        WatchedLayer::whole(1),
                        WatchedLayer::subset(2, vec![0, 3, 5, 7, 11]),
                    ],
                    MonitorKind::pattern_with(ThresholdPolicy::Mean, PatternBackend::HashSet, 1),
                    Vote::AtLeast(1),
                )
                .robust(0.02, 0, Domain::Box),
            ),
            // An enlarged min-max monitor per output class at the
            // post-ReLU boundary.
            (
                "golden_per_class.json",
                MonitorSpec::new(2, MonitorKind::min_max_enlarged(0.1)).per_class(3),
            ),
        ]
    }

    /// Builds the golden artifact for `spec` from scratch over the golden
    /// network and training set (deterministic).
    pub fn build(spec: MonitorSpec) -> MonitorArtifact {
        MonitorArtifact::build(spec, &network(), &train()).expect("golden fixture builds")
    }

    /// The probe corpus the golden verdicts are pinned on: near-training
    /// and far-OOD inputs.
    pub fn probes() -> Vec<Vec<f64>> {
        let mut rng = Prng::seed(4242);
        let mut probes: Vec<Vec<f64>> = (0..48).map(|_| rng.uniform_vec(8, -1.0, 1.0)).collect();
        probes.extend((0..16).map(|_| rng.uniform_vec(8, -6.0, 6.0)));
        probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        let a = random_network(3, 8, &[6]);
        let b = random_network(3, 8, &[6]);
        assert_eq!(a, b);
        assert_eq!(random_inputs(1, &a, 4), random_inputs(1, &b, 4));
    }

    #[test]
    fn bench_experiment_prepares() {
        let e = bench_experiment();
        assert_eq!(e.network().input_dim(), 144);
    }
}
