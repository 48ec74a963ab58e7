//! The classification experiment (E2): per-class pattern monitoring on the
//! glyph dataset — the setup of the DATE 2019 predecessor paper (per-class
//! pattern sets on MNIST/GTSRB), with this paper's robust construction
//! applied on top.

use crate::metrics::warn_rate;
use napmon_core::{MonitorKind, MonitorSpec, RobustConfig};
use napmon_data::shapes::{Glyph, ShapesConfig};
use napmon_data::Dataset;
use napmon_nn::{accuracy, Activation, LayerSpec, Loss, Network, Optimizer, Trainer};
use napmon_tensor::Prng;
use serde::Serialize;
use std::time::Instant;

/// Configuration of the glyph-classification pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapesExperimentConfig {
    /// Master seed.
    pub seed: u64,
    /// Renderer settings.
    pub shapes: ShapesConfig,
    /// Training samples per class.
    pub per_class_train: usize,
    /// Held-out in-distribution test samples per class.
    pub per_class_test: usize,
    /// Out-of-distribution inputs (stars + inverted glyphs).
    pub ood_size: usize,
    /// Hidden dense layer widths (ReLU).
    pub hidden: Vec<usize>,
    /// Training epochs.
    pub epochs: usize,
}

impl Default for ShapesExperimentConfig {
    fn default() -> Self {
        Self {
            seed: 2019,
            shapes: ShapesConfig::default(),
            per_class_train: 150,
            per_class_test: 50,
            ood_size: 200,
            hidden: vec![32, 16],
            epochs: 15,
        }
    }
}

impl ShapesExperimentConfig {
    /// The full-scale configuration `paper_tables --full` runs.
    pub fn paper_scale() -> Self {
        Self {
            per_class_train: 500,
            per_class_test: 250,
            ood_size: 1000,
            hidden: vec![48, 24],
            epochs: 25,
            ..Self::default()
        }
    }
}

/// One evaluated per-class monitor.
#[derive(Debug, Clone, Serialize)]
pub struct PerClassRow {
    /// Monitor description.
    pub name: String,
    /// False-positive rate on held-out in-distribution data.
    pub fp_rate: f64,
    /// Detection rate on OOD glyphs.
    pub detection: f64,
    /// Construction wall-clock seconds.
    pub build_seconds: f64,
}

/// A prepared classification experiment.
#[derive(Debug, Clone)]
pub struct ShapesExperiment {
    net: Network,
    train: Dataset,
    test: Dataset,
    ood: Vec<Vec<f64>>,
    accuracy: f64,
}

impl ShapesExperiment {
    /// Samples data, trains the classifier, stages OOD inputs.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (zero sizes, no hidden layers).
    pub fn prepare(config: ShapesExperimentConfig) -> Self {
        assert!(
            config.per_class_train > 0 && config.per_class_test > 0 && config.ood_size > 0,
            "zero-sized dataset"
        );
        assert!(!config.hidden.is_empty(), "need at least one hidden layer");
        let mut rng = Prng::seed(config.seed);
        let train = config.shapes.dataset(config.per_class_train, &mut rng);
        let test = config.shapes.dataset(config.per_class_test, &mut rng);
        let ood = config.shapes.ood_inputs(config.ood_size, &mut rng);

        let mut specs: Vec<LayerSpec> = config
            .hidden
            .iter()
            .map(|&w| LayerSpec::dense(w, Activation::Relu))
            .collect();
        specs.push(LayerSpec::dense(Glyph::ALL.len(), Activation::Identity));
        let mut net = Network::seeded(config.seed ^ 0x5A9E5, config.shapes.input_dim(), &specs);
        Trainer::new(Loss::SoftmaxCrossEntropy, Optimizer::adam(0.004))
            .batch_size(32)
            .epochs(config.epochs)
            .run(
                &mut net,
                &train.inputs,
                &train.targets,
                config.seed ^ 0x7EAC,
            );
        let acc = accuracy(&net, &test.inputs, &test.targets);
        Self {
            net,
            train,
            test,
            ood,
            accuracy: acc,
        }
    }

    /// The trained classifier.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Held-out classification accuracy (substrate sanity).
    pub fn accuracy(&self) -> f64 {
        self.accuracy
    }

    /// Builds and evaluates one per-class monitor configuration.
    pub fn run_per_class(
        &self,
        name: &str,
        kind: MonitorKind,
        robust: Option<RobustConfig>,
    ) -> PerClassRow {
        let mut spec = MonitorSpec::new(self.net.penultimate_boundary(), kind)
            .per_class(Glyph::ALL.len())
            .parallel(true);
        if let Some(r) = robust {
            spec = spec.robust_config(r);
        }
        let labels = self.train.labels.as_ref().expect("classification dataset");
        let start = Instant::now();
        let monitor = spec
            .build_with_labels(&self.net, &self.train.inputs, labels)
            .expect("valid per-class configuration");
        let build_seconds = start.elapsed().as_secs_f64();
        PerClassRow {
            name: name.to_string(),
            fp_rate: warn_rate(&monitor, &self.net, &self.test.inputs),
            detection: warn_rate(&monitor, &self.net, &self.ood),
            build_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use napmon_absint::Domain;
    use napmon_core::{PatternBackend, ThresholdPolicy};

    fn tiny() -> ShapesExperiment {
        ShapesExperiment::prepare(ShapesExperimentConfig {
            per_class_train: 30,
            per_class_test: 15,
            ood_size: 40,
            hidden: vec![16, 8],
            epochs: 8,
            shapes: ShapesConfig {
                side: 10,
                noise: 0.03,
            },
            ..ShapesExperimentConfig::default()
        })
    }

    #[test]
    fn classifier_learns_the_glyphs() {
        let e = tiny();
        assert!(e.accuracy() > 0.8, "accuracy {}", e.accuracy());
    }

    #[test]
    fn per_class_monitors_detect_more_than_they_false_alarm() {
        let e = tiny();
        let kind = MonitorKind::pattern_with(ThresholdPolicy::Mean, PatternBackend::Bdd, 0);
        let row = e.run_per_class("std", kind, None);
        assert!((0.0..=1.0).contains(&row.fp_rate));
        assert!(
            row.detection > row.fp_rate,
            "detection {} <= fp {}",
            row.detection,
            row.fp_rate
        );
    }

    #[test]
    fn robust_per_class_reduces_fp() {
        let e = tiny();
        let kind = MonitorKind::pattern_with(ThresholdPolicy::Mean, PatternBackend::Bdd, 0);
        let std = e.run_per_class("std", kind.clone(), None);
        let rob = e.run_per_class(
            "rob",
            kind,
            Some(RobustConfig {
                delta: 0.002,
                kp: 0,
                domain: Domain::Box,
            }),
        );
        assert!(
            rob.fp_rate <= std.fp_rate + 1e-12,
            "robust fp {} > std fp {}",
            rob.fp_rate,
            std.fp_rate
        );
    }
}
