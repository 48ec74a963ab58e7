//! Warning-rate measurement.

use napmon_core::Monitor;
use napmon_nn::Network;

/// Fraction of `inputs` on which the monitor warns.
///
/// Against in-ODD data this is the **false-positive rate** (the paper's
/// headline metric); against out-of-ODD data it is the **detection rate**.
///
/// # Panics
///
/// Panics if `inputs` is empty or any input has the wrong dimension.
pub fn warn_rate<M: Monitor + ?Sized>(monitor: &M, net: &Network, inputs: &[Vec<f64>]) -> f64 {
    assert!(!inputs.is_empty(), "warn_rate over an empty input set");
    let warnings = inputs
        .iter()
        .filter(|x| {
            monitor
                .verdict(net, x)
                .expect("inputs must match the network dimension")
                .warning
        })
        .count();
    warnings as f64 / inputs.len() as f64
}

/// Mean per-query wall-clock time of the monitor in nanoseconds.
///
/// # Panics
///
/// Panics if `inputs` is empty.
pub fn mean_query_nanos<M: Monitor + ?Sized>(
    monitor: &M,
    net: &Network,
    inputs: &[Vec<f64>],
) -> f64 {
    assert!(!inputs.is_empty(), "timing over an empty input set");
    let start = std::time::Instant::now();
    let mut warned = 0usize;
    for x in inputs {
        if monitor
            .verdict(net, x)
            .expect("inputs must match the network dimension")
            .warning
        {
            warned += 1;
        }
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    // Keep the count observable so the loop cannot be optimized away.
    std::hint::black_box(warned);
    elapsed / inputs.len() as f64
}

/// Out-of-abstraction scores of a [`napmon_core::ScoredMonitor`] over an
/// input set.
///
/// # Panics
///
/// Panics if any input has the wrong dimension.
pub fn scores<M: napmon_core::ScoredMonitor + ?Sized>(
    monitor: &M,
    net: &Network,
    inputs: &[Vec<f64>],
) -> Vec<f64> {
    inputs
        .iter()
        .map(|x| {
            let features = monitor
                .extractor()
                .features(net, x)
                .expect("inputs must match the network");
            monitor.score_features(&features)
        })
        .collect()
}

/// One point of a receiver-operating-characteristic curve.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct RocPoint {
    /// Score threshold (warn when `score > threshold`).
    pub threshold: f64,
    /// False-positive rate at this threshold (in-distribution flagged).
    pub fpr: f64,
    /// True-positive rate at this threshold (out-of-distribution flagged).
    pub tpr: f64,
}

/// ROC curve of a quantitative monitor: `negative_scores` from
/// in-distribution data, `positive_scores` from OOD data. Points are
/// ordered by descending threshold (so FPR ascends).
///
/// # Panics
///
/// Panics if either score set is empty.
pub fn roc(negative_scores: &[f64], positive_scores: &[f64]) -> Vec<RocPoint> {
    assert!(
        !negative_scores.is_empty() && !positive_scores.is_empty(),
        "roc needs both score sets"
    );
    let mut thresholds: Vec<f64> = negative_scores
        .iter()
        .chain(positive_scores)
        .cloned()
        .collect();
    thresholds.sort_by(|a, b| b.partial_cmp(a).expect("scores are finite"));
    thresholds.dedup();
    let mut points = Vec::with_capacity(thresholds.len() + 1);
    // The "warn on everything" end of the curve.
    for &t in thresholds.iter().chain(std::iter::once(&f64::NEG_INFINITY)) {
        let fpr = negative_scores.iter().filter(|&&s| s > t).count() as f64
            / negative_scores.len() as f64;
        let tpr = positive_scores.iter().filter(|&&s| s > t).count() as f64
            / positive_scores.len() as f64;
        points.push(RocPoint {
            threshold: t,
            fpr,
            tpr,
        });
    }
    points
}

/// Area under a ROC curve produced by [`roc`] (trapezoidal rule).
///
/// # Panics
///
/// Panics if `points` has fewer than two entries.
pub fn auc(points: &[RocPoint]) -> f64 {
    assert!(points.len() >= 2, "auc needs at least two roc points");
    let mut area = 0.0;
    for w in points.windows(2) {
        area += (w[1].fpr - w[0].fpr) * 0.5 * (w[0].tpr + w[1].tpr);
    }
    area
}

#[cfg(test)]
mod tests {
    use super::*;
    use napmon_core::{MonitorKind, MonitorSpec};
    use napmon_nn::{Activation, LayerSpec, Network};
    use napmon_tensor::Prng;

    fn setup() -> (Network, Vec<Vec<f64>>) {
        let net = Network::seeded(3, 2, &[LayerSpec::dense(4, Activation::Relu)]);
        let mut rng = Prng::seed(5);
        let data: Vec<Vec<f64>> = (0..32).map(|_| rng.uniform_vec(2, -0.5, 0.5)).collect();
        (net, data)
    }

    #[test]
    fn training_data_has_zero_warn_rate() {
        let (net, data) = setup();
        let m = MonitorSpec::new(2, MonitorKind::min_max())
            .build(&net, &data)
            .unwrap();
        assert_eq!(warn_rate(&m, &net, &data), 0.0);
    }

    #[test]
    fn far_data_has_full_warn_rate() {
        let (net, data) = setup();
        let m = MonitorSpec::new(2, MonitorKind::min_max())
            .build(&net, &data)
            .unwrap();
        let far: Vec<Vec<f64>> = (0..8).map(|i| vec![100.0 + i as f64, -100.0]).collect();
        assert_eq!(warn_rate(&m, &net, &far), 1.0);
    }

    #[test]
    fn partial_rates_are_fractions() {
        let (net, data) = setup();
        let m = MonitorSpec::new(2, MonitorKind::min_max())
            .build(&net, &data)
            .unwrap();
        let mut mixed = data[..4].to_vec();
        mixed.push(vec![100.0, -100.0]);
        assert!((warn_rate(&m, &net, &mixed) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn query_timing_is_positive() {
        let (net, data) = setup();
        let m = MonitorSpec::new(2, MonitorKind::pattern())
            .build(&net, &data)
            .unwrap();
        assert!(mean_query_nanos(&m, &net, &data) > 0.0);
    }

    #[test]
    #[should_panic(expected = "empty input set")]
    fn empty_input_set_panics() {
        let (net, data) = setup();
        let m = MonitorSpec::new(2, MonitorKind::min_max())
            .build(&net, &data)
            .unwrap();
        warn_rate(&m, &net, &[]);
    }

    #[test]
    fn perfect_separation_gives_unit_auc() {
        let neg = vec![0.0, 0.0, 0.1];
        let pos = vec![1.0, 2.0, 3.0];
        let curve = roc(&neg, &pos);
        assert!((auc(&curve) - 1.0).abs() < 1e-12, "auc {}", auc(&curve));
    }

    #[test]
    fn identical_scores_give_half_auc() {
        let neg = vec![0.5; 10];
        let pos = vec![0.5; 10];
        let curve = roc(&neg, &pos);
        assert!((auc(&curve) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn roc_endpoints_span_the_unit_square() {
        let neg = vec![0.0, 1.0, 2.0];
        let pos = vec![1.5, 2.5];
        let curve = roc(&neg, &pos);
        let first = curve.first().unwrap();
        let last = curve.last().unwrap();
        assert_eq!((first.fpr, first.tpr), (0.0, 0.0));
        assert_eq!((last.fpr, last.tpr), (1.0, 1.0));
        // FPR is non-decreasing along the curve.
        assert!(curve.windows(2).all(|w| w[0].fpr <= w[1].fpr));
    }

    #[test]
    fn monitor_scores_separate_near_from_far() {
        let (net, data) = setup();
        let built = MonitorSpec::new(2, MonitorKind::min_max())
            .build(&net, &data)
            .unwrap();
        let m = built.as_single().unwrap();
        let far: Vec<Vec<f64>> = (0..8).map(|i| vec![50.0 + i as f64, -50.0]).collect();
        let neg = scores(m, &net, &data);
        let pos = scores(m, &net, &far);
        let curve = roc(&neg, &pos);
        assert!(auc(&curve) > 0.99, "auc {}", auc(&curve));
    }
}
