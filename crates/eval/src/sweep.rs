//! Parameter sweeps: the ablation experiments A1–A4.

use crate::experiment::{Experiment, MonitorRow};
use crate::metrics::warn_rate;
use napmon_absint::{propagate::Propagator, BoxBounds, Domain};
use napmon_core::{MonitorKind, MonitorSpec, RobustConfig, ThresholdPolicy};
use serde::Serialize;
use std::time::Instant;

/// One Δ-sweep point (experiment A1).
#[derive(Debug, Clone, Serialize)]
pub struct DeltaPoint {
    /// Perturbation budget.
    pub delta: f64,
    /// False-positive rate at this Δ.
    pub fp_rate: f64,
    /// Mean detection rate across scenarios at this Δ.
    pub mean_detection: f64,
    /// Pattern coverage, when applicable.
    pub coverage: Option<f64>,
}

/// Sweeps the robust construction over `deltas` for one monitor family
/// (experiment A1). `delta = 0` rows are effectively the standard monitor.
pub fn delta_sweep(
    exp: &Experiment,
    kind: MonitorKind,
    deltas: &[f64],
    kp: usize,
    domain: Domain,
) -> Vec<DeltaPoint> {
    deltas
        .iter()
        .map(|&delta| {
            let row = if delta == 0.0 {
                exp.run_monitor("sweep", kind.clone(), None)
            } else {
                exp.run_monitor(
                    "sweep",
                    kind.clone(),
                    Some(RobustConfig { delta, kp, domain }),
                )
            };
            DeltaPoint {
                delta,
                fp_rate: row.fp_rate,
                mean_detection: row.mean_detection(),
                coverage: row.coverage,
            }
        })
        .collect()
}

/// Picks the paper's "optimal case": among the *robust* points (Δ > 0),
/// the one with the lowest false-positive rate whose detection stays
/// within `tolerance` of the standard monitor's (the first point, which is
/// expected to be the Δ = 0 / standard baseline). When no robust point
/// keeps detection, falls back to the robust point with the best
/// detection — a widened monitor is still preferable to none, and the
/// trade-off is visible in the sweep table either way.
///
/// # Panics
///
/// Panics if `points` contains no Δ > 0 entry.
pub fn pick_operating_point(points: &[DeltaPoint], tolerance: f64) -> &DeltaPoint {
    let robust: Vec<&DeltaPoint> = points.iter().filter(|p| p.delta > 0.0).collect();
    assert!(
        !robust.is_empty(),
        "sweep needs at least one positive-Δ point"
    );
    let baseline = points[0].mean_detection;
    robust
        .iter()
        .filter(|p| p.mean_detection >= baseline - tolerance)
        .min_by(|a, b| a.fp_rate.partial_cmp(&b.fp_rate).expect("rates are finite"))
        .copied()
        .unwrap_or_else(|| {
            robust
                .iter()
                .max_by(|a, b| {
                    a.mean_detection
                        .partial_cmp(&b.mean_detection)
                        .expect("rates are finite")
                })
                .copied()
                .expect("non-empty robust set")
        })
}

/// One kp-sweep row (experiment A2).
#[derive(Debug, Clone, Serialize)]
pub struct KpPoint {
    /// Perturbation boundary.
    pub kp: usize,
    /// Evaluated row.
    pub row: MonitorRow,
}

/// Sweeps the perturbation boundary `kp` (experiment A2).
pub fn kp_sweep(
    exp: &Experiment,
    kind: MonitorKind,
    kps: &[usize],
    delta: f64,
    domain: Domain,
) -> Vec<KpPoint> {
    kps.iter()
        .map(|&kp| KpPoint {
            kp,
            row: exp.run_monitor(
                &format!("kp={kp}"),
                kind.clone(),
                Some(RobustConfig { delta, kp, domain }),
            ),
        })
        .collect()
}

/// One bits-per-neuron row (experiment A3).
#[derive(Debug, Clone, Serialize)]
pub struct BitsPoint {
    /// Bits per monitored neuron.
    pub bits: usize,
    /// Standard-construction row.
    pub standard: MonitorRow,
    /// Robust-construction row.
    pub robust: MonitorRow,
}

/// Sweeps the interval-monitor bit width (experiment A3).
pub fn bits_sweep(
    exp: &Experiment,
    bits_list: &[usize],
    delta: f64,
    domain: Domain,
) -> Vec<BitsPoint> {
    bits_list
        .iter()
        .map(|&bits| BitsPoint {
            bits,
            standard: exp.run_monitor(
                &format!("{bits}-bit standard"),
                MonitorKind::interval(bits),
                None,
            ),
            robust: exp.run_monitor(
                &format!("{bits}-bit robust"),
                MonitorKind::interval(bits),
                Some(RobustConfig {
                    delta,
                    kp: 0,
                    domain,
                }),
            ),
        })
        .collect()
}

/// One abstract-domain comparison row (experiment A4).
#[derive(Debug, Clone, Serialize)]
pub struct DomainPoint {
    /// Domain name.
    pub domain: String,
    /// Mean bound width at the monitored boundary, averaged over samples.
    pub mean_width: f64,
    /// Mean per-sample propagation time in microseconds.
    pub micros_per_sample: f64,
    /// Downstream false-positive rate of a robust pattern monitor built
    /// with this domain; `None` when the build was skipped (the star
    /// domain's per-sample LP cost makes a full build impractical on small
    /// machines).
    pub fp_rate: Option<f64>,
}

/// Compares the abstract domains of Definition 1 (experiment A4):
/// tightness of the perturbation estimate, propagation cost, and the
/// downstream FP rate of the resulting robust monitor.
///
/// Monitors are built over at most 96 training samples per domain (the
/// star domain solves two LPs per unstable neuron per sample; the cap
/// keeps the comparison tractable and identical across domains, and the
/// resulting FP column is therefore a *relative* signal, not an absolute
/// rate).
pub fn domain_comparison(exp: &Experiment, delta: f64, samples: usize) -> Vec<DomainPoint> {
    let net = exp.network();
    let layer = exp.monitored_boundary();
    let probe: Vec<&Vec<f64>> = exp.train_data().inputs.iter().take(samples).collect();
    let build_cap = exp.train_data().inputs.len().min(96);
    let build_set = &exp.train_data().inputs[..build_cap];
    Domain::ALL
        .iter()
        .map(|&domain| {
            // The star domain solves LPs per unstable neuron: probe fewer
            // samples and skip the monitor build entirely.
            let is_star = domain == Domain::Star;
            let probe = if is_star {
                &probe[..probe.len().min(4)]
            } else {
                &probe[..]
            };
            let prop = Propagator::new(net, domain);
            let start = Instant::now();
            let mut width_sum = 0.0;
            for x in probe {
                let at0 = BoxBounds::from_center_radius(x, delta);
                width_sum += prop.bounds(0, layer, &at0).mean_width();
            }
            let micros = start.elapsed().as_micros() as f64 / probe.len() as f64;
            let fp = (!is_star).then(|| {
                let monitor = MonitorSpec::new(layer, MonitorKind::pattern())
                    .robust(delta, 0, domain)
                    .parallel(true)
                    .build(net, build_set)
                    .expect("valid domain comparison configuration");
                warn_rate(&monitor, net, &exp.test_data().inputs)
            });
            DomainPoint {
                domain: domain.name().to_string(),
                mean_width: width_sum / probe.len() as f64,
                micros_per_sample: micros,
                fp_rate: fp,
            }
        })
        .collect()
}

/// One threshold-policy comparison row (supplementary ablation).
#[derive(Debug, Clone, Serialize)]
pub struct PolicyPoint {
    /// Policy name.
    pub policy: String,
    /// Evaluated row.
    pub row: MonitorRow,
}

/// Compares threshold policies for the on-off monitor.
pub fn policy_comparison(exp: &Experiment) -> Vec<PolicyPoint> {
    [
        ("sign", ThresholdPolicy::Sign),
        ("mean", ThresholdPolicy::Mean),
    ]
    .into_iter()
    .map(|(name, policy)| PolicyPoint {
        policy: name.to_string(),
        row: exp.run_monitor(
            name,
            MonitorKind::pattern_with(policy, napmon_core::PatternBackend::Bdd, 0),
            None,
        ),
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::RacetrackConfig;
    use napmon_data::racetrack::TrackConfig;

    fn tiny() -> Experiment {
        Experiment::prepare(RacetrackConfig {
            train_size: 40,
            test_size: 40,
            ood_size: 12,
            hidden: vec![10, 6],
            epochs: 2,
            track: TrackConfig {
                height: 6,
                width: 6,
                ..TrackConfig::default()
            },
            ..RacetrackConfig::default()
        })
    }

    #[test]
    fn delta_sweep_fp_is_monotone_nonincreasing() {
        let e = tiny();
        let points = delta_sweep(
            &e,
            MonitorKind::pattern(),
            &[0.0, 0.01, 0.05, 0.2],
            0,
            Domain::Box,
        );
        assert_eq!(points.len(), 4);
        for w in points.windows(2) {
            assert!(
                w[1].fp_rate <= w[0].fp_rate + 1e-12,
                "fp went up with delta: {} -> {}",
                w[0].fp_rate,
                w[1].fp_rate
            );
        }
    }

    #[test]
    fn coverage_grows_with_delta() {
        let e = tiny();
        let points = delta_sweep(&e, MonitorKind::pattern(), &[0.0, 0.1], 0, Domain::Box);
        let c0 = points[0].coverage.unwrap();
        let c1 = points[1].coverage.unwrap();
        assert!(c1 >= c0);
    }

    #[test]
    fn operating_point_respects_detection_tolerance() {
        let points = vec![
            DeltaPoint {
                delta: 0.0,
                fp_rate: 0.10,
                mean_detection: 0.9,
                coverage: None,
            },
            DeltaPoint {
                delta: 0.1,
                fp_rate: 0.02,
                mean_detection: 0.89,
                coverage: None,
            },
            DeltaPoint {
                delta: 0.5,
                fp_rate: 0.00,
                mean_detection: 0.2,
                coverage: None,
            },
        ];
        let best = pick_operating_point(&points, 0.05);
        assert_eq!(
            best.delta, 0.1,
            "the huge-delta point kills detection and must be skipped"
        );
    }

    #[test]
    fn operating_point_never_returns_the_standard_baseline() {
        let points = vec![
            DeltaPoint {
                delta: 0.0,
                fp_rate: 0.01,
                mean_detection: 0.9,
                coverage: None,
            },
            DeltaPoint {
                delta: 0.1,
                fp_rate: 0.30,
                mean_detection: 0.5,
                coverage: None,
            },
            DeltaPoint {
                delta: 0.2,
                fp_rate: 0.00,
                mean_detection: 0.4,
                coverage: None,
            },
        ];
        // No robust point keeps detection: fall back to best-detection robust.
        let best = pick_operating_point(&points, 0.02);
        assert_eq!(best.delta, 0.1);
    }

    #[test]
    fn kp_sweep_covers_requested_boundaries() {
        let e = tiny();
        let points = kp_sweep(&e, MonitorKind::min_max(), &[0, 2], 0.02, Domain::Box);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].kp, 0);
        assert_eq!(points[1].kp, 2);
    }

    #[test]
    fn bits_sweep_reports_both_constructions() {
        let e = tiny();
        let points = bits_sweep(&e, &[1, 2], 0.02, Domain::Box);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.robust.fp_rate <= p.standard.fp_rate + 1e-12);
            assert!(p.standard.coverage.is_some());
        }
    }

    #[test]
    fn domain_comparison_orders_tightness() {
        let e = tiny();
        let rows = domain_comparison(&e, 0.02, 8);
        assert_eq!(rows.len(), 4);
        let find = |n: &str| rows.iter().find(|r| r.domain == n).unwrap();
        let (b, z, p, s) = (find("box"), find("zonotope"), find("poly"), find("star"));
        assert!(z.mean_width <= b.mean_width + 1e-9);
        assert!(p.mean_width <= b.mean_width + 1e-9);
        assert!(s.mean_width <= b.mean_width + 1e-6);
        for r in &rows {
            assert!(r.micros_per_sample > 0.0);
            if r.domain != "star" {
                assert!(r.fp_rate.is_some());
            }
        }
    }

    #[test]
    fn policy_comparison_runs_both_policies() {
        let e = tiny();
        let rows = policy_comparison(&e);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| (0.0..=1.0).contains(&r.row.fp_rate)));
    }
}
