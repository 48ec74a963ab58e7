//! Property tests for the paper's Lemma 1 — the provable-robustness claim.
//!
//! Lemma 1: if a robust monitor `M⟨G,k,kp,Δ⟩` warns on `v_op`, then there is
//! **no** training input `v_tr` with `|G^{kp}_j(v_op) − G^{kp}_j(v_tr)| ≤ Δ`
//! for all `j`. We test the contrapositive, which is how the guarantee is
//! used in practice: any operational input that *is* `Δ`-close (at boundary
//! `kp`) to some training input must not trigger a warning.

use napmon_absint::Domain;
use napmon_core::{Monitor, MonitorKind, MonitorSpec, QueryScratch};
use napmon_nn::{Activation, LayerSpec, Network};
use napmon_tensor::Prng;
use proptest::prelude::*;

fn network(seed: u64) -> Network {
    Network::seeded(
        seed,
        3,
        &[
            LayerSpec::dense(10, Activation::Relu),
            LayerSpec::dense(6, Activation::Relu),
            LayerSpec::dense(2, Activation::Identity),
        ],
    )
}

fn training_set(seed: u64, n: usize) -> Vec<Vec<f64>> {
    let mut rng = Prng::seed(seed);
    (0..n).map(|_| rng.uniform_vec(3, -1.0, 1.0)).collect()
}

/// All monitor kinds exercised against Lemma 1.
fn kinds() -> Vec<MonitorKind> {
    vec![
        MonitorKind::min_max(),
        MonitorKind::pattern(),
        MonitorKind::interval(2),
        MonitorKind::interval(3),
    ]
}

/// The sampled direction followed by the 8 sign vectors {−1, +1}³: the
/// corners of the Δ-box.
fn directions(sampled: &[f64]) -> Vec<Vec<f64>> {
    let corners = (0..8u32).map(|m| {
        (0..3)
            .map(|j| if m >> j & 1 == 1 { 1.0 } else { -1.0 })
            .collect()
    });
    std::iter::once(sampled.to_vec()).chain(corners).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Perturbation at the input layer (kp = 0): for every monitor family,
    /// every Δ-bounded input perturbation of a training point is accepted.
    /// Besides the sampled direction, each case probes the 8 corners of
    /// the Δ-box, where the Box bounds are tight, and answers every probe
    /// both per input and through the batched path the engine serves.
    #[test]
    fn lemma1_input_layer_perturbations(
        net_seed in 0u64..500,
        data_seed in 0u64..500,
        delta in 0.001f64..0.2,
        pick in 0usize..24,
        dir in proptest::collection::vec(-1.0f64..1.0, 3),
    ) {
        let net = network(net_seed);
        let data = training_set(data_seed, 24);
        for kind in kinds() {
            let monitor = MonitorSpec::new(4, kind.clone())
                .robust(delta, 0, Domain::Box)
                .build(&net, &data)
                .unwrap();
            let base = &data[pick % data.len()];
            let v_ops: Vec<Vec<f64>> = directions(&dir)
                .iter()
                .map(|d| base.iter().zip(d).map(|(b, d)| b + d * delta).collect())
                .collect();
            for v_op in &v_ops {
                prop_assert!(
                    !monitor.verdict(&net, v_op).unwrap().warning,
                    "{kind:?} warned on a Δ-close input {v_op:?} (Δ = {delta})"
                );
            }
            let mut batch = Vec::new();
            monitor
                .verdict_batch_scratch(&net, &v_ops, &mut QueryScratch::new(), &mut batch)
                .unwrap();
            prop_assert_eq!(batch.len(), v_ops.len());
            prop_assert!(
                batch.iter().all(|v| !v.warning),
                "{:?} batch path warned on a Δ-close input (Δ = {})", kind, delta
            );
        }
    }

    /// Perturbation at a hidden boundary (kp = 2): closeness is measured in
    /// feature space `G^{kp}`; we construct v_op = v_tr (exactly Δ-close for
    /// any Δ) plus check feature-space-perturbed queries via the feature
    /// interface.
    #[test]
    fn lemma1_hidden_boundary_perturbations(
        net_seed in 0u64..500,
        data_seed in 0u64..500,
        delta in 0.001f64..0.1,
        pick in 0usize..16,
        dir_seed in 0u64..1000,
    ) {
        let net = network(net_seed);
        let data = training_set(data_seed, 16);
        let kp = 2usize;
        let k = 4usize;
        for kind in kinds() {
            let monitor = MonitorSpec::new(k, kind.clone())
                .robust(delta, kp, Domain::Box)
                .build(&net, &data)
                .unwrap();
            // Perturb the layer-kp image directly and push it to layer k:
            // this is exactly the v̆ of Definition 1.
            let mut rng = Prng::seed(dir_seed);
            let at_kp = net.forward_prefix(&data[pick % data.len()], kp);
            let perturbed: Vec<f64> = at_kp.iter().map(|&v| v + rng.uniform(-delta, delta)).collect();
            let features = net.forward_range(&perturbed, kp, k);
            let member = monitor.as_single().unwrap();
            prop_assert!(
                !member.verdict_features_scratch(&features, &mut QueryScratch::new()).warning,
                "{kind:?} warned on a feature-space Δ-close point"
            );
        }
    }

    /// Monotonicity in Δ: a monitor built with a larger Δ accepts
    /// everything a smaller-Δ monitor accepts.
    #[test]
    fn robust_monitors_are_monotone_in_delta(
        net_seed in 0u64..200,
        data_seed in 0u64..200,
        d_small in 0.001f64..0.05,
        growth in 1.5f64..4.0,
        probe in proptest::collection::vec(-1.5f64..1.5, 3),
    ) {
        let net = network(net_seed);
        let data = training_set(data_seed, 16);
        let d_large = d_small * growth;
        for kind in kinds() {
            let small = MonitorSpec::new(4, kind.clone())
                .robust(d_small, 0, Domain::Box)
                .build(&net, &data)
                .unwrap();
            let large = MonitorSpec::new(4, kind.clone())
                .robust(d_large, 0, Domain::Box)
                .build(&net, &data)
                .unwrap();
            // If the small monitor accepts, the large one must too.
            if !small.verdict(&net, &probe).unwrap().warning {
                prop_assert!(
                    !large.verdict(&net, &probe).unwrap().warning,
                    "{kind:?} not monotone in Δ"
                );
            }
        }
    }

    /// Standard monitors are a special case: robust construction with
    /// Δ = 0 accepts exactly what the standard construction accepts
    /// (up to the outward rounding absorbed into the abstraction).
    #[test]
    fn zero_delta_matches_standard_on_training_data(
        net_seed in 0u64..200,
        data_seed in 0u64..200,
    ) {
        let net = network(net_seed);
        let data = training_set(data_seed, 16);
        for kind in kinds() {
            let standard = MonitorSpec::new(4, kind.clone()).build(&net, &data).unwrap();
            let zero = MonitorSpec::new(4, kind.clone())
                .robust(0.0, 0, Domain::Box)
                .build(&net, &data)
                .unwrap();
            for x in &data {
                prop_assert!(!standard.verdict(&net, x).unwrap().warning);
                prop_assert!(!zero.verdict(&net, x).unwrap().warning);
            }
        }
    }
}

/// Lemma 1 with the tighter domains: the guarantee is domain-independent.
#[test]
fn lemma1_holds_for_all_domains() {
    let net = network(77);
    let data = training_set(78, 12);
    let delta = 0.05;
    let mut rng = Prng::seed(79);
    for domain in Domain::ALL {
        let monitor = MonitorSpec::new(4, MonitorKind::pattern())
            .robust(delta, 0, domain)
            .build(&net, &data)
            .unwrap();
        for base in &data {
            for _ in 0..5 {
                let v_op: Vec<f64> = base
                    .iter()
                    .map(|&b| b + rng.uniform(-delta, delta))
                    .collect();
                assert!(
                    !monitor.verdict(&net, &v_op).unwrap().warning,
                    "{domain} violated Lemma 1"
                );
            }
        }
    }
}

/// The robustness/selectivity trade-off direction: robust monitors accept a
/// superset of the standard monitor's accepted patterns.
#[test]
fn robust_accepts_superset_of_standard() {
    let net = network(101);
    let data = training_set(102, 32);
    let mut rng = Prng::seed(103);
    for kind in kinds() {
        let standard = MonitorSpec::new(4, kind.clone())
            .build(&net, &data)
            .unwrap();
        let robust = MonitorSpec::new(4, kind.clone())
            .robust(0.08, 0, Domain::Box)
            .build(&net, &data)
            .unwrap();
        for _ in 0..200 {
            let probe = rng.uniform_vec(3, -2.0, 2.0);
            if !standard.verdict(&net, &probe).unwrap().warning {
                assert!(
                    !robust.verdict(&net, &probe).unwrap().warning,
                    "{kind:?}: robust warned where standard accepted"
                );
            }
        }
    }
}
