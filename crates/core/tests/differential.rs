//! Differential tests: every batched/parallel query path must be
//! **bit-identical** to the sequential scratch loop it fans out.
//!
//! Covers all monitor families × pattern backends (standard and robust
//! construction) and pinned worker counts 1/2/4, so a scheduling or
//! chunk-stitching bug in `fan_out_batch` — or any scratch-reuse bug that
//! lets one query's state leak into the next — cannot land silently.

use napmon_absint::Domain;
use napmon_core::{
    Monitor, MonitorKind, MonitorSpec, PatternBackend, QueryScratch, ThresholdPolicy, Verdict,
    Vote, WatchedLayer,
};
use napmon_nn::{Activation, LayerSpec, Network};
use napmon_tensor::Prng;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn net() -> Network {
    Network::seeded(
        77,
        5,
        &[
            LayerSpec::dense(14, Activation::Relu),
            LayerSpec::dense(8, Activation::Relu),
            LayerSpec::dense(3, Activation::Identity),
        ],
    )
}

fn train_data(n: usize) -> Vec<Vec<f64>> {
    let mut rng = Prng::seed(500);
    (0..n).map(|_| rng.uniform_vec(5, -0.8, 0.8)).collect()
}

/// Mixed traffic: in-distribution probes plus out-of-distribution outliers,
/// so both the all-clear and the warning (evidence-building) paths run.
fn probes(n: usize) -> Vec<Vec<f64>> {
    let mut rng = Prng::seed(900);
    (0..n)
        .map(|i| {
            if i % 5 == 4 {
                rng.uniform_vec(5, 5.0, 9.0)
            } else {
                rng.uniform_vec(5, -1.0, 1.0)
            }
        })
        .collect()
}

/// Every MonitorKind × PatternBackend combination.
fn all_kinds() -> Vec<(String, MonitorKind)> {
    let mut kinds = vec![
        ("min-max".to_string(), MonitorKind::min_max()),
        (
            "min-max gamma=0.1".to_string(),
            MonitorKind::min_max_enlarged(0.1),
        ),
        ("interval 2-bit".to_string(), MonitorKind::interval(2)),
        ("interval 3-bit".to_string(), MonitorKind::interval(3)),
    ];
    for backend in [PatternBackend::Bdd, PatternBackend::HashSet] {
        for hamming in [0usize, 1] {
            kinds.push((
                format!("pattern {backend:?} hamming={hamming}"),
                MonitorKind::pattern_with(ThresholdPolicy::Mean, backend, hamming),
            ));
        }
    }
    kinds
}

/// The reference: one scratch, one thread, one query at a time.
fn sequential_reference<M: Monitor + ?Sized>(
    monitor: &M,
    net: &Network,
    inputs: &[Vec<f64>],
) -> Vec<Verdict> {
    let mut scratch = QueryScratch::new();
    inputs
        .iter()
        .map(|x| monitor.verdict_scratch(net, x, &mut scratch).unwrap())
        .collect()
}

#[test]
fn parallel_verdicts_are_bit_identical_to_sequential() {
    let net = net();
    let train = train_data(128);
    let inputs = probes(120);
    for (name, kind) in all_kinds() {
        let monitor = MonitorSpec::new(4, kind).build(&net, &train).unwrap();
        let expected = sequential_reference(&monitor, &net, &inputs);
        assert_eq!(
            monitor.query_batch(&net, &inputs).unwrap(),
            expected,
            "{name}: query_batch diverged"
        );
        for shards in SHARD_COUNTS {
            assert_eq!(
                monitor
                    .query_batch_parallel_with(&net, &inputs, shards)
                    .unwrap(),
                expected,
                "{name}: parallel with {shards} worker(s) diverged"
            );
        }
        let machine_width = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(
            monitor
                .query_batch_parallel_with(&net, &inputs, machine_width)
                .unwrap(),
            expected,
            "{name}: machine-width parallel diverged"
        );
    }
}

#[test]
fn robust_construction_keeps_parallel_parity() {
    let net = net();
    let train = train_data(64);
    let inputs = probes(60);
    for (name, kind) in all_kinds() {
        let monitor = MonitorSpec::new(4, kind)
            .robust(0.03, 0, Domain::Box)
            .build(&net, &train)
            .unwrap();
        let expected = sequential_reference(&monitor, &net, &inputs);
        for shards in SHARD_COUNTS {
            assert_eq!(
                monitor
                    .query_batch_parallel_with(&net, &inputs, shards)
                    .unwrap(),
                expected,
                "robust {name}: parallel with {shards} worker(s) diverged"
            );
        }
    }
}

#[test]
fn composite_monitors_keep_parallel_parity() {
    let net = net();
    let train = train_data(96);
    let inputs = probes(80);
    for vote in [Vote::Any, Vote::All, Vote::AtLeast(2)] {
        let multi = MonitorSpec::multi_layer(
            vec![WatchedLayer::whole(2), WatchedLayer::whole(4)],
            MonitorKind::pattern(),
            vote,
        )
        .build(&net, &train)
        .unwrap();
        let expected: Vec<Verdict> = {
            let mut scratch = QueryScratch::new();
            inputs
                .iter()
                .map(|x| multi.verdict_scratch(&net, x, &mut scratch).unwrap())
                .collect()
        };
        for shards in SHARD_COUNTS {
            assert_eq!(
                multi
                    .query_batch_parallel_with(&net, &inputs, shards)
                    .unwrap(),
                expected,
                "{vote:?} multi-layer: parallel with {shards} worker(s) diverged"
            );
        }
    }

    // Round-robin labels guarantee every class is populated regardless of
    // what the seeded network happens to predict, so this branch can never
    // silently skip. (Labels only partition the training data; queries
    // dispatch on the network's own predicted class either way.)
    let classes = net.output_dim();
    let labels: Vec<usize> = (0..train.len()).map(|i| i % classes).collect();
    let per_class = MonitorSpec::new(4, MonitorKind::pattern())
        .per_class(classes)
        .build_with_labels(&net, &train, &labels)
        .unwrap();
    let expected: Vec<Verdict> = {
        let mut scratch = QueryScratch::new();
        inputs
            .iter()
            .map(|x| per_class.verdict_scratch(&net, x, &mut scratch).unwrap())
            .collect()
    };
    for shards in SHARD_COUNTS {
        assert_eq!(
            per_class
                .query_batch_parallel_with(&net, &inputs, shards)
                .unwrap(),
            expected,
            "per-class: parallel with {shards} worker(s) diverged"
        );
    }
}
