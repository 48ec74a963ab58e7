//! End-to-end query throughput of the packed-bitword pipeline.
//!
//! Measures queries/sec for the HashSet and BDD pattern backends at 10, 40,
//! and 100 monitored neurons, against a **naive `Vec<bool>` baseline
//! measured in the same run** — a faithful reimplementation of the seed's
//! membership path (one `Vec<bool>` allocation per query, SipHash set /
//! unpacked BDD walk). Three numbers per configuration:
//!
//! - `membership`: abstraction + set membership only (features
//!   precomputed) — the path the packed rewrite targets;
//! - `end_to_end`: forward pass + abstraction + membership through
//!   `query_batch` (single thread, reused scratch);
//! - `end_to_end_parallel`: the same through `query_batch_parallel_with`
//!   at the machine's core count.
//!
//! Results are written to `BENCH_query.json` at the workspace root so later
//! PRs can track the trajectory. Set `NAPMON_BENCH_SMOKE=1` for a
//! seconds-long smoke pass that still writes the full JSON schema (CI
//! validates it).

use napmon_bdd::{Bdd, BitSliceSet, BitWord, NodeId};
use napmon_core::{
    FeatureExtractor, Monitor, MonitorKind, MonitorSpec, PatternBackend, PatternMonitor,
    ThresholdPolicy,
};
use napmon_nn::Network;
use napmon_tensor::Prng;
use serde::Serialize;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

const NEURON_COUNTS: [usize; 3] = [10, 40, 100];
const TRAIN_SIZE: usize = 256;
const PROBE_COUNT: usize = 512;
const INPUT_DIM: usize = 16;

/// Hamming-ball matrix: word widths model the store's monitor kinds
/// (48 monitored neurons at 1/2/3 bits per neuron) — the regime where
/// tolerance queries scan large pattern sets rather than saturating the
/// pattern space.
const HAMMING_WIDTHS: [usize; 3] = [48, 96, 144];
const HAMMING_PATTERNS: usize = 8192;
const HAMMING_TAU: usize = 2;
const HAMMING_BATCH: usize = 256;

/// Naive membership baseline: the seed's exact query shape. One heap
/// `Vec<bool>` per query, std SipHash for the set backend, unpacked BDD
/// walk for the BDD backend.
enum NaiveStore {
    Hash(HashSet<Vec<bool>>),
    Bdd { bdd: Bdd, root: NodeId },
}

struct NaiveMonitor {
    thresholds: Vec<f64>,
    store: NaiveStore,
}

impl NaiveMonitor {
    fn from_packed(
        monitor: &PatternMonitor,
        backend: PatternBackend,
        train_features: &[Vec<f64>],
    ) -> Self {
        let thresholds = monitor.thresholds().to_vec();
        let abstract_word = |features: &[f64]| -> Vec<bool> {
            features
                .iter()
                .zip(&thresholds)
                .map(|(v, c)| v > c)
                .collect()
        };
        let store = match backend {
            PatternBackend::HashSet => {
                let mut set = HashSet::new();
                for f in train_features {
                    set.insert(abstract_word(f));
                }
                NaiveStore::Hash(set)
            }
            PatternBackend::Bdd => {
                let mut bdd = Bdd::new(thresholds.len());
                let mut root = Bdd::FALSE;
                for f in train_features {
                    root = bdd.insert_word(root, &abstract_word(f));
                }
                NaiveStore::Bdd { bdd, root }
            }
            // The persistent store has its own bench (store_throughput).
            PatternBackend::Store => unreachable!("query bench covers in-memory backends"),
        };
        Self { thresholds, store }
    }

    #[inline]
    fn contains(&self, features: &[f64]) -> bool {
        // The allocation the packed pipeline removed:
        let word: Vec<bool> = features
            .iter()
            .zip(&self.thresholds)
            .map(|(v, c)| v > c)
            .collect();
        match &self.store {
            NaiveStore::Hash(set) => set.contains(&word),
            NaiveStore::Bdd { bdd, root } => bdd.eval(*root, &word),
        }
    }
}

/// Wall-clock budget per measured path (shrunk under `NAPMON_BENCH_SMOKE`).
fn measure_secs(full: f64) -> f64 {
    if std::env::var_os("NAPMON_BENCH_SMOKE").is_some() {
        0.02
    } else {
        full
    }
}

/// Runs `f` repeatedly for roughly `target_secs`, returning calls/sec.
fn throughput(target_secs: f64, mut f: impl FnMut()) -> f64 {
    // Calibrate.
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        if start.elapsed().as_secs_f64() > target_secs / 8.0 || iters >= 1 << 28 {
            break;
        }
        iters *= 2;
    }
    // Measure best of 3.
    let mut best = f64::MAX;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    iters as f64 / best
}

#[derive(Serialize)]
struct BackendResult {
    neurons: usize,
    backend: String,
    /// Membership path only (features precomputed), packed pipeline.
    membership_qps_packed: f64,
    /// Membership path only, naive `Vec<bool>` baseline (same run).
    membership_qps_naive: f64,
    /// Packed / naive membership throughput.
    membership_speedup: f64,
    /// Forward + abstraction + membership via `query_batch` (one thread).
    end_to_end_qps: f64,
    /// Same via `query_batch_parallel_with` (all cores).
    end_to_end_parallel_qps: f64,
    /// Store size: BDD nodes or hash-set words.
    store_size: usize,
}

#[derive(Serialize)]
struct HammingResult {
    /// Packed word width in bits.
    word_bits: usize,
    /// Distinct patterns in the scanned set.
    patterns: usize,
    /// Hamming-ball radius of every query.
    tau: usize,
    /// Per-query packed scan: `BitWord::hamming` over a `Vec<BitWord>`
    /// with first-hit early exit — the pre-index query shape.
    hamming_qps_packed: f64,
    /// Bit-sliced batch kernel: `BitSliceSet::contains_within_batch`
    /// over `HAMMING_BATCH`-query batches, queries/sec.
    hamming_qps_sliced_batch: f64,
    /// Within-run ratio sliced-batch / packed (hardware cancels).
    sliced_hamming_speedup: f64,
}

#[derive(Serialize)]
struct Report {
    train_size: usize,
    probe_count: usize,
    input_dim: usize,
    threads: usize,
    smoke: bool,
    results: Vec<BackendResult>,
    /// Hamming-ball tolerance queries: packed per-query scan vs the
    /// bit-sliced batch kernel, per word width.
    hamming_results: Vec<HammingResult>,
    /// Minimum `sliced_hamming_speedup` across the Hamming matrix — the
    /// batch-kernel headline. Full (non-smoke) runs must clear 3x.
    min_sliced_hamming_speedup: f64,
    /// Minimum membership speedup over the naive `Vec<bool>` baseline
    /// across the hash-set configurations — the headline number. The hash
    /// store is where membership cost itself (hashing + equality +
    /// per-query allocation) dominates, which is exactly what the packed
    /// pipeline removes.
    min_speedup_vs_naive_vec_bool: f64,
    /// Same minimum over the BDD configurations, reported separately: the
    /// BDD walk is byte-identical between baseline and packed pipeline, so
    /// only the abstraction/allocation share of each query can shrink.
    min_bdd_membership_speedup: f64,
    notes: String,
}

fn bench_config(neurons: usize, backend: PatternBackend, results: &mut Vec<BackendResult>) {
    let net = Network::seeded(
        1234 + neurons as u64,
        INPUT_DIM,
        &[
            napmon_nn::LayerSpec::dense(neurons, napmon_nn::Activation::Relu),
            napmon_nn::LayerSpec::dense(2, napmon_nn::Activation::Identity),
        ],
    );
    let layer = 2; // post-ReLU boundary of the hidden layer
    let mut rng = Prng::seed(99 + neurons as u64);
    let train: Vec<Vec<f64>> = (0..TRAIN_SIZE)
        .map(|_| rng.uniform_vec(INPUT_DIM, -1.0, 1.0))
        .collect();
    // Steady-state operation: the overwhelming majority of queries are
    // in-distribution and do NOT warn (Lemma 1 is built to guarantee it),
    // so probe with the training inputs themselves — membership hits,
    // full-depth BDD walks, no warning-evidence construction.
    let mut probes: Vec<Vec<f64>> = train.clone();
    rng.shuffle(&mut probes);
    probes.extend((0..PROBE_COUNT - TRAIN_SIZE).map(|_| rng.uniform_vec(INPUT_DIM, -1.0, 1.0)));

    let kind = MonitorKind::pattern_with(ThresholdPolicy::Mean, backend, 0);
    let built = MonitorSpec::new(layer, kind).build(&net, &train).unwrap();
    let monitor = built.as_single().and_then(|m| m.as_pattern()).unwrap();

    let fx = FeatureExtractor::new(&net, layer).unwrap();
    let train_features: Vec<Vec<f64>> = train
        .iter()
        .map(|x| fx.features(&net, x).unwrap())
        .collect();
    let probe_features: Vec<Vec<f64>> = probes
        .iter()
        .map(|x| fx.features(&net, x).unwrap())
        .collect();

    let naive = NaiveMonitor::from_packed(monitor, backend, &train_features);

    // Membership path, packed: fill the reused scratch word, look it up.
    // Zero heap allocation per call.
    let mut word = napmon_bdd::BitWord::default();
    let mut i = 0usize;
    let membership_qps_packed = throughput(measure_secs(0.4), || {
        let f = &probe_features[i % PROBE_COUNT];
        i += 1;
        monitor.abstract_into(black_box(f), &mut word);
        black_box(monitor.contains_packed(&word));
    });

    // Membership path, naive: Vec<bool> per query (alloc + byte-per-bit
    // hashing / unpacked walk) — the seed's shape.
    let mut i = 0usize;
    let membership_qps_naive = throughput(measure_secs(0.4), || {
        let f = &probe_features[i % PROBE_COUNT];
        i += 1;
        black_box(naive.contains(black_box(f)));
    });

    // End-to-end batched query throughput.
    let batch_start = Instant::now();
    let mut batches = 0u32;
    while batch_start.elapsed().as_secs_f64() < measure_secs(0.5) {
        black_box(built.query_batch(&net, &probes).unwrap());
        batches += 1;
    }
    let end_to_end_qps =
        (batches as f64 * PROBE_COUNT as f64) / batch_start.elapsed().as_secs_f64();

    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let par_start = Instant::now();
    let mut batches = 0u32;
    while par_start.elapsed().as_secs_f64() < measure_secs(0.5) {
        black_box(
            built
                .query_batch_parallel_with(&net, &probes, threads)
                .unwrap(),
        );
        batches += 1;
    }
    let end_to_end_parallel_qps =
        (batches as f64 * PROBE_COUNT as f64) / par_start.elapsed().as_secs_f64();

    let backend_name = match backend {
        PatternBackend::Bdd => "bdd",
        PatternBackend::HashSet => "hashset",
        PatternBackend::Store => unreachable!("query bench covers in-memory backends"),
    };
    let speedup = membership_qps_packed / membership_qps_naive;
    println!(
        "{neurons:>4} neurons  {backend_name:<8} membership {membership_qps_packed:>12.0}/s \
         vs naive {membership_qps_naive:>12.0}/s ({speedup:>5.2}x)  \
         end-to-end {end_to_end_qps:>10.0}/s  parallel {end_to_end_parallel_qps:>10.0}/s",
    );
    results.push(BackendResult {
        neurons,
        backend: backend_name.to_string(),
        membership_qps_packed,
        membership_qps_naive,
        membership_speedup: speedup,
        end_to_end_qps,
        end_to_end_parallel_qps,
        store_size: monitor.store_size(),
    });
}

/// One row of the Hamming-ball matrix: the same pattern set queried
/// through the packed per-query scan (the shape the store used before the
/// partition index) and through the bit-sliced batch kernel.
fn bench_hamming(word_bits: usize) -> HammingResult {
    let mut rng = Prng::seed(0xB17 + word_bits as u64);
    let mut word = |bits: usize| -> BitWord {
        let v = rng.uniform_vec(bits, -1.0, 1.0);
        BitWord::from_fn(bits, |i| v[i] > 0.0)
    };
    // Random draws at >= 48 bits collide with negligible probability, so
    // the set is distinct without an explicit dedup pass.
    let words: Vec<BitWord> = (0..HAMMING_PATTERNS).map(|_| word(word_bits)).collect();
    let mut sliced = BitSliceSet::with_bits(word_bits);
    for w in &words {
        sliced.insert(w);
    }

    // Probe mix: half near-misses (flip tau bits of a stored word, a hit
    // both engines can early-exit on) and half fresh random words, which
    // at these widths are misses — the case that forces a full scan and
    // bounds out-of-distribution detection cost.
    let probes: Vec<BitWord> = (0..HAMMING_BATCH)
        .map(|i| {
            if i % 2 == 0 {
                let base = words[(i * 37) % words.len()].to_bools();
                BitWord::from_fn(
                    word_bits,
                    |j| {
                        if j < HAMMING_TAU {
                            !base[j]
                        } else {
                            base[j]
                        }
                    },
                )
            } else {
                word(word_bits)
            }
        })
        .collect();

    let tau32 = HAMMING_TAU as u32;
    let mut i = 0usize;
    let hamming_qps_packed = throughput(measure_secs(0.4), || {
        let q = &probes[i % HAMMING_BATCH];
        i += 1;
        black_box(words.iter().any(|w| w.hamming(q) <= tau32));
    });

    let mut out = vec![false; HAMMING_BATCH];
    let batch_qps = throughput(measure_secs(0.4), || {
        sliced.contains_within_batch(black_box(&probes), HAMMING_TAU, &mut out);
        black_box(&out);
    });
    let hamming_qps_sliced_batch = batch_qps * HAMMING_BATCH as f64;

    let speedup = hamming_qps_sliced_batch / hamming_qps_packed;
    println!(
        "{word_bits:>4} bits  hamming tau={HAMMING_TAU} over {HAMMING_PATTERNS} patterns: \
         packed scan {hamming_qps_packed:>12.0}/s  sliced batch {hamming_qps_sliced_batch:>12.0}/s \
         ({speedup:>5.2}x)",
    );
    HammingResult {
        word_bits,
        patterns: HAMMING_PATTERNS,
        tau: HAMMING_TAU,
        hamming_qps_packed,
        hamming_qps_sliced_batch,
        sliced_hamming_speedup: speedup,
    }
}

fn main() {
    let mut results = Vec::new();
    for &neurons in &NEURON_COUNTS {
        for backend in [PatternBackend::HashSet, PatternBackend::Bdd] {
            bench_config(neurons, backend, &mut results);
        }
    }
    let hamming_results: Vec<HammingResult> =
        HAMMING_WIDTHS.iter().map(|&w| bench_hamming(w)).collect();
    let min_sliced_hamming_speedup = hamming_results
        .iter()
        .map(|r| r.sliced_hamming_speedup)
        .fold(f64::MAX, f64::min);
    let min_over = |backend: &str| {
        results
            .iter()
            .filter(|r| r.backend == backend)
            .map(|r| r.membership_speedup)
            .fold(f64::MAX, f64::min)
    };
    let min_speedup_vs_naive_vec_bool = min_over("hashset");
    let min_bdd_membership_speedup = min_over("bdd");
    let report = Report {
        train_size: TRAIN_SIZE,
        probe_count: PROBE_COUNT,
        input_dim: INPUT_DIM,
        threads: std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1),
        smoke: std::env::var_os("NAPMON_BENCH_SMOKE").is_some(),
        results,
        hamming_results,
        min_sliced_hamming_speedup,
        min_speedup_vs_naive_vec_bool,
        min_bdd_membership_speedup,
        notes: "membership = abstraction + store lookup on precomputed features; \
                naive baseline reproduces the seed's Vec<bool>-per-query path in the \
                same run. BDD rows share the identical node walk with the baseline, \
                so their gain is bounded to the abstraction/allocation share. \
                hamming_results = tau-tolerance queries over one pattern set: packed \
                per-query XOR-popcount scan vs the bit-sliced batch kernel, half \
                near-miss hits / half random misses per batch."
            .to_string(),
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_query.json");
    std::fs::write(path, serde_json::to_string_pretty(&report).unwrap()).unwrap();
    println!(
        "\nmin membership speedup vs naive Vec<bool> baseline (hash store): \
         {min_speedup_vs_naive_vec_bool:.2}x"
    );
    println!(
        "min BDD membership speedup (walk shared with baseline): {min_bdd_membership_speedup:.2}x"
    );
    println!("min sliced-batch hamming speedup vs packed scan: {min_sliced_hamming_speedup:.2}x");
    println!("wrote {path}");
}
