//! Proof that the steady-state submit path performs **zero heap
//! allocation per request**.
//!
//! A counting global allocator wraps `System`; after a warm-up batch has
//! grown every shard's scratch buffers, a large batch is served with the
//! counter armed. The per-batch machinery (one `Arc` spine, one reply
//! channel, O(chunks) channel nodes and chunk vectors) is allowed; what
//! must NOT appear is anything proportional to the number of requests —
//! the per-request path is forward pass into reused ping-pong buffers,
//! abstraction into a reused packed word, membership, and a metrics
//! update, none of which allocate once warm.
//!
//! This file is its own integration test binary so the allocator swap
//! cannot perturb any other test.

use napmon_core::{MonitorKind, MonitorSpec, PatternBackend, ThresholdPolicy};
use napmon_nn::{Activation, LayerSpec, Network};
use napmon_serve::{EngineConfig, MonitorEngine};
use napmon_tensor::Prng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_batches_allocate_per_chunk_not_per_request() {
    const REQUESTS: usize = 2048;
    const SHARDS: usize = 2;
    const MICRO_BATCH: usize = 256;

    let net = Network::seeded(
        9,
        12,
        &[
            LayerSpec::dense(32, Activation::Relu),
            LayerSpec::dense(2, Activation::Identity),
        ],
    );
    let mut rng = Prng::seed(31);
    let train: Vec<Vec<f64>> = (0..256).map(|_| rng.uniform_vec(12, -1.0, 1.0)).collect();
    // Hash-backed pattern monitor: the fastest membership path, so any
    // stray allocation would dominate its per-request cost.
    let monitor = MonitorSpec::new(
        2,
        MonitorKind::pattern_with(ThresholdPolicy::Mean, PatternBackend::HashSet, 0),
    )
    .build(&net, &train)
    .unwrap();
    let engine = MonitorEngine::new(
        net,
        monitor,
        EngineConfig {
            shards: SHARDS,
            micro_batch: MICRO_BATCH,
        },
    );

    // In-distribution probes: the steady state the paper's monitors live
    // in is "almost everything passes" (a warning allocates its evidence,
    // legitimately).
    let probes: Vec<Vec<f64>> = (0..REQUESTS)
        .map(|i| train[i % train.len()].clone())
        .collect();

    // Warm-up: grows every shard's forward/feature/word scratch buffers.
    engine.submit_batch(probes.clone()).unwrap();
    let warm_probes = probes.clone();

    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let verdicts = engine.submit_batch(warm_probes).unwrap();
    COUNTING.store(false, Ordering::SeqCst);
    let counted = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(verdicts.len(), REQUESTS);
    assert!(verdicts.iter().all(|v| !v.warning));

    // O(chunks) budget: 2048 requests split into 256-request chunks is 8
    // jobs; each job costs a handful of allocations (channel node, chunk
    // verdict vector, reply node). 8 requests' worth of slack on top. If
    // any per-request path allocated even once, the count would be >= 2048.
    let chunks = REQUESTS.div_ceil(MICRO_BATCH);
    let budget = 16 * chunks + 64;
    assert!(
        counted <= budget,
        "steady-state batch of {REQUESTS} requests performed {counted} allocations \
         (budget {budget}); the per-request path is allocating"
    );
    engine.shutdown();
}
