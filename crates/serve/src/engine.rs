//! The online monitoring engine: one monitor served on a worker pool.

use crate::pool::{on_serving_scratch, WorkerPool};
use crate::report::ServeReport;
use napmon_artifact::{ArtifactError, MonitorArtifact};
use napmon_core::{ComposedMonitor, Monitor, MonitorError, MonitorSpec, QueryScratch, Verdict};
use napmon_nn::Network;
use napmon_obs::{Counter, LatencyHistogram};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Serving error: either the monitor rejected an input, or the work never
/// came back (the monitor panicked on it, or the pool is shut down —
/// queries themselves never panic on well-formed inputs).
#[derive(Debug)]
pub enum ServeError {
    /// The monitor rejected the input (dimension mismatch).
    Monitor(MonitorError),
    /// The work was lost: the monitor panicked while serving it, or the
    /// pool it was submitted to is shut down. (The name predates the
    /// worker pool; the wire error code keeps it.)
    ShardDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Monitor(e) => write!(f, "monitor error: {e}"),
            ServeError::ShardDown => write!(f, "serving worker lost the request"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Monitor(e) => Some(e),
            ServeError::ShardDown => None,
        }
    }
}

impl From<MonitorError> for ServeError {
    fn from(e: MonitorError) -> Self {
        ServeError::Monitor(e)
    }
}

/// Engine sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads in the pool a standalone engine (or a registry)
    /// spawns. Zero is treated as one.
    pub shards: usize,
    /// Largest chunk a [`MonitorEngine::submit_batch`] call from outside
    /// the pool is split into. Zero is treated as one.
    pub micro_batch: usize,
}

impl Default for EngineConfig {
    /// One worker per available core, 64-request micro-batches.
    fn default() -> Self {
        Self {
            shards: std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1),
            micro_batch: 64,
        }
    }
}

impl EngineConfig {
    /// The default micro-batch size with an explicit worker count.
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards,
            ..Self::default()
        }
    }

    fn normalized(self) -> Self {
        Self {
            shards: self.shards.max(1),
            micro_batch: self.micro_batch.max(1),
        }
    }
}

/// The engine's live counters: read by [`MonitorEngine::report`] without
/// touching the pool, bumped once per served chunk.
#[derive(Default)]
struct Stats {
    requests: Counter,
    warnings: Counter,
    /// Per-item latency in nanoseconds; a batched chunk records its
    /// amortized share (`chunk time / chunk size`) once per item.
    latency_ns: LatencyHistogram,
    /// Sizes of the chunks served (a single input is a chunk of one).
    batch_sizes: LatencyHistogram,
    /// Chunks handed to the pool and not yet served.
    backlog: AtomicUsize,
}

impl Stats {
    fn record(&self, verdicts: &[Verdict], per_item_ns: u64) {
        let warned = verdicts.iter().filter(|v| v.warning).count();
        self.latency_ns.record_n(per_item_ns, verdicts.len() as u64);
        self.batch_sizes.record(verdicts.len() as u64);
        self.warnings.add(warned as u64);
        self.requests.add(verdicts.len() as u64);
    }

    fn report(&self) -> ServeReport {
        let requests = self.requests.get();
        let warnings = self.warnings.get();
        ServeReport {
            requests,
            warnings,
            warn_rate: ServeReport::rate(warnings, requests),
            latency_ns: self.latency_ns.snapshot(),
            batch_sizes: self.batch_sizes.snapshot(),
            queue_depth: self.backlog.load(Ordering::Relaxed) as u64,
        }
    }
}

/// Everything a chunk job needs, behind one `Arc`.
struct Served<M> {
    net: Arc<Network>,
    monitor: Arc<M>,
    stats: Stats,
}

impl<M: Monitor> Served<M> {
    /// Serves one chunk on `scratch` and counts it.
    fn serve(
        &self,
        inputs: &[Vec<f64>],
        scratch: &mut QueryScratch,
    ) -> Result<Vec<Verdict>, MonitorError> {
        let mut verdicts = Vec::with_capacity(inputs.len());
        if inputs.is_empty() {
            return Ok(verdicts);
        }
        // Whole-chunk batch path: pattern monitors answer all memberships
        // through the bit-sliced kernel, loading the pattern blocks once
        // per chunk instead of once per input.
        let started = Instant::now();
        match self
            .monitor
            .verdict_batch_scratch(&self.net, inputs, scratch, &mut verdicts)
        {
            Ok(()) => {
                let per_item = started.elapsed().as_nanos() as u64 / inputs.len() as u64;
                self.stats.record(&verdicts, per_item);
                Ok(verdicts)
            }
            // A malformed input poisons the whole batched call before any
            // verdict lands. Re-serve one by one so every input ahead of
            // the bad one is still answered and counted; the error then
            // surfaces for the bad one.
            Err(_) => {
                verdicts.clear();
                for input in inputs {
                    let started = Instant::now();
                    let verdict = self.monitor.verdict_scratch(&self.net, input, scratch)?;
                    let elapsed = started.elapsed().as_nanos() as u64;
                    self.stats.record(std::slice::from_ref(&verdict), elapsed);
                    verdicts.push(verdict);
                }
                Ok(verdicts)
            }
        }
    }
}

type ChunkResult = Result<Vec<Verdict>, ServeError>;

/// One batch cut into chunks that its waiter and the pool's workers claim
/// in turn. A waiter holding a serving scratch serves every chunk nobody
/// has claimed yet, so it only ever waits on chunks already being served —
/// never on a job still queued — and a frame served on a pool worker still
/// spreads over whichever workers are idle.
struct Split<M> {
    served: Arc<Served<M>>,
    inputs: Arc<[Vec<f64>]>,
    chunk: usize,
    chunks: usize,
    /// The next chunk to claim.
    next: AtomicUsize,
    /// Per-chunk results, and how many are in.
    results: Mutex<(Vec<Option<ChunkResult>>, usize)>,
    finished: Condvar,
}

impl<M: Monitor> Split<M> {
    /// Claims the next chunk nobody has taken yet.
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.chunks).then_some(i)
    }

    /// Serves unclaimed chunks on `scratch` until none is left.
    fn help(&self, scratch: &mut QueryScratch) {
        while let Some(i) = self.claim() {
            let end = (i * self.chunk + self.chunk).min(self.inputs.len());
            let inputs = &self.inputs[i * self.chunk..end];
            // A panicking monitor loses its chunk, not the serving thread.
            let result = catch_unwind(AssertUnwindSafe(|| self.served.serve(inputs, scratch)))
                .map_err(|_| ServeError::ShardDown)
                .and_then(|served| served.map_err(Into::into));
            self.finish(i, result);
        }
    }

    fn finish(&self, i: usize, result: ChunkResult) {
        self.served.stats.backlog.fetch_sub(1, Ordering::Relaxed);
        let mut results = self.results.lock().unwrap_or_else(PoisonError::into_inner);
        results.0[i] = Some(result);
        results.1 += 1;
        if results.1 == self.chunks {
            self.finished.notify_all();
        }
    }
}

/// A long-lived monitoring engine: one network and monitor served on a
/// [`WorkerPool`].
///
/// [`MonitorEngine::new`] spawns a pool of its own; [`MonitorEngine::on_pool`]
/// serves on a pool shared with other engines (a registry runs all its
/// mounts that way). The engine is `Sync`: any number of client threads
/// may submit concurrently.
///
/// Generic over the monitor so purpose-built monitors serve through the
/// same engine; [`ComposedMonitor`] (what a `MonitorSpec` builds) is the
/// default.
pub struct MonitorEngine<M: Monitor + Send + Sync + 'static = ComposedMonitor> {
    served: Arc<Served<M>>,
    config: EngineConfig,
    pool: Arc<WorkerPool>,
}

impl<M: Monitor + Send + Sync + 'static> MonitorEngine<M> {
    /// Serves `monitor` over `net` on a pool of `config.shards` workers of
    /// its own.
    ///
    /// `net` and `monitor` are accepted owned or already shared
    /// (`Arc<...>`).
    pub fn new(
        net: impl Into<Arc<Network>>,
        monitor: impl Into<Arc<M>>,
        config: EngineConfig,
    ) -> Self {
        let config = config.normalized();
        Self::on_pool(
            net,
            monitor,
            config,
            Arc::new(WorkerPool::new(config.shards)),
        )
    }

    /// Serves `monitor` over `net` on a shared `pool`; `config.shards` is
    /// then unused and the pool's worker count sizes the chunks.
    pub fn on_pool(
        net: impl Into<Arc<Network>>,
        monitor: impl Into<Arc<M>>,
        config: EngineConfig,
        pool: Arc<WorkerPool>,
    ) -> Self {
        Self {
            served: Arc::new(Served {
                net: net.into(),
                monitor: monitor.into(),
                stats: Stats::default(),
            }),
            config: config.normalized(),
            pool,
        }
    }

    /// The served network.
    pub fn network(&self) -> &Network {
        &self.served.net
    }

    /// The served monitor.
    pub fn monitor(&self) -> &M {
        &self.served.monitor
    }

    /// The (normalized) configuration the engine runs with.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// The pool the engine serves on.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Number of pool workers serving the engine.
    pub fn shards(&self) -> usize {
        self.pool.workers()
    }

    /// Serves one input: a batch of one.
    ///
    /// # Errors
    ///
    /// [`ServeError::Monitor`] if the input does not match the network,
    /// [`ServeError::ShardDown`] if the monitor panicked on it or the pool
    /// is shut down.
    pub fn submit(&self, input: Vec<f64>) -> Result<Verdict, ServeError> {
        self.submit_batch(vec![input])?
            .pop()
            .ok_or(ServeError::ShardDown)
    }

    /// Serves a whole batch synchronously and returns the verdicts in
    /// input order.
    ///
    /// The batch is cut into micro-batch chunks that idle pool workers
    /// claim. A thread that holds a serving scratch — a pool worker, or a
    /// thread inside [`with_serving_scratch`](crate::with_serving_scratch)
    /// — serves every chunk no other worker has claimed itself, so it only
    /// ever waits on chunks already being served; any other thread waits
    /// for the pool.
    ///
    /// Accepts an owned `Vec<Vec<f64>>` or an already-shared
    /// `Arc<[Vec<f64>]>` — repeated submissions of the same batch (load
    /// replay, benchmarking) should share one `Arc` so no input data is
    /// copied per call.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MonitorEngine::submit`]; on a malformed input
    /// the whole containing chunk is rejected.
    pub fn submit_batch(
        &self,
        inputs: impl Into<Arc<[Vec<f64>]>>,
    ) -> Result<Vec<Verdict>, ServeError> {
        self.submit_batch_async(inputs).wait()
    }

    /// Enqueues a whole batch and returns immediately; the verdicts are
    /// collected with [`PendingBatch::wait`]. The batch is cut into
    /// micro-batch chunks, and one helper job per pool worker that could
    /// take one is queued. Chunks queued here are served even if the
    /// engine is shut down before `wait` is called — shutdown drains, it
    /// does not cancel.
    pub fn submit_batch_async(&self, inputs: impl Into<Arc<[Vec<f64>]>>) -> PendingBatch<M> {
        let inputs: Arc<[Vec<f64>]> = inputs.into();
        // Chunks even across the pool's workers, capped by the micro-batch.
        let chunk = inputs
            .len()
            .div_ceil(self.pool.workers())
            .clamp(1, self.config.micro_batch);
        let chunks = inputs.len().div_ceil(chunk);
        let split = Arc::new(Split {
            served: Arc::clone(&self.served),
            inputs,
            chunk,
            chunks,
            next: AtomicUsize::new(0),
            results: Mutex::new(((0..chunks).map(|_| None).collect(), 0)),
            finished: Condvar::new(),
        });
        self.served
            .stats
            .backlog
            .fetch_add(chunks, Ordering::Relaxed);
        let queued = (0..chunks.min(self.pool.workers())).try_for_each(|_| {
            let split = Arc::clone(&split);
            self.pool.execute(move || {
                on_serving_scratch(|scratch| split.help(scratch))
                    .expect("pool workers hold a serving scratch");
            })
        });
        if queued.is_err() {
            // The pool is shut down: nobody will serve the rest.
            while let Some(i) = split.claim() {
                split.finish(i, Err(ServeError::ShardDown));
            }
        }
        PendingBatch { split }
    }

    /// Chunks handed to the pool and not yet served — this engine's
    /// backlog gauge, one atomic read.
    pub fn queue_depth(&self) -> usize {
        self.served.stats.backlog.load(Ordering::Relaxed)
    }

    /// A live snapshot of the engine's counters.
    pub fn report(&self) -> ServeReport {
        self.served.stats.report()
    }

    /// Graceful shutdown: waits until every chunk already handed to the
    /// pool is served, stops the engine's own pool (a shared pool keeps
    /// running), and returns the final report. In-flight
    /// [`PendingBatch`]es remain collectable afterwards.
    pub fn shutdown(self) -> ServeReport {
        let MonitorEngine { served, pool, .. } = self;
        match Arc::try_unwrap(pool) {
            // The last handle on the pool: stopping it serves every queued
            // chunk first.
            Ok(own) => own.shutdown(),
            Err(_shared) => {
                while served.stats.backlog.load(Ordering::Relaxed) > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
        }
        served.stats.report()
    }
}

impl MonitorEngine<ComposedMonitor> {
    /// Boots an engine straight from a deployment artifact: the embedded
    /// network and monitor are mounted as-is, so the served verdicts are
    /// bit-identical to what the artifact's builder measured.
    ///
    /// The artifact should come from [`MonitorArtifact::load_json`] (which
    /// validates it) or [`MonitorArtifact::build`]; this constructor does
    /// not re-validate.
    pub fn from_artifact(artifact: MonitorArtifact, config: EngineConfig) -> Self {
        let (net, monitor) = artifact.into_parts();
        Self::new(net, monitor, config)
    }

    /// Loads, validates, and mounts an artifact file in one step — the
    /// whole "boot a monitor next to its network in a fresh process" path.
    /// Store-backed artifacts reattach to their segments on disk during
    /// the load, so this is also a warm start for them.
    ///
    /// # Errors
    ///
    /// Any [`MonitorArtifact::load_json`] error: unreadable file, foreign
    /// format version, an artifact whose parts disagree, or a missing /
    /// mismatched pattern store.
    pub fn from_artifact_file(
        path: impl AsRef<Path>,
        config: EngineConfig,
    ) -> Result<Self, ArtifactError> {
        Ok(Self::from_artifact(
            MonitorArtifact::load_json(path)?,
            config,
        ))
    }

    /// Warm-starts an engine straight from pattern-store segments on disk:
    /// the spec is mounted over the member stores under `store_root`
    /// (the `member-NNNN/` layout `napmon-store`'s `StoreProvider`
    /// writes), with **no training data and no rebuild** — every pattern
    /// the monitor admits is read back from the log-structured store.
    ///
    /// The spec must use data-free thresholds (see
    /// [`MonitorSpec::mount_with_sources`]); pattern kinds declare
    /// `PatternBackend::Store`.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::InvalidConfig`] for specs that cannot
    /// mount and [`MonitorError::ExternalSource`] for missing or
    /// mismatched member stores.
    pub fn from_store(
        spec: &MonitorSpec,
        net: impl Into<Arc<Network>>,
        store_root: impl AsRef<Path>,
        config: EngineConfig,
    ) -> Result<Self, MonitorError> {
        let net = net.into();
        let root = store_root.as_ref().to_path_buf();
        let monitor = spec.mount_with_sources(&net, &mut |member: usize, word_bits: usize| {
            napmon_store::open_member_source(&root, member, word_bits)
        })?;
        Ok(Self::new(net, monitor, config))
    }

    /// Absorbs one operational input into the monitor's store-backed
    /// members (see `ComposedMonitor::absorb_operation`): the pattern
    /// becomes a member of the abstraction immediately, visible to every
    /// subsequent query, with no rebuild — the operation-time monitor
    /// enlargement the original activation-pattern work proposes.
    ///
    /// Runs on the calling thread (absorption is a store write, not pool
    /// work); call [`MonitorEngine::sync_store`] to make a batch of
    /// absorptions durable.
    ///
    /// Returns the number of members that stored a new pattern.
    ///
    /// # Errors
    ///
    /// [`ServeError::Monitor`] if the input is malformed, the monitor is
    /// not store-backed, or the store fails.
    pub fn absorb(&self, input: &[f64]) -> Result<usize, ServeError> {
        self.served
            .monitor
            .absorb_operation(&self.served.net, input)
            .map_err(Into::into)
    }

    /// Absorbs a batch of operational inputs ([`MonitorEngine::absorb`])
    /// and syncs the stores once at the end. Returns the number of new
    /// patterns stored.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MonitorEngine::absorb`].
    pub fn absorb_batch(&self, inputs: &[Vec<f64>]) -> Result<usize, ServeError> {
        let mut fresh = 0;
        for input in inputs {
            fresh += self.absorb(input)?;
        }
        self.sync_store()?;
        Ok(fresh)
    }

    /// Flushes every store-backed member's buffered writes — the
    /// durability point after operation-time absorption.
    ///
    /// # Errors
    ///
    /// [`ServeError::Monitor`] if a store fails.
    pub fn sync_store(&self) -> Result<(), ServeError> {
        self.served
            .monitor
            .commit_external_sources()
            .map_err(Into::into)
    }
}

/// An in-flight batch: a handle on the verdicts still being computed.
pub struct PendingBatch<M: Monitor + Send + Sync + 'static = ComposedMonitor> {
    split: Arc<Split<M>>,
}

impl<M: Monitor + Send + Sync + 'static> PendingBatch<M> {
    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.split.inputs.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.split.inputs.is_empty()
    }

    /// Blocks until every chunk is served and returns the verdicts in
    /// input order. On a thread holding a serving scratch, first serves
    /// every chunk no pool worker has claimed.
    ///
    /// # Errors
    ///
    /// The first (by input order) [`ServeError::Monitor`] if any chunk was
    /// rejected, [`ServeError::ShardDown`] if a chunk was lost.
    pub fn wait(self) -> Result<Vec<Verdict>, ServeError> {
        on_serving_scratch(|scratch| self.split.help(scratch));
        let mut results = self
            .split
            .results
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while results.1 < self.split.chunks {
            results = self
                .split
                .finished
                .wait(results)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let mut out = Vec::with_capacity(self.len());
        for result in results.0.drain(..) {
            out.extend(result.expect("every chunk is in")?);
        }
        Ok(out)
    }
}

/// The engine is shared across client threads; submissions only need `&self`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MonitorEngine>();
};
