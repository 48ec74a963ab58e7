//! The sharded online monitoring engine.

use crate::report::{ServeReport, ShardReport};
use napmon_artifact::{ArtifactError, MonitorArtifact};
use napmon_core::{ComposedMonitor, Monitor, MonitorError, MonitorSpec, QueryScratch, Verdict};
use napmon_nn::Network;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

/// Serving error: either the monitor rejected an input, or the target
/// shard is gone (its thread panicked — queries themselves never panic on
/// well-formed inputs).
#[derive(Debug)]
pub enum ServeError {
    /// The monitor rejected the input (dimension mismatch).
    Monitor(MonitorError),
    /// The shard's worker thread is no longer running.
    ShardDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Monitor(e) => write!(f, "monitor error: {e}"),
            ServeError::ShardDown => write!(f, "shard worker is no longer running"),
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
    /// Number of worker shards (threads). Zero is treated as one.
    pub shards: usize,
    /// Largest per-shard chunk a [`MonitorEngine::submit_batch`] call is
    /// split into. Zero is treated as one.
    pub micro_batch: usize,
}

impl Default for EngineConfig {
    /// One shard per available core, 64-request micro-batches.
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
    /// The default micro-batch size with an explicit shard count.
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

/// Trace context riding a job: the request's trace id (0: untraced) and
/// its enqueue timestamp, so the worker can emit a queue-wait span on
/// pickup. Two plain `u64`s — free to carry when tracing is off.
#[derive(Clone, Copy)]
struct TraceCtx {
    id: u64,
    enqueued_ns: u64,
}

impl TraceCtx {
    /// A context for `trace_id`, stamped with the enqueue time when the
    /// request is actually traced (the clock is only read then).
    #[inline]
    fn for_id(trace_id: u64) -> Self {
        TraceCtx {
            id: trace_id,
            enqueued_ns: if trace_id != 0 && napmon_obs::tracing_enabled() {
                napmon_obs::now_ns()
            } else {
                0
            },
        }
    }

    #[inline]
    fn active(self) -> bool {
        self.id != 0 && napmon_obs::tracing_enabled()
    }
}

/// One unit of shard work.
///
/// Submissions carry their reply channel, so the worker loop is a plain
/// request/response server; `Stats` rides the same queue, which means a
/// snapshot observes a consistent point in the shard's stream.
enum Job {
    /// A contiguous chunk of a shared batch.
    Batch {
        inputs: Arc<[Vec<f64>]>,
        range: Range<usize>,
        reply: mpsc::Sender<BatchReply>,
        trace: TraceCtx,
    },
    /// One owned input.
    Single {
        input: Vec<f64>,
        reply: mpsc::Sender<Result<Verdict, MonitorError>>,
        trace: TraceCtx,
    },
    /// Metrics snapshot request.
    Stats { reply: mpsc::Sender<ShardReport> },
}

struct BatchReply {
    start: usize,
    result: Result<Vec<Verdict>, MonitorError>,
}

struct Shard {
    tx: mpsc::Sender<Job>,
    handle: JoinHandle<ShardReport>,
    /// Work jobs (batch chunks / singles, not metrics snapshots) enqueued
    /// but not yet picked up by the worker. Incremented before send,
    /// decremented by the worker on receive, so it never underflows.
    depth: Arc<AtomicUsize>,
}

/// A long-lived, sharded monitoring engine.
///
/// Construction spawns the worker shards; they stay hot until
/// [`MonitorEngine::shutdown`] (or drop, which also stops them after
/// draining). The engine is `Sync`: any number of client threads may
/// submit concurrently, and jobs are distributed round-robin.
///
/// Generic over the monitor so purpose-built monitors serve through the
/// same engine; [`ComposedMonitor`] (what a `MonitorSpec` builds) is the
/// default.
pub struct MonitorEngine<M: Monitor + Send + Sync + 'static = ComposedMonitor> {
    net: Arc<Network>,
    monitor: Arc<M>,
    config: EngineConfig,
    shards: Vec<Shard>,
    round_robin: AtomicUsize,
}

impl<M: Monitor + Send + Sync + 'static> MonitorEngine<M> {
    /// Spawns `config.shards` worker threads serving `monitor` over `net`.
    ///
    /// `net` and `monitor` are accepted owned or already shared
    /// (`Arc<...>`) — each shard holds one clone of each `Arc`.
    pub fn new(
        net: impl Into<Arc<Network>>,
        monitor: impl Into<Arc<M>>,
        config: EngineConfig,
    ) -> Self {
        let net = net.into();
        let monitor = monitor.into();
        let config = config.normalized();
        let shards = (0..config.shards)
            .map(|id| {
                let (tx, rx) = mpsc::channel();
                let net = Arc::clone(&net);
                let monitor = Arc::clone(&monitor);
                let depth = Arc::new(AtomicUsize::new(0));
                let worker_depth = Arc::clone(&depth);
                let handle = std::thread::Builder::new()
                    .name(format!("napmon-shard-{id}"))
                    .spawn(move || {
                        run_shard(id, net.as_ref(), monitor.as_ref(), &rx, &worker_depth)
                    })
                    .expect("spawn shard worker");
                Shard { tx, handle, depth }
            })
            .collect();
        Self {
            net,
            monitor,
            config,
            shards,
            round_robin: AtomicUsize::new(0),
        }
    }

    /// The served network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The served monitor.
    pub fn monitor(&self) -> &M {
        &self.monitor
    }

    /// The (normalized) configuration the engine runs with.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Number of live worker shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn next_shard(&self) -> usize {
        self.round_robin.fetch_add(1, Ordering::Relaxed) % self.shards.len()
    }

    /// Per-shard chunk length for a batch of `n` requests: even across
    /// shards, capped by the configured micro-batch.
    fn chunk_len(&self, n: usize) -> usize {
        n.div_ceil(self.shards.len())
            .clamp(1, self.config.micro_batch)
    }

    /// Serves one input synchronously on the next shard (round-robin).
    ///
    /// # Errors
    ///
    /// [`ServeError::Monitor`] if the input does not match the network,
    /// [`ServeError::ShardDown`] if the target worker died.
    pub fn submit(&self, input: Vec<f64>) -> Result<Verdict, ServeError> {
        self.submit_traced(input, 0)
    }

    /// [`MonitorEngine::submit`] carrying a request trace id: when
    /// tracing is armed (the `obs` feature plus
    /// `napmon_obs::set_tracing`), the shard emits queue-wait and verdict
    /// spans under `trace_id`. A zero id means untraced.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MonitorEngine::submit`].
    pub fn submit_traced(&self, input: Vec<f64>, trace_id: u64) -> Result<Verdict, ServeError> {
        let (reply, rx) = mpsc::channel();
        let shard = &self.shards[self.next_shard()];
        let trace = TraceCtx::for_id(trace_id);
        shard.depth.fetch_add(1, Ordering::Relaxed);
        shard
            .tx
            .send(Job::Single {
                input,
                reply,
                trace,
            })
            .map_err(|_| {
                shard.depth.fetch_sub(1, Ordering::Relaxed);
                ServeError::ShardDown
            })?;
        rx.recv()
            .map_err(|_| ServeError::ShardDown)?
            .map_err(Into::into)
    }

    /// Serves a whole batch synchronously: micro-batches it across the
    /// shards and blocks until every verdict is back, in input order.
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

    /// [`MonitorEngine::submit_batch`] carrying a request trace id (see
    /// [`MonitorEngine::submit_traced`]); every chunk of the batch emits
    /// spans under the same id.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MonitorEngine::submit_batch`].
    pub fn submit_batch_traced(
        &self,
        inputs: impl Into<Arc<[Vec<f64>]>>,
        trace_id: u64,
    ) -> Result<Vec<Verdict>, ServeError> {
        self.submit_batch_async_traced(inputs, trace_id).wait()
    }

    /// Enqueues a whole batch and returns immediately; the verdicts are
    /// collected with [`PendingBatch::wait`]. Jobs enqueued here are
    /// guaranteed to be served even if the engine is shut down before
    /// `wait` is called — shutdown drains, it does not cancel.
    pub fn submit_batch_async(&self, inputs: impl Into<Arc<[Vec<f64>]>>) -> PendingBatch {
        self.submit_batch_async_traced(inputs, 0)
    }

    /// [`MonitorEngine::submit_batch_async`] carrying a request trace id
    /// (see [`MonitorEngine::submit_traced`]).
    pub fn submit_batch_async_traced(
        &self,
        inputs: impl Into<Arc<[Vec<f64>]>>,
        trace_id: u64,
    ) -> PendingBatch {
        let inputs: Arc<[Vec<f64>]> = inputs.into();
        let n = inputs.len();
        let (reply, rx) = mpsc::channel();
        if n == 0 {
            return PendingBatch {
                total: 0,
                jobs: 0,
                rx,
            };
        }
        let trace = TraceCtx::for_id(trace_id);
        let chunk = self.chunk_len(n);
        let mut jobs = 0usize;
        let mut start = 0usize;
        while start < n {
            let end = (start + chunk).min(n);
            let mut job = Job::Batch {
                inputs: Arc::clone(&inputs),
                range: start..end,
                reply: reply.clone(),
                trace,
            };
            // A dead shard bounces the send; offer the chunk to every
            // shard once, probing from a single round-robin snapshot so
            // concurrent submitters cannot make the probe revisit the
            // same dead shard. A chunk nobody accepts is dropped here and
            // surfaces as a shortfall in `wait` (ShardDown) — never
            // busy-loop on a fully-dead engine.
            let base = self.next_shard();
            let mut dispatched = false;
            for offset in 0..self.shards.len() {
                let shard = &self.shards[(base + offset) % self.shards.len()];
                shard.depth.fetch_add(1, Ordering::Relaxed);
                match shard.tx.send(job) {
                    Ok(()) => {
                        dispatched = true;
                        break;
                    }
                    Err(mpsc::SendError(bounced)) => {
                        shard.depth.fetch_sub(1, Ordering::Relaxed);
                        job = bounced;
                    }
                }
            }
            if dispatched {
                jobs += 1;
            }
            start = end;
        }
        PendingBatch { total: n, jobs, rx }
    }

    /// Jobs enqueued but not yet picked up, summed across all shards —
    /// the backlog gauge, read straight from the shard counters without
    /// riding the job queues. Serving layers use it for cheap
    /// backpressure decisions on every request; for a queue-consistent
    /// snapshot use [`MonitorEngine::report`].
    pub fn queue_depth(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.depth.load(Ordering::Relaxed))
            .sum()
    }

    /// A consistent snapshot of every shard's metrics, aggregated. Rides
    /// the job queues, so it reflects all work enqueued before it.
    pub fn report(&self) -> ServeReport {
        let (reply, rx) = mpsc::channel();
        let mut expected = 0usize;
        for shard in &self.shards {
            if shard
                .tx
                .send(Job::Stats {
                    reply: reply.clone(),
                })
                .is_ok()
            {
                expected += 1;
            }
        }
        drop(reply);
        ServeReport::aggregate(rx.iter().take(expected).collect())
    }

    /// Graceful shutdown: closes every job channel, lets each shard drain
    /// its queue, joins the workers, and returns the final aggregated
    /// report. In-flight [`PendingBatch`]es remain collectable afterwards.
    pub fn shutdown(self) -> ServeReport {
        let (txs, handles): (Vec<_>, Vec<_>) =
            self.shards.into_iter().map(|s| (s.tx, s.handle)).unzip();
        drop(txs);
        ServeReport::aggregate(handles.into_iter().filter_map(|h| h.join().ok()).collect())
    }

    /// [`MonitorEngine::shutdown`] through a shared handle: succeeds once
    /// the caller holds the last clone of the `Arc` (every serving thread
    /// has been joined), and hands the still-shared engine back otherwise
    /// — shutting down under a live submitter would strand its requests.
    ///
    /// This is the shutdown path for serving layers (like `napmon-wire`)
    /// that clone one engine handle per connection thread.
    ///
    /// # Errors
    ///
    /// Returns `Err(engine)` if other clones of the handle are still
    /// alive.
    pub fn shutdown_shared(engine: Arc<Self>) -> Result<ServeReport, Arc<Self>> {
        Arc::try_unwrap(engine).map(Self::shutdown)
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
    /// shard's subsequent queries, with no rebuild — the operation-time
    /// monitor enlargement the original activation-pattern work proposes.
    ///
    /// Runs on the calling thread (absorption is a store write, not shard
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
        self.monitor
            .absorb_operation(&self.net, input)
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
        self.monitor.commit_external_sources().map_err(Into::into)
    }
}

/// An in-flight batch: a handle on the verdicts still being computed.
pub struct PendingBatch {
    total: usize,
    jobs: usize,
    rx: mpsc::Receiver<BatchReply>,
}

impl PendingBatch {
    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Blocks until every chunk is served and returns the verdicts in
    /// input order.
    ///
    /// # Errors
    ///
    /// The first (by input order) [`ServeError::Monitor`] if any chunk was
    /// rejected, [`ServeError::ShardDown`] if a worker died mid-batch.
    pub fn wait(self) -> Result<Vec<Verdict>, ServeError> {
        let mut replies: Vec<BatchReply> = Vec::with_capacity(self.jobs);
        for _ in 0..self.jobs {
            replies.push(self.rx.recv().map_err(|_| ServeError::ShardDown)?);
        }
        replies.sort_by_key(|r| r.start);
        let mut out = Vec::with_capacity(self.total);
        for reply in replies {
            out.extend(reply.result?);
        }
        if out.len() != self.total {
            // A dead shard dropped a chunk at submit time.
            return Err(ServeError::ShardDown);
        }
        Ok(out)
    }
}

/// The shard worker loop: one scratch, one metrics accumulator, jobs until
/// the engine closes the channel — then the final report is returned to
/// `shutdown` through the join handle.
fn run_shard<M: Monitor>(
    id: usize,
    net: &Network,
    monitor: &M,
    rx: &mpsc::Receiver<Job>,
    depth: &AtomicUsize,
) -> ShardReport {
    let mut scratch = QueryScratch::new();
    let mut report = ShardReport::empty(id);
    while let Ok(job) = rx.recv() {
        match job {
            Job::Batch {
                inputs,
                range,
                reply,
                trace,
            } => {
                depth.fetch_sub(1, Ordering::Relaxed);
                let started = queue_wait_span(trace, id);
                let start = range.start;
                let len = range.len() as u64;
                let result = serve_chunk(net, monitor, &inputs[range], &mut scratch, &mut report);
                verdict_span(trace, started, len);
                let _ = reply.send(BatchReply { start, result });
            }
            Job::Single {
                input,
                reply,
                trace,
            } => {
                depth.fetch_sub(1, Ordering::Relaxed);
                let started = queue_wait_span(trace, id);
                let result = serve_one(net, monitor, &input, &mut scratch, &mut report);
                verdict_span(trace, started, 1);
                let _ = reply.send(result);
            }
            Job::Stats { reply } => {
                // Work enqueued behind this snapshot request is, by queue
                // order, work enqueued before the snapshot was taken.
                report.queue_depth = depth.load(Ordering::Relaxed) as u64;
                let _ = reply.send(report.clone());
            }
        }
    }
    // The channel is closed and drained: the queue is empty by
    // construction, and the final report must say so.
    report.queue_depth = depth.load(Ordering::Relaxed) as u64;
    report
}

/// Emits the queue-wait span for a just-dequeued job (detail = shard id)
/// and returns the pickup timestamp for the matching verdict span. Folds
/// to nothing when the `obs` feature is off.
#[inline]
fn queue_wait_span(trace: TraceCtx, shard: usize) -> u64 {
    if !trace.active() {
        return 0;
    }
    let now = napmon_obs::now_ns();
    napmon_obs::record_span(
        trace.id,
        napmon_obs::SpanKind::QueueWait,
        trace.enqueued_ns,
        now.saturating_sub(trace.enqueued_ns),
        shard as u64,
    );
    now
}

/// Emits the verdict span covering a serve call that started at
/// `started_ns` (detail = number of inputs served).
#[inline]
fn verdict_span(trace: TraceCtx, started_ns: u64, items: u64) {
    if !trace.active() {
        return;
    }
    napmon_obs::record_span(
        trace.id,
        napmon_obs::SpanKind::Verdict,
        started_ns,
        napmon_obs::now_ns().saturating_sub(started_ns),
        items,
    );
}

fn serve_one<M: Monitor>(
    net: &Network,
    monitor: &M,
    input: &[f64],
    scratch: &mut QueryScratch,
    report: &mut ShardReport,
) -> Result<Verdict, MonitorError> {
    let started = Instant::now();
    let verdict = monitor.verdict_scratch(net, input, scratch)?;
    report.record(started.elapsed().as_nanos() as f64, verdict.warning);
    report.record_batch(1);
    Ok(verdict)
}

fn serve_chunk<M: Monitor>(
    net: &Network,
    monitor: &M,
    inputs: &[Vec<f64>],
    scratch: &mut QueryScratch,
    report: &mut ShardReport,
) -> Result<Vec<Verdict>, MonitorError> {
    if inputs.is_empty() {
        return Ok(Vec::new());
    }
    // Whole-chunk batch path: hash-backed pattern monitors answer all
    // memberships through the bit-sliced kernel with the pattern blocks
    // loaded once per chunk instead of once per input. Individual timings
    // do not exist on this path, so each verdict records its amortized
    // share (`batch time / batch size`), and the chunk size itself goes
    // into the batch-size histogram so the amortization is visible next
    // to the latency it produced.
    let started = Instant::now();
    let mut verdicts = Vec::with_capacity(inputs.len());
    if monitor
        .verdict_batch_scratch(net, inputs, scratch, &mut verdicts)
        .is_err()
    {
        // A malformed input poisons the whole batched call before any
        // verdict lands. Re-serve sequentially so every input ahead of
        // the bad one is still answered and counted, exactly as the
        // pre-batch path behaved; the error then surfaces with its
        // original index semantics.
        verdicts.clear();
        for input in inputs {
            verdicts.push(serve_one(net, monitor, input, scratch, report)?);
        }
        return Ok(verdicts);
    }
    let per_verdict_ns = started.elapsed().as_nanos() as f64 / inputs.len() as f64;
    for verdict in &verdicts {
        report.record(per_verdict_ns, verdict.warning);
    }
    report.record_batch(inputs.len());
    Ok(verdicts)
}

/// The engine is shared across client threads; submissions only need `&self`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MonitorEngine>();
};
