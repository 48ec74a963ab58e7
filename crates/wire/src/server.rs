//! The serving side: a TCP listener over a [`MonitorEngine`] or a
//! multi-tenant [`MonitorRegistry`].
//!
//! **One reactor, the backend's worker pool.** A single reactor thread
//! owns every connection on nonblocking sockets (see the
//! [`crate::reactor`] module for the event-loop topology): it accepts,
//! runs each peer's frame-reassembly state machine, and drains each
//! peer's outbound write queue. Decoded frames run as one job per
//! connection on the backend's [`WorkerPool`] — the engine's own, or the
//! registry's one pool for every tenant — and each job serves its frames
//! on the worker that took it (idle workers claim chunks of a large
//! batch). The server spawns no worker
//! threads, so an idle connection costs a buffer, not an OS thread, and
//! thread count is O(1) in the connection and tenant counts. At most one
//! job per connection is in flight at a time, so requests on one
//! connection are served in arrival order and a pipelining client reads
//! responses in the order it wrote requests; concurrency comes from
//! connections, parallelism from the pool.
//!
//! **Two backends, one wire, one front door.** [`WireServer::builder`]
//! takes a typed [`Backend`] — [`Backend::Engine`] serves a single
//! engine, [`Backend::Registry`] serves a [`MonitorRegistry`] and
//! dispatches each work frame by its tenant route (see
//! [`TenantRoute`]). On a registry server a work frame *must* carry a
//! route — an unrouted one is answered with a typed `UnknownTenant`
//! error, as is a routed frame on a single-engine server. Routing misses
//! are accounted in [`DegradedStats::unknown_tenant`]. Registry admin
//! requests (`Mount`, `Unmount`, `Promote`, `ListTenants`,
//! `ShadowStats`) are control plane: they bypass the in-flight work
//! budget so operators can still flip traffic while the data plane is
//! saturated.
//!
//! **Backpressure is a typed response, not dropped bytes.** A global
//! in-flight budget bounds the connection jobs with work admitted to the
//! pool; a request over budget is answered with a `Busy` frame carrying
//! the budget figures, and the bytes already read stay framed — the
//! connection remains usable.
//!
//! **Shutdown drains.** A `Shutdown` request (or [`WireServer::shutdown`])
//! stops accepting and lets every connection finish the frames it has
//! started — in-flight requests are served, responses written, bounded
//! by [`WireConfig::drain_grace`] — before the backend itself drains and
//! reports final metrics. On a registry backend the reactor is joined and
//! the connection jobs still on the pool are waited out *first*, then
//! [`MonitorRegistry::shutdown`] runs — which also settles the engines
//! retired by earlier hot-swaps and stops the pool, so a shutdown that
//! lands mid-swap cannot leak a thread. A client that disconnects
//! mid-request costs nothing: its work completes in the engine and the
//! unsendable reply is dropped.
//!
//! **Degradation is graceful and accounted.** Under pressure the server
//! walks a fixed shedding ladder rather than falling over: connections
//! over the cap are refused at accept time with one `Busy` frame through
//! the nonblocking write path; fully-read requests are shed with `Busy`
//! when the backend pool's backlog crosses the queue watermark or the
//! in-flight budget is exhausted (never mid-frame — a shed request
//! leaves the connection framed and usable); and peers that stall — idle
//! between frames past [`WireConfig::idle_timeout`], or mid-frame past
//! [`WireConfig::frame_deadline`] (the slow-loris defense) — are evicted
//! by the reactor's timer wheel with a typed `Evicted` error frame.
//! Every one of these decisions increments a counter in
//! [`DegradedStats`], reported by `Stats`.

use crate::codec::{DegradedStats, Request, Response, StatsSnapshot};
use crate::error::{registry_error_code, serve_error_code, ErrorCode, WireError};
use crate::frame::{Frame, Opcode, TenantRoute, ACTIVE_VERSION, DEFAULT_MAX_PAYLOAD};
use crate::reactor::{Completion, CompletionQueue, Job, JobItem, JobKind, Reactor};
use napmon_artifact::{ArtifactError, MonitorArtifact};
use napmon_core::{ComposedMonitor, MonitorError};
use napmon_obs::{Counter, LatencyHistogram, MetricsRegistry, ObsReport, SlowLog, SpanKind};
use napmon_registry::{MonitorRegistry, RegistryError, RegistryReport};
use napmon_serve::{EngineConfig, MonitorEngine, ServeError, ServeReport, WorkerPool};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning for a [`WireServer`].
///
/// Non-exhaustive: start from [`WireConfig::default`] and chain the
/// `with_*` setters, so new reactor knobs land without breaking
/// downstream construction sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct WireConfig {
    /// Global budget of requests being served at once (work opcodes:
    /// `Query`, `QueryBatch`, `Absorb`). A request arriving over budget is
    /// answered `Busy`. Zero is treated as one.
    pub max_in_flight: usize,
    /// Cap on live connections. An accept over the cap is answered with
    /// a `Busy` frame and closed. Connections are cheap under the
    /// reactor (a buffer, not a thread), so the cap bounds memory and
    /// file descriptors rather than threads. Zero is treated as one.
    pub max_connections: usize,
    /// Largest payload a frame may declare; a larger declaration fails
    /// typed before any allocation.
    pub max_payload: u32,
    /// Granularity of the owner-side waits ([`WireServer::wait`]) that
    /// poll the shutdown flag.
    pub poll_interval: Duration,
    /// How long a connection may keep serving already-started work after
    /// a shutdown is observed, before it is closed mid-stream.
    pub drain_grace: Duration,
    /// How long a connection may sit idle *between* frames before it is
    /// evicted (typed `Evicted` error frame, then close). Bounds how long
    /// a silent peer can hold one of the capped connection slots.
    pub idle_timeout: Duration,
    /// How long a peer may stall *mid-frame* — header or payload started
    /// but not finished — before eviction. This is the slow-loris defense:
    /// trickling one byte per deadline no longer holds a connection slot
    /// forever. Also the write-stall deadline, so a peer that stops
    /// draining its responses is evicted rather than growing the write
    /// queue without bound.
    pub frame_deadline: Duration,
    /// Backend pool backlog (jobs queued on the backend's worker pool and
    /// not yet picked up: connection jobs, plus the helper jobs through
    /// which idle workers claim chunks of a batch) above which fully-read
    /// work requests are shed with `Busy` instead of queued. Shedding at
    /// the wire keeps the pool below saturation, so already-admitted work
    /// keeps its latency. Zero disables watermark shedding.
    pub queue_watermark: usize,
    /// Requests taking longer than this end-to-end (frame read through
    /// response write) are recorded in the slow-request log scraped by
    /// the `Metrics` opcode. Timings come from the `obs` probe clock
    /// (which reads 0 without the `obs` feature), so the log only
    /// populates with the feature compiled in; untraced requests log
    /// under trace id 0. `Duration::MAX` disables the log.
    pub slow_request_threshold: Duration,
    /// The reactor's poll timeout: the latency bound on timer-wheel
    /// firings and shutdown-flag observation. I/O readiness and worker
    /// completions interrupt the poll, so this does not quantize request
    /// latency.
    pub poll_tick: Duration,
    /// Per-connection outbound-queue high-water mark, in bytes: while a
    /// peer has this much unflushed response data, the reactor stops
    /// reading new frames from it (backpressure instead of unbounded
    /// buffering).
    pub write_high_water: usize,
    /// Cap on accepts processed per reactor tick, bounding how long one
    /// accept storm can monopolize the loop.
    pub max_events_per_tick: usize,
}

impl Default for WireConfig {
    fn default() -> Self {
        Self {
            max_in_flight: 256,
            max_connections: 1024,
            max_payload: DEFAULT_MAX_PAYLOAD,
            poll_interval: Duration::from_millis(10),
            drain_grace: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
            frame_deadline: Duration::from_secs(10),
            queue_watermark: 4096,
            slow_request_threshold: Duration::from_millis(100),
            poll_tick: Duration::from_millis(5),
            write_high_water: 1 << 20,
            max_events_per_tick: 1024,
        }
    }
}

/// Entries the slow-request log retains (last-N, drop-oldest).
pub const SLOW_LOG_CAPACITY: usize = 64;

impl WireConfig {
    /// Sets the global in-flight work budget.
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight;
        self
    }

    /// Sets the live-connection cap.
    pub fn with_max_connections(mut self, max_connections: usize) -> Self {
        self.max_connections = max_connections;
        self
    }

    /// Sets the largest payload a frame may declare.
    pub fn with_max_payload(mut self, max_payload: u32) -> Self {
        self.max_payload = max_payload;
        self
    }

    /// Sets the owner-side shutdown-flag poll granularity.
    pub fn with_poll_interval(mut self, poll_interval: Duration) -> Self {
        self.poll_interval = poll_interval;
        self
    }

    /// Sets the shutdown drain grace.
    pub fn with_drain_grace(mut self, drain_grace: Duration) -> Self {
        self.drain_grace = drain_grace;
        self
    }

    /// Sets the between-frames idle eviction deadline.
    pub fn with_idle_timeout(mut self, idle_timeout: Duration) -> Self {
        self.idle_timeout = idle_timeout;
        self
    }

    /// Sets the mid-frame stall (slow-loris) eviction deadline.
    pub fn with_frame_deadline(mut self, frame_deadline: Duration) -> Self {
        self.frame_deadline = frame_deadline;
        self
    }

    /// Sets the backend-backlog shed watermark (0 disables).
    pub fn with_queue_watermark(mut self, queue_watermark: usize) -> Self {
        self.queue_watermark = queue_watermark;
        self
    }

    /// Sets the slow-request log threshold.
    pub fn with_slow_request_threshold(mut self, slow_request_threshold: Duration) -> Self {
        self.slow_request_threshold = slow_request_threshold;
        self
    }

    /// Sets the reactor poll tick.
    pub fn with_poll_tick(mut self, poll_tick: Duration) -> Self {
        self.poll_tick = poll_tick;
        self
    }

    /// Sets the per-connection outbound-queue high-water mark.
    pub fn with_write_high_water(mut self, write_high_water: usize) -> Self {
        self.write_high_water = write_high_water;
        self
    }

    /// Sets the per-tick accept cap.
    pub fn with_max_events_per_tick(mut self, max_events_per_tick: usize) -> Self {
        self.max_events_per_tick = max_events_per_tick;
        self
    }

    /// Formerly sized the wire server's own worker threads. Frames now run
    /// on the backend's worker pool (sized by `EngineConfig::shards`), so
    /// this does nothing.
    #[deprecated(
        note = "frames run on the backend's worker pool; size it with EngineConfig::shards"
    )]
    pub fn with_dispatch_threads(self, _dispatch_threads: usize) -> Self {
        self
    }

    fn normalized(self) -> Self {
        let poll_interval = self.poll_interval.max(Duration::from_millis(1));
        let poll_tick = self.poll_tick.max(Duration::from_millis(1));
        // Deadlines below the poll granularity cannot be observed.
        let granularity = poll_interval.max(poll_tick);
        Self {
            max_in_flight: self.max_in_flight.max(1),
            max_connections: self.max_connections.max(1),
            poll_interval,
            poll_tick,
            idle_timeout: self.idle_timeout.max(granularity),
            frame_deadline: self.frame_deadline.max(granularity),
            write_high_water: self.write_high_water.max(4096),
            max_events_per_tick: self.max_events_per_tick.max(1),
            ..self
        }
    }
}

/// The [`DegradedStats`] ledger, registered in the server's metrics
/// registry under `wire.degraded.*` — one shared set of counters backs
/// both the exact per-server `Stats` snapshot and the `Metrics` scrape.
pub(crate) struct DegradedCounters {
    pub(crate) busy_budget: Counter,
    pub(crate) shed_watermark: Counter,
    pub(crate) refused_connections: Counter,
    pub(crate) evicted_idle: Counter,
    pub(crate) evicted_stalled: Counter,
    pub(crate) unknown_tenant: Counter,
    pub(crate) non_finite: Counter,
}

impl DegradedCounters {
    fn new(registry: &MetricsRegistry) -> Self {
        Self {
            busy_budget: registry.counter("wire.degraded.busy_budget"),
            shed_watermark: registry.counter("wire.degraded.shed_watermark"),
            refused_connections: registry.counter("wire.degraded.refused_connections"),
            evicted_idle: registry.counter("wire.degraded.evicted_idle"),
            evicted_stalled: registry.counter("wire.degraded.evicted_stalled"),
            unknown_tenant: registry.counter("wire.degraded.unknown_tenant"),
            non_finite: registry.counter("wire.degraded.non_finite"),
        }
    }

    fn snapshot(&self) -> DegradedStats {
        DegradedStats {
            busy_budget: self.busy_budget.get(),
            shed_watermark: self.shed_watermark.get(),
            refused_connections: self.refused_connections.get(),
            evicted_idle: self.evicted_idle.get(),
            evicted_stalled: self.evicted_stalled.get(),
            unknown_tenant: self.unknown_tenant.get(),
            non_finite: self.non_finite.get(),
        }
    }
}

/// Per-request-opcode counters (`wire.requests.*`), indexed by opcode
/// byte (the requests are `0x01..=0x0B`) and resolved once at
/// construction so the hot path never touches the registry's lock.
struct OpcodeCounters(Vec<Counter>);

impl OpcodeCounters {
    fn new(registry: &MetricsRegistry) -> Self {
        Self(
            (1..=Opcode::Metrics as u8)
                .map(|byte| Opcode::from_wire(byte).expect("request opcodes are contiguous"))
                .map(|op| registry.counter(&format!("wire.requests.{}", op.name())))
                .collect(),
        )
    }

    /// The counter for a request opcode; `None` for response opcodes
    /// (which never arrive at a server as requests worth counting).
    fn get(&self, opcode: Opcode) -> Option<&Counter> {
        opcode.is_request().then(|| &self.0[opcode as usize - 1])
    }
}

/// The server's observability surface: its own metrics registry (merged
/// with the process-global one at scrape time), the slow-request log, and
/// the pre-resolved hot-path handles.
pub(crate) struct ServerObs {
    pub(crate) registry: MetricsRegistry,
    pub(crate) slow: SlowLog,
    ops: OpcodeCounters,
    /// End-to-end wire latency per request (frame read through response
    /// write), in nanoseconds; zero-valued when the `obs` clock is off.
    pub(crate) request_ns: Arc<LatencyHistogram>,
}

impl ServerObs {
    fn new(config: &WireConfig) -> Self {
        let registry = MetricsRegistry::new();
        let threshold_ns =
            u64::try_from(config.slow_request_threshold.as_nanos()).unwrap_or(u64::MAX);
        Self {
            slow: SlowLog::new(SLOW_LOG_CAPACITY, threshold_ns),
            ops: OpcodeCounters::new(&registry),
            request_ns: registry.histogram("wire.request_ns"),
            registry,
        }
    }
}

/// What a [`WireServer`] dispatches decoded frames into — the typed
/// choice [`WireServer::builder`] is constructed over. Anything that
/// converts into a `Backend` (an engine, an `Arc`'d engine, a registry)
/// can be passed to the builder directly.
#[non_exhaustive]
pub enum Backend {
    /// One engine; every work frame goes to it (tenant routes refused).
    Engine(Arc<MonitorEngine<ComposedMonitor>>),
    /// A multi-tenant registry; work frames dispatch by their route.
    Registry(Arc<MonitorRegistry>),
}

impl Backend {
    /// The worker pool the backend serves on — where the reactor runs
    /// every connection job.
    pub(crate) fn pool(&self) -> &Arc<WorkerPool> {
        match self {
            Backend::Engine(engine) => engine.pool(),
            Backend::Registry(registry) => registry.pool(),
        }
    }
}

impl From<MonitorEngine<ComposedMonitor>> for Backend {
    fn from(engine: MonitorEngine<ComposedMonitor>) -> Self {
        Backend::Engine(Arc::new(engine))
    }
}

impl From<Arc<MonitorEngine<ComposedMonitor>>> for Backend {
    fn from(engine: Arc<MonitorEngine<ComposedMonitor>>) -> Self {
        Backend::Engine(engine)
    }
}

impl From<Arc<MonitorRegistry>> for Backend {
    fn from(registry: Arc<MonitorRegistry>) -> Self {
        Backend::Registry(registry)
    }
}

impl From<MonitorRegistry> for Backend {
    fn from(registry: MonitorRegistry) -> Self {
        Backend::Registry(Arc::new(registry))
    }
}

/// State shared by the reactor and every connection job.
pub(crate) struct Shared {
    pub(crate) backend: Backend,
    pub(crate) config: WireConfig,
    pub(crate) shutting_down: AtomicBool,
    /// Connection jobs carrying work that are on the pool (queued or
    /// running) — each serves one request at a time.
    in_flight: AtomicUsize,
    pub(crate) degraded: DegradedCounters,
    pub(crate) obs: ServerObs,
    /// Where connection jobs post their encoded replies for the reactor.
    pub(crate) completions: Arc<CompletionQueue>,
}

impl Shared {
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    /// Runs the admission ladder on a connection job's fully-read frames
    /// as the reactor hands them to the pool (never mid-frame, so a shed
    /// leaves the stream framed and usable). Returns the in-flight slot
    /// the job took, if it took one; the job holds it until it is done.
    ///
    /// Only work requests (`Query`, `QueryBatch`, `Absorb`) are gated;
    /// control-plane frames always pass. Two gates: the backend pool's
    /// backlog against the queue watermark — shedding at the wire before
    /// the pool saturates, so work already queued keeps its latency —
    /// then the in-flight budget, one slot per job, since a job serves
    /// its frames one at a time. A refused job's work requests are each
    /// answered `Busy` (and counted); the rest of the job is served.
    pub(crate) fn admit(self: &Arc<Self>, items: &mut [JobItem]) -> Option<Slot> {
        let is_work = |item: &JobItem| {
            matches!(&item.kind, JobKind::Serve(frame)
                if matches!(frame.opcode, Opcode::Query | Opcode::QueryBatch | Opcode::Absorb))
        };
        let work = items.iter().filter(|item| is_work(item)).count() as u64;
        if work == 0 {
            return None;
        }
        let clamp = |n: usize| n.min(u32::MAX as usize) as u32;
        let watermark = self.config.queue_watermark;
        let backlog = self.backend.pool().queued();
        let busy = if watermark > 0 && backlog > watermark {
            self.degraded.shed_watermark.add(work);
            Response::Busy {
                in_flight: clamp(backlog),
                budget: clamp(watermark),
            }
        } else {
            let budget = self.config.max_in_flight;
            let prev = self.in_flight.fetch_add(1, Ordering::AcqRel);
            if prev < budget {
                return Some(Slot(Arc::clone(self)));
            }
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            self.degraded.busy_budget.add(work);
            Response::Busy {
                in_flight: clamp(prev),
                budget: clamp(budget),
            }
        };
        for item in items.iter_mut().filter(|item| is_work(item)) {
            item.shed = Some(busy.clone());
        }
        None
    }

    /// Counts a routing miss and builds its typed error response.
    fn unknown_tenant_response(&self, message: String) -> Response {
        self.degraded.unknown_tenant.inc();
        Response::Error {
            code: ErrorCode::UnknownTenant,
            message,
        }
    }
}

/// A job's in-flight slot, returned on drop — whether the job ran,
/// unwound, or was dropped unrun by a shut-down pool.
pub(crate) struct Slot(Arc<Shared>);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Staged construction for a [`WireServer`]: pick the [`Backend`], tune
/// the [`WireConfig`], bind.
///
/// ```no_run
/// # use napmon_wire::{WireServer, WireConfig};
/// # fn demo(engine: napmon_serve::MonitorEngine<napmon_core::ComposedMonitor>) -> Result<(), napmon_wire::WireError> {
/// let server = WireServer::builder(engine)
///     .config(WireConfig::default().with_max_in_flight(64))
///     .bind("127.0.0.1:0")?;
/// # drop(server); Ok(()) }
/// ```
#[must_use = "a builder does nothing until bound"]
pub struct WireServerBuilder {
    backend: Backend,
    config: WireConfig,
}

impl WireServerBuilder {
    /// Replaces the default [`WireConfig`].
    pub fn config(mut self, config: WireConfig) -> Self {
        self.config = config;
        self
    }

    /// Binds `addr` and starts serving. Bind to port 0 for an
    /// OS-assigned port ([`WireServer::local_addr`] reports it).
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the address cannot be bound or the reactor's
    /// wake channel cannot be created.
    pub fn bind(self, addr: impl ToSocketAddrs) -> Result<WireServer, WireError> {
        WireServer::bind_backend(addr, self.backend, self.config)
    }
}

/// A live TCP monitoring service over one [`MonitorEngine`] or a
/// [`MonitorRegistry`].
///
/// Construction binds and starts accepting; the server runs until a
/// client sends `Shutdown` or the owner calls [`WireServer::shutdown`].
/// Either way the same drain runs: connections finish their started
/// frames, the backend drains, and the final [`ServeReport`] comes back
/// to the owner.
pub struct WireServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
}

impl WireServer {
    /// Starts building a server over `backend` — a
    /// [`MonitorEngine`], an `Arc` of one, a [`MonitorRegistry`] `Arc`,
    /// or an explicit [`Backend`].
    pub fn builder(backend: impl Into<Backend>) -> WireServerBuilder {
        WireServerBuilder {
            backend: backend.into(),
            config: WireConfig::default(),
        }
    }

    fn bind_backend(
        addr: impl ToSocketAddrs,
        backend: Backend,
        config: WireConfig,
    ) -> Result<Self, WireError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let config = config.normalized();
        let obs = ServerObs::new(&config);
        let (completions, wake_rx) = CompletionQueue::new()?;
        let shared = Arc::new(Shared {
            backend,
            config,
            shutting_down: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            degraded: DegradedCounters::new(&obs.registry),
            obs,
            completions,
        });
        let reactor = Reactor::new(listener, Arc::clone(&shared), wake_rx);
        let reactor = std::thread::Builder::new()
            .name("napmon-wire-reactor".to_string())
            .spawn(move || reactor.run())
            .expect("spawn wire reactor");
        Ok(Self {
            addr,
            shared,
            reactor: Some(reactor),
        })
    }

    /// Cold start: loads and validates a [`MonitorArtifact`] file, mounts
    /// it on a fresh engine, and serves it — the whole "deploy a monitor
    /// from one file" path. Store-backed artifacts reattach to their
    /// on-disk segments, so this is also the warm-restart entry point.
    ///
    /// # Errors
    ///
    /// Any [`ArtifactError`] from the load, or [`WireError::Io`] (inside
    /// `ArtifactError::Io`) if the address cannot be bound.
    pub fn serve_artifact_file(
        path: impl AsRef<Path>,
        addr: impl ToSocketAddrs,
        engine_config: EngineConfig,
        wire_config: WireConfig,
    ) -> Result<Self, ArtifactError> {
        let engine = MonitorEngine::from_artifact_file(path, engine_config)?;
        Self::builder(engine)
            .config(wire_config)
            .bind(addr)
            .map_err(|e| match e {
                WireError::Io(io) => ArtifactError::Io(io),
                other => ArtifactError::Io(std::io::Error::other(other.to_string())),
            })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served engine on a single-engine server; `None` on a registry
    /// backend (use [`WireServer::registry`]).
    pub fn engine(&self) -> Option<&MonitorEngine<ComposedMonitor>> {
        match &self.shared.backend {
            Backend::Engine(engine) => Some(engine),
            Backend::Registry(_) => None,
        }
    }

    /// The served registry on a registry server; `None` on a
    /// single-engine backend.
    pub fn registry(&self) -> Option<&Arc<MonitorRegistry>> {
        match &self.shared.backend {
            Backend::Engine(_) => None,
            Backend::Registry(registry) => Some(registry),
        }
    }

    /// Whether a shutdown has been initiated (by a client or the owner).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down()
    }

    /// Blocks until a client initiates shutdown, then drains and returns
    /// the backend's final report (see [`WireServer::shutdown`]).
    pub fn wait(self) -> ServeReport {
        while !self.shared.shutting_down() {
            std::thread::sleep(self.shared.config.poll_interval);
        }
        self.shutdown()
    }

    /// Graceful shutdown from the owning side: stops accepting, lets every
    /// connection finish its started frames, drains the backend, and
    /// returns the final aggregated report (its `queue_depth` is zero —
    /// the drain guarantee). On a registry backend the report merges every
    /// engine the registry ever ran — live tenants plus hot-swap retirees;
    /// [`WireServer::shutdown_registry`] keeps the per-engine account.
    pub fn shutdown(self) -> ServeReport {
        match self.drain() {
            BackendReport::Single(report) => report,
            BackendReport::Registry(report) => ServeReport::merge(
                report
                    .tenants
                    .into_iter()
                    .chain(report.retired)
                    .map(|outcome| outcome.report),
            ),
        }
    }

    /// [`WireServer::shutdown`] returning the registry's full structured
    /// account (per-tenant and per-retiree drain outcomes). Returns
    /// `None` on a single-engine server — *after* draining it; the server
    /// is down either way.
    pub fn shutdown_registry(self) -> Option<RegistryReport> {
        match self.drain() {
            BackendReport::Single(_) => None,
            BackendReport::Registry(report) => Some(report),
        }
    }

    /// The one drain path: joins the reactor (which exits once every
    /// connection has finished or spent its grace), waits for connection
    /// jobs still on the pool (bounded by the drain grace), and only then
    /// tears the backend down. The ordering is the thread-leak guarantee
    /// for shutdown-during-hot-swap: once no connection job is left, no
    /// dispatcher can still be submitting into an outgoing engine, and
    /// [`MonitorRegistry::shutdown`] settles every retired engine and
    /// stops the pool before returning.
    fn drain(mut self) -> BackendReport {
        self.shared.shutting_down.store(true, Ordering::Release);
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        // Connection jobs hold the shared state while they run. Once they
        // are done this owner holds the last handle at both levels; past
        // the grace the fallbacks snapshot rather than hang in a shutdown
        // path. The registry arm needs no unwrap:
        // `MonitorRegistry::shutdown` takes `&self` and is idempotent, so
        // caller-held clones are fine.
        let deadline = std::time::Instant::now() + self.shared.config.drain_grace;
        while Arc::strong_count(&self.shared) > 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(self.shared.config.poll_interval);
        }
        let WireServer { shared, .. } = self;
        match Arc::try_unwrap(shared) {
            Ok(shared) => match shared.backend {
                Backend::Engine(engine) => BackendReport::Single(match Arc::try_unwrap(engine) {
                    Ok(engine) => engine.shutdown(),
                    Err(engine) => engine.report(),
                }),
                Backend::Registry(registry) => BackendReport::Registry(registry.shutdown()),
            },
            Err(shared) => match &shared.backend {
                Backend::Engine(engine) => BackendReport::Single(engine.report()),
                Backend::Registry(registry) => BackendReport::Registry(registry.shutdown()),
            },
        }
    }
}

/// What [`WireServer::drain`] tore down.
enum BackendReport {
    Single(ServeReport),
    Registry(RegistryReport),
}

/// One connection job, run on the backend's pool: serves each frame
/// against the backend in order, encodes the replies, and posts the bytes
/// back to the reactor.
pub(crate) fn serve_job(shared: &Shared, job: Job) {
    let picked_up = napmon_obs::now_ns();
    let frames = job.items.len() as u64;
    let mut bytes = Vec::new();
    let mut close = false;
    let mut initiated_shutdown = false;
    for item in job.items {
        if item.trace_id != 0 && napmon_obs::tracing_enabled() {
            napmon_obs::record_span(
                item.trace_id,
                SpanKind::QueueWait,
                job.enqueued_ns,
                picked_up.saturating_sub(job.enqueued_ns),
                frames,
            );
        }
        let (response, wants_shutdown) = match item.kind {
            JobKind::Serve(ref frame) => serve_frame(frame, shared, item.trace_id, item.shed),
            JobKind::Reject(response) => (response, false),
        };
        let respond_started = napmon_obs::now_ns();
        let response_opcode = response.opcode();
        match response
            .into_frame(item.request_id)
            .map(|f| f.traced(item.echo_trace))
            .and_then(|f| f.encode())
        {
            Ok(reply) => {
                bytes.extend_from_slice(&reply);
                let finished = napmon_obs::now_ns();
                let total_ns = finished.saturating_sub(item.decode_started);
                shared.obs.request_ns.record(total_ns);
                if let Some(trace_id) = item.echo_trace {
                    if napmon_obs::tracing_enabled() {
                        napmon_obs::record_span(
                            trace_id,
                            SpanKind::WireRespond,
                            respond_started,
                            finished.saturating_sub(respond_started),
                            response_opcode as u8 as u64,
                        );
                    }
                }
                // Untraced requests log under trace id 0 — the slow log
                // works with tracing off, it just cannot name the trace.
                shared
                    .obs
                    .slow
                    .observe(item.echo_trace.unwrap_or(0), item.opcode.name(), total_ns);
            }
            Err(_) => {
                close = true;
            }
        }
        if wants_shutdown {
            initiated_shutdown = true;
            close = true;
        }
        // Frames pipelined behind a shutdown (or an unencodable reply) go
        // unserved — the connection is closing.
        if close {
            break;
        }
    }
    // The slot goes back before the reply can prompt the connection's
    // next job.
    drop(job.slot);
    shared.completions.post(Completion {
        conn: job.conn,
        bytes,
        close,
        initiated_shutdown,
    });
}

/// Serves one decoded frame; the bool reports whether it asked for
/// shutdown. `trace_id` (0 = untraced) names the request's spans.
fn serve_frame(
    frame: &Frame,
    shared: &Shared,
    trace_id: u64,
    shed: Option<Response>,
) -> (Response, bool) {
    let request = match Request::decode(frame) {
        Ok(request) => request,
        Err(e) => {
            return (
                Response::Error {
                    code: e.as_code(),
                    message: e.to_string(),
                },
                false,
            )
        }
    };
    if let Some(counter) = shared.obs.ops.get(frame.opcode) {
        counter.inc();
    }
    let inputs = match &request {
        Request::Query(_) => 1,
        Request::QueryBatch(inputs) => inputs.len() as u64,
        _ => 0,
    };
    let started = napmon_obs::now_ns();
    let served = match &shared.backend {
        Backend::Engine(engine) => {
            serve_single(engine, frame.route.as_ref(), request, shared, shed)
        }
        Backend::Registry(registry) => {
            serve_registry(registry, frame.route.as_ref(), request, shared, shed)
        }
    };
    // The verdict span covers the backend call that produced verdicts.
    if trace_id != 0
        && napmon_obs::tracing_enabled()
        && matches!(served.0, Response::Verdict(_) | Response::Verdicts(_))
    {
        napmon_obs::record_span(
            trace_id,
            SpanKind::Verdict,
            started,
            napmon_obs::now_ns().saturating_sub(started),
            inputs,
        );
    }
    served
}

/// Runs an admitted work request, or answers the `Busy` the reactor shed
/// it with.
fn admitted(shed: Option<Response>, work: impl FnOnce() -> Response) -> (Response, bool) {
    (shed.unwrap_or_else(work), false)
}

/// Single-engine dispatch. Tenant routes have no meaning here: a routed
/// frame gets a typed `UnknownTenant` error (accounted as a routing
/// miss), so a client configured for a registry deployment fails loudly
/// instead of silently landing on the wrong monitor.
fn serve_single(
    engine: &Arc<MonitorEngine<ComposedMonitor>>,
    route: Option<&TenantRoute>,
    request: Request,
    shared: &Shared,
    shed: Option<Response>,
) -> (Response, bool) {
    if let Some(route) = route {
        return (
            shared.unknown_tenant_response(format!(
                "this server serves a single engine, not tenant {route}; \
                 drop the route or connect to a registry server"
            )),
            false,
        );
    }
    match request {
        Request::Query(input) => admitted(shed, || {
            engine
                .submit(input)
                .map(Response::Verdict)
                .unwrap_or_else(|e| serve_error_response(shared, &e))
        }),
        Request::QueryBatch(inputs) => admitted(shed, || {
            engine
                .submit_batch(inputs)
                .map(Response::Verdicts)
                .unwrap_or_else(|e| serve_error_response(shared, &e))
        }),
        Request::Absorb(inputs) => admitted(shed, || {
            engine
                .absorb_batch(&inputs)
                .map(|fresh| Response::Absorbed(fresh as u64))
                .unwrap_or_else(|e| serve_error_response(shared, &e))
        }),
        Request::Stats => (stats_response(engine.report(), shared), false),
        Request::Shutdown => (Response::ShuttingDown, true),
        Request::Metrics => (metrics_response(shared), false),
        Request::Mount { .. }
        | Request::Unmount
        | Request::Promote
        | Request::ListTenants
        | Request::ShadowStats => (
            Response::Error {
                code: ErrorCode::UnsupportedOpcode,
                message: "registry operation on a single-engine server; \
                          mount/unmount/promote need a registry backend"
                    .to_string(),
            },
            false,
        ),
    }
}

/// Registry dispatch. Work opcodes *require* a tenant route;
/// [`ACTIVE_VERSION`] routes through the mirroring hot path, a pinned
/// version addresses one mount (active or shadow) directly with no
/// mirroring. Admin opcodes bypass the work budget — the control plane
/// stays responsive while the data plane sheds.
fn serve_registry(
    registry: &Arc<MonitorRegistry>,
    route: Option<&TenantRoute>,
    request: Request,
    shared: &Shared,
    shed: Option<Response>,
) -> (Response, bool) {
    let require_route = |what: &str| -> Result<TenantRoute, Response> {
        route.cloned().ok_or_else(|| {
            shared.unknown_tenant_response(format!(
                "{what} frame arrived unrouted on a registry server; \
                 set a tenant route to name the target monitor"
            ))
        })
    };
    match request {
        Request::Query(input) => {
            let route = match require_route("query") {
                Ok(route) => route,
                Err(response) => return (response, false),
            };
            admitted(shed, || {
                let served = if route.version == ACTIVE_VERSION {
                    registry.query(&route.model_id, input)
                } else {
                    registry
                        .query_batch_version(&route.model_id, route.version, vec![input])
                        .and_then(|mut verdicts| {
                            verdicts
                                .pop()
                                .ok_or(RegistryError::Serve(napmon_serve::ServeError::ShardDown))
                        })
                };
                served
                    .map(Response::Verdict)
                    .unwrap_or_else(|e| registry_error_response(shared, &e))
            })
        }
        Request::QueryBatch(inputs) => {
            let route = match require_route("query-batch") {
                Ok(route) => route,
                Err(response) => return (response, false),
            };
            admitted(shed, || {
                let served = if route.version == ACTIVE_VERSION {
                    registry.query_batch(&route.model_id, inputs)
                } else {
                    registry.query_batch_version(&route.model_id, route.version, inputs)
                };
                served
                    .map(Response::Verdicts)
                    .unwrap_or_else(|e| registry_error_response(shared, &e))
            })
        }
        Request::Absorb(inputs) => {
            let route = match require_route("absorb") {
                Ok(route) => route,
                Err(response) => return (response, false),
            };
            admitted(shed, || {
                let absorbed = if route.version == ACTIVE_VERSION {
                    registry.absorb_batch(&route.model_id, inputs)
                } else {
                    // A pinned absorb feeds one mount only; mirroring is
                    // the active route's contract.
                    registry
                        .resolve(&route.model_id, route.version)
                        .and_then(|mounted| {
                            mounted.engine().absorb_batch(&inputs).map_err(Into::into)
                        })
                };
                absorbed
                    .map(|fresh| Response::Absorbed(fresh as u64))
                    .unwrap_or_else(|e| registry_error_response(shared, &e))
            })
        }
        Request::Stats => match route {
            // A routed Stats reports one mount; unrouted merges every
            // tenant's active engine.
            Some(route) => match registry.resolve(&route.model_id, route.version) {
                Ok(mounted) => (stats_response(mounted.engine().report(), shared), false),
                Err(e) => (registry_error_response(shared, &e), false),
            },
            None => (stats_response(registry.stats(), shared), false),
        },
        Request::Shutdown => (Response::ShuttingDown, true),
        Request::Mount {
            shadow,
            artifact_json,
        } => {
            let route = match require_route("mount") {
                Ok(route) => route,
                Err(response) => return (response, false),
            };
            let mounted = MonitorArtifact::from_json_str(&artifact_json)
                .map_err(RegistryError::from)
                .and_then(|artifact| {
                    if shadow {
                        registry.mount_shadow(&route.model_id, route.version, artifact)
                    } else {
                        registry.mount(&route.model_id, route.version, artifact)
                    }
                });
            (
                mounted
                    .map(|()| Response::Mounted)
                    .unwrap_or_else(|e| registry_error_response(shared, &e)),
                false,
            )
        }
        Request::Unmount => {
            let route = match require_route("unmount") {
                Ok(route) => route,
                Err(response) => return (response, false),
            };
            (
                registry
                    .unmount(&route.model_id)
                    .map(|report| Response::Unmounted(Box::new(report)))
                    .unwrap_or_else(|e| registry_error_response(shared, &e)),
                false,
            )
        }
        Request::Promote => {
            let route = match require_route("promote") {
                Ok(route) => route,
                Err(response) => return (response, false),
            };
            (
                registry
                    .promote(&route.model_id)
                    .map(|report| Response::Promoted(Box::new(report)))
                    .unwrap_or_else(|e| registry_error_response(shared, &e)),
                false,
            )
        }
        Request::Metrics => (metrics_response(shared), false),
        Request::ListTenants => (Response::TenantList(registry.list()), false),
        Request::ShadowStats => {
            let route = match require_route("shadow-stats") {
                Ok(route) => route,
                Err(response) => return (response, false),
            };
            (
                registry
                    .shadow_stats(&route.model_id)
                    .map(|report| Response::ShadowReport(Box::new(report)))
                    .unwrap_or_else(|e| registry_error_response(shared, &e)),
                false,
            )
        }
    }
}

/// Builds the `Metrics` scrape: the server's registry merged with the
/// process-global one, the text exposition, the slow-request log, and
/// the recent trace spans. Control plane, not data plane — it bypasses
/// the admission ladder so observability answers while the server sheds.
fn metrics_response(shared: &Shared) -> Response {
    Response::Metrics(Box::new(ObsReport::capture(
        &shared.obs.registry,
        &shared.obs.slow,
    )))
}

/// Builds a `Stats` response around the given engine-side report.
fn stats_response(engine: ServeReport, shared: &Shared) -> Response {
    let degraded = shared.degraded.snapshot();
    Response::Stats(Box::new(StatsSnapshot {
        engine_queue_depth: engine.queue_depth,
        engine,
        wire_in_flight: shared.in_flight.load(Ordering::Acquire) as u32,
        wire_budget: shared.config.max_in_flight as u32,
        wire_busy_rejections: degraded.busy_total(),
        degraded,
    }))
}

/// Builds the typed error for a failed engine call.
fn serve_error_response(shared: &Shared, e: &ServeError) -> Response {
    count_non_finite(shared, e);
    Response::Error {
        code: serve_error_code(e),
        message: e.to_string(),
    }
}

/// Builds the typed error for a registry refusal, counting routing misses
/// in [`DegradedStats::unknown_tenant`].
fn registry_error_response(shared: &Shared, e: &RegistryError) -> Response {
    let code = registry_error_code(e);
    if code == ErrorCode::UnknownTenant {
        shared.degraded.unknown_tenant.inc();
    }
    if let RegistryError::Serve(serve) = e {
        count_non_finite(shared, serve);
    }
    Response::Error {
        code,
        message: e.to_string(),
    }
}

/// Counts a work request refused for a NaN or infinite input (or
/// feature) in [`DegradedStats::non_finite`].
fn count_non_finite(shared: &Shared, e: &ServeError) {
    if matches!(e, ServeError::Monitor(MonitorError::NonFinite { .. })) {
        shared.degraded.non_finite.inc();
    }
}
