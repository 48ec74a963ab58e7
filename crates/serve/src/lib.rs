//! Long-lived serving of activation-pattern monitors on one worker pool.
//!
//! The paper's monitors run *in operation time* next to a deployed DNN:
//! every inference is checked against the frozen abstraction, indefinitely.
//! The batch APIs in `napmon-core` answer "what are the verdicts for this
//! input set?"; this crate answers the serving question — "keep a monitor
//! hot and answer submissions as they arrive, at production rates".
//!
//! [`MonitorEngine`] owns a [`Network`](napmon_nn::Network) and a monitor
//! behind `Arc` and serves them on a [`WorkerPool`]: N named threads
//! sharing one job queue, each holding one
//! [`QueryScratch`](napmon_core::QueryScratch) for its whole lifetime, so
//! the steady-state query path — forward pass, abstraction, membership —
//! touches the heap exactly never per request (verified by the
//! allocation-counting test in `tests/alloc.rs`). A standalone engine owns
//! its pool; [`MonitorEngine::on_pool`] shares one, which is how a
//! registry serves every mount and how a wire server runs its connection
//! jobs on the same threads that compute the verdicts.
//!
//! A [`MonitorEngine::submit_batch`] is cut into micro-batch chunks that
//! idle pool workers claim. One rule keeps a shared pool deadlock-free:
//! **no pool job waits on a job still queued.** A thread that already
//! holds a serving scratch — a pool worker, or a thread inside
//! [`with_serving_scratch`] — serves every chunk nobody else has claimed
//! itself, and so only waits on chunks already being served. A wire frame
//! thus starts on the worker that took it and spreads over whichever
//! workers are idle.
//!
//! The engine keeps shared counters (request count, warnings, per-item
//! latency and micro-batch size histograms via
//! [`napmon_obs::LatencyHistogram`]); [`MonitorEngine::report`] reads
//! them into a [`ServeReport`] without touching the pool, and
//! [`MonitorEngine::shutdown`] waits out every queued chunk and returns
//! the final report.
//!
//! # Example
//!
//! ```
//! use napmon_core::{MonitorKind, MonitorSpec};
//! use napmon_nn::{Activation, LayerSpec, Network};
//! use napmon_serve::{EngineConfig, MonitorEngine};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = Network::seeded(7, 4, &[
//!     LayerSpec::dense(8, Activation::Relu),
//!     LayerSpec::dense(2, Activation::Identity),
//! ]);
//! let train: Vec<Vec<f64>> = (0..32)
//!     .map(|i| (0..4).map(|j| ((i + j) % 8) as f64 / 8.0).collect())
//!     .collect();
//! let monitor = MonitorSpec::new(2, MonitorKind::pattern()).build(&net, &train)?;
//!
//! let engine = MonitorEngine::new(net, monitor, EngineConfig::with_shards(2));
//! let verdicts = engine.submit_batch(train.clone())?;
//! assert!(verdicts.iter().all(|v| !v.warning));
//! let report = engine.shutdown();
//! assert_eq!(report.requests, 32);
//! # Ok(())
//! # }
//! ```

pub mod engine;
pub mod pool;
pub mod report;

pub use engine::{EngineConfig, MonitorEngine, PendingBatch, ServeError};
pub use pool::{with_serving_scratch, WorkerPool};
pub use report::ServeReport;
