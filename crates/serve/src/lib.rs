//! Long-lived, sharded serving of activation-pattern monitors.
//!
//! The paper's monitors run *in operation time* next to a deployed DNN:
//! every inference is checked against the frozen abstraction, indefinitely.
//! The batch APIs in `napmon-core` answer "what are the verdicts for this
//! input set?"; this crate answers the serving question — "keep a monitor
//! hot and answer submissions as they arrive, at production rates".
//!
//! [`MonitorEngine`] owns a [`Network`](napmon_nn::Network) and a monitor
//! behind `Arc` and fans submissions out to a fixed set of worker *shards*
//! over `std::sync::mpsc` channels. Each shard is one OS thread holding one
//! [`QueryScratch`](napmon_core::QueryScratch) for its whole lifetime, so
//! the steady-state query path — forward pass, abstraction, membership —
//! touches the heap exactly never per request (verified by the allocation-
//! counting test in `tests/alloc.rs`). Batches are micro-batched: a
//! [`MonitorEngine::submit_batch`] call is split into per-shard chunks so
//! channel traffic is O(shards), not O(requests).
//!
//! Each shard keeps online metrics (request count, warning rate, per-item
//! latency and micro-batch size histograms via
//! [`napmon_obs::HistogramSnapshot`]); [`MonitorEngine::report`]
//! aggregates them into a [`ServeReport`] without pausing the stream, and
//! [`MonitorEngine::shutdown`] closes the channels, drains every queued
//! job, and returns the final report. With the `obs` feature enabled the
//! `*_traced` submission entry points additionally emit queue-wait and
//! verdict spans into `napmon-obs`'s per-thread trace rings under the
//! caller's request trace id.
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
pub mod report;

pub use engine::{EngineConfig, MonitorEngine, PendingBatch, ServeError};
pub use report::{ServeReport, ShardReport};
