//! # napmon — provably-robust runtime monitoring of neuron activation patterns
//!
//! A Rust reproduction of *"Provably-Robust Runtime Monitoring of Neuron
//! Activation Patterns"* (Chih-Hong Cheng, DATE 2021). The crate is a facade
//! that re-exports the workspace members:
//!
//! - [`tensor`] — dense vectors/matrices and RNG utilities,
//! - [`nn`] — feed-forward networks, training, and layer-sliced evaluation
//!   (`G^k`, `G^{l->k}` in the paper's notation),
//! - [`absint`] — abstract domains (interval/box, zonotope, DeepPoly-style
//!   polyhedra, star set) used to compute the perturbation estimate of
//!   Definition 1,
//! - [`bdd`] — reduced ordered binary decision diagrams storing pattern sets,
//! - [`core`] — the monitors themselves: min-max, Boolean on-off patterns and
//!   multi-bit interval patterns, each with standard and robust construction,
//!   built from a declarative [`MonitorSpec`](core::MonitorSpec),
//! - [`artifact`] — versioned deployment artifacts: spec + network + built
//!   monitor in one validated file (build → save → load → serve),
//! - [`store`] — the persistent log-structured pattern store: checksummed
//!   segments + Bloom filters + atomic manifest, so pattern sets survive
//!   restarts, scale past RAM budgets, and grow at operation time,
//! - [`data`] — synthetic datasets standing in for the paper's race-track lab,
//! - [`eval`] — the experiment harness regenerating the paper's evaluation,
//! - [`serve`] — the long-lived sharded serving engine keeping a monitor hot
//!   next to a deployed network (bootable straight from an artifact file),
//! - [`wire`] — the network boundary: a framed binary TCP protocol serving
//!   the engine to remote clients (query, absorb, stats, graceful shutdown).
//!
//! ## Quickstart: spec-first
//!
//! The construction API is *spec-first*: describe the whole monitor build
//! as data ([`MonitorSpec`](core::MonitorSpec)), build it, and — when it is
//! time to deploy — package it as a versioned
//! [`MonitorArtifact`](artifact::MonitorArtifact) that a fresh process can
//! load and mount.
//!
//! ```
//! use napmon::absint::Domain;
//! use napmon::artifact::MonitorArtifact;
//! use napmon::core::{Monitor, MonitorKind, MonitorSpec};
//! use napmon::nn::{Activation, LayerSpec, Network};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A tiny trained-elsewhere network: 4 -> 8 -> 2 with ReLU.
//! let net = Network::seeded(42, 4, &[
//!     LayerSpec::dense(8, Activation::Relu),
//!     LayerSpec::dense(2, Activation::Identity),
//! ]);
//! // Training data (here: random points standing in for a real set).
//! let train: Vec<Vec<f64>> = (0..64)
//!     .map(|i| (0..4).map(|j| ((i * 7 + j * 3) % 10) as f64 / 10.0).collect())
//!     .collect();
//!
//! // The whole build, declared as data: a robust on-off pattern monitor
//! // at the last hidden layer, tolerating input perturbations up to 0.05
//! // per dimension.
//! let spec = MonitorSpec::new(1, MonitorKind::pattern()).robust(0.05, 0, Domain::Box);
//! let monitor = spec.build(&net, &train)?;
//! // Inputs near the training data never warn (Lemma 1)...
//! assert!(!monitor.verdict(&net, &train[0])?.warning);
//!
//! // ...and the deployment unit is one validated, versioned file:
//! let artifact = MonitorArtifact::build(spec, &net, &train)?;
//! let json = artifact.to_json_string()?;
//! let reloaded = MonitorArtifact::from_json_str(&json)?;
//! assert!(!reloaded.monitor().verdict(reloaded.network(), &train[0])?.warning);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/artifact_roundtrip.rs` for the full build → save → load →
//! serve pipeline, including `MonitorEngine::from_artifact`.

pub use napmon_absint as absint;
pub use napmon_artifact as artifact;
pub use napmon_bdd as bdd;
pub use napmon_core as core;
pub use napmon_data as data;
pub use napmon_eval as eval;
pub use napmon_nn as nn;
pub use napmon_obs as obs;
pub use napmon_registry as registry;
pub use napmon_serve as serve;
pub use napmon_store as store;
pub use napmon_tensor as tensor;
pub use napmon_wire as wire;
