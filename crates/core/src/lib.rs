//! Provably-robust runtime monitors of neuron activation patterns.
//!
//! This crate is the primary contribution of *"Provably-Robust Runtime
//! Monitoring of Neuron Activation Patterns"* (Cheng, DATE 2021). A monitor
//! watches the neuron values of one network boundary (`G^k` in the paper's
//! notation) and answers, per operational input, *"is this activation
//! pattern consistent with anything seen over the training set?"* — a
//! warning means provably **no** training input produced a close-by
//! feature vector, which is the sound out-of-distribution signal the paper
//! builds on.
//!
//! Three monitor families are provided, each in a *standard* and a *robust*
//! construction:
//!
//! | family | abstraction | reference |
//! |---|---|---|
//! | [`MinMaxMonitor`] | per-neuron `[min, max]` over the training set | Henzinger et al., ECAI 2020 |
//! | [`PatternMonitor`] | Boolean on/off words in a BDD (or hash set) | Cheng et al., DATE 2019 |
//! | [`IntervalPatternMonitor`] | multi-bit interval words in a BDD | **this paper**, §III-C |
//!
//! The *robust* construction (§III-B) replaces each training feature vector
//! with the **perturbation estimate** of Definition 1
//! ([`perturbation_estimate`]): a sound per-neuron enclosure of every value
//! the monitored layer can take when the input (or an intermediate layer
//! `kp`) is perturbed by at most `Δ` per dimension. The abstraction then
//! absorbs the whole enclosure — min-max bounds widen, Boolean bits become
//! don't-cares, interval symbols become symbol *sets* — so that, by
//! construction:
//!
//! > **Lemma 1.** If the robust monitor warns on `v_op`, then no training
//! > input `v_tr` satisfies `|G^{kp}_j(v_op) − G^{kp}_j(v_tr)| ≤ Δ` for all
//! > `j`.
//!
//! Equivalently: inputs `Δ`-close to the training data (at boundary `kp`)
//! never warn, which is exactly the false-positive mechanism the paper
//! eliminates. Property tests in this crate check Lemma 1 directly.
//!
//! # Example
//!
//! Construction is *spec-first*: a [`MonitorSpec`] declares the whole
//! build as serializable data (family, boundary, robustness, composition),
//! and [`MonitorSpec::build`] runs the paper's construction loop. It
//! returns a [`ComposedMonitor`], the one queryable monitor type for every
//! composition (single boundary, multi-layer vote, per-class dispatch).
//!
//! ```
//! use napmon_core::{Monitor, MonitorKind, MonitorSpec};
//! use napmon_absint::Domain;
//! use napmon_nn::{Activation, LayerSpec, Network};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = Network::seeded(7, 4, &[
//!     LayerSpec::dense(8, Activation::Relu),
//!     LayerSpec::dense(2, Activation::Identity),
//! ]);
//! let train: Vec<Vec<f64>> = (0..32)
//!     .map(|i| (0..4).map(|j| ((i + j) % 8) as f64 / 8.0).collect())
//!     .collect();
//!
//! // Robust on-off monitor at the post-ReLU boundary (layer 2),
//! // tolerating Δ=0.05 input perturbation — declared as data.
//! let spec = MonitorSpec::new(2, MonitorKind::pattern()).robust(0.05, 0, Domain::Box);
//! let monitor = spec.build(&net, &train)?;
//!
//! // Lemma 1: training inputs (and anything Δ-close) never warn.
//! for v in &train {
//!     assert!(!monitor.verdict(&net, v)?.warning);
//! }
//! # Ok(())
//! # }
//! ```

pub mod builder;
pub mod error;
pub mod feature;
pub mod interval_pattern;
pub mod minmax;
pub mod monitor;
pub mod multi;
pub mod pattern;
pub mod per_class;
pub mod perturb;
pub mod score;
mod sliced;
pub mod source;
pub mod spec;
pub mod wirefmt;
mod words;

pub use builder::{AnyMonitor, MonitorKind, RobustConfig};
pub use error::MonitorError;
pub use feature::FeatureExtractor;
pub use interval_pattern::{IntervalPatternMonitor, ThresholdPolicy};
pub use minmax::MinMaxMonitor;
pub use monitor::{Monitor, QueryScratch, Verdict, Violation};
pub use multi::{MultiLayerMonitor, Vote};
pub use pattern::{PatternBackend, PatternMonitor};
pub use per_class::PerClassMonitor;
pub use perturb::perturbation_estimate;
pub use score::ScoredMonitor;
pub use source::{
    shared_source, ExternalHandle, MemoryPatternSource, PatternSource, SharedPatternSource,
    SourceDescriptor, SourceProvider,
};
pub use spec::{ComposedMonitor, Composition, MonitorSpec, WatchedLayer, MONITOR_SPEC_VERSION};
