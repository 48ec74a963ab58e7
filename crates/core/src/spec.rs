//! Declarative monitor specifications: the spec-first build pipeline.
//!
//! A [`MonitorSpec`] is a fully serializable, versioned description of an
//! entire monitor build — which boundary (or boundaries) of the network to
//! watch, which monitor family ([`MonitorKind`]), whether to use the robust
//! construction of §III-B ([`RobustConfig`]), how members compose
//! ([`Composition`]), and whether construction may use all cores. It is
//! the one way to build a monitor. A spec is *data*: it can be written to
//! disk, reviewed, diffed, shipped to another machine, and rebuilt — or
//! embedded in a `napmon-artifact` file next to the monitor it produced,
//! so the deployed abstraction is always traceable to the exact
//! configuration that built it.
//!
//! [`MonitorSpec::build`] runs the paper's construction loop and returns a
//! [`ComposedMonitor`] — single-boundary, multi-layer voted, or per-class —
//! which is itself serializable and mountable on the `napmon-serve` engine.
//!
//! Every invariant of a spec is checked *up front* by
//! [`MonitorSpec::validate`] / [`MonitorSpec::validate_for`]: a spec
//! deserialized from an untrusted file fails with a typed
//! [`MonitorError`] instead of panicking deep inside construction.
//!
//! # Example
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
//! // The whole build, declared as data.
//! let spec = MonitorSpec::new(2, MonitorKind::pattern()).robust(0.05, 0, Domain::Box);
//! let monitor = spec.build(&net, &train)?;
//! for v in &train {
//!     assert!(!monitor.verdict(&net, v)?.warning);
//! }
//! # Ok(())
//! # }
//! ```

use crate::builder::{AnyMonitor, MonitorKind, RobustConfig};
use crate::error::MonitorError;
use crate::feature::{check_input, FeatureExtractor};
use crate::interval_pattern::{check_thresholds, IntervalPatternMonitor, ThresholdPolicy};
use crate::minmax::MinMaxMonitor;
use crate::monitor::{map_chunks, Monitor, QueryScratch, Verdict};
use crate::multi::{MultiLayerMonitor, Vote};
use crate::pattern::{PatternBackend, PatternMonitor};
use crate::per_class::PerClassMonitor;
use crate::perturb::perturbation_estimate_with;
use crate::source::{SharedPatternSource, SourceDescriptor, SourceProvider};
use napmon_absint::{propagate::Propagator, BoxBounds, Domain};
use napmon_nn::Network;
use serde::{Deserialize, Serialize};

/// The spec schema version this crate reads and writes.
pub const MONITOR_SPEC_VERSION: u32 = 1;

/// One watched network boundary: the paper's `G^k`, optionally restricted
/// to a neuron subset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WatchedLayer {
    /// Monitored boundary index (`1..=net.num_layers()`).
    pub layer: usize,
    /// Monitored neuron indices; `None` watches the whole boundary.
    pub neurons: Option<Vec<usize>>,
}

impl WatchedLayer {
    /// Watches every neuron of boundary `layer`.
    pub fn whole(layer: usize) -> Self {
        Self {
            layer,
            neurons: None,
        }
    }

    /// Watches only the given neuron indices of boundary `layer`.
    pub fn subset(layer: usize, neurons: Vec<usize>) -> Self {
        Self {
            layer,
            neurons: Some(neurons),
        }
    }
}

/// How member monitors compose into the deployed decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Composition {
    /// One monitor over one boundary (the paper's default setup).
    Single,
    /// One member per watched boundary, combined by a [`Vote`].
    MultiLayer {
        /// The voting rule combining per-boundary verdicts.
        vote: Vote,
    },
    /// One member per output class; queries dispatch on the predicted
    /// class (the DATE 2019 setup).
    PerClass {
        /// Number of classes (one member monitor each).
        num_classes: usize,
    },
}

/// A declarative, versioned description of an entire monitor build.
///
/// See the [module docs](self) for the deployment story. Construct with
/// [`MonitorSpec::new`] (or [`MonitorSpec::multi_layer`]) and refine with
/// the chainable setters; every field is also public, so a spec can be
/// assembled literally or deserialized from JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitorSpec {
    /// Spec schema version ([`MONITOR_SPEC_VERSION`]).
    pub version: u32,
    /// The watched boundary (or boundaries, for multi-layer composition).
    pub layers: Vec<WatchedLayer>,
    /// The monitor family and its parameters.
    pub kind: MonitorKind,
    /// Robust-construction parameters; `None` builds the standard monitor.
    pub robust: Option<RobustConfig>,
    /// How members compose into the deployed decision.
    pub composition: Composition,
    /// Parallelism hint: compute per-sample forward passes / perturbation
    /// estimates on all cores during construction.
    pub parallel: bool,
}

impl MonitorSpec {
    /// A single-boundary spec watching all of boundary `layer`.
    pub fn new(layer: usize, kind: MonitorKind) -> Self {
        Self {
            version: MONITOR_SPEC_VERSION,
            layers: vec![WatchedLayer::whole(layer)],
            kind,
            robust: None,
            composition: Composition::Single,
            parallel: false,
        }
    }

    /// A multi-layer spec: one member per watched boundary, combined by
    /// `vote`.
    pub fn multi_layer(layers: Vec<WatchedLayer>, kind: MonitorKind, vote: Vote) -> Self {
        Self {
            version: MONITOR_SPEC_VERSION,
            layers,
            kind,
            robust: None,
            composition: Composition::MultiLayer { vote },
            parallel: false,
        }
    }

    /// Restricts the (single) watched boundary to the given neurons.
    pub fn with_neurons(mut self, neurons: Vec<usize>) -> Self {
        if let Some(first) = self.layers.first_mut() {
            first.neurons = Some(neurons);
        }
        self
    }

    /// Switches to the robust construction of §III-B.
    pub fn robust(mut self, delta: f64, kp: usize, domain: Domain) -> Self {
        self.robust = Some(RobustConfig { delta, kp, domain });
        self
    }

    /// Same as [`MonitorSpec::robust`] with a pre-assembled config.
    pub fn robust_config(mut self, config: RobustConfig) -> Self {
        self.robust = Some(config);
        self
    }

    /// Switches to per-class composition with `num_classes` classes.
    pub fn per_class(mut self, num_classes: usize) -> Self {
        self.composition = Composition::PerClass { num_classes };
        self
    }

    /// Sets the construction parallelism hint.
    pub fn parallel(mut self, yes: bool) -> Self {
        self.parallel = yes;
        self
    }

    /// Checks every network-independent invariant of the spec.
    ///
    /// This is the guard that makes deserialized specs safe: a malformed
    /// file — unknown version, zero watched layers, interval `bits` out of
    /// range, explicit thresholds whose count disagrees with `2^bits − 1`,
    /// negative or non-finite `delta`, `kp` not below every watched layer,
    /// a vote demanding more members than exist — fails here with a typed
    /// [`MonitorError`] instead of panicking inside construction.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::InvalidConfig`] describing the first
    /// violated invariant.
    pub fn validate(&self) -> Result<(), MonitorError> {
        if self.version != MONITOR_SPEC_VERSION {
            return Err(MonitorError::InvalidConfig(format!(
                "unsupported spec version {} (this build reads version {MONITOR_SPEC_VERSION})",
                self.version
            )));
        }
        if self.layers.is_empty() {
            return Err(MonitorError::InvalidConfig("spec watches no layers".into()));
        }
        for watched in &self.layers {
            if watched.layer == 0 {
                return Err(MonitorError::InvalidConfig(
                    "boundary 0 (the raw input) cannot be monitored".into(),
                ));
            }
            if let Some(neurons) = &watched.neurons {
                if neurons.is_empty() {
                    return Err(MonitorError::InvalidConfig(format!(
                        "boundary {}: neuron subset is empty",
                        watched.layer
                    )));
                }
            }
        }
        match &self.composition {
            Composition::Single | Composition::PerClass { .. } => {
                if self.layers.len() != 1 {
                    return Err(MonitorError::InvalidConfig(format!(
                        "{} composition watches exactly one boundary, got {}",
                        match self.composition {
                            Composition::PerClass { .. } => "per-class",
                            _ => "single",
                        },
                        self.layers.len()
                    )));
                }
                if let Composition::PerClass { num_classes } = self.composition {
                    if num_classes == 0 {
                        return Err(MonitorError::InvalidConfig(
                            "per-class composition needs num_classes >= 1".into(),
                        ));
                    }
                }
            }
            Composition::MultiLayer { vote } => {
                if let Vote::AtLeast(k) = vote {
                    if *k == 0 || *k > self.layers.len() {
                        return Err(MonitorError::InvalidConfig(format!(
                            "vote AtLeast({k}) with {} watched layers",
                            self.layers.len()
                        )));
                    }
                }
            }
        }
        self.validate_kind()?;
        if let Some(r) = &self.robust {
            if r.delta < 0.0 || !r.delta.is_finite() {
                return Err(MonitorError::InvalidConfig(format!(
                    "delta must be finite and non-negative, got {}",
                    r.delta
                )));
            }
            if let Some(min_layer) = self.layers.iter().map(|w| w.layer).min() {
                if r.kp >= min_layer {
                    return Err(MonitorError::InvalidConfig(format!(
                        "robust config needs kp < monitored layer: kp={}, layer={min_layer}",
                        r.kp
                    )));
                }
            }
        }
        Ok(())
    }

    /// The family-specific half of [`MonitorSpec::validate`].
    fn validate_kind(&self) -> Result<(), MonitorError> {
        match &self.kind {
            MonitorKind::MinMax { gamma } => {
                if *gamma < 0.0 || !gamma.is_finite() {
                    return Err(MonitorError::InvalidConfig(format!(
                        "gamma must be finite and non-negative, got {gamma}"
                    )));
                }
            }
            MonitorKind::Pattern { policy, .. } => {
                validate_policy(policy, 1)?;
            }
            MonitorKind::IntervalPattern { bits, policy } => {
                if *bits == 0 || *bits > 8 {
                    return Err(MonitorError::InvalidConfig(format!(
                        "bits per neuron must be in 1..=8, got {bits}"
                    )));
                }
                validate_policy(policy, *bits)?;
            }
        }
        Ok(())
    }

    /// Checks the spec against a concrete network: boundary indices in
    /// range, neuron subsets within the boundary width, explicit threshold
    /// lists matching the monitored dimension.
    ///
    /// Runs [`MonitorSpec::validate`] first, so one call covers both
    /// halves — this is what `napmon-artifact` calls on load.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::InvalidConfig`] or
    /// [`MonitorError::DimensionMismatch`] describing the first violated
    /// invariant.
    pub fn validate_for(&self, net: &Network) -> Result<(), MonitorError> {
        self.validate()?;
        for watched in &self.layers {
            if watched.layer > net.num_layers() {
                return Err(MonitorError::InvalidConfig(format!(
                    "monitored boundary {} out of range 1..={}",
                    watched.layer,
                    net.num_layers()
                )));
            }
            let width = net.dim_at(watched.layer);
            let dim = match &watched.neurons {
                None => width,
                Some(neurons) => {
                    for &n in neurons {
                        if n >= width {
                            return Err(MonitorError::InvalidConfig(format!(
                                "neuron {n} out of range for layer width {width}"
                            )));
                        }
                    }
                    let mut seen = std::collections::HashSet::new();
                    neurons.iter().filter(|n| seen.insert(**n)).count()
                }
            };
            let explicit = match &self.kind {
                MonitorKind::Pattern {
                    policy: ThresholdPolicy::Explicit(lists),
                    ..
                }
                | MonitorKind::IntervalPattern {
                    policy: ThresholdPolicy::Explicit(lists),
                    ..
                } => Some(lists),
                _ => None,
            };
            if let Some(lists) = explicit {
                if lists.len() != dim {
                    return Err(MonitorError::DimensionMismatch {
                        context: format!("explicit thresholds at boundary {}", watched.layer),
                        expected: dim,
                        actual: lists.len(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Runs the construction loop of §III-A/B and returns the composed
    /// monitor.
    ///
    /// Per-class composition labels each training sample with the
    /// network's *predicted* class (the deployment-faithful choice: in
    /// operation the dispatch uses predictions too); use
    /// [`MonitorSpec::build_with_labels`] to train against ground-truth
    /// labels instead.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::EmptyTrainingSet`] for empty data,
    /// [`MonitorError::DimensionMismatch`] for malformed samples, and
    /// [`MonitorError::InvalidConfig`] for any violated spec invariant.
    pub fn build(&self, net: &Network, data: &[Vec<f64>]) -> Result<ComposedMonitor, MonitorError> {
        self.build_impl(net, data, None, None)
    }

    /// Like [`MonitorSpec::build`], with explicit per-sample class labels
    /// for per-class composition (`labels[i]` is the class of `data[i]`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`MonitorSpec::build`], plus
    /// [`MonitorError::InvalidConfig`] when labels are out of range or a
    /// class has no samples.
    pub fn build_with_labels(
        &self,
        net: &Network,
        data: &[Vec<f64>],
        labels: &[usize],
    ) -> Result<ComposedMonitor, MonitorError> {
        self.build_impl(net, data, Some(labels), None)
    }

    /// Runs the construction loop with every pattern-set member backed by
    /// an external [`crate::PatternSource`] from `provider` — the
    /// store-backed build.
    ///
    /// The provider is asked for one source per member (member index `0`
    /// for single composition, the boundary position for multi-layer, the
    /// class index for per-class), at the member's packed word width; the
    /// training patterns are absorbed *into the sources*, so the monitor's
    /// word set lives wherever the provider put it (e.g. the
    /// `napmon-store` segments on disk). Pattern-kind specs must declare
    /// [`PatternBackend::Store`] so the spec stays an honest description
    /// of the deployment; interval monitors are store-backed whenever a
    /// provider is given (their `MonitorKind` carries no backend field).
    /// Min-max specs have no pattern set and are rejected.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MonitorSpec::build`], plus
    /// [`MonitorError::InvalidConfig`] for kind/backend disagreements and
    /// [`MonitorError::ExternalSource`] for provider or store failures.
    pub fn build_with_sources(
        &self,
        net: &Network,
        data: &[Vec<f64>],
        provider: &mut dyn SourceProvider,
    ) -> Result<ComposedMonitor, MonitorError> {
        self.build_impl(net, data, None, Some(provider))
    }

    /// Mounts the spec over *already-populated* external sources without
    /// any training data: the warm-start path, where every pattern the
    /// monitor admits comes from the store segments the provider opens.
    ///
    /// Because there is no data to resolve data-dependent thresholds
    /// from, the spec's policy must be data-free
    /// ([`ThresholdPolicy::Sign`] or [`ThresholdPolicy::Explicit`]);
    /// min-max specs cannot mount (their bounds have no external store).
    /// Member `samples()` counters start at zero — provenance lives with
    /// the artifact that built the store, not the mount.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::InvalidConfig`] for invalid specs,
    /// data-dependent policies, or min-max kinds, and
    /// [`MonitorError::ExternalSource`] for provider failures.
    pub fn mount_with_sources(
        &self,
        net: &Network,
        provider: &mut dyn SourceProvider,
    ) -> Result<ComposedMonitor, MonitorError> {
        self.validate_for(net)?;
        if let MonitorKind::Pattern { policy, .. } | MonitorKind::IntervalPattern { policy, .. } =
            &self.kind
        {
            if matches!(policy, ThresholdPolicy::Mean | ThresholdPolicy::Quantiles) {
                return Err(MonitorError::InvalidConfig(format!(
                    "{policy:?} thresholds need training data; warm starts require a \
                     data-free policy (Sign or Explicit)"
                )));
            }
        }
        let members = self
            .member_layers()
            .into_iter()
            .map(|(member, watched)| {
                let (fx, source) = self.member_parts(net, watched, member, Some(&mut *provider))?;
                self.empty_member(fx, &[], source)
            })
            .collect::<Result<_, _>>()?;
        Ok(self.compose(members))
    }

    /// The shared construction path behind `build*`: optional explicit
    /// labels (per-class), optional external sources.
    fn build_impl(
        &self,
        net: &Network,
        data: &[Vec<f64>],
        labels: Option<&[usize]>,
        mut provider: Option<&mut dyn SourceProvider>,
    ) -> Result<ComposedMonitor, MonitorError> {
        self.validate_for(net)?;
        check_training_data(net, data)?;
        let partitions;
        let member_data: Vec<&[Vec<f64>]> = match self.composition {
            Composition::PerClass { num_classes } => {
                partitions = partition(net, data, labels, num_classes)?;
                partitions.iter().map(Vec::as_slice).collect()
            }
            _ => vec![data; self.layers.len()],
        };
        let mut members = Vec::with_capacity(member_data.len());
        for ((member, watched), part) in self.member_layers().into_iter().zip(member_data) {
            members.push(self.build_member(net, watched, part, member, provider.as_deref_mut())?);
        }
        Ok(self.compose(members))
    }

    /// Each member's index and watched boundary: the one boundary for
    /// single composition, one member per boundary for multi-layer, one
    /// member per class for per-class.
    fn member_layers(&self) -> Vec<(usize, &WatchedLayer)> {
        match self.composition {
            Composition::PerClass { num_classes } => {
                (0..num_classes).map(|c| (c, &self.layers[0])).collect()
            }
            _ => self.layers.iter().enumerate().collect(),
        }
    }

    /// Wraps built members in the spec's composition.
    fn compose(&self, mut members: Vec<AnyMonitor>) -> ComposedMonitor {
        match &self.composition {
            Composition::Single => {
                ComposedMonitor::Single(members.pop().expect("one member built"))
            }
            Composition::MultiLayer { vote } => {
                ComposedMonitor::MultiLayer(MultiLayerMonitor::new(members, *vote))
            }
            Composition::PerClass { .. } => {
                ComposedMonitor::PerClass(PerClassMonitor::new(members))
            }
        }
    }

    /// The extractor of one member and, when the kind/provider combination
    /// calls for one, the external source its words live in; rejects the
    /// combinations that cannot work.
    fn member_parts(
        &self,
        net: &Network,
        watched: &WatchedLayer,
        member: usize,
        provider: Option<&mut (dyn SourceProvider + '_)>,
    ) -> Result<(FeatureExtractor, Option<SharedPatternSource>), MonitorError> {
        let fx = FeatureExtractor::new(net, watched.layer)?;
        let fx = match &watched.neurons {
            None => fx,
            Some(neurons) => fx.with_neurons(neurons.clone())?,
        };
        let source = match (&self.kind, provider) {
            (MonitorKind::MinMax { .. }, Some(_)) => {
                return Err(MonitorError::InvalidConfig(
                    "min-max monitors keep their bounds in the artifact and have no \
                     pattern set to externalize or mount; build them without a source \
                     provider and load them through napmon-artifact"
                        .into(),
                ))
            }
            (MonitorKind::Pattern { backend, .. }, Some(_))
                if *backend != PatternBackend::Store =>
            {
                return Err(MonitorError::InvalidConfig(format!(
                    "sources were provided but the spec declares backend {backend:?}; \
                     declare PatternBackend::Store"
                )))
            }
            (MonitorKind::Pattern { .. }, Some(provider)) => {
                Some(provider.open_source(member, fx.dim())?)
            }
            (MonitorKind::IntervalPattern { bits, .. }, Some(provider)) => {
                Some(provider.open_source(member, fx.dim() * bits)?)
            }
            (
                MonitorKind::Pattern {
                    backend: PatternBackend::Store,
                    ..
                },
                None,
            ) => {
                return Err(MonitorError::InvalidConfig(
                    "PatternBackend::Store needs a source provider; build with \
                     MonitorSpec::build_with_sources (or mount_with_sources)"
                        .into(),
                ))
            }
            _ => None,
        };
        Ok((fx, source))
    }

    /// An empty member of the spec's family, with thresholds resolved from
    /// the member's training `features` (none for a mount).
    fn empty_member(
        &self,
        fx: FeatureExtractor,
        features: &[Vec<f64>],
        source: Option<SharedPatternSource>,
    ) -> Result<AnyMonitor, MonitorError> {
        Ok(match &self.kind {
            MonitorKind::MinMax { .. } => AnyMonitor::MinMax(MinMaxMonitor::empty(fx)),
            MonitorKind::Pattern {
                policy,
                backend,
                hamming,
            } => {
                let lists = policy.resolve(fx.dim(), 1, features)?;
                let thresholds = lists.into_iter().map(|l| l[0]).collect();
                let mut m = match source {
                    Some(source) => PatternMonitor::with_source(fx, thresholds, source)?,
                    None => PatternMonitor::empty(fx, thresholds, *backend)?,
                };
                m.set_hamming_tolerance(*hamming);
                AnyMonitor::Pattern(m)
            }
            MonitorKind::IntervalPattern { bits, policy } => {
                let lists = policy.resolve(fx.dim(), *bits, features)?;
                AnyMonitor::Interval(match source {
                    Some(source) => IntervalPatternMonitor::with_source(fx, *bits, lists, source)?,
                    None => IntervalPatternMonitor::empty(fx, *bits, lists)?,
                })
            }
        })
    }

    /// Builds one member monitor over one watched boundary: the §III-A/B
    /// construction loop every spec build runs, once per member.
    /// `member` indexes the member within its composition; `provider`, when
    /// given, supplies the external source its pattern set is absorbed into.
    fn build_member(
        &self,
        net: &Network,
        watched: &WatchedLayer,
        data: &[Vec<f64>],
        member: usize,
        provider: Option<&mut (dyn SourceProvider + '_)>,
    ) -> Result<AnyMonitor, MonitorError> {
        let (fx, source) = self.member_parts(net, watched, member, provider)?;
        let (features, bounds) =
            compute_samples(net, &fx, watched.layer, self.robust, self.parallel, data);
        let mut m = self.empty_member(fx, &features, source)?;
        match &bounds {
            Some(bs) => bs.iter().try_for_each(|b| m.absorb_bounds(b))?,
            None => features.iter().try_for_each(|f| m.absorb_features_mut(f))?,
        }
        if let (AnyMonitor::MinMax(m), MonitorKind::MinMax { gamma }) = (&mut m, &self.kind) {
            if *gamma > 0.0 {
                m.enlarge(*gamma);
            }
        }
        m.commit_source()?;
        Ok(m)
    }
}

/// Splits the training data by class label (`labels`, or the network's
/// predicted classes), one non-empty partition per class.
fn partition(
    net: &Network,
    data: &[Vec<f64>],
    labels: Option<&[usize]>,
    num_classes: usize,
) -> Result<Vec<Vec<Vec<f64>>>, MonitorError> {
    // The caller checked every sample first: predict_class panics on
    // wrong-dimension samples, and malformed input must surface as the
    // typed error the build methods document.
    let predicted: Vec<usize>;
    let labels = match labels {
        Some(labels) => labels,
        None => {
            predicted = data.iter().map(|x| net.predict_class(x)).collect();
            &predicted
        }
    };
    if labels.len() != data.len() {
        return Err(MonitorError::DimensionMismatch {
            context: "per-class labels".into(),
            expected: data.len(),
            actual: labels.len(),
        });
    }
    let mut partitions: Vec<Vec<Vec<f64>>> = vec![Vec::new(); num_classes];
    for (v, &c) in data.iter().zip(labels) {
        if c >= num_classes {
            return Err(MonitorError::InvalidConfig(format!(
                "label {c} out of range 0..{num_classes}"
            )));
        }
        partitions[c].push(v.clone());
    }
    if let Some(c) = partitions.iter().position(Vec::is_empty) {
        return Err(MonitorError::InvalidConfig(format!(
            "class {c} has no training samples"
        )));
    }
    Ok(partitions)
}

/// Static validity of a threshold policy for a given bit width.
fn validate_policy(policy: &ThresholdPolicy, bits: usize) -> Result<(), MonitorError> {
    match policy {
        ThresholdPolicy::Sign | ThresholdPolicy::Mean if bits != 1 => Err(
            MonitorError::InvalidConfig(format!("{policy:?} policy requires bits = 1, got {bits}")),
        ),
        ThresholdPolicy::Explicit(lists) => check_thresholds(lists, bits),
        _ => Ok(()),
    }
}

/// Shared training-data checks: non-empty, every sample a valid network
/// input.
fn check_training_data(net: &Network, data: &[Vec<f64>]) -> Result<(), MonitorError> {
    if data.is_empty() {
        return Err(MonitorError::EmptyTrainingSet);
    }
    for (i, v) in data.iter().enumerate() {
        check_input(net, v, &format_args!("training sample {i}"))?;
    }
    Ok(())
}

/// Per-sample features and (when robust) perturbation estimates, both
/// projected to the monitored neurons.
fn compute_samples(
    net: &Network,
    fx: &FeatureExtractor,
    layer: usize,
    robust: Option<RobustConfig>,
    parallel: bool,
    data: &[Vec<f64>],
) -> (Vec<Vec<f64>>, Option<Vec<BoxBounds>>) {
    // One propagator per chunk, reused across its samples.
    let sample_chunk = |chunk: &[Vec<f64>]| {
        let prop = robust.map(|r| Propagator::new(net, r.domain));
        chunk
            .iter()
            .map(|sample| sample_one(net, fx, layer, robust, prop.as_ref(), sample))
            .collect::<Vec<_>>()
    };
    let results = if !parallel || data.len() < 64 {
        sample_chunk(data)
    } else {
        let threads = std::thread::available_parallelism().map_or(4, usize::from);
        map_chunks(data, threads, sample_chunk).concat()
    };
    let (features, bounds): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    // Every sample carries bounds exactly when the build is robust.
    (
        features,
        robust.map(|_| bounds.into_iter().flatten().collect()),
    )
}

/// One sample of the construction loop: projected features plus (when
/// robust) the projected perturbation estimate.
fn sample_one(
    net: &Network,
    fx: &FeatureExtractor,
    layer: usize,
    robust: Option<RobustConfig>,
    prop: Option<&Propagator<'_>>,
    sample: &[f64],
) -> (Vec<f64>, Option<BoxBounds>) {
    let features = fx.project(&net.forward_prefix(sample, layer));
    let bounds = robust.map(|r| {
        let pe = perturbation_estimate_with(
            prop.expect("propagator exists when robust"),
            sample,
            r.kp,
            layer,
            r.delta,
        )
        .expect("validated robust config");
        fx.project_bounds(&pe)
    });
    (features, bounds)
}

/// A deployable monitor of any composition, as produced by
/// [`MonitorSpec::build`]: single-boundary, multi-layer voted, or
/// per-class dispatched. Serializable as a unit, so a whole deployment —
/// not just one member abstraction — round-trips through a
/// `napmon-artifact` file.
// One `ComposedMonitor` exists per deployment (not per request), so the
// size skew between a composite's `Vec` indirection and an inline
// single-boundary monitor is irrelevant; boxing would only add a pointer
// chase to the query hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ComposedMonitor {
    /// One monitor over one boundary.
    Single(AnyMonitor),
    /// One member per boundary, combined by a vote.
    MultiLayer(MultiLayerMonitor),
    /// One member per output class, dispatched on the predicted class.
    PerClass(PerClassMonitor),
}

impl ComposedMonitor {
    /// The single-boundary monitor, if that is what was built.
    pub fn as_single(&self) -> Option<&AnyMonitor> {
        match self {
            ComposedMonitor::Single(m) => Some(m),
            _ => None,
        }
    }

    /// The multi-layer monitor, if that is what was built.
    pub fn as_multi_layer(&self) -> Option<&MultiLayerMonitor> {
        match self {
            ComposedMonitor::MultiLayer(m) => Some(m),
            _ => None,
        }
    }

    /// The per-class monitor, if that is what was built.
    pub fn as_per_class(&self) -> Option<&PerClassMonitor> {
        match self {
            ComposedMonitor::PerClass(m) => Some(m),
            _ => None,
        }
    }

    /// The member monitors, flattened: one for `Single`, one per boundary
    /// for `MultiLayer`, one per class for `PerClass`.
    pub fn members(&self) -> Vec<&AnyMonitor> {
        match self {
            ComposedMonitor::Single(m) => vec![m],
            ComposedMonitor::MultiLayer(m) => m.members().iter().collect(),
            ComposedMonitor::PerClass(m) => {
                (0..m.num_classes()).map(|c| m.class_monitor(c)).collect()
            }
        }
    }

    /// Mutable access to the member monitors, in [`ComposedMonitor::members`]
    /// order.
    fn members_mut(&mut self) -> Vec<&mut AnyMonitor> {
        match self {
            ComposedMonitor::Single(m) => vec![m],
            ComposedMonitor::MultiLayer(m) => m.members_mut().iter_mut().collect(),
            ComposedMonitor::PerClass(m) => m.monitors_mut().iter_mut().collect(),
        }
    }

    /// Per member (in [`ComposedMonitor::members`] order): the descriptor
    /// of its external pattern source, or `None` for in-memory members.
    /// This is how an artifact (and an operator) reads the store-backed
    /// composition off a deployed monitor.
    pub fn external_descriptors(&self) -> Vec<Option<SourceDescriptor>> {
        self.members()
            .iter()
            .map(|m| m.external_descriptor().cloned())
            .collect()
    }

    /// Whether any member is store-backed but detached (fresh from
    /// deserialization, awaiting
    /// [`ComposedMonitor::attach_external_sources`]).
    pub fn needs_sources(&self) -> bool {
        self.members().iter().any(|m| m.needs_source())
    }

    /// Reattaches live sources to every store-backed member: `resolve` is
    /// called once per such member with its index (in
    /// [`ComposedMonitor::members`] order) and recorded descriptor, and
    /// must reopen the source it points to. Returns the number of members
    /// attached.
    ///
    /// # Errors
    ///
    /// Propagates `resolve` failures and word-width mismatches.
    pub fn attach_external_sources(
        &mut self,
        resolve: &mut dyn FnMut(
            usize,
            &SourceDescriptor,
        ) -> Result<SharedPatternSource, MonitorError>,
    ) -> Result<usize, MonitorError> {
        let mut attached = 0;
        for (i, member) in self.members_mut().into_iter().enumerate() {
            if let Some(descriptor) = member.external_descriptor().cloned() {
                member.attach_source(resolve(i, &descriptor)?)?;
                attached += 1;
            }
        }
        Ok(attached)
    }

    /// Flushes every store-backed member's buffered writes (no-op for
    /// in-memory members) — the durability point after operation-time
    /// absorption.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::ExternalSource`] if a store fails.
    pub fn commit_external_sources(&self) -> Result<(), MonitorError> {
        for member in self.members() {
            member.commit_source()?;
        }
        Ok(())
    }

    /// Absorbs one operational input into the store-backed members through
    /// `&self` — the serving engine's enlargement path. Single and
    /// multi-layer compositions absorb into every member; per-class
    /// absorbs into the predicted class's member (matching the query-time
    /// dispatch). The new patterns are visible to every subsequent query
    /// on any clone of the monitor, with no rebuild.
    ///
    /// Returns the number of members that stored a *new* pattern.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::ExternalSource`] if no touched member is
    /// store-backed (in-memory monitors need
    /// [`ComposedMonitor::absorb_mut`]), plus any extraction or store
    /// error.
    pub fn absorb_operation(&self, net: &Network, input: &[f64]) -> Result<usize, MonitorError> {
        let mut fresh = 0;
        match self {
            ComposedMonitor::Single(m) => {
                fresh += usize::from(m.absorb_input_shared(net, input)?);
            }
            ComposedMonitor::MultiLayer(m) => {
                check_input(net, input, &"multi-layer absorb input")?;
                // One forward pass shared across members, exactly like
                // the multi-layer query path.
                let boundaries = net.boundary_values(input);
                for member in m.members() {
                    let fx = member.extractor();
                    let features = fx.project(&boundaries[fx.layer()]);
                    fresh += usize::from(member.absorb_features_shared(&features)?);
                }
            }
            ComposedMonitor::PerClass(m) => {
                check_input(net, input, &"per-class absorb input")?;
                let class = m.checked_class(net.predict_class(input))?;
                fresh += usize::from(m.class_monitor(class).absorb_input_shared(net, input)?);
            }
        }
        Ok(fresh)
    }

    /// Absorbs one operational input through `&mut self`, for any backend:
    /// in-memory members fold the pattern into their BDD/hash set (and
    /// count it as a sample), store-backed members append to their source.
    /// The `&self` counterpart for serving is
    /// [`ComposedMonitor::absorb_operation`].
    ///
    /// # Errors
    ///
    /// Any extraction or store error.
    pub fn absorb_mut(&mut self, net: &Network, input: &[f64]) -> Result<(), MonitorError> {
        match self {
            ComposedMonitor::Single(m) => m.absorb_input_mut(net, input),
            ComposedMonitor::MultiLayer(m) => {
                check_input(net, input, &"multi-layer absorb input")?;
                let boundaries = net.boundary_values(input);
                for member in m.members_mut() {
                    let fx = member.extractor();
                    let features = fx.project(&boundaries[fx.layer()]);
                    member.absorb_features_mut(&features)?;
                }
                Ok(())
            }
            ComposedMonitor::PerClass(m) => {
                check_input(net, input, &"per-class absorb input")?;
                let class = m.checked_class(net.predict_class(input))?;
                m.monitors_mut()[class].absorb_input_mut(net, input)
            }
        }
    }
}

impl Monitor for ComposedMonitor {
    /// The *primary* extractor: the single member's, the first boundary's
    /// (multi-layer), or class 0's (per-class). Composite monitors watch
    /// more than this one extractor describes — use
    /// [`ComposedMonitor::members`] for the full picture.
    fn extractor(&self) -> &FeatureExtractor {
        match self {
            ComposedMonitor::Single(m) => m.extractor(),
            ComposedMonitor::MultiLayer(m) => m.members()[0].extractor(),
            ComposedMonitor::PerClass(m) => m.class_monitor(0).extractor(),
        }
    }

    fn verdict_batch_scratch(
        &self,
        net: &Network,
        inputs: &[Vec<f64>],
        scratch: &mut QueryScratch,
        out: &mut Vec<Verdict>,
    ) -> Result<(), MonitorError> {
        match self {
            // Single members get the bit-sliced batch kernel; composites
            // keep the per-input loop (their verdict depends on
            // full-network routing, not one feature vector).
            ComposedMonitor::Single(m) => m.verdict_batch_scratch(net, inputs, scratch, out),
            _ => {
                out.clear();
                out.reserve(inputs.len());
                for input in inputs {
                    out.push(self.verdict_scratch(net, input, scratch)?);
                }
                Ok(())
            }
        }
    }

    /// The single member's verdict; for multi-layer, one forward pass
    /// shared across every member and the member verdicts combined by the
    /// vote; for per-class, the verdict of the predicted class's member.
    /// Member projections and abstraction words reuse the scratch; the
    /// multi-layer boundary snapshot (`Network::boundary_values`) still
    /// allocates per query.
    fn verdict_scratch(
        &self,
        net: &Network,
        input: &[f64],
        scratch: &mut QueryScratch,
    ) -> Result<Verdict, MonitorError> {
        match self {
            ComposedMonitor::Single(m) => m.verdict_scratch(net, input, scratch),
            ComposedMonitor::MultiLayer(m) => {
                check_input(net, input, &"multi-layer query input")?;
                let boundaries = net.boundary_values(input);
                let mut warnings = 0usize;
                let mut evidence = Vec::new();
                let mut features = std::mem::take(&mut scratch.features);
                for member in m.members() {
                    let fx = member.extractor();
                    fx.project_into(&boundaries[fx.layer()], &mut features);
                    let v = member.verdict_features_scratch(&features, scratch);
                    if v.warning {
                        warnings += 1;
                        evidence.extend(v.violations);
                    }
                }
                scratch.features = features;
                Ok(if m.vote().decide(warnings, m.num_members()) {
                    Verdict::warn(evidence)
                } else {
                    Verdict::ok()
                })
            }
            ComposedMonitor::PerClass(m) => {
                check_input(net, input, &"per-class query input")?;
                let out = net.forward_prefix_into(input, net.num_layers(), &mut scratch.forward);
                let class = m.checked_class(napmon_tensor::vector::argmax(out))?;
                m.class_monitor(class).verdict_scratch(net, input, scratch)
            }
        }
    }
}

impl std::fmt::Display for ComposedMonitor {
    /// A one-line composition card wrapping the member cards.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ComposedMonitor::Single(m) => write!(f, "{m}"),
            ComposedMonitor::MultiLayer(m) => write!(
                f,
                "multi-layer monitor ({} members, vote {:?})",
                m.num_members(),
                m.vote()
            ),
            ComposedMonitor::PerClass(m) => {
                write!(f, "per-class monitor ({} classes)", m.num_classes())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternBackend;
    use napmon_nn::{Activation, LayerSpec};
    use napmon_tensor::Prng;

    fn net() -> Network {
        Network::seeded(
            23,
            3,
            &[
                LayerSpec::dense(8, Activation::Relu),
                LayerSpec::dense(4, Activation::Relu),
                LayerSpec::dense(2, Activation::Identity),
            ],
        )
    }

    fn train_data(n: usize) -> Vec<Vec<f64>> {
        let mut rng = Prng::seed(99);
        (0..n).map(|_| rng.uniform_vec(3, -0.5, 0.5)).collect()
    }

    #[test]
    fn spec_serde_round_trip_preserves_build() {
        let net = net();
        let data = train_data(32);
        let spec = MonitorSpec::new(4, MonitorKind::interval(2))
            .robust(0.03, 0, Domain::Box)
            .with_neurons(vec![0, 2]);
        let json = serde_json::to_string(&spec).unwrap();
        let back: MonitorSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        let a = spec.build(&net, &data).unwrap();
        let b = back.build(&net, &data).unwrap();
        let mut rng = Prng::seed(6);
        for _ in 0..32 {
            let probe = rng.uniform_vec(3, -2.0, 2.0);
            assert_eq!(
                a.verdict(&net, &probe).unwrap(),
                b.verdict(&net, &probe).unwrap()
            );
        }
    }

    #[test]
    fn validate_rejects_malformed_specs() {
        // Unknown version.
        let mut spec = MonitorSpec::new(2, MonitorKind::pattern());
        spec.version = 99;
        assert!(spec.validate().is_err());
        // No layers.
        let mut spec = MonitorSpec::new(2, MonitorKind::pattern());
        spec.layers.clear();
        assert!(spec.validate().is_err());
        // Boundary 0.
        assert!(MonitorSpec::new(0, MonitorKind::pattern())
            .validate()
            .is_err());
        // Empty neuron subset.
        assert!(MonitorSpec::new(2, MonitorKind::pattern())
            .with_neurons(vec![])
            .validate()
            .is_err());
        // Interval bits out of range.
        assert!(MonitorSpec::new(2, MonitorKind::interval(0))
            .validate()
            .is_err());
        assert!(MonitorSpec::new(2, MonitorKind::interval(9))
            .validate()
            .is_err());
        // Explicit thresholds disagreeing with bits.
        let bad = MonitorKind::interval_with(
            2,
            ThresholdPolicy::Explicit(vec![vec![0.0]]), // needs 3 per neuron
        );
        assert!(MonitorSpec::new(2, bad).validate().is_err());
        // Sign policy on a multi-bit monitor.
        let bad = MonitorKind::interval_with(2, ThresholdPolicy::Sign);
        assert!(MonitorSpec::new(2, bad).validate().is_err());
        // Negative / non-finite delta.
        assert!(MonitorSpec::new(2, MonitorKind::pattern())
            .robust(-0.1, 0, Domain::Box)
            .validate()
            .is_err());
        assert!(MonitorSpec::new(2, MonitorKind::pattern())
            .robust(f64::NAN, 0, Domain::Box)
            .validate()
            .is_err());
        // kp not below the watched layer.
        assert!(MonitorSpec::new(2, MonitorKind::pattern())
            .robust(0.1, 2, Domain::Box)
            .validate()
            .is_err());
        // Vote arity.
        let spec = MonitorSpec::multi_layer(
            vec![WatchedLayer::whole(2), WatchedLayer::whole(4)],
            MonitorKind::min_max(),
            Vote::AtLeast(3),
        );
        assert!(spec.validate().is_err());
        // Per-class with zero classes.
        assert!(MonitorSpec::new(2, MonitorKind::pattern())
            .per_class(0)
            .validate()
            .is_err());
        // Negative gamma.
        assert!(MonitorSpec::new(2, MonitorKind::min_max_enlarged(-1.0))
            .validate()
            .is_err());
        // The good spec still validates.
        assert!(MonitorSpec::new(2, MonitorKind::pattern())
            .validate()
            .is_ok());
    }

    #[test]
    fn validate_for_checks_network_dimensions() {
        let net = net();
        // Boundary out of range (network has 5 layers incl. activations).
        let spec = MonitorSpec::new(99, MonitorKind::pattern());
        assert!(spec.validate_for(&net).is_err());
        // Neuron index out of range for the boundary width.
        let spec = MonitorSpec::new(4, MonitorKind::pattern()).with_neurons(vec![99]);
        assert!(spec.validate_for(&net).is_err());
        // Explicit threshold count vs monitored dimension.
        let spec = MonitorSpec::new(
            4,
            MonitorKind::pattern_with(
                ThresholdPolicy::Explicit(vec![vec![0.0]]),
                PatternBackend::Bdd,
                0,
            ),
        );
        assert!(spec.validate_for(&net).is_err());
        // A good spec passes.
        assert!(MonitorSpec::new(4, MonitorKind::pattern())
            .validate_for(&net)
            .is_ok());
    }

    #[test]
    fn deserialized_malformed_spec_fails_with_typed_error_not_panic() {
        let json = r#"{
            "version": 1,
            "layers": [{"layer": 2, "neurons": null}],
            "kind": {"IntervalPattern": {"bits": 3, "policy": {"Explicit": [[0.0, 1.0]]}}},
            "robust": null,
            "composition": "Single",
            "parallel": false
        }"#;
        let spec: MonitorSpec = serde_json::from_str(json).unwrap();
        let net = net();
        let err = spec.build(&net, &train_data(8)).unwrap_err();
        assert!(matches!(err, MonitorError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn multi_layer_spec_builds_voted_monitor() {
        let net = net();
        let data = train_data(40);
        let spec = MonitorSpec::multi_layer(
            vec![WatchedLayer::whole(2), WatchedLayer::whole(4)],
            MonitorKind::min_max(),
            Vote::Any,
        );
        let m = spec.build(&net, &data).unwrap();
        assert_eq!(m.as_multi_layer().unwrap().num_members(), 2);
        for x in &data {
            assert!(!m.verdict(&net, x).unwrap().warning);
        }
        assert!(m.verdict(&net, &[100.0, -100.0, 100.0]).unwrap().warning);
    }

    #[test]
    fn per_class_build_returns_typed_error_on_malformed_samples() {
        let net = net(); // 3-dimensional input
        let spec = MonitorSpec::new(4, MonitorKind::pattern()).per_class(2);
        // Wrong-dimension sample must be the documented typed error, not a
        // panic inside predict_class.
        let err = spec.build(&net, &[vec![0.0; 5]]).unwrap_err();
        assert!(
            matches!(err, MonitorError::DimensionMismatch { .. }),
            "{err}"
        );
        assert!(matches!(
            spec.build(&net, &[]),
            Err(MonitorError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn per_class_spec_builds_with_predicted_labels() {
        let net = net();
        let data = train_data(60);
        let spec = MonitorSpec::new(4, MonitorKind::pattern()).per_class(2);
        let m = spec.build(&net, &data).unwrap();
        assert_eq!(m.as_per_class().unwrap().num_classes(), 2);
        for x in &data {
            assert!(!m.verdict(&net, x).unwrap().warning);
        }
    }

    #[test]
    fn composed_monitor_batch_matches_sequential() {
        let net = net();
        let data = train_data(40);
        let spec = MonitorSpec::multi_layer(
            vec![WatchedLayer::whole(2), WatchedLayer::whole(4)],
            MonitorKind::pattern(),
            Vote::Any,
        );
        let m = spec.build(&net, &data).unwrap();
        let mut rng = Prng::seed(17);
        let probes: Vec<Vec<f64>> = (0..50).map(|_| rng.uniform_vec(3, -2.0, 2.0)).collect();
        let batch = m.query_batch(&net, &probes).unwrap();
        let parallel = m.query_batch_parallel_with(&net, &probes, 2).unwrap();
        assert_eq!(batch, parallel);
        for (p, v) in probes.iter().zip(&batch) {
            assert_eq!(m.verdict(&net, p).unwrap(), *v);
        }
    }

    fn memory_provider() -> impl SourceProvider {
        |_member: usize, word_bits: usize| {
            Ok(crate::source::shared_source(
                crate::source::MemoryPatternSource::new(word_bits),
            ))
        }
    }

    #[test]
    fn store_backed_builds_match_in_memory_bit_for_bit() {
        let net = net();
        let data = train_data(48);
        let probes: Vec<Vec<f64>> = {
            let mut rng = Prng::seed(41);
            (0..64).map(|_| rng.uniform_vec(3, -2.0, 2.0)).collect()
        };
        for robust in [false, true] {
            for (in_mem_kind, stored_kind) in [
                (
                    MonitorKind::pattern(),
                    MonitorKind::pattern_with(ThresholdPolicy::Sign, PatternBackend::Store, 0),
                ),
                (MonitorKind::interval(2), MonitorKind::interval(2)),
            ] {
                let mut reference = MonitorSpec::new(4, in_mem_kind);
                let mut stored = MonitorSpec::new(4, stored_kind);
                if robust {
                    reference = reference.robust(0.02, 0, Domain::Box);
                    stored = stored.robust(0.02, 0, Domain::Box);
                }
                let a = reference.build(&net, &data).unwrap();
                let b = stored
                    .build_with_sources(&net, &data, &mut memory_provider())
                    .unwrap();
                assert_eq!(
                    a.query_batch(&net, &probes).unwrap(),
                    b.query_batch(&net, &probes).unwrap(),
                    "robust={robust}"
                );
            }
        }
    }

    #[test]
    fn store_backed_multi_layer_and_per_class_compose() {
        let net = net();
        let data = train_data(60);
        let multi = MonitorSpec::multi_layer(
            vec![WatchedLayer::whole(2), WatchedLayer::whole(4)],
            MonitorKind::interval(2),
            Vote::Any,
        )
        .build_with_sources(&net, &data, &mut memory_provider())
        .unwrap();
        assert_eq!(
            multi.external_descriptors().iter().flatten().count(),
            2,
            "both members are store-backed"
        );
        let per_class = MonitorSpec::new(
            4,
            MonitorKind::pattern_with(ThresholdPolicy::Sign, PatternBackend::Store, 0),
        )
        .per_class(2)
        .build_with_sources(&net, &data, &mut memory_provider())
        .unwrap();
        assert_eq!(per_class.external_descriptors().iter().flatten().count(), 2);
        for x in &data {
            assert!(!multi.verdict(&net, x).unwrap().warning);
            assert!(!per_class.verdict(&net, x).unwrap().warning);
        }
    }

    #[test]
    fn source_kind_mismatches_are_typed() {
        let net = net();
        let data = train_data(16);
        // Store backend without sources.
        let spec = MonitorSpec::new(
            4,
            MonitorKind::pattern_with(ThresholdPolicy::Sign, PatternBackend::Store, 0),
        );
        assert!(matches!(
            spec.build(&net, &data).unwrap_err(),
            MonitorError::InvalidConfig(_)
        ));
        // Sources with a non-store pattern backend.
        let spec = MonitorSpec::new(4, MonitorKind::pattern());
        assert!(spec
            .build_with_sources(&net, &data, &mut memory_provider())
            .is_err());
        // Sources with min-max.
        let spec = MonitorSpec::new(4, MonitorKind::min_max());
        assert!(spec
            .build_with_sources(&net, &data, &mut memory_provider())
            .is_err());
    }

    #[test]
    fn mount_requires_data_free_policies() {
        let net = net();
        // Quantile thresholds need data: mount must refuse.
        let spec = MonitorSpec::new(4, MonitorKind::interval(2));
        let err = spec
            .mount_with_sources(&net, &mut memory_provider())
            .unwrap_err();
        assert!(matches!(err, MonitorError::InvalidConfig(_)), "{err}");
        // Sign thresholds mount fine (empty set: everything warns).
        let spec = MonitorSpec::new(
            4,
            MonitorKind::pattern_with(ThresholdPolicy::Sign, PatternBackend::Store, 0),
        );
        let m = spec
            .mount_with_sources(&net, &mut memory_provider())
            .unwrap();
        assert!(m.verdict(&net, &[0.1, 0.2, 0.3]).unwrap().warning);
        // Min-max cannot mount.
        let spec = MonitorSpec::new(4, MonitorKind::min_max());
        assert!(spec
            .mount_with_sources(&net, &mut memory_provider())
            .is_err());
    }

    #[test]
    fn operation_time_absorption_enlarges_the_monitor() {
        let net = net();
        let data = train_data(32);
        let spec = MonitorSpec::new(
            4,
            MonitorKind::pattern_with(ThresholdPolicy::Sign, PatternBackend::Store, 0),
        );
        let m = spec
            .build_with_sources(&net, &data, &mut memory_provider())
            .unwrap();
        // Find an input the monitor warns on.
        let mut rng = Prng::seed(77);
        let novel = loop {
            let probe = rng.uniform_vec(3, -3.0, 3.0);
            if m.verdict(&net, &probe).unwrap().warning {
                break probe;
            }
        };
        // Shared absorption (through &self, as the serving engine does)
        // makes it a member without a rebuild.
        assert_eq!(m.absorb_operation(&net, &novel).unwrap(), 1);
        assert!(!m.verdict(&net, &novel).unwrap().warning);
        assert_eq!(m.absorb_operation(&net, &novel).unwrap(), 0, "dedup");
        m.commit_external_sources().unwrap();
        // In-memory monitors take the &mut path instead.
        let mut in_mem = MonitorSpec::new(4, MonitorKind::pattern())
            .build(&net, &data)
            .unwrap();
        assert!(in_mem.absorb_operation(&net, &novel).is_err());
        in_mem.absorb_mut(&net, &novel).unwrap();
        assert!(!in_mem.verdict(&net, &novel).unwrap().warning);
    }

    #[test]
    fn display_names_the_composition() {
        let net = net();
        let data = train_data(24);
        let single = MonitorSpec::new(4, MonitorKind::min_max())
            .build(&net, &data)
            .unwrap();
        assert!(single.to_string().contains("min-max"));
        let multi = MonitorSpec::multi_layer(
            vec![WatchedLayer::whole(2), WatchedLayer::whole(4)],
            MonitorKind::min_max(),
            Vote::All,
        )
        .build(&net, &data)
        .unwrap();
        assert!(multi.to_string().contains("multi-layer"));
        let pc = MonitorSpec::new(4, MonitorKind::min_max())
            .per_class(2)
            .build(&net, &data)
            .unwrap();
        assert!(pc.to_string().contains("per-class"));
    }
}
