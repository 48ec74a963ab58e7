//! What a [`MonitorSpec`](crate::MonitorSpec) builds: the monitor families
//! ([`MonitorKind`]), the robust-construction parameters
//! ([`RobustConfig`]), and the single-boundary monitor of any family
//! ([`AnyMonitor`]).
//!
//! The paper's construction loop is
//!
//! ```text
//! M ← M0
//! for v_tr ∈ Dtr:  M ← M ⊎ ab(G^k(v_tr))                 (standard)
//! for v_tr ∈ Dtr:  M ← M ⊎_R ab_R(pe^G_k(v_tr, kp, Δ))   (robust)
//! ```
//!
//! and it lives in [`crate::spec`]:
//! [`MonitorSpec::build`](crate::MonitorSpec::build) is the one way to
//! build a monitor.

use crate::error::MonitorError;
use crate::feature::FeatureExtractor;
use crate::interval_pattern::{IntervalPatternMonitor, ThresholdPolicy};
use crate::minmax::MinMaxMonitor;
use crate::monitor::{Monitor, QueryScratch, Verdict};
use crate::pattern::{PatternBackend, PatternMonitor};
use crate::score::ScoredMonitor;
use crate::source::{SharedPatternSource, SourceDescriptor};
use crate::words::PatternFamily;
use napmon_absint::{BoxBounds, Domain};
use napmon_bdd::BitWord;
use napmon_nn::Network;
use serde::{Deserialize, Serialize};

/// Robust-construction parameters: perturbation budget `Δ`, injection
/// boundary `kp`, and the abstract domain computing Definition 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RobustConfig {
    /// Per-dimension perturbation bound `Δ ≥ 0`.
    pub delta: f64,
    /// Boundary where perturbation is injected (`0` = input layer).
    pub kp: usize,
    /// Abstract domain for the perturbation estimate.
    pub domain: Domain,
}

/// Which monitor family to build.
///
/// Marked `#[non_exhaustive]`: future format versions may add families
/// without breaking downstream matches, which is what lets a serialized
/// [`MonitorSpec`](crate::MonitorSpec) stay forward-compatible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum MonitorKind {
    /// Per-neuron min/max bounds, optionally bloated by `gamma` (the
    /// baseline enlargement of Henzinger et al.).
    MinMax {
        /// Post-construction symmetric enlargement factor (`0` = none).
        gamma: f64,
    },
    /// Boolean on-off patterns.
    Pattern {
        /// Threshold selection (must resolve to one threshold per neuron).
        policy: ThresholdPolicy,
        /// Pattern-set storage.
        backend: PatternBackend,
        /// Query-time Hamming tolerance.
        hamming: usize,
    },
    /// Multi-bit interval patterns (§III-C).
    IntervalPattern {
        /// Bits per neuron.
        bits: usize,
        /// Threshold selection (must resolve to `2^bits − 1` per neuron).
        policy: ThresholdPolicy,
    },
}

impl MonitorKind {
    /// Plain min-max monitor.
    pub fn min_max() -> Self {
        MonitorKind::MinMax { gamma: 0.0 }
    }

    /// Min-max monitor bloated by `gamma` after construction.
    pub fn min_max_enlarged(gamma: f64) -> Self {
        MonitorKind::MinMax { gamma }
    }

    /// On-off pattern monitor with sign thresholds in a BDD.
    pub fn pattern() -> Self {
        MonitorKind::Pattern {
            policy: ThresholdPolicy::Sign,
            backend: PatternBackend::Bdd,
            hamming: 0,
        }
    }

    /// On-off pattern monitor with explicit configuration.
    pub fn pattern_with(policy: ThresholdPolicy, backend: PatternBackend, hamming: usize) -> Self {
        MonitorKind::Pattern {
            policy,
            backend,
            hamming,
        }
    }

    /// Interval pattern monitor with quantile thresholds.
    pub fn interval(bits: usize) -> Self {
        MonitorKind::IntervalPattern {
            bits,
            policy: ThresholdPolicy::Quantiles,
        }
    }

    /// Interval pattern monitor with explicit configuration.
    pub fn interval_with(bits: usize, policy: ThresholdPolicy) -> Self {
        MonitorKind::IntervalPattern { bits, policy }
    }
}

/// A single-boundary monitor of any family, as held by
/// [`ComposedMonitor::Single`](crate::ComposedMonitor::Single).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum AnyMonitor {
    /// Min-max monitor.
    MinMax(MinMaxMonitor),
    /// On-off pattern monitor.
    Pattern(PatternMonitor),
    /// Multi-bit interval pattern monitor.
    Interval(IntervalPatternMonitor),
}

impl AnyMonitor {
    /// The min-max monitor, if that is what was built.
    pub fn as_min_max(&self) -> Option<&MinMaxMonitor> {
        match self {
            AnyMonitor::MinMax(m) => Some(m),
            _ => None,
        }
    }

    /// The pattern monitor, if that is what was built.
    pub fn as_pattern(&self) -> Option<&PatternMonitor> {
        match self {
            AnyMonitor::Pattern(m) => Some(m),
            _ => None,
        }
    }

    /// The interval monitor, if that is what was built.
    pub fn as_interval(&self) -> Option<&IntervalPatternMonitor> {
        match self {
            AnyMonitor::Interval(m) => Some(m),
            _ => None,
        }
    }

    /// The monitor of whichever family was built; the trait impls
    /// dispatch through it.
    pub(crate) fn family(&self) -> &dyn ScoredMonitor {
        match self {
            AnyMonitor::MinMax(m) => m,
            AnyMonitor::Pattern(m) => m,
            AnyMonitor::Interval(m) => m,
        }
    }

    /// The pattern family behind the monitor: the one accessor the
    /// word-set and source plumbing below dispatches through.
    fn pattern_family(&self) -> Option<&dyn PatternFamily> {
        match self {
            AnyMonitor::MinMax(_) => None,
            AnyMonitor::Pattern(m) => Some(m),
            AnyMonitor::Interval(m) => Some(m),
        }
    }

    fn pattern_family_mut(&mut self) -> Option<&mut dyn PatternFamily> {
        match self {
            AnyMonitor::MinMax(_) => None,
            AnyMonitor::Pattern(m) => Some(m),
            AnyMonitor::Interval(m) => Some(m),
        }
    }

    /// Fraction of the abstract pattern space the monitor admits, when the
    /// family has a meaningful notion of coverage (pattern families only).
    pub fn coverage(&self) -> Option<f64> {
        match self {
            AnyMonitor::MinMax(_) => None,
            AnyMonitor::Pattern(m) => Some(m.coverage()),
            AnyMonitor::Interval(m) => Some(m.coverage()),
        }
    }

    /// Number of training samples absorbed during construction.
    pub fn samples(&self) -> usize {
        match self {
            AnyMonitor::MinMax(m) => m.samples(),
            AnyMonitor::Pattern(m) => m.samples(),
            AnyMonitor::Interval(m) => m.samples(),
        }
    }

    /// Number of distinct abstract patterns admitted, when the family
    /// counts patterns (pattern families only).
    pub fn pattern_count(&self) -> Option<f64> {
        Some(self.pattern_family()?.word_set().pattern_count())
    }

    /// The descriptor of the monitor's external pattern source, when its
    /// word set is store-backed.
    pub fn external_descriptor(&self) -> Option<&SourceDescriptor> {
        self.pattern_family()?.word_set().descriptor()
    }

    /// Whether the monitor is store-backed but detached (fresh from
    /// deserialization).
    pub fn needs_source(&self) -> bool {
        self.pattern_family()
            .is_some_and(|m| m.word_set().needs_source())
    }

    /// Reattaches a live source to a store-backed monitor.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::ExternalSource`] for a non-store-backed
    /// monitor, or [`MonitorError::DimensionMismatch`] on word-width
    /// disagreement.
    pub fn attach_source(&mut self, source: SharedPatternSource) -> Result<(), MonitorError> {
        self.pattern_family_mut()
            .ok_or_else(|| {
                MonitorError::ExternalSource("min-max monitors have no pattern source".into())
            })?
            .word_set_mut()
            .attach(source)
    }

    /// Flushes a store-backed monitor's buffered writes (no-op otherwise).
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::ExternalSource`] if the store fails.
    pub fn commit_source(&self) -> Result<(), MonitorError> {
        self.pattern_family()
            .map_or(Ok(()), |m| m.word_set().commit())
    }

    /// Full verdict for an already-extracted feature vector (the member's
    /// step of a multi-layer query, which runs one forward pass for all
    /// members).
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the monitor dimension.
    pub fn verdict_features_scratch(
        &self,
        features: &[f64],
        scratch: &mut QueryScratch,
    ) -> Verdict {
        match self {
            AnyMonitor::MinMax(m) => m.verdict_features(features),
            AnyMonitor::Pattern(m) => m.verdict_features_scratch(features, scratch),
            AnyMonitor::Interval(m) => m.verdict_features_scratch(features, scratch),
        }
    }

    /// Runs `net` on `input` and absorbs the resulting pattern into the
    /// monitor's external source through `&self` (operation-time
    /// enlargement; store-backed monitors only). Returns `true` if the
    /// pattern was new.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::DimensionMismatch`] for a malformed input
    /// and [`MonitorError::ExternalSource`] for in-memory backends or
    /// store failures.
    pub fn absorb_input_shared(&self, net: &Network, input: &[f64]) -> Result<bool, MonitorError> {
        let features = self.extractor().features(net, input)?;
        self.absorb_features_shared(&features)
    }

    /// Feature-level form of [`AnyMonitor::absorb_input_shared`], for
    /// callers that already ran the forward pass (multi-layer absorption
    /// shares one pass across members, exactly like the query path).
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::ExternalSource`] for in-memory backends or
    /// store failures.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the monitor dimension.
    pub fn absorb_features_shared(&self, features: &[f64]) -> Result<bool, MonitorError> {
        let m = self.pattern_family().ok_or_else(|| {
            MonitorError::ExternalSource(
                "min-max monitors have no pattern source to absorb into".into(),
            )
        })?;
        let mut word = BitWord::default();
        m.abstract_into(features, &mut word);
        m.word_set().insert_shared(&word)
    }

    /// Runs `net` on `input` and absorbs the resulting pattern through
    /// `&mut self`, for any backend (min-max widens its bounds, pattern
    /// families fold the word into their set).
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::DimensionMismatch`] for a malformed input
    /// and [`MonitorError::ExternalSource`] for store failures.
    pub fn absorb_input_mut(&mut self, net: &Network, input: &[f64]) -> Result<(), MonitorError> {
        let features = self.extractor().features(net, input)?;
        self.absorb_features_mut(&features)
    }

    /// Folds one perturbation estimate (robust construction, `⊎_R`).
    pub(crate) fn absorb_bounds(&mut self, bounds: &BoxBounds) -> Result<(), MonitorError> {
        match self {
            AnyMonitor::MinMax(m) => {
                m.absorb_bounds(bounds);
                Ok(())
            }
            AnyMonitor::Pattern(m) => m.absorb_bounds_checked(bounds),
            AnyMonitor::Interval(m) => m.absorb_bounds_checked(bounds),
        }
    }

    /// Feature-level form of [`AnyMonitor::absorb_input_mut`].
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::ExternalSource`] for store failures.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the monitor dimension.
    pub fn absorb_features_mut(&mut self, features: &[f64]) -> Result<(), MonitorError> {
        match self {
            AnyMonitor::MinMax(m) => {
                m.absorb_point(features);
                Ok(())
            }
            AnyMonitor::Pattern(m) => m.absorb_point_checked(features),
            AnyMonitor::Interval(m) => m.absorb_point_checked(features),
        }
    }
}

impl Monitor for AnyMonitor {
    fn extractor(&self) -> &FeatureExtractor {
        self.family().extractor()
    }

    fn verdict_scratch(
        &self,
        net: &Network,
        input: &[f64],
        scratch: &mut QueryScratch,
    ) -> Result<Verdict, MonitorError> {
        self.family().verdict_scratch(net, input, scratch)
    }

    fn verdict_batch_scratch(
        &self,
        net: &Network,
        inputs: &[Vec<f64>],
        scratch: &mut QueryScratch,
        out: &mut Vec<Verdict>,
    ) -> Result<(), MonitorError> {
        self.family()
            .verdict_batch_scratch(net, inputs, scratch, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ComposedMonitor, MonitorSpec};
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

    /// Builds a single-boundary spec and unwraps its one member.
    fn single(spec: MonitorSpec, net: &Network, data: &[Vec<f64>]) -> AnyMonitor {
        match spec.build(net, data).unwrap() {
            ComposedMonitor::Single(m) => m,
            other => panic!("single spec built {other}"),
        }
    }

    fn warns(m: &impl Monitor, net: &Network, x: &[f64]) -> bool {
        m.verdict(net, x).unwrap().warning
    }

    #[test]
    fn validation_catches_bad_inputs() {
        let net = net();
        let spec = MonitorSpec::new(2, MonitorKind::min_max());
        assert!(matches!(
            spec.build(&net, &[]),
            Err(MonitorError::EmptyTrainingSet)
        ));
        assert!(spec.build(&net, &[vec![0.0]]).is_err());
        let bad_robust = spec.clone().robust(0.1, 2, Domain::Box);
        assert!(bad_robust.build(&net, &train_data(4)).is_err());
        let neg_delta = spec.clone().robust(-0.1, 0, Domain::Box);
        assert!(neg_delta.build(&net, &train_data(4)).is_err());
        let neg_gamma = MonitorSpec::new(2, MonitorKind::min_max_enlarged(-1.0));
        assert!(neg_gamma.build(&net, &train_data(4)).is_err());
    }

    #[test]
    fn standard_monitors_accept_training_data() {
        let net = net();
        let data = train_data(64);
        for kind in [
            MonitorKind::min_max(),
            MonitorKind::pattern(),
            MonitorKind::interval(2),
        ] {
            let m = single(MonitorSpec::new(4, kind.clone()), &net, &data);
            for x in &data {
                assert!(
                    !warns(&m, &net, x),
                    "{kind:?} warned on its own training data"
                );
            }
        }
    }

    #[test]
    fn robust_monitors_accept_training_data_and_perturbations() {
        let net = net();
        let data = train_data(32);
        let delta = 0.03;
        let mut rng = Prng::seed(7);
        for kind in [
            MonitorKind::min_max(),
            MonitorKind::pattern(),
            MonitorKind::interval(2),
        ] {
            let spec = MonitorSpec::new(4, kind.clone()).robust(delta, 0, Domain::Box);
            let m = single(spec, &net, &data);
            // Lemma 1: Δ-close inputs never warn.
            for x in data.iter().take(16) {
                for _ in 0..8 {
                    let pert: Vec<f64> =
                        x.iter().map(|&v| v + rng.uniform(-delta, delta)).collect();
                    assert!(!warns(&m, &net, &pert), "{kind:?} violated Lemma 1");
                }
            }
        }
    }

    #[test]
    fn robust_pattern_admits_no_fewer_patterns_than_standard() {
        let net = net();
        let data = train_data(48);
        let spec = MonitorSpec::new(4, MonitorKind::pattern());
        let std_m = single(spec.clone(), &net, &data);
        let rob_m = single(spec.robust(0.05, 0, Domain::Box), &net, &data);
        let (s, r) = (std_m.as_pattern().unwrap(), rob_m.as_pattern().unwrap());
        assert!(r.pattern_count() >= s.pattern_count());
    }

    #[test]
    fn parallel_equals_serial() {
        let net = net();
        let data = train_data(200);
        let spec = MonitorSpec::new(4, MonitorKind::min_max()).robust(0.02, 0, Domain::Box);
        let serial = single(spec.clone(), &net, &data);
        let parallel = single(spec.parallel(true), &net, &data);
        let (s, p) = (serial.as_min_max().unwrap(), parallel.as_min_max().unwrap());
        assert_eq!(s.lo(), p.lo());
        assert_eq!(s.hi(), p.hi());
    }

    #[test]
    fn neuron_subset_restricts_dimension() {
        let net = net();
        let spec = MonitorSpec::new(4, MonitorKind::min_max()).with_neurons(vec![0, 2]);
        let m = single(spec, &net, &train_data(16));
        assert_eq!(m.extractor().dim(), 2);
    }

    #[test]
    fn enlarged_min_max_accepts_more() {
        let net = net();
        let data = train_data(32);
        let plain = single(MonitorSpec::new(4, MonitorKind::min_max()), &net, &data);
        let bloated = single(
            MonitorSpec::new(4, MonitorKind::min_max_enlarged(0.5)),
            &net,
            &data,
        );
        let (p, b) = (plain.as_min_max().unwrap(), bloated.as_min_max().unwrap());
        assert!(b.mean_width() > p.mean_width());
    }

    #[test]
    fn per_class_build_and_dispatch() {
        let net = net(); // 2 output classes
        let data = train_data(40);
        let labels: Vec<usize> = data.iter().map(|x| net.predict_class(x)).collect();
        // Guard: both classes must be populated for this seed.
        assert!(labels.contains(&0) && labels.contains(&1));
        let pc = MonitorSpec::new(4, MonitorKind::pattern())
            .per_class(2)
            .build_with_labels(&net, &data, &labels)
            .unwrap();
        for x in &data {
            assert!(!warns(&pc, &net, x));
        }
    }

    #[test]
    fn per_class_validates_labels() {
        let net = net();
        let data = train_data(8);
        let spec = MonitorSpec::new(4, MonitorKind::pattern()).per_class(2);
        assert!(spec.build_with_labels(&net, &data, &[0; 7]).is_err());
        assert!(spec.build_with_labels(&net, &data, &[5; 8]).is_err());
        // Class 1 empty.
        assert!(spec.build_with_labels(&net, &data, &[0; 8]).is_err());
    }
}

impl std::fmt::Display for AnyMonitor {
    /// A one-line "monitor card" for experiment logs: family, monitored
    /// boundary and width, samples absorbed, and coverage when meaningful.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fx = self.extractor();
        match self {
            AnyMonitor::MinMax(m) => write!(
                f,
                "min-max monitor @ boundary {} ({} neurons, {} samples, mean width {:.4})",
                fx.layer(),
                fx.dim(),
                m.samples(),
                m.mean_width()
            ),
            AnyMonitor::Pattern(m) => write!(
                f,
                "pattern monitor @ boundary {} ({} neurons, {} samples, {} patterns, coverage {:.2e})",
                fx.layer(),
                fx.dim(),
                m.samples(),
                m.pattern_count(),
                m.coverage()
            ),
            AnyMonitor::Interval(m) => write!(
                f,
                "{}-bit interval monitor @ boundary {} ({} neurons, {} samples, coverage {:.2e})",
                m.bits(),
                fx.layer(),
                fx.dim(),
                m.samples(),
                m.coverage()
            ),
        }
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;
    use crate::spec::MonitorSpec;
    use napmon_nn::{Activation, LayerSpec};
    use napmon_tensor::Prng;

    #[test]
    fn monitor_cards_name_family_and_boundary() {
        let net = Network::seeded(7, 3, &[LayerSpec::dense(6, Activation::Relu)]);
        let mut rng = Prng::seed(8);
        let data: Vec<Vec<f64>> = (0..16).map(|_| rng.uniform_vec(3, -1.0, 1.0)).collect();
        let card = |kind| {
            MonitorSpec::new(2, kind)
                .build(&net, &data)
                .unwrap()
                .to_string()
        };
        assert!(card(MonitorKind::min_max()).starts_with("min-max monitor @ boundary 2"));
        let pm = card(MonitorKind::pattern());
        assert!(pm.contains("pattern monitor @ boundary 2"));
        assert!(pm.contains("coverage"));
        assert!(card(MonitorKind::interval(2)).starts_with("2-bit interval monitor"));
    }
}
