//! On-off (Boolean) activation-pattern monitors.

use crate::error::MonitorError;
use crate::feature::FeatureExtractor;
use crate::monitor::{Monitor, QueryScratch, Verdict};
use crate::sliced::SlicedPatternSet;
use crate::source::{SharedPatternSource, SourceDescriptor};
use crate::words::{self, PatternFamily, WordSet};
use napmon_absint::BoxBounds;
use napmon_bdd::{BitCube, BitWord};
use napmon_nn::Network;
use serde::{Deserialize, Serialize};

/// Storage backend for the pattern set.
///
/// The paper stores pattern sets in BDDs so that the robust construction's
/// `word2set` (don't-care expansion) stays linear; the hash-set backend
/// materializes every word and exists for the storage ablation (experiment
/// A5) and as a differential-testing oracle. The `Store` backend delegates
/// the word set to an external [`crate::PatternSource`] (e.g. the
/// persistent log-structured store in `napmon-store`), which is what lets
/// a monitor survive restarts and absorb operation-time patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PatternBackend {
    /// Binary decision diagram (default; matches the paper).
    Bdd,
    /// Explicit hash set of packed words.
    HashSet,
    /// An external pattern source attached at build/mount time
    /// ([`PatternMonitor::with_source`]); specs declaring this backend
    /// build via `MonitorSpec::build_with_sources`.
    Store,
}

/// A Boolean on-off pattern monitor (Cheng et al., DATE 2019; §III-A/B of
/// the paper).
///
/// Each monitored neuron `j` is abstracted to one bit via a threshold
/// `c_j` (`b_j = 1` iff `v_j > c_j`); the set of words visited over the
/// training set is the abstraction. The robust construction abstracts the
/// perturbation estimate instead: a neuron whose `[l_j, u_j]` straddles
/// `c_j` becomes a don't-care and the whole cube is inserted (`word2set`).
///
/// A query warns when its word is not in the set — or, with
/// [`PatternMonitor::set_hamming_tolerance`], not within the configured
/// Hamming distance of any stored word (the query-time enlargement studied
/// in the DATE 2019 paper).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PatternMonitor {
    extractor: FeatureExtractor,
    thresholds: Vec<f64>,
    /// Named `store` in the serialized artifact.
    store: WordSet,
    hamming_tolerance: usize,
    samples: usize,
}

impl PatternMonitor {
    /// Creates an empty monitor with per-neuron thresholds `c_j`.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::DimensionMismatch`] if
    /// `thresholds.len() != extractor.dim()`.
    pub fn empty(
        extractor: FeatureExtractor,
        thresholds: Vec<f64>,
        backend: PatternBackend,
    ) -> Result<Self, MonitorError> {
        if thresholds.len() != extractor.dim() {
            return Err(MonitorError::DimensionMismatch {
                context: "pattern thresholds".into(),
                expected: extractor.dim(),
                actual: thresholds.len(),
            });
        }
        let store = match backend {
            PatternBackend::Bdd => WordSet::bdd(extractor.dim()),
            PatternBackend::HashSet => WordSet::Hash(SlicedPatternSet::default()),
            PatternBackend::Store => {
                return Err(MonitorError::InvalidConfig(
                    "the Store backend needs an attached source; build with \
                     PatternMonitor::with_source (or MonitorSpec::build_with_sources)"
                        .into(),
                ))
            }
        };
        Ok(Self {
            extractor,
            thresholds,
            store,
            hamming_tolerance: 0,
            samples: 0,
        })
    }

    /// Creates a monitor whose word set lives in an external
    /// [`crate::PatternSource`] (backend [`PatternBackend::Store`]).
    ///
    /// The source may already hold words (warm start from a store on
    /// disk); they become members immediately.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::DimensionMismatch`] if
    /// `thresholds.len() != extractor.dim()` or the source's word width
    /// disagrees with the monitor dimension.
    pub fn with_source(
        extractor: FeatureExtractor,
        thresholds: Vec<f64>,
        source: SharedPatternSource,
    ) -> Result<Self, MonitorError> {
        let mut monitor = Self::empty(extractor, thresholds, PatternBackend::HashSet)?;
        let word_bits = monitor.thresholds.len();
        monitor.store = WordSet::attached(source, word_bits, "pattern source word width")?;
        Ok(monitor)
    }

    /// The Boolean abstraction `ab`: `b_j = 1` iff `v_j > c_j`, unpacked.
    ///
    /// Query paths use [`PatternMonitor::abstract_bitword`] instead; this
    /// form exists for inspection and differential tests.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the monitor dimension.
    pub fn abstract_word(&self, features: &[f64]) -> Vec<bool> {
        self.abstract_bitword(features).to_bools()
    }

    /// The Boolean abstraction packed into a [`BitWord`]. Stack-only for
    /// monitors up to [`napmon_bdd::INLINE_BITS`] neurons.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the monitor dimension.
    pub fn abstract_bitword(&self, features: &[f64]) -> BitWord {
        let mut word = BitWord::zeros(self.thresholds.len());
        self.abstract_into(features, &mut word);
        word
    }

    /// Packs the Boolean abstraction into a caller-owned scratch word
    /// (resized as needed; zero allocation once grown).
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the monitor dimension.
    pub fn abstract_into(&self, features: &[f64], word: &mut BitWord) {
        assert_eq!(
            features.len(),
            self.thresholds.len(),
            "abstract_word: dimension mismatch"
        );
        word.fill_from_iter(
            self.thresholds.len(),
            features.iter().zip(&self.thresholds).map(|(v, c)| v > c),
        );
    }

    /// The robust abstraction `ab_R` as a packed cube: `Some(true)` if
    /// `l_j > c_j`, `Some(false)` if `u_j ≤ c_j`, otherwise don't-care
    /// (the paper's `-`).
    ///
    /// # Panics
    ///
    /// Panics if `bounds.dim()` differs from the monitor dimension.
    pub fn abstract_cube(&self, bounds: &BoxBounds) -> BitCube {
        assert_eq!(
            bounds.dim(),
            self.thresholds.len(),
            "abstract_cube: dimension mismatch"
        );
        let mut cube = BitCube::free(self.thresholds.len());
        for j in 0..self.thresholds.len() {
            let c = self.thresholds[j];
            if bounds.lo()[j] > c {
                cube.set(j, Some(true));
            } else if bounds.hi()[j] <= c {
                cube.set(j, Some(false));
            }
        }
        cube
    }

    /// Folds one feature vector (standard construction, `⊎`).
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the monitor dimension, or
    /// if an external source fails; construction loops use
    /// [`PatternMonitor::absorb_point_checked`] to surface source failures
    /// as typed errors instead.
    pub fn absorb_point(&mut self, features: &[f64]) {
        self.absorb_point_checked(features)
            .expect("pattern source append failed");
    }

    /// Fallible form of [`PatternMonitor::absorb_point`]: external sources
    /// can fail on the backing medium.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::ExternalSource`] if the backing store
    /// fails (in-memory backends are infallible).
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the monitor dimension.
    pub fn absorb_point_checked(&mut self, features: &[f64]) -> Result<(), MonitorError> {
        self.store.insert(self.abstract_bitword(features))?;
        self.samples += 1;
        Ok(())
    }

    /// Absorbs one feature vector through `&self` — the operation-time
    /// enlargement path. Only external sources support this (their word
    /// set sits behind a shared lock, so every clone of the monitor — in
    /// particular every serving shard — observes the new pattern
    /// immediately); in-memory backends need `&mut` via
    /// [`PatternMonitor::absorb_point`].
    ///
    /// Does not bump [`PatternMonitor::samples`], which counts
    /// construction-time training samples only.
    ///
    /// Returns `true` if the pattern was new.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::ExternalSource`] for a non-external backend
    /// or a failing store.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the monitor dimension.
    pub fn absorb_features_shared(&self, features: &[f64]) -> Result<bool, MonitorError> {
        self.store.insert_shared(&self.abstract_bitword(features))
    }

    /// Folds one perturbation estimate (robust construction, `⊎_R` with
    /// `word2set`).
    ///
    /// With the BDD backend the insertion is linear in the word length no
    /// matter how many don't-cares appear; the hash-set backend must
    /// enumerate all `2^{#don't-cares}` words — the blow-up the paper's
    /// footnote 2 warns about, reproduced here deliberately.
    ///
    /// # Panics
    ///
    /// Panics if `bounds.dim()` differs from the monitor dimension, if a
    /// non-BDD backend would expand more than `2^24` words, or if an
    /// external source fails (see
    /// [`PatternMonitor::absorb_bounds_checked`]).
    pub fn absorb_bounds(&mut self, bounds: &BoxBounds) {
        self.absorb_bounds_checked(bounds)
            .expect("pattern source append failed");
    }

    /// Fallible form of [`PatternMonitor::absorb_bounds`].
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::ExternalSource`] if the backing store
    /// fails.
    ///
    /// # Panics
    ///
    /// Panics if `bounds.dim()` differs from the monitor dimension or a
    /// non-BDD backend would expand more than `2^24` words.
    pub fn absorb_bounds_checked(&mut self, bounds: &BoxBounds) -> Result<(), MonitorError> {
        let cube = self.abstract_cube(bounds);
        match &mut self.store {
            WordSet::Bdd { bdd, root } => *root = bdd.insert_cube_packed(*root, &cube),
            words => expand_cube(&cube, |w| words.insert(w))?,
        }
        self.samples += 1;
        Ok(())
    }

    /// Sets the query-time Hamming tolerance `τ`: a word is accepted when
    /// some stored word differs in at most `τ` positions.
    pub fn set_hamming_tolerance(&mut self, tau: usize) {
        self.hamming_tolerance = tau;
    }

    /// Whether `word` (exactly) is in the stored set.
    pub fn contains_word(&self, word: &[bool]) -> bool {
        self.contains_packed(&BitWord::from_bools(word))
    }

    /// Packed membership: the allocation-free hot path.
    #[inline]
    pub fn contains_packed(&self, word: &BitWord) -> bool {
        self.store.contains(word)
    }

    /// Whether some stored word is within Hamming distance `tau` of `word`.
    pub fn contains_within(&self, word: &[bool], tau: usize) -> bool {
        self.contains_within_packed(&BitWord::from_bools(word), tau)
    }

    /// Packed Hamming-tolerant membership. The hash backend runs the
    /// bit-sliced kernel (a batch of one); the BDD walk explores
    /// `O(nodes · tau)` states.
    pub fn contains_within_packed(&self, word: &BitWord, tau: usize) -> bool {
        self.store.contains_within(word, tau)
    }

    /// Number of absorbed samples.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Number of distinct words admitted by the monitor. For store-backed
    /// monitors this is a *live* figure: operation-time absorptions move
    /// it.
    pub fn pattern_count(&self) -> f64 {
        self.store.pattern_count()
    }

    /// Fraction of the `2^d` pattern space the monitor admits — the
    /// "efficiency" measure from the paper's conclusion (a monitor covering
    /// almost everything raises almost no warnings).
    pub fn coverage(&self) -> f64 {
        self.pattern_count() / 2f64.powi(self.thresholds.len() as i32)
    }

    /// Memory proxy: BDD nodes, hash-set words, or external-store words
    /// currently stored.
    pub fn store_size(&self) -> usize {
        self.store.store_size()
    }

    /// Per-neuron thresholds `c_j`.
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }

    /// The storage backend the pattern set lives in.
    pub fn backend(&self) -> PatternBackend {
        match &self.store {
            WordSet::Bdd { .. } => PatternBackend::Bdd,
            WordSet::Hash(_) => PatternBackend::HashSet,
            WordSet::External(_) => PatternBackend::Store,
        }
    }

    /// The configured query-time Hamming tolerance `τ`.
    pub fn hamming_tolerance(&self) -> usize {
        self.hamming_tolerance
    }

    /// The descriptor of the external source, if the monitor is
    /// store-backed.
    pub fn external_descriptor(&self) -> Option<&SourceDescriptor> {
        self.store.descriptor()
    }

    /// Whether the monitor is store-backed but its handle is detached
    /// (fresh from deserialization, awaiting
    /// [`PatternMonitor::attach_source`]).
    pub fn needs_source(&self) -> bool {
        self.store.needs_source()
    }

    /// Reattaches (or replaces) the external source behind a store-backed
    /// monitor — the deserialization counterpart of
    /// [`PatternMonitor::with_source`].
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::ExternalSource`] if the monitor is not
    /// store-backed, or [`MonitorError::DimensionMismatch`] if the
    /// source's word width disagrees with the recorded descriptor.
    pub fn attach_source(&mut self, source: SharedPatternSource) -> Result<(), MonitorError> {
        self.store.attach(source)
    }

    /// Flushes the external source's buffered writes, if any (no-op for
    /// in-memory backends).
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::ExternalSource`] if the store fails.
    pub fn commit_source(&self) -> Result<(), MonitorError> {
        self.store.commit()
    }

    /// Full verdict for an already-extracted feature vector, abstracting
    /// into the caller's scratch: warns when the word is not in the set
    /// (or, with a Hamming tolerance `τ`, not within `τ` of it).
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the monitor dimension.
    pub fn verdict_features_scratch(
        &self,
        features: &[f64],
        scratch: &mut QueryScratch,
    ) -> Verdict {
        words::verdict_features(self, features, scratch)
    }
}

/// Enumerates every concrete word of `cube` (don't-cares expanded) into
/// `sink` — the `word2set` materialization non-BDD backends pay, capped at
/// `2^24` words (the paper's footnote-2 blow-up, reproduced deliberately).
fn expand_cube(
    cube: &BitCube,
    mut sink: impl FnMut(BitWord) -> Result<(), MonitorError>,
) -> Result<(), MonitorError> {
    let free: Vec<usize> = (0..cube.len()).filter(|&i| cube.get(i).is_none()).collect();
    assert!(
        free.len() <= 24,
        "hash-set word2set would expand 2^{} words; use the BDD backend",
        free.len()
    );
    let base = BitWord::from_fn(cube.len(), |i| cube.get(i).unwrap_or(false));
    for mask in 0u64..(1u64 << free.len()) {
        let mut w = base.clone();
        for (bit, &pos) in free.iter().enumerate() {
            w.set(pos, (mask >> bit) & 1 == 1);
        }
        sink(w)?;
    }
    Ok(())
}

impl PatternFamily for PatternMonitor {
    fn word_set(&self) -> &WordSet {
        &self.store
    }

    fn word_set_mut(&mut self) -> &mut WordSet {
        &mut self.store
    }

    fn abstract_into(&self, features: &[f64], word: &mut BitWord) {
        self.abstract_into(features, word);
    }

    fn hamming_tolerance(&self) -> usize {
        self.hamming_tolerance
    }
}

impl Monitor for PatternMonitor {
    fn extractor(&self) -> &FeatureExtractor {
        &self.extractor
    }

    fn verdict_scratch(
        &self,
        net: &Network,
        input: &[f64],
        scratch: &mut QueryScratch,
    ) -> Result<Verdict, MonitorError> {
        words::verdict_scratch(self, net, input, scratch)
    }

    /// The batched query path shared with the interval family: the hash
    /// backend runs the bit-sliced batch kernel and store-backed monitors
    /// take one read lock for the whole batch. Verdicts are bit-identical
    /// to the per-input loop.
    fn verdict_batch_scratch(
        &self,
        net: &Network,
        inputs: &[Vec<f64>],
        scratch: &mut QueryScratch,
        out: &mut Vec<Verdict>,
    ) -> Result<(), MonitorError> {
        words::verdict_batch(self, net, inputs, scratch, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::Violation;
    use napmon_nn::{Activation, LayerSpec, Network};

    fn setup(backend: PatternBackend) -> (Network, PatternMonitor) {
        let net = Network::seeded(3, 2, &[LayerSpec::dense(4, Activation::Relu)]);
        let fx = FeatureExtractor::new(&net, 2).unwrap();
        let m = PatternMonitor::empty(fx, vec![0.0; 4], backend).unwrap();
        (net, m)
    }

    #[test]
    fn threshold_arity_is_checked() {
        let net = Network::seeded(3, 2, &[LayerSpec::dense(4, Activation::Relu)]);
        let fx = FeatureExtractor::new(&net, 2).unwrap();
        assert!(PatternMonitor::empty(fx, vec![0.0; 3], PatternBackend::Bdd).is_err());
    }

    #[test]
    fn abstraction_uses_strict_threshold() {
        let (_, m) = setup(PatternBackend::Bdd);
        assert_eq!(
            m.abstract_word(&[0.0, 0.1, -0.1, 5.0]),
            vec![false, true, false, true]
        );
    }

    #[test]
    fn robust_abstraction_emits_dont_cares() {
        let (_, m) = setup(PatternBackend::Bdd);
        let b = BoxBounds::new(vec![0.1, -0.5, -0.2, 0.0], vec![0.2, -0.1, 0.3, 0.0]);
        assert_eq!(
            m.abstract_cube(&b).to_options(),
            vec![Some(true), Some(false), None, Some(false)]
        );
    }

    #[test]
    fn absorbed_words_are_members_in_both_backends() {
        for backend in [PatternBackend::Bdd, PatternBackend::HashSet] {
            let (_, mut m) = setup(backend);
            m.absorb_point(&[1.0, -1.0, 1.0, -1.0]);
            assert!(m.contains_word(&[true, false, true, false]));
            assert!(!m.contains_word(&[true, true, true, false]));
            assert_eq!(m.pattern_count(), 1.0);
            assert_eq!(m.samples(), 1);
        }
    }

    #[test]
    fn robust_insertion_expands_dont_cares() {
        for backend in [PatternBackend::Bdd, PatternBackend::HashSet] {
            let (_, mut m) = setup(backend);
            let b = BoxBounds::new(vec![0.5, -1.0, -0.1, -1.0], vec![1.0, -0.5, 0.1, -0.5]);
            m.absorb_bounds(&b); // word 1 0 - 0 -> two words
            assert_eq!(m.pattern_count(), 2.0);
            assert!(m.contains_word(&[true, false, false, false]));
            assert!(m.contains_word(&[true, false, true, false]));
        }
    }

    #[test]
    fn backends_agree_on_membership() {
        let (_, mut a) = setup(PatternBackend::Bdd);
        let (_, mut b) = setup(PatternBackend::HashSet);
        let boxes = [
            BoxBounds::new(vec![0.5, -1.0, -0.1, -1.0], vec![1.0, -0.5, 0.1, -0.5]),
            BoxBounds::new(vec![-0.5, 0.2, -0.1, -0.2], vec![0.5, 0.4, 0.1, 0.2]),
        ];
        for bx in &boxes {
            a.absorb_bounds(bx);
            b.absorb_bounds(bx);
        }
        assert_eq!(a.pattern_count(), b.pattern_count());
        for bits in 0..16u32 {
            let w: Vec<bool> = (0..4).map(|i| (bits >> i) & 1 == 1).collect();
            assert_eq!(a.contains_word(&w), b.contains_word(&w), "word {w:?}");
        }
    }

    #[test]
    fn hamming_tolerance_accepts_near_misses() {
        for backend in [PatternBackend::Bdd, PatternBackend::HashSet] {
            let (_, mut m) = setup(backend);
            m.absorb_point(&[1.0, 1.0, 1.0, 1.0]);
            let near = [true, true, true, false]; // distance 1
            let far = [false, false, true, false]; // distance 3
            assert!(!m.contains_word(&near));
            assert!(m.contains_within(&near, 1));
            assert!(!m.contains_within(&far, 2));
            m.set_hamming_tolerance(1);
            assert!(
                !m.verdict_features_scratch(&[0.5, 0.5, 0.5, -0.5], &mut QueryScratch::new())
                    .warning
            );
        }
    }

    #[test]
    fn verdict_carries_the_unknown_word() {
        let (_, mut m) = setup(PatternBackend::Bdd);
        m.absorb_point(&[1.0, 1.0, 1.0, 1.0]);
        let v = m.verdict_features_scratch(&[-1.0, 1.0, 1.0, 1.0], &mut QueryScratch::new());
        assert!(v.warning);
        assert!(matches!(&v.violations[0], Violation::UnknownPattern { word } if !word[0]));
    }

    #[test]
    fn coverage_reflects_pattern_fraction() {
        let (_, mut m) = setup(PatternBackend::Bdd);
        m.absorb_point(&[1.0, 1.0, 1.0, 1.0]);
        assert!((m.coverage() - 1.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn end_to_end_monitoring_through_network() {
        let (net, mut m) = setup(PatternBackend::Bdd);
        let train = vec![vec![0.2, 0.1], vec![-0.1, 0.3], vec![0.4, -0.2]];
        for x in &train {
            let f = m.extractor().features(&net, x).unwrap();
            m.absorb_point(&f);
        }
        for x in &train {
            assert!(!m.verdict(&net, x).unwrap().warning);
        }
    }

    #[test]
    fn store_backend_requires_a_source() {
        let (_, _) = setup(PatternBackend::Bdd);
        let net = Network::seeded(3, 2, &[LayerSpec::dense(4, Activation::Relu)]);
        let fx = FeatureExtractor::new(&net, 2).unwrap();
        let err = PatternMonitor::empty(fx, vec![0.0; 4], PatternBackend::Store).unwrap_err();
        assert!(matches!(err, MonitorError::InvalidConfig(_)), "{err}");
    }

    fn external_setup() -> (Network, PatternMonitor) {
        use crate::source::{shared_source, MemoryPatternSource};
        let net = Network::seeded(3, 2, &[LayerSpec::dense(4, Activation::Relu)]);
        let fx = FeatureExtractor::new(&net, 2).unwrap();
        let source = shared_source(MemoryPatternSource::new(4));
        let m = PatternMonitor::with_source(fx, vec![0.0; 4], source).unwrap();
        (net, m)
    }

    #[test]
    fn external_backend_matches_hash_semantics() {
        let (_, mut ext) = external_setup();
        let (_, mut hash) = setup(PatternBackend::HashSet);
        assert_eq!(ext.backend(), PatternBackend::Store);
        for m in [&mut ext, &mut hash] {
            m.absorb_point(&[1.0, -1.0, 1.0, -1.0]);
            m.absorb_bounds(&BoxBounds::new(
                vec![0.5, -1.0, -0.1, -1.0],
                vec![1.0, -0.5, 0.1, -0.5],
            ));
        }
        assert_eq!(ext.pattern_count(), hash.pattern_count());
        assert_eq!(ext.samples(), hash.samples());
        for bits in 0..16u32 {
            let w: Vec<bool> = (0..4).map(|i| (bits >> i) & 1 == 1).collect();
            assert_eq!(ext.contains_word(&w), hash.contains_word(&w), "word {w:?}");
            assert_eq!(ext.contains_within(&w, 1), hash.contains_within(&w, 1));
        }
    }

    #[test]
    fn shared_absorption_needs_external_backend() {
        let (_, m) = setup(PatternBackend::Bdd);
        assert!(m.absorb_features_shared(&[1.0, 1.0, 1.0, 1.0]).is_err());
        let (_, ext) = external_setup();
        assert!(ext.absorb_features_shared(&[1.0, 1.0, 1.0, 1.0]).unwrap());
        assert!(!ext.absorb_features_shared(&[1.0, 1.0, 1.0, 1.0]).unwrap());
        assert!(ext.contains_word(&[true, true, true, true]));
        assert_eq!(
            ext.samples(),
            0,
            "shared absorption is not a training sample"
        );
    }

    #[test]
    fn external_monitor_serializes_as_descriptor_and_reattaches() {
        use crate::source::{shared_source, MemoryPatternSource};
        let (_, ext) = external_setup();
        ext.absorb_features_shared(&[1.0, 1.0, -1.0, -1.0]).unwrap();
        let json = serde_json::to_string(&ext).unwrap();
        // The word set stays in the source: only the descriptor travels.
        assert!(json.contains("\"memory\""), "{json}");
        let mut back: PatternMonitor = serde_json::from_str(&json).unwrap();
        assert!(back.needs_source());
        assert!(back
            .attach_source(shared_source(MemoryPatternSource::new(4)))
            .is_ok());
        assert!(!back.needs_source());
        // The memory source is non-persistent, so the fresh one is empty —
        // persistence is napmon-store's job.
        assert_eq!(back.pattern_count(), 0.0);
        assert!(back
            .attach_source(shared_source(MemoryPatternSource::new(3)))
            .is_err());
    }

    #[test]
    #[should_panic(expected = "use the BDD backend")]
    fn hashset_expansion_has_a_safety_cap() {
        let net = Network::seeded(5, 2, &[LayerSpec::dense(30, Activation::Relu)]);
        let fx = FeatureExtractor::new(&net, 2).unwrap();
        let mut m = PatternMonitor::empty(fx, vec![0.0; 30], PatternBackend::HashSet).unwrap();
        // All 30 dims straddle the threshold: 2^30 words.
        let b = BoxBounds::new(vec![-1.0; 30], vec![1.0; 30]);
        m.absorb_bounds(&b);
    }
}
