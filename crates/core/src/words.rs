//! The recorded word set both pattern families query, and their one
//! query path.
//!
//! An on-off monitor and a `B`-bit interval monitor both abstract a feature
//! vector to a packed bit word and ask whether that word (or, with a
//! Hamming tolerance `τ`, some word within distance `τ`) was recorded; at
//! `B = 1` the two coincide. [`WordSet`] holds that set once for both
//! families: in the paper's BDD, in an explicit hash set, or in an external
//! [`crate::PatternSource`]. [`verdict_scratch`] and [`verdict_batch`] are
//! the families' per-input and batched query paths over it. What differs
//! between the families stays with them ([`PatternFamily`]): the
//! abstraction `ab` and the robust insert `ab_R`.

use crate::error::MonitorError;
use crate::monitor::{Monitor, QueryScratch, Verdict, Violation};
use crate::sliced::SlicedPatternSet;
use crate::source::{ExternalHandle, SharedPatternSource, SourceDescriptor};
use napmon_bdd::{Bdd, BitWord, NodeId};
use napmon_nn::Network;
use serde::{Deserialize, Serialize};

/// A set of fixed-width packed words.
///
/// The hash variant stores words hashed with the same FxHash scheme as the
/// BDD tables and keeps a bit-sliced mirror ([`SlicedPatternSet`]) so
/// Hamming-tolerant queries run the block-transposed kernel; it serializes
/// as the plain word sequence. The external variant serializes as its
/// [`SourceDescriptor`] only (the words stay in the store), which is what
/// makes store-backed artifacts small and warm-startable.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum WordSet {
    Bdd { bdd: Bdd, root: NodeId },
    Hash(SlicedPatternSet),
    External(ExternalHandle),
}

impl WordSet {
    /// An empty BDD over `word_bits` variables.
    pub(crate) fn bdd(word_bits: usize) -> Self {
        WordSet::Bdd {
            bdd: Bdd::new(word_bits),
            root: Bdd::FALSE,
        }
    }

    /// An external set over `source`, whose word width must be
    /// `word_bits`.
    pub(crate) fn attached(
        source: SharedPatternSource,
        word_bits: usize,
        context: &str,
    ) -> Result<Self, MonitorError> {
        let handle = ExternalHandle::attached(source);
        if handle.descriptor().word_bits != word_bits {
            return Err(MonitorError::DimensionMismatch {
                context: context.into(),
                expected: word_bits,
                actual: handle.descriptor().word_bits,
            });
        }
        Ok(WordSet::External(handle))
    }

    /// Adds one word (external sources can fail on the backing medium).
    pub(crate) fn insert(&mut self, word: BitWord) -> Result<(), MonitorError> {
        match self {
            WordSet::Bdd { bdd, root } => *root = bdd.insert_word(*root, &word),
            WordSet::Hash(set) => {
                set.insert(word);
            }
            WordSet::External(handle) => {
                handle.insert(&word)?;
            }
        }
        Ok(())
    }

    /// Adds one word through `&self`: only external sets, whose words sit
    /// behind a shared lock, support this. Returns whether it was new.
    pub(crate) fn insert_shared(&self, word: &BitWord) -> Result<bool, MonitorError> {
        match self {
            WordSet::External(handle) => handle.insert(word),
            _ => Err(MonitorError::ExternalSource(
                "operation-time absorption needs a store-backed monitor \
                 (PatternBackend::Store or with_source)"
                    .into(),
            )),
        }
    }

    /// Exact membership.
    #[inline]
    pub(crate) fn contains(&self, word: &BitWord) -> bool {
        match self {
            WordSet::Bdd { bdd, root } => bdd.eval(*root, word),
            WordSet::Hash(set) => set.contains(word),
            WordSet::External(handle) => handle.contains(word),
        }
    }

    /// Whether some recorded word is within Hamming distance `tau` of
    /// `word` (exact membership at `tau = 0`).
    pub(crate) fn contains_within(&self, word: &BitWord, tau: usize) -> bool {
        if tau == 0 {
            return self.contains(word);
        }
        match self {
            WordSet::Bdd { bdd, root } => bdd.contains_within_hamming(*root, word, tau),
            WordSet::Hash(set) => set.contains_within(word, tau),
            WordSet::External(handle) => handle.contains_within(word, tau),
        }
    }

    /// [`WordSet::contains_within`] for a whole batch, answered together:
    /// the hash set runs the bit-sliced batch kernel and an external set
    /// takes one read lock for the batch.
    fn contains_batch(&self, words: &[BitWord], tau: usize, hits: &mut [bool]) {
        match self {
            // The BDD holds no sliced layout; its walk is already
            // sublinear in the set, so the batch is a plain loop.
            WordSet::Bdd { .. } => {
                for (word, hit) in words.iter().zip(hits.iter_mut()) {
                    *hit = self.contains_within(word, tau);
                }
            }
            WordSet::Hash(set) => set.contains_within_batch(words, tau, hits),
            WordSet::External(handle) => handle.contains_within_batch(words, tau, hits),
        }
    }

    /// The minimum Hamming distance from `word` to the set, in bits
    /// (`word.len()` for an empty set).
    pub(crate) fn min_distance(&self, word: &BitWord) -> f64 {
        (0..=word.len())
            .find(|&tau| self.contains_within(word, tau))
            .unwrap_or(word.len()) as f64
    }

    /// Number of distinct words; live for external sets.
    pub(crate) fn pattern_count(&self) -> f64 {
        match self {
            WordSet::Bdd { bdd, root } => bdd.satcount(*root),
            WordSet::Hash(set) => set.len() as f64,
            WordSet::External(handle) => handle.word_count() as f64,
        }
    }

    /// Memory proxy: BDD nodes reachable from the root, or words held.
    pub(crate) fn store_size(&self) -> usize {
        match self {
            WordSet::Bdd { bdd, root } => bdd.reachable_nodes(*root),
            WordSet::Hash(set) => set.len(),
            WordSet::External(handle) => handle.store_size(),
        }
    }

    /// The external source's descriptor, if the set is external.
    pub(crate) fn descriptor(&self) -> Option<&SourceDescriptor> {
        match self {
            WordSet::External(handle) => Some(handle.descriptor()),
            _ => None,
        }
    }

    /// Whether the set is external but detached (fresh from
    /// deserialization).
    pub(crate) fn needs_source(&self) -> bool {
        matches!(self, WordSet::External(h) if !h.is_attached())
    }

    /// Reattaches (or replaces) the source behind an external set.
    pub(crate) fn attach(&mut self, source: SharedPatternSource) -> Result<(), MonitorError> {
        match self {
            WordSet::External(handle) => handle.attach(source),
            _ => Err(MonitorError::ExternalSource(
                "monitor is not store-backed; nothing to attach".into(),
            )),
        }
    }

    /// Flushes an external source's buffered writes (no-op otherwise).
    pub(crate) fn commit(&self) -> Result<(), MonitorError> {
        match self {
            WordSet::External(handle) => handle.commit(),
            _ => Ok(()),
        }
    }
}

/// What a pattern family brings to the shared query path: its abstraction
/// `ab` and the word set it records.
pub(crate) trait PatternFamily {
    /// The recorded words.
    fn word_set(&self) -> &WordSet;
    /// Mutable access to the recorded words (source attachment).
    fn word_set_mut(&mut self) -> &mut WordSet;
    /// Packs the abstraction of `features` into `word`.
    fn abstract_into(&self, features: &[f64], word: &mut BitWord);
    /// The query-time Hamming tolerance `τ`.
    fn hamming_tolerance(&self) -> usize {
        0
    }
}

/// The verdict on one abstracted word: all clear if it (or a word within
/// `τ`) is recorded, otherwise a warning carrying the unknown word.
fn word_verdict(word: &BitWord, known: bool) -> Verdict {
    if known {
        Verdict::ok()
    } else {
        // Warnings are the cold path; unpacking for the evidence is fine.
        Verdict::warn(vec![Violation::UnknownPattern {
            word: word.to_bools(),
        }])
    }
}

/// A pattern family's feature-level verdict, abstracting into the
/// scratch's word.
pub(crate) fn verdict_features<F: PatternFamily + ?Sized>(
    family: &F,
    features: &[f64],
    scratch: &mut QueryScratch,
) -> Verdict {
    family.abstract_into(features, &mut scratch.word);
    let known = family
        .word_set()
        .contains_within(&scratch.word, family.hamming_tolerance());
    word_verdict(&scratch.word, known)
}

/// A pattern family's per-input query path: forward pass, abstraction and
/// one membership test. This is the reference [`verdict_batch`] is
/// checked against, so it shares none of the batch kernel.
pub(crate) fn verdict_scratch<F: PatternFamily + Monitor>(
    family: &F,
    net: &Network,
    input: &[f64],
    scratch: &mut QueryScratch,
) -> Result<Verdict, MonitorError> {
    scratch.with_features(family.extractor(), net, input, |features, scratch| {
        verdict_features(family, features, scratch)
    })
}

/// The batched query kernel of both pattern families: abstract every input
/// into `scratch.batch_words`, answer all memberships in one call (the
/// hash set runs the bit-sliced batch kernel, an external set takes one
/// read lock for the batch), then assemble the verdicts. Verdicts are
/// bit-identical to the per-input [`verdict_scratch`] loop.
pub(crate) fn verdict_batch<F: PatternFamily + Monitor>(
    family: &F,
    net: &Network,
    inputs: &[Vec<f64>],
    scratch: &mut QueryScratch,
    out: &mut Vec<Verdict>,
) -> Result<(), MonitorError> {
    out.clear();
    if scratch.batch_words.len() < inputs.len() {
        scratch.batch_words.resize(inputs.len(), BitWord::default());
    }
    let extractor = family.extractor();
    let mut features = std::mem::take(&mut scratch.features);
    for (input, word) in inputs.iter().zip(scratch.batch_words.iter_mut()) {
        let extracted = extractor.features_into(net, input, &mut scratch.forward, &mut features);
        if let Err(e) = extracted {
            scratch.features = features;
            return Err(e);
        }
        family.abstract_into(&features, word);
    }
    scratch.features = features;

    let words = &scratch.batch_words[..inputs.len()];
    scratch.batch_hits.clear();
    scratch.batch_hits.resize(inputs.len(), false);
    family
        .word_set()
        .contains_batch(words, family.hamming_tolerance(), &mut scratch.batch_hits);

    out.reserve(inputs.len());
    out.extend(
        words
            .iter()
            .zip(&scratch.batch_hits)
            .map(|(word, &known)| word_verdict(word, known)),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::FeatureExtractor;
    use crate::interval_pattern::IntervalPatternMonitor;
    use crate::pattern::{PatternBackend, PatternMonitor};
    use crate::source::{shared_source, MemoryPatternSource};
    use napmon_nn::{Activation, LayerSpec};
    use napmon_tensor::Prng;

    #[test]
    fn attached_set_checks_the_source_width() {
        let source = shared_source(MemoryPatternSource::new(3));
        let err = WordSet::attached(source, 4, "test width").unwrap_err();
        assert!(
            matches!(err, MonitorError::DimensionMismatch { .. }),
            "{err}"
        );
    }

    /// With `B = 1` and the same thresholds the two families record the
    /// same words, so the shared kernel gives them the same verdicts.
    #[test]
    fn one_bit_interval_and_on_off_monitors_share_verdicts() {
        let net = Network::seeded(61, 3, &[LayerSpec::dense(6, Activation::Relu)]);
        let fx = FeatureExtractor::new(&net, 2).unwrap();
        let mut on_off =
            PatternMonitor::empty(fx.clone(), vec![0.1; 6], PatternBackend::Bdd).unwrap();
        let mut interval = IntervalPatternMonitor::empty(fx, 1, vec![vec![0.1]; 6]).unwrap();
        let mut rng = Prng::seed(62);
        for _ in 0..24 {
            let features = on_off
                .extractor()
                .features(&net, &rng.uniform_vec(3, -1.0, 1.0))
                .unwrap();
            on_off.absorb_point(&features);
            interval.absorb_point(&features);
        }
        let probes: Vec<Vec<f64>> = (0..64).map(|_| rng.uniform_vec(3, -2.0, 2.0)).collect();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let mut scratch = QueryScratch::new();
        on_off
            .verdict_batch_scratch(&net, &probes, &mut scratch, &mut a)
            .unwrap();
        interval
            .verdict_batch_scratch(&net, &probes, &mut scratch, &mut b)
            .unwrap();
        assert_eq!(a, b);
        assert!(a.iter().any(|v| v.warning) && a.iter().any(|v| !v.warning));
    }
}
