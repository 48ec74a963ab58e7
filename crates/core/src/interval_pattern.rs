//! Multi-bit interval activation-pattern monitors (§III-C of the paper).
//!
//! Instead of one on/off bit per neuron, each neuron gets `B` bits encoding
//! which of `2^B` value intervals (split by `2^B − 1` ascending thresholds)
//! the neuron landed in. The robust variant maps the perturbation estimate
//! `[l_j, u_j]` to the *set* of interval symbols it touches — always a
//! contiguous symbol range, because the symbol index is monotone in the
//! neuron value. For `B = 2` this regenerates exactly the ten cases of the
//! paper's Figure 1.
//!
//! ## Boundary convention
//!
//! We use the uniform half-open rule `symbol(v) = #{ i : v > c_i }`, which
//! coincides with the paper's 2-bit table everywhere except the measure-zero
//! boundary `v = c_2` (the paper's table mixes strict and non-strict
//! comparisons between rows; the uniform rule is the one that also agrees
//! with the paper's *on-off* monitor `b_j = 1 ⇔ v_j > c_j` at `B = 1`).

use crate::error::MonitorError;
use crate::feature::FeatureExtractor;
use crate::monitor::{Monitor, QueryScratch, Verdict};
use crate::source::{SharedPatternSource, SourceDescriptor};
use crate::words::{self, PatternFamily, WordSet};
use napmon_absint::BoxBounds;
use napmon_bdd::BitWord;
use napmon_nn::Network;
use napmon_tensor::stats;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// How per-neuron thresholds are chosen from the training features.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ThresholdPolicy {
    /// All thresholds at `0.0` (the DATE 2019 "sign of the neuron value");
    /// only meaningful for 1-bit monitors.
    Sign,
    /// A single threshold at the mean visited value (1-bit only).
    Mean,
    /// `2^B − 1` evenly spaced interior quantiles of the visited values —
    /// the natural generalization for multi-bit monitors.
    Quantiles,
    /// Explicit per-neuron threshold lists (each ascending, length
    /// `2^B − 1`).
    Explicit(Vec<Vec<f64>>),
}

impl ThresholdPolicy {
    /// Resolves the policy into per-neuron ascending threshold lists.
    ///
    /// `features` holds the training feature vectors (used by the
    /// data-dependent policies).
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::InvalidConfig`] when the policy does not
    /// support the requested bit width or the explicit thresholds are
    /// malformed.
    pub fn resolve(
        &self,
        dim: usize,
        bits: usize,
        features: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>, MonitorError> {
        let per_neuron = (1usize << bits) - 1;
        match self {
            ThresholdPolicy::Sign => {
                if bits != 1 {
                    return Err(MonitorError::InvalidConfig(
                        "Sign policy requires bits = 1".into(),
                    ));
                }
                Ok(vec![vec![0.0]; dim])
            }
            ThresholdPolicy::Mean => {
                if bits != 1 {
                    return Err(MonitorError::InvalidConfig(
                        "Mean policy requires bits = 1".into(),
                    ));
                }
                if features.is_empty() {
                    return Err(MonitorError::EmptyTrainingSet);
                }
                let mut out = Vec::with_capacity(dim);
                for j in 0..dim {
                    let column: Vec<f64> = features.iter().map(|f| f[j]).collect();
                    out.push(vec![stats::mean(&column)]);
                }
                Ok(out)
            }
            ThresholdPolicy::Quantiles => {
                if features.is_empty() {
                    return Err(MonitorError::EmptyTrainingSet);
                }
                let mut out = Vec::with_capacity(dim);
                for j in 0..dim {
                    let column: Vec<f64> = features.iter().map(|f| f[j]).collect();
                    let mut qs = stats::interior_quantiles(&column, per_neuron);
                    // Degenerate columns (constant activations) produce tied
                    // quantiles; nudge them apart so the list is ascending.
                    for i in 1..qs.len() {
                        if qs[i] <= qs[i - 1] {
                            qs[i] = qs[i - 1] + f64::EPSILON.max(qs[i - 1].abs() * 1e-12);
                        }
                    }
                    out.push(qs);
                }
                Ok(out)
            }
            ThresholdPolicy::Explicit(lists) => {
                if lists.len() != dim {
                    return Err(MonitorError::DimensionMismatch {
                        context: "explicit thresholds".into(),
                        expected: dim,
                        actual: lists.len(),
                    });
                }
                check_thresholds(lists, bits)?;
                Ok(lists.clone())
            }
        }
    }
}

/// Checks per-neuron threshold lists for `bits`-bit patterns: `2^bits − 1`
/// strictly ascending, finite thresholds per neuron.
pub(crate) fn check_thresholds(lists: &[Vec<f64>], bits: usize) -> Result<(), MonitorError> {
    let per_neuron = (1usize << bits) - 1;
    for (j, list) in lists.iter().enumerate() {
        let fault = if list.len() != per_neuron {
            format!(
                "expected {per_neuron} thresholds for {bits}-bit patterns, got {}",
                list.len()
            )
        } else if list.windows(2).any(|w| w[0] >= w[1]) {
            "thresholds not ascending".into()
        } else if list.iter().any(|c| !c.is_finite()) {
            "thresholds must be finite".into()
        } else {
            continue;
        };
        return Err(MonitorError::InvalidConfig(format!("neuron {j}: {fault}")));
    }
    Ok(())
}

/// A multi-bit interval activation-pattern monitor with `B` variables per
/// neuron (most-significant bit first), stored in a BDD (the paper's
/// choice) or delegated to an external pattern source
/// ([`IntervalPatternMonitor::with_source`]).
#[derive(Debug, Clone)]
pub struct IntervalPatternMonitor {
    extractor: FeatureExtractor,
    bits: usize,
    /// Per neuron: `2^B − 1` ascending thresholds.
    thresholds: Vec<Vec<f64>>,
    /// The BDD or an external source; never the hash set.
    store: WordSet,
    samples: usize,
}

/// Serialization stays field-compatible with the historical BDD-only
/// struct (`bdd` + `root` fields inline), so existing artifacts keep
/// loading; store-backed monitors write an `external` descriptor field
/// instead of the arena. Hand-written because the vendored serde derive
/// cannot express either the enum flattening or field defaults.
impl Serialize for IntervalPatternMonitor {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::Error;
        let mut map = serde::Map::new();
        let mut put = |key: &str, value: Result<serde::Value, serde::ValueError>| {
            value.map(|v| map.insert(key.to_string(), v))
        };
        put("extractor", serde::to_value(&self.extractor)).map_err(S::Error::custom)?;
        put("bits", serde::to_value(&self.bits)).map_err(S::Error::custom)?;
        put("thresholds", serde::to_value(&self.thresholds)).map_err(S::Error::custom)?;
        put("samples", serde::to_value(&self.samples)).map_err(S::Error::custom)?;
        match &self.store {
            WordSet::Bdd { bdd, root } => {
                put("bdd", serde::to_value(bdd)).map_err(S::Error::custom)?;
                put("root", serde::to_value(root)).map_err(S::Error::custom)?;
            }
            WordSet::External(handle) => {
                put("external", serde::to_value(handle)).map_err(S::Error::custom)?;
            }
            WordSet::Hash(_) => unreachable!("interval monitors are never hash-backed"),
        }
        serializer.serialize_value(serde::Value::Object(map))
    }
}

impl<'de> Deserialize<'de> for IntervalPatternMonitor {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error;
        let serde::Value::Object(mut map) = deserializer.deserialize_value()? else {
            return Err(D::Error::custom(
                "expected object for IntervalPatternMonitor",
            ));
        };
        fn take<E: Error>(map: &mut serde::Map, key: &str) -> Result<serde::Value, E> {
            map.remove(key).ok_or_else(|| {
                E::custom(format!("missing field `{key}` in IntervalPatternMonitor"))
            })
        }
        let extractor: FeatureExtractor =
            serde::from_value(take(&mut map, "extractor")?).map_err(D::Error::custom)?;
        let bits: usize = serde::from_value(take(&mut map, "bits")?).map_err(D::Error::custom)?;
        let thresholds: Vec<Vec<f64>> =
            serde::from_value(take(&mut map, "thresholds")?).map_err(D::Error::custom)?;
        let samples: usize =
            serde::from_value(take(&mut map, "samples")?).map_err(D::Error::custom)?;
        let store = if let Some(external) = map.remove("external") {
            WordSet::External(serde::from_value(external).map_err(D::Error::custom)?)
        } else {
            WordSet::Bdd {
                bdd: serde::from_value(take(&mut map, "bdd")?).map_err(D::Error::custom)?,
                root: serde::from_value(take(&mut map, "root")?).map_err(D::Error::custom)?,
            }
        };
        Ok(Self {
            extractor,
            bits,
            thresholds,
            store,
            samples,
        })
    }
}

impl IntervalPatternMonitor {
    /// Creates an empty monitor.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::InvalidConfig`] for `bits` outside `1..=8`
    /// or malformed thresholds (wrong count, not ascending, not finite).
    pub fn empty(
        extractor: FeatureExtractor,
        bits: usize,
        thresholds: Vec<Vec<f64>>,
    ) -> Result<Self, MonitorError> {
        if bits == 0 || bits > 8 {
            return Err(MonitorError::InvalidConfig(format!(
                "bits per neuron must be in 1..=8, got {bits}"
            )));
        }
        if thresholds.len() != extractor.dim() {
            return Err(MonitorError::DimensionMismatch {
                context: "interval thresholds".into(),
                expected: extractor.dim(),
                actual: thresholds.len(),
            });
        }
        check_thresholds(&thresholds, bits)?;
        Ok(Self {
            store: WordSet::bdd(extractor.dim() * bits),
            extractor,
            bits,
            thresholds,
            samples: 0,
        })
    }

    /// Creates a monitor whose symbol-word set lives in an external
    /// [`crate::PatternSource`] over the packed `B·d`-bit encoding.
    ///
    /// The source may already hold words (warm start from a store on
    /// disk); they are members immediately.
    ///
    /// # Errors
    ///
    /// Same conditions as [`IntervalPatternMonitor::empty`], plus
    /// [`MonitorError::DimensionMismatch`] if the source's word width is
    /// not `extractor.dim() * bits`.
    pub fn with_source(
        extractor: FeatureExtractor,
        bits: usize,
        thresholds: Vec<Vec<f64>>,
        source: SharedPatternSource,
    ) -> Result<Self, MonitorError> {
        let mut monitor = Self::empty(extractor, bits, thresholds)?;
        let word_bits = monitor.extractor.dim() * bits;
        monitor.store = WordSet::attached(source, word_bits, "interval pattern source word width")?;
        Ok(monitor)
    }

    /// Bits per neuron `B`.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// The interval symbol of value `v` for neuron `j`:
    /// `#{ i : v > c_{j,i} }`, in `0..2^B`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn symbol(&self, j: usize, v: f64) -> u16 {
        self.thresholds[j].iter().filter(|&&c| v > c).count() as u16
    }

    /// The contiguous symbol set touched by `[l, u]` for neuron `j` —
    /// the robust encoding `ab_R` of the paper (Figure 1 for `B = 2`).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range or `l > u`.
    pub fn symbol_range(&self, j: usize, l: f64, u: f64) -> std::ops::RangeInclusive<u16> {
        assert!(l <= u, "symbol_range: empty interval [{l}, {u}]");
        self.symbol(j, l)..=self.symbol(j, u)
    }

    /// The abstraction `ab`: one symbol per neuron.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the monitor dimension.
    pub fn abstract_symbols(&self, features: &[f64]) -> Vec<u16> {
        assert_eq!(
            features.len(),
            self.thresholds.len(),
            "abstract_symbols: dimension mismatch"
        );
        features
            .iter()
            .enumerate()
            .map(|(j, &v)| self.symbol(j, v))
            .collect()
    }

    /// The packed bit encoding of the symbol word (neuron-major, most
    /// significant bit first): the query-path abstraction. Computes the
    /// symbols inline — no intermediate symbol vector, no heap allocation
    /// for monitors up to [`napmon_bdd::INLINE_BITS`] total bits.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the monitor dimension.
    pub fn abstract_bitword(&self, features: &[f64]) -> BitWord {
        let mut word = BitWord::zeros(self.thresholds.len() * self.bits);
        self.abstract_into(features, &mut word);
        word
    }

    /// Packs the bit encoding into a caller-owned scratch word (resized as
    /// needed; zero allocation once grown).
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the monitor dimension.
    pub fn abstract_into(&self, features: &[f64], word: &mut BitWord) {
        assert_eq!(
            features.len(),
            self.thresholds.len(),
            "abstract_symbols: dimension mismatch"
        );
        let bits = self.bits;
        // fill_with visits bits in order, so each neuron's symbol is
        // computed once and reused for its `bits` consecutive positions.
        let mut current_neuron = usize::MAX;
        let mut symbol = 0u16;
        word.fill_with(self.thresholds.len() * bits, |i| {
            let j = i / bits;
            if j != current_neuron {
                symbol = self.symbol(j, features[j]);
                current_neuron = j;
            }
            (symbol >> (bits - 1 - i % bits)) & 1 == 1
        });
    }

    /// Folds one feature vector (standard construction).
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the monitor dimension, or
    /// if an external source fails (construction loops use
    /// [`IntervalPatternMonitor::absorb_point_checked`]).
    pub fn absorb_point(&mut self, features: &[f64]) {
        self.absorb_point_checked(features)
            .expect("pattern source append failed");
    }

    /// Fallible form of [`IntervalPatternMonitor::absorb_point`]:
    /// external sources can fail on the backing medium.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::ExternalSource`] if the backing store
    /// fails.
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
    /// enlargement path for store-backed monitors; see
    /// [`crate::PatternMonitor::absorb_features_shared`] for the
    /// semantics (shared visibility, `samples` untouched).
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::ExternalSource`] for a BDD-backed monitor
    /// or a failing store.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the monitor dimension.
    pub fn absorb_features_shared(&self, features: &[f64]) -> Result<bool, MonitorError> {
        self.store.insert_shared(&self.abstract_bitword(features))
    }

    /// Folds one perturbation estimate (robust construction): per neuron
    /// the contiguous symbol set, inserted as a product via `word2set`.
    ///
    /// # Panics
    ///
    /// Panics if `bounds.dim()` differs from the monitor dimension, if a
    /// store-backed monitor would expand more than `2^24` words, or if an
    /// external source fails (see
    /// [`IntervalPatternMonitor::absorb_bounds_checked`]).
    pub fn absorb_bounds(&mut self, bounds: &BoxBounds) {
        self.absorb_bounds_checked(bounds)
            .expect("pattern source append failed");
    }

    /// Fallible form of [`IntervalPatternMonitor::absorb_bounds`].
    ///
    /// With the BDD store the symbol-set product inserts in time linear in
    /// the word length; an external store must materialize the product —
    /// the same footnote-2 blow-up as the hash-set on-off backend, capped
    /// at `2^24` words.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::ExternalSource`] if the backing store
    /// fails.
    ///
    /// # Panics
    ///
    /// Panics if `bounds.dim()` differs from the monitor dimension or the
    /// external product would exceed `2^24` words.
    pub fn absorb_bounds_checked(&mut self, bounds: &BoxBounds) -> Result<(), MonitorError> {
        assert_eq!(
            bounds.dim(),
            self.thresholds.len(),
            "absorb_bounds: dimension mismatch"
        );
        let blocks: Vec<Vec<u16>> = (0..self.thresholds.len())
            .map(|j| {
                self.symbol_range(j, bounds.lo()[j], bounds.hi()[j])
                    .collect()
            })
            .collect();
        let bits = self.bits;
        match &mut self.store {
            WordSet::Bdd { bdd, root } => {
                let cube = bdd.product_of_blocks(&blocks, bits);
                *root = bdd.or(*root, cube);
            }
            words => {
                // Overflow-proof product: bail out the moment the running
                // expansion passes the cap, so a 2^64-word product can
                // neither wrap past the check nor hang the enumeration.
                let expansion = blocks
                    .iter()
                    .try_fold(1u64, |acc, b| acc.checked_mul(b.len() as u64))
                    .filter(|&n| n <= 1 << 24);
                assert!(
                    expansion.is_some(),
                    "store word2set would expand more than 2^24 words; use the BDD store"
                );
                // Mixed-radix enumeration of the symbol product.
                let mut indices = vec![0usize; blocks.len()];
                'product: loop {
                    let word = BitWord::from_fn(blocks.len() * bits, |i| {
                        let symbol = blocks[i / bits][indices[i / bits]];
                        (symbol >> (bits - 1 - i % bits)) & 1 == 1
                    });
                    words.insert(word)?;
                    let mut j = blocks.len();
                    loop {
                        if j == 0 {
                            break 'product;
                        }
                        j -= 1;
                        indices[j] += 1;
                        if indices[j] < blocks[j].len() {
                            break;
                        }
                        indices[j] = 0;
                    }
                }
            }
        }
        self.samples += 1;
        Ok(())
    }

    /// Whether the symbol word of `features` is in the recorded set.
    pub fn contains(&self, features: &[f64]) -> bool {
        self.contains_packed(&self.abstract_bitword(features))
    }

    /// Packed membership against a pre-abstracted word.
    ///
    /// # Panics
    ///
    /// Panics if `word.len() != dim * bits`.
    #[inline]
    pub fn contains_packed(&self, word: &BitWord) -> bool {
        self.store.contains(word)
    }

    /// Whether some recorded bit word is within Hamming distance `tau` of
    /// `word` (over the `bits × neurons` encoding; packed or `bool`-slice
    /// form).
    ///
    /// # Panics
    ///
    /// Panics if `word.bit_len() != dim * bits`.
    pub fn contains_word_within<W: napmon_bdd::AsBits + ?Sized>(
        &self,
        word: &W,
        tau: usize,
    ) -> bool {
        let packed = BitWord::from_fn(word.bit_len(), |i| word.bit(i));
        self.store.contains_within(&packed, tau)
    }

    /// Number of absorbed samples.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Number of distinct symbol words admitted. Live for store-backed
    /// monitors: operation-time absorptions move it.
    pub fn pattern_count(&self) -> f64 {
        self.store.pattern_count()
    }

    /// Fraction of the `2^{B·d}` pattern space admitted (monitor
    /// "efficiency" in the sense of the paper's conclusion).
    pub fn coverage(&self) -> f64 {
        self.pattern_count() / 2f64.powi((self.thresholds.len() * self.bits) as i32)
    }

    /// Memory proxy: BDD nodes reachable from the root, or external-store
    /// words.
    pub fn store_size(&self) -> usize {
        self.store.store_size()
    }

    /// Per-neuron thresholds.
    pub fn thresholds(&self) -> &[Vec<f64>] {
        &self.thresholds
    }

    /// The descriptor of the external source, if the monitor is
    /// store-backed.
    pub fn external_descriptor(&self) -> Option<&SourceDescriptor> {
        self.store.descriptor()
    }

    /// Whether the monitor is store-backed but its handle is detached
    /// (fresh from deserialization).
    pub fn needs_source(&self) -> bool {
        self.store.needs_source()
    }

    /// Reattaches (or replaces) the external source behind a store-backed
    /// monitor.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::ExternalSource`] if the monitor is
    /// BDD-backed, or [`MonitorError::DimensionMismatch`] on word-width
    /// disagreement.
    pub fn attach_source(&mut self, source: SharedPatternSource) -> Result<(), MonitorError> {
        self.store.attach(source)
    }

    /// Flushes the external source's buffered writes, if any.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::ExternalSource`] if the store fails.
    pub fn commit_source(&self) -> Result<(), MonitorError> {
        self.store.commit()
    }

    /// Full verdict for an already-extracted feature vector, abstracting
    /// into the caller's scratch: warns when the symbol word is not in the
    /// recorded set.
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

impl PatternFamily for IntervalPatternMonitor {
    fn word_set(&self) -> &WordSet {
        &self.store
    }

    fn word_set_mut(&mut self) -> &mut WordSet {
        &mut self.store
    }

    fn abstract_into(&self, features: &[f64], word: &mut BitWord) {
        self.abstract_into(features, word);
    }
}

impl Monitor for IntervalPatternMonitor {
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

    /// The batched query path shared with the on-off family: store-backed
    /// monitors take one read lock (and one store kernel pass) for the
    /// batch instead of one per input. Verdicts are bit-identical to the
    /// per-input loop.
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
    use napmon_nn::{Activation, LayerSpec, Network};

    fn extractor(width: usize) -> FeatureExtractor {
        let net = Network::seeded(3, 2, &[LayerSpec::dense(width, Activation::Relu)]);
        FeatureExtractor::new(&net, 2).unwrap()
    }

    fn two_bit_monitor() -> IntervalPatternMonitor {
        // One neuron with thresholds c1=0, c2=1, c3=2.
        IntervalPatternMonitor::empty(extractor(1), 2, vec![vec![0.0, 1.0, 2.0]]).unwrap()
    }

    #[test]
    fn construction_validates_inputs() {
        assert!(IntervalPatternMonitor::empty(extractor(1), 0, vec![vec![]]).is_err());
        assert!(IntervalPatternMonitor::empty(extractor(1), 2, vec![vec![0.0, 1.0]]).is_err());
        assert!(IntervalPatternMonitor::empty(extractor(1), 2, vec![vec![2.0, 1.0, 0.0]]).is_err());
        assert!(IntervalPatternMonitor::empty(extractor(2), 2, vec![vec![0.0, 1.0, 2.0]]).is_err());
        assert!(two_bit_monitor().thresholds().len() == 1);
    }

    #[test]
    fn symbols_follow_paper_table() {
        let m = two_bit_monitor();
        // Paper's 2-bit encoding: 11 iff v > c3; 00 iff v <= c1.
        assert_eq!(m.symbol(0, 3.0), 3); // > c3 -> 11
        assert_eq!(m.symbol(0, 1.5), 2); // c2 < v <= c3 -> 10
        assert_eq!(m.symbol(0, 2.0), 2); // v == c3 stays 10 (paper: c3 >= v >= c2)
        assert_eq!(m.symbol(0, 0.5), 1); // c1 < v < c2 -> 01
        assert_eq!(m.symbol(0, 0.0), 0); // v == c1 -> 00 (paper: otherwise)
        assert_eq!(m.symbol(0, -1.0), 0);
    }

    #[test]
    fn figure_1_robust_encoding_all_ten_cases() {
        let m = two_bit_monitor();
        let cases: Vec<((f64, f64), Vec<u16>)> = vec![
            ((2.5, 3.0), vec![3]),           // l > c3:              {11}
            ((1.2, 1.8), vec![2]),           // c2 <= l <= u <= c3:  {10}
            ((0.3, 0.7), vec![1]),           // c1 < l <= u < c2:    {01}
            ((-1.0, -0.5), vec![0]),         // u <= c1:             {00}
            ((-0.5, 0.5), vec![0, 1]),       // straddles c1:        {00,01}
            ((0.5, 1.5), vec![1, 2]),        // straddles c2:        {01,10}
            ((1.5, 2.5), vec![2, 3]),        // straddles c3:        {10,11}
            ((-0.5, 1.5), vec![0, 1, 2]),    // c1 and c2:           {00,01,10}
            ((0.5, 2.5), vec![1, 2, 3]),     // c2 and c3:           {01,10,11}
            ((-0.5, 2.5), vec![0, 1, 2, 3]), // everything
        ];
        for ((l, u), expected) in cases {
            let got: Vec<u16> = m.symbol_range(0, l, u).collect();
            assert_eq!(got, expected, "interval [{l}, {u}]");
        }
    }

    #[test]
    fn absorbed_points_are_members() {
        let mut m = two_bit_monitor();
        m.absorb_point(&[1.5]); // symbol 10
        assert!(m.contains(&[1.2]));
        assert!(!m.contains(&[0.5]));
        assert!(!m.contains(&[2.5]));
        assert_eq!(m.pattern_count(), 1.0);
    }

    #[test]
    fn robust_absorption_admits_the_whole_range() {
        let mut m = two_bit_monitor();
        m.absorb_bounds(&BoxBounds::new(vec![0.5], vec![1.5])); // {01, 10}
        assert!(m.contains(&[0.7]));
        assert!(m.contains(&[1.3]));
        assert!(!m.contains(&[-1.0]));
        assert!(!m.contains(&[5.0]));
        assert_eq!(m.pattern_count(), 2.0);
    }

    #[test]
    fn multi_neuron_product_set() {
        let mut m = IntervalPatternMonitor::empty(
            extractor(2),
            2,
            vec![vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 2.0]],
        )
        .unwrap();
        m.absorb_bounds(&BoxBounds::new(vec![0.5, -1.0], vec![1.5, 0.5]));
        // Neuron 0: {01,10}; neuron 1: {00,01} -> 4 words.
        assert_eq!(m.pattern_count(), 4.0);
        assert!(m.contains(&[0.7, -0.2]));
        assert!(m.contains(&[1.2, 0.3]));
        assert!(!m.contains(&[1.2, 1.2]));
    }

    #[test]
    fn one_bit_monitor_degenerates_to_on_off() {
        let mut m =
            IntervalPatternMonitor::empty(extractor(2), 1, vec![vec![0.0], vec![0.0]]).unwrap();
        m.absorb_point(&[1.0, -1.0]); // word 1 0
        assert!(m.contains(&[0.5, -0.5]));
        assert!(!m.contains(&[0.5, 0.5]));
    }

    #[test]
    fn three_bit_monitor_resolves_finer() {
        let thresholds: Vec<f64> = (1..8).map(|i| i as f64).collect(); // 1..7
        let mut m = IntervalPatternMonitor::empty(extractor(1), 3, vec![thresholds]).unwrap();
        m.absorb_point(&[3.5]); // symbol = #{c < 3.5} = 3
        assert!(m.contains(&[3.2]));
        assert!(!m.contains(&[4.2]));
        assert_eq!(m.abstract_symbols(&[3.5]), vec![3]);
    }

    #[test]
    fn quantile_policy_resolves_ascending_thresholds() {
        let features: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64, 42.0]).collect();
        let lists = ThresholdPolicy::Quantiles.resolve(2, 2, &features).unwrap();
        assert_eq!(lists.len(), 2);
        assert_eq!(lists[0].len(), 3);
        assert!(lists[0].windows(2).all(|w| w[0] < w[1]));
        // Constant column: nudged apart but still ascending.
        assert!(lists[1].windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sign_and_mean_policies_only_one_bit() {
        let features = vec![vec![1.0], vec![3.0]];
        assert!(ThresholdPolicy::Sign.resolve(1, 2, &features).is_err());
        assert!(ThresholdPolicy::Mean.resolve(1, 2, &features).is_err());
        assert_eq!(
            ThresholdPolicy::Sign.resolve(1, 1, &features).unwrap(),
            vec![vec![0.0]]
        );
        assert_eq!(
            ThresholdPolicy::Mean.resolve(1, 1, &features).unwrap(),
            vec![vec![2.0]]
        );
    }

    #[test]
    fn explicit_policy_is_validated() {
        let ok = ThresholdPolicy::Explicit(vec![vec![0.0, 1.0, 2.0]]);
        assert!(ok.resolve(1, 2, &[]).is_ok());
        let wrong_len = ThresholdPolicy::Explicit(vec![vec![0.0]]);
        assert!(wrong_len.resolve(1, 2, &[]).is_err());
        let not_ascending = ThresholdPolicy::Explicit(vec![vec![1.0, 0.5, 2.0]]);
        assert!(not_ascending.resolve(1, 2, &[]).is_err());
    }

    #[test]
    fn external_store_matches_bdd_semantics() {
        use crate::source::{shared_source, MemoryPatternSource};
        let thresholds = vec![vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 2.0]];
        let mut bdd_backed =
            IntervalPatternMonitor::empty(extractor(2), 2, thresholds.clone()).unwrap();
        let mut store_backed = IntervalPatternMonitor::with_source(
            extractor(2),
            2,
            thresholds,
            shared_source(MemoryPatternSource::new(4)),
        )
        .unwrap();
        for m in [&mut bdd_backed, &mut store_backed] {
            m.absorb_point(&[1.5, 0.5]);
            m.absorb_bounds(&BoxBounds::new(vec![0.5, -1.0], vec![1.5, 0.5]));
        }
        assert_eq!(bdd_backed.pattern_count(), store_backed.pattern_count());
        assert_eq!(bdd_backed.samples(), store_backed.samples());
        assert!((bdd_backed.coverage() - store_backed.coverage()).abs() < 1e-12);
        for a in [-1.0, 0.5, 1.2, 1.5, 2.5, 3.0] {
            for b in [-1.0, 0.5, 1.2, 2.5] {
                assert_eq!(
                    bdd_backed.contains(&[a, b]),
                    store_backed.contains(&[a, b]),
                    "features [{a}, {b}]"
                );
                let word = bdd_backed.abstract_bitword(&[a, b]);
                assert_eq!(
                    bdd_backed.contains_word_within(&word, 1),
                    store_backed.contains_word_within(&word, 1),
                    "hamming around [{a}, {b}]"
                );
            }
        }
    }

    #[test]
    fn external_serde_is_descriptor_only_and_bdd_form_is_compatible() {
        use crate::source::{shared_source, MemoryPatternSource};
        // BDD-backed: field layout unchanged (bdd + root inline).
        let mut m = two_bit_monitor();
        m.absorb_point(&[1.5]);
        let json = serde_json::to_string(&m).unwrap();
        assert!(
            json.contains("\"bdd\"") && json.contains("\"root\""),
            "{json}"
        );
        let back: IntervalPatternMonitor = serde_json::from_str(&json).unwrap();
        assert!(back.contains(&[1.2]));
        assert_eq!(back.samples(), 1);
        // Store-backed: descriptor only, reattachable after decode.
        let ext = IntervalPatternMonitor::with_source(
            extractor(1),
            2,
            vec![vec![0.0, 1.0, 2.0]],
            shared_source(MemoryPatternSource::new(2)),
        )
        .unwrap();
        let json = serde_json::to_string(&ext).unwrap();
        assert!(
            json.contains("\"external\"") && !json.contains("\"bdd\""),
            "{json}"
        );
        let mut back: IntervalPatternMonitor = serde_json::from_str(&json).unwrap();
        assert!(back.needs_source());
        back.attach_source(shared_source(MemoryPatternSource::new(2)))
            .unwrap();
        assert!(!back.needs_source());
        assert!(back
            .attach_source(shared_source(MemoryPatternSource::new(5)))
            .is_err());
    }

    #[test]
    fn shared_absorption_is_external_only() {
        use crate::source::{shared_source, MemoryPatternSource};
        let m = two_bit_monitor();
        assert!(m.absorb_features_shared(&[1.5]).is_err());
        let ext = IntervalPatternMonitor::with_source(
            extractor(1),
            2,
            vec![vec![0.0, 1.0, 2.0]],
            shared_source(MemoryPatternSource::new(2)),
        )
        .unwrap();
        assert!(ext.absorb_features_shared(&[1.5]).unwrap());
        assert!(ext.contains(&[1.2]));
        assert_eq!(ext.samples(), 0);
    }

    #[test]
    fn footnote_3_minmax_generalization() {
        // c3 = max visited, c2 = min visited, c1 = -inf stand-in: interval
        // monitors generalize min-max monitors (paper footnote 3).
        let (lo, hi) = (-0.5, 2.5);
        let mut m =
            IntervalPatternMonitor::empty(extractor(1), 2, vec![vec![-1e300, lo, hi]]).unwrap();
        // Everything strictly inside (min, max] maps to symbol 10.
        m.absorb_bounds(&BoxBounds::new(vec![lo + 1e-9], vec![hi]));
        assert_eq!(m.pattern_count(), 1.0);
        assert!(m.contains(&[0.0])); // inside (min, max]
        assert!(!m.contains(&[3.0])); // above max -> 11
        assert!(!m.contains(&[-0.7])); // below min -> 01
    }
}
