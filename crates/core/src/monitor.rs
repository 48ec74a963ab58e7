//! The common monitor interface and query verdicts.

use crate::error::MonitorError;
use crate::feature::FeatureExtractor;
use napmon_bdd::BitWord;
use napmon_nn::{ForwardScratch, Network};

/// Why a monitor warned about one neuron (or the pattern as a whole).
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A neuron value fell below the recorded minimum.
    BelowMin {
        /// Monitored-neuron index (position within the feature vector).
        neuron: usize,
        /// Observed value.
        value: f64,
        /// Recorded lower bound.
        bound: f64,
    },
    /// A neuron value rose above the recorded maximum.
    AboveMax {
        /// Monitored-neuron index.
        neuron: usize,
        /// Observed value.
        value: f64,
        /// Recorded upper bound.
        bound: f64,
    },
    /// The abstracted word was not in the recorded pattern set.
    UnknownPattern {
        /// The bit word the observation abstracted to (neuron-major,
        /// most-significant bit first for multi-bit monitors).
        word: Vec<bool>,
    },
}

/// Outcome of one monitor query.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Whether the monitor raises a warning (the paper's `M(v_op) = true`).
    pub warning: bool,
    /// Supporting evidence; empty when no warning is raised.
    pub violations: Vec<Violation>,
}

impl Verdict {
    /// The all-clear verdict.
    pub fn ok() -> Self {
        Self {
            warning: false,
            violations: Vec::new(),
        }
    }

    /// A warning carrying its evidence.
    pub fn warn(violations: Vec<Violation>) -> Self {
        Self {
            warning: true,
            violations,
        }
    }
}

/// Reusable per-thread buffers for the steady-state query path.
///
/// One scratch holds everything a query needs to touch the heap for:
/// the network's ping-pong forward buffers, the projected feature vector,
/// and the packed abstraction word. [`Monitor::query_batch`] (and
/// [`Monitor::query_batch_parallel_with`]) allocate one scratch per worker
/// and reuse it across the whole batch, so per-query heap allocation
/// drops to zero once the buffers have grown — the operational regime the paper's "operation
/// time" monitors run in.
#[derive(Debug, Clone, Default)]
pub struct QueryScratch {
    pub(crate) forward: ForwardScratch,
    pub(crate) features: Vec<f64>,
    pub(crate) word: BitWord,
    /// Per-input abstraction words for [`Monitor::verdict_batch_scratch`]:
    /// pattern monitors abstract the whole batch first, then answer all
    /// memberships against each pattern block while it is cache-hot.
    pub(crate) batch_words: Vec<BitWord>,
    /// Membership answers of the batched kernel, one per input.
    pub(crate) batch_hits: Vec<bool>,
}

impl QueryScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// A runtime monitor over one network boundary.
///
/// Implementations are queried with the *feature vector* (the projected
/// neuron values of the monitored boundary); the provided methods run the
/// network first. Queries never mutate the monitor — in operation the
/// abstraction is frozen, exactly as in the paper.
pub trait Monitor {
    /// The feature extractor describing what this monitor watches.
    fn extractor(&self) -> &FeatureExtractor;

    /// Full verdict for an already-extracted feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the monitor's feature
    /// dimension.
    fn verdict_features(&self, features: &[f64]) -> Verdict;

    /// Like [`Monitor::verdict_features`] but reusing the caller's scratch
    /// buffers, so repeated queries stay allocation-free on the membership
    /// path. The default ignores the scratch; pattern monitors override it.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the monitor's feature
    /// dimension.
    fn verdict_features_scratch(&self, features: &[f64], scratch: &mut QueryScratch) -> Verdict {
        let _ = scratch;
        self.verdict_features(features)
    }

    /// Runs `net` on `input` and returns the full verdict.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::DimensionMismatch`] if `input` does not
    /// match the network.
    fn verdict(&self, net: &Network, input: &[f64]) -> Result<Verdict, MonitorError> {
        let features = self.extractor().features(net, input)?;
        Ok(self.verdict_features(&features))
    }

    /// Runs `net` on `input` through the caller's scratch buffers and
    /// returns the full verdict. Steady state (buffers grown, verdict OK)
    /// performs no heap allocation for dense networks.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::DimensionMismatch`] if `input` does not
    /// match the network.
    fn verdict_scratch(
        &self,
        net: &Network,
        input: &[f64],
        scratch: &mut QueryScratch,
    ) -> Result<Verdict, MonitorError> {
        // The feature buffer is taken out of the scratch for the duration
        // of the call so the monitor can borrow the rest of the scratch
        // mutably alongside it.
        let mut features = std::mem::take(&mut scratch.features);
        let result = self
            .extractor()
            .features_into(net, input, &mut scratch.forward, &mut features)
            .map(|()| self.verdict_features_scratch(&features, scratch));
        scratch.features = features;
        result
    }

    /// Verdicts for a whole batch of inputs through one scratch, appended
    /// to `out` (cleared first). This is the entry point that lets a
    /// backend answer the batch's membership queries *together*: pattern
    /// monitors override it to abstract every input first and then run
    /// the bit-sliced batch kernel, which walks each pattern block once
    /// per batch instead of once per query. The default simply loops
    /// [`Monitor::verdict_scratch`].
    ///
    /// Verdicts are bit-identical to the sequential loop for every
    /// monitor kind and backend (pinned by the differential suites in
    /// `tests/`).
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::DimensionMismatch`] if any input is
    /// malformed; `out` is left empty or partially filled and must not be
    /// interpreted.
    fn verdict_batch_scratch(
        &self,
        net: &Network,
        inputs: &[Vec<f64>],
        scratch: &mut QueryScratch,
        out: &mut Vec<Verdict>,
    ) -> Result<(), MonitorError> {
        out.clear();
        out.reserve(inputs.len());
        for input in inputs {
            out.push(self.verdict_scratch(net, input, scratch)?);
        }
        Ok(())
    }

    /// Verdicts for a whole batch of inputs, sharing one scratch across
    /// the batch (single-threaded).
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::DimensionMismatch`] on the first malformed
    /// input.
    fn query_batch(
        &self,
        net: &Network,
        inputs: &[Vec<f64>],
    ) -> Result<Vec<Verdict>, MonitorError> {
        let mut scratch = QueryScratch::new();
        let mut out = Vec::with_capacity(inputs.len());
        self.verdict_batch_scratch(net, inputs, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Verdicts for a whole batch, fanned out over `threads` workers with
    /// one reusable scratch per worker (`std::thread::scope`). The caller
    /// picks the fan-out width — the differential tests pin it to 1/2/4
    /// to prove scheduling cannot change verdicts. (The
    /// `napmon-serve` engine does its own sharding over long-lived
    /// workers; each shard runs the sequential [`Monitor::verdict_scratch`]
    /// loop this method is proven identical to.)
    ///
    /// `threads == 0` is treated as `1`. Results keep input order and are
    /// bit-identical to a sequential [`Monitor::verdict_scratch`] loop for
    /// every worker count (each worker runs that exact loop on a
    /// contiguous chunk).
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::DimensionMismatch`] if any input is
    /// malformed.
    fn query_batch_parallel_with(
        &self,
        net: &Network,
        inputs: &[Vec<f64>],
        threads: usize,
    ) -> Result<Vec<Verdict>, MonitorError>
    where
        Self: Sync,
    {
        fan_out_batch(inputs, threads, |chunk| self.query_batch(net, chunk))
    }
}

/// The fan-out behind [`Monitor::query_batch_parallel_with`]: chunks
/// `inputs` across `threads` workers via `std::thread::scope`, runs
/// `query_chunk` per worker (each call gets a contiguous sub-slice and
/// allocates its own scratch inside), and restitches results in input
/// order. Falls back to one direct call when parallelism cannot pay for
/// the thread spawns.
fn fan_out_batch<F>(
    inputs: &[Vec<f64>],
    threads: usize,
    query_chunk: F,
) -> Result<Vec<Verdict>, MonitorError>
where
    F: Fn(&[Vec<f64>]) -> Result<Vec<Verdict>, MonitorError> + Sync,
{
    if threads <= 1 || inputs.len() < 2 * threads {
        return query_chunk(inputs);
    }
    let chunk_size = inputs.len().div_ceil(threads);
    let chunk_results: Vec<Result<Vec<Verdict>, MonitorError>> = std::thread::scope(|scope| {
        let query_chunk = &query_chunk;
        let handles: Vec<_> = inputs
            .chunks(chunk_size)
            .map(|chunk| scope.spawn(move || query_chunk(chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query worker panicked"))
            .collect()
    });
    let mut out = Vec::with_capacity(inputs.len());
    for chunk in chunk_results {
        out.extend(chunk?);
    }
    Ok(out)
}

/// Compile-time proof that every monitor (and the verdict machinery) can
/// be shared across the shard threads of a long-lived serving engine: the
/// `napmon-serve` workers hold monitors behind `Arc` and query them
/// concurrently, which is only sound because queries never mutate the
/// abstraction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<crate::builder::AnyMonitor>();
    assert_send_sync::<crate::minmax::MinMaxMonitor>();
    assert_send_sync::<crate::pattern::PatternMonitor>();
    assert_send_sync::<crate::interval_pattern::IntervalPatternMonitor>();
    assert_send_sync::<crate::multi::MultiLayerMonitor>();
    assert_send_sync::<crate::per_class::PerClassMonitor>();
    assert_send_sync::<crate::spec::ComposedMonitor>();
    assert_send_sync::<crate::spec::MonitorSpec>();
    assert_send_sync::<Verdict>();
    assert_send_sync::<QueryScratch>();
    assert_send_sync::<MonitorError>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_constructors() {
        assert!(!Verdict::ok().warning);
        assert!(Verdict::ok().violations.is_empty());
        let v = Verdict::warn(vec![Violation::BelowMin {
            neuron: 3,
            value: -1.0,
            bound: 0.0,
        }]);
        assert!(v.warning);
        assert_eq!(v.violations.len(), 1);
    }
}
