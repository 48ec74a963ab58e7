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
/// and the packed abstraction words. Pass one scratch per worker to
/// [`Monitor::verdict_scratch`] or [`Monitor::verdict_batch_scratch`] and
/// reuse it across queries: per-query heap allocation drops to zero once
/// the buffers have grown — the operational regime the paper's "operation
/// time" monitors run in. [`Monitor::query_batch`] (and
/// [`Monitor::query_batch_parallel_with`]) allocate one per worker.
#[derive(Debug, Clone, Default)]
pub struct QueryScratch {
    pub(crate) forward: ForwardScratch,
    pub(crate) features: Vec<f64>,
    pub(crate) word: BitWord,
    /// Per-input abstraction words for [`Monitor::verdict_batch_scratch`]:
    /// pattern monitors abstract the whole batch first, then answer all
    /// memberships together.
    pub(crate) batch_words: Vec<BitWord>,
    /// Membership answers of the batched kernel, one per input.
    pub(crate) batch_hits: Vec<bool>,
}

impl QueryScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Extracts `extractor`'s features of `input` into the scratch's
    /// feature buffer and hands them, with the rest of the scratch, to
    /// `query`. The buffer is taken out for the duration of the call so
    /// `query` can borrow the scratch mutably alongside it.
    pub(crate) fn with_features<R>(
        &mut self,
        extractor: &FeatureExtractor,
        net: &Network,
        input: &[f64],
        query: impl FnOnce(&[f64], &mut QueryScratch) -> R,
    ) -> Result<R, MonitorError> {
        let mut features = std::mem::take(&mut self.features);
        let result = extractor
            .features_into(net, input, &mut self.forward, &mut features)
            .map(|()| query(&features, self));
        self.features = features;
        result
    }
}

/// A runtime monitor over one network (one boundary, or a composition of
/// several).
///
/// Every query takes the *network input*: the monitor runs the network up
/// to the boundaries it watches itself. Queries never mutate the monitor —
/// in operation the abstraction is frozen, exactly as in the paper.
///
/// An implementation supplies [`Monitor::extractor`] and the per-input
/// path [`Monitor::verdict_scratch`]; the batch methods default to looping
/// it. Pattern monitors override [`Monitor::verdict_batch_scratch`] with a
/// batch kernel, and the differential suites pin that kernel to the
/// per-input path.
///
/// Every query refuses an input of the wrong width
/// ([`MonitorError::DimensionMismatch`]) or holding a NaN or infinite value
/// ([`MonitorError::NonFinite`]) instead of answering it.
pub trait Monitor {
    /// The feature extractor describing what this monitor watches (for a
    /// composition, its primary member's).
    fn extractor(&self) -> &FeatureExtractor;

    /// Runs `net` on `input` through the caller's scratch buffers and
    /// returns the full verdict. Steady state (buffers grown, verdict OK)
    /// performs no heap allocation for dense single-boundary monitors.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::DimensionMismatch`] or
    /// [`MonitorError::NonFinite`] for an input outside the network's
    /// domain.
    fn verdict_scratch(
        &self,
        net: &Network,
        input: &[f64],
        scratch: &mut QueryScratch,
    ) -> Result<Verdict, MonitorError>;

    /// Runs `net` on `input` and returns the full verdict: the convenience
    /// form of [`Monitor::verdict_scratch`] with a fresh scratch.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Monitor::verdict_scratch`].
    fn verdict(&self, net: &Network, input: &[f64]) -> Result<Verdict, MonitorError> {
        self.verdict_scratch(net, input, &mut QueryScratch::new())
    }

    /// Verdicts for a whole batch of inputs through one scratch, appended
    /// to `out` (cleared first). This is the entry point that lets a
    /// backend answer the batch's membership queries *together*: pattern
    /// monitors override it to abstract every input first and then answer
    /// every membership in one pass. The default simply loops
    /// [`Monitor::verdict_scratch`].
    ///
    /// Verdicts are bit-identical to the sequential loop for every
    /// monitor kind and backend (pinned by the differential suites in
    /// `tests/`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Monitor::verdict_scratch`], for any input;
    /// `out` is left empty or partially filled and must not be
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
    /// Same conditions as [`Monitor::verdict_scratch`], for any input.
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
    /// Same conditions as [`Monitor::verdict_scratch`], for any input.
    fn query_batch_parallel_with(
        &self,
        net: &Network,
        inputs: &[Vec<f64>],
        threads: usize,
    ) -> Result<Vec<Verdict>, MonitorError>
    where
        Self: Sync,
    {
        if threads <= 1 || inputs.len() < 2 * threads {
            return self.query_batch(net, inputs);
        }
        let mut out = Vec::with_capacity(inputs.len());
        for chunk in map_chunks(inputs, threads, |chunk| self.query_batch(net, chunk)) {
            out.extend(chunk?);
        }
        Ok(out)
    }
}

/// Splits `items` into at most `threads` contiguous chunks, runs `f` on
/// each in its own scoped thread, and returns the results in chunk order.
pub(crate) fn map_chunks<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&[T]) -> R + Sync,
) -> Vec<R> {
    let chunk_size = items.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks(chunk_size)
            .map(|chunk| scope.spawn(move || f(chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
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
