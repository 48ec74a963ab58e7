//! Online serving metrics: what an engine (or a whole registry) has
//! served.
//!
//! Latency is tracked as a log2-bucketed [`HistogramSnapshot`] (exact
//! count/sum/min/max plus p50/p90/p99/p999 brackets), not just moments:
//! the paper's operation-time monitoring story needs tail visibility, and
//! a min/mean/max triple hides exactly the percentiles that regress
//! first. Batched submissions additionally record their micro-batch sizes
//! in a second histogram, so per-item latency percentiles can be read
//! against the batching that produced them.

use napmon_obs::HistogramSnapshot;
use serde::{Deserialize, Serialize};

/// An engine's serving account: read from its live counters by
/// [`MonitorEngine::report`](crate::MonitorEngine::report), final after
/// [`MonitorEngine::shutdown`](crate::MonitorEngine::shutdown).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Total requests served.
    pub requests: u64,
    /// Total requests that raised a warning.
    pub warnings: u64,
    /// Fraction of requests that warned (`0.0` while idle).
    pub warn_rate: f64,
    /// Per-request latency histogram in nanoseconds (forward pass +
    /// abstraction + membership). Batched requests record
    /// `batch time / batch size` per item.
    pub latency_ns: HistogramSnapshot,
    /// Sizes of the micro-batches served (a single input is a batch of
    /// one) — the denominator behind the per-item latency samples.
    pub batch_sizes: HistogramSnapshot,
    /// Chunks handed to the worker pool and not yet served at snapshot
    /// time (backlog gauge for ops; zero after a graceful shutdown).
    pub queue_depth: u64,
}

impl ServeReport {
    /// Merges whole engine reports into one fleet-wide view — the
    /// registry-level aggregate across every mounted engine.
    pub fn merge(reports: impl IntoIterator<Item = ServeReport>) -> Self {
        let mut total = Self::default();
        for report in reports {
            total.requests += report.requests;
            total.warnings += report.warnings;
            total.latency_ns.merge(&report.latency_ns);
            total.batch_sizes.merge(&report.batch_sizes);
            total.queue_depth += report.queue_depth;
        }
        total.warn_rate = Self::rate(total.warnings, total.requests);
        total
    }

    /// `warnings / requests`, `0.0` while idle.
    pub(crate) fn rate(warnings: u64, requests: u64) -> f64 {
        if requests == 0 {
            0.0
        } else {
            warnings as f64 / requests as f64
        }
    }
}

impl std::fmt::Display for ServeReport {
    /// A compact one-line operations card.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "serve report: {} requests, warn rate {:.4}, latency mean {:.0}ns \
             (min {:.0}, p50 {:.0}, p99 {:.0}, max {:.0}), {} queued",
            self.requests,
            self.warn_rate,
            self.latency_ns.mean(),
            self.latency_ns.min(),
            self.latency_ns.p50(),
            self.latency_ns.p99(),
            self.latency_ns.max(),
            self.queue_depth,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report of `latencies` served, the first `warned` of them warning.
    fn served(latencies: &[u64], warned: u64) -> ServeReport {
        let mut report = ServeReport::default();
        for &ns in latencies {
            report.latency_ns.record(ns);
        }
        report.batch_sizes.record(latencies.len() as u64);
        report.requests = latencies.len() as u64;
        report.warnings = warned;
        report.warn_rate = ServeReport::rate(warned, report.requests);
        report
    }

    #[test]
    fn empty_aggregate_is_idle() {
        let none = ServeReport::merge(Vec::new());
        assert_eq!(none, ServeReport::default());
        assert_eq!(none.requests, 0);
        assert_eq!(none.warn_rate, 0.0);
    }

    #[test]
    fn display_lists_totals() {
        let text = served(&[50], 1).to_string();
        assert!(text.contains("1 requests"), "{text}");
        assert!(text.contains("p99"), "{text}");
    }

    /// Ops scrape reports as JSON: the whole report (rates, latency
    /// histograms, queue depth) must survive a serde round trip
    /// bit-identically.
    #[test]
    fn report_serializes_to_json() {
        let mut report = served(&[10, 25], 1);
        report.queue_depth = 3;
        let json = serde_json::to_string(&report).unwrap();
        for key in [
            "\"warn_rate\"",
            "\"queue_depth\"",
            "\"latency_ns\"",
            "\"batch_sizes\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let back: ServeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.queue_depth, 3);
        assert_eq!(back.batch_sizes.count(), 1);
    }

    #[test]
    fn merge_sums_totals() {
        let merged = ServeReport::merge(vec![served(&[100], 1), served(&[300, 200], 0)]);
        assert_eq!(merged.requests, 3);
        assert_eq!(merged.warnings, 1);
        assert!((merged.warn_rate - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(merged.latency_ns.min(), 100.0);
        assert_eq!(merged.latency_ns.max(), 300.0);
        assert!((merged.latency_ns.mean() - 200.0).abs() < 1e-9);
        assert_eq!(merged.batch_sizes.count(), 2);
    }

    #[test]
    fn aggregate_sums_queue_depths() {
        let depth = |queue_depth| ServeReport {
            queue_depth,
            ..ServeReport::default()
        };
        let report = ServeReport::merge(vec![depth(2), depth(5)]);
        assert_eq!(report.queue_depth, 7);
        assert!(report.to_string().contains("7 queued"), "{report}");
    }

    /// The latency histogram is a real distribution, not moments: after
    /// skewed traffic the p99 bracket must sit far above the median.
    #[test]
    fn latency_percentiles_see_the_tail() {
        let mut latencies = vec![100; 99];
        latencies.push(1_000_000);
        let report = served(&latencies, 0);
        let (p50_lo, p50_hi) = report.latency_ns.quantile_bounds(0.5).unwrap();
        assert!(p50_lo <= 100 && 100 <= p50_hi);
        let (p999_lo, p999_hi) = report.latency_ns.quantile_bounds(0.999).unwrap();
        assert!(
            p999_lo <= 1_000_000 && 1_000_000 <= p999_hi,
            "tail sample missing from p99.9 bracket [{p999_lo}, {p999_hi}]"
        );
    }
}
