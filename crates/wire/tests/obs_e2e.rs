//! End-to-end observability over loopback (requires `--features obs`).
//!
//! The acceptance contract of the tracing subsystem: one trace id minted
//! for a request reconstructs the request's complete span chain — frame
//! decode, queue wait, verdict computation, response write — across the
//! wire client → server → worker pool path, on a single-engine server and
//! on a registry server routing to a tenant, and the chain's *structure*
//! (span kinds and their details) is bit-exact across two
//! identically-seeded runs. The metrics scrape rides the same protocol: the `Metrics`
//! opcode returns the span set, the per-opcode counters, the request
//! histogram, and the slow-request log, all without a side channel.
//!
//! Everything lives in one `#[test]` because the runtime tracing toggle
//! and the span rings are process-global: separate tests would race on
//! `set_tracing` under the default parallel test runner.

#![cfg(feature = "obs")]

use napmon_artifact::MonitorArtifact;
use napmon_core::{ComposedMonitor, MonitorKind, MonitorSpec};
use napmon_nn::{Activation, LayerSpec, Network};
use napmon_obs::SpanKind;
use napmon_registry::{MonitorRegistry, RegistryConfig};
use napmon_serve::{EngineConfig, MonitorEngine};
use napmon_tensor::Prng;
use napmon_wire::{Backend, TenantRoute, WireClient, WireConfig, WireServer};
use std::time::Duration;

const INPUT_DIM: usize = 5;

fn fixture() -> (Network, Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let net = Network::seeded(
        901,
        INPUT_DIM,
        &[
            LayerSpec::dense(12, Activation::Relu),
            LayerSpec::dense(2, Activation::Identity),
        ],
    );
    let mut rng = Prng::seed(41);
    let train: Vec<Vec<f64>> = (0..96)
        .map(|_| rng.uniform_vec(INPUT_DIM, -1.0, 1.0))
        .collect();
    let probes: Vec<Vec<f64>> = (0..24)
        .map(|_| rng.uniform_vec(INPUT_DIM, -2.0, 2.0))
        .collect();
    (net, train, probes)
}

fn engine(net: &Network, train: &[Vec<f64>]) -> MonitorEngine<ComposedMonitor> {
    let spec = MonitorSpec::new(2, MonitorKind::pattern());
    let monitor = spec.build(net, train).expect("build monitor");
    MonitorEngine::new(net.clone(), monitor, EngineConfig::with_shards(1))
}

/// A 1-worker registry serving the same monitor as one routed tenant.
fn registry(net: &Network, train: &[Vec<f64>]) -> MonitorRegistry {
    let spec = MonitorSpec::new(2, MonitorKind::pattern());
    let monitor = spec.build(net, train).expect("build monitor");
    let artifact =
        MonitorArtifact::from_parts(spec, net.clone(), monitor, train.len()).expect("artifact");
    let registry = MonitorRegistry::new(RegistryConfig::with_engine(EngineConfig::with_shards(1)));
    registry.mount(TENANT, 1, artifact).expect("mount tenant");
    registry
}

const TENANT: &str = "obs-tenant";

/// The structural signature of one request's span chain: kinds in causal
/// order plus the details that must be deterministic (opcode bytes,
/// frames per pool job, item count). Durations are wall-clock and
/// excluded.
fn span_signature(spans: &[napmon_obs::TraceEvent], trace_id: u64) -> Vec<(SpanKind, u64)> {
    let mut chain: Vec<_> = spans.iter().filter(|s| s.trace_id == trace_id).collect();
    chain.sort_by_key(|s| (s.start_ns, s.kind.code()));
    chain.iter().map(|s| (s.kind, s.detail)).collect()
}

/// Serves one seeded run against a fresh server — a single engine, or a
/// registry with the frames routed to its one tenant: a traced pipelined
/// batch under `trace_id`, then an untraced wire scrape. Returns the
/// traced request's span signature plus the scraped report.
fn traced_run(trace_id: u64, routed: bool) -> (Vec<(SpanKind, u64)>, napmon_obs::ObsReport) {
    let (net, train, probes) = fixture();
    // Everything is "slow" at a zero threshold, so the slow log
    // observably populates with the traced request.
    let config = WireConfig::default().with_slow_request_threshold(Duration::ZERO);
    let backend: Backend = if routed {
        registry(&net, &train).into()
    } else {
        engine(&net, &train).into()
    };
    let server = WireServer::builder(backend)
        .config(config)
        .bind("127.0.0.1:0")
        .expect("bind");
    let addr = server.local_addr();

    let mut client = WireClient::connect(addr).expect("connect");
    if routed {
        client.set_route(Some(TenantRoute::active(TENANT)));
    }
    client.set_trace_id(Some(trace_id));
    let batch = client.query_batch(&probes).expect("traced batch");
    assert_eq!(batch.len(), probes.len());
    assert_eq!(
        client.last_trace_id(),
        Some(trace_id),
        "the response must echo the client's trace id"
    );

    // Scrape over the wire — untraced, so the chain under `trace_id`
    // stays exactly the query's. The scrape rides the same connection,
    // so the handler has recorded the respond span before it reads this.
    client.set_trace_id(None);
    let report = client.metrics().expect("metrics scrape");
    let signature = span_signature(&report.spans, trace_id);
    server.shutdown();
    (signature, report)
}

#[test]
fn trace_ids_reconstruct_span_chains_end_to_end() {
    // --- Traced: one id yields the complete, deterministic chain. ---
    napmon_obs::set_tracing(true);
    // Distinct fixed ids per run: the span rings are process-global and
    // drop-oldest, so a reused id would accumulate both runs' chains.
    // The same chain is asserted for a single engine and for a registry
    // routing the frames to a tenant.
    let runs = [
        (false, 0xD15E_A5ED_0B5E_47ED, 0x5EED_ED42_5EED_ED42),
        (true, 0x0B5E_47ED_D15E_A5ED, 0x42ED_5EED_42ED_5EED),
    ];
    for (routed, first_id, second_id) in runs {
        let (first, report) = traced_run(first_id, routed);

        let kinds: Vec<SpanKind> = first.iter().map(|(kind, _)| *kind).collect();
        for stage in [
            SpanKind::WireDecode,
            SpanKind::QueueWait,
            SpanKind::Verdict,
            SpanKind::WireRespond,
        ] {
            assert!(
                kinds.contains(&stage),
                "span chain (routed: {routed}) is missing {stage:?}: {kinds:?}"
            );
        }
        // Causal order: decode precedes the queue wait, which precedes
        // the verdict, which precedes the response write.
        let position = |kind: SpanKind| kinds.iter().position(|k| *k == kind).unwrap();
        assert!(position(SpanKind::WireDecode) < position(SpanKind::QueueWait));
        assert!(position(SpanKind::QueueWait) < position(SpanKind::Verdict));
        assert!(position(SpanKind::Verdict) < position(SpanKind::WireRespond));

        // The scrape carries the request accounting alongside the spans.
        let counter = |name: &str| report.metrics.counters.get(name).copied().unwrap_or(0);
        assert!(
            counter("wire.requests.QueryBatch") >= 1,
            "per-opcode counter missing from scrape"
        );
        assert!(
            report
                .slow_requests
                .iter()
                .any(|r| r.trace_id == first_id && r.opcode == "QueryBatch"),
            "slow log (zero threshold) must hold the traced request"
        );

        // Determinism: an identically-seeded second run produces the same
        // structural chain — same kinds, same details, same order.
        let (second, _) = traced_run(second_id, routed);
        assert!(!first.is_empty());
        assert_eq!(
            first, second,
            "span chain structure (routed: {routed}) drifted across runs"
        );
    }

    // --- Untraced: with tracing disarmed, requests flow untraced. ---
    napmon_obs::set_tracing(false);
    let (net, train, probes) = fixture();
    let server = WireServer::builder(engine(&net, &train))
        .bind("127.0.0.1:0")
        .expect("bind");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let _ = client.query(&probes[0]).expect("query");
    assert_eq!(client.last_trace_id(), None, "no trace id should be echoed");
    let report = client.metrics().expect("metrics scrape");
    assert!(
        report
            .metrics
            .counters
            .get("wire.requests.Query")
            .copied()
            .unwrap_or(0)
            >= 1
    );
    server.shutdown();
}
