//! The shutdown-ordering regression: a server shut down **mid-hot-swap**
//! leaks no worker threads.
//!
//! `WireServer::drain` joins the accept loop and every connection thread
//! *before* tearing the backend down, and the registry backend's
//! teardown joins every background drainer and shadow mirror — so a
//! shutdown landing between a `mount_shadow` and its `promote` cannot
//! orphan the outgoing engine's workers.
//!
//! This test lives in its own binary on purpose: it proves thread
//! hygiene by enumerating `/proc/self/task`, which only works when no
//! sibling test is spinning its own servers in the same process.

use napmon_core::{ComposedMonitor, MonitorKind, MonitorSpec};
use napmon_nn::{Activation, LayerSpec, Network};
use napmon_registry::{MonitorRegistry, RegistryConfig};
use napmon_serve::{EngineConfig, MonitorEngine};
use napmon_tensor::Prng;
use napmon_wire::{TenantRoute, WireClient, WireConfig, WireServer};
use std::sync::Arc;
use std::time::Duration;

const INPUT_DIM: usize = 6;

fn engine(net: &Network, monitor: ComposedMonitor) -> MonitorEngine<ComposedMonitor> {
    MonitorEngine::new(net.clone(), monitor, EngineConfig::with_shards(1))
}

/// Shutting down while promotes are in full flight joins every thread:
/// accept loop, connections, shard workers, shadow mirrors, and the
/// background drainers retiring hot-swapped engines.
#[test]
fn shutdown_during_hot_swap_leaks_no_worker_threads() {
    let net = Network::seeded(
        501,
        INPUT_DIM,
        &[
            LayerSpec::dense(16, Activation::Relu),
            LayerSpec::dense(3, Activation::Identity),
        ],
    );
    let mut rng = Prng::seed(77);
    let train: Vec<Vec<f64>> = (0..128)
        .map(|_| rng.uniform_vec(INPUT_DIM, -1.0, 1.0))
        .collect();
    let probes: Vec<Vec<f64>> = (0..48)
        .map(|_| rng.uniform_vec(INPUT_DIM, -2.5, 2.5))
        .collect();
    let spec = MonitorSpec::new(2, MonitorKind::pattern());
    let monitor_a = spec.build(&net, &train).expect("build monitor A");
    let monitor_b = spec
        .build(&net, &train[..train.len() / 2])
        .expect("build monitor B");

    // Short drain grace: the prober streams frames back-to-back, so the
    // shutdown rides the grace window out before cutting it loose.
    let config = WireConfig::default().with_drain_grace(Duration::from_millis(250));
    let server = WireServer::builder(Arc::new(MonitorRegistry::new(RegistryConfig::with_engine(
        EngineConfig::with_shards(1),
    ))))
    .config(config)
    .bind("127.0.0.1:0")
    .expect("bind registry server");
    let addr = server.local_addr();
    let registry = Arc::clone(server.registry().expect("registry backend"));
    registry
        .mount_engine("prod", 1, engine(&net, monitor_a.clone()))
        .expect("mount v1");

    // One thread keeps swaps rolling (paced — every flip spawns an
    // engine, a mirror, and a drainer, and an unthrottled mill would
    // just exhaust thread stacks); another keeps query traffic in flight
    // over the wire. Both run until the shutdown cuts them off. Finished
    // drainers are reaped along the way; in-flight ones are what the
    // shutdown must join.
    let swapper = {
        let registry = Arc::clone(&registry);
        let net = net.clone();
        std::thread::spawn(move || {
            let mut version = 1u32;
            let mut flips = 0u32;
            let mut reaped: Vec<napmon_registry::DrainOutcome> = Vec::new();
            loop {
                version += 1;
                let monitor = if version.is_multiple_of(2) {
                    monitor_b.clone()
                } else {
                    monitor_a.clone()
                };
                if registry
                    .mount_shadow_engine("prod", version, engine(&net, monitor))
                    .and_then(|()| registry.promote("prod").map(|_| ()))
                    .is_err()
                {
                    // The registry closed under us: the expected end.
                    return (flips, reaped);
                }
                flips += 1;
                reaped.extend(registry.reap_retired());
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };
    let prober = std::thread::spawn(move || {
        let mut client = WireClient::connect(addr)
            .expect("connect")
            .with_route(TenantRoute::active("prod"));
        let mut served = 0u32;
        while client.query_batch(&probes).is_ok() {
            served += 1;
        }
        served
    });

    // Let the swap mill actually turn, then pull the plug mid-swap.
    std::thread::sleep(Duration::from_millis(150));
    let report = server.shutdown_registry().expect("registry report");
    let (flips, reaped) = swapper.join().expect("swapper thread");
    let served = prober.join().expect("prober thread");
    assert!(flips > 0, "shutdown must land while swaps are in flight");
    assert!(served > 0, "traffic must overlap the swaps");

    // Every engine the registry ever ran is accounted for: the surviving
    // active mount plus one retiree per completed flip — some reaped by
    // the swapper as it went, the rest joined by the shutdown (the last
    // mount may have been interrupted between shadow and promote).
    let drained = report.tenants.len() + report.retired.len() + reaped.len();
    assert!(
        drained > flips as usize,
        "{drained} drains cannot account for {flips} flips"
    );
    for outcome in reaped.iter().chain(&report.tenants).chain(&report.retired) {
        assert!(
            !outcome.timed_out,
            "{} v{} drain timed out under shutdown",
            outcome.model_id, outcome.version
        );
        assert_eq!(outcome.report.queue_depth, 0);
    }

    // The workers are all named; on Linux, prove they are gone. (`comm`
    // truncates names to 15 bytes, so match on prefixes.)
    #[cfg(target_os = "linux")]
    {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let leaked: Vec<String> = std::fs::read_dir("/proc/self/task")
                .expect("task list")
                .filter_map(|entry| {
                    let comm = entry.ok()?.path().join("comm");
                    let name = std::fs::read_to_string(comm).ok()?.trim().to_string();
                    (name.starts_with("napmon-registry")
                        || name.starts_with("napmon-shadow")
                        || name.starts_with("napmon-shard")
                        || name.starts_with("napmon-pool")
                        || name.starts_with("napmon-wire"))
                    .then_some(name)
                })
                .collect();
            if leaked.is_empty() {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "worker threads leaked past shutdown: {leaked:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}
