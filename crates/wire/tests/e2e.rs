//! End-to-end wire serving over loopback.
//!
//! The contract mirrored from `tests/serve.rs`, now with a network in the
//! middle: verdicts served over the wire are **bit-identical** to direct
//! `MonitorEngine::submit_batch` calls, N concurrent clients interleave
//! safely on one engine, malformed peers get typed errors (and never
//! crash the server), overload gets typed `Busy`, and a graceful shutdown
//! drains every in-flight request — the final report's queue depth is
//! zero and every request is accounted for.

use napmon_core::{ComposedMonitor, MonitorKind, MonitorSpec};
use napmon_nn::{Activation, LayerSpec, Network};
use napmon_serve::{EngineConfig, MonitorEngine};
use napmon_tensor::Prng;
use napmon_wire::{ErrorCode, Frame, Opcode, WireClient, WireConfig, WireError, WireServer, MAGIC};
use std::io::{Read, Write};

const INPUT_DIM: usize = 6;

fn fixture() -> (Network, Vec<Vec<f64>>, Vec<Vec<f64>>) {
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
    // Probes straddling the training distribution, so both verdict
    // branches occur on the wire.
    let probes: Vec<Vec<f64>> = (0..160)
        .map(|i| {
            if i % 3 == 0 {
                rng.uniform_vec(INPUT_DIM, -2.5, 2.5)
            } else {
                train[i % train.len()].clone()
            }
        })
        .collect();
    (net, train, probes)
}

fn engine(net: &Network, train: &[Vec<f64>], shards: usize) -> MonitorEngine<ComposedMonitor> {
    let spec = MonitorSpec::new(2, MonitorKind::pattern());
    let monitor = spec.build(net, train).expect("build monitor");
    MonitorEngine::new(net.clone(), monitor, EngineConfig::with_shards(shards))
}

/// Wire verdicts must be bit-identical to direct engine submission, for
/// N concurrent clients sharing one server.
#[test]
fn concurrent_wire_clients_match_direct_engine_bit_for_bit() {
    const CLIENTS: usize = 4;
    let (net, train, probes) = fixture();

    // The reference: a direct engine, no network.
    let spec = MonitorSpec::new(2, MonitorKind::pattern());
    let monitor = spec.build(&net, &train).expect("build monitor");
    let direct = MonitorEngine::new(net.clone(), monitor, EngineConfig::with_shards(2));
    let expected = direct.submit_batch(probes.clone()).expect("direct batch");
    direct.shutdown();
    let warned = expected.iter().filter(|v| v.warning).count();
    assert!(
        warned > 0 && warned < probes.len(),
        "fixture must exercise both verdict branches ({warned}/{})",
        probes.len()
    );

    let server = WireServer::builder(engine(&net, &train, 2))
        .bind("127.0.0.1:0")
        .expect("bind");
    let addr = server.local_addr();

    let worker = |client_id: usize| {
        let probes = probes.clone();
        let expected = expected.clone();
        move || {
            let mut client = WireClient::connect(addr).expect("connect");
            // Pipelined batch…
            let verdicts = client.query_batch(&probes).expect("wire batch");
            assert_eq!(verdicts, expected, "client {client_id}: batch drifted");
            // …and single-shot queries agree with it.
            for (probe, want) in probes.iter().zip(&expected).take(8) {
                let got = client.query(probe).expect("wire query");
                assert_eq!(&got, want, "client {client_id}: single query drifted");
            }
        }
    };
    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| std::thread::spawn(worker(i)))
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }

    // Stats ride the same protocol and account for all served traffic.
    let mut client = WireClient::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    let per_client = probes.len() as u64 + 8;
    assert_eq!(stats.engine.requests, CLIENTS as u64 * per_client);
    assert_eq!(
        stats.wire_budget,
        WireConfig::default().max_in_flight as u32
    );

    let report = server.shutdown();
    assert_eq!(report.requests, CLIENTS as u64 * per_client);
    assert_eq!(report.queue_depth, 0, "drain left queued work");
}

/// A client-initiated shutdown drains in-flight pipelined work: every
/// request enqueued before the shutdown is served and answered, and the
/// final report shows empty queues (the `tests/serve.rs` guarantee, over
/// the wire).
#[test]
fn client_shutdown_drains_in_flight_requests() {
    let (net, train, probes) = fixture();
    let server = WireServer::builder(engine(&net, &train, 2))
        .bind("127.0.0.1:0")
        .expect("bind");
    let addr = server.local_addr();

    // One client pipelines a large batch; another asks for shutdown while
    // that batch is (potentially) still being served. The channel makes
    // the ordering honest: the prober's connection is accepted (its first
    // query answered) and its batch frames written before the shutdown
    // request is sent — so the batch is genuinely in flight, and the
    // drain must serve it.
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let prober = {
        let probes = probes.clone();
        std::thread::spawn(move || {
            let mut client = WireClient::connect(addr).expect("connect");
            client.query(&probes[0]).expect("connection accepted");
            ready_tx.send(()).expect("signal");
            client.query_batch(&probes).expect("batch served in full")
        })
    };
    let mut killer = WireClient::connect(addr).expect("connect");
    ready_rx.recv().expect("prober ready");
    killer.shutdown_server().expect("shutdown acknowledged");

    // The batch client observes either full service (its frames arrived
    // before the drain finished) — never a partial answer.
    let verdicts = prober.join().expect("prober thread");
    assert_eq!(verdicts.len(), probes.len());

    let report = server.wait();
    assert_eq!(report.queue_depth, 0, "drain left queued work");
    assert!(report.requests >= probes.len() as u64);

    // The server is gone: new connections are refused or die unserved.
    match WireClient::connect(addr) {
        Err(_) => {}
        Ok(mut client) => {
            assert!(client.query(&probes[0]).is_err(), "server still serving");
        }
    }
}

/// Malformed frames and payloads get typed errors; the connection (and
/// the server) survives what the protocol allows it to.
#[test]
fn malformed_peers_get_typed_errors_not_a_dead_server() {
    let (net, train, probes) = fixture();
    let server = WireServer::builder(engine(&net, &train, 1))
        .bind("127.0.0.1:0")
        .expect("bind");
    let addr = server.local_addr();

    // Raw socket speaking garbage: the server answers a typed error frame
    // and closes.
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    raw.write_all(b"GET / HTTP/1.1\r\nHost: napmon\r\n\r\n")
        .expect("write");
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).expect("read reply");
    let (frame, _) =
        Frame::decode(&reply, napmon_wire::DEFAULT_MAX_PAYLOAD).expect("typed error frame back");
    assert_eq!(frame.opcode, Opcode::Error);

    // A version from the future: typed rejection naming the supported one.
    let mut future = Frame::empty(Opcode::Stats, 9).encode().unwrap();
    future[4..6].copy_from_slice(&7u16.to_le_bytes());
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    raw.write_all(&future).expect("write");
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).expect("read reply");
    let (frame, _) =
        Frame::decode(&reply, napmon_wire::DEFAULT_MAX_PAYLOAD).expect("typed error frame back");
    assert_eq!(frame.opcode, Opcode::Error);
    match napmon_wire::Response::decode(&frame).expect("decodes") {
        napmon_wire::Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::UnsupportedVersion);
            assert!(
                message.contains("v7") && message.contains("v2"),
                "{message}"
            );
        }
        other => panic!("expected an error response, got {other:?}"),
    }
    assert_eq!(&reply[..4], &MAGIC, "error frames are themselves framed");

    // A well-framed but wrong-dimension input: a Monitor error response,
    // after which the same connection keeps serving.
    let mut client = WireClient::connect(addr).expect("connect");
    match client.query(&[1.0, 2.0]) {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Monitor),
        other => panic!("expected a typed monitor error, got {other:?}"),
    }
    let verdict = client.query(&probes[0]).expect("connection still usable");
    let _ = verdict;

    // A NaN input: a typed Monitor refusal, never a verdict, counted as a
    // non-finite refusal.
    let mut nan = probes[0].clone();
    nan[1] = f64::NAN;
    match client.query(&nan) {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Monitor),
        other => panic!("expected a typed monitor error, got {other:?}"),
    }
    assert_eq!(client.stats().expect("stats").degraded.non_finite, 1);

    // Absorb on a non-store-backed monitor: typed, not fatal.
    match client.absorb_batch(&probes[..2]) {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Monitor),
        other => panic!("expected a typed monitor error, got {other:?}"),
    }

    let report = server.shutdown();
    assert_eq!(report.queue_depth, 0);
}

/// Over-budget traffic is refused with a typed `Busy` carrying the
/// budget figures — backpressure is a response, not dropped bytes.
#[test]
fn over_budget_requests_get_typed_busy() {
    let (net, train, probes) = fixture();
    // A budget of 1 with 2 competing clients: the loser of the race gets
    // Busy. Force the race by pipelining from both sides.
    let server = WireServer::builder(engine(&net, &train, 1))
        .config(WireConfig::default().with_max_in_flight(1))
        .bind("127.0.0.1:0")
        .expect("bind");
    let addr = server.local_addr();

    let mut saw_busy = false;
    'outer: for _ in 0..20 {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let probes = probes.clone();
                std::thread::spawn(move || {
                    let mut client = WireClient::connect(addr).expect("connect");
                    client.query_batch(&probes)
                })
            })
            .collect();
        for handle in handles {
            match handle.join().expect("client thread") {
                Ok(verdicts) => assert_eq!(verdicts.len(), probes.len()),
                Err(WireError::Busy { budget, .. }) => {
                    assert_eq!(budget, 1);
                    saw_busy = true;
                }
                Err(other) => panic!("expected service or Busy, got {other:?}"),
            }
        }
        if saw_busy {
            break 'outer;
        }
    }
    assert!(saw_busy, "two pipelining clients never hit a budget of 1");

    let stats = WireClient::connect(addr)
        .expect("connect")
        .stats()
        .expect("stats");
    assert!(stats.wire_busy_rejections > 0);
    server.shutdown();
}
