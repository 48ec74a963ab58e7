//! The traced run: each layer's public entry point timed from outside,
//! from the forward pass up to the wire with an idle herd attached, on
//! the workload's own fixture and deployment.
//!
//! Every call is recorded as a span (name, start, end, parent, frame) in
//! memory; the spans are written to `.perfbench_out/` when the run ends.
//! A layer's figure is the median over its calls, per input (or per
//! frame), and its marginal is the difference to the layer below it.

use crate::load::{self, Phase};
use crate::stats::median;
use crate::workload::{pattern_member, pattern_of, Error, HERD, SHARDS};
use crate::{dial_herd, load_phases, post_checks, Metrics, Run, Tally};
use napmon_absint::propagate::Propagator;
use napmon_absint::Domain;
use napmon_bdd::BitWord;
use napmon_core::perturb::perturbation_estimate_with;
use napmon_core::{ComposedMonitor, Monitor, QueryScratch};
use napmon_serve::{EngineConfig, MonitorEngine};
use napmon_store::{PatternStore, StoreConfig, StoreProvider};
use napmon_wire::{Frame, Request, Response, WireClient, DEFAULT_MAX_PAYLOAD};
use std::hint::black_box;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded call.
struct Span {
    id: u32,
    parent: u32,
    name: &'static str,
    frame: u64,
    start_ns: u64,
    end_ns: u64,
    inputs: u32,
}

/// In-memory span recorder; span 0 is the run itself.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        (at - self.epoch).as_nanos() as u64
    }

    fn push(
        &mut self,
        parent: u32,
        name: &'static str,
        frame: u64,
        start: Instant,
        end: Instant,
        inputs: usize,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            frame,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            inputs: inputs as u32,
        });
        id
    }

    /// Calls `call(i)` on frames `i = 0, 1, …` (each reporting how many
    /// inputs it handled) until `budget` has passed and at least
    /// `MIN_CALLS` calls were made, recording one span per call under a
    /// parent span for the layer. Returns the median ns per input.
    fn layer(
        &mut self,
        name: &'static str,
        budget: Duration,
        mut call: impl FnMut(usize) -> Result<usize, Error>,
    ) -> Result<f64, Error> {
        self.layer_staged(name, budget, |_| (), |i, ()| call(i))
    }

    /// [`Tracer::layer`] with an untimed `stage(i)` before each call, for
    /// entry points that consume their argument.
    fn layer_staged<S>(
        &mut self,
        name: &'static str,
        budget: Duration,
        mut stage: impl FnMut(usize) -> S,
        mut call: impl FnMut(usize, S) -> Result<usize, Error>,
    ) -> Result<f64, Error> {
        const MIN_CALLS: usize = 5;
        // Spans kept per layer; later calls still count toward the median.
        const MAX_SPANS: usize = 1000;
        let begin = Instant::now();
        let parent = self.push(0, name, 0, begin, begin, 0);
        let mut per_input = Vec::new();
        let mut i = 0;
        while i < MIN_CALLS || begin.elapsed() < budget {
            let staged = stage(i);
            let start = Instant::now();
            let inputs = call(i, staged)?;
            let end = Instant::now();
            if i < MAX_SPANS {
                self.push(parent, name, i as u64, start, end, inputs);
            }
            per_input.push((end - start).as_nanos() as f64 / inputs.max(1) as f64);
            i += 1;
        }
        let end_ns = self.ns(Instant::now());
        self.spans[parent as usize - 1].end_ns = end_ns;
        let ns = median(&per_input);
        eprintln!("    {name:<28} {ns:>12.1} ns/input  ({i} calls)");
        Ok(ns)
    }

    /// Writes every span as one JSON line.
    fn write(&self, path: &std::path::Path) -> Result<(), Error> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"frame\": {}, \"start_ns\": {}, \"end_ns\": {}, \"inputs\": {}}}",
                s.id, s.parent, s.name, s.frame, s.start_ns, s.end_ns, s.inputs
            )?;
        }
        out.flush()?;
        Ok(())
    }
}

/// The traced run: the layer ladder, then short load phases for the
/// counts (generator lag, refusals, absorb latency, tracing overhead).
pub fn traced(run: &Run, tally: &mut Tally) -> Result<Metrics, Error> {
    let mut tr = Tracer::new();
    let mut m = Metrics::default();
    let fx = &run.fx;
    let net = &fx.net;
    let tenants = &run.dep.tenants;
    let monitor: &ComposedMonitor = &tenants[0].reference;
    let pm = pattern_member(monitor);
    let tau = run.plan.tau;
    let budget = run.secs(0.025);
    // Tenant 0's frames, so every in-process layer answers the same way
    // the served tenant does.
    let frames: Vec<&Vec<Vec<f64>>> = fx.frames.iter().step_by(tenants.len()).collect();
    let nf = frames.len();
    eprintln!("  layer ladder (median per input over calls):");

    // L1: the monitor's three stages, each called directly; one call
    // covers every input of the tenant's frames, so the clock reads are a
    // negligible share even where a stage costs nanoseconds.
    let inputs: Vec<&Vec<f64>> = frames.iter().copied().flatten().collect();
    let extractor = monitor.extractor();
    let mut forward = napmon_nn::ForwardScratch::new();
    let mut feat = Vec::new();
    let forward_ns = tr.layer("nn.forward_ns", budget, |_| {
        for x in &inputs {
            extractor.features_into(net, x, &mut forward, &mut feat)?;
            black_box(&feat);
        }
        Ok(inputs.len())
    })?;
    let features: Vec<Vec<f64>> = inputs
        .iter()
        .map(|x| extractor.features(net, x))
        .collect::<Result<_, _>>()?;
    let mut word = BitWord::zeros(0);
    let abstract_ns = tr.layer("core.abstract_ns", budget, |_| {
        for f in &features {
            pm.abstract_into(f, &mut word);
            black_box(&word);
        }
        Ok(features.len())
    })?;
    let words: Vec<BitWord> = features.iter().map(|f| pm.abstract_bitword(f)).collect();
    let member_ns = tr.layer("core.member_ns", budget, |_| {
        for w in &words {
            black_box(if tau == 0 {
                pm.contains_packed(w)
            } else {
                pm.contains_within_packed(w, tau)
            });
        }
        Ok(words.len())
    })?;

    // L2: the whole verdict, forward pass included (the paper's A6 figure).
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    let verdict_ns = tr.layer("core.verdict_ns", budget, |i| {
        monitor.verdict_batch_scratch(net, frames[i % nf], &mut scratch, &mut out)?;
        Ok(out.len())
    })?;

    // L3: the sharded engine, 1 and N shards, over the same monitor.
    let shared: Vec<Arc<[Vec<f64>]>> = frames.iter().map(|f| Arc::from(f.as_slice())).collect();
    let net_arc = Arc::new(net.clone());
    let mut submit = |shards: usize, name: &'static str| -> Result<f64, Error> {
        let engine = MonitorEngine::new(
            Arc::clone(&net_arc),
            monitor.clone(),
            EngineConfig::with_shards(shards),
        );
        let ns = tr.layer(name, budget, |i| {
            Ok(engine.submit_batch(Arc::clone(&shared[i % nf]))?.len())
        })?;
        engine.shutdown();
        Ok(ns)
    };
    let submit1_ns = submit(1, "serve.submit_ns.1shard")?;
    let submitn_ns = submit(SHARDS, "serve.submit_ns.nshard")?;

    // L4: registry dispatch, every tenant's frames on its own route.
    let all_shared: Vec<Arc<[Vec<f64>]>> =
        fx.frames.iter().map(|f| Arc::from(f.as_slice())).collect();
    let registry = &run.dep.registry;
    let registry_ns = tr.layer("registry.query_ns", budget, |i| {
        let k = i % all_shared.len();
        let id = &run.dep.tenant_of(k).route.model_id;
        Ok(registry.query_batch(id, Arc::clone(&all_shared[k]))?.len())
    })?;

    // The codec, both directions.
    let route = &tenants[0].route;
    let encode_ns = tr.layer_staged(
        "wire.encode_ns",
        budget,
        |i| Request::QueryBatch(frames[i % nf].clone()),
        |i, request| {
            let bytes = request
                .into_frame(i as u64)?
                .routed(route.clone())
                .encode()?;
            black_box(bytes);
            Ok(frames[i % nf].len())
        },
    )?;
    let responses: Vec<Vec<u8>> = run
        .dep
        .expected
        .iter()
        .step_by(tenants.len())
        .enumerate()
        .map(|(i, v)| Response::Verdicts(v.clone()).into_frame(i as u64)?.encode())
        .collect::<Result<_, _>>()?;
    let decode_ns = tr.layer("wire.decode_ns", budget, |i| {
        let (frame, _) = Frame::decode(&responses[i % nf], DEFAULT_MAX_PAYLOAD)?;
        match Response::decode(&frame)? {
            Response::Verdicts(v) => Ok(black_box(v).len()),
            _ => Err("unexpected response".into()),
        }
    })?;
    let frame_bytes = median(
        &frames
            .iter()
            .map(|f| {
                Request::QueryBatch(f.to_vec())
                    .into_frame(0)
                    .and_then(|fr| fr.routed(route.clone()).encode())
                    .map(|b| b.len() as f64)
            })
            .collect::<Result<Vec<_>, _>>()?,
    );

    // L5/L6: the wire round trip, without and then with the idle herd.
    let addr = run.dep.server.local_addr();
    let mut clients = tenants
        .iter()
        .map(|t| Ok(WireClient::connect(addr)?.with_route(t.route.clone())))
        .collect::<Result<Vec<_>, Error>>()?;
    let mut rtt = |tr: &mut Tracer, name: &'static str| {
        tr.layer(name, budget, |i| {
            let k = i % fx.frames.len();
            let client = &mut clients[k % tenants.len()];
            Ok(client.query_batch(&fx.frames[k])?.len())
        })
    };
    let rtt_ns = rtt(&mut tr, "wire.rtt_ns")?;
    let herd = dial_herd(addr, HERD);
    let rtt_herd_ns = rtt(&mut tr, "wire.rtt_herd_ns")?;
    drop(clients);
    // The workload's own herd stays attached for its load phases.
    let herd = if run.plan.herd > 0 {
        Some(herd)
    } else {
        drop(herd);
        None
    };

    let store = store_layers(run, &mut tr, budget)?;
    let absint_us = absint_layer(run, &mut tr, budget)? / 1e3;

    // Counts from short load phases: untraced, then traced.
    let load = load_phases(run, tally, 0.3)?;
    let traced_closed = load::closed_loop(addr, &run.traffic, &run.seq, run.secs(0.11), true)?;
    tally.phase("closed loop (traced)", &traced_closed);
    let client_span = tr.push(
        0,
        "client.closed_loop",
        0,
        Instant::now(),
        Instant::now(),
        0,
    );
    for (k, &(start, end, inputs)) in traced_closed.spans.iter().enumerate() {
        let at = tr.epoch + Duration::from_nanos(start);
        let until = tr.epoch + Duration::from_nanos(end);
        tr.push(
            client_span,
            "client.frame",
            k as u64,
            at,
            until,
            inputs as usize,
        );
    }
    let stats = WireClient::connect(addr)?.stats()?;
    drop(herd);
    post_checks(run, tally)?;
    let mirror_drop = tenants
        .iter()
        .filter_map(|t| registry.shadow_stats(&t.route.model_id).ok())
        .map(|r| (r.dropped, r.mirrored + r.dropped))
        .fold((0, 0), |acc, (d, n)| (acc.0 + d, acc.1 + n));

    let warns: usize = run
        .dep
        .expected
        .iter()
        .flatten()
        .filter(|v| v.warning)
        .count();
    let queries = fx.query_inputs();
    let setup = |f: fn(&crate::workload::SetupTimes) -> f64| run.setup_median(f);
    // Patterns the served store gained from Absorb frames in the load phases.
    let new_patterns = load.closed.new_patterns + load.reference.new_patterns;

    m.put("nn.forward_ns", forward_ns, "ns");
    m.put("core.abstract_ns", abstract_ns, "ns");
    m.put("core.member_ns", member_ns, "ns");
    m.put("core.verdict_ns", verdict_ns, "ns");
    m.put(
        "core.assembly_ns",
        verdict_ns - forward_ns - abstract_ns - member_ns,
        "ns",
    );
    m.put("serve.submit_ns.1shard", submit1_ns, "ns");
    m.put("serve.handoff_ns", submit1_ns - verdict_ns, "ns");
    m.put("serve.submit_ns.nshard", submitn_ns, "ns");
    m.put("serve.nshard_marginal_ns", submitn_ns - submit1_ns, "ns");
    m.put("registry.query_ns", registry_ns, "ns");
    m.put("registry.dispatch_ns", registry_ns - submitn_ns, "ns");
    m.put(
        "registry.mirror_drop_share",
        share(mirror_drop.0, mirror_drop.1),
        "share",
    );
    m.put("wire.encode_ns", encode_ns, "ns");
    m.put("wire.decode_ns", decode_ns, "ns");
    m.put("wire.frame_bytes", frame_bytes, "bytes");
    m.put("wire.rtt_ns", rtt_ns, "ns");
    m.put("wire.marginal_ns", rtt_ns - registry_ns, "ns");
    m.put("wire.rtt_herd_ns", rtt_herd_ns, "ns");
    m.put("wire.herd_marginal_ns", rtt_herd_ns - rtt_ns, "ns");
    m.put("store.append_ns", store.append_ns, "ns");
    m.put("store.contains_within_ns", store.contains_ns, "ns");
    m.put("store.seal_ms", store.seal_ms, "ms");
    m.put("store.compact_ms", store.compact_ms, "ms");
    m.put("store.segments", store.segments, "count");
    m.put("store.disk_bytes_per_word", store.bytes_per_word, "bytes");
    m.put("store.new_patterns", new_patterns as f64, "count");
    m.put("absint.estimate_us", absint_us, "us");
    m.put("core.build_s", setup(|s| s.build), "s");
    m.put("artifact.encode_ms", setup(|s| s.encode) * 1e3, "ms");
    m.put("artifact.decode_ms", setup(|s| s.decode) * 1e3, "ms");
    m.put("artifact.bytes", setup(|s| s.artifact_bytes), "bytes");
    m.put("registry.mount_ms", setup(|s| s.mount) * 1e3, "ms");
    m.put("wire.bind_ms", setup(|s| s.bind) * 1e3, "ms");
    m.put(
        "core.warn_share",
        share(warns as u64, queries as u64),
        "share",
    );
    m.put(
        "wire.degraded_busy",
        stats.degraded.busy_total() as f64,
        "count",
    );
    m.put(
        "wire.degraded_shed",
        stats.degraded.shed_watermark as f64,
        "count",
    );
    m.put(
        "wire.degraded_evicted",
        stats.degraded.evicted_total() as f64,
        "count",
    );
    m.put("gen.lag_p99_us", load.reference.lag.p99(), "us");
    m.put("p99_us", load.p99, "us");
    m.put("p99_samples", load.reference.query.len() as f64, "count");
    m.put(
        "absorb_p50_us",
        or_zero(&load.reference, |p| p.absorb.p50()),
        "us",
    );
    m.put(
        "absorb_p99_us",
        or_zero(&load.reference, |p| p.absorb.p99()),
        "us",
    );
    m.put(
        "trace.overhead",
        traced_closed.inputs_per_s() / load.throughput,
        "ratio",
    );
    m.put(
        "failed_share",
        share(tally.failed, tally.attempted),
        "share",
    );

    let path = std::path::PathBuf::from(".perfbench_out").join(format!(
        "spans-{}-seed{}.jsonl",
        run.workload.name(),
        run.seed
    ));
    tr.write(&path)?;
    eprintln!("  {} spans written to {}", tr.spans.len(), path.display());
    Ok(m)
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// `f(phase)` when the phase sent absorb frames, else 0.
fn or_zero(phase: &Phase, f: impl Fn(&Phase) -> f64) -> f64 {
    if phase.absorb.len() == 0 {
        0.0
    } else {
        f(phase)
    }
}

struct StoreFigures {
    append_ns: f64,
    contains_ns: f64,
    seal_ms: f64,
    compact_ms: f64,
    segments: f64,
    bytes_per_word: f64,
}

/// `PatternStore` calls on a copy of the workload's store (or, on a
/// workload without one, on a store of its training patterns).
fn store_layers(run: &Run, tr: &mut Tracer, budget: Duration) -> Result<StoreFigures, Error> {
    let fx = &run.fx;
    let monitor = &run.dep.tenants[0].reference;
    let tau = run.plan.tau;
    let dir = run.work_dir.join("store-copy");
    let mut store = if run.plan.absorb_every > 0 {
        let live = StoreProvider::member_dir(
            &run.dep
                .registry
                .tenant_store_dir(&run.dep.tenants[0].route.model_id, 1)?,
            0,
        );
        std::fs::create_dir_all(&dir)?;
        for entry in std::fs::read_dir(&live)? {
            let entry = entry?;
            if entry.file_name() != "LOCK" {
                std::fs::copy(entry.path(), dir.join(entry.file_name()))?;
            }
        }
        PatternStore::open(&dir)?
    } else {
        let words: Vec<BitWord> = fx
            .train
            .iter()
            .map(|x| pattern_of(fx, monitor, x))
            .collect();
        let mut store = PatternStore::create(&dir, StoreConfig::new(words[0].len()))?;
        store.append_batch(&words)?;
        store
    };
    // Fresh words: the absorb inputs' patterns, or the query patterns.
    let fresh: Vec<BitWord> = if run.dep.absorbs.is_empty() {
        fx.frames
            .iter()
            .flatten()
            .map(|x| pattern_of(fx, monitor, x))
            .collect()
    } else {
        run.dep
            .absorbs
            .iter()
            .map(|x| pattern_of(fx, monitor, x))
            .collect()
    };
    let probes: Vec<BitWord> = fx
        .frames
        .iter()
        .flatten()
        .map(|x| pattern_of(fx, monitor, x))
        .collect();
    let chunk = run.plan.frame_inputs;
    let nprobe = probes.len().div_ceil(chunk);
    let contains_ns = tr.layer("store.contains_within_ns", budget, |i| {
        let part = &probes[(i % nprobe) * chunk..((i % nprobe + 1) * chunk).min(probes.len())];
        for w in part {
            black_box(store.contains_within(w, tau)?);
        }
        Ok(part.len())
    })?;
    let nfresh = fresh.len().div_ceil(chunk);
    let append_ns = tr.layer("store.append_ns", budget, |i| {
        let part = &fresh[(i % nfresh) * chunk..((i % nfresh + 1) * chunk).min(fresh.len())];
        store.append_batch(part)?;
        Ok(part.len())
    })?;
    let timed_ms = |tr: &mut Tracer,
                    name: &'static str,
                    store: &mut PatternStore,
                    op: fn(&mut PatternStore) -> Result<(), napmon_store::StoreError>|
     -> Result<f64, Error> {
        let start = Instant::now();
        op(store)?;
        let end = Instant::now();
        tr.push(0, name, 0, start, end, 0);
        Ok((end - start).as_secs_f64() * 1e3)
    };
    let seal_ms = timed_ms(tr, "store.seal_ms", &mut store, PatternStore::seal)?;
    let segments = store.segment_count() as f64;
    let compact_ms = timed_ms(tr, "store.compact_ms", &mut store, PatternStore::compact)?;
    let stats = store.stats()?;
    let words = (stats.sealed_words + stats.tail_words).max(1);
    eprintln!(
        "    store.seal_ms {seal_ms:.2}, {segments} segments, store.compact_ms {compact_ms:.2}, \
         {words} words, {} bytes on disk",
        stats.disk_bytes
    );
    drop(store);
    std::fs::remove_dir_all(&dir)?;
    Ok(StoreFigures {
        append_ns,
        contains_ns,
        seal_ms,
        compact_ms,
        segments,
        bytes_per_word: stats.disk_bytes as f64 / words as f64,
    })
}

/// `perturbation_estimate_with` (Box domain, Δ = 0.001 at the input) per
/// training input, in ns.
fn absint_layer(run: &Run, tr: &mut Tracer, budget: Duration) -> Result<f64, Error> {
    let fx = &run.fx;
    let layer = run.dep.tenants[0].reference.extractor().layer();
    let prop = Propagator::new(&fx.net, Domain::Box);
    let n = fx.train.len();
    tr.layer("absint.estimate_ns", budget, |i| {
        let part = &fx.train[(i * 16) % n..((i * 16) % n + 16).min(n)];
        for x in part {
            black_box(perturbation_estimate_with(&prop, x, 0, layer, 0.001)?);
        }
        Ok(part.len())
    })
}
