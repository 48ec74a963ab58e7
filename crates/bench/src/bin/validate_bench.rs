//! CI gate for the benchmark reports.
//!
//! Two modes:
//!
//! **Schema mode** (default): parses `BENCH_query.json`,
//! `BENCH_serve.json`, `BENCH_artifact.json`, `BENCH_store.json`, and
//! `BENCH_wire.json` at the workspace root and fails (non-zero exit)
//! unless all carry the expected schema with sane values. Run after the
//! benches (smoke mode suffices):
//!
//! ```text
//! NAPMON_BENCH_SMOKE=1 cargo bench -p napmon-bench --bench query_throughput
//! NAPMON_BENCH_SMOKE=1 cargo bench -p napmon-bench --bench serve_throughput
//! NAPMON_BENCH_SMOKE=1 cargo bench -p napmon-bench --bench artifact
//! NAPMON_BENCH_SMOKE=1 cargo bench -p napmon-bench --bench store_throughput
//! NAPMON_BENCH_SMOKE=1 cargo bench -p napmon-bench --bench wire_throughput
//! cargo run -p napmon-bench --bin validate_bench
//! ```
//!
//! **Compare mode** (`--compare <baseline-dir>`): additionally diffs the
//! freshly generated reports against baseline copies in `<baseline-dir>`
//! (CI copies the committed files aside before the smoke runs) and fails
//! on
//!
//! - **schema drift** — a top-level or per-row key appearing or vanishing
//!   relative to the baseline, or the row matrix changing shape; and
//! - **throughput regression** — any qps-like figure dropping more than
//!   the tolerance (default 30%; tune with `NAPMON_BENCH_TOLERANCE=0.5`
//!   for 50%) below its baseline.
//!
//! Latency figures are only compared when *both* reports come from
//! non-smoke runs — a 50 ms smoke measurement is noise, not a baseline.
//! Absolute throughput is only compared when both reports were measured
//! on the same machine shape (equal `threads`); cross-hardware, the gate
//! falls back to *within-run ratios* (packed-vs-naive speedups, the wire
//! overhead multiple), which divide two figures from the same run so the
//! hardware cancels — the gate keeps teeth on any runner, and every skip
//! is printed so the CI log records it.

use serde_json::Value;

/// Reads `name` from the given directory (workspace root by default).
fn load_from(dir: &str, name: &str) -> Value {
    let path = if dir.is_empty() {
        format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"))
    } else {
        format!("{dir}/{name}")
    };
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e} (run the benches first)"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name} is not valid JSON: {e}"))
}

fn load(name: &str) -> Value {
    load_from("", name)
}

/// Asserts `value[key]` exists (is not null) and returns it.
fn field<'a>(name: &str, value: &'a Value, key: &str) -> &'a Value {
    let v = &value[key];
    assert!(!matches!(v, Value::Null), "{name}: missing key `{key}`");
    v
}

/// Asserts `value[key]` is a strictly positive number.
fn positive(name: &str, value: &Value, key: &str) -> f64 {
    let v = field(name, value, key);
    let Value::Number(n) = v else {
        panic!("{name}: `{key}` is not a number");
    };
    let x = n.as_f64();
    assert!(
        x.is_finite() && x > 0.0,
        "{name}: `{key}` should be positive, got {x}"
    );
    x
}

fn validate_query() {
    let name = "BENCH_query.json";
    let report = load(name);
    for key in ["train_size", "probe_count", "input_dim", "threads"] {
        positive(name, &report, key);
    }
    field(name, &report, "smoke");
    positive(name, &report, "min_speedup_vs_naive_vec_bool");
    positive(name, &report, "min_bdd_membership_speedup");
    let Value::Array(results) = field(name, &report, "results") else {
        panic!("{name}: `results` is not an array");
    };
    assert!(!results.is_empty(), "{name}: `results` is empty");
    for row in results {
        field(name, row, "neurons");
        field(name, row, "backend");
        for key in [
            "membership_qps_packed",
            "membership_qps_naive",
            "membership_speedup",
            "end_to_end_qps",
            "end_to_end_parallel_qps",
        ] {
            positive(name, row, key);
        }
    }
    // The Hamming-ball matrix: packed per-query scan vs the bit-sliced
    // batch kernel, one row per word width.
    let Value::Array(hamming) = field(name, &report, "hamming_results") else {
        panic!("{name}: `hamming_results` is not an array");
    };
    assert!(!hamming.is_empty(), "{name}: `hamming_results` is empty");
    for row in hamming {
        for key in [
            "word_bits",
            "patterns",
            "tau",
            "hamming_qps_packed",
            "hamming_qps_sliced_batch",
            "sliced_hamming_speedup",
        ] {
            positive(name, row, key);
        }
    }
    let min_sliced = positive(name, &report, "min_sliced_hamming_speedup");
    // The batch-kernel acceptance bar. Only enforced on full runs: a
    // smoke window is tens of milliseconds and its ratios are diffed (with
    // tolerance) by compare mode instead of hard-gated here.
    if !is_smoke(&report) {
        assert!(
            min_sliced >= 3.0,
            "{name}: sliced batch kernel is only {min_sliced:.2}x the packed scan \
             (full runs must clear 3x)"
        );
    }
    println!(
        "{name}: ok ({} result rows, {} hamming rows)",
        results.len(),
        hamming.len()
    );
}

fn validate_serve() {
    let name = "BENCH_serve.json";
    let report = load(name);
    for key in ["threads", "train_size", "batch_size", "micro_batch"] {
        positive(name, &report, key);
    }
    positive(name, &report, "direct_qps");
    let speedup = positive(name, &report, "speedup_4shard_vs_1shard");
    // Shard scaling is hardware-bound: a single-core container is ~1.0x by
    // construction, so the acceptance threshold is only enforceable where
    // the 4 shards can actually run in parallel.
    let threads = positive(name, &report, "threads");
    if threads >= 4.0 {
        assert!(
            speedup >= 1.5,
            "{name}: 4-shard speedup {speedup:.2}x < 1.5x on a {threads}-thread machine \
             — shard scaling has regressed"
        );
    } else {
        println!(
            "{name}: note: 4-shard speedup threshold not enforced \
             ({threads} thread(s) on this machine)"
        );
    }
    field(name, &report, "notes");
    field(name, &report, "smoke");
    // The registry-dispatch figures: the routing layer's price and the
    // shadow mirror's, both as within-run ratios against the 1-shard
    // engine row, plus the hot-swap flip latency.
    positive(name, &report, "registry_dispatch_qps");
    positive(name, &report, "registry_dispatch_overhead");
    positive(name, &report, "registry_flip_latency_us");
    let shadow_overhead = positive(name, &report, "registry_shadow_overhead");
    // The shadow contract — candidate traffic stays off the hot path, so
    // one attached shadow costs ≤ 10% — only holds where the mirror and
    // the shadow engine can run on their own core; on a single-core box
    // they time-share with the hot path by construction. Same
    // hardware-awareness as the shard-scaling threshold above.
    if threads >= 2.0 && !is_smoke(&report) {
        assert!(
            shadow_overhead <= 1.10,
            "{name}: one attached shadow costs {:.1}% on a {threads}-thread machine \
             — the mirror has leaked onto the hot path",
            (shadow_overhead - 1.0) * 100.0
        );
    } else {
        println!(
            "{name}: note: shadow-overhead threshold not enforced \
             ({threads} thread(s), smoke = {})",
            is_smoke(&report)
        );
    }
    // The obs-probe overhead row: schema always, the ≤ 1.05 ceiling only
    // where the measurement window is real (a 50 ms smoke window's ratio
    // is noise) — and only where the probes were actually compiled in,
    // since a no-op shim build prices nothing.
    let obs = field(name, &report, "obs_overhead").clone();
    positive(name, &obs, "qps_uninstrumented");
    positive(name, &obs, "qps_instrumented");
    let obs_ratio = positive(name, &obs, "ratio");
    let probes_enabled = matches!(&obs["probes_enabled"], Value::Bool(true));
    if probes_enabled && !is_smoke(&report) {
        assert!(
            obs_ratio <= 1.05,
            "{name}: armed observability probes cost {:.1}% of serving throughput \
             (ceiling 5%) — a probe has leaked into the hot path",
            (obs_ratio - 1.0) * 100.0
        );
    } else {
        println!(
            "{name}: note: obs-overhead ceiling not enforced \
             (probes_enabled = {probes_enabled}, smoke = {})",
            is_smoke(&report)
        );
    }
    let Value::Array(rows) = field(name, &report, "rows") else {
        panic!("{name}: `rows` is not an array");
    };
    let shard_counts: Vec<u64> = rows
        .iter()
        .map(|row| {
            positive(name, row, "qps");
            positive(name, row, "speedup_vs_1shard");
            positive(name, row, "mean_latency_ns");
            field(name, row, "warn_rate");
            positive(name, row, "shards") as u64
        })
        .collect();
    assert_eq!(
        shard_counts,
        vec![1, 2, 4],
        "{name}: expected 1/2/4-shard rows"
    );
    println!("{name}: ok ({} shard rows)", rows.len());
}

fn validate_artifact_report() {
    let name = "BENCH_artifact.json";
    let report = load(name);
    for key in [
        "train_size",
        "input_dim",
        "neurons",
        "save_load_reps",
        "threads",
    ] {
        positive(name, &report, key);
    }
    field(name, &report, "smoke");
    field(name, &report, "notes");
    let Value::Array(rows) = field(name, &report, "rows") else {
        panic!("{name}: `rows` is not an array");
    };
    assert!(!rows.is_empty(), "{name}: `rows` is empty");
    let mut backends = std::collections::BTreeSet::new();
    for row in rows {
        field(name, row, "kind");
        let Value::String(backend) = field(name, row, "backend") else {
            panic!("{name}: `backend` is not a string");
        };
        backends.insert(backend.clone());
        field(name, row, "robust");
        for key in ["save_ms", "load_ms", "bytes"] {
            positive(name, row, key);
        }
        // build_seconds may round to 0 for min-max; only require presence
        // and non-negativity.
        let Value::Number(n) = field(name, row, "build_seconds") else {
            panic!("{name}: `build_seconds` is not a number");
        };
        assert!(n.as_f64() >= 0.0, "{name}: negative build_seconds");
        assert_eq!(
            field(name, row, "roundtrip_identical"),
            &Value::Bool(true),
            "{name}: a save->load round trip drifted"
        );
    }
    // The matrix must cover both pattern stores (hash *and* BDD arenas).
    assert!(
        backends.contains("bdd") && backends.contains("hash"),
        "{name}: rows must cover both the BDD and hash backends, got {backends:?}"
    );
    println!("{name}: ok ({} rows)", rows.len());
}

fn validate_store_report() {
    let name = "BENCH_store.json";
    let report = load(name);
    for key in ["appends", "probes", "hamming_tau", "threads"] {
        positive(name, &report, key);
    }
    field(name, &report, "smoke");
    field(name, &report, "notes");
    let Value::Array(rows) = field(name, &report, "rows") else {
        panic!("{name}: `rows` is not an array");
    };
    assert!(!rows.is_empty(), "{name}: `rows` is empty");
    let mut kinds = std::collections::BTreeSet::new();
    for row in rows {
        let Value::String(kind) = field(name, row, "kind") else {
            panic!("{name}: `kind` is not a string");
        };
        kinds.insert(kind.clone());
        for key in [
            "word_bits",
            "words",
            "append_qps",
            "exact_ns_memory",
            "exact_ns_store",
            "hamming_ns_memory",
            "hamming_ns_store",
            "hamming_store_speedup",
            "disk_bytes",
        ] {
            positive(name, row, key);
        }
        // A store holding N words of W bits cannot occupy fewer than
        // N·W/8 bytes — catches a bench that silently stopped writing.
        let words = positive(name, row, "words");
        let bits = positive(name, row, "word_bits");
        let bytes = positive(name, row, "disk_bytes");
        assert!(
            bytes >= words * bits / 8.0,
            "{name}: {kind}: {bytes} disk bytes cannot hold {words} words of {bits} bits"
        );
    }
    // The matrix must cover the on-off and at least one interval width.
    assert!(
        kinds.contains("pattern-1bit") && kinds.iter().any(|k| k.starts_with("interval")),
        "{name}: rows must cover pattern and interval kinds, got {kinds:?}"
    );
    println!("{name}: ok ({} rows)", rows.len());
}

fn validate_wire_report() {
    let name = "BENCH_wire.json";
    let report = load(name);
    for key in ["threads", "train_size", "batch_size", "input_dim", "shards"] {
        positive(name, &report, key);
    }
    positive(name, &report, "direct_qps");
    field(name, &report, "smoke");
    field(name, &report, "notes");
    // The network boundary must cost something, but not orders of
    // magnitude: an overhead below 1.0x means the baseline broke, far
    // above ~20x means the framing path regressed catastrophically.
    let overhead = positive(name, &report, "wire_overhead_1client");
    assert!(
        (0.5..50.0).contains(&overhead),
        "{name}: wire_overhead_1client {overhead:.2}x is implausible"
    );
    // The idle-herd pass: the reactor must have held a real herd, served
    // a client beside it at a plausible price, and — where /proc exists —
    // done so on O(1) wire threads (one reactor plus a bounded pool).
    let high = field(name, &report, "high_connection");
    positive(name, high, "qps_1client");
    let idle = positive(name, high, "idle_conns");
    assert!(
        idle >= 128.0,
        "{name}: high_connection held only {idle} conns"
    );
    let Value::Number(wire_threads) = field(name, high, "wire_threads") else {
        panic!("{name}: `wire_threads` is not a number");
    };
    let wire_threads = wire_threads.as_f64();
    assert!(
        (0.0..=16.0).contains(&wire_threads),
        "{name}: {wire_threads} wire threads for {idle} idle conns — the reactor scaled with peers"
    );
    let high_overhead = positive(name, &report, "high_conn_overhead");
    assert!(
        (0.5..50.0).contains(&high_overhead),
        "{name}: high_conn_overhead {high_overhead:.2}x is implausible"
    );
    assert_eq!(
        high_overhead.to_bits(),
        positive(name, high, "overhead_vs_direct").to_bits(),
        "{name}: high_conn_overhead must mirror high_connection.overhead_vs_direct"
    );
    let Value::Array(rows) = field(name, &report, "rows") else {
        panic!("{name}: `rows` is not an array");
    };
    let client_counts: Vec<u64> = rows
        .iter()
        .map(|row| {
            positive(name, row, "qps");
            positive(name, row, "speedup_vs_1client");
            positive(name, row, "batch_rtt_us");
            positive(name, row, "requests");
            // Degradation counters are legitimately zero on a healthy
            // run, so they are required but only bounded below.
            for key in WIRE_DEGRADED_KEYS {
                let Value::Number(n) = field(name, row, key) else {
                    panic!("{name}: `{key}` is not a number");
                };
                assert!(n.as_f64() >= 0.0, "{name}: `{key}` is negative");
            }
            positive(name, row, "clients") as u64
        })
        .collect();
    assert_eq!(
        client_counts,
        vec![1, 2, 4],
        "{name}: expected 1/2/4-client rows"
    );
    println!("{name}: ok ({} client rows)", rows.len());
}

// ---- compare mode -------------------------------------------------------

/// How one report file is diffed against its baseline.
struct CompareSpec {
    name: &'static str,
    /// The row-array key (`rows` or `results`).
    row_field: &'static str,
    /// Fields identifying a row across runs (order-stable anyway, but the
    /// identity makes drift messages precise).
    row_identity: &'static [&'static str],
    /// Top-level throughput figures (higher is better).
    top_throughput: &'static [&'static str],
    /// Per-row throughput figures (higher is better).
    row_throughput: &'static [&'static str],
    /// Per-row latency figures (lower is better; smoke runs skip these).
    row_latency: &'static [&'static str],
    /// Top-level *within-run ratios*, higher is better. A ratio divides
    /// two figures measured in the same run on the same machine, so the
    /// hardware cancels to first order — these are diffed even across
    /// machine shapes, which is what keeps the gate non-vacuous when the
    /// committed baseline and the CI runner differ.
    top_ratio_floor: &'static [&'static str],
    /// Top-level within-run ratios, lower is better (overheads).
    top_ratio_ceiling: &'static [&'static str],
    /// Per-row within-run ratios, higher is better.
    row_ratio_floor: &'static [&'static str],
}

/// The degradation counters every `BENCH_wire.json` row carries.
const WIRE_DEGRADED_KEYS: [&str; 3] = ["degraded_busy", "degraded_shed", "degraded_evicted"];

const COMPARE_SPECS: [CompareSpec; 6] = [
    CompareSpec {
        name: "BENCH_query.json",
        row_field: "results",
        row_identity: &["neurons", "backend"],
        top_throughput: &[],
        row_throughput: &["membership_qps_packed", "end_to_end_qps"],
        row_latency: &[],
        top_ratio_floor: &["min_speedup_vs_naive_vec_bool"],
        top_ratio_ceiling: &[],
        row_ratio_floor: &["membership_speedup"],
    },
    // Second view of the same file: the Hamming-ball matrix of the
    // bit-sliced batch kernel.
    CompareSpec {
        name: "BENCH_query.json",
        row_field: "hamming_results",
        row_identity: &["word_bits"],
        top_throughput: &[],
        row_throughput: &["hamming_qps_packed", "hamming_qps_sliced_batch"],
        row_latency: &[],
        // Gate on the *minimum* speedup only: per-row speedups shift with
        // the measurement regime (smoke windows run cold), but the min —
        // the narrowest-width row — is stable across both.
        top_ratio_floor: &["min_sliced_hamming_speedup"],
        top_ratio_ceiling: &[],
        row_ratio_floor: &[],
    },
    CompareSpec {
        name: "BENCH_serve.json",
        row_field: "rows",
        row_identity: &["shards"],
        top_throughput: &["direct_qps"],
        row_throughput: &["qps"],
        row_latency: &["mean_latency_ns"],
        // speedup_vs_1shard is parallel *capacity*, not a within-run
        // price ratio — it does not cancel hardware, so it lives in
        // validate_serve's threads-aware check instead. The registry
        // overheads *are* within-run price ratios (both sides of each
        // division come from the same run), so they gate here; flip
        // latency is absolute wall time and stays schema-only.
        top_ratio_floor: &[],
        top_ratio_ceiling: &["registry_dispatch_overhead", "registry_shadow_overhead"],
        row_ratio_floor: &[],
    },
    CompareSpec {
        name: "BENCH_artifact.json",
        row_field: "rows",
        row_identity: &["kind", "backend", "robust"],
        top_throughput: &[],
        row_throughput: &[],
        row_latency: &["save_ms", "load_ms"],
        top_ratio_floor: &[],
        top_ratio_ceiling: &[],
        row_ratio_floor: &[],
    },
    CompareSpec {
        name: "BENCH_store.json",
        row_field: "rows",
        row_identity: &["kind"],
        top_throughput: &[],
        row_throughput: &["append_qps"],
        // hamming_ns_store (the partition-pruned kernel) regresses are
        // caught here on full-vs-full runs; hamming_store_speedup itself
        // scales with store size (a 4k-word smoke store prunes less than
        // a 100k-word one), so it is schema-checked but not ratio-gated.
        row_latency: &["exact_ns_store", "hamming_ns_store"],
        top_ratio_floor: &[],
        top_ratio_ceiling: &[],
        row_ratio_floor: &[],
    },
    CompareSpec {
        name: "BENCH_wire.json",
        row_field: "rows",
        row_identity: &["clients"],
        top_throughput: &["direct_qps"],
        row_throughput: &["qps"],
        row_latency: &["batch_rtt_us"],
        top_ratio_floor: &[],
        top_ratio_ceiling: &["wire_overhead_1client", "high_conn_overhead"],
        row_ratio_floor: &[],
    },
];

/// The regression tolerance: a figure may be at most this fraction worse
/// than its baseline (`NAPMON_BENCH_TOLERANCE`, default 0.30).
fn tolerance() -> f64 {
    match std::env::var("NAPMON_BENCH_TOLERANCE") {
        Ok(raw) => {
            let t: f64 = raw
                .parse()
                .unwrap_or_else(|_| panic!("NAPMON_BENCH_TOLERANCE `{raw}` is not a number"));
            assert!(
                t.is_finite() && t > 0.0,
                "NAPMON_BENCH_TOLERANCE must be a positive fraction, got {t}"
            );
            t
        }
        Err(_) => 0.30,
    }
}

/// Whether a report came from a smoke run: the structured `smoke` field
/// where the schema has one, the notes marker otherwise.
fn is_smoke(report: &Value) -> bool {
    match &report["smoke"] {
        Value::Bool(b) => *b,
        _ => matches!(&report["notes"], Value::String(s) if s.contains("smoke = true")),
    }
}

fn sorted_keys(value: &Value) -> Vec<String> {
    match value {
        Value::Object(map) => {
            let mut keys: Vec<String> = map.keys().cloned().collect();
            keys.sort();
            keys
        }
        _ => Vec::new(),
    }
}

/// A row's identity string, for drift messages.
fn identity(spec: &CompareSpec, row: &Value) -> String {
    spec.row_identity
        .iter()
        .map(|k| format!("{k}={:?}", row[*k]))
        .collect::<Vec<_>>()
        .join(",")
}

fn number(name: &str, value: &Value, key: &str) -> f64 {
    match &value[key] {
        Value::Number(n) => n.as_f64(),
        _ => panic!("{name}: `{key}` is not a number"),
    }
}

/// Diffs one fresh report against its baseline. Returns the number of
/// figures actually compared (so the caller can report coverage).
fn compare_report(spec: &CompareSpec, baseline_dir: &str, tol: f64) -> usize {
    let name = spec.name;
    let fresh = load(name);
    let baseline = load_from(baseline_dir, name);

    // Schema drift: key sets must agree exactly, top-level and per row.
    assert_eq!(
        sorted_keys(&fresh),
        sorted_keys(&baseline),
        "{name}: top-level schema drifted from the baseline"
    );
    let (Value::Array(fresh_rows), Value::Array(base_rows)) =
        (&fresh[spec.row_field], &baseline[spec.row_field])
    else {
        panic!(
            "{name}: `{}` is not an array in both reports",
            spec.row_field
        );
    };
    assert_eq!(
        fresh_rows.len(),
        base_rows.len(),
        "{name}: row count drifted from the baseline"
    );
    for (fresh_row, base_row) in fresh_rows.iter().zip(base_rows) {
        assert_eq!(
            identity(spec, fresh_row),
            identity(spec, base_row),
            "{name}: row identity drifted from the baseline"
        );
        assert_eq!(
            sorted_keys(fresh_row),
            sorted_keys(base_row),
            "{name}: row schema drifted from the baseline ({})",
            identity(spec, fresh_row)
        );
    }

    let smoke = is_smoke(&fresh) || is_smoke(&baseline);
    let mut compared = 0usize;

    // Within-run ratios first: each divides two figures from the same run
    // on the same machine, so the hardware cancels to first order and
    // they are diffable across machine shapes — without them the gate
    // would be vacuous whenever the CI runner differs from the machine
    // that produced the committed baselines.
    for key in spec.top_ratio_floor {
        compared += 1;
        let fresh_v = number(name, &fresh, key);
        let base_v = number(name, &baseline, key);
        assert!(
            fresh_v >= base_v * (1.0 - tol),
            "{name}: {key}: within-run ratio regressed {:.1}% (fresh {fresh_v:.2} vs \
             baseline {base_v:.2}, tolerance {:.0}%)",
            (1.0 - fresh_v / base_v) * 100.0,
            tol * 100.0
        );
    }
    for key in spec.top_ratio_ceiling {
        compared += 1;
        let fresh_v = number(name, &fresh, key);
        let base_v = number(name, &baseline, key);
        assert!(
            fresh_v <= base_v * (1.0 + tol),
            "{name}: {key}: within-run overhead regressed {:.1}% (fresh {fresh_v:.2} vs \
             baseline {base_v:.2}, tolerance {:.0}%)",
            (fresh_v / base_v - 1.0) * 100.0,
            tol * 100.0
        );
    }
    for (fresh_row, base_row) in fresh_rows.iter().zip(base_rows) {
        for key in spec.row_ratio_floor {
            compared += 1;
            let fresh_v = number(name, fresh_row, key);
            let base_v = number(name, base_row, key);
            assert!(
                fresh_v >= base_v * (1.0 - tol),
                "{name}: {} {key}: within-run ratio regressed {:.1}% (fresh {fresh_v:.2} \
                 vs baseline {base_v:.2}, tolerance {:.0}%)",
                identity(spec, fresh_row),
                (1.0 - fresh_v / base_v) * 100.0,
                tol * 100.0
            );
        }
    }

    // Absolute figures only mean something on the same machine shape:
    // every report records `threads`, and a report missing it (a stale
    // baseline) has an unknown shape, which is as incomparable as a
    // different one.
    let comparable_hw = match (&fresh["threads"], &baseline["threads"]) {
        (Value::Number(a), Value::Number(b)) => a.as_f64() == b.as_f64(),
        _ => false,
    };
    if !comparable_hw {
        println!(
            "{name}: schema + ratios ok ({compared} ratio figures); absolute diff skipped \
             (baseline measured on {:?} thread(s), this machine has {:?})",
            baseline["threads"], fresh["threads"]
        );
        return compared;
    }
    let mut check_throughput = |label: String, fresh_v: f64, base_v: f64| {
        compared += 1;
        let floor = base_v * (1.0 - tol);
        assert!(
            fresh_v >= floor,
            "{name}: {label}: throughput regressed {:.1}% (fresh {fresh_v:.0} vs \
             baseline {base_v:.0}, tolerance {:.0}%)",
            (1.0 - fresh_v / base_v) * 100.0,
            tol * 100.0
        );
    };
    for key in spec.top_throughput {
        check_throughput(
            (*key).to_string(),
            number(name, &fresh, key),
            number(name, &baseline, key),
        );
    }
    for (fresh_row, base_row) in fresh_rows.iter().zip(base_rows) {
        for key in spec.row_throughput {
            check_throughput(
                format!("{} {key}", identity(spec, fresh_row)),
                number(name, fresh_row, key),
                number(name, base_row, key),
            );
        }
    }

    if smoke {
        if !spec.row_latency.is_empty() {
            println!("{name}: latency diff skipped (smoke run)");
        }
    } else {
        for (fresh_row, base_row) in fresh_rows.iter().zip(base_rows) {
            for key in spec.row_latency {
                compared += 1;
                let fresh_v = number(name, fresh_row, key);
                let base_v = number(name, base_row, key);
                let ceiling = base_v * (1.0 + tol);
                assert!(
                    fresh_v <= ceiling,
                    "{name}: {} {key}: latency regressed {:.1}% (fresh {fresh_v:.0} vs \
                     baseline {base_v:.0}, tolerance {:.0}%)",
                    identity(spec, fresh_row),
                    (fresh_v / base_v - 1.0) * 100.0,
                    tol * 100.0
                );
            }
        }
    }
    println!(
        "{name}: compare ok ({compared} figures within {:.0}%)",
        tol * 100.0
    );
    compared
}

fn compare_all(baseline_dir: &str) {
    let tol = tolerance();
    println!(
        "comparing against baselines in {baseline_dir} (tolerance {:.0}%)",
        tol * 100.0
    );
    let mut compared = 0usize;
    for spec in &COMPARE_SPECS {
        compared += compare_report(spec, baseline_dir, tol);
    }
    println!("bench regression gate passed ({compared} figures diffed)");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    validate_query();
    validate_serve();
    validate_artifact_report();
    validate_store_report();
    validate_wire_report();
    println!("benchmark reports validated");
    match args.get(1).map(String::as_str) {
        Some("--compare") => {
            let dir = args
                .get(2)
                .expect("usage: validate_bench [--compare <baseline-dir>]");
            compare_all(dir);
        }
        Some(other) => panic!("unknown argument `{other}` (expected --compare <baseline-dir>)"),
        None => {}
    }
}
