//! Regenerates every table and figure of the paper's evaluation (E1/E2,
//! F1/F2), plus the ablations A1–A6.
//!
//! ```text
//! paper_tables [e1|e2|f1|f2|a1|a2|a3|a4|a5|a6|all] [--full]
//! ```
//!
//! Without `--full`, a reduced-scale configuration runs in seconds; with
//! `--full`, the paper-scale configuration runs in minutes. JSON copies of
//! all results land in `results/` under the working directory.

use napmon_absint::Domain;
use napmon_bdd::Bdd;
use napmon_core::{MonitorKind, MonitorSpec, PatternBackend, ThresholdPolicy};
use napmon_data::ood::OodScenario;
use napmon_data::racetrack::{TrackConfig, TrackSampler};
use napmon_eval::experiment::{Experiment, RacetrackConfig};
use napmon_eval::report;
use napmon_eval::sweep;
use napmon_eval::table::{percent, seconds, Table};
use napmon_tensor::Prng;
use std::time::Instant;

/// The pattern family used throughout the experiments: mean thresholds
/// (sign thresholds degenerate on post-ReLU layers, where every value is
/// non-negative).
fn pattern_family() -> MonitorKind {
    MonitorKind::pattern_with(ThresholdPolicy::Mean, PatternBackend::Bdd, 0)
}

fn usage() -> ! {
    eprintln!("usage: paper_tables [e1|e2|f1|f2|a1|a2|a3|a4|a5|a6|all] [--full]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");

    let config = if full {
        RacetrackConfig::paper_scale()
    } else {
        RacetrackConfig {
            train_size: 600,
            test_size: 800,
            ood_size: 200,
            hidden: vec![48, 24],
            epochs: 12,
            scenarios: OodScenario::ALL.to_vec(),
            ..RacetrackConfig::default()
        }
    };

    let needs_experiment = matches!(
        which,
        "e1" | "f2" | "a1" | "a1mm" | "a2" | "a3" | "a4" | "a6" | "all"
    );
    let exp = needs_experiment.then(|| {
        println!(
            "# preparing experiment (train={}, test={}, ood={}x{}, net=256->{:?}->2, {} epochs)…",
            config.train_size,
            config.test_size,
            config.scenarios.len(),
            config.ood_size,
            config.hidden,
            config.epochs
        );
        let t = Instant::now();
        let exp = Experiment::prepare(config.clone());
        println!(
            "# trained in {}: train MSE {:.5}, test MSE {:.5}\n",
            seconds(t.elapsed().as_secs_f64()),
            exp.train_loss(),
            exp.test_loss()
        );
        exp
    });

    match which {
        "e1" => e1(exp.as_ref().unwrap()),
        "e2" => e2(full),
        "f1" => f1(),
        "f2" => f2(exp.as_ref().unwrap(), config.seed),
        "a1" => a1(exp.as_ref().unwrap()),
        "a1mm" => a1mm(exp.as_ref().unwrap()),
        "a2" => a2(exp.as_ref().unwrap()),
        "a3" => a3(exp.as_ref().unwrap()),
        "a4" => a4(exp.as_ref().unwrap()),
        "a5" => a5(),
        "a6" => a6(exp.as_ref().unwrap()),
        "all" => {
            let exp = exp.as_ref().unwrap();
            e1(exp);
            f1();
            f2(exp, config.seed);
            a1(exp);
            a2(exp);
            a3(exp);
            a4(exp);
            a5();
            a6(exp);
            e2(full);
        }
        _ => usage(),
    }
}

/// E1 — §IV narrative: standard vs robust FP and detection rates.
///
/// Each family is shown at its own operating Δ ("the optimal case" of the
/// paper): the smallest FP rate among robust points whose mean detection
/// stays within 5 points of the standard monitor (the paper's "detection
/// rate ... remains roughly the same").
fn e1(exp: &Experiment) {
    println!("## E1 — false positives & OOD detection, standard vs robust (paper §IV)\n");
    let deltas = [0.0, 2.5e-4, 5e-4, 1e-3, 2.5e-3];

    let mut headers = vec!["monitor".to_string(), "FP rate".to_string()];
    for s in exp.ood_inputs().keys() {
        headers.push(format!("det {}", s.name()));
    }
    headers.push("coverage".into());
    headers.push("build".into());
    let mut t = Table::new(headers);
    let mut rows = Vec::new();
    let mut summary = Vec::new();

    for (family, kind) in Experiment::monitor_families() {
        let points = sweep::delta_sweep(exp, kind.clone(), &deltas, 0, Domain::Box);
        let best = sweep::pick_operating_point(&points, 0.05);
        let standard = exp.run_monitor(&format!("{family} (standard)"), kind.clone(), None);
        let robust = exp.run_monitor(
            &format!("{family} (robust Δ={})", best.delta),
            kind,
            Some(napmon_core::RobustConfig {
                delta: best.delta,
                kp: 0,
                domain: Domain::Box,
            }),
        );
        for row in [&standard, &robust] {
            let mut cells = vec![row.name.clone(), percent(row.fp_rate)];
            for v in row.detection.values() {
                cells.push(percent(*v));
            }
            cells.push(row.coverage.map_or("-".into(), |c| format!("{c:.2e}")));
            cells.push(seconds(row.build_seconds));
            t.row(cells);
        }
        let reduction = if standard.fp_rate > 0.0 {
            100.0 * (1.0 - robust.fp_rate / standard.fp_rate)
        } else {
            0.0
        };
        summary.push(format!(
            "{family:<16} Δ={:<7} FP {} -> {}  ({reduction:.0}% reduction; paper reports 80%)  mean detection {} -> {}",
            best.delta,
            percent(standard.fp_rate),
            percent(robust.fp_rate),
            percent(standard.mean_detection()),
            percent(robust.mean_detection()),
        ));
        rows.push(standard);
        rows.push(robust);
    }
    println!("{t}");
    for line in summary {
        println!("{line}");
    }
    println!();
    report::save_json(&rows, "results/e1.json").expect("write results/e1.json");
}

/// E2 — per-class monitoring on the glyph classifier (the DATE 2019
/// substrate), standard vs robust.
fn e2(full: bool) {
    use napmon_eval::shapes_experiment::{ShapesExperiment, ShapesExperimentConfig};
    println!("## E2 — per-class pattern monitoring on the glyph classifier\n");
    let config = if full {
        ShapesExperimentConfig::paper_scale()
    } else {
        ShapesExperimentConfig::default()
    };
    let exp = ShapesExperiment::prepare(config);
    println!("classifier accuracy: {}\n", percent(exp.accuracy()));
    let kind = pattern_family();
    let mut rows = Vec::new();
    rows.push(exp.run_per_class("per-class pattern (standard)", kind.clone(), None));
    for delta in [5e-4, 1e-3, 2e-3] {
        rows.push(exp.run_per_class(
            &format!("per-class pattern (robust Δ={delta})"),
            kind.clone(),
            Some(napmon_core::RobustConfig {
                delta,
                kp: 0,
                domain: Domain::Box,
            }),
        ));
    }
    let mut t = Table::new(vec![
        "monitor".into(),
        "FP rate".into(),
        "OOD detection".into(),
        "build".into(),
    ]);
    for row in &rows {
        t.row(vec![
            row.name.clone(),
            percent(row.fp_rate),
            percent(row.detection),
            seconds(row.build_seconds),
        ]);
    }
    println!("{t}");
    report::save_json(&rows, "results/e2.json").expect("write results/e2.json");
}

/// F1 — Figure 1: the robust 2-bit encoding table.
fn f1() {
    println!("## F1 — Figure 1: robust interval encoding of [l, u] vs thresholds c1 < c2 < c3\n");
    let net = napmon_bench::random_network(1, 1, &[1]);
    let fx = napmon_core::FeatureExtractor::new(&net, 1).unwrap();
    let m = napmon_core::IntervalPatternMonitor::empty(fx, 2, vec![vec![0.0, 1.0, 2.0]]).unwrap();
    let cases: [(&str, f64, f64); 10] = [
        ("l > c3", 2.5, 3.0),
        ("c2 <= l <= u <= c3", 1.2, 1.8),
        ("c1 < l <= u < c2", 0.3, 0.7),
        ("u <= c1", -1.0, -0.5),
        ("l <= c1 < u < c2", -0.5, 0.5),
        ("c1 < l < c2 <= u <= c3", 0.5, 1.5),
        ("c2 <= l <= c3 < u", 1.5, 2.5),
        ("l <= c1, c2 <= u <= c3", -0.5, 1.5),
        ("c1 < l < c2, c3 < u", 0.5, 2.5),
        ("l <= c1, c3 < u", -0.5, 2.5),
    ];
    let mut t = Table::new(vec![
        "relation of [l,u] to thresholds".into(),
        "symbols b_j".into(),
    ]);
    for (desc, l, u) in cases {
        let symbols: Vec<String> = m
            .symbol_range(0, l, u)
            .map(|s| format!("{s:02b}"))
            .collect();
        t.row(vec![desc.to_string(), format!("{{{}}}", symbols.join(","))]);
    }
    println!("{t}");
}

/// F2 — Figure 2: the staged OOD scenarios (ASCII renders + detections).
fn f2(exp: &Experiment, seed: u64) {
    println!("## F2 — Figure 2: synthetic out-of-ODD scenarios\n");
    let cfg = TrackConfig::default();
    let mut sampler = TrackSampler::new(cfg, seed ^ 0xF2);
    let (nominal, _, _) = sampler.sample();
    println!("nominal (in-ODD):\n{}", nominal.to_ascii());
    for scenario in OodScenario::PAPER {
        let corrupted = scenario.apply(&nominal, sampler.rng_mut());
        println!("{scenario}:\n{}", corrupted.to_ascii());
    }
    // Detection snapshot with the robust pattern monitor.
    let row = exp.run_monitor(
        "pattern (robust Δ=0.001)",
        pattern_family(),
        Some(napmon_core::RobustConfig {
            delta: 0.001,
            kp: 0,
            domain: Domain::Box,
        }),
    );
    let mut t = Table::new(vec!["scenario".into(), "detection rate".into()]);
    for (name, rate) in &row.detection {
        t.row(vec![name.clone(), percent(*rate)]);
    }
    t.row(vec![
        "(in-ODD false positives)".into(),
        percent(row.fp_rate),
    ]);
    println!("{t}");
    report::save_json(&row, "results/f2.json").expect("write results/f2.json");
}

/// A1 — Δ sweep: FP/detection trade-off.
fn a1(exp: &Experiment) {
    println!("## A1 — Δ sweep (robust pattern monitor, box domain, kp = 0)\n");
    let deltas = [0.0, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2e-2, 4e-2];
    let mut t = Table::new(vec![
        "Δ".into(),
        "FP rate".into(),
        "mean detection".into(),
        "coverage".into(),
    ]);
    let points = sweep::delta_sweep(exp, pattern_family(), &deltas, 0, Domain::Box);
    for p in &points {
        t.row(vec![
            format!("{}", p.delta),
            percent(p.fp_rate),
            percent(p.mean_detection),
            p.coverage.map_or("-".into(), |c| format!("{c:.2e}")),
        ]);
    }
    println!("{t}");
    report::save_json(&points, "results/a1.json").expect("write results/a1.json");
}

/// A1b — Δ sweep for the min-max family (whose standard FP baseline is the
/// closest twin of the paper's reported 0.62%).
fn a1mm(exp: &Experiment) {
    println!("## A1b — Δ sweep (robust min-max monitor, box domain, kp = 0)\n");
    let deltas = [0.0, 2.5e-4, 5e-4, 7.5e-4, 1e-3, 1.5e-3, 2.5e-3];
    let points = sweep::delta_sweep(exp, MonitorKind::min_max(), &deltas, 0, Domain::Box);
    let mut t = Table::new(vec!["Δ".into(), "FP rate".into(), "mean detection".into()]);
    for p in &points {
        t.row(vec![
            format!("{}", p.delta),
            percent(p.fp_rate),
            percent(p.mean_detection),
        ]);
    }
    println!("{t}");
    report::save_json(&points, "results/a1mm.json").expect("write results/a1mm.json");
}

/// A2 — perturbation boundary kp sweep.
fn a2(exp: &Experiment) {
    println!("## A2 — perturbation boundary kp (robust pattern monitor, Δ = 0.001)\n");
    let layer = exp.monitored_boundary();
    let kps: Vec<usize> = (0..layer).collect();
    let points = sweep::kp_sweep(exp, pattern_family(), &kps, 0.001, Domain::Box);
    let mut t = Table::new(vec![
        "kp".into(),
        "FP rate".into(),
        "mean detection".into(),
        "coverage".into(),
    ]);
    for p in &points {
        t.row(vec![
            p.kp.to_string(),
            percent(p.row.fp_rate),
            percent(p.row.mean_detection()),
            p.row.coverage.map_or("-".into(), |c| format!("{c:.2e}")),
        ]);
    }
    println!("{t}");
    report::save_json(&points, "results/a2.json").expect("write results/a2.json");
}

/// A3 — bits per neuron.
fn a3(exp: &Experiment) {
    println!("## A3 — bits per neuron (interval monitors, quantile thresholds, Δ = 0.001)\n");
    let points = sweep::bits_sweep(exp, &[1, 2, 3], 0.001, Domain::Box);
    let mut t = Table::new(vec![
        "bits".into(),
        "std FP".into(),
        "std detection".into(),
        "robust FP".into(),
        "robust detection".into(),
        "robust coverage".into(),
    ]);
    for p in &points {
        t.row(vec![
            p.bits.to_string(),
            percent(p.standard.fp_rate),
            percent(p.standard.mean_detection()),
            percent(p.robust.fp_rate),
            percent(p.robust.mean_detection()),
            p.robust.coverage.map_or("-".into(), |c| format!("{c:.2e}")),
        ]);
    }
    println!("{t}");
    report::save_json(&points, "results/a3.json").expect("write results/a3.json");
}

/// A4 — abstract domain comparison.
fn a4(exp: &Experiment) {
    println!("## A4 — abstract domains of Definition 1 (Δ = 0.001)\n");
    let rows = sweep::domain_comparison(exp, 0.001, 16);
    let mut t = Table::new(vec![
        "domain".into(),
        "mean bound width".into(),
        "µs / estimate".into(),
        "robust-pattern FP".into(),
    ]);
    for r in &rows {
        t.row(vec![
            r.domain.clone(),
            format!("{:.4}", r.mean_width),
            format!("{:.1}", r.micros_per_sample),
            r.fp_rate.map_or("- (build skipped)".into(), percent),
        ]);
    }
    println!("{t}");
    report::save_json(&rows, "results/a4.json").expect("write results/a4.json");
}

/// A5 — BDD vs hash-set storage for `word2set`.
fn a5() {
    println!("## A5 — pattern storage: BDD vs explicit hash-set (word2set blow-up)\n");
    let vars = 32;
    let cubes = 64;
    let mut t = Table::new(vec![
        "don't-cares per cube".into(),
        "BDD nodes".into(),
        "BDD ms".into(),
        "hash-set words".into(),
        "hash-set ms".into(),
    ]);
    for dc in [0usize, 4, 8, 12, 16, 20] {
        let mut rng = Prng::seed(55);
        let mut bdd = Bdd::new(vars);
        let mut root = Bdd::FALSE;
        let start = Instant::now();
        let mut cube_list = Vec::new();
        for _ in 0..cubes {
            let free = rng.sample_indices(vars, dc);
            let cube: Vec<Option<bool>> = (0..vars)
                .map(|i| {
                    if free.contains(&i) {
                        None
                    } else {
                        Some(rng.chance(0.5))
                    }
                })
                .collect();
            root = bdd.insert_cube(root, &cube);
            cube_list.push(cube);
        }
        let bdd_ms = start.elapsed().as_secs_f64() * 1e3;
        let (hs_words, hs_ms) = if dc <= 16 {
            let start = Instant::now();
            let mut set = std::collections::HashSet::new();
            for cube in &cube_list {
                let free: Vec<usize> = cube
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.is_none())
                    .map(|(i, _)| i)
                    .collect();
                for mask in 0u64..(1u64 << free.len()) {
                    let mut w: Vec<bool> = cube.iter().map(|l| l.unwrap_or(false)).collect();
                    for (bit, &pos) in free.iter().enumerate() {
                        w[pos] = (mask >> bit) & 1 == 1;
                    }
                    set.insert(w);
                }
            }
            (
                set.len().to_string(),
                format!("{:.2}", start.elapsed().as_secs_f64() * 1e3),
            )
        } else {
            (format!("~2^{dc}·{cubes} (skipped)"), "-".into())
        };
        t.row(vec![
            dc.to_string(),
            bdd.reachable_nodes(root).to_string(),
            format!("{bdd_ms:.2}"),
            hs_words,
            hs_ms,
        ]);
    }
    println!("{t}");
}

/// A6 — construction scaling and query latency.
fn a6(exp: &Experiment) {
    println!("## A6 — construction & query cost\n");
    let net = exp.network();
    let layer = exp.monitored_boundary();
    let data = &exp.train_data().inputs;
    let mut t = Table::new(vec![
        "|Dtr|".into(),
        "standard build".into(),
        "robust build (serial)".into(),
        "robust build (parallel)".into(),
    ]);
    for frac in [4usize, 2, 1] {
        let n = data.len() / frac;
        let slice = &data[..n];
        let time = |robust: bool, par: bool| -> f64 {
            let start = Instant::now();
            let mut spec = MonitorSpec::new(layer, MonitorKind::pattern()).parallel(par);
            if robust {
                spec = spec.robust(0.01, 0, Domain::Box);
            }
            let _ = spec.build(net, slice).unwrap();
            start.elapsed().as_secs_f64()
        };
        t.row(vec![
            n.to_string(),
            seconds(time(false, false)),
            seconds(time(true, false)),
            seconds(time(true, true)),
        ]);
    }
    println!("{t}");

    let row = exp.run_monitor("pattern", MonitorKind::pattern(), None);
    println!(
        "mean query latency (pattern monitor, incl. forward pass): {:.1} µs\n",
        row.query_nanos / 1e3
    );
}
