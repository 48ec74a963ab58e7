//! The napmon serving benchmark: one process drives the whole stack —
//! wire client → reactor/worker → registry → engine shard → monitor
//! (forward pass, abstraction, pattern membership) — on one of three
//! seeded workloads, and checks every verdict against an in-process
//! reference.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_monitor --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! per-layer ladder instead. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. A human
//! report goes to standard error.

mod ladder;
mod load;
mod stats;
mod workload;

use load::{Phase, Traffic};
use stats::{median, peak_rss_mb, quantile};
use std::path::PathBuf;
use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};
use workload::{deploy, rep_dir, Deployment, Error, Fixture, Plan, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <paper_monitor|wire_small_herd|store_absorb_mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse() -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
                "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds
                .filter(|s: &f64| *s > 0.0)
                .ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// Named metrics in output order, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn all_finite(&self) -> bool {
        self.0.iter().all(|(_, v, _)| v.is_finite())
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Frames sent and failed, and whether every check held, over a run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

impl Tally {
    /// Folds one phase in, printing its counts.
    pub fn phase(&mut self, name: &str, p: &Phase) {
        self.attempted += p.sent;
        self.failed += p.failed;
        if p.mismatched > 0 {
            self.correct = false;
        }
        eprintln!(
            "  {name:<22} sent {:>7}  ok {:>7}  failed {:>4}  mismatched {:>4}  {:>10.0} inputs/s  \
             query p50 {:>9.1} µs p99 {:>9.1} µs (n={})  absorb p50 {:>9.1} µs p99 {:>9.1} µs (n={})",
            p.sent,
            p.ok,
            p.failed,
            p.mismatched,
            p.inputs_per_s(),
            p.query.p50(),
            p.query.p99(),
            p.query.len(),
            p.absorb.p50(),
            p.absorb.p99(),
            p.absorb.len(),
        );
    }
}

/// The run's scratch directory for pattern stores, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Everything set up for a run: the fixture, the deployment that serves
/// it, the pre-encoded traffic, and the set-up timings of every repeat.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub plan: Plan,
    pub fx: Fixture,
    pub dep: Deployment,
    pub traffic: Traffic,
    pub setups: Vec<workload::SetupTimes>,
    pub seq: AtomicUsize,
    /// Scratch directory for pattern stores, removed when the run ends.
    pub work_dir: PathBuf,
}

impl Run {
    pub fn secs(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// Median set-up time of step `f` across the repeats.
    pub fn setup_median(&self, f: impl Fn(&workload::SetupTimes) -> f64) -> f64 {
        median(&self.setups.iter().map(f).collect::<Vec<_>>())
    }
}

/// Dials `n` idle connections and leaves them attached.
pub fn dial_herd(addr: std::net::SocketAddr, n: usize) -> Vec<std::net::TcpStream> {
    let mut herd = Vec::with_capacity(n);
    while herd.len() < n {
        match std::net::TcpStream::connect(addr) {
            Ok(stream) => herd.push(stream),
            // A full accept backlog refuses the dial; pace and retry.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    herd
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((tally, metrics)) => {
            let correct = tally.correct && metrics.all_finite();
            println!(
                "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                tally.attempted.max(1),
                tally.failed,
                metrics.json()
            );
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<(Tally, Metrics), Error> {
    let name = args.workload.name();
    let work =
        WorkDir(PathBuf::from(".perfbench_work").join(format!("{name}-{}", std::process::id())));
    let plan = args.workload.plan();
    let t = Instant::now();
    let fx = Fixture::generate(args.workload, args.seed);
    eprintln!(
        "{name} seed {}: fixture in {:.2} s ({} query frames, {} query inputs)",
        args.seed,
        t.elapsed().as_secs_f64(),
        fx.frames.len(),
        fx.query_inputs()
    );

    // Set up several times and keep the last deployment; `setup_s` is the
    // median, so one slow repeat does not move it.
    let mut setups = Vec::new();
    let mut dep = None;
    for rep in 0..plan.setup_reps {
        let last = rep + 1 == plan.setup_reps;
        let d = deploy(&fx, &plan, &rep_dir(&work.0, rep), last)?;
        setups.push(d.times);
        if last {
            dep = Some(d);
        } else {
            d.shutdown();
        }
    }
    let dep = dep.expect("at least one set-up");
    let traffic = Traffic::new(&fx, &plan, &dep)?;
    let run = Run {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        plan,
        fx,
        dep,
        traffic,
        setups,
        seq: AtomicUsize::new(0),
        work_dir: work.0.clone(),
    };
    eprintln!(
        "  set-up {:.4} s median of {} (build {:.4}, encode {:.4}, decode {:.4}, mount {:.4}, bind {:.4}); \
         {} artifact bytes; {} absorb frames",
        run.setup_median(workload::SetupTimes::total),
        run.setups.len(),
        run.setup_median(|s| s.build),
        run.setup_median(|s| s.encode),
        run.setup_median(|s| s.decode),
        run.setup_median(|s| s.mount),
        run.setup_median(|s| s.bind),
        run.setup_median(|s| s.artifact_bytes),
        run.dep.absorbs.len() / run.plan.frame_inputs,
    );
    eprintln!(
        "    set-up per repeat (s): {}",
        run.setups
            .iter()
            .map(|s| format!("{:.4}", s.total()))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let mut tally = Tally {
        correct: true,
        ..Tally::default()
    };
    let metrics = if args.trace {
        ladder::traced(&run, &mut tally)?
    } else {
        untraced(&run, &mut tally)?
    };
    let Run { dep, .. } = run;
    dep.shutdown();
    drop(work);
    Ok((tally, metrics))
}

/// The end-to-end run: closed-loop throughput, open-loop latency at the
/// reference rate, then the rate ladder.
fn untraced(run: &Run, tally: &mut Tally) -> Result<Metrics, Error> {
    let plan = &run.plan;
    let herd = dial_herd(run.dep.server.local_addr(), plan.herd);
    let load = load_phases(run, tally, 0.53)?;
    // Memory while serving at the workload's rates, before the ladder
    // overloads the server on purpose.
    let rss = peak_rss_mb();

    // The rungs share a fixed budget, so the time a missed rung's backlog
    // takes to drain comes out of the ladder rather than lengthening the
    // run.
    let mut stairs = Staircase::new(&plan.ladder);
    let ladder = Instant::now();
    let rung = run.secs(0.45 / RUNGS as f64);
    while ladder.elapsed() + rung <= run.secs(0.45) {
        let pass = try_rung(run, tally, stairs.rate(), rung)?;
        stairs.record(pass);
    }
    drop(herd);
    post_checks(run, tally)?;

    let mut m = Metrics::default();
    m.put(
        "setup_s",
        run.setup_median(workload::SetupTimes::total),
        "s",
    );
    m.put("throughput_rps", load.throughput, "inputs/s");
    m.put("p50_us", load.reference.query.p50(), "us");
    m.put(
        "sustained_rps",
        stairs.sustained() * plan.frame_inputs as f64,
        "inputs/s",
    );
    m.put("peak_rss_mb", rss, "MiB");
    Ok(m)
}

/// Ladder rungs the end-to-end run tries when no rung's backlog has to
/// drain.
const RUNGS: usize = 24;

/// Runs the open loop at `rate` frames/s for `duration` and judges it
/// against the workload's limit: whether it met the limit.
fn try_rung(run: &Run, tally: &mut Tally, rate: f64, duration: Duration) -> Result<bool, Error> {
    let plan = &run.plan;
    let addr = run.dep.server.local_addr();
    let p = load::open_loop(addr, &run.traffic, &run.seq, rate, duration)?;
    tally.phase(&format!("rung {rate} frames/s"), &p);
    let backlog_limit = rate * plan.p99_limit_us / 1e6 + load::CLIENTS as f64;
    // A rung holds a few hundred frames, too few for its p99 to be more
    // than its largest sample, and the reference VM stalls for 100 ms
    // or more at times. Judge the rung's p90 (or the highest percentile
    // with ten samples beyond it), so one stall cannot decide the rung.
    let q = (1.0 - 10.0 / p.query.len() as f64).clamp(0.5, 0.9);
    let tail = quantile(&p.query.us, q);
    let pass =
        p.failed == 0 && tail <= plan.p99_limit_us && (p.backlog_at_end as f64) <= backlog_limit;
    eprintln!(
        "    {} (p{:.1} {tail:.0} µs; backlog at end {} frames, limit {backlog_limit:.0})",
        if pass {
            "meets the limit"
        } else {
            "misses the limit"
        },
        q * 100.0,
        p.backlog_at_end
    );
    Ok(pass)
}

/// An up-down staircase over a fixed ladder of rates. It starts at the
/// ladder's entry rung and moves up after a rung that meets the limit and
/// down after one that misses, by a stride of four rungs that halves at
/// each change of direction, down to one. From then on it hovers around
/// the rate at which a rung meets the limit half the time, so one stall or
/// one lucky rung moves the result by at most a step.
struct Staircase {
    rungs: Vec<f64>,
    at: usize,
    stride: usize,
    rising: Option<bool>,
    /// Rates tried once the stride is down to one rung.
    settled: Vec<f64>,
    /// The highest rate that met the limit.
    best: f64,
}

impl Staircase {
    fn new(ladder: &workload::Ladder) -> Self {
        let rungs = ladder.rungs();
        let at = rungs
            .iter()
            .position(|&r| r >= ladder.entry)
            .unwrap_or(rungs.len() - 1);
        Self {
            rungs,
            at,
            stride: 4,
            rising: None,
            settled: Vec::new(),
            best: 0.0,
        }
    }

    fn rate(&self) -> f64 {
        self.rungs[self.at]
    }

    fn record(&mut self, pass: bool) {
        if self.stride == 1 {
            self.settled.push(self.rate());
        }
        if pass {
            self.best = self.best.max(self.rate());
        }
        if self.rising.is_some_and(|rising| rising != pass) {
            self.stride = (self.stride / 2).max(1);
        }
        self.rising = Some(pass);
        self.at = if pass {
            (self.at + self.stride).min(self.rungs.len() - 1)
        } else {
            self.at.saturating_sub(self.stride)
        };
    }

    /// The sustained rate in frames/s: the mean rate tried once the
    /// stride is down to one rung, or the highest rate that met the limit
    /// when the staircase never settled (0 when none did).
    fn sustained(&self) -> f64 {
        if self.settled.is_empty() {
            self.best
        } else {
            self.settled.iter().sum::<f64>() / self.settled.len() as f64
        }
    }
}

/// What the shared load phases measured.
pub struct Load {
    pub throughput: f64,
    /// Median over rounds of each round's reference-rate p99.
    pub p99: f64,
    pub closed: Phase,
    pub reference: Phase,
}

/// Rounds the closed loop and the reference open loop alternate in, so
/// both sample the whole run rather than one stretch of it.
const ROUNDS: usize = 5;

/// Warm-up, then [`ROUNDS`] alternations of the closed loop and the open
/// loop at the reference rate, each phase's rounds pooled. Throughput is
/// the median over half-second windows of the closed loop. The reference
/// phase marks the run invalid when the generator itself ran late by more
/// than the workload's latency limit.
pub fn load_phases(run: &Run, tally: &mut Tally, share: f64) -> Result<Load, Error> {
    let addr = run.dep.server.local_addr();
    let warm = load::closed_loop(addr, &run.traffic, &run.seq, run.secs(0.02), false)?;
    tally.phase("warm-up", &warm);
    let mut closed = Phase::default();
    let mut reference = Phase::default();
    let mut rates = Vec::new();
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    for _ in 0..ROUNDS {
        let c = load::closed_loop(
            addr,
            &run.traffic,
            &run.seq,
            run.secs(share * 0.3 / ROUNDS as f64),
            false,
        )?;
        rates.extend(c.window_rates((c.elapsed_s / 0.5).round().max(1.0) as usize));
        closed.merge(c);
        let r = load::open_loop(
            addr,
            &run.traffic,
            &run.seq,
            run.plan.ref_rate,
            run.secs(share * 0.7 / ROUNDS as f64),
        )?;
        p50s.push(r.query.p50());
        p99s.push(r.query.p99());
        reference.merge(r);
    }
    tally.phase("closed loop", &closed);
    tally.phase(
        &format!("reference {} frames/s", run.plan.ref_rate),
        &reference,
    );
    let per_round = |values: &[f64]| {
        values
            .iter()
            .map(|v| format!("{v:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "    reference p50 / p99 per round (µs): {} / {}",
        per_round(&p50s),
        per_round(&p99s)
    );
    let lag = reference.lag.p99();
    eprintln!(
        "    generator lag p99 {lag:.1} µs (n={}), backlog at end {} frames",
        reference.lag.len(),
        reference.backlog_at_end
    );
    if lag > run.plan.p99_limit_us {
        eprintln!("    INVALID: the generator fell behind its schedule");
        tally.correct = false;
    }
    Ok(Load {
        throughput: median(&rates),
        p99: median(&p99s),
        closed,
        reference,
    })
}

/// After the traffic: on a store-backed workload, every absorbed input
/// and every training input must be admitted without a warning.
pub fn post_checks(run: &Run, tally: &mut Tally) -> Result<(), Error> {
    if run.plan.absorb_every == 0 {
        return Ok(());
    }
    let absorbed = &run.dep.absorbs[..run.traffic.absorbed_frames() * run.plan.frame_inputs];
    let mut client = napmon_wire::WireClient::connect(run.dep.server.local_addr())?
        .with_route(run.dep.tenants[0].route.clone());
    let mut warned = 0usize;
    let mut checked = 0usize;
    for inputs in [absorbed, &run.fx.train[..]] {
        for chunk in inputs.chunks(4096) {
            warned += client
                .query_batch(chunk)?
                .iter()
                .filter(|v| v.warning)
                .count();
            checked += chunk.len();
        }
    }
    eprintln!(
        "  post-check: {} absorbed + {} training inputs, {warned} warned",
        absorbed.len(),
        run.fx.train.len()
    );
    tally.attempted += checked.div_ceil(64) as u64;
    if warned > 0 {
        tally.correct = false;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rungs 100, 104, 108.16, … against a server that sustains up to 150.
    #[test]
    fn staircase_settles_between_the_last_rung_met_and_the_first_missed() {
        let ladder = workload::Ladder {
            low: 100.0,
            high: 200.0,
            entry: 120.0,
        };
        let rungs = ladder.rungs();
        assert_eq!(rungs.len(), 18);
        assert_eq!(rungs[5], 100.0 * workload::LADDER_RATIO.powi(5));
        let mut stairs = Staircase::new(&ladder);
        let mut tried = Vec::new();
        for _ in 0..13 {
            tried.push(rungs.iter().position(|&r| r == stairs.rate()).unwrap());
            stairs.record(stairs.rate() <= 150.0);
        }
        // Rung 10 (148.02) is the last that meets the limit, 11 the first
        // that misses.
        assert_eq!(&tried[..7], [5, 9, 13, 11, 9, 10, 11]);
        assert_eq!(stairs.best, rungs[10]);
        assert!((stairs.sustained() - (rungs[10] + rungs[11]) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn staircase_that_never_settles_reports_its_best_rung() {
        let ladder = workload::Ladder {
            low: 100.0,
            high: 200.0,
            entry: 120.0,
        };
        let mut stairs = Staircase::new(&ladder);
        for _ in 0..6 {
            stairs.record(true);
        }
        assert_eq!(stairs.sustained(), *ladder.rungs().last().unwrap());
        let mut stairs = Staircase::new(&ladder);
        for _ in 0..6 {
            stairs.record(false);
        }
        assert_eq!(stairs.sustained(), 0.0);
    }
}
