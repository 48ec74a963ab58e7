//! The three workloads: their fixed rates and limits, their seeded
//! fixtures, and the timed set-up that deploys a fixture behind the wire.

use napmon_absint::Domain;
use napmon_artifact::MonitorArtifact;
use napmon_bdd::BitWord;
use napmon_core::{
    ComposedMonitor, Monitor, MonitorKind, MonitorSpec, PatternBackend, PatternMonitor,
    QueryScratch, ThresholdPolicy, Verdict,
};
use napmon_data::ood::OodScenario;
use napmon_eval::{Experiment, RacetrackConfig};
use napmon_nn::{Activation, LayerSpec, Network};
use napmon_registry::{MonitorRegistry, RegistryConfig};
use napmon_serve::EngineConfig;
use napmon_store::StoreProvider;
use napmon_tensor::Prng;
use napmon_wire::{TenantRoute, WireConfig, WireServer};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// Engine shards per mounted tenant, and the closed loop's connection
/// count: both fixed at the two cores of the reference box, never read
/// from the machine, so parent and change run the same shape.
pub const SHARDS: usize = 2;
/// Idle connections the traced ladder attaches for `wire.rtt_herd_ns`.
pub const HERD: usize = 1024;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    PaperMonitor,
    WireSmallHerd,
    StoreAbsorbMix,
}

/// A workload's traffic shape and its fixed open-loop figures. Rates are
/// frames per second; they were chosen once from the capacity of the
/// commit that introduced the benchmark and are never derived at run
/// time.
pub struct Plan {
    pub frame_inputs: usize,
    /// Open-loop rate at which `p50_us` / `p99_us` are measured.
    pub ref_rate: f64,
    /// The rates tried for `sustained_rps`.
    pub ladder: Ladder,
    /// The `p99_us` limit a ladder rung must meet.
    pub p99_limit_us: f64,
    /// One `Absorb` frame after every `absorb_every` query frames (0: none).
    pub absorb_every: usize,
    /// Idle connections held open for the whole run.
    pub herd: usize,
    /// Hamming tolerance of the served pattern monitor.
    pub tau: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

/// A fixed ladder of open-loop rates in frames per second: `low`, then
/// each rung [`LADDER_RATIO`] times the one below, up to `high`. It spans
/// the host's speed swings with room to spare. The search for
/// `sustained_rps` starts at `entry`, a rung near the knee at the commit
/// that added the benchmark.
pub struct Ladder {
    pub low: f64,
    pub high: f64,
    pub entry: f64,
}

/// Ratio of neighbouring ladder rungs: the resolution of `sustained_rps`.
pub const LADDER_RATIO: f64 = 1.04;

impl Ladder {
    pub fn rungs(&self) -> Vec<f64> {
        std::iter::successors(Some(self.low), |r| Some(r * LADDER_RATIO))
            .take_while(|&r| r <= self.high)
            .collect()
    }
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "paper_monitor" => Some(Self::PaperMonitor),
            "wire_small_herd" => Some(Self::WireSmallHerd),
            "store_absorb_mix" => Some(Self::StoreAbsorbMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::PaperMonitor => "paper_monitor",
            Self::WireSmallHerd => "wire_small_herd",
            Self::StoreAbsorbMix => "store_absorb_mix",
        }
    }

    pub fn plan(self) -> Plan {
        match self {
            Self::PaperMonitor => Plan {
                frame_inputs: 512,
                ref_rate: 100.0,
                ladder: Ladder {
                    low: 80.0,
                    high: 640.0,
                    entry: 200.0,
                },
                p99_limit_us: 100_000.0,
                absorb_every: 0,
                herd: 0,
                tau: 0,
                setup_reps: 5,
            },
            Self::WireSmallHerd => Plan {
                frame_inputs: 8,
                ref_rate: 2_000.0,
                ladder: Ladder {
                    low: 2_000.0,
                    high: 32_000.0,
                    entry: 8_000.0,
                },
                p99_limit_us: 50_000.0,
                absorb_every: 0,
                herd: HERD,
                tau: 0,
                setup_reps: 15,
            },
            Self::StoreAbsorbMix => Plan {
                frame_inputs: 64,
                ref_rate: 80.0,
                ladder: Ladder {
                    low: 120.0,
                    high: 960.0,
                    entry: 300.0,
                },
                p99_limit_us: 100_000.0,
                absorb_every: 9,
                herd: 0,
                tau: 2,
                setup_reps: 7,
            },
        }
    }
}

/// One tenant of the registry: its route and the training slice its
/// monitor (and optional shadow candidate) is built from.
pub struct TenantPlan {
    pub id: &'static str,
    pub train: std::ops::Range<usize>,
    pub shadow_train: Option<std::ops::Range<usize>>,
}

/// Everything generated from the seed before set-up starts: network,
/// training set, monitor spec and traffic. The program sees only these.
pub struct Fixture {
    pub net: Network,
    pub train: Vec<Vec<f64>>,
    pub spec: MonitorSpec,
    pub tenants: Vec<TenantPlan>,
    /// Query frames, cycled in order; frame `i` goes to tenant
    /// `i % tenants.len()`.
    pub frames: Vec<Vec<Vec<f64>>>,
    /// Absorb candidates (store workload only), before the set-up drops
    /// those whose pattern lies within `tau` of a query pattern.
    pub absorbs: Vec<Vec<f64>>,
}

impl Fixture {
    pub fn generate(workload: Workload, seed: u64) -> Self {
        match workload {
            Workload::PaperMonitor => paper_fixture(seed),
            Workload::WireSmallHerd => herd_fixture(seed),
            Workload::StoreAbsorbMix => store_fixture(seed),
        }
    }

    pub fn query_inputs(&self) -> usize {
        self.frames.iter().map(Vec::len).sum()
    }
}

/// The racetrack perception network at `paper_tables`' reduced scale,
/// monitored by the robust 1-bit pattern monitor. Frames are half
/// held-out in-ODD images, half OOD-scenario images.
fn paper_fixture(seed: u64) -> Fixture {
    let exp = Experiment::prepare(RacetrackConfig {
        seed,
        train_size: 600,
        test_size: 800,
        ood_size: 200,
        hidden: vec![48, 24],
        epochs: 12,
        scenarios: OodScenario::ALL.to_vec(),
        ..RacetrackConfig::default()
    });
    let layer = exp.monitored_boundary();
    let spec = MonitorSpec::new(
        layer,
        MonitorKind::pattern_with(ThresholdPolicy::Mean, PatternBackend::Bdd, 0),
    )
    .robust(0.001, 0, Domain::Box);
    let held_out = &exp.test_data().inputs;
    let ood: Vec<&Vec<f64>> = exp.ood_inputs().values().flatten().collect();
    let mut rng = Prng::seed(seed ^ 0xF2A3);
    let frames = (0..8)
        .map(|_| {
            let mut frame: Vec<Vec<f64>> = (0..512)
                .map(|i| {
                    if i < 256 {
                        held_out[rng.index(held_out.len())].clone()
                    } else {
                        ood[rng.index(ood.len())].clone()
                    }
                })
                .collect();
            rng.shuffle(&mut frame);
            frame
        })
        .collect();
    Fixture {
        net: exp.network().clone(),
        train: exp.train_data().inputs.clone(),
        spec,
        tenants: vec![TenantPlan {
            id: "racetrack",
            train: 0..600,
            shadow_train: None,
        }],
        frames,
        absorbs: Vec::new(),
    }
}

/// A seeded 16→64→2 network with a standard sign-pattern monitor on its
/// post-ReLU layer, mounted as two tenants (the second with a shadow
/// candidate built on half the data). Traffic replays training inputs,
/// so membership is exact and no verdict warns.
fn herd_fixture(seed: u64) -> Fixture {
    let net = Network::seeded(
        seed,
        16,
        &[
            LayerSpec::dense(64, Activation::Relu),
            LayerSpec::dense(2, Activation::Identity),
        ],
    );
    let mut rng = Prng::seed(seed ^ 0x4E2D);
    let train: Vec<Vec<f64>> = (0..256).map(|_| rng.uniform_vec(16, -1.0, 1.0)).collect();
    let frames = (0..64)
        .map(|_| {
            (0..8)
                .map(|_| train[rng.index(train.len())].clone())
                .collect()
        })
        .collect();
    Fixture {
        net,
        train,
        spec: MonitorSpec::new(2, MonitorKind::pattern()),
        tenants: vec![
            TenantPlan {
                id: "alpha",
                train: 0..256,
                shadow_train: None,
            },
            TenantPlan {
                id: "beta",
                train: 0..256,
                shadow_train: Some(0..128),
            },
        ],
        frames,
        absorbs: Vec::new(),
    }
}

/// Training inputs for the store workload: enough for about 50K distinct
/// 64-bit patterns.
const STORE_TRAIN: usize = 50_000;
/// Words per sealed segment: the training patterns fill three segments and
/// part of the tail, so reads cross both, and absorbs seal more.
const STORE_SEGMENT: usize = 1 << 14;
/// Absorb candidates generated per run (more than any phase plan sends).
const STORE_ABSORBS: usize = 48_000;

/// A store-backed sign-pattern monitor on the 64 pre-activations of a
/// seeded 16→64→2 network, Hamming tolerance 2. Query frames mix replayed
/// training inputs with fresh in-distribution and wider-range inputs;
/// absorb frames carry fresh inputs.
fn store_fixture(seed: u64) -> Fixture {
    let net = Network::seeded(
        seed,
        16,
        &[
            LayerSpec::dense(64, Activation::Relu),
            LayerSpec::dense(2, Activation::Identity),
        ],
    );
    let mut rng = Prng::seed(seed ^ 0x57A3);
    let train: Vec<Vec<f64>> = (0..STORE_TRAIN)
        .map(|_| rng.uniform_vec(16, -1.0, 1.0))
        .collect();
    let frames = (0..64)
        .map(|_| {
            (0..64)
                .map(|i| match i % 4 {
                    0 => train[rng.index(train.len())].clone(),
                    1 | 2 => rng.uniform_vec(16, -1.0, 1.0),
                    _ => rng.uniform_vec(16, -2.0, 2.0),
                })
                .collect()
        })
        .collect();
    let absorbs = (0..STORE_ABSORBS)
        .map(|_| rng.uniform_vec(16, -1.0, 1.0))
        .collect();
    Fixture {
        net,
        train,
        spec: MonitorSpec::new(
            1,
            MonitorKind::pattern_with(ThresholdPolicy::Sign, PatternBackend::Store, 2),
        ),
        tenants: vec![TenantPlan {
            id: "store",
            train: 0..STORE_TRAIN,
            shadow_train: None,
        }],
        frames,
        absorbs,
    }
}

/// Wall-clock of each timed set-up step, in seconds.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    pub build: f64,
    pub encode: f64,
    pub decode: f64,
    pub mount: f64,
    pub bind: f64,
    pub artifact_bytes: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.build + self.encode + self.decode + self.mount + self.bind
    }
}

/// One served tenant and the in-process reference decoded from its
/// artifact.
pub struct Tenant {
    pub route: TenantRoute,
    pub reference: ComposedMonitor,
}

/// A deployed fixture: registry, bound server, references, and the
/// expected verdicts of every query frame.
pub struct Deployment {
    pub registry: Arc<MonitorRegistry>,
    pub server: WireServer,
    pub tenants: Vec<Tenant>,
    pub expected: Vec<Vec<Verdict>>,
    /// Absorb inputs whose patterns lie further than `tau` from every
    /// query pattern, so absorbing them cannot change a query verdict.
    pub absorbs: Vec<Vec<f64>>,
    pub times: SetupTimes,
}

impl Deployment {
    pub fn tenant_of(&self, frame: usize) -> &Tenant {
        &self.tenants[frame % self.tenants.len()]
    }

    pub fn shutdown(self) {
        self.server.shutdown_registry();
    }
}

/// The monitor's single pattern member (every workload serves one).
pub fn pattern_member(monitor: &ComposedMonitor) -> &PatternMonitor {
    monitor
        .as_single()
        .and_then(|m| m.as_pattern())
        .expect("every workload serves a single pattern monitor")
}

fn wire_config() -> WireConfig {
    WireConfig::default()
        .with_max_connections(HERD + 64)
        // The idle herd must stay attached for the whole run.
        .with_idle_timeout(Duration::from_secs(3600))
        .with_dispatch_threads(SHARDS)
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed().as_secs_f64();
    out
}

/// Deploys the fixture: monitor build, artifact JSON encode and decode,
/// registry mount and wire bind, each timed. With `reference`, also
/// decodes an untimed reference copy of each artifact and computes the
/// expected verdict of every query frame.
pub fn deploy(
    fx: &Fixture,
    plan: &Plan,
    store_root: &Path,
    reference: bool,
) -> Result<Deployment, Error> {
    let mut t = SetupTimes::default();
    let registry = Arc::new(MonitorRegistry::new(
        RegistryConfig::with_engine(EngineConfig::with_shards(SHARDS)).store_root(store_root),
    ));
    let mut tenants = Vec::new();
    let mut expected = Vec::new();
    let mut absorbs = Vec::new();
    let store_backed = !fx.absorbs.is_empty();
    for tp in &fx.tenants {
        let train = &fx.train[tp.train.clone()];
        let json = if store_backed {
            let dir = registry.tenant_store_dir(tp.id, 1)?;
            let monitor = timed(&mut t.build, || {
                let mut provider = StoreProvider::new(&dir).segment_capacity(STORE_SEGMENT);
                fx.spec.build_with_sources(&fx.net, train, &mut provider)
            })?;
            timed(&mut t.encode, || {
                MonitorArtifact::from_parts(fx.spec.clone(), fx.net.clone(), monitor, train.len())?
                    .to_json_string()
            })?
        } else {
            let monitor = timed(&mut t.build, || fx.spec.build(&fx.net, train))?;
            timed(&mut t.encode, || {
                MonitorArtifact::from_parts(fx.spec.clone(), fx.net.clone(), monitor, train.len())?
                    .to_json_string()
            })?
        };
        t.artifact_bytes += json.len() as f64;
        let artifact = timed(&mut t.decode, || MonitorArtifact::from_json_str(&json))?;
        let route = TenantRoute::active(tp.id);
        if store_backed {
            // The decoded artifact holds the store's exclusive lock: take
            // the reference figures from it, then release it for the mount.
            if reference {
                let (_, monitor) = artifact.into_parts();
                expected = expected_verdicts(fx, &[&monitor]);
                absorbs = far_absorbs(fx, &monitor, plan.tau);
            } else {
                drop(artifact);
            }
            timed(&mut t.mount, || {
                registry.mount_from_store(tp.id, 1, &fx.spec, fx.net.clone())
            })?;
            if reference {
                let reference = registry.resolve(tp.id, 1)?.engine().monitor().clone();
                tenants.push(Tenant { route, reference });
            }
        } else {
            timed(&mut t.mount, || registry.mount(tp.id, 1, artifact))?;
            if let Some(range) = &tp.shadow_train {
                let shadow_train = &fx.train[range.clone()];
                let monitor = timed(&mut t.build, || fx.spec.build(&fx.net, shadow_train))?;
                let json = timed(&mut t.encode, || {
                    MonitorArtifact::from_parts(
                        fx.spec.clone(),
                        fx.net.clone(),
                        monitor,
                        shadow_train.len(),
                    )?
                    .to_json_string()
                })?;
                t.artifact_bytes += json.len() as f64;
                let artifact = timed(&mut t.decode, || MonitorArtifact::from_json_str(&json))?;
                timed(&mut t.mount, || registry.mount_shadow(tp.id, 2, artifact))?;
            }
            if reference {
                let (_, monitor) = MonitorArtifact::from_json_str(&json)?.into_parts();
                tenants.push(Tenant {
                    route,
                    reference: monitor,
                });
            }
        }
    }
    if reference && !store_backed {
        let monitors: Vec<&ComposedMonitor> = tenants.iter().map(|t| &t.reference).collect();
        expected = expected_verdicts(fx, &monitors);
    }
    let config = wire_config();
    let server = timed(&mut t.bind, || {
        WireServer::builder(Arc::clone(&registry))
            .config(config)
            .bind("127.0.0.1:0")
    })?;
    Ok(Deployment {
        registry,
        server,
        tenants,
        expected,
        absorbs,
        times: t,
    })
}

/// Expected verdicts of every query frame; frame `i` is served by tenant
/// `i % monitors.len()`.
fn expected_verdicts(fx: &Fixture, monitors: &[&ComposedMonitor]) -> Vec<Vec<Verdict>> {
    let mut scratch = QueryScratch::new();
    fx.frames
        .iter()
        .enumerate()
        .map(|(i, frame)| {
            let mut out = Vec::new();
            monitors[i % monitors.len()]
                .verdict_batch_scratch(&fx.net, frame, &mut scratch, &mut out)
                .expect("fixture inputs match the network");
            out
        })
        .collect()
}

/// The pattern word `monitor` abstracts `input` to.
pub fn pattern_of(fx: &Fixture, monitor: &ComposedMonitor, input: &[f64]) -> BitWord {
    let features = monitor
        .extractor()
        .features(&fx.net, input)
        .expect("fixture inputs match the network");
    pattern_member(monitor).abstract_bitword(&features)
}

/// The absorb candidates whose pattern is further than `tau` from every
/// query pattern: absorbing them never flips a query verdict, so the
/// expected verdicts stay exact while the store grows.
fn far_absorbs(fx: &Fixture, monitor: &ComposedMonitor, tau: usize) -> Vec<Vec<f64>> {
    let queries: Vec<BitWord> = fx
        .frames
        .iter()
        .flatten()
        .map(|x| pattern_of(fx, monitor, x))
        .collect();
    fx.absorbs
        .iter()
        .filter(|x| {
            let word = pattern_of(fx, monitor, x);
            queries.iter().all(|q| q.hamming(&word) as usize > tau)
        })
        .cloned()
        .collect()
}

/// A scratch directory for one set-up's stores inside `root`.
pub fn rep_dir(root: &Path, rep: usize) -> PathBuf {
    root.join(format!("setup-{rep}"))
}
