//! CI gate for the committed golden artifacts.
//!
//! Loads each golden file under `tests/` at the workspace root (the
//! single-boundary `golden_artifact.json` plus the multi-layer and
//! per-class composites) with the full typed validation path
//! (`MonitorArtifact::load_json`), rebuilds the same deterministic fixture
//! from source, and fails (non-zero exit) unless
//!
//! 1. every committed file still loads under the current
//!    `FORMAT_VERSION` and validation rules, and
//! 2. each loaded monitor's verdicts on the golden probe corpus are
//!    **bit-identical** to the freshly built monitor's.
//!
//! Together these catch both accidental format breaks (a schema change
//! that silently orphans deployed artifacts) and semantic drift (a
//! construction change that would make reloaded monitors disagree with
//! newly built ones).
//!
//! After an *intentional* format bump, regenerate the files:
//!
//! ```text
//! NAPMON_REGEN_GOLDEN=1 cargo run -p napmon-bench --bin validate_artifact
//! ```

use napmon_bench::golden;
use napmon_core::Monitor;

fn golden_path(file: &str) -> String {
    format!("{}/../../tests/{file}", env!("CARGO_MANIFEST_DIR"))
}

fn main() {
    // Both compatibility surfaces, on the record in every CI log: the
    // artifact schema this build reads/writes, and the full set of wire
    // protocol versions it accepts. The set is read from the wire crate
    // rather than hardcoded — a hardcoded "v1" survived the v2 bump here
    // once already — and the rejected legacy epoch is named so a log
    // reader knows what v1 peers will be told.
    let supported = napmon_wire::SUPPORTED_WIRE_PROTOCOL_VERSIONS
        .iter()
        .map(|v| format!("v{v}"))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "compatibility: artifact format v{}, wire protocol versions [{supported}] \
         (v{} peers get a typed UnsupportedVersion rejection)",
        napmon_artifact::FORMAT_VERSION,
        napmon_wire::LEGACY_WIRE_PROTOCOL_VERSION,
    );
    let regen = std::env::var_os("NAPMON_REGEN_GOLDEN").is_some();
    for (file, spec) in golden::fixtures() {
        let path = golden_path(file);
        let fresh = golden::build(spec);
        if regen {
            fresh.save_json(&path).expect("write golden artifact");
            println!("regenerated {path}");
            println!("  {fresh}");
        } else {
            check(&path, &fresh);
        }
    }
}

/// Loads the committed file at `path` and checks it against `fresh`.
fn check(path: &str, fresh: &napmon_artifact::MonitorArtifact) {
    let loaded = napmon_artifact::MonitorArtifact::load_json(path).unwrap_or_else(|e| {
        panic!(
            "golden artifact at {path} no longer loads: {e}\n\
             (if the format changed intentionally, bump FORMAT_VERSION and \
             regenerate with NAPMON_REGEN_GOLDEN=1)"
        )
    });

    assert_eq!(
        loaded.spec(),
        fresh.spec(),
        "golden spec drifted from the fixture ({path})"
    );
    assert_eq!(
        loaded.network(),
        fresh.network(),
        "golden network drifted from the fixture ({path})"
    );
    assert_eq!(
        loaded.stats(),
        fresh.stats(),
        "golden build stats drifted from the fixture ({path})"
    );

    let probes = golden::probes();
    let expected = fresh
        .monitor()
        .query_batch(fresh.network(), &probes)
        .expect("fresh golden monitor queries");
    let got = loaded
        .monitor()
        .query_batch(loaded.network(), &probes)
        .expect("loaded golden monitor queries");
    assert_eq!(
        got, expected,
        "golden artifact verdicts drifted from a fresh build ({path})"
    );
    let warnings = expected.iter().filter(|v| v.warning).count();
    assert!(
        warnings > 0 && warnings < probes.len(),
        "golden probe corpus must exercise both verdict branches \
         ({warnings}/{} warned, {path})",
        probes.len()
    );

    println!(
        "golden artifact ok: {} probes bit-identical ({warnings} warnings), {}",
        probes.len(),
        loaded
    );
}
