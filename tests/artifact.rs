//! Facade-level artifact tests: the committed golden files load, match a
//! fresh deterministic build bit-for-bit, and mount on the serving
//! engine; malformed files fail typed at every entry point.

use napmon::artifact::{ArtifactError, MonitorArtifact, FORMAT_VERSION};
use napmon::core::Monitor;
use napmon::serve::{EngineConfig, MonitorEngine};
use napmon_bench::golden;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_artifact.json");

/// Every committed golden — the single-boundary file plus the multi-layer
/// and per-class composites, which pin the serde shape of the composite
/// payloads — loads, matches a fresh spec build, and answers the probe
/// corpus bit-identically.
#[test]
fn committed_golden_artifact_loads_and_matches_fresh_build() {
    let probes = golden::probes();
    for (file, spec) in golden::fixtures() {
        let path = format!("{}/tests/{file}", env!("CARGO_MANIFEST_DIR"));
        let loaded = MonitorArtifact::load_json(&path).unwrap_or_else(|e| {
            panic!("committed {file} must load under the current format version: {e}")
        });
        assert_eq!(loaded.format_version, FORMAT_VERSION);
        let fresh = golden::build(spec);
        assert_eq!(loaded.spec(), fresh.spec(), "{file}");
        assert_eq!(loaded.network(), fresh.network(), "{file}");
        assert_eq!(loaded.stats(), fresh.stats(), "{file}");

        let expected = fresh
            .monitor()
            .query_batch(fresh.network(), &probes)
            .unwrap();
        assert_eq!(
            loaded
                .monitor()
                .query_batch(loaded.network(), &probes)
                .unwrap(),
            expected,
            "{file}: golden verdicts must be bit-identical to a fresh build"
        );
        let warnings = expected.iter().filter(|v| v.warning).count();
        assert!(
            warnings > 0 && warnings < probes.len(),
            "{file}: the probes must hit both verdict branches ({warnings} warned)"
        );
    }
}

#[test]
fn golden_artifact_serves_through_the_engine() {
    let loaded = MonitorArtifact::load_json(GOLDEN_PATH).unwrap();
    let probes = golden::probes();
    let expected = loaded
        .monitor()
        .query_batch(loaded.network(), &probes)
        .unwrap();
    let engine = MonitorEngine::from_artifact(loaded, EngineConfig::with_shards(2));
    let served = engine.submit_batch(probes).unwrap();
    assert_eq!(served, expected);
    engine.shutdown();
}

#[test]
fn golden_artifact_with_bumped_version_is_rejected() {
    let json = std::fs::read_to_string(GOLDEN_PATH).unwrap();
    let bumped = json.replacen(
        &format!("\"format_version\":{FORMAT_VERSION}"),
        &format!("\"format_version\":{}", FORMAT_VERSION + 41),
        1,
    );
    assert_ne!(json, bumped);
    match MonitorArtifact::from_json_str(&bumped) {
        Err(ArtifactError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, FORMAT_VERSION + 41);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}
