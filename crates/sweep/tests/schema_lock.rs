//! The committed artifacts, the validators and `SCHEMAS.lock` must
//! agree: every JSON key a committed `BENCH_*.json` artifact actually
//! carries appears in the lockfile surface of its schema tag. The lock
//! is extracted from the *emitters* (the `lint:schema` annotations), so
//! this closes the triangle — emitter annotations ↔ lockfile ↔ shipped
//! artifacts. A key in an artifact but missing from the lock means an
//! emitter lost its annotation (or the artifact was written by code the
//! lock does not cover); both deserve a red test.
//!
//! The lock may be a *superset* of any one artifact: optional fields
//! (`disruption`, `eta_s`, quantized metrics) appear only under some
//! scenarios.
//!
//! A committed artifact may also predate its emitter's latest tag bump.
//! [`RETIRED_TAGS`] states exactly which keys such a tag carries beyond
//! its successor's surface, so the check stays key-exact for it too.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use ups_lint::schemas::json_keys;
use ups_lint::{parse_lock, SurfaceMap};

fn repo_root() -> PathBuf {
    // crates/sweep → workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

/// Tags no emitter writes any more but a committed artifact still
/// carries: `(retired tag, the tag that replaced it, keys the retired
/// tag has beyond its successor's locked surface)`. The validator keeps
/// accepting each one (`ups_sweep::ACCEPTED_SWEEP_SCHEMAS`).
const RETIRED_TAGS: &[(&str, &str, &[&str])] = &[
    // v5 dropped the work-stealing pool's steal count.
    ("ups-sweep/v4", "ups-sweep/v5", &["steals"]),
];

fn lock() -> SurfaceMap {
    let text = fs::read_to_string(repo_root().join("SCHEMAS.lock"))
        .expect("SCHEMAS.lock is committed at the repo root");
    parse_lock(&text).expect("SCHEMAS.lock parses")
}

/// Keys of an artifact document: `json_keys` over the raw text. The
/// artifacts are trusted well-formed here — `sweep --validate` (its own
/// CI step and `store::validate_*` tests) checks structure and values.
fn artifact_keys(name: &str) -> BTreeSet<String> {
    let text = fs::read_to_string(repo_root().join(name))
        .unwrap_or_else(|e| panic!("committed artifact {name}: {e}"));
    json_keys(&text).into_iter().collect()
}

/// Assert every key in `artifact` is covered by the union of the lock
/// surfaces of `tags`.
fn assert_covered(artifact: &str, tags: &[&str]) {
    let lock = lock();
    let mut allowed: BTreeSet<&str> = BTreeSet::new();
    for tag in tags {
        let (tag, extra): (&str, &[&str]) = RETIRED_TAGS
            .iter()
            .find(|(retired, _, _)| retired == tag)
            .map_or((*tag, &[]), |&(_, successor, extra)| (successor, extra));
        let surface = lock
            .get(tag)
            .unwrap_or_else(|| panic!("{tag} missing from SCHEMAS.lock"));
        allowed.extend(surface.iter().map(String::as_str));
        allowed.extend(extra);
    }
    let missing: Vec<String> = artifact_keys(artifact)
        .into_iter()
        .filter(|k| !allowed.contains(k.as_str()))
        .collect();
    assert!(
        missing.is_empty(),
        "{artifact} carries keys outside the SCHEMAS.lock surface of {tags:?}: {missing:?} — \
         an emitter lost its lint:schema annotation, or the lock is stale \
         (cargo run -p ups-lint -- --update)"
    );
}

#[test]
fn sweep_artifact_is_covered_by_the_lock() {
    // The envelope (whatever ups-sweep/vN the committed artifact
    // declares) embeds one record line per job (ups-sweep-record/v5),
    // each of which may embed a forensics block (ups-forensics/v1), so
    // the artifact's keys live in the union.
    let text = fs::read_to_string(repo_root().join("BENCH_sweep.json")).expect("committed");
    let doc = ups_sweep::json::parse(&text).expect("BENCH_sweep.json parses");
    let envelope = doc
        .get("schema")
        .and_then(|s| s.as_str())
        .expect("envelope schema tag");
    assert_covered(
        "BENCH_sweep.json",
        &[envelope, "ups-sweep-record/v5", "ups-forensics/v1"],
    );
}

#[test]
fn bench_artifacts_are_covered_by_the_lock() {
    for (artifact, tag) in [
        ("BENCH_throughput.json", "ups-bench-throughput/v1"),
        ("BENCH_quantized.json", "ups-bench-quantized/v1"),
        ("BENCH_failures.json", "ups-bench-failures/v1"),
        ("BENCH_scale.json", "ups-bench-scale/v1"),
        ("BENCH_obs.json", "ups-bench-obs/v1"),
    ] {
        assert_covered(artifact, &[tag]);
    }
    // The divergence bench embeds one forensics block per row.
    assert_covered(
        "BENCH_divergence.json",
        &["ups-bench-divergence/v1", "ups-forensics/v1"],
    );
}

#[test]
fn every_artifact_schema_tag_is_locked() {
    let lock = lock();
    for artifact in [
        "BENCH_sweep.json",
        "BENCH_throughput.json",
        "BENCH_quantized.json",
        "BENCH_failures.json",
        "BENCH_scale.json",
        "BENCH_obs.json",
        "BENCH_divergence.json",
    ] {
        let text = fs::read_to_string(repo_root().join(artifact)).expect("committed artifact");
        // Every `"schema": "<tag>"` value in the document (the envelope
        // plus, for the sweep artifact, each embedded record line).
        let mut found = 0;
        for part in text.split("\"schema\"") {
            let Some(rest) = part.trim_start().strip_prefix(':') else {
                continue;
            };
            let rest = rest.trim_start().trim_start_matches('"');
            let Some(tag) = rest.split('"').next() else {
                continue;
            };
            found += 1;
            assert!(
                lock.contains_key(tag) || RETIRED_TAGS.iter().any(|(r, _, _)| *r == tag),
                "{artifact} declares schema {tag:?} which SCHEMAS.lock does not cover"
            );
        }
        assert!(found > 0, "{artifact} carries no schema tag");
    }
}

#[test]
fn validator_required_fields_are_locked() {
    // The hand-maintained validators in store.rs demand these fields by
    // name; each must be part of the locked emitter surface, or the
    // validator would reject what the emitters produce.
    let lock = lock();
    let envelope = &lock["ups-sweep/v5"];
    for field in [
        "schema",
        "grid",
        "workers",
        "jobs",
        "wall_s",
        "jobs_per_sec",
        "results",
    ] {
        assert!(
            envelope.contains(field),
            "ups-sweep/v5 lock misses required field {field}"
        );
    }
    let record = &lock["ups-sweep-record/v5"];
    for field in [
        "schema",
        "job_id",
        "scenario",
        "metrics",
        "failures",
        "inflight",
        "disruption",
        "divergence",
    ] {
        assert!(
            record.contains(field),
            "ups-sweep-record/v5 lock misses required field {field}"
        );
    }
    // The forensics block's conservation-checked fields.
    let forensics = &lock["ups-forensics/v1"];
    for field in [
        "mismatches",
        "overdue_within_t",
        "bucket_collision",
        "exit_only",
        "top_nodes",
    ] {
        assert!(
            forensics.contains(field),
            "ups-forensics/v1 lock misses required field {field}"
        );
    }
}
