//! The committed artifacts and the schema field tables must agree. The
//! tables in `crates/sweep/src/schema.rs`, reached through the tag
//! registry behind `ups_sweep::validate_artifact` (the same path as
//! `sweep --validate`), are the schema lock: every committed
//! `BENCH_*.json` artifact validates key-exactly through that dispatch,
//! every `"schema"` tag it carries is one a table knows, and neither the
//! parser nor the validators panic on truncated or byte-mutated copies of
//! those artifacts.

use std::fs;
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use ups_metrics::FORENSICS_SCHEMA;
use ups_sweep::json::parse;
use ups_sweep::{
    validate_artifact, DIVERGENCE_BENCH_SCHEMA, OBS_BENCH_SCHEMA, RECORD_SCHEMA,
    SCALE_BENCH_SCHEMA, SWEEP_SCHEMA, THROUGHPUT_BENCH_SCHEMA,
};

/// Committed `BENCH_*` files that are not schema-tagged artifacts: the
/// Perfetto trace-event export of the obs bench.
const UNTAGGED: &[&str] = &["BENCH_obs_trace.json"];

fn repo_root() -> PathBuf {
    // crates/sweep → workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

/// `(file name, contents)` of every tagged `BENCH_*.json` at the root,
/// sorted by name.
fn committed_artifacts() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = fs::read_dir(repo_root())
        .expect("read repo root")
        .map(|e| e.expect("dir entry").path())
        .filter_map(|p| {
            let name = p.file_name()?.to_str()?.to_string();
            (name.starts_with("BENCH_") && name.ends_with(".json")).then_some((name, p))
        })
        .filter(|(name, _)| !UNTAGGED.contains(&name.as_str()))
        .map(|(name, p)| {
            let text = fs::read_to_string(&p).expect("read artifact");
            (name, text)
        })
        .collect();
    out.sort();
    out
}

/// The committed artifact of each family, with the tag it must carry.
const FAMILIES: [(&str, &str); 5] = [
    ("BENCH_divergence.json", DIVERGENCE_BENCH_SCHEMA),
    ("BENCH_obs.json", OBS_BENCH_SCHEMA),
    ("BENCH_scale.json", SCALE_BENCH_SCHEMA),
    ("BENCH_sweep.json", SWEEP_SCHEMA),
    ("BENCH_throughput.json", THROUGHPUT_BENCH_SCHEMA),
];

/// Validate the committed artifact `name` through the dispatch and assert
/// it carries `tag`.
fn assert_covered(name: &str, tag: &str) {
    let text = fs::read_to_string(repo_root().join(name))
        .unwrap_or_else(|e| panic!("committed artifact {name}: {e}"));
    let summary = validate_artifact(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(!summary.is_empty(), "{name}: empty summary");
    let doc = parse(&text).expect("validated artifacts parse");
    assert_eq!(
        doc.get("schema").and_then(|s| s.as_str()),
        Some(tag),
        "{name} is not on its family's current tag"
    );
}

#[test]
fn sweep_artifact_is_covered_by_the_lock() {
    // The envelope embeds one record line per job, each of which may
    // embed a forensics block; the walk covers all three tables.
    assert_covered("BENCH_sweep.json", SWEEP_SCHEMA);
}

#[test]
fn bench_artifacts_are_covered_by_the_lock() {
    for (name, tag) in FAMILIES {
        if name != "BENCH_sweep.json" {
            assert_covered(name, tag);
        }
    }
}

#[test]
fn every_artifact_schema_tag_is_locked() {
    // One committed artifact per family, and nothing else tagged.
    let names: Vec<String> = committed_artifacts().into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, FAMILIES.map(|(n, _)| n.to_string()));
    let known: Vec<&str> = FAMILIES
        .iter()
        .map(|&(_, tag)| tag)
        .chain([RECORD_SCHEMA, FORENSICS_SCHEMA])
        .collect();
    for (name, text) in committed_artifacts() {
        // Every `"schema": "<tag>"` value in the document: the envelope
        // plus any embedded record lines and forensics blocks.
        let mut found = 0;
        for part in text.split("\"schema\"").skip(1) {
            let Some(rest) = part.trim_start().strip_prefix(':') else {
                continue;
            };
            let tag = rest
                .trim_start()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap_or_default();
            found += 1;
            assert!(
                known.contains(&tag),
                "{name} declares schema {tag:?} which no field table covers"
            );
        }
        assert!(found > 0, "{name} declares no schema tag");
    }
}

/// The largest prefix of `text` no longer than `len` bytes that ends on a
/// char boundary.
fn truncated(text: &str, len: usize) -> &str {
    let mut end = len.min(text.len());
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    &text[..end]
}

/// Bytes that move a JSON document between shapes: structure, quoting,
/// escapes, signs, exponents, and a non-ASCII lead byte.
const SPLICE: [u8; 16] = [
    b'{', b'}', b'[', b']', b'"', b'\\', b',', b':', b'-', b'.', b'e', b'0', b'n', b't', b' ', 0xC3,
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]
    #[test]
    fn truncated_and_mutated_artifacts_never_panic(
        pick in 0usize..64,
        cut in 0usize..1_000_000,
        at in (0usize..1_000_000, 0usize..1_000_000),
        with in (proptest::sample::select(&SPLICE), 0u8..=255),
    ) {
        let artifacts = committed_artifacts();
        let (_, text) = &artifacts[pick % artifacts.len()];
        // Truncation anywhere: an Err (or, at the very end, Ok) — the
        // call returning at all is the property.
        let prefix = truncated(text, cut % (text.len() + 1));
        let _ = parse(prefix);
        let _ = validate_artifact(prefix);
        // Two byte overwrites: one structural, one arbitrary.
        let mut bytes = text.clone().into_bytes();
        let n = bytes.len();
        bytes[at.0 % n] = with.0;
        bytes[at.1 % n] = with.1;
        let mutated = String::from_utf8_lossy(&bytes);
        let _ = parse(&mutated);
        let _ = validate_artifact(&mutated);
    }
}
