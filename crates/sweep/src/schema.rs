//! One declarative field table per artifact schema tag.
//!
//! Every schema-tagged JSON document the workspace writes — the sweep
//! aggregate and its record lines, the forensics block, the telemetry
//! heartbeats and time series, and the four `BENCH_*.json` bench families
//! — is described here exactly once: a [`Field`] table naming every key
//! the emitter writes, the [`Kind`] of its value, and whether it may be
//! `null` or absent. [`walk`] checks a parsed document against a table
//! and rejects keys the table does not list, so an emitter that grows or
//! loses a key without a new `/vN` tag fails validation (the round-trip
//! tests in `store.rs` and the committed-artifact test pin this).
//!
//! The tables say only what each value *is*. Relations between values —
//! conservation, ascending axes, bit-identity rows — live next to the
//! validators in [`crate::store`].

use crate::json::JsonValue;
use Kind::{Array, Bool, Count, Num, Obj, OneOf, Str, True};

/// What one field's value must be.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Any string.
    Str,
    /// A string from a fixed set (a schema tag is a one-element set).
    OneOf(&'static [&'static str]),
    /// A finite number.
    Num,
    /// A finite, non-negative integer.
    Count,
    /// `true` or `false`.
    Bool,
    /// The literal `true`: a gate the artifact must assert.
    True,
    /// An object checked against its own table.
    Obj(&'static [Field]),
    /// An array whose every element has the given kind.
    Array(&'static Kind),
}

/// One key of a table.
#[derive(Debug, Clone, Copy)]
pub struct Field {
    /// The JSON key.
    pub name: &'static str,
    /// What its value must be.
    pub kind: Kind,
    /// `null` is accepted in place of a value of `kind`.
    pub nullable: bool,
    /// The key may be absent (a row-specific field such as a bit-identity
    /// assertion that only the baseline row carries).
    pub optional: bool,
}

const fn req(name: &'static str, kind: Kind) -> Field {
    Field {
        name,
        kind,
        nullable: false,
        optional: false,
    }
}

const fn nullable(name: &'static str, kind: Kind) -> Field {
    Field {
        nullable: true,
        ..req(name, kind)
    }
}

const fn optional(name: &'static str, kind: Kind) -> Field {
    Field {
        optional: true,
        ..req(name, kind)
    }
}

/// Check `v` against `table`: every listed key present (unless
/// optional) with a value of its kind (or `null` where nullable), and no
/// key the table does not list. `path` prefixes error messages
/// (`""` at the document root), so every `Err` names the offending field.
pub fn walk(v: &JsonValue, table: &[Field], path: &str) -> Result<(), String> {
    let JsonValue::Object(members) = v else {
        let at = if path.is_empty() { "document" } else { path };
        return Err(format!("{at}: expected an object"));
    };
    for f in table {
        let field_path = join(path, f.name);
        match members.get(f.name) {
            None if f.optional => {}
            None => return Err(format!("{field_path} missing")),
            Some(JsonValue::Null) if f.nullable => {}
            Some(value) => check(value, &f.kind, &field_path)?,
        }
    }
    match members
        .keys()
        .find(|k| !table.iter().any(|f| f.name == k.as_str()))
    {
        Some(stray) => Err(format!("{}: key not in the schema", join(path, stray))),
        None => Ok(()),
    }
}

fn check(v: &JsonValue, kind: &Kind, path: &str) -> Result<(), String> {
    match (kind, v) {
        (Str, JsonValue::String(_))
        | (Bool, JsonValue::Bool(_))
        | (True, JsonValue::Bool(true)) => Ok(()),
        (OneOf(set), JsonValue::String(s)) if set.contains(&s.as_str()) => Ok(()),
        (OneOf(set), JsonValue::String(s)) => Err(format!(
            "{path}: unexpected {s:?} (expected one of {set:?})"
        )),
        (Num, JsonValue::Number(x)) if x.is_finite() => Ok(()),
        (Count, JsonValue::Number(x)) if x.is_finite() && *x >= 0.0 && x.fract() == 0.0 => Ok(()),
        (Obj(table), _) => walk(v, table, path),
        (Array(elem), JsonValue::Array(items)) => items
            .iter()
            .enumerate()
            .try_for_each(|(i, item)| check(item, elem, &format!("{path}[{i}]"))),
        _ => Err(format!(
            "{path}: expected {}, got {}",
            describe(kind),
            short(v)
        )),
    }
}

fn describe(kind: &Kind) -> &'static str {
    match kind {
        Str | OneOf(_) => "a string",
        Num => "a finite number",
        Count => "a count (an integer ≥ 0)",
        Bool => "a bool",
        True => "true",
        Obj(_) => "an object",
        Array(_) => "an array",
    }
}

/// A value as an error message shows it: scalars verbatim, containers
/// by type (a whole record would drown the message).
fn short(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".into(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Number(x) => x.to_string(),
        JsonValue::String(s) => format!("{s:?}"),
        JsonValue::Array(_) => "an array".into(),
        JsonValue::Object(_) => "an object".into(),
    }
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

// ---- ups-forensics/v1: the divergence block -------------------------

const TOP_NODE: &[Field] = &[req("node", Count), req("mismatches", Count)];

/// `ups-forensics/v1`: a sweep record's `divergence` block and every
/// divergence-bench row's.
pub const FORENSICS: &[Field] = &[
    req("schema", OneOf(&[ups_metrics::FORENSICS_SCHEMA])),
    req("mismatches", Count),
    req("overdue_within_t", Count),
    req("overdue_beyond_t", Count),
    req("missing_in_replay", Count),
    req("dead_link_drop", Count),
    req("buffer_drop", Count),
    req("rank_tie_break", Count),
    req("bucket_collision", Count),
    req("reroute", Count),
    req("queue_overflow", Count),
    req("exit_only", Count),
    nullable("hop_lateness_p50_s", Num),
    nullable("hop_lateness_p99_s", Num),
    req("top_nodes", Array(&Obj(TOP_NODE))),
];

// ---- ups-sweep-record/v5: one job's record line ---------------------

const SCENARIO: &[Field] = &[
    req("topology", Str),
    req("profile", Str),
    req("scheduler", Str),
    req("traffic", OneOf(&["open-loop", "closed-loop"])),
    nullable("rest_bps", Count),
    req("utilization", Num),
    req("seed", Count),
    req("window_ms", Num),
    nullable("horizon_ms", Num),
    nullable("buffer_bytes", Count),
    req("replay", Bool),
    nullable("queues", Count),
    nullable("mapper", Str),
    nullable("failures", Str),
    nullable("inflight", OneOf(&["reroute", "drop"])),
    nullable("max_packets", Count),
];

const TRANSPORT: &[Field] = &[
    req("completed_flows", Count),
    req("goodput_bytes", Count),
    req("retransmits", Count),
    req("rto_events", Count),
    req("slack_ooo", Count),
];

const DISRUPTION: &[Field] = &[
    req("links_failed", Count),
    req("rerouted", Count),
    req("dropped_at_dead_link", Count),
    nullable("churn_replay_match_rate", Num),
];

const FCT_BUCKET: &[Field] = &[
    nullable("edge_bytes", Count),
    req("mean_fct_s", Num),
    req("flows", Count),
];

/// The record's `metrics` block (`ups_metrics::RunSummary::to_json`).
pub const RUN_SUMMARY: &[Field] = &[
    req("flows", Count),
    req("packets", Count),
    req("delivered", Count),
    req("dropped", Count),
    req("delay_mean_s", Num),
    req("delay_p99_s", Num),
    req("fct_mean_s", Num),
    nullable("jain", Num),
    nullable("replay_match_rate", Num),
    nullable("replay_frac_gt_t", Num),
    nullable("quantized_match_rate", Num),
    nullable("quantized_frac_gt_t", Num),
    nullable("quantized_fct_delta_s", Num),
    nullable("transport", Obj(TRANSPORT)),
    nullable("disruption", Obj(DISRUPTION)),
    nullable("divergence", Obj(FORENSICS)),
    req("fct_buckets", Array(&Obj(FCT_BUCKET))),
];

/// `ups-sweep-record/v5`, as the aggregate and the JSONL stream carry it
/// (with its `wall_s` timing field).
pub const RECORD: &[Field] = &[
    req("schema", OneOf(&[crate::runner::RECORD_SCHEMA])),
    req("job_id", Count),
    req("scenario", Obj(SCENARIO)),
    req("metrics", Obj(RUN_SUMMARY)),
    req("wall_s", Num),
];

// ---- ups-sweep/v5: the aggregate ------------------------------------

const EXCLUDE: &[Field] = &[
    nullable("topology", Str),
    nullable("profile", Str),
    nullable("scheduler", Str),
    nullable("traffic", Str),
    nullable("queues", Count),
    nullable("failures", Str),
    nullable("utilization_above", Num),
];

/// The aggregate's `grid` block (`ScenarioGrid::to_json`).
pub const GRID: &[Field] = &[
    req("topologies", Array(&Str)),
    req("profiles", Array(&Str)),
    req("schedulers", Array(&Str)),
    req("traffic", Array(&Str)),
    req("rest_bps", Array(&Count)),
    req("utilizations", Array(&Num)),
    req("seeds", Array(&Count)),
    req("window_ms", Num),
    nullable("horizon_ms", Num),
    nullable("buffer_bytes", Count),
    req("replay", Bool),
    req("queues", Array(&Count)),
    req("mapper", Str),
    req("failures", Array(&Str)),
    req("inflight", Str),
    nullable("max_packets", Count),
    req("excludes", Array(&Obj(EXCLUDE))),
    nullable("max_jobs", Count),
];

/// `ups-sweep/v5`: `BENCH_sweep.json`.
pub const SWEEP: &[Field] = &[
    req("schema", OneOf(&[crate::store::SWEEP_SCHEMA])),
    req("grid", Obj(GRID)),
    req("workers", Count),
    req("jobs", Count),
    req("wall_s", Num),
    req("jobs_per_sec", Num),
    req("results", Array(&Obj(RECORD))),
];

// ---- ups-obs-heartbeat/v2 and ups-obs-timeseries/v2 -----------------

const WORKER_ROW: &[Field] = &[
    req("worker", Count),
    req("jobs", Count),
    req("busy_s", Num),
    req("utilization", Num),
];

/// `ups-obs-heartbeat/v2`: one telemetry tick.
pub const HEARTBEAT: &[Field] = &[
    req("schema", OneOf(&[ups_obs::HEARTBEAT_SCHEMA])),
    req("t_s", Num),
    req("done", Count),
    req("total", Count),
    req("jobs_per_sec", Num),
    nullable("eta_s", Num),
    req("workers", Array(&Obj(WORKER_ROW))),
];

/// `ups-obs-timeseries/v2`: the run-level telemetry document.
pub const TIMESERIES: &[Field] = &[
    req("schema", OneOf(&[ups_obs::TIMESERIES_SCHEMA])),
    req("workers", Count),
    req("wall_s", Num),
    req("heartbeats", Array(&Obj(HEARTBEAT))),
];

// ---- the bench artifacts --------------------------------------------

const THROUGHPUT_SCENARIO: &[Field] = &[
    req("topology", Str),
    req("scheduler", Str),
    req("utilization", Num),
    req("window_ms", Num),
    req("seed", Count),
    req("flows", Count),
    req("packets", Count),
    req("delivered", Count),
];

const THROUGHPUT_ROW: &[Field] = &[
    req("impl", Str),
    req("description", Str),
    req("runs", Count),
    req("best_wall_s", Num),
    req("packets_per_sec", Num),
    req("events_per_sec", Num),
    req("delivered", Count),
];

/// `ups-bench-throughput/v1`: `BENCH_throughput.json`.
pub const THROUGHPUT: &[Field] = &[
    req("schema", OneOf(&[crate::store::THROUGHPUT_BENCH_SCHEMA])),
    req("scenario", Obj(THROUGHPUT_SCENARIO)),
    req("results", Array(&Obj(THROUGHPUT_ROW))),
    req("speedup_packets_per_sec", Num),
];

const SCALE_SCENARIO: &[Field] = &[
    req("topology", Str),
    req("scheduler", Str),
    req("utilization", Num),
    req("flow_bytes", Count),
    req("window_ms", Num),
    req("seed", Count),
];

const DIFFERENTIAL: &[Field] = &[
    req("workload_packets", Count),
    req("records_identical", True),
    req("reports_identical", True),
    req("summaries_identical", True),
];

/// `ups-bench-scale/v1`: `BENCH_scale.json`.
pub const SCALE: &[Field] = &[
    req("schema", OneOf(&[crate::store::SCALE_BENCH_SCHEMA])),
    req("scenario", Obj(SCALE_SCENARIO)),
    req("packets", Count),
    req("flows", Count),
    req("delivered", Count),
    req("dropped", Count),
    req("peak_rss_bytes", Count),
    req("rss_budget_bytes", Count),
    req("packets_per_sec", Num),
    req("replay_match_rate", Num),
    req("replay_frac_gt_t", Num),
    req("differential", Obj(DIFFERENTIAL)),
];

const OBS_SCENARIO: &[Field] = &[
    req("topology", Str),
    req("scheduler", Str),
    req("utilization", Num),
    req("seed", Count),
];

const OBS_MODE: &[Field] = &[req("packets_per_sec", Num), req("best_s", Num)];

const OBS_MODE_SAMPLED: &[Field] = &[
    req("packets_per_sec", Num),
    req("best_s", Num),
    req("samples", Count),
];

/// `ups-bench-obs/v1`: `BENCH_obs.json`.
pub const OBS: &[Field] = &[
    req("schema", OneOf(&[crate::store::OBS_BENCH_SCHEMA])),
    req("scenario", Obj(OBS_SCENARIO)),
    req("packets", Count),
    req("flows", Count),
    req("runs", Count),
    req("tolerance", Num),
    req("uninstrumented", Obj(OBS_MODE)),
    req("probe_off", Obj(OBS_MODE)),
    req("probe_on", Obj(OBS_MODE_SAMPLED)),
    req("probe_off_overhead", Num),
    req("probe_on_overhead", Num),
    req("fingerprints_identical", True),
];

const DIVERGENCE_SCENARIO: &[Field] = &[
    req("topology", Str),
    req("original", Str),
    req("mapper", Str),
    req("profile", Str),
    req("inflight", OneOf(&["reroute", "drop"])),
    req("utilization", Num),
    req("seed", Count),
    req("packets", Count),
    req("flows", Count),
    req("window_ms", Num),
];

const DIVERGENCE_K_ROW: &[Field] = &[
    nullable("k", Count),
    req("mean_fct_s", Num),
    req("missing", Count),
    optional("bit_identical_to_exact_lstf", True),
    req("compared", Count),
    req("match_rate", Num),
    req("frac_gt_t", Num),
    req("max_lateness_us", Num),
    req("divergence", Obj(FORENSICS)),
];

const DIVERGENCE_RATE_ROW: &[Field] = &[
    req("rate", Num),
    req("links_failed", Count),
    req("rerouted", Count),
    req("dropped_at_dead_link", Count),
    req("delivered", Count),
    optional("bit_identical_to_static_routing", True),
    req("compared", Count),
    req("match_rate", Num),
    req("frac_gt_t", Num),
    req("max_lateness_us", Num),
    req("divergence", Obj(FORENSICS)),
];

/// `ups-bench-divergence/v2`: `BENCH_divergence.json`, the one
/// degradation artifact (finite-K and link-churn axes).
pub const DIVERGENCE: &[Field] = &[
    req("schema", OneOf(&[crate::store::DIVERGENCE_BENCH_SCHEMA])),
    req("scenario", Obj(DIVERGENCE_SCENARIO)),
    req("quantization", Array(&Obj(DIVERGENCE_K_ROW))),
    req("failures", Array(&Obj(DIVERGENCE_RATE_ROW))),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    const ROW: &[Field] = &[
        req("n", Count),
        nullable("x", Num),
        optional("ok", True),
        req("tags", Array(&OneOf(&["a", "b"]))),
    ];

    fn walk_doc(doc: &str) -> Result<(), String> {
        walk(&parse(doc).unwrap(), ROW, "row")
    }

    #[test]
    fn walker_accepts_exactly_the_table() {
        walk_doc(r#"{"n": 3, "x": null, "tags": []}"#).unwrap();
        walk_doc(r#"{"n": 0, "x": -1.5, "ok": true, "tags": ["a", "b"]}"#).unwrap();
        let err = |doc: &str| walk_doc(doc).unwrap_err();
        assert_eq!(err(r#"{"x": 1, "tags": []}"#), "row.n missing");
        assert_eq!(
            err(r#"{"n": 1, "x": 1, "tags": [], "y": 2}"#),
            "row.y: key not in the schema"
        );
        assert!(err(r#"{"n": null, "x": 1, "tags": []}"#).starts_with("row.n: expected a count"));
        assert!(err(r#"{"n": 1, "x": 1, "ok": false, "tags": []}"#)
            .starts_with("row.ok: expected true"));
        assert!(err(r#"{"n": 1, "x": 1, "tags": ["a", "c"]}"#)
            .starts_with("row.tags[1]: unexpected \"c\""));
        assert!(err("[1]").contains("expected an object"));
    }

    #[test]
    fn counts_reject_negative_fractional_and_non_numeric_values() {
        for bad in ["-5", "2.5", "\"7\"", "1e999"] {
            let doc = format!(r#"{{"n": {bad}, "x": 1, "tags": []}}"#);
            let e = walk_doc(&doc).unwrap_err();
            assert!(e.starts_with("row.n: expected a count"), "{bad}: {e}");
        }
        walk_doc(r#"{"n": 4e3, "x": 1, "tags": []}"#).unwrap();
    }
}
