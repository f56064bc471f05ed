//! The machine-readable result store.
//!
//! Two artifacts, following the DESIGN.md §5 pattern:
//!
//! * a **JSON-lines stream** — one self-describing record per job,
//!   appended the moment the job finishes on whichever worker ran it
//!   (completion order, so the stream doubles as a progress log), and
//! * the **aggregate `BENCH_sweep.json`** — schema tag, the grid that
//!   generated the sweep, pool accounting (workers, jobs/sec) and
//!   every record sorted by job id.
//!
//! [`validate_bench_sweep`] loads an aggregate back through the minimal
//! parser and asserts its schema — the check CI runs on the artifact.

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use crate::grid::ScenarioGrid;
use crate::json::{parse, JsonValue};
use crate::pool::PoolStats;
use crate::runner::JobRecord;

/// Schema tag of the aggregate artifact this build writes.
pub const SWEEP_SCHEMA: &str = "ups-sweep/v5";

/// Aggregate schema tags [`validate_bench_sweep`] accepts (v1 artifacts
/// predate the traffic-mode axis and the transport block; v2 predates
/// the finite-priority-queue axis; v3 predates the failure axis and the
/// disruption block; v4 still carries the retired pool `steals` count).
pub const ACCEPTED_SWEEP_SCHEMAS: [&str; 5] = [
    "ups-sweep/v1",
    "ups-sweep/v2",
    "ups-sweep/v3",
    "ups-sweep/v4",
    "ups-sweep/v5",
];

/// Schema tag of the quantized-replay bench artifact
/// (`BENCH_quantized.json`), validated by [`validate_bench_quantized`].
pub const QUANTIZED_BENCH_SCHEMA: &str = "ups-bench-quantized/v1";

/// Schema tag of the link-failure bench artifact
/// (`BENCH_failures.json`), validated by [`validate_bench_failures`].
pub const FAILURES_BENCH_SCHEMA: &str = "ups-bench-failures/v1";

/// Schema tag of the streaming-pipeline scale bench artifact
/// (`BENCH_scale.json`), validated by [`validate_bench_scale`].
pub const SCALE_BENCH_SCHEMA: &str = "ups-bench-scale/v1";

/// Schema tag of the probe-overhead bench artifact (`BENCH_obs.json`),
/// validated by [`validate_bench_obs`].
pub const OBS_BENCH_SCHEMA: &str = "ups-bench-obs/v1";

/// Schema tag of the divergence-forensics bench artifact
/// (`BENCH_divergence.json`), validated by [`validate_bench_divergence`].
pub const DIVERGENCE_BENCH_SCHEMA: &str = "ups-bench-divergence/v1";

/// Streams one JSON line per finished job. Shared across workers behind
/// a mutex — append is one short write per multi-second job.
pub struct ResultStream {
    out: Mutex<BufWriter<File>>,
    path: PathBuf,
}

impl ResultStream {
    /// Create/truncate the JSONL file.
    pub fn create(path: &Path) -> std::io::Result<ResultStream> {
        Ok(ResultStream {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
            path: path.to_path_buf(),
        })
    }

    /// Append one record (with timing — the stream is a log, not the
    /// determinism surface).
    ///
    /// # Panics
    /// On write failure (e.g. disk full) — the sweep cannot report
    /// results it cannot record. A poisoned lock is recovered rather
    /// than re-panicked: one job's write failure is caught per job by
    /// the pool, and later jobs must surface the *real* I/O error, not
    /// a cascade of "stream poisoned".
    pub fn append(&self, record: &JobRecord) {
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        writeln!(out, "{}", record.to_json(true)).expect("write JSONL record");
        out.flush().expect("flush JSONL record");
    }

    /// Where the stream writes.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Render the aggregate artifact. Records are sorted by job id (the
/// caller hands them in pool order, which is already job order).
// lint:schema(ups-sweep/v5)
pub fn bench_sweep_json(
    grid: &ScenarioGrid,
    records: &[JobRecord],
    stats: &PoolStats,
    wall_s: f64,
) -> String {
    let jobs_per_sec = if wall_s > 0.0 {
        records.len() as f64 / wall_s
    } else {
        0.0
    };
    let mut sorted: Vec<&JobRecord> = records.iter().collect();
    sorted.sort_by_key(|r| r.spec.job_id);
    let body: Vec<String> = sorted
        .iter()
        .map(|r| format!("    {}", r.to_json(true)))
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"schema\": \"{}\",\n",
            "  \"grid\": {},\n",
            "  \"workers\": {},\n",
            "  \"jobs\": {},\n",
            "  \"wall_s\": {},\n",
            "  \"jobs_per_sec\": {},\n",
            "  \"results\": [\n{}\n  ]\n",
            "}}\n"
        ),
        SWEEP_SCHEMA,
        grid.to_json(),
        stats.workers,
        records.len(),
        ups_metrics::json_num(wall_s),
        ups_metrics::json_num(jobs_per_sec),
        body.join(",\n")
    )
}

/// What a valid aggregate reports — returned so callers can print a
/// one-line confirmation.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepDigest {
    /// Jobs recorded.
    pub jobs: usize,
    /// Worker threads the sweep used.
    pub workers: usize,
    /// Aggregate throughput.
    pub jobs_per_sec: f64,
}

/// Validate a `BENCH_sweep.json` document against its schema.
/// Every tag in [`ACCEPTED_SWEEP_SCHEMAS`] validates; each record line is
/// checked against its own `ups-sweep-record/v{1..5}` tag. Every failure is a `Result::Err`
/// naming the offending field — never a panic — so `sweep --check` can
/// print a usable diagnosis.
pub fn validate_bench_sweep(doc: &str) -> Result<SweepDigest, String> {
    let v = parse(doc).map_err(|e| format!("not JSON: {e}"))?;
    let schema = v
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("missing schema tag")?;
    if !ACCEPTED_SWEEP_SCHEMAS.contains(&schema) {
        return Err(format!(
            "unexpected schema {schema:?} (expected one of {ACCEPTED_SWEEP_SCHEMAS:?})"
        ));
    }
    v.get("grid").ok_or("missing grid block")?;
    let jobs = v
        .get("jobs")
        .and_then(JsonValue::as_f64)
        .ok_or("missing jobs count")? as usize;
    let workers = v
        .get("workers")
        .and_then(JsonValue::as_f64)
        .ok_or("missing workers")? as usize;
    let jobs_per_sec = v
        .get("jobs_per_sec")
        .and_then(JsonValue::as_f64)
        .ok_or("missing jobs_per_sec")?;
    if !jobs_per_sec.is_finite() || jobs_per_sec <= 0.0 {
        return Err(format!("jobs_per_sec {jobs_per_sec} not positive"));
    }
    let results = v
        .get("results")
        .and_then(JsonValue::as_array)
        .ok_or("missing results array")?;
    if results.len() != jobs {
        return Err(format!(
            "jobs field says {jobs} but results holds {}",
            results.len()
        ));
    }
    for (i, r) in results.iter().enumerate() {
        let id = r
            .get("job_id")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("result {i}: missing job_id"))?;
        if id as usize != i {
            return Err(format!("result {i} has job_id {id} — not sorted/dense"));
        }
        validate_record(i, r)?;
    }
    Ok(SweepDigest {
        jobs,
        workers,
        jobs_per_sec,
    })
}

/// Validate one result record against its own schema tag (`v1` — `v5`).
fn validate_record(i: usize, r: &JsonValue) -> Result<(), String> {
    let record_schema = r
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("result {i}: missing record schema tag"))?;
    let (v2, v3, v4, v5) = match record_schema {
        "ups-sweep-record/v1" => (false, false, false, false),
        "ups-sweep-record/v2" => (true, false, false, false),
        "ups-sweep-record/v3" => (true, true, false, false),
        "ups-sweep-record/v4" => (true, true, true, false),
        "ups-sweep-record/v5" => (true, true, true, true),
        other => {
            return Err(format!(
                "result {i}: unexpected record schema {other:?} \
                 (expected ups-sweep-record/v1 through /v5)"
            ))
        }
    };
    let scenario = r
        .get("scenario")
        .ok_or_else(|| format!("result {i}: missing scenario"))?;
    for field in ["topology", "profile", "scheduler"] {
        if scenario.get(field).and_then(JsonValue::as_str).is_none() {
            return Err(format!("result {i}: scenario.{field} missing"));
        }
    }
    for field in ["utilization", "seed", "window_ms"] {
        if scenario.get(field).and_then(JsonValue::as_f64).is_none() {
            return Err(format!("result {i}: scenario.{field} missing"));
        }
    }
    let metrics = r
        .get("metrics")
        .ok_or_else(|| format!("result {i}: missing metrics"))?;
    for field in [
        "flows",
        "packets",
        "delivered",
        "dropped",
        "delay_mean_s",
        "delay_p99_s",
        "fct_mean_s",
    ] {
        if metrics.get(field).and_then(JsonValue::as_f64).is_none() {
            return Err(format!("result {i}: metrics.{field} missing"));
        }
    }
    if metrics
        .get("fct_buckets")
        .and_then(JsonValue::as_array)
        .is_none()
    {
        return Err(format!("result {i}: metrics.fct_buckets missing"));
    }
    if !v2 {
        // v1: Jain was unconditionally numeric; no traffic/transport.
        if metrics.get("jain").and_then(JsonValue::as_f64).is_none() {
            return Err(format!("result {i}: metrics.jain missing"));
        }
        return Ok(());
    }
    // v2: the traffic axis is part of the scenario, Jain may be null
    // (zero-delivery run), and closed-loop records carry a transport
    // block.
    let traffic = scenario
        .get("traffic")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("result {i}: scenario.traffic missing"))?;
    if traffic != "open-loop" && traffic != "closed-loop" {
        return Err(format!(
            "result {i}: unexpected scenario.traffic {traffic:?}"
        ));
    }
    match metrics.get("jain") {
        Some(JsonValue::Null) | Some(JsonValue::Number(_)) => {}
        Some(other) => {
            return Err(format!(
                "result {i}: metrics.jain must be number or null, got {other:?}"
            ))
        }
        None => return Err(format!("result {i}: metrics.jain missing")),
    }
    match metrics.get("transport") {
        Some(JsonValue::Null) => {
            if traffic == "closed-loop" {
                return Err(format!(
                    "result {i}: closed-loop record lacks a transport block"
                ));
            }
        }
        Some(t @ JsonValue::Object(_)) => {
            // v3 transport blocks additionally carry the fairness-slack
            // out-of-order warning counter.
            let fields: &[&str] = if v3 {
                &[
                    "completed_flows",
                    "goodput_bytes",
                    "retransmits",
                    "rto_events",
                    "slack_ooo",
                ]
            } else {
                &[
                    "completed_flows",
                    "goodput_bytes",
                    "retransmits",
                    "rto_events",
                ]
            };
            for field in fields {
                if t.get(field).and_then(JsonValue::as_f64).is_none() {
                    return Err(format!("result {i}: metrics.transport.{field} missing"));
                }
            }
        }
        Some(other) => {
            return Err(format!(
                "result {i}: metrics.transport must be object or null, got {other:?}"
            ))
        }
        None => return Err(format!("result {i}: metrics.transport missing")),
    }
    if !v3 {
        return Ok(());
    }
    // v3: the finite-priority-queue sub-axis. `queues`/`mapper` travel
    // together, and the quantized metrics are number-or-null.
    let queues = match scenario.get("queues") {
        Some(JsonValue::Null) => None,
        Some(JsonValue::Number(k)) if *k >= 1.0 => Some(*k),
        other => {
            return Err(format!(
                "result {i}: scenario.queues must be a positive number or null, got {other:?}"
            ))
        }
    };
    let mapper = match scenario.get("mapper") {
        Some(JsonValue::Null) => None,
        Some(JsonValue::String(m)) => Some(m.clone()),
        other => {
            return Err(format!(
                "result {i}: scenario.mapper must be a string or null, got {other:?}"
            ))
        }
    };
    if queues.is_some() != mapper.is_some() {
        return Err(format!(
            "result {i}: scenario.queues and scenario.mapper must be set together"
        ));
    }
    for field in [
        "quantized_match_rate",
        "quantized_frac_gt_t",
        "quantized_fct_delta_s",
    ] {
        match metrics.get(field) {
            Some(JsonValue::Null) | Some(JsonValue::Number(_)) => {}
            other => {
                return Err(format!(
                    "result {i}: metrics.{field} must be number or null, got {other:?}"
                ))
            }
        }
        if queues.is_none() && matches!(metrics.get(field), Some(JsonValue::Number(_))) {
            return Err(format!(
                "result {i}: metrics.{field} set but the scenario has no queues axis"
            ));
        }
    }
    if !v4 {
        return Ok(());
    }
    // v4: the network-dynamics axis. `failures`/`inflight` travel
    // together, and the disruption block is present exactly when the
    // scenario carries a failure spec.
    let failures = match scenario.get("failures") {
        Some(JsonValue::Null) => None,
        Some(JsonValue::String(f)) => Some(f.clone()),
        other => {
            return Err(format!(
                "result {i}: scenario.failures must be a string or null, got {other:?}"
            ))
        }
    };
    match scenario.get("inflight") {
        Some(JsonValue::Null) if failures.is_none() => {}
        Some(JsonValue::String(p)) if failures.is_some() && (p == "reroute" || p == "drop") => {}
        other => {
            return Err(format!(
                "result {i}: scenario.inflight must be reroute/drop exactly when \
                 failures is set, got {other:?}"
            ))
        }
    }
    match metrics.get("disruption") {
        Some(JsonValue::Null) => {
            if failures.is_some() {
                return Err(format!(
                    "result {i}: failure record lacks a disruption block"
                ));
            }
        }
        Some(d @ JsonValue::Object(_)) => {
            if failures.is_none() {
                return Err(format!(
                    "result {i}: disruption block on a static-network record"
                ));
            }
            for field in ["links_failed", "rerouted", "dropped_at_dead_link"] {
                if d.get(field).and_then(JsonValue::as_f64).is_none() {
                    return Err(format!("result {i}: metrics.disruption.{field} missing"));
                }
            }
            match d.get("churn_replay_match_rate") {
                Some(JsonValue::Null) | Some(JsonValue::Number(_)) => {}
                other => {
                    return Err(format!(
                        "result {i}: disruption.churn_replay_match_rate must be \
                         number or null, got {other:?}"
                    ))
                }
            }
        }
        other => {
            return Err(format!(
                "result {i}: metrics.disruption must be object or null, got {other:?}"
            ))
        }
    }
    if !v5 {
        return Ok(());
    }
    // v5: the divergence forensics block — object or null, and when
    // present its taxonomy must be *conserved*: each mismatched packet
    // got exactly one cause and one inversion class, so both families
    // sum back to the mismatch count. A block that doesn't is corrupt
    // attribution, not a schema quirk.
    match metrics.get("divergence") {
        Some(JsonValue::Null) => {}
        Some(d @ JsonValue::Object(_)) => {
            validate_divergence_block(&format!("result {i}"), d)?;
        }
        other => {
            return Err(format!(
                "result {i}: metrics.divergence must be object or null, got {other:?}"
            ))
        }
    }
    Ok(())
}

/// The five mismatch causes of `ups-forensics/v1`, in emission order.
const DIVERGENCE_CAUSES: [&str; 5] = [
    "overdue_within_t",
    "overdue_beyond_t",
    "missing_in_replay",
    "dead_link_drop",
    "buffer_drop",
];

/// The five first-divergent-hop inversion classes, in emission order.
const DIVERGENCE_INVERSIONS: [&str; 5] = [
    "rank_tie_break",
    "bucket_collision",
    "reroute",
    "queue_overflow",
    "exit_only",
];

/// Validate one `ups-forensics/v1` object wherever it appears (the v5
/// record's `divergence` block, every divergence-bench row). Returns the
/// block's mismatch count. Shared so the conservation laws — Σ causes ≡
/// Σ inversions ≡ mismatches — are enforced identically everywhere.
fn validate_divergence_block(ctx: &str, d: &JsonValue) -> Result<u64, String> {
    let tag = d
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{ctx}: divergence block lacks its schema tag"))?;
    if tag != "ups-forensics/v1" {
        return Err(format!(
            "{ctx}: divergence schema {tag:?} (expected \"ups-forensics/v1\")"
        ));
    }
    let field = |name: &str| -> Result<f64, String> {
        d.get(name)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{ctx}: divergence.{name} missing"))
    };
    let mismatches = field("mismatches")?;
    for (family, names) in [
        ("cause", &DIVERGENCE_CAUSES),
        ("inversion", &DIVERGENCE_INVERSIONS),
    ] {
        let mut sum = 0.0;
        for name in *names {
            sum += field(name)?;
        }
        if sum != mismatches {
            return Err(format!(
                "{ctx}: divergence {family} counts sum to {sum} \
                 but mismatches is {mismatches} — attribution not conserved"
            ));
        }
    }
    for name in ["hop_lateness_p50_s", "hop_lateness_p99_s"] {
        match d.get(name) {
            Some(JsonValue::Null) | Some(JsonValue::Number(_)) => {}
            other => {
                return Err(format!(
                    "{ctx}: divergence.{name} must be number or null, got {other:?}"
                ))
            }
        }
    }
    let nodes = d
        .get("top_nodes")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{ctx}: divergence.top_nodes missing"))?;
    for (j, n) in nodes.iter().enumerate() {
        for name in ["node", "mismatches"] {
            if n.get(name).and_then(JsonValue::as_f64).is_none() {
                return Err(format!("{ctx}: divergence.top_nodes[{j}].{name} missing"));
            }
        }
    }
    Ok(mismatches as u64)
}

/// What a valid quantized-bench artifact reports.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedDigest {
    /// Finite-K rows recorded (the `k = null` row is the ∞ point).
    pub rows: usize,
    /// Match rate of the exact (K=∞) replay.
    pub exact_match_rate: f64,
}

/// Validate a `BENCH_quantized.json` document (the `quantized` bench's
/// K-sweep artifact; schema [`QUANTIZED_BENCH_SCHEMA`]). Checked by the
/// same `sweep --validate` entry point as the sweep artifacts: the tag
/// dispatches. Every failure is an `Err` naming the offending field.
pub fn validate_bench_quantized(doc: &str) -> Result<QuantizedDigest, String> {
    let v = parse(doc).map_err(|e| format!("not JSON: {e}"))?;
    let schema = v
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("missing schema tag")?;
    if schema != QUANTIZED_BENCH_SCHEMA {
        return Err(format!(
            "unexpected schema {schema:?} (expected {QUANTIZED_BENCH_SCHEMA:?})"
        ));
    }
    let scenario = v.get("scenario").ok_or("missing scenario block")?;
    for field in ["topology", "original", "mapper"] {
        if scenario.get(field).and_then(JsonValue::as_str).is_none() {
            return Err(format!("scenario.{field} missing"));
        }
    }
    for field in ["packets", "seed", "utilization"] {
        if scenario.get(field).and_then(JsonValue::as_f64).is_none() {
            return Err(format!("scenario.{field} missing"));
        }
    }
    let results = v
        .get("results")
        .and_then(JsonValue::as_array)
        .ok_or("missing results array")?;
    if results.is_empty() {
        return Err("results array is empty".into());
    }
    let mut exact_match_rate = None;
    for (i, r) in results.iter().enumerate() {
        // k: finite queue count, or null for the ∞ (exact) row.
        let k = match r.get("k") {
            Some(JsonValue::Null) => None,
            Some(JsonValue::Number(k)) if *k >= 1.0 => Some(*k),
            other => return Err(format!("row {i}: bad k {other:?}")),
        };
        for field in ["match_rate", "frac_gt_t", "mean_fct_s"] {
            if r.get(field).and_then(JsonValue::as_f64).is_none() {
                return Err(format!("row {i}: {field} missing"));
            }
        }
        if k.is_none() {
            if exact_match_rate.is_some() {
                return Err("more than one k = null (exact) row".into());
            }
            exact_match_rate = r.get("match_rate").and_then(JsonValue::as_f64);
            match r.get("bit_identical_to_exact_lstf") {
                Some(JsonValue::Bool(true)) => {}
                other => {
                    return Err(format!(
                        "exact row must assert bit_identical_to_exact_lstf: true, got {other:?}"
                    ))
                }
            }
        }
    }
    let exact_match_rate = exact_match_rate.ok_or("no k = null (exact) row")?;
    Ok(QuantizedDigest {
        rows: results.len() - 1,
        exact_match_rate,
    })
}

/// What a valid failures-bench artifact reports.
#[derive(Debug, Clone, PartialEq)]
pub struct FailuresDigest {
    /// Intensity rows recorded (including the zero-failure baseline).
    pub rows: usize,
    /// Match rate of the zero-failure (static-network) row.
    pub baseline_match_rate: f64,
    /// Match rate of the highest-intensity row.
    pub worst_match_rate: f64,
}

/// Validate a `BENCH_failures.json` document (the `failures` bench's
/// match-rate-vs-failure-intensity curve; schema
/// [`FAILURES_BENCH_SCHEMA`]). Dispatched from the same
/// `sweep --validate` entry point by its schema tag. Rows must be sorted
/// by ascending `rate`, start at `rate: 0`, and the zero row must assert
/// bit-identity with the static-routing run.
pub fn validate_bench_failures(doc: &str) -> Result<FailuresDigest, String> {
    let v = parse(doc).map_err(|e| format!("not JSON: {e}"))?;
    let schema = v
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("missing schema tag")?;
    if schema != FAILURES_BENCH_SCHEMA {
        return Err(format!(
            "unexpected schema {schema:?} (expected {FAILURES_BENCH_SCHEMA:?})"
        ));
    }
    let scenario = v.get("scenario").ok_or("missing scenario block")?;
    for field in ["topology", "original", "profile", "inflight"] {
        if scenario.get(field).and_then(JsonValue::as_str).is_none() {
            return Err(format!("scenario.{field} missing"));
        }
    }
    for field in ["packets", "seed", "utilization"] {
        if scenario.get(field).and_then(JsonValue::as_f64).is_none() {
            return Err(format!("scenario.{field} missing"));
        }
    }
    let results = v
        .get("results")
        .and_then(JsonValue::as_array)
        .ok_or("missing results array")?;
    if results.len() < 2 {
        return Err("need at least the zero-failure row and one churn row".into());
    }
    let mut last_rate = f64::NEG_INFINITY;
    let mut baseline = None;
    let mut worst = None;
    for (i, r) in results.iter().enumerate() {
        let rate = r
            .get("rate")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("row {i}: rate missing"))?;
        if !(0.0..=1.0).contains(&rate) || rate <= last_rate {
            return Err(format!(
                "row {i}: rate {rate} must ascend within [0, 1] (prev {last_rate})"
            ));
        }
        last_rate = rate;
        for field in [
            "links_failed",
            "rerouted",
            "dropped_at_dead_link",
            "delivered",
            "match_rate",
            "frac_gt_t",
        ] {
            if r.get(field).and_then(JsonValue::as_f64).is_none() {
                return Err(format!("row {i}: {field} missing"));
            }
        }
        let match_rate = r.get("match_rate").and_then(JsonValue::as_f64).unwrap();
        if i == 0 {
            if rate != 0.0 {
                return Err("first row must be the zero-failure baseline".into());
            }
            match r.get("bit_identical_to_static_routing") {
                Some(JsonValue::Bool(true)) => {}
                other => {
                    return Err(format!(
                        "zero-failure row must assert bit_identical_to_static_routing: \
                         true, got {other:?}"
                    ))
                }
            }
            baseline = Some(match_rate);
        }
        worst = Some(match_rate);
    }
    Ok(FailuresDigest {
        rows: results.len(),
        baseline_match_rate: baseline.expect("checked row 0"),
        worst_match_rate: worst.expect("non-empty"),
    })
}

/// What a valid scale-bench artifact reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleDigest {
    /// Packets simulated through the streaming path.
    pub packets: u64,
    /// Flows in the workload.
    pub flows: u64,
    /// Peak resident-set size of the bench process, bytes.
    pub peak_rss_bytes: u64,
    /// LSTF replay match rate on the scale scenario.
    pub replay_match_rate: f64,
}

/// Validate a `BENCH_scale.json` document (the `scale` bench's
/// bounded-memory streaming-pipeline artifact; schema
/// [`SCALE_BENCH_SCHEMA`]). Dispatched from the same `sweep --validate`
/// entry point by its schema tag. Enforces the issue's floors — ≥5M
/// packets, ≥10k flows — plus peak RSS within the recorded budget and a
/// fully-green differential block (streaming and resident layouts
/// bit-identical on records, reports and summaries).
pub fn validate_bench_scale(doc: &str) -> Result<ScaleDigest, String> {
    let v = parse(doc).map_err(|e| format!("not JSON: {e}"))?;
    let schema = v
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("missing schema tag")?;
    if schema != SCALE_BENCH_SCHEMA {
        return Err(format!(
            "unexpected schema {schema:?} (expected {SCALE_BENCH_SCHEMA:?})"
        ));
    }
    let scenario = v.get("scenario").ok_or("missing scenario block")?;
    for field in ["topology", "scheduler"] {
        if scenario.get(field).and_then(JsonValue::as_str).is_none() {
            return Err(format!("scenario.{field} missing"));
        }
    }
    for field in ["utilization", "flow_bytes", "window_ms", "seed"] {
        if scenario.get(field).and_then(JsonValue::as_f64).is_none() {
            return Err(format!("scenario.{field} missing"));
        }
    }
    let num = |field: &str| -> Result<f64, String> {
        v.get(field)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{field} missing"))
    };
    let packets = num("packets")?;
    if packets < 5_000_000.0 {
        return Err(format!("packets {packets} below the 5M floor"));
    }
    let flows = num("flows")?;
    if flows < 10_000.0 {
        return Err(format!("flows {flows} below the 10k floor"));
    }
    let delivered = num("delivered")?;
    let dropped = num("dropped")?;
    if delivered + dropped != packets {
        return Err(format!(
            "delivered {delivered} + dropped {dropped} != packets {packets}"
        ));
    }
    let peak = num("peak_rss_bytes")?;
    let budget = num("rss_budget_bytes")?;
    if peak <= 0.0 || peak > budget {
        return Err(format!(
            "peak_rss_bytes {peak} outside (0, budget {budget}]"
        ));
    }
    if num("packets_per_sec")? <= 0.0 {
        return Err("packets_per_sec must be positive".into());
    }
    let match_rate = num("replay_match_rate")?;
    if !(0.0..=1.0).contains(&match_rate) {
        return Err(format!("replay_match_rate {match_rate} outside [0, 1]"));
    }
    let frac_gt_t = num("replay_frac_gt_t")?;
    if !(0.0..=1.0).contains(&frac_gt_t) {
        return Err(format!("replay_frac_gt_t {frac_gt_t} outside [0, 1]"));
    }
    let diff = v.get("differential").ok_or("missing differential block")?;
    if diff
        .get("workload_packets")
        .and_then(JsonValue::as_f64)
        .is_none_or(|p| p < 100_000.0)
    {
        return Err("differential.workload_packets must be ≥ 100k".into());
    }
    for field in [
        "records_identical",
        "reports_identical",
        "summaries_identical",
    ] {
        match diff.get(field) {
            Some(JsonValue::Bool(true)) => {}
            other => {
                return Err(format!(
                    "differential.{field} must assert true, got {other:?}"
                ))
            }
        }
    }
    Ok(ScaleDigest {
        packets: packets as u64,
        flows: flows as u64,
        peak_rss_bytes: peak as u64,
        replay_match_rate: match_rate,
    })
}

/// What a valid sweep-telemetry time-series artifact reports.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesDigest {
    /// Workers the pool ran with.
    pub workers: u64,
    /// Heartbeat ticks recorded (≥ 1: the completion tick always fires).
    pub ticks: usize,
    /// Jobs done at the final tick (must equal the sweep total).
    pub jobs: u64,
    /// Wall seconds for the whole sweep.
    pub wall_s: f64,
}

/// Validate a `*.timeseries.json` document (the run-level sweep-telemetry
/// artifact `--telemetry` writes; schema [`ups_obs::TIMESERIES_SCHEMA`]).
/// Dispatched from `sweep --validate` by its schema tag. Enforces a
/// non-empty tick history with monotone `t_s`/`done`, per-worker rows on
/// every tick, and a final completion tick where `done == total`.
pub fn validate_obs_timeseries(doc: &str) -> Result<TimeSeriesDigest, String> {
    let v = parse(doc).map_err(|e| format!("not JSON: {e}"))?;
    let schema = v
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("missing schema tag")?;
    if schema != ups_obs::TIMESERIES_SCHEMA {
        return Err(format!(
            "unexpected schema {schema:?} (expected {:?})",
            ups_obs::TIMESERIES_SCHEMA
        ));
    }
    let num = |field: &str| -> Result<f64, String> {
        v.get(field)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{field} missing"))
    };
    let workers = num("workers")?;
    if workers < 1.0 {
        return Err(format!("workers {workers} must be ≥ 1"));
    }
    let wall_s = num("wall_s")?;
    if wall_s < 0.0 {
        return Err(format!("wall_s {wall_s} must be ≥ 0"));
    }
    let ticks = v
        .get("heartbeats")
        .and_then(JsonValue::as_array)
        .ok_or("missing heartbeats array")?;
    if ticks.is_empty() {
        return Err("heartbeats empty (the completion tick always fires)".into());
    }
    let mut last_t = f64::NEG_INFINITY;
    let mut last_done = 0.0;
    let mut final_done = 0.0;
    for (i, tick) in ticks.iter().enumerate() {
        let tick_schema = tick
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("tick {i}: missing schema tag"))?;
        if tick_schema != ups_obs::HEARTBEAT_SCHEMA {
            return Err(format!(
                "tick {i}: unexpected schema {tick_schema:?} (expected {:?})",
                ups_obs::HEARTBEAT_SCHEMA
            ));
        }
        let field = |name: &str| -> Result<f64, String> {
            tick.get(name)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("tick {i}: {name} missing"))
        };
        let t_s = field("t_s")?;
        if t_s < last_t {
            return Err(format!("tick {i}: t_s {t_s} regressed (prev {last_t})"));
        }
        last_t = t_s;
        let done = field("done")?;
        let total = field("total")?;
        if done > total {
            return Err(format!("tick {i}: done {done} exceeds total {total}"));
        }
        if done < last_done {
            return Err(format!(
                "tick {i}: done {done} regressed (prev {last_done})"
            ));
        }
        last_done = done;
        field("jobs_per_sec")?;
        let rows = tick
            .get("workers")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("tick {i}: missing workers array"))?;
        if rows.len() != workers as usize {
            return Err(format!(
                "tick {i}: {} worker rows for a {workers}-worker pool",
                rows.len()
            ));
        }
        for (w, row) in rows.iter().enumerate() {
            for name in ["worker", "jobs", "busy_s", "utilization"] {
                if row.get(name).and_then(JsonValue::as_f64).is_none() {
                    return Err(format!("tick {i} worker {w}: {name} missing"));
                }
            }
        }
        if i == ticks.len() - 1 {
            if done != total {
                return Err(format!(
                    "final tick: done {done} != total {total} (sweep incomplete?)"
                ));
            }
            final_done = done;
        }
    }
    Ok(TimeSeriesDigest {
        workers: workers as u64,
        ticks: ticks.len(),
        jobs: final_done as u64,
        wall_s,
    })
}

/// What a valid probe-overhead bench artifact reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsDigest {
    /// Packets each measured run delivered.
    pub packets: u64,
    /// The overhead ceiling the bench enforced.
    pub tolerance: f64,
    /// Measured probe-off overhead vs the un-instrumented baseline
    /// (negative means probe-off was faster on this run).
    pub probe_off_overhead: f64,
    /// Measured probe-on overhead vs the un-instrumented baseline.
    pub probe_on_overhead: f64,
}

/// Validate a `BENCH_obs.json` document (the `obs_overhead` bench's
/// zero-cost-when-off artifact; schema [`OBS_BENCH_SCHEMA`]). Dispatched
/// from `sweep --validate` by its schema tag. Enforces the issue's
/// contract — probe-off throughput within the recorded tolerance of the
/// un-instrumented baseline, bit-identical fingerprints across all three
/// modes, and a non-empty sampled series in probe-on mode.
pub fn validate_bench_obs(doc: &str) -> Result<ObsDigest, String> {
    let v = parse(doc).map_err(|e| format!("not JSON: {e}"))?;
    let schema = v
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("missing schema tag")?;
    if schema != OBS_BENCH_SCHEMA {
        return Err(format!(
            "unexpected schema {schema:?} (expected {OBS_BENCH_SCHEMA:?})"
        ));
    }
    let scenario = v.get("scenario").ok_or("missing scenario block")?;
    for field in ["topology", "scheduler"] {
        if scenario.get(field).and_then(JsonValue::as_str).is_none() {
            return Err(format!("scenario.{field} missing"));
        }
    }
    let num = |field: &str| -> Result<f64, String> {
        v.get(field)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{field} missing"))
    };
    let packets = num("packets")?;
    if packets <= 0.0 {
        return Err(format!("packets {packets} must be positive"));
    }
    if num("runs")? < 1.0 {
        return Err("runs must be ≥ 1".into());
    }
    let tolerance = num("tolerance")?;
    if tolerance <= 0.0 {
        return Err(format!("tolerance {tolerance} must be positive"));
    }
    for mode in ["uninstrumented", "probe_off", "probe_on"] {
        let m = v.get(mode).ok_or_else(|| format!("missing {mode} block"))?;
        let pps = m
            .get("packets_per_sec")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{mode}.packets_per_sec missing"))?;
        if pps <= 0.0 {
            return Err(format!("{mode}.packets_per_sec {pps} must be positive"));
        }
    }
    if v.get("probe_on")
        .and_then(|m| m.get("samples"))
        .and_then(JsonValue::as_f64)
        .is_none_or(|s| s < 1.0)
    {
        return Err("probe_on.samples must be ≥ 1 (series never sampled)".into());
    }
    let probe_off_overhead = num("probe_off_overhead")?;
    if probe_off_overhead.abs() > tolerance {
        // Two-sided on purpose: a large *negative* overhead means
        // probe-off beat the hook-free loop, i.e. the baseline run (or
        // the machine) cannot be trusted — as invalid as a slowdown.
        return Err(format!(
            "probe_off_overhead {probe_off_overhead} outside ±tolerance {tolerance}"
        ));
    }
    let probe_on_overhead = num("probe_on_overhead")?;
    match v.get("fingerprints_identical") {
        Some(JsonValue::Bool(true)) => {}
        other => {
            return Err(format!(
                "fingerprints_identical must assert true, got {other:?}"
            ))
        }
    }
    Ok(ObsDigest {
        packets: packets as u64,
        tolerance,
        probe_off_overhead,
        probe_on_overhead,
    })
}

/// What a valid divergence-forensics bench artifact reports.
#[derive(Debug, Clone, PartialEq)]
pub struct DivergenceDigest {
    /// Rows on the quantization axis (including the `k = null` exact row).
    pub quantization_rows: usize,
    /// Rows on the failure-rate axis (including the zero-failure row).
    pub failure_rows: usize,
    /// Mismatches attributed across every row of both axes.
    pub total_mismatches: u64,
}

/// Validate a `BENCH_divergence.json` document (the `forensics` bench's
/// blame-distribution artifact; schema [`DIVERGENCE_BENCH_SCHEMA`]).
/// Dispatched from the same `sweep --validate` entry point by its schema
/// tag. Both axes must be present and non-trivial: `quantization` rows
/// ascend in K and end in exactly one `k: null` (exact-LSTF) row;
/// `failures` rows ascend in rate starting from the zero-failure
/// baseline. Every row embeds an `ups-forensics/v1` block whose cause and
/// inversion counts each sum to the row's mismatch count.
pub fn validate_bench_divergence(doc: &str) -> Result<DivergenceDigest, String> {
    let v = parse(doc).map_err(|e| format!("not JSON: {e}"))?;
    let schema = v
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("missing schema tag")?;
    if schema != DIVERGENCE_BENCH_SCHEMA {
        return Err(format!(
            "unexpected schema {schema:?} (expected {DIVERGENCE_BENCH_SCHEMA:?})"
        ));
    }
    let scenario = v.get("scenario").ok_or("missing scenario block")?;
    for field in ["topology", "original", "profile"] {
        if scenario.get(field).and_then(JsonValue::as_str).is_none() {
            return Err(format!("scenario.{field} missing"));
        }
    }
    for field in ["packets", "seed", "utilization"] {
        if scenario.get(field).and_then(JsonValue::as_f64).is_none() {
            return Err(format!("scenario.{field} missing"));
        }
    }
    let mut total_mismatches = 0u64;
    let mut row_common = |axis: &str, i: usize, r: &JsonValue| -> Result<(), String> {
        for field in ["compared", "match_rate"] {
            if r.get(field).and_then(JsonValue::as_f64).is_none() {
                return Err(format!("{axis} row {i}: {field} missing"));
            }
        }
        let d = match r.get("divergence") {
            Some(d @ JsonValue::Object(_)) => d,
            other => {
                return Err(format!(
                    "{axis} row {i}: divergence must be an object, got {other:?}"
                ))
            }
        };
        total_mismatches += validate_divergence_block(&format!("{axis} row {i}"), d)?;
        Ok(())
    };

    let quant = v
        .get("quantization")
        .and_then(JsonValue::as_array)
        .ok_or("missing quantization axis")?;
    if quant.len() < 2 {
        return Err("quantization axis needs at least one finite-K row and the exact row".into());
    }
    let mut last_k = 0.0f64;
    let mut saw_exact = false;
    for (i, r) in quant.iter().enumerate() {
        match r.get("k") {
            Some(JsonValue::Number(k)) if *k >= 1.0 => {
                if saw_exact {
                    return Err(format!(
                        "quantization row {i}: finite K after the k = null exact row"
                    ));
                }
                if *k <= last_k {
                    return Err(format!(
                        "quantization row {i}: K {k} must ascend (prev {last_k})"
                    ));
                }
                last_k = *k;
            }
            Some(JsonValue::Null) => {
                if saw_exact {
                    return Err("more than one k = null (exact) row".into());
                }
                saw_exact = true;
            }
            other => return Err(format!("quantization row {i}: bad k {other:?}")),
        }
        row_common("quantization", i, r)?;
    }
    if !saw_exact {
        return Err("quantization axis lacks the k = null (exact) row".into());
    }

    let failures = v
        .get("failures")
        .and_then(JsonValue::as_array)
        .ok_or("missing failures axis")?;
    if failures.len() < 2 {
        return Err("failures axis needs the zero-failure row and one churn row".into());
    }
    let mut last_rate = f64::NEG_INFINITY;
    for (i, r) in failures.iter().enumerate() {
        let rate = r
            .get("rate")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("failures row {i}: rate missing"))?;
        if !(0.0..=1.0).contains(&rate) || rate <= last_rate {
            return Err(format!(
                "failures row {i}: rate {rate} must ascend within [0, 1] (prev {last_rate})"
            ));
        }
        if i == 0 && rate != 0.0 {
            return Err("first failures row must be the zero-failure baseline".into());
        }
        last_rate = rate;
        row_common("failures", i, r)?;
    }

    Ok(DivergenceDigest {
        quantization_rows: quant.len(),
        failure_rows: failures.len(),
        total_mismatches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::JobSpec;
    use ups_metrics::RunSummary;
    use ups_netsim::prelude::Dur;

    fn record(job_id: usize) -> JobRecord {
        JobRecord {
            spec: std::sync::Arc::new(JobSpec {
                job_id,
                topology: "Line(3)".into(),
                profile: "web-search".into(),
                scheduler: "FIFO".into(),
                traffic: crate::grid::TrafficMode::OpenLoop,
                rest_bps: None,
                utilization: 0.7,
                seed: 1,
                window: Dur::from_ms(1),
                horizon: None,
                buffer_bytes: None,
                replay: false,
                queues: None,
                mapper: None,
                failures: None,
                inflight: None,
                max_packets: None,
            }),
            summary: RunSummary {
                flows: 1,
                packets: 10,
                delivered: 10,
                dropped: 0,
                delay_mean_s: 0.001,
                delay_p99_s: 0.002,
                fct_mean_s: 0.1,
                fct_buckets: vec![(1460, 0.1, 1)],
                jain: Some(1.0),
                replay_match_rate: None,
                replay_frac_gt_t: None,
                quantized_match_rate: None,
                quantized_frac_gt_t: None,
                quantized_fct_delta_s: None,
                transport: None,
                disruption: None,
                divergence: None,
            },
            wall_s: 0.5,
        }
    }

    fn failure_record(job_id: usize) -> JobRecord {
        let mut r = record(job_id);
        let spec = std::sync::Arc::make_mut(&mut r.spec);
        spec.replay = true;
        spec.failures = Some("random-links:0.4".into());
        spec.inflight = Some("reroute".into());
        r.summary.replay_match_rate = Some(0.87);
        r.summary.replay_frac_gt_t = Some(0.01);
        r.summary.disruption = Some(ups_metrics::DisruptionSummary {
            links_failed: 3,
            rerouted: 42,
            dropped_at_dead_link: 5,
            churn_replay_match_rate: Some(0.87),
        });
        r
    }

    fn quantized_record(job_id: usize) -> JobRecord {
        let mut r = record(job_id);
        let spec = std::sync::Arc::make_mut(&mut r.spec);
        spec.replay = true;
        spec.queues = Some(8);
        spec.mapper = Some("dynamic".into());
        r.summary.replay_match_rate = Some(0.99);
        r.summary.replay_frac_gt_t = Some(0.001);
        r.summary.quantized_match_rate = Some(0.91);
        r.summary.quantized_frac_gt_t = Some(0.02);
        r.summary.quantized_fct_delta_s = Some(0.0004);
        // Replay records carry the v5 forensics block; keep the counts
        // conserved (6 + 3 = 9 = 7 + 2) so the validator accepts it.
        r.summary.divergence = Some(ups_metrics::DivergenceSummary {
            mismatches: 9,
            overdue_within_t: 6,
            overdue_beyond_t: 3,
            missing_in_replay: 0,
            dead_link_drop: 0,
            buffer_drop: 0,
            rank_tie_break: 0,
            bucket_collision: 7,
            reroute: 0,
            queue_overflow: 0,
            exit_only: 2,
            top_nodes: vec![(1, 6), (4, 3)],
            hop_lateness_p50_s: Some(1.5e-6),
            hop_lateness_p99_s: Some(8.0e-6),
        });
        r
    }

    fn closed_record(job_id: usize) -> JobRecord {
        let mut r = record(job_id);
        let spec = std::sync::Arc::make_mut(&mut r.spec);
        spec.traffic = crate::grid::TrafficMode::ClosedLoop;
        spec.horizon = Some(Dur::from_ms(20));
        r.summary.transport = Some(ups_metrics::TransportSummary {
            completed_flows: 1,
            goodput_bytes: 9000,
            retransmits: 0,
            rto_events: 0,
            slack_ooo: 0,
        });
        r
    }

    fn grid() -> ScenarioGrid {
        ScenarioGrid {
            topologies: vec!["Line(3)".into()],
            schedulers: vec!["FIFO".into()],
            seeds: vec![1, 2],
            ..ScenarioGrid::default()
        }
    }

    fn pool_stats(workers: usize, jobs: usize) -> PoolStats {
        PoolStats {
            workers,
            jobs,
            per_worker: Vec::new(),
        }
    }

    #[test]
    fn aggregate_validates_and_digest_matches() {
        let records = [record(0), record(1)];
        let stats = pool_stats(4, 2);
        let doc = bench_sweep_json(&grid(), &records, &stats, 2.0);
        let digest = validate_bench_sweep(&doc).expect("valid artifact");
        assert_eq!(
            digest,
            SweepDigest {
                jobs: 2,
                workers: 4,
                jobs_per_sec: 1.0
            }
        );
    }

    #[test]
    fn aggregate_sorts_records_by_job_id() {
        // Hand the records in completion order; the artifact must not care.
        let records = [record(1), record(0)];
        let stats = pool_stats(1, 2);
        let doc = bench_sweep_json(&grid(), &records, &stats, 1.0);
        validate_bench_sweep(&doc).expect("sorted despite unsorted input");
    }

    #[test]
    fn validation_rejects_broken_artifacts() {
        let records = [record(0)];
        let stats = pool_stats(1, 1);
        let good = bench_sweep_json(&grid(), &records, &stats, 1.0);
        assert!(validate_bench_sweep("not json").is_err());
        assert!(validate_bench_sweep("{}").is_err());
        let wrong_schema = good.replace(SWEEP_SCHEMA, "ups-sweep/v0");
        assert!(validate_bench_sweep(&wrong_schema)
            .unwrap_err()
            .contains("schema"));
        let missing_metric = good.replace(r#""jain":"#, r#""gain":"#);
        assert!(validate_bench_sweep(&missing_metric)
            .unwrap_err()
            .contains("jain"));
        // A record schema from the future names the unexpected tag.
        let future = good.replace("ups-sweep-record/v5", "ups-sweep-record/v9");
        let err = validate_bench_sweep(&future).unwrap_err();
        assert!(
            err.contains("ups-sweep-record/v9") && err.contains("unexpected record schema"),
            "unhelpful error: {err}"
        );
        // A bogus traffic label is caught.
        let bad_traffic = good.replace(r#""traffic":"open-loop""#, r#""traffic":"sideways""#);
        assert!(validate_bench_sweep(&bad_traffic)
            .unwrap_err()
            .contains("traffic"));
    }

    #[test]
    fn v1_through_v5_artifacts_all_validate() {
        // A current artifact with open-loop, closed-loop, quantized and
        // failure records (v5 record lines inside the v5 aggregate —
        // each line is validated against its own tag).
        let records = [
            record(0),
            closed_record(1),
            quantized_record(2),
            failure_record(3),
        ];
        let stats = pool_stats(1, 4);
        let current_doc = bench_sweep_json(&grid(), &records, &stats, 1.0);
        validate_bench_sweep(&current_doc).expect("current artifact validates");
        // The forensics conservation law: inflating one cause count
        // breaks Σ causes == mismatches and must be rejected.
        let unconserved = current_doc.replace(r#""overdue_within_t":6"#, r#""overdue_within_t":7"#);
        assert!(validate_bench_sweep(&unconserved)
            .unwrap_err()
            .contains("not conserved"));
        // ...and so does inflating an inversion count.
        let unconserved = current_doc.replace(r#""bucket_collision":7"#, r#""bucket_collision":8"#);
        assert!(validate_bench_sweep(&unconserved)
            .unwrap_err()
            .contains("not conserved"));
        // A divergence block without its own schema tag is rejected.
        let untagged = current_doc.replace(
            r#""divergence":{"schema":"ups-forensics/v1","#,
            r#""divergence":{"#,
        );
        assert!(validate_bench_sweep(&untagged)
            .unwrap_err()
            .contains("schema tag"));
        // queues and mapper must travel together.
        let torn = current_doc.replace(
            r#""queues":8,"mapper":"dynamic""#,
            r#""queues":8,"mapper":null"#,
        );
        assert!(validate_bench_sweep(&torn)
            .unwrap_err()
            .contains("set together"));
        // Quantized metrics without the axis are inconsistent.
        let orphan = current_doc.replace(
            r#""quantized_match_rate":null"#,
            r#""quantized_match_rate":0.5"#,
        );
        assert!(validate_bench_sweep(&orphan)
            .unwrap_err()
            .contains("no queues axis"));
        // failures and inflight must travel together.
        let torn = current_doc.replace(
            r#""failures":"random-links:0.4","inflight":"reroute""#,
            r#""failures":"random-links:0.4","inflight":null"#,
        );
        assert!(validate_bench_sweep(&torn)
            .unwrap_err()
            .contains("inflight"));
        // A failure record must carry its disruption block...
        let gone = current_doc.replace(
            r#""disruption":{"links_failed":3,"rerouted":42,"dropped_at_dead_link":5,"churn_replay_match_rate":0.87}"#,
            r#""disruption":null"#,
        );
        assert!(validate_bench_sweep(&gone)
            .unwrap_err()
            .contains("disruption"));
        // ...and a static record must not.
        let sprouted = current_doc.replacen(
            r#""disruption":null"#,
            r#""disruption":{"links_failed":1,"rerouted":0,"dropped_at_dead_link":0,"churn_replay_match_rate":null}"#,
            1,
        );
        assert!(validate_bench_sweep(&sprouted)
            .unwrap_err()
            .contains("static-network"));

        // A hand-rolled v2 artifact (pre-queues-axis) still validates.
        let v2_doc = r#"{
  "schema": "ups-sweep/v2",
  "grid": {"topologies": ["Line(3)"]},
  "workers": 1,
  "steals": 0,
  "jobs": 1,
  "wall_s": 1.0,
  "jobs_per_sec": 1.0,
  "results": [
    {"schema": "ups-sweep-record/v2", "job_id": 0,
     "scenario": {"topology": "Line(3)", "profile": "web-search", "scheduler": "FIFO",
                  "traffic": "open-loop", "rest_bps": null, "utilization": 0.7,
                  "seed": 1, "window_ms": 1, "horizon_ms": null, "buffer_bytes": null,
                  "replay": false, "max_packets": null},
     "metrics": {"flows": 1, "packets": 10, "delivered": 10, "dropped": 0,
                 "delay_mean_s": 0.001, "delay_p99_s": 0.002, "fct_mean_s": 0.1,
                 "jain": 1.0, "replay_match_rate": null, "replay_frac_gt_t": null,
                 "transport": null, "fct_buckets": []},
     "wall_s": 0.5}
  ]
}"#;
        validate_bench_sweep(v2_doc).expect("v2 artifact still validates");

        // A hand-rolled v1 artifact (numeric jain, no traffic/transport)
        // — the form every pre-traffic-axis BENCH_sweep.json has.
        let v1_doc = r#"{
  "schema": "ups-sweep/v1",
  "grid": {"topologies": ["Line(3)"]},
  "workers": 1,
  "steals": 0,
  "jobs": 1,
  "wall_s": 1.0,
  "jobs_per_sec": 1.0,
  "results": [
    {"schema": "ups-sweep-record/v1", "job_id": 0,
     "scenario": {"topology": "Line(3)", "profile": "web-search", "scheduler": "FIFO",
                  "utilization": 0.7, "seed": 1, "window_ms": 1, "replay": false,
                  "max_packets": null},
     "metrics": {"flows": 1, "packets": 10, "delivered": 10, "dropped": 0,
                 "delay_mean_s": 0.001, "delay_p99_s": 0.002, "fct_mean_s": 0.1,
                 "jain": 1.0, "replay_match_rate": null, "replay_frac_gt_t": null,
                 "fct_buckets": []},
     "wall_s": 0.5}
  ]
}"#;
        validate_bench_sweep(v1_doc).expect("v1 artifact still validates");
        // But a v1 record may not drop jain.
        let broken = v1_doc.replace(r#""jain": 1.0"#, r#""joan": 1.0"#);
        assert!(validate_bench_sweep(&broken).unwrap_err().contains("jain"));

        // A hand-rolled v3 artifact (pre-failure-axis) still validates.
        let v3_doc = r#"{
  "schema": "ups-sweep/v3",
  "grid": {"topologies": ["Line(3)"]},
  "workers": 1,
  "steals": 0,
  "jobs": 1,
  "wall_s": 1.0,
  "jobs_per_sec": 1.0,
  "results": [
    {"schema": "ups-sweep-record/v3", "job_id": 0,
     "scenario": {"topology": "Line(3)", "profile": "web-search", "scheduler": "FIFO",
                  "traffic": "open-loop", "rest_bps": null, "utilization": 0.7,
                  "seed": 1, "window_ms": 1, "horizon_ms": null, "buffer_bytes": null,
                  "replay": false, "queues": null, "mapper": null, "max_packets": null},
     "metrics": {"flows": 1, "packets": 10, "delivered": 10, "dropped": 0,
                 "delay_mean_s": 0.001, "delay_p99_s": 0.002, "fct_mean_s": 0.1,
                 "jain": 1.0, "replay_match_rate": null, "replay_frac_gt_t": null,
                 "quantized_match_rate": null, "quantized_frac_gt_t": null,
                 "quantized_fct_delta_s": null, "transport": null, "fct_buckets": []},
     "wall_s": 0.5}
  ]
}"#;
        validate_bench_sweep(v3_doc).expect("v3 artifact still validates");

        // A hand-rolled v4 record (pre-forensics) still validates: the
        // divergence block is a v5 surface, so its absence is fine.
        let v4_compat_doc = r#"{
  "schema": "ups-sweep/v4",
  "grid": {"topologies": ["Line(3)"]},
  "workers": 1,
  "steals": 0,
  "jobs": 1,
  "wall_s": 1.0,
  "jobs_per_sec": 1.0,
  "results": [
    {"schema": "ups-sweep-record/v4", "job_id": 0,
     "scenario": {"topology": "Line(3)", "profile": "web-search", "scheduler": "FIFO",
                  "traffic": "open-loop", "rest_bps": null, "utilization": 0.7,
                  "seed": 1, "window_ms": 1, "horizon_ms": null, "buffer_bytes": null,
                  "replay": false, "queues": null, "mapper": null,
                  "failures": null, "inflight": null, "max_packets": null},
     "metrics": {"flows": 1, "packets": 10, "delivered": 10, "dropped": 0,
                 "delay_mean_s": 0.001, "delay_p99_s": 0.002, "fct_mean_s": 0.1,
                 "jain": 1.0, "replay_match_rate": null, "replay_frac_gt_t": null,
                 "quantized_match_rate": null, "quantized_frac_gt_t": null,
                 "quantized_fct_delta_s": null, "transport": null, "disruption": null,
                 "fct_buckets": []},
     "wall_s": 0.5}
  ]
}"#;
        validate_bench_sweep(v4_compat_doc).expect("v4 artifact still validates");
    }

    const FAIL_DOC: &str = r#"{
  "schema": "ups-bench-failures/v1",
  "scenario": {"topology": "FatTree(k=4)", "original": "Random", "profile": "random-links",
               "inflight": "reroute", "utilization": 0.7, "seed": 42, "packets": 20000},
  "results": [
    {"rate": 0, "links_failed": 0, "rerouted": 0, "dropped_at_dead_link": 0,
     "delivered": 20000, "match_rate": 0.99, "frac_gt_t": 0.001,
     "bit_identical_to_static_routing": true},
    {"rate": 0.25, "links_failed": 8, "rerouted": 900, "dropped_at_dead_link": 12,
     "delivered": 19988, "match_rate": 0.93, "frac_gt_t": 0.02},
    {"rate": 0.5, "links_failed": 16, "rerouted": 2100, "dropped_at_dead_link": 60,
     "delivered": 19940, "match_rate": 0.81, "frac_gt_t": 0.09}
  ]
}"#;

    #[test]
    fn failures_bench_artifact_validates() {
        let d = validate_bench_failures(FAIL_DOC).expect("valid artifact");
        assert_eq!(
            d,
            FailuresDigest {
                rows: 3,
                baseline_match_rate: 0.99,
                worst_match_rate: 0.81
            }
        );
        assert!(validate_bench_failures("{}").is_err());
        let wrong = FAIL_DOC.replace("ups-bench-failures/v1", "ups-sweep/v4");
        assert!(validate_bench_failures(&wrong)
            .unwrap_err()
            .contains("schema"));
        // The zero row must assert bit-identity with static routing.
        let unasserted = FAIL_DOC.replace(
            r#""bit_identical_to_static_routing": true"#,
            r#""bit_identical_to_static_routing": false"#,
        );
        assert!(validate_bench_failures(&unasserted)
            .unwrap_err()
            .contains("bit_identical_to_static_routing"));
        // Rates must ascend.
        let shuffled = FAIL_DOC.replace(r#""rate": 0.25"#, r#""rate": 0.75"#);
        assert!(validate_bench_failures(&shuffled)
            .unwrap_err()
            .contains("ascend"));
        let missing = FAIL_DOC.replace(r#""rerouted": 900, "#, "");
        assert!(validate_bench_failures(&missing)
            .unwrap_err()
            .contains("rerouted"));
    }

    /// One conserved `ups-forensics/v1` block as a JSON fragment:
    /// causes 5 + 2 + 1 = 8, inversions 4 + 3 + 1 = 8.
    const DIV_BLOCK: &str = r#"{"schema":"ups-forensics/v1","mismatches":8,
      "overdue_within_t":5,"overdue_beyond_t":2,"missing_in_replay":1,
      "dead_link_drop":0,"buffer_drop":0,
      "rank_tie_break":4,"bucket_collision":3,"reroute":0,"queue_overflow":0,"exit_only":1,
      "hop_lateness_p50_s":1.2e-6,"hop_lateness_p99_s":9.0e-6,
      "top_nodes":[{"node":2,"mismatches":5},{"node":9,"mismatches":3}]}"#;

    fn divergence_doc() -> String {
        format!(
            r#"{{
  "schema": "ups-bench-divergence/v1",
  "scenario": {{"topology": "FatTree(k=4)", "original": "Random", "profile": "fixed-mtu",
               "utilization": 0.7, "seed": 42, "packets": 20000}},
  "quantization": [
    {{"k": 1, "compared": 20000, "match_rate": 0.42, "divergence": {d}}},
    {{"k": 8, "compared": 20000, "match_rate": 0.9, "divergence": {d}}},
    {{"k": null, "compared": 20000, "match_rate": 0.99, "divergence": {d}}}
  ],
  "failures": [
    {{"rate": 0, "compared": 20000, "match_rate": 0.99, "divergence": {d}}},
    {{"rate": 0.5, "compared": 19900, "match_rate": 0.8, "divergence": {d}}}
  ]
}}"#,
            d = DIV_BLOCK
        )
    }

    #[test]
    fn divergence_bench_artifact_validates() {
        let doc = divergence_doc();
        let d = validate_bench_divergence(&doc).expect("valid artifact");
        assert_eq!(
            d,
            DivergenceDigest {
                quantization_rows: 3,
                failure_rows: 2,
                total_mismatches: 40, // 8 per row × 5 rows
            }
        );
        assert!(validate_bench_divergence("{}").is_err());
        let wrong = doc.replace("ups-bench-divergence/v1", "ups-sweep/v4");
        assert!(validate_bench_divergence(&wrong)
            .unwrap_err()
            .contains("schema"));
        // Conservation is enforced per row.
        let unconserved = doc.replacen(r#""overdue_within_t":5"#, r#""overdue_within_t":6"#, 1);
        assert!(validate_bench_divergence(&unconserved)
            .unwrap_err()
            .contains("not conserved"));
        // K must ascend and end at the k = null exact row.
        let shuffled = doc.replace(r#""k": 8"#, r#""k": 1"#);
        assert!(validate_bench_divergence(&shuffled)
            .unwrap_err()
            .contains("ascend"));
        let no_exact = doc.replace(r#""k": null"#, r#""k": 64"#);
        assert!(validate_bench_divergence(&no_exact)
            .unwrap_err()
            .contains("exact"));
        // The failure axis starts at the zero-failure baseline.
        let no_zero = doc.replace(r#""rate": 0,"#, r#""rate": 0.1,"#);
        assert!(validate_bench_divergence(&no_zero)
            .unwrap_err()
            .contains("zero-failure"));
        // Both axes are mandatory — a one-axis artifact is not "both
        // axes present", which the issue's acceptance criterion demands.
        let axisless = doc.replace(r#""failures""#, r#""failurez""#);
        assert!(validate_bench_divergence(&axisless)
            .unwrap_err()
            .contains("failures axis"));
    }

    #[test]
    fn closed_loop_record_requires_a_transport_block() {
        let mut r = closed_record(0);
        r.summary.transport = None;
        let stats = pool_stats(1, 1);
        let doc = bench_sweep_json(&grid(), &[r], &stats, 1.0);
        let err = validate_bench_sweep(&doc).unwrap_err();
        assert!(err.contains("transport"), "bad error: {err}");
    }

    const QUANT_DOC: &str = r#"{
  "schema": "ups-bench-quantized/v1",
  "scenario": {"topology": "FatTree(k=4)", "original": "Random", "mapper": "dynamic",
               "utilization": 0.7, "seed": 42, "packets": 20000},
  "results": [
    {"k": 1, "match_rate": 0.42, "frac_gt_t": 0.3, "mean_fct_s": 0.011},
    {"k": 8, "match_rate": 0.9, "frac_gt_t": 0.01, "mean_fct_s": 0.009},
    {"k": null, "match_rate": 0.99, "frac_gt_t": 0.0, "mean_fct_s": 0.008,
     "bit_identical_to_exact_lstf": true}
  ]
}"#;

    #[test]
    fn quantized_bench_artifact_validates() {
        let d = validate_bench_quantized(QUANT_DOC).expect("valid artifact");
        assert_eq!(
            d,
            QuantizedDigest {
                rows: 2,
                exact_match_rate: 0.99
            }
        );
        // Sweep artifacts are not quantized-bench artifacts and vice versa.
        assert!(validate_bench_quantized("{}").is_err());
        let wrong = QUANT_DOC.replace("ups-bench-quantized/v1", "ups-sweep/v3");
        assert!(validate_bench_quantized(&wrong)
            .unwrap_err()
            .contains("schema"));
        // The ∞ row must assert bit-identity with exact LSTF.
        let unasserted = QUANT_DOC.replace(
            r#""bit_identical_to_exact_lstf": true"#,
            r#""bit_identical_to_exact_lstf": false"#,
        );
        assert!(validate_bench_quantized(&unasserted)
            .unwrap_err()
            .contains("bit_identical_to_exact_lstf"));
        let missing = QUANT_DOC.replace(r#""match_rate": 0.9, "#, "");
        assert!(validate_bench_quantized(&missing)
            .unwrap_err()
            .contains("match_rate"));
    }

    const SCALE_DOC: &str = r#"{
  "schema": "ups-bench-scale/v1",
  "scenario": {"topology": "FatTree(k=8)", "scheduler": "FIFO", "utilization": 0.7,
               "flow_bytes": 150000, "window_ms": 128, "seed": 42},
  "packets": 5401700,
  "flows": 54017,
  "delivered": 5401700,
  "dropped": 0,
  "peak_rss_bytes": 239599616,
  "rss_budget_bytes": 536870912,
  "packets_per_sec": 205074,
  "replay_match_rate": 0.948206,
  "replay_frac_gt_t": 0.027197,
  "differential": {"workload_packets": 120000, "records_identical": true,
                   "reports_identical": true, "summaries_identical": true}
}"#;

    #[test]
    fn scale_bench_artifact_validates() {
        let d = validate_bench_scale(SCALE_DOC).expect("valid artifact");
        assert_eq!(
            d,
            ScaleDigest {
                packets: 5_401_700,
                flows: 54_017,
                peak_rss_bytes: 239_599_616,
                replay_match_rate: 0.948206
            }
        );
        assert!(validate_bench_scale("{}").is_err());
        let wrong = SCALE_DOC.replace("ups-bench-scale/v1", "ups-sweep/v4");
        assert!(validate_bench_scale(&wrong).unwrap_err().contains("schema"));
        // The issue's floors are part of validity, not just presence.
        let small = SCALE_DOC.replace(r#""packets": 5401700"#, r#""packets": 400000"#);
        assert!(validate_bench_scale(&small).unwrap_err().contains("floor"));
        let few = SCALE_DOC.replace(r#""flows": 54017"#, r#""flows": 5000"#);
        assert!(validate_bench_scale(&few).unwrap_err().contains("floor"));
        // Peak RSS must sit inside the recorded budget.
        let blown = SCALE_DOC.replace(
            r#""peak_rss_bytes": 239599616"#,
            r#""peak_rss_bytes": 639599616"#,
        );
        assert!(validate_bench_scale(&blown)
            .unwrap_err()
            .contains("peak_rss_bytes"));
        // Conservation: delivered + dropped == packets.
        let leaky = SCALE_DOC.replace(r#""dropped": 0"#, r#""dropped": 7"#);
        assert!(validate_bench_scale(&leaky)
            .unwrap_err()
            .contains("dropped"));
        // The differential gate must be green across all three layers.
        let diverged = SCALE_DOC.replace(
            r#""summaries_identical": true"#,
            r#""summaries_identical": false"#,
        );
        assert!(validate_bench_scale(&diverged)
            .unwrap_err()
            .contains("summaries_identical"));
    }

    const TIMESERIES_DOC: &str = r#"{
  "schema": "ups-obs-timeseries/v2",
  "workers": 2,
  "wall_s": 1.25,
  "heartbeats": [
    {"schema": "ups-obs-heartbeat/v2", "t_s": 0.5, "done": 4, "total": 8,
     "jobs_per_sec": 8.0, "eta_s": 0.5,
     "workers": [
       {"worker": 0, "jobs": 2, "busy_s": 0.4, "utilization": 0.8},
       {"worker": 1, "jobs": 2, "busy_s": 0.3, "utilization": 0.6}]},
    {"schema": "ups-obs-heartbeat/v2", "t_s": 1.25, "done": 8, "total": 8,
     "jobs_per_sec": 6.4, "eta_s": 0.0,
     "workers": [
       {"worker": 0, "jobs": 5, "busy_s": 1.1, "utilization": 0.88},
       {"worker": 1, "jobs": 3, "busy_s": 0.9, "utilization": 0.72}]}
  ]
}"#;

    #[test]
    fn timeseries_artifact_validates() {
        let d = validate_obs_timeseries(TIMESERIES_DOC).expect("valid artifact");
        assert_eq!(
            d,
            TimeSeriesDigest {
                workers: 2,
                ticks: 2,
                jobs: 8,
                wall_s: 1.25
            }
        );
        assert!(validate_obs_timeseries("{}").is_err());
        let wrong = TIMESERIES_DOC.replace("ups-obs-timeseries/v2", "ups-sweep/v5");
        assert!(validate_obs_timeseries(&wrong)
            .unwrap_err()
            .contains("schema"));
        // Progress can never run backwards.
        let regress =
            TIMESERIES_DOC.replace(r#""t_s": 1.25, "done": 8"#, r#""t_s": 0.25, "done": 8"#);
        assert!(validate_obs_timeseries(&regress)
            .unwrap_err()
            .contains("regressed"));
        // The completion tick must show a finished sweep.
        let partial =
            TIMESERIES_DOC.replace(r#""t_s": 1.25, "done": 8"#, r#""t_s": 1.25, "done": 6"#);
        assert!(validate_obs_timeseries(&partial)
            .unwrap_err()
            .contains("final tick"));
        // Worker rows must cover the whole pool on every tick.
        let missing = TIMESERIES_DOC.replace(r#""workers": 2,"#, r#""workers": 3,"#);
        assert!(validate_obs_timeseries(&missing)
            .unwrap_err()
            .contains("worker rows"));
        // The heartbeat thread guarantees at least the completion tick.
        let empty = r#"{"schema": "ups-obs-timeseries/v2", "workers": 1,
                        "wall_s": 0.0, "heartbeats": []}"#;
        assert!(validate_obs_timeseries(empty)
            .unwrap_err()
            .contains("completion tick"));
    }

    const OBS_DOC: &str = r#"{
  "schema": "ups-bench-obs/v1",
  "scenario": {"topology": "FatTree(4)", "scheduler": "LSTF", "utilization": 0.7, "seed": 42},
  "packets": 250000,
  "runs": 3,
  "tolerance": 0.02,
  "uninstrumented": {"packets_per_sec": 1000000.0, "best_s": 0.25},
  "probe_off": {"packets_per_sec": 995000.0, "best_s": 0.2512},
  "probe_on": {"packets_per_sec": 930000.0, "best_s": 0.2688, "samples": 120},
  "probe_off_overhead": 0.005,
  "probe_on_overhead": 0.07,
  "fingerprints_identical": true
}"#;

    #[test]
    fn obs_bench_artifact_validates() {
        let d = validate_bench_obs(OBS_DOC).expect("valid artifact");
        assert_eq!(
            d,
            ObsDigest {
                packets: 250_000,
                tolerance: 0.02,
                probe_off_overhead: 0.005,
                probe_on_overhead: 0.07
            }
        );
        assert!(validate_bench_obs("{}").is_err());
        let wrong = OBS_DOC.replace("ups-bench-obs/v1", "ups-bench-scale/v1");
        assert!(validate_bench_obs(&wrong).unwrap_err().contains("schema"));
        // The zero-cost-when-off contract is the point of the artifact.
        let slow = OBS_DOC.replace(
            r#""probe_off_overhead": 0.005"#,
            r#""probe_off_overhead": 0.05"#,
        );
        assert!(validate_bench_obs(&slow).unwrap_err().contains("tolerance"));
        // A probe-off run that *beats* the hook-free loop by more than
        // the tolerance is a broken baseline, not a win.
        let fast = OBS_DOC.replace(
            r#""probe_off_overhead": 0.005"#,
            r#""probe_off_overhead": -0.05"#,
        );
        assert!(validate_bench_obs(&fast).unwrap_err().contains("tolerance"));
        let slightly_fast = OBS_DOC.replace(
            r#""probe_off_overhead": 0.005"#,
            r#""probe_off_overhead": -0.015"#,
        );
        assert!(validate_bench_obs(&slightly_fast).is_ok());
        // Instrumentation must never change the schedule.
        let diverged = OBS_DOC.replace(
            r#""fingerprints_identical": true"#,
            r#""fingerprints_identical": false"#,
        );
        assert!(validate_bench_obs(&diverged)
            .unwrap_err()
            .contains("fingerprints_identical"));
        // Probe-on must have actually sampled something.
        let unsampled = OBS_DOC.replace(r#""samples": 120"#, r#""samples": 0"#);
        assert!(validate_bench_obs(&unsampled)
            .unwrap_err()
            .contains("samples"));
    }

    #[test]
    fn stream_appends_one_line_per_record() {
        let dir = std::env::temp_dir().join("ups-sweep-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("records.jsonl");
        let stream = ResultStream::create(&path).unwrap();
        stream.append(&record(0));
        stream.append(&record(1));
        let content = std::fs::read_to_string(stream.path()).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = parse(line).expect("each line parses alone");
            assert_eq!(
                v.get("schema").unwrap().as_str(),
                Some("ups-sweep-record/v5")
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
