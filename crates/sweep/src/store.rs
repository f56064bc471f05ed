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
//! Validation is shared by every schema-tagged artifact the workspace
//! writes. A registry (`ARTIFACTS`) maps each top-level tag to its field
//! table (`schema.rs`) and to the invariants a table cannot
//! express; each `validate_*` function (and [`validate_artifact`], which
//! dispatches on the tag) parses, looks the tag up, walks the table,
//! then checks the invariants. Every failure is an `Err` naming the offending
//! field — never a panic.

use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use crate::grid::ScenarioGrid;
use crate::json::{parse, JsonValue};
use crate::pool::PoolStats;
use crate::runner::JobRecord;
use crate::schema::{self, Field};

/// Schema tag of the aggregate artifact this build writes.
pub const SWEEP_SCHEMA: &str = "ups-sweep/v5";

/// Schema tag of the engine-throughput bench artifact
/// (`BENCH_throughput.json`).
pub const THROUGHPUT_BENCH_SCHEMA: &str = "ups-bench-throughput/v1";

/// Schema tag of the streaming-pipeline scale bench artifact
/// (`BENCH_scale.json`), validated by [`validate_bench_scale`].
pub const SCALE_BENCH_SCHEMA: &str = "ups-bench-scale/v1";

/// Schema tag of the probe-overhead bench artifact (`BENCH_obs.json`),
/// validated by [`validate_bench_obs`].
pub const OBS_BENCH_SCHEMA: &str = "ups-bench-obs/v1";

/// Schema tag of the degradation bench artifact (`BENCH_divergence.json`:
/// finite-K and link-churn axes with divergence blame), validated by
/// [`validate_bench_divergence`].
pub const DIVERGENCE_BENCH_SCHEMA: &str = "ups-bench-divergence/v2";

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

/// One artifact family: its top-level schema tag, its field table, and
/// the invariants the table cannot express, which on success render the
/// one-line summary `sweep --validate` prints.
struct Artifact {
    tag: &'static str,
    table: &'static [Field],
    invariants: fn(&JsonValue) -> Result<String, String>,
}

/// Every top-level artifact family, keyed by schema tag — the registry
/// [`validate_artifact`] and each `validate_*` function look tags up in.
const ARTIFACTS: &[Artifact] = &[
    Artifact {
        tag: SWEEP_SCHEMA,
        table: schema::SWEEP,
        invariants: |v| sweep_invariants(v).map(|d| d.to_string()),
    },
    Artifact {
        tag: THROUGHPUT_BENCH_SCHEMA,
        table: schema::THROUGHPUT,
        invariants: throughput_invariants,
    },
    Artifact {
        tag: SCALE_BENCH_SCHEMA,
        table: schema::SCALE,
        invariants: |v| scale_invariants(v).map(|d| d.to_string()),
    },
    Artifact {
        tag: OBS_BENCH_SCHEMA,
        table: schema::OBS,
        invariants: |v| obs_invariants(v).map(|d| d.to_string()),
    },
    Artifact {
        tag: DIVERGENCE_BENCH_SCHEMA,
        table: schema::DIVERGENCE,
        invariants: |v| divergence_invariants(v).map(|d| d.to_string()),
    },
    Artifact {
        tag: ups_obs::TIMESERIES_SCHEMA,
        table: schema::TIMESERIES,
        invariants: |v| timeseries_invariants(v).map(|d| d.to_string()),
    },
];

/// Validate any schema-tagged artifact: parse, pick the family by its
/// `"schema"` tag, walk the family's table, check its invariants. Returns
/// the family's one-line summary.
pub fn validate_artifact(doc: &str) -> Result<String, String> {
    let v = parse(doc).map_err(|e| format!("not JSON: {e}"))?;
    let artifact = lookup(schema_tag(&v)?)?;
    schema::walk(&v, artifact.table, "")?;
    (artifact.invariants)(&v)
}

/// Parse `doc`, require its tag to be `tag`, and walk that family's
/// table — the shared front half of every typed `validate_*`.
fn load(doc: &str, tag: &str) -> Result<JsonValue, String> {
    let v = parse(doc).map_err(|e| format!("not JSON: {e}"))?;
    let found = schema_tag(&v)?;
    if found != tag {
        return Err(format!("unexpected schema {found:?} (expected {tag:?})"));
    }
    schema::walk(&v, lookup(tag)?.table, "")?;
    Ok(v)
}

fn lookup(tag: &str) -> Result<&'static Artifact, String> {
    ARTIFACTS.iter().find(|a| a.tag == tag).ok_or_else(|| {
        let known: Vec<&str> = ARTIFACTS.iter().map(|a| a.tag).collect();
        format!("unknown schema {tag:?} (expected one of {known:?})")
    })
}

fn schema_tag(v: &JsonValue) -> Result<&str, String> {
    v.get("schema")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "missing schema tag".to_string())
}

/// A number field of a walked object (the walk guarantees presence; the
/// `Err` keeps invariant code panic-free regardless).
fn num(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{key} missing"))
}

/// An array field of a walked object.
fn rows<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    v.get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{key} missing"))
}

/// A nullable field holds a value (is neither `null` nor absent).
fn is_set(v: &JsonValue, key: &str) -> bool {
    !matches!(v.get(key), None | Some(JsonValue::Null))
}

/// The divergence bench's K-axis rule: finite K ascending (each ≥ 1),
/// then exactly one `k: null` (exact-LSTF) row, last.
fn k_axis(axis: &str, rows: &[JsonValue]) -> Result<(), String> {
    let mut last_k = 0.0f64;
    let mut saw_exact = false;
    for (i, r) in rows.iter().enumerate() {
        match r.get("k").and_then(JsonValue::as_f64) {
            _ if saw_exact => {
                return Err(format!(
                    "{axis}[{i}]: row after the k = null (exact) row — more than one exact row, \
                     or finite K after it"
                ))
            }
            None => saw_exact = true,
            Some(k) if k >= 1.0 && k > last_k => last_k = k,
            Some(k) => {
                return Err(format!(
                    "{axis}[{i}]: K {k} must be ≥ 1 and ascend (prev {last_k})"
                ))
            }
        }
    }
    if saw_exact {
        Ok(())
    } else {
        Err(format!("{axis} lacks the k = null (exact) row"))
    }
}

/// The divergence bench's failure-rate axis rule: rates ascend within
/// [0, 1], starting at the zero-failure baseline.
fn rate_axis(axis: &str, rows: &[JsonValue]) -> Result<(), String> {
    let mut last_rate = f64::NEG_INFINITY;
    for (i, r) in rows.iter().enumerate() {
        let rate = num(r, "rate")?;
        if !(0.0..=1.0).contains(&rate) || rate <= last_rate {
            return Err(format!(
                "{axis}[{i}]: rate {rate} must ascend within [0, 1] (prev {last_rate})"
            ));
        }
        if i == 0 && rate != 0.0 {
            return Err(format!(
                "{axis}[0]: the first row must be the zero-failure baseline"
            ));
        }
        last_rate = rate;
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

/// The conservation law of an `ups-forensics/v1` block wherever it
/// appears (the record's `divergence` block, every divergence-bench
/// row): each mismatched packet got exactly one cause and one inversion
/// class, so Σ causes ≡ Σ inversions ≡ mismatches. Returns the block's
/// mismatch count.
fn conserved(ctx: &str, d: &JsonValue) -> Result<u64, String> {
    let mismatches = num(d, "mismatches")?;
    for (family, names) in [
        ("cause", &DIVERGENCE_CAUSES),
        ("inversion", &DIVERGENCE_INVERSIONS),
    ] {
        let mut sum = 0.0;
        for name in *names {
            sum += num(d, name)?;
        }
        if sum != mismatches {
            return Err(format!(
                "{ctx}: divergence {family} counts sum to {sum} \
                 but mismatches is {mismatches} — attribution not conserved"
            ));
        }
    }
    Ok(mismatches as u64)
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

impl fmt::Display for SweepDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} jobs, {} workers, {:.2} jobs/sec",
            self.jobs, self.workers, self.jobs_per_sec
        )
    }
}

/// Validate a `BENCH_sweep.json` document ([`SWEEP_SCHEMA`], every
/// record line `ups-sweep-record/v5`) against [`schema::SWEEP`], then
/// its invariants: `jobs` matches the dense, sorted `results`; closed-loop
/// records carry a transport block; `queues`/`mapper` and
/// `failures`/`inflight`/`disruption` are set together; every
/// divergence block is conserved.
pub fn validate_bench_sweep(doc: &str) -> Result<SweepDigest, String> {
    sweep_invariants(&load(doc, SWEEP_SCHEMA)?)
}

fn sweep_invariants(v: &JsonValue) -> Result<SweepDigest, String> {
    let jobs_per_sec = num(v, "jobs_per_sec")?;
    if jobs_per_sec <= 0.0 {
        return Err(format!("jobs_per_sec {jobs_per_sec} not positive"));
    }
    let jobs = num(v, "jobs")? as usize;
    let results = rows(v, "results")?;
    if results.len() != jobs {
        return Err(format!(
            "jobs field says {jobs} but results holds {}",
            results.len()
        ));
    }
    for (i, r) in results.iter().enumerate() {
        let id = num(r, "job_id")?;
        if id as usize != i {
            return Err(format!("results[{i}] has job_id {id} — not sorted/dense"));
        }
        record_invariants(&format!("results[{i}]"), r)?;
    }
    Ok(SweepDigest {
        jobs,
        workers: num(v, "workers")? as usize,
        jobs_per_sec,
    })
}

/// The cross-field rules of one `ups-sweep-record/v5` line.
fn record_invariants(ctx: &str, r: &JsonValue) -> Result<(), String> {
    let (Some(scenario), Some(metrics)) = (r.get("scenario"), r.get("metrics")) else {
        return Err(format!("{ctx}: scenario or metrics missing"));
    };
    if scenario.get("traffic").and_then(JsonValue::as_str) == Some("closed-loop")
        && !is_set(metrics, "transport")
    {
        return Err(format!("{ctx}: closed-loop record lacks a transport block"));
    }
    let queues = is_set(scenario, "queues");
    if queues != is_set(scenario, "mapper") {
        return Err(format!(
            "{ctx}: scenario.queues and scenario.mapper must be set together"
        ));
    }
    if scenario.get("queues").and_then(JsonValue::as_f64) == Some(0.0) {
        return Err(format!("{ctx}: scenario.queues must be ≥ 1"));
    }
    for field in [
        "quantized_match_rate",
        "quantized_frac_gt_t",
        "quantized_fct_delta_s",
    ] {
        if !queues && is_set(metrics, field) {
            return Err(format!(
                "{ctx}: metrics.{field} set but the scenario has no queues axis"
            ));
        }
    }
    let failures = is_set(scenario, "failures");
    if failures != is_set(scenario, "inflight") {
        return Err(format!(
            "{ctx}: scenario.failures and scenario.inflight must be set together"
        ));
    }
    match (failures, is_set(metrics, "disruption")) {
        (true, false) => {
            return Err(format!("{ctx}: failure record lacks a disruption block"));
        }
        (false, true) => {
            return Err(format!(
                "{ctx}: disruption block on a static-network record"
            ));
        }
        _ => {}
    }
    if let Some(d @ JsonValue::Object(_)) = metrics.get("divergence") {
        conserved(&format!("{ctx}.metrics"), d)?;
    }
    Ok(())
}

/// `BENCH_throughput.json`: every engine simulated the same schedule.
fn throughput_invariants(v: &JsonValue) -> Result<String, String> {
    let delivered = v
        .get("scenario")
        .map_or(Err("scenario missing".to_string()), |s| num(s, "delivered"))?;
    let results = rows(v, "results")?;
    if results.is_empty() {
        return Err("results array is empty".into());
    }
    for (i, r) in results.iter().enumerate() {
        if num(r, "delivered")? != delivered {
            return Err(format!(
                "results[{i}].delivered differs from scenario.delivered {delivered} — \
                 the engines simulated different schedules"
            ));
        }
        if num(r, "packets_per_sec")? <= 0.0 {
            return Err(format!("results[{i}].packets_per_sec must be positive"));
        }
    }
    Ok(format!(
        "{} engines, speedup {:.2}x packets/sec",
        results.len(),
        num(v, "speedup_packets_per_sec")?
    ))
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

impl fmt::Display for ScaleDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} packets / {} flows streamed, peak RSS {:.1} MiB, match rate {:.4}",
            self.packets,
            self.flows,
            self.peak_rss_bytes as f64 / (1024.0 * 1024.0),
            self.replay_match_rate
        )
    }
}

/// Validate a `BENCH_scale.json` document (the `scale` bench's
/// bounded-memory streaming-pipeline artifact; schema
/// [`SCALE_BENCH_SCHEMA`]). Enforces the scale floors — ≥5M packets,
/// ≥10k flows — plus peak RSS within the recorded budget; the table
/// requires the differential block (streaming and resident layouts
/// bit-identical on records, reports and summaries) to assert `true`.
pub fn validate_bench_scale(doc: &str) -> Result<ScaleDigest, String> {
    scale_invariants(&load(doc, SCALE_BENCH_SCHEMA)?)
}

fn scale_invariants(v: &JsonValue) -> Result<ScaleDigest, String> {
    let packets = num(v, "packets")?;
    if packets < 5_000_000.0 {
        return Err(format!("packets {packets} below the 5M floor"));
    }
    let flows = num(v, "flows")?;
    if flows < 10_000.0 {
        return Err(format!("flows {flows} below the 10k floor"));
    }
    let delivered = num(v, "delivered")?;
    let dropped = num(v, "dropped")?;
    if delivered + dropped != packets {
        return Err(format!(
            "delivered {delivered} + dropped {dropped} != packets {packets}"
        ));
    }
    let peak = num(v, "peak_rss_bytes")?;
    let budget = num(v, "rss_budget_bytes")?;
    if peak <= 0.0 || peak > budget {
        return Err(format!(
            "peak_rss_bytes {peak} outside (0, budget {budget}]"
        ));
    }
    if num(v, "packets_per_sec")? <= 0.0 {
        return Err("packets_per_sec must be positive".into());
    }
    let match_rate = num(v, "replay_match_rate")?;
    for (name, x) in [
        ("replay_match_rate", match_rate),
        ("replay_frac_gt_t", num(v, "replay_frac_gt_t")?),
    ] {
        if !(0.0..=1.0).contains(&x) {
            return Err(format!("{name} {x} outside [0, 1]"));
        }
    }
    let diff_packets = v
        .get("differential")
        .map_or(Err("differential missing".to_string()), |d| {
            num(d, "workload_packets")
        })?;
    if diff_packets < 100_000.0 {
        return Err("differential.workload_packets must be ≥ 100k".into());
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

impl fmt::Display for TimeSeriesDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} heartbeat ticks over {:.2}s, {} jobs on {} workers",
            self.ticks, self.wall_s, self.jobs, self.workers
        )
    }
}

/// Validate a `*.timeseries.json` document (the run-level sweep-telemetry
/// artifact `--telemetry` writes; schema [`ups_obs::TIMESERIES_SCHEMA`]).
/// Enforces a non-empty tick history with monotone `t_s`/`done`,
/// per-worker rows on every tick, and a final completion tick where
/// `done == total`.
pub fn validate_obs_timeseries(doc: &str) -> Result<TimeSeriesDigest, String> {
    timeseries_invariants(&load(doc, ups_obs::TIMESERIES_SCHEMA)?)
}

fn timeseries_invariants(v: &JsonValue) -> Result<TimeSeriesDigest, String> {
    let workers = num(v, "workers")?;
    if workers < 1.0 {
        return Err(format!("workers {workers} must be ≥ 1"));
    }
    let wall_s = num(v, "wall_s")?;
    if wall_s < 0.0 {
        return Err(format!("wall_s {wall_s} must be ≥ 0"));
    }
    let ticks = rows(v, "heartbeats")?;
    let Some(last) = ticks.last() else {
        return Err("heartbeats empty (the completion tick always fires)".into());
    };
    let mut last_t = f64::NEG_INFINITY;
    let mut last_done = 0.0;
    for (i, tick) in ticks.iter().enumerate() {
        let t_s = num(tick, "t_s")?;
        if t_s < last_t {
            return Err(format!("tick {i}: t_s {t_s} regressed (prev {last_t})"));
        }
        last_t = t_s;
        let done = num(tick, "done")?;
        let total = num(tick, "total")?;
        if done > total {
            return Err(format!("tick {i}: done {done} exceeds total {total}"));
        }
        if done < last_done {
            return Err(format!(
                "tick {i}: done {done} regressed (prev {last_done})"
            ));
        }
        last_done = done;
        let worker_rows = rows(tick, "workers")?.len();
        if worker_rows != workers as usize {
            return Err(format!(
                "tick {i}: {worker_rows} worker rows for a {workers}-worker pool"
            ));
        }
    }
    let (done, total) = (num(last, "done")?, num(last, "total")?);
    if done != total {
        return Err(format!(
            "final tick: done {done} != total {total} (sweep incomplete?)"
        ));
    }
    Ok(TimeSeriesDigest {
        workers: workers as u64,
        ticks: ticks.len(),
        jobs: done as u64,
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

impl fmt::Display for ObsDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} packets, probe-off overhead {:+.2}% (tolerance {:.0}%), probe-on {:+.2}%",
            self.packets,
            self.probe_off_overhead * 100.0,
            self.tolerance * 100.0,
            self.probe_on_overhead * 100.0
        )
    }
}

/// Validate a `BENCH_obs.json` document (the `obs_overhead` bench's
/// zero-cost-when-off artifact; schema [`OBS_BENCH_SCHEMA`]). Enforces
/// the contract — probe-off throughput within the recorded tolerance of
/// the un-instrumented baseline and a non-empty sampled series in
/// probe-on mode; the table requires `fingerprints_identical: true`.
pub fn validate_bench_obs(doc: &str) -> Result<ObsDigest, String> {
    obs_invariants(&load(doc, OBS_BENCH_SCHEMA)?)
}

fn obs_invariants(v: &JsonValue) -> Result<ObsDigest, String> {
    let packets = num(v, "packets")?;
    if packets <= 0.0 {
        return Err(format!("packets {packets} must be positive"));
    }
    if num(v, "runs")? < 1.0 {
        return Err("runs must be ≥ 1".into());
    }
    let tolerance = num(v, "tolerance")?;
    if tolerance <= 0.0 {
        return Err(format!("tolerance {tolerance} must be positive"));
    }
    for mode in ["uninstrumented", "probe_off", "probe_on"] {
        let m = v.get(mode).ok_or_else(|| format!("{mode} missing"))?;
        let pps = num(m, "packets_per_sec")?;
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
    let probe_off_overhead = num(v, "probe_off_overhead")?;
    if probe_off_overhead.abs() > tolerance {
        // Two-sided on purpose: a large *negative* overhead means
        // probe-off beat the hook-free loop, i.e. the baseline run (or
        // the machine) cannot be trusted — as invalid as a slowdown.
        return Err(format!(
            "probe_off_overhead {probe_off_overhead} outside ±tolerance {tolerance}"
        ));
    }
    Ok(ObsDigest {
        packets: packets as u64,
        tolerance,
        probe_off_overhead,
        probe_on_overhead: num(v, "probe_on_overhead")?,
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

impl fmt::Display for DivergenceDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} quantization rows + {} failure rows, {} mismatches attributed (conserved)",
            self.quantization_rows, self.failure_rows, self.total_mismatches
        )
    }
}

/// Validate a `BENCH_divergence.json` document (the `forensics` bench's
/// degradation artifact; schema [`DIVERGENCE_BENCH_SCHEMA`]). Both axes
/// must be present and non-trivial: `quantization` rows ascend in K and
/// end in exactly one `k: null` (exact-LSTF) row, which asserts
/// `bit_identical_to_exact_lstf: true`; `failures` rows ascend in rate
/// from the zero-failure baseline, which asserts
/// `bit_identical_to_static_routing: true`. Every row's
/// `ups-forensics/v1` block must be conserved.
pub fn validate_bench_divergence(doc: &str) -> Result<DivergenceDigest, String> {
    divergence_invariants(&load(doc, DIVERGENCE_BENCH_SCHEMA)?)
}

fn divergence_invariants(v: &JsonValue) -> Result<DivergenceDigest, String> {
    let quant = rows(v, "quantization")?;
    if quant.len() < 2 {
        return Err("quantization axis needs at least one finite-K row and the exact row".into());
    }
    k_axis("quantization", quant)?;
    // The table admits each bit-identity key as optional; the baseline
    // row of its axis must carry it (the walk already pinned it to true).
    if quant
        .last()
        .and_then(|r| r.get("bit_identical_to_exact_lstf"))
        .is_none()
    {
        return Err("the exact row must assert bit_identical_to_exact_lstf: true".into());
    }
    let failures = rows(v, "failures")?;
    if failures.len() < 2 {
        return Err("failures axis needs the zero-failure row and one churn row".into());
    }
    rate_axis("failures", failures)?;
    if failures[0].get("bit_identical_to_static_routing").is_none() {
        return Err(
            "the zero-failure row must assert bit_identical_to_static_routing: true".into(),
        );
    }
    let mut total_mismatches = 0;
    for (axis, axis_rows) in [("quantization", quant), ("failures", failures)] {
        for (i, r) in axis_rows.iter().enumerate() {
            let d = r
                .get("divergence")
                .ok_or_else(|| format!("{axis}[{i}].divergence missing"))?;
            total_mismatches += conserved(&format!("{axis}[{i}]"), d)?;
        }
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
    use crate::runner::RECORD_SCHEMA;
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
            err.contains("ups-sweep-record/v9") && err.starts_with("results[0].schema: unexpected"),
            "unhelpful error: {err}"
        );
        // Key-exact: a key the record table does not list is rejected.
        let stray = good.replace(r#""job_id":0,"#, r#""job_id":0,"extra":1,"#);
        assert_eq!(
            validate_bench_sweep(&stray).unwrap_err(),
            "results[0].extra: key not in the schema"
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
        // failure records: v5 record lines inside the v5 aggregate, the
        // only versions accepted.
        let records = [
            record(0),
            closed_record(1),
            quantized_record(2),
            failure_record(3),
        ];
        let stats = pool_stats(1, 4);
        let current_doc = bench_sweep_json(&grid(), &records, &stats, 1.0);
        validate_bench_sweep(&current_doc).expect("current artifact validates");
        // Retired record versions are rejected on their tag.
        let retired = current_doc.replace(RECORD_SCHEMA, "ups-sweep-record/v4");
        assert!(validate_bench_sweep(&retired)
            .unwrap_err()
            .starts_with("results[0].schema: unexpected \"ups-sweep-record/v4\""));
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
        assert_eq!(
            validate_bench_sweep(&untagged).unwrap_err(),
            "results[2].metrics.divergence.schema missing"
        );
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
  "schema": "ups-bench-divergence/v2",
  "scenario": {{"topology": "FatTree(k=4)", "original": "Random", "mapper": "sppifo",
               "profile": "random-links", "inflight": "reroute", "utilization": 0.7,
               "seed": 42, "packets": 20000, "flows": 30, "window_ms": 8.000}},
  "quantization": [
    {{"k": 1, "mean_fct_s": 0.011, "missing": 0, "compared": 20000, "match_rate": 0.42,
     "frac_gt_t": 0.3, "max_lateness_us": 900.5, "divergence": {d}}},
    {{"k": 8, "mean_fct_s": 0.009, "missing": 0, "compared": 20000, "match_rate": 0.9,
     "frac_gt_t": 0.01, "max_lateness_us": 120.25, "divergence": {d}}},
    {{"k": null, "mean_fct_s": 0.008, "missing": 0, "bit_identical_to_exact_lstf": true,
     "compared": 20000, "match_rate": 0.99, "frac_gt_t": 0.0, "max_lateness_us": 4.8,
     "divergence": {d}}}
  ],
  "failures": [
    {{"rate": 0, "links_failed": 0, "rerouted": 0, "dropped_at_dead_link": 0,
     "delivered": 20000, "bit_identical_to_static_routing": true, "compared": 20000,
     "match_rate": 0.99, "frac_gt_t": 0.001, "max_lateness_us": 4.8, "divergence": {d}}},
    {{"rate": 0.25, "links_failed": 8, "rerouted": 900, "dropped_at_dead_link": 12,
     "delivered": 19988, "compared": 19988, "match_rate": 0.93, "frac_gt_t": 0.02,
     "max_lateness_us": 4.8, "divergence": {d}}},
    {{"rate": 0.5, "links_failed": 16, "rerouted": 2100, "dropped_at_dead_link": 60,
     "delivered": 19940, "compared": 19940, "match_rate": 0.81, "frac_gt_t": 0.09,
     "max_lateness_us": 4.8, "divergence": {d}}}
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
                failure_rows: 3,
                total_mismatches: 48, // 8 per row × 6 rows
            }
        );
        assert!(validate_bench_divergence("{}").is_err());
        let wrong = doc.replace("ups-bench-divergence/v2", "ups-sweep/v5");
        assert!(validate_bench_divergence(&wrong)
            .unwrap_err()
            .contains("schema"));
        // v1 (before the quantized and failures benches folded in) is
        // retired: the dispatch no longer knows its tag.
        let v1 = doc.replace("ups-bench-divergence/v2", "ups-bench-divergence/v1");
        assert!(validate_artifact(&v1)
            .unwrap_err()
            .starts_with(r#"unknown schema "ups-bench-divergence/v1""#));
        // Conservation is enforced per row.
        let unconserved = doc.replacen(r#""overdue_within_t":5"#, r#""overdue_within_t":6"#, 1);
        assert!(validate_bench_divergence(&unconserved)
            .unwrap_err()
            .contains("not conserved"));
        let no_exact = doc.replace(r#""k": null"#, r#""k": 64"#);
        assert!(validate_bench_divergence(&no_exact)
            .unwrap_err()
            .contains("exact"));
        // The failure axis starts at the zero-failure baseline.
        let no_zero = doc.replace(r#""rate": 0,"#, r#""rate": 0.1,"#);
        assert!(validate_bench_divergence(&no_zero)
            .unwrap_err()
            .contains("zero-failure"));
        // Both axes are mandatory.
        let axisless = doc.replace(r#""failures""#, r#""failurez""#);
        assert_eq!(
            validate_bench_divergence(&axisless).unwrap_err(),
            "failures missing"
        );
    }

    /// The K axis of `ups-bench-divergence/v2`: the checks the retired
    /// `ups-bench-quantized/v1` validator made, now on the quantization
    /// rows of the one degradation artifact.
    #[test]
    fn quantized_bench_artifact_validates() {
        let doc = divergence_doc();
        validate_bench_divergence(&doc).expect("valid artifact");
        // The retired tag no longer validates.
        let retired = doc.replace("ups-bench-divergence/v2", "ups-bench-quantized/v1");
        assert!(validate_bench_divergence(&retired)
            .unwrap_err()
            .contains("schema"));
        assert!(validate_artifact(&retired)
            .unwrap_err()
            .starts_with("unknown schema"));
        // The ∞ row must assert bit-identity with exact LSTF...
        let unasserted = doc.replace(
            r#""bit_identical_to_exact_lstf": true"#,
            r#""bit_identical_to_exact_lstf": false"#,
        );
        assert_eq!(
            validate_bench_divergence(&unasserted).unwrap_err(),
            "quantization[2].bit_identical_to_exact_lstf: expected true, got false"
        );
        // ...and may not leave the assertion out.
        let silent = doc.replace(r#""bit_identical_to_exact_lstf": true,"#, "");
        assert!(validate_bench_divergence(&silent)
            .unwrap_err()
            .contains("must assert bit_identical_to_exact_lstf"));
        // K must ascend and end at the k = null exact row.
        let shuffled = doc.replace(r#""k": 8"#, r#""k": 1"#);
        assert!(validate_bench_divergence(&shuffled)
            .unwrap_err()
            .contains("ascend"));
        let after_exact = doc.replacen(r#""k": 1,"#, r#""k": null,"#, 1);
        assert!(validate_bench_divergence(&after_exact)
            .unwrap_err()
            .contains("after the k = null"));
        // Every K-row column is required.
        for (field, gone) in [
            ("match_rate", r#""match_rate": 0.9,"#),
            ("mean_fct_s", r#""mean_fct_s": 0.009, "#),
            ("max_lateness_us", r#""max_lateness_us": 120.25, "#),
        ] {
            let missing = doc.replace(gone, "");
            assert_eq!(
                validate_bench_divergence(&missing).unwrap_err(),
                format!("quantization[1].{field} missing")
            );
        }
    }

    /// The rate axis of `ups-bench-divergence/v2`: the checks the retired
    /// `ups-bench-failures/v1` validator made, now on the failures rows.
    #[test]
    fn failures_bench_artifact_validates() {
        let doc = divergence_doc();
        validate_bench_divergence(&doc).expect("valid artifact");
        let retired = doc.replace("ups-bench-divergence/v2", "ups-bench-failures/v1");
        assert!(validate_bench_divergence(&retired)
            .unwrap_err()
            .contains("schema"));
        // The zero row must assert bit-identity with static routing...
        let unasserted = doc.replace(
            r#""bit_identical_to_static_routing": true"#,
            r#""bit_identical_to_static_routing": false"#,
        );
        assert!(validate_bench_divergence(&unasserted)
            .unwrap_err()
            .contains("bit_identical_to_static_routing"));
        // ...and may not leave the assertion out.
        let silent = doc.replace(r#""bit_identical_to_static_routing": true,"#, "");
        assert!(validate_bench_divergence(&silent)
            .unwrap_err()
            .contains("must assert bit_identical_to_static_routing"));
        // Rates must ascend.
        let shuffled = doc.replace(r#""rate": 0.25"#, r#""rate": 0.75"#);
        assert!(validate_bench_divergence(&shuffled)
            .unwrap_err()
            .contains("ascend"));
        let missing = doc.replace(r#""rerouted": 900, "#, "");
        assert_eq!(
            validate_bench_divergence(&missing).unwrap_err(),
            "failures[1].rerouted missing"
        );
        // The in-flight policy is one of the two the runner knows.
        let sideways = doc.replace(r#""inflight": "reroute""#, r#""inflight": "sideways""#);
        assert!(validate_bench_divergence(&sideways)
            .unwrap_err()
            .starts_with("scenario.inflight: unexpected"));
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
        let wrong = SCALE_DOC.replace("ups-bench-scale/v1", "ups-sweep/v5");
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
  "flows": 92,
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
    fn count_fields_reject_negative_and_fractional_values() {
        let stats = pool_stats(1, 0);
        let empty = bench_sweep_json(&grid(), &[], &stats, 1.0)
            .replace(r#""jobs_per_sec": 0"#, r#""jobs_per_sec": 1"#);
        validate_bench_sweep(&empty).expect("an empty sweep is well-formed");
        // `-5.0 as usize` is 0, so a lenient reader would call this a
        // valid empty sweep; the count kind rejects it on the field.
        for bad in ["-5", "2.5", "null"] {
            let doc = empty.replace(r#""jobs": 0"#, &format!(r#""jobs": {bad}"#));
            let err = validate_bench_sweep(&doc).unwrap_err();
            assert!(err.starts_with("jobs: expected a count"), "{bad}: {err}");
        }
        let doc = empty.replace(r#""workers": 1"#, r#""workers": -1"#);
        assert!(validate_bench_sweep(&doc)
            .unwrap_err()
            .starts_with("workers: expected a count"));
    }

    #[test]
    fn emitters_round_trip_through_their_tables() {
        // Every record shape the runner writes walks the record table
        // key-exactly, and so does each block on its own.
        let records = [
            record(0),
            closed_record(1),
            quantized_record(2),
            failure_record(3),
        ];
        for r in &records {
            let line = parse(&r.to_json(true)).unwrap();
            schema::walk(&line, schema::RECORD, "record").unwrap();
            let metrics = parse(&r.summary.to_json()).unwrap();
            schema::walk(&metrics, schema::RUN_SUMMARY, "metrics").unwrap();
        }
        let divergence = records[2].summary.divergence.as_ref().unwrap();
        schema::walk(
            &parse(&divergence.to_json()).unwrap(),
            schema::FORENSICS,
            "d",
        )
        .unwrap();
        // The paper-default grid carries excludes, so the exclude rows
        // are covered too.
        let paper_grid = ScenarioGrid::default();
        assert!(!paper_grid.excludes.is_empty());
        schema::walk(&parse(&paper_grid.to_json()).unwrap(), schema::GRID, "grid").unwrap();
        // Telemetry: a tick before any job finished (eta null) and after.
        let row = ups_obs::WorkerRow {
            worker: 0,
            jobs: 1,
            busy_s: 0.5,
            utilization: 0.5,
        };
        let ticks = [
            ups_obs::HeartbeatRecord {
                t_s: 0.5,
                done: 0,
                total: 1,
                jobs_per_sec: 0.0,
                eta_s: None,
                workers: vec![row],
            },
            ups_obs::HeartbeatRecord {
                t_s: 1.0,
                done: 1,
                total: 1,
                jobs_per_sec: 1.0,
                eta_s: Some(0.0),
                workers: vec![row],
            },
        ];
        let doc = ups_obs::heartbeat::timeseries_json(&ticks, 1, 1.0);
        validate_obs_timeseries(&doc).expect("emitted time series validates");
        schema::walk(
            &parse(&ticks[0].to_json()).unwrap(),
            schema::HEARTBEAT,
            "tick",
        )
        .unwrap();
    }

    const THROUGHPUT_DOC: &str = r#"{
  "schema": "ups-bench-throughput/v1",
  "scenario": {"topology": "FatTree(k=4)", "scheduler": "FIFO", "utilization": 0.7,
               "window_ms": 16, "seed": 42, "flows": 92, "packets": 1000, "delivered": 1000},
  "results": [
    {"impl": "heap_baseline", "description": "old", "runs": 3, "best_wall_s": 0.5,
     "packets_per_sec": 2000, "events_per_sec": 20000, "delivered": 1000},
    {"impl": "arena_calendar", "description": "new", "runs": 3, "best_wall_s": 0.25,
     "packets_per_sec": 4000, "events_per_sec": 40000, "delivered": 1000}
  ],
  "speedup_packets_per_sec": 2.0
}"#;

    #[test]
    fn every_artifact_family_dispatches_by_tag() {
        let stats = pool_stats(2, 1);
        let sweep = bench_sweep_json(&grid(), &[record(0)], &stats, 1.0);
        let divergence = divergence_doc();
        let docs = [
            (SWEEP_SCHEMA, sweep.as_str()),
            (THROUGHPUT_BENCH_SCHEMA, THROUGHPUT_DOC),
            (SCALE_BENCH_SCHEMA, SCALE_DOC),
            (OBS_BENCH_SCHEMA, OBS_DOC),
            (DIVERGENCE_BENCH_SCHEMA, divergence.as_str()),
            (ups_obs::TIMESERIES_SCHEMA, TIMESERIES_DOC),
        ];
        assert_eq!(docs.len(), ARTIFACTS.len(), "one fixture per family");
        for (tag, doc) in docs {
            assert!(ARTIFACTS.iter().any(|a| a.tag == tag), "{tag} registered");
            validate_artifact(doc).unwrap_or_else(|e| panic!("{tag}: {e}"));
        }
        assert_eq!(
            validate_artifact(r#"{"schema": "ups-nothing/v1"}"#)
                .unwrap_err()
                .split(" (")
                .next(),
            Some(r#"unknown schema "ups-nothing/v1""#)
        );
        // The engines must have simulated the same schedule.
        let diverged = THROUGHPUT_DOC.replacen(r#""delivered": 1000}"#, r#""delivered": 999}"#, 1);
        assert!(validate_artifact(&diverged)
            .unwrap_err()
            .starts_with("results[0].delivered differs"));
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
