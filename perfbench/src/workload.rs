//! The three workloads: their inputs (made from the seed), one timed pass
//! each, the traced decomposition, and the output check.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use ups_core::{as_executed_packets, compare_with_sink, replay_packets, run_schedule, HeaderInit};
use ups_forensics::{BlameCollector, ReplayFlavor};
use ups_metrics::{DivergenceSummary, RunSummary};
use ups_netsim::prelude::{Dur, MapperKind, RecordMode, SchedulerKind};
use ups_sweep::runner::assignment_for;
use ups_sweep::{
    bench_sweep_json, explain_job, run_job_arc, run_jobs, slack_policy_for, summarize_trace,
    validate_bench_sweep, JobRecord, JobSpec, PoolStats, ScenarioGrid, SharedScenarios,
    SweepDigest, TrafficMode,
};
use ups_topology::{
    topology_by_name, BuildOptions, Routing, RoutingCore, SchedulerAssignment, Topology,
};
use ups_transport::{run_tcp, TcpConfig, TcpScenario};
use ups_workload::{profile_by_name, FlowSpec, MTU};

use crate::pipeline::{exit_sum, Injection, Outcome, Pipeline, Replay};
use crate::span::{span, span_under};

/// The seed whose fingerprints are pinned in `pinned.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Inputs one run cycles through, one per pass.
pub const INPUTS: usize = 3;

/// The seed of input `k` of a run at `seed`: disjoint across run seeds.
pub fn input_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(INPUTS as u64).wrapping_add(k as u64)
}

const TOPOLOGY: &str = "FatTree(k=4)";
const PROFILE: &str = "web-search";
const UTILIZATION: f64 = 0.7;

/// The pinned fingerprints, one `<workload> <input> <fingerprint>` per
/// line.
const PINNED: &str = include_str!("../pinned.txt");

/// The pinned fingerprint of input `k` of `workload` at [`DEFAULT_SEED`]
/// and full size.
pub fn pinned(workload: Workload, k: usize) -> Option<&'static str> {
    PINNED.lines().find_map(|l| {
        let mut it = l.splitn(3, ' ');
        let (name, input, fp) = (it.next()?, it.next()?, it.next()?);
        (name == workload.name() && input.parse() == Ok(k)).then_some(fp.trim())
    })
}

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReplayStream,
    SweepGrid,
    ExplainPerHop,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ReplayStream,
        Workload::SweepGrid,
        Workload::ExplainPerHop,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayStream => "replay-stream",
            Workload::SweepGrid => "sweep-grid",
            Workload::ExplainPerHop => "explain-perhop",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::full`] is what the benchmark measures; the
/// self-tests use [`Scale::tiny`].
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `replay-stream`: packets taken from a flow set generated over
    /// `stream_window`, which is long enough for any seed.
    pub stream_packets: usize,
    pub stream_window: Dur,
    /// `explain-perhop`: the job's `max_packets` and `window`.
    pub explain_packets: usize,
    pub explain_window: Dur,
    /// `sweep-grid`: per-job packet cap and arrival window of the grid.
    pub grid_max_packets: Option<usize>,
    pub grid_window: Dur,
    /// Packets in the heap-baseline calibration run.
    pub calib_packets: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            stream_packets: 400_000,
            stream_window: Dur::from_ms(400),
            explain_packets: 136_000,
            explain_window: Dur::from_ms(140),
            // Uncapped, a seed's few heavy-tailed flow sets decide the job
            // sizes: peak RSS ranged 162-376 MiB over five seeds. At 10,000
            // packets nearly every job is capped, so seeds stop swinging
            // the memory and the packet count.
            grid_max_packets: Some(10_000),
            grid_window: ScenarioGrid::default().window,
            calib_packets: 120_000,
        }
    }

    pub fn tiny() -> Scale {
        Scale {
            stream_packets: 3_000,
            stream_window: Dur::from_ms(8),
            explain_packets: 3_000,
            explain_window: Dur::from_ms(8),
            grid_max_packets: Some(300),
            grid_window: Dur::from_ms(1),
            calib_packets: 2_000,
        }
    }
}

fn open_loop_spec(seed: u64, window: Dur, max_packets: usize) -> JobSpec {
    JobSpec {
        job_id: 0,
        topology: TOPOLOGY.into(),
        profile: PROFILE.into(),
        scheduler: "Random".into(),
        traffic: TrafficMode::OpenLoop,
        rest_bps: None,
        utilization: UTILIZATION,
        seed,
        window,
        horizon: None,
        buffer_bytes: None,
        replay: true,
        queues: None,
        mapper: None,
        failures: None,
        inflight: None,
        max_packets: Some(max_packets),
    }
}

/// The paper grid with its two seeds replaced by `2·seed` and
/// `2·seed + 1` (disjoint across seeds), and the scale's per-job packet cap.
pub fn grid(seed: u64, scale: &Scale) -> ScenarioGrid {
    let first = seed.wrapping_mul(2);
    ScenarioGrid {
        seeds: vec![first, first.wrapping_add(1)],
        window: scale.grid_window,
        max_packets: scale.grid_max_packets,
        ..ScenarioGrid::default()
    }
}

/// The grid job of `grid` on the fat-tree with this scheduler and mode at
/// the grid's first seed.
fn grid_job(grid: &ScenarioGrid, scheduler: &str, traffic: TrafficMode) -> Arc<JobSpec> {
    let jobs = grid.expand().expect("the paper grid expands");
    let spec = jobs
        .into_iter()
        .find(|j| {
            j.topology == TOPOLOGY
                && j.scheduler == scheduler
                && j.traffic == traffic
                && j.seed == grid.seeds[0]
        })
        .expect("the paper grid has this fat-tree job");
    Arc::new(spec)
}

/// A topology with its shared routing core and one flow set on it.
pub struct Scenario {
    pub topo: Arc<Topology>,
    pub core: Arc<RoutingCore>,
    pub flows: Vec<FlowSpec>,
}

fn scenario(spec: &JobSpec) -> Scenario {
    let topo = span("topology.build", || {
        topology_by_name(&spec.topology).expect("registered topology")
    });
    let core = span("topology.routing", || Arc::new(RoutingCore::new(&topo)));
    let flows = scenario_flows(&topo, &core, spec, "workload.flows");
    Scenario {
        topo: Arc::new(topo),
        core,
        flows,
    }
}

fn scenario_flows(
    topo: &Topology,
    core: &Arc<RoutingCore>,
    spec: &JobSpec,
    name: &'static str,
) -> Vec<FlowSpec> {
    let profile = profile_by_name(&spec.profile).expect("registered profile");
    let mut routing = Routing::from_core(core.clone());
    span(name, || {
        profile.flows(topo, &mut routing, spec.utilization, spec.window, spec.seed)
    })
}

/// What a workload builds before its first simulated event.
pub enum Setup {
    Stream {
        spec: Arc<JobSpec>,
        scenario: Scenario,
    },
    Grid {
        grid: Box<ScenarioGrid>,
        jobs: Vec<Arc<JobSpec>>,
        shared: SharedScenarios,
    },
    Explain {
        spec: Arc<JobSpec>,
        scenario: Scenario,
        shared: SharedScenarios,
    },
}

/// Build a workload's inputs from its seed.
pub fn setup(workload: Workload, seed: u64, scale: &Scale) -> Setup {
    span("bench.setup", || match workload {
        Workload::ReplayStream => {
            let spec = open_loop_spec(seed, scale.stream_window, scale.stream_packets);
            let scenario = scenario(&spec);
            Setup::Stream {
                spec: Arc::new(spec),
                scenario,
            }
        }
        Workload::SweepGrid => {
            let grid = grid(seed, scale);
            let jobs: Vec<Arc<JobSpec>> = span("sweep.expand", || {
                grid.expand()
                    .expect("the paper grid expands")
                    .into_iter()
                    .map(Arc::new)
                    .collect()
            });
            let shared = span("sweep.shared_scenarios", || {
                SharedScenarios::for_jobs(jobs.iter().map(|j| &**j))
            });
            Setup::Grid {
                grid: Box::new(grid),
                jobs,
                shared,
            }
        }
        Workload::ExplainPerHop => {
            let mut spec = open_loop_spec(seed, scale.explain_window, scale.explain_packets);
            spec.queues = Some(1);
            spec.mapper = Some("dynamic".into());
            let scenario = scenario(&spec);
            let shared = span("sweep.shared_scenarios", || {
                SharedScenarios::for_jobs([&spec])
            });
            Setup::Explain {
                spec: Arc::new(spec),
                scenario,
                shared,
            }
        }
    })
}

/// The probe interval `explain_job` uses with `with_series = true`; the
/// other workloads' traced runs use the same rule for their probed replay.
fn explain_probe_interval(spec: &JobSpec) -> u64 {
    (spec.window.as_ps() / 512).max(1_000_000)
}

/// The spelled-out pipeline of an open-loop `spec` on `scenario`: streamed
/// injection for a `Streaming` record, inject-all otherwise; the probe on
/// the replay exactly when recording per hop, as `explain_job` does.
pub fn pipeline<'a>(spec: &JobSpec, scenario: &'a Scenario, record: RecordMode) -> Pipeline<'a> {
    let explain = record == RecordMode::PerHop;
    Pipeline {
        topo: &scenario.topo,
        flows: &scenario.flows,
        packets: spec.max_packets.unwrap_or(usize::MAX),
        seed: spec.seed,
        original: assignment_for(&scenario.topo, &spec.scheduler).expect("original scheduler"),
        record,
        injection: if record == RecordMode::Streaming {
            Injection::Streamed
        } else {
            Injection::InjectAll
        },
        replay: match spec.queues {
            Some(k) => Replay::Quantized {
                k,
                mapper: MapperKind::from_name(spec.mapper.as_deref().unwrap_or_default())
                    .expect("registered mapper"),
            },
            None => Replay::Exact,
        },
        probe_interval_ps: explain_probe_interval(spec),
        probe: explain,
        summarize: record != RecordMode::PerHop,
    }
}

/// Fold a pipeline outcome's replay result into a sweep record for its
/// spec — the same fields `run_job_arc` fills.
fn pipeline_record(
    spec: &Arc<JobSpec>,
    out: &Outcome,
    mut summary: RunSummary,
    wall_s: f64,
) -> JobRecord {
    if spec.queues.is_some() {
        summary.quantized_match_rate = out.report.match_rate();
        summary.quantized_frac_gt_t = out.report.frac_gt_t_rate();
    } else {
        summary.replay_match_rate = out.report.match_rate();
        summary.replay_frac_gt_t = out.report.frac_gt_t_rate();
    }
    summary.divergence = Some(out.divergence.clone());
    JobRecord {
        spec: spec.clone(),
        summary,
        wall_s,
    }
}

/// A pool pass: every job through `pool::run_jobs`, each caught with
/// `catch_unwind` inside the pool closure so a panicking job is one
/// failed operation rather than an aborted run.
pub struct PoolPass<R> {
    pub results: Vec<Result<R, String>>,
    pub walls: Vec<f64>,
    pub makespan_s: f64,
    pub stats: PoolStats,
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Run `f` over `jobs` on `workers` threads through `pool::run_jobs`.
pub fn pool_pass<J, R, F>(jobs: &[J], workers: usize, f: F) -> PoolPass<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    span("sweep.pool", || {
        let parent = crate::span::current();
        let t0 = Instant::now();
        let (out, stats) = run_jobs(jobs, workers, |_, job| {
            let t = Instant::now();
            let r = span_under(parent, "sweep.job", || {
                catch_unwind(AssertUnwindSafe(|| f(job))).map_err(|e| panic_text(&*e))
            });
            (r, t.elapsed().as_secs_f64())
        });
        let makespan_s = t0.elapsed().as_secs_f64();
        let (results, walls) = out.into_iter().unzip();
        PoolPass {
            results,
            walls,
            makespan_s,
            stats,
        }
    })
}

/// What one pass of a workload produced and how its outputs checked out.
pub struct Pass {
    /// Which of the run's inputs the pass ran.
    pub input: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Original-schedule packets.
    pub packets: u64,
    /// Seconds from the end of setup to the last output.
    pub wall_s: f64,
    /// The outputs' fingerprint, or why they failed their invariants.
    pub fingerprint: Result<String, String>,
    /// Fidelity numbers to print beside the check.
    pub fidelity: String,
    /// Per job: (closed loop, wall seconds).
    pub jobs: Vec<(bool, f64)>,
    pub makespan_s: f64,
    pub workers: usize,
}

impl Pass {
    pub fn pkts_per_s(&self) -> f64 {
        self.packets as f64 / self.wall_s
    }
}

fn conservation(d: &DivergenceSummary, overdue: usize) -> Result<(), String> {
    let (c, i) = (d.cause_total(), d.inversion_total());
    if c == i && i == d.mismatches && d.mismatches == overdue as u64 {
        Ok(())
    } else {
        Err(format!(
            "conservation broken: causes {c}, inversions {i}, mismatches {}, overdue {overdue}",
            d.mismatches
        ))
    }
}

fn hop_attributed(d: &DivergenceSummary) -> u64 {
    d.inversion_total() - d.exit_only
}

fn report_fields(r: &ups_core::ReplayReport, d: &DivergenceSummary) -> String {
    format!(
        "total={};overdue={};gt_t={};missing={};mismatches={};hop={}",
        r.total,
        r.overdue,
        r.overdue_gt_t,
        r.missing,
        d.mismatches,
        hop_attributed(d)
    )
}

fn fidelity(r: &ups_core::ReplayReport) -> String {
    format!(
        "match rate {:.6}, overdue {:.6}, overdue > T {:.6} ({} of {} packets late)",
        r.match_rate().unwrap_or(f64::NAN),
        r.frac_overdue(),
        r.frac_overdue_gt_t(),
        r.overdue,
        r.total
    )
}

/// Check a pipeline outcome. Reads the original once (its exit-time
/// sum) and recompares both traces without a sink, which must reproduce
/// the report the blame compare returned. Returns the exit-time sum.
pub fn check_outcome(p: &Pipeline<'_>, out: &Outcome) -> Result<u128, String> {
    for (what, s) in [
        ("original", &out.original_stats),
        ("replay", &out.replay_stats),
    ] {
        if s.delivered + s.dropped != s.injected {
            return Err(format!(
                "{what}: delivered {} + dropped {} != injected {}",
                s.delivered, s.dropped, s.injected
            ));
        }
    }
    let (exit_sum, delivered) = exit_sum(&out.original);
    if delivered != out.original_stats.delivered || out.report.total as u64 != delivered {
        return Err(format!(
            "original trace holds {delivered} exits, the run delivered {}, the report compared {}",
            out.original_stats.delivered, out.report.total
        ));
    }
    let recompared = span("core.compare", || {
        ups_core::compare_streams(
            out.original.stream(),
            out.replay.stream(),
            p.topo.bottleneck_bandwidth().tx_time(MTU),
            Dur::ZERO,
        )
    });
    if recompared != out.report {
        return Err("recomparing the traces does not reproduce the replay report".into());
    }
    conservation(&out.divergence, out.report.overdue)?;
    Ok(exit_sum)
}

/// The fingerprint of a pipeline outcome. `explain_job` returns no
/// traces, so the `explain-perhop` form leaves out the exit-time sum and
/// adds the probe's row count; either form is equal between the black
/// box and its decomposition.
fn outcome_fingerprint(p: &Pipeline<'_>, out: &Outcome) -> Result<String, String> {
    let exit_sum = check_outcome(p, out)?;
    let report = report_fields(&out.report, &out.divergence);
    let injected = out.original_stats.injected;
    Ok(if p.probe {
        format!("injected={injected};{report};probe_rows={}", out.probe_rows)
    } else {
        format!("injected={injected};exit_sum={exit_sum};{report}")
    })
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Check a sweep's records: every job finished, open-loop jobs conserve
/// packets, every divergence block conserves its counts, the validated
/// document holds every job. The fingerprint hashes the sorted
/// timing-free records.
pub fn check_records(
    records: &[JobRecord],
    jobs: usize,
    digest: &SweepDigest,
) -> Result<String, String> {
    if records.len() != jobs {
        return Err(format!(
            "{} of {jobs} jobs produced a record",
            records.len()
        ));
    }
    for r in records {
        let s = &r.summary;
        if r.spec.traffic == TrafficMode::OpenLoop && s.delivered + s.dropped != s.packets {
            return Err(format!(
                "job {}: delivered {} + dropped {} != injected {}",
                r.spec.job_id, s.delivered, s.dropped, s.packets
            ));
        }
        if let Some(d) = &s.divergence {
            conservation(d, d.mismatches as usize)
                .map_err(|e| format!("job {}: {e}", r.spec.job_id))?;
        }
    }
    if digest.jobs != jobs {
        return Err(format!("document holds {} of {jobs} jobs", digest.jobs));
    }
    let mut lines: Vec<String> = records.iter().map(|r| r.to_json(false)).collect();
    lines.sort();
    let packets: u64 = records.iter().map(|r| r.summary.packets).sum();
    Ok(format!(
        "jobs={jobs};packets={packets};records={:016x}",
        fnv1a(lines.join("\n").as_bytes())
    ))
}

/// Run one untraced pass of `workload`.
pub fn pass(setup: &Setup, input: usize, workers: usize) -> Pass {
    let mut pass = match setup {
        Setup::Stream { spec, scenario } => {
            let p = pipeline(spec, scenario, RecordMode::Streaming);
            let pp = pool_pass(&[()], 1, |_| p.run());
            single_job_pass(&pp, |out| pipeline_inspect(&p, out))
        }
        Setup::Explain { spec, shared, .. } => {
            let pp = pool_pass(&[()], 1, |_| {
                let t = Instant::now();
                // An error is a failed operation, like a panic.
                let ex = explain_job(spec, shared, true)
                    .unwrap_or_else(|e| panic!("explain_job failed: {e}"));
                (ex, t.elapsed().as_secs_f64())
            });
            single_job_pass(&pp, |(ex, wall)| {
                let rows = ex.series.as_ref().map_or(0, |s| s.rows.len());
                let d = ex.forensics.summary();
                let fp = conservation(&d, ex.report.overdue).map(|()| {
                    format!(
                        "injected={};{};probe_rows={rows}",
                        ex.report.total,
                        report_fields(&ex.report, &d)
                    )
                });
                (*wall, ex.report.total as u64, fp, fidelity(&ex.report))
            })
        }
        Setup::Grid { grid, jobs, shared } => grid_pass(grid, jobs, shared, workers).0,
    };
    pass.input = input;
    pass
}

fn pipeline_inspect(p: &Pipeline<'_>, out: &Outcome) -> Inspected {
    (
        out.wall_s,
        out.original_stats.injected,
        outcome_fingerprint(p, out),
        fidelity(&out.report),
    )
}

/// A single job's (pipeline seconds, packets, fingerprint, fidelity).
type Inspected = (f64, u64, Result<String, String>, String);

fn single_job_pass<R>(pp: &PoolPass<R>, inspect: impl Fn(&R) -> Inspected) -> Pass {
    let wall = pp.walls[0];
    let (wall_s, packets, fingerprint, fidelity, failed) = match &pp.results[0] {
        Ok(r) => {
            let (w, n, fp, fid) = inspect(r);
            (w, n, fp, fid, 0)
        }
        Err(e) => (wall, 0, Err(format!("job panicked: {e}")), String::new(), 1),
    };
    Pass {
        input: 0,
        attempted: 1,
        failed,
        packets,
        wall_s,
        fingerprint,
        fidelity,
        jobs: vec![(false, wall)],
        makespan_s: pp.makespan_s,
        workers: pp.stats.workers,
    }
}

/// The sweep pass, also returning its records for the traced run.
fn grid_pass(
    grid: &ScenarioGrid,
    jobs: &[Arc<JobSpec>],
    shared: &SharedScenarios,
    workers: usize,
) -> (Pass, Vec<JobRecord>) {
    let t0 = Instant::now();
    let pp = pool_pass(jobs, workers, |spec| run_job_arc(spec, shared));
    let mut failed = 0;
    let mut records = Vec::with_capacity(jobs.len());
    for (i, r) in pp.results.iter().enumerate() {
        match r {
            Ok(rec) => records.push(rec.clone()),
            Err(e) => {
                failed += 1;
                eprintln!("job {} ({}) panicked: {e}", i, jobs[i].label());
            }
        }
    }
    let doc = span("sweep.record_emit", || {
        for r in &records {
            std::hint::black_box(r.to_json(true));
        }
        bench_sweep_json(grid, &records, &pp.stats, pp.makespan_s)
    });
    let validated = span("sweep.validate", || validate_bench_sweep(&doc));
    let wall_s = t0.elapsed().as_secs_f64();
    let fingerprint = validated.and_then(|d| check_records(&records, jobs.len(), &d));
    let rates: Vec<f64> = records
        .iter()
        .filter_map(|r| r.summary.replay_match_rate)
        .collect();
    let mismatches: u64 = records
        .iter()
        .filter_map(|r| r.summary.divergence.as_ref().map(|d| d.mismatches))
        .sum();
    let fidelity = format!(
        "replay match rate mean {:.6}, min {:.6} over {} jobs; {} mismatched packets",
        rates.iter().sum::<f64>() / rates.len().max(1) as f64,
        rates.iter().copied().fold(f64::INFINITY, f64::min),
        rates.len(),
        mismatches
    );
    let pass = Pass {
        input: 0,
        attempted: jobs.len() as u64,
        failed,
        packets: records.iter().map(|r| r.summary.packets).sum(),
        wall_s,
        fingerprint,
        fidelity,
        jobs: pp
            .walls
            .iter()
            .zip(jobs)
            .map(|(w, j)| (j.traffic == TrafficMode::ClosedLoop, *w))
            .collect(),
        makespan_s: pp.makespan_s,
        workers: pp.stats.workers,
    };
    (pass, records)
}

/// One closed-loop grid job spelled out: `run_tcp`, `as_executed_packets`,
/// replay set, LSTF replay, compare — the stages `run_job_arc` runs for
/// it, each timed.
pub struct TransportJob {
    pub run_tcp_s: f64,
    pub events: u64,
    pub wall_s: f64,
    pub record: JobRecord,
}

pub fn transport_job(
    spec: &Arc<JobSpec>,
    topo: &Topology,
    core: &Arc<RoutingCore>,
) -> TransportJob {
    span("bench.transport_job", || {
        let t0 = Instant::now();
        let flows = scenario_flows(topo, core, spec, "workload.tcp_flows");
        let mut routing = Routing::from_core(core.clone());
        let assign = assignment_for(topo, &spec.scheduler).expect("original scheduler");
        let opts = BuildOptions {
            record: RecordMode::EndToEnd,
            seed: spec.seed,
            router_buffer_bytes: spec.buffer_bytes,
            ..BuildOptions::default()
        };
        let t = Instant::now();
        let run = span("transport.run_tcp", || {
            run_tcp(
                &TcpScenario {
                    topo,
                    assign: &assign,
                    opts,
                    flows: &flows,
                    config: TcpConfig::default(),
                    policy: slack_policy_for(&spec.scheduler, spec.rest_bps),
                    horizon: spec.horizon.expect("closed-loop jobs carry a horizon"),
                    max_packets: spec.max_packets.map(|n| n as u64),
                    goodput_bucket: Dur::from_ms(1),
                },
                &mut routing,
            )
        });
        let run_tcp_s = t.elapsed().as_secs_f64();
        let mut summary = span("metrics.tcp_summarize", || {
            summarize_trace(&run.trace, &flows, run.sim.injected, Some(&run.stats))
        });
        if spec.replay && summary.dropped == 0 && summary.delivered > 0 {
            let packets = span("core.as_executed", || as_executed_packets(&run.trace));
            let set = span("core.tcp_replay_build", || {
                replay_packets(topo, &run.trace, &packets, HeaderInit::LstfSlack)
            });
            let replay_opts = BuildOptions {
                record: RecordMode::EndToEnd,
                seed: spec.seed,
                ..BuildOptions::default()
            };
            let lstf = SchedulerAssignment::uniform(SchedulerKind::Lstf { preemptive: false });
            let replay = span("netsim.tcp_replay", || {
                run_schedule(topo, &lstf, set.iter().cloned(), &replay_opts)
            });
            let mut blame = BlameCollector::new(ReplayFlavor::Exact);
            let report = span("forensics.tcp_compare", || {
                compare_with_sink(
                    &run.trace,
                    &replay,
                    topo.bottleneck_bandwidth().tx_time(MTU),
                    Dur::ZERO,
                    &mut blame,
                )
            });
            summary.replay_match_rate = report.match_rate();
            summary.replay_frac_gt_t = report.frac_gt_t_rate();
            summary.divergence = Some(blame.summary());
        }
        let wall_s = t0.elapsed().as_secs_f64();
        TransportJob {
            run_tcp_s,
            events: run.sim.events,
            wall_s,
            record: JobRecord {
                spec: spec.clone(),
                summary,
                wall_s,
            },
        }
    })
}

/// One grid of a single job, for emitting a single-job sweep document.
fn single_job_grid(spec: &JobSpec) -> ScenarioGrid {
    ScenarioGrid {
        topologies: vec![spec.topology.clone()],
        profiles: vec![spec.profile.clone()],
        schedulers: vec![spec.scheduler.clone()],
        traffic: vec![spec.traffic.name().into()],
        seeds: vec![spec.seed],
        window: spec.window,
        queues: spec.queues.into_iter().collect(),
        mapper: spec.mapper.clone().unwrap_or_else(|| "sppifo".into()),
        max_packets: spec.max_packets,
        excludes: Vec::new(),
        ..ScenarioGrid::default()
    }
}

/// Emit and validate the sweep document of one record.
fn emit_single(record: &JobRecord, stats: &PoolStats) -> Result<(), String> {
    let doc = span("sweep.record_emit", || {
        std::hint::black_box(record.to_json(true));
        bench_sweep_json(
            &single_job_grid(&record.spec),
            std::slice::from_ref(record),
            stats,
            record.wall_s,
        )
    });
    span("sweep.validate", || validate_bench_sweep(&doc)).map(|_| ())
}

/// Per-layer numbers one traced pass measured directly (span times are
/// read from the recorded spans afterwards).
#[derive(Default)]
pub struct TracedValues {
    pub values: Vec<(&'static str, f64)>,
}

impl TracedValues {
    fn push(&mut self, name: &'static str, v: f64) {
        self.values.push((name, v));
    }

    fn push_rss(&mut self, name: &'static str, v: Option<f64>) {
        match v {
            Some(v) => self.push(name, v),
            None => println!("# {name}: unavailable (procfs refused the VmHWM reset)"),
        }
    }
}

/// The traced pass: the workload decomposed stage by stage, plus the
/// transport job. Returns the pass (pipeline figures, for the tracing
/// overhead) and the values read directly.
pub fn traced_pass(
    setup: &Setup,
    input: usize,
    scale: &Scale,
    workers: usize,
) -> (Pass, TracedValues) {
    let mut v = TracedValues::default();
    let mut pass = span("bench.pass", || match setup {
        Setup::Stream { spec, scenario } | Setup::Explain { spec, scenario, .. } => {
            let record = match setup {
                Setup::Stream { .. } => RecordMode::Streaming,
                _ => RecordMode::PerHop,
            };
            let p = pipeline(spec, scenario, record);
            let pp = pool_pass(&[()], 1, |_| p.run());
            let mut pass = single_job_pass(&pp, |out| pipeline_inspect(&p, out));
            if let Some(Ok(out)) = pp.results.first() {
                pipeline_values(out, &mut v);
                let reference = p.reference(out);
                v.push(
                    "obs.probe_overhead",
                    reference.probe_overhead(p.probe, out.replay_s),
                );
                let summary = out.summary.clone().or(reference.summary);
                let record = pipeline_record(spec, out, summary.expect("summarized"), out.wall_s);
                if let Err(e) = emit_single(&record, &pp.stats) {
                    pass.fingerprint = Err(format!("record failed validation: {e}"));
                }
            }
            let tgrid = grid(spec.seed, scale);
            let tspec = grid_job(&tgrid, "LSTF", TrafficMode::ClosedLoop);
            let tj = transport_job(&tspec, &scenario.topo, &scenario.core);
            v.push("transport.run_tcp_s", tj.run_tcp_s);
            v.push("transport.events", tj.events as f64);
            v.push("sweep.closed_loop_busy_s", tj.wall_s);
            v.push("sweep.open_loop_busy_s", pass.jobs[0].1);
            pass
        }
        Setup::Grid {
            grid: g,
            jobs,
            shared,
        } => {
            let (mut pass, records) = grid_pass(g, jobs, shared, workers);
            let busy = |closed: bool| -> f64 {
                pass.jobs
                    .iter()
                    .filter(|(c, _)| *c == closed)
                    .map(|(_, w)| w)
                    .sum()
            };
            v.push("sweep.closed_loop_busy_s", busy(true));
            v.push("sweep.open_loop_busy_s", busy(false));
            // Topology and routing for every distinct topology, as
            // `SharedScenarios::for_jobs` builds them.
            let mut names: Vec<&str> = jobs.iter().map(|j| j.topology.as_str()).collect();
            names.sort();
            names.dedup();
            let mut fat = None;
            for name in names {
                let topo = span("topology.build", || {
                    topology_by_name(name).expect("registered topology")
                });
                let core = span("topology.routing", || Arc::new(RoutingCore::new(&topo)));
                if name == TOPOLOGY {
                    fat = Some((topo, core));
                }
            }
            let (topo, core) = fat.expect("the grid includes the fat-tree");
            // One open-loop job decomposed, and one closed-loop job.
            let ospec = grid_job(g, "Random", TrafficMode::OpenLoop);
            let scenario = Scenario {
                flows: scenario_flows(&topo, &core, &ospec, "workload.flows"),
                topo: Arc::new(topo),
                core,
            };
            let p = pipeline(&ospec, &scenario, RecordMode::EndToEnd);
            let out = p.run();
            let decomposed = check_outcome(&p, &out).and_then(|_| {
                pipeline_values(&out, &mut v);
                let reference = p.reference(&out);
                v.push(
                    "obs.probe_overhead",
                    reference.probe_overhead(false, out.replay_s),
                );
                let summary = out.summary.clone().expect("summarized");
                let rec = pipeline_record(&ospec, &out, summary, out.wall_s);
                same_record(&rec, &records)
            });
            let tspec = grid_job(g, "LSTF", TrafficMode::ClosedLoop);
            let tj = transport_job(&tspec, &scenario.topo, &scenario.core);
            v.push("transport.run_tcp_s", tj.run_tcp_s);
            v.push("transport.events", tj.events as f64);
            let decomposed = decomposed.and_then(|()| same_record(&tj.record, &records));
            if let Err(e) = decomposed {
                pass.fingerprint = Err(format!("decomposed job differs from the sweep: {e}"));
            }
            pass
        }
    });
    pass.input = input;
    (pass, v)
}

fn same_record(rec: &JobRecord, records: &[JobRecord]) -> Result<(), String> {
    let theirs = records
        .iter()
        .find(|r| r.spec.job_id == rec.spec.job_id)
        .ok_or_else(|| format!("job {} missing from the sweep", rec.spec.job_id))?;
    if theirs.to_json(false) == rec.to_json(false) {
        Ok(())
    } else {
        Err(format!(
            "job {}:\n  sweep:      {}\n  decomposed: {}",
            rec.spec.job_id,
            theirs.to_json(false),
            rec.to_json(false)
        ))
    }
}

/// Counts, rates and stage memory of one pipeline run.
fn pipeline_values(out: &Outcome, v: &mut TracedValues) {
    let (o, r) = (&out.original_stats, &out.replay_stats);
    v.push("netsim.original_events", o.events as f64);
    v.push(
        "netsim.original_events_per_s",
        o.events as f64 / out.original_s,
    );
    v.push("netsim.replay_events_per_s", r.events as f64 / out.replay_s);
    v.push("forensics.mismatches", out.divergence.mismatches as f64);
    v.push(
        "forensics.hop_attributed",
        hop_attributed(&out.divergence) as f64,
    );
    v.push_rss("netsim.original_rss_mib", out.original_rss_mib);
    v.push_rss("netsim.replay_rss_mib", out.replay_rss_mib);
}
