//! The degradation bench: how far, and *why*, does the black-box LSTF
//! replay miss its targets as priority queues get scarce and as links
//! churn?
//!
//! One scenario serves both axes: the engine benchmarks' fat-tree
//! workload (seed 42, at least 20,000 packets) under a **Random**
//! original schedule ("completely arbitrary schedules", §2.3). Every
//! comparison carries a [`ups_forensics::BlameCollector`]:
//!
//! - **Quantization axis** (K ∈ {1, 2, 4, 8, 32, ∞}): the replay runs
//!   through `Quantized{LSTF}` with the sppifo mapper at each finite K.
//!   Both runs record per-hop, so each mismatch is attributed to its first
//!   divergent hop: bucket collisions for finite K, rank tie-breaks for
//!   exact LSTF. The K=∞ row runs the dynamic (queue-remapping) mapper
//!   with an unbounded level budget and is asserted **bit-identical** to
//!   the exact LSTF replay trace before any number is reported.
//! - **Failure axis** (rate ∈ {0, 0.1, …, 0.5}): `random-links` churn
//!   with the reroute in-flight policy. Per intensity, the delivered
//!   packets are replayed at their observed `i(p)` along their observed
//!   as-executed paths through non-preemptive LSTF on the intact
//!   topology and scored against the original `o(p)`. The churn runs
//!   record end-to-end (the sweep's bounded-memory path), so hop blame
//!   degrades to `exit_only`. The rate-0 row is asserted
//!   **bit-identical** to the static-routing run.
//!
//! Before anything is written the bench also asserts that K=1 scores
//! below exact LSTF and shows bucket collisions, that churn degrades the
//! replay somewhere along the curve but never improves it by more than
//! 0.02 from one rate to the next, and that every row's attribution is
//! **conserved**: Σ causes ≡ Σ inversions ≡ the row's `ReplayReport`
//! mismatch count.
//!
//! Results go to stdout and `BENCH_divergence.json` at the repository
//! root (schema `ups-bench-divergence/v2`, checked by `sweep
//! --validate`). The bench has no knobs: the committed artifact is what
//! it reproduces byte for byte.

use std::collections::HashMap;

use ups_bench::fattree_throughput_workload;
use ups_core::{compare_with_sink, replay_packets, run_schedule, HeaderInit, ReplayReport};
use ups_dynamics::{
    churn_replay_with_sink, run_schedule_with_failures, FailureProfile, FailureSchedule,
};
use ups_forensics::{BlameCollector, ReplayFlavor};
use ups_metrics::DivergenceSummary;
use ups_netsim::prelude::*;
use ups_topology::{build_simulator, BuildOptions, SchedulerAssignment, Topology};
use ups_workload::MTU;

const UTILIZATION: f64 = 0.7;
const SEED: u64 = 42;
const MIN_PACKETS: usize = 20_000;
/// The finite-K mapper: sppifo's adaptive bounds degrade monotonically
/// in K. The ∞ row always uses dynamic, the one mapper that is provably
/// exact given an unbounded level budget.
const MAPPER: MapperKind = MapperKind::SpPifo;
/// Finite priority-queue counts; `None` is the exact (∞) reference row.
const KS: [Option<u32>; 6] = [Some(1), Some(2), Some(4), Some(8), Some(32), None];
/// Failure intensities; 0 is the static baseline row. Capped at 0.5:
/// beyond that the k=4 fat-tree starts partitioning, packets die at dead
/// links instead of rerouting, and the *survivors* replay better — a
/// survivorship artifact that masks the congestion story this curve is
/// about (the delivered column still shows it).
const RATES: [f64; 6] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];

struct Row {
    report: ReplayReport,
    summary: DivergenceSummary,
}

impl Row {
    fn match_rate(&self) -> f64 {
        self.report.match_rate().expect("non-empty comparison")
    }
}

/// Attribution must be conserved on every row before it is reported:
/// each mismatched packet got exactly one cause and one inversion.
fn conserved(label: &str, row: &Row) {
    assert_eq!(
        row.summary.cause_total(),
        row.report.overdue as u64,
        "{label}: cause counts must sum to the report's mismatches"
    );
    assert_eq!(
        row.summary.inversion_total(),
        row.report.overdue as u64,
        "{label}: inversion counts must sum to the report's mismatches"
    );
}

/// Mean FCT over a trace, reconstructed per flow as last data-packet
/// exit minus first injection (the packet set is open-loop UDP, so the
/// first injection is the flow start).
fn trace_mean_fct_s(trace: &Trace) -> f64 {
    let mut span: HashMap<FlowId, (SimTime, SimTime)> = HashMap::new();
    for (_, rec) in trace.delivered().expect("resident trace") {
        let exited = rec.exited.expect("delivered");
        let e = span.entry(rec.flow).or_insert((rec.injected, exited));
        e.0 = e.0.min(rec.injected);
        e.1 = e.1.max(exited);
    }
    if span.is_empty() {
        return 0.0;
    }
    // Deterministic accumulation order.
    let mut flows: Vec<_> = span.into_iter().collect();
    flows.sort_by_key(|(f, _)| *f);
    let n = flows.len();
    flows
        .into_iter()
        .map(|(_, (start, end))| end.saturating_since(start).as_secs_f64())
        .sum::<f64>()
        / n as f64
}

/// One per-hop replay of `replay_set` through `kind`.
fn replay_trace(
    topo: &Topology,
    replay_set: &[Packet],
    kind: SchedulerKind,
    opts: &BuildOptions,
) -> Trace {
    let mut sim = build_simulator(topo, &SchedulerAssignment::uniform(kind), opts);
    for p in replay_set.iter().cloned() {
        sim.inject(p);
    }
    sim.run();
    sim.into_trace()
}

/// The columns every row carries after its axis-specific ones: the
/// comparison, then the conserved `ups-forensics/v1` block.
fn json_tail(row: &Row) -> String {
    format!(
        concat!(
            r#""compared": {}, "match_rate": {:.6}, "frac_gt_t": {:.6}, "#,
            r#""max_lateness_us": {:.3}, "divergence": {}"#
        ),
        row.report.total,
        row.match_rate(),
        row.report.frac_overdue_gt_t(),
        row.report.max_lateness.as_secs_f64() * 1e6,
        row.summary.to_json()
    )
}

struct KRow {
    k: Option<u32>,
    mean_fct_s: f64,
    row: Row,
}

fn json_k_row(r: &KRow) -> String {
    let (k, gate) = match r.k {
        Some(k) => (k.to_string(), ""),
        None => ("null".into(), r#""bit_identical_to_exact_lstf": true, "#),
    };
    format!(
        r#"    {{"k": {k}, "mean_fct_s": {:.9}, "missing": {}, {gate}{}}}"#,
        r.mean_fct_s,
        r.row.report.missing,
        json_tail(&r.row)
    )
}

struct RateRow {
    rate: f64,
    links_failed: u64,
    rerouted: u64,
    dropped_dead_link: u64,
    delivered: u64,
    row: Row,
}

fn json_rate_row(r: &RateRow) -> String {
    let gate = if r.rate == 0.0 {
        r#""bit_identical_to_static_routing": true, "#
    } else {
        ""
    };
    format!(
        concat!(
            r#"    {{"rate": {}, "links_failed": {}, "rerouted": {}, "#,
            r#""dropped_at_dead_link": {}, "delivered": {}, {}{}}}"#
        ),
        r.rate,
        r.links_failed,
        r.rerouted,
        r.dropped_dead_link,
        r.delivered,
        gate,
        json_tail(&r.row)
    )
}

fn main() {
    let (topo, train) = fattree_throughput_workload(UTILIZATION, MIN_PACKETS, SEED);
    let packets = train.packets;
    println!(
        "# forensics: {} packets / {} flows on {} at {:.0}% util, Random original, \
         {} mapper, random-links churn with reroute",
        packets.len(),
        train.flows,
        topo.name,
        UTILIZATION * 100.0,
        MAPPER.name()
    );
    let assign = SchedulerAssignment::uniform(SchedulerKind::Random);
    let threshold = topo.bottleneck_bandwidth().tx_time(MTU);

    // ---- Quantization axis: per-hop records on both sides, so the
    // first divergent hop is real (bucket collisions, not exit-only).
    let hop_opts = BuildOptions {
        record: RecordMode::PerHop,
        seed: SEED,
        ..BuildOptions::default()
    };
    let original = run_schedule(&topo, &assign, packets.iter().cloned(), &hop_opts);
    let replay_set = replay_packets(&topo, &original, &packets, HeaderInit::LstfSlack);
    let quantization: Vec<KRow> = KS
        .iter()
        .map(|&k| {
            let (flavor, trace) = match k {
                Some(k) => (
                    ReplayFlavor::Quantized { k },
                    replay_trace(
                        &topo,
                        &replay_set,
                        SchedulerKind::quantized_lstf(k, MAPPER),
                        &hop_opts,
                    ),
                ),
                None => {
                    let exact = replay_trace(
                        &topo,
                        &replay_set,
                        SchedulerKind::Lstf { preemptive: false },
                        &hop_opts,
                    );
                    // K = ∞: the dynamic mapper with an unbounded level
                    // budget never coerces, so the whole trace must be
                    // bit-identical to exact LSTF — asserted, not assumed.
                    let unbounded = replay_trace(
                        &topo,
                        &replay_set,
                        SchedulerKind::quantized_lstf(u32::MAX, MapperKind::Dynamic),
                        &hop_opts,
                    );
                    assert_eq!(
                        unbounded, exact,
                        "K=inf quantized LSTF must be bit-identical to exact LSTF"
                    );
                    (ReplayFlavor::Exact, exact)
                }
            };
            let mut forensics = BlameCollector::new(flavor);
            let report = compare_with_sink(&original, &trace, threshold, Dur::ZERO, &mut forensics);
            let row = Row {
                report,
                summary: forensics.summary(),
            };
            conserved(&format!("K={k:?}"), &row);
            KRow {
                k,
                mean_fct_s: trace_mean_fct_s(&trace),
                row,
            }
        })
        .collect();

    // ---- Failure axis: churn runs at rising intensity, Churn-flavor
    // attribution over the delivered subset.
    let churn_opts = BuildOptions {
        record: RecordMode::EndToEnd,
        seed: SEED,
        ..BuildOptions::default()
    };
    // The zero-failure gate: the churn runner with an empty schedule must
    // reproduce the static-routing run bit for bit.
    let plain = run_schedule(&topo, &assign, packets.iter().cloned(), &churn_opts);
    let zero = run_schedule_with_failures(
        &topo,
        &assign,
        packets.iter().cloned(),
        &FailureSchedule::none(),
        DeadLinkPolicy::Reroute,
        &churn_opts,
    );
    assert_eq!(
        zero.trace, plain,
        "zero-failure churn run must be bit-identical to the static-routing run"
    );
    assert_eq!(zero.stats.rerouted, 0);
    assert_eq!(zero.stats.link_events, 0);
    let failures: Vec<RateRow> = RATES
        .iter()
        .map(|&rate| {
            let schedule = FailureSchedule::generate(
                &topo,
                FailureProfile::RandomLinks,
                rate,
                train.window,
                SEED,
            );
            let churn = if rate == 0.0 {
                // The gate's run *is* the rate-0 row — no churn events
                // exist, so re-simulating would reproduce it bit for bit.
                assert!(schedule.is_empty(), "rate 0 must generate no events");
                &zero
            } else {
                &run_schedule_with_failures(
                    &topo,
                    &assign,
                    packets.iter().cloned(),
                    &schedule,
                    DeadLinkPolicy::Reroute,
                    &churn_opts,
                )
            };
            let mut forensics = BlameCollector::new(ReplayFlavor::Churn);
            let report = churn_replay_with_sink(&topo, &churn.trace, SEED, &mut forensics);
            let row = Row {
                report,
                summary: forensics.summary(),
            };
            conserved(&format!("rate={rate}"), &row);
            RateRow {
                rate,
                links_failed: schedule.links_failed(),
                rerouted: churn.stats.rerouted,
                dropped_dead_link: churn.stats.dropped_dead_link,
                delivered: churn.stats.delivered,
                row,
            }
        })
        .collect();

    println!(
        "{:>8} {:>9} {:>11} {:>8} {:>12} {:>9} {:>9} {:>9}",
        "axis",
        "compared",
        "match_rate",
        "frac>T",
        "mean_fct_ms",
        "rerouted",
        "bucket",
        "exit_only"
    );
    for r in &quantization {
        println!(
            "{:>8} {:>9} {:>11.4} {:>8.4} {:>12.4} {:>9} {:>9} {:>9}",
            r.k.map_or("K=inf".into(), |k| format!("K={k}")),
            r.row.report.total,
            r.row.match_rate(),
            r.row.report.frac_overdue_gt_t(),
            r.mean_fct_s * 1e3,
            "-",
            r.row.summary.bucket_collision,
            r.row.summary.exit_only,
        );
    }
    for r in &failures {
        println!(
            "{:>8} {:>9} {:>11.4} {:>8.4} {:>12} {:>9} {:>9} {:>9}",
            format!("f={}", r.rate),
            r.row.report.total,
            r.row.match_rate(),
            r.row.report.frac_overdue_gt_t(),
            "-",
            r.rerouted,
            r.row.summary.bucket_collision,
            r.row.summary.exit_only,
        );
    }

    // Scarce queues hurt, and the finite-K damage shows up as bucket
    // collisions at real hops.
    let k1 = &quantization[0].row;
    let exact = &quantization[KS.len() - 1].row;
    assert!(
        k1.match_rate() < exact.match_rate(),
        "K=1 must diverge more than exact LSTF"
    );
    assert!(
        k1.summary.bucket_collision > 0,
        "K=1 divergence must show per-hop bucket collisions"
    );
    // Churn degrades the replay somewhere along the curve...
    let base = failures[0].row.match_rate();
    let worst = failures
        .iter()
        .map(|r| r.row.match_rate())
        .fold(f64::INFINITY, f64::min);
    println!(
        "# static baseline match {base:.4}; worst under churn {worst:.4} (degradation {:.4})",
        base - worst
    );
    assert!(
        worst < base,
        "churn must degrade the replay somewhere along the curve"
    );
    // ...and rising intensity may only improve it by noise (the swept
    // rates stay below the partition/survivorship regime — see RATES).
    for w in failures.windows(2) {
        let (prev, next) = (w[0].row.match_rate(), w[1].row.match_rate());
        assert!(
            next <= prev + 0.02,
            "match rate rose from {prev:.4} to {next:.4} at rate {}",
            w[1].rate
        );
    }

    let q_rows: Vec<String> = quantization.iter().map(json_k_row).collect();
    let f_rows: Vec<String> = failures.iter().map(json_rate_row).collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"{}\",\n",
            "  \"scenario\": {{\"topology\": \"{}\", \"original\": \"Random\", ",
            "\"mapper\": \"{}\", \"profile\": \"random-links\", \"inflight\": \"reroute\", ",
            "\"utilization\": {}, \"seed\": {}, ",
            "\"packets\": {}, \"flows\": {}, \"window_ms\": {:.3}}},\n",
            "  \"quantization\": [\n{}\n  ],\n",
            "  \"failures\": [\n{}\n  ]\n",
            "}}\n"
        ),
        ups_sweep::DIVERGENCE_BENCH_SCHEMA,
        topo.name,
        MAPPER.name(),
        UTILIZATION,
        SEED,
        packets.len(),
        train.flows,
        train.window.as_secs_f64() * 1e3,
        q_rows.join(",\n"),
        f_rows.join(",\n")
    );
    // The artifact must pass the same gate CI applies before it lands.
    ups_sweep::validate_bench_divergence(&json).expect("artifact validates");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_divergence.json");
    std::fs::write(out, &json).expect("write BENCH_divergence.json");
    println!("wrote {out}");
}
