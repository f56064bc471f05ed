//! Replay robustness under link churn: how does the black-box LSTF
//! match rate degrade as failure intensity rises?
//!
//! The scenario is the engine benchmarks' fat-tree workload under a
//! **Random** original schedule ("completely arbitrary schedules",
//! §2.3), run through the `ups-dynamics` churn runner at increasing
//! `random-links` failure rates with the reroute in-flight policy. Per
//! intensity, the delivered packets are replayed at their observed
//! `i(p)` along their observed as-executed paths through non-preemptive
//! LSTF on the intact topology and scored against the original `o(p)`.
//!
//! The `rate = 0` row is asserted **bit-identical** to the plain
//! static-routing `run_schedule` trace before any number is reported —
//! the churn machinery must cost exactly nothing when nothing fails.
//!
//! Results go to stdout and `BENCH_failures.json` at the repository
//! root (schema `ups-bench-failures/v1`, checked by `sweep --validate`).
//! Scale knob: `UPS_FAIL_MIN_PACKETS` (default 20000).

use ups_bench::fattree_throughput_workload;
use ups_core::{run_schedule, ReplayReport};
use ups_dynamics::{churn_replay, run_schedule_with_failures, FailureProfile, FailureSchedule};
use ups_netsim::prelude::*;
use ups_topology::{BuildOptions, SchedulerAssignment};

const UTILIZATION: f64 = 0.7;
const SEED: u64 = 42;
/// Swept failure intensities. Capped at 0.5: beyond that the k=4
/// fat-tree starts partitioning, packets die at dead links instead of
/// rerouting, and the *survivors* replay better — a survivorship
/// artifact that masks the congestion story this curve is about (the
/// delivered count column still shows it).
const RATES: [f64; 6] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

struct Row {
    rate: f64,
    links_failed: u64,
    rerouted: u64,
    dropped_dead_link: u64,
    delivered: u64,
    report: ReplayReport,
}

fn json_row(r: &Row, bit_identical: bool) -> String {
    let tail = if r.rate == 0.0 {
        format!(", \"bit_identical_to_static_routing\": {bit_identical}")
    } else {
        String::new()
    };
    format!(
        concat!(
            r#"    {{"rate": {}, "links_failed": {}, "rerouted": {}, "#,
            r#""dropped_at_dead_link": {}, "delivered": {}, "#,
            r#""match_rate": {:.6}, "frac_gt_t": {:.6}, "max_lateness_us": {:.3}{}}}"#
        ),
        r.rate,
        r.links_failed,
        r.rerouted,
        r.dropped_dead_link,
        r.delivered,
        r.report.match_rate().expect("non-empty comparison"),
        r.report.frac_overdue_gt_t(),
        r.report.max_lateness.as_secs_f64() * 1e6,
        tail
    )
}

fn main() {
    let min_packets = env_u64("UPS_FAIL_MIN_PACKETS", 20_000) as usize;
    let (topo, train) = fattree_throughput_workload(UTILIZATION, min_packets, SEED);
    let packets = train.packets;
    println!(
        "# failures: {} packets / {} flows on {} at {:.0}% util, Random original, \
         random-links churn, reroute in-flight policy",
        packets.len(),
        train.flows,
        topo.name,
        UTILIZATION * 100.0,
    );

    let opts = BuildOptions {
        record: RecordMode::EndToEnd,
        seed: SEED,
        ..BuildOptions::default()
    };
    let assign = SchedulerAssignment::uniform(SchedulerKind::Random);

    // The zero-failure gate: the churn runner with an empty schedule must
    // reproduce the static-routing run bit for bit.
    let plain = run_schedule(&topo, &assign, packets.iter().cloned(), &opts);
    let zero = run_schedule_with_failures(
        &topo,
        &assign,
        packets.iter().cloned(),
        &FailureSchedule::none(),
        DeadLinkPolicy::Reroute,
        &opts,
    );
    assert_eq!(
        zero.trace, plain,
        "zero-failure churn run must be bit-identical to the static-routing run"
    );
    assert_eq!(zero.stats.rerouted, 0);
    assert_eq!(zero.stats.link_events, 0);

    let rows: Vec<Row> = RATES
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
                    &opts,
                )
            };
            let report = churn_replay(&topo, &churn.trace, SEED);
            Row {
                rate,
                links_failed: schedule.links_failed(),
                rerouted: churn.stats.rerouted,
                dropped_dead_link: churn.stats.dropped_dead_link,
                delivered: churn.stats.delivered,
                report,
            }
        })
        .collect();

    println!(
        "{:>6} {:>6} {:>9} {:>8} {:>10} {:>11} {:>10}",
        "rate", "links", "rerouted", "dropped", "delivered", "match_rate", "frac>T"
    );
    for r in &rows {
        println!(
            "{:>6.2} {:>6} {:>9} {:>8} {:>10} {:>11.4} {:>10.4}",
            r.rate,
            r.links_failed,
            r.rerouted,
            r.dropped_dead_link,
            r.delivered,
            r.report.match_rate().expect("non-empty"),
            r.report.frac_overdue_gt_t(),
        );
    }
    let base = rows[0].report.match_rate().expect("non-empty");
    let worst = rows
        .iter()
        .filter_map(|r| r.report.match_rate())
        .fold(f64::INFINITY, f64::min);
    println!(
        "# static baseline match {:.4}; worst under churn {:.4} (degradation {:.4})",
        base,
        worst,
        base - worst
    );
    assert!(
        worst < base,
        "churn must degrade the replay somewhere along the curve"
    );
    // Monotone-ish: rising intensity may only improve the match rate by
    // noise (the swept rates stay below the partition/survivorship
    // regime — see RATES).
    for w in rows.windows(2) {
        let (prev, next) = (
            w[0].report.match_rate().expect("non-empty"),
            w[1].report.match_rate().expect("non-empty"),
        );
        assert!(
            next <= prev + 0.02,
            "match rate rose from {prev:.4} to {next:.4} at rate {}",
            w[1].rate
        );
    }

    let body: Vec<String> = rows.iter().map(|r| json_row(r, true)).collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"ups-bench-failures/v1\",\n",
            "  \"scenario\": {{\"topology\": \"{}\", \"original\": \"Random\", ",
            "\"profile\": \"random-links\", \"inflight\": \"reroute\", ",
            "\"utilization\": {}, \"seed\": {}, ",
            "\"packets\": {}, \"flows\": {}, \"window_ms\": {:.3}}},\n",
            "  \"results\": [\n{}\n  ]\n",
            "}}\n"
        ),
        topo.name,
        UTILIZATION,
        SEED,
        packets.len(),
        train.flows,
        train.window.as_secs_f64() * 1e3,
        body.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_failures.json");
    std::fs::write(out, json).expect("write BENCH_failures.json");
    println!("wrote {out}");
}
