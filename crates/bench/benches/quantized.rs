//! Finite-priority-queue degradation sweep: how fast do replay match
//! rate and FCT degrade as the number of strict-priority queues K
//! shrinks from ∞ to 1?
//!
//! The scenario is the paper's default replay experiment on the engine
//! benchmarks' fat-tree workload: a **Random** original schedule
//! ("completely arbitrary schedules", §2.3) replayed through LSTF — once
//! exactly (the paper's scheduler), then through `Quantized{LSTF}` at
//! each K ∈ {1, 2, 4, 8, 32}. The K=∞ row runs the dynamic
//! (queue-remapping) mapper with an unbounded level budget and is
//! asserted **bit-identical** to the exact LSTF replay trace before any
//! number is reported.
//!
//! Results go to stdout and `BENCH_quantized.json` at the repository
//! root (schema `ups-bench-quantized/v1`, checked by
//! `sweep --validate`). Scale knobs: `UPS_QUANT_MIN_PACKETS` (default
//! 20000), `UPS_QUANT_MAPPER` (default sppifo, whose adaptive bounds
//! degrade monotonically in K; the ∞ row always uses dynamic — the one
//! mapper that is provably exact given an unbounded level budget).

use ups_bench::fattree_throughput_workload;
use ups_core::{compare, replay_packets, run_schedule, HeaderInit, ReplayReport};
use ups_netsim::prelude::*;
use ups_topology::{BuildOptions, SchedulerAssignment, Topology};

const UTILIZATION: f64 = 0.7;
const SEED: u64 = 42;
const KS: [u32; 5] = [1, 2, 4, 8, 32];

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Mean FCT over a trace, reconstructed per flow as last data-packet
/// exit minus first injection (the packet set is open-loop UDP, so the
/// first injection is the flow start).
fn trace_mean_fct_s(trace: &Trace) -> f64 {
    use std::collections::HashMap;
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

struct Row {
    k: Option<u32>,
    report: ReplayReport,
    mean_fct_s: f64,
}

fn replay_through(
    topo: &Topology,
    original: &Trace,
    replay_set: &[Packet],
    kind: SchedulerKind,
    threshold: Dur,
) -> (Trace, ReplayReport, f64) {
    let opts = BuildOptions {
        record: RecordMode::EndToEnd,
        seed: SEED,
        ..BuildOptions::default()
    };
    let assign = SchedulerAssignment::uniform(kind);
    let trace = run_schedule(topo, &assign, replay_set.iter().cloned(), &opts);
    let report = compare(original, &trace, threshold);
    let fct = trace_mean_fct_s(&trace);
    (trace, report, fct)
}

fn json_row(r: &Row, bit_identical: bool) -> String {
    let k = match r.k {
        Some(k) => k.to_string(),
        None => "null".into(),
    };
    let tail = if r.k.is_none() {
        format!(", \"bit_identical_to_exact_lstf\": {bit_identical}")
    } else {
        String::new()
    };
    format!(
        concat!(
            r#"    {{"k": {}, "match_rate": {:.6}, "frac_gt_t": {:.6}, "#,
            r#""mean_fct_s": {:.9}, "missing": {}, "max_lateness_us": {:.3}{}}}"#
        ),
        k,
        r.report.match_rate().expect("non-empty comparison"),
        r.report.frac_overdue_gt_t(),
        r.mean_fct_s,
        r.report.missing,
        r.report.max_lateness.as_secs_f64() * 1e6,
        tail
    )
}

fn main() {
    let min_packets = env_u64("UPS_QUANT_MIN_PACKETS", 20_000) as usize;
    let mapper_name = std::env::var("UPS_QUANT_MAPPER").unwrap_or_else(|_| "sppifo".into());
    let mapper = MapperKind::from_name(&mapper_name)
        .unwrap_or_else(|| panic!("unknown UPS_QUANT_MAPPER {mapper_name:?}"));

    let (topo, train) = fattree_throughput_workload(UTILIZATION, min_packets, SEED);
    let packets = train.packets;
    println!(
        "# quantized: {} packets / {} flows on {} at {:.0}% util, Random original, {} mapper",
        packets.len(),
        train.flows,
        topo.name,
        UTILIZATION * 100.0,
        mapper.name()
    );

    let opts = BuildOptions {
        record: RecordMode::EndToEnd,
        seed: SEED,
        ..BuildOptions::default()
    };
    let original = run_schedule(
        &topo,
        &SchedulerAssignment::uniform(SchedulerKind::Random),
        packets.iter().cloned(),
        &opts,
    );
    let replay_set = replay_packets(&topo, &original, &packets, HeaderInit::LstfSlack);
    let threshold = topo.bottleneck_bandwidth().tx_time(1500);

    // The exact-LSTF baseline every row is measured against.
    let (exact_trace, exact_report, exact_fct) = replay_through(
        &topo,
        &original,
        &replay_set,
        SchedulerKind::Lstf { preemptive: false },
        threshold,
    );

    // K = ∞: the dynamic mapper with an unbounded level budget never
    // coerces, so the whole trace must be bit-identical to exact LSTF —
    // asserted, not assumed.
    let (inf_trace, inf_report, inf_fct) = replay_through(
        &topo,
        &original,
        &replay_set,
        SchedulerKind::quantized_lstf(u32::MAX, MapperKind::Dynamic),
        threshold,
    );
    assert_eq!(
        inf_trace, exact_trace,
        "K=inf quantized LSTF must be bit-identical to exact LSTF"
    );
    assert_eq!(inf_fct, exact_fct);

    let mut rows: Vec<Row> = KS
        .iter()
        .map(|&k| {
            let (_, report, fct) = replay_through(
                &topo,
                &original,
                &replay_set,
                SchedulerKind::quantized_lstf(k, mapper),
                threshold,
            );
            Row {
                k: Some(k),
                report,
                mean_fct_s: fct,
            }
        })
        .collect();
    rows.push(Row {
        k: None,
        report: inf_report,
        mean_fct_s: inf_fct,
    });

    println!(
        "{:>6}  {:>11} {:>10} {:>12} {:>8}",
        "K", "match_rate", "frac>T", "mean_fct_ms", "missing"
    );
    for r in &rows {
        println!(
            "{:>6}  {:>11.4} {:>10.4} {:>12.4} {:>8}",
            r.k.map(|k| k.to_string()).unwrap_or_else(|| "inf".into()),
            r.report.match_rate().expect("non-empty"),
            r.report.frac_overdue_gt_t(),
            r.mean_fct_s * 1e3,
            r.report.missing
        );
    }
    println!(
        "# exact LSTF baseline: match {:.4}, mean FCT {:.4} ms (K=inf bit-identical: yes)",
        exact_report.match_rate().expect("non-empty"),
        exact_fct * 1e3
    );

    let body: Vec<String> = rows.iter().map(|r| json_row(r, true)).collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"ups-bench-quantized/v1\",\n",
            "  \"scenario\": {{\"topology\": \"{}\", \"original\": \"Random\", ",
            "\"mapper\": \"{}\", \"utilization\": {}, \"seed\": {}, ",
            "\"packets\": {}, \"flows\": {}, \"window_ms\": {:.3}}},\n",
            "  \"results\": [\n{}\n  ]\n",
            "}}\n"
        ),
        topo.name,
        mapper.name(),
        UTILIZATION,
        SEED,
        packets.len(),
        train.flows,
        train.window.as_secs_f64() * 1e3,
        body.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_quantized.json");
    std::fs::write(out, json).expect("write BENCH_quantized.json");
    println!("wrote {out}");
}
