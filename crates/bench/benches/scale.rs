//! The streaming-pipeline scale benchmark: a multi-million-packet
//! fat-tree(k=8) run — original schedule, LSTF replay, and full metrics —
//! executed end to end through the bounded-memory path (lazy workload
//! stream → `RecordMode::Streaming` spill-backed trace → streamed replay
//! set → merge-join comparison → accumulator summary) under a peak-RSS
//! budget the bench measures on itself via `/proc/self/status` (`VmHWM`).
//!
//! Before timing anything it runs the **differential gate** on the
//! engine-benchmark workload (fat-tree k=4, web-search, ≥100k packets):
//! the streaming and resident trace layouts must produce bit-identical
//! record streams, bit-identical `ReplayReport`s and bit-identical
//! `RunSummary`s, or the bench aborts without writing an artifact.
//!
//! Results go to stdout and `BENCH_scale.json` (schema
//! `ups-bench-scale/v1`). Scale knobs:
//! `UPS_SCALE_PACKETS` (default 5_000_000 — the packet floor),
//! `UPS_SCALE_MIN_FLOWS` (default 10_000),
//! `UPS_SCALE_FLOW_BYTES` (default 150_000 — fixed flow size),
//! `UPS_SCALE_RSS_BUDGET_MB` (default 512),
//! `UPS_SCALE_DIFF_PACKETS` (default 120_000 — differential-gate floor).

use std::time::Instant;

use ups_bench::{env_knob, peak_rss_bytes};
use ups_core::{compare, lstf_replay_stream};
use ups_netsim::prelude::{Dur, RecordMode, SchedulerKind, Trace};
use ups_topology::{
    build_simulator, fattree, BuildOptions, FatTreeParams, Routing, SchedulerAssignment, Topology,
};
use ups_workload::{profile_by_name, udp_packet_stream, Fixed, FlowSpec, PoissonWorkload, MTU};

/// Packets a flow list packetizes into at MTU granularity.
fn train_packets(flows: &[FlowSpec]) -> u64 {
    flows.iter().map(|f| f.size.div_ceil(MTU as u64)).sum()
}

/// Run the full streaming pipeline over `flows`: original schedule under
/// `sched` with a `Streaming` trace, LSTF replay streamed straight from
/// the spilled original, merge-join comparison. Returns
/// `(original, replay, original_wall_s)`.
fn streaming_run(
    topo: &Topology,
    flows: &[FlowSpec],
    sched: SchedulerKind,
    record: RecordMode,
    spill_caps: Option<(usize, usize)>,
    seed: u64,
) -> (Trace, Trace, f64) {
    let opts = BuildOptions {
        record,
        trace_spill_caps: spill_caps,
        seed,
        ..BuildOptions::default()
    };
    let mut sim = build_simulator(topo, &SchedulerAssignment::uniform(sched), &opts);
    let t0 = Instant::now();
    sim.run_with_injections(udp_packet_stream(flows, MTU));
    let wall = t0.elapsed().as_secs_f64();
    let original = sim.into_trace();

    let replay_opts = BuildOptions {
        record,
        trace_spill_caps: spill_caps,
        seed,
        ..BuildOptions::default()
    };
    let mut rep_sim = build_simulator(
        topo,
        &SchedulerAssignment::uniform(SchedulerKind::Lstf { preemptive: false }),
        &replay_opts,
    );
    rep_sim.run_with_injections(lstf_replay_stream(topo, &original));
    (original, rep_sim.into_trace(), wall)
}

/// The differential gate: on the engine-benchmark workload, the resident
/// and streaming layouts must agree bit for bit on records, report and
/// summary. Returns the three booleans for the artifact.
fn differential_gate(diff_packets: u64) -> (bool, bool, bool) {
    let topo = fattree(FatTreeParams::default());
    let profile = profile_by_name("web-search").expect("registered profile");
    let mut window = Dur::from_ms(4);
    let flows = loop {
        let mut routing = Routing::new(&topo);
        let flows = profile.flows(&topo, &mut routing, 0.7, window, 42);
        if train_packets(&flows) >= diff_packets {
            break flows;
        }
        window = window.times(2);
        assert!(
            window <= Dur::from_secs(5),
            "differential workload never reached {diff_packets} packets"
        );
    };
    let n = train_packets(&flows);
    println!(
        "# differential gate: {n} packets / {} flows on {}",
        flows.len(),
        topo.name
    );

    let (orig_res, rep_res, _) = streaming_run(
        &topo,
        &flows,
        SchedulerKind::Fifo,
        RecordMode::EndToEnd,
        None,
        42,
    );
    // Tiny spill caps so the streaming arm spills heavily: ~n/4096 chunks
    // on disk, exercising the codec and the k-way merge at full depth.
    let (orig_str, rep_str, _) = streaming_run(
        &topo,
        &flows,
        SchedulerKind::Fifo,
        RecordMode::Streaming,
        Some((4096, 2)),
        42,
    );

    let records_identical = orig_res.stream().eq(orig_str.stream());
    let threshold = topo.bottleneck_bandwidth().tx_time(MTU);
    let report_res = compare(&orig_res, &rep_res, threshold);
    let report_str = compare(&orig_str, &rep_str, threshold);
    let reports_identical = report_res == report_str;
    let sum_res = ups_sweep::summarize_trace(&orig_res, &flows, n, None);
    let sum_str = ups_sweep::summarize_trace(&orig_str, &flows, n, None);
    let summaries_identical = sum_res == sum_str;

    assert!(records_identical, "streaming trace diverged from resident");
    assert!(reports_identical, "streamed replay report diverged");
    assert!(summaries_identical, "streamed run summary diverged");
    println!("# differential gate: records, reports and summaries bit-identical");
    (records_identical, reports_identical, summaries_identical)
}

fn main() {
    let packet_floor = env_knob("UPS_SCALE_PACKETS", 5_000_000u64);
    let min_flows = env_knob("UPS_SCALE_MIN_FLOWS", 10_000u64);
    let flow_bytes = env_knob("UPS_SCALE_FLOW_BYTES", 150_000u64);
    let rss_budget = env_knob("UPS_SCALE_RSS_BUDGET_MB", 512u64) * 1024 * 1024;
    let diff_packets = env_knob("UPS_SCALE_DIFF_PACKETS", 120_000u64);

    let (records_ok, reports_ok, summaries_ok) = differential_gate(diff_packets);

    // The scale scenario: fat-tree k=8 (128 hosts), fixed ~100-packet
    // flows so the packet floor forces a five-digit flow count, window
    // grown until the train clears the floor.
    let topo = fattree(FatTreeParams {
        k: 8,
        ..FatTreeParams::default()
    });
    let mut window = Dur::from_ms(4);
    let flows = loop {
        let mut routing = Routing::new(&topo);
        let flows = PoissonWorkload::at_utilization(0.7, window, 42).generate(
            &topo,
            &mut routing,
            &Fixed(flow_bytes),
        );
        if train_packets(&flows) >= packet_floor {
            break flows;
        }
        window = window.times(2);
        assert!(
            window <= Dur::from_secs(60),
            "scale workload never reached {packet_floor} packets"
        );
    };
    let packets = train_packets(&flows);
    assert!(
        flows.len() as u64 >= min_flows,
        "only {} flows at the {packet_floor}-packet floor (need {min_flows})",
        flows.len()
    );
    println!(
        "# scale: {packets} packets / {} flows on {} (fixed {flow_bytes}-byte flows, 70% util)",
        flows.len(),
        topo.name
    );

    let (original, replay, wall) = streaming_run(
        &topo,
        &flows,
        SchedulerKind::Fifo,
        RecordMode::Streaming,
        None,
        42,
    );
    let pps = packets as f64 / wall;
    let threshold = topo.bottleneck_bandwidth().tx_time(MTU);
    // Gate on for the comparison only: the merge-join's reorder window
    // must stay bounded at full scale, and the high-water counter is the
    // direct witness (the compare also asserts it inline, but that check
    // fires per-step; this one pins the whole-run maximum).
    ups_obs::enable();
    ups_obs::reset();
    let report = compare(&original, &replay, threshold);
    let window_high_water = ups_obs::snapshot().counter(ups_obs::Counter::CompareWindow);
    ups_obs::disable();
    assert!(
        window_high_water <= ups_core::REORDER_WINDOW as u64,
        "compare reorder window hit {window_high_water} records \
         (bound {})",
        ups_core::REORDER_WINDOW
    );
    println!("# compare reorder-window high-water: {window_high_water} records");
    let match_rate = report.match_rate().expect("scale run delivers packets");
    let summary = ups_sweep::summarize_trace(&original, &flows, packets, None);
    assert_eq!(summary.delivered + summary.dropped, packets);

    let peak = peak_rss_bytes();
    println!(
        "original run     {pps:>12.0} pkts/s  ({wall:.2}s wall)\n\
         replay match     {match_rate:>12.4}\n\
         peak RSS         {:>9.1} MiB  (budget {} MiB)",
        peak as f64 / (1024.0 * 1024.0),
        rss_budget / (1024 * 1024)
    );
    assert!(
        peak <= rss_budget,
        "peak RSS {peak} exceeds the {rss_budget}-byte budget"
    );

    let json = format!(
        r#"{{
  "schema": "ups-bench-scale/v1",
  "scenario": {{
    "topology": "{}",
    "scheduler": "FIFO",
    "utilization": 0.7,
    "flow_bytes": {flow_bytes},
    "window_ms": {},
    "seed": 42
  }},
  "packets": {packets},
  "flows": {},
  "delivered": {},
  "dropped": {},
  "peak_rss_bytes": {peak},
  "rss_budget_bytes": {rss_budget},
  "packets_per_sec": {pps:.0},
  "replay_match_rate": {match_rate:.6},
  "replay_frac_gt_t": {:.6},
  "differential": {{
    "workload_packets": {diff_packets},
    "records_identical": {records_ok},
    "reports_identical": {reports_ok},
    "summaries_identical": {summaries_ok}
  }}
}}
"#,
        topo.name,
        window.as_secs_f64() * 1e3,
        flows.len(),
        summary.delivered,
        summary.dropped,
        report.frac_gt_t_rate().expect("non-empty comparison"),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    std::fs::write(out, json).expect("write BENCH_scale.json");
    println!("wrote {out}");
}
