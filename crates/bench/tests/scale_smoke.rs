//! CI-sized smoke of the scale benchmark's streaming pipeline: a capped
//! fat-tree(k=4) run (~200k packets in release, smaller under debug
//! asserts) pushed through tiny spill caps so the chunk ring overflows to
//! disk, checked for bit-identity against the resident layout and for a
//! tight peak-RSS ceiling via `VmHWM` (the same self-measurement the full
//! bench asserts). Lives in its own test binary because `VmHWM` is a
//! process-lifetime high-water mark — co-tenant tests would pollute it.
//!
//! Knobs: `UPS_SMOKE_PACKETS` (floor; default 200_000 release / 40_000
//! debug), `UPS_SMOKE_RSS_BUDGET_MB` (default 512).

use ups_bench::{env_knob, peak_rss_bytes};
use ups_core::{compare, lstf_replay_stream};
use ups_netsim::prelude::{Dur, RecordMode, SchedulerKind, Trace};
use ups_topology::{
    build_simulator, fattree, BuildOptions, FatTreeParams, Routing, SchedulerAssignment, Topology,
};
use ups_workload::{profile_by_name, udp_packet_stream, FlowSpec, MTU};

fn train_packets(flows: &[FlowSpec]) -> u64 {
    flows.iter().map(|f| f.size.div_ceil(MTU as u64)).sum()
}

fn run_pair(
    topo: &Topology,
    flows: &[FlowSpec],
    record: RecordMode,
    spill_caps: Option<(usize, usize)>,
) -> (Trace, Trace) {
    let opts = BuildOptions {
        record,
        trace_spill_caps: spill_caps,
        seed: 42,
        ..BuildOptions::default()
    };
    let mut sim = build_simulator(
        topo,
        &SchedulerAssignment::uniform(SchedulerKind::Fifo),
        &opts,
    );
    sim.run_with_injections(udp_packet_stream(flows, MTU));
    let original = sim.into_trace();
    let mut rep = build_simulator(
        topo,
        &SchedulerAssignment::uniform(SchedulerKind::Lstf { preemptive: false }),
        &opts,
    );
    rep.run_with_injections(lstf_replay_stream(topo, &original));
    (original, rep.into_trace())
}

#[test]
fn capped_streaming_run_is_resident_identical_and_bounded() {
    let default_floor = if cfg!(debug_assertions) {
        40_000
    } else {
        200_000
    };
    let packet_floor = env_knob("UPS_SMOKE_PACKETS", default_floor);
    let rss_budget = env_knob("UPS_SMOKE_RSS_BUDGET_MB", 512u64) * 1024 * 1024;

    let topo = fattree(FatTreeParams::default());
    let profile = profile_by_name("web-search").expect("registered profile");
    let mut window = Dur::from_ms(4);
    let flows = loop {
        let mut routing = Routing::new(&topo);
        let flows = profile.flows(&topo, &mut routing, 0.7, window, 42);
        if train_packets(&flows) >= packet_floor {
            break flows;
        }
        window = window.times(2);
        assert!(window <= Dur::from_secs(5), "workload never reached floor");
    };
    let packets = train_packets(&flows);

    // Tiny caps: ~packets/1024 sealed chunks, only 2 resident, so almost
    // the whole trace round-trips through the spill codec.
    let (orig_res, rep_res) = run_pair(&topo, &flows, RecordMode::EndToEnd, None);
    let (orig_str, rep_str) = run_pair(&topo, &flows, RecordMode::Streaming, Some((1024, 2)));
    assert!(
        orig_res.stream().eq(orig_str.stream()),
        "streaming original diverged from resident"
    );
    let threshold = topo.bottleneck_bandwidth().tx_time(MTU);
    // Gate on across both comparisons: the merge-join's reorder-window
    // high-water counter is the CI witness that the streaming compare
    // path stays bounded.
    ups_obs::enable();
    ups_obs::reset();
    assert_eq!(
        compare(&orig_res, &rep_res, threshold),
        compare(&orig_str, &rep_str, threshold),
        "streamed replay report diverged"
    );
    let window_high_water = ups_obs::snapshot().counter(ups_obs::Counter::CompareWindow);
    ups_obs::disable();
    assert!(
        window_high_water <= ups_core::REORDER_WINDOW as u64,
        "compare reorder window hit {window_high_water} records \
         (bound {})",
        ups_core::REORDER_WINDOW
    );
    assert_eq!(
        ups_sweep::summarize_trace(&orig_res, &flows, packets, None),
        ups_sweep::summarize_trace(&orig_str, &flows, packets, None),
        "streamed run summary diverged"
    );

    let peak = peak_rss_bytes();
    assert!(
        peak <= rss_budget,
        "peak RSS {:.1} MiB exceeds the {} MiB smoke budget",
        peak as f64 / (1024.0 * 1024.0),
        rss_budget / (1024 * 1024)
    );
}
