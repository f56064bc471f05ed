//! The zero-cost-when-off contract, measured: packets/second through the
//! fat-tree throughput scenario in three instrumentation modes —
//!
//! * `uninstrumented` — the hook-free `run_uninstrumented()` event loop
//!   (the `const OBS = false` monomorphization; no gate loads at all),
//! * `probe_off` — the normal `run()` loop with every `ups-obs` hook
//!   compiled in but the global gate disabled (the shipping default), and
//! * `probe_on` — gate enabled plus a [`TimeSeriesProbe`] sampling every
//!   100 µs of virtual time.
//!
//! All three modes consume the identical injected packet set and the
//! bench asserts their delivered counts and exit-time fingerprints agree
//! before trusting the timings — instrumentation must never change the
//! schedule. It then asserts `probe_off` throughput within
//! `UPS_OBS_TOLERANCE` (default 10%) of `uninstrumented`, on **both**
//! sides: probe-off running suspiciously *faster* than the hook-free
//! loop means the baseline is broken (or the machine too noisy for the
//! comparison to mean anything), not that the contract holds. The
//! signed overhead goes into `BENCH_obs.json` either way.
//!
//! Results go to stdout (including the `ups-obs` plain-text report for
//! the probe-on run) and to `BENCH_obs.json` (schema `ups-bench-obs/v1`,
//! validated by `sweep --validate`); the probe-on sampled series is also
//! exported as `BENCH_obs_trace.json`, a chrome://tracing document that
//! opens directly in Perfetto. Scale knobs: `UPS_OBS_MIN_PACKETS`
//! (default 120000), `UPS_OBS_RUNS` (default 5).

use std::time::Instant;

use ups_bench::{env_knob, fattree_throughput_workload};
use ups_netsim::prelude::*;
use ups_obs::TimeSeries;
use ups_topology::{build_simulator, BuildOptions, SchedulerAssignment, Topology};

const UTILIZATION: f64 = 0.7;
const SEED: u64 = 42;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Uninstrumented,
    ProbeOff,
    ProbeOn,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Uninstrumented => "uninstrumented",
            Mode::ProbeOff => "probe_off",
            Mode::ProbeOn => "probe_on",
        }
    }
}

struct RunOutput {
    wall_s: f64,
    delivered: u64,
    fingerprint: Option<u128>,
    series: Option<TimeSeries>,
}

fn run_once(topo: &Topology, packets: &[Packet], mode: Mode, record: RecordMode) -> RunOutput {
    let mut sim = build_simulator(
        topo,
        &SchedulerAssignment::uniform(SchedulerKind::Fifo),
        &BuildOptions {
            record,
            ..BuildOptions::default()
        },
    );
    let probe = (mode == Mode::ProbeOn).then(|| {
        let p = SharedProbe::new(TimeSeriesProbe::DEFAULT_INTERVAL_PS);
        sim.set_probe(p.attachment());
        ups_obs::enable();
        p
    });
    for p in packets.iter().cloned() {
        sim.inject(p);
    }
    let t0 = Instant::now();
    match mode {
        Mode::Uninstrumented => sim.run_uninstrumented(),
        Mode::ProbeOff | Mode::ProbeOn => sim.run(),
    }
    let wall_s = t0.elapsed().as_secs_f64();
    if mode == Mode::ProbeOn {
        ups_obs::disable();
    }
    let fingerprint = matches!(record, RecordMode::EndToEnd).then(|| {
        sim.trace()
            .delivered()
            .expect("resident trace")
            .map(|(_, r)| r.exited.expect("delivered").as_ps() as u128)
            .sum()
    });
    RunOutput {
        wall_s,
        delivered: sim.stats().delivered,
        fingerprint,
        series: probe.map(|p| p.take_series()),
    }
}

struct Measurement {
    mode: Mode,
    best_s: f64,
    packets_per_sec: f64,
    delivered: u64,
    fingerprint: u128,
    series: Option<TimeSeries>,
}

fn measure(topo: &Topology, packets: &[Packet], mode: Mode, runs: u64) -> Measurement {
    // Untimed verification pass with full end-to-end tracing: the timed
    // runs below are trace-free, so fingerprint the schedule once here.
    let verify = run_once(topo, packets, mode, RecordMode::EndToEnd);
    let fingerprint = verify.fingerprint.expect("traced run");
    let mut best = f64::MAX;
    let mut series = None;
    for _ in 0..runs {
        ups_obs::reset();
        let r = run_once(topo, packets, mode, RecordMode::Off);
        assert_eq!(
            r.delivered,
            verify.delivered,
            "{}: trace-off run diverged",
            mode.name()
        );
        best = best.min(r.wall_s);
        series = r.series;
    }
    Measurement {
        mode,
        best_s: best,
        packets_per_sec: packets.len() as f64 / best,
        delivered: verify.delivered,
        fingerprint,
        series,
    }
}

fn json_mode(m: &Measurement) -> String {
    // The per-mode key ("uninstrumented"/"probe_off"/"probe_on") is
    // written by the envelope; this renders only the value object.
    let samples = match &m.series {
        Some(s) => format!(", \"samples\": {}", s.rows.len()),
        None => String::new(),
    };
    format!(
        "{{\"packets_per_sec\": {:.0}, \"best_s\": {:.6}{samples}}}",
        m.packets_per_sec, m.best_s
    )
}

fn main() {
    let min_packets = env_knob("UPS_OBS_MIN_PACKETS", 120_000usize);
    let runs = env_knob("UPS_OBS_RUNS", 5u64).max(1);
    let tolerance = env_knob("UPS_OBS_TOLERANCE", 0.10f64);
    assert!(tolerance > 0.0, "UPS_OBS_TOLERANCE must be positive");

    let (topo, train) = fattree_throughput_workload(UTILIZATION, min_packets, SEED);
    let (packets, flows) = (train.packets, train.flows);
    println!(
        "# obs_overhead: {} packets / {} flows on {} at {:.0}% util (seed {}, best of {runs})",
        packets.len(),
        flows,
        topo.name,
        UTILIZATION * 100.0,
        SEED
    );

    let unin = measure(&topo, &packets, Mode::Uninstrumented, runs);
    let off = measure(&topo, &packets, Mode::ProbeOff, runs);
    let on = measure(&topo, &packets, Mode::ProbeOn, runs);
    // The gate counters still hold the final probe-on run (reset happens
    // before each timed run, never after).
    let gate = ups_obs::snapshot();

    // Instrumentation must observe the schedule, not steer it.
    for m in [&off, &on] {
        assert_eq!(
            unin.delivered,
            m.delivered,
            "{} delivered diverged",
            m.mode.name()
        );
        assert_eq!(
            unin.fingerprint,
            m.fingerprint,
            "{} exit times diverged",
            m.mode.name()
        );
    }
    let series = on.series.as_ref().expect("probe-on series");
    assert!(!series.rows.is_empty(), "probe-on run never sampled");

    let off_overhead = 1.0 - off.packets_per_sec / unin.packets_per_sec;
    let on_overhead = 1.0 - on.packets_per_sec / unin.packets_per_sec;
    for m in [&unin, &off, &on] {
        println!(
            "{:<16} {:>12.0} pkts/s  (best of {runs}: {:.3}s)",
            m.mode.name(),
            m.packets_per_sec,
            m.best_s
        );
    }
    println!(
        "probe_off        {:>+11.2}% vs uninstrumented",
        off_overhead * 100.0
    );
    println!(
        "probe_on         {:>+11.2}% vs uninstrumented",
        on_overhead * 100.0
    );
    assert!(
        off_overhead.abs() <= tolerance,
        "probe-off delta {:+.2}% outside the ±{:.0}% tolerance \
         (negative: probe_off beat the hook-free loop — suspect baseline or machine noise)",
        off_overhead * 100.0,
        tolerance * 100.0
    );

    println!("\n{}", ups_obs::report::render_report(&gate, Some(series)));

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"ups-bench-obs/v1\",\n",
            "  \"scenario\": {{\"topology\": \"{}\", \"scheduler\": \"FIFO\", ",
            "\"utilization\": {}, \"seed\": {}}},\n",
            "  \"packets\": {},\n",
            "  \"flows\": {},\n",
            "  \"runs\": {},\n",
            "  \"tolerance\": {},\n",
            "  \"uninstrumented\": {},\n",
            "  \"probe_off\": {},\n",
            "  \"probe_on\": {},\n",
            "  \"probe_off_overhead\": {:.6},\n",
            "  \"probe_on_overhead\": {:.6},\n",
            "  \"fingerprints_identical\": true\n",
            "}}\n"
        ),
        topo.name,
        UTILIZATION,
        SEED,
        packets.len(),
        flows,
        runs,
        tolerance,
        json_mode(&unin),
        json_mode(&off),
        json_mode(&on),
        off_overhead,
        on_overhead,
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    std::fs::write(out, json).expect("write BENCH_obs.json");
    println!("wrote {out}");

    let trace = ups_obs::trace_event::trace_event_json(series);
    let trace_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs_trace.json");
    std::fs::write(trace_out, trace).expect("write BENCH_obs_trace.json");
    println!("wrote {trace_out} (open in Perfetto / chrome://tracing)");
}
