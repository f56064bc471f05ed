//! Streamed injection's order contract, pinned against the loop it
//! replaced. `Simulator::run_with_injections` moves a stream packet into
//! the event queue's injection FIFO once it is due, and the queue merges
//! that FIFO with its calendar wheel. The reference loop below is the
//! previous peek-and-push loop, spelled with the public API: step every
//! event strictly before the next packet's injection time, then `inject`
//! the packet as an ordinary wheel event. Both must produce the same
//! records, the same `SimStats` and the same probe samples — tie order,
//! arena slot order, event count and pending-event count included — on
//! inputs dense with same-instant injections.

use ups::core::lstf_replay_stream;
use ups::prelude::*;
use ups::topology::{fattree, FatTreeParams};
use ups::workload::profile_by_name;

/// The previous `run_with_injections` loop: a packet is injected as soon
/// as its `injected_at` is at or before the earliest pending event
/// (`peek_time`); until then the earliest event is stepped.
fn reference_run(sim: &mut Simulator, packets: impl IntoIterator<Item = Packet>) {
    for p in packets {
        if let Some(before) = p.injected_at.as_ps().checked_sub(1) {
            while sim.step_within(SimTime::from_ps(before)) {}
        }
        sim.inject(p);
    }
    sim.run();
}

fn run(
    topo: &Topology,
    kind: SchedulerKind,
    record: RecordMode,
    packets: &[Packet],
    reference: bool,
) -> (Trace, SimStats, Vec<SimSample>) {
    let mut sim = build_simulator(
        topo,
        &SchedulerAssignment::uniform(kind),
        &BuildOptions {
            record,
            // Tiny spill caps so streaming runs really spill.
            trace_spill_caps: Some((256, 2)),
            seed: 5,
            ..BuildOptions::default()
        },
    );
    let probe = SharedProbe::new(Dur::from_us(50).as_ps());
    sim.set_probe(probe.attachment());
    if reference {
        reference_run(&mut sim, packets.iter().cloned());
    } else {
        sim.run_with_injections(packets.iter().cloned());
    }
    let stats = sim.stats();
    let samples = probe.take_series().rows.iter().map(|r| r.sample).collect();
    (sim.into_trace(), stats, samples)
}

fn assert_same_as_reference(
    label: &str,
    topo: &Topology,
    kind: SchedulerKind,
    record: RecordMode,
    packets: &[Packet],
) -> Trace {
    let (trace, stats, samples) = run(topo, kind, record, packets, false);
    let (ref_trace, ref_stats, ref_samples) = run(topo, kind, record, packets, true);
    assert_eq!(stats, ref_stats, "{label}: SimStats diverged");
    assert!(!samples.is_empty(), "{label}: no probe rows");
    assert_eq!(samples, ref_samples, "{label}: probe samples diverged");
    assert_eq!(stats.injected, packets.len() as u64, "{label}");
    assert!(
        trace.stream().eq(ref_trace.stream()),
        "{label}: records diverged"
    );
    trace
}

/// Every scheduler × record mode on `flows`, then the LSTF replay of each
/// original — all through both loops.
fn check_against_reference(name: &str, topo: &Topology, flows: &[FlowSpec]) {
    let packets = udp_packet_train(flows, MTU);
    let tied = packets
        .windows(2)
        .filter(|w| w[0].injected_at == w[1].injected_at)
        .count();
    assert!(
        packets.len() > 2_000 && tied * 10 > packets.len() * 9,
        "{name}: too few same-instant injections ({tied} of {})",
        packets.len()
    );
    for kind in [
        SchedulerKind::Fifo,
        SchedulerKind::Random,
        SchedulerKind::Lstf { preemptive: false },
    ] {
        for record in [RecordMode::EndToEnd, RecordMode::Streaming] {
            let label = format!("{name}, {kind:?} original, {record:?}");
            let original = assert_same_as_reference(&label, topo, kind, record, &packets);
            let replay: Vec<Packet> = lstf_replay_stream(topo, &original).collect();
            assert_eq!(
                replay.len(),
                packets.len(),
                "{label}: unbuffered run lost packets"
            );
            assert_same_as_reference(
                &format!("{label}, LSTF replay"),
                topo,
                SchedulerKind::Lstf { preemptive: false },
                record,
                &replay,
            );
        }
    }
}

fn web_search_flows(topo: &Topology) -> Vec<FlowSpec> {
    let profile = profile_by_name("web-search").expect("registered profile");
    let mut routing = Routing::new(topo);
    profile.flows(topo, &mut routing, 0.7, Dur::from_ms(6), 3)
}

/// Web-search UDP trains: every packet of a flow shares the flow's start
/// as its injection instant.
#[test]
fn web_search_trains_match_the_reference_loop() {
    let topo = fattree(FatTreeParams::default());
    check_against_reference("web-search trains", &topo, &web_search_flows(&topo));
}

/// Flows whose start times coincide: starts snapped to a 400 µs grid, so
/// whole trains of different flows tie at one instant.
#[test]
fn identical_flow_starts_match_the_reference_loop() {
    let topo = fattree(FatTreeParams::default());
    let grid = Dur::from_us(400).as_ps();
    let flows: Vec<FlowSpec> = web_search_flows(&topo)
        .into_iter()
        .map(|mut f| {
            f.start = SimTime::from_ps(f.start.as_ps() / grid * grid);
            f
        })
        .collect();
    let starts = flows
        .windows(2)
        .filter(|w| w[0].start == w[1].start)
        .count();
    assert!(starts >= 5, "only {starts} flows share a start");
    check_against_reference("identical starts", &topo, &flows);
}
