//! The churn runner and the churn-robust replay.

use std::sync::Arc;

use ups_core::lstf_replay_stream;
use ups_netsim::prelude::{
    DeadLinkPolicy, Dur, Packet, RecordMode, SchedulerKind, SimStats, Trace,
};
use ups_topology::{build_simulator, BuildOptions, SchedulerAssignment, Topology};

use crate::routing::DynamicRouting;
use crate::schedule::FailureSchedule;

/// What a churn run produced: the as-executed trace (per-packet observed
/// paths and drop causes) plus the simulator counters, whose `rerouted`
/// / `dropped_dead_link` / `link_events` fields feed the disruption
/// metrics.
pub struct ChurnOutcome {
    /// The recorded schedule.
    pub trace: Trace,
    /// Run counters.
    pub stats: SimStats,
}

/// Run a packet set through `topo` under `assign` while `schedule`'s
/// link events fire, applying `policy` to packets stranded at dead
/// links, and return the as-executed schedule.
///
/// With an empty schedule this adds **no** events and **no** oracle —
/// the run is bit-identical to [`ups_core::run_schedule`] with the same
/// inputs, which the zero-failure tests (and the degradation bench, before
/// it writes anything) assert rather than assume.
pub fn run_schedule_with_failures(
    topo: &Topology,
    assign: &SchedulerAssignment,
    packets: impl IntoIterator<Item = Packet>,
    schedule: &FailureSchedule,
    policy: DeadLinkPolicy,
    opts: &BuildOptions,
) -> ChurnOutcome {
    let mut sim = build_simulator(topo, assign, opts);
    if !schedule.is_empty() {
        sim.set_dead_link_policy(policy);
        if policy == DeadLinkPolicy::Reroute {
            sim.set_reroute_oracle(Box::new(DynamicRouting::new(Arc::new(topo.clone()))));
        }
        for e in &schedule.events {
            sim.schedule_link_state(e.at, e.a, e.b, e.up);
        }
    }
    let mut n = 0u64;
    for p in packets {
        n += 1;
        sim.inject(p);
    }
    sim.run();
    debug_assert_eq!(
        sim.stats().delivered + sim.stats().dropped,
        n,
        "packets vanished"
    );
    ChurnOutcome {
        stats: sim.stats(),
        trace: sim.into_trace(),
    }
}

/// The §2 replay kept well-defined under churn: re-run the **delivered**
/// packets of `original` at their observed `i(p)` along their observed
/// as-executed paths through non-preemptive black-box LSTF on the intact
/// topology, and score `o′(p) ≤ o(p)` against the original exits.
///
/// Packets the churn run dropped are excluded on both sides (they have
/// no `o(p)` to target), so the comparison covers exactly the packets
/// the original schedule got out. Returns the comparison report; the
/// threshold `T` is one MTU transmission on the bottleneck link, as
/// everywhere else in the repository.
///
/// The whole path is streaming: the replay set is never materialized —
/// [`lstf_replay_stream`] walks the original trace in canonical
/// `(i(p), id)` order straight into
/// [`Simulator::run_with_injections`](ups_netsim::prelude::Simulator::run_with_injections),
/// and the comparison merge-joins the two record streams — so a spilled
/// original trace replays in bounded memory.
pub fn churn_replay(topo: &Topology, original: &Trace, seed: u64) -> ups_core::ReplayReport {
    churn_replay_with_sink(topo, original, seed, &mut ())
}

/// [`churn_replay`] with a [`ups_core::DivergenceSink`] observing every
/// mismatch — how the forensics layer attributes churn-replay failures.
/// The sink never influences the report.
pub fn churn_replay_with_sink(
    topo: &Topology,
    original: &Trace,
    seed: u64,
    sink: &mut dyn ups_core::DivergenceSink,
) -> ups_core::ReplayReport {
    let opts = BuildOptions {
        record: RecordMode::EndToEnd,
        seed,
        ..BuildOptions::default()
    };
    let assign = SchedulerAssignment::uniform(SchedulerKind::Lstf { preemptive: false });
    let mut sim = build_simulator(topo, &assign, &opts);
    sim.run_with_injections(lstf_replay_stream(topo, original));
    let replay = sim.into_trace();
    let threshold = topo.bottleneck_bandwidth().tx_time(1500);
    ups_core::compare_with_sink(original, &replay, threshold, Dur::ZERO, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::FailureProfile;
    use ups_core::{as_executed_packets, run_schedule};
    use ups_netsim::prelude::{DropCause, Dur, PacketKind};
    use ups_topology::{topology_by_name, Routing};

    /// A dense many-pair workload on the fat-tree: every ordered host
    /// pair (i, i+5) sends a short train.
    fn workload(topo: &Topology, per_pair: u64, gap_us: u64) -> Vec<Packet> {
        use ups_netsim::prelude::{FlowId, PacketBuilder, PacketId, SimTime};
        let mut routing = Routing::new(topo);
        let hosts = topo.hosts();
        let mut packets = Vec::new();
        let mut id = 0u64;
        for (fi, &src) in hosts.iter().enumerate() {
            let dst = hosts[(fi + 5) % hosts.len()];
            let path = routing.path(src, dst);
            for k in 0..per_pair {
                packets.push(
                    PacketBuilder::new(
                        PacketId(id),
                        FlowId(fi as u64),
                        1500,
                        path.clone(),
                        SimTime::from_us(k * gap_us + fi as u64),
                    )
                    .build(),
                );
                id += 1;
            }
        }
        packets
    }

    fn fifo() -> SchedulerAssignment {
        SchedulerAssignment::uniform(SchedulerKind::Fifo)
    }

    #[test]
    fn zero_failure_run_is_bit_identical_to_static_run() {
        let topo = topology_by_name("FatTree(k=4)").unwrap();
        let packets = workload(&topo, 40, 13);
        let opts = BuildOptions::default();
        let churn = run_schedule_with_failures(
            &topo,
            &fifo(),
            packets.iter().cloned(),
            &FailureSchedule::none(),
            DeadLinkPolicy::Reroute,
            &opts,
        );
        let plain = run_schedule(&topo, &fifo(), packets.iter().cloned(), &opts);
        assert_eq!(churn.trace, plain, "empty schedule must change nothing");
        assert_eq!(churn.stats.rerouted, 0);
        assert_eq!(churn.stats.link_events, 0);
    }

    #[test]
    fn reroute_policy_delivers_through_churn() {
        let topo = topology_by_name("FatTree(k=4)").unwrap();
        let packets = workload(&topo, 60, 11);
        let window = Dur::from_us(60 * 11);
        let schedule =
            FailureSchedule::generate(&topo, FailureProfile::RandomLinks, 0.5, window, 21);
        assert!(!schedule.is_empty());
        let churn = run_schedule_with_failures(
            &topo,
            &fifo(),
            packets.iter().cloned(),
            &schedule,
            DeadLinkPolicy::Reroute,
            &BuildOptions::default(),
        );
        assert!(churn.stats.rerouted > 0, "churn must actually reroute");
        // The fat-tree stays connected under a 50% router-link cut often
        // enough that most packets still arrive.
        assert!(churn.stats.delivered > churn.stats.dropped);
        // Rerouted packets' records carry their as-executed paths: every
        // delivered record's path must be walkable over topology links.
        for (_, r) in churn.trace.delivered().expect("resident trace") {
            for w in r.path.windows(2) {
                assert!(
                    topo.neighbor_link(w[0], w[1]).is_some(),
                    "as-executed path uses a non-link"
                );
            }
        }
    }

    #[test]
    fn drop_policy_records_dead_link_causes() {
        let topo = topology_by_name("FatTree(k=4)").unwrap();
        let packets = workload(&topo, 60, 11);
        let window = Dur::from_us(60 * 11);
        let schedule =
            FailureSchedule::generate(&topo, FailureProfile::RandomLinks, 0.5, window, 21);
        let churn = run_schedule_with_failures(
            &topo,
            &fifo(),
            packets.iter().cloned(),
            &schedule,
            DeadLinkPolicy::Drop,
            &BuildOptions::default(),
        );
        assert_eq!(churn.stats.rerouted, 0);
        assert!(churn.stats.dropped_dead_link > 0);
        assert_eq!(churn.stats.dropped, churn.stats.dropped_dead_link);
        let dead_link_drops = churn
            .trace
            .iter()
            .expect("resident trace")
            .filter(|(_, r)| r.drop_cause == Some(DropCause::DeadLink))
            .count() as u64;
        assert_eq!(dead_link_drops, churn.stats.dropped_dead_link);
    }

    #[test]
    fn churn_replay_scores_the_delivered_subset() {
        let topo = topology_by_name("FatTree(k=4)").unwrap();
        let packets = workload(&topo, 60, 11);
        let window = Dur::from_us(60 * 11);
        let schedule =
            FailureSchedule::generate(&topo, FailureProfile::RandomLinks, 0.4, window, 5);
        let churn = run_schedule_with_failures(
            &topo,
            &fifo(),
            packets.iter().cloned(),
            &schedule,
            DeadLinkPolicy::Reroute,
            &BuildOptions::default(),
        );
        let report = churn_replay(&topo, &churn.trace, 5);
        assert_eq!(report.total as u64, churn.stats.delivered);
        assert_eq!(report.missing, 0, "replay runs drop-free");
        let rate = report.match_rate().expect("delivered > 0");
        assert!(rate > 0.5, "LSTF should mostly keep up: {rate}");
        // And the as-executed set is exactly the delivered packets.
        let executed = as_executed_packets(&churn.trace);
        assert_eq!(executed.len() as u64, churn.stats.delivered);
        assert!(executed.iter().all(|p| p.kind == PacketKind::Data));
    }

    /// Per-hop records through link churn: a transmission aborted by a
    /// dying link is not the hop's start (the reroute's start out of
    /// another port of the same node is), and the queueing time a flush
    /// charges reaches the hop record, so the per-hop detail agrees with
    /// the end-to-end totals and with the ports' serialization.
    #[test]
    fn per_hop_records_stay_consistent_through_reroutes() {
        use std::collections::BTreeMap;
        use ups_netsim::prelude::{NodeId, SimTime};

        let topo = topology_by_name("FatTree(k=4)").unwrap();
        // Trains at near line rate, so ports hold queues when links die.
        let packets = workload(&topo, 100, 2);
        let window = Dur::from_us(100 * 2);
        let random = SchedulerAssignment::uniform(SchedulerKind::Random);
        let mut rerouted = 0;
        for (rate, seed) in [(0.3, 7), (0.5, 42), (0.4, 5), (0.5, 21)] {
            let schedule =
                FailureSchedule::generate(&topo, FailureProfile::RandomLinks, rate, window, seed);
            let opts = BuildOptions {
                record: RecordMode::PerHop,
                seed,
                ..BuildOptions::default()
            };
            let churn = run_schedule_with_failures(
                &topo,
                &random,
                packets.iter().cloned(),
                &schedule,
                DeadLinkPolicy::Reroute,
                &opts,
            );
            rerouted += churn.stats.rerouted;
            let mut starts: BTreeMap<(NodeId, NodeId), Vec<SimTime>> = BTreeMap::new();
            for (id, r) in churn.trace.delivered().expect("resident trace") {
                assert_eq!(r.hops.len() + 1, r.path.len(), "{id}: one hop per link");
                let mut waited = Dur::ZERO;
                for (h, &next) in r.hops.iter().zip(&r.path[1..]) {
                    assert!(
                        h.tx_start != SimTime::MAX && h.tx_start >= h.arrived,
                        "{id}: tx_start {} before arrival {} at {}",
                        h.tx_start,
                        h.arrived,
                        h.node
                    );
                    waited += h.waited;
                    starts.entry((h.node, next)).or_default().push(h.tx_start);
                }
                assert_eq!(waited, r.total_wait, "{id}: Σ hop waits != total_wait");
            }
            // One port serializes one packet at a time.
            for ((a, b), mut at) in starts {
                let tx = topo.neighbor_link(a, b).unwrap().bandwidth.tx_time(1500);
                at.sort_unstable();
                for w in at.windows(2) {
                    assert!(
                        w[1].saturating_since(w[0]) >= tx,
                        "rate {rate} seed {seed}: starts {} and {} on port {a}->{b} overlap",
                        w[0],
                        w[1]
                    );
                }
            }
        }
        assert!(rerouted > 0, "churn must actually reroute");
    }
}
