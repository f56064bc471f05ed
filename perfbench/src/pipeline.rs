//! The §2 replay pipeline of one open-loop job, spelled out call by call
//! so each crate's share can be timed: original run (netsim), replay-set
//! build (core), replay run (netsim), compare with blame (core +
//! forensics), summary (metrics).
//!
//! `replay-stream` runs this as its workload. `explain-perhop` and
//! `sweep-grid` run it in the traced run only, as the decomposition of
//! `explain_job` and of one `run_job_arc` job; the output check then
//! requires the decomposition to reproduce the black-box call exactly.

use std::hint::black_box;
use std::time::Instant;

use ups_core::{compare_streams_with_sink, lstf_replay_stream, replay_packets};
use ups_core::{HeaderInit, ReplayReport};
use ups_forensics::{BlameCollector, ReplayFlavor};
use ups_metrics::{DivergenceSummary, RunSummary};
use ups_netsim::prelude::{
    Dur, MapperKind, Packet, RecordMode, SchedulerKind, SimStats, Simulator, Trace,
};
use ups_obs::SharedProbe;
use ups_sweep::summarize_trace;
use ups_topology::{build_simulator, BuildOptions, SchedulerAssignment, Topology};
use ups_workload::{udp_packet_stream, udp_packet_train, FlowSpec, MTU};

use crate::mem;
use crate::span::span;

/// How the original and replay runs receive their packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// `run_with_injections` pulling from a lazy stream (bounded memory).
    Streamed,
    /// Every packet injected up front, then `run()`.
    InjectAll,
}

/// The replay discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replay {
    /// Exact non-preemptive LSTF.
    Exact,
    /// LSTF quantized onto `k` strict-priority queues.
    Quantized { k: u32, mapper: MapperKind },
}

impl Replay {
    fn scheduler(self) -> SchedulerKind {
        match self {
            Replay::Exact => SchedulerKind::Lstf { preemptive: false },
            Replay::Quantized { k, mapper } => SchedulerKind::quantized_lstf(k, mapper),
        }
    }

    fn flavor(self) -> ReplayFlavor {
        match self {
            Replay::Exact => ReplayFlavor::Exact,
            Replay::Quantized { k, .. } => ReplayFlavor::Quantized { k },
        }
    }
}

/// One open-loop job's pipeline configuration.
pub struct Pipeline<'a> {
    pub topo: &'a Topology,
    pub flows: &'a [FlowSpec],
    /// Packets taken from the front of the flows' packet train.
    pub packets: usize,
    pub seed: u64,
    pub original: SchedulerAssignment,
    pub record: RecordMode,
    pub injection: Injection,
    pub replay: Replay,
    /// Sampling interval of the probe on the replay run.
    pub probe_interval_ps: u64,
    /// Whether the pipeline's replay run carries the probe (it does in
    /// `explain_job` with `with_series = true`).
    pub probe: bool,
    /// Whether `summarize_trace` is part of the pipeline (it is on
    /// `replay-stream`; `explain_job` does not summarize).
    pub summarize: bool,
}

/// Everything the pipeline produced.
pub struct Outcome {
    pub original: Trace,
    pub replay: Trace,
    pub original_stats: SimStats,
    pub replay_stats: SimStats,
    pub report: ReplayReport,
    /// The `BlameCollector`'s summary of the mismatches.
    pub divergence: DivergenceSummary,
    pub summary: Option<RunSummary>,
    /// Rows the replay probe sampled (0 without a probe).
    pub probe_rows: usize,
    /// Peak RSS during the original and the replay run; measured only
    /// while tracing, `None` when procfs refused the reset.
    pub original_rss_mib: Option<f64>,
    pub replay_rss_mib: Option<f64>,
    /// Wall time of the original and of the replay run alone.
    pub original_s: f64,
    pub replay_s: f64,
    /// Seconds from the first call to the last output.
    pub wall_s: f64,
}

/// Timings and counts the traced run takes beyond the pipeline itself.
pub struct Reference {
    /// Wall time of the replay run with the probe setting flipped.
    pub flipped_replay_s: f64,
    /// `summarize_trace` over the original, when the pipeline skipped it.
    pub summary: Option<RunSummary>,
}

impl Reference {
    /// Relative cost of the probe on the replay run, given whether the
    /// pipeline's replay carried it and how long that replay took.
    pub fn probe_overhead(&self, probe_in_pipeline: bool, pipeline_replay_s: f64) -> f64 {
        let (with, without) = if probe_in_pipeline {
            (pipeline_replay_s, self.flipped_replay_s)
        } else {
            (self.flipped_replay_s, pipeline_replay_s)
        };
        with / without - 1.0
    }
}

impl Pipeline<'_> {
    fn opts(&self) -> BuildOptions {
        BuildOptions {
            record: self.record,
            seed: self.seed,
            ..BuildOptions::default()
        }
    }

    fn stream(&self) -> impl Iterator<Item = Packet> + '_ {
        udp_packet_stream(self.flows, MTU).take(self.packets)
    }

    fn threshold(&self) -> Dur {
        self.topo.bottleneck_bandwidth().tx_time(MTU)
    }

    fn replay_sim(&self, probe: bool) -> (Simulator, Option<SharedProbe>) {
        let assign = SchedulerAssignment::uniform(self.replay.scheduler());
        let mut sim = build_simulator(self.topo, &assign, &self.opts());
        let probe = probe.then(|| SharedProbe::new(self.probe_interval_ps));
        if let Some(p) = &probe {
            sim.set_probe(p.attachment());
        }
        (sim, probe)
    }

    fn inject_all_run(mut sim: Simulator, packets: impl IntoIterator<Item = Packet>) -> Simulator {
        for p in packets {
            sim.inject(p);
        }
        sim.run();
        sim
    }

    /// Run the pipeline. Stages are spans; per-stage peak RSS is taken
    /// only while tracing, since the heap trim and the reset before each
    /// stage cost time inside the pipeline.
    pub fn run(&self) -> Outcome {
        let traced = crate::span::enabled();
        let staged = |f: &mut dyn FnMut() -> (SimStats, Trace)| {
            if traced {
                mem::release_free_memory();
                mem::stage_peak(f)
            } else {
                (f(), None)
            }
        };
        span("bench.pipeline", || {
            let t0 = Instant::now();
            let (original_stats, original, original_rss_mib, replay_stats, replay, replay_rss_mib);
            let mut probe = None;
            let (mut original_s, mut replay_s) = (0.0, 0.0);
            match self.injection {
                Injection::Streamed => {
                    ((original_stats, original), original_rss_mib) = staged(&mut || {
                        span("netsim.original", || {
                            let t = Instant::now();
                            let mut sim = build_simulator(self.topo, &self.original, &self.opts());
                            sim.run_with_injections(self.stream());
                            original_s = t.elapsed().as_secs_f64();
                            (sim.stats(), sim.into_trace())
                        })
                    });
                    ((replay_stats, replay), replay_rss_mib) = staged(&mut || {
                        span("netsim.replay", || {
                            let t = Instant::now();
                            let (mut sim, p) = self.replay_sim(self.probe);
                            sim.run_with_injections(lstf_replay_stream(self.topo, &original));
                            replay_s = t.elapsed().as_secs_f64();
                            probe = p;
                            (sim.stats(), sim.into_trace())
                        })
                    });
                }
                Injection::InjectAll => {
                    let packets = span("workload.packetize", || {
                        let mut v = udp_packet_train(self.flows, MTU);
                        v.truncate(self.packets);
                        v
                    });
                    ((original_stats, original), original_rss_mib) = staged(&mut || {
                        span("netsim.original", || {
                            let t = Instant::now();
                            let sim = build_simulator(self.topo, &self.original, &self.opts());
                            let sim = Self::inject_all_run(sim, packets.iter().cloned());
                            original_s = t.elapsed().as_secs_f64();
                            (sim.stats(), sim.into_trace())
                        })
                    });
                    let set = span("core.replay_build", || {
                        replay_packets(self.topo, &original, &packets, HeaderInit::LstfSlack)
                    });
                    let mut set = Some(set);
                    ((replay_stats, replay), replay_rss_mib) = staged(&mut || {
                        span("netsim.replay", || {
                            let t = Instant::now();
                            let (sim, p) = self.replay_sim(self.probe);
                            let sim = Self::inject_all_run(sim, set.take().unwrap_or_default());
                            replay_s = t.elapsed().as_secs_f64();
                            probe = p;
                            (sim.stats(), sim.into_trace())
                        })
                    });
                }
            }
            let mut blame = BlameCollector::new(self.replay.flavor());
            let report = span("forensics.compare_blame", || {
                compare_streams_with_sink(
                    original.stream(),
                    replay.stream(),
                    self.threshold(),
                    Dur::ZERO,
                    &mut blame,
                )
            });
            let divergence = span("forensics.summary", || blame.summary());
            let summary = self.summarize.then(|| {
                span("metrics.summarize", || {
                    summarize_trace(&original, self.flows, original_stats.injected, None)
                })
            });
            let wall_s = t0.elapsed().as_secs_f64();
            Outcome {
                original,
                replay,
                original_stats,
                replay_stats,
                report,
                divergence,
                summary,
                probe_rows: probe.map_or(0, |p| p.len()),
                original_rss_mib,
                replay_rss_mib,
                original_s,
                replay_s,
                wall_s,
            }
        })
    }

    /// The traced run's extra measurements over a finished pipeline:
    /// the stages the streamed path runs lazily inside the event loop
    /// (packetizing, replay-set build), the inject-all reference run, the
    /// replay with the probe flipped, and the summary when the pipeline
    /// skipped it. (The compare without a sink is the output check's.) All spans sit under
    /// `bench.reference`, outside the pipeline's span.
    pub fn reference(&self, out: &Outcome) -> Reference {
        span("bench.reference", || {
            if self.injection == Injection::Streamed {
                span("workload.packetize", || {
                    black_box(self.stream().map(|p| u64::from(p.size)).sum::<u64>())
                });
                span("netsim.inject_all", || {
                    let sim = build_simulator(self.topo, &self.original, &self.opts());
                    black_box(Self::inject_all_run(sim, self.stream()).stats())
                });
                span("core.replay_build", || {
                    black_box(lstf_replay_stream(self.topo, &out.original).count())
                });
            }
            let flipped_replay_s = match self.injection {
                Injection::Streamed => {
                    let t = Instant::now();
                    span("obs.flipped_replay", || {
                        let (mut sim, _p) = self.replay_sim(!self.probe);
                        sim.run_with_injections(lstf_replay_stream(self.topo, &out.original))
                    });
                    t.elapsed().as_secs_f64()
                }
                Injection::InjectAll => {
                    let mut packets = udp_packet_train(self.flows, MTU);
                    packets.truncate(self.packets);
                    let set =
                        replay_packets(self.topo, &out.original, &packets, HeaderInit::LstfSlack);
                    let t = Instant::now();
                    span("obs.flipped_replay", || {
                        let (sim, _p) = self.replay_sim(!self.probe);
                        black_box(Self::inject_all_run(sim, set))
                    });
                    t.elapsed().as_secs_f64()
                }
            };
            let summary = (!self.summarize).then(|| {
                span("metrics.summarize", || {
                    summarize_trace(&out.original, self.flows, out.original_stats.injected, None)
                })
            });
            Reference {
                flipped_replay_s,
                summary,
            }
        })
    }
}

/// The original's exit-time sum (picoseconds) and delivered count, from
/// one full `Trace::stream()` pass — the read-back the streaming store
/// pays once per consumer.
pub fn exit_sum(trace: &Trace) -> (u128, u64) {
    span("netsim.trace_read", || {
        trace
            .stream()
            .filter_map(|(_, r)| r.exited)
            .fold((0u128, 0u64), |(s, n), o| {
                (s + u128::from(o.as_ps()), n + 1)
            })
    })
}
