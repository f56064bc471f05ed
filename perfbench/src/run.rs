//! One benchmark run: set up several times, repeat the workload until the
//! time is spent, check every pass's outputs, and reduce the samples to
//! the metrics `BENCHMARK.json` names.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use ups_bench::baseline::BaselineSim;
use ups_bench::fattree_throughput_workload;

use crate::mem;
use crate::span::{self, span, Span};
use crate::workload::{
    self, input_seed, pinned, Pass, Scale, Setup, Workload, DEFAULT_SEED, INPUTS,
};

/// End-to-end metrics, reported by the untraced run.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("pkts_per_s", "pkts/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by the traced run.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("topology.build_s", "s"),
    ("topology.routing_s", "s"),
    ("workload.flows_s", "s"),
    ("workload.packetize_s", "s"),
    ("netsim.original_s", "s"),
    ("netsim.original_events", "count"),
    ("netsim.original_events_per_s", "1/s"),
    ("netsim.inject_all_s", "s"),
    ("netsim.replay_s", "s"),
    ("netsim.replay_events_per_s", "1/s"),
    ("netsim.trace_read_s", "s"),
    ("netsim.original_rss_mib", "MiB"),
    ("netsim.replay_rss_mib", "MiB"),
    ("core.replay_build_s", "s"),
    ("core.compare_s", "s"),
    ("forensics.blame_s", "s"),
    ("forensics.mismatches", "count"),
    ("forensics.hop_attributed", "count"),
    ("metrics.summarize_s", "s"),
    ("obs.probe_overhead", "ratio"),
    ("transport.run_tcp_s", "s"),
    ("transport.events", "count"),
    ("sweep.jobs_per_s", "1/s"),
    ("sweep.job_busy_s", "s"),
    ("sweep.pool_util", "ratio"),
    ("sweep.job_wall_p50_s", "s"),
    ("sweep.job_wall_p80_s", "s"),
    ("sweep.closed_loop_busy_s", "s"),
    ("sweep.open_loop_busy_s", "s"),
    ("sweep.record_emit_s", "s"),
    ("sweep.validate_s", "s"),
    ("calib.heap_baseline_pkts_per_s", "pkts/s"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.pipeline_s", "s"),
];

/// Metrics that are the summed duration of the spans of one name within
/// one setup or pass.
const SPAN_METRICS: [(&str, &str); 15] = [
    ("topology.build_s", "topology.build"),
    ("topology.routing_s", "topology.routing"),
    ("workload.flows_s", "workload.flows"),
    ("workload.packetize_s", "workload.packetize"),
    ("netsim.original_s", "netsim.original"),
    ("netsim.replay_s", "netsim.replay"),
    ("netsim.trace_read_s", "netsim.trace_read"),
    ("core.replay_build_s", "core.replay_build"),
    ("core.compare_s", "core.compare"),
    ("metrics.summarize_s", "metrics.summarize"),
    ("sweep.record_emit_s", "sweep.record_emit"),
    ("sweep.validate_s", "sweep.validate"),
    ("trace.pipeline_s", "bench.pipeline"),
    ("netsim.inject_all_s", "netsim.inject_all"),
    ("transport.run_tcp_s", "transport.run_tcp"),
];

/// What one run asks for.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub scale: Scale,
    pub workers: usize,
}

/// The run's result line, plus the lines printed before it.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in the order of the metric table.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
    /// `(input, fingerprint)` of every pass.
    pub fingerprints: Vec<(usize, Result<String, String>)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    /// The contract's last line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!(r#""{n}": {{"value": {}, "unit": "{u}"}}"#, num(*v)))
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number in full precision; non-finite values become `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs`, `NaN` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// CPU model and usable cores, for reading numbers across machines.
pub fn machine() -> (String, usize) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    (cpu, nproc)
}

/// Packets per second of the seed's heap-based engine on the throughput
/// workload — a reference to divide by when comparing machines.
fn heap_baseline_pkts_per_s(packets: usize) -> f64 {
    span("calib.heap_baseline", || {
        let (topo, train) = fattree_throughput_workload(0.7, packets, 42);
        let mut sim = BaselineSim::from_topology(&topo);
        for p in train.packets.iter().cloned() {
            sim.inject(p);
        }
        let t = Instant::now();
        sim.run();
        let dt = t.elapsed().as_secs_f64();
        black_box(sim.delivered);
        train.packets.len() as f64 / dt
    })
}

/// Samples per metric name.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, |v| median(v))
    }
}

/// Execute one run.
pub fn run(cfg: &Config) -> Outcome {
    let start = Instant::now();
    let budget = cfg.seconds;
    let mut notes = Vec::new();
    let mut samples = Samples::default();
    span::set_enabled(cfg.traced);
    if cfg.traced {
        let (cpu, nproc) = machine();
        notes.push(format!("machine: {cpu}; nproc {nproc}"));
        samples.push(
            "calib.heap_baseline_pkts_per_s",
            heap_baseline_pkts_per_s(cfg.scale.calib_packets),
        );
    }

    // Each run cycles through INPUTS inputs made from the seed, one per
    // pass, so its figures (and the process's peak memory) cover several
    // draws of the heavy-tailed flow sizes instead of one. Set-up is
    // repeated many times, spread over the run, and its median kept.
    let mut setups: Vec<Option<Setup>> = (0..INPUTS).map(|_| None).collect();
    let mut setup_s = Vec::new();
    set_up(cfg, &mut setups, &mut setup_s, INPUTS, 0.04 * budget);

    let mut passes: Vec<Pass> = Vec::new();
    let mut traced_passes: Vec<Pass> = Vec::new();
    let mut job_walls = Vec::new();
    let mut pass_peaks = Vec::new();
    for round in 0.. {
        let round_start = Instant::now();
        let k = round % INPUTS;
        let setup = setups[k].as_ref().expect("every input is set up");
        span::set_enabled(false);
        mem::release_free_memory();
        let (pass, peak) = mem::stage_peak(|| workload::pass(setup, k, cfg.workers));
        pass_peaks.push(peak);
        passes.push(pass);
        if cfg.traced {
            span::set_enabled(true);
            let (p, values) = workload::traced_pass(setup, k, &cfg.scale, cfg.workers);
            for (name, v) in values.values {
                samples.push(name, v);
            }
            let busy: f64 = p.jobs.iter().map(|(_, w)| w).sum();
            samples.push("sweep.jobs_per_s", p.attempted as f64 / p.makespan_s);
            samples.push("sweep.job_busy_s", busy);
            samples.push("sweep.pool_util", busy / (p.workers as f64 * p.makespan_s));
            job_walls.extend(p.jobs.iter().map(|(_, w)| *w));
            traced_passes.push(p);
        }
        set_up(cfg, &mut setups, &mut setup_s, 0, 0.01 * budget);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + round_start.elapsed().as_secs_f64() > budget {
            break;
        }
    }
    span::set_enabled(false);

    // The output check.
    let all: Vec<&Pass> = passes.iter().chain(&traced_passes).collect();
    let fingerprints: Vec<(usize, Result<String, String>)> = all
        .iter()
        .map(|p| (p.input, p.fingerprint.clone()))
        .collect();
    let pin = cfg.seed == DEFAULT_SEED;
    let verdict = verify_inputs(&fingerprints, |k| {
        pin.then(|| pinned(cfg.workload, k).unwrap_or("<none pinned>"))
    });
    for (k, v) in verdict.iter().enumerate() {
        match v {
            Ok(fp) => notes.push(format!("output check passed, input {k}: {fp}")),
            Err(e) => notes.push(format!("output check FAILED, {e}")),
        }
    }
    for p in passes.iter().take(INPUTS) {
        notes.push(format!("fidelity, input {}: {}", p.input, p.fidelity));
    }
    let attempted = all.iter().map(|p| p.attempted).sum();
    let failed = all.iter().map(|p| p.failed).sum();

    let mut metrics = Vec::new();
    let spans = span::take();
    if cfg.traced {
        reduce_spans(&spans, &mut samples, &mut notes);
        samples.push("sweep.job_wall_p50_s", quantile(&job_walls, 0.5));
        samples.push("sweep.job_wall_p80_s", quantile(&job_walls, 0.8));
        let untraced = median(&passes.iter().map(Pass::pkts_per_s).collect::<Vec<_>>());
        let traced = median(
            &traced_passes
                .iter()
                .map(Pass::pkts_per_s)
                .collect::<Vec<_>>(),
        );
        samples.push("trace.overhead", 1.0 - traced / untraced);
        notes.push(format!(
            "tracing overhead: untraced {untraced:.0} pkts/s, traced {traced:.0} pkts/s \
             ({} + {} passes)",
            passes.len(),
            traced_passes.len()
        ));
        for (name, unit) in PER_LAYER {
            let v = samples.median(name);
            if v.is_finite() {
                metrics.push((name, v, unit));
            }
        }
    } else {
        let pps: Vec<f64> = passes.iter().map(Pass::pkts_per_s).collect();
        notes.push(format!(
            "{} passes over {INPUTS} inputs, {} set-ups; pkts/s per pass: {}",
            passes.len(),
            setup_s.len(),
            pps.iter()
                .map(|x| format!("{x:.0}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        // The median pass's peak: the process-wide maximum also depends on
        // what earlier passes left in the heap and on which two jobs the
        // pool happened to run side by side (its spread between seeds was
        // 0.35 on `sweep-grid`).
        let peaks: Option<Vec<f64>> = pass_peaks.into_iter().collect();
        let rss = match peaks {
            Some(p) => Some(median(&p)),
            None => {
                notes.push("peak_rss_mib: unavailable (procfs refused the VmHWM reset)".into());
                None
            }
        };
        for (name, value) in [
            ("setup_s", Some(median(&setup_s))),
            ("pkts_per_s", Some(median(&pps))),
            ("peak_rss_mib", rss),
        ] {
            let unit = END_TO_END.iter().find(|(n, _)| *n == name).map(|(_, u)| *u);
            if let (Some(v), Some(u)) = (value, unit) {
                metrics.push((name, v, u));
            }
        }
    }
    Outcome {
        correct: verdict.iter().all(Result::is_ok) && failed == 0,
        attempted,
        failed,
        metrics,
        notes,
        fingerprints,
        spans,
    }
}

/// Set up inputs in turn until `min_reps` set-ups are done and `seconds`
/// have passed, replacing the kept set-up of each input and recording each
/// set-up's time.
fn set_up(
    cfg: &Config,
    setups: &mut [Option<Setup>],
    times: &mut Vec<f64>,
    min_reps: usize,
    seconds: f64,
) {
    let t0 = Instant::now();
    let mut reps = 0;
    while reps < min_reps || (reps < 2000 && t0.elapsed().as_secs_f64() < seconds) {
        let k = times.len() % INPUTS;
        drop(setups[k].take());
        let t = Instant::now();
        let seed = input_seed(cfg.seed, k);
        setups[k] = Some(workload::setup(cfg.workload, seed, &cfg.scale));
        times.push(t.elapsed().as_secs_f64());
        reps += 1;
    }
}

/// [`verify`] for each input of a run, given `(input, fingerprint)` pairs
/// and the pinned fingerprint of each input when the run is pinned. One
/// verdict per input that ran.
pub fn verify_inputs<'a>(
    fingerprints: &[(usize, Result<String, String>)],
    pinned: impl Fn(usize) -> Option<&'a str>,
) -> Vec<Result<String, String>> {
    (0..INPUTS)
        .map(|k| {
            let group: Vec<Result<String, String>> = fingerprints
                .iter()
                .filter(|(i, _)| *i == k)
                .map(|(_, fp)| fp.clone())
                .collect();
            (k, group)
        })
        .filter(|(k, group)| *k == 0 || !group.is_empty())
        .map(|(k, group)| verify(&group, pinned(k)).map_err(|e| format!("input {k}: {e}")))
        .collect()
}

/// The output check across a run's passes: every pass's outputs held
/// their invariants, every pass produced the same fingerprint, and it is
/// the pinned one when `pinned` is given.
pub fn verify(
    fingerprints: &[Result<String, String>],
    pinned: Option<&str>,
) -> Result<String, String> {
    let first = match fingerprints.first() {
        Some(Ok(fp)) => fp,
        Some(Err(e)) => return Err(e.clone()),
        None => return Err("no pass ran".into()),
    };
    for fp in fingerprints {
        match fp {
            Err(e) => return Err(e.clone()),
            Ok(fp) if fp != first => {
                return Err(format!("passes disagree:\n  {first}\n  {fp}"));
            }
            Ok(_) => {}
        }
    }
    match pinned {
        Some(p) if p != first => Err(format!(
            "fingerprint differs from the pinned one:\n  pinned {p}\n  got    {first}"
        )),
        _ => Ok(first.clone()),
    }
}

/// Per-layer samples from the recorded spans: stage times summed per set-up
/// or pass, and the self time of each layer inside the pipeline span.
fn reduce_spans(spans: &[Span], samples: &mut Samples, notes: &mut Vec<String>) {
    let roots = (0..spans.len()).filter(|&i| {
        spans[i].parent.is_none() && matches!(spans[i].name, "bench.setup" | "bench.pass")
    });
    for root in roots {
        let tree = span::subtree(spans, root);
        let mut sums: BTreeMap<&str, f64> = BTreeMap::new();
        for &i in &tree {
            *sums.entry(spans[i].name).or_insert(0.0) += spans[i].dur_s();
        }
        for (metric, name) in SPAN_METRICS {
            if let Some(v) = sums.get(name) {
                samples.push(metric, *v);
            }
        }
        if spans[root].name == "bench.pass" {
            if !sums.contains_key("netsim.inject_all") {
                // Inject-all pipelines: the original run is the reference.
                if let Some(v) = sums.get("netsim.original") {
                    samples.push("netsim.inject_all_s", *v);
                }
            }
            if let (Some(b), Some(c), Some(s)) = (
                sums.get("forensics.compare_blame"),
                sums.get("core.compare"),
                sums.get("forensics.summary"),
            ) {
                samples.push("forensics.blame_s", b - c + s);
            }
        }
        for &p in tree.iter().filter(|&&i| spans[i].name == "bench.pipeline") {
            let sub = span::subtree(spans, p);
            let dur = spans[p].dur_s();
            let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
            for &i in &sub {
                *layers.entry(spans[i].layer()).or_insert(0.0) += span::self_time(spans, i);
            }
            // The pipeline's own span is the benchmark's code: its self
            // time is the part no crate's span accounts for.
            let unattributed = layers.get("bench").copied().unwrap_or(0.0);
            samples.push("trace.unattributed_share", unattributed / dur);
            let parts: Vec<String> = layers.iter().map(|(l, s)| format!("{l} {s:.4}")).collect();
            notes.push(format!(
                "pipeline {dur:.4} s = self time by layer: {} (sum {:.4})",
                parts.join(", "),
                layers.values().sum::<f64>()
            ));
        }
    }
    let parts: Vec<String> = span::layer_self_times(spans)
        .iter()
        .map(|(l, s)| format!("{l} {s:.3}"))
        .collect();
    notes.push(format!(
        "self time by layer over the whole traced run (s): {}",
        parts.join(", ")
    ));
}
