//! The sweep heartbeat: a background thread that periodically reads the
//! live [`PoolTelemetry`] and turns it into
//! [`ups_obs::HeartbeatRecord`]s — a throttled stderr progress line
//! (done/total, jobs/sec, ETA), an optional `*.heartbeat.jsonl` stream,
//! and the tick history behind the run-level
//! `ups-obs-timeseries/v2` artifact.
//!
//! The heartbeat only ever *reads* relaxed counters; it cannot perturb
//! job results (jobs are pure functions of their specs) and is therefore
//! outside the determinism surface.

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ups_obs::{HeartbeatRecord, WorkerRow};

use crate::pool::PoolTelemetry;

/// How a [`Heartbeat`] reports.
#[derive(Debug, Clone)]
pub struct HeartbeatConfig {
    /// Jobs in the sweep (the denominator of every progress line).
    pub total: u64,
    /// Tick period. Sub-second keeps short CI sweeps from finishing
    /// between ticks; the work per tick is a few atomic loads.
    pub interval: Duration,
    /// Print a `# progress ...` line to stderr each tick.
    pub progress: bool,
    /// Append one heartbeat JSON line per tick to this file.
    pub jsonl: Option<PathBuf>,
}

/// Build the record for "now" from the live pool counters.
// lint:allow(wall-clock): heartbeat telemetry — observes the pool,
// never feeds back into job execution or any record's determinism
// surface (heartbeats are obs artifacts).
fn record_now(tel: &PoolTelemetry, total: u64, t0: Instant) -> HeartbeatRecord {
    let t_s = t0.elapsed().as_secs_f64();
    let done = tel.done().min(total);
    let jobs_per_sec = if t_s > 0.0 { done as f64 / t_s } else { 0.0 };
    let eta_s = (done > 0 && jobs_per_sec > 0.0).then(|| (total - done) as f64 / jobs_per_sec);
    let workers = tel
        .snapshot()
        .into_iter()
        .map(|w| {
            let busy_s = w.busy_ns as f64 / 1e9;
            WorkerRow {
                worker: w.worker,
                jobs: w.jobs,
                busy_s,
                utilization: if t_s > 0.0 { busy_s / t_s } else { 0.0 },
            }
        })
        .collect();
    HeartbeatRecord {
        t_s,
        done,
        total,
        jobs_per_sec,
        eta_s,
        workers,
    }
}

fn progress_line(r: &HeartbeatRecord) {
    let eta = match r.eta_s {
        Some(e) => format!(", eta {e:.0}s"),
        None => String::new(),
    };
    eprintln!(
        "# progress {}/{} jobs ({:.2} jobs/sec{eta})",
        r.done, r.total, r.jobs_per_sec
    );
}

/// A running heartbeat thread. Construct with [`Heartbeat::start`]
/// before launching the pool, stop with [`Heartbeat::finish`] after it
/// returns — the final tick is always recorded, so even a sweep shorter
/// than one interval yields a non-empty record history.
pub struct Heartbeat {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<HeartbeatRecord>>,
}

impl Heartbeat {
    /// Spawn the heartbeat over `telemetry`. Fails, before any thread
    /// starts, if `config.jsonl` names a file that cannot be created.
    pub fn start(
        telemetry: Arc<PoolTelemetry>,
        config: HeartbeatConfig,
    ) -> std::io::Result<Heartbeat> {
        let mut jsonl = match &config.jsonl {
            Some(p) => Some(BufWriter::new(File::create(p)?)),
            None => None,
        };
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            // lint:allow(wall-clock): heartbeat clock; see record_now.
            let t0 = Instant::now();
            let mut records = Vec::new();
            let emit = |records: &mut Vec<HeartbeatRecord>, jsonl: &mut Option<BufWriter<File>>| {
                let r = record_now(&telemetry, config.total, t0);
                if let Some(out) = jsonl.as_mut() {
                    writeln!(out, "{}", r.to_json()).expect("write heartbeat record");
                    out.flush().expect("flush heartbeat record");
                }
                if config.progress {
                    progress_line(&r);
                }
                records.push(r);
            };
            while !stop_flag.load(Ordering::Relaxed) {
                std::thread::park_timeout(config.interval);
                if stop_flag.load(Ordering::Relaxed) {
                    break;
                }
                emit(&mut records, &mut jsonl);
            }
            // The completion tick: records the final counters even when
            // the whole sweep fit inside one interval.
            emit(&mut records, &mut jsonl);
            records
        });
        Ok(Heartbeat { stop, handle })
    }

    /// Stop the thread and return every tick recorded (at least one).
    pub fn finish(self) -> Vec<HeartbeatRecord> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.thread().unpark();
        self.handle.join().expect("heartbeat thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_always_records_a_final_tick() {
        let tel = Arc::new(PoolTelemetry::new(2));
        let hb = Heartbeat::start(
            Arc::clone(&tel),
            HeartbeatConfig {
                total: 4,
                interval: Duration::from_secs(3600), // never ticks on its own
                progress: false,
                jsonl: None,
            },
        )
        .expect("no file to create");
        let records = hb.finish();
        assert_eq!(records.len(), 1, "completion tick must always fire");
        assert_eq!(records[0].total, 4);
        assert_eq!(records[0].workers.len(), 2);
    }

    #[test]
    fn heartbeat_jsonl_lines_parse_back() {
        let dir = std::env::temp_dir().join(format!("ups-obs-hb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.heartbeat.jsonl");
        let tel = Arc::new(PoolTelemetry::new(1));
        let hb = Heartbeat::start(
            Arc::clone(&tel),
            HeartbeatConfig {
                total: 1,
                interval: Duration::from_millis(5),
                progress: false,
                jsonl: Some(path.clone()),
            },
        )
        .expect("create heartbeat jsonl");
        std::thread::sleep(Duration::from_millis(30));
        let records = hb.finish();
        assert!(!records.is_empty());
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), records.len());
        for line in lines {
            let v = crate::json::parse(line).expect("heartbeat line parses");
            crate::schema::walk(&v, crate::schema::HEARTBEAT, "tick")
                .expect("heartbeat line matches its table");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn heartbeat_reports_an_uncreatable_jsonl_path() {
        let path = std::env::temp_dir()
            .join(format!("ups-obs-hb-missing-{}", std::process::id()))
            .join("no-such-dir")
            .join("t.heartbeat.jsonl");
        let started = Heartbeat::start(
            Arc::new(PoolTelemetry::new(1)),
            HeartbeatConfig {
                total: 1,
                interval: Duration::from_secs(3600),
                progress: false,
                jsonl: Some(path),
            },
        );
        assert!(
            started.is_err(),
            "a path under a missing directory must fail"
        );
    }
}
