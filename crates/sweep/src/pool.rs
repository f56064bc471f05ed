//! A minimal thread pool over `std::thread::scope`.
//!
//! The workload is tens of independent, multi-second simulation jobs, so
//! scheduling cost is noise and the pool needs no queues at all: workers
//! share one atomic job cursor and each `fetch_add` hands out the next
//! index. Every index is claimed exactly once, nothing is locked, and a
//! worker that finishes early simply claims the next job, so a slow job
//! never holds up the rest of the sweep.
//!
//! Determinism: jobs are pure functions of their [`JobSpec`] and results
//! are returned indexed by job id, so worker count and claim order affect
//! wall time only, never the result vector. The cross-thread determinism
//! test in `tests/determinism.rs` pins this.
//!
//! [`JobSpec`]: crate::grid::JobSpec

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// One worker's accounting after (or during) a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerStats {
    /// Worker index.
    pub worker: usize,
    /// Jobs this worker executed.
    pub jobs: u64,
    /// Wall nanoseconds spent inside job closures.
    pub busy_ns: u64,
}

/// Aggregate pool accounting for the sweep report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads used.
    pub workers: usize,
    /// Jobs executed.
    pub jobs: usize,
    /// Per-worker rows, indexed by worker id.
    pub per_worker: Vec<WorkerStats>,
}

/// The worker count [`run_jobs`] actually uses for a given request —
/// clamped to `[1, jobs]` so idle threads are never spawned. Exposed so
/// a [`PoolTelemetry`] can be sized before the pool starts.
pub fn effective_workers(requested: usize, jobs: usize) -> usize {
    requested.clamp(1, jobs.max(1))
}

/// Live, shared pool accounting: one set of relaxed-atomic cells per
/// worker plus a global done-jobs counter. Workers update it as they go;
/// a heartbeat thread may read it concurrently through
/// [`PoolTelemetry::snapshot`]/[`PoolTelemetry::done`] while the sweep
/// runs. Values are monotone, so a mid-run snapshot is a consistent
/// lower bound even though cells are read without synchronization.
#[derive(Debug)]
pub struct PoolTelemetry {
    cells: Vec<[AtomicU64; 2]>, // [jobs, busy_ns]
    done: AtomicU64,
}

impl PoolTelemetry {
    const JOBS: usize = 0;
    const BUSY_NS: usize = 1;

    /// Telemetry for a pool of exactly `workers` threads (use
    /// [`effective_workers`] to match what the pool will spawn).
    pub fn new(workers: usize) -> Self {
        PoolTelemetry {
            cells: (0..workers)
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
            done: AtomicU64::new(0),
        }
    }

    /// Worker rows this telemetry was sized for.
    pub fn workers(&self) -> usize {
        self.cells.len()
    }

    /// Jobs finished so far, across all workers.
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    fn add(&self, worker: usize, cell: usize, n: u64) {
        self.cells[worker][cell].fetch_add(n, Ordering::Relaxed);
    }

    /// A point-in-time copy of every worker row.
    pub fn snapshot(&self) -> Vec<WorkerStats> {
        self.cells
            .iter()
            .enumerate()
            .map(|(worker, c)| WorkerStats {
                worker,
                jobs: c[Self::JOBS].load(Ordering::Relaxed),
                busy_ns: c[Self::BUSY_NS].load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// Render a `catch_unwind` payload (the panic message is almost always a
/// `String` or `&'static str`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).into()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".into()
    }
}

/// Execute `f` over every job on `workers` threads; returns results in
/// job order (index `i` holds `f(i, &jobs[i])`) plus pool stats.
///
/// `f` runs concurrently on multiple threads — it must be `Sync` and is
/// given the job index so callers can stream per-job output as jobs
/// finish (completion order is nondeterministic; the *returned vector*
/// is not).
///
/// # Panics
/// A job that panics is caught on its worker (the rest of the sweep
/// still runs) and re-raised from the collector with the job id attached
/// — use [`run_jobs_labeled`] to also name the scenario.
pub fn run_jobs<J, R, F>(jobs: &[J], workers: usize, f: F) -> (Vec<R>, PoolStats)
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
{
    run_jobs_labeled(jobs, workers, |i, _| format!("job {i}"), f)
}

/// [`run_jobs`] with a diagnostic label per job: when job *i* panics,
/// the re-raised collector panic reads
/// `"sweep job {i} ({label}) panicked: {original message}"` instead of a
/// bogus bookkeeping error, so the failing scenario is identifiable from
/// the report alone.
pub fn run_jobs_labeled<J, R, F, L>(
    jobs: &[J],
    workers: usize,
    label: L,
    f: F,
) -> (Vec<R>, PoolStats)
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
    L: Fn(usize, &J) -> String + Sync,
{
    run_jobs_telemetry(jobs, workers, None, label, f)
}

/// [`run_jobs_labeled`] with live accounting published into `telemetry`
/// as the sweep runs, so a heartbeat thread can report progress and
/// per-worker utilization mid-flight. When `telemetry` is `None` an
/// internal one is used (the final [`PoolStats::per_worker`] rows are
/// filled either way).
///
/// # Panics
/// If a provided telemetry was sized for a different worker count than
/// [`effective_workers`]`(workers, jobs.len())`.
pub fn run_jobs_telemetry<J, R, F, L>(
    jobs: &[J],
    workers: usize,
    telemetry: Option<&PoolTelemetry>,
    label: L,
    f: F,
) -> (Vec<R>, PoolStats)
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
    L: Fn(usize, &J) -> String + Sync,
{
    let workers = effective_workers(workers, jobs.len());
    let internal;
    let tel = match telemetry {
        Some(t) => {
            assert_eq!(
                t.workers(),
                workers,
                "telemetry sized for {} workers, pool uses {workers}",
                t.workers()
            );
            t
        }
        None => {
            internal = PoolTelemetry::new(workers);
            &internal
        }
    };
    // The only shared scheduling state: the next unclaimed job index.
    // `Relaxed` suffices — the cursor orders nothing else, and results
    // travel back to this thread through `join`.
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<R, String>>> =
        std::iter::repeat_with(|| None).take(jobs.len()).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (cursor, f) = (&cursor, &f);
                scope.spawn(move || {
                    let mut done: Vec<(usize, Result<R, String>)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs.len() {
                            return done;
                        }
                        // Catch per job: a panicking scenario must surface
                        // as *its own* failure, not as the collector's
                        // "job never executed".
                        // lint:allow(wall-clock): worker busy-time
                        // telemetry only; jobs never read it.
                        let t0 = Instant::now();
                        let r = std::panic::catch_unwind(AssertUnwindSafe(|| f(i, &jobs[i])))
                            .map_err(|payload| panic_message(payload.as_ref()));
                        tel.add(w, PoolTelemetry::BUSY_NS, t0.elapsed().as_nanos() as u64);
                        tel.add(w, PoolTelemetry::JOBS, 1);
                        tel.done.fetch_add(1, Ordering::Relaxed);
                        done.push((i, r));
                    }
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("sweep worker panicked outside a job") {
                assert!(slots[i].is_none(), "job {i} executed twice");
                slots[i] = Some(r);
            }
        }
    });

    let results: Vec<R> = slots
        .into_iter()
        .enumerate()
        .map(
            |(i, r)| match r.unwrap_or_else(|| panic!("job {i} never executed")) {
                Ok(r) => r,
                Err(msg) => panic!("sweep job {i} ({}) panicked: {msg}", label(i, &jobs[i])),
            },
        )
        .collect();
    let per_worker = tel.snapshot();
    let stats = PoolStats {
        workers,
        jobs: jobs.len(),
        per_worker,
    };
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_in_job_order_for_any_worker_count() {
        let jobs: Vec<u64> = (0..97).collect();
        for workers in [1, 2, 3, 8, 200] {
            let (out, stats) = run_jobs(&jobs, workers, |i, &j| {
                assert_eq!(i as u64, j);
                j * j
            });
            assert_eq!(out, jobs.iter().map(|j| j * j).collect::<Vec<_>>());
            assert_eq!(stats.jobs, 97);
            assert!(stats.workers <= 97);
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let jobs: Vec<usize> = (0..500).collect();
        for workers in [1, 2, 3, 8] {
            let runs: Vec<AtomicUsize> = jobs.iter().map(|_| AtomicUsize::new(0)).collect();
            let (out, stats) = run_jobs(&jobs, workers, |i, &j| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                j
            });
            for (i, n) in runs.iter().enumerate() {
                assert_eq!(n.load(Ordering::Relaxed), 1, "job {i} on {workers} workers");
            }
            assert_eq!(out, jobs);
            let ran: u64 = stats.per_worker.iter().map(|w| w.jobs).sum();
            assert_eq!(ran, 500);
        }
    }

    #[test]
    fn an_idle_worker_takes_every_job_a_slow_one_leaves() {
        // Job 0 is claimed first and cannot finish until the other 39
        // have, so whichever worker holds it runs nothing else: the
        // other worker must claim all 39. No sleeps, no timing bounds;
        // the deadline only turns a hang into a failure.
        let finished = AtomicUsize::new(0);
        let jobs: Vec<usize> = (0..40).collect();
        let tel = PoolTelemetry::new(effective_workers(2, jobs.len()));
        let (_, stats) = run_jobs_telemetry(
            &jobs,
            2,
            Some(&tel),
            |i, _| format!("job {i}"),
            |i, _| {
                if i > 0 {
                    finished.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                let deadline = Instant::now() + std::time::Duration::from_secs(60);
                while finished.load(Ordering::Relaxed) < 39 {
                    assert!(Instant::now() < deadline, "job 0 starved: the pool stalled");
                    std::thread::yield_now();
                }
            },
        );
        let mut per_worker: Vec<u64> = stats.per_worker.iter().map(|w| w.jobs).collect();
        per_worker.sort_unstable();
        assert_eq!(per_worker, vec![1, 39]);
        assert_eq!(per_worker.iter().sum::<u64>(), tel.done());
        assert_eq!(tel.done(), 40);
        assert!(
            stats.per_worker.iter().any(|w| w.busy_ns > 0),
            "the spinning job must accrue busy time"
        );
    }

    #[test]
    fn panicking_job_reports_its_id_and_label_not_a_collector_error() {
        // Regression: a worker panic used to tear the thread down and
        // surface as the collector's misleading "job {i} never executed".
        let jobs: Vec<usize> = (0..8).collect();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_jobs_labeled(
                &jobs,
                2,
                |i, &j| format!("scenario-{j}/seed-{i}"),
                |_, &j| {
                    if j == 5 {
                        panic!("bottleneck bandwidth must be positive");
                    }
                    j
                },
            )
        }))
        .expect_err("the job panic must propagate");
        let msg = panic_message(caught.as_ref());
        assert!(msg.contains("sweep job 5"), "bad message: {msg}");
        assert!(msg.contains("scenario-5/seed-5"), "bad message: {msg}");
        assert!(
            msg.contains("bottleneck bandwidth must be positive"),
            "original panic text lost: {msg}"
        );
        assert!(
            !msg.contains("never executed"),
            "bogus collector error: {msg}"
        );
    }

    #[test]
    fn other_jobs_still_run_when_one_panics() {
        let count = AtomicUsize::new(0);
        let jobs: Vec<usize> = (0..20).collect();
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_jobs(&jobs, 4, |_, &j| {
                count.fetch_add(1, Ordering::Relaxed);
                if j == 0 {
                    panic!("boom");
                }
                j
            })
        }));
        assert_eq!(
            count.load(Ordering::Relaxed),
            20,
            "a panic must not take the worker's remaining queue down with it"
        );
    }

    #[test]
    fn telemetry_conservation_holds_when_a_job_panics() {
        // Audit of the panic path: every accounting update (per-worker
        // jobs/busy_ns and the global done counter) happens *after* the
        // catch_unwind, so a panicking job is billed like any other and
        // Σ per-worker jobs == done == jobs must survive a panic.
        let jobs: Vec<usize> = (0..30).collect();
        let tel = PoolTelemetry::new(effective_workers(3, jobs.len()));
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_jobs_telemetry(
                &jobs,
                3,
                Some(&tel),
                |i, _| format!("{i}"),
                |_, &j| {
                    if j == 7 {
                        panic!("boom");
                    }
                    j
                },
            )
        }))
        .expect_err("the job panic must propagate");
        let msg = panic_message(caught.as_ref());
        assert!(msg.contains("sweep job 7"), "bad message: {msg}");
        let rows = tel.snapshot();
        let jobs_sum: u64 = rows.iter().map(|w| w.jobs).sum();
        assert_eq!(
            jobs_sum, 30,
            "panicking job must still count in its worker row"
        );
        assert_eq!(tel.done(), 30, "panicking job must still count in done");
    }

    #[test]
    #[should_panic(expected = "telemetry sized for")]
    fn mis_sized_telemetry_is_rejected() {
        let tel = PoolTelemetry::new(7);
        let jobs: Vec<usize> = (0..4).collect();
        let _ = run_jobs_telemetry(&jobs, 2, Some(&tel), |i, _| format!("{i}"), |_, _| ());
    }

    #[test]
    fn zero_workers_clamps_to_one_and_empty_jobs_is_fine() {
        let (out, stats) = run_jobs(&[1, 2, 3], 0, |_, &j| j);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(stats.workers, 1);
        let (out, _) = run_jobs::<u32, u32, _>(&[], 4, |_, &j| j);
        assert!(out.is_empty());
    }
}
