//! Regenerates **Figure 2** — mean flow completion time bucketed by flow
//! size, for FIFO / SRPT / SJF / LSTF(slack = flow_size × D) with TCP
//! flows on the default Internet2 at 70% utilization and 5 MB router
//! buffers.
//!
//! The four schemes are independent simulations, so they run as jobs on
//! the `ups-sweep` job pool (`UPS_SWEEP_WORKERS` caps the
//! width; default: one worker per scheme, at most the core count).
//!
//! Output: per scheme, the overall mean FCT (the figure's legend) and one
//! row per Figure 2 size bucket.

use ups_bench::{env_knob, figure_setup, run_fct_experiment, FctScheme};
use ups_metrics::{frac, mean_fct_by_bucket, overall_mean_fct, Table, FIG2_BUCKETS};

fn workers_from_env(jobs: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    env_knob("UPS_SWEEP_WORKERS", cores).clamp(1, jobs)
}

fn main() {
    let setup = figure_setup();
    println!(
        "# Figure 2: mean FCT by flow size (scale={}, window={}, horizon={})",
        setup.scale.label, setup.scale.fct_window, setup.scale.fct_horizon
    );
    println!("# paper legend: FIFO 0.288s, SRPT 0.208s, SJF 0.194s, LSTF 0.195s");
    let schemes = FctScheme::ALL;
    let workers = workers_from_env(schemes.len());
    let (all_samples, stats) = ups_sweep::pool::run_jobs(&schemes, workers, |_, &scheme| {
        run_fct_experiment(
            &setup.topo,
            scheme,
            0.7,
            setup.scale.fct_window,
            setup.scale.fct_horizon,
            setup.seed,
        )
    });
    let mut table = Table::new(&["bucket(B)", "FIFO", "SRPT", "SJF", "LSTF", "flows/bucket"]);
    let mut per_scheme = Vec::new();
    for (scheme, samples) in schemes.iter().zip(&all_samples) {
        println!(
            "{}: mean FCT {} over {} completed flows",
            scheme.label(),
            frac(overall_mean_fct(samples)),
            samples.len()
        );
        per_scheme.push(mean_fct_by_bucket(samples, &FIG2_BUCKETS));
    }
    for (i, &bucket) in FIG2_BUCKETS.iter().enumerate() {
        table.row(&[
            bucket.to_string(),
            format!("{:.4}", per_scheme[0][i].1),
            format!("{:.4}", per_scheme[1][i].1),
            format!("{:.4}", per_scheme[2][i].1),
            format!("{:.4}", per_scheme[3][i].1),
            per_scheme[0][i].2.to_string(),
        ]);
    }
    // The trailing overflow bucket (flows beyond the last Figure-2 edge).
    // Schemes complete different flow sets by the horizon, so the count
    // column reports the largest overflow population across schemes.
    let last = FIG2_BUCKETS.len();
    let overflow_max = per_scheme.iter().map(|rows| rows[last].2).max().unwrap();
    if overflow_max > 0 {
        table.row(&[
            "> last edge".into(),
            format!("{:.4}", per_scheme[0][last].1),
            format!("{:.4}", per_scheme[1][last].1),
            format!("{:.4}", per_scheme[2][last].1),
            format!("{:.4}", per_scheme[3][last].1),
            format!("<= {overflow_max}"),
        ]);
    }
    println!("{}", table.render());
    println!(
        "# pool: {} schemes on {} workers",
        stats.jobs, stats.workers
    );
}
