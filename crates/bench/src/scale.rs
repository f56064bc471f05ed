//! Experiment scaling.
//!
//! The paper's runs simulate seconds of traffic over 100–800-host
//! topologies; regenerating every table/figure at that scale takes tens
//! of minutes. `cargo bench` therefore defaults to a scaled-down
//! configuration with the *same shape* (identical topologies, same
//! utilization calibration, shorter simulated time), and `UPS_SCALE=full`
//! restores paper-scale durations. EXPERIMENTS.md records which setting
//! produced the committed numbers.

use std::str::FromStr;

use ups_netsim::prelude::Dur;

/// Resolved scale parameters.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Simulated workload-arrival window for replay experiments.
    pub replay_window: Dur,
    /// Simulated flow-arrival window for the FCT experiment (Fig. 2).
    pub fct_window: Dur,
    /// Wall-clock horizon for the FCT run (lets late flows drain).
    pub fct_horizon: Dur,
    /// Horizon for the fairness experiment (Fig. 4; paper plots 20 ms).
    pub fairness_horizon: Dur,
    /// Number of independent seeds averaged per scenario.
    pub seeds: u64,
    /// Label for reports.
    pub label: &'static str,
}

impl Scale {
    /// Scaled-down default: minutes, not hours.
    pub fn quick() -> Self {
        Scale {
            replay_window: Dur::from_ms(30),
            fct_window: Dur::from_ms(150),
            fct_horizon: Dur::from_secs(8),
            fairness_horizon: Dur::from_ms(25),
            seeds: 1,
            label: "quick",
        }
    }

    /// Paper-scale durations.
    pub fn full() -> Self {
        Scale {
            replay_window: Dur::from_ms(250),
            fct_window: Dur::from_secs(1),
            fct_horizon: Dur::from_secs(30),
            fairness_horizon: Dur::from_ms(25),
            seeds: 3,
            label: "full",
        }
    }

    /// Resolve from the `UPS_SCALE` environment variable
    /// (`quick`/`full`; default quick).
    pub fn from_env() -> Self {
        match std::env::var("UPS_SCALE").as_deref() {
            Ok("full") => Scale::full(),
            Ok("quick") | Err(_) => Scale::quick(),
            Ok(other) => {
                eprintln!("UPS_SCALE={other:?} not recognized; using quick");
                Scale::quick()
            }
        }
    }
}

/// A numeric knob from the environment: `default` when `name` is unset,
/// the parsed value otherwise. A value that does not parse ends the
/// process (exit status 2) with the variable's name and the bad value —
/// `UPS_SCALE_PACKETS=5e6` must not quietly run at the default.
pub fn env_knob<T: FromStr>(name: &str, default: T) -> T {
    let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_knob(name, raw.as_deref(), default).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// [`env_knob`]'s parse step without the exit; `raw` is the variable's
/// value, `None` when it is unset.
fn parse_knob<T: FromStr>(name: &str, raw: Option<&str>, default: T) -> Result<T, String> {
    match raw {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| {
            format!(
                "{name}={v:?} is not a valid {} value",
                std::any::type_name::<T>()
            )
        }),
    }
}

/// Peak resident-set size of this process in bytes, from `VmHWM` in
/// `/proc/self/status` — the self-measurement the scale benchmark and its
/// CI smoke test assert their memory budget against. Returns `0` on
/// platforms without procfs (the callers' budget asserts then pass
/// vacuously rather than faking a reading).
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_bytes() > 0, "VmHWM must parse on procfs hosts");
        }
    }

    #[test]
    fn knobs_parse_or_name_the_bad_value() {
        assert_eq!(parse_knob("UPS_X", None, 7u64), Ok(7));
        assert_eq!(parse_knob("UPS_X", Some("5000000"), 7u64), Ok(5_000_000));
        assert_eq!(parse_knob("UPS_X", Some("0.25"), 0.1f64), Ok(0.25));
        for bad in ["5e6", "", "-1", "12 ", "lots"] {
            assert_eq!(
                parse_knob("UPS_SCALE_PACKETS", Some(bad), 7u64),
                Err(format!(
                    "UPS_SCALE_PACKETS={bad:?} is not a valid u64 value"
                ))
            );
        }
        assert!(parse_knob("UPS_OBS_TOLERANCE", Some("ten%"), 0.1f64)
            .unwrap_err()
            .starts_with("UPS_OBS_TOLERANCE=\"ten%\""));
    }

    #[test]
    fn quick_is_smaller_than_full() {
        let q = Scale::quick();
        let f = Scale::full();
        assert!(q.replay_window < f.replay_window);
        assert!(q.fct_window < f.fct_window);
        assert!(q.seeds <= f.seeds);
    }
}
