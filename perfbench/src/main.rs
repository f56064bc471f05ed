//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's notes (output check, fidelity, machine, layer self
//! times) and, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The traced run also writes its
//! spans to `out/spans-<workload>-<seed>.json` in this package.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::run::{run, Config};
use perfbench::span;
use perfbench::workload::{Scale, Workload};

fn parse() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (known: {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} out of range (0, 3600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        scale: Scale::full(),
        workers: nproc.min(2),
    })
}

fn main() -> ExitCode {
    let cfg = match parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The streaming trace store spills to the temporary directory; keep
    // it inside this package so the run writes nowhere else.
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let tmp = out.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    std::env::set_var("TMPDIR", &tmp);

    let result = run(&cfg);
    for n in &result.notes {
        println!("# {n}");
    }
    if cfg.traced {
        let path = out.join(format!("spans-{}-{}.json", cfg.workload.name(), cfg.seed));
        match std::fs::write(&path, span::to_json(&result.spans)) {
            Ok(()) => println!(
                "# spans: {} written to {}",
                result.spans.len(),
                path.display()
            ),
            Err(e) => println!("# spans: not written ({e})"),
        }
    }
    println!("{}", result.json());
    ExitCode::SUCCESS
}
