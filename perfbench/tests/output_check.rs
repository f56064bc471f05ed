//! Self-tests of the benchmark: every workload passes its output check at
//! a tiny size, and the check goes red when an output or the pinned
//! fingerprint is tampered with (a check that cannot fail gates nothing).
//!
//! Runs share the process-wide span recorder, so they take `SERIAL`.

use std::sync::Mutex;

use perfbench::run::{run, verify, verify_inputs, Config, END_TO_END, PER_LAYER};
use perfbench::workload::{check_outcome, pipeline, setup, Scale, Setup, Workload, DEFAULT_SEED};
use ups_netsim::prelude::{Dur, RecordMode, Trace};
use ups_sweep::json::{parse, JsonValue};

static SERIAL: Mutex<()> = Mutex::new(());

fn tiny(workload: Workload, seed: u64, traced: bool) -> Config {
    Config {
        workload,
        seed,
        seconds: 0.5,
        traced,
        scale: Scale::tiny(),
        workers: 2,
    }
}

#[test]
fn every_workload_passes_its_output_check_at_tiny_size() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for w in Workload::ALL {
        for traced in [false, true] {
            let out = run(&tiny(w, 3, traced));
            assert!(
                out.correct && out.failed == 0,
                "{} (traced {traced}) failed its check: {:?}",
                w.name(),
                out.notes
            );
            assert!(out.attempted >= 1);
            let names: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
            if traced {
                // Every per-layer metric, on every workload.
                for (name, _) in PER_LAYER {
                    assert!(names.contains(&name), "{}: no {name}", w.name());
                }
            } else {
                assert_eq!(names, END_TO_END.map(|m| m.0));
            }
        }
    }
}

#[test]
fn the_same_seed_gives_the_same_fingerprint_and_another_seed_another() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let a = run(&tiny(Workload::ExplainPerHop, 5, false));
    let b = run(&tiny(Workload::ExplainPerHop, 5, false));
    let c = run(&tiny(Workload::ExplainPerHop, 6, false));
    assert_eq!(a.fingerprints[0], b.fingerprints[0]);
    assert_ne!(a.fingerprints[0], c.fingerprints[0]);
    // The inputs one run cycles through differ from each other.
    let first = |k| {
        a.fingerprints
            .iter()
            .find(|f| f.0 == k)
            .map(|f| f.1.clone())
    };
    assert_ne!(first(0), first(1));
}

#[test]
fn a_tampered_pinned_fingerprint_fails_the_check() {
    let fp = Ok("injected=1;total=1".to_string());
    assert!(verify(&[fp.clone(), fp.clone()], Some("injected=1;total=1")).is_ok());
    assert!(verify(std::slice::from_ref(&fp), Some("injected=1;total=2")).is_err());
    assert!(verify(&[fp.clone(), Ok("injected=2;total=1".into())], None).is_err());
    // Per input: each input is checked against its own pin.
    let runs = [(0, fp.clone()), (1, Ok("injected=2".to_string())), (0, fp)];
    let pins = |k| Some(["injected=1;total=1", "injected=2"][k]);
    assert!(verify_inputs(&runs, pins).iter().all(Result::is_ok));
    let tampered = verify_inputs(&runs, |k| Some(["injected=1;total=1", "injected=3"][k]));
    assert!(tampered[0].is_ok() && tampered[1].is_err());
    // At the default seed the tiny run cannot match the full-size pin.
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let out = run(&tiny(Workload::ReplayStream, DEFAULT_SEED, false));
    assert!(
        !out.correct,
        "a tiny run matched the full-size pinned fingerprint"
    );
}

#[test]
fn a_tampered_replay_record_fails_the_check() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let Setup::Stream { spec, scenario } = setup(Workload::ReplayStream, 3, &Scale::tiny()) else {
        panic!("replay-stream sets up a stream");
    };
    let p = pipeline(&spec, &scenario, RecordMode::Streaming);
    let mut out = p.run();
    assert!(check_outcome(&p, &out).is_ok());
    // Deliver one replayed packet a millisecond later than it was.
    let mut first = true;
    let records: Vec<_> = out
        .replay
        .stream()
        .map(|(id, mut r)| {
            if first && r.exited.is_some() {
                r.exited = r.exited.map(|o| o + Dur::from_ms(1));
                first = false;
            }
            (id, r)
        })
        .collect();
    out.replay = Trace::synthetic(RecordMode::EndToEnd, records);
    let err = check_outcome(&p, &out).expect_err("the tampered replay passed the check");
    assert!(err.contains("does not reproduce"), "{err}");
}

#[test]
fn benchmark_json_names_the_metrics_the_benchmark_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let v = parse(&doc).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        v.get(key)
            .and_then(JsonValue::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(JsonValue::as_str)
                        .expect("string")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
        l.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = v
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
}
