//! Self-test of the benchmark at tiny sizes: every workload emits every
//! declared metric with its unit and passes its checks, the traced run's
//! layers add up, a dropped layer or a corrupted final state is counted as
//! a failure, and no workload oversubscribes a 2-processor host.

use std::sync::{Mutex, MutexGuard};

use bh_core::prelude::*;
use bh_serve::json::Json;
use perfbench::engine::{self, check_add_up, step_layers, step_span, StepLayers};
use perfbench::host::admit;
use perfbench::report::{declared, result_line};
use perfbench::{run, Options, Sizes, Workload};

/// The workloads assume they have the host's processors to themselves, so
/// the tests run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn opts(workload: Workload, traced: bool, corrupt: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.0,
        traced,
        sizes: Sizes::TINY,
        corrupt,
    }
}

/// Parse a result line and check its metrics, in order and with units,
/// against `BENCHMARK.json`.
fn check_line(traced: bool, line: &str) -> Json {
    let doc = Json::parse(line).expect("the result line is JSON");
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("no metrics object in {line}");
    };
    let want = declared(traced);
    assert_eq!(metrics.len(), want.len());
    for ((name, m), d) in metrics.iter().zip(&want) {
        assert_eq!(name, &d.name);
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit.as_str()));
        let v = m
            .get("value")
            .and_then(Json::as_f64)
            .expect("a numeric value");
        assert!(v.is_finite(), "{name} = {v}");
    }
    doc
}

#[test]
fn every_workload_emits_its_declared_metrics_and_passes_its_checks() {
    let _serial = serial();
    for w in Workload::ALL {
        let out = run(&opts(w, false, false)).unwrap();
        assert!(out.checks.attempted > 0);
        assert_eq!(out.checks.failed, 0, "{w:?}: {:?}", out.checks.failures);
        let doc = check_line(false, &result_line(false, &out).unwrap());
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        for name in [
            "setup_s",
            "body_steps_per_s",
            "jobs_per_s",
            "latency_ms_p50",
        ] {
            assert!(
                out.values[name] > 0.0,
                "{w:?}: {name} = {}",
                out.values[name]
            );
        }
    }
}

#[test]
fn traced_run_emits_every_layer_and_its_layers_add_up() {
    let _serial = serial();
    let out = run(&opts(Workload::SimSvm, true, false)).unwrap();
    // The add-up checks (per algorithm and run, and exec + overhead =
    // latency on serve-mix) are part of the run's checks.
    assert_eq!(out.checks.failed, 0, "{:?}", out.checks.failures);
    check_line(true, &result_line(true, &out).unwrap());
}

#[test]
fn a_missing_layer_breaks_the_add_up_check() {
    let _serial = serial();
    let probe = engine::probe(|| NativeEnv::new(2), Sizes::TINY.native_n, 3, 0.0);
    for alg in Algorithm::ALL {
        let mut runs: Vec<(StepLayers, f64)> = probe
            .traced
            .iter()
            .flatten()
            .filter(|(s, _)| s.alg == alg)
            .map(|(s, spans)| (step_layers(s).unwrap(), step_span(s, spans).unwrap()))
            .collect();
        assert!(check_add_up(alg, &runs).is_ok(), "{alg}: {runs:?}");
        for (l, _) in &mut runs {
            l.force = 0.0;
        }
        assert!(check_add_up(alg, &runs).is_err(), "{alg}: {runs:?}");
    }
}

#[test]
fn a_corrupted_final_state_counts_as_a_failure() {
    let _serial = serial();
    for w in Workload::ALL {
        let out = run(&opts(w, false, true)).unwrap();
        assert!(out.checks.failed >= 1, "{w:?}: corruption went unnoticed");
        let doc = Json::parse(&result_line(false, &out).unwrap()).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(
            doc.get("failed").and_then(Json::as_f64),
            Some(out.checks.failed as f64)
        );
    }
}

#[test]
fn no_workload_oversubscribes_two_processors() {
    for w in Workload::ALL {
        for traced in [false, true] {
            let (threads, connections) = w.load(traced);
            assert!(admit(threads, connections, 2).is_ok(), "{w:?}");
            assert!(admit(threads, connections, 1).is_err(), "{w:?}");
        }
    }
}
