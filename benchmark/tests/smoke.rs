//! Drives the built binary at `--smoke` scale (2 bulk entries per router,
//! 60 packets, 1 repetition): all four workloads, both phases, and the
//! single-run form the benchmark contract calls.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use diagbench::json::Json;
use diagbench::workload::WORKLOADS;

fn diagbench(args: &[&str], out: &Path) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_diagbench"))
        .args(args)
        .arg("--out")
        .arg(out)
        // A knob in the caller's environment must not reach the engine.
        .env("DP_PROV", "annot")
        .env("DP_THREADS", "1")
        .output()
        .expect("diagbench runs");
    (
        output.status.success(),
        String::from_utf8(output.stdout).expect("utf-8 output"),
    )
}

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The metric names `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc =
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    let names = doc.get(key).and_then(Json::as_arr).expect(key).iter();
    names
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn assert_finite(doc: &Json, group: &str, name: &str, workload: &str) {
    let value = doc
        .get(group)
        .and_then(|g| g.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64);
    assert!(
        value.is_some_and(f64::is_finite),
        "{workload}: {group} {name} missing or not finite: {value:?}"
    );
}

#[test]
fn smoke_suite_reports_every_named_metric_for_all_four_workloads() {
    let out = out_dir("suite");
    let started = Instant::now();
    let (ok, stdout) = diagbench(&["--smoke", "--seed", "11"], &out);
    assert!(ok, "suite failed:\n{stdout}");
    assert!(
        started.elapsed().as_secs() < 15,
        "smoke suite took {:?}",
        started.elapsed()
    );

    let result = std::fs::read_to_string(out.join("result.json")).expect("result.json");
    assert_eq!(
        stdout.lines().last(),
        Some(result.trim_end()),
        "the result document is the last line"
    );
    let result = Json::parse(&result).expect("result.json parses");
    let workloads = result
        .get("workloads")
        .and_then(Json::as_obj)
        .expect("workloads");
    assert_eq!(workloads.len(), 4);

    let timed_context = [
        "diag.wall_s",
        "diag.cold_s",
        "diag.iqr_s",
        "diag.samples",
        "diag.speed_index",
        "diag.setup_wall_s",
        "diag.retained_rss_mb",
        "nproc",
        "engine_threads",
    ];
    for (w, (name, doc)) in WORKLOADS.iter().zip(workloads) {
        assert_eq!(name, w.name);
        assert_eq!(
            doc.get("correct").and_then(Json::as_bool),
            Some(true),
            "{name}"
        );
        assert_eq!(
            doc.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{name}"
        );
        for metric in declared("end_to_end")
            .iter()
            .map(String::as_str)
            .chain(["failed_share"])
        {
            assert_finite(doc, "end_to_end", metric, name);
        }
        for metric in declared("per_layer")
            .iter()
            .map(String::as_str)
            .chain(timed_context)
        {
            assert_finite(doc, "per_layer", metric, name);
        }
        let samples = doc
            .get("end_to_end")
            .and_then(|e| e.get("diagnosis_s"))
            .and_then(|m| m.get("samples"));
        assert_eq!(
            samples.and_then(Json::as_arr).map(<[Json]>::len),
            Some(1),
            "{name}: one timed repetition"
        );

        let trace =
            std::fs::read_to_string(out.join(format!("{name}.trace.json"))).expect("trace file");
        let trace = Json::parse(&trace).expect("trace parses");
        let spans = trace.get("spans").and_then(Json::as_arr).expect("spans");
        let named = |n: &str| {
            spans
                .iter()
                .filter(|s| s.get("name").and_then(Json::as_str) == Some(n))
                .count()
        };
        assert_eq!(named("ndlog.eval"), 1, "{name}");
        assert_eq!(named("provenance.extract"), 40, "{name}");
        assert_eq!(
            named("replay.layers.open"),
            usize::from(w.durable),
            "{name}: only the durable unit opens a store"
        );
        // The diagnosis span of the probe repetition hangs under it.
        let rep = spans
            .iter()
            .position(|s| s.get("name").and_then(Json::as_str) == Some("diag.rep"))
            .expect("diag.rep");
        let diagnose = spans
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some("diag.diagnose"))
            .expect("diag.diagnose");
        assert_eq!(
            diagnose.get("parent").and_then(Json::as_f64),
            Some(rep as f64),
            "{name}"
        );
        assert_eq!(
            diagnose.get("rep").and_then(Json::as_f64),
            Some(1.0),
            "{name}"
        );
    }

    // The store lines carry numbers on the durable workload only.
    let layer_files = |w: &str| {
        let doc = &workloads.iter().find(|(n, _)| n == w).expect(w).1;
        doc.get("per_layer")
            .and_then(|p| p.get("replay.layers.layer_files"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
    };
    assert_eq!(layer_files("campus_tables"), Some(0.0));
    assert!(layer_files("campus_durable").is_some_and(|n| n > 0.0));
}

#[test]
fn a_single_run_prints_exactly_the_contract_result_as_its_last_line() {
    let out = out_dir("single");
    for (trace, group) in [("0", "end_to_end"), ("1", "per_layer")] {
        for w in &WORKLOADS {
            let (ok, stdout) = diagbench(
                &[
                    "--workload",
                    w.name,
                    "--seed",
                    "3",
                    "--seconds",
                    "0",
                    "--trace",
                    trace,
                    "--smoke",
                ],
                &out,
            );
            assert!(ok, "{} --trace {trace} failed:\n{stdout}", w.name);
            let last =
                Json::parse(stdout.lines().last().expect("output")).expect("last line is JSON");
            let keys: Vec<&str> = last
                .as_obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(last.get("correct").and_then(Json::as_bool), Some(true));
            assert!(last
                .get("attempted")
                .and_then(Json::as_f64)
                .is_some_and(|n| n >= 1.0));
            let metrics = last.get("metrics").and_then(Json::as_obj).expect("metrics");
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(names, declared(group), "{} --trace {trace}", w.name);
            for (name, m) in metrics {
                assert!(
                    m.get("value")
                        .and_then(Json::as_f64)
                        .is_some_and(f64::is_finite),
                    "{name}"
                );
                assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
            }
        }
    }
}

#[test]
fn bad_arguments_exit_with_a_usage_error_and_no_result() {
    let out = out_dir("usage");
    for args in [
        &["--workload", "campus_nowhere", "--trace", "0"][..],
        &["--trace", "2", "--workload", "campus_tables"],
        &["--frobnicate"],
        &["--trace", "0"],
    ] {
        let (ok, stdout) = diagbench(args, &out);
        assert!(!ok, "{args:?} should fail");
        assert!(stdout.is_empty(), "{args:?} printed a result: {stdout}");
    }
}
