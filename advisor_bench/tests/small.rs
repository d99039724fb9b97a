//! Small-mode runs of both workloads, untraced and traced, through
//! every check; the metric names must be exactly those in
//! `BENCHMARK.json`.

use serde::Value;
use std::process::{Command, Output};

fn bench(args: &[&str], env: Option<(&str, String)>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_advisor_bench"));
    // From the repository root, whose workspace builds `advisord`.
    cmd.args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
    cmd.env_remove("STENCILMART_THREADS");
    if let Some((k, v)) = env {
        cmd.env(k, v);
    }
    cmd.output().expect("the benchmark starts")
}

/// Metric names of one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let v = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    let mut names: Vec<String> = v
        .field(section)
        .and_then(Value::as_array)
        .expect("section is a list")
        .iter()
        .map(|m| m.field("name").and_then(Value::as_str).unwrap().to_string())
        .collect();
    names.sort();
    names
}

fn small_run(workload: &str, trace: bool) {
    let trace_flag = if trace { "1" } else { "0" };
    let out = bench(
        &[
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace_flag,
            "--small",
        ],
        None,
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace_flag} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = serde_json::parse_value(stdout.lines().last().expect("a result line"))
        .expect("the last line is JSON");
    assert!(
        result.field("correct").and_then(Value::as_bool).unwrap(),
        "{stdout}"
    );
    let attempted = result.field("attempted").and_then(Value::as_u64).unwrap();
    assert!(attempted > 0);
    // The only operation allowed to fail is the majority-class verdict
    // of the 3-D GBDT classifiers, which do not beat the baseline.
    for line in stdout.lines().filter(|l| l.starts_with("ops: ")) {
        if !line.ends_with("failed=0") {
            assert!(
                workload == "gbdt3d_novel" && line.contains("beats_majority_class"),
                "{workload}: {line}"
            );
        }
    }
    assert!(stdout.contains("host: logical_cores="), "{stdout}");
    let mut got: Vec<String> = result
        .field("metrics")
        .and_then(Value::as_object)
        .unwrap()
        .iter()
        .map(|(k, v)| {
            let value = v.field("value").and_then(Value::as_f64).unwrap();
            assert!(value.is_finite(), "{k} = {value}");
            k.clone()
        })
        .collect();
    got.sort();
    let section = if trace { "per_layer" } else { "end_to_end" };
    assert_eq!(got, declared(section), "{workload} trace={trace_flag}");
}

#[test]
fn nn2d_hot_small() {
    small_run("nn2d_hot", false);
    small_run("nn2d_hot", true);
}

#[test]
fn gbdt3d_novel_small() {
    small_run("gbdt3d_novel", false);
    small_run("gbdt3d_novel", true);
}

#[test]
fn refuses_more_workers_than_cores() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out = bench(
        &[
            "--workload",
            "nn2d_hot",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--small",
        ],
        Some(("STENCILMART_THREADS", (cores + 1).to_string())),
    );
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("exceeds"));
}

#[test]
fn refuses_unknown_workloads() {
    let out = bench(
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        None,
    );
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
