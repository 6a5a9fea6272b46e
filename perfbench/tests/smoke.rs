//! Runs every workload at the tiny scale and checks the result line: each
//! metric `BENCHMARK.json` names is printed, with its unit, as a finite
//! number, and the counts repeat exactly from one run to the next.

use std::path::Path;
use std::process::{Command, Output};

const MANIFEST_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// The benchmark binary, with the `DP_*` variables it refuses cleared.
fn command() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    for (k, _) in std::env::vars() {
        if k.starts_with("DP_") {
            cmd.env_remove(k);
        }
    }
    cmd
}

fn perfbench(args: &[&str]) -> Output {
    command().args(args).output().expect("perfbench runs")
}

fn benchmark_json() -> String {
    std::fs::read_to_string(Path::new(MANIFEST_DIR).join("../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root")
}

/// The `name` values of the entries in the manifest's `section` array.
fn names_in(manifest: &str, section: &str) -> Vec<String> {
    let start = manifest
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &manifest[start..];
    let body = &body[..body.find(']').expect("the section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("the name closes")].to_string())
        .collect()
}

/// The value and unit of `name` in a result line.
fn metric(result: &str, name: &str) -> Option<(f64, String)> {
    let rest = &result[result.find(&format!("\"{name}\": {{\"value\": "))?..];
    let rest = &rest[rest.find("\"value\": ")? + 9..];
    let value = rest[..rest.find(',')?].parse().ok()?;
    let rest = &rest[rest.find("\"unit\": \"")? + 9..];
    Some((value, rest[..rest.find('"')?].to_string()))
}

/// Runs one tiny run and returns its result line.
fn run(workload: &str, trace: &str) -> String {
    let out = perfbench(&[
        "--workload",
        workload,
        "--seed",
        "101",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--scale",
        "tiny",
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}"
    );
    let last = stdout.lines().last().expect("a result line").to_string();
    assert!(last.starts_with("{\"correct\": true, "), "{last}");
    last
}

#[test]
fn committed_manifest_matches_the_binary() {
    let out = perfbench(&["--manifest"]);
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8(out.stdout).expect("utf-8"),
        benchmark_json()
    );
}

#[test]
fn every_metric_is_printed_finite_with_its_unit_and_counts_repeat() {
    let manifest = benchmark_json();
    let workloads = names_in(&manifest, "workloads");
    assert_eq!(workloads, ["campus", "campus_churn", "mapreduce"]);
    for w in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let first = run(w, trace);
            for name in names_in(&manifest, section) {
                let (value, unit) = metric(&first, &name)
                    .unwrap_or_else(|| panic!("{w}: {name} missing from {first}"));
                assert!(value.is_finite(), "{w}: {name} = {value}");
                assert!(!unit.is_empty(), "{w}: {name} has no unit");
            }
            if trace == "1" {
                let second = run(w, trace);
                for name in names_in(&manifest, section) {
                    let (a, unit) = metric(&first, &name).expect("checked above");
                    if unit == "count" {
                        let (b, _) = metric(&second, &name).expect("same metrics");
                        assert_eq!(a, b, "{w}: count {name} changed between runs");
                    }
                }
            }
        }
    }
}

#[test]
fn refuses_to_run_when_a_dp_variable_is_set() {
    let out = command()
        .args([
            "--workload",
            "campus",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env("DP_THREADS", "1")
        .output()
        .expect("perfbench runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result may be printed");
}
