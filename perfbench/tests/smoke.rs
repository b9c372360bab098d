//! Smoke run of every workload at a small size (f=0.02), untraced and
//! traced: each must finish with every oracle check passing, no failed
//! operation, and exactly the metrics BENCHMARK.json declares.

use std::process::Command;

/// Metric names of one section of BENCHMARK.json (`end_to_end` or
/// `per_layer`), read without a JSON library.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string("../BENCHMARK.json")
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\": ["))
        .expect("section present");
    let body = &text[start..];
    body[..body.find(']').expect("section closes")]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_passes_its_oracle_checks() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert_eq!(end_to_end.len(), 11, "{end_to_end:?}");
    assert!(per_layer.len() >= 30, "{per_layer:?}");
    for workload in ["update_mix", "durable_churn"] {
        for (trace, names) in [("0", &end_to_end), ("1", &per_layer)] {
            let result = run(workload, trace);
            assert!(
                result.starts_with("{\"correct\": true, "),
                "{workload}: {result}"
            );
            assert!(result.contains("\"failed\": 0, "), "{workload}: {result}");
            assert_eq!(
                result.matches("\"unit\"").count(),
                names.len(),
                "{workload}: {result}"
            );
            for name in names {
                assert!(
                    result.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload} lacks {name}"
                );
            }
        }
    }
}

#[test]
fn unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
