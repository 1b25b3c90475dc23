//! The benchmark's contract with whoever runs it: `BENCHMARK.json`
//! names follow the grammar, and a run on a seed never used to tune the
//! benchmark passes its own checks and prints exactly the metrics the
//! file names. The runs build full-scale models, so run these with
//! `cargo test --release`.

use std::path::Path;
use std::process::Command;

fn benchmark_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// The `[...]` list under `key`.
fn section<'a>(json: &'a str, key: &str) -> &'a str {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key}"));
    let rest = &json[start..];
    let open = rest.find('[').expect("a list");
    let close = rest.find(']').expect("a closed list");
    &rest[open..=close]
}

/// Every string value of `"field": "…"` in `text`.
fn string_values(text: &str, field: &str) -> Vec<String> {
    let marker = format!("\"{field}\":");
    text.match_indices(&marker)
        .map(|(i, _)| {
            let rest = &text[i + marker.len()..];
            let open = rest.find('"').expect("a string value") + 1;
            let len = rest[open..].find('"').expect("a closed string");
            rest[open..open + len].to_string()
        })
        .collect()
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn benchmark_json_names_and_units_follow_the_grammar() {
    let json = benchmark_json();
    let mut all = Vec::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        let names = string_values(section(&json, key), "name");
        assert!(!names.is_empty(), "{key} is empty");
        all.extend(names);
    }
    for name in &all {
        assert!(is_name(name), "bad name {name:?}");
    }
    let mut sorted = all.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), all.len(), "a name is used twice");
    for key in ["end_to_end", "per_layer"] {
        for unit in string_values(section(&json, key), "unit") {
            assert!(is_unit(&unit), "bad unit {unit:?}");
        }
    }
    assert!(
        string_values(section(&json, "end_to_end"), "name").contains(&"setup_s".to_string()),
        "setup_s is an end-to-end metric"
    );
}

#[test]
fn name_grammar_rejects_what_the_contract_forbids() {
    assert!(is_name("layer_us.fc6.b8"));
    assert!(is_name("artifact_decode_ms.huffman-packed"));
    assert!(!is_name(".hidden"));
    assert!(!is_name("has space"));
    assert!(!is_name(&"x".repeat(65)));
    assert!(is_unit("frames/s"));
    assert!(!is_unit("µs"));
}

/// Runs the benchmark and returns its last stdout line.
fn run(workload: &str, seed: &str, trace: &str) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .args(["--workload", workload, "--seed", seed, "--seconds", "2"])
        .args(["--trace", trace])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.success(), last)
}

/// Metric names of a result line, in order.
fn metric_names(line: &str) -> Vec<String> {
    line.match_indices(": {\"value\"")
        .map(|(i, _)| {
            let head = &line[..i - 1];
            let open = head.rfind('"').expect("a quoted name") + 1;
            head[open..].to_string()
        })
        .collect()
}

fn expect_metrics(line: &str, key: &str) {
    assert!(line.starts_with("{\"correct\": true, "), "{line}");
    let mut got = metric_names(line);
    let mut want = string_values(section(&benchmark_json(), key), "name");
    got.sort();
    want.sort();
    assert_eq!(got, want);
}

#[test]
fn held_out_seed_passes_and_prints_every_end_to_end_metric() {
    for workload in ["alexnet-tcp", "alexnet-offline", "registry-churn"] {
        let (ok, line) = run(workload, "90210", "0");
        assert!(ok, "{workload}: {line}");
        expect_metrics(&line, "end_to_end");
    }
}

#[test]
fn traced_run_prints_every_per_layer_metric() {
    let (ok, line) = run("alexnet-tcp", "90211", "1");
    assert!(ok, "{line}");
    expect_metrics(&line, "per_layer");
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
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
        .expect("the benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
