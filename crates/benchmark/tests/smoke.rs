//! Runs the whole benchmark on its `--smoke` sizes — every workload,
//! untraced and traced, each in a child process, exactly as the full
//! command does — and holds the output to `BENCHMARK.json`: every metric
//! the contract names is printed exactly once per workload with a finite
//! value, and no operation fails.

use std::collections::BTreeMap;
use std::process::Command;

/// The `"name": "..."` values of one section of `BENCHMARK.json`.
fn names_in(section: &str) -> Vec<String> {
    section
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .map(str::to_owned)
        .collect()
}

#[test]
fn smoke_run_prints_every_contract_metric_once_and_fails_nothing() {
    let contract =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let (head, rest) = contract
        .split_once("\"end_to_end\"")
        .expect("end_to_end section");
    let (end_to_end, per_layer) = rest.split_once("\"per_layer\"").expect("per_layer section");
    let workloads = names_in(
        head.split_once("\"workloads\"")
            .expect("workloads section")
            .1,
    );
    let end_to_end = names_in(end_to_end);
    let per_layer = names_in(per_layer);
    assert_eq!(workloads.len(), 4);
    assert!(end_to_end.iter().any(|n| n == "setup_s"));
    assert!(
        per_layer.len() >= 70,
        "{} per-layer metrics",
        per_layer.len()
    );

    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--smoke", "--seed", "1"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // printed[workload][metric] = the values seen.
    let mut printed: BTreeMap<&str, BTreeMap<&str, Vec<f64>>> = BTreeMap::new();
    let mut op_lines = 0;
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["metric", workload, name, value, _unit] => printed
                .entry(workload)
                .or_default()
                .entry(name)
                .or_default()
                .push(value.parse().expect("a number")),
            ["#", _, "ops_attempted", attempted, "ops_failed", failed] => {
                op_lines += 1;
                assert_ne!(*attempted, "0", "{line}");
                assert_eq!(*failed, "0", "{line}");
            }
            _ => assert!(!line.contains("INVALID"), "{line}"),
        }
    }
    // One untraced and one traced run per workload.
    assert_eq!(op_lines, 2 * workloads.len());
    for w in &workloads {
        let seen = printed
            .get(w.as_str())
            .unwrap_or_else(|| panic!("{w} printed nothing"));
        for name in end_to_end.iter().chain(&per_layer) {
            let values = seen
                .get(name.as_str())
                .unwrap_or_else(|| panic!("{w} never printed {name}"));
            assert_eq!(values.len(), 1, "{w} printed {name} {} times", values.len());
            assert!(values[0].is_finite(), "{w} {name} = {}", values[0]);
        }
        assert_eq!(
            seen.len(),
            end_to_end.len() + per_layer.len(),
            "{w} printed a metric BENCHMARK.json does not name"
        );
        for name in &end_to_end {
            assert!(seen[name.as_str()][0] > 0.0, "{w} {name} must never be 0");
        }
    }
}
