//! Runs every workload at a tiny size, in both modes, and checks the
//! result line against `BENCHMARK.json`: the output check passes, and
//! the emitted metrics are exactly the declared ones, with their units.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["fleet-mix", "brownout", "wide-suite"];

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("metric list is an array")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5;
        entry[at..at + entry[at..].find('"').unwrap()].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

/// Runs the benchmark binary and returns its exit status and stdout.
fn perf(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    (out.status.success(), String::from_utf8(out.stdout).unwrap())
}

/// `(name, unit)` pairs of the result line's metrics.
fn emitted(result: &str) -> Vec<(String, String)> {
    let metrics = &result[result.find("\"metrics\": {").expect("metrics object") + 12..];
    metrics
        .split("}, ")
        .map(|m| {
            let name = m.split('"').nth(1).expect("metric name").to_string();
            let unit = m.split("\"unit\": \"").nth(1).expect("unit");
            (name, unit[..unit.find('"').unwrap()].to_string())
        })
        .collect()
}

#[test]
fn every_workload_emits_the_declared_metrics_and_passes_its_check() {
    for workload in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, stdout) = perf(&[
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "0.2",
                "--trace",
                trace,
                "--tiny",
            ]);
            assert!(ok, "{workload} --trace {trace} failed:\n{stdout}");
            let result = stdout.lines().last().expect("a result line");
            assert!(
                result.starts_with("{\"correct\": true, \"attempted\": ")
                    && result.contains("\"failed\": 0, "),
                "{workload} --trace {trace}: {result}"
            );
            assert_eq!(
                emitted(result),
                declared(section),
                "{workload} --trace {trace}"
            );
            assert!(
                stdout.contains("\"held_out_seed\""),
                "metadata line missing"
            );
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "brownout", "--seed", "1", "--seconds", "1"][..],
    ] {
        let (ok, stdout) = perf(args);
        assert!(!ok && stdout.is_empty(), "{args:?}: {stdout}");
    }
}
