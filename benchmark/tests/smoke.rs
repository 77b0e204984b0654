//! End-to-end tests of the harness itself, on a 4 000-AS topology with
//! two-second windows (`--smoke`).

use std::process::Command;

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_flatnet-benchmark"))
}

/// The whole suite, traced: all four workloads verify, measure, trace and
/// reconcile, and nothing fails.
#[test]
fn smoke_suite_with_trace_finishes_clean() {
    let out = bench()
        .args(["--smoke", "--trace"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "suite failed\n{stdout}\n{stderr}");
    assert!(stdout.contains("benchmark: OK"), "{stdout}");
    for workload in ["hot", "cold", "fleet", "sweep"] {
        assert!(
            stdout.contains(&format!("reconcile {workload}:")),
            "no reconcile line for {workload}\n{stdout}"
        );
    }
    let results: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .collect();
    // Four untraced runs, four traced, and `cold` once more on a second seed.
    assert_eq!(results.len(), 9, "{stdout}");
    assert!(
        results
            .iter()
            .all(|l| l.starts_with("{\"correct\": true") && l.contains("\"failed\": 0,")),
        "{results:#?}"
    );
    assert!(stdout.contains("sweep checksum"), "{stdout}");
}

/// A deliberately wrong expected value must fail verification, count in
/// `failed`, and make the command exit non-zero.
#[test]
fn wrong_expected_value_fails_the_command() {
    for workload in ["hot", "sweep"] {
        let out = bench()
            .args([
                "--workload",
                workload,
                "--smoke",
                "--trace",
                "0",
                "--inject-wrong-expected",
            ])
            .output()
            .expect("run the benchmark");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            !out.status.success(),
            "{workload}: a wrong answer went unnoticed\n{stdout}"
        );
        let last = stdout.lines().last().unwrap_or("");
        assert!(
            last.starts_with("{\"correct\": false"),
            "{workload}: {last}"
        );
        assert!(!last.contains("\"failed\": 0,"), "{workload}: {last}");
        assert!(stdout.contains("WRONG"), "{workload}: {stdout}");
    }
}

/// The driver's invocation: a seed gives the same inputs every time
/// (the sweep checksum covers topology and sampling), another seed gives
/// others, and the last line is the result object.
#[test]
fn a_seed_fixes_the_inputs() {
    let checksum = |seed: &str| {
        let out = bench()
            .args([
                "--smoke",
                "--workload",
                "sweep",
                "--seed",
                seed,
                "--seconds",
                "1",
                "--trace",
                "0",
            ])
            .output()
            .expect("run the benchmark");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.status.success(), "{stdout}");
        assert!(
            stdout
                .lines()
                .last()
                .unwrap_or("")
                .starts_with("{\"correct\": true, \"attempted\": "),
            "{stdout}"
        );
        stdout
            .lines()
            .find_map(|l| l.strip_prefix("sweep checksum: ").map(str::to_string))
            .expect("a checksum line")
    };
    let (a, b, c) = (checksum("3"), checksum("3"), checksum("4"));
    assert_eq!(a, b);
    assert_ne!(a, c);
}
