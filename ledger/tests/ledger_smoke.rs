//! Runs the real binary end to end in `--quick` mode: every workload, both
//! passes, checks on, numbers not gated.  A few seconds in all.

use std::process::{Command, Output};

fn ledger(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rtx-ledger"))
        .args(args)
        .env_remove("RTX_THREADS")
        .output()
        .expect("the rtx-ledger binary runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

const WORKLOADS: [&str; 4] = [
    "wire_fleet",
    "direct_fleet",
    "catalog_scan",
    "durable_churn",
];

#[test]
fn every_workload_passes_its_own_checks_in_both_passes() {
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let output = ledger(&[
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--quick",
            ]);
            let report = stdout(&output);
            assert!(
                output.status.success(),
                "{workload} trace={trace}:\n{report}\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
            let result = report.lines().last().expect("a result line");
            assert!(
                result.starts_with("{\"correct\": true, \"attempted\": "),
                "{result}"
            );
            assert!(result.contains("\"failed\": 0, \"metrics\": {"), "{result}");
            let named = if trace == "0" {
                "\"steps_per_s\": {\"value\": "
            } else {
                "\"ledger.trace_overhead_share\": {\"value\": "
            };
            assert!(result.contains(named), "{result}");
            assert!(report.contains("error_share"), "{report}");
            assert!(!report.contains("PROBLEM"), "{report}");
        }
    }
}

#[test]
fn the_schedule_is_a_function_of_the_seed() {
    let hash_of = |seed: &str| -> String {
        let report = stdout(&ledger(&[
            "--workload",
            "durable_churn",
            "--seed",
            seed,
            "--seconds",
            "1",
            "--trace",
            "0",
            "--quick",
        ]));
        report
            .lines()
            .find_map(|line| line.strip_prefix("# schedule_hash: "))
            .unwrap_or_else(|| panic!("no schedule hash in:\n{report}"))
            .to_string()
    };
    assert_eq!(hash_of("42"), hash_of("42"));
    assert_ne!(hash_of("42"), hash_of("43"));
}

#[test]
fn bad_invocations_fail_without_a_result() {
    for args in [
        &["--workload", "no_such_workload", "--quick"][..],
        &["--workload", "direct_fleet", "--trace", "2"][..],
        &["--workload", "direct_fleet", "--seconds", "0"][..],
        &["--frobnicate"][..],
        &["compare", "only-one.json"][..],
        &[][..],
    ] {
        let output = ledger(args);
        assert!(!output.status.success(), "{args:?}");
        assert!(
            stdout(&output).is_empty(),
            "{args:?} printed {}",
            stdout(&output)
        );
    }
    // A policy override in the environment is refused, not measured.
    let output = Command::new(env!("CARGO_BIN_EXE_rtx-ledger"))
        .args(["--workload", "direct_fleet", "--quick"])
        .env("RTX_THREADS", "1")
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("RTX_THREADS"));
}

#[test]
fn the_ledger_command_writes_a_file_that_compares_clean_against_itself() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join("smoke-ledger.json");
    let written = ledger(&[
        "ledger",
        "--seed",
        "3",
        "--quick",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(
        written.status.success(),
        "{}\n{}",
        stdout(&written),
        String::from_utf8_lossy(&written.stderr)
    );
    let compared = ledger(&["compare", path.to_str().unwrap(), path.to_str().unwrap()]);
    let table = stdout(&compared);
    assert!(compared.status.success(), "{table}");
    assert!(
        table.contains("wire_fleet")
            && table.contains("step_p95_us")
            && table.contains("0 violation(s)"),
        "{table}"
    );
    assert!(table.contains("identical"), "{table}");
    std::fs::remove_file(&path).unwrap();
}
