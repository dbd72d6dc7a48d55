//! `rtx-ledger ledger` and `rtx-ledger compare`: the whole ledger in one
//! file, and the check of one such file against another.
//!
//! `compare` prints every (workload, end-to-end metric) pair in its own row
//! with both values, the relative change and the bound; it fails when a
//! metric worsened beyond its bound, when a workload's `error_share` rose at
//! all, or — for two ledgers of the same seed — when a metric that is an
//! exact count differs.

use crate::contract;
use crate::json::{self, Json};
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// Per-layer metrics that are counts over a fixed prefix of the schedule:
/// the same code on the same seed must reproduce them exactly.
const EXACT_COUNTS: &[&str] = &[
    "front.bytes_per_step",
    "datalog.tuples_derived_per_step",
    "datalog.rule_applications_per_step",
    "datalog.magic_tuples_per_step",
    "datalog.cached_rows",
    "verify.work_per_step",
    "store.wal_bytes_per_mutation",
    "store.fsyncs_per_mutation",
    "store.bytes_appended",
];

/// Runs every workload, untraced then traced, each in a child process of
/// this binary, echoing their reports; returns the ledger document and
/// whether every run was correct.
pub fn collect(seed: u64, seconds: f64, quick: bool) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in contract::WORKLOADS {
        let mut passes = Vec::new();
        for (key, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
            let mut command = Command::new(&exe);
            command
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", trace]);
            if quick {
                command.arg("--quick");
            }
            let output = command.output().map_err(|e| format!("{workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            let result = stdout
                .lines()
                .last()
                .filter(|line| json::parse(line).is_ok())
                .ok_or_else(|| format!("{workload} (trace {trace}) printed no result"))?;
            all_correct &= output.status.success();
            passes.push(format!("{}: {result}", json::quote(key)));
        }
        workloads.push(format!(
            "{}: {{{}}}",
            json::quote(workload),
            passes.join(", ")
        ));
    }
    let document = format!(
        "{{\"seed\": {seed}, \"seconds\": {seconds}, \"quick\": {quick}, \"nproc\": {}, \"git_rev\": {}, \"workloads\": {{\n{}\n}}}}\n",
        crate::common::nproc(),
        json::quote(&git_rev()),
        workloads.join(",\n")
    );
    Ok((document, all_correct))
}

/// The commit the numbers belong to, when the benchmark runs inside a git
/// checkout.
fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric(ledger: &Json, workload: &str, pass: &str, name: &str) -> Option<f64> {
    ledger
        .get("workloads")?
        .get(workload)?
        .get(pass)?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

fn error_share(ledger: &Json, workload: &str) -> Option<f64> {
    let result = ledger.get("workloads")?.get(workload)?.get("end_to_end")?;
    let failed = result.get("failed")?.as_f64()?;
    let attempted = result.get("attempted")?.as_f64()?;
    Some(failed / attempted.max(1.0))
}

/// Compares ledger `b` (the change) against ledger `a` (the parent).
/// Returns the table and the number of violations.
pub fn compare(a: &Path, b: &Path) -> Result<(String, usize), String> {
    let (a, b) = (load(a)?, load(b)?);
    let mut table = String::new();
    let mut violations = 0;
    let _ = writeln!(
        table,
        "{:<14} {:<34} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for workload in contract::WORKLOADS {
        for def in contract::END_TO_END {
            let (Some(va), Some(vb)) = (
                metric(&a, workload, "end_to_end", def.name),
                metric(&b, workload, "end_to_end", def.name),
            ) else {
                violations += 1;
                let _ = writeln!(
                    table,
                    "{workload:<14} {:<34} missing from a ledger  VIOLATION",
                    def.name
                );
                continue;
            };
            // Positive = worse, as a share of `a`.
            let worse_by = match def.better {
                "higher" => (va - vb) / va,
                _ => (vb - va) / va,
            };
            let bound = contract::bound(def.name);
            let verdict = if worse_by > bound {
                violations += 1;
                "VIOLATION"
            } else {
                "ok"
            };
            let _ = writeln!(
                table,
                "{workload:<14} {:<34} {va:>16.4} {vb:>16.4} {:>+8.2}% {:>6.0}%  {verdict}",
                format!("{} [{}]", def.name, def.unit),
                worse_by * 100.0,
                bound * 100.0
            );
        }
        let (ea, eb) = (error_share(&a, workload), error_share(&b, workload));
        let verdict = match (ea, eb) {
            (Some(ea), Some(eb)) if eb <= ea => "ok",
            _ => {
                violations += 1;
                "VIOLATION"
            }
        };
        let _ = writeln!(
            table,
            "{workload:<14} {:<34} {:>16} {:>16} {:>9} {:>7}  {verdict}",
            "error_share [ratio]",
            ea.map_or("missing".into(), |v| format!("{v:.6}")),
            eb.map_or("missing".into(), |v| format!("{v:.6}")),
            "",
            "0%"
        );
    }

    let seed = |ledger: &Json| ledger.get("seed").and_then(Json::as_f64);
    if seed(&a).is_some() && seed(&a) == seed(&b) {
        let _ = writeln!(table, "\nexact counts (same seed, so they must repeat):");
        for workload in contract::WORKLOADS {
            for name in EXACT_COUNTS {
                let (va, vb) = (
                    metric(&a, workload, "per_layer", name),
                    metric(&b, workload, "per_layer", name),
                );
                if va.unwrap_or(0.0) == 0.0 && vb.unwrap_or(0.0) == 0.0 {
                    continue;
                }
                let verdict = if va == vb {
                    "identical"
                } else {
                    violations += 1;
                    "DIFFERS"
                };
                let _ = writeln!(
                    table,
                    "{workload:<14} {name:<34} {:>16} {:>16}  {verdict}",
                    va.map_or("missing".into(), |v| v.to_string()),
                    vb.map_or("missing".into(), |v| v.to_string())
                );
            }
        }
    }
    let _ = writeln!(table, "\n{violations} violation(s)");
    Ok((table, violations))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(seed: u64, steps_per_s: f64, p95: f64, failed: u64, wal_bytes: f64) -> String {
        let end_to_end: Vec<String> = contract::END_TO_END
            .iter()
            .map(|def| {
                let value = match def.name {
                    "steps_per_s" => steps_per_s,
                    "step_p95_us" => p95,
                    _ => 10.0,
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    def.name, def.unit
                )
            })
            .collect();
        let workloads: Vec<String> = contract::WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "\"{w}\": {{\"end_to_end\": {{\"correct\": true, \"attempted\": 1000, \"failed\": {failed}, \
                     \"metrics\": {{{}}}}}, \"per_layer\": {{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
                     \"metrics\": {{\"store.wal_bytes_per_mutation\": {{\"value\": {wal_bytes}, \"unit\": \"B\"}}}}}}}}",
                    end_to_end.join(", ")
                )
            })
            .collect();
        format!(
            "{{\"seed\": {seed}, \"workloads\": {{{}}}}}",
            workloads.join(", ")
        )
    }

    fn compare_texts(a: &str, b: &str) -> (String, usize) {
        // Beside the test binary, inside the build's target directory.
        let dir = std::env::current_exe().unwrap().with_file_name(format!(
            "rtx-ledger-compare-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let (pa, pb) = (dir.join("a.json"), dir.join("b.json"));
        std::fs::write(&pa, a).unwrap();
        std::fs::write(&pb, b).unwrap();
        let result = compare(&pa, &pb).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        result
    }

    #[test]
    fn a_run_agrees_with_itself_and_with_noise_inside_the_bounds() {
        let a = ledger(42, 1000.0, 100.0, 0, 57.0);
        assert_eq!(compare_texts(&a, &a).1, 0);
        // 24% fewer steps, 24% slower p95: inside the 25% bounds.
        let (table, violations) = compare_texts(&a, &ledger(42, 760.0, 124.0, 0, 57.0));
        assert_eq!(violations, 0, "{table}");
        assert!(table.contains("+24.00%"));
        // Getting better is never a violation.
        assert_eq!(compare_texts(&a, &ledger(42, 5000.0, 10.0, 0, 57.0)).1, 0);
    }

    #[test]
    fn regressions_raised_errors_and_moved_counts_are_violations() {
        let a = ledger(42, 1000.0, 100.0, 0, 57.0);
        // Each defect shows once per workload.
        let (table, violations) = compare_texts(&a, &ledger(42, 740.0, 100.0, 0, 57.0));
        assert_eq!(violations, 4, "{table}");
        assert_eq!(compare_texts(&a, &ledger(42, 1000.0, 126.0, 0, 57.0)).1, 4);
        assert_eq!(compare_texts(&a, &ledger(42, 1000.0, 100.0, 1, 57.0)).1, 4);
        let (table, violations) = compare_texts(&a, &ledger(42, 1000.0, 100.0, 0, 58.0));
        assert_eq!(violations, 4);
        assert!(table.contains("DIFFERS"));
        // Another seed is another schedule: counts are not compared.
        assert_eq!(compare_texts(&a, &ledger(7, 1000.0, 100.0, 0, 58.0)).1, 0);
    }

    #[test]
    fn a_missing_metric_is_a_violation_not_a_pass() {
        let a = ledger(42, 1000.0, 100.0, 0, 57.0);
        let (_, violations) = compare_texts(&a, "{\"seed\": 42, \"workloads\": {}}");
        assert_eq!(violations, 4 * (contract::END_TO_END.len() + 1) + 4);
    }
}
