//! `rtx-ledger` — the end-to-end + per-layer benchmark of the rtx workspace.
//!
//! ```text
//! rtx-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! rtx-ledger ledger [--seed <n>] [--seconds <s>] [--out <file>] [--quick]
//! rtx-ledger compare <a.json> <b.json>
//! ```
//!
//! The first form runs one workload in this process (one process per
//! workload: the symbol table is process-global and `VmHWM` is cumulative)
//! and prints every metric by name, then a one-line JSON result.  `ledger`
//! runs all four workloads, untraced and traced, each in a child process,
//! and writes the collected results to one file; `compare` checks two such
//! files against the regression bounds.  See `README.md` beside this crate.

mod common;
mod compare;
mod contract;
mod fleet;
mod gen;
mod json;
mod mirror;
mod probes;
mod procfs;
mod report;
mod stats;
mod trace;
mod workloads;

use common::RunConfig;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  rtx-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
  rtx-ledger ledger [--seed <n>] [--seconds <s>] [--out <file>] [--quick]
  rtx-ledger compare <a.json> <b.json>
workloads: wire_fleet, direct_fleet, catalog_scan, durable_churn";

/// The flags of the run and `ledger` forms.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 42,
        seconds: 15.0,
        traced: false,
        quick: false,
        out: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => flags.workload = Some(value()?.clone()),
            "--seed" => {
                flags.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                flags.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 3600.0)
                    .ok_or("--seconds takes a number of seconds in (0, 3600]")?;
            }
            "--trace" => {
                flags.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--out" => flags.out = Some(PathBuf::from(value()?)),
            "--quick" => flags.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if flags.quick {
        flags.seconds = flags.seconds.min(0.3);
    }
    Ok(flags)
}

/// `<target dir>/rtx-ledger`: trace files, the ledger file and the durable
/// workload's scratch directories all stay inside the build's own output.
fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    exe.parent()
        .and_then(|profile| profile.parent())
        .map(|target| target.join("rtx-ledger"))
        .ok_or_else(|| format!("{} is not inside a target directory", exe.display()))
}

/// The ground rules are fixed in the benchmark, identical on every commit:
/// a policy override in the environment would silently measure another
/// system.
fn refuse_policy_overrides() -> Result<(), String> {
    match std::env::vars_os().find(|(key, _)| key.to_string_lossy().starts_with("RTX_")) {
        Some((key, _)) => Err(format!(
            "{} is set: the ledger runs with no RTX_* overrides",
            key.to_string_lossy()
        )),
        None => Ok(()),
    }
}

fn run_workload(flags: &Flags) -> Result<bool, String> {
    let workload = flags.workload.as_deref().ok_or(USAGE)?;
    let config = RunConfig {
        seed: flags.seed,
        seconds: flags.seconds,
        traced: flags.traced,
        quick: flags.quick,
        out_dir: out_dir()?,
    };
    let mut outcome = workloads::run(workload, &config)?;
    print!("{}", outcome.render(workload, config.traced));
    Ok(outcome.correct())
}

fn run_ledger(flags: &Flags) -> Result<bool, String> {
    let (document, correct) = compare::collect(flags.seed, flags.seconds, flags.quick)?;
    let path = match &flags.out {
        Some(path) => path.clone(),
        None => out_dir()?.join("ledger.json"),
    };
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(&path, document).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# ledger written to {}", path.display());
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = refuse_policy_overrides().and_then(|()| match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(a.as_ref(), b.as_ref()).map(|(table, violations)| {
                print!("{table}");
                violations == 0
            }),
            _ => Err(USAGE.to_string()),
        },
        Some("ledger") => parse_flags(&args[1..]).and_then(|flags| run_ledger(&flags)),
        Some(_) => parse_flags(&args).and_then(|flags| run_workload(&flags)),
        None => Err(USAGE.to_string()),
    });
    match done {
        Ok(true) => ExitCode::SUCCESS,
        // The report (with `"correct": false`) or the comparison table has
        // been printed; the exit code says the same.
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rtx-ledger: {e}");
            ExitCode::from(2)
        }
    }
}
