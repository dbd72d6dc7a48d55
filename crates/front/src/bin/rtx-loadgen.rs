//! `rtx-loadgen` — a load generator simulating a fleet of concurrent
//! customer sessions against the sharded runtime.
//!
//! ```text
//! rtx-loadgen [--mode direct|wire] [--sessions N] [--steps K] [--shards S]
//!             [--threads T] [--addr host:port] [--seed N]
//! ```
//!
//! The fleet mixes every servable workload: the paper's `short` customers,
//! `category` customers, **demand-driven** `storefront` browsers, and the
//! four monitored guardrail scenarios (clean traffic, observers attached in
//! direct mode).  Session `i`'s inputs are deterministic in `--seed`, so two
//! runs of the same configuration replay the same fleet.
//!
//! * `--mode direct` (default) opens sessions in process on a
//!   [`ShardedRuntime`] — this is the scale path: `--sessions 100000` holds
//!   100k+ concurrent sessions over one shared catalog.
//! * `--mode wire` drives the same traffic through the `rtx-frontd` line
//!   protocol (spawning an in-process server unless `--addr` points at a
//!   running one), retrying on `BUSY` backpressure.

use rtx_core::{MonitorPolicy, ShardedRuntime};
use rtx_datalog::{Parallelism, ResidentDb};
use rtx_front::{
    combined_catalog, flag_value, lookup_model, render_instance, FrontClient, FrontConfig,
    FrontModel, FrontServer, MODEL_NAMES,
};
use rtx_relational::InstanceSequence;
use rtx_workloads::scenarios::Scenario;
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

struct Config {
    mode: Mode,
    sessions: usize,
    steps: usize,
    shards: usize,
    threads: usize,
    addr: Option<String>,
    seed: u64,
}

#[derive(PartialEq)]
enum Mode {
    Direct,
    Wire,
}

/// One simulated session: which model to open (and how), and its input
/// sequence.  `kind = i % 7` cycles through every servable workload.
struct Plan {
    name: String,
    model: &'static str,
    demanded: bool,
    monitored: bool,
    inputs: InstanceSequence,
}

fn plan(
    i: usize,
    steps: usize,
    seed: u64,
    catalog: &rtx_relational::Instance,
    scenarios: &[Scenario],
) -> Plan {
    let session_seed = seed + i as u64;
    match i % 7 {
        0 => Plan {
            name: format!("short-{i}"),
            model: "short",
            demanded: false,
            monitored: false,
            inputs: rtx_workloads::customer_session(catalog, steps, 200, 0.9, session_seed),
        },
        1 => Plan {
            name: format!("category-{i}"),
            model: "category",
            demanded: false,
            monitored: false,
            inputs: rtx_workloads::customer_session(catalog, steps, 200, 0.9, session_seed),
        },
        2 => Plan {
            name: format!("storefront-{i}"),
            model: "storefront",
            demanded: true,
            monitored: false,
            inputs: rtx_workloads::browse_session(steps, 200, session_seed),
        },
        k => {
            let scenario = &scenarios[k - 3];
            Plan {
                name: format!("{}-{i}", scenario.name),
                model: scenario.name,
                demanded: false,
                monitored: true,
                inputs: scenario.clean_inputs.clone(),
            }
        }
    }
}

fn run_direct(config: &Config) -> Result<u64, String> {
    let catalog = combined_catalog();
    let fleet = ShardedRuntime::shared_with(
        Arc::new(ResidentDb::new(catalog.clone())),
        config.shards,
        Parallelism::default(),
    );
    let db = Arc::clone(fleet.database());
    let catalog = Arc::new(catalog);

    let mut handles = Vec::with_capacity(config.threads);
    for t in 0..config.threads {
        let fleet = fleet.clone();
        let db = Arc::clone(&db);
        let catalog = Arc::clone(&catalog);
        let (sessions, steps, seed, threads) =
            (config.sessions, config.steps, config.seed, config.threads);
        handles.push(std::thread::spawn(move || -> Result<u64, String> {
            let scenarios = Scenario::all();
            let models: Vec<FrontModel> =
                MODEL_NAMES.iter().filter_map(|m| lookup_model(m)).collect();
            // Phase 1: open this thread's whole slice of the fleet, so the
            // configured session count is genuinely *concurrent* — every
            // session stays open while every other one steps.
            let mut local = Vec::new();
            for i in (t..sessions).step_by(threads) {
                let plan = plan(i, steps, seed, &catalog, &scenarios);
                let transducer = models
                    .iter()
                    .find(|m| m.name == plan.model)
                    .map(|m| Arc::clone(&m.transducer))
                    .expect("planned models exist");
                let mut session = if plan.demanded {
                    fleet.open_session_with_demand(
                        plan.name.clone(),
                        transducer,
                        rtx_workloads::storefront_demand(),
                    )
                } else {
                    fleet.open_session(plan.name.clone(), transducer)
                }
                .map_err(|e| format!("{}: {e}", plan.name))?;
                if plan.monitored {
                    let scenario = scenarios
                        .iter()
                        .find(|s| s.name == plan.model)
                        .expect("monitored plans are scenarios");
                    session.set_monitor_policy(MonitorPolicy::Observe);
                    session.attach_observer(Box::new(
                        scenario.monitor(&db).map_err(|e| e.to_string())?,
                    ));
                }
                local.push((plan, session));
            }
            // Phase 2: step the slice round-robin, one input per session
            // per round — the interleaving a real fleet produces.
            let mut stepped = 0u64;
            let rounds = local
                .iter()
                .map(|(plan, _)| plan.inputs.len())
                .max()
                .unwrap_or(0);
            for round in 0..rounds {
                for (plan, session) in &mut local {
                    if let Some(input) = plan.inputs.get(round) {
                        session
                            .step(input)
                            .map_err(|e| format!("{}: {e}", plan.name))?;
                        stepped += 1;
                    }
                }
            }
            Ok(stepped)
        }));
    }
    let mut total = 0u64;
    for handle in handles {
        total += handle.join().map_err(|_| "worker panicked".to_string())??;
    }
    let health = fleet.health();
    if !health.quarantined_sessions.is_empty() || health.rejections != 0 {
        return Err(format!(
            "clean traffic must not quarantine or reject: {health:?}"
        ));
    }
    Ok(total)
}

fn run_wire(config: &Config) -> Result<u64, String> {
    // Spawn an in-process server unless the caller pointed us at one.
    let (addr, serving) = match &config.addr {
        Some(addr) => (addr.parse().map_err(|e| format!("--addr: {e}"))?, None),
        None => {
            let server = FrontServer::bind(
                "127.0.0.1:0",
                FrontConfig {
                    shards: config.shards,
                    ..FrontConfig::default()
                },
            )
            .map_err(|e| e.to_string())?;
            let addr = server.local_addr().map_err(|e| e.to_string())?;
            (addr, Some(std::thread::spawn(move || server.serve())))
        }
    };

    let catalog = Arc::new(combined_catalog());
    let mut handles = Vec::with_capacity(config.threads);
    for t in 0..config.threads {
        let catalog = Arc::clone(&catalog);
        let (sessions, steps, seed, threads) =
            (config.sessions, config.steps, config.seed, config.threads);
        handles.push(std::thread::spawn(move || -> Result<u64, String> {
            let scenarios = Scenario::all();
            let mut client = FrontClient::connect(addr).map_err(|e| e.to_string())?;
            let mut stepped = 0u64;
            for i in (t..sessions).step_by(threads) {
                let plan = plan(i, steps, seed, &catalog, &scenarios);
                let open = if plan.demanded {
                    format!("OPEN {} {} demand", plan.name, plan.model)
                } else {
                    format!("OPEN {} {}", plan.name, plan.model)
                };
                let reply = client.request_retrying(&open).map_err(|e| e.to_string())?;
                if !reply.starts_with("OK") {
                    return Err(format!("{open}: {reply}"));
                }
                // Batched ingestion: the whole session's steps go down the
                // wire as one BATCH, one shard-queue entry.
                let lines: Vec<String> = plan.inputs.iter().map(render_instance).collect();
                let replies = client
                    .batch(&plan.name, &lines)
                    .map_err(|e| e.to_string())?;
                let last = replies.last().cloned().unwrap_or_default();
                if last.starts_with("BUSY") {
                    // The batch never entered the queue; resubmit it.
                    let replies = client
                        .batch(&plan.name, &lines)
                        .map_err(|e| e.to_string())?;
                    stepped += replies.iter().filter(|r| r.starts_with("OUT")).count() as u64;
                } else {
                    stepped += replies.iter().filter(|r| r.starts_with("OUT")).count() as u64;
                }
                let close = client
                    .request_retrying(&format!("CLOSE {}", plan.name))
                    .map_err(|e| e.to_string())?;
                if !close.starts_with("OK") {
                    return Err(format!("CLOSE {}: {close}", plan.name));
                }
            }
            Ok(stepped)
        }));
    }
    let mut total = 0u64;
    for handle in handles {
        total += handle.join().map_err(|_| "client panicked".to_string())??;
    }
    if let Some(serving) = serving {
        let mut client = FrontClient::connect(addr).map_err(|e| e.to_string())?;
        client.request("SHUTDOWN").map_err(|e| e.to_string())?;
        serving
            .join()
            .map_err(|_| "server panicked".to_string())?
            .map_err(|e| e.to_string())?;
    }
    Ok(total)
}

const USAGE: &str = "usage: rtx-loadgen [--mode direct|wire] [--sessions N] [--steps K] \
                     [--shards S] [--threads T] [--addr host:port] [--seed N]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Config, String> {
    let mut config = Config {
        mode: Mode::Direct,
        sessions: 512,
        steps: 4,
        shards: 4,
        threads: 4,
        addr: None,
        seed: 42,
    };
    let count = |flag: &str, value| flag_value::<NonZeroUsize>(flag, value).map(NonZeroUsize::get);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--mode" => {
                config.mode = match flag_value::<String>(&arg, args.next())?.as_str() {
                    "direct" => Mode::Direct,
                    "wire" => Mode::Wire,
                    other => return Err(format!("unknown mode `{other}` (direct|wire)")),
                }
            }
            "--sessions" => config.sessions = count(&arg, args.next())?,
            "--steps" => config.steps = count(&arg, args.next())?,
            "--shards" => config.shards = count(&arg, args.next())?,
            "--threads" => config.threads = count(&arg, args.next())?,
            "--seed" => config.seed = flag_value(&arg, args.next())?,
            "--addr" => config.addr = Some(flag_value(&arg, args.next())?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(config)
}

fn main() -> ExitCode {
    let config = match parse_args(std::env::args().skip(1)) {
        Ok(config) => config,
        Err(detail) => {
            eprintln!("rtx-loadgen: {detail}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let started = Instant::now();
    let result = match config.mode {
        Mode::Direct => run_direct(&config),
        Mode::Wire => run_wire(&config),
    };
    match result {
        Ok(total_steps) => {
            let elapsed = started.elapsed();
            let rate = total_steps as f64 / elapsed.as_secs_f64().max(1e-9);
            println!(
                "loadgen: mode={} sessions={} shards={} threads={} steps={} elapsed_ms={} steps_per_sec={:.0}",
                if config.mode == Mode::Direct { "direct" } else { "wire" },
                config.sessions,
                config.shards,
                config.threads,
                total_steps,
                elapsed.as_millis(),
                rate
            );
            ExitCode::SUCCESS
        }
        Err(detail) => {
            eprintln!("loadgen: {detail}");
            ExitCode::FAILURE
        }
    }
}
