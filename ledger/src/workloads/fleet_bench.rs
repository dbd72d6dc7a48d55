//! `direct_fleet` and `catalog_scan`: the session runtime driven in process,
//! with the front-end bypassed and no catalog mutations.
//!
//! * `direct_fleet` — `rtx-core`, incremental `rtx-datalog` and `rtx-verify`
//!   over a catalog 500× the front-end's: `G` stepping threads, each owning
//!   one shard, each holding 64 live sessions of 64 steps, in equal thirds
//!   plain `category`, demand-driven `storefront`, and `category` enforced
//!   by a forked monitor.  A front-end optimisation must show no change
//!   here; per-session bookkeeping, demand seeding and monitor shadow work
//!   show only here.
//! * `catalog_scan` — the compiled join engine and the worker pool: one
//!   driver, the shipped default `Parallelism`, undemanded `storefront`
//!   sessions whose every `refresh` re-derives `offer` for the whole
//!   catalog.  Bulk evaluation is nearly all of a step, the mirror image of
//!   `wire_fleet`, and it uses the evaluator differently from `direct_fleet`
//!   (bulk + pool against per-step deltas), so a gain for one that costs
//!   the other shows.

use crate::common::{self, phase, Conductor, RunConfig};
use crate::fleet::{
    script_pool, touched_rows, verify_kept, Counts, Fleet, FleetConfig, FleetStats, Kept, Kind,
    MirrorPlans, Models, Probe, Script,
};
use crate::gen::{customer_script, stream_rng, PriceTable, ScheduleHash};
use crate::procfs;
use crate::report::Outcome;
use crate::stats::Samples;
use crate::trace::{Span, Tracer};
use rtx_core::{SessionObserver, ShardedRuntime};
use rtx_datalog::{Parallelism, ResidentDb};
use rtx_relational::SymbolTable;
use rtx_verify::SessionMonitor;
use std::sync::Arc;
use std::time::Instant;

/// The shape of an in-process fleet workload.
pub struct Spec {
    pub name: &'static str,
    pub products: usize,
    pub kinds: &'static [Kind],
    pub threads: usize,
    pub shards: usize,
    pub parallelism: Parallelism,
    /// Live sessions per thread, and steps per session.
    pub live: usize,
    pub steps: usize,
    /// Scripts per thread (a multiple of `kinds.len()`), cycled.
    pub scripts: usize,
    /// One in `keep_every` sessions is re-run against the reference.
    pub keep_every: u64,
    pub keep_cap: usize,
    /// Operations of the schedule the exact counts are taken over.
    pub count_ops: u64,
    /// Also time a sequential mirror (`datalog.pool_speedup`).
    pub compare_sequential: bool,
    pub step_capacity: usize,
}

pub fn direct_fleet(config: &RunConfig) -> Spec {
    Spec {
        name: "direct_fleet",
        products: config.scaled(100_000, 2_000),
        kinds: &[
            Kind::Category,
            Kind::StorefrontDemand,
            Kind::CategoryEnforced,
        ],
        threads: config.generators(),
        shards: 2,
        parallelism: Parallelism::sequential(),
        live: 64,
        // A smoke run is too short for 64-step sessions to finish.
        steps: if config.quick { 8 } else { 64 },
        scripts: 192,
        keep_every: 16,
        keep_cap: 128,
        count_ops: config.scaled(10_000, 500) as u64,
        compare_sequential: false,
        step_capacity: 4 << 20,
    }
}

pub fn catalog_scan(config: &RunConfig) -> Spec {
    Spec {
        name: "catalog_scan",
        products: config.scaled(10_000, 500),
        kinds: &[Kind::StorefrontFull],
        threads: 1,
        shards: 1,
        parallelism: Parallelism::default(),
        live: 8,
        steps: if config.quick { 4 } else { 16 },
        scripts: 32,
        keep_every: 4,
        keep_cap: 8,
        count_ops: 64,
        compare_sequential: true,
        step_capacity: 1 << 18,
    }
}

const CATEGORIES: usize = 50;

struct System {
    db: Arc<ResidentDb>,
    runtime: ShardedRuntime,
    gatekeeper: Option<SessionMonitor>,
}

/// Catalog generation → resident → runtime up (→ monitor prototype).
fn build(spec: &Spec, models: &Models, seed: u64) -> Result<System, String> {
    let catalog = rtx_workloads::category_catalog(spec.products, CATEGORIES, seed);
    let db = Arc::new(ResidentDb::new(catalog));
    let runtime = ShardedRuntime::shared_with(Arc::clone(&db), spec.shards, spec.parallelism);
    let gatekeeper = if spec.kinds.contains(&Kind::CategoryEnforced) {
        Some(models.gatekeeper(&db)?)
    } else {
        None
    };
    Ok(System {
        db,
        runtime,
        gatekeeper,
    })
}

fn fleet_config<'a>(
    spec: &Spec,
    system: &'a System,
    models: &'a Models,
    pool: &'a [Script],
    thread: usize,
    generation: &str,
) -> FleetConfig<'a> {
    FleetConfig {
        runtime: &system.runtime,
        shard: Some(thread % spec.shards),
        models,
        gatekeeper: system.gatekeeper.as_ref(),
        pool,
        tag: format!("{}{thread}", generation),
        live: spec.live,
        keep_every: spec.keep_every,
        keep_cap: spec.keep_cap,
        step_capacity: spec.step_capacity,
    }
}

/// What one worker thread hands back.
struct WorkerResult {
    plain: FleetStats,
    kept: Vec<Kept>,
    counts: Counts,
    traced_steps: u64,
    spans: Vec<Span>,
    young: Samples,
    old: Samples,
    mismatches: u64,
    mismatch_details: Vec<String>,
}

/// Steps `fleet` for as long as the run is in phase `during`.  `clock`
/// counts the fleet's operations across phases, so a session that lives
/// through a phase change still has its steps in order.
fn drive(fleet: &mut Fleet<'_>, conductor: &Conductor, during: u8, clock: &mut u64) {
    while conductor.phase() == during {
        fleet.step_next(*clock);
        *clock += 1;
    }
}

#[allow(clippy::too_many_arguments)]
fn worker<'a>(
    spec: &Spec,
    system: &'a System,
    models: &'a Models,
    plans: Option<&'a MirrorPlans>,
    pool: &'a [Script],
    thread: usize,
    first: Option<Fleet<'a>>,
    conductor: &Conductor,
    epoch: Instant,
) -> Result<WorkerResult, String> {
    let guard = conductor.worker();
    let probe = |capacity: usize| {
        plans.map(|plans| {
            Probe::new(
                Tracer::new(thread, epoch, capacity),
                Arc::clone(&system.db),
                plans,
                spec.parallelism,
                spec.compare_sequential,
            )
        })
    };

    // Traced pass, before anything is timed: the exact counts, over the
    // first operations of the schedule.
    let mut counts = Counts::default();
    let (mut mismatches, mut mismatch_details) = (0, Vec::new());
    if let Some(mut counting) = probe(spec.count_ops as usize * 8 + 4096) {
        counting.counting = true;
        let mut fleet = Fleet::open(
            fleet_config(spec, system, models, pool, thread, "n"),
            Some(counting),
        )?;
        let share = spec.count_ops / spec.threads as u64;
        (0..share).for_each(|clock| fleet.step_next(clock));
        let (_, _, counted) = fleet.finish();
        let counted = counted.expect("the counting fleet is probed");
        counts = counted.counts;
        mismatches += counted.mismatches;
        mismatch_details.extend(counted.mismatch_details);
    }

    let mut fleet = match first {
        Some(fleet) => fleet,
        None => Fleet::open(fleet_config(spec, system, models, pool, thread, "p"), None)?,
    };
    let mut clock = 0;
    conductor.arrive_and_wait(phase::WARM_UP);
    drive(&mut fleet, conductor, phase::WARM_UP, &mut clock);
    fleet.kept.clear();
    fleet.stats.reset();
    drive(&mut fleet, conductor, phase::MEASURE, &mut clock);
    let (plain, kept, _) = fleet.finish();

    let mut result = WorkerResult {
        plain,
        kept,
        counts,
        traced_steps: 0,
        spans: Vec::new(),
        young: Samples::with_capacity(0),
        old: Samples::with_capacity(0),
        mismatches,
        mismatch_details,
    };
    if let Some(window_probe) = probe(3 << 20) {
        let mut fleet = Fleet::open(
            fleet_config(spec, system, models, pool, thread, "t"),
            Some(window_probe),
        )?;
        conductor.arrive_and_wait(phase::TRACE);
        fleet.stats.reset();
        drive(&mut fleet, conductor, phase::TRACE, &mut 0);
        let (traced, _, window_probe) = fleet.finish();
        let window_probe = window_probe.expect("the traced fleet is probed");
        result.traced_steps = traced.steps_ok;
        result.plain.failed += traced.failed;
        result.mismatches += window_probe.mismatches;
        result
            .mismatch_details
            .extend(window_probe.mismatch_details);
        result.young = window_probe.young;
        result.old = window_probe.old;
        result.spans = window_probe.tracer.into_spans()?;
    }
    guard.done();
    Ok(result)
}

pub fn run(spec: &Spec, config: &RunConfig) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let models = Models::new();
    let plans = if config.traced {
        Some(models.mirror_plans()?)
    } else {
        None
    };

    // The generator's own copy of the catalog: scripts are made before
    // set-up is timed, from the same seed the system's catalog comes from.
    let mut hash = ScheduleHash::default();
    let prices = PriceTable::of(&rtx_workloads::category_catalog(
        spec.products,
        CATEGORIES,
        config.seed,
    ));
    let pools: Vec<Vec<Script>> = (0..spec.threads)
        .map(|thread| {
            script_pool(
                config.seed,
                thread as u64,
                spec.kinds,
                spec.scripts,
                spec.steps,
                &prices,
                spec.products,
                &mut hash,
            )
        })
        .collect();
    outcome.note("schedule_hash", format!("{:016x}", hash.value()));

    // Set-up, timed: catalog → resident → runtime → first session pool.
    let mut setup_s = Vec::new();
    while config.another_setup(&setup_s) {
        let start = Instant::now();
        let system = build(spec, &models, config.seed)?;
        for (thread, pool) in pools.iter().enumerate() {
            Fleet::open(
                fleet_config(spec, &system, &models, pool, thread, "s"),
                None,
            )?;
        }
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let start = Instant::now();
    let system = build(spec, &models, config.seed)?;
    let mut first: Vec<Option<Fleet<'_>>> = Vec::new();
    if !config.traced {
        for (thread, pool) in pools.iter().enumerate() {
            let fleet = Fleet::open(
                fleet_config(spec, &system, &models, pool, thread, "p"),
                None,
            )?;
            first.push(Some(fleet));
        }
    } else {
        first.resize_with(spec.threads, || None);
    }
    setup_s.push(start.elapsed().as_secs_f64());
    let conductor = Conductor::default();
    let epoch = Instant::now();
    let symbols_before = SymbolTable::len();
    let mut symbols_after = symbols_before;
    let (windows, results) = std::thread::scope(|scope| {
        let handles: Vec<_> = first
            .into_iter()
            .enumerate()
            .map(|(thread, fleet)| {
                let (system, models, plans, pool, conductor) =
                    (&system, &models, plans.as_ref(), &pools[thread], &conductor);
                scope.spawn(move || {
                    worker(
                        spec, system, models, plans, pool, thread, fleet, conductor, epoch,
                    )
                })
            })
            .collect();
        let windows =
            conductor.conduct(spec.threads, config, || symbols_after = SymbolTable::len());
        let results: Vec<Result<WorkerResult, String>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a worker panicked".to_string()))
            })
            .collect();
        (windows, results)
    });
    let results = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let (window, traced_window) = windows?;

    // Correctness: kept sessions re-run as plain §2 runs on a fresh
    // single-shard runtime — no monitor, full evaluation.
    let mut step = Samples::with_capacity(0);
    let mut open = Samples::with_capacity(0);
    let (mut steps_ok, mut checked) = (0u64, 0u64);
    for (thread, result) in results.iter().enumerate() {
        step.absorb(&result.plain.step);
        open.absorb(&result.plain.open);
        steps_ok += result.plain.steps_ok;
        outcome.attempted += result.plain.attempted;
        outcome.failed += result.plain.failed;
        let (seen, differing) = verify_kept(
            &result.kept,
            &pools[thread],
            &models,
            &system.db,
            &[],
            &[],
            &format!("v{thread}"),
        )?;
        checked += seen;
        outcome.failed += differing;
        for detail in &result.mismatch_details {
            outcome.problem(detail.clone());
        }
        if result.mismatches > 0 {
            outcome.problem(format!(
                "{} traced steps disagreed with their mirror",
                result.mismatches
            ));
        }
    }
    if checked == 0 {
        outcome.problem("no finished session was verified against the reference");
    }
    outcome.note("seed", config.seed);
    outcome.note("nproc", common::nproc());
    outcome.note("generators", spec.threads);
    outcome.note("products", spec.products);
    outcome.note("verified_steps", checked);

    if !config.traced {
        common::end_to_end(&mut outcome, config, &setup_s, window, steps_ok, step, open);
        return Ok(outcome);
    }

    // Per-layer metrics.
    let traced_window = traced_window.ok_or("traced pass without a traced window")?;
    let mut spans = Vec::new();
    let mut counts = Counts::default();
    let (mut young, mut old) = (Samples::with_capacity(0), Samples::with_capacity(0));
    let mut traced_steps = 0;
    for result in results {
        spans.extend(result.spans);
        counts.absorb(&result.counts);
        young.absorb(&result.young);
        old.absorb(&result.old);
        traced_steps += result.traced_steps;
    }
    if spec.kinds.contains(&Kind::CategoryEnforced) {
        audit_probe(&mut spans, &models, &system, &prices, spec, config)?;
        session_memory(&mut outcome, spec, &system, &models, &pools[0], config)?;
    }
    common::layer_timings(&mut outcome, &spans);
    if counts.steps > 0 {
        let per_step = |n: u64| n as f64 / counts.steps as f64;
        outcome.set(
            "datalog.tuples_derived_per_step",
            per_step(counts.tuples_derived),
        );
        outcome.set(
            "datalog.rule_applications_per_step",
            per_step(counts.rule_applications),
        );
        outcome.set(
            "datalog.magic_tuples_per_step",
            per_step(counts.magic_tuples),
        );
        outcome.set("datalog.cached_rows", per_step(counts.cached_rows));
        outcome.set(
            "relational.symbols_per_kstep",
            (symbols_after - symbols_before) as f64 * 1_000.0 / counts.steps as f64,
        );
    }
    if counts.monitored_steps > 0 {
        outcome.set(
            "verify.work_per_step",
            counts.monitor_work as f64 / counts.monitored_steps as f64,
        );
    }
    let (young, old) = (young.sorted(), old.sorted());
    if let (Some(young), Some(old)) = (young.p50_us(), old.p50_us()) {
        outcome.set("core.step_age_ratio", old / young);
    }
    common::trace_overhead(
        &mut outcome,
        steps_ok as f64 / window.wall_s,
        traced_steps as f64 / traced_window.wall_s,
    );
    common::write_trace(&mut outcome, config, spec.name, &spans);
    Ok(outcome)
}

/// `verify.audit_us`: the deep Theorem 3.1 audit of a finished session's
/// log.  Its cost grows so fast with log length (and it refuses a 64-step
/// log outright: grounding limit) that it is measured on 8-step sessions,
/// against the catalog rows those sessions touched.
fn audit_probe(
    spans: &mut Vec<Span>,
    models: &Models,
    system: &System,
    prices: &PriceTable,
    spec: &Spec,
    config: &RunConfig,
) -> Result<(), String> {
    const AUDITS: usize = 3;
    const AUDITED_STEPS: usize = 8;
    let gatekeeper = system
        .gatekeeper
        .as_ref()
        .ok_or("no gatekeeper to audit with")?;
    let mut tracer = Tracer::new(spec.threads, Instant::now(), AUDITS);
    let catalog = system.db.snapshot();
    for n in 0..AUDITS {
        let script = customer_script(
            &mut stream_rng(config.seed, 0xA0D1 + n as u64),
            prices,
            AUDITED_STEPS,
            spec.products,
            1.0,
        );
        let mut session = system
            .runtime
            .open_session(
                format!("audit-{n}"),
                Arc::clone(models.transducer(Kind::Category)),
            )
            .map_err(|e| e.to_string())?;
        let mut monitor = gatekeeper.fork();
        for (i, input) in script.iter().enumerate() {
            let output = session.step(input).map_err(|e| e.to_string())?;
            monitor.admit(i, input).map_err(|e| e.to_string())?;
            monitor
                .observe(i, input, &output)
                .map_err(|e| e.to_string())?;
        }
        let touched = touched_rows(&catalog, &script);
        let start = Instant::now();
        let verdict = monitor.audit(&touched);
        tracer.record("verify.audit", 0, n as u64, start, Instant::now());
        if !matches!(&verdict, Ok(v) if v.is_valid()) {
            return Err(format!(
                "audit of an honest {AUDITED_STEPS}-step log: {verdict:?}"
            ));
        }
    }
    spans.extend(tracer.into_spans()?);
    Ok(())
}

/// `core.rss_kb_per_session`: growth of the resident set over opening a
/// ring of sessions and stepping it 16 rounds, per session.
fn session_memory(
    outcome: &mut Outcome,
    spec: &Spec,
    system: &System,
    models: &Models,
    pool: &[Script],
    config: &RunConfig,
) -> Result<(), String> {
    let sessions = config.scaled(2_000, 100);
    let before = procfs::rss_kb()?;
    let ring = FleetConfig {
        live: sessions,
        keep_cap: 0,
        step_capacity: 0,
        ..fleet_config(spec, system, models, pool, 0, "m")
    };
    let mut fleet = Fleet::open(ring, None)?;
    (0..16 * sessions as u64).for_each(|clock| fleet.step_next(clock));
    let after = procfs::rss_kb()?;
    outcome.set(
        "core.rss_kb_per_session",
        ((after - before) / sessions as f64).max(0.0),
    );
    Ok(())
}
