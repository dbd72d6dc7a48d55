//! `durable_churn`: writes beside reads — `rtx-store` plus resident-index
//! maintenance, the only workload with catalog mutations.
//!
//! A `ShardedDurableRuntime` on real files (`StdVfs` in a fresh directory,
//! `FsyncPolicy::EveryN(64)`, 2 shards) is loaded with a 20,000-product
//! catalog and checkpointed.  **One** driver thread then runs a fully
//! deterministic operation sequence: 8 `category` session steps (64 live
//! sessions round-robin, 64 steps each, then reopen), then 1 mutation from
//! `catalog_mutations` — a reprice, delisting or listing on `price`, which
//! every session reads, so almost every step is a stale-view step — and a
//! `checkpoint()` every 1,024 mutations.  View refresh, cache reseeding,
//! copy-on-write copies, WAL, fsync, snapshot and recovery do nothing on any
//! other workload; a read-side cache that makes `direct_fleet` faster but
//! invalidation dearer shows here.
//!
//! The single driver serialises steps, mutations and checkpoints, so
//! `steps_per_s` falls by exactly the time they take.
//!
//! Correctness: sampled sessions are replayed against a non-durable
//! reference runtime fed the same operation sequence, and the directory left
//! behind must recover to the identical catalog.
//!
//! The traced pass drives the two calls `ShardedDurableRuntime::insert`
//! composes — `DurableStore::insert`/`retract`, then `ResidentSync::sync` —
//! itself, through a byte-counting `Vfs`, so that each has a span.

use crate::common::{self, phase, Conductor, RunConfig};
use crate::fleet::{
    script_pool, verify_kept, Counts, Delta, Fleet, FleetConfig, Kept, Kind, MirrorPlans, Models,
    Probe, Script,
};
use crate::gen::{PriceTable, ScheduleHash};
use crate::probes::{CountingVfs, VfsCounters};
use crate::report::Outcome;
use crate::stats::Samples;
use crate::trace::{Span, Tracer};
use rtx_core::{ShardedDurableRuntime, ShardedRuntime};
use rtx_datalog::{Parallelism, ResidentDb};
use rtx_relational::{Instance, Tuple};
use rtx_store::{DurableStore, FsyncPolicy, ResidentSync, StdVfs};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

const CATEGORIES: usize = 50;
const SHARDS: usize = 2;
const FSYNC: FsyncPolicy = FsyncPolicy::EveryN(64);
const LIVE: usize = 64;
const STEPS: usize = 64;
const SCRIPTS: usize = 128;
/// Session steps between two mutations.
const STEPS_PER_MUTATION: usize = 8;
const MUTATIONS_PER_CHECKPOINT: u64 = 1_024;

struct Shape {
    products: usize,
    /// Mutations generated up front; the stream must outlast the run.
    mutations: usize,
    /// Mutations the exact counts are taken over.
    count_mutations: u64,
    /// The WAL tail recovery is timed over.
    recovery_tail: usize,
}

fn shape(config: &RunConfig) -> Shape {
    Shape {
        products: config.scaled(20_000, 1_000),
        mutations: config.scaled(80_000, 4_000),
        count_mutations: config.scaled(1_000, 50) as u64,
        recovery_tail: config.scaled(5_000, 250),
    }
}

/// A scratch directory under the run's output directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(config: &RunConfig, label: &str) -> Result<ScratchDir, String> {
        let path = config
            .out_dir
            .join(format!("durable-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The durable system under test, reached either through the runtime type
/// (untraced) or through the calls it composes (traced).
enum Backend {
    Runtime(ShardedDurableRuntime),
    Composed {
        store: DurableStore,
        sync: ResidentSync,
        runtime: ShardedRuntime,
        counters: Arc<VfsCounters>,
    },
}

impl Backend {
    fn open(dir: &Path, traced: bool) -> Result<Backend, String> {
        let vfs = StdVfs::new(dir).map_err(|e| e.to_string())?;
        if !traced {
            let (runtime, _) = ShardedRuntime::open_durable(Arc::new(vfs), FSYNC, SHARDS)
                .map_err(|e| e.to_string())?;
            return Ok(Backend::Runtime(runtime));
        }
        let (vfs, counters) = CountingVfs::new(vfs);
        let (store, _) = DurableStore::open(Arc::new(vfs), FSYNC).map_err(|e| e.to_string())?;
        let (resident, sync) = store.store().to_resident().map_err(|e| e.to_string())?;
        Ok(Backend::Composed {
            store,
            sync,
            runtime: ShardedRuntime::shared(Arc::new(resident), SHARDS),
            counters,
        })
    }

    fn sharded(&self) -> &ShardedRuntime {
        match self {
            Backend::Runtime(runtime) => runtime.sharded(),
            Backend::Composed { runtime, .. } => runtime,
        }
    }

    fn db(&self) -> &Arc<ResidentDb> {
        self.sharded().database()
    }

    fn create_table(&mut self, name: &str, arity: usize) -> Result<(), String> {
        match self {
            Backend::Runtime(runtime) => runtime
                .create_table(name, arity, None)
                .map_err(|e| e.to_string()),
            Backend::Composed {
                store,
                sync,
                runtime,
                ..
            } => {
                store
                    .create_table(name, arity, None)
                    .map_err(|e| e.to_string())?;
                sync.sync(store.store(), runtime.database())
                    .map(drop)
                    .map_err(|e| e.to_string())
            }
        }
    }

    /// One durable row change.  The composed backend also says when the
    /// WAL apply ended and when the resident sync ended.
    fn change(
        &mut self,
        table: &str,
        row: &Tuple,
        insert: bool,
    ) -> Result<(bool, Option<RowTiming>), String> {
        match self {
            Backend::Runtime(runtime) => if insert {
                runtime.insert(table, row.clone())
            } else {
                runtime.retract(table, row)
            }
            .map(|changed| (changed, None))
            .map_err(|e| e.to_string()),
            Backend::Composed {
                store,
                sync,
                runtime,
                ..
            } => {
                let start = Instant::now();
                let changed = if insert {
                    store.insert(table, row.clone())
                } else {
                    store.retract(table, row)
                }
                .map_err(|e| e.to_string())?;
                let applied = Instant::now();
                sync.sync(store.store(), runtime.database())
                    .map_err(|e| e.to_string())?;
                let synced = Instant::now();
                Ok((
                    changed,
                    Some(RowTiming {
                        start,
                        applied,
                        synced,
                    }),
                ))
            }
        }
    }

    fn checkpoint(&mut self) -> Result<(), String> {
        match self {
            Backend::Runtime(runtime) => runtime.checkpoint().map_err(|e| e.to_string()),
            Backend::Composed { store, .. } => store.checkpoint().map_err(|e| e.to_string()),
        }
    }

    fn sync(&mut self) -> Result<(), String> {
        match self {
            Backend::Runtime(runtime) => runtime.sync().map_err(|e| e.to_string()),
            Backend::Composed { store, .. } => store.sync().map_err(|e| e.to_string()),
        }
    }

    fn counters(&self) -> Option<&Arc<VfsCounters>> {
        match self {
            Backend::Runtime(_) => None,
            Backend::Composed { counters, .. } => Some(counters),
        }
    }
}

#[derive(Clone, Copy)]
struct RowTiming {
    start: Instant,
    applied: Instant,
    synced: Instant,
}

/// Loads `catalog` through the durable write path and checkpoints.
fn load(backend: &mut Backend, catalog: &Instance) -> Result<(), String> {
    for (name, relation) in catalog.iter() {
        backend.create_table(name.as_str(), relation.arity())?;
        for row in relation.iter() {
            backend.change(name.as_str(), row, true)?;
        }
    }
    backend.checkpoint()
}

/// Catalog generation → durable load → checkpoint.
fn build(dir: &Path, shape: &Shape, config: &RunConfig) -> Result<Backend, String> {
    let catalog = rtx_workloads::category_catalog(shape.products, CATEGORIES, config.seed);
    let mut backend = Backend::open(dir, config.traced)?;
    load(&mut backend, &catalog)?;
    Ok(backend)
}

fn fleet_config<'a>(
    runtime: &'a ShardedRuntime,
    models: &'a Models,
    pool: &'a [Script],
    generation: &str,
) -> FleetConfig<'a> {
    FleetConfig {
        runtime,
        shard: None,
        models,
        gatekeeper: None,
        pool,
        tag: generation.to_string(),
        live: LIVE,
        // One session in 32 is replayed against the reference.
        keep_every: 32,
        keep_cap: 96,
        step_capacity: 2 << 20,
    }
}

/// The driver's position in the deterministic operation sequence.
struct Driver<'a> {
    backend: Backend,
    deltas: &'a [Delta],
    /// Operation clock: every step and every mutation advances it.
    clock: u64,
    /// Mutations applied so far, and the clock of each.
    applied: Vec<u64>,
    failed: u64,
    attempted: u64,
    /// Traced pass: mutations and checkpoints get spans.
    tracer: Option<Tracer>,
    problems: Vec<String>,
}

impl Driver<'_> {
    /// One cycle: 8 session steps, 1 mutation, and every 1,024th mutation a
    /// checkpoint.
    fn cycle(&mut self, fleet: &mut Fleet<'_>) {
        for _ in 0..STEPS_PER_MUTATION {
            fleet.step_next(self.clock);
            self.clock += 1;
        }
        self.mutate();
        if (self.applied.len() as u64).is_multiple_of(MUTATIONS_PER_CHECKPOINT) {
            self.checkpoint();
        }
    }

    /// One acknowledged durable catalog change: the `retract` + `insert` of
    /// a reprice, or a listing / delisting.
    fn mutate(&mut self) {
        let Some(delta) = self.deltas.get(self.applied.len()) else {
            if self.problems.is_empty() {
                self.problems
                    .push("the mutation stream ran out before the run ended".into());
            }
            return;
        };
        let mut timings: [Option<RowTiming>; 2] = [None, None];
        let rows = delta
            .removes
            .iter()
            .map(|row| (row, false))
            .chain(delta.adds.iter().map(|row| (row, true)));
        let start = Instant::now();
        let mut outcome = Ok(true);
        for (n, (row, insert)) in rows.enumerate() {
            match self.backend.change("price", row, insert) {
                // `false` = the row was already there / already gone: the
                // stream and the catalog have diverged.
                Ok((changed, timing)) => {
                    outcome = outcome.map(|all| all & changed);
                    if let Some(slot) = timings.get_mut(n) {
                        *slot = timing;
                    }
                }
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        let end = Instant::now();
        if let Some(tracer) = &mut self.tracer {
            let request = self.clock;
            let root = tracer.record("store.mutation", 0, request, start, end);
            for timing in timings.iter().flatten() {
                tracer.record(
                    "store.wal_apply",
                    root,
                    request,
                    timing.start,
                    timing.applied,
                );
                tracer.record(
                    "store.resident_sync",
                    root,
                    request,
                    timing.applied,
                    timing.synced,
                );
            }
        }
        self.attempted += 1;
        match outcome {
            Ok(true) => {}
            Ok(false) => self.failed += 1,
            Err(e) => {
                self.failed += 1;
                if self.problems.len() < 4 {
                    self.problems
                        .push(format!("mutation {}: {e}", self.applied.len()));
                }
            }
        }
        self.applied.push(self.clock);
        self.clock += 1;
    }

    fn checkpoint(&mut self) {
        let start = Instant::now();
        let result = self.backend.checkpoint();
        if let Some(tracer) = &mut self.tracer {
            tracer.record("store.checkpoint", 0, self.clock, start, Instant::now());
        }
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.problems.push(format!("checkpoint: {e}"));
        }
    }
}

fn mutation_deltas(
    catalog: &Instance,
    shape: &Shape,
    seed: u64,
    hash: &mut ScheduleHash,
) -> Vec<Delta> {
    rtx_workloads::catalog_mutations(catalog, shape.mutations, seed)
        .iter()
        .map(|op| {
            hash.feed(format!("{op:?}").as_bytes());
            let (removes, adds) = op.price_deltas();
            Delta { removes, adds }
        })
        .collect()
}

/// What the driver thread hands back.
struct Driven {
    backend: Backend,
    window_steps: u64,
    step: Samples,
    open: Samples,
    attempted: u64,
    failed: u64,
    kept: Vec<Kept>,
    /// The clock of every mutation applied, from the first operation on.
    applied: Vec<u64>,
    problems: Vec<String>,
    traced: Option<TracedPart>,
}

#[derive(Default)]
struct TracedPart {
    spans: Vec<Span>,
    steps: u64,
    counts: Counts,
    /// Over the count phase: mutations, WAL bytes, fsyncs, index builds.
    counted_mutations: u64,
    counted_bytes: u64,
    counted_fsyncs: u64,
    counted_index_builds: u64,
    /// Mean step latency in the plain window (every step there follows a
    /// mutation) and in a quiet round after it, in microseconds.
    stale_step_us: f64,
    fresh_step_us: f64,
}

#[allow(clippy::too_many_arguments)]
fn drive<'a>(
    backend: Backend,
    runtime: &'a ShardedRuntime,
    models: &'a Models,
    plans: Option<&'a MirrorPlans>,
    pool: &'a [Script],
    deltas: &'a [Delta],
    first: Option<Fleet<'a>>,
    shape: &Shape,
    conductor: &Conductor,
    epoch: Instant,
) -> Result<Driven, String> {
    let guard = conductor.worker();
    let db = Arc::clone(backend.db());
    let counters = backend.counters().cloned();
    let mut driver = Driver {
        backend,
        deltas,
        clock: 0,
        applied: Vec::with_capacity(deltas.len()),
        failed: 0,
        attempted: 0,
        tracer: None,
        problems: Vec::new(),
    };
    let probe = |capacity: usize| {
        plans.map(|plans| {
            Probe::new(
                Tracer::new(0, epoch, capacity),
                Arc::clone(&db),
                plans,
                Parallelism::default(),
                false,
            )
        })
    };

    // Traced pass, before anything is timed: the exact counts, over the
    // first mutations of the schedule and the steps between them.
    let mut traced = None;
    if let (Some(mut counting), Some(counters)) = (probe(1 << 17), &counters) {
        counting.counting = true;
        let bytes = counters.bytes_appended.load(Ordering::Relaxed);
        let fsyncs = counters.fsyncs.load(Ordering::Relaxed);
        let index_builds = db.index_builds();
        let mut fleet = Fleet::open(fleet_config(runtime, models, pool, "n"), Some(counting))?;
        while (driver.applied.len() as u64) < shape.count_mutations {
            driver.cycle(&mut fleet);
        }
        let (stats, _, counted) = fleet.finish();
        let counted = counted.expect("the counting fleet is probed");
        driver.failed += stats.failed;
        driver.problems.extend(counted.mismatch_details);
        traced = Some(TracedPart {
            counts: counted.counts,
            counted_mutations: driver.applied.len() as u64,
            counted_bytes: counters.bytes_appended.load(Ordering::Relaxed) - bytes,
            counted_fsyncs: counters.fsyncs.load(Ordering::Relaxed) - fsyncs,
            counted_index_builds: db.index_builds() - index_builds,
            ..TracedPart::default()
        });
    }
    let count_phase_failed = driver.failed;

    let mut fleet = match first {
        Some(fleet) => fleet,
        None => Fleet::open(fleet_config(runtime, models, pool, "p"), None)?,
    };
    conductor.arrive_and_wait(phase::WARM_UP);
    while conductor.phase() == phase::WARM_UP {
        driver.cycle(&mut fleet);
    }
    fleet.kept.clear();
    fleet.stats.reset();
    (driver.attempted, driver.failed) = (0, count_phase_failed);
    while conductor.phase() == phase::MEASURE {
        driver.cycle(&mut fleet);
    }
    if let Some(part) = &mut traced {
        // What staleness costs a step, amortised.  Means, not medians: the
        // cost is lumpy — the session that lets go of the last view of a
        // superseded `price` copy frees all of it, so one step in eight
        // takes ~0.8 ms — and it must be taken here, on the unmirrored
        // fleet: a mirror's own view would hold the copy a moment longer
        // and take the free out of the step.  One quiet round lets every
        // session refresh its view; the next is all fresh steps.
        part.stale_step_us = mean_us(&fleet.stats.step);
        let in_window = (fleet.stats.steps_ok, fleet.stats.attempted);
        for _ in 0..2 {
            fleet.stats.step.clear();
            for _ in 0..fleet.live() {
                fleet.step_next(driver.clock);
                driver.clock += 1;
            }
        }
        part.fresh_step_us = mean_us(&fleet.stats.step);
        (fleet.stats.steps_ok, fleet.stats.attempted) = in_window;
    }
    let (plain, kept, _) = fleet.finish();
    let (mut attempted, mut failed) = (
        plain.attempted + driver.attempted,
        plain.failed + driver.failed,
    );

    if let (Some(part), Some(window_probe)) = (&mut traced, probe(3 << 20)) {
        let mut fleet = Fleet::open(fleet_config(runtime, models, pool, "t"), Some(window_probe))?;
        driver.tracer = Some(Tracer::new(1, epoch, 1 << 19));
        (driver.attempted, driver.failed) = (0, 0);
        conductor.arrive_and_wait(phase::TRACE);
        if let Some(counters) = &counters {
            counters
                .fsync_samples
                .lock()
                .map_err(|_| "fsync samples poisoned")?
                .clear();
        }
        fleet.stats.reset();
        while conductor.phase() == phase::TRACE {
            driver.cycle(&mut fleet);
        }
        part.steps = fleet.stats.steps_ok;
        attempted += fleet.stats.attempted + driver.attempted;
        failed += fleet.stats.failed + driver.failed;

        let mut tracer = driver.tracer.take().expect("set above");
        // And what the first view after a mutation costs (it rebuilds the
        // indexes the mutation made stale).
        let program = models.transducer(Kind::Category).compiled_output_program();
        for _ in 0..32 {
            driver.mutate();
            let start = Instant::now();
            let view = db.view_for(program);
            tracer.record(
                "datalog.view_refresh",
                0,
                driver.clock,
                start,
                Instant::now(),
            );
            drop(view);
        }
        if let Some(counters) = &counters {
            let samples = counters
                .fsync_samples
                .lock()
                .map_err(|_| "fsync samples poisoned")?;
            for (n, ns) in samples.iter().enumerate() {
                tracer.record_replayed("store.fsync", 0, n as u64, 0, *ns);
            }
        }
        let (_, _, window_probe) = fleet.finish();
        let window_probe = window_probe.expect("the traced fleet is probed");
        driver.problems.extend(window_probe.mismatch_details);
        part.spans = window_probe.tracer.into_spans()?;
        part.spans.extend(tracer.into_spans()?);
    }
    guard.done();
    Ok(Driven {
        backend: driver.backend,
        window_steps: plain.steps_ok,
        step: plain.step,
        open: plain.open,
        attempted,
        failed,
        kept,
        applied: driver.applied,
        problems: driver.problems,
        traced,
    })
}

fn mean_us(samples: &Samples) -> f64 {
    let ns = samples.as_slice();
    ns.iter().sum::<u64>() as f64 / ns.len().max(1) as f64 / 1_000.0
}

fn snapshot_rows(db: &ResidentDb) -> usize {
    db.snapshot().total_tuples()
}

/// The post-window phases of the traced pass: final checkpoint, snapshot
/// and WAL images, the fixed WAL tail, and the timed recovery.
#[allow(clippy::too_many_arguments)]
fn storage_probes(
    outcome: &mut Outcome,
    mut backend: Backend,
    dir: &ScratchDir,
    deltas: &[Delta],
    applied: usize,
    shape: &Shape,
    config: &RunConfig,
    spans: &mut Vec<Span>,
) -> Result<(), String> {
    let mut tracer = Tracer::new(2, Instant::now(), 16);
    let start = Instant::now();
    backend.checkpoint()?;
    tracer.record("store.checkpoint", 0, 0, start, Instant::now());
    let rows = snapshot_rows(backend.db()).max(1);
    let snapshot_file = dir.0.join("snapshot");
    let snapshot_bytes = std::fs::metadata(&snapshot_file)
        .map_err(|e| format!("{}: {e}", snapshot_file.display()))?
        .len();
    outcome.set(
        "store.snapshot_bytes_per_row",
        snapshot_bytes as f64 / rows as f64,
    );

    // A snapshot-only image: the snapshot just written, alone in a directory.
    {
        let image = ScratchDir::new(config, "snapshot-image")?;
        std::fs::copy(&snapshot_file, image.0.join("snapshot")).map_err(|e| e.to_string())?;
        let vfs = Arc::new(StdVfs::new(&image.0).map_err(|e| e.to_string())?);
        let start = Instant::now();
        let (store, report) = DurableStore::open(vfs, FSYNC).map_err(|e| e.to_string())?;
        let load_us = start.elapsed().as_secs_f64() * 1e6;
        if report.replayed != 0 {
            return Err(format!(
                "a snapshot-only image replayed {} operations",
                report.replayed
            ));
        }
        outcome.set("store.snapshot_load_us_per_row", load_us / rows as f64);
        let start = Instant::now();
        let (resident, _) = store.store().to_resident().map_err(|e| e.to_string())?;
        outcome.set("store.to_resident_ms", start.elapsed().as_secs_f64() * 1e3);
        if resident.snapshot() != backend.db().snapshot() {
            return Err("the snapshot-only image does not hold the checkpointed catalog".into());
        }
    }

    // A WAL-only image: the same number of operations as the recovery tail,
    // never checkpointed.
    {
        let image = ScratchDir::new(config, "wal-image")?;
        let vfs = Arc::new(StdVfs::new(&image.0).map_err(|e| e.to_string())?);
        let (mut store, _) =
            DurableStore::open(Arc::clone(&vfs) as _, FSYNC).map_err(|e| e.to_string())?;
        store
            .create_table("price", 2, None)
            .map_err(|e| e.to_string())?;
        let mut operations = 1usize;
        for delta in deltas.iter().take(shape.recovery_tail) {
            for row in &delta.adds {
                operations += usize::from(
                    store
                        .insert("price", row.clone())
                        .map_err(|e| e.to_string())?,
                );
            }
        }
        store.sync().map_err(|e| e.to_string())?;
        drop(store);
        let start = Instant::now();
        let (_, report) = DurableStore::open(vfs, FSYNC).map_err(|e| e.to_string())?;
        let replay_us = start.elapsed().as_secs_f64() * 1e6;
        if report.replayed != operations {
            return Err(format!(
                "WAL image: replayed {} of {operations}",
                report.replayed
            ));
        }
        outcome.set("store.replay_us_per_op", replay_us / operations as f64);
    }

    // Exactly `recovery_tail` more mutations on top of the checkpoint, then
    // shut down and time the recovery of the directory left behind.
    let tail = deltas
        .get(applied..applied + shape.recovery_tail)
        .ok_or("the mutation stream is too short for the recovery tail")?;
    for delta in tail {
        for row in &delta.removes {
            backend.change("price", row, false)?;
        }
        for row in &delta.adds {
            backend.change("price", row, true)?;
        }
    }
    backend.sync()?;
    let before = backend.db().snapshot();
    drop(backend);
    let vfs = Arc::new(StdVfs::new(&dir.0).map_err(|e| e.to_string())?);
    let start = Instant::now();
    let (recovered, report) =
        ShardedRuntime::open_durable(vfs, FSYNC, SHARDS).map_err(|e| e.to_string())?;
    outcome.set("store.recovery_s", start.elapsed().as_secs_f64());
    outcome.note("recovery_replayed_ops", report.replayed);
    if recovered.sharded().database().snapshot() != before {
        outcome.problem("the recovered catalog differs from the one shut down");
    }
    spans.extend(tracer.into_spans()?);
    Ok(())
}

pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let shape = shape(config);
    let models = Models::new();
    let plans = if config.traced {
        Some(models.mirror_plans()?)
    } else {
        None
    };

    // The generator's own copy of the catalog: scripts, the mutation
    // stream, and later the reference the sessions are checked against.
    let catalog = rtx_workloads::category_catalog(shape.products, CATEGORIES, config.seed);
    let mut hash = ScheduleHash::default();
    let prices = PriceTable::of(&catalog);
    let pool = script_pool(
        config.seed,
        0,
        &[Kind::Category],
        SCRIPTS,
        if config.quick { 8 } else { STEPS },
        &prices,
        shape.products,
        &mut hash,
    );
    let deltas = mutation_deltas(&catalog, &shape, config.seed, &mut hash);
    outcome.note("schedule_hash", format!("{:016x}", hash.value()));

    // Set-up, timed: catalog → durable load → checkpoint → first sessions.
    let mut setup_s = Vec::new();
    while config.another_setup(&setup_s) {
        let dir = ScratchDir::new(config, "setup")?;
        let start = Instant::now();
        let backend = build(&dir.0, &shape, config)?;
        Fleet::open(fleet_config(backend.sharded(), &models, &pool, "s"), None)?;
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let dir = ScratchDir::new(config, "run")?;
    let start = Instant::now();
    let backend = build(&dir.0, &shape, config)?;
    let runtime = backend.sharded().clone();
    let first = if config.traced {
        None
    } else {
        Some(Fleet::open(
            fleet_config(&runtime, &models, &pool, "p"),
            None,
        )?)
    };
    setup_s.push(start.elapsed().as_secs_f64());

    let conductor = Conductor::default();
    let epoch = Instant::now();
    let (windows, driven) = std::thread::scope(|scope| {
        let (runtime, models, plans, pool, deltas, shape, conductor) = (
            &runtime,
            &models,
            plans.as_ref(),
            &pool,
            &deltas,
            &shape,
            &conductor,
        );
        let handle = scope.spawn(move || {
            drive(
                backend, runtime, models, plans, pool, deltas, first, shape, conductor, epoch,
            )
        });
        let windows = conductor.conduct(1, config, || ());
        let driven = handle
            .join()
            .unwrap_or_else(|_| Err("the driver panicked".to_string()));
        (windows, driven)
    });
    let mut driven = driven?;
    let (window, traced_window) = windows?;

    // Correctness: the sampled sessions, replayed on a non-durable
    // reference runtime fed the same steps and mutations in the same order.
    let reference_db = Arc::new(ResidentDb::new(catalog));
    let (checked, differing) = verify_kept(
        &driven.kept,
        &pool,
        &models,
        &reference_db,
        &deltas,
        &driven.applied,
        "v",
    )?;
    driven.kept.clear();
    outcome.attempted = driven.attempted;
    outcome.failed = driven.failed + differing;
    if checked == 0 {
        outcome.problem("no finished session was verified against the reference");
    }
    driven.problems.drain(..).for_each(|p| outcome.problem(p));
    outcome.note("seed", config.seed);
    outcome.note("nproc", common::nproc());
    outcome.note("generators", 1);
    outcome.note("products", shape.products);
    outcome.note("mutations_applied", driven.applied.len());
    outcome.note("verified_steps", checked);

    if !config.traced {
        // The directory left behind must recover to the identical catalog.
        let mut backend = driven.backend;
        backend.sync()?;
        let before = backend.db().snapshot();
        drop(backend);
        let vfs = Arc::new(StdVfs::new(&dir.0).map_err(|e| e.to_string())?);
        let (recovered, _) =
            ShardedRuntime::open_durable(vfs, FSYNC, SHARDS).map_err(|e| e.to_string())?;
        if recovered.sharded().database().snapshot() != before {
            outcome.problem("the recovered catalog differs from the one shut down");
        }
        common::end_to_end(
            &mut outcome,
            config,
            &setup_s,
            window,
            driven.window_steps,
            driven.step,
            driven.open,
        );
        return Ok(outcome);
    }

    let traced_window = traced_window.ok_or("traced pass without a traced window")?;
    let part = driven.traced.take().ok_or("traced pass without probes")?;
    let mut spans = part.spans;
    storage_probes(
        &mut outcome,
        driven.backend,
        &dir,
        &deltas,
        driven.applied.len(),
        &shape,
        config,
        &mut spans,
    )?;
    common::layer_timings(&mut outcome, &spans);
    outcome.set("datalog.stale_step_us", part.stale_step_us);
    outcome.set("datalog.fresh_step_us", part.fresh_step_us);
    let counts = part.counts;
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
        outcome.set("datalog.cached_rows", per_step(counts.cached_rows));
    }
    if part.counted_mutations > 0 {
        let per_mutation = |n: u64| n as f64 / part.counted_mutations as f64;
        outcome.set(
            "store.wal_bytes_per_mutation",
            per_mutation(part.counted_bytes),
        );
        outcome.set(
            "store.fsyncs_per_mutation",
            per_mutation(part.counted_fsyncs),
        );
        outcome.set(
            "datalog.index_builds_per_mutation",
            per_mutation(part.counted_index_builds),
        );
        outcome.set("store.bytes_appended", part.counted_bytes as f64);
    }
    common::trace_overhead(
        &mut outcome,
        driven.window_steps as f64 / window.wall_s,
        part.steps as f64 / traced_window.wall_s,
    );
    common::write_trace(&mut outcome, config, "durable_churn", &spans);
    Ok(outcome)
}
