//! The in-process session fleet: a ring of live sessions stepped round-robin,
//! each replaced by a fresh one when its script ends.  `direct_fleet`,
//! `catalog_scan` and `durable_churn` all drive the runtime through this,
//! and `wire_fleet` uses the same scripts and session kinds over the wire.
//!
//! The untraced path times `ShardedSession::step` and the session open, and
//! does nothing else inside the window.  With a [`Probe`] attached (the
//! traced pass) every call into a layer is recorded as a span, each session
//! is shadowed by a [`Mirror`] that times the evaluator alone, and monitored
//! sessions are observed through a [`TimedObserver`].

use crate::gen::{customer_script, stream_rng, PriceTable, ScheduleHash};
use crate::mirror::{Mirror, MirrorPlan};
use crate::probes::{HookTimes, TimedObserver};
use crate::stats::Samples;
use crate::trace::Tracer;
use rand::Rng as _;
use rtx_core::{
    CoreError, DemandPolicy, MonitorPolicy, Runtime, SessionDemand, ShardedRuntime, ShardedSession,
    SpocusTransducer,
};
use rtx_datalog::{Atom, BodyLiteral, Parallelism, ResidentDb};
use rtx_logic::{Formula, Term};
use rtx_relational::{Instance, Tuple};
use rtx_verify::{SdiConstraint, SessionMonitor};
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How a session is opened and what it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's `short` model (§2.1), plain.
    Short,
    /// `category_model`, plain.
    Category,
    /// `storefront_model` opened with `storefront_demand()`.
    StorefrontDemand,
    /// `category_model` under `MonitorPolicy::Enforce` with a forked
    /// `SessionMonitor` carrying the `pay(x,y) → price(x,y)` gate.
    CategoryEnforced,
    /// `storefront_model` without a demand: every `refresh` re-derives
    /// `offer` for the whole catalog.
    StorefrontFull,
}

impl Kind {
    /// The model name `rtx-front` serves this kind under.
    pub fn model(self) -> &'static str {
        match self {
            Kind::Short => "short",
            Kind::Category | Kind::CategoryEnforced => "category",
            Kind::StorefrontDemand | Kind::StorefrontFull => "storefront",
        }
    }

    pub fn is_demanded(self) -> bool {
        self == Kind::StorefrontDemand
    }

    fn is_storefront(self) -> bool {
        matches!(self, Kind::StorefrontDemand | Kind::StorefrontFull)
    }

    pub fn step_span(self) -> &'static str {
        match self {
            Kind::Short | Kind::Category => "core.step_plain",
            Kind::StorefrontDemand => "core.step_demand",
            Kind::CategoryEnforced => "core.step_enforced",
            Kind::StorefrontFull => "core.step_full",
        }
    }

    /// The evaluator work behind a step of this kind (an enforced session
    /// evaluates the same plain program; the monitor is a separate span).
    pub fn eval_span(self) -> &'static str {
        match self {
            Kind::Short | Kind::Category | Kind::CategoryEnforced => "datalog.eval_plain",
            Kind::StorefrontDemand => "datalog.eval_demand",
            Kind::StorefrontFull => "datalog.eval_full",
        }
    }

    pub fn open_span(self) -> &'static str {
        match self {
            Kind::Short | Kind::Category | Kind::StorefrontFull => "core.open_plain",
            Kind::StorefrontDemand => "core.open_demand",
            Kind::CategoryEnforced => "core.open_enforced",
        }
    }
}

/// The business models the fleet runs, built once.
#[derive(Debug)]
pub struct Models {
    short: Arc<SpocusTransducer>,
    category: Arc<SpocusTransducer>,
    storefront: Arc<SpocusTransducer>,
    demand: SessionDemand,
}

impl Models {
    pub fn new() -> Models {
        Models {
            short: Arc::new(rtx_core::models::short()),
            category: Arc::new(rtx_workloads::category_model()),
            storefront: Arc::new(rtx_workloads::storefront_model()),
            demand: rtx_workloads::storefront_demand(),
        }
    }

    pub fn transducer(&self, kind: Kind) -> &Arc<SpocusTransducer> {
        match kind {
            Kind::Short => &self.short,
            Kind::Category | Kind::CategoryEnforced => &self.category,
            Kind::StorefrontDemand | Kind::StorefrontFull => &self.storefront,
        }
    }

    /// Opens the plain §2 run of a session kind on a reference runtime: the
    /// kind's model, its demand if it has one, never a monitor.
    pub fn open_reference(
        &self,
        reference: &Runtime,
        kind: Kind,
        name: String,
    ) -> Result<rtx_core::Session, String> {
        let transducer = Arc::clone(self.transducer(kind));
        if kind.is_demanded() {
            reference.open_session_with_demand(name, transducer, self.demand.clone())
        } else {
            reference.open_session(name, transducer)
        }
        .map_err(|e| e.to_string())
    }

    /// The monitor prototype enforced sessions fork: the category model as
    /// its own spec, gated by "every payment matches a listed price"
    /// (Theorem 4.1 input control), as `benches/monitoring.rs` builds it.
    pub fn gatekeeper(&self, db: &Arc<ResidentDb>) -> Result<SessionMonitor, String> {
        let pay_matches_price = SdiConstraint::new(
            vec![BodyLiteral::Positive(Atom::new(
                "pay",
                [Term::var("x"), Term::var("y")],
            ))],
            Formula::atom("price", [Term::var("x"), Term::var("y")]),
        )
        .map_err(|e| e.to_string())?;
        SessionMonitor::new(Arc::clone(&self.category), Arc::clone(db))
            .and_then(|m| m.with_constraint("pay-matches-price", pay_matches_price))
            .map_err(|e| e.to_string())
    }

    /// The mirror plan of each kind, for the traced pass.
    pub fn mirror_plans(&self) -> Result<MirrorPlans, String> {
        Ok(MirrorPlans {
            short: Arc::new(MirrorPlan::plain(Arc::clone(&self.short))),
            category: Arc::new(MirrorPlan::plain(Arc::clone(&self.category))),
            storefront: Arc::new(MirrorPlan::plain(Arc::clone(&self.storefront))),
            demanded: Arc::new(MirrorPlan::demanded(
                Arc::clone(&self.storefront),
                &self.demand,
            )?),
        })
    }
}

#[derive(Debug)]
pub struct MirrorPlans {
    short: Arc<MirrorPlan>,
    category: Arc<MirrorPlan>,
    storefront: Arc<MirrorPlan>,
    demanded: Arc<MirrorPlan>,
}

impl MirrorPlans {
    pub fn of(&self, kind: Kind) -> &Arc<MirrorPlan> {
        match kind {
            Kind::Short => &self.short,
            Kind::Category | Kind::CategoryEnforced => &self.category,
            Kind::StorefrontFull => &self.storefront,
            Kind::StorefrontDemand => &self.demanded,
        }
    }
}

/// One session's worth of precomputed inputs.
#[derive(Debug)]
pub struct Script {
    pub kind: Kind,
    pub inputs: Vec<Instance>,
}

/// `count` scripts of `steps` steps each, cycling through `kinds` so every
/// kind gets an equal share; a pure function of `(seed, stream)`.  Customers
/// are fully honest, so no step is ever rejected by the payment gate.
#[allow(clippy::too_many_arguments)]
pub fn script_pool(
    seed: u64,
    stream: u64,
    kinds: &[Kind],
    count: usize,
    steps: usize,
    prices: &PriceTable,
    products: usize,
    hash: &mut ScheduleHash,
) -> Vec<Script> {
    (0..count)
        .map(|i| {
            let kind = kinds[i % kinds.len()];
            let script_stream = stream.wrapping_mul(1_000_003).wrapping_add(i as u64);
            let inputs = if kind.is_storefront() {
                let script_seed = stream_rng(seed, script_stream).next_u64();
                rtx_workloads::browse_session(steps, products, script_seed).into_instances()
            } else {
                customer_script(
                    &mut stream_rng(seed, script_stream),
                    prices,
                    steps,
                    products,
                    1.0,
                )
            };
            hash.feed(kind.model().as_bytes());
            for input in &inputs {
                hash.feed(rtx_front::render_instance(input).as_bytes());
            }
            Script { kind, inputs }
        })
        .collect()
}

/// What the fleet measured since the last [`FleetStats::reset`].
#[derive(Debug)]
pub struct FleetStats {
    pub step: Samples,
    pub open: Samples,
    /// Steps that returned an output.
    pub steps_ok: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl FleetStats {
    fn new(step_capacity: usize) -> FleetStats {
        FleetStats {
            step: Samples::with_capacity(step_capacity),
            open: Samples::with_capacity(step_capacity / 8 + 1024),
            steps_ok: 0,
            attempted: 0,
            failed: 0,
        }
    }

    pub fn reset(&mut self) {
        self.step.clear();
        self.open.clear();
        self.steps_ok = 0;
        self.attempted = 0;
        self.failed = 0;
    }
}

/// A finished session set aside (not dropped) so its outputs can be checked
/// against the reference after the window.
#[derive(Debug)]
pub struct Kept {
    pub script: usize,
    pub session: ShardedSession,
    /// The operation clock of each step, to order it against mutations.
    pub clocks: Vec<u64>,
}

/// Where and how a [`Fleet`] opens its sessions.
pub struct FleetConfig<'a> {
    pub runtime: &'a ShardedRuntime,
    /// The shard every session is placed on, or `None` to route by name
    /// hash as a front-end would.
    pub shard: Option<usize>,
    pub models: &'a Models,
    /// Prototype forked into every [`Kind::CategoryEnforced`] session.
    pub gatekeeper: Option<&'a SessionMonitor>,
    pub pool: &'a [Script],
    /// Session-name prefix, unique per fleet in the process.
    pub tag: String,
    /// Sessions held open at once.
    pub live: usize,
    /// Every `keep_every`-th opened session is set aside when it finishes,
    /// up to `keep_cap`, for post-window verification.
    pub keep_every: u64,
    pub keep_cap: usize,
    pub step_capacity: usize,
}

struct Slot {
    session: ShardedSession,
    script: usize,
    pos: usize,
    end: usize,
    /// `Some` when this session will be kept for verification.
    clocks: Option<Vec<u64>>,
    probe: Option<SlotProbe>,
}

pub struct Fleet<'a> {
    config: FleetConfig<'a>,
    slots: Vec<Slot>,
    turn: usize,
    cursor: usize,
    opened: u64,
    pub stats: FleetStats,
    pub kept: Vec<Kept>,
    pub probe: Option<Probe<'a>>,
}

impl<'a> Fleet<'a> {
    /// Opens the initial ring of `live` sessions.  Their first scripts are
    /// cut to staggered lengths, so that later sessions do not all end —
    /// and reopen — in the same round.
    pub fn open(config: FleetConfig<'a>, probe: Option<Probe<'a>>) -> Result<Fleet<'a>, String> {
        let mut fleet = Fleet {
            stats: FleetStats::new(config.step_capacity),
            slots: Vec::with_capacity(config.live),
            turn: 0,
            cursor: 0,
            opened: 0,
            kept: Vec::new(),
            probe,
            config,
        };
        for j in 0..fleet.config.live {
            let slot = fleet.open_slot(Some(j)).map_err(|e| format!("open: {e}"))?;
            fleet.slots.push(slot);
        }
        fleet.stats.reset();
        Ok(fleet)
    }

    fn open_slot(&mut self, stagger: Option<usize>) -> Result<Slot, CoreError> {
        let script = self.cursor % self.config.pool.len();
        self.cursor += 1;
        let kind = self.config.pool[script].kind;
        let len = self.config.pool[script].inputs.len();
        let end = match stagger {
            Some(j) => (len - j * len / self.config.live).max(1),
            None => len,
        };
        let name = format!("{}-{}", self.config.tag, self.opened);
        let keep = self.opened.is_multiple_of(self.config.keep_every)
            && self.kept.len() + self.slots.iter().filter(|s| s.clocks.is_some()).count()
                < self.config.keep_cap;
        self.opened += 1;

        let (runtime, shard, models) = (self.config.runtime, self.config.shard, self.config.models);
        let transducer = Arc::clone(models.transducer(kind));
        let start = Instant::now();
        let shard = shard.unwrap_or_else(|| runtime.shard_of(&name));
        let mut session = if kind.is_demanded() {
            runtime.open_session_with_demand_on(shard, name, transducer, models.demand.clone())?
        } else {
            runtime.open_session_on(shard, name, transducer)?
        };
        let mut monitor_probe = None;
        let mut fork_times = None;
        if kind == Kind::CategoryEnforced {
            let prototype = self
                .config
                .gatekeeper
                .expect("enforced sessions need a gatekeeper");
            let fork_start = Instant::now();
            let monitor = prototype.fork();
            fork_times = Some((fork_start, Instant::now()));
            session.set_monitor_policy(MonitorPolicy::Enforce);
            if self.probe.is_some() {
                let (observer, monitor, times) = TimedObserver::new(monitor);
                session.attach_observer(Box::new(observer));
                monitor_probe = Some((monitor, times));
            } else {
                session.attach_observer(Box::new(monitor));
            }
        }
        let end_time = Instant::now();
        self.stats.attempted += 1;
        self.stats.open.push((end_time - start).as_nanos() as u64);

        let mut slot_probe = None;
        if let Some(probe) = &mut self.probe {
            let request = probe.next_request();
            let span = probe
                .tracer
                .record(kind.open_span(), 0, request, start, end_time);
            if let Some((fork_start, fork_end)) = fork_times {
                probe
                    .tracer
                    .record("verify.fork", span, request, fork_start, fork_end);
            }
            slot_probe = Some(probe.slot_probe(kind, monitor_probe).map_err(|detail| {
                CoreError::Runtime {
                    detail: format!("mirror: {detail}"),
                }
            })?);
        }
        Ok(Slot {
            session,
            script,
            pos: 0,
            end,
            clocks: keep.then(|| Vec::with_capacity(end)),
            probe: slot_probe,
        })
    }

    /// Steps the next session in the ring once; when that was its last
    /// step, retires it and opens its replacement.  `clock` is the caller's
    /// operation counter (it orders steps against catalog mutations).
    pub fn step_next(&mut self, clock: u64) {
        let turn = self.turn;
        self.turn = (turn + 1) % self.slots.len();
        let slot = &mut self.slots[turn];
        let script = &self.config.pool[slot.script];
        let input = &script.inputs[slot.pos];

        let start = Instant::now();
        let result = slot.session.step(input);
        let end = Instant::now();
        self.stats.attempted += 1;
        match &result {
            Ok(output) => {
                black_box(output);
                self.stats.step.push((end - start).as_nanos() as u64);
                self.stats.steps_ok += 1;
            }
            Err(_) => self.stats.failed += 1,
        }
        if let Some(clocks) = &mut slot.clocks {
            clocks.push(clock);
        }
        if let (Some(probe), Some(slot_probe), Ok(output)) =
            (&mut self.probe, &mut slot.probe, &result)
        {
            probe.after_step(
                slot_probe,
                script.kind,
                slot.pos,
                input,
                output,
                &slot.session,
                start,
                end,
            );
        }
        slot.pos += 1;
        if slot.pos == slot.end {
            self.roll_over(turn);
        }
    }

    fn roll_over(&mut self, turn: usize) {
        match self.open_slot(None) {
            Ok(fresh) => {
                let done = std::mem::replace(&mut self.slots[turn], fresh);
                self.retire(done);
            }
            Err(_) => {
                // The slot keeps its finished session and restarts its
                // script; every step of a re-run script then diverges from
                // the reference and is counted by verification.
                self.stats.attempted += 1;
                self.stats.failed += 1;
                self.slots[turn].pos = 0;
            }
        }
    }

    fn retire(&mut self, mut done: Slot) {
        if let Some(probe) = &mut self.probe {
            probe.before_close(&done.session);
        }
        match done.clocks.take() {
            Some(clocks) => self.kept.push(Kept {
                script: done.script,
                session: done.session,
                clocks,
            }),
            None => {
                let start = Instant::now();
                drop(done.session);
                if let Some(probe) = &mut self.probe {
                    let request = probe.next_request();
                    probe
                        .tracer
                        .record("core.close", 0, request, start, Instant::now());
                }
            }
        }
    }

    /// Live sessions right now.
    pub fn live(&self) -> usize {
        self.slots.len()
    }

    /// Hands back what verification needs, and drops the live sessions —
    /// except those marked for keeping, which are verified as far as they
    /// got.
    pub fn finish(mut self) -> (FleetStats, Vec<Kept>, Option<Probe<'a>>) {
        for slot in self.slots.drain(..) {
            if let Some(clocks) = slot.clocks.filter(|clocks| !clocks.is_empty()) {
                self.kept.push(Kept {
                    script: slot.script,
                    session: slot.session,
                    clocks,
                });
            }
        }
        (self.stats, self.kept, self.probe)
    }
}

/// Exact counts over the first operations of the schedule.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub steps: u64,
    pub tuples_derived: u64,
    pub rule_applications: u64,
    pub magic_tuples: u64,
    pub cached_rows: u64,
    pub monitored_steps: u64,
    pub monitor_work: u64,
}

impl Counts {
    pub fn absorb(&mut self, other: &Counts) {
        self.steps += other.steps;
        self.tuples_derived += other.tuples_derived;
        self.rule_applications += other.rule_applications;
        self.magic_tuples += other.magic_tuples;
        self.cached_rows += other.cached_rows;
        self.monitored_steps += other.monitored_steps;
        self.monitor_work += other.monitor_work;
    }
}

struct SlotProbe {
    mirror: Mirror,
    /// A second mirror pinned to `Parallelism::sequential()`, to price the
    /// worker pool (`datalog.pool_speedup`).
    sequential: Option<Mirror>,
    monitor: Option<(Arc<Mutex<SessionMonitor>>, Arc<HookTimes>)>,
    monitor_work_seen: u64,
}

/// The traced pass's per-fleet recorder.
pub struct Probe<'a> {
    pub tracer: Tracer,
    db: Arc<ResidentDb>,
    plans: &'a MirrorPlans,
    parallelism: Parallelism,
    compare_sequential: bool,
    requests: u64,
    /// While true, every step adds to [`Probe::counts`].
    pub counting: bool,
    pub counts: Counts,
    /// Step latencies at session ages 0–15 and 48–63.
    pub young: Samples,
    pub old: Samples,
    /// Mirror outputs or counters that differ from the session's, failed
    /// `run()`s.
    pub mismatches: u64,
    /// The first few mismatches, spelled out.
    pub mismatch_details: Vec<String>,
}

impl<'a> Probe<'a> {
    pub fn new(
        tracer: Tracer,
        db: Arc<ResidentDb>,
        plans: &'a MirrorPlans,
        parallelism: Parallelism,
        compare_sequential: bool,
    ) -> Probe<'a> {
        Probe {
            tracer,
            db,
            plans,
            parallelism,
            compare_sequential,
            requests: 0,
            counting: false,
            counts: Counts::default(),
            young: Samples::with_capacity(1 << 18),
            old: Samples::with_capacity(1 << 18),
            mismatches: 0,
            mismatch_details: Vec::new(),
        }
    }

    fn mismatch(&mut self, detail: impl FnOnce() -> String) {
        self.mismatches += 1;
        if self.mismatch_details.len() < 4 {
            self.mismatch_details.push(detail());
        }
    }

    /// Request identifiers, unique within this probe's fleet.
    pub fn next_request(&mut self) -> u64 {
        self.requests += 1;
        self.requests
    }

    fn slot_probe(
        &mut self,
        kind: Kind,
        monitor: Option<(Arc<Mutex<SessionMonitor>>, Arc<HookTimes>)>,
    ) -> Result<SlotProbe, String> {
        let plan = self.plans.of(kind);
        Ok(SlotProbe {
            mirror: Mirror::new(plan, &self.db, self.parallelism)?,
            sequential: if self.compare_sequential {
                Some(Mirror::new(plan, &self.db, Parallelism::sequential())?)
            } else {
                None
            },
            monitor,
            monitor_work_seen: 0,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn after_step(
        &mut self,
        slot: &mut SlotProbe,
        kind: Kind,
        age: usize,
        input: &Instance,
        output: &Instance,
        session: &ShardedSession,
        start: Instant,
        end: Instant,
    ) {
        let request = self.next_request();
        let span = self.tracer.record(kind.step_span(), 0, request, start, end);
        let step_ns = (end - start).as_nanos() as u64;
        if age < 16 {
            self.young.push(step_ns);
        } else if (48..64).contains(&age) {
            self.old.push(step_ns);
        }

        let mut offset = 0u64;
        if let Some((monitor, times)) = &slot.monitor {
            let admit = times.admit_ns.load(Ordering::Relaxed);
            let observe = times.observe_ns.load(Ordering::Relaxed);
            self.tracer
                .record_replayed("verify.admit", span, request, offset, admit);
            offset += admit;
            self.tracer
                .record_replayed("verify.observe", span, request, offset, observe);
            offset += observe;
            if self.counting {
                let work = monitor
                    .lock()
                    .map(|m| m.work())
                    .unwrap_or(slot.monitor_work_seen);
                self.counts.monitored_steps += 1;
                self.counts.monitor_work += work - slot.monitor_work_seen;
                slot.monitor_work_seen = work;
            }
        }
        match slot.mirror.step(&self.db, input) {
            Ok(mirrored) => {
                let eval = mirrored.eval.as_nanos() as u64;
                self.tracer
                    .record_replayed(kind.eval_span(), span, request, offset, eval);
                if &mirrored.output != output || mirrored.stats != session.last_stats() {
                    self.mismatch(|| {
                        format!("mirror of `{}` diverged at step {age}", session.name())
                    });
                }
            }
            Err(e) => self.mismatch(|| format!("mirror of `{}`: {e}", session.name())),
        }
        if let Some(sequential) = &mut slot.sequential {
            if let Ok(mirrored) = sequential.step(&self.db, input) {
                let eval = mirrored.eval.as_nanos() as u64;
                self.tracer
                    .record_replayed("datalog.eval_sequential", 0, request, 0, eval);
            }
        }
        if self.counting {
            let stats = session.last_stats();
            self.counts.steps += 1;
            self.counts.tuples_derived += stats.tuples_derived;
            self.counts.rule_applications += stats.rule_applications;
            self.counts.magic_tuples += stats.magic_tuples_derived;
            self.counts.cached_rows += slot.mirror.cached_rows() as u64;
        }
    }

    /// Times `Session::run()` on a finished session.
    fn before_close(&mut self, session: &ShardedSession) {
        let request = self.next_request();
        let start = Instant::now();
        let run = session.run();
        self.tracer
            .record("core.run", 0, request, start, Instant::now());
        if let Err(e) = run {
            self.mismatch(|| format!("run() of `{}`: {e}", session.name()));
        }
    }
}

/// One catalog change, as the rows `price` loses and gains.
#[derive(Debug, Clone)]
pub struct Delta {
    pub removes: Vec<Tuple>,
    pub adds: Vec<Tuple>,
}

/// The catalog rows that mention any value the script's inputs mention.
pub fn touched_rows(catalog: &Instance, script: &[Instance]) -> Instance {
    let mentioned: std::collections::BTreeSet<_> = script
        .iter()
        .flat_map(|input| input.iter())
        .flat_map(|(_, relation)| relation.iter())
        .flat_map(|tuple| tuple.values().iter().copied())
        .collect();
    let mut touched = Instance::empty(&catalog.schema());
    for (name, relation) in catalog.iter() {
        for tuple in relation.iter() {
            if tuple.values().iter().any(|v| mentioned.contains(v)) {
                touched
                    .insert(name.clone(), tuple.clone())
                    .expect("rows keep their relation's arity");
            }
        }
    }
    touched
}

/// Re-runs kept sessions on a fresh single-shard [`Runtime`] — no monitor,
/// `DemandPolicy::Full`: the plain §2 run — and compares every output with
/// what the session under test produced.  `mutations[i]` happened at
/// operation clock `mutation_clocks[i]` and is applied to `reference_db`
/// before the first step with a later clock.  Returns `(steps checked,
/// steps that differ)`.
///
/// Under `Full` a demanded session evaluates the whole unrewritten program
/// and filters — O(catalog) per step, minutes for a fleet at 100k products.
/// Both storefront rules join every catalog atom on the browsed product, so
/// the demanded footprint reads only catalog rows that mention a product the
/// session browsed: its reference runs over exactly those rows
/// ([`touched_rows`]).  A row missing there could only make the reference
/// derive less — a false failure, never a false pass.
pub fn verify_kept(
    kept: &[Kept],
    pool: &[Script],
    models: &Models,
    reference_db: &Arc<ResidentDb>,
    mutations: &[Delta],
    mutation_clocks: &[u64],
    tag: &str,
) -> Result<(u64, u64), String> {
    let reference_on = |db: Arc<ResidentDb>| {
        let reference = Runtime::shared_with(db, Parallelism::sequential());
        reference.set_demand_policy(DemandPolicy::Full);
        reference.set_monitor_policy(MonitorPolicy::Off);
        reference
    };
    let reference = reference_on(Arc::clone(reference_db));
    let catalog = reference_db.snapshot();

    let mut events: Vec<(u64, usize, usize)> = kept
        .iter()
        .enumerate()
        .flat_map(|(k, kept)| {
            kept.clocks
                .iter()
                .enumerate()
                .map(move |(i, &clock)| (clock, k, i))
        })
        .collect();
    events.sort_unstable();
    let produced: Vec<_> = kept
        .iter()
        .map(|k| k.session.run().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;

    let mut sessions: Vec<Option<rtx_core::Session>> = kept.iter().map(|_| None).collect();
    let (mut checked, mut differing) = (0u64, 0u64);
    let mut applied = 0;
    for (clock, k, step) in events {
        while applied < mutation_clocks.len() && mutation_clocks[applied] < clock {
            let delta = &mutations[applied];
            for row in &delta.removes {
                reference_db
                    .retract("price", row)
                    .map_err(|e| e.to_string())?;
            }
            for row in &delta.adds {
                reference_db
                    .insert("price", row.clone())
                    .map_err(|e| e.to_string())?;
            }
            applied += 1;
        }
        let script = &pool[kept[k].script];
        if sessions[k].is_none() {
            let name = format!("{tag}-ref-{k}");
            sessions[k] = Some(if script.kind.is_demanded() {
                let touched = touched_rows(&catalog, &script.inputs);
                let narrowed = reference_on(Arc::new(ResidentDb::new(touched)));
                models.open_reference(&narrowed, script.kind, name)?
            } else {
                models.open_reference(&reference, script.kind, name)?
            });
        }
        let session = sessions[k].as_mut().expect("just opened");
        let expected = session
            .step(&script.inputs[step])
            .map_err(|e| e.to_string())?;
        checked += 1;
        if produced[k].outputs().get(step) != Some(&expected) {
            differing += 1;
        }
        if step + 1 == kept[k].clocks.len() {
            sessions[k] = None;
        }
    }
    Ok((checked, differing))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_world() -> (Arc<ResidentDb>, Models, Vec<Script>) {
        let catalog = rtx_workloads::category_catalog(400, 8, 11);
        let prices = PriceTable::of(&catalog);
        let pool = script_pool(
            11,
            0,
            &[
                Kind::Category,
                Kind::StorefrontDemand,
                Kind::CategoryEnforced,
            ],
            12,
            8,
            &prices,
            400,
            &mut ScheduleHash::default(),
        );
        (Arc::new(ResidentDb::new(catalog)), Models::new(), pool)
    }

    fn config<'a>(
        runtime: &'a ShardedRuntime,
        models: &'a Models,
        gatekeeper: &'a SessionMonitor,
        pool: &'a [Script],
    ) -> FleetConfig<'a> {
        FleetConfig {
            runtime,
            shard: Some(1),
            models,
            gatekeeper: Some(gatekeeper),
            pool,
            tag: "t".into(),
            live: 4,
            keep_every: 2,
            keep_cap: 64,
            step_capacity: 4096,
        }
    }

    #[test]
    fn the_schedule_is_a_function_of_the_seed() {
        let catalog = rtx_workloads::category_catalog(100, 4, 1);
        let prices = PriceTable::of(&catalog);
        let hash_of = |seed: u64| {
            let mut hash = ScheduleHash::default();
            script_pool(
                seed,
                3,
                &[Kind::Category, Kind::StorefrontFull],
                6,
                5,
                &prices,
                100,
                &mut hash,
            );
            hash.value()
        };
        assert_eq!(hash_of(42), hash_of(42));
        assert_ne!(hash_of(42), hash_of(7));
    }

    #[test]
    fn a_fleet_steps_rolls_over_and_verifies_clean() {
        let (db, models, pool) = small_world();
        let runtime = ShardedRuntime::shared_with(Arc::clone(&db), 2, Parallelism::sequential());
        let gatekeeper = models.gatekeeper(&db).unwrap();
        let mut fleet = Fleet::open(config(&runtime, &models, &gatekeeper, &pool), None).unwrap();
        assert_eq!(runtime.session_count(), 4);
        for clock in 0..100 {
            fleet.step_next(clock);
        }
        assert_eq!(fleet.live(), 4);
        assert_eq!(fleet.stats.steps_ok, 100);
        assert_eq!(fleet.stats.failed, 0);
        assert_eq!(fleet.stats.step.len(), 100);
        assert!(fleet.stats.open.len() >= 10);
        let (_, kept, _) = fleet.finish();
        assert!(kept.len() >= 5);

        let reference_db = Arc::new(ResidentDb::new(db.snapshot()));
        let (checked, differing) =
            verify_kept(&kept, &pool, &models, &reference_db, &[], &[], "t").unwrap();
        assert!(checked >= 30);
        assert_eq!(differing, 0);
    }

    /// A deliberately wrong reference — a catalog that reprices what the
    /// sessions ordered — must show up as differing steps, which the
    /// workloads count as failed operations.
    #[test]
    fn a_wrong_reference_output_is_counted() {
        let (db, models, pool) = small_world();
        let runtime = ShardedRuntime::shared_with(Arc::clone(&db), 2, Parallelism::sequential());
        let gatekeeper = models.gatekeeper(&db).unwrap();
        let mut fleet = Fleet::open(config(&runtime, &models, &gatekeeper, &pool), None).unwrap();
        (0..100).for_each(|clock| fleet.step_next(clock));
        let (_, kept, _) = fleet.finish();

        let wrong = rtx_workloads::category_catalog(400, 8, 12);
        let reference_db = Arc::new(ResidentDb::new(wrong));
        let (checked, differing) =
            verify_kept(&kept, &pool, &models, &reference_db, &[], &[], "t").unwrap();
        assert!(differing > 0 && differing <= checked);
    }

    #[test]
    fn a_probed_fleet_records_spans_counts_and_faithful_mirrors() {
        let (db, models, pool) = small_world();
        let runtime = ShardedRuntime::shared_with(Arc::clone(&db), 2, Parallelism::sequential());
        let gatekeeper = models.gatekeeper(&db).unwrap();
        let plans = models.mirror_plans().unwrap();
        let tracer = Tracer::new(0, Instant::now(), 10_000);
        let mut probe = Probe::new(
            tracer,
            Arc::clone(&db),
            &plans,
            Parallelism::sequential(),
            false,
        );
        probe.counting = true;
        let mut fleet =
            Fleet::open(config(&runtime, &models, &gatekeeper, &pool), Some(probe)).unwrap();
        (0..60).for_each(|clock| fleet.step_next(clock));
        let (stats, _, probe) = fleet.finish();
        let probe = probe.unwrap();
        assert_eq!(stats.failed, 0);
        assert_eq!(probe.mismatch_details, Vec::<String>::new());
        assert_eq!(probe.counts.steps, 60);
        assert!(probe.counts.tuples_derived > 0 && probe.counts.cached_rows > 0);
        assert!(probe.counts.monitored_steps > 0 && probe.counts.monitor_work > 0);
        let spans = probe.tracer.into_spans().unwrap();
        let by_name = crate::trace::durations_by_name(&spans);
        for name in [
            "core.step_plain",
            "core.step_demand",
            "core.step_enforced",
            "datalog.eval_plain",
            "datalog.eval_demand",
            "verify.admit",
            "verify.observe",
            "verify.fork",
            "core.open_plain",
            "core.open_demand",
            "core.open_enforced",
            "core.close",
            "core.run",
        ] {
            assert!(by_name.contains_key(name), "no `{name}` span");
        }
    }
}
