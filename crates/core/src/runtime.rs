//! The resident session runtime: one shared database, many concurrent runs.
//!
//! The paper's e-commerce setting is many customers against one shared
//! catalog, but [`RelationalTransducer::run`](crate::RelationalTransducer::run)
//! is a one-shot API: it takes the whole input sequence up front and
//! evaluates every step from scratch.  This module is the resident-service
//! shape of the same semantics:
//!
//! * a [`Runtime`] owns one [`ResidentDb`] — the catalog made resident once,
//!   its hash indexes retained across every run and invalidated per relation
//!   by version stamp;
//! * each customer interaction is a named [`Session`]: one transducer run in
//!   progress, fed one input instance at a time through [`Session::step`];
//! * steps evaluate **incrementally**: cumulative state means `past-R` only
//!   ever grows by the step's input, so rules without volatile atoms join
//!   only against the per-step delta (see [`rtx_datalog::incremental`]), and
//!   cumulation itself is the fixed union `past-R := past-R ∪ R`, computed
//!   directly on copy-on-write tuple sets;
//! * sessions are independent and [`Session`] is `Send`: different sessions
//!   can be stepped from different threads against the same shared catalog,
//!   and a catalog mutation ([`ResidentDb::insert`]) is observed by every
//!   session at its next step — staleness is per relation
//!   ([`ResidentDb::view_is_current`]), so a session reseeds its step caches
//!   only when a relation its program actually reads changed.
//!
//! A completed (or in-flight) session converts back into the paper's [`Run`]
//! object with [`Session::run`].  Over an unchanged catalog it is
//! bit-identical to a one-shot
//! [`RelationalTransducer::run`](crate::RelationalTransducer::run) over the
//! same inputs — the §2 definition, one full evaluation of the output
//! program per step, which shares no step cache with a session and is the
//! reference the incremental stepper is checked against.
//!
//! Every session is placed on one of the runtime's shards
//! ([`Runtime::shard_of`], [`Session::shard`]).  A plain runtime has one
//! shard; see [`shard`](crate::shard) for what a shard is and is not.

use crate::demand::{DemandPlan, SessionDemand};
use crate::supervise::{MonitorPolicy, RuntimeHealth, SessionObserver, Violation};
use crate::{CoreError, Run, SpocusTransducer};
use rtx_datalog::{
    ChangeClass, DemandPolicy, EvalBudget, EvalStats, Parallelism, ResidentDb, ResidentView,
    StepEvaluator,
};
use rtx_relational::{Instance, InstanceSequence, Relation, RelationName, Schema, Tuple};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

/// Locks a mutex, recovering from poisoning.  Every runtime lock guards
/// simple ownership records (name sets, counters) that are valid after any
/// partial update, so a panic in one session must not wedge
/// [`Runtime::open_session`] — or session drop — for every sibling.
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders a panic payload for a quarantine report.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// The incremental per-step engine behind a [`Session`]: a delta-aware
/// [`StepEvaluator`] plus the cumulative-state bookkeeping (state, pre-delta
/// state, and the delta between them).  Its view of the shared catalog is
/// refreshed whenever a relation the program reads changed, so each step
/// observes the catalog as of that step.
#[derive(Debug)]
pub(crate) struct IncrementalStepper {
    evaluator: StepEvaluator,
    view: ResidentView,
    /// The session's demand plan, if any: under
    /// [`DemandPolicy::Demand`] the evaluator runs the magic-set-rewritten
    /// program with the step's seed facts merged into the volatile sources;
    /// under [`DemandPolicy::Full`] the original program runs and the output
    /// is filtered to the same footprint.  Plans are shared by every
    /// session opened with the same transducer, demand and policy.
    demand: Option<Arc<DemandPlan>>,
    /// State after the last step (`S_{i-1}` when evaluating step `i`).
    state: Instance,
    /// State before that (`S_{i-2}`).
    old_state: Instance,
    /// `S_{i-1} \ S_{i-2}` — what the previous step added to the state.
    delta: Instance,
    last_stats: EvalStats,
}

impl IncrementalStepper {
    /// A session stepper, evaluating under `demand`'s plan if one is given.
    pub(crate) fn new(
        transducer: &SpocusTransducer,
        db: &ResidentDb,
        parallelism: Parallelism,
        demand: Option<Arc<DemandPlan>>,
    ) -> Result<Self, CoreError> {
        let schema = transducer.schema();
        let input = schema.input().clone();
        let state = schema.state().clone();
        // Magic seed relations are per-session, per-step demand: volatile,
        // never part of the shared database or the cumulative state.
        let magic = demand
            .as_ref()
            .map(|plan| plan.magic_names())
            .unwrap_or_default();
        let classify = move |name: &RelationName| {
            if input.contains(name.clone()) || magic.contains(name) {
                ChangeClass::Volatile
            } else if state.contains(name.clone()) {
                ChangeClass::GrowOnly
            } else {
                ChangeClass::Static
            }
        };
        let compiled = demand
            .as_ref()
            .and_then(|plan| plan.compiled())
            .unwrap_or_else(|| transducer.compiled_output_program());
        let evaluator = StepEvaluator::new(compiled, classify)
            .map_err(CoreError::Datalog)?
            .with_parallelism(parallelism);
        let view = db.view_for(compiled);
        let empty_state = Instance::empty(schema.state());
        Ok(IncrementalStepper {
            evaluator,
            view,
            demand,
            state: empty_state.clone(),
            old_state: empty_state.clone(),
            delta: empty_state,
            last_stats: EvalStats::default(),
        })
    }

    /// The session's demand plan, if it was opened with one.
    pub(crate) fn demand(&self) -> Option<&DemandPlan> {
        self.demand.as_deref()
    }

    /// The state after the last step.
    pub(crate) fn state(&self) -> &Instance {
        &self.state
    }

    /// Statistics of the last evaluated step.
    pub(crate) fn last_stats(&self) -> EvalStats {
        self.last_stats
    }

    /// Replaces the per-step [`EvalBudget`] the evaluator enforces.
    pub(crate) fn set_budget(&mut self, budget: EvalBudget) {
        self.evaluator.set_budget(budget);
    }

    /// Evaluates one step and cumulates the state, returning the step's
    /// output ([`IncrementalStepper::state`] is the state after the step).
    pub(crate) fn step(
        &mut self,
        transducer: &SpocusTransducer,
        db: &ResidentDb,
        input: &Instance,
    ) -> Result<Instance, CoreError> {
        // A shared catalog may have changed under us: refresh the view and
        // reseed the step caches whose static-relation assumptions are void.
        // Staleness is per relation — mutations (inserts *and* retractions)
        // to relations the program never reads keep every cache alive, and
        // a mutation the program does read reseeds exactly the rule caches
        // that join against it, not the whole evaluator.
        let compiled = self
            .demand
            .as_ref()
            .and_then(|plan| plan.compiled())
            .unwrap_or_else(|| transducer.compiled_output_program());
        if !db.view_is_current(&self.view) {
            let stale = db.stale_relations(&self.view);
            self.view = db.view_for(compiled);
            self.evaluator.invalidate_relations(&stale);
        }

        let (derived, stats) = match &self.demand {
            None => self.evaluator.step(
                compiled,
                input,
                &self.state,
                &self.old_state,
                &self.delta,
                &self.view,
            )?,
            Some(plan) => {
                // Seed this step's demand: the session constants plus the
                // projections of this step's own input.  The seeds are
                // volatile per-step state — never stamped into the shared
                // database or carried into the cumulative state.
                let seeds = plan.seed_instance(input)?;
                if plan.compiled().is_some() {
                    let volatile = plan.volatile_instance(input, &seeds)?;
                    let (derived, stats) = self.evaluator.step(
                        compiled,
                        &volatile,
                        &self.state,
                        &self.old_state,
                        &self.delta,
                        &self.view,
                    )?;
                    // Adorned relations hold answers for every transitively
                    // demanded binding; restrict to the goals' own seeds.
                    (plan.rewrite().restrict_with(&derived, Some(&seeds)), stats)
                } else {
                    let (derived, stats) = self.evaluator.step(
                        compiled,
                        input,
                        &self.state,
                        &self.old_state,
                        &self.delta,
                        &self.view,
                    )?;
                    // Full-evaluation fallback: filter the unrewritten
                    // result to the identical demanded footprint.
                    (plan.rewrite().footprint_with(&derived, Some(&seeds)), stats)
                }
            }
        };
        self.last_stats = stats;
        let mut output = Instance::empty(transducer.schema().output());
        output.absorb(&derived)?;

        // Cumulation is the fixed union `past-R := past-R ∪ R`: computed
        // directly on the copy-on-write tuple sets (no datalog evaluation,
        // no per-tuple cloning of the previous state), tracking what is new
        // as the delta the next step joins against.
        let schema = transducer.schema();
        let mut next = self.state.clone();
        let mut delta = Instance::empty(schema.state());
        for (name, rel) in input.iter() {
            let past = name.past();
            if rel.is_empty() || next.get(&past).is_none() {
                continue;
            }
            let prev = self.state.get(&past).expect("state mirrors next");
            if prev.is_empty() {
                delta.absorb_relation(past.clone(), rel)?;
            } else {
                for tuple in rel.iter() {
                    if !prev.contains(tuple) {
                        delta.insert(past.clone(), tuple.clone())?;
                    }
                }
            }
            next.absorb_relation(past, rel)?;
        }
        self.old_state = std::mem::replace(&mut self.state, next);
        self.delta = delta;
        Ok(output)
    }
}

/// Mutable runtime-wide defaults picked up by sessions at open time.
#[derive(Debug, Clone, Copy)]
struct RuntimeConfig {
    budget: EvalBudget,
    policy: MonitorPolicy,
    demand: DemandPolicy,
}

/// The runtime-wide defaults resolved from `RTX_MONITOR`/`RTX_DEMAND`
/// environment overrides, plus a per-variable report of every *malformed*
/// override.
///
/// Malformed values are never silently ignored: the report is kept on the
/// runtime and every `open_session*` call is **rejected** with a
/// [`CoreError::Runtime`] naming the bad variable until either the
/// environment is fixed or an explicit setter
/// ([`Runtime::set_monitor_policy`] / [`Runtime::set_demand_policy`])
/// overrides it — the setter is deliberate operator intent, which clears
/// that variable's report.
///
/// The demand default differs from [`DemandPolicy::default`]: opening a
/// session *with* a demand is already the opt-in, so the environment
/// variable only serves as a kill switch (`RTX_DEMAND=full`) or an explicit
/// confirmation (`RTX_DEMAND=demand`).
fn resolve_env_config(
    monitor_raw: Option<&str>,
    demand_raw: Option<&str>,
) -> (MonitorPolicy, DemandPolicy, Vec<(&'static str, String)>) {
    let mut errors = Vec::new();
    let policy = match MonitorPolicy::from_env_setting(monitor_raw) {
        Ok(policy) => policy.unwrap_or_default(),
        Err(e) => {
            errors.push(("RTX_MONITOR", e.to_string()));
            MonitorPolicy::default()
        }
    };
    let demand = match DemandPolicy::from_env_setting(demand_raw) {
        Ok(policy) => policy.unwrap_or(DemandPolicy::Demand),
        Err(e) => {
            errors.push(("RTX_DEMAND", e.to_string()));
            DemandPolicy::Demand
        }
    };
    (policy, demand, errors)
}

/// Supervision counters behind [`Runtime::health`].  The counts are
/// atomics, so recording a violation or a rejection takes no lock shared by
/// the other sessions.
#[derive(Debug, Default)]
struct HealthInner {
    quarantined: Mutex<BTreeSet<String>>,
    violations: AtomicU64,
    rejections: AtomicU64,
}

#[derive(Debug)]
struct RuntimeInner {
    db: Arc<ResidentDb>,
    /// Number of shards sessions can be placed on (at least one).
    shards: usize,
    /// The per-shard evaluation budget: the total divided among the shards.
    parallelism: Parallelism,
    /// The session registry: every open session name → its shard.
    sessions: Mutex<BTreeMap<String, usize>>,
    config: Mutex<RuntimeConfig>,
    health: HealthInner,
    /// Malformed `RTX_*` overrides found at construction, keyed by variable
    /// name.  Non-empty ⇒ every `open_session*` is rejected until the
    /// corresponding explicit setter clears the entry.
    env_errors: Mutex<Vec<(&'static str, String)>>,
    /// Compiled demand plans, memoised per (transducer, demand, policy).
    /// The `Weak` keeps the transducer's allocation, so its address cannot
    /// be reused by another transducer while the entry exists.
    plans: Mutex<Vec<(Weak<SpocusTransducer>, Arc<DemandPlan>)>>,
}

/// Memoised demand plans beyond which plans no open session uses are
/// evicted, so per-session demands (session constants) cannot grow the memo
/// without bound.
const PLAN_MEMO_SOFT_CAP: usize = 64;

impl RuntimeInner {
    /// The compiled plan for `demand` on `transducer` under `policy`: the
    /// memoised one if an earlier open compiled it, else a fresh one (then
    /// memoised).  Entries whose transducer was dropped are pruned here.
    fn demand_plan(
        &self,
        transducer: &Arc<SpocusTransducer>,
        demand: SessionDemand,
        policy: DemandPolicy,
    ) -> Result<Arc<DemandPlan>, CoreError> {
        let find = |memo: &[(Weak<SpocusTransducer>, Arc<DemandPlan>)]| {
            memo.iter()
                .find(|(model, plan)| {
                    model.as_ptr() == Arc::as_ptr(transducer)
                        && plan.policy() == policy
                        && plan.spec() == &demand
                })
                .map(|(_, plan)| Arc::clone(plan))
        };
        {
            let mut memo = lock_clean(&self.plans);
            memo.retain(|(model, _)| model.strong_count() > 0);
            if let Some(plan) = find(&memo) {
                return Ok(plan);
            }
        }
        // Compile outside the lock; a concurrent open of the same demand
        // may compile it too, and the first to finish is memoised.
        let plan = Arc::new(DemandPlan::new(transducer, demand.clone(), policy)?);
        let mut memo = lock_clean(&self.plans);
        if let Some(plan) = find(&memo) {
            return Ok(plan);
        }
        if memo.len() >= PLAN_MEMO_SOFT_CAP {
            memo.retain(|(_, plan)| Arc::strong_count(plan) > 1);
        }
        memo.push((Arc::downgrade(transducer), Arc::clone(&plan)));
        Ok(plan)
    }
}

/// A resident transducer runtime: one shared [`ResidentDb`] serving many
/// named concurrent [`Session`]s, each placed on one of the runtime's
/// shards.  Cheaply clonable (`Arc` inside); clones share the database, the
/// session registry, the configuration and the health record.
#[derive(Debug, Clone)]
pub struct Runtime {
    inner: Arc<RuntimeInner>,
}

impl Runtime {
    /// Creates a runtime owning a resident database.
    pub fn new(db: ResidentDb) -> Self {
        Runtime::shared(Arc::new(db))
    }

    /// Creates a runtime over an already-shared resident database.
    pub fn shared(db: Arc<ResidentDb>) -> Self {
        Runtime::shared_with(db, Parallelism::default())
    }

    /// Creates a one-shard runtime over a shared resident database with an
    /// explicit [`Parallelism`] policy: every session opened on this runtime
    /// evaluates its steps under it.  Parallel steps are bit-identical to
    /// sequential ones (the engine merges worker results in a fixed order),
    /// so the policy is purely a scheduling knob.
    ///
    /// The default monitor and demand policies come from the `RTX_MONITOR`
    /// and `RTX_DEMAND` environment variables, parsed **strictly**: a
    /// malformed value does not silently fall back — it is recorded and
    /// every subsequent `open_session*` call is rejected until the
    /// corresponding explicit setter ([`Runtime::set_monitor_policy`] /
    /// [`Runtime::set_demand_policy`]) overrides it.
    pub fn shared_with(db: Arc<ResidentDb>, parallelism: Parallelism) -> Self {
        Runtime::with_shards(db, 1, parallelism)
    }

    /// A runtime with `shards` shards (clamped to at least one), each
    /// evaluating under its share of the `parallelism` budget — the
    /// constructor behind [`ShardedRuntime`](crate::ShardedRuntime).
    pub(crate) fn with_shards(
        db: Arc<ResidentDb>,
        shards: usize,
        parallelism: Parallelism,
    ) -> Self {
        let monitor = std::env::var("RTX_MONITOR").ok();
        let demand = std::env::var("RTX_DEMAND").ok();
        Runtime::with_settings(
            db,
            shards,
            parallelism,
            monitor.as_deref(),
            demand.as_deref(),
        )
    }

    /// [`Runtime::with_shards`] over explicit raw `RTX_MONITOR`/`RTX_DEMAND`
    /// values instead of the process environment — the testable core of the
    /// strict env-override path.
    fn with_settings(
        db: Arc<ResidentDb>,
        shards: usize,
        parallelism: Parallelism,
        monitor_raw: Option<&str>,
        demand_raw: Option<&str>,
    ) -> Self {
        let shards = shards.max(1);
        let (policy, demand, env_errors) = resolve_env_config(monitor_raw, demand_raw);
        Runtime {
            inner: Arc::new(RuntimeInner {
                db,
                shards,
                parallelism: parallelism.divided_among(shards),
                sessions: Mutex::new(BTreeMap::new()),
                config: Mutex::new(RuntimeConfig {
                    budget: EvalBudget::UNLIMITED,
                    policy,
                    demand,
                }),
                health: HealthInner::default(),
                env_errors: Mutex::new(env_errors),
                plans: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The shared resident database.
    pub fn database(&self) -> &Arc<ResidentDb> {
        &self.inner.db
    }

    /// The [`Parallelism`] policy sessions of this runtime evaluate under:
    /// the budget the runtime was built with, divided among its shards
    /// ([`Parallelism::divided_among`]), so sessions stepped concurrently on
    /// every shard do not oversubscribe the machine.
    pub fn parallelism(&self) -> Parallelism {
        self.inner.parallelism
    }

    /// Number of shards sessions can be placed on (one unless built by
    /// [`ShardedRuntime`](crate::ShardedRuntime)).
    pub fn shard_count(&self) -> usize {
        self.inner.shards
    }

    /// The deterministic home shard of a session name (FNV-1a over the name
    /// bytes, mod the shard count) — stable across processes and platforms,
    /// so a front-end routes the same name to the same shard everywhere.
    pub fn shard_of(&self, name: &str) -> usize {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in name.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (hash % self.inner.shards as u64) as usize
    }

    /// Sets the default per-step [`EvalBudget`] for sessions opened after
    /// this call (already-open sessions keep theirs; see
    /// [`Session::set_step_budget`]).  A session whose step exhausts the
    /// budget fails with a typed
    /// [`BudgetExceeded`](rtx_datalog::DatalogError::BudgetExceeded) instead
    /// of spinning, and stays usable.
    pub fn set_step_budget(&self, budget: EvalBudget) {
        lock_clean(&self.inner.config).budget = budget;
    }

    /// The default per-step [`EvalBudget`] sessions are opened with.
    pub fn step_budget(&self) -> EvalBudget {
        lock_clean(&self.inner.config).budget
    }

    /// Sets the default [`MonitorPolicy`] for sessions opened after this
    /// call (already-open sessions keep theirs; see
    /// [`Session::set_monitor_policy`]).  The initial default comes from the
    /// `RTX_MONITOR` environment variable
    /// ([`MonitorPolicy::from_env_setting`]);
    /// calling this setter also clears any malformed-`RTX_MONITOR` report
    /// blocking `open_session*` — an explicit policy is deliberate operator
    /// intent.
    pub fn set_monitor_policy(&self, policy: MonitorPolicy) {
        lock_clean(&self.inner.config).policy = policy;
        lock_clean(&self.inner.env_errors).retain(|(var, _)| *var != "RTX_MONITOR");
    }

    /// The default [`MonitorPolicy`] sessions are opened with.
    pub fn monitor_policy(&self) -> MonitorPolicy {
        lock_clean(&self.inner.config).policy
    }

    /// Sets the [`DemandPolicy`] for sessions opened **with a demand** after
    /// this call ([`Runtime::open_session_with_demand`]; already-open
    /// sessions keep theirs).  Under [`DemandPolicy::Demand`] such a session
    /// evaluates the magic-set-rewritten program seeded from its own inputs
    /// and constants; under [`DemandPolicy::Full`] it evaluates the original
    /// program and filters the output to the identical footprint — a pure
    /// performance knob.  The initial default is [`DemandPolicy::Demand`]
    /// unless the `RTX_DEMAND` environment variable says `full`/`off`.
    /// Sessions opened without a demand are unaffected.  Calling this setter
    /// also clears any malformed-`RTX_DEMAND` report blocking
    /// `open_session*` — an explicit policy is deliberate operator intent.
    pub fn set_demand_policy(&self, policy: DemandPolicy) {
        lock_clean(&self.inner.config).demand = policy;
        lock_clean(&self.inner.env_errors).retain(|(var, _)| *var != "RTX_DEMAND");
    }

    /// The [`DemandPolicy`] demanded sessions are opened under.
    pub fn demand_policy(&self) -> DemandPolicy {
        lock_clean(&self.inner.config).demand
    }

    /// A snapshot of the runtime's supervision state across every shard:
    /// live session count, quarantined session names, and the aggregate
    /// violation/rejection counters across all sessions (past and present).
    pub fn health(&self) -> RuntimeHealth {
        let health = &self.inner.health;
        RuntimeHealth {
            active_sessions: self.session_count(),
            quarantined_sessions: lock_clean(&health.quarantined).iter().cloned().collect(),
            violations: health.violations.load(Ordering::Relaxed),
            rejections: health.rejections.load(Ordering::Relaxed),
        }
    }

    /// Opens a named session running `transducer` against the shared
    /// database, on the name's home shard ([`Runtime::shard_of`]).  Fails if
    /// the name is in use on any shard or if the database is missing one of
    /// the transducer's `db` relations.
    pub fn open_session(
        &self,
        name: impl Into<String>,
        transducer: impl Into<Arc<SpocusTransducer>>,
    ) -> Result<Session, CoreError> {
        let name = name.into();
        self.open_session_inner(self.shard_of(&name), name, transducer.into(), None)
    }

    /// Opens a named session on an explicit shard — for placement policies
    /// beyond name hashing (sticky routing, rebalancing, tests).  Fails like
    /// [`Runtime::open_session`], and with a [`CoreError::Runtime`] when
    /// `shard` is out of range.
    pub fn open_session_on(
        &self,
        shard: usize,
        name: impl Into<String>,
        transducer: impl Into<Arc<SpocusTransducer>>,
    ) -> Result<Session, CoreError> {
        self.open_session_inner(shard, name.into(), transducer.into(), None)
    }

    /// Opens a named session that only ever reads the demanded footprint of
    /// its outputs: every step's output is restricted to the
    /// [`SessionDemand`]'s goals, seeded per step from the session's
    /// constants and its own input projections.  Under the runtime's
    /// [`DemandPolicy`] ([`Runtime::set_demand_policy`]) the step either
    /// evaluates the magic-set-rewritten program (goal-directed, per-step
    /// cost proportional to the session's footprint) or falls back to full
    /// evaluation plus filtering — the outputs are identical either way.
    ///
    /// Fails like [`Runtime::open_session`], and additionally with
    /// [`DatalogError::DemandUnsupported`](rtx_datalog::DatalogError::DemandUnsupported)
    /// when the demand names a non-output relation, mismatches an arity, or
    /// states no goal at all.
    pub fn open_session_with_demand(
        &self,
        name: impl Into<String>,
        transducer: impl Into<Arc<SpocusTransducer>>,
        demand: SessionDemand,
    ) -> Result<Session, CoreError> {
        let name = name.into();
        self.open_session_inner(self.shard_of(&name), name, transducer.into(), Some(demand))
    }

    /// Opens a demand-driven session
    /// ([`Runtime::open_session_with_demand`]) on an explicit shard.
    pub fn open_session_with_demand_on(
        &self,
        shard: usize,
        name: impl Into<String>,
        transducer: impl Into<Arc<SpocusTransducer>>,
        demand: SessionDemand,
    ) -> Result<Session, CoreError> {
        self.open_session_inner(shard, name.into(), transducer.into(), Some(demand))
    }

    fn open_session_inner(
        &self,
        shard: usize,
        name: String,
        transducer: Arc<SpocusTransducer>,
        demand: Option<SessionDemand>,
    ) -> Result<Session, CoreError> {
        if shard >= self.inner.shards {
            return Err(CoreError::Runtime {
                detail: format!(
                    "shard {shard} out of range: this runtime has {} shards",
                    self.inner.shards
                ),
            });
        }
        // A malformed RTX_* override is a hard refusal, not a silent
        // default: a fleet must fail at session-open time, loudly naming
        // the variable, until the environment is fixed or an explicit
        // setter overrides it.
        {
            let env_errors = lock_clean(&self.inner.env_errors);
            if let Some((_, detail)) = env_errors.first() {
                return Err(CoreError::Runtime {
                    detail: format!(
                        "refusing to open session `{name}`: {detail} \
                         (fix the environment or override with the explicit policy setter)"
                    ),
                });
            }
        }
        let resident_schema = self.inner.db.schema();
        if !transducer.schema().db().is_subschema_of(&resident_schema) {
            return Err(CoreError::SchemaMismatch {
                detail: format!(
                    "resident database schema {resident_schema} does not cover the transducer db schema {}",
                    transducer.schema().db()
                ),
            });
        }

        match lock_clean(&self.inner.sessions).entry(name.clone()) {
            Entry::Occupied(held) => {
                return Err(CoreError::Runtime {
                    detail: format!("session `{name}` is already open on shard {}", held.get()),
                });
            }
            Entry::Vacant(slot) => {
                slot.insert(shard);
            }
        }

        let config = *lock_clean(&self.inner.config);
        let built = demand
            .map(|spec| self.inner.demand_plan(&transducer, spec, config.demand))
            .transpose()
            .and_then(|plan| {
                IncrementalStepper::new(&transducer, &self.inner.db, self.inner.parallelism, plan)
            });
        let mut stepper = match built {
            Ok(stepper) => stepper,
            Err(e) => {
                self.release(&name);
                return Err(e);
            }
        };
        stepper.set_budget(config.budget);
        Ok(Session {
            name,
            shard,
            runtime: Arc::clone(&self.inner),
            inputs: History::default(),
            outputs: History::default(),
            transducer,
            stepper,
            policy: config.policy,
            observer: None,
            violations: Vec::new(),
            quarantined: false,
        })
    }

    /// The names of the currently open sessions across every shard, sorted.
    pub fn session_names(&self) -> Vec<String> {
        lock_clean(&self.inner.sessions).keys().cloned().collect()
    }

    /// Number of currently open sessions across every shard.
    pub fn session_count(&self) -> usize {
        lock_clean(&self.inner.sessions).len()
    }

    fn release(&self, name: &str) {
        lock_clean(&self.inner.sessions).remove(name);
    }
}

/// Relations of at most this many tuples are recorded by copying their
/// tuples, which takes less memory than the tuple-set node holding them.
const COPIED_TUPLES: usize = 8;

/// One non-empty relation of a recorded step.
#[derive(Debug)]
enum Recorded {
    /// A few tuples, copied.
    Tuples(Box<[Tuple]>),
    /// A larger relation, kept by sharing its copy-on-write tuple set.
    Shared(Relation),
}

/// A session's input or output sequence, kept as each step's non-empty
/// relations only, each tagged with its position in the schema.  A full
/// [`Instance`] per step would hold an entry for every relation, and a
/// one-tuple relation alone holds a fixed-size tuple-set node of about
/// 800 B, ten times its tuple; so small relations are copied and large ones
/// shared.  [`History::sequence`] rebuilds the instances.
#[derive(Debug, Default)]
struct History {
    steps: Vec<Box<[(usize, Recorded)]>>,
}

impl History {
    fn len(&self) -> usize {
        self.steps.len()
    }

    /// Records one step; `instance` must be over the history's schema.
    fn push(&mut self, instance: &Instance) {
        let step = instance
            .iter()
            .enumerate()
            .filter(|(_, (_, relation))| !relation.is_empty())
            .map(|(position, (_, relation))| {
                let recorded = if relation.len() <= COPIED_TUPLES {
                    Recorded::Tuples(relation.iter().cloned().collect())
                } else {
                    Recorded::Shared(relation.clone())
                };
                (position, recorded)
            })
            .collect();
        self.steps.push(step);
    }

    /// The recorded steps as instances of `schema`.
    fn sequence(&self, schema: &Schema) -> Result<InstanceSequence, CoreError> {
        let names: Vec<&RelationName> = schema.names().collect();
        let mut sequence = InstanceSequence::empty(schema.clone());
        for step in &self.steps {
            let mut instance = Instance::empty(schema);
            for (position, recorded) in step.iter() {
                let name = names[*position];
                match recorded {
                    Recorded::Tuples(tuples) => {
                        for tuple in tuples.iter() {
                            instance.insert(name, tuple.clone())?;
                        }
                    }
                    Recorded::Shared(relation) => instance.absorb_relation(name, relation)?,
                }
            }
            sequence.push(instance)?;
        }
        Ok(sequence)
    }
}

/// One transducer run in progress against a [`Runtime`]'s shared database.
///
/// Inputs arrive one step at a time through [`Session::step`]; the session
/// accumulates the input and output sequences and can render them, with
/// the states they induce, as a paper-semantics [`Run`] at any point.
/// Sessions are `Send`: move each to its own thread and step them
/// concurrently — they share the catalog and its indexes, nothing else.  The
/// session name is released when the session is dropped.
#[derive(Debug)]
pub struct Session {
    name: String,
    shard: usize,
    runtime: Arc<RuntimeInner>,
    transducer: Arc<SpocusTransducer>,
    stepper: IncrementalStepper,
    inputs: History,
    outputs: History,
    policy: MonitorPolicy,
    observer: Option<Box<dyn SessionObserver>>,
    violations: Vec<Violation>,
    quarantined: bool,
}

impl Session {
    /// The session name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shard this session is placed on.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The transducer this session runs.
    pub fn transducer(&self) -> &SpocusTransducer {
        &self.transducer
    }

    /// Number of steps taken so far.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// True if no step has been taken.
    pub fn is_empty(&self) -> bool {
        self.inputs.len() == 0
    }

    /// The cumulative state after the last step.
    pub fn state(&self) -> &Instance {
        self.stepper.state()
    }

    /// Evaluation statistics of the last step (join derivations only, so a
    /// caller can observe that a step joined nothing but the delta).
    pub fn last_stats(&self) -> EvalStats {
        self.stepper.last_stats()
    }

    /// The session's [`MonitorPolicy`].
    pub fn monitor_policy(&self) -> MonitorPolicy {
        self.policy
    }

    /// True if the session was opened with a [`SessionDemand`]
    /// ([`Runtime::open_session_with_demand`]): its step outputs are
    /// restricted to the demanded footprint.
    pub fn is_demanded(&self) -> bool {
        self.stepper.demand().is_some()
    }

    /// The [`DemandPolicy`] the session's demand plan was compiled under —
    /// `None` for sessions opened without a demand.
    pub fn demand_policy(&self) -> Option<DemandPolicy> {
        self.stepper.demand().map(|plan| plan.policy())
    }

    /// Changes the session's [`MonitorPolicy`] (the session was opened with
    /// the runtime default).
    pub fn set_monitor_policy(&mut self, policy: MonitorPolicy) {
        self.policy = policy;
    }

    /// Attaches an online monitor.  Under [`MonitorPolicy::Observe`] or
    /// [`MonitorPolicy::Enforce`] the observer is consulted at every step —
    /// `admit` before the step gates the input, `observe` after the step
    /// checks the produced output (see [`SessionObserver`]).  Replaces any
    /// previously attached observer.
    pub fn attach_observer(&mut self, observer: Box<dyn SessionObserver>) {
        self.observer = Some(observer);
    }

    /// Detaches and returns the attached monitor, if any.
    pub fn detach_observer(&mut self) -> Option<Box<dyn SessionObserver>> {
        self.observer.take()
    }

    /// Replaces the session's per-step [`EvalBudget`] (the session was
    /// opened with the runtime default).
    pub fn set_step_budget(&mut self, budget: EvalBudget) {
        self.stepper.set_budget(budget);
    }

    /// The violations recorded by the attached monitor so far, in detection
    /// order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// True once the session panicked mid-step and was quarantined: the name
    /// is released for reuse, the run so far stays inspectable
    /// ([`Session::run`], [`Session::state`]), and every further
    /// [`Session::step`] fails with
    /// [`CoreError::SessionQuarantined`].
    pub fn is_quarantined(&self) -> bool {
        self.quarantined
    }

    /// Quarantines the session after a panic: the registry name is released
    /// (siblings and `open_session` are unaffected), the session is recorded
    /// in [`Runtime::health`], and the state is preserved for inspection.
    fn quarantine(&mut self, detail: String) -> CoreError {
        self.quarantined = true;
        lock_clean(&self.runtime.sessions).remove(&self.name);
        lock_clean(&self.runtime.health.quarantined).insert(self.name.clone());
        CoreError::SessionQuarantined {
            session: self.name.clone(),
            detail,
        }
    }

    /// Records monitor violations on the session and in the runtime health
    /// counters.
    fn record_violations(&mut self, violations: &[Violation]) {
        if violations.is_empty() {
            return;
        }
        self.runtime
            .health
            .violations
            .fetch_add(violations.len() as u64, Ordering::Relaxed);
        self.violations.extend_from_slice(violations);
    }

    /// Feeds one input instance: evaluates the output program incrementally,
    /// cumulates the state, and returns the step's output.
    ///
    /// When the session's [`MonitorPolicy`] is active and an observer is
    /// attached, the input is first offered to the admission gate — under
    /// [`MonitorPolicy::Enforce`] a violating input is rejected with
    /// [`CoreError::StepRejected`] and the
    /// run does not advance — and the produced output is checked after the
    /// step.  A panic anywhere on the step path quarantines this session
    /// (see [`Session::is_quarantined`]) without affecting siblings.
    pub fn step(&mut self, input: &Instance) -> Result<Instance, CoreError> {
        if self.quarantined {
            return Err(CoreError::SessionQuarantined {
                session: self.name.clone(),
                detail: "step on a quarantined session".into(),
            });
        }
        let expected = self.transducer.schema().input();
        if !input
            .iter()
            .map(|(name, relation)| (name, relation.arity()))
            .eq(expected.iter())
        {
            return Err(CoreError::SchemaMismatch {
                detail: format!(
                    "step input schema {} does not match the transducer input schema {expected}",
                    input.schema(),
                ),
            });
        }
        let step = self.inputs.len();
        let monitored = self.policy.is_active() && self.observer.is_some();

        if monitored {
            let observer = self.observer.as_mut().expect("observer checked above");
            let admitted = catch_unwind(AssertUnwindSafe(|| observer.admit(step, input)));
            let violations = match admitted {
                Ok(result) => result?,
                Err(payload) => {
                    let detail = format!("monitor admission panicked: {}", panic_detail(&*payload));
                    return Err(self.quarantine(detail));
                }
            };
            self.record_violations(&violations);
            if self.policy == MonitorPolicy::Enforce {
                if let Some(first) = violations.first() {
                    self.runtime
                        .health
                        .rejections
                        .fetch_add(1, Ordering::Relaxed);
                    return Err(CoreError::StepRejected {
                        step,
                        constraint: first.source.clone(),
                        detail: first.to_string(),
                    });
                }
            }
        }

        let stepper = &mut self.stepper;
        let transducer = &self.transducer;
        let db = &self.runtime.db;
        let stepped = catch_unwind(AssertUnwindSafe(|| {
            stepper.step(transducer, db.as_ref(), input)
        }));
        let output = match stepped {
            Ok(result) => result?,
            Err(payload) => {
                let detail = format!("step evaluation panicked: {}", panic_detail(&*payload));
                return Err(self.quarantine(detail));
            }
        };
        self.inputs.push(input);
        self.outputs.push(&output);

        if monitored {
            let observer = self.observer.as_mut().expect("observer checked above");
            let observed =
                catch_unwind(AssertUnwindSafe(|| observer.observe(step, input, &output)));
            let violations = match observed {
                Ok(result) => result?,
                Err(payload) => {
                    let detail =
                        format!("monitor observation panicked: {}", panic_detail(&*payload));
                    return Err(self.quarantine(detail));
                }
            };
            self.record_violations(&violations);
        }
        Ok(output)
    }

    /// The run so far, as the paper's run object (inputs, states, outputs and
    /// the induced log).  The recorded database is the current snapshot of
    /// the shared catalog, restricted to the transducer's `db` relations.
    ///
    /// A session keeps no state history: a Spocus state *is* the cumulated
    /// input (§2, `past-R := past-R ∪ R`), so the states are rebuilt here
    /// from the recorded inputs, equal to the ones the steps evaluated
    /// against.
    pub fn run(&self) -> Result<Run, CoreError> {
        let schema = self.transducer.schema();
        let db_names: BTreeSet<RelationName> = schema.db().names().cloned().collect();
        let db = self.runtime.db.snapshot().restrict_to_set(&db_names);
        let inputs = self.inputs.sequence(schema.input())?;
        let mut states = InstanceSequence::empty(schema.state().clone());
        let mut state = Instance::empty(schema.state());
        for input in inputs.iter() {
            state = crate::RelationalTransducer::state_step(&*self.transducer, input, &state, &db)?;
            states.push(state.clone())?;
        }
        let outputs = self.outputs.sequence(schema.output())?;
        Run::new(schema.clone(), db, inputs, states, outputs)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // A quarantined session already released its name (and may have been
        // replaced under it).
        if !self.quarantined {
            lock_clean(&self.runtime.sessions).remove(&self.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::SessionGoal;
    use crate::models;
    use crate::RelationalTransducer;
    use rtx_relational::{Schema, Tuple, Value};

    fn input_step(orders: &[&str], pays: &[(&str, i64)]) -> Instance {
        let schema = models::short_input_schema();
        let mut inst = Instance::empty(&schema);
        for o in orders {
            inst.insert("order", Tuple::from_iter([*o])).unwrap();
        }
        for (p, amt) in pays {
            inst.insert("pay", Tuple::new(vec![Value::str(*p), Value::int(*amt)]))
                .unwrap();
        }
        inst
    }

    #[test]
    fn session_reproduces_the_one_shot_run() {
        let transducer = models::short();
        let db = models::figure1_database();
        let inputs = models::figure1_inputs();
        let one_shot = transducer.run(&db, &inputs).unwrap();

        let runtime = Runtime::new(ResidentDb::new(db));
        let mut session = runtime.open_session("customer-1", transducer).unwrap();
        for input in inputs.iter() {
            session.step(input).unwrap();
        }
        assert_eq!(session.len(), inputs.len());
        assert_eq!(session.run().unwrap(), one_shot);
    }

    #[test]
    fn sessions_are_registered_and_released() {
        let runtime = Runtime::new(ResidentDb::new(models::figure1_database()));
        let transducer = Arc::new(models::short());
        let s1 = runtime.open_session("a", Arc::clone(&transducer)).unwrap();
        assert!(matches!(
            runtime.open_session("a", Arc::clone(&transducer)),
            Err(CoreError::Runtime { .. })
        ));
        assert_eq!(runtime.session_names(), vec!["a".to_string()]);
        drop(s1);
        assert_eq!(runtime.session_count(), 0);
        let _s2 = runtime.open_session("a", transducer).unwrap();
    }

    #[test]
    fn open_session_requires_the_db_relations() {
        let runtime = Runtime::new(ResidentDb::new(Instance::empty(&Schema::empty())));
        assert!(matches!(
            runtime.open_session("a", models::short()),
            Err(CoreError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn step_rejects_mismatched_input_schemas() {
        let runtime = Runtime::new(ResidentDb::new(models::figure1_database()));
        let mut session = runtime.open_session("a", models::short()).unwrap();
        let wrong = Instance::empty(&Schema::from_pairs([("other", 1)]).unwrap());
        assert!(matches!(
            session.step(&wrong),
            Err(CoreError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn catalog_mutations_are_visible_at_the_next_step() {
        let transducer = models::short();
        let db = models::figure1_database();
        let runtime = Runtime::new(ResidentDb::new(db));
        let mut session = runtime.open_session("customer", transducer).unwrap();

        // The new product is not priced yet: ordering it bills nothing.
        let out = session.step(&input_step(&["economist"], &[])).unwrap();
        assert!(out.relation("sendbill").unwrap().is_empty());

        // Price it mid-session; the next step sees it and bills.
        runtime
            .database()
            .insert(
                "price",
                Tuple::new(vec![Value::str("economist"), Value::int(700)]),
            )
            .unwrap();
        let out = session.step(&input_step(&["economist"], &[])).unwrap();
        assert!(out.holds(
            "sendbill",
            &Tuple::new(vec![Value::str("economist"), Value::int(700)])
        ));
    }

    #[test]
    fn catalog_retractions_are_visible_at_the_next_step() {
        let transducer = models::short();
        let runtime = Runtime::new(ResidentDb::new(models::figure1_database()));
        let mut session = runtime.open_session("customer", transducer).unwrap();

        // Time is priced at 855 in figure 1: ordering it bills.
        let out = session.step(&input_step(&["time"], &[])).unwrap();
        assert!(out.holds(
            "sendbill",
            &Tuple::new(vec![Value::str("time"), Value::int(855)])
        ));

        // Delist it mid-session; the very next step must stop billing.
        let removed = runtime
            .database()
            .retract(
                "price",
                &Tuple::new(vec![Value::str("time"), Value::int(855)]),
            )
            .unwrap();
        assert!(removed);
        let out = session.step(&input_step(&["time"], &[])).unwrap();
        assert!(out.relation("sendbill").unwrap().is_empty());

        // Re-list at a new price: visible again at the very next step.
        runtime
            .database()
            .insert("price", Tuple::new(vec![Value::str("time"), Value::int(9)]))
            .unwrap();
        let out = session.step(&input_step(&["time"], &[])).unwrap();
        assert!(out.holds(
            "sendbill",
            &Tuple::new(vec![Value::str("time"), Value::int(9)])
        ));
    }

    /// An observer that panics on `admit` from step `fuse` onwards.
    #[derive(Debug)]
    struct Bomb {
        fuse: usize,
    }

    impl SessionObserver for Bomb {
        fn admit(&mut self, step: usize, _input: &Instance) -> Result<Vec<Violation>, CoreError> {
            assert!(step < self.fuse, "the bomb went off");
            Ok(Vec::new())
        }

        fn observe(
            &mut self,
            _step: usize,
            _input: &Instance,
            _output: &Instance,
        ) -> Result<Vec<Violation>, CoreError> {
            Ok(Vec::new())
        }
    }

    #[test]
    fn a_poisoned_registry_lock_does_not_wedge_open_session() {
        let runtime = Runtime::new(ResidentDb::new(models::figure1_database()));
        let inner = Arc::clone(&runtime.inner);
        std::thread::spawn(move || {
            let _guard = inner.sessions.lock().unwrap();
            panic!("poison the session registry");
        })
        .join()
        .unwrap_err();

        // The registry mutex is now poisoned; every registry path must
        // recover rather than propagate the poison.
        let session = runtime.open_session("a", models::short()).unwrap();
        assert_eq!(runtime.session_count(), 1);
        assert_eq!(runtime.health().active_sessions, 1);
        drop(session);
        assert_eq!(runtime.session_count(), 0);
    }

    #[test]
    fn a_panicking_observer_quarantines_the_session_but_not_its_siblings() {
        let runtime = Runtime::new(ResidentDb::new(models::figure1_database()));
        let transducer = Arc::new(models::short());
        let mut bad = runtime
            .open_session("bad", Arc::clone(&transducer))
            .unwrap();
        bad.set_monitor_policy(MonitorPolicy::Observe);
        bad.attach_observer(Box::new(Bomb { fuse: 1 }));
        let mut good = runtime
            .open_session("good", Arc::clone(&transducer))
            .unwrap();

        let step = input_step(&["time"], &[]);
        bad.step(&step).unwrap();
        let err = bad.step(&step).unwrap_err();
        assert!(matches!(err, CoreError::SessionQuarantined { .. }));
        assert!(bad.is_quarantined());
        // The completed step survives quarantine; the panicking one did not
        // advance the session.
        assert_eq!(bad.len(), 1);
        // Further steps are refused with the same typed error.
        assert!(matches!(
            bad.step(&step),
            Err(CoreError::SessionQuarantined { .. })
        ));

        // The name is released and reported; siblings keep stepping.
        assert_eq!(runtime.session_names(), vec!["good".to_string()]);
        assert_eq!(
            runtime.health().quarantined_sessions,
            vec!["bad".to_string()]
        );
        good.step(&step).unwrap();
        let _reopened = runtime.open_session("bad", transducer).unwrap();
    }

    /// A demand following the session's own inputs: bills for what this
    /// step orders, deliveries for what this step pays.
    fn short_demand() -> SessionDemand {
        SessionDemand::new()
            .goal(
                SessionGoal::new("sendbill", "bf")
                    .unwrap()
                    .from_input("order", [0]),
            )
            .goal(
                SessionGoal::new("deliver", "b")
                    .unwrap()
                    .from_input("pay", [0]),
            )
    }

    #[test]
    fn demanded_session_matches_full_session_on_both_policies() {
        let transducer = Arc::new(models::short());
        let db = models::figure1_database();
        let inputs = models::figure1_inputs();
        let runtime = Runtime::new(ResidentDb::new(db));

        let mut full = runtime
            .open_session("full", Arc::clone(&transducer))
            .unwrap();
        assert!(!full.is_demanded());
        assert_eq!(full.demand_policy(), None);

        runtime.set_demand_policy(DemandPolicy::Demand);
        let mut rewritten = runtime
            .open_session_with_demand("rewritten", Arc::clone(&transducer), short_demand())
            .unwrap();
        assert!(rewritten.is_demanded());
        assert_eq!(rewritten.demand_policy(), Some(DemandPolicy::Demand));

        runtime.set_demand_policy(DemandPolicy::Full);
        let mut filtered = runtime
            .open_session_with_demand("filtered", Arc::clone(&transducer), short_demand())
            .unwrap();
        assert_eq!(filtered.demand_policy(), Some(DemandPolicy::Full));

        // This demand covers everything the program can derive (bills are
        // driven by `order`, deliveries by `pay`), so all three sessions
        // must agree bit-for-bit at every step — and the two demanded modes
        // must agree with each other by construction.
        for input in inputs.iter() {
            let expected = full.step(input).unwrap();
            assert_eq!(rewritten.step(input).unwrap(), expected);
            assert_eq!(filtered.step(input).unwrap(), expected);
        }
        assert!(rewritten.last_stats().tuples_derived <= full.last_stats().tuples_derived);
    }

    #[test]
    fn demanded_session_restricts_to_its_constants() {
        let transducer = Arc::new(models::short());
        let runtime = Runtime::new(ResidentDb::new(models::figure1_database()));
        runtime.set_demand_policy(DemandPolicy::Demand);
        let demand = SessionDemand::new().goal(
            SessionGoal::new("sendbill", "bf")
                .unwrap()
                .with_constants([Tuple::from_iter(["time"])]),
        );
        let mut session = runtime
            .open_session_with_demand("time-only", Arc::clone(&transducer), demand)
            .unwrap();

        let out = session
            .step(&input_step(&["time", "newsweek"], &[]))
            .unwrap();
        assert!(out.holds(
            "sendbill",
            &Tuple::new(vec![Value::str("time"), Value::int(855)])
        ));
        // The newsweek bill is derivable but not demanded.
        assert_eq!(out.relation("sendbill").unwrap().len(), 1);
        // Deliveries are not demanded at all.
        assert!(out.relation("deliver").unwrap().is_empty());
    }

    #[test]
    fn constant_specialized_goal_matches_the_seeded_one() {
        let transducer = Arc::new(models::short());
        let runtime = Runtime::new(ResidentDb::new(models::figure1_database()));
        runtime.set_demand_policy(DemandPolicy::Demand);
        let specialized = SessionDemand::new().goal(
            SessionGoal::new("deliver", "b")
                .unwrap()
                .with_constants([Tuple::from_iter(["time"])])
                .specialized(),
        );
        let seeded = SessionDemand::new().goal(
            SessionGoal::new("deliver", "b")
                .unwrap()
                .with_constants([Tuple::from_iter(["time"])]),
        );
        let mut a = runtime
            .open_session_with_demand("specialized", Arc::clone(&transducer), specialized)
            .unwrap();
        let mut b = runtime
            .open_session_with_demand("seeded", Arc::clone(&transducer), seeded)
            .unwrap();
        for input in [
            input_step(&["time", "newsweek"], &[]),
            input_step(&[], &[("time", 855), ("newsweek", 845)]),
        ] {
            let out = a.step(&input).unwrap();
            assert_eq!(out, b.step(&input).unwrap());
        }
        // Only time's delivery is demanded, though newsweek's is derivable.
        assert!(a.state().holds(
            "past-pay",
            &Tuple::new(vec![Value::str("newsweek"), Value::int(845)])
        ));
    }

    #[test]
    fn catalog_mutations_reach_demanded_sessions_at_the_next_step() {
        let transducer = Arc::new(models::short());
        let runtime = Runtime::new(ResidentDb::new(models::figure1_database()));
        runtime.set_demand_policy(DemandPolicy::Demand);
        let mut session = runtime
            .open_session_with_demand("customer", transducer, short_demand())
            .unwrap();

        let out = session.step(&input_step(&["economist"], &[])).unwrap();
        assert!(out.relation("sendbill").unwrap().is_empty());
        runtime
            .database()
            .insert(
                "price",
                Tuple::new(vec![Value::str("economist"), Value::int(700)]),
            )
            .unwrap();
        let out = session.step(&input_step(&["economist"], &[])).unwrap();
        assert!(out.holds(
            "sendbill",
            &Tuple::new(vec![Value::str("economist"), Value::int(700)])
        ));
    }

    fn plan_of(session: &Session) -> &Arc<DemandPlan> {
        session.stepper.demand.as_ref().expect("a demanded session")
    }

    #[test]
    fn demand_plans_are_shared_and_pruned_with_their_transducer() {
        let runtime = Runtime::new(ResidentDb::new(models::figure1_database()));
        let transducer = Arc::new(models::short());
        let open = |name: &str, transducer: &Arc<SpocusTransducer>| {
            runtime
                .open_session_with_demand(name, Arc::clone(transducer), short_demand())
                .unwrap()
        };
        let a = open("a", &transducer);
        let b = open("b", &transducer);
        assert!(Arc::ptr_eq(plan_of(&a), plan_of(&b)));
        // Another policy, or another transducer, gets a plan of its own.
        runtime.set_demand_policy(DemandPolicy::Full);
        let c = open("c", &transducer);
        assert!(!Arc::ptr_eq(plan_of(&a), plan_of(&c)));
        let other = Arc::new(models::short());
        let d = open("d", &other);
        assert!(!Arc::ptr_eq(plan_of(&c), plan_of(&d)));
        assert_eq!(lock_clean(&runtime.inner.plans).len(), 3);

        // Once a transducer is gone, the next open drops its plans.
        drop((a, b, c, transducer));
        let _e = open("e", &other);
        assert_eq!(lock_clean(&runtime.inner.plans).len(), 1);
    }

    #[test]
    fn unused_demand_plans_are_evicted_beyond_the_memo_cap() {
        let runtime = Runtime::new(ResidentDb::new(models::figure1_database()));
        let transducer = Arc::new(models::short());
        let kept = runtime
            .open_session_with_demand("kept", Arc::clone(&transducer), short_demand())
            .unwrap();
        // Per-session constants make every demand distinct.
        for n in 0..2 * PLAN_MEMO_SOFT_CAP {
            let demand = SessionDemand::new().goal(
                SessionGoal::new("sendbill", "bf")
                    .unwrap()
                    .with_constants([Tuple::from_iter([format!("product-{n}")])]),
            );
            let session = runtime
                .open_session_with_demand("probe", Arc::clone(&transducer), demand)
                .unwrap();
            drop(session);
            assert!(lock_clean(&runtime.inner.plans).len() <= PLAN_MEMO_SOFT_CAP);
        }
        // A plan a session still uses survives eviction.
        let again = runtime
            .open_session_with_demand("again", transducer, short_demand())
            .unwrap();
        assert!(Arc::ptr_eq(plan_of(&kept), plan_of(&again)));
    }

    #[test]
    fn invalid_session_demands_are_rejected_and_release_the_name() {
        let transducer = Arc::new(models::short());
        let runtime = Runtime::new(ResidentDb::new(models::figure1_database()));
        let invalid = [
            SessionDemand::new(),
            SessionDemand::new().goal(SessionGoal::new("nonexistent", "b").unwrap()),
            SessionDemand::new().goal(SessionGoal::new("sendbill", "b").unwrap()),
            SessionDemand::new().goal(
                SessionGoal::new("sendbill", "bf")
                    .unwrap()
                    .from_input("no-such-input", [0]),
            ),
            SessionDemand::new().goal(
                SessionGoal::new("sendbill", "bf")
                    .unwrap()
                    .from_input("order", [7]),
            ),
            SessionDemand::new().goal(SessionGoal::new("sendbill", "bf").unwrap().specialized()),
        ];
        for demand in invalid {
            let err = runtime
                .open_session_with_demand("a", Arc::clone(&transducer), demand)
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    CoreError::Datalog(rtx_datalog::DatalogError::DemandUnsupported { .. })
                ),
                "expected DemandUnsupported, got {err:?}"
            );
        }
        // Every rejection released the name.
        assert_eq!(runtime.session_count(), 0);
        let _ok = runtime
            .open_session_with_demand("a", transducer, short_demand())
            .unwrap();
    }

    #[test]
    fn malformed_env_overrides_reject_session_opens_until_explicitly_overridden() {
        // The bug this pins: `RTX_DEMAND=ful` used to silently resolve to
        // Demand (the opposite of the kill-switch intent) and
        // `RTX_MONITOR=enforec` to Off.  Now the runtime records the
        // malformed override and refuses to open sessions, naming the
        // variable.
        let db = Arc::new(ResidentDb::new(models::figure1_database()));
        let runtime = Runtime::with_settings(
            Arc::clone(&db),
            1,
            Parallelism::default(),
            Some("enforec"),
            Some("ful"),
        );
        let err = runtime.open_session("a", models::short()).unwrap_err();
        match &err {
            CoreError::Runtime { detail } => {
                assert!(detail.contains("RTX_MONITOR"), "{detail}");
                assert!(detail.contains("enforec"), "{detail}");
            }
            other => panic!("expected a Runtime refusal, got {other:?}"),
        }
        // The refusal does not leak a registry entry.
        assert_eq!(runtime.session_count(), 0);

        // Explicit setters are deliberate operator intent: each clears its
        // own variable's report, and only once both are addressed do
        // sessions open.
        runtime.set_monitor_policy(MonitorPolicy::Observe);
        let err = runtime.open_session("a", models::short()).unwrap_err();
        match &err {
            CoreError::Runtime { detail } => {
                assert!(detail.contains("RTX_DEMAND"), "{detail}");
                assert!(detail.contains("ful"), "{detail}");
            }
            other => panic!("expected a Runtime refusal, got {other:?}"),
        }
        runtime.set_demand_policy(DemandPolicy::Full);
        let _ok = runtime.open_session("a", models::short()).unwrap();

        // Well-formed overrides configure the runtime without any refusal.
        let runtime = Runtime::with_settings(
            db,
            1,
            Parallelism::default(),
            Some(" Enforce "),
            Some("full"),
        );
        assert_eq!(runtime.monitor_policy(), MonitorPolicy::Enforce);
        assert_eq!(runtime.demand_policy(), DemandPolicy::Full);
        let _ok = runtime.open_session("a", models::short()).unwrap();
    }

    #[test]
    fn step_budgets_trip_with_a_typed_error_and_are_adjustable() {
        let runtime = Runtime::new(ResidentDb::new(models::figure1_database()));
        // Budgets set on the runtime seed every subsequently opened session.
        runtime.set_step_budget(EvalBudget::max_derivations(0));
        let mut session = runtime.open_session("capped", models::short()).unwrap();

        let step = input_step(&["time"], &[]);
        match session.step(&step) {
            Err(CoreError::Datalog(rtx_datalog::DatalogError::BudgetExceeded {
                resource, ..
            })) => assert_eq!(resource, "derivations"),
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        // A budget trip is a typed refusal, not a crash: the session is
        // neither advanced nor quarantined, and raising the budget unblocks.
        assert_eq!(session.len(), 0);
        assert!(!session.is_quarantined());
        session.set_step_budget(EvalBudget::UNLIMITED);
        let out = session.step(&step).unwrap();
        assert!(!out.relation("sendbill").unwrap().is_empty());
    }
}
