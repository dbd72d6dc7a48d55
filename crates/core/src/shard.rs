//! Sharding: where a session is placed, and nothing else.
//!
//! A shard is a **placement label** on a [`Session`] plus the **divisor** of
//! its runtime's worker budget; it has no state of its own.  A
//! [`ShardedRuntime`] is a [`Runtime`] built with a shard count.  It derefs
//! to that runtime, so routing, opening, health and the policy setters are
//! the runtime's own, and a [`ShardedSession`] is a plain [`Session`].
//!
//! What a runtime shares across all of its shards:
//!
//! * the resident database — a catalog mutation
//!   ([`ResidentDb::insert`]/[`ResidentDb::retract`], or a durable one
//!   through [`DurableRuntime`](crate::DurableRuntime)) is seen by every
//!   session at its next step, whatever its shard;
//! * **one** session registry mapping each open name to its shard, so a name
//!   is unique across the whole fleet and, once its session is dropped or
//!   quarantined, reusable on any shard;
//! * one configuration (step budget, monitor and demand policies) and one
//!   health record.
//!
//! What the shard count changes: [`Runtime::shard_of`] routes a name to its
//! home shard by FNV-1a hash ([`Runtime::open_session_on`] places
//! explicitly), and every session evaluates under its shard's share of the
//! total budget
//! ([`Parallelism::divided_among`](rtx_datalog::Parallelism::divided_among)),
//! so one stepping thread per shard — the `rtx-front` worker model — does
//! not oversubscribe the machine.  Placement never shows in any output: a
//! fleet on `N` shards is bit-identical, session by session, to the same
//! fleet on one.

use crate::{Runtime, Session};
use rtx_datalog::{Parallelism, ResidentDb};
use std::ops::Deref;
use std::sync::Arc;

/// A [`Runtime`] with more than one shard.  Cheaply clonable; clones share
/// the runtime.  See the [module docs](self).
#[derive(Debug, Clone)]
pub struct ShardedRuntime(Runtime);

/// A session of a [`ShardedRuntime`] — a plain [`Session`], whose
/// [`Session::shard`] is its placement.
pub type ShardedSession = Session;

impl ShardedRuntime {
    /// Creates a sharded runtime owning a resident database.
    pub fn new(db: ResidentDb, shards: usize) -> Self {
        ShardedRuntime::shared(Arc::new(db), shards)
    }

    /// Creates a sharded runtime over an already-shared resident database
    /// with the default [`Parallelism`] budget.
    pub fn shared(db: Arc<ResidentDb>, shards: usize) -> Self {
        ShardedRuntime::shared_with(db, shards, Parallelism::default())
    }

    /// Creates a runtime with `shards` shards (clamped to at least one) over
    /// one shared database.  `parallelism` is the **total** worker budget:
    /// sessions evaluate under
    /// [`parallelism.divided_among(shards)`](Parallelism::divided_among), so
    /// the fleet as a whole never oversubscribes the configured budget.
    pub fn shared_with(db: Arc<ResidentDb>, shards: usize, parallelism: Parallelism) -> Self {
        ShardedRuntime(Runtime::with_shards(db, shards, parallelism))
    }
}

impl Deref for ShardedRuntime {
    type Target = Runtime;

    fn deref(&self) -> &Runtime {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::{SessionDemand, SessionGoal};
    use crate::models;
    use crate::supervise::{MonitorPolicy, SessionObserver, Violation, ViolationKind};
    use crate::CoreError;
    use rtx_datalog::{DemandPolicy, EvalBudget};
    use rtx_relational::{Instance, Tuple, Value};
    use std::collections::BTreeSet;
    use std::sync::Barrier;

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

    fn sharded(shards: usize) -> ShardedRuntime {
        ShardedRuntime::new(ResidentDb::new(models::figure1_database()), shards)
    }

    #[test]
    fn routing_is_deterministic_and_covers_every_shard() {
        let fleet = sharded(4);
        assert_eq!(fleet.shard_count(), 4);
        let mut seen = BTreeSet::new();
        for i in 0..64 {
            let name = format!("customer-{i}");
            let shard = fleet.shard_of(&name);
            assert!(shard < 4);
            assert_eq!(shard, fleet.shard_of(&name), "routing must be stable");
            seen.insert(shard);
        }
        assert_eq!(seen.len(), 4, "64 names must hit all 4 shards");
        // The hash is platform-independent: pin one value so a silent change
        // of the routing function (which would strand remote routing tables)
        // shows up here.
        assert_eq!(sharded(1).shard_of("anything"), 0);
    }

    #[test]
    fn sharded_sessions_reproduce_the_unsharded_run() {
        let transducer = Arc::new(models::short());
        let db = models::figure1_database();
        let inputs = models::figure1_inputs();

        let unsharded = Runtime::new(ResidentDb::new(db.clone()));
        let mut reference = unsharded
            .open_session("customer", Arc::clone(&transducer))
            .unwrap();

        let fleet = sharded(3);
        let mut session = fleet.open_session("customer", transducer).unwrap();
        for input in inputs.iter() {
            assert_eq!(session.step(input).unwrap(), reference.step(input).unwrap());
        }
        assert_eq!(session.run().unwrap(), reference.run().unwrap());
    }

    #[test]
    fn names_are_unique_fleet_wide_and_released_across_shards() {
        let fleet = sharded(4);
        let transducer = Arc::new(models::short());

        // Open on an explicit shard that is NOT the name's home shard, then
        // try the routed open: the registry must still refuse.
        let home = fleet.shard_of("alice");
        let elsewhere = (home + 1) % 4;
        let held = fleet
            .open_session_on(elsewhere, "alice", Arc::clone(&transducer))
            .unwrap();
        assert_eq!(held.shard(), elsewhere);
        let err = fleet
            .open_session("alice", Arc::clone(&transducer))
            .unwrap_err();
        assert!(
            err.to_string().contains("already open"),
            "cross-shard duplicate must be refused: {err}"
        );
        assert_eq!(fleet.session_count(), 1);

        // Dropping the session on shard A must make the name reusable on
        // shard B (and anywhere else), not just on A.
        drop(held);
        assert_eq!(fleet.session_count(), 0);
        let reopened = fleet
            .open_session_on(home, "alice", Arc::clone(&transducer))
            .unwrap();
        assert_eq!(reopened.shard(), home);

        // Out-of-range explicit placement is a typed refusal, not a panic,
        // and leaks no registry entry.
        let err = fleet.open_session_on(9, "bob", transducer).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        assert_eq!(fleet.session_names(), vec!["alice".to_string()]);
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
    fn quarantine_releases_the_global_name_for_reuse_on_another_shard() {
        let fleet = sharded(3);
        let transducer = Arc::new(models::short());
        let mut bad = fleet
            .open_session_on(0, "customer", Arc::clone(&transducer))
            .unwrap();
        bad.set_monitor_policy(MonitorPolicy::Observe);
        bad.attach_observer(Box::new(Bomb { fuse: 1 }));

        let step = input_step(&["time"], &[]);
        bad.step(&step).unwrap();
        let err = bad.step(&step).unwrap_err();
        assert!(matches!(err, CoreError::SessionQuarantined { .. }));
        assert!(bad.is_quarantined());

        // The quarantined session released its name immediately — a
        // replacement can open on a *different* shard while the quarantined
        // session is still alive for inspection.
        assert_eq!(fleet.session_count(), 0);
        let mut replacement = fleet
            .open_session_on(2, "customer", Arc::clone(&transducer))
            .unwrap();
        assert_eq!(replacement.shard(), 2);
        assert_eq!(bad.shard(), 0);
        assert_eq!(bad.len(), 1, "the completed step survives quarantine");
        assert_eq!(
            fleet.health().quarantined_sessions,
            vec!["customer".to_string()]
        );

        // Dropping the quarantined session must NOT evict the replacement.
        drop(bad);
        assert_eq!(fleet.session_count(), 1);
        replacement.step(&step).unwrap();
    }

    #[test]
    fn per_shard_worker_budgets_divide_the_total() {
        // The oversubscription bug this pins: N shards each resolving the
        // full process-wide worker count would oversubscribe the machine
        // N-fold.  Each shard must get its share of the *total* budget.
        let db = Arc::new(ResidentDb::new(models::figure1_database()));
        let fleet = ShardedRuntime::shared_with(Arc::clone(&db), 4, Parallelism::threads(8));
        assert_eq!(fleet.parallelism().worker_count(), 2);
        assert_eq!(fleet.parallelism().worker_count() * fleet.shard_count(), 8);

        // More shards than workers: every shard keeps at least one worker.
        let fleet = ShardedRuntime::shared_with(Arc::clone(&db), 8, Parallelism::threads(3));
        assert_eq!(fleet.parallelism().worker_count(), 1);

        // A zero shard count clamps to one unsharded runtime.
        let fleet = ShardedRuntime::shared_with(db, 0, Parallelism::threads(3));
        assert_eq!(fleet.shard_count(), 1);
        assert_eq!(fleet.parallelism().worker_count(), 3);
    }

    #[test]
    fn catalog_mutations_reach_sessions_on_every_shard() {
        let transducer = Arc::new(models::short());
        let fleet = sharded(3);
        let mut sessions: Vec<ShardedSession> = (0..3)
            .map(|i| {
                fleet
                    .open_session_on(i, format!("s{i}"), Arc::clone(&transducer))
                    .unwrap()
            })
            .collect();

        // `economist` is unpriced: no shard bills for it.
        for session in &mut sessions {
            let out = session.step(&input_step(&["economist"], &[])).unwrap();
            assert!(out.relation("sendbill").unwrap().is_empty());
        }
        // One write to the shared catalog is visible to every shard at the
        // very next step.
        fleet
            .database()
            .insert(
                "price",
                Tuple::new(vec![Value::str("economist"), Value::int(700)]),
            )
            .unwrap();
        for session in &mut sessions {
            let out = session.step(&input_step(&["economist"], &[])).unwrap();
            assert!(out.holds(
                "sendbill",
                &Tuple::new(vec![Value::str("economist"), Value::int(700)])
            ));
        }
        assert_eq!(fleet.health().active_sessions, 3);
    }

    #[test]
    fn fan_out_setters_configure_every_shard() {
        let fleet = sharded(2);
        fleet.set_monitor_policy(MonitorPolicy::Enforce);
        fleet.set_demand_policy(DemandPolicy::Full);
        fleet.set_step_budget(EvalBudget::max_derivations(7));
        assert_eq!(fleet.step_budget(), EvalBudget::max_derivations(7));
        // One configuration serves every shard: sessions opened on each
        // pick up the same defaults.
        let demand = SessionDemand::new().goal(
            SessionGoal::new("deliver", "b")
                .unwrap()
                .from_input("pay", [0]),
        );
        for shard in 0..fleet.shard_count() {
            let session = fleet
                .open_session_with_demand_on(
                    shard,
                    format!("s{shard}"),
                    models::short(),
                    demand.clone(),
                )
                .unwrap();
            assert_eq!(session.shard(), shard);
            assert_eq!(session.monitor_policy(), MonitorPolicy::Enforce);
            assert_eq!(session.demand_policy(), Some(DemandPolicy::Full));
        }
    }

    #[test]
    fn sessions_keep_their_placement_when_stepped_from_two_threads() {
        let fleet = sharded(4);
        let transducer = Arc::new(models::short());
        let inputs = models::figure1_inputs();
        let mut sessions: Vec<ShardedSession> = (0..8)
            .map(|i| {
                fleet
                    .open_session_on(i % 4, format!("s{i}"), Arc::clone(&transducer))
                    .unwrap()
            })
            .collect();

        // Each thread owns one session on every shard; the barrier makes
        // the two threads step at the same time.
        let start = Barrier::new(2);
        std::thread::scope(|scope| {
            for half in sessions.chunks_mut(4) {
                let (start, inputs) = (&start, &inputs);
                scope.spawn(move || {
                    start.wait();
                    for input in inputs.iter() {
                        for session in half.iter_mut() {
                            session.step(input).unwrap();
                        }
                    }
                });
            }
        });
        for (i, session) in sessions.iter().enumerate() {
            assert_eq!(session.shard(), i % 4, "session `{}`", session.name());
            assert_eq!(session.len(), inputs.len());
        }
        assert_eq!(fleet.session_count(), 8);
    }

    /// Rejects any input ordering `contraband` and reports one log
    /// violation per admitted step, so a session's health contribution is a
    /// function of its inputs alone.
    #[derive(Debug)]
    struct Tally;

    fn tally_violation(step: usize, kind: ViolationKind) -> Violation {
        Violation {
            step,
            kind,
            source: "tally".into(),
            relation: None,
            tuple: None,
            detail: String::new(),
        }
    }

    impl SessionObserver for Tally {
        fn admit(&mut self, step: usize, input: &Instance) -> Result<Vec<Violation>, CoreError> {
            let contraband = input.holds("order", &Tuple::from_iter(["contraband"]));
            Ok(contraband
                .then(|| tally_violation(step, ViolationKind::Constraint))
                .into_iter()
                .collect())
        }

        fn observe(
            &mut self,
            step: usize,
            _input: &Instance,
            _output: &Instance,
        ) -> Result<Vec<Violation>, CoreError> {
            Ok(vec![tally_violation(step, ViolationKind::Log)])
        }
    }

    #[test]
    fn health_counts_sum_exactly_across_shards_and_threads() {
        let fleet = sharded(3);
        fleet.set_monitor_policy(MonitorPolicy::Enforce);
        let transducer = Arc::new(models::short());
        let mut sessions: Vec<ShardedSession> = (0..6)
            .map(|i| {
                let mut session = fleet
                    .open_session_on(i % 3, format!("s{i}"), Arc::clone(&transducer))
                    .unwrap();
                session.attach_observer(Box::new(Tally));
                session
            })
            .collect();

        // Session `i` sends `i + 1` clean inputs and `i` contraband ones:
        // each clean step records one violation, each contraband one a
        // violation and a rejection.
        let start = Barrier::new(2);
        std::thread::scope(|scope| {
            for (t, half) in sessions.chunks_mut(3).enumerate() {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    for (j, session) in half.iter_mut().enumerate() {
                        let i = 3 * t + j;
                        for _ in 0..=i {
                            session.step(&input_step(&["time"], &[])).unwrap();
                        }
                        for _ in 0..i {
                            let err = session.step(&input_step(&["contraband"], &[]));
                            assert!(matches!(err, Err(CoreError::StepRejected { .. })));
                        }
                    }
                });
            }
        });

        let health = fleet.health();
        let recorded: usize = sessions.iter().map(|s| s.violations().len()).sum();
        let expected_violations: u64 = (0..6).map(|i| 2 * i + 1).sum();
        let expected_rejections: u64 = (0..6).sum();
        assert_eq!(recorded as u64, expected_violations);
        assert_eq!(health.violations, expected_violations);
        assert_eq!(health.rejections, expected_rejections);
        assert_eq!(health.active_sessions, 6);
        assert!(health.quarantined_sessions.is_empty());
    }
}
