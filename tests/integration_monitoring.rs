//! Integration tests for the online verification monitors and runtime
//! guardrails: monitored sessions are bit-identical to unmonitored ones
//! (including under thread-level parallelism and mid-run catalog mutations),
//! the monitor's incremental log check joins only the per-step delta,
//! enforcement rejects illegal inputs with a typed error naming the
//! constraint, and the runtime health snapshot tracks it all.

use proptest::prelude::*;
use rtx::core::Runtime;
use rtx::datalog::{Parallelism, ResidentDb};
use rtx::prelude::*;
use rtx::workloads::scenarios::Scenario;
use std::sync::Arc;

/// Opens a session with a constraint-free [`SessionMonitor`] attached in
/// observe mode.
fn open_monitored(
    runtime: &Runtime,
    db: &Arc<ResidentDb>,
    name: &str,
    transducer: &Arc<SpocusTransducer>,
    parallelism: Parallelism,
) -> rtx::core::Session {
    let mut session = runtime.open_session(name, Arc::clone(transducer)).unwrap();
    session.set_monitor_policy(MonitorPolicy::Observe);
    let monitor = SessionMonitor::new(Arc::clone(transducer), Arc::clone(db))
        .unwrap()
        .with_parallelism(parallelism);
    session.attach_observer(Box::new(monitor));
    session
}

proptest! {
    /// A monitored session produces bit-identical runs to an unmonitored
    /// one, stepped under an 8-thread evaluation policy — the monitor is an
    /// observer, never a participant.
    #[test]
    fn monitored_sessions_are_bit_identical_to_unmonitored(
        sessions in 1usize..4,
        steps in 1usize..5,
        seed in 0u64..500,
    ) {
        let products = 10;
        let db = rtx::workloads::category_catalog(products, 3, seed);
        let fleet = rtx::workloads::session_fleet(&db, sessions, steps, products, 0.8, seed);
        let transducer = Arc::new(rtx::workloads::category_model());
        let policy = Parallelism::threads(8);

        let plain_db = Arc::new(ResidentDb::new(db.clone()));
        let plain_rt = Runtime::shared_with(Arc::clone(&plain_db), policy);
        let mon_db = Arc::new(ResidentDb::new(db));
        let mon_rt = Runtime::shared_with(Arc::clone(&mon_db), policy);

        for (i, inputs) in fleet.iter().enumerate() {
            let mut plain = plain_rt
                .open_session(format!("plain-{i}"), Arc::clone(&transducer))
                .unwrap();
            let mut monitored =
                open_monitored(&mon_rt, &mon_db, &format!("mon-{i}"), &transducer, policy);
            for input in inputs.iter() {
                let a = plain.step(input).unwrap();
                let b = monitored.step(input).unwrap();
                prop_assert_eq!(a, b);
            }
            // An honest session never trips the log monitor.
            prop_assert!(monitored.violations().is_empty());
            prop_assert_eq!(plain.run().unwrap(), monitored.run().unwrap());
        }
    }
}

/// Catalog writes landing mid-run are seen identically by the monitored and
/// the unmonitored session: the monitor's shadow caches reseed on staleness
/// instead of drifting.
#[test]
fn monitoring_is_transparent_under_mid_run_catalog_mutations() {
    let products = 12;
    let db = rtx::workloads::category_catalog(products, 3, 11);
    let delisted_price = rtx::workloads::price_of(&db, "p0").unwrap();
    let inputs = rtx::workloads::customer_session(&db, 6, products, 0.9, 13);
    let transducer = Arc::new(rtx::workloads::category_model());
    let policy = Parallelism::threads(8);

    let plain_db = Arc::new(ResidentDb::new(db.clone()));
    let plain_rt = Runtime::shared_with(Arc::clone(&plain_db), policy);
    let mon_db = Arc::new(ResidentDb::new(db));
    let mon_rt = Runtime::shared_with(Arc::clone(&mon_db), policy);

    let mut plain = plain_rt
        .open_session("plain", Arc::clone(&transducer))
        .unwrap();
    let mut monitored = open_monitored(&mon_rt, &mon_db, "monitored", &transducer, policy);

    for (i, input) in inputs.iter().enumerate() {
        if i == 3 {
            // Same mutation batch against both catalogs: list one product,
            // delist another.
            for handle in [&plain_db, &mon_db] {
                handle
                    .insert(
                        "price",
                        Tuple::new(vec![Value::str("brand-new"), Value::int(42)]),
                    )
                    .unwrap();
                handle
                    .insert("category", Tuple::from_iter(["cat-0", "brand-new"]))
                    .unwrap();
                assert!(handle
                    .retract(
                        "price",
                        &Tuple::new(vec![Value::str("p0"), Value::int(delisted_price)]),
                    )
                    .unwrap());
            }
        }
        let a = plain.step(input).unwrap();
        let b = monitored.step(input).unwrap();
        assert_eq!(a, b, "outputs diverged at step {i}");
    }
    assert!(monitored.violations().is_empty());
    assert_eq!(plain.run().unwrap(), monitored.run().unwrap());
}

/// The derivation-counter pin for the monitor itself: once its shadow caches
/// are seeded, each observed step costs joins against that step's delta only.
/// A from-scratch log validation would re-derive the whole (constant-size
/// here, growing in general) logged output at every step.
#[test]
fn monitor_log_checking_joins_only_the_delta() {
    let transducer = Arc::new(
        SpocusBuilder::new("loyalty")
            .input("touch", 1)
            .database("base", 1)
            .output("seen", 1)
            .output_rule("seen(X) :- past-touch(X), base(X)")
            .log(["seen"])
            .build()
            .unwrap(),
    );
    let mut db = Instance::empty(&Schema::from_pairs([("base", 1)]).unwrap());
    for name in ["a", "b", "c", "d", "e"] {
        db.insert("base", Tuple::from_iter([name])).unwrap();
    }

    let input_schema = transducer.schema().input().clone();
    let step_of = |names: &[&str]| {
        let mut inst = Instance::empty(&input_schema);
        for n in names {
            inst.insert("touch", Tuple::from_iter([*n])).unwrap();
        }
        inst
    };
    // One touching step, then a long quiet tail.
    let mut steps = vec![step_of(&["a", "b", "c"])];
    steps.extend((0..11).map(|_| step_of(&[])));
    let inputs = InstanceSequence::new(input_schema.clone(), steps).unwrap();
    let run = transducer.run(&db, &inputs).unwrap();

    let resident = Arc::new(ResidentDb::new(db));
    let mut monitor = SessionMonitor::new(Arc::clone(&transducer), resident).unwrap();
    let mut work_per_step = Vec::new();
    let mut last = 0;
    for (i, step) in run.steps().enumerate() {
        let violations = monitor.observe(i, step.input, step.output).unwrap();
        assert!(violations.is_empty(), "honest step {i} flagged");
        work_per_step.push(monitor.work() - last);
        last = monitor.work();
    }

    // Step 0 seeds against the empty state; step 1 joins the {a,b,c} delta;
    // every later step has an empty delta and must cost zero derivations,
    // even though the logged `seen` output holds three tuples throughout.
    assert_eq!(work_per_step[0], 0);
    assert_eq!(work_per_step[1], 3);
    assert_eq!(&work_per_step[2..], &[0; 10]);

    // The symbolic cursor tracked the whole run; the offline audit agrees.
    assert_eq!(monitor.steps(), run.len());
    assert!(monitor.audit(run.db()).unwrap().is_valid());
}

/// A logged output derived by a cached rule (no input atom) is extended by
/// the monitor's shadow from its state mirror's delta alone.  Steps that add
/// to an already non-empty `past-touch` must put exactly the new tuples in
/// that delta: honest steps then raise no violation, and a delta that drops
/// them would flag the next step's `seen` as underivable.
#[test]
fn monitor_extends_cached_outputs_by_its_state_delta() {
    let transducer = Arc::new(
        SpocusBuilder::new("loyalty")
            .input("touch", 1)
            .database("base", 1)
            .output("seen", 1)
            .output_rule("seen(X) :- past-touch(X), base(X)")
            .log(["touch", "seen"])
            .build()
            .unwrap(),
    );
    let mut db = Instance::empty(&Schema::from_pairs([("base", 1)]).unwrap());
    for name in ["a", "b", "c", "d", "e"] {
        db.insert("base", Tuple::from_iter([name])).unwrap();
    }

    let input_schema = transducer.schema().input().clone();
    let step_of = |names: &[&str]| {
        let mut inst = Instance::empty(&input_schema);
        for n in names {
            inst.insert("touch", Tuple::from_iter([*n])).unwrap();
        }
        inst
    };
    // `past-touch` grows at every step after the first, once by a tuple it
    // already holds beside a new one.
    let steps = vec![
        step_of(&["a"]),
        step_of(&["b"]),
        step_of(&["a", "c"]),
        step_of(&["d"]),
        step_of(&[]),
    ];
    let inputs = InstanceSequence::new(input_schema, steps).unwrap();
    let run = transducer.run(&db, &inputs).unwrap();
    let seen: Vec<usize> = run
        .steps()
        .map(|step| step.output.relation("seen").unwrap().len())
        .collect();
    assert_eq!(seen, [0, 1, 2, 3, 4]);

    let resident = Arc::new(ResidentDb::new(db));
    let mut monitor = SessionMonitor::new(Arc::clone(&transducer), resident).unwrap();
    for (i, step) in run.steps().enumerate() {
        let violations = monitor.observe(i, step.input, step.output).unwrap();
        assert!(
            violations.is_empty(),
            "honest step {i} flagged: {violations:?}"
        );
    }
    assert!(monitor.audit(run.db()).unwrap().is_valid());
}

/// Under `MonitorPolicy::Enforce`, an input driving the run into an error
/// state is refused with a typed rejection naming the violated constraint,
/// before the session advances.
#[test]
fn enforcement_rejects_illegal_inputs_with_a_typed_error() {
    for scenario in Scenario::all() {
        let db = Arc::new(ResidentDb::new(scenario.database.clone()));
        let runtime = Runtime::shared(Arc::clone(&db));
        let mut session = runtime
            .open_session(scenario.name, Arc::clone(&scenario.transducer))
            .unwrap();
        session.set_monitor_policy(MonitorPolicy::Enforce);
        session.attach_observer(Box::new(scenario.monitor(&db).unwrap()));

        let last = scenario.violating_inputs.len() - 1;
        for (i, input) in scenario.violating_inputs.iter().enumerate() {
            if i < last {
                session.step(input).unwrap();
                continue;
            }
            let err = session.step(input).unwrap_err();
            let rendered = err.to_string();
            match err {
                rtx::core::CoreError::StepRejected {
                    step, constraint, ..
                } => {
                    assert_eq!(step, last);
                    assert_eq!(constraint, scenario.violated_constraint);
                }
                other => panic!("{}: expected StepRejected, got {other:?}", scenario.name),
            }
            assert!(
                rendered.contains(scenario.violated_constraint),
                "{rendered}"
            );
        }
        assert_eq!(session.len(), last, "the rejected step must not advance");
    }
}

/// The runtime health snapshot aggregates monitor activity across sessions:
/// observed violations, enforced rejections, and the live session census.
#[test]
fn runtime_health_tracks_violations_and_rejections() {
    let scenario = rtx::workloads::scenarios::auction_scenario();
    let db = Arc::new(ResidentDb::new(scenario.database.clone()));
    let runtime = Runtime::shared(Arc::clone(&db));
    assert_eq!(runtime.health(), RuntimeHealth::default());

    let mut watcher = runtime
        .open_session("watcher", Arc::clone(&scenario.transducer))
        .unwrap();
    watcher.set_monitor_policy(MonitorPolicy::Observe);
    watcher.attach_observer(Box::new(scenario.monitor(&db).unwrap()));
    let mut gate = runtime
        .open_session("gate", Arc::clone(&scenario.transducer))
        .unwrap();
    gate.set_monitor_policy(MonitorPolicy::Enforce);
    gate.attach_observer(Box::new(scenario.monitor(&db).unwrap()));

    for input in scenario.violating_inputs.iter() {
        watcher.step(input).unwrap();
    }
    let last = scenario.violating_inputs.len() - 1;
    for (i, input) in scenario.violating_inputs.iter().enumerate() {
        let result = gate.step(input);
        assert_eq!(result.is_err(), i == last);
    }

    let health = runtime.health();
    assert_eq!(health.active_sessions, 2);
    assert!(health.quarantined_sessions.is_empty());
    // One sniping violation observed by the watcher, one recorded and then
    // rejected by the gate.
    assert_eq!(health.violations, 2);
    assert_eq!(health.rejections, 1);
}
