//! Integration tests for the resident runtime: cross-session equivalence
//! with one-shot runs (randomly interleaved and multi-threaded), the
//! delta-only join guarantee of incremental steps, amortized index
//! preparation across runs, and the store → resident bridge.

use proptest::prelude::*;
use rtx::core::Runtime;
use rtx::datalog::ResidentDb;
use rtx::prelude::*;
use rtx::store::Store;
use std::sync::Arc;

fn model() -> SpocusTransducer {
    rtx::workloads::category_model()
}

/// N isolated one-shot runs of the fleet.
fn isolated_runs(db: &Instance, fleet: &[InstanceSequence]) -> Vec<Run> {
    let transducer = model();
    fleet
        .iter()
        .map(|inputs| transducer.run(db, inputs).unwrap())
        .collect()
}

proptest! {
    /// N sessions interleaved in an arbitrary order over one shared
    /// `ResidentDb` produce bit-identical runs to N isolated `run()` calls.
    #[test]
    fn interleaved_sessions_match_isolated_runs(
        sessions in 2usize..5,
        steps in 1usize..5,
        schedule in proptest::collection::vec(0usize..16, 0..24),
        seed in 0u64..1000,
    ) {
        let products = 12;
        let db = rtx::workloads::category_catalog(products, 3, seed);
        let fleet = rtx::workloads::session_fleet(&db, sessions, steps, products, 0.8, seed);
        let expected = isolated_runs(&db, &fleet);

        let runtime = Runtime::new(ResidentDb::new(db));
        let transducer = Arc::new(model());
        let mut open: Vec<_> = (0..sessions)
            .map(|i| {
                runtime
                    .open_session(format!("customer-{i}"), Arc::clone(&transducer))
                    .unwrap()
            })
            .collect();
        let mut cursor = vec![0usize; sessions];

        // Feed steps in the generated interleaving, then flush what is left.
        let flush: Vec<usize> = (0..sessions).cycle().take(sessions * steps).collect();
        for pick in schedule.iter().copied().chain(flush) {
            let s = pick % sessions;
            if cursor[s] < steps {
                open[s].step(fleet[s].get(cursor[s]).unwrap()).unwrap();
                cursor[s] += 1;
            }
        }

        for (session, expected) in open.iter().zip(&expected) {
            prop_assert_eq!(session.len(), expected.len());
            prop_assert_eq!(&session.run().unwrap(), expected,
                "session run diverged from the isolated run");
        }
    }
}

/// Sessions stepped concurrently from multiple threads against one shared
/// resident database reproduce the isolated runs bit-for-bit.
#[test]
fn concurrent_sessions_match_isolated_runs() {
    let products = 60;
    let sessions = 8;
    let steps = 12;
    let db = rtx::workloads::category_catalog(products, 6, 42);
    let fleet = rtx::workloads::session_fleet(&db, sessions, steps, products, 0.9, 42);
    let expected = isolated_runs(&db, &fleet);

    let runtime = Runtime::new(ResidentDb::new(db));
    let transducer = Arc::new(model());
    let produced: Vec<Run> = std::thread::scope(|scope| {
        let handles: Vec<_> = fleet
            .iter()
            .enumerate()
            .map(|(i, inputs)| {
                let mut session = runtime
                    .open_session(format!("thread-{i}"), Arc::clone(&transducer))
                    .unwrap();
                scope.spawn(move || {
                    for input in inputs.iter() {
                        session.step(input).unwrap();
                    }
                    session.run().unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(runtime.session_count(), 0, "sessions released on drop");
    assert_eq!(produced, expected);
}

/// The parallel-strata stress test: N sessions stepped concurrently from N
/// threads, each evaluating its steps under an aggressive worker-pool policy
/// (4 workers, zero threshold — every pass fans out), all over one shared
/// `ResidentDb`.  Nested parallelism (pools inside session threads) must not
/// deadlock, and every run must be bit-identical to the isolated sequential
/// one-shot runs.
#[test]
fn concurrent_parallel_sessions_match_isolated_sequential_runs() {
    let products = 60;
    let sessions = 8;
    let steps = 10;
    let db = rtx::workloads::category_catalog(products, 6, 7);
    let fleet = rtx::workloads::session_fleet(&db, sessions, steps, products, 0.9, 7);
    let expected = isolated_runs(&db, &fleet);

    let policy = rtx::datalog::Parallelism::threads(4).with_threshold(0);
    let runtime = Runtime::shared_with(Arc::new(ResidentDb::new(db)), policy);
    assert_eq!(runtime.parallelism(), policy);
    let transducer = Arc::new(model());
    let produced: Vec<Run> = std::thread::scope(|scope| {
        let handles: Vec<_> = fleet
            .iter()
            .enumerate()
            .map(|(i, inputs)| {
                let mut session = runtime
                    .open_session(format!("parallel-{i}"), Arc::clone(&transducer))
                    .unwrap();
                scope.spawn(move || {
                    for input in inputs.iter() {
                        session.step(input).unwrap();
                    }
                    session.run().unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(runtime.session_count(), 0, "sessions released on drop");
    assert_eq!(
        produced, expected,
        "parallel concurrent sessions diverged from sequential isolated runs"
    );

    // The one-shot parallel entry point agrees too.
    let resident = transducer
        .compiled_output_program()
        .prepare(expected[0].db());
    for (inputs, expected) in fleet.iter().zip(&expected) {
        let run = transducer
            .run_resident_with(&resident, inputs, policy)
            .unwrap();
        assert_eq!(&run, expected);
    }
}

/// The derivation-counter pin: after the caches are seeded, step *i+1* joins
/// only against the step's `past-R` delta — a from-scratch evaluation would
/// re-derive the whole (growing) output every step.
#[test]
fn incremental_steps_join_only_the_delta() {
    let transducer = SpocusBuilder::new("loyalty")
        .input("touch", 1)
        .database("base", 1)
        .output("seen", 1)
        .output_rule("seen(X) :- past-touch(X), base(X)")
        .log(["seen"])
        .build()
        .unwrap();

    let db_schema = Schema::from_pairs([("base", 1)]).unwrap();
    let mut db = Instance::empty(&db_schema);
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

    let runtime = Runtime::new(ResidentDb::new(db));
    let mut session = runtime.open_session("pinned", transducer).unwrap();

    // Step 1 seeds the cache against the empty state: zero derivations.
    let out = session.step(&step_of(&["a", "b", "c"])).unwrap();
    assert!(out.relation("seen").unwrap().is_empty());
    assert_eq!(session.last_stats().tuples_derived, 0);

    // Step 2's delta is {a, b, c}: exactly three join derivations.
    let out = session.step(&step_of(&["d"])).unwrap();
    assert_eq!(out.relation("seen").unwrap().len(), 3);
    assert_eq!(session.last_stats().tuples_derived, 3);

    // Step 3's delta is {d}: one derivation, although the full output now
    // has four tuples (a re-derivation would have counted all four).
    let out = session.step(&step_of(&[])).unwrap();
    assert_eq!(out.relation("seen").unwrap().len(), 4);
    assert_eq!(session.last_stats().tuples_derived, 1);

    // An empty delta joins nothing at all; the output stands.
    let out = session.step(&step_of(&["a"])).unwrap();
    assert_eq!(out.relation("seen").unwrap().len(), 4);
    assert_eq!(session.last_stats().tuples_derived, 0);

    // Writes to relations the program never reads leave the step caches
    // alive: invalidation is per relation, not per database.
    let db = runtime.database();
    db.ensure_relation("audit-log", 1).unwrap();
    db.insert("audit-log", Tuple::from_iter(["noise"])).unwrap();
    let out = session.step(&step_of(&[])).unwrap();
    assert_eq!(out.relation("seen").unwrap().len(), 4);
    assert_eq!(
        session.last_stats().tuples_derived,
        0,
        "an unrelated catalog write must not reseed the session caches"
    );
}

/// Resident preparation is amortized: 100 runs over a 10k-product catalog
/// build the non-prefix `category` index exactly once, and a catalog
/// mutation triggers exactly one rebuild of the touched relation's index.
#[test]
fn resident_preparation_is_amortized_across_100_runs() {
    let products = 10_000;
    let transducer = model();
    let db = rtx::workloads::category_catalog(products, 50, 1);
    let fleet = rtx::workloads::session_fleet(&db, 100, 2, products, 0.9, 3);

    let resident = transducer.compiled_output_program().prepare(&db);
    assert_eq!(resident.index_builds(), 1, "category/[1] built at prepare");

    let runs: Vec<Run> = fleet
        .iter()
        .map(|inputs| transducer.run_resident(&resident, inputs).unwrap())
        .collect();
    assert_eq!(
        resident.index_builds(),
        1,
        "100 resident runs must not rebuild the prepared index"
    );

    // Spot-check equivalence with the one-shot path on the first session.
    assert_eq!(runs[0], transducer.run(&db, &fleet[0]).unwrap());

    // A catalog write invalidates exactly the touched relation's index once.
    resident
        .insert("category", Tuple::from_iter(["cat-0", "brand-new-product"]))
        .unwrap();
    transducer.run_resident(&resident, &fleet[0]).unwrap();
    transducer.run_resident(&resident, &fleet[1]).unwrap();
    assert_eq!(resident.index_builds(), 2);
}

/// Store → resident bridge: a sync keeps a runtime's own copy of the catalog
/// current, and sessions observe the synced rows at their next step.
#[test]
fn store_bridge_feeds_the_runtime() {
    let mut store = Store::new();
    store.create_table("price", 2, None).unwrap();
    store.create_table("available", 1, None).unwrap();
    store.create_table("category", 2, None).unwrap();
    store
        .insert(
            "price",
            Tuple::new(vec![Value::str("time"), Value::int(855)]),
        )
        .unwrap();
    store
        .insert("available", Tuple::from_iter(["time"]))
        .unwrap();
    store
        .insert("category", Tuple::from_iter(["news", "time"]))
        .unwrap();

    let (resident, mut sync) = store.to_resident().unwrap();
    let runtime = Runtime::shared(Arc::new(resident));
    let mut session = runtime.open_session("bridged", model()).unwrap();

    let input_schema = rtx::core::models::short_input_schema();
    let mut order = Instance::empty(&input_schema);
    order
        .insert("order", Tuple::from_iter(["economist"]))
        .unwrap();

    // Unknown product: no bill.
    let out = session.step(&order).unwrap();
    assert!(out.relation("sendbill").unwrap().is_empty());

    // The catalog team prices it in the store; sync the changed relations.
    store
        .insert(
            "price",
            Tuple::new(vec![Value::str("economist"), Value::int(700)]),
        )
        .unwrap();
    let applied = sync.sync(&store, runtime.database()).unwrap();
    assert_eq!(applied, 1);

    let out = session.step(&order).unwrap();
    assert!(out.holds(
        "sendbill",
        &Tuple::new(vec![Value::str("economist"), Value::int(700)])
    ));
}
