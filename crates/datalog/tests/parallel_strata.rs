//! Integration tests for data-parallel stratum evaluation and the
//! non-prefix key-shape behaviour of recursive workloads over a resident
//! database.
//!
//! The ROADMAP's "non-prefix key shapes" item asked whether recursive
//! workloads whose joins bind a non-prefix column need per-round incremental
//! index maintenance.  They do not: the non-prefix index over the *resident*
//! relation is built once at preparation and reused by every fixpoint round
//! (and every later evaluation) — only the per-round delta/old indexes live
//! in the per-evaluation cache, which the [`ResidentDb::index_builds`]
//! counter does not (and must not) see.  The tests below pin exactly that,
//! and pin the parallel engine to bit-identical results on the same
//! recursive, non-prefix workload.

use rtx_datalog::{parse_program, CompiledProgram, EvalBudget, Parallelism};
use rtx_relational::{Instance, Schema, Tuple};

/// `link(child, parent)` chains n0 ← n1 ← … ← n{n-1}; reachability walks the
/// chain *backwards*, probing `link` on its second column — a non-prefix
/// bound column that needs a hash index.
fn chain_db(n: usize) -> Instance {
    let schema = Schema::from_pairs([("link", 2)]).unwrap();
    let mut db = Instance::empty(&schema);
    for i in 0..n.saturating_sub(1) {
        db.insert(
            "link",
            Tuple::from_iter([format!("n{}", i + 1), format!("n{i}")]),
        )
        .unwrap();
    }
    db
}

fn reach_program() -> CompiledProgram {
    let program = parse_program(
        "reach(X) :- seed(X).\n\
         reach(Y) :- reach(X), link(Y, X).",
    )
    .unwrap();
    CompiledProgram::compile(&program).unwrap()
}

/// [`reach_program`] plus the `offer` shape: a catalog-wide rule behind a
/// one-tuple `tick` guard that shares no variable with the rest, so the
/// parallel engine can only split it below the guard, on `link`.
fn guarded_program() -> CompiledProgram {
    let program = parse_program(
        "reach(X) :- seed(X).\n\
         reach(Y) :- reach(X), link(Y, X).\n\
         offer(Y, X) :- tick(T), link(Y, X), NOT seed(Y).",
    )
    .unwrap();
    CompiledProgram::compile(&program).unwrap()
}

/// Both programs the determinism tests run.
fn programs() -> [CompiledProgram; 2] {
    [reach_program(), guarded_program()]
}

fn seeds() -> Instance {
    let schema = Schema::from_pairs([("seed", 1), ("tick", 1)]).unwrap();
    let mut inst = Instance::empty(&schema);
    inst.insert("seed", Tuple::from_iter(["n0"])).unwrap();
    inst.insert("tick", Tuple::from_iter(["t0"])).unwrap();
    inst
}

/// The pin for the ROADMAP "non-prefix key shapes" item: a recursive
/// fixpoint probing a resident relation on a non-prefix column builds its
/// hash index exactly once — at preparation — and never rebuilds it per
/// round or per evaluation while the relation is unchanged.
#[test]
fn recursive_non_prefix_probe_builds_the_resident_index_once() {
    let compiled = reach_program();
    let atom = compiled.rules()[1]
        .atoms()
        .iter()
        .find(|a| a.relation().as_str() == "link")
        .expect("the recursive rule reads link");
    assert_eq!(atom.key_columns(), &[1], "link is probed on column 1");
    assert!(!atom.uses_prefix_scan());

    let n = 64;
    let resident = compiled.prepare(&chain_db(n));
    assert_eq!(resident.index_builds(), 1, "exactly the link[1] index");

    let inputs = seeds();
    for _ in 0..3 {
        // A 64-node chain takes 64 fixpoint rounds: any per-round rebuild of
        // the resident index would move the counter by ~64 per evaluation.
        let (out, stats) = compiled
            .evaluate(
                &[&inputs],
                Some(&resident.view_for(&compiled)),
                Parallelism::default(),
                EvalBudget::UNLIMITED,
            )
            .unwrap();
        assert_eq!(out.relation("reach").unwrap().len(), n);
        assert!(stats.rounds > (n as u64) / 2);
        assert_eq!(resident.index_builds(), 1, "no per-round rebuilds");
    }

    // Mutating the probed relation invalidates exactly one index: the next
    // evaluation rebuilds it once, not once per round.
    resident
        .insert("link", Tuple::from_iter(["n64", "n63"]))
        .unwrap();
    let (out, _) = compiled
        .evaluate(
            &[&inputs],
            Some(&resident.view_for(&compiled)),
            Parallelism::default(),
            EvalBudget::UNLIMITED,
        )
        .unwrap();
    assert_eq!(out.relation("reach").unwrap().len(), n + 1);
    assert_eq!(resident.index_builds(), 2, "one rebuild after the write");
}

/// The same recursive, non-prefix workload — alone, and beside a guarded
/// catalog-wide rule — run under 1/2/8 workers with the threshold forced to
/// zero is bit-identical to the sequential engine: derived instance and
/// `EvalStats` counters alike.
#[test]
fn recursive_non_prefix_workload_is_parallel_deterministic() {
    for compiled in programs() {
        let db = chain_db(48);
        let resident = compiled.prepare(&db);
        let inputs = seeds();
        let (seq, seq_stats) = compiled
            .evaluate(
                &[&inputs],
                Some(&resident.view_for(&compiled)),
                Parallelism::sequential(),
                EvalBudget::UNLIMITED,
            )
            .unwrap();
        assert_eq!(seq.relation("reach").unwrap().len(), 48);
        for threads in [1usize, 2, 8] {
            let par = Parallelism::threads(threads).with_threshold(0);
            let (out, stats) = compiled
                .evaluate(
                    &[&inputs],
                    Some(&resident.view_for(&compiled)),
                    par,
                    EvalBudget::UNLIMITED,
                )
                .unwrap();
            assert_eq!(out, seq, "threads={threads} diverged");
            assert_eq!(stats, seq_stats, "threads={threads} counter drift");
        }
        assert_eq!(resident.index_builds(), 1, "all arms shared one index");
    }
}

/// Non-resident evaluation of the same shape: the per-evaluation index cache
/// covers the non-prefix key, and the parallel engine agrees with the
/// sequential one without any resident database at all.
#[test]
fn non_prefix_shapes_without_a_resident_db_stay_deterministic() {
    for compiled in programs() {
        let db = chain_db(32);
        let inputs = seeds();
        let (seq, seq_stats) = compiled
            .evaluate(
                &[&inputs, &db],
                None,
                Parallelism::sequential(),
                EvalBudget::UNLIMITED,
            )
            .unwrap();
        assert_eq!(seq.relation("reach").unwrap().len(), 32);
        for threads in [2usize, 8] {
            let (out, stats) = compiled
                .evaluate(
                    &[&inputs, &db],
                    None,
                    Parallelism::threads(threads).with_threshold(0),
                    EvalBudget::UNLIMITED,
                )
                .unwrap();
            assert_eq!(out, seq);
            assert_eq!(stats, seq_stats);
        }
    }
}

/// A ResidentDb shared by concurrent *parallel* evaluations (nested
/// parallelism: worker pools inside evaluation threads) stays consistent
/// and deterministic.
#[test]
fn concurrent_parallel_evaluations_share_one_resident_db() {
    let compiled = std::sync::Arc::new(reach_program());
    let resident = std::sync::Arc::new(compiled.prepare(&chain_db(40)));
    let inputs = seeds();
    let (expected, expected_stats) = compiled
        .evaluate(
            &[&inputs],
            Some(&resident.view_for(&compiled)),
            Parallelism::sequential(),
            EvalBudget::UNLIMITED,
        )
        .unwrap();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let compiled = std::sync::Arc::clone(&compiled);
            let resident = std::sync::Arc::clone(&resident);
            let inputs = &inputs;
            let expected = &expected;
            scope.spawn(move || {
                for threads in [2usize, 4] {
                    let (out, stats) = compiled
                        .evaluate(
                            &[inputs],
                            Some(&resident.view_for(&compiled)),
                            Parallelism::threads(threads).with_threshold(0),
                            EvalBudget::UNLIMITED,
                        )
                        .unwrap();
                    assert_eq!(&out, expected);
                    assert_eq!(stats, expected_stats);
                }
            });
        }
    });
    assert_eq!(resident.index_builds(), 1);
}
