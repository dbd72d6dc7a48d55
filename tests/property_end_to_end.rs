//! Property-based tests over the whole stack: randomly generated catalogs and
//! customer sessions must uphold the paper's invariants, and the
//! compiled-indexed datalog engine must agree with the reference interpreter
//! on randomly generated programs and databases.

use proptest::prelude::*;
use rtx::core::{models, DemandPolicy, Runtime, SessionDemand, SessionGoal};
use rtx::datalog::{
    evaluate_nonrecursive, evaluate_stratified, Adornment, Atom, BodyLiteral, CompiledProgram,
    DemandGoal, DredEngine, EvalBudget, EvalOptions, FixpointStrategy, MutationBatch, Parallelism,
    Program, ResidentDb, Rule,
};
use rtx::logic::Term;
use rtx::prelude::*;
use rtx::verify::log_validation::log_matches;
use std::sync::Arc;

/// Strategy: a small catalog (product names p0..p{n-1} with prices 1..50).
fn catalog_strategy() -> impl Strategy<Value = Instance> {
    proptest::collection::vec(1i64..50, 1..4).prop_map(|prices| {
        let mut db = Instance::empty(&models::catalog_schema());
        for (i, price) in prices.iter().enumerate() {
            db.insert(
                "price",
                Tuple::new(vec![Value::str(format!("p{i}")), Value::int(*price)]),
            )
            .unwrap();
            if i % 2 == 0 {
                db.insert("available", Tuple::from_iter([format!("p{i}").as_str()]))
                    .unwrap();
            }
        }
        db
    })
}

/// Strategy: an input sequence over the `short` schema with up to 3 steps.
fn inputs_strategy() -> impl Strategy<Value = InstanceSequence> {
    let step = (
        proptest::collection::vec(0usize..3, 0..3),
        proptest::collection::vec((0usize..3, 1i64..50), 0..2),
    );
    proptest::collection::vec(step, 0..3).prop_map(|steps| {
        let schema = models::short_input_schema();
        let instances: Vec<Instance> = steps
            .into_iter()
            .map(|(orders, pays)| {
                let mut inst = Instance::empty(&schema);
                for o in orders {
                    inst.insert("order", Tuple::from_iter([format!("p{o}").as_str()]))
                        .unwrap();
                }
                for (p, amount) in pays {
                    inst.insert(
                        "pay",
                        Tuple::new(vec![Value::str(format!("p{p}")), Value::int(amount)]),
                    )
                    .unwrap();
                }
                inst
            })
            .collect();
        InstanceSequence::new(schema, instances).unwrap()
    })
}

/// The fixed vocabulary of the random-program generator: three EDB relations
/// and two IDB relations with fixed arities, over a four-constant domain.
const EDB_RELATIONS: [(&str, usize); 3] = [("e1", 1), ("e2", 2), ("e3", 2)];
const IDB_RELATIONS: [(&str, usize); 2] = [("d0", 1), ("d1", 2)];
const DOMAIN: [&str; 4] = ["a", "b", "c", "d"];
const VARS: [&str; 4] = ["X", "Y", "Z", "W"];
/// The one-tuple input guard of the `offer` shape (`offer(P,Y) :-
/// refresh(R), price(P,Y), …`): every database holds exactly `tick(t0)`, and
/// a guarded rule reads `tick(G)` first, with `G` used nowhere else.
const GUARD: (&str, usize) = ("tick", 1);

/// One positive body atom: a relation selector and variable selectors (the
/// selector vector is truncated/cycled to the relation's arity).
type AtomSpec = (usize, Vec<usize>);

/// One rule: head relation selector, head variable selectors, positive
/// atoms, negated EDB atoms, inequality pairs, and a guard selector (0
/// guards the rule with [`GUARD`]).
type RuleSpec = (
    usize,
    Vec<usize>,
    Vec<AtomSpec>,
    Vec<AtomSpec>,
    Vec<(usize, usize)>,
    usize,
);

fn rule_spec_strategy() -> impl Strategy<Value = RuleSpec> {
    (
        0usize..10,
        proptest::collection::vec(0usize..8, 1..3),
        proptest::collection::vec(
            (0usize..5, proptest::collection::vec(0usize..4, 2..3)),
            1..4,
        ),
        proptest::collection::vec(
            (0usize..3, proptest::collection::vec(0usize..8, 2..3)),
            0..3,
        ),
        proptest::collection::vec((0usize..8, 0usize..8), 0..2),
        0usize..3,
    )
}

/// Builds a safe, stratifiable rule from a spec.  Safety holds by
/// construction: head, negation and inequality variables are always drawn
/// from the variables of the positive atoms.
fn build_rule(spec: &RuleSpec) -> Rule {
    let (head_sel, head_vars, atoms, negs, diseqs, guard) = spec;
    // Positive atoms over EDB relations and (for layering/recursion) IDBs.
    let atom_table: Vec<(&str, usize)> = EDB_RELATIONS
        .iter()
        .chain(IDB_RELATIONS.iter())
        .copied()
        .collect();
    let positives: Vec<Atom> = atoms
        .iter()
        .map(|(rel_sel, var_sels)| {
            let (rel, arity) = atom_table[rel_sel % atom_table.len()];
            let args =
                (0..arity).map(|i| Term::var(VARS[var_sels[i % var_sels.len()] % VARS.len()]));
            Atom::new(rel, args)
        })
        .collect();
    let bound: Vec<String> = {
        let mut seen = Vec::new();
        for atom in &positives {
            for var in atom.variables() {
                if !seen.contains(&var) {
                    seen.push(var);
                }
            }
        }
        seen
    };
    let pick_bound = |sel: usize| Term::var(bound[sel % bound.len()].clone());

    let (head_rel, head_arity) = IDB_RELATIONS[head_sel % IDB_RELATIONS.len()];
    let head = Atom::new(
        head_rel,
        (0..head_arity).map(|i| pick_bound(head_vars[i % head_vars.len()])),
    );

    // The guard goes first, so the join reads it at level 0 (it binds one
    // fresh variable, no more than any other atom).
    let guard = (*guard == 0).then(|| Atom::new(GUARD.0, [Term::var("G")]));
    let mut body: Vec<BodyLiteral> = guard
        .into_iter()
        .chain(positives)
        .map(BodyLiteral::Positive)
        .collect();
    for (rel_sel, var_sels) in negs {
        // Negation only over EDB relations keeps every program stratifiable.
        let (rel, arity) = EDB_RELATIONS[rel_sel % EDB_RELATIONS.len()];
        let args = (0..arity).map(|i| pick_bound(var_sels[i % var_sels.len()]));
        body.push(BodyLiteral::Negative(Atom::new(rel, args)));
    }
    for (a, b) in diseqs {
        body.push(BodyLiteral::NotEqual(pick_bound(*a), pick_bound(*b)));
    }
    Rule::new(head, body)
}

fn random_program_strategy() -> impl Strategy<Value = Program> {
    proptest::collection::vec(rule_spec_strategy(), 1..5)
        .prop_map(|specs| specs.iter().map(build_rule).collect())
}

fn random_edb_strategy() -> impl Strategy<Value = Instance> {
    proptest::collection::vec((0usize..3, 0usize..4, 0usize..4), 0..16).prop_map(|facts| {
        let schema = Schema::from_pairs(EDB_RELATIONS.into_iter().chain([GUARD])).unwrap();
        let mut db = Instance::empty(&schema);
        db.insert(GUARD.0, Tuple::from_iter(["t0"])).unwrap();
        for (rel_sel, v1, v2) in facts {
            let (rel, arity) = EDB_RELATIONS[rel_sel];
            let tuple = if arity == 1 {
                Tuple::from_iter([DOMAIN[v1]])
            } else {
                Tuple::from_iter([DOMAIN[v1], DOMAIN[v2]])
            };
            db.insert(rel, tuple).unwrap();
        }
        db
    })
}

/// One base-relation mutation: insert? (0 = retract), relation selector,
/// value selectors.  (The offline proptest shim has no `any::<bool>()`, so
/// coin flips are `0..2` ranges.)
type MutOp = (usize, usize, usize, usize);

/// A sequence of mutation batches (1–3 ops each) over the EDB vocabulary.
fn mutation_batches_strategy() -> impl Strategy<Value = Vec<Vec<MutOp>>> {
    proptest::collection::vec(
        proptest::collection::vec((0usize..2, 0usize..3, 0usize..4, 0usize..4), 1..4),
        1..5,
    )
}

fn mutation_tuple(rel_sel: usize, v1: usize, v2: usize) -> (&'static str, Tuple) {
    let (rel, arity) = EDB_RELATIONS[rel_sel % EDB_RELATIONS.len()];
    let tuple = if arity == 1 {
        Tuple::from_iter([DOMAIN[v1]])
    } else {
        Tuple::from_iter([DOMAIN[v1], DOMAIN[v2]])
    };
    (rel, tuple)
}

/// A customer session interleaved with catalog mutations: per step, orders,
/// payments, and insert/retract operations against `price`/`available`.
type MutatedStep = (
    Vec<usize>,
    Vec<(usize, i64)>,
    Vec<(usize, usize, usize, i64)>,
);

fn mutated_session_strategy() -> impl Strategy<Value = Vec<MutatedStep>> {
    let step = (
        proptest::collection::vec(0usize..3, 0..3),
        proptest::collection::vec((0usize..3, 1i64..50), 0..2),
        proptest::collection::vec((0usize..2, 0usize..2, 0usize..3, 1i64..50), 0..3),
    );
    proptest::collection::vec(step, 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The retraction equivalence: randomized insert+retract batches over
    /// randomized stratified programs, maintained incrementally by the
    /// delete-rederive engine, always leave the derived instance
    /// bit-identical to a from-scratch rebuild over the mutated base — at
    /// 1, 2 and 8 workers (threshold zero, so even tiny deltas take the
    /// parallel code path).
    #[test]
    fn dred_maintenance_matches_rebuild_from_scratch(
        program in random_program_strategy(),
        db in random_edb_strategy(),
        batches in mutation_batches_strategy(),
    ) {
        let compiled = CompiledProgram::compile(&program).unwrap();
        let mut engines: Vec<DredEngine> = [1usize, 2, 8]
            .iter()
            .map(|&t| {
                DredEngine::with_parallelism(
                    &program,
                    db.clone(),
                    Parallelism::threads(t).with_threshold(0),
                )
                .unwrap()
            })
            .collect();
        for ops in &batches {
            let mut batch = MutationBatch::new();
            for &(insert, rel_sel, v1, v2) in ops {
                let insert = insert == 1;
                let (rel, tuple) = mutation_tuple(rel_sel, v1, v2);
                batch = if insert {
                    batch.insert(rel, tuple)
                } else {
                    batch.retract(rel, tuple)
                };
            }
            for engine in engines.iter_mut() {
                engine.apply(&batch).unwrap();
            }
            let (oracle, _) = compiled
                .evaluate(
                    &[engines[0].database()],
                    None,
                    Parallelism::default(),
                    EvalBudget::UNLIMITED,
                )
                .unwrap();
            for engine in &engines {
                prop_assert_eq!(
                    engine.derived(), &oracle,
                    "delete-rederive ≠ rebuild\n{}", program
                );
            }
        }
    }

    /// The session arm of the retraction equivalence: catalog inserts *and*
    /// retractions land on the shared resident database mid-session, and
    /// every step of the incremental `StepEvaluator`-backed session must
    /// equal a fresh full evaluation of the output program against the
    /// current catalog — at 1, 2 and 8 workers.
    #[test]
    fn sessions_observe_catalog_retractions_like_fresh_evaluations(
        db in catalog_strategy(),
        steps in mutated_session_strategy(),
    ) {
        let transducer = models::short();
        let compiled = transducer.compiled_output_program();
        let input_schema = models::short_input_schema();
        for threads in [1usize, 2, 8] {
            let resident = Arc::new(ResidentDb::new(db.clone()));
            let runtime = Runtime::shared_with(
                Arc::clone(&resident),
                Parallelism::threads(threads).with_threshold(0),
            );
            let mut session = runtime.open_session("prop", models::short()).unwrap();
            for (orders, pays, mutations) in &steps {
                // Mutate the shared catalog before the step.
                for &(insert, on_price, sel, amount) in mutations {
                    let (insert, on_price) = (insert == 1, on_price == 1);
                    if on_price {
                        let row = Tuple::new(vec![
                            Value::str(format!("p{sel}")),
                            Value::int(amount),
                        ]);
                        if insert {
                            resident.insert("price", row).unwrap();
                        } else {
                            resident.retract("price", &row).unwrap();
                        }
                    } else {
                        let row = Tuple::from_iter([format!("p{sel}").as_str()]);
                        if insert {
                            resident.insert("available", row).unwrap();
                        } else {
                            resident.retract("available", &row).unwrap();
                        }
                    }
                }
                let mut input = Instance::empty(&input_schema);
                for &o in orders {
                    input
                        .insert("order", Tuple::from_iter([format!("p{o}").as_str()]))
                        .unwrap();
                }
                for &(p, amount) in pays {
                    input
                        .insert(
                            "pay",
                            Tuple::new(vec![Value::str(format!("p{p}")), Value::int(amount)]),
                        )
                        .unwrap();
                }
                let state_before = session.state().clone();
                let out = session.step(&input).unwrap();
                let snapshot = resident.snapshot();
                let (oracle_derived, _) = compiled
                    .evaluate(
                        &[&input, &state_before, &snapshot],
                        None,
                        Parallelism::default(),
                        EvalBudget::UNLIMITED,
                    )
                    .unwrap();
                let mut oracle = Instance::empty(transducer.schema().output());
                oracle.absorb(&oracle_derived).unwrap();
                prop_assert_eq!(
                    &out, &oracle,
                    "session step ≠ fresh evaluation at {} threads", threads
                );
            }
        }
    }
}

/// A random demand over the program's defined IDB relations: an adornment
/// selector plus seed-value selectors for `d0` and for `d1`.
type DemandSpec = (usize, Vec<usize>, usize, Vec<(usize, usize)>);

fn demand_spec_strategy() -> impl Strategy<Value = DemandSpec> {
    (
        0usize..2,
        proptest::collection::vec(0usize..4, 0..3),
        0usize..4,
        proptest::collection::vec((0usize..4, 0usize..4), 0..3),
    )
}

/// One [`DemandGoal`] per IDB relation the random program actually defines,
/// with adornments and seed tuples drawn from the spec.
fn demand_goals(program: &Program, spec: &DemandSpec) -> Vec<DemandGoal> {
    let (a0, seeds0, a1, seeds1) = spec;
    let idb = program.idb_relations();
    let mut goals = Vec::new();
    if idb.contains(&RelationName::new("d0")) {
        goals.push(if a0 % 2 == 0 {
            DemandGoal::free("d0", 1)
        } else {
            DemandGoal::seeded("d0", "b")
                .unwrap()
                .with_seeds(seeds0.iter().map(|&v| Tuple::from_iter([DOMAIN[v % 4]])))
        });
    }
    if idb.contains(&RelationName::new("d1")) {
        let pattern = ["ff", "bf", "fb", "bb"][a1 % 4];
        goals.push(if pattern == "ff" {
            DemandGoal::free("d1", 2)
        } else {
            let adornment = Adornment::parse(pattern).unwrap();
            DemandGoal::seeded("d1", pattern)
                .unwrap()
                .with_seeds(seeds1.iter().map(|&(x, y)| {
                    if adornment.bound_count() == 1 {
                        Tuple::from_iter([DOMAIN[if adornment.is_bound(0) { x } else { y } % 4]])
                    } else {
                        Tuple::from_iter([DOMAIN[x % 4], DOMAIN[y % 4]])
                    }
                }))
        });
    }
    goals
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The demand-driven evaluation equivalence (datalog layer): on randomly
    /// generated programs, databases and demands, evaluating the magic-set
    /// rewrite over the seeded sources and mapping the adorned result back
    /// is **bit-identical** to evaluating the original program in full and
    /// filtering it to the demanded footprint — at 1, 2 and 8 workers
    /// (threshold zero, so even tiny instances take the parallel path).
    #[test]
    fn demand_rewrite_is_bit_identical_to_the_filtered_full_evaluation(
        program in random_program_strategy(),
        db in random_edb_strategy(),
        spec in demand_spec_strategy(),
    ) {
        let goals = demand_goals(&program, &spec);
        let rewrite = rtx::datalog::magic_rewrite(&program, &goals).unwrap();
        let sources = db
            .union(&rewrite.seed_instance())
            .expect("seed relations are disjoint from the database");

        let compiled = CompiledProgram::compile(&program).unwrap();
        let (full, _) = compiled
            .evaluate(&[&db], None, Parallelism::default(), EvalBudget::UNLIMITED)
            .unwrap();
        let expected = rewrite.footprint(&full);

        let rewritten = CompiledProgram::compile_demand_program(rewrite.clone()).unwrap();
        let (sequential, _) = rewritten
            .evaluate(&[&sources], None, Parallelism::sequential(), EvalBudget::UNLIMITED)
            .unwrap();
        prop_assert_eq!(
            &sequential, &expected,
            "demand rewrite ≠ filtered full evaluation\n{}", program
        );
        for threads in [1usize, 2, 8] {
            let policy = Parallelism::threads(threads).with_threshold(0);
            let (parallel, _) = rewritten
                .evaluate(&[&sources], None, policy, EvalBudget::UNLIMITED)
                .unwrap();
            prop_assert_eq!(
                &parallel, &sequential,
                "rewritten program drifted at {} threads\n{}", threads, program
            );
        }
    }

    /// The session arm of the demand equivalence: with a demand that covers
    /// every derivation of the `short` model (bills keyed by this step's
    /// orders, deliveries by this step's payments), a demanded session under
    /// **either** policy steps bit-identically to an undemanded one — at 1,
    /// 2 and 8 workers, with catalog inserts *and* retractions landing on
    /// the shared resident database mid-session.
    #[test]
    fn demanded_sessions_match_full_sessions_under_catalog_mutations(
        db in catalog_strategy(),
        steps in mutated_session_strategy(),
    ) {
        let input_schema = models::short_input_schema();
        let covering_demand = || {
            SessionDemand::new()
                .goal(
                    SessionGoal::new("sendbill", "bf")
                        .unwrap()
                        .from_input("order", [0]),
                )
                .goal(SessionGoal::new("deliver", "b").unwrap().from_input("pay", [0]))
        };
        for threads in [1usize, 2, 8] {
            let resident = Arc::new(ResidentDb::new(db.clone()));
            let runtime = Runtime::shared_with(
                Arc::clone(&resident),
                Parallelism::threads(threads).with_threshold(0),
            );
            let mut full = runtime.open_session("full", models::short()).unwrap();
            runtime.set_demand_policy(DemandPolicy::Demand);
            let mut rewritten = runtime
                .open_session_with_demand("rewritten", models::short(), covering_demand())
                .unwrap();
            runtime.set_demand_policy(DemandPolicy::Full);
            let mut filtered = runtime
                .open_session_with_demand("filtered", models::short(), covering_demand())
                .unwrap();
            for (orders, pays, mutations) in &steps {
                for &(insert, on_price, sel, amount) in mutations {
                    let (insert, on_price) = (insert == 1, on_price == 1);
                    if on_price {
                        let row = Tuple::new(vec![
                            Value::str(format!("p{sel}")),
                            Value::int(amount),
                        ]);
                        if insert {
                            resident.insert("price", row).unwrap();
                        } else {
                            resident.retract("price", &row).unwrap();
                        }
                    } else {
                        let row = Tuple::from_iter([format!("p{sel}").as_str()]);
                        if insert {
                            resident.insert("available", row).unwrap();
                        } else {
                            resident.retract("available", &row).unwrap();
                        }
                    }
                }
                let mut input = Instance::empty(&input_schema);
                for &o in orders {
                    input
                        .insert("order", Tuple::from_iter([format!("p{o}").as_str()]))
                        .unwrap();
                }
                for &(p, amount) in pays {
                    input
                        .insert(
                            "pay",
                            Tuple::new(vec![Value::str(format!("p{p}")), Value::int(amount)]),
                        )
                        .unwrap();
                }
                let reference = full.step(&input).unwrap();
                prop_assert_eq!(
                    &rewritten.step(&input).unwrap(), &reference,
                    "rewritten session ≠ full session at {} threads", threads
                );
                prop_assert_eq!(
                    &filtered.step(&input).unwrap(), &reference,
                    "filtered session ≠ full session at {} threads", threads
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole equivalence: on randomly generated (possibly recursive,
    /// possibly layered) programs and databases, the compiled-indexed engine
    /// derives exactly the instances the reference interpreter derives, under
    /// both fixpoint strategies — and, for non-recursive programs, exactly
    /// what the single-pass reference evaluation derives.
    #[test]
    fn compiled_engine_matches_reference_interpreter(
        program in random_program_strategy(),
        db in random_edb_strategy(),
    ) {
        let compiled = CompiledProgram::compile(&program).unwrap();
        let (fast, _) = compiled
            .evaluate(&[&db], None, Parallelism::default(), EvalBudget::UNLIMITED)
            .unwrap();
        let (naive, _) = evaluate_stratified(&program, &db, EvalOptions {
            strategy: FixpointStrategy::Naive,
            ..EvalOptions::default()
        }).unwrap();
        let (semi, _) = evaluate_stratified(&program, &db, EvalOptions {
            strategy: FixpointStrategy::SemiNaive,
            ..EvalOptions::default()
        }).unwrap();
        prop_assert_eq!(&fast, &naive, "compiled ≠ naive interpreter\n{}", program);
        prop_assert_eq!(&fast, &semi, "compiled ≠ semi-naive interpreter\n{}", program);
        if !compiled.is_recursive() {
            let single_pass = evaluate_nonrecursive(&program, &db).unwrap();
            prop_assert_eq!(&fast, &single_pass, "compiled ≠ single-pass reference\n{}", program);
        }
    }

    /// The parallel arm of the equivalence suite: randomized programs/EDBs
    /// evaluated with 1, 2 and 8 workers (threshold forced to zero, so even
    /// tiny instances take the parallel code path) produce **bit-identical**
    /// derived instances and identical `EvalStats` — `tuples_derived`,
    /// `rule_applications` and `rounds` included — to the sequential engine.
    /// This is the determinism contract of `rtx_datalog::pool`: work units
    /// are merged in fixed (stratum, rule, pass, chunk) order, so scheduling
    /// never shows through.
    #[test]
    fn parallel_evaluation_is_bit_identical_to_sequential(
        program in random_program_strategy(),
        db in random_edb_strategy(),
    ) {
        let compiled = CompiledProgram::compile(&program).unwrap();
        let (sequential, sequential_stats) = compiled
            .evaluate(&[&db], None, Parallelism::sequential(), EvalBudget::UNLIMITED)
            .unwrap();
        for threads in [1usize, 2, 8] {
            let policy = Parallelism::threads(threads).with_threshold(0);
            let (parallel, parallel_stats) =
                compiled.evaluate(&[&db], None, policy, EvalBudget::UNLIMITED).unwrap();
            prop_assert_eq!(
                &parallel, &sequential,
                "parallel ≠ sequential at {} threads\n{}", threads, program
            );
            prop_assert_eq!(
                parallel_stats, sequential_stats,
                "stats drifted at {} threads\n{}", threads, program
            );
        }
    }

    /// Soundness of Theorem 3.1: the log of any actual run validates, and the
    /// returned witness reproduces the same log.
    #[test]
    fn logs_of_runs_always_validate(db in catalog_strategy(), inputs in inputs_strategy()) {
        let short = models::short();
        let run = short.run(&db, &inputs).unwrap();
        match validate_log(&short, &db, run.log()).unwrap() {
            LogValidity::Valid { witness_inputs } => {
                prop_assert!(log_matches(&short, &db, &witness_inputs, run.log()).unwrap());
            }
            LogValidity::Invalid => prop_assert!(false, "log of a real run declared invalid"),
        }
    }

    /// The temporal safety invariant of `short`: every bill quotes the listed
    /// price, and every delivered product was ordered at some earlier step.
    #[test]
    fn runs_of_short_respect_billing_and_ordering(db in catalog_strategy(), inputs in inputs_strategy()) {
        let short = models::short();
        let run = short.run(&db, &inputs).unwrap();
        for (index, output) in run.outputs().iter().enumerate() {
            for bill in output.relation("sendbill").unwrap().iter() {
                prop_assert!(db.holds("price", bill));
            }
            for delivery in output.relation("deliver").unwrap().iter() {
                // ordered at a strictly earlier step
                let ordered_before = (0..index).any(|j| {
                    run.inputs().get(j).unwrap().holds("order", delivery)
                });
                prop_assert!(ordered_before);
            }
        }
    }

    /// Cumulative state is inflationary: each state instance contains the
    /// previous one.
    #[test]
    fn states_are_inflationary(db in catalog_strategy(), inputs in inputs_strategy()) {
        let short = models::short();
        let run = short.run(&db, &inputs).unwrap();
        for i in 1..run.len() {
            let earlier = run.states().get(i - 1).unwrap();
            let later = run.states().get(i).unwrap();
            prop_assert!(earlier.is_subinstance_of(later));
        }
    }

    /// friendly is log-equivalent to short on shared inputs (the §2.1 claim).
    #[test]
    fn friendly_and_short_log_equivalent(db in catalog_strategy(), inputs in inputs_strategy()) {
        let short = models::short();
        let friendly = models::friendly();
        let friendly_schema = models::friendly_input_schema();
        let widened = InstanceSequence::new(
            friendly_schema.clone(),
            inputs
                .iter()
                .map(|step| {
                    let mut inst = Instance::empty(&friendly_schema);
                    for (name, rel) in step.iter() {
                        for tuple in rel.iter() {
                            inst.insert(name.clone(), tuple.clone()).unwrap();
                        }
                    }
                    inst
                })
                .collect(),
        )
        .unwrap();
        let a = short.run(&db, &inputs).unwrap();
        let b = friendly.run(&db, &widened).unwrap();
        prop_assert_eq!(a.log(), b.log());
    }
}
