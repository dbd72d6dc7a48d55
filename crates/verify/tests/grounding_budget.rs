//! Grounding fences: exact sizes of what each decision procedure grounds.
//!
//! Every satisfiability-based procedure of the paper (Theorems 3.1, 3.2,
//! 3.3, 3.5 and 4.4/4.6) reduces to Bernays–Schönfinkel satisfiability, so
//! its cost is the size of the propositional formulas
//! [`solve_bs_with_stats`] grounds.  Those sizes are exact and repeat on
//! every run, so unlike a timer they can gate tier-1 on a shared box.  Each
//! fence reads [`grounding_count`] — running totals of ground nodes and
//! ground atoms over every candidate domain tried — before and after one
//! call, and pins the difference.
//!
//! The pins are today's counts.  A change that grounds less on purpose (a
//! relevance bound, say) lowers them and states the old and new values; a
//! change that grounds more without meaning to fails here.
//!
//! `cargo test --release -p rtx-verify --test grounding_budget -- --nocapture`
//! prints every count.

use rtx_core::{models, SpocusBuilder, SpocusTransducer};
use rtx_datalog::{Atom, BodyLiteral};
use rtx_logic::bernays::{grounding_count, solve_bs_with_stats, GroundingStats};
use rtx_logic::{BsProblem, Formula, Term};
use rtx_relational::Value;
use rtx_verify::enforce::add_enforcement;
use rtx_verify::{
    customization_preserves_logs, error_free_containment, error_free_runs_satisfy,
    holds_in_all_runs, is_goal_reachable, validate_log, Goal, SdiConstraint,
};

/// Calls `decide` and returns its result with what it grounded:
/// `(ground nodes, ground atoms)` summed over every grounding attempted.
fn grounded<T>(decide: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let (nodes, atoms) = grounding_count();
    let result = decide();
    let (after_nodes, after_atoms) = grounding_count();
    (result, (after_nodes - nodes, after_atoms - atoms))
}

/// Prints a fence's count, then pins it.
fn pin(label: &str, counted: (u64, u64), pinned: (u64, u64)) {
    eprintln!(
        "{label}: {} ground nodes, {} ground atoms",
        counted.0, counted.1
    );
    assert_eq!(counted, pinned, "{label}: (ground nodes, ground atoms)");
}

/// Theorem 3.1: auditing an honest `short` log at two lengths, and
/// rejecting a tampered one.
#[test]
fn log_validation_grounds_a_pinned_formula() {
    let short = models::short();
    let db = rtx_workloads::catalog(3, 11);
    for (steps, pinned) in [(1usize, (553, 42)), (2, (1_395, 84))] {
        let inputs = rtx_workloads::customer_session(&db, steps, 3, 1.0, 3);
        let log = rtx_workloads::log_of(&short, &db, &inputs);
        let (verdict, counted) = grounded(|| validate_log(&short, &db, &log).unwrap());
        assert!(verdict.is_valid());
        pin(
            &format!("validate_log, honest {steps}-step log"),
            counted,
            pinned,
        );
    }

    let inputs = rtx_workloads::customer_session(&db, 1, 3, 1.0, 3);
    let log = rtx_workloads::tamper_log(&rtx_workloads::log_of(&short, &db, &inputs), "p2");
    let (verdict, counted) = grounded(|| validate_log(&short, &db, &log).unwrap());
    assert!(!verdict.is_valid());
    pin("validate_log, tampered 1-step log", counted, (1_343, 98));
}

/// Theorem 3.2: a reachable and an unreachable `deliver` goal of `short`
/// over the Figure 1 database.
#[test]
fn goal_reachability_grounds_a_pinned_formula() {
    let short = models::short();
    let db = models::figure1_database();
    let goal =
        |product: &str| Goal::atom(Atom::new("deliver", [Term::constant(Value::str(product))]));

    let (witness, counted) = grounded(|| is_goal_reachable(&short, &db, &goal("time")).unwrap());
    assert!(witness.is_some());
    pin("is_goal_reachable, deliver(time)", counted, (37, 13));

    let (witness, counted) =
        grounded(|| is_goal_reachable(&short, &db, &goal("economist")).unwrap());
    assert!(witness.is_none());
    pin("is_goal_reachable, deliver(economist)", counted, (92, 32));
}

/// Theorem 3.3: `sendbill(x,y) → price(x,y)` holds in every run of the
/// category model, over two small category catalogs.
#[test]
fn temporal_verification_grounds_a_pinned_formula() {
    let model = rtx_workloads::category_model();
    let billed_at_list_price = Formula::forall(
        ["x", "y"],
        Formula::implies(
            Formula::atom("sendbill", [Term::var("x"), Term::var("y")]),
            Formula::atom("price", [Term::var("x"), Term::var("y")]),
        ),
    );
    for (products, pinned) in [(3usize, (2_117, 332)), (6, (6_821, 1_028))] {
        let db = rtx_workloads::category_catalog(products, 5, 42);
        let (verdict, counted) =
            grounded(|| holds_in_all_runs(&model, &db, &billed_at_list_price).unwrap());
        assert!(verdict.holds());
        pin(
            &format!("holds_in_all_runs, category, {products} products"),
            counted,
            pinned,
        );
    }
}

/// Theorem 3.5: `friendly` preserves the logs of `short`; a customization
/// that delivers on order does not.
#[test]
fn customization_containment_grounds_a_pinned_formula() {
    let short = models::short();
    let db = models::figure1_database();

    let (verdict, counted) =
        grounded(|| customization_preserves_logs(&short, &models::friendly(), &db).unwrap());
    assert!(verdict.is_contained());
    pin("customization_preserves_logs, friendly", counted, (1, 0));

    let rogue = SpocusBuilder::new("rogue")
        .input("order", 1)
        .input("pay", 2)
        .database("price", 2)
        .database("available", 1)
        .output("sendbill", 2)
        .output("deliver", 1)
        .log(["sendbill", "pay", "deliver"])
        .output_rule("sendbill(X,Y) :- order(X), price(X,Y), NOT past-pay(X,Y)")
        .output_rule("deliver(X) :- order(X), price(X,Y)")
        .build()
        .unwrap();
    let (verdict, counted) =
        grounded(|| customization_preserves_logs(&short, &rogue, &db).unwrap());
    assert!(!verdict.is_contained());
    pin("customization_preserves_logs, rogue", counted, (1_239, 84));
}

/// `order(x) → available(x)`.
fn availability_policy() -> SdiConstraint {
    SdiConstraint::new(
        vec![BodyLiteral::Positive(Atom::new("order", [Term::var("x")]))],
        Formula::atom("available", [Term::var("x")]),
    )
    .unwrap()
}

/// `pay(x,y) → price(x,y)`.
fn price_policy() -> SdiConstraint {
    SdiConstraint::new(
        vec![BodyLiteral::Positive(Atom::new(
            "pay",
            [Term::var("x"), Term::var("y")],
        ))],
        Formula::atom("price", [Term::var("x"), Term::var("y")]),
    )
    .unwrap()
}

/// Theorems 4.4 and 4.6: a price policy over the error-free runs of a
/// `short` that enforces it and of one that does not, and error-free
/// containment between the two, both ways.
#[test]
fn error_free_verification_grounds_a_pinned_formula() {
    let short = models::short();
    let db = models::figure1_database();
    let lenient: SpocusTransducer = add_enforcement(&short, &[availability_policy()]).unwrap();
    let strict = add_enforcement(&short, &[availability_policy(), price_policy()]).unwrap();

    let (verdict, counted) =
        grounded(|| error_free_runs_satisfy(&strict, &db, &price_policy()).unwrap());
    assert!(verdict.holds());
    pin("error_free_runs_satisfy, enforced", counted, (1_288, 170));

    let (verdict, counted) =
        grounded(|| error_free_runs_satisfy(&lenient, &db, &price_policy()).unwrap());
    assert!(!verdict.holds());
    pin("error_free_runs_satisfy, not enforced", counted, (171, 42));

    let (verdict, counted) = grounded(|| error_free_containment(&strict, &lenient, &db).unwrap());
    assert!(verdict.holds());
    pin(
        "error_free_containment, strict in lenient",
        counted,
        (452, 98),
    );

    let (verdict, counted) = grounded(|| error_free_containment(&lenient, &strict, &db).unwrap());
    assert!(!verdict.holds());
    pin(
        "error_free_containment, lenient in strict",
        counted,
        (281, 55),
    );
}

/// `k` pairwise-distinct witnesses, all in the free relation `R`, beside a
/// universal antisymmetry constraint on `S`, with `constants` extra
/// constants in every candidate domain.
fn witnesses(k: usize, constants: usize) -> BsProblem {
    let vars: Vec<String> = (0..k).map(|i| format!("x{i}")).collect();
    let mut conjuncts: Vec<Formula> = vars
        .iter()
        .map(|v| Formula::atom("R", [Term::var(v.clone()), Term::var(v.clone())]))
        .collect();
    for i in 0..k {
        for j in (i + 1)..k {
            conjuncts.push(Formula::neq(
                Term::var(vars[i].clone()),
                Term::var(vars[j].clone()),
            ));
        }
    }
    let existential = Formula::exists(vars, Formula::and(conjuncts));
    let universal = Formula::forall(
        ["u", "v"],
        Formula::implies(
            Formula::and(vec![
                Formula::atom("S", [Term::var("u"), Term::var("v")]),
                Formula::atom("S", [Term::var("v"), Term::var("u")]),
            ]),
            Formula::eq(Term::var("u"), Term::var("v")),
        ),
    );
    let mut problem = BsProblem::new(Formula::and(vec![existential, universal]));
    problem.add_constants((0..constants).map(|i| Value::str(format!("c{i}"))));
    problem
}

/// [`GroundingStats`] from its fields, in declaration order.
fn stats(
    domain_size: usize,
    ground_nodes: usize,
    ground_atoms: usize,
    domains_tried: usize,
) -> GroundingStats {
    GroundingStats {
        domain_size,
        ground_nodes,
        ground_atoms,
        domains_tried,
    }
}

/// Solves `problem`, and pins both the statistics it reports for the last
/// domain tried and the totals over every domain tried.
fn pin_solve(label: &str, problem: &BsProblem, stats_pinned: GroundingStats, pinned: (u64, u64)) {
    let ((outcome, stats), counted) = grounded(|| solve_bs_with_stats(problem).unwrap());
    assert!(outcome.is_satisfiable());
    eprintln!("{label}: {stats:?}");
    assert_eq!(stats, stats_pinned, "{label}");
    pin(label, counted, pinned);
}

/// Grounding size as the number of existential witnesses grows.
#[test]
fn bs_grounding_is_pinned_across_existential_width() {
    for (k, stats, pinned) in [
        (1usize, stats(2, 29, 6, 1), (29, 6)),
        (3, stats(3, 327, 12, 2), (434, 18)),
        (5, stats(5, 81_403, 30, 4), (115_360, 68)),
    ] {
        pin_solve(
            &format!("solve_bs, k={k}, 2 constants"),
            &witnesses(k, 2),
            stats,
            pinned,
        );
    }
}

/// Grounding size as the number of constants grows.
#[test]
fn bs_grounding_is_pinned_across_constants() {
    for (constants, stats, pinned) in [
        (2usize, stats(2, 47, 6, 1), (47, 6)),
        (6, stats(6, 399, 42, 1), (399, 42)),
        (12, stats(12, 1_587, 156, 1), (1_587, 156)),
    ] {
        pin_solve(
            &format!("solve_bs, k=2, {constants} constants"),
            &witnesses(2, constants),
            stats,
            pinned,
        );
    }
}
