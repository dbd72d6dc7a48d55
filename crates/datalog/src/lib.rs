//! # rtx-datalog
//!
//! A datalog engine with negation and inequality — the rule language in which
//! the paper's Spocus transducers express their output programs (§3.1,
//! Definition: "output relations are defined by non-recursive, semipositive
//! datalog programs with inequality").
//!
//! The crate provides more than the minimum Spocus fragment so that it can
//! serve as a stand-alone substrate:
//!
//! * [`ast`] — rules `A0 :- A1, …, An` whose body literals are positive
//!   atoms, negated atoms (`NOT R(x̄)`) and inequalities (`x <> y`), plus
//!   whole programs;
//! * [`parser`] — a parser for the concrete syntax used throughout the
//!   paper (`deliver(X) :- past-order(X), price(X,Y), pay(X,Y), NOT
//!   past-pay(X,Y)`);
//! * [`safety`] — the safety condition of the paper (every variable of a rule
//!   occurs in a positive body literal) and the *semipositive* condition
//!   (negation applied only to EDB relations);
//! * [`graph`] — the predicate dependency graph, strongly connected
//!   components, recursion and stratification analysis;
//! * [`engine`] — the reference interpreter: single-pass evaluation of
//!   non-recursive programs in topological order, and a stratified fixpoint
//!   engine with both naive and semi-naive iteration for general (recursive)
//!   programs, used as the oracle by the ablation benchmarks and the
//!   randomized equivalence tests;
//! * [`compile`] — the production evaluation path: one-time rule compilation
//!   (safety, stratification, slot-resolved registers, greedy bound-prefix
//!   join ordering) plus hash-indexed joins, so a transducer that evaluates
//!   the same program at every step performs zero re-analysis and no
//!   full-relation scans for selective rules;
//! * [`resident`] — the owned, version-stamped [`ResidentDb`]: prepare a
//!   database once, share it (behind an `Arc`) across runs, sessions and
//!   threads, and let per-relation version stamps invalidate exactly the
//!   hash indexes whose relations changed;
//! * [`incremental`] — delta-aware stepping for flat programs over
//!   cumulative state: a [`StepEvaluator`] caches each rule's positive-join
//!   rows and extends them semi-naively from the per-step `past-R` delta, so
//!   step *i+1* joins only against what changed;
//! * [`dred`] — first-class retraction: a [`DredEngine`] keeps a stratified
//!   program's fixpoint incrementally maintained under arbitrary base-tuple
//!   insertions *and deletions*, combining Gupta–Mumick support counting
//!   (non-recursive components, via signed delta rules that never copy
//!   pre-mutation state) with delete-rederive (recursive components), at
//!   affected-closure cost instead of re-evaluation;
//! * [`demand`] — demand-driven evaluation: the magic-set rewrite and
//!   constant specialization that turn "which bindings will actually be
//!   read" into a program transformation, so a per-session probe costs the
//!   session's footprint instead of the catalog (see *Demand-driven
//!   evaluation* below);
//! * [`pool`] — the scoped-thread executor behind data-parallel stratum
//!   evaluation: independent rules of a stratum and chunks of one rule's
//!   outer candidates (its level-0 join tuples, or its level-1 pairs when
//!   level 0 is too small to split) fan out to a fixed worker pool under a
//!   [`Parallelism`] policy, with per-pass sinks merged in fixed
//!   `(stratum, rule, pass, chunk)` order so parallel results (and
//!   [`EvalStats`] counters) are **bit-identical to sequential** — the
//!   determinism contract the property suite pins at 1/2/8 threads.
//!
//! The prepare/evaluate lifecycle for a resident service is:
//!
//! 1. compile each program once ([`CompiledProgram::compile`]);
//! 2. make the shared database resident once ([`CompiledProgram::prepare`]
//!    or [`ResidentDb::new`] + [`ResidentDb::prepare_for`]);
//! 3. evaluate any number of times from any thread
//!    ([`CompiledProgram::evaluate`] over a [`ResidentDb::view_for`] view,
//!    or a [`StepEvaluator`] per session for incremental stepping);
//! 4. mutate the resident database whenever — [`ResidentDb::insert`] *or*
//!    [`ResidentDb::retract`].  Either way the mutation lifecycle is the
//!    same: the write lands in the copy-on-write instance, the relation's
//!    version stamp is bumped, the next evaluation's view rebuilds exactly
//!    the hash indexes whose relations moved, and sessions compare their
//!    snapshot against [`ResidentDb::version`] /
//!    [`ResidentDb::stale_relations`] so a [`StepEvaluator`] reseeds
//!    (via `invalidate_relations`) exactly the step caches the mutation
//!    invalidated — retraction included, because every grow-block in the
//!    cache is version-guarded rather than assumed append-only.
//!
//! For a service that wants the *derived* fixpoint itself maintained under
//! mutation (not just indexes and caches), wrap the program in a
//! [`DredEngine`] instead: one retraction then costs on the order of the
//! derivation closure it actually affects.
//!
//! ## Demand-driven evaluation
//!
//! The [`demand`] module makes evaluation goal-directed.  Its lifecycle is
//! **adorn → seed → specialize → evaluate**:
//!
//! 1. **Adorn.**  Each [`DemandGoal`] names a derived relation and a
//!    binding pattern ([`Adornment`], e.g. `sendbill@bf` — first column
//!    bound).  [`magic_rewrite`] propagates the patterns through rule
//!    bodies left-to-right, producing adorned rules guarded by *magic*
//!    predicates (and supplementary chains where a body holds several
//!    derived subgoals).
//! 2. **Seed.**  Bound goals read their demanded keys from seed relations:
//!    static seeds stated on the goal ([`DemandGoal::with_seeds`]) land in
//!    [`DemandProgram::seed_instance`]; a caller may merge further
//!    *runtime* seeds per evaluation (a session's per-step inputs) and
//!    filter with [`DemandProgram::restrict_with`].
//! 3. **Specialize.**  A goal whose bound values are session constants
//!    ([`DemandGoal::constants`]) is partially evaluated instead: the
//!    constants are substituted into the rules and no magic guard is
//!    emitted at all.
//! 4. **Evaluate.**  The rewritten program is an ordinary program —
//!    compile it ([`CompiledProgram::compile_demand_program`]) or set
//!    [`EvalOptions::demand`] to [`DemandPolicy::Demand`]; either way the
//!    result, mapped back through [`DemandProgram::restrict`] /
//!    [`DemandProgram::footprint`], is **bit-identical** to full
//!    evaluation restricted to the demanded footprint (pinned by the
//!    randomized property suite at 1/2/8 threads).  Magic/supplementary
//!    bookkeeping is reported separately in
//!    [`EvalStats::magic_applications`] / [`EvalStats::magic_tuples_derived`],
//!    so the original-rule counters stay comparable across policies.
//!
//! ## Environment variables
//!
//! Process-wide defaults across the workspace (each is a *default*; the
//! corresponding API setter always wins):
//!
//! | Variable | Values | Effect |
//! |---|---|---|
//! | `RTX_THREADS` | `n` ≥ 1 (unset = core count) | Default worker count of [`Parallelism`]/[`Pool`] for parallel stratum evaluation. |
//! | `RTX_DEMAND` | `demand`/`on`, `full`/`off` | Default [`DemandPolicy`]: route evaluation through the magic-set rewrite, or evaluate unrewritten (demanded sessions then filter to the same footprint — the kill-switch is result-identical). |
//! | `RTX_MONITOR` | `off`, `observe`, `enforce` | Default monitor policy of the runtime's session guardrails (`rtx-core::supervise`). |
//! | `RTX_FSYNC` | `always`, `never`, `every:n` | Fsync policy of the durable store's write-ahead log (`rtx-store`). |
//!
//! Parsing is **strict and uniform** (`rtx_relational::env`): values are
//! trimmed and keywords are case-insensitive, but anything malformed is a
//! loud error naming the variable, the offending value and the accepted
//! grammar — never a silent fall-back to the default.  Unset or blank means
//! "use the default".
//!
//! Rules share the [`rtx_logic::Term`] type so the verification crate can
//! translate rule bodies directly into the ∃\*∀\*FO sentences of §3.2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod compile;
pub mod demand;
pub mod dred;
pub mod engine;
pub mod graph;
pub mod incremental;
pub mod parser;
pub mod pool;
pub mod resident;
pub mod safety;

mod error;

pub use ast::{Atom, BodyLiteral, Program, Rule};
pub use compile::{CompiledProgram, CompiledRule};
pub use demand::{magic_rewrite, Adornment, DemandGoal, DemandPolicy, DemandProgram};
pub use dred::{DredEngine, DredStats, MutationBatch};
pub use engine::{
    evaluate_nonrecursive, evaluate_stratified, EvalBudget, EvalOptions, EvalStats,
    FixpointStrategy,
};
pub use error::DatalogError;
pub use incremental::{ChangeClass, StepEvaluator};
pub use parser::{parse_program, parse_rule};
pub use pool::{Parallelism, Pool};
pub use resident::{ResidentDb, ResidentView};

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_relational::{Instance, Schema, Tuple, Value};

    /// End-to-end: the `short` transducer's output program from §2.1.
    #[test]
    fn short_output_program_end_to_end() {
        let program = parse_program(
            "sendbill(X,Y) :- order(X), price(X,Y), NOT past-pay(X,Y).\n\
             deliver(X) :- past-order(X), price(X,Y), pay(X,Y), NOT past-pay(X,Y).",
        )
        .unwrap();

        let edb_schema = Schema::from_pairs([
            ("order", 1),
            ("pay", 2),
            ("price", 2),
            ("past-order", 1),
            ("past-pay", 2),
        ])
        .unwrap();
        let mut edb = Instance::empty(&edb_schema);
        edb.insert(
            "price",
            Tuple::from_iter(vec![Value::str("time"), Value::int(855)]),
        )
        .unwrap();
        edb.insert("order", Tuple::from_iter(vec![Value::str("time")]))
            .unwrap();

        let out = evaluate_nonrecursive(&program, &edb).unwrap();
        assert!(out.holds(
            "sendbill",
            &Tuple::from_iter(vec![Value::str("time"), Value::int(855)])
        ));
        assert!(out.relation("deliver").unwrap().is_empty());
    }
}
