//! Spocus transducers (§3.1).

use crate::{CoreError, RelationalTransducer, TransducerSchema};
use rtx_datalog::safety::{check_program_safety, check_semipositive};
use rtx_datalog::{BodyLiteral, CompiledProgram, EvalBudget, Parallelism, Program};
use rtx_relational::{Instance, RelationName};
use std::collections::BTreeSet;
use std::fmt;

/// A Spocus transducer: **S**emi-**p**ositive **o**utputs, **cu**mulative
/// **s**tate (§3.1, Definition).
///
/// Construction validates every Spocus restriction:
///
/// 1. the state relations are exactly `{ past-R | R ∈ in }` with matching
///    arities, and the state function is fixed to cumulation
///    (`past-R := past-R ∪ R`);
/// 2. the output program is a set of rules whose heads are output relations
///    and whose body literals are (possibly negated) atoms over
///    `in ∪ state ∪ db` or inequalities;
/// 3. every rule is safe (each variable occurs in a positive body literal);
/// 4. the program is "flat" — no output relation appears in a body — which
///    makes it trivially non-recursive and semipositive.
///
/// Construction also **compiles** the output program once
/// ([`rtx_datalog::CompiledProgram`]): safety checking, dependency analysis
/// and stratification never run again, and every step joins through hash
/// indexes.  [`RelationalTransducer::run`] is the trait's §2 definition —
/// one full evaluation of the output program per step — and is the
/// reference the [`crate::runtime`] session layer is checked against; a
/// resident service shares one prepared catalog across many runs through
/// that session layer, whose steps evaluate incrementally against the
/// cumulative-state deltas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpocusTransducer {
    name: String,
    schema: TransducerSchema,
    output_program: Program,
    compiled: CompiledProgram,
}

impl SpocusTransducer {
    /// Creates a Spocus transducer, validating the restrictions above.
    pub fn new(
        name: impl Into<String>,
        schema: TransducerSchema,
        output_program: Program,
    ) -> Result<Self, CoreError> {
        // (1) cumulative state shape
        if !schema.has_cumulative_state() {
            return Err(CoreError::NotSpocus {
                detail: format!(
                    "state relations must be exactly {{past-R | R ∈ in}}; got {}",
                    schema.state()
                ),
            });
        }
        // (2) heads are outputs, bodies over in ∪ state ∪ db
        let body_schema = schema.body_schema();
        for rule in output_program.rules() {
            if !schema.output().contains(rule.head.relation.clone()) {
                return Err(CoreError::NotSpocus {
                    detail: format!(
                        "rule head `{}` is not an output relation",
                        rule.head.relation
                    ),
                });
            }
            if schema.output().arity_of(rule.head.relation.clone()) != Some(rule.head.arity()) {
                return Err(CoreError::NotSpocus {
                    detail: format!(
                        "rule head `{}` has arity {} but the schema declares {:?}",
                        rule.head.relation,
                        rule.head.arity(),
                        schema.output().arity_of(rule.head.relation.clone())
                    ),
                });
            }
            for lit in &rule.body {
                if let Some(rel) = lit.relation() {
                    if !body_schema.contains(rel.clone()) {
                        return Err(CoreError::NotSpocus {
                            detail: format!(
                                "body literal over `{rel}` is not an input, state or database relation"
                            ),
                        });
                    }
                    let expected = body_schema.arity_of(rel.clone());
                    let actual = match lit {
                        BodyLiteral::Positive(a) | BodyLiteral::Negative(a) => a.arity(),
                        BodyLiteral::NotEqual(..) => continue,
                    };
                    if expected != Some(actual) {
                        return Err(CoreError::NotSpocus {
                            detail: format!(
                                "body literal over `{rel}` has arity {actual} but the schema declares {expected:?}"
                            ),
                        });
                    }
                }
            }
        }
        // (3) safety
        check_program_safety(&output_program).map_err(|e| CoreError::NotSpocus {
            detail: e.to_string(),
        })?;
        // (4) semipositivity / flatness: negation (and indeed any body
        // reference) only over base relations; by (2) bodies are already over
        // in ∪ state ∪ db, so this is implied, but we keep the explicit check
        // for defence in depth.
        let base: BTreeSet<RelationName> = body_schema.names().cloned().collect();
        check_semipositive(&output_program, &base).map_err(|e| CoreError::NotSpocus {
            detail: e.to_string(),
        })?;

        // Compile once: every later step evaluates with zero re-analysis.
        let compiled =
            CompiledProgram::compile_nonrecursive(&output_program).map_err(CoreError::Datalog)?;

        Ok(SpocusTransducer {
            name: name.into(),
            schema,
            output_program,
            compiled,
        })
    }

    /// The transducer's name (used in diagnostics and displays).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The transducer schema (also available through the
    /// [`RelationalTransducer`] trait; provided inherently so callers do not
    /// need the trait in scope).
    pub fn schema(&self) -> &TransducerSchema {
        &self.schema
    }

    /// The output program.
    pub fn output_program(&self) -> &Program {
        &self.output_program
    }

    /// The rules defining one output relation.
    pub fn rules_for(&self, relation: &RelationName) -> Vec<&rtx_datalog::Rule> {
        self.output_program.rules_for(relation)
    }

    /// The compiled form of the output program (compiled once at
    /// construction).
    pub fn compiled_output_program(&self) -> &CompiledProgram {
        &self.compiled
    }
}

impl RelationalTransducer for SpocusTransducer {
    fn schema(&self) -> &TransducerSchema {
        &self.schema
    }

    /// Cumulative state: `past-R := past-R ∪ Iᵢ(R)` for every input `R`.
    ///
    /// Cumulation is a fixed set union computed directly on the
    /// copy-on-write tuple sets — no datalog evaluation, and no per-tuple
    /// cloning when the previous `past-R` is empty (the union shares the
    /// input's tuple set).
    fn state_step(
        &self,
        input: &Instance,
        previous_state: &Instance,
        _db: &Instance,
    ) -> Result<Instance, CoreError> {
        let mut next = previous_state.clone();
        for (name, relation) in input.iter() {
            let past = name.past();
            if self.schema.state().contains(past.clone()) {
                next.absorb_relation(past, relation)?;
            }
        }
        Ok(next)
    }

    /// Output: evaluate the compiled semipositive non-recursive program
    /// against `input ∪ previous_state ∪ db` (passed as separate sources —
    /// the schemas are disjoint, so no union is materialised) and fill out
    /// the full output schema (the program may not mention every output
    /// relation).  No safety checking, dependency analysis or stratification
    /// happens here — all of it ran once at construction.
    fn output_step(
        &self,
        input: &Instance,
        previous_state: &Instance,
        db: &Instance,
    ) -> Result<Instance, CoreError> {
        let (derived, _) = self.compiled.evaluate(
            &[input, previous_state, db],
            None,
            Parallelism::default(),
            EvalBudget::UNLIMITED,
        )?;
        let mut output = Instance::empty(self.schema.output());
        // Head relations are validated output relations with matching
        // arities, and absorbing into fresh empty relations shares the
        // derived tuple sets instead of copying them.
        output.absorb(&derived)?;
        Ok(output)
    }
}

impl fmt::Display for SpocusTransducer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "transducer {}", self.name)?;
        writeln!(f, "{}", self.schema)?;
        writeln!(f, "output rules")?;
        write!(f, "{}", self.output_program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_datalog::parse_program;
    use rtx_relational::{InstanceSequence, Schema, Tuple, Value};

    fn short_schema() -> TransducerSchema {
        let input = Schema::from_pairs([("order", 1), ("pay", 2)]).unwrap();
        TransducerSchema::new(
            input.clone(),
            TransducerSchema::cumulative_state_schema(&input),
            Schema::from_pairs([("sendbill", 2), ("deliver", 1)]).unwrap(),
            Schema::from_pairs([("price", 2), ("available", 1)]).unwrap(),
            ["sendbill", "pay", "deliver"].map(RelationName::new),
        )
        .unwrap()
    }

    fn short_program() -> Program {
        parse_program(
            "sendbill(X,Y) :- order(X), price(X,Y), NOT past-pay(X,Y).\n\
             deliver(X) :- past-order(X), price(X,Y), pay(X,Y), NOT past-pay(X,Y).",
        )
        .unwrap()
    }

    fn short() -> SpocusTransducer {
        SpocusTransducer::new("short", short_schema(), short_program()).unwrap()
    }

    fn db() -> Instance {
        let schema = Schema::from_pairs([("price", 2), ("available", 1)]).unwrap();
        let mut db = Instance::empty(&schema);
        for (p, amt) in [("time", 855), ("newsweek", 845), ("lemonde", 8350)] {
            db.insert("price", Tuple::new(vec![Value::str(p), Value::int(amt)]))
                .unwrap();
            db.insert("available", Tuple::from_iter([p])).unwrap();
        }
        db
    }

    fn input_step(orders: &[&str], pays: &[(&str, i64)]) -> Instance {
        let schema = Schema::from_pairs([("order", 1), ("pay", 2)]).unwrap();
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
    fn short_run_matches_paper_semantics() {
        let t = short();
        let inputs = InstanceSequence::new(
            Schema::from_pairs([("order", 1), ("pay", 2)]).unwrap(),
            vec![
                input_step(&["time", "newsweek"], &[]),
                input_step(&[], &[("time", 855)]),
                input_step(&[], &[("time", 855)]),
            ],
        )
        .unwrap();
        let run = t.run(&db(), &inputs).unwrap();

        // step 1: bills for both ordered products, no delivery
        let o1 = run.outputs().get(0).unwrap();
        assert!(o1.holds(
            "sendbill",
            &Tuple::new(vec![Value::str("time"), Value::int(855)])
        ));
        assert!(o1.holds(
            "sendbill",
            &Tuple::new(vec![Value::str("newsweek"), Value::int(845)])
        ));
        assert!(o1.relation("deliver").unwrap().is_empty());

        // step 2: payment for time triggers delivery of time
        let o2 = run.outputs().get(1).unwrap();
        assert!(o2.holds("deliver", &Tuple::from_iter(["time"])));
        assert!(o2.relation("sendbill").unwrap().is_empty());

        // step 3: paying again does nothing (past-pay blocks re-delivery)
        let o3 = run.outputs().get(2).unwrap();
        assert!(o3.relation("deliver").unwrap().is_empty());

        // state cumulates: after step 3, past-pay holds (time, 855)
        let s3 = run.states().get(2).unwrap();
        assert!(s3.holds(
            "past-pay",
            &Tuple::new(vec![Value::str("time"), Value::int(855)])
        ));
        assert!(s3.holds("past-order", &Tuple::from_iter(["newsweek"])));
    }

    #[test]
    fn delivery_requires_prior_order() {
        let t = short();
        let inputs = InstanceSequence::new(
            Schema::from_pairs([("order", 1), ("pay", 2)]).unwrap(),
            vec![input_step(&[], &[("time", 855)])],
        )
        .unwrap();
        let run = t.run(&db(), &inputs).unwrap();
        // paying without a prior order: no delivery (past-order empty)
        assert!(run
            .outputs()
            .get(0)
            .unwrap()
            .relation("deliver")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn non_cumulative_state_rejected() {
        let input = Schema::from_pairs([("order", 1)]).unwrap();
        let schema = TransducerSchema::new(
            input,
            Schema::from_pairs([("history", 1)]).unwrap(),
            Schema::from_pairs([("deliver", 1)]).unwrap(),
            Schema::empty(),
            [RelationName::new("deliver")],
        )
        .unwrap();
        let program = parse_program("deliver(X) :- order(X).").unwrap();
        assert!(matches!(
            SpocusTransducer::new("bad", schema, program),
            Err(CoreError::NotSpocus { .. })
        ));
    }

    #[test]
    fn head_must_be_output_relation() {
        let program = parse_program("price(X,Y) :- order(X), pay(X,Y).").unwrap();
        assert!(matches!(
            SpocusTransducer::new("bad", short_schema(), program),
            Err(CoreError::NotSpocus { .. })
        ));
    }

    #[test]
    fn body_must_use_declared_relations_with_correct_arity() {
        let unknown = parse_program("deliver(X) :- warehouse(X).").unwrap();
        assert!(matches!(
            SpocusTransducer::new("bad", short_schema(), unknown),
            Err(CoreError::NotSpocus { .. })
        ));
        let wrong_arity = parse_program("deliver(X) :- order(X, Y), price(X, Y).").unwrap();
        assert!(matches!(
            SpocusTransducer::new("bad", short_schema(), wrong_arity),
            Err(CoreError::NotSpocus { .. })
        ));
        let wrong_head_arity = parse_program("deliver(X, Y) :- order(X), price(X, Y).").unwrap();
        assert!(matches!(
            SpocusTransducer::new("bad", short_schema(), wrong_head_arity),
            Err(CoreError::NotSpocus { .. })
        ));
    }

    #[test]
    fn unsafe_rules_rejected() {
        let program = parse_program("deliver(X) :- NOT past-order(X).").unwrap();
        assert!(matches!(
            SpocusTransducer::new("bad", short_schema(), program),
            Err(CoreError::NotSpocus { .. })
        ));
    }

    #[test]
    fn output_relations_may_not_appear_in_bodies() {
        let program = parse_program(
            "sendbill(X,Y) :- order(X), price(X,Y).\n\
             deliver(X) :- sendbill(X,Y), pay(X,Y).",
        )
        .unwrap();
        assert!(matches!(
            SpocusTransducer::new("bad", short_schema(), program),
            Err(CoreError::NotSpocus { .. })
        ));
    }

    #[test]
    fn display_includes_name_schema_and_rules() {
        let text = short().to_string();
        assert!(text.contains("transducer short"));
        assert!(text.contains("deliver(X)"));
        assert!(text.contains("log"));
    }

    #[test]
    fn accessors() {
        let t = short();
        assert_eq!(t.name(), "short");
        assert_eq!(t.output_program().len(), 2);
        assert_eq!(t.rules_for(&RelationName::new("deliver")).len(), 1);
        assert!(!t.compiled_output_program().is_recursive());
    }

    /// Acceptance criterion of the compiled-evaluation work: after
    /// construction, stepping the transducer performs **no** safety check,
    /// dependency-graph construction or stratification.  The datalog crate
    /// counts analyses per thread; stepping must not move the counter.
    #[test]
    fn steps_perform_no_program_reanalysis() {
        let t = short();
        let db = db();
        let inputs = InstanceSequence::new(
            Schema::from_pairs([("order", 1), ("pay", 2)]).unwrap(),
            vec![
                input_step(&["time"], &[]),
                input_step(&[], &[("time", 855)]),
                input_step(&["newsweek"], &[("newsweek", 845)]),
            ],
        )
        .unwrap();
        let analyses_after_construction = rtx_datalog::compile::analysis_count();
        for _ in 0..3 {
            t.run(&db, &inputs).unwrap();
        }
        let state = Instance::empty(t.schema().state());
        t.output_step(&input_step(&["time"], &[]), &state, &db)
            .unwrap();
        assert_eq!(
            rtx_datalog::compile::analysis_count(),
            analyses_after_construction,
            "stepping a Spocus transducer must not re-analyse its output program"
        );
    }

    /// The explicit-run path (with the database pre-indexed) and the trait's
    /// default step-by-step path must produce identical runs.
    #[test]
    fn prepared_run_matches_stepwise_outputs() {
        let t = short();
        let db = db();
        let inputs = InstanceSequence::new(
            Schema::from_pairs([("order", 1), ("pay", 2)]).unwrap(),
            vec![
                input_step(&["time", "newsweek"], &[]),
                input_step(&[], &[("time", 855)]),
                input_step(&["lemonde"], &[("newsweek", 845)]),
            ],
        )
        .unwrap();
        let run = t.run(&db, &inputs).unwrap();
        let mut state = Instance::empty(t.schema().state());
        for (i, input) in inputs.iter().enumerate() {
            let output = t.output_step(input, &state, &db).unwrap();
            assert_eq!(run.outputs().get(i), Some(&output), "output at step {i}");
            state = t.state_step(input, &state, &db).unwrap();
            assert_eq!(run.states().get(i), Some(&state), "state at step {i}");
        }
    }
}
