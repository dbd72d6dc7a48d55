//! The abstract relational-transducer machine and its run semantics.

use crate::{CoreError, Run, TransducerSchema};
use rtx_relational::{Instance, InstanceSequence};

/// A relational transducer (§2.2): a transducer schema together with a state
/// function `σ` and an output function `ω`.
///
/// Both functions see the current input `Iᵢ`, the previous state `Sᵢ₋₁`
/// (empty at the first step) and the database `D`, and produce the next state
/// and the current output respectively.  The trait is implemented by
/// [`crate::SpocusTransducer`] and by the gadget transducers of the
/// verification crate (which need richer state functions than Spocus allows).
pub trait RelationalTransducer {
    /// The transducer schema.
    fn schema(&self) -> &TransducerSchema;

    /// The state function `σ(Iᵢ, Sᵢ₋₁, D)`.
    fn state_step(
        &self,
        input: &Instance,
        previous_state: &Instance,
        db: &Instance,
    ) -> Result<Instance, CoreError>;

    /// The output function `ω(Iᵢ, Sᵢ₋₁, D)`.
    fn output_step(
        &self,
        input: &Instance,
        previous_state: &Instance,
        db: &Instance,
    ) -> Result<Instance, CoreError>;

    /// Runs the transducer on an input sequence and a database, producing the
    /// state, output and log sequences of §2.2:
    ///
    /// * `Sᵢ = σ(Iᵢ, Sᵢ₋₁, D)` with `S₀` empty,
    /// * `Oᵢ = ω(Iᵢ, Sᵢ₋₁, D)`,
    /// * `Lᵢ = (Iᵢ ∪ Oᵢ)|log`.
    fn run(&self, db: &Instance, inputs: &InstanceSequence) -> Result<Run, CoreError> {
        let schema = self.schema();
        if inputs.schema() != schema.input() {
            return Err(CoreError::SchemaMismatch {
                detail: format!(
                    "input sequence schema {} does not match the transducer input schema {}",
                    inputs.schema(),
                    schema.input()
                ),
            });
        }
        let db_schema = db.schema();
        if &db_schema != schema.db() {
            return Err(CoreError::SchemaMismatch {
                detail: format!(
                    "database schema {} does not match the transducer db schema {}",
                    db_schema,
                    schema.db()
                ),
            });
        }

        let mut states = InstanceSequence::empty(schema.state().clone());
        let mut outputs = InstanceSequence::empty(schema.output().clone());
        let mut previous_state = Instance::empty(schema.state());
        for input in inputs.iter() {
            outputs.push(self.output_step(input, &previous_state, db)?)?;
            let next_state = self.state_step(input, &previous_state, db)?;
            states.push(next_state.clone())?;
            previous_state = next_state;
        }
        Run::new(schema.clone(), db.clone(), inputs.clone(), states, outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_relational::{RelationName, Schema, Tuple};

    /// A tiny hand-rolled transducer (not Spocus): echoes its input relation
    /// `in-msg` to the output relation `echo` and remembers nothing.
    struct Echo {
        schema: TransducerSchema,
    }

    impl Echo {
        fn new() -> Self {
            let input = Schema::from_pairs([("in-msg", 1)]).unwrap();
            let output = Schema::from_pairs([("echo", 1)]).unwrap();
            let schema = TransducerSchema::new(
                input,
                Schema::empty(),
                output,
                Schema::empty(),
                [RelationName::new("echo")],
            )
            .unwrap();
            Echo { schema }
        }
    }

    impl RelationalTransducer for Echo {
        fn schema(&self) -> &TransducerSchema {
            &self.schema
        }

        fn state_step(
            &self,
            _input: &Instance,
            previous_state: &Instance,
            _db: &Instance,
        ) -> Result<Instance, CoreError> {
            Ok(previous_state.clone())
        }

        fn output_step(
            &self,
            input: &Instance,
            _previous_state: &Instance,
            _db: &Instance,
        ) -> Result<Instance, CoreError> {
            let mut out = Instance::empty(self.schema.output());
            for tuple in input.relation("in-msg").into_iter().flat_map(|r| r.iter()) {
                out.insert("echo", tuple.clone())?;
            }
            Ok(out)
        }
    }

    fn input_step(values: &[&str]) -> Instance {
        let schema = Schema::from_pairs([("in-msg", 1)]).unwrap();
        let mut inst = Instance::empty(&schema);
        for v in values {
            inst.insert("in-msg", Tuple::from_iter([*v])).unwrap();
        }
        inst
    }

    #[test]
    fn run_produces_aligned_sequences() {
        let echo = Echo::new();
        let inputs = InstanceSequence::new(
            Schema::from_pairs([("in-msg", 1)]).unwrap(),
            vec![
                input_step(&["hello"]),
                input_step(&[]),
                input_step(&["bye"]),
            ],
        )
        .unwrap();
        let db = Instance::empty(&Schema::empty());
        let run = echo.run(&db, &inputs).unwrap();
        assert_eq!(run.len(), 3);
        assert!(run
            .outputs()
            .get(0)
            .unwrap()
            .holds("echo", &Tuple::from_iter(["hello"])));
        assert!(run.outputs().get(1).unwrap().is_empty());
        assert!(run
            .outputs()
            .get(2)
            .unwrap()
            .holds("echo", &Tuple::from_iter(["bye"])));
        // the log only contains `echo`
        assert_eq!(run.log().schema().len(), 1);
        assert!(run
            .log()
            .get(0)
            .unwrap()
            .holds("echo", &Tuple::from_iter(["hello"])));
    }

    #[test]
    fn run_rejects_mismatched_schemas() {
        let echo = Echo::new();
        let wrong_inputs = InstanceSequence::empty(Schema::from_pairs([("other", 1)]).unwrap());
        let db = Instance::empty(&Schema::empty());
        assert!(matches!(
            echo.run(&db, &wrong_inputs),
            Err(CoreError::SchemaMismatch { .. })
        ));

        let inputs = InstanceSequence::empty(Schema::from_pairs([("in-msg", 1)]).unwrap());
        let wrong_db = Instance::empty(&Schema::from_pairs([("junk", 1)]).unwrap());
        assert!(matches!(
            echo.run(&wrong_db, &inputs),
            Err(CoreError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn empty_input_sequence_gives_empty_run() {
        let echo = Echo::new();
        let inputs = InstanceSequence::empty(Schema::from_pairs([("in-msg", 1)]).unwrap());
        let db = Instance::empty(&Schema::empty());
        let run = echo.run(&db, &inputs).unwrap();
        assert_eq!(run.len(), 0);
        assert!(run.log().is_empty());
    }
}
