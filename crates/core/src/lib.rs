//! # rtx-core
//!
//! The paper's primary contribution: **relational transducers** as declarative
//! specifications of electronic-commerce business models, and the restricted
//! **Spocus** class (Semi-Positive Outputs, CUmulative State) for which the
//! verification problems of §3–§4 are decidable.
//!
//! The crate implements the formal model of §2.2 and the Spocus definition of
//! §3.1 exactly:
//!
//! * [`TransducerSchema`] — the five-component schema `(in, state, out, db,
//!   log)` with its disjointness and `log ⊆ in ∪ out` conditions;
//! * [`RelationalTransducer`] — the abstract machine: a state function `σ`
//!   and an output function `ω` mapping `(Iᵢ, Sᵢ₋₁, D)` to the next state and
//!   output, together with the induced [`Run`] semantics (state, output and
//!   log sequences);
//! * [`SpocusTransducer`] — the restricted class: state relations `past-R`
//!   that cumulate inputs, outputs defined by a non-recursive semipositive
//!   datalog¬≠ program, with every Spocus restriction statically validated at
//!   construction time;
//! * [`parse_transducer`] — the paper's concrete program syntax
//!   (`transducer short … state rules … output rules …`);
//! * [`models`] — the paper's worked examples (`short`, `friendly`, the
//!   propositional `a b* c` generator) together with the Figure 1/Figure 2
//!   catalog and input sequences;
//! * [`ControlDiscipline`] — the §4 input-control mechanisms (`error`-free
//!   runs, `ok`-at-every-step, `accept`-at-the-end) and their run validity
//!   predicates;
//! * [`PropositionalTransducer`] — propositional Spocus transducers and the
//!   enumeration of their generated output languages `Gen(T)`;
//! * [`runtime`] — the resident-service shape of the same semantics: **one**
//!   session runtime, [`Runtime`], owning one shared version-stamped
//!   [`ResidentDb`](rtx_datalog::ResidentDb), one session registry, one
//!   configuration and one health record, and serving many named concurrent
//!   [`Session`]s, each a transducer run fed one input at a time and
//!   evaluated incrementally against the cumulative-state deltas;
//! * [`shard`] — placement: every session sits on one of the runtime's
//!   shards, a label that also divides the worker budget
//!   ([`Parallelism::divided_among`](rtx_datalog::Parallelism::divided_among))
//!   and never shows in any output.  A plain runtime has one shard;
//!   [`ShardedRuntime`] builds one with `N` and derefs to it, and
//!   [`ShardedSession`] is [`Session`];
//! * [`durable`] — the same runtime backed by crash-safe storage: a
//!   [`DurableRuntime`] write-ahead logs every catalog mutation through
//!   `rtx-store`'s WAL + snapshot layer into the one shared database, and
//!   [`Runtime::open_durable`] / [`ShardedRuntime::open_durable`] recover
//!   the committed catalog after a crash, at any shard count
//!   ([`ShardedDurableRuntime`] is the same type).
//!
//! The prepare/resident lifecycle: a one-shot
//! [`RelationalTransducer::run`] is the paper's §2 definition, one full
//! evaluation of the output program per step over a plain database; a
//! service makes its database resident **once**
//! ([`rtx_datalog::ResidentDb`]), shares it across sessions and threads, and
//! mutates it in place.  Mutation is first-class in both directions —
//! `ResidentDb::insert` *and* `ResidentDb::retract` follow the same
//! lifecycle: the copy-on-write write bumps the relation's version stamp,
//! the next prepared view rebuilds exactly the stale hash indexes, and a
//! mid-run [`Session`] step compares the relations its program actually
//! reads against `ResidentDb::stale_relations` to reseed exactly the
//! invalidated step caches (retractions drop version-guarded grow-blocks
//! rather than assuming append-only history).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod control;
pub mod demand;
mod dsl;
pub mod durable;
mod error;
pub mod models;
mod propositional;
mod run;
pub mod runtime;
mod schema;
pub mod shard;
mod spocus;
pub mod supervise;
mod transducer;

pub use builder::SpocusBuilder;
pub use control::ControlDiscipline;
pub use demand::{SessionDemand, SessionGoal};
pub use dsl::parse_transducer;
pub use durable::{DurableRuntime, ShardedDurableRuntime};
pub use error::CoreError;
pub use propositional::PropositionalTransducer;
pub use rtx_datalog::DemandPolicy;
pub use run::{Run, RunStep};
pub use runtime::{Runtime, Session};
pub use schema::TransducerSchema;
pub use shard::{ShardedRuntime, ShardedSession};
pub use spocus::SpocusTransducer;
pub use supervise::{MonitorPolicy, RuntimeHealth, SessionObserver, Violation, ViolationKind};
pub use transducer::RelationalTransducer;

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_relational::{Tuple, Value};

    #[test]
    fn short_model_reproduces_figure_1_deliveries() {
        let transducer = models::short();
        let db = models::figure1_database();
        let inputs = models::figure1_inputs();
        let run = transducer.run(&db, &inputs).unwrap();
        // Step 2 of Figure 1: deliver(Time) after pay(Time, 855).
        let deliver_step = run.outputs().get(1).unwrap();
        assert!(deliver_step.holds("deliver", &Tuple::from_iter([Value::str("time")])));
    }
}
