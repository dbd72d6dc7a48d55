//! Monitored commerce scenarios: small Spocus business models packaged with
//! the `T_sdi` input-control constraints a [`rtx_verify::SessionMonitor`]
//! enforces over them, plus seeded input sequences — one clean, one that
//! violates a constraint — for the guardrail tests, and servable by name
//! from the `rtx-front` wire server.
//!
//! Four scenarios, each a paper-flavoured electronic-commerce workflow:
//!
//! * [`auction_scenario`] — an auction whose sniping guard forbids bids on a
//!   closed item;
//! * [`inventory_scenario`] — unit-stock reservations whose oversell guard
//!   forbids reserving an already-reserved item;
//! * [`escrow_scenario`] — a multi-party escrow whose release guard demands
//!   that both buyer and seller have deposited before funds are released;
//! * [`fraud_scenario`] — a marketplace whose payout guard forbids paying
//!   out to a flagged account (and whose per-account outputs are the natural
//!   target of a demanded session: see
//!   [`rtx_core::Runtime::open_session_with_demand`]).

use rtx_core::SpocusBuilder;
use rtx_core::SpocusTransducer;
use rtx_datalog::{Atom, BodyLiteral, ResidentDb};
use rtx_logic::{Formula, Term};
use rtx_relational::{Instance, InstanceSequence, Tuple};
use rtx_verify::{SdiConstraint, SessionMonitor, VerifyError};
use std::sync::Arc;

/// A business model bundled with its input-control policy and seeded input
/// sequences for exercising the online guardrails.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (also the transducer name).
    pub name: &'static str,
    /// The Spocus business model.
    pub transducer: Arc<SpocusTransducer>,
    /// The fixed database the scenario runs over.
    pub database: Instance,
    /// Named `T_sdi` constraints the scenario's monitor enforces.
    pub constraints: Vec<(&'static str, SdiConstraint)>,
    /// An input sequence that satisfies every constraint at every step.
    pub clean_inputs: InstanceSequence,
    /// An input sequence whose **last** step violates a constraint.
    pub violating_inputs: InstanceSequence,
    /// The name of the constraint the violating sequence trips.
    pub violated_constraint: &'static str,
}

impl Scenario {
    /// Builds a [`SessionMonitor`] for this scenario over a shared database,
    /// with every scenario constraint installed in the admission gate.
    pub fn monitor(&self, db: &Arc<ResidentDb>) -> Result<SessionMonitor, VerifyError> {
        let mut monitor = SessionMonitor::new(self.transducer.clone(), db.clone())?;
        for (name, constraint) in &self.constraints {
            monitor = monitor.with_constraint(*name, constraint.clone())?;
        }
        Ok(monitor)
    }

    /// All four guardrail scenarios.
    pub fn all() -> Vec<Scenario> {
        vec![
            auction_scenario(),
            inventory_scenario(),
            escrow_scenario(),
            fraud_scenario(),
        ]
    }
}

fn steps(schema: &rtx_relational::Schema, rows: &[&[(&str, &[&str])]]) -> InstanceSequence {
    let instances = rows
        .iter()
        .map(|step| {
            let mut inst = Instance::empty(schema);
            for (relation, values) in *step {
                inst.insert(*relation, Tuple::from_iter(values.iter().copied()))
                    .expect("scenario inputs match the input schema");
            }
            inst
        })
        .collect();
    InstanceSequence::new(schema.clone(), instances).expect("one shared input schema")
}

/// An auction: bidders bid on listed items until the item is closed, at which
/// point every recorded bidder is awarded (a toy settlement).  The sniping
/// guard — constraint `no-sniping` — forbids any bid on an item that has
/// already been closed.
pub fn auction_scenario() -> Scenario {
    let transducer = SpocusBuilder::new("auction")
        .input("bid", 2)
        .input("close", 1)
        .database("listed", 1)
        .output("ack", 2)
        .output("award", 2)
        .output("late-bid", 2)
        .output_rule("ack(I,B) :- bid(I,B), listed(I)")
        .output_rule("award(I,B) :- close(I), past-bid(I,B)")
        .output_rule("late-bid(I,B) :- bid(I,B), past-close(I)")
        .log(["bid", "close", "award", "late-bid"])
        .build()
        .expect("the auction model is Spocus by construction");

    let mut database = Instance::empty(transducer.schema().db());
    database
        .insert("listed", Tuple::from_iter(["art"]))
        .expect("listed/1");

    // bid(I,B) ∧ past-close(I) → ⊥ : no bid may land after the close.
    let no_sniping = SdiConstraint::new(
        vec![
            BodyLiteral::Positive(Atom::new("bid", [Term::var("i"), Term::var("b")])),
            BodyLiteral::Positive(Atom::new("past-close", [Term::var("i")])),
        ],
        Formula::False,
    )
    .expect("the sniping guard is a well-formed T_sdi constraint");

    let input = transducer.schema().input().clone();
    let clean_inputs = steps(
        &input,
        &[
            &[("bid", &["art", "alice"][..])],
            &[("bid", &["art", "bob"])],
            &[("close", &["art"])],
        ],
    );
    let violating_inputs = steps(
        &input,
        &[
            &[("bid", &["art", "alice"][..])],
            &[("close", &["art"])],
            &[("bid", &["art", "bob"])],
        ],
    );

    Scenario {
        name: "auction",
        transducer: Arc::new(transducer),
        database,
        constraints: vec![("no-sniping", no_sniping)],
        clean_inputs,
        violating_inputs,
        violated_constraint: "no-sniping",
    }
}

/// Unit-stock inventory reservations: each stocked item can be held by at
/// most one customer, ever.  The oversell guard — constraint `no-oversell` —
/// forbids reserving a stocked item that any customer already reserved at an
/// earlier step.
pub fn inventory_scenario() -> Scenario {
    let transducer = SpocusBuilder::new("inventory")
        .input("reserve", 2)
        .database("stock", 1)
        .output("hold", 2)
        .output("oversold", 2)
        .output_rule("hold(I,C) :- reserve(I,C), stock(I)")
        .output_rule("oversold(I,C) :- reserve(I,C), past-reserve(I,D), stock(I)")
        .log(["reserve", "hold", "oversold"])
        .build()
        .expect("the inventory model is Spocus by construction");

    let mut database = Instance::empty(transducer.schema().db());
    for item in ["widget", "gadget"] {
        database
            .insert("stock", Tuple::from_iter([item]))
            .expect("stock/1");
    }

    // reserve(I,C) ∧ past-reserve(I,D) ∧ stock(I) → ⊥ : a stocked unit
    // reserved once may never be reserved again.
    let no_oversell = SdiConstraint::new(
        vec![
            BodyLiteral::Positive(Atom::new("reserve", [Term::var("i"), Term::var("c")])),
            BodyLiteral::Positive(Atom::new("past-reserve", [Term::var("i"), Term::var("d")])),
            BodyLiteral::Positive(Atom::new("stock", [Term::var("i")])),
        ],
        Formula::False,
    )
    .expect("the oversell guard is a well-formed T_sdi constraint");

    let input = transducer.schema().input().clone();
    let clean_inputs = steps(
        &input,
        &[
            &[("reserve", &["widget", "alice"][..])],
            &[("reserve", &["gadget", "bob"])],
        ],
    );
    let violating_inputs = steps(
        &input,
        &[
            &[("reserve", &["widget", "alice"][..])],
            &[("reserve", &["widget", "bob"])],
        ],
    );

    Scenario {
        name: "inventory",
        transducer: Arc::new(transducer),
        database,
        constraints: vec![("no-oversell", no_oversell)],
        clean_inputs,
        violating_inputs,
        violated_constraint: "no-oversell",
    }
}

/// A multi-party escrow: both the buyer and the seller of a deal must
/// deposit before the deal settles.  The release guard — constraint
/// `funds-before-release` — demands that a `release` arrives only after both
/// parties' deposits are on record.
pub fn escrow_scenario() -> Scenario {
    let transducer = SpocusBuilder::new("escrow")
        .input("deposit", 2)
        .input("release", 1)
        .database("buyer", 2)
        .database("seller", 2)
        .output("receipt", 2)
        .output("settle", 1)
        .output_rule("receipt(D,P) :- deposit(D,P)")
        .output_rule(
            "settle(D) :- release(D), buyer(D,B), past-deposit(D,B), \
             seller(D,S), past-deposit(D,S)",
        )
        .log(["deposit", "release", "settle"])
        .build()
        .expect("the escrow model is Spocus by construction");

    let mut database = Instance::empty(transducer.schema().db());
    database
        .insert("buyer", Tuple::from_iter(["deal1", "alice"]))
        .expect("buyer/2");
    database
        .insert("seller", Tuple::from_iter(["deal1", "bob"]))
        .expect("seller/2");

    // release(D) ∧ buyer(D,B) ∧ seller(D,S) →
    //     past-deposit(D,B) ∧ past-deposit(D,S)
    let funds_before_release = SdiConstraint::new(
        vec![
            BodyLiteral::Positive(Atom::new("release", [Term::var("d")])),
            BodyLiteral::Positive(Atom::new("buyer", [Term::var("d"), Term::var("b")])),
            BodyLiteral::Positive(Atom::new("seller", [Term::var("d"), Term::var("s")])),
        ],
        Formula::and(vec![
            Formula::atom("past-deposit", [Term::var("d"), Term::var("b")]),
            Formula::atom("past-deposit", [Term::var("d"), Term::var("s")]),
        ]),
    )
    .expect("the release guard is a well-formed T_sdi constraint");

    let input = transducer.schema().input().clone();
    let clean_inputs = steps(
        &input,
        &[
            &[("deposit", &["deal1", "alice"][..])],
            &[("deposit", &["deal1", "bob"])],
            &[("release", &["deal1"])],
        ],
    );
    // Only the buyer has deposited when the release arrives.
    let violating_inputs = steps(
        &input,
        &[
            &[("deposit", &["deal1", "alice"][..])],
            &[("release", &["deal1"])],
        ],
    );

    Scenario {
        name: "escrow",
        transducer: Arc::new(transducer),
        database,
        constraints: vec![("funds-before-release", funds_before_release)],
        clean_inputs,
        violating_inputs,
        violated_constraint: "funds-before-release",
    }
}

/// A marketplace with a fraud screen: purchases of listed items by
/// unflagged accounts are confirmed, purchases by flagged accounts raise an
/// alert, and a repeat purchase of the same item is surfaced as a
/// `repeat-buy` pattern.  The payout guard — constraint `no-flagged-payout`
/// — forbids paying out to an account the screen has flagged.
///
/// Every output is keyed on the account in column 0, so a session serving
/// one account naturally demands `confirm`/`alert`/`repeat-buy` under a
/// `bf` binding pattern seeded from its own `purchase` inputs — the
/// demand-driven evaluation path of
/// [`rtx_core::Runtime::open_session_with_demand`].
pub fn fraud_scenario() -> Scenario {
    let transducer = SpocusBuilder::new("fraud")
        .input("purchase", 2)
        .input("payout", 1)
        .database("flagged", 1)
        .database("listed", 1)
        .output("confirm", 2)
        .output("alert", 2)
        .output("repeat-buy", 2)
        .output_rule("confirm(A,I) :- purchase(A,I), listed(I), NOT flagged(A)")
        .output_rule("alert(A,I) :- purchase(A,I), flagged(A)")
        .output_rule("repeat-buy(A,I) :- purchase(A,I), past-purchase(A,I)")
        .log(["purchase", "payout", "alert", "repeat-buy"])
        .build()
        .expect("the fraud model is Spocus by construction");

    let mut database = Instance::empty(transducer.schema().db());
    database
        .insert("flagged", Tuple::from_iter(["mallory"]))
        .expect("flagged/1");
    for item in ["ring", "watch"] {
        database
            .insert("listed", Tuple::from_iter([item]))
            .expect("listed/1");
    }

    // payout(A) ∧ flagged(A) → ⊥ : no payout to a flagged account.
    let no_flagged_payout = SdiConstraint::new(
        vec![
            BodyLiteral::Positive(Atom::new("payout", [Term::var("a")])),
            BodyLiteral::Positive(Atom::new("flagged", [Term::var("a")])),
        ],
        Formula::False,
    )
    .expect("the payout guard is a well-formed T_sdi constraint");

    let input = transducer.schema().input().clone();
    let clean_inputs = steps(
        &input,
        &[
            &[("purchase", &["alice", "ring"][..])],
            &[("purchase", &["alice", "ring"])],
            &[("payout", &["alice"])],
        ],
    );
    let violating_inputs = steps(
        &input,
        &[
            &[("purchase", &["mallory", "watch"][..])],
            &[("payout", &["mallory"])],
        ],
    );

    Scenario {
        name: "fraud",
        transducer: Arc::new(transducer),
        database,
        constraints: vec![("no-flagged-payout", no_flagged_payout)],
        clean_inputs,
        violating_inputs,
        violated_constraint: "no-flagged-payout",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_core::{CoreError, MonitorPolicy, RelationalTransducer, Runtime, ViolationKind};

    #[test]
    fn clean_runs_are_violation_free_and_unperturbed() {
        for scenario in Scenario::all() {
            let db = Arc::new(ResidentDb::new(scenario.database.clone()));
            let runtime = Runtime::shared(db.clone());
            let mut session = runtime
                .open_session(scenario.name, scenario.transducer.clone())
                .unwrap();
            session.set_monitor_policy(MonitorPolicy::Enforce);
            session.attach_observer(Box::new(scenario.monitor(&db).unwrap()));

            let mut outputs = Vec::new();
            for input in scenario.clean_inputs.iter() {
                outputs.push(session.step(input).unwrap());
            }
            assert!(session.violations().is_empty(), "{}", scenario.name);

            // The monitored outputs are exactly the offline run's outputs.
            let offline = scenario
                .transducer
                .run(&scenario.database, &scenario.clean_inputs)
                .unwrap();
            let expected: Vec<Instance> = offline.outputs().iter().cloned().collect();
            assert_eq!(outputs, expected, "{}", scenario.name);
        }
    }

    #[test]
    fn observe_mode_reports_the_seeded_violation() {
        for scenario in Scenario::all() {
            let db = Arc::new(ResidentDb::new(scenario.database.clone()));
            let runtime = Runtime::shared(db.clone());
            let mut session = runtime
                .open_session(scenario.name, scenario.transducer.clone())
                .unwrap();
            session.set_monitor_policy(MonitorPolicy::Observe);
            session.attach_observer(Box::new(scenario.monitor(&db).unwrap()));

            for input in scenario.violating_inputs.iter() {
                session.step(input).unwrap();
            }
            let violation = session
                .violations()
                .iter()
                .find(|v| v.kind == ViolationKind::Constraint)
                .unwrap_or_else(|| panic!("{}: no constraint violation reported", scenario.name));
            assert_eq!(violation.source, scenario.violated_constraint);
            assert_eq!(violation.step, scenario.violating_inputs.len() - 1);
            // The witness names a concrete input tuple.
            assert!(violation.relation.is_some(), "{}", scenario.name);
            assert!(violation.tuple.is_some(), "{}", scenario.name);
            assert_eq!(
                runtime.health().violations,
                session.violations().len() as u64
            );
        }
    }

    #[test]
    fn enforce_mode_rejects_the_seeded_violation() {
        for scenario in Scenario::all() {
            let db = Arc::new(ResidentDb::new(scenario.database.clone()));
            let runtime = Runtime::shared(db.clone());
            let mut session = runtime
                .open_session(scenario.name, scenario.transducer.clone())
                .unwrap();
            session.set_monitor_policy(MonitorPolicy::Enforce);
            session.attach_observer(Box::new(scenario.monitor(&db).unwrap()));

            let last = scenario.violating_inputs.len() - 1;
            for (index, input) in scenario.violating_inputs.iter().enumerate() {
                let result = session.step(input);
                if index < last {
                    result.unwrap();
                    continue;
                }
                match result {
                    Err(CoreError::StepRejected {
                        step, constraint, ..
                    }) => {
                        assert_eq!(step, last, "{}", scenario.name);
                        assert_eq!(constraint, scenario.violated_constraint);
                    }
                    other => panic!("{}: expected StepRejected, got {other:?}", scenario.name),
                }
            }
            // The rejected step did not advance the session.
            assert_eq!(session.len(), last, "{}", scenario.name);
            assert_eq!(runtime.health().rejections, 1, "{}", scenario.name);
        }
    }

    #[test]
    fn the_fraud_screen_enforces_through_the_demand_path() {
        use rtx_core::{DemandPolicy, SessionDemand, SessionGoal};

        // A demanded fraud session: every output is probed at the accounts of
        // this step's own purchases.  The demand covers every derivation the
        // model can make for those inputs, so the monitor's log validation
        // sees the same outputs the offline run produces — and the payout
        // guard still rejects the flagged payout at the last step.
        let scenario = fraud_scenario();
        let demand = |mode: DemandPolicy| {
            let db = Arc::new(ResidentDb::new(scenario.database.clone()));
            let runtime = Runtime::shared(db.clone());
            runtime.set_demand_policy(mode);
            let spec = SessionDemand::new()
                .goal(
                    SessionGoal::new("confirm", "bf")
                        .unwrap()
                        .from_input("purchase", [0]),
                )
                .goal(
                    SessionGoal::new("alert", "bf")
                        .unwrap()
                        .from_input("purchase", [0]),
                )
                .goal(
                    SessionGoal::new("repeat-buy", "bf")
                        .unwrap()
                        .from_input("purchase", [0]),
                );
            let mut session = runtime
                .open_session_with_demand(scenario.name, scenario.transducer.clone(), spec)
                .unwrap();
            session.set_monitor_policy(MonitorPolicy::Enforce);
            session.attach_observer(Box::new(scenario.monitor(&db).unwrap()));

            let last = scenario.violating_inputs.len() - 1;
            let mut outputs = Vec::new();
            for (index, input) in scenario.violating_inputs.iter().enumerate() {
                if index < last {
                    outputs.push(session.step(input).unwrap());
                    continue;
                }
                match session.step(input) {
                    Err(CoreError::StepRejected { constraint, .. }) => {
                        assert_eq!(constraint, scenario.violated_constraint);
                    }
                    other => panic!("{mode:?}: expected StepRejected, got {other:?}"),
                }
            }
            outputs
        };

        let rewritten = demand(DemandPolicy::Demand);
        let filtered = demand(DemandPolicy::Full);
        // Both demand policies agree, and both match the offline run on the
        // accepted prefix (the demand covers every per-account derivation).
        assert_eq!(rewritten, filtered);
        let offline = scenario
            .transducer
            .run(&scenario.database, &scenario.violating_inputs)
            .unwrap();
        let last = scenario.violating_inputs.len() - 1;
        let expected: Vec<Instance> = offline.outputs().iter().take(last).cloned().collect();
        assert_eq!(rewritten, expected);
    }

    #[test]
    fn a_tampered_log_step_raises_a_log_violation() {
        use rtx_core::SessionObserver;

        let scenario = escrow_scenario();
        let db = Arc::new(ResidentDb::new(scenario.database.clone()));
        let mut monitor = scenario.monitor(&db).unwrap();

        // Claim a settlement the spec cannot derive: no deposits on record.
        let schema = scenario.transducer.schema().input().clone();
        let mut input = Instance::empty(&schema);
        input
            .insert("release", Tuple::from_iter(["deal1"]))
            .unwrap();
        let mut output = Instance::empty(scenario.transducer.schema().output());
        output
            .insert("settle", Tuple::from_iter(["deal1"]))
            .unwrap();

        let violations = monitor.observe(0, &input, &output).unwrap();
        let log_violation = violations
            .iter()
            .find(|v| v.kind == ViolationKind::Log)
            .expect("the unjustified settle is flagged");
        assert_eq!(log_violation.source, "settle");
    }
}
