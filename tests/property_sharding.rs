//! Property-based tests for the sharded session runtime: a fleet spread
//! across 1, 2 or 8 shards must be **bit-identical**, session by session and
//! step by step, to the same fleet on a single unsharded [`Runtime`] — with
//! catalog mutations landing on the shared resident database mid-run, and
//! with monitored and demand-driven sessions in the mix.  Sharding is a
//! placement decision; it must never show through in any output.

use proptest::prelude::*;
use rtx::datalog::{Parallelism, ResidentDb};
use rtx::prelude::*;
use rtx::workloads::scenarios::Scenario;
use rtx::workloads::{browse_session, catalog_mutations, customer_session, CatalogOp};
use rtx_front::{combined_catalog, lookup_model};
use std::sync::Arc;

/// One session of the simulated fleet: which model to open (and how) plus
/// its deterministic input sequence.
struct Plan {
    name: String,
    model: &'static str,
    demanded: bool,
    monitored: bool,
    inputs: InstanceSequence,
}

/// Cycles the fleet through every kind of session the front-end can serve:
/// plain `short`/`category` customers, **demand-driven** `storefront`
/// browsers, and the four **monitored** guardrail scenarios (clean traffic).
fn fleet_plans(n_sessions: usize, steps: usize, seed: u64, catalog: &Instance) -> Vec<Plan> {
    let scenarios = Scenario::all();
    (0..n_sessions)
        .map(|i| {
            let session_seed = seed + i as u64;
            match i % 4 {
                0 => Plan {
                    name: format!("short-{i}"),
                    model: "short",
                    demanded: false,
                    monitored: false,
                    inputs: customer_session(catalog, steps, 200, 0.9, session_seed),
                },
                1 => Plan {
                    name: format!("storefront-{i}"),
                    model: "storefront",
                    demanded: true,
                    monitored: false,
                    inputs: browse_session(steps, 200, session_seed),
                },
                2 => Plan {
                    name: format!("category-{i}"),
                    model: "category",
                    demanded: false,
                    monitored: false,
                    inputs: customer_session(catalog, steps, 200, 0.9, session_seed),
                },
                _ => {
                    let scenario = &scenarios[(i / 4) % scenarios.len()];
                    Plan {
                        name: format!("{}-{i}", scenario.name),
                        model: scenario.name,
                        demanded: false,
                        monitored: true,
                        inputs: scenario.clean_inputs.clone(),
                    }
                }
            }
        })
        .collect()
}

/// Applies one chunk of the mutation stream to a shared resident database.
fn apply_ops(db: &Arc<ResidentDb>, ops: &[CatalogOp]) {
    for op in ops {
        let (removes, adds) = op.price_deltas();
        for row in removes {
            db.retract("price", &row).unwrap();
        }
        for row in adds {
            db.insert("price", row).unwrap();
        }
    }
}

/// Runs the whole fleet round-robin on one runtime (unsharded when
/// `shards == None`), applying the `r`-th chunk of the mutation stream
/// before round `r`, and returns every session's outputs in step order.
fn run_fleet(
    plans: &[Plan],
    ops: &[CatalogOp],
    catalog: &Instance,
    shards: Option<usize>,
) -> (Vec<Vec<Instance>>, RuntimeHealth) {
    let db = Arc::new(ResidentDb::new(catalog.clone()));
    let scenarios = Scenario::all();

    // A sharded runtime is a `Runtime` built with a shard count: both
    // fleets run through the same code below.
    let runtime = match shards {
        None => Runtime::shared_with(Arc::clone(&db), Parallelism::default()),
        Some(n) => Runtime::clone(&ShardedRuntime::shared_with(
            Arc::clone(&db),
            n,
            Parallelism::default(),
        )),
    };
    let mut sessions: Vec<Session> = Vec::with_capacity(plans.len());
    for plan in plans {
        let transducer = lookup_model(plan.model)
            .expect("planned models exist")
            .transducer;
        let mut session = if plan.demanded {
            runtime
                .open_session_with_demand(
                    plan.name.clone(),
                    transducer,
                    rtx::workloads::storefront_demand(),
                )
                .unwrap()
        } else {
            runtime.open_session(plan.name.clone(), transducer).unwrap()
        };
        if plan.monitored {
            let scenario = scenarios
                .iter()
                .find(|s| s.name == plan.model)
                .expect("monitored plans are scenarios");
            session.set_monitor_policy(MonitorPolicy::Observe);
            session.attach_observer(Box::new(
                scenario.monitor(&db).expect("scenario monitors build"),
            ));
        }
        sessions.push(session);
    }

    let rounds = plans.iter().map(|p| p.inputs.len()).max().unwrap_or(0);
    let chunk = ops.len().checked_div(rounds).unwrap_or(0);
    let mut outputs: Vec<Vec<Instance>> = plans.iter().map(|_| Vec::new()).collect();
    for round in 0..rounds {
        // Mid-run catalog mutations: the `round`-th chunk of the stream, in
        // stream order, lands on the shared database before the round.
        let lo = round * chunk;
        let hi = if round + 1 == rounds {
            ops.len()
        } else {
            lo + chunk
        };
        apply_ops(&db, &ops[lo..hi]);
        for (i, plan) in plans.iter().enumerate() {
            if let Some(input) = plan.inputs.get(round) {
                outputs[i].push(sessions[i].step(input).unwrap());
            }
        }
    }
    (outputs, runtime.health())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The sharding transparency contract: for random fleet sizes, step
    /// counts, input seeds and mutation streams, a fleet sharded 1, 2 or 8
    /// ways produces, for **every** session, the exact output instances the
    /// unsharded runtime produces — catalog mutations reach every shard at
    /// the same step boundary, demand-driven sessions stay demand-driven,
    /// and monitors ride along without perturbing anything.
    #[test]
    fn sharded_fleets_are_bit_identical_to_the_unsharded_runtime(
        n_sessions in 2usize..7,
        steps in 1usize..4,
        seed in 0u64..64,
        n_ops in 0usize..8,
    ) {
        let catalog = combined_catalog();
        let plans = fleet_plans(n_sessions, steps, seed, &catalog);
        let ops = catalog_mutations(&catalog, n_ops, seed ^ 0x5eed);

        let (reference, reference_health) = run_fleet(&plans, &ops, &catalog, None);
        prop_assert_eq!(reference_health.active_sessions, n_sessions);
        prop_assert!(reference_health.quarantined_sessions.is_empty());

        for shards in [1usize, 2, 8] {
            let (sharded, health) = run_fleet(&plans, &ops, &catalog, Some(shards));
            prop_assert_eq!(health.active_sessions, n_sessions);
            prop_assert!(health.quarantined_sessions.is_empty());
            prop_assert_eq!(health.violations, reference_health.violations);
            for (i, plan) in plans.iter().enumerate() {
                prop_assert_eq!(
                    &sharded[i], &reference[i],
                    "session `{}` drifted under {} shards", plan.name, shards
                );
            }
        }
    }
}
