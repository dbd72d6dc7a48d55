//! # rtx-workloads
//!
//! Synthetic workload generators for the integration tests, the count
//! fences (`crates/verify/tests/grounding_budget.rs`,
//! `crates/front/tests/alloc_budget.rs`) and the `rtx-ledger` benchmark in
//! `ledger/`: product catalogs, customer and browsing input sequences,
//! catalog mutation streams, audited logs (valid and tampered), and the
//! business models those workloads run.  The paper reports no measured
//! workloads, so these generators stand in for them: they exercise the same
//! code paths (runs, log validation, reachability, containment) at
//! controllable sizes.  Every generator is deterministic in its seed, and
//! the catalogs are prefix-deterministic: the first `k` products of a
//! catalog carry the same prices whatever its size.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scenarios;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtx_core::{models, RelationalTransducer, SpocusBuilder, SpocusTransducer};
use rtx_relational::{Instance, InstanceSequence, Tuple, Value};

/// A deterministic product catalog with `n_products` rows in `price` (named
/// `p0`, `p1`, …) and roughly three quarters of them `available`.
pub fn catalog(n_products: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Instance::empty(&models::catalog_schema());
    for i in 0..n_products {
        let name = format!("p{i}");
        let price = rng.gen_range(1..10_000i64);
        db.insert(
            "price",
            Tuple::new(vec![Value::str(name.clone()), Value::int(price)]),
        )
        .expect("price/2");
        if rng.gen_bool(0.75) {
            db.insert("available", Tuple::from_iter([name.as_str()]))
                .expect("available/1");
        }
    }
    db
}

/// The price of a product in a catalog generated by [`catalog`], if any.
pub fn price_of(db: &Instance, product: &str) -> Option<i64> {
    db.relation("price")
        .into_iter()
        .flat_map(|r| r.iter())
        .find(|t| t.get(0).and_then(Value::as_str) == Some(product))
        .and_then(|t| t.get(1).and_then(Value::as_int))
}

/// A customer session over the `short` input schema: at every step a few
/// products are ordered and previously ordered products are paid (at the
/// correct price with probability `honesty`).
pub fn customer_session(
    db: &Instance,
    n_steps: usize,
    n_products: usize,
    honesty: f64,
    seed: u64,
) -> InstanceSequence {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = models::short_input_schema();
    let mut ordered: Vec<String> = Vec::new();
    let mut steps = Vec::with_capacity(n_steps);
    for _ in 0..n_steps {
        let mut inst = Instance::empty(&schema);
        // order one or two new products
        for _ in 0..rng.gen_range(1..=2usize) {
            let product = format!("p{}", rng.gen_range(0..n_products.max(1)));
            inst.insert("order", Tuple::from_iter([product.as_str()]))
                .expect("order/1");
            ordered.push(product);
        }
        // maybe pay for something ordered earlier
        if !ordered.is_empty() && rng.gen_bool(0.7) {
            let product = ordered[rng.gen_range(0..ordered.len())].clone();
            let listed = price_of(db, &product).unwrap_or(1);
            let amount = if rng.gen_bool(honesty) {
                listed
            } else {
                listed + 1
            };
            inst.insert(
                "pay",
                Tuple::new(vec![Value::str(product), Value::int(amount)]),
            )
            .expect("pay/2");
        }
        steps.push(inst);
    }
    InstanceSequence::new(schema, steps).expect("steps share the input schema")
}

/// The database schema of [`category_model`]: the `short` catalog plus a
/// `category(Category, Product)` relation.
pub fn category_catalog_schema() -> rtx_relational::Schema {
    rtx_relational::Schema::from_pairs([("price", 2), ("available", 1), ("category", 2)])
        .expect("distinct relations")
}

/// A [`catalog`] extended with a `category(Category, Product)` relation:
/// every product is filed under one of `n_categories` categories.
///
/// `category` is keyed on its *second* column by the [`category_model`]
/// rules, so it exercises the non-prefix hash index a resident database
/// retains across sessions (a one-shot run rebuilds it every step).
pub fn category_catalog(n_products: usize, n_categories: usize, seed: u64) -> Instance {
    let base = catalog(n_products, seed);
    let mut db = Instance::empty(&category_catalog_schema());
    for (name, relation) in base.iter() {
        // Union into the empty relation shares the tuple set (COW).
        db.absorb_relation(name.clone(), relation)
            .expect("same schema");
    }
    for i in 0..n_products {
        db.insert(
            "category",
            Tuple::new(vec![
                Value::str(format!("cat-{}", i % n_categories.max(1))),
                Value::str(format!("p{i}")),
            ]),
        )
        .expect("category/2");
    }
    db
}

/// A business model for the multi-session and resident-database workloads
/// (the ledger's fleets, the runtime and monitoring tests): the `short`
/// billing rules plus
///
/// * `promote(X,C) :- order(X), category(C,X), NOT past-order(X)` — a
///   volatile rule probing `category` on a **non-prefix** column, so it
///   needs the hash index a resident database (`rtx-datalog`'s
///   `ResidentDb`) retains across runs;
/// * `loyal(X) :- past-order(X), available(X)` — a rule over grow-only state
///   only, which the incremental step evaluator extends by joining nothing
///   but the per-step `past-order` delta.
pub fn category_model() -> SpocusTransducer {
    SpocusBuilder::new("category")
        .input("order", 1)
        .input("pay", 2)
        .database("price", 2)
        .database("available", 1)
        .database("category", 2)
        .output("sendbill", 2)
        .output("deliver", 1)
        .output("promote", 2)
        .output("loyal", 1)
        .output_rule("sendbill(X,Y) :- order(X), price(X,Y), NOT past-pay(X,Y)")
        .output_rule("deliver(X) :- past-order(X), price(X,Y), pay(X,Y), NOT past-pay(X,Y)")
        .output_rule("promote(X,C) :- order(X), category(C,X), NOT past-order(X)")
        .output_rule("loyal(X) :- past-order(X), available(X)")
        .log(["sendbill", "pay", "deliver"])
        .build()
        .expect("the category model is Spocus by construction")
}

/// The business model of the demand-driven workloads (the ledger's demanded
/// sessions, `storefront_demand_cost_is_catalog_independent`): a storefront
/// whose per-step output is dominated by a catalog-wide rule, probed by
/// sessions that only ever read their own products.
///
/// * `detail(P,C,Y) :- browse(P), category(C,P), price(P,Y)` — the
///   session-local probe: one row per browsed product;
/// * `offer(P,Y) :- refresh(R), price(P,Y), available(P), NOT past-browse(P)`
///   — the catalog-wide rule: every `refresh` tick re-derives an offer for
///   every available product the session has not browsed yet, so a full
///   evaluation pays **O(catalog)** per step.
///
/// A session that demands `detail`/`offer` at the keys of its own `browse`
/// inputs ([`storefront_demand`]) pays O(browsed) per step instead: the
/// magic-set rewrite guards both rules with the step's browsed products.
/// Runs over a [`category_catalog`].
pub fn storefront_model() -> SpocusTransducer {
    SpocusBuilder::new("storefront")
        .input("browse", 1)
        .input("refresh", 1)
        .database("price", 2)
        .database("available", 1)
        .database("category", 2)
        .output("detail", 3)
        .output("offer", 2)
        .output_rule("detail(P,C,Y) :- browse(P), category(C,P), price(P,Y)")
        .output_rule("offer(P,Y) :- refresh(R), price(P,Y), available(P), NOT past-browse(P)")
        .log(["browse", "detail"])
        .build()
        .expect("the storefront model is Spocus by construction")
}

/// The per-session demand of the [`storefront_model`] workloads: both
/// output relations probed at the products of this step's own `browse`
/// input (binding patterns `detail@bff`, `offer@bf`).
pub fn storefront_demand() -> rtx_core::SessionDemand {
    use rtx_core::{SessionDemand, SessionGoal};
    SessionDemand::new()
        .goal(
            SessionGoal::new("detail", "bff")
                .expect("bff parses")
                .from_input("browse", [0]),
        )
        .goal(
            SessionGoal::new("offer", "bf")
                .expect("bf parses")
                .from_input("browse", [0]),
        )
}

/// A browsing session over the [`storefront_model`] input schema: at every
/// step one or two random products are browsed and a `refresh` tick arrives
/// (the tick is what makes full evaluation re-derive the catalog-wide
/// `offer` relation each step).  Deterministic in `seed`.
pub fn browse_session(n_steps: usize, n_products: usize, seed: u64) -> InstanceSequence {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema =
        rtx_relational::Schema::from_pairs([("browse", 1), ("refresh", 1)]).expect("distinct");
    let mut steps = Vec::with_capacity(n_steps);
    for step in 0..n_steps {
        let mut inst = Instance::empty(&schema);
        for _ in 0..rng.gen_range(1..=2usize) {
            let product = format!("p{}", rng.gen_range(0..n_products.max(1)));
            inst.insert("browse", Tuple::from_iter([product.as_str()]))
                .expect("browse/1");
        }
        inst.insert("refresh", Tuple::from_iter([format!("t{step}")]))
            .expect("refresh/1");
        steps.push(inst);
    }
    InstanceSequence::new(schema, steps).expect("steps share the input schema")
}

/// One catalog mutation in a [`catalog_mutations`] stream.
///
/// Every variant names the exact `price` rows it removes and adds, so a
/// consumer can drive any retraction-aware layer — `ResidentDb`
/// retract/insert calls, a `DredEngine` mutation batch, or WAL records —
/// without re-deriving the catalog state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogOp {
    /// A price change: `price` loses `(product, old)` and gains
    /// `(product, new)`.
    Reprice {
        /// The repriced product.
        product: String,
        /// The price being replaced.
        old: i64,
        /// The new price.
        new: i64,
    },
    /// A delisting: `price` loses `(product, price)`.
    Delist {
        /// The delisted product.
        product: String,
        /// Its price at delisting time.
        price: i64,
    },
    /// A new product: `price` gains `(product, price)`.
    List {
        /// The new product.
        product: String,
        /// Its listed price.
        price: i64,
    },
}

impl CatalogOp {
    /// The `price` rows this operation removes and adds, in order.
    pub fn price_deltas(&self) -> (Vec<Tuple>, Vec<Tuple>) {
        let row =
            |product: &str, amount: i64| Tuple::new(vec![Value::str(product), Value::int(amount)]);
        match self {
            CatalogOp::Reprice { product, old, new } => {
                (vec![row(product, *old)], vec![row(product, *new)])
            }
            CatalogOp::Delist { product, price } => (vec![row(product, *price)], vec![]),
            CatalogOp::List { product, price } => (vec![], vec![row(product, *price)]),
        }
    }
}

/// A deterministic stream of `n_ops` mixed catalog mutations against a
/// [`catalog`]-shaped database: price changes (~60%), delistings (~20%) and
/// new products (~20%).  Later operations see the catalog as mutated by
/// earlier ones, so every `Reprice`/`Delist` targets a row that actually
/// exists at that point — applying the stream in order with
/// [`CatalogOp::price_deltas`] never retracts an absent tuple.
pub fn catalog_mutations(db: &Instance, n_ops: usize, seed: u64) -> Vec<CatalogOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<(String, i64)> = db
        .relation("price")
        .into_iter()
        .flat_map(|r| r.iter())
        .map(|t| {
            (
                t.get(0)
                    .and_then(Value::as_str)
                    .expect("price keys are strings")
                    .to_string(),
                t.get(1).and_then(Value::as_int).expect("prices are ints"),
            )
        })
        .collect();
    let mut next_new = 0usize;
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        let choice = rng.gen_range(0..10u32);
        if live.is_empty() || choice < 2 {
            let product = format!("new-{next_new}");
            next_new += 1;
            let price = rng.gen_range(1..10_000i64);
            live.push((product.clone(), price));
            ops.push(CatalogOp::List { product, price });
        } else if choice < 4 {
            let (product, price) = live.swap_remove(rng.gen_range(0..live.len()));
            ops.push(CatalogOp::Delist { product, price });
        } else {
            let i = rng.gen_range(0..live.len());
            let old = live[i].1;
            let mut new = rng.gen_range(1..10_000i64);
            if new == old {
                new = (old % 9_999) + 1;
            }
            live[i].1 = new;
            ops.push(CatalogOp::Reprice {
                product: live[i].0.clone(),
                old,
                new,
            });
        }
    }
    ops
}

/// One step of a [`crash_churn`] stream — the durable-store workload.
///
/// Unlike [`CatalogOp`] (which speaks `price`-row deltas), churn operations
/// mirror the store's WAL vocabulary directly: create a table, insert a
/// row, retract a row, or cut a checkpoint.  Every `Insert` is new at that
/// point and every `Retract` targets a live row, so applying the stream in
/// order is change-for-change — exactly what the WAL records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnOp {
    /// Create a table of the given arity.
    Create {
        /// Table name.
        table: String,
        /// Table arity.
        arity: usize,
    },
    /// Insert a (currently absent) row.
    Insert {
        /// Target table.
        table: String,
        /// The new row.
        row: Tuple,
    },
    /// Retract a (currently present) row.
    Retract {
        /// Target table.
        table: String,
        /// The doomed row.
        row: Tuple,
    },
    /// Cut a snapshot and truncate the WAL.
    Checkpoint,
}

/// A deterministic insert/retract/checkpoint stream of `n_ops` operations
/// for the durability tests: ~70% inserts, ~20% retractions
/// of live rows, ~5% checkpoints, the rest table creations.
///
/// The stream is deliberately adversarial for a textual serialization
/// boundary: symbol values include the empty string, embedded quotes,
/// newlines and long unicode; integers include negatives and the `i64`
/// extremes; and one table is arity 6, pushing every row past the
/// `ValueVec` inline capacity.
pub fn crash_churn(n_ops: usize, seed: u64) -> Vec<ChurnOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    // (name, arity) of tables created so far; live rows per table.
    let mut tables: Vec<(String, usize)> = Vec::new();
    let mut live: Vec<(String, Tuple)> = Vec::new();
    let nasty = [
        "",
        "plain",
        "with \"quotes\"",
        "new\nline",
        "ümlaut-日本語-∀x",
        "back\\slash\ttab",
    ];
    let value = |rng: &mut StdRng| -> Value {
        match rng.gen_range(0..4u32) {
            0 => Value::int(match rng.gen_range(0..4u32) {
                0 => i64::MIN,
                1 => i64::MAX,
                _ => rng.gen_range(-10_000..10_000i64),
            }),
            1 => Value::str(nasty[rng.gen_range(0..nasty.len())]),
            _ => Value::str(format!("sym-{}", rng.gen_range(0..50u32))),
        }
    };
    let mut ops = Vec::with_capacity(n_ops);
    let mut fresh = 0usize;
    for step in 0..n_ops {
        let choice = rng.gen_range(0..100u32);
        if tables.len() < 2 || (choice < 5 && tables.len() < 6) {
            // Table 1 is wide: arity 6 spills the ValueVec inline buffer.
            let arity = if tables.len() == 1 {
                6
            } else {
                rng.gen_range(1..=3usize)
            };
            let table = format!("churn{}", tables.len());
            tables.push((table.clone(), arity));
            ops.push(ChurnOp::Create { table, arity });
        } else if choice < 10 && step > 0 {
            ops.push(ChurnOp::Checkpoint);
        } else if choice < 30 && !live.is_empty() {
            let (table, row) = live.swap_remove(rng.gen_range(0..live.len()));
            ops.push(ChurnOp::Retract { table, row });
        } else {
            let (table, arity) = tables[rng.gen_range(0..tables.len())].clone();
            let mut values: Vec<Value> = (0..arity.saturating_sub(1))
                .map(|_| value(&mut rng))
                .collect();
            // A unique last column keeps every generated insert genuinely
            // new without tracking per-table row sets.
            values.push(Value::int(fresh as i64));
            fresh += 1;
            let row = Tuple::new(values);
            live.push((table.clone(), row.clone()));
            ops.push(ChurnOp::Insert { table, row });
        }
    }
    ops
}

/// A fleet of independent customer sessions over one shared catalog: session
/// `i` is a deterministic [`customer_session`] seeded with `seed + i` — the
/// workload of the cross-session equivalence and monitoring tests.
pub fn session_fleet(
    db: &Instance,
    n_sessions: usize,
    n_steps: usize,
    n_products: usize,
    honesty: f64,
    seed: u64,
) -> Vec<InstanceSequence> {
    (0..n_sessions)
        .map(|i| customer_session(db, n_steps, n_products, honesty, seed + i as u64))
        .collect()
}

/// The log of a run of `transducer` on the given database and inputs.
pub fn log_of(
    transducer: &SpocusTransducer,
    db: &Instance,
    inputs: &InstanceSequence,
) -> InstanceSequence {
    transducer
        .run(db, inputs)
        .expect("workload inputs match the transducer schema")
        .log()
        .clone()
}

/// Tampers with a log by inserting an unjustified `deliver` fact at the last
/// step — the fraud the supplier's audit (Theorem 3.1) is meant to catch.
pub fn tamper_log(log: &InstanceSequence, product: &str) -> InstanceSequence {
    let schema = log.schema().clone();
    let mut instances: Vec<Instance> = log.iter().cloned().collect();
    if instances.is_empty() {
        instances.push(Instance::empty(&schema));
    }
    let last = instances.last_mut().expect("non-empty");
    if schema.contains("deliver") {
        last.insert("deliver", Tuple::from_iter([product]))
            .expect("deliver/1");
    }
    InstanceSequence::new(schema, instances).expect("schema preserved")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_verify::{validate_log, LogValidity};

    #[test]
    fn catalog_is_deterministic_and_sized() {
        let a = catalog(10, 7);
        let b = catalog(10, 7);
        assert_eq!(a, b);
        assert_eq!(a.relation("price").unwrap().len(), 10);
        assert!(price_of(&a, "p3").is_some());
        assert!(price_of(&a, "nope").is_none());
    }

    #[test]
    fn customer_sessions_run_cleanly() {
        let db = catalog(5, 1);
        let inputs = customer_session(&db, 6, 5, 0.9, 2);
        assert_eq!(inputs.len(), 6);
        let run = models::short().run(&db, &inputs).unwrap();
        assert_eq!(run.len(), 6);
    }

    #[test]
    fn honest_logs_validate_and_tampered_logs_do_not() {
        let t = models::short();
        let db = catalog(3, 11);
        let inputs = customer_session(&db, 2, 3, 1.0, 3);
        let log = log_of(&t, &db, &inputs);
        assert!(validate_log(&t, &db, &log).unwrap().is_valid());

        let tampered = tamper_log(&log, "p0");
        // The tampered log claims a delivery with no payment at that step, so
        // unless the honest session happened to pay p0 there, it is invalid.
        match validate_log(&t, &db, &tampered).unwrap() {
            LogValidity::Valid { .. } | LogValidity::Invalid => {}
        }
    }

    #[test]
    fn crash_churn_is_deterministic_and_change_for_change() {
        let ops = crash_churn(300, 42);
        assert_eq!(ops.len(), 300);
        assert_eq!(ops, crash_churn(300, 42));
        assert!(ops.iter().any(|o| matches!(o, ChurnOp::Retract { .. })));
        assert!(ops.iter().any(|o| matches!(o, ChurnOp::Checkpoint)));
        // The wide table exists and spills the inline tuple buffer.
        assert!(ops
            .iter()
            .any(|o| matches!(o, ChurnOp::Create { arity: 6, .. })));

        // Applying in order through a plain Store is change-for-change:
        // every create is fresh, every insert new, every retract live.
        let mut store = rtx_store::Store::new();
        for op in &ops {
            match op {
                ChurnOp::Create { table, arity } => {
                    store.create_table(table.clone(), *arity, None).unwrap();
                }
                ChurnOp::Insert { table, row } => {
                    assert!(store.insert(table, row.clone()).unwrap());
                }
                ChurnOp::Retract { table, row } => {
                    assert!(store.retract(table, row).unwrap());
                }
                ChurnOp::Checkpoint => {}
            }
        }
    }

    #[test]
    fn catalog_mutations_apply_cleanly_in_order() {
        use rtx_datalog::ResidentDb;

        let db = catalog(50, 3);
        let ops = catalog_mutations(&db, 200, 4);
        assert_eq!(ops.len(), 200);
        // Deterministic in the seed, and a mixed stream.
        assert_eq!(ops, catalog_mutations(&db, 200, 4));
        assert!(ops.iter().any(|o| matches!(o, CatalogOp::Reprice { .. })));
        assert!(ops.iter().any(|o| matches!(o, CatalogOp::Delist { .. })));
        assert!(ops.iter().any(|o| matches!(o, CatalogOp::List { .. })));

        // Every retraction targets a live row, every insert is new.
        let resident = ResidentDb::new(db);
        for op in &ops {
            let (dels, adds) = op.price_deltas();
            for row in dels {
                assert!(resident.retract("price", &row).unwrap(), "{op:?}");
            }
            for row in adds {
                assert!(resident.insert("price", row).unwrap(), "{op:?}");
            }
        }
    }

    #[test]
    fn category_model_runs_over_the_category_catalog() {
        let t = category_model();
        let db = category_catalog(20, 4, 5);
        assert_eq!(db.relation("category").unwrap().len(), 20);
        let sessions = session_fleet(&db, 3, 4, 20, 0.9, 7);
        assert_eq!(sessions.len(), 3);
        // Deterministic in the seed, distinct across sessions.
        assert_eq!(sessions, session_fleet(&db, 3, 4, 20, 0.9, 7));
        assert_ne!(sessions[0], sessions[1]);
        for inputs in &sessions {
            let run = t.run(&db, inputs).unwrap();
            assert_eq!(run.len(), 4);
            // Every ordered product is filed, so each first-time order is
            // promoted into its category.
            let first = run.steps().next().unwrap();
            assert_eq!(
                !first.output.relation("promote").unwrap().is_empty(),
                !first.input.relation("order").unwrap().is_empty()
            );
        }
    }

    #[test]
    fn storefront_demand_cost_is_catalog_independent() {
        use rtx_core::{DemandPolicy, Runtime};
        use rtx_datalog::ResidentDb;
        use std::sync::Arc;

        let model = Arc::new(storefront_model());
        // The same browsing session over the first 40 products, against a
        // small and a 10× catalog (the generators are prefix-deterministic,
        // so the browsed products carry identical prices in both).
        let inputs = browse_session(6, 40, 7);
        let run = |n_products: usize, demanded: bool, policy: DemandPolicy| {
            let db = Arc::new(ResidentDb::new(category_catalog(n_products, 8, 1)));
            let runtime = Runtime::shared(db);
            runtime.set_demand_policy(policy);
            let mut session = if demanded {
                runtime
                    .open_session_with_demand("probe", model.clone(), storefront_demand())
                    .unwrap()
            } else {
                runtime.open_session("probe", model.clone()).unwrap()
            };
            let mut derived = 0u64;
            let mut outputs = Vec::new();
            for input in inputs.iter() {
                outputs.push(session.step(input).unwrap());
                derived += session.last_stats().tuples_derived;
            }
            (outputs, derived)
        };

        let (small_full, small_full_cost) = run(200, false, DemandPolicy::Demand);
        let (large_full, large_full_cost) = run(2_000, false, DemandPolicy::Demand);
        let (small_probe, small_probe_cost) = run(200, true, DemandPolicy::Demand);
        let (large_probe, large_probe_cost) = run(2_000, true, DemandPolicy::Demand);
        let (large_filtered, _) = run(2_000, true, DemandPolicy::Full);

        // The demanded footprint is identical under both policies, and a
        // restriction of the full session's output.
        assert_eq!(large_probe, large_filtered);
        for (probe, full) in large_probe.iter().zip(&large_full) {
            for (name, relation) in probe.iter() {
                for tuple in relation.iter() {
                    assert!(full.holds(name.clone(), tuple));
                }
            }
        }
        // The probe itself is catalog-independent: same derivations against
        // the 10× catalog.  Full evaluation pays for the whole catalog.
        assert_eq!(small_probe_cost, large_probe_cost);
        assert!(large_full_cost > 5 * small_full_cost);
        assert!(large_full_cost > 10 * large_probe_cost);
        assert_ne!(small_full, small_probe);
    }

    #[test]
    fn wide_stratum_workload_is_one_parallel_stratum() {
        use rtx_datalog::{parse_program, CompiledProgram, EvalBudget, Parallelism};
        // Six independent two-hop joins over one shared `edge` relation,
        // each over its own tag class: one stratum a scheduler can fan out
        // rule-per-worker.  The `tag` probe binds a non-prefix column.
        let rules = 6;
        let text: String = (0..rules)
            .map(|i| format!("wide-out{i}(X,Z) :- tag(X, t{i}), edge(X,Y), edge(Y,Z).\n"))
            .collect();
        let compiled = CompiledProgram::compile(&parse_program(&text).unwrap()).unwrap();
        assert_eq!(compiled.rules().len(), rules);
        assert!(!compiled.is_recursive());
        let schema = rtx_relational::Schema::from_pairs([("edge", 2), ("tag", 2)]).unwrap();
        let mut db = Instance::empty(&schema);
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..120 {
            db.insert(
                "tag",
                Tuple::from_iter([format!("n{i}"), format!("t{}", i % rules)]),
            )
            .unwrap();
            for _ in 0..3 {
                let j = rng.gen_range(0..120);
                db.insert("edge", Tuple::from_iter([format!("n{i}"), format!("n{j}")]))
                    .unwrap();
            }
        }
        // Parallel evaluation is bit-identical to sequential, stats
        // included.
        let (seq, seq_stats) = compiled
            .evaluate(
                &[&db],
                None,
                Parallelism::sequential(),
                EvalBudget::UNLIMITED,
            )
            .unwrap();
        let (par, par_stats) = compiled
            .evaluate(
                &[&db],
                None,
                Parallelism::threads(4).with_threshold(0),
                EvalBudget::UNLIMITED,
            )
            .unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq_stats, par_stats);
        assert!(!seq.relation("wide-out0").unwrap().is_empty());
    }
}
