//! PERF-RET: first-class retraction cost.  A 1-tuple retraction against a
//! 100k-product catalog maintained by the delete-rederive engine must cost
//! on the order of the affected closure (a handful of derived tuples), not
//! a re-evaluation of the whole quarter-million-tuple fixpoint — the
//! `full-reeval` baseline in this group is what every catalog mutation used
//! to cost under the grow-only assumption.

use criterion::{black_box, Criterion};
use rtx::datalog::{CompiledProgram, DredEngine, EvalBudget, MutationBatch, Parallelism};
use rtx::prelude::*;

const PRODUCTS: usize = 100_000;

/// The maintained program: a counting (non-recursive) chain over the
/// catalog plus a recursive bundle-reachability stratum, so one retraction
/// exercises both maintenance paths.
const PROGRAM: &str = "\
listed(X) :- price(X,Y).\n\
sellable(X) :- listed(X), available(X).\n\
bundled(X,Y) :- bundle(X,Y).\n\
bundled(X,Z) :- bundled(X,Y), bundle(Y,Z).\n\
promo(X) :- bundled(X,Y), sellable(Y).";

/// A [`rtx::workloads::catalog`] extended with `bundle` chains of four
/// consecutive products, keeping the recursive closure sparse (six
/// `bundled` pairs per chain) while the catalog itself is large.
fn bundle_db(products: usize, seed: u64) -> Instance {
    let base = rtx::workloads::catalog(products, seed);
    let schema =
        Schema::from_pairs([("price", 2), ("available", 1), ("bundle", 2)]).expect("distinct");
    let mut db = Instance::empty(&schema);
    for (name, rel) in base.iter() {
        db.absorb_relation(name.clone(), rel).expect("same schema");
    }
    for i in 0..products.saturating_sub(1) {
        if i % 4 != 3 {
            db.insert(
                "bundle",
                Tuple::from_iter([format!("p{i}"), format!("p{}", i + 1)]),
            )
            .expect("bundle/2");
        }
    }
    db
}

fn benches(c: &mut Criterion) {
    let program = parse_program(PROGRAM).unwrap();
    let db = bundle_db(PRODUCTS, 11);
    let old_price = rtx::workloads::price_of(&db, "p0").expect("p0 is listed");
    let listed = Tuple::new(vec![Value::str("p0"), Value::int(old_price)]);
    let relisted = Tuple::new(vec![Value::str("p0"), Value::int(1_000_000)]);

    let mut engine = DredEngine::new(&program, db.clone()).unwrap();
    let mut group = c.benchmark_group("retraction");

    // Delist + relist one product: two single-tuple maintenance passes, each
    // touching only p0's derived closure (its listed/sellable rows and the
    // ≤3 bundle partners promoting it).
    group.bench_function(format!("dred-delist-relist/products={PRODUCTS}"), |b| {
        b.iter(|| {
            engine.retract("price", listed.clone()).unwrap();
            engine.insert("price", listed.clone()).unwrap();
        });
    });

    // A price change as one atomic batch (retract old row, insert new row),
    // applied and then reverted so every iteration sees the same catalog.
    group.bench_function(format!("dred-reprice-batch/products={PRODUCTS}"), |b| {
        b.iter(|| {
            engine
                .apply(
                    &MutationBatch::new()
                        .retract("price", listed.clone())
                        .insert("price", relisted.clone()),
                )
                .unwrap();
            engine
                .apply(
                    &MutationBatch::new()
                        .retract("price", relisted.clone())
                        .insert("price", listed.clone()),
                )
                .unwrap();
        });
    });

    // The pre-retraction world: any catalog mutation forces a full
    // re-evaluation of the fixpoint over the 100k-product catalog.
    let compiled = CompiledProgram::compile(&program).unwrap();
    group.bench_function(format!("full-reeval/products={PRODUCTS}"), |b| {
        b.iter(|| {
            let (out, _) = compiled
                .evaluate(&[&db], None, Parallelism::default(), EvalBudget::UNLIMITED)
                .unwrap();
            black_box(out);
        });
    });

    group.finish();
}

fn main() {
    let mut c = rtx_bench::criterion_config();
    benches(&mut c);
    c.final_summary();
}
