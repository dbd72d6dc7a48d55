//! PERF-DL: the set-at-a-time output-program evaluation the paper advocates —
//! Spocus step cost versus catalog size, and the naive vs semi-naive vs
//! compiled-indexed ablation on a recursive substrate workload.

use criterion::Criterion;
use rtx::core::models;
use rtx::datalog::{
    evaluate_nonrecursive, evaluate_stratified, parse_program, CompiledProgram, EvalBudget,
    EvalOptions, FixpointStrategy, Parallelism,
};
use rtx::prelude::*;

fn benches(c: &mut Criterion) {
    let short = models::short();

    // The headline number: a whole customer run against growing catalogs.
    // Each step is one compiled evaluation; `price` is probed on its first
    // column, which the sorted tuple set serves directly, so this should
    // scale with the session size, not the catalog size.
    let mut group = c.benchmark_group("spocus_step_vs_catalog_size");
    for products in [100usize, 1_000, 10_000] {
        let db = rtx::workloads::catalog(products, 1);
        let inputs = rtx::workloads::customer_session(&db, 4, products, 0.9, 3);
        group.bench_function(format!("products={products}"), |b| {
            b.iter(|| short.run(&db, &inputs).unwrap());
        });
    }
    group.finish();

    // String-heavy workload: 64-character SKU keys make every register bind,
    // index key and derived tuple pay for string handling — the workload the
    // symbol-interning work targets.  `short-run` is the whole-transducer
    // path; `compiled-join` evaluates a fresh three-way join whose non-prefix
    // index over `category` is rebuilt (rehashing every key) per evaluation.
    let mut group = c.benchmark_group("string_heavy_sku");
    for products in [2_000usize, 10_000] {
        let db = rtx::workloads::sku_catalog(products, 1);
        let inputs = rtx::workloads::sku_customer_session(&db, 4, products, 0.9, 3);
        group.bench_function(format!("short-run/products={products}"), |b| {
            b.iter(|| short.run(&db, &inputs).unwrap());
        });
    }
    {
        let products = 10_000usize;
        let enrich =
            parse_program("enriched(X,P,C) :- order(X), price(X,P), category(C,X).").unwrap();
        let compiled = CompiledProgram::compile(&enrich).unwrap();
        let schema = Schema::from_pairs([("price", 2), ("category", 2)]).unwrap();
        let mut db = Instance::empty(&schema);
        for i in 0..products {
            let sku = rtx::workloads::sku_name(i);
            db.insert(
                "price",
                Tuple::new(vec![Value::str(&sku), Value::int(i as i64 + 1)]),
            )
            .unwrap();
            db.insert(
                "category",
                Tuple::new(vec![Value::str(format!("cat-{}", i % 50)), Value::str(sku)]),
            )
            .unwrap();
        }
        let order_schema = Schema::from_pairs([("order", 1)]).unwrap();
        let mut orders = Instance::empty(&order_schema);
        for i in (0..products).step_by(10) {
            orders
                .insert(
                    "order",
                    Tuple::new(vec![Value::str(rtx::workloads::sku_name(i))]),
                )
                .unwrap();
        }
        group.bench_function(format!("compiled-join/products={products}"), |b| {
            b.iter(|| {
                compiled
                    .evaluate(
                        &[&orders, &db],
                        None,
                        Parallelism::default(),
                        EvalBudget::UNLIMITED,
                    )
                    .unwrap()
            });
        });
    }
    group.finish();

    // In-repo ablation of the same step: the reference interpreter
    // (re-analysis + nested scans over the unioned EDB, the pre-compilation
    // evaluation path) versus the cached compiled program.
    let mut group = c.benchmark_group("spocus_step_engines");
    for products in [1_000usize, 10_000] {
        let db = rtx::workloads::catalog(products, 1);
        let inputs = rtx::workloads::customer_session(&db, 4, products, 0.9, 3);
        let program = short.output_program().clone();
        group.bench_function(format!("interpreter/products={products}"), |b| {
            b.iter(|| {
                let mut state = Instance::empty(short.schema().state());
                for input in inputs.iter() {
                    let edb = input.union(&state).unwrap().union(&db).unwrap();
                    evaluate_nonrecursive(&program, &edb).unwrap();
                    state = short.state_step(input, &state, &db).unwrap();
                }
            });
        });
        group.bench_function(format!("compiled/products={products}"), |b| {
            b.iter(|| short.run(&db, &inputs).unwrap());
        });
    }
    group.finish();

    // Ablation: naive vs semi-naive vs compiled-indexed fixpoint on the
    // transitive closure of a chain.
    let tc = parse_program(
        "tc(X,Y) :- edge(X,Y).\n\
         tc(X,Z) :- edge(X,Y), tc(Y,Z).",
    )
    .unwrap();
    let mut group = c.benchmark_group("datalog_fixpoint_ablation");
    for n in [20usize, 60] {
        let schema = Schema::from_pairs([("edge", 2)]).unwrap();
        let mut edb = Instance::empty(&schema);
        for i in 0..n {
            edb.insert(
                "edge",
                Tuple::new(vec![Value::int(i as i64), Value::int(i as i64 + 1)]),
            )
            .unwrap();
        }
        for (label, strategy) in [
            ("naive", FixpointStrategy::Naive),
            ("semi-naive", FixpointStrategy::SemiNaive),
        ] {
            let options = EvalOptions {
                strategy,
                ..EvalOptions::default()
            };
            group.bench_function(format!("{label}/chain={n}"), |b| {
                b.iter(|| evaluate_stratified(&tc, &edb, options).unwrap());
            });
        }
        // Compile inside the iteration: the whole per-call cost of the
        // compiled engine, analysis included.
        group.bench_function(format!("compiled-indexed/chain={n}"), |b| {
            b.iter(|| {
                CompiledProgram::compile(&tc)
                    .unwrap()
                    .evaluate(&[&edb], None, Parallelism::default(), EvalBudget::UNLIMITED)
                    .unwrap()
            });
        });
        // The compiled engine without per-call compilation: what a resident
        // service pays once the program is installed.
        let compiled = CompiledProgram::compile(&tc).unwrap();
        group.bench_function(format!("compiled-cached/chain={n}"), |b| {
            b.iter(|| {
                compiled
                    .evaluate(&[&edb], None, Parallelism::default(), EvalBudget::UNLIMITED)
                    .unwrap()
            });
        });
    }
    group.finish();
}

fn main() {
    let mut c = rtx_bench::criterion_config();
    benches(&mut c);
    c.final_summary();
}
