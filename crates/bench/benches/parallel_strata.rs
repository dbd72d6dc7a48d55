//! PERF-PS: data-parallel stratum evaluation — the wide-stratum workload
//! (many independent rules over one shared graph) swept across worker
//! counts, with the sequential engine as the baseline.  Parallel results are
//! bit-identical to sequential (the engine merges worker sinks in fixed
//! order), so every configuration measures the same computation; only the
//! scheduling differs.

use criterion::{black_box, Criterion};
use rtx::datalog::{CompiledProgram, EvalBudget, Parallelism};

fn benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_strata");
    for (rules, nodes, degree) in [(8usize, 600usize, 6usize), (16, 1500, 8)] {
        let program = rtx::workloads::wide_stratum_program(rules);
        let compiled = CompiledProgram::compile(&program).unwrap();
        let db = rtx::workloads::wide_stratum_edb(nodes, degree, rules, 1);
        let resident = compiled.prepare(&db);

        // Sanity: the parallel arms compute exactly the sequential instance.
        let (expected, expected_stats) = compiled
            .evaluate(
                &[],
                Some(&resident.view_for(&compiled)),
                Parallelism::sequential(),
                EvalBudget::UNLIMITED,
            )
            .unwrap();
        for threads in [2usize, 8] {
            let (out, stats) = compiled
                .evaluate(
                    &[],
                    Some(&resident.view_for(&compiled)),
                    Parallelism::threads(threads).with_threshold(256),
                    EvalBudget::UNLIMITED,
                )
                .unwrap();
            assert_eq!(out, expected);
            assert_eq!(stats, expected_stats);
        }

        group.bench_function(format!("sequential/rules={rules},nodes={nodes}"), |b| {
            b.iter(|| {
                black_box(
                    compiled
                        .evaluate(
                            &[],
                            Some(&resident.view_for(&compiled)),
                            Parallelism::sequential(),
                            EvalBudget::UNLIMITED,
                        )
                        .unwrap(),
                )
            });
        });
        for threads in [2usize, 4, 8] {
            let policy = Parallelism::threads(threads).with_threshold(256);
            group.bench_function(
                format!("threads={threads}/rules={rules},nodes={nodes}"),
                |b| {
                    b.iter(|| {
                        black_box(
                            compiled
                                .evaluate(
                                    &[],
                                    Some(&resident.view_for(&compiled)),
                                    policy,
                                    EvalBudget::UNLIMITED,
                                )
                                .unwrap(),
                        )
                    });
                },
            );
        }
    }
    group.finish();
}

fn main() {
    let mut c = rtx_bench::criterion_config();
    benches(&mut c);
    c.final_summary();
}
