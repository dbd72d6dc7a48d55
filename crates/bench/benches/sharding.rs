//! PERF-SHARD: sharded session-fleet throughput — the scale claim of the
//! sharded runtime.  The same fleet of customer sessions over one shared
//! catalog runs on a single unsharded `Runtime` (the baseline) and on a
//! `ShardedRuntime` at 1, 2, 4 and 8 shards with one stepping thread per
//! shard.  Per-shard evaluation is pinned sequential so the sweep isolates
//! the sharding/threading effect from the intra-query worker pool.  A
//! sharded runtime is the same `Runtime` with a shard count, so the 1-shard
//! row differs from the baseline only by its one stepping thread.

use criterion::Criterion;
use rtx::datalog::{Parallelism, ResidentDb};
use rtx::prelude::*;
use std::sync::Arc;

fn benches(c: &mut Criterion) {
    let model = Arc::new(rtx::workloads::category_model());
    let (sessions, products, steps) = (32usize, 1_000usize, 4usize);
    let db = rtx::workloads::category_catalog(products, 50, 1);
    let fleet = rtx::workloads::session_fleet(&db, sessions, steps, products, 0.9, 3);
    let resident = Arc::new(ResidentDb::new(db));

    let mut group = c.benchmark_group("session_fleet_sharded");

    // Baseline: the whole fleet on one unsharded runtime, one thread.
    group.bench_function(format!("unsharded/sessions={sessions}"), |b| {
        b.iter(|| {
            let runtime = Runtime::shared_with(Arc::clone(&resident), Parallelism::sequential());
            for (i, inputs) in fleet.iter().enumerate() {
                let mut session = runtime
                    .open_session(format!("s{i}"), Arc::clone(&model))
                    .unwrap();
                for input in inputs.iter() {
                    session.step(input).unwrap();
                }
            }
        });
    });

    // Sharded: one stepping thread per shard, sessions placed explicitly on
    // the shard their thread owns (the front-end's worker model).
    for shards in [1usize, 2, 4, 8] {
        group.bench_function(format!("shards={shards}/sessions={sessions}"), |b| {
            b.iter(|| {
                let sharded = ShardedRuntime::shared_with(
                    Arc::clone(&resident),
                    shards,
                    Parallelism::sequential(),
                );
                std::thread::scope(|scope| {
                    for t in 0..shards {
                        let sharded = sharded.clone();
                        let model = Arc::clone(&model);
                        let fleet = &fleet;
                        scope.spawn(move || {
                            for i in (t..sessions).step_by(shards) {
                                let mut session = sharded
                                    .open_session_on(t, format!("s{i}"), Arc::clone(&model))
                                    .unwrap();
                                for input in fleet[i].iter() {
                                    session.step(input).unwrap();
                                }
                            }
                        });
                    }
                });
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
