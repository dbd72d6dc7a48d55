//! A small scoped-thread executor for data-parallel stratum evaluation.
//!
//! The paper's semantics are set-at-a-time: every rule of a stratum reads the
//! *previous* fixpoint round, so independent rules — and partitions of one
//! rule's outer-atom tuples — are embarrassingly parallel.  The workspace is
//! offline (no rayon/crossbeam), so this module provides the minimal
//! substrate the compiled engine needs:
//!
//! * [`Pool`] — a fixed worker count (defaulting to
//!   [`std::thread::available_parallelism`], overridable with the
//!   `RTX_THREADS` environment variable) plus a **chunked work-sharing
//!   queue**: jobs are indexed `0..n` and workers grab contiguous chunks of
//!   indices from a shared atomic cursor, so a straggling job never leaves
//!   the other workers idle while cheap jobs still amortize the atomic.
//!   Workers are scoped threads ([`std::thread::scope`]), which lets jobs
//!   borrow the evaluation context directly — no `'static` bounds, no
//!   `unsafe`.  The pool itself holds no shared mutable state, so the *value*
//!   is trivially reusable across fixpoint rounds and across evaluations and
//!   a panicking job can never poison it; the OS threads, however, are
//!   spawned per [`Pool::run`] call (persistent workers would need `'static`
//!   jobs, which borrowed round-local deltas rule out without `unsafe`), so
//!   the tuple-count threshold exists precisely to confine spawns to regions
//!   whose join work dwarfs the tens-of-microseconds spawn cost.
//! * [`Parallelism`] — the per-evaluation policy knob threaded through
//!   [`CompiledProgram::evaluate`](crate::CompiledProgram::evaluate), the incremental
//!   [`StepEvaluator`](crate::StepEvaluator) and the `rtx-core` runtime:
//!   how many workers, and above which outer candidate count a pass is
//!   worth fanning out (below the threshold the sequential path runs — OS
//!   threads cost tens of microseconds, so tiny passes must stay inline).
//!
//! ## Determinism contract
//!
//! Parallel evaluation is **bit-identical to sequential**, including the
//! [`EvalStats`](crate::EvalStats) counters.  The engine guarantees this by
//! construction, not by luck:
//!
//! * work units are formed only from passes that are independent in the
//!   sequential schedule (rules of one non-recursive wave never read each
//!   other's heads; rules of one recursive round all read the previous
//!   round's state);
//! * each unit derives into its own sink, and sinks are merged in the fixed
//!   `(stratum, rule, pass, chunk)` order — exactly the order the sequential
//!   loop would have produced them in;
//! * chunks partition the outer candidates (level-0 tuples, or
//!   `(level-0, level-1)` pairs when level 0 is too small to split) in
//!   iteration order, so the concatenated chunk sinks reproduce the
//!   sequential sink verbatim.
//!
//! A panic in a worker propagates to the caller after every other worker has
//! been joined; errors ([`DatalogError`](crate::DatalogError)) are surfaced
//! deterministically as the error of the lowest-indexed failing job.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The accepted forms of `RTX_THREADS`, for the strict-parse error message.
const RTX_THREADS_EXPECTED: &str = "a positive integer worker count";

/// The process's available parallelism, resolved once.  An `RTX_THREADS`
/// environment variable (a positive integer) overrides the detected core
/// count — container deployments and test runs use it to pin
/// auto parallelism without touching every [`Parallelism`] call site.
/// `std::thread::available_parallelism` inspects the cgroup filesystem on
/// Linux — far too expensive to query per evaluation step.
///
/// This path is structurally infallible (it resolves deep inside evaluation),
/// so a malformed override is *loudly reported* on stderr before falling
/// back to core-count detection — never silently ignored.
fn default_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        let raw = std::env::var("RTX_THREADS").ok();
        workers_setting(raw.as_deref())
            .unwrap_or_else(|e| {
                eprintln!("warning: ignoring {e}");
                None
            })
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// Strictly parses an `RTX_THREADS` value through the shared
/// [`env`](rtx_relational::env) contract: `Ok(None)` when unset or blank, a
/// hard [`EnvParseError`](rtx_relational::env::EnvParseError) when malformed
/// (anything but a positive integer).
fn workers_setting(raw: Option<&str>) -> Result<Option<usize>, rtx_relational::env::EnvParseError> {
    rtx_relational::env::parse_setting("RTX_THREADS", raw, RTX_THREADS_EXPECTED, |value| {
        value.parse::<usize>().ok().filter(|&n| n > 0)
    })
}

/// The default outer candidate count above which a pass is fanned out to
/// the pool.  Below it, spawning OS threads costs more than the join saves:
/// the threshold keeps per-step transducer evaluation (a handful of input
/// tuples against an indexed catalog) on the sequential fast path.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 4096;

/// How (and whether) one evaluation fans out to worker threads.
///
/// The default is **auto**: one worker per available core, parallel only
/// above [`DEFAULT_PARALLEL_THRESHOLD`] outer-candidate tuples.  Use
/// [`Parallelism::sequential`] to force the single-threaded path and
/// [`Parallelism::threads`] + [`Parallelism::with_threshold`] for explicit
/// control (tests force tiny thresholds to exercise the parallel code on
/// small instances).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker count; 0 means "resolve from `available_parallelism`".
    threads: usize,
    /// Minimum total outer candidate count for a parallel region.
    threshold: usize,
}

impl Parallelism {
    /// One worker per available core, parallel above the default threshold.
    pub fn auto() -> Self {
        Parallelism {
            threads: 0,
            threshold: DEFAULT_PARALLEL_THRESHOLD,
        }
    }

    /// Always evaluate on the calling thread (bit-identical results; the
    /// baseline of the determinism tests, and of the ledger's
    /// `datalog.pool_speedup`).
    pub fn sequential() -> Self {
        Parallelism {
            threads: 1,
            threshold: usize::MAX,
        }
    }

    /// Exactly `n` workers (clamped to at least 1), default threshold.
    pub fn threads(n: usize) -> Self {
        Parallelism {
            threads: n.max(1),
            threshold: DEFAULT_PARALLEL_THRESHOLD,
        }
    }

    /// Replaces the tuple-count threshold (0 parallelises everything).
    pub fn with_threshold(mut self, threshold: usize) -> Self {
        self.threshold = threshold;
        self
    }

    /// The tuple-count threshold above which a pass goes parallel.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// This policy with the auto worker count pinned to a concrete number —
    /// one `available_parallelism` query per evaluation instead of one per
    /// parallel region.
    pub fn resolved(self) -> Self {
        Parallelism {
            threads: self.worker_count(),
            threshold: self.threshold,
        }
    }

    /// This policy's worker budget divided across `shards` co-resident
    /// evaluators: each shard receives an equal share of the *resolved*
    /// budget (at least one worker), so `shards` concurrently evaluating
    /// runtimes claim about one core total per core available — instead of
    /// each independently claiming `available_parallelism` and
    /// oversubscribing the machine `shards`×.
    ///
    /// The division happens eagerly: the returned policy carries a concrete
    /// worker count, never the "resolve from the environment" sentinel, so
    /// the process-global core budget is split, not re-resolved per shard.
    pub fn divided_among(self, shards: usize) -> Parallelism {
        let shards = shards.max(1);
        Parallelism {
            threads: (self.worker_count() / shards).max(1),
            threshold: self.threshold,
        }
    }

    /// The resolved worker count (auto resolves to the core count, cached
    /// process-wide).
    pub fn worker_count(&self) -> usize {
        if self.threads == 0 {
            default_workers()
        } else {
            self.threads
        }
    }

    /// True if this policy can ever run more than one worker.
    pub fn is_parallel(&self) -> bool {
        self.worker_count() > 1
    }

    /// A pool sized for this policy.
    pub fn pool(&self) -> Pool {
        Pool::new(self.worker_count())
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::auto()
    }
}

/// A fixed-size scoped-thread executor with a chunked work-sharing queue.
///
/// See the [module docs](self) for the design and the determinism contract.
/// The pool is plain data (a worker count); all scheduling state lives on the
/// stack of one [`Pool::run`] call, so a panicking job cannot poison later
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool with `workers` workers (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Pool {
            workers: workers.max(1),
        }
    }

    /// A pool with one worker per available core.
    pub fn auto() -> Self {
        Pool::new(default_workers())
    }

    /// The worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `n` indexed jobs across the workers and returns their results in
    /// job order.
    ///
    /// Work is distributed through a shared atomic cursor handing out
    /// contiguous index chunks (work-sharing: a slow job never idles the
    /// other workers, and cheap jobs amortize the atomic).  With one worker,
    /// zero jobs, or a single job the calling thread runs everything inline —
    /// the zero-work and single-chunk edge cases never spawn.
    ///
    /// If a job panics, the panic is propagated to the caller **after** all
    /// workers have been joined; the pool itself is stateless and remains
    /// usable for the next run.
    pub fn run<T, F>(&self, n: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.workers.min(n);
        if workers <= 1 {
            return (0..n).map(job).collect();
        }
        // Chunk size: enough jobs per grab that the atomic is amortized,
        // small enough that the tail stays balanced across workers.
        let chunk = (n / (workers * 8)).clamp(1, 64);
        let cursor = AtomicUsize::new(0);
        let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();

        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine: Vec<(usize, T)> = Vec::new();
                        loop {
                            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if start >= n {
                                break;
                            }
                            for i in start..(start + chunk).min(n) {
                                mine.push((i, job(i)));
                            }
                        }
                        mine
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(pairs) => {
                        for (i, value) in pairs {
                            results[i] = Some(value);
                        }
                    }
                    // Keep joining the rest before re-raising: no detached
                    // worker may outlive the run.
                    Err(payload) => panic = panic.take().or(Some(payload)),
                }
            }
        });
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|slot| slot.expect("the cursor hands every job to exactly one worker"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_come_back_in_job_order() {
        let pool = Pool::new(4);
        let out = pool.run(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn zero_work_and_single_chunk_run_inline() {
        let pool = Pool::new(8);
        let spawned = AtomicU64::new(0);
        let out: Vec<usize> = pool.run(0, |i| {
            spawned.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert!(out.is_empty());
        assert_eq!(spawned.load(Ordering::Relaxed), 0);
        // A single job short-circuits to the calling thread.
        let out = pool.run(1, |i| i + 41);
        assert_eq!(out, vec![41]);
        // A one-worker pool never spawns either.
        assert_eq!(Pool::new(1).run(10, |i| i), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let pool = Pool::new(3);
        let counts: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        pool.run(1000, |i| counts[i].fetch_add(1, Ordering::Relaxed));
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn worker_panic_propagates_without_poisoning_the_pool() {
        let pool = Pool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(64, |i| {
                if i == 13 {
                    panic!("job 13 exploded");
                }
                i
            })
        }));
        let payload = result.expect_err("the job panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(message.contains("job 13 exploded"), "payload: {message}");
        // The pool holds no state a panic could poison: the next run works.
        let out = pool.run(64, |i| i + 1);
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn rtx_threads_override_parses_strictly() {
        // The OnceLock makes the env-var path untestable in-process after
        // first use, so the parser itself is the unit under test.
        assert_eq!(workers_setting(Some("3")), Ok(Some(3)));
        assert_eq!(workers_setting(Some(" 8 ")), Ok(Some(8)));
        assert_eq!(workers_setting(None), Ok(None));
        assert_eq!(workers_setting(Some("")), Ok(None));
        // Malformed values are hard errors naming the variable — the shared
        // `RTX_*` contract — not a silent fall-through to core detection.
        for bad in ["0", "-2", "many", "3.5", "2 shards"] {
            let err = workers_setting(Some(bad)).unwrap_err();
            assert_eq!(err.var, "RTX_THREADS");
            assert_eq!(err.value, bad);
        }
    }

    #[test]
    fn divided_among_splits_the_resolved_budget_across_shards() {
        // N shards share the budget instead of multiplying it: with the
        // process budget resolved to W workers, shard policies carry
        // max(1, W / N) workers each.
        assert_eq!(Parallelism::threads(8).divided_among(4).worker_count(), 2);
        assert_eq!(Parallelism::threads(8).divided_among(3).worker_count(), 2);
        assert_eq!(Parallelism::threads(3).divided_among(8).worker_count(), 1);
        assert_eq!(Parallelism::threads(5).divided_among(1).worker_count(), 5);
        // Degenerate shard counts clamp rather than panic.
        assert_eq!(Parallelism::threads(4).divided_among(0).worker_count(), 4);
        // The auto sentinel is resolved *before* division: the result is a
        // concrete count, so no shard re-resolves `available_parallelism`.
        let total = Parallelism::auto().worker_count();
        let per_shard = Parallelism::auto().divided_among(4);
        assert_eq!(per_shard.worker_count(), (total / 4).max(1));
        assert_eq!(per_shard, per_shard.resolved());
        // The threshold knob is untouched by division.
        assert_eq!(
            Parallelism::threads(8).with_threshold(7).divided_among(2),
            Parallelism::threads(4).with_threshold(7)
        );
    }

    #[test]
    fn parallelism_policies_resolve() {
        assert_eq!(Parallelism::sequential().worker_count(), 1);
        assert!(!Parallelism::sequential().is_parallel());
        assert_eq!(Parallelism::threads(0).worker_count(), 1);
        assert_eq!(Parallelism::threads(6).worker_count(), 6);
        assert_eq!(Parallelism::threads(6).pool().workers(), 6);
        assert!(Parallelism::auto().worker_count() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::auto());
        assert_eq!(Parallelism::threads(2).with_threshold(7).threshold(), 7);
        assert_eq!(
            Parallelism::threads(2).threshold(),
            DEFAULT_PARALLEL_THRESHOLD
        );
    }
}
