//! # rtx-bench
//!
//! Criterion benchmark harness for the reproduction: one bench target per
//! experiment on a library layer.  The end-to-end numbers (wire, fleet,
//! scan and durable workloads) come from the `rtx-ledger` benchmark in
//! `ledger/` instead; see `BENCHMARK.json`.
//!
//! * `fig_runs` — the Figure 1 (`short`) and Figure 2 (`friendly`) runs;
//! * `thm31_log_validation` — log validation vs. log length and schema size;
//! * `thm32_goal_reachability` — goal reachability;
//! * `thm33_temporal` — temporal-property verification;
//! * `thm35_containment` — customization containment;
//! * `thm41_enforcement` — `T_sdi` policy compilation and enforced runs;
//! * `thm44_error_free` — verification over error-free runs;
//! * `gen_language` — `Gen(T)` enumeration and DFA construction;
//! * `datalog_eval` — naive vs. semi-naive datalog evaluation (ablation);
//! * `parallel_strata` — data-parallel stratum evaluation vs. thread count;
//! * `mutation` — delete-rederive maintenance of a 1-tuple retraction
//!   against a 100k-product catalog vs. full re-evaluation;
//! * `monitoring` — an 8-session fleet unmonitored, with an observing
//!   `SessionMonitor`, and with its input-control gate enforcing;
//! * `demand_footprint` — per-session probe cost vs. catalog size: full
//!   evaluation, full-then-filtered, and the magic-set rewrite;
//! * `sharding` — one session fleet on an unsharded runtime vs. 1, 2, 4 and
//!   8 shards with one stepping thread per shard;
//! * `bs_sat` — grounded Bernays–Schönfinkel satisfiability scaling.
//!
//! The library itself only hosts shared helpers.

/// Standard, short Criterion configuration so that the full suite runs in a
/// few minutes: small sample counts and measurement windows.
pub fn criterion_config() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800))
        .without_plots()
}
