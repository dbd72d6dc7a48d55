//! The names the benchmark is held to: workloads, end-to-end metrics and
//! per-layer metrics, exactly as `BENCHMARK.json` declares them (a test
//! keeps the two in step).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

pub const WORKLOADS: [&str; 4] = [
    "wire_fleet",
    "direct_fleet",
    "catalog_scan",
    "durable_churn",
];

/// What a user of the system sees.  Every workload reports every one of
/// these from its untraced pass, and none of them is ever zero.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("steps_per_s", "1/s"),
    lower("step_p50_us", "us"),
    lower("step_p95_us", "us"),
    lower("open_p50_us", "us"),
    lower("cpu_us_per_step", "us"),
    lower("rss_peak_mb", "MB"),
];

/// Single layers, from the traced pass.  A layer that does no work on a
/// workload reports 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // rtx-front: the wire, as the benchmark's own client sees it.
    lower("front.step_rtt_us", "us"),
    lower("front.step_rtt_p99_us", "us"),
    lower("front.open_rtt_us", "us"),
    lower("front.close_rtt_us", "us"),
    lower("front.batch4_rtt_us", "us"),
    lower("front.parse_facts_us", "us"),
    lower("front.render_us", "us"),
    lower("front.transport_us", "us"),
    lower("front.transport_share", "ratio"),
    lower("front.client_rtt_us", "us"),
    lower("front.busy_replies", "count"),
    lower("front.err_replies", "count"),
    lower("front.bytes_per_step", "B"),
    // rtx-core: sessions.
    lower("core.step_plain_us", "us"),
    lower("core.step_demand_us", "us"),
    lower("core.step_enforced_us", "us"),
    lower("core.step_full_us", "us"),
    lower("core.step_p99_us", "us"),
    lower("core.step_self_us", "us"),
    lower("core.open_plain_us", "us"),
    lower("core.open_demand_us", "us"),
    lower("core.open_enforced_us", "us"),
    lower("core.close_us", "us"),
    lower("core.run_us", "us"),
    lower("core.step_age_ratio", "ratio"),
    lower("core.rss_kb_per_session", "kB"),
    // rtx-datalog: evaluation.
    lower("datalog.eval_us", "us"),
    lower("datalog.eval_plain_us", "us"),
    lower("datalog.eval_demand_us", "us"),
    lower("datalog.eval_full_us", "us"),
    higher("datalog.pool_speedup", "ratio"),
    lower("datalog.tuples_derived_per_step", "count"),
    lower("datalog.rule_applications_per_step", "count"),
    lower("datalog.magic_tuples_per_step", "count"),
    lower("datalog.cached_rows", "count"),
    lower("datalog.fresh_step_us", "us"),
    lower("datalog.stale_step_us", "us"),
    lower("datalog.view_refresh_us", "us"),
    lower("datalog.index_builds_per_mutation", "count"),
    // rtx-verify: the online monitor.
    lower("verify.admit_us", "us"),
    lower("verify.observe_us", "us"),
    lower("verify.monitor_share", "ratio"),
    lower("verify.work_per_step", "count"),
    lower("verify.fork_us", "us"),
    lower("verify.audit_us", "us"),
    // rtx-store: durability.
    lower("store.mutation_us", "us"),
    lower("store.mutation_p99_us", "us"),
    lower("store.wal_apply_us", "us"),
    lower("store.wal_apply_p99_us", "us"),
    lower("store.resident_sync_us", "us"),
    lower("store.fsync_us", "us"),
    lower("store.fsyncs_per_mutation", "count"),
    lower("store.wal_bytes_per_mutation", "B"),
    lower("store.bytes_appended", "B"),
    lower("store.checkpoint_ms", "ms"),
    lower("store.snapshot_bytes_per_row", "B"),
    lower("store.recovery_s", "s"),
    lower("store.replay_us_per_op", "us"),
    lower("store.snapshot_load_us_per_row", "us"),
    lower("store.to_resident_ms", "ms"),
    // rtx-relational and the harness itself.
    lower("relational.symbols_per_kstep", "count"),
    lower("ledger.trace_overhead_share", "ratio"),
];

/// The regression bound of an end-to-end metric, as a share of the parent's
/// median (`BENCHMARK.json` carries the same numbers).
pub fn bound(metric: &str) -> f64 {
    match metric {
        "rss_peak_mb" => 0.15,
        _ => 0.25,
    }
}

pub fn unit_of(metric: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|def| def.name == metric)
        .map(|def| def.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use std::collections::BTreeSet;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let doc = benchmark_json();
        let own = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for metric in doc.get("end_to_end").and_then(Json::as_array).unwrap() {
            let name = metric.get("name").and_then(Json::as_str).unwrap();
            let declared_bound = metric.get("bound").and_then(Json::as_f64).unwrap();
            assert_eq!(declared_bound, bound(name), "{name}");
            assert!(declared_bound <= 0.25);
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "duplicate {}", def.name);
            assert!(def.name.len() <= 64 && def.name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.unit.len() <= 16);
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert_eq!(unit_of("store.recovery_s"), Some("s"));
        assert_eq!(unit_of("nope"), None);
    }
}
