//! The four workloads.  Each layer does most of the work in one of them and
//! little in another, so an optimisation has a workload that exercises its
//! mechanism and one that bypasses it.

pub mod durable_churn;
pub mod fleet_bench;
pub mod wire_fleet;

use crate::common::RunConfig;
use crate::report::Outcome;

/// Runs the named workload in this process.
pub fn run(workload: &str, config: &RunConfig) -> Result<Outcome, String> {
    match workload {
        "wire_fleet" => wire_fleet::run(config),
        "direct_fleet" => fleet_bench::run(&fleet_bench::direct_fleet(config), config),
        "catalog_scan" => fleet_bench::run(&fleet_bench::catalog_scan(config), config),
        "durable_churn" => durable_churn::run(config),
        other => Err(format!(
            "unknown workload `{other}` (known: {})",
            crate::contract::WORKLOADS.join(", ")
        )),
    }
}
