//! What every workload shares: the run's settings, the phase conductor that
//! keeps generator threads in step with the measured windows, and the
//! assembly of the end-to-end metrics.

use crate::procfs;
use crate::report::Outcome;
use crate::stats::{self, Samples};
use crate::trace::{self, Span};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The settings of one workload run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the measured window, in seconds.
    pub seconds: f64,
    pub traced: bool,
    /// Smoke mode: tiny windows and catalogs, checks on, numbers not gated
    /// (the p99 sample floor does not apply).
    pub quick: bool,
    /// Where trace files and the durable workload's scratch files go —
    /// always inside the build's target directory.
    pub out_dir: PathBuf,
}

impl RunConfig {
    /// Caches fill and lazy index builds finish before anything is timed.
    pub fn warm_up(&self) -> Duration {
        Duration::from_secs_f64((self.seconds * 0.25).clamp(0.1, 5.0))
    }

    /// The untraced pass measures for the whole of `--seconds`; the traced
    /// pass splits it between a plain window (the base of
    /// `ledger.trace_overhead_share`) and the traced one.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(if self.traced {
            self.seconds * 0.4
        } else {
            self.seconds
        })
    }

    /// Set-up is timed several times and `setup_s` is the median: this says
    /// whether to time one more throw-away set-up before the one the run
    /// keeps.  At least three in all, and — a 25 ms set-up is at the mercy
    /// of one scheduler hiccup — more while they are cheap: until they add
    /// up to a second and a half, at most fifteen.
    pub fn another_setup(&self, timed_s: &[f64]) -> bool {
        if self.quick || self.traced {
            return false;
        }
        timed_s.len() < 2 || (timed_s.len() < 14 && timed_s.iter().sum::<f64>() < 1.5)
    }

    /// A size scaled down for `--quick` (never below `floor`).
    pub fn scaled(&self, full: usize, floor: usize) -> usize {
        if self.quick {
            (full / 20).max(floor)
        } else {
            full
        }
    }

    /// Generator threads: `G = min(2, nproc)`.
    pub fn generators(&self) -> usize {
        nproc().min(2)
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The phases of a run, in order.  Workers poll the current phase between
/// operations; the conducting thread advances it on a wall-clock schedule
/// and reads the process CPU time at each boundary.
pub mod phase {
    pub const WARM_UP: u8 = 1;
    pub const MEASURE: u8 = 2;
    /// Traced pass only: workers swap their plain fleet for a probed one.
    pub const SWITCH: u8 = 3;
    pub const TRACE: u8 = 4;
    pub const STOP: u8 = 5;
}

#[derive(Debug, Default)]
pub struct Conductor {
    phase: AtomicU8,
    arrived: AtomicUsize,
    failed: AtomicBool,
}

/// Held by a worker for as long as it runs: a worker that returns early or
/// panics without [`WorkerGuard::done`] marks the run failed, so the
/// conductor stops waiting for it.
pub struct WorkerGuard<'a> {
    conductor: &'a Conductor,
    done: bool,
}

impl WorkerGuard<'_> {
    pub fn done(mut self) {
        self.done = true;
    }
}

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.conductor.failed.store(true, Ordering::SeqCst);
        }
    }
}

/// Wall-clock and CPU time of one measured window.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub wall_s: f64,
    pub cpu_us: f64,
    /// True when `cpu_us` is the per-thread nanosecond count, false when it
    /// fell back to 10 ms ticks (threads came or went inside the window).
    pub cpu_precise: bool,
}

impl Conductor {
    // The phase publishes no data — workers own what they measure and hand
    // it back through their join handle — but SeqCst costs nothing at one
    // load per operation and keeps the protocol easy to reason about.
    pub fn phase(&self) -> u8 {
        self.phase.load(Ordering::SeqCst)
    }

    fn set(&self, phase: u8) {
        self.phase.store(phase, Ordering::SeqCst);
    }

    pub fn worker(&self) -> WorkerGuard<'_> {
        WorkerGuard {
            conductor: self,
            done: false,
        }
    }

    /// Worker side: reports ready and blocks until the run reaches `phase`
    /// (or is stopped).
    pub fn arrive_and_wait(&self, phase: u8) {
        self.arrived.fetch_add(1, Ordering::SeqCst);
        while self.phase() < phase {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Conductor side: blocks until `workers` more arrivals.
    fn wait_for(&self, workers: usize, seen: &mut usize) -> Result<(), String> {
        *seen += workers;
        while self.arrived.load(Ordering::SeqCst) < *seen {
            if self.failed.load(Ordering::SeqCst) {
                return Err("a worker failed before reaching its next phase".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }

    fn measure(&self, phase: u8, length: Duration) -> Result<Window, String> {
        let cpu_start = procfs::CpuReading::now()?;
        let start = Instant::now();
        self.set(phase);
        std::thread::sleep(length);
        let wall_s = start.elapsed().as_secs_f64();
        let (cpu_us, cpu_precise) = procfs::CpuReading::now()?.us_since(&cpu_start);
        Ok(Window {
            wall_s,
            cpu_us,
            cpu_precise,
        })
    }

    /// Conducts a whole run for `workers` worker threads: wait until all
    /// are prepared, warm up, measure; in the traced pass additionally let
    /// the workers switch to probed fleets and measure again.  Returns the
    /// plain window and, when traced, the traced one.  `prepared` runs once
    /// every worker has finished preparing, before warm-up starts.
    pub fn conduct(
        &self,
        workers: usize,
        config: &RunConfig,
        prepared: impl FnOnce(),
    ) -> Result<(Window, Option<Window>), String> {
        let result = self.conduct_phases(workers, config, prepared);
        // Whatever happened, release the workers.
        self.set(phase::STOP);
        result
    }

    fn conduct_phases(
        &self,
        workers: usize,
        config: &RunConfig,
        prepared: impl FnOnce(),
    ) -> Result<(Window, Option<Window>), String> {
        let mut seen = 0;
        self.wait_for(workers, &mut seen)?;
        prepared();
        self.set(phase::WARM_UP);
        std::thread::sleep(config.warm_up());
        let plain = self.measure(phase::MEASURE, config.window())?;
        let traced = if config.traced {
            self.set(phase::SWITCH);
            self.wait_for(workers, &mut seen)?;
            Some(self.measure(phase::TRACE, config.window())?)
        } else {
            None
        };
        if self.failed.load(Ordering::SeqCst) {
            return Err("a worker failed during the run".to_string());
        }
        Ok((plain, traced))
    }
}

/// Fills in the end-to-end metrics every workload reports.
pub fn end_to_end(
    outcome: &mut Outcome,
    config: &RunConfig,
    setup_s: &[f64],
    window: Window,
    steps_ok: u64,
    step: Samples,
    open: Samples,
) {
    outcome.note(
        "cpu_clock",
        if window.cpu_precise {
            "per-thread schedstat (ns)"
        } else {
            "process ticks (10 ms)"
        },
    );
    outcome.note("step_samples", step.len());
    outcome.note("open_samples", open.len());
    if step.dropped() + open.dropped() > 0 {
        outcome.problem(format!(
            "sample buffers overflowed: {} step and {} open latencies were not recorded",
            step.dropped(),
            open.dropped()
        ));
    }
    // A step's percentiles come from the calmest stretch of the window (see
    // `stats`); the whole window's are kept beside them for the reader: the
    // gap between the two is what the sandbox's neighbours took.
    let calm = (!config.quick).then(|| (step.calm_us(0.50), step.calm_us(0.95)));
    let (step, open) = (step.sorted(), open.sorted());
    let whole = (step.p50_us(), step.percentile_ns(0.95).map(stats::ns_to_us));
    if let (Some(p50), Some(p95)) = whole {
        outcome.note("step_p50_whole_window_us", p50);
        outcome.note("step_p95_whole_window_us", p95);
    }
    let (p50, p95) = calm.unwrap_or(whole);
    outcome.set_measured("setup_s", stats::median(setup_s), setup_s.len());
    outcome.set("steps_per_s", steps_ok as f64 / window.wall_s);
    outcome.set_measured("step_p50_us", p50, step.len());
    outcome.set_measured("step_p95_us", p95, step.len());
    outcome.set_measured("open_p50_us", open.p50_us(), open.len());
    if steps_ok > 0 {
        outcome.set("cpu_us_per_step", window.cpu_us / steps_ok as f64);
    }
    match procfs::rss_peak_mb() {
        Ok(mb) => outcome.set("rss_peak_mb", mb),
        Err(e) => outcome.problem(e),
    }
}

/// Per-layer timings read off the spans of the traced window: the p50 of
/// each named span, the self times the breakdown needs, and the ratios
/// between them.  Spans that never occurred leave their metric unset (it
/// then reads 0: the layer did no work on this workload).
pub fn layer_timings(outcome: &mut Outcome, spans: &[Span]) {
    const P50_US: &[(&str, &str)] = &[
        ("front.step_rtt", "front.step_rtt_us"),
        ("front.open_rtt", "front.open_rtt_us"),
        ("front.close_rtt", "front.close_rtt_us"),
        ("front.batch4_rtt", "front.batch4_rtt_us"),
        ("front.parse_facts", "front.parse_facts_us"),
        ("front.render", "front.render_us"),
        ("front.client_rtt", "front.client_rtt_us"),
        ("core.step_plain", "core.step_plain_us"),
        ("core.step_demand", "core.step_demand_us"),
        ("core.step_enforced", "core.step_enforced_us"),
        ("core.step_full", "core.step_full_us"),
        ("core.open_plain", "core.open_plain_us"),
        ("core.open_demand", "core.open_demand_us"),
        ("core.open_enforced", "core.open_enforced_us"),
        ("core.close", "core.close_us"),
        ("core.run", "core.run_us"),
        ("datalog.eval_plain", "datalog.eval_plain_us"),
        ("datalog.eval_demand", "datalog.eval_demand_us"),
        ("datalog.eval_full", "datalog.eval_full_us"),
        ("datalog.view_refresh", "datalog.view_refresh_us"),
        ("verify.admit", "verify.admit_us"),
        ("verify.observe", "verify.observe_us"),
        ("verify.fork", "verify.fork_us"),
        ("verify.audit", "verify.audit_us"),
        ("store.mutation", "store.mutation_us"),
        ("store.wal_apply", "store.wal_apply_us"),
        ("store.resident_sync", "store.resident_sync_us"),
        ("store.fsync", "store.fsync_us"),
    ];
    let mut durations = trace::durations_by_name(spans);
    for list in durations.values_mut() {
        list.sort_unstable();
    }
    let p50_us = |name: &str| -> Option<f64> {
        stats::percentile(durations.get(name)?, 0.50).map(stats::ns_to_us)
    };
    for (span, metric) in P50_US {
        if let Some(us) = p50_us(span) {
            outcome.set(metric, us);
        }
    }
    for (span, metric) in [
        ("store.mutation", "store.mutation_p99_us"),
        ("store.wal_apply", "store.wal_apply_p99_us"),
    ] {
        if let Some(us) = durations
            .get(span)
            .and_then(|list| stats::tail_us(list, 0.99))
        {
            outcome.set(metric, us);
        }
    }
    if let Some(us) = p50_us("store.checkpoint") {
        outcome.set("store.checkpoint_ms", us / 1_000.0);
    }

    let merged = |lists: Vec<&Vec<u64>>| -> Vec<u64> {
        let mut all: Vec<u64> = lists.into_iter().flatten().copied().collect();
        all.sort_unstable();
        all
    };
    let merged_p50_us = |lists: Vec<&Vec<u64>>| -> Option<f64> {
        stats::percentile(&merged(lists), 0.50).map(stats::ns_to_us)
    };
    let evals = [
        "datalog.eval_plain",
        "datalog.eval_demand",
        "datalog.eval_full",
    ];
    if let Some(us) = merged_p50_us(evals.iter().filter_map(|n| durations.get(n)).collect()) {
        outcome.set("datalog.eval_us", us);
    }

    let steps = [
        "core.step_plain",
        "core.step_demand",
        "core.step_enforced",
        "core.step_full",
    ];
    // The tail of a step as its in-process caller sees it.  (On the wire
    // these spans are replays; the wire's own tail is `front.step_rtt_p99_us`.)
    if !durations.contains_key("front.step_rtt") {
        let all_steps = merged(steps.iter().filter_map(|n| durations.get(n)).collect());
        if let Some(us) = stats::tail_us(&all_steps, 0.99) {
            outcome.set("core.step_p99_us", us);
        }
    }

    let selfs = trace::self_times_by_name(spans);
    if let Some(us) = merged_p50_us(steps.iter().filter_map(|n| selfs.get(n)).collect()) {
        outcome.set("core.step_self_us", us);
    }
    if let Some(transport) = merged_p50_us(selfs.get("front.step_rtt").into_iter().collect()) {
        outcome.set("front.transport_us", transport);
        if let Some(rtt) = p50_us("front.step_rtt").filter(|rtt| *rtt > 0.0) {
            outcome.set("front.transport_share", transport / rtt);
        }
    }
    if let (Some(admit), Some(observe), Some(step)) = (
        p50_us("verify.admit"),
        p50_us("verify.observe"),
        p50_us("core.step_enforced").filter(|s| *s > 0.0),
    ) {
        outcome.set("verify.monitor_share", (admit + observe) / step);
    }
    if let (Some(sequential), Some(pooled)) = (
        p50_us("datalog.eval_sequential"),
        p50_us("datalog.eval_full").filter(|p| *p > 0.0),
    ) {
        outcome.set("datalog.pool_speedup", sequential / pooled);
    }
}

/// `ledger.trace_overhead_share`: how much slower the traced window ran
/// than the plain window of the same process.
pub fn trace_overhead(outcome: &mut Outcome, plain_rate: f64, traced_rate: f64) {
    outcome.note("plain_steps_per_s", plain_rate);
    outcome.note("traced_steps_per_s", traced_rate);
    if plain_rate > 0.0 {
        outcome.set(
            "ledger.trace_overhead_share",
            (plain_rate - traced_rate) / plain_rate,
        );
    }
}

/// Writes the traced window's spans next to the build's other outputs.
pub fn write_trace(outcome: &mut Outcome, config: &RunConfig, workload: &str, spans: &[Span]) {
    /// Enough spans to read a few thousand requests; the file stays a few MB.
    const TRACE_FILE_SPANS: usize = 50_000;
    let path = config.out_dir.join(format!("{workload}.trace.jsonl"));
    let written = std::fs::create_dir_all(&config.out_dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            trace::write_jsonl(&mut out, spans, TRACE_FILE_SPANS)?;
            std::io::Write::flush(&mut out)
        });
    match written {
        Ok(()) => outcome.note("trace_file", path.display()),
        Err(e) => outcome.problem(format!("trace file {}: {e}", path.display())),
    }
    outcome.note("spans", spans.len());
}
