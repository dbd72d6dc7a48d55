//! Process CPU time and memory, read from `/proc/self`.

use std::collections::BTreeMap;
use std::fs;

/// Linux reports `utime`/`stime` in clock ticks of `sysconf(_SC_CLK_TCK)`,
/// which is 100 on every mainstream kernel configuration; the standard
/// library offers no way to ask, so the value is fixed here.
const CLOCK_TICKS_PER_SECOND: f64 = 100.0;

/// A reading of the process's CPU time; the difference of two readings is
/// the CPU a window used — every thread counts, so it covers the program
/// under test and the load generator together.
///
/// `/proc/self/stat` counts whole 10 ms ticks, which is 3% of what a wire
/// window uses.  Each thread's `schedstat` counts nanoseconds, but a thread
/// takes its count with it when it exits; so the precise per-thread sum is
/// used when the same threads are alive at both readings, and the ticks
/// otherwise.
#[derive(Debug)]
pub struct CpuReading {
    ticks_us: f64,
    thread_ns: Option<BTreeMap<u64, u64>>,
}

impl CpuReading {
    pub fn now() -> Result<CpuReading, String> {
        Ok(CpuReading {
            ticks_us: cpu_time_us()?,
            thread_ns: thread_cpu_ns(),
        })
    }

    /// CPU microseconds used between `earlier` and `self`, and whether
    /// the precise per-thread count could be used.
    pub fn us_since(&self, earlier: &CpuReading) -> (f64, bool) {
        match (&self.thread_ns, &earlier.thread_ns) {
            (Some(now), Some(then)) if now.keys().eq(then.keys()) => {
                let ns: u64 = now.iter().map(|(tid, ns)| ns - then[tid].min(*ns)).sum();
                (ns as f64 / 1_000.0, true)
            }
            _ => (self.ticks_us - earlier.ticks_us, false),
        }
    }
}

/// Nanoseconds on a CPU so far, per live thread (`None` where the kernel
/// does not keep `schedstat`).
fn thread_cpu_ns() -> Option<BTreeMap<u64, u64>> {
    let mut threads = BTreeMap::new();
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let entry = entry.ok()?;
        let tid: u64 = entry.file_name().to_str()?.parse().ok()?;
        // A thread may exit between the listing and the read: skip it, the
        // thread sets of the two readings then differ and ticks are used.
        let Ok(schedstat) = fs::read_to_string(entry.path().join("schedstat")) else {
            continue;
        };
        threads.insert(tid, schedstat.split_whitespace().next()?.parse().ok()?);
    }
    Some(threads)
}

/// CPU time (user + system) this process has used so far, in microseconds,
/// to the tick.
fn cpu_time_us() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    parse_cpu_ticks(&stat)
        .map(|ticks| ticks as f64 * 1_000_000.0 / CLOCK_TICKS_PER_SECOND)
        .ok_or_else(|| "/proc/self/stat: utime/stime not found".to_string())
}

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line.  The
/// command name (field 2) may itself contain spaces and parentheses, so
/// fields are counted from the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

fn status_kb(key: &str) -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_status_kb(&status, key).ok_or_else(|| format!("/proc/self/status: no {key}"))
}

fn parse_status_kb(status: &str, key: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// Peak resident set size (`VmHWM`) in megabytes.  The value is cumulative
/// over the life of the process, which is why every workload runs in a
/// process of its own.
pub fn rss_peak_mb() -> Result<f64, String> {
    status_kb("VmHWM").map(|kb| kb / 1024.0)
}

/// Current resident set size (`VmRSS`) in kilobytes.
pub fn rss_kb() -> Result<f64, String> {
    status_kb("VmRSS")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (rtx ledger) (x) R 1 2 3 4 5 6 7 8 9 10 1500 250 0 0 20 0 3 0 99";
        assert_eq!(parse_cpu_ticks(stat), Some(1750));
        assert_eq!(parse_cpu_ticks("garbage"), None);
        assert_eq!(parse_cpu_ticks("1 (a) R 1 2"), None);
    }

    #[test]
    fn status_fields_are_found_by_exact_key() {
        let status = "Name:\tx\nVmHWM:\t   20480 kB\nVmRSS:\t    1024 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(20480.0));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(1024.0));
        assert_eq!(parse_status_kb(status, "Vm"), None);
    }

    #[test]
    fn a_busy_loop_shows_in_the_cpu_reading() {
        let before = CpuReading::now().unwrap();
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let (used, _) = CpuReading::now().unwrap().us_since(&before);
        // Other tests run beside this one, so only a floor is certain.
        assert!(used >= 30_000.0, "{used}");

        // A thread that comes or goes falls back to ticks, never to a
        // negative or partial sum.
        let with_thread =
            std::thread::scope(|scope| scope.spawn(|| CpuReading::now().unwrap()).join().unwrap());
        assert!(with_thread.us_since(&before).0 >= 0.0);
    }

    #[test]
    fn this_process_has_cpu_time_and_memory() {
        assert!(cpu_time_us().unwrap() >= 0.0);
        assert!(rss_peak_mb().unwrap() > 0.0);
        assert!(rss_kb().unwrap() > 0.0);
    }
}
