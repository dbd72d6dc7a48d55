//! Benchmark-owned wrappers that time or count a layer from outside: a
//! [`Vfs`] that counts bytes and times fsyncs, and a [`SessionObserver`]
//! that times the monitor hooks `Session::step` calls.

use rtx_core::{CoreError, SessionObserver, Violation};
use rtx_relational::Instance;
use rtx_store::{StoreError, Vfs, VfsFile};
use rtx_verify::SessionMonitor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a [`CountingVfs`] has seen.  Statistics only, so `Relaxed`.
#[derive(Debug, Default)]
pub struct VfsCounters {
    pub bytes_appended: AtomicU64,
    pub fsyncs: AtomicU64,
    /// Duration of each append-handle fsync, in order.
    pub fsync_samples: Mutex<Vec<u64>>,
}

/// A [`Vfs`] that forwards to `inner`, counting appended bytes and timing
/// every fsync of an append handle (the WAL).
pub struct CountingVfs<V> {
    inner: V,
    counters: Arc<VfsCounters>,
}

impl<V: Vfs> CountingVfs<V> {
    pub fn new(inner: V) -> (CountingVfs<V>, Arc<VfsCounters>) {
        let counters = Arc::new(VfsCounters::default());
        (
            CountingVfs {
                inner,
                counters: Arc::clone(&counters),
            },
            counters,
        )
    }
}

struct CountingFile {
    inner: Box<dyn VfsFile>,
    counters: Arc<VfsCounters>,
}

impl VfsFile for CountingFile {
    fn append(&mut self, data: &[u8]) -> Result<(), StoreError> {
        self.counters
            .bytes_appended
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.append(data)
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        let start = Instant::now();
        let result = self.inner.sync();
        let ns = start.elapsed().as_nanos() as u64;
        self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        if let Ok(mut samples) = self.counters.fsync_samples.lock() {
            samples.push(ns);
        }
        result
    }
}

impl<V: Vfs> Vfs for CountingVfs<V> {
    fn read(&self, path: &str) -> Result<Option<Vec<u8>>, StoreError> {
        self.inner.read(path)
    }

    fn open_append(&self, path: &str) -> Result<Box<dyn VfsFile>, StoreError> {
        Ok(Box::new(CountingFile {
            inner: self.inner.open_append(path)?,
            counters: Arc::clone(&self.counters),
        }))
    }

    fn write_atomic(&self, path: &str, data: &[u8]) -> Result<(), StoreError> {
        self.inner.write_atomic(path, data)
    }

    fn remove(&self, path: &str) -> Result<(), StoreError> {
        self.inner.remove(path)
    }
}

/// The hook timings of the last step of one monitored session.
#[derive(Debug, Default)]
pub struct HookTimes {
    pub admit_ns: AtomicU64,
    pub observe_ns: AtomicU64,
}

/// A [`SessionObserver`] that times the [`SessionMonitor`] it wraps.  The
/// monitor sits behind a mutex the benchmark also holds, so that `work()`
/// and `audit()` stay reachable after the observer is boxed into a session
/// (only the session's own thread ever locks it, so it is never contended).
#[derive(Debug)]
pub struct TimedObserver {
    monitor: Arc<Mutex<SessionMonitor>>,
    times: Arc<HookTimes>,
}

impl TimedObserver {
    pub fn new(
        monitor: SessionMonitor,
    ) -> (TimedObserver, Arc<Mutex<SessionMonitor>>, Arc<HookTimes>) {
        let monitor = Arc::new(Mutex::new(monitor));
        let times = Arc::new(HookTimes::default());
        (
            TimedObserver {
                monitor: Arc::clone(&monitor),
                times: Arc::clone(&times),
            },
            monitor,
            times,
        )
    }

    fn monitor(&self) -> std::sync::MutexGuard<'_, SessionMonitor> {
        self.monitor.lock().expect("monitor lock: a hook panicked")
    }
}

impl SessionObserver for TimedObserver {
    fn admit(&mut self, step: usize, input: &Instance) -> Result<Vec<Violation>, CoreError> {
        let mut monitor = self.monitor();
        let start = Instant::now();
        let result = monitor.admit(step, input);
        self.times
            .admit_ns
            .store(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }

    fn observe(
        &mut self,
        step: usize,
        input: &Instance,
        output: &Instance,
    ) -> Result<Vec<Violation>, CoreError> {
        let mut monitor = self.monitor();
        let start = Instant::now();
        let result = monitor.observe(step, input, output);
        self.times
            .observe_ns
            .store(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_store::MemVfs;

    #[test]
    fn the_counting_vfs_counts_appends_and_fsyncs() {
        let (vfs, counters) = CountingVfs::new(MemVfs::new());
        let mut file = vfs.open_append("wal").unwrap();
        file.append(b"hello").unwrap();
        file.append(b", world").unwrap();
        file.sync().unwrap();
        vfs.write_atomic("snapshot", b"not counted").unwrap();
        assert_eq!(counters.bytes_appended.load(Ordering::Relaxed), 12);
        assert_eq!(counters.fsyncs.load(Ordering::Relaxed), 1);
        assert_eq!(counters.fsync_samples.lock().unwrap().len(), 1);
        assert_eq!(vfs.read("wal").unwrap().unwrap(), b"hello, world");
        vfs.remove("wal").unwrap();
        assert_eq!(vfs.read("wal").unwrap(), None);
    }
}
