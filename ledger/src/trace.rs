//! In-memory spans for the traced pass.
//!
//! The benchmark records a span around every call it makes into a layer
//! (`id, parent, request, name, start_ns, end_ns`), keeps them in a
//! preallocated vector and writes them out when the run ends.  A layer's
//! *self time* is its span minus the part of it its child spans cover.
//!
//! The program under test is not instrumented, so work that happens on its
//! own threads (a shard worker stepping a wire session) is *replayed* in
//! process through the same public calls; those spans are flagged
//! `replayed` and placed inside the request that caused them.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// A span identifier, unique across the threads of one run; 0 is "no span".
pub type SpanId = u64;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    /// The span that caused this one, or 0 for a request's root span.
    pub parent: SpanId,
    /// Spans of one request share this identifier.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// True for work re-executed in process on behalf of `parent` because
    /// the original ran on a thread the benchmark cannot see into.
    pub replayed: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder.  Recording never allocates: past `capacity`
/// spans are counted as dropped, and [`Tracer::into_spans`] then refuses.
#[derive(Debug)]
pub struct Tracer {
    thread: u64,
    epoch: Instant,
    spans: Vec<Span>,
    capacity: usize,
    dropped: u64,
}

impl Tracer {
    /// A recorder for thread number `thread`; every tracer of a run shares
    /// `epoch`, so span times of different threads are comparable.
    pub fn new(thread: usize, epoch: Instant, capacity: usize) -> Tracer {
        Tracer {
            thread: thread as u64,
            epoch,
            spans: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    fn push(&mut self, mut span: Span) -> SpanId {
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return 0;
        }
        span.id = (self.thread << 32) | (self.spans.len() as u64 + 1);
        let id = span.id;
        self.spans.push(span);
        id
    }

    fn since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span the caller timed with two `Instant`s.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.since_epoch(start), self.since_epoch(end));
        self.push(Span {
            id: 0,
            parent,
            request,
            name,
            start_ns,
            end_ns,
            replayed: false,
        })
    }

    /// Records replayed work of `duration_ns` as a child of `parent`,
    /// placed `offset_ns` after the parent's start (siblings are laid end
    /// to end so that self-time arithmetic sees them as disjoint).
    pub fn record_replayed(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        offset_ns: u64,
        duration_ns: u64,
    ) -> SpanId {
        let base = self.start_of(parent);
        self.push(Span {
            id: 0,
            parent,
            request,
            name,
            start_ns: base + offset_ns,
            end_ns: base + offset_ns + duration_ns,
            replayed: true,
        })
    }

    fn start_of(&self, id: SpanId) -> u64 {
        let index = (id & 0xffff_ffff) as usize;
        if id >> 32 == self.thread && (1..=self.spans.len()).contains(&index) {
            self.spans[index - 1].start_ns
        } else {
            0
        }
    }

    /// The recorded spans — or an error if any were dropped: per-layer
    /// numbers from part of a window would not be that window's.
    pub fn into_spans(self) -> Result<Vec<Span>, String> {
        match self.dropped {
            0 => Ok(self.spans),
            dropped => Err(format!(
                "the span buffer of thread {} overflowed: {dropped} spans were not recorded",
                self.thread
            )),
        }
    }
}

/// The self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are not counted twice, and
/// a child reaching outside its parent only counts where it overlaps).
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, u64> {
    let by_id: BTreeMap<SpanId, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = by_id.get(&span.parent) {
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            if start < end {
                children.entry(parent.id).or_default().push((start, end));
            }
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0u64;
            if let Some(intervals) = children.get_mut(&span.id) {
                intervals.sort_unstable();
                let mut frontier = span.start_ns;
                for &(start, end) in intervals.iter() {
                    let start = start.max(frontier);
                    if start < end {
                        covered += end - start;
                        frontier = end;
                    }
                }
            }
            (span.id, span.duration_ns() - covered)
        })
        .collect()
}

/// Span durations grouped by span name.
pub fn durations_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for span in spans {
        out.entry(span.name).or_default().push(span.duration_ns());
    }
    out
}

/// Self times grouped by span name.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for span in spans {
        out.entry(span.name).or_default().push(selfs[&span.id]);
    }
    out
}

/// Writes at most `limit` spans as JSON lines, one object per span.
pub fn write_jsonl(out: &mut impl Write, spans: &[Span], limit: usize) -> io::Result<()> {
    for span in spans.iter().take(limit) {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"replayed\":{}}}",
            span.id, span.parent, span.request, span.name, span.start_ns, span.end_ns, span.replayed
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: "t",
            start_ns,
            end_ns,
            replayed: false,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let spans = vec![
            span(1, 0, 0, 100),
            // Two disjoint children, one of them with a child of its own.
            span(2, 1, 10, 30),
            span(3, 1, 50, 90),
            span(4, 3, 60, 70),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 20 - 40);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 40 - 10);
        assert_eq!(selfs[&4], 10);
        // Self times of a tree add up to the root's duration.
        assert_eq!(selfs.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_counted_twice() {
        let spans = vec![
            span(1, 0, 100, 200),
            span(2, 1, 110, 150),
            span(3, 1, 140, 160),
            // Starts inside the parent, ends after it: only 190..200 counts.
            span(4, 1, 190, 260),
            // Entirely outside the parent: counts nothing.
            span(5, 1, 300, 400),
        ];
        assert_eq!(self_times(&spans)[&1], 100 - 50 - 10);
    }

    #[test]
    fn replayed_children_are_laid_inside_their_parent() {
        let epoch = Instant::now();
        let mut tracer = Tracer::new(3, epoch, 8);
        let root = tracer.record(
            "front.step_rtt",
            0,
            7,
            epoch,
            epoch + std::time::Duration::from_micros(50),
        );
        let a = tracer.record_replayed("front.parse_facts", root, 7, 0, 2_000);
        let b = tracer.record_replayed("core.step", root, 7, 2_000, 30_000);
        assert_eq!(root >> 32, 3);
        assert!(a != 0 && b != 0 && a != b);
        let spans = tracer.into_spans().unwrap();
        let by_name = self_times_by_name(&spans);
        assert_eq!(by_name["front.step_rtt"], vec![50_000 - 32_000]);
        assert!(spans[1].replayed && spans[2].start_ns == spans[1].end_ns);
    }

    #[test]
    fn a_full_tracer_drops_and_counts() {
        let epoch = Instant::now();
        let mut tracer = Tracer::new(0, epoch, 1);
        assert_ne!(tracer.record("a", 0, 1, epoch, epoch), 0);
        assert_eq!(tracer.record("b", 0, 2, epoch, epoch), 0);
        let mut out = Vec::new();
        write_jsonl(&mut out, &tracer.spans, 10).unwrap();
        assert!(tracer
            .into_spans()
            .unwrap_err()
            .contains("1 spans were not recorded"));
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.starts_with("{\"id\":1,\"parent\":0,\"request\":1,\"name\":\"a\""));
    }
}
