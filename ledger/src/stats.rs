//! Raw latency samples and exact percentiles.
//!
//! Latencies go into a preallocated `u64`-nanosecond vector, so recording a
//! sample inside a measured window never allocates; percentiles are exact
//! (nearest rank over the sorted samples), never interpolated or bucketed.
//!
//! The end-to-end step percentiles are read off the *calmest stretch* of a
//! run ([`Samples::calm_us`]).  The sandbox's neighbours slow whole seconds
//! of a window by up to 1.6×, for 0–60% of a run: a p95 over the whole
//! window then says how long the neighbours were busy, not how long a step
//! takes.  The least-disturbed stretch of consecutive steps is the closest a
//! run gets to the program's own time, and a slowdown in the program shows
//! in every stretch, that one included.

/// A tail percentile is reported only with at least ten samples beyond it —
/// the least that makes the tail a measurement and not one outlier.  For a
/// p99 that is 1000 samples, for a p95 200.
pub const SAMPLES_BEYOND_TAIL: f64 = 10.0;

pub fn tail_min_samples(p: f64) -> usize {
    (SAMPLES_BEYOND_TAIL / (1.0 - p)).round() as usize
}

/// A calm stretch is a sixteenth of one generator's samples (about a second
/// of a 15 s window), and never fewer than its p95 needs.
const STRETCHES_PER_RUN: usize = 16;
pub const STRETCH_MIN_SAMPLES: usize = 200;

/// A fixed-capacity store of per-operation latencies in nanoseconds.
#[derive(Debug)]
pub struct Samples {
    ns: Vec<u64>,
    /// Where each absorbed store starts: one generator's samples are
    /// consecutive in time, two generators' are not.
    parts: Vec<usize>,
    capacity: usize,
    /// Samples that arrived after the buffer was full.  They are counted so
    /// a truncated percentile is never mistaken for a complete one.
    dropped: u64,
}

impl Samples {
    pub fn with_capacity(capacity: usize) -> Samples {
        Samples {
            ns: Vec::with_capacity(capacity),
            parts: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    pub fn push(&mut self, ns: u64) {
        if self.ns.len() < self.capacity {
            self.ns.push(ns);
        } else {
            self.dropped += 1;
        }
    }

    pub fn clear(&mut self) {
        self.ns.clear();
        self.parts.clear();
        self.dropped = 0;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The samples, in arrival order.
    pub fn as_slice(&self) -> &[u64] {
        &self.ns
    }

    /// Moves every sample of `other` into `self` (growing if needed: merging
    /// happens after the window).
    pub fn absorb(&mut self, other: &Samples) {
        self.parts.push(self.ns.len());
        self.ns.extend_from_slice(&other.ns);
        self.capacity = self.capacity.max(self.ns.len());
        self.dropped += other.dropped;
    }

    /// The exact percentile `p`, in microseconds, of the calmest stretch of
    /// the run: the lowest that any run of consecutive samples of one
    /// generator shows.  Stretches overlap (each starts a quarter of its
    /// length after the last) and hold at least [`STRETCH_MIN_SAMPLES`] —
    /// `None` when no generator recorded that many.
    pub fn calm_us(&self, p: f64) -> Option<f64> {
        let bounds: Vec<usize> = [0]
            .into_iter()
            .chain(self.parts.iter().copied())
            .chain([self.ns.len()])
            .collect();
        let mut calmest: Option<u64> = None;
        let mut stretch = Vec::new();
        for generator in bounds.windows(2).map(|b| &self.ns[b[0]..b[1]]) {
            let length = STRETCH_MIN_SAMPLES.max(generator.len() / STRETCHES_PER_RUN);
            for from in (0..(generator.len() + 1).saturating_sub(length)).step_by(length / 4) {
                stretch.clear();
                stretch.extend_from_slice(&generator[from..from + length]);
                stretch.sort_unstable();
                let here = percentile(&stretch, p)?;
                calmest = Some(calmest.map_or(here, |lowest| lowest.min(here)));
            }
        }
        calmest.map(ns_to_us)
    }

    /// Sorts and freezes the samples for percentile queries.
    pub fn sorted(mut self) -> Sorted {
        self.ns.sort_unstable();
        Sorted { ns: self.ns }
    }
}

/// Sorted samples.
#[derive(Debug)]
pub struct Sorted {
    ns: Vec<u64>,
}

impl Sorted {
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// The exact nearest-rank percentile (`0 < p <= 1`): the smallest sample
    /// with at least `p` of all samples at or below it.  `None` when empty.
    pub fn percentile_ns(&self, p: f64) -> Option<u64> {
        percentile(&self.ns, p)
    }

    pub fn p50_us(&self) -> Option<f64> {
        self.percentile_ns(0.50).map(ns_to_us)
    }
}

/// A tail percentile (`p` = 0.95, 0.99…) in microseconds — `None` with
/// fewer than [`tail_min_samples`] samples.
pub fn tail_us(sorted: &[u64], p: f64) -> Option<f64> {
    if sorted.len() < tail_min_samples(p) {
        return None;
    }
    percentile(sorted, p).map(ns_to_us)
}

pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// The median of a handful of floats (set-up repeats); the lower middle for
/// an even count, so the value is always one that was measured.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(sorted.len().checked_sub(1)? / 2).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), Some(50));
        assert_eq!(percentile(&sorted, 0.99), Some(99));
        assert_eq!(percentile(&sorted, 1.0), Some(100));
        assert_eq!(percentile(&sorted, 0.001), Some(1));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
        // Never interpolated: the answer is always a recorded sample.
        assert_eq!(percentile(&[10, 20], 0.50), Some(10));
        assert_eq!(percentile(&[10, 20], 0.51), Some(20));
    }

    #[test]
    fn a_tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(
            (tail_min_samples(0.99), tail_min_samples(0.95)),
            (1000, 200)
        );
        let mut few = Samples::with_capacity(2_000);
        for i in 0..999 {
            few.push(i);
        }
        let few = few.sorted();
        assert!(few.p50_us().is_some());
        assert_eq!(tail_us(&few.ns, 0.99), None);
        assert!(tail_us(&few.ns, 0.95).is_some());

        let mut enough = Samples::with_capacity(2_000);
        for i in 0..1_000u64 {
            enough.push(i * 1_000);
        }
        // Rank ceil(0.99 * 1000) = 990 → the sample 989 µs.
        assert_eq!(tail_us(&enough.sorted().ns, 0.99), Some(989.0));
    }

    #[test]
    fn calm_percentiles_come_from_the_least_disturbed_stretch_of_one_generator() {
        assert_eq!(STRETCH_MIN_SAMPLES, tail_min_samples(0.95));
        // One generator: 400 quiet steps of 1–400 µs between two disturbed
        // stretches of 10 ms.
        let mut one = Samples::with_capacity(4_000);
        (0..1_000).for_each(|_| one.push(10_000_000));
        (1..=400).for_each(|i| one.push(i * 1_000));
        (0..1_000).for_each(|_| one.push(10_000_000));
        // Stretches are 200 long and start every 50: the calmest p50 is that
        // of 1..=200, the calmest p95 likewise.
        assert_eq!(one.calm_us(0.50), Some(100.0));
        assert_eq!(one.calm_us(0.95), Some(190.0));
        // The whole window says how long the disturbance lasted instead.
        assert_eq!(tail_us(&one.sorted().ns, 0.95), Some(10_000.0));

        // A stretch never straddles two generators: 150 quiet samples at the
        // end of one and 150 at the start of the next are not 300 in a row.
        let mut first = Samples::with_capacity(1_000);
        (0..300).for_each(|_| first.push(5_000));
        (0..150).for_each(|_| first.push(1_000));
        let mut second = Samples::with_capacity(1_000);
        (0..150).for_each(|_| second.push(1_000));
        (0..300).for_each(|_| second.push(5_000));
        let mut both = Samples::with_capacity(0);
        both.absorb(&first);
        both.absorb(&second);
        assert_eq!(both.calm_us(0.95), Some(5.0));
        assert_eq!(both.calm_us(0.50), Some(1.0));

        // Fewer samples than a stretch needs: nothing to report.
        let mut few = Samples::with_capacity(1_000);
        (0..199).for_each(|i| few.push(i));
        assert_eq!(few.calm_us(0.95), None);
        few.push(7);
        assert!(few.calm_us(0.95).is_some());
    }

    #[test]
    fn a_full_buffer_counts_what_it_drops_and_never_grows() {
        let mut s = Samples::with_capacity(2);
        s.push(1);
        s.push(2);
        s.push(3);
        assert_eq!((s.len(), s.dropped()), (2, 1));
        assert_eq!(s.ns.capacity(), 2);
        s.clear();
        assert_eq!((s.len(), s.dropped()), (0, 0));
    }

    #[test]
    fn median_is_a_measured_value() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0]), Some(1.0));
        assert_eq!(median(&[]), None);
    }
}
