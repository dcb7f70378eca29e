//! Sample bookkeeping: chunk timings converted to per-op times, the
//! percentile rule, and failure accounting.

use std::time::{Duration, Instant};

/// Samples a percentile needs beyond it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Per-op wall time of a chunk of `ops` ops that took `elapsed`. Fast
/// ops are timed in chunks because one clock read costs about as much
/// as the op itself.
pub fn per_op_ns(elapsed: Duration, ops: u64) -> f64 {
    assert!(ops > 0, "a timed chunk holds at least one op");
    elapsed.as_nanos() as f64 / ops as f64
}

/// The smallest sample count for which the `p` percentile (`0 < p < 1`)
/// has at least [`TAIL_SAMPLES`] samples beyond it.
pub fn min_samples_for(p: f64) -> usize {
    let mut n = TAIL_SAMPLES;
    while n - nearest_rank(n, p) < TAIL_SAMPLES {
        n += 1;
    }
    n
}

/// 1-based nearest rank of the `p` percentile among `n` sorted samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Per-op times, one per timed chunk (or per op for slow ops).
#[derive(Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Reserves room for `n` samples up front: pages are only touched as
    /// samples land, so peak memory grows with the count instead of
    /// jumping when a growing vector doubles.
    pub fn with_capacity(n: usize) -> Self {
        Self { values: Vec::with_capacity(n), sorted: false }
    }

    pub fn push(&mut self, per_op_ns: f64) {
        self.values.push(per_op_ns);
        self.sorted = false;
    }

    pub fn push_chunk(&mut self, elapsed: Duration, ops: u64) {
        self.push(per_op_ns(elapsed, ops));
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn clear(&mut self) {
        self.values.clear();
    }

    pub fn extend(&mut self, other: Samples) {
        self.values.extend(other.values);
        self.sorted = false;
    }

    /// The `p` percentile by nearest rank, or an error when fewer than
    /// [`TAIL_SAMPLES`] samples lie beyond it.
    pub fn percentile(&mut self, p: f64) -> Result<f64, String> {
        let n = self.values.len();
        if n < min_samples_for(p) {
            return Err(format!(
                "{n} samples leave fewer than {TAIL_SAMPLES} beyond the {p} percentile"
            ));
        }
        if !self.sorted {
            self.values.sort_unstable_by(f64::total_cmp);
            self.sorted = true;
        }
        Ok(self.values[nearest_rank(n, p) - 1])
    }

    pub fn median(&mut self) -> Result<f64, String> {
        self.percentile(0.5)
    }
}

/// Width of the windows a timed phase is cut into. Each end-to-end
/// figure is the median over windows, so a burst of interference from
/// outside the program moves one window, not the result.
pub const WINDOW: Duration = Duration::from_secs(1);

/// One window of a timed phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    pub index: u64,
    pub ops_per_s: f64,
    pub p50: f64,
    /// `None` when the window held too few samples for its 99th
    /// percentile.
    pub p99: Option<f64>,
}

/// Per-op samples of one thread's timed phase, cut into [`WINDOW`]s by
/// the time each sample ended. Only the open window's samples are kept.
#[derive(Debug)]
pub struct Windowed {
    start: Instant,
    width: Duration,
    index: u64,
    current: Samples,
    ops: u64,
    last_end: Duration,
    closed: Vec<Window>,
    samples: usize,
}

impl Windowed {
    pub fn new(start: Instant, width: Duration) -> Self {
        Self {
            start,
            width,
            index: 0,
            current: Samples::with_capacity(1 << 16),
            ops: 0,
            last_end: Duration::ZERO,
            closed: Vec::new(),
            samples: 0,
        }
    }

    /// Records a sample of `ops` ops that took `per_op_ns` each and
    /// ended at `end`.
    pub fn push(&mut self, end: Instant, per_op_ns: f64, ops: u64) {
        let at = end.saturating_duration_since(self.start);
        let index = (at.as_nanos() / self.width.as_nanos()) as u64;
        if index != self.index {
            self.close();
            self.index = index;
        }
        self.current.push(per_op_ns);
        self.ops += ops;
        self.last_end = at;
        self.samples += 1;
    }

    /// Closes the open window. A window is kept when its samples span at
    /// least half the width, so a short tail at the end of a phase is
    /// dropped rather than reported as a window of its own.
    fn close(&mut self) {
        let opened = self.width * self.index as u32;
        let span = self.last_end.saturating_sub(opened);
        if span >= self.width / 2 && self.current.len() > 0 {
            self.closed.push(Window {
                index: self.index,
                ops_per_s: self.ops as f64 / span.as_secs_f64(),
                p50: self.current.median().unwrap_or(f64::NAN),
                p99: self.current.percentile(0.99).ok(),
            });
        }
        self.current.clear();
        self.ops = 0;
    }

    pub fn samples(&self) -> usize {
        self.samples
    }

    pub fn finish(mut self) -> Vec<Window> {
        self.close();
        self.closed
    }
}

/// The end-to-end figures of a phase from its threads' windows: median
/// throughput over window indices (threads summed per index), and the
/// median of the windows' percentiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub windows: usize,
    pub ops_per_s: f64,
    pub p50: f64,
    pub p99: f64,
    /// Median op time of the last window over that of the first: how
    /// far the program drifted during the phase.
    pub drift: f64,
}

pub fn summarize(windows: &[Window]) -> Result<Summary, String> {
    let mut per_index: std::collections::BTreeMap<u64, f64> = Default::default();
    for w in windows {
        *per_index.entry(w.index).or_default() += w.ops_per_s;
    }
    if per_index.is_empty() {
        return Err("the timed phase closed no window".into());
    }
    let rates: Vec<f64> = per_index.into_values().collect();
    let p50s: Vec<f64> = windows.iter().map(|w| w.p50).collect();
    let p99s: Vec<f64> = windows.iter().filter_map(|w| w.p99).collect();
    if p99s.is_empty() {
        return Err(format!(
            "no window held the {} samples a 99th percentile needs",
            min_samples_for(0.99)
        ));
    }
    let p50_at = |index| {
        median_of(&windows.iter().filter(|w| w.index == index).map(|w| w.p50).collect::<Vec<_>>())
    };
    let (first, last) =
        windows.iter().fold((u64::MAX, 0), |(lo, hi), w| (lo.min(w.index), hi.max(w.index)));
    Ok(Summary {
        windows: rates.len(),
        ops_per_s: median_of(&rates),
        p50: median_of(&p50s),
        p99: median_of(&p99s),
        drift: p50_at(last) / p50_at(first),
    })
}

/// Ops attempted and failed. A failed op is an `Err`, an admission shed,
/// a driver job abandoned with its retries spent, or a non-2xx reply.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, ops: u64, failed: u64) {
        self.attempted += ops;
        self.failed += failed;
    }

    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Median of a small set of values (set-up repeats, launches).
pub fn median_of(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty set");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(min_samples_for(0.99), 1000);
        assert_eq!(min_samples_for(0.5), 20);
        let mut s = Samples::default();
        for i in 0..999 {
            s.push(f64::from(i));
        }
        assert!(s.percentile(0.99).is_err());
        s.push(999.0);
        // Nearest rank 990 of 0..=999: ten samples (990..=999) lie beyond.
        assert_eq!(s.percentile(0.99).unwrap(), 989.0);
    }

    #[test]
    fn median_is_nearest_rank_and_order_free() {
        let mut s = Samples::default();
        for v in (1..=21).rev() {
            s.push(f64::from(v));
        }
        assert_eq!(s.median().unwrap(), 11.0);
        s.push(0.5);
        assert_eq!(s.median().unwrap(), 10.0);
    }

    #[test]
    fn chunks_convert_to_per_op_time() {
        assert_eq!(per_op_ns(Duration::from_micros(44), 1024), 44_000.0 / 1024.0);
        let mut s = Samples::default();
        s.push_chunk(Duration::from_nanos(4096 * 240), 4096);
        assert_eq!(s.values, vec![240.0]);
    }

    #[test]
    #[should_panic(expected = "at least one op")]
    fn empty_chunks_are_a_bug() {
        let _ = per_op_ns(Duration::from_nanos(1), 0);
    }

    #[test]
    fn fail_ratio_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.fail_ratio(), 0.0);
        t.add(1000, 0);
        t.add(24, 3);
        assert_eq!(t, Tally { attempted: 1024, failed: 3 });
        assert_eq!(t.fail_ratio(), 3.0 / 1024.0);
    }

    #[test]
    fn windows_cut_by_end_time_and_summarize_by_median() {
        let start = Instant::now();
        let width = Duration::from_millis(100);
        let mut w = Windowed::new(start, width);
        // Three full windows of 1000 samples, 1 op each, and a short tail.
        for win in 0..3u64 {
            for i in 0..1000u64 {
                let end = start + width * win as u32 + Duration::from_micros(100 * (i + 1) - 50);
                w.push(end, (win * 10 + 1) as f64, 1);
            }
        }
        w.push(start + Duration::from_millis(301), 99.0, 1);
        assert_eq!(w.samples(), 3001);
        let windows = w.finish();
        assert_eq!(windows.len(), 3, "the 1 ms tail is dropped");
        assert_eq!(windows.iter().map(|w| w.p50).collect::<Vec<_>>(), vec![1.0, 11.0, 21.0]);
        let s = summarize(&windows).unwrap();
        assert_eq!((s.windows, s.p50, s.p99, s.drift), (3, 11.0, 11.0, 21.0));
        // 1000 ops over the 99.95 ms the first window's samples span.
        assert!((windows[0].ops_per_s - 1000.0 / 0.09995).abs() < 1e-6);
    }

    #[test]
    fn threads_sum_per_window_and_sparse_windows_have_no_p99() {
        let w = |index, ops_per_s, p99| Window { index, ops_per_s, p50: 1.0, p99 };
        let s = summarize(&[w(0, 10.0, None), w(0, 5.0, Some(2.0)), w(1, 20.0, None)]).unwrap();
        assert_eq!((s.windows, s.ops_per_s, s.p99), (2, 17.5, 2.0));
        assert!(summarize(&[w(0, 10.0, None)]).is_err());
        assert!(summarize(&[]).is_err());
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
