//! The closed-loop loads: the end-to-end workloads of [`NAMES`] and the
//! two the traced run drives as probes. Each builds its system in `setup`
//! (runtime build, node registration, first solve, warm-up), runs ops
//! back to back until a deadline in `run`, and checks the program's
//! outputs in `check`.

use std::time::{Duration, Instant};

use crate::spans::Spans;
use crate::stats::{per_op_ns, summarize, Summary, Tally, Window, Windowed, WINDOW};

pub mod batch;
pub mod closed_loop;
pub mod control;
pub mod dispatch;
pub mod republish;

/// Names accepted by `--workload`, in the order the notes describe them.
/// `batch` and `control` are not among them: they run as probes of the
/// traced run (see their files for why).
pub const NAMES: [&str; 3] = ["dispatch", "republish", "closed_loop"];

/// Utilization every workload's nominal arrival rate is designed for.
pub const RHO: f64 = 0.7;

/// What one timed phase produced: per-window figures and op counts.
#[derive(Debug)]
pub struct Timed {
    windows: Windowed,
    closed: Vec<Window>,
    pub tally: Tally,
    samples: usize,
}

impl Timed {
    /// A phase starting now.
    pub fn new() -> Self {
        Self::starting(Instant::now())
    }

    /// A phase whose windows are aligned to `start` (threads of one
    /// phase share it).
    pub fn starting(start: Instant) -> Self {
        Self {
            windows: Windowed::new(start, WINDOW),
            closed: Vec::new(),
            tally: Tally::default(),
            samples: 0,
        }
    }

    /// Records `ops` ops that ended at `end` after `elapsed`, of which
    /// `failed` failed.
    pub fn record(&mut self, end: Instant, elapsed: Duration, ops: u64, failed: u64) {
        self.windows.push(end, per_op_ns(elapsed, ops), ops);
        self.tally.add(ops, failed);
    }

    /// Folds another thread's phase into this one.
    pub fn absorb(&mut self, other: Timed) {
        self.samples += other.windows.samples() + other.samples;
        self.closed.extend(other.windows.finish());
        self.closed.extend(other.closed);
        self.tally.add(other.tally.attempted, other.tally.failed);
    }

    /// Samples recorded, over all threads.
    pub fn samples(&self) -> usize {
        self.samples + self.windows.samples()
    }

    pub fn summary(self) -> Result<Summary, String> {
        let mut windows = self.windows.finish();
        windows.extend(self.closed);
        summarize(&windows)
    }
}

pub trait Workload: Sized {
    /// Builds and warms the system. Everything generated derives from
    /// `seed`.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Runs ops back to back until `until`, recording spans into `spans`.
    fn run(&mut self, until: Instant, spans: &mut Spans) -> Result<Timed, String>;

    /// Checks the outputs of every op run so far.
    fn check(&self) -> Result<(), String>;
}

/// Runs `chunk` back to back until `until`, timing each call as one
/// sample of `ops` ops. One clock read per chunk: a chunk's end is the
/// next chunk's start. `chunk` returns the failed ops of its call.
pub fn run_chunks(
    until: Instant,
    ops: u64,
    timed: &mut Timed,
    spans: &mut Spans,
    name: &'static str,
    mut chunk: impl FnMut() -> Result<u64, String>,
) -> Result<(), String> {
    let mut last = Instant::now();
    while last < until {
        spans.begin(name);
        let failed = chunk()?;
        spans.end();
        let now = Instant::now();
        timed.record(now, now - last, ops, failed);
        last = now;
    }
    Ok(())
}

/// Nodes expecting fewer hits than this are pooled with their table
/// neighbours until the pool expects at least this many, so that every
/// tested count is near enough to normal for a z-test.
const MIN_EXPECTED: f64 = 1000.0;

/// Largest |z| of hit counts against the table probabilities,
/// `z = (hits - N p) / sqrt(N p (1 - p))`, over single nodes or pools of
/// table neighbours expecting at least [`MIN_EXPECTED`] hits. Nodes with
/// `p = 0` must have no hits, and every hit node must be in the table.
pub fn max_hit_z(
    probs: &[(gtlb_runtime::NodeId, f64)],
    hits: &[(gtlb_runtime::NodeId, u64)],
) -> Result<f64, String> {
    let mut ids: Vec<_> = probs.iter().map(|&(id, _)| id).collect();
    ids.sort_unstable();
    if let Some(&(id, _)) = hits.iter().find(|(id, _)| ids.binary_search(id).is_err()) {
        return Err(format!("node {id} was hit but is not in the table"));
    }
    let n = hits.iter().map(|&(_, c)| c).sum::<u64>() as f64;
    let z = |p: f64, h: f64| ((h - n * p) / (n * p * (1.0 - p)).sqrt()).abs();
    let mut worst = 0.0f64;
    let (mut pool, mut last) = ((0.0, 0.0), None);
    for &(id, p) in probs {
        let h = hits.binary_search_by_key(&id, |&(i, _)| i).map_or(0, |k| hits[k].1) as f64;
        if p == 0.0 {
            if h > 0.0 {
                return Err(format!("node {id} has probability 0 but {h} hits"));
            }
            continue;
        }
        pool = (pool.0 + p, pool.1 + h);
        if n * pool.0 >= MIN_EXPECTED {
            worst = worst.max(z(pool.0, pool.1));
            last = Some(pool);
            pool = (0.0, 0.0);
        }
    }
    if pool.0 > 0.0 {
        // A short tail joins the last full pool.
        let (p, h) = last.map_or(pool, |(p, h)| (p + pool.0, h + pool.1));
        worst = worst.max(z(p, h));
    }
    Ok(worst)
}

/// Hit counts must match the table within this many standard
/// deviations on every node or pool: with at most 65536 tests the chance
/// that an exact sampler trips it is below 1e-4.
pub const HIT_Z_LIMIT: f64 = 6.5;

/// The check shared by `dispatch` and `batch`: every admitted job was
/// counted once, and per-node hit shares match the table.
pub fn check_hits(rt: &gtlb_runtime::Runtime, jobs: u64) -> Result<(), String> {
    let hits = rt.hit_counts();
    let counted: u64 = hits.iter().map(|&(_, c)| c).sum();
    if rt.dispatched() != jobs || counted != jobs {
        return Err(format!(
            "{jobs} jobs dispatched but the runtime counted {} ({counted} in hit counts)",
            rt.dispatched()
        ));
    }
    let table = rt.current_table();
    let probs: Vec<_> = table.nodes().iter().copied().zip(table.probs().iter().copied()).collect();
    let z = max_hit_z(&probs, &hits)?;
    if z > HIT_Z_LIMIT {
        return Err(format!(
            "a node's hit share is {z:.2} standard deviations off its probability"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtlb_runtime::NodeId;

    #[test]
    fn hit_z_flags_skew_and_strays() {
        let a = NodeId::from_raw(0);
        let b = NodeId::from_raw(1);
        let probs = [(a, 0.5), (b, 0.5)];
        assert!(max_hit_z(&probs, &[(a, 5000), (b, 5000)]).unwrap() < 1e-9);
        assert!(max_hit_z(&probs, &[(a, 5400), (b, 4600)]).unwrap() > 7.0);
        assert!(max_hit_z(&[(a, 1.0), (b, 0.0)], &[(a, 9), (b, 1)]).is_err());
        assert!(max_hit_z(&[(a, 1.0)], &[(a, 9), (b, 1)]).is_err());
    }

    #[test]
    fn rare_nodes_are_pooled() {
        // 4000 nodes expecting half a hit each, so two pools; one node
        // drew 6, which alone would read as 7.8 standard deviations.
        let probs: Vec<_> = (0..4000).map(|i| (NodeId::from_raw(i), 1.0 / 4000.0)).collect();
        let mut hits: Vec<_> = (0..2000).map(|i| (NodeId::from_raw(2 * i), 1)).collect();
        hits[0].1 = 6;
        hits[1].1 = 0;
        hits[2].1 = 0;
        hits[3].1 = 0;
        hits[4].1 = 0;
        hits[5].1 = 0;
        assert!(max_hit_z(&probs, &hits).unwrap() < 1.0);
        // A skew across the pool still shows.
        hits.iter_mut().take(500).for_each(|h| h.1 = 3);
        assert!(max_hit_z(&probs, &hits).unwrap() > HIT_Z_LIMIT);
    }
}

#[cfg(test)]
mod smoke {
    use super::*;

    fn short_run<W: Workload>(millis: u64) {
        let mut w = W::setup(1).unwrap();
        let until = Instant::now() + Duration::from_millis(millis);
        let timed = w.run(until, &mut Spans::disabled()).unwrap();
        assert!(timed.tally.attempted > 0);
        assert_eq!(timed.tally.failed, 0);
        w.check().unwrap();
    }

    #[test]
    fn every_workload_passes_its_checks_on_a_short_run() {
        short_run::<dispatch::Dispatch>(100);
        short_run::<batch::Batch>(100);
        short_run::<republish::Republish>(100);
        // Enough jobs for the mean response to settle within 1 %.
        short_run::<closed_loop::ClosedLoop>(3000);
        short_run::<control::Control>(100);
    }
}
