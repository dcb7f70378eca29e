//! `batch`: two threads each own a shard and call
//! `Runtime::submit_batch_into` with 256-job batches and a reused
//! `BatchSubmission`, on a 65536-node COOP table with admission off, so
//! `ShardGuard::route_batch` runs. An op is one job.
//!
//! It runs as a probe of the traced run, not as an end-to-end workload:
//! its per-job time depends on where the two shards' state lands in
//! memory, which changes between builds of the same code.

use std::time::Instant;

use gtlb_runtime::{BatchSubmission, Runtime};

use super::{check_hits, run_chunks, Timed, Workload, RHO};
use crate::inputs::{irregular_rates, Rng};
use crate::spans::Spans;

pub const NODES: usize = 65_536;
pub const BATCH: usize = 256;
/// Batches per timed chunk.
const CHUNK_BATCHES: u64 = 1;
const WARMUP_BATCHES: u64 = 4096;
const THREADS: usize = 2;

pub struct Batch {
    rt: Runtime,
    jobs: u64,
}

/// The batch-path runtime, shared with the per-layer probes: 65536
/// irregular nodes, COOP solved at ρ = 0.7, `shards` shards, admission
/// off, telemetry on.
pub fn build_runtime(seed: u64, shards: usize) -> Result<Runtime, String> {
    let rates = irregular_rates(&mut Rng::stream(seed, 2), NODES);
    let phi = RHO * rates.iter().sum::<f64>();
    let rt = Runtime::builder()
        .seed(seed)
        .nominal_arrival_rate(phi)
        .shards(shards)
        .telemetry(true)
        .build();
    for r in rates {
        rt.register_node(r).map_err(|e| e.to_string())?;
    }
    rt.resolve_now().map_err(|e| e.to_string())?;
    Ok(rt)
}

/// Submits `batches` batches on `shard`, returning the failed jobs.
fn submit(rt: &Runtime, shard: usize, out: &mut BatchSubmission, batches: u64) -> u64 {
    let mut failed = 0;
    for _ in 0..batches {
        failed += match rt.submit_batch_into(shard, BATCH, out) {
            Ok(()) => BATCH as u64 - out.dispatched(),
            Err(_) => BATCH as u64,
        };
    }
    failed
}

impl Workload for Batch {
    fn setup(seed: u64) -> Result<Self, String> {
        let rt = build_runtime(seed, THREADS)?;
        let mut out = BatchSubmission::default();
        for shard in 0..THREADS {
            submit(&rt, shard, &mut out, WARMUP_BATCHES);
        }
        Ok(Self { rt, jobs: THREADS as u64 * WARMUP_BATCHES * BATCH as u64 })
    }

    fn run(&mut self, until: Instant, spans: &mut Spans) -> Result<Timed, String> {
        let rt = &self.rt;
        let start = Instant::now();
        let per_thread: Vec<Result<(Timed, Spans), String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|shard| {
                    let mut spans = spans.for_thread(shard as u32 + 1);
                    s.spawn(move || {
                        let mut out = BatchSubmission::default();
                        let mut timed = Timed::starting(start);
                        let ops = CHUNK_BATCHES * BATCH as u64;
                        run_chunks(until, ops, &mut timed, &mut spans, "batch.chunk", || {
                            Ok(submit(rt, shard, &mut out, CHUNK_BATCHES))
                        })?;
                        Ok((timed, spans))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("batch thread panicked")).collect()
        });
        let mut timed = Timed::starting(start);
        for result in per_thread {
            let (t, s) = result?;
            timed.absorb(t);
            spans.absorb(s);
        }
        self.jobs += timed.tally.attempted - timed.tally.failed;
        Ok(timed)
    }

    fn check(&self) -> Result<(), String> {
        check_hits(&self.rt, self.jobs)
    }
}
