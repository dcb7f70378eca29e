//! `dispatch`: one thread calls `Runtime::submit` per job on a 1024-node
//! COOP table with two round-robin shards, admission on (target 0.95 at
//! offered ρ = 0.7, so nothing is shed) and telemetry on. An op is one
//! job.

use std::hint::black_box;
use std::time::Instant;

use gtlb_runtime::{AdmissionConfig, Runtime, Submission};

use super::{check_hits, run_chunks, Timed, Workload, RHO};
use crate::inputs::{irregular_rates, Rng};
use crate::spans::Spans;

pub const NODES: usize = 1024;
/// Jobs per timed chunk.
const CHUNK: u64 = 256;
const WARMUP_JOBS: u64 = 2_000_000;

pub struct Dispatch {
    rt: Runtime,
    submitted: u64,
    dispatched: u64,
}

/// The dispatch-path runtime, shared with the per-layer probes: 1024
/// irregular nodes, COOP solved at ρ = 0.7, two shards, admission with
/// target 0.95, telemetry on.
pub fn build_runtime(seed: u64) -> Result<Runtime, String> {
    let rates = irregular_rates(&mut Rng::stream(seed, 1), NODES);
    let phi = RHO * rates.iter().sum::<f64>();
    let rt = Runtime::builder()
        .seed(seed)
        .nominal_arrival_rate(phi)
        .shards(2)
        .admission(AdmissionConfig { target_utilization: 0.95, ..AdmissionConfig::default() })
        .telemetry(true)
        .build();
    for r in rates {
        rt.register_node(r).map_err(|e| e.to_string())?;
    }
    rt.resolve_now().map_err(|e| e.to_string())?;
    Ok(rt)
}

impl Dispatch {
    fn submit(&mut self, jobs: u64) -> u64 {
        let mut failed = 0;
        for _ in 0..jobs {
            match self.rt.submit() {
                Ok(Submission::Dispatched(d)) => {
                    black_box(d);
                }
                Ok(_) | Err(_) => failed += 1,
            }
        }
        self.submitted += jobs;
        self.dispatched += jobs - failed;
        failed
    }
}

impl Workload for Dispatch {
    fn setup(seed: u64) -> Result<Self, String> {
        let mut w = Self { rt: build_runtime(seed)?, submitted: 0, dispatched: 0 };
        w.submit(WARMUP_JOBS);
        Ok(w)
    }

    fn run(&mut self, until: Instant, spans: &mut Spans) -> Result<Timed, String> {
        let mut timed = Timed::new();
        run_chunks(until, CHUNK, &mut timed, spans, "dispatch.chunk", || Ok(self.submit(CHUNK)))?;
        Ok(timed)
    }

    fn check(&self) -> Result<(), String> {
        let stats = self.rt.admission_stats().ok_or("admission is off")?;
        if stats.submitted != self.submitted || stats.accepted != self.dispatched {
            return Err(format!(
                "admission saw {} submitted / {} accepted, the benchmark {} / {}",
                stats.submitted, stats.accepted, self.submitted, self.dispatched
            ));
        }
        check_hits(&self.rt, self.dispatched)
    }
}
