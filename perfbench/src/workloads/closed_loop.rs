//! `closed_loop`: one thread runs `TraceDriver::run_jobs` in 4096-job
//! chunks on the paper's Table 3.1 system (16 computers) at ρ = 0.7,
//! routing on a COOP table solved once at setup. Telemetry, 1-in-64
//! tracing, an empty `FaultPlan`, a retry policy and heartbeats are on,
//! so the estimator, detector, tracer and telemetry run on every job.
//! An op is one job.

use std::time::Instant;

use gtlb_runtime::{
    FaultPlan, RetryConfig, RetryPolicy, Runtime, TraceConfig, TraceDriver, TracingConfig,
};

use super::{run_chunks, Timed, Workload, RHO};
use crate::inputs::Rng;
use crate::spans::Spans;

/// Jobs per timed chunk: small enough for a thousand samples per window.
pub const CHUNK: u64 = 1024;
const WARMUP_JOBS: u64 = 200_000;
/// Virtual seconds between heartbeat sweeps over all 16 nodes.
const HEARTBEAT_INTERVAL: f64 = 30.0;
/// Responses per batch of the batch-means confidence interval.
const BATCH_MEANS: u64 = 10_000;

pub struct ClosedLoop {
    rt: Runtime,
    driver: TraceDriver,
    predicted: f64,
}

/// The Table 3.1 runtime and a driver over it, shared with the
/// per-layer probes. Returns them with COOP's analytic mean response.
pub fn build(seed: u64) -> Result<(Runtime, TraceDriver, f64), String> {
    let cluster = gtlb_sim::scenario::table31();
    let phi = cluster.arrival_rate_for_utilization(RHO);
    let rt = Runtime::builder()
        .seed(seed)
        .nominal_arrival_rate(phi)
        .telemetry(true)
        .tracing_config(TracingConfig { sample_mask: 0x3F, ..TracingConfig::default() })
        .build();
    for &r in cluster.rates() {
        rt.register_node(r).map_err(|e| e.to_string())?;
    }
    let outcome = rt.resolve_now().map_err(|e| e.to_string())?;
    let retry = RetryPolicy::new(RetryConfig::default()).map_err(|e| e.to_string())?;
    let driver_seed = Rng::stream(seed, 5).next_u64();
    let driver = TraceDriver::new(phi, TraceConfig { seed: driver_seed, batch_size: BATCH_MEANS })
        .with_faults(FaultPlan::new(driver_seed))
        .with_retry(retry)
        .with_heartbeats(HEARTBEAT_INTERVAL);
    Ok((rt, driver, outcome.predicted_mean_response))
}

impl Workload for ClosedLoop {
    fn setup(seed: u64) -> Result<Self, String> {
        let (rt, mut driver, predicted) = build(seed)?;
        driver.run_jobs(&rt, WARMUP_JOBS).map_err(|e| e.to_string())?;
        driver.reset_measurements();
        Ok(Self { rt, driver, predicted })
    }

    fn run(&mut self, until: Instant, spans: &mut Spans) -> Result<Timed, String> {
        let mut timed = Timed::new();
        let (rt, driver) = (&self.rt, &mut self.driver);
        let failed_before = driver.stats().failed;
        run_chunks(until, CHUNK, &mut timed, spans, "driver.run_jobs", || {
            driver.run_jobs(rt, CHUNK).map(|()| 0).map_err(|e| e.to_string())
        })?;
        // `stats()` summarizes every batch mean so far, so it is read once
        // per phase, not per chunk.
        timed.tally.add(0, driver.stats().failed - failed_before);
        Ok(timed)
    }

    fn check(&self) -> Result<(), String> {
        let stats = self.driver.stats();
        if !stats.is_conserved() || stats.failed != 0 {
            return Err(format!("driver accounting broken or jobs failed: {stats}"));
        }
        let half_width = stats.ci.as_ref().map_or(f64::INFINITY, |ci| ci.half_width);
        let tolerance = (0.01 * self.predicted).max(half_width);
        let gap = (stats.mean_response - self.predicted).abs();
        if gap > tolerance {
            return Err(format!(
                "observed mean response {:.4} s is {gap:.4} s from COOP's {:.4} s (tolerance {tolerance:.4} s)",
                stats.mean_response, self.predicted
            ));
        }
        Ok(())
    }
}
