//! `republish`: one thread publishes in a seeded order — seven
//! `Runtime::reweight_node` calls (random node, factor in [0.9, 1.1])
//! then one `Runtime::resolve_now` — on a 4096-node cluster with
//! irregular rates, and after each publish serves a 1024-job `submit`
//! burst from the new table. An op is one publish plus its burst.

use std::time::Instant;

use std::sync::Arc;

use gtlb_runtime::{NodeId, ResolveOutcome, RoutingTable, Runtime, Submission};

use super::{Timed, Workload, RHO};
use crate::inputs::{irregular_rates, Rng};
use crate::spans::Spans;

pub const NODES: usize = 4096;
const BURST: u64 = 1024;
/// Ops per cycle: `CYCLE - 1` reweights, then one resolve.
pub const CYCLE: u64 = 8;
const WARMUP_OPS: u64 = 256;

pub struct Republish {
    rt: Runtime,
    ids: Vec<NodeId>,
    order: Rng,
    ops: u64,
    last_epoch: u64,
    reweights: u64,
    /// First output mismatch seen, reported by `check`.
    mismatch: Option<String>,
}

/// The republish runtime, shared with the per-layer probes: 4096
/// irregular nodes, COOP at ρ = 0.7, one shard, telemetry on. Returns
/// the runtime, its node ids and the first solve.
pub fn build_runtime(seed: u64) -> Result<(Runtime, Vec<NodeId>, ResolveOutcome), String> {
    let rates = irregular_rates(&mut Rng::stream(seed, 3), NODES);
    let phi = RHO * rates.iter().sum::<f64>();
    let rt = Runtime::builder().seed(seed).nominal_arrival_rate(phi).telemetry(true).build();
    let ids = rates
        .into_iter()
        .map(|r| rt.register_node(r).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let outcome = rt.resolve_now().map_err(|e| e.to_string())?;
    Ok((rt, ids, outcome))
}

/// A solve and the table it published.
type Solved = (ResolveOutcome, Arc<RoutingTable>);

/// The published table must equal the COOP allocation divided by Φ.
pub fn check_table(table: &RoutingTable, outcome: &ResolveOutcome) -> Result<(), String> {
    if table.epoch() != outcome.epoch || table.nodes() != outcome.nodes.as_slice() {
        return Err(format!("table at epoch {} is not the solve's", table.epoch()));
    }
    for (i, (&p, &load)) in table.probs().iter().zip(outcome.allocation.loads()).enumerate() {
        let want = load / outcome.phi;
        if (p - want).abs() > 1e-12 {
            return Err(format!("node {i}: table {p} but COOP load / Φ = {want}"));
        }
    }
    Ok(())
}

impl Republish {
    /// One publish (reweight or resolve) and its burst. Returns the
    /// failed jobs, the published epoch and, for a resolve, what it
    /// published; output checks run after the clock stops.
    fn op(&mut self, spans: &mut Spans) -> (u64, u64, Option<Solved>) {
        let resolve = self.ops % CYCLE == CYCLE - 1;
        self.ops += 1;
        let published = if resolve {
            spans
                .scope("runtime.resolve_now", |_| self.rt.resolve_now())
                .map(|o| (o.epoch, Some((o, self.rt.current_table()))))
        } else {
            let id = self.ids[self.order.index(self.ids.len())];
            let factor = self.order.range(0.9, 1.1);
            self.reweights += 1;
            spans
                .scope("runtime.reweight_node", |_| self.rt.reweight_node(id, factor))
                .map(|e| (e.unwrap_or(0), None))
        };
        let (epoch, outcome) = match published {
            Ok(p) => p,
            Err(e) => {
                self.mismatch.get_or_insert(format!("publish failed: {e}"));
                return (1 + BURST, 0, None);
            }
        };
        let mut failed = 0;
        spans.begin("runtime.submit_burst");
        for _ in 0..BURST {
            match self.rt.submit() {
                Ok(Submission::Dispatched(d)) if d.epoch == epoch => {}
                Ok(Submission::Dispatched(d)) => {
                    failed += 1;
                    self.mismatch.get_or_insert(format!(
                        "job routed at epoch {} right after epoch {epoch} was published",
                        d.epoch
                    ));
                }
                Ok(_) | Err(_) => failed += 1,
            }
        }
        spans.end();
        (failed, epoch, outcome)
    }

    fn verify(&mut self, epoch: u64, solved: Option<&Solved>) {
        if epoch <= self.last_epoch {
            self.mismatch
                .get_or_insert(format!("epoch {epoch} published after epoch {}", self.last_epoch));
        }
        self.last_epoch = epoch;
        if let Some((outcome, table)) = solved {
            if let Err(e) = check_table(table, outcome) {
                self.mismatch.get_or_insert(e);
            }
        }
    }

    /// One untimed op with its output checks.
    pub fn step(&mut self, spans: &mut Spans) {
        let (_, epoch, solved) = self.op(spans);
        self.verify(epoch, solved.as_ref());
    }

    pub fn reweights(&self) -> u64 {
        self.reweights
    }

    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }
}

impl Workload for Republish {
    fn setup(seed: u64) -> Result<Self, String> {
        let (rt, ids, outcome) = build_runtime(seed)?;
        check_table(&rt.current_table(), &outcome)?;
        let mut w = Self {
            rt,
            ids,
            order: Rng::stream(seed, 4),
            ops: 0,
            last_epoch: outcome.epoch,
            reweights: 0,
            mismatch: None,
        };
        let mut off = Spans::disabled();
        for _ in 0..WARMUP_OPS {
            w.step(&mut off);
        }
        match w.mismatch.take() {
            Some(e) => Err(e),
            None => Ok(w),
        }
    }

    fn run(&mut self, until: Instant, spans: &mut Spans) -> Result<Timed, String> {
        let mut timed = Timed::new();
        while Instant::now() < until {
            spans.begin("republish.op");
            let start = Instant::now();
            let (failed, epoch, solved) = self.op(spans);
            let end = Instant::now();
            spans.end();
            timed.record(end, end - start, 1, u64::from(failed > 0));
            self.verify(epoch, solved.as_ref());
        }
        Ok(timed)
    }

    fn check(&self) -> Result<(), String> {
        match &self.mismatch {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }
}
