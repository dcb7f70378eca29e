//! `control`: one client talks keep-alive HTTP over loopback to the
//! control plane's listener with one worker. For 32 agents it cycles 14
//! `POST /v1/heartbeat`, 1 `POST /v1/metrics` and 1 `GET /metrics`, plus
//! a register → `DELETE` churn pair every 64 requests. The server closes
//! a connection after 64 requests and the client reconnects. An op is
//! one request.
//!
//! The listener is `gtlb_net::server::Server` over the same `AppState`
//! that `ControlPlane` builds, without `ControlPlane`'s heartbeat monitor:
//! that thread wakes on a timer, and no timer-driven thread may run in a
//! timed phase.
//!
//! It runs as a probe of the traced run, not as an end-to-end workload:
//! a loopback round trip wakes a thread on each side, and what that
//! costs follows the load the host's other tenants put on it, which
//! moved its median by a fifth between two sets of runs of one build.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gtlb_net::lifecycle::{Lifecycle, LifecycleConfig};
use gtlb_net::router::AppState;
use gtlb_net::server::{Server, ServerConfig};
use gtlb_runtime::Runtime;

use super::{Timed, Workload, RHO};
use crate::http::{Client, Reply};
use crate::inputs::{irregular_rates, Rng};
use crate::prom::check_scrape;
use crate::spans::Spans;

pub const AGENTS: usize = 32;
/// Requests in one cycle of the mix: four rounds of 14 heartbeats, one
/// metrics post and one scrape, then a register → delete churn pair.
const CYCLE: usize = 66;
const WARMUP_REQUESTS: usize = 16 * CYCLE;
/// Service-time samples per metrics post.
const SAMPLES_PER_POST: usize = 8;
/// Jobs dispatched at setup so the scraped dispatch counter is nonzero.
const SETUP_JOBS: u64 = 10_000;
pub const DISPATCH_COUNTER: &str = "gtlb_dispatches_total";

/// One request of the mix, with its body prebuilt from the seed.
#[derive(Debug, Clone)]
pub struct Request {
    pub kind: Kind,
    pub method: &'static str,
    pub path: String,
    pub body: Vec<u8>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Heartbeat,
    Metrics,
    Scrape,
    Register,
    Delete,
}

impl Kind {
    pub fn span(self) -> &'static str {
        match self {
            Self::Heartbeat => "net.heartbeat",
            Self::Metrics => "net.metrics",
            Self::Scrape => "net.scrape",
            Self::Register => "net.register",
            Self::Delete => "net.delete",
        }
    }
}

/// The seeded agent set and request mix, shared with the probes.
pub struct Mix {
    pub agents: Vec<(String, f64)>,
    pub cycle: Vec<Request>,
}

impl Mix {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::stream(seed, 6);
        let rates = irregular_rates(&mut rng, AGENTS);
        let agents: Vec<(String, f64)> = rates
            .into_iter()
            .map(|r| (format!("agent-{:012x}", rng.next_u64() >> 16), r))
            .collect();
        let churn_name = format!("churn-{:012x}", rng.next_u64() >> 16);
        let json = |name: &str, rest: &str| format!("{{\"name\":\"{name}\"{rest}}}").into_bytes();
        let mut cycle = Vec::with_capacity(CYCLE);
        for _ in 0..4 {
            for _ in 0..14 {
                let (name, _) = &agents[rng.index(AGENTS)];
                cycle.push(Request {
                    kind: Kind::Heartbeat,
                    method: "POST",
                    path: "/v1/heartbeat".into(),
                    body: json(name, ""),
                });
            }
            let (name, rate) = &agents[rng.index(AGENTS)];
            let mut samples = String::new();
            for i in 0..SAMPLES_PER_POST {
                let s = -rng.next_f64().max(1e-12).ln() / rate;
                let _ = write!(samples, "{}{s}", if i > 0 { "," } else { "" });
            }
            cycle.push(Request {
                kind: Kind::Metrics,
                method: "POST",
                path: "/v1/metrics".into(),
                body: json(name, &format!(",\"service_seconds\":[{samples}]")),
            });
            cycle.push(Request {
                kind: Kind::Scrape,
                method: "GET",
                path: "/metrics".into(),
                body: Vec::new(),
            });
        }
        cycle.push(Request {
            kind: Kind::Register,
            method: "POST",
            path: "/v1/register".into(),
            body: json(&churn_name, &format!(",\"rate\":{}", rng.range(1.0, 64.0))),
        });
        cycle.push(Request {
            kind: Kind::Delete,
            method: "DELETE",
            path: format!("/v1/nodes/{churn_name}"),
            body: Vec::new(),
        });
        Self { agents, cycle }
    }
}

/// The runtime and control-plane state the workload serves: telemetry
/// on, agents auto-approved, Φ designed for the mix's agents at ρ = 0.7.
pub fn build_state(seed: u64, mix: &Mix) -> (Arc<Runtime>, Arc<AppState>) {
    let capacity: f64 = mix.agents.iter().map(|&(_, rate)| rate).sum();
    let rt = Arc::new(
        Runtime::builder().seed(seed).nominal_arrival_rate(RHO * capacity).telemetry(true).build(),
    );
    let lifecycle = Lifecycle::new(LifecycleConfig { auto_approve: true, ..Default::default() });
    let state = Arc::new(AppState::new(rt.attach_control_plane(), lifecycle));
    (rt, state)
}

/// The server config: one worker, default keep-alive budget.
pub fn server_config() -> ServerConfig {
    ServerConfig { workers: 1, ..ServerConfig::default() }
}

pub struct Control {
    rt: Arc<Runtime>,
    mix: Mix,
    client: Client,
    // Dropped after the client, so the worker sees its last close.
    server: Server,
    next: usize,
    pub non2xx: u64,
    pub scrapes: u64,
    pub scrape_bytes_first: usize,
    pub scrape_bytes_last: usize,
    pub requests: u64,
    mismatch: Option<String>,
}

impl Control {
    /// Sends one request of the mix and checks its reply. Returns when
    /// the reply arrived, the round-trip time and whether it failed; the
    /// reply is checked after the clock stops.
    fn request(&mut self, req_index: usize, spans: &mut Spans) -> (Instant, Duration, bool) {
        let req = &self.mix.cycle[req_index];
        spans.begin(req.kind.span());
        let start = Instant::now();
        let reply = self.client.request(req.method, &req.path, &req.body);
        let end = Instant::now();
        spans.end();
        self.requests += 1;
        (end, end - start, self.verify(req_index, reply))
    }

    fn verify(&mut self, req_index: usize, reply: std::io::Result<Reply>) -> bool {
        let req = &self.mix.cycle[req_index];
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                self.non2xx += 1;
                self.mismatch.get_or_insert(format!("{} {}: {e}", req.method, req.path));
                return true;
            }
        };
        if !(200..300).contains(&reply.status) {
            self.non2xx += 1;
            self.mismatch.get_or_insert(format!(
                "{} {} answered {}: {}",
                req.method,
                req.path,
                reply.status,
                String::from_utf8_lossy(&reply.body)
            ));
            return true;
        }
        if req.kind == Kind::Scrape {
            self.scrapes += 1;
            if self.scrapes == 1 {
                self.scrape_bytes_first = reply.body.len();
            }
            self.scrape_bytes_last = reply.body.len();
            let checked = std::str::from_utf8(&reply.body)
                .map_err(|_| "scrape is not UTF-8".to_string())
                .and_then(|text| check_scrape(text, DISPATCH_COUNTER));
            match checked {
                Ok(v) if v == self.rt.dispatched() as f64 => {}
                Ok(v) => {
                    self.mismatch.get_or_insert(format!(
                        "scrape reports {v} dispatches, the runtime {}",
                        self.rt.dispatched()
                    ));
                }
                Err(e) => {
                    self.mismatch.get_or_insert(e);
                }
            }
        }
        false
    }

    fn next_request(&mut self, spans: &mut Spans) -> (Instant, Duration, bool) {
        let i = self.next;
        self.next = (self.next + 1) % self.mix.cycle.len();
        self.request(i, spans)
    }

    /// Closes the client's connection, freeing the server's one worker
    /// for another client.
    pub fn disconnect(&mut self) {
        self.client.disconnect();
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    /// Connections the client opened beyond the first.
    pub fn reconnects(&self) -> u64 {
        self.client.connects.saturating_sub(1)
    }
}

impl Workload for Control {
    fn setup(seed: u64) -> Result<Self, String> {
        let mix = Mix::new(seed);
        let (rt, state) = build_state(seed, &mix);
        let server =
            Server::start("127.0.0.1:0", state, server_config()).map_err(|e| e.to_string())?;
        let mut w = Self {
            client: Client::new(server.local_addr()),
            rt,
            mix,
            server,
            next: 0,
            non2xx: 0,
            scrapes: 0,
            scrape_bytes_first: 0,
            scrape_bytes_last: 0,
            requests: 0,
            mismatch: None,
        };
        let mut off = Spans::disabled();
        for (name, rate) in w.mix.agents.clone() {
            let body = format!("{{\"name\":\"{name}\",\"rate\":{rate}}}");
            let reply = w.client.request("POST", "/v1/register", body.as_bytes());
            if !matches!(reply, Ok(ref r) if r.status == 201) {
                return Err(format!("registering {name} failed: {reply:?}"));
            }
        }
        w.rt.resolve_now().map_err(|e| e.to_string())?;
        for _ in 0..SETUP_JOBS {
            w.rt.submit().map_err(|e| e.to_string())?;
        }
        for _ in 0..WARMUP_REQUESTS {
            w.next_request(&mut off);
        }
        match w.mismatch.take() {
            Some(e) => Err(e),
            None => Ok(w),
        }
    }

    fn run(&mut self, until: Instant, spans: &mut Spans) -> Result<Timed, String> {
        let mut timed = Timed::new();
        while Instant::now() < until {
            let (end, elapsed, failed) = self.next_request(spans);
            timed.record(end, elapsed, 1, u64::from(failed));
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_derives_from_the_seed() {
        let a = Mix::new(11);
        let b = Mix::new(11);
        let names = |m: &Mix| m.agents.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
        assert_eq!(names(&a), names(&b));
        assert_eq!(
            a.cycle.iter().map(|r| &r.body).collect::<Vec<_>>(),
            b.cycle.iter().map(|r| &r.body).collect::<Vec<_>>()
        );
        assert_ne!(names(&a), names(&Mix::new(12)));
        let count = |k| a.cycle.iter().filter(|r| r.kind == k).count();
        assert_eq!(a.cycle.len(), CYCLE);
        assert_eq!((count(Kind::Heartbeat), count(Kind::Metrics), count(Kind::Scrape)), (56, 4, 4));
        assert_eq!((count(Kind::Register), count(Kind::Delete)), (1, 1));
    }
}
