//! Per-layer metrics for the traced run. Each probe times a public call
//! into one layer from outside, in chunks, with a span per chunk (or per
//! call for calls slower than a microsecond), and reports the median
//! per-call time. Counts are read at the same boundaries.

use std::hint::black_box;
use std::io::Cursor;
use std::time::{Duration, Instant};

use gtlb_core::model::Cluster;
use gtlb_net::http::{Limits, Method, Request, RequestReader};
use gtlb_net::router::route;
use gtlb_runtime::{
    AdmissionConfig, AdmissionControl, AdmissionPolicy, AttemptOutcome, EpochSwap, SchemeKind,
    SpanKind, TableBuilder, Trace,
};

use crate::http::Client;
use crate::inputs::{draws, irregular_rates, Rng};
use crate::spans::Spans;
use crate::stats::{median_of, Samples};
use crate::workloads::batch::{self, Batch};
use crate::workloads::control::{self, Control, Kind, Mix};
use crate::workloads::republish::{self, Republish, CYCLE};
use crate::workloads::{closed_loop, dispatch, Workload, RHO};

/// One per-layer metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Fresh launches of the contended-submit probe.
pub const CONTENDED_LAUNCHES: usize = 3;
/// Seconds each contended launch measures.
pub const CONTENDED_SECONDS: f64 = 0.3;

const POOL: usize = 4096;

/// Collects metrics and splits the probe budget evenly across the timed
/// probes.
struct Probe<'a> {
    spans: &'a mut Spans,
    slice: Duration,
    out: Vec<Metric>,
}

impl Probe<'_> {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.out.push(Metric { name, value, unit });
    }

    /// Median per-call nanoseconds of `chunk`, which makes `calls` calls
    /// per invocation, over this probe's time slice (and at least 21
    /// chunks).
    fn per_call_ns(&mut self, name: &'static str, calls: u64, mut chunk: impl FnMut()) -> f64 {
        let mut samples = Samples::with_capacity(1 << 16);
        let start = Instant::now();
        let mut last = start;
        while last - start < self.slice || samples.len() < 21 {
            self.spans.begin(name);
            chunk();
            self.spans.end();
            let now = Instant::now();
            samples.push_chunk(now - last, calls);
            last = now;
        }
        samples.median().expect("at least 21 samples")
    }

    /// As [`Probe::per_call_ns`] for calls timed one at a time, with
    /// `prepare` run before and the result dropped after the clock.
    fn timed_calls<T, R>(
        &mut self,
        name: &'static str,
        mut prepare: impl FnMut() -> T,
        mut call: impl FnMut(T) -> R,
    ) -> f64 {
        let mut samples = Samples::with_capacity(1 << 16);
        let start = Instant::now();
        while start.elapsed() < self.slice || samples.len() < 21 {
            let input = prepare();
            self.spans.begin(name);
            let t = Instant::now();
            let result = call(input);
            let elapsed = t.elapsed();
            self.spans.end();
            drop(result);
            samples.push_chunk(elapsed, 1);
        }
        samples.median().expect("at least 21 samples")
    }
}

/// Runs every probe within about `budget` and returns the metrics.
pub fn run_all(seed: u64, budget: Duration, spans: &mut Spans) -> Result<Vec<Metric>, String> {
    // Thirty-four timed probes and the batch and control loads (four
    // slices each) share the budget; the fixed-size pieces (launches,
    // the online closed loop, set-ups) come on top.
    let mut p = Probe { spans, slice: budget / 48, out: Vec::new() };
    dispatch_path(&mut p, seed)?;
    batch_path(&mut p, seed)?;
    contended(&mut p, seed)?;
    publish_path(&mut p, seed)?;
    driver_path(&mut p, seed)?;
    control_path(&mut p, seed)?;
    Ok(p.out)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `runtime::admission`, `runtime::shard`, `runtime::swap` and
/// `runtime::table` on the `dispatch` runtime.
fn dispatch_path(p: &mut Probe, seed: u64) -> Result<(), String> {
    let pool = draws(&mut Rng::stream(seed, 10), POOL);
    let control = AdmissionControl::new(
        AdmissionPolicy::new(AdmissionConfig { target_utilization: 0.95, ..Default::default() })
            .map_err(err)?,
    );
    control.publish_offered_utilization(RHO);
    let v = p.per_call_ns("admission.decide", POOL as u64, || {
        for &u in &pool {
            black_box(control.decide(u));
        }
    });
    p.put("admission.decide_ns", v, "ns");

    let rt = dispatch::build_runtime(seed)?;
    let sd = rt.sharded_dispatcher();
    let v = p.per_call_ns("shard.acquire", POOL as u64, || {
        for _ in 0..POOL {
            drop(black_box(sd.shard(0)));
        }
    });
    p.put("shard.acquire_ns", v, "ns");
    let v = p.per_call_ns("shard.dispatch", POOL as u64, || {
        let mut guard = sd.shard(0);
        for _ in 0..POOL {
            let _ = black_box(guard.dispatch());
        }
    });
    p.put("shard.dispatch_ns", v, "ns");
    let swap = rt.table_handle();
    let v = p.per_call_ns("swap.pin", POOL as u64, || {
        for _ in 0..POOL {
            drop(black_box(swap.pin()));
        }
    });
    p.put("swap.pin_ns", v, "ns");
    let v = p.per_call_ns("swap.load", POOL as u64, || {
        for _ in 0..POOL {
            drop(black_box(swap.load()));
        }
    });
    p.put("swap.load_ns", v, "ns");
    let table = rt.current_table();
    let v = p.per_call_ns("table.route", POOL as u64, || {
        for &u in &pool {
            black_box(table.route(u));
        }
    });
    p.put("table.route_ns_n1024", v, "ns");

    // A fixed number of submits, so the count repeats for a seed.
    for _ in 0..(1 << 20) {
        rt.submit().map_err(err)?;
    }
    let stats = rt.admission_stats().ok_or("admission is off")?;
    p.put("admission.accepted", stats.accepted as f64, "count");
    Ok(())
}

/// `ShardGuard::route_batch` and routing on the 65536-node `batch`
/// table.
fn batch_path(p: &mut Probe, seed: u64) -> Result<(), String> {
    let pool = draws(&mut Rng::stream(seed, 11), POOL);
    let rt = batch::build_runtime(seed, 1)?;
    let table = rt.current_table();
    let v = p.per_call_ns("table.route", POOL as u64, || {
        for &u in &pool {
            black_box(table.route(u));
        }
    });
    p.put("table.route_ns_n65536", v, "ns");
    let sd = rt.sharded_dispatcher();
    let mut out = Vec::with_capacity(1024);
    let mut route_batch = |p: &mut Probe, name, size: usize| {
        p.per_call_ns(name, size as u64, || {
            out.clear();
            let _ = black_box(sd.shard(0).route_batch(size, &mut out));
        })
    };
    let per_job = route_batch(p, "shard.route_batch", batch::BATCH);
    p.put("shard.route_batch_ns", per_job, "ns");
    // Batch time T(b) = F + b c: fit the fixed cost F from b = 64, 1024.
    let t64 = 64.0 * route_batch(p, "shard.route_batch64", 64);
    let t1024 = 1024.0 * route_batch(p, "shard.route_batch1024", 1024);
    let c = (t1024 - t64) / (1024.0 - 64.0);
    p.put("shard.batch_fixed_us", (t64 - 64.0 * c) / 1000.0, "us");

    // The two-thread `batch` loop, with its output checks.
    let mut w = Batch::setup(seed)?;
    let until = Instant::now() + (p.slice * 4).max(crate::stats::WINDOW);
    let summary = w.run(until, p.spans)?.summary()?;
    w.check()?;
    p.put("shard.batch_two_threads_ns", summary.p50, "ns");
    Ok(())
}

/// `Runtime::submit_on` from two threads on their own shards, measured
/// in fresh launches of this program: where the per-shard state lands in
/// memory, and so whether it shares cache lines, changes per launch.
fn contended(p: &mut Probe, seed: u64) -> Result<(), String> {
    const NAMES: [&str; CONTENDED_LAUNCHES] = [
        "shard.contended_submit_ns_1",
        "shard.contended_submit_ns_2",
        "shard.contended_submit_ns_3",
    ];
    let exe = std::env::current_exe().map_err(err)?;
    let mut values = Vec::new();
    for name in NAMES {
        p.spans.begin("shard.contended_launch");
        let out = std::process::Command::new(&exe)
            .args(["--probe", "contended", "--seed", &seed.to_string()])
            .stdin(std::process::Stdio::null())
            .output()
            .map_err(err)?;
        p.spans.end();
        let text = String::from_utf8_lossy(&out.stdout);
        let value: f64 = text.trim().parse().map_err(|_| {
            format!("contended launch failed: {}", String::from_utf8_lossy(&out.stderr))
        })?;
        p.put(name, value, "ns");
        values.push(value);
    }
    p.put("shard.contended_submit_ns", median_of(&values), "ns");
    Ok(())
}

/// The contended probe's body, run in a child launch: two threads call
/// `submit_on` on their own shard of the `dispatch` runtime. Returns the
/// median per-job time over both threads' chunks.
pub fn contended_submit_ns(seed: u64) -> Result<f64, String> {
    let rt = dispatch::build_runtime(seed)?;
    let until = Instant::now() + Duration::from_secs_f64(CONTENDED_SECONDS);
    let per_thread: Vec<Samples> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|shard| {
                let rt = &rt;
                s.spawn(move || {
                    let mut samples = Samples::with_capacity(1 << 16);
                    let mut last = Instant::now();
                    while last < until {
                        for _ in 0..1024 {
                            let _ = black_box(rt.submit_on(shard));
                        }
                        let now = Instant::now();
                        samples.push_chunk(now - last, 1024);
                        last = now;
                    }
                    samples
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("contended thread panicked")).collect()
    });
    let mut all = Samples::with_capacity(1 << 17);
    for s in per_thread {
        all.extend(s);
    }
    all.median()
}

/// `runtime::swap` publishes, `runtime::table` builds and repairs, and
/// `runtime::resolver` on the 4096-node `republish` cluster, plus the
/// republish sequence's counts.
fn publish_path(p: &mut Probe, seed: u64) -> Result<(), String> {
    let (rt, ids, outcome) = republish::build_runtime(seed)?;
    let table = rt.current_table();
    let swap = EpochSwap::new(table.as_ref().clone());
    let v = p.timed_calls("swap.publish", || table.as_ref().clone(), |t| swap.publish(t));
    p.put("swap.publish_us", v / 1000.0, "us");

    let weights = outcome.allocation.loads().to_vec();
    let mut builder = TableBuilder::new();
    let mut epoch = 1u64;
    let v = p.timed_calls(
        "table.build",
        || ids.clone(),
        |nodes| {
            epoch += 1;
            drop(black_box(builder.build(epoch, nodes, &weights)));
        },
    );
    p.put("table.build_us", v / 1000.0, "us");

    let mut order = Rng::stream(seed, 12);
    let mut base = builder.build(epoch, ids.clone(), &weights).map_err(err)?;
    let v = p.timed_calls(
        "table.update_weights",
        || (order.index(ids.len()), order.range(0.9, 1.1)),
        |(i, factor)| {
            epoch += 1;
            let update = (i, base.probs()[i] * factor);
            if let Ok(t) = builder.update_weights(&base, epoch, &[update]) {
                base = t;
            }
        },
    );
    p.put("table.update_weights_us", v / 1000.0, "us");

    let rates = irregular_rates(&mut Rng::stream(seed, 3), republish::NODES);
    let cluster = Cluster::new(rates).map_err(err)?;
    let phi = RHO * cluster.total_rate();
    let v = p.timed_calls(
        "resolver.allocate",
        || (),
        |()| {
            drop(black_box(SchemeKind::Coop.allocate(&cluster, phi)));
        },
    );
    p.put("resolver.allocate_us", v / 1000.0, "us");
    let v = p.timed_calls("runtime.resolve_now", || (), |()| drop(black_box(rt.resolve_now())));
    p.put("resolver.resolve_now_us", v / 1000.0, "us");

    // The workload's own publish sequence, a fixed number of cycles.
    let mut w = Republish::setup(seed)?;
    let mut off = Spans::disabled();
    for _ in 0..256 * CYCLE {
        w.step(&mut off);
    }
    w.check()?;
    let (repairs, rebuilds) = w.runtime().table_build_stats();
    let swap = w.runtime().swap_stats();
    p.put("table.repairs", repairs as f64, "count");
    p.put("table.rebuilds", rebuilds as f64, "count");
    p.put("table.repair_ratio", repairs as f64 / w.reweights() as f64, "ratio");
    p.put("swap.publishes", swap.publishes as f64, "count");
    let escalations = swap.drains_spin + swap.drains_yield + swap.drains_sleep;
    p.put("swap.drain_escalations", escalations as f64, "count");
    Ok(())
}

/// The calls `TraceDriver::run_jobs` makes per job, each timed on its
/// own; the driver's self time is its per-job time minus their sum.
fn driver_path(p: &mut Probe, seed: u64) -> Result<(), String> {
    let (rt, _, _) = closed_loop::build(seed)?;
    let ids = rt.node_ids();
    let n = ids.len();
    let mut t = 0.0;
    let arrival = p.per_call_ns("estimator.record_arrival", POOL as u64, || {
        for _ in 0..POOL {
            t += 2.0;
            rt.record_arrival(t);
        }
    });
    p.put("estimator.record_arrival_ns", arrival, "ns");
    let service = p.per_call_ns("estimator.record_service", POOL as u64, || {
        for i in 0..POOL {
            rt.record_service(ids[i % n], 10.0 + (i % 7) as f64);
        }
    });
    p.put("estimator.record_service_ns", service, "ns");
    let node_rate = p.per_call_ns("registry.node_rate", POOL as u64, || {
        for i in 0..POOL {
            black_box(rt.node_rate(ids[i % n]));
        }
    });
    p.put("registry.node_rate_ns", node_rate, "ns");
    let mut t = 0.0;
    let observe = p.per_call_ns("detector.observe_success", POOL as u64, || {
        for i in 0..POOL {
            t += 2.0;
            let _ = black_box(rt.observe_success(ids[i % n], t));
        }
    });
    p.put("detector.observe_success_ns", observe, "ns");
    let submit = p.per_call_ns("runtime.submit", POOL as u64, || {
        for _ in 0..POOL {
            let _ = black_box(rt.submit());
        }
    });
    p.put("driver.submit_ns", submit, "ns");

    let tracer = rt.tracer();
    let (mut sampled, mut unsampled) = (Vec::new(), Vec::new());
    for seq in 1.. {
        match tracer.begin(seq) {
            Some(_) if sampled.len() < 1024 => sampled.push(seq),
            None if unsampled.len() < POOL => unsampled.push(seq),
            _ => {}
        }
        if sampled.len() == 1024 && unsampled.len() == POOL {
            break;
        }
    }
    let begin_unsampled = p.per_call_ns("tracing.begin", POOL as u64, || {
        for &s in &unsampled {
            black_box(tracer.begin(s));
        }
    });
    p.put("tracing.begin_unsampled_ns", begin_unsampled, "ns");
    let begin_sampled = p.per_call_ns("tracing.begin", 1024, || {
        for &s in &sampled {
            black_box(tracer.begin(s));
        }
    });
    p.put("tracing.begin_sampled_ns", begin_sampled, "ns");
    // Finish traces shaped like the driver's: admitted, queued, routed,
    // one attempt, completed.
    let traces = |sampled: &[u64]| -> Vec<Trace> {
        sampled
            .iter()
            .filter_map(|&s| tracer.begin(s))
            .map(|mut t| {
                t.instant(SpanKind::Admitted, 1.0);
                t.instant(SpanKind::Queued { depth: 0 }, 1.0);
                t.instant(SpanKind::Routed { node: 0, epoch: 1, shard: 0 }, 1.0);
                let attempt = SpanKind::Attempt { n: 1, outcome: AttemptOutcome::Ok, backoff: 0.0 };
                t.interval(attempt, 1.0, 2.0);
                t.instant(SpanKind::Completed, 2.0);
                t
            })
            .collect()
    };
    let finish = p.timed_calls(
        "tracing.finish",
        || traces(&sampled),
        |batch| {
            for t in batch {
                tracer.finish(0, t);
            }
        },
    ) / sampled.len() as f64;
    p.put("tracing.finish_ns", finish, "ns");
    let telemetry = rt.telemetry();
    let record = p.per_call_ns("telemetry.record_response", POOL as u64, || {
        for i in 0..POOL {
            telemetry.record_response_traced(50.0 + (i % 61) as f64, None);
        }
    });
    p.put("telemetry.record_response_ns", record, "ns");

    // The driver itself, on a fresh runtime so the calls above do not
    // disturb its clocks.
    let (rt, mut driver, _) = closed_loop::build(seed)?;
    driver.run_jobs(&rt, 100_000).map_err(err)?;
    let chunk = closed_loop::CHUNK;
    let mut failed = None;
    let per_job = p.per_call_ns("driver.run_jobs", chunk, || {
        if let Err(e) = driver.run_jobs(&rt, chunk) {
            failed.get_or_insert(e);
        }
    });
    if let Some(e) = failed {
        return Err(e.to_string());
    }
    p.put("driver.run_jobs_ns", per_job, "ns");
    let sampled_extra = (begin_sampled - begin_unsampled + finish) / 64.0;
    let layers = submit + arrival + service + node_rate + observe + begin_unsampled + record;
    p.put("driver.self_ns", per_job - layers - sampled_extra, "ns");

    // Online COOP: resolve on measured rates every 4096 jobs, 2^20 jobs
    // in all, the first quarter unmeasured.
    let (rt, mut driver, predicted) = closed_loop::build(seed)?;
    p.spans.begin("driver.online");
    for i in 0..256 {
        if i == 64 {
            driver.reset_measurements();
        }
        driver.run_jobs(&rt, 4096).map_err(err)?;
        rt.resolve_now().map_err(err)?;
    }
    p.spans.end();
    let stats = driver.stats();
    if !stats.is_conserved() {
        return Err(format!("online closed loop lost jobs: {stats}"));
    }
    p.put("driver.resp_mean_s", stats.mean_response, "s");
    p.put("driver.resp_predicted_s", predicted, "s");
    p.put("driver.online_resp_ratio", stats.mean_response / predicted, "ratio");
    p.put("driver.retried", stats.retried as f64, "count");
    Ok(())
}

/// `net::http` parsing, `net::router` in process, telemetry rendering,
/// and a live loopback session of the `control` mix.
fn control_path(p: &mut Probe, seed: u64) -> Result<(), String> {
    let mix = Mix::new(seed);
    let find = |kind: Kind| mix.cycle.iter().find(|r| r.kind == kind).expect("mix has every kind");
    let heartbeat = find(Kind::Heartbeat);
    let raw = format!(
        "POST {} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n",
        heartbeat.path,
        heartbeat.body.len()
    );
    let raw = [raw.as_bytes(), &heartbeat.body].concat();
    let v = p.per_call_ns("net.parse", 256, || {
        for _ in 0..256 {
            let mut reader = RequestReader::new(Cursor::new(&raw[..]), Limits::default());
            let _ = black_box(reader.next_request());
        }
    });
    p.put("net.parse_ns", v, "ns");

    let (rt, state) = control::build_state(seed, &mix);
    for (name, rate) in &mix.agents {
        let body = format!("{{\"name\":\"{name}\",\"rate\":{rate}}}");
        let resp =
            route(&state, &Request::synthetic(Method::Post, "/v1/register", body.as_bytes()));
        if resp.status != 201 {
            return Err(format!("in-process register answered {}", resp.status));
        }
    }
    rt.resolve_now().map_err(err)?;
    for _ in 0..10_000 {
        rt.submit().map_err(err)?;
    }
    let synthetic = |r: &control::Request| {
        let method = match r.method {
            "GET" => Method::Get,
            "DELETE" => Method::Delete,
            _ => Method::Post,
        };
        Request::synthetic(method, &r.path, &r.body)
    };
    let mut non2xx = 0u64;
    let mut routed = |p: &mut Probe, name, reqs: Vec<Request>| {
        p.timed_calls(
            name,
            || (),
            |()| {
                for req in &reqs {
                    let resp = route(&state, req);
                    non2xx += u64::from(!(200..300).contains(&resp.status));
                    black_box(resp);
                }
            },
        ) / 1000.0
    };
    let hb = routed(p, "net.route_heartbeat", vec![synthetic(heartbeat)]);
    p.put("net.route_heartbeat_us", hb, "us");
    let v = routed(p, "net.route_metrics", vec![synthetic(find(Kind::Metrics))]);
    p.put("net.route_metrics_us", v, "us");
    let v = routed(p, "net.route_scrape", vec![synthetic(find(Kind::Scrape))]);
    p.put("net.route_scrape_us", v, "us");
    let churn = vec![synthetic(find(Kind::Register)), synthetic(find(Kind::Delete))];
    let v = routed(p, "net.route_churn", churn);
    p.put("net.route_churn_us", v, "us");
    let v =
        p.timed_calls("telemetry.snapshot", || (), |()| drop(black_box(rt.telemetry_snapshot())));
    p.put("telemetry.snapshot_us", v / 1000.0, "us");
    let handle = rt.telemetry_handle();
    let v = p.timed_calls("telemetry.prometheus", || (), |()| drop(black_box(handle.prometheus())));
    p.put("telemetry.prometheus_us", v / 1000.0, "us");

    // Over loopback: a keep-alive heartbeat round trip, a fresh connect
    // plus first reply, and the workload's mix.
    let mut w = Control::setup(seed)?;
    w.disconnect();
    let addr = w.addr();
    let mut client = Client::new(addr);
    let rtt = p.timed_calls(
        "net.heartbeat_rtt",
        || (),
        |()| {
            let _ = black_box(client.request(heartbeat.method, &heartbeat.path, &heartbeat.body));
        },
    ) / 1000.0;
    drop(client);
    p.put("net.heartbeat_rtt_us", rtt, "us");
    p.put("net.socket_share", 1.0 - hb / rtt, "ratio");
    let v = p.timed_calls(
        "net.connect",
        || Client::new(addr),
        |mut c| {
            let _ = black_box(c.request(heartbeat.method, &heartbeat.path, &heartbeat.body));
            c
        },
    );
    p.put("net.connect_us", v / 1000.0, "us");
    let until = Instant::now() + (p.slice * 4).max(crate::stats::WINDOW);
    let mix = w.run(until, p.spans)?.summary()?;
    w.check()?;
    p.put("net.mix_ops_per_s", mix.ops_per_s, "1/s");
    p.put("net.mix_p50_us", mix.p50 / 1000.0, "us");
    p.put("net.mix_p99_us", mix.p99 / 1000.0, "us");
    p.put("net.reconnects_per_kreq", 1000.0 * w.reconnects() as f64 / w.requests as f64, "1/kreq");
    p.put("net.scrape_bytes_start", w.scrape_bytes_first as f64, "bytes");
    p.put("net.scrape_bytes_end", w.scrape_bytes_last as f64, "bytes");
    p.put("net.non2xx", (non2xx + w.non2xx) as f64, "count");
    Ok(())
}
