//! Load benchmark of the gtlb runtime: closed-loop workloads on the
//! public API, each checked for correct output, with end-to-end metrics
//! from an untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dispatch --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See `perfbench/README.md` for the workloads and the metrics.

mod http;
mod inputs;
mod probes;
mod prom;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use probes::Metric;
use spans::Spans;
use stats::{median_of, Tally};
use workloads::{closed_loop::ClosedLoop, dispatch::Dispatch, republish::Republish, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Spans a traced run keeps before counting the rest as dropped.
const SPAN_LIMIT: usize = 4_000_000;
/// Where traced runs write their spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_build/perfbench";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    probe: Option<String>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed =
        Args { workload: String::new(), seed: 0, seconds: 10, trace: false, probe: None };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--probe" => parsed.probe = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if parsed.probe.is_none() && !workloads::NAMES.contains(&parsed.workload.as_str()) {
        return Err(format!("--workload must be one of {}", workloads::NAMES.join(", ")));
    }
    if !(1..=600).contains(&parsed.seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    Ok(parsed)
}

/// What the last line of standard output reports. The run is correct
/// when no output check found a problem.
struct Report {
    tally: Tally,
    metrics: Vec<Metric>,
    problems: Vec<String>,
}

impl Report {
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.problems.is_empty(),
            self.tally.attempted,
            self.tally.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Minor page faults this process has taken so far.
fn minor_faults() -> u64 {
    // Field 10 of /proc/self/stat; the command name (field 2) may hold
    // spaces, so count from its closing parenthesis.
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            s.rsplit_once(')').and_then(|(_, rest)| rest.split_whitespace().nth(7)?.parse().ok())
        })
        .unwrap_or(0)
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The untraced run: set up `SETUP_REPEATS` times, then measure.
fn end_to_end<W: Workload>(args: &Args) -> Result<Report, String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut system = None;
    for _ in 0..SETUP_REPEATS {
        drop(system.take());
        let start = Instant::now();
        system = Some(W::setup(args.seed)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut w = system.expect("at least one set-up");
    let faults_before = minor_faults();
    let until = Instant::now() + Duration::from_secs(args.seconds);
    let timed = w.run(until, &mut Spans::disabled())?;
    let faults = minor_faults() - faults_before;
    let mut problems: Vec<String> = w.check().err().into_iter().collect();
    let (tally, samples) = (timed.tally, timed.samples());
    let summary = timed.summary()?;
    let metrics = vec![
        metric("setup_s", median_of(&setups), "s"),
        metric("ops_per_s", summary.ops_per_s, "1/s"),
        metric("op_ns_p50", summary.p50, "ns"),
        metric("op_ns_p99", summary.p99, "ns"),
        metric("rss_mb", peak_rss_mb()?, "MB"),
    ];
    eprintln!(
        "{}: {samples} samples in {} windows (drift {:.3}), {} ops, fail ratio {}, \
         {faults} minor faults, setups {setups:.4?} s",
        args.workload,
        summary.windows,
        summary.drift,
        tally.attempted,
        tally.fail_ratio()
    );
    if tally.failed > 0 {
        problems.push(format!("{} of {} ops failed", tally.failed, tally.attempted));
    }
    Ok(Report { tally, metrics, problems })
}

/// The traced run: the workload untraced and then traced for a fifth of
/// the time each, but at least one window (the ratio of their median op
/// times is the tracing overhead), then every per-layer probe. Spans go
/// to `TRACE_DIR`.
fn traced<W: Workload>(args: &Args) -> Result<Report, String> {
    let origin = Instant::now();
    let phase = (Duration::from_secs(args.seconds) / 5).max(stats::WINDOW);
    let mut w = W::setup(args.seed)?;
    let plain = w.run(Instant::now() + phase, &mut Spans::disabled())?;
    let mut spans = Spans::enabled(origin, 0, SPAN_LIMIT);
    let with_spans = w.run(Instant::now() + phase, &mut spans)?;
    let mut problems: Vec<String> = w.check().err().into_iter().collect();
    drop(w);
    let mut tally = plain.tally;
    tally.add(with_spans.tally.attempted, with_spans.tally.failed);
    if tally.failed > 0 {
        problems.push(format!("{} of {} ops failed", tally.failed, tally.attempted));
    }
    let overhead = with_spans.summary()?.p50 / plain.summary()?.p50;

    let mut metrics =
        probes::run_all(args.seed, Duration::from_secs(args.seconds) / 2, &mut spans)?;
    metrics.push(metric("trace.overhead_ratio", overhead, "ratio"));
    metrics.push(metric("trace.spans", spans.len() as f64, "count"));
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| e.to_string())?;
    let path = format!("{TRACE_DIR}/trace-{}-seed{}.json", args.workload, args.seed);
    std::fs::write(&path, spans.to_json(&args.workload, args.seed)).map_err(|e| e.to_string())?;
    eprintln!(
        "{}: {} spans written to {path} ({} dropped)",
        args.workload,
        spans.len(),
        spans.dropped()
    );
    for (name, t) in spans.totals() {
        eprintln!("  {name:32} {:>9} spans {:>12.1} us self", t.count, t.self_ns as f64 / 1e3);
    }
    Ok(Report { tally, metrics, problems })
}

fn run(args: &Args) -> Result<Report, String> {
    macro_rules! pick {
        ($w:ty) => {
            if args.trace {
                traced::<$w>(args)
            } else {
                end_to_end::<$w>(args)
            }
        };
    }
    match args.workload.as_str() {
        "dispatch" => pick!(Dispatch),
        "republish" => pick!(Republish),
        "closed_loop" => pick!(ClosedLoop),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Some(probe) = &args.probe {
        // A child launch of the traced run's contended probe.
        return match probe.as_str() {
            "contended" => match probes::contended_submit_ns(args.seed) {
                Ok(v) => {
                    println!("{v}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            },
            other => {
                eprintln!("perfbench: unknown probe {other}");
                ExitCode::from(2)
            }
        };
    }
    let report = match run(&args) {
        Ok(mut r) => {
            if r.metrics.iter().any(|m| !m.value.is_finite()) {
                r.problems.push("a metric is not finite".into());
                r.metrics.retain(|m| m.value.is_finite());
            }
            r
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &report.metrics {
        eprintln!("  {:32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for p in &report.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{}", report.json());
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_arguments() {
        let a = args(&["--workload", "republish", "--seed", "7", "--seconds", "3", "--trace", "1"]);
        assert_eq!(
            a,
            Ok(Args {
                workload: "republish".into(),
                seed: 7,
                seconds: 3,
                trace: true,
                probe: None
            })
        );
        assert!(args(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(args(&["--workload", "batch", "--seed", "1"]).is_err());
        assert!(args(&["--workload", "dispatch", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "dispatch", "--seed"]).is_err());
    }

    #[test]
    fn report_is_one_json_line() {
        let r = Report {
            tally: Tally { attempted: 3, failed: 0 },
            metrics: vec![metric("setup_s", 0.5, "s"), metric("op_ns_p50", 41.25, "ns")],
            problems: Vec::new(),
        };
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.5, \"unit\": \"s\"}, \"op_ns_p50\": {\"value\": 41.25, \"unit\": \"ns\"}}}"
        );
    }
}
