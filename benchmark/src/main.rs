//! The dfg repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from the seed, sets up several times
//! (reporting the median as `setup_s`), then measures closed-loop for the
//! given seconds, checking every output against an independent oracle.
//! With `--trace 0` the last line of standard output is a JSON object with
//! the end-to-end metrics; with `--trace 1` the run measures untraced for
//! half the time, then records spans from this benchmark's own code around
//! calls into each crate for the other half, runs the decomposed protocol
//! driver, writes the spans to `.bench_out/`, and reports per-layer
//! metrics. See `benchmark/README.md` for every metric and workload.

mod insitu;
mod layers;
mod oneshot;
mod oracle;
mod report;
mod serve;
mod stats;

use dfg_core::Strategy;

use crate::oneshot::Mode;
use crate::report::Metric;
use crate::stats::summarize;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

pub const WORKLOADS: [&str; 6] = [
    "paper_oneshot_roundtrip",
    "paper_oneshot_staged",
    "paper_oneshot_fusion",
    "paper_oneshot_streamed",
    "insitu_session",
    "serve_mixed",
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(15.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

impl Args {
    /// Seconds of the untraced phase: all of the run, or half of a traced
    /// run (the traced phase takes the other half).
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Build a workload's set-up `SETUPS` times, releasing each before the
/// next is built; returns the last one and each build's seconds.
pub fn set_up<S>(mut build: impl FnMut() -> S, mut release: impl FnMut(S)) -> (S, Vec<f64>) {
    let mut seconds = Vec::with_capacity(SETUPS);
    let mut last: Option<S> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = last.take() {
            release(previous);
        }
        let t = std::time::Instant::now();
        last = Some(build());
        seconds.push(t.elapsed().as_secs_f64());
    }
    (last.expect("SETUPS is at least one"), seconds)
}

/// The end-to-end metrics every workload reports, from its set-up times,
/// throughput and per-operation latencies (ms).
pub fn end_to_end(setup_s: &[f64], cells_per_s: f64, op_ms: &[f64], ops_per_s: f64) -> Vec<Metric> {
    let setup = summarize(setup_s);
    let latency = summarize(op_ms);
    vec![
        Metric::new("setup_s", "s", setup.median).with_summary(setup),
        Metric::new("cells_per_s", "1/s", cells_per_s),
        Metric::new("p50_ms", "ms", latency.median).with_summary(latency),
        Metric::new("p90_ms", "ms", latency.p90).with_summary(latency),
        Metric::new("ops_per_s", "1/s", ops_per_s),
        Metric::new("peak_rss_mib", "MiB", layers::peak_rss_mib()),
    ]
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let (outcome, trace) = match args.workload.as_str() {
        "paper_oneshot_roundtrip" => oneshot::run(Mode::Core(Strategy::Roundtrip), &args),
        "paper_oneshot_staged" => oneshot::run(Mode::Core(Strategy::Staged), &args),
        "paper_oneshot_fusion" => oneshot::run(Mode::Core(Strategy::Fusion), &args),
        "paper_oneshot_streamed" => oneshot::run(Mode::Streamed, &args),
        "insitu_session" => insitu::run(&args),
        "serve_mixed" => serve::run(&args),
        _ => unreachable!("parse_args accepts only listed workloads"),
    };
    if let Some(trace) = trace {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace.to_chrome_trace()))
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("spans written to {}", path.display());
    }
    outcome.print(&args.workload, args.trace);
}
