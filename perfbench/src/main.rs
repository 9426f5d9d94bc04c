//! The repository benchmark: three seeded workloads run end to end on one
//! thread, their outputs checked, and a separate traced pass that times
//! every layer from outside.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch|density-long|stream --seed N --seconds S --trace 0|1
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload W --record-reference UNITS > perfbench/reference/W.txt
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace
//! 1` runs the traced pass instead and reports the per-layer metrics. Both
//! run the output checks. The report is a table, then one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. The command exits 1 if
//! any check failed. `BENCHMARK.json` at the repository root names the
//! metrics; `perfbench/DESIGN.md` explains the workloads and what each
//! layer metric should move.

mod spec;
mod stats;
mod timed;
mod traced;
mod verify;

use std::process::ExitCode;

use spec::{Workload, DEFAULT_SEED};
use verify::{Outcome, Reference};

/// End-to-end metrics in the JSON line (every workload reports each).
const END_TO_END: [&str; 5] = [
    "setup_s",
    "job_p50_ms",
    "job_p90_ms",
    "throughput_pts_per_s",
    "peak_rss_mb",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut record = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--record-reference" => record = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        record,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(units) = args.record {
        return record_reference(args.workload, units);
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one benchmark invocation; `Ok(false)` when a check failed.
fn run(args: &Args) -> Result<bool, String> {
    let reference = Reference::for_workload(args.workload)?;
    let mut outcome = Outcome::default();
    let w = args.workload.name();
    let json = if args.trace {
        let (layers, reconciliation) = traced::run(args.workload, args.seed, args.seconds)?;
        verify::run_checks(args.workload, args.seed, &reference, &mut outcome);
        stats::print_table(&format!("{w} — per-layer (traced pass)"), &layers);
        stats::print_table(&format!("{w} — reconciliation"), &reconciliation);
        layers
    } else {
        let rows = timed::run(
            args.workload,
            args.seed,
            args.seconds,
            &reference,
            &mut outcome,
        )?;
        stats::print_table(&format!("{w} — end to end (tracing off)"), &rows);
        rows.into_iter()
            .filter(|m| END_TO_END.contains(&m.name.as_str()))
            .collect()
    };
    for msg in &outcome.messages {
        println!("FAILED {msg}");
    }
    let finite = json.iter().all(|m| m.value.is_finite());
    let correct = outcome.failed == 0 && finite;
    println!(
        "checks: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    println!(
        "{}",
        stats::json_line(correct, outcome.attempted.max(1), outcome.failed, &json)
    );
    Ok(correct)
}

/// Prints the canonical result of the first `units` units of the default
/// seed (jobs, or stream passes) in the reference file format.
fn record_reference(workload: Workload, units: usize) -> ExitCode {
    println!(
        "# {} reference: seed {DEFAULT_SEED}, one line per {} (key, then canonical result)",
        workload.name(),
        workload.unit()
    );
    match workload {
        Workload::Stream => {
            for pass in 0..units as u64 {
                let values = workload.input(DEFAULT_SEED, pass);
                for (detect, result) in verify::stream_results(&values).into_iter().enumerate() {
                    match result {
                        Ok(line) => println!("{} {line}", verify::stream_key(pass, detect)),
                        Err(e) => {
                            eprintln!("perfbench: pass {pass} detect {detect}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
            }
        }
        _ => {
            let mut engine = spec::BatchEngine::new(workload);
            for job in 0..units as u64 {
                let values = workload.input(DEFAULT_SEED, job);
                match verify::job_result(&mut engine, &values) {
                    Ok(line) => println!("{job} {line}"),
                    Err(e) => {
                        eprintln!("perfbench: job {job}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }
    ExitCode::SUCCESS
}
