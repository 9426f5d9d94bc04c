//! The untimed set-up and the timed end-to-end phase, with tracing off
//! (every library call gets a `NoopRecorder`).

use std::hint::black_box;
use std::time::{Duration, Instant};

use gva_core::obs::NoopRecorder;

use crate::spec::{
    self, BatchEngine, Workload, DEFAULT_SEED, DETECT_EVERY, STREAM_RATE, WARMUP_INDEX,
};
use crate::stats::{self, median, ns_since, quantile, Metric, NsHistogram};
use crate::verify::{self, Outcome, Reference};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 8;
/// A closed-loop run keeps going past `--seconds` until it has this many
/// jobs, so that p90 has at least ten samples beyond it.
const MIN_JOBS: usize = 100;
/// Hard stop for the timed phase, whatever the job count.
const MAX_PHASE: Duration = Duration::from_secs(120);
/// Warm-up stream points (three detect cycles).
const WARMUP_POINTS: usize = 3 * DETECT_EVERY;

/// One set-up of a closed-loop workload: the warm-up input, detectors
/// and workspace, and one untimed warm-up job.
pub fn setup_batch(workload: Workload, seed: u64) -> Result<BatchEngine, String> {
    let values = workload.input(seed, WARMUP_INDEX);
    let mut engine = BatchEngine::new(workload);
    engine.job(&values, &NoopRecorder)?;
    Ok(engine)
}

/// One set-up of the stream: the warm-up stream, an engine, and an
/// unscheduled warm-up through three detect cycles.
pub fn setup_stream(seed: u64) -> Result<(), String> {
    let values = Workload::Stream.input(seed, WARMUP_INDEX);
    let mut det = spec::stream_engine(NoopRecorder);
    let rra = spec::stream_rra();
    for (i, &v) in values[..WARMUP_POINTS].iter().enumerate() {
        det.push(v).map_err(|e| e.to_string())?;
        if (i + 1) % DETECT_EVERY == 0 {
            black_box(spec::stream_detect(&mut det, &rra)?);
        }
    }
    Ok(())
}

/// The run's set-ups: one before the timed phase, the rest spread evenly
/// through it (between jobs or passes, outside every timed unit), so that
/// `setup_s` samples the machine over the whole run, not one moment.
struct Setups {
    workload: Workload,
    seed: u64,
    budget: Duration,
    secs: Vec<f64>,
}

impl Setups {
    /// Times one set-up; returns its engine (closed loops only).
    fn once(&mut self) -> Result<Option<BatchEngine>, String> {
        let t = Instant::now();
        let engine = match self.workload {
            Workload::Stream => {
                setup_stream(self.seed)?;
                None
            }
            _ => Some(setup_batch(self.workload, self.seed)?),
        };
        self.secs.push(t.elapsed().as_secs_f64());
        Ok(engine)
    }

    /// Runs the next spread-out set-up once the timed phase is far enough
    /// along.
    fn maybe(&mut self, elapsed: Duration) -> Result<(), String> {
        let next = self.secs.len();
        if next < SETUP_REPS && elapsed >= self.budget.mul_f64(next as f64 / SETUP_REPS as f64) {
            self.once()?;
        }
        Ok(())
    }

    /// Completes the [`SETUP_REPS`] set-ups and reports their median.
    fn finish(mut self) -> Result<Metric, String> {
        while self.secs.len() < SETUP_REPS {
            self.once()?;
        }
        let n = self.secs.len();
        Ok(Metric::new("setup_s", "s", median(&mut self.secs), n))
    }
}

/// Runs the end-to-end phase of `workload` and its checks.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    reference: &Reference,
    outcome: &mut Outcome,
) -> Result<Vec<Metric>, String> {
    let budget = Duration::from_secs_f64(seconds);
    let mut setups = Setups {
        workload,
        seed,
        budget,
        secs: Vec::with_capacity(SETUP_REPS),
    };
    let mut rows = match setups.once()? {
        Some(engine) => closed_loop(
            workload,
            engine,
            seed,
            budget,
            &mut setups,
            reference,
            outcome,
        )?,
        None => open_loop(seed, budget, &mut setups, reference, outcome)?,
    };
    rows.insert(0, setups.finish()?);
    verify::run_checks(workload, seed, reference, outcome);
    rows.push(Metric::new(
        "failed_frac",
        "ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.attempted as usize,
    ));
    Ok(rows)
}

fn closed_loop(
    workload: Workload,
    mut engine: BatchEngine,
    seed: u64,
    budget: Duration,
    setups: &mut Setups,
    reference: &Reference,
    outcome: &mut Outcome,
) -> Result<Vec<Metric>, String> {
    let phase = Instant::now();
    let mut job_ms = Vec::new();
    let mut busy_ns = 0u64;
    let mut points = 0usize;
    let mut job = 0u64;
    while (phase.elapsed() < budget || job_ms.len() < MIN_JOBS) && phase.elapsed() < MAX_PHASE {
        setups.maybe(phase.elapsed())?;
        // The series is in memory before the clock starts.
        let values = workload.input(seed, job);
        let t = Instant::now();
        let result = engine.job(black_box(&values), &NoopRecorder);
        let ns = ns_since(t);
        busy_ns += ns;
        points += values.len();
        job_ms.push(ns as f64 / 1e6);
        let checked = result.and_then(|reports| spec::job_output(&reports, values.len()));
        let key = job.to_string();
        let checked = match checked {
            Ok(actual) if seed == DEFAULT_SEED => reference.compare(&key, &actual, false),
            Ok(_) => Ok(()),
            Err(e) => Err(e),
        };
        outcome.record(&format!("job {key}"), checked);
        job += 1;
    }
    let rss = stats::peak_rss_mb().unwrap_or(f64::NAN);
    let n = job_ms.len();
    Ok(vec![
        Metric::new("job_p50_ms", "ms", quantile(&mut job_ms, 0.5), n),
        Metric::new("job_p90_ms", "ms", quantile(&mut job_ms, 0.9), n),
        Metric::new(
            "throughput_pts_per_s",
            "1/s",
            points as f64 / (busy_ns as f64 / 1e9),
            n,
        ),
        Metric::new("peak_rss_mb", "MiB", rss, 1),
    ])
}

fn open_loop(
    seed: u64,
    budget: Duration,
    setups: &mut Setups,
    reference: &Reference,
    outcome: &mut Outcome,
) -> Result<Vec<Metric>, String> {
    let rra = spec::stream_rra();
    let period = 1e9 / STREAM_RATE;
    let phase = Instant::now();
    let mut push_ns = NsHistogram::new();
    let mut lag_ns = NsHistogram::new();
    let mut detect_ms = Vec::new();
    let mut busy_ns = 0u64;
    let mut late_starts = 0usize;
    let mut pass = 0u64;
    while phase.elapsed() < budget && phase.elapsed() < MAX_PHASE {
        setups.maybe(phase.elapsed())?;
        let values = Workload::Stream.input(seed, pass);
        let mut det = spec::stream_engine(NoopRecorder);
        let mut results = Vec::with_capacity(values.len() / DETECT_EVERY);
        // Points fall due on a fixed schedule from here on; a point that
        // waits behind a slow push or detect keeps its due time.
        let t0 = Instant::now() + Duration::from_micros(100);
        for (i, &v) in values.iter().enumerate() {
            let due = t0 + Duration::from_nanos((i as f64 * period) as u64);
            let mut now = Instant::now();
            if now < due {
                while now < due {
                    std::hint::spin_loop();
                    now = Instant::now();
                }
            } else if now - due > Duration::from_micros(1) {
                late_starts += 1;
            }
            let pushed = det.push(black_box(v));
            let done = Instant::now();
            let service = (done - now).as_nanos() as u64;
            busy_ns += service;
            push_ns.record(service);
            lag_ns.record((done - due).as_nanos() as u64);
            if let Err(e) = pushed {
                outcome.record(&format!("push {pass}.{i}"), Err(e.to_string()));
                break;
            }
            if (i + 1) % DETECT_EVERY == 0 {
                let detected = spec::stream_detect(&mut det, &rra);
                let ns = ns_since(done);
                busy_ns += ns;
                detect_ms.push(ns as f64 / 1e6);
                results.push((i + 1, det.values().len(), detected));
            }
        }
        for (d, (stream_len, horizon_len, detected)) in results.into_iter().enumerate() {
            let key = verify::stream_key(pass, d);
            let checked = detected.and_then(|(report, alerts)| {
                spec::detect_output(&report, &alerts, horizon_len, stream_len)
            });
            let checked = match checked {
                Ok(actual) if seed == DEFAULT_SEED => reference.compare(&key, &actual, false),
                Ok(_) => Ok(()),
                Err(e) => Err(e),
            };
            outcome.record(&format!("detect {key}"), checked);
        }
        pass += 1;
    }
    let rss = stats::peak_rss_mb().unwrap_or(f64::NAN);
    let points = push_ns.total() as usize;
    let n = detect_ms.len();
    Ok(vec![
        Metric::new("job_p50_ms", "ms", quantile(&mut detect_ms, 0.5), n),
        Metric::new("job_p90_ms", "ms", quantile(&mut detect_ms, 0.9), n),
        Metric::new(
            "throughput_pts_per_s",
            "1/s",
            points as f64 / (busy_ns as f64 / 1e9),
            points,
        ),
        Metric::new("peak_rss_mb", "MiB", rss, 1),
        Metric::new("push_p50_us", "us", push_ns.quantile(0.5) / 1e3, points),
        Metric::new("push_p99_us", "us", push_ns.quantile(0.99) / 1e3, points),
        Metric::new("detect_p50_ms", "ms", quantile(&mut detect_ms, 0.5), n),
        Metric::new("lag_p99_ms", "ms", lag_ns.quantile(0.99) / 1e6, points),
        Metric::new(
            "late_start_frac",
            "ratio",
            late_starts as f64 / points.max(1) as f64,
            points,
        ),
    ])
}
