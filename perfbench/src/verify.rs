//! Output checks. Every unit's result is checked for shape as it is
//! produced; for the default seed it must also equal the reference
//! recorded under `reference/`, and every run — whatever its seed —
//! replays the first reference units and runs gv-check's RRA-vs-brute
//! and streaming differentials once, outside the timed phase.

use std::collections::BTreeMap;

use gva_core::obs::NoopRecorder;

use crate::spec::{self, BatchEngine, Workload, DEFAULT_SEED, DETECT_EVERY, STREAM_HORIZON};

/// Reference units replayed on every run, whatever its seed.
const REPLAY_UNITS: usize = 2;
/// The differentials run on (at most) this many points of the run's
/// first input: brute force is quadratic in the candidate count.
const DIFF_LEN: usize = 20_000;
/// Failure messages kept for the report.
const MAX_MESSAGES: usize = 16;

/// Checks attempted and failed in one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Outcome {
    /// Counts one checked unit; an error counts as a failure.
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.messages.len() < MAX_MESSAGES {
                self.messages.push(format!("{what}: {e}"));
            }
        }
    }
}

/// The recorded results of the default seed, keyed by unit (`job` for
/// the closed loops, `pass.detect` for the stream).
pub struct Reference {
    units: BTreeMap<String, String>,
}

impl Reference {
    /// The reference compiled in for `workload`.
    pub fn for_workload(workload: Workload) -> Result<Self, String> {
        let text = match workload {
            Workload::Batch => include_str!("../reference/batch.txt"),
            Workload::DensityLong => include_str!("../reference/density-long.txt"),
            Workload::Stream => include_str!("../reference/stream.txt"),
        };
        let mut units = BTreeMap::new();
        for line in text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed reference line {line:?}"))?;
            units.insert(key.to_string(), value.to_string());
        }
        Ok(Self { units })
    }

    /// Compares a default-seed unit with its recorded result; units past
    /// the recorded range pass unchecked unless `required`.
    pub fn compare(&self, key: &str, actual: &str, required: bool) -> Result<(), String> {
        match self.units.get(key) {
            Some(expected) if expected == actual => Ok(()),
            Some(expected) => Err(format!("expected {expected}, got {actual}")),
            None if required => Err("no recorded reference".to_string()),
            None => Ok(()),
        }
    }
}

/// Key of detect `detect` in stream pass `pass`.
pub fn stream_key(pass: u64, detect: usize) -> String {
    format!("{pass}.{detect}")
}

/// Runs one closed-loop job and renders its checked canonical result.
pub fn job_result(engine: &mut BatchEngine, values: &[f64]) -> Result<String, String> {
    let reports = engine.job(values, &NoopRecorder)?;
    spec::job_output(&reports, values.len())
}

/// Streams `values` through a fresh engine without a schedule, returning
/// the checked canonical result of every periodic detect.
pub fn stream_results(values: &[f64]) -> Vec<Result<String, String>> {
    let mut det = spec::stream_engine(NoopRecorder);
    let rra = spec::stream_rra();
    let mut out = Vec::new();
    for (i, &v) in values.iter().enumerate() {
        if let Err(e) = det.push(v) {
            out.push(Err(format!("push {i}: {e}")));
            return out;
        }
        if (i + 1) % DETECT_EVERY == 0 {
            out.push(
                spec::stream_detect(&mut det, &rra).and_then(|(report, alerts)| {
                    spec::detect_output(&report, &alerts, det.values().len(), i + 1)
                }),
            );
        }
    }
    out
}

/// The untimed checks every run makes: the reference replay and the two
/// gv-check differentials on this run's first input.
pub fn run_checks(workload: Workload, seed: u64, reference: &Reference, outcome: &mut Outcome) {
    match workload {
        Workload::Batch | Workload::DensityLong => {
            let mut engine = BatchEngine::new(workload);
            for job in 0..REPLAY_UNITS {
                let values = workload.input(DEFAULT_SEED, job as u64);
                let key = job.to_string();
                let result = job_result(&mut engine, &values)
                    .and_then(|actual| reference.compare(&key, &actual, true));
                outcome.record(&format!("reference replay of job {key}"), result);
            }
        }
        Workload::Stream => {
            let values = workload.input(DEFAULT_SEED, 0);
            for (detect, result) in stream_results(&values).into_iter().enumerate() {
                let key = stream_key(0, detect);
                let result = result.and_then(|actual| reference.compare(&key, &actual, true));
                outcome.record(&format!("reference replay of detect {key}"), result);
            }
        }
    }
    let values = workload.input(seed, 0);
    let prefix = &values[..values.len().min(DIFF_LEN)];
    let config = workload.config();
    let k = workload.k();
    let rra = gv_check::check_series(prefix, &config, k, 1);
    outcome.record("RRA-vs-brute differential", verdict(rra));
    let stream = gv_check::check_streaming(prefix, &config, k, 1, STREAM_HORIZON);
    outcome.record("streaming differential", verdict(stream));
}

fn verdict(report: gva_core::Result<gv_check::CheckReport>) -> Result<(), String> {
    match report {
        Ok(r) if r.passed() => Ok(()),
        Ok(r) => Err(r.render()),
        Err(e) => Err(e.to_string()),
    }
}
