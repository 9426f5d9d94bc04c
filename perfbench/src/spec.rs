//! The three workloads: their parameters, their seeded inputs, and the
//! one job each runs. Everything the timed, traced and checking passes
//! execute goes through the functions here, so all three see exactly the
//! same calls into the library.

use gv_datasets::ecg::ecg_record;
use gv_timeseries::Interval;
use gva_core::obs::Recorder;
use gva_core::{
    Anomaly, DensityDetector, Detector, EngineConfig, PipelineConfig, Report, RraDetector,
    SeriesView, StreamingDetector, Workspace,
};

/// The seed whose per-unit results are recorded under `reference/`.
pub const DEFAULT_SEED: u64 = 1;
/// Input index of the untimed warm-up unit (never a measured unit).
pub const WARMUP_INDEX: u64 = u64::MAX;
/// Retained points of the streaming engine.
pub const STREAM_HORIZON: usize = 2_048;
/// The stream runs `detect` + `alerts` after every this many points.
pub const DETECT_EVERY: usize = 2_500;
/// Points per second the stream's open-loop schedule delivers: about
/// half of the engine's capacity when the benchmark was defined.
pub const STREAM_RATE: f64 = 100_000.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop: RRA top-3 then density top-3 on a 20k-point record.
    Batch,
    /// Closed loop: density top-3 on a 100k-point record.
    DensityLong,
    /// Open loop: a 120k-point stream pushed on a fixed schedule.
    Stream,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::Batch, Workload::DensityLong, Workload::Stream];

    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Batch => "batch",
            Workload::DensityLong => "density-long",
            Workload::Stream => "stream",
        }
    }

    /// SAX window, PAA size and alphabet size (Table 1's ECG settings;
    /// the stream uses its shorter beat).
    pub fn config(self) -> PipelineConfig {
        let window = match self {
            Workload::Batch | Workload::DensityLong => 300,
            Workload::Stream => 150,
        };
        PipelineConfig::new(window, 4, 4).expect("fixed, valid SAX parameters")
    }

    /// Points per input (one job's series, or one stream pass).
    pub fn input_len(self) -> usize {
        match self {
            Workload::Batch => 20_000,
            Workload::DensityLong => 100_000,
            Workload::Stream => 120_000,
        }
    }

    fn beat_len(self) -> usize {
        match self {
            Workload::Batch | Workload::DensityLong => 300,
            Workload::Stream => 150,
        }
    }

    fn planted_anomalies(self) -> usize {
        match self {
            Workload::Batch => 3,
            Workload::DensityLong => 5,
            Workload::Stream => 6,
        }
    }

    /// The `index`-th input of a run with `seed`: a synthetic ECG record
    /// whose generator seed mixes both, so every unit gets its own series.
    pub fn input(self, seed: u64, index: u64) -> Vec<f64> {
        let data = ecg_record(
            self.name(),
            self.input_len(),
            self.beat_len(),
            self.planted_anomalies(),
            mix(seed, index),
        );
        data.series.values().to_vec()
    }

    /// Top-k requested from the workload's detectors.
    pub fn k(self) -> usize {
        match self {
            Workload::Batch | Workload::DensityLong => BATCH_K,
            Workload::Stream => STREAM_K,
        }
    }

    /// What one result unit is called in the report (a job, or a detect).
    pub fn unit(self) -> &'static str {
        match self {
            Workload::Batch | Workload::DensityLong => "job",
            Workload::Stream => "detect",
        }
    }
}

/// SplitMix64 over `seed` and `index`: distinct, well-spread generator
/// seeds for every (run seed, input index) pair.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Top-k requested from the batch detectors.
pub const BATCH_K: usize = 3;
/// Top-k requested from the stream's RRA detect.
pub const STREAM_K: usize = 2;

/// The detectors and the one reused workspace a closed-loop job runs on.
pub struct BatchEngine {
    workload: Workload,
    rra: RraDetector,
    density: DensityDetector,
    ws: Workspace,
}

impl BatchEngine {
    /// The workload's detectors and a fresh workspace.
    pub fn new(workload: Workload) -> Self {
        let (rra, density) = detectors(workload);
        Self {
            workload,
            rra,
            density,
            ws: Workspace::new(),
        }
    }

    /// One job: `batch` runs RRA then density, `density-long` density
    /// only, both through the one workspace.
    pub fn job(&mut self, values: &[f64], recorder: &dyn Recorder) -> Result<Vec<Report>, String> {
        let view = SeriesView::new(values);
        let mut reports = Vec::with_capacity(2);
        if self.workload == Workload::Batch {
            let rra = self.rra.detect(&view, &mut self.ws, recorder);
            reports.push(rra.map_err(|e| format!("rra: {e}"))?);
        }
        let density = self.density.detect(&view, &mut self.ws, recorder);
        reports.push(density.map_err(|e| format!("density: {e}"))?);
        Ok(reports)
    }
}

/// The RRA and density detectors of `workload`, on the sequential engine.
pub fn detectors(workload: Workload) -> (RraDetector, DensityDetector) {
    let config = workload.config();
    let k = workload.k();
    (
        RraDetector::new(config.clone(), k).with_engine(EngineConfig::sequential()),
        DensityDetector::new(config, k),
    )
}

/// A fresh bounded streaming engine for one stream pass.
pub fn stream_engine<R: Recorder>(recorder: R) -> StreamingDetector<R> {
    StreamingDetector::with_recorder(Workload::Stream.config(), recorder)
        .with_horizon(STREAM_HORIZON)
}

/// The stream's RRA detector.
pub fn stream_rra() -> RraDetector {
    detectors(Workload::Stream).0
}

/// One stream "job": the periodic exact detect plus the alert scan for
/// density-0 runs at least two windows behind the stream head.
pub fn stream_detect<R: Recorder>(
    det: &mut StreamingDetector<R>,
    rra: &RraDetector,
) -> Result<(Report, Vec<Interval>), String> {
    let report = det.detect(rra).map_err(|e| format!("detect: {e}"))?;
    let maturity = 2 * det.config().window();
    Ok((report, det.alerts(0, maturity)))
}

/// Checks a closed-loop job's reports and renders them canonically.
pub fn job_output(reports: &[Report], series_len: usize) -> Result<String, String> {
    let mut parts = Vec::with_capacity(reports.len());
    for report in reports {
        check_report(report, BATCH_K, series_len)?;
        parts.push(canonical(report.detector, &report.anomalies));
    }
    Ok(parts.join(" "))
}

/// Checks a stream detect and renders it canonically (discords relative
/// to the retained horizon, alerts in absolute stream positions).
pub fn detect_output(
    report: &Report,
    alerts: &[Interval],
    horizon_len: usize,
    stream_len: usize,
) -> Result<String, String> {
    check_report(report, STREAM_K, horizon_len)?;
    if let Some(bad) = alerts
        .iter()
        .find(|iv| iv.is_empty() || iv.end > stream_len)
    {
        return Err(format!("alert {bad:?} outside the stream"));
    }
    let items: Vec<String> = alerts
        .iter()
        .map(|iv| format!("{}:{}", iv.start, iv.len()))
        .collect();
    Ok(format!(
        "{} alerts={}",
        canonical(report.detector, &report.anomalies),
        items.join(",")
    ))
}

/// `tag=start:len:scorebits,...` — positions, lengths and the exact bits
/// of every score, in rank order.
fn canonical(tag: &str, anomalies: &[Anomaly]) -> String {
    let items: Vec<String> = anomalies
        .iter()
        .map(|a| {
            format!(
                "{}:{}:{:016x}",
                a.interval.start,
                a.interval.len(),
                a.score.to_bits()
            )
        })
        .collect();
    format!("{tag}={}", items.join(","))
}

/// Structural sanity of a report, for any seed: `k` ranked anomalies,
/// each a non-empty interval inside the series with a finite score.
fn check_report(report: &Report, k: usize, series_len: usize) -> Result<(), String> {
    if report.anomalies.len() != k {
        return Err(format!(
            "{}: {} anomalies, expected {k}",
            report.detector,
            report.anomalies.len()
        ));
    }
    for (rank, a) in report.anomalies.iter().enumerate() {
        if a.rank != rank || a.interval.is_empty() || a.interval.end > series_len {
            return Err(format!("{}: malformed anomaly {a:?}", report.detector));
        }
        if !a.score.is_finite() {
            return Err(format!("{}: non-finite score {}", report.detector, a.score));
        }
    }
    Ok(())
}
