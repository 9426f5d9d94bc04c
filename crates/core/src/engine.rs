//! The execution-engine layer: one [`Detector`] interface over all four
//! detection algorithms (RRA, rule-density, brute force, HOTSAX), plus the
//! [`EngineConfig`] threading knob.
//!
//! Everything downstream — `AnomalyPipeline`, `StreamingDetector`, the
//! parameter sweep, the CLI, and the bench binaries — dispatches detection
//! through this trait instead of four ad-hoc call paths. A detector is a
//! small config-carrying value; the mutable state lives in the caller's
//! [`Workspace`], so repeated detection reuses scratch buffers, and the
//! same detector value can run on many workspaces concurrently.
//!
//! ## Threading and determinism
//!
//! [`EngineConfig::threads`] shards the RRA outer loop across scoped
//! worker threads (`std::thread::scope`, no extra dependencies). The
//! ranked discords are **bit-identical for any thread count** — see the
//! `rra` module docs for the argument; only the reported cost counters
//! vary. `EngineConfig::default()` reads the `GV_THREADS` environment
//! variable (missing or invalid → 1), which is how CI runs the whole
//! suite both sequentially and parallel.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use gv_discord::{
    brute_force_discords_in, hotsax_discords_in, DiscordRecord, HotSaxConfig, SearchStats,
};
use gv_obs::{Counter, Recorder, SpanId, SpanTimer, Stage};
use gv_sax::SaxRecord;
use gv_timeseries::Interval;

use crate::config::PipelineConfig;
use crate::density::{DensityReport, RuleDensity};
use crate::error::{Error, Result};
use crate::intervals::rule_intervals_into;
use crate::model::GrammarModel;
use crate::rra::{self, RraReport, SearchOptions};
use crate::workspace::Workspace;

/// Environment variable consulted by [`EngineConfig::default`] for the
/// worker-thread count.
pub const THREADS_ENV: &str = "GV_THREADS";

/// Execution knobs shared by every detector dispatched through the
/// engine: currently the RRA worker-thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    threads: usize,
}

impl EngineConfig {
    /// A sequential engine (one thread), ignoring the environment.
    pub fn sequential() -> Self {
        Self { threads: 1 }
    }

    /// Reads the thread count from [`THREADS_ENV`]; missing, empty, or
    /// unparsable values mean sequential.
    pub fn from_env() -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or(1);
        Self { threads }
    }

    /// Overrides the worker-thread count (minimum 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::from_env()
    }
}

/// Source of [`SeriesView`] ids: one process-wide counter, so no two
/// constructions ever share an id.
static NEXT_VIEW_ID: AtomicU64 = AtomicU64::new(0);

/// An immutable view of the series under analysis — the shared input every
/// detector reads and none may mutate.
///
/// Every construction ([`new`](SeriesView::new),
/// [`try_new`](SeriesView::try_new), `From`) mints a process-unique id;
/// copies share it. The view borrows its slice immutably for its whole
/// lifetime, so one id always names one unchanged series — which is what
/// lets a [`Workspace`] reuse the model it built for a view when a second
/// detector runs on the same view.
#[derive(Debug, Clone, Copy)]
pub struct SeriesView<'a> {
    values: &'a [f64],
    id: u64,
    words: Option<Discretized<'a>>,
}

/// Kept SAX records of a view's values that a model build may take
/// instead of discretizing them: the streaming detector's records over
/// its horizon (see [`Workspace`]'s module docs for when they are exact).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Discretized<'a> {
    /// The configuration the records were discretized under.
    pub(crate) config: &'a PipelineConfig,
    /// Kept records in offset order, offsets absolute.
    pub(crate) records: &'a VecDeque<SaxRecord>,
    /// Absolute offset of the view's first value.
    pub(crate) origin: usize,
}

impl Discretized<'_> {
    /// The records after the view's first window, rebased to the view.
    pub(crate) fn after_first(&self) -> impl Iterator<Item = SaxRecord> + '_ {
        let origin = self.origin;
        self.records
            .iter()
            .skip_while(move |rec| rec.offset <= origin)
            .map(move |rec| SaxRecord {
                word: rec.word.clone(),
                offset: rec.offset - origin,
            })
    }
}

impl<'a> SeriesView<'a> {
    /// Wraps a raw series.
    ///
    /// No validation is performed here (the constructor is infallible for
    /// ergonomics); every detector validates finiteness on entry. Use
    /// [`SeriesView::try_new`] to surface the error at construction time.
    pub fn new(values: &'a [f64]) -> Self {
        Self {
            values,
            id: NEXT_VIEW_ID.fetch_add(1, Ordering::Relaxed),
            words: None,
        }
    }

    /// A view that also carries `words`, the kept records of `values`.
    pub(crate) fn with_words(values: &'a [f64], words: Discretized<'a>) -> Self {
        Self {
            words: Some(words),
            ..Self::new(values)
        }
    }

    /// Wraps a raw series, rejecting NaN/±∞ values up front.
    ///
    /// # Errors
    /// [`crate::Error::NonFiniteInput`] naming the first offending index.
    pub fn try_new(values: &'a [f64]) -> Result<Self> {
        check_finite(values)?;
        Ok(Self::new(values))
    }

    /// The underlying values.
    pub fn values(&self) -> &'a [f64] {
        self.values
    }

    /// This view's process-unique id: shared by copies, never by two
    /// constructions (even over the same slice).
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// The kept records this view carries, if any.
    pub(crate) fn words(&self) -> Option<Discretized<'a>> {
        self.words
    }

    /// Series length.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` for an empty series.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl<'a> From<&'a [f64]> for SeriesView<'a> {
    fn from(values: &'a [f64]) -> Self {
        Self::new(values)
    }
}

/// Rejects series containing NaN/±∞ with [`Error::NonFiniteInput`].
///
/// Called on every detection entry point: non-finite values would
/// otherwise poison z-normalization, every distance, and the parallel
/// AtomicU64 ranking bound (where NaN bit patterns compare as ordinary
/// integers).
pub(crate) fn check_finite(values: &[f64]) -> Result<()> {
    match gv_timeseries::find_non_finite(values) {
        Some(index) => Err(Error::NonFiniteInput { index }),
        None => Ok(()),
    }
}

/// Rejects `k = 0` discord requests with [`Error::InvalidParameter`] —
/// "top zero anomalies" is a caller bug, not an empty result.
pub(crate) fn check_k(k: usize) -> Result<()> {
    if k == 0 {
        return Err(Error::InvalidParameter(
            "k = 0: at least one discord must be requested".into(),
        ));
    }
    Ok(())
}

/// One detected anomaly in the unified report: the covered interval, the
/// detector's score (NN distance for the discord searches, minimum rule
/// density for the density detector), and the rank (0 = strongest).
#[derive(Debug, Clone, PartialEq)]
pub struct Anomaly {
    /// The anomalous subsequence.
    pub interval: Interval,
    /// Detector-specific strength (higher = more anomalous for distance
    /// scores; for density the score is the density floor — lower is more
    /// anomalous — kept as reported).
    pub score: f64,
    /// 0-based rank, strongest first.
    pub rank: usize,
}

/// Detector-specific payload a [`Report`] may carry beyond the unified
/// anomaly list.
#[derive(Debug, Clone, Default)]
pub enum Detail {
    /// Nothing beyond the unified fields.
    #[default]
    None,
    /// The full rule-density report (curve + ranked minima).
    Density(DensityReport),
}

/// The unified detection result every [`Detector`] returns.
#[derive(Debug, Clone)]
pub struct Report {
    /// Which detector produced this ([`Detector::name`]).
    pub detector: &'static str,
    /// Ranked anomalies, strongest first.
    pub anomalies: Vec<Anomaly>,
    /// Distance-call accounting (all-zero for the density detector,
    /// which performs no distance computation).
    pub stats: SearchStats,
    /// How many candidates the detector considered.
    pub num_candidates: usize,
    /// Grammar size of the induced model (0 for the grammar-free
    /// baselines).
    pub grammar_size: usize,
    /// Detector-specific payload.
    pub detail: Detail,
}

impl Report {
    /// Re-views the unified anomalies as the RRA-shaped report (discord
    /// records), for callers and renderers built around [`RraReport`].
    pub fn to_rra(&self) -> RraReport {
        RraReport {
            discords: self
                .anomalies
                .iter()
                .map(|a| DiscordRecord {
                    position: a.interval.start,
                    length: a.interval.len(),
                    distance: a.score,
                    rank: a.rank,
                })
                .collect(),
            stats: self.stats,
            num_candidates: self.num_candidates,
        }
    }

    /// The density payload, when this report came from the density
    /// detector.
    pub fn density(&self) -> Option<&DensityReport> {
        match &self.detail {
            Detail::Density(report) => Some(report),
            Detail::None => None,
        }
    }
}

/// The unified detection interface: read-only series in, workspace for
/// scratch, recorder for instrumentation, unified [`Report`] out.
///
/// Object-safe on purpose — call sites that pick a detector at runtime
/// (the CLI, agreement tests, ensembles) hold `Box<dyn Detector>` /
/// `&dyn Detector` values.
pub trait Detector {
    /// Stable detector name (used in reports, traces, and JSONL labels).
    fn name(&self) -> &'static str;

    /// Runs detection on `series` using `ws` for every scratch buffer,
    /// publishing instrumentation to `recorder`.
    ///
    /// # Errors
    /// Detector-specific: discretization errors, no candidates, invalid
    /// baseline parameters.
    fn detect(
        &self,
        series: &SeriesView<'_>,
        ws: &mut Workspace,
        recorder: &dyn Recorder,
    ) -> Result<Report>;
}

/// The paper's §4.2 Rare Rule Anomaly detector behind the [`Detector`]
/// interface: grammar induction + the (optionally parallel) Algorithm 1
/// search.
#[derive(Debug, Clone)]
pub struct RraDetector {
    config: PipelineConfig,
    k: usize,
    options: SearchOptions,
    engine: EngineConfig,
}

impl RraDetector {
    /// RRA with the default search options and engine (thread count from
    /// the environment).
    pub fn new(config: PipelineConfig, k: usize) -> Self {
        Self {
            config,
            k,
            options: SearchOptions::default(),
            engine: EngineConfig::default(),
        }
    }

    /// Overrides the engine (thread count).
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Overrides the ablation switches.
    pub fn with_options(mut self, options: SearchOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs the search stage against an already-built model (the pipeline
    /// and explain paths build the model once and keep it). Applies the
    /// same boundary filter as [`rra::discords_with`].
    ///
    /// # Errors
    /// [`crate::Error::NoCandidates`] when the grammar yields fewer than
    /// two candidates.
    pub fn search_model(
        &self,
        values: &[f64],
        model: &GrammarModel,
        ws: &mut Workspace,
        recorder: &dyn Recorder,
    ) -> Result<RraReport> {
        self.search_model_under(values, model, ws, recorder, None)
    }

    /// [`RraDetector::search_model`] with the search spans grafted under
    /// `parent` in the recorder's span tree; `None` leaves `rra-outer` as
    /// a root span.
    pub(crate) fn search_model_under(
        &self,
        values: &[f64],
        model: &GrammarModel,
        ws: &mut Workspace,
        recorder: &dyn Recorder,
        parent: Option<SpanId>,
    ) -> Result<RraReport> {
        let Workspace {
            candidates, rra, ..
        } = ws;
        rule_intervals_into(model, candidates);
        let len = model.series_len;
        candidates.retain(|c| c.rule.is_some() || (c.interval.start > 0 && c.interval.end < len));
        rra::search_in(
            values,
            candidates,
            self.k,
            self.config.seed(),
            self.options,
            self.engine.threads(),
            rra,
            &recorder,
            parent,
        )
    }
}

impl Detector for RraDetector {
    fn name(&self) -> &'static str {
        "rra"
    }

    fn detect(
        &self,
        series: &SeriesView<'_>,
        ws: &mut Workspace,
        recorder: &dyn Recorder,
    ) -> Result<Report> {
        check_k(self.k)?;
        let root = SpanTimer::start(&recorder, None, Stage::Detect);
        let (searched, grammar_size) =
            ws.with_model(&self.config, series, &recorder, root.span(), |model, ws| {
                let searched =
                    self.search_model_under(series.values(), model, ws, recorder, root.span());
                (searched, model.grammar.grammar_size())
            })?;
        root.finish(&recorder);
        let report = searched?;
        Ok(Report {
            detector: self.name(),
            anomalies: discords_to_anomalies(&report.discords),
            stats: report.stats,
            num_candidates: report.num_candidates,
            grammar_size,
            detail: Detail::None,
        })
    }
}

/// The paper's §4.1 rule-density detector behind the [`Detector`]
/// interface: grammar induction + the linear density-curve walk. Performs
/// no distance computation at all.
#[derive(Debug, Clone)]
pub struct DensityDetector {
    config: PipelineConfig,
    k: usize,
    trim_edge: Option<usize>,
}

impl DensityDetector {
    /// Density detection trimming boundary minima within one window of the
    /// series edges (the pipeline default).
    pub fn new(config: PipelineConfig, k: usize) -> Self {
        Self {
            config,
            k,
            trim_edge: None,
        }
    }

    /// Overrides the edge-trim margin (`0` keeps boundary minima — the
    /// sweep uses this to score raw hits).
    pub fn with_trim_edge(mut self, edge: usize) -> Self {
        self.trim_edge = Some(edge);
        self
    }

    /// Runs the density stage against an already-built model, for callers
    /// that build and keep the model themselves.
    pub fn report_model(&self, model: &GrammarModel, recorder: &dyn Recorder) -> DensityReport {
        self.report_model_under(model, recorder, None)
    }

    /// [`DensityDetector::report_model`] with the density span grafted
    /// under `parent` in the recorder's span tree.
    pub(crate) fn report_model_under(
        &self,
        model: &GrammarModel,
        recorder: &dyn Recorder,
        parent: Option<SpanId>,
    ) -> DensityReport {
        let edge = self.trim_edge.unwrap_or_else(|| self.config.window());
        let timer = SpanTimer::start(&recorder, parent, Stage::Density);
        let report = RuleDensity::from_model(model).report_trimmed(self.k, edge);
        timer.finish(&recorder);
        report
    }
}

impl Detector for DensityDetector {
    fn name(&self) -> &'static str {
        "density"
    }

    fn detect(
        &self,
        series: &SeriesView<'_>,
        ws: &mut Workspace,
        recorder: &dyn Recorder,
    ) -> Result<Report> {
        check_k(self.k)?;
        let root = SpanTimer::start(&recorder, None, Stage::Detect);
        let (report, grammar_size, num_candidates) =
            ws.with_model(&self.config, series, &recorder, root.span(), |model, _| {
                let report = self.report_model_under(model, recorder, root.span());
                (report, model.grammar.grammar_size(), model.series_len)
            })?;
        root.finish(&recorder);
        let anomalies = report
            .anomalies
            .iter()
            .enumerate()
            .map(|(rank, a)| Anomaly {
                interval: a.interval,
                score: a.min_density as f64,
                rank,
            })
            .collect();
        Ok(Report {
            detector: self.name(),
            anomalies,
            stats: SearchStats::default(),
            num_candidates,
            grammar_size,
            detail: Detail::Density(report),
        })
    }
}

/// The §6 brute-force fixed-length baseline behind the [`Detector`]
/// interface.
#[derive(Debug, Clone)]
pub struct BruteForceDetector {
    discord_len: usize,
    k: usize,
}

impl BruteForceDetector {
    /// Exhaustive search for `k` discords of length `discord_len`.
    pub fn new(discord_len: usize, k: usize) -> Self {
        Self { discord_len, k }
    }
}

impl Detector for BruteForceDetector {
    fn name(&self) -> &'static str {
        "brute"
    }

    fn detect(
        &self,
        series: &SeriesView<'_>,
        ws: &mut Workspace,
        recorder: &dyn Recorder,
    ) -> Result<Report> {
        check_k(self.k)?;
        check_finite(series.values())?;
        let root = SpanTimer::start(&recorder, None, Stage::Detect);
        let (discords, stats) =
            brute_force_discords_in(series.values(), self.discord_len, self.k, &mut ws.normed)?;
        root.finish(&recorder);
        publish_stats(recorder, &stats);
        Ok(Report {
            detector: self.name(),
            anomalies: discords_to_anomalies(&discords),
            stats,
            num_candidates: series.len() + 1 - self.discord_len,
            grammar_size: 0,
            detail: Detail::None,
        })
    }
}

/// The HOTSAX fixed-length baseline (Keogh, Lin & Fu, ICDM'05) behind the
/// [`Detector`] interface.
#[derive(Debug, Clone)]
pub struct HotSaxDetector {
    config: HotSaxConfig,
    k: usize,
}

impl HotSaxDetector {
    /// HOTSAX search for `k` discords with the given configuration.
    pub fn new(config: HotSaxConfig, k: usize) -> Self {
        Self { config, k }
    }
}

impl Detector for HotSaxDetector {
    fn name(&self) -> &'static str {
        "hotsax"
    }

    fn detect(
        &self,
        series: &SeriesView<'_>,
        ws: &mut Workspace,
        recorder: &dyn Recorder,
    ) -> Result<Report> {
        check_k(self.k)?;
        check_finite(series.values())?;
        let root = SpanTimer::start(&recorder, None, Stage::Detect);
        let (discords, stats) =
            hotsax_discords_in(series.values(), &self.config, self.k, &mut ws.hotsax)?;
        root.finish(&recorder);
        publish_stats(recorder, &stats);
        Ok(Report {
            detector: self.name(),
            anomalies: discords_to_anomalies(&discords),
            stats,
            num_candidates: series.len() + 1 - self.config.discord_len(),
            grammar_size: 0,
            detail: Detail::None,
        })
    }
}

fn discords_to_anomalies(discords: &[DiscordRecord]) -> Vec<Anomaly> {
    discords
        .iter()
        .map(|d| Anomaly {
            interval: d.interval(),
            score: d.distance,
            rank: d.rank,
        })
        .collect()
}

/// The baseline searches meter distances internally ([`SearchStats`]);
/// mirror the totals into the caller's recorder so every detector
/// publishes the same counters through the unified interface.
fn publish_stats(recorder: &dyn Recorder, stats: &SearchStats) {
    if !recorder.enabled() {
        return;
    }
    recorder.add(Counter::DistanceCalls, stats.distance_calls);
    recorder.add(Counter::EarlyAbandons, stats.early_abandoned);
    recorder.add(Counter::CandidatesPruned, stats.candidates_pruned);
    recorder.add(Counter::CandidatesCompleted, stats.candidates_completed);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gv_obs::NoopRecorder;

    fn planted() -> Vec<f64> {
        let mut v: Vec<f64> = (0..2000).map(|i| (i as f64 / 16.0).sin()).collect();
        for (i, x) in v[900..980].iter_mut().enumerate() {
            *x = 0.3 * (i as f64 / 5.0).cos();
        }
        v
    }

    #[test]
    fn engine_config_env_and_overrides() {
        assert_eq!(EngineConfig::sequential().threads(), 1);
        assert_eq!(EngineConfig::sequential().with_threads(4).threads(), 4);
        assert_eq!(EngineConfig::sequential().with_threads(0).threads(), 1);
    }

    #[test]
    fn every_detector_finds_the_plant_through_the_trait() {
        let v = planted();
        let series = SeriesView::new(&v);
        let config = PipelineConfig::new(100, 5, 4).unwrap();
        let detectors: Vec<Box<dyn Detector>> = vec![
            Box::new(RraDetector::new(config.clone(), 1).with_engine(EngineConfig::sequential())),
            Box::new(DensityDetector::new(config, 1)),
            Box::new(BruteForceDetector::new(100, 1)),
            Box::new(HotSaxDetector::new(
                HotSaxConfig::new(100, 4, 4).unwrap(),
                1,
            )),
        ];
        let mut ws = Workspace::new();
        let plant = Interval::new(850, 1030);
        for det in &detectors {
            let report = det.detect(&series, &mut ws, &NoopRecorder).unwrap();
            assert_eq!(report.detector, det.name());
            assert!(!report.anomalies.is_empty(), "{} found nothing", det.name());
            assert!(
                report.anomalies[0].interval.overlaps(&plant),
                "{} reported {} missing the plant",
                det.name(),
                report.anomalies[0].interval
            );
        }
    }

    #[test]
    fn non_finite_input_is_rejected_by_every_detector() {
        let mut v = planted();
        v[1234] = f64::NAN;
        let series = SeriesView::new(&v);
        let config = PipelineConfig::new(100, 5, 4).unwrap();
        let detectors: Vec<Box<dyn Detector>> = vec![
            Box::new(RraDetector::new(config.clone(), 1).with_engine(EngineConfig::sequential())),
            Box::new(DensityDetector::new(config, 1)),
            Box::new(BruteForceDetector::new(100, 1)),
            Box::new(HotSaxDetector::new(
                HotSaxConfig::new(100, 4, 4).unwrap(),
                1,
            )),
        ];
        let mut ws = Workspace::new();
        for det in &detectors {
            let err = det.detect(&series, &mut ws, &NoopRecorder).unwrap_err();
            assert_eq!(
                err,
                crate::Error::NonFiniteInput { index: 1234 },
                "{} accepted a NaN series",
                det.name()
            );
        }
        // ±infinity is rejected just as firmly.
        v[1234] = f64::INFINITY;
        let series = SeriesView::new(&v);
        for det in &detectors {
            assert!(det.detect(&series, &mut ws, &NoopRecorder).is_err());
        }
        assert!(SeriesView::try_new(&v).is_err());
        v[1234] = 0.5;
        assert!(SeriesView::try_new(&v).is_ok());
    }

    #[test]
    fn k_zero_is_rejected_by_every_detector() {
        let v = planted();
        let series = SeriesView::new(&v);
        let config = PipelineConfig::new(100, 5, 4).unwrap();
        let detectors: Vec<Box<dyn Detector>> = vec![
            Box::new(RraDetector::new(config.clone(), 0).with_engine(EngineConfig::sequential())),
            Box::new(DensityDetector::new(config, 0)),
            Box::new(BruteForceDetector::new(100, 0)),
            Box::new(HotSaxDetector::new(
                HotSaxConfig::new(100, 4, 4).unwrap(),
                0,
            )),
        ];
        let mut ws = Workspace::new();
        for det in &detectors {
            let err = det.detect(&series, &mut ws, &NoopRecorder).unwrap_err();
            assert!(
                matches!(err, crate::Error::InvalidParameter(_)),
                "{}: expected InvalidParameter for k = 0, got {err:?}",
                det.name()
            );
        }
    }

    #[test]
    fn window_longer_than_series_is_an_error_not_a_panic() {
        let v: Vec<f64> = (0..50).map(|i| (i as f64 / 4.0).sin()).collect();
        let series = SeriesView::new(&v);
        let config = PipelineConfig::new(100, 5, 4).unwrap();
        let detectors: Vec<Box<dyn Detector>> = vec![
            Box::new(RraDetector::new(config.clone(), 1).with_engine(EngineConfig::sequential())),
            Box::new(DensityDetector::new(config, 1)),
            Box::new(BruteForceDetector::new(100, 1)),
            Box::new(HotSaxDetector::new(
                HotSaxConfig::new(100, 4, 4).unwrap(),
                1,
            )),
        ];
        let mut ws = Workspace::new();
        for det in &detectors {
            assert!(
                det.detect(&series, &mut ws, &NoopRecorder).is_err(),
                "{} should reject window > series length",
                det.name()
            );
        }
    }

    #[test]
    fn report_round_trips_to_rra_shape() {
        let v = planted();
        let config = PipelineConfig::new(100, 5, 4).unwrap();
        let det = RraDetector::new(config, 2).with_engine(EngineConfig::sequential());
        let mut ws = Workspace::new();
        let report = det
            .detect(&SeriesView::new(&v), &mut ws, &NoopRecorder)
            .unwrap();
        assert!(report.grammar_size > 0);
        let rra = report.to_rra();
        assert_eq!(rra.discords.len(), report.anomalies.len());
        for (d, a) in rra.discords.iter().zip(&report.anomalies) {
            assert_eq!(d.interval(), a.interval);
            assert_eq!(d.distance.to_bits(), a.score.to_bits());
        }
        assert!(report.density().is_none());
    }

    #[test]
    fn density_detail_carries_the_full_report() {
        let v = planted();
        let config = PipelineConfig::new(100, 5, 4).unwrap();
        let det = DensityDetector::new(config, 2);
        let mut ws = Workspace::new();
        let report = det
            .detect(&SeriesView::new(&v), &mut ws, &NoopRecorder)
            .unwrap();
        let density = report.density().expect("density payload");
        assert_eq!(density.curve.len(), v.len());
        assert_eq!(density.anomalies.len(), report.anomalies.len());
    }

    #[test]
    fn workspace_reuse_across_detectors_is_stable() {
        let v = planted();
        let config = PipelineConfig::new(100, 5, 4).unwrap();
        let rra = RraDetector::new(config.clone(), 1).with_engine(EngineConfig::sequential());
        let density = DensityDetector::new(config, 1);
        let hotsax = HotSaxDetector::new(HotSaxConfig::new(100, 4, 4).unwrap(), 1);
        let mut ws = Workspace::new();
        // One round: rra and density share a model through the slot, then
        // hotsax; a fresh view per round makes the round's first detect a
        // slot miss that recycles the held model's buffers.
        let round = |ws: &mut Workspace| {
            let series = SeriesView::new(&v);
            let first = rra.detect(&series, ws, &NoopRecorder).unwrap();
            density.detect(&series, ws, &NoopRecorder).unwrap();
            hotsax.detect(&series, ws, &NoopRecorder).unwrap();
            first
        };
        // Warm-up round, then capacities must freeze.
        let first = round(&mut ws);
        let sig = ws.capacity_signature();
        for _ in 0..3 {
            let again = round(&mut ws);
            assert_eq!(
                first.anomalies[0].score.to_bits(),
                again.anomalies[0].score.to_bits()
            );
            assert_eq!(sig, ws.capacity_signature(), "workspace buffers grew");
        }
    }

    /// Ranked (interval, score bits, rank), candidates, grammar size and
    /// density curve.
    pub(crate) type Fingerprint = (Vec<(Interval, u64, usize)>, usize, usize, Vec<i64>);

    /// Everything a report says, with scores as bits.
    pub(crate) fn fingerprint(report: &Report) -> Fingerprint {
        let anomalies = report
            .anomalies
            .iter()
            .map(|a| (a.interval, a.score.to_bits(), a.rank))
            .collect();
        let curve = report.density().map_or(Vec::new(), |d| d.curve.clone());
        (anomalies, report.num_candidates, report.grammar_size, curve)
    }

    /// `det` on `values` through a workspace of its own.
    fn fresh(det: &dyn Detector, values: &[f64]) -> Report {
        det.detect(
            &SeriesView::new(values),
            &mut Workspace::new(),
            &NoopRecorder,
        )
        .unwrap()
    }

    #[test]
    fn series_view_ids_are_shared_by_copies_only() {
        let v = planted();
        let a = SeriesView::new(&v);
        let copy = a;
        assert_eq!(copy.id(), a.id());
        let b = SeriesView::new(&v);
        assert_ne!(a.id(), b.id(), "two constructions over one slice");
        let c = SeriesView::try_new(&v).unwrap();
        let d = SeriesView::from(v.as_slice());
        let ids = [a.id(), b.id(), c.id(), d.id()];
        for (i, x) in ids.iter().enumerate() {
            assert!(ids[i + 1..].iter().all(|y| y != x), "{ids:?}");
        }
    }

    #[test]
    fn rra_then_density_on_one_view_builds_the_model_once() {
        let v = planted();
        let config = PipelineConfig::new(100, 5, 4).unwrap();
        for threads in [1, 4] {
            let rra = RraDetector::new(config.clone(), 2)
                .with_engine(EngineConfig::sequential().with_threads(threads));
            let density = DensityDetector::new(config.clone(), 2);
            let rec = gv_obs::LocalRecorder::new();
            let mut ws = Workspace::new();
            let series = SeriesView::new(&v);
            let r = rra.detect(&series, &mut ws, &rec).unwrap();
            let d = density.detect(&series, &mut ws, &rec).unwrap();
            assert_eq!(
                rec.counter(Counter::WindowsProcessed),
                (v.len() - 100 + 1) as u64,
                "threads={threads}"
            );
            assert_eq!(rec.counter(Counter::ModelReuses), 1, "threads={threads}");
            assert_eq!(fingerprint(&r), fingerprint(&fresh(&rra, &v)));
            assert_eq!(fingerprint(&d), fingerprint(&fresh(&density, &v)));
        }
    }

    #[test]
    fn a_mutated_series_gets_a_new_view_and_a_new_model() {
        let mut v = planted();
        let density = DensityDetector::new(PipelineConfig::new(100, 5, 4).unwrap(), 2);
        let rec = gv_obs::LocalRecorder::new();
        let mut ws = Workspace::new();
        let before = density.detect(&SeriesView::new(&v), &mut ws, &rec).unwrap();
        // Same Vec, same address, same length — new values.
        for (i, x) in v[300..380].iter_mut().enumerate() {
            *x = 0.2 * (i as f64 / 3.0).sin();
        }
        let after = density.detect(&SeriesView::new(&v), &mut ws, &rec).unwrap();
        assert_eq!(rec.counter(Counter::ModelReuses), 0);
        assert_eq!(
            rec.counter(Counter::WindowsProcessed),
            2 * (v.len() - 100 + 1) as u64
        );
        assert_eq!(fingerprint(&after), fingerprint(&fresh(&density, &v)));
        assert_ne!(fingerprint(&after), fingerprint(&before));
    }

    #[test]
    fn every_model_field_is_in_the_slot_key_and_the_seed_is_not() {
        use gv_sax::NumerosityReduction;
        let v = planted();
        let base = PipelineConfig::new(100, 5, 4).unwrap();
        let variants = [
            ("window", PipelineConfig::new(120, 5, 4).unwrap(), false),
            ("paa", PipelineConfig::new(100, 6, 4).unwrap(), false),
            ("alphabet", PipelineConfig::new(100, 5, 5).unwrap(), false),
            ("znorm", base.clone().with_znorm_threshold(0.5), false),
            (
                "nr",
                base.clone()
                    .with_numerosity_reduction(NumerosityReduction::MinDist),
                false,
            ),
            ("seed", base.clone().with_seed(99), true),
        ];
        for (name, config, reused) in variants {
            let rec = gv_obs::LocalRecorder::new();
            let mut ws = Workspace::new();
            let series = SeriesView::new(&v);
            DensityDetector::new(base.clone(), 2)
                .detect(&series, &mut ws, &rec)
                .unwrap();
            let rra = RraDetector::new(config.clone(), 2).with_engine(EngineConfig::sequential());
            let r = rra.detect(&series, &mut ws, &rec).unwrap();
            let density = DensityDetector::new(config.clone(), 2);
            let d = density.detect(&series, &mut ws, &rec).unwrap();
            let windows = |w: usize| (v.len() - w + 1) as u64;
            let built = if reused {
                windows(100)
            } else {
                windows(100) + windows(config.window())
            };
            assert_eq!(rec.counter(Counter::WindowsProcessed), built, "{name}");
            // RRA rebuilds (or reuses, for the seed); density then reuses
            // RRA's model.
            let reuses = if reused { 2 } else { 1 };
            assert_eq!(rec.counter(Counter::ModelReuses), reuses, "{name}");
            assert_eq!(fingerprint(&r), fingerprint(&fresh(&rra, &v)), "{name}");
            assert_eq!(fingerprint(&d), fingerprint(&fresh(&density, &v)), "{name}");
        }
    }
}
