//! The end-to-end pipeline facade.

use gv_obs::{LocalRecorder, NoopRecorder, Recorder, SpanTimer, Stage};

use crate::config::PipelineConfig;
use crate::density::DensityReport;
use crate::engine::{DensityDetector, Detector, EngineConfig, RraDetector, SeriesView};
use crate::error::Result;
use crate::explain::ExplainReport;
use crate::model::GrammarModel;
use crate::rra::RraReport;
use crate::workspace::Workspace;

/// The grammar-driven anomaly pipeline: discretize → induce → detect.
///
/// One pipeline instance is reusable across series. Detection dispatches
/// through the [`crate::engine`] layer: each call builds a fresh
/// [`Workspace`] internally (callers that want buffer reuse across calls
/// hold a [`Workspace`] and drive a [`Detector`] directly), and the RRA
/// search honours the pipeline's [`EngineConfig`] thread count — ranked
/// discords are bit-identical for any thread count.
#[derive(Debug, Clone)]
pub struct AnomalyPipeline {
    config: PipelineConfig,
    engine: EngineConfig,
}

impl AnomalyPipeline {
    /// Creates a pipeline with the given configuration. The engine config
    /// comes from the environment ([`EngineConfig::default`] reads
    /// `GV_THREADS`); override it with [`with_engine`](Self::with_engine).
    pub fn new(config: PipelineConfig) -> Self {
        Self {
            config,
            engine: EngineConfig::default(),
        }
    }

    /// Overrides the execution-engine configuration (thread count).
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The execution-engine configuration in use.
    pub fn engine(&self) -> EngineConfig {
        self.engine
    }

    /// Runs discretization and grammar induction, producing the
    /// [`GrammarModel`] both detectors consume.
    ///
    /// # Errors
    /// Discretization errors (window too long, etc.).
    pub fn model(&self, values: &[f64]) -> Result<GrammarModel> {
        self.model_with(values, &NoopRecorder)
    }

    /// [`model`](Self::model) with instrumentation: stage timings
    /// ([`Stage::Discretize`], [`Stage::Intern`], [`Stage::Induce`]) and
    /// the discretization/induction counters go to `recorder`. The model
    /// produced is identical to the uninstrumented one.
    ///
    /// # Errors
    /// Same as [`model`](Self::model).
    pub fn model_with<R: Recorder>(&self, values: &[f64], recorder: &R) -> Result<GrammarModel> {
        Workspace::new().build_model(&self.config, values, recorder)
    }

    /// Runs the rule-density detector (§4.1): builds the density curve and
    /// reports up to `k` ranked minima intervals. Boundary minima entirely
    /// inside the first/last window are treated as discretization
    /// artifacts and skipped (see [`RuleDensity::report_trimmed`]).
    ///
    /// # Errors
    /// Discretization errors.
    pub fn density_anomalies(&self, values: &[f64], k: usize) -> Result<DensityReport> {
        self.density_anomalies_with(values, k, &NoopRecorder)
    }

    /// [`density_anomalies`](Self::density_anomalies) with instrumentation:
    /// adds [`Stage::Density`] timing on top of the model stages.
    ///
    /// # Errors
    /// Same as [`density_anomalies`](Self::density_anomalies).
    pub fn density_anomalies_with<R: Recorder>(
        &self,
        values: &[f64],
        k: usize,
        recorder: &R,
    ) -> Result<DensityReport> {
        let detector = DensityDetector::new(self.config.clone(), k);
        let report = detector.detect(&SeriesView::new(values), &mut Workspace::new(), recorder)?;
        Ok(report
            .density()
            .cloned()
            // gv-lint: allow(no-unwrap-in-lib) DensityDetector::detect always populates the density report; a None here is a bug, not an input error
            .expect("density detector always carries its report"))
    }

    /// Runs the RRA detector (§4.2): returns up to `k` ranked
    /// variable-length discords plus the search cost.
    ///
    /// # Errors
    /// Discretization errors; [`crate::Error::NoCandidates`] when the
    /// grammar yields no usable candidate intervals.
    pub fn rra_discords(&self, values: &[f64], k: usize) -> Result<RraReport> {
        self.rra_discords_with(values, k, &NoopRecorder)
    }

    /// [`rra_discords`](Self::rra_discords) with instrumentation: the
    /// model stages plus the RRA search counters and
    /// [`Stage::RraOuter`]/[`Stage::RraInner`] timings go to `recorder`.
    ///
    /// # Errors
    /// Same as [`rra_discords`](Self::rra_discords).
    pub fn rra_discords_with<R: Recorder>(
        &self,
        values: &[f64],
        k: usize,
        recorder: &R,
    ) -> Result<RraReport> {
        let detector = RraDetector::new(self.config.clone(), k).with_engine(self.engine);
        let report = detector.detect(&SeriesView::new(values), &mut Workspace::new(), recorder)?;
        Ok(report.to_rra())
    }

    /// Runs the RRA detector with full decision telemetry and joins the
    /// event stream with the grammar model into a per-discord
    /// [`ExplainReport`] (rule id, SAX word, frequency, siblings, distance
    /// calls spent, rule-density floor).
    ///
    /// # Errors
    /// Same as [`rra_discords`](Self::rra_discords).
    pub fn explain(&self, values: &[f64], k: usize) -> Result<ExplainReport> {
        self.explain_with(values, k, &NoopRecorder)
    }

    /// [`explain`](Self::explain), additionally publishing the run's
    /// counters, timings, histograms, and events to `recorder` (detail
    /// flows through only when `recorder.detailed()`).
    ///
    /// # Errors
    /// Same as [`explain`](Self::explain).
    pub fn explain_with<R: Recorder>(
        &self,
        values: &[f64],
        k: usize,
        recorder: &R,
    ) -> Result<ExplainReport> {
        // Always collect detail locally — the join needs the events even
        // when the caller's sink is a Noop.
        let local = LocalRecorder::new();
        let mut ws = Workspace::new();
        let root = SpanTimer::start(&local, None, Stage::Detect);
        let model = ws.build_model_under(&self.config, values, None, &local, root.span())?;
        let detector = RraDetector::new(self.config.clone(), k).with_engine(self.engine);
        let report = detector.search_model_under(values, &model, &mut ws, &local, root.span())?;
        root.finish(&local);
        let explain = ExplainReport::from_run(&model, &report, &local);
        local.merge_into(recorder);
        Ok(explain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;

    fn planted_series() -> Vec<f64> {
        let mut v: Vec<f64> = (0..3000).map(|i| (i as f64 / 25.0).sin()).collect();
        for (i, x) in v[1500..1600].iter_mut().enumerate() {
            *x = 0.3 * (i as f64 / 6.0).cos();
        }
        v
    }

    #[test]
    fn model_has_consistent_tokens() {
        let p = AnomalyPipeline::new(PipelineConfig::new(100, 5, 4).unwrap());
        let m = p.model(&planted_series()).unwrap();
        assert!(m.num_tokens() > 10);
        assert_eq!(m.grammar.input_len(), m.num_tokens());
        assert_eq!(m.window, 100);
        assert_eq!(m.series_len, 3000);
        // Token stream round-trips through the dictionary.
        let tokens = m.grammar.expand_rule(m.grammar.r0_id());
        for (tok, rec) in tokens.iter().zip(&m.records) {
            assert_eq!(m.dictionary.word_of(*tok).unwrap(), &rec.word);
        }
    }

    #[test]
    fn density_finds_planted_anomaly() {
        let p = AnomalyPipeline::new(PipelineConfig::new(100, 5, 4).unwrap());
        let report = p.density_anomalies(&planted_series(), 1).unwrap();
        assert_eq!(report.curve.len(), 3000);
        let a = &report.anomalies[0];
        // The planted distortion at 1500..1600 should be inside/near the
        // reported minimum (within a window of slack).
        assert!(
            a.interval.start < 1700 && a.interval.end > 1400,
            "reported {} misses the plant",
            a.interval
        );
    }

    #[test]
    fn rra_finds_planted_anomaly() {
        let p = AnomalyPipeline::new(PipelineConfig::new(100, 5, 4).unwrap());
        let report = p.rra_discords(&planted_series(), 2).unwrap();
        assert!(!report.discords.is_empty());
        let d = &report.discords[0];
        assert!(
            d.position < 1700 && d.position + d.length > 1400,
            "top discord at {}..{} misses the plant",
            d.position,
            d.position + d.length
        );
        assert!(report.stats.distance_calls > 0);
    }

    #[test]
    fn too_short_series_errors() {
        let p = AnomalyPipeline::new(PipelineConfig::new(100, 5, 4).unwrap());
        assert!(p.model(&[0.0; 50]).is_err());
    }

    #[test]
    fn instrumented_run_matches_plain_and_fills_every_stage() {
        use gv_obs::{Counter, LocalRecorder, Stage};
        let v = planted_series();
        // Pin to one thread: ranked discords are thread-count-invariant but
        // the cost counters compared below are not.
        let p = AnomalyPipeline::new(PipelineConfig::new(100, 5, 4).unwrap())
            .with_engine(EngineConfig::sequential());
        let rec = LocalRecorder::new();

        let plain = p.rra_discords(&v, 2).unwrap();
        let instrumented = p.rra_discords_with(&v, 2, &rec).unwrap();
        assert_eq!(plain.discords.len(), instrumented.discords.len());
        for (a, b) in plain.discords.iter().zip(&instrumented.discords) {
            assert_eq!(a.position, b.position);
            assert_eq!(a.length, b.length);
            assert!((a.distance - b.distance).abs() < 1e-12);
        }
        assert_eq!(plain.stats, instrumented.stats);

        // SearchStats and the recorder are one counting path.
        assert_eq!(
            rec.counter(Counter::DistanceCalls),
            instrumented.stats.distance_calls
        );
        assert_eq!(
            rec.counter(Counter::EarlyAbandons),
            instrumented.stats.early_abandoned
        );
        assert_eq!(
            rec.counter(Counter::CandidatesPruned),
            instrumented.stats.candidates_pruned
        );
        assert_eq!(
            rec.counter(Counter::CandidatesCompleted),
            instrumented.stats.candidates_completed
        );

        // Every pipeline stage saw the clock.
        for stage in [
            Stage::Discretize,
            Stage::Intern,
            Stage::Induce,
            Stage::RraOuter,
        ] {
            assert!(rec.stage_nanos(stage) > 0, "{stage:?} not timed");
        }
        // Sliding-window accounting adds up.
        assert_eq!(rec.counter(Counter::WindowsProcessed), 3000 - 100 + 1);
        assert_eq!(
            rec.counter(Counter::WordsEmitted) + rec.counter(Counter::WordsDropped),
            rec.counter(Counter::WindowsProcessed)
        );
        assert!(rec.counter(Counter::RulesCreated) > 1);
        assert!(rec.counter(Counter::PeakDigramEntries) > 0);

        // Density path times its own stage.
        let drec = LocalRecorder::new();
        let d1 = p.density_anomalies(&v, 1).unwrap();
        let d2 = p.density_anomalies_with(&v, 1, &drec).unwrap();
        assert_eq!(d1.curve, d2.curve);
        assert_eq!(d1.anomalies.len(), d2.anomalies.len());
        assert!(drec.stage_nanos(Stage::Density) > 0);
    }
}
