//! Reusable scratch state for the execution engine.
//!
//! A [`Workspace`] owns every buffer the detectors need between calls —
//! z-norm/PAA scratch, the SAX record list, the interning dictionary, the
//! token stream, the RRA candidate list and search buffers, and the
//! baseline detectors' scratch. Repeated detection through one workspace
//! (streaming re-detection, sweep grids, ensemble-style multi-config
//! runs) stops re-allocating once the buffers have warmed up to the
//! largest series seen; [`Workspace::capacity_signature`] exposes the
//! buffer capacities so tests can assert that stability.
//!
//! Outputs (reports, discord lists) still allocate — they outlive the
//! call by design. Model building *round-trips* its two big buffers
//! through the workspace: [`Workspace::build_model`] moves the record list
//! and dictionary into the returned model, and [`Workspace::recycle_model`]
//! takes them back (cleared, capacity retained) when a caller is done
//! with the model.
//!
//! ## The model slot
//!
//! The grammar detectors do not hand their model back: they leave it in
//! the workspace's one model slot, keyed by the [`SeriesView`] id plus
//! every configuration field the model depends on — W, P, A, the z-norm
//! threshold (its bits) and the numerosity reduction. The RRA seed is not
//! in the key; it orders the search, not the model. When a second
//! detector runs on the same view with the same model configuration (RRA
//! then density, as the paper runs both §4 detectors on one grammar), it
//! reuses the held model ([`Counter::ModelReuses`]) instead of
//! discretizing and inducing the series again. On a miss the held model's
//! record list and dictionary are recycled exactly as
//! [`Workspace::recycle_model`] does, and the new model is built.
//!
//! The key is exact without hashing or copying the series. A view borrows
//! its slice immutably for its whole lifetime, and every construction
//! mints a fresh id from one process-wide counter, so one id names one
//! unchanged series: a view over the same `Vec` after a mutation is a new
//! construction with a new id, and an id outlives its view only inside
//! the slot, where no later view can match it. A digest of the values
//! would admit collisions (two series, one key, a stale model); keeping a
//! copy to compare against would cost a second copy of every input (0.76
//! MiB on a 100k-point series). The id counter is global state, but it
//! cannot reach a result: a hit returns the model a miss would rebuild,
//! bit for bit, because model building is a pure function of the key's
//! fields and the borrowed values. Only the `model_reuses` counter and
//! the time spent differ.
use gv_discord::HotSaxScratch;
use gv_obs::{Counter, Recorder, SpanId, SpanTimer, Stage};
use gv_sax::{NumerosityReduction, SaxDictionary, SaxRecord};
use gv_sequitur::Sequitur;

use crate::config::PipelineConfig;
use crate::engine::SeriesView;
use crate::error::Result;
use crate::intervals::RuleInterval;
use crate::model::GrammarModel;
use crate::rra::RraScratch;

/// Reusable scratch buffers for every detector (see the module docs).
#[derive(Debug, Default)]
pub struct Workspace {
    // Model building.
    pub(crate) zbuf: Vec<f64>,
    pub(crate) pbuf: Vec<f64>,
    pub(crate) records: Vec<SaxRecord>,
    pub(crate) tokens: Vec<u32>,
    pub(crate) dictionary: SaxDictionary,
    // RRA.
    pub(crate) candidates: Vec<RuleInterval>,
    pub(crate) rra: RraScratch,
    // Baselines.
    pub(crate) normed: Vec<f64>,
    pub(crate) hotsax: HotSaxScratch,
    // The last model a grammar detector built, and what it was built from.
    slot: Option<(ModelKey, GrammarModel)>,
}

/// What a slot model was built from: the view it read and every
/// configuration field the model depends on (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ModelKey {
    view: u64,
    window: usize,
    paa: usize,
    alphabet: usize,
    znorm_threshold_bits: u64,
    nr: NumerosityReduction,
}

impl ModelKey {
    fn new(config: &PipelineConfig, series: &SeriesView<'_>) -> Self {
        Self {
            view: series.id(),
            window: config.window(),
            paa: config.paa(),
            alphabet: config.alphabet(),
            znorm_threshold_bits: config.sax().znorm_threshold().to_bits(),
            nr: config.numerosity_reduction(),
        }
    }
}

impl Workspace {
    /// A fresh, empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs discretization and grammar induction through the workspace
    /// buffers, producing the [`GrammarModel`] the detectors consume. The
    /// record list and dictionary move into the model; hand the model back
    /// via [`Workspace::recycle_model`] when done to keep their capacity.
    ///
    /// # Errors
    /// [`crate::Error::NonFiniteInput`] for NaN/±∞ values; discretization
    /// errors (window too long, etc.).
    pub fn build_model<R: Recorder>(
        &mut self,
        config: &PipelineConfig,
        values: &[f64],
        recorder: &R,
    ) -> Result<GrammarModel> {
        self.build_model_under(config, values, recorder, None)
    }

    /// [`Workspace::build_model`] with the three model stages recorded as
    /// span-tree children of `parent` (the detector's `detect` root);
    /// `None` leaves them as root spans.
    pub(crate) fn build_model_under<R: Recorder>(
        &mut self,
        config: &PipelineConfig,
        values: &[f64],
        recorder: &R,
        parent: Option<SpanId>,
    ) -> Result<GrammarModel> {
        crate::engine::check_finite(values)?;
        // The SAX discretizer times the flat Discretize stage itself, so
        // the wrapper here lands on the span node only.
        let disc = SpanTimer::start(recorder, parent, Stage::Discretize);
        config.sax().discretize_into(
            values,
            config.numerosity_reduction(),
            recorder,
            &mut self.records,
            &mut self.zbuf,
            &mut self.pbuf,
        )?;
        disc.finish_span_only(recorder);
        let records = std::mem::take(&mut self.records);
        let mut dictionary = std::mem::take(&mut self.dictionary);
        let tokens = &mut self.tokens;
        tokens.clear();
        let intern = SpanTimer::start(recorder, parent, Stage::Intern);
        tokens.extend(records.iter().map(|rec| dictionary.intern(&rec.word)));
        intern.finish(recorder);
        let induce = SpanTimer::start(recorder, parent, Stage::Induce);
        let grammar = {
            let mut seq = Sequitur::new();
            for &tok in tokens.iter() {
                seq.push(tok);
            }
            let stats = seq.stats();
            recorder.add(Counter::RulesCreated, stats.rules_created);
            recorder.add(Counter::RulesDeleted, stats.rules_deleted);
            recorder.update_max(Counter::PeakDigramEntries, stats.peak_digram_entries);
            seq.finish()
        };
        induce.finish(recorder);
        Ok(GrammarModel {
            grammar,
            records,
            dictionary,
            series_len: values.len(),
            window: config.window(),
        })
    }

    /// Takes a model's record list and dictionary back into the workspace
    /// (cleared, capacity retained) so the next [`Workspace::build_model`]
    /// call does not re-allocate them.
    pub fn recycle_model(&mut self, model: GrammarModel) {
        self.records = model.records;
        self.records.clear();
        self.dictionary = model.dictionary;
        self.dictionary.clear();
    }

    /// Runs `f` on the model of `series` under `config`: the slot's model
    /// when it was built from the same view and model configuration
    /// (counting one [`Counter::ModelReuses`]), otherwise a fresh build
    /// recorded under `parent`, after recycling the held model's buffers.
    /// The model goes back into the slot when `f` returns.
    ///
    /// # Errors
    /// Those of [`Workspace::build_model`], on a miss.
    pub(crate) fn with_model<R: Recorder, T>(
        &mut self,
        config: &PipelineConfig,
        series: &SeriesView<'_>,
        recorder: &R,
        parent: Option<SpanId>,
        f: impl FnOnce(&GrammarModel, &mut Workspace) -> T,
    ) -> Result<T> {
        let key = ModelKey::new(config, series);
        let model = match self.slot.take() {
            Some((held, model)) if held == key => {
                recorder.incr(Counter::ModelReuses);
                model
            }
            stale => {
                if let Some((_, model)) = stale {
                    self.recycle_model(model);
                }
                self.build_model_under(config, series.values(), recorder, parent)?
            }
        };
        let out = f(&model, self);
        self.slot = Some((key, model));
        Ok(out)
    }

    /// Capacities of every workspace-owned buffer, in a fixed order, for
    /// allocation-stability assertions: after a warm-up call, repeated
    /// detection on same-shaped input must leave this signature unchanged.
    pub fn capacity_signature(&self) -> Vec<usize> {
        let mut sig = vec![
            self.zbuf.capacity(),
            self.pbuf.capacity(),
            self.records.capacity(),
            self.tokens.capacity(),
            self.dictionary.capacity(),
            self.candidates.capacity(),
            self.normed.capacity(),
        ];
        let held = self.slot.as_ref().map(|(_, model)| model);
        sig.push(held.map_or(0, |m| m.records.capacity()));
        sig.push(held.map_or(0, |m| m.dictionary.capacity()));
        sig.extend(self.rra.capacity_signature());
        sig.extend(self.hotsax.capacities());
        sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gv_obs::NoopRecorder;

    fn series() -> Vec<f64> {
        let mut v: Vec<f64> = (0..1500).map(|i| (i as f64 / 18.0).sin()).collect();
        for (i, x) in v[700..760].iter_mut().enumerate() {
            *x = 0.3 * (i as f64 / 4.0).cos();
        }
        v
    }

    #[test]
    fn build_model_matches_pipeline_model() {
        let config = PipelineConfig::new(80, 4, 4).unwrap();
        let v = series();
        let mut ws = Workspace::new();
        let a = ws.build_model(&config, &v, &NoopRecorder).unwrap();
        let b = crate::pipeline::AnomalyPipeline::new(config.clone())
            .model(&v)
            .unwrap();
        assert_eq!(a.records, b.records);
        assert_eq!(a.grammar.grammar_size(), b.grammar.grammar_size());
        assert_eq!(a.dictionary.len(), b.dictionary.len());
        assert_eq!((a.series_len, a.window), (b.series_len, b.window));
    }

    #[test]
    fn build_model_rejects_non_finite_values() {
        let config = PipelineConfig::new(80, 4, 4).unwrap();
        let mut v = series();
        v[42] = f64::NEG_INFINITY;
        let mut ws = Workspace::new();
        let err = ws.build_model(&config, &v, &NoopRecorder).unwrap_err();
        assert_eq!(err, crate::Error::NonFiniteInput { index: 42 });
    }

    #[test]
    fn model_round_trip_keeps_buffer_capacity() {
        let config = PipelineConfig::new(80, 4, 4).unwrap();
        let v = series();
        let mut ws = Workspace::new();
        // Warm up.
        let m = ws.build_model(&config, &v, &NoopRecorder).unwrap();
        ws.recycle_model(m);
        let sig = ws.capacity_signature();
        for _ in 0..3 {
            let m = ws.build_model(&config, &v, &NoopRecorder).unwrap();
            ws.recycle_model(m);
            assert_eq!(sig, ws.capacity_signature(), "workspace buffers grew");
        }
    }

    #[test]
    fn warm_discretize_scratch_is_o_p_and_frozen_through_fallbacks() {
        // The SAX kernel's whole state is the W-point z-norm scratch and
        // 2P floats of PAA scratch + bucket sums; warm model builds —
        // including windows that take the two-pass fallback (the flat
        // stretch sits exactly on α=4's 0.0 cut) — leave every workspace
        // buffer as it was, so the kept words are the only allocations of
        // the discretize stage.
        let config = PipelineConfig::new(80, 4, 4).unwrap();
        let mut v = series();
        v[100..400].fill(0.0);
        let mut ws = Workspace::new();
        let m = ws.build_model(&config, &v, &NoopRecorder).unwrap();
        ws.recycle_model(m);
        assert_eq!((ws.zbuf.capacity(), ws.pbuf.capacity()), (80, 8));
        let sig = ws.capacity_signature();
        let rec = gv_obs::LocalRecorder::new();
        let m = ws.build_model(&config, &v, &rec).unwrap();
        assert!(rec.counter(Counter::SaxFallbacks) > 0);
        assert_eq!(m.records.len() as u64, rec.counter(Counter::WordsEmitted));
        ws.recycle_model(m);
        assert_eq!(sig, ws.capacity_signature(), "workspace buffers grew");
    }
}
