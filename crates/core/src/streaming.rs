//! Streaming / early anomaly detection — the paper's §7 future-work
//! direction, made concrete.
//!
//! Both pipeline stages process the input left to right (SAX's sliding
//! window and Sequitur's incremental induction), so the whole detector can
//! run online: feed points as they arrive, and at any moment snapshot the
//! grammar to ask *"how compressible is the data I have seen so far —
//! and where isn't it?"*.
//!
//! # Bounded horizon
//!
//! By default the detector retains the entire stream. With
//! [`with_horizon`](StreamingDetector::with_horizon) it becomes a bounded
//! engine: only the most recent `horizon` points are kept, and everything
//! scales with the horizon rather than the stream —
//!
//! * raw values and SAX records live in ring-style buffers that evict in
//!   lockstep with the grammar;
//! * the grammar itself retires front tokens via
//!   [`Sequitur::evict_front`] as they age out;
//! * the rule-density curve is computed *on read*: each
//!   [`density_curve`](StreamingDetector::density_curve) call (and so each
//!   [`alerts`](StreamingDetector::alerts) call) maps the live grammar's
//!   rule occurrences through the retained records onto the horizon and
//!   sums them with a difference array — O(horizon + occurrences) per
//!   read, nothing per push (each read is counted by
//!   [`Counter::DensityRecounts`]);
//! * [`detect`](StreamingDetector::detect) dispatches over the horizon
//!   view only, so a from-scratch batch run over the same slice produces
//!   bit-identical discords; it takes the slice's words from the retained
//!   records instead of discretizing the horizon again.
//!
//! A caveat the batch pipeline doesn't have: the most recent points are
//! always under-covered (rules that will eventually span them haven't had
//! a chance to form), so alerts are only raised for regions older than a
//! configurable *maturity horizon*. With a bounded horizon the mirror
//! effect exists at the retained front — rules that covered it may have
//! been evicted — so the first window past the horizon start is masked
//! symmetrically.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use gv_obs::{time_stage, Counter, Event, EventKind, NoopRecorder, PipelineTrace, Recorder, Stage};
use gv_sax::{IncrementalDiscretizer, NumerosityReduction, SaxDictionary, SaxRecord, SaxWord};
use gv_sequitur::Sequitur;
use gv_timeseries::{CoverageCounter, Interval};

use crate::config::PipelineConfig;
use crate::density::RuleDensity;
use crate::engine::{Detector, Discretized, Report, SeriesView};
use crate::error::Result;
use crate::model::GrammarModel;
use crate::workspace::Workspace;

/// A growable buffer that keeps only the last `bound` elements (`0`:
/// unbounded). The dead prefix is compacted with `copy_within` once it
/// reaches `bound`, so the backing capacity freezes at roughly `2×bound`
/// and pushes stay amortized O(1) with no per-push allocation.
#[derive(Debug)]
struct SlidingBuf<T: Copy> {
    buf: Vec<T>,
    start: usize,
    bound: usize,
}

impl<T: Copy> SlidingBuf<T> {
    fn new(bound: usize) -> Self {
        Self {
            buf: Vec::new(),
            start: 0,
            bound,
        }
    }

    fn push(&mut self, v: T) {
        self.buf.push(v);
        if self.bound > 0 {
            if self.len() > self.bound {
                self.start += self.len() - self.bound;
            }
            if self.start >= self.bound {
                self.buf.copy_within(self.start.., 0);
                self.buf.truncate(self.buf.len() - self.start);
                self.start = 0;
            }
        }
    }

    fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    fn as_slice(&self) -> &[T] {
        &self.buf[self.start..]
    }

    fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

/// An online grammar-based anomaly detector.
///
/// ```
/// use gva_core::{PipelineConfig, StreamingDetector};
///
/// let config = PipelineConfig::new(50, 4, 4).unwrap();
/// let mut det = StreamingDetector::new(config);
/// for i in 0..2000 {
///     let v = (i as f64 / 12.0).sin();
///     det.push(if (900..960).contains(&i) { 0.0 } else { v }).unwrap();
/// }
/// let alerts = det.alerts(0, 100);
/// assert!(alerts.iter().any(|iv| iv.start >= 800 && iv.end <= 1100));
/// ```
#[derive(Debug)]
pub struct StreamingDetector<R: Recorder = NoopRecorder> {
    config: PipelineConfig,
    /// Retained points: `0` keeps the whole stream, otherwise the last
    /// `horizon` points (never less than one window).
    horizon: usize,
    /// Streaming SAX: emits the word for the window ending at each point
    /// through the batch path's certified O(P) kernel, with no per-push
    /// allocation and bit-identical words.
    discretizer: IncrementalDiscretizer,
    /// The retained raw values (the whole stream when unbounded).
    values: SlidingBuf<f64>,
    /// Total points consumed.
    seen: usize,
    dictionary: SaxDictionary,
    sequitur: Sequitur,
    /// Surviving records (post numerosity reduction) over the horizon;
    /// record `i` is retained grammar token `i`.
    records: VecDeque<SaxRecord>,
    /// Recycled word storage: boxes from evicted records are reused for
    /// new words, so steady-state pushes stop allocating.
    word_pool: Vec<Box<[u8]>>,
    /// Symbols of the last *kept* word (numerosity-reduction state). Kept
    /// outside `records` so eviction cannot disturb it.
    last_word: Vec<u8>,
    have_last: bool,
    /// Cumulative kept words (monotone even under eviction).
    words_emitted: u64,
    /// Cumulative on-read curve computations (mirrors
    /// [`Counter::DensityRecounts`]); atomic because reads take `&self`
    /// and the detector stays `Sync`.
    density_recounts: AtomicU64,
    /// Reused across [`detect`](StreamingDetector::detect) calls, so
    /// periodic re-detection stops allocating once warmed up.
    workspace: Workspace,
    recorder: R,
    /// Emit a metrics snapshot every this many points (`0`: never).
    metrics_every: usize,
    /// Stream length at the last flush — lets
    /// [`flush_now`](StreamingDetector::flush_now) emit a terminal
    /// snapshot only when the tail holds unflushed points.
    last_flush_seen: usize,
    /// The periodic snapshots, oldest first.
    snapshots: Vec<PipelineTrace>,
}

impl StreamingDetector<NoopRecorder> {
    /// Creates a detector; no data is required up front.
    pub fn new(config: PipelineConfig) -> Self {
        Self::with_recorder(config, NoopRecorder)
    }
}

impl<R: Recorder> StreamingDetector<R> {
    /// A detector that publishes per-push counters
    /// ([`Counter::WindowsProcessed`], [`Counter::WordsEmitted`],
    /// [`Counter::WordsDropped`], [`Counter::SaxFallbacks`]) and [`Stage::Density`] timings to
    /// `recorder`. [`new`](StreamingDetector::new) is this with a
    /// [`NoopRecorder`].
    pub fn with_recorder(config: PipelineConfig, recorder: R) -> Self {
        let discretizer = IncrementalDiscretizer::new(config.sax());
        Self {
            config,
            horizon: 0,
            discretizer,
            values: SlidingBuf::new(0),
            seen: 0,
            dictionary: SaxDictionary::new(),
            sequitur: Sequitur::new(),
            records: VecDeque::new(),
            word_pool: Vec::new(),
            last_word: Vec::new(),
            have_last: false,
            words_emitted: 0,
            density_recounts: AtomicU64::new(0),
            workspace: Workspace::new(),
            recorder,
            metrics_every: 0,
            last_flush_seen: 0,
            snapshots: Vec::new(),
        }
    }

    /// Builder-style: bound the engine to the last `horizon` points (`0`,
    /// the default, retains the whole stream). A non-zero horizon is
    /// clamped up to one window — anything shorter cannot hold a single
    /// token. Must be configured before the first push.
    ///
    /// # Panics
    /// Panics when points have already been consumed.
    #[must_use]
    pub fn with_horizon(mut self, horizon: usize) -> Self {
        // gv-lint: allow(panic-reachability) documented `# Panics` precondition: builder misuse, fires before any point streams
        assert_eq!(self.seen, 0, "set the horizon before streaming");
        self.horizon = if horizon == 0 {
            0
        } else {
            horizon.max(self.config.window())
        };
        self.values = SlidingBuf::new(self.horizon);
        if self.horizon > 0 {
            // The pool never outgrows the peak retained-record count (one
            // box per kept word in flight), so reserving that up front
            // freezes its capacity for the lifetime of the stream.
            self.word_pool = Vec::with_capacity(self.horizon - self.config.window() + 2);
        }
        self
    }

    /// Builder-style: emit a metrics snapshot every `n` pushed points
    /// (`0` disables, the default). Each flush appends a [`PipelineTrace`]
    /// labelled `"stream"` — stream length, surviving tokens, and grammar
    /// churn so far — to [`snapshots`](StreamingDetector::snapshots), and
    /// records an [`EventKind::Flush`] event on the recorder, so a
    /// long-running monitor produces a time-resolved metric trajectory
    /// instead of one final record.
    #[must_use]
    pub fn metrics_every(mut self, n: usize) -> Self {
        self.metrics_every = n;
        self
    }

    /// The periodic metrics snapshots accumulated so far, oldest first
    /// (empty unless [`metrics_every`](StreamingDetector::metrics_every)
    /// was configured).
    pub fn snapshots(&self) -> &[PipelineTrace] {
        &self.snapshots
    }

    /// Drains the accumulated snapshots (e.g. after exporting them).
    pub fn take_snapshots(&mut self) -> Vec<PipelineTrace> {
        std::mem::take(&mut self.snapshots)
    }

    /// The recorder this detector reports into.
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// The configuration in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The configured horizon in points (`0`: unbounded).
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Absolute stream index of the first retained point (`0` until the
    /// horizon fills). [`values`](StreamingDetector::values),
    /// [`density_curve`](StreamingDetector::density_curve), and
    /// [`detect`](StreamingDetector::detect) reports are all relative to
    /// this origin.
    pub fn horizon_start(&self) -> usize {
        self.seen - self.values.len()
    }

    /// Number of points consumed so far.
    pub fn len(&self) -> usize {
        self.seen
    }

    /// `true` until the first point arrives.
    pub fn is_empty(&self) -> bool {
        self.seen == 0
    }

    /// Number of retained tokens (words that survived numerosity reduction
    /// and still lie inside the horizon).
    pub fn num_tokens(&self) -> usize {
        self.records.len()
    }

    /// Capacities of every internal buffer. On a bounded engine this
    /// freezes after warmup — the long-run memory guarantee: unbounded
    /// streaming within a fixed horizon stops allocating.
    pub fn capacity_signature(&self) -> Vec<usize> {
        self.capacity_signature_with(self.sequitur.capacity_signature())
    }

    /// [`capacity_signature`](StreamingDetector::capacity_signature) with
    /// `grammar` in place of the grammar's own entries.
    fn capacity_signature_with(&self, grammar: Vec<usize>) -> Vec<usize> {
        let mut sig = vec![
            self.values.capacity(),
            self.records.capacity(),
            self.word_pool.capacity(),
            self.last_word.capacity(),
            self.dictionary.capacity(),
        ];
        sig.extend(self.discretizer.capacity_signature());
        sig.extend(grammar);
        sig.extend(self.workspace.capacity_signature());
        sig
    }

    /// Consumes one observation. Once `window` points have arrived, each
    /// push discretizes the window *ending* at this point and feeds the
    /// grammar (subject to numerosity reduction); with a horizon set, it
    /// then retires everything that fell out of the horizon.
    ///
    /// # Errors
    /// [`crate::Error::NonFiniteInput`] for a NaN/±∞ observation; the
    /// value is *not* consumed (the stream state is unchanged), so a
    /// caller may drop or repair the sample and continue.
    pub fn push(&mut self, value: f64) -> Result<()> {
        if !value.is_finite() {
            return Err(crate::Error::NonFiniteInput { index: self.seen });
        }
        let window = self.config.window();
        // gv-lint: hot
        self.values.push(value);
        self.seen += 1;
        // Discretize into the reused scratch word — no per-push buffer.
        let fallbacks = self.discretizer.fallbacks();
        let mut emitted = false;
        let mut keep = false;
        if let Some(symbols) = self.discretizer.push(value) {
            emitted = true;
            keep = !self.have_last
                || !self
                    .config
                    .numerosity_reduction()
                    .drops(&self.last_word, symbols);
            if keep {
                self.last_word.clear();
                self.last_word.extend_from_slice(symbols);
                self.have_last = true;
            }
        }
        if emitted {
            self.recorder.incr(Counter::WindowsProcessed);
        }
        if self.discretizer.fallbacks() != fallbacks {
            self.recorder.incr(Counter::SaxFallbacks);
        }
        if keep {
            let mut storage = match self.word_pool.pop() {
                Some(b) => b,
                // gv-lint: allow(no-alloc-in-hot-path) cold: only until eviction feeds the pool (or forever-growing unbounded mode, which allocated per push before too)
                None => vec![0u8; self.config.paa()].into_boxed_slice(),
            };
            storage.copy_from_slice(&self.last_word);
            let word = SaxWord::new(storage);
            let token = self.dictionary.intern(&word);
            self.sequitur.push(token);
            self.records.push_back(SaxRecord {
                word,
                offset: self.seen - window,
            });
            self.words_emitted += 1;
            self.recorder.incr(Counter::WordsEmitted);
        } else if emitted {
            self.recorder.incr(Counter::WordsDropped);
        }
        if self.horizon > 0 {
            // Retire records whose window slid out of the horizon; the
            // grammar evicts the same tokens.
            let boundary = self.seen.saturating_sub(self.horizon);
            let mut evict = 0usize;
            while let Some(rec) = self.records.get(evict) {
                if rec.offset < boundary {
                    evict += 1;
                } else {
                    break;
                }
            }
            if evict > 0 {
                let before = self.sequitur.stats();
                self.sequitur.evict_front(evict);
                let after = self.sequitur.stats();
                for _ in 0..evict {
                    if let Some(rec) = self.records.pop_front() {
                        self.word_pool.push(rec.word.into_bytes());
                    }
                }
                // Live counters mirror the cumulative flush snapshots, so
                // a per-run recorder sees eviction work too.
                self.recorder.add(Counter::TokensEvicted, evict as u64);
                self.recorder.add(
                    Counter::RulesEvicted,
                    after.rules_evicted - before.rules_evicted,
                );
                self.recorder.add(
                    Counter::RulesRelearned,
                    after.rules_relearned - before.rules_relearned,
                );
            }
        }
        // gv-lint: end-hot
        if self.metrics_every > 0 && self.seen.is_multiple_of(self.metrics_every) {
            self.flush_metrics();
        }
        Ok(())
    }

    /// Flushes a terminal metrics snapshot covering the tail of the
    /// stream, if any points arrived since the last periodic flush.
    /// Without this, a stream whose length is not a multiple of
    /// `metrics_every` silently drops its final partial window's metrics.
    /// Returns whether a snapshot was emitted. Callable regardless of the
    /// `metrics_every` setting — a monitor that never configured periodic
    /// flushes can still snapshot at end of stream.
    pub fn flush_now(&mut self) -> bool {
        if self.seen == 0 || self.seen == self.last_flush_seen {
            return false;
        }
        self.flush_metrics();
        true
    }

    /// Builds one periodic snapshot from the detector's own state (the
    /// recorder is generic and may be a sink that cannot be read back).
    fn flush_metrics(&mut self) {
        let stats = self.sequitur.stats();
        let window = self.config.window();
        let windows_processed = (self.seen + 1).saturating_sub(window) as u64;
        let mut trace = PipelineTrace::new("stream")
            .with_param("seen", self.seen as u64)
            .with_param("tokens", self.records.len() as u64)
            .with_param("horizon", self.horizon as u64)
            .with_param("flush", self.snapshots.len() as u64 + 1);
        // Cumulative pipeline counters, derived from detector state so the
        // snapshot is self-contained even with a Noop recorder — this is
        // what `WindowedAggregator::observe` differences per interval.
        trace.counters[Counter::WindowsProcessed.index()] = windows_processed;
        trace.counters[Counter::WordsEmitted.index()] = self.words_emitted;
        trace.counters[Counter::WordsDropped.index()] =
            windows_processed.saturating_sub(self.words_emitted);
        trace.counters[Counter::RulesCreated.index()] = stats.rules_created;
        trace.counters[Counter::RulesDeleted.index()] = stats.rules_deleted;
        trace.counters[Counter::PeakDigramEntries.index()] = stats.peak_digram_entries;
        trace.counters[Counter::TokensEvicted.index()] = stats.tokens_evicted;
        trace.counters[Counter::RulesEvicted.index()] = stats.rules_evicted;
        trace.counters[Counter::RulesRelearned.index()] = stats.rules_relearned;
        trace.counters[Counter::DensityRecounts.index()] =
            self.density_recounts.load(Ordering::Relaxed);
        self.last_flush_seen = self.seen;
        self.snapshots.push(trace);
        if self.recorder.detailed() {
            self.recorder.record_event(Event {
                position: self.seen as u64,
                length: self.metrics_every as u64,
                calls: self.records.len() as u64,
                ..Event::new(EventKind::Flush)
            });
        }
    }

    /// Snapshots the current grammar model over the retained region (the
    /// whole stream when unbounded). Record offsets stay absolute.
    ///
    /// # Errors
    /// Currently infallible; `Result` is kept for interface stability.
    pub fn model(&self) -> Result<GrammarModel> {
        Ok(GrammarModel {
            grammar: self.sequitur.snapshot(),
            records: self.records.iter().cloned().collect(),
            dictionary: self.dictionary.clone(),
            series_len: self.seen,
            window: self.config.window(),
        })
    }

    /// The rule-density curve over the retained region, oldest point
    /// first (`curve[i]` describes absolute point `horizon_start() + i`).
    /// Computed on each call from the live grammar: every rule occurrence
    /// maps through the retained records to its point interval, clipped
    /// to `[horizon_start(), len())`, and a difference array sums them —
    /// O(horizon + occurrences), counted once by
    /// [`Counter::DensityRecounts`]. Bounded and unbounded engines share
    /// this path, and it equals the batch pipeline's curve on the same
    /// model.
    pub fn density_curve(&self) -> Vec<i64> {
        time_stage(&self.recorder, Stage::Density, || {
            self.density_recounts.fetch_add(1, Ordering::Relaxed);
            self.recorder.incr(Counter::DensityRecounts);
            let tail = self.horizon_start();
            let window = self.config.window();
            let mut cc = CoverageCounter::new(self.values.len());
            for occ in self.sequitur.snapshot().occurrences() {
                let start = self.records[occ.token_start].offset;
                let end = self.records[occ.token_start + occ.token_len - 1].offset + window;
                cc.add(Interval::new(start.max(tail) - tail, end.max(tail) - tail));
            }
            cc.finish()
        })
    }

    /// The retained points, oldest first (the whole stream when
    /// unbounded); the first element is absolute index
    /// [`horizon_start`](StreamingDetector::horizon_start).
    pub fn values(&self) -> &[f64] {
        self.values.as_slice()
    }

    /// Runs any [`Detector`] over the retained horizon (the whole stream
    /// when unbounded), through the detector's unified interface. Reported
    /// intervals are relative to
    /// [`horizon_start`](StreamingDetector::horizon_start) — identical to
    /// a from-scratch batch run over the same slice, to the bit. The
    /// internal [`Workspace`] is reused across calls, so periodic
    /// re-detection stops allocating once the buffers have warmed up;
    /// instrumentation goes to the stream's own recorder.
    ///
    /// The horizon is not discretized again. A grammar detector with the
    /// stream's model configuration discretizes the horizon's first
    /// window and takes the words of every later window from the
    /// retained records, so the detect counts one
    /// [`Counter::WindowsProcessed`]; interning and induction still run
    /// afresh, because after eviction the live grammar is not the batch
    /// grammar of the slice. Under `Exact` and `None`
    /// numerosity reduction the records after the first window are the
    /// batch records of the slice at any horizon. Under `MinDist` a keep
    /// depends on the last kept word, which eviction can leave different
    /// from the slice's, so once the horizon has evicted a `MinDist`
    /// stream discretizes the whole horizon (`n − W + 1` windows). Other
    /// detectors never read the records.
    ///
    /// This is the §7 "online RRA" shape: the incremental grammar answers
    /// the cheap density question continuously
    /// ([`alerts`](StreamingDetector::alerts)), and this method runs the
    /// exact (and parallelizable) discord search on demand — over the
    /// horizon, so its cost is bounded no matter how long the stream runs.
    ///
    /// # Errors
    /// Whatever the detector reports (series still shorter than the
    /// window, no candidates, …).
    pub fn detect(&mut self, detector: &dyn Detector) -> Result<Report> {
        let values = self.values.as_slice();
        let origin = self.horizon_start();
        let series =
            if origin == 0 || self.config.numerosity_reduction() != NumerosityReduction::MinDist {
                let words = Discretized {
                    config: &self.config,
                    records: &self.records,
                    origin,
                };
                SeriesView::with_words(values, words)
            } else {
                SeriesView::new(values)
            };
        detector.detect(&series, &mut self.workspace, &self.recorder)
    }

    /// Early-detection alerts: maximal runs of points whose density is
    /// `<= threshold`, restricted to the *mature* region — at least
    /// `maturity` points older than the stream head (and past the first
    /// window on both flanks: the head's rules haven't formed yet, and the
    /// horizon front's rules may have been evicted). Intervals are in
    /// absolute stream positions.
    pub fn alerts(&self, threshold: i64, maturity: usize) -> Vec<Interval> {
        let curve = self.density_curve();
        if curve.is_empty() {
            return Vec::new();
        }
        let tail = self.horizon_start();
        let mature_end = self.seen.saturating_sub(maturity.max(self.config.window()));
        let density = RuleDensity::from_curve(curve);
        density
            .anomalies_below(threshold)
            .into_iter()
            .map(|iv| Interval::new(iv.start + tail, iv.end + tail))
            .filter(|iv| iv.start >= tail + self.config.window() && iv.end <= mature_end)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(det: &mut StreamingDetector, values: impl IntoIterator<Item = f64>) {
        for v in values {
            det.push(v).unwrap();
        }
    }

    #[test]
    fn empty_and_warmup() {
        let det = StreamingDetector::new(PipelineConfig::new(32, 4, 4).unwrap());
        assert!(det.is_empty());
        assert_eq!(det.num_tokens(), 0);
        let mut det = det;
        feed(&mut det, (0..10).map(|i| i as f64));
        // Below one window: no tokens yet.
        assert_eq!(det.num_tokens(), 0);
        assert_eq!(det.len(), 10);
        assert!(det.alerts(0, 0).is_empty());
    }

    #[test]
    fn streaming_matches_batch_pipeline() {
        let values: Vec<f64> = (0..1500).map(|i| (i as f64 / 18.0).sin()).collect();
        let config = PipelineConfig::new(60, 4, 4).unwrap();
        let mut det = StreamingDetector::new(config.clone());
        feed(&mut det, values.iter().copied());

        let streaming_model = det.model().unwrap();
        let batch_model = crate::pipeline::AnomalyPipeline::new(config)
            .model(&values)
            .unwrap();
        // Identical token streams and offsets.
        assert_eq!(streaming_model.records, batch_model.records);
        // Identical density curves.
        assert_eq!(
            det.density_curve(),
            RuleDensity::from_model(&batch_model).curve().to_vec()
        );
    }

    #[test]
    fn detects_planted_anomaly_online() {
        let config = PipelineConfig::new(50, 4, 4).unwrap();
        let mut det = StreamingDetector::new(config);
        for i in 0..2500usize {
            let v = if (1200..1270).contains(&i) {
                0.05 * (i as f64)
            } else {
                (i as f64 / 12.0).sin()
            };
            det.push(v).unwrap();
        }
        let alerts = det.alerts(0, 100);
        assert!(
            alerts
                .iter()
                .any(|iv| iv.overlaps(&Interval::new(1150, 1330))),
            "no alert near the plant: {alerts:?}"
        );
    }

    #[test]
    fn immature_region_not_alerted() {
        let config = PipelineConfig::new(50, 4, 4).unwrap();
        let mut det = StreamingDetector::new(config);
        // Regular data, then an anomaly right at the stream head.
        for i in 0..1000usize {
            det.push((i as f64 / 12.0).sin()).unwrap();
        }
        for i in 0..30usize {
            det.push(5.0 + i as f64).unwrap(); // fresh anomaly, too young to alert
        }
        let alerts = det.alerts(0, 200);
        assert!(
            alerts.iter().all(|iv| iv.end <= 1030 - 200),
            "immature alerts: {alerts:?}"
        );
    }

    #[test]
    fn incremental_alert_appears_after_maturity() {
        let config = PipelineConfig::new(40, 4, 4).unwrap();
        let mut det = StreamingDetector::new(config);
        let signal = |i: usize| {
            if (800..860).contains(&i) {
                0.0
            } else {
                (i as f64 / 10.0).sin()
            }
        };
        for i in 0..900usize {
            det.push(signal(i)).unwrap();
        }
        let early = det.alerts(0, 100);
        // Keep streaming regular data past the maturity horizon.
        for i in 900..1400usize {
            det.push(signal(i)).unwrap();
        }
        let later = det.alerts(0, 100);
        let hit = |alerts: &[Interval]| {
            alerts
                .iter()
                .any(|iv| iv.overlaps(&Interval::new(760, 940)))
        };
        assert!(
            !hit(&early) || hit(&later),
            "alert must not vanish as the stream grows"
        );
        assert!(hit(&later), "mature anomaly must be alerted: {later:?}");
    }

    #[test]
    fn non_finite_push_is_rejected_without_consuming() {
        let config = PipelineConfig::new(32, 4, 4).unwrap();
        let mut det = StreamingDetector::new(config);
        for i in 0..100usize {
            det.push((i as f64 / 8.0).sin()).unwrap();
        }
        let tokens = det.num_tokens();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = det.push(bad).unwrap_err();
            assert_eq!(err, crate::Error::NonFiniteInput { index: 100 });
        }
        // Stream state unchanged: the caller can repair and continue.
        assert_eq!(det.len(), 100);
        assert_eq!(det.num_tokens(), tokens);
        det.push(0.5).unwrap();
        assert_eq!(det.len(), 101);
    }

    #[test]
    fn clean_periodic_tail_is_not_alerted() {
        // Satellite regression: on a perfectly clean periodic stream the
        // structurally under-covered tail (rules spanning it haven't formed
        // yet) must be masked by the maturity horizon, not reported.
        let config = PipelineConfig::new(50, 4, 4).unwrap();
        let mut det = StreamingDetector::new(config);
        for i in 0..2000usize {
            det.push((i as f64 / 12.0).sin()).unwrap();
        }
        let maturity = 150;
        let curve = det.density_curve();
        let horizon = det.len() - maturity;
        // The tail *is* structurally under-covered: its density dips below
        // the mature region's floor because rules spanning it haven't had a
        // chance to form yet.
        let tail_min = *curve[horizon..].iter().min().unwrap();
        let mature_min = *curve[det.config().window()..horizon].iter().min().unwrap();
        assert!(
            tail_min < mature_min,
            "expected the tail (min {tail_min}) below the mature floor ({mature_min})"
        );
        // At a threshold that catches the tail dip, the raw curve reports
        // it (non-vacuous)...
        let density = RuleDensity::from_curve(curve);
        assert!(
            density
                .anomalies_below(tail_min)
                .iter()
                .any(|iv| iv.end > horizon),
            "expected a raw under-coverage run past the horizon"
        );
        // ...but the maturity horizon must mask it from the alerts.
        let alerts = det.alerts(tail_min, maturity);
        assert!(
            alerts.iter().all(|iv| iv.end <= horizon),
            "immature tail leaked into alerts: {alerts:?}"
        );
        // And at the default threshold the clean stream raises nothing.
        assert!(
            det.alerts(0, maturity).is_empty(),
            "clean periodic stream raised alerts"
        );
    }

    #[test]
    fn metrics_every_emits_periodic_snapshots() {
        use gv_obs::LocalRecorder;
        let config = PipelineConfig::new(50, 4, 4).unwrap();
        let mut det = StreamingDetector::with_recorder(config.clone(), LocalRecorder::new())
            .metrics_every(200);
        for i in 0..1000usize {
            det.push((i as f64 / 12.0).sin()).unwrap();
        }
        assert_eq!(det.snapshots().len(), 5);
        for (i, snap) in det.snapshots().iter().enumerate() {
            assert_eq!(snap.label, "stream");
            let seen = snap.params.iter().find(|(k, _)| k == "seen").unwrap().1;
            assert_eq!(seen, 200 * (i as u64 + 1));
            assert!(snap.to_jsonl().starts_with("{\"schema\":4,"));
        }
        // Monotone token counts across flushes.
        let tokens: Vec<u64> = det
            .snapshots()
            .iter()
            .map(|s| s.params.iter().find(|(k, _)| k == "tokens").unwrap().1)
            .collect();
        assert!(tokens.windows(2).all(|w| w[0] <= w[1]));
        // One Flush event per snapshot on the recorder.
        let flushes = det
            .recorder()
            .events_vec()
            .iter()
            .filter(|e| e.kind == EventKind::Flush)
            .count();
        assert_eq!(flushes, 5);
        // Snapshots must not perturb the model: same tokens as a plain run.
        let mut plain = StreamingDetector::new(config);
        for i in 0..1000usize {
            plain.push((i as f64 / 12.0).sin()).unwrap();
        }
        assert_eq!(plain.num_tokens(), det.num_tokens());
        assert_eq!(det.take_snapshots().len(), 5);
        assert!(det.snapshots().is_empty());
    }

    #[test]
    fn terminal_flush_covers_partial_tail() {
        // Satellite regression: 1000 points at metrics-every 300 used to
        // leave the last 100 points invisible in the snapshot trajectory.
        let config = PipelineConfig::new(50, 4, 4).unwrap();
        let mut det = StreamingDetector::new(config.clone()).metrics_every(300);
        for i in 0..1000usize {
            det.push((i as f64 / 12.0).sin()).unwrap();
        }
        assert_eq!(det.snapshots().len(), 3); // 300, 600, 900
        assert!(det.flush_now(), "tail points must force a snapshot");
        assert_eq!(det.snapshots().len(), 4);
        let tail = det.snapshots().last().unwrap();
        let seen = tail.params.iter().find(|(k, _)| k == "seen").unwrap().1;
        assert_eq!(seen, 1000);
        // Idempotent: nothing new arrived, so no second terminal flush.
        assert!(!det.flush_now());
        assert_eq!(det.snapshots().len(), 4);
        // After more points, flush_now works again.
        det.push(0.0).unwrap();
        assert!(det.flush_now());

        // Exact-multiple stream: the periodic flush already covered the
        // tail, so the terminal flush must not duplicate it.
        let mut exact = StreamingDetector::new(config.clone()).metrics_every(500);
        for i in 0..1000usize {
            exact.push((i as f64 / 12.0).sin()).unwrap();
        }
        assert_eq!(exact.snapshots().len(), 2);
        assert!(!exact.flush_now());
        assert_eq!(exact.snapshots().len(), 2);

        // An empty detector has nothing to flush.
        let mut empty = StreamingDetector::new(config);
        assert!(!empty.flush_now());
    }

    #[test]
    fn flush_snapshots_carry_cumulative_pipeline_counters() {
        use gv_obs::LocalRecorder;
        let config = PipelineConfig::new(50, 4, 4).unwrap();
        let mut det =
            StreamingDetector::with_recorder(config, LocalRecorder::new()).metrics_every(200);
        for i in 0..800usize {
            det.push((i as f64 / 12.0).sin()).unwrap();
        }
        let last = det.snapshots().last().unwrap();
        // Snapshot counters must agree with the recorder's own counts —
        // they are the same quantities, derived from detector state so
        // Noop-recorded monitors still get them.
        let rec = det.recorder();
        for c in [
            Counter::WindowsProcessed,
            Counter::WordsEmitted,
            Counter::WordsDropped,
        ] {
            assert_eq!(last.counter(c), rec.counter(c), "{}", c.name());
        }
        assert_eq!(last.counter(Counter::WindowsProcessed), 800 - 50 + 1);
    }

    #[test]
    fn detect_through_trait_matches_batch_pipeline() {
        use crate::engine::{EngineConfig, RraDetector};
        let mut v: Vec<f64> = (0..2000).map(|i| (i as f64 / 16.0).sin()).collect();
        for (i, x) in v[900..980].iter_mut().enumerate() {
            *x = 0.3 * (i as f64 / 5.0).cos();
        }
        let config = PipelineConfig::new(100, 5, 4).unwrap();
        let mut det = StreamingDetector::new(config.clone());
        feed(&mut det, v.iter().copied());
        assert_eq!(det.values(), &v[..]);

        let rra = RraDetector::new(config.clone(), 2).with_engine(EngineConfig::sequential());
        let online = det.detect(&rra).unwrap();
        let batch = crate::pipeline::AnomalyPipeline::new(config)
            .with_engine(EngineConfig::sequential())
            .rra_discords(&v, 2)
            .unwrap();
        assert_eq!(online.anomalies.len(), batch.discords.len());
        for (a, b) in online.anomalies.iter().zip(&batch.discords) {
            assert_eq!(a.interval, b.interval());
            assert_eq!(a.score.to_bits(), b.distance.to_bits());
        }

        // Re-detection reuses the workspace: results stable, buffers frozen.
        let sig = det.workspace.capacity_signature();
        let again = det.detect(&rra).unwrap();
        assert_eq!(again.anomalies.len(), online.anomalies.len());
        assert_eq!(sig, det.workspace.capacity_signature());
    }

    #[test]
    fn recorder_counts_streamed_windows() {
        use gv_obs::LocalRecorder;
        let config = PipelineConfig::new(50, 4, 4).unwrap();
        let mut plain = StreamingDetector::new(config.clone());
        let mut counted = StreamingDetector::with_recorder(config, LocalRecorder::new());
        for i in 0..800usize {
            let v = (i as f64 / 12.0).sin();
            plain.push(v).unwrap();
            counted.push(v).unwrap();
        }
        // Instrumentation must not change the stream model.
        assert_eq!(plain.num_tokens(), counted.num_tokens());
        assert_eq!(plain.density_curve(), counted.density_curve());
        let rec = counted.recorder();
        assert_eq!(rec.counter(Counter::WindowsProcessed), 800 - 50 + 1);
        assert_eq!(
            rec.counter(Counter::WordsEmitted),
            counted.num_tokens() as u64
        );
        assert_eq!(
            rec.counter(Counter::WordsEmitted) + rec.counter(Counter::WordsDropped),
            rec.counter(Counter::WindowsProcessed)
        );
        assert!(rec.stage_nanos(Stage::Density) > 0);
    }

    // ------------------------------------------------------------------
    // Bounded-horizon engine
    // ------------------------------------------------------------------

    /// The planted-anomaly series used across the horizon tests.
    fn planted(n: usize, at: std::ops::Range<usize>) -> Vec<f64> {
        (0..n)
            .map(|i| {
                if at.contains(&i) {
                    0.05 * (i as f64)
                } else {
                    (i as f64 / 12.0).sin()
                }
            })
            .collect()
    }

    /// A from-first-principles recount of the retained density curve from
    /// the engine's own model, one point at a time — what the on-read
    /// difference-array curve must equal to the bit.
    fn recount_from_model(det: &StreamingDetector) -> Vec<i64> {
        let model = det.model().unwrap();
        let tail = det.horizon_start();
        let mut curve = vec![0i64; det.values().len()];
        for occ in model.grammar.occurrences() {
            let iv = model.occurrence_interval(&occ);
            let lo = iv.start.max(tail) - tail;
            let hi = iv.end.min(det.len()) - tail;
            for c in &mut curve[lo..hi] {
                *c += 1;
            }
        }
        curve
    }

    #[test]
    fn horizon_covering_stream_matches_unbounded_engine() {
        // With a horizon larger than the stream nothing evicts, and the
        // bounded engine must agree with the unbounded one (and therefore
        // with the batch pipeline) bit for bit.
        let values = planted(1500, 700..760);
        let config = PipelineConfig::new(50, 4, 4).unwrap();
        let mut unbounded = StreamingDetector::new(config.clone());
        let mut bounded = StreamingDetector::new(config).with_horizon(100_000);
        feed(&mut unbounded, values.iter().copied());
        feed(&mut bounded, values.iter().copied());
        assert_eq!(bounded.horizon_start(), 0);
        assert_eq!(bounded.values(), unbounded.values());
        assert_eq!(bounded.density_curve(), unbounded.density_curve());
        assert_eq!(bounded.alerts(0, 100), unbounded.alerts(0, 100));
        assert_eq!(
            bounded.model().unwrap().records,
            unbounded.model().unwrap().records
        );
    }

    #[test]
    fn horizon_density_curve_matches_recount_from_own_model() {
        // The streaming-vs-batch differential, curve half: after heavy
        // eviction the on-read curve equals a point-by-point recount over
        // the engine's own grammar, bit for bit.
        let values = planted(4000, 2500..2560);
        let config = PipelineConfig::new(40, 4, 4).unwrap();
        let mut det = StreamingDetector::new(config).with_horizon(900);
        for (i, &v) in values.iter().enumerate() {
            det.push(v).unwrap();
            if i % 397 == 0 || i + 1 == values.len() {
                assert_eq!(
                    det.density_curve(),
                    recount_from_model(&det),
                    "curve drifted at point {i}"
                );
            }
        }
        assert_eq!(det.values().len(), 900);
        assert_eq!(det.horizon_start(), 4000 - 900);
    }

    #[test]
    fn horizon_detect_matches_batch_on_retained_slice() {
        use crate::engine::{EngineConfig, RraDetector};
        let values = planted(3000, 2100..2170);
        let config = PipelineConfig::new(60, 4, 4).unwrap();
        let mut det = StreamingDetector::new(config.clone()).with_horizon(1500);
        feed(&mut det, values.iter().copied());
        let tail = det.horizon_start();
        assert_eq!(tail, 1500);
        assert_eq!(det.values(), &values[tail..]);

        let rra = RraDetector::new(config.clone(), 2).with_engine(EngineConfig::sequential());
        let online = det.detect(&rra).unwrap();
        let batch = crate::pipeline::AnomalyPipeline::new(config)
            .with_engine(EngineConfig::sequential())
            .rra_discords(&values[tail..], 2)
            .unwrap();
        assert_eq!(online.anomalies.len(), batch.discords.len());
        for (a, b) in online.anomalies.iter().zip(&batch.discords) {
            assert_eq!(a.interval, b.interval());
            assert_eq!(a.score.to_bits(), b.distance.to_bits());
        }
    }

    #[test]
    fn planted_anomaly_enters_and_leaves_horizon() {
        // Satellite regression: an anomaly raises alerts while inside the
        // horizon and clears once it has been evicted.
        let plant = 5000..5060;
        let values = planted(10_000, plant.clone());
        let config = PipelineConfig::new(50, 4, 4).unwrap();
        let mut det = StreamingDetector::new(config).with_horizon(3000);
        let plant_region = Interval::new(4950, 5130);
        for (i, &v) in values.iter().enumerate() {
            det.push(v).unwrap();
            if i + 1 == 6000 {
                let alerts = det.alerts(0, 100);
                assert!(
                    alerts.iter().any(|iv| iv.overlaps(&plant_region)),
                    "anomaly inside the horizon must alert: {alerts:?}"
                );
            }
        }
        // The plant has been evicted (horizon start is past it).
        assert!(det.horizon_start() > plant.end);
        let alerts = det.alerts(0, 100);
        assert!(
            alerts.iter().all(|iv| !iv.overlaps(&plant_region)),
            "evicted anomaly must no longer alert: {alerts:?}"
        );
    }

    #[test]
    fn capacity_signature_freezes_on_long_stream() {
        // Streaming within a fixed horizon must stop allocating — every
        // internal buffer's capacity freezes after warmup, across 100k
        // points, with periodic rra + density rounds through the
        // workspace's model slot. Each `detect` views the horizon afresh,
        // so each is a slot miss that recycles the held model's buffers.
        use crate::engine::{DensityDetector, EngineConfig, RraDetector};
        let config = PipelineConfig::new(50, 4, 4).unwrap();
        let rra = RraDetector::new(config.clone(), 1).with_engine(EngineConfig::sequential());
        let density = DensityDetector::new(config.clone(), 1);
        let mut det = StreamingDetector::new(config).with_horizon(2048);
        let signal = |i: usize| (i as f64 / 12.0).sin() + 0.2 * (i as f64 / 71.0).cos();
        let feed = |det: &mut StreamingDetector, range: std::ops::Range<usize>| {
            for i in range {
                det.push(signal(i)).unwrap();
                if (i + 1) % 5_000 == 0 {
                    det.detect(&rra).unwrap();
                    det.detect(&density).unwrap();
                }
            }
        };
        let warmup = 30_000usize;
        feed(&mut det, 0..warmup);
        let sig = det.capacity_signature();
        feed(&mut det, warmup..100_000);
        assert_eq!(
            sig,
            det.capacity_signature(),
            "buffer capacities grew after warmup"
        );
        assert_eq!(det.len(), 100_000);
        assert_eq!(det.values().len(), 2048);
        // The grammar really did evict: far more tokens retired than
        // retained.
        assert!(det.sequitur.tokens_evicted() > det.num_tokens() as u64 * 10);
    }

    #[test]
    fn sax_fallbacks_keep_the_push_path_allocation_free() {
        // Flat stretches put every bucket exactly on α=4's 0.0 cut, so the
        // SAX kernel takes its two-pass fallback there; that path must be
        // as allocation-free as the O(P) one, and every fallback is
        // published to the recorder. Every buffer the detector,
        // discretizer, grammar and workspace own freezes after warmup,
        // except Sequitur's deferred-utility queue: it holds the rules one
        // public call's cascade dropped to a single use, so its high-water
        // mark is a record statistic that can still creep up (capacity
        // 8 → 16 on this stream), but it stays within the recycled rules
        // arena.
        let config = PipelineConfig::new(40, 4, 4).unwrap();
        let mut det = StreamingDetector::with_recorder(config, gv_obs::LocalRecorder::new())
            .with_horizon(1024);
        let signal = |i: usize| {
            if (i / 700).is_multiple_of(5) {
                0.0
            } else {
                (i as f64 / 9.0).sin() + 0.3 * (i as f64 / 53.0).cos()
            }
        };
        // The full signature with the utility queue taken out.
        let frozen_part = |det: &StreamingDetector<gv_obs::LocalRecorder>| {
            det.capacity_signature_with(det.sequitur.arena_capacity_signature())
        };
        let warmup = 20_000usize;
        for i in 0..warmup {
            det.push(signal(i)).unwrap();
        }
        let sig = frozen_part(&det);
        let before = det.recorder().counter(Counter::SaxFallbacks);
        for i in warmup..200_000 {
            det.push(signal(i)).unwrap();
        }
        assert_eq!(
            sig,
            frozen_part(&det),
            "push-path buffers grew after warmup"
        );
        let (rules, queue) = (
            det.sequitur.rules_capacity(),
            det.sequitur.utility_queue_capacity(),
        );
        assert!(
            queue <= rules,
            "utility queue {queue} outgrew the rules arena {rules}"
        );
        let fallbacks = det.recorder().counter(Counter::SaxFallbacks);
        assert!(fallbacks > before, "flat stretches must take the fallback");
        assert_eq!(fallbacks, det.discretizer.fallbacks());
    }

    #[test]
    fn detector_is_sync_with_a_sync_recorder() {
        // Curve reads take `&self`, so a shared detector can serve
        // concurrent `density_curve`/`alerts` reads.
        fn assert_sync<T: Sync>() {}
        assert_sync::<StreamingDetector<gv_obs::CollectingRecorder>>();
        assert_sync::<StreamingDetector>();
    }

    #[test]
    fn pushes_never_recount_the_curve() {
        // The curve is computed only when read: a long evicting stream
        // records no recount at all, and afterwards every curve read (and
        // every alerts call, which reads the curve once) counts exactly one.
        use gv_obs::LocalRecorder;
        let config = PipelineConfig::new(40, 4, 4).unwrap();
        let mut det = StreamingDetector::with_recorder(config, LocalRecorder::new())
            .with_horizon(900)
            .metrics_every(1000);
        for &v in &planted(6000, 4000..4060) {
            det.push(v).unwrap();
        }
        assert!(det.sequitur.tokens_evicted() > 0);
        let recounts = |det: &StreamingDetector<LocalRecorder>| {
            det.recorder().counter(Counter::DensityRecounts)
        };
        assert_eq!(recounts(&det), 0, "a push recounted the curve");
        assert_eq!(det.snapshots().len(), 6);
        assert!(det
            .snapshots()
            .iter()
            .all(|s| s.counter(Counter::DensityRecounts) == 0));
        for reads in 1..=3u64 {
            det.density_curve();
            assert_eq!(recounts(&det), reads);
        }
        det.alerts(0, 100);
        assert_eq!(recounts(&det), 4);
        // Flush snapshots carry the same cumulative count.
        det.push(0.0).unwrap();
        assert!(det.flush_now());
        let last = det.snapshots().last().unwrap();
        assert_eq!(last.counter(Counter::DensityRecounts), 4);
    }

    /// A naive alert scan: maximal runs of `curve` at or below
    /// `threshold`, shifted to absolute positions and kept only inside
    /// the mature region — written out point by point, independent of
    /// [`RuleDensity`].
    fn naive_alerts(
        det: &StreamingDetector,
        curve: &[i64],
        threshold: i64,
        maturity: usize,
    ) -> Vec<Interval> {
        let tail = det.horizon_start();
        let window = det.config().window();
        let mature_end = det.len().saturating_sub(maturity.max(window));
        let mut runs = Vec::new();
        let mut i = 0;
        while i < curve.len() {
            if curve[i] > threshold {
                i += 1;
                continue;
            }
            let start = i;
            while i < curve.len() && curve[i] <= threshold {
                i += 1;
            }
            let iv = Interval::new(tail + start, tail + i);
            if iv.start >= tail + window && iv.end <= mature_end {
                runs.push(iv);
            }
        }
        runs
    }

    /// Point `i` of a `len`-point stream from one of three families:
    /// flat stretches (`0`), quantized steps (`1`), or a planted anomaly
    /// mid-stream (`2`).
    fn family_signal(family: usize, len: usize, i: usize) -> f64 {
        let base = (i as f64 / 11.0).sin() + 0.4 * (i as f64 / 37.0).cos();
        match family {
            0 if (i / 300) % 4 == 1 => 0.0,
            1 => (base * 3.0).round() / 3.0,
            2 if (len / 2..len / 2 + 70).contains(&i) => 0.02 * i as f64 % 1.7,
            _ => base,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Detect exactness: at random detect points of a random stream
        /// (random window, horizon with `0` = unbounded, and numerosity
        /// reduction), the model a stream detect consumes equals the
        /// batch model of the retained slice bit for bit, RRA and density
        /// reports equal fresh-workspace batch runs, and the detect
        /// discretizes one window wherever it takes the retained records
        /// — the whole horizon only for `MinDist` after eviction.
        #[test]
        fn detect_model_equals_batch_model_of_the_horizon(
            family in 0usize..3,
            nr in 0usize..3,
            window in 16usize..40,
            horizon_windows in 0usize..24,
            len in 600usize..2400,
            detect_gap in 150usize..600,
        ) {
            use crate::engine::tests::fingerprint;
            use crate::engine::{DensityDetector, EngineConfig, RraDetector};
            use gv_obs::LocalRecorder;
            let nr = [
                NumerosityReduction::None,
                NumerosityReduction::Exact,
                NumerosityReduction::MinDist,
            ][nr];
            let config = PipelineConfig::new(window, 4, 4)
                .unwrap()
                .with_numerosity_reduction(nr);
            // One in twelve cases runs unbounded (horizon 0).
            let horizon = if horizon_windows < 2 { 0 } else { horizon_windows * window };
            let mut det = StreamingDetector::with_recorder(config.clone(), LocalRecorder::new())
                .with_horizon(horizon);
            let rra = RraDetector::new(config.clone(), 2).with_engine(EngineConfig::sequential());
            let density = DensityDetector::new(config.clone(), 2);
            // A report as its fingerprint plus the search cost, a refusal
            // as its message.
            let bits = |report: Result<Report>| {
                report
                    .map(|r| (fingerprint(&r), r.stats))
                    .map_err(|e| e.to_string())
            };
            for i in 0..len {
                det.push(family_signal(family, len, i)).unwrap();
                if (i + 1) % detect_gap != 0 && i + 1 != len {
                    continue;
                }
                let values = det.values().to_vec();
                let reuses = nr != NumerosityReduction::MinDist || det.horizon_start() == 0;
                let windows = if reuses { 1 } else { values.len() - window + 1 };
                let batch_model = Workspace::new()
                    .build_model(&config, &values, &NoopRecorder)
                    .unwrap();
                for detector in [&rra as &dyn Detector, &density] {
                    let before = det.recorder().counter(Counter::WindowsProcessed);
                    let online = det.detect(detector);
                    let processed = det.recorder().counter(Counter::WindowsProcessed) - before;
                    proptest::prop_assert_eq!(processed, windows as u64, "windows at point {}", i);
                    let held = det.workspace.held_model().unwrap();
                    proptest::prop_assert_eq!(&held.records, &batch_model.records);
                    proptest::prop_assert!(held.dictionary.iter().eq(batch_model.dictionary.iter()));
                    proptest::prop_assert!(held.grammar.rules().eq(batch_model.grammar.rules()));
                    proptest::prop_assert_eq!(
                        (held.series_len, held.window),
                        (batch_model.series_len, batch_model.window)
                    );
                    let batch = detector.detect(
                        &SeriesView::new(&values),
                        &mut Workspace::new(),
                        &NoopRecorder,
                    );
                    proptest::prop_assert_eq!(
                        bits(online),
                        bits(batch),
                        "{} at point {}", detector.name(), i
                    );
                }
            }
        }

        /// Mid-stream differential: at random read points of a random
        /// stream (flat stretches, quantized steps, or a planted anomaly;
        /// random window and horizon, `0` = unbounded), the on-read curve
        /// equals a point-by-point recount from the engine's own model,
        /// and `alerts` equals the runs of that recount.
        #[test]
        fn curve_reads_match_naive_recount_mid_stream(
            family in 0usize..3,
            window in 16usize..48,
            horizon_windows in 0usize..24,
            len in 1200usize..4000,
            read_gap in 90usize..500,
            threshold in 0i64..3,
            maturity in 0usize..200,
        ) {
            let config = PipelineConfig::new(window, 4, 4).unwrap();
            // One in twelve cases runs unbounded (horizon 0).
            let horizon = if horizon_windows < 2 { 0 } else { horizon_windows * window };
            let mut det = StreamingDetector::new(config).with_horizon(horizon);
            let mut reads = 0;
            for i in 0..len {
                det.push(family_signal(family, len, i)).unwrap();
                if (i + 1) % read_gap == 0 || i + 1 == len {
                    reads += 1;
                    let curve = det.density_curve();
                    let naive = recount_from_model(&det);
                    proptest::prop_assert_eq!(&curve, &naive, "curve at point {}", i);
                    proptest::prop_assert_eq!(
                        det.alerts(threshold, maturity),
                        naive_alerts(&det, &naive, threshold, maturity),
                        "alerts at point {}", i
                    );
                }
            }
            proptest::prop_assert!(reads >= 3);
        }
    }

    #[test]
    fn horizon_shorter_than_window_is_clamped() {
        let config = PipelineConfig::new(50, 4, 4).unwrap();
        let det = StreamingDetector::new(config).with_horizon(10);
        assert_eq!(det.horizon(), 50);
    }
}
