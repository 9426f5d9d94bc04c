//! The traced pass: the per-layer numbers. It runs apart from the timed
//! end-to-end phase and spends `--seconds` on the workload's inputs, each
//! taken three times in a row so that all three see the machine alike:
//!
//! 1. the workload's own unit (a job, or a whole stream pass) under
//!    `NoopRecorder`, then again under `CollectingRecorder`: this gives
//!    `obs.overhead_ratio`, the untraced unit time that
//!    `obs.explained_frac` divides by, and the SAX work counters;
//! 2. the benchmark itself calling each layer's public function in turn
//!    on the same input and timing every call.
//!
//! The closed loops then replay their inputs through the incremental
//! SAX, bounded Sequitur and streaming layers (the stream does this in
//! step 2), and every workload times the distance kernels on windows cut
//! from its first input.
//!
//! Every layer is measured on every workload, on that workload's data.
//! A layer the workload's unit does not call (RRA on `density-long`, the
//! streaming layers on the closed loops) is a probe: it says what the
//! layer costs on that data, and does not enter `obs.explained_frac`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use gv_discord::distance::{euclidean_early, euclidean_early_resampled};
use gv_sax::{IncrementalDiscretizer, SaxDictionary, SaxRecord};
use gv_sequitur::Sequitur;
use gv_timeseries::{Resampled, SeriesStats, DEFAULT_ZNORM_THRESHOLD};
use gva_core::obs::{CollectingRecorder, Counter, NoopRecorder, Recorder};
use gva_core::{
    rule_intervals_into, DensityDetector, PipelineConfig, RraDetector, RuleInterval,
    StreamingDetector, Workspace,
};

use crate::spec::{self, BatchEngine, Workload, DETECT_EVERY, STREAM_HORIZON};
use crate::stats::{median, ns_since, Metric};

/// Every per-layer metric, in reporting order, with its unit.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("sax.discretize_ms", "ms"),
    ("sax.discretize_ns_per_window", "ns"),
    ("sax.windows_per_job", "count"),
    ("sax.kept_frac", "ratio"),
    ("sax.intern_ms", "ms"),
    ("sax.incremental_ns_per_point", "ns"),
    ("sequitur.induce_ms", "ms"),
    ("sequitur.ns_per_token", "ns"),
    ("sequitur.bounded_ns_per_token", "ns"),
    ("sequitur.evict_ns_per_token", "ns"),
    ("sequitur.rules_created", "count"),
    ("sequitur.tokens_evicted", "count"),
    ("sequitur.rules_relearned", "count"),
    ("core.build_model_ms", "ms"),
    ("core.intervals_ms", "ms"),
    ("core.candidates", "count"),
    ("core.rra.search_ms", "ms"),
    ("core.rra.distance_calls", "count"),
    ("core.rra.abandon_frac", "ratio"),
    ("core.rra.pruned_frac", "ratio"),
    ("core.rra.ns_per_call", "ns"),
    ("discord.kernel_ns.w300", "ns"),
    ("discord.kernel_ns.w304", "ns"),
    ("discord.kernel_ns.resampled", "ns"),
    ("timeseries.stats_ms", "ms"),
    ("core.density.report_ms", "ms"),
    ("core.streaming.push_ns", "ns"),
    ("core.streaming.rebuild_ms", "ms"),
    ("core.streaming.search_ms", "ms"),
    ("core.streaming.density_curve_ms", "ms"),
    ("core.streaming.alerts_ms", "ms"),
    ("core.streaming.density_recounts", "count"),
    ("obs.overhead_ratio", "ratio"),
    ("obs.explained_frac", "ratio"),
];

/// Share of `--seconds` the closed loops spend on steps 1 and 2.
const UNIT_SHARE: f64 = 0.7;
/// Windows per shape in the kernel probe (all pairs are compared).
const KERNEL_WINDOWS: usize = 32;
/// Repetitions of the kernel probe; the metric is their median.
const KERNEL_REPS: usize = 15;

/// Samples per metric name; each metric is the median of its samples.
#[derive(Default)]
struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    fn add(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    fn add_ns_as_ms(&mut self, name: &'static str, ns: u64) {
        self.add(name, ns as f64 / 1e6);
    }

    fn median(&mut self, name: &str) -> f64 {
        self.samples.get_mut(name).map_or(f64::NAN, |v| median(v))
    }

    fn count(&self, name: &str) -> usize {
        self.samples.get(name).map_or(0, Vec::len)
    }
}

/// Scratch and detectors for calling the layers one by one.
struct Probe {
    config: PipelineConfig,
    rra: RraDetector,
    density: DensityDetector,
    ws: Workspace,
    records: Vec<SaxRecord>,
    zbuf: Vec<f64>,
    pbuf: Vec<f64>,
    dictionary: SaxDictionary,
    tokens: Vec<u32>,
    candidates: Vec<RuleInterval>,
}

impl Probe {
    fn new(workload: Workload) -> Self {
        let config = workload.config();
        let (rra, density) = spec::detectors(workload);
        Self {
            config,
            rra,
            density,
            ws: Workspace::new(),
            records: Vec::new(),
            zbuf: Vec::new(),
            pbuf: Vec::new(),
            dictionary: SaxDictionary::new(),
            tokens: Vec::new(),
            candidates: Vec::new(),
        }
    }

    /// Discretizes and interns `values` into `records`/`tokens`, timing
    /// both steps into `out`.
    fn tokenize(&mut self, values: &[f64], out: &mut Layers) -> Result<(), String> {
        let t = Instant::now();
        self.config
            .sax()
            .discretize_into(
                values,
                self.config.numerosity_reduction(),
                &NoopRecorder,
                &mut self.records,
                &mut self.zbuf,
                &mut self.pbuf,
            )
            .map_err(|e| e.to_string())?;
        let ns = ns_since(t);
        let windows = values.len() + 1 - self.config.window();
        out.add_ns_as_ms("sax.discretize_ms", ns);
        out.add("sax.discretize_ns_per_window", ns as f64 / windows as f64);

        let t = Instant::now();
        self.dictionary.clear();
        self.tokens.clear();
        for rec in &self.records {
            self.tokens.push(self.dictionary.intern(&rec.word));
        }
        out.add_ns_as_ms("sax.intern_ms", ns_since(t));
        Ok(())
    }

    /// Calls every batch layer on one series, in pipeline order.
    fn series(&mut self, values: &[f64], out: &mut Layers) -> Result<(), String> {
        let t = Instant::now();
        black_box(SeriesStats::new(values));
        out.add_ns_as_ms("timeseries.stats_ms", ns_since(t));

        self.tokenize(values, out)?;
        let t = Instant::now();
        let mut seq = Sequitur::new();
        for &tok in &self.tokens {
            seq.push(tok);
        }
        let created = seq.stats().rules_created;
        black_box(seq.finish());
        let ns = ns_since(t);
        out.add_ns_as_ms("sequitur.induce_ms", ns);
        out.add(
            "sequitur.ns_per_token",
            ns as f64 / self.tokens.len().max(1) as f64,
        );
        out.add("sequitur.rules_created", created as f64);

        let t = Instant::now();
        let model = self
            .ws
            .build_model(&self.config, values, &NoopRecorder)
            .map_err(|e| e.to_string())?;
        out.add_ns_as_ms("core.build_model_ms", ns_since(t));

        let t = Instant::now();
        rule_intervals_into(&model, &mut self.candidates);
        out.add_ns_as_ms("core.intervals_ms", ns_since(t));

        let t = Instant::now();
        let searched = self
            .rra
            .search_model(values, &model, &mut self.ws, &NoopRecorder);
        let ns = ns_since(t);
        let report = searched.map_err(|e| e.to_string())?;
        let s = report.stats;
        out.add_ns_as_ms("core.rra.search_ms", ns);
        out.add("core.candidates", report.num_candidates as f64);
        out.add("core.rra.distance_calls", s.distance_calls as f64);
        out.add(
            "core.rra.abandon_frac",
            s.early_abandoned as f64 / s.distance_calls.max(1) as f64,
        );
        out.add(
            "core.rra.pruned_frac",
            s.candidates_pruned as f64
                / (s.candidates_pruned + s.candidates_completed).max(1) as f64,
        );
        out.add(
            "core.rra.ns_per_call",
            ns as f64 / s.distance_calls.max(1) as f64,
        );

        let t = Instant::now();
        black_box(self.density.report_model(&model, &NoopRecorder));
        out.add_ns_as_ms("core.density.report_ms", ns_since(t));
        self.ws.recycle_model(model);
        Ok(())
    }

    /// Replays `values` as a stream through the incremental SAX, bounded
    /// Sequitur and streaming layers; with `detect_series`, also calls
    /// every batch layer on the retained horizon at each detect.
    fn stream(
        &mut self,
        values: &[f64],
        detect_series: bool,
        out: &mut Layers,
    ) -> Result<(), String> {
        let window = self.config.window();

        let mut inc = IncrementalDiscretizer::new(self.config.sax());
        let t = Instant::now();
        for &v in values {
            black_box(inc.push(v));
        }
        out.add(
            "sax.incremental_ns_per_point",
            ns_since(t) as f64 / values.len() as f64,
        );

        // The stream's tokens, pushed in order and evicted once their
        // window slides out of the horizon, as the streaming engine does.
        let mut scratch = Layers::default();
        self.tokenize(values, &mut scratch)?;
        let mut seq = Sequitur::new();
        let mut front = 0;
        let mut evict_ns = 0u64;
        let t = Instant::now();
        for (i, rec) in self.records.iter().enumerate() {
            seq.push(self.tokens[i]);
            let boundary = (rec.offset + window).saturating_sub(STREAM_HORIZON);
            let mut n = 0;
            while front + n <= i && self.records[front + n].offset < boundary {
                n += 1;
            }
            if n > 0 {
                let te = Instant::now();
                seq.evict_front(n);
                evict_ns += ns_since(te);
                front += n;
            }
        }
        let total_ns = ns_since(t);
        let stats = seq.stats();
        out.add(
            "sequitur.bounded_ns_per_token",
            total_ns as f64 / self.records.len().max(1) as f64,
        );
        out.add(
            "sequitur.evict_ns_per_token",
            evict_ns as f64 / stats.tokens_evicted.max(1) as f64,
        );
        out.add("sequitur.tokens_evicted", stats.tokens_evicted as f64);
        out.add("sequitur.rules_relearned", stats.rules_relearned as f64);
        out.add(
            "obs.stream_tokens_per_cycle",
            self.records.len() as f64 * DETECT_EVERY as f64 / values.len() as f64,
        );

        let recorder = CollectingRecorder::new();
        let mut det = StreamingDetector::with_recorder(self.config.clone(), &recorder)
            .with_horizon(STREAM_HORIZON);
        let mut push_ns = 0u64;
        for (i, &v) in values.iter().enumerate() {
            let t = Instant::now();
            det.push(v).map_err(|e| e.to_string())?;
            push_ns += ns_since(t);
            if (i + 1) % DETECT_EVERY != 0 {
                continue;
            }
            let t = Instant::now();
            let model = self
                .ws
                .build_model(&self.config, det.values(), &NoopRecorder)
                .map_err(|e| e.to_string())?;
            out.add_ns_as_ms("core.streaming.rebuild_ms", ns_since(t));
            let t = Instant::now();
            let searched = self
                .rra
                .search_model(det.values(), &model, &mut self.ws, &NoopRecorder);
            out.add_ns_as_ms("core.streaming.search_ms", ns_since(t));
            searched.map_err(|e| e.to_string())?;
            self.ws.recycle_model(model);
            let t = Instant::now();
            black_box(det.density_curve());
            out.add_ns_as_ms("core.streaming.density_curve_ms", ns_since(t));
            let t = Instant::now();
            black_box(det.alerts(0, 2 * window));
            out.add_ns_as_ms("core.streaming.alerts_ms", ns_since(t));
            if detect_series {
                self.series(det.values(), out)?;
            }
        }
        out.add(
            "core.streaming.push_ns",
            push_ns as f64 / values.len() as f64,
        );
        out.add(
            "core.streaming.density_recounts",
            recorder.counter(Counter::DensityRecounts) as f64,
        );
        Ok(())
    }
}

/// Nanoseconds per full comparison of the distance kernels on windows
/// cut from `values`: 300 points (a 4-point scalar tail), 304 (whole
/// 8-point chunks only), and 375 points resampled to 300 on the fly.
fn kernels(values: &[f64], out: &mut Layers) {
    let stats = SeriesStats::new(values);
    let normed = |len: usize| -> Vec<f64> {
        let step = (values.len() - len) / (KERNEL_WINDOWS - 1);
        let mut normed = vec![0.0; KERNEL_WINDOWS * len];
        for (w, chunk) in normed.chunks_exact_mut(len).enumerate() {
            let start = w * step;
            stats.znorm_window_into(values, start, start + len, DEFAULT_ZNORM_THRESHOLD, chunk);
        }
        normed
    };
    let pairs = (KERNEL_WINDOWS * (KERNEL_WINDOWS - 1)) as f64;
    for (name, len) in [
        ("discord.kernel_ns.w300", 300),
        ("discord.kernel_ns.w304", 304),
    ] {
        let windows = normed(len);
        for _ in 0..KERNEL_REPS {
            let mut sink = 0.0;
            let t = Instant::now();
            for (p, a) in windows.chunks_exact(len).enumerate() {
                for (q, b) in windows.chunks_exact(len).enumerate() {
                    if p != q {
                        sink += euclidean_early(&NoopRecorder, a, b, f64::INFINITY).unwrap_or(0.0);
                    }
                }
            }
            out.add(name, ns_since(t) as f64 / pairs);
            black_box(sink);
        }
    }
    let (len, src_len) = (300, 375);
    let targets = normed(len);
    let sources = normed(src_len);
    for _ in 0..KERNEL_REPS {
        let mut sink = 0.0;
        let t = Instant::now();
        for (p, a) in targets.chunks_exact(len).enumerate() {
            for (q, src) in sources.chunks_exact(src_len).enumerate() {
                if p != q {
                    let b = Resampled::new(src, len);
                    sink += euclidean_early_resampled(&NoopRecorder, a, &b, f64::INFINITY)
                        .unwrap_or(0.0);
                }
            }
        }
        out.add("discord.kernel_ns.resampled", ns_since(t) as f64 / pairs);
        black_box(sink);
    }
}

/// Times one closed-loop job under `recorder`.
fn timed_job(
    engine: &mut BatchEngine,
    values: &[f64],
    recorder: &dyn Recorder,
) -> Result<u64, String> {
    let t = Instant::now();
    black_box(engine.job(values, recorder)?);
    Ok(ns_since(t))
}

/// Busy time of one unscheduled stream pass under `recorder`, and the
/// SAX window/word counts the detects added to it.
fn timed_pass<R: Recorder>(
    values: &[f64],
    recorder: R,
    counts: Option<&CollectingRecorder>,
) -> Result<(u64, u64, u64), String> {
    let rra = spec::stream_rra();
    let mut det = spec::stream_engine(recorder);
    let (mut busy, mut windows, mut words) = (0u64, 0u64, 0u64);
    let read = |c: Counter| counts.map_or(0, |r| r.counter(c));
    for (i, &v) in values.iter().enumerate() {
        let t = Instant::now();
        det.push(v).map_err(|e| e.to_string())?;
        busy += ns_since(t);
        if (i + 1) % DETECT_EVERY == 0 {
            let (w0, k0) = (read(Counter::WindowsProcessed), read(Counter::WordsEmitted));
            let t = Instant::now();
            black_box(spec::stream_detect(&mut det, &rra)?);
            busy += ns_since(t);
            windows += read(Counter::WindowsProcessed) - w0;
            words += read(Counter::WordsEmitted) - k0;
        }
    }
    Ok((busy, windows, words))
}

/// Runs the traced pass; returns every [`PER_LAYER`] metric, then extra
/// table-only rows.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    let budget = Duration::from_secs_f64(seconds);
    let phase = Instant::now();
    let mut out = Layers::default();
    let mut noop_unit_ms = Vec::new();
    let mut traced_unit_ms = Vec::new();
    let mut probe = Probe::new(workload);
    let mut input = 0u64;
    let detects_per_pass = (workload.input_len() / DETECT_EVERY) as f64;

    kernels(&workload.input(seed, 0), &mut out);
    match workload {
        Workload::Stream => {
            crate::timed::setup_stream(seed)?;
            while input == 0 || phase.elapsed() < budget {
                let values = workload.input(seed, input);
                let (noop, _, _) = timed_pass(&values, NoopRecorder, None)?;
                let recorder = CollectingRecorder::new();
                let (traced, windows, words) = timed_pass(&values, &recorder, Some(&recorder))?;
                noop_unit_ms.push(noop as f64 / 1e6 / detects_per_pass);
                traced_unit_ms.push(traced as f64 / 1e6 / detects_per_pass);
                out.add("sax.windows_per_job", windows as f64 / detects_per_pass);
                out.add("sax.kept_frac", words as f64 / windows.max(1) as f64);
                probe.stream(&values, true, &mut out)?;
                input += 1;
            }
        }
        _ => {
            let mut engine = crate::timed::setup_batch(workload, seed)?;
            while input < 3 || phase.elapsed() < budget.mul_f64(UNIT_SHARE) {
                let values = workload.input(seed, input);
                noop_unit_ms.push(timed_job(&mut engine, &values, &NoopRecorder)? as f64 / 1e6);
                let recorder = CollectingRecorder::new();
                traced_unit_ms.push(timed_job(&mut engine, &values, &recorder)? as f64 / 1e6);
                let windows = recorder.counter(Counter::WindowsProcessed);
                out.add("sax.windows_per_job", windows as f64);
                out.add(
                    "sax.kept_frac",
                    recorder.counter(Counter::WordsEmitted) as f64 / windows.max(1) as f64,
                );
                probe.series(&values, &mut out)?;
                input += 1;
            }
            let mut replayed = 0;
            while replayed == 0 || phase.elapsed() < budget {
                probe.stream(&workload.input(seed, replayed % input), false, &mut out)?;
                replayed += 1;
            }
        }
    }

    let noop_ms = median(&mut noop_unit_ms);
    let traced_ms = median(&mut traced_unit_ms);
    out.add("obs.overhead_ratio", traced_ms / noop_ms);
    let explained_ms = explained(workload, &mut out);
    out.add("obs.explained_frac", explained_ms / noop_ms);

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let samples = out.count(name);
            Metric::new(name, unit, out.median(name), samples)
        })
        .collect();
    let unit = workload.unit();
    let extra = vec![
        Metric::new(
            format!("obs.{unit}_noop_ms"),
            "ms",
            noop_ms,
            noop_unit_ms.len(),
        ),
        Metric::new(
            format!("obs.{unit}_traced_ms"),
            "ms",
            traced_ms,
            traced_unit_ms.len(),
        ),
        Metric::new("obs.explained_ms", "ms", explained_ms, 1),
        Metric::new("obs.unexplained_ms", "ms", noop_ms - explained_ms, 1),
        Metric::new(
            "core.build_model_glue_ms",
            "ms",
            out.median("core.build_model_ms")
                - out.median("sax.discretize_ms")
                - out.median("sax.intern_ms")
                - out.median("sequitur.induce_ms"),
            out.count("core.build_model_ms"),
        ),
    ];
    Ok((metrics, extra))
}

/// Milliseconds of one unit explained by the leaf layers it calls: each
/// layer's calls per unit times its median time per call.
fn explained(workload: Workload, out: &mut Layers) -> f64 {
    let model = out.median("sax.discretize_ms")
        + out.median("sax.intern_ms")
        + out.median("sequitur.induce_ms");
    match workload {
        // RRA and density each build their own model today.
        Workload::Batch => {
            2.0 * model + out.median("core.rra.search_ms") + out.median("core.density.report_ms")
        }
        Workload::DensityLong => model + out.median("core.density.report_ms"),
        // Per detect cycle: the pushes' SAX and Sequitur work, the
        // detect's model rebuild and search, and the alert scan.
        Workload::Stream => {
            let points = DETECT_EVERY as f64;
            let tokens = out.median("obs.stream_tokens_per_cycle");
            (points * out.median("sax.incremental_ns_per_point")
                + tokens * out.median("sequitur.bounded_ns_per_token"))
                / 1e6
                + model
                + out.median("core.streaming.search_ms")
                + out.median("core.streaming.alerts_ms")
        }
    }
}
