//! Check 6 — the streaming differential: a bounded-horizon incremental
//! engine must be indistinguishable from a from-scratch batch run on the
//! horizon slice it retains.
//!
//! The incremental path earns its keep three ways, and each claim is
//! checked bit-for-bit:
//!
//! * **Density**: the curve the engine computes on read (occurrences
//!   mapped through its retained records, clipped to the horizon and
//!   summed by a `CoverageCounter` difference array) must equal a naive
//!   point-by-point recount over the engine's own grammar snapshot — any
//!   drift in the token-to-point mapping or the horizon clipping shows up
//!   here;
//! * **Discords**: [`StreamingDetector::detect`] over the horizon view
//!   must match a fresh batch detector on the same raw slice, interval
//!   and distance bits included (workspace reuse must be invisible);
//! * **Structure**: the evicted grammar still satisfies every Sequitur
//!   invariant, `R0` still round-trips the retained token suffix, and
//!   every occurrence still maps into bounds.
//!
//! The detect does not re-discretize the slice: it discretizes the
//! slice's first window and takes every later word from the engine's
//! retained records. Under `Exact` and `None` numerosity reduction that
//! is exact at any horizon, because whether a window is kept there
//! depends only on its own word and the previous window's. Under
//! `MinDist` a keep depends on the last *kept* word, which eviction can
//! change, so a `MinDist` engine that has evicted discretizes the whole
//! slice. A wrong word or a wrong keep changes the model: the discord
//! comparison sees it whenever it moves a discord, and a proptest in
//! gv-core holds the model itself to the batch model bit for bit. The
//! fuzz driver runs this check under all three reductions.

use gv_obs::NoopRecorder;
use gva_core::{
    Detector, EngineConfig, PipelineConfig, RraDetector, SeriesView, StreamingDetector, Workspace,
};

use crate::{
    check_grammar_invariants, check_occurrence_mapping, check_token_reconstruction, CheckReport,
    CheckResult,
};

/// Streams `values` through a [`StreamingDetector`] bounded to `horizon`
/// points (`0`: unbounded) and runs every streaming-differential check on
/// the final state. `k` and `threads` parameterize the discord search
/// exactly as in [`check_series`](crate::check_series).
///
/// # Errors
/// Whatever [`StreamingDetector::push`] rejects — non-finite input is the
/// only case, and a *valid* outcome for degenerate series (the fuzz
/// driver asserts that path separately).
pub fn check_streaming(
    values: &[f64],
    config: &PipelineConfig,
    k: usize,
    threads: usize,
    horizon: usize,
) -> gva_core::Result<CheckReport> {
    let mut det = StreamingDetector::new(config.clone()).with_horizon(horizon);
    for &v in values {
        det.push(v)?;
    }

    let mut report = CheckReport::default();
    report.results.push(check_retained_values(&det, values));
    report.results.push(check_streaming_density(&det));

    let model = det.model()?;
    report.results.push(check_grammar_invariants(&model));
    report.results.push(check_token_reconstruction(&model));
    report.results.push(check_occurrence_mapping(&model));

    report
        .results
        .push(check_streaming_detect(&mut det, config, k, threads));
    Ok(report)
}

/// The retained window of raw points must be exactly the stream's suffix
/// — `SlidingBuf` compaction is not allowed to disturb a single bit.
fn check_retained_values(det: &StreamingDetector, values: &[f64]) -> CheckResult {
    let mut result = CheckResult::pass("retained values equal the stream suffix");
    let retained = det.values();
    let suffix = &values[det.horizon_start()..];
    if retained.len() != suffix.len() {
        result.violations.push(format!(
            "engine retains {} points, the suffix has {}",
            retained.len(),
            suffix.len()
        ));
        return result;
    }
    for (i, (&a, &b)) in retained.iter().zip(suffix).enumerate() {
        if a.to_bits() != b.to_bits() {
            result.violations.push(format!(
                "retained point {} (absolute {}): engine holds {a}, stream said {b}",
                i,
                det.horizon_start() + i
            ));
            if result.violations.len() >= 8 {
                result
                    .violations
                    .push("… (further mismatches elided)".into());
                break;
            }
        }
    }
    result
}

/// The engine's on-read density curve must equal a naive point-by-point
/// recount over its *own* grammar snapshot, clipped to the retained
/// region — the streaming analogue of
/// [`check_density_recount`](crate::check_density_recount).
fn check_streaming_density(det: &StreamingDetector) -> CheckResult {
    let mut result =
        CheckResult::pass("streaming density curve equals a recount from its own grammar");
    let model = match det.model() {
        Ok(m) => m,
        Err(e) => {
            result
                .violations
                .push(format!("engine refused to snapshot a model: {e}"));
            return result;
        }
    };
    let tail = det.horizon_start();
    let curve = det.density_curve();
    let mut naive = vec![0i64; det.values().len()];
    for occ in model.grammar.occurrences() {
        let iv = model.occurrence_interval(&occ);
        let lo = iv.start.max(tail) - tail;
        let hi = iv.end.min(det.len()) - tail;
        for point in &mut naive[lo..hi] {
            *point += 1;
        }
    }
    if curve.len() != naive.len() {
        result.violations.push(format!(
            "curve has {} points, the retained region {}",
            curve.len(),
            naive.len()
        ));
        return result;
    }
    for (i, (&fast, &slow)) in curve.iter().zip(&naive).enumerate() {
        if fast != slow {
            result.violations.push(format!(
                "density at retained point {i} (absolute {}): engine curve \
                 says {fast}, naive recount {slow}",
                tail + i
            ));
            if result.violations.len() >= 8 {
                result
                    .violations
                    .push("… (further mismatches elided)".into());
                break;
            }
        }
    }
    result
}

/// Discords through the streaming engine's horizon view vs a from-scratch
/// batch run on the identical raw slice: the outcomes must agree — same
/// refusal on degenerate slices, otherwise the same ranked intervals with
/// bit-identical distances.
fn check_streaming_detect(
    det: &mut StreamingDetector,
    config: &PipelineConfig,
    k: usize,
    threads: usize,
) -> CheckResult {
    let mut result =
        CheckResult::pass("streaming detect is bit-identical to batch on the horizon slice");
    let engine = EngineConfig::sequential().with_threads(threads);
    let streamed = det.detect(&RraDetector::new(config.clone(), k).with_engine(engine));
    let mut ws = Workspace::new();
    let batch = RraDetector::new(config.clone(), k)
        .with_engine(engine)
        .detect(&SeriesView::new(det.values()), &mut ws, &NoopRecorder);
    match (streamed, batch) {
        (Ok(s), Ok(b)) => {
            let (s, b) = (s.to_rra(), b.to_rra());
            if s.discords.len() != b.discords.len() {
                result.violations.push(format!(
                    "streaming found {} discord(s), batch {}",
                    s.discords.len(),
                    b.discords.len()
                ));
                return result;
            }
            for (a, b) in s.discords.iter().zip(&b.discords) {
                if a.position != b.position
                    || a.length != b.length
                    || a.distance.to_bits() != b.distance.to_bits()
                {
                    result.violations.push(format!(
                        "rank {}: streaming {} at {}, batch {} at {}",
                        a.rank,
                        a.distance,
                        a.interval(),
                        b.distance,
                        b.interval()
                    ));
                }
            }
        }
        (Err(s), Err(b)) => {
            if s.to_string() != b.to_string() {
                result.violations.push(format!(
                    "streaming refused with \"{s}\", batch with \"{b}\""
                ));
            }
        }
        (Ok(_), Err(e)) => result
            .violations
            .push(format!("batch refused where streaming ran: {e}")),
        (Err(e), Ok(_)) => result
            .violations
            .push(format!("streaming refused where batch ran: {e}")),
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_with_anomaly(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                if (2500..2560).contains(&i) {
                    0.05 * (i as f64)
                } else {
                    (i as f64 / 12.0).sin() + 0.3 * (i as f64 / 70.0).sin()
                }
            })
            .collect()
    }

    #[test]
    fn evicting_horizon_passes_every_check() {
        let values = sine_with_anomaly(4000);
        let config = PipelineConfig::new(40, 4, 4).unwrap();
        let report = check_streaming(&values, &config, 2, 1, 900).unwrap();
        assert!(report.passed(), "\n{}", report.render());
    }

    #[test]
    fn evicting_horizon_passes_with_parallel_search() {
        let values = sine_with_anomaly(4000);
        let config = PipelineConfig::new(40, 4, 4).unwrap();
        let report = check_streaming(&values, &config, 2, 4, 1200).unwrap();
        assert!(report.passed(), "\n{}", report.render());
    }

    #[test]
    fn unbounded_horizon_passes_every_check() {
        let values = sine_with_anomaly(1500);
        let config = PipelineConfig::new(32, 4, 4).unwrap();
        let report = check_streaming(&values, &config, 2, 1, 0).unwrap();
        assert!(report.passed(), "\n{}", report.render());
    }

    #[test]
    fn degenerate_slice_counts_as_agreement() {
        // Constant input: both sides must refuse identically.
        let values = vec![3.25; 800];
        let config = PipelineConfig::new(30, 4, 4).unwrap();
        let report = check_streaming(&values, &config, 1, 1, 400).unwrap();
        assert!(report.passed(), "\n{}", report.render());
    }

    #[test]
    fn non_finite_input_propagates() {
        let mut values = sine_with_anomaly(600);
        values[300] = f64::NAN;
        let config = PipelineConfig::new(30, 4, 4).unwrap();
        assert!(check_streaming(&values, &config, 1, 1, 200).is_err());
    }
}
