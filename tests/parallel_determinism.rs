//! The execution engine's headline guarantee, end to end through the
//! facade: parallel RRA returns **bit-identical** ranked discords for any
//! thread count, and the event ledger keeps balancing under parallel
//! merge.

use grammarviz::core::{
    AnomalyPipeline, Detector, EngineConfig, PipelineConfig, RraDetector, SeriesView, Workspace,
};
use grammarviz::obs::{CollectingRecorder, EventKind, NoopRecorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn planted_series() -> Vec<f64> {
    let mut v: Vec<f64> = (0..3000).map(|i| (i as f64 / 25.0).sin()).collect();
    for (i, x) in v[1500..1600].iter_mut().enumerate() {
        *x = 0.3 * (i as f64 / 6.0).cos();
    }
    v
}

/// A noisy periodic series with one randomized planted bump.
fn random_series(seed: u64, len: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let period = rng.gen_range(12.0..40.0);
    let mut v: Vec<f64> = (0..len)
        .map(|i| (i as f64 / period).sin() + 0.05 * ((i * 7919 + seed as usize) % 97) as f64 / 97.0)
        .collect();
    let at = rng.gen_range(len / 4..3 * len / 4);
    let blen = rng.gen_range(8..24);
    for i in 0..blen.min(len - at) {
        v[at + i] +=
            rng.gen_range(0.5..1.5) * (std::f64::consts::PI * i as f64 / blen as f64).sin();
    }
    v
}

fn ranked_key(
    v: &[f64],
    config: &PipelineConfig,
    k: usize,
    threads: usize,
) -> Vec<(usize, usize, u64)> {
    let detector = RraDetector::new(config.clone(), k)
        .with_engine(EngineConfig::sequential().with_threads(threads));
    let report = detector
        .detect(&SeriesView::new(v), &mut Workspace::new(), &NoopRecorder)
        .unwrap();
    report
        .anomalies
        .iter()
        .map(|a| (a.interval.start, a.interval.len(), a.score.to_bits()))
        .collect()
}

/// Top-3 and top-5: every rank past the first resumes candidates' inner
/// scans from the states earlier ranks left behind, and those states
/// differ by thread count (workers prune at different points). The ranks
/// must not.
#[test]
fn parallel_rra_is_bit_identical_on_planted_series() {
    let v = planted_series();
    let config = PipelineConfig::new(100, 5, 4).unwrap();
    for k in [3, 5] {
        let sequential = ranked_key(&v, &config, k, 1);
        assert!(sequential.len() >= 3, "k={k}: {sequential:?}");
        for threads in [2, 4, 8] {
            assert_eq!(
                ranked_key(&v, &config, k, threads),
                sequential,
                "k={k} threads={threads}"
            );
        }
    }
}

#[test]
fn parallel_rra_is_bit_identical_on_random_series() {
    for seed in 0..4u64 {
        let v = random_series(seed + 300, 1500);
        let config = PipelineConfig::new(60, 4, 4).unwrap().with_seed(seed);
        for k in [3, 5] {
            let sequential = ranked_key(&v, &config, k, 1);
            for threads in [2, 4, 8] {
                assert_eq!(
                    ranked_key(&v, &config, k, threads),
                    sequential,
                    "seed={seed} k={k} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn pipeline_engine_config_is_thread_count_invariant() {
    let v = planted_series();
    let config = PipelineConfig::new(100, 5, 4).unwrap();
    let sequential = AnomalyPipeline::new(config.clone())
        .with_engine(EngineConfig::sequential())
        .rra_discords(&v, 3)
        .unwrap();
    let parallel = AnomalyPipeline::new(config)
        .with_engine(EngineConfig::sequential().with_threads(4))
        .rra_discords(&v, 3)
        .unwrap();
    assert_eq!(sequential.discords.len(), parallel.discords.len());
    for (s, p) in sequential.discords.iter().zip(&parallel.discords) {
        assert_eq!(s.position, p.position);
        assert_eq!(s.length, p.length);
        assert_eq!(s.distance.to_bits(), p.distance.to_bits());
    }
    assert_eq!(sequential.num_candidates, parallel.num_candidates);
}

#[test]
fn event_ledger_balances_under_parallel_search() {
    // Every candidate is wholly processed by one worker with its own
    // recorder, so the per-candidate Pruned/Completed events must still
    // sum to the run's distance-call total after the merge — the same
    // invariant the sequential ledger guarantees.
    let v = planted_series();
    let config = PipelineConfig::new(100, 5, 4).unwrap();
    for threads in [1, 4] {
        let recorder = CollectingRecorder::new();
        let detector = RraDetector::new(config.clone(), 2)
            .with_engine(EngineConfig::sequential().with_threads(threads));
        let report = detector
            .detect(&SeriesView::new(&v), &mut Workspace::new(), &recorder)
            .unwrap();
        let (_, dropped) = recorder.events_recorded_dropped();
        assert_eq!(dropped, 0, "ring must keep every event on this fixture");
        let from_events: u64 = recorder
            .events_vec()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Pruned | EventKind::Completed))
            .map(|e| e.calls)
            .sum();
        assert_eq!(
            from_events, report.stats.distance_calls,
            "threads={threads}: ledger out of balance"
        );
        assert!(report.stats.distance_calls > 0);
    }
}

/// The span-tree determinism contract: every worker's rra-inner span is
/// grafted under the same `(parent, stage)` key at merge time, so the
/// exported tree — paths, depths, and span counts — is bit-identical for
/// any thread count. (Nanos are wall-clock and machine-dependent;
/// `distance_calls`-style counters are covered above. Span *counts* are
/// thread-invariant because each candidate is scanned exactly once.)
#[test]
fn span_tree_is_identical_across_thread_counts() {
    let v = planted_series();
    let config = PipelineConfig::new(100, 5, 4).unwrap();
    let tree_shape = |threads: usize| -> Vec<(String, usize, u64)> {
        let recorder = CollectingRecorder::new();
        let detector = RraDetector::new(config.clone(), 3)
            .with_engine(EngineConfig::sequential().with_threads(threads));
        detector
            .detect(&SeriesView::new(&v), &mut Workspace::new(), &recorder)
            .unwrap();
        recorder
            .snapshot("span-shape")
            .spans
            .spans()
            .iter()
            .map(|s| (s.path.clone(), s.depth, s.count))
            .collect()
    };
    let sequential = tree_shape(1);
    assert!(
        sequential.iter().any(|(p, _, _)| p == "detect"),
        "{sequential:?}"
    );
    assert!(
        sequential
            .iter()
            .any(|(p, _, _)| p == "detect;rra-outer;rra-inner"),
        "{sequential:?}"
    );
    for threads in [2, 4, 8] {
        assert_eq!(tree_shape(threads), sequential, "threads={threads}");
    }
}

#[test]
fn workspace_capacities_freeze_after_warmup() {
    let v = planted_series();
    let config = PipelineConfig::new(100, 5, 4).unwrap();
    let detector = RraDetector::new(config, 2).with_engine(EngineConfig::sequential());
    let mut ws = Workspace::new();
    let series = SeriesView::new(&v);
    let first = detector.detect(&series, &mut ws, &NoopRecorder).unwrap();
    let sig = ws.capacity_signature();
    for _ in 0..3 {
        let again = detector.detect(&series, &mut ws, &NoopRecorder).unwrap();
        assert_eq!(
            first.anomalies[0].score.to_bits(),
            again.anomalies[0].score.to_bits()
        );
        assert_eq!(sig, ws.capacity_signature(), "workspace buffers grew");
    }
}
