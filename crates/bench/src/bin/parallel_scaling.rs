//! Parallel RRA scaling check: runs the same search at 1, 2, 4, and 8
//! worker threads on an ECG-scale synthetic record, verifies the ranked
//! discords are **bit-identical** to the sequential run (the engine's
//! determinism guarantee), and writes one trace per thread count (at the
//! current `gv_obs::SCHEMA_VERSION`) to `BENCH_parallel.json`. Each
//! instrumented run also includes a density pass on the same view, so
//! every pipeline stage reports a nonzero duration in the export and the
//! density pass reuses the RRA run's model (`model_reuses` 1).
//!
//! Every detect gets a fresh `SeriesView`: a view the workspace has
//! already built a model for would be a model-slot hit, and the timed
//! reps would then measure the search alone instead of the pipeline.
//!
//! ```text
//! cargo run -p gv-bench --release --bin parallel_scaling [-- OUT.json [<points>]]
//! ```
//!
//! Wall-clock numbers are reported honestly for whatever machine runs
//! this: speedup only materializes with real cores (`nproc > 1`); on a
//! single-core runner the parallel runs show scheduling overhead instead.
//! The determinism check is the hard gate — any cross-thread-count
//! divergence in the ranked discords exits non-zero.

use std::time::Instant;

use gv_bench::report;
use gv_datasets::ecg::ecg_record;
use gva_core::obs::CollectingRecorder;
use gva_core::{
    DensityDetector, Detector, EngineConfig, PipelineConfig, RraDetector, SeriesView, Workspace,
};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 3;

/// Ranked-discord identity: (start, length, score bits) per rank.
type RankedKey = Vec<(usize, usize, u64)>;

fn main() {
    let mut argv = std::env::args().skip(1);
    let out = argv
        .next()
        .unwrap_or_else(|| "BENCH_parallel.json".to_string());
    let points: usize = argv
        .next()
        .map(|s| s.parse().expect("points must be an integer"))
        .unwrap_or(20_000);

    let data = ecg_record("ECG 300 (synthetic)", points, 300, 3, 0x300);
    let values = data.series.values();
    let config = PipelineConfig::new(300, 4, 4).expect("valid params");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!(
        "Parallel RRA scaling — ECG {points} points, window 300, top 3 \
         ({cores} core(s) available)\n"
    );
    println!(
        "{:<8} {:>12} {:>12} {:>10}   determinism",
        "threads", "wall (ms)", "calls", "speedup"
    );

    let mut baseline: Option<(RankedKey, f64)> = None;
    let mut lines = Vec::new();
    let mut divergent = false;
    for threads in THREAD_COUNTS {
        let detector = RraDetector::new(config.clone(), 3)
            .with_engine(EngineConfig::sequential().with_threads(threads));
        let mut ws = Workspace::new();
        // Warm-up run (fills the workspace buffers), then best-of-REPS.
        let warm = detector
            .detect(
                &SeriesView::new(values),
                &mut ws,
                &gva_core::obs::NoopRecorder,
            )
            .expect("pipeline runs");
        let mut best_ns = u64::MAX;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let rep = detector
                .detect(
                    &SeriesView::new(values),
                    &mut ws,
                    &gva_core::obs::NoopRecorder,
                )
                .expect("pipeline runs");
            let ns = t0.elapsed().as_nanos() as u64;
            best_ns = best_ns.min(ns);
            assert_eq!(rep.anomalies.len(), warm.anomalies.len());
        }
        // One instrumented run for the exported counters, plus a density
        // pass into the same recorder — without it the density stage
        // reads 0 ns in the export (RRA alone never touches it).
        let recorder = CollectingRecorder::new();
        let series = SeriesView::new(values);
        let report = detector
            .detect(&series, &mut ws, &recorder)
            .expect("pipeline runs");
        DensityDetector::new(config.clone(), 3)
            .detect(&series, &mut ws, &recorder)
            .expect("pipeline runs");

        let key: RankedKey = report
            .anomalies
            .iter()
            .map(|a| (a.interval.start, a.interval.len(), a.score.to_bits()))
            .collect();
        let wall_ms = best_ns as f64 / 1e6;
        let (verdict, speedup) = match &baseline {
            None => {
                baseline = Some((key.clone(), wall_ms));
                ("baseline".to_string(), 1.0)
            }
            Some((base_key, base_ms)) => {
                let ok = *base_key == key;
                divergent |= !ok;
                (
                    if ok {
                        "bit-identical".to_string()
                    } else {
                        format!("DIVERGED ({base_key:?} vs {key:?})")
                    },
                    base_ms / wall_ms,
                )
            }
        };
        println!(
            "{:<8} {:>12.2} {:>12} {:>9.2}x   {}",
            threads,
            wall_ms,
            report::thousands(report.stats.distance_calls as u128),
            speedup,
            verdict
        );

        let trace = recorder
            .snapshot("parallel_scaling")
            .with_param("threads", threads as u64)
            .with_param("points", points as u64)
            .with_param("window", 300)
            .with_param("top", 3)
            .with_param("cores", cores as u64)
            .with_param("wall_ns", best_ns)
            .with_param("deterministic", u64::from(!divergent));
        lines.push(trace.to_jsonl());
    }

    report::write_lines(std::path::Path::new(&out), &lines).expect("write BENCH_parallel.json");
    println!("\nwrote {} trace(s) to {out}", lines.len());
    println!(
        "note: wall-clock speedup needs real cores; the ranked-discord \
         bit-equality above is the machine-independent guarantee."
    );
    if divergent {
        eprintln!("parallel_scaling: FAIL — ranked discords diverged across thread counts");
        std::process::exit(1);
    }
}
