//! Streaming throughput flatness check: replays ECG records of 10k and
//! 100k points through the bounded-horizon [`StreamingDetector`]
//! (push every point, exact RRA re-detection every few thousand) and
//! verifies the per-point cost stays **flat** — within 1.5x between the
//! two history sizes. With the horizon fixed, the engine's work per push
//! (incremental SAX, interning, one Sequitur push, front eviction) and
//! per read (the density curve, computed from the live grammar in
//! O(horizon + occurrences) by each `alerts` call) is bounded by the
//! retained window, never by how long the stream has been running; a
//! super-linear drift here means eviction is leaking state. Writes one
//! trace per history size (at the current
//! `gv_obs::SCHEMA_VERSION`) to `BENCH_stream.json`.
//!
//! ```text
//! cargo run -p gv-bench --release --bin streaming_throughput [-- OUT.json]
//! ```
//!
//! Wall-clock figures are machine-dependent; the machine-independent
//! guarantee is the *ratio* — both sizes run the same per-point work, so
//! any ratio above the gate is algorithmic, not noise. The gate exits
//! non-zero on breach.

use std::time::Instant;

use gv_bench::report;
use gv_datasets::ecg::ecg_record;
use gva_core::obs::{CollectingRecorder, NoopRecorder, Recorder};
use gva_core::{EngineConfig, PipelineConfig, RraDetector, StreamingDetector};

/// History sizes whose per-point cost must agree.
const HISTORY: [usize; 2] = [10_000, 100_000];
/// Retained horizon: identical for both sizes, so per-push work matches.
const HORIZON: usize = 4_096;
/// Exact-detection cadence (same per-point amortization at both sizes).
const DETECT_EVERY: usize = 2_500;
/// Best-of repetitions per history size.
const REPS: usize = 3;
/// Per-point cost ratio (100k vs 10k) above which the gate fails.
const MAX_RATIO: f64 = 1.5;

/// One full pass: push every point through a fresh bounded stream, run
/// the exact discord search every `DETECT_EVERY` points plus once at the
/// end, and scan for alerts. Returns the number of points streamed.
fn run_pass(values: &[f64], config: &PipelineConfig, recorder: &dyn Recorder) -> usize {
    let rra = RraDetector::new(config.clone(), 2).with_engine(EngineConfig::sequential());
    let mut det = StreamingDetector::with_recorder(config.clone(), recorder).with_horizon(HORIZON);
    for (i, &v) in values.iter().enumerate() {
        det.push(v).expect("stream push");
        if (i + 1) % DETECT_EVERY == 0 {
            det.detect(&rra).expect("periodic detect");
        }
    }
    det.detect(&rra).expect("final detect");
    let _ = det.alerts(0, 2 * config.window());
    det.len()
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_stream.json".to_string());

    let config = PipelineConfig::new(150, 4, 4).expect("valid params");
    println!(
        "Streaming throughput — horizon {HORIZON}, window 150, exact detect \
         every {DETECT_EVERY} points\n"
    );
    println!(
        "{:<10} {:>12} {:>12} {:>12}",
        "points", "wall (ms)", "ns/point", "pts/sec"
    );

    let mut results = Vec::new();
    for points in HISTORY {
        let data = ecg_record("bench streaming throughput", points, 150, 2, 0x150);
        let values = data.series.values();

        // Warm-up pass (allocator, lazy init), then best-of-REPS.
        assert_eq!(run_pass(values, &config, &NoopRecorder), points);
        let mut best_ns = u64::MAX;
        for _ in 0..REPS {
            let t0 = Instant::now();
            run_pass(values, &config, &NoopRecorder);
            best_ns = best_ns.min(t0.elapsed().as_nanos() as u64);
        }
        // One instrumented pass for the exported spans and counters.
        let recorder = CollectingRecorder::new();
        run_pass(values, &config, &recorder);

        let ns_per_point = best_ns as f64 / points as f64;
        println!(
            "{:<10} {:>12.2} {:>12.1} {:>12}",
            points,
            best_ns as f64 / 1e6,
            ns_per_point,
            report::thousands((1e9 / ns_per_point) as u128),
        );
        results.push((points, best_ns, ns_per_point, recorder));
    }

    let (_, _, base_ns_pp, _) = &results[0];
    let ratio = results[1].2 / base_ns_pp;
    let flat = ratio <= MAX_RATIO;
    println!(
        "\nper-point cost ratio ({}k vs {}k): {ratio:.3}x (gate: <= {MAX_RATIO}x)",
        HISTORY[1] / 1000,
        HISTORY[0] / 1000,
    );

    let mut lines = Vec::new();
    for (points, best_ns, ns_per_point, recorder) in &results {
        let trace = recorder
            .snapshot("streaming_throughput")
            .with_param("points", *points as u64)
            .with_param("horizon", HORIZON as u64)
            .with_param("window", 150)
            .with_param("detect_every", DETECT_EVERY as u64)
            .with_param("wall_ns", *best_ns)
            .with_param("ns_per_point", ns_per_point.round() as u64)
            .with_param("ratio_milli", (ratio * 1000.0).round() as u64)
            .with_param("flat", u64::from(flat));
        lines.push(trace.to_jsonl());
    }
    report::write_lines(std::path::Path::new(&out), &lines).expect("write BENCH_stream.json");
    println!("wrote {} trace(s) to {out}", lines.len());

    if !flat {
        eprintln!(
            "streaming_throughput: FAIL — per-point cost grew {ratio:.3}x \
             from {} to {} points of history (gate {MAX_RATIO}x); the \
             bounded horizon should make this flat",
            HISTORY[0], HISTORY[1]
        );
        std::process::exit(1);
    }
}
