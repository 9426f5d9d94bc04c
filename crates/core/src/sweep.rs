//! Discretization-parameter sweep (paper §5.2, Figure 10).
//!
//! The paper samples the `(window, PAA, alphabet)` space on the ECG0606
//! dataset, recording for each combination whether the rule-density
//! detector and RRA recover the known anomaly, and plots success regions
//! against the *approximation distance* (how much signal detail SAX
//! retains) and the *grammar size* (how compressible the discretized
//! series was). RRA's success region is roughly twice the density
//! detector's.

use gv_obs::{NoopRecorder, Recorder};
use gv_sax::reconstruction_error;
use gv_timeseries::Interval;
use serde::{Deserialize, Serialize};

use crate::config::PipelineConfig;
use crate::engine::{DensityDetector, Detector, EngineConfig, RraDetector, SeriesView};
use crate::error::Result;
use crate::workspace::Workspace;

/// One grid point of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Sliding-window length.
    pub window: usize,
    /// PAA size.
    pub paa: usize,
    /// Alphabet size.
    pub alphabet: usize,
    /// Mean PAA reconstruction error over all windows (Figure 10 x-axis).
    pub approximation_distance: f64,
    /// Total grammar size (Figure 10 y-axis).
    pub grammar_size: usize,
    /// Did the top density anomaly overlap the truth?
    pub density_hit: bool,
    /// Did the top RRA discord overlap the truth?
    pub rra_hit: bool,
}

/// Grid specification for the sweep.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Window lengths to try.
    pub windows: Vec<usize>,
    /// PAA sizes to try.
    pub paas: Vec<usize>,
    /// Alphabet sizes to try.
    pub alphabets: Vec<usize>,
}

impl SweepGrid {
    /// The paper's Figure 10 ranges — window `[10, 500]`, PAA `[3, 20]`,
    /// alphabet `[3, 12]` — subsampled with the given strides so the sweep
    /// stays laptop-sized.
    pub fn paper_ranges(window_stride: usize, paa_stride: usize, alpha_stride: usize) -> Self {
        Self {
            windows: (10..=500).step_by(window_stride.max(1)).collect(),
            paas: (3..=20).step_by(paa_stride.max(1)).collect(),
            alphabets: (3..=12).step_by(alpha_stride.max(1)).collect(),
        }
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.windows.len() * self.paas.len() * self.alphabets.len()
    }

    /// `true` when the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Runs both detectors over the grid. Invalid combinations (window longer
/// than the series, PAA larger than window, …) are skipped. `truth` is the
/// ground-truth anomaly interval; a detector "hits" when its top report
/// overlaps the truth widened by `slack` points.
pub fn run(values: &[f64], truth: Interval, slack: usize, grid: &SweepGrid) -> Vec<SweepPoint> {
    run_with(values, truth, slack, grid, &NoopRecorder)
}

/// [`run`] with instrumentation: every grid point's pipeline stages and
/// search counters accumulate into `recorder`, giving aggregate cost
/// numbers for the whole sweep.
pub fn run_with<R: Recorder>(
    values: &[f64],
    truth: Interval,
    slack: usize,
    grid: &SweepGrid,
    recorder: &R,
) -> Vec<SweepPoint> {
    let wide_truth = Interval::new(
        truth.start.saturating_sub(slack),
        (truth.end + slack).min(values.len()),
    );
    let mut out = Vec::new();
    let mut ws = Workspace::new();
    for &w in &grid.windows {
        for &p in &grid.paas {
            if p > w {
                continue;
            }
            for &a in &grid.alphabets {
                if let Ok(point) = evaluate_one(values, wide_truth, w, p, a, &mut ws, recorder) {
                    out.push(point);
                }
            }
        }
    }
    out
}

/// [`run`] with the grid points fanned out over `threads` worker threads
/// (std scoped threads; grid points are independent, so results are
/// identical to the serial run up to ordering — this function restores the
/// serial `(window, paa, alphabet)` ordering before returning).
///
/// `threads == 0` or `1` falls back to the serial implementation.
pub fn run_parallel(
    values: &[f64],
    truth: Interval,
    slack: usize,
    grid: &SweepGrid,
    threads: usize,
) -> Vec<SweepPoint> {
    run_parallel_with(values, truth, slack, grid, threads, &NoopRecorder)
}

/// [`run_parallel`] with instrumentation. `recorder` is shared by
/// reference across the worker threads, so it must be `Sync` — use a
/// [`CollectingRecorder`](gv_obs::CollectingRecorder) (atomics), not a
/// `LocalRecorder`. Counter totals match the serial [`run_with`]; stage
/// *timings* are summed across workers and therefore exceed wall-clock
/// time under parallelism.
pub fn run_parallel_with<R: Recorder + Sync>(
    values: &[f64],
    truth: Interval,
    slack: usize,
    grid: &SweepGrid,
    threads: usize,
    recorder: &R,
) -> Vec<SweepPoint> {
    if threads <= 1 {
        return run_with(values, truth, slack, grid, recorder);
    }
    let wide_truth = Interval::new(
        truth.start.saturating_sub(slack),
        (truth.end + slack).min(values.len()),
    );
    // Materialize the valid grid points, then stripe them over workers.
    let mut combos = Vec::new();
    for &w in &grid.windows {
        for &p in &grid.paas {
            if p > w {
                continue;
            }
            for &a in &grid.alphabets {
                combos.push((w, p, a));
            }
        }
    }
    let mut results: Vec<Vec<SweepPoint>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let combos = &combos;
                scope.spawn(move || {
                    // One workspace per worker: buffers warm up once and
                    // are reused across every grid point this worker owns.
                    let mut ws = Workspace::new();
                    let mut mine = Vec::new();
                    for &(w, p, a) in combos.iter().skip(t).step_by(threads) {
                        if let Ok(point) =
                            evaluate_one(values, wide_truth, w, p, a, &mut ws, recorder)
                        {
                            mine.push(point);
                        }
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            results.push(h.join().expect("sweep worker panicked"));
        }
    });
    let mut out: Vec<SweepPoint> = results.into_iter().flatten().collect();
    // Restore the serial ordering so callers see deterministic output.
    out.sort_by_key(|p| {
        let wi = grid
            .windows
            .iter()
            .position(|&w| w == p.window)
            .unwrap_or(usize::MAX);
        let pi = grid
            .paas
            .iter()
            .position(|&q| q == p.paa)
            .unwrap_or(usize::MAX);
        let ai = grid
            .alphabets
            .iter()
            .position(|&a| a == p.alphabet)
            .unwrap_or(usize::MAX);
        (wi, pi, ai)
    });
    out
}

fn evaluate_one<R: Recorder>(
    values: &[f64],
    wide_truth: Interval,
    w: usize,
    p: usize,
    a: usize,
    ws: &mut Workspace,
    recorder: &R,
) -> Result<SweepPoint> {
    // Fixed seed 0 and a sequential engine per grid point: sweep results
    // (and counter totals) stay identical whatever the worker count and
    // whatever `GV_THREADS` says, and workers never nest thread pools.
    let config = PipelineConfig::new(w, p, a)?.with_seed(0);
    let series = SeriesView::new(values);

    // Edge trim 0: the sweep scores raw hits, boundary minima included.
    let density = DensityDetector::new(config.clone(), 1)
        .with_trim_edge(0)
        .detect(&series, ws, recorder)?;
    let density_hit = density
        .anomalies
        .first()
        .is_some_and(|an| an.interval.overlaps(&wide_truth));

    // Same view, same model configuration: RRA reuses the density
    // detector's model from the workspace slot.
    let rra_detector = RraDetector::new(config, 1).with_engine(EngineConfig::sequential());
    let rra_hit = match rra_detector.detect(&series, ws, recorder) {
        Ok(report) => report
            .anomalies
            .first()
            .is_some_and(|an| an.interval.overlaps(&wide_truth)),
        Err(_) => false,
    };

    Ok(SweepPoint {
        window: w,
        paa: p,
        alphabet: a,
        approximation_distance: reconstruction_error(values, w, p),
        grammar_size: density.grammar_size,
        density_hit,
        rra_hit,
    })
}

/// Aggregates sweep results into the Figure 10 headline numbers: how many
/// parameter combinations each detector succeeded on.
pub fn success_counts(points: &[SweepPoint]) -> (usize, usize) {
    let density = points.iter().filter(|p| p.density_hit).count();
    let rra = points.iter().filter(|p| p.rra_hit).count();
    (density, rra)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planted() -> (Vec<f64>, Interval) {
        let mut v: Vec<f64> = (0..1500).map(|i| (i as f64 / 15.0).sin()).collect();
        for (i, x) in v[700..760].iter_mut().enumerate() {
            *x = 0.3 * (i as f64 / 4.0).cos();
        }
        (v, Interval::new(700, 760))
    }

    #[test]
    fn grid_ranges() {
        let g = SweepGrid::paper_ranges(50, 5, 3);
        assert!(g.windows.contains(&10));
        assert!(g.windows.iter().all(|&w| (10..=500).contains(&w)));
        assert!(g.paas.iter().all(|&p| (3..=20).contains(&p)));
        assert!(g.alphabets.iter().all(|&a| (3..=12).contains(&a)));
        assert!(!g.is_empty());
        assert_eq!(g.len(), g.windows.len() * g.paas.len() * g.alphabets.len());
    }

    #[test]
    fn sweep_produces_points_and_hits() {
        let (v, truth) = planted();
        let grid = SweepGrid {
            windows: vec![60, 100, 150],
            paas: vec![4, 6],
            alphabets: vec![3, 4],
        };
        let points = run(&v, truth, 100, &grid);
        assert!(!points.is_empty());
        let (density_hits, rra_hits) = success_counts(&points);
        // On this easy plant both detectors succeed on most combinations,
        // and RRA is at least as robust as density (the Figure 10 claim).
        assert!(
            rra_hits >= density_hits,
            "rra {rra_hits} < density {density_hits}"
        );
        assert!(rra_hits > 0);
    }

    #[test]
    fn invalid_combinations_skipped() {
        let (v, truth) = planted();
        let grid = SweepGrid {
            windows: vec![5000], // longer than the series
            paas: vec![4],
            alphabets: vec![4],
        };
        assert!(run(&v, truth, 0, &grid).is_empty());
        let grid2 = SweepGrid {
            windows: vec![10],
            paas: vec![15], // PAA > window
            alphabets: vec![4],
        };
        assert!(run(&v, truth, 0, &grid2).is_empty());
    }

    #[test]
    fn parallel_equals_serial() {
        let (v, truth) = planted();
        let grid = SweepGrid {
            windows: vec![60, 100, 150],
            paas: vec![4, 6],
            alphabets: vec![3, 4],
        };
        let serial = run(&v, truth, 100, &grid);
        for threads in [0, 1, 2, 3, 7] {
            let parallel = run_parallel(&v, truth, 100, &grid, threads);
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn recorded_sweep_counters_are_thread_count_invariant() {
        use gv_obs::{CollectingRecorder, Counter};
        let (v, truth) = planted();
        let grid = SweepGrid {
            windows: vec![60, 100],
            paas: vec![4],
            alphabets: vec![3, 4],
        };
        let serial_rec = CollectingRecorder::new();
        let serial = run_with(&v, truth, 100, &grid, &serial_rec);
        let parallel_rec = CollectingRecorder::new();
        let parallel = run_parallel_with(&v, truth, 100, &grid, 3, &parallel_rec);
        assert_eq!(serial, parallel);
        assert!(serial_rec.counter(Counter::DistanceCalls) > 0);
        // Deterministic work → identical counter totals whatever the
        // thread count (timings differ; counters must not).
        for c in Counter::ALL {
            assert_eq!(
                serial_rec.counter(c),
                parallel_rec.counter(c),
                "counter {} diverged under parallelism",
                c.name()
            );
        }
    }

    #[test]
    fn approximation_distance_monotone_in_paa() {
        // More PAA segments → better approximation → smaller error.
        let (v, truth) = planted();
        let grid = SweepGrid {
            windows: vec![100],
            paas: vec![4, 10],
            alphabets: vec![4],
        };
        let points = run(&v, truth, 100, &grid);
        assert_eq!(points.len(), 2);
        let coarse = points.iter().find(|p| p.paa == 4).unwrap();
        let fine = points.iter().find(|p| p.paa == 10).unwrap();
        assert!(fine.approximation_distance <= coarse.approximation_distance);
    }
}
