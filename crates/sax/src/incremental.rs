//! Incremental sliding-window discretization for streaming (paper §7).
//!
//! The batch path ([`SaxConfig::discretize`]) walks a slice it already
//! holds. A streaming caller has neither the slice nor the time: it sees
//! one point per push and must not allocate. [`IncrementalDiscretizer`]
//! keeps the last `W` points and runs the same certified O(P) kernel as
//! the batch path on the window *ending* at each pushed point, so every
//! emitted word is **bit-identical** to [`SaxConfig::word`] on that window
//! — the incremental-vs-batch differential downstream compares density
//! curves and discord scores to the bit, which only holds if the token
//! streams agree to the bit.
//!
//! Each point is stored twice, at `i` and `i + W` of a `2W` buffer, so the
//! current window is always one contiguous slice: the kernel's rolling
//! update and its rare two-pass fallback read it in window order with no
//! per-push copy. Per push the cost is O(P), plus an exact O(W) rebuild
//! every `W` pushes and an O(W) fallback on knife-edge windows
//! ([`fallbacks`](IncrementalDiscretizer::fallbacks)). Every buffer is
//! sized at construction; pushing never allocates.

use crate::discretize::SaxConfig;
use crate::kernel::SaxKernel;

/// Streaming SAX discretizer over a fixed-length sliding window.
///
/// ```
/// use gv_sax::{IncrementalDiscretizer, SaxConfig};
///
/// let cfg = SaxConfig::new(8, 4, 4).unwrap();
/// let mut inc = IncrementalDiscretizer::new(&cfg);
/// let values: Vec<f64> = (0..20).map(|i| (i as f64 / 3.0).sin()).collect();
/// for (i, &v) in values.iter().enumerate() {
///     match inc.push(v) {
///         None => assert!(i + 1 < 8, "warmup only before the first window"),
///         Some(symbols) => {
///             let batch = cfg.word(&values[i + 1 - 8..=i]).unwrap();
///             assert_eq!(symbols, batch.symbols()); // bit-identical
///         }
///     }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalDiscretizer {
    config: SaxConfig,
    /// The last `W` points, each stored at `i` and `i + W`: the window is
    /// `buf[head..head + W]` once warm. During warmup `filled < W` points
    /// sit at `0..filled`.
    buf: Vec<f64>,
    head: usize,
    filled: usize,
    /// Total points consumed.
    seen: u64,
    /// Windows that took the kernel's two-pass fallback.
    fallbacks: u64,
    kernel: SaxKernel,
    /// Kernel scratch: z-normalized window / PAA means and bucket sums.
    zbuf: Vec<f64>,
    pbuf: Vec<f64>,
    /// The emitted word, reused across pushes.
    symbols: Vec<u8>,
}

impl IncrementalDiscretizer {
    /// A discretizer whose every emitted word is bit-identical to
    /// [`SaxConfig::word`] over the same window.
    pub fn new(config: &SaxConfig) -> Self {
        let (window, paa) = (config.window(), config.paa_size());
        Self {
            config: config.clone(),
            buf: vec![0.0; 2 * window],
            head: 0,
            filled: 0,
            seen: 0,
            fallbacks: 0,
            kernel: SaxKernel::default(),
            zbuf: vec![0.0; window],
            pbuf: vec![0.0; 2 * paa],
            symbols: vec![0; paa],
        }
    }

    /// Sliding-window length `W`.
    pub fn window(&self) -> usize {
        self.config.window()
    }

    /// Word length `P`.
    pub fn paa_size(&self) -> usize {
        self.config.paa_size()
    }

    /// Total points consumed so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Windows so far whose word the kernel could not certify and
    /// recomputed with the two-pass path (see
    /// [`Counter::SaxFallbacks`](gv_obs::Counter::SaxFallbacks)).
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// `true` once a full window has arrived (every later push emits).
    pub fn is_warm(&self) -> bool {
        self.filled == self.window()
    }

    /// Forgets all stream state (capacity is retained — no reallocation).
    pub fn reset(&mut self) {
        self.head = 0;
        self.filled = 0;
        self.seen = 0;
        self.fallbacks = 0;
    }

    /// Capacities of every internal buffer — all fixed at construction, so
    /// long-run memory tests can assert this never changes after warmup.
    pub fn capacity_signature(&self) -> Vec<usize> {
        vec![
            self.buf.capacity(),
            self.zbuf.capacity(),
            self.pbuf.capacity(),
            self.symbols.capacity(),
        ]
    }

    /// Consumes one observation. Returns the SAX word (as raw symbol
    /// indexes, valid until the next push) for the window *ending* at this
    /// point, or `None` during warmup. The caller copies the slice if it
    /// needs to keep it.
    // gv-lint: hot
    pub fn push(&mut self, value: f64) -> Option<&[u8]> {
        self.seen += 1;
        let w = self.window();
        let retired = if self.filled < w {
            self.buf[self.filled] = value;
            self.buf[self.filled + w] = value;
            self.filled += 1;
            if self.filled < w {
                return None;
            }
            None
        } else {
            let old = self.buf[self.head];
            self.buf[self.head] = value;
            self.buf[self.head + w] = value;
            self.head = if self.head + 1 == w { 0 } else { self.head + 1 };
            Some(old)
        };
        let win = &self.buf[self.head..self.head + w];
        if self.kernel.window_word(
            &self.config,
            retired,
            win,
            &mut self.zbuf,
            &mut self.pbuf,
            &mut self.symbols,
        ) {
            self.fallbacks += 1;
        }
        Some(&self.symbols)
    }
    // gv-lint: end-hot
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random walk (no RNG dependency).
    fn lcg_walk(n: usize) -> Vec<f64> {
        let mut state: u64 = 0x2545_f491_4f6c_dd1d;
        let mut level = 0.0f64;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let step = ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
            level += step;
            out.push(level);
        }
        out
    }

    fn assert_matches_batch(values: &[f64], w: usize, p: usize, a: usize) {
        let cfg = SaxConfig::new(w, p, a).unwrap();
        let mut inc = IncrementalDiscretizer::new(&cfg);
        for (i, &v) in values.iter().enumerate() {
            match inc.push(v) {
                None => assert!(i + 1 < w, "no word at point {i}"),
                Some(symbols) => {
                    let batch = cfg.word(&values[i + 1 - w..=i]).unwrap();
                    assert_eq!(
                        symbols,
                        batch.symbols(),
                        "window ending at {i} diverged from batch"
                    );
                }
            }
        }
        assert_eq!(inc.seen(), values.len() as u64);
    }

    #[test]
    fn words_are_bit_identical_to_batch_divisible() {
        let values: Vec<f64> = (0..600).map(|i| (i as f64 / 17.0).sin()).collect();
        assert_matches_batch(&values, 60, 4, 4);
        assert_matches_batch(&values, 16, 4, 6);
    }

    #[test]
    fn words_are_bit_identical_to_batch_non_divisible() {
        let values: Vec<f64> = (0..400)
            .map(|i| (i as f64 / 9.0).cos() * 3.0 + 1.0)
            .collect();
        assert_matches_batch(&values, 10, 3, 5);
        assert_matches_batch(&values, 23, 7, 4);
    }

    #[test]
    fn words_are_bit_identical_on_random_walk() {
        let values = lcg_walk(800);
        assert_matches_batch(&values, 50, 5, 8);
        assert_matches_batch(&values, 31, 4, 3);
    }

    #[test]
    fn flat_and_tiny_windows_match_batch() {
        let flat = vec![2.5; 40];
        assert_matches_batch(&flat, 8, 4, 4);
        let values: Vec<f64> = (0..40).map(|i| i as f64).collect();
        assert_matches_batch(&values, 1, 1, 4);
        assert_matches_batch(&values, 2, 1, 4);
    }

    #[test]
    fn warmup_emits_nothing_then_every_push() {
        let cfg = SaxConfig::new(12, 3, 4).unwrap();
        let mut inc = IncrementalDiscretizer::new(&cfg);
        assert!(!inc.is_warm());
        for i in 0..11 {
            assert!(inc.push(i as f64).is_none());
        }
        assert!(inc.push(11.0).is_some());
        assert!(inc.is_warm());
        for i in 12..40 {
            assert!(inc.push(i as f64).is_some());
        }
    }

    #[test]
    fn words_match_batch_at_a_large_offset() {
        // Regression: the unshifted rolling Σv/Σv² form this stream once
        // offered disagreed with the reference on 1,364 of 1,881 words of
        // this sine at a 1e8 baseline.
        let values: Vec<f64> = (0..2000).map(|i| 1e8 + (i as f64 / 10.0).sin()).collect();
        assert_matches_batch(&values, 120, 4, 4);
        let shifted: Vec<f64> = values.iter().map(|v| v - 1.5e8).collect();
        assert_matches_batch(&shifted, 150, 4, 4);
    }

    #[test]
    fn knife_edge_pushes_fall_back_and_match() {
        // Integer-valued and symmetric: every other window's bucket means
        // land exactly on α=4's 0.0 cut.
        let values: Vec<f64> = (0..200).map(|i| [1.0, -1.0, -1.0, 1.0][i % 4]).collect();
        assert_matches_batch(&values, 8, 4, 4);
        let cfg = SaxConfig::new(8, 4, 4).unwrap();
        let mut inc = IncrementalDiscretizer::new(&cfg);
        for &v in &values {
            inc.push(v);
        }
        assert!(inc.fallbacks() > 0);
        assert!(inc.fallbacks() <= (values.len() - 8 + 1) as u64);
    }

    #[test]
    fn capacity_signature_freezes_after_construction() {
        // The hot-path contract: all state is sized up front — a 2W ring,
        // W of z-norm scratch, 2P of PAA scratch plus bucket sums, and the
        // P-symbol word — and neither the O(P) path nor the two-pass
        // fallback (forced here by flat stretches) ever grows it.
        let cfg = SaxConfig::new(32, 4, 4).unwrap();
        let mut inc = IncrementalDiscretizer::new(&cfg);
        let sig = inc.capacity_signature();
        assert_eq!(sig, vec![64, 32, 8, 4]);
        for i in 0..10_000usize {
            let flat = (i / 500).is_multiple_of(4);
            inc.push(if flat { 0.0 } else { (i as f64 / 7.0).sin() });
        }
        assert!(inc.fallbacks() > 0);
        assert_eq!(sig, inc.capacity_signature());
    }

    #[test]
    fn reset_restarts_warmup_without_reallocating() {
        let cfg = SaxConfig::new(16, 4, 4).unwrap();
        let mut inc = IncrementalDiscretizer::new(&cfg);
        for i in 0..100 {
            inc.push((i as f64 / 5.0).sin());
        }
        let sig = inc.capacity_signature();
        inc.reset();
        assert!(!inc.is_warm());
        assert_eq!(inc.seen(), 0);
        assert_eq!(sig, inc.capacity_signature());
        // Post-reset output matches a fresh batch run.
        let values: Vec<f64> = (0..60).map(|i| (i as f64 / 4.0).cos()).collect();
        let cfg2 = SaxConfig::new(16, 4, 4).unwrap();
        for (i, &v) in values.iter().enumerate() {
            if let Some(symbols) = inc.push(v) {
                let batch = cfg2.word(&values[i + 1 - 16..=i]).unwrap();
                assert_eq!(symbols, batch.symbols());
            }
        }
    }
}
