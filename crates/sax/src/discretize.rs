//! Sliding-window SAX discretization with numerosity reduction
//! (paper §3.1–3.2).

use gv_obs::{time_stage, Counter, NoopRecorder, Recorder, Stage};
use gv_timeseries::{znorm_into, DEFAULT_ZNORM_THRESHOLD};

use crate::alphabet::Alphabet;
use crate::error::{Error, Result};
use crate::kernel::SaxKernel;
use crate::mindist::symbols_mindist_is_zero;
use crate::paa::paa_into;
use crate::word::SaxWord;

/// Words up to this length are assembled in a stack buffer by the batch
/// discretizer; longer ones use one heap scratch per call.
const STACK_WORD: usize = 64;

/// Numerosity-reduction strategy applied to the stream of sliding-window
/// SAX words (paper §3.2).
///
/// Neighbouring windows usually discretize to the same word; recording only
/// the first of a run both speeds the grammar stage up and — crucially —
/// makes grammar rules map to *variable-length* subsequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NumerosityReduction {
    /// Keep every window's word.
    None,
    /// Drop a word when identical to the previously kept one (the paper's
    /// strategy, GrammarViz's `EXACT`).
    #[default]
    Exact,
    /// Drop a word when its MINDIST to the previously kept one is zero
    /// (all symbols identical or adjacent) — a more aggressive smoother.
    MinDist,
}

impl NumerosityReduction {
    /// `true` when the word with symbols `current` should be dropped given
    /// the previously kept word's symbols `prev`.
    pub fn drops(&self, prev: &[u8], current: &[u8]) -> bool {
        match self {
            NumerosityReduction::None => false,
            NumerosityReduction::Exact => prev == current,
            NumerosityReduction::MinDist => symbols_mindist_is_zero(prev, current),
        }
    }
}

/// One discretization record: a SAX word plus the start offset of the
/// sliding window it came from.
///
/// The offsets are what lets grammar rules map back to raw subsequences
/// (paper §3.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaxRecord {
    /// The SAX word.
    pub word: SaxWord,
    /// Start index of the source window in the original series.
    pub offset: usize,
}

/// SAX discretization parameters: sliding-window length, PAA size, and
/// alphabet size — the triple `(W, P, A)` printed throughout the paper.
#[derive(Debug, Clone)]
pub struct SaxConfig {
    window: usize,
    paa_size: usize,
    alphabet: Alphabet,
    znorm_threshold: f64,
}

impl SaxConfig {
    /// Builds a configuration.
    ///
    /// # Errors
    /// * [`Error::PaaSize`] when `paa_size` is zero or exceeds `window`;
    /// * [`Error::AlphabetSize`] via [`Alphabet::new`];
    /// * [`Error::Window`] when `window` is zero.
    pub fn new(window: usize, paa_size: usize, alphabet_size: usize) -> Result<Self> {
        if window == 0 {
            return Err(Error::Window {
                window,
                series_len: 0,
            });
        }
        if paa_size == 0 || paa_size > window {
            return Err(Error::PaaSize {
                paa: paa_size,
                window,
            });
        }
        Ok(Self {
            window,
            paa_size,
            alphabet: Alphabet::new(alphabet_size)?,
            znorm_threshold: DEFAULT_ZNORM_THRESHOLD,
        })
    }

    /// Overrides the z-normalization σ threshold (default
    /// [`DEFAULT_ZNORM_THRESHOLD`]).
    pub fn with_znorm_threshold(mut self, threshold: f64) -> Self {
        self.znorm_threshold = threshold;
        self
    }

    /// Sliding-window length `W`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// PAA size `P` (word length).
    pub fn paa_size(&self) -> usize {
        self.paa_size
    }

    /// Alphabet size `A`.
    pub fn alphabet_size(&self) -> usize {
        self.alphabet.size()
    }

    /// The alphabet in use.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The z-normalization σ threshold in effect.
    pub fn znorm_threshold(&self) -> f64 {
        self.znorm_threshold
    }

    /// Discretizes one already-extracted subsequence into a word
    /// (z-normalize → PAA → symbols). Buffers are caller-provided to keep
    /// the sliding-window loop allocation-free.
    fn word_for(&self, window: &[f64], zbuf: &mut [f64], pbuf: &mut [f64]) -> SaxWord {
        znorm_into(window, self.znorm_threshold, zbuf);
        paa_into(zbuf, pbuf);
        let symbols: Vec<u8> = pbuf.iter().map(|&v| self.alphabet.symbol(v)).collect();
        SaxWord::new(symbols)
    }

    /// Discretizes a single subsequence (of any length ≥ PAA size) into a
    /// SAX word. Used by HOTSAX and by tests; the sliding-window path is
    /// [`SaxConfig::discretize`].
    pub fn word(&self, subsequence: &[f64]) -> Result<SaxWord> {
        if subsequence.is_empty() {
            return Err(Error::EmptyInput);
        }
        let mut zbuf = vec![0.0; subsequence.len()];
        let mut pbuf = vec![0.0; self.paa_size];
        Ok(self.word_for(subsequence, &mut zbuf, &mut pbuf))
    }

    /// Runs the full sliding-window discretization with the given
    /// numerosity-reduction strategy (paper §3.1–3.2), producing the ordered
    /// list of `(word, offset)` records.
    ///
    /// # Errors
    /// [`Error::Window`] when the series is shorter than the window;
    /// [`Error::EmptyInput`] for an empty series.
    pub fn discretize(&self, values: &[f64], nr: NumerosityReduction) -> Result<Vec<SaxRecord>> {
        self.discretize_with(values, nr, &NoopRecorder)
    }

    /// [`SaxConfig::discretize`] with instrumentation: wall-clock time is
    /// attributed to [`Stage::Discretize`] and the window/word counters are
    /// published to `recorder` in one bulk update after the loop (the hot
    /// loop itself maintains plain integers).
    ///
    /// # Errors
    /// Same as [`SaxConfig::discretize`].
    pub fn discretize_with<R: Recorder>(
        &self,
        values: &[f64],
        nr: NumerosityReduction,
        recorder: &R,
    ) -> Result<Vec<SaxRecord>> {
        let mut records = Vec::new();
        let mut zbuf = Vec::new();
        let mut pbuf = Vec::new();
        self.discretize_into(values, nr, recorder, &mut records, &mut zbuf, &mut pbuf)?;
        Ok(records)
    }

    /// [`SaxConfig::discretize_with`] writing into caller-owned buffers:
    /// `records` is cleared and refilled, `zbuf`/`pbuf` are the kernel's
    /// scratch (resized to `W` and `2P`). Every window goes through the
    /// certified O(P) kernel (see `kernel.rs`), which emits the two-pass
    /// reference word bit for bit and recomputes the rare undecidable
    /// window with that reference path ([`Counter::SaxFallbacks`]).
    /// Numerosity reduction compares symbols in scratch, so once the
    /// buffers are warm the only allocations are the kept words
    /// themselves, owned by the records.
    ///
    /// # Errors
    /// Same as [`SaxConfig::discretize`].
    pub fn discretize_into<R: Recorder>(
        &self,
        values: &[f64],
        nr: NumerosityReduction,
        recorder: &R,
        records: &mut Vec<SaxRecord>,
        zbuf: &mut Vec<f64>,
        pbuf: &mut Vec<f64>,
    ) -> Result<()> {
        records.clear();
        if values.is_empty() {
            return Err(Error::EmptyInput);
        }
        if self.window > values.len() {
            return Err(Error::Window {
                window: self.window,
                series_len: values.len(),
            });
        }
        time_stage(recorder, Stage::Discretize, || {
            let (w, p) = (self.window, self.paa_size);
            zbuf.resize(w, 0.0);
            pbuf.resize(2 * p, 0.0);
            let mut stack = [0u8; STACK_WORD];
            let mut heap = Vec::new();
            let word: &mut [u8] = if p <= STACK_WORD {
                &mut stack[..p]
            } else {
                heap.resize(p, 0);
                &mut heap
            };
            let mut kernel = SaxKernel::default();
            let windows = values.len() - w + 1;
            let mut fallbacks = 0u64;
            let mut words_dropped = 0u64;
            for offset in 0..windows {
                let retired = offset.checked_sub(1).map(|i| values[i]);
                let win = &values[offset..offset + w];
                fallbacks += u64::from(kernel.window_word(self, retired, win, zbuf, pbuf, word));
                match records.last() {
                    Some(last) if nr.drops(last.word.symbols(), word) => words_dropped += 1,
                    _ => records.push(SaxRecord {
                        word: SaxWord::new(&*word),
                        offset,
                    }),
                }
            }
            recorder.add(Counter::WindowsProcessed, windows as u64);
            recorder.add(Counter::SaxFallbacks, fallbacks);
            recorder.add(Counter::WordsEmitted, records.len() as u64);
            recorder.add(Counter::WordsDropped, words_dropped);
            Ok(())
        })
    }
}

/// Whole-series SAX "by chunking": splits the series into
/// `values.len() / chunk` contiguous chunks and discretizes each into one
/// word. Not used by the anomaly pipeline (which needs sliding windows) but
/// part of the classic SAX toolkit and handy for exploratory summaries.
pub fn sax_by_chunking(
    values: &[f64],
    chunk: usize,
    paa_size: usize,
    alphabet_size: usize,
) -> Result<Vec<SaxRecord>> {
    if values.is_empty() {
        return Err(Error::EmptyInput);
    }
    if chunk == 0 || chunk > values.len() {
        return Err(Error::Window {
            window: chunk,
            series_len: values.len(),
        });
    }
    let cfg = SaxConfig::new(chunk, paa_size, alphabet_size)?;
    let mut out = Vec::with_capacity(values.len() / chunk);
    let mut zbuf = vec![0.0; chunk];
    let mut pbuf = vec![0.0; paa_size];
    let mut offset = 0;
    while offset + chunk <= values.len() {
        let word = cfg.word_for(&values[offset..offset + chunk], &mut zbuf, &mut pbuf);
        out.push(SaxRecord { word, offset });
        offset += chunk;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn config_validation() {
        assert!(SaxConfig::new(0, 1, 3).is_err());
        assert!(SaxConfig::new(10, 0, 3).is_err());
        assert!(SaxConfig::new(10, 11, 3).is_err());
        assert!(SaxConfig::new(10, 5, 1).is_err());
        let cfg = SaxConfig::new(10, 5, 4).unwrap();
        assert_eq!(
            (cfg.window(), cfg.paa_size(), cfg.alphabet_size()),
            (10, 5, 4)
        );
    }

    #[test]
    fn word_of_monotone_ramp_is_sorted() {
        let cfg = SaxConfig::new(16, 4, 4).unwrap();
        let w = cfg.word(&ramp(16)).unwrap();
        // A rising ramp must produce non-decreasing symbols spanning the
        // alphabet: "abcd" for α=4, w=4.
        assert_eq!(w.to_letters(), "abcd");
    }

    #[test]
    fn constant_series_single_word_after_reduction() {
        let cfg = SaxConfig::new(8, 4, 4).unwrap();
        let values = vec![5.0; 64];
        let recs = cfg.discretize(&values, NumerosityReduction::Exact).unwrap();
        assert_eq!(recs.len(), 1, "constant series collapses to one record");
        assert_eq!(recs[0].offset, 0);
        let no_nr = cfg.discretize(&values, NumerosityReduction::None).unwrap();
        assert_eq!(no_nr.len(), 64 - 8 + 1);
    }

    #[test]
    fn offsets_are_strictly_increasing_and_first_is_zero() {
        let values: Vec<f64> = (0..200).map(|i| (i as f64 / 7.0).sin()).collect();
        let cfg = SaxConfig::new(20, 5, 4).unwrap();
        for nr in [
            NumerosityReduction::None,
            NumerosityReduction::Exact,
            NumerosityReduction::MinDist,
        ] {
            let recs = cfg.discretize(&values, nr).unwrap();
            assert_eq!(recs[0].offset, 0);
            assert!(recs.windows(2).all(|p| p[0].offset < p[1].offset));
        }
    }

    #[test]
    fn exact_reduction_never_keeps_equal_neighbors() {
        let values: Vec<f64> = (0..300).map(|i| (i as f64 / 11.0).sin()).collect();
        let cfg = SaxConfig::new(30, 4, 3).unwrap();
        let recs = cfg.discretize(&values, NumerosityReduction::Exact).unwrap();
        assert!(recs.windows(2).all(|p| p[0].word != p[1].word));
    }

    #[test]
    fn mindist_reduction_is_at_least_as_aggressive_as_exact() {
        let values: Vec<f64> = (0..500)
            .map(|i| (i as f64 / 13.0).sin() * (1.0 + i as f64 / 500.0))
            .collect();
        let cfg = SaxConfig::new(40, 6, 5).unwrap();
        let exact = cfg.discretize(&values, NumerosityReduction::Exact).unwrap();
        let mdist = cfg
            .discretize(&values, NumerosityReduction::MinDist)
            .unwrap();
        let none = cfg.discretize(&values, NumerosityReduction::None).unwrap();
        assert!(mdist.len() <= exact.len());
        assert!(exact.len() <= none.len());
        assert_eq!(none.len(), values.len() - 40 + 1);
    }

    #[test]
    fn series_shorter_than_window_rejected() {
        let cfg = SaxConfig::new(100, 4, 4).unwrap();
        assert!(matches!(
            cfg.discretize(&ramp(50), NumerosityReduction::Exact),
            Err(Error::Window { .. })
        ));
        assert!(matches!(
            cfg.discretize(&[], NumerosityReduction::Exact),
            Err(Error::EmptyInput)
        ));
    }

    #[test]
    fn window_equal_series_gives_one_record() {
        let cfg = SaxConfig::new(32, 4, 4).unwrap();
        let recs = cfg
            .discretize(&ramp(32), NumerosityReduction::None)
            .unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn chunking_basic() {
        let recs = sax_by_chunking(&ramp(100), 10, 5, 4).unwrap();
        assert_eq!(recs.len(), 10);
        assert_eq!(recs[3].offset, 30);
        // Within each z-normalized rising chunk, symbols rise.
        assert_eq!(recs[0].word.to_letters(), recs[9].word.to_letters());
    }

    #[test]
    fn chunking_validation() {
        assert!(sax_by_chunking(&[], 4, 2, 3).is_err());
        assert!(sax_by_chunking(&ramp(10), 0, 2, 3).is_err());
        assert!(sax_by_chunking(&ramp(10), 11, 2, 3).is_err());
    }

    #[test]
    fn instrumented_discretize_matches_plain_and_counts() {
        let values: Vec<f64> = (0..300).map(|i| (i as f64 / 9.0).sin()).collect();
        let cfg = SaxConfig::new(24, 4, 4).unwrap();
        let rec = gv_obs::LocalRecorder::new();
        for nr in [
            NumerosityReduction::None,
            NumerosityReduction::Exact,
            NumerosityReduction::MinDist,
        ] {
            rec.reset();
            let plain = cfg.discretize(&values, nr).unwrap();
            let instrumented = cfg.discretize_with(&values, nr, &rec).unwrap();
            assert_eq!(plain, instrumented);
            let windows = (300 - 24 + 1) as u64;
            assert_eq!(rec.counter(Counter::WindowsProcessed), windows);
            assert_eq!(rec.counter(Counter::WordsEmitted), plain.len() as u64);
            assert_eq!(
                rec.counter(Counter::WordsEmitted) + rec.counter(Counter::WordsDropped),
                windows
            );
        }
        assert!(rec.stage_nanos(Stage::Discretize) > 0);
    }

    #[test]
    fn word_rejects_empty() {
        let cfg = SaxConfig::new(4, 2, 3).unwrap();
        assert!(matches!(cfg.word(&[]), Err(Error::EmptyInput)));
    }

    #[test]
    fn znorm_threshold_override() {
        // With a huge threshold the window is only mean-centered, not
        // scaled: the ramp's halves average to ∓2, landing in the outermost
        // α=4 regions (beyond ±0.67) → "ad". With normal scaling the PAA
        // values would be ±~0.87σ-normalized, giving the same letters here,
        // so also check a shallow ramp where scaling matters.
        let cfg = SaxConfig::new(8, 2, 4).unwrap().with_znorm_threshold(1e9);
        let w = cfg.word(&ramp(8)).unwrap();
        assert_eq!(w.to_letters(), "ad");
        // Shallow ramp 0..0.8: centered halves average ∓0.2 → inner regions.
        let shallow: Vec<f64> = (0..8).map(|i| i as f64 * 0.1).collect();
        let w2 = cfg.word(&shallow).unwrap();
        assert_eq!(w2.to_letters(), "bc");
    }
}
