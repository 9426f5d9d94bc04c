//! The batch discretizer runs every window through the certified O(P)
//! kernel; these tests pin that its records are exactly those of the
//! two-pass reference (`SaxConfig::word` per window, then numerosity
//! reduction), across window/PAA shapes, large baselines and all three
//! reduction modes — and that knife-edge windows take the fallback.

use gv_obs::{Counter, LocalRecorder};
use gv_sax::{NumerosityReduction, SaxConfig, SaxRecord};
use proptest::prelude::*;

const MODES: [NumerosityReduction; 3] = [
    NumerosityReduction::None,
    NumerosityReduction::Exact,
    NumerosityReduction::MinDist,
];

/// Reference records: one `SaxConfig::word` per window, reduced in order.
fn reference(cfg: &SaxConfig, values: &[f64], nr: NumerosityReduction) -> Vec<SaxRecord> {
    let mut out: Vec<SaxRecord> = Vec::new();
    for offset in 0..=values.len() - cfg.window() {
        let word = cfg.word(&values[offset..offset + cfg.window()]).unwrap();
        match out.last() {
            Some(last) if nr.drops(last.word.symbols(), word.symbols()) => {}
            _ => out.push(SaxRecord { word, offset }),
        }
    }
    out
}

/// A deterministic mix of a sine, a slow trend and a random walk.
fn series(n: usize, seed: u64, offset: f64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut walk = 0.0f64;
    (0..n)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            walk += ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.3;
            offset + (i as f64 / 13.0).sin() + 0.001 * i as f64 + walk
        })
        .collect()
}

#[test]
fn batch_records_equal_the_two_pass_reference() {
    // (W, P, A): divisible, fractional W=150/P=4, tiny fractional, P == W.
    let shapes = [(64, 4, 4), (150, 4, 4), (7, 3, 5), (6, 6, 3), (40, 5, 8)];
    for (w, p, a) in shapes {
        let cfg = SaxConfig::new(w, p, a).unwrap();
        for (seed, offset) in [0.0, 1e8, -5e7, 1e12].into_iter().enumerate() {
            let values = series(1500, seed as u64, offset);
            for nr in MODES {
                let got = cfg.discretize(&values, nr).unwrap();
                assert_eq!(
                    got,
                    reference(&cfg, &values, nr),
                    "W={w} P={p} A={a} offset={offset} {nr:?}"
                );
            }
        }
    }
}

#[test]
fn flat_windows_match_the_reference() {
    // σ below the default 0.01 z-norm threshold: the reference only
    // centres these windows, and the kernel must follow it (including
    // exactly constant stretches at a large baseline).
    let mut values: Vec<f64> = (0..600)
        .map(|i| 3e6 + 1e-4 * (i as f64 / 5.0).sin())
        .collect();
    values.extend(std::iter::repeat_n(3e6, 100));
    for (w, p, a) in [(30, 5, 3), (30, 5, 4), (25, 4, 5)] {
        let cfg = SaxConfig::new(w, p, a).unwrap();
        for nr in MODES {
            assert_eq!(
                cfg.discretize(&values, nr).unwrap(),
                reference(&cfg, &values, nr),
                "W={w} P={p} A={a} {nr:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random shapes, alphabets, baselines and amplitudes: the kernel's
    /// records are always the reference's.
    #[test]
    fn kernel_matches_reference_on_random_inputs(
        w in 2usize..48,
        p_frac in 0.0f64..1.0,
        a in 2usize..12,
        seed in 0u64..1_000_000,
        offset_ix in 0usize..5,
        amp_ix in 0usize..3,
        quantize in 0u8..2,
    ) {
        let offset = [0.0, 1e8, -5e7, 1e12, 3.25][offset_ix];
        let amp = [1.0, 1e-3, 1e3][amp_ix];
        let p = 1 + ((w as f64 * p_frac) as usize).min(w - 1);
        let cfg = SaxConfig::new(w, p, a).unwrap();
        let values: Vec<f64> = series(300, seed, 0.0)
            .into_iter()
            .map(|v| {
                let v = v * amp;
                offset + if quantize == 1 { v.round() } else { v }
            })
            .collect();
        for nr in MODES {
            prop_assert_eq!(cfg.discretize(&values, nr).unwrap(), reference(&cfg, &values, nr));
        }
    }
}

#[test]
fn knife_edge_windows_fall_back_and_still_match() {
    // Integer-valued and symmetric: every other window's bucket means sit
    // exactly on the window mean, i.e. exactly on α=4's 0.0 cut.
    let values: Vec<f64> = (0..400).map(|i| [1.0, -1.0, -1.0, 1.0][i % 4]).collect();
    let cfg = SaxConfig::new(8, 4, 4).unwrap();
    for nr in MODES {
        let rec = LocalRecorder::new();
        let got = cfg.discretize_with(&values, nr, &rec).unwrap();
        assert_eq!(got, reference(&cfg, &values, nr), "{nr:?}");
        assert!(rec.counter(Counter::SaxFallbacks) > 0, "{nr:?}");
        assert!(rec.counter(Counter::SaxFallbacks) <= rec.counter(Counter::WindowsProcessed));
    }
}

#[test]
fn smooth_data_rarely_falls_back() {
    let values = series(20_000, 7, 0.0);
    let cfg = SaxConfig::new(300, 4, 4).unwrap();
    let rec = LocalRecorder::new();
    cfg.discretize_with(&values, NumerosityReduction::Exact, &rec)
        .unwrap();
    let windows = rec.counter(Counter::WindowsProcessed);
    assert_eq!(windows, 20_000 - 300 + 1);
    assert!(
        rec.counter(Counter::SaxFallbacks) * 1000 < windows,
        "{} fallbacks in {windows} windows",
        rec.counter(Counter::SaxFallbacks)
    );
}
