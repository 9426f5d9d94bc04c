//! SAX alphabets: Gaussian equiprobable breakpoints.
//!
//! SAX assumes z-normalized subsequences are approximately standard normal
//! and cuts the real line into `α` equiprobable regions at the quantiles
//! `Φ⁻¹(i/α)`, `i = 1..α-1`. Rather than hard-coding the usual table for
//! `α ≤ 10`, we evaluate the quantile function directly (Acklam's rational
//! approximation, |error| ≲ 1e-7 after a Halley refinement), which reproduces the
//! published table and extends to any practical alphabet size.

use crate::error::{Error, Result};

/// Smallest supported alphabet size.
pub const MIN_ALPHABET: usize = 2;
/// Largest supported alphabet size (symbols map to letters `a..=t`).
pub const MAX_ALPHABET: usize = 20;

/// Inverse CDF of the standard normal distribution (Acklam's algorithm).
///
/// Valid for `0 < p < 1`; returns ±∞ at the boundaries and NaN outside.
fn normal_quantile(p: f64) -> f64 {
    if p <= 0.0 {
        // gv-lint: allow(no-float-eq) boundary classification: p<=0 already holds, exact 0.0 selects the defined -inf branch
        return if p == 0.0 {
            f64::NEG_INFINITY
        } else {
            f64::NAN
        };
    }
    if p >= 1.0 {
        // gv-lint: allow(no-float-eq) boundary classification: p>=1 already holds, exact 1.0 selects the defined +inf branch
        return if p == 1.0 { f64::INFINITY } else { f64::NAN };
    }
    // gv-lint: allow(no-float-eq) exact representable midpoint: the quantile is 0 by symmetry only at literally 0.5
    if p == 0.5 {
        return 0.0;
    }

    // Coefficients for the central and tail rational approximations.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One step of Halley refinement using erfc for near-machine precision.
    let e = 0.5 * erfc(-x / std::f64::consts::SQRT_2) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Complementary error function (Numerical Recipes' Chebyshev fit,
/// fractional error < 1.2e-7 everywhere, refined adequately for our use by
/// the Halley step above).
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// A SAX alphabet: `size` symbols with `size - 1` breakpoints.
///
/// Symbol `0` is the region below the first breakpoint (letter `'a'`),
/// symbol `size-1` the region above the last.
#[derive(Debug, Clone, PartialEq)]
pub struct Alphabet {
    size: usize,
    breakpoints: Vec<f64>,
}

impl Alphabet {
    /// Builds the equiprobable alphabet of the given size.
    ///
    /// # Errors
    /// [`Error::AlphabetSize`] when outside
    /// `[MIN_ALPHABET, MAX_ALPHABET]`.
    pub fn new(size: usize) -> Result<Self> {
        if !(MIN_ALPHABET..=MAX_ALPHABET).contains(&size) {
            return Err(Error::AlphabetSize(size));
        }
        let breakpoints = (1..size)
            .map(|i| normal_quantile(i as f64 / size as f64))
            .collect();
        Ok(Self { size, breakpoints })
    }

    /// Number of symbols.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The `size - 1` ascending breakpoints.
    pub fn breakpoints(&self) -> &[f64] {
        &self.breakpoints
    }

    /// Maps a (z-normalized PAA) value to its symbol index `0..size`.
    ///
    /// Values exactly equal to a breakpoint fall into the higher region,
    /// matching the classic implementation (`value >= breakpoint`).
    pub fn symbol(&self, value: f64) -> u8 {
        // Alphabets are tiny (≤ 20): a linear scan beats binary search.
        let mut s = 0u8;
        for &b in &self.breakpoints {
            if value >= b {
                s += 1;
            } else {
                break;
            }
        }
        s
    }

    /// [`Alphabet::symbol`] plus the distance from `value` to the nearest
    /// breakpoint bounding its region (`+∞` for a one-sided region with no
    /// cut on that side). A NaN `value` yields a NaN margin.
    pub(crate) fn symbol_with_margin(&self, value: f64) -> (u8, f64) {
        let s = self.symbol(value);
        let below = match (s as usize).checked_sub(1) {
            Some(i) => value - self.breakpoints[i],
            None => f64::INFINITY,
        };
        let above = self
            .breakpoints
            .get(s as usize)
            .map_or(f64::INFINITY, |&b| b - value);
        // Not `f64::min`: that would swallow a NaN `above`.
        (s, if below < above { below } else { above })
    }

    /// The letter (`'a'` + index) for a symbol index.
    ///
    /// # Panics
    /// Panics when `symbol >= size`.
    pub fn letter(&self, symbol: u8) -> char {
        assert!(
            (symbol as usize) < self.size,
            "symbol {symbol} out of alphabet"
        );
        (b'a' + symbol) as char
    }

    /// MINDIST cell: the lower-bounding distance contribution between two
    /// symbols. Zero for identical or adjacent symbols, otherwise the gap
    /// between the breakpoints that separate them.
    pub fn symbol_distance(&self, a: u8, b: u8) -> f64 {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        if hi - lo <= 1 {
            return 0.0;
        }
        self.breakpoints[hi as usize - 1] - self.breakpoints[lo as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published SAX breakpoint table rows (Lin et al.).
    const TABLE: &[(usize, &[f64])] = &[
        (2, &[0.0]),
        (3, &[-0.43, 0.43]),
        (4, &[-0.67, 0.0, 0.67]),
        (5, &[-0.84, -0.25, 0.25, 0.84]),
        (6, &[-0.97, -0.43, 0.0, 0.43, 0.97]),
        (7, &[-1.07, -0.57, -0.18, 0.18, 0.57, 1.07]),
        (8, &[-1.15, -0.67, -0.32, 0.0, 0.32, 0.67, 1.15]),
        (9, &[-1.22, -0.76, -0.43, -0.14, 0.14, 0.43, 0.76, 1.22]),
        (
            10,
            &[-1.28, -0.84, -0.52, -0.25, 0.0, 0.25, 0.52, 0.84, 1.28],
        ),
    ];

    #[test]
    fn matches_published_breakpoint_table() {
        for &(size, expected) in TABLE {
            let a = Alphabet::new(size).unwrap();
            assert_eq!(a.breakpoints().len(), expected.len());
            for (got, want) in a.breakpoints().iter().zip(expected) {
                assert!(
                    (got - want).abs() < 0.005,
                    "α={size}: breakpoint {got} vs published {want}"
                );
            }
        }
    }

    #[test]
    fn quantile_precision() {
        // High-precision reference values for Φ⁻¹.
        // The Halley step is limited by the ~1.2e-7 erfc approximation, so
        // tolerances are set to 1e-6 — far tighter than SAX needs.
        assert!((normal_quantile(0.5)).abs() < 1e-12);
        assert!((normal_quantile(0.25) + 0.674_489_750_196_082).abs() < 1e-6);
        assert!((normal_quantile(0.975) - 1.959_963_984_540_054).abs() < 1e-6);
        assert!((normal_quantile(0.001) + 3.090_232_306_167_814).abs() < 1e-6);
    }

    #[test]
    fn quantile_boundaries() {
        assert_eq!(normal_quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(normal_quantile(1.0), f64::INFINITY);
        assert!(normal_quantile(-0.1).is_nan());
        assert!(normal_quantile(1.1).is_nan());
    }

    #[test]
    fn size_bounds_enforced() {
        assert!(Alphabet::new(1).is_err());
        assert!(Alphabet::new(0).is_err());
        assert!(Alphabet::new(MAX_ALPHABET + 1).is_err());
        assert!(Alphabet::new(MIN_ALPHABET).is_ok());
        assert!(Alphabet::new(MAX_ALPHABET).is_ok());
    }

    #[test]
    fn symbol_mapping_alpha4() {
        let a = Alphabet::new(4).unwrap();
        assert_eq!(a.symbol(-2.0), 0);
        assert_eq!(a.symbol(-0.5), 1);
        assert_eq!(a.symbol(0.5), 2);
        assert_eq!(a.symbol(2.0), 3);
        // Boundary value goes to the upper region.
        assert_eq!(a.symbol(0.0), 2);
    }

    #[test]
    fn symbols_are_equiprobable_under_uniform_quantiles() {
        // Feeding the 0.5/α-shifted quantiles hits every symbol exactly once.
        for size in MIN_ALPHABET..=MAX_ALPHABET {
            let a = Alphabet::new(size).unwrap();
            let mut seen = vec![false; size];
            for i in 0..size {
                let p = (i as f64 + 0.5) / size as f64;
                let sym = a.symbol(normal_quantile(p));
                seen[sym as usize] = true;
            }
            assert!(
                seen.iter().all(|&s| s),
                "α={size}: not all symbols reachable"
            );
        }
    }

    #[test]
    fn letters() {
        let a = Alphabet::new(5).unwrap();
        assert_eq!(a.letter(0), 'a');
        assert_eq!(a.letter(4), 'e');
    }

    #[test]
    #[should_panic(expected = "out of alphabet")]
    fn letter_out_of_range_panics() {
        Alphabet::new(3).unwrap().letter(3);
    }

    #[test]
    fn symbol_distance_properties() {
        let a = Alphabet::new(6).unwrap();
        for x in 0..6u8 {
            for y in 0..6u8 {
                let d = a.symbol_distance(x, y);
                assert_eq!(d, a.symbol_distance(y, x), "symmetry");
                if x.abs_diff(y) <= 1 {
                    assert_eq!(d, 0.0, "adjacent symbols have zero distance");
                } else {
                    assert!(d > 0.0, "separated symbols have positive distance");
                }
            }
        }
        // Known value for α=4: dist(a, d) = β₃ - β₁ = 0.6745 * 2.
        let a4 = Alphabet::new(4).unwrap();
        assert!((a4.symbol_distance(0, 3) - 1.349).abs() < 0.01);
    }
}
