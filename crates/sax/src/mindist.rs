//! MINDIST: the lower-bounding distance between SAX words.
//!
//! `MINDIST(Q̂, Ĉ) = sqrt(n/w) * sqrt(Σ_j cell(q̂_j, ĉ_j)²)` lower-bounds
//! the Euclidean distance between the original z-normalized subsequences
//! (Lin et al. 2007). The paper uses it in two places: the *MINDIST*
//! numerosity-reduction strategy (drop consecutive words at zero MINDIST)
//! and HOTSAX-style reasoning about word similarity.

use crate::alphabet::Alphabet;
use crate::word::SaxWord;

/// Computes MINDIST between two equal-length words for subsequences of
/// original length `n`.
///
/// # Panics
/// Panics when the words have different lengths or symbols fall outside
/// the alphabet.
pub fn mindist(a: &SaxWord, b: &SaxWord, alphabet: &Alphabet, n: usize) -> f64 {
    assert_eq!(a.len(), b.len(), "MINDIST requires equal word lengths");
    let w = a.len();
    if w == 0 {
        return 0.0;
    }
    let mut sum_sq = 0.0;
    for (&x, &y) in a.symbols().iter().zip(b.symbols()) {
        let d = alphabet.symbol_distance(x, y);
        sum_sq += d * d;
    }
    ((n as f64) / (w as f64)).sqrt() * sum_sq.sqrt()
}

/// `true` when `MINDIST == 0` between two symbol slices, i.e. they have
/// equal length and every symbol pair is identical or adjacent. Cheaper
/// than [`mindist`] (no float math) and exactly the test used by the
/// MINDIST numerosity-reduction strategy; it takes raw symbols so callers
/// can compare a scratch-buffer candidate against the last kept word
/// without boxing it into a [`SaxWord`] first.
pub fn symbols_mindist_is_zero(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| x.abs_diff(y) <= 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(s: &str) -> SaxWord {
        SaxWord::from_letters(s).unwrap()
    }

    #[test]
    fn identical_words_have_zero_mindist() {
        let a4 = Alphabet::new(4).unwrap();
        assert_eq!(mindist(&w("abcd"), &w("abcd"), &a4, 16), 0.0);
    }

    #[test]
    fn adjacent_symbols_have_zero_mindist() {
        let a4 = Alphabet::new(4).unwrap();
        assert_eq!(mindist(&w("abba"), &w("babb"), &a4, 16), 0.0);
        assert!(symbols_mindist_is_zero(
            w("abba").symbols(),
            w("babb").symbols()
        ));
    }

    #[test]
    fn separated_symbols_contribute() {
        let a4 = Alphabet::new(4).unwrap();
        // cell(a, c) = β₂ - β₁ = 0 - (-0.6745) = 0.6745 for α=4.
        let d = mindist(&w("a"), &w("c"), &a4, 4);
        let expected = (4.0f64 / 1.0).sqrt() * 0.6745;
        assert!((d - expected).abs() < 0.01, "{d} vs {expected}");
        assert!(!symbols_mindist_is_zero(w("a").symbols(), w("c").symbols()));
    }

    #[test]
    fn symmetry() {
        let a5 = Alphabet::new(5).unwrap();
        let d1 = mindist(&w("aecbd"), &w("cbade"), &a5, 25);
        let d2 = mindist(&w("cbade"), &w("aecbd"), &a5, 25);
        assert_eq!(d1, d2);
    }

    #[test]
    fn scales_with_sqrt_n_over_w() {
        let a4 = Alphabet::new(4).unwrap();
        let d16 = mindist(&w("ad"), &w("da"), &a4, 16);
        let d64 = mindist(&w("ad"), &w("da"), &a4, 64);
        assert!((d64 / d16 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_words() {
        let a3 = Alphabet::new(3).unwrap();
        assert_eq!(mindist(&w(""), &w(""), &a3, 10), 0.0);
        assert!(symbols_mindist_is_zero(w("").symbols(), w("").symbols()));
    }

    #[test]
    fn length_mismatch_in_is_zero() {
        assert!(!symbols_mindist_is_zero(
            w("ab").symbols(),
            w("abc").symbols()
        ));
    }

    #[test]
    #[should_panic(expected = "equal word lengths")]
    fn length_mismatch_panics() {
        let a3 = Alphabet::new(3).unwrap();
        mindist(&w("ab"), &w("abc"), &a3, 10);
    }
}
