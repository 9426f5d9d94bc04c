//! # gv-sax
//!
//! Symbolic Aggregate approXimation (SAX, Lin et al. 2002/2007) — the
//! discretization front-end of the EDBT'15 grammar-based anomaly pipeline
//! (paper §3.1–3.2).
//!
//! The crate provides:
//!
//! * Gaussian equiprobable **breakpoints** for any alphabet size
//!   ([`Alphabet`], computed from the exact normal quantile function rather
//!   than a hard-coded table);
//! * **PAA** (Piecewise Aggregate Approximation), including the fractional
//!   scheme for window lengths not divisible by the PAA size ([`paa`]);
//! * [`SaxWord`] encoding plus the lower-bounding **MINDIST** between words;
//! * a **sliding-window discretizer** ([`SaxConfig::discretize`]) producing
//!   `(word, offset)` records, with the paper's *numerosity reduction*
//!   strategies ([`NumerosityReduction`]), and its streaming twin
//!   ([`IncrementalDiscretizer`]). Both run one certified O(P)-per-window
//!   kernel that rolls shifted window and PAA-bucket sums, bounds its own
//!   rounding error, and recomputes the rare undecidable window with the
//!   two-pass reference path — so the words are the reference words, bit
//!   for bit;
//! * a [`SaxDictionary`] interning words into dense `u32` tokens for the
//!   grammar-induction stage.
//!
//! ```
//! use gv_sax::{NumerosityReduction, SaxConfig};
//!
//! let values: Vec<f64> = (0..64).map(|i| (i as f64 / 8.0).sin()).collect();
//! let cfg = SaxConfig::new(16, 4, 4).unwrap();
//! let records = cfg.discretize(&values, NumerosityReduction::Exact).unwrap();
//! assert!(!records.is_empty());
//! assert_eq!(records[0].offset, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alphabet;
mod dictionary;
mod discretize;
mod error;
mod incremental;
mod kernel;
mod mindist;
mod paa;
mod word;

pub use alphabet::{Alphabet, MAX_ALPHABET, MIN_ALPHABET};
pub use dictionary::SaxDictionary;
pub use discretize::{sax_by_chunking, NumerosityReduction, SaxConfig, SaxRecord};
pub use error::{Error, Result};
pub use incremental::IncrementalDiscretizer;
pub use mindist::{mindist, symbols_mindist_is_zero};
pub use paa::{paa, paa_into, reconstruction_error};
pub use word::SaxWord;
