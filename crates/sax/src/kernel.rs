//! The certified O(P) SAX kernel behind both discretizers.
//!
//! The reference definition of a window's word (paper §3.1) is the
//! two-pass path: [`znorm_into`] (mean, then σ, then every point scaled),
//! [`paa_into`] over the normalized points, then one symbol per PAA value.
//! That costs O(W) per window. By linearity the same PAA value is
//! `(bucket_mean − μ)/σ`, and all three statistics can be *rolled* from
//! one window to the next in O(P). The rolled values are not
//! bit-identical to the two-pass ones, but a symbol only depends on which
//! side of each alphabet cut a value falls. [`SaxKernel`] carries a
//! rigorous bound on the distance between its rolled value and the
//! reference's value; when every bucket clears its nearest cut (and σ
//! clears `znorm_threshold`) by more than that bound, both paths provably
//! pick the same symbols. Otherwise the window is recomputed with the
//! reference path, so the emitted words are **the reference words, bit for
//! bit**.
//!
//! # State
//!
//! Everything is held relative to an *anchor* `a` — the window's two-pass
//! mean at the last rebuild — so rolled sums stay at the scale of the
//! window's spread instead of its absolute level:
//!
//! * `s1 = Σ(v − a)` and `s2 = Σ(v − a)²` over the window;
//! * one sum of `v − a` per PAA bucket, over the bucket's weight-1
//!   interior points. A fractional bucket (`W % P ≠ 0`) adds its two edge
//!   points with the same float weights [`paa_into`] uses, read fresh each
//!   window;
//! * running rounding-error bounds `err_s1`, `err_s2`, `err_b` for those
//!   sums, grown by every add/subtract.
//!
//! Every `W` slides the state is rebuilt exactly from the window, so error
//! never accumulates over more than `W` updates. The extra memory is the
//! `P` bucket sums; no per-series prefix array is kept.
//!
//! # Error bound
//!
//! With `u = f64::EPSILON` (twice the unit roundoff, a built-in 2×
//! margin) and `n = W`:
//!
//! * **Rolled side.** `μ = s1/n` and `var = s2/n − μ²` carry bounds
//!   propagated from the running sum bounds; `r = err_var/var` is the
//!   relative half-width of σ², so the true `1/σ` lies within
//!   `(1/σ)(1 ± 2r)` of the applied one. A bucket value
//!   `z = (g − μ)·(1/σ)`, with `g` the bucket's shifted mean, is then off
//!   by at most `(err_g + err_μ + defect)·(1/σ)(1 + 2r) + |g − μ|·(1/σ)
//!   (2r + 2u) + u|z|`, where `defect` covers the float PAA weights not
//!   summing to exactly `W/P`.
//! * **Reference side.** The reference sums the raw values to get its
//!   mean, so its own rounding grows with the series' *absolute* level:
//!   `e_m = (n + 2)·u·(|a| + rms(v − a))`. Its σ is off by a relative
//!   `ρ = (n + 6)u + (e_m/σ)²`, and its PAA sum by `(⌈W/P⌉ + 8)u` times
//!   the bucket's mean `|z|`, itself at most `√P` (Cauchy–Schwarz on
//!   `Σz² = n`). Without the `e_m` term a value can sit on the correct
//!   side of a cut for the exact arithmetic but on the other side for the
//!   reference's at offsets like −5e7.
//!
//! A window is certified when every bucket's margin to its nearest cut
//! exceeds twice the sum of both sides and σ clears the threshold by its
//! own bound (the flat branch, which only centres, uses scale 1). NaN or
//! infinite intermediates (non-finite input, σ = 0 with a non-positive
//! threshold) fail every comparison and therefore fall back.
//!
//! # Fallback
//!
//! A window whose margin does not clear the bound is recomputed with
//! [`znorm_into`] → [`paa_into`] → symbols into the caller's scratch: the
//! old per-window O(W) work plus the O(P) rolled update, without
//! allocating.

use std::cmp::Ordering;

use gv_timeseries::znorm_into;

use crate::discretize::SaxConfig;
use crate::paa::paa_into;

/// Twice the unit roundoff: every per-operation error term below uses it.
const EPS: f64 = f64::EPSILON;

/// A PAA bucket's window-relative geometry: the weight-1 interior
/// `start..end` plus the fractional edge points `(index, weight)`, exactly
/// as [`paa_into`] weighs them.
struct Bucket {
    start: usize,
    end: usize,
    front: Option<(usize, f64)>,
    back: Option<(usize, f64)>,
}

/// Rolling O(P) SAX state with a certified error bound (see the module
/// docs). The per-bucket sums live in the second half of the caller's
/// `pbuf` (`pbuf[P..2P]`; the first half is the fallback's PAA scratch),
/// so the kernel itself holds only scalars.
#[derive(Debug, Clone, Default)]
pub(crate) struct SaxKernel {
    anchor: f64,
    s1: f64,
    s2: f64,
    err_s1: f64,
    err_s2: f64,
    /// Bounds every bucket sum's error at once.
    err_b: f64,
    /// Slides since the last exact rebuild (never exceeds `W`).
    slides: usize,
    /// Geometry of the last rebuilt window: `W / P` when it divides
    /// exactly (else 0), the float segment length `W / P`, and the
    /// reciprocals of `W` and of the segment length.
    seg: usize,
    seg_len: f64,
    inv_n: f64,
    inv_seg: f64,
}

impl SaxKernel {
    /// Writes the SAX word of `win` into `word` (`P` symbols). `retired`
    /// is the point that left the window since the previous call — the
    /// caller slid by exactly one — or `None` to start afresh. `zbuf` (`W`
    /// long) and `pbuf` (`2P` long) are the kernel's scratch and must be
    /// passed unchanged between calls. Returns `true` when the window fell
    /// back to the two-pass path.
    // gv-lint: hot
    pub(crate) fn window_word(
        &mut self,
        config: &SaxConfig,
        retired: Option<f64>,
        win: &[f64],
        zbuf: &mut [f64],
        pbuf: &mut [f64],
        word: &mut [u8],
    ) -> bool {
        let (paa, sums) = pbuf.split_at_mut(word.len());
        match retired {
            Some(old) if self.slides < win.len() => self.slide(old, win, sums),
            _ => self.rebuild(win, sums),
        }
        if self.certify(config, win, sums, word) {
            return false;
        }
        znorm_into(win, config.znorm_threshold(), zbuf);
        paa_into(zbuf, paa);
        for (s, &p) in word.iter_mut().zip(paa.iter()) {
            *s = config.alphabet().symbol(p);
        }
        true
    }

    /// Bucket `j` of an `n`-point window. An exact division is integer
    /// arithmetic; otherwise the bounds and edge weights are
    /// [`paa_into`]'s own float expressions.
    fn bucket(&self, n: usize, j: usize) -> Bucket {
        if self.seg > 0 {
            return Bucket {
                start: j * self.seg,
                end: (j + 1) * self.seg,
                front: None,
                back: None,
            };
        }
        let lo = j as f64 * self.seg_len;
        let hi = lo + self.seg_len;
        // Both bounds are non-negative, so truncation is `floor` (and
        // avoids a libm call per bucket per window).
        let first = lo as usize;
        let start = if (first as f64) < lo {
            first + 1
        } else {
            first
        };
        let end = (hi as usize).min(n);
        let weight = |i: usize| hi.min(i as f64 + 1.0) - lo.max(i as f64);
        Bucket {
            start,
            end,
            front: (first < start).then(|| (first, weight(first))),
            back: (end < n && hi > end as f64).then(|| (end, weight(end))),
        }
    }

    /// Recomputes every sum exactly from `win`, in window order, and
    /// re-anchors at its two-pass mean.
    fn rebuild(&mut self, win: &[f64], sums: &mut [f64]) {
        let (n, p) = (win.len(), sums.len());
        let nf = n as f64;
        let mut total = 0.0;
        for &v in win {
            total += v;
        }
        let a = total / nf;
        let (mut s1, mut s2, mut abs1) = (0.0, 0.0, 0.0);
        for &v in win {
            let x = v - a;
            s1 += x;
            s2 += x * x;
            abs1 += x.abs();
        }
        let seg_len = nf / p as f64;
        *self = Self {
            anchor: a,
            s1,
            s2,
            err_s1: (nf + 2.0) * EPS * abs1,
            err_s2: (nf + 4.0) * EPS * s2,
            err_b: (seg_len.ceil() + 2.0) * EPS * abs1,
            slides: 0,
            seg: if n.is_multiple_of(p) { n / p } else { 0 },
            seg_len,
            inv_n: 1.0 / nf,
            inv_seg: 1.0 / seg_len,
        };
        for (j, c) in sums.iter_mut().enumerate() {
            let b = self.bucket(n, j);
            *c = 0.0;
            for &v in &win[b.start..b.end] {
                *c += v - a;
            }
        }
    }

    /// Rolls the sums one point to the right: `old` left the window,
    /// `win` is the new window.
    fn slide(&mut self, old: f64, win: &[f64], sums: &mut [f64]) {
        let a = self.anchor;
        let n = win.len();
        let xo = old - a;
        let xn = win[n - 1] - a;
        self.s1 += xn - xo;
        self.err_s1 += EPS * (2.0 * (xn.abs() + xo.abs()) + self.s1.abs());
        self.s2 += xn * xn - xo * xo;
        self.err_s2 += EPS * (3.0 * (xn * xn + xo * xo) + self.s2.abs());
        for (j, c) in sums.iter_mut().enumerate() {
            let b = self.bucket(n, j);
            if b.start == b.end {
                continue;
            }
            // The interior shifts left by one: its old first point leaves
            // (the retiree itself for bucket 0) and the point now at its
            // end enters.
            let leave = if b.start == 0 { old } else { win[b.start - 1] } - a;
            let enter = win[b.end - 1] - a;
            *c += enter - leave;
            self.err_b += EPS * (2.0 * (enter.abs() + leave.abs()) + c.abs());
        }
        self.slides += 1;
    }

    /// Writes the rolled symbols into `word` and returns `true` when every
    /// one is certified equal to the reference's (see the module docs for
    /// the bound); `false` leaves `word` partly written.
    fn certify(&self, config: &SaxConfig, win: &[f64], sums: &[f64], word: &mut [u8]) -> bool {
        let n = win.len() as f64;
        let p = sums.len() as f64;
        let mu = self.s1 * self.inv_n;
        let err_mu = self.err_s1 * self.inv_n + EPS * mu.abs();
        let mean_sq = self.s2 * self.inv_n;
        let var = mean_sq - mu * mu;
        let err_var = self.err_s2 * self.inv_n
            + EPS * (mean_sq + 2.0 * mu * mu + var.abs())
            + 2.0 * mu.abs() * err_mu;

        // The reference's own rounding at the series' absolute level
        // (`(x + 1)/2` bounds `√x` for the window's RMS).
        let e_m = (n + 2.0) * EPS * (self.anchor.abs() + 0.5 * (mean_sq + err_var + 1.0));
        let rho_r = (n + 6.0) * EPS;
        let paa_err = (self.seg_len.ceil() + 8.0) * EPS;
        let threshold = config.znorm_threshold();
        // `inv` is the applied 1/σ; `scale` bounds the true 1/σ from
        // above and `d_inv` bounds `|inv − 1/σ|`.
        let sd = var.max(0.0).sqrt();
        let inv = 1.0 / sd;
        // Relative half-width of σ² (∞ or NaN for a zero variance).
        let r = 1.01 * err_var * inv * inv;
        let (scale, inv, e_ref, d_inv) =
            if r < 1e-3 && sd * (1.0 - 2.0 * r - rho_r - 2.0 * EPS) >= threshold {
                let scale = inv * (1.0 + 2.0 * r + 2.0 * EPS);
                let rho = rho_r + (e_m * scale) * (e_m * scale);
                if rho > 1e-3 {
                    return false;
                }
                let e_ref = e_m * scale * (1.0 + rho) + 1.01 * p.sqrt() * (rho + paa_err);
                (scale, inv, e_ref, inv * (2.0 * r + 2.0 * EPS))
            } else {
                // Flat window (the reference only centres, never scales)
                // when its σ is certainly below the threshold.
                let ref_hi_sq = ((var.max(0.0) + err_var) * (1.0 + 4.0 * EPS) + e_m * e_m)
                    * (1.0 + rho_r)
                    * (1.0 + rho_r);
                if !(ref_hi_sq * (1.0 + 4.0 * EPS) < threshold * threshold && threshold > 0.0) {
                    return false;
                }
                (
                    1.0,
                    1.0,
                    e_m + p.sqrt() * ref_hi_sq.sqrt() * 1.01 * paa_err,
                    0.0,
                )
            };

        let defect = mu.abs() * (8.0 * p + 8.0) * EPS;
        for (j, (s, &c)) in word.iter_mut().zip(sums).enumerate() {
            let b = self.bucket(win.len(), j);
            let (mut acc, mut edge_abs) = (c, 0.0);
            for (i, w) in [b.front, b.back].into_iter().flatten() {
                let x = (win[i] - self.anchor) * w;
                acc += x;
                edge_abs += x.abs();
            }
            let g = acc * self.inv_seg;
            let err_g =
                (self.err_b + 2.0 * EPS * (c.abs() + edge_abs)) * self.inv_seg * (1.0 + EPS)
                    + EPS * g.abs();
            let y = g - mu;
            let z = y * inv;
            let err_fast =
                (err_g + err_mu + defect + EPS * y.abs()) * scale + y.abs() * d_inv + EPS * z.abs();
            let (sym, margin) = config.alphabet().symbol_with_margin(z);
            // A NaN margin or bound is incomparable: not certified.
            if margin.partial_cmp(&(2.0 * (e_ref + err_fast))) != Some(Ordering::Greater) {
                return false;
            }
            *s = sym;
        }
        true
    }
    // gv-lint: end-hot
}
