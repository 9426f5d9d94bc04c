//! Counted, early-abandoning distance computation.
//!
//! Every entry into a distance routine — even one abandoned after a few
//! points — increments [`Counter::DistanceCalls`] on the supplied
//! recorder, reproducing the paper's cost metric ("number of calls to the
//! distance function", Table 1). The kernels are free functions generic
//! over [`Recorder`], so a search can count into whatever sink it owns;
//! [`DistanceMeter`] wraps a [`LocalRecorder`] for the common
//! single-threaded case and is the *only* counting path — its accessors
//! read the recorder rather than keeping parallel tallies.

use gv_obs::{Counter, DetailTimer, Event, EventKind, LocalRecorder, Metric, Recorder};
use gv_timeseries::Resampled;

/// Independent accumulator lanes in the chunked kernels. Four partial
/// sums break the loop-carried dependence of a single `sum += d*d`, so
/// the compiler can keep the adds in flight (and autovectorize) without
/// `unsafe` or target intrinsics.
const LANES: usize = 4;

/// Points consumed between abandon checks — two lane-widths per chunk.
const STRIDE: usize = 2 * LANES;

/// Horizontal reduction over the lanes in the canonical order
/// `(l0 + l1) + (l2 + l3)`. Every caller — including the per-chunk
/// abandon check — reduces this way, so completed kernels and the
/// order-explicit scalar reference in the tests agree bit for bit.
#[inline]
fn lane_sum(acc: &[f64; LANES]) -> f64 {
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Accumulates the squared differences of one chunk (`a.len() == b.len()
/// <= STRIDE`, chunk start aligned to a STRIDE boundary) into the lanes.
///
/// Canonical reduction order: the element at chunk offset `t` lands in
/// lane `t % LANES`, one rounded add per element, in increasing `t` —
/// which for aligned chunks means lane `j` always sees global indices
/// `j, j+4, j+8, …` in order, regardless of chunk width.
#[inline]
fn accumulate_chunk(acc: &mut [f64; LANES], a: &[f64], b: &[f64]) {
    if a.len() == STRIDE && b.len() == STRIDE {
        // Full chunk: two 4-wide passes the optimizer can turn into
        // vector ops (lengths are known, bounds checks fold away).
        for j in 0..LANES {
            let d = a[j] - b[j];
            acc[j] += d * d;
        }
        for j in 0..LANES {
            let d = a[j + LANES] - b[j + LANES];
            acc[j] += d * d;
        }
    } else {
        // Tail chunk: same lane assignment, scalar.
        for (t, (&x, &y)) in a.iter().zip(b).enumerate() {
            let d = x - y;
            acc[t % LANES] += d * d;
        }
    }
}

/// Full Euclidean distance between equal-length slices, counted as one
/// distance call on `recorder`.
///
/// Per-call timing gates on `Recorder::detailed()` via [`DetailTimer`]
/// (a compile-time `false` on `NoopRecorder`), so the uninstrumented
/// kernel never reads the clock.
///
/// Uses the same chunked 4-lane accumulation (and the same reduction
/// order) as [`euclidean_early`], so a full computation and an
/// unabandoned early computation return bit-identical results.
///
/// # Panics
/// Panics on length mismatch.
// gv-lint: hot
pub fn euclidean<R: Recorder>(recorder: &R, a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "euclidean: length mismatch");
    recorder.incr(Counter::DistanceCalls);
    let timer = DetailTimer::start(recorder, Metric::DistanceNanos);
    let mut acc = [0.0; LANES];
    let mut ca = a.chunks_exact(STRIDE);
    let mut cb = b.chunks_exact(STRIDE);
    for (x, y) in ca.by_ref().zip(cb.by_ref()) {
        accumulate_chunk(&mut acc, x, y);
    }
    accumulate_chunk(&mut acc, ca.remainder(), cb.remainder());
    timer.finish(recorder);
    lane_sum(&acc).sqrt()
}

/// Early-abandoning Euclidean distance: returns `None` as soon as the
/// running sum of squares proves the distance is `>= abandon_at`
/// (the caller's current pruning threshold). Still counts as one call;
/// abandoned calls additionally increment [`Counter::EarlyAbandons`].
///
/// With `abandon_at = f64::INFINITY` this never abandons.
///
/// # Panics
/// Panics on length mismatch.
pub fn euclidean_early<R: Recorder>(
    recorder: &R,
    a: &[f64],
    b: &[f64],
    abandon_at: f64,
) -> Option<f64> {
    // gv-lint: allow(panic-reachability) documented `# Panics` precondition: mismatched subsequence lengths are a caller bug
    assert_eq!(a.len(), b.len(), "euclidean_early: length mismatch");
    recorder.incr(Counter::DistanceCalls);
    let timer = DetailTimer::start(recorder, Metric::DistanceNanos);
    let limit_sq = if abandon_at.is_finite() {
        abandon_at * abandon_at
    } else {
        f64::INFINITY
    };
    let n = a.len();
    let mut acc = [0.0; LANES];
    // Check the bound once per chunk: branch less in the hot loop.
    let mut i = 0;
    while i < n {
        let hi = (i + STRIDE).min(n);
        accumulate_chunk(&mut acc, &a[i..hi], &b[i..hi]);
        i = hi;
        if lane_sum(&acc) >= limit_sq {
            abandon_exit(recorder, timer, i, n, abandon_at);
            return None;
        }
    }
    timer.finish(recorder);
    Some(lane_sum(&acc).sqrt())
}

/// The shared abandon exit of the early-abandoning kernels: counts the
/// abandon and finishes the per-call timer — symmetric with the
/// completion path, a no-op when unarmed. Decision-level detail (the
/// abandon-position histogram and the structured event) still gates on
/// the timer's armed state, i.e. on `Recorder::detailed()`.
#[inline]
fn abandon_exit<R: Recorder>(
    recorder: &R,
    timer: DetailTimer,
    pos: usize,
    len: usize,
    abandon_at: f64,
) {
    recorder.incr(Counter::EarlyAbandons);
    let detailed = timer.armed();
    timer.finish(recorder);
    if detailed {
        recorder.record_value(Metric::AbandonPos, pos as u64);
        recorder.record_event(Event {
            position: pos as u64,
            length: len as u64,
            value: abandon_at,
            ..Event::new(EventKind::Abandoned)
        });
    }
}

/// Early-abandoning Euclidean distance between `a` and the *virtually
/// resampled* view `b` (`b.len() == a.len()`): bit-identical to
/// materializing `resample_to` into a buffer and calling
/// [`euclidean_early`] — same interpolation formula per point, same
/// chunk boundaries, same abandon positions, same counter/event
/// semantics — but the interpolation runs fused into the kernel, chunk
/// by chunk, so an abandoned call only pays for the points it actually
/// consumed instead of resampling the whole subsequence up front.
///
/// # Panics
/// Panics on length mismatch.
pub fn euclidean_early_resampled<R: Recorder>(
    recorder: &R,
    a: &[f64],
    b: &Resampled<'_>,
    abandon_at: f64,
) -> Option<f64> {
    // gv-lint: allow(panic-reachability) documented `# Panics` precondition: mismatched subsequence lengths are a caller bug
    assert_eq!(
        a.len(),
        b.len(),
        "euclidean_early_resampled: length mismatch"
    );
    recorder.incr(Counter::DistanceCalls);
    let timer = DetailTimer::start(recorder, Metric::DistanceNanos);
    let limit_sq = if abandon_at.is_finite() {
        abandon_at * abandon_at
    } else {
        f64::INFINITY
    };
    let n = a.len();
    let mut acc = [0.0; LANES];
    let mut qbuf = [0.0f64; STRIDE];
    let mut i = 0;
    while i < n {
        let hi = (i + STRIDE).min(n);
        let w = hi - i;
        b.fill(i, &mut qbuf[..w]);
        accumulate_chunk(&mut acc, &a[i..hi], &qbuf[..w]);
        i = hi;
        if lane_sum(&acc) >= limit_sq {
            abandon_exit(recorder, timer, i, n, abandon_at);
            return None;
        }
    }
    timer.finish(recorder);
    Some(lane_sum(&acc).sqrt())
}

/// [`normalized_euclidean_early`] over a virtually resampled match —
/// the Eq. (1) distance the RRA inner loop takes when candidate lengths
/// differ, with the resample fused into the abandoning kernel.
///
/// # Panics
/// Panics on length mismatch or an empty candidate.
pub fn normalized_euclidean_early_resampled<R: Recorder>(
    recorder: &R,
    a: &[f64],
    b: &Resampled<'_>,
    abandon_at: f64,
) -> Option<f64> {
    // gv-lint: allow(panic-reachability) documented `# Panics` precondition: an empty subsequence is a caller bug
    assert!(!a.is_empty(), "normalized distance of empty subsequence");
    let len = a.len() as f64;
    let raw_limit = if abandon_at.is_finite() {
        abandon_at * len
    } else {
        f64::INFINITY
    };
    euclidean_early_resampled(recorder, a, b, raw_limit).map(|d| d / len)
}

/// Early-abandoning **length-normalized** Euclidean distance — the
/// paper's Eq. (1): `sqrt(Σ (p_i − q_i)²) / len(p)`, which "favors
/// shorter subsequences for the same distance value". Abandons (and
/// returns `None`) once the normalized distance provably reaches
/// `abandon_at`.
///
/// # Panics
/// Panics on length mismatch or empty slices.
pub fn normalized_euclidean_early<R: Recorder>(
    recorder: &R,
    a: &[f64],
    b: &[f64],
    abandon_at: f64,
) -> Option<f64> {
    // gv-lint: allow(panic-reachability) documented `# Panics` precondition: an empty subsequence is a caller bug
    assert!(!a.is_empty(), "normalized distance of empty subsequence");
    let len = a.len() as f64;
    let raw_limit = if abandon_at.is_finite() {
        abandon_at * len
    } else {
        f64::INFINITY
    };
    euclidean_early(recorder, a, b, raw_limit).map(|d| d / len)
}
// gv-lint: end-hot

/// A distance-call meter: a [`LocalRecorder`] dressed up with the kernel
/// methods, for searches that own their counting.
///
/// The backing recorder is [`LocalRecorder::counters_only`] — a meter
/// counts calls and abandons but never times individual calls, so the
/// brute-force and HOTSAX hot loops stay free of per-call clock reads.
#[derive(Debug, Clone)]
pub struct DistanceMeter {
    recorder: LocalRecorder,
}

impl Default for DistanceMeter {
    fn default() -> Self {
        Self::new()
    }
}

impl DistanceMeter {
    /// A fresh meter.
    pub fn new() -> Self {
        Self {
            recorder: LocalRecorder::counters_only(),
        }
    }

    /// Total distance-function calls so far (completed + abandoned).
    pub fn calls(&self) -> u64 {
        self.recorder.counter(Counter::DistanceCalls)
    }

    /// How many of those calls were abandoned early.
    pub fn abandoned(&self) -> u64 {
        self.recorder.counter(Counter::EarlyAbandons)
    }

    /// Resets both counters.
    pub fn reset(&mut self) {
        self.recorder.reset();
    }

    /// The backing recorder — e.g. to
    /// [`merge_into`](LocalRecorder::merge_into) a caller's sink.
    pub fn recorder(&self) -> &LocalRecorder {
        &self.recorder
    }

    /// See [`euclidean`].
    pub fn euclidean(&mut self, a: &[f64], b: &[f64]) -> f64 {
        euclidean(&self.recorder, a, b)
    }

    /// See [`euclidean_early`].
    pub fn euclidean_early(&mut self, a: &[f64], b: &[f64], abandon_at: f64) -> Option<f64> {
        euclidean_early(&self.recorder, a, b, abandon_at)
    }

    /// See [`normalized_euclidean_early`].
    pub fn normalized_euclidean_early(
        &mut self,
        a: &[f64],
        b: &[f64],
        abandon_at: f64,
    ) -> Option<f64> {
        normalized_euclidean_early(&self.recorder, a, b, abandon_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gv_obs::NoopRecorder;

    #[test]
    fn plain_euclidean() {
        let mut m = DistanceMeter::new();
        let d = m.euclidean(&[0.0, 0.0], &[3.0, 4.0]);
        assert!((d - 5.0).abs() < 1e-12);
        assert_eq!(m.calls(), 1);
        assert_eq!(m.abandoned(), 0);
    }

    #[test]
    fn early_abandon_triggers_and_counts() {
        let mut m = DistanceMeter::new();
        let a = vec![0.0; 100];
        let mut b = vec![0.0; 100];
        b[0] = 10.0; // contributes 100 to the sum immediately
        let r = m.euclidean_early(&a, &b, 5.0); // 5² = 25 < 100
        assert_eq!(r, None);
        assert_eq!(m.calls(), 1);
        assert_eq!(m.abandoned(), 1);
        // Full computation when the threshold is high enough.
        let r2 = m.euclidean_early(&a, &b, 50.0);
        assert_eq!(r2, Some(10.0));
        assert_eq!(m.calls(), 2);
        assert_eq!(m.abandoned(), 1);
    }

    #[test]
    fn early_abandon_result_matches_full_when_not_abandoned() {
        let mut m = DistanceMeter::new();
        let a: Vec<f64> = (0..37).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = (0..37).map(|i| (i as f64).cos()).collect();
        let full = m.euclidean(&a, &b);
        let early = m.euclidean_early(&a, &b, f64::INFINITY).unwrap();
        assert!((full - early).abs() < 1e-12);
    }

    #[test]
    fn abandon_exactly_at_threshold() {
        let mut m = DistanceMeter::new();
        // Distance is exactly 5.0 → abandoning at 5.0 must reject (>=).
        assert_eq!(m.euclidean_early(&[0.0], &[5.0], 5.0), None);
        assert!(m.euclidean_early(&[0.0], &[5.0], 5.0001).is_some());
    }

    #[test]
    fn normalized_distance_favors_shorter() {
        let mut m = DistanceMeter::new();
        // Same raw distance, different lengths → shorter wins (larger value).
        let short = m
            .normalized_euclidean_early(&[0.0, 0.0], &[3.0, 4.0], f64::INFINITY)
            .unwrap();
        let long = m
            .normalized_euclidean_early(&[0.0, 0.0, 0.0, 0.0], &[3.0, 4.0, 0.0, 0.0], f64::INFINITY)
            .unwrap();
        assert!((short - 2.5).abs() < 1e-12);
        assert!((long - 1.25).abs() < 1e-12);
        assert!(short > long);
    }

    #[test]
    fn normalized_abandon_threshold_scales_with_length() {
        let mut m = DistanceMeter::new();
        // Raw distance 5 over length 4 → normalized 1.25.
        let a = [0.0, 0.0, 0.0, 0.0];
        let b = [3.0, 4.0, 0.0, 0.0];
        assert_eq!(m.normalized_euclidean_early(&a, &b, 1.25), None);
        assert!((m.normalized_euclidean_early(&a, &b, 1.26).unwrap() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_counters() {
        let mut m = DistanceMeter::new();
        m.euclidean(&[1.0], &[2.0]);
        m.reset();
        assert_eq!(m.calls(), 0);
        assert_eq!(m.abandoned(), 0);
    }

    #[test]
    fn free_kernels_work_against_any_recorder() {
        // Noop: result identical, nothing counted anywhere.
        let d = euclidean(&NoopRecorder, &[0.0, 0.0], &[3.0, 4.0]);
        assert!((d - 5.0).abs() < 1e-12);
        // Local: counts match the meter's for the same call sequence.
        let rec = LocalRecorder::new();
        assert!(euclidean_early(&rec, &[0.0], &[5.0], 1.0).is_none());
        assert!(euclidean_early(&rec, &[0.0], &[5.0], 100.0).is_some());
        assert_eq!(rec.counter(Counter::DistanceCalls), 2);
        assert_eq!(rec.counter(Counter::EarlyAbandons), 1);
    }

    #[test]
    fn meter_exposes_its_recorder() {
        let mut m = DistanceMeter::new();
        m.euclidean(&[1.0], &[2.0]);
        let sink = LocalRecorder::new();
        m.recorder().merge_into(&sink);
        assert_eq!(sink.counter(Counter::DistanceCalls), 1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        DistanceMeter::new().euclidean(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn detailed_recorder_gets_timings_and_abandon_events() {
        let rec = LocalRecorder::new();
        let a = vec![0.0; 64];
        let mut b = vec![0.0; 64];
        b[0] = 10.0;
        assert!(euclidean_early(&rec, &a, &b, 5.0).is_none());
        assert!(euclidean_early(&rec, &a, &b, 50.0).is_some());
        let _ = euclidean(&rec, &a, &b);
        // Three calls, three per-call timings.
        assert_eq!(rec.histogram(Metric::DistanceNanos).count(), 3);
        // One abandon: prefix position recorded and a structured event.
        assert_eq!(rec.histogram(Metric::AbandonPos).count(), 1);
        let events = rec.events_vec();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Abandoned);
        assert_eq!(events[0].length, 64);
        assert!(events[0].position >= 1 && events[0].position <= 64);
        assert!((events[0].value - 5.0).abs() < 1e-12);
    }

    /// The canonical reduction order of the chunked kernel, written as
    /// the obvious sequential loop: element `i` lands in lane `i % 4`,
    /// one rounded add per element, lanes combined `(l0+l1)+(l2+l3)`.
    fn reference_lane_sum(a: &[f64], b: &[f64]) -> f64 {
        let mut acc = [0.0f64; 4];
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            let d = x - y;
            acc[i % 4] += d * d;
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3])
    }

    /// Property test over every length 0..=512 (covering all
    /// non-multiple-of-stride tails): the chunked production kernel is
    /// bit-identical to the order-explicit sequential reference loop,
    /// and within float tolerance of the pre-chunking single-accumulator
    /// sum (whose last bits legitimately differ — see EXPERIMENTS.md).
    #[test]
    fn chunked_kernel_matches_sequential_reference_bitwise() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            // xorshift*-style deterministic doubles in [-1e4, 1e4).
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2e4 - 1e4
        };
        for len in 0..=512usize {
            let a: Vec<f64> = (0..len).map(|_| next()).collect();
            let b: Vec<f64> = (0..len).map(|_| next()).collect();
            let expect = reference_lane_sum(&a, &b).sqrt();
            let full = euclidean(&NoopRecorder, &a, &b);
            assert_eq!(
                full.to_bits(),
                expect.to_bits(),
                "len {len}: euclidean {full} vs reference {expect}"
            );
            let early = euclidean_early(&NoopRecorder, &a, &b, f64::INFINITY)
                .expect("no abandon at infinity");
            assert_eq!(
                early.to_bits(),
                expect.to_bits(),
                "len {len}: euclidean_early {early} vs reference {expect}"
            );
            // Against the old single-accumulator ordering: equal to
            // rounding, not to the bit.
            let naive: f64 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt();
            assert!(
                (full - naive).abs() <= 1e-9 * naive.max(1.0),
                "len {len}: chunked {full} drifted from naive {naive}"
            );
        }
    }

    /// The fused resample+kernel path is observationally identical to
    /// materializing the resample first: same distance bits on
    /// completion, same abandon decisions and positions, same counters
    /// and events — across upsampling, downsampling, identity, tail
    /// chunks (lengths off the 8-point stride), and 1- and 2-point
    /// sources and targets, at thresholds that never abandon, abandon in
    /// the first chunk, and abandon in the last chunk.
    #[test]
    fn fused_resample_kernel_matches_materialized_bitwise() {
        let mut state = 0xD1B54A32D192ED03u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
        };
        for &(src_len, dst_len) in &[
            (300usize, 320usize),
            (320, 300),
            (37, 300),
            (300, 37),
            (300, 300),
            (1, 64),
            (64, 1),
            (2, 511),
            (301, 299),
            (299, 301),
            (13, 21),
            (21, 13),
            (2, 2),
            (2, 13),
            (13, 2),
            (2, 1),
            (1, 3),
            (1, 1),
        ] {
            let a: Vec<f64> = (0..dst_len).map(|_| next()).collect();
            let b: Vec<f64> = (0..src_len).map(|_| next()).collect();
            let mut b_rs = vec![0.0; dst_len];
            gv_timeseries::resample_to(&b, &mut b_rs);
            let view = Resampled::new(&b, dst_len);
            // Just under the full distance: the abandon lands in the last
            // chunk.
            let full = euclidean_early(&NoopRecorder, &a, &b_rs, f64::INFINITY).unwrap();
            let mut abandon_positions = Vec::new();
            for abandon_at in [f64::INFINITY, 1.0, 0.25, 0.0, full * (1.0 - 1e-9)] {
                let mat_rec = LocalRecorder::new();
                let fus_rec = LocalRecorder::new();
                let mat = euclidean_early(&mat_rec, &a, &b_rs, abandon_at);
                let fus = euclidean_early_resampled(&fus_rec, &a, &view, abandon_at);
                assert_eq!(
                    mat.map(f64::to_bits),
                    fus.map(f64::to_bits),
                    "({src_len} -> {dst_len}) @ {abandon_at}: {mat:?} vs {fus:?}"
                );
                for c in Counter::ALL {
                    assert_eq!(
                        mat_rec.counter(c),
                        fus_rec.counter(c),
                        "counter {}",
                        c.name()
                    );
                }
                assert_eq!(
                    mat_rec.histogram(Metric::AbandonPos).count(),
                    fus_rec.histogram(Metric::AbandonPos).count()
                );
                let (me, fe) = (mat_rec.events_vec(), fus_rec.events_vec());
                assert_eq!(me.len(), fe.len());
                for (m, f) in me.iter().zip(&fe) {
                    assert_eq!(
                        (m.kind, m.position, m.length),
                        (f.kind, f.position, f.length)
                    );
                    if f.kind == EventKind::Abandoned {
                        abandon_positions.push(f.position as usize);
                    }
                }
                // Normalized variants agree the same way.
                let mat = normalized_euclidean_early(&NoopRecorder, &a, &b_rs, abandon_at);
                let fus =
                    normalized_euclidean_early_resampled(&NoopRecorder, &a, &view, abandon_at);
                assert_eq!(mat.map(f64::to_bits), fus.map(f64::to_bits));
            }
            assert!(
                abandon_positions.contains(&dst_len.min(STRIDE)),
                "({src_len} -> {dst_len}): no first-chunk abandon in {abandon_positions:?}"
            );
            if full > 0.0 {
                assert!(
                    abandon_positions.contains(&dst_len),
                    "({src_len} -> {dst_len}): no last-chunk abandon in {abandon_positions:?}"
                );
            }
        }
    }

    /// Satellite contract: an abandon under a detailed (armed) recorder
    /// and under a counters-only (unarmed) recorder leave identical
    /// *counter* state — the armed/unarmed asymmetry is confined to
    /// decision-level detail (histograms + events).
    #[test]
    fn armed_and_unarmed_abandons_count_identically() {
        let a = vec![0.0; 64];
        let mut b = vec![0.0; 64];
        b[0] = 10.0;
        let armed = LocalRecorder::new();
        let unarmed = LocalRecorder::counters_only();
        assert!(armed.detailed() && !unarmed.detailed());
        for rec in [&armed, &unarmed] {
            assert!(euclidean_early(rec, &a, &b, 5.0).is_none());
            assert!(euclidean_early(rec, &a, &b, 50.0).is_some());
        }
        for c in Counter::ALL {
            assert_eq!(
                armed.counter(c),
                unarmed.counter(c),
                "counter {} diverged between armed and unarmed abandons",
                c.name()
            );
        }
        assert_eq!(armed.counter(Counter::DistanceCalls), 2);
        assert_eq!(armed.counter(Counter::EarlyAbandons), 1);
        // Detail stays gated: the armed recorder timed both calls and
        // logged the abandon, the unarmed one recorded nothing extra.
        assert_eq!(armed.histogram(Metric::DistanceNanos).count(), 2);
        assert_eq!(armed.histogram(Metric::AbandonPos).count(), 1);
        assert!(unarmed.histogram(Metric::DistanceNanos).is_empty());
        assert!(unarmed.histogram(Metric::AbandonPos).is_empty());
        assert!(unarmed.events().is_empty());
    }

    #[test]
    fn meter_and_counters_only_skip_detail() {
        let mut m = DistanceMeter::new();
        let a = vec![0.0; 32];
        let mut b = vec![0.0; 32];
        b[0] = 10.0;
        assert!(m.euclidean_early(&a, &b, 1.0).is_none());
        assert_eq!(m.calls(), 1);
        assert_eq!(m.abandoned(), 1);
        assert!(m.recorder().histogram(Metric::DistanceNanos).is_empty());
        assert!(m.recorder().histogram(Metric::AbandonPos).is_empty());
        assert!(m.recorder().events().is_empty());
    }
}
