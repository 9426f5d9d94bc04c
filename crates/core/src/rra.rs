//! RRA — the Rare Rule Anomaly algorithm (paper §4.2, Algorithm 1).
//!
//! An exact variable-length discord search over the grammar's rule
//! intervals. The grammar supplies both the candidate set and the two
//! orderings that make the HOTSAX-style pruning effective:
//!
//! * **Outer** — candidates in ascending rule-usage frequency (uncovered
//!   runs have frequency 0 and go first): rare rules are likely anomalous,
//!   so `best_so_far` grows early;
//! * **Inner** — same-rule sibling subsequences first (they are likely
//!   near-identical, driving `nearest` below `best_so_far` fast), then the
//!   rest in random order.
//!
//! Because candidates vary in length, distances use the paper's Eq. (1):
//! Euclidean between z-normalized subsequences, the match linearly
//! resampled onto the candidate's length, normalized by that length.
//!
//! ## Parallel search
//!
//! The outer loop can shard across `threads` workers
//! ([`discords_parallel_with`], or an `EngineConfig` through the engine
//! layer). Each rank's surviving candidates are striped round-robin across
//! scoped threads that share a best-so-far lower bound through an
//! `AtomicU64` (f64 bits, monotone-max CAS). The ranked discords are
//! **bit-identical to the sequential search for any thread count**: a
//! completed candidate's nearest-neighbour distance is its exact true
//! minimum (abandoning never lowers it), a candidate pruned against the
//! shared bound is strictly below the rank's final maximum so it can never
//! win or tie, and the merge picks the maximum distance with ties broken
//! toward the earliest candidate in the outer order — exactly the
//! sequential first-wins rule. Only the *cost* (distance calls, prune
//! counts) varies with thread count and timing.
//!
//! ## Resumed scans across ranks
//!
//! Rank `r` reruns the outer loop with the discords found so far excluded,
//! but a candidate's inner scan does not start over. For one candidate the
//! values `nearest` takes during its scan depend only on the candidate,
//! the fixed visit sequence (its same-rule siblings, then the shared
//! `inner` order) and the cached normal forms; the rank and the bound only
//! decide where the scan stops. So each candidate keeps a scan state
//! `{cursor, nearest, done}` for the whole search, and a later visit
//! resumes from it ([`Counter::RraScansResumed`]):
//!
//! * a `done` scan returns its exact nearest-neighbour distance with no
//!   distance calls;
//! * a carried `nearest` already below the rank's bound prunes with no
//!   calls — a fresh scan would have pruned too, at or before the carried
//!   cursor, since `nearest` only falls along the sequence;
//! * otherwise the scan continues from the cursor, exactly as a fresh scan
//!   would past that point (no earlier step could have pruned).
//!
//! Ranks stay bit-identical for any thread count: a resumed prune has
//! `nearest < bound ≤` the rank's final maximum, and a completed
//! candidate's nearest is its exact minimum. The argument rests on one
//! invariant: **the inner set does not depend on `found`** — only the
//! outer eligibility filter does. A future filter of inner matches on
//! `found` (or on anything else that changes between ranks) must reset
//! the scan states.

use std::sync::atomic::{AtomicU64, Ordering};

use gv_discord::{distance, DiscordRecord, SearchStats};
use gv_obs::{
    Counter, Event, EventKind, LocalRecorder, Metric, NoopRecorder, Recorder, SpanId, SpanTimer,
    Stage,
};
use gv_sequitur::RuleId;
use gv_timeseries::{Interval, Resampled, SeriesStats, DEFAULT_ZNORM_THRESHOLD};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::error::{Error, Result};
use crate::intervals::{rule_intervals, RuleInterval};
use crate::model::GrammarModel;

/// The RRA output: ranked variable-length discords plus the search cost.
#[derive(Debug, Clone)]
pub struct RraReport {
    /// Discords, best (largest normalized NN distance) first.
    pub discords: Vec<DiscordRecord>,
    /// Distance-call accounting (the Table 1 metric).
    pub stats: SearchStats,
    /// How many candidate intervals the grammar supplied.
    pub num_candidates: usize,
}

/// Runs RRA on a series given its grammar model.
///
/// Frequency-0 candidates touching the series boundary are dropped before
/// the search: the first and last token runs routinely fall outside every
/// rule simply because the pattern dictionary is still warming up (or the
/// series stops mid-pattern), and their large nearest-neighbour distances
/// would otherwise shadow genuine interior anomalies. Use
/// [`discords_from_intervals`] with [`rule_intervals`] to search the raw,
/// unfiltered candidate set.
///
/// # Errors
/// [`Error::NoCandidates`] when the grammar yields fewer than two
/// candidate intervals (nothing to compare).
pub fn discords(values: &[f64], model: &GrammarModel, k: usize, seed: u64) -> Result<RraReport> {
    discords_with(values, model, k, seed, &NoopRecorder)
}

/// [`discords`] with instrumentation: the search publishes its counters
/// (distance calls, early abandons, pruning outcomes) and the
/// [`Stage::RraOuter`]/[`Stage::RraInner`] timings to `recorder`.
///
/// # Errors
/// Same as [`discords`].
pub fn discords_with<R: Recorder>(
    values: &[f64],
    model: &GrammarModel,
    k: usize,
    seed: u64,
    recorder: &R,
) -> Result<RraReport> {
    discords_parallel_with(values, model, k, seed, 1, recorder)
}

/// [`discords_with`] sharding the outer loop across `threads` scoped
/// workers. The ranked discords are bit-identical to the sequential search
/// (`threads = 1`) — see the module docs for why; only the reported cost
/// varies.
///
/// # Errors
/// Same as [`discords`].
pub fn discords_parallel_with<R: Recorder>(
    values: &[f64],
    model: &GrammarModel,
    k: usize,
    seed: u64,
    threads: usize,
    recorder: &R,
) -> Result<RraReport> {
    let mut candidates = rule_intervals(model);
    let len = model.series_len;
    candidates.retain(|c| c.rule.is_some() || (c.interval.start > 0 && c.interval.end < len));
    search_in(
        values,
        &candidates,
        k,
        seed,
        SearchOptions::default(),
        threads,
        &mut RraScratch::default(),
        recorder,
        None,
    )
}

/// Ablation switches for the Algorithm 1 search. The defaults are the
/// paper's algorithm; turning pieces off quantifies what each grammar-
/// derived heuristic buys (see the `ablation_rra` bench binary).
#[derive(Debug, Clone, Copy)]
pub struct SearchOptions {
    /// Order the outer loop by ascending rule frequency (`false`: random).
    pub outer_by_frequency: bool,
    /// Visit same-rule siblings first in the inner loop (`false`: one
    /// random order for everything).
    pub siblings_first: bool,
    /// Abandon distance computations early against the current nearest.
    pub early_abandon: bool,
}

impl Default for SearchOptions {
    fn default() -> Self {
        Self {
            outer_by_frequency: true,
            siblings_first: true,
            early_abandon: true,
        }
    }
}

/// Runs the Algorithm 1 search over an explicit candidate list (exposed
/// separately for tests and for callers that pre-filter candidates).
///
/// # Errors
/// [`Error::NoCandidates`] when fewer than two candidates are supplied.
pub fn discords_from_intervals(
    values: &[f64],
    candidates: &[RuleInterval],
    k: usize,
    seed: u64,
) -> Result<RraReport> {
    discords_with_options(values, candidates, k, seed, SearchOptions::default())
}

/// [`discords_from_intervals`] with explicit [`SearchOptions`]. The result
/// set is identical for every option combination (the heuristics only
/// reorder and prune); the *cost* differs.
///
/// # Errors
/// [`Error::NoCandidates`] when fewer than two candidates are supplied.
pub fn discords_with_options(
    values: &[f64],
    candidates: &[RuleInterval],
    k: usize,
    seed: u64,
    options: SearchOptions,
) -> Result<RraReport> {
    discords_with_options_recorded(values, candidates, k, seed, options, &NoopRecorder)
}

/// The fully-parameterized Algorithm 1 entry point: explicit candidates,
/// [`SearchOptions`], and a [`Recorder`] sink.
///
/// Counting happens exactly once, in a search-local [`LocalRecorder`] the
/// distance kernels increment directly; [`SearchStats`] is derived from it
/// and its totals are merged into `recorder` at the end, so the stats and
/// the recorder can never disagree. Stage timings ([`Stage::RraOuter`] for
/// the whole search, [`Stage::RraInner`] for the nested nearest-neighbor
/// loops) are only measured when `recorder` is enabled — with a
/// [`NoopRecorder`] the clock is never read.
///
/// # Errors
/// [`Error::NoCandidates`] when fewer than two candidates are supplied.
pub fn discords_with_options_recorded<R: Recorder>(
    values: &[f64],
    candidates: &[RuleInterval],
    k: usize,
    seed: u64,
    options: SearchOptions,
    recorder: &R,
) -> Result<RraReport> {
    search_in(
        values,
        candidates,
        k,
        seed,
        options,
        1,
        &mut RraScratch::default(),
        recorder,
        None,
    )
}

/// Reusable z-normalization scratch for the *reference* paths
/// ([`reference_nn`], [`reference_rank`], [`nn_distance_profile`]),
/// which normalize candidate windows on the fly instead of building the
/// search-wide cache. The search itself no longer needs per-evaluation
/// buffers: normal forms come from the cache, and length-mismatched
/// matches are resampled lazily inside the fused kernel
/// ([`distance::euclidean_early_resampled`]) — nothing is materialized.
#[derive(Debug, Default)]
pub(crate) struct EvalBufs {
    p_z: Vec<f64>,
    q_z: Vec<f64>,
}

/// Reusable scratch state for the Algorithm 1 search: visit orders, the
/// sibling index, the per-rank active list, the prefix-sum statistics,
/// the per-candidate normal-form cache, and the per-candidate scan states. Held inside an engine
/// `Workspace` so repeated searches stop re-allocating after warm-up.
#[derive(Debug, Default)]
pub(crate) struct RraScratch {
    outer: Vec<usize>,
    inner: Vec<usize>,
    /// Candidates surviving the per-rank eligibility filter, in outer
    /// order (parallel path only).
    active: Vec<u32>,
    /// `(active_index, nearest)` for completed candidates, merged from
    /// the workers (parallel path only).
    completed: Vec<(u32, f64)>,
    /// Sorted `(rule, candidate_index)` pairs — a flat, thread-shareable
    /// replacement for the per-rule sibling hash map. Within one rule the
    /// pairs stay in ascending candidate order, so sibling iteration
    /// matches the original insertion-order lists exactly.
    sib_pairs: Vec<(RuleId, u32)>,
    /// Prefix-sum statistics over the searched series: O(1),
    /// cancellation-safe window mean/std shared by every z-normalization
    /// in the search (DESIGN.md §12).
    stats: SeriesStats,
    /// Flat per-candidate z-normalized normal forms, computed **once per
    /// search** instead of once per comparison. Candidate `i` occupies
    /// `norms[norm_off[i] as usize..norm_off[i + 1] as usize]`. Rebuilt
    /// at the top of every `search_in` call (the cache is valid only for
    /// that call's `(values, candidates)` pair — invalidation is simply
    /// the rebuild), then shared read-only by the sequential path, every
    /// parallel worker, and each rank.
    norms: Vec<f64>,
    norm_off: Vec<u32>,
    /// One resumable inner-scan state per candidate, carried across the
    /// ranks of one search (see the module docs). Reset by `prepare`,
    /// next to the norm cache, at the top of every `search_in` call.
    scan: Vec<ScanState>,
}

impl RraScratch {
    /// Capacities of every reusable buffer, for allocation-stability
    /// assertions on a warmed-up workspace.
    pub(crate) fn capacity_signature(&self) -> [usize; 8] {
        [
            self.outer.capacity(),
            self.inner.capacity(),
            self.active.capacity(),
            self.completed.capacity(),
            self.sib_pairs.capacity(),
            self.stats.capacity(),
            self.norms.capacity().max(self.norm_off.capacity()),
            self.scan.capacity(),
        ]
    }

    /// Per-search setup: prefix-sum statistics, per-candidate normal
    /// forms, fresh scan states, the outer and inner visit orders, and the
    /// sibling index.
    fn prepare(
        &mut self,
        values: &[f64],
        candidates: &[RuleInterval],
        seed: u64,
        options: SearchOptions,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = candidates.len();

        // Prefix-sum statistics + per-candidate normal forms, once per
        // search. Every rank, worker, and reference replay reads these
        // same cached bits, so pruning order and thread count cannot
        // change any distance. The scan states are valid for the same
        // `(values, candidates)` pair and the visit orders built below.
        self.stats.rebuild(values);
        build_norm_cache(
            values,
            candidates,
            &self.stats,
            &mut self.norms,
            &mut self.norm_off,
        );
        self.scan.clear();
        self.scan.resize(n, ScanState::FRESH);

        // Outer: ascending frequency, random within ties.
        self.outer.clear();
        self.outer.extend(0..n);
        self.outer.shuffle(&mut rng);
        if options.outer_by_frequency {
            self.outer.sort_by_key(|&i| candidates[i].frequency);
        }

        // Sibling pairs per rule (sorted: rule, then original candidate
        // order).
        self.sib_pairs.clear();
        for (i, c) in candidates.iter().enumerate() {
            if let Some(r) = c.rule {
                self.sib_pairs.push((r, i as u32));
            }
        }
        self.sib_pairs.sort_unstable();

        // Shared random order for the "rest" phase of the inner loop.
        self.inner.clear();
        self.inner.extend(0..n);
        self.inner.shuffle(&mut rng);
    }
}

/// Where one outer candidate's inner scan stopped. The scan visits a
/// fixed sequence — the candidate's same-rule siblings, then the shared
/// `inner` order — and `nearest` after each step depends only on that
/// sequence and the cached norms, never on the rank or the bound. So a
/// later rank can resume from here instead of starting over.
#[derive(Debug, Clone, Copy)]
struct ScanState {
    /// Next position in the visit sequence (siblings first, then
    /// `inner`; skipped entries count too).
    cursor: u32,
    /// Running minimum over every evaluated match so far.
    nearest: f64,
    /// The whole sequence was scanned: `nearest` is the exact
    /// nearest-neighbour distance.
    done: bool,
}

impl ScanState {
    /// A scan that has not started.
    const FRESH: Self = Self {
        cursor: 0,
        nearest: f64::INFINITY,
        done: false,
    };

    /// Whether an earlier visit left this state behind. Every visit
    /// either evaluates at least one match before pruning (`nearest`
    /// starts at infinity) or finishes the sequence.
    fn resumed(&self) -> bool {
        self.cursor > 0 || self.done
    }
}

/// Builds the per-candidate normal-form cache: each candidate window
/// z-normalized via the prefix-sum statistics, laid out back to back in
/// `norms` with `norm_off` offsets (one more entry than candidates).
fn build_norm_cache(
    values: &[f64],
    candidates: &[RuleInterval],
    stats: &SeriesStats,
    norms: &mut Vec<f64>,
    norm_off: &mut Vec<u32>,
) {
    norms.clear();
    norm_off.clear();
    norm_off.reserve(candidates.len() + 1);
    norm_off.push(0);
    for c in candidates {
        let lo = norms.len();
        norms.resize(lo + c.interval.len(), 0.0);
        stats.znorm_window_into(
            values,
            c.interval.start,
            c.interval.end,
            DEFAULT_ZNORM_THRESHOLD,
            &mut norms[lo..],
        );
        norm_off.push(norms.len() as u32);
    }
}

/// Candidate `i`'s cached z-normalized form.
#[inline]
fn cached_norm<'a>(norms: &'a [f64], norm_off: &[u32], i: usize) -> &'a [f64] {
    &norms[norm_off[i] as usize..norm_off[i + 1] as usize]
}

/// The sorted-pairs sibling lookup: all candidates of `rule`, ascending.
fn sibling_range(pairs: &[(RuleId, u32)], rule: RuleId) -> &[(RuleId, u32)] {
    let lo = pairs.partition_point(|&(r, _)| r < rule);
    let hi = pairs.partition_point(|&(r, _)| r <= rule);
    &pairs[lo..hi]
}

/// Rank-constant eligibility: a candidate is searched when it does not
/// overlap an already-found discord, is non-empty, and passes the
/// tandem-repeat guard — a rule candidate whose every same-rule sibling is
/// a self-match (the rule's occurrences are adjacent repeats of each
/// other) demonstrably recurs — the grammar compressed it — so it is not
/// algorithmically random. The non-self constraint would orphan it onto
/// unrelated matches and inflate its NN distance; skip it as an outer
/// candidate (it still serves as an inner match for others).
fn eligible(
    candidates: &[RuleInterval],
    pi: usize,
    sib_pairs: &[(RuleId, u32)],
    found: &[DiscordRecord],
) -> bool {
    let p = &candidates[pi];
    if found.iter().any(|d| d.interval().overlaps(&p.interval)) {
        return false;
    }
    if p.interval.is_empty() {
        return false;
    }
    if let Some(r) = p.rule {
        let has_admissible_sibling = sibling_range(sib_pairs, r)
            .iter()
            .any(|&(_, qi)| qi as usize != pi && admissible(p, &candidates[qi as usize]));
        if !has_admissible_sibling {
            return false;
        }
    }
    true
}

/// One outer candidate's inner search, resumed from `state`: records the
/// Visited event, walks the siblings-first then shared-random-order
/// sequence with pruning against `bound()`, writes back where it stopped,
/// and records the outcome event plus the pruned/completed counter.
/// Returns `(nearest, pruned)`.
///
/// A `done` state returns its exact nearest with no distance calls; a
/// carried `nearest` already below `bound()` prunes with no calls;
/// otherwise the scan continues from `state.cursor`. Each outcome matches
/// what a fresh scan would decide: `nearest` only falls along the
/// sequence, so a fresh scan under the same bound would have pruned at or
/// before the carried cursor, or not at all before it.
///
/// `bound` is read after every evaluation: the sequential path passes the
/// rank's best-so-far (constant during one candidate), the parallel path
/// reads the shared atomic so workers prune against each other's results.
#[allow(clippy::too_many_arguments)]
fn scan_candidate<F: Fn() -> f64>(
    candidates: &[RuleInterval],
    norms: &[f64],
    norm_off: &[u32],
    pi: usize,
    state: &mut ScanState,
    sib_pairs: &[(RuleId, u32)],
    inner: &[usize],
    options: SearchOptions,
    bound: F,
    local: &LocalRecorder,
    detail: bool,
    timing: bool,
    inner_span: Option<SpanId>,
) -> (f64, bool) {
    let p = &candidates[pi];
    let p_len = p.interval.len();
    local.incr(Counter::RraCandidates);
    if state.resumed() {
        local.incr(Counter::RraScansResumed);
    }
    let calls_before = local.counter(Counter::DistanceCalls);
    if detail {
        local.record_value(Metric::CandidateLen, p_len as u64);
        local.record_value(Metric::RuleUses, p.frequency as u64);
        local.record_event(Event {
            position: p.interval.start as u64,
            length: p_len as u64,
            rule: p.rule.map(|r| r.0),
            frequency: p.frequency as u64,
            ..Event::new(EventKind::Visited)
        });
    }
    let p_z = cached_norm(norms, norm_off, pi);

    let mut nearest = state.nearest;
    let mut pruned = false;
    let inner_timer = SpanTimer::start_at(timing, inner_span, Stage::RraInner);

    if !state.done {
        // Phase 1: same-rule siblings; phase 2: everything else, in the
        // shared random order, skipping the phase-1 siblings.
        let phase_one = options.siblings_first && p.rule.is_some();
        let sibs = match p.rule {
            Some(r) if phase_one => sibling_range(sib_pairs, r),
            _ => &[],
        };
        let mut cursor = state.cursor as usize;
        pruned = nearest < bound();
        while !pruned && cursor < sibs.len() + inner.len() {
            let (qi, sibling) = match sibs.get(cursor) {
                Some(&(_, qi)) => (qi as usize, true),
                None => (inner[cursor - sibs.len()], false),
            };
            cursor += 1;
            if qi == pi {
                continue;
            }
            let q = &candidates[qi];
            if (!sibling && phase_one && q.rule == p.rule) || !admissible(p, q) {
                continue;
            }
            evaluate(
                p_z,
                cached_norm(norms, norm_off, qi),
                local,
                &mut nearest,
                options.early_abandon,
            );
            pruned = nearest < bound();
        }
        *state = ScanState {
            cursor: cursor as u32,
            nearest,
            done: !pruned,
        };
    }

    inner_timer.finish(local);
    if detail {
        // A pruned candidate's `nearest` is finite by construction
        // (it dropped below `best_so_far`); a completed one may
        // have found no admissible match at all — encode that as
        // -1.0 so the JSON stays finite.
        let outcome = if pruned {
            EventKind::Pruned
        } else {
            EventKind::Completed
        };
        local.record_event(Event {
            position: p.interval.start as u64,
            length: p_len as u64,
            rule: p.rule.map(|r| r.0),
            frequency: p.frequency as u64,
            calls: local.counter(Counter::DistanceCalls) - calls_before,
            value: if nearest.is_finite() { nearest } else { -1.0 },
            ..Event::new(outcome)
        });
    }
    if pruned {
        local.incr(Counter::CandidatesPruned);
    } else {
        local.incr(Counter::CandidatesCompleted);
    }
    (nearest, pruned)
}

/// The search engine behind every public RRA entry point: explicit
/// candidates, options, thread count, and reusable scratch.
///
/// # Errors
/// [`Error::NoCandidates`] when fewer than two candidates are supplied.
#[allow(clippy::too_many_arguments)]
pub(crate) fn search_in<R: Recorder>(
    values: &[f64],
    candidates: &[RuleInterval],
    k: usize,
    seed: u64,
    options: SearchOptions,
    threads: usize,
    scratch: &mut RraScratch,
    recorder: &R,
    parent: Option<SpanId>,
) -> Result<RraReport> {
    if candidates.len() < 2 {
        return Err(Error::NoCandidates);
    }
    // The search-local tally only keeps decision-level detail (events,
    // histograms, per-call timings) when the caller's sink wants it;
    // otherwise it counts like PR 1 — no clock reads on the distance path.
    let detail = recorder.detailed();
    let local = if detail {
        LocalRecorder::new()
    } else {
        LocalRecorder::counters_only()
    };
    let timing = recorder.enabled();
    // Spans accumulate in `local` (rooted at rra-outer) and are grafted
    // under the caller's `parent` at the final merge. The inner node is
    // resolved up front on both the sequential and parallel paths so the
    // tree *shape* is identical for every thread count, even when a rank
    // scans zero candidates.
    let outer_timer = SpanTimer::start_if(timing, &local, None, Stage::RraOuter);
    let outer_span = outer_timer.span();
    let inner_span = if timing {
        local.span_id(outer_span, Stage::RraInner)
    } else {
        None
    };
    let n = candidates.len();
    let threads = threads.max(1);
    scratch.prepare(values, candidates, seed, options);
    let RraScratch {
        outer,
        inner,
        active,
        completed,
        sib_pairs,
        norms,
        norm_off,
        scan,
        ..
    } = scratch;

    let mut found: Vec<DiscordRecord> = Vec::new();

    for rank in 0..k {
        let selected = if threads > 1 {
            parallel_rank(
                candidates, norms, norm_off, scan, outer, inner, active, completed, sib_pairs,
                &found, options, threads, &local, detail, timing, outer_span,
            )
        } else {
            sequential_rank(
                candidates, norms, norm_off, scan, outer, inner, sib_pairs, &found, options,
                &local, detail, timing, inner_span,
            )
        };
        match selected {
            Some((pi, distance)) => found.push(DiscordRecord {
                position: candidates[pi].interval.start,
                length: candidates[pi].interval.len(),
                distance,
                rank,
            }),
            None => break,
        }
    }

    // The full search time; RraInner nests inside it, and the trace's
    // total skips nested stages so nothing double-counts. Under a
    // parallel search the merged RraInner sum can exceed this
    // wall-clock figure — workers overlap.
    outer_timer.finish(&local);
    let stats = SearchStats {
        distance_calls: local.counter(Counter::DistanceCalls),
        early_abandoned: local.counter(Counter::EarlyAbandons),
        candidates_pruned: local.counter(Counter::CandidatesPruned),
        candidates_completed: local.counter(Counter::CandidatesCompleted),
    };
    local.merge_into_under(recorder, parent);
    Ok(RraReport {
        discords: found,
        stats,
        num_candidates: n,
    })
}

/// One rank of the sequential search: Algorithm 1's outer loop with the
/// running best-so-far as the prune bound, each candidate resuming its
/// scan from `scan`. Returns the winning candidate index and its NN
/// distance.
#[allow(clippy::too_many_arguments)]
fn sequential_rank(
    candidates: &[RuleInterval],
    norms: &[f64],
    norm_off: &[u32],
    scan: &mut [ScanState],
    outer: &[usize],
    inner: &[usize],
    sib_pairs: &[(RuleId, u32)],
    found: &[DiscordRecord],
    options: SearchOptions,
    local: &LocalRecorder,
    detail: bool,
    timing: bool,
    inner_span: Option<SpanId>,
) -> Option<(usize, f64)> {
    let mut best_dist = -1.0f64;
    let mut best: Option<usize> = None;
    for &pi in outer {
        if !eligible(candidates, pi, sib_pairs, found) {
            continue;
        }
        let bound = best_dist;
        let (nearest, pruned) = scan_candidate(
            candidates,
            norms,
            norm_off,
            pi,
            &mut scan[pi],
            sib_pairs,
            inner,
            options,
            || bound,
            local,
            detail,
            timing,
            inner_span,
        );
        if pruned {
            continue;
        }
        if nearest.is_finite() && nearest > best_dist {
            best_dist = nearest;
            best = Some(pi);
        }
    }
    best.map(|pi| (pi, best_dist))
}

/// One rank of the parallel search: the eligibility-filtered outer order
/// is striped round-robin across scoped workers that share a monotone-max
/// prune bound (f64 bits in an `AtomicU64`). Completed candidates with a
/// finite nearest are collected and merged deterministically: maximum
/// distance first, ties broken toward the earliest outer position —
/// reproducing the sequential first-wins rule bit-for-bit (see the module
/// docs for the argument). Workers resume from a shared read-only view of
/// `scan` and return their `(candidate, state)` updates, applied after the
/// join; each candidate is scanned by exactly one worker per rank.
#[allow(clippy::too_many_arguments)]
fn parallel_rank(
    candidates: &[RuleInterval],
    norms: &[f64],
    norm_off: &[u32],
    scan: &mut [ScanState],
    outer: &[usize],
    inner: &[usize],
    active: &mut Vec<u32>,
    completed: &mut Vec<(u32, f64)>,
    sib_pairs: &[(RuleId, u32)],
    found: &[DiscordRecord],
    options: SearchOptions,
    threads: usize,
    local: &LocalRecorder,
    detail: bool,
    timing: bool,
    outer_span: Option<SpanId>,
) -> Option<(usize, f64)> {
    active.clear();
    active.extend(
        outer
            .iter()
            .copied()
            .filter(|&pi| eligible(candidates, pi, sib_pairs, found))
            .map(|pi| pi as u32),
    );
    completed.clear();
    if active.is_empty() {
        return None;
    }
    let threads = threads.min(active.len());
    let bound = AtomicU64::new((-1.0f64).to_bits());
    let active_ref: &[u32] = active;
    let inner_ref: &[usize] = inner;
    let sib_ref: &[(RuleId, u32)] = sib_pairs;
    let norms_ref: &[f64] = norms;
    let off_ref: &[u32] = norm_off;
    let scan_ref: &[ScanState] = scan;

    type WorkerResult = (LocalRecorder, Vec<(u32, f64)>, Vec<(u32, ScanState)>);
    let worker_results: Vec<WorkerResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let bound = &bound;
                s.spawn(move || {
                    let wlocal = if detail {
                        LocalRecorder::new()
                    } else {
                        LocalRecorder::counters_only()
                    };
                    // SpanIds are per-recorder: each worker roots its own
                    // rra-inner node in `wlocal`; the graft under the
                    // search's rra-outer happens at merge time, where the
                    // `(parent, stage)` key folds every worker's node into
                    // one — the thread-count-invariant tree contract.
                    let wspan = if timing {
                        wlocal.span_id(None, Stage::RraInner)
                    } else {
                        None
                    };
                    let mut wcompleted: Vec<(u32, f64)> = Vec::new();
                    let mut wscan: Vec<(u32, ScanState)> = Vec::new();
                    for (ai, &pi32) in active_ref.iter().enumerate().skip(t).step_by(threads) {
                        let mut state = scan_ref[pi32 as usize];
                        let (nearest, pruned) = scan_candidate(
                            candidates,
                            norms_ref,
                            off_ref,
                            pi32 as usize,
                            &mut state,
                            sib_ref,
                            inner_ref,
                            options,
                            || f64::from_bits(bound.load(Ordering::Relaxed)),
                            &wlocal,
                            detail,
                            timing,
                            wspan,
                        );
                        wscan.push((pi32, state));
                        // Only finite, fully-searched distances may enter
                        // the shared bound or the result set: a candidate
                        // with no admissible match has an infinite nearest
                        // and must never win (or poison the bound).
                        if !pruned && nearest.is_finite() {
                            wcompleted.push((ai as u32, nearest));
                            let bits = nearest.to_bits();
                            let mut cur = bound.load(Ordering::Relaxed);
                            while f64::from_bits(cur) < nearest {
                                match bound.compare_exchange_weak(
                                    cur,
                                    bits,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                ) {
                                    Ok(_) => break,
                                    Err(now) => cur = now,
                                }
                            }
                        }
                    }
                    (wlocal, wcompleted, wscan)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rra worker panicked"))
            .collect()
    });

    for (wlocal, wcompleted, wscan) in worker_results {
        wlocal.merge_into_under(local, outer_span);
        completed.extend(wcompleted);
        for (pi, state) in wscan {
            scan[pi as usize] = state;
        }
    }

    // Deterministic merge: maximum nearest, ties to the earliest outer
    // position — the sequential strict-`>` first-wins rule.
    let mut best: Option<(u32, f64)> = None;
    for &(ai, nearest) in completed.iter() {
        let better = match best {
            None => true,
            Some((bai, bn)) => nearest > bn || (nearest == bn && ai < bai),
        };
        if better {
            best = Some((ai, nearest));
        }
    }
    best.map(|(ai, d)| (active[ai as usize] as usize, d))
}

/// Algorithm 1 line 7: `q` is a non-self match of `p` when their start
/// offsets differ by at least `p`'s length.
fn admissible(p: &RuleInterval, q: &RuleInterval) -> bool {
    p.interval.start.abs_diff(q.interval.start) >= p.interval.len()
}

// gv-lint: hot
/// One inner-loop distance evaluation over **precomputed** z-normalized
/// forms. Equal lengths go straight through the chunked kernel (the n→n
/// resample is a bit-exact identity, so nothing is lost by skipping it);
/// differing lengths take the **fused** kernel, which interpolates the
/// match through a lazy [`Resampled`] view chunk by chunk — bitwise the
/// materialize-then-compare result, but an early-abandoned comparison
/// only pays for the points it actually consumed, and the innermost call
/// allocates nothing at all (DESIGN.md §12).
fn evaluate<R: Recorder>(
    p_z: &[f64],
    q_z: &[f64],
    recorder: &R,
    nearest: &mut f64,
    early_abandon: bool,
) {
    if q_z.is_empty() {
        return;
    }
    let abandon_at = if early_abandon {
        *nearest
    } else {
        f64::INFINITY
    };
    let d = if q_z.len() == p_z.len() {
        distance::normalized_euclidean_early(recorder, p_z, q_z, abandon_at)
    } else {
        let q = Resampled::new(q_z, p_z.len());
        distance::normalized_euclidean_early_resampled(recorder, p_z, &q, abandon_at)
    };
    if let Some(d) = d {
        if d < *nearest {
            *nearest = d;
        }
    }
}
// gv-lint: end-hot

/// Exact nearest-non-self-match distance of candidate `pi`, evaluated over
/// every admissible candidate with **no pruning against a best-so-far
/// bound** — the heuristic-free reference the `gv-check` differential
/// verification compares the search against. Returns `f64::INFINITY` when
/// the candidate has no admissible match.
///
/// The distances go through the exact same statistics source
/// ([`SeriesStats`] prefix sums) and `znorm → resample → Eq. (1)` kernel
/// as the search, and a completed candidate's running minimum is
/// order-independent, so the result is **bit-identical** to the nearest
/// distance Algorithm 1 reports for a completed candidate.
pub fn reference_nn(values: &[f64], candidates: &[RuleInterval], pi: usize) -> f64 {
    let stats = SeriesStats::new(values);
    reference_nn_with(values, candidates, pi, &stats, &mut EvalBufs::default())
}

/// [`reference_nn`] against caller-built statistics and buffers, so the
/// per-candidate replays of [`reference_rank`] and the profile share one
/// prefix build.
fn reference_nn_with(
    values: &[f64],
    candidates: &[RuleInterval],
    pi: usize,
    stats: &SeriesStats,
    bufs: &mut EvalBufs,
) -> f64 {
    let p = &candidates[pi];
    if p.interval.is_empty() {
        return f64::INFINITY;
    }
    let EvalBufs { p_z, q_z } = bufs;
    p_z.resize(p.interval.len(), 0.0);
    stats.znorm_window_into(
        values,
        p.interval.start,
        p.interval.end,
        DEFAULT_ZNORM_THRESHOLD,
        p_z,
    );
    let mut nearest = f64::INFINITY;
    for (qi, q) in candidates.iter().enumerate() {
        if qi == pi || !admissible(p, q) {
            continue;
        }
        if q.interval.is_empty() {
            continue;
        }
        q_z.resize(q.interval.len(), 0.0);
        stats.znorm_window_into(
            values,
            q.interval.start,
            q.interval.end,
            DEFAULT_ZNORM_THRESHOLD,
            q_z,
        );
        evaluate(p_z, q_z, &NoopRecorder, &mut nearest, true);
    }
    nearest
}

/// Heuristic-free replay of one rank of Algorithm 1: given the discords
/// already `found`, scans every still-eligible candidate (same overlap and
/// tandem-repeat rules as the search), computes each one's exact
/// nearest-neighbour distance via [`reference_nn`], and returns the
/// maximum. Quadratic in the candidate count — this is the brute-force
/// oracle the `gv-check` differential test holds the (pruned, parallel)
/// search to, not a fast path.
///
/// The winning *distance* is bit-identical to the search's: pruned
/// candidates are strictly below the rank's final maximum so they can
/// never win, and a completed candidate's nearest is its exact minimum.
/// The winning *interval* may differ only when two candidates tie exactly
/// in distance bits (the search breaks ties by its frequency-sorted outer
/// order, the reference by candidate index).
pub fn reference_rank(
    values: &[f64],
    candidates: &[RuleInterval],
    found: &[DiscordRecord],
) -> Option<(Interval, f64)> {
    let mut sib_pairs: Vec<(RuleId, u32)> = candidates
        .iter()
        .enumerate()
        .filter_map(|(i, c)| c.rule.map(|r| (r, i as u32)))
        .collect();
    sib_pairs.sort_unstable();
    let stats = SeriesStats::new(values);
    let mut bufs = EvalBufs::default();
    let mut best: Option<(usize, f64)> = None;
    for pi in 0..candidates.len() {
        if !eligible(candidates, pi, &sib_pairs, found) {
            continue;
        }
        let nearest = reference_nn_with(values, candidates, pi, &stats, &mut bufs);
        if nearest.is_finite() && best.is_none_or(|(_, bn)| nearest > bn) {
            best = Some((pi, nearest));
        }
    }
    best.map(|(pi, d)| (candidates[pi].interval, d))
}

/// Exact nearest-non-self-match distance for every searchable candidate —
/// the vertical-line profiles in the bottom panels of Figures 2, 3 and 7.
/// Quadratic in the candidate count; intended for figure-sized inputs.
///
/// Applies the same tandem-repeat guard as the Algorithm 1 search: a rule
/// candidate whose every same-rule sibling is a self-match is excluded
/// (the search never considers it an outer candidate, so including it here
/// would make the profile's maximum disagree with the search's result).
pub fn nn_distance_profile(values: &[f64], candidates: &[RuleInterval]) -> Vec<(Interval, f64)> {
    // One prefix build and one reusable buffer set for the whole profile
    // — the same statistics source as the search, so profile maxima and
    // search results agree bit for bit.
    let stats = SeriesStats::new(values);
    let mut bufs = EvalBufs::default();
    let mut out = Vec::with_capacity(candidates.len());
    for (pi, p) in candidates.iter().enumerate() {
        if p.interval.is_empty() {
            continue;
        }
        if let Some(r) = p.rule {
            let has_admissible_sibling = candidates
                .iter()
                .enumerate()
                .any(|(qi, q)| qi != pi && q.rule == Some(r) && admissible(p, q));
            if !has_admissible_sibling {
                continue;
            }
        }
        let nearest = reference_nn_with(values, candidates, pi, &stats, &mut bufs);
        if nearest.is_finite() {
            out.push((p.interval, nearest));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::pipeline::AnomalyPipeline;

    fn candidates_from(values: &[f64], w: usize, p: usize, a: usize) -> Vec<RuleInterval> {
        let model = AnomalyPipeline::new(PipelineConfig::new(w, p, a).unwrap())
            .model(values)
            .unwrap();
        rule_intervals(&model)
    }

    fn planted() -> Vec<f64> {
        let mut v: Vec<f64> = (0..2400).map(|i| (i as f64 / 20.0).sin()).collect();
        for (i, x) in v[1200..1280].iter_mut().enumerate() {
            *x = 0.25 * (i as f64 / 5.0).cos();
        }
        v
    }

    #[test]
    fn too_few_candidates_is_an_error() {
        let c: Vec<RuleInterval> = vec![];
        assert!(matches!(
            discords_from_intervals(&[0.0; 10], &c, 1, 0),
            Err(Error::NoCandidates)
        ));
    }

    #[test]
    fn finds_the_planted_discord() {
        let v = planted();
        let cands = candidates_from(&v, 100, 5, 4);
        let report = discords_from_intervals(&v, &cands, 1, 0).unwrap();
        assert_eq!(report.discords.len(), 1);
        let d = &report.discords[0];
        assert!(
            d.interval().overlaps(&Interval::new(1150, 1330)),
            "discord {} misses plant",
            d.interval()
        );
        assert_eq!(report.num_candidates, cands.len());
    }

    #[test]
    fn discord_is_exact_nearest_neighbor_maximum() {
        // The reported discord must have the maximal NN distance among all
        // candidates, as computed by the exhaustive profile.
        let v = planted();
        let cands = candidates_from(&v, 100, 5, 4);
        let report = discords_from_intervals(&v, &cands, 1, 42).unwrap();
        let d = &report.discords[0];
        let profile = nn_distance_profile(&v, &cands);
        let max = profile
            .iter()
            .map(|(_, nn)| *nn)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            (d.distance - max).abs() < 1e-9,
            "reported {} vs exhaustive max {max}",
            d.distance
        );
    }

    /// Satellite regression for the catastrophic-cancellation bug: the
    /// full pipeline (SAX discretization → grammar → RRA search) on a
    /// series riding a 1e8 baseline must produce nonzero per-window σ
    /// and find the same discord (position, length, rank) as the
    /// baseline-0 twin. Under the old `E[x²]−E[x]²` statistics every
    /// window's variance cancelled below ulp at this offset, z-norm
    /// degraded to mean subtraction, SAX words collapsed, and the
    /// planted anomaly was silently missed.
    #[test]
    fn large_baseline_offset_finds_the_same_discord() {
        let v0 = planted();
        let v1: Vec<f64> = v0.iter().map(|x| x + 1e8).collect();

        // Every window keeps its spread at the offset.
        let stats = SeriesStats::new(&v1);
        for start in (0..v1.len() - 100).step_by(50) {
            let (_, sd) = stats.mean_std(start, start + 100);
            assert!(sd > 0.1, "window [{start}..) lost its σ at 1e8 baseline");
        }

        // Identical discretization → identical candidate intervals.
        let c0 = candidates_from(&v0, 100, 5, 4);
        let c1 = candidates_from(&v1, 100, 5, 4);
        assert_eq!(
            c0.iter().map(|c| c.interval).collect::<Vec<_>>(),
            c1.iter().map(|c| c.interval).collect::<Vec<_>>(),
            "candidate intervals diverged at 1e8 baseline"
        );

        // Same discord, same rank (distances may differ in the last bits
        // — the offset costs ~1e-8 absolute precision in the z-normed
        // values — so the assertion is on identity, not bits).
        let r0 = discords_from_intervals(&v0, &c0, 1, 0).unwrap();
        let r1 = discords_from_intervals(&v1, &c1, 1, 0).unwrap();
        assert_eq!(r0.discords.len(), 1);
        assert_eq!(r1.discords.len(), 1);
        let (d0, d1) = (&r0.discords[0], &r1.discords[0]);
        assert_eq!(
            (d0.position, d0.length, d0.rank),
            (d1.position, d1.length, d1.rank),
            "discord diverged at 1e8 baseline"
        );
        assert!((d0.distance - d1.distance).abs() < 1e-6);
    }

    #[test]
    fn seed_does_not_change_the_result() {
        let v = planted();
        let cands = candidates_from(&v, 100, 5, 4);
        let a = discords_from_intervals(&v, &cands, 1, 1).unwrap();
        let b = discords_from_intervals(&v, &cands, 1, 999).unwrap();
        assert_eq!(a.discords[0].position, b.discords[0].position);
        assert!((a.discords[0].distance - b.discords[0].distance).abs() < 1e-9);
    }

    #[test]
    fn multiple_discords_disjoint_and_ordered() {
        let mut v = planted();
        for (i, x) in v[400..460].iter_mut().enumerate() {
            *x += 0.8 * (std::f64::consts::PI * i as f64 / 60.0).sin();
        }
        let cands = candidates_from(&v, 100, 5, 4);
        let report = discords_from_intervals(&v, &cands, 3, 0).unwrap();
        assert!(report.discords.len() >= 2);
        for w in report.discords.windows(2) {
            assert!(w[0].distance >= w[1].distance);
            assert!(!w[0].interval().overlaps(&w[1].interval()));
        }
        for (i, d) in report.discords.iter().enumerate() {
            assert_eq!(d.rank, i);
        }
    }

    #[test]
    fn discord_lengths_vary() {
        // Variable-length output is the point of RRA: candidate lengths in
        // the report should not all equal the window.
        let v = planted();
        let cands = candidates_from(&v, 100, 5, 4);
        let lens: std::collections::HashSet<usize> =
            cands.iter().map(|c| c.interval.len()).collect();
        assert!(lens.len() > 3, "only lengths {lens:?}");
    }

    #[test]
    fn options_change_cost_not_result() {
        let v = planted();
        let cands = candidates_from(&v, 100, 5, 4);
        let full = discords_from_intervals(&v, &cands, 1, 3).unwrap();
        for options in [
            SearchOptions {
                outer_by_frequency: false,
                ..Default::default()
            },
            SearchOptions {
                siblings_first: false,
                ..Default::default()
            },
            SearchOptions {
                early_abandon: false,
                ..Default::default()
            },
            SearchOptions {
                outer_by_frequency: false,
                siblings_first: false,
                early_abandon: false,
            },
        ] {
            let r = discords_with_options(&v, &cands, 1, 3, options).unwrap();
            assert_eq!(
                r.discords[0].position, full.discords[0].position,
                "{options:?}"
            );
            assert!(
                (r.discords[0].distance - full.discords[0].distance).abs() < 1e-9,
                "{options:?}"
            );
        }
        // The full heuristics must not be more expensive than the fully
        // ablated search.
        let naive = discords_with_options(
            &v,
            &cands,
            1,
            3,
            SearchOptions {
                outer_by_frequency: false,
                siblings_first: false,
                early_abandon: false,
            },
        )
        .unwrap();
        assert!(full.stats.distance_calls <= naive.stats.distance_calls);
    }

    #[test]
    fn events_account_for_every_distance_call() {
        let v = planted();
        let cands = candidates_from(&v, 100, 5, 4);
        let rec = LocalRecorder::new();
        let report =
            discords_with_options_recorded(&v, &cands, 2, 0, SearchOptions::default(), &rec)
                .unwrap();
        let events = rec.events_vec();
        // Every distance call happens inside exactly one outer candidate's
        // inner loop, so the per-outcome deltas must sum to the total.
        let outcome_calls: u64 = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Pruned | EventKind::Completed))
            .map(|e| e.calls)
            .sum();
        assert_eq!(outcome_calls, report.stats.distance_calls);
        let visited = events
            .iter()
            .filter(|e| e.kind == EventKind::Visited)
            .count() as u64;
        assert_eq!(visited, rec.counter(Counter::RraCandidates));
        let abandoned = events
            .iter()
            .filter(|e| e.kind == EventKind::Abandoned)
            .count() as u64;
        assert_eq!(abandoned, report.stats.early_abandoned);
        // Histograms fill alongside the events.
        assert_eq!(rec.histogram(Metric::CandidateLen).count(), visited);
        assert_eq!(rec.histogram(Metric::RuleUses).count(), visited);
        assert_eq!(
            rec.histogram(Metric::DistanceNanos).count(),
            report.stats.distance_calls
        );
        assert_eq!(rec.histogram(Metric::AbandonPos).count(), abandoned);
        // Decision telemetry must not change the result.
        let plain = discords_from_intervals(&v, &cands, 2, 0).unwrap();
        assert_eq!(plain.discords.len(), report.discords.len());
        for (a, b) in plain.discords.iter().zip(&report.discords) {
            assert_eq!(a.position, b.position);
            assert_eq!(a.length, b.length);
            assert_eq!(a.distance.to_bits(), b.distance.to_bits());
        }
    }

    #[test]
    fn parallel_search_matches_sequential_bit_for_bit() {
        let mut v = planted();
        for (i, x) in v[400..460].iter_mut().enumerate() {
            *x += 0.8 * (std::f64::consts::PI * i as f64 / 60.0).sin();
        }
        let cands = candidates_from(&v, 100, 5, 4);
        let sequential = search_in(
            &v,
            &cands,
            3,
            0,
            SearchOptions::default(),
            1,
            &mut RraScratch::default(),
            &NoopRecorder,
            None,
        )
        .unwrap();
        for threads in [2, 3, 4, 8] {
            let parallel = search_in(
                &v,
                &cands,
                3,
                0,
                SearchOptions::default(),
                threads,
                &mut RraScratch::default(),
                &NoopRecorder,
                None,
            )
            .unwrap();
            assert_eq!(sequential.discords.len(), parallel.discords.len());
            for (a, b) in sequential.discords.iter().zip(&parallel.discords) {
                assert_eq!(a.position, b.position, "threads={threads}");
                assert_eq!(a.length, b.length, "threads={threads}");
                assert_eq!(a.rank, b.rank, "threads={threads}");
                assert_eq!(
                    a.distance.to_bits(),
                    b.distance.to_bits(),
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn reference_rank_matches_search_rank_by_rank() {
        let mut v = planted();
        for (i, x) in v[400..460].iter_mut().enumerate() {
            *x += 0.8 * (std::f64::consts::PI * i as f64 / 60.0).sin();
        }
        let cands = candidates_from(&v, 100, 5, 4);
        let report = discords_from_intervals(&v, &cands, 3, 0).unwrap();
        // Replay each rank with the already-reported discords as the
        // found-list: the reference maximum must equal the reported
        // distance bit-for-bit, and the reported interval's own exact NN
        // must equal its reported distance.
        for (r, d) in report.discords.iter().enumerate() {
            let (_, ref_dist) =
                reference_rank(&v, &cands, &report.discords[..r]).expect("reference finds a rank");
            assert_eq!(
                ref_dist.to_bits(),
                d.distance.to_bits(),
                "rank {r}: reference {ref_dist} vs reported {}",
                d.distance
            );
            let pi = cands
                .iter()
                .position(|c| c.interval == d.interval())
                .expect("reported interval is a candidate");
            assert_eq!(reference_nn(&v, &cands, pi).to_bits(), d.distance.to_bits());
        }
        // Past the last reported rank the reference agrees there is more
        // (or not) exactly when the search stopped early.
        if report.discords.len() == 3 {
            // Search filled k; nothing to assert about rank 3.
        } else {
            assert!(reference_rank(&v, &cands, &report.discords).is_none());
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_and_stops_allocating() {
        let v = planted();
        let cands = candidates_from(&v, 100, 5, 4);
        let fresh = discords_from_intervals(&v, &cands, 2, 0).unwrap();
        let mut scratch = RraScratch::default();
        // Warm-up call, then capture capacities.
        search_in(
            &v,
            &cands,
            2,
            0,
            SearchOptions::default(),
            1,
            &mut scratch,
            &NoopRecorder,
            None,
        )
        .unwrap();
        let sig = scratch.capacity_signature();
        for _ in 0..3 {
            let again = search_in(
                &v,
                &cands,
                2,
                0,
                SearchOptions::default(),
                1,
                &mut scratch,
                &NoopRecorder,
                None,
            )
            .unwrap();
            assert_eq!(fresh.discords.len(), again.discords.len());
            for (a, b) in fresh.discords.iter().zip(&again.discords) {
                assert_eq!(a.distance.to_bits(), b.distance.to_bits());
            }
            assert_eq!(sig, scratch.capacity_signature(), "scratch buffers grew");
        }
    }

    /// A seeded random walk: no planted structure, many near-tied
    /// candidates.
    fn random_walk(seed: u64, len: usize) -> Vec<f64> {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = 0.0;
        (0..len)
            .map(|_| {
                x += rng.gen_range(-1.0..1.0);
                x
            })
            .collect()
    }

    /// The resumed scan against a from-scratch scan, rank by rank over the
    /// same prepared search: carrying the per-candidate state must select
    /// the same candidate with the same distance bits on every rank, and
    /// never cost more distance calls than resetting it.
    #[test]
    fn carried_scan_state_matches_reset_and_costs_no_more() {
        let mut walked = 0;
        for (v, w) in [(planted(), 100), (random_walk(7, 3000), 60)] {
            let cands = candidates_from(&v, w, 4, 4);
            let options = SearchOptions::default();
            let mut scratch = RraScratch::default();
            scratch.prepare(&v, &cands, 0, options);
            let RraScratch {
                outer,
                inner,
                sib_pairs,
                norms,
                norm_off,
                scan,
                ..
            } = &mut scratch;
            let mut found: Vec<DiscordRecord> = Vec::new();
            let (mut total_carried, mut total_reset) = (0, 0);
            for rank in 0..6 {
                let rank_with = |scan: &mut [ScanState], local: &LocalRecorder| {
                    sequential_rank(
                        &cands, norms, norm_off, scan, outer, inner, sib_pairs, &found, options,
                        local, false, false, None,
                    )
                };
                let carried_rec = LocalRecorder::counters_only();
                let carried = rank_with(scan, &carried_rec);
                let reset_rec = LocalRecorder::counters_only();
                let reset = rank_with(&mut vec![ScanState::FRESH; cands.len()], &reset_rec);
                assert_eq!(
                    carried.map(|(pi, d)| (pi, d.to_bits())),
                    reset.map(|(pi, d)| (pi, d.to_bits())),
                    "rank {rank}"
                );
                let calls = |rec: &LocalRecorder| rec.counter(Counter::DistanceCalls);
                assert!(
                    calls(&carried_rec) <= calls(&reset_rec),
                    "rank {rank}: carried {} > reset {}",
                    calls(&carried_rec),
                    calls(&reset_rec)
                );
                if rank == 0 {
                    assert_eq!(carried_rec.counter(Counter::RraScansResumed), 0);
                }
                total_carried += calls(&carried_rec);
                total_reset += calls(&reset_rec);
                let Some((pi, distance)) = carried else {
                    break;
                };
                found.push(DiscordRecord {
                    position: cands[pi].interval.start,
                    length: cands[pi].interval.len(),
                    distance,
                    rank,
                });
                walked += 1;
            }
            assert!(found.len() >= 2, "only {} ranks", found.len());
            assert!(total_carried < total_reset);
        }
        assert!(walked >= 4);
    }

    #[test]
    fn profile_is_symmetric_in_scale() {
        // Scaling the whole series must not change z-normalized distances.
        let v = planted();
        let cands = candidates_from(&v, 100, 5, 4);
        let scaled: Vec<f64> = v.iter().map(|x| x * 100.0 + 5.0).collect();
        let p1 = nn_distance_profile(&v, &cands);
        let p2 = nn_distance_profile(&scaled, &cands);
        assert_eq!(p1.len(), p2.len());
        for ((i1, d1), (i2, d2)) in p1.iter().zip(&p2) {
            assert_eq!(i1, i2);
            assert!((d1 - d2).abs() < 1e-9);
        }
    }
}
