//! The fixed vocabulary of pipeline stages and hot-path counters.
//!
//! Both enums are dense `usize` indexes so recorders can back them with
//! flat arrays — no hashing, no allocation, no string handling anywhere
//! near the hot path.

/// A timed phase of the anomaly pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stage {
    /// A whole detector run (the root every other stage nests under).
    Detect,
    /// SAX sliding-window discretization + numerosity reduction.
    Discretize,
    /// Word interning (SAX word → dense token id).
    Intern,
    /// Sequitur grammar induction over the token stream.
    Induce,
    /// Rule-density curve construction and minima extraction (§4.1).
    Density,
    /// RRA outer loop over candidate intervals (§4.2).
    RraOuter,
    /// RRA inner nearest-neighbor loop (nested inside [`Stage::RraOuter`]).
    RraInner,
}

impl Stage {
    /// Number of stages (array dimension for recorders).
    pub const COUNT: usize = 7;

    /// All stages, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Detect,
        Stage::Discretize,
        Stage::Intern,
        Stage::Induce,
        Stage::Density,
        Stage::RraOuter,
        Stage::RraInner,
    ];

    /// Dense index (0-based).
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The stable machine-readable name (used as the JSONL key).
    pub const fn name(self) -> &'static str {
        match self {
            Stage::Detect => "detect",
            Stage::Discretize => "discretize",
            Stage::Intern => "intern",
            Stage::Induce => "induce",
            Stage::Density => "density",
            Stage::RraOuter => "rra-outer",
            Stage::RraInner => "rra-inner",
        }
    }

    /// The stage this one runs inside, if any. Nested stages are excluded
    /// from wall-clock totals (their time is already in the parent) and
    /// indented in the table rendering.
    pub const fn nested_under(self) -> Option<Stage> {
        match self {
            Stage::Detect => None,
            Stage::RraInner => Some(Stage::RraOuter),
            _ => Some(Stage::Detect),
        }
    }

    /// Nesting depth implied by [`Stage::nested_under`]: 0 for the root,
    /// 1 for pipeline phases, 2 for [`Stage::RraInner`].
    pub const fn depth(self) -> usize {
        match self.nested_under() {
            None => 0,
            Some(parent) => 1 + parent.depth(),
        }
    }
}

/// A named hot-path counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Sliding windows visited by the discretizer.
    WindowsProcessed,
    /// SAX words kept after numerosity reduction.
    WordsEmitted,
    /// SAX words dropped by numerosity reduction.
    WordsDropped,
    /// Sequitur rules created during induction.
    RulesCreated,
    /// Sequitur rules deleted (rule utility) during induction.
    RulesDeleted,
    /// Peak size of the Sequitur digram table (max-merged, not summed).
    PeakDigramEntries,
    /// RRA candidate intervals visited by the outer loop.
    RraCandidates,
    /// Calls into a distance kernel (the paper's Table 1 metric).
    DistanceCalls,
    /// Distance calls cut short by early abandoning.
    EarlyAbandons,
    /// Outer candidates disqualified before the inner loop finished.
    CandidatesPruned,
    /// Outer candidates fully evaluated.
    CandidatesCompleted,
    /// Tokens retired from the front of the grammar by horizon eviction.
    TokensEvicted,
    /// Rules deleted while evicting (their occurrences left the horizon).
    RulesEvicted,
    /// Rules re-formed during eviction repair (an unrolled occurrence
    /// re-exposed a repeated digram over the retained suffix).
    RulesRelearned,
    /// Streaming density-curve computations: the curve is computed on
    /// read, so this is one per curve read and never grows on a push.
    DensityRecounts,
    /// Sliding windows the certified SAX kernel could not decide and
    /// recomputed with the two-pass z-norm → PAA path (a bucket mean or σ
    /// sat within the kernel's rounding-error bound of a cut).
    SaxFallbacks,
    /// RRA outer visits that resumed a candidate's inner scan from the
    /// state an earlier rank left behind (a prune point or a finished
    /// scan) instead of starting it over.
    RraScansResumed,
}

impl Counter {
    /// Number of counters (array dimension for recorders).
    pub const COUNT: usize = 17;

    /// All counters, in declaration order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::WindowsProcessed,
        Counter::WordsEmitted,
        Counter::WordsDropped,
        Counter::RulesCreated,
        Counter::RulesDeleted,
        Counter::PeakDigramEntries,
        Counter::RraCandidates,
        Counter::DistanceCalls,
        Counter::EarlyAbandons,
        Counter::CandidatesPruned,
        Counter::CandidatesCompleted,
        Counter::TokensEvicted,
        Counter::RulesEvicted,
        Counter::RulesRelearned,
        Counter::DensityRecounts,
        Counter::SaxFallbacks,
        Counter::RraScansResumed,
    ];

    /// Dense index (0-based).
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The stable machine-readable name (used as the JSONL key).
    pub const fn name(self) -> &'static str {
        match self {
            Counter::WindowsProcessed => "windows_processed",
            Counter::WordsEmitted => "words_emitted",
            Counter::WordsDropped => "words_dropped",
            Counter::RulesCreated => "rules_created",
            Counter::RulesDeleted => "rules_deleted",
            Counter::PeakDigramEntries => "peak_digram_entries",
            Counter::RraCandidates => "rra_candidates",
            Counter::DistanceCalls => "distance_calls",
            Counter::EarlyAbandons => "early_abandons",
            Counter::CandidatesPruned => "candidates_pruned",
            Counter::CandidatesCompleted => "candidates_completed",
            Counter::TokensEvicted => "tokens_evicted",
            Counter::RulesEvicted => "rules_evicted",
            Counter::RulesRelearned => "rules_relearned",
            Counter::DensityRecounts => "density_recounts",
            Counter::SaxFallbacks => "sax_fallbacks",
            Counter::RraScansResumed => "rra_scans_resumed",
        }
    }

    /// Whether merging two recordings of this counter takes the maximum
    /// (high-water marks) rather than the sum.
    pub const fn merges_by_max(self) -> bool {
        matches!(self, Counter::PeakDigramEntries)
    }
}

/// A named value distribution tracked as a [`Histogram`](crate::Histogram)
/// — the decision-level metrics counters can't express (tails, not
/// totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Metric {
    /// Wall-clock nanoseconds of one distance-kernel call (completed or
    /// abandoned). Only measured when the recorder asks for detail — the
    /// uninstrumented path never reads the clock.
    DistanceNanos,
    /// Length (in points) of each RRA outer candidate visited.
    CandidateLen,
    /// Rule-usage frequency of each RRA outer candidate visited (the
    /// outer-ordering key; 0 for uncovered runs).
    RuleUses,
    /// Prefix index at which an early-abandoned distance call proved its
    /// bound.
    AbandonPos,
}

impl Metric {
    /// Number of metrics (array dimension for recorders).
    pub const COUNT: usize = 4;

    /// All metrics, in declaration order.
    pub const ALL: [Metric; Metric::COUNT] = [
        Metric::DistanceNanos,
        Metric::CandidateLen,
        Metric::RuleUses,
        Metric::AbandonPos,
    ];

    /// Dense index (0-based).
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The stable machine-readable name (used as the JSONL key).
    pub const fn name(self) -> &'static str {
        match self {
            Metric::DistanceNanos => "distance_ns",
            Metric::CandidateLen => "candidate_len",
            Metric::RuleUses => "rule_uses",
            Metric::AbandonPos => "abandon_pos",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_are_dense_and_match_all() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(m.index(), i);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut stage_names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        stage_names.sort_unstable();
        stage_names.dedup();
        assert_eq!(stage_names.len(), Stage::COUNT);
        let mut counter_names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        counter_names.sort_unstable();
        counter_names.dedup();
        assert_eq!(counter_names.len(), Counter::COUNT);
        let mut metric_names: Vec<_> = Metric::ALL.iter().map(|m| m.name()).collect();
        metric_names.sort_unstable();
        metric_names.dedup();
        assert_eq!(metric_names.len(), Metric::COUNT);
    }

    #[test]
    fn nesting() {
        assert_eq!(Stage::RraInner.nested_under(), Some(Stage::RraOuter));
        assert_eq!(Stage::RraOuter.nested_under(), Some(Stage::Detect));
        assert_eq!(Stage::Detect.nested_under(), None);
        assert_eq!(Stage::Detect.depth(), 0);
        assert_eq!(Stage::Density.depth(), 1);
        assert_eq!(Stage::RraInner.depth(), 2);
    }
}
