//! # gv-check
//!
//! Mechanical verification of the paper's correctness invariants — the
//! properties the whole anomaly-discovery story rests on, checked on real
//! pipeline outputs instead of trusted by construction:
//!
//! 1. **Sequitur invariants** (§3): digram uniqueness and rule utility on
//!    the final grammar (delegates to the structured
//!    [`Grammar::check_invariants`](gv_sequitur::Grammar::check_invariants)
//!    inspection API);
//! 2. **Token reconstruction** (§3.4): expanding `R0` reproduces the
//!    post-numerosity-reduction token sequence interned from the SAX
//!    records, independently re-derived through the dictionary;
//! 3. **Occurrence mapping** (§4): every rule occurrence maps to an
//!    in-bounds raw-series interval at least one window long;
//! 4. **Density recount** (§4.1): the rule-density curve equals a naive
//!    `O(n · occurrences)` recount;
//! 5. **RRA exactness** (§4.2/§5): the ranked discords agree — distance
//!    bits and all — with a heuristic-free brute-force replay over the
//!    same candidate intervals
//!    ([`reference_rank`](gva_core::reference_rank));
//! 6. **Streaming differential** (§7): a bounded-horizon incremental
//!    engine is indistinguishable — density curve, discords, grammar
//!    structure — from a from-scratch batch run on the slice it retains
//!    ([`check_streaming`]);
//! 7. **SAX exactness** (§3.1–3.2): the model's records — produced by the
//!    certified O(P) kernel — are exactly those of the two-pass reference
//!    (`SaxConfig::word` per window, then numerosity reduction;
//!    [`check_sax_records`], run by `invariant_fuzz` on every valid
//!    series).
//!
//! The checkers are callable piecemeal on any [`GrammarModel`] /
//! [`RraReport`], or wholesale through [`check_series`], which runs the
//! full pipeline and checks 1–5 and returns a [`CheckReport`]. The
//! `invariant_fuzz` binary drives randomized and adversarial series
//! through all of it with a vendored, seeded PRNG; `gv check` exposes the
//! same report on a user series.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ledger;
mod streaming;

pub use streaming::check_streaming;

use gv_discord::DiscordRecord;
use gv_obs::NoopRecorder;
use gva_core::{
    reference_nn, reference_rank, rule_intervals, EngineConfig, GrammarModel, PipelineConfig,
    RraDetector, RraReport, RuleInterval, Workspace,
};

/// Outcome of one invariant check.
#[derive(Debug, Clone)]
pub struct CheckResult {
    /// Stable check name (used in the pass/fail report and fuzz output).
    pub name: &'static str,
    /// Violation descriptions; empty means the check passed.
    pub violations: Vec<String>,
}

impl CheckResult {
    fn pass(name: &'static str) -> Self {
        Self {
            name,
            violations: Vec::new(),
        }
    }

    /// `true` when no violation was found.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The combined outcome of every checker [`check_series`] ran.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Individual check outcomes, in the order they ran.
    pub results: Vec<CheckResult>,
}

impl CheckReport {
    /// `true` when every check passed.
    pub fn passed(&self) -> bool {
        self.results.iter().all(CheckResult::passed)
    }

    /// Total violation count across all checks.
    pub fn num_violations(&self) -> usize {
        self.results.iter().map(|r| r.violations.len()).sum()
    }

    /// Renders the pass/fail table the `gv check` subcommand prints.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in &self.results {
            let verdict = if r.passed() { "PASS" } else { "FAIL" };
            let _ = writeln!(out, "{verdict}  {}", r.name);
            for v in &r.violations {
                let _ = writeln!(out, "      {v}");
            }
        }
        out
    }
}

/// Check 7 — SAX exactness (§3.1–3.2): the model's records equal a
/// reference loop that discretizes every window with the two-pass
/// [`SaxConfig::word`](gv_sax::SaxConfig::word) and applies the
/// configured numerosity reduction. The batch kernel falls back to that
/// path only on windows it cannot certify, so any disagreement is a hole
/// in its error bound.
pub fn check_sax_records(
    model: &GrammarModel,
    values: &[f64],
    config: &PipelineConfig,
) -> CheckResult {
    let mut result = CheckResult::pass("SAX records equal the two-pass reference");
    let (sax, nr, window) = (config.sax(), config.numerosity_reduction(), config.window());
    let mut expected: Vec<gv_sax::SaxRecord> = Vec::new();
    for offset in 0..values.len().saturating_sub(window - 1) {
        let word = match sax.word(&values[offset..offset + window]) {
            Ok(word) => word,
            Err(e) => {
                result
                    .violations
                    .push(format!("reference refused window {offset}: {e}"));
                return result;
            }
        };
        match expected.last() {
            Some(last) if nr.drops(last.word.symbols(), word.symbols()) => {}
            _ => expected.push(gv_sax::SaxRecord { word, offset }),
        }
    }
    if let Some(i) = (0..expected.len().max(model.records.len()))
        .find(|&i| expected.get(i) != model.records.get(i))
    {
        let show = |r: Option<&gv_sax::SaxRecord>| {
            r.map_or("nothing".to_string(), |r| {
                format!("{} at {}", r.word, r.offset)
            })
        };
        result.violations.push(format!(
            "record {i}: kernel emitted {}, reference {} ({} vs {} records)",
            show(model.records.get(i)),
            show(expected.get(i)),
            model.records.len(),
            expected.len()
        ));
    }
    result
}

/// Check 1 — the Sequitur invariants (§3) on the final grammar: digram
/// uniqueness, rule utility (recorded vs recounted uses, ≥ 2), body
/// length, and the `R0` round-trip against the model's token sequence.
pub fn check_grammar_invariants(model: &GrammarModel) -> CheckResult {
    let tokens = interned_tokens(model);
    let mut result = CheckResult::pass("sequitur invariants (digram uniqueness, rule utility)");
    result.violations = model
        .grammar
        .check_invariants(&tokens)
        .into_iter()
        .map(|v| v.to_string())
        .collect();
    result
}

/// Check 2 — token reconstruction (§3.4): fully expanding `R0` must
/// reproduce the post-numerosity token sequence, re-derived independently
/// by looking each surviving SAX record's word up in the dictionary.
pub fn check_token_reconstruction(model: &GrammarModel) -> CheckResult {
    let mut result = CheckResult::pass("rule expansion reconstructs the token sequence");
    let tokens = interned_tokens(model);
    if tokens.len() != model.records.len() {
        result.violations.push(format!(
            "{} of {} record words missing from the dictionary",
            model.records.len() - tokens.len(),
            model.records.len()
        ));
        return result;
    }
    let expanded = model.grammar.expand_rule(model.grammar.r0_id());
    if expanded != tokens {
        match expanded.iter().zip(&tokens).position(|(a, b)| a != b) {
            Some(at) => result.violations.push(format!(
                "expansion diverges from the interned tokens at position {at} \
                 ({} vs {})",
                expanded[at], tokens[at]
            )),
            None => result.violations.push(format!(
                "expansion has {} tokens, the record stream {}",
                expanded.len(),
                tokens.len()
            )),
        }
    }
    result
}

/// Check 3 — occurrence mapping (§4): every rule occurrence maps to an
/// in-bounds interval of length ≥ window (the §3.4 offset bookkeeping
/// must never clip a rule's subsequence below one window).
pub fn check_occurrence_mapping(model: &GrammarModel) -> CheckResult {
    let mut result = CheckResult::pass("rule occurrences map to in-bounds intervals >= window");
    for occ in model.grammar.occurrences() {
        let iv = model.occurrence_interval(&occ);
        if iv.end > model.series_len || iv.start >= iv.end {
            result.violations.push(format!(
                "{} at token {} maps to {iv} outside series of length {}",
                occ.rule, occ.token_start, model.series_len
            ));
        } else if iv.len() < model.window {
            result.violations.push(format!(
                "{} at token {} maps to {iv} ({} points < window {})",
                occ.rule,
                occ.token_start,
                iv.len(),
                model.window
            ));
        }
    }
    result
}

/// Check 4 — density recount (§4.1): a produced rule-density `curve`
/// (the pipeline's incremental difference-array construction) must equal
/// a naive recount that walks every point of every occurrence interval
/// (`O(n · occurrences)`).
pub fn check_density_recount(model: &GrammarModel, curve: &[i64]) -> CheckResult {
    let mut result = CheckResult::pass("density curve equals the naive recount");
    let mut naive = vec![0i64; model.series_len];
    for occ in model.grammar.occurrences() {
        let iv = model.occurrence_interval(&occ);
        for point in naive
            .iter_mut()
            .take(iv.end.min(model.series_len))
            .skip(iv.start)
        {
            *point += 1;
        }
    }
    if curve.len() != naive.len() {
        result.violations.push(format!(
            "curve has {} points, series {}",
            curve.len(),
            naive.len()
        ));
        return result;
    }
    for (i, (&fast, &slow)) in curve.iter().zip(&naive).enumerate() {
        if fast != slow {
            result.violations.push(format!(
                "density at point {i}: curve says {fast}, naive recount {slow}"
            ));
            if result.violations.len() >= 8 {
                result
                    .violations
                    .push("… (further mismatches elided)".into());
                break;
            }
        }
    }
    result
}

/// The candidate set the engine's RRA search actually ran on: the raw
/// grammar intervals minus frequency-0 runs touching the series boundary
/// (the same filter `RraDetector::search_model` applies).
pub fn engine_candidates(model: &GrammarModel) -> Vec<RuleInterval> {
    let mut candidates = rule_intervals(model);
    let len = model.series_len;
    candidates.retain(|c| c.rule.is_some() || (c.interval.start > 0 && c.interval.end < len));
    candidates
}

/// Check 5 — RRA exactness (§4.2): replays every reported rank with a
/// heuristic-free brute-force search over the *same* candidate intervals
/// and demands bit-identical distances.
///
/// Robust to exact distance ties (where the search's frequency-ordered
/// outer loop may pick a different interval than the reference's
/// index-ordered one): the reported discords themselves serve as the
/// found-list for each replayed rank, the reference maximum must match
/// the reported distance bit-for-bit, and the reported interval's own
/// exact nearest-neighbour distance must equal its reported score. When
/// the report stopped short of `k` discords, the reference must agree
/// that nothing searchable remained.
pub fn check_rra_against_brute_force(
    values: &[f64],
    candidates: &[RuleInterval],
    report: &RraReport,
    k: usize,
) -> CheckResult {
    let mut result = CheckResult::pass("RRA ranks agree with brute force over the candidates");
    let found: &[DiscordRecord] = &report.discords;
    for (rank, d) in found.iter().enumerate() {
        let reference = reference_rank(values, candidates, &found[..rank]);
        match reference {
            Some((_, ref_dist)) => {
                if ref_dist.to_bits() != d.distance.to_bits() {
                    result.violations.push(format!(
                        "rank {rank}: search reported {} at {}, brute force found {ref_dist}",
                        d.distance,
                        d.interval()
                    ));
                }
            }
            None => {
                result.violations.push(format!(
                    "rank {rank}: search reported {} at {}, brute force found no candidate",
                    d.distance,
                    d.interval()
                ));
            }
        }
        // The reported interval's own exact NN must equal its score.
        match candidates.iter().position(|c| c.interval == d.interval()) {
            Some(pi) => {
                let nn = reference_nn(values, candidates, pi);
                if nn.to_bits() != d.distance.to_bits() {
                    result.violations.push(format!(
                        "rank {rank}: {} scored {} but its exact NN distance is {nn}",
                        d.interval(),
                        d.distance
                    ));
                }
            }
            None => result.violations.push(format!(
                "rank {rank}: reported interval {} is not a candidate",
                d.interval()
            )),
        }
    }
    if found.len() < k {
        if let Some((iv, dist)) = reference_rank(values, candidates, found) {
            result.violations.push(format!(
                "search stopped at {} discord(s) of {k}, but brute force still \
                 finds {iv} at {dist}",
                found.len()
            ));
        }
    }
    result
}

/// Runs the full pipeline on `values` and every checker on its outputs:
/// the four model invariants, the RRA-vs-brute-force differential at
/// `threads` workers, and (when `threads > 1`) bit-identity between the
/// parallel and sequential searches.
///
/// # Errors
/// Whatever the pipeline itself rejects — non-finite input, a window
/// longer than the series, no candidates. Those are *valid* outcomes for
/// degenerate inputs (the fuzz driver asserts them separately); a
/// [`CheckReport`] is only produced when the pipeline runs.
pub fn check_series(
    values: &[f64],
    config: &PipelineConfig,
    k: usize,
    threads: usize,
) -> gva_core::Result<CheckReport> {
    let mut report = CheckReport::default();
    let mut ws = Workspace::new();
    let model = ws.build_model(config, values, &NoopRecorder)?;

    report.results.push(check_grammar_invariants(&model));
    report.results.push(check_token_reconstruction(&model));
    report.results.push(check_occurrence_mapping(&model));
    // Recount the curve the density stage actually produces.
    let curve = gva_core::RuleDensity::from_model(&model);
    report
        .results
        .push(check_density_recount(&model, curve.curve()));

    // Both searches run on the model the checks above read; a detect
    // would only build the same model again.
    let candidates = engine_candidates(&model);
    let search = |engine: EngineConfig, ws: &mut Workspace| {
        RraDetector::new(config.clone(), k)
            .with_engine(engine)
            .search_model(values, &model, ws, &NoopRecorder)
    };
    let rra = search(EngineConfig::sequential().with_threads(threads), &mut ws)?;
    report
        .results
        .push(check_rra_against_brute_force(values, &candidates, &rra, k));

    if threads > 1 {
        let sequential = search(EngineConfig::sequential(), &mut ws)?;
        let mut determinism = CheckResult::pass("parallel search is bit-identical to sequential");
        if sequential.discords.len() != rra.discords.len() {
            determinism.violations.push(format!(
                "sequential found {} discord(s), {threads}-thread search {}",
                sequential.discords.len(),
                rra.discords.len()
            ));
        } else {
            for (a, b) in sequential.discords.iter().zip(&rra.discords) {
                if a.position != b.position
                    || a.length != b.length
                    || a.distance.to_bits() != b.distance.to_bits()
                {
                    determinism.violations.push(format!(
                        "rank {}: sequential {} at {} vs {threads}-thread {} at {}",
                        a.rank,
                        a.distance,
                        a.interval(),
                        b.distance,
                        b.interval()
                    ));
                }
            }
        }
        report.results.push(determinism);
    }
    ws.recycle_model(model);
    Ok(report)
}

/// The model's token sequence, re-derived by interning lookup: record `i`'s
/// word resolved through the dictionary. Words missing from the dictionary
/// are skipped (check 2 reports them).
fn interned_tokens(model: &GrammarModel) -> Vec<u32> {
    model
        .records
        .iter()
        .filter_map(|rec| model.dictionary.token_of(&rec.word))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gv_obs::NoopRecorder;
    use gva_core::{Detector, SeriesView};

    fn planted() -> Vec<f64> {
        let mut v: Vec<f64> = (0..2000).map(|i| (i as f64 / 16.0).sin()).collect();
        for (i, x) in v[900..980].iter_mut().enumerate() {
            *x = 0.3 * (i as f64 / 5.0).cos();
        }
        v
    }

    fn model_of(values: &[f64]) -> GrammarModel {
        Workspace::new()
            .build_model(
                &PipelineConfig::new(100, 5, 4).unwrap(),
                values,
                &NoopRecorder,
            )
            .unwrap()
    }

    #[test]
    fn every_check_passes_on_a_healthy_pipeline() {
        let v = planted();
        for threads in [1, 4] {
            let report =
                check_series(&v, &PipelineConfig::new(100, 5, 4).unwrap(), 2, threads).unwrap();
            assert!(report.passed(), "{}", report.render());
            let expected = if threads > 1 { 6 } else { 5 };
            assert_eq!(report.results.len(), expected);
            assert_eq!(report.num_violations(), 0);
        }
    }

    #[test]
    fn render_reports_pass_and_fail() {
        let v = planted();
        let report = check_series(&v, &PipelineConfig::new(100, 5, 4).unwrap(), 1, 1).unwrap();
        let text = report.render();
        assert!(text.contains("PASS  sequitur invariants"));
        assert!(!text.contains("FAIL"));
    }

    #[test]
    fn density_recount_catches_a_corrupted_curve() {
        let v = planted();
        let model = model_of(&v);
        let mut curve = gva_core::RuleDensity::from_model(&model).curve().to_vec();
        assert!(check_density_recount(&model, &curve).passed());
        // A single off-by-one anywhere in the curve must be reported.
        curve[777] += 1;
        let result = check_density_recount(&model, &curve);
        assert!(!result.passed());
        assert!(result.violations[0].contains("777"), "{result:?}");
        // A truncated curve too.
        curve.truncate(100);
        assert!(!check_density_recount(&model, &curve).passed());
    }

    #[test]
    fn rra_check_catches_a_forged_distance() {
        let v = planted();
        let model = model_of(&v);
        let candidates = engine_candidates(&model);
        let detector = RraDetector::new(PipelineConfig::new(100, 5, 4).unwrap(), 2)
            .with_engine(EngineConfig::sequential());
        let mut ws = Workspace::new();
        let mut rra = detector
            .detect(&SeriesView::new(&v), &mut ws, &NoopRecorder)
            .unwrap()
            .to_rra();
        assert!(check_rra_against_brute_force(&v, &candidates, &rra, 2).passed());
        // Forge the top distance: the differential must notice.
        rra.discords[0].distance += 1e-6;
        let result = check_rra_against_brute_force(&v, &candidates, &rra, 2);
        assert!(!result.passed());
        assert!(result.violations[0].contains("rank 0"), "{result:?}");
    }

    #[test]
    fn rra_check_catches_a_missing_rank() {
        let v = planted();
        let model = model_of(&v);
        let candidates = engine_candidates(&model);
        let detector = RraDetector::new(PipelineConfig::new(100, 5, 4).unwrap(), 2)
            .with_engine(EngineConfig::sequential());
        let mut ws = Workspace::new();
        let mut rra = detector
            .detect(&SeriesView::new(&v), &mut ws, &NoopRecorder)
            .unwrap()
            .to_rra();
        // Drop the second discord but keep claiming k = 2: brute force
        // still finds it, so the "stopped short" clause must fire.
        rra.discords.truncate(1);
        let result = check_rra_against_brute_force(&v, &candidates, &rra, 2);
        assert!(!result.passed());
        assert!(
            result.violations.iter().any(|v| v.contains("stopped at")),
            "{result:?}"
        );
    }

    #[test]
    fn token_reconstruction_catches_a_swapped_record() {
        let v = planted();
        let mut model = model_of(&v);
        assert!(check_token_reconstruction(&model).passed());
        // Swap two different words in the record stream: the grammar no
        // longer expands to the interned sequence.
        let swap = (0..model.records.len() - 1)
            .find(|&i| model.records[i].word != model.records[i + 1].word)
            .expect("adjacent distinct words");
        model.records.swap(swap, swap + 1);
        assert!(!check_token_reconstruction(&model).passed());
    }
}
