//! Semi-global alignment races: finding a query *inside* a reference.
//!
//! An extension the paper's §6 database-scan scenario implies but never
//! spells out: to ask "does query Q occur (approximately) anywhere in
//! reference P?", inject the race signal along the **entire top row** of
//! the edit graph (free placement of Q's start) and read the **earliest
//! arrival along the bottom row** (free placement of Q's end). Race
//! Logic gets this almost for free — injection at many nodes is just
//! wiring the start signal to more cells, and the OR over the bottom row
//! is one more OR gate — whereas the systolic baseline would need a
//! different dataflow entirely.
//!
//! Since the engine grew [`crate::engine::AlignMode::SemiGlobal`],
//! this module is a **thin wrapper over the engine**:
//! [`semi_global_race`] runs the engine's mode-aware grid fill
//! ([`crate::engine::fill_grid`] — the same `row_update` kernel
//! every rolling-row path shares) and derives the score, end column and
//! bottom-row profile from the filled grid. Score-only callers (scans,
//! batches) should configure the engine directly:
//! `AlignConfig::new(w).with_mode(AlignMode::SemiGlobal)` rides the
//! SIMD wavefront and the striped batch kernel. Everything is validated
//! against the independent textbook DP ([`semi_global_reference`],
//! kept deliberately engine-free) — property-tested here and in
//! `tests/engine.rs`.

use rl_bio::{alphabet::Symbol, Seq};
use rl_temporal::Time;

use crate::alignment::RaceWeights;
use crate::engine::{fill_grid, raw_to_time, AlignConfig, AlignMode};

/// The outcome of a semi-global race.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemiGlobalOutcome {
    /// Earliest arrival along the bottom row — the best score of Q
    /// against any window of P.
    pub score: Time,
    /// The column (end position in P) achieving it (first such column
    /// under deterministic tie-breaking).
    pub end_column: usize,
    /// Arrival time at every bottom-row cell, for occurrence profiling.
    pub bottom_row: Vec<Time>,
}

/// Races query `q` against every placement inside reference `p`:
/// leading and trailing deletions of `p` are free.
///
/// # Panics
///
/// Panics if `weights.indel == 0` (as for [`crate::alignment::AlignmentRace`]).
#[must_use]
pub fn semi_global_race<S: Symbol>(
    q: &Seq<S>,
    p: &Seq<S>,
    weights: RaceWeights,
) -> SemiGlobalOutcome {
    assert!(weights.indel > 0, "indel weight must be positive");
    let (n, m) = (q.len(), p.len());
    let cols = m + 1;
    let q_codes: Vec<u8> = q.codes().collect();
    let p_codes: Vec<u8> = p.codes().collect();
    // The engine's mode-aware grid fill: free top-row injection, the
    // shared rolling-row kernel for the interior.
    let mut grid = Vec::new();
    let cfg = AlignConfig::new(weights).with_mode(AlignMode::SemiGlobal);
    fill_grid(&q_codes, &p_codes, &cfg, &mut grid);
    let bottom_row: Vec<Time> = grid[n * cols..(n + 1) * cols]
        .iter()
        .map(|&raw| raw_to_time(raw))
        .collect();
    let (end_column, &score) = bottom_row
        .iter()
        .enumerate()
        .min_by_key(|&(_, t)| *t)
        .expect("bottom row is non-empty");
    SemiGlobalOutcome {
        score,
        end_column,
        bottom_row,
    }
}

/// Reference semi-global DP (free gaps in `p` at both ends), for
/// validation: returns the minimal cost of aligning all of `q` against
/// some window of `p` under (match, mismatch, indel) integer costs.
#[must_use]
pub fn semi_global_reference<S: Symbol>(
    q: &Seq<S>,
    p: &Seq<S>,
    weights: RaceWeights,
) -> Option<u64> {
    let (n, m) = (q.len(), p.len());
    let mut prev: Vec<Option<u64>> = vec![Some(0); m + 1]; // free leading gaps
    for i in 1..=n {
        let mut row: Vec<Option<u64>> = vec![None; m + 1];
        row[0] = prev[0].map(|v| v + weights.indel);
        for j in 1..=m {
            let mut best: Option<u64> = None;
            let mut push = |c: Option<u64>| {
                best = match (best, c) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (x, None) => x,
                    (None, y) => y,
                };
            };
            push(prev[j].map(|v| v + weights.indel));
            push(row[j - 1].map(|v| v + weights.indel));
            let dw = if q[i - 1] == p[j - 1] {
                Some(weights.matched)
            } else {
                weights.mismatched
            };
            if let Some(d) = dw {
                push(prev[j - 1].map(|v| v + d));
            }
            row[j] = best;
        }
        prev = row;
    }
    prev.into_iter().flatten().min() // free trailing gaps
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rl_bio::alphabet::Dna;

    fn dna(s: &str) -> Seq<Dna> {
        s.parse().unwrap()
    }

    #[test]
    fn exact_substring_scores_zero_under_levenshtein() {
        // Q embedded verbatim in P: best window = all matches. Search
        // needs match-cost-0 weights — under the Fig. 4 weights (match
        // costs 1) skipping the query entirely is just as cheap as
        // matching it, so occurrence finding uses Levenshtein weights.
        let q = dna("ACGT");
        let p = dna("TTTTACGTTTTT");
        let out = semi_global_race(&q, &p, RaceWeights::levenshtein());
        assert_eq!(out.score, Time::ZERO, "an exact occurrence is free");
        assert_eq!(out.end_column, 8, "the occurrence ends at P position 8");
    }

    #[test]
    fn empty_query_matches_anywhere_for_free() {
        let q = Seq::<Dna>::empty();
        let p = dna("ACGT");
        let out = semi_global_race(&q, &p, RaceWeights::fig4());
        assert_eq!(out.score, Time::ZERO);
    }

    #[test]
    fn global_is_an_upper_bound() {
        let q = dna("GATTCGA");
        let p = dna("ACTGAGA");
        let semi = semi_global_race(&q, &p, RaceWeights::fig4());
        let global = crate::alignment::AlignmentRace::new(&q, &p, RaceWeights::fig4())
            .run_functional()
            .score();
        assert!(semi.score <= global, "free ends can only help");
    }

    #[test]
    fn bottom_row_profile_locates_all_occurrences() {
        // Two exact occurrences of the query: both bottom-row dips.
        let q = dna("ACGT");
        let p = dna("ACGTTTACGT");
        let out = semi_global_race(&q, &p, RaceWeights::levenshtein());
        let dips: Vec<usize> = out
            .bottom_row
            .iter()
            .enumerate()
            .filter(|&(_, t)| *t == Time::ZERO)
            .map(|(j, _)| j)
            .collect();
        assert_eq!(dips, vec![4, 10], "occurrences end at columns 4 and 10");
    }

    proptest! {
        /// Race == reference semi-global DP on random inputs, for both
        /// the mismatch=∞ and mismatch=2 weight sets.
        #[test]
        fn race_equals_reference(qs in "[ACGT]{0,10}", ps in "[ACGT]{0,18}") {
            let (q, p) = (dna(&qs), dna(&ps));
            for w in [RaceWeights::fig4(), RaceWeights::fig2b(), RaceWeights::levenshtein()] {
                let race = semi_global_race(&q, &p, w);
                let reference = semi_global_reference(&q, &p, w);
                prop_assert_eq!(race.score.cycles(), reference);
            }
        }

        /// The score-only engine in semi-global mode — both traversal
        /// orders — agrees with this module's grid-backed wrapper.
        #[test]
        fn engine_mode_equals_wrapper(qs in "[ACGT]{0,12}", ps in "[ACGT]{0,20}") {
            use crate::engine::{AlignEngine, KernelStrategy};
            let (q, p) = (dna(&qs), dna(&ps));
            for w in [RaceWeights::fig4(), RaceWeights::levenshtein()] {
                let wrapper = semi_global_race(&q, &p, w).score;
                for s in [KernelStrategy::RollingRow, KernelStrategy::Wavefront] {
                    let cfg = AlignConfig::new(w)
                        .with_mode(AlignMode::SemiGlobal)
                        .with_strategy(s);
                    let out = AlignEngine::new(cfg).align_seqs(&q, &p);
                    prop_assert_eq!(out.score, wrapper, "{}", s);
                }
            }
        }

        /// Semi-global never exceeds global, and equals it for empty P.
        #[test]
        fn dominance(qs in "[ACGT]{1,10}", ps in "[ACGT]{0,12}") {
            let (q, p) = (dna(&qs), dna(&ps));
            let w = RaceWeights::fig4();
            let semi = semi_global_race(&q, &p, w).score;
            let global = crate::alignment::AlignmentRace::new(&q, &p, w)
                .run_functional()
                .score();
            prop_assert!(semi <= global);
        }
    }
}
