//! Thresholded races: early termination for database scans (paper §6).
//!
//! A defining property of the OR-type race is that *the maximum possible
//! score is known at every instant*: if the output has not risen by cycle
//! `T`, the score is strictly greater than `T`. A similarity scan can
//! therefore abandon a candidate the moment the threshold cycle passes —
//! "if the count exceeds the threshold value, the architecture will treat
//! it as if the required match was not found and move on to the next
//! pattern". The systolic baseline cannot do this: its score is only
//! known after the whole computation drains (Section 6).

use rl_bio::{alphabet::Symbol, PackedSeq, Seq};

use crate::alignment::RaceWeights;
use crate::engine::{AlignConfig, AlignEngine, BatchEngine};
use crate::error::AlignError;
use crate::score_transform::TransformedWeights;
use crate::store::StoreTarget;
use crate::striped::Slot;
use crate::supervisor::{ResumeToken, ScanControl, ScanOutcome};

/// The outcome of a thresholded race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThresholdOutcome {
    /// The race finished within the threshold: the exact score, and the
    /// cycles consumed (== score).
    Within {
        /// The exact race score (≤ threshold).
        score: u64,
    },
    /// The output had not risen by the threshold cycle: the pair is
    /// "dissimilar", abandoned after `threshold + 1` cycles.
    Exceeded,
}

impl ThresholdOutcome {
    /// The score if the race finished in time.
    #[must_use]
    pub fn score(self) -> Option<u64> {
        match self {
            ThresholdOutcome::Within { score } => Some(score),
            ThresholdOutcome::Exceeded => None,
        }
    }

    /// Cycles the hardware spends before moving on: the score itself, or
    /// `threshold + 1` on an abandon.
    #[must_use]
    pub fn cycles_consumed(self, threshold: u64) -> u64 {
        match self {
            ThresholdOutcome::Within { score } => score,
            ThresholdOutcome::Exceeded => threshold + 1,
        }
    }
}

/// Races `q` against `p` under simple alignment weights, abandoning at
/// `threshold`. Runs on the [`crate::engine`] kernel
/// ([`crate::engine::KernelStrategy::Auto`]-selected) with the
/// threshold *fused into the sweep*: the race stops computing the
/// moment a whole arrival frontier (a row, or an anti-diagonal pair)
/// exceeds the threshold, just as the hardware moves on the moment the
/// threshold cycle passes.
#[must_use]
pub fn threshold_race<S: Symbol>(
    q: &Seq<S>,
    p: &Seq<S>,
    weights: RaceWeights,
    threshold: u64,
) -> ThresholdOutcome {
    threshold_race_with(
        q,
        p,
        weights,
        threshold,
        crate::engine::KernelStrategy::Auto,
    )
}

/// [`threshold_race`] on an explicit kernel traversal order. The
/// classification is identical for both orders (each abandons only when
/// the score provably exceeds the threshold, and classifies exactly at
/// completion otherwise — property-tested).
#[must_use]
pub fn threshold_race_with<S: Symbol>(
    q: &Seq<S>,
    p: &Seq<S>,
    weights: RaceWeights,
    threshold: u64,
    strategy: crate::engine::KernelStrategy,
) -> ThresholdOutcome {
    let cfg = AlignConfig::new(weights)
        .with_threshold(threshold)
        .with_strategy(strategy);
    let outcome = AlignEngine::new(cfg).align_seqs(q, p);
    classify(outcome.finished_score(), threshold)
}

/// Races `q` against `p` under transformed (Section 5) weights,
/// abandoning at `threshold` (in *delay* units; use
/// [`TransformedWeights::recover_score`] to convert a score threshold).
#[must_use]
pub fn threshold_race_transformed<S: Symbol>(
    q: &Seq<S>,
    p: &Seq<S>,
    weights: &TransformedWeights<S>,
    threshold: u64,
) -> ThresholdOutcome {
    let raced = weights.reference_race_cost(q, p);
    classify(raced.cycles(), threshold)
}

fn classify(score: Option<u64>, threshold: u64) -> ThresholdOutcome {
    match score {
        Some(s) if s <= threshold => ThresholdOutcome::Within { score: s },
        _ => ThresholdOutcome::Exceeded,
    }
}

/// Scan summary from [`scan_database`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanReport {
    /// Indices of database entries within the threshold, with scores.
    pub hits: Vec<(usize, u64)>,
    /// Number of abandoned (dissimilar) entries.
    pub rejected: usize,
    /// Total cycles consumed across the scan (the §6 win: rejected
    /// entries cost only `threshold + 1` cycles each).
    pub total_cycles: u64,
    /// Cycles a threshold-less scan would have consumed (every race runs
    /// to completion).
    pub unthresholded_cycles: u64,
}

impl ScanReport {
    /// Fraction of cycles saved by thresholding.
    #[must_use]
    pub fn savings_fraction(&self) -> f64 {
        if self.unthresholded_cycles == 0 {
            return 0.0;
        }
        1.0 - self.total_cycles as f64 / self.unthresholded_cycles as f64
    }
}

/// Scans `query` against a database of patterns, keeping entries whose
/// race finishes within `threshold` cycles — the Section 6 application.
///
/// The scan runs through [`BatchEngine::align_batch_refs`], so
/// shape-similar patterns are swept by the inter-pair striped SIMD
/// kernel (each lane one pattern, the §6 many-patterns-one-array
/// tiling) and the batch fans out across cores. The races run to
/// completion (no fused threshold) because the report also prices the
/// hypothetical threshold-less scan.
#[must_use]
pub fn scan_database<S: Symbol>(
    query: &Seq<S>,
    database: &[Seq<S>],
    weights: RaceWeights,
    threshold: u64,
) -> ScanReport {
    let q = PackedSeq::from_seq(query);
    let patterns: Vec<PackedSeq<S>> = database.iter().map(PackedSeq::from_seq).collect();
    let pairs: Vec<(&PackedSeq<S>, &PackedSeq<S>)> = patterns.iter().map(|p| (&q, p)).collect();
    let outcomes = BatchEngine::new(AlignConfig::new(weights)).align_batch_refs(&pairs);

    let mut hits = Vec::new();
    let mut rejected = 0;
    let mut total_cycles = 0;
    let mut unthresholded = 0;
    for (idx, outcome) in outcomes.iter().enumerate() {
        let full = outcome.score.cycles().unwrap_or(0);
        unthresholded += full;
        match classify(outcome.score.cycles(), threshold) {
            ThresholdOutcome::Within { score } => {
                hits.push((idx, score));
                total_cycles += score;
            }
            ThresholdOutcome::Exceeded => {
                rejected += 1;
                total_cycles += threshold + 1;
            }
        }
    }
    ScanReport {
        hits,
        rejected,
        total_cycles,
        unthresholded_cycles: unthresholded,
    }
}

/// Result of a ratcheted top-k database scan ([`scan_packed_topk_with`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopKScan {
    /// The `k` best database entries as `(index, score)`, sorted by
    /// `(score, index)` ascending (fewer when the database is smaller
    /// than `k` or a configured threshold rejects the rest).
    /// **Deterministic**: identical for every worker count and
    /// interleaving, and identical to what a sequential full scan
    /// followed by top-k selection produces (property-tested).
    pub hits: Vec<(usize, u64)>,
    /// Entries the ratchet abandoned early (provably outside the final
    /// top-k). **Advisory**: depends on worker interleaving — a lucky
    /// schedule tightens the ratchet sooner and abandons more.
    pub abandoned: usize,
    /// Total grid cells computed across the scan. **Advisory**, like
    /// `abandoned` — the determinism guarantee covers `hits` only.
    pub cells_computed: u64,
}

/// Scans `query` against an already-packed database for the `k`
/// **best** (lowest-score) entries, with the early-termination
/// threshold *ratcheting down* as hits land — the §6 "move on to the
/// next pattern" rule, sharpened into a top-k race: once `k` candidates
/// have finished, every further race runs under "beat the current k-th
/// best or be abandoned", so the scan accelerates as it goes. This is
/// the unsupervised path (no control, no validation beyond the asserts
/// below); [`scan`] is the validated, supervised, resumable one.
///
/// Execution: the batch planner packs the database into stripes (the
/// fixed query is transposed into the stripe plane once and reused, not
/// re-packed per stripe) and streams them through `workers` workers
/// (`None` = one per available thread) that share the score ratchet.
/// `cfg.threshold` seeds the ratchet — entries scoring above it are
/// never hits, exactly as in [`scan_database`]. The paper's actual §6
/// workload is a **semi-global** scan
/// (`cfg.with_mode(AlignMode::SemiGlobal)`): "does Q occur anywhere in
/// this entry?" raced across the database on the striped batch kernel,
/// the ratchet tightening on the best window scores.
///
/// The returned [`TopKScan::hits`] is **deterministic** regardless of
/// worker interleaving, in every min-plus mode: abandons only ever fire
/// on a strict `score > current-k-th-best` proof, and the ratchet is
/// always at least the true k-th best, so every true top-k entry
/// finishes with its exact score.
///
/// # Panics
///
/// Panics if `k == 0`, or for [`crate::engine::AlignMode::Local`]
/// (max-plus best-hit scans have no sound frontier abandon — run
/// [`BatchEngine::align_batch`] in local mode and select instead).
#[must_use]
pub fn scan_packed_topk_with<S: Symbol>(
    cfg: &AlignConfig,
    query: &PackedSeq<S>,
    database: &[PackedSeq<S>],
    k: usize,
    workers: Option<usize>,
) -> TopKScan {
    let pairs: Vec<_> = database.iter().map(|p| (query, p)).collect();
    let mut scratch = crate::striped::BatchScratch::default();
    let outcomes = crate::striped::scan_topk_impl(cfg, &pairs, k, workers, &mut scratch);

    let mut hits: Vec<(usize, u64)> = Vec::new();
    let mut abandoned = 0_usize;
    let mut cells_computed = 0_u64;
    for (idx, outcome) in outcomes.iter().enumerate() {
        cells_computed += outcome.cells_computed;
        match outcome.finished_score() {
            Some(score) => hits.push((idx, score)),
            None => abandoned += 1,
        }
    }
    // Deterministic selection: k smallest by (score, index). Survivors
    // beyond k were simply never abandoned before the ratchet tightened
    // past them.
    hits.sort_unstable_by_key(|&(idx, score)| (score, idx));
    hits.truncate(k);
    TopKScan {
        hits,
        abandoned,
        cells_computed,
    }
}

/// What [`scan`] races against, borrowed: an in-memory packed database,
/// or a persistent store target whose pending entries each segment
/// materializes through the store's quarantine ladder.
#[derive(Debug, Clone, Copy)]
pub enum ScanDb<'a, S: Symbol> {
    /// An in-memory packed database.
    Memory(&'a [PackedSeq<S>]),
    /// A persistent store target (primary plus replicas).
    Store(&'a StoreTarget<S>),
}

impl<S: Symbol> ScanDb<'_, S> {
    /// Entries in the database.
    pub(crate) fn len(self) -> usize {
        match self {
            ScanDb::Memory(db) => db.len(),
            ScanDb::Store(target) => target.store().len(),
        }
    }

    /// The length of entry `i` — from the manifest for a store, so
    /// validation and admission pricing never touch a payload chunk.
    fn entry_len(self, i: usize) -> usize {
        match self {
            ScanDb::Memory(db) => db[i].len(),
            ScanDb::Store(target) => target.store().entry_len(i),
        }
    }

    /// The content hash a resume token over this database carries
    /// (`None` in memory).
    fn content_hash(self) -> Option<u64> {
        match self {
            ScanDb::Memory(_) => None,
            ScanDb::Store(target) => Some(target.content_hash()),
        }
    }

    /// The admission-control cost estimate of a scan: total banded DP
    /// cells ([`crate::engine::BatchPlanStats::useful_cells`]'s currency)
    /// a query of `query_len` would race under `cfg`'s band, assuming no
    /// early abandons — over every entry, or over the `token`'s pending
    /// entries only for a resumed scan. Lengths come from the manifest
    /// for a store, so pricing touches no payload chunk (regression-
    /// tested via [`crate::store::PackedStore::chunks_loaded`]). The
    /// [`crate::service::ScanService`] keys its bounded queue on this.
    #[must_use]
    pub fn estimate_cells(
        self,
        cfg: &AlignConfig,
        query_len: usize,
        token: Option<&ResumeToken>,
    ) -> u64 {
        let cells = |i: usize| crate::striped::grid_cells(query_len, self.entry_len(i), cfg.band);
        match token {
            None => (0..self.len()).map(cells).sum(),
            Some(token) => token.pending_indices().map(cells).sum(),
        }
    }
}

/// The one scan validator: the configuration itself
/// ([`AlignConfig::validate`]'s rules), the min-plus requirement,
/// `1 ≤ k ≤ entries`, non-empty sequences, and kernel-word eligibility
/// for the scan's largest shape. Lengths come from the manifest for a
/// store, so validation loads no payload.
pub(crate) fn validate_scan<S: Symbol>(
    cfg: &AlignConfig,
    query: &PackedSeq<S>,
    db: ScanDb<'_, S>,
    k: usize,
) -> Result<(), AlignError> {
    let invalid = |reason: String| Err(AlignError::InvalidConfig { reason });
    cfg.validate()?;
    if !cfg.mode.is_min_plus() {
        return invalid(
            "the ratcheted top-k scan races min-plus modes \
             (global/semi-global/affine); local (max-plus) best-hit scans \
             have no sound frontier abandon"
                .into(),
        );
    }
    if k == 0 {
        return invalid("top-k scan needs k >= 1".into());
    }
    if k > db.len() {
        return invalid(format!(
            "k = {k} exceeds the database size {}: every entry would be a hit \
             and the ratchet could never tighten",
            db.len()
        ));
    }
    if query.is_empty() {
        return invalid("empty query: a zero-length race has no cells to time".into());
    }
    let mut m_max = 0;
    for i in 0..db.len() {
        match db.entry_len(i) {
            0 => return invalid(format!("database entry {i} is empty")),
            m => m_max = m_max.max(m),
        }
    }
    cfg.checked_lane_width(query.len(), m_max)?;
    Ok(())
}

/// The one token↔database binding check: a [`ResumeToken`] continues
/// only the scan that issued it — the same `k`, an in-memory token
/// against an in-memory database and a store token against a store of
/// identical content, the same entry count, and pending indices inside
/// the database. Resuming anything else could double-count or
/// mis-attribute pairs.
pub(crate) fn bind_token<S: Symbol>(
    token: &ResumeToken,
    db: ScanDb<'_, S>,
    k: usize,
) -> Result<(), AlignError> {
    let reason = if token.k != k {
        format!(
            "resume token was issued for a top-{} scan, not top-{k}",
            token.k
        )
    } else if token.db_hash != db.content_hash() {
        match (token.db_hash, db.content_hash()) {
            (Some(hash), None) => format!(
                "resume token is bound to persistent store content {hash:#018x}; \
                 resume it against that store, not an in-memory database"
            ),
            (Some(hash), Some(found)) => format!(
                "resume token is bound to store content {hash:#018x}, but this store's \
                 content hash is {found:#018x} — the database was rebuilt or differs"
            ),
            _ => "resume token was issued by an in-memory scan, not this store".into(),
        }
    } else if token.total_pairs != db.len() {
        format!(
            "resume token was issued for a database of {} entries, not {}",
            token.total_pairs,
            db.len()
        )
    } else if let Some(bad) = token.pending_indices().find(|&i| i >= db.len()) {
        format!("resume token references pair {bad} beyond the database")
    } else {
        return Ok(());
    };
    Err(AlignError::InvalidConfig { reason })
}

/// Supervised form of [`scan_packed_topk_with`]: [`scan`] over an
/// in-memory database, from the first pair, dropping the resume token.
/// When the scan completes with every fault recovered,
/// [`ScanOutcome::hits`] is byte-identical to the unsupervised
/// [`TopKScan::hits`].
pub fn scan_packed_topk_supervised<S: Symbol>(
    cfg: &AlignConfig,
    query: &PackedSeq<S>,
    database: &[PackedSeq<S>],
    k: usize,
    workers: Option<usize>,
    ctrl: &ScanControl,
) -> Result<ScanOutcome, AlignError> {
    scan(cfg, query, ScanDb::Memory(database), k, None, workers, ctrl).map(|(outcome, _)| outcome)
}

/// The one scan call: races `query` against `db` for the `k` best
/// entries under `ctrl` — fresh (`token = None`, every pair) or resumed
/// from a [`ResumeToken`] (only the token's pending pairs), in memory or
/// over a persistent store alike.
///
/// **Validation.** A bad request — `k = 0`, `k` beyond the database,
/// empty sequences, a degenerate weight scheme, a max-plus mode, a
/// shape no kernel word fits, or a token that does not belong to this
/// scan — is rejected up front with a typed [`AlignError`] before any
/// work. A token continues only the scan that issued it: the same `k`,
/// the same `query`/`cfg`, an in-memory token against an in-memory
/// database, and a store token against a store of identical content (a
/// rebuilt, corrupted or different store is rejected — resuming it
/// could double-count or mis-attribute pairs).
///
/// **Supervision.** The scan honours `ctrl`'s cooperative cancellation,
/// deadline and cell budget, isolates panics per stripe with per-pair
/// fallback retry, and records every absorbed fault in the ledger
/// ([`crate::supervisor`]). An early stop returns `Ok` with a *partial*
/// [`ScanOutcome`]; `Err` is reserved for requests rejected up front.
///
/// **Store.** Over [`ScanDb::Store`], hits and ledger entries are in
/// the caller's original input index space, and corrupt or unreadable
/// shards are quarantined: their pairs are served from a healthy
/// replica when the target has one (a recovered `store-chunk-read`
/// fault), otherwise they become faulted, *retryable* pairs in the
/// returned token.
///
/// **Result.** The [`ScanOutcome`] accounts for the *whole* scan, every
/// earlier segment included, so `completed + faulted + remaining ==
/// total` holds across any number of resumes. Alongside it comes a
/// [`ResumeToken`] whenever pairs are still unfinished (remaining after
/// an early stop, or lost to unrecovered faults); `None` means nothing
/// is left to resume. However many times a scan is interrupted and
/// resumed, the final top-k is byte-identical to an uninterrupted
/// [`scan_packed_topk_with`] run (property-tested), and over a healthy
/// store it is byte-identical to the in-memory scan of the same entries.
///
/// The resumed ratchet is re-seeded from the carried hits (see
/// [`ResumeToken`] for the soundness argument).
/// [`crate::service::ScanService`] runs every query segment through
/// this call.
pub fn scan<S: Symbol>(
    cfg: &AlignConfig,
    query: &PackedSeq<S>,
    db: ScanDb<'_, S>,
    k: usize,
    token: Option<ResumeToken>,
    workers: Option<usize>,
    ctrl: &ScanControl,
) -> Result<(ScanOutcome, Option<ResumeToken>), AlignError> {
    validate_scan(cfg, query, db, k)?;
    let carried = match token {
        Some(token) => {
            bind_token(&token, db, k)?;
            token
        }
        None => ResumeToken {
            k,
            total_pairs: db.len(),
            remaining: (0..db.len()).collect(),
            retryable: Vec::new(),
            hits: Vec::new(),
            completed_pairs: 0,
            abandoned: 0,
            cells_computed: 0,
            faults: Vec::new(),
            attempt: 0,
            db_hash: db.content_hash(),
        },
    };
    Ok(run_segment(cfg, query, db, carried, workers, ctrl))
}

/// Runs one segment of a (possibly resumed) scan — the token's pending
/// pairs — and merges the result with the token's carried state.
/// Store entries are first materialized through the quarantine ladder;
/// entries it loses join the faulted (retryable) set. Segment-local
/// slot positions and fault indices are remapped to original database
/// indices here.
fn run_segment<S: Symbol>(
    cfg: &AlignConfig,
    query: &PackedSeq<S>,
    db: ScanDb<'_, S>,
    carried: ResumeToken,
    workers: Option<usize>,
    ctrl: &ScanControl,
) -> (ScanOutcome, Option<ResumeToken>) {
    let ResumeToken {
        k,
        total_pairs,
        remaining: pending,
        retryable: mut faulted,
        hits: mut all_hits,
        completed_pairs: mut completed,
        abandoned: mut abandoned_count,
        cells_computed: mut cells,
        faults: mut all_faults,
        attempt,
        db_hash,
    } = carried;
    let first_new_fault = all_faults.len();

    let (materialized, store_faults, lost) = match db {
        ScanDb::Memory(_) => Default::default(),
        ScanDb::Store(target) => crate::store::materialize_pending(target, &pending, ctrl),
    };
    all_faults.extend(store_faults);
    faulted.extend(lost);
    let (ids, pairs): (Vec<usize>, Vec<_>) = match db {
        ScanDb::Memory(entries) => pending.iter().map(|&i| (i, (query, &entries[i]))).unzip(),
        ScanDb::Store(_) => materialized
            .iter()
            .map(|(i, seq)| (*i, (query, seq)))
            .unzip(),
    };
    let mut scratch = crate::striped::BatchScratch::default();
    let (slots, report) = crate::striped::scan_topk_resume_impl(
        cfg,
        &pairs,
        &ids,
        k,
        &all_hits,
        workers,
        &mut scratch,
        ctrl,
    );

    let mut remaining = Vec::new();
    for (&idx, slot) in ids.iter().zip(&slots) {
        match slot {
            Slot::Done(outcome) => {
                completed += 1;
                cells += outcome.cells_computed;
                match outcome.finished_score() {
                    Some(score) => all_hits.push((idx, score)),
                    None => abandoned_count += 1,
                }
            }
            Slot::Faulted => faulted.push(idx),
            Slot::Pending => remaining.push(idx),
        }
    }
    all_hits.sort_unstable_by_key(|&(idx, score)| (score, idx));
    all_hits.truncate(k);
    // Store materialization walks shard groups, not ascending input
    // order, so re-establish the token's ascending-index invariant.
    remaining.sort_unstable();
    faulted.sort_unstable();
    all_faults.extend(report.faults.into_iter().map(|mut f| {
        for p in &mut f.pairs {
            *p = ids[*p];
        }
        f
    }));
    for f in &mut all_faults[first_new_fault..] {
        f.attempt = attempt;
    }

    let outcome = ScanOutcome {
        hits: all_hits.clone(),
        completed_pairs: completed,
        faulted_pairs: faulted.len(),
        total_pairs,
        abandoned: abandoned_count,
        cells_computed: cells,
        faults: all_faults.clone(),
        stop: report.stop,
    };
    let token = (!remaining.is_empty() || !faulted.is_empty()).then_some(ResumeToken {
        k,
        total_pairs,
        remaining,
        retryable: faulted,
        hits: all_hits,
        completed_pairs: completed,
        abandoned: abandoned_count,
        cells_computed: cells,
        faults: all_faults,
        attempt,
        db_hash,
    });
    (outcome, token)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alignment::AlignmentRace;
    use proptest::prelude::*;
    use rl_bio::alphabet::Dna;
    use rl_bio::{matrix, mutate};
    use rl_dag::generate::seeded_rng;

    fn dna(s: &str) -> Seq<Dna> {
        s.parse().unwrap()
    }

    #[test]
    fn paper_pair_at_various_thresholds() {
        let q = dna("GATTCGA");
        let p = dna("ACTGAGA");
        let w = RaceWeights::fig4();
        // Score is 10 (Fig. 4c).
        assert_eq!(
            threshold_race(&q, &p, w, 10),
            ThresholdOutcome::Within { score: 10 }
        );
        assert_eq!(threshold_race(&q, &p, w, 9), ThresholdOutcome::Exceeded);
        assert_eq!(threshold_race(&q, &p, w, 9).cycles_consumed(9), 10);
        assert_eq!(threshold_race(&q, &p, w, 20).score(), Some(10));
    }

    #[test]
    fn transformed_threshold_matches_blosum_score() {
        let w = TransformedWeights::from_scheme(&matrix::blosum62()).unwrap();
        let q: Seq<rl_bio::AminoAcid> = "MKLV".parse().unwrap();
        let raced = w.reference_race_cost(&q, &q).cycles().unwrap();
        assert_eq!(
            threshold_race_transformed(&q, &q, &w, raced),
            ThresholdOutcome::Within { score: raced }
        );
        assert_eq!(
            threshold_race_transformed(&q, &q, &w, raced - 1),
            ThresholdOutcome::Exceeded
        );
    }

    #[test]
    fn database_scan_separates_similar_from_random() {
        let mut rng = seeded_rng(11);
        let query: Seq<Dna> = Seq::random(&mut rng, 32);
        // Database: 3 near-duplicates + 5 unrelated strings.
        let mut db: Vec<Seq<Dna>> = (0..3)
            .map(|_| {
                mutate::mutate(
                    &query,
                    &mutate::MutationConfig::substitutions_only(0.05),
                    &mut rng,
                )
            })
            .collect();
        db.extend((0..5).map(|_| Seq::<Dna>::random(&mut rng, 32)));

        // Threshold: perfect self-match scores 32; allow some slack.
        let report = scan_database(&query, &db, RaceWeights::fig4(), 40);
        assert_eq!(report.hits.len(), 3, "exactly the mutated copies pass");
        assert!(report.hits.iter().all(|&(i, _)| i < 3));
        assert_eq!(report.rejected, 5);
        assert!(report.savings_fraction() > 0.0);
        assert!(report.total_cycles < report.unthresholded_cycles);
    }

    proptest! {
        /// DESIGN.md invariant 8: `Exceeded` iff true score > threshold,
        /// and consumed cycles ≤ threshold + 1.
        #[test]
        fn threshold_is_exact(qs in "[ACGT]{1,12}", ps in "[ACGT]{1,12}", t in 0_u64..30) {
            let (q, p) = (dna(&qs), dna(&ps));
            let w = RaceWeights::fig4();
            let truth = AlignmentRace::new(&q, &p, w)
                .run_functional()
                .latency_cycles()
                .unwrap();
            let outcome = threshold_race(&q, &p, w, t);
            prop_assert_eq!(outcome == ThresholdOutcome::Exceeded, truth > t);
            prop_assert!(outcome.cycles_consumed(t) <= t.max(truth) + 1);
        }
    }
}
