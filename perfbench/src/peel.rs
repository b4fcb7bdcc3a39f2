//! The traced run's layer peel. Each layer is timed from outside by calling
//! its public entry point and the entry point one layer down on the same
//! query, back to back, alternating which goes first; a layer's self time
//! is the median of the per-query differences:
//!
//! `service` → `store` → `supervisor` → `early_termination` → `engine`.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use race_logic::early_termination::{scan_packed_topk_supervised, scan_packed_topk_with};
use race_logic::engine::{
    batch_plan_stats, AlignEngine, BatchEngine, BatchPlanStats, EngineOutcome,
};
use race_logic::store::{scan_store_topk_resumable, PackedStore, StoreTarget};
use race_logic::supervisor::ScanControl;
use race_logic::telemetry;
use rl_bio::Dna;

use crate::metrics::Values;
use crate::stats::{median, relative_range};
use crate::trace::Spans;
use crate::workloads::{
    build_and_open, outcome_ok, queue_wait_ms, BatchSystem, Hits, Packed, ScanSystem, TempFile, K,
};

/// Largest |reconciliation residual| accepted, as a share of the service
/// latency it explains.
pub const RECONCILE_TOLERANCE: f64 = 0.10;

/// Span request ids of peel rounds start here, apart from the closed loop's.
const PEEL_ID_BASE: u64 = 1 << 32;

/// Store build/open/load measurements per run.
const STORE_REPS: usize = 3;

/// Tally of checked results in the traced run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checked {
    pub attempted: u64,
    pub ok: u64,
}

impl Checked {
    fn note(&mut self, ok: bool) {
        self.attempted += 1;
        self.ok += u64::from(ok);
    }
}

/// A store of the scan database, measured: `store.build_s`, `store.open_s`,
/// `store.cold_load_s` (load and XXH64-verify every entry of a freshly
/// opened store) and `store.bytes_per_symbol`.
pub struct StoreProbe {
    pub target: Arc<StoreTarget<Dna>>,
    _file: TempFile,
}

pub fn probe_store(db: &[Packed], path: &Path, out: &mut Values) -> Result<StoreProbe, String> {
    let (mut build, mut open, mut load) = (Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<(Arc<StoreTarget<Dna>>, TempFile)> = None;
    let mut verify_failures = 0;
    for _ in 0..STORE_REPS {
        drop(last.take()); // remove the previous file first
        let opened = build_and_open(db, path)?;
        build.push(opened.build_s);
        open.push(opened.open_s);
        let cold = PackedStore::<Dna>::open_validated(path).map_err(|e| format!("open: {e}"))?;
        let t = Instant::now();
        for i in 0..cold.len() {
            std::hint::black_box(cold.entry(i).map_err(|e| format!("entry {i}: {e}"))?);
        }
        load.push(t.elapsed().as_secs_f64());
        verify_failures += cold.verify_failures();
        last = Some((opened.target, opened.file));
    }
    let (target, file) = last.expect("at least one repetition");
    let symbols: u64 = db.iter().map(|p| p.len() as u64).sum();
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    out.set("store.build_s", median(&build));
    out.set("store.open_s", median(&open));
    out.set("store.cold_load_s", median(&load));
    out.set("store.bytes_per_symbol", bytes as f64 / symbols as f64);
    out.set("store.verify_failures", verify_failures as f64);
    Ok(StoreProbe {
        target,
        _file: file,
    })
}

/// The calls of one peel round, in forward order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Service,
    Store,
    Supervisor,
    EarlyTermination,
    EarlyTerminationOneWorker,
    TelemetryOff,
    FullScan,
    PerPair,
}

const STEPS: [Step; 8] = [
    Step::Service,
    Step::Store,
    Step::Supervisor,
    Step::EarlyTermination,
    Step::EarlyTerminationOneWorker,
    Step::TelemetryOff,
    Step::FullScan,
    Step::PerPair,
];

/// Per-round timings (ms) and counts of the scan peel.
#[derive(Default)]
struct Round {
    qi: usize,
    service: f64,
    store: f64,
    supervisor: f64,
    et: f64,
    et_one: f64,
    telemetry_off: f64,
    full: f64,
    per_pair: f64,
    et_cells: u64,
    full_cells: u64,
    abandoned: usize,
}

/// The top-k by `(score, index)` of a full (unthresholded) scan.
fn topk(outcomes: impl Iterator<Item = EngineOutcome>) -> Hits {
    let mut hits: Hits = outcomes
        .enumerate()
        .filter_map(|(i, o)| o.finished_score().map(|s| (i, s)))
        .collect();
    hits.sort_unstable_by_key(|&(i, s)| (s, i));
    hits.truncate(K);
    hits
}

/// Runs the scan peel until `until` (at least two rounds) and sets the
/// service, store, supervisor, early-termination and scan-engine metrics.
///
/// The store step scans the store the service serves from when there is
/// one; otherwise it scans `probe`, a store of the same database that the
/// service does not use, and the service's next layer down is the
/// supervisor.
#[allow(clippy::too_many_lines)]
pub fn scan_peel(
    sys: &ScanSystem,
    reference: &[Hits],
    probe: &StoreTarget<Dna>,
    until: Instant,
    spans: &mut Spans,
    out: &mut Values,
    checked: &mut Checked,
) {
    let store_in_path = sys.store.is_some();
    let store = sys.store.as_deref().unwrap_or(probe);
    let nproc = crate::host::nproc() as f64;
    let db: &[Packed] = &sys.db;
    let mut batch = BatchEngine::new(sys.cfg);
    let mut single = AlignEngine::new(sys.cfg);
    let mut rounds: Vec<Round> = Vec::new();
    let (mut submit_us, mut queue_ms) = (Vec::new(), Vec::new());
    let (mut retries, mut faults) = (0_u64, 0_u64);
    let mut plans: Vec<BatchPlanStats> = Vec::new();
    let mut planned = vec![false; sys.queries.len()];
    while rounds.len() < 2 || Instant::now() < until {
        let r = rounds.len();
        let qi = r % sys.queries.len();
        let q = &sys.queries[qi];
        let want = &reference[qi];
        let pairs: Vec<(&Packed, &Packed)> = db.iter().map(|p| (q, p)).collect();
        if !planned[qi] {
            planned[qi] = true;
            let owned: Vec<(Packed, Packed)> = db.iter().map(|p| (q.clone(), p.clone())).collect();
            plans.push(batch_plan_stats(&sys.cfg, &owned));
        }
        let mut round = Round {
            qi,
            ..Round::default()
        };
        let id = PEEL_ID_BASE + r as u64;
        let now = Instant::now();
        let root = spans.record(id, "peel.round", None, now, now);
        let mut order = STEPS;
        if r % 2 == 1 {
            order.reverse();
        }
        for step in order {
            let ctrl = ScanControl::new();
            match step {
                Step::Service => {
                    let req = sys.request(qi);
                    let t0 = Instant::now();
                    let handle = sys.service.try_submit(req);
                    let t1 = Instant::now();
                    let report = handle
                        .map_err(|e| e.to_string())
                        .and_then(|h| h.wait().map_err(|e| e.to_string()));
                    let t2 = Instant::now();
                    let span = spans.record(id, "service", Some(root), t0, t2);
                    spans.record(id, "service.try_submit", Some(span), t0, t1);
                    round.service = (t2 - t0).as_secs_f64() * 1e3;
                    submit_us.push((t1 - t0).as_secs_f64() * 1e6);
                    checked.note(
                        report
                            .as_ref()
                            .is_ok_and(|rep| outcome_ok(&rep.outcome, want)),
                    );
                    if let Ok(rep) = &report {
                        queue_ms.extend(queue_wait_ms(rep));
                        retries += u64::from(rep.attempts.saturating_sub(1));
                        faults += rep.outcome.faults.len() as u64;
                    }
                }
                Step::Store => {
                    let (res, ms) = spans.time(id, "store", Some(root), || {
                        scan_store_topk_resumable(&sys.cfg, q, store, K, None, &ctrl)
                    });
                    round.store = ms;
                    checked.note(res.as_ref().is_ok_and(|(o, _)| outcome_ok(o, want)));
                    faults += res.map_or(0, |(o, _)| o.faults.len() as u64);
                }
                Step::Supervisor => {
                    let (res, ms) = spans.time(id, "supervisor", Some(root), || {
                        scan_packed_topk_supervised(&sys.cfg, q, db, K, None, &ctrl)
                    });
                    round.supervisor = ms;
                    checked.note(res.as_ref().is_ok_and(|o| outcome_ok(o, want)));
                    faults += res.map_or(0, |o| o.faults.len() as u64);
                }
                Step::EarlyTermination => {
                    let (res, ms) = spans.time(id, "early_termination", Some(root), || {
                        scan_packed_topk_with(&sys.cfg, q, db, K, None)
                    });
                    round.et = ms;
                    round.et_cells = res.cells_computed;
                    round.abandoned = res.abandoned;
                    checked.note(res.hits == *want);
                }
                Step::EarlyTerminationOneWorker => {
                    let (res, ms) =
                        spans.time(id, "early_termination.one_worker", Some(root), || {
                            scan_packed_topk_with(&sys.cfg, q, db, K, Some(1))
                        });
                    round.et_one = ms;
                    checked.note(res.hits == *want);
                }
                Step::TelemetryOff => {
                    let (res, ms) =
                        spans.time(id, "early_termination.telemetry_off", Some(root), || {
                            let was = telemetry::set_enabled(false);
                            let res = scan_packed_topk_with(&sys.cfg, q, db, K, None);
                            telemetry::set_enabled(was);
                            res
                        });
                    round.telemetry_off = ms;
                    checked.note(res.hits == *want);
                }
                Step::FullScan => {
                    let (res, ms) = spans.time(id, "engine.full_scan", Some(root), || {
                        batch.align_batch_refs(&pairs)
                    });
                    round.full = ms;
                    round.full_cells = res.iter().map(|o| o.cells_computed).sum();
                    checked.note(topk(res.into_iter()) == *want);
                }
                Step::PerPair => {
                    let (res, ms) = spans.time(id, "engine.per_pair", Some(root), || {
                        pairs
                            .iter()
                            .map(|(q, p)| single.align(q, p))
                            .collect::<Vec<_>>()
                    });
                    round.per_pair = ms;
                    checked.note(topk(res.into_iter()) == *want);
                }
            }
        }
        spans.close(root, Instant::now());
        rounds.push(round);
    }

    let col = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let service = median(&col(&|r| r.service));
    let below_service: fn(&Round) -> f64 = if store_in_path {
        |r| r.store
    } else {
        |r| r.supervisor
    };
    let service_self = median(&col(&|r| r.service - below_service(r)));
    let store_self = median(&col(&|r| r.store - r.supervisor));
    let supervisor_self = median(&col(&|r| r.supervisor - r.et));
    let et = median(&col(&|r| r.et));
    let explained =
        service_self + supervisor_self + et + if store_in_path { store_self } else { 0.0 };
    let residual = service - explained;

    out.set("service.latency_ms", service);
    out.set("service.self_ms", service_self);
    out.set("service.submit_us", median(&submit_us));
    // A closed-loop phase through the service sets queue wait at the
    // workload's own concurrency; otherwise it comes from the peel's calls.
    if out.get("service.queue_wait_ms").is_none() {
        out.set("service.queue_wait_ms", median(&queue_ms));
    }
    out.set("service.retries", retries as f64);
    out.set("service.shed", sys.service.stats().shed as f64);
    out.set("store.self_ms", store_self);
    out.set("store.chunks_loaded", store.store().chunks_loaded() as f64);
    out.set(
        "store.chunk_cache_hits",
        store.store().chunk_cache_hits() as f64,
    );
    let verify = out.get("store.verify_failures").unwrap_or(0.0);
    out.set(
        "store.verify_failures",
        verify + store.store().verify_failures() as f64,
    );
    out.set("supervisor.self_ms", supervisor_self);
    out.set("supervisor.faults", faults as f64);
    out.set("early_termination.scan_ms", et);
    out.set(
        "early_termination.parallel_eff",
        median(&col(&|r| r.et_one / (r.et * nproc))),
    );
    out.set(
        "telemetry.overhead_pct",
        median(&col(&|r| {
            100.0 * (r.et - r.telemetry_off) / r.telemetry_off
        })),
    );
    out.set("engine.full_scan_ms", median(&col(&|r| r.full)));
    out.set("reconcile.residual_ms", residual);
    out.set("reconcile.residual_pct", 100.0 * residual / service);

    // Advisory counts: their fraction per query, and how far repeats of
    // one query disagree.
    let db_len = db.len() as f64;
    let cells_frac = col(&|r| r.et_cells as f64 / r.full_cells as f64);
    let abandoned_frac = col(&|r| r.abandoned as f64 / db_len);
    out.set("early_termination.cells_frac", median(&cells_frac));
    out.set("early_termination.abandoned_frac", median(&abandoned_frac));
    let spread = |fracs: &[f64]| {
        (0..sys.queries.len())
            .map(|qi| {
                let same: Vec<f64> = rounds
                    .iter()
                    .zip(fracs)
                    .filter(|(r, _)| r.qi == qi)
                    .map(|(_, &f)| f)
                    .collect();
                relative_range(&same)
            })
            .fold(0.0, f64::max)
    };
    out.set("early_termination.cells_frac_spread", spread(&cells_frac));
    out.set(
        "early_termination.abandoned_frac_spread",
        spread(&abandoned_frac),
    );

    // The unthresholded query × database batch is this workload's engine
    // batch.
    set_engine_batch(
        out,
        &col(&|r| r.full),
        &col(&|r| r.per_pair),
        &rounds
            .iter()
            .map(|r| sys.grid_cells[r.qi])
            .collect::<Vec<_>>(),
        &plans,
    );
    eprintln!(
        "reconcile: service {service:.3} ms = service.self {service_self:.3} + {}supervisor.self {supervisor_self:.3} + early_termination.scan {et:.3} + residual {residual:.3} ms ({:.2} %, tolerance ±{:.0} %, {} rounds)",
        if store_in_path { format!("store.self {store_self:.3} + ") } else { String::new() },
        100.0 * residual / service,
        RECONCILE_TOLERANCE * 100.0,
        rounds.len(),
    );
}

fn set_engine_batch(
    out: &mut Values,
    batch_ms: &[f64],
    per_pair_ms: &[f64],
    cells: &[u64],
    plans: &[BatchPlanStats],
) {
    let gcups: Vec<f64> = batch_ms
        .iter()
        .zip(cells)
        .map(|(ms, &c)| c as f64 / (ms * 1e6))
        .collect();
    let mean =
        |f: fn(&BatchPlanStats) -> f64| plans.iter().map(f).sum::<f64>() / plans.len() as f64;
    out.set("engine.batch_ms", median(batch_ms));
    out.set("engine.per_pair_ms", median(per_pair_ms));
    out.set("engine.kernel_gcups", median(&gcups));
    out.set("engine.occupancy", mean(BatchPlanStats::occupancy));
    out.set(
        "engine.striped_fraction",
        mean(BatchPlanStats::striped_fraction),
    );
    out.set(
        "engine.half_width_stripes",
        mean(|p| p.half_width_stripes as f64),
    );
}

/// Runs the batch peel until `until` (at least two rounds): the workload's
/// `align_batch` against a sequential `AlignEngine` loop over the same
/// batch, alternating which goes first; sets the engine batch metrics.
pub fn batch_peel(
    sys: &mut BatchSystem,
    reference: &[Vec<Option<u64>>],
    until: Instant,
    spans: &mut Spans,
    out: &mut Values,
    checked: &mut Checked,
) {
    let plans: Vec<BatchPlanStats> = sys
        .batches
        .iter()
        .map(|b| batch_plan_stats(sys.engine.config(), b))
        .collect();
    let mut single = AlignEngine::new(*sys.engine.config());
    let (mut batch_ms, mut per_pair_ms, mut cells) = (Vec::new(), Vec::new(), Vec::new());
    let mut r = 0;
    while r < 2 || Instant::now() < until {
        let bi = r % sys.batches.len();
        let id = PEEL_ID_BASE + r as u64;
        let now = Instant::now();
        let root = spans.record(id, "peel.round", None, now, now);
        let matches = |out: &[EngineOutcome]| {
            out.iter()
                .zip(&reference[bi])
                .all(|(o, s)| o.finished_score() == *s)
        };
        for first in [r % 2 == 0, r % 2 == 1] {
            if first {
                let (res, ms) = spans.time(id, "engine.align_batch", Some(root), || {
                    sys.engine.align_batch(&sys.batches[bi])
                });
                batch_ms.push(ms);
                checked.note(matches(&res));
            } else {
                let (res, ms) = spans.time(id, "engine.per_pair", Some(root), || {
                    sys.batches[bi]
                        .iter()
                        .map(|(q, p)| single.align(q, p))
                        .collect::<Vec<_>>()
                });
                per_pair_ms.push(ms);
                checked.note(matches(&res));
            }
        }
        spans.close(root, Instant::now());
        cells.push(sys.grid_cells[bi]);
        r += 1;
    }
    set_engine_batch(out, &batch_ms, &per_pair_ms, &cells, &plans);
}
