//! The three workloads: seeded inputs, timed set-up, the reference answers
//! and the closed loops.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use race_logic::alignment::RaceWeights;
use race_logic::early_termination::scan_packed_topk_with;
use race_logic::engine::{AlignConfig, AlignEngine, AlignMode, BatchEngine};
use race_logic::service::{QueryReport, ScanRequest, ScanService, ServiceConfig};
use race_logic::store::{build_store, PackedStore, StoreParams, StoreTarget};
use race_logic::supervisor::ScanOutcome;
use race_logic::telemetry::TraceEvent;
use rand::rngs::StdRng;
use rand::Rng;
use rl_bio::{Dna, PackedSeq};

use crate::inputs::{balanced_edit, lognormal_lengths, rng_for, shuffle, stratum, Digest, DnaSeq};
use crate::trace::Spans;

pub type Packed = PackedSeq<Dna>;
pub type Hits = Vec<(usize, u64)>;

/// Best hits kept per scan query.
pub const K: usize = 10;
/// Full set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Requests of the warm pass that ends each set-up.
pub const WARM_REQUESTS: usize = 4;
/// The highest tail percentile reported. A 30 s run of any workload keeps
/// well over ten samples beyond it; the rule in
/// [`crate::stats::tail_percentile`] lowers it for a run that falls short.
pub const TAIL_CAP: f64 = 95.0;
/// Batches in the `align_ragged` cycle.
pub const BATCHES: usize = 32;
/// Passes over the query set in a scan schedule, each in its own order.
const SCHEDULE_CYCLES: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScanStore,
    ScanSemi,
    AlignRagged,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ScanStore,
        Workload::ScanSemi,
        Workload::AlignRagged,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanStore => "scan_store",
            Workload::ScanSemi => "scan_semi",
            Workload::AlignRagged => "align_ragged",
        }
    }

    /// Requests the single client keeps in flight.
    pub fn in_flight(self) -> usize {
        match self {
            Workload::ScanStore => 2,
            Workload::ScanSemi | Workload::AlignRagged => 1,
        }
    }
}

/// A scan workload: queries raced against a database for the top `K`.
pub struct ScanInputs {
    pub cfg: AlignConfig,
    pub queries: Vec<DnaSeq>,
    pub db: Vec<DnaSeq>,
    /// The order the closed loop submits queries in: repeated passes over
    /// the query set, each shuffled, so that the queries sharing the queue
    /// vary within a run.
    pub schedule: Vec<usize>,
    /// The queries of the warm pass.
    pub warm: Vec<usize>,
    /// Serve the database from a persistent store instead of memory.
    pub use_store: bool,
}

/// A batch workload: a cycle of pair batches for `BatchEngine`.
pub struct BatchInputs {
    pub cfg: AlignConfig,
    pub batches: Vec<Vec<(DnaSeq, DnaSeq)>>,
}

pub enum Inputs {
    Scan(ScanInputs),
    Batch(BatchInputs),
}

/// The workload's inputs for `seed`.
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    let rng = &mut rng_for(workload.name(), seed);
    let global = AlignConfig::new(RaceWeights::fig4());
    match workload {
        Workload::ScanStore => {
            let lens = lognormal_lengths(rng, 4000, 200.0, 0.5, (32, 2000));
            let db: Vec<DnaSeq> = lens.iter().map(|&l| DnaSeq::random(rng, l)).collect();
            // Homologs of entries from the middle half of the length
            // distribution, at stratified length ranks (so in order of
            // length), with 5 % balanced edits.
            let mut by_len: Vec<usize> = (0..db.len()).collect();
            by_len.sort_unstable_by_key(|&i| (db[i].len(), i));
            let n = 48;
            let queries: Vec<DnaSeq> = (0..n)
                .map(|i| {
                    let rank = ((0.25 + 0.5 * stratum(rng, i, n)) * db.len() as f64) as usize;
                    balanced_edit(rng, &db[by_len[rank]], 0.05)
                })
                .collect();
            Inputs::Scan(ScanInputs {
                cfg: global,
                schedule: schedule(rng, n),
                // Evenly spread over the length order.
                warm: (0..WARM_REQUESTS)
                    .map(|i| (2 * i + 1) * n / (2 * WARM_REQUESTS))
                    .collect(),
                queries,
                db,
                use_store: true,
            })
        }
        Workload::ScanSemi => {
            let lens = lognormal_lengths(rng, 1000, 1000.0, 0.3, (200, 5000));
            let db = lens.iter().map(|&l| DnaSeq::random(rng, l)).collect();
            let n = 16;
            let queries = (0..n).map(|_| DnaSeq::random(rng, 100)).collect();
            Inputs::Scan(ScanInputs {
                cfg: global.with_mode(AlignMode::SemiGlobal),
                schedule: schedule(rng, n),
                warm: (0..WARM_REQUESTS).collect(),
                queries,
                db,
                use_store: false,
            })
        }
        Workload::AlignRagged => {
            let batches = (0..BATCHES)
                .map(|_| {
                    let n_pairs = 1000;
                    let mut lens = lognormal_lengths(rng, n_pairs, 128.0, 1.2, (16, 1024));
                    lens.sort_unstable();
                    // Partner length ratios in [0.85, 1.15), spread evenly
                    // over the length order (a golden-ratio sequence), so
                    // every batch holds nearly the same multiset of shapes.
                    let mut pairs: Vec<(DnaSeq, DnaSeq)> = lens
                        .iter()
                        .enumerate()
                        .map(|(i, &n)| {
                            let u = ((i as f64 + rng.unit_f64()) * 0.618_033_988_749_895).fract();
                            let m = (n as f64 * (0.85 + 0.3 * u)).round() as usize;
                            (DnaSeq::random(rng, n), DnaSeq::random(rng, m.max(8)))
                        })
                        .collect();
                    shuffle(rng, &mut pairs);
                    pairs
                })
                .collect();
            Inputs::Batch(BatchInputs {
                cfg: global,
                batches,
            })
        }
    }
}

/// `SCHEDULE_CYCLES` passes over `0..n`, each shuffled.
fn schedule(rng: &mut StdRng, n: usize) -> Vec<usize> {
    (0..SCHEDULE_CYCLES)
        .flat_map(|_| {
            let mut pass: Vec<usize> = (0..n).collect();
            shuffle(rng, &mut pass);
            pass
        })
        .collect()
}

impl Inputs {
    /// Digest of every generated sequence and the workload's shape.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        match self {
            Inputs::Scan(s) => {
                d.add_u64(u64::from(s.use_store));
                s.schedule
                    .iter()
                    .chain(&s.warm)
                    .for_each(|&i| d.add_u64(i as u64));
                d.add(&s.queries);
                d.add(&s.db);
            }
            Inputs::Batch(b) => {
                for batch in &b.batches {
                    d.add_u64(batch.len() as u64);
                    for (q, p) in batch {
                        d.add(&[q.clone(), p.clone()]);
                    }
                }
            }
        }
        d.finish()
    }
}

/// Set-up time, and the packing step inside it.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub pack_s: f64,
}

/// A file removed when dropped.
pub struct TempFile(pub PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A persistent store, built and opened, with the two timings.
pub struct OpenedStore {
    pub target: Arc<StoreTarget<Dna>>,
    pub file: TempFile,
    pub build_s: f64,
    pub open_s: f64,
}

/// Builds a persistent store of `db` at `path` and opens it.
pub fn build_and_open(db: &[Packed], path: &Path) -> Result<OpenedStore, String> {
    let t = Instant::now();
    build_store(path, db, &StoreParams::default()).map_err(|e| format!("build_store: {e}"))?;
    let file = TempFile(path.to_path_buf());
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let store = PackedStore::<Dna>::open_validated(path).map_err(|e| format!("open: {e}"))?;
    Ok(OpenedStore {
        target: Arc::new(StoreTarget::new(Arc::new(store))),
        file,
        build_s,
        open_s: t.elapsed().as_secs_f64(),
    })
}

pub fn pack(seqs: &[DnaSeq]) -> Vec<Packed> {
    seqs.iter().map(PackedSeq::from_seq).collect()
}

/// A scan workload, set up and serving.
pub struct ScanSystem {
    pub cfg: AlignConfig,
    pub queries: Vec<Packed>,
    pub db: Arc<Vec<Packed>>,
    pub store: Option<Arc<StoreTarget<Dna>>>,
    pub service: ScanService<Dna>,
    /// Full-grid cells `n·m` summed over the database, per query.
    pub grid_cells: Vec<u64>,
    pub schedule: Vec<usize>,
    pub times: SetupTimes,
    _store_file: Option<TempFile>,
}

impl ScanSystem {
    /// Packs the inputs, builds and opens the store (if any), starts the
    /// service and runs the warm pass; all of it is `setup_s`.
    pub fn setup(inputs: &ScanInputs, store_path: &Path) -> Result<Self, String> {
        let t0 = Instant::now();
        let queries = pack(&inputs.queries);
        let db = Arc::new(pack(&inputs.db));
        let pack_s = t0.elapsed().as_secs_f64();
        let (store, store_file) = if inputs.use_store {
            let opened = build_and_open(&db, store_path)?;
            (Some(opened.target), Some(opened.file))
        } else {
            (None, None)
        };
        let service = ScanService::new(ServiceConfig::default());
        let db_symbols: u64 = db.iter().map(|p| p.len() as u64).sum();
        let grid_cells = queries
            .iter()
            .map(|q| q.len() as u64 * db_symbols)
            .collect();
        let mut sys = ScanSystem {
            cfg: inputs.cfg,
            queries,
            db,
            store,
            service,
            grid_cells,
            schedule: inputs.schedule.clone(),
            times: SetupTimes::default(),
            _store_file: store_file,
        };
        for &qi in &inputs.warm {
            let handle = sys
                .service
                .try_submit(sys.request(qi))
                .map_err(|e| format!("warm pass: {e}"))?;
            handle.wait().map_err(|e| format!("warm pass: {e}"))?;
        }
        sys.times = SetupTimes {
            total_s: t0.elapsed().as_secs_f64(),
            pack_s,
        };
        Ok(sys)
    }

    pub fn request(&self, qi: usize) -> ScanRequest<Dna> {
        let query = self.queries[qi].clone();
        match &self.store {
            Some(target) => ScanRequest::from_store(self.cfg, query, Arc::clone(target), K),
            None => ScanRequest::new(self.cfg, query, Arc::clone(&self.db), K),
        }
    }

    /// The reference top-k of every query: the single-worker in-memory
    /// scan, computed outside any timed region.
    pub fn reference(&self) -> Vec<Hits> {
        self.queries
            .iter()
            .map(|q| scan_packed_topk_with(&self.cfg, q, &self.db, K, Some(1)).hits)
            .collect()
    }
}

/// A complete outcome with exactly the reference hits.
pub fn outcome_ok(outcome: &ScanOutcome, reference: &Hits) -> bool {
    outcome.stop.is_none() && outcome.faulted_pairs == 0 && outcome.hits == *reference
}

/// Queue wait of a finished query, from its own service timeline: the
/// first segment start minus the enqueue.
pub fn queue_wait_ms(report: &QueryReport) -> Option<f64> {
    let at = |want: fn(&TraceEvent) -> bool| {
        report
            .trace
            .events
            .iter()
            .find(|e| want(&e.event))
            .map(|e| e.at_nanos)
    };
    let queued = at(|e| matches!(e, TraceEvent::Queued { .. }))?;
    let started = at(|e| matches!(e, TraceEvent::SegmentStart { .. }))?;
    Some(started.saturating_sub(queued) as f64 / 1e6)
}

/// The batch workload, set up.
pub struct BatchSystem {
    pub batches: Vec<Vec<(Packed, Packed)>>,
    pub engine: BatchEngine,
    /// Full-grid cells `n·m` per batch.
    pub grid_cells: Vec<u64>,
    pub times: SetupTimes,
}

impl BatchSystem {
    /// Packs every pair, creates the engine and runs the warm pass.
    pub fn setup(inputs: &BatchInputs) -> Self {
        let t0 = Instant::now();
        let batches: Vec<Vec<(Packed, Packed)>> = inputs
            .batches
            .iter()
            .map(|b| {
                b.iter()
                    .map(|(q, p)| (PackedSeq::from_seq(q), PackedSeq::from_seq(p)))
                    .collect()
            })
            .collect();
        let pack_s = t0.elapsed().as_secs_f64();
        let mut engine = BatchEngine::new(inputs.cfg);
        for batch in batches.iter().cycle().take(WARM_REQUESTS) {
            std::hint::black_box(engine.align_batch(batch));
        }
        let grid_cells = batches
            .iter()
            .map(|b| b.iter().map(|(q, p)| (q.len() * p.len()) as u64).sum())
            .collect();
        BatchSystem {
            batches,
            engine,
            grid_cells,
            times: SetupTimes {
                total_s: t0.elapsed().as_secs_f64(),
                pack_s,
            },
        }
    }

    /// The reference score of every pair: a sequential `AlignEngine` loop,
    /// computed outside any timed region.
    pub fn reference(&self) -> Vec<Vec<Option<u64>>> {
        let mut engine = AlignEngine::new(*self.engine.config());
        self.batches
            .iter()
            .map(|b| {
                b.iter()
                    .map(|(q, p)| engine.align(q, p).finished_score())
                    .collect()
            })
            .collect()
    }
}

/// One request of a closed loop.
#[derive(Debug, Clone)]
pub struct Request {
    pub latency_ms: f64,
    pub ok: bool,
    /// Recorded with spans on (traced runs alternate blocks).
    pub traced: bool,
    pub submit_us: Option<f64>,
    pub queue_wait_ms: Option<f64>,
}

/// What a closed loop did.
#[derive(Debug, Default)]
pub struct LoopStats {
    pub requests: Vec<Request>,
    /// Submissions attempted, refused ones included.
    pub attempted: u64,
    /// Full-grid cells of the completed requests.
    pub cells: u64,
    pub wall_s: f64,
}

impl LoopStats {
    pub fn ok(&self) -> u64 {
        self.requests.iter().filter(|r| r.ok).count() as u64
    }

    /// Latencies of the correct requests, optionally only those recorded
    /// with spans on (`Some(true)`) or off (`Some(false)`).
    pub fn latencies(&self, traced: Option<bool>) -> Vec<f64> {
        self.requests
            .iter()
            .filter(|r| r.ok && traced.is_none_or(|t| r.traced == t))
            .map(|r| r.latency_ms)
            .collect()
    }
}

/// One client keeping `in_flight` queries submitted until `until`, then
/// draining; queries follow the system's schedule.
pub fn scan_loop(
    sys: &ScanSystem,
    reference: &[Hits],
    in_flight: usize,
    until: Instant,
    spans: &mut Spans,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let mut pending = VecDeque::new();
    let start = Instant::now();
    let mut seq = 0_u64;
    let mut last_done = start;
    loop {
        while pending.len() < in_flight && Instant::now() < until {
            let qi = sys.schedule[seq as usize % sys.schedule.len()];
            let req = sys.request(qi);
            let t0 = Instant::now();
            let submitted = sys.service.try_submit(req);
            let t1 = Instant::now();
            stats.attempted += 1;
            let traced = spans.on_for(seq);
            match submitted {
                Ok(handle) => pending.push_back((handle, t0, t1, qi, seq, traced)),
                Err(_) => stats.requests.push(Request {
                    latency_ms: 0.0,
                    ok: false,
                    traced,
                    submit_us: None,
                    queue_wait_ms: None,
                }),
            }
            seq += 1;
        }
        let Some((handle, t0, t1, qi, id, traced)) = pending.pop_front() else {
            break;
        };
        let result = handle.wait();
        let t2 = Instant::now();
        last_done = t2;
        if traced {
            let root = spans.record(id, "request", None, t0, t2);
            spans.record(id, "service.try_submit", Some(root), t0, t1);
            spans.record(id, "service.wait", Some(root), t1, t2);
        }
        let mut req = Request {
            latency_ms: (t2 - t0).as_secs_f64() * 1e3,
            ok: false,
            traced,
            submit_us: Some((t1 - t0).as_secs_f64() * 1e6),
            queue_wait_ms: None,
        };
        if let Ok(report) = result {
            req.ok = outcome_ok(&report.outcome, &reference[qi]);
            req.queue_wait_ms = queue_wait_ms(&report);
            if report.outcome.is_complete() {
                stats.cells += sys.grid_cells[qi];
            }
        }
        stats.requests.push(req);
    }
    stats.wall_s = (last_done - start).as_secs_f64();
    stats
}

/// One client calling `align_batch` on the batch cycle until `until`.
pub fn batch_loop(
    sys: &mut BatchSystem,
    reference: &[Vec<Option<u64>>],
    until: Instant,
    spans: &mut Spans,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let start = Instant::now();
    let mut seq = 0_u64;
    while Instant::now() < until {
        let bi = seq as usize % sys.batches.len();
        let t0 = Instant::now();
        let out = sys.engine.align_batch(&sys.batches[bi]);
        let t1 = Instant::now();
        let traced = spans.on_for(seq);
        if traced {
            let root = spans.record(seq, "request", None, t0, t1);
            spans.record(seq, "engine.align_batch", Some(root), t0, t1);
        }
        stats.attempted += 1;
        stats.cells += sys.grid_cells[bi];
        let ok = out.len() == reference[bi].len()
            && out
                .iter()
                .zip(&reference[bi])
                .all(|(o, r)| o.finished_score() == *r);
        stats.requests.push(Request {
            latency_ms: (t1 - t0).as_secs_f64() * 1e3,
            ok,
            traced,
            submit_us: None,
            queue_wait_ms: None,
        });
        seq += 1;
    }
    stats.wall_s = start.elapsed().as_secs_f64();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            let a = generate(w, 7).digest();
            assert_eq!(a, generate(w, 7).digest(), "{}", w.name());
            assert_ne!(a, generate(w, 8).digest(), "{}", w.name());
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
