//! The repository benchmark: seeded closed-loop workloads against the
//! public API of `race_logic`, every result checked against a reference.
//!
//! ```text
//! perfbench --workload <scan_store|scan_semi|align_ragged> --seed <n>
//!           --seconds <s> --trace <0|1> [--corrupt-reference]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the layer
//! peel and prints the per-layer metrics. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`. The exit
//! code is 1 when any result differs from the reference or a store chunk
//! failed verification. `--corrupt-reference` perturbs one reference answer
//! (a self-test of that gate). See `README.md` beside this file.

mod host;
mod inputs;
mod json;
mod metrics;
mod peel;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use json::Json;
use metrics::{Values, END_TO_END, PER_LAYER};
use peel::{Checked, RECONCILE_TOLERANCE};
use stats::median;
use trace::Spans;
use workloads::{
    BatchSystem, Inputs, LoopStats, ScanInputs, ScanSystem, SetupTimes, Workload, SETUP_REPS,
};

/// Where runs keep their temporary store files and span logs, relative to
/// the working directory.
const OUT_DIR: &str = "perfbench-out";

/// Share of a traced run spent in the closed loop (the rest is the peel).
const TRACED_LOOP_SHARE: f64 = 0.35;

/// Requests per block when a traced closed loop alternates spans off/on:
/// one whole pass over the `align_ragged` batch cycle, so that both sides
/// see every batch equally often.
const SPAN_BLOCK: u64 = workloads::BATCHES as u64;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    let mut corrupt_reference = false;
    while let Some(flag) = args.next() {
        if flag == "--corrupt-reference" {
            corrupt_reference = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        corrupt_reference,
    })
}

fn main() {
    let code = match parse_args() {
        Ok(args) => match run(&args) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("perfbench: {e}");
                1
            }
        },
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <scan_store|scan_semi|align_ragged> --seed <n> \
                 --seconds <s> --trace <0|1> [--corrupt-reference]"
            );
            2
        }
    };
    std::process::exit(code);
}

/// What one run measured, beside its metric values.
struct Outcome {
    values: Values,
    attempted: u64,
    ok: u64,
    verify_failures: u64,
    context: Vec<(&'static str, Json)>,
}

fn run(args: &Args) -> Result<i32, String> {
    let started = host::CpuShare::start();
    let inputs = workloads::generate(args.workload, args.seed);
    let digest = inputs.digest();
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let tag = format!(
        "{}-seed{}-pid{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    );
    let store_path = |what: &str| out_dir.join(format!("{tag}-{what}.rlpk"));
    let mut spans = if args.trace {
        Spans::alternating(SPAN_BLOCK)
    } else {
        Spans::off()
    };

    let mut outcome = match &inputs {
        Inputs::Scan(si) => run_scan(args, si, &store_path, &mut spans)?,
        Inputs::Batch(bi) => run_batch(args, bi, &store_path, &mut spans)?,
    };

    let (cpu_s, wall_s) = started.finish();
    let nproc = host::nproc();
    outcome.values.set("peak_rss_mb", host::peak_rss_mb());
    let mut context = vec![
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("input_digest", Json::str(format!("{digest:016x}"))),
        ("nproc", Json::int(nproc)),
        (
            "rayon_num_threads",
            host::rayon_threads().map_or(Json::Null, Json::Str),
        ),
        ("cpu_model", Json::str(host::cpu_model())),
        ("in_flight", Json::int(args.workload.in_flight())),
        ("process_cpu_s", Json::Num(cpu_s)),
        ("process_wall_s", Json::Num(wall_s)),
        (
            "process_cpu_share",
            Json::Num(cpu_s / (wall_s * nproc as f64)),
        ),
    ];
    context.append(&mut outcome.context);
    if args.trace {
        let path = out_dir.join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        spans
            .write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        context.push(("spans_file", Json::str(path.display().to_string())));
    }
    let _ = std::fs::remove_dir(&out_dir); // only succeeds when empty

    let catalogue: &[metrics::MetricDef] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let correct = outcome.ok == outcome.attempted && outcome.verify_failures == 0;
    for &(name, unit, _) in catalogue {
        eprintln!(
            "{name:>40} = {:.6} {unit}",
            outcome.values.get(name).unwrap_or(f64::NAN)
        );
    }
    println!("{}", Json::obj([("context", Json::obj(context))]));
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::int(outcome.attempted)),
        ("failed", Json::int(outcome.attempted - outcome.ok)),
        ("metrics", outcome.values.to_json(catalogue)),
    ]);
    println!("{result}");
    if !correct {
        eprintln!(
            "perfbench: {} of {} results differ from the reference; {} store verify failures",
            outcome.attempted - outcome.ok,
            outcome.attempted,
            outcome.verify_failures
        );
    }
    Ok(if correct { 0 } else { 1 })
}

/// How long the closed loop runs: all of `--seconds` untraced, a share of
/// it traced.
fn loop_time(args: &Args) -> Duration {
    let share = if args.trace { TRACED_LOOP_SHARE } else { 1.0 };
    Duration::from_secs_f64(args.seconds * share)
}

/// Sets the workload up `SETUP_REPS` times anew, dropping each
/// system (its service stopped, its store file removed) before the next,
/// and keeps the last.
fn set_up<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
    times: impl Fn(&T) -> SetupTimes,
) -> Result<(T, Vec<SetupTimes>), String> {
    let mut last = None;
    let mut all = Vec::new();
    for rep in 0..SETUP_REPS {
        drop(last.take());
        let sys = setup(rep)?;
        all.push(times(&sys));
        last = Some(sys);
    }
    Ok((last.expect("SETUP_REPS > 0"), all))
}

fn set_setup(values: &mut Values, setups: &[SetupTimes]) {
    let col = |f: fn(&SetupTimes) -> f64| setups.iter().map(f).collect::<Vec<_>>();
    values.set("setup_s", median(&col(|t| t.total_s)));
    values.set("pack.s", median(&col(|t| t.pack_s)));
}

/// End-to-end metrics (untraced) or the trace-overhead comparison (traced)
/// from a closed loop.
fn finish_loop(
    args: &Args,
    stats: &LoopStats,
    mut values: Values,
    share: host::CpuShare,
) -> Outcome {
    let (cpu_s, wall_s) = share.finish();
    let mut context = vec![
        ("loop_cpu_s", Json::Num(cpu_s)),
        ("loop_wall_s", Json::Num(wall_s)),
        (
            "loop_cpu_share",
            Json::Num(cpu_s / (wall_s * host::nproc() as f64)),
        ),
    ];
    let all = stats.latencies(None);
    let summary = stats::summarize(&all, workloads::TAIL_CAP);
    let (p50, tail) = match &summary {
        Some(s) => (s.p50_ms, s.tail_ms),
        None => (median(&all), all.iter().copied().fold(0.0, f64::max)),
    };
    values.set("latency_p50_ms", p50);
    values.set("latency_tail_ms", tail);
    values.set("gcups", stats.cells as f64 / stats.wall_s.max(1e-9) / 1e9);
    values.set("ok_frac", stats.ok() as f64 / stats.attempted.max(1) as f64);
    context.push(("latency_samples", Json::int(all.len())));
    context.push((
        "latency_tail_percentile",
        summary
            .as_ref()
            .map_or(Json::Null, |s| Json::Num(s.tail_percentile)),
    ));
    context.push((
        "latency_tail_samples_beyond",
        summary
            .as_ref()
            .map_or(Json::Null, |s| Json::int(s.tail_beyond)),
    ));
    context.push(("tail_rule_met", Json::Bool(summary.is_some())));
    if args.trace {
        let off = median(&stats.latencies(Some(false)));
        let on = median(&stats.latencies(Some(true)));
        values.set("trace.overhead_pct", 100.0 * (on - off) / off);
        let submit: Vec<f64> = stats.requests.iter().filter_map(|r| r.submit_us).collect();
        let queue: Vec<f64> = stats
            .requests
            .iter()
            .filter_map(|r| r.queue_wait_ms)
            .collect();
        if !queue.is_empty() {
            values.set("service.queue_wait_ms", median(&queue));
            values.set("service.submit_us", median(&submit));
        }
    }
    Outcome {
        values,
        attempted: stats.attempted,
        ok: stats.ok(),
        verify_failures: 0,
        context,
    }
}

fn run_scan(
    args: &Args,
    si: &ScanInputs,
    store_path: &dyn Fn(&str) -> PathBuf,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let (sys, setups) = set_up(
        |rep| ScanSystem::setup(si, &store_path(&format!("serving{rep}"))),
        |s| s.times,
    )?;
    let mut reference = sys.reference();
    if args.corrupt_reference {
        if let Some(hit) = reference[0].first_mut() {
            hit.1 += 1;
        }
    }
    let mut values = Values::default();
    set_setup(&mut values, &setups);
    let probe = if args.trace {
        Some(peel::probe_store(
            &sys.db,
            &store_path("probe"),
            &mut values,
        )?)
    } else {
        None
    };
    let measure_start = Instant::now();
    let measure_end = measure_start + Duration::from_secs_f64(args.seconds);
    let share = host::CpuShare::start();
    let stats = workloads::scan_loop(
        &sys,
        &reference,
        args.workload.in_flight(),
        measure_start + loop_time(args),
        spans,
    );
    let mut o = finish_loop(args, &stats, values, share);
    if let Some(probe) = probe {
        let mut checked = Checked::default();
        spans.turn_on();
        peel::scan_peel(
            &sys,
            &reference,
            &probe.target,
            measure_end,
            spans,
            &mut o.values,
            &mut checked,
        );
        o.attempted += checked.attempted;
        o.ok += checked.ok;
        reconcile_context(&mut o);
    }
    if let Some(target) = &sys.store {
        o.verify_failures += target.store().verify_failures();
        o.context.push((
            "store_chunks_loaded",
            Json::int(target.store().chunks_loaded()),
        ));
    }
    o.verify_failures += o.values.get("store.verify_failures").unwrap_or(0.0) as u64;
    Ok(o)
}

fn run_batch(
    args: &Args,
    bi: &workloads::BatchInputs,
    store_path: &dyn Fn(&str) -> PathBuf,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let (mut sys, setups) = set_up(|_| Ok(BatchSystem::setup(bi)), |s| s.times)?;
    let mut reference = sys.reference();
    if args.corrupt_reference {
        let first = &mut reference[0][0];
        *first = Some(first.map_or(0, |s| s + 1));
    }
    let mut values = Values::default();
    set_setup(&mut values, &setups);
    // The scan layers are timed on a probe scan built from the first
    // batch: its first queries against all of its partners. Set up (with
    // its reference and store) before the measuring time starts.
    let probe = if args.trace {
        let queries: Vec<_> = bi.batches[0]
            .iter()
            .take(16)
            .map(|(q, _)| q.clone())
            .collect();
        let inputs = ScanInputs {
            cfg: bi.cfg,
            schedule: (0..queries.len()).collect(),
            warm: vec![0],
            queries,
            db: bi.batches[0].iter().map(|(_, p)| p.clone()).collect(),
            use_store: false,
        };
        let scan = ScanSystem::setup(&inputs, &store_path("probe-serving"))?;
        let scan_ref = scan.reference();
        let store = peel::probe_store(&scan.db, &store_path("probe"), &mut values)?;
        Some((scan, scan_ref, store))
    } else {
        None
    };
    let measure_start = Instant::now();
    let measure_end = measure_start + Duration::from_secs_f64(args.seconds);
    let share = host::CpuShare::start();
    let stats = workloads::batch_loop(&mut sys, &reference, measure_start + loop_time(args), spans);
    let mut o = finish_loop(args, &stats, values, share);
    if let Some((scan, scan_ref, store)) = probe {
        let mid = Instant::now() + measure_end.saturating_duration_since(Instant::now()) / 2;
        let mut checked = Checked::default();
        spans.turn_on();
        peel::scan_peel(
            &scan,
            &scan_ref,
            &store.target,
            mid,
            spans,
            &mut o.values,
            &mut checked,
        );
        peel::batch_peel(
            &mut sys,
            &reference,
            measure_end,
            spans,
            &mut o.values,
            &mut checked,
        );
        o.attempted += checked.attempted;
        o.ok += checked.ok;
        o.verify_failures += o.values.get("store.verify_failures").unwrap_or(0.0) as u64;
        reconcile_context(&mut o);
    }
    Ok(o)
}

/// Records the reconciliation residual against its tolerance.
fn reconcile_context(o: &mut Outcome) {
    let pct = o.values.get("reconcile.residual_pct").unwrap_or(f64::NAN);
    o.context.push((
        "reconcile_tolerance_pct",
        Json::Num(RECONCILE_TOLERANCE * 100.0),
    ));
    o.context.push((
        "reconciled",
        Json::Bool(pct.abs() <= RECONCILE_TOLERANCE * 100.0),
    ));
}
