//! `churn`: one closed-loop reader pinning the latest snapshot per
//! request while one writer publishes on a fixed open-loop schedule.
//
// lint: allow-file(unwrap, benchmark harness: a failed setup or a broken internal
// invariant must abort the run loudly rather than report numbers)

use crate::data::{self, Mix, SURNAMES};
use crate::oracle;
use crate::reads::{self, layer_metrics, SETUP_REPS, WARMUP_REQUESTS};
use crate::reference::Kind;
use crate::replay::{self, LayerSums};
use crate::report::{ratio, reset_rss_peak, rss_peak_mib, RunResult};
use crate::served::Served;
use crate::stats::{due_latency, lateness, ms, us, Sample, Schedule};
use crate::trace::Tracer;
use crate::{resolved_threads, timed_setup, Args};
use cla_core::{CompactionPolicy, SearchEngine, SnapshotHandle};
use cla_relational::{RelationId, TupleId, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const DEPARTMENTS: usize = 64;
/// Writer batches per second.
const RATE: u32 = 100;
/// EMPLOYEE rows inserted per batch.
const INSERTS: usize = 2;
/// Rows the writer keeps live; each batch deletes its oldest rows
/// beyond this, so the live size stays flat.
const HELD: usize = 50;

/// Writer-side outcomes.
#[derive(Default)]
struct WriterOut {
    due_latency_us: Vec<f64>,
    late_ms: Vec<f64>,
    failed: u64,
    compactions: u64,
    batches: u64,
}

fn writer(
    engine: &mut SearchEngine,
    employee: RelationId,
    batches: u32,
    seed: u64,
    published: &AtomicU64,
    tr: &mut Option<Tracer>,
) -> WriterOut {
    let mut out = WriterOut::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4);
    let mut held: VecDeque<TupleId> = VecDeque::new();
    let mut next_row = 0u64;
    let schedule = Schedule::per_second(RATE);
    let start = Instant::now();
    for i in 0..batches {
        let due = schedule.due(i);
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let started = start.elapsed();
        let root = tr.as_mut().map(|t| t.begin("batch", None, u64::from(i)));
        let span = |tr: &mut Option<Tracer>, name| {
            tr.as_mut().map(|t| t.begin(name, root, u64::from(i)))
        };
        let end = |tr: &mut Option<Tracer>, id: Option<usize>| {
            if let (Some(t), Some(id)) = (tr.as_mut(), id) {
                t.end(id);
            }
        };
        let stage = span(tr, "writer.stage");
        let w = engine.writer_mut();
        for _ in 0..INSERTS {
            next_row += 1;
            let row: Vec<Value> = vec![
                format!("churn{next_row}").as_str().into(),
                SURNAMES[rng.random_range(0..SURNAMES.len())].into(),
                "Churn".into(),
                format!("d{}", rng.random_range(1..=DEPARTMENTS)).as_str().into(),
            ];
            match w.insert(employee, row) {
                Ok(id) => held.push_back(id),
                Err(e) => {
                    eprintln!("perfbench: churn insert failed: {e}");
                    out.failed += 1;
                }
            }
        }
        while held.len() > HELD {
            let oldest = held.pop_front().expect("held is longer than HELD");
            if let Err(e) = w.delete(oldest) {
                eprintln!("perfbench: churn delete failed: {e}");
                out.failed += 1;
            }
        }
        end(tr, stage);
        let apply = span(tr, "writer.apply");
        match engine.apply() {
            Ok(outcome) => {
                if let Some(remap) = outcome.compaction {
                    out.compactions += 1;
                    held = held
                        .into_iter()
                        .map(|id| remap.map(id).expect("held rows are live"))
                        .collect();
                }
            }
            Err(e) => {
                eprintln!("perfbench: churn apply failed: {e}");
                out.failed += 1;
            }
        }
        end(tr, apply);
        end(tr, root);
        let done = start.elapsed();
        published.store(engine.generation(), Ordering::SeqCst);
        out.batches += 1;
        out.late_ms.push(ms(lateness(due, started)));
        out.due_latency_us.push(us(due_latency(due, done)));
    }
    out
}

/// Reader-side outcomes.
struct ReaderOut {
    served: Served,
    base_p50_us: f64,
    sums: LayerSums,
    lag: u64,
}

/// Search `mix` through the handle, pinning per request, until `stop`.
/// When traced, the first `untraced_for` is measured without spans as
/// the overhead baseline.
fn reader(
    handle: &SnapshotHandle,
    mix: &Mix,
    stop: &AtomicBool,
    published: &AtomicU64,
    tr: &mut Option<Tracer>,
    untraced_for: Duration,
) -> ReaderOut {
    let threads = resolved_threads();
    let mut base = Served::new(mix.firsts.len(), Kind::Hash);
    let mut served = Served::new(mix.firsts.len(), Kind::Hash);
    let mut sums = LayerSums::default();
    let mut lag = 0u64;
    let start = Instant::now();
    let mut request = 0u64;
    'run: loop {
        for req in &mix.requests {
            if stop.load(Ordering::SeqCst) {
                break 'run;
            }
            let opts = data::explore_options(req.algorithm);
            let traced = tr.is_some() && start.elapsed() >= untraced_for;
            let into = if tr.is_some() && !traced { &mut base } else { &mut served };
            let t = Instant::now();
            let snap = match tr.as_mut().filter(|_| traced) {
                Some(tr) => tr.leaf("snapshot.pin", None, request + 1, || handle.latest()),
                None => handle.latest(),
            };
            let out = snap.search(&req.query, &opts);
            let latency = t.elapsed();
            let done = into.record(snap.data_graph(), req, &opts, latency, out);
            if let (true, Some(res), Some(t)) = (traced, done, tr.as_mut()) {
                request += 1;
                lag += published.load(Ordering::SeqCst).saturating_sub(snap.generation());
                let ns = latency.as_nanos() as u64;
                replay::replay(
                    t, &mut sums, &snap, &req.query, &opts, &res, ns, request, threads,
                );
            }
        }
        served.end_pass();
    }
    if served.pass_ends.is_empty() {
        // A run too short for one whole pass measures its partial one.
        served.end_pass();
    }
    let base_p50_us = Sample::new(base.latencies_us.clone()).median();
    ReaderOut { served, base_p50_us, sums, lag }
}

pub fn run(args: &Args) -> RunResult {
    let (mut engine, setup_s) = timed_setup(SETUP_REPS, || {
        data::build(&data::synthetic(DEPARTMENTS))
            .with_compaction_policy(CompactionPolicy::TombstoneRatio(0.25))
    });
    let mix = data::explore_mix(args.seed, reads::EXPLORE.mix_len);
    let handle = engine.snapshots();
    let warm_snap = handle.latest();
    for req in mix.requests.iter().take(WARMUP_REQUESTS) {
        let _ = warm_snap.search(&req.query, &data::explore_options(req.algorithm));
    }
    drop(warm_snap);
    reset_rss_peak();
    let employee = engine
        .db()
        .catalog()
        .relation_id("EMPLOYEE")
        .expect("the company schema has EMPLOYEE");

    let batches = u32::try_from(args.seconds).expect("seconds fit u32") * RATE;
    let stop = AtomicBool::new(false);
    let published = AtomicU64::new(engine.generation());
    let epoch = Instant::now();
    let mut wtr = args.trace.then(|| Tracer::new(epoch));
    let mut rtr = args.trace.then(|| Tracer::new(epoch));
    let untraced_for = Duration::from_secs(args.seconds) / 3;
    let (w, rd) = std::thread::scope(|s| {
        let rd = s.spawn(|| reader(&handle, &mix, &stop, &published, &mut rtr, untraced_for));
        let w = writer(&mut engine, employee, batches, args.seed, &published, &mut wtr);
        stop.store(true, Ordering::SeqCst);
        (w, rd.join().expect("reader thread panicked"))
    });
    // Read before the oracle is built: the peak of the measured phase.
    let rss = rss_peak_mib();

    let mut r = RunResult::default();
    let served = &rd.served;
    let due = Sample::new(w.due_latency_us.clone());
    if let (Some(mut tr), Some(rtr)) = (wtr, rtr) {
        tr.absorb(rtr);
        layer_metrics(&mut r, &tr, &rd.sums);
        let lat = Sample::new(served.latencies_us.clone());
        r.set("trace.overhead_ratio", ratio(lat.median(), rd.base_p50_us));
        r.set("writer.late_ms", Sample::new(w.late_ms.clone()).mean());
        r.set("writer.apply_due_p50_us", due.median());
        r.set("writer.apply_due_p99_us", due.percentile(0.99));
        r.set("writer.generations", engine.generation() as f64);
        r.set("writer.compactions", w.compactions as f64);
        r.set("snapshot.generation_lag", ratio(rd.lag as f64, rd.sums.requests as f64));
        crate::write_trace(&tr, args);
    } else {
        let lat = Sample::new(served.latencies_us.clone());
        let n = Some(lat.len());
        let (p50, per_s) = served.centers();
        r.set("latency_p50_ref", served.ref_p50());
        served.note_reference(&mut r);
        r.note("search_p50_us", p50, "us", n);
        r.note_tail("search_p95_us", &lat, 0.95, 1.0, "us");
        r.note_tail("search_p99_us", &lat, 0.99, 1.0, "us");
        r.note("searches_per_s", per_s, "1/s", n);
        r.note("apply_p50_us", due.median(), "us", Some(due.len()));
        r.note_tail("apply_p99_us", &due, 0.99, 1.0, "us");
        r.note_tail("writer.late_ms p99", &Sample::new(w.late_ms.clone()), 0.99, 1.0, "ms");
    }
    served.notes(&mut r);
    r.notes.push(format!(
        "writer: batches={} failed_applies={} compactions={} generation={}",
        w.batches,
        w.failed,
        w.compactions,
        engine.generation()
    ));

    // The final generation must answer the mix as an engine rebuilt from
    // the writer's database does.
    let rebuilt = SearchEngine::new(
        engine.db().clone(),
        engine.er_schema().clone(),
        engine.mapping().clone(),
    )
    .expect("the writer's database is valid")
    .with_aliases(engine.aliases().clone());
    let snap = engine.snapshot();
    let finals: Vec<_> = mix
        .firsts
        .iter()
        .map(|&i| {
            let req = &mix.requests[i];
            let res = snap.search(&req.query, &data::explore_options(req.algorithm));
            res.ok().map(|r| oracle::digest_hash(&r, snap.data_graph()))
        })
        .collect();
    r.mismatches =
        oracle::mismatches(&finals, &snap, &mix, &rebuilt.snapshot(), data::explore_options);
    r.account(
        served.attempted + w.batches,
        served.failed() + w.failed + r.mismatches,
        served.deadline,
    );
    r.set("setup_s", setup_s);
    r.note("setup_s", setup_s, "s", Some(SETUP_REPS));
    r.set("rss_peak_mib", rss);
    r.note("rss_peak_mib", rss, "MiB", None);
    r
}
