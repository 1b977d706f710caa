//! `explore` and `topk`: one closed-loop client replaying a seeded
//! request mix in whole passes against a built engine.

use crate::data::{self, Mix};
use crate::oracle;
use crate::reference::Kind;
use crate::replay::{self, LayerSums};
use crate::report::{ratio, reset_rss_peak, rss_peak_mib, RunResult};
use crate::served::Served;
use crate::stats::Sample;
use crate::trace::Tracer;
use crate::{resolved_threads, timed_setup, Args};
use cla_core::{Algorithm, EngineSnapshot, SearchOptions};
use std::time::{Duration, Instant};

/// A read-only workload's shape.
pub struct ReadWorkload {
    pub departments: usize,
    pub mix: fn(u64, usize) -> Mix,
    pub mix_len: usize,
    pub options: fn(Algorithm) -> SearchOptions,
}

pub const EXPLORE: ReadWorkload = ReadWorkload {
    departments: 64,
    mix: data::explore_mix,
    mix_len: 1000,
    options: data::explore_options,
};

pub const TOPK: ReadWorkload = ReadWorkload {
    departments: 128,
    mix: data::topk_mix,
    mix_len: 600,
    options: data::topk_options,
};

/// Setups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 31;

/// Requests run untimed before measuring (scratch pools, first touch).
pub const WARMUP_REQUESTS: usize = 64;

/// Replay `mix` in whole passes until `until` has passed (at least one
/// pass). With a tracer, every completed request is also replayed layer
/// by layer.
fn passes(
    snap: &EngineSnapshot,
    mix: &Mix,
    options: fn(Algorithm) -> SearchOptions,
    until: Instant,
    served: &mut Served,
    mut traced: Option<(&mut Tracer, &mut LayerSums)>,
) {
    let threads = resolved_threads();
    let mut request = 0u64;
    loop {
        for req in &mix.requests {
            let opts = options(req.algorithm);
            let t = Instant::now();
            let out = snap.search(&req.query, &opts);
            let latency = t.elapsed();
            let done = served.record(snap.data_graph(), req, &opts, latency, out);
            if let (Some(res), Some((tr, sums))) = (done, traced.as_mut()) {
                request += 1;
                let ns = latency.as_nanos() as u64;
                replay::replay(tr, sums, snap, &req.query, &opts, &res, ns, request, threads);
            }
        }
        served.end_pass();
        if Instant::now() >= until {
            return;
        }
    }
}

pub fn run(w: &ReadWorkload, args: &Args) -> RunResult {
    let (engine, setup_s) =
        timed_setup(SETUP_REPS, || data::build(&data::synthetic(w.departments)));
    let mix = (w.mix)(args.seed, w.mix_len);
    let snap = engine.snapshot();
    let mut warm = Served::new(mix.firsts.len(), Kind::Hash);
    for req in mix.requests.iter().take(WARMUP_REQUESTS) {
        let opts = (w.options)(req.algorithm);
        let t = Instant::now();
        let out = snap.search(&req.query, &opts);
        warm.record(snap.data_graph(), req, &opts, t.elapsed(), out);
    }
    reset_rss_peak();

    let mut r = RunResult::default();
    let seconds = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let served = if args.trace {
        // One untraced pass as the overhead baseline, then traced passes.
        let mut base = Served::new(mix.firsts.len(), Kind::Hash);
        passes(&snap, &mix, w.options, start, &mut base, None);
        let mut served = Served::new(mix.firsts.len(), Kind::Hash);
        let mut tr = Tracer::new(Instant::now());
        let mut sums = LayerSums::default();
        passes(
            &snap,
            &mix,
            w.options,
            start + seconds,
            &mut served,
            Some((&mut tr, &mut sums)),
        );
        let traced_p50 = Sample::new(served.latencies_us.clone()).median();
        let base_p50 = Sample::new(base.latencies_us.clone()).median();
        layer_metrics(&mut r, &tr, &sums);
        r.set("trace.overhead_ratio", ratio(traced_p50, base_p50));
        r.set("budget.overshoot_ms", served.overshoot_p50_ms());
        crate::write_trace(&tr, args);
        served
    } else {
        let mut served = Served::new(mix.firsts.len(), Kind::Hash);
        passes(&snap, &mix, w.options, start + seconds, &mut served, None);
        let lat = Sample::new(served.latencies_us.clone());
        let n = Some(lat.len());
        let (p50, per_s) = served.centers();
        r.set("latency_p50_ref", served.ref_p50());
        served.note_reference(&mut r);
        r.note("search_p50_us", p50, "us", n);
        r.note_tail("search_p95_us", &lat, 0.95, 1.0, "us");
        r.note_tail("search_p99_us", &lat, 0.99, 1.0, "us");
        r.note("searches_per_s", per_s, "1/s", n);
        if !served.overshoot_ms.is_empty() {
            let n = Some(served.overshoot_ms.len());
            r.note("budget.overshoot_ms", served.overshoot_p50_ms(), "ms", n);
        }
        served
    };
    // Read before the oracle is built: the peak of the measured phase.
    let rss = rss_peak_mib();
    served.notes(&mut r);

    let oracle = data::build(&data::synthetic(w.departments));
    r.mismatches =
        oracle::mismatches(&served.answers, &snap, &mix, &oracle.snapshot(), w.options);
    r.account(served.attempted, served.failed() + r.mismatches, served.deadline);
    r.set("setup_s", setup_s);
    r.note("setup_s", setup_s, "s", Some(SETUP_REPS));
    r.set("rss_peak_mib", rss);
    r.note("rss_peak_mib", rss, "MiB", None);
    r
}

/// Reduce a traced read loop's spans and sums to per-layer metrics.
pub fn layer_metrics(r: &mut RunResult, tr: &Tracer, s: &LayerSums) {
    r.set_span_means(tr.spans(), "_us", 1e3);
    let per_req = |x: u64| ratio(x as f64, s.requests as f64);
    r.set("index.matched_tuples", per_req(s.matched_tuples));
    r.set("enumerate.expansions", per_req(s.expansions));
    r.set("enumerate.found", per_req(s.found));
    r.set("enumerate.kept_ratio", ratio(s.returned as f64, s.found as f64));
    r.set("enumerate.early_terminated_ratio", per_req(s.early_terminated));
    r.set("enumerate.fanout_ratio", ratio(s.paths_default_ns as f64, s.paths_seq_ns as f64));
    r.set("instance.cache_hit_ratio", ratio(s.witness_hits as f64, s.witness_lookups as f64));
    r.set("explain.bytes", per_req(s.explain_bytes));
    r.set("trace.replay_ratio", ratio(s.replay_ns as f64, s.search_ns as f64));
}
