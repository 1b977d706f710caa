//! Per-layer replay of one search request through each layer's public
//! function, inside spans.
//!
//! The traced run first makes the real `search()` call, then replays
//! the request layer by layer: keyword match, markers, enumeration,
//! connection metrics, instance closeness, render, explain and sort.
//! A replay does not share the engine's internal caches and scratch
//! pools, so its layer times are the public functions' costs, not
//! in-engine costs; `trace.replay_ratio` puts the two side by side.

use crate::trace::{SpanId, Tracer};
use cla_core::{
    banks_search_budgeted, enumerate_mtjnts_budgeted, explain_connection,
    instance_closeness_with_cache, sort_by_strategy, Algorithm, BanksOptions, BanksScratch,
    EngineSnapshot, InstanceCloseness, SearchOptions, SearchResults, WitnessCache,
};
use cla_graph::NodeId;
use cla_index::KeywordQuery;
use std::collections::HashSet;
use std::time::Instant;

/// Expansion cap of the BANKS and DISCOVER replays, a deterministic
/// safety bound: the replays only reach the length level the real
/// search reached, so they are normally far below it.
pub const REPLAY_EXPANSION_CAP: u64 = 200_000;

/// Per-request sums over the replayed requests. Counts are integers so
/// that means over whole passes repeat exactly.
#[derive(Debug, Default)]
pub struct LayerSums {
    pub requests: u64,
    pub matched_tuples: u64,
    pub expansions: u64,
    pub found: u64,
    pub returned: u64,
    pub early_terminated: u64,
    pub explain_bytes: u64,
    pub witness_lookups: u64,
    pub witness_hits: u64,
    /// The fan-out probe: Paths enumeration at the resolved default
    /// thread count, and at one thread.
    pub paths_default_ns: u64,
    pub paths_seq_ns: u64,
    /// Replay total and the real searches it replays.
    pub replay_ns: u64,
    pub search_ns: u64,
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Replay one completed request. `res` is the real search's answer and
/// `search_ns` its latency; `threads` is the thread count the engine's
/// default (`threads: 0`) resolves to.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    tr: &mut Tracer,
    sums: &mut LayerSums,
    snap: &EngineSnapshot,
    raw_query: &str,
    opts: &SearchOptions,
    res: &SearchResults,
    search_ns: u64,
    request: u64,
    threads: usize,
) {
    sums.requests += 1;
    sums.search_ns += search_ns;
    sums.expansions += res.stats.expansions;
    sums.early_terminated += u64::from(res.stats.early_terminated);
    sums.returned += (res.connections.len() + res.trees.len()) as u64;
    sums.explain_bytes += res
        .connections
        .iter()
        .map(|c| (c.rendering.len() + c.explanation.len()) as u64)
        .sum::<u64>();

    let started = Instant::now();
    let root = tr.begin("replay", None, request);
    let p = Some(root);
    let query = KeywordQuery::parse(raw_query);
    let matches = tr.leaf("index.match", p, request, || snap.keyword_matches(&query));
    sums.matched_tuples += matches.iter().map(|(_, t)| t.len() as u64).sum::<u64>();
    let markers = tr
        .leaf("snapshot.markers", p, request, || snap.markers(&query, &res.display_keywords));
    let dg = snap.data_graph();
    let match_sets: Vec<Vec<NodeId>> = matches
        .iter()
        .map(|(_, tuples)| tuples.iter().filter_map(|&t| dg.node_of(t)).collect())
        .collect();
    let max_len = res.stats.max_length_enumerated;
    sums.found += enumerate(tr, snap, opts, max_len, &match_sets, p, request, threads);

    tr.leaf("connection.metrics", p, request, || {
        for c in &res.connections {
            std::hint::black_box(snap.connection_info(
                &c.connection,
                &query,
                false,
                opts.max_witness_length,
            ));
        }
    });
    if opts.compute_instance {
        let id = tr.begin("instance.closeness", p, request);
        let mut cache = WitnessCache::with_strategy(opts.witness_strategy);
        for c in &res.connections {
            let before = cache.len();
            let verdict = instance_closeness_with_cache(
                &c.connection,
                dg,
                snap.er_schema(),
                snap.mapping(),
                opts.max_witness_length,
                &mut cache,
            );
            if verdict != InstanceCloseness::SchemaClose {
                sums.witness_lookups += 1;
                sums.witness_hits += u64::from(cache.len() == before);
            }
        }
        tr.end(id);
    }
    let aliases = snap.aliases();
    tr.leaf("explain.render", p, request, || {
        // One label cache per request, as the engine shares per search.
        let mut labels = vec![None; dg.node_count()];
        for c in &res.connections {
            std::hint::black_box(c.connection.render_cached(
                dg,
                aliases,
                &markers,
                &mut labels,
            ));
        }
    });
    tr.leaf("explain.explain", p, request, || {
        for c in &res.connections {
            std::hint::black_box(explain_connection(
                &c.connection,
                dg,
                snap.er_schema(),
                snap.mapping(),
                aliases,
                &markers,
            ));
        }
    });
    let mut ranked = res.connections.clone();
    tr.leaf("ranking.sort", p, request, || {
        sort_by_strategy(
            &mut ranked,
            opts.ranker,
            |r| &r.info,
            |a, b| a.connection.canonical_cmp(&b.connection),
        )
    });
    tr.end(root);
    sums.replay_ns += elapsed_ns(started);

    // The fan-out probe, outside the replay: the same enumeration at the
    // default thread count and on one thread.
    if opts.algorithm == Algorithm::Paths && match_sets.iter().all(|s| !s.is_empty()) {
        for (n, into) in [(threads, &mut sums.paths_default_ns), (1, &mut sums.paths_seq_ns)]
        {
            let t = Instant::now();
            std::hint::black_box(snap.pair_connections_threaded(
                &match_sets[0],
                &match_sets[1],
                max_len,
                n,
            ));
            *into += elapsed_ns(t);
        }
    }
}

/// The enumeration layer of the request's algorithm, up to the length
/// the real search enumerated (`SearchStats::max_length_enumerated`:
/// the full bound, or the last level a streaming top-k cut reached);
/// returns how many candidates it found.
#[allow(clippy::too_many_arguments)]
fn enumerate(
    tr: &mut Tracer,
    snap: &EngineSnapshot,
    opts: &SearchOptions,
    max_len: usize,
    match_sets: &[Vec<NodeId>],
    p: Option<SpanId>,
    request: u64,
    threads: usize,
) -> u64 {
    if match_sets.iter().any(Vec::is_empty) {
        return 0;
    }
    let dg = snap.data_graph();
    match opts.algorithm {
        Algorithm::Paths => {
            let (a, b) = (&match_sets[0], &match_sets[1]);
            let threads = if opts.threads == 0 { threads } else { opts.threads };
            let found = tr.leaf("enumerate.paths", p, request, || {
                snap.pair_connections_threaded(a, b, max_len, threads).len()
            });
            found as u64
        }
        Algorithm::Banks => tr.leaf("enumerate.banks", p, request, || {
            let banks = BanksOptions {
                k: opts.k,
                weighting: opts.weighting,
                max_weight: f64::INFINITY,
            };
            let (trees, _, _) = banks_search_budgeted(
                dg,
                match_sets,
                &banks,
                &mut BanksScratch::new(),
                &mut |n| n > REPLAY_EXPANSION_CAP,
            );
            trees.len() as u64
        }),
        Algorithm::Discover => tr.leaf("enumerate.discover", p, request, || {
            let sets: Vec<HashSet<NodeId>> =
                match_sets.iter().map(|s| s.iter().copied().collect()).collect();
            let (networks, _) =
                enumerate_mtjnts_budgeted(dg, &sets, max_len + 1, &mut 0, &mut |n| {
                    n > REPLAY_EXPANSION_CAP
                });
            networks.len() as u64
        }),
    }
}
