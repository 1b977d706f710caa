//! The correctness gate: answers as comparable bytes, checked against a
//! sequential, freshly built engine.

use crate::data::Mix;
use cla_core::{
    Algorithm, DataGraph, EngineSnapshot, SearchBudget, SearchOptions, SearchResults,
};
use cla_graph::NodeId;
use std::collections::hash_map::DefaultHasher;
use std::fmt::Write;
use std::hash::{Hash, Hasher};

/// Every observable part of an answer as one string: per connection its
/// tuple sequence, rendering, explanation and `ConnectionInfo`; then the
/// answer trees and the completeness label. Graph node and edge ids are
/// internal numbering and are mapped to tuple ids through `dg`. Two
/// answers are the same answer iff their digests are byte-equal.
pub fn digest(r: &SearchResults, dg: &DataGraph) -> String {
    let mut out = String::new();
    // Writing to a String cannot fail.
    for c in &r.connections {
        let _ = writeln!(
            out,
            "{:?}\t{}\t{}\t{:?}",
            c.connection.tuples(dg),
            c.rendering,
            c.explanation,
            c.info
        );
    }
    for t in &r.trees {
        let tuples = |ns: &[NodeId]| ns.iter().map(|&n| dg.tuple_of(n)).collect::<Vec<_>>();
        let edges: Vec<_> =
            t.edges.iter().map(|&(_, a, b)| (dg.tuple_of(a), dg.tuple_of(b))).collect();
        let _ = writeln!(
            out,
            "tree root={:?} nodes={:?} edges={edges:?} keywords={:?} weight={:?}",
            dg.tuple_of(t.root),
            tuples(&t.nodes),
            tuples(&t.keyword_nodes),
            t.weight
        );
    }
    let _ = writeln!(out, "completeness {:?}", r.stats.completeness);
    out
}

/// The oracle's options for a measured request: the same search, run
/// sequentially and without a latency limit.
fn oracle_options(measured: SearchOptions) -> SearchOptions {
    SearchOptions { threads: 1, budget: SearchBudget::UNLIMITED, ..measured }
}

/// A fixed-key hash of [`digest`], so a run keeps one word per answer.
pub fn digest_hash(r: &SearchResults, dg: &DataGraph) -> u64 {
    let mut h = DefaultHasher::new();
    digest(r, dg).hash(&mut h);
    h.finish()
}

/// Compare the first complete answer served for each distinct request
/// of `mix` (`served[d]`: its [`digest_hash`], `None` when it never
/// completed; served by `snap`) with the oracle snapshot's answer.
/// Returns the number of mismatches; the first is described on stderr.
pub fn mismatches(
    served: &[Option<u64>],
    snap: &EngineSnapshot,
    mix: &Mix,
    oracle: &EngineSnapshot,
    options: fn(Algorithm) -> SearchOptions,
) -> u64 {
    let mut bad = 0;
    for (d, &first) in mix.firsts.iter().enumerate() {
        let Some(got) = served[d] else { continue };
        let req = &mix.requests[first];
        let want = oracle.search(&req.query, &oracle_options(options(req.algorithm)));
        if matches!(&want, Ok(w) if digest_hash(w, oracle.data_graph()) == got) {
            continue;
        }
        if bad == 0 {
            // Search again to show where the answers part.
            let again = snap.search(&req.query, &options(req.algorithm));
            let diff = match (&want, &again) {
                (Ok(w), Ok(a)) => {
                    let (w, a) =
                        (digest(w, oracle.data_graph()), digest(a, snap.data_graph()));
                    w.lines().zip(a.lines()).find(|(x, y)| x != y).map_or(
                        "the served answer differs from this repeat of it".to_owned(),
                        |(x, y)| format!("\n  oracle: {x}\n  served: {y}"),
                    )
                }
                (Err(e), _) | (_, Err(e)) => format!("search failed: {e}"),
            };
            eprintln!(
                "perfbench: oracle mismatch on {:?} ({:?}): {diff}",
                req.query, req.algorithm
            );
        }
        bad += 1;
    }
    bad
}
