//! Workload inputs: seeded synthetic databases, the keyword pool and
//! the per-workload request mixes and search options.
//
// lint: allow-file(unwrap, benchmark harness: a failed setup or a broken internal
// invariant must abort the run loudly rather than report numbers)

use cla_core::{Algorithm, SearchBudget, SearchEngine, SearchOptions};
use cla_datagen::{generate_synthetic, SyntheticConfig, SyntheticDb};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::time::Duration;

/// The 16-word keyword pool: planted keywords, topic words and names,
/// in Zipf rank order (`smith` is the head).
pub const POOL: [&str; 16] = [
    "smith",
    "xml",
    "databases",
    "alice",
    "miller",
    "programming",
    "retrieval",
    "emma",
    "compilers",
    "johnson",
    "security",
    "theodore",
    "walker",
    "indexing",
    "linda",
    "logic",
];

/// Surnames the churn writer gives its rows (pool words that are
/// employee surnames in the generated data).
pub const SURNAMES: [&str; 4] = ["Smith", "Miller", "Johnson", "Walker"];

/// `topk`'s per-search latency limit.
pub const TOPK_DEADLINE: Duration = Duration::from_millis(50);

/// Generator seed of every dataset: the seed BENCH_B9 and the `coldprof`
/// probe use. Datasets are fixed; the workload seed drives the traffic.
pub const DATA_SEED: u64 = 7;

/// The company-shaped synthetic database at `departments` scale
/// (about 33 tuples per department).
pub fn synthetic(departments: usize) -> SyntheticDb {
    generate_synthetic(&SyntheticConfig {
        departments,
        employees_per_department: 8,
        projects_per_department: 3,
        works_on_per_employee: 2,
        dependent_probability: 0.3,
        xml_selectivity: 0.15,
        smith_selectivity: 0.1,
        alice_selectivity: 0.25,
        project_skew: 1.0,
        seed: DATA_SEED,
    })
}

/// A freshly built engine over a copy of `data`.
pub fn build(data: &SyntheticDb) -> SearchEngine {
    SearchEngine::new(data.db.clone(), data.er_schema.clone(), data.mapping.clone())
        .expect("the synthetic generator always produces a valid database")
        .with_aliases(data.aliases.clone())
}

/// One search request of a mix. `distinct` numbers the distinct
/// (query, algorithm) pairs of the mix, for the correctness gate.
#[derive(Debug, Clone)]
pub struct Request {
    pub query: String,
    pub algorithm: Algorithm,
    pub distinct: usize,
}

/// A request list that is replayed in whole passes.
#[derive(Debug, Clone)]
pub struct Mix {
    pub requests: Vec<Request>,
    /// Index of the first occurrence of each distinct request.
    pub firsts: Vec<usize>,
}

impl Mix {
    fn from_parts(parts: Vec<(String, Algorithm)>) -> Self {
        let mut ids: HashMap<(String, u8), usize> = HashMap::new();
        let mut firsts = Vec::new();
        let requests = parts
            .into_iter()
            .enumerate()
            .map(|(i, (query, algorithm))| {
                let next = ids.len();
                let distinct =
                    *ids.entry((query.clone(), algorithm as u8)).or_insert_with(|| {
                        firsts.push(i);
                        next
                    });
                Request { query, algorithm, distinct }
            })
            .collect();
        Mix { requests, firsts }
    }
}

fn mix_rng(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

/// Zipf(s = 1.0) probabilities of the [`POOL`] ranks.
fn zipf_weights() -> Vec<f64> {
    let raw: Vec<f64> = (1..=POOL.len()).map(|r| 1.0 / r as f64).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

/// Every ordered query of `k` distinct pool words with its probability
/// when the words are drawn Zipf(s = 1.0) one after another, redrawing
/// repeats.
fn query_probs(k: usize) -> Vec<(String, f64)> {
    fn extend(
        z: &[f64],
        k: usize,
        picked: &mut Vec<usize>,
        p: f64,
        out: &mut Vec<(String, f64)>,
    ) {
        if picked.len() == k {
            let words: Vec<&str> = picked.iter().map(|&i| POOL[i]).collect();
            out.push((words.join(" "), p));
            return;
        }
        let left: f64 = 1.0 - picked.iter().map(|&i| z[i]).sum::<f64>();
        for i in 0..z.len() {
            if !picked.contains(&i) {
                picked.push(i);
                extend(z, k, picked, p * z[i] / left, out);
                picked.pop();
            }
        }
    }
    let mut out = Vec::new();
    extend(&zipf_weights(), k, &mut Vec::new(), 1.0, &mut out);
    out
}

/// `n` items realizing the distribution `probs` in proportion:
/// `floor(n · p)` copies of each item, plus the remaining draws taken
/// without replacement with weight `n · p - floor(n · p)`. Only those
/// few remainder draws depend on `rng`, so the mix's composition, and
/// with it the latency distribution, varies little between seeds.
fn proportional(rng: &mut StdRng, probs: &[(String, f64)], n: usize) -> Vec<String> {
    let mut out = Vec::with_capacity(n);
    let mut rem: Vec<f64> = Vec::with_capacity(probs.len());
    for (item, p) in probs {
        let want = p * n as f64;
        let whole = want.floor() as usize;
        out.extend(std::iter::repeat_n(item.clone(), whole));
        rem.push(want - whole as f64);
    }
    while out.len() < n {
        let total: f64 = rem.iter().sum();
        let mut u = rng.random::<f64>() * total;
        let pick = rem.iter().position(|&r| {
            u -= r;
            u < 0.0
        });
        let i = pick
            .unwrap_or_else(|| rem.iter().rposition(|&r| r > 0.0).expect("remainders left"));
        rem[i] = 0.0;
        out.push(probs[i].0.clone());
    }
    out
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// `explore` (and `churn`'s reader): 2-keyword Paths queries with
/// Zipf-drawn keywords, in seeded order.
pub fn explore_mix(seed: u64, len: usize) -> Mix {
    let mut rng = mix_rng(seed, 0xE7);
    let mut queries = proportional(&mut rng, &query_probs(2), len);
    shuffle(&mut rng, &mut queries);
    Mix::from_parts(queries.into_iter().map(|q| (q, Algorithm::Paths)).collect())
}

/// `topk`'s request classes as (algorithm, keywords, share of the mix):
/// Paths 50%, Banks 30% and Discover 20%, where Banks and Discover
/// queries have 3 keywords with probability 0.4.
const TOPK_CLASSES: [(Algorithm, usize, f64); 5] = [
    (Algorithm::Paths, 2, 0.5),
    (Algorithm::Banks, 2, 0.18),
    (Algorithm::Banks, 3, 0.12),
    (Algorithm::Discover, 2, 0.12),
    (Algorithm::Discover, 3, 0.08),
];

/// `topk`: the classes of [`TOPK_CLASSES`] in exact proportion (so the
/// share of heavy shapes does not vary between seeds), each with
/// Zipf-drawn keywords, in seeded order.
pub fn topk_mix(seed: u64, len: usize) -> Mix {
    let mut rng = mix_rng(seed, 0x70);
    let (two, three) = (query_probs(2), query_probs(3));
    let mut parts: Vec<(String, Algorithm)> = Vec::with_capacity(len);
    for (algorithm, k, share) in TOPK_CLASSES {
        let probs = if k == 2 { &two } else { &three };
        let n = (share * len as f64).round() as usize;
        parts.extend(proportional(&mut rng, probs, n).into_iter().map(|q| (q, algorithm)));
    }
    shuffle(&mut rng, &mut parts);
    Mix::from_parts(parts)
}

/// Search threads of the read workloads. Each search runs on its caller's
/// thread: on a host of two shared vCPUs the default fan-out makes every
/// search wait for both, so its latency measures the host's scheduler
/// (see README.md). The trace still measures the fan-out
/// (`enumerate.fanout_ratio`).
pub const READ_THREADS: usize = 1;

/// `explore` and `churn`: the paper's result model, all defaults but the
/// thread count.
pub fn explore_options(_: Algorithm) -> SearchOptions {
    SearchOptions { threads: READ_THREADS, ..SearchOptions::default() }
}

/// `topk`: ten results under the workload's latency limit.
pub fn topk_options(algorithm: Algorithm) -> SearchOptions {
    SearchOptions {
        algorithm,
        k: Some(10),
        budget: SearchBudget::with_deadline(TOPK_DEADLINE),
        threads: READ_THREADS,
        ..SearchOptions::default()
    }
}

/// `cold_start`'s first query and options (the B13 shape).
pub const COLD_QUERY: &str = "xml smith";

pub fn cold_options() -> SearchOptions {
    SearchOptions {
        max_rdb_length: 3,
        compute_instance: false,
        threads: 1,
        k: Some(10),
        ..SearchOptions::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_are_seeded_and_numbered() {
        let a = topk_mix(3, 200);
        let b = topk_mix(3, 200);
        let c = topk_mix(4, 200);
        let qa: Vec<_> = a.requests.iter().map(|r| (&r.query, r.algorithm)).collect();
        let qb: Vec<_> = b.requests.iter().map(|r| (&r.query, r.algorithm)).collect();
        let qc: Vec<_> = c.requests.iter().map(|r| (&r.query, r.algorithm)).collect();
        assert_eq!(qa, qb);
        assert_ne!(qa, qc);
        for (d, &i) in a.firsts.iter().enumerate() {
            assert_eq!(a.requests[i].distinct, d);
        }
        let count = |alg, n| {
            a.requests
                .iter()
                .filter(|r| r.algorithm == alg && r.query.split(' ').count() == n)
                .count()
        };
        assert_eq!(count(Algorithm::Paths, 2), 100);
        assert_eq!(count(Algorithm::Banks, 2) + count(Algorithm::Banks, 3), 60);
        assert_eq!(count(Algorithm::Discover, 3), 16);
        assert_eq!(a.requests.len(), 200);
        // Probabilities of ordered distinct draws sum to one.
        for k in [2, 3] {
            let total: f64 = query_probs(k).iter().map(|(_, p)| p).sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
        // The head pair appears in its expected proportion for any seed.
        let head = |m: &Mix| m.requests.iter().filter(|r| r.query == "smith xml").count();
        let p = query_probs(2).iter().find(|(q, _)| q == "smith xml").expect("pair").1;
        let whole = (p * 1000.0).floor() as usize;
        for seed in 1..4 {
            assert!((whole..=whole + 1).contains(&head(&explore_mix(seed, 1000))));
        }
    }
}
