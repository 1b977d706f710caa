//! `cold_start`: open a saved dept1024 image, answer one query, drop
//! the engine; repeat. Never warmed: users pay this cost every time.
//
// lint: allow-file(unwrap, benchmark harness: a failed setup or a broken internal
// invariant must abort the run loudly rather than report numbers)

use crate::data::{self, Request, COLD_QUERY};
use crate::oracle::digest;
use crate::reference::Kind;
use crate::report::{pin_to_one_cpu, ratio, reset_rss_peak, rss_peak_mib, RunResult};
use crate::served::Served;
use crate::stats::{ms, us, Sample};
use crate::trace::Tracer;
use crate::{timed_setup, Args};
use cla_core::{SearchEngine, SearchOptions};
use cla_index::InvertedIndex;
use cla_relational::{Catalog, Database, RelationId, Value};
use cla_storage::SnapshotImage;
use std::path::Path;
use std::time::{Duration, Instant};

const DEPARTMENTS: usize = 1024;
/// Setups (build and save) per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Image section ids of the inverted index and the relational rows
/// (the engine's snapshot image layout).
const SECTION_DATABASE: u32 = 3;
const SECTION_INDEX: u32 = 4;

/// Cycles per pass: the readable `_p50` lines are medians over passes of
/// this many cycles.
const CYCLES_PER_PASS: u64 = 16;

/// Outcomes of the measured cycles: the first answers (latency from the
/// start of open) in `served`, plus what only a cold cycle has.
struct Cycles {
    served: Served,
    open_ms: Vec<f64>,
    search_us: Vec<f64>,
    mismatches: u64,
    materialized: u64,
}

impl Cycles {
    fn new() -> Self {
        Cycles {
            served: Served::new(1, Kind::Stream),
            open_ms: Vec::new(),
            search_us: Vec::new(),
            mismatches: 0,
            materialized: 0,
        }
    }
}

/// Everything a cycle checks its answer against.
struct Expect<'a> {
    path: &'a Path,
    request: Request,
    options: SearchOptions,
    answer: String,
    employee: RelationId,
    catalog: &'a Catalog,
}

/// A cycle, then the end of a pass every [`CYCLES_PER_PASS`] cycles. The
/// pass ends once the cycle's engine is gone: its reference loop
/// allocates as much as an image and must not add to the peak resident
/// set.
fn cycle_in_pass(ex: &Expect<'_>, out: &mut Cycles, tr: Option<&mut Tracer>, id: u64) {
    cycle(ex, out, tr, id);
    if out.served.attempted.is_multiple_of(CYCLES_PER_PASS) {
        out.served.end_pass();
    }
}

/// One open → first answer → drop cycle. When traced, also promote the
/// opened engine with a first write and replay the open's stages.
fn cycle(ex: &Expect<'_>, out: &mut Cycles, tr: Option<&mut Tracer>, id: u64) {
    let mut tr = tr;
    let root = tr.as_mut().map(|t| t.begin("cycle", None, id));
    let t0 = Instant::now();
    let opened = SearchEngine::open(ex.path);
    let t1 = Instant::now();
    let mut engine = match opened {
        Ok(e) => e,
        Err(e) => {
            out.served.fail("open", t1 - t0, &e);
            return;
        }
    };
    let answer = engine.search(COLD_QUERY, &ex.options);
    let t2 = Instant::now();
    if let (Some(t), Some(root)) = (tr.as_mut(), root) {
        t.push_closed("persist.open", Some(root), id, t0, t1);
        t.push_closed("persist.first_search", Some(root), id, t1, t2);
        t.end(root);
    }
    out.open_ms.push(ms(t1 - t0));
    out.search_us.push(us(t2 - t1));
    let dg = engine.data_graph();
    if let Some(a) = out.served.record(dg, &ex.request, &ex.options, t2 - t0, answer) {
        if digest(&a, dg) != ex.answer {
            eprintln!("perfbench: opened engine answered {COLD_QUERY:?} differently");
            out.mismatches += 1;
        }
    }
    out.materialized += u64::from(engine.db_materialized());
    let Some(t) = tr else { return };
    t.leaf("persist.promote", None, id, || {
        let row: Vec<Value> =
            vec!["promoted".into(), "Smith".into(), "Cold".into(), "d1".into()];
        let staged = engine.writer_mut().insert(ex.employee, row);
        if staged.is_err() || engine.apply().is_err() {
            eprintln!("perfbench: first write after open failed");
            out.served.errors += 1;
        }
    });
    drop(engine);
    let replay = t.begin("replay.open", None, id);
    let root = Some(replay);
    let bytes = t.leaf("storage.read", root, id, || std::fs::read(ex.path));
    let stages = bytes.ok().and_then(|b| {
        let image =
            t.leaf("storage.parse", root, id, || SnapshotImage::parse_deferred(b)).ok()?;
        let image = image.into_shared();
        t.leaf("storage.checksum", root, id, || image.verify_checksum()).ok()?;
        let index = image.section(SECTION_INDEX).ok()?;
        t.leaf("index.decode", root, id, || InvertedIndex::decode(index)).ok()?;
        let rows = image.section(SECTION_DATABASE).ok()?;
        t.leaf("relational.validate", root, id, || {
            Database::validate_flat(ex.catalog, rows.as_slice(), |_, _| Ok(()))
        })
        .ok()
    });
    if stages.is_none() {
        eprintln!("perfbench: open stage replay failed");
        out.served.errors += 1;
    }
    t.end(replay);
}

pub fn run(args: &Args) -> RunResult {
    // One CPU, so that open decodes inline: see `pin_to_one_cpu`.
    pin_to_one_cpu();
    let dir = crate::out_dir();
    let path = dir.join(format!("cold_start-{}.snap", args.seed));
    let mut save_ms = Vec::new();
    let (engine, setup_s) = timed_setup(SETUP_REPS, || {
        let engine = data::build(&data::synthetic(DEPARTMENTS));
        let t = Instant::now();
        engine.save(&path).expect("saving the image");
        save_ms.push(ms(t.elapsed()));
        engine
    });
    let options = data::cold_options();
    let built = engine.search(COLD_QUERY, &options).expect("the built engine answers");
    let answer = digest(&built, engine.data_graph());
    let catalog = engine.db().catalog().clone();
    let employee = catalog.relation_id("EMPLOYEE").expect("the company schema has EMPLOYEE");
    let tuples = engine.db().total_tuples();
    drop(engine);
    let image_bytes = std::fs::metadata(&path).expect("image written").len();
    let request =
        Request { query: COLD_QUERY.to_owned(), algorithm: options.algorithm, distinct: 0 };
    let ex = Expect { path: &path, request, options, answer, employee, catalog: &catalog };
    reset_rss_peak();

    let seconds = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut r = RunResult::default();
    let mut cycles = Cycles::new();
    if args.trace {
        let mut base = Cycles::new();
        while start.elapsed() < seconds / 3 {
            cycle_in_pass(&ex, &mut base, None, 0);
        }
        let mut tr = Tracer::new(Instant::now());
        let mut id = 0;
        while start.elapsed() < seconds {
            id += 1;
            cycle_in_pass(&ex, &mut cycles, Some(&mut tr), id);
        }
        r.set_span_means(tr.spans(), "_ms", 1e6);
        let spent = |name: &str| -> f64 {
            tr.spans()
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.end - s.start) as f64)
                .sum()
        };
        r.set("trace.replay_ratio", ratio(spent("replay.open"), spent("persist.open")));
        let p50 = |c: &Cycles| Sample::new(c.served.latencies_us.clone()).median();
        r.set("trace.overhead_ratio", ratio(p50(&cycles), p50(&base)));
        r.set("persist.save_ms", Sample::new(save_ms.clone()).median());
        r.set("storage.image_bytes", image_bytes as f64);
        r.set("storage.bytes_per_tuple", image_bytes as f64 / tuples as f64);
        r.set("relational.materialized", (cycles.materialized + base.materialized) as f64);
        crate::write_trace(&tr, args);
    } else {
        while start.elapsed() < seconds {
            cycle_in_pass(&ex, &mut cycles, None, 0);
        }
        let served = &cycles.served;
        let first = Sample::new(served.latencies_us.clone());
        let (p50, per_s) = served.centers();
        let n = Some(first.len());
        r.set("latency_p50_ref", served.ref_p50());
        served.note_reference(&mut r);
        r.note("open_p50_ms", served.over_passes(&cycles.open_ms).0, "ms", n);
        r.note("first_answer_p50_ms", p50 / 1e3, "ms", n);
        r.note_tail("first_answer_p95_ms", &first, 0.95, 1e-3, "ms");
        r.note_tail("first_answer_p99_ms", &first, 0.99, 1e-3, "ms");
        r.note("cycles_per_s", per_s, "1/s", n);
        r.note("search_p50_us", served.over_passes(&cycles.search_us).0, "us", n);
        r.note("relational.materialized", cycles.materialized as f64, "count", n);
    }
    let rss = rss_peak_mib();
    let _ = std::fs::remove_file(&path);
    cycles.served.notes(&mut r);
    r.mismatches = cycles.mismatches;
    let served = &cycles.served;
    r.account(served.attempted, served.failed() + cycles.mismatches, served.deadline);
    if cycles.materialized > 0 {
        eprintln!("perfbench: {} opens materialized the database", cycles.materialized);
        r.mismatches += 1;
    }
    r.set("setup_s", setup_s);
    r.note("setup_s", setup_s, "s", Some(SETUP_REPS));
    r.set("rss_peak_mib", rss);
    r.note("rss_peak_mib", rss, "MiB", None);
    r
}
