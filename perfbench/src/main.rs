//! The repository benchmark: one command per workload that checks its
//! answers and prints every end-to-end metric (untraced runs) or every
//! per-layer metric (traced runs). See README.md.
//!
//! Usage: `perfbench --workload <explore|topk|churn|cold_start>
//! --seed <n> --seconds <s> --trace <0|1>`
//
// lint: allow-file(unwrap, benchmark harness: a failed setup or a broken internal
// invariant must abort the run loudly rather than report numbers)

mod churn;
mod cold;
mod data;
mod oracle;
mod reads;
mod reference;
mod replay;
mod report;
mod served;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Checked command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const WORKLOADS: [&str; 4] = ["explore", "topk", "churn", "cold_start"];

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or(format!("missing {flag}"))
    };
    let workload = get("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"));
    }
    let num = |flag| get(flag)?.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
    let seconds = num("--seconds")?;
    if seconds == 0 || seconds > 600 {
        return Err("--seconds must be within 1..=600".to_owned());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args { workload, seed: num("--seed")?, seconds, trace })
}

/// The thread count the engine's default (`threads: 0`) resolves to.
pub fn resolved_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `setup` `reps` times; return the last result and the median
/// wall time in seconds.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("reps >= 1"), stats::Sample::new(times).median())
}

/// Where runs leave their image files and span traces.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).expect("creating .bench_out");
    dir
}

/// Write a traced run's spans as JSON lines.
pub fn write_trace(tr: &trace::Tracer, args: &Args) {
    let path = out_dir().join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    if let Err(e) = tr.write_jsonl(&path) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if std::env::var_os("CLA_SEARCH_THREADS").is_some() {
        eprintln!(
            "perfbench: CLA_SEARCH_THREADS is set; unset it so the benchmark measures the default thread resolution"
        );
        return ExitCode::from(2);
    }
    // Stamped before a workload can restrict the CPUs this process sees.
    let stamp = report::env_stamp();
    let result = match args.workload.as_str() {
        "explore" => reads::run(&reads::EXPLORE, &args),
        "topk" => reads::run(&reads::TOPK, &args),
        "churn" => churn::run(&args),
        _ => cold::run(&args),
    };
    for line in &result.notes {
        println!("{line}");
    }
    println!("{stamp}");
    let wanted = if args.trace { report::PER_LAYER } else { report::END_TO_END };
    // A failed correctness gate is reported as `"correct": false`.
    println!("{}", result.json(wanted));
    ExitCode::SUCCESS
}
