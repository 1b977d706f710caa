//! Metric names, units, and the result lines the benchmark prints.

use crate::stats::{failed_ratio, percentile_supported, Sample};
use crate::trace::self_time_by_name;
use crate::trace::Span;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload from untraced runs.
/// "Request" is the workload's user-facing operation: one `search()`
/// (`explore`, `topk`, `churn`'s reader) or one open → first answer
/// (`cold_start`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_p50_ref", "ref"),
    ("complete_ratio", "ratio"),
    ("setup_s", "s"),
    ("rss_peak_mib", "MiB"),
];

/// Per-layer metrics, reported by traced runs. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("index.match_us", "us"),
    ("index.matched_tuples", "count"),
    ("snapshot.markers_us", "us"),
    ("enumerate.paths_us", "us"),
    ("enumerate.banks_us", "us"),
    ("enumerate.discover_us", "us"),
    ("enumerate.expansions", "count"),
    ("enumerate.found", "count"),
    ("enumerate.kept_ratio", "ratio"),
    ("enumerate.early_terminated_ratio", "ratio"),
    ("enumerate.fanout_ratio", "ratio"),
    ("connection.metrics_us", "us"),
    ("instance.closeness_us", "us"),
    ("instance.cache_hit_ratio", "ratio"),
    ("explain.render_us", "us"),
    ("explain.explain_us", "us"),
    ("explain.bytes", "bytes"),
    ("ranking.sort_us", "us"),
    ("budget.overshoot_ms", "ms"),
    ("writer.stage_us", "us"),
    ("writer.apply_us", "us"),
    ("writer.apply_due_p50_us", "us"),
    ("writer.apply_due_p99_us", "us"),
    ("writer.late_ms", "ms"),
    ("writer.generations", "count"),
    ("writer.compactions", "count"),
    ("snapshot.pin_us", "us"),
    ("snapshot.generation_lag", "count"),
    ("storage.read_ms", "ms"),
    ("storage.parse_ms", "ms"),
    ("storage.checksum_ms", "ms"),
    ("index.decode_ms", "ms"),
    ("relational.validate_ms", "ms"),
    ("persist.open_ms", "ms"),
    ("persist.first_search_ms", "ms"),
    ("persist.promote_ms", "ms"),
    ("persist.save_ms", "ms"),
    ("storage.image_bytes", "bytes"),
    ("storage.bytes_per_tuple", "bytes"),
    ("relational.materialized", "count"),
    ("trace.replay_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    pub mismatches: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Values by metric name ([`END_TO_END`] or [`PER_LAYER`] names).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Set the result line's counts, the `complete_ratio` metric (share
    /// of attempts that neither failed nor were truncated at a deadline)
    /// and the readable ratio lines.
    pub fn account(&mut self, attempted: u64, failed: u64, truncated: u64) {
        self.attempted = attempted;
        self.failed = failed;
        self.set("complete_ratio", 1.0 - failed_ratio(failed + truncated, attempted));
        let n = Some(attempted as usize);
        self.note("failed_ratio", failed_ratio(failed, attempted), "ratio", n);
        self.note("truncated_ratio", failed_ratio(truncated, attempted), "ratio", n);
    }

    /// A readable metric line, with its sample count where it has one.
    pub fn note(&mut self, name: &str, value: f64, unit: &str, samples: Option<usize>) {
        let n = samples.map_or(String::new(), |n| format!(" (n={n})"));
        self.notes.push(format!("metric {name} = {value:.4} {unit}{n}"));
    }

    /// A readable tail-percentile line: value, sample count, samples
    /// beyond it, and whether it meets the ten-samples-beyond rule.
    pub fn note_tail(&mut self, name: &str, sample: &Sample, q: f64, scale: f64, unit: &str) {
        let (n, beyond) = (sample.len(), sample.beyond(q));
        let rule = if percentile_supported(n, q) { "" } else { ", below the 10-beyond rule" };
        self.notes.push(format!(
            "metric {name} = {:.4} {unit} (n={n}, beyond={beyond}{rule})",
            sample.percentile(q) * scale
        ));
    }

    /// Per-span-name mean self times, stored under `<span name><suffix>`
    /// for every span name that has a [`PER_LAYER`] entry.
    pub fn set_span_means(&mut self, spans: &[Span], suffix: &str, scale_ns: f64) {
        for (name, (total, count)) in self_time_by_name(spans) {
            let key = format!("{name}{suffix}");
            if let Some(&(metric, _)) = PER_LAYER.iter().find(|(m, _)| *m == key) {
                self.set(metric, total as f64 / count as f64 / scale_ns);
            }
        }
    }

    /// The result line: `metrics` holds exactly the names of `wanted`.
    /// A name this run did not measure is reported as 0.
    pub fn json(&self, wanted: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = wanted
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.mismatches == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Nonzero ratio helper: `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Return freed heap to the OS and reset this process's peak resident
/// set to its current one, so that [`rss_peak_mib`] reports the peak of
/// what runs after, not the set-up's garbage that the allocator kept.
/// Where the kernel refuses, the peak stays that of the whole process.
pub fn reset_rss_peak() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes no pointers and only
        // releases free memory; it is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("perfbench: resetting the peak resident set: {e}");
    }
}

/// Restrict this process to one CPU, the highest-numbered one it may run
/// on; threads it starts later inherit that. `SearchEngine::open`
/// decodes its sections on scoped threads when it sees more than one
/// CPU, and on shared vCPUs its time then depends on whether another vCPU
/// is free. Where the kernel refuses, the process keeps its CPUs.
pub fn pin_to_one_cpu() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        let mut mask = [0u64; 16];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: the kernel writes at most `size` bytes, the length of
        // `mask`; pid 0 is the calling thread.
        let got = unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) };
        let last = (0..64 * mask.len()).rev().find(|&c| mask[c / 64] >> (c % 64) & 1 == 1);
        let Some(cpu) = last.filter(|_| got == 0) else {
            eprintln!("perfbench: reading the CPU affinity failed");
            return;
        };
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: the kernel reads at most `size` bytes, the length of
        // `one`; pid 0 is the calling thread.
        if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
            eprintln!("perfbench: pinning to CPU {cpu} failed");
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The environment stamp printed with every result.
pub fn env_stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    // Stop git's repository search at the working directory, so a
    // checkout that is not a repository reports "unknown" rather than
    // the commit of a repository around it.
    let here = std::env::current_dir().ok();
    let ceiling = here.as_deref().and_then(std::path::Path::parent);
    let commit = command_line(
        std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling.unwrap_or("/".as_ref())),
    );
    let rustc = command_line(std::process::Command::new("rustc").arg("-V"));
    format!(
        "env {{\"nproc\": {nproc}, \"commit\": \"{commit}\", \"rustc\": \"{rustc}\", \"profile\": \"{profile}\"}}"
    )
}

/// The trimmed standard output of a successful command, else "unknown".
fn command_line(cmd: &mut std::process::Command) -> String {
    cmd.stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_owned(), |s| s.trim().to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_every_wanted_metric_once() {
        let mut r = RunResult { attempted: 3, failed: 1, ..Default::default() };
        r.set("setup_s", 0.25);
        r.set("latency_p50_ref", f64::NAN);
        let line =
            r.json(&[("setup_s", "s"), ("latency_p50_ref", "ref"), ("rss_peak_mib", "MiB")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"latency_p50_ref\": {\"value\": 0, \"unit\": \"ref\"}, \
             \"rss_peak_mib\": {\"value\": 0, \"unit\": \"MiB\"}}}"
        );
        r.mismatches = 1;
        assert!(r.json(&[]).starts_with("{\"correct\": false"));
        // Deadline truncations are incomplete answers, not failures.
        r.account(200, 2, 18);
        assert_eq!((r.attempted, r.failed), (200, 2));
        assert_eq!(r.metrics["complete_ratio"], 0.9);
        assert!(r.json(&[]).contains("\"attempted\": 200, \"failed\": 2"));
    }
}
