//! Per-request accounting shared by every workload: latencies in whole
//! passes, failures and truncations by kind, and each distinct request's
//! first answer.

use crate::data::Request;
use crate::oracle;
use crate::reference;
use crate::report::RunResult;
use crate::stats::{ms, pass_medians, pass_ratio_median, Sample};
use cla_core::{
    Completeness, CoreError, DataGraph, SearchOptions, SearchResults, TruncationReason,
};
use std::time::{Duration, Instant};

/// Outcomes of the requests one loop served.
pub struct Served {
    start: Instant,
    pub latencies_us: Vec<f64>,
    /// Request count and seconds since `start` at the end of each pass.
    pub pass_ends: Vec<(usize, f64)>,
    /// The median reference time (us) of each pass, and the samples of
    /// the pass in progress.
    pub pass_refs: Vec<f64>,
    refs: Vec<f64>,
    reference: reference::Loop,
    last_ref: Instant,
    /// Seconds since `start` at the last request's completion.
    last_done_s: f64,
    pub attempted: u64,
    pub errors: u64,
    /// Answers truncated at the deadline. A deadline is the workload's
    /// latency limit, and a truncated answer is what the engine is meant
    /// to return when a search reaches it, so these are not failures.
    pub deadline: u64,
    pub cap: u64,
    pub fault: u64,
    /// Latency minus deadline of each deadline-truncated search.
    pub overshoot_ms: Vec<f64>,
    /// The digest hash of each distinct request's first complete answer.
    pub answers: Vec<Option<u64>>,
}

impl Served {
    /// An empty account whose clock starts now, for `distinct` distinct
    /// requests, timing reference loops of `kind` between requests.
    pub fn new(distinct: usize, kind: reference::Kind) -> Self {
        Served {
            start: Instant::now(),
            latencies_us: Vec::new(),
            pass_ends: Vec::new(),
            pass_refs: Vec::new(),
            refs: Vec::new(),
            reference: reference::Loop::new(kind),
            last_ref: Instant::now(),
            last_done_s: 0.0,
            attempted: 0,
            errors: 0,
            deadline: 0,
            cap: 0,
            fault: 0,
            overshoot_ms: Vec::new(),
            answers: vec![None; distinct],
        }
    }

    /// Mark the end of a whole pass; a pass that has no reference sample
    /// yet takes one now.
    pub fn end_pass(&mut self) {
        self.pass_ends.push((self.latencies_us.len(), self.start.elapsed().as_secs_f64()));
        if self.refs.is_empty() {
            self.sample_reference();
        }
        self.pass_refs.push(Sample::new(std::mem::take(&mut self.refs)).median());
    }

    /// Time one reference iteration; the phase's clock leaves it out.
    fn sample_reference(&mut self) {
        let t = Instant::now();
        let sample = self.reference.time_us();
        self.refs.push(sample);
        self.last_ref = Instant::now();
        self.start += self.last_ref - t;
    }

    /// Median request latency in reference units; see
    /// [`pass_ratio_median`].
    pub fn ref_p50(&self) -> f64 {
        pass_ratio_median(&self.latencies_us, &self.pass_ends, &self.pass_refs)
    }

    /// Median reference time over the phase, in microseconds.
    pub fn reference_us(&self) -> f64 {
        Sample::new(self.pass_refs.clone()).median()
    }

    /// Readable lines of the latency in reference units and of the
    /// reference time, with the pass count.
    pub fn note_reference(&self, r: &mut RunResult) {
        let passes = Some(self.pass_refs.len());
        r.note("latency_p50_ref", self.ref_p50(), "ref", passes);
        r.note("reference_us", self.reference_us(), "us", passes);
    }

    /// Pass medians of `values` (one per request) and of the request
    /// rate; see [`pass_medians`].
    pub fn over_passes(&self, values: &[f64]) -> (f64, f64) {
        pass_medians(values, &self.pass_ends, self.last_done_s)
    }

    /// Pass medians of latency (us) and of requests per second.
    pub fn centers(&self) -> (f64, f64) {
        self.over_passes(&self.latencies_us)
    }

    /// Attempts that failed: errors and truncations other than by the
    /// deadline (no workload sets an expansion cap, and a worker fault
    /// is a defect).
    pub fn failed(&self) -> u64 {
        self.errors + self.cap + self.fault
    }

    /// Account one attempt that failed with an error.
    pub fn fail(&mut self, what: &str, latency: Duration, e: &CoreError) {
        eprintln!("perfbench: {what} failed: {e}");
        self.push(latency);
        self.errors += 1;
    }

    fn push(&mut self, latency: Duration) {
        self.attempted += 1;
        self.latencies_us.push(latency.as_secs_f64() * 1e6);
        self.last_done_s = self.start.elapsed().as_secs_f64();
        if self.last_ref.elapsed() >= self.reference.kind().every() {
            self.sample_reference();
        }
    }

    /// Account one request; returns the answer when it completed.
    pub fn record(
        &mut self,
        dg: &DataGraph,
        req: &Request,
        opts: &SearchOptions,
        latency: Duration,
        out: Result<SearchResults, CoreError>,
    ) -> Option<SearchResults> {
        let res = match out {
            Ok(res) => res,
            Err(e) => {
                self.fail(&format!("{:?}", req.query), latency, &e);
                return None;
            }
        };
        self.push(latency);
        match res.stats.completeness {
            Completeness::Complete => {
                let slot = &mut self.answers[req.distinct];
                if slot.is_none() {
                    *slot = Some(oracle::digest_hash(&res, dg));
                }
                Some(res)
            }
            Completeness::Truncated { reason } => {
                match reason {
                    TruncationReason::Deadline => {
                        self.deadline += 1;
                        if let Some(d) = opts.budget.deadline {
                            self.overshoot_ms.push(ms(latency.saturating_sub(d)));
                        }
                    }
                    TruncationReason::ExpansionCap => self.cap += 1,
                    TruncationReason::WorkerFault => self.fault += 1,
                }
                None
            }
        }
    }

    /// The median deadline overshoot in ms (0 without truncations).
    pub fn overshoot_p50_ms(&self) -> f64 {
        Sample::new(self.overshoot_ms.clone()).median()
    }

    /// Readable failure accounting.
    pub fn notes(&self, r: &mut RunResult) {
        r.notes.push(format!(
            "failures: attempted={} errors={} truncated_deadline={} truncated_expansion_cap={} truncated_worker_fault={}",
            self.attempted, self.errors, self.deadline, self.cap, self.fault
        ));
    }
}
