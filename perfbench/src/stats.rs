//! The benchmark's own arithmetic: percentiles with their sample-count
//! rule, failure ratios, and open-loop due-time accounting.

use std::time::Duration;

/// A tail percentile is reported as meaningful only when at least this
/// many samples lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// An ascending-sorted latency sample.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Sort `values` into a sample. NaNs never occur in timings; they
    /// would sort last.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Sample { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile: the smallest sample with at least
    /// `q · n` samples at or below it. `0.0` for an empty sample.
    pub fn percentile(&self, q: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        let rank = (q * n as f64).ceil() as usize;
        self.sorted[rank.clamp(1, n) - 1]
    }

    /// The median (nearest rank).
    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }

    /// Arithmetic mean; `0.0` for an empty sample.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }

    /// How many samples lie strictly beyond the rank of percentile `q`.
    pub fn beyond(&self, q: f64) -> usize {
        samples_beyond(self.sorted.len(), q)
    }
}

/// Samples beyond the nearest rank of percentile `q` in a sample of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// Whether percentile `q` of `n` samples satisfies the reporting rule
/// (at least [`MIN_BEYOND`] samples beyond it).
pub fn percentile_supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_BEYOND
}

/// Center of a measured phase that was served in whole passes: the
/// median over passes of each pass's median value and of its rate
/// (requests per second). Pass `i` covers `values[ends[i-1].0
/// .. ends[i].0]` and ends `ends[i].1` seconds into the phase (the first
/// starts at 0). Every pass has the same request composition, so a pass
/// weighs requests by count, not by the time they took; a host burst
/// that slows a minority of passes moves neither median. With no closed
/// pass, the whole phase counts as one.
pub fn pass_medians(values: &[f64], ends: &[(usize, f64)], elapsed_s: f64) -> (f64, f64) {
    let whole = [(values.len(), elapsed_s)];
    let ends = if ends.is_empty() { &whole[..] } else { ends };
    let (mut centers, mut rates) = (Vec::new(), Vec::new());
    let mut from = (0, 0.0);
    for &(to, at) in ends {
        let pass = &values[from.0..to];
        if !pass.is_empty() && at > from.1 {
            centers.push(Sample::new(pass.to_vec()).median());
            rates.push(pass.len() as f64 / (at - from.1));
        }
        from = (to, at);
    }
    (Sample::new(centers).median(), Sample::new(rates).median())
}

/// Median over closed passes of each pass's median value divided by the
/// reference time measured at that pass's end: `refs[i]` belongs to pass
/// `i`, which covers `values[ends[i-1].0 .. ends[i].0]`. A host that runs
/// everything slower in some passes slows the reference with them, so the
/// ratio does not move. `0.0` with no closed pass.
pub fn pass_ratio_median(values: &[f64], ends: &[(usize, f64)], refs: &[f64]) -> f64 {
    let mut from = 0;
    let ratios = ends
        .iter()
        .zip(refs)
        .filter_map(|(&(to, _), &reference)| {
            let pass = &values[from..to];
            from = to;
            let center = Sample::new(pass.to_vec()).median();
            (!pass.is_empty() && reference > 0.0).then_some(center / reference)
        })
        .collect();
    Sample::new(ratios).median()
}

/// Failures divided by attempts; `0.0` when nothing was attempted.
pub fn failed_ratio(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// A fixed-rate open-loop schedule: item `i` is due `i · period` after
/// the schedule starts, whether or not earlier items have finished.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub period: Duration,
}

impl Schedule {
    /// A schedule of `per_second` items per second.
    pub fn per_second(per_second: u32) -> Self {
        Schedule { period: Duration::from_secs(1) / per_second }
    }

    /// Offset of item `i`'s due time from the schedule start.
    pub fn due(&self, i: u32) -> Duration {
        self.period * i
    }
}

/// Latency of an open-loop item: from its due time to its completion,
/// so time spent waiting behind a stalled predecessor counts.
pub fn due_latency(due: Duration, done: Duration) -> Duration {
    done.saturating_sub(due)
}

/// How late the generator started an item (zero when on time).
pub fn lateness(due: Duration, started: Duration) -> Duration {
    started.saturating_sub(due)
}

/// Microseconds of a duration, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Milliseconds of a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Sample {
        // 1..=n shuffled by a fixed stride, so sorting is exercised.
        Sample::new((0..n).map(|i| ((i * 7919) % n + 1) as f64).collect())
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = sample(100);
        assert_eq!(s.percentile(0.5), 50.0);
        assert_eq!(s.percentile(0.99), 99.0);
        assert_eq!(s.percentile(1.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
        let s = sample(7);
        assert_eq!(s.median(), 4.0);
        assert_eq!(Sample::new(vec![]).percentile(0.5), 0.0);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(percentile_supported(1000, 0.99));
        assert!(!percentile_supported(999, 0.99));
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert!(percentile_supported(200, 0.95));
        assert!(!percentile_supported(199, 0.95));
        assert_eq!(samples_beyond(0, 0.99), 0);
        assert_eq!(sample(1000).beyond(0.99), 10);
    }

    #[test]
    fn pass_medians_ignore_a_slow_pass() {
        // Five 2-second passes of 100 requests at 1 ms, except one pass
        // where the host stalled and 100 requests took 10 s at 50 ms.
        let (mut lat, mut ends, mut t) = (Vec::new(), Vec::new(), 0.0);
        for p in 0..5 {
            let (l, secs) = if p == 2 { (50.0, 10.0) } else { (1.0, 2.0) };
            lat.extend(std::iter::repeat_n(l, 100));
            t += secs;
            ends.push((lat.len(), t));
        }
        assert_eq!(pass_medians(&lat, &ends, t), (1.0, 50.0));
        // Requests after the last closed pass are left out.
        lat.extend([99.0; 7]);
        assert_eq!(pass_medians(&lat, &ends, t + 1.0), (1.0, 50.0));
        // No closed pass: the whole phase is one.
        assert_eq!(pass_medians(&[3.0, 5.0, 4.0], &[], 0.5), (4.0, 6.0));
    }

    #[test]
    fn pass_ratios_cancel_host_speed() {
        // Three passes of four requests; in the second the host ran at
        // half speed, so both the requests and the reference took twice
        // as long. The third pass is the slowest by its own work.
        let lat = [2.0, 4.0, 4.0, 6.0, 4.0, 8.0, 8.0, 12.0, 6.0, 6.0, 6.0, 6.0];
        let ends = [(4, 1.0), (8, 3.0), (12, 4.0)];
        let refs = [2.0, 4.0, 2.0];
        // Pass ratios: 4/2, 8/4, 6/2 = 2, 2, 3.
        assert_eq!(pass_ratio_median(&lat, &ends, &refs), 2.0);
        // A slower host everywhere leaves the ratio as it was.
        let slow: Vec<f64> = lat.iter().map(|x| x * 1.5).collect();
        let slow_refs: Vec<f64> = refs.iter().map(|x| x * 1.5).collect();
        assert_eq!(pass_ratio_median(&slow, &ends, &slow_refs), 2.0);
        // No closed pass, or no reference for it, gives 0.
        assert_eq!(pass_ratio_median(&lat, &[], &[]), 0.0);
        assert_eq!(pass_ratio_median(&lat, &ends[..1], &[0.0]), 0.0);
    }

    #[test]
    fn failed_ratio_counts_against_attempts() {
        assert_eq!(failed_ratio(0, 0), 0.0);
        assert_eq!(failed_ratio(0, 10), 0.0);
        assert_eq!(failed_ratio(44, 600), 44.0 / 600.0);
        assert_eq!(failed_ratio(3, 3), 1.0);
    }

    #[test]
    fn open_loop_latency_runs_from_due_time() {
        let s = Schedule::per_second(100);
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(3), Duration::from_millis(30));
        // On time: started at due, finished 2 ms later.
        let due = s.due(5);
        assert_eq!(lateness(due, due), Duration::ZERO);
        assert_eq!(
            due_latency(due, due + Duration::from_millis(2)),
            Duration::from_millis(2)
        );
        // A stall: item 6 could only start 15 ms after it was due; its
        // latency includes the wait, not just its own 1 ms of work.
        let due = s.due(6);
        let started = due + Duration::from_millis(15);
        assert_eq!(lateness(due, started), Duration::from_millis(15));
        assert_eq!(
            due_latency(due, started + Duration::from_millis(1)),
            Duration::from_millis(16)
        );
        // Early starts are not negative lateness.
        assert_eq!(lateness(s.due(2), s.due(1)), Duration::ZERO);
    }
}
