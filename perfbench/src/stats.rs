//! The benchmark's helper arithmetic: percentiles, the tail percentile,
//! throughput over a timed window, open-loop lateness, and the seeded
//! generator every workload draws its inputs from.

use std::time::Duration;

/// Samples that must lie beyond the tail percentile for it to count.
pub const TAIL_BEYOND: usize = 10;

/// Percentile of an ascending slice: the sample at rank `floor(q n) + 1`,
/// the smallest with more than `q` of the samples at or below it. For an
/// even count the median is the upper of the two middle samples: noise on
/// a shared host only adds time, so where a workload's ops split into a
/// fast and a slow half the minimum of the slow half is the steadier one.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((sorted.len() as f64 * q).floor() as usize + 1).min(sorted.len());
    Some(sorted[rank - 1])
}

/// The tail of a sample set: the highest percentile that still has
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in percent.
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples in the set.
    pub samples: usize,
}

/// The highest nearest-rank percentile of an ascending slice with at least
/// [`TAIL_BEYOND`] samples beyond it: rank `n - 10`, percentile
/// `100 (n - 10) / n`. `None` with 10 samples or fewer.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    let rank = n.checked_sub(TAIL_BEYOND).filter(|&r| r >= 1)?;
    Some(Tail { pct: 100.0 * rank as f64 / n as f64, value: sorted[rank - 1], samples: n })
}

/// Sort a sample set ascending (samples are finite or `+inf`).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Median of unsorted values (the upper median for an even count).
pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs.to_vec()), 0.5).unwrap_or(0.0)
}

/// Operations per second over a timed window. The window is the sum of the
/// intervals the clock ran, so pauses for checks between ops do not count.
pub fn throughput(ops: u64, window: Duration) -> f64 {
    let s = window.as_secs_f64();
    if s > 0.0 {
        ops as f64 / s
    } else {
        0.0
    }
}

/// How late the generator sent one request: actual send minus scheduled
/// send, zero when it was on time or early.
pub fn lateness(scheduled: Duration, sent: Duration) -> Duration {
    sent.saturating_sub(scheduled)
}

/// Open-loop latency of one request: completion minus its *scheduled*
/// send, so a generator stall counts against every request it delayed.
pub fn open_loop_latency(scheduled: Duration, done: Duration) -> Duration {
    done.saturating_sub(scheduled)
}

/// Requests sent but not yet complete at instant `at` (offsets from a
/// common origin): the backlog an open loop has built up by then.
pub fn backlog_at(sent_done: &[(Duration, Duration)], at: Duration) -> usize {
    sent_done.iter().filter(|&&(sent, done)| sent <= at && done > at).count()
}

/// Seeded splitmix64: every input a workload makes comes from one of these.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, separated per use by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Cumulative weights of a Zipf(`s`) law over `n` ranks, for [`zipf_draw`].
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|k| {
            acc += 1.0 / (k as f64).powf(s);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// A rank drawn from a [`zipf_cdf`] table.
pub fn zipf_draw(cdf: &[f64], rng: &mut Rng) -> usize {
    let u = rng.unit();
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).expect("100 samples have a tail");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.pct, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);

        let xs: Vec<f64> = (1..=32).map(f64::from).collect();
        let t = tail(&xs).expect("32 samples have a tail");
        assert_eq!((t.value, t.pct, t.samples), (22.0, 68.75, 32));

        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.value), Some(1.0));
        assert_eq!(tail(&xs[..10]), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_counts_refused_requests_as_beyond_any_limit() {
        let mut xs: Vec<f64> = vec![1.0; 90];
        xs.extend([f64::INFINITY; 10]);
        let t = tail(&sorted(xs.clone())).expect("tail");
        assert_eq!(t.value, 1.0, "exactly ten refusals sit beyond the tail");
        xs.push(f64::INFINITY);
        assert!(tail(&sorted(xs)).expect("tail").value.is_infinite());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.5), Some(3.0));
        assert_eq!(percentile(&xs, 0.74), Some(3.0));
        assert_eq!(percentile(&xs, 1.0), Some(4.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 3.0);
    }

    #[test]
    fn throughput_counts_only_the_timed_window() {
        // Three ops of 100 ms each, separated by untimed checks: the
        // window is 300 ms however long the checks took.
        let window: Duration = [ms(100), ms(100), ms(100)].iter().sum();
        assert!((throughput(3, window) - 10.0).abs() < 1e-9);
        assert_eq!(throughput(5, Duration::ZERO), 0.0);
    }

    #[test]
    fn lateness_and_open_loop_latency_start_at_the_scheduled_send() {
        assert_eq!(lateness(ms(10), ms(13)), ms(3));
        assert_eq!(lateness(ms(10), ms(9)), Duration::ZERO);
        // A request due at 10 ms, sent 5 ms late, done at 40 ms: its
        // latency includes the 5 ms the generator stalled.
        assert_eq!(open_loop_latency(ms(10), ms(40)), ms(30));
        let reqs = [(ms(0), ms(5)), (ms(2), ms(30)), (ms(4), ms(6)), (ms(20), ms(25))];
        assert_eq!(backlog_at(&reqs, ms(10)), 1);
        assert_eq!(backlog_at(&reqs, ms(22)), 2);
        assert_eq!(backlog_at(&reqs, ms(40)), 0);
    }

    #[test]
    fn rng_and_zipf_are_deterministic_and_skewed() {
        let (mut a, mut b) = (Rng::new(7, 1), Rng::new(7, 1));
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(Rng::new(7, 2).next_u64(), xs[0], "streams must differ");
        let cdf = zipf_cdf(100, 1.0);
        assert!((cdf[99] - 1.0).abs() < 1e-12);
        let mut r = Rng::new(3, 0);
        let draws: Vec<usize> = (0..10_000).map(|_| zipf_draw(&cdf, &mut r)).collect();
        let top = draws.iter().filter(|&&k| k == 0).count();
        let last = draws.iter().filter(|&&k| k == 99).count();
        assert!(top > 10 * last.max(1), "rank 0 must dominate rank 99: {top} vs {last}");
        assert!(draws.iter().all(|&k| k < 100));
    }
}
