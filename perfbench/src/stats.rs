//! The benchmark's own arithmetic: seeded draws, nearest-rank percentiles,
//! the tail-percentile rule, and open-loop latency accounting.

use std::time::{Duration, Instant};

/// SplitMix64: a tiny seeded generator, so the inputs a seed makes do not
/// depend on any library's random stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// A generator for one named purpose, independent of the others drawn
    /// from the same seed.
    pub fn derive(seed: u64, purpose: u64) -> Self {
        let mut base = Rng::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ purpose);
        Rng(base.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf draws over `1..=n` with exponent `s`, by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|i| {
                acc += 1.0 / (i as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1) + 1
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// Mean of the samples between the first and third quartile (ranks
/// `n/4 .. n - n/4`): robust to a few outliers on either side.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let q = s.len() / 4;
    let mid = &s[q..s.len() - q];
    mid.iter().sum::<f64>() / mid.len() as f64
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The tail statistic: the highest nearest-rank percentile that still has
/// at least [`TAIL_BEYOND`] samples above its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// The percentile the value stands for, in percent.
    pub percentile: f64,
    /// Samples ranked beyond the value.
    pub beyond: usize,
    pub samples: usize,
}

pub const TAIL_BEYOND: usize = 10;

/// With `n` samples the highest such percentile is `100 (n - 10) / n`,
/// whose nearest rank is `n - 10`. Below twenty samples that percentile
/// would not even reach the median, so the maximum is reported instead,
/// with the count beyond it (0).
pub fn tail(samples: &[f64]) -> Tail {
    let s = sorted(samples);
    let n = s.len();
    assert!(n > 0, "tail of no samples");
    if n < 2 * TAIL_BEYOND {
        return Tail { value: s[n - 1], percentile: 100.0, beyond: 0, samples: n };
    }
    let rank = n - TAIL_BEYOND;
    let p = 100.0 * rank as f64 / n as f64;
    debug_assert_eq!(percentile(&s, p), s[rank - 1]);
    Tail { value: s[rank - 1], percentile: p, beyond: TAIL_BEYOND, samples: n }
}

/// An open-loop schedule: request `i` is due `i / rate` seconds after the
/// start, whether or not earlier requests have been answered.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub interval: Duration,
}

impl Schedule {
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.interval.mul_f64(i as f64)
    }
}

/// Latency of one open-loop request, timed from when it was due — not
/// from when it was sent — so a stalled generator's delay counts against
/// every request it held back. Also returns how late the send was.
pub fn open_loop_latency(due: Instant, sent: Instant, answered: Instant) -> (Duration, Duration) {
    (answered.saturating_duration_since(due), sent.saturating_duration_since(due))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // The middle half of 1..=8 is 3..=6.
        let s: Vec<f64> = (1..=8).rev().map(f64::from).collect();
        assert_eq!(interquartile_mean(&s), 4.5);
        assert_eq!(interquartile_mean(&[100.0, 2.0, 3.0, 1.0, -50.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&s);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(s.iter().filter(|&&x| x > t.value).count(), 10);

        let s: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&s);
        assert_eq!((t.value, t.percentile), (990.0, 99.0));

        let s: Vec<f64> = (1..=37).map(f64::from).collect();
        let t = tail(&s);
        assert_eq!(t.value, 27.0);
        assert_eq!(s.iter().filter(|&&x| x > t.value).count(), 10);
        // A percentile one rank higher would leave only nine beyond.
        assert!(percentile(&s, t.percentile + 100.0 / 37.0) > t.value);
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        let t = tail(&[4.0, 9.0, 1.0]);
        assert_eq!((t.value, t.beyond, t.samples), (9.0, 0, 3));
        let s: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&s).value, 19.0);
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!((tail(&s).value, tail(&s).percentile), (10.0, 50.0));
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let start = Instant::now();
        let sched = Schedule { start, interval: Duration::from_millis(10) };
        let due = sched.due(3);
        assert_eq!(due - start, Duration::from_millis(30));
        // The generator stalled 5 ms, then the answer took 2 ms.
        let sent = due + Duration::from_millis(5);
        let answered = sent + Duration::from_millis(2);
        let (latency, late) = open_loop_latency(due, sent, answered);
        assert_eq!(latency, Duration::from_millis(7));
        assert_eq!(late, Duration::from_millis(5));
        // Sent early (never happens, but must not underflow).
        let (_, late) = open_loop_latency(due, due - Duration::from_millis(1), answered);
        assert_eq!(late, Duration::ZERO);
    }

    #[test]
    fn draws_repeat_for_a_seed() {
        let a: Vec<u64> = (0..5).map(|_| Rng::derive(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r1 = Rng::derive(7, 1);
        let mut r2 = Rng::derive(7, 2);
        assert_ne!(r1.next_u64(), r2.next_u64());
        let z = Zipf::new(50, 1.1);
        let mut rng = Rng::new(3);
        let draws: Vec<usize> = (0..2000).map(|_| z.draw(&mut rng)).collect();
        assert!(draws.iter().all(|&k| (1..=50).contains(&k)));
        let ones = draws.iter().filter(|&&k| k == 1).count();
        let fifties = draws.iter().filter(|&&k| k == 50).count();
        assert!(ones > 5 * fifties.max(1));
    }
}
