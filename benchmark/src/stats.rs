//! Sampling and summary statistics used by the harness: a seeded
//! generator, a fixed-size latency histogram with nearest-rank percentiles
//! and their sample counts, the population-weighted sampler and the fixed
//! cyclic mix.

/// SplitMix64: the whole harness draws from this, so one `--seed`
/// reproduces the topology and every request.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, separated by `stream` so that two users of
    /// one seed (two client threads, two workloads) draw different values.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` the harness uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Latencies in ns, counted in buckets 1/64 of an octave wide, with their
/// exact count and sum. A percentile is the middle of its bucket, at most
/// 0.8 % from the sample. The size is fixed: a log of every sample grew
/// `hot`'s peak memory by 17 bytes per op, 20 to 50 MB a window, and with
/// it `peak_rss_mb` followed the throughput.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    counts: Vec<u64>,
    pub count: u64,
    pub sum_ns: u64,
}

impl Default for LatencyHist {
    fn default() -> LatencyHist {
        LatencyHist {
            counts: vec![0; LatencyHist::BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl LatencyHist {
    /// Values below 64 ns have a bucket each; the 26 octaves from 64 ns to
    /// 4.3 s (a `u32` of ns) have 64 each.
    const BUCKETS: usize = 64 + 26 * 64;

    fn bucket(ns: u32) -> usize {
        if ns < 64 {
            return ns as usize;
        }
        let octave = 31 - ns.leading_zeros() - 5; // 1 for 64..128 ns
        (octave as usize) * 64 + ((ns >> (octave - 1)) as usize - 64)
    }

    /// The middle of bucket `i`, in ns.
    fn middle(i: usize) -> f64 {
        if i < 64 {
            return i as f64;
        }
        let (octave, sub) = (i / 64, i % 64);
        let width = (1u64 << (octave - 1)) as f64;
        (64 + sub) as f64 * width + width / 2.0
    }

    pub fn record(&mut self, ns: u32) {
        self.counts[LatencyHist::bucket(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as u64;
    }

    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    /// Nearest-rank percentile in ns (`p` in 0..=100), `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = percentile_rank(self.count as usize, p) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(LatencyHist::middle(i));
            }
        }
        None
    }
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn percentile_rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie beyond the `p`-th percentile; a tail
/// percentile is only as good as this count.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - percentile_rank(n, p)
    }
}

/// Median of unsorted values (mean of the middle two when even).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Draws an index with probability proportional to its weight.
#[derive(Debug, Clone)]
pub struct Weighted {
    cumulative: Vec<f64>,
}

impl Weighted {
    /// Weights must be non-negative with a positive sum.
    pub fn new(weights: &[f64]) -> Weighted {
        let mut total = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                total += w;
                total
            })
            .collect();
        assert!(
            total > 0.0,
            "weighted sampler needs a positive total weight"
        );
        Weighted { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("non-empty weights");
        let x = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

/// Spreads kinds with the given counts over one cycle as evenly as the
/// counts allow: each kind with count `c` in a cycle of `n` claims the
/// positions `(k + 1/2) * n / c`, and the claims are laid out in that
/// order. Repeating the cycle gives every kind exactly its stated share,
/// and no kind arrives in a burst.
pub fn cyclic_mix<K: Copy>(counts: &[(K, usize)]) -> Vec<K> {
    let n: usize = counts.iter().map(|&(_, c)| c).sum();
    let mut claims: Vec<(f64, usize, K)> = Vec::with_capacity(n);
    for (order, &(kind, c)) in counts.iter().enumerate() {
        for k in 0..c {
            claims.push(((k as f64 + 0.5) * n as f64 / c as f64, order, kind));
        }
    }
    claims.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    claims.into_iter().map(|(_, _, kind)| kind).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_within_a_bucket() {
        let mut h = LatencyHist::default();
        assert_eq!(h.percentile(50.0), None);
        // 1 000 samples of 1 µs … 1 ms.
        for i in 1..=1000u32 {
            h.record(i * 1000);
        }
        assert_eq!((h.count, h.sum_ns), (1000, 500_500_000));
        for (p, want) in [(0.0, 1e3), (50.0, 500e3), (99.0, 990e3), (100.0, 1e6)] {
            let got = h.percentile(p).unwrap();
            assert!((got - want).abs() <= want / 128.0, "p{p}: {got} vs {want}");
        }
        // Small values are exact, and every bucket contains its middle.
        let mut small = LatencyHist::default();
        small.record(7);
        assert_eq!(small.percentile(99.0), Some(7.0));
        for ns in [63, 64, 65, 127, 128, 1000, 123_456, 4_000_000_000, u32::MAX] {
            let i = LatencyHist::bucket(ns);
            assert!(i < LatencyHist::BUCKETS, "{ns}");
            let mid = LatencyHist::middle(i);
            assert!(
                (mid - ns as f64).abs() <= ns as f64 / 128.0 + 0.5,
                "{ns}: {mid}"
            );
            assert!(i == 0 || LatencyHist::middle(i - 1) < mid);
        }
        let mut both = small.clone();
        both.merge(&h);
        assert_eq!((both.count, both.sum_ns), (1001, 500_500_007));
        assert_eq!(both.percentile(0.0), Some(7.0));
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(100, 50.0), 50);
        assert_eq!(samples_beyond(1, 99.0), 0);
        assert_eq!(samples_beyond(0, 99.0), 0);
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn cyclic_mix_gives_exactly_the_stated_shares() {
        let mix = cyclic_mix(&[('s', 33), ('b', 5), ('r', 5), ('f', 5), ('l', 2)]);
        assert_eq!(mix.len(), 50);
        for (kind, want) in [('s', 33), ('b', 5), ('r', 5), ('f', 5), ('l', 2)] {
            assert_eq!(mix.iter().filter(|&&k| k == kind).count(), want, "{kind}");
        }
        // Evenly spread: the two leaks sit half a cycle apart.
        let leaks: Vec<usize> = mix
            .iter()
            .enumerate()
            .filter(|(_, &k)| k == 'l')
            .map(|(i, _)| i)
            .collect();
        assert!((20..=30).contains(&(leaks[1] - leaks[0])), "{leaks:?}");
    }

    #[test]
    fn weighted_sampling_is_seed_deterministic_and_follows_weights() {
        let w = Weighted::new(&[8.0, 1.0, 1.0, 0.0]);
        let draw = |seed| {
            let mut rng = Rng::new(seed, 3);
            (0..4000).map(|_| w.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(11), draw(11));
        assert_ne!(draw(11), draw(12));
        let d = draw(11);
        let share0 = d.iter().filter(|&&i| i == 0).count() as f64 / d.len() as f64;
        assert!((0.77..0.83).contains(&share0), "{share0}");
        assert!(!d.contains(&3), "a zero weight is never drawn");
    }
}
