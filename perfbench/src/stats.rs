//! Request samplers and order statistics.

use mrx_datagen::Prng;

/// Zipf(s) over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)^s`, so rank 0 is the most frequent.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n >= 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "a Zipf sampler needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Prng) -> usize {
        let u = rng.gen_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// The probability of each rank.
    pub fn weights(&self) -> Vec<f64> {
        let mut prev = 0.0;
        self.cdf
            .iter()
            .map(|&c| {
                let w = c - prev;
                prev = c;
                w
            })
            .collect()
    }
}

/// A tail percentile is only reported where at least this many samples lie
/// beyond it; smaller samples fall back to a lower rank.
pub const MIN_BEYOND: usize = 10;

/// Index into `n` sorted samples for quantile `q`: the nearest rank,
/// lowered to the highest rank that still has [`MIN_BEYOND`] samples above
/// it (rank 0 when the sample is smaller than that).
pub fn tail_rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "a percentile needs at least one sample");
    let nearest = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    nearest.min(n.saturating_sub(MIN_BEYOND + 1))
}

/// One quantile of an ascending sample, by [`tail_rank`].
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    sorted[tail_rank(sorted.len(), q)]
}

/// The median of a sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "a median needs at least one value");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Mixes a run seed with a stream tag, so that every request stream of a
/// run is independent and fixed by the run seed alone.
pub fn stream_seed(seed: u64, tag: u64) -> u64 {
    let mut s = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    mrx_datagen::prng::splitmix64(&mut s)
}
