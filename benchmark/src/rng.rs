//! The benchmark's own input generator: a SplitMix64 stream and a zipf
//! sampler. Inputs must depend on `--seed` alone, not on the code under
//! test, so these are not borrowed from the layer crates.

/// A deterministic SplitMix64 stream.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53-bit resolution.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `requests` ranks drawn from a zipf over `0..n`: rank `k` with
/// probability proportional to `1 / (k + 1)^exponent`.
pub fn zipf_trace(n: usize, requests: usize, exponent: f64, rng: &mut Rng) -> Vec<usize> {
    assert!(n > 0, "zipf needs at least one rank");
    let mut cumulative = Vec::with_capacity(n);
    let mut total = 0.0;
    for k in 0..n {
        total += 1.0 / ((k + 1) as f64).powf(exponent);
        cumulative.push(total);
    }
    (0..requests)
        .map(|_| {
            let u = rng.next_f64() * total;
            cumulative.partition_point(|&c| c <= u).min(n - 1)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_between_seeds() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..4).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        // SplitMix64's published first output for seed 0.
        assert_eq!(draw(0)[0], 0xe220_a839_7b1d_cdaf);
        let mut rng = Rng::new(1);
        assert!((0..1000).all(|_| (0.0..1.0).contains(&rng.next_f64())));
    }

    #[test]
    fn zipf_is_head_heavy_and_in_range() {
        let trace = zipf_trace(72, 20_000, 0.9, &mut Rng::new(7));
        assert!(trace.iter().all(|&k| k < 72));
        let count = |k| trace.iter().filter(|&&x| x == k).count();
        assert!(count(0) > 2 * count(9) && count(9) > count(71));
    }
}
