//! SplitMix64: the deterministic generator behind coalition sampling.
//!
//! Attribution re-solves the bound over *sampled* link coalitions, and the
//! samples must be reproducible from a seed alone — no `Date::now`, no
//! thread-local state. SplitMix64 is the standard seeding generator of the
//! xoshiro family: one 64-bit word of state, equidistributed output, and
//! trivially portable (Vigna, 2015).

/// A 64-bit SplitMix64 generator.
#[derive(Clone, Copy, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator. Every sequence is a pure function of the seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` from the high 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform draw in `[0, n)`. `n` must be non-zero; the modulo bias is
    /// negligible for the small ranges sampling uses (`n` ≤ player count).
    pub fn next_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "next_below(0)");
        self.next_u64() % n
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// Uniform draw in `[lo, hi)`; the range must be non-empty.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.next_below((hi - lo) as u64) as usize
    }

    /// One element of the non-empty `xs`, uniformly.
    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.usize_in(0, xs.len())]
    }

    /// In-place Fisher–Yates shuffle — the permutation sampler of the
    /// Shapley estimator.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// A seeded property loop: runs `property` once per seed in `0..cases`,
/// each time on a fresh generator, and on a failure re-panics with the
/// seed in the message — `SplitMix64::new(seed)` replays the case.
pub fn for_each_seed(cases: u64, property: impl Fn(&mut SplitMix64)) {
    for seed in 0..cases {
        let case = std::panic::AssertUnwindSafe(|| property(&mut SplitMix64::new(seed)));
        if let Err(panic) = std::panic::catch_unwind(case) {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string panic)");
            panic!("property failed at seed {seed} of {cases}: {msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix64::new(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn known_vector() {
        // Reference outputs of SplitMix64 seeded with 1234567 (checked
        // against the published C implementation).
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SplitMix64::new(7);
        let mut xs: Vec<u32> = (0..20).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<u32>>());
        assert_ne!(xs, (0..20).collect::<Vec<u32>>(), "20 elements left in place");
    }

    #[test]
    fn ranged_draws_stay_in_range() {
        let mut r = SplitMix64::new(11);
        for _ in 0..1000 {
            assert!((-2.0..2.0).contains(&r.f64_in(-2.0, 2.0)));
            assert!((3..7).contains(&r.usize_in(3, 7)));
            assert!([1u8, 5, 9].contains(&r.pick(&[1u8, 5, 9])));
        }
    }

    #[test]
    fn for_each_seed_names_the_failing_seed() {
        for_each_seed(8, |rng| assert!(rng.next_f64() < 1.0));
        let failed = std::panic::catch_unwind(|| {
            for_each_seed(8, |rng| {
                let seed_is_five = rng.next_u64() == SplitMix64::new(5).next_u64();
                assert!(!seed_is_five, "boom");
            })
        });
        let msg = *failed.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("seed 5 of 8") && msg.contains("boom"), "{msg}");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(9);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
