//! Thread-parallel whole-matrix helpers.
//!
//! The task runtime parallelizes *across* tiles, so the tile kernels stay
//! sequential. What is left here parallelizes a single large elementwise
//! operation — building the big reproducible operands the examples, tests
//! and benchmarks start from.

use crate::scalar::Scalar;
use crate::view::MatMut;

/// Below this many elements a fill stays on the calling thread: spawning
/// costs more than hashing a few thousand values.
const PAR_FILL_MIN_ELEMS: usize = 1 << 16;

/// Parallel elementwise fill with a deterministic pseudo-random pattern —
/// handy for building large reproducible test matrices quickly.
/// `seed` selects the pattern; values are in `[-0.5, 0.5)`. Each element is
/// a pure function of `(seed, i, j)`, so the result does not depend on how
/// the columns are split over threads.
pub fn par_fill_pattern<T: Scalar>(mut a: MatMut<'_, T>, seed: u64) {
    let (m, n) = (a.nrows(), a.ncols());
    if m == 0 || n == 0 {
        return;
    }
    let threads = if m * n < PAR_FILL_MIN_ELEMS {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |v| v.get()).min(n)
    };
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut rest = a.rb_mut();
        let mut j0 = 0;
        while j0 < n {
            let w = chunk.min(n - j0);
            let (mut cols, tail) = rest.split_cols_at(w);
            rest = tail;
            let mut fill = move || {
                for dj in 0..w {
                    for (i, v) in cols.col_mut(dj).iter_mut().enumerate() {
                        *v = T::from_f64(hash01(seed, i as u64, (j0 + dj) as u64) - 0.5);
                    }
                }
            };
            j0 += w;
            if j0 < n {
                scope.spawn(fill);
            } else {
                fill(); // the last chunk runs on the calling thread
            }
        }
    });
}

/// SplitMix64-style hash to a uniform `[0,1)` value.
fn hash01(seed: u64, i: u64, j: u64) -> f64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(j.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threaded_fill_matches_the_per_element_pattern() {
        // Large enough to split over threads, with padding rows (`ld > m`)
        // that no chunk may touch.
        let (m, n, ld) = (300, 301, 304);
        assert!(m * n >= PAR_FILL_MIN_ELEMS);
        let mut x = vec![9.0f64; ld * n];
        par_fill_pattern(MatMut::from_slice(&mut x, m, n, ld), 5);
        for j in 0..n {
            for i in 0..ld {
                let want = if i < m { hash01(5, i as u64, j as u64) - 0.5 } else { 9.0 };
                assert_eq!(x[i + j * ld], want, "({i},{j})");
            }
        }
    }

    #[test]
    fn fill_pattern_is_deterministic_and_seed_sensitive() {
        let mut x1 = vec![0.0f64; 12];
        let mut x2 = vec![0.0f64; 12];
        let mut y = vec![0.0f64; 12];
        par_fill_pattern(MatMut::from_slice(&mut x1, 3, 4, 3), 7);
        par_fill_pattern(MatMut::from_slice(&mut x2, 3, 4, 3), 7);
        par_fill_pattern(MatMut::from_slice(&mut y, 3, 4, 3), 8);
        assert_eq!(x1, x2);
        assert_ne!(x1, y);
        assert!(x1.iter().all(|v| (-0.5..0.5).contains(v)));
    }
}
