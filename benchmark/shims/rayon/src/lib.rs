//! Stand-in for `rayon`: `par_iter()` / `into_par_iter()` hand back the
//! ordinary serial iterator, so every "parallel" sweep and whole-matrix
//! helper runs on the calling thread, in order. Results are unchanged (the
//! layer crates already reduce in input order); wall-clock is what one core
//! gives. Thread-level parallelism the benchmark does exercise goes through
//! `std::thread::scope` in `xk_sim::run_replicas` and `xk_runtime::run_parallel`.

/// Always 1: there is no pool.
pub fn current_num_threads() -> usize {
    1
}

pub mod iter {
    /// `into_par_iter()` for owned collections and ranges.
    pub trait IntoParallelIterator {
        type Iter: Iterator<Item = Self::Item>;
        type Item;
        fn into_par_iter(self) -> Self::Iter;
    }

    impl<I: IntoIterator> IntoParallelIterator for I {
        type Iter = I::IntoIter;
        type Item = I::Item;
        fn into_par_iter(self) -> Self::Iter {
            self.into_iter()
        }
    }

    /// `par_iter()` for slices (and, by auto-deref, `Vec`).
    pub trait IntoParallelRefIterator<'data> {
        type Iter: Iterator<Item = Self::Item>;
        type Item: 'data;
        fn par_iter(&'data self) -> Self::Iter;
    }

    impl<'data, T: 'data> IntoParallelRefIterator<'data> for [T] {
        type Iter = std::slice::Iter<'data, T>;
        type Item = &'data T;
        fn par_iter(&'data self) -> Self::Iter {
            self.iter()
        }
    }
}

pub mod prelude {
    pub use crate::iter::{IntoParallelIterator, IntoParallelRefIterator};
}
