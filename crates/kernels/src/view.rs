//! Column-major (LAPACK layout) matrix views.
//!
//! A view is the `(A, m, n, ld)` "memory view" tuple of the paper's §III-A:
//! element `(i, j)` lives at offset `i + j*ld`. Sub-matrix views keep the
//! parent's leading dimension, exactly like LAPACK sub-matrices, so a tiled
//! algorithm never copies or re-layouts data on the host.
//!
//! # Safety model
//!
//! [`MatRef`]/[`MatMut`] are raw-pointer views. The task runtime hands out
//! mutable views to *disjoint* tiles of one allocation and executes tasks
//! respecting read/write dependencies, which upholds Rust's aliasing rules
//! at the region level (two tiles with distinct row/column ranges never
//! touch the same element even though their memory interleaves with stride
//! `ld`). The `unsafe impl Send/Sync` encode exactly that contract.

use std::marker::PhantomData;

/// Immutable column-major matrix view.
#[derive(Clone, Copy)]
pub struct MatRef<'a, T> {
    ptr: *const T,
    m: usize,
    n: usize,
    ld: usize,
    _life: PhantomData<&'a T>,
}

/// Mutable column-major matrix view.
pub struct MatMut<'a, T> {
    ptr: *mut T,
    m: usize,
    n: usize,
    ld: usize,
    _life: PhantomData<&'a mut T>,
}

// SAFETY: views to disjoint regions may cross threads; the task graph (or
// the caller of a split) guarantees disjointness of concurrently used views.
unsafe impl<T: Send> Send for MatRef<'_, T> {}
unsafe impl<T: Sync> Sync for MatRef<'_, T> {}
unsafe impl<T: Send> Send for MatMut<'_, T> {}
unsafe impl<T: Sync> Sync for MatMut<'_, T> {}

impl<'a> MatRef<'a, f64> {
    /// Views an `m × n` matrix with leading dimension `ld` over `data`.
    ///
    /// # Panics
    /// Panics if `ld < m` or if `data` is too short to hold the last column.
    pub fn from_slice(data: &'a [f64], m: usize, n: usize, ld: usize) -> Self {
        assert!(ld >= m.max(1), "ld ({ld}) must be >= m ({m})");
        let needed = if n == 0 || m == 0 { 0 } else { ld * (n - 1) + m };
        assert!(
            data.len() >= needed,
            "slice of len {} too short for {m}x{n} ld {ld}",
            data.len()
        );
        MatRef {
            ptr: data.as_ptr(),
            m,
            n,
            ld,
            _life: PhantomData,
        }
    }

    /// Creates a view from a raw pointer.
    ///
    /// # Safety
    /// `ptr` must be valid for reads of the `m × n` region with stride `ld`
    /// for the lifetime `'a`, and no mutable view may overlap it while alive.
    pub unsafe fn from_raw(ptr: *const f64, m: usize, n: usize, ld: usize) -> Self {
        MatRef {
            ptr,
            m,
            n,
            ld,
            _life: PhantomData,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.m
    }
    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.n
    }
    /// Leading dimension.
    #[inline]
    pub fn ld(&self) -> usize {
        self.ld
    }
    /// Payload size in bytes (excludes the inter-column padding).
    #[inline]
    pub fn bytes(&self) -> u64 {
        (self.m * self.n * std::mem::size_of::<f64>()) as u64
    }

    /// Element access.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.m && j < self.n, "({i},{j}) out of {}x{}", self.m, self.n);
        // SAFETY: bounds checked above (debug) / guaranteed by callers in the
        // kernels, pointer valid per construction contract.
        unsafe { *self.ptr.add(i + j * self.ld) }
    }

    /// Column `j` as a slice of `m` elements.
    #[inline]
    pub fn col(&self, j: usize) -> &'a [f64] {
        debug_assert!(j < self.n);
        // SAFETY: column j spans [j*ld, j*ld + m) which is in bounds.
        unsafe { std::slice::from_raw_parts(self.ptr.add(j * self.ld), self.m) }
    }

    /// Raw pointer to element `(i, j)` — the packer's SIMD block source.
    /// Reads through it must stay within the view's `m × n` region.
    #[inline]
    pub(crate) fn ptr_at(&self, i: usize, j: usize) -> *const f64 {
        debug_assert!(i < self.m && j < self.n);
        // SAFETY: (i, j) is in bounds (debug-asserted / guaranteed by the
        // packer's block clips), so the offset stays inside the viewed region.
        unsafe { self.ptr.add(i + j * self.ld) }
    }

    /// Sub-matrix view of size `mm × nn` starting at `(i, j)`.
    pub(crate) fn submatrix(&self, i: usize, j: usize, mm: usize, nn: usize) -> MatRef<'a, f64> {
        assert!(i + mm <= self.m && j + nn <= self.n, "submatrix out of bounds");
        MatRef {
            // SAFETY: offset stays within the parent region.
            ptr: unsafe { self.ptr.add(i + j * self.ld) },
            m: mm,
            n: nn,
            ld: self.ld,
            _life: PhantomData,
        }
    }

    /// Copies the view into a dense `Vec` in column-major order (compacted:
    /// the result has `ld == m`, like a tile landed on a GPU in the paper).
    pub fn to_compact_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.m * self.n);
        for j in 0..self.n {
            out.extend_from_slice(self.col(j));
        }
        out
    }
}

impl<'a> MatMut<'a, f64> {
    /// Views an `m × n` mutable matrix with leading dimension `ld`.
    ///
    /// # Panics
    /// Panics if `ld < m` or if `data` is too short.
    pub fn from_slice(data: &'a mut [f64], m: usize, n: usize, ld: usize) -> Self {
        assert!(ld >= m.max(1), "ld ({ld}) must be >= m ({m})");
        let needed = if n == 0 || m == 0 { 0 } else { ld * (n - 1) + m };
        assert!(
            data.len() >= needed,
            "slice of len {} too short for {m}x{n} ld {ld}",
            data.len()
        );
        MatMut {
            ptr: data.as_mut_ptr(),
            m,
            n,
            ld,
            _life: PhantomData,
        }
    }

    /// Creates a mutable view from a raw pointer.
    ///
    /// # Safety
    /// `ptr` must be valid for reads and writes of the region for `'a`, and
    /// no other view may overlap it while this one is alive.
    pub unsafe fn from_raw(ptr: *mut f64, m: usize, n: usize, ld: usize) -> Self {
        MatMut {
            ptr,
            m,
            n,
            ld,
            _life: PhantomData,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.m
    }
    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.n
    }
    /// Leading dimension.
    #[inline]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Element read.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.m && j < self.n);
        unsafe { *self.ptr.add(i + j * self.ld) }
    }

    /// Element write.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.m && j < self.n);
        // SAFETY: in bounds; exclusive access per view contract.
        unsafe { *self.ptr.add(i + j * self.ld) = v }
    }

    /// In-place update of one element.
    #[inline]
    pub fn update(&mut self, i: usize, j: usize, f: impl FnOnce(f64) -> f64) {
        let v = self.at(i, j);
        self.set(i, j, f(v));
    }

    /// Raw pointer to element `(i, j)` — the microkernel's store target.
    /// Writes through it must stay within the view's `m × n` region.
    #[inline]
    pub(crate) fn ptr_at_mut(&mut self, i: usize, j: usize) -> *mut f64 {
        debug_assert!(i < self.m && j < self.n);
        // SAFETY: (i, j) is in bounds (debug-asserted / guaranteed by the
        // engine's loop clips), so the offset stays inside the viewed region.
        unsafe { self.ptr.add(i + j * self.ld) }
    }

    /// Mutable column `j`.
    #[inline]
    pub(crate) fn col_mut(&mut self, j: usize) -> &mut [f64] {
        debug_assert!(j < self.n);
        // SAFETY: column in bounds; exclusive borrow of self.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(j * self.ld), self.m) }
    }

    /// Immutable re-borrow.
    pub fn as_ref(&self) -> MatRef<'_, f64> {
        MatRef {
            ptr: self.ptr,
            m: self.m,
            n: self.n,
            ld: self.ld,
            _life: PhantomData,
        }
    }

    /// Mutable re-borrow with a shorter lifetime.
    pub(crate) fn rb_mut(&mut self) -> MatMut<'_, f64> {
        MatMut {
            ptr: self.ptr,
            m: self.m,
            n: self.n,
            ld: self.ld,
            _life: PhantomData,
        }
    }

    /// Splits into `(left, right)` disjoint mutable views at column `j`.
    pub(crate) fn split_cols_at(self, j: usize) -> (MatMut<'a, f64>, MatMut<'a, f64>) {
        assert!(j <= self.n);
        let left = MatMut {
            ptr: self.ptr,
            m: self.m,
            n: j,
            ld: self.ld,
            _life: PhantomData,
        };
        let right = MatMut {
            ptr: unsafe { self.ptr.add(j * self.ld) },
            m: self.m,
            n: self.n - j,
            ld: self.ld,
            _life: PhantomData,
        };
        (left, right)
    }

    /// Splits into `(top, bottom)` disjoint mutable views at row `i`.
    pub(crate) fn split_rows_at(self, i: usize) -> (MatMut<'a, f64>, MatMut<'a, f64>) {
        assert!(i <= self.m);
        let top = MatMut {
            ptr: self.ptr,
            m: i,
            n: self.n,
            ld: self.ld,
            _life: PhantomData,
        };
        let bottom = MatMut {
            ptr: unsafe { self.ptr.add(i) },
            m: self.m - i,
            n: self.n,
            ld: self.ld,
            _life: PhantomData,
        };
        (top, bottom)
    }

    /// Fills the whole view with `v`.
    pub fn fill(&mut self, v: f64) {
        for j in 0..self.n {
            self.col_mut(j).fill(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numbered(m: usize, n: usize) -> Vec<f64> {
        (0..m * n).map(|x| x as f64).collect()
    }

    #[test]
    fn indexing_is_column_major() {
        let data = numbered(3, 2); // columns [0,1,2], [3,4,5]
        let a = MatRef::from_slice(&data, 3, 2, 3);
        assert_eq!(a.at(0, 0), 0.0);
        assert_eq!(a.at(2, 0), 2.0);
        assert_eq!(a.at(0, 1), 3.0);
        assert_eq!(a.at(2, 1), 5.0);
        assert_eq!(a.col(1), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn submatrix_keeps_parent_ld() {
        let data = numbered(4, 4);
        let a = MatRef::from_slice(&data, 4, 4, 4);
        let s = a.submatrix(1, 2, 2, 2);
        assert_eq!(s.ld(), 4);
        assert_eq!(s.at(0, 0), a.at(1, 2));
        assert_eq!(s.at(1, 1), a.at(2, 3));
    }

    #[test]
    fn compact_vec_compacts() {
        let data = numbered(4, 3);
        let a = MatRef::from_slice(&data, 4, 3, 4);
        let s = a.submatrix(1, 0, 2, 3);
        let c = s.to_compact_vec();
        assert_eq!(c, vec![1.0, 2.0, 5.0, 6.0, 9.0, 10.0]);
    }

    #[test]
    fn mutation_visible_through_parent() {
        let mut data = numbered(3, 3);
        {
            let a = MatMut::from_slice(&mut data, 3, 3, 3);
            let (_, right) = a.split_cols_at(1);
            let (_, mut s) = right.split_rows_at(1);
            s.set(0, 0, 100.0);
            s.update(1, 1, |v| v + 0.5);
        }
        assert_eq!(data[1 + 3], 100.0); // (1,1)
        assert_eq!(data[2 + 2 * 3], 8.5); // (2,2)
    }

    #[test]
    fn splits_are_disjoint_and_complete() {
        let mut data = numbered(4, 4);
        let a = MatMut::from_slice(&mut data, 4, 4, 4);
        let (mut l, mut r) = a.split_cols_at(1);
        assert_eq!((l.nrows(), l.ncols()), (4, 1));
        assert_eq!((r.nrows(), r.ncols()), (4, 3));
        l.fill(-1.0);
        r.fill(-2.0);
        assert!(data[..4].iter().all(|&x| x == -1.0));
        assert!(data[4..].iter().all(|&x| x == -2.0));
    }

    #[test]
    fn split_rows() {
        let mut data = numbered(4, 2);
        let a = MatMut::from_slice(&mut data, 4, 2, 4);
        let (mut t, mut b) = a.split_rows_at(2);
        t.fill(1.0);
        b.fill(2.0);
        assert_eq!(data, vec![1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "must be >= m")]
    fn bad_ld_rejected() {
        let data = numbered(4, 1);
        let _ = MatRef::from_slice(&data, 4, 1, 2);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn short_slice_rejected() {
        let data = numbered(2, 2);
        let _ = MatRef::from_slice(&data, 3, 2, 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_submatrix_rejected() {
        let data = numbered(3, 3);
        let a = MatRef::from_slice(&data, 3, 3, 3);
        let _ = a.submatrix(2, 2, 2, 2);
    }

    #[test]
    fn zero_sized_views_ok() {
        let data: Vec<f64> = vec![];
        let a = MatRef::<f64>::from_slice(&data, 0, 0, 1);
        assert_eq!(a.nrows(), 0);
        assert_eq!(a.bytes(), 0);
    }
}
