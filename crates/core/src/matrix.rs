//! Host matrices in LAPACK (column-major) layout with tile partitions.
//!
//! A [`Matrix`] owns its storage behind an `Arc`, so asynchronous tasks can
//! capture cheap clones and operate on disjoint tile views while the user
//! keeps the handle. Like the real XKBlas API, the contents of a matrix
//! touched by asynchronous calls are only defined after the context's
//! `sync` — reading earlier returns whatever has been computed so far.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use xk_kernels::{MatMut, MatRef};

static NEXT_MATRIX_ID: AtomicU64 = AtomicU64::new(1);

struct Storage<T> {
    data: UnsafeCell<Vec<T>>,
    m: usize,
    n: usize,
    ld: usize,
    phantom: bool,
}

// SAFETY: concurrent access is coordinated by the task graph: tasks get
// views of disjoint tiles, and read/write dependencies serialize conflicting
// accesses. The UnsafeCell only says "the runtime, not the borrow checker,
// proves exclusivity".
unsafe impl<T: Send> Send for Storage<T> {}
unsafe impl<T: Sync> Sync for Storage<T> {}

/// An `m × n` host matrix of `f64` in LAPACK column-major layout (`T` is
/// always `f64`; see `xk_kernels::Scalar`).
pub struct Matrix<T> {
    storage: Arc<Storage<T>>,
    id: u64,
}

impl<T> Clone for Matrix<T> {
    fn clone(&self) -> Self {
        Matrix {
            storage: self.storage.clone(),
            id: self.id,
        }
    }
}

impl Matrix<f64> {
    /// Allocates an `m × n` zero matrix (`ld == m`).
    pub fn zeros(m: usize, n: usize) -> Self {
        Matrix {
            storage: Arc::new(Storage {
                data: UnsafeCell::new(vec![0.0; m * n]),
                m,
                n,
                ld: m.max(1),
                phantom: false,
            }),
            id: NEXT_MATRIX_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// A *phantom* matrix: carries shape but no storage. Usable only with
    /// simulation-only contexts (the performance harness sweeps matrices up
    /// to N = 49152 — 19 GB each — that never need real values).
    ///
    /// Calling [`Matrix::view`]/`Matrix::tile_view` on a phantom panics.
    pub fn phantom(m: usize, n: usize) -> Self {
        Matrix {
            storage: Arc::new(Storage {
                data: UnsafeCell::new(Vec::new()),
                m,
                n,
                ld: m.max(1),
                phantom: true,
            }),
            id: NEXT_MATRIX_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Allocates and fills with a reproducible pseudo-random pattern in
    /// `[-0.5, 0.5)` (parallel fill).
    pub fn random(m: usize, n: usize, seed: u64) -> Self {
        let mat = Matrix::zeros(m, n);
        xk_kernels::parallel::par_fill_pattern(mat.view_mut(), seed);
        mat
    }

    /// A random symmetric-friendly matrix: pattern plus a dominant diagonal
    /// (well-conditioned for TRSM/TRMM tests).
    pub fn random_diag_dominant(n: usize, seed: u64) -> Self {
        let mat = Matrix::random(n, n, seed);
        {
            let mut v = mat.view_mut();
            for i in 0..n {
                let d = v.at(i, i);
                v.set(i, i, d + 4.0);
            }
        }
        mat
    }

    /// Unique identity of this allocation (tile handles key off it).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Rows.
    pub fn nrows(&self) -> usize {
        self.storage.m
    }

    /// Columns.
    pub fn ncols(&self) -> usize {
        self.storage.n
    }

    /// Leading dimension.
    pub(crate) fn ld(&self) -> usize {
        self.storage.ld
    }

    /// Immutable view of the whole matrix.
    ///
    /// Values read through the view are only defined once every
    /// asynchronous operation touching this matrix has been synced.
    pub fn view(&self) -> MatRef<'_, f64> {
        assert!(!self.storage.phantom, "phantom matrices have no values");
        // SAFETY: pointer valid for the storage lifetime; synchronization
        // contract documented on the type.
        unsafe {
            MatRef::from_raw(
                (*self.storage.data.get()).as_ptr(),
                self.storage.m,
                self.storage.n,
                self.storage.ld,
            )
        }
    }

    /// Mutable view of the whole matrix (same synchronization contract).
    #[allow(clippy::mut_from_ref)]
    pub fn view_mut(&self) -> MatMut<'_, f64> {
        assert!(!self.storage.phantom, "phantom matrices have no values");
        // SAFETY: as above; disjointness across concurrent users is the
        // runtime's responsibility.
        unsafe {
            MatMut::from_raw(
                (*self.storage.data.get()).as_mut_ptr(),
                self.storage.m,
                self.storage.n,
                self.storage.ld,
            )
        }
    }

    /// Immutable view of the tile starting at `(i0, j0)` of size `mb × nb`.
    pub(crate) fn tile_view(&self, i0: usize, j0: usize, mb: usize, nb: usize) -> MatRef<'_, f64> {
        assert!(!self.storage.phantom, "phantom matrices have no values");
        assert!(i0 + mb <= self.nrows() && j0 + nb <= self.ncols());
        // SAFETY: in-bounds offset of the storage.
        unsafe {
            MatRef::from_raw(
                (*self.storage.data.get()).as_ptr().add(i0 + j0 * self.ld()),
                mb,
                nb,
                self.ld(),
            )
        }
    }

    /// Mutable view of a tile.
    pub(crate) fn tile_view_mut(
        &self,
        i0: usize,
        j0: usize,
        mb: usize,
        nb: usize,
    ) -> MatMut<'_, f64> {
        assert!(!self.storage.phantom, "phantom matrices have no values");
        assert!(i0 + mb <= self.nrows() && j0 + nb <= self.ncols());
        // SAFETY: as above.
        unsafe {
            MatMut::from_raw(
                (*self.storage.data.get())
                    .as_mut_ptr()
                    .add(i0 + j0 * self.ld()),
                mb,
                nb,
                self.ld(),
            )
        }
    }

    /// Copies the contents into a plain `Vec` (column-compacted).
    pub fn to_vec(&self) -> Vec<f64> {
        self.view().to_compact_vec()
    }

    /// Element read (defined after sync).
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.view().at(i, j)
    }
}

/// A tile partition of an `m × n` matrix with square tiles of side `tile`
/// (edge tiles are smaller).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TileMap {
    /// Matrix rows.
    pub m: usize,
    /// Matrix columns.
    pub n: usize,
    /// Tile side.
    pub tile: usize,
    /// Number of tile rows.
    pub mt: usize,
    /// Number of tile columns.
    pub nt: usize,
}

impl TileMap {
    /// Builds the partition.
    ///
    /// # Panics
    /// Panics on a zero tile size.
    pub(crate) fn new(m: usize, n: usize, tile: usize) -> Self {
        assert!(tile > 0, "tile size must be positive");
        TileMap {
            m,
            n,
            tile,
            mt: m.div_ceil(tile).max(1),
            nt: n.div_ceil(tile).max(1),
        }
    }

    /// Rows of tile row `i`.
    pub(crate) fn tile_rows(&self, i: usize) -> usize {
        debug_assert!(i < self.mt);
        if i + 1 == self.mt {
            self.m - i * self.tile
        } else {
            self.tile
        }
    }

    /// Columns of tile column `j`.
    pub(crate) fn tile_cols(&self, j: usize) -> usize {
        debug_assert!(j < self.nt);
        if j + 1 == self.nt {
            self.n - j * self.tile
        } else {
            self.tile
        }
    }

    /// Element origin of tile `(i, j)`.
    pub(crate) fn origin(&self, i: usize, j: usize) -> (usize, usize) {
        (i * self.tile, j * self.tile)
    }

    /// Payload bytes of tile `(i, j)`.
    #[cfg(test)]
    pub(crate) fn tile_bytes(&self, i: usize, j: usize) -> u64 {
        (self.tile_rows(i) * self.tile_cols(j) * std::mem::size_of::<f64>()) as u64
    }
}

/// The 2D block-cyclic owner of tile `(i, j)` on a `(p, q)` GPU grid with
/// cyclic block size (1,1) — the distribution of the paper's data-on-device
/// experiments (§IV-C, "(4,2)-grid ... block sizes of the distribution set
/// to (1,1)").
pub(crate) fn block_cyclic_owner(i: usize, j: usize, p: usize, q: usize) -> usize {
    (i % p) * q + (j % q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_fill() {
        let a = Matrix::<f64>::zeros(3, 2);
        assert_eq!(a.at(2, 1), 0.0);
        a.view_mut().set(2, 1, 21.0);
        assert_eq!(a.at(2, 1), 21.0);
        assert_eq!(a.nrows(), 3);
    }

    #[test]
    fn clone_shares_storage() {
        let a = Matrix::<f64>::zeros(2, 2);
        let b = a.clone();
        assert_eq!(a.id(), b.id());
        a.view_mut().set(0, 0, 7.0);
        assert_eq!(b.at(0, 0), 7.0);
    }

    #[test]
    fn distinct_matrices_distinct_ids() {
        let a = Matrix::<f64>::zeros(2, 2);
        let b = Matrix::<f64>::zeros(2, 2);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn tile_views_alias_parent() {
        let a = Matrix::<f64>::random(4, 4, 7);
        let t = a.tile_view(2, 2, 2, 2);
        assert_eq!(t.at(0, 0), a.at(2, 2));
        let mut tm = a.tile_view_mut(0, 0, 2, 2);
        tm.set(1, 1, -1.0);
        assert_eq!(a.at(1, 1), -1.0);
    }

    #[test]
    fn random_is_reproducible() {
        let a = Matrix::<f64>::random(5, 5, 42);
        let b = Matrix::<f64>::random(5, 5, 42);
        assert_eq!(a.to_vec(), b.to_vec());
        let c = Matrix::<f64>::random(5, 5, 43);
        assert_ne!(a.to_vec(), c.to_vec());
    }

    #[test]
    fn tilemap_edges() {
        let t = TileMap::new(10, 7, 4);
        assert_eq!((t.mt, t.nt), (3, 2));
        assert_eq!(t.tile_rows(0), 4);
        assert_eq!(t.tile_rows(2), 2);
        assert_eq!(t.tile_cols(1), 3);
        assert_eq!(t.origin(2, 1), (8, 4));
        assert_eq!(t.tile_bytes(2, 1), (2 * 3 * 8) as u64);
    }

    #[test]
    fn tilemap_single_tile() {
        let t = TileMap::new(5, 5, 100);
        assert_eq!((t.mt, t.nt), (1, 1));
        assert_eq!(t.tile_rows(0), 5);
    }

    #[test]
    fn block_cyclic_grid_42() {
        // The paper's (4,2) grid over 8 GPUs: adjacent tiles map to
        // different GPUs.
        assert_eq!(block_cyclic_owner(0, 0, 4, 2), 0);
        assert_eq!(block_cyclic_owner(0, 1, 4, 2), 1);
        assert_eq!(block_cyclic_owner(1, 0, 4, 2), 2);
        assert_eq!(block_cyclic_owner(3, 1, 4, 2), 7);
        assert_eq!(block_cyclic_owner(4, 0, 4, 2), 0);
        // All 8 owners hit over a 4x2 tile block.
        let mut owners: Vec<usize> = (0..4)
            .flat_map(|i| (0..2).map(move |j| block_cyclic_owner(i, j, 4, 2)))
            .collect();
        owners.sort_unstable();
        assert_eq!(owners, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn diag_dominant_has_big_diagonal() {
        let a = Matrix::<f64>::random_diag_dominant(6, 1);
        for i in 0..6 {
            assert!(a.at(i, i).abs() > 3.0);
        }
    }
}
