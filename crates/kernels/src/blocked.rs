//! BLIS-style blocked, packed, register-tiled GEMM engine.
//!
//! One engine computes `C = alpha * op(A) * op(B) + beta * C` for every
//! BLAS-3 routine in the crate. The three classic loops around a
//! register-tiled microkernel:
//!
//! * **`NC`** — column panels of `op(B)`/`C`, sized so a packed `KC × NC`
//!   B panel stays resident in the last-level cache;
//! * **`KC`** — depth blocking; one `KC`-deep panel pair is packed per
//!   iteration and `beta` is folded into the *first* depth block so `C`
//!   is streamed exactly once (no separate scaling pass);
//! * **`MC`** — row panels of `op(A)`/`C`, sized so the packed `MC × KC`
//!   A panel fits in L2.
//!
//! Operands are plain descriptors ([`Operand`]: a stored view, a `Trans`
//! and a [`Structure`] tag) read by **one** packer ([`pack`]): packing
//! `op(B)` is packing `op(B)ᵀ` as an A operand. The packer moves runs of
//! one stored column at a time — column-outer when the stored column runs
//! along the panel width (sequential reads), a strided scatter when it
//! runs along depth — and resolves symmetric and triangular operands per
//! run by splitting at the diagonal (mirror, zero-fill or unit diagonal),
//! so the unreferenced triangle is never read and the hot loop never
//! branches on storage format. `C` carries the matching tag ([`Part`]): a
//! triangle-restricted update skips the micro-tiles outside the stored
//! triangle and masks the ones that cross the diagonal.
//!
//! The engine is **generic over the microkernel**
//! ([`crate::simd::MicroKernel`]): the register-tile shape `MR × NR` and
//! the `KC`/`MC`/`NC` blocking are associated constants of the dispatched
//! kernel, the packer produces micro-panels of whatever width that kernel
//! wants, and [`gemm_packed`] routes through the runtime ISA dispatcher so
//! an AVX-512, AVX2 or scalar kernel is chosen per machine (override
//! with `XK_KERNEL_ISA`). Fringe tiles are zero-padded in the packed
//! panels and clipped at the store, so boundary shapes stay exact on every
//! path. Pack buffers and routine scratch are reused thread-locally across
//! calls, so steady state performs no allocation — important because the
//! parallel executor invokes this engine from many worker threads.

use std::cell::RefCell;

use crate::aux::Part;
use crate::scalar::Scalar;
use crate::simd::{Isa, MicroKernel};
use crate::types::{Diag, Trans, Uplo};
use crate::view::{MatMut, MatRef};

/// Scalar-kernel register-tile rows. The portable kernel's geometry is
/// re-exported as crate-level constants because sizing heuristics and the
/// boundary-grid tests reference a fixed shape; the *dispatched* kernel's
/// geometry is [`crate::simd::kernel_shape`].
pub const MR: usize = 8;
/// Scalar-kernel register-tile columns (see [`MR`]).
pub const NR: usize = 4;
/// Scalar-kernel rows per packed `op(A)` macro-panel (`MC × KC` targets L2).
pub const MC: usize = 128;
/// Scalar-kernel depth of one packed panel pair (the k-dimension block).
pub const KC: usize = 256;
/// Scalar-kernel columns per packed `op(B)` macro-panel (`KC × NC` targets L3).
pub const NC: usize = 2048;
/// Order below which `trmm` stops halving its triangular operand and hands
/// the diagonal block to the engine as one triangular operand.
pub const TB: usize = 64;

/// Largest register tile (`MR × NR` elements) of any microkernel: the size
/// of the stack tile a diagonal-crossing update is masked through.
const MAX_TILE: usize = 64;

/// What the stored elements of an operand mean.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Structure {
    /// Every element is stored.
    Dense,
    /// Symmetric; only the `Uplo` triangle is stored, the other mirrors it.
    Symmetric(Uplo),
    /// Triangular: zero outside the `Uplo` triangle, ones on the diagonal
    /// under `Diag::Unit`.
    Triangular(Uplo, Diag),
}

/// Where the packer finds the elements on one side of the diagonal of the
/// logical matrix `X = op(M)`.
#[derive(Clone, Copy, PartialEq)]
enum Source {
    /// `X[i, p] = M[i, p]`: the stored column runs along the panel width.
    Direct,
    /// `X[i, p] = M[p, i]`: the stored column runs along depth.
    Mirror,
    /// Outside a triangular operand's triangle.
    Zero,
}

/// One engine operand: `op(M)` for a stored view `M` of the given structure.
#[derive(Clone, Copy)]
pub struct Operand<'a, T> {
    mat: MatRef<'a, T>,
    trans: Trans,
    structure: Structure,
}

impl<'a, T: Scalar> Operand<'a, T> {
    /// `op(mat)`, the stored elements of `mat` read as `structure` says
    /// (a symmetric operand is its own transpose: `trans` changes nothing).
    pub fn new(mat: MatRef<'a, T>, trans: Trans, structure: Structure) -> Self {
        Operand {
            mat,
            trans,
            structure,
        }
    }

    /// `op(mat)` with every element stored.
    pub(crate) fn dense(mat: MatRef<'a, T>, trans: Trans) -> Self {
        Self::new(mat, trans, Structure::Dense)
    }

    /// The operand `op(M)ᵀ`.
    fn transposed(self) -> Self {
        Operand {
            trans: self.trans.flip(),
            ..self
        }
    }

    /// `(rows, columns)` of `op(M)`.
    fn dims(&self) -> (usize, usize) {
        self.trans.apply_dims(self.mat.nrows(), self.mat.ncols())
    }

    /// Sources of the elements strictly below (`i > p`) and strictly above
    /// the diagonal of `op(M)`, and whether the diagonal is implicit ones.
    fn sources(&self) -> (Source, Source, bool) {
        let stored = match self.trans {
            Trans::No => Source::Direct,
            Trans::Yes => Source::Mirror,
        };
        match self.structure {
            Structure::Dense => (stored, stored, false),
            Structure::Symmetric(Uplo::Lower) => (Source::Direct, Source::Mirror, false),
            Structure::Symmetric(Uplo::Upper) => (Source::Mirror, Source::Direct, false),
            Structure::Triangular(uplo, diag) => {
                // Transposing flips the triangle `op(M)` occupies.
                let (below, above) = if (uplo == Uplo::Lower) == (self.trans == Trans::No) {
                    (stored, Source::Zero)
                } else {
                    (Source::Zero, stored)
                };
                (below, above, diag == Diag::Unit)
            }
        }
    }
}

thread_local! {
    /// Reusable pack storage. Backed by `u64` words so one pair of buffers
    /// serves both `f32` and `f64` with correct alignment.
    static PACK_BUFS: RefCell<(Vec<u64>, Vec<u64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
    /// Reusable scratch of the routines built on the engine (TRMM's copy of
    /// an old `B` block). A cell of its own, because its holder calls the
    /// engine, which borrows [`PACK_BUFS`].
    static SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Views `words` as `elems` scalars, growing it on first use or when a
/// larger problem arrives; never shrinking.
fn as_scalars<T: Scalar>(words: &mut Vec<u64>, elems: usize) -> &mut [T] {
    assert!(
        std::mem::size_of::<T>() == T::WORD
            && std::mem::align_of::<T>() <= std::mem::align_of::<u64>(),
        "Scalar impls must be plain floats no more aligned than u64"
    );
    let need = (elems * T::WORD).div_ceil(std::mem::size_of::<u64>());
    if words.len() < need {
        words.resize(need, 0);
    }
    // SAFETY: the Vec holds at least `elems * T::WORD` bytes, u64 storage is
    // aligned at least as strictly as T (asserted above), any bit pattern is
    // a valid T, and the slice borrows `words` mutably for its lifetime.
    unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<T>(), elems) }
}

/// Runs `f` with this thread's reusable scratch viewed as `elems` scalars.
/// Not re-entrant: `f` may call the engine but not `with_scratch`.
pub(crate) fn with_scratch<T: Scalar>(elems: usize, f: impl FnOnce(&mut [T])) {
    SCRATCH.with(|cell| f(as_scalars(&mut cell.borrow_mut(), elems)))
}

/// Micro-panels packed per pass over the source columns. A pass reads runs
/// of `PASS_PANELS * w` contiguous elements and writes one stream per panel;
/// the panels lie a power-of-two stride apart, so more streams than the L1
/// has ways would evict each other's lines half-written.
const PASS_PANELS: usize = 8;

/// How many positions of the window `[origin, origin + len)` precede `at`.
#[inline(always)]
fn clip(at: usize, origin: usize, len: usize) -> usize {
    at.saturating_sub(origin).min(len)
}

/// One pass of the packer: rows `[g0, g0 + len)` of `X = op(M)` over depth
/// `[p0, p0 + depth)`, written to at most [`PASS_PANELS`] micro-panels of
/// `w` rows.
struct Pass<'a, T> {
    panels: &'a mut [T],
    m: MatRef<'a, T>,
    g0: usize,
    len: usize,
    p0: usize,
    depth: usize,
    w: usize,
}

impl<T: Scalar> Pass<'_, T> {
    /// Writes rows `[lo, hi)` of depth slice `p`: a copy of `src`, whose
    /// first element is row `lo`, or zeros without one. A run that covers a
    /// whole panel has the constant length `w`.
    #[inline(always)]
    fn put_rows(&mut self, (lo, hi): (usize, usize), p: usize, src: Option<&[T]>) {
        #[inline(always)]
        fn put<T: Scalar>(dst: &mut [T], src: Option<&[T]>) {
            match src {
                Some(src) => dst.copy_from_slice(src),
                None => dst.fill(T::ZERO),
            }
        }
        let w = self.w;
        let mut i = lo;
        while i < hi {
            let at = (i / w) * self.depth * w + p * w + i % w;
            if i % w == 0 && hi - i >= w {
                put(
                    &mut self.panels[at..at + w],
                    src.map(|s| &s[i - lo..i - lo + w]),
                );
                i += w;
            } else {
                let len = (w - i % w).min(hi - i);
                put(
                    &mut self.panels[at..at + len],
                    src.map(|s| &s[i - lo..i - lo + len]),
                );
                i += len;
            }
        }
    }

    /// Packs depth slices `[lo, hi)`, where every row takes `source`.
    #[inline(always)]
    fn uniform(&mut self, source: Source, (lo, hi): (usize, usize)) {
        let (m, g0, len, p0, w) = (self.m, self.g0, self.len, self.p0, self.w);
        match source {
            // The stored column runs along the panel width: each is read
            // once, sequentially, into this pass's panels.
            Source::Direct => {
                for p in lo..hi {
                    self.put_rows((0, len), p, Some(&m.col(p0 + p)[g0..g0 + len]));
                }
            }
            Source::Zero => {
                for p in lo..hi {
                    self.put_rows((0, len), p, None);
                }
            }
            // The stored columns run along depth: a panel reads its `w`
            // columns in step, each sequentially, and is written front to
            // back.
            Source::Mirror => {
                for (ip, panel) in self.panels.chunks_mut(self.depth * w).enumerate() {
                    let g = g0 + ip * w;
                    let wr = w.min(g0 + len - g);
                    for p in lo..hi {
                        for (r, d) in panel[p * w..p * w + wr].iter_mut().enumerate() {
                            *d = m.at(p0 + p, g + r);
                        }
                    }
                }
            }
        }
    }

    /// Packs depth slices `[lo, hi)`, each of which has its diagonal element
    /// among this pass's rows, run by run: every stored column is split where
    /// it meets the diagonal, and each part copied, scattered down its row of
    /// the panel, zero-filled or left to the other loop.
    #[inline(always)]
    fn diagonal(&mut self, (below, above, unit): (Source, Source, bool), (lo, hi): (usize, usize)) {
        let (m, g0, len, p0, w) = (self.m, self.g0, self.len, self.p0, self.w);
        for p in lo..hi {
            let a = p0 + p - g0;
            for ((r_lo, r_hi), source) in [((0, a), above), ((a + 1, len), below)] {
                match source {
                    Source::Direct if r_lo < r_hi => {
                        let src = &m.col(p0 + p)[g0 + r_lo..g0 + r_hi];
                        self.put_rows((r_lo, r_hi), p, Some(src));
                    }
                    Source::Zero => self.put_rows((r_lo, r_hi), p, None),
                    _ => {}
                }
            }
            self.panels[(a / w) * self.depth * w + p * w + a % w] =
                if unit { T::ONE } else { m.at(p0 + p, p0 + p) };
        }
        if lo == hi || (below != Source::Mirror && above != Source::Mirror) {
            return;
        }
        for i in 0..len {
            let (a, b) = (
                clip(g0 + i, p0 + lo, hi - lo),
                clip(g0 + i + 1, p0 + lo, hi - lo),
            );
            let row = (i / w) * self.depth * w + i % w;
            for ((d_lo, d_hi), source) in [((lo, lo + a), below), ((lo + b, hi), above)] {
                if source == Source::Mirror && d_lo < d_hi {
                    let src = &m.col(g0 + i)[p0 + d_lo..p0 + d_hi];
                    let dst = self.panels[row + d_lo * w..].iter_mut().step_by(w);
                    for (d, &s) in dst.zip(src) {
                        *d = s;
                    }
                }
            }
        }
    }
}

/// Packs `X[i0..i0+rows, p0..p0+depth]`, `X = op(M)`, into micro-panels of
/// `w` rows.
///
/// Layout: panel `ip` holds rows `[ip*w, ip*w + w)` as `depth` contiguous
/// `w`-element column slices; rows past `rows` are zero-padded so the
/// microkernel always runs a full register tile.
#[inline(always)]
pub(crate) fn pack<T: Scalar>(
    buf: &mut [T],
    x: &Operand<'_, T>,
    (i0, rows): (usize, usize),
    (p0, depth): (usize, usize),
    w: usize,
) {
    let sources @ (below, above, _) = x.sources();
    for r0 in (0..rows).step_by(PASS_PANELS * w) {
        let len = (PASS_PANELS * w).min(rows - r0);
        let (g0, padded) = (i0 + r0, len.next_multiple_of(w));
        let panels = &mut buf[r0 * depth..][..padded * depth];
        let mut pass = Pass {
            panels,
            m: x.mat,
            g0,
            len,
            p0,
            depth,
            w,
        };
        // The depth slices whose diagonal element lies among this pass's
        // rows: left of them every row is below the diagonal, right of them
        // above it.
        let (z0, z1) = match x.structure {
            Structure::Dense => (depth, depth),
            _ => (clip(g0, p0, depth), clip(g0 + len, p0, depth)),
        };
        pass.uniform(below, (0, z0));
        pass.diagonal(sources, (z0, z1));
        pass.uniform(above, (z1, depth));
        for p in 0..depth {
            pass.put_rows((len, padded), p, None);
        }
    }
}

/// How a block of `C` lies relative to the part an update may write.
#[derive(PartialEq)]
enum Coverage {
    /// Every element may be written.
    Inside,
    /// No element may be written.
    Outside,
    /// The diagonal crosses the block.
    Crossing,
}

/// [`Coverage`] of rows `[r0, r0+mr)`, columns `[c0, c0+nr)` of `C`.
#[inline(always)]
fn coverage(part: Part, (r0, mr): (usize, usize), (c0, nr): (usize, usize)) -> Coverage {
    // Lower stores `r >= c`; upper is the same test with the roles swapped.
    let ((lo0, lon), (hi0, hin)) = match part {
        Part::All => return Coverage::Inside,
        Part::Triangle(Uplo::Lower) => ((c0, nr), (r0, mr)),
        Part::Triangle(Uplo::Upper) => ((r0, mr), (c0, nr)),
    };
    if hi0 + 1 >= lo0 + lon {
        Coverage::Inside
    } else if hi0 + hin <= lo0 {
        Coverage::Outside
    } else {
        Coverage::Crossing
    }
}

/// Merges a diagonal-crossing micro-tile into `C`: `tile` (columns `ld`
/// apart) holds `alpha * (PA × PB)` for rows `[r0, r0+mr)`, columns
/// `[c0, c0+nr)`, and only the elements inside `part` become
/// `beta * C + tile` (`beta == 0` overwrites without reading `C`).
fn merge_in_part<T: Scalar>(
    c: &mut MatMut<'_, T>,
    part: Part,
    beta: T,
    tile: &[T],
    ld: usize,
    (r0, mr): (usize, usize),
    (c0, nr): (usize, usize),
) {
    for (j, col) in tile.chunks(ld).enumerate().take(nr) {
        for (i, &v) in col.iter().enumerate().take(mr) {
            let (r, cc) = (r0 + i, c0 + j);
            if coverage(part, (r, 1), (cc, 1)) == Coverage::Inside {
                let old = if beta == T::ZERO {
                    T::ZERO
                } else {
                    beta * c.at(r, cc)
                };
                c.set(r, cc, old + v);
            }
        }
    }
}

/// The blocked loop nest, monomorphized per microkernel: every blocking
/// constant comes from `MK`, so the compiler sees fixed trip counts and
/// panel strides for each ISA variant.
///
/// Only the dispatchers in `scalar.rs` may call this, and only with a
/// kernel whose ISA the host supports ([`crate::simd::supported_isas`]) —
/// that invariant is what makes the `MK::tile` calls below sound.
pub(crate) fn engine<T: Scalar, MK: MicroKernel<T>>(
    alpha: T,
    a: Operand<'_, T>,
    b: Operand<'_, T>,
    beta: T,
    mut c: MatMut<'_, T>,
    part: Part,
) {
    const { assert!(MK::MR * MK::NR <= MAX_TILE) };
    let (m, n) = (c.nrows(), c.ncols());
    let k = a.dims().1;
    debug_assert_eq!(a.dims().0, m);
    debug_assert_eq!(b.dims(), (k, n));
    if m == 0 || n == 0 {
        return;
    }
    if alpha == T::ZERO || k == 0 {
        match part {
            Part::All => crate::gemm::scale_in_place(beta, c),
            Part::Triangle(uplo) => crate::syrk::scale_triangle(beta, uplo, c),
        }
        return;
    }
    let bt = b.transposed();
    let kc_max = MK::KC.min(k);
    let a_elems = MK::MC.min(m).next_multiple_of(MK::MR) * kc_max;
    let b_elems = MK::NC.min(n).next_multiple_of(MK::NR) * kc_max;
    let ld = c.ld();
    let mut masked = [T::ZERO; MAX_TILE];
    PACK_BUFS.with(|cell| {
        let mut bufs = cell.borrow_mut();
        let (wa, wb) = &mut *bufs;
        let (pa, pb) = (as_scalars::<T>(wa, a_elems), as_scalars::<T>(wb, b_elems));
        for jc in (0..n).step_by(MK::NC) {
            let nc = MK::NC.min(n - jc);
            for pc in (0..k).step_by(MK::KC) {
                let kc = MK::KC.min(k - pc);
                // Fold beta into the first depth block: every C element is
                // touched exactly once per pc iteration.
                let beta_eff = if pc == 0 { beta } else { T::ONE };
                pack(pb, &bt, (jc, nc), (pc, kc), MK::NR);
                for ic in (0..m).step_by(MK::MC) {
                    let mc = MK::MC.min(m - ic);
                    if coverage(part, (ic, mc), (jc, nc)) == Coverage::Outside {
                        continue;
                    }
                    pack(pa, &a, (ic, mc), (pc, kc), MK::MR);
                    for jr in (0..nc).step_by(MK::NR) {
                        let nr = MK::NR.min(nc - jr);
                        let pb_panel = &pb[(jr / MK::NR) * kc * MK::NR..][..kc * MK::NR];
                        for ir in (0..mc).step_by(MK::MR) {
                            let mr = MK::MR.min(mc - ir);
                            let pa_panel = &pa[(ir / MK::MR) * kc * MK::MR..][..kc * MK::MR];
                            let (r0, c0) = (ic + ir, jc + jr);
                            // A tile the diagonal crosses is computed into
                            // `masked` and merged element by element.
                            let cover = coverage(part, (r0, mr), (c0, nr));
                            let (dst, dst_ld, beta_tile) = match cover {
                                Coverage::Outside => continue,
                                Coverage::Inside => (c.ptr_at_mut(r0, c0), ld, beta_eff),
                                Coverage::Crossing => (masked.as_mut_ptr(), MK::MR, T::ZERO),
                            };
                            // SAFETY: the packed panels hold kc full
                            // micro-panels (zero-padded), `dst` addresses an
                            // mr × nr region with leading dimension `dst_ld`
                            // (in bounds of `c`, or `masked`, which holds a
                            // whole MK::MR × MK::NR tile as checked above),
                            // 0 < mr <= MK::MR and 0 < nr <= MK::NR by the
                            // min() clips, and the dispatcher only selects
                            // host-supported MKs.
                            unsafe {
                                MK::tile(
                                    kc,
                                    pa_panel.as_ptr(),
                                    pb_panel.as_ptr(),
                                    alpha,
                                    beta_tile,
                                    dst,
                                    dst_ld,
                                    mr,
                                    nr,
                                );
                            }
                            if cover == Coverage::Crossing {
                                merge_in_part(
                                    &mut c,
                                    part,
                                    beta_eff,
                                    &masked,
                                    MK::MR,
                                    (r0, mr),
                                    (c0, nr),
                                );
                            }
                        }
                    }
                }
            }
        }
    });
}

/// Blocked `C = alpha * op(A) * op(B) + beta * C`, restricted to `part` of
/// `C`, on `isa`'s microkernel.
///
/// This is the engine every routine in the crate routes its flops through:
/// it runs the [`engine`] monomorphized for `isa` (a routine reads
/// [`crate::simd::selected_isa`] once per call and hands it down), so all
/// six routines inherit the best kernel for the host. `beta` is applied by
/// the first depth block's store (skipped entirely when `beta == 1`), so
/// `C` is read and written exactly once.
pub(crate) fn gemm_packed<T: Scalar>(
    isa: Isa,
    alpha: T,
    a: Operand<'_, T>,
    b: Operand<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
    part: Part,
) {
    T::gemm_engine(isa, alpha, a, b, beta, c, part)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::selected_isa;

    fn det_vals(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
            })
            .collect()
    }

    /// `C = alpha * A * B + beta * C` over dense column-major slices.
    fn gemm_nn(
        (m, n, k): (usize, usize, usize),
        alpha: f64,
        a: &[f64],
        b: &[f64],
        beta: f64,
        c: &mut [f64],
    ) {
        gemm_packed(
            selected_isa(),
            alpha,
            Operand::dense(MatRef::from_slice(a, m, k, m.max(1)), Trans::No),
            Operand::dense(MatRef::from_slice(b, k, n, k.max(1)), Trans::No),
            beta,
            MatMut::from_slice(c, m, n, m),
            Part::All,
        );
    }

    /// Engine vs the independent reference for one shape/parameter set.
    fn check(m: usize, n: usize, k: usize, alpha: f64, beta: f64) {
        let a = det_vals(m * k, 1);
        let b = det_vals(k * n, 2);
        let c0 = det_vals(m * n, 3);
        let want = crate::reference::ref_gemm(
            Trans::No,
            Trans::No,
            alpha,
            MatRef::from_slice(&a, m, k, m.max(1)),
            MatRef::from_slice(&b, k, n, k.max(1)),
            beta,
            MatRef::from_slice(&c0, m, n, m),
        );
        let mut c = c0.clone();
        gemm_nn((m, n, k), alpha, &a, &b, beta, &mut c);
        let d = crate::aux::max_abs_diff(MatRef::from_slice(&c, m, n, m), want.view());
        assert!(
            d < 1e-10,
            "({m},{n},{k}) alpha={alpha} beta={beta}: diff {d}"
        );
    }

    #[test]
    fn fringe_shapes_and_kc_boundary() {
        for &(m, n) in &[
            (1, 1),
            (MR - 1, NR + 1),
            (MR, NR),
            (MR + 1, NR - 1),
            (19, 13),
        ] {
            for &k in &[1, 7, KC - 1, KC, KC + 1] {
                check(m, n, k, 1.0, 0.5);
            }
        }
    }

    #[test]
    fn beta_zero_overwrites_nan() {
        let mut c = vec![f64::NAN; 9];
        gemm_nn((3, 3, 3), 1.0, &[1.0; 9], &[1.0; 9], 0.0, &mut c);
        assert!(c.iter().all(|&x| x == 3.0));
    }

    #[test]
    fn degenerate_k_and_alpha_scale_only() {
        let mut c = vec![2.0f64; 4];
        gemm_nn((2, 2, 0), 1.0, &[], &[], 0.5, &mut c);
        assert!(c.iter().all(|&x| x == 1.0));
        // alpha == 0 must not read the operands at all.
        gemm_nn(
            (2, 2, 5),
            0.0,
            &[f64::NAN; 10],
            &[f64::NAN; 10],
            2.0,
            &mut c,
        );
        assert!(c.iter().all(|&x| x == 2.0));
    }

    #[test]
    fn pack_buffers_are_reused() {
        // Two calls on the same thread must not corrupt each other.
        check(MC + 3, NR * 3 + 1, KC + 5, 0.75, 1.0);
        check(5, 5, 5, -1.0, 0.0);
    }

    /// The closure formulation the packer replaced, kept as its oracle:
    /// element `(i, p)` of `op(M)` through `sym_at`/`tri_at` and a
    /// per-element `match trans`.
    fn closure_element(x: &Operand<'_, f64>, i: usize, p: usize) -> f64 {
        use crate::helpers::{sym_at, tri_at};
        let (r, c) = match x.trans {
            Trans::No => (i, p),
            Trans::Yes => (p, i),
        };
        match x.structure {
            Structure::Dense => x.mat.at(r, c),
            Structure::Symmetric(uplo) => sym_at(&x.mat, uplo, r, c),
            Structure::Triangular(uplo, diag) => tri_at(&x.mat, uplo, diag, r, c),
        }
    }

    /// The PR 2 `pack_a` loop over [`closure_element`].
    fn closure_pack(
        buf: &mut [f64],
        x: &Operand<'_, f64>,
        (i0, rows): (usize, usize),
        (p0, depth): (usize, usize),
        w: usize,
    ) {
        for ip in 0..rows.div_ceil(w) {
            let live = w.min(rows - ip * w);
            for p in 0..depth {
                let dst = &mut buf[ip * depth * w + p * w..][..w];
                for (r, d) in dst.iter_mut().enumerate() {
                    *d = if r < live {
                        closure_element(x, i0 + ip * w + r, p0 + p)
                    } else {
                        0.0
                    };
                }
            }
        }
    }

    #[test]
    fn packer_matches_closure_oracle_bit_for_bit() {
        use crate::simd::{kernel_shape, supported_isas};
        // Every panel width and cache block a supported kernel packs with.
        let shapes: Vec<_> = supported_isas()
            .iter()
            .map(|&isa| kernel_shape::<f64>(isa))
            .collect();
        xk_lp::for_each_seed(192, |rng| {
            let shape = rng.pick(&shapes);
            let w = rng.pick(&[shape.mr, shape.nr]);
            // Mostly small operands, some large enough to start a second
            // MC/KC block, always free to miss the register-tile multiples.
            let order = |rng: &mut xk_lp::SplitMix64| match rng.next_below(4) {
                0 => rng.usize_in(1, shape.mc.max(shape.kc) + 40),
                _ => rng.usize_in(1, 4 * w + 4),
            };
            let (sr, sc) = (order(rng), order(rng));
            let trans = rng.pick(&[Trans::No, Trans::Yes]);
            let uplo = rng.pick(&[Uplo::Lower, Uplo::Upper]);
            let diag = rng.pick(&[Diag::NonUnit, Diag::Unit]);
            let structure = rng.pick(&[
                Structure::Dense,
                Structure::Symmetric(uplo),
                Structure::Triangular(uplo, diag),
            ]);
            let sc = if structure == Structure::Dense {
                sc
            } else {
                sr
            };
            // A sub-view (`ld > m`, offset origin) of a larger allocation;
            // what a structured operand must not read is NaN.
            let (off_r, off_c) = (rng.usize_in(0, 4), rng.usize_in(0, 4));
            let ld = off_r + sr + rng.usize_in(1, 6);
            let mut data = det_vals(ld * (off_c + sc), rng.next_below(1000));
            if let Structure::Symmetric(u) | Structure::Triangular(u, _) = structure {
                for j in 0..sc {
                    for i in 0..sr {
                        let unread = match u {
                            Uplo::Lower => i < j,
                            Uplo::Upper => i > j,
                        } || (i == j
                            && structure == Structure::Triangular(u, Diag::Unit));
                        if unread {
                            data[off_r + i + (off_c + j) * ld] = f64::NAN;
                        }
                    }
                }
            }
            let mat = MatRef::from_slice(&data, off_r + sr, off_c + sc, ld);
            let x = Operand::new(mat.submatrix(off_r, off_c, sr, sc), trans, structure);
            // One block of the engine's loops: a row range at a `w`-aligned
            // origin, a KC-or-less depth range.
            let (xr, xc) = x.dims();
            let i0 = rng.usize_in(0, xr.div_ceil(w)) * w;
            let rows = rng.usize_in(1, xr - i0 + 1);
            let p0 = rng.usize_in(0, xc);
            let depth = rng.usize_in(1, (xc - p0).min(shape.kc) + 1);
            let elems = rows.next_multiple_of(w) * depth;
            let (mut got, mut want) = (vec![-7.0; elems + 5], vec![-7.0; elems + 5]);
            pack(&mut got, &x, (i0, rows), (p0, depth), w);
            closure_pack(&mut want, &x, (i0, rows), (p0, depth), w);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert!(
                bits(&got) == bits(&want),
                "{structure:?} {trans:?} {sr}x{sc} ld {ld} rows {i0}+{rows} depth {p0}+{depth} w {w}"
            );
        });
    }
}
