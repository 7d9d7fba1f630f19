//! NaN-poison validation at tile-sized shapes: whatever a routine must not
//! read — the unreferenced triangle of a symmetric or triangular `A`, its
//! stored diagonal under `Diag::Unit`, the opposite triangle of a
//! `syrk`/`syr2k` `C`, the padding rows of every `ld = m + 5` view — holds
//! NaN. A `0 × garbage` read, which finite garbage would survive, turns
//! the output NaN here; a stray write shows as a changed NaN payload.
//!
//! Outputs must be finite, match `reference.rs` within the sibling suites'
//! bounds, and leave every poisoned element bit-untouched — under every
//! host-supported ISA.

mod common;

use xk_kernels::aux::{max_abs_diff, max_abs_diff_tri};
use xk_kernels::reference as r;
use xk_kernels::{symm, syr2k, syrk, trmm, trsm, Diag, MatMut, MatRef, Side, Trans, Uplo};

/// Order of the triangular/symmetric operand and of `syrk`'s `C`.
const ORDER: usize = 200;
/// Right-hand sides of `trmm`/`trsm`/`symm`, inner dimension of `syrk`.
const RHS: usize = 72;
const TOL: f64 = 1e-9;
const RESIDUAL_TOL: f64 = 1e-8;

const SIDES: [Side; 2] = [Side::Left, Side::Right];
const UPLOS: [Uplo; 2] = [Uplo::Lower, Uplo::Upper];
const TRANSES: [Trans; 2] = [Trans::No, Trans::Yes];
const DIAGS: [Diag; 2] = [Diag::NonUnit, Diag::Unit];

/// An `m × n` matrix stored with `ld = m + 5`.
#[derive(Clone)]
struct Poisoned {
    data: Vec<f64>,
    m: usize,
    n: usize,
}

impl Poisoned {
    /// Seeded values in `[-1, 1)` (xorshift, as in the sibling suites) where
    /// `referenced(i, j)`, NaN everywhere else, padding included.
    fn new(m: usize, n: usize, seed: u64, referenced: impl Fn(usize, usize) -> bool) -> Self {
        let ld = m + 5;
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut data = vec![f64::NAN; ld * n];
        for j in 0..n {
            for i in 0..m {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if referenced(i, j) {
                    let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
                    data[i + j * ld] = unit * 2.0 - 1.0;
                }
            }
        }
        Poisoned { data, m, n }
    }

    /// A triangular operand of order [`ORDER`] stored in `uplo`: small
    /// off-diagonal entries and, unless `diag` makes it implicit, a dominant
    /// diagonal, so `trsm` stays well-conditioned.
    fn triangular(seed: u64, uplo: Uplo, diag: Diag) -> Self {
        let mut t = Self::new(ORDER, ORDER, seed, |i, j| {
            in_triangle(uplo, i, j) && (i != j || diag == Diag::NonUnit)
        });
        for j in 0..ORDER {
            for i in (0..ORDER).filter(|&i| in_triangle(uplo, i, j)) {
                let v = &mut t.data[i + j * (ORDER + 5)];
                // (A NaN diagonal stays NaN.)
                *v = if i == j {
                    4.0 + v.abs()
                } else {
                    *v * (1.0 / 64.0)
                };
            }
        }
        t
    }

    fn view(&self) -> MatRef<'_, f64> {
        MatRef::from_slice(&self.data, self.m, self.n, self.m + 5)
    }

    fn view_mut(&mut self) -> MatMut<'_, f64> {
        MatMut::from_slice(&mut self.data, self.m, self.n, self.m + 5)
    }

    /// Panics unless every element that is NaN in `before` is the same NaN
    /// here and every other element is finite.
    fn assert_finite_and_poison_untouched(&self, before: &Self, what: &str) {
        for (idx, (now, was)) in self.data.iter().zip(&before.data).enumerate() {
            let (i, j) = (idx % (self.m + 5), idx / (self.m + 5));
            if was.is_nan() {
                let same = now.to_bits() == was.to_bits();
                assert!(same, "{what}: poisoned element ({i},{j}) was written");
            } else {
                assert!(now.is_finite(), "{what}: ({i},{j}) is {now}");
            }
        }
    }
}

fn in_triangle(uplo: Uplo, i: usize, j: usize) -> bool {
    match uplo {
        Uplo::Lower => i >= j,
        Uplo::Upper => i <= j,
    }
}

/// `B`'s shape for a triangular/symmetric operand of order [`ORDER`] on `side`.
fn rhs_dims(side: Side) -> (usize, usize) {
    match side {
        Side::Left => (ORDER, RHS),
        Side::Right => (RHS, ORDER),
    }
}

#[test]
fn trmm_reads_only_its_triangle() {
    for side in SIDES {
        for uplo in UPLOS {
            for trans in TRANSES {
                for diag in DIAGS {
                    let what = format!("trmm {side:?}/{uplo:?}/{trans:?}/{diag:?}");
                    let a = Poisoned::triangular(31, uplo, diag);
                    let (m, n) = rhs_dims(side);
                    let b0 = Poisoned::new(m, n, 32, |_, _| true);
                    let want = r::ref_trmm(side, uplo, trans, diag, 1.5, a.view(), b0.view());
                    common::for_each_supported_isa(|isa| {
                        let mut b = b0.clone();
                        trmm(side, uplo, trans, diag, 1.5, a.view(), b.view_mut());
                        b.assert_finite_and_poison_untouched(&b0, &format!("{what}[{isa}]"));
                        let d = max_abs_diff(b.view(), want.view());
                        assert!(d < TOL, "{what}[{isa}]: diff {d}");
                    });
                }
            }
        }
    }
}

#[test]
fn trsm_reads_only_its_triangle() {
    for side in SIDES {
        for uplo in UPLOS {
            for trans in TRANSES {
                for diag in DIAGS {
                    let what = format!("trsm {side:?}/{uplo:?}/{trans:?}/{diag:?}");
                    let a = Poisoned::triangular(41, uplo, diag);
                    let (m, n) = rhs_dims(side);
                    let b0 = Poisoned::new(m, n, 42, |_, _| true);
                    common::for_each_supported_isa(|isa| {
                        let mut x = b0.clone();
                        trsm(side, uplo, trans, diag, 0.5, a.view(), x.view_mut());
                        x.assert_finite_and_poison_untouched(&b0, &format!("{what}[{isa}]"));
                        let res = r::trsm_residual(
                            (side, uplo, trans, diag),
                            0.5,
                            a.view(),
                            x.view(),
                            b0.view(),
                        );
                        assert!(res < RESIDUAL_TOL, "{what}[{isa}]: residual {res}");
                    });
                }
            }
        }
    }
}

#[test]
fn symm_reads_only_its_triangle() {
    for side in SIDES {
        for uplo in UPLOS {
            let what = format!("symm {side:?}/{uplo:?}");
            let a = Poisoned::new(ORDER, ORDER, 11, |i, j| in_triangle(uplo, i, j));
            let (m, n) = rhs_dims(side);
            let b = Poisoned::new(m, n, 12, |_, _| true);
            let c0 = Poisoned::new(m, n, 13, |_, _| true);
            let want = r::ref_symm(side, uplo, 0.75, a.view(), b.view(), -0.5, c0.view());
            common::for_each_supported_isa(|isa| {
                let mut c = c0.clone();
                symm(side, uplo, 0.75, a.view(), b.view(), -0.5, c.view_mut());
                c.assert_finite_and_poison_untouched(&c0, &format!("{what}[{isa}]"));
                let d = max_abs_diff(c.view(), want.view());
                assert!(d < TOL, "{what}[{isa}]: diff {d}");
            });
        }
    }
}

#[test]
fn syrk_and_syr2k_touch_only_their_triangle() {
    for uplo in UPLOS {
        for trans in TRANSES {
            let (am, an) = trans.apply_dims(ORDER, RHS);
            let a = Poisoned::new(am, an, 21, |_, _| true);
            let b = Poisoned::new(am, an, 22, |_, _| true);
            let c0 = Poisoned::new(ORDER, ORDER, 23, |i, j| in_triangle(uplo, i, j));
            let want = r::ref_syrk(trans, 0.75, a.view(), -0.5, c0.view());
            let want2 = r::ref_syr2k(trans, 0.75, a.view(), b.view(), -0.5, c0.view());
            common::for_each_supported_isa(|isa| {
                let what = format!("syrk {uplo:?}/{trans:?}[{isa}]");
                let mut c = c0.clone();
                syrk(uplo, trans, 0.75, a.view(), -0.5, c.view_mut());
                c.assert_finite_and_poison_untouched(&c0, &what);
                let d = max_abs_diff_tri(uplo, c.view(), want.view());
                assert!(d < TOL, "{what}: diff {d}");

                let what = format!("syr2k {uplo:?}/{trans:?}[{isa}]");
                let mut c = c0.clone();
                syr2k(uplo, trans, 0.75, a.view(), b.view(), -0.5, c.view_mut());
                c.assert_finite_and_poison_untouched(&c0, &what);
                let d = max_abs_diff_tri(uplo, c.view(), want2.view());
                assert!(d < TOL, "{what}: diff {d}");
            });
        }
    }
}
