//! Steady state allocates nothing: asserted with a counting allocator, not
//! assumed. After one warm-up call has sized this thread's pack buffers and
//! scratch, each of the six tile kernels at the executor's shape (a
//! 256 × 256 tile of a wider matrix) calls the allocator exactly as often as
//! the one ISA dispatch it makes — never when `XK_KERNEL_ISA` is unset, once
//! (the variable's `String`) when it pins a kernel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xk_kernels::{
    gemm, selected_isa, symm, syr2k, syrk, trmm, trsm, Diag, MatMut, MatRef, Side, Trans, Uplo,
};

thread_local! {
    /// Allocator calls (`alloc` + `realloc`) made by this thread. Per
    /// thread, so the test harness's own threads do not pollute it;
    /// const-initialised and without a destructor, so reading it inside
    /// `alloc` never allocates itself.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread being torn down may allocate after its
        // thread-locals are gone.
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocator calls `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = CALLS.with(Cell::get);
    f();
    CALLS.with(Cell::get) - before
}

#[test]
fn tile_kernels_allocate_nothing_after_warm_up() {
    const N: usize = 256;
    const LD: usize = 300;
    let pattern = |seed: usize| -> Vec<f64> {
        (0..LD * N)
            .map(|i| ((i * 7 + seed) % 23) as f64 * 0.05 - 0.5)
            .collect()
    };
    let (a, b, mut tri, mut c) = (pattern(1), pattern(2), pattern(3), pattern(4));
    for i in 0..N {
        tri[i + i * LD] = 4.0;
    }
    let view = |v| MatRef::from_slice(v, N, N, LD);
    let (a, b, tri) = (view(&a), view(&b), view(&tri));

    type Kernel<'a> = (&'static str, Box<dyn Fn(MatMut<'_, f64>) + 'a>);
    let kernels: [Kernel<'_>; 6] = [
        (
            "gemm",
            Box::new(|c| gemm(Trans::No, Trans::No, 1.0, a, b, 0.5, c)),
        ),
        (
            "symm",
            Box::new(|c| symm(Side::Left, Uplo::Lower, 1.0, a, b, 0.5, c)),
        ),
        (
            "syrk",
            Box::new(|c| syrk(Uplo::Lower, Trans::No, 1.0, a, 0.5, c)),
        ),
        (
            "syr2k",
            Box::new(|c| syr2k(Uplo::Lower, Trans::No, 1.0, a, b, 0.5, c)),
        ),
        (
            "trmm",
            Box::new(|c| {
                trmm(
                    Side::Left,
                    Uplo::Lower,
                    Trans::No,
                    Diag::NonUnit,
                    1.0,
                    tri,
                    c,
                )
            }),
        ),
        (
            "trsm",
            Box::new(|c| {
                trsm(
                    Side::Left,
                    Uplo::Lower,
                    Trans::No,
                    Diag::NonUnit,
                    1.0,
                    tri,
                    c,
                )
            }),
        ),
    ];
    selected_isa(); // the first call probes the CPU and keeps the answer
    let dispatch = allocations(|| {
        selected_isa();
    });
    for (name, kernel) in &kernels {
        kernel(MatMut::from_slice(&mut c, N, N, LD));
        let calls = allocations(|| kernel(MatMut::from_slice(&mut c, N, N, LD)));
        assert_eq!(
            calls, dispatch,
            "{name}: {calls} allocator calls in a warmed-up call, the ISA dispatch alone makes {dispatch}"
        );
    }
}
