//! The six workloads. Each says in its module docs why it exists and which
//! layers it loads or bypasses; `BENCHMARK.json` carries the one-line form.

pub mod bound_gallery;
pub mod check_matrix;
pub mod des_large;
pub mod numeric_blas3;
pub mod paper_small;
pub mod serve_zipf;

use crate::harness::{run, RunOptions, Workload};
use crate::report::Report;

/// Workload names, in the order `list` and `all` use.
pub const NAMES: [&str; 6] = [
    paper_small::PaperSmall::NAME,
    des_large::DesLarge::NAME,
    serve_zipf::ServeZipf::NAME,
    check_matrix::CheckMatrix::NAME,
    bound_gallery::BoundGallery::NAME,
    numeric_blas3::NumericBlas3::NAME,
];

/// Runs the workload called `name`; `None` for an unknown name.
pub fn run_by_name(name: &str, opts: &RunOptions) -> Option<Report> {
    Some(match name {
        paper_small::PaperSmall::NAME => run::<paper_small::PaperSmall>(opts),
        des_large::DesLarge::NAME => run::<des_large::DesLarge>(opts),
        serve_zipf::ServeZipf::NAME => run::<serve_zipf::ServeZipf>(opts),
        check_matrix::CheckMatrix::NAME => run::<check_matrix::CheckMatrix>(opts),
        bound_gallery::BoundGallery::NAME => run::<bound_gallery::BoundGallery>(opts),
        numeric_blas3::NumericBlas3::NAME => run::<numeric_blas3::NumericBlas3>(opts),
        _ => return None,
    })
}

/// FNV-1a over `bytes`, folded to 48 bits so it survives a trip through a
/// JSON number: the digest behind the exact-repeat checks of outputs that
/// have no committed counterpart.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (hash >> 48) ^ (hash & 0xffff_ffff_ffff)
}
