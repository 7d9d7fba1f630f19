//! The query key: everything that determines one simulated run.
//!
//! Identical to the memoization key `xk-bench` has used since PR 1 (that
//! crate now re-exports this type as `RunKey`); it lives here so the
//! sharded cache, the figure drivers and the query engine all agree on
//! what "the same configuration" means.

use xk_baselines::{Library, RunParams, XkVariant};
use xk_kernels::Routine;
use xk_lp::SplitMix64;
use xk_topo::FabricSpec;

/// Everything that determines a simulated run: the cache/query key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct QueryKey {
    /// Library policy model.
    pub library: Library,
    /// BLAS-3 routine.
    pub routine: Routine,
    /// Matrix dimension.
    pub n: usize,
    /// Tile size.
    pub tile: usize,
    /// Data-on-device methodology.
    pub data_on_device: bool,
    /// [`FabricSpec::fingerprint`] of the platform.
    pub topo_fingerprint: u64,
}

impl QueryKey {
    /// Builds the key for one run.
    pub fn new(lib: Library, topo: &FabricSpec, params: &RunParams) -> Self {
        QueryKey {
            library: lib,
            routine: params.routine,
            n: params.n,
            tile: params.tile,
            data_on_device: params.data_on_device,
            topo_fingerprint: topo.fingerprint(),
        }
    }

    /// The shard discriminant: topology fingerprint mixed with the
    /// `(library, routine)` pair — and nothing else, so every `(N, tile)`
    /// point of one configuration family lands in the same shard (a sweep
    /// over N walks one lock while sweeps of other families walk others).
    pub fn shard_hash(&self) -> u64 {
        let family = (library_code(self.library) << 3) | self.routine as u64;
        splitmix64(self.topo_fingerprint ^ splitmix64(family))
    }
}

/// A stable small integer per library (including the XKBlas ablations).
fn library_code(lib: Library) -> u64 {
    match lib {
        Library::XkBlas(XkVariant::Full) => 0,
        Library::XkBlas(XkVariant::NoHeuristic) => 1,
        Library::XkBlas(XkVariant::NoHeuristicNoTopo) => 2,
        Library::CublasXt => 3,
        Library::CublasMg => 4,
        Library::Blasx => 5,
        Library::ChameleonTile => 6,
        Library::ChameleonLapack => 7,
        Library::Slate => 8,
        Library::Dplasma => 9,
    }
}

/// SplitMix64 finalizer: a strong, platform-stable 64-bit mixer — the first
/// output of the workspace's one [`SplitMix64`] stream seeded with `x`.
fn splitmix64(x: u64) -> u64 {
    SplitMix64::new(x).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xk_topo::dgx1;

    fn params(n: usize, tile: usize) -> RunParams {
        RunParams {
            routine: Routine::Gemm,
            n,
            tile,
            data_on_device: false,
        }
    }

    #[test]
    fn same_family_shares_a_shard_hash() {
        let topo = dgx1();
        let a = QueryKey::new(Library::CublasXt, &topo, &params(4096, 1024));
        let b = QueryKey::new(Library::CublasXt, &topo, &params(16384, 4096));
        assert_ne!(a, b);
        assert_eq!(a.shard_hash(), b.shard_hash());
    }

    #[test]
    fn families_get_distinct_hashes() {
        let topo = dgx1();
        let p = params(4096, 1024);
        let mut hashes: Vec<u64> = Library::FIG5
            .iter()
            .map(|&lib| QueryKey::new(lib, &topo, &p).shard_hash())
            .collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), Library::FIG5.len(), "family hash collision");
    }

    #[test]
    fn shard_mixer_is_the_reference_splitmix64() {
        // Published first output for seed 0: shard assignment must not move.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn library_codes_are_unique() {
        let all = [
            Library::XkBlas(XkVariant::Full),
            Library::XkBlas(XkVariant::NoHeuristic),
            Library::XkBlas(XkVariant::NoHeuristicNoTopo),
            Library::CublasXt,
            Library::CublasMg,
            Library::Blasx,
            Library::ChameleonTile,
            Library::ChameleonLapack,
            Library::Slate,
            Library::Dplasma,
        ];
        let mut codes: Vec<u64> = all.iter().map(|&l| library_code(l)).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len());
    }
}
