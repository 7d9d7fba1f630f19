//! One policy row per [`Library`] (DESIGN.md §6): what the paper's §IV-D
//! documents of each stack, as data. [`Library::model`] is the one place a
//! library is described; everything else reads its row.

use xk_kernels::Routine;
use xk_runtime::{Heuristics, RuntimeConfig, SchedulerKind};
use xk_topo::{Device, FabricSpec};
use xk_trace::{FlowId, Place, Span, SpanKind};

use crate::cublasxt::run_cublasxt;
use crate::slate::run_slate;
use crate::{Library, RunParams, RunResult, XkVariant};

/// The paper's block-size sweep (§IV-A).
const PAPER_TILES: &[usize] = &[1024, 2048, 4096];

/// The sweep extended for cuBLAS-XT and SLATE, whose large blocks amortize
/// their per-block host traffic.
const WIDE_TILES: &[usize] = &[1024, 2048, 4096, 8192, 16384];

/// Effective host conversion bandwidth of Chameleon LAPACK, bytes/second.
/// Strided packing of a large matrix on a two-socket Broadwell lands far
/// below stream bandwidth.
const CONVERSION_BW: f64 = 6.0e9;

/// A library's documented policy.
#[derive(Clone, Copy)]
pub(crate) struct LibraryModel {
    /// Display name as in the paper's legends.
    pub name: &'static str,
    /// Accelerates GEMM only (§IV-D); else all six routines.
    pub gemm_only: bool,
    /// Candidate block sizes, ascending.
    pub tiles: &'static [usize],
    /// The largest `n` it allocates, if it has a limit.
    pub max_n: Option<usize>,
    /// Models the data-on-device methodology as well as data on the host.
    pub data_on_device: bool,
    /// What runs the call.
    pub engine: Engine,
}

/// What runs a library's call.
#[derive(Clone, Copy)]
pub(crate) enum Engine {
    /// A stream driver that schedules its own kernels and transfers.
    Streams(fn(&FabricSpec, &RunParams) -> RunResult),
    /// The shared task runtime under this policy.
    Runtime(Policy),
}

/// A library's configuration of the shared task runtime.
#[derive(Clone, Copy)]
pub(crate) struct Policy {
    pub scheduler: SchedulerKind,
    pub heuristics: Heuristics,
    /// In-flight tasks per GPU.
    pub window: usize,
    /// Keeps fetched inputs cached on the device.
    pub cache_inputs: bool,
    /// One handle per tile, else LAPACK layout.
    pub tile_layout: bool,
    /// Host work around the simulated call.
    pub host: Host,
}

/// Host work a library adds around its simulated call.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum Host {
    /// None: `seconds` is the simulated makespan.
    None,
    /// Chameleon LAPACK converts the operands into its tile layout before
    /// the call and the result back after (§IV-D: "the penalty, on the
    /// host, to convert operands and result to/from tile matrix
    /// representation"), a strided host memcpy per matrix.
    Conversion,
    /// cuBLAS-MG computes on 2D block-cyclic device matrices: with data on
    /// the host it distributes the three operands before the call and
    /// gathers the result after, synchronously, over the PCIe uplinks in
    /// parallel.
    Staging,
}

impl Policy {
    /// The runtime configuration this policy simulates under.
    pub(crate) fn config(&self) -> RuntimeConfig {
        RuntimeConfig {
            heuristics: self.heuristics,
            scheduler: self.scheduler,
            window: self.window,
            cache_inputs: self.cache_inputs,
            ..RuntimeConfig::xkblas()
        }
    }
}

impl Host {
    /// Seconds of host work before and after a call of `params` on `topo`,
    /// and the total the library adds to `seconds`: Chameleon LAPACK adds
    /// one conversion total, staging its two synchronous phases.
    pub(crate) fn seconds(self, topo: &FabricSpec, params: &RunParams) -> (f64, f64, f64) {
        let matrix_bytes = (params.n * params.n * 8) as f64;
        let (inputs, bandwidth) = match self {
            Host::None => return (0.0, 0.0, 0.0),
            Host::Staging if params.data_on_device => return (0.0, 0.0, 0.0),
            Host::Staging => {
                let uplink = topo.route(Device::Host, Device::Gpu(0));
                (3.0, uplink.bandwidth * topo.n_switches() as f64)
            }
            // A, B and C in (A and C for SYRK; A and B for TRMM and TRSM),
            // the output out.
            Host::Conversion => match params.routine {
                Routine::Syrk | Routine::Trmm | Routine::Trsm => (2.0, CONVERSION_BW),
                Routine::Gemm | Routine::Symm | Routine::Syr2k => (3.0, CONVERSION_BW),
            },
        };
        let at = |matrices: f64| matrices * matrix_bytes / bandwidth;
        let total = if self == Host::Conversion { at(inputs + 1.0) } else { at(inputs) + at(1.0) };
        (at(inputs), at(1.0), total)
    }

    /// Records the host work around the simulated call `r`: shifts its
    /// trace past the work before the call, records both phases as spans,
    /// adds their seconds and bytes and recomputes the throughput.
    pub(crate) fn record(self, r: &mut RunResult, topo: &FabricSpec, params: &RunParams) {
        let (before, after, total) = self.seconds(topo, params);
        let call_end = before + r.seconds;
        r.trace.shift(before);
        let phases = [(0.0, before), (call_end, call_end + after)];
        if self == Host::Conversion {
            let label = r.trace.intern("layout conversion");
            for (start, end) in phases {
                let span = Span::on_gpu(0, 0, SpanKind::HostWork, 0, label, FlowId::NONE);
                r.trace.push(Span { place: Place::Host, start, end, ..span });
            }
        } else {
            // Each GPU moves its share of the bytes, the first GPUs one byte
            // more where the share does not divide.
            let matrix = 8 * (params.n * params.n) as u64;
            let gpus = topo.n_gpus() as u64;
            let share = |bytes: u64, g: usize| bytes / gpus + u64::from((g as u64) < bytes % gpus);
            let moves = [
                (SpanKind::H2D, 0, 3 * matrix, r.trace.intern("distribute"), phases[0]),
                (SpanKind::D2H, 2, matrix, r.trace.intern("gather"), phases[1]),
            ];
            for g in 0..topo.n_gpus() {
                for (kind, lane, bytes, label, (start, end)) in moves {
                    let span = Span::on_gpu(g, lane, kind, share(bytes, g), label, FlowId::NONE);
                    r.trace.push(Span { start, end, ..span });
                }
            }
            r.bytes_h2d += 3 * matrix;
            r.bytes_d2h += matrix;
        }
        r.seconds += total;
        r.tflops = params.routine.flops_square(params.n as u64) / r.seconds / 1e12;
    }
}

impl Library {
    /// This library's row.
    pub(crate) fn model(self) -> LibraryModel {
        use SchedulerKind::{Dmdas, LocalityWorkStealing, StaticOwner};
        let host_only = Heuristics::host_only();
        // XKBlas: locality work stealing over a 4-deep window, inputs cached,
        // LAPACK layout.
        let xkblas = Policy {
            scheduler: LocalityWorkStealing,
            heuristics: Heuristics::full(),
            window: 4,
            cache_inputs: true,
            tile_layout: false,
            host: Host::None,
        };
        // Chameleon/StarPU: dmdas, 2 workers per GPU (§IV-A), per-tile flush
        // tasks writing results back, no topology-aware source selection.
        // StarPU 1.3.5 on this machine stages transfers through the host
        // (the Chameleon trace of Fig. 6 shows DtoH/HtoD only).
        let chameleon = Policy { scheduler: Dmdas, heuristics: host_only, window: 8, ..xkblas };
        let row = |name, gemm_only, policy| LibraryModel {
            name,
            gemm_only,
            tiles: PAPER_TILES,
            max_n: None,
            data_on_device: true,
            engine: Engine::Runtime(policy),
        };
        let xk = |name, heuristics| row(name, false, Policy { heuristics, ..xkblas });
        let streams = |name, driver| LibraryModel {
            tiles: WIDE_TILES,
            data_on_device: false,
            engine: Engine::Streams(driver),
            ..row(name, false, xkblas)
        };
        match self {
            Library::XkBlas(XkVariant::Full) => xk("XKBlas", Heuristics::full()),
            Library::XkBlas(XkVariant::NoHeuristic) => {
                xk("XKBlas, no heuristic", Heuristics::no_optimistic())
            }
            Library::XkBlas(XkVariant::NoHeuristicNoTopo) => {
                xk("XKBlas, no heuristic, no topo", Heuristics::none())
            }
            // BLASX fails to allocate above N = 45000 (Fig. 5 caption): it
            // sizes its GPU tile cache by allocation, not by capacity
            // (arXiv:1510.05041). Below that it is the no-heuristic, no-topo
            // ablation: D2D from any valid peer (no NVLink ranks, no
            // in-flight forwarding) on the same graph. Its own two-level
            // cache is not modelled.
            Library::Blasx => LibraryModel {
                name: "BLASX",
                gemm_only: true,
                max_n: Some(45_000),
                ..Library::XkBlas(XkVariant::NoHeuristicNoTopo).model()
            },
            Library::ChameleonTile => {
                row("Chameleon Tile", false, Policy { tile_layout: true, ..chameleon })
            }
            Library::ChameleonLapack => {
                row("Chameleon LAPACK", false, Policy { host: Host::Conversion, ..chameleon })
            }
            // cuBLAS-MG: static owners of the 2D block-cyclic distribution,
            // P2P between them without topology ranks.
            Library::CublasMg => {
                let heuristics = Heuristics { topology_aware: false, ..Heuristics::full() };
                let owners = Policy { scheduler: StaticOwner, heuristics, window: 8, ..xkblas };
                row("cuBLAS-MG", true, Policy { tile_layout: true, host: Host::Staging, ..owners })
            }
            // DPLASMA: PaRSEC's accelerator support stages all data through
            // the host (its GEMM trace in Fig. 6 shows no PtoP); a data-on-host
            // run writes each result tile back by its flush task. Its GPU path
            // ca. 2021: one manager thread per device, shallow pipelining,
            // operands re-read per task (largest HtoD volume in Fig. 6).
            Library::Dplasma => {
                let (scheduler, heuristics, window) = (StaticOwner, host_only, 3);
                let owners = Policy { scheduler, heuristics, window, tile_layout: true, ..xkblas };
                row("DPLASMA", true, Policy { cache_inputs: false, ..owners })
            }
            Library::CublasXt => streams("cuBLAS-XT", run_cublasxt),
            Library::Slate => streams("Slate", run_slate),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write;

    fn conversion_seconds(routine: Routine, n: usize) -> f64 {
        let params = RunParams { routine, n, tile: 1024, data_on_device: false };
        Host::Conversion.seconds(&xk_topo::dgx1(), &params).2
    }

    #[test]
    fn gemm_conversion_scales_quadratically() {
        let t1 = conversion_seconds(Routine::Gemm, 10_000);
        let t2 = conversion_seconds(Routine::Gemm, 20_000);
        assert!((t2 / t1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn syrk_converts_fewer_matrices_than_gemm() {
        let g = conversion_seconds(Routine::Gemm, 8192);
        let s = conversion_seconds(Routine::Syrk, 8192);
        assert!(s < g);
    }

    #[test]
    fn magnitude_sanity() {
        // 32768^2 doubles ≈ 8.6 GB per matrix; 4 conversions ≈ 5.7 s at
        // 6 GB/s — the same order as the GEMM compute itself, which is what
        // makes Chameleon LAPACK ~5x slower in the paper.
        let t = conversion_seconds(Routine::Gemm, 32768);
        assert!(t > 3.0 && t < 10.0, "{t}");
    }

    /// Every row, one line each: name, routines, tiles, allocation limit,
    /// methodologies, and the engine with every policy field.
    #[test]
    fn golden_library_table() {
        let ablations = [XkVariant::NoHeuristic, XkVariant::NoHeuristicNoTopo];
        let libraries = Library::FIG5.into_iter().chain(ablations.map(Library::XkBlas));
        let mut table = String::new();
        for lib in libraries {
            let m = lib.model();
            let routines = if m.gemm_only { "GEMM" } else { "all" };
            let limit = m.max_n.map_or("none".to_string(), |n| format!("n <= {n}"));
            let methods = if m.data_on_device { "host+device" } else { "host" };
            let engine = match m.engine {
                Engine::Streams(_) => "own streams".to_string(),
                Engine::Runtime(p) => {
                    let h = p.heuristics;
                    let layout = if p.tile_layout { "tile" } else { "LAPACK" };
                    format!(
                        "{:?} topo={} optimistic={} d2d={} window={} cache={} {layout} host={:?}",
                        p.scheduler,
                        h.topology_aware,
                        h.optimistic_d2d,
                        h.allow_d2d,
                        p.window,
                        p.cache_inputs,
                        p.host
                    )
                }
            };
            let (name, tiles) = (m.name, m.tiles);
            let line = format!("{name} | {routines} | {tiles:?} | {limit} | {methods} | {engine}");
            writeln!(table, "{line}").unwrap();
        }
        let want = "\
BLASX | GEMM | [1024, 2048, 4096] | n <= 45000 | host+device | \
LocalityWorkStealing topo=false optimistic=false d2d=true window=4 cache=true LAPACK host=None
Chameleon LAPACK | all | [1024, 2048, 4096] | none | host+device | \
Dmdas topo=false optimistic=false d2d=false window=8 cache=true LAPACK host=Conversion
Chameleon Tile | all | [1024, 2048, 4096] | none | host+device | \
Dmdas topo=false optimistic=false d2d=false window=8 cache=true tile host=None
cuBLAS-MG | GEMM | [1024, 2048, 4096] | none | host+device | \
StaticOwner topo=false optimistic=true d2d=true window=8 cache=true tile host=Staging
cuBLAS-XT | all | [1024, 2048, 4096, 8192, 16384] | none | host | own streams
DPLASMA | GEMM | [1024, 2048, 4096] | none | host+device | \
StaticOwner topo=false optimistic=false d2d=false window=3 cache=false tile host=None
Slate | all | [1024, 2048, 4096, 8192, 16384] | none | host | own streams
XKBlas | all | [1024, 2048, 4096] | none | host+device | \
LocalityWorkStealing topo=true optimistic=true d2d=true window=4 cache=true LAPACK host=None
XKBlas, no heuristic | all | [1024, 2048, 4096] | none | host+device | \
LocalityWorkStealing topo=true optimistic=false d2d=true window=4 cache=true LAPACK host=None
XKBlas, no heuristic, no topo | all | [1024, 2048, 4096] | none | host+device | \
LocalityWorkStealing topo=false optimistic=false d2d=true window=4 cache=true LAPACK host=None
";
        assert_eq!(table, want);
    }
}
