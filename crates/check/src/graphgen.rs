//! Seeded random task-graph generators: the DAGs this crate explores and
//! the benchmark's `check_matrix` workload replays.

use xk_kernels::perfmodel::TileOp;
use xk_runtime::{Access, HandleId, TaskAccess, TaskGraph, TaskLabel};

/// Shape of a randomly generated DAG (see [`build_random_dag`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RandomDagSpec {
    /// Number of kernel tasks.
    pub tasks: usize,
    /// Number of data tiles.
    pub handles: usize,
    /// Maximum extra read accesses per task (each task always reads/writes
    /// one target tile; 0..=`max_reads` additional tiles are read).
    pub max_reads: usize,
    /// Size of every tile in bytes.
    pub tile_bytes: u64,
    /// `Some(n_gpus)`: tiles start resident on GPUs, round-robin over
    /// `n_gpus` devices (the data-on-device protocol of the paper's
    /// Fig. 4); `None`: tiles start in host memory.
    pub on_device: Option<usize>,
    /// Append a final flush task reading every tile (results-home barrier).
    pub flush: bool,
}

impl Default for RandomDagSpec {
    fn default() -> Self {
        RandomDagSpec {
            tasks: 24,
            handles: 8,
            max_reads: 2,
            tile_bytes: 1 << 20,
            on_device: None,
            flush: false,
        }
    }
}

/// xorshift64* — enough entropy for structural choices, zero dependencies,
/// and stable across platforms (graph shape is part of a replay seed).
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Builds a seeded random task DAG: `spec.tasks` kernel tasks over
/// `spec.handles` tiles, each read-writing one pseudo-random target tile
/// and reading up to `spec.max_reads` others. Dependencies arise from the
/// usual read/write access inference, so the same `(seed, spec)` always
/// produces the same graph — a failing schedule is replayable from the
/// pair alone.
pub fn build_random_dag(seed: u64, spec: &RandomDagSpec) -> TaskGraph {
    build_random_dag_placed(seed, spec, |g| g)
}

/// [`build_random_dag`] with a relabeled initial placement: tile `i` lands
/// on GPU `place(i % n_gpus)` instead of `i % n_gpus`. The graph structure
/// (tasks, accesses, dependencies) is identical for identical seeds —
/// only the `on_device` homes move, which is what the GPU-permutation
/// metamorphic oracle varies. `place` is ignored for host placement.
pub fn build_random_dag_placed(
    seed: u64,
    spec: &RandomDagSpec,
    place: impl Fn(usize) -> usize,
) -> TaskGraph {
    assert!(spec.handles > 0 && spec.tasks > 0, "empty spec");
    // Seed 0 is a fixed point of xorshift; displace it like splitmix would.
    let mut rng = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut g = TaskGraph::new();
    let handles: Vec<HandleId> = (0..spec.handles)
        .map(|i| match spec.on_device {
            Some(n_gpus) => g.add_data(xk_runtime::DataInfo::on_gpu(
                spec.tile_bytes,
                place(i % n_gpus.max(1)),
                format!("d{i}"),
            )),
            None => g.add_host_tile(spec.tile_bytes, false, format!("d{i}")),
        })
        .collect();
    // A small op palette: equal durations on some tasks create the event
    // ties a schedule checker wants to explore.
    let ops = [
        TileOp::Gemm { m: 256, n: 256, k: 256 },
        TileOp::Gemm { m: 384, n: 384, k: 384 },
        TileOp::Gemm { m: 256, n: 256, k: 256 },
    ];
    for t in 0..spec.tasks {
        let target = handles[(xorshift(&mut rng) as usize) % handles.len()];
        let n_reads = if spec.max_reads == 0 {
            0
        } else {
            (xorshift(&mut rng) as usize) % (spec.max_reads + 1)
        };
        let mut accesses = Vec::with_capacity(n_reads + 1);
        accesses.push(TaskAccess { handle: target, access: Access::ReadWrite });
        for _ in 0..n_reads {
            let h = handles[(xorshift(&mut rng) as usize) % handles.len()];
            if h != target && !accesses.iter().any(|a| a.handle == h) {
                accesses.push(TaskAccess { handle: h, access: Access::Read });
            }
        }
        let op = ops[(xorshift(&mut rng) as usize) % ops.len()];
        g.add_task(op, accesses, TaskLabel::tile("rnd", 't', t, 0));
    }
    if spec.flush {
        g.add_flush(&handles, "flush");
    }
    g.finalize();
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use xk_runtime::TaskId;

    #[test]
    fn random_dag_is_deterministic_per_seed() {
        let spec = RandomDagSpec::default();
        let a = build_random_dag(42, &spec);
        let b = build_random_dag(42, &spec);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.n_edges(), b.n_edges());
        for t in 0..a.len() {
            let sa: Vec<usize> = a.successors(TaskId(t)).iter().map(|s| s.0).collect();
            let sb: Vec<usize> = b.successors(TaskId(t)).iter().map(|s| s.0).collect();
            assert_eq!(sa, sb, "successors of task {t}");
        }
        // Different seeds virtually always give a different edge structure.
        let c = build_random_dag(43, &spec);
        let edges = |g: &TaskGraph| -> Vec<(usize, usize)> {
            (0..g.len())
                .flat_map(|t| {
                    g.successors(TaskId(t)).iter().map(move |s| (t, s.0)).collect::<Vec<_>>()
                })
                .collect()
        };
        assert_ne!(edges(&a), edges(&c), "seed must steer the structure");
    }

    #[test]
    fn random_dag_honors_placement_and_flush() {
        let spec = RandomDagSpec {
            tasks: 10,
            handles: 6,
            on_device: Some(4),
            flush: true,
            ..RandomDagSpec::default()
        };
        let g = build_random_dag(7, &spec);
        assert_eq!(g.len(), 11, "10 kernels + 1 flush");
        for i in 0..6 {
            let info = g.data().info(xk_runtime::HandleId(i));
            assert_eq!(
                info.initial,
                xk_topo::Device::Gpu(i % 4),
                "tile {i} placement"
            );
        }
        let host = build_random_dag(7, &RandomDagSpec { on_device: None, ..spec });
        assert!((0..6).all(|i| {
            host.data().info(xk_runtime::HandleId(i)).initial == xk_topo::Device::Host
        }));
    }
}
