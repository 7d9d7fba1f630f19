//! The CSR-based `TaskGraph` must infer exactly the edges the seed's
//! straightforward representation did: per-handle histories in a HashMap,
//! `readers_since_write` as owned Vecs, successors as `Vec<Vec<TaskId>>`.
//! This oracle replays that algorithm over random access sequences
//! (Read/Write/ReadWrite mixes, duplicate handles, flushes) and compares
//! edge-for-edge.

use std::collections::HashMap;

use xk_kernels::perfmodel::TileOp;
use xk_lp::{for_each_seed, SplitMix64};
use xk_runtime::{Access, HandleId, TaskAccess, TaskGraph, TaskId};

fn op() -> TileOp {
    TileOp::Gemm { m: 8, n: 8, k: 8 }
}

/// One submitted operation of the random program.
#[derive(Clone, Debug)]
enum Op {
    /// A kernel task: `(handle index, access mode)` pairs, duplicates allowed.
    Task(Vec<(usize, Access)>),
    /// A flush over a set of handle indices.
    Flush(Vec<usize>),
}

/// The seed's graph algorithm, verbatim: the reference the CSR graph must
/// reproduce.
#[derive(Default)]
struct Oracle {
    last_writer: HashMap<usize, usize>,
    readers_since_write: HashMap<usize, Vec<usize>>,
    successors: Vec<Vec<usize>>,
    n_predecessors: Vec<usize>,
    predecessors: Vec<Vec<usize>>,
    n_edges: usize,
}

impl Oracle {
    fn push(&mut self, accesses: &[(usize, Access)]) {
        let id = self.successors.len();
        let mut deps: Vec<usize> = Vec::new();
        for &(h, acc) in accesses {
            if acc.reads() {
                if let Some(&w) = self.last_writer.get(&h) {
                    deps.push(w);
                }
            }
            if acc.writes() {
                if let Some(&w) = self.last_writer.get(&h) {
                    deps.push(w);
                }
                deps.extend(
                    self.readers_since_write
                        .get(&h)
                        .into_iter()
                        .flatten()
                        .copied(),
                );
            }
        }
        deps.sort_unstable();
        deps.dedup();
        deps.retain(|&d| d != id);
        for &(h, acc) in accesses {
            if acc.writes() {
                self.last_writer.insert(h, id);
                self.readers_since_write.entry(h).or_default().clear();
            } else if acc.reads() {
                self.readers_since_write.entry(h).or_default().push(id);
            }
        }
        self.successors.push(Vec::new());
        self.n_predecessors.push(deps.len());
        for &d in &deps {
            self.successors[d].push(id);
            self.n_edges += 1;
        }
        self.predecessors.push(deps);
    }
}

/// A random program over `n_handles` handles: `1..120` ops, tasks (1–4
/// accesses, duplicate handles allowed) four times as likely as flushes
/// (1–3 handles).
fn random_ops(rng: &mut SplitMix64, n_handles: usize) -> Vec<Op> {
    (0..rng.usize_in(1, 120))
        .map(|_| {
            if rng.next_below(5) < 4 {
                let accesses = (0..rng.usize_in(1, 5)).map(|_| {
                    let access = rng.pick(&[Access::Read, Access::Write, Access::ReadWrite]);
                    (rng.usize_in(0, n_handles), access)
                });
                Op::Task(accesses.collect())
            } else {
                Op::Flush((0..rng.usize_in(1, 4)).map(|_| rng.usize_in(0, n_handles)).collect())
            }
        })
        .collect()
}

/// Submits one op to the graph under test and to the oracle.
fn submit(op_desc: &Op, g: &mut TaskGraph, handles: &[HandleId], oracle: &mut Oracle) {
    match op_desc {
        Op::Task(accs) => {
            let accesses: Vec<TaskAccess> = accs
                .iter()
                .map(|&(h, access)| TaskAccess { handle: handles[h], access })
                .collect();
            g.add_task(op(), accesses, "t");
            oracle.push(accs);
        }
        Op::Flush(hs) => {
            let unique: Vec<_> = hs.iter().map(|&h| handles[h]).collect();
            g.add_flush(&unique, "f");
            let accs: Vec<(usize, Access)> = hs.iter().map(|&h| (h, Access::Read)).collect();
            oracle.push(&accs);
        }
    }
}

#[test]
fn csr_matches_per_task_vec_oracle() {
    for_each_seed(256, |rng| {
        let ops = random_ops(rng, 16);
        let mut g = TaskGraph::new();
        let handles: Vec<_> = (0..16)
            .map(|i| g.add_host_tile(64, false, format!("h{i}")))
            .collect();
        let mut oracle = Oracle::default();

        for op_desc in &ops {
            submit(op_desc, &mut g, &handles, &mut oracle);
        }

        assert_eq!(g.len(), oracle.successors.len());
        assert_eq!(g.n_edges(), oracle.n_edges);
        let pred_counts: Vec<usize> = g.pred_counts().collect();
        assert_eq!(&pred_counts, &oracle.n_predecessors);
        for t in 0..g.len() {
            let id = TaskId(t);
            let preds: Vec<usize> = g.predecessors(id).map(|p| p.0).collect();
            assert_eq!(&preds, &oracle.predecessors[t], "predecessors of task {t}");
            let succs: Vec<usize> = g.successors(id).iter().map(|s| s.0).collect();
            assert_eq!(&succs, &oracle.successors[t], "successors of task {t}");
        }
        let roots: Vec<usize> = g.roots().iter().map(|r| r.0).collect();
        let oracle_roots: Vec<usize> = oracle
            .n_predecessors
            .iter()
            .enumerate()
            .filter(|(_, &n)| n == 0)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(roots, oracle_roots);
    });
}

#[test]
fn interleaved_queries_stay_consistent() {
    // Query successors *between* pushes: the lazy successor cache must
    // invalidate and rebuild correctly.
    for_each_seed(256, |rng| {
        let ops = random_ops(rng, 8);
        let mut g = TaskGraph::new();
        let handles: Vec<_> = (0..8)
            .map(|i| g.add_host_tile(64, false, format!("h{i}")))
            .collect();
        let mut oracle = Oracle::default();
        for (step, op_desc) in ops.iter().enumerate() {
            submit(op_desc, &mut g, &handles, &mut oracle);
            if step % 3 == 0 {
                // Force a (to-be-invalidated) successor CSR build mid-stream.
                let t = TaskId(step % g.len().max(1));
                let succs: Vec<usize> = g.successors(t).iter().map(|s| s.0).collect();
                assert_eq!(&succs, &oracle.successors[t.0]);
            }
        }
        for t in 0..g.len() {
            let succs: Vec<usize> = g.successors(TaskId(t)).iter().map(|s| s.0).collect();
            assert_eq!(&succs, &oracle.successors[t]);
        }
    });
}
