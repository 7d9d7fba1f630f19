//! The paper's two transfer-source heuristics (§III-B, §III-C).
//!
//! Both sit at the same interface as in XKBlas: *between* the scheduler
//! (which already chose the destination GPU for a task) and the data layer
//! that initiates input transfers. They decide **where a tile comes from**.

use xk_sim::SimTime;
use xk_topo::FabricSpec;

use crate::cache::{ReplicaState, SoftwareCache};
use crate::config::Heuristics;
use crate::data::HandleId;

/// The source decision for one input tile of a task mapped on `dst`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum SourceDecision {
    /// Already valid (or already inbound) on the destination; usable at the
    /// given time without any new transfer.
    AlreadyThere {
        /// When the local replica is (or becomes) valid.
        ready_at: SimTime,
    },
    /// Copy device-to-device from a GPU holding a valid replica.
    FromGpu {
        /// Source GPU index.
        src: usize,
    },
    /// §III-C optimistic path: wait for the in-flight replica landing on
    /// `via`, then forward it device-to-device from there.
    ForwardAfter {
        /// The GPU the tile is currently being transferred to.
        via: usize,
        /// When that inbound transfer completes.
        ready_at: SimTime,
    },
    /// Read from host memory over the destination's PCIe link.
    FromHost,
}

/// Picks the transfer source for handle `h` needed on GPU `dst` at `now`.
///
/// Decision ladder (paper §III-B/III-C):
/// 1. Valid (or inbound) on `dst` → no transfer.
/// 2. Valid on some GPU → pick a source among them. With
///    `topology_aware`, sort by descending P2P performance rank to `dst`
///    (ties broken by `tie_break`, typically the GPU whose outbound engine
///    frees first); without it, take the lowest-index valid GPU —
///    the "no topo" ablation of Fig. 3. Where every peer has the same
///    rank, the two paths differ only in that tie-break.
/// 3. No valid GPU replica, but one is in flight and `optimistic_d2d` is
///    on → wait for the best in-flight replica and forward D2D.
/// 4. Fall back to the host.
///
/// `candidates` is caller-owned scratch (contents ignored and clobbered):
/// the slice handed to `tie_break` lives there, so a decision allocates
/// nothing once it has grown to the GPU count.
#[allow(clippy::too_many_arguments)]
pub fn select_source(
    h: HandleId,
    dst: usize,
    now: SimTime,
    cache: &SoftwareCache,
    topo: &FabricSpec,
    cfg: Heuristics,
    candidates: &mut Vec<usize>,
    tie_break: &mut dyn FnMut(&[usize]) -> usize,
) -> SourceDecision {
    // 1. Local replica (valid now or inbound).
    match cache.replica(h, dst) {
        Some(ReplicaState::Valid) => {
            return SourceDecision::AlreadyThere { ready_at: now };
        }
        Some(ReplicaState::UnderTransfer { ready_at }) => {
            return SourceDecision::AlreadyThere {
                ready_at: ready_at.max(now),
            };
        }
        None => {}
    }

    // 2. Valid peer replicas (unless D2D is disabled entirely).
    if !cfg.allow_d2d {
        if cache.host_valid(h) {
            return SourceDecision::FromHost;
        }
        // Data only lives on a device (e.g. not yet flushed): the single
        // dirty holder is the only possible source.
        return SourceDecision::FromGpu {
            src: cache.valid_holders(h, now).next().expect("some replica must exist"),
        };
    }
    candidates.clear();
    candidates.extend(cache.valid_holders(h, now).filter(|&g| g != dst));
    if !candidates.is_empty() {
        let src = if cfg.topology_aware {
            let rank = |g: usize| topo.perf_rank(g, dst);
            let best_rank = candidates.iter().map(|&g| rank(g)).max().expect("peers non-empty");
            candidates.retain(|&g| rank(g) == best_rank);
            candidates[tie_break(candidates).min(candidates.len() - 1)]
        } else {
            // No topology awareness: arbitrary (first) valid source.
            candidates[0]
        };
        return SourceDecision::FromGpu { src };
    }

    // 3. Optimistic: the best in-flight replica — best link first (when
    // topology-aware), then earliest arrival, then lowest index.
    if cfg.optimistic_d2d {
        let key = |&(g, ready_at): &(usize, SimTime)| {
            let rank = if cfg.topology_aware { topo.perf_rank(g, dst) } else { 0 };
            (std::cmp::Reverse(rank), ready_at, g)
        };
        if let Some((via, ready_at)) = cache.inbound_holders(h, now).min_by_key(key) {
            return SourceDecision::ForwardAfter { via, ready_at };
        }
    }

    // 4. Host.
    debug_assert!(
        cache.host_valid(h),
        "no valid replica anywhere for {h:?} — graph dependency bug"
    );
    SourceDecision::FromHost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{DataInfo, DataRegistry};
    use xk_topo::{dgx1, Device};

    fn setup(n: usize) -> (DataRegistry, SoftwareCache) {
        let mut reg = DataRegistry::new();
        for i in 0..n {
            reg.add(DataInfo {
                bytes: 100,
                pitched: false,
                initial: Device::Host,
                label: format!("t{i}"),
                owner_hint: None,
            });
        }
        let cache = SoftwareCache::new(8, 1 << 30, &reg);
        (reg, cache)
    }

    fn tb() -> impl FnMut(&[usize]) -> usize {
        |_: &[usize]| 0
    }

    #[test]
    fn falls_back_to_host_when_nothing_cached() {
        let (_, cache) = setup(1);
        let topo = dgx1();
        let d = select_source(
            HandleId(0),
            3,
            SimTime::ZERO,
            &cache,
            &topo,
            Heuristics::full(),
            &mut Vec::new(),
            &mut tb(),
        );
        assert_eq!(d, SourceDecision::FromHost);
    }

    #[test]
    fn local_replica_wins() {
        let (_, mut cache) = setup(1);
        let topo = dgx1();
        cache.begin_transfer(HandleId(0), 3, 100, SimTime::new(2.0));
        // At t=1 it is inbound: usable at 2.0 without new transfer.
        let d = select_source(
            HandleId(0),
            3,
            SimTime::new(1.0),
            &cache,
            &topo,
            Heuristics::full(),
            &mut Vec::new(),
            &mut tb(),
        );
        assert_eq!(
            d,
            SourceDecision::AlreadyThere {
                ready_at: SimTime::new(2.0)
            }
        );
    }

    #[test]
    fn topology_aware_picks_best_rank() {
        // GPU0's peers: gpu3 (rank 2), gpu1 (rank 1), gpu7 (rank 0).
        let (_, mut cache) = setup(1);
        let topo = dgx1();
        let h = HandleId(0);
        for g in [1, 3, 7] {
            cache.begin_transfer(h, g, 100, SimTime::ZERO);
        }
        let now = SimTime::new(1.0);
        let d = select_source(h, 0, now, &cache, &topo, Heuristics::full(), &mut Vec::new(), &mut tb());
        assert_eq!(d, SourceDecision::FromGpu { src: 3 });
        // Without topology awareness: first valid index (gpu1).
        let d2 = select_source(h, 0, now, &cache, &topo, Heuristics::none(), &mut Vec::new(), &mut tb());
        assert_eq!(d2, SourceDecision::FromGpu { src: 1 });
    }

    #[test]
    fn optimistic_waits_for_inflight() {
        let (_, mut cache) = setup(1);
        let topo = dgx1();
        let h = HandleId(0);
        // In flight to gpu4 (rank 2 to gpu0), completes at t=5.
        cache.begin_transfer(h, 4, 100, SimTime::new(5.0));
        let now = SimTime::new(1.0);
        let full = select_source(h, 0, now, &cache, &topo, Heuristics::full(), &mut Vec::new(), &mut tb());
        assert_eq!(
            full,
            SourceDecision::ForwardAfter {
                via: 4,
                ready_at: SimTime::new(5.0)
            }
        );
        // With the optimistic heuristic disabled: host fallback.
        let no_h = select_source(
            h,
            0,
            now,
            &cache,
            &topo,
            Heuristics::no_optimistic(),
            &mut Vec::new(),
            &mut tb(),
        );
        assert_eq!(no_h, SourceDecision::FromHost);
    }

    #[test]
    fn optimistic_prefers_best_link_then_earliest() {
        let (_, mut cache) = setup(1);
        let topo = dgx1();
        let h = HandleId(0);
        // gpu1 (rank 1 to gpu0) arrives at t=2; gpu4 (rank 2) at t=4.
        cache.begin_transfer(h, 1, 100, SimTime::new(2.0));
        cache.begin_transfer(h, 4, 100, SimTime::new(4.0));
        let d = select_source(
            h,
            0,
            SimTime::ZERO,
            &cache,
            &topo,
            Heuristics::full(),
            &mut Vec::new(),
            &mut tb(),
        );
        assert_eq!(
            d,
            SourceDecision::ForwardAfter {
                via: 4,
                ready_at: SimTime::new(4.0)
            }
        );
        // Topology off: earliest arrival wins.
        let d2 = select_source(
            h,
            0,
            SimTime::ZERO,
            &cache,
            &topo,
            Heuristics {
                topology_aware: false,
                optimistic_d2d: true,
                allow_d2d: true,
            },
            &mut Vec::new(),
            &mut tb(),
        );
        assert_eq!(
            d2,
            SourceDecision::ForwardAfter {
                via: 1,
                ready_at: SimTime::new(2.0)
            }
        );
    }

    #[test]
    fn valid_peer_beats_inflight() {
        let (_, mut cache) = setup(1);
        let topo = dgx1();
        let h = HandleId(0);
        cache.begin_transfer(h, 7, 100, SimTime::new(0.5)); // valid at 0.5
        cache.begin_transfer(h, 4, 100, SimTime::new(9.0)); // still in flight
        let d = select_source(
            h,
            0,
            SimTime::new(1.0),
            &cache,
            &topo,
            Heuristics::full(),
            &mut Vec::new(),
            &mut tb(),
        );
        assert_eq!(d, SourceDecision::FromGpu { src: 7 });
    }

    #[test]
    fn tie_break_consulted_for_equal_ranks() {
        // gpu3 and gpu4 both have rank 2 to gpu0.
        let (_, mut cache) = setup(1);
        let topo = dgx1();
        let h = HandleId(0);
        cache.begin_transfer(h, 3, 100, SimTime::ZERO);
        cache.begin_transfer(h, 4, 100, SimTime::ZERO);
        let now = SimTime::new(1.0);
        let mut pick_last = |c: &[usize]| c.len() - 1;
        let d = select_source(h, 0, now, &cache, &topo, Heuristics::full(), &mut Vec::new(), &mut pick_last);
        assert_eq!(d, SourceDecision::FromGpu { src: 4 });
    }

    #[test]
    fn equal_ranks_reach_the_tie_break_only_when_topology_aware() {
        // Every NVSwitch peer has the same rank, so the rank filter keeps
        // every holder. What then separates "no heuristic" from "no
        // heuristic, no topo" is who breaks the tie, not the topology.
        let (_, mut cache) = setup(1);
        let topo = xk_topo::fabrics::dgx2(16);
        let h = HandleId(0);
        for g in [2, 5, 7] {
            cache.begin_transfer(h, g, 100, SimTime::ZERO);
        }
        let now = SimTime::new(1.0);
        let mut offered = Vec::new();
        let mut pick_last = |c: &[usize]| {
            offered = c.to_vec();
            c.len() - 1
        };
        let aware = Heuristics::no_optimistic();
        let d = select_source(h, 0, now, &cache, &topo, aware, &mut Vec::new(), &mut pick_last);
        assert_eq!(offered, [2, 5, 7]);
        assert_eq!(d, SourceDecision::FromGpu { src: 7 });
        let mut never = |_: &[usize]| -> usize { panic!("the no-topo path took a tie-break") };
        let d = select_source(h, 0, now, &cache, &topo, Heuristics::none(), &mut Vec::new(), &mut never);
        assert_eq!(d, SourceDecision::FromGpu { src: 2 });
    }
}
