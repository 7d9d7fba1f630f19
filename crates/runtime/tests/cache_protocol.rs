//! Seeded property tests of the software-cache protocol: random operation
//! sequences must preserve the MOSI + UnderTransfer invariants.

use std::collections::BTreeSet;

use xk_lp::{for_each_seed, SplitMix64};
use xk_runtime::{DataInfo, DataRegistry, HandleId, SoftwareCache};
use xk_sim::SimTime;

#[derive(Clone, Copy, Debug)]
enum Op {
    BeginTransfer { h: usize, g: usize, ready: f64 },
    MarkWritten { h: usize, g: usize },
    Flush { h: usize },
    Touch { h: usize, g: usize },
    MakeRoom { g: usize, bytes: u64 },
    PinUnpin { h: usize, g: usize },
}

fn random_op(rng: &mut SplitMix64, n_handles: usize, n_gpus: usize) -> Op {
    let (h, g) = (rng.usize_in(0, n_handles), rng.usize_in(0, n_gpus));
    match rng.next_below(6) {
        0 => Op::BeginTransfer { h, g, ready: rng.f64_in(0.0, 10.0) },
        1 => Op::MarkWritten { h, g },
        2 => Op::Flush { h },
        3 => Op::Touch { h, g },
        4 => Op::MakeRoom { g, bytes: 1 + rng.next_below(1999) },
        _ => Op::PinUnpin { h, g },
    }
}

/// `lo..hi` distinct handle indices out of `0..8`.
fn handle_set(rng: &mut SplitMix64, lo: usize, hi: usize) -> BTreeSet<usize> {
    let size = rng.usize_in(lo, hi);
    let mut set = BTreeSet::new();
    while set.len() < size {
        set.insert(rng.usize_in(0, 8));
    }
    set
}

fn registry(n: usize) -> DataRegistry {
    let mut reg = DataRegistry::new();
    for i in 0..n {
        reg.add(DataInfo::host(512, i % 2 == 0, format!("t{i}")));
    }
    reg
}

/// After any sequence of operations:
/// * at most one device holds a dirty copy,
/// * a handle is never simultaneously dirty and host-valid,
/// * per-device byte accounting is exact,
/// * a written-then-unflushed handle always has *some* valid replica.
#[test]
fn protocol_invariants_hold() {
    for_each_seed(64, |rng| {
        let reg = registry(6);
        let mut cache = SoftwareCache::new(4, 4096, &reg);
        for _ in 0..rng.usize_in(1, 80) {
            match random_op(rng, 6, 4) {
                Op::BeginTransfer { h, g, ready } => {
                    // Only meaningful if a source exists: host-valid or
                    // some valid replica (mirrors the executor contract).
                    cache.begin_transfer(HandleId(h), g, 512, SimTime::new(ready));
                }
                Op::MarkWritten { h, g } => {
                    cache.mark_written(HandleId(h), g, 512, &reg);
                }
                Op::Flush { h } => {
                    let h = HandleId(h);
                    if cache.dirty_on(h).is_some() {
                        cache.mark_flushed(h);
                    }
                }
                Op::Touch { h, g } => cache.touch(HandleId(h), g),
                Op::MakeRoom { g, bytes } => {
                    let _ = cache.make_room(g, bytes, &[], &reg);
                }
                Op::PinUnpin { h, g } => {
                    let h = HandleId(h);
                    cache.pin(h, g);
                    cache.unpin(h, g);
                }
            }
            cache.check_invariants(&reg).unwrap();
            // Dirty handles must hold a valid replica somewhere.
            for (h, _) in reg.iter() {
                if let Some(owner) = cache.dirty_on(h) {
                    assert!(
                        cache.valid_on(h, owner, SimTime::new(1e12)),
                        "dirty {h:?} has no replica on gpu{owner}"
                    );
                }
            }
        }
    });
}

/// `make_room` never evicts pinned handles and always leaves byte
/// accounting consistent.
#[test]
fn make_room_respects_pins() {
    for_each_seed(64, |rng| {
        let resident = handle_set(rng, 1, 8);
        let pinned = handle_set(rng, 0, 4);
        let request = 1 + rng.next_below(4095);
        let reg = registry(8);
        let mut cache = SoftwareCache::new(1, 2048, &reg);
        for &h in &resident {
            cache.begin_transfer(HandleId(h), 0, 512, SimTime::ZERO);
        }
        for &h in &pinned {
            cache.pin(HandleId(h), 0);
        }
        let _ = cache.make_room(0, request, &[], &reg);
        cache.check_invariants(&reg).unwrap();
        for &h in pinned.intersection(&resident) {
            assert!(cache.replica(HandleId(h), 0).is_some(), "pinned handle {h} evicted");
        }
    });
}

/// Under-transfer replicas become valid exactly at their deadline.
#[test]
fn under_transfer_deadline() {
    for_each_seed(64, |rng| {
        let (ready, eps) = (rng.f64_in(0.1, 100.0), rng.f64_in(1e-6, 0.05));
        let reg = registry(1);
        let mut cache = SoftwareCache::new(1, 4096, &reg);
        let h = HandleId(0);
        cache.begin_transfer(h, 0, 512, SimTime::new(ready));
        assert!(!cache.valid_on(h, 0, SimTime::new(ready - eps)));
        assert!(cache.valid_on(h, 0, SimTime::new(ready)));
        assert_eq!(cache.in_flight(h, SimTime::new(ready - eps)).len(), 1);
        assert!(cache.in_flight(h, SimTime::new(ready)).is_empty());
    });
}
