//! Seeded property tests of the software-cache protocol: random operation
//! sequences must preserve the MOSI + UnderTransfer invariants.

use std::collections::{BTreeSet, HashMap};

use xk_lp::{for_each_seed, SplitMix64};
use xk_runtime::{DataInfo, DataRegistry, Eviction, HandleId, ReplicaState, SoftwareCache};
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
                    let _ = cache.make_room(g, bytes, &[], &reg, &mut |_| 0);
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
        let _ = cache.make_room(0, request, &[], &reg, &mut |_| 0);
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

/// Reference model of the cache: the hash-map representation the dense
/// table replaced, kept here as its oracle. Replicas (with their LRU stamp)
/// and pin counts are keyed by `(gpu, handle)`.
struct Model {
    replicas: HashMap<(usize, usize), (ReplicaState, u64)>,
    pins: HashMap<(usize, usize), u32>,
    used: Vec<u64>,
    host_valid: Vec<bool>,
    dirty_on: Vec<Option<usize>>,
    capacity: u64,
    clock: u64,
}

impl Model {
    fn new(n_gpus: usize, capacity: u64, reg: &DataRegistry) -> Self {
        let mut m = Model {
            replicas: HashMap::new(),
            pins: HashMap::new(),
            used: vec![0; n_gpus],
            host_valid: vec![false; reg.len()],
            dirty_on: vec![None; reg.len()],
            capacity,
            clock: 0,
        };
        for (h, info) in reg.iter() {
            match info.initial.gpu_index() {
                None => m.host_valid[h.0] = true,
                Some(g) => {
                    m.replicas.insert((g, h.0), (ReplicaState::Valid, 0));
                    m.used[g] += info.bytes;
                    m.dirty_on[h.0] = Some(g);
                }
            }
        }
        m
    }

    fn install(&mut self, h: usize, g: usize, state: ReplicaState, bytes: u64) {
        self.clock += 1;
        if self.replicas.insert((g, h), (state, self.clock)).is_none() {
            self.used[g] += bytes;
        }
    }

    fn remove(&mut self, h: usize, g: usize, bytes: u64) {
        if self.replicas.remove(&(g, h)).is_some() {
            self.used[g] -= bytes;
        }
    }

    fn mark_written(&mut self, h: usize, g: usize, bytes: u64) {
        for peer in (0..self.used.len()).filter(|&p| p != g) {
            self.remove(h, peer, bytes);
        }
        self.install(h, g, ReplicaState::Valid, bytes);
        (self.host_valid[h], self.dirty_on[h]) = (false, Some(g));
    }

    fn pinned(&self, h: usize, g: usize) -> bool {
        self.pins.get(&(g, h)).is_some_and(|&c| c > 0)
    }

    fn unpin(&mut self, h: usize, g: usize) {
        if let Some(c) = self.pins.get_mut(&(g, h)) {
            *c = c.saturating_sub(1);
        }
    }

    fn touch(&mut self, h: usize, g: usize) {
        self.clock += 1;
        if let Some(r) = self.replicas.get_mut(&(g, h)) {
            r.1 = self.clock;
        }
    }

    fn make_room(
        &mut self,
        g: usize,
        bytes: u64,
        keep: &[HandleId],
        reg: &DataRegistry,
        pick: &mut dyn FnMut(usize) -> usize,
    ) -> Vec<Eviction> {
        let mut out = Vec::new();
        let mut candidates: Vec<(bool, u64, usize)> = self
            .replicas
            .iter()
            .filter(|(&(dev, h), _)| dev == g && !keep.contains(&HandleId(h)) && !self.pinned(h, g))
            .map(|(&(_, h), &(_, lru))| (self.dirty_on[h] == Some(g), lru, h))
            .collect();
        candidates.sort_unstable();
        while self.used[g] + bytes > self.capacity && !candidates.is_empty() {
            let n = candidates.len();
            let idx = if n >= 2 { pick(n).min(n - 1) } else { 0 };
            let (dirty, _, h) = candidates.remove(idx);
            self.remove(h, g, reg.info(HandleId(h)).bytes);
            if dirty {
                (self.host_valid[h], self.dirty_on[h]) = (true, None);
                out.push(Eviction::WriteBack(HandleId(h)));
            } else {
                out.push(Eviction::Drop(HandleId(h)));
            }
        }
        out
    }
}

/// The dense table answers every query, and evicts in every `make_room`,
/// exactly as the hash-map model does — step by step over random op
/// sequences, including unbalanced unpins, kept sets and a seeded
/// (sometimes out-of-range) eviction `pick`.
#[test]
fn dense_table_matches_hash_map_model() {
    const GPUS: usize = 5;
    for_each_seed(96, |rng| {
        let n = rng.usize_in(1, 12);
        let mut reg = DataRegistry::new();
        for i in 0..n {
            let bytes = 256 * (1 + rng.next_below(3));
            reg.add(match rng.next_below(4) {
                0 => DataInfo::on_gpu(bytes, rng.usize_in(0, GPUS), format!("t{i}")),
                _ => DataInfo::host(bytes, false, format!("t{i}")),
            });
        }
        let capacity = 256 * (2 + rng.next_below(8));
        let mut cache = SoftwareCache::new(GPUS, capacity, &reg);
        let mut model = Model::new(GPUS, capacity, &reg);
        for _ in 0..rng.usize_in(1, 120) {
            let (h, g) = (rng.usize_in(0, n), rng.usize_in(0, GPUS));
            let (hid, bytes) = (HandleId(h), reg.info(HandleId(h)).bytes);
            match rng.next_below(10) {
                0 => {
                    let ready_at = SimTime::new(rng.f64_in(0.0, 10.0));
                    cache.begin_transfer(hid, g, bytes, ready_at);
                    model.install(h, g, ReplicaState::UnderTransfer { ready_at }, bytes);
                }
                1 => {
                    cache.allocate_output(hid, g, bytes);
                    model.install(h, g, ReplicaState::Valid, bytes);
                }
                2 => {
                    cache.mark_written(hid, g, bytes, &reg);
                    model.mark_written(h, g, bytes);
                }
                3 => {
                    cache.mark_flushed(hid);
                    (model.host_valid[h], model.dirty_on[h]) = (true, None);
                }
                4 => {
                    cache.drop_replica(hid, g, &reg);
                    if model.dirty_on[h] != Some(g) && !model.pinned(h, g) {
                        model.remove(h, g, bytes);
                    }
                }
                5 => {
                    cache.touch(hid, g);
                    model.touch(h, g);
                }
                6 => {
                    cache.pin(hid, g);
                    *model.pins.entry((g, h)).or_insert(0) += 1;
                }
                7 => {
                    cache.unpin(hid, g);
                    model.unpin(h, g);
                }
                op => {
                    let keep: Vec<HandleId> =
                        handle_set(rng, 0, 3).into_iter().filter(|&k| k < n).map(HandleId).collect();
                    let request = 1 + rng.next_below(capacity);
                    // Op 8 evicts canonically, op 9 by a seeded pick.
                    let picks = SplitMix64::new(rng.next_u64());
                    let (mut a, mut b) = (picks, picks);
                    let canonical = op == 8;
                    let mut pick_a = |c: usize| if canonical { 0 } else { a.usize_in(0, c + 2) };
                    let mut pick_b = |c: usize| if canonical { 0 } else { b.usize_in(0, c + 2) };
                    let got = cache.make_room(g, request, &keep, &reg, &mut pick_a);
                    let want = model.make_room(g, request, &keep, &reg, &mut pick_b);
                    assert_eq!(got, want, "evictions on gpu{g} for {request} bytes");
                }
            }
            let now = SimTime::new(rng.f64_in(0.0, 10.0));
            for g in 0..GPUS {
                assert_eq!(cache.used_bytes(g), model.used[g], "used_bytes(gpu{g})");
                let resident = model.replicas.keys().filter(|&&(dev, _)| dev == g).count();
                assert_eq!(cache.resident_count(g), resident, "resident_count(gpu{g})");
            }
            for h in 0..n {
                let hid = HandleId(h);
                assert_eq!(cache.host_valid(hid), model.host_valid[h]);
                assert_eq!(cache.dirty_on(hid), model.dirty_on[h]);
                let state = |g: usize| model.replicas.get(&(g, h)).map(|r| r.0);
                let mut valid = Vec::new();
                let mut in_flight = Vec::new();
                for g in 0..GPUS {
                    assert_eq!(cache.replica(hid, g), state(g), "replica({h}, gpu{g})");
                    assert_eq!(cache.is_pinned(hid, g), model.pinned(h, g), "is_pinned({h}, gpu{g})");
                    match state(g) {
                        Some(ReplicaState::UnderTransfer { ready_at }) if ready_at > now => {
                            in_flight.push((g, ready_at))
                        }
                        Some(_) => valid.push(g),
                        None => {}
                    }
                }
                assert_eq!(cache.valid_gpus(hid, now), valid, "valid_gpus({h})");
                assert_eq!(cache.in_flight(hid, now), in_flight, "in_flight({h})");
            }
        }
    });
}

/// `unpin` of a never-pinned replica is the documented no-op: the next pin
/// still protects, and one unpin releases it.
#[test]
fn unbalanced_unpin_is_a_no_op() {
    let reg = registry(1);
    let mut cache = SoftwareCache::new(1, 4096, &reg);
    let h = HandleId(0);
    cache.unpin(h, 0);
    assert!(!cache.is_pinned(h, 0));
    cache.pin(h, 0);
    assert!(cache.is_pinned(h, 0));
    cache.unpin(h, 0);
    assert!(!cache.is_pinned(h, 0));
}
