//! The multi-GPU software cache (XKaapi's, paper §III-A and §III-C).
//!
//! Tracks every replica of every tile across the host and the GPUs with a
//! MOSI-flavoured protocol plus one extra state the paper adds for its
//! optimistic heuristic: **UnderTransfer**, "a data is under transfer to a
//! specific GPU". Eviction follows XKaapi's policy: read-only (clean)
//! replicas are evicted first, LRU within a class.

use xk_sim::SimTime;
use xk_topo::Device;

use crate::data::{DataRegistry, HandleId};

/// State of one replica on one device.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ReplicaState {
    /// Valid copy of the current version.
    Valid,
    /// Transfer of the current version into this device completes at
    /// `ready_at` (the paper's extension of the cache metadata).
    UnderTransfer {
        /// Simulated time at which the replica becomes valid.
        ready_at: SimTime,
    },
}

/// One `(gpu, handle)` cell of the replica table.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    state: Option<ReplicaState>,
    /// LRU clock of the last use; meaningful only while `state` is `Some`.
    last_use: u64,
    /// Pin count: pinned replicas are never evicted (inputs of queued
    /// tasks, prefetched but not yet consumed). Outlives the replica.
    pins: u32,
}

/// Per-device totals over its row of the table.
#[derive(Clone, Debug, Default)]
struct DeviceCache {
    used_bytes: u64,
    resident: usize,
    capacity: u64,
}

/// Per-handle global coherence metadata.
#[derive(Clone, Debug, Default)]
struct Coherence {
    /// True when host memory holds the current version.
    host_valid: bool,
    /// Device holding a dirty (not host-flushed) version, if any.
    dirty_on: Option<usize>,
}

/// Eviction action the executor must perform.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Eviction {
    /// Drop a clean replica (no traffic).
    Drop(HandleId),
    /// Write a dirty replica back to the host, then drop it.
    WriteBack(HandleId),
}

/// A deliberately injectable coherence bug, used by `xk-check`'s mutation
/// tests to prove the differential oracle actually catches protocol
/// violations. Never enabled in normal operation.
#[doc(hidden)]
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CoherenceMutation {
    /// No mutation: the correct protocol.
    #[default]
    None,
    /// `mark_written` forgets to invalidate peer replicas — readers on
    /// other GPUs can then source a stale version (a classic MSI bug).
    StaleRead,
}

/// The software cache over all devices.
///
/// Handles are dense, so the per-replica metadata is one flat table,
/// device-major (`slots[g * n_handles + h]`): eviction — the only
/// operation that walks many replicas — scans one contiguous row, and
/// every other access is a single index.
pub struct SoftwareCache {
    slots: Vec<Slot>,
    n_handles: usize,
    devices: Vec<DeviceCache>,
    coherence: Vec<Coherence>,
    clock: u64,
    /// Injected protocol bug for mutation testing (default: none).
    mutation: CoherenceMutation,
}

impl SoftwareCache {
    /// Creates the cache for `n_gpus` devices of `capacity` bytes each,
    /// with initial validity taken from each handle's `initial` placement.
    pub fn new(n_gpus: usize, capacity: u64, data: &DataRegistry) -> Self {
        let mut cache = SoftwareCache {
            slots: vec![Slot::default(); n_gpus * data.len()],
            n_handles: data.len(),
            devices: vec![DeviceCache { capacity, ..Default::default() }; n_gpus],
            coherence: vec![Coherence::default(); data.len()],
            clock: 0,
            mutation: CoherenceMutation::default(),
        };
        for (h, info) in data.iter() {
            match info.initial {
                Device::Host => cache.coherence[h.0].host_valid = true,
                Device::Gpu(g) => {
                    // Device-initial data is considered dirty w.r.t. host so
                    // that a flush would move it back.
                    cache.install(h, g, ReplicaState::Valid, info.bytes, 0);
                    cache.coherence[h.0].dirty_on = Some(g);
                }
            }
        }
        cache
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn slot(&self, h: HandleId, g: usize) -> &Slot {
        &self.slots[g * self.n_handles + h.0]
    }

    fn slot_mut(&mut self, h: HandleId, g: usize) -> &mut Slot {
        &mut self.slots[g * self.n_handles + h.0]
    }

    /// Sets the replica of `h` on `g` to `state`, used at LRU time `t`;
    /// `bytes` are charged only when no replica was resident.
    fn install(&mut self, h: HandleId, g: usize, state: ReplicaState, bytes: u64, t: u64) {
        let slot = self.slot_mut(h, g);
        slot.last_use = t;
        if slot.state.replace(state).is_none() {
            self.devices[g].used_bytes += bytes;
            self.devices[g].resident += 1;
        }
    }

    /// Removes the replica of `h` on `g`, if any, refunding `bytes`.
    fn evict(&mut self, h: HandleId, g: usize, bytes: u64) {
        if self.slot_mut(h, g).state.take().is_some() {
            self.devices[g].used_bytes -= bytes;
            self.devices[g].resident -= 1;
        }
    }

    /// Enables an injected protocol bug (mutation testing only).
    #[doc(hidden)]
    pub(crate) fn inject_mutation(&mut self, m: CoherenceMutation) {
        self.mutation = m;
    }

    /// Is the host copy of `h` valid?
    pub fn host_valid(&self, h: HandleId) -> bool {
        self.coherence[h.0].host_valid
    }

    /// Device holding a dirty version of `h`, if any.
    pub fn dirty_on(&self, h: HandleId) -> Option<usize> {
        self.coherence[h.0].dirty_on
    }

    /// Replica state of `h` on GPU `g`.
    pub fn replica(&self, h: HandleId, g: usize) -> Option<ReplicaState> {
        self.slot(h, g).state
    }

    /// True when `h` is fully valid on GPU `g` at time `now`.
    pub fn valid_on(&self, h: HandleId, g: usize, now: SimTime) -> bool {
        match self.replica(h, g) {
            Some(ReplicaState::Valid) => true,
            Some(ReplicaState::UnderTransfer { ready_at }) => ready_at <= now,
            None => false,
        }
    }

    /// GPUs holding a valid copy of `h` at `now`, ascending index, without
    /// allocating — what the decision points iterate.
    pub(crate) fn valid_holders(
        &self,
        h: HandleId,
        now: SimTime,
    ) -> impl Iterator<Item = usize> + '_ {
        (0..self.devices.len()).filter(move |&g| self.valid_on(h, g, now))
    }

    /// GPUs holding a valid copy of `h` at `now`, ascending index.
    pub fn valid_gpus(&self, h: HandleId, now: SimTime) -> Vec<usize> {
        self.valid_holders(h, now).collect()
    }

    /// GPUs with `h` under transfer (not yet ready) at `now`, ascending
    /// index, with their completion times, without allocating.
    pub(crate) fn inbound_holders(
        &self,
        h: HandleId,
        now: SimTime,
    ) -> impl Iterator<Item = (usize, SimTime)> + '_ {
        (0..self.devices.len()).filter_map(move |g| match self.replica(h, g) {
            Some(ReplicaState::UnderTransfer { ready_at }) if ready_at > now => Some((g, ready_at)),
            _ => None,
        })
    }

    /// GPUs with `h` under transfer (not yet ready) at `now`, with their
    /// completion times — the optimistic heuristic's candidates.
    pub fn in_flight(&self, h: HandleId, now: SimTime) -> Vec<(usize, SimTime)> {
        self.inbound_holders(h, now).collect()
    }

    /// Bytes currently resident on GPU `g`.
    pub fn used_bytes(&self, g: usize) -> u64 {
        self.devices[g].used_bytes
    }

    /// Capacity of GPU `g`.
    pub fn capacity(&self, g: usize) -> u64 {
        self.devices[g].capacity
    }

    /// Records the start of a transfer of `h` into GPU `g`, completing at
    /// `ready_at`. The caller must have ensured capacity first.
    pub fn begin_transfer(&mut self, h: HandleId, g: usize, bytes: u64, ready_at: SimTime) {
        let t = self.tick();
        self.install(h, g, ReplicaState::UnderTransfer { ready_at }, bytes, t);
    }

    /// Marks `h` resident on `g` without any transfer (freshly allocated
    /// output tile that will be overwritten).
    pub fn allocate_output(&mut self, h: HandleId, g: usize, bytes: u64) {
        let t = self.tick();
        self.install(h, g, ReplicaState::Valid, bytes, t);
    }

    /// Records that a kernel on GPU `g` produced a new version of `h`:
    /// all other replicas are invalidated, host becomes stale, `g` holds
    /// the only (dirty) copy.
    pub fn mark_written(&mut self, h: HandleId, g: usize, bytes: u64, data: &DataRegistry) {
        let t = self.tick();
        if self.mutation != CoherenceMutation::StaleRead {
            for gi in (0..self.devices.len()).filter(|&gi| gi != g) {
                self.evict(h, gi, data.info(h).bytes);
            }
        }
        self.install(h, g, ReplicaState::Valid, bytes, t);
        self.coherence[h.0] = Coherence { host_valid: false, dirty_on: Some(g) };
    }

    /// Records a completed flush of `h` to the host: host becomes valid,
    /// the device copy stays valid but is now clean.
    pub fn mark_flushed(&mut self, h: HandleId) {
        self.coherence[h.0] = Coherence { host_valid: true, dirty_on: None };
    }

    /// Drops the replica of `h` on `g` if present, clean and unpinned
    /// (no-cache-inputs mode). Dirty or pinned replicas are kept.
    pub fn drop_replica(&mut self, h: HandleId, g: usize, data: &DataRegistry) {
        if self.coherence[h.0].dirty_on != Some(g) && !self.is_pinned(h, g) {
            self.evict(h, g, data.info(h).bytes);
        }
    }

    /// Pins `h` on device `g` (eviction-exempt until unpinned).
    pub fn pin(&mut self, h: HandleId, g: usize) {
        self.slot_mut(h, g).pins += 1;
    }

    /// Releases one pin of `h` on `g`; a no-op when it holds none.
    pub fn unpin(&mut self, h: HandleId, g: usize) {
        let slot = self.slot_mut(h, g);
        slot.pins = slot.pins.saturating_sub(1);
    }

    /// True when `h` is pinned on `g`.
    pub fn is_pinned(&self, h: HandleId, g: usize) -> bool {
        self.slot(h, g).pins > 0
    }

    /// LRU touch (a kernel read `h` on `g`).
    pub fn touch(&mut self, h: HandleId, g: usize) {
        let t = self.tick();
        let slot = self.slot_mut(h, g);
        if slot.state.is_some() {
            slot.last_use = t;
        }
    }

    /// Ensures `bytes` fit on GPU `g` next to the pinned set `keep` (the
    /// working set of the launching task, never evicted). Returns the
    /// eviction actions, already applied to the cache state.
    ///
    /// The candidates are presented in XKaapi's order — clean replicas
    /// first (LRU), dirty ones (write-back) last — and `pick(n)` chooses
    /// which of the `n` remaining ones goes next: the eviction choice
    /// point. It is consulted only while two or more candidates remain, and
    /// an out-of-range pick is clamped to the last; a `pick` that answers 0
    /// is the canonical policy.
    pub fn make_room(
        &mut self,
        g: usize,
        bytes: u64,
        keep: &[HandleId],
        data: &DataRegistry,
        pick: &mut dyn FnMut(usize) -> usize,
    ) -> Vec<Eviction> {
        let mut evictions = Vec::new();
        if self.devices[g].used_bytes + bytes <= self.devices[g].capacity {
            return evictions;
        }
        // Candidates: resident handles of this device's row, neither kept
        // nor pinned; clean first, then LRU order. Sorted descending so the
        // canonical victim pops off the tail in O(1).
        let row = &self.slots[g * self.n_handles..(g + 1) * self.n_handles];
        let mut candidates: Vec<(bool, u64, HandleId)> = row
            .iter()
            .enumerate()
            .filter(|&(h, slot)| slot.state.is_some() && slot.pins == 0 && !keep.contains(&HandleId(h)))
            .map(|(h, slot)| (self.coherence[h].dirty_on == Some(g), slot.last_use, HandleId(h)))
            .collect();
        candidates.sort_unstable_by(|a, b| b.cmp(a));
        while self.devices[g].used_bytes + bytes > self.devices[g].capacity
            && !candidates.is_empty()
        {
            let last = candidates.len() - 1;
            let idx = if last == 0 { 0 } else { pick(last + 1).min(last) };
            let (dirty, _, h) = candidates.remove(last - idx);
            self.evict(h, g, data.info(h).bytes);
            if dirty {
                // The executor must issue the write-back; coherence moves to
                // host once it completes, which we record eagerly here (the
                // transfer is reserved before anything else can read it).
                self.mark_flushed(h);
                evictions.push(Eviction::WriteBack(h));
            } else {
                evictions.push(Eviction::Drop(h));
            }
        }
        evictions
    }

    /// Number of resident replicas on GPU `g`.
    pub fn resident_count(&self, g: usize) -> usize {
        self.devices[g].resident
    }

    /// Checks protocol invariants (used by tests): at most one dirty holder,
    /// dirty holder has a replica entry, byte accounting matches.
    pub fn check_invariants(&self, data: &DataRegistry) -> Result<(), String> {
        for (h, _) in data.iter() {
            if let Some(g) = self.coherence[h.0].dirty_on {
                if self.replica(h, g).is_none() {
                    return Err(format!("dirty handle {h:?} not resident on gpu{g}"));
                }
                if self.coherence[h.0].host_valid {
                    return Err(format!("handle {h:?} both dirty and host-valid"));
                }
            }
        }
        for (g, dev) in self.devices.iter().enumerate() {
            let resident = || data.iter().filter(|(h, _)| self.replica(*h, g).is_some());
            let (sum, count) = (resident().map(|(_, i)| i.bytes).sum::<u64>(), resident().count());
            if (sum, count) != (dev.used_bytes, dev.resident) {
                return Err(format!(
                    "gpu{g} accounting off: tracked {} bytes in {} replicas, actual {sum} in {count}",
                    dev.used_bytes, dev.resident
                ));
            }
            if dev.used_bytes > dev.capacity {
                return Err(format!("gpu{g} over capacity"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DataInfo;

    /// The canonical eviction pick.
    fn first(_: usize) -> usize {
        0
    }

    fn registry(n: usize, bytes: u64) -> DataRegistry {
        let mut reg = DataRegistry::new();
        for i in 0..n {
            reg.add(DataInfo {
                bytes,
                pitched: false,
                initial: Device::Host,
                label: format!("t{i}"),
                owner_hint: None,
            });
        }
        reg
    }

    #[test]
    fn initial_state_host_valid() {
        let reg = registry(3, 100);
        let c = SoftwareCache::new(2, 1000, &reg);
        let h = HandleId(0);
        assert!(c.host_valid(h));
        assert!(c.valid_gpus(h, SimTime::ZERO).is_empty());
        assert_eq!(c.dirty_on(h), None);
        c.check_invariants(&reg).unwrap();
    }

    #[test]
    fn transfer_lifecycle() {
        let reg = registry(1, 100);
        let mut c = SoftwareCache::new(2, 1000, &reg);
        let h = HandleId(0);
        c.begin_transfer(h, 0, 100, SimTime::new(5.0));
        assert!(!c.valid_on(h, 0, SimTime::new(4.0)));
        assert!(c.valid_on(h, 0, SimTime::new(5.0)));
        assert_eq!(c.in_flight(h, SimTime::new(4.0)), vec![(0, SimTime::new(5.0))]);
        assert!(c.in_flight(h, SimTime::new(6.0)).is_empty());
        assert_eq!(c.used_bytes(0), 100);
        c.check_invariants(&reg).unwrap();
    }

    #[test]
    fn write_invalidates_peers_and_host() {
        let reg = registry(1, 100);
        let mut c = SoftwareCache::new(3, 1000, &reg);
        let h = HandleId(0);
        c.begin_transfer(h, 0, 100, SimTime::ZERO);
        c.begin_transfer(h, 1, 100, SimTime::ZERO);
        c.mark_written(h, 2, 100, &reg);
        assert_eq!(c.valid_gpus(h, SimTime::new(1.0)), vec![2]);
        assert!(!c.host_valid(h));
        assert_eq!(c.dirty_on(h), Some(2));
        assert_eq!(c.used_bytes(0), 0);
        assert_eq!(c.used_bytes(1), 0);
        c.check_invariants(&reg).unwrap();
    }

    #[test]
    fn flush_restores_host_validity() {
        let reg = registry(1, 100);
        let mut c = SoftwareCache::new(1, 1000, &reg);
        let h = HandleId(0);
        c.mark_written(h, 0, 100, &reg);
        c.mark_flushed(h);
        assert!(c.host_valid(h));
        assert_eq!(c.dirty_on(h), None);
        // Device copy remains valid (now clean).
        assert!(c.valid_on(h, 0, SimTime::ZERO));
        c.check_invariants(&reg).unwrap();
    }

    #[test]
    fn eviction_prefers_clean_lru() {
        let reg = registry(3, 400);
        let mut c = SoftwareCache::new(1, 1000, &reg);
        let (h0, h1, h2) = (HandleId(0), HandleId(1), HandleId(2));
        c.begin_transfer(h0, 0, 400, SimTime::ZERO); // oldest clean
        c.mark_written(h1, 0, 400, &reg); // dirty
        // Need room for h2: must evict h0 (clean LRU), not h1 (dirty).
        let ev = c.make_room(0, 400, &[h2], &reg, &mut first);
        assert_eq!(ev, vec![Eviction::Drop(h0)]);
        assert_eq!(c.resident_count(0), 1);
        c.check_invariants(&reg).unwrap();
    }

    #[test]
    fn eviction_writes_back_dirty_when_no_clean_left() {
        let reg = registry(2, 600);
        let mut c = SoftwareCache::new(1, 1000, &reg);
        let (h0, h1) = (HandleId(0), HandleId(1));
        c.mark_written(h0, 0, 600, &reg);
        let ev = c.make_room(0, 600, &[h1], &reg, &mut first);
        assert_eq!(ev, vec![Eviction::WriteBack(h0)]);
        assert!(c.host_valid(h0));
        c.check_invariants(&reg).unwrap();
    }

    #[test]
    fn pinned_handles_never_evicted() {
        let reg = registry(2, 600);
        let mut c = SoftwareCache::new(1, 1000, &reg);
        let (h0, h1) = (HandleId(0), HandleId(1));
        c.begin_transfer(h0, 0, 600, SimTime::ZERO);
        let ev = c.make_room(0, 600, &[h0, h1], &reg, &mut first);
        // Nothing evictable: h0 pinned. Room not made — executor treats
        // this as capacity pressure (over-subscription is reported by
        // check_invariants in tests, real runs size tiles to fit).
        assert!(ev.is_empty());
    }

    #[test]
    fn make_room_with_chooser_reorders_evictions() {
        let reg = registry(3, 400);
        let mut c = SoftwareCache::new(1, 1200, &reg);
        let (h0, h1, h2) = (HandleId(0), HandleId(1), HandleId(2));
        c.begin_transfer(h0, 0, 400, SimTime::ZERO); // clean, oldest
        c.begin_transfer(h1, 0, 400, SimTime::ZERO); // clean, newer
        c.begin_transfer(h2, 0, 400, SimTime::ZERO);
        // Canonical would evict h0 first; the chooser picks the LRU tail.
        let mut last = |n: usize| n - 1;
        let ev = c.make_room(0, 400, &[], &reg, &mut last);
        assert_eq!(ev, vec![Eviction::Drop(h2)]);
        assert!(c.replica(h0, 0).is_some());
        c.check_invariants(&reg).unwrap();
        // And picking 0 is the canonical policy (clean LRU first).
        let ev2 = c.make_room(0, 800, &[], &reg, &mut first);
        assert_eq!(ev2, vec![Eviction::Drop(h0)]);
    }

    #[test]
    fn stale_read_mutation_keeps_peer_replicas() {
        let reg = registry(1, 100);
        let mut c = SoftwareCache::new(2, 1000, &reg);
        let h = HandleId(0);
        c.inject_mutation(CoherenceMutation::StaleRead);
        c.begin_transfer(h, 0, 100, SimTime::ZERO);
        c.mark_written(h, 1, 100, &reg);
        // The bug: gpu0's now-stale replica survives the write.
        assert_eq!(c.valid_gpus(h, SimTime::new(1.0)), vec![0, 1]);
        assert_eq!(c.dirty_on(h), Some(1));
    }

    #[test]
    fn data_on_device_initial_placement() {
        let mut reg = DataRegistry::new();
        let h = reg.add(DataInfo {
            bytes: 100,
            pitched: false,
            initial: Device::Gpu(1),
            label: "d".into(),
            owner_hint: None,
        });
        let c = SoftwareCache::new(2, 1000, &reg);
        assert!(!c.host_valid(h));
        assert_eq!(c.valid_gpus(h, SimTime::ZERO), vec![1]);
        assert_eq!(c.dirty_on(h), Some(1));
        c.check_invariants(&reg).unwrap();
    }
}
