//! Data handles: one per matrix tile tracked by the runtime.

use xk_topo::Device;

/// Identifier of a tile known to the runtime.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct HandleId(pub usize);

/// Static description of a tile.
#[derive(Clone, Debug)]
pub struct DataInfo {
    /// Payload size in bytes (drives transfer durations and memory use).
    pub bytes: u64,
    /// True when the host-side storage is a pitched LAPACK sub-matrix
    /// (`ld != rows`): host transfers pay the `cudaMemcpy2D` derating.
    /// Device-resident copies are compacted tiles (paper §III-A), so
    /// device-to-device transfers never pay it.
    pub pitched: bool,
    /// Where the initial valid copy lives (host for data-on-host runs, a
    /// GPU for 2D-block-cyclic data-on-device runs).
    pub initial: Device,
    /// Trace label, e.g. `"A(0,3)"`.
    pub label: String,
    /// Owner GPU for owner-computes scheduling (set by the algorithm layer
    /// from the 2D block-cyclic distribution of the output matrix).
    pub owner_hint: Option<usize>,
}

impl DataInfo {
    /// A host-resident tile without an owner hint.
    pub fn host(bytes: u64, pitched: bool, label: impl Into<String>) -> Self {
        DataInfo {
            bytes,
            pitched,
            initial: Device::Host,
            label: label.into(),
            owner_hint: None,
        }
    }

    /// A tile initially resident (and dirty) on a GPU.
    pub fn on_gpu(bytes: u64, gpu: usize, label: impl Into<String>) -> Self {
        DataInfo {
            bytes,
            pitched: false,
            initial: Device::Gpu(gpu),
            label: label.into(),
            owner_hint: Some(gpu),
        }
    }

    /// Sets the owner-computes hint.
    pub fn with_owner(mut self, gpu: usize) -> Self {
        self.owner_hint = Some(gpu);
        self
    }
}

/// Registry of all handles of a task graph.
#[derive(Clone, Debug, Default)]
pub struct DataRegistry {
    infos: Vec<DataInfo>,
}

impl DataRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        DataRegistry::default()
    }

    /// Registers a tile and returns its handle.
    pub fn add(&mut self, info: DataInfo) -> HandleId {
        let id = HandleId(self.infos.len());
        self.infos.push(info);
        id
    }

    /// Tile description.
    pub fn info(&self, h: HandleId) -> &DataInfo {
        &self.infos[h.0]
    }

    /// Number of registered tiles.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// True when no tile is registered.
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// Iterates over `(handle, info)`.
    pub fn iter(&self) -> impl Iterator<Item = (HandleId, &DataInfo)> {
        self.infos
            .iter()
            .enumerate()
            .map(|(i, info)| (HandleId(i), info))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_roundtrip() {
        let mut reg = DataRegistry::new();
        let h = reg.add(DataInfo {
            bytes: 1024,
            pitched: true,
            initial: Device::Host,
            label: "A(0,0)".into(),
            owner_hint: None,
        });
        let h2 = reg.add(DataInfo {
            bytes: 2048,
            pitched: false,
            initial: Device::Gpu(3),
            label: "B(0,0)".into(),
            owner_hint: None,
        });
        assert_ne!(h, h2);
        assert_eq!(reg.info(h).bytes, 1024);
        assert_eq!(reg.info(h2).initial, Device::Gpu(3));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.iter().count(), 2);
    }
}
