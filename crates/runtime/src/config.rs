//! Runtime configuration: the knobs the paper's ablation turns
//! (Fig. 3 / Table II) plus executor sizing.

use xk_kernels::perfmodel::GpuModel;

/// Scheduling policy for the simulated executor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedulerKind {
    /// XKaapi-style: owner-computes placement (cyclic over output tiles)
    /// plus work stealing from the most loaded queue when idle.
    LocalityWorkStealing,
    /// StarPU `dmdas`-style: minimize estimated completion time including
    /// a transfer estimate; no stealing. Used by the Chameleon baseline.
    Dmdas,
    /// Round-robin over GPUs in ready order (cuBLAS-XT-style block spread).
    RoundRobin,
    /// Strict owner-computes from the data distribution; no stealing
    /// (cuBLAS-MG / ScaLAPACK-style).
    StaticOwner,
}

/// The two heuristics of the paper, independently switchable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Heuristics {
    /// §III-B: when several GPUs hold a valid replica, fetch from the one
    /// with the best performance-rank link to the destination.
    pub topology_aware: bool,
    /// §III-C: when no GPU holds a valid replica but one is under
    /// transfer, wait for it and forward device-to-device instead of
    /// re-reading from the host.
    pub optimistic_d2d: bool,
    /// Whether device-to-device transfers are used at all. Baseline models
    /// of stacks that stage everything through the host (DPLASMA/PaRSEC in
    /// the paper's Fig. 6 shows no PtoP at all) turn this off.
    pub allow_d2d: bool,
}

impl Heuristics {
    /// Both heuristics on: the paper's "XKBlas" configuration.
    pub fn full() -> Self {
        Heuristics {
            topology_aware: true,
            optimistic_d2d: true,
            allow_d2d: true,
        }
    }

    /// "XKBlas, no heuristic": optimistic D2D disabled, topology kept.
    pub fn no_optimistic() -> Self {
        Heuristics {
            topology_aware: true,
            optimistic_d2d: false,
            allow_d2d: true,
        }
    }

    /// "XKBlas, no heuristic, no topo": both disabled.
    pub fn none() -> Self {
        Heuristics {
            topology_aware: false,
            optimistic_d2d: false,
            allow_d2d: true,
        }
    }

    /// Host-staged transfers only: no device-to-device communication.
    pub fn host_only() -> Self {
        Heuristics {
            topology_aware: false,
            optimistic_d2d: false,
            allow_d2d: false,
        }
    }
}

/// Full configuration of a simulated run.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Heuristic switches.
    pub heuristics: Heuristics,
    /// Scheduler policy.
    pub scheduler: SchedulerKind,
    /// In-flight task window per GPU (fetch/compute pipeline depth).
    pub window: usize,
    /// GPU memory capacity in bytes (32 GB on the paper's V100s).
    pub gpu_memory: u64,
    /// GPU compute model.
    pub gpu_model: GpuModel,
    /// Keep fetched read-only inputs cached on the device for reuse
    /// (XKaapi software cache). Off models runtimes that re-read operands
    /// from the host for every task (PaRSEC's GPU support in the paper's
    /// Fig. 6 shows the largest HtoD volume of all stacks).
    pub cache_inputs: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            heuristics: Heuristics::full(),
            scheduler: SchedulerKind::LocalityWorkStealing,
            window: 4,
            gpu_memory: 32 * (1 << 30),
            gpu_model: GpuModel::v100(),
            cache_inputs: true,
        }
    }
}

impl RuntimeConfig {
    /// The paper's full XKBlas configuration.
    pub fn xkblas() -> Self {
        RuntimeConfig::default()
    }

    /// Returns a copy with different heuristics.
    pub fn with_heuristics(mut self, h: Heuristics) -> Self {
        self.heuristics = h;
        self
    }

    /// Returns a copy with a different scheduler.
    pub fn with_scheduler(mut self, s: SchedulerKind) -> Self {
        self.scheduler = s;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_variants() {
        assert!(Heuristics::full().topology_aware && Heuristics::full().optimistic_d2d);
        let no_h = Heuristics::no_optimistic();
        assert!(no_h.topology_aware && !no_h.optimistic_d2d);
        let none = Heuristics::none();
        assert!(!none.topology_aware && !none.optimistic_d2d);
    }

    #[test]
    fn default_config_sane() {
        let c = RuntimeConfig::default();
        assert_eq!(c.scheduler, SchedulerKind::LocalityWorkStealing);
        assert!(c.window >= 1);
        assert_eq!(c.gpu_memory, 32 * (1 << 30));
    }

    #[test]
    fn builders_compose() {
        let c = RuntimeConfig::xkblas()
            .with_heuristics(Heuristics::none())
            .with_scheduler(SchedulerKind::Dmdas);
        assert_eq!(c.scheduler, SchedulerKind::Dmdas);
        assert!(!c.heuristics.topology_aware);
    }
}
