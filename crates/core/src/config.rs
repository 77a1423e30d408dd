//! System configuration.

use serde::{Deserialize, Serialize};
use uvm_driver::backend::BackendKind;
use uvm_driver::clients::TenancyConfig;
use uvm_driver::policy::DriverPolicy;
use uvm_gpu::spec::GpuSpec;
use uvm_hostos::numa::NumaTopology;
use uvm_sim::cost::CostModel;
use uvm_sim::inject::FaultPlan;

/// Full configuration of one simulated system run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// GPU hardware parameters.
    pub gpu: GpuSpec,
    /// Driver policy.
    pub policy: DriverPolicy,
    /// Cost-model calibration.
    pub cost: CostModel,
    /// Host NUMA topology (None = uniform memory). When set, fault-path
    /// unmap work against remote-node mapper state is inflated by the
    /// node distance.
    pub numa: Option<NumaTopology>,
    /// The CPU core hosting the UVM worker thread.
    pub worker_core: u32,
    /// Seed for all stochastic elements.
    pub seed: u64,
    /// Deterministic fault-injection plan (disabled by default). When any
    /// point is enabled, the system wires seeded injectors into the fault
    /// buffer, the DMA space, the host page tables, and the driver.
    pub fault_plan: FaultPlan,
    /// Multi-tenant client table and fairness policy (disabled by
    /// default). When clients are configured, the system installs the
    /// driver's client ledger before the run starts and every batch is
    /// attributed and admitted per client.
    pub tenancy: TenancyConfig,
    /// Servicing architecture: who runs the fault pipeline. Stock is the
    /// CPU-driven driver; the GPU-driven kind services from GPU-side
    /// queues (no host wake/unmap on the critical path) and the multi-GPU
    /// peer kinds spill capacity victims to 2/4 peer GPUs over an
    /// NVLink-like interconnect.
    pub backend: BackendKind,
}

impl SystemConfig {
    /// The paper's testbed: Titan V, stock driver policy, calibrated costs.
    pub fn titan_v() -> Self {
        SystemConfig {
            gpu: GpuSpec::titan_v(),
            policy: DriverPolicy::default(),
            cost: CostModel::titan_v(),
            numa: Some(NumaTopology::epyc_7551p()),
            worker_core: 0,
            seed: 0x5C21,
            fault_plan: FaultPlan::none(),
            tenancy: TenancyConfig::none(),
            backend: BackendKind::CpuDriver,
        }
    }

    /// A reduced GPU (8 SMs, `memory_bytes` of device memory) with the same
    /// per-μTLB and batching constraints — for tests and examples that need
    /// to run in milliseconds.
    pub fn test_small(memory_bytes: u64) -> Self {
        SystemConfig {
            gpu: GpuSpec::small(memory_bytes),
            policy: DriverPolicy::default(),
            cost: CostModel::titan_v(),
            numa: None,
            worker_core: 0,
            seed: 0x5C21,
            fault_plan: FaultPlan::none(),
            tenancy: TenancyConfig::none(),
            backend: BackendKind::CpuDriver,
        }
    }

    /// Builder-style policy override.
    pub fn with_policy(mut self, policy: DriverPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style fault-injection plan override.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Builder-style tenancy override (multi-tenant client table +
    /// fairness policy).
    pub fn with_tenancy(mut self, tenancy: TenancyConfig) -> Self {
        self.tenancy = tenancy;
        self
    }

    /// Builder-style servicing-backend override.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Device memory capacity in VABlocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.gpu.memory_va_blocks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        let t = SystemConfig::titan_v();
        assert_eq!(t.gpu.num_sms, 80);
        assert_eq!(t.capacity_blocks(), 6144);
        let s = SystemConfig::test_small(64 * 1024 * 1024);
        assert_eq!(s.capacity_blocks(), 32);
        assert_eq!(s.policy.batch_limit, 256);
    }

    #[test]
    fn builders() {
        let c = SystemConfig::test_small(1 << 22)
            .with_policy(DriverPolicy::with_prefetch())
            .with_seed(7)
            .with_fault_plan(FaultPlan::uniform(0.1))
            .with_backend(BackendKind::GpuDriven);
        assert_eq!(c.policy, DriverPolicy::with_prefetch());
        assert_eq!(c.seed, 7);
        assert!(c.fault_plan.is_enabled());
        assert_eq!(c.backend, BackendKind::GpuDriven);
    }

    #[test]
    fn backend_defaults_to_stock_cpu_driver() {
        assert_eq!(SystemConfig::titan_v().backend, BackendKind::CpuDriver);
        assert_eq!(SystemConfig::test_small(1 << 22).backend, BackendKind::CpuDriver);
    }

    #[test]
    fn fault_plan_defaults_to_disabled_and_round_trips() {
        let c = SystemConfig::titan_v();
        assert!(!c.fault_plan.is_enabled());
        let c = c.with_fault_plan(FaultPlan::uniform(0.05));
        let json = serde_json::to_string(&c).unwrap();
        let back: SystemConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn config_round_trips_serde() {
        let c = SystemConfig::titan_v();
        let json = serde_json::to_string(&c).unwrap();
        let back: SystemConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
