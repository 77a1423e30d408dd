//! GPU hardware configuration.

use serde::{Deserialize, Serialize};

/// Static hardware parameters of the modelled GPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// SMs sharing one μTLB ("adjacent SMs share a μTLB", paper Sec. 4.2).
    pub sms_per_utlb: u32,
    /// Maximum outstanding (replayable) faults per μTLB. The paper measures
    /// 56 on Volta (Sec. 3.2).
    pub utlb_outstanding_limit: u32,
    /// Device memory capacity in bytes.
    pub memory_bytes: u64,
    /// Hardware fault-buffer capacity in entries.
    pub fault_buffer_entries: u32,
    /// Maximum resident warps per SM (occupancy bound).
    pub max_warps_per_sm: u32,
    /// Probability that a warp stalling on outstanding faults spuriously
    /// re-issues one of them ("SMs spuriously wake up to reissue the same
    /// fault during a batch", paper Sec. 4.2) — a source of same-μTLB
    /// duplicate faults even for workloads with no inter-warp sharing.
    pub spurious_refault_prob: f64,
    /// Probability that an access hitting an *already outstanding* fault
    /// entry of its own μTLB logs an additional (type-1 duplicate) buffer
    /// entry rather than silently attaching to the existing entry.
    /// Cross-μTLB duplicates always log (each μTLB faults independently).
    pub same_utlb_dup_prob: f64,
}

impl GpuSpec {
    /// The paper's testbed: NVIDIA Titan V (GV100), 80 SMs, 12 GiB HBM2.
    pub fn titan_v() -> Self {
        GpuSpec {
            num_sms: 80,
            sms_per_utlb: 2,
            utlb_outstanding_limit: 56,
            memory_bytes: 12 * 1024 * 1024 * 1024,
            fault_buffer_entries: 8192,
            max_warps_per_sm: 64,
            spurious_refault_prob: 0.12,
            same_utlb_dup_prob: 0.25,
        }
    }

    /// A reduced configuration for fast unit tests and examples: same
    /// per-μTLB and batching constraints, smaller device.
    pub fn small(memory_bytes: u64) -> Self {
        GpuSpec {
            num_sms: 8,
            sms_per_utlb: 2,
            utlb_outstanding_limit: 56,
            memory_bytes,
            fault_buffer_entries: 4096,
            max_warps_per_sm: 16,
            spurious_refault_prob: 0.0,
            same_utlb_dup_prob: 1.0,
        }
    }

    /// Number of μTLBs on the device.
    pub fn num_utlbs(&self) -> u32 {
        self.num_sms.div_ceil(self.sms_per_utlb)
    }

    /// Where warp `wid` runs: `(SM, μTLB serving that SM)`. Warps are
    /// dealt to SMs round-robin by id. Every use of a warp's SM or μTLB
    /// derives it here, so the rule lives in one place.
    pub fn placement(&self, wid: u32) -> (u32, u32) {
        let sm = wid % self.num_sms;
        (sm, self.utlb_of_sm(sm))
    }

    /// The μTLB serving a given SM.
    pub fn utlb_of_sm(&self, sm: u32) -> u32 {
        sm / self.sms_per_utlb
    }

    /// Device memory capacity in whole 2 MiB VABlocks.
    pub fn memory_va_blocks(&self) -> u64 {
        self.memory_bytes / uvm_sim::mem::VABLOCK_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titan_v_matches_paper() {
        let s = GpuSpec::titan_v();
        assert_eq!(s.num_sms, 80);
        assert_eq!(s.num_utlbs(), 40);
        assert_eq!(s.utlb_outstanding_limit, 56);
        assert_eq!(s.memory_va_blocks(), 6144); // 12 GiB / 2 MiB
    }

    #[test]
    fn utlb_assignment_pairs_adjacent_sms() {
        let s = GpuSpec::titan_v();
        assert_eq!(s.utlb_of_sm(0), 0);
        assert_eq!(s.utlb_of_sm(1), 0);
        assert_eq!(s.utlb_of_sm(2), 1);
        assert_eq!(s.utlb_of_sm(79), 39);
    }

    #[test]
    fn odd_sm_count_rounds_utlbs_up() {
        let mut s = GpuSpec::small(1 << 30);
        s.num_sms = 7;
        assert_eq!(s.num_utlbs(), 4);
    }
}
