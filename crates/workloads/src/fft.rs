//! cuFFT-like butterfly access structure.
//!
//! A radix-2 FFT performs `log2(chunks)` passes; in pass `s` each work
//! chunk exchanges data with the partner chunk at XOR-distance `2^s`. At
//! small strides partners are adjacent (high locality); at large strides
//! they are far apart — which is why Table 3 shows cuFFT's faults spread
//! over many VABlocks (≈25 per batch) at low per-block density (≈2.9).

use uvm_gpu::fault::AccessKind;
use uvm_gpu::isa::WarpProgram;
use uvm_sim::mem::PAGE_SIZE;
use uvm_sim::time::SimDuration;

use crate::cpu_init::CpuInitPolicy;
use crate::workload::Workload;

/// Parameters for the FFT workload.
#[derive(Debug, Clone, Copy)]
pub struct FftParams {
    /// Number of work chunks (power of two); one warp per chunk.
    pub chunks: u64,
    /// Pages per chunk.
    pub pages_per_chunk: u64,
    /// Pages per load/store instruction.
    pub pages_per_instr: usize,
    /// Compute time per butterfly pass.
    pub compute_per_pass: SimDuration,
    /// Host-side initialization of the signal.
    pub cpu_init: Option<CpuInitPolicy>,
}

impl Default for FftParams {
    fn default() -> Self {
        FftParams {
            chunks: 64,
            pages_per_chunk: 16,
            pages_per_instr: 8,
            compute_per_pass: SimDuration::from_micros(20),
            cpu_init: Some(CpuInitPolicy::SingleThread),
        }
    }
}


/// Deterministic per-warp compute-time factor in [0.7, 1.3]: real blocks
/// experience uneven SM scheduling and cache behaviour, desynchronizing
/// their access phases — without this, simulated warps fault in lockstep
/// and every batch saturates.
fn warp_compute_factor(w: u64) -> f64 {
    let h = w.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56;
    0.7 + 0.6 * (h as f64 / 255.0)
}

/// Build the FFT workload.
pub fn build(params: FftParams) -> Workload {
    let chunks = params.chunks.next_power_of_two().max(2);
    let ppc = params.pages_per_chunk.max(1);
    let per = params.pages_per_instr.max(1);
    let passes = chunks.trailing_zeros();

    let mut b = Workload::builder("cufft");
    let x = b.alloc(chunks * ppc * PAGE_SIZE);

    for w in 0..chunks {
        let mut prog = WarpProgram::new();
        let own: Vec<_> = (0..ppc).map(|i| x.page(w * ppc + i)).collect();
        for s in 0..passes {
            let partner = w ^ (1u64 << s);
            let theirs: Vec<_> = (0..ppc).map(|i| x.page(partner * ppc + i)).collect();
            prog.access_chunks(AccessKind::Read, &own, per);
            prog.access_chunks(AccessKind::Read, &theirs, per);
            if params.compute_per_pass > SimDuration::ZERO {
                prog.delay(params.compute_per_pass.mul_f64(warp_compute_factor(w)));
            }
            prog.access_chunks(AccessKind::Write, &own, per);
        }
        b.warp(prog);
    }

    if let Some(policy) = params.cpu_init {
        let touches = policy.touches(&x);
        b.cpu_touches(touches);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvm_gpu::isa::Instr;

    #[test]
    fn pass_count_is_log2_chunks() {
        let w = build(FftParams {
            chunks: 8,
            pages_per_chunk: 4,
            pages_per_instr: 4,
            compute_per_pass: SimDuration::ZERO,
            cpu_init: None,
        });
        assert_eq!(w.num_warps(), 8);
        // 3 passes x (1 own load + 1 partner load + 1 store) instructions.
        assert_eq!(w.programs[0].len(), 9);
    }

    #[test]
    fn partners_follow_xor_pattern() {
        let w = build(FftParams {
            chunks: 4,
            pages_per_chunk: 1,
            pages_per_instr: 1,
            compute_per_pass: SimDuration::ZERO,
            cpu_init: None,
        });
        // Warp 0, pass 0 partner = chunk 1; pass 1 partner = chunk 2.
        let prog = &w.programs[0];
        let x = w.allocations[0];
        let loads: Vec<u64> = prog
            .instrs()
            .iter()
            .filter(|i| matches!(i, Instr::Access { kind: AccessKind::Read, .. }))
            .map(|&i| prog.pages_of(i)[0].0 - x.page(0).0)
            .collect();
        assert_eq!(loads, vec![0, 1, 0, 2]);
    }

    #[test]
    fn chunks_rounded_to_power_of_two() {
        let w = build(FftParams {
            chunks: 5,
            pages_per_chunk: 1,
            pages_per_instr: 1,
            compute_per_pass: SimDuration::ZERO,
            cpu_init: None,
        });
        assert_eq!(w.num_warps(), 8);
    }

    #[test]
    fn late_passes_touch_distant_pages() {
        let w = build(FftParams {
            chunks: 64,
            pages_per_chunk: 16,
            pages_per_instr: 16,
            compute_per_pass: SimDuration::ZERO,
            cpu_init: None,
        });
        let prog = &w.programs[0];
        let x = w.allocations[0];
        // The last pass's partner load should be 32 chunks away.
        let loads: Vec<u64> = prog
            .instrs()
            .iter()
            .filter(|i| matches!(i, Instr::Access { kind: AccessKind::Read, .. }))
            .map(|&i| (prog.pages_of(i)[0].0 - x.page(0).0) / 16)
            .collect();
        assert_eq!(*loads.last().unwrap(), 32);
    }
}
