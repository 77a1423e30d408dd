//! The [`Workload`] container shared by all generators.

use serde::Serialize;
use uvm_gpu::isa::WarpProgram;
use uvm_sim::mem::{
    AddressSpaceAllocator, Allocation, VirtAddr, PAGES_PER_VABLOCK, PAGE_SIZE, VABLOCK_SIZE,
};

use crate::cpu_init::CpuTouch;

/// A complete benchmark instance: allocations, per-warp GPU programs, and
/// host-side initialization touches.
///
/// Workloads serialize, so a checkpoint can embed a digest of the exact
/// workload it was taken against and refuse to resume under a different one.
#[derive(Debug, Clone, Serialize)]
pub struct Workload {
    /// Benchmark name (used in reports).
    pub name: String,
    /// Managed allocations (registered with the driver before launch).
    pub allocations: Vec<Allocation>,
    /// One instruction stream per warp.
    pub programs: Vec<WarpProgram>,
    /// Host-side first-touch initialization as runs of pages, replayed
    /// into `HostMemory` before the kernel launches.
    pub cpu_init: Vec<CpuTouch>,
    /// Kernel boundaries: `kernel_ends[k]` is the index one past the last
    /// warp program of kernel `k`. Empty means a single kernel covering
    /// all programs. Kernels launch sequentially with an implicit device
    /// synchronization between them, as CUDA kernel launches on one stream
    /// do.
    pub kernel_ends: Vec<usize>,
}

impl Workload {
    /// A new, empty workload with its own address space.
    pub fn builder(name: &str) -> WorkloadBuilder {
        WorkloadBuilder {
            workload: Workload {
                name: name.to_string(),
                allocations: Vec::new(),
                programs: Vec::new(),
                cpu_init: Vec::new(),
                kernel_ends: Vec::new(),
            },
            asa: AddressSpaceAllocator::new(),
        }
    }

    /// Total managed bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.allocations.iter().map(|a| a.len).sum()
    }

    /// Total managed 4 KiB pages.
    pub fn footprint_pages(&self) -> u64 {
        self.footprint_bytes() / PAGE_SIZE
    }

    /// Total VABlocks across allocations.
    pub fn footprint_blocks(&self) -> u64 {
        self.allocations.iter().map(|a| a.num_va_blocks()).sum()
    }

    /// Number of warps.
    pub fn num_warps(&self) -> usize {
        self.programs.len()
    }

    /// Total page accesses across all warp programs.
    pub fn total_accesses(&self) -> usize {
        self.programs.iter().map(|p| p.total_accesses()).sum()
    }

    /// The same workload shifted `block_offset` whole VABlocks up the
    /// address space: every allocation base, warp access, and CPU-init
    /// touch moves by `block_offset * VABLOCK_SIZE` bytes. The tenancy
    /// layer uses this to pack several clients' private address spaces
    /// into one shared space without overlap. A zero offset returns an
    /// identical workload.
    pub fn rebased(&self, block_offset: u64) -> Workload {
        if block_offset == 0 {
            return self.clone();
        }
        let dp = block_offset * PAGES_PER_VABLOCK;
        Workload {
            name: self.name.clone(),
            allocations: self
                .allocations
                .iter()
                .map(|a| {
                    Allocation::new(
                        VirtAddr(a.base.0 + block_offset * VABLOCK_SIZE),
                        a.len,
                    )
                })
                .collect(),
            programs: self.programs.iter().map(|p| p.shifted(dp)).collect(),
            cpu_init: self
                .cpu_init
                .iter()
                .map(|t| CpuTouch { first: t.first.offset(dp), ..*t })
                .collect(),
            kernel_ends: self.kernel_ends.clone(),
        }
    }

    /// One past the highest VABlock any allocation touches (0 for a
    /// workload with no allocations). Rebasing another workload by this
    /// amount guarantees the two address spaces are disjoint.
    pub fn span_blocks(&self) -> u64 {
        self.allocations
            .iter()
            .map(|a| a.base.va_block().0 + a.num_va_blocks())
            .max()
            .unwrap_or(0)
    }

    /// The program index ranges of each sequential kernel launch.
    #[allow(clippy::single_range_in_vec_init)] // a 1-kernel workload really is vec![0..n]
    pub fn kernels(&self) -> Vec<std::ops::Range<usize>> {
        if self.kernel_ends.is_empty() {
            return vec![0..self.programs.len()];
        }
        let mut out = Vec::with_capacity(self.kernel_ends.len());
        let mut start = 0;
        for &end in &self.kernel_ends {
            out.push(start..end);
            start = end;
        }
        if start < self.programs.len() {
            out.push(start..self.programs.len());
        }
        out
    }
}

/// Incremental constructor used by the generators.
#[derive(Debug)]
pub struct WorkloadBuilder {
    workload: Workload,
    asa: AddressSpaceAllocator,
}

impl WorkloadBuilder {
    /// Allocate a managed region of `bytes`.
    pub fn alloc(&mut self, bytes: u64) -> Allocation {
        let a = self.asa.alloc(bytes);
        self.workload.allocations.push(a);
        a
    }

    /// Add a warp program.
    pub fn warp(&mut self, program: WarpProgram) -> &mut Self {
        self.workload.programs.push(program);
        self
    }

    /// Add CPU initialization touches.
    pub fn cpu_touches<I: IntoIterator<Item = CpuTouch>>(&mut self, touches: I) -> &mut Self {
        self.workload.cpu_init.extend(touches);
        self
    }

    /// Close the current kernel: programs added so far (since the last
    /// boundary) launch together; programs added afterwards form the next
    /// kernel, launched only after this one completes.
    pub fn end_kernel(&mut self) -> &mut Self {
        let end = self.workload.programs.len();
        if self.workload.kernel_ends.last() != Some(&end) {
            self.workload.kernel_ends.push(end);
        }
        self
    }

    /// Finish.
    pub fn build(self) -> Workload {
        self.workload
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvm_sim::mem::{PageNum, VABLOCK_SIZE};

    /// A one-instruction program loading `page`.
    fn load(page: PageNum) -> WarpProgram {
        let mut p = WarpProgram::new();
        p.load([page]);
        p
    }

    #[test]
    fn builder_accumulates() {
        let mut b = Workload::builder("test");
        let a = b.alloc(VABLOCK_SIZE);
        let c = b.alloc(2 * VABLOCK_SIZE);
        let mut p = load(a.page(0));
        p.store([c.page(0)]);
        b.warp(p);
        let w = b.build();
        assert_eq!(w.name, "test");
        assert_eq!(w.allocations.len(), 2);
        assert_eq!(w.footprint_bytes(), 3 * VABLOCK_SIZE);
        assert_eq!(w.footprint_blocks(), 3);
        assert_eq!(w.num_warps(), 1);
        assert_eq!(w.total_accesses(), 2);
        assert_eq!(w.kernels(), vec![0..1], "single kernel by default");
    }

    #[test]
    fn kernel_boundaries_partition_programs() {
        let mut b = Workload::builder("multi");
        let a = b.alloc(VABLOCK_SIZE);
        b.warp(load(a.page(0)));
        b.warp(load(a.page(1)));
        b.end_kernel();
        b.warp(load(a.page(2)));
        b.end_kernel();
        b.end_kernel(); // duplicate boundary is a no-op
        let w = b.build();
        assert_eq!(w.kernels(), vec![0..2, 2..3]);
    }

    #[test]
    fn trailing_programs_form_final_kernel() {
        let mut b = Workload::builder("tail");
        let a = b.alloc(VABLOCK_SIZE);
        b.warp(load(a.page(0)));
        b.end_kernel();
        b.warp(load(a.page(1)));
        let w = b.build();
        assert_eq!(w.kernels(), vec![0..1, 1..2]);
    }

    #[test]
    fn rebased_shifts_every_address_uniformly() {
        let mut b = Workload::builder("rebase");
        let a = b.alloc(VABLOCK_SIZE);
        let mut p = load(a.page(0));
        p.store([a.page(3)]);
        b.warp(p);
        b.cpu_touches([crate::cpu_init::CpuTouch { first: a.page(0), pages: 2, core: 0, write: true }]);
        let w = b.build();
        assert_eq!(w.span_blocks(), 2, "guard block + one allocated block");

        let r = w.rebased(5);
        assert_eq!(r.allocations[0].base.0, w.allocations[0].base.0 + 5 * VABLOCK_SIZE);
        assert_eq!(r.footprint_bytes(), w.footprint_bytes());
        assert_eq!(r.span_blocks(), w.span_blocks() + 5);
        let shifted = 5 * PAGES_PER_VABLOCK;
        assert_eq!(r.cpu_init[0].first.0, w.cpu_init[0].first.0 + shifted);
        assert_eq!(r.cpu_init[0].pages, 2);
        assert_eq!(
            r.programs[0].touched_pages().iter().map(|p| p.0).collect::<Vec<_>>(),
            w.programs[0].touched_pages().iter().map(|p| p.0 + shifted).collect::<Vec<_>>()
        );
        // Zero offset is the identity.
        let same = w.rebased(0);
        assert_eq!(same.allocations, w.allocations);
        assert_eq!(same.cpu_init, w.cpu_init);
        assert_eq!(same.kernel_ends, w.kernel_ends);
        assert_eq!(same.programs[0].touched_pages(), w.programs[0].touched_pages());
    }

    #[test]
    fn allocations_are_disjoint() {
        let mut b = Workload::builder("disjoint");
        let x = b.alloc(VABLOCK_SIZE);
        let y = b.alloc(VABLOCK_SIZE);
        assert!(x.end().0 <= y.base.0);
        let _ = PageNum(0); // silence unused import in some cfgs
    }
}
