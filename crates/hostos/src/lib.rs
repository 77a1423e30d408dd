#![warn(missing_docs)]

//! # uvm-hostos — host operating-system virtual-memory substrate
//!
//! The UVM driver does not manage host memory itself: it calls into the
//! Linux kernel's virtual-memory subsystem. Allen & Ge (SC '21) show that
//! these host-OS interactions — `unmap_mapping_range()` on the fault path and
//! DMA reverse-mapping storage in a radix tree — are among the dominant costs
//! of fault servicing. This crate implements that substrate:
//!
//! * [`page_table`] — a sparse x86-style 4-level page table with work
//!   accounting (PTEs written/cleared, intermediate tables allocated/freed).
//! * [`radix_tree`] — a grow-only Linux-style radix tree (as used by the
//!   kernel for reverse DMA address lookups), with per-insert
//!   node-allocation counts so the cost model can charge for tree growth.
//! * [`rmap`] — reverse mappings: which CPU cores have a page mapped, the
//!   state that makes multi-threaded first-touch expensive to unmap.
//! * [`tlb`] — per-core TLB residency and shootdown-IPI accounting.
//! * [`host`] — [`HostMemory`], the façade the UVM driver calls:
//!   `cpu_touch()` for host-side first-touch and `unmap_mapping_range()` for
//!   the fault-path unmap, returning [`UnmapReport`] work counts.
//! * [`dma`] — [`DmaSpace`], the IOMMU mapping layer storing reverse
//!   mappings in the radix tree and reporting allocation work. It
//!   serializes only its pages in DMA-address order and rebuilds both
//!   maps from them.
//! * [`numa`] — NUMA topology used by CPU-side initialization policies.

pub mod dma;
pub mod host;
pub mod numa;
pub mod page_table;
pub mod radix_tree;
pub mod rmap;
pub mod tlb;

pub use dma::{DmaReport, DmaSpace};
pub use host::{HostMemory, UnmapReport};
pub use numa::NumaTopology;
pub use page_table::{PageTable, PteFlags, UnmapWork};
pub use radix_tree::RadixTree;
pub use rmap::CoreSet;
pub use tlb::TlbDirectory;
