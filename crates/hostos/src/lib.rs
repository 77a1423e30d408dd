#![warn(missing_docs)]

//! # uvm-hostos — host operating-system virtual-memory substrate
//!
//! The UVM driver does not manage host memory itself: it calls into the
//! Linux kernel's virtual-memory subsystem. Allen & Ge (SC '21) show that
//! these host-OS interactions — `unmap_mapping_range()` on the fault path and
//! DMA reverse-mapping storage in a radix tree — are among the dominant costs
//! of fault servicing. This crate implements that substrate:
//!
//! * [`host`] — [`HostMemory`], the façade the UVM driver calls:
//!   `cpu_touch()` for host-side first-touch and `unmap_mapping_range()` for
//!   the fault-path unmap, returning [`UnmapReport`] work counts. The
//!   driver unmaps whole VABlocks, so the host keeps one record per block:
//!   its mapped and dirty pages as [`PageBitmap`](uvm_sim::PageBitmap)s and
//!   the cores that mapped it, which are also the TLB-shootdown targets.
//! * [`rmap`] — [`CoreSet`], the set of mapper cores: the state that makes
//!   multi-threaded first-touch expensive to unmap.
//! * [`dma`] — [`DmaSpace`], the IOMMU mapping layer. It keeps one record
//!   per mapped VABlock, serializes them as `(block, pages)` runs in
//!   DMA-address order, and reports the radix-tree nodes each mapping's
//!   reverse entries allocate. Addresses are assigned `0..n` in order, so
//!   that count is a closed form of `n`, and no tree is built.
//! * [`numa`] — NUMA topology used by CPU-side initialization policies.

pub mod dma;
pub mod host;
pub mod numa;
pub mod rmap;

pub use dma::{DmaReport, DmaSpace};
pub use host::{HostMemory, UnmapReport};
pub use numa::NumaTopology;
pub use rmap::CoreSet;
