#![warn(missing_docs)]

//! # uvm-workloads — benchmark access-pattern generators
//!
//! The UVM driver's workload is fully determined by the *page-access
//! structure* of the kernels running above it. This crate generates, for
//! every benchmark in the paper's Table 1 plus its synthetic kernels, the
//! per-warp instruction streams with the same page-touch structure the real
//! codes produce:
//!
//! | module | paper benchmark | structure |
//! |---|---|---|
//! | [`vecadd`] | Listing 1 microbenchmark | page-strided vector addition, scoreboard-gated writes |
//! | [`prefetch_ub`] | Fig. 5 microbenchmark | single-warp software-prefetch burst |
//! | [`regular`] | "Regular" synthetic | contiguous streaming, all SMs |
//! | [`random`] | "Random" synthetic | uniform-random single-page touches |
//! | [`stream`] | BabelStream triad | coalesced a/b/c streaming |
//! | [`sgemm`] | cuBLAS sgemm/dgemm | tiled GEMM with A/B tile reuse across warps |
//! | [`fft`] | cuFFT | butterfly passes with power-of-two strides |
//! | [`gauss_seidel`] | Gauss-Seidel | row-sweep 2-D stencil, multiple iterations |
//! | [`hpgmg`] | HPGMG-FV | multigrid V-cycles over a level hierarchy |
//! | [`graph_bfs`] | (extension) graph BFS | pointer-chasing level-synchronous traversal, one kernel per level |
//! | [`attention`] | (extension) batched attention | sequential query streaming + skewed hot/cold KV-table gathers per batch |
//!
//! Each generator returns a self-contained [`Workload`]: managed
//! allocations, per-warp programs, and the CPU-side initialization touches
//! (which thread first-touched which page — the input to the Fig. 11
//! host-OS unmap analysis).

pub mod attention;
pub mod cpu_init;
pub mod fft;
pub mod gauss_seidel;
pub mod graph_bfs;
pub mod hpgmg;
pub mod prefetch_ub;
pub mod random;
pub mod regular;
pub mod sgemm;
pub mod stream;
pub mod vecadd;
pub mod workload;

pub use cpu_init::{CpuInitPolicy, CpuTouch};
pub use workload::Workload;
