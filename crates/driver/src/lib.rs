#![warn(missing_docs)]

//! # uvm-driver — the UVM driver model
//!
//! This crate reimplements the documented logic of the `nvidia-uvm` driver
//! that Allen & Ge (SC '21) instrument and analyze: it is the paper's
//! subject, rebuilt as a deterministic state machine over the `uvm-gpu`
//! device model and the `uvm-hostos` substrate.
//!
//! * [`policy`] — driver tunables: batch size limit (256 by default),
//!   prefetching on/off, per-fault metadata logging.
//! * [`va_block`] / [`va_space`] — the 2 MiB VABlock state machine and the
//!   managed-allocation registry.
//! * [`dedup`] — batch duplicate-fault classification: type 1 (same
//!   address, same μTLB) vs type 2 (same address, different μTLBs).
//! * [`prefetch`] — the reactive tree-based density prefetcher, confined to
//!   a single VABlock (64 KiB leaf regions, >50 % density threshold).
//! * [`backend`] — the servicing-architecture layer: the [`BackendKind`]
//!   enum selecting who runs the pipeline (stock CPU driver, GPUVM-style
//!   GPU-driven queues, or 2/4-peer NVLink-like far-fault servicing with
//!   a per-VABlock owner directory), dispatched by `match`.
//! * [`engine`] — the pluggable policy engine: the
//!   [`PrefetchPolicyKind`] / [`EvictionPolicyKind`] enums with the stock
//!   tree/LRU pair plus none/stride/oracle prefetchers and random/LFU
//!   evictors, all serde-configurable through [`DriverPolicy`] and
//!   dispatched by `match`.
//! * [`evict`] — the GPU physical-memory manager: VABlock-granular
//!   allocation with policy-selected eviction (stock: LRU, "effectively
//!   earliest-allocated", Sec. 5.4).
//! * [`batch`] — [`BatchRecord`], the batch-level instrumentation mirroring
//!   the paper's modified-driver logs: component times (fetch, DMA setup,
//!   CPU unmap, population, transfer, eviction), fault counts, duplicate
//!   counts, VABlock counts.
//! * [`service`] — [`UvmDriver`], the fault-servicing pipeline itself, as
//!   named stages: sustained failures → health → fetch → admit → dedup →
//!   group → per VABlock (remote path | prefetch → allocate → DMA setup →
//!   CPU unmap → migrate) → close. Fallible end to end: injected failures
//!   are retried with deterministic backoff or degrade the block to a
//!   remote mapping.
//! * [`health`] — the graceful-degradation state machine
//!   (`Healthy → Pressured → Degraded → Resetting`): the driver evaluates
//!   evidence at every batch boundary and adapts servicing (prefetch
//!   gating, emergency eviction, reset re-attach) to the device's regime.
//! * [`audit`] — the cross-layer invariant auditor, cross-checking driver
//!   state against the GPU page table, the memory manager, the DMA space,
//!   and host page tables after every batch.
//! * [`clients`] — the multi-tenant client table: per-client VABlock
//!   ranges, fault admission under a [`clients::FairnessPolicy`]
//!   (round-robin, per-client fault quota, weighted share) that records
//!   each batch's per-client arrivals and drops.

pub mod advise;
pub mod audit;
pub mod backend;
pub mod batch;
pub mod clients;
pub mod dedup;
pub mod engine;
pub mod evict;
pub mod health;
pub mod policy;
pub mod prefetch;
pub mod service;
pub mod va_block;
pub mod va_space;

pub use advise::MemAdvise;
pub use backend::{BackendKind, PeerDirectory, PeerHolding};
pub use batch::BatchRecord;
pub use clients::{ClientLedger, FairnessPolicy, TenancyConfig, TenantConfig};
pub use dedup::{classify_duplicates, classify_duplicates_with, DedupResult, DedupScratch};
pub use engine::{EvictionPolicyKind, PrefetchContext, PrefetchPolicyKind};
pub use evict::{EvictScratch, GpuMemoryManager, ResidencyOutcome};
pub use health::{HealthEvidence, HealthMachine, HealthState};
pub use policy::DriverPolicy;
pub use prefetch::compute_prefetch;
pub use service::{ServiceScratch, UvmDriver};
pub use va_block::VaBlockState;
pub use va_space::VaSpace;
