#![warn(missing_docs)]

//! # uvm-core — the full-system simulator and experiment harness
//!
//! This crate is the public façade of the workspace: it wires the
//! `uvm-gpu` device model, the `uvm-driver` fault-servicing state machine,
//! and the `uvm-hostos` substrate into a deterministic discrete-event
//! simulation, and implements one experiment driver per table and figure of
//! Allen & Ge, *"In-Depth Analyses of Unified Virtual Memory System for GPU
//! Accelerated Computing"* (SC '21).
//!
//! ## Quickstart
//!
//! ```
//! use uvm_core::{SystemConfig, UvmSystem};
//! use uvm_workloads::vecadd::{self, VecAddParams};
//!
//! // The paper's Listing 1 microbenchmark on a small simulated GPU.
//! let config = SystemConfig::test_small(64 * 1024 * 1024);
//! let workload = vecadd::build(VecAddParams::default());
//! let result = UvmSystem::new(config).run(&workload);
//!
//! // Fig. 3: the first batch holds exactly 56 faults (the μTLB limit).
//! assert_eq!(result.records[0].raw_faults, 56);
//! assert!(result.kernel_time.as_nanos() > 0);
//! ```
//!
//! ## Layout
//!
//! * [`config`] — [`SystemConfig`]: GPU spec + driver policy + cost model +
//!   seed. Presets for the paper's Titan V testbed and for fast tests.
//! * [`system`] — [`UvmSystem`]: the event loop (warp steps, fault
//!   arrivals, driver wakes, batch completions, replays) and [`RunResult`].
//! * [`experiments`] — one module per paper table/figure (plus extension
//!   experiments for `cudaMemAdvise`/prefetch hints and thrashing
//!   mitigation); each returns a serializable result struct with a
//!   `render()` text report.
//! * [`report`] — CSV export and terminal summaries of batch records.
//! * [`snapshot`] — [`snapshot::SystemSnapshot`]: versioned whole-system
//!   checkpoints with per-subsystem integrity digests.
//! * [`runctl`] — [`RunCtx`], the explicit context every experiment runs
//!   under: the `--jobs N` worker budget ([`RunCtx::map`] fans
//!   independent runs across threads with submission-order results), the
//!   `--checkpoint-every` / `--resume` policy, and each run's
//!   deterministic path, which keys its checkpoints.
//! * [`divergence`] — lockstep execution of two instances, reporting the
//!   first batch and subsystem whose state digests disagree.
//! * [`tenancy`] — multi-tenant composition: several clients' workloads
//!   packed into disjoint VABlock ranges of one shared space, with the
//!   client table and fairness policy the driver ledger attributes under.

pub mod chaos;
pub mod config;
pub mod divergence;
pub mod experiments;
mod parallel;
pub mod report;
pub mod runctl;
pub mod snapshot;
pub mod system;
pub mod tenancy;

pub use chaos::{ChaosReport, ReproFile, Scenario};
pub use config::SystemConfig;
pub use runctl::{RunCtl, RunCtx};
pub use snapshot::SystemSnapshot;
pub use system::{Progress, RunHints, RunInProgress, RunResult, UvmSystem};
pub use tenancy::{compose, ClientSpec, InterleaveMode};

// Re-export the component crates so downstream users need only uvm-core.
pub use uvm_driver as driver;
pub use uvm_gpu as gpu;
pub use uvm_hostos as hostos;
pub use uvm_sim as sim;
pub use uvm_stats as stats;
pub use uvm_trace as trace;
pub use uvm_workloads as workloads;
