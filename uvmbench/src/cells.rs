//! The three benchmark workloads, as sets of cells generated from a seed.
//!
//! A cell is one unit of simulated work whose output is checked: a
//! workload run to completion under one system configuration, or one
//! chaos trial. Cells are generated afresh in every pass (generation is
//! part of the measured set-up), always in the same order, so cell `i` of
//! one pass is cell `i` of every other pass.

use uvm_core::chaos::Scenario;
use uvm_core::driver::backend::BackendKind;
use uvm_core::driver::policy::DriverPolicy;
use uvm_core::experiments::suite::{experiment_config, Bench};
use uvm_core::workloads::cpu_init::CpuInitPolicy;
use uvm_core::workloads::workload::Workload;
use uvm_core::workloads::{attention, gauss_seidel, graph_bfs, random, stream};
use uvm_core::SystemConfig;

const MB: u64 = 1024 * 1024;

/// Kill/restore load of one `chaos-torture` pass, in footprint pages per
/// kill point. A trial's host time is dominated by its snapshot round
/// trips, whose cost grows with the workload's footprint, so a pass takes
/// campaign trials in order until their load reaches this budget; its host
/// work then varies little with the campaign seed.
const CHAOS_LOAD: u64 = 1_200_000;

/// Load charged per trial for the work it does besides kill/restore (the
/// host time of ~1,600 footprint-page kills).
const TRIAL_LOAD: u64 = 1_600;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The `ext-architectures` grid at ~125 % oversubscription.
    ArchOversub,
    /// The Table 2/3 suite in core, prefetch off and on.
    IncoreSuite,
    /// Seeded chaos trials with kill/restore and per-batch audit.
    ChaosTorture,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 3] = [Kind::ArchOversub, Kind::IncoreSuite, Kind::ChaosTorture];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ArchOversub => "arch-oversub",
            Kind::IncoreSuite => "incore-suite",
            Kind::ChaosTorture => "chaos-torture",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One workload run to completion under one configuration.
#[derive(Debug)]
pub struct RunCell {
    /// `workload/configuration`, for failure messages.
    pub label: String,
    /// Index into [`CellSet::Runs::workloads`].
    pub workload: usize,
    /// The system configuration (seeded).
    pub config: SystemConfig,
}

/// The cells of one pass.
#[derive(Debug)]
pub enum CellSet {
    /// Full-system runs through `UvmSystem::run`; cells share workloads.
    Runs {
        /// The generated workloads.
        workloads: Vec<Workload>,
        /// One cell per (workload, configuration) pair.
        cells: Vec<RunCell>,
    },
    /// Chaos trials through `chaos::run_trial`.
    Trials(Vec<Scenario>),
}

impl CellSet {
    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            CellSet::Runs { cells, .. } => cells.len(),
            CellSet::Trials(scenarios) => scenarios.len(),
        }
    }
}

/// Generate the cells of `kind` for `seed`.
pub fn generate(kind: Kind, seed: u64) -> CellSet {
    match kind {
        Kind::ArchOversub => arch_oversub(seed),
        Kind::IncoreSuite => incore_suite(seed),
        Kind::ChaosTorture => chaos_torture(seed),
    }
}

/// Campaign trials `0..n` of `seed`, for the smallest `n` whose load
/// reaches [`CHAOS_LOAD`].
fn chaos_torture(seed: u64) -> CellSet {
    let mut scenarios = Vec::new();
    let mut load = 0;
    while load < CHAOS_LOAD {
        let s = Scenario::generate(seed, scenarios.len() as u64);
        load += TRIAL_LOAD + s.kill_batches.len() as u64 * s.workload.build().footprint_pages();
        scenarios.push(s);
    }
    CellSet::Trials(scenarios)
}

/// The `ext-architectures` grid: stream, gauss-seidel, bfs and attn, each
/// under every servicing backend, with device memory at 80 % of the
/// footprint and the stock policy. Problem sizes are the grid's quick
/// (CI) sizes, so one pass takes about a second.
fn arch_oversub(seed: u64) -> CellSet {
    let init = Some(CpuInitPolicy::SingleThread);
    let named = [
        (
            "stream",
            stream::build(stream::StreamParams {
                warps: 64,
                pages_per_warp: 8,
                iters: 1,
                warps_per_page: 4,
                cpu_init: init,
            }),
        ),
        (
            "gauss-seidel",
            gauss_seidel::build(gauss_seidel::GaussSeidelParams {
                rows: 1024,
                pages_per_row: 4,
                warps: 64,
                iters: 2,
                compute_per_row: uvm_core::sim::time::SimDuration::from_micros(2),
                cpu_init: init,
            }),
        ),
        (
            "bfs",
            graph_bfs::build(graph_bfs::GraphBfsParams {
                vertices: 2048,
                vdata_bytes: 1024,
                max_levels: 6,
                seed,
                ..graph_bfs::GraphBfsParams::default()
            }),
        ),
        (
            "attn",
            attention::build(attention::AttentionParams {
                kv_rows: 1024,
                batches: 3,
                queries_per_batch: 8,
                hot_rows: 64,
                ..attention::AttentionParams::default()
            }),
        ),
    ];
    let mut workloads = Vec::new();
    let mut cells = Vec::new();
    for (i, (name, workload)) in named.into_iter().enumerate() {
        let memory_mb = (workload.footprint_bytes() / MB * 4 / 5).max(4);
        for backend in BackendKind::ALL {
            cells.push(RunCell {
                label: format!("{name}/{}", backend.name()),
                workload: i,
                config: experiment_config(memory_mb)
                    .with_seed(seed)
                    .with_backend(backend),
            });
        }
        workloads.push(workload);
    }
    CellSet::Runs { workloads, cells }
}

/// The seven Table 2/3 benchmarks with single-thread CPU init and device
/// memory at twice their footprint, each with prefetch off and on.
fn incore_suite(seed: u64) -> CellSet {
    let mut workloads = Vec::new();
    let mut cells = Vec::new();
    for (i, bench) in Bench::table_suite().into_iter().enumerate() {
        let workload = match bench {
            // `Bench::Random`'s shape with the benchmark's pattern seed.
            Bench::Random => random::build(random::RandomParams {
                warps: 320,
                accesses_per_warp: 48,
                footprint_pages: 110 * 1024,
                seed,
                cpu_init: Some(CpuInitPolicy::SingleThread),
            }),
            _ => bench.build(),
        };
        let memory_mb = (2 * workload.footprint_bytes()).div_ceil(MB);
        for (tag, policy) in [
            ("no-prefetch", DriverPolicy::default()),
            ("prefetch", DriverPolicy::with_prefetch()),
        ] {
            cells.push(RunCell {
                label: format!("{}/{tag}", bench.name()),
                workload: i,
                config: experiment_config(memory_mb)
                    .with_seed(seed)
                    .with_policy(policy),
            });
        }
        workloads.push(workload);
    }
    CellSet::Runs { workloads, cells }
}
