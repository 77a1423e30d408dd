//! One runner for the extension sweeps: workloads × one config axis.
//!
//! The paper's method is one per-batch component vector summed across
//! configurations. Every extension sweep (`ext-policy`,
//! `ext-architectures`, `ext-multitenant`, `ext-inject`) applies it the
//! same way, so each is declared as a [`Sweep`] value and run here:
//!
//! 1. the workloads are built once, at quick or full size, and every cell
//!    borrows them;
//! 2. each cell runs one workload under one [`Axis`] value, with device
//!    memory set to a fixed fraction of that workload's footprint
//!    (oversubscription);
//! 3. [`Sweep::run`] fans the cells out through [`RunCtx::map`] in
//!    workload-major order, so the result is byte-identical for any
//!    `--jobs N`;
//! 4. each finished run reduces to one serializable [`Cell`], and
//!    [`Sweep::render`] prints the sweep's tables from the cells.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use uvm_driver::backend::BackendKind;
use uvm_driver::clients::{FairnessPolicy, TenancyConfig};
use uvm_driver::policy::DriverPolicy;
use uvm_driver::{EvictionPolicyKind, PrefetchPolicyKind};
use uvm_sim::inject::FaultPlan;
use uvm_stats::{grouped_percentile, jain_index};
use uvm_workloads::workload::Workload;

use crate::experiments::suite::experiment_config;
use crate::runctl::RunCtx;
use crate::system::{RunHints, RunResult};
use crate::SystemConfig;

/// One value of a sweep's per-cell config axis.
#[derive(Debug, Clone, Copy)]
pub enum Axis {
    /// Prefetch × eviction policy pair.
    Policy(PrefetchPolicyKind, EvictionPolicyKind),
    /// Fault-servicing backend.
    Backend(BackendKind),
    /// Admission fairness policy over the sweep's clients.
    Fairness(FairnessPolicy),
    /// [`FaultPlan::uniform`] failure rate at every injection point.
    FaultRate(f64),
}

impl Axis {
    fn apply(self, config: SystemConfig) -> SystemConfig {
        match self {
            Axis::Policy(p, e) => {
                let policy = config.policy.clone().prefetcher(p).evictor(e);
                config.with_policy(policy)
            }
            Axis::Backend(b) => config.with_backend(b),
            Axis::Fairness(f) => {
                let tenancy = TenancyConfig { fairness: f, ..config.tenancy.clone() };
                config.with_tenancy(tenancy)
            }
            Axis::FaultRate(r) => config.with_fault_plan(FaultPlan::uniform(r)),
        }
    }

    /// The labels a cell carries for this value, one per config column.
    fn labels(self) -> Vec<String> {
        match self {
            Axis::Policy(p, e) => vec![p.name().into(), e.name().into()],
            Axis::Backend(b) => vec![b.name().into()],
            Axis::Fairness(f) => vec![f.name().into()],
            Axis::FaultRate(r) => vec![format!("{r:.2}")],
        }
    }
}

/// A table column: its header and how a cell renders into it.
pub type Column = (&'static str, fn(&Cell) -> String);
/// A per-client table column.
pub type ClientColumn = (&'static str, fn(&Cell, &ClientCell) -> String);

/// The rows of one rendered table.
pub enum Rows {
    /// One row per cell.
    Cells(Vec<Column>),
    /// One row per client of each cell.
    Clients(Vec<ClientColumn>),
}

/// One rendered table, preceded by an optional caption line.
pub struct Table {
    /// Line printed above the table.
    pub caption: Option<&'static str>,
    /// The table's rows and columns.
    pub rows: Rows,
}

/// One extension sweep: named workloads crossed with one config axis.
pub struct Sweep {
    /// Report heading, the first line of [`Sweep::render`].
    pub title: &'static str,
    /// Named workloads, built once and shared by every cell.
    pub workloads: Vec<(&'static str, Workload)>,
    /// Device memory as the fraction `(num, den)` of each workload's
    /// footprint (`(4, 5)` is ~125 % oversubscription), at least 4 MiB.
    pub resident: (u64, u64),
    /// The driver policy every cell starts from.
    pub policy: DriverPolicy,
    /// Client table of multi-tenant sweeps; cells then report per-client
    /// faults and latency (which needs `policy.log_faults`).
    pub tenancy: TenancyConfig,
    /// The per-cell config axis, crossed with every workload.
    pub axis: Vec<Axis>,
    /// The report's tables, in order.
    pub tables: Vec<Table>,
}

/// One cell's outcome, reduced from its [`RunResult`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Cell {
    /// Workload name.
    pub workload: String,
    /// Config-axis labels, e.g. `["tree", "lru"]`, `["peer-2"]`, `["0.05"]`.
    pub config: Vec<String>,
    /// Kernel time (ms); 0 when the run failed.
    pub kernel_ms: f64,
    /// Fault batches serviced.
    pub batches: u64,
    /// Batch component times summed over the run (ns), in
    /// `BatchRecord::component_ns` order: fetch, preprocess, DMA setup,
    /// unmap, populate, transfer, evict, PTE, fixed, backoff.
    pub component_ns: [u64; 10],
    /// Pages migrated onto the device (any source).
    pub pages_migrated: u64,
    /// Pages added by the prefetcher.
    pub pages_prefetched: u64,
    /// VABlock evictions.
    pub evictions: u64,
    /// Host-writeback eviction traffic (bytes).
    pub bytes_evicted: u64,
    /// Device→peer spill traffic (bytes).
    pub bytes_spilled_to_peer: u64,
    /// Peer→device re-fault fetch traffic (bytes).
    pub bytes_from_peer: u64,
    /// Failures injected across all points.
    pub injected: u64,
    /// Retry attempts performed by the driver.
    pub retries: u64,
    /// VABlocks degraded to remote (sysmem-mapped) state.
    pub degraded_blocks: u64,
    /// Faults lost to injected buffer-overflow storms.
    pub dropped_faults: u64,
    /// Pages left remote-mapped by degradations and pins.
    pub remote_mapped: u64,
    /// Faults dropped at admission over client quotas.
    pub throttled: u64,
    /// Per-client attribution; empty without tenancy.
    pub clients: Vec<ClientCell>,
    /// The terminal error when recovery was exhausted.
    pub error: Option<String>,
}

/// One client's faults and fault-service latency (buffer arrival → batch
/// close) within a cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClientCell {
    /// Client name.
    pub name: String,
    /// Scheduling weight.
    pub weight: u32,
    /// Faults attributed to the client at admission.
    pub faults: u64,
    /// Mean latency (ms); 0 when no fault was logged.
    pub mean_ms: f64,
    /// Median latency (ms).
    pub p50_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_ms: f64,
}

impl Cell {
    /// Summed component time in ms over the given `component_ns` indices.
    pub fn ms(&self, components: &[usize]) -> f64 {
        components.iter().map(|&i| self.component_ns[i]).sum::<u64>() as f64 / 1e6
    }

    /// Jain fairness index over the clients' mean latencies (1.0 = even).
    pub fn jain(&self) -> f64 {
        jain_index(&self.clients.iter().map(|c| c.mean_ms).collect::<Vec<_>>())
    }

    fn record(&mut self, r: &RunResult, tenancy: &TenancyConfig) {
        self.kernel_ms = r.kernel_time.as_nanos() as f64 / 1e6;
        self.batches = r.num_batches;
        self.evictions = r.evictions;
        for rec in &r.records {
            for (acc, ns) in self.component_ns.iter_mut().zip(rec.component_ns()) {
                *acc += ns;
            }
            self.pages_migrated += rec.pages_migrated;
            self.pages_prefetched += rec.prefetched_pages;
            self.bytes_evicted += rec.bytes_evicted;
            self.bytes_spilled_to_peer += rec.bytes_spilled_to_peer;
            self.bytes_from_peer += rec.bytes_from_peer;
            self.injected += rec.injected_faults;
            self.retries += rec.retries;
            self.degraded_blocks += rec.degraded_blocks;
            self.dropped_faults += rec.dropped_faults;
            self.remote_mapped += rec.remote_mapped_pages;
            self.throttled += rec.throttled_faults;
        }
        self.clients = client_cells(r, tenancy);
    }
}

/// Attribute faults and fault-service latencies to the sweep's clients.
fn client_cells(r: &RunResult, tenancy: &TenancyConfig) -> Vec<ClientCell> {
    let n = tenancy.clients.len();
    let end_of: BTreeMap<_, _> = r.records.iter().map(|rec| (rec.seq, rec.end)).collect();
    let samples: Vec<(usize, f64)> = r
        .fault_log
        .iter()
        .filter_map(|m| {
            let client = tenancy.client_of_page(m.page)?;
            let end = end_of.get(&m.batch_seq)?;
            Some((client, (*end - m.arrival).as_nanos() as f64 / 1e6))
        })
        .collect();
    let p50 = grouped_percentile(samples.iter().copied(), n, 50.0);
    let p99 = grouped_percentile(samples.iter().copied(), n, 99.0);
    let (mut sum, mut count, mut faults) = (vec![0.0f64; n], vec![0u64; n], vec![0u64; n]);
    for &(c, ms) in &samples {
        sum[c] += ms;
        count[c] += 1;
    }
    for rec in &r.records {
        for (acc, &f) in faults.iter_mut().zip(&rec.client_faults) {
            *acc += f;
        }
    }
    tenancy
        .clients
        .iter()
        .enumerate()
        .map(|(c, t)| ClientCell {
            name: t.name.clone(),
            weight: t.weight,
            faults: faults[c],
            mean_ms: if count[c] == 0 { 0.0 } else { sum[c] / count[c] as f64 },
            p50_ms: p50[c],
            p99_ms: p99[c],
        })
        .collect()
}

impl Sweep {
    /// Run every (workload, axis value) cell at `seed`, workload-major,
    /// across `ctx`'s worker budget; results come back in that order.
    pub fn run(&self, ctx: &RunCtx, seed: u64) -> Vec<Cell> {
        let cells: Vec<_> = self
            .workloads
            .iter()
            .flat_map(|w| self.axis.iter().map(move |&a| (w, a)))
            .collect();
        ctx.map(cells, |ctx, ((name, w), axis)| self.measure(ctx, name, w, axis, seed))
    }

    fn measure(&self, ctx: &RunCtx, name: &str, w: &Workload, axis: Axis, seed: u64) -> Cell {
        let (num, den) = self.resident;
        let memory_mb = (w.footprint_bytes() / (1024 * 1024) * num / den).max(4);
        let config = axis.apply(
            experiment_config(memory_mb)
                .with_policy(self.policy.clone())
                .with_tenancy(self.tenancy.clone())
                .with_seed(seed),
        );
        let mut cell = Cell { workload: name.into(), config: axis.labels(), ..Cell::default() };
        match ctx.try_run(config, w, &RunHints::default()) {
            Ok(r) => cell.record(&r, &self.tenancy),
            Err(e) => cell.error = Some(e.to_string()),
        }
        cell
    }

    /// The report: the heading, then each table under its caption.
    pub fn render(&self, cells: &[Cell]) -> String {
        let mut out = self.title.to_string();
        for table in &self.tables {
            out.push('\n');
            if let Some(caption) = table.caption {
                out.push_str(caption);
                out.push('\n');
            }
            let t = match &table.rows {
                Rows::Cells(cols) => {
                    let mut t = uvm_stats::Table::new(cols.iter().map(|c| c.0).collect());
                    for cell in cells {
                        t.row(cols.iter().map(|c| (c.1)(cell)).collect());
                    }
                    t
                }
                Rows::Clients(cols) => {
                    let mut t = uvm_stats::Table::new(cols.iter().map(|c| c.0).collect());
                    for cell in cells {
                        for client in &cell.clients {
                            t.row(cols.iter().map(|c| (c.1)(cell, client)).collect());
                        }
                    }
                    t
                }
            };
            out.push_str(&t.render());
        }
        out
    }
}

/// The cell for `workload` whose config labels equal `config`.
pub fn find<'a>(cells: &'a [Cell], workload: &str, config: &[&str]) -> Option<&'a Cell> {
    cells.iter().find(|c| c.workload == workload && c.config == config)
}

/// Columns shared by several sweeps.
pub const WORKLOAD: Column = ("Workload", |c| c.workload.clone());
/// Kernel time (ms).
pub const KERNEL_MS: Column = ("Kernel (ms)", |c| format!("{:.2}", c.kernel_ms));
/// Fault batches serviced.
pub const BATCHES: Column = ("Batches", |c| c.batches.to_string());

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{ext_architectures, golden_form};

    #[test]
    fn architectures_quick_grid_matches_its_golden() {
        let sweep = ext_architectures::sweep(true);
        let cells = sweep.run(&RunCtx::new(1), 0x5C21);
        assert_eq!(
            golden_form(&sweep.render(&cells)),
            include_str!("golden/ext_architectures_quick.txt")
        );
        // The cells are the `--json` dump; they round-trip unchanged.
        let json = serde_json::to_string(&cells).unwrap();
        let back: Vec<Cell> = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}
