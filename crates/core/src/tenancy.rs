//! Multi-tenant workload composition.
//!
//! A multi-tenant run packs several clients' private workloads into one
//! shared virtual address space and one GPU. Each client keeps its own
//! allocations, warp programs, and CPU-init touches; [`compose`] rebases
//! client `c` by the cumulative [`Workload::span_blocks`] of the clients
//! before it, so the per-client VABlock ranges are disjoint by
//! construction. The returned [`TenancyConfig`] carries those ranges plus
//! the fairness policy; [`crate::UvmSystem::new`] installs it into the
//! driver's client ledger, which attributes every fetched fault to its
//! client and applies the fairness policy at batch admission.
//!
//! The clients are co-scheduled: round `k` of every client launches as
//! **one merged kernel**, so clients' warps contend for the fault pipeline
//! simultaneously (the interesting regime for fairness policies).
//!
//! Composing a **single** client is the identity on the workload (same
//! name, allocations, programs, and kernel boundaries), so a
//! single-tenant run driven through this layer is bit-identical to the
//! same run without it.

use uvm_driver::clients::{FairnessPolicy, TenancyConfig, TenantConfig};
use uvm_workloads::workload::Workload;

/// One tenant: a name, a scheduling weight, and a private workload
/// authored as if it owned the whole address space.
#[derive(Debug, Clone)]
pub struct ClientSpec {
    /// Client name (reports and goldens).
    pub name: String,
    /// Weight under [`FairnessPolicy::WeightedShare`] (ignored by other
    /// policies; must be ≥ 1).
    pub weight: u32,
    /// The client's private workload.
    pub workload: Workload,
}

impl ClientSpec {
    /// A weight-1 client.
    pub fn new(name: &str, workload: Workload) -> Self {
        ClientSpec { name: name.to_string(), weight: 1, workload }
    }

    /// Builder-style weight override.
    pub fn with_weight(mut self, weight: u32) -> Self {
        assert!(weight >= 1, "client weight must be >= 1");
        self.weight = weight;
        self
    }
}

/// Pack `specs` into one shared-address-space workload plus the matching
/// tenancy configuration.
///
/// Client 0 keeps its addresses; client `c` is rebased up by the summed
/// spans of clients `0..c`. The per-client [`TenantConfig`] range covers
/// exactly the rebased client's VABlock span, so the driver ledger can
/// attribute any page or block to its owner with a range lookup. Round
/// `k` of every client launches as one merged kernel, so all clients'
/// warps run (and fault) concurrently; the result is named
/// `mt-coschedule(<client>+<client>…)`.
///
/// # Panics
///
/// Panics on an empty spec list or a zero client weight.
pub fn compose(specs: &[ClientSpec], fairness: FairnessPolicy) -> (Workload, TenancyConfig) {
    assert!(!specs.is_empty(), "compose requires at least one client");
    for s in specs {
        assert!(s.weight >= 1, "client `{}` has zero weight", s.name);
    }

    // Rebase every client into its slice of the shared space and record
    // the slice in the client table.
    let mut offset = 0u64;
    let mut rebased: Vec<Workload> = Vec::with_capacity(specs.len());
    let mut clients: Vec<TenantConfig> = Vec::with_capacity(specs.len());
    for spec in specs {
        let w = spec.workload.rebased(offset);
        let span = spec.workload.span_blocks();
        clients.push(TenantConfig {
            name: spec.name.clone(),
            weight: spec.weight,
            first_block: offset,
            blocks: span,
        });
        offset += span;
        rebased.push(w);
    }
    let tenancy = TenancyConfig { fairness, clients };

    // A single client composes to its own workload unchanged — the
    // tenancy layer must be the identity on single-tenant runs.
    if specs.len() == 1 {
        return (rebased.into_iter().next().expect("one client"), tenancy);
    }

    let name = format!(
        "mt-coschedule({})",
        specs.iter().map(|s| s.name.as_str()).collect::<Vec<_>>().join("+")
    );
    let mut out = Workload {
        name,
        allocations: Vec::new(),
        programs: Vec::new(),
        cpu_init: Vec::new(),
        kernel_ends: Vec::new(),
    };
    for w in &mut rebased {
        out.allocations.append(&mut w.allocations);
        out.cpu_init.append(&mut w.cpu_init);
    }

    // Merge kernels round by round. `kernels()` yields each client's
    // sequential launch ranges; clients with fewer rounds simply drop out
    // of later rounds.
    let per_client: Vec<Vec<std::ops::Range<usize>>> =
        rebased.iter().map(|w| w.kernels()).collect();
    let rounds = per_client.iter().map(Vec::len).max().unwrap_or(0);
    for round in 0..rounds {
        for (ci, kernels) in per_client.iter().enumerate() {
            if let Some(range) = kernels.get(round) {
                out.programs.extend(rebased[ci].programs[range.clone()].iter_mut().map(std::mem::take));
            }
        }
        out.kernel_ends.push(out.programs.len());
    }
    (out, tenancy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvm_gpu::isa::WarpProgram;
    use uvm_sim::mem::VABLOCK_SIZE;

    fn client(name: &str, blocks: u64, kernels: usize) -> ClientSpec {
        let mut b = Workload::builder(name);
        let a = b.alloc(blocks * VABLOCK_SIZE);
        for k in 0..kernels {
            let mut p = WarpProgram::new();
            p.load([a.page(k as u64)]);
            b.warp(p);
            b.end_kernel();
        }
        ClientSpec::new(name, b.build())
    }

    #[test]
    fn single_client_is_identity() {
        let spec = client("solo", 2, 2);
        let (w, t) = compose(std::slice::from_ref(&spec), FairnessPolicy::RoundRobin);
        assert_eq!(w.name, spec.workload.name);
        assert_eq!(w.allocations, spec.workload.allocations);
        assert_eq!(w.kernel_ends, spec.workload.kernel_ends);
        assert_eq!(w.cpu_init, spec.workload.cpu_init);
        assert_eq!(t.clients.len(), 1);
        assert_eq!(t.fairness, FairnessPolicy::RoundRobin);
    }

    #[test]
    fn two_clients_get_disjoint_block_ranges() {
        let a = client("a", 2, 1);
        let b = client("b", 3, 1);
        let (w, t) = compose(&[a, b], FairnessPolicy::None);
        assert_eq!(w.allocations.len(), 2);
        // Client a spans blocks 0..3 (guard + 2), b is rebased past it.
        assert_eq!(t.clients[0].first_block, 0);
        assert_eq!(t.clients[0].blocks, 3);
        assert_eq!(t.clients[1].first_block, 3);
        assert_eq!(t.clients[1].blocks, 4);
        assert!(w.allocations[0].end().0 <= w.allocations[1].base.0);
        // Every allocated page maps back to its owner.
        let p0 = w.allocations[0].page(0);
        let p1 = w.allocations[1].page(0);
        assert_eq!(t.client_of_page(p0.0), Some(0));
        assert_eq!(t.client_of_page(p1.0), Some(1));
    }

    #[test]
    fn coschedule_merges_rounds_into_one_kernel() {
        let a = client("a", 1, 2);
        let b = client("b", 1, 3);
        let (w, _) = compose(&[a, b], FairnessPolicy::None);
        // Rounds: (a0+b0), (a1+b1), (b2) → 3 kernels, 5 programs.
        assert_eq!(w.num_warps(), 5);
        assert_eq!(w.kernels().len(), 3);
        assert_eq!(w.kernels()[0], 0..2);
        assert_eq!(w.kernels()[2], 4..5);
        // The name feeds workload digests; it keeps its historical form.
        assert_eq!(w.name, "mt-coschedule(a+b)");
    }

    #[test]
    #[should_panic]
    fn empty_spec_list_rejected() {
        let _ = compose(&[], FairnessPolicy::None);
    }
}
