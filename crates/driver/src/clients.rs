//! Multi-tenant client table and fault admission.
//!
//! A UVM *service* hosts several clients (processes) on one device. Each
//! client owns a disjoint VABlock range of the shared managed address
//! space (the tenancy layer in `uvm-core` packs the client workloads), and
//! the driver carries a [`ClientLedger`] that
//!
//! * maps every faulting page back to its client (a scan over the
//!   disjoint block ranges — client tables are small), and
//! * applies the configured [`FairnessPolicy`] to each fetched batch
//!   before servicing (*admission*): faults above a client's per-batch
//!   quota are dropped and regenerate after the end-of-batch replay,
//!   exactly like buffer-flush drops — the paper's per-SM fault throttle
//!   generalized to a per-client throttle.
//!
//! Per-client fault and throttle counts land in each batch record
//! (`client_faults`, `throttled_faults`); the ledger keeps no running
//! totals of its own. A disabled ledger (no clients) draws no RNG, charges
//! no simulated time, and adds nothing to any record, so single-tenant
//! runs are bit-identical to a driver without the subsystem. The ledger
//! serializes with the driver. The auditor's ninth invariant requires
//! every GPU-accessible page to lie in some client's range
//! (`crate::audit`).

use serde::{Deserialize, Serialize};
use uvm_gpu::fault::FaultRecord;
use uvm_sim::mem::{PageNum, VaBlockId, PAGES_PER_VABLOCK};

/// How the driver divides per-batch fault-servicing capacity between
/// clients.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum FairnessPolicy {
    /// First-come, first-served: batches service faults in arrival order,
    /// however skewed across clients (the stock single-tenant behavior).
    #[default]
    None,
    /// Interleave the batch client-by-client in arrival order before
    /// servicing. No faults are dropped; a flooding client still consumes
    /// buffer slots but no longer monopolizes the head of the batch.
    RoundRobin,
    /// Hard per-client quota of faults serviced per batch (the paper's
    /// per-SM throttle, applied per client). Faults beyond the quota are
    /// dropped and regenerate after the end-of-batch replay. Clamped to a
    /// minimum of 1 so every client always makes progress.
    FaultQuota(u32),
    /// Per-client quota proportional to the client's configured weight:
    /// `max(1, batch_limit · weightᵢ / Σ weights)`.
    WeightedShare,
}

impl FairnessPolicy {
    /// Stable lower-case name for reports and goldens.
    pub fn name(&self) -> &'static str {
        match self {
            FairnessPolicy::None => "none",
            FairnessPolicy::RoundRobin => "round-robin",
            FairnessPolicy::FaultQuota(_) => "fault-quota",
            FairnessPolicy::WeightedShare => "weighted-share",
        }
    }
}

/// One client of the service: a name, a scheduling weight, and the
/// VABlock range its rebased workload occupies.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantConfig {
    /// Client name (used in reports).
    pub name: String,
    /// Weight for [`FairnessPolicy::WeightedShare`] (≥ 1).
    pub weight: u32,
    /// First VABlock of the client's address-space slice.
    pub first_block: u64,
    /// VABlocks in the slice (`[first_block, first_block + blocks)`).
    pub blocks: u64,
}

impl TenantConfig {
    /// Whether `block` falls inside this client's slice.
    pub fn contains_block(&self, block: u64) -> bool {
        block >= self.first_block && block < self.first_block + self.blocks
    }
}

/// The tenancy section of a system configuration: the client table plus
/// the fairness policy the driver applies at batch admission. An empty
/// client table disables the subsystem entirely.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenancyConfig {
    /// Admission fairness policy.
    pub fairness: FairnessPolicy,
    /// Clients, with disjoint VABlock ranges.
    pub clients: Vec<TenantConfig>,
}

impl TenancyConfig {
    /// The disabled (single-tenant) configuration.
    pub fn none() -> Self {
        TenancyConfig { fairness: FairnessPolicy::None, clients: Vec::new() }
    }

    /// Whether any clients are configured.
    pub fn is_enabled(&self) -> bool {
        !self.clients.is_empty()
    }

    /// The client owning `page`, if any (linear scan; for report-side
    /// attribution — the driver's ledger keeps a sorted copy).
    pub fn client_of_page(&self, page: u64) -> Option<usize> {
        let block = page / PAGES_PER_VABLOCK;
        self.clients.iter().position(|c| c.contains_block(block))
    }
}

impl Default for TenancyConfig {
    fn default() -> Self {
        TenancyConfig::none()
    }
}

/// The outcome of admitting one batch: per-client arrival counts and
/// throttle drops (indices parallel the client table).
#[derive(Debug, Clone, Default)]
pub struct AdmitOutcome {
    /// Faults attributed to each client (arrival counts, pre-admission).
    pub per_client: Vec<u64>,
    /// Faults dropped over each client's quota.
    pub throttled_per_client: Vec<u64>,
    /// Total faults dropped this batch.
    pub throttled: u64,
}

/// The driver-resident client table and fairness policy.
///
/// Disabled (empty) by default; installed by the system layer from the
/// [`TenancyConfig`]. Serializes with the driver.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClientLedger {
    /// Admission fairness policy.
    fairness: FairnessPolicy,
    /// Client table, sorted by `first_block` for binary search.
    clients: Vec<TenantConfig>,
}

impl ClientLedger {
    /// The disabled single-tenant ledger.
    pub fn disabled() -> Self {
        ClientLedger::default()
    }

    /// Build a ledger from a tenancy configuration. Client order is
    /// preserved for per-batch attribution and reports. Panics if client
    /// ranges overlap — the tenancy composer guarantees disjointness.
    pub fn new(config: &TenancyConfig) -> Self {
        let ledger = ClientLedger {
            fairness: config.fairness,
            clients: config.clients.clone(),
        };
        let mut ranges: Vec<(u64, u64)> =
            ledger.clients.iter().map(|c| (c.first_block, c.blocks)).collect();
        ranges.sort_unstable();
        for w in ranges.windows(2) {
            assert!(
                w[0].0 + w[0].1 <= w[1].0,
                "client VABlock ranges overlap: {w:?}"
            );
        }
        ledger
    }

    /// Whether any clients are configured.
    pub fn is_enabled(&self) -> bool {
        !self.clients.is_empty()
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// The client table.
    pub fn clients(&self) -> &[TenantConfig] {
        &self.clients
    }

    /// The active fairness policy.
    pub fn fairness(&self) -> FairnessPolicy {
        self.fairness
    }

    /// The client owning `block`, if any.
    pub fn client_of_block(&self, block: VaBlockId) -> Option<usize> {
        self.clients.iter().position(|c| c.contains_block(block.0))
    }

    /// The client owning `page`, if any.
    pub fn client_of_page(&self, page: PageNum) -> Option<usize> {
        self.client_of_block(page.va_block())
    }

    /// Per-client quota for one batch under the active policy; `None`
    /// means unlimited.
    fn quota(&self, client: usize, batch_limit: u64) -> Option<u64> {
        match self.fairness {
            FairnessPolicy::None | FairnessPolicy::RoundRobin => None,
            FairnessPolicy::FaultQuota(q) => Some(u64::from(q).max(1)),
            FairnessPolicy::WeightedShare => {
                let total: u64 =
                    self.clients.iter().map(|c| u64::from(c.weight.max(1))).sum();
                let w = u64::from(self.clients[client].weight.max(1));
                Some((batch_limit * w / total.max(1)).max(1))
            }
        }
    }

    /// Admit one fetched batch: attribute arrivals, apply the fairness
    /// policy, and write the admitted faults into `out` (cleared first).
    /// Faults on pages outside every client range are never throttled.
    /// Deterministic: a pure function of the batch and the client table.
    pub fn admit(
        &self,
        faults: &[FaultRecord],
        batch_limit: u64,
        out: &mut Vec<FaultRecord>,
    ) -> AdmitOutcome {
        let n = self.clients.len();
        let mut outcome = AdmitOutcome {
            per_client: vec![0; n],
            throttled_per_client: vec![0; n],
            throttled: 0,
        };
        out.clear();
        out.reserve(faults.len());

        // Arrival attribution (pre-admission: these faults were fetched).
        let owners: Vec<Option<usize>> =
            faults.iter().map(|f| self.client_of_page(f.page)).collect();
        for owner in owners.iter().flatten() {
            outcome.per_client[*owner] += 1;
        }

        match self.fairness {
            FairnessPolicy::None => out.extend_from_slice(faults),
            FairnessPolicy::RoundRobin => {
                // Stable client-interleave: bucket per client (arrival
                // order preserved within a bucket; unowned faults form a
                // trailing bucket), then take one fault per client per
                // round.
                let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
                for (i, owner) in owners.iter().enumerate() {
                    buckets[owner.unwrap_or(n)].push(i);
                }
                let mut round = 0;
                loop {
                    let mut any = false;
                    for bucket in &buckets {
                        if let Some(&i) = bucket.get(round) {
                            out.push(faults[i]);
                            any = true;
                        }
                    }
                    if !any {
                        break;
                    }
                    round += 1;
                }
            }
            FairnessPolicy::FaultQuota(_) | FairnessPolicy::WeightedShare => {
                // Stable filter: keep each client's first `quota` faults
                // in arrival order, drop the rest (they re-fault after
                // the end-of-batch replay).
                let mut kept = vec![0u64; n];
                for (i, owner) in owners.iter().enumerate() {
                    match owner {
                        None => out.push(faults[i]),
                        Some(c) => {
                            let cap = self.quota(*c, batch_limit).unwrap_or(u64::MAX);
                            if kept[*c] < cap {
                                kept[*c] += 1;
                                out.push(faults[i]);
                            } else {
                                outcome.throttled_per_client[*c] += 1;
                                outcome.throttled += 1;
                            }
                        }
                    }
                }
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvm_gpu::fault::AccessKind;
    use uvm_sim::time::SimTime;

    fn two_clients(fairness: FairnessPolicy) -> ClientLedger {
        ClientLedger::new(&TenancyConfig {
            fairness,
            clients: vec![
                TenantConfig { name: "a".into(), weight: 1, first_block: 1, blocks: 4 },
                TenantConfig { name: "b".into(), weight: 3, first_block: 5, blocks: 4 },
            ],
        })
    }

    fn fault_in_block(block: u64, i: u64) -> FaultRecord {
        FaultRecord {
            page: PageNum(block * PAGES_PER_VABLOCK + i),
            kind: AccessKind::Read,
            warp: 0,
            arrival: SimTime(i),
            dup_of_outstanding: false,
        }
    }

    #[test]
    fn page_to_client_lookup() {
        let l = two_clients(FairnessPolicy::None);
        assert_eq!(l.client_of_block(VaBlockId(1)), Some(0));
        assert_eq!(l.client_of_block(VaBlockId(4)), Some(0));
        assert_eq!(l.client_of_block(VaBlockId(5)), Some(1));
        assert_eq!(l.client_of_block(VaBlockId(9)), None);
        assert_eq!(l.client_of_block(VaBlockId(0)), None);
        assert_eq!(l.client_of_page(PageNum(5 * PAGES_PER_VABLOCK)), Some(1));
    }

    #[test]
    fn none_policy_is_passthrough() {
        let l = two_clients(FairnessPolicy::None);
        let batch: Vec<_> = (0..6).map(|i| fault_in_block(1 + (i % 2) * 4, i)).collect();
        let mut out = Vec::new();
        let o = l.admit(&batch, 256, &mut out);
        assert_eq!(out, batch, "no reorder, no drops");
        assert_eq!(o.per_client, vec![3, 3]);
        assert_eq!(o.throttled, 0);
    }

    #[test]
    fn round_robin_interleaves_without_drops() {
        let l = two_clients(FairnessPolicy::RoundRobin);
        // 4 faults from client 0, then 2 from client 1.
        let batch: Vec<_> = (0..4)
            .map(|i| fault_in_block(1, i))
            .chain((0..2).map(|i| fault_in_block(5, 100 + i)))
            .collect();
        let mut out = Vec::new();
        let o = l.admit(&batch, 256, &mut out);
        assert_eq!(o.throttled, 0);
        assert_eq!(out.len(), batch.len());
        let order: Vec<u64> = out.iter().map(|f| f.arrival.0).collect();
        assert_eq!(order, vec![0, 100, 1, 101, 2, 3], "client-interleaved, stable");
    }

    #[test]
    fn fault_quota_drops_over_cap_per_client() {
        let l = two_clients(FairnessPolicy::FaultQuota(2));
        let batch: Vec<_> = (0..5)
            .map(|i| fault_in_block(1, i))
            .chain((0..1).map(|i| fault_in_block(5, 100 + i)))
            .collect();
        let mut out = Vec::new();
        let o = l.admit(&batch, 256, &mut out);
        assert_eq!(o.per_client, vec![5, 1]);
        assert_eq!(o.throttled_per_client, vec![3, 0]);
        assert_eq!(o.throttled, 3);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn weighted_share_scales_quota_with_weight() {
        let l = two_clients(FairnessPolicy::WeightedShare);
        // batch_limit 8, weights 1:3 → caps 2 and 6.
        let batch: Vec<_> = (0..4)
            .map(|i| fault_in_block(1, i))
            .chain((0..8).map(|i| fault_in_block(5, 100 + i)))
            .collect();
        let mut out = Vec::new();
        let o = l.admit(&batch, 8, &mut out);
        assert_eq!(o.throttled_per_client, vec![2, 2]);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn quota_never_starves_a_client() {
        let l = two_clients(FairnessPolicy::FaultQuota(0));
        let batch = vec![fault_in_block(1, 0), fault_in_block(5, 1)];
        let mut out = Vec::new();
        let o = l.admit(&batch, 256, &mut out);
        assert_eq!(o.throttled, 0, "quota clamps to 1 per client");
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn unowned_faults_are_never_throttled() {
        let l = two_clients(FairnessPolicy::FaultQuota(1));
        let batch = vec![fault_in_block(20, 0), fault_in_block(20, 1), fault_in_block(20, 2)];
        let mut out = Vec::new();
        let o = l.admit(&batch, 256, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(o.per_client, vec![0, 0]);
    }

    #[test]
    fn disabled_ledger_is_inert() {
        let l = ClientLedger::disabled();
        assert!(!l.is_enabled());
        let batch = vec![fault_in_block(1, 0)];
        let mut out = Vec::new();
        let o = l.admit(&batch, 256, &mut out);
        assert_eq!(out, batch);
        assert!(o.per_client.is_empty());
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_ranges_rejected() {
        let _ = ClientLedger::new(&TenancyConfig {
            fairness: FairnessPolicy::None,
            clients: vec![
                TenantConfig { name: "a".into(), weight: 1, first_block: 1, blocks: 4 },
                TenantConfig { name: "b".into(), weight: 1, first_block: 3, blocks: 4 },
            ],
        });
    }

    #[test]
    fn ledger_round_trips_serde() {
        let l = two_clients(FairnessPolicy::WeightedShare);
        let json = serde_json::to_string(&l).expect("serialize");
        let back: ClientLedger = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, l);
    }
}
