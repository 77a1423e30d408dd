//! Per-core TLB residency and shootdown accounting.
//!
//! When `unmap_mapping_range()` tears down PTEs, every core that may hold a
//! stale translation must be interrupted (an IPI) to flush its TLB. The
//! number of shootdown targets — not the number of pages — is what couples
//! unmap cost to the application's CPU-side parallelization, which is the
//! mechanism behind the paper's Fig. 11 observation that OpenMP
//! multithreading inflates fault-path unmap cost.
//!
//! We track TLB residency at VABlock granularity: fine enough to
//! distinguish "block initialized by one thread" from "block striped across
//! 32 threads", coarse enough to stay cheap for multi-gigabyte workloads.

use serde::{Deserialize, Serialize};
use uvm_sim::hash::FastMap;
use uvm_sim::mem::VaBlockId;

use crate::rmap::CoreSet;

/// Directory of which cores hold (possibly stale) translations per VABlock.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TlbDirectory {
    entries: FastMap<VaBlockId, CoreSet>,
    /// Monotone count of shootdown IPIs issued.
    ipis_sent: u64,
    /// Monotone count of shootdown rounds (one per unmap affecting >= 1
    /// core).
    shootdown_rounds: u64,
}

impl TlbDirectory {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `core` touched (cached translations for) `block`.
    pub fn touch(&mut self, block: VaBlockId, core: u32) {
        self.entries.entry(block).or_default().insert(core);
    }

    /// Cores currently holding translations for `block`.
    pub fn holders(&self, block: VaBlockId) -> CoreSet {
        self.entries.get(&block).copied().unwrap_or(CoreSet::EMPTY)
    }

    /// Perform a shootdown for `block`: returns the number of IPI targets
    /// and clears residency. A round with zero holders costs nothing and is
    /// not counted.
    pub fn shootdown(&mut self, block: VaBlockId) -> u32 {
        let holders = self.entries.remove(&block).unwrap_or(CoreSet::EMPTY);
        let n = holders.len();
        if n > 0 {
            self.ipis_sent += u64::from(n);
            self.shootdown_rounds += 1;
        }
        n
    }

    /// Monotone count of IPIs issued so far.
    pub fn ipis_sent(&self) -> u64 {
        self.ipis_sent
    }

    /// Monotone count of non-empty shootdown rounds.
    pub fn shootdown_rounds(&self) -> u64 {
        self.shootdown_rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_accumulates_holders() {
        let mut tlb = TlbDirectory::new();
        let b = VaBlockId(3);
        tlb.touch(b, 0);
        tlb.touch(b, 5);
        tlb.touch(b, 5); // idempotent
        assert_eq!(tlb.holders(b).len(), 2);
        assert_eq!(tlb.holders(VaBlockId(9)).len(), 0);
    }

    #[test]
    fn shootdown_clears_and_counts() {
        let mut tlb = TlbDirectory::new();
        let b = VaBlockId(1);
        for c in 0..8 {
            tlb.touch(b, c);
        }
        assert_eq!(tlb.shootdown(b), 8);
        assert_eq!(tlb.holders(b).len(), 0);
        assert_eq!(tlb.ipis_sent(), 8);
        assert_eq!(tlb.shootdown_rounds(), 1);
        // Second shootdown finds nothing.
        assert_eq!(tlb.shootdown(b), 0);
        assert_eq!(tlb.shootdown_rounds(), 1);
    }

    #[test]
    fn blocks_are_independent() {
        let mut tlb = TlbDirectory::new();
        tlb.touch(VaBlockId(1), 0);
        tlb.touch(VaBlockId(2), 1);
        assert_eq!(tlb.shootdown(VaBlockId(1)), 1);
        assert_eq!(tlb.holders(VaBlockId(2)).len(), 1);
    }
}
