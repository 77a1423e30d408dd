//! Per-μTLB outstanding-fault tracking.
//!
//! Each μTLB can hold a bounded number of outstanding (replayable) faults —
//! 56 on the paper's Volta hardware. A warp whose access misses while the
//! μTLB is full stalls until the next fault replay clears the entries
//! (Sec. 3.2: the first vector-addition batch contains exactly 56 faults,
//! all of vector A's reads plus most of vector B's).

use serde::{Deserialize, Serialize};
use uvm_sim::hash::FastSet;
use uvm_sim::mem::PageNum;

/// Result of attempting to register a fault with a μTLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UtlbInsert {
    /// A new outstanding-fault entry was created.
    Inserted,
    /// This page already has an outstanding fault from this μTLB; the access
    /// piggybacks on it (and surfaces as a same-μTLB duplicate if the GMMU
    /// logs it again).
    AlreadyOutstanding,
    /// All outstanding-fault slots are occupied; the warp must stall until
    /// replay.
    Full,
}

/// One μTLB's outstanding-fault state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Utlb {
    outstanding: FastSet<PageNum>,
    limit: u32,
    /// Monotone count of stall events due to a full μTLB.
    full_stalls: u64,
    /// Monotone count of entries lost to GPU resets (distinct from the
    /// orderly clears a replay performs).
    reset_losses: u64,
}

impl Utlb {
    /// A μTLB with the given outstanding-fault slot count.
    pub fn new(limit: u32) -> Self {
        Utlb {
            outstanding: FastSet::with_capacity_and_hasher(limit as usize, Default::default()),
            limit,
            full_stalls: 0,
            reset_losses: 0,
        }
    }

    /// Attempt to register an outstanding fault for `page`.
    pub fn try_insert(&mut self, page: PageNum) -> UtlbInsert {
        if self.outstanding.contains(&page) {
            return UtlbInsert::AlreadyOutstanding;
        }
        if self.outstanding.len() as u32 >= self.limit {
            self.full_stalls += 1;
            return UtlbInsert::Full;
        }
        self.outstanding.insert(page);
        UtlbInsert::Inserted
    }

    /// Whether `page` has an outstanding fault.
    pub fn is_outstanding(&self, page: PageNum) -> bool {
        self.outstanding.contains(&page)
    }

    /// Current number of outstanding faults.
    pub fn occupancy(&self) -> u32 {
        self.outstanding.len() as u32
    }

    /// Slot limit.
    pub fn limit(&self) -> u32 {
        self.limit
    }

    /// Monotone count of full-μTLB stalls observed.
    pub fn full_stalls(&self) -> u64 {
        self.full_stalls
    }

    /// A fault replay clears every outstanding entry (waiting μTLB state is
    /// reset and the misses re-execute).
    pub fn replay(&mut self) {
        self.outstanding.clear();
    }

    /// A GPU reset loses the tracking state outright: entries vanish
    /// without the orderly hand-off a replay performs. Returns the number
    /// of entries lost (also accumulated in [`Utlb::reset_losses`]).
    pub fn reset(&mut self) -> u64 {
        let lost = self.outstanding.len() as u64;
        self.reset_losses += lost;
        self.outstanding.clear();
        lost
    }

    /// Monotone count of entries lost to GPU resets.
    pub fn reset_losses(&self) -> u64 {
        self.reset_losses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_to_limit_then_stalls() {
        let mut u = Utlb::new(56);
        for i in 0..56 {
            assert_eq!(u.try_insert(PageNum(i)), UtlbInsert::Inserted);
        }
        assert_eq!(u.occupancy(), 56);
        assert_eq!(u.try_insert(PageNum(100)), UtlbInsert::Full);
        assert_eq!(u.full_stalls(), 1);
    }

    #[test]
    fn duplicate_page_does_not_consume_slot() {
        let mut u = Utlb::new(2);
        assert_eq!(u.try_insert(PageNum(1)), UtlbInsert::Inserted);
        assert_eq!(u.try_insert(PageNum(1)), UtlbInsert::AlreadyOutstanding);
        assert_eq!(u.occupancy(), 1);
        assert!(u.is_outstanding(PageNum(1)));
    }

    #[test]
    fn replay_clears_everything() {
        let mut u = Utlb::new(4);
        for i in 0..4 {
            u.try_insert(PageNum(i));
        }
        assert_eq!(u.try_insert(PageNum(9)), UtlbInsert::Full);
        u.replay();
        assert_eq!(u.occupancy(), 0);
        assert_eq!(u.try_insert(PageNum(9)), UtlbInsert::Inserted);
    }

    #[test]
    fn reset_loses_entries_and_counts_them() {
        let mut u = Utlb::new(8);
        for i in 0..5 {
            u.try_insert(PageNum(i));
        }
        assert_eq!(u.reset(), 5);
        assert_eq!(u.occupancy(), 0);
        assert_eq!(u.reset_losses(), 5);
        // A reset is not a replay-ordered clear; replay accounting is
        // untouched and the μTLB is immediately usable again.
        assert_eq!(u.try_insert(PageNum(9)), UtlbInsert::Inserted);
        assert_eq!(u.reset(), 1);
        assert_eq!(u.reset_losses(), 6);
    }

    #[test]
    fn full_duplicate_still_reports_duplicate() {
        // A duplicate of an outstanding page must be reported as such even
        // when the μTLB is at capacity, since it does not need a new slot.
        let mut u = Utlb::new(1);
        u.try_insert(PageNum(5));
        assert_eq!(u.try_insert(PageNum(5)), UtlbInsert::AlreadyOutstanding);
    }
}
