//! Batch duplicate-fault classification.
//!
//! The driver classifies duplicate faults within a batch into two types
//! (paper Sec. 4.2):
//!
//! * **type 1** — same address, same μTLB: high spatial locality within a
//!   warp/block, or an SM spuriously re-issuing a fault;
//! * **type 2** — same address, *different* μTLBs: data sharing across
//!   blocks scheduled on different SMs (more expensive to reconcile).
//!
//! Duplicates contribute no migrated bytes but are fetched, parsed, and
//! compared — pure overhead, which is why Fig. 8's deduplicated batch sizes
//! differ so much from the raw ones.

use uvm_gpu::fault::{AccessKind, FaultRecord};
use uvm_sim::hash::FastMap;
use uvm_sim::mem::PageNum;

/// Outcome of deduplicating one batch.
#[derive(Debug, Clone, Default)]
pub struct DedupResult {
    /// One representative fault per distinct page, in first-arrival order.
    /// The representative's kind is upgraded to `Write` if *any* fault on
    /// the page was a write (the page must migrate writable).
    pub unique: Vec<FaultRecord>,
    /// Count of same-μTLB duplicates discarded.
    pub dup_same_utlb: u64,
    /// Count of cross-μTLB duplicates discarded.
    pub dup_cross_utlb: u64,
}

impl DedupResult {
    /// Total duplicates discarded.
    pub fn total_dups(&self) -> u64 {
        self.dup_same_utlb + self.dup_cross_utlb
    }
}

/// Reusable working memory for [`classify_duplicates_with`], so the
/// per-batch hot path allocates nothing in steady state.
#[derive(Debug, Default)]
pub struct DedupScratch {
    /// `(page, μTLB, batch index)` sort keys.
    keys: Vec<(u64, u32, u32)>,
    /// `(first-arrival batch index, any-write flag)` per distinct page.
    reps: Vec<(u32, bool)>,
}

/// Sort-based fast path of [`classify_duplicates`]: identical output,
/// no hashing, and all working memory reused across batches.
///
/// The reference's per-page counts are order-independent — a page faulted
/// `m` times from `k` distinct μTLBs always yields `k - 1` cross-μTLB and
/// `m - k` same-μTLB duplicates, whatever the interleaving — so grouping
/// by a `(page, μTLB, index)` sort reproduces them exactly, and re-sorting
/// the representatives by first-arrival index restores the reference's
/// output order.
pub fn classify_duplicates_with(
    batch: &[FaultRecord],
    scratch: &mut DedupScratch,
    out: &mut DedupResult,
) {
    out.unique.clear();
    out.dup_same_utlb = 0;
    out.dup_cross_utlb = 0;
    scratch.keys.clear();
    scratch.reps.clear();
    scratch
        .keys
        .extend(batch.iter().enumerate().map(|(i, f)| (f.page.0, f.utlb, i as u32)));
    scratch.keys.sort_unstable();

    let keys = &scratch.keys;
    let mut i = 0;
    while i < keys.len() {
        let page = keys[i].0;
        let mut distinct_utlbs = 0u64;
        let mut total = 0u64;
        let mut first_idx = u32::MAX;
        let mut any_write = false;
        let mut j = i;
        while j < keys.len() && keys[j].0 == page {
            if j == i || keys[j].1 != keys[j - 1].1 {
                distinct_utlbs += 1;
            }
            let bi = keys[j].2;
            first_idx = first_idx.min(bi);
            any_write |= batch[bi as usize].kind == AccessKind::Write;
            total += 1;
            j += 1;
        }
        out.dup_cross_utlb += distinct_utlbs - 1;
        out.dup_same_utlb += total - distinct_utlbs;
        scratch.reps.push((first_idx, any_write));
        i = j;
    }

    scratch.reps.sort_unstable_by_key(|&(idx, _)| idx);
    out.unique.extend(scratch.reps.iter().map(|&(idx, write)| {
        let mut f = batch[idx as usize];
        if write {
            f.kind = AccessKind::Write;
        }
        f
    }));
}

/// Classify and collapse duplicate faults in a batch.
///
/// This is the allocating reference implementation; the service loop uses
/// the scratch-reusing [`classify_duplicates_with`], which is checked
/// against this one by unit tests and a property test.
pub fn classify_duplicates(batch: &[FaultRecord]) -> DedupResult {
    // page -> (index into unique, set of utlbs seen)
    let mut seen: FastMap<PageNum, (usize, Vec<u32>)> =
        FastMap::with_capacity_and_hasher(batch.len(), Default::default());
    let mut unique: Vec<FaultRecord> = Vec::with_capacity(batch.len());
    let mut dup_same_utlb = 0u64;
    let mut dup_cross_utlb = 0u64;

    for fault in batch {
        match seen.get_mut(&fault.page) {
            None => {
                seen.insert(fault.page, (unique.len(), vec![fault.utlb]));
                unique.push(*fault);
            }
            Some((idx, utlbs)) => {
                if utlbs.contains(&fault.utlb) {
                    dup_same_utlb += 1;
                } else {
                    dup_cross_utlb += 1;
                    utlbs.push(fault.utlb);
                }
                if fault.kind == AccessKind::Write {
                    unique[*idx].kind = AccessKind::Write;
                }
            }
        }
    }

    DedupResult {
        unique,
        dup_same_utlb,
        dup_cross_utlb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvm_sim::time::SimTime;

    fn fault(page: u64, utlb: u32, kind: AccessKind) -> FaultRecord {
        FaultRecord {
            page: PageNum(page),
            kind,
            sm: utlb * 2,
            utlb,
            warp: 0,
            arrival: SimTime(0),
            dup_of_outstanding: false,
        }
    }

    #[test]
    fn no_duplicates_passes_through() {
        let batch = vec![
            fault(1, 0, AccessKind::Read),
            fault(2, 0, AccessKind::Read),
            fault(3, 1, AccessKind::Write),
        ];
        let r = classify_duplicates(&batch);
        assert_eq!(r.unique.len(), 3);
        assert_eq!(r.total_dups(), 0);
    }

    #[test]
    fn same_utlb_duplicate_classified_type1() {
        let batch = vec![fault(1, 0, AccessKind::Read), fault(1, 0, AccessKind::Read)];
        let r = classify_duplicates(&batch);
        assert_eq!(r.unique.len(), 1);
        assert_eq!(r.dup_same_utlb, 1);
        assert_eq!(r.dup_cross_utlb, 0);
    }

    #[test]
    fn cross_utlb_duplicate_classified_type2() {
        let batch = vec![fault(1, 0, AccessKind::Read), fault(1, 3, AccessKind::Read)];
        let r = classify_duplicates(&batch);
        assert_eq!(r.unique.len(), 1);
        assert_eq!(r.dup_same_utlb, 0);
        assert_eq!(r.dup_cross_utlb, 1);
    }

    #[test]
    fn third_fault_from_seen_utlb_is_type1() {
        // Once μTLB 3 has been recorded for the page, its next duplicate is
        // same-μTLB even though the first fault came from μTLB 0.
        let batch = vec![
            fault(1, 0, AccessKind::Read),
            fault(1, 3, AccessKind::Read),
            fault(1, 3, AccessKind::Read),
        ];
        let r = classify_duplicates(&batch);
        assert_eq!(r.dup_same_utlb, 1);
        assert_eq!(r.dup_cross_utlb, 1);
    }

    #[test]
    fn write_upgrades_representative() {
        let batch = vec![fault(1, 0, AccessKind::Read), fault(1, 1, AccessKind::Write)];
        let r = classify_duplicates(&batch);
        assert_eq!(r.unique[0].kind, AccessKind::Write);
    }

    #[test]
    fn first_arrival_order_preserved() {
        let batch = vec![
            fault(9, 0, AccessKind::Read),
            fault(1, 0, AccessKind::Read),
            fault(9, 1, AccessKind::Read),
            fault(5, 0, AccessKind::Read),
        ];
        let r = classify_duplicates(&batch);
        let pages: Vec<u64> = r.unique.iter().map(|f| f.page.0).collect();
        assert_eq!(pages, vec![9, 1, 5]);
    }

    #[test]
    fn empty_batch() {
        let r = classify_duplicates(&[]);
        assert!(r.unique.is_empty());
        assert_eq!(r.total_dups(), 0);
    }

    fn fast(batch: &[FaultRecord]) -> DedupResult {
        let mut scratch = DedupScratch::default();
        let mut out = DedupResult {
            unique: Vec::new(),
            dup_same_utlb: 0,
            dup_cross_utlb: 0,
        };
        classify_duplicates_with(batch, &mut scratch, &mut out);
        out
    }

    fn assert_agree(batch: &[FaultRecord]) {
        let a = classify_duplicates(batch);
        let b = fast(batch);
        assert_eq!(a.dup_same_utlb, b.dup_same_utlb);
        assert_eq!(a.dup_cross_utlb, b.dup_cross_utlb);
        assert_eq!(a.unique.len(), b.unique.len());
        for (x, y) in a.unique.iter().zip(&b.unique) {
            assert_eq!((x.page, x.utlb, x.sm, x.kind), (y.page, y.utlb, y.sm, y.kind));
        }
    }

    #[test]
    fn fast_path_matches_reference() {
        assert_agree(&[]);
        assert_agree(&[fault(1, 0, AccessKind::Read)]);
        assert_agree(&[
            fault(9, 0, AccessKind::Read),
            fault(1, 2, AccessKind::Write),
            fault(9, 1, AccessKind::Read),
            fault(9, 1, AccessKind::Read),
            fault(5, 0, AccessKind::Read),
            fault(1, 2, AccessKind::Read),
            fault(9, 0, AccessKind::Write),
        ]);
    }

    #[test]
    fn fast_path_scratch_reuse_is_clean() {
        let mut scratch = DedupScratch::default();
        let mut out = DedupResult {
            unique: Vec::new(),
            dup_same_utlb: 0,
            dup_cross_utlb: 0,
        };
        let b1 = vec![fault(1, 0, AccessKind::Read), fault(1, 1, AccessKind::Read)];
        classify_duplicates_with(&b1, &mut scratch, &mut out);
        assert_eq!(out.dup_cross_utlb, 1);
        // A second, unrelated batch through the same scratch must not see
        // any state from the first.
        let b2 = vec![fault(7, 3, AccessKind::Write)];
        classify_duplicates_with(&b2, &mut scratch, &mut out);
        assert_eq!(out.unique.len(), 1);
        assert_eq!(out.unique[0].page.0, 7);
        assert_eq!(out.total_dups(), 0);
    }
}
