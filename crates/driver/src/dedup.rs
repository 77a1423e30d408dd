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
//!
//! A fault record names its warp, not its SM or μTLB, so both classifiers
//! take the batch's placement column beside it: `placements[i]` is the
//! `(SM, μTLB)` of `batch[i]` (`GpuSpec::placement` of its warp).

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
    /// Distinct SMs the batch's faults came from.
    pub distinct_sms: u32,
    /// Distinct μTLBs the batch's faults came from.
    pub distinct_utlbs: u32,
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
    /// Per batch index: [`FIRST`] on the first arrival of each distinct
    /// page, plus [`WRITTEN`] if any fault on that page writes; else 0.
    marks: Vec<u8>,
    /// Bitset of the ids [`count_distinct`] has seen, all clear between
    /// calls.
    seen: Vec<u64>,
}

/// Mark of a page's first arrival in [`DedupScratch::marks`].
const FIRST: u8 = 1;
/// Mark of a page that some fault writes.
const WRITTEN: u8 = 2;

/// The number of distinct `ids`, counted in the bitset `seen`, which is
/// all clear on entry and is left so.
fn count_distinct(ids: impl Iterator<Item = u32>, seen: &mut Vec<u64>) -> u32 {
    for id in ids {
        let word = (id / 64) as usize;
        if word >= seen.len() {
            seen.resize(word + 1, 0);
        }
        seen[word] |= 1 << (id % 64);
    }
    let distinct = seen.iter().map(|w| w.count_ones()).sum();
    seen.fill(0);
    distinct
}

/// Sort-based fast path of [`classify_duplicates`]: identical output,
/// no hashing, and all working memory reused across batches.
///
/// The reference's per-page counts are order-independent — a page faulted
/// `m` times from `k` distinct μTLBs always yields `k - 1` cross-μTLB and
/// `m - k` same-μTLB duplicates, whatever the interleaving — so grouping
/// by a `(page, μTLB, index)` sort reproduces them exactly. Marking each
/// page's first arrival and then walking the batch in order restores the
/// reference's output order, and a bitset counts the distinct SMs and μTLBs,
/// so the batch is sorted once.
pub fn classify_duplicates_with(
    batch: &[FaultRecord],
    placements: &[(u32, u32)],
    scratch: &mut DedupScratch,
    out: &mut DedupResult,
) {
    assert_eq!(batch.len(), placements.len(), "one placement per fault");
    out.unique.clear();
    out.dup_same_utlb = 0;
    out.dup_cross_utlb = 0;
    out.distinct_sms = count_distinct(placements.iter().map(|p| p.0), &mut scratch.seen);
    out.distinct_utlbs = count_distinct(placements.iter().map(|p| p.1), &mut scratch.seen);
    scratch.keys.clear();
    scratch.keys.extend(
        (0..).zip(batch.iter().zip(placements)).map(|(i, (f, &(_, u)))| (f.page.0, u, i)),
    );
    scratch.keys.sort_unstable();
    scratch.marks.clear();
    scratch.marks.resize(batch.len(), 0);

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
        scratch.marks[first_idx as usize] = FIRST | if any_write { WRITTEN } else { 0 };
        i = j;
    }

    out.unique.extend(batch.iter().zip(&scratch.marks).filter(|(_, &m)| m != 0).map(|(f, &m)| {
        let mut f = *f;
        if m & WRITTEN != 0 {
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
pub fn classify_duplicates(batch: &[FaultRecord], placements: &[(u32, u32)]) -> DedupResult {
    assert_eq!(batch.len(), placements.len(), "one placement per fault");
    // page -> (index into unique, set of utlbs seen)
    let mut seen: FastMap<PageNum, (usize, Vec<u32>)> =
        FastMap::with_capacity_and_hasher(batch.len(), Default::default());
    let mut unique: Vec<FaultRecord> = Vec::with_capacity(batch.len());
    let mut dup_same_utlb = 0u64;
    let mut dup_cross_utlb = 0u64;

    for (fault, &(_, utlb)) in batch.iter().zip(placements) {
        match seen.get_mut(&fault.page) {
            None => {
                seen.insert(fault.page, (unique.len(), vec![utlb]));
                unique.push(*fault);
            }
            Some((idx, seen_utlbs)) => {
                if seen_utlbs.contains(&utlb) {
                    dup_same_utlb += 1;
                } else {
                    dup_cross_utlb += 1;
                    seen_utlbs.push(utlb);
                }
                if fault.kind == AccessKind::Write {
                    unique[*idx].kind = AccessKind::Write;
                }
            }
        }
    }

    let distinct = |mut ids: Vec<u32>| {
        ids.sort_unstable();
        ids.dedup();
        ids.len() as u32
    };
    DedupResult {
        unique,
        dup_same_utlb,
        dup_cross_utlb,
        distinct_sms: distinct(placements.iter().map(|p| p.0).collect()),
        distinct_utlbs: distinct(placements.iter().map(|p| p.1).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvm_sim::time::SimTime;

    /// A fault from warp `utlb`, which these tests place on μTLB `utlb`
    /// and SM `2 × utlb`.
    fn fault(page: u64, utlb: u32, kind: AccessKind) -> FaultRecord {
        FaultRecord {
            page: PageNum(page),
            kind,
            warp: utlb,
            arrival: SimTime(0),
            dup_of_outstanding: false,
        }
    }

    /// The batch's placement column under the placement of [`fault`].
    fn placements(batch: &[FaultRecord]) -> Vec<(u32, u32)> {
        batch.iter().map(|f| (2 * f.warp, f.warp)).collect()
    }

    fn classify_duplicates(batch: &[FaultRecord]) -> DedupResult {
        super::classify_duplicates(batch, &placements(batch))
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
        let mut out = DedupResult::default();
        classify_duplicates_with(batch, &placements(batch), &mut scratch, &mut out);
        out
    }

    fn assert_agree(batch: &[FaultRecord]) {
        let a = classify_duplicates(batch);
        let b = fast(batch);
        assert_eq!(a.dup_same_utlb, b.dup_same_utlb);
        assert_eq!(a.dup_cross_utlb, b.dup_cross_utlb);
        assert_eq!((a.distinct_sms, a.distinct_utlbs), (b.distinct_sms, b.distinct_utlbs));
        assert_eq!(a.unique.len(), b.unique.len());
        for (x, y) in a.unique.iter().zip(&b.unique) {
            assert_eq!((x.page, x.warp, x.kind), (y.page, y.warp, y.kind));
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
        let mut out = DedupResult::default();
        let b1 = vec![fault(1, 0, AccessKind::Read), fault(1, 1, AccessKind::Read)];
        classify_duplicates_with(&b1, &placements(&b1), &mut scratch, &mut out);
        assert_eq!(out.dup_cross_utlb, 1);
        assert_eq!((out.distinct_sms, out.distinct_utlbs), (2, 2));
        // A second, unrelated batch through the same scratch must not see
        // any state from the first.
        let b2 = vec![fault(7, 3, AccessKind::Write)];
        classify_duplicates_with(&b2, &placements(&b2), &mut scratch, &mut out);
        assert_eq!((out.distinct_sms, out.distinct_utlbs), (1, 1));
        assert_eq!(out.unique.len(), 1);
        assert_eq!(out.unique[0].page.0, 7);
        assert_eq!(out.total_dups(), 0);
    }
}
