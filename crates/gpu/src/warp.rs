//! Warp execution state.
//!
//! A [`Warp`] is an in-order issue state machine over a [`WarpProgram`]
//! it does not own: the workload keeps the instruction streams, and every
//! method that reads one takes the warp's program as an argument. The
//! stepping logic itself lives in [`crate::device`] (it needs the μTLBs,
//! GMMU, and page table); this module owns the per-warp bookkeeping:
//! program counter, partially issued instruction, the set of outstanding
//! faulted accesses (the scoreboard), and accesses that must re-fault after
//! a replay found them still non-resident.

use serde::{Deserialize, Serialize};
use uvm_sim::mem::PageNum;
use uvm_sim::time::SimTime;

use crate::fault::AccessKind;
use crate::isa::{Instr, WarpProgram};

/// Scheduling status of a warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WarpStatus {
    /// Queued behind other warps on its SM; not yet executing.
    Queued,
    /// Executing; may be stepped.
    Ready,
    /// Stalled on faults (scoreboard, full μTLB, or end-of-program with
    /// outstanding accesses); woken by the next fault replay.
    Blocked,
    /// Program complete and all accesses fulfilled.
    Done,
}

/// One warp.
///
/// Hardware state only: the program counter indexes the warp's program,
/// which stays with the workload. Fully serializable — program counter,
/// partially issued instruction, scoreboard, and refault queue included —
/// so a restored warp, given the same program, resumes mid-instruction
/// exactly where the snapshot left it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Warp {
    /// Global warp id.
    pub id: u32,
    /// Hosting SM.
    pub sm: u32,
    /// μTLB serving that SM.
    pub utlb: u32,
    /// Scheduling status.
    pub status: WarpStatus,
    /// Time at which the warp may next issue.
    pub ready_at: SimTime,
    /// Index of the next instruction of the warp's program.
    pc: usize,
    /// Pages of the current instruction not yet issued (in reverse order so
    /// `pop` yields them in program order).
    pending_pages: Vec<PageNum>,
    pending_kind: AccessKind,
    /// The scoreboard: faulted accesses awaiting service as `(page, kind)`
    /// pairs, sorted by page with one entry per page. Ascending order keeps
    /// every iteration (notably the spurious-reissue RNG pairing)
    /// deterministic, and it serializes as the same `[[page, kind], …]`
    /// array a `BTreeMap` would.
    outstanding: Vec<(PageNum, AccessKind)>,
    /// Accesses a replay found still non-resident; re-issued (re-faulted)
    /// before the current instruction continues.
    refault: Vec<(PageNum, AccessKind)>,
    /// Monotone count of faults this warp generated (including refaults).
    pub faults_generated: u64,
}

impl Warp {
    /// Create a queued warp.
    pub fn new(id: u32, sm: u32, utlb: u32) -> Self {
        Warp {
            id,
            sm,
            utlb,
            status: WarpStatus::Queued,
            ready_at: SimTime::ZERO,
            pc: 0,
            pending_pages: Vec::new(),
            pending_kind: AccessKind::Read,
            outstanding: Vec::new(),
            refault: Vec::new(),
            faults_generated: 0,
        }
    }

    /// Index of the next instruction of the warp's program.
    pub(crate) fn pc(&self) -> usize {
        self.pc
    }

    /// Whether the warp has outstanding faulted accesses (the scoreboard is
    /// non-empty).
    pub fn has_outstanding(&self) -> bool {
        !self.outstanding.is_empty()
    }

    /// Number of outstanding faulted accesses.
    pub fn outstanding_len(&self) -> usize {
        self.outstanding.len()
    }

    /// Record a faulted access awaiting service. A page already on the
    /// scoreboard takes the later access's kind.
    pub fn note_outstanding(&mut self, page: PageNum, kind: AccessKind) {
        match self.outstanding.binary_search_by_key(&page, |&(p, _)| p) {
            Ok(i) => self.outstanding[i].1 = kind,
            Err(i) => self.outstanding.insert(i, (page, kind)),
        }
    }

    /// Iterate the outstanding faulted accesses in ascending page order.
    pub fn outstanding_accesses(&self) -> impl Iterator<Item = (PageNum, AccessKind)> + '_ {
        self.outstanding.iter().copied()
    }

    /// Take the next access to issue: first any refaults, then the pages of
    /// the partially issued instruction. Returns `None` when the current
    /// instruction (if any) is fully issued.
    pub fn next_pending_access(&mut self) -> Option<(PageNum, AccessKind)> {
        if let Some(rf) = self.refault.pop() {
            return Some(rf);
        }
        self.pending_pages.pop().map(|p| (p, self.pending_kind))
    }

    /// Put back an access that could not issue (μTLB full); it will be the
    /// next one retried.
    pub fn push_back_access(&mut self, page: PageNum, kind: AccessKind) {
        if kind == self.pending_kind && self.refault.is_empty() {
            self.pending_pages.push(page);
        } else {
            self.refault.push((page, kind));
        }
    }

    /// Whether the current instruction still has unissued accesses (or
    /// refaults are queued).
    pub fn has_pending_accesses(&self) -> bool {
        !self.pending_pages.is_empty() || !self.refault.is_empty()
    }

    /// Fetch the next instruction of `program`, loading its pages into the
    /// pending queue (refilled in place, so stepping allocates nothing once
    /// the queue has grown to the widest instruction). Returns the fetched
    /// instruction, or `None` at program end.
    pub fn fetch_next_instr<'p>(&mut self, program: &'p WarpProgram) -> Option<&'p Instr> {
        let instr = program.instrs.get(self.pc)?;
        self.pc += 1;
        self.pending_pages.clear();
        let (kind, pages) = match instr {
            Instr::Load { pages } => (AccessKind::Read, pages),
            Instr::Store { pages } => (AccessKind::Write, pages),
            Instr::Prefetch { pages } => (AccessKind::Prefetch, pages),
            Instr::Delay(_) => return Some(instr),
        };
        self.pending_kind = kind;
        self.pending_pages.extend(pages.iter().rev());
        Some(instr)
    }

    /// Peek at the next instruction of `program` without consuming it.
    pub fn peek_instr<'p>(&self, program: &'p WarpProgram) -> Option<&'p Instr> {
        program.instrs.get(self.pc)
    }

    /// Whether the program counter is at the end of `program`.
    pub fn at_program_end(&self, program: &WarpProgram) -> bool {
        self.pc >= program.instrs.len()
    }

    /// Apply a fault replay: every outstanding access whose page is now
    /// resident (per `is_resident`) is fulfilled; the rest move to the
    /// refault queue for re-issue, in ascending page order. Returns the
    /// number fulfilled.
    pub fn apply_replay(&mut self, is_resident: impl Fn(PageNum) -> bool) -> usize {
        let outstanding = self.outstanding.len();
        let queued = self.refault.len();
        self.refault.extend(
            self.outstanding
                .drain(..)
                .filter(|&(page, _)| !is_resident(page)),
        );
        outstanding - (self.refault.len() - queued)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prog(instrs: Vec<Instr>) -> WarpProgram {
        WarpProgram { instrs }
    }

    #[test]
    fn fetch_loads_pages_in_program_order() {
        let p = prog(vec![Instr::Load {
            pages: vec![PageNum(1), PageNum(2), PageNum(3)],
        }]);
        let mut w = Warp::new(0, 0, 0);
        w.fetch_next_instr(&p).unwrap();
        assert_eq!(w.next_pending_access(), Some((PageNum(1), AccessKind::Read)));
        assert_eq!(w.next_pending_access(), Some((PageNum(2), AccessKind::Read)));
        assert_eq!(w.next_pending_access(), Some((PageNum(3), AccessKind::Read)));
        assert_eq!(w.next_pending_access(), None);
        assert!(w.at_program_end(&p));
    }

    #[test]
    fn push_back_retries_same_access_next() {
        let p = prog(vec![Instr::Load {
            pages: vec![PageNum(1), PageNum(2)],
        }]);
        let mut w = Warp::new(0, 0, 0);
        w.fetch_next_instr(&p).unwrap();
        let (p, k) = w.next_pending_access().unwrap();
        w.push_back_access(p, k);
        assert_eq!(w.next_pending_access(), Some((PageNum(1), AccessKind::Read)));
    }

    #[test]
    fn replay_fulfills_resident_and_queues_refaults() {
        let mut w = Warp::new(0, 0, 0);
        w.note_outstanding(PageNum(1), AccessKind::Read);
        w.note_outstanding(PageNum(2), AccessKind::Read);
        w.note_outstanding(PageNum(3), AccessKind::Write);
        let fulfilled = w.apply_replay(|p| p == PageNum(2));
        assert_eq!(fulfilled, 1);
        assert!(w.has_pending_accesses());
        // Refaults re-issue in sorted order (LIFO pop → descending pushes).
        let a = w.next_pending_access().unwrap();
        let b = w.next_pending_access().unwrap();
        let mut got = vec![a, b];
        got.sort_unstable_by_key(|(p, _)| *p);
        assert_eq!(got, vec![(PageNum(1), AccessKind::Read), (PageNum(3), AccessKind::Write)]);
        assert!(!w.has_outstanding());
    }

    #[test]
    fn delay_instruction_has_no_pages() {
        let p = prog(vec![Instr::Delay(uvm_sim::time::SimDuration::from_micros(1))]);
        let mut w = Warp::new(0, 0, 0);
        let instr = w.fetch_next_instr(&p).unwrap();
        assert!(matches!(instr, Instr::Delay(_)));
        assert!(!w.has_pending_accesses());
    }
}
