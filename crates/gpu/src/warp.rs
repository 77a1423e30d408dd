//! Warp execution state.
//!
//! A [`Warp`] is an in-order issue state machine over a [`WarpProgram`]
//! it does not own: the workload keeps the instruction streams, and every
//! method that reads one takes the warp's program as an argument. The
//! stepping logic itself lives in [`crate::device`] (it needs the μTLBs,
//! GMMU, and page table); this module owns the per-warp bookkeeping:
//! program counter, how far the current instruction has issued, the set
//! of outstanding faulted accesses (the scoreboard), and accesses that
//! must re-fault after a replay found them still non-resident.

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
/// which stays with the workload, and the warp's id, SM and μTLB follow
/// from its index in the device (see
/// [`GpuSpec::placement`](crate::spec::GpuSpec::placement)). The current
/// instruction's unissued pages are not copied either: the warp keeps how
/// many it has issued, and reads the rest from the program. Fully
/// serializable — program counter, issue count, scoreboard, and refault
/// queue included — so a restored warp, given the same program, resumes
/// mid-instruction exactly where the snapshot left it.
///
/// Issue is peek-then-take: [`Warp::next_access`] names the access at the
/// head, and [`Warp::take_access`] consumes it once it has hit, faulted or
/// piggybacked on an outstanding fault.
/// An access that stalls on a full μTLB is never taken, so it stays at the
/// head for the retry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Warp {
    /// Scheduling status.
    pub status: WarpStatus,
    /// Time at which the warp may next issue.
    pub ready_at: SimTime,
    /// Index of the next instruction of the warp's program; the current
    /// instruction is the one before it.
    pc: usize,
    /// Pages of the current instruction already issued.
    issued: usize,
    /// The scoreboard: faulted accesses awaiting service as `(page, kind)`
    /// pairs, sorted by page with one entry per page. Ascending order keeps
    /// every iteration (notably the spurious-reissue RNG pairing)
    /// deterministic, and it serializes as the same `[[page, kind], …]`
    /// array a `BTreeMap` would.
    outstanding: Vec<(PageNum, AccessKind)>,
    /// Accesses a replay found still non-resident; re-issued (re-faulted)
    /// from the back before the current instruction continues.
    refault: Vec<(PageNum, AccessKind)>,
    /// Monotone count of faults this warp generated (including refaults).
    pub faults_generated: u64,
}

impl Default for Warp {
    fn default() -> Self {
        Self::new()
    }
}

impl Warp {
    /// Create a queued warp.
    pub fn new() -> Self {
        Warp {
            status: WarpStatus::Queued,
            ready_at: SimTime::ZERO,
            pc: 0,
            issued: 0,
            outstanding: Vec::new(),
            refault: Vec::new(),
            faults_generated: 0,
        }
    }

    /// Index of the next instruction of the warp's program.
    pub(crate) fn pc(&self) -> usize {
        self.pc
    }

    /// Pages of the current instruction already issued.
    pub(crate) fn issued(&self) -> usize {
        self.issued
    }

    /// The current instruction of `program` (the last one fetched), if
    /// any.
    pub(crate) fn current_instr(&self, program: &WarpProgram) -> Option<Instr> {
        program.instrs().get(self.pc.checked_sub(1)?).copied()
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

    /// The next access to issue, without consuming it: the last queued
    /// refault if there is one, else the first unissued page of the
    /// current instruction of `program`. `None` when the current
    /// instruction (if any) is fully issued.
    pub fn next_access(&self, program: &WarpProgram) -> Option<(PageNum, AccessKind)> {
        if let Some(&rf) = self.refault.last() {
            return Some(rf);
        }
        match self.current_instr(program)? {
            instr @ Instr::Access { kind, .. } => {
                program.pages_of(instr).get(self.issued).map(|&p| (p, kind))
            }
            Instr::Delay(_) => None,
        }
    }

    /// Consume the access [`Self::next_access`] returned.
    pub fn take_access(&mut self) {
        if self.refault.pop().is_none() {
            self.issued += 1;
        }
    }

    /// Fetch the next instruction of `program`, making it current with
    /// none of its pages issued. Returns the fetched instruction, or
    /// `None` at program end.
    pub fn fetch_next_instr(&mut self, program: &WarpProgram) -> Option<Instr> {
        let instr = *program.instrs().get(self.pc)?;
        self.pc += 1;
        self.issued = 0;
        Some(instr)
    }

    /// Whether the program counter is at the end of `program`.
    pub fn at_program_end(&self, program: &WarpProgram) -> bool {
        self.pc >= program.len()
    }

    /// Apply a fault replay: every outstanding access whose page is now
    /// resident (per `is_resident`) is fulfilled; the rest join the refault
    /// queue behind the accesses already queued there, in ascending page
    /// order, so they re-issue first and in descending page order. Returns
    /// the number fulfilled.
    pub fn apply_replay(&mut self, is_resident: impl Fn(PageNum) -> bool) -> usize {
        let outstanding = self.outstanding.len();
        let queued = self.refault.len();
        if queued == 0 {
            // The usual case: the scoreboard becomes the refault queue in
            // place, and the empty queue's buffer the next scoreboard.
            std::mem::swap(&mut self.refault, &mut self.outstanding);
            self.refault.retain(|&(page, _)| !is_resident(page));
        } else {
            self.refault.extend(
                self.outstanding
                    .drain(..)
                    .filter(|&(page, _)| !is_resident(page)),
            );
        }
        outstanding - (self.refault.len() - queued)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Take accesses until the head is empty, returning them in order.
    fn take_all(w: &mut Warp, p: &WarpProgram) -> Vec<(PageNum, AccessKind)> {
        let mut taken = Vec::new();
        while let Some(access) = w.next_access(p) {
            w.take_access();
            taken.push(access);
        }
        taken
    }

    #[test]
    fn fetch_loads_pages_in_program_order() {
        let mut p = WarpProgram::new();
        p.load([PageNum(1), PageNum(2), PageNum(3)]);
        let mut w = Warp::new();
        assert_eq!(w.next_access(&p), None, "nothing is current before the first fetch");
        w.fetch_next_instr(&p).unwrap();
        assert_eq!(
            take_all(&mut w, &p),
            [1, 2, 3].map(|n| (PageNum(n), AccessKind::Read))
        );
        assert!(w.at_program_end(&p));
    }

    #[test]
    fn an_untaken_access_stays_at_the_head() {
        let mut p = WarpProgram::new();
        p.store([PageNum(1), PageNum(2)]);
        let mut w = Warp::new();
        w.fetch_next_instr(&p).unwrap();
        assert_eq!(w.next_access(&p), Some((PageNum(1), AccessKind::Write)));
        assert_eq!(w.next_access(&p), Some((PageNum(1), AccessKind::Write)));
        w.take_access();
        assert_eq!(w.next_access(&p), Some((PageNum(2), AccessKind::Write)));
        // A queued refault goes first, and stays first until taken.
        w.note_outstanding(PageNum(9), AccessKind::Read);
        w.apply_replay(|_| false);
        assert_eq!(w.next_access(&p), Some((PageNum(9), AccessKind::Read)));
        assert_eq!(w.next_access(&p), Some((PageNum(9), AccessKind::Read)));
        w.take_access();
        assert_eq!(take_all(&mut w, &p), [(PageNum(2), AccessKind::Write)]);
    }

    #[test]
    fn replay_fulfills_resident_and_queues_refaults() {
        let p = WarpProgram::new();
        let mut w = Warp::new();
        w.note_outstanding(PageNum(1), AccessKind::Read);
        w.note_outstanding(PageNum(2), AccessKind::Read);
        w.note_outstanding(PageNum(3), AccessKind::Write);
        let fulfilled = w.apply_replay(|p| p == PageNum(2));
        assert_eq!(fulfilled, 1);
        assert!(w.next_access(&p).is_some());
        // Refaults re-issue in sorted order (LIFO pop → descending pushes).
        let mut got = take_all(&mut w, &p);
        got.sort_unstable_by_key(|(p, _)| *p);
        assert_eq!(got, vec![(PageNum(1), AccessKind::Read), (PageNum(3), AccessKind::Write)]);
        assert!(!w.has_outstanding());
    }

    #[test]
    fn delay_instruction_has_no_pages() {
        let mut p = WarpProgram::new();
        p.delay(uvm_sim::time::SimDuration::from_micros(1));
        let mut w = Warp::new();
        let instr = w.fetch_next_instr(&p).unwrap();
        assert!(matches!(instr, Instr::Delay(_)));
        assert_eq!(w.next_access(&p), None);
    }
}
