//! Warp-level micro-instruction streams.
//!
//! Workload generators compile each benchmark's access pattern into one
//! [`WarpProgram`] per warp: the sequence of page-granular memory
//! operations the warp's 32 lanes perform after coalescing. Every memory
//! operation is one [`Instr::Access`], and its [`AccessKind`] carries the
//! semantics the paper's SASS analysis (Listing 2) finds fault-relevant:
//!
//! * `Read` — non-blocking: a warp may issue further independent
//!   instructions while its load faults are outstanding.
//! * `Write` — scoreboard-gated: a store cannot issue until every
//!   previously issued faulting access of the warp has been fulfilled
//!   (`FADD R9, R0, R9` stalls on its input registers, so `STG` — and
//!   everything after it, since issue is in-order — waits for all prior
//!   reads; this is why vector-addition writes always land in a later
//!   batch than their reads).
//! * `Prefetch` — `prefetch.global.L2`: requires no registers, bypasses
//!   the scoreboard *and* the μTLB outstanding-fault slots, which is how a
//!   single warp can fill an entire 256-fault batch (Fig. 5).
//!
//! [`Instr::Delay`] is non-memory compute time between access phases.

use serde::{Serialize, Sink};
use uvm_sim::mem::PageNum;
use uvm_sim::time::SimDuration;

use crate::fault::AccessKind;

/// One warp-level instruction, as its [`WarpProgram`] stores it: the
/// pages of an access live in the program's page array, and the
/// instruction holds their range there ([`WarpProgram::pages_of`]).
///
/// An instruction encodes as one number, `4 * n + code`: an access's
/// page count `n` with code 0 (`Read`), 1 (`Write`) or 2 (`Prefetch`),
/// or a delay's nanoseconds with code 3, for the reason DESIGN.md §7
/// gives. A delay of 2^62 ns (146 years) or more does not fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// A global memory access of `kind` to the program's pages
    /// `start..end`: the distinct pages the warp's lanes touch (after
    /// intra-warp coalescing), in issue order. A fully coalesced access
    /// is one page, a page-strided access is up to 32.
    Access {
        /// Load, store, or software prefetch.
        kind: AccessKind,
        /// Index of the access's first page in the program's pages.
        start: u32,
        /// One past the index of its last page.
        end: u32,
    },
    /// Compute for the given duration without memory access.
    Delay(SimDuration),
}

impl Instr {
    /// Whether this instruction writes memory.
    pub fn is_store(&self) -> bool {
        matches!(self, Instr::Access { kind: AccessKind::Write, .. })
    }
}

impl Serialize for Instr {
    fn stream<S: Sink>(&self, s: &mut S) {
        s.num_u(match *self {
            Instr::Access { kind, start, end } => {
                let code = match kind {
                    AccessKind::Read => 0,
                    AccessKind::Write => 1,
                    AccessKind::Prefetch => 2,
                };
                u64::from(end - start) << 2 | code
            }
            Instr::Delay(d) => d.0 << 2 | 3,
        });
    }
}

/// The full instruction stream of one warp: one [`Instr`] per
/// instruction over a single array of the pages they touch, in issue
/// order. Built with [`Self::load`], [`Self::store`], [`Self::prefetch`]
/// and [`Self::delay`]; it serializes as those two arrays.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct WarpProgram {
    /// Instructions in issue order.
    ops: Vec<Instr>,
    /// Every access's pages, in instruction order.
    pages: Vec<PageNum>,
}

impl WarpProgram {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an access of `kind` to `pages` (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the program would hold 2^32 page touches or more.
    pub fn access(&mut self, kind: AccessKind, pages: impl IntoIterator<Item = PageNum>) -> &mut Self {
        // Invariant: a program holds fewer than 2^32 page touches (the
        // `# Panics` contract above); `u32` indices keep an `Instr` to 16
        // bytes.
        let index = |len: usize| u32::try_from(len).expect("a program holds fewer than 2^32 pages");
        let start = index(self.pages.len());
        self.pages.extend(pages);
        let end = index(self.pages.len());
        self.ops.push(Instr::Access { kind, start, end });
        self
    }

    /// Append one access of `kind` for every `per` pages of `pages`, in
    /// order (the last may have fewer).
    pub fn access_chunks(&mut self, kind: AccessKind, pages: &[PageNum], per: usize) -> &mut Self {
        for chunk in pages.chunks(per) {
            self.access(kind, chunk.iter().copied());
        }
        self
    }

    /// Append a global load of `pages`.
    pub fn load(&mut self, pages: impl IntoIterator<Item = PageNum>) -> &mut Self {
        self.access(AccessKind::Read, pages)
    }

    /// Append a global store of `pages`.
    pub fn store(&mut self, pages: impl IntoIterator<Item = PageNum>) -> &mut Self {
        self.access(AccessKind::Write, pages)
    }

    /// Append a software prefetch of `pages`.
    pub fn prefetch(&mut self, pages: impl IntoIterator<Item = PageNum>) -> &mut Self {
        self.access(AccessKind::Prefetch, pages)
    }

    /// Append `d` of compute.
    pub fn delay(&mut self, d: SimDuration) -> &mut Self {
        self.ops.push(Instr::Delay(d));
        self
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The instructions in issue order.
    pub fn instrs(&self) -> &[Instr] {
        &self.ops
    }

    /// The pages `instr`, an instruction of this program, touches (empty
    /// for a delay).
    pub fn pages_of(&self, instr: Instr) -> &[PageNum] {
        match instr {
            Instr::Access { start, end, .. } => &self.pages[start as usize..end as usize],
            Instr::Delay(_) => &[],
        }
    }

    /// Total number of page touches across all instructions.
    pub fn total_accesses(&self) -> usize {
        self.pages.len()
    }

    /// The set of distinct pages the program touches, sorted.
    pub fn touched_pages(&self) -> Vec<PageNum> {
        let mut pages = self.pages.clone();
        pages.sort_unstable();
        pages.dedup();
        pages
    }

    /// The same program with every page `pages` higher.
    pub fn shifted(&self, pages: u64) -> WarpProgram {
        WarpProgram {
            ops: self.ops.clone(),
            pages: self.pages.iter().map(|p| PageNum(p.0 + pages)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors() {
        let mut p = WarpProgram::new();
        p.load([PageNum(1)])
            .load([PageNum(2)])
            .store([PageNum(3)])
            .delay(SimDuration::from_nanos(10));
        assert_eq!(p.len(), 4);
        assert_eq!(p.total_accesses(), 3);
        assert_eq!(
            p.touched_pages(),
            vec![PageNum(1), PageNum(2), PageNum(3)]
        );
        let instrs = p.instrs();
        assert!(instrs[2].is_store());
        assert!(!instrs[0].is_store());
        assert_eq!(p.pages_of(instrs[2]), [PageNum(3)]);
        assert!(p.pages_of(instrs[3]).is_empty());
        assert_eq!(instrs[3], Instr::Delay(SimDuration::from_nanos(10)));
    }

    #[test]
    fn a_program_encodes_as_its_two_arrays() {
        let mut p = WarpProgram::new();
        p.load([PageNum(1)])
            .store([PageNum(2), PageNum(3)])
            .prefetch([PageNum(4)])
            .delay(SimDuration::from_nanos(10))
            .load([]);
        let json = serde_json::to_string(&p).expect("program encodes");
        assert_eq!(json, r#"{"ops":[4,9,6,43,0],"pages":[1,2,3,4]}"#);
    }

    #[test]
    fn touched_pages_dedups() {
        let mut p = WarpProgram::new();
        p.load([PageNum(5)]).store([PageNum(5)]);
        assert_eq!(p.touched_pages(), vec![PageNum(5)]);
        assert_eq!(p.total_accesses(), 2);
        let q = p.shifted(10);
        assert_eq!(q.touched_pages(), vec![PageNum(15)]);
        assert_eq!(q.instrs(), p.instrs());
    }
}
