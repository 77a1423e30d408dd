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

use serde::{DeError, Deserialize, Serialize, Sink, Source};
use uvm_sim::mem::PageNum;
use uvm_sim::time::SimDuration;

use crate::fault::AccessKind;

/// One warp-level instruction. It encodes under one key, its access kind
/// (`{"Read": [pages]}`) or `"Delay"`, for the reason DESIGN.md §7 gives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr {
    /// A global memory access of `kind`. `pages` lists the distinct pages
    /// the warp's lanes touch (after intra-warp coalescing), in issue
    /// order: a fully coalesced access is one page, a page-strided access
    /// is up to 32.
    Access {
        /// Load, store, or software prefetch.
        kind: AccessKind,
        /// Distinct pages the warp's lanes touch.
        pages: Vec<PageNum>,
    },
    /// Compute for the given duration without memory access.
    Delay(SimDuration),
}

impl Instr {
    /// A global load of `pages`.
    pub fn load(pages: Vec<PageNum>) -> Self {
        Instr::Access { kind: AccessKind::Read, pages }
    }

    /// A global store of `pages`.
    pub fn store(pages: Vec<PageNum>) -> Self {
        Instr::Access { kind: AccessKind::Write, pages }
    }

    /// A software prefetch of `pages`.
    pub fn prefetch(pages: Vec<PageNum>) -> Self {
        Instr::Access { kind: AccessKind::Prefetch, pages }
    }

    /// The pages this instruction touches (empty for `Delay`).
    pub fn pages(&self) -> &[PageNum] {
        match self {
            Instr::Access { pages, .. } => pages,
            Instr::Delay(_) => &[],
        }
    }

    /// Whether this instruction writes memory.
    pub fn is_store(&self) -> bool {
        matches!(self, Instr::Access { kind: AccessKind::Write, .. })
    }
}

impl Serialize for Instr {
    fn stream<S: Sink>(&self, s: &mut S) {
        s.object(1);
        match self {
            Instr::Access { kind, pages } => {
                s.key(match kind {
                    AccessKind::Read => "Read",
                    AccessKind::Write => "Write",
                    AccessKind::Prefetch => "Prefetch",
                });
                pages.stream(s);
            }
            Instr::Delay(d) => {
                s.key("Delay");
                d.stream(s);
            }
        }
        s.end_object();
    }
}

impl Deserialize for Instr {
    fn pull<S: Source>(src: &mut S) -> Result<Self, DeError> {
        src.object("Instr")?;
        let instr = match src.key()? {
            Some("Read") => Instr::load(Deserialize::pull(src)?),
            Some("Write") => Instr::store(Deserialize::pull(src)?),
            Some("Prefetch") => Instr::prefetch(Deserialize::pull(src)?),
            Some("Delay") => Instr::Delay(Deserialize::pull(src)?),
            Some(other) => {
                let e = DeError::unknown_variant(other, "Instr");
                return Err(src.locate(e));
            }
            None => return Err(src.invalid_type("Instr", "empty object")),
        };
        if src.key()?.is_some() {
            return Err(src.invalid_type("Instr", "object with more than one key"));
        }
        Ok(instr)
    }
}

/// The full instruction stream of one warp.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarpProgram {
    /// Instructions in issue order.
    pub instrs: Vec<Instr>,
}

impl WarpProgram {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an instruction (builder style).
    pub fn push(&mut self, instr: Instr) -> &mut Self {
        self.instrs.push(instr);
        self
    }

    /// Total number of page touches across all instructions.
    pub fn total_accesses(&self) -> usize {
        self.instrs.iter().map(|i| i.pages().len()).sum()
    }

    /// The set of distinct pages the program touches, sorted.
    pub fn touched_pages(&self) -> Vec<PageNum> {
        let mut pages: Vec<PageNum> =
            self.instrs.iter().flat_map(|i| i.pages().iter().copied()).collect();
        pages.sort_unstable();
        pages.dedup();
        pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors() {
        let mut p = WarpProgram::new();
        p.push(Instr::load(vec![PageNum(1)]))
            .push(Instr::load(vec![PageNum(2)]))
            .push(Instr::store(vec![PageNum(3)]))
            .push(Instr::Delay(SimDuration::from_nanos(10)));
        assert_eq!(p.total_accesses(), 3);
        assert_eq!(
            p.touched_pages(),
            vec![PageNum(1), PageNum(2), PageNum(3)]
        );
        assert!(p.instrs[2].is_store());
        assert!(!p.instrs[0].is_store());
        assert!(p.instrs[3].pages().is_empty());
    }

    #[test]
    fn instructions_encode_keyed_by_kind_and_round_trip() {
        let mut p = WarpProgram::new();
        p.push(Instr::load(vec![PageNum(1)]))
            .push(Instr::store(vec![PageNum(2), PageNum(3)]))
            .push(Instr::prefetch(vec![PageNum(4)]))
            .push(Instr::Delay(SimDuration::from_nanos(10)));
        let json = serde_json::to_string(&p).expect("program encodes");
        assert_eq!(
            json,
            r#"{"instrs":[{"Read":[1]},{"Write":[2,3]},{"Prefetch":[4]},{"Delay":10}]}"#
        );
        let back: WarpProgram = serde_json::from_str(&json).expect("program decodes");
        assert_eq!(back, p);
        for bad in [r#"{"Load":[1]}"#, "{}", r#"{"Read":[1],"Write":[2]}"#, "[1]"] {
            assert!(serde_json::from_str::<Instr>(bad).is_err(), "{bad} decodes");
        }
    }

    #[test]
    fn touched_pages_dedups() {
        let mut p = WarpProgram::new();
        p.push(Instr::load(vec![PageNum(5)])).push(Instr::store(vec![PageNum(5)]));
        assert_eq!(p.touched_pages(), vec![PageNum(5)]);
        assert_eq!(p.total_accesses(), 2);
    }
}
