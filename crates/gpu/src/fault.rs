//! GPU page-fault records.
//!
//! One [`FaultRecord`] corresponds to one entry the GMMU writes into the GPU
//! fault buffer. The fields mirror the metadata the paper's per-fault
//! instrumented driver logs: faulting page, access type, originating warp,
//! and the arrival timestamp in the buffer (Fig. 4 plots exactly these
//! timestamps). The originating SM and μTLB are the warp's placement
//! (`GpuSpec::placement`), so a record does not store them.

use serde::{Deserialize, Serialize};
use uvm_sim::mem::PageNum;
use uvm_sim::time::SimTime;

/// The access type of a faulting memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// A global-memory load (`LDG`).
    Read,
    /// A global-memory store (`STG`); scoreboard-gated.
    Write,
    /// A software prefetch (`prefetch.global.L2`); bypasses the scoreboard
    /// and the μTLB outstanding-fault slots.
    Prefetch,
}

impl AccessKind {
    /// Whether this access occupies a μTLB outstanding-fault slot.
    pub fn occupies_utlb_slot(self) -> bool {
        !matches!(self, AccessKind::Prefetch)
    }

    /// Trace-event representation of this access type.
    pub fn trace(self) -> uvm_trace::TraceAccess {
        match self {
            AccessKind::Read => uvm_trace::TraceAccess::Read,
            AccessKind::Write => uvm_trace::TraceAccess::Write,
            AccessKind::Prefetch => uvm_trace::TraceAccess::Prefetch,
        }
    }
}

/// One fault-buffer entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// The faulting 4 KiB page.
    pub page: PageNum,
    /// Access type.
    pub kind: AccessKind,
    /// Originating warp (global warp id); its SM and μTLB are
    /// `GpuSpec::placement(warp)`.
    pub warp: u32,
    /// Arrival time in the GPU fault buffer.
    pub arrival: SimTime,
    /// True when the GMMU already had an outstanding fault for this page
    /// from the same μTLB (a same-μTLB duplicate at generation time).
    pub dup_of_outstanding: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_does_not_occupy_slots() {
        assert!(AccessKind::Read.occupies_utlb_slot());
        assert!(AccessKind::Write.occupies_utlb_slot());
        assert!(!AccessKind::Prefetch.occupies_utlb_slot());
    }

    #[test]
    fn record_round_trips_serde() {
        let r = FaultRecord {
            page: PageNum(42),
            kind: AccessKind::Write,
            warp: 9,
            arrival: SimTime(12345),
            dup_of_outstanding: true,
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: FaultRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
