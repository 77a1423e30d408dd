//! The GPU fault buffer.
//!
//! A circular array in device memory, configured and managed by the UVM
//! driver (paper Sec. 2.1). The GMMU appends fault entries; the driver
//! fetches from the head when forming a batch and *flushes* the buffer
//! before issuing a replay, dropping any entries it did not service —
//! dropped non-duplicate faults are simply re-generated after the replay
//! (Sec. 4.2).

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use uvm_sim::inject::PointInjector;
use uvm_sim::time::SimTime;

use crate::fault::FaultRecord;

/// The circular GPU fault buffer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultBuffer {
    entries: VecDeque<FaultRecord>,
    capacity: u32,
    /// Monotone count of entries dropped because the buffer was full.
    overflow_drops: u64,
    /// Monotone count of entries dropped by driver flushes.
    flush_drops: u64,
    /// Monotone count of entries lost to GPU resets.
    reset_losses: u64,
    /// Monotone count of entries ever inserted.
    total_inserted: u64,
    /// Overflow-storm injection (disabled by default; see `uvm_sim::inject`).
    injector: PointInjector,
}

impl FaultBuffer {
    /// An empty buffer with the given hardware capacity.
    pub fn new(capacity: u32) -> Self {
        FaultBuffer {
            entries: VecDeque::with_capacity(capacity as usize),
            capacity,
            overflow_drops: 0,
            flush_drops: 0,
            reset_losses: 0,
            total_inserted: 0,
            injector: PointInjector::disabled(),
        }
    }

    /// Install the overflow-storm injector (the
    /// [`InjectionPoint::FaultBufferOverflow`](uvm_sim::inject::InjectionPoint)
    /// site).
    pub fn set_injector(&mut self, injector: PointInjector) {
        self.injector = injector;
    }

    /// Number of entries currently buffered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append a fault. Returns `false` (and counts an overflow drop) when
    /// the buffer is full — the hardware drops the entry and the access
    /// re-faults after the next replay. An injected overflow storm makes the
    /// buffer behave as if it were full for the storm's duration.
    pub fn push(&mut self, fault: FaultRecord) -> bool {
        if self.entries.len() as u32 >= self.capacity
            || (self.injector.is_enabled() && self.injector.should_fail(fault.arrival))
        {
            self.overflow_drops += 1;
            return false;
        }
        debug_assert!(
            self.entries.back().is_none_or(|last| last.arrival <= fault.arrival),
            "fault buffer arrivals must be monotone"
        );
        self.entries.push_back(fault);
        self.total_inserted += 1;
        true
    }

    /// Fetch up to `max` entries whose arrival time is `<= now`, in arrival
    /// order. This models the driver's batch-formation read loop: it reads
    /// what has arrived, up to the batch size limit.
    pub fn fetch(&mut self, max: usize, now: SimTime) -> Vec<FaultRecord> {
        let mut out = Vec::with_capacity(max.min(self.entries.len()));
        self.fetch_into(max, now, &mut out);
        out
    }

    /// [`FaultBuffer::fetch`] into a caller-owned buffer: appends up to
    /// `max` arrived entries to `out` and returns how many were appended.
    /// Lets the run loop reuse one batch allocation across all batches.
    pub fn fetch_into(&mut self, max: usize, now: SimTime, out: &mut Vec<FaultRecord>) -> usize {
        let mut taken = 0;
        while taken < max {
            match self.entries.front() {
                Some(f) if f.arrival <= now => {
                    out.push(self.entries.pop_front().expect("front exists"));
                    taken += 1;
                }
                _ => break,
            }
        }
        taken
    }

    /// The buffered entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &FaultRecord> {
        self.entries.iter()
    }

    /// Arrival time of the oldest buffered entry, if any.
    pub fn earliest_arrival(&self) -> Option<SimTime> {
        self.entries.front().map(|f| f.arrival)
    }

    /// Driver flush before replay: drop every remaining entry. Returns the
    /// number dropped.
    pub fn flush(&mut self) -> u64 {
        let dropped = self.entries.len() as u64;
        self.entries.clear();
        self.flush_drops += dropped;
        dropped
    }

    /// A GPU reset loses every buffered entry. Unlike [`FaultBuffer::flush`]
    /// this is not a driver-ordered drop: the entries vanish from hardware,
    /// and are accounted separately so reset damage is distinguishable from
    /// routine pre-replay flushes. Returns the number lost.
    pub fn reset(&mut self) -> u64 {
        let lost = self.entries.len() as u64;
        self.entries.clear();
        self.reset_losses += lost;
        lost
    }

    /// Monotone count of hardware overflow drops.
    pub fn overflow_drops(&self) -> u64 {
        self.overflow_drops
    }

    /// Monotone count of entries lost to GPU resets.
    pub fn reset_losses(&self) -> u64 {
        self.reset_losses
    }

    /// Monotone count of flush drops.
    pub fn flush_drops(&self) -> u64 {
        self.flush_drops
    }

    /// Monotone count of entries ever inserted.
    pub fn total_inserted(&self) -> u64 {
        self.total_inserted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::AccessKind;
    use uvm_sim::mem::PageNum;

    fn fault(page: u64, arrival: u64) -> FaultRecord {
        FaultRecord {
            page: PageNum(page),
            kind: AccessKind::Read,
            warp: 0,
            arrival: SimTime(arrival),
            dup_of_outstanding: false,
        }
    }

    #[test]
    fn fetch_respects_arrival_time() {
        let mut b = FaultBuffer::new(16);
        b.push(fault(1, 10));
        b.push(fault(2, 20));
        b.push(fault(3, 30));
        let got = b.fetch(10, SimTime(20));
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].page, PageNum(1));
        assert_eq!(got[1].page, PageNum(2));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn fetch_respects_batch_limit() {
        let mut b = FaultBuffer::new(16);
        for i in 0..10 {
            b.push(fault(i, i));
        }
        let got = b.fetch(4, SimTime(100));
        assert_eq!(got.len(), 4);
        assert_eq!(b.len(), 6);
    }

    #[test]
    fn overflow_drops_are_counted() {
        let mut b = FaultBuffer::new(2);
        assert!(b.push(fault(1, 0)));
        assert!(b.push(fault(2, 0)));
        assert!(!b.push(fault(3, 0)));
        assert_eq!(b.overflow_drops(), 1);
        assert_eq!(b.len(), 2);
        assert_eq!(b.total_inserted(), 2);
    }

    #[test]
    fn flush_drops_everything() {
        let mut b = FaultBuffer::new(8);
        for i in 0..5 {
            b.push(fault(i, i));
        }
        assert_eq!(b.flush(), 5);
        assert!(b.is_empty());
        assert_eq!(b.flush_drops(), 5);
        assert_eq!(b.flush(), 0);
    }

    #[test]
    fn injected_storm_drops_a_burst_without_filling_the_buffer() {
        use uvm_sim::inject::PointPlan;
        use uvm_sim::DetRng;

        let mut b = FaultBuffer::new(64);
        b.set_injector(PointInjector::new(
            &PointPlan::scheduled(SimTime(10), 3),
            DetRng::new(1),
        ));
        assert!(b.push(fault(1, 5)));
        // The storm hits: three consecutive arrivals are dropped even though
        // the buffer has plenty of free slots.
        assert!(!b.push(fault(2, 10)));
        assert!(!b.push(fault(3, 11)));
        assert!(!b.push(fault(4, 12)));
        assert!(b.push(fault(5, 13)));
        assert_eq!(b.overflow_drops(), 3);
        assert_eq!(b.total_inserted(), 2);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn reset_losses_are_separate_from_flush_drops() {
        let mut b = FaultBuffer::new(8);
        for i in 0..4 {
            b.push(fault(i, i));
        }
        assert_eq!(b.reset(), 4);
        assert!(b.is_empty());
        assert_eq!(b.reset_losses(), 4);
        assert_eq!(b.flush_drops(), 0);
        b.push(fault(9, 9));
        assert_eq!(b.flush(), 1);
        assert_eq!(b.flush_drops(), 1);
        assert_eq!(b.reset_losses(), 4);
    }

    #[test]
    fn earliest_arrival_tracks_front() {
        let mut b = FaultBuffer::new(8);
        assert_eq!(b.earliest_arrival(), None);
        b.push(fault(1, 7));
        b.push(fault(2, 9));
        assert_eq!(b.earliest_arrival(), Some(SimTime(7)));
        b.fetch(1, SimTime(100));
        assert_eq!(b.earliest_arrival(), Some(SimTime(9)));
    }
}
