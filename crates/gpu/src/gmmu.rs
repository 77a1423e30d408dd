//! The GPU memory-management unit: fault arbitration into the fault buffer.
//!
//! Warps deposit fault requests into per-μTLB queues; the GMMU drains those
//! queues **round-robin** into the fault buffer, serializing insertions at
//! its write port (one entry per `fault_insert_gap`).
//!
//! Round-robin arbitration is this model's concrete mechanism for the
//! paper's two GPU-side observations:
//!
//! 1. *"each batch represents a combination of work across the GPU SMs"*
//!    and *"SMs are served relatively fairly"* (Table 2) — fair draining
//!    across 40 μTLBs bounds any SM's share of a 256-fault batch at
//!    256 / 80 = 3.2 faults, the exact maximum in Table 2;
//! 2. a single faulting warp still fills a whole batch by itself (Fig. 3)
//!    because with only one non-empty queue, round-robin degenerates to
//!    FIFO.

use std::collections::VecDeque;

use serde::{DeError, Deserialize, Serialize, Sink, Source};
use uvm_sim::cost::CostModel;
use uvm_sim::mem::PageNum;
use uvm_sim::time::SimTime;

use crate::fault::{AccessKind, FaultRecord};
use crate::fault_buffer::FaultBuffer;
use crate::spec::GpuSpec;

/// A fault awaiting GMMU insertion into the fault buffer.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct PendingFault {
    page: PageNum,
    kind: AccessKind,
    warp: u32,
    requested: SimTime,
    dup_of_outstanding: bool,
}

/// The GMMU arbitration stage.
///
/// The run loop asks for [`Gmmu::pending`] and [`Gmmu::earliest_request`]
/// after every warp step, so both are kept as maintained values rather
/// than scans of the μTLB queues. They stay exact because the queue
/// fronts change in only three ways: a deposit into an empty queue, and a
/// drain or flush, which empty every queue. Being derived, they are not
/// serialized: the hand-written serde impls below write the five stored
/// fields exactly as a derive would, and loading rebuilds the two from the
/// queues.
#[derive(Debug, Clone)]
pub struct Gmmu {
    queues: Vec<VecDeque<PendingFault>>,
    /// Round-robin cursor over μTLB queues.
    cursor: usize,
    /// Next time the buffer write port is free.
    port_free_at: SimTime,
    /// Monotone count of faults deposited.
    total_deposited: u64,
    /// Monotone count of pending faults discarded by flushes.
    flush_discards: u64,
    /// Faults across all queues (derived).
    pending: usize,
    /// Earliest request time among the queue fronts (derived).
    earliest: Option<SimTime>,
}

impl Gmmu {
    /// A GMMU serving `num_utlbs` μTLB queues.
    pub fn new(num_utlbs: u32) -> Self {
        Gmmu {
            queues: (0..num_utlbs).map(|_| VecDeque::new()).collect(),
            cursor: 0,
            port_free_at: SimTime::ZERO,
            total_deposited: 0,
            flush_discards: 0,
            pending: 0,
            earliest: None,
        }
    }

    /// Number of μTLB queues.
    pub(crate) fn num_queues(&self) -> usize {
        self.queues.len()
    }

    /// Number of faults awaiting insertion.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Monotone count of deposits.
    pub fn total_deposited(&self) -> u64 {
        self.total_deposited
    }

    /// Earliest request time among pending (undrained) faults — used by the
    /// engine to schedule the interrupt wake without forcing an early
    /// drain (draining early would defeat round-robin arbitration across
    /// μTLB queues that fill concurrently).
    pub fn earliest_request(&self) -> Option<SimTime> {
        self.earliest
    }

    /// Deposit a fault request of `warp` from `utlb` at time `requested`.
    pub fn deposit(
        &mut self,
        utlb: u32,
        page: PageNum,
        kind: AccessKind,
        warp: u32,
        requested: SimTime,
        dup_of_outstanding: bool,
    ) {
        let queue = &mut self.queues[utlb as usize];
        if queue.is_empty() {
            // Only a new front can lower the earliest request.
            self.earliest = Some(self.earliest.map_or(requested, |t| t.min(requested)));
        }
        queue.push_back(PendingFault {
            page,
            kind,
            warp,
            requested,
            dup_of_outstanding,
        });
        self.pending += 1;
        self.total_deposited += 1;
    }

    /// Drain every pending fault round-robin into `buffer`, assigning
    /// arrival timestamps no earlier than each fault's request time and
    /// serialized at the write port. Returns how many were inserted.
    /// Entries that find the buffer full are discarded — the hardware drops
    /// them and the access re-faults after the next replay. `spec` places
    /// each fault's warp on its SM for the trace events.
    pub fn drain(&mut self, buffer: &mut FaultBuffer, spec: &GpuSpec, cost: &CostModel) -> usize {
        let n_queues = self.queues.len();
        // The cursor's successor, wrapping after the last queue.
        let next = |cursor: usize| if cursor + 1 == n_queues { 0 } else { cursor + 1 };
        let mut inserted = 0;
        for _ in 0..self.pending {
            // Advance the cursor to the next non-empty queue.
            let mut tries = 0;
            while self.queues[self.cursor].is_empty() {
                self.cursor = next(self.cursor);
                tries += 1;
                debug_assert!(tries <= n_queues, "pending() said work remains");
            }
            let utlb = self.cursor as u32;
            let pf = self.queues[self.cursor].pop_front().expect("non-empty");
            self.cursor = next(self.cursor);

            let slot = if pf.requested > self.port_free_at {
                pf.requested
            } else {
                self.port_free_at
            };
            self.port_free_at = slot + cost.fault_insert_gap;
            let record = FaultRecord {
                page: pf.page,
                kind: pf.kind,
                warp: pf.warp,
                arrival: slot + cost.fault_insert_latency,
                dup_of_outstanding: pf.dup_of_outstanding,
            };
            if buffer.push(record) {
                uvm_trace::emit_instant(record.arrival.0, || uvm_trace::TraceEvent::FaultGenerated {
                    page: record.page.0,
                    kind: record.kind.trace(),
                    sm: spec.placement(record.warp).0,
                    utlb,
                    warp: record.warp,
                    dup: record.dup_of_outstanding,
                });
                inserted += 1;
            } else {
                uvm_trace::emit_instant(record.arrival.0, || uvm_trace::TraceEvent::FaultDropped {
                    page: record.page.0,
                    sm: spec.placement(record.warp).0,
                    utlb,
                });
            }
        }
        self.pending = 0;
        self.earliest = None;
        inserted
    }

    /// Monotone count of pending faults discarded by flushes.
    pub fn flush_discards(&self) -> u64 {
        self.flush_discards
    }

    /// Discard all pending (not yet inserted) faults — part of the driver's
    /// pre-replay flush. The dropped accesses re-fault after replay. The
    /// write port idles once its backlog is discarded, so its serialization
    /// point resets: without this, a large discarded wave would keep
    /// phantom-delaying future insertions.
    pub fn flush(&mut self) -> u64 {
        let dropped = self.pending as u64;
        for q in &mut self.queues {
            q.clear();
        }
        self.pending = 0;
        self.earliest = None;
        self.flush_discards += dropped;
        self.port_free_at = SimTime::ZERO;
        dropped
    }
}

impl Serialize for Gmmu {
    fn stream<S: Sink>(&self, s: &mut S) {
        s.object(5);
        s.key("queues");
        self.queues.stream(s);
        s.key("cursor");
        self.cursor.stream(s);
        s.key("port_free_at");
        self.port_free_at.stream(s);
        s.key("total_deposited");
        self.total_deposited.stream(s);
        s.key("flush_discards");
        self.flush_discards.stream(s);
        s.end_object();
    }
}

impl Deserialize for Gmmu {
    fn pull<S: Source>(src: &mut S) -> Result<Self, DeError> {
        const FIELDS: &[&str] =
            &["queues", "cursor", "port_free_at", "total_deposited", "flush_discards"];
        let (mut queues, mut cursor, mut port_free_at) = (None, None, None);
        let (mut total_deposited, mut flush_discards) = (None, None);
        serde::__pull_object(src, "Gmmu", FIELDS, |src, i| match i {
            0 => serde::__pull_field(src, &mut queues, "queues"),
            1 => serde::__pull_field(src, &mut cursor, "cursor"),
            2 => serde::__pull_field(src, &mut port_free_at, "port_free_at"),
            3 => serde::__pull_field(src, &mut total_deposited, "total_deposited"),
            _ => serde::__pull_field(src, &mut flush_discards, "flush_discards"),
        })?;
        let queues: Vec<VecDeque<PendingFault>> = serde::__take(src, queues, "queues")?;
        let cursor: usize = serde::__take(src, cursor, "cursor")?;
        if cursor >= queues.len().max(1) {
            return Err(src.locate(DeError::custom(format!(
                "GMMU cursor {cursor} out of range for {} queues",
                queues.len()
            ))));
        }
        let pending = queues.iter().map(VecDeque::len).sum();
        let earliest = queues
            .iter()
            .filter_map(|q| q.front().map(|pf| pf.requested))
            .min();
        Ok(Gmmu {
            queues,
            cursor,
            port_free_at: serde::__take(src, port_free_at, "port_free_at")?,
            total_deposited: serde::__take(src, total_deposited, "total_deposited")?,
            flush_discards: serde::__take(src, flush_discards, "flush_discards")?,
            pending,
            earliest,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn drain_all(g: &mut Gmmu) -> Vec<FaultRecord> {
        let mut buf = FaultBuffer::new(4096);
        let cost = CostModel::titan_v();
        let inserted = g.drain(&mut buf, &GpuSpec::titan_v(), &cost);
        assert_eq!(inserted, buf.len());
        buf.fetch(inserted, SimTime(u64::MAX))
    }

    #[test]
    fn single_queue_drains_fifo() {
        let mut g = Gmmu::new(4);
        for i in 0..10u64 {
            g.deposit(2, PageNum(i), AccessKind::Read, 0, SimTime(100), false);
        }
        let recs = drain_all(&mut g);
        let pages: Vec<u64> = recs.iter().map(|r| r.page.0).collect();
        assert_eq!(pages, (0..10).collect::<Vec<_>>());
        // Arrivals strictly increase by the port gap.
        for w in recs.windows(2) {
            assert!(w[1].arrival > w[0].arrival);
        }
    }

    #[test]
    fn multiple_queues_interleave_round_robin() {
        let mut g = Gmmu::new(2);
        for i in 0..4u64 {
            g.deposit(0, PageNum(i), AccessKind::Read, 0, SimTime(0), false);
            g.deposit(1, PageNum(100 + i), AccessKind::Read, 1, SimTime(0), false);
        }
        // Each queue's deposits come from the warp of the same number.
        let recs = drain_all(&mut g);
        let warps: Vec<u32> = recs.iter().map(|r| r.warp).collect();
        assert_eq!(warps, vec![0, 1, 0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn fairness_bounds_per_sm_share_of_a_batch() {
        // 40 μTLBs each with plenty of faults: the first 256 buffer entries
        // contain at most ceil(256/40) = 7 faults per μTLB, i.e. 3.2 per SM
        // on average with 2 SMs per μTLB — the Table 2 cap.
        let mut g = Gmmu::new(40);
        for u in 0..40u32 {
            for i in 0..56u64 {
                let page = PageNum(u64::from(u) * 1000 + i);
                g.deposit(u, page, AccessKind::Read, u, SimTime(0), false);
            }
        }
        let recs = drain_all(&mut g);
        let first_batch = &recs[..256];
        let mut per_utlb = [0u32; 40];
        // Warp `u` deposits into queue `u`.
        for r in first_batch {
            per_utlb[r.warp as usize] += 1;
        }
        assert!(per_utlb.iter().all(|&c| (6..=7).contains(&c)), "{per_utlb:?}");
    }

    #[test]
    fn drains_round_robin_like_a_plain_scan() {
        // Each round deposits into a few of 130 queues, some of them
        // twice, and the drain must visit them as a plain round-robin scan
        // from the cursor would, the cursor carrying over between rounds.
        let mut g = Gmmu::new(130);
        let mut cursor = 0usize;
        for round in 0..20u32 {
            let mut queues: Vec<Vec<u32>> = vec![Vec::new(); 130];
            for i in 0..(round % 7 + 1) {
                let q = (round * 53 + i * 71) % 130;
                for _ in 0..(i % 3 + 1) {
                    let (warp, page) = (round * 1000 + q, PageNum(u64::from(round * 1000 + q)));
                    g.deposit(q, page, AccessKind::Read, warp, SimTime(0), false);
                    queues[q as usize].push(warp);
                }
            }
            let mut want = Vec::new();
            while queues.iter().any(|q| !q.is_empty()) {
                while queues[cursor].is_empty() {
                    cursor = (cursor + 1) % 130;
                }
                want.push(queues[cursor].remove(0));
                cursor = (cursor + 1) % 130;
            }
            let got: Vec<u32> = drain_all(&mut g).iter().map(|r| r.warp).collect();
            assert_eq!(got, want, "round {round}");
        }
    }

    #[test]
    fn arrival_respects_request_time() {
        let mut g = Gmmu::new(1);
        g.deposit(0, PageNum(1), AccessKind::Read, 0, SimTime(1_000_000), false);
        let recs = drain_all(&mut g);
        assert!(recs[0].arrival >= SimTime(1_000_000));
    }

    #[test]
    fn flush_discards_pending() {
        let mut g = Gmmu::new(2);
        g.deposit(0, PageNum(1), AccessKind::Read, 0, SimTime(0), false);
        g.deposit(1, PageNum(2), AccessKind::Read, 1, SimTime(0), false);
        assert_eq!(g.flush(), 2);
        assert_eq!(g.pending(), 0);
        assert!(drain_all(&mut g).is_empty());
    }

    #[test]
    fn full_buffer_discards_overflow() {
        let mut g = Gmmu::new(1);
        for i in 0..10u64 {
            g.deposit(0, PageNum(i), AccessKind::Read, 0, SimTime(0), false);
        }
        let mut buf = FaultBuffer::new(4);
        let cost = CostModel::titan_v();
        assert_eq!(g.drain(&mut buf, &GpuSpec::titan_v(), &cost), 4);
        assert_eq!(buf.overflow_drops(), 6);
        assert_eq!(g.pending(), 0);
    }

    #[test]
    fn maintained_values_track_deposits_and_drains() {
        let mut g = Gmmu::new(3);
        assert_eq!((g.pending(), g.earliest_request()), (0, None));
        g.deposit(1, PageNum(1), AccessKind::Read, 0, SimTime(50), false);
        g.deposit(1, PageNum(2), AccessKind::Read, 0, SimTime(10), false);
        // Behind a front: the earliest *front* is still 50.
        assert_eq!((g.pending(), g.earliest_request()), (2, Some(SimTime(50))));
        g.deposit(2, PageNum(3), AccessKind::Write, 1, SimTime(30), true);
        assert_eq!((g.pending(), g.earliest_request()), (3, Some(SimTime(30))));
        assert_eq!(drain_all(&mut g).len(), 3);
        assert_eq!((g.pending(), g.earliest_request()), (0, None));
    }

    #[test]
    fn serializes_only_the_stored_fields_and_rebuilds_the_rest() {
        let mut g = Gmmu::new(2);
        g.deposit(1, PageNum(7), AccessKind::Read, 3, SimTime(40), false);
        g.deposit(0, PageNum(8), AccessKind::Write, 1, SimTime(90), true);
        let v = g.to_value();
        let Value::Object(fields) = &v else {
            panic!("an object")
        };
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        let stored = [
            "queues",
            "cursor",
            "port_free_at",
            "total_deposited",
            "flush_discards",
        ];
        assert_eq!(names, stored);
        assert_eq!(serde::digest(&g), serde::digest_value(&v));
        let back = Gmmu::from_value(&v).unwrap();
        assert_eq!(
            (back.pending(), back.earliest_request()),
            (2, Some(SimTime(40)))
        );
        assert_eq!(back.to_value(), v);
    }

    #[test]
    fn load_rejects_an_out_of_range_cursor() {
        let mut v = Gmmu::new(2).to_value();
        if let Value::Object(fields) = &mut v {
            fields[1].1 = Value::NumU(2);
        }
        assert!(Gmmu::from_value(&v).is_err());
    }
}
