//! The GPU device façade.
//!
//! [`Gpu`] ties the per-warp state machines, μTLBs, GMMU, fault buffer, and
//! the GPU-side page table together. The host-side driver interacts with it
//! the way the real UVM driver interacts with the hardware:
//!
//! * fetch faults from [`Gpu::fault_buffer`],
//! * map migrated pages with [`Gpu::map_pages`] (updating the GPU page
//!   table via the push-buffer),
//! * flush the buffer and issue a replay with [`Gpu::flush`] +
//!   [`Gpu::replay`], which clears μTLB waiting state and wakes stalled
//!   warps,
//! * unmap pages on eviction with [`Gpu::unmap_pages`].
//!
//! Warps are driven by [`Gpu::step_warp`], which advances one warp until it
//! faults to a stall, finishes, or exhausts its step quantum — the engine
//! (in `uvm-core`) schedules these steps as discrete events.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use uvm_sim::cost::CostModel;
use uvm_sim::hash::FastSet;
use uvm_sim::mem::PageNum;
use uvm_sim::rng::DetRng;
use uvm_sim::time::{SimDuration, SimTime};

use crate::fault::AccessKind;
use crate::fault_buffer::FaultBuffer;
use crate::gmmu::Gmmu;
use crate::isa::{Instr, WarpProgram};
use crate::spec::GpuSpec;
use crate::utlb::{Utlb, UtlbInsert};
use crate::warp::{Warp, WarpStatus};

/// Maximum instructions a single `step_warp` call executes before yielding
/// back to the event loop, bounding how far a warp can run ahead of
/// concurrent residency changes.
const STEP_QUANTUM_INSTRS: usize = 512;

/// Result of stepping a warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The warp used its quantum; schedule another step at `at`.
    Continue {
        /// Time of the next step.
        at: SimTime,
    },
    /// The warp stalled on faults; it will be woken by the next replay.
    Blocked,
    /// The warp completed; a queued warp may have taken its SM slot.
    Finished {
        /// Completion time.
        at: SimTime,
        /// Queued warp activated into the freed slot, needing its first
        /// step scheduled.
        activated: Option<u32>,
    },
}

/// The modelled GPU device.
///
/// Serializable in full — page table, μTLBs, GMMU queues, fault buffer,
/// every warp's scoreboard, SM occupancy, and the hardware-jitter RNG — so
/// a snapshot taken between batches restores to a bit-identical device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Gpu {
    /// Hardware configuration.
    pub spec: GpuSpec,
    cost: CostModel,
    /// GPU page table: pages currently resident and mapped on the device.
    page_table: FastSet<PageNum>,
    utlbs: Vec<Utlb>,
    /// Fault arbitration stage.
    pub gmmu: Gmmu,
    /// The circular fault buffer the driver fetches from.
    pub fault_buffer: FaultBuffer,
    warps: Vec<Warp>,
    sm_queues: Vec<VecDeque<u32>>,
    sm_active: Vec<u32>,
    rng: DetRng,
    done_warps: usize,
    /// Completion time of the last warp to finish.
    pub kernel_end: SimTime,
    /// Monotone count of replays issued.
    pub replays: u64,
    /// Monotone count of GPU resets suffered.
    pub resets: u64,
}

impl Gpu {
    /// A GPU with the given hardware spec and cost model, and a seed for
    /// the hardware-timing jitter (warp wake staggering after replay).
    pub fn new_seeded(spec: GpuSpec, cost: CostModel, seed: u64) -> Self {
        let num_utlbs = spec.num_utlbs();
        let num_sms = spec.num_sms;
        Gpu {
            gmmu: Gmmu::new(num_utlbs),
            fault_buffer: FaultBuffer::new(spec.fault_buffer_entries),
            utlbs: (0..num_utlbs)
                .map(|_| Utlb::new(spec.utlb_outstanding_limit))
                .collect(),
            warps: Vec::new(),
            sm_queues: (0..num_sms).map(|_| VecDeque::new()).collect(),
            sm_active: vec![0; num_sms as usize],
            rng: DetRng::new(seed ^ 0x6704_11AD),
            done_warps: 0,
            kernel_end: SimTime::ZERO,
            replays: 0,
            resets: 0,
            page_table: FastSet::default(),
            spec,
            cost,
        }
    }

    /// A GPU with the given hardware spec and cost model (default seed).
    pub fn new(spec: GpuSpec, cost: CostModel) -> Self {
        Self::new_seeded(spec, cost, 0)
    }

    /// Launch a kernel: one program per warp, assigned to SMs round-robin.
    /// Returns the ids of warps activated immediately (the first wave);
    /// the rest queue behind them and activate as slots free up.
    pub fn launch(&mut self, programs: Vec<WarpProgram>) -> Vec<u32> {
        let base = self.warps.len() as u32;
        for (i, program) in programs.into_iter().enumerate() {
            let id = base + i as u32;
            let sm = id % self.spec.num_sms;
            let utlb = self.spec.utlb_of_sm(sm);
            self.warps.push(Warp::new(id, sm, utlb, program));
            self.sm_queues[sm as usize].push_back(id);
        }
        let mut activated = Vec::new();
        for sm in 0..self.spec.num_sms as usize {
            while self.sm_active[sm] < self.spec.max_warps_per_sm {
                let Some(wid) = self.sm_queues[sm].pop_front() else { break };
                self.warps[wid as usize].status = WarpStatus::Ready;
                self.sm_active[sm] += 1;
                activated.push(wid);
            }
        }
        activated
    }

    /// Total warps launched.
    pub fn num_warps(&self) -> usize {
        self.warps.len()
    }

    /// Warps that have completed.
    pub fn warps_done(&self) -> usize {
        self.done_warps
    }

    /// Whether every launched warp has completed.
    pub fn all_done(&self) -> bool {
        self.done_warps == self.warps.len()
    }

    /// Warps currently stalled waiting for a replay.
    pub fn blocked_warps(&self) -> usize {
        self.warps.iter().filter(|w| w.status == WarpStatus::Blocked).count()
    }

    /// Read access to a warp (tests, instrumentation).
    pub fn warp(&self, wid: u32) -> &Warp {
        &self.warps[wid as usize]
    }

    /// Whether `page` is resident on the device.
    pub fn is_resident(&self, page: PageNum) -> bool {
        self.page_table.contains(&page)
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.page_table.len()
    }

    /// Map pages after migration (driver push-buffer operation).
    pub fn map_pages<I: IntoIterator<Item = PageNum>>(&mut self, pages: I) {
        self.page_table.extend(pages);
    }

    /// Unmap pages on eviction.
    pub fn unmap_pages<I: IntoIterator<Item = PageNum>>(&mut self, pages: I) {
        for p in pages {
            self.page_table.remove(&p);
        }
    }

    /// Move pending GMMU faults into the fault buffer (round-robin
    /// arbitration), returning how many were inserted.
    pub fn drain_faults(&mut self) -> usize {
        self.gmmu.drain(&mut self.fault_buffer, &self.cost)
    }

    /// Driver pre-replay flush: drop all buffered and in-flight faults.
    /// Returns the number of entries dropped.
    pub fn flush(&mut self) -> u64 {
        self.fault_buffer.flush() + self.gmmu.flush()
    }

    /// A GPU reset: the fault buffer, in-flight GMMU arbitration, and all
    /// μTLB outstanding-fault tracking are lost. Returns the number of
    /// fault entries destroyed.
    ///
    /// Blocked warps are *not* woken here — their faults are simply gone
    /// from hardware. The driver re-attaches and issues a replay (the
    /// normal end-of-batch one), which wakes the warps; the lost accesses
    /// then re-fault exactly like overflow-dropped entries do, so forward
    /// progress is preserved from the last consistent point.
    pub fn reset(&mut self, now: SimTime) -> u64 {
        self.resets += 1;
        let dropped = self.fault_buffer.reset() + self.gmmu.flush();
        for u in &mut self.utlbs {
            u.reset();
        }
        uvm_trace::emit_instant(now.0, || uvm_trace::TraceEvent::GpuReset {
            seq: self.resets,
            dropped,
        });
        dropped
    }

    /// Aggregate μTLB entries lost to GPU resets.
    pub fn utlb_reset_losses(&self) -> u64 {
        self.utlbs.iter().map(Utlb::reset_losses).sum()
    }

    /// Fault replay: clear μTLB waiting state and wake every blocked warp.
    /// Fills `woken` (cleared first, so the caller can reuse one buffer)
    /// with `(warp, wake_time)` pairs in warp order; wake times are
    /// staggered over `replay_wake_spread` because μTLB replay processing
    /// and warp re-scheduling resume warps at slightly different instants —
    /// except when a single warp is blocked (nothing to arbitrate against),
    /// which keeps the single-warp microbenchmarks (Figs. 3–5) exactly
    /// timed.
    pub fn replay(&mut self, now: SimTime, woken: &mut Vec<(u32, SimTime)>) {
        self.replays += 1;
        for u in &mut self.utlbs {
            u.replay();
        }
        woken.clear();
        let page_table = &self.page_table;
        for w in &mut self.warps {
            if w.status == WarpStatus::Blocked {
                w.apply_replay(|p| page_table.contains(&p));
                w.status = WarpStatus::Ready;
                w.ready_at = now;
                woken.push((w.id, now));
            }
        }
        uvm_trace::emit_instant(now.0, || uvm_trace::TraceEvent::Replay {
            seq: self.replays,
            woken: woken.len() as u64,
        });
        let spread = self.cost.replay_wake_spread.as_nanos();
        if woken.len() > 1 && spread > 0 {
            // One jitter draw per woken warp, in warp order.
            for (wid, wake) in woken.iter_mut() {
                *wake = now + SimDuration::from_nanos(self.rng.below(spread));
                self.warps[*wid as usize].ready_at = *wake;
            }
        }
    }

    /// Advance warp `wid` from time `now` until it blocks, finishes, or
    /// exhausts its step quantum.
    ///
    /// # Panics
    ///
    /// Panics if the warp is not in the `Ready` state.
    pub fn step_warp(&mut self, wid: u32, now: SimTime) -> StepOutcome {
        let w = &mut self.warps[wid as usize];
        assert_eq!(w.status, WarpStatus::Ready, "stepping warp {wid} in state {:?}", w.status);
        let mut t = if now > w.ready_at { now } else { w.ready_at };
        let mut instrs_executed = 0usize;

        loop {
            // Issue any pending accesses of the current instruction (plus
            // queued refaults).
            while let Some((page, kind)) = w.next_pending_access() {
                if self.page_table.contains(&page) {
                    continue; // hit
                }
                if kind == AccessKind::Prefetch {
                    // Prefetches bypass the scoreboard and μTLB slots: the
                    // fault is logged but the warp neither stalls nor waits.
                    self.gmmu.deposit(w.utlb, page, kind, w.sm, w.id, t, false);
                    w.faults_generated += 1;
                    continue;
                }
                match self.utlbs[w.utlb as usize].try_insert(page) {
                    UtlbInsert::Inserted => {
                        self.gmmu.deposit(w.utlb, page, kind, w.sm, w.id, t, false);
                        w.note_outstanding(page, kind);
                        w.faults_generated += 1;
                    }
                    UtlbInsert::AlreadyOutstanding => {
                        // Another access (same or different warp behind this
                        // μTLB) already faulted this page. The access
                        // usually attaches to the existing entry, but with
                        // some probability the GMMU logs another entry —
                        // the same-μTLB (type 1) duplicates of Sec. 4.2.
                        if self.rng.chance(self.spec.same_utlb_dup_prob) {
                            self.gmmu.deposit(w.utlb, page, kind, w.sm, w.id, t, true);
                            w.faults_generated += 1;
                        }
                        w.note_outstanding(page, kind);
                    }
                    UtlbInsert::Full => {
                        // All 56 slots occupied: the warp stalls until the
                        // next replay (the Fig. 3 56-fault first batch).
                        w.push_back_access(page, kind);
                        w.status = WarpStatus::Blocked;
                        w.ready_at = t;
                        return StepOutcome::Blocked;
                    }
                }
            }

            // Current instruction fully issued: move to the next.
            if w.at_program_end() {
                if w.has_outstanding() {
                    // Program issued completely but accesses are still in
                    // flight; the warp retires only when they land.
                    w.status = WarpStatus::Blocked;
                    w.ready_at = t;
                    Self::spurious_reissue(w, &mut self.gmmu, &mut self.rng, self.spec.spurious_refault_prob, t);
                    return StepOutcome::Blocked;
                }
                w.status = WarpStatus::Done;
                w.ready_at = t;
                let sm = w.sm as usize;
                self.done_warps += 1;
                if t > self.kernel_end {
                    self.kernel_end = t;
                }
                self.sm_active[sm] -= 1;
                let activated = self.sm_queues[sm].pop_front().inspect(|&next| {
                    self.warps[next as usize].status = WarpStatus::Ready;
                    self.warps[next as usize].ready_at = t;
                    self.sm_active[sm] += 1;
                });
                return StepOutcome::Finished { at: t, activated };
            }

            // Scoreboard: a store cannot issue while any prior faulted
            // access is outstanding (Listing 2: FADD stalls on its input
            // registers, blocking the STG and everything after it).
            if matches!(w.peek_instr(), Some(Instr::Store { .. })) && w.has_outstanding() {
                w.status = WarpStatus::Blocked;
                w.ready_at = t;
                Self::spurious_reissue(w, &mut self.gmmu, &mut self.rng, self.spec.spurious_refault_prob, t);
                return StepOutcome::Blocked;
            }

            // Infallible: the `at_program_end` branch above already returned.
            let instr = w.fetch_next_instr().expect("not at program end");
            t += match instr {
                Instr::Delay(d) => *d,
                _ => self.cost.warp_instr_latency,
            };
            instrs_executed += 1;
            if instrs_executed >= STEP_QUANTUM_INSTRS {
                w.ready_at = t;
                return StepOutcome::Continue { at: t };
            }
        }
    }

    /// While a warp stalls on outstanding faults, its SM occasionally
    /// "spuriously wakes up to reissue the same fault" (paper Sec. 4.2):
    /// each outstanding access re-enters the GMMU with some probability as
    /// a same-μTLB duplicate, 10–60 µs after the stall (a *wake-up*, not an
    /// instantaneous echo — so microbenchmark first batches keep their
    /// exact μTLB-limit size, and most re-issues land mid-service and are
    /// flushed, surfacing only occasionally as batch duplicates). The μTLB
    /// entry already exists, so no slot is consumed.
    fn spurious_reissue(
        w: &mut Warp,
        gmmu: &mut Gmmu,
        rng: &mut DetRng,
        prob: f64,
        now: SimTime,
    ) {
        if prob <= 0.0 {
            return;
        }
        let reissues: Vec<(PageNum, AccessKind)> = w
            .outstanding_accesses()
            .filter(|_| rng.chance(prob))
            .collect();
        for (page, kind) in reissues {
            let wake_delay = SimDuration::from_nanos(10_000 + rng.below(50_000));
            gmmu.deposit(w.utlb, page, kind, w.sm, w.id, now + wake_delay, true);
            w.faults_generated += 1;
        }
    }

    /// Aggregate μTLB full-stall count (hardware-limit pressure metric).
    pub fn utlb_full_stalls(&self) -> u64 {
        self.utlbs.iter().map(Utlb::full_stalls).sum()
    }

    /// Occupancy of a μTLB (tests).
    pub fn utlb_occupancy(&self, utlb: u32) -> u32 {
        self.utlbs[utlb as usize].occupancy()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::fault::FaultRecord;
    use uvm_sim::mem::{VaBlockId, PAGES_PER_VABLOCK};

    fn small_gpu() -> Gpu {
        Gpu::new(GpuSpec::small(1 << 30), CostModel::titan_v())
    }

    /// Drain the GMMU into an empty fault buffer and return what landed.
    fn drain_records(gpu: &mut Gpu) -> Vec<FaultRecord> {
        assert!(gpu.fault_buffer.is_empty());
        let inserted = gpu.drain_faults();
        assert_eq!(inserted, gpu.fault_buffer.len());
        gpu.fault_buffer.iter().copied().collect()
    }

    /// Issue a replay and return the woken `(warp, wake time)` pairs.
    fn replay(gpu: &mut Gpu, now: SimTime) -> Vec<(u32, SimTime)> {
        let mut woken = vec![(u32::MAX, SimTime::ZERO)];
        gpu.replay(now, &mut woken);
        woken
    }

    /// A minimal driver loop: fetch → service (map everything) → flush →
    /// replay, repeated until the kernel finishes. Returns the batch sizes.
    fn mini_drive(gpu: &mut Gpu, activated: Vec<u32>, batch_limit: usize) -> Vec<usize> {
        let mut pending: Vec<u32> = activated;
        let mut batches = Vec::new();
        let mut now = SimTime::ZERO;
        for _round in 0..10_000 {
            // Step every ready warp to quiescence.
            while let Some(wid) = pending.pop() {
                match gpu.step_warp(wid, now) {
                    StepOutcome::Continue { .. } => pending.push(wid),
                    StepOutcome::Blocked => {}
                    StepOutcome::Finished { activated, .. } => {
                        if let Some(next) = activated {
                            pending.push(next);
                        }
                    }
                }
            }
            gpu.drain_faults();
            if gpu.all_done() {
                break;
            }
            // Service one batch.
            now = SimTime(now.0 + 100_000);
            let batch = gpu.fault_buffer.fetch(batch_limit, now);
            if batch.is_empty() && gpu.fault_buffer.is_empty() && gpu.gmmu.pending() == 0 {
                // Warps blocked with nothing buffered: replay to re-fault.
                gpu.flush();
                pending = replay(gpu, now).into_iter().map(|(w, _)| w).collect();
                continue;
            }
            batches.push(batch.len());
            let pages: HashSet<PageNum> = batch.iter().map(|f| f.page).collect();
            gpu.map_pages(pages);
            gpu.flush();
            now = SimTime(now.0 + 10_000);
            pending = replay(gpu, now).into_iter().map(|(w, _)| w).collect();
        }
        batches
    }

    /// The Listing 1 vector-addition microbenchmark: one 32-thread warp,
    /// each thread touching one page of a, b, and c per statement, three
    /// statements.
    fn vecadd_program() -> WarpProgram {
        let a = 1000u64; // page bases, far apart
        let b = 2000u64;
        let c = 3000u64;
        let mut p = WarpProgram::new();
        for stmt in 0..3u64 {
            let off = stmt * 32;
            p.push(Instr::Load {
                pages: (0..32).map(|l| PageNum(a + off + l)).collect(),
            });
            p.push(Instr::Load {
                pages: (0..32).map(|l| PageNum(b + off + l)).collect(),
            });
            p.push(Instr::Store {
                pages: (0..32).map(|l| PageNum(c + off + l)).collect(),
            });
        }
        p
    }

    #[test]
    fn vecadd_first_batch_is_exactly_56_faults() {
        // Paper Fig. 3: 32 A-reads plus 24 B-reads fill the 56 μTLB slots.
        let mut gpu = small_gpu();
        let activated = gpu.launch(vec![vecadd_program()]);
        assert_eq!(gpu.step_warp(activated[0], SimTime::ZERO), StepOutcome::Blocked);
        let recs = drain_records(&mut gpu);
        assert_eq!(recs.len(), 56);
        assert!(recs.iter().all(|r| r.kind == AccessKind::Read));
        assert_eq!(gpu.utlb_occupancy(gpu.warp(activated[0]).utlb), 56);
    }

    #[test]
    fn vecadd_writes_only_after_all_reads_fulfilled() {
        // Paper Sec. 3.2: no write access can execute until all 64
        // prerequisite reads are fulfilled.
        let mut gpu = small_gpu();
        let activated = gpu.launch(vec![vecadd_program()]);
        let wid = activated[0];
        assert_eq!(gpu.step_warp(wid, SimTime::ZERO), StepOutcome::Blocked);
        // Service batch 1 (56 reads).
        gpu.drain_faults();
        let batch1 = gpu.fault_buffer.fetch(256, SimTime(u64::MAX / 2));
        gpu.map_pages(batch1.iter().map(|f| f.page));
        gpu.flush();
        let woken = replay(&mut gpu, SimTime(1_000_000));
        assert_eq!(woken, vec![(wid, SimTime(1_000_000))]);
        // Batch 2: the remaining 8 B-reads; the store is still
        // scoreboard-blocked behind them.
        assert_eq!(gpu.step_warp(wid, SimTime(1_000_000)), StepOutcome::Blocked);
        let recs = drain_records(&mut gpu);
        assert_eq!(recs.len(), 8);
        assert!(recs.iter().all(|r| r.kind == AccessKind::Read));
        // Service batch 2; only now can writes fault.
        let batch2 = gpu.fault_buffer.fetch(256, SimTime(u64::MAX / 2));
        gpu.map_pages(batch2.iter().map(|f| f.page));
        gpu.flush();
        replay(&mut gpu, SimTime(2_000_000));
        assert_eq!(gpu.step_warp(wid, SimTime(2_000_000)), StepOutcome::Blocked);
        let recs = drain_records(&mut gpu);
        assert!(!recs.is_empty());
        assert!(recs.iter().any(|r| r.kind == AccessKind::Write), "writes fault now");
        // All writes in this wave target vector C's first statement pages.
        for r in recs.iter().filter(|r| r.kind == AccessKind::Write) {
            assert!(r.page.0 >= 3000 && r.page.0 < 3032, "{:?}", r.page);
        }
    }

    #[test]
    fn vecadd_completes_under_mini_driver() {
        let mut gpu = small_gpu();
        let activated = gpu.launch(vec![vecadd_program()]);
        let batches = mini_drive(&mut gpu, activated, 256);
        assert!(gpu.all_done());
        assert_eq!(batches[0], 56);
        // 3 statements x 96 accesses = 288 unique pages total.
        assert_eq!(gpu.resident_pages(), 288);
        assert!(batches.len() >= 5, "multiple batches required: {batches:?}");
    }

    #[test]
    fn prefetch_single_warp_fills_whole_batch() {
        // Paper Fig. 5: software prefetching escapes both the μTLB limit
        // and the scoreboard; a single warp generates up to the batch-size
        // limit (256) in one batch.
        let mut gpu = small_gpu();
        let pages: Vec<PageNum> = (0..300).map(|i| PageNum(5000 + i)).collect();
        let mut p = WarpProgram::new();
        p.push(Instr::Prefetch { pages });
        let activated = gpu.launch(vec![p]);
        // The warp never blocks: prefetches are fire-and-forget.
        match gpu.step_warp(activated[0], SimTime::ZERO) {
            StepOutcome::Finished { .. } => {}
            other => panic!("prefetch warp should finish immediately, got {other:?}"),
        }
        let recs = drain_records(&mut gpu);
        assert_eq!(recs.len(), 300);
        let batch = gpu.fault_buffer.fetch(256, SimTime(u64::MAX / 2));
        assert_eq!(batch.len(), 256, "batch capped at the software limit");
        // The tail beyond the batch limit is dropped by the flush.
        assert_eq!(gpu.flush(), 44);
    }

    #[test]
    fn utlb_sharing_between_adjacent_sms() {
        // Two warps on SMs 0 and 1 share μTLB 0; their combined outstanding
        // faults are bounded by the single 56-entry budget.
        let mut gpu = small_gpu();
        let p0 = WarpProgram {
            instrs: vec![Instr::Load { pages: (0..32).map(|i| PageNum(100 + i)).collect() }],
        };
        let p1 = WarpProgram {
            instrs: vec![Instr::Load { pages: (0..32).map(|i| PageNum(200 + i)).collect() }],
        };
        // Launch 8 programs so warps land on SMs 0..8; warps 0 and 1 share μTLB 0.
        let activated = gpu.launch(vec![p0, p1]);
        for wid in activated {
            let _ = gpu.step_warp(wid, SimTime::ZERO);
        }
        assert_eq!(gpu.utlb_occupancy(0), 56);
        assert_eq!(gpu.utlb_full_stalls(), 1);
        let recs = drain_records(&mut gpu);
        assert_eq!(recs.len(), 56);
    }

    #[test]
    fn same_utlb_duplicate_faults_are_flagged() {
        // Two warps behind the same μTLB touching the same page: the second
        // fault is logged as a duplicate of an outstanding entry.
        let mut gpu = small_gpu();
        let shared = PageNum(42);
        let prog = WarpProgram { instrs: vec![Instr::load1(shared)] };
        // Warps 0 and 1 land on SMs 0 and 1 → both on μTLB 0.
        let activated = gpu.launch(vec![prog.clone(), prog]);
        for wid in activated {
            let _ = gpu.step_warp(wid, SimTime::ZERO);
        }
        let recs = drain_records(&mut gpu);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs.iter().filter(|r| r.dup_of_outstanding).count(), 1);
        assert_eq!(gpu.utlb_occupancy(0), 1, "duplicate consumed no extra slot");
    }

    #[test]
    fn resident_pages_do_not_fault() {
        let mut gpu = small_gpu();
        let block = VaBlockId(3);
        gpu.map_pages(block.pages());
        assert_eq!(gpu.resident_pages() as u64, PAGES_PER_VABLOCK);
        let prog = WarpProgram {
            instrs: vec![
                Instr::Load { pages: vec![block.page_at(0), block.page_at(5)] },
                Instr::Store { pages: vec![block.page_at(6)] },
            ],
        };
        let activated = gpu.launch(vec![prog]);
        match gpu.step_warp(activated[0], SimTime::ZERO) {
            StepOutcome::Finished { .. } => {}
            other => panic!("all-resident warp should finish, got {other:?}"),
        }
        assert_eq!(gpu.gmmu.pending(), 0);
        assert_eq!(gpu.warp(activated[0]).faults_generated, 0);
    }

    #[test]
    fn wave_scheduling_respects_occupancy() {
        let mut gpu = small_gpu();
        // 8 SMs x 16 warps = 128 slots; launch 130 trivial programs.
        let progs: Vec<WarpProgram> = (0..130)
            .map(|i| WarpProgram { instrs: vec![Instr::load1(PageNum(10_000 + i))] })
            .collect();
        let activated = gpu.launch(progs);
        assert_eq!(activated.len(), 128);
        let batches = mini_drive(&mut gpu, activated, 256);
        assert!(gpu.all_done());
        assert_eq!(gpu.num_warps(), 130);
        assert!(!batches.is_empty());
    }

    #[test]
    fn kernel_end_reflects_last_finisher() {
        let mut gpu = small_gpu();
        let prog = WarpProgram {
            instrs: vec![Instr::Delay(uvm_sim::time::SimDuration::from_micros(50))],
        };
        let activated = gpu.launch(vec![prog]);
        match gpu.step_warp(activated[0], SimTime(1000)) {
            StepOutcome::Finished { at, .. } => {
                assert_eq!(at, SimTime(1000 + 50_000));
                assert_eq!(gpu.kernel_end, at);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn second_launch_reuses_residency() {
        let mut gpu = small_gpu();
        let prog = WarpProgram { instrs: vec![Instr::load1(PageNum(7))] };
        let a1 = gpu.launch(vec![prog.clone()]);
        let _ = gpu.step_warp(a1[0], SimTime::ZERO);
        let recs = drain_records(&mut gpu);
        gpu.map_pages(recs.iter().map(|r| r.page));
        gpu.flush();
        for (w, t) in replay(&mut gpu, SimTime(1000)) {
            let _ = gpu.step_warp(w, t);
        }
        assert!(gpu.all_done());
        // Second kernel touching the same page: no fault.
        let a2 = gpu.launch(vec![prog]);
        match gpu.step_warp(a2[0], SimTime(2000)) {
            StepOutcome::Finished { .. } => {}
            other => panic!("warm page should not fault: {other:?}"),
        }
        assert_eq!(gpu.gmmu.pending(), 0);
        assert_eq!(gpu.num_warps(), 2);
        assert!(gpu.all_done());
    }

    #[test]
    fn buffer_overflow_drops_and_recovers() {
        // A fault buffer smaller than one μTLB's burst: the overflow is
        // dropped by the hardware and the access re-faults after replay.
        let mut spec = GpuSpec::small(1 << 30);
        spec.fault_buffer_entries = 16;
        let mut gpu = Gpu::new(spec, CostModel::titan_v());
        let prog = WarpProgram {
            instrs: vec![Instr::Load { pages: (0..32).map(PageNum).collect() }],
        };
        let a = gpu.launch(vec![prog]);
        let _ = gpu.step_warp(a[0], SimTime::ZERO);
        let recs = drain_records(&mut gpu);
        assert_eq!(recs.len(), 16, "buffer capacity bounds insertions");
        assert_eq!(gpu.fault_buffer.overflow_drops(), 16);
        // Service what arrived, replay, and let the rest re-fault.
        let batch = gpu.fault_buffer.fetch(256, SimTime(u64::MAX / 2));
        gpu.map_pages(batch.iter().map(|f| f.page));
        gpu.flush();
        for (w, t) in replay(&mut gpu, SimTime(1_000_000)) {
            let _ = gpu.step_warp(w, t);
        }
        let recs2 = drain_records(&mut gpu);
        assert_eq!(recs2.len(), 16, "dropped accesses re-fault");
        let batch2 = gpu.fault_buffer.fetch(256, SimTime(u64::MAX / 2));
        gpu.map_pages(batch2.iter().map(|f| f.page));
        gpu.flush();
        for (w, t) in replay(&mut gpu, SimTime(2_000_000)) {
            let _ = gpu.step_warp(w, t);
        }
        assert!(gpu.all_done());
        assert_eq!(gpu.resident_pages(), 32);
    }

    #[test]
    fn reset_loses_state_but_replay_recovers_the_run() {
        // A reset destroys the buffered faults and μTLB tracking; the
        // subsequent (driver-issued) replay wakes the blocked warp and the
        // lost accesses re-fault — same recovery shape as overflow drops.
        let mut gpu = small_gpu();
        let prog = WarpProgram {
            instrs: vec![Instr::Load { pages: (0..32).map(PageNum).collect() }],
        };
        let a = gpu.launch(vec![prog]);
        let _ = gpu.step_warp(a[0], SimTime::ZERO);
        let recs = drain_records(&mut gpu);
        assert_eq!(recs.len(), 32);
        // Hardware loses everything before the driver fetched a single one.
        let dropped = gpu.reset(SimTime(500));
        assert_eq!(dropped, 32);
        assert_eq!(gpu.resets, 1);
        assert_eq!(gpu.fault_buffer.reset_losses(), 32);
        assert_eq!(gpu.utlb_reset_losses(), 32);
        assert_eq!(gpu.utlb_occupancy(gpu.warp(a[0]).utlb), 0);
        // Driver re-attaches and replays: the warp re-faults all 32 pages.
        for (w, t) in replay(&mut gpu, SimTime(1_000_000)) {
            let _ = gpu.step_warp(w, t);
        }
        let recs2 = drain_records(&mut gpu);
        assert_eq!(recs2.len(), 32, "lost accesses re-fault after replay");
        let batch = gpu.fault_buffer.fetch(256, SimTime(u64::MAX / 2));
        gpu.map_pages(batch.iter().map(|f| f.page));
        gpu.flush();
        for (w, t) in replay(&mut gpu, SimTime(2_000_000)) {
            let _ = gpu.step_warp(w, t);
        }
        assert!(gpu.all_done());
        assert_eq!(gpu.resident_pages(), 32);
    }

    #[test]
    fn delay_program_advances_time_without_faults() {
        let mut gpu = small_gpu();
        let prog = WarpProgram {
            instrs: vec![
                Instr::Delay(uvm_sim::time::SimDuration::from_micros(10)),
                Instr::load1(PageNum(1)),
                Instr::Delay(uvm_sim::time::SimDuration::from_micros(10)),
            ],
        };
        let a = gpu.launch(vec![prog]);
        // The load is non-blocking: both delays elapse, then the warp
        // blocks at program end waiting for its outstanding access.
        assert_eq!(gpu.step_warp(a[0], SimTime::ZERO), StepOutcome::Blocked);
        let recs = drain_records(&mut gpu);
        assert_eq!(recs.len(), 1);
        assert!(recs[0].arrival.as_nanos() >= 10_000, "first delay elapsed before the fault");
        gpu.map_pages([PageNum(1)]);
        gpu.flush();
        let woken = replay(&mut gpu, SimTime(100_000));
        match gpu.step_warp(woken[0].0, woken[0].1) {
            StepOutcome::Finished { at, .. } => {
                assert_eq!(at, SimTime(100_000), "all compute already ran pre-block")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "stepping warp")]
    fn stepping_blocked_warp_panics() {
        let mut gpu = small_gpu();
        let prog = WarpProgram {
            instrs: vec![Instr::Load { pages: vec![PageNum(1)] }],
        };
        let activated = gpu.launch(vec![prog]);
        // Warp blocks at end with outstanding fault.
        let _ = gpu.step_warp(activated[0], SimTime::ZERO);
        let _ = gpu.step_warp(activated[0], SimTime::ZERO);
    }
}
