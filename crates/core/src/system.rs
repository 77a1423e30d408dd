//! The full-system discrete-event simulation.
//!
//! [`UvmSystem::run`] executes one workload to completion, reproducing the
//! paper's end-to-end fault lifecycle:
//!
//! 1. warps issue accesses; misses deposit faults at their μTLB (bounded by
//!    the 56-entry outstanding limit);
//! 2. the GMMU arbitrates deposits round-robin into the fault buffer;
//! 3. the first arrival raises an interrupt that wakes the driver worker
//!    (interrupt + wake latency);
//! 4. the worker fetches up to `batch_limit` arrived faults and services
//!    the batch ([`uvm_driver::UvmDriver::service_batch_with`]);
//! 5. on completion it **flushes** the buffer (dropping everything that
//!    arrived during servicing) and issues a **replay**, which clears μTLB
//!    state and wakes all stalled warps; unserviced accesses re-fault;
//! 6. the worker sleeps until the next interrupt.
//!
//! The loop is fully deterministic: same config + workload → identical
//! batch logs, timings, and fault streams.
//!
//! ## Incremental execution and checkpoints
//!
//! The loop is exposed incrementally as well: [`UvmSystem::start`] yields a
//! [`RunInProgress`] whose [`RunInProgress::advance_batch`] runs the event
//! loop up to the next serviced batch. Between batches the *entire* mutable
//! state of the simulation — GPU, driver, host OS, event queue, RNG
//! streams, injectors — can be captured as a versioned
//! [`SystemSnapshot`] and later restored
//! into a new `RunInProgress` that continues bit-identically.
//! [`RunCtx::run`](crate::runctl::RunCtx::run) and [`UvmSystem::run`] and
//! friends are thin drivers over this interface, so batch-mode and
//! checkpointed executions traverse exactly the same code path.

use std::cell::OnceCell;

use serde::{Deserialize, Serialize};
use uvm_driver::advise::MemAdvise;
use uvm_driver::batch::{BatchRecord, FaultMeta};
use uvm_driver::service::{ServiceScratch, UvmDriver};
use uvm_gpu::device::{Gpu, StepOutcome};
use uvm_gpu::fault::FaultRecord;
use uvm_hostos::host::HostMemory;
use uvm_sim::bitmap::PageBitmap;
use uvm_sim::error::UvmError;
use uvm_sim::event::EventQueue;
use uvm_sim::inject::{InjectionPoint, Injector};
use uvm_sim::mem::{Allocation, PAGES_PER_VABLOCK};
use uvm_sim::time::{SimDuration, SimTime};
use uvm_workloads::workload::Workload;

use crate::config::SystemConfig;
use crate::snapshot::{check_version, SubsystemDigests, SystemSnapshot, SNAPSHOT_VERSION};

/// Safety valve: a run that schedules more events than this is considered
/// hung (it would correspond to billions of simulated faults).
const MAX_EVENTS: u64 = 200_000_000;

/// Outcome of one full-system run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Time from launch until the last warp finished (the paper's "Kernel"
    /// time).
    pub kernel_time: SimDuration,
    /// Sum of all batch service times (the paper's "Batch" time).
    pub total_batch_time: SimDuration,
    /// Number of serviced batches.
    pub num_batches: u64,
    /// Per-batch instrumentation records.
    pub records: Vec<BatchRecord>,
    /// Per-fault metadata (non-empty when `policy.log_fault_metadata`).
    pub fault_log: Vec<FaultMeta>,
    /// Fault replays issued.
    pub replays: u64,
    /// Faults dropped by pre-replay flushes.
    pub flush_drops: u64,
    /// Faults dropped by hardware buffer overflow.
    pub overflow_drops: u64,
    /// Total faults that reached the fault buffer.
    pub total_faults_inserted: u64,
    /// VABlock evictions performed: the batch log's capacity and
    /// emergency evictions summed.
    pub evictions: u64,
    /// `unmap_mapping_range` invocations.
    pub unmap_calls: u64,
    /// Upfront bulk-copy time (zero for UVM runs; set by
    /// [`UvmSystem::run_explicit`], the explicit-management baseline).
    pub upfront_copy_time: SimDuration,
    /// `(launch, completion)` span of each sequential kernel in the
    /// workload (one entry unless the workload declares kernel
    /// boundaries).
    pub kernel_spans: Vec<(SimTime, SimTime)>,
}

impl RunResult {
    /// Mean raw batch size.
    pub fn mean_batch_size(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.records.iter().map(|r| r.raw_faults).sum::<u64>() as f64
                / self.records.len() as f64
        }
    }

    /// Total bytes migrated host→device.
    pub fn total_bytes_migrated(&self) -> u64 {
        self.records.iter().map(|r| r.bytes_migrated).sum()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Event {
    /// Advance a warp.
    WarpStep(u32),
    /// The driver worker checks the fault buffer.
    DriverCheck,
    /// The in-flight batch finished servicing.
    BatchDone,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Worker {
    /// Asleep; will be woken by a fault arrival interrupt.
    Idle,
    /// A `DriverCheck` is scheduled for this instant. A new interrupt may
    /// supersede it with an earlier check; the later event is then stale
    /// and ignored when it fires.
    CheckScheduled(SimTime),
    /// Servicing a batch (`BatchDone` scheduled).
    Busy,
}

/// Memory-usage hints applied before a run: `cudaMemAdvise` per
/// allocation and explicit `cudaMemPrefetchAsync` calls executed before
/// the first kernel launch.
#[derive(Debug, Clone, Default)]
pub struct RunHints {
    /// Usage hints, applied to every VABlock of each allocation.
    pub advise: Vec<(Allocation, MemAdvise)>,
    /// Allocations to bulk-prefetch to the device before launch.
    pub prefetch: Vec<Allocation>,
}

/// The assembled system: GPU + driver + host OS. The config it was built
/// from is not kept: each setting lives in the subsystem that owns it, and
/// the run loop reads the policy, cost model and backend from the driver.
#[derive(Debug)]
pub struct UvmSystem {
    gpu: Gpu,
    driver: UvmDriver,
    host: HostMemory,
}

/// What one [`RunInProgress::advance_batch`] step accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// A fault batch was serviced; the value is the total number of
    /// batches serviced so far (i.e. the just-finished batch is number
    /// `n`, 1-based).
    Batch(u64),
    /// All kernels completed; call [`RunInProgress::into_result`].
    Finished,
}

/// Run-loop state: everything [`RunInProgress`] holds beyond the three
/// subsystem models. Captured as the `run` field of a [`SystemSnapshot`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunState {
    /// Virtual clock of the event queue (time of the last popped event).
    now: SimTime,
    /// The queue's monotone scheduling counter (FIFO tie-break state).
    seq: u64,
    /// Pending events with their original sequence numbers.
    entries: Vec<(SimTime, u64, Event)>,
    worker: Worker,
    kernel_spans: Vec<(SimTime, SimTime)>,
    events: u64,
    kernel_cursor: usize,
    current_kernel_start: Option<SimTime>,
    t0: SimTime,
}

/// A mid-flight system run: the event loop hoisted into a value, advanced
/// one serviced batch at a time.
///
/// Obtained from [`UvmSystem::start`] (a fresh run) or
/// [`RunInProgress::restore`] (continuing a checkpoint). The workload is
/// *not* owned — callers pass the same `&Workload` to every method, and a
/// restore validates the workload digest so state from one workload can
/// never silently continue under another.
#[derive(Debug)]
pub struct RunInProgress {
    system: UvmSystem,
    queue: EventQueue<Event>,
    worker: Worker,
    kernel_spans: Vec<(SimTime, SimTime)>,
    events: u64,
    /// Index of the next kernel (in `workload.kernels()` order) to launch.
    kernel_cursor: usize,
    /// Launch time of the kernel currently in flight, if any.
    current_kernel_start: Option<SimTime>,
    /// Earliest launch time for the first kernel (end of upfront
    /// prefetches).
    t0: SimTime,
    /// Reused batch-formation buffer (not run state; never snapshotted).
    batch_buf: Vec<FaultRecord>,
    /// Reused replay wake list (likewise pure scratch).
    woken: Vec<(u32, SimTime)>,
    /// Reused per-batch servicing working memory (likewise pure scratch).
    scratch: ServiceScratch,
    /// Digest of the run's workload, computed once: by the restore that
    /// verified it, or by the first snapshot.
    workload_digest: OnceCell<u64>,
}

impl UvmSystem {
    /// Assemble a system from a configuration. When the config carries an
    /// enabled fault plan, seeded injectors are wired into the subsystems
    /// that own each injection point; a disabled plan wires nothing and
    /// adds no cost or RNG draws.
    pub fn new(config: SystemConfig) -> Self {
        let mut gpu = Gpu::new_seeded(config.gpu.clone(), config.seed);
        let mut driver = UvmDriver::new(
            config.policy.clone(),
            config.cost.clone(),
            config.capacity_blocks(),
            config.seed,
        );
        let mut host = match &config.numa {
            Some(topo) => HostMemory::with_numa(topo.clone(), config.worker_core),
            None => HostMemory::new(),
        };
        if config.fault_plan.is_enabled() {
            let mut inj = Injector::new(&config.fault_plan, config.seed);
            gpu.fault_buffer
                .set_injector(inj.take(InjectionPoint::FaultBufferOverflow));
            host.set_injector(inj.take(InjectionPoint::HostPopulateFailure));
            driver.set_injectors(&mut inj);
        }
        // Multi-tenant client ledger: installed before the run starts so
        // every batch is attributed (a no-op with no clients configured).
        driver.install_clients(&config.tenancy);
        // Servicing backend: stock CpuDriver is a no-op install; the peer
        // kinds additionally size the owner directory off device capacity.
        driver.install_backend(config.backend);
        UvmSystem { gpu, driver, host }
    }

    /// Run `workload` to completion and return the instrumentation.
    ///
    /// # Panics
    ///
    /// Panics if the simulation exceeds its event budget (a hung workload —
    /// always a bug, never an expected outcome), or if the servicing
    /// pipeline fails unrecoverably (only possible with fault injection
    /// enabled — use [`Self::try_run`] to handle that as a value).
    pub fn run(self, workload: &Workload) -> RunResult {
        self.try_run(workload)
            .unwrap_or_else(|e| panic!("UVM servicing pipeline failed unrecoverably: {e}"))
    }

    /// Like [`Self::run`], but an unrecoverable pipeline failure returns
    /// the typed [`UvmError`] instead of panicking. Runs with default
    /// hints and never checkpoints or resumes
    /// ([`RunCtx::try_run`](crate::runctl::RunCtx::try_run) applies hints
    /// and does both).
    pub fn try_run(self, workload: &Workload) -> Result<RunResult, UvmError> {
        self.start(workload, &RunHints::default())?.run_to_end(workload, |_, _| {})
    }

    /// Begin an incremental run: apply allocations, CPU initialization,
    /// hints and upfront prefetches, launch the first kernel, and return
    /// the paused event loop. Drive it with
    /// [`RunInProgress::advance_batch`].
    pub fn start(
        mut self,
        workload: &Workload,
        hints: &RunHints,
    ) -> Result<RunInProgress, UvmError> {
        // Separates batch-id spaces when one trace covers several runs
        // (batch sequence numbers restart per driver instance).
        uvm_trace::emit_instant(0, || uvm_trace::TraceEvent::RunBegin {
            workload: workload.name.clone(),
        });

        // Register managed allocations, then replay CPU-side
        // initialization (first-touch mapping + host-data tracking).
        for alloc in &workload.allocations {
            self.driver.managed_alloc(*alloc);
        }
        for t in &workload.cpu_init {
            self.driver.cpu_touch(&mut self.host, t.first, t.pages, t.core, t.write);
        }
        for (alloc, advise) in &hints.advise {
            self.driver.set_advise(alloc, *advise);
        }

        // The oracle prefetcher needs the workload's future access list:
        // per VABlock, every page any program will touch. Built only when
        // the oracle is configured (other policies never consult it), and
        // installed before the first batch so snapshots carry it.
        if self.driver.policy().prefetch_policy == uvm_driver::PrefetchPolicyKind::Oracle {
            let mut future: std::collections::BTreeMap<_, uvm_sim::PageBitmap> =
                std::collections::BTreeMap::new();
            for page in workload.programs.iter().flat_map(|p| p.touched_pages()) {
                future.entry(page.va_block()).or_default().set(page.index_in_block());
            }
            self.driver.set_future_accesses(future);
        }

        // Explicit prefetches run (synchronously) before the first launch.
        let mut t0 = SimTime::ZERO;
        for alloc in &hints.prefetch {
            t0 = self.driver.prefetch_async(alloc, &mut self.gpu, &mut self.host, t0)?;
        }

        let mut run = RunInProgress {
            system: self,
            queue: EventQueue::with_capacity(workload.num_warps() * 2),
            worker: Worker::Idle,
            kernel_spans: Vec::new(),
            events: 0,
            kernel_cursor: 0,
            current_kernel_start: None,
            t0,
            batch_buf: Vec::new(),
            woken: Vec::new(),
            scratch: ServiceScratch::default(),
            workload_digest: OnceCell::new(),
        };
        run.launch_next_kernel(workload);
        Ok(run)
    }

    /// The explicit-management baseline (Fig. 1's comparison point): the
    /// programmer `cudaMemcpy`s every array to the device up front and the
    /// kernel runs fault-free. Kernel start is offset by the bulk-copy
    /// time; no faults, batches, or migrations occur.
    ///
    /// # Panics
    ///
    /// Panics if the workload does not fit in device memory (explicit
    /// management cannot oversubscribe).
    pub fn run_explicit(mut self, workload: &Workload) -> RunResult {
        assert!(
            workload.footprint_bytes() <= self.gpu.spec.memory_bytes,
            "explicit management cannot oversubscribe device memory"
        );
        let copy_time = self.driver.cost().h2d_time(workload.footprint_bytes());
        for alloc in &workload.allocations {
            let mut left = alloc.num_pages();
            for block in alloc.va_blocks() {
                let mut pages = PageBitmap::EMPTY;
                pages.set_range(0, left.min(PAGES_PER_VABLOCK) as usize);
                self.gpu.map_block(block, &pages);
                left -= left.min(PAGES_PER_VABLOCK);
            }
        }

        let mut queue: EventQueue<Event> = EventQueue::with_capacity(workload.num_warps() * 2);
        let start = SimTime::ZERO + copy_time;
        for wid in self.gpu.launch(workload.num_warps()) {
            queue.schedule(start, Event::WarpStep(wid));
        }
        while let Some((now, event)) = queue.pop() {
            match event {
                Event::WarpStep(wid) => match self.gpu.step_warp(&workload.programs, wid, now, self.driver.cost()) {
                    StepOutcome::Continue { at } => queue.schedule(at, Event::WarpStep(wid)),
                    StepOutcome::Blocked => unreachable!("no faults under explicit management"),
                    StepOutcome::Finished { at, activated } => {
                        if let Some(next) = activated {
                            queue.schedule(at, Event::WarpStep(next));
                        }
                    }
                },
                _ => unreachable!("no driver events under explicit management"),
            }
        }
        assert!(self.gpu.all_done());
        RunResult {
            workload: workload.name.clone(),
            kernel_time: self.gpu.kernel_end - start,
            total_batch_time: SimDuration::ZERO,
            num_batches: 0,
            records: Vec::new(),
            fault_log: Vec::new(),
            replays: 0,
            flush_drops: 0,
            overflow_drops: 0,
            total_faults_inserted: 0,
            evictions: 0,
            unmap_calls: 0,
            upfront_copy_time: copy_time,
            kernel_spans: vec![(start, self.gpu.kernel_end)],
        }
    }

    /// If the worker is asleep and faults are pending (deposited at the
    /// GMMU or already buffered), schedule its wake at the interrupt-path
    /// latency. Pending GMMU faults are *not* drained here: draining
    /// happens at fetch time so that μTLB queues that filled concurrently
    /// interleave round-robin, as the hardware write-port arbitration
    /// does.
    fn drain_and_wake(
        &mut self,
        queue: &mut EventQueue<Event>,
        worker: &mut Worker,
        now: SimTime,
    ) {
        if *worker == Worker::Busy {
            return;
        }
        let pending = self
            .gpu
            .gmmu
            .earliest_request()
            .map(|t| t + self.driver.cost().fault_insert_latency);
        let buffered = self.gpu.fault_buffer.earliest_arrival();
        let earliest = match (pending, buffered) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        if let Some(arrival) = earliest {
            // Wake latency is the backend's: the stock CPU driver pays the
            // host interrupt + worker wake path; a GPU-driven backend polls
            // its GPU-side queue instead and wakes in the poll interval.
            let wake = arrival.max(now) + self.driver.backend().wake_latency(self.driver.cost());
            // A new interrupt supersedes a later-scheduled check (the
            // hardware re-interrupts; the worker must not sleep through a
            // fresh fault because an old spurious one scheduled a far
            // wake). The superseded event becomes stale and is ignored.
            match *worker {
                Worker::Idle => {
                    *worker = Worker::CheckScheduled(wake);
                    queue.schedule(wake, Event::DriverCheck);
                }
                Worker::CheckScheduled(t) if wake < t => {
                    *worker = Worker::CheckScheduled(wake);
                    queue.schedule(wake, Event::DriverCheck);
                }
                _ => {}
            }
        }
    }
}

impl RunInProgress {
    /// Launch the next sequential kernel, if any. Kernels launch
    /// sequentially: each waits for the previous one to complete and for
    /// the driver to go idle (the implicit stream synchronization between
    /// dependent launches). The kernels' program ranges are contiguous and
    /// launch in order, so warp ids equal program indices.
    fn launch_next_kernel(&mut self, workload: &Workload) -> bool {
        let kernels = workload.kernels();
        if self.kernel_cursor >= kernels.len() {
            return false;
        }
        let range = kernels[self.kernel_cursor].clone();
        self.kernel_cursor += 1;
        let ordinal = (self.kernel_cursor - 1) as u64;
        let start = self.queue.now().max(self.t0);
        uvm_trace::emit_instant(start.0, || uvm_trace::TraceEvent::KernelLaunch {
            kernel: ordinal,
        });
        debug_assert_eq!(range.start, self.system.gpu.num_warps());
        for wid in self.system.gpu.launch(range.len()) {
            self.queue.schedule(start, Event::WarpStep(wid));
        }
        self.current_kernel_start = Some(start);
        true
    }

    /// Process events until the next fault batch has been serviced (its
    /// `BatchDone` is then pending in the queue) or the run finishes.
    /// `Err` aborts the run with the servicing pipeline's unrecoverable
    /// failure.
    pub fn advance_batch(&mut self, workload: &Workload) -> Result<Progress, UvmError> {
        loop {
            while let Some((now, event)) = self.queue.pop() {
                self.events += 1;
                assert!(
                    self.events <= MAX_EVENTS,
                    "simulation exceeded {MAX_EVENTS} events ({} warps done of {}, {} batches)",
                    self.system.gpu.warps_done(),
                    self.system.gpu.num_warps(),
                    self.system.driver.num_batches()
                );
                match event {
                    Event::WarpStep(wid) => {
                        match self.system.gpu.step_warp(
                            &workload.programs,
                            wid,
                            now,
                            self.system.driver.cost(),
                        ) {
                            StepOutcome::Continue { at } => {
                                self.queue.schedule(at, Event::WarpStep(wid))
                            }
                            StepOutcome::Blocked => {}
                            StepOutcome::Finished { at, activated } => {
                                if let Some(next) = activated {
                                    self.queue.schedule(at, Event::WarpStep(next));
                                }
                            }
                        }
                        self.system.drain_and_wake(&mut self.queue, &mut self.worker, now);
                    }
                    Event::DriverCheck => {
                        // Ignore stale checks superseded by an earlier wake
                        // or overtaken by a batch already in service.
                        if self.worker != Worker::CheckScheduled(now) {
                            continue;
                        }
                        self.worker = Worker::Idle;
                        self.system.gpu.drain_faults(self.system.driver.cost());
                        // The driver's read loop races with fault insertion:
                        // it keeps reading "until the batch size limit is
                        // reached or no faults remain in the buffer"
                        // (Sec. 2.2), and reading itself takes time during
                        // which more faults arrive. Model it as an iterative
                        // fetch whose deadline advances by the per-fault
                        // fetch cost.
                        let limit = self.system.driver.policy().batch_limit;
                        let batch = &mut self.batch_buf;
                        batch.clear();
                        let mut deadline = now;
                        loop {
                            let got = self.system.gpu.fault_buffer.fetch_into(
                                limit - batch.len(),
                                deadline,
                                batch,
                            );
                            if got == 0 {
                                break;
                            }
                            deadline += self.system.driver.cost().fetch_per_fault * got as u64;
                            if batch.len() >= limit {
                                break;
                            }
                        }
                        if batch.is_empty() {
                            // Entries exist but have not arrived yet:
                            // re-check at the earliest arrival.
                            if let Some(arr) = self.system.gpu.fault_buffer.earliest_arrival() {
                                let at = arr.max(now);
                                self.worker = Worker::CheckScheduled(at);
                                self.queue.schedule(at, Event::DriverCheck);
                            } else if self.system.gpu.blocked_warps() > 0
                                && self.system.gpu.gmmu.earliest_request().is_none()
                            {
                                // Every fault behind this interrupt was
                                // dropped by an injected overflow storm and
                                // nothing else is in flight. Real hardware
                                // can only drop when the buffer is *full*,
                                // so the stock driver always has a batch to
                                // service and its end-of-batch replay wakes
                                // the dropped accesses; here that batch
                                // never forms, and without intervention the
                                // blocked warps would never wake. Issue the
                                // overflow-recovery replay directly: the
                                // dropped accesses re-fault, exactly as they
                                // do after drops during a serviced batch.
                                let replay_done =
                                    now + self.system.driver.cost().replay_latency;
                                self.replay(replay_done);
                            }
                        } else {
                            let rec = self.system.driver.service_batch_with(
                                &self.batch_buf,
                                &mut self.system.gpu,
                                &mut self.system.host,
                                now,
                                &mut self.scratch,
                            )?;
                            let end = rec.end;
                            self.worker = Worker::Busy;
                            self.queue.schedule(end, Event::BatchDone);
                            // Pause between batches: this is the checkpoint
                            // boundary. All in-flight work is represented in
                            // the queue (the pending BatchDone) and the
                            // subsystem states, so a snapshot taken here
                            // captures a resumable instant.
                            return Ok(Progress::Batch(self.system.driver.num_batches()));
                        }
                    }
                    Event::BatchDone => {
                        debug_assert_eq!(self.worker, Worker::Busy);
                        self.worker = Worker::Idle;
                        // Flush the buffer (and in-flight GMMU entries),
                        // then replay: stalled warps wake once the replay
                        // reaches the GPU. (Flushing is the stock policy;
                        // the ablation keeps stale entries, which later
                        // batches then fetch.)
                        if self.system.driver.policy().flush_on_replay {
                            let dropped = self.system.gpu.flush();
                            uvm_trace::emit_instant(now.0, || {
                                uvm_trace::TraceEvent::BufferFlush { dropped }
                            });
                        }
                        let replay_done = now + self.system.driver.cost().replay_latency;
                        self.replay(replay_done);
                    }
                }
            }
            // Queue drained: the in-flight kernel (if any) completed.
            if let Some(start) = self.current_kernel_start.take() {
                self.kernel_spans.push((start, self.system.gpu.kernel_end));
                let ordinal = (self.kernel_spans.len() - 1) as u64;
                uvm_trace::emit_instant(self.system.gpu.kernel_end.0, || {
                    uvm_trace::TraceEvent::KernelComplete { kernel: ordinal }
                });
            }
            if !self.launch_next_kernel(workload) {
                return Ok(Progress::Finished);
            }
        }
    }

    /// Issue a fault replay that reaches the GPU at `at`, and schedule a
    /// step for every warp it wakes, as one wake run.
    fn replay(&mut self, at: SimTime) {
        self.system.gpu.replay(at, self.system.driver.cost(), &mut self.woken);
        self.queue
            .schedule_run(self.woken.iter().map(|&(wid, wake)| (wake, Event::WarpStep(wid))));
    }

    /// Drive the run to completion and produce its [`RunResult`], calling
    /// `after_batch(n, &self)` after serviced batch `n` (1-based).
    pub(crate) fn run_to_end(
        mut self,
        workload: &Workload,
        mut after_batch: impl FnMut(u64, &RunInProgress),
    ) -> Result<RunResult, UvmError> {
        while let Progress::Batch(n) = self.advance_batch(workload)? {
            after_batch(n, &self);
        }
        Ok(self.into_result(workload))
    }

    /// Number of batches serviced so far.
    pub fn batches(&self) -> u64 {
        self.system.driver.num_batches()
    }

    /// Read access to the driver mid-run (residency conservation checks in
    /// the invariant test layer).
    pub fn driver(&self) -> &UvmDriver {
        &self.system.driver
    }

    /// Read access to the GPU model mid-run (chaos-harness audits).
    pub fn gpu(&self) -> &Gpu {
        &self.system.gpu
    }

    /// Read access to the host-memory model mid-run (chaos-harness audits).
    pub fn host(&self) -> &HostMemory {
        &self.system.host
    }

    /// Finish the run: consume the paused loop and produce the
    /// [`RunResult`]. Call only after [`Self::advance_batch`] returned
    /// [`Progress::Finished`].
    ///
    /// # Panics
    ///
    /// Panics if warps are still unfinished (the run was not driven to
    /// completion).
    pub fn into_result(mut self, workload: &Workload) -> RunResult {
        assert!(
            self.system.gpu.all_done(),
            "event queue drained with {} of {} warps unfinished",
            self.system.gpu.num_warps() - self.system.gpu.warps_done(),
            self.system.gpu.num_warps()
        );
        RunResult {
            workload: workload.name.clone(),
            kernel_time: self.system.gpu.kernel_end - SimTime::ZERO,
            total_batch_time: self.system.driver.total_batch_time(),
            num_batches: self.system.driver.num_batches(),
            replays: self.system.gpu.replays,
            flush_drops: self.system.gpu.fault_buffer.flush_drops()
                + self.system.gpu.gmmu.flush_discards(),
            overflow_drops: self.system.gpu.fault_buffer.overflow_drops(),
            total_faults_inserted: self.system.gpu.fault_buffer.total_inserted(),
            evictions: self
                .system
                .driver
                .records
                .iter()
                .map(|r| r.evictions + r.emergency_evictions)
                .sum(),
            unmap_calls: self.system.host.unmap_calls(),
            records: std::mem::take(&mut self.system.driver.records),
            fault_log: std::mem::take(&mut self.system.driver.fault_log),
            upfront_copy_time: SimDuration::ZERO,
            kernel_spans: self.kernel_spans,
        }
    }

    /// The run-loop state (queue, worker, kernel progress) in its
    /// serialized form.
    fn run_state(&self) -> RunState {
        RunState {
            now: self.queue.now(),
            seq: self.queue.seq(),
            entries: self.queue.snapshot_entries(),
            worker: self.worker,
            kernel_spans: self.kernel_spans.clone(),
            events: self.events,
            kernel_cursor: self.kernel_cursor,
            current_kernel_start: self.current_kernel_start,
            t0: self.t0,
        }
    }

    /// Digests of the four serialized state values. Two runs whose
    /// digests agree after every batch are in bit-identical states; the
    /// first disagreeing digest names the subsystem that diverged.
    pub fn subsystem_digests(&self) -> SubsystemDigests {
        let UvmSystem { gpu, driver, host } = &self.system;
        SubsystemDigests::of(gpu, driver, host, &self.run_state())
    }

    /// Capture the complete system state as a versioned checkpoint.
    /// `run_key` identifies this run within its harness process (see
    /// [`crate::snapshot::run_key`]); pass 0 for standalone snapshots.
    pub fn snapshot(&self, workload: &Workload, run_key: u64) -> SystemSnapshot {
        let UvmSystem { gpu, driver, host } = &self.system;
        let run = self.run_state();
        SystemSnapshot {
            version: SNAPSHOT_VERSION,
            run_key,
            batches: self.batches(),
            workload_name: workload.name.clone(),
            workload_digest: *self.workload_digest.get_or_init(|| serde::digest(workload)),
            digests: SubsystemDigests::of(gpu, driver, host, &run),
            gpu: gpu.clone(),
            driver: driver.clone(),
            host: host.clone(),
            run,
            // Ring-tracer state rides along (outside the digests) so a
            // resumed run continues tracing without duplicating or
            // dropping events; `None` when tracing is off.
            trace: uvm_trace::snapshot_state(),
        }
    }

    /// Rebuild a paused run from a checkpoint. Validates the format
    /// version, the stored per-subsystem digests against the decoded state
    /// (integrity), that `workload` is byte-identical to the one the
    /// checkpoint was taken against, that the GPU's warps fit the programs
    /// of the kernels launched so far, that the host state is well formed
    /// ([`HostMemory::check`]), that the peer owner directory fits the VA
    /// space and its peers ([`uvm_driver::backend::PeerDirectory::check`]),
    /// and that the pending events fire no earlier than the clock, carry
    /// distinct sequence numbers below the queue's counter and step only
    /// launched warps; the restored run then
    /// continues exactly where the snapshotted one stopped, producing
    /// bit-identical results.
    pub fn restore(snap: &SystemSnapshot, workload: &Workload) -> Result<Self, UvmError> {
        check_version(snap.version)?;
        snap.verify_integrity()?;
        let workload_digest = serde::digest(workload);
        if workload_digest != snap.workload_digest {
            return Err(UvmError::SnapshotInvalid {
                detail: format!(
                    "checkpoint was taken against workload `{}` (digest {:#018x}), \
                     got digest {:#018x}",
                    snap.workload_name, snap.workload_digest, workload_digest
                ),
            });
        }
        // Warps index the workload's programs: a GPU whose warps do not fit
        // the kernels launched so far must fail here, not in a step.
        let kernels = workload.kernels();
        let launched = &kernels[..snap.run.kernel_cursor.min(kernels.len())];
        snap.gpu
            .check_programs(&workload.programs[..launched.last().map_or(0, |k| k.end)])
            .map_err(|detail| UvmError::SnapshotInvalid { detail })?;
        // Host state an unmap would panic on, or that no touch sequence
        // produces, must fail here too, and so must an owner directory
        // sized for another backend, naming a missing peer or block, or
        // overfilling a peer.
        snap.host.check().map_err(|detail| UvmError::SnapshotInvalid { detail })?;
        let driver = &snap.driver;
        let peers = driver.backend().peers();
        driver
            .peer_directory()
            .check(peers, &driver.va_space)
            .map_err(|detail| UvmError::SnapshotInvalid { detail })?;
        // Pending events: a warp step past the launched warps would index
        // out of bounds when it fires.
        let warps = snap.gpu.num_warps();
        if let Some(wid) = snap.run.entries.iter().find_map(|&(_, _, event)| match event {
            Event::WarpStep(wid) if wid as usize >= warps => Some(wid),
            _ => None,
        }) {
            return Err(UvmError::SnapshotInvalid {
                detail: format!("a pending event steps warp {wid}, but {warps} warps are launched"),
            });
        }
        let run = snap.run.clone();
        let queue = EventQueue::restore(run.now, run.seq, run.entries)
            .map_err(|detail| UvmError::SnapshotInvalid { detail })?;
        // Reinstate tracer state captured with the checkpoint. Restoring a
        // traced checkpoint with tracing disabled simply drops the buffered
        // events (the simulation itself is unaffected either way).
        if let Some(state) = &snap.trace {
            uvm_trace::restore_state(state.clone());
        }
        Ok(RunInProgress {
            system: UvmSystem {
                gpu: snap.gpu.clone(),
                driver: snap.driver.clone(),
                host: snap.host.clone(),
            },
            queue,
            worker: run.worker,
            kernel_spans: run.kernel_spans,
            events: run.events,
            kernel_cursor: run.kernel_cursor,
            current_kernel_start: run.current_kernel_start,
            t0: run.t0,
            batch_buf: Vec::new(),
            woken: Vec::new(),
            scratch: ServiceScratch::default(),
            workload_digest: OnceCell::from(workload_digest),
        })
    }

    /// Burn one draw from the driver's jitter RNG, modelling a bug that
    /// consumes randomness on one side of a lockstep pair. The chaos test
    /// `perturbed_driver_rng_is_caught_between_the_kills` applies it to a
    /// torture run. See [`uvm_driver::service::UvmDriver::perturb_rng`].
    pub fn perturb_driver_rng(&mut self) {
        self.system.driver.perturb_rng();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvm_driver::policy::DriverPolicy;
    use uvm_workloads::cpu_init::CpuInitPolicy;
    use uvm_workloads::stream::{self, StreamParams};
    use uvm_workloads::vecadd::{self, VecAddParams};

    const MB: u64 = 1024 * 1024;

    #[test]
    fn vecadd_reproduces_fig3_batching() {
        let config = SystemConfig::test_small(64 * MB);
        let result = UvmSystem::new(config).run(&vecadd::build(VecAddParams::default()));
        // Fig. 3: first batch is the 56-fault μTLB fill (all A reads, most
        // B reads); the second is the remaining 8 B reads.
        assert_eq!(result.records[0].raw_faults, 56);
        assert_eq!(result.records[0].write_faults, 0);
        assert_eq!(result.records[1].raw_faults, 8);
        // Writes appear only from the third batch on.
        assert!(result.records[2].write_faults > 0);
        // 288 distinct pages must all migrate eventually.
        let migrated: u64 = result.records.iter().map(|r| r.pages_migrated).sum();
        assert_eq!(migrated, 288);
        assert!(result.num_batches >= 5);
        assert_eq!(result.overflow_drops, 0);
    }

    #[test]
    fn run_is_deterministic() {
        let w = stream::build(StreamParams {
            warps: 16,
            pages_per_warp: 8,
            iters: 1,
            warps_per_page: 1,
            cpu_init: Some(CpuInitPolicy::SingleThread),
        });
        let r1 = UvmSystem::new(SystemConfig::test_small(64 * MB)).run(&w);
        let r2 = UvmSystem::new(SystemConfig::test_small(64 * MB)).run(&w);
        assert_eq!(r1.kernel_time, r2.kernel_time);
        assert_eq!(r1.num_batches, r2.num_batches);
        let t1: Vec<_> = r1.records.iter().map(|r| (r.start, r.raw_faults)).collect();
        let t2: Vec<_> = r2.records.iter().map(|r| (r.start, r.raw_faults)).collect();
        assert_eq!(t1, t2);
    }

    #[test]
    fn different_seed_changes_timings_not_faults() {
        let w = stream::build(StreamParams {
            warps: 16,
            pages_per_warp: 8,
            iters: 1,
            warps_per_page: 1,
            cpu_init: None,
        });
        let r1 = UvmSystem::new(SystemConfig::test_small(64 * MB).with_seed(1)).run(&w);
        let r2 = UvmSystem::new(SystemConfig::test_small(64 * MB).with_seed(2)).run(&w);
        let migrated1: u64 = r1.records.iter().map(|r| r.pages_migrated).sum();
        let migrated2: u64 = r2.records.iter().map(|r| r.pages_migrated).sum();
        assert_eq!(migrated1, migrated2, "page coverage is seed-independent");
        assert_ne!(
            r1.kernel_time, r2.kernel_time,
            "service jitter differs across seeds"
        );
    }

    #[test]
    fn stream_covers_all_pages_and_finishes() {
        let w = stream::build(StreamParams {
            warps: 32,
            pages_per_warp: 16,
            iters: 1,
            warps_per_page: 1,
            cpu_init: Some(CpuInitPolicy::SingleThread),
        });
        let total_pages = w.footprint_pages();
        let result = UvmSystem::new(SystemConfig::test_small(64 * MB)).run(&w);
        let migrated: u64 = result.records.iter().map(|r| r.pages_migrated).sum();
        assert_eq!(migrated, total_pages, "every page of a/b/c migrates exactly once");
        assert!(result.kernel_time > SimDuration::ZERO);
        assert!(result.total_batch_time > SimDuration::ZERO);
        assert!(
            result.total_batch_time < result.kernel_time,
            "batch time is a subset of kernel time"
        );
        // a and b had CPU data (transferred); c was populate-only.
        assert_eq!(result.total_bytes_migrated(), 2 * total_pages / 3 * 4096);
    }

    #[test]
    fn oversubscription_triggers_evictions() {
        // 16 MiB GPU (8 blocks) and a ~24 MiB workload.
        let w = stream::build(StreamParams {
            warps: 32,
            pages_per_warp: 64,
            iters: 1,
            warps_per_page: 1,
            cpu_init: Some(CpuInitPolicy::SingleThread),
        });
        assert!(w.footprint_bytes() > 16 * MB);
        let result = UvmSystem::new(SystemConfig::test_small(16 * MB)).run(&w);
        assert!(result.evictions > 0, "oversubscribed run must evict");
        assert!(result.records.iter().any(|r| r.evictions > 0));
    }

    #[test]
    fn prefetch_reduces_batches() {
        let mk = || {
            stream::build(StreamParams {
                warps: 32,
                pages_per_warp: 32,
                iters: 1,
                warps_per_page: 1,
                cpu_init: Some(CpuInitPolicy::SingleThread),
            })
        };
        let base = UvmSystem::new(SystemConfig::test_small(256 * MB)).run(&mk());
        let pf = UvmSystem::new(
            SystemConfig::test_small(256 * MB).with_policy(DriverPolicy::with_prefetch()),
        )
        .run(&mk());
        assert!(
            pf.num_batches * 2 < base.num_batches,
            "prefetch should cut batches sharply: {} vs {}",
            pf.num_batches,
            base.num_batches
        );
        assert!(pf.kernel_time < base.kernel_time, "prefetch speeds up the kernel");
        assert!(pf.records.iter().map(|r| r.prefetched_pages).sum::<u64>() > 0);
    }

    #[test]
    fn flush_drops_occur_with_concurrent_warps() {
        // With a batch limit well below the per-cycle fault supply, each
        // fetch leaves arrivals in the buffer, and the pre-replay flush
        // must drop them (paper Sec. 4.2) — the dropped non-duplicates
        // re-fault and still complete.
        let w = stream::build(StreamParams {
            warps: 512,
            pages_per_warp: 4,
            iters: 1,
            warps_per_page: 1,
            cpu_init: None,
        });
        let config = SystemConfig::test_small(64 * MB)
            .with_policy(DriverPolicy::default().batch_limit(64));
        let result = UvmSystem::new(config).run(&w);
        assert!(result.flush_drops > 0, "expected flush-dropped faults");
        // Dropped non-duplicates re-fault and still get serviced.
        let migrated: u64 = result.records.iter().map(|r| r.pages_migrated).sum();
        assert_eq!(migrated, w.footprint_pages());
    }

    /// Two sequential kernels: kernel 1 streams a -> c; kernel 2 re-reads c
    /// (warm) and writes d.
    fn pipeline_workload() -> Workload {
        let mut b = uvm_workloads::workload::Workload::builder("pipeline");
        let a = b.alloc(32 * 4096);
        let c = b.alloc(32 * 4096);
        let d = b.alloc(32 * 4096);
        for w in 0..4u64 {
            let mut p = uvm_gpu::isa::WarpProgram::new();
            for i in 0..8u64 {
                p.load([a.page(w * 8 + i)]).store([c.page(w * 8 + i)]);
            }
            b.warp(p);
        }
        b.end_kernel();
        for w in 0..4u64 {
            let mut p = uvm_gpu::isa::WarpProgram::new();
            for i in 0..8u64 {
                p.load([c.page(w * 8 + i)]).store([d.page(w * 8 + i)]);
            }
            b.warp(p);
        }
        b.build()
    }

    #[test]
    fn sequential_kernels_synchronize_and_reuse_residency() {
        // Kernel 1 streams a+b -> c; kernel 2 re-reads c (warm) and writes d.
        let w = pipeline_workload();
        let result = UvmSystem::new(SystemConfig::test_small(64 * MB)).run(&w);

        assert_eq!(result.kernel_spans.len(), 2);
        let (s1, e1) = result.kernel_spans[0];
        let (s2, e2) = result.kernel_spans[1];
        assert!(s2 >= e1, "kernel 2 launches only after kernel 1 completes");
        assert!(e2 >= e1);
        assert_eq!(s1, uvm_sim::time::SimTime::ZERO);
        // Kernel 2 re-reads c without faulting: total migrations = a+c+d.
        let migrated: u64 = result.records.iter().map(|r| r.pages_migrated).sum();
        assert_eq!(migrated, 3 * 32);
        // No fault for c pages in kernel-2 batches (those after e1).
        let k2_migrations: u64 = result
            .records
            .iter()
            .filter(|r| r.start >= e1)
            .map(|r| r.pages_migrated)
            .sum();
        assert_eq!(k2_migrations, 32, "kernel 2 migrates only d");
    }

    #[test]
    fn numa_topology_inflates_cross_node_unmap() {
        use uvm_hostos::numa::NumaTopology;
        // Same striped-init workload; worker on core 0. Remote-node
        // mappers make the NUMA host's unmap strictly costlier.
        let mk = || {
            stream::build(StreamParams {
                warps: 32,
                pages_per_warp: 16,
                iters: 1,
                warps_per_page: 1,
                cpu_init: Some(CpuInitPolicy::Striped { threads: 32 }),
            })
        };
        let unmap_of = |numa: Option<NumaTopology>| {
            let mut config = SystemConfig::test_small(64 * MB);
            config.numa = numa;
            let r = UvmSystem::new(config).run(&mk());
            r.records.iter().map(|b| b.t_unmap.as_nanos()).sum::<u64>()
        };
        let uniform = unmap_of(None);
        let numa = unmap_of(Some(NumaTopology::epyc_7551p()));
        assert!(
            numa > uniform,
            "cross-node mappers inflate unmap: {numa} <= {uniform}"
        );
        assert!((numa as f64) < uniform as f64 * 2.0, "bounded by the distance matrix");
    }

    #[test]
    fn injected_run_recovers_and_is_seed_deterministic() -> Result<(), UvmError> {
        use uvm_sim::inject::FaultPlan;
        let mk_w = || {
            stream::build(StreamParams {
                warps: 32,
                pages_per_warp: 16,
                iters: 1,
                warps_per_page: 1,
                cpu_init: Some(CpuInitPolicy::SingleThread),
            })
        };
        let mk_c = || {
            SystemConfig::test_small(64 * MB)
                .with_policy(DriverPolicy::default().audited(true))
                .with_fault_plan(FaultPlan::uniform(0.05))
        };
        let r1 = UvmSystem::new(mk_c()).try_run(&mk_w())?;
        let r2 = UvmSystem::new(mk_c()).try_run(&mk_w())?;
        let injected: u64 = r1.records.iter().map(|r| r.injected_faults).sum();
        let retries: u64 = r1.records.iter().map(|r| r.retries).sum();
        assert!(injected > 0, "a 5% rate must fire across a whole run");
        assert!(retries > 0, "transient failures must be retried");
        // Every page still ends up served (migrated or remote) despite
        // injection: the run completed, so all warps finished.
        assert_eq!(
            serde_json::to_string(&r1.records).expect("records serialize"),
            serde_json::to_string(&r2.records).expect("records serialize"),
            "same seed + same plan = byte-identical record streams"
        );
        Ok(())
    }

    #[test]
    fn disabled_plan_matches_baseline_run_exactly() {
        use uvm_sim::inject::FaultPlan;
        let mk_w = || {
            stream::build(StreamParams {
                warps: 16,
                pages_per_warp: 8,
                iters: 1,
                warps_per_page: 1,
                cpu_init: Some(CpuInitPolicy::SingleThread),
            })
        };
        let base = UvmSystem::new(SystemConfig::test_small(64 * MB)).run(&mk_w());
        let off = UvmSystem::new(
            SystemConfig::test_small(64 * MB).with_fault_plan(FaultPlan::none()),
        )
        .run(&mk_w());
        assert_eq!(base.kernel_time, off.kernel_time);
        assert_eq!(
            serde_json::to_string(&base.records).expect("records serialize"),
            serde_json::to_string(&off.records).expect("records serialize"),
            "a disabled plan must not perturb the baseline"
        );
    }

    #[test]
    fn audited_baseline_run_passes_all_invariants() {
        // The auditor runs after every batch and any violation would turn
        // into an Err; a clean baseline run proves the pipeline keeps the
        // four state holders consistent.
        let w = stream::build(StreamParams {
            warps: 32,
            pages_per_warp: 64,
            iters: 1,
            warps_per_page: 1,
            cpu_init: Some(CpuInitPolicy::SingleThread),
        });
        // Oversubscribed so evictions are exercised too.
        let config = SystemConfig::test_small(16 * MB)
            .with_policy(DriverPolicy::default().audited(true));
        let r = UvmSystem::new(config).try_run(&w).expect("audited run stays consistent");
        assert!(r.evictions > 0);
    }

    #[test]
    fn fault_metadata_collected_when_requested() {
        let config = SystemConfig::test_small(64 * MB)
            .with_policy(DriverPolicy::default().log_faults(true));
        let result = UvmSystem::new(config).run(&vecadd::build(VecAddParams::default()));
        assert!(!result.fault_log.is_empty());
        assert_eq!(
            result.fault_log.len() as u64,
            result.records.iter().map(|r| r.raw_faults).sum::<u64>()
        );
        // Arrival timestamps are monotone within a batch (Fig. 4).
        for pair in result.fault_log.windows(2) {
            if pair[0].batch_seq == pair[1].batch_seq {
                assert!(pair[0].arrival <= pair[1].arrival);
            }
        }
    }

    // ---- checkpoint / restore ----

    fn ckpt_workload() -> Workload {
        stream::build(StreamParams {
            warps: 32,
            pages_per_warp: 16,
            iters: 1,
            warps_per_page: 1,
            cpu_init: Some(CpuInitPolicy::Striped { threads: 8 }),
        })
    }

    fn result_json(r: &RunResult) -> String {
        serde_json::to_string(r).expect("run result serializes")
    }

    #[test]
    fn incremental_run_matches_monolithic_run() -> Result<(), UvmError> {
        let w = ckpt_workload();
        let straight = UvmSystem::new(SystemConfig::test_small(16 * MB)).run(&w);
        let mut run =
            UvmSystem::new(SystemConfig::test_small(16 * MB)).start(&w, &RunHints::default())?;
        while run.advance_batch(&w)? != Progress::Finished {}
        let stepped = run.into_result(&w);
        assert_eq!(result_json(&straight), result_json(&stepped));
        Ok(())
    }

    #[test]
    fn snapshot_restore_continues_bit_identically() -> Result<(), UvmError> {
        let w = ckpt_workload();
        let straight = UvmSystem::new(SystemConfig::test_small(16 * MB)).run(&w);

        let mut run =
            UvmSystem::new(SystemConfig::test_small(16 * MB)).start(&w, &RunHints::default())?;
        // Advance past a few batches, snapshot, and throw the original away.
        for _ in 0..5 {
            assert!(matches!(run.advance_batch(&w)?, Progress::Batch(_)));
        }
        let snap = run.snapshot(&w, 0);
        assert_eq!(snap.batches, 5);
        drop(run);

        let mut resumed = RunInProgress::restore(&snap, &w)?;
        while resumed.advance_batch(&w)? != Progress::Finished {}
        let result = resumed.into_result(&w);
        assert_eq!(
            result_json(&straight),
            result_json(&result),
            "restored run must be byte-identical to the uninterrupted run"
        );
        Ok(())
    }

    #[test]
    fn snapshot_round_trips_through_json() -> Result<(), UvmError> {
        let w = ckpt_workload();
        let mut run =
            UvmSystem::new(SystemConfig::test_small(16 * MB)).start(&w, &RunHints::default())?;
        for _ in 0..3 {
            run.advance_batch(&w)?;
        }
        let snap = run.snapshot(&w, 42);
        let json = serde_json::to_string(&snap).expect("snapshot serializes");
        let back: SystemSnapshot = serde_json::from_str(&json).expect("snapshot deserializes");
        assert_eq!(back.run_key, 42);
        assert_eq!(back.digests, snap.digests);
        back.verify_integrity()?;
        // The restored instance digests identically to the live one.
        let restored = RunInProgress::restore(&back, &w)?;
        assert_eq!(restored.subsystem_digests(), run.subsystem_digests());
        Ok(())
    }

    #[test]
    fn restore_rejects_wrong_workload_and_version() -> Result<(), UvmError> {
        let w = ckpt_workload();
        let mut run =
            UvmSystem::new(SystemConfig::test_small(16 * MB)).start(&w, &RunHints::default())?;
        run.advance_batch(&w)?;
        let snap = run.snapshot(&w, 0);

        // A different workload must be rejected by digest.
        let other = vecadd::build(VecAddParams::default());
        let err =
            RunInProgress::restore(&snap, &other).expect_err("wrong workload must be rejected");
        assert!(matches!(err, UvmError::SnapshotInvalid { .. }));

        // A future format version must be rejected.
        let mut wrong = snap.clone();
        wrong.version += 1;
        let err =
            RunInProgress::restore(&wrong, &w).expect_err("future version must be rejected");
        assert!(matches!(err, UvmError::SnapshotInvalid { .. }));

        // So must a previous one, by its version and not by the integrity
        // check: its stored digests came from that version's digest.
        let mut old = snap.clone();
        old.version = SNAPSHOT_VERSION - 1;
        old.digests.gpu ^= 1;
        let err = RunInProgress::restore(&old, &w).expect_err("old version must be rejected");
        let want = format!("format version {}", SNAPSHOT_VERSION - 1);
        assert!(err.to_string().contains(&want), "got: {err}");

        // A snapshot whose GPU JSON was edited still decodes, but must fail
        // the integrity check and name the subsystem.
        let json = serde_json::to_string(&snap).expect("snapshot encodes");
        assert_eq!(json.matches("\"replays\":").count(), 1, "one GPU replay counter");
        let json = json.replacen("\"replays\":", "\"replays\":9", 1);
        let tampered: SystemSnapshot = serde_json::from_str(&json).expect("edited snapshot decodes");
        let err =
            RunInProgress::restore(&tampered, &w).expect_err("tampered state must be rejected");
        assert!(matches!(err, UvmError::SnapshotInvalid { .. }));
        assert!(err.to_string().contains("[gpu]"), "got: {err}");
        Ok(())
    }

    #[test]
    fn snapshot_restore_preserves_injected_run() -> Result<(), UvmError> {
        use uvm_sim::inject::FaultPlan;
        // Injection exercises every serialized RNG stream and injector:
        // a restored run must replay the identical failure schedule.
        let w = ckpt_workload();
        let mk_c = || {
            SystemConfig::test_small(16 * MB).with_fault_plan(FaultPlan::uniform(0.05))
        };
        let straight = UvmSystem::new(mk_c()).try_run(&w)?;

        let mut run = UvmSystem::new(mk_c()).start(&w, &RunHints::default())?;
        for _ in 0..7 {
            assert!(matches!(run.advance_batch(&w)?, Progress::Batch(_)));
        }
        let snap = run.snapshot(&w, 0);
        let mut resumed = RunInProgress::restore(&snap, &w)?;
        while resumed.advance_batch(&w)? != Progress::Finished {}
        let result = resumed.into_result(&w);
        assert_eq!(result_json(&straight), result_json(&result));
        Ok(())
    }

    // ---- warps run the workload's programs in place ----

    /// Drive `config` over `w` until `pause` holds after a batch, take a
    /// snapshot there, round-trip it through JSON, restore it and finish:
    /// the result must be byte-identical to the uninterrupted run.
    fn json_restore_matches_straight_run(
        config: SystemConfig,
        w: &Workload,
        pause: impl Fn(&RunInProgress) -> bool,
    ) -> Result<(), UvmError> {
        let straight = UvmSystem::new(config.clone()).run(w);
        let mut run = UvmSystem::new(config).start(w, &RunHints::default())?;
        while !pause(&run) {
            assert!(
                matches!(run.advance_batch(w)?, Progress::Batch(_)),
                "{}: the run finished before its pause point",
                w.name
            );
        }
        let json = serde_json::to_string(&run.snapshot(w, 0)).expect("snapshot encodes");
        drop(run);
        let back: SystemSnapshot = serde_json::from_str(&json).expect("snapshot decodes");
        let mut resumed = RunInProgress::restore(&back, w)?;
        while resumed.advance_batch(w)? != Progress::Finished {}
        assert_eq!(result_json(&straight), result_json(&resumed.into_result(w)), "{}", w.name);
        Ok(())
    }

    #[test]
    fn restore_mid_second_kernel_runs_the_second_kernels_programs() -> Result<(), UvmError> {
        // Warps 4..8 run programs 4..8: the second kernel's, launched onto
        // the ids after the first kernel's four warps.
        let w = pipeline_workload();
        assert_eq!(w.kernels(), vec![0..4, 4..8]);
        json_restore_matches_straight_run(SystemConfig::test_small(64 * MB), &w, |run| {
            // Kernel 1's warps are done, and kernel 2 has faulted for three
            // batches and is still running.
            run.kernel_cursor == 2 && run.batches() >= 12 && !run.gpu().all_done()
        })
    }

    #[test]
    fn restore_mid_run_of_a_composed_workload() -> Result<(), UvmError> {
        use crate::tenancy::{compose, ClientSpec};
        use uvm_driver::clients::FairnessPolicy;
        let client = |warps| {
            stream::build(StreamParams {
                warps,
                pages_per_warp: 8,
                iters: 1,
                warps_per_page: 1,
                cpu_init: Some(CpuInitPolicy::SingleThread),
            })
        };
        let (w, tenancy) = compose(
            &[ClientSpec::new("a", client(24)), ClientSpec::new("b", client(8)).with_weight(2)],
            FairnessPolicy::RoundRobin,
        );
        let config = SystemConfig::test_small(16 * MB).with_tenancy(tenancy);
        json_restore_matches_straight_run(config, &w, |run| run.batches() >= 6)
    }

    #[test]
    fn restore_mid_instruction_with_refaults_queued() -> Result<(), UvmError> {
        use serde::Serialize;
        // The non-coalesced vecadd: 32 pages per instruction, so a μTLB
        // stall falls partway through one. Four warps share each μTLB, and
        // a 32-fault batch limit leaves most of a batch's faults to the
        // flush, so a woken warp re-faults them into a μTLB the other
        // warps have filled, and stalls mid-instruction with refaults
        // still queued.
        let w = vecadd::build(VecAddParams { warps: 16, ..VecAddParams::default() });
        let policy = DriverPolicy { batch_limit: 32, ..DriverPolicy::default() };
        let mid_instruction_with_refaults = |run: &RunInProgress| {
            let mut gpu = run.gpu().to_value();
            let paused = warps(&mut gpu).iter_mut().any(|warp| {
                let issued = matches!(field(warp, "issued"), serde::Value::NumU(n) if *n > 0);
                let refaults = matches!(field(warp, "refault"), serde::Value::Array(a) if !a.is_empty());
                issued && refaults
            });
            run.batches() >= 1 && paused
        };
        let config = SystemConfig::test_small(16 * MB).with_policy(policy);
        json_restore_matches_straight_run(config, &w, mid_instruction_with_refaults)
    }

    #[test]
    fn snapshots_hold_program_counters_not_programs() -> Result<(), UvmError> {
        let w = ckpt_workload();
        let mut run =
            UvmSystem::new(SystemConfig::test_small(16 * MB)).start(&w, &RunHints::default())?;
        for _ in 0..3 {
            run.advance_batch(&w)?;
        }
        let json = serde_json::to_string(&run.snapshot(&w, 0)).expect("snapshot encodes");
        assert!(!json.contains("\"instrs\""), "a snapshot copies no instruction stream");
        assert_eq!(json.matches("\"pc\":").count(), w.num_warps(), "one pc per warp");
        Ok(())
    }

    /// `v`'s field `key`.
    fn field<'a>(v: &'a mut serde::Value, key: &str) -> &'a mut serde::Value {
        let serde::Value::Object(fields) = v else { panic!("`{key}`'s parent is an object") };
        fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v).expect("field present")
    }

    /// The `warps` array of a GPU's JSON tree.
    fn warps(gpu: &mut serde::Value) -> &mut Vec<serde::Value> {
        let serde::Value::Array(warps) = field(gpu, "warps") else {
            panic!("warps are an array")
        };
        warps
    }

    /// A snapshot of `w` after `batches` batches with its `part` ("gpu",
    /// "driver", "host" or "run") edited through the JSON tree by `edit`, and its
    /// digests recomputed so the integrity check passes.
    fn edited_snapshot(
        w: &Workload,
        batches: u64,
        part: &str,
        edit: impl FnOnce(&mut serde::Value),
    ) -> Result<SystemSnapshot, UvmError> {
        edited_snapshot_of(SystemConfig::test_small(16 * MB), w, batches, part, edit)
    }

    /// [`edited_snapshot`] of a run under `config`.
    fn edited_snapshot_of(
        config: SystemConfig,
        w: &Workload,
        batches: u64,
        part: &str,
        edit: impl FnOnce(&mut serde::Value),
    ) -> Result<SystemSnapshot, UvmError> {
        let mut run = UvmSystem::new(config).start(w, &RunHints::default())?;
        for _ in 0..batches {
            run.advance_batch(w)?;
        }
        let mut tree = serde_json::parse(
            &serde_json::to_string(&run.snapshot(w, 0)).expect("snapshot encodes"),
        )
        .expect("snapshot parses");
        edit(field(&mut tree, part));
        let mut snap = SystemSnapshot::from_value(&tree).expect("edited snapshot decodes");
        snap.digests = SubsystemDigests::of(&snap.gpu, &snap.driver, &snap.host, &snap.run);
        snap.verify_integrity()?;
        Ok(snap)
    }

    #[test]
    fn restore_rejects_warps_that_do_not_fit_the_workload() -> Result<(), UvmError> {
        use serde::Value;
        let w = ckpt_workload();
        let rejects = |snap: SystemSnapshot, want: &str| {
            let err = RunInProgress::restore(&snap, &w).expect_err("edited GPU must be rejected");
            assert!(matches!(err, UvmError::SnapshotInvalid { .. }), "{err}");
            assert!(err.to_string().contains(want), "got: {err}");
        };
        // One warp fewer than the launched kernel has programs.
        rejects(
            edited_snapshot(&w, 1, "gpu", |gpu| drop(warps(gpu).pop()))?,
            &format!("{} warps launched, but the launched kernels have {} programs",
                w.num_warps() - 1, w.num_warps()),
        );
        // A program counter one past its program's end.
        let len = w.programs[3].len();
        rejects(
            edited_snapshot(&w, 1, "gpu", |gpu| {
                *field(&mut warps(gpu)[3], "pc") = Value::NumU(len as u64 + 1);
            })?,
            &format!("warp 3 is at instruction {} of a {len}-instruction program", len + 1),
        );
        // An issue count past the current instruction's pages.
        rejects(
            edited_snapshot(&w, 1, "gpu", |gpu| {
                let warp = &mut warps(gpu)[3];
                *field(warp, "pc") = Value::NumU(1);
                *field(warp, "issued") = Value::NumU(2);
            })?,
            "warp 3 has issued 2 pages of a 1-page instruction",
        );
        // A GMMU with fewer queues than the spec has μTLBs (deposits index
        // the queues by μTLB).
        rejects(
            edited_snapshot(&w, 1, "gpu", |gpu| {
                let serde::Value::Array(queues) = field(field(gpu, "gmmu"), "queues") else {
                    panic!("GMMU queues are an array")
                };
                queues.truncate(1);
                *field(field(gpu, "gmmu"), "cursor") = Value::NumU(0);
            })?,
            "the device has 8 SM queues, 4 μTLBs and 1 GMMU queues",
        );
        // A spec with no SMs per μTLB places no warp (and divides by zero
        // if unchecked).
        rejects(
            edited_snapshot(&w, 1, "gpu", |gpu| *field(field(gpu, "spec"), "sms_per_utlb") = Value::NumU(0))?,
            "the spec places warps on 8 SMs at 0 per μTLB, but the device has 8 SM queues, 4 μTLBs \
             and 4 GMMU queues",
        );
        // The unedited tree restores.
        RunInProgress::restore(&edited_snapshot(&w, 1, "gpu", |_| {})?, &w)?;
        Ok(())
    }

    /// The first `(id, record)` of a host tree's block list, which holds
    /// `[id, record]` pairs in id order.
    fn first_block(host: &mut serde::Value) -> (u64, &mut serde::Value) {
        let serde::Value::Array(blocks) = field(host, "blocks") else { panic!("blocks are a list") };
        let Some(serde::Value::Array(pair)) = blocks.first_mut() else {
            panic!("the run has a CPU-mapped block")
        };
        let [serde::Value::NumU(id), record] = pair.as_mut_slice() else {
            panic!("a block is an [id, record] pair")
        };
        (*id, record)
    }

    #[test]
    fn restore_rejects_malformed_host_state() -> Result<(), UvmError> {
        use serde::Value;
        let w = ckpt_workload();
        let rejects = |edit: &dyn Fn(&mut Value), want: &str| -> Result<(), UvmError> {
            // Before the first batch, while the CPU still maps every block.
            let snap = edited_snapshot(&w, 0, "host", edit)?;
            let err = RunInProgress::restore(&snap, &w).expect_err("edited host must be rejected");
            assert!(matches!(err, UvmError::SnapshotInvalid { .. }), "{err}");
            assert!(err.to_string().contains(want), "got: {err}");
            Ok(())
        };
        // NUMA topologies that would divide by zero or index out of bounds
        // at the first unmap with a mapper.
        let numa = |json: &'static str| {
            move |host: &mut Value| {
                *field(host, "numa") = serde_json::parse(json).expect("topology parses");
            }
        };
        rejects(&numa(r#"{"nodes":0,"cores_per_node":8,"distances":[]}"#), "0 node(s) of 8 core(s)")?;
        rejects(&numa(r#"{"nodes":1,"cores_per_node":0,"distances":[10]}"#), "1 node(s) of 0 core(s)")?;
        rejects(
            &numa(r#"{"nodes":2,"cores_per_node":8,"distances":[10,16,10]}"#),
            "3 distance(s); it needs at least one of each and 4 distances",
        )?;
        // Block records that no touch sequence produces.
        let bitmap = |word0: u64| {
            let mut words = vec![Value::NumU(0); 8];
            words[0] = Value::NumU(word0);
            Value::Object(vec![("words".into(), Value::Array(words))])
        };
        let mut id = 0;
        RunInProgress::restore(&edited_snapshot(&w, 0, "host", |host| id = first_block(host).0)?, &w)?;
        rejects(
            &|host| {
                let (_, record) = first_block(host);
                *field(record, "mapped") = bitmap(0);
                *field(record, "dirty") = bitmap(0);
            },
            &format!("host block {id} has no mapped page"),
        )?;
        rejects(
            &|host| {
                let (_, record) = first_block(host);
                *field(record, "mapped") = bitmap(0b01);
                *field(record, "dirty") = bitmap(0b11);
            },
            &format!("host block {id} has 1 dirty page(s) that are not mapped"),
        )?;
        rejects(
            &|host| {
                let (_, record) = first_block(host);
                *field(record, "mapped") = bitmap(0b111);
                *field(record, "dirty") = bitmap(0b111);
                *field(field(record, "mappers"), "bits") =
                    Value::Array(vec![Value::NumU(0), Value::NumU(0)]);
            },
            &format!("host block {id} maps 3 page(s) but has no mapper core"),
        )?;
        Ok(())
    }

    /// The pending `(time, seq, event)` entries of a run-state tree.
    fn entries(run: &mut serde::Value) -> &mut Vec<serde::Value> {
        let serde::Value::Array(entries) = field(run, "entries") else {
            panic!("entries are an array")
        };
        entries
    }

    #[test]
    fn restore_rejects_malformed_run_state() -> Result<(), UvmError> {
        use serde::Value;
        let w = ckpt_workload();
        // After the first batch the clock has moved and the batch's end is
        // pending.
        let (_, snap) = snapshot_after(1)?;
        let (now, seq) = (snap.run.now.as_nanos(), snap.run.seq);
        let pending = snap.run.entries.first().expect("a pending event").1;
        assert!(now > 0, "{:?}", snap.run);
        let rejects = |edit: &dyn Fn(&mut Value), want: &str| -> Result<(), UvmError> {
            let snap = edited_snapshot(&w, 1, "run", edit)?;
            let err = RunInProgress::restore(&snap, &w).expect_err("edited run state must be rejected");
            assert!(matches!(err, UvmError::SnapshotInvalid { .. }), "{err}");
            assert!(err.to_string().contains(want), "got: {err}");
            Ok(())
        };
        // Element `j` of the first entry: 0 is its time, 1 its seq, 2 its
        // event.
        let set = |j: usize, v: Value| {
            move |run: &mut Value| {
                let Value::Array(entry) = &mut entries(run)[0] else { panic!("an entry is a triple") };
                entry[j] = v.clone();
            }
        };
        rejects(&set(0, Value::NumU(0)), &format!("at 0 ns lies before the queue's clock {now} ns"))?;
        rejects(&set(1, Value::NumU(seq)), &format!("seq {seq} is not below the queue's seq {seq}"))?;
        rejects(
            &|run| {
                let first = entries(run)[0].clone();
                entries(run).push(first);
            },
            &format!("two pending events share seq {pending}"),
        )?;
        let warps = w.num_warps();
        let step = serde_json::to_value(Event::WarpStep(warps as u32)).expect("an event encodes");
        rejects(&set(2, step), &format!("steps warp {warps}, but {warps} warps are launched"))?;
        // The unedited tree restores.
        RunInProgress::restore(&edited_snapshot(&w, 1, "run", |_| {})?, &w)?;
        Ok(())
    }

    #[test]
    fn a_restored_fault_outside_managed_memory_is_a_typed_error() -> Result<(), UvmError> {
        use uvm_gpu::fault::AccessKind;
        use uvm_sim::mem::PageNum;
        let w = ckpt_workload();
        // A read of a page far above every allocation, queued in the fault
        // buffer before the first batch as if the GPU had reported it.
        let page = PageNum(1 << 30);
        let fault = FaultRecord {
            page,
            kind: AccessKind::Read,
            warp: 0,
            arrival: SimTime::ZERO,
            dup_of_outstanding: false,
        };
        let snap = edited_snapshot(&w, 0, "gpu", |gpu| {
            let serde::Value::Array(entries) = field(field(gpu, "fault_buffer"), "entries") else {
                panic!("the fault buffer's entries are an array")
            };
            entries.push(serde_json::to_value(fault).expect("a fault encodes"));
        })?;
        let mut run = RunInProgress::restore(&snap, &w)?;
        let err = loop {
            match run.advance_batch(&w) {
                Ok(Progress::Batch(_)) => continue,
                Ok(Progress::Finished) => panic!("the unmanaged fault was never serviced"),
                Err(e) => break e,
            }
        };
        assert_eq!(err, UvmError::UnmanagedAccess { block: page.va_block().0 });
        Ok(())
    }

    /// A snapshot after `batches` batches of the checkpoint workload.
    fn snapshot_after(batches: u64) -> Result<(Workload, SystemSnapshot), UvmError> {
        let w = ckpt_workload();
        let mut run =
            UvmSystem::new(SystemConfig::test_small(16 * MB)).start(&w, &RunHints::default())?;
        for _ in 0..batches {
            run.advance_batch(&w)?;
        }
        let snap = run.snapshot(&w, 0);
        Ok((w, snap))
    }

    #[test]
    fn the_settings_a_resumed_run_reads_are_covered_by_the_digests() -> Result<(), UvmError> {
        // The first batch limit in the snapshot must be the one the run
        // loop reads, and editing it without recomputing the digests must
        // not resume a run under another policy.
        let (w, snap) = snapshot_after(3)?;
        let json = serde_json::to_string(&snap).expect("snapshot encodes");
        let key = "\"batch_limit\":";
        let at = json.find(key).expect("the driver policy has a batch limit") + key.len();
        let end = at + json[at..].find([',', '}']).expect("the value ends");
        assert_eq!(&json[at..end], "256");
        let edited = format!("{}7{}", &json[..at], &json[end..]);
        let edited: SystemSnapshot = serde_json::from_str(&edited).expect("edited snapshot decodes");
        let err = RunInProgress::restore(&edited, &w).expect_err("an edited policy must not restore");
        assert!(matches!(err, UvmError::SnapshotInvalid { .. }), "{err}");
        assert!(err.to_string().contains("[driver]"), "got: {err}");
        Ok(())
    }

    #[test]
    fn a_dma_run_list_that_repeats_a_block_does_not_load() -> Result<(), UvmError> {
        let (_, snap) = snapshot_after(3)?;
        let mut tree =
            serde_json::parse(&serde_json::to_string(&snap).expect("snapshot encodes"))
                .expect("snapshot parses");
        let serde::Value::Array(runs) = field(field(field(&mut tree, "driver"), "dma"), "runs")
        else {
            panic!("the DMA runs are an array")
        };
        let Some(serde::Value::Array(first)) = runs.first().cloned() else {
            panic!("the run has mapped a block")
        };
        let serde::Value::NumU(block) = first[0] else { panic!("a run starts with its block") };
        runs.push(serde::Value::Array(first));
        let err = load_tree(&tree, "dma-repeat").expect_err("a repeated DMA run must not load");
        assert!(matches!(err, UvmError::SnapshotInvalid { .. }), "{err}");
        let want = format!("DMA run list repeats block {block}");
        assert!(err.to_string().contains(&want), "got: {err}");
        Ok(())
    }

    #[test]
    fn a_malformed_peer_directory_does_not_restore() -> Result<(), UvmError> {
        use serde::Value;
        use uvm_driver::backend::BackendKind;
        // Three 384-page vectors, one partial VABlock each, on a 2-block
        // peer-2 device: capacity evictions spill blocks to the peers.
        let w = stream::build(StreamParams {
            warps: 32,
            pages_per_warp: 12,
            iters: 1,
            warps_per_page: 1,
            cpu_init: None,
        });
        let config = SystemConfig::test_small(4 * MB).with_backend(BackendKind::MultiGpuPeer2);
        // After six batches, with the peer directory edited by `edit`.
        let snap = |edit: &dyn Fn(&mut Value)| {
            edited_snapshot_of(config.clone(), &w, 6, "driver", |driver| {
                edit(field(driver, "peer_dir"))
            })
        };
        // The first directory entry, an `[block, {"peer", "pages"}]` pair.
        fn entry(dir: &mut Value) -> &mut Vec<Value> {
            let Value::Array(entries) = field(dir, "entries") else { panic!("entries are a list") };
            let Some(Value::Array(pair)) = entries.first_mut() else {
                panic!("the run has spilled a block")
            };
            pair
        }
        let unedited = snap(&|_| {})?;
        let (block, _) =
            unedited.driver.peer_directory().entries().next().expect("the run has spilled a block");
        let block = block.0;
        RunInProgress::restore(&unedited, &w)?;
        let rejects = |edit: &dyn Fn(&mut Value), want: &str| -> Result<(), UvmError> {
            let err = RunInProgress::restore(&snap(edit)?, &w)
                .expect_err("a malformed directory must be rejected");
            assert!(matches!(err, UvmError::SnapshotInvalid { .. }), "{err}");
            assert!(err.to_string().contains(want), "got: {err}");
            Ok(())
        };
        // A directory sized for another backend.
        rejects(
            &|dir| *field(dir, "peers") = Value::NumU(3),
            "the peer directory has 3 peers, but the backend has 2",
        )?;
        // An entry naming a peer past the peer count.
        rejects(
            &|dir| *field(&mut entry(dir)[1], "peer") = Value::NumU(2),
            &format!("places block {block} on peer 2, but it has 2 peers"),
        )?;
        // A peer holding more blocks than its capacity.
        rejects(
            &|dir| *field(dir, "capacity_blocks") = Value::NumU(0),
            "over its capacity 0",
        )?;
        // An entry for a block no allocation registered.
        rejects(
            &|dir| entry(dir)[0] = Value::NumU(1 << 20),
            &format!("holds unregistered block {}", 1 << 20),
        )?;
        // An entry holding a page past its partial block's 384 valid pages.
        rejects(
            &|dir| {
                let Value::Array(words) = field(field(&mut entry(dir)[1], "pages"), "words") else {
                    panic!("bitmap words")
                };
                words[7] = Value::NumU(1);
            },
            &format!("holds page 448 of block {block}, past its 384 valid pages"),
        )?;
        Ok(())
    }

    #[test]
    fn a_gpu_page_table_record_far_outside_managed_memory_does_not_load() -> Result<(), UvmError> {
        let (_, snap) = snapshot_after(3)?;
        let mut tree = serde_json::parse(&serde_json::to_string(&snap).expect("snapshot encodes"))
            .expect("snapshot parses");
        let serde::Value::Array(records) = field(field(&mut tree, "gpu"), "page_table") else {
            panic!("the page table is a list of records")
        };
        let Some(serde::Value::Array(mut far)) = records.first().cloned() else {
            panic!("the run has mapped a block")
        };
        let block = 1u64 << 40;
        far[0] = serde::Value::NumU(block);
        records.push(serde::Value::Array(far));
        // Refused while decoding, before the page table's index could grow
        // to the block's id.
        let err = load_tree(&tree, "gpu-far-block").expect_err("a far block must not load");
        assert!(matches!(err, UvmError::SnapshotInvalid { .. }), "{err}");
        let want = format!("GPU page table maps block {block}, past its 65536 blocks");
        assert!(err.to_string().contains(&want), "got: {err}");
        Ok(())
    }

    /// Load `tree` as a snapshot file, as a resume does. The edits these
    /// tests make are refused while decoding, before any digest is read, so
    /// recomputing the digests could not make them restore.
    fn load_tree(tree: &serde::Value, name: &str) -> Result<SystemSnapshot, UvmError> {
        let dir = std::env::temp_dir().join("uvm-system-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("{name}-{}.json", std::process::id()));
        std::fs::write(&path, serde_json::to_string(tree).expect("tree encodes"))
            .expect("write snapshot");
        let loaded = SystemSnapshot::load(&path);
        std::fs::remove_file(&path).ok();
        loaded
    }
}
