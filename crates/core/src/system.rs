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
//! [`UvmSystem::try_run_with_hints`] and friends are thin drivers over this
//! interface, so batch-mode and checkpointed executions traverse exactly
//! the same code path.

use serde::{Deserialize, Serialize};
use uvm_driver::advise::MemAdvise;
use uvm_driver::batch::{BatchRecord, FaultMeta};
use uvm_driver::service::{ServiceScratch, UvmDriver};
use uvm_gpu::device::{Gpu, StepOutcome};
use uvm_gpu::fault::FaultRecord;
use uvm_hostos::host::HostMemory;
use uvm_sim::error::UvmError;
use uvm_sim::event::EventQueue;
use uvm_sim::inject::{InjectionPoint, Injector};
use uvm_sim::mem::Allocation;
use uvm_sim::time::{SimDuration, SimTime};
use uvm_workloads::workload::Workload;

use crate::config::SystemConfig;
use crate::runctl;
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
    /// VABlock evictions performed.
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

/// The assembled system: GPU + driver + host OS + event queue.
#[derive(Debug)]
pub struct UvmSystem {
    config: SystemConfig,
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
}

impl UvmSystem {
    /// Assemble a system from a configuration. When the config carries an
    /// enabled fault plan, seeded injectors are wired into the subsystems
    /// that own each injection point; a disabled plan wires nothing and
    /// adds no cost or RNG draws.
    pub fn new(config: SystemConfig) -> Self {
        let mut gpu = Gpu::new_seeded(config.gpu.clone(), config.cost.clone(), config.seed);
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
        UvmSystem {
            config,
            gpu,
            driver,
            host,
        }
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
        self.run_with_hints(workload, &RunHints::default())
    }

    /// Like [`Self::run`], but an unrecoverable pipeline failure returns
    /// the typed [`UvmError`] instead of panicking.
    pub fn try_run(self, workload: &Workload) -> Result<RunResult, UvmError> {
        self.try_run_with_hints(workload, &RunHints::default())
    }

    /// Run `workload` after applying memory-usage hints: `cudaMemAdvise`
    /// settings and explicit upfront `cudaMemPrefetchAsync` migrations
    /// (whose driver operations appear in the records flagged
    /// `driver_prefetch_op`, and whose time delays the first kernel
    /// launch, as a synchronized prefetch would).
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::run`].
    pub fn run_with_hints(self, workload: &Workload, hints: &RunHints) -> RunResult {
        self.try_run_with_hints(workload, hints)
            .unwrap_or_else(|e| panic!("UVM servicing pipeline failed unrecoverably: {e}"))
    }

    /// Like [`Self::run_with_hints`], but an unrecoverable pipeline
    /// failure returns the typed [`UvmError`] instead of panicking.
    ///
    /// This is the path every full run takes, and it consults the
    /// process-global [`runctl`] checkpoint policy: when auto-checkpointing
    /// is configured the run's state is written out every N batches, and
    /// when a matching resume snapshot is pending the run restores from it
    /// instead of starting fresh — producing output byte-identical to the
    /// uninterrupted run. The run's key (workload and config digests) is
    /// computed only when one of those policies is set.
    pub fn try_run_with_hints(
        self,
        workload: &Workload,
        hints: &RunHints,
    ) -> Result<RunResult, UvmError> {
        let mut session =
            runctl::begin_run(|| (serde::digest(workload), serde::digest(&self.config)));
        let mut run = match session.take_resume() {
            Some(snap) => RunInProgress::restore(&snap, workload)?,
            None => self.start(workload, hints)?,
        };
        loop {
            match run.advance_batch(workload)? {
                Progress::Finished => break,
                Progress::Batch(n) => {
                    if let Some(key) = session.checkpoint_due(n) {
                        session.write_checkpoint(&run.snapshot(workload, key));
                    }
                }
            }
        }
        session.finish();
        Ok(run.into_result(workload))
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
            self.driver.cpu_touch(&mut self.host, t.page, t.core, t.write);
        }
        for (alloc, advise) in &hints.advise {
            self.driver.set_advise(alloc, *advise);
        }

        // The oracle prefetcher needs the workload's future access list:
        // per VABlock, every page any program will touch. Built only when
        // the oracle is configured (other policies never consult it), and
        // installed before the first batch so snapshots carry it.
        if self.driver.policy().prefetch_policy == uvm_driver::PrefetchPolicyKind::Oracle {
            let mut future: std::collections::BTreeMap<_, uvm_driver::PageBitmap> =
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
            workload.footprint_bytes() <= self.config.gpu.memory_bytes,
            "explicit management cannot oversubscribe device memory"
        );
        let copy_time = self.config.cost.h2d_time(workload.footprint_bytes());
        for alloc in &workload.allocations {
            self.gpu.map_pages((0..alloc.num_pages()).map(|i| alloc.page(i)));
        }

        let mut queue: EventQueue<Event> = EventQueue::with_capacity(workload.num_warps() * 2);
        let start = SimTime::ZERO + copy_time;
        for wid in self.gpu.launch(workload.programs.clone()) {
            queue.schedule(start, Event::WarpStep(wid));
        }
        while let Some((now, event)) = queue.pop() {
            match event {
                Event::WarpStep(wid) => match self.gpu.step_warp(wid, now) {
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
            .map(|t| t + self.config.cost.fault_insert_latency);
        let buffered = self.gpu.fault_buffer.earliest_arrival();
        let earliest = match (pending, buffered) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        if let Some(arrival) = earliest {
            // Wake latency is the backend's: the stock CPU driver pays the
            // host interrupt + worker wake path; a GPU-driven backend polls
            // its GPU-side queue instead and wakes in the poll interval.
            let wake = arrival.max(now) + self.config.backend.wake_latency(&self.config.cost);
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
    /// dependent launches).
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
        for wid in self.system.gpu.launch(workload.programs[range].to_vec()) {
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
                        match self.system.gpu.step_warp(wid, now) {
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
                        self.system.gpu.drain_faults();
                        // The driver's read loop races with fault insertion:
                        // it keeps reading "until the batch size limit is
                        // reached or no faults remain in the buffer"
                        // (Sec. 2.2), and reading itself takes time during
                        // which more faults arrive. Model it as an iterative
                        // fetch whose deadline advances by the per-fault
                        // fetch cost.
                        let limit = self.system.config.policy.batch_limit;
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
                            deadline += self.system.config.cost.fetch_per_fault * got as u64;
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
                                    now + self.system.config.cost.replay_latency;
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
                        if self.system.config.policy.flush_on_replay {
                            let dropped = self.system.gpu.flush();
                            uvm_trace::emit_instant(now.0, || {
                                uvm_trace::TraceEvent::BufferFlush { dropped }
                            });
                        }
                        let replay_done = now + self.system.config.cost.replay_latency;
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
    /// step for every warp it wakes.
    fn replay(&mut self, at: SimTime) {
        self.system.gpu.replay(at, &mut self.woken);
        for &(wid, wake) in &self.woken {
            self.queue.schedule(wake, Event::WarpStep(wid));
        }
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
            evictions: self.system.driver.memory().evictions(),
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

    /// FNV-1a digests of the four serialized state values. Two runs whose
    /// digests agree after every batch are in bit-identical states; the
    /// first disagreeing digest names the subsystem that diverged.
    pub fn subsystem_digests(&self) -> SubsystemDigests {
        let UvmSystem { gpu, driver, host, .. } = &self.system;
        SubsystemDigests::of(gpu, driver, host, &self.run_state())
    }

    /// Capture the complete system state as a versioned checkpoint.
    /// `run_key` identifies this run within its harness process (see
    /// [`crate::snapshot::run_key`]); pass 0 for standalone snapshots.
    pub fn snapshot(&self, workload: &Workload, run_key: u64) -> SystemSnapshot {
        let UvmSystem { config, gpu, driver, host } = &self.system;
        let run = self.run_state();
        SystemSnapshot {
            version: SNAPSHOT_VERSION,
            run_key,
            batches: self.batches(),
            workload_name: workload.name.clone(),
            workload_digest: serde::digest(workload),
            digests: SubsystemDigests::of(gpu, driver, host, &run),
            config: config.clone(),
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
    /// (integrity), and that `workload` is byte-identical to the one the
    /// checkpoint was taken against; the restored run then continues
    /// exactly where the snapshotted one stopped, producing bit-identical
    /// results.
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
        // Reinstate tracer state captured with the checkpoint. Restoring a
        // traced checkpoint with tracing disabled simply drops the buffered
        // events (the simulation itself is unaffected either way).
        if let Some(state) = &snap.trace {
            uvm_trace::restore_state(state.clone());
        }
        let run = snap.run.clone();
        Ok(RunInProgress {
            system: UvmSystem {
                config: snap.config.clone(),
                gpu: snap.gpu.clone(),
                driver: snap.driver.clone(),
                host: snap.host.clone(),
            },
            queue: EventQueue::restore(run.now, run.seq, run.entries),
            worker: run.worker,
            kernel_spans: run.kernel_spans,
            events: run.events,
            kernel_cursor: run.kernel_cursor,
            current_kernel_start: run.current_kernel_start,
            t0: run.t0,
            batch_buf: Vec::new(),
            woken: Vec::new(),
            scratch: ServiceScratch::default(),
        })
    }

    /// Divergence-demo hook: burn one draw from the driver's jitter RNG,
    /// modelling a bug that consumes randomness on one side of a lockstep
    /// pair. See [`uvm_driver::service::UvmDriver::perturb_rng`].
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

    #[test]
    fn sequential_kernels_synchronize_and_reuse_residency() {
        // Kernel 1 streams a+b -> c; kernel 2 re-reads c (warm) and writes d.
        let mut b = uvm_workloads::workload::Workload::builder("pipeline");
        let a = b.alloc(32 * 4096);
        let c = b.alloc(32 * 4096);
        let d = b.alloc(32 * 4096);
        for w in 0..4u64 {
            let mut p = uvm_gpu::isa::WarpProgram::new();
            for i in 0..8u64 {
                p.push(uvm_gpu::isa::Instr::load1(a.page(w * 8 + i)));
                p.push(uvm_gpu::isa::Instr::store1(c.page(w * 8 + i)));
            }
            b.warp(p);
        }
        b.end_kernel();
        for w in 0..4u64 {
            let mut p = uvm_gpu::isa::WarpProgram::new();
            for i in 0..8u64 {
                p.push(uvm_gpu::isa::Instr::load1(c.page(w * 8 + i)));
                p.push(uvm_gpu::isa::Instr::store1(d.page(w * 8 + i)));
            }
            b.warp(p);
        }
        let w = b.build();
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
}
