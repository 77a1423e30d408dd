//! The host-clock tracer.
//!
//! A [`uvm_trace::Tracer`] that ignores simulated time and instead reads
//! the host clock at batch open and close and at each driver or host-OS
//! stage event. Each stage is charged the host time in the gap before its
//! event inside a batch, so the stage times of a batch add up to its
//! `BatchOpen` → `BatchClose` service time. `fault-generated` events are
//! counted without reading the clock; every other event is ignored.
//!
//! The tracer shares its accumulator with the benchmark through an
//! `Rc<RefCell<_>>`, because the installed `Box<dyn Tracer>` cannot be
//! downcast back to this type.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use uvm_core::trace::{TraceEvent, Tracer};

/// The driver and host-OS stages, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Batch preamble (health, memory pressure, resets) and fault fetch.
    Fetch,
    /// Multi-tenant admission.
    Admit,
    /// Composition accounting and duplicate classification.
    Dedup,
    /// Grouping unique faults by VABlock.
    Group,
    /// Prefetch decision per block.
    Prefetch,
    /// Victim selection and writeback or spill.
    Evict,
    /// Population, transfer and page-table updates, and the batch tail.
    Migrate,
    /// Host `unmap_mapping_range`.
    Unmap,
    /// DMA mapping and reverse-map radix-tree inserts.
    Dma,
}

impl Stage {
    /// Every stage, in report order.
    pub const ALL: [Stage; 9] = [
        Stage::Fetch,
        Stage::Admit,
        Stage::Dedup,
        Stage::Group,
        Stage::Prefetch,
        Stage::Evict,
        Stage::Migrate,
        Stage::Unmap,
        Stage::Dma,
    ];

    /// The per-layer metric name of this stage's host time.
    pub fn metric(self) -> &'static str {
        match self {
            Stage::Fetch => "driver.fetch_s",
            Stage::Admit => "driver.admit_s",
            Stage::Dedup => "driver.dedup_s",
            Stage::Group => "driver.group_s",
            Stage::Prefetch => "driver.prefetch_s",
            Stage::Evict => "driver.evict_s",
            Stage::Migrate => "driver.migrate_s",
            Stage::Unmap => "hostos.unmap_s",
            Stage::Dma => "hostos.dma_s",
        }
    }

    /// The stage a trace event closes, given how many VABlocks of the
    /// current batch have been opened so far. `None` for events that do
    /// not read the clock.
    fn of(event: &TraceEvent, blocks: u32) -> Option<Stage> {
        Some(match event {
            TraceEvent::Fetch { .. } | TraceEvent::HealthTransition { .. } => Stage::Fetch,
            TraceEvent::FaultThrottled { .. } => Stage::Admit,
            TraceEvent::Preprocess { .. } | TraceEvent::DedupHit { .. } => Stage::Dedup,
            // The first block's lock ends grouping; a later one ends the
            // previous block's migration tail.
            TraceEvent::VaBlockLock { .. } if blocks == 0 => Stage::Group,
            TraceEvent::PrefetchDecision { .. } => Stage::Prefetch,
            TraceEvent::MemoryPressure { .. }
            | TraceEvent::EvictDecision { .. }
            | TraceEvent::Evict { .. } => Stage::Evict,
            TraceEvent::DmaMap { .. } | TraceEvent::DmaSetup { .. } => Stage::Dma,
            TraceEvent::HostUnmap { .. } | TraceEvent::CpuUnmap { .. } => Stage::Unmap,
            // A GPU-reset surcharge comes before any block; the closing
            // fixed-overhead span comes after the last one.
            TraceEvent::Fixed { .. } if blocks == 0 => Stage::Fetch,
            TraceEvent::VaBlockLock { .. }
            | TraceEvent::Fixed { .. }
            | TraceEvent::Populate { .. }
            | TraceEvent::Transfer { .. }
            | TraceEvent::PteUpdate { .. } => Stage::Migrate,
            TraceEvent::Backoff { stage, .. } => match stage.as_str() {
                "dma" => Stage::Dma,
                "unmap" => Stage::Unmap,
                "copy" => Stage::Migrate,
                _ => Stage::Fetch,
            },
            _ => return None,
        })
    }
}

/// What the tracer has seen since the benchmark last took it.
#[derive(Debug, Default)]
pub struct Probe {
    /// Host time of the current batch's `BatchOpen`.
    pub open: Option<Instant>,
    /// Host time of the current batch's `BatchClose`.
    pub close: Option<Instant>,
    /// Host nanoseconds charged to each stage, in [`Stage::ALL`] order.
    pub stage_ns: [u64; 9],
    /// `fault-generated` events seen.
    pub fault_events: u64,
    /// Host time of the last clock read inside the open batch.
    last: Option<Instant>,
    /// VABlocks opened in the current batch.
    blocks: u32,
}

impl Probe {
    /// Take the current batch's open/close instants, leaving none.
    pub fn take_batch(&mut self) -> (Option<Instant>, Option<Instant>) {
        self.last = None;
        (self.open.take(), self.close.take())
    }

    fn charge(&mut self, stage: Stage, now: Instant) {
        if let Some(last) = self.last {
            self.stage_ns[stage as usize] += (now - last).as_nanos() as u64;
            self.last = Some(now);
        }
    }
}

/// The tracer itself: a handle on the shared [`Probe`].
pub struct HostClockTracer(pub Rc<RefCell<Probe>>);

impl Tracer for HostClockTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, _at_ns: u64, _dur_ns: u64, event: TraceEvent) {
        let mut p = self.0.borrow_mut();
        match &event {
            TraceEvent::FaultGenerated { .. } => p.fault_events += 1,
            TraceEvent::BatchOpen { .. } => {
                let now = Instant::now();
                p.open = Some(now);
                p.close = None;
                p.last = Some(now);
                p.blocks = 0;
            }
            TraceEvent::BatchClose { .. } => {
                let now = Instant::now();
                p.charge(Stage::Migrate, now);
                p.close = Some(now);
                p.last = None;
            }
            _ if p.last.is_some() => {
                if let Some(stage) = Stage::of(&event, p.blocks) {
                    if matches!(event, TraceEvent::VaBlockLock { .. }) {
                        p.blocks += 1;
                    }
                    p.charge(stage, Instant::now());
                }
            }
            _ => {}
        }
    }
}
