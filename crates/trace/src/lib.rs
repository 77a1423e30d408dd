//! # uvm-trace — zero-perturbation structured tracing for the UVM stack
//!
//! The source paper's headline artifact is an instrumented `nvidia-uvm`
//! driver that timestamps every stage of the fault-servicing path. This
//! crate is the simulator's equivalent: a typed event vocabulary
//! ([`TraceEvent`]) covering fault generation, batch assembly, dedup,
//! per-VABlock servicing (DMA map, CPU unmap, eviction, population,
//! transfer, PTE updates), replays, and host-OS operations — plus
//! exporters that turn a recorded run into Chrome `trace_event` JSON
//! (loadable in Perfetto / `chrome://tracing`), CSV, and a per-batch
//! latency-breakdown table that reconciles exactly with the batch
//! records' service-time components.
//!
//! ## Zero perturbation
//!
//! Instrumented call-sites go through [`emit_instant`] / [`emit_span`],
//! which take *closures*: when no tracer is installed (the default) the
//! only cost is one thread-local flag read, and
//! the event payload is never constructed. Tracers are pure observers —
//! they receive copies of event data and never touch simulation state or
//! RNG streams — so enabling a [`RingTracer`] cannot change simulated
//! results.
//!
//! ## Thread-local sink
//!
//! The simulator is single-threaded per run, so the installed tracer
//! lives in thread-local storage: [`install`] a backend, run the
//! workload, then [`uninstall`] it (or inspect in place via
//! [`with_ring`]). Tests running concurrently each get their own sink.
//!
//! ## Snapshot awareness
//!
//! [`snapshot_state`] / [`restore_state`] capture and reinstate the ring
//! buffer's contents and sequence counter, letting checkpointed runs
//! resume tracing without duplicating or dropping events.

#![warn(missing_docs)]

use std::cell::{Cell, RefCell};

pub mod event;
pub mod export;
pub mod tracer;

pub use event::{Phase, Subsystem, TraceAccess, TraceEvent, TraceRecord, COMPONENTS};
pub use export::{
    breakdown, breakdown_table, chrome_trace, csv, fault_lifetimes, totals, BatchBreakdown,
};
pub use tracer::{RingTracer, TraceFilter, TraceState, Tracer};

thread_local! {
    /// Fast-path flag mirroring whether the installed sink wants events.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    /// The installed tracer backend, if any.
    static SINK: RefCell<Option<Box<dyn Tracer>>> = const { RefCell::new(None) };
}

/// Install a tracer backend for this thread, replacing (and returning)
/// any previous one.
pub fn install(tracer: Box<dyn Tracer>) -> Option<Box<dyn Tracer>> {
    ENABLED.with(|e| e.set(tracer.enabled()));
    SINK.with(|s| s.borrow_mut().replace(tracer))
}

/// Remove and return the installed tracer, reverting this thread to the
/// zero-cost disabled state.
pub fn uninstall() -> Option<Box<dyn Tracer>> {
    ENABLED.with(|e| e.set(false));
    SINK.with(|s| s.borrow_mut().take())
}

/// Whether an enabled tracer is installed on this thread. Call-sites may
/// use this to skip preparatory work beyond what the emit closures
/// already elide.
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Record an instant event at simulated time `at_ns`. The closure is
/// only invoked when an enabled tracer is installed.
pub fn emit_instant(at_ns: u64, event: impl FnOnce() -> TraceEvent) {
    if enabled() {
        record(at_ns, 0, event());
    }
}

/// Record a span of `dur_ns` starting at `at_ns`. The closure is only
/// invoked when an enabled tracer is installed.
pub fn emit_span(at_ns: u64, dur_ns: u64, event: impl FnOnce() -> TraceEvent) {
    if enabled() {
        record(at_ns, dur_ns, event());
    }
}

fn record(at_ns: u64, dur_ns: u64, event: TraceEvent) {
    SINK.with(|s| {
        if let Some(tracer) = s.borrow_mut().as_deref_mut() {
            tracer.record(at_ns, dur_ns, event);
        }
    });
}

/// Run `f` against the installed [`RingTracer`], if one is installed.
/// Returns `None` when no tracer is installed or the backend is not a
/// ring.
pub fn with_ring<R>(f: impl FnOnce(&mut RingTracer) -> R) -> Option<R> {
    SINK.with(|s| {
        s.borrow_mut()
            .as_deref_mut()
            .and_then(Tracer::as_ring_mut)
            .map(f)
    })
}

/// Capture the installed ring tracer's state for a checkpoint. `None`
/// when tracing is off (or the backend has no state to save).
pub fn snapshot_state() -> Option<TraceState> {
    SINK.with(|s| {
        s.borrow()
            .as_deref()
            .and_then(Tracer::as_ring)
            .map(RingTracer::state)
    })
}

/// Reinstate checkpointed tracer state into the installed ring tracer.
/// Returns `true` if a ring was installed and restored; `false` (state
/// discarded) when tracing is off — restoring a traced checkpoint with
/// tracing disabled is allowed and simply drops the buffered events.
pub fn restore_state(state: TraceState) -> bool {
    with_ring(|ring| ring.restore_state(state)).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_is_inert_without_a_tracer() {
        uninstall();
        let mut built = false;
        emit_instant(5, || {
            built = true;
            TraceEvent::Replay { seq: 1, woken: 0 }
        });
        assert!(!built, "payload closure must not run when tracing is off");
        assert!(!enabled());
        assert!(snapshot_state().is_none());
    }

    #[test]
    fn install_routes_events_to_the_ring() {
        install(Box::new(RingTracer::new(16)));
        emit_span(10, 3, || TraceEvent::Fixed { batch: 7 });
        emit_instant(13, || TraceEvent::Replay { seq: 1, woken: 2 });
        let recs = with_ring(|r| r.take_records()).expect("ring installed");
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].dur_ns, 3);
        assert_eq!(recs[1].at_ns, 13);
        let prev = uninstall();
        assert!(prev.is_some());
        assert!(!enabled());
    }

    #[test]
    fn snapshot_and_restore_round_trip_through_the_sink() {
        install(Box::new(RingTracer::new(16)));
        emit_instant(1, || TraceEvent::Replay { seq: 1, woken: 0 });
        let state = snapshot_state().expect("tracing on");
        emit_instant(2, || TraceEvent::Replay { seq: 2, woken: 0 });
        assert!(restore_state(state.clone()));
        let again = snapshot_state().expect("tracing on");
        assert_eq!(again, state, "restore must rewind to the captured state");
        uninstall();
        assert!(!restore_state(state), "no sink: state is discarded");
    }
}
