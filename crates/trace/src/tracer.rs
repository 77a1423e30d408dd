//! Tracer backends: the [`Tracer`] trait and the bounded [`RingTracer`],
//! plus the serializable [`TraceState`] that makes tracing
//! snapshot-aware.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::event::{Subsystem, TraceEvent, TraceRecord};

/// A sink for trace records.
///
/// Implementations must be pure observers: a `Tracer` receives copies of
/// event data and must never influence simulation state (no RNG draws, no
/// shared-state mutation). That property is what makes enabling tracing
/// perturbation-free.
pub trait Tracer {
    /// Whether this tracer wants events at all. When `false`, emit
    /// helpers skip payload construction entirely, so a disabled tracer
    /// costs one thread-local flag read per call-site.
    fn enabled(&self) -> bool;

    /// Record one event at simulated time `at_ns`, with span duration
    /// `dur_ns` (0 for instants).
    fn record(&mut self, at_ns: u64, dur_ns: u64, event: TraceEvent);

    /// Downcast helper: the ring backend, if that is what this is.
    fn as_ring(&self) -> Option<&RingTracer> {
        None
    }

    /// Mutable downcast helper for the ring backend.
    fn as_ring_mut(&mut self) -> Option<&mut RingTracer> {
        None
    }
}

/// Event filter applied before a record is admitted to the ring.
///
/// Parsed from a comma-separated token list (the `--trace-filter`
/// syntax): each token is either a subsystem name (`gpu`, `driver`,
/// `hostos`, `sim`, `engine`) or an event name (`fault-generated`,
/// `batch-close`, ...). An event passes if it matches *any* token; an
/// empty filter passes everything.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TraceFilter {
    subsystems: Vec<Subsystem>,
    events: Vec<String>,
}

impl TraceFilter {
    /// The pass-everything filter.
    pub fn all() -> Self {
        TraceFilter::default()
    }

    /// Parse a comma-separated token list. Unknown tokens are rejected
    /// with a message listing the valid subsystem names.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut filter = TraceFilter::default();
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            if let Some(sub) = Subsystem::ALL.iter().find(|s| s.name() == token) {
                filter.subsystems.push(*sub);
            } else if token.chars().all(|c| c.is_ascii_lowercase() || c == '-') {
                filter.events.push(token.to_string());
            } else {
                return Err(format!(
                    "unknown trace filter token `{token}` (expected a subsystem: gpu, driver, hostos, sim, engine — or a kebab-case event name)"
                ));
            }
        }
        Ok(filter)
    }

    /// Whether an event passes this filter.
    pub fn admits(&self, event: &TraceEvent) -> bool {
        if self.subsystems.is_empty() && self.events.is_empty() {
            return true;
        }
        self.subsystems.contains(&event.subsystem())
            || self.events.iter().any(|n| n == event.name())
    }
}

/// Serializable tracer state captured into checkpoints, so a resumed run
/// neither duplicates events already recorded nor drops the record of
/// them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceState {
    /// Next sequence number to assign.
    pub next_seq: u64,
    /// Records evicted by capacity pressure so far.
    pub dropped: u64,
    /// The buffered records.
    pub events: Vec<TraceRecord>,
}

/// A bounded ring-buffer tracer.
///
/// Admits events through a [`TraceFilter`], assigns monotone sequence
/// numbers to admitted events only, and evicts from the front once
/// `capacity` is reached (counting evictions in `dropped`, so exporters
/// can report truncation instead of silently presenting a partial run as
/// complete).
#[derive(Debug)]
pub struct RingTracer {
    capacity: usize,
    filter: TraceFilter,
    events: VecDeque<TraceRecord>,
    next_seq: u64,
    dropped: u64,
}

impl RingTracer {
    /// Create a tracer holding at most `capacity` records (minimum 1).
    pub fn new(capacity: usize) -> Self {
        RingTracer::with_filter(capacity, TraceFilter::all())
    }

    /// Create a tracer with an admission filter.
    pub fn with_filter(capacity: usize, filter: TraceFilter) -> Self {
        RingTracer {
            capacity: capacity.max(1),
            filter,
            events: VecDeque::new(),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Buffered records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.events.iter()
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Records evicted under capacity pressure so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drain all buffered records, oldest first. Sequence numbering
    /// continues from where it left off.
    pub fn take_records(&mut self) -> Vec<TraceRecord> {
        self.events.drain(..).collect()
    }

    /// Capture the full tracer state for a checkpoint.
    pub fn state(&self) -> TraceState {
        TraceState {
            next_seq: self.next_seq,
            dropped: self.dropped,
            events: self.events.iter().cloned().collect(),
        }
    }

    /// Restore from a checkpointed state, replacing buffered records and
    /// counters. The admission filter and capacity are runtime
    /// configuration and are kept as-is; restored records beyond the
    /// current capacity are evicted oldest-first.
    pub fn restore_state(&mut self, state: TraceState) {
        self.next_seq = state.next_seq;
        self.dropped = state.dropped;
        self.events = state.events.into();
        while self.events.len() > self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
    }
}

impl Tracer for RingTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, at_ns: u64, dur_ns: u64, event: TraceEvent) {
        if !self.filter.admits(&event) {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push_back(TraceRecord { seq, at_ns, dur_ns, event });
    }

    fn as_ring(&self) -> Option<&RingTracer> {
        Some(self)
    }

    fn as_ring_mut(&mut self) -> Option<&mut RingTracer> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replay(seq: u64) -> TraceEvent {
        TraceEvent::Replay { seq, woken: 0 }
    }

    #[test]
    fn ring_caps_and_counts_drops() {
        let mut t = RingTracer::new(2);
        t.record(10, 0, replay(1));
        t.record(20, 0, replay(2));
        t.record(30, 0, replay(3));
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 1);
        let seqs: Vec<u64> = t.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn filter_admits_by_subsystem_and_event_name() {
        let f = TraceFilter::parse("gpu, batch-close").expect("valid filter");
        assert!(f.admits(&replay(1)));
        assert!(f.admits(&TraceEvent::BatchClose {
            batch: 0,
            raw_faults: 0,
            unique_pages: 0,
            pages_migrated: 0,
            bytes_migrated: 0,
            components: vec![0; 10],
        }));
        assert!(!f.admits(&TraceEvent::Fixed { batch: 0 }));
        assert!(TraceFilter::all().admits(&TraceEvent::Fixed { batch: 0 }));
        assert!(TraceFilter::parse("Bogus!").is_err());
    }

    #[test]
    fn filtered_events_do_not_consume_sequence_numbers() {
        let f = TraceFilter::parse("gpu").expect("valid filter");
        let mut t = RingTracer::with_filter(8, f);
        t.record(1, 0, TraceEvent::Fixed { batch: 0 });
        t.record(2, 0, replay(1));
        let seqs: Vec<u64> = t.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0]);
    }

    #[test]
    fn state_round_trips_and_continues_numbering() {
        let mut t = RingTracer::new(4);
        t.record(5, 0, replay(1));
        t.record(6, 0, replay(2));
        let state = t.state();

        let mut fresh = RingTracer::new(4);
        fresh.restore_state(state.clone());
        assert_eq!(fresh.state(), state);
        fresh.record(7, 0, replay(3));
        let seqs: Vec<u64> = fresh.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }
}
