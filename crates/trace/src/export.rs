//! Exporters over recorded traces: Chrome `trace_event` JSON, CSV, the
//! per-batch latency-breakdown table, and fault-lifetime extraction.
//!
//! The breakdown exporter is the reconciliation surface: for every batch
//! it accumulates the component spans the driver emitted *and* the final
//! component vector carried by the batch's `BatchClose` event. The
//! instrumentation is written so the two agree exactly (spans tile the
//! batch's service interval), and the sums over a run equal the batch
//! records' summed `component_ns` — [`BatchBreakdown::reconciled`]
//! checks the per-batch half of that contract.

use std::collections::BTreeMap;

use serde::{Serialize, Value};

use crate::event::{Phase, TraceEvent, TraceRecord};

/// Short column labels for the breakdown table, [`COMPONENTS`](crate::COMPONENTS) order.
const COLUMNS: [&str; 10] = [
    "fetch", "preproc", "dma", "unmap", "populate", "transfer", "evict", "pte", "fixed",
    "backoff",
];

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The `args` object for an event: the field map of its externally-tagged
/// serde encoding (unit variants get an empty map).
fn event_args(event: &TraceEvent) -> Value {
    match event.to_value() {
        Value::Object(mut entries) if entries.len() == 1 => entries.remove(0).1,
        _ => Value::Object(Vec::new()),
    }
}

/// Render records as Chrome `trace_event` JSON (the object form, with a
/// `traceEvents` array), loadable in Perfetto or `chrome://tracing`.
///
/// Spans become complete (`"ph":"X"`) events and instants become
/// thread-scoped instant (`"ph":"i"`) events; each subsystem gets its own
/// named thread lane. Timestamps are microseconds (Chrome's unit), so
/// nanosecond sim times appear as fractional `ts` values.
pub fn chrome_trace(records: &[TraceRecord]) -> String {
    let mut events: Vec<Value> = crate::Subsystem::ALL
        .iter()
        .map(|sub| {
            obj(vec![
                ("name", Value::Str("thread_name".into())),
                ("ph", Value::Str("M".into())),
                ("pid", Value::NumU(1)),
                ("tid", Value::NumU(sub.lane())),
                ("args", obj(vec![("name", Value::Str(sub.name().into()))])),
            ])
        })
        .collect();
    for rec in records {
        let mut fields = vec![
            ("name", Value::Str(rec.event.name().into())),
            ("cat", Value::Str(rec.event.subsystem().name().into())),
        ];
        match rec.event.phase() {
            Phase::Span => {
                fields.push(("ph", Value::Str("X".into())));
                fields.push(("ts", Value::Float(rec.at_ns as f64 / 1000.0)));
                fields.push(("dur", Value::Float(rec.dur_ns as f64 / 1000.0)));
            }
            Phase::Instant => {
                fields.push(("ph", Value::Str("i".into())));
                fields.push(("ts", Value::Float(rec.at_ns as f64 / 1000.0)));
                fields.push(("s", Value::Str("t".into())));
            }
        }
        fields.push(("pid", Value::NumU(1)));
        fields.push(("tid", Value::NumU(rec.event.subsystem().lane())));
        fields.push(("args", event_args(&rec.event)));
        events.push(obj(fields));
    }
    let doc = obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::Str("ns".into())),
    ]);
    serde_json::to_string(&doc).expect("value tree renders")
}

fn scalar(v: &Value) -> String {
    match v {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::NumU(n) => n.to_string(),
        Value::NumI(n) => n.to_string(),
        Value::Float(f) => f.to_string(),
        Value::Str(s) => s.clone(),
        composite => serde_json::to_string(composite).expect("value tree renders"),
    }
}

/// Render records as CSV: one row per record with the stable columns
/// `seq,at_ns,dur_ns,subsystem,event,batch,detail`, where `detail` packs
/// the event's remaining fields as space-separated `key=value` pairs.
pub fn csv(records: &[TraceRecord]) -> String {
    let mut out = String::from("seq,at_ns,dur_ns,subsystem,event,batch,detail\n");
    for rec in records {
        let batch = rec
            .event
            .batch()
            .map(|b| b.to_string())
            .unwrap_or_default();
        let detail = match event_args(&rec.event) {
            Value::Object(fields) => fields
                .iter()
                .filter(|(k, _)| k != "batch")
                .map(|(k, v)| format!("{k}={}", scalar(v)))
                .collect::<Vec<_>>()
                .join(" "),
            other => scalar(&other),
        };
        out.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            rec.seq,
            rec.at_ns,
            rec.dur_ns,
            rec.event.subsystem().name(),
            rec.event.name(),
            batch,
            detail
        ));
    }
    out
}

/// Per-batch service-time breakdown assembled from a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchBreakdown {
    /// Run ordinal within the trace (0-based; traces holding a single
    /// run have only run 0).
    pub run: u64,
    /// Batch sequence number within its run.
    pub batch: u64,
    /// Whether this was a driver-initiated prefetch operation.
    pub prefetch_op: bool,
    /// Raw faults fetched (from `BatchOpen`).
    pub raw_faults: u64,
    /// Whether the batch's `BatchOpen` survived in the ring. Batches
    /// whose open was evicted have truncated span sums and must not be
    /// used for reconciliation.
    pub open_seen: bool,
    /// Component durations summed from span events ([`COMPONENTS`](crate::COMPONENTS)
    /// order, ns).
    pub spans: [u64; 10],
    /// Final component vector from `BatchClose`, when the close was
    /// observed.
    pub close: Option<[u64; 10]>,
}

impl BatchBreakdown {
    /// Whether both endpoints of the batch were captured.
    pub fn complete(&self) -> bool {
        self.open_seen && self.close.is_some()
    }

    /// Whether the span-derived breakdown matches the `BatchClose`
    /// component vector exactly — the per-batch reconciliation contract.
    pub fn reconciled(&self) -> bool {
        self.close == Some(self.spans)
    }

    /// Total service time of this batch (close vector when present,
    /// span sum otherwise), in ns.
    pub fn total_ns(&self) -> u64 {
        self.close.unwrap_or(self.spans).iter().sum()
    }
}

/// Assemble per-batch breakdowns from a trace, in (run, batch) order.
///
/// Batch sequence numbers restart across runs, so batches are keyed by
/// the ordinal of the preceding `run-begin` event. Records before the
/// first `run-begin` (possible when the ring evicted it) fall into run 0.
pub fn breakdown(records: &[TraceRecord]) -> Vec<BatchBreakdown> {
    let mut runs_seen: u64 = 0;
    let mut by_key: BTreeMap<(u64, u64), BatchBreakdown> = BTreeMap::new();
    for rec in records {
        if matches!(rec.event, TraceEvent::RunBegin { .. }) {
            runs_seen += 1;
            continue;
        }
        let Some(batch) = rec.event.batch() else { continue };
        let run = runs_seen.saturating_sub(1);
        let entry = by_key.entry((run, batch)).or_insert(BatchBreakdown {
            run,
            batch,
            prefetch_op: false,
            raw_faults: 0,
            open_seen: false,
            spans: [0; 10],
            close: None,
        });
        match &rec.event {
            TraceEvent::BatchOpen { raw_faults, prefetch_op, .. } => {
                entry.open_seen = true;
                entry.raw_faults = *raw_faults;
                entry.prefetch_op = *prefetch_op;
            }
            TraceEvent::BatchClose { components, .. } => {
                let mut close = [0u64; 10];
                for (slot, c) in close.iter_mut().zip(components.iter()) {
                    *slot = *c;
                }
                entry.close = Some(close);
            }
            event => {
                if let Some(i) = event.component() {
                    entry.spans[i] += rec.dur_ns;
                }
            }
        }
    }
    by_key.into_values().collect()
}

/// Sum the authoritative component vectors of complete batches —
/// the trace-side counterpart of the batch records' summed `component_ns`.
pub fn totals(breakdowns: &[BatchBreakdown]) -> [u64; 10] {
    let mut out = [0u64; 10];
    for b in breakdowns.iter().filter(|b| b.complete()) {
        if let Some(close) = b.close {
            for (slot, c) in out.iter_mut().zip(close.iter()) {
                *slot += c;
            }
        }
    }
    out
}

/// Render breakdowns as an aligned text table with a totals row, marking
/// truncated (incomplete) batches and any span/close mismatch.
pub fn breakdown_table(breakdowns: &[BatchBreakdown]) -> String {
    let mut out = format!(
        "{:>4} {:>6} {:>9} {:>7}",
        "run", "batch", "type", "faults"
    );
    for col in COLUMNS {
        out.push_str(&format!(" {col:>10}"));
    }
    out.push_str(&format!(" {:>12} {}\n", "total_ns", "status"));
    let mut truncated = 0usize;
    for b in breakdowns {
        let kind = if b.prefetch_op { "prefetch" } else { "fault" };
        out.push_str(&format!("{:>4} {:>6} {:>9} {:>7}", b.run, b.batch, kind, b.raw_faults));
        for v in b.close.unwrap_or(b.spans) {
            out.push_str(&format!(" {v:>10}"));
        }
        let status = if !b.complete() {
            truncated += 1;
            "truncated"
        } else if b.reconciled() {
            "ok"
        } else {
            "MISMATCH"
        };
        out.push_str(&format!(" {:>12} {}\n", b.total_ns(), status));
    }
    let t = totals(breakdowns);
    out.push_str(&format!("{:>4} {:>6} {:>9} {:>7}", "", "", "totals", ""));
    for v in t {
        out.push_str(&format!(" {v:>10}"));
    }
    out.push_str(&format!(" {:>12}\n", t.iter().sum::<u64>()));
    if truncated > 0 {
        out.push_str(&format!(
            "note: {truncated} batch(es) truncated by ring eviction; excluded from totals\n"
        ));
    }
    out
}

/// Extract fault service latencies (ns) from a trace: each
/// `fault-serviced` instant's buffer-arrival time joined against its
/// batch's `batch-close` time. Faults whose batch close was not captured
/// are skipped. This reproduces the paper's Figure-1-style fault-latency
/// distribution from trace data alone.
pub fn fault_lifetimes(records: &[TraceRecord]) -> Vec<u64> {
    let mut runs_seen: u64 = 0;
    let mut closes: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for rec in records {
        match &rec.event {
            TraceEvent::RunBegin { .. } => runs_seen += 1,
            TraceEvent::BatchClose { batch, .. } => {
                closes.insert((runs_seen.saturating_sub(1), *batch), rec.at_ns);
            }
            _ => {}
        }
    }
    let mut runs_seen: u64 = 0;
    let mut out = Vec::new();
    for rec in records {
        match &rec.event {
            TraceEvent::RunBegin { .. } => runs_seen += 1,
            TraceEvent::FaultServiced { batch, arrival_ns, .. } => {
                if let Some(&close) = closes.get(&(runs_seen.saturating_sub(1), *batch)) {
                    out.push(close.saturating_sub(*arrival_ns));
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceAccess;

    fn span(at: u64, dur: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord { seq: 0, at_ns: at, dur_ns: dur, event }
    }

    fn sample_run() -> Vec<TraceRecord> {
        let close = |components: Vec<u64>| TraceEvent::BatchClose {
            batch: 0,
            raw_faults: 2,
            unique_pages: 2,
            pages_migrated: 2,
            bytes_migrated: 8192,
            components,
        };
        vec![
            span(0, 0, TraceEvent::RunBegin { workload: "t".into() }),
            span(
                5,
                0,
                TraceEvent::FaultServiced { batch: 0, page: 1, sm: 0, utlb: 0, arrival_ns: 5 },
            ),
            span(10, 0, TraceEvent::BatchOpen { batch: 0, raw_faults: 2, prefetch_op: false }),
            span(10, 4, TraceEvent::Fetch { batch: 0, faults: 2 }),
            span(14, 6, TraceEvent::Transfer { batch: 0, block: 0, bytes: 8192 }),
            span(20, 0, close(vec![4, 0, 0, 0, 0, 6, 0, 0, 0, 0])),
        ]
    }

    #[test]
    fn breakdown_reconciles_spans_with_close() {
        let b = breakdown(&sample_run());
        assert_eq!(b.len(), 1);
        assert!(b[0].complete());
        assert!(b[0].reconciled(), "spans {:?} vs close {:?}", b[0].spans, b[0].close);
        assert_eq!(b[0].total_ns(), 10);
        assert_eq!(totals(&b)[0], 4);
        assert_eq!(totals(&b)[5], 6);
        let table = breakdown_table(&b);
        assert!(table.contains("ok"), "table:\n{table}");
        assert!(!table.contains("truncated"));
    }

    #[test]
    fn truncated_batches_are_excluded_from_totals() {
        let mut recs = sample_run();
        recs.retain(|r| !matches!(r.event, TraceEvent::BatchOpen { .. }));
        let b = breakdown(&recs);
        assert!(!b[0].complete());
        assert_eq!(totals(&b), [0; 10]);
        assert!(breakdown_table(&b).contains("truncated"));
    }

    #[test]
    fn batch_ids_restart_across_runs_without_colliding() {
        let mut recs = sample_run();
        recs.extend(sample_run());
        let b = breakdown(&recs);
        assert_eq!(b.len(), 2);
        assert_eq!((b[0].run, b[0].batch), (0, 0));
        assert_eq!((b[1].run, b[1].batch), (1, 0));
    }

    #[test]
    fn fault_lifetimes_join_arrival_to_batch_close() {
        let lat = fault_lifetimes(&sample_run());
        assert_eq!(lat, vec![15]); // close at 20 − arrival at 5
    }

    #[test]
    fn chrome_trace_is_valid_json_with_lanes() {
        let json = chrome_trace(&sample_run());
        let doc = serde_json::parse(&json).expect("valid JSON");
        let Value::Object(fields) = &doc else { panic!("object") };
        let (_, events) = fields.iter().find(|(k, _)| k == "traceEvents").expect("traceEvents");
        let Value::Array(items) = events else { panic!("array") };
        // 5 thread-name metadata events + 6 records.
        assert_eq!(items.len(), 11);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"thread_name\""));
    }

    #[test]
    fn csv_has_one_row_per_record() {
        let recs = vec![span(
            3,
            0,
            TraceEvent::FaultGenerated {
                page: 9,
                kind: TraceAccess::Read,
                sm: 1,
                utlb: 2,
                warp: 4,
                dup: false,
            },
        )];
        let text = csv(&recs);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].starts_with("0,3,0,gpu,fault-generated,,"));
        assert!(lines[1].contains("page=9"));
        assert!(lines[1].contains("kind=Read"));
    }
}
