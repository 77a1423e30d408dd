//! Property-based tests on the core data structures and invariants,
//! checked against reference models.

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

use uvm_core::{SystemConfig, UvmSystem};
use uvm_driver::bitmap::PageBitmap;
use uvm_driver::dedup::{classify_duplicates, classify_duplicates_with, DedupResult, DedupScratch};
use uvm_driver::evict::{EvictScratch, GpuMemoryManager, ResidencyOutcome};
use uvm_driver::prefetch::compute_prefetch;
use uvm_gpu::fault::{AccessKind, FaultRecord};
use uvm_hostos::page_table::{PageTable, PteFlags};
use uvm_hostos::radix_tree::RadixTree;
use uvm_sim::event::EventQueue;
use uvm_sim::mem::{PageNum, VaBlockId};
use uvm_sim::time::SimTime;
use uvm_workloads::cpu_init::CpuInitPolicy;
use uvm_workloads::stream::{self, StreamParams};

proptest! {
    /// The radix tree behaves exactly like a BTreeMap under arbitrary
    /// insert/remove/get sequences, and its node accounting stays balanced.
    #[test]
    fn radix_tree_matches_model(ops in vec((0u8..3, 0u64..1 << 20, any::<u32>()), 1..300)) {
        let mut tree: RadixTree<u32> = RadixTree::new();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        for (op, key, value) in ops {
            match op {
                0 => {
                    let report = tree.insert(key, value);
                    let existed = model.insert(key, value).is_some();
                    prop_assert_eq!(report.replaced, existed);
                }
                1 => {
                    prop_assert_eq!(tree.remove(key), model.remove(&key));
                }
                _ => {
                    prop_assert_eq!(tree.get(key), model.get(&key));
                }
            }
            prop_assert_eq!(tree.len(), model.len() as u64);
            let s = tree.stats();
            prop_assert_eq!(s.total_allocs - s.total_frees, s.nodes);
        }
        let got: Vec<(u64, u32)> = tree.iter().map(|(k, v)| (k, *v)).collect();
        let want: Vec<(u64, u32)> = model.into_iter().collect();
        prop_assert_eq!(got, want);
    }

    /// PageBitmap agrees with a BTreeSet model for all operations.
    #[test]
    fn page_bitmap_matches_model(indices in vec(0usize..512, 0..200), other in vec(0usize..512, 0..200)) {
        let bm: PageBitmap = indices.iter().copied().collect();
        let set: BTreeSet<usize> = indices.iter().copied().collect();
        let bm2: PageBitmap = other.iter().copied().collect();
        let set2: BTreeSet<usize> = other.iter().copied().collect();

        prop_assert_eq!(bm.count() as usize, set.len());
        prop_assert_eq!(bm.iter_set().collect::<Vec<_>>(), set.iter().copied().collect::<Vec<_>>());
        for i in 0..512 {
            prop_assert_eq!(bm.get(i), set.contains(&i));
        }
        let or: BTreeSet<usize> = set.union(&set2).copied().collect();
        prop_assert_eq!(bm.or(&bm2).iter_set().collect::<Vec<_>>(), or.into_iter().collect::<Vec<_>>());
        let and: BTreeSet<usize> = set.intersection(&set2).copied().collect();
        prop_assert_eq!(bm.and(&bm2).iter_set().collect::<Vec<_>>(), and.into_iter().collect::<Vec<_>>());
        let diff: BTreeSet<usize> = set.difference(&set2).copied().collect();
        prop_assert_eq!(bm.and_not(&bm2).iter_set().collect::<Vec<_>>(), diff.into_iter().collect::<Vec<_>>());
    }

    /// The host page table agrees with a set model and its unmap work
    /// counts are exact.
    #[test]
    fn page_table_matches_model(
        pages in vec(0u64..4096, 1..200),
        range in (0u64..4096, 1u64..512),
    ) {
        let mut pt = PageTable::new();
        let mut model: BTreeSet<u64> = BTreeSet::new();
        for &p in &pages {
            pt.map(PageNum(p), PteFlags { dirty: p % 2 == 0, writable: true });
            model.insert(p);
        }
        prop_assert_eq!(pt.mapped_pages(), model.len() as u64);

        let (start, len) = range;
        let end = start + len;
        let expect_cleared = model.iter().filter(|&&p| p >= start && p < end).count() as u64;
        let expect_dirty = model.iter().filter(|&&p| p >= start && p < end && p % 2 == 0).count() as u64;
        let work = pt.unmap_range(PageNum(start), PageNum(end));
        prop_assert_eq!(work.ptes_cleared, expect_cleared);
        prop_assert_eq!(work.dirty_pages, expect_dirty);
        model.retain(|&p| p < start || p >= end);
        prop_assert_eq!(pt.mapped_pages(), model.len() as u64);
        let listed: Vec<u64> = pt.mapped_in_range(PageNum(0), PageNum(4096)).iter().map(|p| p.0).collect();
        prop_assert_eq!(listed, model.iter().copied().collect::<Vec<_>>());
    }

    /// Dedup: unique pages partition the batch; counts are exact; order is
    /// first-arrival.
    #[test]
    fn dedup_partitions_batches(pages in vec((0u64..64, 0u32..8), 0..300)) {
        let batch: Vec<FaultRecord> = pages
            .iter()
            .map(|&(p, u)| FaultRecord {
                page: PageNum(p),
                kind: AccessKind::Read,
                sm: u * 2,
                utlb: u,
                warp: 0,
                arrival: SimTime(0),
                dup_of_outstanding: false,
            })
            .collect();
        let result = classify_duplicates(&batch);
        let distinct: BTreeSet<u64> = pages.iter().map(|&(p, _)| p).collect();
        prop_assert_eq!(result.unique.len(), distinct.len());
        prop_assert_eq!(
            result.unique.len() as u64 + result.dup_same_utlb + result.dup_cross_utlb,
            batch.len() as u64
        );
        // Representatives appear in first-arrival order.
        let mut seen = BTreeSet::new();
        let expected: Vec<u64> = pages
            .iter()
            .filter(|&&(p, _)| seen.insert(p))
            .map(|&(p, _)| p)
            .collect();
        prop_assert_eq!(result.unique.iter().map(|f| f.page.0).collect::<Vec<_>>(), expected);
    }

    /// The sort-based scratch-reusing dedup fast path is an exact drop-in
    /// for the reference: identical representatives (page order, upgraded
    /// access kind, and full per-fault attribution fields) and identical
    /// same-μTLB vs cross-μTLB duplicate counts, on arbitrary batches with
    /// mixed read/write kinds — and across scratch reuse.
    #[test]
    fn dedup_fast_path_matches_reference(
        faults in vec((0u64..48, 0u32..8, any::<bool>()), 0..300),
        second in vec((0u64..48, 0u32..8, any::<bool>()), 0..300),
    ) {
        let build = |spec: &[(u64, u32, bool)]| -> Vec<FaultRecord> {
            spec.iter()
                .enumerate()
                .map(|(i, &(p, u, w))| FaultRecord {
                    page: PageNum(p),
                    kind: if w { AccessKind::Write } else { AccessKind::Read },
                    sm: u * 2 + (i as u32 % 2),
                    utlb: u,
                    warp: i as u32,
                    arrival: SimTime(i as u64),
                    dup_of_outstanding: false,
                })
                .collect()
        };
        let mut scratch = DedupScratch::default();
        let mut fast = DedupResult::default();
        // Two consecutive batches through the same scratch: reuse must not
        // leak state from the first classification into the second.
        for spec in [&faults, &second] {
            let batch = build(spec);
            let reference = classify_duplicates(&batch);
            classify_duplicates_with(&batch, &mut scratch, &mut fast);
            prop_assert_eq!(fast.dup_same_utlb, reference.dup_same_utlb);
            prop_assert_eq!(fast.dup_cross_utlb, reference.dup_cross_utlb);
            prop_assert_eq!(fast.unique.len(), reference.unique.len());
            for (f, r) in fast.unique.iter().zip(&reference.unique) {
                prop_assert_eq!(f.page, r.page);
                prop_assert_eq!(f.kind, r.kind);
                prop_assert_eq!(f.sm, r.sm);
                prop_assert_eq!(f.utlb, r.utlb);
                prop_assert_eq!(f.warp, r.warp);
                prop_assert_eq!(f.arrival, r.arrival);
            }
        }
    }

    /// The prefetcher never returns already-occupied pages, stays within
    /// the valid range, and is monotone in its inputs (more residency never
    /// yields less total coverage).
    #[test]
    fn prefetch_invariants(
        resident in vec(0usize..512, 0..256),
        faulted in vec(0usize..512, 1..128),
        valid in 64u32..=512,
    ) {
        let resident: PageBitmap = resident.into_iter().filter(|&i| (i as u32) < valid).collect();
        let faulted: PageBitmap = faulted.into_iter().filter(|&i| (i as u32) < valid).collect();
        let faulted = faulted.and_not(&resident);
        let pf = compute_prefetch(&resident, &faulted, valid, 0.5);
        // Never overlaps occupied pages.
        prop_assert!(pf.and(&resident.or(&faulted)).is_empty());
        // Stays within the valid range.
        prop_assert!(pf.iter_set().all(|i| (i as u32) < valid));
        // Adding residency never shrinks total coverage.
        let mut more = resident;
        more.set_range(0, 8.min(valid as usize));
        let pf2 = compute_prefetch(&more, &faulted.and_not(&more), valid, 0.5);
        let cover1 = pf.or(&resident).or(&faulted).count();
        let cover2 = pf2.or(&more).or(&faulted.and_not(&more)).count();
        prop_assert!(cover2 >= cover1, "coverage {cover2} < {cover1}");
    }

    /// The tree prefetcher is monotone in its density threshold: lowering
    /// the threshold never shrinks the prefetch set (a stricter density
    /// requirement can only drop subtrees, never add them), and every
    /// threshold's output honours the occupancy/range contract.
    #[test]
    fn prefetch_monotone_in_threshold(
        resident in vec(0usize..512, 0..256),
        faulted in vec(0usize..512, 1..128),
        valid in 64u32..=512,
        t_lo_pct in 5u32..95,
        dt_pct in 0u32..90,
    ) {
        let resident: PageBitmap = resident.into_iter().filter(|&i| (i as u32) < valid).collect();
        let faulted: PageBitmap = faulted.into_iter().filter(|&i| (i as u32) < valid).collect();
        let faulted = faulted.and_not(&resident);
        let t_lo = f64::from(t_lo_pct) / 100.0;
        let t_hi = (f64::from(t_lo_pct + dt_pct) / 100.0).min(0.99);
        let at_lo = compute_prefetch(&resident, &faulted, valid, t_lo);
        let at_hi = compute_prefetch(&resident, &faulted, valid, t_hi);
        // The stricter threshold's set is contained in the looser one's.
        prop_assert!(
            at_hi.and_not(&at_lo).is_empty(),
            "threshold {t_hi} prefetched pages threshold {t_lo} did not"
        );
        for pf in [&at_lo, &at_hi] {
            prop_assert!(pf.and(&resident.or(&faulted)).is_empty());
            prop_assert!(pf.iter_set().all(|i| (i as u32) < valid));
        }
    }

    /// The policy engine's output contract holds for *every* prefetch
    /// policy kind on arbitrary inputs: never a resident or faulted page,
    /// never a page at or beyond `valid_pages` — the engine masks whatever
    /// a policy returns, so this holds by construction even for policies
    /// (stride, oracle) that compute raw candidate sets carelessly.
    #[test]
    fn policy_engine_output_is_always_safe(
        resident in vec(0usize..512, 0..256),
        faulted in vec(0usize..512, 1..128),
        future in vec(0usize..512, 0..256),
        valid in 16u32..=512,
        stride in 1u32..64,
        threshold_pct in 5u32..95,
    ) {
        use uvm_driver::engine::run_prefetch_policy;
        use uvm_driver::{PrefetchContext, PrefetchPolicyKind};

        let resident: PageBitmap = resident.into_iter().filter(|&i| (i as u32) < valid).collect();
        let faulted: PageBitmap = faulted.into_iter().filter(|&i| (i as u32) < valid).collect();
        let faulted = faulted.and_not(&resident);
        let future: PageBitmap = future.into_iter().collect();
        for kind in PrefetchPolicyKind::ALL {
            let pf = run_prefetch_policy(kind, &PrefetchContext {
                resident: &resident,
                faulted: &faulted,
                valid_pages: valid,
                threshold: f64::from(threshold_pct) / 100.0,
                stride_pages: stride,
                future: Some(&future),
            });
            prop_assert!(
                pf.and(&resident.or(&faulted)).is_empty(),
                "{} returned an occupied page", kind.name()
            );
            prop_assert!(
                pf.iter_set().all(|i| (i as u32) < valid),
                "{} escaped the valid range", kind.name()
            );
        }
    }

    /// LRU memory manager: capacity is never exceeded, victims are always
    /// the least recently used, and eviction counts are exact.
    #[test]
    fn lru_manager_invariants(requests in vec(0u64..64, 1..300), capacity in 1u64..16) {
        let mut mm = GpuMemoryManager::new(capacity);
        let mut scratch = EvictScratch::default();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new(); // block -> last seq
        let mut evictions = 0u64;
        for (seq, &b) in requests.iter().enumerate() {
            let seq = seq as u64;
            match mm.ensure_resident_with(VaBlockId(b), seq, &mut scratch).unwrap() {
                ResidencyOutcome::AlreadyResident => {
                    prop_assert!(model.contains_key(&b));
                }
                ResidencyOutcome::Allocated => {
                    prop_assert!(!model.contains_key(&b));
                    prop_assert!((model.len() as u64) < capacity);
                }
                ResidencyOutcome::Evicted => {
                    prop_assert!(!model.contains_key(&b));
                    prop_assert_eq!(model.len() as u64, capacity);
                    for &v in scratch.victims() {
                        // The victim must hold the minimal (seq, id) key.
                        let min = model.iter().map(|(&id, &s)| (s, id)).min().unwrap();
                        prop_assert_eq!((min.1, min.0), (v.0, model[&v.0]));
                        model.remove(&v.0);
                        evictions += 1;
                    }
                }
            }
            model.insert(b, seq);
            prop_assert!(model.len() as u64 <= capacity);
            prop_assert_eq!(mm.resident_blocks(), model.len() as u64);
        }
        prop_assert_eq!(mm.evictions(), evictions);
    }

    /// Event queue: pops are globally ordered by (time, insertion).
    #[test]
    fn event_queue_total_order(times in vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let mut popped = Vec::new();
        while let Some((at, id)) = q.pop() {
            popped.push((at.as_nanos(), id));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
        }
    }

    /// Event queue FIFO tie-break under arbitrary interleavings of
    /// schedule and pop: same-time events always pop in insertion order,
    /// even when scheduled across pops and relative to the advancing
    /// clock.
    #[test]
    fn event_queue_fifo_tie_break_interleaved(ops in vec((0u8..4, 0u64..8), 1..300)) {
        let mut q = EventQueue::new();
        let mut next_id = 0u64;
        // Model: ordered (time, insertion-seq) -> id. Insertion seq is
        // global, so ties at equal times resolve first-scheduled-first.
        let mut model: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        let mut seq = 0u64;
        for (op, dt) in ops {
            if op == 0 {
                // Pop and compare against the model's minimum.
                let got = q.pop();
                let want = model.keys().next().copied();
                match (got, want) {
                    (Some((at, id)), Some(k)) => {
                        let mid = model.remove(&k).unwrap();
                        prop_assert_eq!(at.as_nanos(), k.0);
                        prop_assert_eq!(id, mid);
                    }
                    (None, None) => {}
                    (g, w) => prop_assert!(false, "pop {g:?} vs model {w:?}"),
                }
            } else {
                // Schedule at now + dt; dt in 0..8 forces frequent ties.
                let t = q.now() + uvm_sim::time::SimDuration(dt);
                q.schedule(t, next_id);
                model.insert((t.as_nanos(), seq), next_id);
                next_id += 1;
                seq += 1;
            }
        }
        // Drain: the remainder pops in exact model order.
        while let Some((at, id)) = q.pop() {
            let k = *model.keys().next().unwrap();
            prop_assert_eq!((at.as_nanos(), id), (k.0, model.remove(&k).unwrap()));
        }
        prop_assert!(model.is_empty());
    }

    /// Differential check of the timing-wheel queue against a plain
    /// `BinaryHeap` model. Deadline deltas span every wheel level (from
    /// same-instant ties up to ~2^40 ns horizons), pops interleave with
    /// schedules, and a mid-sequence snapshot/restore round-trip must
    /// reproduce the exact `(time, seq, payload)` set — after every step
    /// the wheel's `pop`, `len`, and `peek_time` agree with the heap.
    #[test]
    fn event_queue_matches_binary_heap_model(
        ops in vec((0u8..3, 0u64..1 << 40, 0u32..41), 1..250),
    ) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut q: EventQueue<u64> = EventQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
        let mut next_id = 0u64;
        for (op, base, shift) in ops {
            match op {
                0 => {
                    let got = q.pop();
                    let want = heap.pop();
                    match (got, want) {
                        (Some((at, id)), Some(Reverse((t, _, mid)))) => {
                            prop_assert_eq!((at.as_nanos(), id), (t, mid));
                        }
                        (None, None) => {}
                        (g, w) => prop_assert!(false, "pop {g:?} vs model {w:?}"),
                    }
                }
                1 => {
                    // `base >> shift` sweeps the whole horizon spectrum:
                    // shift 40 forces same-instant ties, shift 0 lands in
                    // the top wheel levels and exercises cascading.
                    let t = q.now().as_nanos() + (base >> shift);
                    let (seq, id) = (q.seq(), next_id);
                    q.schedule(SimTime(t), id);
                    heap.push(Reverse((t, seq, id)));
                    next_id += 1;
                }
                _ => {
                    // Snapshot → restore round-trip: the serialized form
                    // must equal the heap's sorted content, and the
                    // restored queue must keep matching the model.
                    let entries = q.snapshot_entries();
                    let mut want: Vec<(SimTime, u64, u64)> = heap
                        .iter()
                        .map(|&Reverse((t, s, id))| (SimTime(t), s, id))
                        .collect();
                    want.sort_unstable();
                    prop_assert_eq!(&entries, &want);
                    q = EventQueue::restore(q.now(), q.seq(), entries);
                }
            }
            prop_assert_eq!(q.len(), heap.len());
            prop_assert_eq!(q.peek_time(), heap.peek().map(|&Reverse((t, ..))| SimTime(t)));
        }
        // Full drain stays in model order.
        while let Some(Reverse((t, _, id))) = heap.pop() {
            prop_assert_eq!(q.pop(), Some((SimTime(t), id)));
        }
        prop_assert_eq!(q.pop(), None);
    }

    /// Fault-buffer conservation under random push/fetch/flush sequences
    /// (with an injected overflow storm): every attempted push is either
    /// inserted or an overflow drop, and every inserted entry is either
    /// still buffered, fetched, or a flush drop.
    #[test]
    fn fault_buffer_conserves_entries(
        ops in vec((0u8..8, 0u64..200), 1..300),
        capacity in 1u32..64,
        storm_at in 0u64..2000,
    ) {
        use uvm_gpu::fault_buffer::FaultBuffer;
        use uvm_sim::inject::{PointInjector, PointPlan};
        use uvm_sim::rng::DetRng;

        let mut fb = FaultBuffer::new(capacity);
        fb.set_injector(PointInjector::new(
            &PointPlan::scheduled(SimTime(storm_at), 4),
            DetRng::new(1),
        ));
        let mut attempts = 0u64;
        let mut fetched = 0u64;
        let mut now = 0u64;
        for (op, arg) in ops {
            match op {
                0..=4 => {
                    // Push (biased: buffers mostly fill). Arrivals are
                    // monotone like the hardware's.
                    now += arg;
                    attempts += 1;
                    fb.push(FaultRecord {
                        page: PageNum(arg),
                        kind: AccessKind::Read,
                        sm: 0,
                        utlb: (arg % 8) as u32,
                        warp: 0,
                        arrival: SimTime(now),
                        dup_of_outstanding: false,
                    });
                }
                5 | 6 => {
                    fetched += fb.fetch(arg as usize % 32, SimTime(now)).len() as u64;
                }
                _ => {
                    fb.flush();
                }
            }
            // Conservation, checked after every operation.
            prop_assert_eq!(attempts, fb.total_inserted() + fb.overflow_drops());
            prop_assert_eq!(
                fb.total_inserted(),
                fb.len() as u64 + fetched + fb.flush_drops()
            );
            prop_assert!(fb.len() as u64 <= capacity as u64);
        }
    }

    /// The GMMU's maintained `pending()` and `earliest_request()` equal a
    /// full scan of a model of its μTLB queues under random deposit,
    /// drain, flush and GPU-reset sequences — and still do after a JSON
    /// round trip, whose load must rebuild both from the queues (the
    /// serialized form carries only the queues).
    #[test]
    fn gmmu_maintained_values_match_a_queue_scan(
        ops in vec((0u8..9, 0u32..64, 0u64..500), 1..200),
        buffer_slots in 1u32..64,
    ) {
        use uvm_gpu::device::Gpu;
        use uvm_gpu::gmmu::Gmmu;
        use uvm_gpu::spec::GpuSpec;
        use uvm_sim::cost::CostModel;

        let mut spec = GpuSpec::small(1 << 30);
        spec.fault_buffer_entries = buffer_slots;
        let mut gpu = Gpu::new(spec, CostModel::titan_v());
        let utlbs = gpu.spec.num_utlbs();
        // Request times per μTLB queue, in deposit order.
        let mut model: Vec<Vec<u64>> = vec![Vec::new(); utlbs as usize];
        for (op, utlb, t) in ops {
            let utlb = utlb % utlbs;
            match op {
                0..=4 => {
                    // Request times are not monotone per queue: spurious
                    // re-issues land 10-60 µs after their stall.
                    gpu.gmmu.deposit(utlb, PageNum(t), AccessKind::Read, 0, 0, SimTime(t), op == 4);
                    model[utlb as usize].push(t);
                }
                5 | 6 => {
                    let inserted = gpu.drain_faults();
                    prop_assert!(inserted <= model.iter().map(Vec::len).sum::<usize>());
                    model.iter_mut().for_each(Vec::clear);
                }
                7 => {
                    gpu.flush();
                    model.iter_mut().for_each(Vec::clear);
                }
                _ => {
                    gpu.reset(SimTime(t));
                    model.iter_mut().for_each(Vec::clear);
                }
            }
            let pending: usize = model.iter().map(Vec::len).sum();
            let earliest = model.iter().filter_map(|q| q.first()).min().map(|&t| SimTime(t));
            prop_assert_eq!(gpu.gmmu.pending(), pending);
            prop_assert_eq!(gpu.gmmu.earliest_request(), earliest);

            let json = serde_json::to_string(&gpu.gmmu).unwrap();
            let loaded: Gmmu = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(loaded.pending(), pending);
            prop_assert_eq!(loaded.earliest_request(), earliest);
            prop_assert_eq!(serde_json::to_string(&loaded).unwrap(), json);
        }
    }

    /// The warp scoreboard, a sorted `Vec`, behaves like the `BTreeMap` it
    /// replaced: re-noting a page re-kinds it, iteration is ascending, it
    /// serializes to the same tree, and a replay fulfils exactly the
    /// resident pages and queues the rest for re-issue in ascending page
    /// order (so they pop in descending order).
    #[test]
    fn warp_scoreboard_matches_a_btreemap(
        notes in vec((0u64..64, 0usize..3), 0..120),
        resident in vec(0u64..64, 0..64),
    ) {
        use serde::Serialize;
        use uvm_gpu::warp::Warp;

        let kinds = [AccessKind::Read, AccessKind::Write, AccessKind::Prefetch];
        let mut warp = Warp::new(0, 0, 0);
        let mut model: BTreeMap<PageNum, AccessKind> = BTreeMap::new();
        for (page, k) in notes {
            warp.note_outstanding(PageNum(page), kinds[k]);
            model.insert(PageNum(page), kinds[k]);
            prop_assert_eq!(warp.outstanding_len(), model.len());
        }
        let got: Vec<(PageNum, AccessKind)> = warp.outstanding_accesses().collect();
        let want: Vec<(PageNum, AccessKind)> = model.iter().map(|(&p, &k)| (p, k)).collect();
        prop_assert_eq!(got, want);
        let serde::Value::Object(fields) = warp.to_value() else { panic!("a warp is an object") };
        let scoreboard = fields.iter().find(|(k, _)| k == "outstanding").map(|(_, v)| v);
        prop_assert_eq!(scoreboard, Some(&model.to_value()));

        let resident: BTreeSet<PageNum> = resident.into_iter().map(PageNum).collect();
        let fulfilled = warp.apply_replay(|p| resident.contains(&p));
        prop_assert_eq!(fulfilled, model.keys().filter(|p| resident.contains(p)).count());
        prop_assert!(!warp.has_outstanding());
        let mut reissued = Vec::new();
        while let Some(access) = warp.next_pending_access() {
            reissued.push(access);
        }
        let mut refaults: Vec<(PageNum, AccessKind)> =
            model.into_iter().filter(|(p, _)| !resident.contains(p)).collect();
        refaults.reverse();
        prop_assert_eq!(reissued, refaults);
    }
}

proptest! {
    /// GEMM tile page sets cover exactly the bytes the tile occupies: the
    /// page of every element of the tile is present, and every listed page
    /// intersects the tile's rows.
    #[test]
    fn gemm_tile_pages_cover_tile(
        n_exp in 8u32..12,           // n in 256..4096
        elem in prop_oneof![Just(4u64), Just(8u64)],
        ti in 0u64..4,
        tj in 0u64..4,
    ) {
        let n = 1u64 << n_exp;
        let tile = n / 4;
        let alloc = uvm_core::sim::mem::AddressSpaceAllocator::new().alloc(n * n * elem);
        let pages = uvm_workloads::sgemm::tile_pages(&alloc, n, elem, ti * tile, tj * tile, tile);
        prop_assert!(!pages.is_empty());
        // Corners of the tile map into the set.
        for (r, c) in [
            (ti * tile, tj * tile),
            (ti * tile, tj * tile + tile - 1),
            (ti * tile + tile - 1, tj * tile),
            (ti * tile + tile - 1, tj * tile + tile - 1),
        ] {
            let addr = uvm_core::sim::mem::VirtAddr(alloc.base.0 + (r * n + c) * elem);
            prop_assert!(pages.contains(&addr.page()), "corner ({r},{c}) missing");
        }
        // Sorted and deduplicated.
        for w in pages.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        // All pages within the allocation.
        for p in &pages {
            prop_assert!(alloc.contains(p.base_addr()));
        }
    }

    /// CPU-init policies always touch each page exactly once, whatever the
    /// thread count.
    #[test]
    fn cpu_init_touches_each_page_once(blocks in 1u64..6, threads in 0u32..40, which in 0u8..3) {
        let alloc = uvm_core::sim::mem::AddressSpaceAllocator::new()
            .alloc(blocks * uvm_core::sim::mem::VABLOCK_SIZE);
        let policy = match which {
            0 => CpuInitPolicy::SingleThread,
            1 => CpuInitPolicy::Chunked { threads },
            _ => CpuInitPolicy::Striped { threads },
        };
        let touches = policy.touches(&alloc);
        prop_assert_eq!(touches.len() as u64, alloc.num_pages());
        let distinct: BTreeSet<_> = touches.iter().map(|t| t.page).collect();
        prop_assert_eq!(distinct.len() as u64, alloc.num_pages());
        for t in &touches {
            prop_assert!(t.core < 128);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whole-system conservation under random small configurations: every
    /// touched page ends up migrated (in-core), and the batch accounting
    /// balances.
    #[test]
    fn system_page_conservation(
        warps in 4u32..32,
        ppw in 1u64..8,
        share in 1u32..4,
        seed in 0u64..1000,
    ) {
        let w = stream::build(StreamParams {
            warps,
            pages_per_warp: ppw,
            iters: 1,
            warps_per_page: share,
            cpu_init: Some(CpuInitPolicy::SingleThread),
        });
        let touched: BTreeSet<_> = w.programs.iter().flat_map(|p| p.touched_pages()).collect();
        let result = UvmSystem::new(
            SystemConfig::test_small(256 * 1024 * 1024).with_seed(seed),
        )
        .run(&w);
        let migrated: u64 = result.records.iter().map(|r| r.pages_migrated).sum();
        prop_assert_eq!(migrated, touched.len() as u64);
        prop_assert!(result.total_batch_time <= result.kernel_time);
        for r in &result.records {
            prop_assert!(r.unique_pages <= r.raw_faults);
            prop_assert_eq!(r.end - r.start, r.component_sum());
        }
    }

    /// Checkpoint/restore transparency: snapshotting a run at an arbitrary
    /// batch index, round-tripping the snapshot through JSON, restoring,
    /// and running to completion is bit-identical to the uninterrupted
    /// run — for any workload shape, seed, and checkpoint position
    /// (including positions past the end of the run, where no checkpoint
    /// is taken at all).
    #[test]
    fn snapshot_restore_is_bit_identical(
        warps in 8u32..32,
        ppw in 2u64..8,
        checkpoint_at in 1u64..40,
        seed in 0u64..1000,
    ) {
        use uvm_core::{Progress, RunHints, RunInProgress, SystemSnapshot};

        let w = stream::build(StreamParams {
            warps,
            pages_per_warp: ppw,
            iters: 1,
            warps_per_page: 1,
            cpu_init: Some(CpuInitPolicy::Striped { threads: 4 }),
        });
        // Small enough to force evictions for the larger shapes.
        let config = SystemConfig::test_small(16 * 1024 * 1024).with_seed(seed);
        let straight = UvmSystem::new(config.clone()).run(&w);

        let mut run = UvmSystem::new(config)
            .start(&w, &RunHints::default())
            .expect("run starts");
        let mut snap = None;
        loop {
            match run.advance_batch(&w).expect("batch services") {
                Progress::Finished => break,
                Progress::Batch(n) if n == checkpoint_at => {
                    snap = Some(run.snapshot(&w, 0));
                    break;
                }
                Progress::Batch(_) => {}
            }
        }
        let result = match snap {
            Some(s) => {
                // Full fidelity must survive the on-disk encoding.
                let json = serde_json::to_string(&s).expect("snapshot serializes");
                let back: SystemSnapshot = serde_json::from_str(&json).expect("snapshot parses");
                let mut resumed = RunInProgress::restore(&back, &w).expect("snapshot restores");
                while resumed.advance_batch(&w).expect("batch services") != Progress::Finished {}
                resumed.into_result(&w)
            }
            // The run finished before the checkpoint index came up.
            None => run.into_result(&w),
        };
        prop_assert_eq!(
            serde_json::to_string(&straight).expect("result serializes"),
            serde_json::to_string(&result).expect("result serializes"),
            "restored run must be byte-identical to the uninterrupted run"
        );
    }
}

proptest! {
    // Each case runs a full stepped simulation; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Owner-directory coherence on the multi-GPU peer backends: random
    /// workload shapes under heavy oversubscription generate arbitrary
    /// fault/migrate/evict interleavings, and after every serviced batch
    /// (1) no page is peer-held without the directory naming it (and vice
    /// versa), (2) no peer-held page is simultaneously GPU-accessible,
    /// and (3) peer migration conserves pages: everything ever spilled is
    /// still held, was fetched back, or was reclaimed to the host. The
    /// directory also round-trips losslessly through its serde encoding.
    #[test]
    fn peer_directory_coherence_under_random_runs(
        warps in 8u32..32,
        ppw in 2u64..8,
        share in 1u32..4,
        seed in 0u64..1000,
        four_peers in any::<bool>(),
    ) {
        use uvm_core::{Progress, RunHints};
        use uvm_driver::backend::{BackendKind, PeerDirectory};
        use uvm_driver::policy::DriverPolicy;

        let backend = if four_peers {
            BackendKind::MultiGpuPeer4
        } else {
            BackendKind::MultiGpuPeer2
        };
        let w = stream::build(StreamParams {
            warps,
            pages_per_warp: ppw,
            iters: 2,
            warps_per_page: share,
            cpu_init: Some(CpuInitPolicy::SingleThread),
        });
        // Small enough to force evictions (= peer spills) for most shapes.
        let config = SystemConfig::test_small(4 * 1024 * 1024)
            .with_policy(DriverPolicy::default().audited(true))
            .with_backend(backend)
            .with_seed(seed);
        let mut run = UvmSystem::new(config)
            .start(&w, &RunHints::default())
            .expect("run starts");
        loop {
            // `audited(true)` folds the full cross-layer audit (including
            // the directory invariant) into every advance.
            let progress = run.advance_batch(&w).expect("audit stays clean");
            let driver = run.driver();
            let dir = driver.peer_directory();
            prop_assert_eq!(
                dir.pages_spilled,
                dir.total_held_pages() + dir.pages_fetched + dir.pages_reclaimed,
                "peer traffic must conserve pages"
            );
            for state in driver.va_space.blocks() {
                prop_assert_eq!(
                    dir.pages_of(state.id),
                    state.peer_pages,
                    "directory and block disagree on peer-held pages"
                );
                let accessible = state.gpu_resident.or(&state.remote_mapped);
                prop_assert!(
                    state.peer_pages.and(&accessible).is_empty(),
                    "a page is resident on the GPU while a peer holds it"
                );
            }
            if progress == Progress::Finished {
                break;
            }
        }
        let dir = run.driver().peer_directory();
        let json = serde_json::to_string(dir).expect("directory serializes");
        let back: PeerDirectory = serde_json::from_str(&json).expect("directory parses");
        prop_assert_eq!(serde_json::to_string(&back).expect("re-serializes"), json);
    }
}

proptest! {
    // Each case runs two full simulations; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Trace reconciliation: for arbitrary workload shapes and seeds,
    /// running under a RingTracer (1) leaves the run result bit-identical
    /// to an untraced run, and (2) yields a per-batch breakdown whose
    /// component spans tile to exactly each batch's `BatchClose` vector —
    /// which is the batch record's own component breakdown — so the trace
    /// totals equal the `report.rs` aggregate by construction.
    #[test]
    fn trace_breakdown_reconciles_with_report(
        warps in 8u32..32,
        ppw in 2u64..8,
        seed in 0u64..1000,
    ) {
        use uvm_core::trace::{self, RingTracer};

        let w = stream::build(StreamParams {
            warps,
            pages_per_warp: ppw,
            iters: 1,
            warps_per_page: 1,
            cpu_init: Some(CpuInitPolicy::Striped { threads: 4 }),
        });
        // Small enough to force evictions for the larger shapes.
        let config = SystemConfig::test_small(16 * 1024 * 1024).with_seed(seed);
        let plain = UvmSystem::new(config.clone()).run(&w);

        trace::install(Box::new(RingTracer::new(1 << 20)));
        let traced = UvmSystem::new(config).run(&w);
        let tracer = trace::uninstall().expect("tracer still installed");
        let ring = tracer.as_ring().expect("ring backend");
        let records: Vec<_> = ring.records().cloned().collect();
        prop_assert_eq!(ring.dropped(), 0);

        prop_assert_eq!(
            serde_json::to_string(&plain).expect("result serializes"),
            serde_json::to_string(&traced).expect("result serializes"),
            "tracing must not perturb simulated results"
        );

        let breakdowns = trace::breakdown(&records);
        prop_assert_eq!(breakdowns.len(), traced.records.len());
        let mut want_totals = [0u64; 10];
        for (b, r) in breakdowns.iter().zip(traced.records.iter()) {
            prop_assert_eq!(b.batch, r.seq);
            prop_assert!(b.complete(), "batch {} truncated", r.seq);
            prop_assert!(
                b.reconciled(),
                "batch {}: spans {:?} != close {:?}",
                r.seq, b.spans, b.close
            );
            prop_assert_eq!(b.close, Some(r.component_ns()));
            for (slot, c) in want_totals.iter_mut().zip(r.component_ns()) {
                *slot += c;
            }
        }
        prop_assert_eq!(trace::totals(&breakdowns), want_totals);
    }
}
