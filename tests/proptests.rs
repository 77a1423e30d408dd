//! Property-based tests on the core data structures and invariants,
//! checked against reference models.

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use uvm_core::{SystemConfig, UvmSystem};
use uvm_driver::dedup::{classify_duplicates, classify_duplicates_with, DedupResult, DedupScratch};
use uvm_driver::evict::{EvictScratch, GpuMemoryManager, ResidencyOutcome};
use uvm_driver::prefetch::compute_prefetch;
use uvm_gpu::device::Gpu;
use uvm_gpu::fault::{AccessKind, FaultRecord};
use uvm_gpu::spec::GpuSpec;
use uvm_hostos::host::HostMemory;
use uvm_hostos::numa::NumaTopology;
use uvm_hostos::dma::DmaSpace;
use uvm_hostos::rmap::CoreSet;
use uvm_sim::bitmap::PageBitmap;
use uvm_sim::event::EventQueue;
use uvm_sim::mem::{PageNum, VaBlockId};
use uvm_sim::time::SimTime;
use uvm_workloads::cpu_init::CpuInitPolicy;
use uvm_workloads::stream::{self, StreamParams};

proptest! {
    /// The radix-tree nodes a DMA space reports allocating, summed over
    /// random block mappings (re-maps included), equal the nodes a Linux
    /// radix tree of 64-slot nodes holds for the mapped addresses: one per
    /// distinct `(level, addr >> 6·(level+1))` below the root, with the
    /// tree as tall as the largest address has 6-bit digits. The mapped
    /// pages' addresses are exactly `0..n`.
    #[test]
    fn dma_radix_nodes_match_prefix_model(maps in vec((0u64..24, 1u32..=512), 1..48)) {
        let digits = |addr: u64| (1u32..).find(|&h| addr >> (6 * h) == 0).expect("a small address");
        let mut dma = DmaSpace::new();
        let mut mapped: BTreeMap<VaBlockId, u32> = BTreeMap::new();
        let (mut next, mut height, mut allocated) = (0u64, 0u32, 0u64);
        let mut prefixes: BTreeSet<(u32, u64)> = BTreeSet::new();
        for (block, pages) in maps {
            let block = VaBlockId(block);
            let report = dma.map_block(block, pages);
            allocated += report.radix_nodes_allocated;
            if let Entry::Vacant(slot) = mapped.entry(block) {
                slot.insert(pages);
                prop_assert_eq!(report.pages_mapped, u64::from(pages));
                let new = next..next + u64::from(pages);
                next = new.end;
                // Levels the tree already has gain the new addresses'
                // prefixes; a level added on top holds every address's.
                let grown = digits(next - 1);
                for level in 0..grown {
                    let addrs = if level < height { new.clone() } else { 0..next };
                    prefixes.extend(addrs.map(|a| (level, a >> (6 * (level + 1)))));
                }
                height = grown;
            } else {
                prop_assert_eq!(report.pages_already_mapped, u64::from(pages));
                prop_assert_eq!(report.radix_nodes_allocated, 0);
            }
            prop_assert_eq!(allocated, prefixes.len() as u64);
            prop_assert_eq!(dma.mapped_pages(), next);
        }
        let mut addrs: Vec<u64> = mapped
            .iter()
            .flat_map(|(&b, &pages)| (0..pages as usize).map(move |i| b.page_at(i)))
            .map(|p| dma.dma_of(p).map(|a| a.0))
            .collect::<Option<_>>()
            .expect("every mapped page has an address");
        addrs.sort_unstable();
        prop_assert_eq!(addrs, (0..next).collect::<Vec<_>>());
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

    /// Host memory, which keeps one record per VABlock, agrees with a
    /// per-page model (each mapped page's dirty bit and mapper cores) under
    /// random touch/unmap sequences over four blocks, on a uniform host and
    /// on the Epyc NUMA topology: every unmap report (pages, dirty pages,
    /// mapper cores, IPIs to every core mapping a torn-down page, NUMA
    /// factor) and every mapping query.
    #[test]
    fn host_memory_matches_per_page_model(
        ops in vec((0u8..4, 0u64..4, 0u64..512, (0u32..32, any::<bool>())), 1..300),
        epyc in any::<bool>(),
        worker in 0u32..32,
    ) {
        let topo = if epyc { NumaTopology::epyc_7551p() } else { NumaTopology::flat(32) };
        let mut host = HostMemory::with_numa(topo.clone(), worker);
        let mut model: BTreeMap<PageNum, (bool, CoreSet)> = BTreeMap::new();
        let block_pages = |model: &BTreeMap<PageNum, (bool, CoreSet)>, b: VaBlockId| {
            model.range(b.first_page()..b.page_at(511).offset(1)).count() as u64
        };
        for (op, block, idx, (core, write)) in ops {
            let block = VaBlockId(block);
            if op < 3 {
                let page = block.page_at(idx as usize);
                host.cpu_touch(page, 1, core, write);
                let (dirty, cores) = model.entry(page).or_insert((false, CoreSet::EMPTY));
                *dirty |= write;
                cores.insert(core);
                prop_assert!(host.is_cpu_mapped(page));
            } else {
                let torn: Vec<(bool, CoreSet)> = block.pages().filter_map(|p| model.remove(&p)).collect();
                let mappers = torn.iter().fold(CoreSet::EMPTY, |acc, (_, c)| acc.union(*c));
                let report = host.unmap_mapping_range(block);
                prop_assert_eq!(report.pages_unmapped, torn.len() as u64);
                prop_assert_eq!(report.dirty_pages, torn.iter().filter(|(d, _)| *d).count() as u64);
                prop_assert_eq!(report.mapper_cores, mappers.len());
                prop_assert_eq!(report.ipis, mappers.len());
                let numa = mappers.iter().map(|c| topo.core_distance_factor(worker, c)).fold(1.0, f64::max);
                prop_assert_eq!(report.numa_factor, numa);
            }
            prop_assert_eq!(host.mapped_pages_in_block(block), block_pages(&model, block));
        }
        prop_assert_eq!(host.mapped_pages(), model.len() as u64);
        for block in (0..4).map(VaBlockId) {
            prop_assert_eq!(host.mapped_pages_in_block(block), block_pages(&model, block));
            let mapped: Vec<PageNum> =
                host.mapped_in(block).iter_set().map(|i| block.page_at(i)).collect();
            let want: Vec<PageNum> = model
                .range(block.first_page()..=block.page_at(511))
                .map(|(p, _)| *p)
                .collect();
            prop_assert_eq!(mapped, want);
            for page in block.pages() {
                prop_assert_eq!(host.is_cpu_mapped(page), model.contains_key(&page));
            }
        }
    }

    /// The GPU page table, which keeps one bitmap per VABlock, agrees with
    /// a per-page set under random block map/unmap sequences over four
    /// blocks: residency of every page, the resident-page count, and each
    /// block's resident bitmap.
    #[test]
    fn gpu_page_table_matches_per_page_model(
        ops in vec((any::<bool>(), 0u64..4, vec(0usize..512, 0..40)), 1..200),
    ) {
        let mut gpu = Gpu::new(GpuSpec::small(1 << 30));
        let mut model: BTreeSet<PageNum> = BTreeSet::new();
        for (map, block, indices) in ops {
            let block = VaBlockId(block);
            let pages: PageBitmap = indices.iter().copied().collect();
            if map {
                gpu.map_block(block, &pages);
                model.extend(indices.iter().map(|&i| block.page_at(i)));
            } else {
                gpu.unmap_block(block, &pages);
                for &i in &indices {
                    model.remove(&block.page_at(i));
                }
            }
            prop_assert_eq!(gpu.resident_pages(), model.len());
        }
        for block in (0..5).map(VaBlockId) {
            let resident: BTreeSet<PageNum> =
                gpu.resident_in(block).iter_set().map(|i| block.page_at(i)).collect();
            let want: BTreeSet<PageNum> =
                model.range(block.first_page()..=block.page_at(511)).copied().collect();
            prop_assert_eq!(resident, want);
            for page in block.pages() {
                prop_assert_eq!(gpu.is_resident(page), model.contains(&page));
            }
        }
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
                warp: u * 2,
                arrival: SimTime(0),
                dup_of_outstanding: false,
            })
            .collect();
        let placements: Vec<(u32, u32)> = pages.iter().map(|&(_, u)| (u * 2, u)).collect();
        let result = classify_duplicates(&batch, &placements);
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
    /// access kind, warp and arrival), identical same-μTLB vs cross-μTLB
    /// duplicate counts and identical distinct SM and μTLB counts, on
    /// arbitrary batches with mixed read/write kinds — and across scratch
    /// reuse. SM ids reach past one bitset word. First-arrival order is
    /// checked against the batch itself, not only against the reference.
    #[test]
    fn dedup_fast_path_matches_reference(
        faults in vec((0u64..48, 0u32..8, any::<bool>(), 0u32..160), 0..300),
        second in vec((0u64..48, 0u32..8, any::<bool>(), 0u32..160), 0..300),
    ) {
        let build = |spec: &[(u64, u32, bool, u32)]| -> Vec<FaultRecord> {
            spec.iter()
                .enumerate()
                .map(|(i, &(p, _, w, _))| FaultRecord {
                    page: PageNum(p),
                    kind: if w { AccessKind::Write } else { AccessKind::Read },
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
            let placements: Vec<(u32, u32)> = spec.iter().map(|&(_, u, _, sm)| (sm, u)).collect();
            let reference = classify_duplicates(&batch, &placements);
            classify_duplicates_with(&batch, &placements, &mut scratch, &mut fast);
            prop_assert_eq!(fast.dup_same_utlb, reference.dup_same_utlb);
            prop_assert_eq!(fast.dup_cross_utlb, reference.dup_cross_utlb);
            let distinct = |ids: Vec<u32>| ids.into_iter().collect::<BTreeSet<u32>>().len() as u32;
            let sms = distinct(placements.iter().map(|p| p.0).collect());
            let utlbs = distinct(placements.iter().map(|p| p.1).collect());
            prop_assert_eq!((reference.distinct_sms, reference.distinct_utlbs), (sms, utlbs));
            prop_assert_eq!((fast.distinct_sms, fast.distinct_utlbs), (sms, utlbs));
            let mut seen = BTreeSet::new();
            let first: Vec<u64> =
                batch.iter().map(|f| f.page.0).filter(|&p| seen.insert(p)).collect();
            prop_assert_eq!(fast.unique.iter().map(|f| f.page.0).collect::<Vec<_>>(), first);
            prop_assert_eq!(fast.unique.len(), reference.unique.len());
            for (f, r) in fast.unique.iter().zip(&reference.unique) {
                prop_assert_eq!(f.page, r.page);
                prop_assert_eq!(f.kind, r.kind);
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
    /// the least recently used, and each evicting request frees exactly
    /// the one block it needs.
    #[test]
    fn lru_manager_invariants(requests in vec(0u64..64, 1..300), capacity in 1u64..16) {
        let mut mm = GpuMemoryManager::new(capacity);
        let mut scratch = EvictScratch::default();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new(); // block -> last seq
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
                    prop_assert_eq!(scratch.victims().len(), 1);
                    for &v in scratch.victims() {
                        // The victim must hold the minimal (seq, id) key.
                        let min = model.iter().map(|(&id, &s)| (s, id)).min().unwrap();
                        prop_assert_eq!((min.1, min.0), (v.0, model[&v.0]));
                        model.remove(&v.0);
                    }
                }
            }
            model.insert(b, seq);
            prop_assert!(model.len() as u64 <= capacity);
            prop_assert_eq!(mm.resident_blocks(), model.len() as u64);
        }
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

    /// Differential check of the event queue against a plain `BinaryHeap`
    /// of `(time, seq, payload)` triples. Deadline deltas range from
    /// same-instant ties up to ~2^40 ns horizons, pops interleave with
    /// schedules and with wake runs (`schedule_run`, which often lands
    /// while an earlier run is still pending), and a mid-sequence
    /// snapshot/restore round-trip must reproduce the exact
    /// `(time, seq, payload)` set — after every step the queue's `pop`,
    /// `len`, and `peek_time` agree with the model.
    #[test]
    fn event_queue_matches_binary_heap_model(
        ops in vec((0u8..4, 0u64..1 << 40, 0u32..41, vec(0u64..1 << 40, 0..12)), 1..250),
    ) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut q: EventQueue<u64> = EventQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
        let mut next_id = 0u64;
        for (op, base, shift, run) in ops {
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
                    // shift 40 forces same-instant ties, shift 0 schedules
                    // up to ~2^40 ns ahead.
                    let t = q.now().as_nanos() + (base >> shift);
                    let (seq, id) = (q.seq(), next_id);
                    q.schedule(SimTime(t), id);
                    heap.push(Reverse((t, seq, id)));
                    next_id += 1;
                }
                2 => {
                    // A wake run: its events take consecutive sequence
                    // numbers in the order given, as `schedule` calls would.
                    // Every other run crowds its events onto four instants,
                    // so a run's leftovers often tie with each other and
                    // with the next run.
                    let now = q.now().as_nanos();
                    let delta = |d: u64| if base % 2 == 0 { d % 4 } else { d >> shift };
                    let events: Vec<(SimTime, u64)> = run
                        .iter()
                        .zip(next_id..)
                        .map(|(&d, id)| (SimTime(now + delta(d)), id))
                        .collect();
                    for (&(at, id), seq) in events.iter().zip(q.seq()..) {
                        heap.push(Reverse((at.as_nanos(), seq, id)));
                    }
                    next_id += events.len() as u64;
                    q.schedule_run(events);
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
                    q = EventQueue::restore(q.now(), q.seq(), entries).expect("restores");
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
                        warp: (arg % 8) as u32,
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
        let mut gpu = Gpu::new(spec);
        let utlbs = gpu.spec.num_utlbs();
        // Request times per μTLB queue, in deposit order.
        let mut model: Vec<Vec<u64>> = vec![Vec::new(); utlbs as usize];
        for (op, utlb, t) in ops {
            let utlb = utlb % utlbs;
            match op {
                0..=4 => {
                    // Request times are not monotone per queue: spurious
                    // re-issues land 10-60 µs after their stall.
                    gpu.gmmu.deposit(utlb, PageNum(t), AccessKind::Read, 0, SimTime(t), op == 4);
                    model[utlb as usize].push(t);
                }
                5 | 6 => {
                    let inserted = gpu.drain_faults(&CostModel::titan_v());
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
        let mut warp = Warp::new();
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
        let no_program = uvm_gpu::isa::WarpProgram::new();
        while let Some(access) = warp.next_access(&no_program) {
            warp.take_access();
            reissued.push(access);
        }
        let mut refaults: Vec<(PageNum, AccessKind)> =
            model.into_iter().filter(|(p, _)| !resident.contains(p)).collect();
        refaults.reverse();
        prop_assert_eq!(reissued, refaults);
    }
}

proptest! {
    /// A warp program, one op per instruction over a single page array,
    /// agrees with a model that keeps each instruction's kind and pages in
    /// its own `Vec`: each op's pages, the access total, the touched-page
    /// set, and the order a warp peeks and takes accesses in. Partway
    /// into each instruction the warp queues refaults and stalls (peeks
    /// without taking, as on a full μTLB); the refaults go first, in
    /// descending page order, and the stalled access stays at the head.
    #[test]
    fn warp_program_matches_a_per_instruction_model(
        instrs in vec((0usize..4, vec(0u64..64, 0..6), 0usize..8, vec(0u64..64, 0..3)), 0..24),
    ) {
        use uvm_gpu::isa::{Instr, WarpProgram};
        use uvm_gpu::warp::Warp;
        use uvm_sim::time::SimDuration;

        let kinds = [AccessKind::Read, AccessKind::Write, AccessKind::Prefetch];
        let mut program = WarpProgram::new();
        let mut model: Vec<(Option<AccessKind>, Vec<PageNum>)> = Vec::new();
        for (k, pages, _, _) in &instrs {
            let pages: Vec<PageNum> = pages.iter().copied().map(PageNum).collect();
            if let Some(&kind) = kinds.get(*k) {
                program.access(kind, pages.iter().copied());
                model.push((Some(kind), pages));
            } else {
                program.delay(SimDuration::from_nanos(pages.len() as u64));
                model.push((None, Vec::new()));
            }
        }
        prop_assert_eq!(program.len(), model.len());
        for (&instr, (kind, pages)) in program.instrs().iter().zip(&model) {
            let got = match instr {
                Instr::Access { kind, .. } => Some(kind),
                Instr::Delay(_) => None,
            };
            prop_assert_eq!(got, *kind);
            prop_assert_eq!(program.pages_of(instr), pages.as_slice());
        }
        prop_assert_eq!(program.total_accesses(), model.iter().map(|(_, p)| p.len()).sum::<usize>());
        let touched: BTreeSet<PageNum> = model.iter().flat_map(|(_, p)| p.iter().copied()).collect();
        prop_assert_eq!(program.touched_pages(), touched.into_iter().collect::<Vec<_>>());

        let mut warp = Warp::new();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (i, ((kind, pages), (_, _, cut, refaults))) in model.iter().zip(&instrs).enumerate() {
            prop_assert_eq!(warp.fetch_next_instr(&program), Some(program.instrs()[i]));
            let cut = (*cut).min(pages.len());
            let kind = kind.unwrap_or(AccessKind::Read);
            want.extend(pages[..cut].iter().map(|&p| (p, kind)));
            let queued: BTreeSet<PageNum> = refaults.iter().copied().map(PageNum).collect();
            want.extend(queued.iter().rev().map(|&p| (p, AccessKind::Read)));
            want.extend(pages[cut..].iter().map(|&p| (p, kind)));
            for _ in 0..cut {
                let access = warp.next_access(&program).expect("the op has pages left");
                warp.take_access();
                got.push(access);
            }
            for &p in &queued {
                warp.note_outstanding(p, AccessKind::Read);
            }
            prop_assert_eq!(warp.apply_replay(|_| false), 0);
            let head = warp.next_access(&program);
            prop_assert_eq!(warp.next_access(&program), head, "a stalled access stays at the head");
            while let Some(access) = warp.next_access(&program) {
                warp.take_access();
                got.push(access);
            }
        }
        prop_assert_eq!(got, want);
        prop_assert!(warp.at_program_end(&program));
        prop_assert_eq!(warp.fetch_next_instr(&program), None);
    }

    /// CPU initialization applied a run at a time, a VABlock per step,
    /// leaves the same host memory and driver VA space (as JSON) as the
    /// same touches applied one page at a time: for every init policy
    /// (striped ones are 1-page runs), over an allocation whose last block
    /// is partial, plus arbitrary read or write runs that cross block
    /// boundaries, with the workload rebased.
    #[test]
    fn cpu_init_runs_match_per_page_touches(
        pages in 1u64..1500,
        which in 0u8..3,
        threads in 0u32..40,
        runs in vec((0u64..1500, 0u64..1100, 0u32..32, any::<bool>()), 0..6),
        offset in 0u64..3,
    ) {
        use uvm_core::RunHints;
        use uvm_workloads::cpu_init::CpuTouch;
        use uvm_workloads::workload::Workload;

        let policy = match which {
            0 => CpuInitPolicy::SingleThread,
            1 => CpuInitPolicy::Chunked { threads },
            _ => CpuInitPolicy::Striped { threads },
        };
        let mut b = Workload::builder("cpu-init");
        let alloc = b.alloc(pages * uvm_core::sim::mem::PAGE_SIZE);
        b.cpu_touches(policy.touches(&alloc));
        b.cpu_touches(runs.iter().map(|&(start, len, core, write)| {
            let start = start % pages;
            CpuTouch { first: alloc.page(start), pages: len.min(pages - start), core, write }
        }));
        let runwise = b.build().rebased(offset);
        let mut per_page = runwise.clone();
        per_page.cpu_init = runwise
            .cpu_init
            .iter()
            .flat_map(|t| (0..t.pages).map(move |i| CpuTouch { first: t.first.offset(i), pages: 1, ..*t }))
            .collect();
        let state = |w: &Workload| {
            let run = UvmSystem::new(SystemConfig::test_small(64 * 1024 * 1024))
                .start(w, &RunHints::default())
                .expect("the run starts");
            let host = serde_json::to_string(run.host()).expect("host encodes");
            let va_space = serde_json::to_string(&run.driver().va_space).expect("VA space encodes");
            (host, va_space)
        };
        prop_assert_eq!(state(&runwise), state(&per_page));
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
        let pages: Vec<PageNum> =
            touches.iter().flat_map(|t| (0..t.pages).map(|i| t.first.offset(i))).collect();
        prop_assert_eq!(pages.len() as u64, alloc.num_pages());
        let distinct: BTreeSet<_> = pages.iter().collect();
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
    /// (1) every page the directory names lies in a registered block's
    /// valid range, (2) no peer-held page is simultaneously GPU-accessible,
    /// (3) no peer holds more blocks than its capacity, and (4) peer
    /// migration conserves pages: everything ever spilled is still held,
    /// was fetched back, or was reclaimed to the host. The directory also
    /// round-trips losslessly through its serde encoding.
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
            // (1) and (3): the restore-time directory check.
            prop_assert_eq!(dir.check(backend.peers(), &driver.va_space), Ok(()));
            for (block, holding) in dir.entries() {
                let state = driver.va_space.block(block);
                let accessible = state.gpu_resident.or(&state.remote_mapped);
                prop_assert!(
                    holding.pages.and(&accessible).is_empty(),
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
    /// totals equal the records' summed `component_ns` by construction.
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
