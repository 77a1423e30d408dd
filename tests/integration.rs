//! Cross-crate integration tests: whole-system invariants that span the
//! GPU model, the driver, and the host-OS substrate.

use uvm_core::{SystemConfig, UvmSystem};
use uvm_driver::policy::DriverPolicy;
use uvm_workloads::cpu_init::CpuInitPolicy;
use uvm_workloads::{fft, gauss_seidel, hpgmg, random, regular, sgemm, stream, vecadd};

const MB: u64 = 1024 * 1024;

/// Every benchmark generator, on a small in-core device: the run completes,
/// every touched page migrates exactly once, and the batch log is
/// internally consistent.
#[test]
fn all_workloads_complete_in_core() {
    let workloads = vec![
        vecadd::build(vecadd::VecAddParams::default()),
        regular::build(regular::RegularParams {
            warps: 32,
            pages_per_warp: 16,
            pages_per_instr: 4,
            cpu_init: Some(CpuInitPolicy::SingleThread),
        }),
        random::build(random::RandomParams {
            warps: 32,
            accesses_per_warp: 16,
            footprint_pages: 4096,
            seed: 7,
            cpu_init: Some(CpuInitPolicy::SingleThread),
        }),
        stream::build(stream::StreamParams {
            warps: 32,
            pages_per_warp: 8,
            iters: 1,
            warps_per_page: 2,
            cpu_init: Some(CpuInitPolicy::Chunked { threads: 4 }),
        }),
        sgemm::build(sgemm::GemmParams {
            n: 512,
            tile: 128,
            elem_size: 4,
            pages_per_instr: 32,
            compute_per_ktile: uvm_sim::time::SimDuration::from_micros(10),
            cpu_init: Some(CpuInitPolicy::SingleThread),
        }),
        fft::build(fft::FftParams {
            chunks: 16,
            pages_per_chunk: 4,
            pages_per_instr: 4,
            compute_per_pass: uvm_sim::time::SimDuration::from_micros(5),
            cpu_init: Some(CpuInitPolicy::SingleThread),
        }),
        gauss_seidel::build(gauss_seidel::GaussSeidelParams {
            rows: 128,
            pages_per_row: 2,
            warps: 16,
            iters: 1,
            compute_per_row: uvm_sim::time::SimDuration::from_micros(1),
            cpu_init: Some(CpuInitPolicy::SingleThread),
        }),
        hpgmg::build(hpgmg::HpgmgParams {
            level0_pages: 256,
            levels: 3,
            vcycles: 1,
            warps: 16,
            pages_per_instr: 8,
            compute_per_phase: uvm_sim::time::SimDuration::from_micros(5),
            cpu_init: Some(CpuInitPolicy::SingleThread),
        }),
    ];

    for w in workloads {
        let touched: std::collections::BTreeSet<_> = w
            .programs
            .iter()
            .flat_map(|p| p.touched_pages())
            .collect();
        let result = UvmSystem::new(SystemConfig::test_small(256 * MB)).run(&w);
        let migrated: u64 = result.records.iter().map(|r| r.pages_migrated).sum();
        assert_eq!(
            migrated,
            touched.len() as u64,
            "{}: every touched page migrates exactly once in-core",
            w.name
        );
        assert!(result.kernel_time.as_nanos() > 0, "{}", w.name);
        assert!(
            result.total_batch_time <= result.kernel_time,
            "{}: batch time {} exceeds kernel time {}",
            w.name,
            result.total_batch_time,
            result.kernel_time
        );
        assert_eq!(result.evictions, 0, "{}: in-core runs must not evict", w.name);
    }
}

/// Batch records are internally consistent for an oversubscribed run with
/// prefetching: timing components sum to the service time, counters are
/// coherent, and records are time-ordered.
#[test]
fn batch_records_are_consistent() {
    let w = stream::build(stream::StreamParams {
        warps: 128,
        pages_per_warp: 16,
        iters: 2,
        warps_per_page: 1,
        cpu_init: Some(CpuInitPolicy::Striped { threads: 8 }),
    });
    let config = SystemConfig::test_small(16 * MB).with_policy(DriverPolicy::with_prefetch());
    let result = UvmSystem::new(config).run(&w);
    assert!(result.evictions > 0, "this run must oversubscribe");

    let mut prev_end = uvm_sim::time::SimTime::ZERO;
    for r in &result.records {
        assert_eq!(r.end - r.start, r.component_sum(), "batch {} component times", r.seq);
        assert!(r.start >= prev_end, "batches never overlap (single worker)");
        prev_end = r.end;
        assert!(r.unique_pages <= r.raw_faults);
        assert_eq!(r.raw_faults, r.read_faults + r.write_faults + r.prefetch_faults);
        assert_eq!(r.total_dups(), r.raw_faults - r.unique_pages);
        assert_eq!(r.num_va_blocks as usize, r.per_block_faults.len());
        assert_eq!(r.num_va_blocks as usize, r.served_blocks.len());
        assert_eq!(r.evictions as usize, r.evicted_blocks.len());
        assert!(r.pages_migrated >= r.prefetched_pages);
        assert!(r.distinct_sms as u64 <= r.raw_faults.max(1));
        let per_block_total: u32 = r.per_block_faults.iter().sum();
        assert_eq!(per_block_total as u64, r.unique_pages);
    }
}

/// The same configuration and workload produce bit-identical batch logs —
/// whole-stack determinism.
#[test]
fn whole_stack_determinism() {
    let mk = || {
        sgemm::build(sgemm::GemmParams {
            n: 512,
            tile: 128,
            elem_size: 4,
            pages_per_instr: 32,
            compute_per_ktile: uvm_sim::time::SimDuration::from_micros(10),
            cpu_init: Some(CpuInitPolicy::SingleThread),
        })
    };
    let r1 = UvmSystem::new(SystemConfig::test_small(8 * MB).with_seed(9)).run(&mk());
    let r2 = UvmSystem::new(SystemConfig::test_small(8 * MB).with_seed(9)).run(&mk());
    assert_eq!(r1.kernel_time, r2.kernel_time);
    assert_eq!(r1.num_batches, r2.num_batches);
    assert_eq!(r1.evictions, r2.evictions);
    let key = |r: &uvm_core::RunResult| -> Vec<(u64, u64, u64, u64)> {
        r.records
            .iter()
            .map(|b| (b.start.as_nanos(), b.raw_faults, b.pages_migrated, b.evictions))
            .collect()
    };
    assert_eq!(key(&r1), key(&r2));
}

/// Eviction keeps the device within its physical capacity at every step,
/// and evicted data is re-migrated on demand (no lost pages).
#[test]
fn eviction_preserves_data_and_capacity() {
    let w = stream::build(stream::StreamParams {
        warps: 64,
        pages_per_warp: 32,
        iters: 2,
        warps_per_page: 1,
        cpu_init: Some(CpuInitPolicy::SingleThread),
    });
    // 24 MiB footprint, 8 MiB device.
    let config = SystemConfig::test_small(8 * MB);
    let capacity_blocks = config.capacity_blocks();
    let result = UvmSystem::new(config).run(&w);
    assert!(result.evictions > 0);

    // Replay the residency bookkeeping from the batch log. Within a batch,
    // serves and evictions interleave (a block can be migrated and then
    // evicted by a later block's allocation in the same batch), so the
    // invariants are checked at batch granularity.
    let mut resident: std::collections::HashSet<u64> = std::collections::HashSet::new();
    for r in &result.records {
        let before = resident.clone();
        for &b in &r.served_blocks {
            resident.insert(b);
        }
        for &b in &r.evicted_blocks {
            assert!(
                before.contains(&b) || r.served_blocks.contains(&b),
                "batch {} evicted block {} that was never resident",
                r.seq,
                b
            );
            resident.remove(&b);
        }
        assert!(
            resident.len() as u64 <= capacity_blocks,
            "batch {}: {} blocks resident exceeds capacity {}",
            r.seq,
            resident.len(),
            capacity_blocks
        );
    }
    // Iter 2 re-touches everything: total migrations exceed the footprint.
    let migrated: u64 = result.records.iter().map(|r| r.pages_migrated).sum();
    assert!(migrated > w.footprint_pages(), "evicted pages re-migrated");
}

/// The explicit-management baseline beats UVM end to end and performs no
/// driver work at all.
#[test]
fn explicit_baseline_is_faster_and_fault_free() {
    let mk = || {
        stream::build(stream::StreamParams {
            warps: 64,
            pages_per_warp: 8,
            iters: 1,
            warps_per_page: 1,
            cpu_init: Some(CpuInitPolicy::SingleThread),
        })
    };
    let uvm = UvmSystem::new(SystemConfig::test_small(64 * MB)).run(&mk());
    let explicit = UvmSystem::new(SystemConfig::test_small(64 * MB)).run_explicit(&mk());
    assert_eq!(explicit.num_batches, 0);
    assert_eq!(explicit.total_faults_inserted, 0);
    assert!(explicit.upfront_copy_time.as_nanos() > 0);
    let explicit_total = explicit.kernel_time + explicit.upfront_copy_time;
    assert!(
        explicit_total.as_nanos() * 5 < uvm.kernel_time.as_nanos(),
        "explicit ({explicit_total}) should be >5x faster than UVM ({})",
        uvm.kernel_time
    );
}

/// Host OS accounting: unmap happens once per CPU-initialized VABlock in a
/// single-pass in-core run, and never for GPU-only (output) data.
#[test]
fn unmap_accounting_matches_cpu_touched_blocks() {
    let w = stream::build(stream::StreamParams {
        warps: 32,
        pages_per_warp: 16,
        iters: 1,
        warps_per_page: 1,
        cpu_init: Some(CpuInitPolicy::SingleThread),
    });
    let result = UvmSystem::new(SystemConfig::test_small(64 * MB)).run(&w);
    // a and b are CPU-initialized; c is GPU-written only.
    let unmapped_pages: u64 = result.records.iter().map(|r| r.cpu_pages_unmapped).sum();
    assert_eq!(unmapped_pages, 2 * 32 * 16, "exactly a+b pages unmapped");
    // Transfer bytes: only a and b move data; c is populate-only.
    assert_eq!(result.total_bytes_migrated(), 2 * 32 * 16 * 4096);
}

/// Ablation: disabling dedup makes runs slower, never faster.
#[test]
fn dedup_ablation_costs_time() {
    let mk = || {
        stream::build(stream::StreamParams {
            warps: 128,
            pages_per_warp: 8,
            iters: 1,
            warps_per_page: 4,
            cpu_init: Some(CpuInitPolicy::SingleThread),
        })
    };
    let on = UvmSystem::new(SystemConfig::test_small(64 * MB)).run(&mk());
    let off = UvmSystem::new(
        SystemConfig::test_small(64 * MB).with_policy(DriverPolicy::default().dedup(false)),
    )
    .run(&mk());
    assert!(
        off.total_batch_time >= on.total_batch_time,
        "dedup-off must not be faster: {} vs {}",
        off.total_batch_time,
        on.total_batch_time
    );
}
