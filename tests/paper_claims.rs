//! End-to-end verification of the paper's headline claims, each tied to
//! the section that makes it. These run at reduced scale; the full-scale
//! regeneration lives in `crates/bench` (`cargo run --release -p uvm-bench
//! --bin paper`).

use uvm_core::experiments::grid::find;
use uvm_core::experiments::{ext_policy, golden_form};
use uvm_core::{SystemConfig, UvmSystem};
use uvm_driver::policy::DriverPolicy;
use uvm_workloads::cpu_init::CpuInitPolicy;
use uvm_workloads::prefetch_ub::{self, PrefetchUbParams};
use uvm_workloads::vecadd::{self, VecAddParams};

const MB: u64 = 1024 * 1024;

/// Sec. 3.2: "The maximum number of outstanding faults per μTLB is 56" —
/// the first vector-addition batch holds exactly 56 faults (all of A's
/// reads plus most of B's).
#[test]
fn claim_utlb_limit_is_56() {
    let result = UvmSystem::new(SystemConfig::test_small(64 * MB))
        .run(&vecadd::build(VecAddParams::default()));
    assert_eq!(result.records[0].raw_faults, 56);
    assert_eq!(result.records[0].read_faults, 56);
    assert_eq!(result.records[1].raw_faults, 8, "the remaining B reads follow");
}

/// Sec. 3.2 / Listing 2: "no write accesses can execute until all 64
/// prerequisite reads have been fulfilled."
#[test]
fn claim_writes_wait_for_reads() {
    let result = UvmSystem::new(SystemConfig::test_small(64 * MB))
        .run(&vecadd::build(VecAddParams::default()));
    let first_write_batch = result
        .records
        .iter()
        .find(|r| r.write_faults > 0)
        .expect("writes fault")
        .seq;
    let reads_before: u64 = result
        .records
        .iter()
        .take_while(|r| r.seq < first_write_batch)
        .map(|r| r.read_faults)
        .sum();
    assert!(reads_before >= 64, "all 64 statement-1 reads precede any write");
}

/// Sec. 3.2 / Fig. 5: prefetch instructions escape the μTLB limit — a
/// single warp fills a batch to the software limit, and the excess is
/// dropped by the flush before replay (44 drops). With the flush off the
/// overflow is still there: the first batch is still the 256-fault limit,
/// and nothing is flushed.
#[test]
fn claim_prefetch_fills_batch() {
    let run = |flush: bool| {
        UvmSystem::new(
            SystemConfig::test_small(64 * MB).with_policy(DriverPolicy::default().flush(flush)),
        )
        .run(&prefetch_ub::build(PrefetchUbParams::default()))
    };
    let (on, off) = (run(true), run(false));
    assert_eq!(on.records[0].raw_faults, 256);
    assert!(on.flush_drops >= 44);
    assert_eq!(
        off.records[0].raw_faults, 256,
        "flush off keeps the overflow"
    );
    assert_eq!(off.flush_drops, 0);
}

/// Sec. 4.1 / Fig. 7: data transfer is not the dominant batch cost.
#[test]
fn claim_transfer_is_minority_cost() {
    let w = uvm_workloads::sgemm::build(uvm_workloads::sgemm::GemmParams {
        n: 1024,
        tile: 128,
        elem_size: 4,
        pages_per_instr: 32,
        compute_per_ktile: uvm_sim::time::SimDuration::from_micros(20),
        cpu_init: Some(CpuInitPolicy::SingleThread),
    });
    let result = UvmSystem::new(SystemConfig::test_small(64 * MB)).run(&w);
    let max_fraction = result
        .records
        .iter()
        .map(|r| r.transfer_fraction())
        .fold(0.0, f64::max);
    assert!(max_fraction < 0.35, "transfer stays a minority: {max_fraction:.2}");
}

/// Sec. 4.1 / Fig. 7: faster interconnect hardware would help, but it does
/// not fix the management-dominated cost. On a small in-core stream with
/// 16x the host-device bandwidth, the summed transfer time falls from
/// 302,768 to 138,928 ns, yet the kernel only goes from 4,475,295 to
/// 4,311,455 ns (3.7 % faster).
#[test]
fn claim_faster_interconnect_does_not_fix_management_cost() {
    let w = uvm_workloads::stream::build(uvm_workloads::stream::StreamParams {
        warps: 64,
        pages_per_warp: 8,
        iters: 1,
        warps_per_page: 2,
        cpu_init: Some(CpuInitPolicy::SingleThread),
    });
    let run = |factor: f64| {
        let mut config = SystemConfig::test_small(64 * MB);
        config.cost.h2d_bandwidth *= factor;
        config.cost.d2h_bandwidth *= factor;
        let result = UvmSystem::new(config).run(&w);
        let transfer: u64 = result.records.iter().map(|r| r.t_transfer.as_nanos()).sum();
        (result.kernel_time.as_nanos(), transfer)
    };
    let (kernel, transfer) = run(1.0);
    let (fast_kernel, fast_transfer) = run(16.0);
    assert!(
        fast_transfer * 10 < transfer * 6,
        "16x bandwidth must cut transfer time by over 40 %: {transfer} -> {fast_transfer} ns"
    );
    assert!(
        fast_kernel * 10 > kernel * 9,
        "but speed the kernel up by under 10 %: {kernel} -> {fast_kernel} ns"
    );
}

/// Sec. 4.2 / Fig. 9: larger batch limits beat smaller ones (the per-batch
/// overhead outweighs extra duplicates).
#[test]
fn claim_larger_batches_are_faster() {
    let mk = || {
        uvm_workloads::stream::build(uvm_workloads::stream::StreamParams {
            warps: 256,
            pages_per_warp: 8,
            iters: 1,
            warps_per_page: 1,
            cpu_init: Some(CpuInitPolicy::SingleThread),
        })
    };
    let small = UvmSystem::new(
        SystemConfig::test_small(64 * MB).with_policy(DriverPolicy::default().batch_limit(32)),
    )
    .run(&mk());
    let large = UvmSystem::new(
        SystemConfig::test_small(64 * MB).with_policy(DriverPolicy::default().batch_limit(256)),
    )
    .run(&mk());
    assert!(
        large.kernel_time < small.kernel_time,
        "batch 256 ({}) beats batch 32 ({})",
        large.kernel_time,
        small.kernel_time
    );
    assert!(large.num_batches < small.num_batches);
}

/// Sec. 4.4 / Fig. 11: multithreaded CPU initialization inflates the
/// fault-path unmap cost.
#[test]
fn claim_multithreaded_init_inflates_unmap() {
    let run = |policy: CpuInitPolicy| {
        let w = uvm_workloads::stream::build(uvm_workloads::stream::StreamParams {
            warps: 64,
            pages_per_warp: 16,
            iters: 1,
            warps_per_page: 1,
            cpu_init: Some(policy),
        });
        let result = UvmSystem::new(SystemConfig::test_small(64 * MB)).run(&w);
        result.records.iter().map(|r| r.t_unmap.as_nanos()).sum::<u64>()
    };
    let single = run(CpuInitPolicy::SingleThread);
    let striped = run(CpuInitPolicy::Striped { threads: 16 });
    assert!(
        striped as f64 > single as f64 * 1.5,
        "striped unmap {striped}ns vs single {single}ns"
    );
}

/// Sec. 5.1 / Fig. 13: a block evicted once and paged back in does not pay
/// the unmap cost a second time.
#[test]
fn claim_remigration_skips_unmap() {
    let w = uvm_workloads::stream::build(uvm_workloads::stream::StreamParams {
        warps: 64,
        pages_per_warp: 32,
        iters: 2,
        warps_per_page: 1,
        cpu_init: Some(CpuInitPolicy::SingleThread),
    });
    let result = UvmSystem::new(SystemConfig::test_small(8 * MB)).run(&w);
    assert!(result.evictions > 0);
    // Unmap calls are bounded by the number of CPU-initialized blocks: the
    // re-migrations in iteration 2 add none.
    let a_b_blocks = 2 * w.allocations[0].num_va_blocks();
    let unmapping_batches: u64 = result
        .records
        .iter()
        .map(|r| if r.cpu_pages_unmapped > 0 { r.num_va_blocks } else { 0 })
        .sum();
    assert!(
        unmapping_batches <= a_b_blocks * 2,
        "unmap happens only on first touches"
    );
    let unmapped: u64 = result.records.iter().map(|r| r.cpu_pages_unmapped).sum();
    assert_eq!(
        unmapped,
        2 * w.allocations[0].num_pages(),
        "each CPU page is unmapped exactly once across the whole run"
    );
}

/// Sec. 5.2 / Fig. 14: prefetching eliminates most batches but cannot
/// remove the compulsory first-touch DMA-setup batches.
#[test]
fn claim_prefetch_cannot_remove_dma_setup() {
    let mk = || {
        uvm_workloads::stream::build(uvm_workloads::stream::StreamParams {
            warps: 64,
            pages_per_warp: 32,
            iters: 1,
            warps_per_page: 1,
            cpu_init: Some(CpuInitPolicy::SingleThread),
        })
    };
    let base = UvmSystem::new(SystemConfig::test_small(64 * MB)).run(&mk());
    let pf = UvmSystem::new(
        SystemConfig::test_small(64 * MB).with_policy(DriverPolicy::with_prefetch()),
    )
    .run(&mk());
    assert!(pf.num_batches < base.num_batches);
    // Every VABlock still pays DMA setup exactly once, prefetch or not.
    let dma_blocks = |r: &uvm_core::RunResult| -> u64 {
        r.records.iter().map(|b| b.new_va_blocks).sum()
    };
    assert_eq!(dma_blocks(&base), dma_blocks(&pf));
    assert_eq!(dma_blocks(&pf), mk().footprint_blocks());
}

/// Sec. 5.3 (citing prior work): "the combination of prefetching and
/// eviction can harm performance for applications with irregular access
/// patterns" — for oversubscribed uniform-random access, prefetching's
/// density heuristic finds no locality worth expanding, and what it does
/// prefetch is evicted before its (random) reuse: no meaningful win, in
/// contrast to the multi-x speedups of the regular apps (Table 4).
#[test]
fn claim_prefetch_does_not_rescue_irregular_apps() {
    let w = uvm_workloads::random::build(uvm_workloads::random::RandomParams {
        warps: 128,
        accesses_per_warp: 64,
        footprint_pages: 16 * 1024,
        seed: 5,
        cpu_init: Some(CpuInitPolicy::SingleThread),
    });
    let mem = w.footprint_bytes() / 2; // 200% oversubscription
    let base = UvmSystem::new(SystemConfig::test_small(mem)).run(&w);
    let pf = UvmSystem::new(
        SystemConfig::test_small(mem).with_policy(DriverPolicy::with_prefetch()),
    )
    .run(&w);
    let speedup = base.kernel_time.as_nanos() as f64 / pf.kernel_time.as_nanos().max(1) as f64;
    assert!(
        speedup < 1.5,
        "prefetch should not rescue uniform-random access under eviction: {speedup:.2}x"
    );
    assert!(pf.evictions > 0 && base.evictions > 0);
}

/// Sec. 5.2 / Figs. 14–16, through the pluggable policy engine: one quick
/// policy × workload grid (the same cells `paper sweep --quick` renders
/// and the `ext_policy_quick.txt` golden pins) carries three claims:
///
/// 1. Fig. 14: for dense access (the Gauss-Seidel row sweep), the tree
///    density prefetcher collapses the batch count and speeds the kernel —
///    the locality is exactly what the density heuristic detects.
/// 2. Sec. 5.3 (citing Ganguly et al.): for irregular pointer-chasing
///    access (graph BFS) under oversubscription, the same prefetcher finds
///    nothing to expand — no meaningful batch reduction, no speedup, and
///    at least as many pages migrated (the churn Fig. 15's combined
///    eviction + prefetching panels warn about).
/// 3. The oracle prefetcher (perfect future knowledge) is the upper bound
///    reactive and learned schemes chase: on every workload it needs the
///    fewest batches and the least kernel time of any prefetcher.
#[test]
fn claim_policy_grid_matches_section_5_2() {
    let sweep = ext_policy::sweep(true);
    let grid = sweep.run(0x5C21);
    // The same cells render byte-for-byte to the checked-in quick golden.
    assert_eq!(
        golden_form(&sweep.render(&grid)),
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/src/experiments/golden/ext_policy_quick.txt"
        ))
    );
    let cell = |w: &str, p: &str| find(&grid, w, &[p, "lru"]).expect("grid cell exists");

    // (1) Dense: tree collapses batches and speeds the kernel.
    let (dense_none, dense_tree) = (cell("gauss-seidel", "none"), cell("gauss-seidel", "tree"));
    assert!(
        dense_tree.batches * 4 < dense_none.batches,
        "tree should collapse dense batches: {} vs {}",
        dense_tree.batches,
        dense_none.batches
    );
    assert!(dense_tree.kernel_ms < dense_none.kernel_ms);

    // (2) Irregular: tree neither reduces batches meaningfully nor speeds
    // the kernel, and migrates at least as much data.
    let (bfs_none, bfs_tree) = (cell("graph-bfs", "none"), cell("graph-bfs", "tree"));
    assert!(
        bfs_tree.batches * 20 >= bfs_none.batches * 19,
        "tree should not meaningfully cut irregular batches: {} vs {}",
        bfs_tree.batches,
        bfs_none.batches
    );
    assert!(
        bfs_tree.kernel_ms >= bfs_none.kernel_ms * 0.9,
        "no speedup on pointer-chasing access: {:.2} vs {:.2}",
        bfs_tree.kernel_ms,
        bfs_none.kernel_ms
    );
    assert!(bfs_tree.pages_migrated >= bfs_none.pages_migrated);

    // (3) Oracle is the per-workload upper bound across prefetchers.
    for w in ["vecadd", "gauss-seidel", "graph-bfs", "attention"] {
        let oracle = cell(w, "oracle");
        for p in ["none", "tree", "stride"] {
            let other = cell(w, p);
            assert!(
                oracle.kernel_ms <= other.kernel_ms,
                "{w}: oracle {:.2} ms beaten by {p} {:.2} ms",
                oracle.kernel_ms,
                other.kernel_ms
            );
            assert!(oracle.batches <= other.batches, "{w}: oracle batches vs {p}");
        }
    }
}

/// Sec. 4.4 + Sec. 7 (GPU-driven servicing, cf. GPUVM): moving fault
/// servicing onto the GPU removes the host unmap/IPI work from the fault
/// path *entirely* — not merely shrinks it. Under the stock CPU driver
/// every CPU-initialized first touch pays `unmap_mapping_range`; under
/// the GPU-driven backend the unmap component of every single batch is
/// exactly zero, while the state transition itself still happens (the
/// same pages are unmapped from the CPU page tables off the critical
/// path, so the audit's mapping invariants hold unchanged).
#[test]
fn claim_gpu_driven_backend_removes_host_unmap_entirely() {
    use uvm_driver::backend::BackendKind;

    let mk = || {
        uvm_workloads::stream::build(uvm_workloads::stream::StreamParams {
            warps: 64,
            pages_per_warp: 16,
            iters: 1,
            warps_per_page: 1,
            cpu_init: Some(CpuInitPolicy::SingleThread),
        })
    };
    let run = |backend: BackendKind| {
        UvmSystem::new(SystemConfig::test_small(64 * MB).with_backend(backend)).run(&mk())
    };
    let cpu = run(BackendKind::CpuDriver);
    let gpu = run(BackendKind::GpuDriven);

    let unmap_ns =
        |r: &uvm_core::RunResult| r.records.iter().map(|b| b.t_unmap.as_nanos()).sum::<u64>();
    assert!(unmap_ns(&cpu) > 0, "stock driver pays unmap on first touches");
    assert_eq!(unmap_ns(&gpu), 0, "GPU-driven servicing has no host unmap component");
    for b in &gpu.records {
        assert_eq!(b.t_unmap.as_nanos(), 0, "batch {}: unmap must be zero", b.seq);
    }
    // The unmap *state transition* still happens — same page count as the
    // stock driver — it just costs nothing on the fault path.
    let unmapped =
        |r: &uvm_core::RunResult| r.records.iter().map(|b| b.cpu_pages_unmapped).sum::<u64>();
    assert_eq!(unmapped(&gpu), unmapped(&cpu));
    assert!(unmapped(&gpu) > 0);
}

/// Sec. 5.1 + Sec. 7 (multi-GPU far faults): servicing a far fault from
/// a peer GPU's memory over the interconnect is cheaper than fetching
/// from host sysmem, but costlier than a local hit. Checked both at the
/// cost-model level (the per-byte ordering the backends are built on)
/// and end-to-end: an oversubscribed re-walk is faster when capacity
/// victims spill to a peer than when they write back to the host, and
/// both are slower than the same workload with no capacity pressure.
#[test]
fn claim_peer_far_fault_sits_between_local_hit_and_sysmem_fetch() {
    use uvm_driver::backend::BackendKind;
    use uvm_sim::time::SimDuration;

    // Cost-model ordering: local hit (no transfer) < peer fetch < host fetch.
    let cost = SystemConfig::test_small(8 * MB).cost;
    let bytes = 64 * 1024;
    assert!(cost.p2p_time(bytes) > SimDuration::ZERO);
    assert!(
        cost.p2p_time(bytes) < cost.h2d_time(bytes),
        "peer fetch must undercut sysmem fetch: {:?} vs {:?}",
        cost.p2p_time(bytes),
        cost.h2d_time(bytes)
    );

    // End-to-end: two iterations over an oversubscribed footprint force
    // iteration 2 to re-fault evicted pages — from a peer under the peer
    // backend, from host sysmem under the stock driver.
    let mk = || {
        uvm_workloads::stream::build(uvm_workloads::stream::StreamParams {
            warps: 64,
            pages_per_warp: 32,
            iters: 2,
            warps_per_page: 1,
            cpu_init: Some(CpuInitPolicy::SingleThread),
        })
    };
    let run = |mem: u64, backend: BackendKind| {
        UvmSystem::new(SystemConfig::test_small(mem).with_backend(backend)).run(&mk())
    };
    let sysmem = run(8 * MB, BackendKind::CpuDriver);
    let peer = run(8 * MB, BackendKind::MultiGpuPeer2);
    let local = run(64 * MB, BackendKind::MultiGpuPeer2);

    assert!(sysmem.evictions > 0 && peer.evictions > 0);
    let from_peer: u64 = peer.records.iter().map(|r| r.bytes_from_peer).sum();
    assert!(from_peer > 0, "iteration 2 must re-fault peer-held pages");
    assert_eq!(local.evictions, 0, "the local-hit baseline must not evict");
    assert!(
        peer.kernel_time < sysmem.kernel_time,
        "peer far faults beat sysmem fetches: {} vs {}",
        peer.kernel_time,
        sysmem.kernel_time
    );
    assert!(
        local.kernel_time < peer.kernel_time,
        "local hits beat peer far faults: {} vs {}",
        local.kernel_time,
        peer.kernel_time
    );
}

/// Sec. 6 "Driver Serialization" / Table 3: a driver that serviced each
/// batch's VABlocks in parallel would be capped by how few blocks a batch
/// touches and how unevenly the faults spread over them. Model each
/// batch's parallel time as `service_time × max_block_faults /
/// total_faults` (the largest block's share is the critical path) and sum
/// it against the serial time. At Table 3's scale (768 MiB, seed 0x5C21)
/// sgemm reaches 1.82x at 2.68 blocks per batch and gauss-seidel 1.99x at
/// 2.01.
#[test]
fn claim_per_vablock_parallel_driver_is_capped_by_block_counts() {
    use uvm_core::experiments::suite::{experiment_config, Bench};

    for bench in [Bench::Sgemm, Bench::GaussSeidel] {
        let result = UvmSystem::new(experiment_config(768).with_seed(0x5C21)).run(&bench.build());
        let (mut serial, mut parallel) = (0.0, 0.0);
        for r in &result.records {
            let t = r.service_time().as_nanos() as f64;
            let total: u32 = r.per_block_faults.iter().sum();
            let max = r.per_block_faults.iter().copied().max().unwrap_or(0);
            serial += t;
            parallel += if total > 0 {
                t * f64::from(max) / f64::from(total)
            } else {
                t
            };
        }
        let speedup = serial / parallel;
        assert!(
            speedup > 1.0 && speedup < 2.5,
            "{}: per-VABlock parallel speedup {speedup:.2}x",
            bench.name()
        );
    }
}

/// Sec. 6 "Driver Serialization": the GPU is generally stalled during
/// driver fault processing — kernel time is dominated by batch time for
/// fault-heavy runs.
#[test]
fn claim_driver_is_the_bottleneck() {
    let w = uvm_workloads::stream::build(uvm_workloads::stream::StreamParams {
        warps: 64,
        pages_per_warp: 32,
        iters: 1,
        warps_per_page: 1,
        cpu_init: Some(CpuInitPolicy::SingleThread),
    });
    let result = UvmSystem::new(SystemConfig::test_small(64 * MB)).run(&w);
    let ratio =
        result.total_batch_time.as_nanos() as f64 / result.kernel_time.as_nanos() as f64;
    assert!(
        ratio > 0.5,
        "batch servicing should dominate a fault-heavy kernel: {ratio:.2}"
    );
}
