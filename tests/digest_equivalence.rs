//! Streamed state digests equal the `Value`-tree walk they replace.
//!
//! `serde::digest(&x)` streams a value's digest straight from its fields;
//! `digest_value(&x.to_value())` builds the tree and walks it. Run keys,
//! checkpoint workload digests and the per-subsystem divergence digests
//! all use the streamed form, so it must agree bit for bit with the tree
//! walk on every kind of state the simulator digests: each workload
//! generator, system configs, the live subsystem models of a paused run
//! under every servicing backend, a GPU with faults mid-arbitration, and a
//! finished run's result.

use serde::{Deserialize, Serialize};
use uvm_core::experiments::suite::Bench;
use uvm_core::{
    compose, ClientSpec, InterleaveMode, Progress, RunHints, Scenario, SystemConfig, UvmSystem,
};
use uvm_driver::backend::BackendKind;
use uvm_driver::clients::FairnessPolicy;
use uvm_gpu::device::Gpu;
use uvm_gpu::gmmu::Gmmu;
use uvm_sim::inject::{FaultPlan, InjectionPoint, PointPlan};
use uvm_sim::snapshot::digest_value;
use uvm_sim::time::{SimDuration, SimTime};
use uvm_workloads::cpu_init::CpuInitPolicy;
use uvm_workloads::workload::Workload;
use uvm_workloads::{attention, gauss_seidel, graph_bfs, random, stream, vecadd};

const MB: u64 = 1024 * 1024;

fn assert_streams_like_the_tree<T: Serialize>(what: &str, x: &T) {
    assert_eq!(
        serde::digest(x),
        digest_value(&x.to_value()),
        "streamed digest of {what} differs from its Value walk"
    );
}

fn small_stream() -> Workload {
    stream::build(stream::StreamParams {
        warps: 32,
        pages_per_warp: 8,
        iters: 1,
        warps_per_page: 4,
        cpu_init: Some(CpuInitPolicy::SingleThread),
    })
}

#[test]
fn every_workload_generator_streams_like_the_tree() {
    for bench in Bench::table_suite() {
        assert_streams_like_the_tree(bench.name(), &bench.build());
    }
    let init = Some(CpuInitPolicy::SingleThread);
    let workloads = [
        small_stream(),
        gauss_seidel::build(gauss_seidel::GaussSeidelParams {
            rows: 256,
            pages_per_row: 4,
            warps: 16,
            iters: 2,
            compute_per_row: SimDuration::from_micros(2),
            cpu_init: init,
        }),
        graph_bfs::build(graph_bfs::GraphBfsParams {
            vertices: 1024,
            vdata_bytes: 1024,
            max_levels: 4,
            ..graph_bfs::GraphBfsParams::default()
        }),
        attention::build(attention::AttentionParams {
            kv_rows: 512,
            batches: 2,
            queries_per_batch: 4,
            hot_rows: 32,
            ..attention::AttentionParams::default()
        }),
        random::build(random::RandomParams {
            warps: 16,
            accesses_per_warp: 16,
            footprint_pages: 2048,
            seed: 7,
            cpu_init: init,
        }),
    ];
    for w in &workloads {
        assert_streams_like_the_tree(&w.name, w);
    }

    let (composed, tenancy) = compose(
        &[
            ClientSpec::new("stream", small_stream()),
            ClientSpec::new("vecadd", vecadd::build(vecadd::VecAddParams::default()))
                .with_weight(3),
        ],
        InterleaveMode::TimeSlice,
        FairnessPolicy::WeightedShare,
    );
    assert_streams_like_the_tree("a composed two-client workload", &composed);
    assert_streams_like_the_tree("a tenancy config", &tenancy);
}

#[test]
fn system_configs_stream_like_the_tree() {
    for backend in BackendKind::ALL {
        let config = SystemConfig::test_small(16 * MB).with_backend(backend);
        assert_streams_like_the_tree(backend.name(), &config);
    }
    assert_streams_like_the_tree("the Titan V config", &SystemConfig::titan_v());

    let (_, tenancy) = compose(
        &[
            ClientSpec::new("a", small_stream()),
            ClientSpec::new("b", small_stream()),
        ],
        InterleaveMode::Coschedule,
        FairnessPolicy::FaultQuota(16),
    );
    let plan = FaultPlan::uniform(0.02).with(
        InjectionPoint::GpuReset,
        PointPlan::scheduled(uvm_sim::time::SimTime(1_000), 2),
    );
    assert!(plan.is_enabled());
    let config = SystemConfig::test_small(16 * MB)
        .with_tenancy(tenancy)
        .with_fault_plan(plan)
        .with_seed(0xD16E57);
    assert_streams_like_the_tree("a tenancy config with a fault plan", &config);
}

/// The first scenario of a fixed campaign that draws `backend`.
fn scenario_with(backend: BackendKind) -> Scenario {
    (0..10_000)
        .map(|i| Scenario::generate(0xD16E57, i))
        .find(|s| s.backend == backend)
        .expect("the campaign draws every backend")
}

#[test]
fn paused_run_state_streams_like_the_tree_under_every_backend() {
    for backend in BackendKind::ALL {
        let scenario = scenario_with(backend);
        let workload = scenario.workload.build();
        assert_streams_like_the_tree("a chaos scenario", &scenario);
        let mut run = UvmSystem::new(scenario.config())
            .start(&workload, &RunHints::default())
            .expect("run starts");
        // Pause after six batches, or earlier where the scenario's fault
        // plan ends the run (its state is digested all the same).
        for _ in 0..6 {
            if !matches!(run.advance_batch(&workload), Ok(Progress::Batch(_))) {
                break;
            }
        }
        let name = backend.name();
        assert_streams_like_the_tree(&format!("{name} gpu"), run.gpu());
        assert_streams_like_the_tree(&format!("{name} driver"), run.driver());
        assert_streams_like_the_tree(&format!("{name} host"), run.host());
        // The snapshot digests every subsystem (run state included) from
        // its Value tree; the divergence detector's digests are streamed.
        let snap = run.snapshot(&workload, 0);
        assert_eq!(run.subsystem_digests(), snap.digests, "{name}");
        assert_eq!(
            snap.workload_digest,
            digest_value(&workload.to_value()),
            "{name}"
        );
    }
}

/// A run pauses only between batches, right after the GMMU was drained,
/// so the paused states above never hold faults in GMMU arbitration.
/// Step a scenario's warps by hand instead, so the hand-written `Gmmu`
/// serializer streams non-empty μTLB queues, and check that a reload
/// rebuilds the GMMU's maintained values.
#[test]
fn gpu_with_faults_in_flight_streams_like_the_tree() {
    for backend in BackendKind::ALL {
        let scenario = scenario_with(backend);
        let config = scenario.config();
        let workload = scenario.workload.build();
        let mut gpu = Gpu::new_seeded(config.gpu.clone(), config.cost.clone(), config.seed);
        for wid in gpu.launch(workload.programs.clone()) {
            gpu.step_warp(wid, SimTime::ZERO);
        }
        let name = backend.name();
        assert!(gpu.gmmu.pending() > 0, "{name}: no faults in flight");
        assert_streams_like_the_tree(&format!("{name} gpu mid-arbitration"), &gpu);
        assert_streams_like_the_tree(&format!("{name} gmmu"), &gpu.gmmu);
        let loaded = Gmmu::from_value(&gpu.gmmu.to_value()).expect("gmmu reloads");
        assert_eq!(
            (loaded.pending(), loaded.earliest_request()),
            (gpu.gmmu.pending(), gpu.gmmu.earliest_request()),
            "{name}"
        );
        assert_eq!(serde::digest(&loaded), serde::digest(&gpu.gmmu), "{name}");
    }
}

#[test]
fn run_result_streams_like_the_tree() {
    let workload = small_stream();
    let result = UvmSystem::new(SystemConfig::test_small(2 * MB)).run(&workload);
    assert!(result.evictions > 0, "the run oversubscribes");
    assert_streams_like_the_tree("a run result", &result);
}
