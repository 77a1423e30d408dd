//! # uvm-bench — experiment registry and the `paper` harness
//!
//! * `cargo run --release -p uvm-bench --bin paper` regenerates every table
//!   and figure of the paper at full experiment scale (optionally dumping
//!   JSON with `--json <dir>`, or fanning independent experiments across
//!   worker threads with `--jobs N` — stdout stays byte-identical).
//! * `cargo run --release -p uvm-bench --bin paper bench --out BENCH_uvm.json`
//!   writes the machine-readable perf baseline: per-experiment serial wall
//!   times, the suite-level serial vs parallel comparison, and hand-rolled
//!   hot-loop micro timings ([`perf`]); `cargo run --release -p uvm-bench
//!   --example microtime [reps]` prints just the micro timings.
//!
//! The experiment registry lives here (not in the binary) so integration
//! tests can execute the exact registry the `paper` binary ships — e.g.
//! asserting that `--jobs 1` and `--jobs 4` render byte-identical output.

use std::time::Instant;

use uvm_core::experiments::*;
use uvm_core::parallel;

/// The seed every experiment runs under (the harness-wide default).
pub const SEED: u64 = 0x5C21;

/// One registered experiment: a stable id, the banner title, and a runner
/// returning the rendered text plus the raw result as JSON.
pub struct Experiment {
    /// Stable id (`fig3`, `table4`, `ext-hints`, ...).
    pub id: &'static str,
    /// Human banner title, printed above the rendered text.
    pub title: &'static str,
    /// Run the experiment at [`SEED`].
    pub run: fn() -> (String, serde_json::Value),
}

fn exp<R: serde::Serialize>(
    f: fn(u64) -> R,
    render: fn(&R) -> String,
) -> (String, serde_json::Value) {
    let r = f(SEED);
    (render(&r), serde_json::to_value(&r).expect("serializable result"))
}

/// Run an extension grid at [`SEED`]: the rendered tables plus the cells
/// as JSON.
pub fn run_grid(sweep: &grid::Sweep) -> (String, serde_json::Value) {
    let cells = sweep.run(SEED);
    (sweep.render(&cells), serde_json::to_value(&cells).expect("serializable result"))
}

/// Every experiment, in paper order.
pub fn experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig1",
            title: "Fig. 1  — UVM vs explicit-management access latency",
            run: || exp(fig01_latency::run, |r| r.render()),
        },
        Experiment {
            id: "fig3",
            title: "Figs. 3/4 — vecadd fault batches and arrival timeline",
            run: || exp(fig03_vecadd::run, |r| r.render()),
        },
        Experiment {
            id: "fig5",
            title: "Fig. 5  — single-warp prefetch fills a batch",
            run: || exp(fig05_prefetch_ub::run, |r| r.render()),
        },
        Experiment {
            id: "table2",
            title: "Table 2 — per-SM fault statistics per batch",
            run: || exp(table2_per_sm::run, |r| r.render()),
        },
        Experiment {
            id: "fig6",
            title: "Fig. 6  — batch cost vs data migrated (best fits)",
            run: || exp(fig06_cost_vs_data::run, |r| format!("{}\n{}", r.render(), r.render_plot())),
        },
        Experiment {
            id: "fig7",
            title: "Fig. 7  — transfer share of batch time (sgemm)",
            run: || exp(fig07_transfer_fraction::run, |r| r.render()),
        },
        Experiment {
            id: "fig8",
            title: "Fig. 8  — raw vs deduplicated batch sizes",
            run: || exp(fig08_dedup_series::run, |r| format!("{}\n{}", r.render(), r.render_plot())),
        },
        Experiment {
            id: "fig9",
            title: "Fig. 9  — batch-size-limit sweep (sgemm)",
            run: || exp(fig09_batch_size::run, |r| r.render()),
        },
        Experiment {
            id: "fig10",
            title: "Fig. 10 — batch cost vs size by VABlock count",
            run: || exp(fig10_vablocks::run, |r| r.render()),
        },
        Experiment {
            id: "table3",
            title: "Table 3 — VABlock source statistics",
            run: || exp(table3_vablocks::run, |r| r.render()),
        },
        Experiment {
            id: "fig11",
            title: "Fig. 11 — CPU-thread count vs unmap cost (HPGMG)",
            run: || exp(fig11_unmap_threads::run, |r| r.render()),
        },
        Experiment {
            id: "fig12",
            title: "Fig. 12 — sgemm under oversubscription",
            run: || exp(fig12_oversub::run, |r| format!("{}\n{}", r.render(), r.render_plot())),
        },
        Experiment {
            id: "fig13",
            title: "Fig. 13 — stream eviction cost levels",
            run: || exp(fig13_evict_levels::run, |r| r.render()),
        },
        Experiment {
            id: "fig14",
            title: "Fig. 14 — sgemm prefetch profile + DMA outliers",
            run: || exp(fig14_prefetch_batches::run, |r| r.render()),
        },
        Experiment {
            id: "fig15",
            title: "Fig. 15 — dgemm eviction + prefetching panels",
            run: || exp(fig15_evict_prefetch::run, |r| r.render()),
        },
        Experiment {
            id: "fig16",
            title: "Fig. 16 — Gauss-Seidel case study",
            run: || exp(fig16_gauss_seidel::run, |r| format!("{}\n{}", r.render(), r.render_plot())),
        },
        Experiment {
            id: "fig17",
            title: "Fig. 17 — HPGMG case study (LRU order)",
            run: || exp(fig17_hpgmg::run, |r| format!("{}\n{}", r.render(), r.case.render_plot())),
        },
        Experiment {
            id: "table4",
            title: "Table 4 — prefetch on/off batch & kernel times",
            run: || exp(table4_speedup::run, |r| r.render()),
        },
        Experiment {
            id: "ext-hints",
            title: "Extension — cudaMemAdvise / cudaMemPrefetchAsync",
            run: || exp(ext_hints::run, |r| r.render()),
        },
        Experiment {
            id: "ext-inject",
            title: "Extension — fault injection & typed error recovery",
            run: || run_grid(&ext_inject::sweep()),
        },
        Experiment {
            id: "ext-thrashing",
            title: "Extension — thrashing mitigation (uvm_perf_thrashing)",
            run: || exp(ext_thrashing::run, |r| r.render()),
        },
        Experiment {
            id: "ext-policy",
            title: "Extension — pluggable policy sweep (prefetch x eviction)",
            run: || run_grid(&ext_policy::sweep(false)),
        },
        Experiment {
            id: "ext-multitenant",
            title: "Extension — multi-tenant fairness sweep (3 clients)",
            run: || run_grid(&ext_multitenant::sweep(false)),
        },
        Experiment {
            id: "ext-architectures",
            title: "Extension — servicing-architecture sweep (backend x workload)",
            run: || run_grid(&ext_architectures::sweep(false)),
        },
    ]
}

/// Map loose experiment spellings onto harness ids: `fig03_vecadd` (the
/// experiment module name) and `fig03` both resolve to `fig3`.
pub fn canonical_id(spec: &str) -> String {
    let spec = spec.split('_').next().unwrap_or(spec);
    for prefix in ["fig", "table"] {
        if let Some(digits) = spec.strip_prefix(prefix) {
            if !digits.is_empty() && digits.chars().all(|c| c.is_ascii_digit()) {
                let n = digits.trim_start_matches('0');
                return format!("{prefix}{}", if n.is_empty() { "0" } else { n });
            }
        }
    }
    spec.to_string()
}

/// One completed experiment run.
pub struct ExperimentOutput {
    /// Registry id.
    pub id: String,
    /// Banner title.
    pub title: String,
    /// Rendered text report.
    pub text: String,
    /// Raw result as JSON.
    pub value: serde_json::Value,
    /// Wall-clock seconds this experiment took (measured on its worker).
    pub secs: f64,
}

/// Run `selected` experiments across the configured worker pool
/// ([`uvm_core::parallel::configure_jobs`]), returning outputs **in
/// submission order** — the caller prints them exactly as a serial loop
/// would, so stdout is byte-identical for any `--jobs N` (only the
/// wall-clock `[N.NNs]` suffixes differ).
pub fn run_experiments(selected: Vec<&Experiment>) -> Vec<ExperimentOutput> {
    parallel::map(selected, |e| {
        let t0 = Instant::now();
        let (text, value) = (e.run)();
        ExperimentOutput {
            id: e.id.to_string(),
            title: e.title.to_string(),
            text,
            value,
            secs: t0.elapsed().as_secs_f64(),
        }
    })
}

/// Hand-rolled hot-loop micro timings and the suite-level serial/parallel
/// comparison behind `paper bench`.
pub mod perf {
    use super::{experiments, run_experiments, Instant};
    use serde_json::Value;

    /// Build a [`Value::Object`] from `(key, value)` pairs (the vendored
    /// serde shim has no `json!` macro).
    fn obj(fields: Vec<(&str, Value)>) -> Value {
        Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
    use uvm_core::driver::dedup::{
        classify_duplicates, classify_duplicates_with, DedupResult, DedupScratch,
    };
    use uvm_core::driver::policy::DriverPolicy;
    use uvm_core::driver::service::{ServiceScratch, UvmDriver};
    use uvm_core::gpu::device::Gpu;
    use uvm_core::gpu::fault::{AccessKind, FaultRecord};
    use uvm_core::gpu::spec::GpuSpec;
    use uvm_core::hostos::host::HostMemory;
    use uvm_core::hostos::radix_tree::RadixTree;
    use uvm_core::parallel;
    use uvm_core::sim::cost::CostModel;
    use uvm_core::sim::event::EventQueue;
    use uvm_core::sim::mem::{AddressSpaceAllocator, PageNum, VABLOCK_SIZE};
    use uvm_core::sim::time::SimTime;

    /// Mean ns per call of `f` over `reps` timed iterations (one warmup).
    fn time_ns<R>(reps: u32, mut f: impl FnMut() -> R) -> f64 {
        std::hint::black_box(f());
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(f());
        }
        t0.elapsed().as_nanos() as f64 / f64::from(reps)
    }

    /// One full `service_batch_with` call on a fresh driver: a 1024-fault batch
    /// spread over four VABlocks with every page duplicated once —
    /// exercising fetch-side dedup, grouping, first-touch DMA setup, and
    /// page migration together.
    fn service_batch_once() -> u64 {
        let cost = CostModel::titan_v();
        let mut driver = UvmDriver::new(DriverPolicy::default(), cost.clone(), 16, 42);
        let mut gpu = Gpu::new(GpuSpec::small(16 * VABLOCK_SIZE), cost);
        let mut host = HostMemory::new();
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(4 * VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        let pages = alloc.num_pages();
        let batch: Vec<FaultRecord> = (0..1024u64)
            .map(|i| FaultRecord {
                page: alloc.page((i / 2) * 7 % pages),
                kind: AccessKind::Read,
                sm: (i % 80) as u32,
                utlb: (i % 40) as u32,
                warp: i as u32,
                arrival: SimTime(0),
                dup_of_outstanding: false,
            })
            .collect();
        let mut scratch = ServiceScratch::default();
        let rec = driver
            .service_batch_with(&batch, &mut gpu, &mut host, SimTime(0), &mut scratch)
            .expect("synthetic batch services cleanly");
        rec.pages_migrated
    }

    /// The hot-loop micro numbers (mean ns per operation), as a JSON map.
    pub fn micro_numbers(quick: bool) -> Value {
        micro_numbers_at(if quick { 20 } else { 200 })
    }

    /// [`micro_numbers`] at an explicit rep count (the `microtime` example
    /// uses this to average away scheduler noise when iterating on the
    /// substrate structures).
    pub fn micro_numbers_at(reps: u32) -> Value {
        // 2048 faults, each page faulted by a run of eight.
        let batch: Vec<FaultRecord> = (0..2048u32)
            .map(|i| FaultRecord {
                page: PageNum(u64::from(i / 8)),
                kind: AccessKind::Read,
                sm: i % 80,
                utlb: i % 40,
                warp: i,
                arrival: SimTime(u64::from(i)),
                dup_of_outstanding: false,
            })
            .collect();

        let dedup_ref = time_ns(reps, || classify_duplicates(&batch).unique.len());
        let mut ds = DedupScratch::default();
        let mut dout = DedupResult::default();
        let dedup_fast = time_ns(reps, || {
            classify_duplicates_with(&batch, &mut ds, &mut dout);
            dout.unique.len()
        });

        let service = time_ns(reps.min(100), service_batch_once);

        let event_queue = time_ns(reps, || {
            let mut q: EventQueue<u32> = EventQueue::with_capacity(10_000);
            for i in 0..10_000u32 {
                q.schedule(SimTime(u64::from(i.wrapping_mul(2_654_435_761) % 1_000_000)), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum += u64::from(e);
            }
            sum
        });

        let mut tree = RadixTree::new();
        for k in 0..32_768u64 {
            tree.insert(k * 7, k);
        }
        let radix_lookup = time_ns(reps, || {
            let mut hits = 0u64;
            for k in 0..32_768u64 {
                if tree.get(k * 7).is_some() {
                    hits += 1;
                }
            }
            hits
        });

        obj(vec![
            ("dedup_reference_2048x8", Value::Float(dedup_ref)),
            ("dedup_fast_2048x8", Value::Float(dedup_fast)),
            ("service_batch_1024x4blocks", Value::Float(service)),
            ("event_queue_schedule_pop_10k", Value::Float(event_queue)),
            ("radix_lookup_sweep_32768", Value::Float(radix_lookup)),
        ])
    }

    /// Build the full `BENCH_uvm.json` report: per-experiment serial wall
    /// times, the suite serial-vs-parallel comparison at `jobs` workers,
    /// and the micro numbers. `quick` trims micro reps and skips the
    /// parallel suite pass (for CI smoke on small runners).
    pub fn bench_report(jobs: usize, quick: bool) -> Value {
        let prior = parallel::jobs();

        // Serial pass: per-experiment wall times (the regression-gate
        // numbers — single-threaded, so they are comparable across runs
        // regardless of the runner's core count).
        parallel::configure_jobs(1);
        let t0 = Instant::now();
        let all = experiments();
        let serial = run_experiments(all.iter().collect());
        let serial_wall = t0.elapsed().as_secs_f64();

        // Parallel pass: suite wall time at `jobs` workers.
        let parallel_wall = if quick || jobs <= 1 {
            None
        } else {
            parallel::configure_jobs(jobs);
            let t0 = Instant::now();
            let again = run_experiments(all.iter().collect());
            let wall = t0.elapsed().as_secs_f64();
            assert_eq!(serial.len(), again.len());
            for (a, b) in serial.iter().zip(&again) {
                assert_eq!(a.text, b.text, "parallel output diverged for {}", a.id);
            }
            Some(wall)
        };
        parallel::configure_jobs(prior.max(1));

        let per_experiment: Vec<Value> = serial
            .iter()
            .map(|o| {
                obj(vec![
                    ("id", Value::Str(o.id.clone())),
                    ("serial_s", Value::Float(o.secs)),
                ])
            })
            .collect();
        let mut suite_fields = vec![
            ("serial_s", Value::Float(serial_wall)),
            ("jobs", Value::NumU(jobs as u64)),
        ];
        if let Some(wall) = parallel_wall {
            suite_fields.push(("parallel_s", Value::Float(wall)));
            suite_fields.push(("speedup", Value::Float(serial_wall / wall.max(1e-9))));
        }
        obj(vec![
            ("schema", Value::NumU(1)),
            ("generated_by", Value::Str("paper bench".to_string())),
            ("quick", Value::Bool(quick)),
            ("experiments", Value::Array(per_experiment)),
            ("suite", obj(suite_fields)),
            ("micro_ns", micro_numbers(quick)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_canonical() {
        let all = experiments();
        let mut ids: Vec<&str> = all.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), all.len(), "duplicate experiment ids");
        assert_eq!(canonical_id("fig03_vecadd"), "fig3");
        assert_eq!(canonical_id("fig3"), "fig3");
        assert_eq!(canonical_id("table04"), "table4");
        assert_eq!(canonical_id("ext-hints"), "ext-hints");
    }

    #[test]
    fn micro_numbers_cover_every_hot_loop() {
        let serde_json::Value::Object(fields) = perf::micro_numbers(true) else {
            panic!("micro numbers are a map");
        };
        for key in [
            "dedup_reference_2048x8",
            "dedup_fast_2048x8",
            "service_batch_1024x4blocks",
            "event_queue_schedule_pop_10k",
            "radix_lookup_sweep_32768",
        ] {
            let v = fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            let Some(serde_json::Value::Float(ns)) = v else {
                panic!("{key} missing or non-numeric: {v:?}");
            };
            assert!(*ns > 0.0, "{key} must be positive, got {ns}");
        }
    }
}
