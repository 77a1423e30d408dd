//! ML-style batched-gather attention access pattern.
//!
//! Models the memory behaviour of batched attention / embedding lookup
//! inference (the DL-workload class Long et al. target with learned
//! prefetching): each batch is one kernel whose warps stream their query
//! pages *sequentially*, then gather rows of a large KV table with a
//! skewed hot/cold distribution — a small working set of hot rows absorbs
//! most lookups while the long tail scatters over the whole table. The
//! mix (regular query streaming + skewed irregular gathers, repeated
//! across batches) is what distinguishes it from uniform-random access:
//! hot pages are worth caching, cold pages thrash, and batch boundaries
//! re-touch the hot set.

use uvm_gpu::isa::WarpProgram;
use uvm_sim::mem::PAGE_SIZE;
use uvm_sim::rng::DetRng;
use uvm_sim::time::SimDuration;

use crate::cpu_init::CpuInitPolicy;
use crate::workload::Workload;

/// Parameters for the attention workload.
#[derive(Debug, Clone, Copy)]
pub struct AttentionParams {
    /// Rows in the KV table (one 4 KiB page per row: a 512-float head).
    pub kv_rows: u64,
    /// Batches; each is one kernel launch.
    pub batches: u32,
    /// Queries (warps) per batch.
    pub queries_per_batch: u32,
    /// Query pages streamed sequentially by each warp.
    pub query_pages: u64,
    /// KV-row gathers per query.
    pub gathers_per_query: u32,
    /// Fraction of gathers hitting the hot row set.
    pub hot_fraction: f64,
    /// Size of the hot row set.
    pub hot_rows: u64,
    /// Compute time charged per query.
    pub compute_per_query: SimDuration,
    /// Pattern seed.
    pub seed: u64,
    /// Host-side initialization of the KV table and query buffer.
    pub cpu_init: Option<CpuInitPolicy>,
}

impl Default for AttentionParams {
    fn default() -> Self {
        AttentionParams {
            kv_rows: 4096,
            batches: 8,
            queries_per_batch: 16,
            query_pages: 2,
            gathers_per_query: 32,
            hot_fraction: 0.8,
            hot_rows: 256,
            compute_per_query: SimDuration::from_micros(2),
            seed: 0xA77,
            cpu_init: Some(CpuInitPolicy::SingleThread),
        }
    }
}

/// Build the attention workload.
pub fn build(params: AttentionParams) -> Workload {
    let rows = params.kv_rows.max(1);
    let hot_rows = params.hot_rows.clamp(1, rows);
    let batches = params.batches.max(1);
    let queries = params.queries_per_batch.max(1);
    let qp = params.query_pages.max(1);
    let mut rng = DetRng::new(params.seed);

    let mut b = Workload::builder("attention");
    // One page per KV row; queries and outputs are per-warp-per-batch.
    let kv = b.alloc(rows * PAGE_SIZE);
    let q = b.alloc(u64::from(batches) * u64::from(queries) * qp * PAGE_SIZE);
    let out = b.alloc(u64::from(batches) * u64::from(queries) * PAGE_SIZE);

    let mut gathers = Vec::with_capacity(params.gathers_per_query as usize);
    for batch in 0..u64::from(batches) {
        for query in 0..u64::from(queries) {
            let warp_idx = batch * u64::from(queries) + query;
            let mut prog = WarpProgram::new();
            // Sequential query streaming.
            let q0 = warp_idx * qp;
            prog.load((q0..q0 + qp).map(|i| q.page(i)));
            // Skewed KV gathers: hot set with probability `hot_fraction`,
            // uniform over the whole table otherwise.
            gathers.clear();
            for _ in 0..params.gathers_per_query.max(1) {
                let row = if rng.chance(params.hot_fraction) {
                    rng.below(hot_rows)
                } else {
                    rng.below(rows)
                };
                gathers.push(kv.page(row));
            }
            gathers.sort_unstable();
            gathers.dedup();
            prog.load(gathers.iter().copied());
            if params.compute_per_query > SimDuration::ZERO {
                prog.delay(params.compute_per_query);
            }
            prog.store([out.page(warp_idx)]);
            b.warp(prog);
        }
        b.end_kernel();
    }

    if let Some(policy) = params.cpu_init {
        let touches: Vec<_> = policy
            .touches(&kv)
            .into_iter()
            .chain(policy.touches(&q))
            .collect();
        b.cpu_touches(touches);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> AttentionParams {
        AttentionParams {
            kv_rows: 512,
            batches: 3,
            queries_per_batch: 4,
            query_pages: 1,
            gathers_per_query: 16,
            hot_fraction: 0.75,
            hot_rows: 32,
            compute_per_query: SimDuration::ZERO,
            seed: 9,
            cpu_init: None,
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = build(small());
        let b = build(small());
        assert_eq!(a.programs, b.programs);
        let c = build(AttentionParams { seed: 10, ..small() });
        assert_ne!(a.programs, c.programs);
    }

    #[test]
    fn one_kernel_per_batch() {
        let w = build(small());
        let kernels = w.kernels();
        assert_eq!(kernels.len(), 3);
        for k in kernels {
            assert_eq!(k.len(), 4, "each batch launches queries_per_batch warps");
        }
    }

    #[test]
    fn all_pages_within_allocations() {
        let w = build(small());
        let end = w.allocations.iter().map(|a| a.end().0).max().unwrap();
        for p in w.programs.iter().flat_map(|p| p.touched_pages()) {
            assert!(p.base_addr().0 < end);
        }
    }

    #[test]
    fn gathers_are_skewed_toward_hot_rows() {
        let w = build(small());
        let kv = w.allocations[0];
        let hot_end = kv.page(0).0 + 32; // hot_rows pages from the table base
        let (mut hot, mut cold) = (0usize, 0usize);
        for p in w.programs.iter().flat_map(|p| p.touched_pages()) {
            if kv.contains(p.base_addr()) {
                if p.0 < hot_end {
                    hot += 1;
                } else {
                    cold += 1;
                }
            }
        }
        assert!(hot > cold, "hot set should absorb most gathers: hot={hot} cold={cold}");
        assert!(cold > 0, "the cold tail must still scatter: hot={hot} cold={cold}");
    }

    #[test]
    fn query_stream_is_sequential_and_disjoint_per_warp() {
        let w = build(small());
        let q = w.allocations[1];
        let mut seen = std::collections::BTreeSet::new();
        for p in w.programs.iter() {
            for page in p.touched_pages() {
                if q.contains(page.base_addr()) {
                    assert!(seen.insert(page), "query pages are private per warp");
                }
            }
        }
        assert_eq!(seen.len(), 12, "batches x queries x query_pages");
    }
}
