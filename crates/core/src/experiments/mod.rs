//! Experiment drivers: one module per table and figure of the paper's
//! evaluation.
//!
//! Every module exposes a `run(ctx, seed)` (or parameterized variant),
//! whose system runs go through the [`crate::RunCtx`] it is given, returning
//! a serializable result struct with a `render()` method that prints the
//! same rows/series the paper reports. The `suite` module defines the
//! benchmark instances (scaled to simulate in seconds rather than hours)
//! shared by the multi-benchmark experiments.
//!
//! | module | reproduces |
//! |---|---|
//! | [`fig01_latency`] | Fig. 1 — UVM vs explicit-management access latency |
//! | [`fig03_vecadd`] | Figs. 3 & 4 — vecadd fault batches + arrival timeline |
//! | [`fig05_prefetch_ub`] | Fig. 5 — single-warp prefetch fills a batch |
//! | [`table2_per_sm`] | Table 2 — per-SM fault statistics per batch |
//! | [`fig06_cost_vs_data`] | Fig. 6 — batch cost vs data migrated best fits |
//! | [`fig07_transfer_fraction`] | Fig. 7 — transfer share of batch time |
//! | [`fig08_dedup_series`] | Fig. 8 — raw vs deduplicated batch sizes |
//! | [`fig09_batch_size`] | Fig. 9 — batch-size-limit sweep |
//! | [`fig10_vablocks`] | Fig. 10 — cost vs size colored by VABlock count |
//! | [`table3_vablocks`] | Table 3 — VABlock source statistics |
//! | [`fig11_unmap_threads`] | Fig. 11 — CPU-thread count vs unmap cost |
//! | [`fig12_oversub`] | Fig. 12 — sgemm under oversubscription |
//! | [`fig13_evict_levels`] | Fig. 13 — stream eviction cost levels |
//! | [`fig14_prefetch_batches`] | Fig. 14 — prefetch batch profile + DMA outliers |
//! | [`fig15_evict_prefetch`] | Fig. 15 — dgemm eviction + prefetching panels |
//! | [`fig16_gauss_seidel`] | Fig. 16 — Gauss-Seidel case study |
//! | [`fig17_hpgmg`] | Fig. 17 — HPGMG case study (LRU order) |
//! | [`table4_speedup`] | Table 4 — prefetch on/off batch & kernel times |
//!
//! The extension sweeps (`ext_policy`, `ext_architectures`,
//! `ext_multitenant`, `ext_inject`) each declare a [`grid::Sweep`] and
//! share its runner, cell type and table renderer.

use std::path::{Path, PathBuf};

/// A report as its golden file stores it: every non-empty line, each
/// byte-exact (column padding matters to the CI diff), newline-terminated.
pub fn golden_form(rendered: &str) -> String {
    let mut out = rendered.lines().filter(|l| !l.is_empty()).collect::<Vec<_>>().join("\n");
    out.push('\n');
    out
}

/// Overwrite the checked-in golden file for experiment `id` with freshly
/// rendered output (the experiment runner's `--bless` flow). The golden of
/// `ext-policy-quick` is `ext_policy_quick.txt`. Returns the path written,
/// or `None` when the experiment keeps no golden file.
///
/// The golden lives in this crate's source tree
/// (`src/experiments/golden/`), so blessing only works from a source
/// checkout — which is the only place it makes sense.
pub fn bless_golden(id: &str, rendered: &str) -> std::io::Result<Option<PathBuf>> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("src/experiments/golden")
        .join(format!("{}.txt", id.replace('-', "_")));
    if !path.exists() {
        return Ok(None);
    }
    std::fs::write(&path, golden_form(rendered))?;
    Ok(Some(path))
}

pub mod ext_architectures;
pub mod ext_hints;
pub mod ext_inject;
pub mod ext_multitenant;
pub mod ext_policy;
pub mod ext_thrashing;
pub mod fig01_latency;
pub mod fig03_vecadd;
pub mod fig05_prefetch_ub;
pub mod fig06_cost_vs_data;
pub mod fig07_transfer_fraction;
pub mod fig08_dedup_series;
pub mod fig09_batch_size;
pub mod fig10_vablocks;
pub mod fig11_unmap_threads;
pub mod fig12_oversub;
pub mod fig13_evict_levels;
pub mod fig14_prefetch_batches;
pub mod fig15_evict_prefetch;
pub mod fig16_gauss_seidel;
pub mod fig17_hpgmg;
pub mod grid;
pub mod suite;
pub mod table2_per_sm;
pub mod table3_vablocks;
pub mod table4_speedup;
