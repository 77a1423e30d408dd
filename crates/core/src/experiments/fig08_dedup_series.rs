//! Fig. 8 — raw vs deduplicated batch sizes over time (stream and sgemm).
//!
//! The driver workload is application-driven: sgemm's k-loop produces
//! distinct batching "phases" while stream is uniform; and filtering
//! duplicate faults greatly reduces effective batch sizes for both —
//! duplicates contribute overhead but no migration.

use serde::{Deserialize, Serialize};

use crate::experiments::suite::{experiment_config, Bench};
use crate::runctl::RunCtx;

/// One application's batch-size time series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8Series {
    /// Benchmark name.
    pub bench: String,
    /// `(start time s, raw batch size)` per batch — the upper panes.
    pub raw: Vec<(f64, u64)>,
    /// `(start time s, deduplicated size)` per batch — the lower panes.
    pub deduped: Vec<(f64, u64)>,
    /// Total duplicate faults discarded.
    pub total_dups: u64,
    /// Total raw faults.
    pub total_raw: u64,
}

/// The Fig. 8 dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8Result {
    /// stream and sgemm series.
    pub series: Vec<Fig8Series>,
}

/// Run the dedup time-series experiment.
pub fn run(ctx: &RunCtx, seed: u64) -> Fig8Result {
    let series = [Bench::Stream, Bench::Sgemm]
        .iter()
        .map(|&b| {
            let config = experiment_config(768).with_seed(seed);
            let result = ctx.run(config, &b.build());
            Fig8Series {
                bench: b.name().to_string(),
                raw: result
                    .records
                    .iter()
                    .map(|r| (r.start.as_secs_f64(), r.raw_faults))
                    .collect(),
                deduped: result
                    .records
                    .iter()
                    .map(|r| (r.start.as_secs_f64(), r.unique_pages))
                    .collect(),
                total_dups: result.records.iter().map(|r| r.total_dups()).sum(),
                total_raw: result.records.iter().map(|r| r.raw_faults).sum(),
            }
        })
        .collect();
    Fig8Result { series }
}

impl Fig8Result {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let mut out = String::from("Fig. 8 — raw vs deduplicated batch sizes\n");
        for s in &self.series {
            let mean_raw =
                s.raw.iter().map(|&(_, v)| v).sum::<u64>() as f64 / s.raw.len().max(1) as f64;
            let mean_dedup = s.deduped.iter().map(|&(_, v)| v).sum::<u64>() as f64
                / s.deduped.len().max(1) as f64;
            out.push_str(&format!(
                "{:<12} batches {:>5}  mean raw {:>6.1}  mean dedup {:>6.1}  dup rate {:>5.1}%\n",
                s.bench,
                s.raw.len(),
                mean_raw,
                mean_dedup,
                100.0 * s.total_dups as f64 / s.total_raw.max(1) as f64
            ));
        }
        out
    }
}

impl Fig8Result {
    /// Terminal time-series plots: raw vs deduplicated sizes per app.
    pub fn render_plot(&self) -> String {
        let mut out = String::new();
        for s in &self.series {
            let raw: Vec<(f64, f64)> = s.raw.iter().map(|&(t, v)| (t, v as f64)).collect();
            let dedup: Vec<(f64, f64)> =
                s.deduped.iter().map(|&(t, v)| (t, v as f64)).collect();
            out.push_str(
                &uvm_stats::ScatterPlot::new(
                    &format!("Fig. 8 — {} batch sizes over time", s.bench),
                    "time (s)",
                    "faults",
                )
                .series("raw", raw)
                .series("dedup", dedup)
                .render(),
            );
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_shrinks_batches_and_sgemm_shows_phases() {
        let r = run(&RunCtx::new(1), 1);
        assert_eq!(r.series.len(), 2);
        for s in &r.series {
            assert!(s.total_dups > 0, "{}: expected duplicate faults", s.bench);
            // Dedup never grows a batch.
            for (raw, dedup) in s.raw.iter().zip(s.deduped.iter()) {
                assert!(dedup.1 <= raw.1);
            }
        }
        // sgemm shares tiles across warps: its duplicate rate exceeds
        // stream's (disjoint chunks; dups only from warps sharing a μTLB
        // re-issuing).
        let stream = &r.series[0];
        let sgemm = &r.series[1];
        let rate = |s: &Fig8Series| s.total_dups as f64 / s.total_raw as f64;
        assert!(
            rate(sgemm) > rate(stream),
            "sgemm dup rate {:.3} should exceed stream {:.3}",
            rate(sgemm),
            rate(stream)
        );
        // Phases: sgemm batch sizes vary far more than a uniform stream
        // (coefficient of variation check).
        let cv = |xs: &[(f64, u64)]| {
            let vals: Vec<f64> = xs.iter().map(|&(_, v)| v as f64).collect();
            let s = uvm_stats::Summary::of(&vals);
            s.std_dev / s.mean
        };
        assert!(cv(&sgemm.raw) > 0.2, "sgemm shows batching phases");
        assert!(r.render().contains("dup rate"));
    }
}
