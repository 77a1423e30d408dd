//! Fig. 6 — batch cost vs data migrated: linear best fits per application.
//!
//! Data movement is the leading *indicator* of batch cost: average batch
//! time rises linearly with migrated bytes, with application-dependent
//! intercepts and high per-application variance (the management costs the
//! rest of the paper dissects).

use serde::{Deserialize, Serialize};
use uvm_stats::{linear_fit, LinearFit};

use crate::experiments::suite::{experiment_config, Bench};
use crate::runctl::RunCtx;

/// One application's scatter and fit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Series {
    /// Benchmark name.
    pub bench: String,
    /// `(MiB migrated, batch ms)` points, one per batch.
    pub points: Vec<(f64, f64)>,
    /// Least-squares fit over the points.
    pub fit: Option<LinearFit>,
}

/// The Fig. 6 dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Result {
    /// One series per application.
    pub series: Vec<Fig6Series>,
}

/// Run the cost-vs-data experiment.
pub fn run(ctx: &RunCtx, seed: u64) -> Fig6Result {
    let benches = [
        Bench::Regular,
        Bench::Sgemm,
        Bench::Stream,
        Bench::Cufft,
        Bench::GaussSeidel,
    ];
    let series = benches
        .iter()
        .map(|&b| {
            let config = experiment_config(768).with_seed(seed);
            let result = ctx.run(config, &b.build());
            let points: Vec<(f64, f64)> = result
                .records
                .iter()
                .map(|r| {
                    (
                        r.bytes_migrated as f64 / (1024.0 * 1024.0),
                        r.service_time().as_nanos() as f64 / 1e6,
                    )
                })
                .collect();
            Fig6Series {
                bench: b.name().to_string(),
                fit: linear_fit(&points),
                points,
            }
        })
        .collect();
    Fig6Result { series }
}

impl Fig6Result {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let mut t = uvm_stats::Table::new(vec![
            "Benchmark",
            "Batches",
            "Slope (ms/MiB)",
            "Intercept (ms)",
            "r^2",
        ]);
        for s in &self.series {
            match &s.fit {
                Some(f) => t.row(vec![
                    s.bench.clone(),
                    s.points.len().to_string(),
                    format!("{:.3}", f.slope),
                    format!("{:.3}", f.intercept),
                    format!("{:.2}", f.r_squared),
                ]),
                None => t.row(vec![
                    s.bench.clone(),
                    s.points.len().to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]),
            };
        }
        format!("Fig. 6 — best fit of batch cost vs data migrated\n{}", t.render())
    }
}

impl Fig6Result {
    /// Terminal scatter of all series (log-y, as the paper plots it).
    pub fn render_plot(&self) -> String {
        let mut plot = uvm_stats::ScatterPlot::new(
            "Fig. 6 — batch time vs data migrated",
            "MiB migrated",
            "ms",
        )
        .log_y();
        for s in &self.series {
            plot = plot.series(&s.bench, s.points.clone());
        }
        plot.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_rises_linearly_with_data() {
        let r = run(&RunCtx::new(1), 1);
        assert_eq!(r.series.len(), 5);
        let mut positive_intercepts = 0;
        for s in &r.series {
            let fit = s.fit.as_ref().unwrap_or_else(|| panic!("{} has a fit", s.bench));
            assert!(fit.slope > 0.0, "{}: slope {:.4} must be positive", s.bench, fit.slope);
            if fit.intercept > 0.0 {
                positive_intercepts += 1;
            }
            assert!(s.points.len() > 10, "{}", s.bench);
        }
        // Management overhead shows as a positive zero-data intercept for
        // most applications (tightly clustered scatters can fit noisily).
        assert!(positive_intercepts >= 3, "got {positive_intercepts} positive intercepts");
        // Variance is real: fits are informative but not perfect.
        assert!(r.series.iter().any(|s| s.fit.as_ref().unwrap().r_squared < 0.98));
        assert!(r.render().contains("Slope"));
        assert!(r.render_plot().contains("|"));
    }
}
