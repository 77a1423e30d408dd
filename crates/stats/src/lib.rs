#![warn(missing_docs)]

//! # uvm-stats — analysis utilities for experiment output
//!
//! The paper reports its findings as descriptive statistics (Tables 2–4),
//! linear best fits (Fig. 6), and binned scatter/time series (most other
//! figures). This crate provides those primitives:
//!
//! * [`descriptive`] — [`Summary`]: mean, standard deviation, min/max,
//!   median, percentiles.
//! * [`fairness`] — [`jain_index`] and per-group percentiles for the
//!   multi-tenant experiments.
//! * [`regression`] — least-squares [`LinearFit`] with r².
//! * [`histogram`] — fixed-width [`Histogram`] bucketing.
//! * [`plot`] — terminal scatter plots ([`ScatterPlot`]) for figure shapes.
//! * [`table`] — fixed-width text table rendering in the paper's style.

pub mod descriptive;
pub mod fairness;
pub mod histogram;
pub mod plot;
pub mod regression;
pub mod table;

pub use descriptive::{percentile, Summary};
pub use fairness::{grouped_percentile, jain_index};
pub use histogram::Histogram;
pub use plot::ScatterPlot;
pub use regression::{linear_fit, LinearFit};
pub use table::Table;
