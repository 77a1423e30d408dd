//! `uvmbench`: seeded host-time benchmark of the UVM simulator.
//!
//! ```text
//! cargo run --release --manifest-path uvmbench/Cargo.toml -- \
//!     --workload <arch-oversub|incore-suite|chaos-torture> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One warm-up pass records every cell's output digest. Then, for
//! `--seconds` (and at least three passes), `--trace 0` repeats untraced
//! passes and reports the end-to-end metrics; `--trace 1` alternates an
//! untraced and a traced pass and reports the per-layer metrics. A pass's
//! host time is the sum of each cell's fastest run over the measured
//! passes; set-up time is the median over them; the per-layer breakdown is
//! that of the median traced pass, so its parts add up.
//! Each metric prints on its own line with its unit; the last line is one
//! JSON object with every metric. `README.md` beside this crate defines the
//! metrics.

mod cells;
mod pass;
mod probe;

use std::time::{Duration, Instant};

use cells::Kind;
use pass::{Expected, Pass};
use probe::Stage;

/// The seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 0x5C21;

/// Fewest measured passes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    let kind = kind.ok_or_else(|| format!("--workload is required ({})", names.join(", ")))?;
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Median of `v` (mean of the middle two for an even count); 0 if empty.
fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The host time of a pass made of each cell's fastest run: the sum, over
/// cells, of the cell's least host time across `passes`. Other tenants of
/// the host only ever slow a cell down, and they come and go within a run,
/// so this varies less from run to run than a median of whole passes.
fn fastest_cells(passes: &[Pass]) -> f64 {
    let cells = passes.first().map_or(0, |p| p.cells.len());
    (0..cells)
        .map(|i| {
            passes
                .iter()
                .map(|p| secs(p.cells[i]))
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Nearest-rank `q`-quantile of `v`; 0 if empty.
fn percentile(v: &[u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut sorted = v.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Host peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The per-layer metrics of one traced pass, in report order.
fn layer_metrics(p: &Pass) -> Vec<Metric> {
    let l = &p.layers;
    let c = &l.counts;
    let m = |name, value, unit| Metric { name, value, unit };
    let covered = l.run_key + l.start + l.event_loop + l.service + l.audit;
    let mut out = vec![
        m("workloads.build_s", secs(l.build), "s"),
        m("core.run_key_s", secs(l.run_key), "s"),
        m("core.start_s", secs(l.start), "s"),
        m("engine.loop_s", secs(l.event_loop), "s"),
        m(
            "engine.batch_us.p50",
            percentile(&l.batch_ns, 0.50) / 1e3,
            "us",
        ),
        m(
            "engine.batch_us.p99",
            percentile(&l.batch_ns, 0.99) / 1e3,
            "us",
        ),
        m("driver.service_s", secs(l.service), "s"),
        m(
            "driver.service_us.p99",
            percentile(&l.service_ns, 0.99) / 1e3,
            "us",
        ),
    ];
    for (stage, ns) in Stage::ALL.into_iter().zip(l.stage_ns) {
        out.push(m(stage.metric(), ns as f64 / 1e9, "s"));
    }
    let kill_ms = |i: usize| percentile(&l.kill_ns[i], 0.5) / 1e6;
    out.extend([
        m("driver.audit_s", secs(l.audit), "s"),
        m("core.snapshot_ms", kill_ms(0), "ms"),
        m("serde_json.encode_ms", kill_ms(1), "ms"),
        m("serde_json.decode_ms", kill_ms(2), "ms"),
        m("core.restore_ms", kill_ms(3), "ms"),
        m(
            "core.snapshot_bytes",
            percentile(&l.snapshot_bytes, 0.5),
            "bytes",
        ),
        m("sim.faults", c.faults as f64, "count"),
        m("sim.batches", c.batches as f64, "count"),
        m("gpu.fault_events", l.fault_events as f64, "count"),
        m("driver.evictions", c.evictions as f64, "count"),
        m("hostos.unmap_calls", c.unmap_calls as f64, "count"),
        m("driver.pages_migrated", c.pages_migrated as f64, "count"),
        m(
            "driver.dedup_frac",
            ratio(c.unique_pages as f64, c.raw_faults as f64),
            "ratio",
        ),
        m(
            "gpu.drop_frac",
            ratio(c.drops as f64, c.faults as f64),
            "ratio",
        ),
        m("trace.wall_s", secs(p.wall), "s"),
        m(
            "trace.covered_frac",
            ratio(secs(covered), secs(p.wall)),
            "ratio",
        ),
    ]);
    out
}

/// The result of one benchmark run.
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

fn run(args: &Args) -> Result<Report, String> {
    let generate = || cells::generate(args.kind, args.seed);
    let mut expected = Expected::default();
    // Warm-up: records each cell's digest and simulated faults.
    let warm = pass::stepped(&generate, false, &mut expected);
    let (mut attempted, mut failed) = (warm.attempted, warm.failed);
    let mut tally = |p: &Pass| {
        attempted += p.attempted;
        failed += p.failed;
    };

    let window = Duration::from_secs(args.seconds);
    let t = Instant::now();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    // A round that would end past the window is not started, so a run
    // lasts about `--seconds` however long a pass takes.
    let mut round = Duration::ZERO;
    while untraced.len() < MIN_PASSES || t.elapsed() + round <= window {
        let r = Instant::now();
        let p = pass::untraced(&generate, &mut expected);
        tally(&p);
        untraced.push(p);
        if args.trace {
            let p = pass::stepped(&generate, true, &mut expected);
            tally(&p);
            traced.push(p);
        }
        round = r.elapsed();
    }

    let median_wall = |passes: &[Pass]| median(passes.iter().map(|p| secs(p.wall)).collect());
    let wall = fastest_cells(&untraced);
    let metrics = if args.trace {
        // The traced pass with the median wall time (the lower one of an
        // even count), whose layers add up to its own wall time.
        let mut by_wall: Vec<&Pass> = traced.iter().collect();
        by_wall.sort_by_key(|p| p.wall);
        let mut metrics = layer_metrics(by_wall[(by_wall.len() - 1) / 2]);
        let faults = untraced[0].faults;
        metrics.extend([
            Metric {
                name: "sim_faults_per_s",
                value: ratio(faults as f64, wall),
                unit: "1/s",
            },
            Metric {
                name: "trace.overhead_frac",
                value: ratio(median_wall(&traced), median_wall(&untraced)) - 1.0,
                unit: "ratio",
            },
        ]);
        metrics
    } else {
        let setup = median(untraced.iter().map(|p| secs(p.setup)).collect());
        vec![
            Metric {
                name: "wall_s",
                value: wall,
                unit: "s",
            },
            Metric {
                name: "setup_s",
                value: setup,
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb()?,
                unit: "MiB",
            },
        ]
    };
    Ok(Report {
        metrics,
        attempted,
        failed,
    })
}

/// A JSON number; non-finite values (never expected) become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("uvmbench: {e}");
            eprintln!(
                "usage: uvmbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]"
            );
            std::process::exit(2);
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("uvmbench: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "workload {} seed {} trace {}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    for m in &report.metrics {
        println!("{:<24} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<24} {:>16.6} ratio ({} of {} cells)",
        "failed_frac",
        ratio(report.failed as f64, report.attempted as f64),
        report.failed,
        report.attempted
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use cells::{CellSet, RunCell};
    use uvm_core::chaos::Scenario;
    use uvm_core::workloads::cpu_init::CpuInitPolicy;
    use uvm_core::workloads::stream::{self, StreamParams};
    use uvm_core::SystemConfig;

    fn one_run() -> CellSet {
        CellSet::Runs {
            workloads: vec![stream::build(StreamParams {
                warps: 32,
                pages_per_warp: 64,
                iters: 1,
                warps_per_page: 1,
                cpu_init: Some(CpuInitPolicy::SingleThread),
            })],
            // 16 MiB of device memory for a ~24 MiB footprint: evicts.
            cells: vec![RunCell {
                label: "stream/test".into(),
                workload: 0,
                config: SystemConfig::test_small(16 << 20).with_seed(3),
            }],
        }
    }

    #[test]
    fn wrong_expected_digest_lands_in_failed_frac() {
        for traced in [false, true] {
            let mut expected = Expected {
                digests: vec![Some(0xBAD)],
                faults: vec![],
            };
            let p = if traced {
                pass::stepped(&one_run, true, &mut expected)
            } else {
                pass::untraced(&one_run, &mut expected)
            };
            assert_eq!((p.attempted, p.failed), (1, 1), "traced={traced}");
        }
    }

    #[test]
    fn traced_and_untraced_passes_agree_and_layers_add_up() {
        let mut expected = Expected::default();
        let traced = pass::stepped(&one_run, true, &mut expected);
        let untraced = pass::untraced(&one_run, &mut expected);
        assert_eq!((traced.failed, untraced.failed), (0, 0));
        assert!(expected.digests[0].is_some());
        assert_eq!(untraced.faults, traced.layers.counts.faults);

        let l = &traced.layers;
        assert!(l.counts.evictions > 0 && l.fault_events > 0);
        assert_eq!(l.service_ns.len() as u64, l.counts.batches);
        let stages: u64 = l.stage_ns.iter().sum();
        assert!(stages <= l.service.as_nanos() as u64);
        let covered = l.run_key + l.start + l.event_loop + l.service + l.audit;
        assert!(covered <= traced.wall);
    }

    #[test]
    fn stepped_chaos_verdicts_match_run_trial() {
        let trials = || CellSet::Trials((0..3).map(|i| Scenario::generate(11, i)).collect());
        let mut expected = Expected::default();
        let stepped = pass::stepped(&trials, true, &mut expected);
        let untraced = pass::untraced(&trials, &mut expected);
        assert_eq!((stepped.attempted, stepped.failed), (3, 0));
        assert_eq!((untraced.attempted, untraced.failed), (3, 0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
