//! Regenerate every table and figure of Allen & Ge (SC '21).
//!
//! ```text
//! cargo run --release -p uvm-bench --bin paper            # everything
//! cargo run --release -p uvm-bench --bin paper fig9       # one experiment
//! cargo run --release -p uvm-bench --bin paper -- --json out   # + JSON dumps
//! cargo run --release -p uvm-bench --bin paper -- --jobs 4     # parallel
//! ```
//!
//! Each experiment prints the same rows/series the paper reports; with
//! `--json <dir>` the raw result structs are also written as JSON for
//! external plotting.
//!
//! ## Parallel execution
//!
//! `--jobs N` (default: the machine's available cores) fans independent
//! experiments across a scoped worker pool and collects results in
//! submission order, so stdout, golden files, and JSON dumps are
//! byte-identical to a serial run — only the wall-clock `[N.NNs]`
//! suffixes differ. `--jobs 1` forces the fully serial path. Checkpoint
//! and resume runs are forced serial (the run-control ordinal is
//! process-global).
//!
//! ## Benchmark baseline
//!
//! ```text
//! paper bench --out BENCH_uvm.json [--jobs N] [--quick]
//! ```
//!
//! writes a machine-readable perf summary: per-experiment serial wall
//! times, the suite-level serial-vs-parallel comparison, and hand-rolled
//! hot-loop micro timings (dedup fast path vs reference, one full
//! `service_batch_with`, event queue, radix lookups). `--quick` trims micro
//! reps and skips the parallel suite pass (CI smoke).
//!
//! ## Extension sweeps
//!
//! ```text
//! paper sweep|multitenant|architectures [--quick] [--jobs N] [--bless] [--json <dir>]
//! ```
//!
//! The four extension experiments (`ext-policy`, `ext-multitenant`,
//! `ext-architectures`, `ext-inject`) are grids of workloads × one config
//! axis, run by [`uvm_core::experiments::grid`]: each cell is an
//! independent seeded simulation at fixed oversubscription, cells fan out
//! across the worker pool, and stdout is byte-identical for any `--jobs N`.
//! The axes are every prefetch × eviction policy (`sweep`), every
//! multi-tenant fairness policy over three co-scheduled clients
//! (`multitenant`), every fault-servicing backend (`architectures`), and
//! the injected failure rate (`ext-inject`). `--json` writes the grid's
//! cells.
//!
//! `paper sweep`, `multitenant` and `architectures` are aliases of
//! `ext-policy`, `ext-multitenant` and `ext-architectures`. With `--quick`
//! they run at CI-smoke problem sizes as `<id>-quick`, whose golden is
//! `<id>_quick.txt` (`-` becomes `_`, as for every golden).
//!
//! ## Chaos fuzzing
//!
//! ```text
//! paper chaos [--trials N] [--seed S] [--jobs N]    # seeded campaign
//! paper chaos --repro path/to/repro.json            # replay one scenario
//! ```
//!
//! `chaos` runs the deterministic scenario fuzzer
//! ([`uvm_core::chaos`]): each trial composes a workload × policy stack ×
//! fault plan × oversubscription × kill/restore schedule, runs it in
//! torture mode (snapshot → JSON → kill → restore at fuzzer-chosen batch
//! boundaries) against a clean one-shot reference, and requires
//! bit-identical final digests and batch records plus a clean cross-layer
//! audit. Failures shrink to a minimal scenario and are written as repro
//! files (`chaos-repro-<trial>.json`, or into `--out <dir>`); replay one
//! with `--repro`. Exit status is non-zero if any trial fails. Output is
//! byte-identical for any `--jobs N`.
//!
//! ## Checkpoint / resume
//!
//! ```text
//! --checkpoint-every N     write a checkpoint every N serviced batches
//! --checkpoint-file PATH   where to write it (default uvm-ckpt.json)
//! --resume PATH            resume a killed invocation from its checkpoint
//! --halt-after-checkpoint  exit right after the first checkpoint (kill demo)
//! ```
//!
//! Resume re-executes the harness deterministically; completed runs replay
//! in full and the checkpointed run restores mid-flight, so the combined
//! output of the killed invocation and the resumed one is byte-identical
//! to an uninterrupted run.
//!
//! ## Tracing
//!
//! ```text
//! paper list                                   # enumerate experiment ids
//! paper trace fig3 --out target/trace          # run fig3 with a RingTracer
//! paper trace fig3 --out d --trace-filter driver,batch-close
//! ```
//!
//! `trace` installs a bounded [`uvm_core::trace::RingTracer`], runs the
//! selected experiment with *byte-identical* stdout (tracing is
//! perturbation-free), and writes four artifacts to `--out`: a Chrome
//! `trace_event` JSON (load in Perfetto or `chrome://tracing`), a CSV
//! event dump, the per-batch latency-breakdown table, and the
//! trace-derived fault-latency distribution. With no `--trace-filter` it
//! also asserts that every complete batch's span breakdown reconciles
//! exactly with its `BatchClose` component vector.
//!
//! ## Other maintenance commands
//!
//! `--bless` rewrites the checked-in golden files from the current output;
//! `diverge [batch]` runs the lockstep divergence-detector demo.

use std::io::Write as _;
use std::time::Instant;

use uvm_bench::{
    canonical_id, experiments, run_experiments, run_grid, Experiment, ExperimentOutput, SEED,
};
use uvm_core::divergence::{run_lockstep_perturbed, LockstepOutcome};
use uvm_core::experiments::grid::Sweep;
use uvm_core::experiments::{bless_golden, ext_architectures, ext_multitenant, ext_policy};
use uvm_core::parallel;
use uvm_core::runctl::{self, RunCtl};
use uvm_core::stats::{percentile, Histogram, Summary};
use uvm_core::trace::{self as trace, RingTracer, TraceFilter};
use uvm_core::workloads::cpu_init::CpuInitPolicy;
use uvm_core::workloads::stream::{self, StreamParams};
use uvm_core::SystemConfig;

/// Print `err` and exit with status 1 — the harness's terminal error path.
fn fail(context: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("error: {context}: {err}");
    std::process::exit(1);
}

/// `paper chaos`: run a seeded chaos campaign (or replay one repro file)
/// and exit non-zero on any divergence, audit failure, or error.
fn chaos_command(trials: u64, seed: u64, repro: Option<&str>, out_dir: Option<&str>) {
    use uvm_core::chaos;

    if let Some(path) = repro {
        let file = match chaos::ReproFile::load(std::path::Path::new(path)) {
            Ok(f) => f,
            Err(e) => fail(&format!("load repro {path}"), e),
        };
        println!("replaying repro: {}", file.description);
        let verdict = chaos::run_trial(&file.scenario);
        match &verdict {
            chaos::TrialVerdict::Pass => {
                println!("repro passes: 0 divergences, 0 audit failures");
            }
            chaos::TrialVerdict::Divergence(d) => println!("repro FAILS (divergence): {d}"),
            chaos::TrialVerdict::AuditFailure(d) => println!("repro FAILS (audit): {d}"),
            chaos::TrialVerdict::RunError(d) => println!("repro FAILS (error): {d}"),
        }
        if verdict.is_failure() {
            std::process::exit(1);
        }
        return;
    }

    println!("chaos: {trials} trials, seed {seed:#x}");
    let report = chaos::run_campaign(trials, seed);
    print!("{}", report.render());
    if !report.clean() {
        // Persist each shrunk failure so it can be replayed and committed.
        let dir = out_dir.unwrap_or(".");
        if let Err(err) = std::fs::create_dir_all(dir) {
            fail("create repro output dir", err);
        }
        for f in &report.failures {
            let path = std::path::Path::new(dir).join(format!("chaos-repro-{}.json", f.trial));
            let file = chaos::ReproFile {
                description: format!(
                    "shrunk from campaign seed {seed:#x} trial {}: {:?}",
                    f.trial, f.verdict
                ),
                scenario: f.scenario.clone(),
            };
            match file.save(&path) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
            }
        }
        std::process::exit(1);
    }
}

/// Lockstep divergence-detector demo: two identically-seeded systems, one
/// with a deliberately burned RNG draw before `perturb_at`. The detector
/// must name the first diverging batch and the subsystem whose digest
/// broke.
fn diverge_demo(perturb_at: u64) {
    let workload = stream::build(StreamParams {
        warps: 64,
        pages_per_warp: 16,
        iters: 1,
        warps_per_page: 1,
        cpu_init: Some(CpuInitPolicy::Striped { threads: 8 }),
    });
    let config = SystemConfig::test_small(64 * 1024 * 1024).with_seed(SEED);
    println!("lockstep divergence demo: stream workload, seed {SEED:#x}");
    println!("instance A: pristine; instance B: one extra RNG draw before batch {perturb_at}");
    match run_lockstep_perturbed(&config, &workload, perturb_at) {
        Ok(LockstepOutcome::Identical { batches }) => {
            println!("runs stayed bit-identical through all {batches} batches");
            if perturb_at > 0 {
                eprintln!("error: the perturbation was not detected");
                std::process::exit(1);
            }
        }
        Ok(LockstepOutcome::Diverged(d)) => {
            println!("{d}");
            println!("  instance A digests: gpu={:#018x} driver={:#018x} host={:#018x} run={:#018x}",
                d.a.gpu, d.a.driver, d.a.host, d.a.run);
            println!("  instance B digests: gpu={:#018x} driver={:#018x} host={:#018x} run={:#018x}",
                d.b.gpu, d.b.driver, d.b.host, d.b.run);
        }
        Err(e) => fail("lockstep run failed", e),
    }
}

/// Render the trace-derived fault-latency distribution (the Figure-1-style
/// histogram) as text.
fn latency_report(lifetimes: &[u64]) -> String {
    if lifetimes.is_empty() {
        return "no fault lifetimes captured (no fault-serviced events in trace)\n".into();
    }
    let us: Vec<f64> = lifetimes.iter().map(|&ns| ns as f64 / 1000.0).collect();
    let s = Summary::of(&us);
    let mut out = format!(
        "fault service latency over {} faults (buffer arrival -> batch close)\n\
         mean {:.1} us  std {:.1} us  min {:.1} us  median {:.1} us  p99 {:.1} us  max {:.1} us\n\n",
        s.n,
        s.mean,
        s.std_dev,
        s.min,
        s.median,
        percentile(&us, 99.0),
        s.max
    );
    let hi = s.max.max(s.min + 1.0);
    let mut hist = Histogram::new(s.min, hi, 16);
    for &v in &us {
        hist.add(v);
    }
    let peak = (0..hist.bins()).map(|i| hist.count(i)).max().unwrap_or(1).max(1);
    out.push_str(&format!("{:>12} {:>8}  histogram\n", "center_us", "count"));
    for (center, count) in hist.centers() {
        let bar = "#".repeat(((count * 40).div_ceil(peak)) as usize);
        out.push_str(&format!("{center:>12.1} {count:>8}  {bar}\n"));
    }
    out
}

/// Run one experiment under a [`RingTracer`] and export the recorded
/// trace. Stdout is byte-identical to an untraced run of the same
/// experiment (tracing is perturbation-free); the artifacts and a summary
/// go to `--out` and stderr.
fn trace_experiment(spec: &str, out_dir: Option<&str>, filter_spec: Option<&str>) {
    let all = experiments();
    let id = canonical_id(spec);
    let Some(e) = all.iter().find(|e| e.id == id) else {
        eprintln!(
            "unknown experiment '{spec}'; available: {}",
            all.iter().map(|e| e.id).collect::<Vec<_>>().join(", ")
        );
        std::process::exit(1);
    };
    let Some(out_dir) = out_dir else {
        eprintln!("paper trace requires --out <dir> for the trace artifacts");
        std::process::exit(2);
    };
    let filter = match filter_spec {
        None => TraceFilter::all(),
        Some(spec) => TraceFilter::parse(spec).unwrap_or_else(|err| {
            eprintln!("error: {err}");
            std::process::exit(2);
        }),
    };
    if let Err(err) = std::fs::create_dir_all(out_dir) {
        fail("create trace output dir", err);
    }

    trace::install(Box::new(RingTracer::with_filter(1 << 22, filter)));
    let t0 = Instant::now();
    let (text, _value) = (e.run)();
    let elapsed = t0.elapsed().as_secs_f64();
    let Some(tracer) = trace::uninstall() else {
        fail("trace teardown", "tracer no longer installed after run");
    };
    let Some(ring) = tracer.as_ring() else {
        fail("trace teardown", "installed backend is not a ring tracer");
    };
    let records: Vec<_> = ring.records().cloned().collect();

    // Identical stdout to the untraced path — CI diffs this byte-for-byte
    // (modulo the wall-clock timing suffix).
    println!("================================================================");
    println!("{}   [{elapsed:.2}s]", e.title);
    println!("================================================================");
    println!("{text}\n");

    let breakdowns = trace::breakdown(&records);
    let lifetimes = trace::fault_lifetimes(&records);
    let artifacts = [
        (format!("{out_dir}/{id}.trace.json"), trace::chrome_trace(&records)),
        (format!("{out_dir}/{id}.trace.csv"), trace::csv(&records)),
        (format!("{out_dir}/{id}.breakdown.txt"), trace::breakdown_table(&breakdowns)),
        (format!("{out_dir}/{id}.latency.txt"), latency_report(&lifetimes)),
    ];
    for (path, contents) in &artifacts {
        if let Err(err) = std::fs::write(path, contents) {
            fail("write trace artifact", err);
        }
        eprintln!("wrote {path}");
    }

    let complete = breakdowns.iter().filter(|b| b.complete()).count();
    eprintln!(
        "trace: {} events captured ({} evicted), {} batches ({} complete), {} fault lifetimes",
        records.len(),
        ring.dropped(),
        breakdowns.len(),
        complete,
        lifetimes.len()
    );
    if filter_spec.is_none() {
        // With the full event stream, every complete batch's component
        // spans must tile to exactly its BatchClose vector.
        let broken: Vec<_> = breakdowns
            .iter()
            .filter(|b| b.complete() && !b.reconciled())
            .map(|b| (b.run, b.batch))
            .collect();
        if broken.is_empty() {
            eprintln!("reconciliation: all {complete} complete batches match their BatchClose breakdown");
        } else {
            eprintln!("error: span/BatchClose breakdown mismatch in batches {broken:?}");
            std::process::exit(1);
        }
    } else {
        eprintln!("reconciliation check skipped (--trace-filter may drop component spans)");
    }
}

/// Print one finished experiment (banner + report) and handle `--bless` /
/// `--json` side effects. Identical for serial and parallel runs.
fn emit(o: &ExperimentOutput, bless: bool, json_dir: Option<&str>) {
    println!("================================================================");
    println!("{}   [{:.2}s]", o.title, o.secs);
    println!("================================================================");
    println!("{}\n", o.text);
    if bless {
        match bless_golden(&o.id, &o.text) {
            Ok(Some(path)) => println!("blessed {}\n", path.display()),
            Ok(None) => {}
            Err(err) => fail(&format!("failed to bless golden for {}", o.id), err),
        }
    }
    if let Some(dir) = json_dir {
        let path = format!("{dir}/{}.json", o.id);
        let payload = match serde_json::to_string_pretty(&o.value) {
            Ok(p) => p,
            Err(err) => fail(&format!("serialize {}", o.id), err),
        };
        let write = std::fs::File::create(&path)
            .and_then(|mut f| f.write_all(payload.as_bytes()));
        if let Err(err) = write {
            fail(&format!("write {path}"), err);
        }
        println!("wrote {path}\n");
    }
}

/// Builds a grid at CI-smoke (`true`) or full scale.
type SweepFn = fn(bool) -> Sweep;

/// `paper <verb>` aliases of the grid experiments, with the grid each
/// runs at CI-smoke scale under `--quick`.
const SWEEP_ALIASES: [(&str, &str, SweepFn); 3] = [
    ("sweep", "ext-policy", ext_policy::sweep),
    ("multitenant", "ext-multitenant", ext_multitenant::sweep),
    ("architectures", "ext-architectures", ext_architectures::sweep),
];

/// Run grid experiment `e` at CI-smoke scale: printed as `<id>-quick`
/// under its title with the parenthetical replaced by "(quick scale)".
fn quick_sweep(e: &Experiment, sweep: SweepFn) -> ExperimentOutput {
    let t0 = Instant::now();
    let (text, value) = run_grid(&sweep(true));
    let stem = e.title.rsplit_once(" (").map_or(e.title, |(stem, _)| stem);
    ExperimentOutput {
        id: format!("{}-quick", e.id),
        title: format!("{stem} (quick scale)"),
        text,
        value,
        secs: t0.elapsed().as_secs_f64(),
    }
}

/// Create the `--json` output directory, if one was given.
fn create_json_dir(json_dir: Option<&str>) {
    if let Some(dir) = json_dir {
        if let Err(err) = std::fs::create_dir_all(dir) {
            fail("create json output dir", err);
        }
    }
}

/// `paper bench`: write the machine-readable perf baseline.
fn bench_command(jobs: usize, out: Option<&str>, quick: bool) {
    eprintln!(
        "benchmarking: serial experiment pass{}, then hot-loop micros ({} mode)",
        if quick || jobs <= 1 { "" } else { " + parallel pass" },
        if quick { "quick" } else { "full" }
    );
    let report = uvm_bench::perf::bench_report(jobs, quick);
    let payload = match serde_json::to_string_pretty(&report) {
        Ok(p) => p,
        Err(err) => fail("serialize bench report", err),
    };
    match out {
        Some(path) => {
            if let Err(err) = std::fs::write(path, payload + "\n") {
                fail(&format!("write {path}"), err);
            }
            eprintln!("wrote {path}");
        }
        None => println!("{payload}"),
    }
}

/// Parse a flag's value as a count above zero, or print `usage` and exit
/// with status 2.
fn positive<T: std::str::FromStr + Default + PartialEq>(value: Option<String>, usage: &str) -> T {
    match value.and_then(|v| v.parse().ok()) {
        Some(n) if n != T::default() => n,
        _ => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_dir: Option<String> = None;
    let mut out_dir: Option<String> = None;
    let mut trace_filter: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut bless = false;
    let mut quick = false;
    let mut jobs: Option<usize> = None;
    let mut trials: u64 = 25;
    let mut seed: u64 = 0;
    let mut repro: Option<String> = None;
    let mut ctl = RunCtl::default();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json_dir = it.next(),
            "--out" => out_dir = it.next(),
            "--trace-filter" => trace_filter = it.next(),
            "--bless" => bless = true,
            "--quick" => quick = true,
            "--jobs" => jobs = Some(positive(it.next(), "--jobs needs a positive thread count")),
            "--trials" => trials = positive(it.next(), "--trials needs a positive count"),
            "--seed" => {
                seed = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs an integer");
                    std::process::exit(2);
                });
            }
            "--repro" => repro = it.next(),
            "--checkpoint-every" => {
                ctl.checkpoint_every = Some(positive(
                    it.next(),
                    "--checkpoint-every needs a positive batch count",
                ));
            }
            "--checkpoint-file" => ctl.checkpoint_path = it.next().map(Into::into),
            "--resume" => ctl.resume_from = it.next().map(Into::into),
            "--halt-after-checkpoint" => ctl.halt_after_checkpoint = true,
            _ => positional.push(a),
        }
    }
    let mut filter = positional.first().cloned();

    // These verbs return before run control is configured, so a checkpoint
    // flag would be silently ignored (yet still force `--jobs 1`).
    let checkpoint_flag = ctl.checkpoint_every.is_some()
        || ctl.checkpoint_path.is_some()
        || ctl.resume_from.is_some()
        || ctl.halt_after_checkpoint;
    if let Some(verb @ ("chaos" | "bench" | "diverge")) = filter.as_deref() {
        if checkpoint_flag {
            eprintln!(
                "usage: paper {verb} takes no --checkpoint-every, --checkpoint-file, \
                 --resume or --halt-after-checkpoint"
            );
            std::process::exit(2);
        }
    }

    // Resolve the worker budget. Checkpoint/resume runs are forced serial:
    // the run-control ordinal that matches runs to checkpoints is
    // process-global, so concurrent runs would race it.
    let checkpointing = ctl.checkpoint_every.is_some() || ctl.resume_from.is_some();
    let requested = jobs.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    let effective = if checkpointing && requested > 1 {
        eprintln!("note: checkpoint/resume forces --jobs 1 (run ordinal is process-global)");
        1
    } else {
        requested
    };
    parallel::configure_jobs(effective);

    if filter.as_deref() == Some("list") {
        for e in experiments() {
            println!("{:<14} {}", e.id, e.title);
        }
        return;
    }

    if filter.as_deref() == Some("diverge") {
        // Optional trailing batch number; default to a mid-run batch.
        let at = positional.get(1).and_then(|v| v.parse().ok()).unwrap_or(3);
        diverge_demo(at);
        return;
    }

    if filter.as_deref() == Some("bench") {
        bench_command(effective, out_dir.as_deref(), quick);
        return;
    }

    if filter.as_deref() == Some("chaos") {
        chaos_command(trials, seed, repro.as_deref(), out_dir.as_deref());
        return;
    }

    if let Err(e) = runctl::configure(ctl) {
        fail("run-control configuration", e);
    }

    if filter.as_deref() == Some("trace") {
        let Some(id) = positional.get(1) else {
            eprintln!("usage: paper trace <experiment> --out <dir> [--trace-filter <spec>]");
            std::process::exit(2);
        };
        trace_experiment(id, out_dir.as_deref(), trace_filter.as_deref());
        return;
    }

    let alias = SWEEP_ALIASES.iter().find(|(verb, ..)| filter.as_deref() == Some(*verb));
    if let Some((_, id, _)) = alias {
        filter = Some((*id).to_string());
    }
    let all = experiments();
    let selected: Vec<&Experiment> = match &filter {
        Some(f) => all.iter().filter(|e| e.id == f).collect(),
        None => all.iter().collect(),
    };
    if selected.is_empty() {
        eprintln!(
            "unknown experiment '{}'; available: {}",
            filter.unwrap_or_default(),
            all.iter().map(|e| e.id).collect::<Vec<_>>().join(", ")
        );
        std::process::exit(1);
    }
    create_json_dir(json_dir.as_deref());

    if let (Some((_, _, sweep)), true) = (alias, quick) {
        emit(&quick_sweep(selected[0], *sweep), bless, json_dir.as_deref());
        return;
    }

    if effective <= 1 {
        // Serial path: print each experiment as it finishes.
        for e in selected {
            let o = run_experiments(vec![e]);
            emit(&o[0], bless, json_dir.as_deref());
        }
    } else {
        // Parallel path: fan out across the pool; results come back in
        // submission order, so the emitted stream is byte-identical to
        // the serial path (modulo the wall-clock suffixes).
        for o in run_experiments(selected) {
            emit(&o, bless, json_dir.as_deref());
        }
    }
}
