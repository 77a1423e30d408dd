//! Fault microscope: reproduce the paper's Listing 1 / Figs. 3–4 analysis.
//!
//! Runs the page-strided vector-addition microbenchmark with per-fault
//! metadata logging and prints every fault in arrival order, grouped by
//! batch — showing the 56-entry μTLB limit filling, the scoreboard gating
//! writes behind reads, and the tight intra-batch arrival clustering.
//!
//! ```text
//! cargo run --release --example fault_microscope
//! ```

use uvm_core::experiments::fig03_vecadd;
use uvm_core::RunCtx;

fn main() {
    let result = fig03_vecadd::run(&RunCtx::new(1), 0x5C21);
    println!("{}", result.render());

    println!("\nper-fault arrival log (first three batches):");
    println!("{:>5} {:>8} {:>10} {:>12}", "batch", "page", "kind", "arrival(us)");
    for f in result.faults.iter().filter(|f| f.batch < 3) {
        println!(
            "{:>5} {:>8} {:>10} {:>12.3}",
            f.batch,
            f.page,
            format!("{:?}", f.kind),
            f.arrival_ns as f64 / 1e3
        );
    }

    println!(
        "\nFig. 4's claim: faults of a batch cluster tightly ({:.1} us spread) versus the",
        result.mean_intra_batch_spread_ns / 1e3
    );
    println!(
        "inter-batch servicing gap ({:.1} us) — the GPU stalls while the driver works.",
        result.mean_inter_batch_gap_ns / 1e3
    );
}
