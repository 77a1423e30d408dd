//! Memory-usage hints: compare fault-driven UVM against `cudaMemAdvise`
//! and `cudaMemPrefetchAsync` managements of the same workload, plus the
//! thrashing-mitigation extension on an irregular oversubscribed run.
//!
//! ```text
//! cargo run --release --example memory_hints
//! ```

use uvm_core::experiments::{ext_hints, ext_thrashing};
use uvm_core::RunCtx;

fn main() {
    let ctx = RunCtx::new(1);
    println!("{}\n", ext_hints::run(&ctx, 0x5C21).render());
    println!("The hints trade the paper's fault-path costs explicitly:");
    println!("  - prefetch-async pays the compulsory costs once, up front;");
    println!("  - read-mostly removes the fault-path unmap (and eviction writeback);");
    println!("  - preferred-host removes migration entirely at the price of");
    println!("    every access crossing the interconnect.\n");

    println!("{}\n", ext_thrashing::run(&ctx, 0x5C21).render());
    println!("Pinning re-faulted blocks host-side converts the eviction ping-pong");
    println!("the paper's LRU analysis predicts for irregular access into remote");
    println!("reads — the strategy of the production driver's uvm_perf_thrashing.");
}
