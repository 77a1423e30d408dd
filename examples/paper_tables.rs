//! Regenerate the paper's Tables 2, 3, and 4 and print them side by side
//! with the published values for comparison.
//!
//! ```text
//! cargo run --release --example paper_tables
//! ```

use uvm_core::experiments::{table2_per_sm, table3_vablocks, table4_speedup};
use uvm_core::RunCtx;

fn main() {
    let seed = 0x5C21;
    let ctx = RunCtx::new(1);

    println!("{}\n", table2_per_sm::run(&ctx, seed).render());
    println!("paper (Titan V): Regular 3.06, Random 3.03, sgemm 0.85, stream 0.75,");
    println!("                 cufft 0.91, gauss-seidel 0.65, hpgmg 0.41; max 3.20\n");

    println!("{}\n", table3_vablocks::run(&ctx, seed).render());
    println!("paper: Random 233.09 blk/batch @ 1.04 faults/blk; gauss-seidel 2.31 @ 22.44;");
    println!("       sgemm 6.96 @ 9.81; stream 3.93 @ 15.37; cufft 25.14 @ 2.89\n");

    println!("{}\n", table4_speedup::run(&ctx, seed).render());
    println!("paper: gauss-seidel 60.477s -> 15.340s batch (kernel 3.39x);");
    println!("       hpgmg 32.384s -> 7.261s batch (kernel 2.72x)");
}
