//! Regenerates Table I: GFLOPS of ABFT / A-ABFT / SEA-ABFT / TMR across
//! matrix sizes, on the calibrated K20c performance model.
//!
//! ```text
//! cargo run --release -p aabft-bench --bin table1
//! cargo run --release -p aabft-bench --bin table1 -- --sizes 512,1024 --simulate 128
//! ```
//!
//! `--simulate N` additionally runs every scheme on the functional
//! simulator at size `N` and prints the row derived from *measured* launch
//! logs (the analytic path is unit-tested to match it exactly).

use aabft_bench::args::Args;
use aabft_bench::table1::{modelled_row, simulated_row, Table1Row};
use aabft_gpu_sim::kernels::gemm::GemmTiling;
use aabft_obs::json::{write_array, JsonObject};

fn print_row(r: &Table1Row) {
    println!(
        "{:>8} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>12.2}",
        r.n, r.abft, r.aabft, r.sea, r.tmr, r.unprotected
    );
}

fn main() {
    let args = Args::parse();
    let sizes = args.sizes("sizes", &[512, 1024, 2048, 3072, 4096, 5120, 6144, 7168, 8192]);
    let bs = args.get("bs", 32usize);
    let p = args.get("p", 2usize);
    let simulate = args.get("simulate", 0usize);
    let tiling = GemmTiling::default();

    println!("Table I reproduction: performance in GFLOPS (modelled K20c)");
    println!("scheme parameters: BS = {bs}, p = {p}, tiling = {tiling:?}");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "n", "ABFT", "A-ABFT", "SEA-ABFT", "TMR", "unprotected"
    );
    let mut json_rows = Vec::new();
    for &n in &sizes {
        let r = modelled_row(n, bs, p, tiling);
        print_row(&r);
        json_rows.push(
            JsonObject::new()
                .int("n", r.n as u64)
                .num("abft", r.abft)
                .num("aabft", r.aabft)
                .num("sea_abft", r.sea)
                .num("tmr", r.tmr)
                .num("unprotected", r.unprotected),
        );
    }
    let json = args.get("json", String::new());
    if !json.is_empty() {
        write_array(std::path::Path::new(&json), &json_rows);
        println!("(wrote {json})");
    }

    if simulate > 0 {
        println!();
        println!("cross-check row from the functional simulator at n = {simulate}:");
        print_row(&simulated_row(simulate, bs, p, tiling, 2014));
    }

    println!();
    println!("paper (Table I, K20c measured): n=8192 -> ABFT 942.61, A-ABFT 903.44,");
    println!("SEA-ABFT 712.75, TMR 348.09; unprotected ~1048.4 GFLOPS.");
}
