//! `aabft` — command-line front end for the A-ABFT (DSN'14) reproduction.
//!
//! ```text
//! aabft multiply --n 256 --correct true          # protected GEMM
//! aabft batch --count 64 --n 128 --streams 8     # multi-stream batch engine
//! aabft inject --n 128 --site inner-add --bit 58 # one targeted fault
//! aabft campaign --n 96 --scheme sea --trials 200
//! aabft bounds --n 256 --input hundred           # Tables II-IV row
//! aabft perf --sizes 512,1024,8192               # Table I rows
//! ```

use aabft_cli::{
    cmd_batch, cmd_bounds, cmd_campaign, cmd_inject, cmd_multiply, cmd_perf, cmd_profile,
    cmd_report, cmd_serve, usage,
};

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!("{}", usage());
        std::process::exit(2);
    };
    let rest: Vec<String> = args.collect();
    let parsed = aabft_bench::args::Args::from_args(rest);
    match cmd.as_str() {
        "multiply" => cmd_multiply(&parsed),
        "batch" => cmd_batch(&parsed),
        "inject" => cmd_inject(&parsed),
        "campaign" => cmd_campaign(&parsed),
        "bounds" => cmd_bounds(&parsed),
        "perf" => cmd_perf(&parsed),
        "profile" => cmd_profile(&parsed),
        "report" => cmd_report(&parsed),
        "serve" => cmd_serve(&parsed),
        "help" | "--help" | "-h" => println!("{}", usage()),
        other => {
            eprintln!("unknown command {other:?}\n{}", usage());
            std::process::exit(2);
        }
    }
}
