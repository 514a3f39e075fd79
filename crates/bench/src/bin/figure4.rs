//! Regenerates Figure 4: percentage of detected errors for single-bit (or
//! multi-bit) mantissa flips per fault site × input class × matrix size,
//! A-ABFT vs SEA-ABFT.
//!
//! ```text
//! cargo run --release -p aabft-bench --bin figure4
//! cargo run --release -p aabft-bench --bin figure4 -- --sizes 64,128 --trials 100 --bits 3
//! ```

use aabft_bench::args::Args;
use aabft_bench::fig4::{sweep, Fig4Config};
use aabft_matrix::gen::InputClass;
use aabft_obs::json::{write_array, JsonObject};

fn main() {
    let args = Args::parse();
    let config = Fig4Config {
        sizes: args.sizes("sizes", &[64, 128, 256]),
        trials: args.get("trials", 200usize),
        bits: args.get("bits", 1u32),
        seed: args.get("seed", 20140623u64),
        bs: args.get("bs", 32usize),
        ..Default::default()
    };

    println!(
        "Figure 4 reproduction: % of critical errors detected ({}-bit mantissa flips, \
         {} trials/cell)",
        config.bits, config.trials
    );
    println!(
        "{:<28} {:<22} {:>6} {:>10} {:>13} {:>10} {:>9} {:>8}",
        "operation", "inputs", "n", "A-ABFT %", "(95% CI)", "SEA %", "critical", "masked"
    );

    let cells = sweep(&config);
    let json = args.get("json", String::new());
    if !json.is_empty() {
        let rows: Vec<JsonObject> = cells
            .iter()
            .map(|c| {
                JsonObject::new()
                    .str("scheme", c.scheme)
                    .str("site", c.site.label())
                    .str(
                        "input",
                        &match c.input {
                            InputClass::Uniform { lo, hi } => format!("uniform[{lo},{hi}]"),
                            InputClass::DynamicRange { alpha, kappa } => {
                                format!("dynamic(a={alpha},k={kappa})")
                            }
                        },
                    )
                    .int("n", c.n as u64)
                    .int("bits", c.bits as u64)
                    .int("critical", c.stats.critical)
                    .int("critical_detected", c.stats.critical_detected)
                    .int("masked", c.stats.masked)
                    .num("detection_percent", c.detection_percent())
            })
            .collect();
        write_array(std::path::Path::new(&json), &rows);
        println!("(wrote {json})");
    }
    for pair in cells.chunks(2) {
        let (a, s) = (&pair[0], &pair[1]);
        let label = match a.input {
            InputClass::Uniform { lo, hi } => format!("uniform[{lo},{hi}]"),
            InputClass::DynamicRange { alpha, kappa } => format!("dynamic(a={alpha},k={kappa})"),
        };
        let (lo, hi) = a.stats.detection_interval();
        println!(
            "{:<28} {:<22} {:>6} {:>10.1} {:>13} {:>10.1} {:>9} {:>8}",
            a.site.label(),
            label,
            a.n,
            a.detection_percent(),
            format!("[{:.0}-{:.0}]", 100.0 * lo, 100.0 * hi),
            s.detection_percent(),
            a.stats.critical,
            a.stats.masked,
        );
    }

    println!();
    println!("expected shape (paper Fig. 4): A-ABFT detects well over 90% of critical");
    println!("errors, independent of n; SEA-ABFT detects fewer, degrading as n grows.");
    println!("(Sign/exponent flips are detected 100% by both schemes; mantissa flips");
    println!("shown here are the discriminating case.)");
}
