//! Ablation: detection rate as a function of the flipped bit position — the
//! classic ABFT sensitivity curve. Low mantissa bits produce errors below
//! the rounding noise (benign by definition); detection of *critical*
//! errors should switch on as the flipped bit climbs toward the exponent,
//! and A-ABFT's tighter bounds should switch on earlier than SEA-ABFT's.
//!
//! ```text
//! cargo run --release -p aabft-bench --bin ablation_bitpos -- --n 96 --trials 120
//! ```

use aabft_baselines::SeaAbft;
use aabft_bench::args::Args;
use aabft_core::{AAbftConfig, AAbftGemm};
use aabft_faults::campaign::{run_campaign, CampaignConfig};
use aabft_faults::plan::{FaultSpec, InjectScope};
use aabft_gpu_sim::inject::FaultSite;
use aabft_gpu_sim::kernels::gemm::GemmTiling;
use aabft_matrix::gen::InputClass;

fn main() {
    let args = Args::parse();
    let n = args.get("n", 96usize);
    let trials = args.get("trials", 120usize);
    let bs = args.get("bs", 16usize);
    let tiling = GemmTiling { bm: 32, bn: 32, bk: 8, rx: 4, ry: 4 };

    println!("Ablation: detection vs flipped bit position (inner-loop add, n = {n}, {trials} trials/bit)");
    println!(
        "{:>5} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "bit", "A-ABFT %", "SEA %", "critical", "benign", "masked"
    );
    for bit in [8u32, 16, 24, 32, 40, 44, 48, 51, 55, 58, 62, 63] {
        let config = CampaignConfig {
            n,
            input: InputClass::UNIT,
            spec: FaultSpec::at_bit(FaultSite::InnerAdd, bit),
            trials,
            seed: 0xB17 + bit as u64,
            omega: 3.0,
            block_size: bs,
            tiling,
            faults_per_run: 1,
            scope: InjectScope::GemmSites,
        };
        let aabft =
            AAbftGemm::new(AAbftConfig::builder().block_size(bs).tiling(tiling).build().expect("valid config"));
        let ra = run_campaign(&aabft, &config);
        let sea = SeaAbft::new(bs).with_tiling(tiling);
        let rs = run_campaign(&sea, &config);
        let pct = |c: u64, d: u64| if c == 0 { f64::NAN } else { 100.0 * d as f64 / c as f64 };
        println!(
            "{:>5} {:>10.1} {:>10.1} {:>10} {:>10} {:>9}",
            bit,
            pct(ra.stats.critical, ra.stats.critical_detected),
            pct(rs.stats.critical, rs.stats.critical_detected),
            ra.stats.critical,
            ra.stats.benign,
            ra.stats.masked,
        );
    }
    println!();
    println!("expected: low mantissa bits produce only benign errors (no critical");
    println!("column); once flips become critical, A-ABFT's detection switches on at");
    println!("lower bit positions than SEA-ABFT's (its bounds sit ~2 orders tighter).");
}
