//! Ablation: simultaneous multi-fault behaviour. The paper injects one
//! fault per multiplication; here 1–4 faults strike the same run. Detection
//! should stay high (checksums accumulate all deviations), while
//! *single-error correction* stops sufficing — the selective block-recompute
//! recovery policy keeps healing the product.
//!
//! ```text
//! cargo run --release -p aabft-bench --bin ablation_multifault -- --n 96 --trials 120
//! ```

use aabft_bench::args::Args;
use aabft_core::recover::RecoveryPolicy;
use aabft_core::{AAbftConfig, AAbftGemm};
use aabft_faults::bitflip::BitRegion;
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

    println!(
        "Ablation: simultaneous faults per run (exponent flips, final-sum add, n = {n}, \
         {trials} trials)"
    );
    println!(
        "{:>7} {:>12} {:>12} {:>14} {:>14}",
        "faults", "detect %", "critical", "healed(rec) %", "unhealed(rec)"
    );
    for faults in 1..=4 {
        let config = CampaignConfig {
            n,
            input: InputClass::UNIT,
            spec: FaultSpec::single(FaultSite::FinalAdd, BitRegion::Exponent),
            trials,
            seed: 0xF0 + faults as u64,
            omega: 3.0,
            block_size: bs,
            tiling,
            faults_per_run: faults,
            scope: InjectScope::GemmSites,
        };
        // Without recovery: measure raw detection of the corrupted product.
        let plain =
            AAbftGemm::new(AAbftConfig::builder().block_size(bs).tiling(tiling).build().expect("valid config"));
        let rp = run_campaign(&plain, &config);
        // With recovery: the returned product should be healed. Checksum
        // reconstruction leaves a residue at checksum-rounding level
        // (~1e-13 here), far above the per-element sigma the strict
        // classifier uses, so judge healing by the worst deviation instead.
        let recovering = AAbftGemm::new(
            AAbftConfig::builder()
                .block_size(bs)
                .tiling(tiling)
                .recovery(RecoveryPolicy::CorrectOrRecompute)
                .build().expect("valid config"),
        );
        let rr = run_campaign(&recovering, &config);
        let healed = rr.trials.iter().filter(|t| t.max_deviation < 1e-9).count();
        let unhealed = rr.trials.iter().filter(|t| t.max_deviation >= 1e-9).count();
        println!(
            "{:>7} {:>12.1} {:>12} {:>14.1} {:>14}",
            faults,
            100.0 * rp.stats.detection_rate(),
            rp.stats.critical,
            100.0 * healed as f64 / rr.trials.len() as f64,
            unhealed,
        );
    }
    println!();
    println!("expected: detection stays at ~100% for exponent flips regardless of fault");
    println!("count; with the recompute policy the product is healed (deviation below");
    println!("1e-9) in (almost) every trial even when single-error correction is");
    println!("impossible.");
}
