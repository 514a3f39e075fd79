//! Mini fault-injection campaign: the Figure-4 experiment in miniature,
//! comparing A-ABFT against SEA-ABFT under random single-bit mantissa flips.
//!
//! ```text
//! cargo run --release --example fault_campaign
//! ```

use aabft::baselines::SeaAbft;
use aabft::core::{AAbftConfig, AAbftGemm};
use aabft::faults::bitflip::BitRegion;
use aabft::faults::campaign::{run_campaign, CampaignConfig};
use aabft::faults::plan::{FaultSpec, InjectScope};
use aabft::gpu::kernels::gemm::GemmTiling;
use aabft::gpu::FaultSite;
use aabft::matrix::gen::InputClass;

fn main() {
    let tiling = GemmTiling { bm: 32, bn: 32, bk: 8, rx: 4, ry: 4 };
    let bs = 16;
    let trials = 150;

    println!("Mini Figure-4 campaign: {trials} single-bit mantissa flips per cell\n");
    println!(
        "{:<28} {:>10} {:>10} {:>10} {:>10}",
        "operation", "A-ABFT %", "(crit)", "SEA %", "(crit)"
    );

    for site in FaultSite::ALL {
        let config = CampaignConfig {
            n: 96,
            input: InputClass::UNIT,
            spec: FaultSpec::single(site, BitRegion::Mantissa),
            trials,
            seed: 0xDA7A + site.index() as u64,
            omega: 3.0,
            block_size: bs,
            tiling,
            faults_per_run: 1,
            scope: InjectScope::GemmSites,
        };
        let aabft = AAbftGemm::new(
            AAbftConfig::builder().block_size(bs).tiling(tiling).build().expect("valid config"),
        );
        let ra = run_campaign(&aabft, &config);
        let sea = SeaAbft::new(bs).with_tiling(tiling);
        let rs = run_campaign(&sea, &config);
        println!(
            "{:<28} {:>10.1} {:>10} {:>10.1} {:>10}",
            site.label(),
            ra.detection_percent(),
            ra.stats.critical,
            rs.detection_percent(),
            rs.stats.critical,
        );
        assert!(
            ra.stats.critical_detected >= rs.stats.critical_detected,
            "A-ABFT should never detect fewer critical errors than SEA"
        );
    }

    println!("\nOK: A-ABFT's tighter autonomous bounds catch more critical errors.");
}
