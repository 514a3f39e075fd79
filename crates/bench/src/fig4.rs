//! Figure 4 support: fault-injection detection-rate sweeps.
//!
//! The figure reports, for single-bit mantissa flips, the percentage of
//! detected errors per fault site (inner-loop addition, final-sum addition,
//! inner-loop multiplication), input class and matrix size, comparing
//! A-ABFT against SEA-ABFT.

use aabft_baselines::SeaAbft;
use aabft_core::{AAbftConfig, AAbftGemm};
use aabft_faults::bitflip::BitRegion;
use aabft_faults::campaign::{run_campaign, CampaignConfig};
use aabft_faults::outcome::DetectionStats;
use aabft_faults::plan::{FaultSpec, InjectScope};
use aabft_gpu_sim::inject::FaultSite;
use aabft_gpu_sim::kernels::gemm::GemmTiling;
use aabft_matrix::gen::InputClass;

/// One bar of Figure 4.
#[derive(Debug, Clone)]
pub struct Fig4Cell {
    /// Scheme under test (`"A-ABFT"` / `"SEA-ABFT"`).
    pub scheme: &'static str,
    /// Targeted operation.
    pub site: FaultSite,
    /// Input-value distribution.
    pub input: InputClass,
    /// Matrix dimension.
    pub n: usize,
    /// Flipped bits per fault.
    pub bits: u32,
    /// Aggregated campaign statistics.
    pub stats: DetectionStats,
}

impl Fig4Cell {
    /// The plotted metric: percentage of critical errors detected.
    pub fn detection_percent(&self) -> f64 {
        100.0 * self.stats.detection_rate()
    }
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct Fig4Config {
    /// Matrix sizes.
    pub sizes: Vec<usize>,
    /// Input classes (the paper uses [-1,1], [-100,100] and the dynamic
    /// matrices with κ = 65536).
    pub inputs: Vec<InputClass>,
    /// Fault sites (all three of Algorithm 3).
    pub sites: Vec<FaultSite>,
    /// Bit field (Figure 4 shows mantissa flips; sign/exponent are all
    /// detected by both schemes).
    pub region: BitRegion,
    /// Flips per fault (1, 3 or 5 in the paper).
    pub bits: u32,
    /// Trials per cell.
    pub trials: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Block size of both schemes.
    pub bs: usize,
    /// GEMM tiling of both schemes.
    pub tiling: GemmTiling,
}

impl Default for Fig4Config {
    fn default() -> Self {
        Fig4Config {
            sizes: vec![64, 128, 256],
            inputs: vec![InputClass::UNIT, InputClass::HUNDRED, InputClass::DYNAMIC_K65536],
            sites: FaultSite::ALL.to_vec(),
            region: BitRegion::Mantissa,
            bits: 1,
            trials: 200,
            seed: 20140623,
            bs: 32,
            tiling: GemmTiling::default(),
        }
    }
}

/// Runs the full sweep; cells come out ordered (site, input, n, scheme).
pub fn sweep(config: &Fig4Config) -> Vec<Fig4Cell> {
    let mut cells = Vec::new();
    for &site in &config.sites {
        for &input in &config.inputs {
            for &n in &config.sizes {
                let campaign = CampaignConfig {
                    n,
                    input,
                    spec: FaultSpec { site, region: config.region, bits: config.bits, fixed_bit: None },
                    trials: config.trials,
                    seed: config.seed ^ (n as u64) << 3 ^ site.index() as u64,
                    omega: 3.0,
                    block_size: config.bs,
                    tiling: config.tiling,
                    faults_per_run: 1,
                    scope: InjectScope::GemmSites,
                };
                let aabft = AAbftGemm::new(
                    AAbftConfig::builder().block_size(config.bs).tiling(config.tiling).build().expect("valid config"),
                );
                let r = run_campaign(&aabft, &campaign);
                cells.push(Fig4Cell {
                    scheme: "A-ABFT",
                    site,
                    input,
                    n,
                    bits: config.bits,
                    stats: r.stats,
                });
                let sea = SeaAbft::new(config.bs).with_tiling(config.tiling);
                let r = run_campaign(&sea, &campaign);
                cells.push(Fig4Cell {
                    scheme: "SEA-ABFT",
                    site,
                    input,
                    n,
                    bits: config.bits,
                    stats: r.stats,
                });
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_produces_expected_cells() {
        let config = Fig4Config {
            sizes: vec![16],
            inputs: vec![InputClass::UNIT],
            sites: vec![FaultSite::FinalAdd],
            trials: 12,
            bs: 4,
            tiling: GemmTiling { bm: 8, bn: 8, bk: 4, rx: 2, ry: 2 },
            ..Default::default()
        };
        let cells = sweep(&config);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].scheme, "A-ABFT");
        assert_eq!(cells[1].scheme, "SEA-ABFT");
        for c in &cells {
            assert_eq!(c.stats.total() as usize, 12);
        }
    }
}
