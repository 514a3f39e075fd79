//! Integration tests of the fault-injection stack: detection guarantees per
//! bit region, A-ABFT vs SEA ordering, multi-bit behaviour and TMR voting.

use aabft::baselines::{SeaAbft, TmrGemm};
use aabft::core::{AAbftConfig, AAbftGemm};
use aabft::faults::bitflip::BitRegion;
use aabft::faults::campaign::{run_campaign, CampaignConfig};
use aabft::faults::plan::{FaultSpec, InjectScope};
use aabft::gpu::kernels::gemm::GemmTiling;
use aabft::gpu::FaultSite;
use aabft::matrix::gen::InputClass;

fn tiling() -> GemmTiling {
    GemmTiling { bm: 16, bn: 16, bk: 8, rx: 4, ry: 4 }
}

fn campaign(site: FaultSite, region: BitRegion, bits: u32, trials: usize) -> CampaignConfig {
    CampaignConfig {
        n: 48,
        input: InputClass::UNIT,
        spec: FaultSpec { site, region, bits, fixed_bit: None },
        trials,
        seed: 77,
        omega: 3.0,
        block_size: 8,
        tiling: tiling(),
        faults_per_run: 1,
        scope: InjectScope::GemmSites,
    }
}

fn aabft() -> AAbftGemm {
    AAbftGemm::new(AAbftConfig::builder().block_size(8).tiling(tiling()).build().expect("valid config"))
}

#[test]
fn exponent_and_sign_criticals_are_fully_detected() {
    // Paper: "A-ABFT, as well as SEA-ABFT detected all faults that have
    // been injected into the sign bit or the exponent."
    for region in [BitRegion::Sign, BitRegion::Exponent] {
        for site in FaultSite::ALL {
            let r = run_campaign(&aabft(), &campaign(site, region, 1, 40));
            assert_eq!(
                r.stats.critical_detected, r.stats.critical,
                "{region:?}/{site:?}: {:?}",
                r.stats
            );
        }
    }
}

#[test]
fn aabft_beats_sea_on_mantissa_flips() {
    let sea = SeaAbft::new(8).with_tiling(tiling());
    let mut aabft_total = 0u64;
    let mut sea_total = 0u64;
    for site in FaultSite::ALL {
        let c = campaign(site, BitRegion::Mantissa, 1, 60);
        let ra = run_campaign(&aabft(), &c);
        let rs = run_campaign(&sea, &c);
        aabft_total += ra.stats.critical_detected;
        sea_total += rs.stats.critical_detected;
        // Same trials, same faults: A-ABFT's tighter bounds can only help.
        assert!(
            ra.stats.critical_detected >= rs.stats.critical_detected,
            "{site:?}: A-ABFT {:?} vs SEA {:?}",
            ra.stats,
            rs.stats
        );
    }
    assert!(aabft_total > sea_total, "A-ABFT must detect strictly more overall");
}

#[test]
fn multi_bit_flips_behave_like_single_bit() {
    // Paper Section VI-C: 1-, 3- and 5-bit flips show the same trend.
    let mut rates = Vec::new();
    for bits in [1u32, 3, 5] {
        let r = run_campaign(&aabft(), &campaign(FaultSite::InnerAdd, BitRegion::Mantissa, bits, 60));
        if r.stats.critical > 0 {
            rates.push(r.stats.detection_rate());
        }
    }
    for w in rates.windows(2) {
        assert!((w[0] - w[1]).abs() < 0.35, "trend should be consistent: {rates:?}");
    }
}

#[test]
fn tmr_detects_and_outvotes_everything_that_fires() {
    let tmr = TmrGemm::new().with_tiling(tiling());
    let c = campaign(FaultSite::InnerMul, BitRegion::Exponent, 1, 30);
    let r = run_campaign(&tmr, &c);
    // Identical replicas: any fault that changes any result word (data or
    // padding) diverges the replicas; criticals are all detected...
    assert_eq!(r.stats.critical_detected, r.stats.critical, "{:?}", r.stats);
    // ...and the vote repairs the output: no critical deviation survives in
    // the winner except when the fault hit the voted-in replica pair, which
    // a single fault cannot.
    for t in &r.trials {
        assert!(
            t.max_deviation == 0.0 || t.detected,
            "any surviving deviation must at least be flagged: {t:?}"
        );
    }
}

#[test]
fn detection_rate_stable_across_sizes() {
    // Paper: A-ABFT's detection "does not depend on the size of the input
    // matrices". Verify no collapse from n=32 to n=96.
    let mut rates = Vec::new();
    for n in [32usize, 64, 96] {
        let mut c = campaign(FaultSite::InnerAdd, BitRegion::Mantissa, 1, 60);
        c.n = n;
        let r = run_campaign(&aabft(), &c);
        if r.stats.critical >= 10 {
            rates.push((n, r.stats.detection_rate()));
        }
    }
    for &(n, rate) in &rates {
        assert!(rate > 0.6, "rate collapsed at n={n}: {rates:?}");
    }
}
