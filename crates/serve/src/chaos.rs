//! Seeded fault-storm generator for load testing the server.
//!
//! Reuses the fault-campaign machinery: kernel-scope faults are drawn
//! from per-SM operation counts calibrated against a clean run of the
//! same shape on each SM count in the fleet ([`scope_ops_per_sm`]), so a
//! strike only targets SMs the struck device has; memory faults from the
//! augmented-layout regions of the shape's plan ([`mem_region_for`]).
//! Each [`Storm::strike`] arms one random fault on the given device;
//! the next wave that executes the struck scope (or lands the struck
//! phase boundary) absorbs it. Unfired plans persist across waves —
//! like real radiation, a strike does not politely wait for a victim.

use aabft_core::AAbftGemm;
use aabft_faults::bitflip::BitRegion;
use aabft_faults::plan::{
    mem_region_for, random_kernel_plan, random_memory_plan, scope_ops_per_sm, MemRegion,
};
use aabft_faults::{FaultSpec, MemScope};
use aabft_gpu_sim::device::{Device, DeviceConfig};
use aabft_gpu_sim::inject::{FaultScope, FaultSite};
use aabft_matrix::Matrix;
use aabft_obs::Obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What one strike may arm.
#[derive(Debug)]
enum Arm {
    /// Kernel-scope fault with calibrated per-SM op counts, one list per
    /// `(num_sms, ops)` SM count in the fleet.
    Kernel { scope: FaultScope, ops: Vec<(usize, Vec<u64>)> },
    /// Memory bit-flip in a buffer region at a phase boundary.
    Memory(MemRegion),
}

/// Storm shape: which scopes to draw from and the flipped-bit spec.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// RNG seed (the storm is fully deterministic given the seed).
    pub seed: u64,
    /// Pipeline kernel scopes to strike.
    pub kernel_scopes: Vec<FaultScope>,
    /// Device-buffer regions to strike.
    pub mem_scopes: Vec<MemScope>,
    /// Bit region flipped (exponent flips are the high-visibility
    /// default: large, detectable corruption).
    pub region: BitRegion,
}

impl Default for StormConfig {
    fn default() -> Self {
        StormConfig {
            seed: 7,
            kernel_scopes: vec![FaultScope::Gemm, FaultScope::Encode, FaultScope::PMaxReduce],
            mem_scopes: vec![MemScope::Product, MemScope::ChecksumRows, MemScope::OperandA],
            region: BitRegion::Exponent,
        }
    }
}

/// A calibrated, seeded fault storm for one request shape.
#[derive(Debug)]
pub struct Storm {
    rng: StdRng,
    arms: Vec<Arm>,
    region: BitRegion,
    strikes: u64,
}

impl Storm {
    /// Calibrates a storm against a clean protected multiply of shape
    /// `n × n · n × n` under `gemm`'s configuration: per-SM op counts
    /// for each kernel scope on every SM count in `fleet`, buffer regions
    /// from the plan's augmented layouts. Runs on scratch devices with
    /// private observability so calibration does not perturb server
    /// metrics.
    pub fn calibrate(
        cfg: &StormConfig,
        gemm: &AAbftGemm,
        n: usize,
        fleet: &[DeviceConfig],
    ) -> Storm {
        let a = Matrix::from_fn(n, n, |i, j| ((i * 3 + j * 7) as f64 * 0.19).sin());
        let b = Matrix::from_fn(n, n, |i, j| ((i * 11 + j) as f64 * 0.23).cos());
        let mut configs: Vec<DeviceConfig> = Vec::new();
        for config in fleet {
            if configs.iter().all(|c| c.num_sms != config.num_sms) {
                configs.push(*config);
            }
        }
        let logs: Vec<_> = configs
            .into_iter()
            .map(|config| {
                let mut device = Device::new(config);
                device.set_obs(Obs::new_shared());
                gemm.multiply(&device, &a, &b);
                (config.num_sms, device.take_log())
            })
            .collect();

        let plan = gemm.plan(n, n, n);
        let mut arms = Vec::new();
        for &scope in &cfg.kernel_scopes {
            let ops: Vec<(usize, Vec<u64>)> = logs
                .iter()
                .map(|(num_sms, log)| (*num_sms, scope_ops_per_sm(log, scope, *num_sms)))
                .collect();
            if ops.iter().all(|(_, per_sm)| per_sm.iter().sum::<u64>() > 0) {
                arms.push(Arm::Kernel { scope, ops });
            }
        }
        for &scope in &cfg.mem_scopes {
            arms.push(Arm::Memory(mem_region_for(scope, &plan.rows, plan.inner, &plan.cols)));
        }
        assert!(!arms.is_empty(), "storm has no live scopes to draw from");
        Storm { rng: StdRng::seed_from_u64(cfg.seed), arms, region: cfg.region, strikes: 0 }
    }

    /// Arms one random fault on `device`; returns the struck scope's
    /// label. The flip is a single random bit in the configured region
    /// ([`StormConfig::region`]).
    pub fn strike(&mut self, device: &Device) -> &'static str {
        self.strikes += 1;
        let pick = self.rng.gen_range(0..self.arms.len() as u64) as usize;
        let spec = FaultSpec::single(FaultSite::InnerAdd, self.region);
        match &self.arms[pick] {
            Arm::Kernel { scope, ops } => {
                let num_sms = device.config().num_sms;
                let (_, ops) = ops
                    .iter()
                    .find(|(sms, _)| *sms == num_sms)
                    .expect("storm calibrated for every SM count in the fleet");
                let plan = random_kernel_plan(*scope, spec, ops, &mut self.rng)
                    .expect("calibrated scope has operations");
                device.arm_kernel_fault(plan);
                scope.label()
            }
            Arm::Memory(region) => {
                let plan = random_memory_plan(*region, spec, &mut self.rng);
                device.arm_memory_fault(plan);
                region.buffer
            }
        }
    }

    /// Strikes issued so far.
    pub fn strikes(&self) -> u64 {
        self.strikes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aabft_core::AAbftConfig;

    #[test]
    fn strikes_target_only_the_struck_devices_sms() {
        // A 26-SM and a 6-SM replica: every kernel-scope strike on the
        // small device must pick one of its own six SMs.
        let fleet: Vec<DeviceConfig> = [26, 6]
            .into_iter()
            .map(|sms| DeviceConfig::builder().num_sms(sms).build().unwrap())
            .collect();
        let gemm = AAbftGemm::new(AAbftConfig::builder().block_size(4).build().unwrap());
        let cfg = StormConfig { mem_scopes: Vec::new(), ..StormConfig::default() };
        let mut storm = Storm::calibrate(&cfg, &gemm, 16, &fleet);
        let devices: Vec<Device> = fleet.iter().map(|&c| Device::new(c)).collect();
        for t in 0..64 {
            storm.strike(&devices[t % 2]);
        }
        assert_eq!(storm.strikes(), 64);
    }
}
