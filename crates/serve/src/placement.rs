//! Replica specifications and the shard shape class.
//!
//! A [`ReplicaSpec`] is one replica's [`DeviceConfig`]: its SM count and
//! clean-path engine. The server does not price replicas against each
//! other. A replica's SM count does not change host time (the clean path
//! splits a launch's blocks over one host pool whatever `num_sms` says),
//! so any idle dispatcher pulls the oldest ready wave (see
//! [`crate::queue`]).

use aabft_gpu_sim::device::{Device, DeviceConfig};
use aabft_gpu_sim::pack::CleanEngine;

/// One replica's hardware description.
#[derive(Debug, Clone, Default)]
pub struct ReplicaSpec {
    /// Device configuration (SM count, clean-path engine).
    pub device: DeviceConfig,
}

impl ReplicaSpec {
    /// The spec of a replica that runs `device`.
    pub fn from_device(device: DeviceConfig) -> Self {
        ReplicaSpec { device }
    }

    /// `count` identical default replicas.
    pub fn defaults(count: usize) -> Vec<ReplicaSpec> {
        (0..count).map(|_| ReplicaSpec::default()).collect()
    }

    /// Builds this replica's device.
    pub fn build_device(&self) -> Device {
        Device::new(self.device)
    }

    /// Short label for logs and reports, e.g. `26sm:packed`.
    pub fn label(&self) -> String {
        let engine = match self.device.clean_engine.unwrap_or(CleanEngine::Packed) {
            CleanEngine::Packed => "packed",
            CleanEngine::Scalar => "scalar",
        };
        format!("{}sm:{engine}", self.device.num_sms)
    }
}

impl std::str::FromStr for ReplicaSpec {
    type Err = String;

    /// Parses the CLI spelling `SMS[:ENGINE]`, e.g. `13`, `26:packed`,
    /// `4:scalar`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (sms, engine) = match s.split_once(':') {
            Some((sms, engine)) => (sms, Some(engine)),
            None => (s, None),
        };
        let sms: usize = sms
            .trim()
            .parse()
            .map_err(|e| format!("replica spec {s:?}: SM count: {e}"))?;
        let mut builder = DeviceConfig::builder().num_sms(sms);
        if let Some(engine) = engine {
            builder = builder.clean_engine(
                engine.trim().parse::<CleanEngine>().map_err(|e| format!("replica spec {s:?}: {e}"))?,
            );
        }
        let device = builder.build().map_err(|e| format!("replica spec {s:?}: {e}"))?;
        Ok(ReplicaSpec::from_device(device))
    }
}

/// A shape's shard class: each dimension rounded up to the next power of
/// two, floored at 8. Requests of one class queue together, so the batch
/// engine's plan and pack caches stay warm per shard.
pub fn shape_class(key: (usize, usize, usize)) -> (usize, usize, usize) {
    fn round(d: usize) -> usize {
        d.max(8).next_power_of_two()
    }
    (round(key.0), round(key.1), round(key.2))
}

/// The calibration readings `perfbench` exports as `placement.*` metrics.
/// Nothing in the server reads it, and every reading is zero or empty,
/// because no replica is priced. A change to the benchmark retires it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Placement;

impl Placement {
    /// Always 0.
    pub fn cal_updates(&self) -> u64 {
        0
    }

    /// Always 0.
    pub fn cal_cold_hits(&self) -> u64 {
        0
    }

    /// Always empty.
    pub fn calibration(&self, _replica: usize) -> Vec<((usize, usize, usize), f64)> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_and_scaling() {
        let fast: ReplicaSpec = "26:packed".parse().expect("valid spec");
        let slow: ReplicaSpec = "4:scalar".parse().expect("valid spec");
        let default: ReplicaSpec = "13".parse().expect("valid spec");
        assert_eq!(fast.device.num_sms, 26);
        assert_eq!(slow.device.clean_engine, Some(CleanEngine::Scalar));
        assert_eq!(default.device.num_sms, 13);
        assert_eq!(default.device.clean_engine, None);
        assert_eq!(fast.label(), "26sm:packed");
        assert_eq!(slow.label(), "4sm:scalar");

        assert!("0:packed".parse::<ReplicaSpec>().is_err(), "zero SMs rejected");
        assert!("13:vector".parse::<ReplicaSpec>().is_err(), "unknown engine rejected");
        assert!("6:scalar@packed".parse::<ReplicaSpec>().is_err(), "no claimed-engine syntax");
        assert!("x".parse::<ReplicaSpec>().is_err());
    }

    #[test]
    fn shape_class_rounds_up_with_floor() {
        assert_eq!(shape_class((48, 48, 48)), (64, 64, 64));
        assert_eq!(shape_class((8, 8, 8)), (8, 8, 8));
        assert_eq!(shape_class((3, 5, 9)), (8, 8, 16));
        assert_eq!(shape_class((64, 64, 64)), (64, 64, 64));
    }
}
