//! Replica specifications and the PerfModel-costed placement plane.
//!
//! Replicas are heterogeneous: each [`ReplicaSpec`] carries its own
//! [`DeviceConfig`] (SM count, clean-path engine) and a [`PerfModel`]
//! scaled to that configuration, so the dispatcher can *cost* a ready
//! wave against every replica with [`PerfModel::gemm_wave_cost`] (which
//! routes through `PerfModel::schedule`/`stream_makespan`) and route
//! heavy shapes to the replicas that finish them soonest.
//!
//! The server has one placement rule (the queue module spells out the
//! steal half): a replica takes a shard when it is the calibrated argmin
//! of `inflight + wave cost` over live replicas, and an idle warm
//! replica steals a shard whose backlog or observed queueing delay
//! outlasts its own price. There is no policy to choose; blind
//! round-robin survives only as a bench baseline in [`crate::bench`].
//!
//! The model is analytic and therefore wrong in interesting ways — SM
//! counts drift, a replica's spec can outright lie about its clean
//! engine. So [`Placement`] closes the loop the way the paper's bound
//! determination does: *online*. Every completed wave feeds its measured
//! latency back into a per-(replica, shape-class) EWMA of
//! measured/modelled ([`Placement::record_measured`]), and every price
//! is the blended cost `modelled × ratio`
//! ([`Placement::calibrated_wave_costs`]); cold classes seed from the
//! nearest calibrated class by modelled cost ([`Placement::ratio`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use aabft_gpu_sim::device::{Device, DeviceConfig};
use aabft_gpu_sim::pack::CleanEngine;
use aabft_gpu_sim::perf::PerfModel;

/// Measured clean-engine throughput ratio (DESIGN §12 / `BENCH_gemm.json`):
/// the packed microkernel sustains ~3.4× the scalar body on identical
/// inputs, so a scalar replica is modelled at `1/3.4` of the packed rates.
const SCALAR_ENGINE_SLOWDOWN: f64 = 3.4;

/// Baseline SM count the [`PerfModel::k20c`] rates describe.
const BASELINE_SMS: f64 = 13.0;

/// One replica's hardware description: device shape plus the performance
/// model placement costs it with.
#[derive(Debug, Clone)]
pub struct ReplicaSpec {
    /// Device configuration (SM count, clean-path engine).
    pub device: DeviceConfig,
    /// Roofline model scaled to this replica's size and engine.
    pub perf: PerfModel,
    /// Engine the *model* was scaled for, when it differs from the
    /// engine the device actually runs — a deliberately mis-modelled
    /// replica (fleet-drift fixture; see [`ReplicaSpec::mis_modelled`]).
    pub claimed: Option<CleanEngine>,
}

impl Default for ReplicaSpec {
    fn default() -> Self {
        ReplicaSpec::from_device(DeviceConfig::default())
    }
}

impl ReplicaSpec {
    /// Derives the spec from a device configuration: the K20c roofline
    /// scaled by the SM-count ratio and, for the scalar clean engine, by
    /// the measured engine slowdown.
    pub fn from_device(device: DeviceConfig) -> Self {
        let sms_scale = device.num_sms as f64 / BASELINE_SMS;
        let engine_scale = engine_scale(device.clean_engine.unwrap_or(CleanEngine::Packed));
        ReplicaSpec {
            device,
            perf: PerfModel::k20c().scaled(sms_scale * engine_scale),
            claimed: None,
        }
    }

    /// A deliberately mis-modelled spec: the device *runs* whatever
    /// `device.clean_engine` says, but the placement model is scaled as
    /// if it ran `claimed`. This is the fixture for model drift — e.g. a
    /// scalar replica whose spec claims packed throughput is priced ~3.4×
    /// too cheap, and only measured-cost feedback can correct for it.
    pub fn mis_modelled(device: DeviceConfig, claimed: CleanEngine) -> Self {
        let sms_scale = device.num_sms as f64 / BASELINE_SMS;
        let actual = device.clean_engine.unwrap_or(CleanEngine::Packed);
        ReplicaSpec {
            device,
            perf: PerfModel::k20c().scaled(sms_scale * engine_scale(claimed)),
            claimed: (claimed != actual).then_some(claimed),
        }
    }

    /// `count` identical default replicas (the homogeneous PR-8 shape).
    pub fn defaults(count: usize) -> Vec<ReplicaSpec> {
        (0..count).map(|_| ReplicaSpec::default()).collect()
    }

    /// Builds this replica's device.
    pub fn build_device(&self) -> Device {
        Device::new(self.device)
    }

    /// Short label for logs and reports, e.g. `26sm:packed`; a
    /// mis-modelled replica shows both engines, e.g. `6sm:scalar@packed`
    /// (runs scalar, modelled as packed).
    pub fn label(&self) -> String {
        let engine = engine_name(self.device.clean_engine.unwrap_or(CleanEngine::Packed));
        match self.claimed {
            Some(claimed) => {
                format!("{}sm:{engine}@{}", self.device.num_sms, engine_name(claimed))
            }
            None => format!("{}sm:{engine}", self.device.num_sms),
        }
    }
}

fn engine_scale(engine: CleanEngine) -> f64 {
    match engine {
        CleanEngine::Packed => 1.0,
        CleanEngine::Scalar => 1.0 / SCALAR_ENGINE_SLOWDOWN,
    }
}

fn engine_name(engine: CleanEngine) -> &'static str {
    match engine {
        CleanEngine::Packed => "packed",
        CleanEngine::Scalar => "scalar",
    }
}

impl std::str::FromStr for ReplicaSpec {
    type Err = String;

    /// Parses the CLI spelling `SMS[:ENGINE][@CLAIMED]`, e.g. `13`,
    /// `26:packed`, `4:scalar` — or the mis-modelled form
    /// `6:scalar@packed` (device runs scalar, model priced as packed).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (spec, claimed) = match s.split_once('@') {
            Some((spec, claimed)) => (spec, Some(claimed)),
            None => (s, None),
        };
        let (sms, engine) = match spec.split_once(':') {
            Some((sms, engine)) => (sms, Some(engine)),
            None => (spec, None),
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
        match claimed {
            None => Ok(ReplicaSpec::from_device(device)),
            Some(claimed) => {
                let claimed = claimed
                    .trim()
                    .parse::<CleanEngine>()
                    .map_err(|e| format!("replica spec {s:?}: claimed engine: {e}"))?;
                Ok(ReplicaSpec::mis_modelled(device, claimed))
            }
        }
    }
}

/// A shape's calibration (and shard) class: each dimension rounded up to
/// the next power of two, floored at 8. Calibration ratios are kept per
/// class, not per exact shape: classes pool enough samples to converge
/// quickly, while model error still varies too much across size decades
/// for a single global ratio (launch-overhead-bound 64³ and
/// compute-bound 1024³ mis-model *differently*).
pub fn shape_class(key: (usize, usize, usize)) -> (usize, usize, usize) {
    fn round(d: usize) -> usize {
        d.max(8).next_power_of_two()
    }
    (round(key.0), round(key.1), round(key.2))
}

/// EWMA smoothing for measured/modelled calibration samples. 0.25 means
/// a step change in a replica's real throughput is ~95% absorbed within
/// a dozen waves of that class, while a single noisy wall-clock sample
/// moves the ratio by a quarter of its error at most.
const CAL_ALPHA: f64 = 0.25;

/// Memo key for one costed wave: shape class `(m, n, q)` plus batch size.
type WaveKey = (usize, usize, usize, usize);

/// One replica's calibration map: shape class → EWMA of measured/modelled.
type CalMap = HashMap<(usize, usize, usize), f64>;

/// The cost oracle: per-replica modelled wave costs, memoised per shape
/// class (costs are deterministic in `(shape, count, replica)`), blended
/// online with a per-(replica, shape-class) EWMA of measured/modelled
/// latency so placement corrects model error as it serves.
#[derive(Debug)]
pub struct Placement {
    specs: Vec<ReplicaSpec>,
    cache: Mutex<HashMap<WaveKey, Vec<f64>>>,
    /// Per-replica map: shape class → EWMA of measured/modelled.
    cal: Mutex<Vec<CalMap>>,
    cal_updates: AtomicU64,
    cal_cold_hits: AtomicU64,
}

impl Placement {
    /// A placement plane over `specs`, every replica cold.
    pub fn new(specs: Vec<ReplicaSpec>) -> Self {
        let replicas = specs.len();
        Placement {
            specs,
            cache: Mutex::new(HashMap::new()),
            cal: Mutex::new(vec![HashMap::new(); replicas]),
            cal_updates: AtomicU64::new(0),
            cal_cold_hits: AtomicU64::new(0),
        }
    }

    /// The replica specs, in replica-index order.
    pub fn specs(&self) -> &[ReplicaSpec] {
        &self.specs
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.specs.len()
    }

    /// Whether `replica` has absorbed at least one measured sample (any
    /// shape class). A cold replica's prices are pure spec — and a spec
    /// can lie — so the steal rule refuses to let a cold replica trust
    /// its own price against another replica's backlog.
    pub fn is_warm(&self, replica: usize) -> bool {
        !self.cal.lock().expect("placement calibration lock")[replica].is_empty()
    }

    /// Modelled cost (seconds) of a `count`-request wave of shape
    /// `(m, n, q)` on each replica, memoised. Index = replica.
    pub fn wave_costs(&self, key: (usize, usize, usize), count: usize) -> Vec<f64> {
        let count = count.max(1);
        let cache_key = (key.0, key.1, key.2, count);
        let mut cache = self.cache.lock().expect("placement cache lock");
        cache
            .entry(cache_key)
            .or_insert_with(|| {
                if count == 1 {
                    // Single requests go through the named calibration
                    // handle — the exact denominator of the ratio EWMAs.
                    return self
                        .specs
                        .iter()
                        .map(|spec| spec.perf.gemm_request_cost(key, spec.device.num_sms))
                        .collect();
                }
                let shapes = vec![key; count];
                self.specs
                    .iter()
                    .map(|spec| spec.perf.gemm_wave_cost(&shapes, spec.device.num_sms))
                    .collect()
            })
            .clone()
    }

    /// Modelled cost of one request of shape `key` on `replica`.
    pub fn request_cost(&self, key: (usize, usize, usize), replica: usize) -> f64 {
        self.wave_costs(key, 1)[replica]
    }

    /// Feeds one completed wave's measured wall latency back into the
    /// calibration store: updates the EWMA of measured/modelled for
    /// `replica` on `key`'s shape class and returns the new ratio
    /// (gauge-export surface). Degenerate samples (non-positive or
    /// non-finite on either side) are dropped.
    pub fn record_measured(
        &self,
        replica: usize,
        key: (usize, usize, usize),
        measured_s: f64,
        modelled_s: f64,
    ) -> f64 {
        let class = shape_class(key);
        if !(measured_s.is_finite() && modelled_s.is_finite())
            || measured_s <= 0.0
            || modelled_s <= 0.0
        {
            return self.ratio(replica, key);
        }
        let sample = measured_s / modelled_s;
        let mut cal = self.cal.lock().expect("calibration lock");
        let ratio = match cal[replica].get(&class) {
            Some(&prev) => prev + CAL_ALPHA * (sample - prev),
            // First sample of a class adopts the measurement outright:
            // there is no prior worth defending against one real sample.
            None => sample,
        };
        cal[replica].insert(class, ratio);
        drop(cal);
        self.cal_updates.fetch_add(1, Ordering::Relaxed);
        ratio
    }

    /// Calibration ratio for `replica` on `key`'s shape class.
    ///
    /// A cold class (never measured on this replica) seeds from the
    /// *nearest calibrated class by modelled cost* — nearest in
    /// log-space, so a cold 512³ borrows from 256³ rather than 64³ —
    /// because model error correlates with where a shape sits on the
    /// roofline, not with the shape's exact dims. A *fully cold*
    /// replica borrows the fleet's median view of the class instead:
    /// much of the measured/modelled ratio is host-wide model error
    /// shared by every replica (a slow build, an oversubscribed box),
    /// and pricing an unmeasured replica at a literal 1.0 next to warm
    /// replicas carrying that shared error makes cold replicas look
    /// artificially cheap — the argmin would dogpile whichever replica
    /// has never been measured. Only if the whole fleet is cold does
    /// the ratio fall back to 1.0 (pure model). Cold lookups count in
    /// [`Placement::cal_cold_hits`].
    pub fn ratio(&self, replica: usize, key: (usize, usize, usize)) -> f64 {
        let class = shape_class(key);
        let cal = self.cal.lock().expect("calibration lock");
        if let Some(&r) = cal[replica].get(&class) {
            return r;
        }
        self.cal_cold_hits.fetch_add(1, Ordering::Relaxed);
        if let Some(r) = self.nearest_ratio(&cal[replica], replica, class) {
            return r;
        }
        let mut borrowed: Vec<f64> = cal
            .iter()
            .enumerate()
            .filter(|&(other, _)| other != replica)
            .filter_map(|(other, map)| self.nearest_ratio(map, other, class))
            .collect();
        if borrowed.is_empty() {
            return 1.0;
        }
        borrowed.sort_unstable_by(|a, b| a.total_cmp(b));
        borrowed[borrowed.len() / 2]
    }

    /// Nearest-class ratio within one replica's calibration map, or
    /// `None` if the map is empty. Distance is log-space modelled cost
    /// on that replica.
    fn nearest_ratio(
        &self,
        map: &CalMap,
        replica: usize,
        class: (usize, usize, usize),
    ) -> Option<f64> {
        if map.is_empty() {
            return None;
        }
        if let Some(&r) = map.get(&class) {
            return Some(r);
        }
        let target = self.wave_costs(class, 1)[replica].max(f64::MIN_POSITIVE);
        let mut nearest = 1.0;
        let mut best = f64::INFINITY;
        for (&other, &ratio) in map {
            let cost = self.wave_costs(other, 1)[replica].max(f64::MIN_POSITIVE);
            let dist = (cost / target).ln().abs();
            if dist < best {
                best = dist;
                nearest = ratio;
            }
        }
        Some(nearest)
    }

    /// Blended per-replica cost of a `count`-request wave: modelled ×
    /// calibration ratio. Index = replica. This is the price the
    /// dispatcher's argmin runs on.
    pub fn calibrated_wave_costs(&self, key: (usize, usize, usize), count: usize) -> Vec<f64> {
        self.wave_costs(key, count)
            .iter()
            .enumerate()
            .map(|(replica, &cost)| cost * self.ratio(replica, key))
            .collect()
    }

    /// Host-wall seconds per calibrated device-second on `replica`: its
    /// SM width. The simulator's host executes a wave's per-SM work
    /// serially, so a wave priced at `c` calibrated device-seconds
    /// occupies the replica's dispatcher for about `c × sms` host
    /// seconds. The adaptive steal rule multiplies a thief's price by
    /// this before comparing it against *observed* queueing delay,
    /// which is measured in host wall seconds — without the conversion
    /// every observed delay dwarfs every device-unit price and idle
    /// replicas steal indiscriminately.
    pub fn host_scale(&self, replica: usize) -> f64 {
        self.specs[replica].device.num_sms.max(1) as f64
    }

    /// Blended cost of one request of shape `key` on `replica`.
    pub fn calibrated_request_cost(&self, key: (usize, usize, usize), replica: usize) -> f64 {
        self.calibrated_wave_costs(key, 1)[replica]
    }

    /// Snapshot of `replica`'s calibrated classes, `(class, ratio)`,
    /// sorted by class (gauge and report surface).
    pub fn calibration(&self, replica: usize) -> Vec<((usize, usize, usize), f64)> {
        let cal = self.cal.lock().expect("calibration lock");
        let mut out: Vec<_> = cal[replica].iter().map(|(&k, &v)| (k, v)).collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// Calibration samples absorbed so far (`placement.cal.updates`).
    pub fn cal_updates(&self) -> u64 {
        self.cal_updates.load(Ordering::Relaxed)
    }

    /// Cold-class fallbacks taken so far (`placement.cal.cold_hits`).
    pub fn cal_cold_hits(&self) -> u64 {
        self.cal_cold_hits.load(Ordering::Relaxed)
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
        assert!(fast.perf.peak_dp_flops > default.perf.peak_dp_flops);
        assert!(slow.perf.peak_dp_flops < default.perf.peak_dp_flops);
        assert_eq!(fast.label(), "26sm:packed");

        assert!("0:packed".parse::<ReplicaSpec>().is_err(), "zero SMs rejected");
        assert!("13:vector".parse::<ReplicaSpec>().is_err(), "unknown engine rejected");
        assert!("x".parse::<ReplicaSpec>().is_err());
    }

    #[test]
    fn fast_replica_wins_heavy_shapes() {
        let placement = Placement::new(vec![
            "26:packed".parse().unwrap(),
            "4:scalar".parse().unwrap(),
        ]);
        let heavy = placement.wave_costs((512, 512, 512), 4);
        assert!(
            heavy[0] < heavy[1] / 4.0,
            "26sm packed must dominate 4sm scalar on 512³: {heavy:?}"
        );
        // Memoisation returns identical vectors.
        assert_eq!(placement.wave_costs((512, 512, 512), 4), heavy);
        assert!(placement.request_cost((64, 64, 64), 0) > 0.0);
    }

    #[test]
    fn mis_modelled_spec_prices_as_claimed_engine() {
        let liar: ReplicaSpec = "6:scalar@packed".parse().expect("valid spec");
        let honest: ReplicaSpec = "6:scalar".parse().expect("valid spec");
        let packed: ReplicaSpec = "6:packed".parse().expect("valid spec");
        assert_eq!(liar.device.clean_engine, Some(CleanEngine::Scalar), "runs scalar");
        assert_eq!(liar.claimed, Some(CleanEngine::Packed));
        assert_eq!(liar.perf.peak_dp_flops, packed.perf.peak_dp_flops, "priced as packed");
        assert!(liar.perf.peak_dp_flops > honest.perf.peak_dp_flops);
        assert_eq!(liar.label(), "6sm:scalar@packed");
        // Claiming what you already are is not a lie.
        let same: ReplicaSpec = "6:packed@packed".parse().expect("valid spec");
        assert_eq!(same.claimed, None);
        assert_eq!(same.label(), "6sm:packed");
        assert!("6:scalar@vector".parse::<ReplicaSpec>().is_err());
    }

    #[test]
    fn calibration_converges_and_blends_costs() {
        let placement = Placement::new(vec!["13".parse().unwrap()]);
        let key = (256, 256, 256);
        let modelled = placement.request_cost(key, 0);
        // Cold: ratio 1.0, calibrated == modelled.
        assert_eq!(placement.ratio(0, key), 1.0);
        assert_eq!(placement.calibrated_request_cost(key, 0), modelled);
        // The replica is consistently 3× slower than modelled.
        for _ in 0..24 {
            placement.record_measured(0, key, 3.0 * modelled, modelled);
        }
        let ratio = placement.ratio(0, key);
        assert!((ratio - 3.0).abs() < 1e-9, "EWMA of a constant converges: {ratio}");
        let blended = placement.calibrated_request_cost(key, 0);
        assert!((blended - 3.0 * modelled).abs() < 1e-12 * modelled.abs().max(1.0));
        assert_eq!(placement.cal_updates(), 24);
        // Degenerate samples are dropped, not absorbed.
        placement.record_measured(0, key, 0.0, modelled);
        placement.record_measured(0, key, f64::NAN, modelled);
        assert_eq!(placement.cal_updates(), 24);
        assert!((placement.ratio(0, key) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn cold_class_seeds_from_nearest_calibrated_class() {
        let placement = Placement::new(vec!["13".parse().unwrap()]);
        let small = (64, 64, 64);
        let big = (512, 512, 512);
        placement.record_measured(0, small, 2.0, 1.0); // ratio 2.0 at 64³
        placement.record_measured(0, big, 8.0, 2.0); // ratio 4.0 at 512³
        // 1024³ is cold; its modelled cost is far nearer 512³'s than
        // 64³'s in log-space, so it borrows the heavy class's ratio.
        let cold = placement.ratio(0, (1024, 1024, 1024));
        assert!((cold - 4.0).abs() < 1e-9, "borrows nearest class: {cold}");
        assert!(placement.cal_cold_hits() >= 1);
        // Cold lookups never panic, whatever the shape.
        for &shape in &[(1, 1, 1), (8, 8, 8), (4096, 16, 1), (1024, 1024, 1024)] {
            let r = placement.ratio(0, shape);
            assert!(r.is_finite() && r > 0.0);
            assert!(placement.calibrated_request_cost(shape, 0).is_finite());
        }
    }

    #[test]
    fn fully_cold_replica_borrows_the_fleet_median_ratio() {
        let placement = Placement::new(vec![
            "13".parse().unwrap(),
            "13".parse().unwrap(),
            "13".parse().unwrap(),
        ]);
        let key = (256, 256, 256);
        let modelled = placement.request_cost(key, 0);
        placement.record_measured(0, key, 30.0 * modelled, modelled);
        placement.record_measured(1, key, 10.0 * modelled, modelled);
        // Replica 2 was never measured: it inherits the fleet's view of
        // the class (the shared host-wide error), not a literal 1.0
        // that would make it the argmin by default.
        let cold = placement.ratio(2, key);
        assert!((10.0..=30.0).contains(&cold), "borrows a fleet ratio: {cold}");
        assert!(placement.cal_cold_hits() >= 1);
        // Whole fleet cold: pure model.
        let fresh = Placement::new(vec!["13".parse().unwrap(), "13".parse().unwrap()]);
        assert_eq!(fresh.ratio(1, key), 1.0);
    }

    #[test]
    fn shape_class_rounds_up_with_floor() {
        assert_eq!(shape_class((48, 48, 48)), (64, 64, 64));
        assert_eq!(shape_class((8, 8, 8)), (8, 8, 8));
        assert_eq!(shape_class((3, 5, 9)), (8, 8, 16));
        assert_eq!(shape_class((64, 64, 64)), (64, 64, 64));
    }
}
