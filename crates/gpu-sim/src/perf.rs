//! Analytic performance model (Kepler-class, calibrated to the K20c).
//!
//! The paper reports wall-clock GFLOPS on an Nvidia K20c (Table I). The
//! simulator executes kernels functionally, so runtime is *modelled* from
//! the counters each launch produces: a kernel's time is its launch overhead
//! plus the maximum of its compute time (at the kernel's achievable fraction
//! of peak), its global-memory time, and its shared-memory time — the usual
//! roofline reasoning. Summing over a pipeline's launch log and dividing the
//! *useful* GEMM FLOPs by the total yields the Table-I-style GFLOPS figure.
//!
//! Calibration: `peak_dp_flops` is the K20c's 1.17 TFLOP/s; the default GEMM
//! utilization is set so an unprotected 8192³ multiplication models at the
//! ~1048 GFLOPS the paper measured; memory bandwidth is the K20c's 208 GB/s.
//! EXPERIMENTS.md discusses the calibration and its limits.

use crate::stats::LaunchRecord;

/// Aggregated modelled cost of one pipeline phase (see
/// [`PerfModel::phase_breakdown`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseCost {
    /// Phase label (from [`LaunchRecord::phase`]).
    pub phase: String,
    /// Number of kernel launches in the phase.
    pub launches: u64,
    /// Modelled time in seconds (incl. per-launch overhead).
    pub time: f64,
    /// Floating-point operations executed.
    pub flops: u64,
    /// Global-memory traffic in bytes.
    pub gmem_bytes: u64,
}

/// One launch's placement in a modelled multi-stream timeline (see
/// [`PerfModel::schedule`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledLaunch {
    /// Launch sequence number (submission order).
    pub seq: u64,
    /// Stream the launch was issued to.
    pub stream: u64,
    /// When the launch became ready (stream predecessor and event
    /// dependencies finished) and its driver overhead began.
    pub start: f64,
    /// When its SMs began executing (overhead paid, SM demand free).
    pub busy_start: f64,
    /// When it finished.
    pub finish: f64,
    /// The SMs the launch occupied (earliest-free-first allocation),
    /// ascending.
    pub sm_ids: Vec<usize>,
}

impl ScheduledLaunch {
    /// Number of SMs the launch occupied.
    pub fn sms(&self) -> usize {
        self.sm_ids.len()
    }
}

/// A modelled multi-stream timeline: per-launch windows plus the makespan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schedule {
    /// Per-launch placements, in `seq` order.
    pub launches: Vec<ScheduledLaunch>,
    /// Modelled wall time: the latest finish across all launches.
    pub makespan: f64,
}

impl Schedule {
    /// Total busy time attributed to `stream` (sum of its launches'
    /// busy windows) — per-stream occupancy accounting for reports.
    pub fn stream_busy(&self, stream: u64) -> f64 {
        self.launches
            .iter()
            .filter(|l| l.stream == stream)
            .map(|l| l.finish - l.busy_start)
            .sum()
    }

    /// The distinct streams appearing in the schedule, ascending.
    pub fn streams(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.launches.iter().map(|l| l.stream).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// Roofline-style device performance parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfModel {
    /// Peak double-precision throughput in FLOP/s.
    pub peak_dp_flops: f64,
    /// Global-memory bandwidth in bytes/s.
    pub mem_bandwidth: f64,
    /// Shared-memory aggregate bandwidth in bytes/s.
    pub smem_bandwidth: f64,
    /// Fixed overhead per kernel launch in seconds.
    pub launch_overhead: f64,
}

impl Default for PerfModel {
    fn default() -> Self {
        Self::k20c()
    }
}

impl PerfModel {
    /// Parameters modelling the paper's Nvidia K20c (GK110).
    pub fn k20c() -> Self {
        PerfModel {
            peak_dp_flops: 1.17e12,
            mem_bandwidth: 208e9,
            smem_bandwidth: 2.5e12,
            // Effective per-launch cost: driver launch latency plus wave
            // quantization / kernel-tail effects, calibrated against the
            // paper's small-matrix rows of Table I.
            launch_overhead: 6e-5,
        }
    }

    /// Modelled execution time of one launch.
    pub fn kernel_time(&self, rec: &LaunchRecord) -> f64 {
        let compute = rec.stats.flops() as f64 / (self.peak_dp_flops * rec.utilization.max(1e-6));
        let gmem = rec.stats.gmem_bytes() as f64 / self.mem_bandwidth;
        let smem = (rec.stats.smem_accesses * 8) as f64 / self.smem_bandwidth;
        self.launch_overhead + compute.max(gmem).max(smem)
    }

    /// Modelled total time of a pipeline (sum over its launch log).
    pub fn pipeline_time(&self, log: &[LaunchRecord]) -> f64 {
        log.iter().map(|r| self.kernel_time(r)).sum()
    }

    /// Table-I-style GFLOPS: `useful_flops` (the 2·m·n·q of the *user's*
    /// multiplication, excluding protection overhead) over modelled time.
    pub fn gflops(&self, useful_flops: u64, log: &[LaunchRecord]) -> f64 {
        useful_flops as f64 / self.pipeline_time(log) / 1e9
    }

    /// Per-kernel time breakdown `(name, seconds)` for reporting.
    pub fn breakdown(&self, log: &[LaunchRecord]) -> Vec<(String, f64)> {
        log.iter().map(|r| (r.name.clone(), self.kernel_time(r))).collect()
    }

    /// Groups the launch log by pipeline phase (first-appearance order).
    /// The phase times sum to [`PerfModel::pipeline_time`] of the same log.
    pub fn phase_breakdown(&self, log: &[LaunchRecord]) -> Vec<PhaseCost> {
        let mut phases: Vec<PhaseCost> = Vec::new();
        for rec in log {
            let t = self.kernel_time(rec);
            let entry = match phases.iter_mut().find(|p| p.phase == rec.phase) {
                Some(p) => p,
                None => {
                    phases.push(PhaseCost {
                        phase: rec.phase.clone(),
                        launches: 0,
                        time: 0.0,
                        flops: 0,
                        gmem_bytes: 0,
                    });
                    phases.last_mut().unwrap()
                }
            };
            entry.launches += 1;
            entry.time += t;
            entry.flops += rec.stats.flops();
            entry.gmem_bytes += rec.stats.gmem_bytes();
        }
        phases
    }

    /// Schedules a (possibly multi-stream) launch log onto `num_sms`
    /// streaming multiprocessors and returns the modelled timeline.
    ///
    /// Model: every launch pays [`PerfModel::launch_overhead`] of driver
    /// time (streams are independent driver queues, so overheads of
    /// *different* streams pipeline), then occupies
    /// `min(blocks, num_sms)` SMs for its busy window
    /// (`kernel_time − launch_overhead`). A launch becomes ready once its
    /// stream predecessor and event dependencies have finished; it starts
    /// its busy window once its SM demand is free. SMs are allocated
    /// earliest-free-first, so overlapping streams share the device — the
    /// per-stream SM occupancy accounting behind Table-I-style batch
    /// throughput numbers.
    ///
    /// For a single-stream log this degenerates to the sequential model:
    /// the makespan equals [`PerfModel::pipeline_time`] exactly.
    pub fn schedule(&self, log: &[LaunchRecord], num_sms: usize) -> Schedule {
        let num_sms = num_sms.max(1);
        let mut ordered: Vec<&LaunchRecord> = log.iter().collect();
        ordered.sort_by_key(|r| r.seq);

        let mut finish_by_seq: std::collections::HashMap<u64, f64> =
            std::collections::HashMap::new();
        // Per-stream frontier, kept in addition to recorded deps so
        // same-stream ordering holds even for logs whose records carry no
        // dependency edges (synthetic records, hand-built test logs).
        let mut stream_frontier: std::collections::HashMap<u64, f64> =
            std::collections::HashMap::new();
        let mut sm_free = vec![0.0f64; num_sms];
        let mut launches = Vec::with_capacity(ordered.len());
        let mut makespan = 0.0f64;
        for rec in ordered {
            let ready = rec
                .deps
                .iter()
                .filter_map(|d| finish_by_seq.get(d).copied())
                .chain(stream_frontier.get(&rec.stream).copied())
                .fold(0.0f64, f64::max);
            let demand = (rec.stats.blocks.max(1) as usize).min(num_sms);
            // Earliest-free-first allocation: the launch waits for its
            // `demand` least-loaded SMs on top of its own driver overhead.
            let mut order: Vec<usize> = (0..num_sms).collect();
            order.sort_by(|&a, &b| sm_free[a].partial_cmp(&sm_free[b]).unwrap());
            let busy_start = (ready + self.launch_overhead).max(sm_free[order[demand - 1]]);
            let busy = self.kernel_time(rec) - self.launch_overhead;
            let finish = busy_start + busy;
            let mut sm_ids: Vec<usize> = order[..demand].to_vec();
            sm_ids.sort_unstable();
            for &sm in &sm_ids {
                sm_free[sm] = finish;
            }
            finish_by_seq.insert(rec.seq, finish);
            stream_frontier.insert(rec.stream, finish);
            makespan = makespan.max(finish);
            launches.push(ScheduledLaunch {
                seq: rec.seq,
                stream: rec.stream,
                start: ready,
                busy_start,
                finish,
                sm_ids,
            });
        }
        Schedule { launches, makespan }
    }

    /// Modelled wall time of a launch log under the stream scheduler (the
    /// batch-engine counterpart of [`PerfModel::pipeline_time`]).
    pub fn stream_makespan(&self, log: &[LaunchRecord], num_sms: usize) -> f64 {
        self.schedule(log, num_sms).makespan
    }

    /// A copy of this model with compute and memory rates scaled by
    /// `factor` (launch overhead is driver-side and does not scale): the
    /// same roofline for a device with `factor`x the SMs or a faster
    /// clean engine.
    pub fn scaled(&self, factor: f64) -> PerfModel {
        let factor = factor.max(1e-6);
        PerfModel {
            peak_dp_flops: self.peak_dp_flops * factor,
            mem_bandwidth: self.mem_bandwidth * factor,
            smem_bandwidth: self.smem_bandwidth * factor,
            launch_overhead: self.launch_overhead,
        }
    }

    /// Synthetic launch record approximating one *protected* `m×n · n×q`
    /// multiplication request: the dominant GEMM FMAs plus the checksum
    /// encode/check traffic, placed on `stream` so a wave of requests
    /// overlaps in [`PerfModel::schedule`] exactly like the batch
    /// engine's per-request streams do.
    ///
    /// This is a *costing* record — block geometry assumes the default
    /// 32×32 macro tiling — for pricing work before any kernel has run;
    /// it is never mixed into a real device log.
    pub fn gemm_request_record(m: usize, n: usize, q: usize, stream: u64) -> LaunchRecord {
        let (m64, n64, q64) = (m as u64, n as u64, q as u64);
        let tile = 32u64;
        let blocks = m64.div_ceil(tile) * q64.div_ceil(tile);
        let stats = crate::stats::KernelStats {
            // GEMM body plus the two checksum-row encodes and the check
            // GEMV (one extra row/col of the same inner dimension each).
            ffma: m64 * n64 * q64 + n64 * (m64 + q64) + n64 * q64,
            gmem_loads: m64 * n64 + n64 * q64,
            gmem_stores: m64 * q64,
            blocks: blocks.max(1),
            ..Default::default()
        };
        let mut rec = LaunchRecord::synthetic("gemm_request", 0.9, stats);
        rec.stream = stream;
        rec
    }

    /// Modelled makespan of a wave of protected GEMM requests (one
    /// synthetic record per shape, each on its own stream) run through
    /// the multi-stream scheduler on `num_sms` SMs. Costs from
    /// differently-scaled models ([`PerfModel::scaled`]) share one unit,
    /// modelled seconds. The serving layer does not price waves with it:
    /// it dispatches by pull (DESIGN.md).
    pub fn gemm_wave_cost(&self, shapes: &[(usize, usize, usize)], num_sms: usize) -> f64 {
        let log: Vec<LaunchRecord> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(m, n, q))| {
                let mut rec = Self::gemm_request_record(m, n, q, i as u64 + 1);
                rec.seq = i as u64;
                rec
            })
            .collect();
        self.stream_makespan(&log, num_sms)
    }

    /// Modelled cost of a single protected GEMM request: by definition
    /// the one-shape [`PerfModel::gemm_wave_cost`].
    pub fn gemm_request_cost(&self, shape: (usize, usize, usize), num_sms: usize) -> f64 {
        self.gemm_wave_cost(&[shape], num_sms)
    }

    /// Modelled busy time of SM `sm` during launch `rec` (for per-SM
    /// trace tracks): the roofline at per-SM shares of the device rates,
    /// without launch overhead (driver time, not SM occupancy), clamped
    /// to the launch's busy window `kernel_time - launch_overhead`. The
    /// device-level model owns total time; per-SM load imbalance beyond
    /// it is clipped so SM slices never spill into the next launch.
    pub fn sm_time(&self, rec: &LaunchRecord, sm: usize) -> f64 {
        let Some(stats) = rec.per_sm.get(sm) else { return 0.0 };
        let n = rec.per_sm.len().max(1) as f64;
        let compute =
            stats.flops() as f64 / (self.peak_dp_flops / n * rec.utilization.max(1e-6));
        let gmem = stats.gmem_bytes() as f64 / (self.mem_bandwidth / n);
        let smem = (stats.smem_accesses * 8) as f64 / (self.smem_bandwidth / n);
        let busy = self.kernel_time(rec) - self.launch_overhead;
        compute.max(gmem).max(smem).min(busy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::KernelStats;

    fn rec(flops: u64, loads: u64, util: f64) -> LaunchRecord {
        LaunchRecord::synthetic(
            "k",
            util,
            KernelStats { fadd: flops, gmem_loads: loads, ..Default::default() },
        )
    }

    #[test]
    fn compute_bound_kernel() {
        let m = PerfModel::k20c();
        // 1.17e12 flops at utilization 1.0 => ~1 second.
        let t = m.kernel_time(&rec(1_170_000_000_000, 0, 1.0));
        assert!((t - 1.0).abs() < 1e-3, "t = {t}");
    }

    #[test]
    fn memory_bound_kernel() {
        let m = PerfModel::k20c();
        // 26e9 words = 208e9 bytes => ~1 second of memory time.
        let t = m.kernel_time(&rec(1000, 26_000_000_000, 1.0));
        assert!((t - 1.0).abs() < 1e-3, "t = {t}");
    }

    #[test]
    fn utilization_slows_compute() {
        let m = PerfModel::k20c();
        let fast = m.kernel_time(&rec(1_000_000_000, 0, 1.0));
        let slow = m.kernel_time(&rec(1_000_000_000, 0, 0.1));
        assert!(slow > 5.0 * fast);
    }

    #[test]
    fn pipeline_sums_and_gflops() {
        let m = PerfModel::k20c();
        let log = vec![rec(1_170_000_000_000, 0, 1.0), rec(1_170_000_000_000, 0, 1.0)];
        let t = m.pipeline_time(&log);
        assert!((t - 2.0).abs() < 1e-2);
        // Useful flops = total flops here: ~1170 GFLOPS over 2 s of work.
        let g = m.gflops(2 * 1_170_000_000_000, &log);
        assert!((g - 1170.0).abs() < 10.0, "g = {g}");
        assert_eq!(m.breakdown(&log).len(), 2);
    }

    #[test]
    fn launch_overhead_floors_tiny_kernels() {
        let m = PerfModel::k20c();
        let t = m.kernel_time(&rec(1, 1, 1.0));
        assert!(t >= m.launch_overhead);
    }

    #[test]
    fn phase_breakdown_partitions_pipeline_time() {
        let m = PerfModel::k20c();
        let mut log = vec![rec(1_000_000, 0, 1.0), rec(2_000_000, 10, 1.0), rec(500, 9000, 1.0)];
        log[0].phase = "gemm".into();
        log[1].phase = "gemm".into();
        log[2].phase = "check".into();
        let phases = m.phase_breakdown(&log);
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].phase, "gemm");
        assert_eq!(phases[0].launches, 2);
        assert_eq!(phases[0].flops, 3_000_000);
        let total: f64 = phases.iter().map(|p| p.time).sum();
        let direct = m.pipeline_time(&log);
        assert!((total - direct).abs() <= 1e-12 * direct, "{total} vs {direct}");
    }

    fn streamed(seq: u64, stream: u64, deps: Vec<u64>, flops: u64, blocks: u64) -> LaunchRecord {
        let mut r = LaunchRecord::synthetic(
            "k",
            1.0,
            KernelStats { fadd: flops, blocks, ..Default::default() },
        );
        r.seq = seq;
        r.stream = stream;
        r.deps = deps;
        r
    }

    #[test]
    fn single_stream_schedule_matches_pipeline_time() {
        let m = PerfModel::k20c();
        let log = vec![
            streamed(0, 0, vec![], 1_000_000_000, 13),
            streamed(1, 0, vec![0], 2_000_000_000, 13),
            streamed(2, 0, vec![1], 500_000_000, 1),
        ];
        let s = m.schedule(&log, 13);
        let seq_time = m.pipeline_time(&log);
        assert!(
            (s.makespan - seq_time).abs() <= 1e-12 * seq_time,
            "makespan {} vs pipeline {}",
            s.makespan,
            seq_time
        );
        // In-stream order is preserved.
        for w in s.launches.windows(2) {
            assert!(w[1].busy_start >= w[0].finish - 1e-15);
        }
    }

    #[test]
    fn same_stream_serializes_even_without_recorded_deps() {
        // Synthetic logs carry no dependency edges; the scheduler's own
        // per-stream frontier must still serialize them.
        let m = PerfModel::k20c();
        let log = vec![
            streamed(0, 0, vec![], 1_000_000_000, 13),
            streamed(1, 0, vec![], 1_000_000_000, 13),
        ];
        let s = m.schedule(&log, 13);
        let seq_time = m.pipeline_time(&log);
        assert!((s.makespan - seq_time).abs() <= 1e-12 * seq_time);
    }

    #[test]
    fn independent_streams_overlap_on_disjoint_sms() {
        let m = PerfModel::k20c();
        // Two single-block kernels on different streams: each occupies one
        // SM, so on a 2-SM device they run concurrently.
        let log = vec![
            streamed(0, 1, vec![], 1_000_000_000, 1),
            streamed(1, 2, vec![], 1_000_000_000, 1),
        ];
        let overlapped = m.schedule(&log, 2).makespan;
        let sequential = m.pipeline_time(&log);
        assert!(
            overlapped < 0.6 * sequential,
            "overlapped {overlapped} vs sequential {sequential}"
        );
        // On a single SM they contend and (nearly) serialize; only the
        // second launch's driver overhead can hide under the first's busy
        // window.
        let contended = m.schedule(&log, 1).makespan;
        assert!(contended >= sequential - 2.0 * m.launch_overhead);
    }

    #[test]
    fn event_deps_order_across_streams() {
        let m = PerfModel::k20c();
        // Launch 1 (stream 2) waits on launch 0 (stream 1) via a dep edge.
        let log = vec![
            streamed(0, 1, vec![], 1_000_000_000, 1),
            streamed(1, 2, vec![0], 1_000_000_000, 1),
        ];
        let s = m.schedule(&log, 4);
        assert!(s.launches[1].busy_start >= s.launches[0].finish - 1e-15);
        assert_eq!(s.streams(), vec![1, 2]);
        assert!(s.stream_busy(1) > 0.0);
    }

    #[test]
    fn overheads_of_distinct_streams_pipeline() {
        let m = PerfModel::k20c();
        // Overhead-dominated kernels (tiny work) on many streams: driver
        // overheads pipeline, so the makespan is far below the sequential
        // sum of launch overheads.
        let n = 32u64;
        let log: Vec<LaunchRecord> =
            (0..n).map(|i| streamed(i, i + 1, vec![], 1000, 1)).collect();
        let overlapped = m.schedule(&log, 13).makespan;
        let sequential = m.pipeline_time(&log);
        assert!(
            overlapped < sequential / 2.0,
            "overlapped {overlapped} vs sequential {sequential}"
        );
    }

    #[test]
    fn scaled_model_speeds_up_work_but_not_overhead() {
        let m = PerfModel::k20c();
        let fast = m.scaled(2.0);
        let r = rec(1_170_000_000_000, 0, 1.0);
        let t_base = m.kernel_time(&r);
        let t_fast = fast.kernel_time(&r);
        // Compute halves; the launch overhead is unchanged.
        let expected = m.launch_overhead + (t_base - m.launch_overhead) / 2.0;
        assert!((t_fast - expected).abs() <= 1e-9 * expected, "{t_fast} vs {expected}");
        assert_eq!(fast.launch_overhead, m.launch_overhead);
    }

    #[test]
    fn wave_cost_monotone_in_shape_and_device() {
        let m = PerfModel::k20c();
        let small = m.gemm_wave_cost(&[(32, 32, 32)], 13);
        let big = m.gemm_wave_cost(&[(1024, 1024, 1024)], 13);
        assert!(big > 4.0 * small, "1024³ must dwarf 32³: {big} vs {small}");

        // More SMs never slow a wave down, and help a multi-request wave.
        let wave: Vec<(usize, usize, usize)> = vec![(128, 128, 128); 8];
        let narrow = m.gemm_wave_cost(&wave, 4);
        let wide = m.gemm_wave_cost(&wave, 52);
        assert!(wide < narrow, "52 SMs beat 4: {wide} vs {narrow}");

        // A scaled-up model is strictly cheaper on compute-bound waves.
        let fast = m.scaled(3.0).gemm_wave_cost(&wave, 4);
        assert!(fast < narrow, "3x rates beat 1x: {fast} vs {narrow}");

        // Costs add up: a two-request wave costs at least the bigger
        // request and at most the sequential sum.
        let one = m.gemm_wave_cost(&[(128, 128, 128)], 13);
        let two = m.gemm_wave_cost(&[(128, 128, 128), (128, 128, 128)], 13);
        assert!(two >= one && two <= 2.0 * one + m.launch_overhead);
    }

    #[test]
    fn request_cost_handle_matches_single_shape_wave() {
        // The one-request cost is exactly the one-shape wave cost, across
        // model scalings and SM counts.
        let m = PerfModel::k20c();
        for &(shape, sms) in
            &[((64, 64, 64), 13), ((256, 256, 256), 26), ((1024, 32, 512), 6)]
        {
            assert_eq!(m.gemm_request_cost(shape, sms), m.gemm_wave_cost(&[shape], sms));
            let scaled = m.scaled(0.5);
            assert_eq!(
                scaled.gemm_request_cost(shape, sms),
                scaled.gemm_wave_cost(&[shape], sms)
            );
        }
    }

    #[test]
    fn sm_time_fits_inside_launch_busy_window() {
        let m = PerfModel::k20c();
        let mut r = rec(0, 0, 1.0);
        // 4 SMs, heavily imbalanced: SM 0 does almost everything.
        r.per_sm = vec![
            KernelStats { fadd: 900_000_000, ..Default::default() },
            KernelStats { fadd: 50_000_000, ..Default::default() },
            KernelStats { fadd: 50_000_000, ..Default::default() },
            KernelStats { fadd: 0, ..Default::default() },
        ];
        for s in &r.per_sm {
            r.stats.merge(s);
        }
        let busy = m.kernel_time(&r) - m.launch_overhead;
        for sm in 0..4 {
            let t = m.sm_time(&r, sm);
            assert!(t >= 0.0 && t <= busy + 1e-15, "sm {sm}: {t} vs busy {busy}");
        }
        // Balanced load models each SM busy for ~the whole window.
        let mut b = rec(0, 0, 1.0);
        b.per_sm = vec![KernelStats { fadd: 250_000_000, ..Default::default() }; 4];
        for s in &b.per_sm {
            b.stats.merge(s);
        }
        let busy = m.kernel_time(&b) - m.launch_overhead;
        let t = m.sm_time(&b, 0);
        assert!((t - busy).abs() <= 1e-9 * busy, "{t} vs {busy}");
        // Out-of-range SM is silent.
        assert_eq!(m.sm_time(&b, 99), 0.0);
    }
}
