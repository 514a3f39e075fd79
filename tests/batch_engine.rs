//! Integration tests of the multi-stream batch engine: the determinism
//! contract (batching never changes numerics), the modelled speedup it
//! exists for, and the stream/event ordering guarantees it builds on.

use aabft::core::{AAbftConfig, AAbftGemm, BatchGemm};
use aabft::gpu::kernels::gemm::{GemmKernel, GemmTiling};
use aabft::gpu::{Device, DeviceBuffer, DeviceConfig, PerfModel};
use aabft::matrix::Matrix;

fn config(bs: usize) -> AAbftConfig {
    AAbftConfig::builder()
        .block_size(bs)
        .tiling(GemmTiling { bm: 8, bn: 8, bk: 4, rx: 2, ry: 2 })
        .build()
        .expect("valid test config")
}

fn multi_sm_device() -> Device {
    Device::new(DeviceConfig::builder().num_sms(13).build().expect("valid device config"))
}

/// 64 small protected GEMMs of three shapes, all far below 256².
fn small_requests() -> Vec<(Matrix, Matrix)> {
    (0..64)
        .map(|k| {
            let n = 32 + 8 * (k % 3); // 32, 40, 48
            (
                Matrix::from_fn(n, n, move |i, j| ((i * 3 + j + k) as f64 * 0.13).sin()),
                Matrix::from_fn(n, n, move |i, j| ((i + 2 * j + 7 * k) as f64 * 0.11).cos()),
            )
        })
        .collect()
}

/// The headline acceptance check: a batch of 64 small (≤ 256²) protected
/// GEMMs must model at least 1.5× faster than the same 64 requests run
/// sequentially on a multi-SM device — while producing bit-identical
/// products and identical detection outcomes.
#[test]
fn batch_of_64_small_gemms_models_1_5x_faster_and_stays_bit_identical() {
    let requests = small_requests();
    let gemm = AAbftGemm::new(config(8));
    let model = PerfModel::k20c();

    let seq_device = multi_sm_device();
    let sequential: Vec<_> =
        requests.iter().map(|(a, b)| gemm.multiply(&seq_device, a, b)).collect();
    let num_sms = seq_device.config().num_sms;
    let sequential_s = model.stream_makespan(&seq_device.take_log(), num_sms);

    let bat_device = multi_sm_device();
    let batched =
        BatchGemm::new(gemm).with_streams(8).execute(&bat_device, &requests).unwrap();
    let batched_s = model.stream_makespan(&bat_device.take_log(), num_sms);

    assert!(
        sequential_s >= 1.5 * batched_s,
        "batched modelled time {batched_s}s must be ≥1.5x better than sequential {sequential_s}s"
    );
    assert_eq!(sequential.len(), batched.len());
    for (seq, bat) in sequential.iter().zip(&batched) {
        assert_eq!(
            seq.product.as_slice(),
            bat.product.as_slice(),
            "batched product must be bit-identical to the sequential path"
        );
        assert_eq!(seq.errors_detected(), bat.errors_detected());
        assert_eq!(seq.report, bat.report, "detection outcomes must be identical");
    }
}

/// The modelled batch timeline is a function of the requests alone: the
/// same batch under one, two and four workers, five runs each, models the
/// same makespan to the bit.
#[test]
fn batched_makespan_is_bit_identical_across_worker_counts() {
    let requests = small_requests();
    let batch = BatchGemm::new(AAbftGemm::new(config(8))).with_streams(8);
    let model = PerfModel::k20c();
    let mut makespans = Vec::new();
    for workers in [1, 2, 4] {
        let pool =
            rayon::ThreadPoolBuilder::new().num_threads(workers).build().expect("pool builds");
        for _ in 0..5 {
            let device = multi_sm_device();
            pool.install(|| batch.execute(&device, &requests)).expect("batch runs");
            let num_sms = device.config().num_sms;
            makespans.push((workers, model.stream_makespan(&device.take_log(), num_sms)));
        }
    }
    let first = makespans[0].1;
    for &(workers, makespan) in &makespans {
        assert_eq!(
            makespan.to_bits(),
            first.to_bits(),
            "{workers} workers modelled {makespan}s, one worker {first}s"
        );
    }
}

/// Mixed-shape determinism: requests of different (m, n, q) mix plan-cache
/// hits and misses and exercise pooled-buffer reuse across shapes, and the
/// products must still be bit-identical to sequential execution.
#[test]
fn mixed_size_batch_is_deterministic() {
    let shapes = [(16usize, 24usize, 16usize), (32, 16, 24), (16, 24, 16), (24, 24, 24)];
    let requests: Vec<_> = shapes
        .iter()
        .cycle()
        .take(12)
        .enumerate()
        .map(|(k, &(m, n, q))| {
            (
                Matrix::from_fn(m, n, move |i, j| ((i * 5 + j + k) as f64 * 0.17).sin()),
                Matrix::from_fn(n, q, move |i, j| ((i + 3 * j + k) as f64 * 0.19).cos()),
            )
        })
        .collect();
    let gemm = AAbftGemm::new(config(4));

    let sequential: Vec<_> = requests
        .iter()
        .map(|(a, b)| gemm.multiply(&Device::with_defaults(), a, b))
        .collect();

    let batch = BatchGemm::new(gemm).with_streams(3);
    for round in 0..2 {
        // Round 2 runs entirely on pooled buffers; results must not change.
        let device = Device::with_defaults();
        let batched = batch.execute(&device, &requests).unwrap();
        for (seq, bat) in sequential.iter().zip(&batched) {
            assert_eq!(seq.product.as_slice(), bat.product.as_slice(), "round {round}");
            assert_eq!(seq.report, bat.report, "round {round}");
        }
    }
}

/// Stream-ordering contract: launches issued to the same stream never
/// overlap or reorder in the modelled schedule, and an event wait orders a
/// stream's subsequent launches after the recorded frontier of the other
/// stream.
#[test]
fn events_never_reorder_launches_within_a_stream() {
    let device = multi_sm_device();
    let tiling = GemmTiling { bm: 8, bn: 8, bk: 4, rx: 2, ry: 2 };
    let n = 16;
    let a = DeviceBuffer::from_matrix(&Matrix::from_fn(n, n, |i, j| (i + j) as f64));
    let b = DeviceBuffer::from_matrix(&Matrix::identity(n));

    let s1 = device.create_stream();
    let s2 = device.create_stream();
    let launch = |stream, c: &DeviceBuffer| {
        let k = GemmKernel::new(&a, &b, c, n, n, n, tiling);
        device.launch_on(stream, k.grid(), &k);
    };

    // Three launches on s1, then an event; s2 waits on it before its own
    // two launches.
    let outs: Vec<_> = (0..5).map(|_| DeviceBuffer::zeros(n * n)).collect();
    launch(s1, &outs[0]);
    launch(s1, &outs[1]);
    launch(s1, &outs[2]);
    let event = device.record_event(s1);
    device.wait_event(s2, &event);
    launch(s2, &outs[3]);
    launch(s2, &outs[4]);

    let log = device.take_log();
    let model = PerfModel::k20c();
    let schedule = model.schedule(&log, device.config().num_sms);

    // Within each stream: issue order == schedule order, no overlap.
    for stream in schedule.streams() {
        let mut per_stream: Vec<_> =
            schedule.launches.iter().filter(|l| l.stream == stream).collect();
        per_stream.sort_by_key(|l| l.seq);
        for pair in per_stream.windows(2) {
            assert!(
                pair[1].busy_start >= pair[0].finish,
                "stream {stream}: launch {} (busy_start {}) must not begin before \
                 launch {} finishes ({})",
                pair[1].seq,
                pair[1].busy_start,
                pair[0].seq,
                pair[0].finish
            );
        }
    }

    // Across the event: every s2 launch starts after the recorded s1
    // frontier (the third s1 launch) finishes.
    let frontier_seq = event.seq().expect("event captured a launch");
    let frontier_finish = schedule
        .launches
        .iter()
        .find(|l| l.seq == frontier_seq)
        .expect("frontier launch scheduled")
        .finish;
    for l in schedule.launches.iter().filter(|l| l.stream == s2.raw()) {
        assert!(
            l.busy_start >= frontier_finish,
            "s2 launch {} begins at {} before the event frontier finishes at {}",
            l.seq,
            l.busy_start,
            frontier_finish
        );
    }
}
