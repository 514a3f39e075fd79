//! Dual-path execution equivalence: the clean (uninstrumented) fast path
//! must be indistinguishable from the instrumented path in everything the
//! rest of the system observes — product bits, checksum rows, launch logs,
//! merged and per-SM [`KernelStats`] (including the `fpu_ticks` that
//! calibrate kernel-scope fault campaigns) — and must disengage the moment
//! any fault plan is armed.

use aabft_core::recover::RecomputeBlocksKernel;
use aabft_core::{AAbftConfig, AAbftGemm};
use aabft_faults::campaign::run_selfheal_campaign;
use aabft_faults::{BitRegion, CampaignConfig, FaultSpec, InjectScope};
use aabft_gpu_sim::kernels::compare::CompareKernel;
use aabft_gpu_sim::kernels::gemm::GemmTiling;
use aabft_gpu_sim::{
    Device, DeviceBuffer, FaultScope, FaultSite, InjectionPlan, KernelFaultPlan, LaunchRecord,
    MemoryFaultPlan,
};
use aabft_matrix::Matrix;
use aabft_numerics::{MulMode, RoundingMode};

fn inputs(n: usize) -> (Matrix<f64>, Matrix<f64>) {
    let a = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) as f64 * 0.017).sin());
    let b = Matrix::from_fn(n, n, |i, j| ((i * 5 + j * 11) as f64 * 0.013).cos());
    (a, b)
}

/// Field-by-field launch-log equality (LaunchRecord has no PartialEq; the
/// comparison spells out every observable so a drift in any of them names
/// the field that diverged).
fn assert_logs_identical(clean: &[LaunchRecord], inst: &[LaunchRecord]) {
    assert_eq!(clean.len(), inst.len(), "same number of launches");
    for (c, i) in clean.iter().zip(inst) {
        let which = format!("launch seq {} ({})", c.seq, c.name);
        assert_eq!(c.seq, i.seq, "{which}: seq");
        assert_eq!(c.stream, i.stream, "{which}: stream");
        assert_eq!(c.deps, i.deps, "{which}: deps");
        assert_eq!(c.name, i.name, "{which}: name");
        assert_eq!(c.phase, i.phase, "{which}: phase");
        assert_eq!(c.utilization, i.utilization, "{which}: utilization");
        assert_eq!(c.stats, i.stats, "{which}: merged stats");
        assert_eq!(c.per_sm, i.per_sm, "{which}: per-SM stats split");
    }
}

/// One clean-device and one forced-instrumented protected multiply over the
/// same inputs; returns (clean device, clean log, instrumented log) after
/// asserting the products and full checksummed matrices are bit-identical.
fn run_both(config: AAbftConfig, n: usize) -> (Device, Vec<LaunchRecord>, Vec<LaunchRecord>) {
    run_both_shape(config, n, n, n)
}

/// [`run_both`] over rectangular `m × n · n × q` operands (packing edge
/// cases: degenerate vectors, shapes the block size does not divide).
fn run_both_shape(
    config: AAbftConfig,
    m: usize,
    n: usize,
    q: usize,
) -> (Device, Vec<LaunchRecord>, Vec<LaunchRecord>) {
    let a = Matrix::from_fn(m, n, |i, j| ((i * 7 + j * 3) as f64 * 0.017).sin());
    let b = Matrix::from_fn(n, q, |i, j| ((i * 5 + j * 11) as f64 * 0.013).cos());
    let gemm = AAbftGemm::new(config);

    let clean_dev = Device::with_defaults();
    let clean = gemm.multiply(&clean_dev, &a, &b);
    let clean_log = clean_dev.take_log();

    let inst_dev = Device::with_defaults();
    inst_dev.set_force_instrumented(true);
    let inst = gemm.multiply(&inst_dev, &a, &b);
    let inst_log = inst_dev.take_log();
    assert_eq!(inst_dev.clean_path_launches(), 0, "forced device must never go clean");

    assert_eq!(
        clean.full.matrix.max_abs_diff(&inst.full.matrix),
        0.0,
        "augmented product (data + checksum rows/columns) must be bit-identical"
    );
    assert_eq!(clean.product.max_abs_diff(&inst.product), 0.0, "released product bit-identical");
    assert_eq!(clean.report.errors_detected(), inst.report.errors_detected());
    (clean_dev, clean_log, inst_log)
}

/// The fault-free pipeline's dispatch shape: the fused encode+GEMM
/// epilogue merges 3 of the 6 logical launches into one dispatch, so the
/// launch log still shows 6 records while the device reports 4 clean
/// dispatches (DESIGN §12).
fn assert_fused_clean_shape(clean_dev: &Device, clean_log: &[LaunchRecord]) {
    assert_eq!(clean_log.len(), 6, "the pipeline still files 6 launch records");
    assert_eq!(
        clean_dev.dispatches(),
        4,
        "fused encode+gemm drops the clean pipeline from 6 dispatches to 4"
    );
    assert_eq!(
        clean_dev.clean_path_launches(),
        clean_dev.dispatches(),
        "every fault-free dispatch must take the clean path"
    );
}

#[test]
fn protected_multiply_bit_identical_with_identical_logs_separate() {
    let (clean_dev, clean_log, inst_log) = run_both(AAbftConfig::default(), 64);
    assert_fused_clean_shape(&clean_dev, &clean_log);
    assert_logs_identical(&clean_log, &inst_log);
}

#[test]
fn protected_multiply_bit_identical_with_identical_logs_fused() {
    let config =
        AAbftConfig::builder().mul_mode(MulMode::Fused).build().expect("valid config");
    let (clean_dev, clean_log, inst_log) = run_both(config, 64);
    assert_fused_clean_shape(&clean_dev, &clean_log);
    assert_logs_identical(&clean_log, &inst_log);
}

#[test]
fn truncation_rounding_falls_back_to_instrumented_gemm_only() {
    let config = AAbftConfig::builder()
        .block_size(8)
        .tiling(GemmTiling { bm: 16, bn: 16, bk: 8, rx: 4, ry: 4 })
        .rounding_mode(RoundingMode::Truncation)
        .build()
        .expect("valid config");
    let (clean_dev, clean_log, inst_log) = run_both(config, 48);
    let gemm_launches = clean_log.iter().filter(|r| r.phase == "gemm").count() as u64;
    assert!(gemm_launches > 0, "pipeline must contain a gemm launch");
    assert_eq!(
        clean_dev.clean_path_launches(),
        clean_log.len() as u64 - gemm_launches,
        "truncating GEMM declines the clean path; every other kernel still takes it"
    );
    assert_logs_identical(&clean_log, &inst_log);
}

#[test]
fn fault_scope_calibration_sees_identical_per_sm_ticks() {
    // Campaigns calibrate kernel-scope fault plans from a clean run's
    // launch log (`scope_ops_per_sm` sums per-SM fpu_ticks); the clean path
    // must feed that calibration the exact instrumented tick counts.
    use aabft_faults::plan::scope_ops_per_sm;
    let (clean_dev, clean_log, inst_log) = run_both(AAbftConfig::default(), 64);
    let num_sms = clean_dev.config().num_sms;
    for scope in [
        FaultScope::Encode,
        FaultScope::Gemm,
        FaultScope::PMaxReduce,
        FaultScope::Check,
        FaultScope::Any,
    ] {
        let c = scope_ops_per_sm(&clean_log, scope, num_sms);
        let i = scope_ops_per_sm(&inst_log, scope, num_sms);
        assert_eq!(c, i, "{scope:?}: per-SM op totals must match for calibration");
        if scope == FaultScope::Any {
            assert!(c.iter().sum::<u64>() > 0, "clean path must report nonzero ticks");
        }
    }
}

#[test]
fn armed_plan_restores_the_six_dispatch_shape_and_calibration() {
    // The fused encode+GEMM epilogue is a clean-path-only optimisation:
    // the moment any fault plan is armed, the pipeline must fall back to
    // six separate instrumented launches (faults need per-phase landing
    // points), and a campaign calibrating from a *fused* clean log must
    // see the exact per-SM tick totals of the armed run.
    use aabft_faults::plan::scope_ops_per_sm;
    let (a, b) = inputs(64);
    let gemm = AAbftGemm::new(AAbftConfig::default());

    let clean_dev = Device::with_defaults();
    gemm.multiply(&clean_dev, &a, &b);
    let clean_log = clean_dev.take_log();
    assert_fused_clean_shape(&clean_dev, &clean_log);

    // Armed with a plan that can never fire: same arithmetic, separate
    // instrumented dispatches.
    let armed_dev = Device::with_defaults();
    armed_dev.arm_kernel_fault(KernelFaultPlan {
        scope: FaultScope::Any,
        sm: 0,
        k_injection: u64::MAX,
        mask: 1,
    });
    gemm.multiply(&armed_dev, &a, &b);
    let armed_log = armed_dev.take_log();
    assert_eq!(armed_log.len(), 6, "armed pipeline files the same 6 records");
    assert_eq!(armed_dev.dispatches(), 6, "the separate 6-dispatch shape reappears");
    assert_eq!(armed_dev.clean_path_launches(), 0, "armed device must never go clean");

    // The two logs are indistinguishable record-for-record, so campaign
    // tick calibration cannot tell which dispatch shape produced them.
    assert_logs_identical(&clean_log, &armed_log);
    let num_sms = clean_dev.config().num_sms;
    for scope in [
        FaultScope::Encode,
        FaultScope::Gemm,
        FaultScope::PMaxReduce,
        FaultScope::Check,
        FaultScope::Any,
    ] {
        assert_eq!(
            scope_ops_per_sm(&clean_log, scope, num_sms),
            scope_ops_per_sm(&armed_log, scope, num_sms),
            "{scope:?}: calibration from the fused clean log must match the armed run"
        );
    }
}

#[test]
fn clean_path_is_bit_identical_under_every_worker_count() {
    // The macro-parallel clean path (DESIGN §14) partitions the block space
    // across worker threads, but every accumulator still sums its k-terms
    // in ascending order on exactly one worker — so any worker count must
    // reproduce the single-worker run bit for bit, launch log included
    // (field by field, per-SM stats splits and all), and both must stay
    // indistinguishable from the forced-instrumented reference.
    let (a, b) = inputs(64);
    let gemm = AAbftGemm::new(AAbftConfig::default());

    let run_with = |workers: usize| {
        let pool =
            rayon::ThreadPoolBuilder::new().num_threads(workers).build().expect("pool builds");
        pool.install(|| {
            let dev = Device::with_defaults();
            let out = gemm.multiply(&dev, &a, &b);
            assert!(
                dev.clean_path_launches() > 0,
                "fault-free run must engage the clean path under {workers} workers"
            );
            (out, dev.take_log())
        })
    };

    let (reference, reference_log) = run_with(1);
    for workers in [2usize, 4, 8] {
        let (out, log) = run_with(workers);
        assert_eq!(
            out.full.matrix.max_abs_diff(&reference.full.matrix),
            0.0,
            "augmented product must be bit-identical under {workers} workers"
        );
        assert_eq!(
            out.product.max_abs_diff(&reference.product),
            0.0,
            "released product must be bit-identical under {workers} workers"
        );
        assert!(!out.report.errors_detected(), "fault-free run reports clean");
        assert_logs_identical(&log, &reference_log);
    }

    let inst_dev = Device::with_defaults();
    inst_dev.set_force_instrumented(true);
    let inst = gemm.multiply(&inst_dev, &a, &b);
    assert_eq!(inst.product.max_abs_diff(&reference.product), 0.0);
    assert_logs_identical(&reference_log, &inst_dev.take_log());
}

#[test]
fn unaligned_and_degenerate_shapes_stay_bit_identical() {
    // BS = 32 does not divide n = 100, so the last checksum block is
    // ragged and the augmented extent is not a tile multiple before
    // padding.
    run_both_shape(AAbftConfig::default(), 100, 100, 100);

    // Small tiles, shapes nothing divides (prime-ish extents exercise
    // edge panels in both packing dimensions).
    let small = AAbftConfig::builder()
        .block_size(8)
        .tiling(GemmTiling { bm: 16, bn: 16, bk: 8, rx: 4, ry: 4 })
        .build()
        .expect("valid config");
    run_both_shape(small, 37, 23, 41);

    // Degenerate operands: a 1×k row vector, a k×1 column vector, and
    // the 1×1 scalar product.
    run_both_shape(small, 1, 96, 64);
    run_both_shape(small, 64, 96, 1);
    run_both_shape(small, 1, 1, 1);
}

#[test]
fn any_armed_plan_disables_the_clean_path() {
    let (a, b) = inputs(64);
    let gemm = AAbftGemm::new(AAbftConfig::default());
    let device = Device::with_defaults();

    // A kernel-scope plan that can never fire still forces instrumentation.
    device.arm_kernel_fault(KernelFaultPlan {
        scope: FaultScope::Any,
        sm: 0,
        k_injection: u64::MAX,
        mask: 1,
    });
    gemm.multiply(&device, &a, &b);
    assert_eq!(device.clean_path_launches(), 0, "kernel fault armed");
    device.disarm_count();

    // Likewise a memory-at-rest plan against a phase that never runs...
    device.arm_memory_fault(MemoryFaultPlan {
        buffer: "nonexistent",
        word: 0,
        mask: 1,
        after_phase: "never",
    });
    gemm.multiply(&device, &a, &b);
    assert_eq!(device.clean_path_launches(), 0, "memory fault armed");
    device.disarm_count();

    // ...and a per-FP-site injection plan (the paper's Algorithm 3 faults).
    device.arm_injections(&[InjectionPlan {
        sm: 0,
        site: FaultSite::InnerMul,
        module: 0,
        k_injection: u64::MAX,
        mask: 1,
    }]);
    gemm.multiply(&device, &a, &b);
    assert_eq!(device.clean_path_launches(), 0, "injection plan armed");
    device.disarm_count();

    // Disarmed again: the clean path resumes.
    gemm.multiply(&device, &a, &b);
    assert!(device.clean_path_launches() > 0, "clean path resumes after disarm");
}

#[test]
fn standalone_compare_matches_instrumented() {
    let x: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.03).sin()).collect();
    let mut y = x.clone();
    y[123] += 1.0;
    y[777] += 1e-9;
    let run = |force: bool| {
        let device = Device::with_defaults();
        device.set_force_instrumented(force);
        let dx = DeviceBuffer::from_vec(x.clone());
        let dy = DeviceBuffer::from_vec(y.clone());
        let counts = DeviceBuffer::zeros(7);
        let kernel = CompareKernel::new(&dx, &dy, &counts, 1e-6);
        let stats = device.launch(kernel.grid(), &kernel);
        (kernel.total_mismatches(), stats, device.take_log(), device.clean_path_launches())
    };
    let (n_clean, s_clean, log_clean, launches) = run(false);
    let (n_inst, s_inst, log_inst, _) = run(true);
    assert_eq!(launches, 1, "compare must take the clean path");
    assert_eq!(n_clean, 1, "only the above-tolerance mismatch counts");
    assert_eq!(n_clean, n_inst);
    assert_eq!(s_clean, s_inst);
    assert_logs_identical(&log_clean, &log_inst);
}

#[test]
fn standalone_recompute_matches_instrumented() {
    // Augmented shapes: A' is rows_total × inner, B' is inner × c_width,
    // C' is rows_total × c_width with checksum lines right after the data.
    let (inner, bs) = (32, 8);
    let (rows_total, c_width) = (40, 40); // 32 data + 8 checksum lines
    let a = Matrix::from_fn(rows_total, inner, |i, j| ((i + 2 * j) as f64 * 0.02).sin());
    let b = Matrix::from_fn(inner, c_width, |i, j| ((3 * i + j) as f64 * 0.015).cos());
    let targets = [(0usize, 1usize), (2, 3), (3, 0)];
    let run = |force: bool| {
        let device = Device::with_defaults();
        device.set_force_instrumented(force);
        let da = DeviceBuffer::from_matrix(&a);
        let db = DeviceBuffer::from_matrix(&b);
        let dc = DeviceBuffer::zeros(rows_total * c_width);
        let kernel =
            RecomputeBlocksKernel::new(&da, &db, &dc, inner, c_width, bs, 32, 32, &targets);
        let stats = device.launch(kernel.grid(), &kernel);
        (dc.to_vec(), stats, device.take_log(), device.clean_path_launches())
    };
    let (c_clean, s_clean, log_clean, launches) = run(false);
    let (c_inst, s_inst, log_inst, _) = run(true);
    assert_eq!(launches, 1, "recompute must take the clean path");
    assert_eq!(c_clean, c_inst, "bit-identical recomputed blocks");
    assert_eq!(s_clean, s_inst);
    assert_logs_identical(&log_clean, &log_inst);
}

#[test]
fn selfheal_campaign_smoke_routes_faults_to_instrumented_path() {
    // Whole-pipeline proof that the dispatcher and the fault framework
    // compose: the campaign's clean reference run rides the fast path while
    // every armed trial instruments, fires, detects and heals — zero silent
    // corruption, zero fail-safe aborts.
    use aabft_core::SelfHealingGemm;
    use aabft_matrix::gen::InputClass;
    let heal = SelfHealingGemm::new(AAbftGemm::new(
        AAbftConfig::builder()
            .block_size(4)
            .tiling(GemmTiling { bm: 8, bn: 8, bk: 4, rx: 2, ry: 2 })
            .build()
            .expect("valid config"),
    ));
    let config = CampaignConfig {
        n: 16,
        input: InputClass::UNIT,
        spec: FaultSpec::single(FaultSite::FinalAdd, BitRegion::Exponent),
        trials: 12,
        seed: 7,
        omega: 3.0,
        block_size: 4,
        tiling: GemmTiling { bm: 8, bn: 8, bk: 4, rx: 2, ry: 2 },
        faults_per_run: 1,
        scope: InjectScope::GemmSites,
    };
    let r = run_selfheal_campaign(&heal, &config);
    assert_eq!(r.stats.total() as usize, config.trials);
    assert_eq!(r.stats.not_fired, 0, "armed faults must still fire: {:?}", r.stats);
    assert_eq!(r.stats.mis_corrected, 0, "zero silent SDC: {:?}", r.stats);
    assert_eq!(r.stats.unrecovered, 0, "single faults heal: {:?}", r.stats);
}
