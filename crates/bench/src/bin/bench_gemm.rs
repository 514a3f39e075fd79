//! Perf-trajectory benchmark: clean-path vs instrumented protected multiply.
//!
//! Times the full A-ABFT pipeline (fused encode+gemm → reduce → check) on a
//! fault-free device, where every dispatch takes the clean path, against the
//! same device with the instrumented per-op path forced — and proves on the
//! way that both paths produce bit-identical products and that armed fault
//! plans disable the clean path. `--engine both` additionally races the
//! packed clean engine (DESIGN §12) against the scalar one over the same
//! inputs, which is the engine-vs-engine speedup the perf trajectory in the
//! README tracks. `--threads t1,t2,...` repeats every measurement under each
//! worker count (0 = all hardware threads) and races the counts against each
//! other — the macro-parallel clean path (DESIGN §14) must scale without
//! changing a single bit of the product. Results land in `BENCH_gemm.json`
//! at the repo root so subsequent PRs can track regressions.
//!
//! ```text
//! cargo run --release -p aabft-bench --bin bench_gemm
//! cargo run --release -p aabft-bench --bin bench_gemm -- \
//!     --sizes 512 --reps 2 --engine both --instrumented false \
//!     --assert-speedup 2.5 --assert-dispatch packed
//! cargo run --release -p aabft-bench --bin bench_gemm -- \
//!     --sizes 2048 --reps 2 --engine packed --instrumented false \
//!     --threads 1,0 --assert-speedup 2.0
//! ```
//!
//! Flags: `--sizes a,b,c` problem sizes; `--reps k` timed repetitions
//! (min + median are reported); `--warmup w` untimed repetitions first;
//! `--engine packed|scalar|both` clean engine(s) to measure;
//! `--threads t1,t2,...` worker counts to race (0 = all hardware threads;
//! duplicates after resolution collapse); `--instrumented false` skips the
//! (slow) forced-instrumented reference; `--assert-speedup x` requires the
//! highest worker count ≥ x· the lowest when several thread counts run —
//! otherwise packed ≥ x· scalar, falling back to clean-vs-instrumented when
//! only one engine runs; `--assert-dispatch true` verifies armed plans
//! disable the clean path, `packed` additionally pins the fused 4-dispatch
//! shape and the packed-block telemetry.

use aabft_bench::args::Args;
use aabft_core::{AAbftConfig, AAbftGemm};
use aabft_gpu_sim::device::{Device, DeviceConfig};
use aabft_gpu_sim::inject::{FaultScope, KernelFaultPlan};
use aabft_gpu_sim::pack::{self, CleanEngine};
use aabft_matrix::Matrix;
use aabft_obs::json::{write_array, JsonObject};
use std::time::Instant;

/// Runs `f` untimed `warmup` times, then timed `reps` times; returns
/// `(min, median)` wall seconds.
fn min_median<F: FnMut()>(warmup: usize, reps: usize, mut f: F) -> (f64, f64) {
    for _ in 0..warmup {
        f();
    }
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    let mid = times.len() / 2;
    let median = if times.len() % 2 == 1 {
        times[mid]
    } else {
        (times[mid - 1] + times[mid]) / 2.0
    };
    (times[0], median)
}

/// One engine's measurement over a fixed `(a, b)` pair and worker count.
struct EngineRun {
    engine: CleanEngine,
    min_s: f64,
    median_s: f64,
    product: Matrix<f64>,
    clean_launches_per_run: u64,
    dispatches_per_run: u64,
    dev: Device,
}

fn engine_name(e: CleanEngine) -> &'static str {
    match e {
        CleanEngine::Packed => "packed",
        CleanEngine::Scalar => "scalar",
    }
}

/// Resolves `--threads` entries (0 = all hardware threads) and collapses
/// duplicates, preserving first-seen order. On a single-core host `1,0`
/// therefore collapses to `[1]` and the thread race is skipped.
fn resolve_threads(raw: &[usize]) -> Vec<usize> {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = Vec::new();
    for &t in raw {
        let t = if t == 0 { hw } else { t };
        if !out.contains(&t) {
            out.push(t);
        }
    }
    out
}

fn measure_engine(
    gemm: &AAbftGemm,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    engine: CleanEngine,
    warmup: usize,
    reps: usize,
    pool: &rayon::ThreadPool,
) -> EngineRun {
    // The engine is pinned per device via the config (DESIGN §12).
    let dev = Device::new(
        DeviceConfig::builder().clean_engine(engine).build().expect("default shape is valid"),
    );
    let mut product = None;
    let (min_s, median_s) = min_median(warmup, reps, || {
        product = Some(pool.install(|| gemm.multiply(&dev, a, b)).product);
    });
    let runs = (warmup + reps.max(1)) as u64;
    let clean_launches = dev.clean_path_launches();
    assert!(clean_launches > 0, "fault-free run must engage the clean path");
    EngineRun {
        engine,
        min_s,
        median_s,
        product: product.expect("ran"),
        clean_launches_per_run: clean_launches / runs,
        dispatches_per_run: dev.dispatches() / runs,
        dev,
    }
}

fn main() {
    let args = Args::parse();
    let sizes = args.sizes("sizes", &[256, 512, 1024, 2048]);
    let reps = args.get("reps", 3usize);
    let warmup = args.get("warmup", 1usize);
    let json = args.get("json", "BENCH_gemm.json".to_string());
    let assert_speedup = args.get("assert-speedup", 0.0f64);
    let assert_dispatch = args.get("assert-dispatch", "false".to_string());
    let engine_flag = args.get("engine", "both".to_string());
    let instrumented = args.get("instrumented", true);
    let threads = resolve_threads(&args.sizes("threads", &[0]));

    let engines: Vec<CleanEngine> = match engine_flag.as_str() {
        "both" => vec![CleanEngine::Packed, CleanEngine::Scalar],
        single => vec![single
            .parse()
            .unwrap_or_else(|e| panic!("--engine {single:?}: {e}, or use both"))],
    };
    if !matches!(assert_dispatch.as_str(), "false" | "true" | "packed") {
        panic!("--assert-dispatch {assert_dispatch:?}: expected false, true or packed");
    }

    let gemm = AAbftGemm::new(AAbftConfig::default());
    let mut records = Vec::new();

    println!(
        "Protected multiply, clean path vs instrumented ({reps} reps, {warmup} warmup, \
         threads {threads:?}):"
    );
    println!(
        "{:>6} {:>8} {:>4} {:>10} {:>10} {:>12} {:>9} {:>8}",
        "n", "engine", "thr", "min ms", "median ms", "instrum. ms", "speedup", "GFLOP/s"
    );
    for &n in &sizes {
        let a = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) as f64 * 0.017).sin());
        let b = Matrix::from_fn(n, n, |i, j| ((i * 5 + j * 11) as f64 * 0.013).cos());

        // Reference product for the whole size: every engine and every
        // worker count must reproduce it bit for bit.
        let mut reference: Option<Matrix<f64>> = None;
        // Per-engine best time per worker count, for the thread race.
        let mut by_threads: Vec<(CleanEngine, usize, f64)> = Vec::new();

        for (ti, &t) in threads.iter().enumerate() {
            let pool =
                rayon::ThreadPoolBuilder::new().num_threads(t).build().expect("pool builds");

            let blocks_before = pack::packed_blocks();
            let runs: Vec<EngineRun> = engines
                .iter()
                .map(|&e| measure_engine(&gemm, &a, &b, e, warmup, reps, &pool))
                .collect();

            // The forced-instrumented reference (the slow path both engines
            // must agree with bit-for-bit).
            let inst = if instrumented {
                let inst_dev = Device::with_defaults();
                inst_dev.set_force_instrumented(true);
                let mut inst_product = None;
                let (inst_min, _) = min_median(warmup.min(1), reps, || {
                    inst_product = Some(pool.install(|| gemm.multiply(&inst_dev, &a, &b)).product);
                });
                assert_eq!(
                    inst_dev.clean_path_launches(),
                    0,
                    "forced device must stay instrumented"
                );
                Some((inst_min, inst_product.expect("ran")))
            } else {
                None
            };

            for r in &runs {
                let reference = reference.get_or_insert_with(|| r.product.clone());
                assert!(
                    r.product.approx_eq(reference, 0.0),
                    "products must be bit-identical across engines and worker counts"
                );
            }
            if let Some((_, ip)) = &inst {
                let reference = reference.as_ref().expect("at least one engine ran");
                assert!(
                    ip.approx_eq(reference, 0.0),
                    "clean and instrumented products must be bit-identical"
                );
            }

            if ti == 0 && assert_dispatch != "false" {
                // A plan that can never fire still must force the
                // instrumented path for as long as it is armed. Dispatch
                // shape is worker-count independent, so once per size.
                let dev = &runs[0].dev;
                let clean_launches = dev.clean_path_launches();
                dev.arm_kernel_fault(KernelFaultPlan {
                    scope: FaultScope::Any,
                    sm: 0,
                    k_injection: u64::MAX,
                    mask: 1,
                });
                gemm.multiply(dev, &a, &b);
                dev.disarm_count();
                assert_eq!(
                    dev.clean_path_launches(),
                    clean_launches,
                    "armed fault plan must disable the clean path"
                );
            }
            if ti == 0 && assert_dispatch == "packed" {
                let packed = runs
                    .iter()
                    .find(|r| r.engine == CleanEngine::Packed)
                    .expect("--assert-dispatch packed needs the packed engine in --engine");
                assert_eq!(
                    packed.dispatches_per_run, 4,
                    "fused encode+gemm must run the clean pipeline in 4 dispatches"
                );
                assert!(
                    pack::packed_blocks() > blocks_before,
                    "packed engine must report packed-block telemetry"
                );
            }

            let scalar_min =
                runs.iter().find(|r| r.engine == CleanEngine::Scalar).map(|r| r.min_s);
            for r in &runs {
                by_threads.push((r.engine, t, r.min_s));
                let speedup_vs_inst = inst.as_ref().map(|(im, _)| im / r.min_s);
                let speedup_vs_scalar = match (r.engine, scalar_min) {
                    (CleanEngine::Packed, Some(s)) => Some(s / r.min_s),
                    _ => None,
                };
                let gflops = 2.0 * (n as f64).powi(3) / r.min_s / 1e9;
                let inst_col =
                    inst.as_ref().map_or("-".into(), |(im, _)| format!("{:.3}", im * 1e3));
                let speed_col = speedup_vs_inst
                    .or(speedup_vs_scalar)
                    .map_or("-".into(), |s| format!("{s:.2}x"));
                println!(
                    "{n:>6} {:>8} {t:>4} {:>10.3} {:>10.3} {:>12} {speed_col:>9} {gflops:>8.2}",
                    engine_name(r.engine),
                    r.min_s * 1e3,
                    r.median_s * 1e3,
                    inst_col,
                );

                let mut rec = JsonObject::new()
                    .int("n", n as u64)
                    .str("engine", engine_name(r.engine))
                    .int("threads", t as u64)
                    .num("clean_ms_min", r.min_s * 1e3)
                    .num("clean_ms_median", r.median_s * 1e3)
                    .num("host_gflops", gflops)
                    .int("reps", reps as u64)
                    .int("warmup", warmup as u64)
                    .int("clean_launches_per_run", r.clean_launches_per_run)
                    .int("dispatches_per_run", r.dispatches_per_run);
                if let Some((im, _)) = &inst {
                    rec = rec.num("instrumented_ms", im * 1e3);
                }
                if let Some(s) = speedup_vs_inst {
                    rec = rec.num("speedup", s);
                }
                if let Some(s) = speedup_vs_scalar {
                    rec = rec.num("speedup_vs_scalar", s);
                }
                records.push(rec);

                // With a single worker count the floor applies to the
                // engine race when both engines ran, and to the
                // clean-vs-instrumented ratio otherwise. With several
                // worker counts it gates the thread race below instead.
                if threads.len() == 1 && assert_speedup > 0.0 {
                    if let Some(s) = speedup_vs_scalar.or(speedup_vs_inst) {
                        assert!(
                            s >= assert_speedup,
                            "speedup {s:.2}x at n = {n} ({}) below required {assert_speedup}x",
                            engine_name(r.engine)
                        );
                    }
                }
            }
        }

        // Thread race: highest worker count vs lowest, per engine. The
        // floor adapts to the host — a t_hi/t_lo ratio of r can at best
        // yield r·, so the requirement is min(asked, 0.7·r); on a
        // single-core host the counts collapse and the race is skipped.
        if threads.len() > 1 {
            let (t_lo, t_hi) = (threads[0], *threads.last().expect("non-empty"));
            for &e in &engines {
                let time_at = |t: usize| {
                    by_threads
                        .iter()
                        .find(|&&(be, bt, _)| be == e && bt == t)
                        .map(|&(_, _, s)| s)
                        .expect("measured")
                };
                let scaling = time_at(t_lo) / time_at(t_hi);
                println!(
                    "{n:>6} {:>8} thread race: {t_hi} workers {scaling:.2}x over {t_lo}",
                    engine_name(e)
                );
                records.push(
                    JsonObject::new()
                        .int("n", n as u64)
                        .str("engine", engine_name(e))
                        .int("threads_lo", t_lo as u64)
                        .int("threads_hi", t_hi as u64)
                        .num("thread_speedup", scaling),
                );
                if assert_speedup > 0.0 {
                    let floor = assert_speedup.min(0.7 * t_hi as f64 / t_lo as f64);
                    assert!(
                        scaling >= floor,
                        "thread scaling {scaling:.2}x at n = {n} ({}) below required \
                         {floor:.2}x ({t_hi} vs {t_lo} workers)",
                        engine_name(e)
                    );
                }
            }
        } else if assert_speedup > 0.0 && args.sizes("threads", &[0]).len() > 1 {
            println!(
                "{n:>6} thread race skipped: worker counts collapse to {threads:?} on this host"
            );
        }
    }

    write_array(std::path::Path::new(&json), &records);
    println!("wrote {json}");
}
