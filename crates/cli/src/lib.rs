//! Implementation of the `aabft` command-line tool's subcommands.
//!
//! Each subcommand is a thin orchestration over the workspace crates:
//! protected multiplies ([`cmd_multiply`]), targeted fault injection
//! ([`cmd_inject`]), detection campaigns ([`cmd_campaign`]), bound-quality
//! rows ([`cmd_bounds`]), the Table-I performance model ([`cmd_perf`]) and
//! the per-phase profiler ([`cmd_profile`]).
//!
//! Every subcommand accepts `--trace <path>` (Chrome trace-event JSON,
//! loadable in Perfetto / `chrome://tracing`) and `--metrics <path>`
//! (metrics-registry snapshot as JSON); see the OBSERVABILITY section of
//! [`usage`].

#![warn(missing_docs)]

use aabft_baselines::{FixedBoundAbft, SeaAbft, TmrGemm};
use aabft_bench::args::Args;
use aabft_bench::quality::{measure, QualityConfig};
use aabft_bench::table1::modelled_row;
use aabft_core::recover::RecoveryPolicy;
use aabft_core::{AAbftConfig, AAbftGemm, SelfHealingGemm, DEFAULT_HEAL_BUDGET};
use aabft_faults::bitflip::BitRegion;
use aabft_faults::campaign::{
    run_campaign, run_selfheal_campaign, run_selfheal_campaign_chunked, CampaignConfig,
};
use aabft_faults::plan::{FaultSpec, InjectScope, MemScope};
use aabft_gpu_sim::inject::FaultScope;
use aabft_gpu_sim::device::Device;
use aabft_gpu_sim::inject::{FaultSite, InjectionPlan};
use aabft_gpu_sim::kernels::gemm::GemmTiling;
use aabft_gpu_sim::perf::PerfModel;
use aabft_gpu_sim::stats::LaunchRecord;
use aabft_gpu_sim::trace::build_trace;
use aabft_matrix::gen::InputClass;
use aabft_obs::json::JsonValue;
use aabft_obs::{JsonObject, Obs, Snapshotter};
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Observability session shared by every subcommand: the process-global
/// [`Obs`] instance (which every [`Device`] reports into by default) plus
/// the export paths requested via `--trace` / `--metrics`.
struct ObsSession {
    obs: Arc<Obs>,
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
}

impl ObsSession {
    /// Reads `--trace <path>` and `--metrics <path>`; span recording is
    /// enabled only when a trace was asked for (metrics are always on).
    fn begin(args: &Args) -> Self {
        let path = |key: &str| {
            let v = args.get(key, String::new());
            if v.is_empty() { None } else { Some(PathBuf::from(v)) }
        };
        let obs = aabft_obs::global();
        let trace = path("trace");
        if trace.is_some() {
            obs.recorder.set_enabled(true);
        }
        ObsSession { obs, trace, metrics: path("metrics") }
    }

    /// Writes the requested exports. `log` supplies the device timeline for
    /// the Chrome trace's per-SM tracks (pass `&[]` for commands without a
    /// single device log — the trace then carries host spans only).
    fn finish(&self, log: &[LaunchRecord]) {
        if let Some(path) = &self.trace {
            let trace = build_trace(&self.obs.recorder.spans(), log, &PerfModel::k20c());
            trace.write(path);
            println!("trace written to {} ({} events)", path.display(), trace.len());
        }
        if let Some(path) = &self.metrics {
            self.obs.metrics.snapshot().write_json(path);
            println!("metrics written to {}", path.display());
        }
    }
}

/// Top-level usage text.
pub fn usage() -> &'static str {
    "aabft — Autonomous ABFT for matrix multiplications (DSN'14 reproduction)

USAGE: aabft <command> [--flag value]...

COMMANDS
  multiply   run a protected multiplication
             --n 256  --bs 32 --p 2 --omega 3.0 --input unit|hundred|dynamic
             --correct true --recompute true --seed 1
  batch      run N protected multiplications through the multi-stream
             batch engine and compare modelled wall time with N
             sequential multiplies
             --count 64 --n 128 --bs 32 --streams 8 --sms 13 --seed 1
  inject     arm one fault and run a protected multiplication
             --n 128 --site inner-mul|inner-add|final-add --sm 0 --module 0
             --k 1000 --bit 58
  campaign   run a detection campaign
             --n 96 --scheme aabft|sea|abft|tmr --site inner-add
             --region mantissa|exponent|sign --bits 1 --trials 200 --seed 7
             self-healing mode (whole-pipeline faults, verified release):
             --selfheal true --budget 4
             --scope sites|encode|gemm|pmax|check|recompute|
                     mem-a|mem-b|mem-c|mem-checksum
             gate flags (non-zero exit on violation):
             --assert-min-detection 90 --assert-zero-sdc true
             --assert-zero-unrecovered true
             run-health telemetry (self-heal campaigns):
             --snapshot <path>  periodic JSONL registry snapshots
             --snapshot-every N  trials per snapshot epoch (default trials/8)
             --json <path>  write the final DetectionStats as JSON
  report     render a run-health report from snapshot JSONL
             --snapshots <path> (from campaign --snapshot)
             --campaign <path>  (from campaign --json; cross-checked
             field-for-field against the snapshot counters)
             --serve-metrics <path>  (from serve --metrics; queue and
             shard depths, per-replica waves and busy time)
             --serve-bench <path>  (from serve --json; render the
             record array, --kind load filters)
             gate flags (non-zero exit on violation):
             --assert-min-detection 90 --assert-headroom-p99 1.0
             --assert-zero-sdc true --assert-zero-unrecovered true
  bounds     print a bound-quality row (Tables II-IV style)
             --n 256 --input unit|hundred|dynamic --samples 1024
  perf       print Table-I style modelled GFLOPS
             --sizes 512,1024,...,8192 --bs 32 --p 2
  profile    per-phase time/FLOP/traffic breakdown of one protected multiply
             --n 1024 --bs 32 --p 2
             --folded <path>     write per-launch folded stacks (flamegraph
                                 collapsed format, values in modelled µs)
             --folded-sm <path>  per-SM variant (load balance; per-SM times
                                 overlap, totals are not pipeline time)
  serve      ABFT-as-a-service load/chaos bench: shape-sharded admission,
             pull dispatch (any idle replica takes the oldest ready
             wave), deadline classes, EWMA escalation ladder,
             per-replica breakers
             --n 32 --rates 200,0 (requests/s, 0 = blast)
             --replicas 2 (count) or 26:packed,6:scalar,... (SMS:ENGINE)
             --requests 160 --queue-cap 256 --wave 8
             --interactive-ms 20 --batch-ms 500 --retries 2
             --mix verified|mixed --seed 7
             chaos: --storm true --storm-every 3 --cooldown 120
             --json BENCH_serve.json  one record per load level
             gate flags (non-zero exit on violation):
             --assert-zero-sdc true --assert-shed true --assert-ladder true
  help       this text

OBSERVABILITY (all commands)
  --trace <path>    write a Chrome trace-event JSON (open in Perfetto or
                    chrome://tracing); records host spans and, for
                    single-device commands, one track per simulated SM
  --metrics <path>  write the metrics registry (counters, gauges,
                    histograms) as JSON"
}

fn parse_input(args: &Args) -> InputClass {
    match args.get("input", "unit".to_string()).as_str() {
        "unit" => InputClass::UNIT,
        "hundred" => InputClass::HUNDRED,
        "dynamic" => InputClass::DynamicRange {
            alpha: args.get("alpha", 0.0),
            kappa: args.get("kappa", 2.0),
        },
        other => panic!("unknown input class {other:?} (unit|hundred|dynamic)"),
    }
}

fn parse_site(args: &Args) -> FaultSite {
    match args.get("site", "inner-add".to_string()).as_str() {
        "inner-mul" => FaultSite::InnerMul,
        "inner-add" => FaultSite::InnerAdd,
        "final-add" => FaultSite::FinalAdd,
        other => panic!("unknown site {other:?} (inner-mul|inner-add|final-add)"),
    }
}

fn parse_region(args: &Args) -> BitRegion {
    match args.get("region", "mantissa".to_string()).as_str() {
        "mantissa" => BitRegion::Mantissa,
        "exponent" => BitRegion::Exponent,
        "sign" => BitRegion::Sign,
        other => panic!("unknown region {other:?} (mantissa|exponent|sign)"),
    }
}

fn parse_scope(args: &Args) -> InjectScope {
    match args.get("scope", "sites".to_string()).as_str() {
        "sites" => InjectScope::GemmSites,
        "encode" => InjectScope::Kernel(FaultScope::Encode),
        "gemm" => InjectScope::Kernel(FaultScope::Gemm),
        "pmax" => InjectScope::Kernel(FaultScope::PMaxReduce),
        "check" => InjectScope::Kernel(FaultScope::Check),
        "recompute" => InjectScope::Kernel(FaultScope::Recompute),
        "mem-a" => InjectScope::Memory(MemScope::OperandA),
        "mem-b" => InjectScope::Memory(MemScope::OperandB),
        "mem-c" => InjectScope::Memory(MemScope::Product),
        "mem-checksum" => InjectScope::Memory(MemScope::ChecksumRows),
        other => panic!(
            "unknown scope {other:?} (sites|encode|gemm|pmax|check|recompute|mem-a|mem-b|mem-c|mem-checksum)"
        ),
    }
}

fn build_config(args: &Args) -> AAbftConfig {
    let mut builder = AAbftConfig::builder()
        .block_size(args.get("bs", 32usize))
        .p(args.get("p", 2usize))
        .omega(args.get("omega", 3.0));
    if args.get("recompute", false) {
        builder = builder.recovery(RecoveryPolicy::CorrectOrRecompute);
    } else if args.get("correct", false) {
        builder = builder.correct(true);
    }
    builder.build().unwrap_or_else(|e| panic!("invalid configuration: {e}"))
}

/// `aabft multiply` — protected GEMM on random inputs with a model-time
/// summary.
pub fn cmd_multiply(args: &Args) {
    let session = ObsSession::begin(args);
    let n = args.get("n", 256usize);
    let mut rng = rand::rngs::StdRng::seed_from_u64(args.get("seed", 1u64));
    let input = parse_input(args);
    let a = input.generate(n, &mut rng);
    let b = input.generate(n, &mut rng);
    let config = build_config(args);
    let device = Device::with_defaults();
    let start = std::time::Instant::now();
    let outcome = AAbftGemm::new(config).multiply(&device, &a, &b);
    let host_elapsed = start.elapsed();
    let log = device.take_log();
    let model = PerfModel::k20c();
    println!("protected multiply: n = {n}, inputs {}", input.label());
    println!("  errors detected : {}", outcome.errors_detected());
    println!("  located         : {:?}", outcome.report.located);
    println!("  corrections     : {}", outcome.corrections.len());
    println!("  recomputed      : {:?}", outcome.recomputed_blocks);
    println!("  simulator time  : {host_elapsed:.2?} (host wall clock)");
    println!(
        "  modelled K20c   : {:.3} ms -> {:.1} GFLOPS",
        1e3 * model.pipeline_time(&log),
        model.gflops(2 * (n as u64).pow(3), &log)
    );
    for (name, t) in model.breakdown(&log) {
        println!("    {name:<22} {:.3} ms", t * 1e3);
    }
    session.finish(&log);
}

/// `aabft batch` — N protected multiplications through the multi-stream
/// batch engine, reporting modelled throughput, the speedup over running
/// the same requests sequentially, and the bit-identity verdict.
pub fn cmd_batch(args: &Args) {
    use aabft_bench::batch::{measure_batch, BatchWorkload};
    let session = ObsSession::begin(args);
    let workload = BatchWorkload {
        count: args.get("count", 64usize),
        n: args.get("n", 128usize),
        streams: args.get("streams", aabft_core::BatchGemm::DEFAULT_STREAMS),
        num_sms: args.get("sms", 13usize),
        input: parse_input(args),
        seed: args.get("seed", 1u64),
    };
    let config = build_config(args);
    let report = measure_batch(&config, &workload);
    println!(
        "batch: {} protected multiplies, n = {}, BS = {}, {} streams, {} SMs",
        workload.count, workload.n, config.block_size, workload.streams, workload.num_sms
    );
    println!("  sequential (modelled) : {:.3} ms", 1e3 * report.sequential_s);
    println!("  batched    (modelled) : {:.3} ms", 1e3 * report.batched_s);
    println!("  speedup               : {:.2}x", report.speedup());
    println!(
        "  throughput            : {:.1} requests/s (modelled)",
        report.requests_per_second(workload.count)
    );
    println!("  errors detected       : {}", report.detections);
    println!(
        "  bit-identical         : {}",
        if report.bit_identical { "yes" } else { "NO — MISMATCH" }
    );
    session.finish(&[]);
}

/// `aabft inject` — one precisely targeted fault, end to end.
pub fn cmd_inject(args: &Args) {
    let session = ObsSession::begin(args);
    let n = args.get("n", 128usize);
    let mut rng = rand::rngs::StdRng::seed_from_u64(args.get("seed", 1u64));
    let a = InputClass::UNIT.generate(n, &mut rng);
    let b = InputClass::UNIT.generate(n, &mut rng);
    let config = build_config(args);
    let device = Device::with_defaults();
    let plan = InjectionPlan {
        sm: args.get("sm", 0usize),
        site: parse_site(args),
        module: args.get("module", 0usize),
        k_injection: args.get("k", 1000u64),
        mask: 1u64 << args.get("bit", 58u32),
    };
    println!("arming {plan:?}");
    device.arm_injection(plan);
    let outcome = AAbftGemm::new(config).multiply(&device, &a, &b);
    let fired = device.disarm_injection();
    println!("  fault fired     : {fired}");
    println!("  errors detected : {}", outcome.errors_detected());
    println!("  col mismatches  : {:?}", outcome.report.col_mismatches);
    println!("  row mismatches  : {:?}", outcome.report.row_mismatches);
    println!("  located         : {:?}", outcome.report.located);
    println!("  corrections     : {:?}", outcome.corrections);
    session.finish(&device.take_log());
}

/// `aabft campaign` — a detection campaign for one scheme. With
/// `--selfheal true` the campaign runs the verified self-healing executor
/// instead, arming faults in the scope selected by `--scope` (any pipeline
/// kernel or device memory at rest) and judging the post-recovery product.
pub fn cmd_campaign(args: &Args) {
    let session = ObsSession::begin(args);
    let n = args.get("n", 96usize);
    let bs = args.get("bs", 16usize);
    let tiling = GemmTiling { bm: 32, bn: 32, bk: 8, rx: 4, ry: 4 };
    let scope = parse_scope(args);
    let selfheal = args.get("selfheal", false);
    let config = CampaignConfig {
        n,
        input: parse_input(args),
        spec: FaultSpec {
            site: parse_site(args),
            region: parse_region(args),
            bits: args.get("bits", 1u32),
            fixed_bit: None,
        },
        trials: args.get("trials", 200usize),
        seed: args.get("seed", 7u64),
        omega: args.get("omega", 3.0),
        block_size: bs,
        tiling,
        faults_per_run: args.get("faults", 1usize),
        scope,
    };
    let aabft_config = || {
        AAbftConfig::builder()
            .block_size(bs)
            .tiling(tiling)
            .build()
            .unwrap_or_else(|e| panic!("invalid configuration: {e}"))
    };
    let scheme = args.get("scheme", "aabft".to_string());
    let snapshot_path = args.get("snapshot", String::new());
    let report = if selfheal {
        let heal = SelfHealingGemm::new(AAbftGemm::new(aabft_config()))
            .with_budget(args.get("budget", DEFAULT_HEAL_BUDGET));
        if snapshot_path.is_empty() {
            run_selfheal_campaign(&heal, &config)
        } else {
            // Snapshot the registry every chunk of trials; the chunked
            // runner keeps campaign.* counters exactly in step with its
            // DetectionStats, so the last snapshot equals the final
            // statistics field-for-field.
            let every = args.get("snapshot-every", config.trials.div_ceil(8).max(1));
            let mut snap = Snapshotter::create(session.obs.clone(), Path::new(&snapshot_path))
                .unwrap_or_else(|e| panic!("creating {snapshot_path:?}: {e}"));
            let report =
                run_selfheal_campaign_chunked(&heal, &config, &session.obs, every, |_, _| {
                    snap.tick().unwrap_or_else(|e| panic!("writing {snapshot_path:?}: {e}"));
                });
            println!("snapshots written to {snapshot_path} ({} epochs)", snap.epochs());
            report
        }
    } else {
        assert!(
            snapshot_path.is_empty(),
            "--snapshot needs --selfheal true (plain campaigns are single-batch)"
        );
        assert!(
            matches!(scope, InjectScope::GemmSites),
            "--scope {} needs --selfheal true (plain campaigns only inject GEMM sites)",
            scope.label()
        );
        match scheme.as_str() {
            "aabft" => run_campaign(&AAbftGemm::new(aabft_config()), &config),
            "sea" => run_campaign(&SeaAbft::new(bs).with_tiling(tiling), &config),
            "abft" => run_campaign(
                &FixedBoundAbft::new(args.get("epsilon", 1e-9), bs).with_tiling(tiling),
                &config,
            ),
            "tmr" => run_campaign(&TmrGemm::new().with_tiling(tiling), &config),
            other => panic!("unknown scheme {other:?} (aabft|sea|abft|tmr)"),
        }
    };
    let s = report.stats;
    println!(
        "campaign: {} on n = {n}, scope {}, {:?}",
        report.scheme,
        scope.label(),
        config.spec
    );
    println!("  trials          : {}", s.total());
    if s.critical > 0 {
        println!("  critical        : {} ({} detected = {:.1}%)", s.critical, s.critical_detected,
            100.0 * s.detection_rate());
    } else {
        println!("  critical        : 0");
    }
    println!("  tolerable       : {} ({} flagged)", s.tolerable, s.tolerable_detected);
    println!("  rounding-level  : {} ({} false positives)", s.benign, s.benign_detected);
    println!("  masked/checksum : {} ({} detected)", s.masked, s.masked_detected);
    let recovered = s.corrected + s.recomputed + s.reran;
    if selfheal || recovered + s.unrecovered + s.mis_corrected > 0 {
        println!("  corrected       : {}", s.corrected);
        println!("  recomputed      : {}", s.recomputed);
        println!("  re-ran          : {}", s.reran);
        println!("  unrecovered     : {} (explicit fail-safe, no product released)", s.unrecovered);
        println!("  mis-corrected   : {} (released product still critical = silent SDC)",
            s.mis_corrected);
    }
    let json_path = args.get("json", String::new());
    if !json_path.is_empty() {
        let o = JsonObject::new()
            .str("scheme", report.scheme)
            .int("n", n as u64)
            .int("trials", config.trials as u64)
            .int("seed", config.seed)
            .str("scope", scope.label())
            .object("stats", s.to_json());
        let mut text = o.render();
        text.push('\n');
        std::fs::write(&json_path, text).unwrap_or_else(|e| panic!("writing {json_path:?}: {e}"));
        println!("campaign stats written to {json_path}");
    }

    // Campaigns run one device per trial; the trace carries the tagged
    // trial spans rather than a single device timeline.
    session.finish(&[]);

    let mut violations = Vec::new();
    let min_detection = args.get("assert-min-detection", -1.0f64);
    if min_detection >= 0.0 && 100.0 * s.detection_rate() < min_detection {
        violations.push(format!(
            "critical-fault detection {:.1}% below required {min_detection}%",
            100.0 * s.detection_rate()
        ));
    }
    if args.get("assert-zero-sdc", false) && s.mis_corrected > 0 {
        violations.push(format!("{} trial(s) released a critically wrong product", s.mis_corrected));
    }
    if args.get("assert-zero-unrecovered", false) && s.unrecovered > 0 {
        violations.push(format!("{} trial(s) exhausted the recovery budget", s.unrecovered));
    }
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("ASSERTION FAILED: {v}");
        }
        std::process::exit(1);
    }
}

/// `aabft bounds` — one Tables-II–IV-style row.
pub fn cmd_bounds(args: &Args) {
    let session = ObsSession::begin(args);
    let n = args.get("n", 256usize);
    let config = QualityConfig {
        bs: args.get("bs", 32usize),
        p: args.get("p", 2usize),
        omega: args.get("omega", 3.0),
        samples: args.get("samples", 1024usize),
        seed: args.get("seed", 1u64),
    };
    let input = parse_input(args);
    let row = measure(n, input, &config);
    println!("bound quality: n = {n}, inputs {} ({} samples)", input.label(), row.samples);
    println!("  avg exact rounding error : {:.3e}", row.avg_rnd_error);
    println!("  avg checksum residual    : {:.3e}", row.avg_residual);
    println!("  avg A-ABFT bound         : {:.3e}  ({:.0}x the error)", row.avg_aabft,
        row.avg_aabft / row.avg_rnd_error);
    println!("  avg SEA-ABFT bound       : {:.3e}  ({:.0}x the error)", row.avg_sea,
        row.avg_sea / row.avg_rnd_error);
    session.finish(&[]);
}

/// `aabft perf` — Table-I-style modelled GFLOPS.
pub fn cmd_perf(args: &Args) {
    let session = ObsSession::begin(args);
    let sizes = args.sizes("sizes", &[512, 1024, 2048, 4096, 8192]);
    let bs = args.get("bs", 32usize);
    let p = args.get("p", 2usize);
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "n", "ABFT", "A-ABFT", "SEA-ABFT", "TMR", "unprotected"
    );
    for &n in &sizes {
        let r = modelled_row(n, bs, p, GemmTiling::default());
        println!(
            "{:>8} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>12.2}",
            r.n, r.abft, r.aabft, r.sea, r.tmr, r.unprotected
        );
    }
    session.finish(&[]);
}

/// `aabft profile` — runs one protected multiplication and prints the
/// per-phase modelled time / FLOP / traffic breakdown next to the ABFT
/// metrics the run produced. The phase times partition
/// [`PerfModel::pipeline_time`] exactly.
pub fn cmd_profile(args: &Args) {
    let session = ObsSession::begin(args);
    let n = args.get("n", 1024usize);
    let mut rng = rand::rngs::StdRng::seed_from_u64(args.get("seed", 1u64));
    let input = parse_input(args);
    let a = input.generate(n, &mut rng);
    let b = input.generate(n, &mut rng);
    let config = build_config(args);
    let device = Device::with_defaults();
    let outcome = AAbftGemm::new(config).multiply(&device, &a, &b);
    let log = device.take_log();
    let model = PerfModel::k20c();
    let total = model.pipeline_time(&log);

    println!("profile: protected multiply, n = {n}, inputs {}", input.label());
    println!(
        "{:>12} {:>9} {:>12} {:>8} {:>12} {:>12}",
        "phase", "launches", "time ms", "%", "GFLOP", "gmem MB"
    );
    for c in model.phase_breakdown(&log) {
        println!(
            "{:>12} {:>9} {:>12.4} {:>8.2} {:>12.4} {:>12.2}",
            c.phase,
            c.launches,
            1e3 * c.time,
            100.0 * c.time / total,
            c.flops as f64 / 1e9,
            c.gmem_bytes as f64 / 1e6
        );
    }
    println!(
        "{:>12} {:>9} {:>12.4} {:>8.2}   ({:.1} GFLOPS effective)",
        "total",
        log.len(),
        1e3 * total,
        100.0,
        model.gflops(2 * (n as u64).pow(3), &log)
    );
    println!("  errors detected : {}", outcome.errors_detected());
    println!();
    print!("{}", session.obs.metrics.snapshot().render_table());

    // Folded-stack export: one line per launch record, consumable by
    // flamegraph tooling; parsing it back and summing per phase/kernel
    // reproduces the table above exactly (same additions, same order).
    let folded = args.get("folded", String::new());
    if !folded.is_empty() {
        let text = aabft_gpu_sim::folded::folded_stacks(&log, &model, device.clean_engine());
        std::fs::write(&folded, &text).unwrap_or_else(|e| panic!("writing {folded:?}: {e}"));
        println!("folded stacks written to {folded} ({} lines)", text.lines().count());
    }
    let folded_sm = args.get("folded-sm", String::new());
    if !folded_sm.is_empty() {
        let text =
            aabft_gpu_sim::folded::folded_stacks_per_sm(&log, &model, device.clean_engine());
        std::fs::write(&folded_sm, &text).unwrap_or_else(|e| panic!("writing {folded_sm:?}: {e}"));
        println!("per-SM folded stacks written to {folded_sm} ({} lines)", text.lines().count());
    }
    session.finish(&log);
}

/// Parses `--replicas`: either a plain count (`3`, homogeneous default
/// replicas) or a comma-separated heterogeneous spec list
/// (`26:packed,6:scalar,6:scalar`).
fn parse_replicas(args: &Args, default: &str) -> Vec<aabft_serve::ReplicaSpec> {
    use aabft_serve::ReplicaSpec;
    let raw = args.get("replicas", default.to_string());
    if let Ok(count) = raw.trim().parse::<usize>() {
        return ReplicaSpec::defaults(count.max(1));
    }
    raw.split(',')
        .map(|s| s.trim().parse().unwrap_or_else(|e| panic!("--replicas: {e}")))
        .collect()
}

/// `aabft serve` — the ABFT-as-a-service load-and-chaos bench: drives
/// seeded open-loop traffic (optionally with a fault storm over the
/// middle third of each level) through a [`aabft_serve::Server`] per
/// offered rate, judges every released product against a host
/// reference, and writes one JSON record per level. `--assert-*` flags
/// turn service-level objectives into gates (non-zero exit on
/// violation); the exactly-one-outcome accounting is always enforced.
pub fn cmd_serve(args: &Args) {
    use aabft_serve::bench::{run_bench, BenchConfig, TenantMix};
    use aabft_serve::{LadderConfig, ServeConfig};
    use std::time::Duration;

    let session = ObsSession::begin(args);
    let rates: Vec<f64> = args
        .get("rates", "200,0".to_string())
        .split(',')
        .map(|s| s.trim().parse().unwrap_or_else(|e| panic!("--rates {s:?}: {e:?}")))
        .collect();
    let serve = ServeConfig {
        queue_capacity: args.get("queue-cap", 256usize),
        max_wave: args.get("wave", 8usize),
        interactive_deadline: Duration::from_millis(args.get("interactive-ms", 20u64)),
        batch_deadline: Duration::from_millis(args.get("batch-ms", 500u64)),
        max_retries: args.get("retries", 2u32),
        ladder: LadderConfig {
            quiet_ticks: args.get("quiet-ticks", 8u32),
            ..LadderConfig::default()
        },
        ..ServeConfig::default()
    };

    let cfg = BenchConfig {
        n: args.get("n", 32usize),
        replicas: parse_replicas(args, "2"),
        rates,
        requests: args.get("requests", 160usize),
        storm: args.get("storm", false),
        storm_every: args.get("storm-every", 3usize),
        cooldown: args.get("cooldown", 120usize),
        mix: args.get("mix", TenantMix::Verified),
        seed: args.get("seed", 7u64),
        serve,
        config: build_config(args),
    };
    let reports = run_bench(&cfg, &session.obs);

    let labels: Vec<String> = cfg.replicas.iter().map(aabft_serve::ReplicaSpec::label).collect();
    println!(
        "serve bench: n = {}, replicas [{}], {} tenant mix{}",
        cfg.n,
        labels.join(", "),
        args.get("mix", "verified".to_string()),
        if cfg.storm { ", seeded fault storm" } else { "" }
    );
    println!(
        "{:>8} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>5} {:>9} {:>9} {:>10} {:>7}",
        "rate", "sub", "shed", "done", "miss", "unrec", "retry", "sdc", "p50 ms", "p99 ms", "gemms/s", "ladder"
    );
    for r in &reports {
        println!(
            "{:>8} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>5} {:>9.3} {:>9.3} {:>10.1} {:>7}",
            if r.rate > 0.0 { format!("{:.0}/s", r.rate) } else { "blast".to_string() },
            r.submitted,
            r.shed,
            r.completed,
            r.deadline_missed,
            r.unrecovered,
            r.retries,
            r.sdc,
            r.p50_ms,
            r.p99_ms,
            r.gemms_per_sec,
            format!("{:?}", r.ladder_peak),
        );
    }
    for r in &reports {
        if r.strikes > 0 || r.escalations > 0 {
            println!(
                "  level {}: {} strikes, ewma peak {:.3}, esc {} / deesc {}, breaker trips {}, end {:?}",
                if r.rate > 0.0 { format!("{:.0}/s", r.rate) } else { "blast".to_string() },
                r.strikes,
                r.ewma_peak,
                r.escalations,
                r.deescalations,
                r.breaker_trips,
                r.ladder_end,
            );
        }
    }

    let json_path = args.get("json", String::new());
    if !json_path.is_empty() {
        let records: Vec<JsonObject> = reports.iter().map(|r| r.to_json()).collect();
        aabft_obs::json::write_array(Path::new(&json_path), &records);
        println!("level reports written to {json_path}");
    }
    session.finish(&[]);

    let mut violations = Vec::new();
    for r in &reports {
        // The core service invariant, gated unconditionally: every
        // accepted request resolved to exactly one terminal outcome.
        if r.accepted != r.completed + r.deadline_missed + r.unrecovered {
            violations.push(format!(
                "level {}: {} accepted but {} resolved",
                r.rate,
                r.accepted,
                r.completed + r.deadline_missed + r.unrecovered
            ));
        }
    }
    let sdc: u64 = reports.iter().map(|r| r.sdc).sum();
    if args.get("assert-zero-sdc", false) && sdc > 0 {
        violations.push(format!("{sdc} released product(s) were critically wrong (SDC)"));
    }
    if args.get("assert-shed", false) && reports.iter().all(|r| r.shed == 0) {
        violations.push("no level shed load (overload never engaged admission control)".into());
    }
    if args.get("assert-ladder", false)
        && !reports.iter().any(|r| r.escalations > 0 && r.deescalations > 0)
    {
        violations.push(format!(
            "no level both escalated and de-escalated (esc {:?}, deesc {:?})",
            reports.iter().map(|r| r.escalations).collect::<Vec<_>>(),
            reports.iter().map(|r| r.deescalations).collect::<Vec<_>>()
        ));
    }
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("ASSERTION FAILED: {v}");
        }
        std::process::exit(1);
    }
}

/// Counter value from one snapshot record (0 if absent).
fn snap_counter(snap: &JsonValue, name: &str) -> u64 {
    snap.get("counters").and_then(|c| c.get(name)).and_then(|v| v.as_u64()).unwrap_or(0)
}

/// Histogram statistic from one snapshot record.
fn snap_hist(snap: &JsonValue, name: &str, field: &str) -> Option<f64> {
    snap.get("histograms").and_then(|h| h.get(name)).and_then(|h| h.get(field)).and_then(|v| v.as_f64())
}

/// Gauge value from a metrics-registry JSON (written by `--metrics`).
fn metrics_gauge(metrics: &JsonValue, name: &str) -> Option<f64> {
    metrics.get("gauges").and_then(|g| g.get(name)).and_then(|v| v.as_f64())
}

/// Counter value from a metrics-registry JSON.
fn metrics_counter(metrics: &JsonValue, name: &str) -> u64 {
    metrics.get("counters").and_then(|c| c.get(name)).and_then(|v| v.as_u64()).unwrap_or(0)
}

/// Renders the serve dispatch section from a metrics-registry JSON:
/// queue and shard depths, and per-replica waves and busy time.
fn report_serve_metrics(path: &str) {
    use aabft_obs::json::JsonValue;
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path:?}: {e}"));
    let metrics = aabft_obs::json::parse(&text)
        .unwrap_or_else(|e| panic!("{path}: invalid metrics JSON: {e}"));

    println!("serve dispatch ({path})");
    println!(
        "  waves {}, queue depth {:.0}, {} shard class(es)",
        metrics_counter(&metrics, "serve.waves"),
        metrics_gauge(&metrics, "serve.queue_depth").unwrap_or(0.0),
        metrics_gauge(&metrics, "serve.shards").unwrap_or(0.0),
    );
    if let Some(JsonValue::Object(gauges)) = metrics.get("gauges") {
        let mut shards: Vec<(&str, f64)> = gauges
            .iter()
            .filter_map(|(k, v)| {
                let class = k.strip_prefix("serve.shard.")?.strip_suffix(".depth")?;
                Some((class, v.as_f64()?))
            })
            .collect();
        shards.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (class, depth) in shards {
            println!("    shard {class:>16}: depth {depth:.0}");
        }
    }
    for r in 0.. {
        let waves = metrics_counter(&metrics, &format!("serve.replica.{r}.waves"));
        let busy = metrics_gauge(&metrics, &format!("serve.replica.{r}.busy_us"));
        if waves == 0 && busy.is_none() {
            break;
        }
        println!(
            "  replica {r}: {waves} wave(s), busy {:.1} ms{}",
            busy.unwrap_or(0.0) / 1e3,
            if metrics_gauge(&metrics, &format!("serve.replica.{r}.quarantined"))
                == Some(1.0)
            {
                " [quarantined]"
            } else {
                ""
            },
        );
    }
}

/// Renders a `BENCH_serve.json` record array (from `aabft serve
/// --json`), optionally filtered to one record kind.
fn report_serve_bench(path: &str, kind_filter: &str) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path:?}: {e}"));
    let parsed = aabft_obs::json::parse(&text)
        .unwrap_or_else(|e| panic!("{path}: invalid bench JSON: {e}"));
    let JsonValue::Array(records) = parsed else {
        panic!("{path}: expected a JSON array of bench records");
    };
    let lines = serve_bench_lines(&records, kind_filter);
    println!(
        "serve bench records ({path}): {} of {} match{}",
        lines.len(),
        records.len(),
        if kind_filter.is_empty() {
            String::new()
        } else {
            format!(" kind {kind_filter:?}")
        }
    );
    for line in lines {
        println!("{line}");
    }
}

/// One report line per bench record matching `kind_filter` (empty = all).
/// Records carry a `kind` tag; `aabft serve` writes `"load"` records, one
/// per load level, and any other kind renders as unrecognized.
fn serve_bench_lines(records: &[JsonValue], kind_filter: &str) -> Vec<String> {
    let num = |r: &JsonValue, k: &str| r.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
    let int = |r: &JsonValue, k: &str| r.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
    records
        .iter()
        .map(|r| (r, r.get("kind").and_then(|v| v.as_str()).unwrap_or("unknown")))
        .filter(|(_, k)| kind_filter.is_empty() || *k == kind_filter)
        .map(|(r, kind)| match kind {
            "load" => format!(
                "  [load] rate {:>6} sub {} shed {} done {} sdc {} p99 {:.3} ms {:.1} gemms/s",
                if num(r, "rate") > 0.0 {
                    format!("{:.0}/s", num(r, "rate"))
                } else {
                    "blast".to_string()
                },
                int(r, "submitted"),
                int(r, "shed"),
                int(r, "completed"),
                int(r, "sdc"),
                num(r, "p99_ms"),
                num(r, "gemms_per_sec"),
            ),
            other => format!("  [{other}] unrecognized record shape"),
        })
        .collect()
}

/// `aabft report` — renders a run-health report from the snapshot JSONL
/// a self-heal campaign wrote with `--snapshot`: detection aggregates,
/// recovery-ladder usage, detector-headroom percentiles and the
/// per-epoch throughput trajectory. With `--campaign <path>` (the
/// `--json` output of the same run) the snapshot counters are
/// cross-checked against the campaign's own `DetectionStats`. `--assert-*`
/// flags turn report lines into gates: any violation exits non-zero.
/// `--serve-metrics <path>` (a metrics-registry JSON from `aabft
/// serve --metrics`) prepends the serve dispatch section.
pub fn cmd_report(args: &Args) {
    let snap_path = args.get("snapshots", String::new());
    let serve_metrics = args.get("serve-metrics", String::new());
    let serve_bench = args.get("serve-bench", String::new());
    if !serve_bench.is_empty() {
        report_serve_bench(&serve_bench, &args.get("kind", String::new()));
        if snap_path.is_empty() && serve_metrics.is_empty() {
            return;
        }
    }
    if !serve_metrics.is_empty() {
        report_serve_metrics(&serve_metrics);
        if snap_path.is_empty() {
            return;
        }
    }
    assert!(
        !snap_path.is_empty(),
        "aabft report needs --snapshots <path> (JSONL from `aabft campaign --snapshot`), \
         --serve-metrics <path> (JSON from `aabft serve --metrics`), and/or \
         --serve-bench <path> (JSON from `aabft serve --json`)"
    );
    let text = std::fs::read_to_string(&snap_path)
        .unwrap_or_else(|e| panic!("reading {snap_path:?}: {e}"));
    let snaps: Vec<JsonValue> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            aabft_obs::json::parse(l)
                .unwrap_or_else(|e| panic!("{snap_path}:{}: invalid snapshot: {e}", i + 1))
        })
        .collect();
    assert!(!snaps.is_empty(), "no snapshots in {snap_path}");
    let last = snaps.last().unwrap();
    let mut violations: Vec<String> = Vec::new();

    let first_t = snaps[0].get("t_us").and_then(|v| v.as_f64()).unwrap_or(0.0)
        - snaps[0].get("dt_us").and_then(|v| v.as_f64()).unwrap_or(0.0);
    let last_t = last.get("t_us").and_then(|v| v.as_f64()).unwrap_or(0.0);
    println!(
        "run-health report: {} epochs over {:.1} ms ({})",
        snaps.len(),
        (last_t - first_t) / 1e3,
        snap_path
    );

    // Detection: campaign ground truth next to the detector's own view.
    let trials = snap_counter(last, "campaign.trials");
    let critical = snap_counter(last, "campaign.critical");
    let detected = snap_counter(last, "campaign.critical_detected");
    println!("  detection");
    println!("    multiplies        : {}", snap_counter(last, "abft.multiplies"));
    println!("    detections        : {}", snap_counter(last, "abft.detections"));
    if critical > 0 {
        println!(
            "    campaign critical : {critical} of {trials} trials, {detected} detected ({:.1}%)",
            100.0 * detected as f64 / critical as f64
        );
    } else {
        println!("    campaign critical : 0 of {trials} trials");
    }
    if let Some(ewma) = last.get("gauges").and_then(|g| g.get("abft.fault_rate_ewma")).and_then(|v| v.as_f64()) {
        println!("    fault-rate EWMA   : {ewma:.3} (recent per-check flag probability)");
    }

    // Recovery ladder.
    println!("  recovery ladder");
    println!(
        "    corrected / recomputed / re-ran : {} / {} / {}",
        snap_counter(last, "campaign.corrected"),
        snap_counter(last, "campaign.recomputed"),
        snap_counter(last, "campaign.reran"),
    );
    println!(
        "    attempts {} escalations {} verified-ok {} unrecovered {}",
        snap_counter(last, "recovery.attempts"),
        snap_counter(last, "recovery.escalations"),
        snap_counter(last, "recovery.verified_ok"),
        snap_counter(last, "campaign.unrecovered"),
    );

    // Detector headroom (residual/ε on passing blocks).
    println!("  detector headroom (residual/\u{3b5}, passing blocks)");
    match (snap_hist(last, "check.headroom", "p50"), snap_hist(last, "check.headroom", "p99")) {
        (Some(p50), Some(p99)) => {
            println!(
                "    n {}  p50 {:.3e}  p99 {:.3e}  max {:.3e}",
                snap_hist(last, "check.headroom", "count").unwrap_or(0.0),
                p50,
                p99,
                snap_hist(last, "check.headroom", "max").unwrap_or(f64::NAN),
            );
        }
        _ => println!("    (no headroom samples)"),
    }
    if let Some(n) = snap_hist(last, "check.exceedance", "count") {
        println!(
            "    exceedance: {n} flagged block(s), worst {:.3e}x over tolerance",
            snap_hist(last, "check.exceedance", "max").unwrap_or(f64::NAN)
        );
    }
    if let (Some(p50), Some(p99)) = (
        snap_hist(last, "check.detection_latency_launches", "p50"),
        snap_hist(last, "check.detection_latency_launches", "p99"),
    ) {
        println!("    detection latency (launches): p50 {p50:.0}  p99 {p99:.0}");
    }

    // Throughput trajectory: simulated FLOPs retired per wall-clock epoch.
    println!("  throughput trajectory (simulated GFLOP per host second)");
    for snap in &snaps {
        let epoch = snap.get("epoch").and_then(|v| v.as_u64()).unwrap_or(0);
        let dflops = snap.get("deltas").and_then(|d| d.get("sim.flops")).and_then(|v| v.as_u64()).unwrap_or(0);
        let dt_us = snap.get("dt_us").and_then(|v| v.as_f64()).unwrap_or(0.0);
        if dt_us > 0.0 {
            println!(
                "    epoch {epoch:>3}: {:>8.2}  ({} trials done)",
                dflops as f64 / dt_us / 1e3,
                snap_counter(snap, "campaign.trials"),
            );
        }
    }

    // Cross-check against the campaign's own statistics.
    let campaign_path = args.get("campaign", String::new());
    if !campaign_path.is_empty() {
        let ctext = std::fs::read_to_string(&campaign_path)
            .unwrap_or_else(|e| panic!("reading {campaign_path:?}: {e}"));
        let cjson = aabft_obs::json::parse(&ctext)
            .unwrap_or_else(|e| panic!("{campaign_path}: invalid campaign JSON: {e}"));
        let stats = cjson.get("stats").expect("campaign JSON has a stats object");
        let stat = |name: &str| stats.get(name).and_then(|v| v.as_u64()).unwrap_or(0);
        let pairs = [
            ("campaign.trials", stat("total")),
            ("campaign.critical", stat("critical")),
            ("campaign.critical_detected", stat("critical_detected")),
            ("campaign.false_positives", stat("benign_detected")),
            ("campaign.corrected", stat("corrected")),
            ("campaign.recomputed", stat("recomputed")),
            ("campaign.reran", stat("reran")),
            ("campaign.unrecovered", stat("unrecovered")),
            ("campaign.mis_corrected", stat("mis_corrected")),
        ];
        let mut mismatches = 0;
        for (counter, expect) in pairs {
            let got = snap_counter(last, counter);
            if got != expect {
                mismatches += 1;
                violations.push(format!(
                    "snapshot {counter} = {got} but campaign stats say {expect}"
                ));
            }
        }
        if mismatches == 0 {
            println!("  consistency: snapshot aggregates match campaign DetectionStats exactly");
        } else {
            println!("  consistency: {mismatches} MISMATCH(ES) between snapshots and campaign stats");
        }
    }

    // Gates.
    let min_detection = args.get("assert-min-detection", -1.0f64);
    if min_detection >= 0.0 && critical > 0 {
        let rate = 100.0 * detected as f64 / critical as f64;
        if rate < min_detection {
            violations.push(format!(
                "critical-fault detection {rate:.1}% below required {min_detection}%"
            ));
        }
    }
    let headroom_ceiling = args.get("assert-headroom-p99", f64::NAN);
    if headroom_ceiling.is_finite() {
        match snap_hist(last, "check.headroom", "p99") {
            Some(p99) if p99 < headroom_ceiling => {}
            Some(p99) => violations.push(format!(
                "headroom p99 {p99:.3e} not below required {headroom_ceiling}"
            )),
            None => violations.push("no headroom samples to gate on".to_string()),
        }
    }
    if args.get("assert-zero-sdc", false) && snap_counter(last, "campaign.mis_corrected") > 0 {
        violations.push(format!(
            "{} trial(s) released a critically wrong product",
            snap_counter(last, "campaign.mis_corrected")
        ));
    }
    if args.get("assert-zero-unrecovered", false) && snap_counter(last, "campaign.unrecovered") > 0 {
        violations.push(format!(
            "{} trial(s) exhausted the recovery budget",
            snap_counter(last, "campaign.unrecovered")
        ));
    }
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("ASSERTION FAILED: {v}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(pairs: &[(&str, &str)]) -> Args {
        Args::from_args(pairs.iter().flat_map(|(k, v)| [format!("--{k}"), v.to_string()]))
    }

    #[test]
    fn input_parsing() {
        assert_eq!(parse_input(&args(&[("input", "unit")])), InputClass::UNIT);
        assert_eq!(parse_input(&args(&[("input", "hundred")])), InputClass::HUNDRED);
        assert_eq!(
            parse_input(&args(&[("input", "dynamic"), ("kappa", "8")])),
            InputClass::DynamicRange { alpha: 0.0, kappa: 8.0 }
        );
    }

    #[test]
    fn site_and_region_parsing() {
        assert_eq!(parse_site(&args(&[("site", "inner-mul")])), FaultSite::InnerMul);
        assert_eq!(parse_site(&args(&[])), FaultSite::InnerAdd);
        assert_eq!(parse_region(&args(&[("region", "sign")])), BitRegion::Sign);
    }

    #[test]
    fn config_building() {
        let c = build_config(&args(&[("bs", "16"), ("correct", "true")]));
        assert_eq!(c.block_size, 16);
        assert_eq!(c.recovery, RecoveryPolicy::CorrectSingle);
        let c = build_config(&args(&[("recompute", "true")]));
        assert_eq!(c.recovery, RecoveryPolicy::CorrectOrRecompute);
    }

    #[test]
    #[should_panic(expected = "unknown input class")]
    fn bad_input_panics() {
        parse_input(&args(&[("input", "bogus")]));
    }

    #[test]
    fn subcommands_run_end_to_end() {
        cmd_multiply(&args(&[("n", "48"), ("bs", "8"), ("correct", "true")]));
        cmd_batch(&args(&[("count", "6"), ("n", "16"), ("bs", "4"), ("streams", "3")]));
        cmd_inject(&args(&[("n", "48"), ("bs", "8"), ("k", "5"), ("site", "final-add")]));
        cmd_bounds(&args(&[("n", "64"), ("bs", "8"), ("samples", "64")]));
        cmd_perf(&args(&[("sizes", "512")]));
        cmd_campaign(&args(&[("n", "32"), ("bs", "8"), ("trials", "10"), ("scheme", "aabft")]));
        cmd_campaign(&args(&[
            ("n", "32"),
            ("bs", "8"),
            ("trials", "5"),
            ("selfheal", "true"),
            ("scope", "check"),
            ("region", "exponent"),
            ("assert-zero-sdc", "true"),
            ("assert-zero-unrecovered", "true"),
        ]));
        cmd_profile(&args(&[("n", "48"), ("bs", "8")]));
    }

    #[test]
    fn campaign_snapshots_feed_the_report_gates() {
        let dir = std::env::temp_dir();
        let snaps = dir.join("aabft_cli_test_snapshots.jsonl");
        let stats = dir.join("aabft_cli_test_campaign.json");
        cmd_campaign(&args(&[
            ("n", "32"),
            ("bs", "8"),
            ("trials", "12"),
            ("seed", "11"),
            ("selfheal", "true"),
            ("scope", "check"),
            ("region", "exponent"),
            ("snapshot", snaps.to_str().unwrap()),
            ("snapshot-every", "4"),
            ("json", stats.to_str().unwrap()),
        ]));

        // 12 trials in chunks of 4 → 3 snapshot epochs, valid JSONL.
        let text = std::fs::read_to_string(&snaps).unwrap();
        assert_eq!(text.lines().count(), 3);
        let last = aabft_obs::json::parse(text.lines().last().unwrap()).unwrap();
        assert_eq!(
            last.get("counters")
                .and_then(|c| c.get("campaign.trials"))
                .and_then(|v| v.as_u64()),
            Some(12)
        );

        // Campaign JSON carries the same stats object the report checks.
        let c = aabft_obs::json::parse(&std::fs::read_to_string(&stats).unwrap()).unwrap();
        assert_eq!(c.get("stats").and_then(|s| s.get("total")).and_then(|v| v.as_u64()), Some(12));

        // The report over both artifacts passes its gates (a violation
        // would exit(1) and abort the test binary).
        cmd_report(&args(&[
            ("snapshots", snaps.to_str().unwrap()),
            ("campaign", stats.to_str().unwrap()),
            ("assert-min-detection", "90"),
            ("assert-headroom-p99", "1.0"),
            ("assert-zero-sdc", "true"),
            ("assert-zero-unrecovered", "true"),
        ]));
        std::fs::remove_file(&snaps).ok();
        std::fs::remove_file(&stats).ok();
    }

    #[test]
    fn profile_folded_export_round_trips() {
        let dir = std::env::temp_dir();
        let folded = dir.join("aabft_cli_test_profile.folded");
        cmd_profile(&args(&[("n", "48"), ("bs", "8"), ("folded", folded.to_str().unwrap())]));
        let text = std::fs::read_to_string(&folded).unwrap();
        let lines = aabft_gpu_sim::folded::parse_folded(&text).expect("parsable folded stacks");
        assert!(!lines.is_empty());
        for l in &lines {
            assert_eq!(l.frames[0], "aabft");
            assert_eq!(l.frames.len(), 5);
            assert!(l.value > 0.0);
        }
        std::fs::remove_file(&folded).ok();
    }

    #[test]
    fn serve_bench_report_renders_load_records() {
        let fresh = std::env::temp_dir().join("aabft_cli_test_serve_bench.json");
        cmd_serve(&args(&[
            ("replicas", "13:packed,4:scalar"),
            ("n", "16"),
            ("bs", "8"),
            ("rates", "0"),
            ("requests", "8"),
            ("assert-zero-sdc", "true"),
            ("json", fresh.to_str().unwrap()),
        ]));
        let parse_array = |text: &str| match aabft_obs::json::parse(text).unwrap() {
            JsonValue::Array(records) => records,
            other => panic!("expected a record array, got {other:?}"),
        };
        let fresh_records = parse_array(&std::fs::read_to_string(&fresh).unwrap());
        std::fs::remove_file(&fresh).ok();
        assert_eq!(fresh_records.len(), 1, "one record per load level");

        let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
        let mut records = parse_array(&std::fs::read_to_string(committed).unwrap());
        let committed_len = records.len();
        records.extend(fresh_records);

        let lines = serve_bench_lines(&records, "");
        assert_eq!(lines.len(), committed_len + 1, "every record renders");
        assert!(lines.iter().all(|l| l.starts_with("  [load]")), "{lines:#?}");
        assert!(lines.last().unwrap().contains("rate  blast sub 8"), "{lines:#?}");
        assert_eq!(serve_bench_lines(&records, "load"), lines);
        assert!(serve_bench_lines(&records, "policy-matrix").is_empty());
    }

    #[test]
    fn trace_and_metrics_exports_are_valid_json() {
        let dir = std::env::temp_dir();
        let trace = dir.join("aabft_cli_test_trace.json");
        let metrics = dir.join("aabft_cli_test_metrics.json");
        cmd_profile(&args(&[
            ("n", "48"),
            ("bs", "8"),
            ("trace", trace.to_str().unwrap()),
            ("metrics", metrics.to_str().unwrap()),
        ]));
        let t = aabft_obs::json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let events = t.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents");
        assert!(!events.is_empty());
        let m = aabft_obs::json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        let counters = m.get("counters").expect("counters object");
        assert!(counters.get("abft.multiplies").and_then(|v| v.as_u64()).unwrap() >= 1);
        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(&metrics).ok();
    }
}
