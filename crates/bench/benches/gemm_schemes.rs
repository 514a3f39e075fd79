//! Wall-clock Criterion benchmark of all protection schemes on the
//! functional simulator (Table I's real-time counterpart at CPU-feasible
//! sizes — the shape across schemes mirrors the modelled table).

use aabft_baselines::{FixedBoundAbft, ProtectedGemm, SeaAbft, TmrGemm, UnprotectedGemm};
use aabft_core::{AAbftConfig, AAbftGemm};
use aabft_gpu_sim::device::Device;
use aabft_gpu_sim::kernels::gemm::GemmTiling;
use aabft_matrix::gen::InputClass;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::SeedableRng;

fn bench_schemes(c: &mut Criterion) {
    let tiling = GemmTiling { bm: 32, bn: 32, bk: 8, rx: 4, ry: 4 };
    let bs = 16;
    let mut group = c.benchmark_group("gemm_schemes");
    group.sample_size(10);
    for n in [64usize, 128] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a = InputClass::UNIT.generate(n, &mut rng);
        let b = InputClass::UNIT.generate(n, &mut rng);
        group.throughput(Throughput::Elements(2 * (n as u64).pow(3)));

        let schemes: Vec<(&str, Box<dyn ProtectedGemm>)> = vec![
            ("unprotected", Box::new(UnprotectedGemm::new().with_tiling(tiling))),
            ("abft_fixed", Box::new(FixedBoundAbft::new(1e-9, bs).with_tiling(tiling))),
            (
                "aabft",
                Box::new(AAbftGemm::new(
                    AAbftConfig::builder().block_size(bs).tiling(tiling).build().expect("valid config"),
                )),
            ),
            ("sea_abft", Box::new(SeaAbft::new(bs).with_tiling(tiling))),
            ("tmr", Box::new(TmrGemm::new().with_tiling(tiling))),
        ];
        for (name, scheme) in &schemes {
            group.bench_with_input(BenchmarkId::new(*name, n), &n, |bench, _| {
                bench.iter(|| {
                    let device = Device::with_defaults();
                    scheme.multiply(&device, &a, &b)
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_schemes);
criterion_main!(benches);
