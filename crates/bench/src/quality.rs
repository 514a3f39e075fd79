//! Bound-quality experiments (paper Tables II–IV).
//!
//! For random checksum elements of an encoded multiplication, compare three
//! quantities: the *exact* rounding error of the checksum element (against
//! the superaccumulator oracle — the paper used GMP), the A-ABFT bound
//! (closed form of Eq. 46 with the autonomous `y`), and the SEA-ABFT bound
//! (norm formula). The paper reports their averages per matrix size.

use aabft_core::bounds::checksum_epsilon;
use aabft_core::encoding::{encode_columns, encode_rows};
use aabft_core::pmax::{upper_bound_y, PMaxTable};
use aabft_baselines::SeaAbft;
use aabft_matrix::gen::InputClass;
use aabft_numerics::exact::rounding_error_of;
use aabft_numerics::RoundingModel;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One row of a Table II–IV style comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityRow {
    /// Matrix dimension.
    pub n: usize,
    /// Average exact rounding error of the checksum elements (|fl − exact|).
    pub avg_rnd_error: f64,
    /// Average realized checksum residual |c* − c| (the quantity the check
    /// actually compares; not printed by the paper but useful context).
    pub avg_residual: f64,
    /// Average A-ABFT bound (`ω`-scaled).
    pub avg_aabft: f64,
    /// Average SEA-ABFT bound.
    pub avg_sea: f64,
    /// Number of checksum elements sampled.
    pub samples: usize,
}

/// Parameters of a bound-quality measurement.
#[derive(Debug, Clone, Copy)]
pub struct QualityConfig {
    /// Partitioned-encoding block size.
    pub bs: usize,
    /// Tracked maxima per line (the paper uses `p = 2`).
    pub p: usize,
    /// Confidence scaling (the paper reports `3σ`).
    pub omega: f64,
    /// Checksum elements sampled per size (0 = all).
    pub samples: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QualityConfig {
    fn default() -> Self {
        QualityConfig { bs: 32, p: 2, omega: 3.0, samples: 1024, seed: 1 }
    }
}

/// One sampled checksum element's quantities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundSample {
    /// Exact rounding error of the checksum element (|fl − exact|).
    pub exact_error: f64,
    /// Realized comparison residual |c* − c|.
    pub residual: f64,
    /// The autonomous upper bound `y` for this element.
    pub y: f64,
    /// A-ABFT bound at the configured `ω`.
    pub aabft_bound: f64,
    /// SEA-ABFT bound.
    pub sea_bound: f64,
}

/// Measures bound quality for one `n × n` multiplication with inputs drawn
/// from `input`.
///
/// # Panics
///
/// Panics if `n` is not a multiple of `config.bs`.
pub fn measure(n: usize, input: InputClass, config: &QualityConfig) -> QualityRow {
    let samples = collect_samples(n, input, config);
    let count = samples.len() as f64;
    QualityRow {
        n,
        avg_rnd_error: samples.iter().map(|s| s.exact_error).sum::<f64>() / count,
        avg_residual: samples.iter().map(|s| s.residual).sum::<f64>() / count,
        avg_aabft: samples.iter().map(|s| s.aabft_bound).sum::<f64>() / count,
        avg_sea: samples.iter().map(|s| s.sea_bound).sum::<f64>() / count,
        samples: samples.len(),
    }
}

/// Collects the per-element records behind [`measure`] (used by the
/// ablation studies).
///
/// # Panics
///
/// Panics if `n` is not a multiple of `config.bs`.
pub fn collect_samples(n: usize, input: InputClass, config: &QualityConfig) -> Vec<BoundSample> {
    assert_eq!(n % config.bs, 0, "n = {n} must be a multiple of bs = {}", config.bs);
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let a = input.generate(n, &mut rng);
    let b = input.generate(n, &mut rng);

    let acc = encode_columns(&a, config.bs, 1, 1);
    let brc = encode_rows(&b, config.bs, 1, 1);
    let pmax_a = PMaxTable::of_rows(&acc.matrix, config.p);
    let pmax_b = PMaxTable::of_cols(&brc.matrix, config.p);
    let model = RoundingModel::binary64();
    let bt = brc.matrix.transpose();

    // Candidate checksum elements: (column-checksum, data column) and
    // (data row, row-checksum), identified by direction.
    #[derive(Clone, Copy)]
    enum Cand {
        Col { block: usize, j: usize },
        Row { i: usize, block: usize },
    }
    let mut cands = Vec::with_capacity(acc.rows.blocks * n + n * brc.cols.blocks);
    for block in 0..acc.rows.blocks {
        for j in 0..n {
            cands.push(Cand::Col { block, j });
        }
    }
    for i in 0..n {
        for block in 0..brc.cols.blocks {
            cands.push(Cand::Row { i, block });
        }
    }
    if config.samples > 0 && config.samples < cands.len() {
        cands.shuffle(&mut rng);
        cands.truncate(config.samples);
    }

    let mut out = Vec::with_capacity(cands.len());
    for &cand in &cands {
        let (cs_vec, other_vec, cs_line_a, cs_line_b, block, is_col) = match cand {
            Cand::Col { block, j } => {
                let cs = acc.matrix.row(acc.rows.checksum_line(block)).to_vec();
                let col = bt.row(j).to_vec();
                (cs, col, Some(acc.rows.checksum_line(block)), None, block, true)
            }
            Cand::Row { i, block } => {
                let row = acc.matrix.row(i).to_vec();
                let cs = bt.row(brc.cols.checksum_line(block)).to_vec();
                (row, cs, Some(i), Some(brc.cols.checksum_line(block)), block, false)
            }
        };

        // The checksum element as the GPU computes it (sequential dot).
        let checksum_fl: f64 = cs_vec.iter().zip(&other_vec).map(|(x, y)| x * y).sum();
        // Exact rounding error via the superaccumulator oracle.
        let exact_error = rounding_error_of(checksum_fl, &cs_vec, &other_vec).abs();

        // Realized residual: recomputed reference (sum of the block's
        // computed elements) minus the checksum element.
        let residual: f64 = if is_col {
            (block * config.bs..(block + 1) * config.bs)
                .map(|i| {
                    let row = acc.matrix.row(i);
                    row.iter().zip(&other_vec).map(|(x, y)| x * y).sum::<f64>()
                })
                .sum::<f64>()
                - checksum_fl
        } else {
            (block * config.bs..(block + 1) * config.bs)
                .map(|jj| {
                    let col = bt.row(jj);
                    cs_vec.iter().zip(col).map(|(x, y)| x * y).sum::<f64>()
                })
                .sum::<f64>()
                - checksum_fl
        };
        let residual = residual.abs();

        // A-ABFT bound.
        let (line_a, line_b) = match cand {
            Cand::Col { j, .. } => (cs_line_a.expect("col cand has a-line"), j),
            Cand::Row { .. } => (cs_line_a.expect("row cand has a-line"), cs_line_b.expect("row cand has b-line")),
        };
        let y = upper_bound_y(
            pmax_a.values(line_a),
            pmax_a.indices(line_a),
            pmax_b.values(line_b),
            pmax_b.indices(line_b),
        );
        let aabft_bound = checksum_epsilon(n, y, config.omega, &model);

        // SEA bound on the same element.
        let sea = if is_col {
            let rows: Vec<&[f64]> = (block * config.bs..(block + 1) * config.bs)
                .map(|i| acc.matrix.row(i))
                .collect();
            SeaAbft::column_bound(&rows, &cs_vec, &other_vec)
        } else {
            let cols: Vec<&[f64]> = (block * config.bs..(block + 1) * config.bs)
                .map(|jj| bt.row(jj))
                .collect();
            SeaAbft::column_bound(&cols, &other_vec, &cs_vec)
        };
        out.push(BoundSample { exact_error, residual, y, aabft_bound, sea_bound: sea });
    }
    out
}

/// Shared console driver for the `table2`/`table3`/`table4` binaries.
pub fn print_quality_table(args: &crate::args::Args, input: InputClass, title: &str) {
    let sizes = args.sizes("sizes", &[128, 256, 512, 1024]);
    let config = QualityConfig {
        bs: args.get("bs", 32usize),
        p: args.get("p", 2usize),
        omega: args.get("omega", 3.0f64),
        samples: args.get("samples", 1024usize),
        seed: args.get("seed", 1u64),
    };
    println!("{title}");
    println!(
        "parameters: BS = {}, p = {}, omega = {}, samples/size = {}",
        config.bs, config.p, config.omega, config.samples
    );
    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>14}",
        "n", "avg rnd err", "avg residual", "avg A-ABFT", "avg SEA-ABFT"
    );
    let mut json_rows = Vec::new();
    for &n in &sizes {
        let row = measure(n, input, &config);
        println!(
            "{:>8} {:>14.3e} {:>14.3e} {:>14.3e} {:>14.3e}",
            row.n, row.avg_rnd_error, row.avg_residual, row.avg_aabft, row.avg_sea
        );
        json_rows.push(
            aabft_obs::json::JsonObject::new()
                .str("input", &input.label())
                .int("n", row.n as u64)
                .int("samples", row.samples as u64)
                .num("avg_rnd_error", row.avg_rnd_error)
                .num("avg_residual", row.avg_residual)
                .num("avg_aabft", row.avg_aabft)
                .num("avg_sea", row.avg_sea),
        );
    }
    let json = args.get("json", String::new());
    if !json.is_empty() {
        aabft_obs::json::write_array(std::path::Path::new(&json), &json_rows);
        println!("(wrote {json})");
    }
    println!();
    println!("expected shape (paper): A-ABFT bounds ~2 orders of magnitude tighter than");
    println!("SEA-ABFT, both well above the exact rounding error; all grow with n.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_paper() {
        // The paper's headline ordering per row: actual error << A-ABFT
        // bound << SEA bound.
        let config = QualityConfig { bs: 8, p: 2, omega: 3.0, samples: 200, seed: 3 };
        let row = measure(64, InputClass::UNIT, &config);
        assert!(row.avg_rnd_error > 0.0);
        assert!(
            row.avg_rnd_error < row.avg_aabft,
            "bound must cover error: {row:?}"
        );
        assert!(row.avg_aabft < row.avg_sea, "A-ABFT must be tighter than SEA: {row:?}");
        // Roughly two orders of magnitude, as in Tables II-IV.
        assert!(row.avg_sea / row.avg_aabft > 10.0, "{row:?}");
    }

    #[test]
    fn errors_grow_with_n() {
        let config = QualityConfig { bs: 8, p: 2, omega: 3.0, samples: 150, seed: 4 };
        let r1 = measure(32, InputClass::UNIT, &config);
        let r2 = measure(128, InputClass::UNIT, &config);
        assert!(r2.avg_rnd_error > r1.avg_rnd_error);
        assert!(r2.avg_aabft > r1.avg_aabft);
        assert!(r2.avg_sea > r1.avg_sea);
    }

    #[test]
    fn value_range_scales_magnitudes() {
        let config = QualityConfig { bs: 8, p: 2, omega: 3.0, samples: 150, seed: 5 };
        let unit = measure(64, InputClass::UNIT, &config);
        let hundred = measure(64, InputClass::HUNDRED, &config);
        // [-100,100] inputs scale errors and bounds by ~1e4 (products).
        assert!(hundred.avg_rnd_error > 1e3 * unit.avg_rnd_error);
        assert!(hundred.avg_aabft > 1e3 * unit.avg_aabft);
    }
}
