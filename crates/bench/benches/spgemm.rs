//! Microbench: the distributed MVP/MMP kernel (Gustavson-style scatter).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fsd_model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
use fsd_sparse::{ColMajorBlock, LayerAccumulator};

fn bench_spgemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("spgemm_accumulate");
    for &n in &[512usize, 2048] {
        let spec = DnnSpec {
            neurons: n,
            layers: 1,
            nnz_per_row: 8,
            bias: -0.3,
            clip: 32.0,
            seed: 1,
        };
        let dnn = generate_dnn(&spec);
        let inputs = generate_inputs(n, &InputSpec::scaled(64, 1));
        let all: Vec<u32> = (0..n as u32).collect();
        let block = ColMajorBlock::from_layer(dnn.layer(0), &all);
        g.throughput(Throughput::Elements(block.matched_work(&inputs)));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let mut acc = LayerAccumulator::new(n, 64);
            b.iter(|| {
                acc.reset(n);
                acc.accumulate(&block, &inputs)
            });
        });
    }
    g.finish();
}

/// `finalize` (bias, ReLU, clip and the sparse emit) on one accumulated
/// layer: a bulk-queue rank's share (512 of 4096 rows, width 128) and a
/// whole 2048-row layer at width 64.
fn bench_finalize(c: &mut Criterion) {
    let mut g = c.benchmark_group("finalize");
    for &(n, rows, width) in &[(4096usize, 512usize, 128usize), (2048, 2048, 64)] {
        let spec = DnnSpec {
            neurons: n,
            layers: 1,
            nnz_per_row: 8,
            bias: -0.3,
            clip: 32.0,
            seed: 1,
        };
        let dnn = generate_dnn(&spec);
        let inputs = generate_inputs(n, &InputSpec::scaled(width, 1));
        let owned: Vec<u32> = (0..rows as u32).collect();
        let block = ColMajorBlock::from_layer(dnn.layer(0), &owned);
        let mut acc = LayerAccumulator::new(rows, width);
        acc.accumulate(&block, &inputs);
        g.throughput(Throughput::Elements((rows * width) as u64));
        g.bench_with_input(
            BenchmarkId::new(format!("{rows}x{width}"), n),
            &n,
            |b, _| b.iter(|| acc.finalize(&owned, -0.3, 32.0)),
        );
    }
    g.finish();
}

/// `ColMajorBlock::from_layer`, the per-layer transpose every weight load
/// runs: a rank's strided share (512 of 4096 rows, as a partitioner
/// interleaves them) and a whole 1024-row layer (a cold-object rank's
/// `N = 1024` model at `P = 1`).
fn bench_from_layer(c: &mut Criterion) {
    let mut g = c.benchmark_group("from_layer");
    for &(n, rows) in &[(4096usize, 512usize), (1024, 1024)] {
        let spec = DnnSpec {
            neurons: n,
            layers: 1,
            nnz_per_row: 32,
            bias: -0.3,
            clip: 32.0,
            seed: 1,
        };
        let dnn = generate_dnn(&spec);
        let stride = n / rows;
        let owned: Vec<u32> = (0..rows as u32).map(|r| r * stride as u32).collect();
        let nnz: usize = owned
            .iter()
            .map(|&r| dnn.layer(0).row(r as usize).0.len())
            .sum();
        g.throughput(Throughput::Elements(nnz as u64));
        g.bench_with_input(BenchmarkId::new(format!("{rows}_rows"), n), &n, |b, _| {
            b.iter(|| ColMajorBlock::from_layer(dnn.layer(0), &owned))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_spgemm, bench_finalize, bench_from_layer);
criterion_main!(benches);
