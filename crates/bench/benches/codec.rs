//! Microbench: wire codec, the LZ-style compressor and the receive merge,
//! both on one large block and at the sizes the engine actually ships.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fsd_model::{generate_inputs, InputSpec};
use fsd_sparse::{codec, compress, SparseRows};

fn bench_codec(c: &mut Criterion) {
    let block = generate_inputs(4096, &InputSpec::scaled(256, 7));
    let encoded = codec::encode(&block);
    let mut g = c.benchmark_group("codec");
    g.throughput(Throughput::Bytes(encoded.len() as u64));
    g.bench_function("encode", |b| b.iter(|| codec::encode(&block)));
    g.bench_function("decode", |b| {
        b.iter(|| codec::decode(&encoded).expect("ok"))
    });
    g.finish();
}

fn bench_compress(c: &mut Criterion) {
    let block = generate_inputs(4096, &InputSpec::scaled(256, 7));
    let encoded = codec::encode(&block);
    let compressed = compress::compress(&encoded);
    let mut g = c.benchmark_group("compress");
    g.throughput(Throughput::Bytes(encoded.len() as u64));
    g.bench_function("compress", |b| b.iter(|| compress::compress(&encoded)));
    g.bench_function("decompress", |b| {
        b.iter(|| compress::decompress(&compressed).expect("ok"))
    });
    g.finish();
    println!(
        "payload {} B -> {} B ({:.2}x)",
        encoded.len(),
        compressed.len(),
        encoded.len() as f64 / compressed.len() as f64
    );
}

/// The same block cut with `split_by_nnz` into chunks of about 1 KiB
/// encoded — the median `compress` input of the bulk-queue workload — so
/// per-call costs (table set-up, allocation) weigh as they do in the engine.
fn bench_wire_sized(c: &mut Criterion) {
    let block = generate_inputs(4096, &InputSpec::scaled(256, 7));
    let max_nnz = (1024 * block.nnz() / codec::encoded_size(&block)).max(1);
    let chunks = block.split_by_nnz(max_nnz);
    let encoded: Vec<Vec<u8>> = chunks.iter().map(codec::encode).collect();
    let compressed: Vec<Vec<u8>> = encoded.iter().map(|e| compress::compress(e)).collect();
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let mut g = c.benchmark_group("wire_1kib");
    g.throughput(Throughput::Bytes(bytes as u64));
    g.bench_function("encode", |b| {
        b.iter(|| chunks.iter().map(codec::encode).collect::<Vec<_>>())
    });
    g.bench_function("compress", |b| {
        b.iter(|| {
            encoded
                .iter()
                .map(|e| compress::compress(e))
                .collect::<Vec<_>>()
        })
    });
    g.bench_function("decompress", |b| {
        b.iter(|| {
            compressed
                .iter()
                .map(|c| compress::decompress(c).expect("ok"))
                .collect::<Vec<_>>()
        })
    });
    g.bench_function("decode", |b| {
        b.iter(|| {
            encoded
                .iter()
                .map(|e| codec::decode(e).expect("ok"))
                .collect::<Vec<_>>()
        })
    });
    g.finish();
    println!(
        "{} chunks of {} B mean encoded",
        chunks.len(),
        bytes / chunks.len().max(1)
    );
}

/// One layer's receive merge on a rank of an 8-way partition: its own rows
/// plus every other rank's rows, shipped in ~1 KiB chunks and interleaved
/// by id, joined in one k-way merge.
fn bench_receive_merge(c: &mut Criterion) {
    let block = generate_inputs(4096, &InputSpec::scaled(128, 7));
    let share = |r: u32| -> Vec<u32> {
        block
            .ids()
            .iter()
            .copied()
            .filter(|id| id % 8 == r)
            .collect()
    };
    let own = block.extract(&share(0));
    let received: Vec<SparseRows> = (1..8)
        .flat_map(|r| block.extract(&share(r)).split_by_nnz(200))
        .collect();
    let mut g = c.benchmark_group("receive_merge");
    g.throughput(Throughput::Elements(block.n_rows() as u64));
    g.bench_function(
        format!("k_way_{}_blocks", received.len() + 1).as_str(),
        |b| b.iter(|| SparseRows::merge_all(block.width(), std::iter::once(&own).chain(&received))),
    );
    g.finish();
}

criterion_group!(
    benches,
    bench_codec,
    bench_compress,
    bench_wire_sized,
    bench_receive_merge
);
criterion_main!(benches);
