//! Host-time probes of the `sparse` crate, run in the traced run on each
//! request's own input batch and oracle output: codec encode/decode, the
//! LZV compressor both ways, and the SpGEMM accumulate over every layer.
//! Each call is a span; throughput is bytes over summed span time.

use crate::metrics::Report;
use crate::spans::Tracer;
use fsd_model::SparseDnn;
use fsd_sparse::{codec, compress, ColMajorBlock, LayerAccumulator, SparseRows};

/// Every layer of a model as one column-major block owning all rows.
pub struct FullLayers {
    blocks: Vec<ColMajorBlock>,
    all_rows: Vec<u32>,
    bias: f32,
    clip: f32,
}

impl FullLayers {
    pub fn new(dnn: &SparseDnn) -> FullLayers {
        let all_rows: Vec<u32> = (0..dnn.spec().neurons as u32).collect();
        FullLayers {
            blocks: dnn
                .layers()
                .iter()
                .map(|w| ColMajorBlock::from_layer(w, &all_rows))
                .collect(),
            all_rows,
            bias: dnn.spec().bias,
            clip: dnn.spec().clip,
        }
    }
}

/// Byte and query totals the spans are divided by.
#[derive(Default)]
pub struct Probes {
    encoded_bytes: u64,
    compressed_bytes: u64,
    queries: u64,
}

impl Probes {
    /// Probes one request: both blocks through the codec and compressor,
    /// then the input through every layer's accumulate (the non-linearity
    /// between layers is untimed). The chain must reproduce `expected`.
    pub fn probe(
        &mut self,
        tracer: &mut Tracer,
        id: u64,
        layers: &FullLayers,
        input: &SparseRows,
        expected: &SparseRows,
    ) -> Result<(), String> {
        for block in [input, expected] {
            let encoded = tracer.span("sparse.encode", id, |_| codec::encode(block));
            let packed = tracer.span("sparse.compress", id, |_| compress::compress(&encoded));
            let unpacked = tracer
                .span("sparse.decompress", id, |_| compress::decompress(&packed))
                .map_err(|e| format!("decompress: {e}"))?;
            let decoded = tracer
                .span("sparse.decode", id, |_| codec::decode(&encoded))
                .map_err(|e| format!("decode: {e}"))?;
            if unpacked != encoded || &decoded != block {
                return Err(format!("request {id}: codec/compressor round trip differs"));
            }
            self.encoded_bytes += encoded.len() as u64;
            self.compressed_bytes += packed.len() as u64;
        }
        let mut x = input.clone();
        let mut acc = LayerAccumulator::new(layers.all_rows.len(), x.width());
        for block in &layers.blocks {
            acc.reset(layers.all_rows.len());
            tracer.span("sparse.accumulate", id, |_| acc.accumulate(block, &x));
            x = acc.finalize(&layers.all_rows, layers.bias, layers.clip).0;
        }
        if &x != expected {
            return Err(format!(
                "request {id}: layer-by-layer accumulate differs from the oracle"
            ));
        }
        self.queries += 1;
        Ok(())
    }

    /// Sets the `sparse.*` metrics from the recorded spans.
    pub fn report(&self, tracer: &Tracer, report: &mut Report) {
        let n = self.queries as usize;
        let mib = self.encoded_bytes as f64 / (1024.0 * 1024.0);
        let packed_mib = self.compressed_bytes as f64 / (1024.0 * 1024.0);
        let rate = |mib: f64, name: &str| mib / (tracer.total_us(name) / 1e6).max(1e-9);
        report.set("sparse.encode_mib_s", rate(mib, "sparse.encode"), n);
        report.set("sparse.compress_mib_s", rate(mib, "sparse.compress"), n);
        report.set("sparse.decompress_mib_s", rate(mib, "sparse.decompress"), n);
        report.set("sparse.decode_mib_s", rate(mib, "sparse.decode"), n);
        report.set(
            "sparse.accumulate_ms_per_query",
            tracer.total_us("sparse.accumulate") / 1e3 / n.max(1) as f64,
            n,
        );
        report.set(
            "sparse.compress_ratio",
            mib / packed_mib.max(f64::MIN_POSITIVE),
            n,
        );
    }
}
