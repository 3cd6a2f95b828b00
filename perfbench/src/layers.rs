//! The per-layer metric families every traced run reports. A layer a
//! workload bypasses (the serving stack on the in-process workloads)
//! reads 0.

use crate::model::{mini_arch, LayerCount};
use crate::stats::Metrics;
use mime_runtime::geometry_from_arch;
use std::collections::BTreeMap;

/// Weighted-layer names (`conv1`..`conv13`, `fc14`..`fc16`), shared by
/// the mini model and VGG16-224.
pub fn layer_names() -> Vec<String> {
    geometry_from_arch(&mini_arch()).into_iter().map(|g| g.name).collect()
}

/// Every per-layer metric with its unit, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("wall.throughput_ips", "1/s"),
        ("wall.latency_p50_ms", "ms"),
        ("wall.latency_p99_ms", "ms"),
        ("wall.first_result_ms", "ms"),
        ("wall.setup_s", "s"),
        ("frontdoor.queue_us.p50", "us"),
        ("frontdoor.queue_us.p99", "us"),
        ("frontdoor.batch_size.mean", "count"),
        ("frontdoor.retries", "count"),
        ("proto.encode_us", "us"),
        ("proto.decode_us", "us"),
        ("proto.request_bytes", "bytes"),
        ("proto.reply_bytes", "bytes"),
        ("replica.compute_us.p50", "us"),
        ("replica.compute_us.p99", "us"),
        ("serve.unaccounted_us.p50", "us"),
        ("serve.send_lag_us.p50", "us"),
        ("serve.send_lag_us.p99", "us"),
        ("serve.send_lag_us.max", "us"),
        ("serve.stage_sum_share", "share"),
        ("trace.request_us.p50", "us"),
        ("trace.replica_us.p50", "us"),
        ("executor.batch_ms.p50", "ms"),
        ("tensor.peak_gflops", "GFLOP/s"),
        ("tensor.rows_skipped_share", "share"),
        ("bind.weight_bytes_resident", "bytes"),
        ("bind.weight_copies", "count"),
        ("bind.prepack_ms", "ms"),
        ("deploy.image_bytes", "bytes"),
        ("systolic.energy_per_image", "MAC"),
        ("obs.trace_overhead_share", "share"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for layer in layer_names() {
        out.push((format!("layer.{layer}.us"), "us"));
        out.push((format!("layer.{layer}.mac_share"), "share"));
        out.push((format!("layer.{layer}.gflops"), "GFLOP/s"));
    }
    out
}

/// Seeds `m` with every per-layer metric at 0, in report order.
pub fn defaults(m: &mut Metrics) {
    for (name, unit) in per_layer_names() {
        m.put(name, 0.0, unit);
    }
}

/// Per-layer time (µs per executor call), executed share of dense MACs,
/// and achieved GFLOP/s on the executed MACs. `counts` holds each task's
/// counts over `counted` images per task; `images_per_call` is the
/// average batch an executor call ran.
pub fn put_layers(
    m: &mut Metrics,
    layer_us: &BTreeMap<String, f64>,
    counts: &[Vec<LayerCount>],
    counted: usize,
    images_per_call: f64,
) {
    let images = (counts.len() * counted).max(1) as f64;
    for (i, name) in layer_names().iter().enumerate() {
        let dense: u64 = counts.iter().map(|c| c[i].dense).sum();
        let executed: u64 = counts.iter().map(|c| c[i].executed).sum();
        m.put(
            format!("layer.{name}.mac_share"),
            executed as f64 / dense.max(1) as f64,
            "share",
        );
        if let Some(&us) = layer_us.get(name) {
            m.put(format!("layer.{name}.us"), us, "us");
            let flops = 2.0 * executed as f64 / images * images_per_call;
            m.put(format!("layer.{name}.gflops"), flops / (us * 1e3).max(1e-9), "GFLOP/s");
        }
    }
}

/// GFLOP/s of the prepacked GEMM on a cache-resident shape (A 128×256,
/// B 256×512): the machine peak the layer rates compare against. Best of
/// several timed windows at the kernels' default worker count.
pub fn peak_gflops() -> f64 {
    use mime_tensor::{matmul_prepacked_into, PrepackedB, Tensor};
    let (m, k, n) = (128usize, 256usize, 512usize);
    let a = Tensor::from_fn(&[m, k], |i| ((i * 7) % 13) as f32 * 0.01);
    let b = Tensor::from_fn(&[k, n], |i| ((i * 5) % 11) as f32 * 0.01);
    let pb = PrepackedB::from_matrix(&b).expect("probe operand is rank 2");
    let mut out = Tensor::zeros(&[m, n]);
    let flops = 2.0 * (m * k * n) as f64;
    let mut best = 0.0f64;
    for _ in 0..30 {
        let reps = 40;
        let start = std::time::Instant::now();
        for _ in 0..reps {
            matmul_prepacked_into(std::hint::black_box(&a), &pb, &mut out)
                .expect("probe shapes conform");
        }
        let secs = start.elapsed().as_secs_f64();
        std::hint::black_box(out.as_slice());
        best = best.max(flops * reps as f64 / secs / 1e9);
    }
    best
}
