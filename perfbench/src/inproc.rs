//! The in-process workloads: `batch-mix` (the mini model, coalesced
//! batches interleaving the three tasks — the paper's Pipelined mode) and
//! `vgg224-singular` (full VGG16-224, each batch one task — Singular
//! mode). Both drive the executor's public coalesced batch entry.

use crate::model::{self, executor, Inputs, LayerCount, Model, Result, TASKS};
use crate::stats::{mean, median, quantile, Metrics, Tally};
use crate::{host, layers};
use mime_nn::VggArch;
use mime_runtime::{prepack_plans, BoundNetwork, HardwareExecutor};
use mime_systolic::TaskMode;
use mime_tensor::Tensor;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One in-process workload's shape.
pub struct Workload {
    arch: VggArch,
    /// Images per coalesced executor call.
    batch: usize,
    /// `true`: every batch holds one task, rotating between batches
    /// (Singular); `false`: tasks interleave inside a batch (Pipelined).
    singular: bool,
    /// Calibration images per task.
    calib: usize,
    /// Distinct workload images per task.
    pool: usize,
    /// Set-ups per untraced run (the median of their CPU time is
    /// `setup_s`).
    setups: usize,
    /// Fresh-executor first batches per untraced run.
    cold: usize,
    /// Images per task replayed for the exact per-layer MAC counts.
    counted: usize,
}

pub fn batch_mix() -> Workload {
    Workload {
        arch: model::mini_arch(),
        batch: 8,
        singular: false,
        calib: 8,
        pool: 16,
        setups: 21,
        cold: 25,
        counted: 8,
    }
}

/// Full geometry: a set-up costs ~14 s and ~3.7 GB, so it runs once per
/// run, and one image per task is replayed for the MAC counts.
pub fn vgg224_singular() -> Workload {
    Workload {
        arch: model::vgg224_arch(),
        batch: 3,
        singular: true,
        calib: 1,
        pool: 3,
        setups: 1,
        cold: 1,
        counted: 1,
    }
}

/// The executor's coalesced batch entry — the call a serving replica
/// makes for a dispatched batch. The one call site of the benchmark.
pub fn run_batch(
    exec: &mut HardwareExecutor,
    plans: &[&BoundNetwork],
    images: &[&Tensor],
) -> mime_runtime::Result<Vec<Vec<f32>>> {
    exec.run_coalesced(plans, images, true)
}

impl Workload {
    /// `(task, image)` slots of batch number `k`.
    fn items(&self, k: usize) -> Vec<(usize, usize)> {
        (0..self.batch)
            .map(|s| {
                if self.singular {
                    (k % TASKS, ((k / TASKS) * self.batch + s) % self.pool)
                } else {
                    let g = k * self.batch + s;
                    (g % TASKS, (g / TASKS) % self.pool)
                }
            })
            .collect()
    }

    /// Model build, calibration, bind and prepack: the set-up a
    /// deployment pays before its first batch.
    fn setup(&self, inputs: &Inputs) -> Result<Built> {
        let (start, cpu_before) = (Instant::now(), host::process_cpu_s());
        let mut model = model::build_model(&self.arch, &inputs.calib)?;
        let mut plans = model::bind(&mut model)?;
        let stats = prepack_plans(&mut plans)?;
        Ok(Built {
            model,
            plans,
            wall_s: start.elapsed().as_secs_f64(),
            cpu_s: host::process_cpu_s() - cpu_before,
            prepack_ms: stats.ms,
        })
    }
}

/// One set-up's product and what it cost.
struct Built {
    model: Model,
    plans: Vec<BoundNetwork>,
    wall_s: f64,
    /// Process CPU seconds: unlike wall time, not charged for the time
    /// the hypervisor steals from a shared host's vCPUs.
    cpu_s: f64,
    prepack_ms: f64,
}

/// Serial reference logits of every pool image under its task's plan.
fn references(plans: &[BoundNetwork], inputs: &Inputs) -> Result<Vec<Vec<Vec<f32>>>> {
    let mut exec = executor();
    let mut out = Vec::with_capacity(TASKS);
    for (plan, pool) in plans.iter().zip(&inputs.pool) {
        let mut per = Vec::with_capacity(pool.len());
        for image in pool {
            per.push(exec.run_image(plan, image, true)?);
        }
        out.push(per);
    }
    Ok(out)
}

/// Back-to-back batches on one executor: each call's wall time.
struct Window {
    batch_ms: Vec<f64>,
    images_per_batch: usize,
}

impl Window {
    fn images(&self) -> usize {
        self.batch_ms.len() * self.images_per_batch
    }

    /// Images per second of executor time.
    fn ips(&self) -> f64 {
        self.images() as f64 / self.batch_ms.iter().sum::<f64>().max(1e-9) * 1e3
    }
}

/// One measured stretch: fresh executors' first batches, then a window
/// of back-to-back batches on the last of them, and the process CPU time
/// the window consumed.
struct Measured {
    cold_ms: Vec<f64>,
    win: Window,
    cpu_s: f64,
}

struct Runner<'a> {
    w: &'a Workload,
    plans: &'a [BoundNetwork],
    inputs: &'a Inputs,
    refs: &'a [Vec<Vec<f32>>],
    next: usize,
    tally: Tally,
}

impl Runner<'_> {
    /// Runs the next batch on `exec`, checks every output against its
    /// reference, and returns the call's wall time in ms.
    fn batch(&mut self, exec: &mut HardwareExecutor) -> f64 {
        let items = self.w.items(self.next);
        let plans: Vec<&BoundNetwork> =
            items.iter().map(|&(t, _)| &self.plans[t]).collect();
        let images: Vec<&Tensor> =
            items.iter().map(|&(t, i)| &self.inputs.pool[t][i]).collect();
        let start = Instant::now();
        let out = run_batch(exec, &plans, &images);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        for (s, &(t, i)) in items.iter().enumerate() {
            let id = (self.next * self.w.batch + s) as u64;
            let got = out.as_ref().ok().and_then(|o| o.get(s)).map(Vec::as_slice);
            self.tally.check(id, got, &self.refs[t][i]);
        }
        self.next += 1;
        ms
    }

    /// Back-to-back batches on `exec` for `secs` seconds.
    fn window(&mut self, exec: &mut HardwareExecutor, secs: f64) -> Window {
        let start = Instant::now();
        let mut batch_ms = Vec::new();
        while start.elapsed() < Duration::from_secs_f64(secs) {
            batch_ms.push(self.batch(exec));
        }
        Window { batch_ms, images_per_batch: self.w.batch }
    }

    /// A fresh executor's first batch is the cost a new caller pays
    /// before its first result (scratch buffers grow on first use); the
    /// last fresh executor goes on, warm, into a `secs` window. Returns
    /// that executor too.
    fn measure(&mut self, secs: f64) -> (Measured, HardwareExecutor) {
        let mut exec = executor();
        let mut cold_ms = Vec::with_capacity(self.w.cold);
        for i in 0..self.w.cold {
            if i > 0 {
                exec = executor();
            }
            cold_ms.push(self.batch(&mut exec));
        }
        let cpu_before = host::process_cpu_s();
        let win = self.window(&mut exec, secs);
        let cpu_s = host::process_cpu_s() - cpu_before;
        (Measured { cold_ms, win, cpu_s }, exec)
    }
}

/// An untraced run: the end-to-end metrics.
pub fn run_e2e(w: &Workload, seed: u64, seconds: f64) -> Result<(Metrics, Tally)> {
    let inputs = model::inputs(seed, w.arch.input_hw, w.calib, w.pool)?;
    let mut setup_s = Vec::with_capacity(w.setups);
    let mut built = None;
    for _ in 0..w.setups {
        drop(built.take());
        let b = w.setup(&inputs)?;
        setup_s.push(b.cpu_s);
        built = Some(b.plans);
    }
    let plans = built.expect("at least one set-up");
    let refs = references(&plans, &inputs)?;
    let mut r = Runner {
        w,
        plans: &plans,
        inputs: &inputs,
        refs: &refs,
        next: 0,
        tally: Tally::default(),
    };
    let (got, _) = r.measure(seconds);
    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_s), "s");
    m.put("peak_rss_mb", host::peak_rss_mb(std::process::id()).unwrap_or(0.0), "MB");
    m.put("ok_share", r.tally.ok_share(), "share");
    m.put("cpu_ms_per_image", got.cpu_s * 1e3 / got.win.images().max(1) as f64, "ms");
    Ok((m, r.tally))
}

/// A traced run: the per-layer metrics, read from the executor's own
/// latency histograms and sparse-dispatch counters while metrics and
/// tracing are on, next to an untraced window of the same length.
pub fn run_layers(w: &Workload, seed: u64, seconds: f64, m: &mut Metrics) -> Result<Tally> {
    let inputs = model::inputs(seed, w.arch.input_hw, w.calib, w.pool)?;
    let Built { mut model, plans, wall_s, prepack_ms, .. } = w.setup(&inputs)?;
    m.put("wall.setup_s", wall_s, "s");
    let refs = references(&plans, &inputs)?;
    let mut r = Runner {
        w,
        plans: &plans,
        inputs: &inputs,
        refs: &refs,
        next: 0,
        tally: Tally::default(),
    };
    let (got, mut exec) = r.measure(seconds / 2.0);
    let plain = got.win;
    m.put("wall.throughput_ips", plain.ips(), "1/s");
    m.put("wall.latency_p50_ms", median(&plain.batch_ms), "ms");
    m.put("wall.latency_p99_ms", quantile(&plain.batch_ms, 0.99), "ms");
    m.put("wall.first_result_ms", median(&got.cold_ms), "ms");
    let registry = mime_obs::metrics::global();
    registry.clear();
    mime_obs::set_metrics_enabled(true);
    mime_obs::trace::set_enabled(true);
    let traced = r.window(&mut exec, seconds / 2.0);
    mime_obs::set_metrics_enabled(false);
    mime_obs::trace::set_enabled(false);
    let snap = registry.snapshot();
    drop(mime_obs::trace::drain());

    let layer_us: BTreeMap<String, f64> = snap
        .histograms
        .iter()
        .filter(|((name, _), _)| name == "mime_runtime_layer_latency_seconds")
        .filter_map(|((_, labels), h)| {
            let layer = labels.iter().find(|(k, _)| k == "layer")?.1.clone();
            Some((layer, h.sum / h.count.max(1) as f64 * 1e6))
        })
        .collect();
    let counter = |name: &str| snap.counter_value(name, &[]).unwrap_or(0) as f64;
    m.put(
        "tensor.rows_skipped_share",
        counter("mime_sparse_rows_skipped_total")
            / counter("mime_sparse_rows_total").max(1.0),
        "share",
    );
    m.put("obs.trace_overhead_share", plain.ips() / traced.ips().max(1e-9) - 1.0, "share");
    m.put("executor.batch_ms.p50", median(&plain.batch_ms), "ms");

    let counts: Vec<Vec<LayerCount>> = (0..TASKS)
        .map(|t| model::layer_counts(&mut model, t, &inputs.pool[t][..w.counted]))
        .collect::<Result<_>>()?;
    let counted: Vec<&[Tensor]> = inputs.pool.iter().map(|p| &p[..w.counted]).collect();
    model::check_counts(&plans, &counted, &counts)?;
    layers::put_layers(m, &layer_us, &counts, w.counted, w.batch as f64);
    let energy = if w.singular {
        let per_task: Vec<f64> = (0..TASKS)
            .map(|t| {
                let mode =
                    TaskMode::Singular { task: model::child_task(t), batch: w.batch };
                model::energy_per_image(&model.arch, &mode, &counts)
            })
            .collect();
        mean(&per_task)
    } else {
        model::energy_per_image(&model.arch, &TaskMode::paper_pipelined(), &counts)
    };
    m.put("systolic.energy_per_image", energy, "MAC");
    let res = model::residency(&plans);
    m.put("bind.weight_bytes_resident", res.bytes as f64, "bytes");
    m.put("bind.weight_copies", res.copies, "count");
    m.put("bind.prepack_ms", prepack_ms, "ms");
    let tally = r.tally;
    drop(plans);
    m.put("deploy.image_bytes", model::pack(model)?.len() as f64, "bytes");
    Ok(tally)
}
