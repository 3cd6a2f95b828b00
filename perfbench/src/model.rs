//! Models and inputs: the two network geometries the workloads run, the
//! three child tasks' generated images, threshold calibration, plan
//! binding, and the exact per-layer MAC counts of dynamic pruning.

use bytes::Bytes;
use mime_core::deploy::{pack_model, unpack_model};
use mime_core::{calibrate_thresholds, MimeNetwork, MultiTaskModel};
use mime_datasets::{TaskFamily, TaskSpec};
use mime_nn::{build_network, vgg16_arch, VggArch, VggBlock};
use mime_runtime::{
    geometry_from_arch, BoundLayer, BoundNetwork, ComputePath, HardwareExecutor,
    SparseDispatch,
};
use mime_systolic::{
    simulate_network_profiled, Approach, ArrayConfig, ChildTask, ProfileSet, Scenario,
    SparsityProfile, TaskMode,
};
use mime_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap};

pub type Error = Box<dyn std::error::Error + Send + Sync>;
pub type Result<T> = std::result::Result<T, Error>;

/// Number of child tasks every workload serves.
pub const TASKS: usize = 3;

/// The model's weights are part of the system under test, not of the
/// workload: they are fixed, and `--seed` varies only the requests.
const WEIGHT_SEED: u64 = 42;

/// Calibration quantile per task, inside the paper's 50–70 % dynamic
/// sparsity operating region (Table II).
const PERCENTILES: [f64; TASKS] = [0.5, 0.6, 0.7];

/// The mini model `mime serve` replicas load (`mime pack` geometry).
pub fn mini_arch() -> VggArch {
    vgg16_arch(0.0625, 32, 3, 8, 16)
}

/// Full VGG16 at 224×224 with the ImageNet head.
pub fn vgg224_arch() -> VggArch {
    vgg16_arch(1.0, 224, 3, 1000, 4096)
}

/// The child tasks: cifar10-, cifar100- and fmnist-like.
pub fn child_specs() -> [TaskSpec; TASKS] {
    [TaskSpec::cifar10_like(), TaskSpec::cifar100_like(), TaskSpec::fmnist_like()]
}

/// The paper's name for child task `t`.
pub fn child_task(t: usize) -> ChildTask {
    ChildTask::all()[t % TASKS]
}

/// Generated inputs: per task, a calibration batch `[n, C, H, W]` and a
/// pool of `[C, H, W]` images the workload sends.
pub struct Inputs {
    pub calib: Vec<Tensor>,
    pub pool: Vec<Vec<Tensor>>,
}

/// The task family (dataset) every workload draws from. It is fixed, so
/// the calibrated model is the same on every run; `--seed` picks which
/// of the family's test images a run sends, and in what order.
const FAMILY_SEED: u64 = 7;

/// Test images generated per task, of which a run's pool is drawn.
const CANDIDATES_PER_POOL_IMAGE: usize = 4;

/// `calib` calibration images per task from the family's training split,
/// and a pool of `pool` images per task drawn by `seed` from its test
/// split.
pub fn inputs(seed: u64, hw: usize, calib: usize, pool: usize) -> Result<Inputs> {
    let family = TaskFamily::new(FAMILY_SEED, 3, hw);
    let mut rng = StdRng::seed_from_u64(seed);
    let candidates = pool * CANDIDATES_PER_POOL_IMAGE;
    let mut out = Inputs { calib: Vec::new(), pool: Vec::new() };
    for spec in child_specs() {
        // Only the first classes' templates are needed; the generator
        // draws templates in class order, so capping the class count
        // keeps every drawn image identical to the full task's.
        let mut spec = spec;
        spec.classes = spec.classes.min(calib.max(candidates));
        let per_class = |n: usize| n.div_ceil(spec.classes);
        let task = family
            .generate(&spec.clone().with_samples(per_class(calib), per_class(candidates)));
        let train = task.train.images();
        let dims = train.dims().to_vec();
        let per = dims[1..].iter().product::<usize>();
        out.calib.push(Tensor::from_vec(
            train.as_slice()[..calib * per].to_vec(),
            &[calib, dims[1], dims[2], dims[3]],
        )?);
        let mut order: Vec<usize> = (0..candidates).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let images = order[..pool]
            .iter()
            .map(|&i| task.test.sample(i).0.reshape(&dims[1..]))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        out.pool.push(images);
    }
    Ok(out)
}

/// The executor every workload and reference runs: host Software path,
/// automatic sparse dispatch.
pub fn executor() -> HardwareExecutor {
    HardwareExecutor::with_options(
        ArrayConfig::eyeriss_65nm(),
        ComputePath::Software,
        SparseDispatch::Auto,
    )
}

/// A MIME network with one calibrated threshold bank set per task.
pub struct Model {
    pub arch: VggArch,
    pub net: MimeNetwork,
    pub banks: Vec<Vec<Tensor>>,
}

/// Builds the frozen backbone and calibrates each task's banks on that
/// task's calibration batch, each from the same initial thresholds.
pub fn build_model(arch: &VggArch, calib: &[Tensor]) -> Result<Model> {
    let parent = build_network(arch, &mut StdRng::seed_from_u64(WEIGHT_SEED));
    let mut net = MimeNetwork::from_trained(arch, &parent, 0.01)?;
    drop(parent);
    let initial = net.export_thresholds();
    let mut banks = Vec::with_capacity(TASKS);
    for (t, batch) in calib.iter().enumerate() {
        net.import_thresholds(&initial)?;
        calibrate_thresholds(&mut net, batch, PERCENTILES[t])?;
        banks.push(net.export_thresholds());
    }
    Ok(Model { arch: arch.clone(), net, banks })
}

/// One bound plan per task (each clones the backbone, as deployment
/// does).
pub fn bind(model: &mut Model) -> Result<Vec<BoundNetwork>> {
    let mut plans = Vec::with_capacity(model.banks.len());
    for banks in &model.banks {
        model.net.import_thresholds(banks)?;
        plans.push(BoundNetwork::from_mime(&model.net)?);
    }
    Ok(plans)
}

/// Packs the model as a deployment image with tasks `task0..`.
pub fn pack(model: Model) -> Result<Bytes> {
    let mut mt = MultiTaskModel::new(model.net);
    for (t, banks) in model.banks.into_iter().enumerate() {
        mt.register_task(format!("task{t}"), banks)?;
    }
    Ok(pack_model(&mt)?)
}

/// The plans a `mime replica-worker` binds from `image`: the image is
/// unpacked into a receiver of the mini geometry (its own weights are all
/// replaced), and each task is activated and bound in order.
pub fn plans_from_image(image: &Bytes) -> Result<(Model, Vec<BoundNetwork>)> {
    let arch = mini_arch();
    let parent = build_network(&arch, &mut StdRng::seed_from_u64(0));
    let mut receiver =
        MultiTaskModel::new(MimeNetwork::from_trained(&arch, &parent, 0.01)?);
    let report = unpack_model(image, &mut receiver)?;
    if !report.is_clean() {
        return Err("packed image failed to unpack cleanly".into());
    }
    let names: Vec<String> = receiver.tasks().iter().map(|t| t.name.clone()).collect();
    let mut plans = Vec::with_capacity(names.len());
    let mut banks = Vec::with_capacity(names.len());
    for name in &names {
        receiver.activate(name)?;
        plans.push(BoundNetwork::from_mime(receiver.network())?);
        banks.push(receiver.network().export_thresholds());
    }
    let net = MimeNetwork::from_trained(&arch, &parent, 0.01)?;
    let mut model = Model { arch, net, banks };
    // the reference network must carry the image's (16-bit) weights too
    let params: HashMap<String, Tensor> = receiver
        .network()
        .backbone_params()
        .into_iter()
        .map(|p| (p.name().to_string(), p.value.clone()))
        .collect();
    model.net.import_backbone(&params)?;
    Ok((model, plans))
}

/// Resident weight storage across plans, counted by buffer address: the
/// distinct weight/bias tensors and distinct prepacked panel sets.
pub struct Residency {
    pub bytes: u64,
    /// Distinct weight buffers per weighted layer (1 = fully shared).
    pub copies: f64,
}

pub fn residency(plans: &[BoundNetwork]) -> Residency {
    let mut buffers: BTreeMap<usize, u64> = BTreeMap::new();
    let mut weight_bufs = BTreeSet::new();
    let mut layers = 0usize;
    for plan in plans {
        for step in plan.steps() {
            if let BoundLayer::Array { weight, bias, packed, .. } = step {
                layers += 1;
                let w = weight.as_slice();
                weight_bufs.insert(w.as_ptr() as usize);
                buffers.insert(w.as_ptr() as usize, (w.len() * 4) as u64);
                let b = bias.as_slice();
                buffers.insert(b.as_ptr() as usize, (b.len() * 4) as u64);
                if let Some(p) = packed {
                    buffers.insert(std::sync::Arc::as_ptr(p) as usize, p.bytes() as u64);
                }
            }
        }
    }
    let per_plan = (layers / plans.len().max(1)).max(1);
    Residency {
        bytes: buffers.values().sum(),
        copies: weight_bufs.len() as f64 / per_plan as f64,
    }
}

/// Exact MAC counts of one weighted layer over a set of images.
#[derive(Debug, Clone, Default)]
pub struct LayerCount {
    /// In-bounds kernel taps × output channels, every input counted.
    pub dense: u64,
    /// The same with zero inputs skipped — what the executor runs.
    pub executed: u64,
    /// Zeroed outputs / all outputs after the threshold mask.
    pub out_zero: f64,
}

/// Output sites per input coordinate of a stride-1 same-padded conv
/// (the executor's tap accounting).
fn tap_spans(hw: usize, r: usize) -> Vec<u64> {
    let pad = (r - 1) / 2;
    (0..hw)
        .map(|i| {
            let lo = (i + pad + 1).saturating_sub(r);
            let hi = (i + pad).min(hw - 1);
            (hi + 1).saturating_sub(lo) as u64
        })
        .collect()
}

/// eq. (1)/(2): a neuron survives iff `y − t ≥ 0`; returns the nonzero
/// map of the masked output.
fn mask_nonzero(pre: &Tensor, bank: &Tensor) -> Vec<bool> {
    let y = pre.as_slice();
    let t = bank.as_slice();
    let group = (y.len() / t.len().max(1)).max(1);
    y.iter().enumerate().map(|(i, &v)| v - t[i / group] >= 0.0 && v != 0.0).collect()
}

/// Per weighted layer, the dense and executed MACs of running `images`
/// (`[C, H, W]`) under threshold set `banks`, replaying the network's
/// pre-activations through the masks, pools and flatten exactly as the
/// executor's analytic counters do.
pub fn layer_counts(
    model: &mut Model,
    task: usize,
    images: &[Tensor],
) -> Result<Vec<LayerCount>> {
    let banks = model.banks[task].clone();
    model.net.import_thresholds(&banks)?;
    let layers = geometry_from_arch(&model.arch).len();
    let mut counts = vec![LayerCount::default(); layers];
    let mut zeros = vec![(0u64, 0u64); layers];
    for image in images {
        let dims = image.dims().to_vec();
        let pre = model
            .net
            .forward_preactivations(&image.reshape(&[1, dims[0], dims[1], dims[2]])?)?;
        let (mut c, mut hw) = (dims[0], dims[1]);
        let mut nz: Vec<bool> = image.as_slice().iter().map(|&v| v != 0.0).collect();
        let (mut layer, mut mask) = (0usize, 0usize);
        for block in &model.arch.blocks {
            match *block {
                VggBlock::Conv { out_ch, .. } | VggBlock::Linear { out_f: out_ch, .. } => {
                    let (r, activation) = match *block {
                        VggBlock::Linear { activation, .. } => (1, activation),
                        _ => (3, true),
                    };
                    let spans = tap_spans(hw, r);
                    let total: u64 = spans.iter().sum();
                    let mut taps = 0u64;
                    for ci in 0..c {
                        for (y, &sy) in spans.iter().enumerate() {
                            for (x, &sx) in spans.iter().enumerate() {
                                if nz[(ci * hw + y) * hw + x] {
                                    taps += sy * sx;
                                }
                            }
                        }
                    }
                    counts[layer].dense += c as u64 * total * total * out_ch as u64;
                    counts[layer].executed += taps * out_ch as u64;
                    if activation {
                        nz = mask_nonzero(&pre[mask], &banks[mask]);
                        zeros[layer].0 += nz.iter().filter(|&&a| !a).count() as u64;
                        zeros[layer].1 += nz.len() as u64;
                        mask += 1;
                    }
                    c = out_ch;
                    layer += 1;
                }
                VggBlock::Pool => {
                    let half = hw / 2;
                    let mut pooled = vec![false; c * half * half];
                    for ci in 0..c {
                        for y in 0..half {
                            for x in 0..half {
                                let at = |dy: usize, dx: usize| {
                                    nz[(ci * hw + 2 * y + dy) * hw + 2 * x + dx]
                                };
                                pooled[(ci * half + y) * half + x] =
                                    at(0, 0) || at(0, 1) || at(1, 0) || at(1, 1);
                            }
                        }
                    }
                    nz = pooled;
                    hw = half;
                }
                VggBlock::Flatten => {
                    c *= hw * hw;
                    hw = 1;
                }
            }
        }
    }
    for (count, (z, n)) in counts.iter_mut().zip(zeros) {
        count.out_zero = if n == 0 { 0.0 } else { z as f64 / n as f64 };
    }
    Ok(counts)
}

/// Cross-checks the replayed counts against the executor's own: runs
/// `images[t]` under `plans[t]` through `run_pipelined` on the Software
/// path and fails unless its executed-MAC counter equals the replay's
/// total.
pub fn check_counts(
    plans: &[BoundNetwork],
    images: &[&[Tensor]],
    counts: &[Vec<LayerCount>],
) -> Result<()> {
    let batch: Vec<(usize, Tensor)> = images
        .iter()
        .enumerate()
        .flat_map(|(t, imgs)| imgs.iter().map(move |img| (t, img.clone())))
        .collect();
    let executed = executor().run_pipelined(plans, &batch, true, true)?.counters.macs;
    let replayed: u64 = counts.iter().flatten().map(|c| c.executed).sum();
    if executed != replayed {
        return Err(format!(
            "MAC replay disagrees with the executor: {replayed} replayed, \
             {executed} executed"
        )
        .into());
    }
    Ok(())
}

/// Analytic accelerator energy per image (MAC units) of the model's
/// geometry under `mode`, driven by the measured per-layer output
/// sparsity of each task.
pub fn energy_per_image(
    arch: &VggArch,
    mode: &TaskMode,
    per_task: &[Vec<LayerCount>],
) -> f64 {
    let geoms = geometry_from_arch(arch);
    let mut profiles = ProfileSet::paper();
    for (t, counts) in per_task.iter().enumerate() {
        let mut values: Vec<f64> =
            counts.iter().map(|c| c.out_zero.clamp(0.0, 1.0)).collect();
        if let Some(last) = values.last_mut() {
            *last = 0.0; // the classifier's entry is unused
        }
        profiles = profiles.with_mime(child_task(t), SparsityProfile::new(values));
    }
    let scenario = Scenario { mode: mode.clone(), approach: Approach::Mime };
    let results = simulate_network_profiled(
        &geoms,
        &ArrayConfig::eyeriss_65nm(),
        &scenario,
        &profiles,
    );
    let images = mode.image_tasks().len().max(1);
    results.iter().map(|r| r.total_energy()).sum::<f64>() / images as f64
}
