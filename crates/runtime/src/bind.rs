//! Extraction of hardware execution plans from trained networks.

use mime_core::faults::first_non_finite;
use mime_core::{MimeError, MimeNetwork};
use mime_nn::{Sequential, VggArch, VggBlock};
use mime_systolic::LayerGeometry;
use mime_tensor::{PrepackedB, Tensor, TensorError};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// One step of a hardware execution plan.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // Array is the dominant variant; plans hold ~35 entries
pub enum BoundLayer {
    /// A weighted layer executed on the PE array (convolutions and FC
    /// layers, the latter as 1×1-spatial convolutions).
    Array {
        /// Hardware-visible geometry.
        geom: LayerGeometry,
        /// Weights `[K, C, R, R]`: a copy-on-write handle to the bound
        /// network's backbone buffer, so every plan bound from one
        /// network — and every parent fallback and brownout rung derived
        /// from those plans — holds that one buffer, not a copy.
        weight: Tensor,
        /// Bias `[K]`.
        bias: Tensor,
        /// Per-neuron threshold bank (`K·sites` values) for MIME plans;
        /// `None` makes the executor apply ReLU on the host instead.
        thresholds: Option<Tensor>,
        /// FC weights prepacked once into the blocked microkernel layout
        /// (`Wᵀ` panels, see [`PrepackedB`]), shared read-only across
        /// every worker thread and every plan built from the same
        /// backbone. `None` (conv steps, or before
        /// [`BoundNetwork::prepack`] runs) keeps the on-the-fly path.
        packed: Option<Arc<PrepackedB>>,
    },
    /// 2×2/s2 max pooling, performed by the on-chip pooling unit (host
    /// arithmetic, negligible energy at this model's granularity).
    Pool,
    /// NCHW → flat feature reshaping before the classifier head.
    Flatten,
}

/// A hardware execution plan: the ordered [`BoundLayer`] steps of one
/// network.
#[derive(Debug, Clone)]
pub struct BoundNetwork {
    steps: Vec<BoundLayer>,
    classes: usize,
    input_hw: usize,
    in_channels: usize,
}

impl BoundNetwork {
    /// The plan's steps in execution order.
    pub fn steps(&self) -> &[BoundLayer] {
        &self.steps
    }

    /// Classifier width.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Expected input spatial extent.
    pub fn input_hw(&self) -> usize {
        self.input_hw
    }

    /// Expected input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Total weight words across array steps.
    pub fn weight_words(&self) -> usize {
        self.steps
            .iter()
            .map(|s| match s {
                BoundLayer::Array { geom, .. } => geom.weight_count(),
                _ => 0,
            })
            .sum()
    }

    /// Checks every threshold bank for non-finite values — the guard the
    /// executor runs before trusting a task's plan.
    ///
    /// # Errors
    ///
    /// Returns [`MimeError::NonFinite`] naming the first offending bank
    /// (by array-step index) and element.
    pub fn validate_thresholds(&self) -> crate::Result<()> {
        for (layer, step) in self.steps.iter().enumerate() {
            if let BoundLayer::Array { thresholds: Some(t), .. } = step {
                if let Some(index) = first_non_finite(t.as_slice()) {
                    return Err(MimeError::NonFinite {
                        stage: "threshold bank",
                        layer,
                        index,
                    });
                }
            }
        }
        Ok(())
    }

    /// Checks the shared parameters (weights and biases) for non-finite
    /// values. Unlike a bad threshold bank, a bad weight cannot be worked
    /// around by falling back to the parent path — the weights *are* the
    /// parent.
    ///
    /// # Errors
    ///
    /// Returns [`MimeError::NonFinite`] naming the first offending step
    /// and element.
    pub fn validate_parameters(&self) -> crate::Result<()> {
        for (layer, step) in self.steps.iter().enumerate() {
            if let BoundLayer::Array { weight, bias, .. } = step {
                if let Some(index) = first_non_finite(weight.as_slice()) {
                    return Err(MimeError::NonFinite { stage: "weights", layer, index });
                }
                if let Some(index) = first_non_finite(bias.as_slice()) {
                    return Err(MimeError::NonFinite { stage: "bias", layer, index });
                }
            }
        }
        Ok(())
    }

    /// A copy of this plan with every threshold bank removed: masked
    /// layers fall back to the host-ReLU baseline path, i.e. the parent
    /// task's exact behavior over the same frozen weights. This is the
    /// graceful-degradation plan the executor switches to when a task's
    /// threshold bank fails validation.
    pub fn strip_thresholds(&self) -> BoundNetwork {
        let steps = self
            .steps
            .iter()
            .map(|s| match s {
                BoundLayer::Array { geom, weight, bias, packed, .. } => {
                    BoundLayer::Array {
                        geom: geom.clone(),
                        weight: weight.clone(),
                        bias: bias.clone(),
                        thresholds: None,
                        // stripping thresholds never touches the weights,
                        // so the degraded plan keeps the shared panels
                        packed: packed.clone(),
                    }
                }
                other => other.clone(),
            })
            .collect();
        BoundNetwork {
            steps,
            classes: self.classes,
            input_hw: self.input_hw,
            in_channels: self.in_channels,
        }
    }

    /// A copy of this plan with every threshold bank scaled by
    /// `factor`: the eq.(2) compare `y - t >= 0` fails for more neurons
    /// as thresholds grow, so larger factors zero progressively more
    /// channels and the §9 sparse fast path skips more GEMM rows. This
    /// is a brownout rung — a cheaper, lower-fidelity variant of the
    /// same task sharing the frozen weights (and their prepacked
    /// panels) with the original plan.
    ///
    /// `factor == 1.0` reproduces the original plan exactly; factors
    /// below 1.0 are clamped to 1.0 because a rung must never be *more*
    /// permissive than the fidelity it browns out from.
    pub fn brownout_rung(&self, factor: f32) -> BoundNetwork {
        let factor = factor.max(1.0);
        let steps = self
            .steps
            .iter()
            .map(|s| match s {
                BoundLayer::Array { geom, weight, bias, thresholds, packed } => {
                    BoundLayer::Array {
                        geom: geom.clone(),
                        weight: weight.clone(),
                        bias: bias.clone(),
                        // raise every threshold monotonically in
                        // `factor`, whatever its sign: positive values
                        // scale up, negative values shrink toward zero
                        // (scaling a negative threshold up would *admit*
                        // more neurons, the opposite of a brownout)
                        thresholds: thresholds.as_ref().map(|t| {
                            t.map(|v| if v >= 0.0 { v * factor } else { v / factor })
                        }),
                        // thresholds never touch the weights, so every
                        // rung keeps the shared prepacked panels
                        packed: packed.clone(),
                    }
                }
                other => other.clone(),
            })
            .collect();
        BoundNetwork {
            steps,
            classes: self.classes,
            input_hw: self.input_hw,
            in_channels: self.in_channels,
        }
    }

    /// Prepacks this plan's FC weight panels (see [`prepack_plans`] for
    /// the multi-plan entry that shares panels across tasks).
    ///
    /// # Errors
    ///
    /// Returns an error when an FC step's weight length disagrees with
    /// its geometry (cannot happen for plans built by this module).
    pub fn prepack(&mut self) -> crate::Result<PrepackStats> {
        self.prepack_with_cache(&mut Vec::new())
    }

    /// [`prepack`](Self::prepack) with a caller-owned dedup cache keyed
    /// on weight buffer identity ([`Tensor::shares_storage`]): plans
    /// bound from one frozen backbone (every MIME task) hold its single
    /// weight buffer per layer, so they share one `Arc` of panels per
    /// layer instead of packing per task. Equal weights in separate
    /// buffers pack separately.
    fn prepack_with_cache(
        &mut self,
        cache: &mut Vec<(Tensor, Arc<PrepackedB>)>,
    ) -> crate::Result<PrepackStats> {
        let mut stats = PrepackStats::default();
        for step in &mut self.steps {
            let BoundLayer::Array { geom, weight, packed, .. } = step else { continue };
            // Only FC steps flip through the prepacked fused path: conv
            // weights enter the GEMM as the A operand and their B-side
            // packing is amortized over NC-wide column blocks, so
            // prepacking them buys nothing (DESIGN.md §11).
            if geom.r != 1 || packed.is_some() {
                continue;
            }
            // one buffer may be viewed under several shapes; the
            // `[K, C, 1, 1]` dims pin the panel geometry
            let hit = cache
                .iter()
                .find(|(w, _)| w.shares_storage(weight) && w.dims() == weight.dims());
            let pb = match hit {
                Some((_, pb)) => {
                    stats.shared += 1;
                    Arc::clone(pb)
                }
                None => {
                    let pb = Arc::new(PrepackedB::from_weight_transposed(
                        weight, geom.c, geom.k,
                    )?);
                    stats.bytes += pb.bytes();
                    cache.push((weight.clone(), Arc::clone(&pb)));
                    pb
                }
            };
            stats.layers += 1;
            *packed = Some(pb);
        }
        Ok(stats)
    }

    /// Binds a MIME network: frozen backbone weights plus the currently
    /// installed threshold banks. Per-channel banks are broadcast to
    /// per-neuron form for the PE comparators.
    ///
    /// # Errors
    ///
    /// Returns an error when the network's parameters are inconsistent
    /// with its architecture (should not happen for well-formed networks).
    pub fn from_mime(net: &MimeNetwork) -> crate::Result<Self> {
        let params: HashMap<String, Tensor> = net
            .backbone_params()
            .into_iter()
            .map(|p| (p.name().to_string(), p.value.clone()))
            .collect();
        let banks = net.export_thresholds();
        Self::build(net.arch(), &params, Some(&banks))
    }

    /// Binds a conventional baseline network (ReLU activations applied by
    /// the executor on the host).
    ///
    /// # Errors
    ///
    /// Returns an error when the network's parameters do not match
    /// `arch`.
    pub fn from_baseline(arch: &VggArch, net: &Sequential) -> crate::Result<Self> {
        let params: HashMap<String, Tensor> = net
            .parameters()
            .into_iter()
            .map(|p| (p.name().to_string(), p.value.clone()))
            .collect();
        Self::build(arch, &params, None)
    }

    fn build(
        arch: &VggArch,
        params: &HashMap<String, Tensor>,
        banks: Option<&[Tensor]>,
    ) -> crate::Result<Self> {
        let missing = |name: &str| {
            TensorError::InvalidGeometry(format!("bound network: missing parameter {name}"))
        };
        let extents = arch.conv_spatial_extents();
        let mut steps = Vec::new();
        let mut weighted = 0usize;
        let mut conv_i = 0usize;
        let mut mask_i = 0usize;
        for block in &arch.blocks {
            match *block {
                VggBlock::Conv { in_ch, out_ch } => {
                    weighted += 1;
                    let name = format!("conv{weighted}");
                    let hw = extents[conv_i];
                    conv_i += 1;
                    let geom = LayerGeometry::conv(&name, in_ch, out_ch, hw);
                    let thresholds = take_bank(banks, &mut mask_i, out_ch, hw * hw)?;
                    steps.push(BoundLayer::Array {
                        weight: params
                            .get(&format!("{name}.weight"))
                            .ok_or_else(|| missing(&name))?
                            .clone(),
                        bias: params
                            .get(&format!("{name}.bias"))
                            .ok_or_else(|| missing(&name))?
                            .clone(),
                        geom,
                        thresholds,
                        packed: None,
                    });
                }
                VggBlock::Pool => steps.push(BoundLayer::Pool),
                VggBlock::Flatten => steps.push(BoundLayer::Flatten),
                VggBlock::Linear { in_f, out_f, activation } => {
                    weighted += 1;
                    let name = format!("fc{weighted}");
                    let geom = LayerGeometry::fc(&name, in_f, out_f, activation);
                    let weight = params
                        .get(&format!("{name}.weight"))
                        .ok_or_else(|| missing(&name))?
                        .reshape(&[out_f, in_f, 1, 1])?;
                    let thresholds = if activation {
                        take_bank(banks, &mut mask_i, out_f, 1)?
                    } else {
                        None
                    };
                    steps.push(BoundLayer::Array {
                        weight,
                        bias: params
                            .get(&format!("{name}.bias"))
                            .ok_or_else(|| missing(&name))?
                            .clone(),
                        geom,
                        thresholds,
                        packed: None,
                    });
                }
            }
        }
        Ok(BoundNetwork {
            steps,
            classes: arch.classes,
            input_hw: arch.input_hw,
            in_channels: arch.in_channels,
        })
    }
}

/// Extracts the hardware-visible [`LayerGeometry`] list of an
/// architecture (conv layers plus FC layers as 1×1 convs) — the bridge
/// from `mime-nn` architectures to `mime-systolic` analytical runs at
/// matching (mini) scale.
pub fn geometry_from_arch(arch: &VggArch) -> Vec<LayerGeometry> {
    let extents = arch.conv_spatial_extents();
    let mut out = Vec::new();
    let mut weighted = 0usize;
    let mut conv_i = 0usize;
    for block in &arch.blocks {
        match *block {
            VggBlock::Conv { in_ch, out_ch } => {
                weighted += 1;
                out.push(LayerGeometry::conv(
                    format!("conv{weighted}"),
                    in_ch,
                    out_ch,
                    extents[conv_i],
                ));
                conv_i += 1;
            }
            VggBlock::Linear { in_f, out_f, activation } => {
                weighted += 1;
                out.push(LayerGeometry::fc(
                    format!("fc{weighted}"),
                    in_f,
                    out_f,
                    activation,
                ));
            }
            _ => {}
        }
    }
    out
}

/// What one prepack pass built: published as `mime_prepack_*` gauges so
/// check.sh can assert prepack happens exactly once per process.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PrepackStats {
    /// FC steps now carrying a prepacked panel set (across all plans).
    pub layers: usize,
    /// Of those, steps that reused another plan's panels (shared frozen
    /// backbone) instead of packing their own copy.
    pub shared: usize,
    /// Heap bytes of *unique* panel storage built (shared `Arc`s counted
    /// once).
    pub bytes: usize,
    /// Wall-clock milliseconds the pass took (set by [`prepack_plans`]).
    pub ms: f64,
}

/// Prepacks the FC weight panels of every plan, once per process:
/// identical weight matrices (the shared MIME backbone) are packed once
/// and shared via `Arc` across plans — and from there, read-only, across
/// `run_batch_parallel` workers and serve worker threads. Publishes
/// `mime_prepack_ms` / `mime_prepack_bytes` gauges and bumps the
/// `mime_prepack_total` counter (exactly once per call, so a serve
/// process startup shows `1` however many requests follow).
///
/// # Errors
///
/// Returns an error when an FC step's weight length disagrees with its
/// geometry (cannot happen for plans built by this module).
pub fn prepack_plans(plans: &mut [BoundNetwork]) -> crate::Result<PrepackStats> {
    let start = Instant::now();
    let mut cache = Vec::new();
    let mut stats = PrepackStats::default();
    for plan in plans.iter_mut() {
        let s = plan.prepack_with_cache(&mut cache)?;
        stats.layers += s.layers;
        stats.shared += s.shared;
        stats.bytes += s.bytes;
    }
    stats.ms = start.elapsed().as_secs_f64() * 1e3;
    let r = mime_obs::metrics::global();
    r.gauge("mime_prepack_ms").set(stats.ms);
    r.gauge("mime_prepack_bytes").set(stats.bytes as f64);
    r.counter("mime_prepack_total").add(1);
    mime_obs::info!(
        "runtime.prepack",
        "prepacked fc weight panels",
        layers = stats.layers,
        shared = stats.shared,
        bytes = stats.bytes
    );
    Ok(stats)
}

/// Pulls the next threshold bank (if plans are MIME-bound) and normalizes
/// it to per-neuron form: a `[K]` bank is broadcast across `sites`.
fn take_bank(
    banks: Option<&[Tensor]>,
    mask_i: &mut usize,
    k: usize,
    sites: usize,
) -> crate::Result<Option<Tensor>> {
    let Some(banks) = banks else {
        return Ok(None);
    };
    let bank = banks.get(*mask_i).ok_or_else(|| {
        TensorError::InvalidGeometry("bound network: threshold bank missing".into())
    })?;
    *mask_i += 1;
    let flat = if bank.len() == k * sites {
        bank.reshape(&[k * sites])?
    } else if bank.len() == k {
        // per-channel granularity: broadcast across the channel's sites
        let mut v = Vec::with_capacity(k * sites);
        for &t in bank.as_slice() {
            v.extend(std::iter::repeat_n(t, sites));
        }
        Tensor::from_vec(v, &[k * sites])?
    } else {
        return Err(TensorError::LengthMismatch {
            expected: k * sites,
            actual: bank.len(),
        }
        .into());
    };
    Ok(Some(flat))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mime_core::ThresholdGranularity;
    use mime_nn::{build_network, vgg16_arch};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mini() -> (VggArch, Sequential) {
        let arch = vgg16_arch(0.0625, 32, 3, 4, 16);
        let mut rng = StdRng::seed_from_u64(2);
        let net = build_network(&arch, &mut rng);
        (arch, net)
    }

    #[test]
    fn baseline_plan_structure() {
        let (arch, net) = mini();
        let plan = BoundNetwork::from_baseline(&arch, &net).unwrap();
        let arrays =
            plan.steps().iter().filter(|s| matches!(s, BoundLayer::Array { .. })).count();
        assert_eq!(arrays, 16, "13 convs + 3 FC");
        let pools = plan.steps().iter().filter(|s| matches!(s, BoundLayer::Pool)).count();
        assert_eq!(pools, 5);
        assert_eq!(plan.classes(), 4);
        assert_eq!(plan.input_hw(), 32);
        assert_eq!(plan.in_channels(), 3);
        assert!(plan.weight_words() > 0);
        // baseline plans carry no thresholds
        assert!(plan.steps().iter().all(|s| match s {
            BoundLayer::Array { thresholds, .. } => thresholds.is_none(),
            _ => true,
        }));
    }

    #[test]
    fn mime_plan_carries_thresholds() {
        let (arch, parent) = mini();
        let net = MimeNetwork::from_trained(&arch, &parent, 0.07).unwrap();
        let plan = BoundNetwork::from_mime(&net).unwrap();
        let with_t = plan
            .steps()
            .iter()
            .filter(|s| matches!(s, BoundLayer::Array { thresholds: Some(_), .. }))
            .count();
        // 13 convs + 2 hidden FCs masked; the classifier is not
        assert_eq!(with_t, 15);
        for s in plan.steps() {
            if let BoundLayer::Array { geom, thresholds: Some(t), .. } = s {
                assert_eq!(t.len(), geom.k * geom.sites());
                assert!(t.as_slice().iter().all(|&x| (x - 0.07).abs() < 1e-6));
            }
        }
    }

    #[test]
    fn geometry_matches_plan_structure() {
        let (arch, net) = mini();
        let geoms = geometry_from_arch(&arch);
        let plan = BoundNetwork::from_baseline(&arch, &net).unwrap();
        let plan_geoms: Vec<&LayerGeometry> = plan
            .steps()
            .iter()
            .filter_map(|s| match s {
                BoundLayer::Array { geom, .. } => Some(geom),
                _ => None,
            })
            .collect();
        assert_eq!(geoms.len(), plan_geoms.len());
        for (a, b) in geoms.iter().zip(plan_geoms) {
            assert_eq!(a, b);
        }
        // total weights consistent with the trained network's weight params
        let w: usize = geoms.iter().map(|g| g.weight_count()).sum();
        assert_eq!(w, plan.weight_words());
    }

    /// Three task plans bound from one network; task `i` runs the
    /// network's threshold banks scaled by `1 + i`.
    fn three_task_plans(net: &mut MimeNetwork) -> Vec<BoundNetwork> {
        let banks = net.export_thresholds();
        (0..3)
            .map(|i| {
                let scaled: Vec<Tensor> =
                    banks.iter().map(|t| t.map(|v| v * (1 + i) as f32)).collect();
                net.import_thresholds(&scaled).unwrap();
                BoundNetwork::from_mime(net).unwrap()
            })
            .collect()
    }

    fn weights(plan: &BoundNetwork) -> Vec<(&Tensor, &Tensor)> {
        plan.steps()
            .iter()
            .filter_map(|s| match s {
                BoundLayer::Array { weight, bias, .. } => Some((weight, bias)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn task_plans_parents_and_rungs_hold_one_backbone() {
        let (arch, parent) = mini();
        let mut net = MimeNetwork::from_trained(&arch, &parent, 0.05).unwrap();
        let mut plans = three_task_plans(&mut net);
        prepack_plans(&mut plans).unwrap();
        let mut variants = Vec::new();
        for plan in &plans {
            variants.push(plan.strip_thresholds());
            variants.push(plan.brownout_rung(4.0));
        }
        let lead = weights(&plans[0]);
        for plan in plans.iter().chain(&variants) {
            for (layer, ((w0, b0), (w, b))) in lead.iter().zip(weights(plan)).enumerate() {
                assert!(w.shares_storage(w0), "layer {layer}: weight buffer copied");
                assert!(b.shares_storage(b0), "layer {layer}: bias buffer copied");
            }
        }
        // the plans hold the network's own parameter buffers
        for (p, (w, b)) in net.backbone_params().chunks(2).zip(&lead) {
            assert!(p[0].value.shares_storage(w) && p[1].value.shares_storage(b));
        }
    }

    #[test]
    fn plans_keep_their_values_when_the_source_network_changes() {
        let (arch, parent) = mini();
        let mut net = MimeNetwork::from_trained(&arch, &parent, 0.05).unwrap();
        let plans = three_task_plans(&mut net);
        let mut exec = crate::HardwareExecutor::with_options(
            mime_systolic::ArrayConfig::default(),
            crate::ComputePath::Software,
            crate::SparseDispatch::Auto,
        );
        let image = Tensor::from_fn(&[3, 32, 32], |j| ((j % 13) as f32 - 6.0) * 0.1);
        let logits = |exec: &mut crate::HardwareExecutor| -> Vec<Vec<u32>> {
            plans
                .iter()
                .map(|p| {
                    let l = exec.run_image(p, &image, true).unwrap();
                    l.iter().map(|v| v.to_bits()).collect()
                })
                .collect()
        };
        let before = logits(&mut exec);

        // write the shared threshold buffers in place, and swap in a
        // perturbed backbone
        for p in net.threshold_params_mut() {
            p.value.map_inplace(|v| v * 3.0 + 0.5);
        }
        let perturbed: HashMap<String, Tensor> = net
            .backbone_params()
            .into_iter()
            .map(|p| (p.name().to_string(), p.value.map(|v| -v)))
            .collect();
        net.import_backbone(&perturbed).unwrap();
        let rebound = BoundNetwork::from_mime(&net).unwrap();
        assert_ne!(
            weights(&rebound)[0].0.as_slice(),
            weights(&plans[0])[0].0.as_slice(),
            "the source network really changed"
        );
        assert_eq!(logits(&mut exec), before, "a bound plan saw its source change");
    }

    #[test]
    fn per_channel_banks_broadcast() {
        let (arch, parent) = mini();
        let net = MimeNetwork::from_trained_with_options(
            &arch,
            &parent,
            0.3,
            false,
            ThresholdGranularity::PerChannel,
        )
        .unwrap();
        let plan = BoundNetwork::from_mime(&net).unwrap();
        if let BoundLayer::Array { geom, thresholds: Some(t), .. } = &plan.steps()[0] {
            assert_eq!(t.len(), geom.k * geom.sites());
        } else {
            panic!("first step must be a masked conv");
        }
    }
}
