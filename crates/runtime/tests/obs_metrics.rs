//! Metrics published by the executor must be scheduling-independent:
//! the counter deltas from a serial `run_pipelined` batch and a
//! parallel `run_batch_parallel` batch over the same inputs are
//! identical, series by series. Wall-time histograms are the only
//! observability output allowed to differ between the two paths.
//!
//! This lives in its own integration-test binary (one process, one
//! `#[test]`) because the hooks record into the process-wide registry.

use mime_core::MimeNetwork;
use mime_nn::{build_network, vgg16_arch};
use mime_runtime::{BoundNetwork, HardwareExecutor};
use mime_systolic::ArrayConfig;
use mime_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Two healthy MIME tasks plus one with a poisoned threshold bank, so
/// the degraded-task counter is exercised, not just asserted at zero.
fn three_plans() -> Vec<BoundNetwork> {
    let arch = vgg16_arch(0.0625, 32, 3, 4, 16);
    let mut rng = StdRng::seed_from_u64(6);
    let parent = build_network(&arch, &mut rng);
    let mime_a = MimeNetwork::from_trained(&arch, &parent, 0.03).unwrap();
    let mime_b = MimeNetwork::from_trained(&arch, &parent, 0.30).unwrap();
    let mut poisoned = MimeNetwork::from_trained(&arch, &parent, 0.25).unwrap();
    let mut banks = poisoned.export_thresholds();
    mime_core::faults::FaultInjector::new(11).poison_tensor(&mut banks[0], 2);
    poisoned.import_thresholds(&banks).unwrap();
    vec![
        BoundNetwork::from_mime(&mime_a).unwrap(),
        BoundNetwork::from_mime(&mime_b).unwrap(),
        BoundNetwork::from_mime(&poisoned).unwrap(),
    ]
}

/// Per-series counter increments across `f`.
fn counter_delta(f: impl FnOnce()) -> BTreeMap<String, u64> {
    let reg = mime_obs::metrics::global();
    let before = reg.counter_snapshot();
    f();
    reg.counter_snapshot()
        .into_iter()
        .map(|(name, after)| {
            let b = before.get(&name).copied().unwrap_or(0);
            (name, after - b)
        })
        .collect()
}

#[test]
fn serial_and_parallel_batches_publish_identical_counters() {
    mime_obs::set_metrics_enabled(true);
    let plans = three_plans();
    let batch: Vec<(usize, Tensor)> = (0..7)
        .map(|i| {
            (
                i % 3,
                Tensor::from_fn(&[3, 32, 32], move |j| {
                    (((j + i * 97) % 17) as f32 - 8.0) * 0.09
                }),
            )
        })
        .collect();
    let mut exec = HardwareExecutor::new(ArrayConfig::eyeriss_65nm());

    let serial = counter_delta(|| {
        exec.run_pipelined(&plans, &batch, true, true).unwrap();
    });
    let parallel = counter_delta(|| {
        exec.run_batch_parallel(&plans, &batch, true, true, 3).unwrap();
    });
    mime_obs::set_metrics_enabled(false);

    assert_eq!(serial, parallel, "counter deltas diverge between serial and parallel");

    let get = |m: &BTreeMap<String, u64>, name: &str| {
        *m.get(name).unwrap_or_else(|| panic!("missing counter {name}"))
    };
    assert_eq!(get(&serial, "mime_runtime_images_total"), batch.len() as u64);
    assert_eq!(get(&serial, "mime_runtime_degraded_tasks_total"), 1);
    assert!(get(&serial, "mime_runtime_macs_executed_total") > 0);
    assert!(
        get(&serial, "mime_runtime_macs_skipped_total") > 0,
        "zero-skip must skip MACs"
    );
    assert!(get(&serial, "mime_systolic_dram_accesses_total") > 0);
    assert!(get(&serial, "mime_runtime_task_switches_total") > 0);
}
