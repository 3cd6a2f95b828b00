//! Blast-radius containment in the parallel executor: when one task's
//! threshold bank is NaN-poisoned, the worker chunks touching it run
//! the degraded parent path, while every request for a *surviving*
//! task stays bit-identical to the serial path — and the run still
//! publishes its observability counters for the survivors.
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

const POISONED_TASK: usize = 1;

/// Three MIME tasks sharing one parent; the middle one's bank is
/// NaN-poisoned so its worker must degrade mid-fleet, not at the edges.
fn plans_with_poisoned_middle() -> Vec<BoundNetwork> {
    let arch = vgg16_arch(0.0625, 32, 3, 4, 16);
    let mut rng = StdRng::seed_from_u64(17);
    let parent = build_network(&arch, &mut rng);
    (0..3)
        .map(|i| {
            let mut net =
                MimeNetwork::from_trained(&arch, &parent, 0.03 + 0.09 * i as f32).unwrap();
            if i == POISONED_TASK {
                let mut banks = net.export_thresholds();
                mime_core::faults::FaultInjector::new(13).poison_tensor(&mut banks[0], 2);
                net.import_thresholds(&banks).unwrap();
            }
            BoundNetwork::from_mime(&net).unwrap()
        })
        .collect()
}

#[test]
fn poisoned_worker_is_contained_and_survivors_stay_bit_identical() {
    mime_obs::set_metrics_enabled(true);
    let plans = plans_with_poisoned_middle();
    let batch: Vec<(usize, Tensor)> = (0..9)
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
    let serial = exec.run_pipelined(&plans, &batch, true, true).unwrap();

    let reg = mime_obs::metrics::global();
    let before = reg.counter_snapshot();
    let parallel = exec.run_batch_parallel(&plans, &batch, true, true, 3).unwrap();
    let after = reg.counter_snapshot();
    mime_obs::set_metrics_enabled(false);

    // Only the poisoned task degrades — in both schedules.
    assert_eq!(serial.degraded_tasks, vec![POISONED_TASK]);
    assert_eq!(parallel.degraded_tasks, vec![POISONED_TASK]);

    // Survivors are bit-identical to the serial path AND to a fresh
    // single-image run of their own plan: the poisoned worker's
    // degradation leaked into nobody else's logits.
    for (idx, (task, image)) in batch.iter().enumerate() {
        assert_eq!(
            serial.logits[idx], parallel.logits[idx],
            "image {idx} (task {task}) diverged between serial and parallel"
        );
        if *task != POISONED_TASK {
            let solo = HardwareExecutor::new(ArrayConfig::eyeriss_65nm())
                .run_image(&plans[*task], image, true)
                .unwrap();
            assert_eq!(
                parallel.logits[idx], solo,
                "surviving task {task} not bit-identical to its solo run (image {idx})"
            );
        }
    }
    assert_eq!(serial.counters, parallel.counters);

    // The parallel run still published counters for the survivors.
    let delta = |name: &str| {
        after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0)
    };
    assert_eq!(delta("mime_runtime_images_total"), batch.len() as u64);
    assert_eq!(delta("mime_runtime_degraded_tasks_total"), 1);
    assert!(delta("mime_runtime_macs_executed_total") > 0, "survivors must execute");
    assert!(delta("mime_runtime_macs_skipped_total") > 0, "survivors must zero-skip");
}
