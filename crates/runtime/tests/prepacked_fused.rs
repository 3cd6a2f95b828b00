//! Fused-epilogue parity: with FC weight panels prepacked once per
//! process ([`mime_runtime::prepack_plans`]) the executor runs the
//! GEMM + eq. (2) threshold compare + activity bitmap as one fused
//! kernel. Every observable — logits, analytic counters, degraded-task
//! bookkeeping — must be bit-identical to the unfused re-scan path, and
//! scheduling-independent (serial == parallel at any worker count).
//! Debug builds additionally `debug_assert` the fused activity bitmap
//! against the mime-core re-scan reference on every step, so running
//! this test at all re-proves the bitmap equivalence.

use mime_core::MimeNetwork;
use mime_nn::{build_network, vgg16_arch};
use mime_runtime::{
    prepack_plans, BatchReport, BoundNetwork, ComputePath, HardwareExecutor, SparseDispatch,
};
use mime_systolic::ArrayConfig;
use mime_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Two healthy MIME tasks plus one with a poisoned threshold bank
/// (exercises the thresholds-stripped degradation route, which must keep
/// sharing the parent's prepacked panels).
fn three_plans() -> Vec<BoundNetwork> {
    let arch = vgg16_arch(0.0625, 32, 3, 4, 16);
    let mut rng = StdRng::seed_from_u64(6);
    let parent = build_network(&arch, &mut rng);
    let mime_a = MimeNetwork::from_trained(&arch, &parent, 0.05).unwrap();
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

fn batch() -> Vec<(usize, Tensor)> {
    (0..7)
        .map(|i| {
            (
                i % 3,
                Tensor::from_fn(&[3, 32, 32], move |j| {
                    (((j + i * 97) % 17) as f32 - 8.0) * 0.09
                }),
            )
        })
        .collect()
}

fn assert_reports_identical(a: &BatchReport, b: &BatchReport, what: &str) {
    assert_eq!(a.counters, b.counters, "{what}: counters diverge");
    assert_eq!(a.degraded_tasks, b.degraded_tasks, "{what}");
    assert_eq!(a.logits, b.logits, "{what}: logits diverge");
}

#[test]
fn fused_prepacked_path_is_bit_identical_and_scheduling_independent() {
    let batch = batch();
    let mut exec = HardwareExecutor::with_options(
        ArrayConfig::eyeriss_65nm(),
        ComputePath::Software,
        SparseDispatch::Auto,
    );

    // reference: the unfused re-scan path (no plan carries panels)
    let unfused_plans = three_plans();
    let reference = exec.run_pipelined(&unfused_plans, &batch, true, true).unwrap();
    assert_eq!(reference.degraded_tasks, vec![2]);

    // prepack once per process; the three tasks share one frozen
    // backbone, so its FC panels must be packed once and Arc-shared
    let mut plans = three_plans();
    let stats = prepack_plans(&mut plans).unwrap();
    let fc_steps = 3; // vgg16 FC layers per plan
    assert_eq!(stats.layers, 3 * fc_steps, "every FC step gets panels");
    assert_eq!(
        stats.shared,
        2 * fc_steps,
        "two plans reuse the first plan's panels instead of repacking"
    );
    assert!(stats.bytes > 0);
    assert!(stats.ms >= 0.0);

    // prepacking twice is a no-op (steps already carrying panels skip)
    let again = prepack_plans(&mut plans).unwrap();
    assert_eq!(again.layers, 0, "second prepack pass must find nothing to do");
    assert_eq!(again.bytes, 0);

    let fused = exec.run_pipelined(&plans, &batch, true, true).unwrap();
    assert_reports_identical(&reference, &fused, "fused serial vs unfused serial");

    for threads in [3usize, 16] {
        let parallel =
            exec.run_batch_parallel(&plans, &batch, true, true, threads).unwrap();
        assert_reports_identical(
            &reference,
            &parallel,
            &format!("fused parallel x{threads}"),
        );
    }

    // dense-pinned dispatch through the fused kernel: same logit bits
    let mut dense = HardwareExecutor::with_options(
        ArrayConfig::eyeriss_65nm(),
        ComputePath::Software,
        SparseDispatch::DenseOnly,
    );
    let dense_fused = dense.run_pipelined(&plans, &batch, true, true).unwrap();
    assert_eq!(dense_fused.logits, reference.logits, "dense-only fused logits");
}
