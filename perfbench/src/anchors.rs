//! Paper anchors from `mime-systolic`, as exact analytic counts: the
//! Fig. 4 DRAM storage ratio at three child tasks and the Fig. 6 mean
//! per-layer energy savings of MIME in Pipelined mode against Case-1
//! and Case-2. They depend on no input and read the same on every run.

use mime_systolic::{
    simulate_network, vgg16_geometry, Approach, ArrayConfig, DramStorageModel, Scenario,
    TaskMode,
};

/// `(fig4_storage_ratio, fig6_savings_vs_case1, fig6_savings_vs_case2)`.
pub fn paper_anchors() -> (f64, f64, f64) {
    let geoms = vgg16_geometry(224);
    let storage = DramStorageModel::from_geometry(&geoms).savings(3);
    let cfg = ArrayConfig::eyeriss_65nm();
    let run = |approach| {
        simulate_network(
            &geoms,
            &cfg,
            &Scenario { mode: TaskMode::paper_pipelined(), approach },
        )
    };
    let (c1, c2, mime) = (run(Approach::Case1), run(Approach::Case2), run(Approach::Mime));
    // the layers Fig. 6 plots (the `fig6_pipelined` binary's selection)
    let shown = [1usize, 3, 5, 7, 9, 11, 13];
    let mean_ratio = |base: &[mime_systolic::LayerResult]| {
        shown.iter().map(|&i| base[i].total_energy() / mime[i].total_energy()).sum::<f64>()
            / shown.len() as f64
    };
    (storage, mean_ratio(&c1), mean_ratio(&c2))
}

/// The anchors as one JSON line.
pub fn json() -> String {
    let (storage, case1, case2) = paper_anchors();
    format!(
        "{{\"anchors\": {{\"fig4_storage_ratio_3_tasks\": {storage:?}, \
         \"fig6_pipelined_savings_vs_case1\": {case1:?}, \
         \"fig6_pipelined_savings_vs_case2\": {case2:?}}}}}"
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn anchors_repeat_exactly_and_sit_in_the_papers_range() {
        let a = super::paper_anchors();
        assert_eq!(a, super::paper_anchors());
        assert!((3.0..4.0).contains(&a.0), "Fig. 4 ratio {}", a.0);
        assert!(a.1 > a.2 && a.2 > 1.0, "Fig. 6 savings {a:?}");
    }
}
