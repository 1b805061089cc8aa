//! The parallel harness's core contract: fanning simulation points across
//! worker threads must not change a single byte of any result table.
//! Every comparison here renders the full `Display` output — not just
//! headline numbers — so ordering, formatting, and aggregation are all
//! under test.

use memento_experiments::context::{ConfigKind, EvalContext};
use memento_experiments::{ablation, characterization, multicore, speedup};

/// A small-but-mixed workload set: Python, C++, and Go functions plus a
/// steady-state data-processing member, so both the cold `run` and the
/// warm `run_invocations` paths cross the worker pool.
const NAMES: [&str; 4] = ["aes", "US", "bfs-go", "SQLite3"];

#[test]
fn speedup_table_identical_serial_vs_parallel() {
    let render = |jobs: usize| {
        let mut ctx = EvalContext::quick().with_jobs(jobs);
        let specs: Vec<_> = NAMES.iter().map(|n| ctx.workload(n)).collect();
        ctx.prefetch_kinds(&specs, &[ConfigKind::Baseline, ConfigKind::Memento]);
        speedup::run_for(&mut ctx, &specs).to_string()
    };
    let serial = render(1);
    let parallel = render(4);
    assert_eq!(serial, parallel, "speedup table diverged under --jobs 4");
}

#[test]
fn ablation_table_identical_serial_vs_parallel() {
    let serial = ablation::run_for_jobs(&["html", "US"], 8, 1)
        .expect("known workloads")
        .to_string();
    let parallel = ablation::run_for_jobs(&["html", "US"], 8, 4)
        .expect("known workloads")
        .to_string();
    assert_eq!(serial, parallel, "ablation table diverged under --jobs 4");
}

#[test]
fn characterization_identical_serial_vs_parallel() {
    let ctx = EvalContext::quick();
    let specs: Vec<_> = NAMES.iter().map(|n| ctx.workload(n)).collect();
    let serial = characterization::run_for_jobs(&specs, 1).to_string();
    let parallel = characterization::run_for_jobs(&specs, 4).to_string();
    assert_eq!(serial, parallel, "characterization diverged under --jobs 4");
}

#[test]
fn multicore_table_identical_serial_vs_parallel() {
    let serial = multicore::run_for_jobs(&["aes", "jl"], 8, 1)
        .expect("known workloads")
        .to_string();
    let parallel = multicore::run_for_jobs(&["aes", "jl"], 8, 4)
        .expect("known workloads")
        .to_string();
    assert_eq!(serial, parallel, "multicore table diverged under --jobs 4");
}

#[test]
fn cluster_table_identical_serial_vs_parallel() {
    use memento_experiments::cluster::{self, ClusterParams};
    let params = ClusterParams {
        nodes: 4,
        queue_capacity: 16,
        invocations: 600,
        seed: 7,
    };
    let render = |jobs: usize| {
        cluster::run_for_jobs(&["aes", "html"], 8, jobs, params)
            .expect("known workloads")
            .to_string()
    };
    let serial = render(1);
    let parallel = render(4);
    assert_eq!(serial, parallel, "cluster table diverged under --jobs 4");
}

#[test]
fn prefetch_plan_ignores_submission_order() {
    use memento_experiments::SimPoint;
    let kinds = [
        ConfigKind::Baseline,
        ConfigKind::Memento,
        ConfigKind::MementoNoBypass,
    ];
    let render = |reverse: bool| {
        let mut ctx = EvalContext::quick().with_jobs(4);
        let specs: Vec<_> = NAMES.iter().map(|n| ctx.workload(n)).collect();
        let mut points: Vec<SimPoint> = specs
            .iter()
            .flat_map(|s| kinds.iter().map(|k| SimPoint::new(s.clone(), *k)))
            .collect();
        if reverse {
            points.reverse();
        }
        ctx.prefetch(points);
        let specs_again: Vec<_> = NAMES.iter().map(|n| ctx.workload(n)).collect();
        speedup::run_for(&mut ctx, &specs_again).to_string()
    };
    assert_eq!(render(false), render(true));
}
