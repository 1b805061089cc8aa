//! `machine_sweep`: every suite workload at full fidelity on one thread,
//! under the baseline and Memento machines.
//!
//! Functions run cold (a fresh `Machine` per point, caches empty, as in
//! the paper); the long-running apps run warm (`run_invocations` with
//! `STEADY_INVOCATIONS`, steady window). The fleet layers do no work here.

use crate::measure::{fnv1a, mix_seed, secs, PassLog};
use crate::paper_eval::point_events;
use crate::spans;
use crate::unit_costs::allocator_family;
use memento_experiments::context::STEADY_INVOCATIONS;
use memento_obs::MetricsRegistry;
use memento_system::{Machine, RunStats, SystemConfig};
use memento_workloads::event::Trace;
use memento_workloads::generator::generate;
use memento_workloads::spec::{Category, WorkloadSpec};
use memento_workloads::suite;
use std::time::Instant;

/// The two machines every point runs on, in report order.
pub const CONFIGS: [&str; 2] = ["baseline", "memento"];

fn system_config(config: usize) -> SystemConfig {
    match config {
        0 => SystemConfig::baseline(),
        _ => SystemConfig::memento(),
    }
}

pub struct Point {
    pub spec: WorkloadSpec,
    /// The pre-generated trace a cold point replays. Warm points are run
    /// through `run_invocations`, which generates its own trace.
    trace: Option<Trace>,
    pub warm: bool,
    /// Trace events one run of the point steps.
    pub events: u64,
    /// Host seconds the trace took to generate in set-up. A warm run pays
    /// this again inside `run_invocations`.
    pub generate_s: f64,
    /// Software allocator family (see `unit_costs::FAMILIES`).
    pub family: usize,
}

pub struct State {
    pub points: Vec<Point>,
    /// Digest of each (config, point)'s statistics from the first pass.
    pub reference: Option<Vec<u64>>,
}

/// Applies the seed to every suite workload and generates the traces.
pub fn setup(seed: u64) -> State {
    let points = suite::all_workloads()
        .into_iter()
        .map(|mut spec| {
            spec.seed = mix_seed(spec.seed, seed);
            let t = Instant::now();
            let trace = {
                let _s = spans::item("workloads.generate");
                generate(&spec)
            };
            let generate_s = secs(t);
            let warm = spec.category != Category::Function;
            Point {
                events: point_events(spec.category, &trace.events),
                generate_s,
                family: allocator_family(spec.allocator),
                trace: (!warm).then_some(trace),
                warm,
                spec,
            }
        })
        .collect();
    State {
        points,
        reference: None,
    }
}

/// One executed point.
pub struct PointRun {
    pub config: usize,
    pub point: usize,
    pub warm: bool,
    pub secs: f64,
    pub events: u64,
    /// The statistics the point reports (the steady window when warm).
    pub stats: RunStats,
    /// Statistics covering everything the timed run simulated: the run
    /// itself when cold, every invocation when warm.
    pub whole: Vec<RunStats>,
    pub digest: u64,
    /// The machine's metrics registry when it ran traced.
    pub registry: Option<MetricsRegistry>,
}

/// Digest of a point's simulated statistics.
pub fn digest(stats: &RunStats, whole: &[RunStats]) -> u64 {
    fnv1a(format!("{stats:?}{whole:?}").as_bytes())
}

/// Runs every point once. With `traced_machines` the machines keep the
/// in-memory metrics registry (TLB and walker counts).
pub fn pass(state: &mut State, traced_machines: bool, log: &mut PassLog) -> Vec<PointRun> {
    let mut runs = Vec::with_capacity(2 * state.points.len());
    for config in 0..CONFIGS.len() {
        for (index, point) in state.points.iter().enumerate() {
            let mut cfg = system_config(config);
            if traced_machines {
                cfg = cfg.traced_in_memory();
            }
            let span = spans::item(if point.warm {
                "system.run_warm"
            } else {
                "system.run_cold"
            });
            let t = Instant::now();
            let mut machine = Machine::new(cfg);
            let (stats, whole) = match &point.trace {
                Some(trace) => {
                    let stats = machine.run_trace(&point.spec, trace);
                    (stats.clone(), vec![stats])
                }
                None => {
                    let run = machine.run_invocations(&point.spec, STEADY_INVOCATIONS);
                    (run.steady, run.invocations)
                }
            };
            let dt = secs(t);
            drop(span);
            log.items_s.push(dt);
            log.work += point.events as f64;
            log.work_s += dt;
            runs.push(PointRun {
                config,
                point: index,
                warm: point.warm,
                secs: dt,
                events: point.events,
                digest: digest(&stats, &whole),
                registry: machine.observability().map(|o| o.metrics().clone()),
                stats,
                whole,
            });
        }
    }
    let reference = state
        .reference
        .get_or_insert_with(|| runs.iter().map(|r| r.digest).collect());
    for (i, run) in runs.iter().enumerate() {
        let name = &state.points[run.point].spec.name;
        log.checks.check(
            run.digest == reference[i] && run.stats.total_cycles().raw() > 0,
            || {
                format!(
                    "machine_sweep {name}/{}: statistics differ from the first pass",
                    CONFIGS[run.config]
                )
            },
        );
    }
    runs
}

/// Digest of a whole sweep, so two commits can be compared exactly.
pub fn sweep_digest(runs: &[PointRun]) -> u64 {
    let bytes: Vec<u8> = runs.iter().flat_map(|r| r.digest.to_le_bytes()).collect();
    fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn changed_statistics_fail_the_repeat_check() {
        let mut state = setup(3);
        state
            .points
            .retain(|p| p.spec.name == "aes-go" || p.spec.name == "SQLite3");
        let mut log = PassLog::default();
        let first = pass(&mut state, false, &mut log);
        assert_eq!(log.checks.failed, 0);
        assert_eq!(log.checks.attempted, 4);

        // A perturbed reference digest stands in for a pass whose
        // simulated statistics changed.
        if let Some(reference) = state.reference.as_mut() {
            reference[1] ^= 1;
        }
        let mut log = PassLog::default();
        let second = pass(&mut state, true, &mut log);
        assert_eq!(log.checks.failed, 1);
        // Machine tracing must not perturb the simulated statistics.
        assert_eq!(sweep_digest(&first), sweep_digest(&second));
        assert!(second.iter().all(|r| r.registry.is_some()));
    }
}
