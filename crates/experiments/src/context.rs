//! Memoized evaluation context: one simulation per (workload, config).

use crate::runner::{self, RunnerTiming};
use crate::sharding::{self, SimPoint};
use memento_system::{Machine, RunStats, SystemConfig};
use memento_workloads::spec::{Category, WorkloadSpec};
use memento_workloads::suite;
use std::collections::HashMap;

/// Invocations per warm container for the steady-state categories:
/// invocation 0 is the cold start, the measured window covers the rest
/// (see [`Machine::run_invocations`]). Three is the smallest count with a
/// multi-invocation steady window.
pub const STEADY_INVOCATIONS: usize = 3;

/// System design points evaluated across the figures.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ConfigKind {
    /// Software stack (the paper's baseline).
    Baseline,
    /// Full Memento.
    Memento,
    /// Memento with main-memory bypass disabled (Figs. 9/10 attribution).
    MementoNoBypass,
    /// §6.1 iso-storage baseline (HOT SRAM donated to the L1D).
    IsoStorage,
    /// §6.7 idealized Mallacc.
    IdealMallacc,
    /// §6.6 `MAP_POPULATE` baseline.
    BaselinePopulate,
}

impl ConfigKind {
    /// The system configuration for this design point.
    pub fn system_config(self) -> SystemConfig {
        match self {
            ConfigKind::Baseline => SystemConfig::baseline(),
            ConfigKind::Memento => SystemConfig::memento(),
            ConfigKind::MementoNoBypass => SystemConfig::memento_no_bypass(),
            ConfigKind::IsoStorage => SystemConfig::iso_storage(),
            ConfigKind::IdealMallacc => SystemConfig::ideal_mallacc(),
            ConfigKind::BaselinePopulate => SystemConfig::baseline_populate(),
        }
    }
}

/// Memoizing evaluation context shared by all experiment runners.
///
/// The context owns the harness's parallelism: [`EvalContext::prefetch`]
/// fans uncached simulation points across `jobs` worker threads and fills
/// the memo cache, after which every aggregation path reads the cache
/// serially — so result tables are byte-identical at any `jobs` setting.
pub struct EvalContext {
    cache: HashMap<(String, ConfigKind), RunStats>,
    scale_divisor: u64,
    jobs: usize,
    timing: RunnerTiming,
}

impl EvalContext {
    /// Full-fidelity context (the workload sizes behind EXPERIMENTS.md).
    /// Worker count comes from `MEMENTO_JOBS` or the machine; override with
    /// [`EvalContext::with_jobs`].
    pub fn new() -> Self {
        Self::at_scale(1)
    }

    /// Quick context for tests/CI: workloads shrunk 8× (shapes preserved,
    /// absolute numbers noisier).
    pub fn quick() -> Self {
        Self::at_scale(8)
    }

    /// Context at an explicit scale divisor (golden-snapshot tests pin a
    /// small fixed scale so the fixture stays cheap to regenerate).
    pub fn scaled(scale_divisor: u64) -> Self {
        Self::at_scale(scale_divisor.max(1))
    }

    fn at_scale(scale_divisor: u64) -> Self {
        EvalContext {
            cache: HashMap::new(),
            scale_divisor,
            jobs: runner::effective_jobs(None),
            timing: RunnerTiming::default(),
        }
    }

    /// Sets the worker-thread count for parallel sweeps (1 = serial).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// The worker-thread count parallel sweeps will use.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The divisor this context applies to every workload's instruction
    /// count (1 = full fidelity).
    pub fn scale_divisor(&self) -> u64 {
        self.scale_divisor
    }

    /// Accumulated timing over every parallel sweep this context ran.
    pub fn timing(&self) -> &RunnerTiming {
        &self.timing
    }

    /// The workload suite at this context's scale.
    pub fn workloads(&self) -> Vec<WorkloadSpec> {
        suite::all_workloads()
            .into_iter()
            .map(|mut s| {
                s.total_instructions /= self.scale_divisor;
                s
            })
            .collect()
    }

    /// One workload by paper name, at this context's scale, with unknown
    /// names reported as a typed error.
    pub fn try_workload(&self, name: &str) -> Result<WorkloadSpec, crate::error::ExperimentError> {
        match suite::by_name(name) {
            Some(mut s) => {
                s.total_instructions /= self.scale_divisor;
                Ok(s)
            }
            None => Err(crate::error::ExperimentError::UnknownWorkload(
                name.to_owned(),
            )),
        }
    }

    /// One workload by paper name, at this context's scale.
    ///
    /// # Panics
    ///
    /// Panics on an unknown name; fallible callers use
    /// [`EvalContext::try_workload`].
    pub fn workload(&self, name: &str) -> WorkloadSpec {
        // lint:allow(panic-in-lib): documented panicking variant; fallible callers use try_workload
        self.try_workload(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Simulates one point from scratch (no memoization) — the worker body
    /// every shard executes, identical on the serial and parallel paths.
    pub fn simulate(point: &SimPoint) -> RunStats {
        Self::simulate_on(&mut Machine::new(point.kind.system_config()), &point.spec)
    }

    /// Runs `spec` on a fresh `machine` the way the figures measure it:
    /// functions run cold once; the long-running categories run as a warm
    /// container serving back-to-back invocations and report the
    /// steady-state window (§6.3). Callers that need the machine afterwards
    /// (e.g. to read its trace) build it themselves.
    pub fn simulate_on(machine: &mut Machine, spec: &WorkloadSpec) -> RunStats {
        if spec.category == Category::Function {
            machine.run(spec)
        } else {
            machine.run_invocations(spec, STEADY_INVOCATIONS).steady
        }
    }

    /// Fans the uncached members of `points` across the context's worker
    /// pool and memoizes their results. Already-cached points cost nothing;
    /// the plan (dedup + shard-id order) is independent of caller order and
    /// thread scheduling, so any later cache read sees the same stats a
    /// serial sweep would have produced.
    pub fn prefetch(&mut self, points: Vec<SimPoint>) -> RunnerTiming {
        let todo: Vec<SimPoint> = sharding::plan(points)
            .into_iter()
            .filter(|p| !self.cache.contains_key(&p.key()))
            .collect();
        let (stats, timing) = runner::map_timed(
            self.jobs,
            &todo,
            Self::simulate,
            |p| format!("{}/{:?}", p.spec.name, p.kind),
            |r| r.total_cycles().raw(),
        );
        for (point, stat) in todo.iter().zip(stats) {
            self.cache.insert(point.key(), stat);
        }
        self.timing.merge(&timing);
        timing
    }

    /// Convenience: prefetches `specs` under every kind in `kinds`.
    pub fn prefetch_kinds(&mut self, specs: &[WorkloadSpec], kinds: &[ConfigKind]) -> RunnerTiming {
        let points = specs
            .iter()
            .flat_map(|s| kinds.iter().map(|k| SimPoint::new(s.clone(), *k)))
            .collect();
        self.prefetch(points)
    }

    /// Runs (or returns the memoized run of) `spec` under `kind`.
    /// Long-running categories are measured at steady state.
    pub fn run(&mut self, spec: &WorkloadSpec, kind: ConfigKind) -> &RunStats {
        let key = (spec.name.clone(), kind);
        self.cache
            .entry(key)
            .or_insert_with(|| EvalContext::simulate(&SimPoint::new(spec.clone(), kind)))
    }

    /// Convenience: the (baseline, memento) pair for `spec`.
    pub fn pair(&mut self, spec: &WorkloadSpec) -> (RunStats, RunStats) {
        let base = self.run(spec, ConfigKind::Baseline).clone();
        let mem = self.run(spec, ConfigKind::Memento).clone();
        (base, mem)
    }
}

impl Default for EvalContext {
    fn default() -> Self {
        EvalContext::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_context_scales_workloads() {
        let full = EvalContext::new();
        let quick = EvalContext::quick();
        let f = full.workload("aes");
        let q = quick.workload("aes");
        assert_eq!(f.total_instructions, q.total_instructions * 8);
    }

    #[test]
    fn runs_are_memoized() {
        let mut ctx = EvalContext::quick();
        let mut spec = ctx.workload("aes");
        spec.total_instructions = 50_000;
        let a = ctx.run(&spec, ConfigKind::Baseline).total_cycles();
        let b = ctx.run(&spec, ConfigKind::Baseline).total_cycles();
        assert_eq!(a, b);
        assert_eq!(ctx.cache.len(), 1);
    }

    #[test]
    fn prefetch_matches_serial_run() {
        let mut serial = EvalContext::quick().with_jobs(1);
        let mut parallel = EvalContext::quick().with_jobs(4);
        let mut spec = serial.workload("aes");
        spec.total_instructions = 100_000;
        let points: Vec<SimPoint> = [ConfigKind::Baseline, ConfigKind::Memento]
            .into_iter()
            .map(|k| SimPoint::new(spec.clone(), k))
            .collect();
        serial.prefetch(points.clone());
        let timing = parallel.prefetch(points);
        assert_eq!(timing.shards.len(), 2);
        for kind in [ConfigKind::Baseline, ConfigKind::Memento] {
            assert_eq!(
                serial.run(&spec, kind).total_cycles(),
                parallel.run(&spec, kind).total_cycles(),
                "{kind:?} diverged between serial and parallel"
            );
        }
        // A second prefetch of the same points is a cached no-op.
        let again = parallel.prefetch(
            [ConfigKind::Baseline, ConfigKind::Memento]
                .into_iter()
                .map(|k| SimPoint::new(spec.clone(), k))
                .collect(),
        );
        assert!(again.shards.is_empty());
    }

    #[test]
    fn config_kinds_materialize() {
        for kind in [
            ConfigKind::Baseline,
            ConfigKind::Memento,
            ConfigKind::MementoNoBypass,
            ConfigKind::IsoStorage,
            ConfigKind::IdealMallacc,
            ConfigKind::BaselinePopulate,
        ] {
            let cfg = kind.system_config();
            assert!(cfg.cores >= 1);
        }
    }
}
