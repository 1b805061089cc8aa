//! Per-run profiling: one traced simulation rendered as a cycle flame
//! table, a metrics appendix, and a heap-profile sample table.
//!
//! This is the reporting end of the observability layer: the machine
//! mirrors every cycle charge into `memento_obs` during the run, and this
//! module turns the result into the three plain-text views EXPERIMENTS.md
//! calls the profiling appendix. The run itself produces byte-identical
//! [`RunStats`] to an untraced run — tracing only *observes*.

use crate::context::{ConfigKind, EvalContext};
use memento_obs::profile::render_samples;
use memento_system::{Machine, RunStats};
use memento_workloads::spec::WorkloadSpec;
use std::fmt;
use std::path::Path;

/// Everything one profiled run produces, pre-rendered for printing.
pub struct ProfileReport {
    /// Workload/config the run profiled (header for the appendix).
    pub title: String,
    /// The run's ordinary statistics — byte-identical to an untraced run.
    pub stats: RunStats,
    /// Flame-style per-phase cycle breakdown from the tracer.
    pub flame: String,
    /// Counters + histograms rendered by the metrics registry.
    pub metrics: String,
    /// Heap-profile samples (live bytes, pool frames, HOT residency).
    pub samples: String,
    /// Total cycles attributed across all trace spans. Reconciles with the
    /// machine's cycle ledger by construction: every ledger charge becomes
    /// exactly one span of the same length.
    pub charged_cycles: u64,
}

/// Runs `spec` under `kind` with tracing enabled — the same run the
/// figures measure ([`EvalContext::simulate`]) — and renders the
/// profiling views. When `trace_path` is given the machine also writes the
/// Chrome/Perfetto `trace_event` JSON there at run end (open it in
/// `ui.perfetto.dev`); otherwise the trace stays in memory.
pub fn profile_run(
    spec: &WorkloadSpec,
    kind: ConfigKind,
    trace_path: Option<&Path>,
) -> ProfileReport {
    let cfg = kind.system_config();
    let cfg = match trace_path {
        Some(p) => cfg.traced(p),
        None => cfg.traced_in_memory(),
    };
    let mut machine = Machine::new(cfg);
    let stats = EvalContext::simulate_on(&mut machine, spec);
    let obs = machine
        .observability()
        .expect("profile_run enables tracing");
    ProfileReport {
        title: format!("{}/{:?}", spec.name, kind),
        flame: obs.tracer().flame_table(),
        metrics: obs.metrics().render(),
        samples: render_samples(obs.samples()),
        charged_cycles: obs.tracer().total_charged(),
        stats,
    }
}

impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Profile — {}", self.title)?;
        writeln!(
            f,
            "total cycles {}  (traced/attributed {})",
            self.stats.total_cycles().raw(),
            self.charged_cycles
        )?;
        writeln!(f)?;
        writeln!(f, "{}", self.flame)?;
        writeln!(f, "metrics appendix")?;
        writeln!(f, "{}", self.metrics)?;
        if !self.samples.is_empty() {
            writeln!(f, "heap-profile samples")?;
            write!(f, "{}", self.samples)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharding::SimPoint;

    #[test]
    fn profile_renders_all_sections() {
        let ctx = EvalContext::quick();
        let mut spec = ctx.workload("aes");
        spec.total_instructions = 200_000;
        let report = profile_run(&spec, ConfigKind::Memento, None);
        assert!(report.charged_cycles > 0, "spans were attributed");
        let text = report.to_string();
        assert!(text.contains("Profile — aes/Memento"));
        assert!(text.contains("metrics appendix"));
        assert!(text.contains("tlb.l1.hits"), "layer stats ingested");
        assert!(text.contains("user"), "flame table has the user phase");
    }

    #[test]
    fn profiled_stats_match_untraced_run() {
        let ctx = EvalContext::quick();
        let mut spec = ctx.workload("aes");
        spec.total_instructions = 200_000;
        let report = profile_run(&spec, ConfigKind::Baseline, None);
        let plain = EvalContext::simulate(&SimPoint::new(spec.clone(), ConfigKind::Baseline));
        assert_eq!(
            report.stats.total_cycles(),
            plain.total_cycles(),
            "tracing must be cycle-invisible"
        );
    }

    #[test]
    fn long_running_profile_is_the_figure_run() {
        // A long-running app is profiled on the warm-container steady
        // window the figures report, not on some other warm-up cut.
        let ctx = EvalContext::quick();
        let mut spec = ctx.workload("SQLite3");
        spec.total_instructions = 400_000;
        let report = profile_run(&spec, ConfigKind::Baseline, None);
        let figure = EvalContext::simulate(&SimPoint::new(spec, ConfigKind::Baseline));
        assert_eq!(
            format!("{:?}", report.stats),
            format!("{figure:?}"),
            "profile_run diverged from the figure path"
        );
    }
}
