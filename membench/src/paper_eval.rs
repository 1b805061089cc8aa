//! `paper_eval`: the full paper evaluation at the golden scale, checked
//! field by field against the golden reference.
//!
//! The untraced pass calls `experiments::report::run` exactly as
//! the `full_evaluation` CLI does. The traced pass drives the same sections
//! through their public calls so each gets a span; both passes are held
//! to the same golden reference, so the section-by-section copy cannot
//! drift from `report::run` unnoticed.

use crate::golden::{self, GOLDEN_SCALE};
use crate::measure::PassLog;
use crate::spans;
use memento_experiments::context::STEADY_INVOCATIONS;
use memento_experiments::report::{self, FullReport};
use memento_experiments::{
    arena_list, bandwidth, breakdown, characterization, cluster, comparisons, config_table, hot,
    memusage, multicore, pricing, region, sensitivity, speedup, ConfigKind, EvalContext, SimPoint,
};
use memento_simcore::json::Value;
use memento_workloads::event::Event;
use memento_workloads::generator::generate;
use memento_workloads::spec::{Category, Language};
use std::collections::BTreeMap;

pub struct State {
    reference: Value,
    /// Trace events one simulation point of each workload steps.
    events: BTreeMap<String, u64>,
    pub jobs: usize,
}

/// Trace events a simulation point steps: the whole trace for a cold
/// function, `STEADY_INVOCATIONS` trace bodies for a warm container.
pub fn point_events(category: Category, events: &[Event]) -> u64 {
    if category == Category::Function {
        events.len() as u64
    } else {
        let body = match events.last() {
            Some(Event::Exit) => events.len() - 1,
            _ => events.len(),
        };
        (STEADY_INVOCATIONS * body) as u64
    }
}

/// Loads the golden reference and counts the events of every point. The
/// seed is not applied: the reference was made with the pinned seeds.
pub fn setup() -> State {
    let ctx = EvalContext::scaled(GOLDEN_SCALE);
    let events = ctx
        .workloads()
        .iter()
        .map(|spec| {
            let trace = generate(spec);
            (
                spec.name.clone(),
                point_events(spec.category, &trace.events),
            )
        })
        .collect();
    State {
        reference: golden::load(),
        events,
        jobs: ctx.jobs(),
    }
}

fn check_summary(state: &State, summary: &Value, log: &mut PassLog) {
    let found = golden::mismatches(&state.reference, summary);
    log.checks.check(found.is_empty(), || {
        format!(
            "paper_eval summary diverged from the golden reference: {}",
            found.join("; ")
        )
    });
}

/// Items are the simulation points of the machine sweep; work is the
/// trace events those points stepped per second of the sweep's wall time.
fn log_sweep(state: &State, ctx: &EvalContext, log: &mut PassLog) {
    let timing = ctx.timing();
    for shard in &timing.shards {
        log.items_s.push(shard.wall.as_secs_f64());
        let name = shard.key.split('/').next().unwrap_or_default();
        log.work += state.events.get(name).copied().unwrap_or(0) as f64;
    }
    log.work_s += timing.wall.as_secs_f64();
}

/// One pass as users run it: `report::run` plus `summary_json`.
pub fn pass(state: &State, log: &mut PassLog) {
    let mut ctx = EvalContext::scaled(GOLDEN_SCALE);
    let summary = report::run(&mut ctx).summary_json();
    log_sweep(state, &ctx, log);
    check_summary(state, &summary, log);
}

/// The points `report::run` prefetches, in the same order.
fn report_points(ctx: &EvalContext) -> Vec<SimPoint> {
    let mut points = Vec::new();
    for spec in ctx.workloads() {
        let mut kinds = vec![
            ConfigKind::Baseline,
            ConfigKind::Memento,
            ConfigKind::MementoNoBypass,
        ];
        if spec.category == Category::Function {
            kinds.extend([ConfigKind::IsoStorage, ConfigKind::BaselinePopulate]);
            if spec.language == Language::Cpp {
                kinds.push(ConfigKind::IdealMallacc);
            }
        }
        points.extend(kinds.into_iter().map(|k| SimPoint::new(spec.clone(), k)));
    }
    points
}

/// Host seconds of each report section in one traced pass.
pub const SECTIONS: [&str; 6] = [
    "experiments.prefetch",
    "experiments.figures",
    "experiments.cluster_run",
    "experiments.multicore_run",
    "experiments.region_run",
    "experiments.summary",
];

/// One pass with a span around each section of the report. Returns the
/// sweep's concurrency (shard time over wall time).
pub fn traced_pass(state: &State, log: &mut PassLog) -> f64 {
    let _pass = spans::item("bench.paper_eval_pass");
    let mut ctx = EvalContext::scaled(GOLDEN_SCALE);
    {
        let _s = spans::span(SECTIONS[0]);
        let points = report_points(&ctx);
        ctx.prefetch(points);
    }
    let figures = spans::span(SECTIONS[1]);
    let config = config_table::run();
    let characterization = characterization::run(&ctx);
    let mm_breakdown = characterization::mm_breakdown(&mut ctx);
    let speedup = speedup::run(&mut ctx);
    let breakdown = breakdown::run(&mut ctx);
    let bandwidth = bandwidth::run(&mut ctx);
    let memusage = memusage::run(&mut ctx);
    let hot = hot::run(&mut ctx);
    let arena_list = arena_list::run(&mut ctx);
    let pricing = pricing::run(&mut ctx);
    let iso = comparisons::iso_storage(&mut ctx);
    let mallacc = comparisons::mallacc(&mut ctx);
    let populate = sensitivity::populate(&mut ctx);
    let fragmentation = sensitivity::fragmentation(&mut ctx);
    drop(figures);
    let cluster = {
        let _s = spans::span(SECTIONS[2]);
        cluster::run(&ctx).expect("default cluster mix is drawn from the suite")
    };
    let multicore = {
        let _s = spans::span(SECTIONS[3]);
        multicore::run_for_jobs(
            &["html", "US", "bfs-go", "jl"],
            ctx.scale_divisor().saturating_mul(2),
            ctx.jobs(),
        )
        .expect("default contention mix is drawn from the suite")
    };
    let region = {
        let _s = spans::span(SECTIONS[4]);
        region::run(&ctx).expect("default region mix is drawn from the suite")
    };
    let summary = {
        let _s = spans::span(SECTIONS[5]);
        FullReport {
            config,
            characterization,
            mm_breakdown,
            speedup,
            breakdown,
            bandwidth,
            memusage,
            hot,
            arena_list,
            pricing,
            iso,
            mallacc,
            populate,
            fragmentation,
            cluster,
            multicore,
            region,
        }
        .summary_json()
    };
    log_sweep(state, &ctx, log);
    check_summary(state, &summary, log);
    let timing = ctx.timing();
    timing.shard_time().as_secs_f64() / timing.wall.as_secs_f64().max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perturbed_reference_value_fails_the_pass_check() {
        let mut state = setup();
        let summary = state.reference.clone();
        let mut log = PassLog::default();
        check_summary(&state, &summary, &mut log);
        assert_eq!((log.checks.attempted, log.checks.failed), (1, 0));

        if let Value::Object(fields) = &mut state.reference {
            if let Some((_, Value::Num(x))) =
                fields.iter_mut().find(|(_, v)| matches!(v, Value::Num(_)))
            {
                *x *= 1.0 + 1e-6;
            }
        }
        check_summary(&state, &summary, &mut log);
        assert_eq!((log.checks.attempted, log.checks.failed), (2, 1));
    }
}
