//! `region_fleet`: the six-bundle region matrix (park-to-PM bundle on,
//! Azure-style bursty trace, default eight-workload mix, baseline and
//! Memento, uniform and bursty traces) on the Profiled engine, one thread.
//!
//! The bench drives `calibrate`, `generate_trace` and `simulate` itself,
//! with the cell configurations of `experiments::region`, so set-up
//! (calibration and arrival generation) and the event engine split at
//! public calls. `tests::cells_match_the_region_experiment` holds the copy
//! of the cell configurations to the experiment's own rows.

use crate::measure::{fnv1a, mix_seed, secs, PassLog};
use crate::spans;
use memento_cluster::{
    calibrate, generate_trace, simulate, Arrival, ArrivalConfig, ArrivalTrace, Autoscaler,
    AutoscalerConfig, ClusterConfig, ClusterResult, ColdStart, EmpiricalTrace, Engine, FlashCrowd,
    KeepAlive, Placement, ProfileTable, Reclamation, ServiceProfile, UniformTrace, WorkloadMix,
};
use memento_experiments::region::{RegionParams, DEFAULT_MIX};
use memento_system::SystemConfig;
use memento_workloads::spec::WorkloadSpec;
use memento_workloads::suite;
use std::time::Instant;

/// Policy bundles in `experiments::region` order: (label, reclaims).
pub const BUNDLES: [(&str, bool); 6] = [
    ("fixed-fleet", false),
    ("autoscale", false),
    ("+snapshot", false),
    ("+squeeze", true),
    ("kiss", true),
    ("park-to-pm", false),
];

pub const CONFIGS: [&str; 2] = ["baseline", "memento"];

/// Per-config knobs every bundle shares (as `experiments::region` derives
/// them from the calibrated profiles).
struct Knobs {
    fixed_ttl: u64,
    size_aware: KeepAlive,
    watermark: u64,
    autoscaler: AutoscalerConfig,
    pm_ttl: u64,
}

fn knobs(params: &RegionParams, profiles: &[ServiceProfile]) -> Knobs {
    let service_sum: u64 = profiles.iter().map(|p| p.warm_cycles).sum();
    let mean_service = service_sum as f64 / profiles.len().max(1) as f64;
    let fixed_ttl = (mean_service * 20.0) as u64;
    let idle_sum: u64 = profiles.iter().map(|p| p.idle_frames).sum();
    let mut idles: Vec<u64> = profiles.iter().map(|p| p.idle_frames).collect();
    idles.sort_unstable();
    let median_idle = idles[idles.len() / 2].max(1);
    let max_cold = profiles.iter().map(|p| p.cold_cycles).max().unwrap_or(1);
    Knobs {
        fixed_ttl,
        size_aware: KeepAlive::SizeAware {
            budget_frame_cycles: fixed_ttl * median_idle,
            min_cycles: (fixed_ttl / 8).max(1),
            max_cycles: fixed_ttl * 8,
        },
        watermark: (params.max_nodes as u64 * idle_sum) / 2,
        autoscaler: AutoscalerConfig {
            interval_cycles: (mean_service * 4.0) as u64,
            target_load_pct: 70,
            min_nodes: params.min_nodes,
            max_nodes: params.max_nodes,
            spinup_cycles: 8 * max_cold,
        },
        pm_ttl: fixed_ttl * 8,
    }
}

fn cell_config(params: &RegionParams, k: &Knobs, bundle: &str, reclaims: bool) -> ClusterConfig {
    ClusterConfig {
        nodes: params.nodes,
        queue_capacity: params.queue_capacity,
        cores_per_node: 1,
        placement: Placement::LeastLoaded,
        keep_alive: match bundle {
            "kiss" => k.size_aware,
            "park-to-pm" => KeepAlive::ParkToPM {
                ttl_cycles: k.pm_ttl,
            },
            _ => KeepAlive::Fixed(k.fixed_ttl),
        },
        cold_start: if matches!(bundle, "fixed-fleet" | "autoscale") {
            ColdStart::Boot
        } else {
            ColdStart::Snapshot
        },
        reclamation: if reclaims {
            Reclamation::Squeeze {
                watermark_frames: k.watermark,
            }
        } else {
            Reclamation::None
        },
        autoscaler: if bundle == "fixed-fleet" {
            Autoscaler::None
        } else {
            Autoscaler::TargetUtilization(k.autoscaler)
        },
        record_timeline: false,
    }
}

pub struct State {
    pub params: RegionParams,
    pub mix: WorkloadMix,
    tables: Vec<(Knobs, ProfileTable)>,
    /// (trace label, arrivals), uniform first.
    arrival_sets: Vec<(&'static str, Vec<Arrival>)>,
    /// Digest of each cell's result from the first pass.
    pub reference: Option<Vec<u64>>,
}

/// The region shape the workload runs: the default region with the
/// park-to-PM bundle and the Azure-style day curve, seeded.
pub fn params(seed: u64, invocations: u64) -> RegionParams {
    let pinned = RegionParams::default();
    RegionParams {
        invocations,
        seed: mix_seed(pinned.seed, seed),
        park_to_pm: true,
        empirical_trace: true,
        ..pinned
    }
}

/// The default mix at full fidelity with the seed applied.
pub fn specs(seed: u64) -> Vec<WorkloadSpec> {
    DEFAULT_MIX
        .iter()
        .map(|name| {
            let mut spec = suite::by_name(name).expect("default mix is drawn from the suite");
            spec.seed = mix_seed(spec.seed, seed);
            spec
        })
        .collect()
}

/// Calibrates every (config, workload) profile and draws both arrival
/// traces.
pub fn setup_with(specs: Vec<WorkloadSpec>, params: RegionParams) -> State {
    let mix = WorkloadMix::uniform(specs.clone()).expect("non-empty mix");
    let mut tables = Vec::new();
    let mut base_warm = Vec::new();
    for cfg in [SystemConfig::baseline(), SystemConfig::memento()] {
        let profiles: Vec<ServiceProfile> = specs
            .iter()
            .map(|spec| {
                let _s = spans::item("cluster.calibrate");
                calibrate(&cfg, spec, 3)
            })
            .collect();
        if base_warm.is_empty() {
            base_warm = profiles.iter().map(|p| p.warm_cycles as f64).collect();
        }
        tables.push((
            knobs(&params, &profiles),
            ProfileTable::from_profiles(profiles),
        ));
    }
    // Offered load is 0.9x the baseline fixed fleet's warm capacity.
    let mean_service: f64 = base_warm.iter().sum::<f64>() / base_warm.len().max(1) as f64;
    let arrival = ArrivalConfig {
        seed: params.seed,
        count: params.invocations,
        mean_interarrival_cycles: mean_service / (params.nodes as f64 * 0.9),
    };
    let bursty = FlashCrowd {
        base: EmpiricalTrace::azure_day((mean_service * 20_000.0) as u64),
        period_cycles: (mean_service * 2_000.0) as u64,
        burst_cycles: (mean_service * 200.0) as u64,
        multiplier: 3,
    };
    let traces: [(&'static str, &dyn ArrivalTrace); 2] =
        [("uniform", &UniformTrace), ("azure", &bursty)];
    let arrival_sets = traces
        .iter()
        .map(|(label, trace)| {
            let _s = spans::item("cluster.generate_trace");
            (
                *label,
                generate_trace(&arrival, &mix, *trace).expect("valid arrival trace"),
            )
        })
        .collect();
    State {
        params,
        mix,
        tables,
        arrival_sets,
        reference: None,
    }
}

/// Invocations offered per cell: a quarter of the region experiment's
/// 10⁶, so a run makes some twenty passes instead of five and its medians
/// rest on that many samples. The knobs scale with the calibrated
/// profiles, not with the count, so every cell keeps its policy mix.
pub const CELL_INVOCATIONS: u64 = 250_000;

pub fn setup(seed: u64) -> State {
    setup_with(specs(seed), params(seed, CELL_INVOCATIONS))
}

/// One simulated cell.
pub struct CellRun {
    pub trace: &'static str,
    pub bundle: &'static str,
    pub config: &'static str,
    pub result: ClusterResult,
}

impl CellRun {
    fn label(&self) -> String {
        format!("{}/{}/{}", self.trace, self.bundle, self.config)
    }
}

/// Digest of a cell's deterministic outputs.
fn digest(r: &ClusterResult) -> u64 {
    let fields = [
        r.submitted,
        r.completed,
        r.rejected,
        r.cold_starts,
        r.warm_starts,
        r.expired,
        r.retired,
        r.live_containers,
        r.restores,
        r.squeezed,
        r.pm_parks,
        r.pm_restores,
        r.peak_active_nodes,
        r.makespan_cycles,
        r.peak_fleet_frames,
        r.final_fleet_frames,
    ];
    let bytes: Vec<u8> = fields
        .iter()
        .chain(&r.latencies)
        .flat_map(|x| x.to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

/// The output checks behind `failed`: clean audits, conserved
/// invocations, a PM bundle that parks, and the same result every pass.
pub fn check_cell(cell: &CellRun, offered: usize, reference: u64, log: &mut PassLog) {
    let r = &cell.result;
    let conserved = r.submitted == offered as u64 && r.submitted == r.completed + r.rejected;
    let parks = cell.bundle != "park-to-pm" || r.pm_parks > 0;
    let repeats = digest(r) == reference;
    log.checks
        .check(r.is_clean() && conserved && parks && repeats, || {
            format!(
                "region_fleet {}: clean={} submitted={} offered={offered} completed={} \
                 rejected={} pm_parks={} repeats={repeats}",
                cell.label(),
                r.is_clean(),
                r.submitted,
                r.completed,
                r.rejected,
                r.pm_parks,
            )
        });
}

/// Simulates every cell once, trace-major, then bundle, then config.
pub fn pass(state: &mut State, log: &mut PassLog) -> Vec<CellRun> {
    let mut cells = Vec::new();
    for (trace, arrivals) in &state.arrival_sets {
        for (bundle, reclaims) in BUNDLES {
            for (config, (k, table)) in CONFIGS.iter().zip(&state.tables) {
                let cfg = cell_config(&state.params, k, bundle, reclaims);
                let engine = Engine::Profiled(table.clone());
                let span = spans::item("cluster.simulate");
                let t = Instant::now();
                let result =
                    simulate(engine, &cfg, &state.mix, arrivals).expect("validated config");
                let dt = secs(t);
                drop(span);
                log.items_s.push(dt);
                log.work += result.submitted as f64;
                log.work_s += dt;
                cells.push(CellRun {
                    trace,
                    bundle,
                    config,
                    result,
                });
            }
        }
    }
    let reference = state
        .reference
        .get_or_insert_with(|| cells.iter().map(|c| digest(&c.result)).collect());
    let per_trace = BUNDLES.len() * CONFIGS.len();
    for (i, cell) in cells.iter().enumerate() {
        let offered = state.arrival_sets[i / per_trace].1.len();
        check_cell(cell, offered, reference[i], log);
    }
    cells
}

/// Digest of a whole matrix, so two commits can be compared exactly.
pub fn matrix_digest(cells: &[CellRun]) -> u64 {
    let bytes: Vec<u8> = cells
        .iter()
        .flat_map(|c| digest(&c.result).to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memento_experiments::region::run_specs;
    use memento_sanitizer::report::{Provenance, Violation, ViolationKind};

    fn small_state() -> State {
        let specs: Vec<WorkloadSpec> = specs(5)
            .into_iter()
            .map(|mut s| {
                s.total_instructions /= 64;
                s
            })
            .collect();
        setup_with(specs, params(5, 20_000))
    }

    #[test]
    fn cells_match_the_region_experiment() {
        let mut state = small_state();
        let mut log = PassLog::default();
        let cells = pass(&mut state, &mut log);
        assert_eq!(log.checks.failed, 0);
        let report = run_specs(state.mix.specs().to_vec(), 1, state.params).expect("runs");
        assert_eq!(report.rows.len(), cells.len());
        for (row, cell) in report.rows.iter().zip(&cells) {
            let r = &cell.result;
            let (p50, p95, p99) = r.latency_percentiles();
            let us = memento_system::stats::CORE_FREQ_HZ / 1e6;
            assert_eq!(
                (row.trace.as_str(), row.policy.as_str(), row.config.as_str()),
                (cell.trace, cell.bundle, cell.config)
            );
            assert_eq!(
                (row.completed, row.rejected, row.restores, row.squeezed),
                (r.completed, r.rejected, r.restores, r.squeezed)
            );
            assert_eq!(
                (row.pm_parks, row.pm_restores, row.peak_nodes),
                (r.pm_parks, r.pm_restores, r.peak_active_nodes)
            );
            assert_eq!(
                (row.p50_us, row.p95_us, row.p99_us),
                (p50 as f64 / us, p95 as f64 / us, p99 as f64 / us)
            );
        }
    }

    #[test]
    fn dirty_audit_and_lost_invocations_are_failures() {
        let mut state = small_state();
        let mut log = PassLog::default();
        let mut cells = pass(&mut state, &mut log);
        let offered = state.arrival_sets[0].1.len();
        let reference = digest(&cells[0].result);

        cells[0].result.audit.violations.push(Violation {
            kind: ViolationKind::ArenaLifecycle,
            provenance: Provenance {
                core: 0,
                event_index: 0,
                class: None,
            },
            detail: "injected".into(),
        });
        let mut log = PassLog::default();
        check_cell(&cells[0], offered, reference, &mut log);
        assert_eq!(log.checks.failed, 1);

        cells[1].result.completed -= 1;
        let mut log = PassLog::default();
        check_cell(&cells[1], offered, digest(&cells[1].result), &mut log);
        assert_eq!(log.checks.failed, 1);
    }
}
