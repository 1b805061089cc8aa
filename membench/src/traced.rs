//! The traced run: per-layer numbers for every layer.
//!
//! One traced run covers all three workloads, so every per-layer metric
//! is measured on the workload whose path crosses its layer, whichever
//! workload was named. For each workload it alternates untraced passes
//! with passes that record bench-side spans; their ratio is the tracing
//! overhead. `machine_sweep` adds one pass on machines that keep the
//! in-memory metrics registry (TLB and walker counts), whose statistics
//! must equal the untraced ones. The unit-cost loops then price each
//! layer operation, and the machine run time is attributed as
//! Σ count × ns/op with an explicit residual.

use crate::machine_sweep::{self, Point, PointRun};
use crate::measure::{median, secs, Checks, Metrics, PassLog};
use crate::region_fleet::{self, CellRun};
use crate::unit_costs::{self, UnitCosts, FAMILIES};
use crate::{paper_eval, spans, Workload};
use memento_obs::selfprof;
use memento_system::RunStats;
use std::time::Instant;

/// Least untraced/traced pass pairs per workload (a `region_fleet` pass
/// takes seconds, the others well under one).
const PAPER_PAIRS: usize = 3;
const SWEEP_PAIRS: usize = 3;
const REGION_PAIRS: usize = 1;

/// Median host seconds of the untraced and the traced passes, and how many
/// pairs ran.
struct Pairs {
    untraced: f64,
    traced: f64,
    count: usize,
}

impl Pairs {
    fn overhead(&self) -> f64 {
        self.traced / self.untraced - 1.0
    }
}

/// Runs `pass` untraced and with spans on, at least `min` pairs and until
/// `budget_s` seconds have passed, alternating which side runs first.
/// Leaves span recording on.
fn pairs(min: usize, budget_s: f64, mut pass: impl FnMut(bool)) -> Pairs {
    let start = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    while traced.len() < min || secs(start) < budget_s {
        let order = if traced.len() % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for with_spans in order {
            if with_spans {
                spans::enable();
            } else {
                spans::disable();
            }
            let t = Instant::now();
            pass(with_spans);
            let side = if with_spans {
                &mut traced
            } else {
                &mut untraced
            };
            side.push(secs(t));
        }
    }
    spans::enable();
    Pairs {
        untraced: median(&untraced),
        traced: median(&traced),
        count: traced.len(),
    }
}

/// The traced run. The named workload keeps alternating untraced and
/// traced passes for `seconds`, which sets how well its tracing overhead
/// is measured; the other two make their least number of pairs.
pub fn run(requested: Workload, seed: u64, seconds: f64) -> (Metrics, Checks) {
    let mut m = Metrics::default();
    let mut checks = Checks::default();
    let budget = |w: Workload| if w == requested { seconds } else { 0.0 };
    let mut overhead = 0.0;
    spans::enable();

    // paper_eval: section times of the report.
    let mut log = PassLog::default();
    let state = {
        let _s = spans::item("bench.setup");
        paper_eval::setup()
    };
    let mut concurrency = Vec::new();
    let paper = pairs(PAPER_PAIRS, budget(Workload::PaperEval), |traced| {
        if traced {
            concurrency.push(paper_eval::traced_pass(&state, &mut log));
        } else {
            paper_eval::pass(&state, &mut log);
        }
    });
    if requested == Workload::PaperEval {
        overhead = paper.overhead();
    }
    checks.merge(log.checks);
    let recorded = spans::recorded();
    for name in paper_eval::SECTIONS {
        m.put(
            format!("{name}_s"),
            spans::total_secs(&recorded, name) / paper.count as f64,
            "s",
        );
    }
    m.put(
        "experiments.runner.concurrency",
        median(&concurrency),
        "ratio",
    );

    // machine_sweep: machine-layer times and counts.
    let mut log = PassLog::default();
    let mut sweep = machine_sweep::setup(seed);
    let events: u64 = sweep.points.iter().map(|p| p.events).sum();
    let mut traced_runs = Vec::new();
    let sweep_pairs = pairs(SWEEP_PAIRS, budget(Workload::MachineSweep), |traced| {
        let runs = machine_sweep::pass(&mut sweep, false, &mut log);
        if traced {
            traced_runs.push(runs);
        }
    });
    if requested == Workload::MachineSweep {
        overhead = sweep_pairs.overhead();
    }
    spans::disable();
    let t = Instant::now();
    let registry_runs = machine_sweep::pass(&mut sweep, true, &mut log);
    let machine_overhead = secs(t) / sweep_pairs.untraced - 1.0;
    checks.merge(log.checks);
    let recorded = spans::recorded();
    m.put(
        "workloads.generate_s",
        spans::total_secs(&recorded, "workloads.generate"),
        "s",
    );
    m.put("workloads.events", events as f64, "count");

    // region_fleet: set-up calls and the event engine.
    spans::enable();
    let mut log = PassLog::default();
    let mut state = region_fleet::setup(seed);
    let mut cells = Vec::new();
    let region = pairs(REGION_PAIRS, budget(Workload::RegionFleet), |traced| {
        if traced {
            selfprof::enable();
        }
        let run = region_fleet::pass(&mut state, &mut log);
        if traced {
            selfprof::disable();
            cells = run;
        }
    });
    if requested == Workload::RegionFleet {
        overhead = region.overhead();
    }
    spans::disable();
    checks.merge(log.checks);
    let recorded = spans::recorded();

    let units = unit_costs::measure();
    put_system(&mut m, &sweep.points, &traced_runs, &registry_runs, &units);
    put_cluster(&mut m, &recorded, &cells, region.count);

    let self_s = spans::self_secs_by_layer(&recorded);
    for layer in ["bench", "workloads", "system", "cluster", "experiments"] {
        m.put(
            format!("{layer}.self_s"),
            self_s.get(layer).copied().unwrap_or(0.0),
            "s",
        );
    }
    m.put("obs.trace_overhead_frac", overhead, "frac");
    m.put("obs.machine_trace_overhead_frac", machine_overhead, "frac");
    write_trace(requested, seed, &recorded);
    (m, checks)
}

/// Writes the recorded spans next to the benchmark sources.
fn write_trace(requested: Workload, seed: u64, recorded: &[spans::Span]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-seed{seed}.json", requested.name()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans::to_chrome_json(recorded)));
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

/// Counts summed over a group of machine points.
#[derive(Default)]
struct Group {
    secs: f64,
    events: u64,
    cache_accesses: u64,
    llc_misses: u64,
    tlb_lookups: u64,
    walks: u64,
    obj_allocs: u64,
    /// Software allocations per allocator family.
    soft_allocs: [u64; 3],
    /// Trace generation inside warm runs, priced at its set-up time.
    generate_s: f64,
}

impl Group {
    /// Σ count × exclusive ns/op over the priced layer operations, in s.
    fn attributed_s(&self, u: &UnitCosts) -> f64 {
        let hits = self.cache_accesses.saturating_sub(self.llc_misses) as f64;
        let soft: f64 = (0..3)
            .map(|f| self.soft_allocs[f] as f64 * u.soft_pair_exclusive[f])
            .sum();
        (hits * u.cache_hit
            + self.llc_misses as f64 * u.cache_miss
            + self.tlb_lookups as f64 * u.tlb_lookup
            + self.walks as f64 * u.walk_exclusive
            + self.obj_allocs as f64 * u.obj_pair_exclusive
            + soft)
            / 1e9
            + self.generate_s
    }
}

fn counter(run: &PointRun, name: &str) -> u64 {
    run.registry.as_ref().map_or(0, |r| r.counter(name))
}

/// Sums `f` over every statistics window the timed runs simulated.
fn total(runs: &[&PointRun], f: impl Fn(&RunStats) -> u64) -> u64 {
    runs.iter().flat_map(|r| &r.whole).map(f).sum()
}

/// Machine-layer metrics: times from the span passes, counts from the
/// simulated statistics and the traced machines' registries.
fn put_system(
    m: &mut Metrics,
    points: &[Point],
    traced: &[Vec<PointRun>],
    registry: &[PointRun],
    u: &UnitCosts,
) {
    let passes = traced.len().max(1) as f64;
    let mut groups: [[Group; 2]; 2] = Default::default();
    for run in traced.iter().flatten() {
        groups[usize::from(run.warm)][run.config].secs += run.secs / passes;
    }
    for run in registry {
        let g = &mut groups[usize::from(run.warm)][run.config];
        let point = &points[run.point];
        let one = [run];
        g.events += run.events;
        g.cache_accesses += total(&one, |s| s.mem.l1d.demand.hits + s.mem.l1d.demand.misses);
        g.llc_misses += total(&one, |s| s.mem.llc.demand.misses);
        g.tlb_lookups += counter(run, "tlb.l1.hits") + counter(run, "tlb.l1.misses");
        g.walks += counter(run, "walk.completed") + counter(run, "walk.faulted");
        g.obj_allocs += total(&one, |s| s.obj.map_or(0, |o| o.allocs));
        g.soft_allocs[point.family] += total(&one, |s| {
            s.soft.map_or(0, |o| o.fast_allocs + o.slow_allocs)
        });
        if run.warm {
            g.generate_s += point.generate_s;
        }
    }
    let (mut run_s, mut attributed_s) = (0.0, 0.0);
    for (use_i, label) in ["cold", "warm"].iter().enumerate() {
        for (config, name) in machine_sweep::CONFIGS.iter().enumerate() {
            let g = &groups[use_i][config];
            m.put(format!("system.{label}_run_s.{name}"), g.secs, "s");
            m.put(
                format!("system.ns_per_event.{label}.{name}"),
                g.secs * 1e9 / g.events.max(1) as f64,
                "ns",
            );
            m.put(
                format!("system.unattributed_frac.{label}.{name}"),
                1.0 - g.attributed_s(u) / g.secs,
                "frac",
            );
            run_s += g.secs;
            attributed_s += g.attributed_s(u);
        }
    }
    m.put(
        "system.unattributed_frac",
        1.0 - attributed_s / run_s,
        "frac",
    );
    m.put(
        "system.sim_cycles",
        registry
            .iter()
            .map(|r| r.stats.total_cycles().raw() as f64)
            .sum(),
        "count",
    );

    let all: Vec<&PointRun> = registry.iter().collect();
    let sum = |f: &dyn Fn(&RunStats) -> u64| total(&all, f) as f64;
    let reg = |name: &str| registry.iter().map(|r| counter(r, name)).sum::<u64>() as f64;
    m.put(
        "cache.l1d.accesses",
        sum(&|s| s.mem.l1d.demand.hits + s.mem.l1d.demand.misses),
        "count",
    );
    m.put(
        "cache.l1d.misses",
        sum(&|s| s.mem.l1d.demand.misses),
        "count",
    );
    m.put(
        "cache.l2.accesses",
        sum(&|s| s.mem.l2.demand.hits + s.mem.l2.demand.misses),
        "count",
    );
    m.put("cache.l2.misses", sum(&|s| s.mem.l2.demand.misses), "count");
    m.put(
        "cache.llc.accesses",
        sum(&|s| s.mem.llc.demand.hits + s.mem.llc.demand.misses),
        "count",
    );
    m.put(
        "cache.llc.misses",
        sum(&|s| s.mem.llc.demand.misses),
        "count",
    );
    m.put(
        "cache.dram.read_lines",
        sum(&|s| s.mem.dram.read_lines),
        "count",
    );
    m.put(
        "cache.dram.write_lines",
        sum(&|s| s.mem.dram.write_lines),
        "count",
    );
    m.put(
        "cache.bypassed_fills",
        sum(&|s| s.mem.bypassed_fills),
        "count",
    );
    m.put("cache.ns_per_op.hit", u.cache_hit, "ns");
    m.put("cache.ns_per_op.miss", u.cache_miss, "ns");

    m.put("vm.tlb.l1.misses", reg("tlb.l1.misses"), "count");
    m.put("vm.tlb.l2.misses", reg("tlb.l2.misses"), "count");
    m.put(
        "vm.walks",
        reg("walk.completed") + reg("walk.faulted"),
        "count",
    );
    m.put("vm.pte_reads", reg("walk.pte_reads"), "count");
    m.put("vm.tlb.ns_per_op", u.tlb_lookup, "ns");
    m.put("vm.walk.ns_per_op", u.walk, "ns");
    m.put("vm.walk.exclusive_ns_per_op", u.walk_exclusive, "ns");

    m.put(
        "kernel.page_faults",
        sum(&|s| s.kernel.page_faults),
        "count",
    );
    m.put("kernel.mmaps", sum(&|s| s.kernel.mmaps), "count");
    m.put("kernel.munmaps", sum(&|s| s.kernel.munmaps), "count");

    m.put(
        "softalloc.fast_allocs",
        sum(&|s| s.soft.map_or(0, |a| a.fast_allocs)),
        "count",
    );
    m.put(
        "softalloc.slow_allocs",
        sum(&|s| s.soft.map_or(0, |a| a.slow_allocs)),
        "count",
    );
    m.put(
        "softalloc.frees",
        sum(&|s| s.soft.map_or(0, |a| a.frees)),
        "count",
    );
    for (f, family) in FAMILIES.iter().enumerate() {
        m.put(
            format!("softalloc.ns_per_op.{family}"),
            u.soft_pair[f],
            "ns",
        );
        m.put(
            format!("softalloc.exclusive_ns_per_op.{family}"),
            u.soft_pair_exclusive[f],
            "ns",
        );
    }

    // Memento device counters over the warm containers.
    let warm: Vec<&PointRun> = registry
        .iter()
        .filter(|r| r.warm && r.config == 1)
        .collect();
    let wsum = |f: &dyn Fn(&RunStats) -> u64| total(&warm, f) as f64;
    let ratio = |hits: f64, lookups: f64| hits / lookups.max(1.0);
    let lookups = wsum(&|s| s.hot.map_or(0, |h| h.alloc.hits + h.alloc.misses));
    let hits = wsum(&|s| s.hot.map_or(0, |h| h.alloc.hits));
    m.put("core.hot.alloc.hit_ratio", ratio(hits, lookups), "ratio");
    m.put("core.hot.alloc.lookups", lookups, "count");
    let lookups = wsum(&|s| s.hot.map_or(0, |h| h.free.hits + h.free.misses));
    let hits = wsum(&|s| s.hot.map_or(0, |h| h.free.hits));
    m.put("core.hot.free.hit_ratio", ratio(hits, lookups), "ratio");
    m.put("core.hot.free.lookups", lookups, "count");
    let lookups = wsum(&|s| s.page.map_or(0, |p| p.aac.hits + p.aac.misses));
    let hits = wsum(&|s| s.page.map_or(0, |p| p.aac.hits));
    m.put("core.aac.hit_ratio", ratio(hits, lookups), "ratio");
    m.put("core.aac.lookups", lookups, "count");
    m.put(
        "core.obj.allocs",
        wsum(&|s| s.obj.map_or(0, |o| o.allocs)),
        "count",
    );
    m.put(
        "core.pool.refills",
        wsum(&|s| s.page.map_or(0, |p| p.pool_refills)),
        "count",
    );
    m.put(
        "core.pool.frames_recycled",
        wsum(&|s| s.page.map_or(0, |p| p.frames_recycled)),
        "count",
    );
    m.put("core.ns_per_op", u.obj_pair, "ns");
    m.put("core.exclusive_ns_per_op", u.obj_pair_exclusive, "ns");
    m.put("simcore.physmem.read_ns_per_op", u.physmem_read, "ns");
    m.put("simcore.physmem.write_ns_per_op", u.physmem_write, "ns");
}

/// Fleet metrics: set-up calls and engine time from the spans, outcome
/// counts from the traced pass's cells, and the engine's own
/// self-profiling spans.
fn put_cluster(m: &mut Metrics, recorded: &[spans::Span], cells: &[CellRun], passes: usize) {
    m.put(
        "cluster.calibrate_s",
        spans::total_secs(recorded, "cluster.calibrate"),
        "s",
    );
    m.put(
        "cluster.profiles",
        recorded
            .iter()
            .filter(|s| s.name == "cluster.calibrate")
            .count() as f64,
        "count",
    );
    m.put(
        "cluster.arrivals_s",
        spans::total_secs(recorded, "cluster.generate_trace"),
        "s",
    );
    let simulate_s = spans::total_secs(recorded, "cluster.simulate") / passes as f64;
    let sum = |f: &dyn Fn(&memento_cluster::ClusterResult) -> u64| {
        cells.iter().map(|c| f(&c.result)).sum::<u64>() as f64
    };
    m.put("cluster.simulate_s", simulate_s, "s");
    m.put(
        "cluster.ns_per_invocation",
        simulate_s * 1e9 / sum(&|r| r.submitted).max(1.0),
        "ns",
    );
    let selfprof = selfprof::take_report();
    for (span, metric) in [
        ("cluster.sim.run", "cluster.sim.run_s"),
        ("cluster.sim.finish", "cluster.sim.finish_s"),
    ] {
        let ns = selfprof.get(span).map_or(0, |s| s.total_ns);
        m.put(metric, ns as f64 / 1e9 / passes as f64, "s");
    }
    m.put("cluster.completed", sum(&|r| r.completed), "count");
    m.put("cluster.rejected", sum(&|r| r.rejected), "count");
    m.put("cluster.cold_starts", sum(&|r| r.cold_starts), "count");
    m.put("cluster.restores", sum(&|r| r.restores), "count");
    m.put("cluster.squeezed", sum(&|r| r.squeezed), "count");
    m.put("cluster.pm_parks", sum(&|r| r.pm_parks), "count");
    m.put("cluster.pm_restores", sum(&|r| r.pm_restores), "count");
    m.put(
        "cluster.warm_ratio",
        sum(&|r| r.warm_starts) / sum(&|r| r.completed).max(1.0),
        "ratio",
    );
}
