use memento_system::{stats, Machine, SystemConfig};
use memento_workloads::suite;

/// Warm-container invocations per long-running app, as the evaluation
/// runs them (`memento_experiments::context::STEADY_INVOCATIONS`).
const STEADY_INVOCATIONS: usize = 3;

fn main() {
    println!(
        "{:<12} {:>7} {:>6} {:>7} {:>7} {:>7} {:>7} {:>7} {:>6}",
        "name", "speedup", "mm%", "u/k", "bwred", "hotA", "hotF", "memuse", "faults"
    );
    let mut speedups = Vec::new();
    for spec in suite::all_workloads() {
        let steady = spec.category != memento_workloads::spec::Category::Function;
        let (base, mem) = if steady {
            (
                Machine::new(SystemConfig::baseline())
                    .run_invocations(&spec, STEADY_INVOCATIONS)
                    .steady,
                Machine::new(SystemConfig::memento())
                    .run_invocations(&spec, STEADY_INVOCATIONS)
                    .steady,
            )
        } else {
            (
                Machine::new(SystemConfig::baseline()).run(&spec),
                Machine::new(SystemConfig::memento()).run(&spec),
            )
        };
        let s = stats::speedup(&base, &mem);
        let bw = stats::bandwidth_reduction(&base, &mem);
        let hot = mem.hot.unwrap();
        let usage = (mem.user_pages_agg + mem.kernel_pages_agg) as f64
            / (base.user_pages_agg + base.kernel_pages_agg).max(1) as f64;
        println!(
            "{:<12} {:>7.3} {:>6.1} {:>3.0}/{:<3.0} {:>7.3} {:>7.4} {:>7.4} {:>7.3} {:>6}",
            spec.name,
            s,
            base.mm_fraction() * 100.0,
            base.user_mm_share() * 100.0,
            base.kernel_mm_share() * 100.0,
            bw,
            hot.alloc.hit_rate(),
            hot.free.hit_rate(),
            usage,
            base.kernel.page_faults
        );
        if spec.category == memento_workloads::spec::Category::Function {
            speedups.push(s);
        }
    }
    println!("func geomean speedup: {:.3}", stats::geomean(&speedups));
}
