use memento_system::{Machine, SystemConfig};
use memento_workloads::{spec::Category, suite};

/// Warm-container invocations per long-running app, as the evaluation
/// runs them (`memento_experiments::context::STEADY_INVOCATIONS`).
const STEADY_INVOCATIONS: usize = 3;

fn main() {
    for spec in suite::all_workloads() {
        let steady = spec.category != Category::Function;
        let (b, m) = if steady {
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
        println!(
            "{:<12} user {:>5}/{:<5} kernel {:>4}/{:<4} mmaps {:>4}/{:<4}",
            spec.name,
            m.user_pages_agg,
            b.user_pages_agg,
            m.kernel_pages_agg,
            b.kernel_pages_agg,
            m.kernel.mmaps,
            b.kernel.mmaps
        );
    }
}
