//! Integration tests of the baseline software stack end-to-end: workload
//! generation → software allocators → kernel → cache hierarchy.

use memento_experiments::context::STEADY_INVOCATIONS;
use memento_system::{Machine, SystemConfig};
use memento_workloads::spec::{Category, Language, WorkloadSpec};
use memento_workloads::suite;

fn shrunk(name: &str, insts: u64) -> WorkloadSpec {
    let mut s = suite::by_name(name).expect("known workload");
    s.total_instructions = insts;
    s
}

#[test]
fn every_workload_runs_on_the_baseline() {
    for mut spec in suite::all_workloads() {
        spec.total_instructions = spec.total_instructions.min(400_000);
        let stats = Machine::new(SystemConfig::baseline()).run(&spec);
        assert!(
            stats.total_cycles().raw() > 50_000,
            "{}: suspiciously few cycles",
            spec.name
        );
        assert!(stats.hot.is_none(), "{}: baseline has no HOT", spec.name);
        let soft = stats.soft.expect("software allocator stats");
        assert!(
            soft.fast_allocs + soft.slow_allocs > 0,
            "{}: allocator never ran",
            spec.name
        );
    }
}

#[test]
fn python_baseline_exhibits_kernel_overheads() {
    let spec = shrunk("html", 600_000);
    let stats = Machine::new(SystemConfig::baseline()).run(&spec);
    assert!(stats.kernel.mmaps > 0, "pymalloc arenas come from mmap");
    assert!(
        stats.kernel.page_faults > 0,
        "lazy mmap faults on first touch"
    );
    assert!(
        stats.kernel_mm_share() > 0.10,
        "kernel share {:.2} too low for Python",
        stats.kernel_mm_share()
    );
}

#[test]
fn cpp_baseline_is_userspace_dominated() {
    // Table 2: C++ memory management is 96% userspace. The jemalloc model
    // pre-maps its pool at init (charged as setup), so the function body
    // should be user-dominated.
    let spec = shrunk("US", 1_000_000);
    let stats = Machine::new(SystemConfig::baseline()).run(&spec);
    assert!(
        stats.user_mm_share() > 0.35,
        "user share {:.2} too low for C++",
        stats.user_mm_share()
    );
}

#[test]
fn go_functions_never_gc() {
    for name in ["html-go", "bfs-go", "aes-go"] {
        let spec = shrunk(name, 500_000);
        let stats = Machine::new(SystemConfig::baseline()).run(&spec);
        assert_eq!(stats.gc_runs, 0, "{name}: function GC must not trigger");
        assert_eq!(
            stats.soft.expect("soft stats").frees,
            0,
            "{name}: Go frees only at GC"
        );
    }
}

#[test]
fn long_running_categories_gc_or_churn() {
    // Needs enough allocation volume to cross the GC heap minimum.
    let spec = shrunk("invoke", 6_000_000);
    let stats = Machine::new(SystemConfig::baseline()).run(&spec);
    assert_eq!(spec.category, Category::Platform);
    assert_eq!(spec.language, Language::Golang);
    assert!(stats.gc_runs > 0, "platform segment must collect");
}

#[test]
fn teardown_returns_all_heap_frames() {
    let spec = shrunk("mk", 500_000);
    let mut machine = Machine::new(SystemConfig::baseline());
    let _ = machine.run(&spec);
    // After Exit, every user-heap frame must have been released.
    let second = machine.run(&shrunk("mk", 100_000));
    assert!(
        second.total_cycles().raw() > 0,
        "machine reusable after teardown"
    );
}

#[test]
fn deterministic_across_runs() {
    let spec = shrunk("jl", 300_000);
    let a = Machine::new(SystemConfig::baseline()).run(&spec);
    let b = Machine::new(SystemConfig::baseline()).run(&spec);
    assert_eq!(a.total_cycles(), b.total_cycles());
    assert_eq!(a.dram_bytes(), b.dram_bytes());
    assert_eq!(a.kernel.page_faults, b.kernel.page_faults);
}

#[test]
fn steady_state_excludes_warmup() {
    let spec = shrunk("Redis", 1_000_000);
    let warm = Machine::new(SystemConfig::baseline()).run_invocations(&spec, STEADY_INVOCATIONS);
    let cold = &warm.invocations[0];
    assert!(
        warm.steady.kernel.page_faults < cold.kernel.page_faults,
        "heap-growth faults happen mostly in the cold invocation: steady {} vs cold {}",
        warm.steady.kernel.page_faults,
        cold.kernel.page_faults
    );
}
