//! Failure injection: malformed traces, resource exhaustion, and hardware
//! exception paths must degrade predictably, never corrupt state.

use memento_cache::{MemSystem, MemSystemConfig};
use memento_core::{MementoConfig, MementoDevice, MementoError, MementoRegion, PoolBackend};
use memento_simcore::physmem::{Frame, PhysMem};
use memento_system::{Machine, SystemConfig};
use memento_workloads::event::{Event, ObjectId, Trace};
use memento_workloads::spec::{
    AllocatorKind, Category, Language, LifetimeProfile, SizeProfile, WorkloadSpec,
};

fn tiny_spec() -> WorkloadSpec {
    WorkloadSpec {
        name: "inject".into(),
        language: Language::Python,
        category: Category::Function,
        allocator: AllocatorKind::PyMalloc,
        total_instructions: 10_000,
        malloc_pki: 5.0,
        size: SizeProfile::typical(0.95, 48.0),
        lifetime: LifetimeProfile::for_language(Language::Python),
        touch_intensity: 1.0,
        hot_set: 8,
        seed: 9,
    }
}

fn trace(events: Vec<Event>) -> Trace {
    Trace {
        name: "inject".into(),
        events,
    }
}

#[test]
fn double_free_in_trace_is_tolerated() {
    // A buggy application double-frees: the machine drops the second free
    // (the object is no longer tracked) rather than corrupting the heap.
    let t = trace(vec![
        Event::Alloc {
            id: ObjectId(1),
            size: 64,
        },
        Event::Free { id: ObjectId(1) },
        Event::Free { id: ObjectId(1) },
        Event::Exit,
    ]);
    for cfg in [SystemConfig::baseline(), SystemConfig::memento()] {
        let stats = Machine::new(cfg).run_trace(&tiny_spec(), &t);
        assert!(stats.total_cycles().raw() > 0);
    }
}

#[test]
fn free_of_unknown_object_is_tolerated() {
    let t = trace(vec![
        Event::Alloc {
            id: ObjectId(1),
            size: 32,
        },
        Event::Free { id: ObjectId(999) },
        Event::Exit,
    ]);
    let stats = Machine::new(SystemConfig::memento()).run_trace(&tiny_spec(), &t);
    assert!(stats.total_cycles().raw() > 0);
}

#[test]
fn touch_of_dead_object_is_dropped() {
    let t = trace(vec![
        Event::Alloc {
            id: ObjectId(1),
            size: 128,
        },
        Event::Free { id: ObjectId(1) },
        Event::Touch {
            id: ObjectId(1),
            offset: 0,
            len: 64,
            write: true,
        },
        Event::Exit,
    ]);
    let stats = Machine::new(SystemConfig::memento()).run_trace(&tiny_spec(), &t);
    assert!(stats.total_cycles().raw() > 0);
}

#[test]
fn empty_trace_still_tears_down() {
    let t = trace(vec![Event::Exit]);
    let stats = Machine::new(SystemConfig::baseline()).run_trace(&tiny_spec(), &t);
    // Teardown (context switch out) still charges kernel work.
    assert!(stats.cycles.kernel_mm().raw() > 0);
}

#[test]
fn truncated_trace_is_torn_down_like_one_ending_in_exit() {
    // A trace loaded from a truncated file has no trailing Exit. The run
    // must still be torn down and charged exactly as if it had one.
    let body = vec![
        Event::Alloc {
            id: ObjectId(1),
            size: 64,
        },
        Event::Touch {
            id: ObjectId(1),
            offset: 0,
            len: 64,
            write: true,
        },
    ];
    let mut with_exit = body.clone();
    with_exit.push(Event::Exit);
    for cfg in [SystemConfig::baseline(), SystemConfig::memento()] {
        let truncated = Machine::new(cfg.clone()).run_trace(&tiny_spec(), &trace(body.clone()));
        let complete = Machine::new(cfg).run_trace(&tiny_spec(), &trace(with_exit.clone()));
        assert_eq!(format!("{truncated:?}"), format!("{complete:?}"));
    }
}

#[test]
#[should_panic(expected = "quantum of at least one event")]
fn zero_timeshare_quantum_is_rejected() {
    // A zero quantum would never step an event and never finish.
    let _ = Machine::new(SystemConfig::memento()).run_timeshared(&[tiny_spec()], 0);
}

#[test]
#[should_panic(expected = "OutOfMemory")]
fn physical_memory_exhaustion_is_loud() {
    // A machine with almost no physical memory cannot back the heap: the
    // simulator fails fast (allocation models treat OOM as fatal) instead
    // of silently mis-accounting.
    let cfg = SystemConfig {
        phys_mem_bytes: 2 << 20, // 2 MiB: boot + a handful of frames
        ..SystemConfig::baseline()
    };
    let mut spec = tiny_spec();
    spec.total_instructions = 5_000_000;
    spec.malloc_pki = 10.0;
    spec.size.small_fraction = 0.5; // lots of large objects -> many pages
    let _ = Machine::new(cfg).run(&spec);
}

#[test]
fn giant_objects_exercise_mmap_threshold() {
    // A 256 KB object crosses glibc's mmap threshold and gets a dedicated
    // mapping that is unmapped on free.
    let t = trace(vec![
        Event::Alloc {
            id: ObjectId(1),
            size: 256 * 1024,
        },
        Event::Touch {
            id: ObjectId(1),
            offset: 0,
            len: 4096,
            write: true,
        },
        Event::Free { id: ObjectId(1) },
        Event::Exit,
    ]);
    let stats = Machine::new(SystemConfig::baseline()).run_trace(&tiny_spec(), &t);
    let soft = stats.soft.expect("soft stats");
    assert!(soft.frees >= 1);
    assert!(stats.kernel.munmaps >= 1, "giant free munmaps");
}

/// A [`PoolBackend`] that grants at most `budget` frames and then refuses
/// everything — the OS under terminal memory pressure.
struct StingyBackend {
    mem_base: u64,
    next: u64,
    budget: u64,
    returned: u64,
}

impl StingyBackend {
    fn new(mem: &mut PhysMem, budget: u64) -> Self {
        // Pre-reserve a contiguous run of frames to hand out.
        let base = mem.alloc_frame().expect("reserve").number();
        for _ in 1..budget {
            mem.alloc_frame().expect("reserve");
        }
        StingyBackend {
            mem_base: base,
            next: 0,
            budget,
            returned: 0,
        }
    }
}

impl PoolBackend for StingyBackend {
    fn grant_frames(&mut self, n: u64) -> Vec<Frame> {
        let granted = n.min(self.budget - self.next);
        let out = (0..granted)
            .map(|i| Frame::from_number(self.mem_base + self.next + i))
            .collect();
        self.next += granted;
        out
    }

    fn accept_frames(&mut self, frames: &[Frame]) {
        self.returned += frames.len() as u64;
    }
}

#[test]
fn pool_exhaustion_surfaces_typed_error_not_panic() {
    // The OS grants a small finite frame budget and then nothing: the
    // device must surface `MementoError::PoolExhausted` (a typed hardware
    // exception software can handle) instead of panicking, and count the
    // refusals in its statistics.
    let mut mem = PhysMem::new(64 << 20);
    let ptr_block = mem.alloc_frame().expect("pointer block").base_addr();
    let mut backend = StingyBackend::new(&mut mem, 32);
    let mut dev = MementoDevice::new(MementoConfig::paper_default(), 1, ptr_block);
    let mut mproc = dev
        .attach_process(&mut mem, &mut backend, MementoRegion::standard())
        .expect("attach fits in the budget");
    let mut sys = MemSystem::new(MemSystemConfig::paper_default(1));
    let err = loop {
        match dev.obj_alloc(&mut mem, &mut sys, &mut backend, 0, &mut mproc, 64) {
            Ok(out) => {
                // Keep backing body pages so the budget actually drains.
                let _ =
                    dev.translate_miss(&mut mem, &mut sys, &mut backend, 0, &mut mproc, out.addr);
            }
            Err(e) => break e,
        }
    };
    assert_eq!(err, MementoError::PoolExhausted { core: 0 });
    let stats = dev.page_stats();
    assert!(stats.pool_exhausted > 0, "refusals counted: {stats:?}");
    assert_eq!(dev.pool_audit().pool_len, 0, "pool fully drained");
    // The device is still coherent: frames already granted stay mapped and
    // conserved, and previously allocated objects remain usable.
    assert!(dev.pool_audit().conserved(), "{:?}", dev.pool_audit());
}

#[test]
fn attach_with_zero_grant_backend_fails_cleanly() {
    // An OS that grants nothing at all: even attaching a process (which
    // needs the Memento page-table root) fails with the typed error.
    let mut mem = PhysMem::new(16 << 20);
    let ptr_block = mem.alloc_frame().expect("pointer block").base_addr();
    let mut backend = StingyBackend::new(&mut mem, 1);
    backend.next = backend.budget; // refuse from the first request
    let mut dev = MementoDevice::new(MementoConfig::paper_default(), 1, ptr_block);
    let err = dev
        .attach_process(&mut mem, &mut backend, MementoRegion::standard())
        .expect_err("no frames, no page-table root");
    assert_eq!(err, MementoError::PoolExhausted { core: 0 });
    assert!(dev.page_stats().pool_exhausted > 0);
}

#[test]
fn stalled_core_mid_invocation_is_stolen_back_around() {
    // A core wedges mid-invocation (modeling a hiccup): its in-flight job
    // stays pinned, the jobs queued behind it are stolen back by its
    // sibling, and once the stall clears the whole batch completes.
    use memento_system::Scheduler;
    let mut specs = Vec::new();
    for i in 0..4u64 {
        let mut s = tiny_spec();
        s.name = format!("inject-{i}");
        s.seed = 9 + i;
        s.total_instructions = 40_000;
        specs.push(s);
    }
    let mut machine = Machine::new(SystemConfig::memento().with_cores(2));
    let (runs, sched) = machine.run_scheduled_with(&specs, 11, |sched: &mut Scheduler, steps| {
        if steps == 3 {
            sched.stall(0);
        } else if steps > 3
            && sched.is_stalled(0)
            && sched.queued_jobs() == 0
            && sched.next_core().is_none()
        {
            // Only the stalled core's pinned invocation remains (the hook
            // runs before job acquisition, so an idle sibling with queued
            // work does not count) — release the wedged core.
            sched.unstall(0);
        }
    });
    assert_eq!(runs.len(), 4);
    for (i, r) in runs.iter().enumerate() {
        assert!(r.total_cycles().raw() > 0, "job {i} never ran");
    }
    assert_eq!(sched.per_core_jobs.iter().sum::<u64>(), 4);
    assert!(
        sched.steals >= 1,
        "the sibling must steal the stalled core's queue: {sched:?}"
    );
    assert!(
        sched.per_core_jobs[1] >= 3,
        "core 1 ran its own two jobs plus the steal-back: {sched:?}"
    );
}

#[test]
fn reservations_starve_one_core_while_frames_remain() {
    // Per-core frame earmarks: core 1 reserves part of the pool, the OS
    // then refuses further grants, and core 0 must see a typed, correctly
    // attributed `PoolExhausted { core: 0 }` even though idle frames
    // remain — they belong to core 1, which can still spend them.
    let mut mem = PhysMem::new(64 << 20);
    let ptr_block = mem.alloc_frame().expect("pointer block").base_addr();
    let mut backend = StingyBackend::new(&mut mem, 40);
    let mut dev = MementoDevice::new(MementoConfig::paper_default(), 2, ptr_block);
    let mut mproc = dev
        .attach_process(&mut mem, &mut backend, MementoRegion::standard())
        .expect("attach fits in the budget");
    let mut sys = MemSystem::new(MemSystemConfig::paper_default(2));
    let reserved = dev.reserve_frames(1, 4);
    assert_eq!(reserved, 4, "idle frames earmarked for core 1");

    let err = loop {
        match dev.obj_alloc(&mut mem, &mut sys, &mut backend, 0, &mut mproc, 64) {
            Ok(out) => {
                let _ =
                    dev.translate_miss(&mut mem, &mut sys, &mut backend, 0, &mut mproc, out.addr);
            }
            Err(e) => break e,
        }
    };
    assert_eq!(err, MementoError::PoolExhausted { core: 0 });
    assert!(
        dev.pool_len() > 0,
        "core 0 starved with frames still idle in the pool"
    );
    assert_eq!(
        dev.pool_audit().pool_len,
        dev.reserved_frames(1),
        "the remaining frames are exactly core 1's earmark"
    );
    // Core 1 spends its earmark and allocates where core 0 could not.
    let out = dev
        .obj_alloc(&mut mem, &mut sys, &mut backend, 1, &mut mproc, 64)
        .expect("core 1's earmarked frames back its allocation");
    let _ = dev.translate_miss(&mut mem, &mut sys, &mut backend, 1, &mut mproc, out.addr);
    assert!(
        dev.reserved_frames(1) < reserved,
        "core 1's allocation consumed its earmark"
    );
    assert!(dev.pool_audit().conserved(), "{:?}", dev.pool_audit());
}

#[test]
fn stale_shared_header_audit_names_installing_core() {
    // Coherence-violation provenance: if a core acquires a stale copy of a
    // shared arena header without the invalidating snoop `coherence_sync`
    // models, the sanitizer audit must flag the duplicate and blame the
    // core that originally installed the arena — not the one that happens
    // to be scanned last.
    use memento_sanitizer::{HeapSanitizer, SanitizerConfig, ViolationKind};
    let mut mem = PhysMem::new(64 << 20);
    let ptr_block = mem.alloc_frame().expect("pointer block").base_addr();
    let mut backend = StingyBackend::new(&mut mem, 32);
    let mut dev = MementoDevice::new(MementoConfig::paper_default(), 2, ptr_block);
    dev.record_events(true);
    let mut mproc = dev
        .attach_process(&mut mem, &mut backend, MementoRegion::standard())
        .expect("attach fits in the budget");
    let mut sys = MemSystem::new(MemSystemConfig::paper_default(2));
    let mut san = HeapSanitizer::new(SanitizerConfig {
        audit_every: 0,
        oracle: false,
    });
    let pid = san.attach(mproc.region());

    // Core 0 installs a 64 B-class arena; core 1 allocates from another
    // class so the shadow knows both cores executed.
    let on_zero = dev
        .obj_alloc(&mut mem, &mut sys, &mut backend, 0, &mut mproc, 64)
        .expect("core 0 alloc");
    san.on_device_events(pid, dev.take_events());
    san.on_obj_alloc(pid, 0, on_zero.addr, 64);
    let on_one = dev
        .obj_alloc(&mut mem, &mut sys, &mut backend, 1, &mut mproc, 256)
        .expect("core 1 alloc");
    san.on_device_events(pid, dev.take_events());
    san.on_obj_alloc(pid, 1, on_one.addr, 256);

    // Inject the bug: core 1 caches core 0's header without eviction.
    let (class, entry) = {
        let (class, entry) = dev
            .hot(0)
            .iter_valid()
            .next()
            .expect("core 0 caches its arena");
        (class, *entry)
    };
    dev.hot_mut(1).install(class, entry);

    san.audit(pid, &dev, &mproc, &mem);
    let report = san.report();
    assert!(!report.is_clean(), "duplicate HOT entries must be caught");
    let v = report
        .violations
        .iter()
        .find(|v| v.kind == ViolationKind::HotIncoherence)
        .expect("a HotIncoherence violation");
    assert_eq!(
        v.provenance.core, 0,
        "provenance names the installing core: {v:?}"
    );
    assert!(v.detail.contains("installed by core 0"), "{}", v.detail);
}

#[test]
fn zero_compute_trace_is_fine() {
    // Allocation-only trace: no Compute events at all.
    let mut events = Vec::new();
    for i in 0..100 {
        events.push(Event::Alloc {
            id: ObjectId(i),
            size: 16,
        });
    }
    events.push(Event::Exit);
    let stats = Machine::new(SystemConfig::memento()).run_trace(&tiny_spec(), &trace(events));
    let hot = stats.hot.expect("hot");
    assert_eq!(hot.alloc.total(), 100);
}
