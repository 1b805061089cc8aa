//! Per-layer unit costs timed from outside: loops of ≥10⁶ calls to each
//! layer's public operation, in host nanoseconds per call.
//!
//! Operations that call into lower layers (a page walk reads PTEs through
//! the cache hierarchy; an allocator touches its metadata through the TLB
//! and caches) are also given an *exclusive* cost: the loop's time minus
//! the nested cache accesses and TLB lookups it issued, counted by those
//! layers' own statistics and priced at their own unit costs. The
//! exclusive costs are what the run-time attribution multiplies by
//! counts, so no nested call is priced twice.

use crate::measure::secs;
use memento_cache::{AccessKind, MemSystem, MemSystemConfig, MemSystemStats};
use memento_core::device::{MementoConfig, MementoDevice};
use memento_core::page_alloc::PoolBackend;
use memento_core::region::MementoRegion;
use memento_kernel::{Kernel, KernelCosts, MmapFlags, Process};
use memento_simcore::physmem::{Frame, PhysMem};
use memento_simcore::{PhysAddr, VirtAddr};
use memento_softalloc::{AllocCtx, GoAlloc, JeMalloc, PyMalloc, SoftwareAllocator};
use memento_vm::{PageWalker, Tlb, TlbStats};
use memento_workloads::spec::AllocatorKind;
use std::hint::black_box;
use std::time::Instant;

/// Calls per timed loop.
pub const CALLS: u64 = 1_000_000;

/// Software allocator families, as `allocator_family` numbers them.
pub const FAMILIES: [&str; 3] = ["py", "je", "go"];

/// The family of a workload's software allocator.
pub fn allocator_family(kind: AllocatorKind) -> usize {
    match kind {
        AllocatorKind::PyMalloc | AllocatorKind::PyMallocTuned { .. } => 0,
        AllocatorKind::JeMalloc { .. } => 1,
        AllocatorKind::GoAlloc => 2,
    }
}

/// One allocator of each family, in [`FAMILIES`] order.
fn allocators() -> [Box<dyn SoftwareAllocator>; 3] {
    [
        Box::new(PyMalloc::with_flags(MmapFlags::default())),
        Box::new(JeMalloc::new()),
        Box::new(GoAlloc::new()),
    ]
}

/// Host nanoseconds per call of each layer operation.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnitCosts {
    pub cache_hit: f64,
    pub cache_miss: f64,
    pub tlb_lookup: f64,
    pub walk: f64,
    pub walk_exclusive: f64,
    pub obj_pair: f64,
    pub obj_pair_exclusive: f64,
    /// Per allocator family, indexed as [`FAMILIES`].
    pub soft_pair: [f64; 3],
    pub soft_pair_exclusive: [f64; 3],
    pub physmem_read: f64,
    pub physmem_write: f64,
}

fn ns_per_call(t: Instant, calls: u64) -> f64 {
    secs(t) * 1e9 / calls as f64
}

fn cache_accesses(s: &MemSystemStats) -> u64 {
    s.l1d.demand.hits + s.l1d.demand.misses
}

fn tlb_lookups(s: &TlbStats) -> u64 {
    s.l1.hits + s.l1.misses
}

/// OS stand-in granting consecutive frames to the Memento pool.
struct BumpOs(u64);

impl PoolBackend for BumpOs {
    fn grant_frames(&mut self, n: u64) -> Vec<Frame> {
        let start = self.0;
        self.0 += n;
        (start..start + n).map(Frame::from_number).collect()
    }

    fn accept_frames(&mut self, _frames: &[Frame]) {}
}

/// A booted kernel with one process: the state an `AllocCtx` borrows.
struct Os {
    kernel: Kernel,
    walker: PageWalker,
    mem: PhysMem,
    mem_sys: MemSystem,
    tlb: Tlb,
    proc: Process,
}

impl Os {
    fn boot() -> Self {
        let mut mem = PhysMem::new(256 << 20);
        let mut kernel = Kernel::boot(&mut mem, KernelCosts::calibrated());
        let proc = kernel.create_process(&mut mem);
        Os {
            kernel,
            walker: PageWalker::new(),
            mem,
            mem_sys: MemSystem::new(MemSystemConfig::paper_default(1)),
            tlb: Tlb::default(),
            proc,
        }
    }

    fn ctx(&mut self) -> AllocCtx<'_> {
        AllocCtx {
            kernel: &mut self.kernel,
            walker: &mut self.walker,
            mem: &mut self.mem,
            mem_sys: &mut self.mem_sys,
            tlb: &mut self.tlb,
            proc: &mut self.proc,
            core: 0,
        }
    }
}

/// Times every layer operation.
pub fn measure() -> UnitCosts {
    let mut u = UnitCosts::default();

    // Cache hierarchy: one hot line, then a sweep of distinct lines on
    // distinct pages so every access misses to DRAM.
    {
        let mut sys = MemSystem::new(MemSystemConfig::paper_default(1));
        let addr = PhysAddr::new(0x10_0000);
        sys.access(0, AccessKind::Read, addr);
        let t = Instant::now();
        for _ in 0..CALLS {
            black_box(sys.access(0, AccessKind::Read, black_box(addr)));
        }
        u.cache_hit = ns_per_call(t, CALLS);
        let t = Instant::now();
        for i in 0..CALLS {
            let a = PhysAddr::new(0x100_0000 + i * (4096 + 64));
            black_box(sys.access(0, AccessKind::Read, a));
        }
        u.cache_miss = ns_per_call(t, CALLS);
    }

    // TLB: lookups of a resident translation.
    {
        let mut tlb = Tlb::default();
        let va = VirtAddr::new(0x7f00_0000_0000);
        tlb.insert(va, Frame::from_number(42));
        let t = Instant::now();
        for _ in 0..CALLS {
            black_box(tlb.lookup(black_box(va)));
        }
        u.tlb_lookup = ns_per_call(t, CALLS);
    }

    // Software allocator malloc/free pairs for each allocator family,
    // then page walks of the page the first allocator mapped.
    for (family, mut alloc) in allocators().into_iter().enumerate() {
        let mut os = Os::boot();
        let warm = alloc.alloc(&mut os.ctx(), 48).addr;
        let mem_before = os.mem_sys.stats();
        let tlb_before = os.tlb.stats();
        let t = Instant::now();
        for _ in 0..CALLS {
            let mut ctx = os.ctx();
            let a = alloc.alloc(&mut ctx, 48);
            black_box(alloc.free(&mut ctx, a.addr, 48));
        }
        u.soft_pair[family] = ns_per_call(t, CALLS);
        let nested = (cache_accesses(&os.mem_sys.stats()) - cache_accesses(&mem_before)) as f64
            * u.cache_hit
            + (tlb_lookups(&os.tlb.stats()) - tlb_lookups(&tlb_before)) as f64 * u.tlb_lookup;
        u.soft_pair_exclusive[family] = u.soft_pair[family] - nested / CALLS as f64;
        if family > 0 {
            continue;
        }
        let root = os.proc.addr_space.page_table.root();
        let mem_before = os.mem_sys.stats();
        let t = Instant::now();
        for _ in 0..CALLS {
            black_box(
                os.walker
                    .walk(&mut os.mem_sys, &os.mem, 0, root, black_box(warm)),
            );
        }
        u.walk = ns_per_call(t, CALLS);
        let nested = (cache_accesses(&os.mem_sys.stats()) - cache_accesses(&mem_before)) as f64;
        u.walk_exclusive = u.walk - nested * u.cache_hit / CALLS as f64;
    }

    // Memento device obj-alloc/obj-free pairs at steady state (HOT hits).
    {
        let mut mem = PhysMem::new(1 << 30);
        let scratch = mem.alloc_frame().expect("boot frame").base_addr();
        let mut dev = MementoDevice::new(MementoConfig::paper_default(), 1, scratch);
        let mut os = BumpOs(1024);
        let mut sys = MemSystem::new(MemSystemConfig::paper_default(1));
        let mut tlbs = vec![Tlb::default()];
        let mut proc = dev
            .attach_process(&mut mem, &mut os, MementoRegion::standard())
            .expect("attach with live backend");
        let before = sys.stats();
        let t = Instant::now();
        for _ in 0..CALLS {
            let a = dev
                .obj_alloc(&mut mem, &mut sys, &mut os, 0, &mut proc, 48)
                .expect("obj-alloc");
            black_box(
                dev.obj_free(&mut mem, &mut sys, &mut os, &mut tlbs, 0, &mut proc, a.addr)
                    .expect("obj-free"),
            );
        }
        u.obj_pair = ns_per_call(t, CALLS);
        let nested = (cache_accesses(&sys.stats()) - cache_accesses(&before)) as f64;
        u.obj_pair_exclusive = u.obj_pair - nested * u.cache_hit / CALLS as f64;
    }

    // Physical memory word reads and writes across 64 frames.
    {
        let mut mem = PhysMem::new(64 << 20);
        let base = mem.alloc_frames(64).expect("frames").base_addr().raw();
        let addr = |i: u64| PhysAddr::new(base + (i * 8) % (64 * 4096));
        let t = Instant::now();
        for i in 0..CALLS {
            mem.write_u64(addr(i), black_box(i));
        }
        u.physmem_write = ns_per_call(t, CALLS);
        let t = Instant::now();
        let mut sum = 0u64;
        for i in 0..CALLS {
            sum = sum.wrapping_add(mem.read_u64(addr(i)));
        }
        black_box(sum);
        u.physmem_read = ns_per_call(t, CALLS);
    }
    u
}
