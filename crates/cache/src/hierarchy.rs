//! The assembled memory hierarchy: per-core L1I/L1D/L2, shared LLC, DRAM.

use crate::cache::{CacheConfig, CacheStats, Eviction, SetAssocCache};
use crate::dram::{Dram, DramConfig, DramStats};
use memento_obs::Log2Hist;
use memento_simcore::addr::PhysAddr;
use memento_simcore::cycles::Cycles;

/// Extra cycles a DRAM line fill pays per *additional* active core, modeling
/// memory-controller queueing under co-located load (charged only while the
/// machine reports more than one in-flight invocation). The constant is
/// deliberately coarse — roughly one bank cycle of queueing per contender on
/// DDR4-3200 — and is pinned by the contention tests.
pub const DRAM_QUEUE_CYCLES: u64 = 24;

/// Kind of memory access issued to the hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Data load.
    Read,
    /// Data store (write-allocate).
    Write,
    /// Instruction fetch (routed to L1I).
    InstrFetch,
}

/// Level at which an access was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum HitLevel {
    /// First-level cache.
    L1,
    /// Second-level cache.
    L2,
    /// Last-level cache.
    Llc,
    /// Main memory.
    Dram,
    /// Satisfied by LLC line instantiation (Memento main-memory bypass).
    Bypass,
}

/// Result of one access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Latency charged for the access.
    pub cycles: Cycles,
    /// Where the line was found (or created).
    pub level: HitLevel,
    /// True when the access caused a DRAM line read.
    pub dram_fill: bool,
}

/// Configuration of the whole memory system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemSystemConfig {
    /// Number of cores (each gets private L1I/L1D/L2).
    pub cores: usize,
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Private L2 geometry.
    pub l2: CacheConfig,
    /// Shared LLC geometry.
    pub llc: CacheConfig,
    /// DRAM timing.
    pub dram: DramConfig,
}

impl MemSystemConfig {
    /// The paper's Table 3 configuration for `cores` cores.
    pub fn paper_default(cores: usize) -> Self {
        MemSystemConfig {
            cores,
            l1i: CacheConfig::paper_l1("L1I"),
            l1d: CacheConfig::paper_l1("L1D"),
            l2: CacheConfig::paper_l2(),
            llc: CacheConfig::paper_llc(),
            dram: DramConfig::ddr4_3200(),
        }
    }

    /// Iso-storage variant (§6.1): HOT SRAM donated to the L1D (36 KB,
    /// 9-way) instead of implementing Memento.
    pub fn iso_storage(cores: usize) -> Self {
        let mut cfg = Self::paper_default(cores);
        cfg.l1d = CacheConfig::iso_storage_l1d();
        cfg
    }
}

struct CoreCaches {
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    l2: SetAssocCache,
}

/// Aggregated statistics snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemSystemStats {
    /// Combined L1I stats across cores.
    pub l1i: CacheStats,
    /// Combined L1D stats across cores.
    pub l1d: CacheStats,
    /// Combined L2 stats across cores.
    pub l2: CacheStats,
    /// Shared LLC stats.
    pub llc: CacheStats,
    /// DRAM traffic.
    pub dram: DramStats,
    /// Lines instantiated in the LLC via Memento main-memory bypass.
    pub bypassed_fills: u64,
    /// Extra cycles charged for memory-controller queueing under
    /// multi-core contention (zero while at most one core is active).
    pub dram_queue_cycles: u64,
}

impl MemSystemStats {
    /// Counters accumulated since `earlier`.
    pub fn delta(&self, earlier: &MemSystemStats) -> MemSystemStats {
        MemSystemStats {
            l1i: self.l1i.delta(earlier.l1i),
            l1d: self.l1d.delta(earlier.l1d),
            l2: self.l2.delta(earlier.l2),
            llc: self.llc.delta(earlier.llc),
            dram: self.dram.delta(earlier.dram),
            bypassed_fills: self.bypassed_fills - earlier.bypassed_fills,
            dram_queue_cycles: self.dram_queue_cycles - earlier.dram_queue_cycles,
        }
    }
}

fn merge_cache_stats(dst: &mut CacheStats, src: CacheStats) {
    dst.demand.merge(src.demand);
    dst.fills += src.fills;
    dst.writebacks += src.writebacks;
    dst.flushed += src.flushed;
}

/// The shared downstream every per-core fill cascades into: the LLC and
/// the DRAM channel, tagged with the filling core and its fair-share
/// eviction quota.
struct Downstream<'a> {
    llc: &'a mut SetAssocCache,
    dram: &'a mut Dram,
    owner: usize,
    fair_ways: usize,
}

/// The full memory system: private L1s/L2 per core, shared LLC and DRAM.
pub struct MemSystem {
    cfg: MemSystemConfig,
    cores: Vec<CoreCaches>,
    llc: SetAssocCache,
    dram: Dram,
    bypassed_fills: u64,
    demand_lat: Log2Hist,
    /// Cores with an invocation in flight right now. Contention (LLC
    /// fair-share eviction, DRAM queueing) is inert at 1, so a machine
    /// running one invocation at a time behaves exactly like the
    /// single-core model regardless of how many cores exist.
    active_cores: usize,
    dram_queue_cycles: u64,
}

impl MemSystem {
    /// Builds the hierarchy from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cores == 0`.
    pub fn new(cfg: MemSystemConfig) -> Self {
        assert!(cfg.cores > 0, "need at least one core");
        let cores = (0..cfg.cores)
            .map(|_| CoreCaches {
                l1i: SetAssocCache::new(cfg.l1i.clone()),
                l1d: SetAssocCache::new(cfg.l1d.clone()),
                l2: SetAssocCache::new(cfg.l2.clone()),
            })
            .collect();
        MemSystem {
            cores,
            llc: SetAssocCache::new(cfg.llc.clone()),
            dram: Dram::new(cfg.dram.clone()),
            bypassed_fills: 0,
            demand_lat: Log2Hist::default(),
            active_cores: 1,
            dram_queue_cycles: 0,
            cfg,
        }
    }

    /// Declares how many cores currently have an invocation in flight.
    /// Clamped to `[1, cores]`. At 1 (the default) every contention model
    /// is inert and the hierarchy is bit-identical to the single-core one.
    pub fn set_active_cores(&mut self, n: usize) {
        self.active_cores = n.clamp(1, self.cfg.cores);
    }

    /// Number of cores currently counted as active for contention.
    pub fn active_cores(&self) -> usize {
        self.active_cores
    }

    /// Read-only view of the shared LLC (occupancy/fair-share invariants).
    pub fn llc(&self) -> &SetAssocCache {
        &self.llc
    }

    /// Distribution of demand-access latencies (cycles per access, both
    /// plain and bypass-eligible).
    pub fn demand_latency(&self) -> &Log2Hist {
        &self.demand_lat
    }

    /// The configuration in force.
    pub fn config(&self) -> &MemSystemConfig {
        &self.cfg
    }

    /// DRAM statistics (traffic behind Fig. 10).
    pub fn dram_stats(&self) -> DramStats {
        self.dram.stats()
    }

    /// Full statistics snapshot.
    pub fn stats(&self) -> MemSystemStats {
        let mut s = MemSystemStats {
            dram: self.dram.stats(),
            llc: self.llc.stats(),
            bypassed_fills: self.bypassed_fills,
            dram_queue_cycles: self.dram_queue_cycles,
            ..MemSystemStats::default()
        };
        for core in &self.cores {
            merge_cache_stats(&mut s.l1i, core.l1i.stats());
            merge_cache_stats(&mut s.l1d, core.l1d.stats());
            merge_cache_stats(&mut s.l2, core.l2.stats());
        }
        s
    }

    fn fill_llc(down: &mut Downstream<'_>, addr: PhysAddr, dirty: bool) {
        if let Eviction::Dirty(victim) =
            down.llc.fill_owned(addr, dirty, down.owner, down.fair_ways)
        {
            down.dram.write_line(victim);
        }
    }

    fn fill_l2(core: &mut CoreCaches, down: &mut Downstream<'_>, addr: PhysAddr) {
        if let Eviction::Dirty(victim) = core.l2.fill(addr, false) {
            Self::fill_llc(down, victim, true);
        }
    }

    fn fill_l1(
        core: &mut CoreCaches,
        down: &mut Downstream<'_>,
        instr: bool,
        addr: PhysAddr,
        dirty: bool,
    ) {
        let l1 = if instr { &mut core.l1i } else { &mut core.l1d };
        if let Eviction::Dirty(victim) = l1.fill(addr, dirty) {
            // Dirty L1 victim moves to L2 (which may cascade to LLC/DRAM).
            if let Eviction::Dirty(v2) = core.l2.fill(victim, true) {
                Self::fill_llc(down, v2, true);
            }
        }
    }

    /// LLC ways each active core may hold per set before becoming the
    /// preferred eviction target; 0 disables fair-share partitioning
    /// (single active core).
    fn llc_fair_ways(&self) -> usize {
        if self.active_cores > 1 {
            self.llc.config().assoc / self.active_cores
        } else {
            0
        }
    }

    fn access_inner(
        &mut self,
        core_id: usize,
        kind: AccessKind,
        addr: PhysAddr,
        bypass_on_miss: bool,
    ) -> AccessOutcome {
        let addr = addr.line_base();
        let instr = kind == AccessKind::InstrFetch;
        let write = kind == AccessKind::Write;
        let fair_ways = self.llc_fair_ways();
        let core = &mut self.cores[core_id];
        let mut down = Downstream {
            llc: &mut self.llc,
            dram: &mut self.dram,
            owner: core_id,
            fair_ways,
        };
        let mut cycles = Cycles::ZERO;

        // L1 lookup.
        let l1 = if instr { &mut core.l1i } else { &mut core.l1d };
        cycles += l1.config().latency;
        if l1.access(addr, write) {
            return AccessOutcome {
                cycles,
                level: HitLevel::L1,
                dram_fill: false,
            };
        }

        // L2 lookup.
        cycles += core.l2.config().latency;
        if core.l2.access(addr, false) {
            Self::fill_l1(core, &mut down, instr, addr, write);
            return AccessOutcome {
                cycles,
                level: HitLevel::L2,
                dram_fill: false,
            };
        }

        // LLC lookup.
        cycles += down.llc.config().latency;
        if down.llc.access(addr, false) {
            Self::fill_l2(core, &mut down, addr);
            Self::fill_l1(core, &mut down, instr, addr, write);
            return AccessOutcome {
                cycles,
                level: HitLevel::Llc,
                dram_fill: false,
            };
        }

        if bypass_on_miss {
            // Memento main-memory bypass (§3.3): the line belongs to a newly
            // allocated object and has never been touched, so it is
            // instantiated (zero-filled) in the LLC without a DRAM fetch.
            // The LLC copy is dirty: DRAM does not hold this data.
            self.bypassed_fills += 1;
            Self::fill_llc(&mut down, addr, true);
            Self::fill_l2(core, &mut down, addr);
            Self::fill_l1(core, &mut down, instr, addr, write);
            return AccessOutcome {
                cycles,
                level: HitLevel::Bypass,
                dram_fill: false,
            };
        }

        // DRAM fill, plus memory-controller queueing when co-located
        // invocations contend for the channel.
        cycles += down.dram.read_line(addr);
        if self.active_cores > 1 {
            let queue = DRAM_QUEUE_CYCLES * (self.active_cores as u64 - 1);
            cycles += Cycles::new(queue);
            self.dram_queue_cycles += queue;
        }
        Self::fill_llc(&mut down, addr, false);
        Self::fill_l2(core, &mut down, addr);
        Self::fill_l1(core, &mut down, instr, addr, write);
        AccessOutcome {
            cycles,
            level: HitLevel::Dram,
            dram_fill: true,
        }
    }

    /// Performs a demand access, charging the full traversal latency.
    ///
    /// # Panics
    ///
    /// Panics if `core_id` is out of range.
    pub fn access(&mut self, core_id: usize, kind: AccessKind, addr: PhysAddr) -> AccessOutcome {
        let out = self.access_inner(core_id, kind, addr, false);
        self.demand_lat.record(out.cycles.raw());
        out
    }

    /// Performs a demand access that is *eligible for main-memory bypass*:
    /// if the line misses everywhere, it is instantiated in the LLC instead
    /// of being fetched from DRAM.
    pub fn access_bypassed(
        &mut self,
        core_id: usize,
        kind: AccessKind,
        addr: PhysAddr,
    ) -> AccessOutcome {
        let out = self.access_inner(core_id, kind, addr, true);
        self.demand_lat.record(out.cycles.raw());
        out
    }

    /// Flushes every cache on every core (dirty lines generate DRAM
    /// writebacks). Heavyweight; only used between experiment phases.
    pub fn flush_all(&mut self) {
        let mut dirty = Vec::new();
        for core in &mut self.cores {
            dirty.extend(core.l1i.flush());
            dirty.extend(core.l1d.flush());
            dirty.extend(core.l2.flush());
        }
        dirty.extend(self.llc.flush());
        for addr in dirty {
            self.dram.write_line(addr);
        }
    }
}

impl std::fmt::Debug for MemSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemSystem")
            .field("cores", &self.cores.len())
            .field("dram", &self.dram.stats())
            .field("bypassed_fills", &self.bypassed_fills)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemSystem {
        MemSystem::new(MemSystemConfig::paper_default(2))
    }

    #[test]
    fn cold_access_reaches_dram() {
        let mut m = sys();
        let out = m.access(0, AccessKind::Read, PhysAddr::new(0x100000));
        assert_eq!(out.level, HitLevel::Dram);
        assert!(out.dram_fill);
        // 2 (L1) + 14 (L2) + 40 (LLC) + 130 (row miss) cycles.
        assert_eq!(out.cycles, Cycles::new(2 + 14 + 40 + 130));
        assert_eq!(m.dram_stats().read_lines, 1);
    }

    #[test]
    fn warm_access_hits_l1() {
        let mut m = sys();
        let a = PhysAddr::new(0x100000);
        m.access(0, AccessKind::Read, a);
        let out = m.access(0, AccessKind::Read, a);
        assert_eq!(out.level, HitLevel::L1);
        assert_eq!(out.cycles, Cycles::new(2));
        assert_eq!(m.dram_stats().read_lines, 1);
    }

    #[test]
    fn cross_core_sharing_via_llc() {
        let mut m = sys();
        let a = PhysAddr::new(0x200000);
        m.access(0, AccessKind::Read, a);
        let out = m.access(1, AccessKind::Read, a);
        assert_eq!(out.level, HitLevel::Llc);
        assert!(!out.dram_fill);
        assert_eq!(m.dram_stats().read_lines, 1);
    }

    #[test]
    fn instruction_fetches_use_l1i() {
        let mut m = sys();
        let a = PhysAddr::new(0x300000);
        m.access(0, AccessKind::InstrFetch, a);
        let out = m.access(0, AccessKind::InstrFetch, a);
        assert_eq!(out.level, HitLevel::L1);
        // Same line as data access still misses L1D but hits L2.
        let dout = m.access(0, AccessKind::Read, a);
        assert_eq!(dout.level, HitLevel::L2);
    }

    #[test]
    fn bypass_skips_dram() {
        let mut m = sys();
        let a = PhysAddr::new(0x400000);
        let out = m.access_bypassed(0, AccessKind::Write, a);
        assert_eq!(out.level, HitLevel::Bypass);
        assert!(!out.dram_fill);
        assert_eq!(m.dram_stats().read_lines, 0);
        assert_eq!(m.stats().bypassed_fills, 1);
        // Line is now resident: a second access hits L1.
        let again = m.access(0, AccessKind::Read, a);
        assert_eq!(again.level, HitLevel::L1);
    }

    #[test]
    fn bypass_irrelevant_when_line_resident() {
        let mut m = sys();
        let a = PhysAddr::new(0x500000);
        m.access(0, AccessKind::Read, a);
        let out = m.access_bypassed(0, AccessKind::Read, a);
        assert_eq!(out.level, HitLevel::L1);
        assert_eq!(m.stats().bypassed_fills, 0);
    }

    #[test]
    fn dirty_data_eventually_written_back() {
        let mut m = MemSystem::new(MemSystemConfig {
            cores: 1,
            l1i: CacheConfig::new("L1I", 512, 2, 2),
            l1d: CacheConfig::new("L1D", 512, 2, 2),
            l2: CacheConfig::new("L2", 1024, 2, 14),
            llc: CacheConfig::new("LLC", 2048, 2, 40),
            dram: DramConfig::ddr4_3200(),
        });
        // Write many distinct lines to force dirty evictions down to DRAM.
        for i in 0..256u64 {
            m.access(0, AccessKind::Write, PhysAddr::new(i * 64 * 17));
        }
        assert!(m.dram_stats().write_lines > 0, "writebacks must reach DRAM");
    }

    #[test]
    fn flush_all_writes_back_dirty_lines() {
        let mut m = sys();
        m.access(0, AccessKind::Write, PhysAddr::new(0x700000));
        let before = m.dram_stats().write_lines;
        m.flush_all();
        assert!(m.dram_stats().write_lines > before);
        // After flush the line is gone from caches.
        let out = m.access(0, AccessKind::Read, PhysAddr::new(0x700000));
        assert_eq!(out.level, HitLevel::Dram);
    }

    #[test]
    fn stats_aggregate_across_cores() {
        let mut m = sys();
        m.access(0, AccessKind::Read, PhysAddr::new(0x1000));
        m.access(1, AccessKind::Read, PhysAddr::new(0x2000));
        let s = m.stats();
        assert_eq!(s.l1d.demand.total(), 2);
        assert_eq!(s.dram.read_lines, 2);
    }

    #[test]
    fn active_cores_clamped_to_core_count() {
        let mut m = sys();
        assert_eq!(m.active_cores(), 1);
        m.set_active_cores(99);
        assert_eq!(m.active_cores(), 2);
        m.set_active_cores(0);
        assert_eq!(m.active_cores(), 1);
    }

    #[test]
    fn contention_inflates_dram_latency() {
        let mut m = sys();
        m.set_active_cores(2);
        let out = m.access(0, AccessKind::Read, PhysAddr::new(0x100000));
        assert_eq!(out.level, HitLevel::Dram);
        // Cold traversal plus one contender's worth of queueing.
        assert_eq!(
            out.cycles,
            Cycles::new(2 + 14 + 40 + 130 + DRAM_QUEUE_CYCLES)
        );
        assert_eq!(m.stats().dram_queue_cycles, DRAM_QUEUE_CYCLES);
        // Back to one active core: queueing vanishes.
        m.set_active_cores(1);
        let solo = m.access(1, AccessKind::Read, PhysAddr::new(0x900000));
        assert_eq!(solo.cycles, Cycles::new(2 + 14 + 40 + 130));
        assert_eq!(m.stats().dram_queue_cycles, DRAM_QUEUE_CYCLES);
    }

    #[test]
    fn llc_occupancy_bounded_by_capacity() {
        let mut m = sys();
        m.set_active_cores(2);
        for i in 0..10_000u64 {
            m.access(
                (i % 2) as usize,
                AccessKind::Read,
                PhysAddr::new(i * 64 * 3),
            );
        }
        let llc = m.llc();
        assert!(llc.occupancy() <= llc.capacity_lines());
        assert_eq!(
            llc.occupancy(),
            llc.owner_occupancy(0) + llc.owner_occupancy(1)
        );
    }

    #[test]
    fn accesses_are_line_granular() {
        let mut m = sys();
        m.access(0, AccessKind::Read, PhysAddr::new(0x1000));
        let out = m.access(0, AccessKind::Read, PhysAddr::new(0x1004));
        assert_eq!(
            out.level,
            HitLevel::L1,
            "same line despite different offset"
        );
    }
}
