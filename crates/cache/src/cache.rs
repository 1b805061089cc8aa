//! A single set-associative, write-back, write-allocate cache with LRU
//! replacement.
//!
//! The cache tracks presence and dirtiness of 64-byte lines; data lives in
//! [`memento_simcore::PhysMem`]. Timing is charged by the hierarchy layer.

use memento_simcore::addr::{PhysAddr, CACHE_LINE_SHIFT, CACHE_LINE_SIZE};
use memento_simcore::cycles::Cycles;
use memento_simcore::stats::HitMiss;

/// Geometry and latency of one cache level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Human-readable level name ("L1D", "LLC", ...), used in reports.
    pub name: String,
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Access latency charged on a lookup at this level.
    pub latency: Cycles,
}

impl CacheConfig {
    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is 0, or unless `size_bytes` is a multiple of
    /// `assoc * 64` and the set count is a power of two (or 1).
    pub fn new(name: &str, size_bytes: usize, assoc: usize, latency: u64) -> Self {
        let cfg = CacheConfig {
            name: name.to_owned(),
            size_bytes,
            assoc,
            latency: Cycles::new(latency),
        };
        let sets = cfg.num_sets();
        assert!(sets >= 1, "cache must have at least one set");
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two, got {sets}"
        );
        cfg
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is 0.
    pub fn num_sets(&self) -> usize {
        assert!(
            self.assoc > 0,
            "cache {} must have at least one way, got assoc 0",
            self.name
        );
        self.size_bytes / (self.assoc * CACHE_LINE_SIZE)
    }

    /// 32 KB, 8-way, 2-cycle L1 (paper Table 3).
    pub fn paper_l1(name: &str) -> Self {
        CacheConfig::new(name, 32 * 1024, 8, 2)
    }

    /// Hypothetical 36 KB 9-way L1D used by the iso-storage study (§6.1):
    /// the HOT's SRAM is given to the L1D as an extra way at the same
    /// latency.
    pub fn iso_storage_l1d() -> Self {
        CacheConfig::new("L1D+HOT", 36 * 1024, 9, 2)
    }

    /// 256 KB, 8-way, 14-cycle L2 (paper Table 3).
    pub fn paper_l2() -> Self {
        CacheConfig::new("L2", 256 * 1024, 8, 14)
    }

    /// 2 MB slice, 16-way, 40-cycle LLC (paper Table 3).
    pub fn paper_llc() -> Self {
        CacheConfig::new("LLC", 2 * 1024 * 1024, 16, 40)
    }
}

/// Tag of an empty way. A tag is a line number shifted right by the set
/// bits, so it never reaches `u64::MAX`.
const INVALID: u64 = u64::MAX;

/// One way: 24 bytes.
#[derive(Clone, Copy, Debug)]
struct Line {
    /// [`INVALID`] for an empty way.
    tag: u64,
    /// LRU stamp; 0 in an empty way, so the first empty way is always the
    /// oldest (live stamps start at 1).
    lru: u64,
    /// Core that last filled this line (fair-share accounting in the LLC;
    /// always 0 in private levels).
    owner: u32,
    dirty: bool,
}

impl Line {
    const EMPTY: Line = Line {
        tag: INVALID,
        lru: 0,
        owner: 0,
        dirty: false,
    };

    fn valid(&self) -> bool {
        self.tag != INVALID
    }
}

/// Per-level statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand hits/misses.
    pub demand: HitMiss,
    /// Lines filled into this level.
    pub fills: u64,
    /// Dirty lines evicted (written back toward memory).
    pub writebacks: u64,
    /// Lines invalidated by explicit flushes.
    pub flushed: u64,
}

impl CacheStats {
    /// Counters accumulated since `earlier`.
    pub fn delta(&self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            demand: self.demand.delta(earlier.demand),
            fills: self.fills - earlier.fills,
            writebacks: self.writebacks - earlier.writebacks,
            flushed: self.flushed - earlier.flushed,
        }
    }
}

/// What happened to the victim way during a fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Eviction {
    /// No valid line was displaced.
    None,
    /// A clean line was silently dropped.
    Clean(PhysAddr),
    /// A dirty line must be written back; carries its base address.
    Dirty(PhysAddr),
}

/// One set-associative cache level.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    /// Every way of every set, set-major: way `w` of set `s` is
    /// `lines[s * assoc + w]`.
    lines: Vec<Line>,
    assoc: usize,
    stamp: u64,
    stats: CacheStats,
    set_mask: u64,
    /// `set_mask.count_ones()`, hoisted out of every lookup.
    set_bits: u32,
    set_shift: u32,
}

impl SetAssocCache {
    /// Builds an empty cache from its config.
    pub fn new(cfg: CacheConfig) -> Self {
        let num_sets = cfg.num_sets();
        SetAssocCache {
            lines: vec![Line::EMPTY; num_sets * cfg.assoc],
            assoc: cfg.assoc,
            stamp: 0,
            stats: CacheStats::default(),
            set_mask: num_sets as u64 - 1,
            set_bits: (num_sets as u64 - 1).count_ones(),
            set_shift: CACHE_LINE_SHIFT,
            cfg,
        }
    }

    /// This level's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// This level's statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_and_tag(&self, addr: PhysAddr) -> (usize, u64) {
        let line = addr.raw() >> self.set_shift;
        ((line & self.set_mask) as usize, line >> self.set_bits)
    }

    /// Base address of the line with `tag` in set `set_idx`.
    fn line_addr(&self, set_idx: usize, tag: u64) -> PhysAddr {
        PhysAddr::new(((tag << self.set_bits) | set_idx as u64) << self.set_shift)
    }

    /// Looks up the line holding `addr`. On a hit the LRU stamp is refreshed
    /// and the line is marked dirty when `write`. Records demand stats.
    pub fn access(&mut self, addr: PhysAddr, write: bool) -> bool {
        let (set_idx, tag) = self.set_and_tag(addr);
        self.stamp += 1;
        let stamp = self.stamp;
        let base = set_idx * self.assoc;
        for line in &mut self.lines[base..base + self.assoc] {
            if line.tag == tag {
                line.lru = stamp;
                line.dirty |= write;
                self.stats.demand.hit();
                return true;
            }
        }
        self.stats.demand.miss();
        false
    }

    /// Installs the line holding `addr`, evicting the LRU way if needed.
    /// Marks the new line dirty when `dirty`. Ownership defaults to core 0
    /// with fair-share partitioning disabled — the single-core fill path.
    pub fn fill(&mut self, addr: PhysAddr, dirty: bool) -> Eviction {
        self.fill_owned(addr, dirty, 0, 0)
    }

    /// Installs the line holding `addr` on behalf of `owner`, evicting a
    /// victim if needed.
    ///
    /// With `fair_ways == 0` the victim is the first empty way, else the
    /// LRU way — exactly the behaviour of [`SetAssocCache::fill`]. With
    /// `fair_ways > 0` (shared LLC under contention) a full set's victim
    /// is, among its ways, the LRU line whose owner currently holds *more*
    /// than `fair_ways` ways in this set: cores that overflow their fair
    /// share of the set are evicted first, approximating way-partitioned
    /// occupancy without hard partitioning.
    pub fn fill_owned(
        &mut self,
        addr: PhysAddr,
        dirty: bool,
        owner: usize,
        fair_ways: usize,
    ) -> Eviction {
        let (set_idx, tag) = self.set_and_tag(addr);
        self.stamp += 1;
        let stamp = self.stamp;
        self.stats.fills += 1;
        let owner = u32::try_from(owner).expect("core id fits in u32");
        let base = set_idx * self.assoc;
        let set = &mut self.lines[base..base + self.assoc];

        // One scan: a copy already present (e.g. racing fill) is refreshed
        // in place and the last filler takes ownership; otherwise the way
        // with the smallest stamp is the first empty way, or the LRU line
        // of a full set.
        let (mut victim, mut oldest) = (0, u64::MAX);
        for (i, line) in set.iter_mut().enumerate() {
            if line.tag == tag {
                line.lru = stamp;
                line.dirty |= dirty;
                line.owner = owner;
                return Eviction::None;
            }
            if line.lru < oldest {
                (victim, oldest) = (i, line.lru);
            }
        }
        if fair_ways > 0 && set[victim].valid() {
            victim = Self::fair_victim(set, fair_ways).unwrap_or(victim);
        }
        let old = std::mem::replace(
            &mut set[victim],
            Line {
                tag,
                lru: stamp,
                owner,
                dirty,
            },
        );
        if !old.valid() {
            return Eviction::None;
        }
        let victim_addr = self.line_addr(set_idx, old.tag);
        if old.dirty {
            self.stats.writebacks += 1;
            Eviction::Dirty(victim_addr)
        } else {
            Eviction::Clean(victim_addr)
        }
    }

    /// Fair-share victim of a full set: the LRU line among owners holding
    /// more than `fair_ways` ways, if any owner does.
    fn fair_victim(set: &[Line], fair_ways: usize) -> Option<usize> {
        let over_quota = |l: &Line| set.iter().filter(|o| o.owner == l.owner).count() > fair_ways;
        set.iter()
            .enumerate()
            .filter(|(_, l)| over_quota(l))
            .min_by_key(|(_, l)| l.lru)
            .map(|(i, _)| i)
    }

    /// Number of valid lines currently owned by `owner` (LLC fair-share
    /// observability; private levels report everything under owner 0).
    pub fn owner_occupancy(&self, owner: usize) -> usize {
        self.lines
            .iter()
            .filter(|l| l.valid() && l.owner as usize == owner)
            .count()
    }

    /// Total number of valid lines resident in the cache.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid()).count()
    }

    /// Line capacity of the cache (sets × ways).
    pub fn capacity_lines(&self) -> usize {
        self.lines.len()
    }

    /// Invalidates every line, returning the base addresses of dirty lines
    /// that must be written back. Models a flush at context switch.
    pub fn flush(&mut self) -> Vec<PhysAddr> {
        let mut dirty = Vec::new();
        for i in 0..self.lines.len() {
            let line = std::mem::replace(&mut self.lines[i], Line::EMPTY);
            if line.valid() {
                self.stats.flushed += 1;
                if line.dirty {
                    dirty.push(self.line_addr(i / self.assoc, line.tag));
                }
            }
        }
        dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets x 2 ways x 64B = 256B.
        SetAssocCache::new(CacheConfig::new("T", 256, 2, 1))
    }

    fn addr(set: u64, tag: u64) -> PhysAddr {
        PhysAddr::new(((tag << 1) | set) << CACHE_LINE_SHIFT)
    }

    #[test]
    fn paper_geometries() {
        assert_eq!(CacheConfig::paper_l1("L1D").num_sets(), 64);
        assert_eq!(CacheConfig::paper_l2().num_sets(), 512);
        assert_eq!(CacheConfig::paper_llc().num_sets(), 2048);
        assert_eq!(CacheConfig::iso_storage_l1d().num_sets(), 64);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        let a = addr(0, 1);
        assert!(!c.access(a, false));
        assert_eq!(c.fill(a, false), Eviction::None);
        assert!(c.access(a, false));
        assert_eq!(c.stats().demand.hits, 1);
        assert_eq!(c.stats().demand.misses, 1);
        assert_eq!(c.stats().fills, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        let a = addr(0, 1);
        let b = addr(0, 2);
        let d = addr(0, 3);
        c.fill(a, true);
        c.fill(b, true);
        // Touch `a` so `b` becomes LRU.
        assert!(c.access(a, false));
        match c.fill(d, true) {
            Eviction::Dirty(victim) => assert_eq!(victim, b),
            other => panic!("expected dirty eviction of b, got {other:?}"),
        }
        // `a` and `d` stay resident; `b` is gone.
        let mut resident = c.flush();
        resident.sort();
        assert_eq!(resident, vec![a, d]);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        let a = addr(1, 1);
        let b = addr(1, 2);
        let d = addr(1, 3);
        c.fill(a, true);
        c.fill(b, false);
        match c.fill(d, false) {
            Eviction::Dirty(victim) => assert_eq!(victim, a),
            other => panic!("expected dirty eviction of a, got {other:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        let a = addr(0, 5);
        c.fill(a, false);
        assert!(c.access(a, true));
        assert_eq!(c.flush(), vec![a]);
        assert!(c.flush().is_empty());
        assert_eq!(c.stats().flushed, 1);
    }

    #[test]
    fn refill_existing_line_keeps_single_copy() {
        let mut c = tiny();
        let a = addr(0, 7);
        c.fill(a, false);
        assert_eq!(c.fill(a, true), Eviction::None);
        assert_eq!(c.occupancy(), 1);
        // Dirty bit merged.
        assert_eq!(c.flush(), vec![a]);
    }

    #[test]
    fn flush_returns_dirty_lines() {
        let mut c = tiny();
        let a = addr(0, 1);
        let b = addr(1, 1);
        c.fill(a, true);
        c.fill(b, false);
        let mut dirty = c.flush();
        dirty.sort();
        assert_eq!(dirty, vec![a]);
        assert_eq!(c.occupancy(), 0);
        assert!(!c.access(a, false));
        assert!(!c.access(b, false));
        assert_eq!(c.stats().flushed, 2);
    }

    #[test]
    fn fair_share_evicts_over_quota_owner_first() {
        // One set, four ways: enough room for owners to differ in quota.
        let mut c = SetAssocCache::new(CacheConfig::new("T4", 256, 4, 1));
        let line = |tag: u64| PhysAddr::new(tag << CACHE_LINE_SHIFT);
        // Core 1 fills first, so its line is the *global* LRU...
        c.fill_owned(line(4), false, 1, 2);
        // ...then core 0 claims the remaining three ways (over its fair
        // share of 4 ways / 2 cores = 2).
        c.fill_owned(line(1), false, 0, 2);
        c.fill_owned(line(2), false, 0, 2);
        c.fill_owned(line(3), false, 0, 2);
        assert_eq!(c.owner_occupancy(0), 3);
        assert_eq!(c.owner_occupancy(1), 1);
        // Core 1 fills again: plain LRU would evict its own line(4); the
        // fair-share policy instead evicts the LRU line of over-quota
        // core 0, which is line(1).
        match c.fill_owned(line(5), false, 1, 2) {
            Eviction::Clean(victim) => assert_eq!(victim, line(1)),
            other => panic!("expected clean eviction of over-quota line, got {other:?}"),
        }
        assert_eq!(c.owner_occupancy(0), 2);
        assert_eq!(c.owner_occupancy(1), 2);
        assert!(c.access(line(4), false), "under-quota owner keeps its line");
    }

    #[test]
    fn fair_share_zero_is_plain_lru() {
        let mut c = tiny();
        let a = addr(0, 1);
        let b = addr(0, 2);
        let d = addr(0, 3);
        c.fill_owned(a, false, 0, 0);
        c.fill_owned(b, false, 1, 0);
        assert!(c.access(a, false));
        // fair_ways == 0: plain LRU picks `b` regardless of owners.
        match c.fill_owned(d, false, 1, 0) {
            Eviction::Clean(victim) => assert_eq!(victim, b),
            other => panic!("expected clean LRU eviction of b, got {other:?}"),
        }
    }

    #[test]
    fn occupancy_tracks_valid_lines() {
        let mut c = tiny();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.capacity_lines(), 4);
        c.fill_owned(addr(0, 1), false, 0, 0);
        c.fill_owned(addr(1, 1), false, 1, 0);
        assert_eq!(c.occupancy(), 2);
        assert_eq!(c.owner_occupancy(0), 1);
        assert_eq!(c.owner_occupancy(1), 1);
        c.flush();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_way_geometry_is_rejected() {
        CacheConfig::new("Z", 256, 0, 1);
    }

    #[test]
    fn victim_address_reconstruction() {
        // Fill three distinct tags in the same set of a tiny cache and make
        // sure the reconstructed victim address equals the original fill.
        let mut c = tiny();
        let a = addr(1, 10);
        let b = addr(1, 20);
        let d = addr(1, 30);
        c.fill(a, true);
        c.fill(b, true);
        match c.fill(d, false) {
            Eviction::Dirty(victim) => assert_eq!(victim, a),
            other => panic!("unexpected {other:?}"),
        }
    }
}
