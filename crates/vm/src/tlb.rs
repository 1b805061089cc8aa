//! Two-level set-associative TLB (paper Table 3: L1 64-entry 4-way,
//! L2 2048-entry 12-way).
//!
//! The TLB caches virtual-page-number → frame translations. Misses at both
//! levels trigger a hardware page walk (see [`crate::walker`]). Shootdowns
//! invalidate single pages; context switches flush everything (the simulated
//! machine has no ASIDs, matching the paper's single-process-per-core focus).

use memento_obs::Log2Hist;
use memento_simcore::addr::VirtAddr;
use memento_simcore::cycles::Cycles;
use memento_simcore::physmem::Frame;
use memento_simcore::stats::HitMiss;

/// Geometry of one TLB level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbLevelConfig {
    /// Total entries.
    pub entries: usize,
    /// Ways per set.
    pub assoc: usize,
    /// Lookup latency charged when the translation is found at this level.
    pub latency: Cycles,
}

/// Geometry of the two-level TLB.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbConfig {
    /// First level.
    pub l1: TlbLevelConfig,
    /// Second level.
    pub l2: TlbLevelConfig,
}

impl TlbConfig {
    /// The paper's Table 3 TLB: L1 64-entry 4-way (free on hit), L2
    /// 2048-entry 12-way (7-cycle hit).
    pub fn paper_default() -> Self {
        TlbConfig {
            l1: TlbLevelConfig {
                entries: 64,
                assoc: 4,
                latency: Cycles::new(0),
            },
            l2: TlbLevelConfig {
                entries: 2048,
                assoc: 12,
                latency: Cycles::new(7),
            },
        }
    }
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig::paper_default()
    }
}

/// VPN of an empty way. A VPN is a virtual address shifted right by the
/// page bits, so it never reaches `u64::MAX`.
const INVALID: u64 = u64::MAX;

#[derive(Clone, Copy, Debug)]
struct TlbEntry {
    /// [`INVALID`] for an empty way.
    vpn: u64,
    frame: Frame,
    /// LRU stamp; 0 in an empty way, so the first empty way is always the
    /// oldest (live stamps start at 1).
    lru: u64,
}

impl TlbEntry {
    const EMPTY: TlbEntry = TlbEntry {
        vpn: INVALID,
        frame: Frame::from_number(0),
        lru: 0,
    };
}

#[derive(Clone, Debug)]
struct TlbArray {
    /// Every way of every set, set-major: way `w` of set `s` is
    /// `entries[s * assoc + w]`.
    entries: Vec<TlbEntry>,
    assoc: usize,
    num_sets: u64,
    /// `num_sets - 1` when the set count is a power of two, so the set
    /// index is a mask instead of a division.
    set_mask: Option<u64>,
    stamp: u64,
    latency: Cycles,
}

impl TlbArray {
    fn new(cfg: TlbLevelConfig) -> Self {
        assert!(
            cfg.assoc > 0,
            "TLB level must have at least one way, got assoc 0"
        );
        // Paper geometry (2048-entry, 12-way) is not an exact multiple, so
        // round the set count up — matching how sliced TLBs are built.
        let num_sets = cfg.entries.div_ceil(cfg.assoc).max(1);
        TlbArray {
            entries: vec![TlbEntry::EMPTY; num_sets * cfg.assoc],
            assoc: cfg.assoc,
            num_sets: num_sets as u64,
            set_mask: num_sets.is_power_of_two().then(|| num_sets as u64 - 1),
            stamp: 0,
            latency: cfg.latency,
        }
    }

    /// The ways of the set `vpn` maps to.
    fn set_mut(&mut self, vpn: u64) -> &mut [TlbEntry] {
        let set = match self.set_mask {
            Some(mask) => vpn & mask,
            None => vpn % self.num_sets,
        };
        let base = set as usize * self.assoc;
        &mut self.entries[base..base + self.assoc]
    }

    fn lookup(&mut self, vpn: u64) -> Option<Frame> {
        self.stamp += 1;
        let stamp = self.stamp;
        let e = self.set_mut(vpn).iter_mut().find(|e| e.vpn == vpn)?;
        e.lru = stamp;
        Some(e.frame)
    }

    fn insert(&mut self, vpn: u64, frame: Frame) {
        self.stamp += 1;
        let stamp = self.stamp;
        let set = self.set_mut(vpn);
        // One scan: a present entry is updated in place; otherwise the way
        // with the smallest stamp is the first empty way, or the LRU entry
        // of a full set.
        let (mut victim, mut oldest) = (0, u64::MAX);
        for (i, e) in set.iter_mut().enumerate() {
            if e.vpn == vpn {
                e.frame = frame;
                e.lru = stamp;
                return;
            }
            if e.lru < oldest {
                (victim, oldest) = (i, e.lru);
            }
        }
        set[victim] = TlbEntry {
            vpn,
            frame,
            lru: stamp,
        };
    }

    /// Empties the way holding `vpn`; an insert keeps at most one per VPN.
    fn invalidate(&mut self, vpn: u64) -> bool {
        match self.set_mut(vpn).iter_mut().find(|e| e.vpn == vpn) {
            Some(e) => {
                *e = TlbEntry::EMPTY;
                true
            }
            None => false,
        }
    }

    fn flush(&mut self) {
        self.entries.fill(TlbEntry::EMPTY);
    }
}

/// TLB statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// First-level lookups.
    pub l1: HitMiss,
    /// Second-level lookups (only on L1 miss).
    pub l2: HitMiss,
    /// Pages invalidated by shootdowns.
    pub shootdowns: u64,
    /// Full flushes (context switches).
    pub flushes: u64,
}

/// Outcome of a TLB lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbLookup {
    /// The translation, if cached at either level.
    pub frame: Option<Frame>,
    /// Lookup latency (0 on an L1 hit with the default config).
    pub cycles: Cycles,
}

/// A two-level TLB.
#[derive(Clone, Debug)]
pub struct Tlb {
    l1: TlbArray,
    l2: TlbArray,
    stats: TlbStats,
    lat: Log2Hist,
}

impl Tlb {
    /// Builds an empty TLB.
    pub fn new(cfg: TlbConfig) -> Self {
        Tlb {
            l1: TlbArray::new(cfg.l1),
            l2: TlbArray::new(cfg.l2),
            stats: TlbStats::default(),
            lat: Log2Hist::default(),
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Distribution of lookup latencies (cycles; bucket 0 = free L1 hits).
    pub fn hit_latency(&self) -> &Log2Hist {
        &self.lat
    }

    /// Looks up the page containing `va` in both levels; promotes L2 hits
    /// into L1.
    pub fn lookup(&mut self, va: VirtAddr) -> TlbLookup {
        let vpn = va.page_number();
        if let Some(frame) = self.l1.lookup(vpn) {
            self.stats.l1.hit();
            self.lat.record(self.l1.latency.raw());
            return TlbLookup {
                frame: Some(frame),
                cycles: self.l1.latency,
            };
        }
        self.stats.l1.miss();
        let cycles = self.l1.latency + self.l2.latency;
        self.lat.record(cycles.raw());
        if let Some(frame) = self.l2.lookup(vpn) {
            self.stats.l2.hit();
            self.l1.insert(vpn, frame);
            return TlbLookup {
                frame: Some(frame),
                cycles,
            };
        }
        self.stats.l2.miss();
        TlbLookup {
            frame: None,
            cycles,
        }
    }

    /// Installs a translation into both levels (post-walk insert).
    pub fn insert(&mut self, va: VirtAddr, frame: Frame) {
        let vpn = va.page_number();
        self.l1.insert(vpn, frame);
        self.l2.insert(vpn, frame);
    }

    /// Invalidates one page (TLB shootdown).
    pub fn shootdown(&mut self, va: VirtAddr) {
        let vpn = va.page_number();
        let hit = self.l1.invalidate(vpn) | self.l2.invalidate(vpn);
        if hit {
            self.stats.shootdowns += 1;
        }
    }

    /// Flushes all translations (context switch).
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.stats.flushes += 1;
    }
}

impl Default for Tlb {
    fn default() -> Self {
        Tlb::new(TlbConfig::paper_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memento_simcore::addr::PAGE_SIZE;

    fn page(n: u64) -> VirtAddr {
        VirtAddr::new(n * PAGE_SIZE as u64)
    }

    #[test]
    fn miss_insert_hit() {
        let mut tlb = Tlb::default();
        let va = page(7);
        assert_eq!(tlb.lookup(va).frame, None);
        tlb.insert(va, Frame::from_number(42));
        let hit = tlb.lookup(va);
        assert_eq!(hit.frame, Some(Frame::from_number(42)));
        assert_eq!(hit.cycles, Cycles::ZERO, "L1 hit is free");
        assert_eq!(tlb.stats().l1.hits, 1);
        assert_eq!(tlb.stats().l1.misses, 1);
    }

    #[test]
    fn l2_backstops_l1_evictions() {
        let mut tlb = Tlb::default();
        // Fill far more pages than L1 holds (64 entries) but fewer than L2.
        for n in 0..512u64 {
            tlb.insert(page(n), Frame::from_number(n));
        }
        // Page 0 was evicted from L1 but should hit in L2 with latency 7.
        let out = tlb.lookup(page(0));
        assert_eq!(out.frame, Some(Frame::from_number(0)));
        assert_eq!(out.cycles, Cycles::new(7));
        assert_eq!(tlb.stats().l2.hits, 1);
        // And is now promoted to L1.
        assert_eq!(tlb.lookup(page(0)).cycles, Cycles::ZERO);
    }

    #[test]
    fn same_page_offsets_share_entry() {
        let mut tlb = Tlb::default();
        tlb.insert(VirtAddr::new(0x1004), Frame::from_number(9));
        assert_eq!(
            tlb.lookup(VirtAddr::new(0x1ffc)).frame,
            Some(Frame::from_number(9))
        );
    }

    #[test]
    fn shootdown_removes_page() {
        let mut tlb = Tlb::default();
        tlb.insert(page(3), Frame::from_number(3));
        tlb.shootdown(page(3));
        assert_eq!(tlb.lookup(page(3)).frame, None);
        assert_eq!(tlb.stats().shootdowns, 1);
        // Shooting down an absent page does not count.
        tlb.shootdown(page(99));
        assert_eq!(tlb.stats().shootdowns, 1);
    }

    #[test]
    fn flush_clears_everything() {
        let mut tlb = Tlb::default();
        for n in 0..32u64 {
            tlb.insert(page(n), Frame::from_number(n));
        }
        tlb.flush();
        for n in 0..32u64 {
            assert_eq!(tlb.lookup(page(n)).frame, None);
        }
        assert_eq!(tlb.stats().flushes, 1);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_way_geometry_is_rejected() {
        let mut cfg = TlbConfig::paper_default();
        cfg.l2.assoc = 0;
        Tlb::new(cfg);
    }

    #[test]
    fn reinsert_updates_mapping() {
        let mut tlb = Tlb::default();
        tlb.insert(page(1), Frame::from_number(10));
        tlb.insert(page(1), Frame::from_number(20));
        assert_eq!(tlb.lookup(page(1)).frame, Some(Frame::from_number(20)));
    }
}
