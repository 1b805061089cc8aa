//! Differential test of the two-level `Tlb` against a small reference LRU
//! model. Each reference level keeps, per set, a row of ways plus a
//! recency list of way indices, least recent first. An insert takes the
//! lowest-numbered empty way, else the least recent way; an L2 hit is
//! promoted into L1. Random lookup, insert, shootdown and flush sequences
//! must give the same translations, the same latencies and the same
//! statistics on the paper geometry (16 L1 sets, 171 L2 sets) and on a
//! small one (4 and 3 sets).

use memento_simcore::addr::{VirtAddr, PAGE_SIZE};
use memento_simcore::cycles::Cycles;
use memento_simcore::physmem::Frame;
use memento_vm::tlb::TlbLevelConfig;
use memento_vm::{Tlb, TlbConfig, TlbStats};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum Op {
    Lookup(u64),
    Insert { vpn: u64, frame: u64 },
    Shootdown(u64),
    Flush,
}

/// One reference level: `(vpn, frame)` ways and their recency per set.
struct RefLevel {
    sets: Vec<Vec<Option<(u64, Frame)>>>,
    recency: Vec<Vec<usize>>,
    latency: Cycles,
}

impl RefLevel {
    fn new(cfg: TlbLevelConfig) -> Self {
        let sets = cfg.entries.div_ceil(cfg.assoc).max(1);
        RefLevel {
            sets: vec![vec![None; cfg.assoc]; sets],
            recency: vec![Vec::new(); sets],
            latency: cfg.latency,
        }
    }

    fn set_of(&self, vpn: u64) -> usize {
        (vpn % self.sets.len() as u64) as usize
    }

    fn find(&self, set: usize, vpn: u64) -> Option<usize> {
        self.sets[set]
            .iter()
            .position(|w| w.is_some_and(|(v, _)| v == vpn))
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.recency[set].retain(|&w| w != way);
        self.recency[set].push(way);
    }

    fn lookup(&mut self, vpn: u64) -> Option<Frame> {
        let set = self.set_of(vpn);
        let way = self.find(set, vpn)?;
        self.touch(set, way);
        self.sets[set][way].map(|(_, frame)| frame)
    }

    fn insert(&mut self, vpn: u64, frame: Frame) {
        let set = self.set_of(vpn);
        let way = self
            .find(set, vpn)
            .or_else(|| self.sets[set].iter().position(Option::is_none))
            .unwrap_or_else(|| self.recency[set][0]);
        self.sets[set][way] = Some((vpn, frame));
        self.touch(set, way);
    }

    fn invalidate(&mut self, vpn: u64) -> bool {
        let set = self.set_of(vpn);
        match self.find(set, vpn) {
            Some(way) => {
                self.sets[set][way] = None;
                self.recency[set].retain(|&w| w != way);
                true
            }
            None => false,
        }
    }

    fn flush(&mut self) {
        self.sets.iter_mut().flatten().for_each(|w| *w = None);
        self.recency.iter_mut().for_each(Vec::clear);
    }
}

struct Reference {
    l1: RefLevel,
    l2: RefLevel,
    stats: TlbStats,
}

impl Reference {
    fn new(cfg: TlbConfig) -> Self {
        Reference {
            l1: RefLevel::new(cfg.l1),
            l2: RefLevel::new(cfg.l2),
            stats: TlbStats::default(),
        }
    }

    fn lookup(&mut self, vpn: u64) -> (Option<Frame>, Cycles) {
        if let Some(frame) = self.l1.lookup(vpn) {
            self.stats.l1.hits += 1;
            return (Some(frame), self.l1.latency);
        }
        self.stats.l1.misses += 1;
        let cycles = self.l1.latency + self.l2.latency;
        match self.l2.lookup(vpn) {
            Some(frame) => {
                self.stats.l2.hits += 1;
                self.l1.insert(vpn, frame);
                (Some(frame), cycles)
            }
            None => {
                self.stats.l2.misses += 1;
                (None, cycles)
            }
        }
    }

    fn insert(&mut self, vpn: u64, frame: Frame) {
        self.l1.insert(vpn, frame);
        self.l2.insert(vpn, frame);
    }

    fn shootdown(&mut self, vpn: u64) {
        if self.l1.invalidate(vpn) | self.l2.invalidate(vpn) {
            self.stats.shootdowns += 1;
        }
    }

    fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.stats.flushes += 1;
    }
}

fn level(entries: usize, assoc: usize, latency: u64) -> TlbLevelConfig {
    TlbLevelConfig {
        entries,
        assoc,
        latency: Cycles::new(latency),
    }
}

/// A small geometry: 4 L1 sets (masked index) and 3 L2 sets (`%` index).
fn small() -> TlbConfig {
    TlbConfig {
        l1: level(8, 2, 1),
        l2: level(15, 5, 4),
    }
}

/// Lookups and inserts twice as often as shootdowns and flushes.
fn ops<S: Strategy<Value = u64> + 'static>(vpn: fn() -> S) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            vpn().prop_map(Op::Lookup),
            vpn().prop_map(Op::Lookup),
            (vpn(), 0u64..8).prop_map(|(vpn, frame)| Op::Insert { vpn, frame }),
            (vpn(), 0u64..8).prop_map(|(vpn, frame)| Op::Insert { vpn, frame }),
            vpn().prop_map(Op::Shootdown),
            Just(Op::Flush),
        ],
        1..600,
    )
}

/// Paper-geometry VPNs: four residues mod lcm(16, 171) = 2736 times up to
/// 24 multiples, so one L1 set and one L2 set both overflow, plus a few
/// scattered pages.
fn paper_vpn() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0u64..4, 0u64..24).prop_map(|(r, k)| r + k * 2736),
        (0u64..4, 0u64..24).prop_map(|(r, k)| r + k * 2736),
        0u64..5000,
    ]
}

/// Small-geometry VPNs: 40 pages over 4 and 3 sets.
fn small_vpn() -> impl Strategy<Value = u64> {
    0u64..40
}

fn check(cfg: TlbConfig, ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut tlb = Tlb::new(cfg);
    let mut reference = Reference::new(cfg);
    for (step, op) in ops.into_iter().enumerate() {
        match op {
            Op::Lookup(vpn) => {
                let out = tlb.lookup(page(vpn));
                let (frame, cycles) = reference.lookup(vpn);
                prop_assert_eq!(out.frame, frame, "step {} lookup {}", step, vpn);
                prop_assert_eq!(out.cycles, cycles, "step {} lookup {}", step, vpn);
            }
            Op::Insert { vpn, frame } => {
                tlb.insert(page(vpn), Frame::from_number(frame));
                reference.insert(vpn, Frame::from_number(frame));
            }
            Op::Shootdown(vpn) => {
                tlb.shootdown(page(vpn));
                reference.shootdown(vpn);
            }
            Op::Flush => {
                tlb.flush();
                reference.flush();
            }
        }
        prop_assert_eq!(tlb.stats(), reference.stats, "step {}", step);
    }
    Ok(())
}

fn page(vpn: u64) -> VirtAddr {
    VirtAddr::new(vpn * PAGE_SIZE as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn paper_tlb_matches_reference_lru(ops in ops(paper_vpn)) {
        check(TlbConfig::paper_default(), ops)?;
    }

    #[test]
    fn small_tlb_matches_reference_lru(ops in ops(small_vpn)) {
        check(small(), ops)?;
    }
}
