//! Differential test of `SetAssocCache` against a small reference LRU
//! model. The model keeps each set as a row of ways plus a recency list of
//! way indices, least recent first. A fill takes the lowest-numbered empty
//! way; in a full set it takes the least recent way, or, with fair share
//! on, the least recent way among owners holding more than `fair_ways`
//! ways of the set. Random operation sequences must give the same hits,
//! the same evictions, the same flushed dirty lines in the same order, the
//! same occupancy and the same statistics.

use memento_cache::cache::Eviction;
use memento_cache::{CacheConfig, CacheStats, SetAssocCache};
use memento_simcore::addr::{PhysAddr, CACHE_LINE_SHIFT};
use proptest::prelude::*;

/// Small geometries `(sets, ways)`, so sets fill and evict quickly.
const GEOMETRIES: [(usize, usize); 4] = [(1, 1), (1, 4), (2, 3), (4, 2)];
const OWNERS: usize = 3;

#[derive(Clone, Debug)]
enum Op {
    Access {
        line: u64,
        write: bool,
    },
    Fill {
        line: u64,
        dirty: bool,
    },
    FillOwned {
        line: u64,
        dirty: bool,
        owner: usize,
        fair_ways: usize,
    },
    Flush,
}

#[derive(Clone, Copy, Debug)]
struct RefLine {
    line: u64,
    dirty: bool,
    owner: usize,
}

/// Reference model: per set, `assoc` optional ways and the recency order
/// of the occupied ones.
struct Reference {
    sets: Vec<Vec<Option<RefLine>>>,
    recency: Vec<Vec<usize>>,
    stats: CacheStats,
}

impl Reference {
    fn new(sets: usize, assoc: usize) -> Self {
        Reference {
            sets: vec![vec![None; assoc]; sets],
            recency: vec![Vec::new(); sets],
            stats: CacheStats::default(),
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.sets.len() as u64) as usize
    }

    fn find(&self, set: usize, line: u64) -> Option<usize> {
        self.sets[set]
            .iter()
            .position(|w| w.is_some_and(|l| l.line == line))
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.recency[set].retain(|&w| w != way);
        self.recency[set].push(way);
    }

    fn access(&mut self, line: u64, write: bool) -> bool {
        let set = self.set_of(line);
        match self.find(set, line) {
            Some(way) => {
                self.sets[set][way].as_mut().expect("found way").dirty |= write;
                self.touch(set, way);
                self.stats.demand.hits += 1;
                true
            }
            None => {
                self.stats.demand.misses += 1;
                false
            }
        }
    }

    fn fill(&mut self, line: u64, dirty: bool, owner: usize, fair_ways: usize) -> Eviction {
        let set = self.set_of(line);
        self.stats.fills += 1;
        if let Some(way) = self.find(set, line) {
            let l = self.sets[set][way].as_mut().expect("found way");
            l.dirty |= dirty;
            l.owner = owner;
            self.touch(set, way);
            return Eviction::None;
        }
        let ways = &self.sets[set];
        let way = match ways.iter().position(Option::is_none) {
            Some(way) => way,
            None => {
                let held = |o: usize| ways.iter().flatten().filter(|l| l.owner == o).count();
                let over_quota = |w: &usize| {
                    fair_ways > 0 && held(ways[*w].expect("full set").owner) > fair_ways
                };
                let recency = &self.recency[set];
                recency
                    .iter()
                    .copied()
                    .find(over_quota)
                    .unwrap_or(recency[0])
            }
        };
        let old = self.sets[set][way].replace(RefLine { line, dirty, owner });
        self.touch(set, way);
        match old {
            None => Eviction::None,
            Some(l) if l.dirty => {
                self.stats.writebacks += 1;
                Eviction::Dirty(addr(l.line))
            }
            Some(l) => Eviction::Clean(addr(l.line)),
        }
    }

    fn flush(&mut self) -> Vec<PhysAddr> {
        let mut dirty = Vec::new();
        for ways in &mut self.sets {
            for l in ways.iter_mut().filter_map(Option::take) {
                self.stats.flushed += 1;
                if l.dirty {
                    dirty.push(addr(l.line));
                }
            }
        }
        self.recency.iter_mut().for_each(Vec::clear);
        dirty
    }

    fn occupancy(&self) -> usize {
        self.sets.iter().flatten().flatten().count()
    }

    fn owner_occupancy(&self, owner: usize) -> usize {
        self.sets
            .iter()
            .flatten()
            .flatten()
            .filter(|l| l.owner == owner)
            .count()
    }
}

fn addr(line: u64) -> PhysAddr {
    PhysAddr::new(line << CACHE_LINE_SHIFT)
}

/// Line numbers: a dozen low lines that collide in every small geometry,
/// the same lines far up the address space (large tags), and the top line.
fn line() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..12,
        (0u64..12).prop_map(|l| l | (1 << 40)),
        Just(u64::MAX >> CACHE_LINE_SHIFT),
    ]
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (line(), any::<bool>()).prop_map(|(line, write)| Op::Access { line, write }),
            (line(), any::<bool>()).prop_map(|(line, dirty)| Op::Fill { line, dirty }),
            (line(), any::<bool>(), 0..OWNERS, 0usize..3).prop_map(
                |(line, dirty, owner, fair_ways)| Op::FillOwned {
                    line,
                    dirty,
                    owner,
                    fair_ways,
                }
            ),
            // Fair share switched on in a set small enough to overflow.
            (line(), any::<bool>(), 0..OWNERS).prop_map(|(line, dirty, owner)| Op::FillOwned {
                line,
                dirty,
                owner,
                fair_ways: 1,
            }),
            Just(Op::Flush),
        ],
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cache_matches_reference_lru(geometry in 0..GEOMETRIES.len(), ops in ops()) {
        let (sets, assoc) = GEOMETRIES[geometry];
        let mut cache = SetAssocCache::new(CacheConfig::new("T", sets * assoc * 64, assoc, 1));
        let mut reference = Reference::new(sets, assoc);
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Access { line, write } => {
                    prop_assert_eq!(
                        cache.access(addr(line), write),
                        reference.access(line, write),
                        "step {} access {:#x}", step, line
                    );
                }
                Op::Fill { line, dirty } => {
                    prop_assert_eq!(
                        cache.fill(addr(line), dirty),
                        reference.fill(line, dirty, 0, 0),
                        "step {} fill {:#x}", step, line
                    );
                }
                Op::FillOwned { line, dirty, owner, fair_ways } => {
                    prop_assert_eq!(
                        cache.fill_owned(addr(line), dirty, owner, fair_ways),
                        reference.fill(line, dirty, owner, fair_ways),
                        "step {} fill_owned {:#x} owner {} fair {}", step, line, owner, fair_ways
                    );
                }
                Op::Flush => {
                    prop_assert_eq!(cache.flush(), reference.flush(), "step {} flush", step);
                }
            }
            prop_assert_eq!(cache.occupancy(), reference.occupancy());
            for owner in 0..OWNERS {
                prop_assert_eq!(cache.owner_occupancy(owner), reference.owner_occupancy(owner));
            }
            prop_assert_eq!(cache.stats(), reference.stats);
        }
        prop_assert_eq!(cache.flush(), reference.flush());
        prop_assert_eq!(cache.capacity_lines(), sets * assoc);
    }
}
