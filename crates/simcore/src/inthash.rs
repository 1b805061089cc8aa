//! Unkeyed hashing for maps keyed by small integers.
//!
//! The standard library's `RandomState` runs SipHash with a per-process
//! random key: a sound default against hash flooding, but it costs a full
//! SipHash round per lookup and makes iteration order differ between runs.
//! Simulator maps are keyed by frame numbers and object ids that the
//! simulator itself generates, so neither property is worth the price on
//! paths such as [`PhysMem`](crate::physmem::PhysMem), which is consulted
//! on every simulated page-table and allocator-header access.
//!
//! [`IntHasher`] is a multiplicative (Fibonacci-style) hash: each word is
//! folded into the state with one rotate, one xor and one multiply, and
//! [`Hasher::finish`] rotates the product so that its well-mixed high bits
//! land in the low bits a hash table uses to pick a bucket. Keys that share
//! their low bits (page-aligned addresses, say) therefore still spread.
//!
//! # Examples
//!
//! ```
//! use memento_simcore::inthash::BuildIntHasher;
//! use std::collections::HashMap;
//!
//! let mut m: HashMap<u64, &str, BuildIntHasher> = HashMap::default();
//! m.insert(4096, "page one");
//! assert_eq!(m.get(&4096), Some(&"page one"));
//! ```

use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-distributed bits (2^64 / golden ratio).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// How far [`Hasher::finish`] rotates the state left, moving the best-mixed
/// high product bits down to the bucket-index bits.
const FINISH_ROTATE: u32 = 26;

/// Unkeyed multiplicative hasher for integer keys (see the module docs).
#[derive(Clone, Copy, Default, Debug)]
pub struct IntHasher {
    state: u64,
}

impl IntHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state.rotate_left(FINISH_ROTATE)
    }

    /// Hashes arbitrary bytes: whole 8-byte words first, then the tail
    /// zero-padded into one last word tagged with its length, so inputs
    /// that differ only by trailing zero bytes still hash apart.
    fn write(&mut self, bytes: &[u8]) {
        let (words, tail) = bytes.as_chunks::<8>();
        for word in words {
            self.add_word(u64::from_le_bytes(*word));
        }
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        self.add_word(u64::from_le_bytes(last) ^ ((tail.len() as u64) << 59));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_word(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_word(n as u64);
    }
}

/// `BuildHasher` for [`IntHasher`]: use as the third type parameter of a
/// `HashMap`/`HashSet` and construct the map with `default()`.
pub type BuildIntHasher = BuildHasherDefault<IntHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        BuildIntHasher::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equal_across_builders() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_ne!(hash_of(&42u64), hash_of(&43u64));
    }

    #[test]
    fn page_aligned_keys_spread_over_low_bits() {
        // Keys sharing their low 12 bits must still select many distinct
        // buckets of a 1024-bucket table.
        let buckets: HashSet<u64> = (0..1024u64).map(|i| hash_of(&(i << 12)) & 1023).collect();
        assert!(buckets.len() > 512, "only {} buckets used", buckets.len());
    }

    #[test]
    fn write_hashes_arbitrary_bytes() {
        // Every length from empty to several words, without panicking, and
        // trailing zero bytes change the hash.
        let bytes: Vec<u8> = (0..=40u8).collect();
        let hashes: HashSet<u64> = (0..bytes.len()).map(|n| hash_of(&bytes[..n])).collect();
        assert_eq!(hashes.len(), bytes.len());
        let mut a = IntHasher::default();
        a.write(&[1]);
        let mut b = IntHasher::default();
        b.write(&[1, 0]);
        assert_ne!(a.finish(), b.finish());
        assert_eq!(hash_of("frame"), hash_of("frame"));
        assert_ne!(hash_of("frame"), hash_of("frames"));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: HashMap<u64, u64, BuildIntHasher> = HashMap::default();
        for i in 0..10_000u64 {
            m.insert(i * 4096, i);
        }
        assert_eq!(m.len(), 10_000);
        assert!((0..10_000u64).all(|i| m.get(&(i * 4096)) == Some(&i)));
        assert_eq!(m.get(&1), None);
    }
}
