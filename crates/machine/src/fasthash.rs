//! A fast, deterministic hasher for the simulator's address-keyed maps.
//!
//! The coherence directory and sparse memory key their maps by line address
//! and page number — small integers on the machine's hottest path. The
//! standard library's default SipHash is DoS-resistant but costs tens of
//! cycles per lookup, which the hot loop pays several times per simulated
//! memory access. These maps are never exposed to untrusted keys and are
//! never iterated (only counted), so a cheap multiply-rotate hash is both
//! safe and behavior-preserving: [`FastHashMap`] has no iteration API, so no
//! observable output of the machine can depend on map order.
//!
//! The mixing function is the classic Fx hash (one wrapping multiply by a
//! golden-ratio-derived odd constant per word, with a rotate to spread low
//! bits), seeded identically on every run so simulations stay deterministic.

use std::collections::hash_map::Entry;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Multiplier: 2^64 / phi, forced odd — the classic Fibonacci hashing
/// constant.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// A non-cryptographic word-at-a-time hasher (Fx-style).
#[derive(Debug, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FastHasher`]: zero-sized, identical on every run.
type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A lookup-only hash map keyed through [`FastHasher`]: deterministic
/// hashing, O(1) lookups for the hot per-access paths.
///
/// Its iteration order would depend on insertion history and capacity, so it
/// offers no way to iterate at all: no `iter`, no `keys`/`values`, no
/// `IntoIterator`, and a `Debug` that prints only the length. Walking a hash
/// map in this workspace is a type error, not a review finding:
///
/// ```compile_fail,E0277
/// let m = laser_machine::fasthash::FastHashMap::<u64, u64>::default();
/// for _ in &m {}
/// ```
///
/// ```compile_fail,E0599
/// let m = laser_machine::fasthash::FastHashMap::<u64, u64>::default();
/// let _ = m.iter();
/// ```
///
/// ```compile_fail,E0599
/// let m = laser_machine::fasthash::FastHashMap::<u64, u64>::default();
/// let _ = m.into_iter();
/// ```
#[derive(Clone)]
pub struct FastHashMap<K, V>(
    #[expect(
        clippy::disallowed_types,
        reason = "the one std map in the workspace; this wrapper exposes no iteration"
    )]
    std::collections::HashMap<K, V, FastBuildHasher>,
);

impl<K, V> Default for FastHashMap<K, V> {
    #[inline]
    fn default() -> Self {
        FastHashMap(Default::default())
    }
}

impl<K, V> fmt::Debug for FastHashMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FastHashMap")
            .field("len", &self.0.len())
            .finish()
    }
}

impl<K: Eq + Hash, V> FastHashMap<K, V> {
    /// The value stored under `key`.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.0.get(key)
    }

    /// The slot for `key`, for a single-probe read-modify-write.
    #[inline]
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        self.0.entry(key)
    }

    /// Store `value` under `key`, returning the value it replaced.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.0.insert(key, value)
    }

    /// Remove and return the value stored under `key`.
    #[inline]
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.0.remove(key)
    }
}

impl<K, V> FastHashMap<K, V> {
    /// Number of stored keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if no key is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Remove every key, keeping the allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::hash::BuildHasher;

    #[test]
    fn deterministic_across_builders() {
        let b1 = FastBuildHasher::default();
        let b2 = FastBuildHasher::default();
        for k in [0u64, 1, 64, 4096, u64::MAX] {
            assert_eq!(b1.hash_one(k), b2.hash_one(k));
        }
    }

    #[test]
    fn distinct_keys_rarely_collide() {
        // Line addresses are 64-byte aligned; make sure aligned keys spread.
        let b = FastBuildHasher::default();
        let mut seen = BTreeSet::new();
        for i in 0..10_000u64 {
            seen.insert(b.hash_one(i * 64));
        }
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn usable_as_map_hasher() {
        let mut m = FastHashMap::default();
        for i in 0..1000 {
            m.insert(i * 4096, i as u32);
        }
        for i in 0..1000 {
            assert_eq!(m.get(&(i * 4096)), Some(&(i as u32)));
        }
    }

    #[test]
    fn byte_writes_match_word_writes_for_aligned_input() {
        // HashMap<u64, _> hashes via write_u64; the generic write() path only
        // needs to be self-consistent, not identical — but check it mixes.
        let mut h = FastHasher::default();
        h.write(&[1, 2, 3]);
        let a = h.finish();
        let mut h = FastHasher::default();
        h.write(&[3, 2, 1]);
        assert_ne!(a, h.finish());
    }
}
