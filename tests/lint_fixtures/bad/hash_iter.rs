//! Bad fixture: iterating a hash-ordered container.
//! Std maps and sets are banned by type (see `default_hasher.rs`), so the
//! only hash map a crate here can hold is `FastHashMap`. It has no iteration
//! API, so every way of walking it is a compile error.

use laser_machine::fasthash::FastHashMap;

pub fn totals(counts: &FastHashMap<u64, u64>) -> usize {
    counts.iter().count() //~ E0599
}

pub fn walk(counts: &FastHashMap<u64, u64>) {
    for _ in counts {} //~ E0277
}

pub fn drain(counts: FastHashMap<u64, u64>) -> usize {
    counts.into_iter().count() //~ E0599
}

pub fn keys(counts: &FastHashMap<u64, u64>) -> usize {
    counts.keys().count() //~ E0599
}

pub fn prune(counts: &mut FastHashMap<u64, u64>) {
    counts.retain(|_, n| *n > 0); //~ E0599
}
