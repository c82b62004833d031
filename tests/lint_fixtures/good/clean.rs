//! Good fixture: the idioms this workspace uses instead of the banned ones.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::unreachable))]

use std::collections::{BTreeMap, BTreeSet};

use laser_machine::fasthash::FastHashMap;

/// Deterministic order: BTree containers may be iterated freely.
pub fn largest(counts: &BTreeMap<u64, u64>) -> Option<u64> {
    counts.values().max().copied()
}

/// Counting is not a reduction over values.
pub fn count_lines(lines: &BTreeSet<u64>) -> usize {
    lines.iter().count()
}

/// Errors are returned, not panicked.
pub fn take(v: Option<u64>) -> Result<u64, &'static str> {
    v.ok_or("value missing")
}

/// Hot lookup-only maps use the deterministic `FastHashMap`.
pub fn bump(map: &mut FastHashMap<u64, u64>, line: u64) -> u64 {
    let slot = map.entry(line).or_insert(0);
    *slot += 1;
    *slot
}
