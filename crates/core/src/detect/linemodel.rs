//! The cache-line model that classifies true vs false sharing (Figure 5).
//!
//! Each cache line that appears in a HITM record is tracked with the type
//! (read/write) and byte bitmap of its *previous* access. When a new access
//! arrives, overlap between the two bitmaps with at least one write means the
//! threads touched the same data — true sharing; disjoint bitmaps with at
//! least one write mean they touched different data in the same line — false
//! sharing.

use laser_isa::program::Pc;
use laser_machine::fasthash::FastHashMap;
use laser_machine::{line_of, line_offset, Addr, CACHE_LINE_SIZE};

/// Classification of one observed sharing event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SharingClass {
    /// Overlapping bytes, at least one write.
    TrueSharing,
    /// Disjoint bytes of the same line, at least one write.
    FalseSharing,
}

#[derive(Debug, Clone, Copy)]
struct LastAccess {
    /// Whether the previous access was a write. Not needed by the footprint
    /// classification itself, but kept for report debugging and future
    /// heuristics (e.g. distinguishing write-write from read-write sharing).
    #[allow(dead_code)]
    was_write: bool,
    bitmap: u64,
}

/// Per-line state: the type and byte bitmap of the previous access, stored in
/// a hash table so only the handful of contended lines consume space.
#[derive(Debug, Default)]
pub struct CacheLineModel {
    // Hot per-record path: deterministic fast hashing, never iterated.
    lines: FastHashMap<Addr, LastAccess>,
}

impl CacheLineModel {
    /// An empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cache lines currently tracked.
    pub fn tracked_lines(&self) -> usize {
        self.lines.len()
    }

    fn bitmap_for(addr: Addr, size: u8) -> u64 {
        let start = line_offset(addr);
        let mut bm = 0u64;
        for i in 0..size as u64 {
            let off = start + i;
            if off >= CACHE_LINE_SIZE {
                break;
            }
            bm |= 1u64 << off;
        }
        bm
    }

    /// Record an access and, if the line has a previous access, classify the
    /// pair: overlapping footprints mean true sharing, disjoint footprints in
    /// the same line mean false sharing. Returns `None` for the first access
    /// to a line.
    ///
    /// A HITM record already implies that a *remote* core held the line
    /// Modified, so contention is established by the record's existence; the
    /// model only has to decide which bytes are involved, exactly as the
    /// paper's Figure 5 does. The `pc` and `is_write` arguments describe the
    /// recorded access (from the binary's load/store sets) and are retained
    /// for future heuristics, but the classification uses the byte footprint.
    pub fn observe(
        &mut self,
        addr: Addr,
        size: u8,
        is_write: bool,
        pc: Pc,
    ) -> Option<SharingClass> {
        let _ = pc;
        let line = line_of(addr);
        let bitmap = Self::bitmap_for(addr, size);
        let prev = self.lines.insert(
            line,
            LastAccess {
                was_write: is_write,
                bitmap,
            },
        );
        let prev = prev?;
        if prev.bitmap & bitmap != 0 {
            Some(SharingClass::TrueSharing)
        } else {
            Some(SharingClass::FalseSharing)
        }
    }

    /// Forget everything (used between detection windows in tests).
    pub fn clear(&mut self) {
        self.lines.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_is_unclassified() {
        let mut m = CacheLineModel::new();
        assert_eq!(m.observe(0x1000, 8, true, 0x40_0000), None);
        assert_eq!(m.tracked_lines(), 1);
    }

    #[test]
    fn overlapping_write_then_read_is_true_sharing() {
        let mut m = CacheLineModel::new();
        m.observe(0x1000, 8, true, 0x40_0000);
        assert_eq!(
            m.observe(0x1000, 8, false, 0x40_0010),
            Some(SharingClass::TrueSharing)
        );
        // Partial overlap also counts (4-byte write within the 8 bytes).
        assert_eq!(
            m.observe(0x1004, 4, true, 0x40_0020),
            Some(SharingClass::TrueSharing)
        );
    }

    #[test]
    fn disjoint_writes_in_one_line_are_false_sharing() {
        // The Figure 5 example: a previous 2-byte write at the start of the
        // line and an incoming 4-byte write at offset 4.
        let mut m = CacheLineModel::new();
        m.observe(0x1000, 2, true, 0x40_0000);
        assert_eq!(
            m.observe(0x1004, 4, true, 0x40_0010),
            Some(SharingClass::FalseSharing)
        );
    }

    #[test]
    fn load_only_records_still_classify_by_footprint() {
        // Read-read sharing does not generate HITMs at all, so when two
        // load records for one line do arrive, a remote writer must exist:
        // disjoint footprints indicate false sharing, overlapping ones true
        // sharing.
        let mut m = CacheLineModel::new();
        m.observe(0x2000, 8, false, 0x40_0000);
        assert_eq!(
            m.observe(0x2008, 8, false, 0x40_0004),
            Some(SharingClass::FalseSharing)
        );
        assert_eq!(
            m.observe(0x2008, 8, false, 0x40_0008),
            Some(SharingClass::TrueSharing)
        );
    }

    #[test]
    fn repeated_overlapping_writes_classify_as_true_sharing() {
        // HITM records only exist for *inter-thread* transfers, so two
        // consecutive records hitting the same bytes — even from the same
        // sampled instruction, as in a ticket-dispenser loop — are evidence of
        // true sharing (Figure 5 keeps no thread information).
        let mut m = CacheLineModel::new();
        m.observe(0x3000, 8, true, 0x40_0000);
        assert_eq!(
            m.observe(0x3000, 8, true, 0x40_0000),
            Some(SharingClass::TrueSharing)
        );
    }

    #[test]
    fn different_lines_are_independent() {
        let mut m = CacheLineModel::new();
        m.observe(0x1000, 8, true, 0x40_0000);
        assert_eq!(m.observe(0x1040, 8, true, 0x40_0004), None);
        assert_eq!(m.tracked_lines(), 2);
        m.clear();
        assert_eq!(m.tracked_lines(), 0);
    }

    #[test]
    fn accesses_straddling_line_end_are_clamped() {
        let mut m = CacheLineModel::new();
        // Access at offset 60 of size 8: only bytes 60..63 belong to this line.
        m.observe(0x103c, 8, true, 0x40_0000);
        assert_eq!(
            m.observe(0x1000, 4, true, 0x40_0004),
            Some(SharingClass::FalseSharing)
        );
    }
}
