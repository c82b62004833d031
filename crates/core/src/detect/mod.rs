//! LASERDETECT: the HITM-record processing pipeline (paper Section 4,
//! Figure 4).
//!
//! Records flow through the stages in order:
//!
//! 1. **PC filter** — records whose PC does not belong to the application or
//!    one of its libraries are dropped as spurious.
//! 2. **Stack filter** — records whose data address falls in a thread stack
//!    are dropped (stacks are not shared).
//! 3. **Aggregation** — surviving records are counted per PC and per source
//!    line; lines below the HITM-rate threshold are filtered from the final
//!    report (the threshold can be re-applied offline without rerunning).
//! 4. **Classification** — the PC is looked up in the binary's load/store
//!    sets to recover the access kind and size, and the access is replayed
//!    against the [`linemodel::CacheLineModel`] to count true- and
//!    false-sharing events per line.

pub mod linemodel;

use std::collections::BTreeMap;

use laser_isa::program::{Pc, Program, SourceLoc};
use laser_isa::MemAccessSets;
use laser_machine::memmap::PcClass;
use laser_machine::MemoryMap;
use laser_pebs::HitmRecord;

use crate::config::LaserConfig;
use crate::observe::LineRate;
use crate::report::{ContentionKind, ContentionReport, LineReport};
use linemodel::{CacheLineModel, SharingClass};

/// Cycles a detector with per-record cost `cycles_per_record` spends on a
/// batch of `n` records: the *single home* of the charge formula, shared by
/// [`Detector::processing_cycles`] and the session's ledger settlement.
pub(crate) fn batch_processing_cycles(cycles_per_record: u64, n: usize) -> u64 {
    cycles_per_record * n as u64
}

#[derive(Debug, Default, Clone, Copy)]
struct PcCounters {
    records: u64,
    true_sharing: u64,
    false_sharing: u64,
}

/// One source line's aggregated detector state: what the session's stage
/// ships to the machine side inside a quantum ledger, and the *single* shape
/// every report derivation ([`line_rates_from`], [`trigger_pcs_from`],
/// [`report_lines_from`]) consumes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LineAgg {
    /// The source line (the `<unknown>:0` sentinel for PCs with no debug
    /// info).
    pub(crate) loc: SourceLoc,
    /// Whether `loc` is a real source location. The repair trigger only
    /// considers known lines, mirroring the inline path which skips PCs
    /// without `source_of` entries.
    pub(crate) known: bool,
    pub(crate) records: u64,
    pub(crate) true_sharing: u64,
    pub(crate) false_sharing: u64,
    /// PCs contributing to this line, ascending and deduplicated.
    pub(crate) pcs: Vec<Pc>,
}

/// The live per-line HITM rates derived from aggregates: hottest line first,
/// ties broken by source location, no rate threshold applied. This is the
/// detector's intra-run view, carried by
/// [`LaserEvent::DetectionUpdate`](crate::observe::LaserEvent) so observers
/// can watch contention build while the run advances; the end-of-run
/// [`Detector::report`] applies the threshold.
pub(crate) fn line_rates_from(aggs: &[LineAgg], elapsed_seconds: f64) -> Vec<LineRate> {
    let elapsed = elapsed_seconds.max(1e-9);
    let mut lines: Vec<LineRate> = aggs
        .iter()
        .map(|agg| LineRate {
            file: agg.loc.file.clone(),
            line: agg.loc.line,
            hitm_records: agg.records,
            rate_per_sec: agg.records as f64 / elapsed,
        })
        .collect();
    lines.sort_by(|a, b| {
        b.hitm_records
            .cmp(&a.hitm_records)
            .then_with(|| a.file.cmp(&b.file))
            .then(a.line.cmp(&b.line))
    });
    lines
}

/// The repair-trigger PC set derived from aggregates: PCs of known source
/// lines whose contention is dominated by false sharing and whose HITM-record
/// rate exceeds `min_line_rate` (Section 4.4).
pub(crate) fn trigger_pcs_from(
    aggs: &[LineAgg],
    elapsed_seconds: f64,
    min_line_rate: f64,
) -> Vec<Pc> {
    let elapsed = elapsed_seconds.max(1e-9);
    let mut pcs = Vec::new();
    for agg in aggs {
        if !agg.known {
            continue;
        }
        let rate = agg.records as f64 / elapsed;
        if rate >= min_line_rate && agg.false_sharing > agg.true_sharing && agg.false_sharing >= 2 {
            pcs.extend(agg.pcs.iter().copied());
        }
    }
    pcs.sort_unstable();
    pcs.dedup();
    pcs
}

/// The end-of-run report lines derived from aggregates, with the rate
/// threshold applied.
pub(crate) fn report_lines_from(
    aggs: &[LineAgg],
    elapsed_seconds: f64,
    rate_threshold: f64,
) -> Vec<LineReport> {
    let elapsed = elapsed_seconds.max(1e-9);
    let mut lines: Vec<LineReport> = aggs
        .iter()
        .map(|agg| LineReport {
            location: agg.loc.clone(),
            hitm_records: agg.records,
            rate_per_sec: agg.records as f64 / elapsed,
            true_sharing_events: agg.true_sharing,
            false_sharing_events: agg.false_sharing,
            kind: Detector::classify(agg.records, agg.true_sharing, agg.false_sharing),
            pcs: agg.pcs.clone(),
        })
        .filter(|l| l.rate_per_sec >= rate_threshold)
        .collect();
    lines.sort_by(|a, b| {
        b.hitm_records
            .cmp(&a.hitm_records)
            .then(a.location.cmp(&b.location))
    });
    lines
}

/// The online contention detector.
#[derive(Debug)]
pub struct Detector {
    map: MemoryMap,
    memsets: MemAccessSets,
    source_of: BTreeMap<Pc, SourceLoc>,
    per_pc: BTreeMap<Pc, PcCounters>,
    model: CacheLineModel,
    total_records: u64,
    dropped_non_code: u64,
    dropped_stack: u64,
    detector_cycles_per_record: u64,
}

impl Detector {
    /// Create a detector for `program` running in the address space described
    /// by `map`. The program binary is analysed up front to build the
    /// load/store sets.
    pub fn new(config: &LaserConfig, program: &Program, map: &MemoryMap) -> Self {
        let memsets = MemAccessSets::analyze(program);
        let mut source_of = BTreeMap::new();
        for (pc, _) in program.iter_pcs() {
            if let Some(loc) = program.source_of(pc) {
                source_of.insert(pc, loc.clone());
            }
        }
        Detector {
            map: map.clone(),
            memsets,
            source_of,
            per_pc: BTreeMap::new(),
            model: CacheLineModel::new(),
            total_records: 0,
            dropped_non_code: 0,
            dropped_stack: 0,
            detector_cycles_per_record: config.detector_cycles_per_record,
        }
    }

    /// Feed a batch of records through the pipeline. Returns the number of
    /// records that survived filtering.
    ///
    /// Records arrive from the driver in per-core bursts (each PEBS buffer is
    /// drained on its own interrupt); the detector re-orders each batch by the
    /// record timestamp so the cache-line model sees the true inter-thread
    /// interleaving.
    pub fn process(&mut self, records: &[HitmRecord]) -> usize {
        let mut records: Vec<HitmRecord> = records.to_vec();
        records.sort_by_key(|r| r.cycle);
        let mut kept = 0;
        for r in &records {
            self.total_records += 1;
            match self.map.classify_pc(r.pc) {
                PcClass::Application | PcClass::Library => {}
                PcClass::Other => {
                    self.dropped_non_code += 1;
                    continue;
                }
            }
            if self.map.is_stack(r.data_addr) {
                self.dropped_stack += 1;
                continue;
            }
            kept += 1;
            let counters = self.per_pc.entry(r.pc).or_default();
            counters.records += 1;
            // Classification needs the access kind and size from the binary's
            // load/store sets; records whose (possibly imprecise) PC is not a
            // memory instruction contribute to location detection only.
            let access = if let Some(size) = self.memsets.store_size(r.pc) {
                Some((size, true))
            } else {
                self.memsets.load_size(r.pc).map(|size| (size, false))
            };
            if let Some((size, is_write)) = access {
                if let Some(class) = self.model.observe(r.data_addr, size, is_write, r.pc) {
                    let counters = self.per_pc.entry(r.pc).or_default();
                    match class {
                        SharingClass::TrueSharing => counters.true_sharing += 1,
                        SharingClass::FalseSharing => counters.false_sharing += 1,
                    }
                }
            }
        }
        kept
    }

    /// Cycles the detector process spends handling `n` records; the system
    /// charges this to the machine because the detector shares the chip with
    /// the application.
    pub fn processing_cycles(&self, n: usize) -> u64 {
        batch_processing_cycles(self.detector_cycles_per_record, n)
    }

    /// Total records received so far (before filtering).
    pub fn records_received(&self) -> u64 {
        self.total_records
    }

    /// Total false-sharing events observed so far across all PCs.
    #[expect(clippy::disallowed_methods, reason = "integer sum: exact in any order")]
    pub fn false_sharing_events(&self) -> u64 {
        self.per_pc.values().map(|c| c.false_sharing).sum()
    }

    /// Total true-sharing events observed so far across all PCs.
    #[expect(clippy::disallowed_methods, reason = "integer sum: exact in any order")]
    pub fn true_sharing_events(&self) -> u64 {
        self.per_pc.values().map(|c| c.true_sharing).sum()
    }

    /// The current false-sharing event rate (events per second of dilated
    /// benchmark time); LASERREPAIR is invoked when this crosses the
    /// configured threshold.
    pub fn false_sharing_rate(&self, elapsed_seconds: f64) -> f64 {
        if elapsed_seconds <= 0.0 {
            0.0
        } else {
            self.false_sharing_events() as f64 / elapsed_seconds
        }
    }

    /// This detector's per-line aggregates, sorted by source location: the
    /// input of every report derivation. A session's stage ships these inside
    /// its quantum ledgers, whichever thread the stage runs on.
    pub(crate) fn line_aggregates(&self) -> Vec<LineAgg> {
        let mut per_line: BTreeMap<SourceLoc, LineAgg> = BTreeMap::new();
        for (&pc, c) in &self.per_pc {
            let (loc, known) = match self.source_of.get(&pc) {
                Some(loc) => (loc.clone(), true),
                None => (SourceLoc::new("<unknown>", 0), false),
            };
            let agg = per_line.entry(loc.clone()).or_insert_with(|| LineAgg {
                loc,
                known,
                records: 0,
                true_sharing: 0,
                false_sharing: 0,
                pcs: Vec::new(),
            });
            agg.records += c.records;
            agg.true_sharing += c.true_sharing;
            agg.false_sharing += c.false_sharing;
            // `per_pc` iterates PCs ascending, so each line's list stays
            // sorted and duplicate-free without a post-pass.
            agg.pcs.push(pc);
        }
        per_line.into_values().collect()
    }

    /// PCs implicated in false sharing, ordered by decreasing false-sharing
    /// evidence. These seed LASERREPAIR's control-flow analysis.
    ///
    /// Noise PCs (imprecise records scattered over the binary) are excluded by
    /// requiring each PC to carry a meaningful fraction of the strongest PC's
    /// false-sharing evidence; feeding stray PCs to the control-flow analysis
    /// would otherwise drag unrelated blocks into the instrumented region.
    pub fn false_sharing_pcs(&self) -> Vec<Pc> {
        let mut v: Vec<(Pc, u64)> = self
            .per_pc
            .iter()
            .filter(|(_, c)| c.false_sharing > c.true_sharing && c.false_sharing > 0)
            .map(|(&pc, c)| (pc, c.false_sharing))
            .collect();
        let top = v.iter().map(|(_, n)| *n).max().unwrap_or(0);
        let min_evidence = (top / 10).max(2);
        v.retain(|(_, n)| *n >= min_evidence);
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.into_iter().map(|(pc, _)| pc).collect()
    }

    /// PCs of source lines whose contention is dominated by false sharing and
    /// whose HITM-record rate exceeds `min_line_rate` — the condition under
    /// which the system hands control to LASERREPAIR (Section 4.4).
    pub fn repair_trigger_pcs(&self, elapsed_seconds: f64, min_line_rate: f64) -> Vec<Pc> {
        trigger_pcs_from(&self.line_aggregates(), elapsed_seconds, min_line_rate)
    }

    fn classify(records: u64, ts: u64, fs: u64) -> ContentionKind {
        let evidence = ts + fs;
        if evidence == 0 || (evidence as f64) < (records as f64) * 0.15 {
            // Not enough (or not trustworthy enough) data-address evidence —
            // the paper's linear_regression case, where write-triggered
            // records have very low data-address accuracy.
            return ContentionKind::Unknown;
        }
        if fs >= ts {
            ContentionKind::FalseSharing
        } else {
            ContentionKind::TrueSharing
        }
    }

    /// Produce the report, applying `rate_threshold` (HITM records per second
    /// of benchmark time). The threshold is applied here, offline, so it can
    /// be adjusted without rerunning the program — exactly as the paper
    /// describes.
    pub fn report(
        &self,
        workload: &str,
        elapsed_seconds: f64,
        rate_threshold: f64,
        repair_invoked: bool,
    ) -> ContentionReport {
        let lines = report_lines_from(&self.line_aggregates(), elapsed_seconds, rate_threshold);
        ContentionReport {
            workload: workload.to_string(),
            lines,
            total_records: self.total_records,
            dropped_non_code: self.dropped_non_code,
            dropped_stack: self.dropped_stack,
            elapsed_seconds,
            repair_invoked,
            // Ground truth the detector cannot see from sampled records; the
            // session fills it in from machine statistics.
            remote_hitm_share: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laser_isa::inst::{Operand, Reg};
    use laser_isa::ProgramBuilder;
    use laser_machine::memmap::{Region, RegionKind};
    use laser_machine::CoreId;

    /// A program with one store line (line 10) and one load line (line 20).
    fn program() -> Program {
        let mut b = ProgramBuilder::new("det");
        let blk = b.block("main");
        b.switch_to(blk);
        b.source("det.c", 10);
        b.store(Operand::Imm(1), Reg(0), 0, 8); // pc base+0
        b.source("det.c", 20);
        b.load(Reg(1), Reg(0), 8, 8); // pc base+4
        b.source("det.c", 30);
        b.nop(); // pc base+8
        b.halt();
        b.finish()
    }

    fn map(p: &Program) -> MemoryMap {
        let mut m = MemoryMap::new();
        m.add(Region::new(
            p.base_pc(),
            p.end_pc() + 0x1000,
            RegionKind::AppCode,
            "det",
        ));
        m.add(Region::new(
            0x1000_0000,
            0x2000_0000,
            RegionKind::Heap,
            "[heap]",
        ));
        m.add(Region::new(
            0x7f00_0000,
            0x7f10_0000,
            RegionKind::Stack(0),
            "[stack:0]",
        ));
        m
    }

    fn record(pc: Pc, addr: u64, cycle: u64) -> HitmRecord {
        HitmRecord {
            pc,
            data_addr: addr,
            core: CoreId(0),
            cycle,
        }
    }

    #[test]
    fn spurious_and_stack_records_are_dropped() {
        let p = program();
        let m = map(&p);
        let mut d = Detector::new(&LaserConfig::default(), &p, &m);
        let kept = d.process(&[
            record(0xdead_0000, 0x1000_0000, 1), // PC outside code
            record(p.base_pc(), 0x7f00_0080, 2), // stack data address
            record(p.base_pc(), 0x1000_0000, 3), // good
        ]);
        assert_eq!(kept, 1);
        let r = d.report("det", 1.0, 0.0, false);
        assert_eq!(r.dropped_non_code, 1);
        assert_eq!(r.dropped_stack, 1);
        assert_eq!(r.total_records, 3);
        assert_eq!(r.lines.len(), 1);
        assert_eq!(r.lines[0].location.line, 10);
    }

    #[test]
    fn rate_threshold_filters_cold_lines() {
        let p = program();
        let m = map(&p);
        let mut d = Detector::new(&LaserConfig::default(), &p, &m);
        // 1000 records on line 10, 2 records on line 20.
        let mut records = Vec::new();
        for i in 0..1000 {
            records.push(record(p.base_pc(), 0x1000_0000 + (i % 2) * 8, i));
        }
        records.push(record(p.base_pc() + 4, 0x1000_0100, 2000));
        records.push(record(p.base_pc() + 4, 0x1000_0108, 2001));
        d.process(&records);
        // Over 1 second: line 10 at 1000/s, line 20 at 2/s.
        let r = d.report("det", 1.0, 100.0, false);
        assert_eq!(r.lines.len(), 1);
        assert_eq!(r.lines[0].location.line, 10);
        // Lowering the threshold offline brings line 20 back.
        let r = d.report("det", 1.0, 1.0, false);
        assert_eq!(r.lines.len(), 2);
    }

    #[test]
    fn false_sharing_is_classified_and_feeds_repair_trigger() {
        let p = program();
        let m = map(&p);
        let mut d = Detector::new(&LaserConfig::default(), &p, &m);
        // Alternating disjoint 8-byte writes within one 64-byte line.
        let mut records = Vec::new();
        for i in 0..500u64 {
            let addr = 0x1000_0000 + (i % 2) * 8;
            records.push(record(p.base_pc(), addr, i));
        }
        d.process(&records);
        assert!(d.false_sharing_events() > 400);
        assert_eq!(d.true_sharing_events(), 0);
        assert!(d.false_sharing_rate(1.0) > 400.0);
        assert_eq!(d.false_sharing_pcs(), vec![p.base_pc()]);
        let r = d.report("det", 1.0, 0.0, false);
        assert_eq!(r.lines[0].kind, ContentionKind::FalseSharing);
    }

    #[test]
    fn true_sharing_is_classified() {
        let p = program();
        let m = map(&p);
        let mut d = Detector::new(&LaserConfig::default(), &p, &m);
        // Store and load of the *same* 8 bytes, alternating PCs.
        let mut records = Vec::new();
        for i in 0..500u64 {
            let pc = if i % 2 == 0 {
                p.base_pc()
            } else {
                p.base_pc() + 4
            };
            records.push(record(pc, 0x1000_0000, i));
        }
        d.process(&records);
        assert!(d.true_sharing_events() > 400);
        let r = d.report("det", 1.0, 0.0, false);
        assert!(r
            .lines
            .iter()
            .all(|l| l.kind == ContentionKind::TrueSharing));
        assert!(d.false_sharing_pcs().is_empty());
    }

    #[test]
    fn scant_evidence_is_reported_unknown() {
        let p = program();
        let m = map(&p);
        let mut d = Detector::new(&LaserConfig::default(), &p, &m);
        // Records whose addresses are scattered over unmapped space (the
        // write-write imprecision case): lots of records, no usable evidence.
        let mut records = Vec::new();
        for i in 0..300u64 {
            records.push(record(p.base_pc(), 0x4000_0000_0000 + i * 4096, i));
        }
        d.process(&records);
        let r = d.report("det", 1.0, 0.0, false);
        assert_eq!(r.lines[0].kind, ContentionKind::Unknown);
    }

    #[test]
    fn pc_filter_keeps_library_code_but_drops_everything_else() {
        let p = program();
        let mut m = map(&p);
        m.add(Region::new(
            0x9000_0000,
            0x9100_0000,
            RegionKind::LibCode,
            "libc",
        ));
        let mut d = Detector::new(&LaserConfig::default(), &p, &m);
        let kept = d.process(&[
            record(p.base_pc(), 0x1000_0000, 1), // application code: kept
            record(0x9000_0100, 0x1000_0000, 2), // library code: kept
            record(0x9100_0100, 0x1000_0000, 3), // past the library: dropped
            record(0x1000_0000, 0x1000_0000, 4), // PC in the heap: dropped
            record(0x7f00_0010, 0x1000_0000, 5), // PC in a stack: dropped
        ]);
        assert_eq!(kept, 2);
        assert_eq!(d.records_received(), 5);
        let r = d.report("det", 1.0, 0.0, false);
        assert_eq!(r.dropped_non_code, 3);
        assert_eq!(r.dropped_stack, 0);
    }

    #[test]
    fn stack_filter_drops_records_before_aggregation() {
        let p = program();
        let m = map(&p);
        let mut d = Detector::new(&LaserConfig::default(), &p, &m);
        // Every record has a valid PC but a stack data address: the PC filter
        // passes them, the stack filter must still keep them out of the
        // per-line aggregation entirely.
        let records: Vec<HitmRecord> = (0..50)
            .map(|i| record(p.base_pc(), 0x7f00_0000 + i * 8, i))
            .collect();
        assert_eq!(d.process(&records), 0);
        let r = d.report("det", 1.0, 0.0, false);
        assert_eq!(r.dropped_stack, 50);
        assert!(
            r.lines.is_empty(),
            "stack records must not create report lines"
        );
        assert_eq!(d.false_sharing_events() + d.true_sharing_events(), 0);
    }

    #[test]
    fn threshold_reapplication_is_offline_and_nested() {
        let p = program();
        let m = map(&p);
        let mut d = Detector::new(&LaserConfig::default(), &p, &m);
        let mut records = Vec::new();
        for i in 0..800 {
            records.push(record(p.base_pc(), 0x1000_0000 + (i % 2) * 8, i));
        }
        for i in 0..40u64 {
            records.push(record(p.base_pc() + 4, 0x1000_0100 + (i % 2) * 8, 1000 + i));
        }
        d.process(&records);
        // Re-applying ever-higher thresholds to the same detector state never
        // reprocesses records and only ever shrinks the report.
        let received = d.records_received();
        let mut last_len = usize::MAX;
        for threshold in [0.0, 10.0, 100.0, 500.0, 1_000_000.0] {
            let r = d.report("det", 1.0, threshold, false);
            assert!(
                r.lines.len() <= last_len,
                "threshold {threshold} grew the report"
            );
            // Lines surviving a higher threshold are a subset of those
            // surviving a lower one.
            assert!(r.lines.iter().all(|l| l.rate_per_sec >= threshold));
            assert_eq!(
                d.records_received(),
                received,
                "report() must not mutate state"
            );
            last_len = r.lines.len();
        }
        assert_eq!(d.report("det", 1.0, 0.0, false).lines.len(), 2);
        assert_eq!(d.report("det", 1.0, 1_000_000.0, false).lines.len(), 0);
    }

    #[test]
    fn line_rates_are_live_unfiltered_and_hottest_first() {
        let p = program();
        let m = map(&p);
        let mut d = Detector::new(&LaserConfig::default(), &p, &m);
        assert!(line_rates_from(&d.line_aggregates(), 1.0).is_empty());
        let mut records = Vec::new();
        for i in 0..30 {
            records.push(record(p.base_pc(), 0x1000_0000 + (i % 2) * 8, i));
        }
        records.push(record(p.base_pc() + 4, 0x1000_0100, 100));
        d.process(&records);
        let rates = line_rates_from(&d.line_aggregates(), 2.0);
        // No threshold: both lines are visible, hottest first.
        assert_eq!(rates.len(), 2);
        assert_eq!((rates[0].file.as_str(), rates[0].line), ("det.c", 10));
        assert_eq!(rates[0].hitm_records, 30);
        assert!((rates[0].rate_per_sec - 15.0).abs() < 1e-9);
        assert_eq!(rates[1].line, 20);
        assert_eq!(rates[1].hitm_records, 1);
    }

    #[test]
    fn processing_cost_scales_with_records() {
        let p = program();
        let m = map(&p);
        let d = Detector::new(&LaserConfig::default(), &p, &m);
        assert_eq!(d.processing_cycles(0), 0);
        assert!(d.processing_cycles(100) > d.processing_cycles(10));
    }
}
