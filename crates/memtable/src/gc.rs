//! Version-chain garbage collection.
//!
//! The backup accumulates one version per replayed modification; long
//! runs need the HANA-style hybrid GC the paper's storage model assumes
//! (Lee et al., SIGMOD'16, the paper's storage reference). This module
//! implements watermark-based pruning: given the minimum snapshot
//! timestamp any active reader may still use (on the backup that is the
//! oldest admitted query's `qts`), every version chain can drop all
//! versions strictly older than the newest version at-or-below the
//! watermark — that newest one must survive, because it is exactly what a
//! reader at the watermark reconstructs.
//!
//! Subtlety: `update` versions are *partial* (they carry only modified
//! columns). Dropping older versions below a partial update would lose
//! the untouched columns, so the surviving boundary version is first
//! *consolidated* — rewritten as a full `insert` image of the row at the
//! watermark (or a `delete` tombstone).

use crate::record::{OpType, RecordNode, Version};
use crate::table::{MemDb, Table};
use aets_common::Timestamp;
use parking_lot::Mutex;

/// Statistics from one GC pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Record nodes visited.
    pub nodes: usize,
    /// Versions removed.
    pub pruned: usize,
    /// Versions kept.
    pub retained: usize,
    /// Boundary versions consolidated into full images.
    pub consolidated: usize,
}

impl GcStats {
    /// Accumulates `other` into `self` (used across passes and by
    /// `ReplayMetrics`).
    pub fn merge(&mut self, other: GcStats) {
        self.nodes += other.nodes;
        self.pruned += other.pruned;
        self.retained += other.retained;
        self.consolidated += other.consolidated;
    }
}

/// Prunes one record's chain against the watermark. Exposed for tests;
/// engines call [`gc_table`] / [`gc_db`].
///
/// A chain whose at-or-below-watermark prefix is already one full image
/// is left untouched: rewriting it would allocate for nothing and mark
/// the chain dirty for the next delta checkpoint. Only real rewrites
/// count in [`GcStats::consolidated`].
pub fn gc_node(node: &RecordNode, watermark: Timestamp) -> GcStats {
    let mut stats = GcStats { nodes: 1, ..Default::default() };
    // Nothing visible at the watermark (every version is newer), or the
    // visible prefix is already consolidated: nothing to prune.
    let boundary = node.version_at(watermark);
    let Some((boundary_txn, boundary_ts, _)) =
        boundary.filter(|_| !node.is_consolidated_at(watermark))
    else {
        stats.retained = node.version_count();
        return stats;
    };
    // Reconstruct the row at the watermark *before* taking the write
    // lock (reads take the shared lock internally).
    let image = node.read_at(watermark);
    node.replace_prefix(watermark, || {
        // Build the consolidated boundary version: a full row image, or a
        // tombstone when the row is invisible at the watermark.
        let op = if image.is_some() { OpType::Insert } else { OpType::Delete };
        Version {
            txn_id: boundary_txn,
            commit_ts: boundary_ts,
            op,
            cols: image.unwrap_or_default(),
        }
    });
    // Recompute stats from the chain after replacement.
    stats.retained = node.version_count();
    stats.consolidated = 1;
    stats
}

/// Runs GC over every record of a table.
pub fn gc_table(table: &Table, watermark: Timestamp) -> GcStats {
    let mut stats = GcStats::default();
    let before = table.total_versions();
    for node in table.nodes() {
        stats.merge(gc_node(&node, watermark));
    }
    let after = table.total_versions();
    stats.pruned = before.saturating_sub(after);
    stats
}

/// Runs GC over the whole database.
pub fn gc_db(db: &MemDb, watermark: Timestamp) -> GcStats {
    let mut stats = GcStats::default();
    for t in db.tables() {
        stats.merge(gc_table(t, watermark));
    }
    stats
}

/// A ticket returned by [`QueryFloor::pin`]; hand it back to
/// [`QueryFloor::release`] when the reader is done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloorTicket(usize);

/// Registry of active reader snapshot timestamps, shared between the
/// query-serving layer (which pins one entry per open session) and the GC
/// driver (which must never prune a version an active reader can still
/// reconstruct).
///
/// [`QueryFloor::floor`] is the minimum pinned `qts`, or `Timestamp::MAX`
/// when no reader is active — i.e. the value to pass as `query_floor`
/// into the visibility board's GC watermark.
#[derive(Debug, Default)]
pub struct QueryFloor {
    slots: Mutex<Vec<Option<Timestamp>>>,
}

impl QueryFloor {
    /// An empty registry (floor at `Timestamp::MAX`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins `qts` into the floor until the ticket is released.
    pub fn pin(&self, qts: Timestamp) -> FloorTicket {
        let mut slots = self.slots.lock();
        if let Some(i) = slots.iter().position(Option::is_none) {
            slots[i] = Some(qts);
            FloorTicket(i)
        } else {
            slots.push(Some(qts));
            FloorTicket(slots.len() - 1)
        }
    }

    /// Releases a pin. Releasing a ticket twice is a no-op.
    pub fn release(&self, ticket: FloorTicket) {
        let mut slots = self.slots.lock();
        if let Some(slot) = slots.get_mut(ticket.0) {
            *slot = None;
        }
    }

    /// The minimum pinned `qts` (`Timestamp::MAX` when none are active).
    pub fn floor(&self) -> Timestamp {
        self.slots.lock().iter().flatten().min().copied().unwrap_or(Timestamp::MAX)
    }

    /// Number of currently pinned readers.
    pub fn active(&self) -> usize {
        self.slots.lock().iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aets_common::{ColumnId, RowKey, TableId, TxnId, Value};

    fn ver(txn: u64, ts: u64, op: OpType, cols: Vec<(u16, i64)>) -> Version {
        Version {
            txn_id: TxnId::new(txn),
            commit_ts: Timestamp::from_micros(ts),
            op,
            cols: cols.into_iter().map(|(c, v)| (ColumnId::new(c), Value::Int(v))).collect(),
        }
    }

    fn node_with_history() -> RecordNode {
        let n = RecordNode::new();
        n.append_version(ver(1, 10, OpType::Insert, vec![(0, 1), (1, 100)]));
        n.append_version(ver(2, 20, OpType::Update, vec![(0, 2)]));
        n.append_version(ver(3, 30, OpType::Update, vec![(1, 300)]));
        n.append_version(ver(4, 40, OpType::Update, vec![(0, 4)]));
        n
    }

    #[test]
    fn gc_preserves_reads_at_and_after_watermark() {
        let n = node_with_history();
        let watermark = Timestamp::from_micros(30);
        let want_at_wm = n.read_at(watermark);
        let want_latest = n.read_at(Timestamp::MAX);

        let stats = gc_node(&n, watermark);
        assert_eq!(stats.consolidated, 1);
        assert!(n.is_ordered());
        // Versions 1 and 2 merged into the boundary at ts=30; version 4
        // survives untouched.
        assert_eq!(n.version_count(), 2);
        assert_eq!(n.read_at(watermark), want_at_wm);
        assert_eq!(n.read_at(Timestamp::MAX), want_latest);
        // Partial-update columns were consolidated: the boundary now
        // carries BOTH columns.
        let row = n.read_at(watermark).unwrap();
        assert_eq!(row.len(), 2);
    }

    #[test]
    fn gc_below_first_version_is_a_noop() {
        let n = node_with_history();
        let stats = gc_node(&n, Timestamp::from_micros(5));
        assert_eq!(stats.retained, 4);
        assert_eq!(n.version_count(), 4);
    }

    #[test]
    fn gc_consolidates_delete_boundary() {
        let n = RecordNode::new();
        n.append_version(ver(1, 10, OpType::Insert, vec![(0, 1)]));
        n.append_version(ver(2, 20, OpType::Delete, vec![]));
        n.append_version(ver(3, 30, OpType::Insert, vec![(0, 9)]));
        gc_node(&n, Timestamp::from_micros(25));
        assert_eq!(n.version_count(), 2);
        assert_eq!(n.read_at(Timestamp::from_micros(25)), None, "tombstone preserved");
        assert!(n.read_at(Timestamp::from_micros(35)).is_some());
    }

    #[test]
    fn gc_at_max_keeps_one_version_per_row() {
        let n = node_with_history();
        gc_node(&n, Timestamp::MAX);
        assert_eq!(n.version_count(), 1);
        let row = n.read_at(Timestamp::MAX).unwrap();
        // Full consolidated image: col0 = 4 (last update), col1 = 300.
        assert_eq!(
            row,
            vec![(ColumnId::new(0), Value::Int(4)), (ColumnId::new(1), Value::Int(300)),]
        );
    }

    #[test]
    fn gc_tombstone_exactly_at_watermark_survives_as_tombstone() {
        // The boundary version IS the delete: it must be kept (as a
        // tombstone), not dropped — a reader at the watermark must still
        // observe "row absent", distinct from "row never existed with
        // newer versions pending".
        let n = RecordNode::new();
        n.append_version(ver(1, 10, OpType::Insert, vec![(0, 1)]));
        n.append_version(ver(2, 20, OpType::Delete, vec![]));
        let stats = gc_node(&n, Timestamp::from_micros(20));
        assert_eq!(stats.consolidated, 1);
        assert_eq!(n.version_count(), 1, "insert below the tombstone is pruned");
        assert_eq!(n.read_at(Timestamp::from_micros(20)), None);
        assert_eq!(n.read_at(Timestamp::MAX), None);
        assert!(n.is_ordered());
    }

    #[test]
    fn gc_consolidates_partial_update_that_is_oldest_in_chain() {
        // After a prior GC pass (or a truncated history) the oldest
        // version can itself be a partial update. When it is the
        // boundary, consolidation must still produce a full image from
        // whatever is reconstructible — not drop the untouched columns.
        let n = RecordNode::new();
        n.append_version(ver(5, 50, OpType::Update, vec![(0, 7)]));
        n.append_version(ver(6, 60, OpType::Update, vec![(1, 8)]));
        let watermark = Timestamp::from_micros(50);
        let want_at_wm = n.read_at(watermark);
        let want_latest = n.read_at(Timestamp::MAX);

        let stats = gc_node(&n, watermark);
        assert_eq!(stats.consolidated, 1);
        assert_eq!(n.version_count(), 2, "nothing below the boundary to prune");
        assert_eq!(n.read_at(watermark), want_at_wm);
        assert_eq!(n.read_at(Timestamp::MAX), want_latest);
        assert!(n.is_ordered());
    }

    #[test]
    fn gc_empty_chain_is_a_noop() {
        let n = RecordNode::new();
        let stats = gc_node(&n, Timestamp::from_micros(100));
        assert_eq!(stats, GcStats { nodes: 1, ..Default::default() });
        assert_eq!(n.version_count(), 0);
    }

    #[test]
    fn gc_with_no_visible_version_prunes_nothing() {
        // Every version is newer than the watermark: a reader at the
        // watermark sees nothing, and nothing may be pruned — each newer
        // version is still the boundary for some future reader.
        let n = node_with_history();
        let stats = gc_node(&n, Timestamp::from_micros(9));
        assert_eq!(stats.retained, 4);
        assert_eq!(stats.consolidated, 0);
        assert_eq!(n.version_count(), 4);
        assert_eq!(n.read_at(Timestamp::from_micros(9)), None);
    }

    #[test]
    fn second_pass_at_the_same_watermark_rewrites_nothing() {
        let db = MemDb::new(1);
        let t = db.table(TableId::new(0));
        // A lone insert, a lone tombstone, a partial-update history, and
        // a chain whose versions all sit above the watermark.
        t.apply_version(RowKey::new(1), ver(1, 10, OpType::Insert, vec![(0, 1)]));
        t.apply_version(RowKey::new(2), ver(2, 15, OpType::Delete, vec![]));
        for (i, v) in node_with_history().versions_snapshot().into_iter().enumerate() {
            t.apply_version(RowKey::new(3), Version { txn_id: TxnId::new(3 + i as u64), ..v });
        }
        t.apply_version(RowKey::new(4), ver(9, 90, OpType::Insert, vec![(0, 9)]));
        let watermark = Timestamp::from_micros(35);
        let probes = [0u64, 10, 15, 20, 30, 35, 40, 90, u64::MAX].map(Timestamp::from_micros);
        let first = gc_db(&db, watermark);
        assert_eq!(first.consolidated, 1, "only the partial-update history needs a rewrite");
        let digests: Vec<u64> = probes.iter().map(|ts| db.digest_at(*ts)).collect();
        let versions = db.total_versions();
        // A full checkpoint cut clears every dirty mark.
        crate::encode_chains(
            &mut bytes::BytesMut::new(),
            &db,
            Timestamp::MAX,
            crate::ChainFilter::TakeAll,
        );

        let second = gc_db(&db, watermark);
        assert_eq!(second.consolidated, 0, "a consolidated chain is not rewritten again");
        assert_eq!(second.pruned, 0);
        assert_eq!(db.total_versions(), versions);
        assert_eq!(t.dirty_count(), 0, "no chain was touched");
        let again: Vec<u64> = probes.iter().map(|ts| db.digest_at(*ts)).collect();
        assert_eq!(again, digests, "digest_at moved at some timestamp");
    }

    #[test]
    fn query_floor_tracks_minimum_pin_and_reuses_slots() {
        let f = QueryFloor::new();
        assert_eq!(f.floor(), Timestamp::MAX, "empty registry never clamps GC");
        assert_eq!(f.active(), 0);
        let a = f.pin(Timestamp::from_micros(50));
        let b = f.pin(Timestamp::from_micros(30));
        let c = f.pin(Timestamp::from_micros(70));
        assert_eq!(f.floor(), Timestamp::from_micros(30));
        assert_eq!(f.active(), 3);
        f.release(b);
        assert_eq!(f.floor(), Timestamp::from_micros(50));
        f.release(b); // double release is a no-op
        assert_eq!(f.active(), 2);
        // The freed slot is reused rather than growing the slab.
        let d = f.pin(Timestamp::from_micros(10));
        assert_eq!(d, FloorTicket(1));
        assert_eq!(f.floor(), Timestamp::from_micros(10));
        f.release(a);
        f.release(c);
        f.release(d);
        assert_eq!(f.floor(), Timestamp::MAX);
    }

    #[test]
    fn gc_db_prunes_across_tables() {
        let db = MemDb::new(2);
        for t in 0..2u32 {
            for k in 0..50u64 {
                for v in 0..4u64 {
                    db.table(TableId::new(t)).apply_version(
                        RowKey::new(k),
                        ver(
                            k * 4 + v + 1,
                            (k * 4 + v + 1) * 10,
                            if v == 0 { OpType::Insert } else { OpType::Update },
                            vec![(0, v as i64)],
                        ),
                    );
                }
            }
        }
        let before = db.total_versions();
        assert_eq!(before, 2 * 50 * 4);
        let stats = gc_db(&db, Timestamp::MAX);
        assert_eq!(stats.nodes, 100);
        assert_eq!(db.total_versions(), 100, "one version per row remains");
        assert_eq!(stats.pruned, before - 100);
        assert!(db.all_chains_ordered());
    }
}
