//! Multi-version record nodes.
//!
//! Every record in the Memtable owns a *version chain* ordered by primary
//! commit: TPLR's phase 2 (Algorithm 1) appends a new version under a
//! short exclusive lock, and readers reconstruct the row visible at a
//! snapshot timestamp by walking the chain backwards.

use aets_common::{ColumnId, Row, Timestamp, TxnId};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, Ordering};

/// The kind of DML a version carries. Alias of the shared log-level
/// operation enum: a version chain stores exactly what the value log said.
pub use aets_common::DmlOp as OpType;

/// One committed version of a record.
#[derive(Debug, Clone)]
pub struct Version {
    /// Transaction that produced this version (primary commit order).
    pub txn_id: TxnId,
    /// Commit timestamp on the primary.
    pub commit_ts: Timestamp,
    /// DML kind.
    pub op: OpType,
    /// Column payload (see [`OpType`]).
    pub cols: Row,
}

/// A record node in the Memtable.
///
/// The node address is stable for the record's lifetime: TPLR's phase 1
/// stores `Arc<RecordNode>` pointers in transaction contexts, and phase 2
/// appends to `versions` without touching the table index (Figure 6).
///
/// The node also carries a *dirty* mark for incremental checkpoints: every
/// append or GC rewrite sets it while holding the exclusive lock, and the
/// snapshot codec clears it under the shared lock as it reads the chain,
/// so a delta checkpoint carries exactly the chains changed since the
/// previous cut.
#[derive(Debug, Default)]
pub struct RecordNode {
    versions: RwLock<Vec<Version>>,
    dirty: AtomicBool,
}

impl RecordNode {
    /// Creates an empty node (no visible versions).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a committed version (Algorithm 1 lines 9-13).
    ///
    /// The caller — the single commit thread of the record's table group —
    /// must append in primary commit order; this is checked in debug builds
    /// and verifiable after the fact via [`RecordNode::is_ordered`].
    pub fn append_version(&self, v: Version) {
        let mut chain = self.versions.write();
        // Non-strict: one transaction may modify the same record twice; its
        // cells are appended in LSN order under the same txn id.
        debug_assert!(
            chain.last().is_none_or(|last| last.txn_id <= v.txn_id),
            "version appended out of commit order: {:?} after {:?}",
            v.txn_id,
            chain.last().map(|l| l.txn_id),
        );
        chain.push(v);
        self.dirty.store(true, Ordering::Relaxed);
    }

    /// Number of versions in the chain.
    pub fn version_count(&self) -> usize {
        self.versions.read().len()
    }

    /// Commit timestamp of the newest version, if any.
    pub fn latest_commit_ts(&self) -> Option<Timestamp> {
        self.versions.read().last().map(|v| v.commit_ts)
    }

    /// Whether the version chain is in non-decreasing txn-id order — the
    /// core correctness invariant of the commit phase. (Equal adjacent ids
    /// are allowed: a single transaction touching the record twice.)
    pub fn is_ordered(&self) -> bool {
        let chain = self.versions.read();
        chain.windows(2).all(|w| w[0].txn_id <= w[1].txn_id)
    }

    /// Reconstructs the row visible at snapshot `ts`: the merge of the
    /// latest insert at-or-before `ts` with every later update at-or-before
    /// `ts`. Returns `None` if the record does not exist at `ts` (never
    /// inserted yet, or deleted).
    pub fn read_at(&self, ts: Timestamp) -> Option<Row> {
        let chain = self.versions.read();
        // Index of the first version with commit_ts > ts.
        let end = chain.partition_point(|v| v.commit_ts <= ts);
        if end == 0 {
            return None;
        }
        let visible = &chain[..end];
        // Walk backwards collecting column values until the anchoring
        // insert (full image) or a tombstone.
        let mut merged: Vec<(ColumnId, Option<&aets_common::Value>)> = Vec::new();
        let mut have = aets_common::FxHashSet::default();
        for v in visible.iter().rev() {
            match v.op {
                OpType::Delete => return None,
                OpType::Update | OpType::Insert => {
                    for (cid, val) in &v.cols {
                        if have.insert(*cid) {
                            merged.push((*cid, Some(val)));
                        }
                    }
                    if v.op == OpType::Insert {
                        let mut row: Row = merged
                            .into_iter()
                            .filter_map(|(c, v)| v.map(|v| (c, v.clone())))
                            .collect();
                        row.sort_by_key(|(c, _)| *c);
                        return Some(row);
                    }
                }
            }
        }
        // Updates without a preceding visible insert: the record predates
        // the replayed log (e.g. loaded base data). Treat the merged
        // updates as the visible image.
        let mut row: Row =
            merged.into_iter().filter_map(|(c, v)| v.map(|v| (c, v.clone()))).collect();
        row.sort_by_key(|(c, _)| *c);
        Some(row)
    }

    /// Replaces every version with `commit_ts <= watermark` by a single
    /// consolidated boundary version built by `make_boundary`. Used by
    /// the garbage collector; no-op when nothing is at-or-below the
    /// watermark. Holds the exclusive lock for the swap only.
    pub fn replace_prefix(&self, watermark: Timestamp, make_boundary: impl FnOnce() -> Version) {
        let mut chain = self.versions.write();
        let end = chain.partition_point(|v| v.commit_ts <= watermark);
        if end == 0 {
            return;
        }
        let boundary = make_boundary();
        debug_assert!(boundary.commit_ts <= watermark, "boundary beyond watermark");
        chain.splice(..end, std::iter::once(boundary));
        self.dirty.store(true, Ordering::Relaxed);
    }

    /// Whether the versions at-or-below `watermark` are already one full
    /// image — a single insert or tombstone, the shape GC consolidates
    /// to — so a GC pass at `watermark` has nothing to rewrite.
    pub fn is_consolidated_at(&self, watermark: Timestamp) -> bool {
        let chain = self.versions.read();
        chain.partition_point(|v| v.commit_ts <= watermark) == 1 && chain[0].op != OpType::Update
    }

    /// Runs `f` over the version chain under the shared lock, passing
    /// whether the chain changed since the last call that cleared the
    /// mark. With `clear_dirty` the mark is cleared before the lock is
    /// released, so a concurrent append can never be both missed by `f`
    /// and unmarked. Used by the checkpoint snapshot codec, which
    /// serializes chains in place while the engine is quiesced at an
    /// epoch barrier.
    pub fn with_versions<R>(&self, clear_dirty: bool, f: impl FnOnce(&[Version], bool) -> R) -> R {
        let chain = self.versions.read();
        let dirty = if clear_dirty {
            self.dirty.swap(false, Ordering::Relaxed)
        } else {
            self.dirty.load(Ordering::Relaxed)
        };
        f(&chain, dirty)
    }

    /// Whether the chain changed since the checkpoint codec last read it.
    pub fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Relaxed)
    }

    /// Marks the chain changed (the codec re-marks a chain it could only
    /// serialize in part).
    pub fn mark_dirty(&self) {
        self.dirty.store(true, Ordering::Relaxed);
    }

    /// Replaces the whole chain with one restored from a checkpoint and
    /// leaves the node clean: it now matches what is on disk.
    pub fn restore_versions(&self, chain: Vec<Version>) {
        debug_assert!(
            chain.windows(2).all(|w| w[0].txn_id <= w[1].txn_id),
            "restored chain out of commit order"
        );
        *self.versions.write() = chain;
        self.dirty.store(false, Ordering::Relaxed);
    }

    /// Clones the full version chain under the shared lock (tests and
    /// diagnostics; the snapshot codec reads chains in place through
    /// [`RecordNode::with_versions`]).
    pub fn versions_snapshot(&self) -> Vec<Version> {
        self.versions.read().clone()
    }

    /// Latest visible version (metadata only) at `ts`, if any.
    pub fn version_at(&self, ts: Timestamp) -> Option<(TxnId, Timestamp, OpType)> {
        let chain = self.versions.read();
        let end = chain.partition_point(|v| v.commit_ts <= ts);
        if end == 0 {
            None
        } else {
            let v = &chain[end - 1];
            Some((v.txn_id, v.commit_ts, v.op))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aets_common::Value;

    fn ver(txn: u64, ts: u64, op: OpType, cols: Vec<(u16, i64)>) -> Version {
        Version {
            txn_id: TxnId::new(txn),
            commit_ts: Timestamp::from_micros(ts),
            op,
            cols: cols.into_iter().map(|(c, v)| (ColumnId::new(c), Value::Int(v))).collect(),
        }
    }

    #[test]
    fn read_before_any_version_is_none() {
        let n = RecordNode::new();
        assert_eq!(n.read_at(Timestamp::from_micros(100)), None);
        n.append_version(ver(1, 10, OpType::Insert, vec![(0, 1)]));
        assert_eq!(n.read_at(Timestamp::from_micros(5)), None);
    }

    #[test]
    fn insert_then_updates_merge() {
        let n = RecordNode::new();
        n.append_version(ver(1, 10, OpType::Insert, vec![(0, 1), (1, 2), (2, 3)]));
        n.append_version(ver(2, 20, OpType::Update, vec![(1, 20)]));
        n.append_version(ver(3, 30, OpType::Update, vec![(2, 30)]));

        let at = |ts| n.read_at(Timestamp::from_micros(ts)).unwrap();
        let get = |row: &Row, c: u16| {
            row.iter().find(|(cid, _)| *cid == ColumnId::new(c)).map(|(_, v)| v.clone())
        };

        let r10 = at(10);
        assert_eq!(get(&r10, 1), Some(Value::Int(2)));
        let r25 = at(25);
        assert_eq!(get(&r25, 1), Some(Value::Int(20)));
        assert_eq!(get(&r25, 2), Some(Value::Int(3)));
        let r35 = at(35);
        assert_eq!(get(&r35, 2), Some(Value::Int(30)));
        assert_eq!(get(&r35, 0), Some(Value::Int(1)));
    }

    #[test]
    fn delete_hides_record_then_reinsert_revives() {
        let n = RecordNode::new();
        n.append_version(ver(1, 10, OpType::Insert, vec![(0, 1)]));
        n.append_version(ver(2, 20, OpType::Delete, vec![]));
        n.append_version(ver(3, 30, OpType::Insert, vec![(0, 99)]));

        assert!(n.read_at(Timestamp::from_micros(15)).is_some());
        assert_eq!(n.read_at(Timestamp::from_micros(25)), None);
        let r = n.read_at(Timestamp::from_micros(35)).unwrap();
        assert_eq!(r, vec![(ColumnId::new(0), Value::Int(99))]);
    }

    #[test]
    fn updates_without_insert_are_visible() {
        // Records loaded as base data get update-only chains.
        let n = RecordNode::new();
        n.append_version(ver(5, 50, OpType::Update, vec![(0, 7)]));
        let r = n.read_at(Timestamp::from_micros(60)).unwrap();
        assert_eq!(r, vec![(ColumnId::new(0), Value::Int(7))]);
    }

    #[test]
    fn version_metadata_accessors() {
        let n = RecordNode::new();
        assert_eq!(n.latest_commit_ts(), None);
        n.append_version(ver(1, 10, OpType::Insert, vec![(0, 1)]));
        n.append_version(ver(4, 40, OpType::Update, vec![(0, 2)]));
        assert_eq!(n.version_count(), 2);
        assert_eq!(n.latest_commit_ts(), Some(Timestamp::from_micros(40)));
        assert!(n.is_ordered());
        let (txn, ts, op) = n.version_at(Timestamp::from_micros(39)).unwrap();
        assert_eq!(txn, TxnId::new(1));
        assert_eq!(ts, Timestamp::from_micros(10));
        assert_eq!(op, OpType::Insert);
    }

    #[test]
    #[should_panic(expected = "out of commit order")]
    #[cfg(debug_assertions)]
    fn out_of_order_append_panics_in_debug() {
        let n = RecordNode::new();
        n.append_version(ver(5, 50, OpType::Insert, vec![]));
        n.append_version(ver(3, 30, OpType::Update, vec![]));
    }
}
