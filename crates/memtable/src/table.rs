//! Per-table Memtable and the whole-database container.

use crate::bptree::BPlusTree;
use crate::record::{RecordNode, Version};
use aets_common::{Row, RowKey, TableId, Timestamp};
use parking_lot::RwLock;
use std::sync::Arc;

/// One table of the backup Memtable: a B+Tree from row key to a stable,
/// shareable [`RecordNode`].
///
/// Lock protocol: the index `RwLock` guards only the *structure* of the
/// B+Tree. Phase-1 lookups take the read lock; inserting a brand-new record
/// node (first time a key is seen) takes the write lock. Version chains are
/// mutated through the node's own lock, never through the index lock.
#[derive(Debug)]
pub struct Table {
    id: TableId,
    index: RwLock<BPlusTree<RowKey, Arc<RecordNode>>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: TableId) -> Self {
        Self { id, index: RwLock::new(BPlusTree::new()) }
    }

    /// Table identifier.
    pub fn id(&self) -> TableId {
        self.id
    }

    /// Number of record nodes (including not-yet-visible ones).
    pub fn len(&self) -> usize {
        self.index.read().len()
    }

    /// Whether the table has no record nodes.
    pub fn is_empty(&self) -> bool {
        self.index.read().is_empty()
    }

    /// Looks up the node for `key`, if present.
    pub fn node(&self, key: RowKey) -> Option<Arc<RecordNode>> {
        self.index.read().get(&key).cloned()
    }

    /// Looks up or creates the node for `key`.
    ///
    /// Used by TPLR phase 1 for `insert` log entries: the node is created
    /// immediately (so the cell can point at it) but stays invisible until
    /// the commit phase appends its first version.
    pub fn node_or_insert(&self, key: RowKey) -> Arc<RecordNode> {
        if let Some(n) = self.index.read().get(&key) {
            return n.clone();
        }
        let mut index = self.index.write();
        // Re-check: another worker may have raced us between locks.
        if let Some(n) = index.get(&key) {
            return n.clone();
        }
        let node = Arc::new(RecordNode::new());
        index.insert(key, node.clone());
        node
    }

    /// Convenience: append a committed version directly (used by the serial
    /// oracle and by tests; the parallel engines go through phase-1 cells).
    pub fn apply_version(&self, key: RowKey, v: Version) {
        self.node_or_insert(key).append_version(v);
    }

    /// Snapshot point read at `ts`.
    pub fn read_row(&self, key: RowKey, ts: Timestamp) -> Option<Row> {
        self.node(key).and_then(|n| n.read_at(ts))
    }

    /// Snapshot scan at `ts`: visits every row visible at `ts` in key
    /// order.
    pub fn scan_at<F: FnMut(RowKey, Row)>(&self, ts: Timestamp, mut f: F) {
        let index = self.index.read();
        index.scan(|k, n| {
            if let Some(row) = n.read_at(ts) {
                f(*k, row);
            }
        });
    }

    /// Snapshot scan over the inclusive key range `[lo, hi]` at `ts`.
    pub fn scan_range_at<F: FnMut(RowKey, Row)>(
        &self,
        lo: RowKey,
        hi: RowKey,
        ts: Timestamp,
        mut f: F,
    ) {
        let index = self.index.read();
        index.range_scan(&lo, &hi, |k, n| {
            if let Some(row) = n.read_at(ts) {
                f(*k, row);
            }
        });
    }

    /// Counts rows visible at `ts`.
    pub fn count_at(&self, ts: Timestamp) -> usize {
        let mut n = 0;
        self.scan_at(ts, |_, _| n += 1);
        n
    }

    /// Snapshot of every record node (used by the garbage collector;
    /// clones the `Arc`s so the index lock is released before chains are
    /// rewritten).
    pub fn nodes(&self) -> Vec<Arc<RecordNode>> {
        let index = self.index.read();
        let mut out = Vec::with_capacity(index.len());
        index.scan(|_, n| out.push(n.clone()));
        out
    }

    /// Visits every `(key, node)` pair in key order under the index's
    /// shared lock, without copying the index (used by the checkpoint
    /// snapshot codec, which runs while the engine is quiesced).
    pub fn for_each_node(&self, mut f: impl FnMut(RowKey, &RecordNode)) {
        self.index.read().scan(|k, n| f(*k, n));
    }

    /// Number of record nodes whose chain changed since the checkpoint
    /// codec last read it.
    pub fn dirty_count(&self) -> usize {
        let mut n = 0;
        self.for_each_node(|_, node| n += usize::from(node.is_dirty()));
        n
    }

    /// Checks the commit-order invariant on every version chain.
    pub fn all_chains_ordered(&self) -> bool {
        let index = self.index.read();
        let mut ok = true;
        index.scan(|_, n| ok &= n.is_ordered());
        ok
    }

    /// Total number of versions across all chains.
    pub fn total_versions(&self) -> usize {
        let index = self.index.read();
        let mut n = 0;
        index.scan(|_, node| n += node.version_count());
        n
    }

    /// Order-sensitive digest of the table contents visible at `ts`.
    /// Two tables with identical visible snapshots produce equal digests;
    /// used to check that different replay engines converge to the same
    /// state.
    pub fn digest_at(&self, ts: Timestamp) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = aets_common::FxHasher::default();
        self.scan_at(ts, |k, row| {
            k.raw().hash(&mut h);
            for (cid, v) in &row {
                cid.raw().hash(&mut h);
                match v {
                    aets_common::Value::Null => 0u8.hash(&mut h),
                    aets_common::Value::Int(i) => i.hash(&mut h),
                    aets_common::Value::Float(f) => f.to_bits().hash(&mut h),
                    aets_common::Value::Text(s) => s.hash(&mut h),
                    aets_common::Value::Bytes(b) => b.hash(&mut h),
                }
            }
        });
        h.finish()
    }
}

/// The backup node's in-memory database: one [`Table`] per table id.
#[derive(Debug)]
pub struct MemDb {
    tables: Vec<Table>,
}

impl MemDb {
    /// Creates a database with tables `0..num_tables`.
    pub fn new(num_tables: usize) -> Self {
        Self { tables: (0..num_tables).map(|i| Table::new(TableId::new(i as u32))).collect() }
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Access a table by id. Panics on out-of-range ids (schema mismatch is
    /// a programming error, not a runtime condition).
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.index()]
    }

    /// Iterates over all tables.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.iter()
    }

    /// Checks the commit-order invariant database-wide.
    pub fn all_chains_ordered(&self) -> bool {
        self.tables.iter().all(|t| t.all_chains_ordered())
    }

    /// Total versions across the database.
    pub fn total_versions(&self) -> usize {
        self.tables.iter().map(|t| t.total_versions()).sum()
    }

    /// Database-wide snapshot digest at `ts` (see [`Table::digest_at`]).
    pub fn digest_at(&self, ts: Timestamp) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = aets_common::FxHasher::default();
        for t in &self.tables {
            t.digest_at(ts).hash(&mut h);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::OpType;
    use aets_common::{ColumnId, TxnId, Value};
    use std::thread;

    fn version(txn: u64, ts: u64, v: i64) -> Version {
        Version {
            txn_id: TxnId::new(txn),
            commit_ts: Timestamp::from_micros(ts),
            op: OpType::Insert,
            cols: vec![(ColumnId::new(0), Value::Int(v))],
        }
    }

    #[test]
    fn node_or_insert_is_idempotent() {
        let t = Table::new(TableId::new(0));
        let a = t.node_or_insert(RowKey::new(7));
        let b = t.node_or_insert(RowKey::new(7));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn invisible_until_version_appended() {
        let t = Table::new(TableId::new(0));
        let _node = t.node_or_insert(RowKey::new(1));
        assert_eq!(t.count_at(Timestamp::MAX), 0);
        t.apply_version(RowKey::new(1), version(1, 10, 5));
        assert_eq!(t.count_at(Timestamp::MAX), 1);
        assert_eq!(t.count_at(Timestamp::from_micros(9)), 0);
    }

    #[test]
    fn scan_at_sees_snapshot() {
        let t = Table::new(TableId::new(0));
        for i in 0..100u64 {
            t.apply_version(RowKey::new(i), version(i + 1, (i + 1) * 10, i as i64));
        }
        assert_eq!(t.count_at(Timestamp::from_micros(500)), 50);
        let mut keys = Vec::new();
        t.scan_at(Timestamp::from_micros(305), |k, _| keys.push(k.raw()));
        assert_eq!(keys, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_node_or_insert_races_safely() {
        let t = Arc::new(Table::new(TableId::new(0)));
        let mut handles = Vec::new();
        for tid in 0..8 {
            let t = t.clone();
            handles.push(thread::spawn(move || {
                for i in 0..500u64 {
                    let _ = t.node_or_insert(RowKey::new(i % 100));
                    let _ = t.node(RowKey::new((i + tid) % 100));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn memdb_indexes_tables() {
        let db = MemDb::new(3);
        assert_eq!(db.num_tables(), 3);
        db.table(TableId::new(2)).apply_version(RowKey::new(1), version(1, 1, 1));
        assert_eq!(db.total_versions(), 1);
        assert!(db.all_chains_ordered());
    }
}
