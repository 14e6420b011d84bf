//! Serializing a consistent Memtable snapshot for checkpoints.
//!
//! The checkpoint subsystem quiesces the AETS engine at an epoch barrier
//! — where the global watermark makes the Memtable consistent by
//! construction — and streams the whole database to disk through this
//! codec. Row payloads reuse the value log's wire format
//! ([`aets_wal::encode_row`]), so a checkpoint exercises exactly the same
//! battle-tested value encoding as the log itself.
//!
//! ## Wire format (little-endian)
//!
//! ```text
//! [num_tables u32]
//! per table:   [table_id u32] [num_keys u64]
//! per key:     [key u64] [num_versions u32]
//! per version: [txn_id u64] [commit_ts u64] [op u8] [row]
//! ```
//!
//! Versions are written in chain order, so decoding restores them in
//! commit order and every restored chain satisfies the same ordering
//! invariant as a live one. Integrity (CRC, atomic rename) is the
//! checkpoint store's job, not the codec's: the store checksums the whole
//! snapshot blob alongside its manifest.
//!
//! ## Delta snapshots
//!
//! The same format carries incremental checkpoints. [`ChainFilter`]
//! selects which chains [`encode_chains`] writes: a delta carries only
//! the chains marked dirty (appended to or rewritten by GC since the
//! previous cut), each one *whole*. Applying a delta with
//! [`apply_snapshot`] therefore replaces those chains outright, and a
//! base plus its deltas applied in order restores exactly the chains a
//! full snapshot at the last delta's barrier would. Record nodes are
//! never removed from a table, so a delta needs no deletion records.

use crate::record::{OpType, Version};
use crate::table::MemDb;
use aets_common::{Error, Result, RowKey, Timestamp, TxnId};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Which chains [`encode_chains`] serializes, and whether reading them
/// clears their dirty marks (see [`crate::RecordNode::with_versions`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainFilter {
    /// Every chain; dirty marks are left alone.
    All,
    /// Every chain, clearing each mark: a full checkpoint cut.
    TakeAll,
    /// Only the dirty chains, clearing their marks: a delta cut.
    TakeDirty,
}

/// Serializes the versions of `db` with `commit_ts <= watermark` into
/// `buf`. Pass [`Timestamp::MAX`] to snapshot everything; checkpoints
/// pass the epoch-barrier watermark, which at a barrier is equivalent
/// (no version beyond the barrier exists yet) but keeps the on-disk
/// state independent of any replay that races the serialization.
pub fn encode_db(buf: &mut BytesMut, db: &MemDb, watermark: Timestamp) {
    encode_chains(buf, db, watermark, ChainFilter::All);
}

/// [`encode_db`] restricted to the chains `filter` selects. Chains are
/// serialized in place under each node's shared lock — nothing is
/// cloned — so the caller must hold the engine quiesced (an epoch
/// barrier) for the result to be a consistent cut. A chain cut short by
/// `watermark` keeps its dirty mark, so the versions past the watermark
/// reach the next delta.
pub fn encode_chains(buf: &mut BytesMut, db: &MemDb, watermark: Timestamp, filter: ChainFilter) {
    let take = filter != ChainFilter::All;
    buf.put_u32_le(db.num_tables() as u32);
    for table in db.tables() {
        buf.put_u32_le(table.id().raw());
        // The key count is patched in once the table is written: invisible
        // nodes (created by phase 1, never committed) and filtered chains
        // are not persisted.
        let count_at = buf.len();
        buf.put_u64_le(0);
        let mut kept = 0u64;
        table.for_each_node(|key, node| {
            node.with_versions(take, |chain, dirty| {
                if filter == ChainFilter::TakeDirty && !dirty {
                    return;
                }
                let covered = chain.iter().filter(|v| v.commit_ts <= watermark).count();
                if take && covered < chain.len() {
                    node.mark_dirty();
                }
                if covered == 0 {
                    return;
                }
                kept += 1;
                buf.put_u64_le(key.raw());
                buf.put_u32_le(covered as u32);
                for v in chain.iter().filter(|v| v.commit_ts <= watermark) {
                    buf.put_u64_le(v.txn_id.raw());
                    buf.put_u64_le(v.commit_ts.as_micros());
                    buf.put_u8(v.op.tag());
                    aets_wal::encode_row(buf, &v.cols);
                }
            });
        });
        buf[count_at..count_at + 8].copy_from_slice(&kept.to_le_bytes());
    }
}

/// Rebuilds a [`MemDb`] from a snapshot produced by [`encode_db`],
/// consuming `buf`. Restored chains preserve serialization order, so the
/// commit-order invariant holds by construction.
pub fn decode_db(buf: &mut Bytes) -> Result<MemDb> {
    need(buf, 4)?;
    let db = MemDb::new(buf.get_u32_le() as usize);
    decode_tables(buf, &db)?;
    Ok(db)
}

/// Applies a snapshot — full or delta — on top of `db`, consuming `buf`:
/// every chain it carries replaces that record's chain, and restored
/// nodes are left clean. Fails if the snapshot's table count differs
/// from `db`'s. On error `db` may hold part of the snapshot.
pub fn apply_snapshot(buf: &mut Bytes, db: &MemDb) -> Result<()> {
    need(buf, 4)?;
    let num_tables = buf.get_u32_le() as usize;
    if num_tables != db.num_tables() {
        return Err(Error::Codec(format!(
            "snapshot has {num_tables} tables, database has {}",
            db.num_tables()
        )));
    }
    decode_tables(buf, db)
}

/// Decodes the per-table sections that follow the table count.
fn decode_tables(buf: &mut Bytes, db: &MemDb) -> Result<()> {
    let num_tables = db.num_tables();
    for _ in 0..num_tables {
        need(buf, 12)?;
        let table_id = aets_common::TableId::new(buf.get_u32_le());
        if table_id.index() >= num_tables {
            return Err(Error::Codec(format!("snapshot table id {table_id:?} out of range")));
        }
        let table = db.table(table_id);
        let num_keys = buf.get_u64_le();
        for _ in 0..num_keys {
            need(buf, 12)?;
            let key = RowKey::new(buf.get_u64_le());
            let num_versions = buf.get_u32_le() as usize;
            // Every version takes at least 19 bytes: a corrupt count must
            // not drive a huge allocation.
            let mut chain = Vec::with_capacity(num_versions.min(buf.remaining() / 19));
            for _ in 0..num_versions {
                need(buf, 17)?;
                let txn_id = TxnId::new(buf.get_u64_le());
                let commit_ts = Timestamp::from_micros(buf.get_u64_le());
                let op = OpType::from_tag(buf.get_u8()).ok_or(Error::CodecBadTag)?;
                let cols = aets_wal::decode_row(buf)?;
                chain.push(Version { txn_id, commit_ts, op, cols });
            }
            table.node_or_insert(key).restore_versions(chain);
        }
    }
    if buf.has_remaining() {
        return Err(Error::Codec(format!("{} trailing bytes after snapshot", buf.remaining())));
    }
    Ok(())
}

fn need(buf: &Bytes, n: usize) -> Result<()> {
    if buf.remaining() < n {
        Err(Error::CodecTruncated)
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aets_common::{ColumnId, TableId, Value};

    fn ver(txn: u64, ts: u64, op: OpType, cols: Vec<(u16, Value)>) -> Version {
        Version {
            txn_id: TxnId::new(txn),
            commit_ts: Timestamp::from_micros(ts),
            op,
            cols: cols.into_iter().map(|(c, v)| (ColumnId::new(c), v)).collect(),
        }
    }

    fn sample_db() -> MemDb {
        let db = MemDb::new(3);
        let t0 = db.table(TableId::new(0));
        t0.apply_version(
            RowKey::new(1),
            ver(1, 10, OpType::Insert, vec![(0, Value::Int(1)), (1, Value::Text("a".into()))]),
        );
        t0.apply_version(RowKey::new(1), ver(2, 20, OpType::Update, vec![(0, Value::Int(2))]));
        t0.apply_version(RowKey::new(2), ver(3, 30, OpType::Insert, vec![(0, Value::Null)]));
        t0.apply_version(RowKey::new(2), ver(4, 40, OpType::Delete, vec![]));
        let t2 = db.table(TableId::new(2));
        t2.apply_version(
            RowKey::new(9),
            ver(5, 50, OpType::Insert, vec![(3, Value::Float(2.5)), (4, Value::from(vec![7u8]))]),
        );
        // Table 1 stays empty; an invisible phase-1 node must not persist.
        let _ = db.table(TableId::new(1)).node_or_insert(RowKey::new(77));
        db
    }

    #[test]
    fn snapshot_round_trips_digest_and_chains() {
        let db = sample_db();
        let mut buf = BytesMut::new();
        encode_db(&mut buf, &db, Timestamp::MAX);
        let mut bytes = buf.freeze();
        let back = decode_db(&mut bytes).unwrap();

        assert_eq!(back.num_tables(), db.num_tables());
        assert_eq!(back.total_versions(), db.total_versions());
        assert!(back.all_chains_ordered());
        for ts in [0u64, 15, 25, 35, 45, 55, u64::MAX] {
            let ts = Timestamp::from_micros(ts);
            assert_eq!(back.digest_at(ts), db.digest_at(ts), "digest diverges at {ts:?}");
        }
        // The invisible node was dropped, not resurrected.
        assert!(back.table(TableId::new(1)).is_empty());
    }

    #[test]
    fn watermark_filters_newer_versions() {
        let db = sample_db();
        let mut buf = BytesMut::new();
        encode_db(&mut buf, &db, Timestamp::from_micros(30));
        let back = decode_db(&mut buf.freeze()).unwrap();
        // Versions at ts 40 and 50 excluded: 3 of 5 survive.
        assert_eq!(back.total_versions(), 3);
        let wm = Timestamp::from_micros(30);
        assert_eq!(back.digest_at(wm), db.digest_at(wm));
    }

    #[test]
    fn truncated_snapshot_errors_not_panics() {
        let db = sample_db();
        let mut buf = BytesMut::new();
        encode_db(&mut buf, &db, Timestamp::MAX);
        let full = buf.freeze();
        for cut in 0..full.len() {
            let mut b = full.slice(..cut);
            assert!(decode_db(&mut b).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let db = sample_db();
        let mut buf = BytesMut::new();
        encode_db(&mut buf, &db, Timestamp::MAX);
        buf.put_u8(0xFF);
        assert!(decode_db(&mut buf.freeze()).is_err());
    }

    #[test]
    fn empty_db_round_trips() {
        let db = MemDb::new(0);
        let mut buf = BytesMut::new();
        encode_db(&mut buf, &db, Timestamp::MAX);
        let back = decode_db(&mut buf.freeze()).unwrap();
        assert_eq!(back.num_tables(), 0);
    }
}
