//! Epoch-aligned durable checkpoints of the backup's Memtable.
//!
//! A checkpoint is taken at an epoch barrier while the engine is healthy:
//! every transaction of every epoch below `next_epoch_seq` has been
//! replayed and published, and nothing beyond it has touched the store.
//! The manifest therefore needs no redo/undo machinery — it is a
//! consistent snapshot by construction, and restart recovery only
//! re-replays the WAL suffix from `next_epoch_seq` onward.
//!
//! ## On-disk format (`ckpt-<next_epoch_seq:020>.ack`)
//!
//! ```text
//! [magic   u32 = "ACKP" full | "ACKD" delta] [version u32 = 1]
//! [next_epoch_seq u64]   [global_cmt_ts u64]
//! [num_groups u32] [tg_cmt_ts u64 x num_groups]
//! [num_quarantined u32] [group u32 x num_quarantined]
//! [parent_seq u64] [parent_snapshot_crc u32]   -- delta only
//! [snapshot_len u64]
//! [meta_crc u32]              -- CRC32 over everything above
//! [snapshot bytes]            -- aets_memtable::encode_chains
//! [snapshot_crc u32]          -- CRC32 over the snapshot bytes
//! ```
//!
//! A *full* manifest (`"ACKP"`, the original format) carries every
//! chain. A *delta* (`"ACKD"`) carries only the chains changed since its
//! parent — the manifest named by `parent_seq` whose snapshot CRC is
//! `parent_snapshot_crc` — each chain whole. Following parent links
//! from any manifest reaches a full *base*; that base plus the deltas
//! on the way, applied oldest first, is the manifest's *restore point*.
//!
//! Every file is written to a `.tmp` sibling, fsynced, then renamed into
//! place and the directory fsynced — a crash at any instant leaves either
//! the old set of checkpoints or the old set plus a complete new one,
//! never a half-visible manifest. Loading tries restore points
//! newest-first and falls back across any whose chain is broken or
//! fails a checksum.

use aets_common::{Error, Result, Timestamp};
use aets_memtable::{apply_snapshot, decode_db, encode_chains, ChainFilter, MemDb};
use aets_wal::crash::{charge, durable_write, CrashClock};
use aets_wal::crc32;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::io::{Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// `"ACKP"` — AETS checkpoint manifest (full snapshot).
const CKPT_MAGIC: u32 = 0x4143_4B50;
/// `"ACKD"` — AETS delta checkpoint manifest.
const DELTA_MAGIC: u32 = 0x4143_4B44;
const CKPT_VERSION: u32 = 1;

/// Replay positions stored alongside the Memtable snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// First epoch sequence NOT contained in the snapshot: recovery
    /// resumes WAL replay here.
    pub next_epoch_seq: u64,
    /// `global_cmt_ts` at the barrier.
    pub global_cmt_ts: Timestamp,
    /// Per-group `tg_cmt_ts` at the barrier (board order).
    pub tg_cmt_ts: Vec<Timestamp>,
    /// Quarantine ledger (board indices). Empty in practice: checkpoints
    /// are skipped while degraded, because truncating the WAL past a
    /// frozen group would lose its unreplayed suffix. The field exists so
    /// the format does not need a version bump if that policy changes.
    pub quarantined: Vec<u32>,
}

/// A checkpoint loaded back from disk.
#[derive(Debug)]
pub struct Checkpoint {
    /// Replay positions at the barrier.
    pub meta: CheckpointMeta,
    /// The restored Memtable.
    pub db: MemDb,
    /// Manifest this state came from (the newest file of its chain).
    pub path: PathBuf,
}

/// A delta manifest's tie to its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParentLink {
    /// `next_epoch_seq` of the parent manifest.
    pub seq: u64,
    /// The parent's snapshot CRC: a parent rewritten at the same
    /// sequence no longer matches, so the stale delta is never applied.
    pub snapshot_crc: u32,
}

/// One manifest as its header and trailer describe it (the snapshot body
/// is not read).
#[derive(Debug, Clone)]
pub struct ManifestInfo {
    /// `next_epoch_seq`.
    pub seq: u64,
    /// File on disk.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
    /// `None` for a full snapshot, the parent for a delta.
    pub parent: Option<ParentLink>,
    /// CRC32 of the snapshot body, from the trailer.
    pub snapshot_crc: u32,
}

/// Sizes of the chain behind one restore point: what the full-vs-delta
/// rule weighs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainBytes {
    /// Size of the chain's full base manifest.
    pub base: u64,
    /// Total size of the deltas from the base up to the restore point.
    pub deltas: u64,
}

/// Durable store of checkpoint manifests in one directory.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    clock: Option<Arc<CrashClock>>,
    /// Manifests that failed validation while loading: their headers may
    /// look fine, but they must never anchor a restore point or be kept
    /// by retention.
    bad: Mutex<BTreeSet<u64>>,
}

impl CheckpointStore {
    /// Opens (creating if needed) the checkpoint directory and removes
    /// leftover `.tmp` files from checkpoints interrupted mid-write.
    pub fn open(dir: impl Into<PathBuf>, clock: Option<Arc<CrashClock>>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let store = Self { dir, clock, bad: Mutex::new(BTreeSet::new()) };
        for entry in std::fs::read_dir(&store.dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                charge(&store.clock, "remove stale checkpoint tmp")?;
                std::fs::remove_file(&path)?;
            }
        }
        Ok(store)
    }

    /// Checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Manifests present on disk, ascending by `next_epoch_seq`.
    pub fn list(&self) -> Result<Vec<(u64, PathBuf)>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if let Some(seq) = parse_checkpoint_name(&path) {
                out.push((seq, path));
            }
        }
        out.sort_unstable_by_key(|(seq, _)| *seq);
        Ok(out)
    }

    /// Manifests whose header and trailer validate, ascending by
    /// `next_epoch_seq`. Reads only each file's header and last four
    /// bytes; a body corrupted in place is caught when a restore point
    /// containing it is loaded, after which it is left out here too.
    pub fn catalog(&self) -> Result<Vec<ManifestInfo>> {
        let bad = self.bad.lock().clone();
        let mut out = Vec::new();
        for (seq, path) in self.list()? {
            if bad.contains(&seq) {
                continue;
            }
            if let Ok(info) = read_info(&path, seq) {
                out.push(info);
            }
        }
        Ok(out)
    }

    /// Sizes of the chain behind the restore point at `seq`, or `None`
    /// when no such manifest exists or its chain is broken.
    pub fn chain_bytes(&self, seq: u64) -> Result<Option<ChainBytes>> {
        let catalog = self.catalog()?;
        Ok(chain_of(&catalog, seq).map(|chain| {
            let (base, deltas) = chain.split_last().expect("a chain is never empty");
            ChainBytes {
                base: catalog[*base].bytes,
                deltas: deltas.iter().map(|&i| catalog[i].bytes).sum(),
            }
        }))
    }

    /// Writes a full checkpoint atomically: encode, write + fsync a
    /// `.tmp` sibling, rename into place, fsync the directory. Every
    /// chain's dirty mark is cleared as it is read, so the next
    /// [`CheckpointStore::write_delta`] carries only what changes after
    /// this barrier.
    ///
    /// `watermark` bounds the snapshot (versions with `commit_ts` above it
    /// are excluded); pass [`Timestamp::MAX`] to snapshot everything at
    /// the barrier.
    pub fn write(
        &self,
        meta: &CheckpointMeta,
        db: &MemDb,
        watermark: Timestamp,
    ) -> Result<PathBuf> {
        self.write_manifest(meta, None, db, watermark, ChainFilter::TakeAll)
    }

    /// Writes a delta checkpoint on top of the manifest at `parent_seq`:
    /// only the chains marked dirty since the last cut, each whole, with
    /// their marks cleared. Fails with a config error unless
    /// `parent_seq` is an older manifest on disk whose chain resolves.
    pub fn write_delta(
        &self,
        meta: &CheckpointMeta,
        parent_seq: u64,
        db: &MemDb,
    ) -> Result<PathBuf> {
        let catalog = self.catalog()?;
        let parent = chain_of(&catalog, parent_seq)
            .map(|chain| &catalog[chain[0]])
            .filter(|_| parent_seq < meta.next_epoch_seq)
            .ok_or_else(|| {
                Error::Config(format!("no restore point at {parent_seq} to chain a delta onto"))
            })?;
        let link = ParentLink { seq: parent.seq, snapshot_crc: parent.snapshot_crc };
        self.write_manifest(meta, Some(link), db, Timestamp::MAX, ChainFilter::TakeDirty)
    }

    /// Encodes the header and the snapshot into one buffer — the length
    /// and CRC fields are patched in place, so the snapshot is never
    /// copied — and commits it atomically.
    fn write_manifest(
        &self,
        meta: &CheckpointMeta,
        parent: Option<ParentLink>,
        db: &MemDb,
        watermark: Timestamp,
        filter: ChainFilter,
    ) -> Result<PathBuf> {
        let mut buf = BytesMut::new();
        buf.put_u32_le(if parent.is_some() { DELTA_MAGIC } else { CKPT_MAGIC });
        buf.put_u32_le(CKPT_VERSION);
        buf.put_u64_le(meta.next_epoch_seq);
        buf.put_u64_le(meta.global_cmt_ts.as_micros());
        buf.put_u32_le(meta.tg_cmt_ts.len() as u32);
        for ts in &meta.tg_cmt_ts {
            buf.put_u64_le(ts.as_micros());
        }
        buf.put_u32_le(meta.quarantined.len() as u32);
        for g in &meta.quarantined {
            buf.put_u32_le(*g);
        }
        if let Some(p) = parent {
            buf.put_u64_le(p.seq);
            buf.put_u32_le(p.snapshot_crc);
        }
        let len_at = buf.len();
        buf.put_u64_le(0); // snapshot_len
        buf.put_u32_le(0); // meta_crc
        let body_at = buf.len();
        encode_chains(&mut buf, db, watermark, filter);
        let snapshot_len = (buf.len() - body_at) as u64;
        buf[len_at..len_at + 8].copy_from_slice(&snapshot_len.to_le_bytes());
        let meta_crc = crc32(&buf[..len_at + 8]);
        buf[len_at + 8..body_at].copy_from_slice(&meta_crc.to_le_bytes());
        let snap_crc = crc32(&buf[body_at..]);
        buf.put_u32_le(snap_crc);

        let final_path = self.dir.join(checkpoint_file_name(meta.next_epoch_seq));
        let tmp_path = final_path.with_extension("tmp");
        {
            charge(&self.clock, "create checkpoint tmp")?;
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .truncate(true)
                .write(true)
                .open(&tmp_path)?;
            durable_write(&mut f, &buf, &self.clock, "checkpoint manifest")?;
            charge(&self.clock, "fsync checkpoint tmp")?;
            f.sync_data()?;
        }
        charge(&self.clock, "rename checkpoint into place")?;
        std::fs::rename(&tmp_path, &final_path)?;
        self.bad.lock().remove(&meta.next_epoch_seq);
        charge(&self.clock, "fsync checkpoint dir")?;
        std::fs::File::open(&self.dir)?.sync_all()?;
        Ok(final_path)
    }

    /// Loads the newest valid restore point — its base plus every delta
    /// up to it — falling back across restore points whose chain is
    /// broken or holds a manifest that fails validation (torn writes,
    /// checksum mismatches, decode errors). Returns the checkpoint (or
    /// `None` for a cold start) and the number of restore points skipped
    /// on the way.
    pub fn load_latest(&self) -> Result<(Option<Checkpoint>, u64)> {
        let catalog = self.catalog()?;
        let mut fallbacks = 0u64;
        for (seq, path) in self.list()?.into_iter().rev() {
            let restored = match chain_of(&catalog, seq) {
                Some(chain) => self.restore(&catalog, &chain),
                None => Err(Error::CodecChecksum),
            };
            match restored {
                Ok((meta, db)) => return Ok((Some(Checkpoint { meta, db, path }), fallbacks)),
                Err(e) if e.is_crash() => return Err(e),
                Err(_) => fallbacks += 1,
            }
        }
        Ok((None, fallbacks))
    }

    /// Reads and validates every manifest of `chain` (newest first, base
    /// last), checks each parent link against the parent's actual
    /// snapshot CRC, then decodes the base and applies the deltas oldest
    /// first. A manifest that fails validation is remembered as bad.
    fn restore(
        &self,
        catalog: &[ManifestInfo],
        chain: &[usize],
    ) -> Result<(CheckpointMeta, MemDb)> {
        let mut files = Vec::with_capacity(chain.len());
        for &i in chain {
            let m = &catalog[i];
            charge(&self.clock, "read checkpoint manifest")?;
            let raw = match std::fs::read(&m.path) {
                Ok(raw) => Bytes::from(raw),
                Err(e) => {
                    self.bad.lock().insert(m.seq);
                    return Err(e.into());
                }
            };
            match parse_checkpoint(&raw, m.seq) {
                Ok((head, body)) => {
                    let mut tail = raw.slice(body.end..);
                    files.push((head, raw.slice(body), tail.get_u32_le()));
                }
                Err(e) => {
                    self.bad.lock().insert(m.seq);
                    return Err(e);
                }
            }
        }
        for pair in files.windows(2) {
            let (child, parent) = (&pair[0], &pair[1]);
            let link = ParentLink { seq: parent.0.meta.next_epoch_seq, snapshot_crc: parent.2 };
            if child.0.parent != Some(link) {
                return Err(Error::CodecChecksum);
            }
        }
        let mut files = files.into_iter().rev();
        let (base, mut body, _) = files.next().expect("a chain is never empty");
        let db = decode_db(&mut body)?;
        let mut meta = base.meta;
        for (head, mut body, _) in files {
            apply_snapshot(&mut body, &db)?;
            meta = head.meta;
        }
        Ok((meta, db))
    }

    /// Prunes manifests no kept restore point needs. Kept are the newest
    /// `keep` restore points (at least one) with every manifest their
    /// chains reach back through; with `keep >= 2` the kept set always
    /// includes a restore point that does not depend on the newest base,
    /// whenever one exists, so a corrupt base still leaves one to fall
    /// back to. Every other manifest — older chains, and files no valid
    /// chain reaches — is removed, oldest first. Returns how many were.
    pub fn retain(&self, keep: usize) -> Result<usize> {
        let Some((kept, _)) = kept_manifests(&self.catalog()?, keep) else {
            return Ok(0);
        };
        let mut removed = 0usize;
        for (seq, path) in self.list()? {
            if !kept.contains(&seq) {
                charge(&self.clock, "remove retired checkpoint")?;
                std::fs::remove_file(&path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// The first epoch the WAL must still hold for the restore points
    /// [`CheckpointStore::retain`] keeps: the oldest kept manifest. While
    /// `keep >= 2` but every restore point depends on one base, a corrupt
    /// base can only fall back to a cold start, so the answer is `None`:
    /// keep the whole log.
    pub fn wal_floor(&self, keep: usize) -> Result<Option<u64>> {
        Ok(kept_manifests(&self.catalog()?, keep)
            .filter(|(_, independent)| *independent || keep < 2)
            .and_then(|(kept, _)| kept.first().copied()))
    }
}

/// Sequences of the manifests [`CheckpointStore::retain`] keeps, and
/// whether they include a restore point independent of the newest base;
/// `None` when no restore point resolves.
fn kept_manifests(catalog: &[ManifestInfo], keep: usize) -> Option<(BTreeSet<u64>, bool)> {
    let points: Vec<Vec<usize>> =
        catalog.iter().rev().filter_map(|m| chain_of(catalog, m.seq)).collect();
    let newest_base = points.first()?.last().copied();
    let mut kept = BTreeSet::new();
    let (mut taken, mut have_independent) = (0usize, false);
    for chain in &points {
        let independent = chain.last().copied() != newest_base;
        if taken < keep.max(1) || (keep >= 2 && independent && !have_independent) {
            kept.extend(chain.iter().map(|&i| catalog[i].seq));
            taken += 1;
            have_independent |= independent;
        }
    }
    Some((kept, have_independent))
}

/// Indices into `catalog` of the chain behind the manifest at `seq`:
/// that manifest first, its full base last. `None` when the manifest is
/// missing or a parent link does not resolve to a manifest with the
/// recorded sequence and snapshot CRC.
fn chain_of(catalog: &[ManifestInfo], seq: u64) -> Option<Vec<usize>> {
    let mut chain = vec![catalog.iter().position(|m| m.seq == seq)?];
    while let Some(link) = catalog[*chain.last()?].parent {
        let parent = catalog.iter().position(|m| m.seq == link.seq)?;
        // Sequences strictly decrease along a chain, so this terminates.
        if link.seq >= catalog[*chain.last()?].seq
            || catalog[parent].snapshot_crc != link.snapshot_crc
        {
            return None;
        }
        chain.push(parent);
    }
    Some(chain)
}

/// `ckpt-<next_epoch_seq:020>.ack`.
fn checkpoint_file_name(seq: u64) -> String {
    format!("ckpt-{seq:020}.ack")
}

/// Parses a manifest file name back to its sequence, `None` for foreign
/// files.
fn parse_checkpoint_name(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let seq = name.strip_prefix("ckpt-")?.strip_suffix(".ack")?;
    seq.parse().ok()
}

/// A manifest header that passed its CRC.
#[derive(Debug)]
struct Head {
    meta: CheckpointMeta,
    parent: Option<ParentLink>,
    snapshot_len: u64,
    /// Header length in bytes, `meta_crc` included.
    len: usize,
}

/// Reads and validates a manifest header from `r`, a manifest of
/// `file_len` bytes. `named_seq` is the sequence from the file name; a
/// mismatch with the header means the file was tampered with or
/// misplaced and is treated as invalid.
fn read_head(r: &mut impl Read, file_len: u64, named_seq: u64) -> Result<Head> {
    let fail = || Error::CodecChecksum;
    // Grows `raw` by exactly `n` bytes from `r`. A corrupt count that
    // points past the end of the file fails before anything is read.
    let grow = |r: &mut dyn Read, raw: &mut Vec<u8>, n: usize| -> Result<()> {
        let want = raw.len() + n;
        if want as u64 > file_len {
            return Err(fail());
        }
        raw.resize(want, 0);
        r.read_exact(&mut raw[want - n..]).map_err(|_| fail())
    };
    let u32_at =
        |raw: &[u8], at: usize| u32::from_le_bytes(raw[at..at + 4].try_into().unwrap_or_default());
    let mut raw = Vec::with_capacity(128);
    // Fixed prelude through num_groups.
    grow(r, &mut raw, 28)?;
    let delta = match u32_at(&raw, 0) {
        CKPT_MAGIC => false,
        DELTA_MAGIC => true,
        _ => return Err(fail()),
    };
    let num_groups = u32_at(&raw, 24) as usize;
    grow(r, &mut raw, num_groups * 8 + 4)?;
    let num_quarantined = u32_at(&raw, raw.len() - 4) as usize;
    grow(r, &mut raw, num_quarantined * 4 + if delta { 12 } else { 0 } + 12)?;

    let mut cur: &[u8] = &raw;
    cur.advance(4);
    if cur.get_u32_le() != CKPT_VERSION {
        return Err(fail());
    }
    let next_epoch_seq = cur.get_u64_le();
    let global_cmt_ts = Timestamp::from_micros(cur.get_u64_le());
    if next_epoch_seq != named_seq {
        return Err(fail());
    }
    cur.advance(4);
    let tg_cmt_ts: Vec<Timestamp> =
        (0..num_groups).map(|_| Timestamp::from_micros(cur.get_u64_le())).collect();
    cur.advance(4);
    let quarantined: Vec<u32> = (0..num_quarantined).map(|_| cur.get_u32_le()).collect();
    let parent =
        delta.then(|| ParentLink { seq: cur.get_u64_le(), snapshot_crc: cur.get_u32_le() });
    let snapshot_len = cur.get_u64_le();
    if crc32(&raw[..raw.len() - 4]) != cur.get_u32_le() {
        return Err(fail());
    }
    Ok(Head {
        meta: CheckpointMeta { next_epoch_seq, global_cmt_ts, tg_cmt_ts, quarantined },
        parent,
        snapshot_len,
        len: raw.len(),
    })
}

/// Describes the manifest at `path` from its header and trailer alone.
fn read_info(path: &Path, named_seq: u64) -> Result<ManifestInfo> {
    let mut f = std::fs::File::open(path)?;
    let bytes = f.metadata()?.len();
    let head = read_head(&mut std::io::BufReader::new(&mut f), bytes, named_seq)?;
    if head.len as u64 + head.snapshot_len + 4 != bytes {
        return Err(Error::CodecChecksum);
    }
    let mut trailer = [0u8; 4];
    f.seek(SeekFrom::End(-4))?;
    f.read_exact(&mut trailer)?;
    Ok(ManifestInfo {
        seq: named_seq,
        path: path.to_path_buf(),
        bytes,
        parent: head.parent,
        snapshot_crc: u32::from_le_bytes(trailer),
    })
}

/// Validates one whole manifest: header, exact length, and snapshot CRC.
/// Returns the header and the byte range of the snapshot within `raw`.
fn parse_checkpoint(raw: &[u8], named_seq: u64) -> Result<(Head, Range<usize>)> {
    let mut cur = raw;
    let head = read_head(&mut cur, raw.len() as u64, named_seq)?;
    if cur.len() as u64 != head.snapshot_len + 4 {
        return Err(Error::CodecChecksum);
    }
    let body = head.len..raw.len() - 4;
    let mut tail: &[u8] = &raw[body.end..];
    if crc32(&raw[body.clone()]) != tail.get_u32_le() {
        return Err(Error::CodecChecksum);
    }
    Ok((head, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aets_common::{ColumnId, RowKey, TableId, TxnId, Value};

    fn scratch(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("aets-ckpt-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_db() -> MemDb {
        let db = MemDb::new(2);
        for t in 0..2u32 {
            for k in 0..20u64 {
                db.table(TableId::new(t)).apply_version(
                    RowKey::new(k),
                    aets_memtable::Version {
                        txn_id: TxnId::new(k + 1),
                        commit_ts: Timestamp::from_micros((k + 1) * 10),
                        op: aets_memtable::OpType::Insert,
                        cols: vec![(ColumnId::new(0), Value::Int(k as i64))],
                    },
                );
            }
        }
        db
    }

    fn sample_meta(seq: u64) -> CheckpointMeta {
        CheckpointMeta {
            next_epoch_seq: seq,
            global_cmt_ts: Timestamp::from_micros(200),
            tg_cmt_ts: vec![Timestamp::from_micros(200), Timestamp::from_micros(180)],
            quarantined: vec![],
        }
    }

    #[test]
    fn write_load_round_trips() {
        let dir = scratch("round");
        let store = CheckpointStore::open(&dir, None).unwrap();
        let db = sample_db();
        let meta = sample_meta(7);
        store.write(&meta, &db, Timestamp::MAX).unwrap();

        let (ckpt, fallbacks) = store.load_latest().unwrap();
        let ckpt = ckpt.expect("checkpoint must load");
        assert_eq!(fallbacks, 0);
        assert_eq!(ckpt.meta, meta);
        assert_eq!(ckpt.db.digest_at(Timestamp::MAX), db.digest_at(Timestamp::MAX));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn newest_valid_wins_and_corrupt_falls_back() {
        let dir = scratch("fallback");
        let store = CheckpointStore::open(&dir, None).unwrap();
        let db = sample_db();
        store.write(&sample_meta(3), &db, Timestamp::MAX).unwrap();
        let newest = store.write(&sample_meta(9), &db, Timestamp::MAX).unwrap();

        // Flip a byte in the newest manifest's snapshot body.
        let mut raw = std::fs::read(&newest).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x40;
        std::fs::write(&newest, &raw).unwrap();

        let (ckpt, fallbacks) = store.load_latest().unwrap();
        let ckpt = ckpt.expect("older checkpoint must be found");
        assert_eq!(fallbacks, 1, "the corrupt newest manifest is skipped");
        assert_eq!(ckpt.meta.next_epoch_seq, 3);
        assert_eq!(ckpt.db.digest_at(Timestamp::MAX), db.digest_at(Timestamp::MAX));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_truncation_of_a_manifest_is_rejected() {
        let dir = scratch("trunc");
        let store = CheckpointStore::open(&dir, None).unwrap();
        let path = store.write(&sample_meta(1), &sample_db(), Timestamp::MAX).unwrap();
        let raw = std::fs::read(&path).unwrap();
        for cut in 0..raw.len() {
            assert!(
                parse_checkpoint(&raw[..cut], 1).is_err(),
                "prefix of {cut}/{} bytes must not validate",
                raw.len()
            );
        }
        assert!(parse_checkpoint(&raw, 1).is_ok());
        assert!(parse_checkpoint(&raw, 2).is_err(), "name/header seq mismatch rejected");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retain_prunes_oldest_and_tmp_files_are_cleared() {
        let dir = scratch("retain");
        let store = CheckpointStore::open(&dir, None).unwrap();
        let db = sample_db();
        for seq in [2u64, 5, 8, 11] {
            store.write(&sample_meta(seq), &db, Timestamp::MAX).unwrap();
        }
        assert_eq!(store.retain(2).unwrap(), 2);
        let seqs: Vec<u64> = store.list().unwrap().into_iter().map(|(s, _)| s).collect();
        assert_eq!(seqs, vec![8, 11]);
        // retain(0) still keeps one.
        assert_eq!(store.retain(0).unwrap(), 1);
        assert_eq!(store.list().unwrap().len(), 1);

        // A stale tmp from a crashed write is removed on reopen.
        std::fs::write(dir.join("ckpt-00000000000000000099.tmp"), b"half").unwrap();
        let store = CheckpointStore::open(&dir, None).unwrap();
        assert!(!dir.join("ckpt-00000000000000000099.tmp").exists());
        assert_eq!(store.list().unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Appends one update to `keys` of table 0 and inserts a new key, at
    /// commit timestamp `ts`.
    fn touch(db: &MemDb, keys: std::ops::Range<u64>, ts: u64) {
        let t = db.table(TableId::new(0));
        for k in keys.chain([1_000 + ts]) {
            t.apply_version(
                RowKey::new(k),
                aets_memtable::Version {
                    txn_id: TxnId::new(ts),
                    commit_ts: Timestamp::from_micros(ts),
                    op: if k >= 1_000 {
                        aets_memtable::OpType::Insert
                    } else {
                        aets_memtable::OpType::Update
                    },
                    cols: vec![(ColumnId::new(0), Value::Int(ts as i64))],
                },
            );
        }
    }

    fn seqs(store: &CheckpointStore) -> Vec<u64> {
        store.list().unwrap().into_iter().map(|(s, _)| s).collect()
    }

    #[test]
    fn base_plus_deltas_restore_the_live_chains() {
        let dir = scratch("delta");
        let store = CheckpointStore::open(&dir, None).unwrap();
        let db = sample_db();
        let base = store.write(&sample_meta(3), &db, Timestamp::MAX).unwrap();
        touch(&db, 0..3, 300);
        let delta = store.write_delta(&sample_meta(6), 3, &db).unwrap();
        touch(&db, 2..5, 400);
        store.write_delta(&sample_meta(9), 6, &db).unwrap();
        assert_eq!(db.table(TableId::new(0)).dirty_count(), 0, "cutting clears every mark");

        let base_len = std::fs::metadata(&base).unwrap().len();
        let delta_len = std::fs::metadata(&delta).unwrap().len();
        assert!(delta_len < base_len / 2, "a delta carries only the 4 changed chains");
        let chain = store.chain_bytes(9).unwrap().unwrap();
        assert_eq!(chain.base, base_len);
        assert!(chain.deltas > delta_len);

        let (ckpt, fallbacks) = store.load_latest().unwrap();
        let ckpt = ckpt.unwrap();
        assert_eq!((fallbacks, ckpt.meta.next_epoch_seq), (0, 9));
        let mut want = BytesMut::new();
        aets_memtable::encode_db(&mut want, &db, Timestamp::MAX);
        let mut got = BytesMut::new();
        aets_memtable::encode_db(&mut got, &ckpt.db, Timestamp::MAX);
        assert_eq!(got, want, "restored chains differ from the live ones");
        assert_eq!(ckpt.db.table(TableId::new(0)).dirty_count(), 0, "restored nodes are clean");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_delta_whose_parent_was_rewritten_is_never_applied() {
        let dir = scratch("stale-parent");
        let store = CheckpointStore::open(&dir, None).unwrap();
        let db = sample_db();
        store.write(&sample_meta(3), &db, Timestamp::MAX).unwrap();
        touch(&db, 0..2, 300);
        store.write_delta(&sample_meta(6), 3, &db).unwrap();
        // The parent is rewritten at the same sequence with other content:
        // its snapshot CRC no longer matches the one the delta recorded.
        touch(&db, 5..6, 400);
        store.write(&sample_meta(3), &db, Timestamp::MAX).unwrap();

        assert!(store.chain_bytes(6).unwrap().is_none(), "the chain is broken");
        let (ckpt, fallbacks) = store.load_latest().unwrap();
        assert_eq!(fallbacks, 1, "the orphaned delta is skipped");
        assert_eq!(ckpt.unwrap().meta.next_epoch_seq, 3);
        assert!(store.write_delta(&sample_meta(9), 6, &db).is_err(), "no delta onto an orphan");
        assert_eq!(store.retain(2).unwrap(), 1, "retention removes the orphan");
        assert_eq!(seqs(&store), vec![3]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_keeps_whole_chains_and_one_independent_restore_point() {
        let dir = scratch("chains");
        let store = CheckpointStore::open(&dir, None).unwrap();
        let db = sample_db();
        store.write(&sample_meta(2), &db, Timestamp::MAX).unwrap();
        assert_eq!(store.wal_floor(2).unwrap(), None, "one base: keep the whole log");
        assert_eq!(store.wal_floor(1).unwrap(), Some(2));
        touch(&db, 0..2, 300);
        store.write_delta(&sample_meta(4), 2, &db).unwrap();
        store.write(&sample_meta(6), &db, Timestamp::MAX).unwrap();
        touch(&db, 0..2, 400);
        store.write_delta(&sample_meta(8), 6, &db).unwrap();
        touch(&db, 0..2, 500);
        store.write_delta(&sample_meta(10), 8, &db).unwrap();

        // The two newest restore points (10, 8) share base 6; 4 is the
        // newest that does not, so its chain (4 → 2) stays too.
        assert_eq!(store.retain(2).unwrap(), 0);
        assert_eq!(store.wal_floor(2).unwrap(), Some(2));
        // keep = 1: only the newest chain.
        assert_eq!(store.retain(1).unwrap(), 2);
        assert_eq!(seqs(&store), vec![6, 8, 10]);
        assert_eq!(store.wal_floor(1).unwrap(), Some(6));

        // A new base makes the whole 6-chain the independent fallback.
        store.write(&sample_meta(12), &db, Timestamp::MAX).unwrap();
        assert_eq!(store.retain(2).unwrap(), 0);
        assert_eq!(seqs(&store), vec![6, 8, 10, 12]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_mid_write_never_corrupts_existing_checkpoints() {
        let dir = scratch("crash");
        let db = sample_db();
        {
            let store = CheckpointStore::open(&dir, None).unwrap();
            store.write(&sample_meta(4), &db, Timestamp::MAX).unwrap();
        }
        // Probe the op cost of one checkpoint write, then crash at every
        // budget inside it.
        let probe = CrashClock::unlimited();
        {
            let store = CheckpointStore::open(&dir, Some(probe.clone())).unwrap();
            store.write(&sample_meta(9), &db, Timestamp::MAX).unwrap();
            for p in store.list().unwrap() {
                if p.0 == 9 {
                    std::fs::remove_file(&p.1).unwrap();
                }
            }
        }
        let total = probe.used();
        for budget in 1..=total {
            let clock = CrashClock::with_budget(budget);
            if let Ok(store) = CheckpointStore::open(&dir, Some(clock)) {
                let _ = store.write(&sample_meta(9), &db, Timestamp::MAX);
            }
            // Restart: no clock. Either the old checkpoint alone or both
            // must load cleanly; fallbacks stay zero because torn tmps are
            // swept, not parsed.
            let store = CheckpointStore::open(&dir, None).unwrap();
            let (ckpt, fallbacks) = store.load_latest().unwrap();
            let ckpt = ckpt.expect("seq-4 checkpoint must always survive");
            assert_eq!(fallbacks, 0, "budget {budget}: no torn manifest may be visible");
            assert!(ckpt.meta.next_epoch_seq == 4 || ckpt.meta.next_epoch_seq == 9);
            assert_eq!(ckpt.db.digest_at(Timestamp::MAX), db.digest_at(Timestamp::MAX));
            // Clean up a committed seq-9 so the next budget starts equal.
            for p in store.list().unwrap() {
                if p.0 == 9 {
                    std::fs::remove_file(&p.1).unwrap();
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
