//! Crash-consistency integration tests: the durable WAL segment store,
//! epoch-aligned checkpoints, and restart recovery, driven end to end by
//! deterministic crash injection.
//!
//! The contract under test: for ANY seeded crash schedule — killing the
//! metered process mid-segment-write, mid-checkpoint, or mid-recovery —
//! a supervised sequence of restarts converges to exactly the state the
//! fault-free serial oracle produces, and each restart re-replays only
//! the WAL suffix past the newest durable checkpoint (never the full
//! history).
//!
//! Checkpoints are delta chains: a full base plus deltas that carry only
//! the version chains changed since their parent. The delta-chain tests
//! prove that a chain restores exactly what a full snapshot would, that
//! a crash inside a delta cut never exposes a torn chain, that any one
//! corrupt manifest — delta or base — still recovers, and the
//! full-vs-delta rule.
//!
//! The `crash_mid_segment_write` / `crash_mid_checkpoint` /
//! `stale_manifest_falls_back` / `crash_mid_delta_checkpoint` /
//! `any_single_corrupt_manifest_recovers` tests double as the CI
//! crash-matrix entries (see `.github/workflows/ci.yml`).

use aets_suite::common::Timestamp;
use aets_suite::memtable::{decode_db, encode_db, MemDb};
use aets_suite::replay::{
    AetsConfig, AetsEngine, CheckpointStore, DurableBackup, DurableOptions, ManifestInfo,
    ReplayEngine, SerialEngine, TableGrouping,
};
use aets_suite::wal::{
    batch_into_epochs, encode_epoch, CrashClock, EncodedEpoch, FsyncPolicy, SegmentConfig,
};
use aets_suite::workloads::{bustracker, tpcc, Workload};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Duration;

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

struct Fixture {
    epochs: Vec<EncodedEpoch>,
    num_tables: usize,
    grouping: TableGrouping,
    oracle_digest: u64,
}

fn build_fixture(w: Workload, epoch_size: usize) -> Fixture {
    let epochs: Vec<EncodedEpoch> =
        batch_into_epochs(w.txns.clone(), epoch_size).unwrap().iter().map(encode_epoch).collect();
    let num_tables = w.num_tables();
    let hot = w.analytic_tables.clone();
    let written = w.written_tables();
    let grouping =
        TableGrouping::per_table(
            num_tables,
            &hot,
            |t| {
                if written.contains(&t) {
                    50.0
                } else {
                    1.0
                }
            },
        );
    let oracle = MemDb::new(num_tables);
    SerialEngine.replay_all(&epochs, &oracle).unwrap();
    let oracle_digest = oracle.digest_at(Timestamp::MAX);
    Fixture { epochs, num_tables, grouping, oracle_digest }
}

fn tpcc_fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        build_fixture(
            tpcc::generate(&tpcc::TpccConfig {
                num_txns: 600,
                warehouses: 2,
                ..Default::default()
            }),
            48,
        )
    })
}

fn bustracker_fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        build_fixture(
            bustracker::generate(&bustracker::BusTrackerConfig {
                num_txns: 600,
                ..Default::default()
            }),
            48,
        )
    })
}

fn fresh_engine(grouping: &TableGrouping) -> AetsEngine {
    AetsEngine::builder(grouping.clone())
        .config(AetsConfig { threads: 2, ..Default::default() })
        .build()
        .unwrap()
}

fn scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("aets-crash-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_opts() -> DurableOptions {
    DurableOptions {
        checkpoint_every: 3,
        keep_checkpoints: 2,
        segment: SegmentConfig { epochs_per_segment: 2, ..Default::default() },
        gc_before_checkpoint: true,
        ..Default::default()
    }
}

/// Group-commit variant: one fsync covers up to four frames, so acked
/// epochs past [`aets_suite::replay::DurableBackup::wal_synced_seq`] may
/// be lost to a crash and re-ingested on resync.
fn coalesced_opts() -> DurableOptions {
    DurableOptions {
        segment: SegmentConfig {
            epochs_per_segment: 4,
            fsync: FsyncPolicy::Coalesced { max_frames: 4, max_wait: Duration::from_secs(3600) },
        },
        ..durable_opts()
    }
}

// ---------------------------------------------------------------------
// The supervised crash-restart harness
// ---------------------------------------------------------------------

struct SupervisedOutcome {
    digest: u64,
    restarts: u64,
    /// Longest WAL suffix any single recovery had to re-replay.
    max_suffix: u64,
}

/// Runs the full epoch stream through a [`DurableBackup`], killing the
/// metered process after `schedule[i]` filesystem operations in life `i`
/// and restarting it from disk, until the stream completes (lives past
/// the schedule run unmetered). Asserts after every restart that
/// recovery resumed at or after the newest checkpoint known durable
/// before the crash — i.e. only the log suffix is ever re-replayed.
fn supervised_run(
    fx: &Fixture,
    opts: &DurableOptions,
    wal_dir: &Path,
    ckpt_dir: &Path,
    schedule: &[u64],
) -> SupervisedOutcome {
    let mut life = 0usize;
    let mut restarts = 0u64;
    let mut max_suffix = 0u64;
    // Newest checkpoint seq whose write was acked before any crash.
    let mut known_ckpt = 0u64;
    // Highest WAL sequence known fsync-covered before any crash: the
    // crash-loss bound under a coalescing fsync policy.
    let mut known_synced: Option<u64> = None;
    loop {
        let clock = schedule.get(life).map(|b| CrashClock::with_budget(*b));
        life += 1;
        let mut node = match DurableBackup::open(
            wal_dir,
            ckpt_dir,
            fresh_engine(&fx.grouping),
            fx.num_tables,
            opts.clone(),
            clock,
        ) {
            Ok(n) => n,
            Err(e) if e.is_crash() => {
                restarts += 1;
                continue; // crashed mid-recovery: restart again
            }
            Err(e) => panic!("recovery failed with a non-crash error: {e}"),
        };
        let rec = node.recovery();
        match rec.restored_seq {
            Some(r) => assert!(
                r >= known_ckpt,
                "life {life}: restored from epoch {r} although checkpoint \
                 {known_ckpt} was durable — recovery went further back than \
                 the log suffix"
            ),
            None => assert_eq!(
                known_ckpt, 0,
                "life {life}: durable checkpoint {known_ckpt} was not found"
            ),
        }
        max_suffix = max_suffix.max(rec.suffix_epochs);
        if let Some(synced) = known_synced {
            assert!(
                node.next_seq() > synced,
                "life {life}: epoch {synced} was fsync-covered before the \
                 crash but recovery resumed at {} — a torn batch truncated \
                 below the durable prefix",
                node.next_seq()
            );
        }

        let mut crashed = false;
        while (node.next_seq() as usize) < fx.epochs.len() {
            let e = &fx.epochs[node.next_seq() as usize];
            match node.ingest(e) {
                Ok(()) => {
                    known_ckpt = known_ckpt.max(node.last_checkpoint_seq());
                    known_synced = known_synced.max(node.wal_synced_seq());
                }
                Err(err) if err.is_crash() => {
                    restarts += 1;
                    crashed = true;
                    break;
                }
                Err(err) => panic!("ingest failed with a non-crash error: {err}"),
            }
        }
        if !crashed {
            return SupervisedOutcome {
                digest: node.db().digest_at(Timestamp::MAX),
                restarts,
                max_suffix,
            };
        }
    }
}

fn run_schedule(fx: &Fixture, schedule: &[u64], tag: &str) -> SupervisedOutcome {
    run_schedule_opts(fx, &durable_opts(), schedule, tag)
}

fn run_schedule_opts(
    fx: &Fixture,
    opts: &DurableOptions,
    schedule: &[u64],
    tag: &str,
) -> SupervisedOutcome {
    let wal_dir = scratch(&format!("{tag}-wal"));
    let ckpt_dir = scratch(&format!("{tag}-ckpt"));
    let out = supervised_run(fx, opts, &wal_dir, &ckpt_dir, schedule);
    assert_eq!(
        out.digest, fx.oracle_digest,
        "{tag}: recovered digest diverged from the fault-free serial oracle \
         (schedule {schedule:?}, {} restarts)",
        out.restarts
    );
    assert!(
        out.max_suffix <= opts.checkpoint_every,
        "{tag}: a recovery replayed {} epochs, more than the checkpoint \
         cadence of {} — restart cost is not bounded by the cadence",
        out.max_suffix,
        opts.checkpoint_every
    );
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    out
}

// ---------------------------------------------------------------------
// Property: any crash schedule converges to the oracle
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// TPC-C: crash after an arbitrary number of filesystem operations,
    /// up to three times in a row (including crashes during the recovery
    /// of a previous crash), then finish. The recovered digest must equal
    /// the fault-free oracle digest, and no recovery may replay more than
    /// the post-checkpoint suffix.
    #[test]
    fn tpcc_any_crash_schedule_converges(
        schedule in prop::collection::vec(1u64..300, 1..4)
    ) {
        // A budget larger than the run's total op count simply completes
        // without crashing, so `restarts <= schedule.len()` rather than
        // strictly equal.
        let out = run_schedule(tpcc_fixture(), &schedule, "prop-tpcc");
        prop_assert!(out.restarts as usize <= schedule.len());
    }

    /// BusTracker: same contract on the second headline workload.
    #[test]
    fn bustracker_any_crash_schedule_converges(
        schedule in prop::collection::vec(1u64..300, 1..3)
    ) {
        run_schedule(bustracker_fixture(), &schedule, "prop-bus");
    }
}

// ---------------------------------------------------------------------
// Pinned crash points (CI crash-matrix seeds)
// ---------------------------------------------------------------------

/// Crash-matrix seed 1: the crash instant lands inside the very first
/// WAL frame write — the torn tail must be discarded on reopen and the
/// epoch re-ingested.
#[test]
fn crash_mid_segment_write() {
    let fx = tpcc_fixture();
    // First append charges: create segment, segment header write, frame
    // write, fsync. Budget 3 tears the first frame write itself.
    let out = run_schedule(fx, &[3], "mid-segment");
    assert_eq!(out.restarts, 1);
}

/// Crash-matrix seed 2: the crash instant lands inside the checkpoint
/// write (torn manifest tmp / missed rename). Recovery must either see
/// the completed checkpoint or cleanly fall back to the state before it
/// — never a half-visible manifest.
#[test]
fn crash_mid_checkpoint() {
    let fx = tpcc_fixture();
    // Probe one unmetered life to find the operation window of the first
    // checkpoint (cadence 3): record the op counter as each ingest
    // completes; the first ingest that bumps `checkpoints_written`
    // contains the checkpoint's five operations at its end.
    let (before, after) = {
        let wal_dir = scratch("probe-wal");
        let ckpt_dir = scratch("probe-ckpt");
        let clock = CrashClock::unlimited();
        let mut node = DurableBackup::open(
            &wal_dir,
            &ckpt_dir,
            fresh_engine(&fx.grouping),
            fx.num_tables,
            durable_opts(),
            Some(clock.clone()),
        )
        .unwrap();
        let mut window = None;
        for e in &fx.epochs {
            let pre = clock.used();
            node.ingest(e).unwrap();
            if node.metrics().checkpoints_written == 1 {
                window = Some((pre, clock.used()));
                break;
            }
        }
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        window.expect("cadence must cut a checkpoint")
    };
    // Crash at every op inside the triggering ingest — WAL append ops
    // first, then the checkpoint's create-tmp / write / fsync / rename /
    // dir-fsync. Every cut must recover to the oracle.
    for budget in before + 1..=after {
        let out = run_schedule(fx, &[budget], "mid-checkpoint");
        assert_eq!(out.restarts, 1, "budget {budget} must crash exactly once");
    }
}

/// Crash-matrix seed 3: the newest manifest is corrupted on disk (torn
/// by a storage fault after the fact). Recovery must fall back to the
/// older retained checkpoint and re-replay the longer WAL suffix.
#[test]
fn stale_manifest_falls_back() {
    let fx = tpcc_fixture();
    let wal_dir = scratch("stale-wal");
    let ckpt_dir = scratch("stale-ckpt");
    let opts = durable_opts();
    {
        let mut node = DurableBackup::open(
            &wal_dir,
            &ckpt_dir,
            fresh_engine(&fx.grouping),
            fx.num_tables,
            opts.clone(),
            None,
        )
        .unwrap();
        for e in &fx.epochs {
            node.ingest(e).unwrap();
        }
        assert!(node.metrics().checkpoints_written >= 2);
        assert_eq!(node.db().digest_at(Timestamp::MAX), fx.oracle_digest);
    }
    // Corrupt the newest manifest's body.
    let mut manifests: Vec<PathBuf> = std::fs::read_dir(&ckpt_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "ack"))
        .collect();
    manifests.sort();
    assert!(manifests.len() >= 2, "retention must keep two manifests");
    let newest = manifests.last().unwrap();
    let mut raw = std::fs::read(newest).unwrap();
    let mid = raw.len() / 2;
    raw[mid] ^= 0x20;
    std::fs::write(newest, &raw).unwrap();

    let node = DurableBackup::open(
        &wal_dir,
        &ckpt_dir,
        fresh_engine(&fx.grouping),
        fx.num_tables,
        opts,
        None,
    )
    .unwrap();
    let rec = node.recovery();
    assert_eq!(rec.manifest_fallbacks, 1, "the corrupt newest manifest must be skipped");
    let restored = rec.restored_seq.expect("older manifest must load");
    assert!(restored < fx.epochs.len() as u64, "fallback restores an older barrier");
    assert!(
        rec.suffix_epochs > 0,
        "the longer suffix past the older checkpoint must be re-replayed"
    );
    assert_eq!(
        node.db().digest_at(Timestamp::MAX),
        fx.oracle_digest,
        "fallback recovery must still converge to the oracle"
    );
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

/// Crash-matrix seed 4 (group commit): under `FsyncPolicy::Coalesced`
/// an acked append is no longer durable — only the fsync-covered prefix
/// is. Crash at every filesystem operation of a short run and require,
/// at every cut: (1) recovery never resumes below the fsync-covered
/// bound (asserted inside the harness via `wal_synced_seq`), (2) a torn
/// coalesced batch truncates to the last fully-written frame — no
/// half-frame is ever replayed, because the recovered digest still
/// converges to the fault-free oracle after the lost tail re-ingests.
#[test]
fn coalesced_group_commit_crash_sweep() {
    let fx = tpcc_fixture();
    let opts = coalesced_opts();
    // Probe the total op count of a clean metered run over a short
    // prefix of the stream.
    let total = {
        let wal_dir = scratch("coalesced-probe-wal");
        let ckpt_dir = scratch("coalesced-probe-ckpt");
        let clock = CrashClock::unlimited();
        let mut node = DurableBackup::open(
            &wal_dir,
            &ckpt_dir,
            fresh_engine(&fx.grouping),
            fx.num_tables,
            opts.clone(),
            Some(clock.clone()),
        )
        .unwrap();
        for e in &fx.epochs[..6.min(fx.epochs.len())] {
            node.ingest(e).unwrap();
        }
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        clock.used()
    };
    for budget in 1..=total {
        let out = run_schedule_opts(fx, &opts, &[budget], "coalesced");
        assert!(out.restarts <= 1);
    }
}

/// Group commit under arbitrary multi-crash schedules (including crashes
/// during the recovery of a previous crash): same convergence contract
/// as the default-policy property above.
#[test]
fn coalesced_multi_crash_schedules_converge() {
    let fx = tpcc_fixture();
    let opts = coalesced_opts();
    for schedule in [&[7u64, 5][..], &[23, 11, 3], &[64, 64], &[150, 2, 90]] {
        run_schedule_opts(fx, &opts, schedule, "coalesced-multi");
    }
}

/// Dense sweep on a short stream: crash at EVERY filesystem operation of
/// the whole run, one life each, and require oracle convergence every
/// time. This is the exhaustive version of the sampled property above.
#[test]
fn every_single_crash_point_converges() {
    let fx = tpcc_fixture();
    // Probe the total op count of a clean metered run.
    let total = {
        let wal_dir = scratch("dense-probe-wal");
        let ckpt_dir = scratch("dense-probe-ckpt");
        let clock = CrashClock::unlimited();
        let mut node = DurableBackup::open(
            &wal_dir,
            &ckpt_dir,
            fresh_engine(&fx.grouping),
            fx.num_tables,
            durable_opts(),
            Some(clock.clone()),
        )
        .unwrap();
        for e in &fx.epochs[..6.min(fx.epochs.len())] {
            node.ingest(e).unwrap();
        }
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        clock.used()
    };
    for budget in 1..=total {
        run_schedule(fx, &[budget], "dense");
    }
}

// ---------------------------------------------------------------------
// Property: quarantine freezes WAL retention, across reopen
// ---------------------------------------------------------------------

/// Poisons the first epoch at index >= `from` that carries a DML of
/// `victim`: one record byte flipped, frame CRC re-stamped so the
/// corruption is only detected at replay time (record CRC), which
/// quarantines the victim's group. Returns the poisoned index.
fn poison_victim_epoch(
    epochs: &mut [EncodedEpoch],
    victim: aets_suite::common::TableId,
    from: usize,
) -> Option<usize> {
    use aets_suite::wal::{crc32, MetaScanner};
    let eidx = epochs.iter().enumerate().position(|(i, e)| {
        i >= from
            && MetaScanner::new(e.bytes.clone())
                .filter_map(|it| it.ok())
                .any(|(meta, _)| meta.table == Some(victim))
    })?;
    let range = MetaScanner::new(epochs[eidx].bytes.clone())
        .filter_map(|it| it.ok())
        .find(|(meta, _)| meta.table == Some(victim))
        .map(|(_, r)| r)?;
    let mut v = epochs[eidx].bytes.to_vec();
    v[range.end - 1] ^= 0x01;
    epochs[eidx] = EncodedEpoch { crc32: crc32(&v), bytes: v.into(), ..epochs[eidx].clone() };
    Some(eidx)
}

/// The retention invariant under quarantine: the WAL's first retained
/// epoch never passes the oldest manifest (recovery's fallback anchor),
/// and while any group is quarantined neither the oldest manifest nor
/// the retention point moves at all — the frozen group's unreplayed
/// suffix must survive until the quarantine clears.
fn assert_retention_frozen(
    node: &DurableBackup,
    frozen: &mut Option<(Option<u64>, Option<u64>)>,
    ctx: &str,
) {
    let first = node.wal_first_retained_seq();
    let oldest = node.oldest_checkpoint_seq().unwrap();
    if let (Some(f), Some(o)) = (first, oldest) {
        assert!(f <= o, "{ctx}: WAL first retained {f} passed the oldest manifest {o}");
    }
    if node.board().any_quarantined() {
        match frozen {
            None => *frozen = Some((first, oldest)),
            Some(state) => {
                assert_eq!(
                    (first, oldest),
                    *state,
                    "{ctx}: retention state moved while quarantined"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For any poison position, checkpoint cadence, and reopen point
    /// past the quarantine: no WAL segment is ever retired past the
    /// oldest manifest, and retention is completely frozen from the
    /// quarantine instant on — including across a crash/reopen, whose
    /// suffix replay re-poisons the fresh engine and must re-freeze
    /// before the overdue-checkpoint path can truncate anything.
    #[test]
    fn quarantine_never_outruns_wal_retention(
        poison_frac in 0.1f64..0.8,
        cadence in 2u64..5,
        reopen_gap in 1usize..6,
    ) {
        let fx = tpcc_fixture();
        let mut epochs = fx.epochs.clone();
        let victim = aets_suite::common::TableId::new((fx.num_tables - 1) as u32);
        let from = (epochs.len() as f64 * poison_frac) as usize;
        let Some(eidx) = poison_victim_epoch(&mut epochs, victim, from) else {
            // No epoch at or past `from` touches the victim: vacuous case.
            return;
        };
        let wal_dir = scratch("quar-prop-wal");
        let ckpt_dir = scratch("quar-prop-ckpt");
        let opts = DurableOptions { checkpoint_every: cadence, ..durable_opts() };

        let mut node = DurableBackup::open(
            &wal_dir, &ckpt_dir, fresh_engine(&fx.grouping), fx.num_tables, opts.clone(), None,
        ).unwrap();
        let mut frozen = None;
        let stop = (eidx + reopen_gap).min(epochs.len());
        for e in &epochs[..stop] {
            node.ingest(e).unwrap();
            assert_retention_frozen(&node, &mut frozen, "first life");
        }
        prop_assert!(node.board().any_quarantined(), "poisoned epoch must quarantine");
        prop_assert!(frozen.is_some());

        // Crash: drop the node, reopen on the same directories. The WAL
        // suffix includes the poisoned epoch, so recovery re-quarantines
        // and the frozen retention state must carry over unchanged.
        drop(node);
        let mut node = DurableBackup::open(
            &wal_dir, &ckpt_dir, fresh_engine(&fx.grouping), fx.num_tables, opts, None,
        ).unwrap();
        prop_assert!(
            node.board().any_quarantined(),
            "reopen replayed the poisoned suffix and must re-quarantine"
        );
        assert_retention_frozen(&node, &mut frozen, "reopen");
        for e in &epochs[stop..] {
            node.ingest(e).unwrap();
            assert_retention_frozen(&node, &mut frozen, "second life");
        }
        // The frozen suffix is still fully covered: recovery from the
        // oldest manifest (or epoch 0) can reach every epoch the
        // quarantined group has not replayed.
        if let Some(f) = node.wal_first_retained_seq() {
            prop_assert!(f <= eidx as u64, "poisoned epoch {eidx} fell off the WAL ({f})");
        }
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }
}

// ---------------------------------------------------------------------
// Delta checkpoint chains
// ---------------------------------------------------------------------

/// Every non-empty version chain of `db` as (table, key, chain), in
/// table and key order.
fn chains(db: &MemDb) -> Vec<(u32, u64, String)> {
    let mut out = Vec::new();
    for t in db.tables() {
        t.for_each_node(|k, n| {
            let chain = n.versions_snapshot();
            if !chain.is_empty() {
                out.push((t.id().raw(), k.raw(), format!("{chain:?}")));
            }
        });
    }
    out
}

/// What a full snapshot of `db` restores.
fn full_snapshot_restore(db: &MemDb) -> MemDb {
    let mut buf = bytes::BytesMut::new();
    encode_db(&mut buf, db, Timestamp::MAX);
    decode_db(&mut buf.freeze()).unwrap()
}

fn open_node(fx: &Fixture, opts: &DurableOptions, wal: &Path, ckpt: &Path) -> DurableBackup {
    DurableBackup::open(wal, ckpt, fresh_engine(&fx.grouping), fx.num_tables, opts.clone(), None)
        .unwrap()
}

/// Whether the newest manifest in `ckpt_dir` is a delta.
fn newest_is_delta(ckpt_dir: &Path) -> bool {
    let store = CheckpointStore::open(ckpt_dir, None).unwrap();
    store.catalog().unwrap().last().is_some_and(|m| m.parent.is_some())
}

/// Ingests `fx` with a read floor pinned per epoch from `picks` (an
/// earlier epoch's high-water mark, or no floor), so every pre-cut GC
/// pass consolidates a different prefix. After every cut, the newest
/// restore point — base plus deltas — must hold exactly the chains a
/// full snapshot of the live Memtable at the same barrier restores.
fn delta_chains_match_full_snapshots(fx: &Fixture, cadence: u64, picks: &[u8]) {
    let wal_dir = scratch("chain-wal");
    let ckpt_dir = scratch("chain-ckpt");
    let opts = DurableOptions { checkpoint_every: cadence, ..durable_opts() };
    let mut node = open_node(fx, &opts, &wal_dir, &ckpt_dir);
    let mut deltas = 0;
    for (i, e) in fx.epochs.iter().enumerate() {
        let pick = picks[i % picks.len()] as usize;
        node.set_query_floor(if pick.is_multiple_of(4) {
            Timestamp::MAX
        } else {
            fx.epochs[i * pick / 256].max_commit_ts
        });
        let before = node.last_checkpoint_seq();
        node.ingest(e).unwrap();
        if node.last_checkpoint_seq() == before {
            continue;
        }
        deltas += usize::from(newest_is_delta(&ckpt_dir));
        let (ckpt, fallbacks) =
            CheckpointStore::open(&ckpt_dir, None).unwrap().load_latest().unwrap();
        let ckpt = ckpt.expect("the cut must be loadable");
        assert_eq!(fallbacks, 0);
        assert_eq!(ckpt.meta.next_epoch_seq, node.next_seq());
        assert!(
            chains(&ckpt.db) == chains(&full_snapshot_restore(node.db())),
            "barrier {}: base + deltas restored other chains than a full snapshot",
            node.next_seq()
        );
    }
    assert!(deltas > 0, "the run never cut a delta");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn tpcc_delta_chains_restore_what_a_full_snapshot_restores(
        cadence in 2u64..5,
        picks in prop::collection::vec(any::<u8>(), 1..16),
    ) {
        delta_chains_match_full_snapshots(tpcc_fixture(), cadence, &picks);
    }

    #[test]
    fn bustracker_delta_chains_restore_what_a_full_snapshot_restores(
        cadence in 2u64..5,
        picks in prop::collection::vec(any::<u8>(), 1..16),
    ) {
        delta_chains_match_full_snapshots(bustracker_fixture(), cadence, &picks);
    }
}

/// Crash-matrix seed 5: the crash instant lands at every filesystem
/// operation of the ingest that cuts the first *delta* — its WAL append,
/// the delta's tmp write / fsync / rename / dir fsync, retention and WAL
/// retirement. Right after the crash the previous restore point or the
/// new one loads with no fallback — never a torn chain — and the
/// restarted node converges to the oracle.
#[test]
fn crash_mid_delta_checkpoint() {
    let fx = tpcc_fixture();
    let opts = durable_opts();
    let (before, after, prev, new) = {
        let wal_dir = scratch("delta-probe-wal");
        let ckpt_dir = scratch("delta-probe-ckpt");
        let clock = CrashClock::unlimited();
        let mut node = DurableBackup::open(
            &wal_dir,
            &ckpt_dir,
            fresh_engine(&fx.grouping),
            fx.num_tables,
            opts.clone(),
            Some(clock.clone()),
        )
        .unwrap();
        let mut window = None;
        for e in &fx.epochs {
            let (pre, prev) = (clock.used(), node.last_checkpoint_seq());
            node.ingest(e).unwrap();
            if node.last_checkpoint_seq() != prev && newest_is_delta(&ckpt_dir) {
                window = Some((pre, clock.used(), prev, node.last_checkpoint_seq()));
                break;
            }
        }
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        window.expect("the cadence must cut a delta")
    };
    assert!(prev > 0, "a delta always has a parent");
    for budget in before + 1..=after {
        let wal_dir = scratch("mid-delta-wal");
        let ckpt_dir = scratch("mid-delta-ckpt");
        {
            let mut node = DurableBackup::open(
                &wal_dir,
                &ckpt_dir,
                fresh_engine(&fx.grouping),
                fx.num_tables,
                opts.clone(),
                Some(CrashClock::with_budget(budget)),
            )
            .unwrap();
            let crashed = fx.epochs.iter().any(|e| match node.ingest(e) {
                Ok(()) => false,
                Err(err) if err.is_crash() => true,
                Err(err) => panic!("budget {budget}: non-crash error {err}"),
            });
            assert!(crashed, "budget {budget} must crash inside the delta cut");
        }
        let (ckpt, fallbacks) =
            CheckpointStore::open(&ckpt_dir, None).unwrap().load_latest().unwrap();
        assert_eq!(fallbacks, 0, "budget {budget}: a torn manifest became visible");
        let restored = ckpt.expect("the previous restore point must survive").meta.next_epoch_seq;
        assert!(
            restored == prev || restored == new,
            "budget {budget}: restored {restored}, expected {prev} or {new}"
        );
        let out = supervised_run(fx, &opts, &wal_dir, &ckpt_dir, &[]);
        assert_eq!(out.digest, fx.oracle_digest, "budget {budget}: diverged from the oracle");
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
    }
}

/// Ingests the first `epochs` epochs of `fx`, then damages each kept
/// manifest in turn — on a copy of the directories — and requires every
/// restart to converge to the oracle of that prefix. Returns the kept
/// manifests.
fn corrupt_each_manifest_in_turn(fx: &Fixture, epochs: usize) -> Vec<ManifestInfo> {
    let opts = durable_opts();
    let wal_dir = scratch("corrupt-one-wal");
    let ckpt_dir = scratch("corrupt-one-ckpt");
    {
        let mut node = open_node(fx, &opts, &wal_dir, &ckpt_dir);
        for e in &fx.epochs[..epochs] {
            node.ingest(e).unwrap();
        }
    }
    let oracle = MemDb::new(fx.num_tables);
    SerialEngine.replay_all(&fx.epochs[..epochs], &oracle).unwrap();
    let want = oracle.digest_at(Timestamp::MAX);
    let manifests = CheckpointStore::open(&ckpt_dir, None).unwrap().catalog().unwrap();
    for victim in &manifests {
        let name = victim.path.file_name().unwrap();
        let wal = scratch("corrupt-one-wal-copy");
        let ckpt = scratch("corrupt-one-ckpt-copy");
        copy_dir(&wal_dir, &wal);
        copy_dir(&ckpt_dir, &ckpt);
        let mut raw = std::fs::read(ckpt.join(name)).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x20;
        std::fs::write(ckpt.join(name), &raw).unwrap();

        let node = open_node(fx, &opts, &wal, &ckpt);
        let kind = if victim.parent.is_some() { "delta" } else { "base" };
        assert_eq!(
            node.db().digest_at(Timestamp::MAX),
            want,
            "{epochs} epochs, corrupt {kind} {}: recovery diverged from the oracle",
            victim.seq
        );
        assert_eq!(node.next_seq(), epochs as u64);
        let _ = std::fs::remove_dir_all(&wal);
        let _ = std::fs::remove_dir_all(&ckpt);
    }
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    manifests
}

/// Crash-matrix seed 6: storage damages one manifest after the fact —
/// in turn every manifest retention kept, deltas and bases alike.
/// Recovery falls back past every restore point that needs the damaged
/// file, to one that does not, and still converges to the oracle. With
/// two chains on disk that is the older chain (retention keeps a
/// restore point off the newest base); with one, a corrupt base falls
/// back to a cold start, so the whole WAL must still be there.
#[test]
fn any_single_corrupt_manifest_recovers() {
    let fx = tpcc_fixture();
    let bases = |ms: &[ManifestInfo]| ms.iter().filter(|m| m.parent.is_none()).count();
    let deltas = |ms: &[ManifestInfo]| ms.len() - bases(ms);
    // Cadence 3: a base at 3 and its first delta at 6.
    let one = corrupt_each_manifest_in_turn(fx, 7);
    assert_eq!((bases(&one), deltas(&one)), (1, 1), "expected one chain: {one:?}");
    let two = corrupt_each_manifest_in_turn(fx, fx.epochs.len());
    assert!(deltas(&two) > 0, "retention kept no delta: {two:?}");
    assert!(bases(&two) >= 2, "retention kept a single base: {two:?}");
}

/// The full-vs-delta rule: the next cut is a delta on the previous
/// restore point while the deltas already written on its base total
/// less than the base, and a full snapshot otherwise.
#[test]
fn cut_is_a_delta_until_the_deltas_outweigh_the_base() {
    for fx in [tpcc_fixture(), bustracker_fixture()] {
        let opts = DurableOptions { checkpoint_every: 2, ..durable_opts() };
        let wal_dir = scratch("rule-wal");
        let ckpt_dir = scratch("rule-ckpt");
        let mut node = open_node(fx, &opts, &wal_dir, &ckpt_dir);
        let (mut deltas, mut rebased) = (0, 0);
        for e in &fx.epochs {
            let prev = node.last_checkpoint_seq();
            let store = CheckpointStore::open(&ckpt_dir, None).unwrap();
            let chain = store.chain_bytes(prev).unwrap();
            node.ingest(e).unwrap();
            if node.last_checkpoint_seq() == prev {
                continue;
            }
            let newest = store.catalog().unwrap().pop().unwrap();
            assert_eq!(newest.seq, node.last_checkpoint_seq());
            match chain {
                Some(c) if c.deltas < c.base => {
                    assert_eq!(
                        newest.parent.map(|p| p.seq),
                        Some(prev),
                        "deltas {} < base {}: the cut must be a delta on {prev}",
                        c.deltas,
                        c.base
                    );
                    deltas += 1;
                }
                _ => {
                    assert!(newest.parent.is_none(), "{chain:?}: the cut must be full");
                    rebased += usize::from(chain.is_some());
                }
            }
        }
        assert!(deltas > 0 && rebased > 0, "both branches of the rule must run");
        assert_eq!(node.db().digest_at(Timestamp::MAX), fx.oracle_digest);
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }
}
