//! Cross-crate integration: every parallel replay engine must converge to
//! exactly the serial oracle's MVCC state, on every workload, at every
//! snapshot.

use aets_suite::common::{FxHashSet, GroupId, TableId, Timestamp};
use aets_suite::memtable::MemDb;
use aets_suite::replay::{
    AetsConfig, AetsEngine, AtrEngine, C5Engine, ReplayEngine, SerialEngine, TableGrouping,
    VisibilityBoard,
};
use aets_suite::wal::{batch_into_epochs, crc32, crc32_scalar, encode_epoch, EncodedEpoch};
use aets_suite::workloads::{bustracker, chbench, tpcc, Workload};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

fn encode(w: &Workload, epoch_size: usize) -> Vec<EncodedEpoch> {
    batch_into_epochs(w.txns.clone(), epoch_size).unwrap().iter().map(encode_epoch).collect()
}

fn engines_for(w: &Workload) -> Vec<Box<dyn ReplayEngine>> {
    let n = w.num_tables();
    let hot = w.analytic_tables.clone();
    let written: FxHashSet<TableId> = w.written_tables();
    let per_table =
        TableGrouping::per_table(n, &hot, |t| if written.contains(&t) { 50.0 } else { 1.0 });
    vec![
        Box::new(
            AetsEngine::builder(per_table)
                .config(AetsConfig { threads: 3, ..Default::default() })
                .build()
                .unwrap(),
        ),
        Box::new(AetsEngine::tplr_baseline(3, n, &hot).unwrap()),
        Box::new(AtrEngine::new(3).unwrap()),
        Box::new(C5Engine::new(3).unwrap()),
    ]
}

fn check_workload(w: Workload, epoch_size: usize) {
    let epochs = encode(&w, epoch_size);
    let n = w.num_tables();
    let oracle = MemDb::new(n);
    SerialEngine.replay_all(&epochs, &oracle).unwrap();

    // Snapshot timestamps to compare: start, several interior, end.
    let probes: Vec<Timestamp> = {
        let mut v = vec![Timestamp::ZERO, Timestamp::MAX];
        for frac in [4usize, 2, 4 * 3 / 4] {
            let idx = (w.txns.len() / 4 * frac / 4).min(w.txns.len() - 1);
            v.push(w.txns[idx].commit_ts);
        }
        v
    };
    let want: Vec<u64> = probes.iter().map(|ts| oracle.digest_at(*ts)).collect();

    for engine in engines_for(&w) {
        let db = MemDb::new(n);
        let m = engine.replay_all(&epochs, &db).unwrap();
        assert_eq!(m.txns, w.txns.len(), "{} txn count", engine.name());
        assert!(db.all_chains_ordered(), "{} version order", engine.name());
        assert_eq!(db.total_versions(), oracle.total_versions(), "{} version count", engine.name());
        for (ts, expect) in probes.iter().zip(&want) {
            assert_eq!(db.digest_at(*ts), *expect, "{} snapshot at {ts} diverged", engine.name());
        }
    }
}

#[test]
fn tpcc_all_engines_match_oracle() {
    let w =
        tpcc::generate(&tpcc::TpccConfig { num_txns: 2_000, warehouses: 2, ..Default::default() });
    check_workload(w, 512);
}

#[test]
fn bustracker_all_engines_match_oracle() {
    let w = bustracker::generate(&bustracker::BusTrackerConfig {
        num_txns: 2_000,
        ..Default::default()
    });
    check_workload(w, 256);
}

#[test]
fn chbench_all_engines_match_oracle() {
    let w = chbench::generate(&tpcc::TpccConfig {
        num_txns: 2_000,
        warehouses: 2,
        ..Default::default()
    });
    check_workload(w, 700); // deliberately not a power of two
}

#[test]
fn tiny_epochs_still_converge() {
    let w =
        tpcc::generate(&tpcc::TpccConfig { num_txns: 300, warehouses: 2, ..Default::default() });
    check_workload(w, 7);
}

/// Replays `epochs` through `eng` in consecutive `replay` calls of
/// `per_call` epochs each; returns the transactions replayed.
fn replay_in_calls(
    eng: &AetsEngine,
    epochs: &[EncodedEpoch],
    per_call: usize,
    db: &MemDb,
    board: &VisibilityBoard,
) -> usize {
    epochs.chunks(per_call).map(|chunk| eng.replay(chunk, db, board).unwrap().txns).sum()
}

/// The pipelined datapath (dispatcher thread + bounded channel) must be
/// invisible in the final MVCC state: however the stream is cut into
/// `replay` calls — one epoch each (the realtime runner's shape), two, or
/// the whole stream at once — AETS converges to the serial oracle on both
/// TPC-C and BusTracker streams.
#[test]
fn pipelined_aets_matches_oracle_on_tpcc_and_bustracker() {
    let workloads = [
        tpcc::generate(&tpcc::TpccConfig { num_txns: 1_200, warehouses: 2, ..Default::default() }),
        bustracker::generate(&bustracker::BusTrackerConfig {
            num_txns: 1_200,
            ..Default::default()
        }),
    ];
    for w in workloads {
        let epochs = encode(&w, 200);
        let n = w.num_tables();
        let oracle = MemDb::new(n);
        SerialEngine.replay_all(&epochs, &oracle).unwrap();
        let want = oracle.digest_at(Timestamp::MAX);
        let mid = w.txns[w.txns.len() / 2].commit_ts;
        let want_mid = oracle.digest_at(mid);

        let written: FxHashSet<TableId> = w.written_tables();
        for per_call in [1, 2, epochs.len()] {
            let grouping = TableGrouping::per_table(n, &w.analytic_tables, |t| {
                if written.contains(&t) {
                    50.0
                } else {
                    1.0
                }
            });
            let eng = AetsEngine::builder(grouping)
                .config(AetsConfig { threads: 3, ..Default::default() })
                .build()
                .unwrap();
            let db = MemDb::new(n);
            let board = VisibilityBoard::builder(eng.board_groups()).build();
            let txns = replay_in_calls(&eng, &epochs, per_call, &db, &board);
            assert_eq!(txns, w.txns.len(), "per_call={per_call} txn count");
            assert!(db.all_chains_ordered(), "per_call={per_call} version order");
            assert_eq!(db.digest_at(Timestamp::MAX), want, "per_call={per_call} final state");
            assert_eq!(db.digest_at(mid), want_mid, "per_call={per_call} mid snapshot");
        }
    }
}

/// The lock-free SPSC commit queues inside AETS must be linearizable:
/// under heavy producer/consumer contention (more worker threads than
/// cores see groups, single-digit epochs, any cut into `replay` calls)
/// the committed MVCC state must still be byte-identical to the serial
/// oracle's at every probed snapshot. The schedule is pinned by a seed so a CI
/// failure replays exactly; override with `AETS_TEST_SEED=<u64>`.
#[test]
fn spsc_commit_queues_linearize_under_contention() {
    let seed: u64 =
        std::env::var("AETS_TEST_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0x5E1F);
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    let mut rng = seed;
    for round in 0..6 {
        // Seed-derived shapes: small epochs maximize queue churn, thread
        // counts above the group count force workers to contend on the
        // same group's producer side.
        let num_txns = 400 + (splitmix(&mut rng) % 400) as usize;
        let epoch_size = 1 + (splitmix(&mut rng) % 24) as usize;
        let threads = 2 + (splitmix(&mut rng) % 6) as usize;
        let per_call_pick = (splitmix(&mut rng) % 3) as usize;
        let w = tpcc::generate(&tpcc::TpccConfig { num_txns, warehouses: 2, ..Default::default() });
        let epochs = encode(&w, epoch_size);
        let n = w.num_tables();
        let oracle = MemDb::new(n);
        SerialEngine.replay_all(&epochs, &oracle).unwrap();
        let want = oracle.digest_at(Timestamp::MAX);
        let mid = w.txns[w.txns.len() / 2].commit_ts;
        let want_mid = oracle.digest_at(mid);
        let per_call = [1, 2, epochs.len()][per_call_pick];

        let k = 1 + (splitmix(&mut rng) % 4) as usize;
        let grouping = round_robin_grouping(n, k.min(n), &w.analytic_tables);
        let eng = AetsEngine::builder(grouping)
            .config(AetsConfig { threads, ..Default::default() })
            .build()
            .unwrap();
        let db = MemDb::new(n);
        let board = VisibilityBoard::builder(eng.board_groups()).build();
        let txns = replay_in_calls(&eng, &epochs, per_call, &db, &board);
        let tag = format!(
            "seed={seed:#x} round={round} txns={num_txns} epoch={epoch_size} \
             threads={threads} per_call={per_call} groups={k}"
        );
        assert_eq!(txns, w.txns.len(), "{tag}: txn count");
        assert!(db.all_chains_ordered(), "{tag}: version order");
        assert_eq!(db.digest_at(Timestamp::MAX), want, "{tag}: final state");
        assert_eq!(db.digest_at(mid), want_mid, "{tag}: mid snapshot");
    }
}

/// Round-robins `n` tables into `k` groups with synthetic rates.
fn round_robin_grouping(n: usize, k: usize, hot: &FxHashSet<TableId>) -> TableGrouping {
    let mut groups: Vec<Vec<TableId>> = vec![Vec::new(); k];
    for t in 0..n as u32 {
        groups[t as usize % k].push(TableId::new(t));
    }
    let rates: Vec<f64> = (0..k).map(|i| 1.0 + i as f64).collect();
    TableGrouping::new(n, groups, rates, hot).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The slice-by-8 CRC kernel on the ingest hot path must be a drop-in
    /// for the bytewise reference: identical digests on arbitrary byte
    /// strings, including lengths that leave a non-8-aligned head/tail.
    #[test]
    fn crc_slice_by_8_matches_bytewise_reference(bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
        prop_assert_eq!(crc32(&bytes), crc32_scalar(&bytes));
    }
}

/// Deterministic CRC edge cases the proptest could miss in a short run:
/// empty input, every sub-word length straddling the 8-byte step, and
/// misaligned views into a larger buffer.
#[test]
fn crc_kernels_agree_on_empty_and_unaligned_inputs() {
    assert_eq!(crc32(&[]), crc32_scalar(&[]));
    let buf: Vec<u8> = (0..257u32).map(|i| (i.wrapping_mul(131).wrapping_add(7)) as u8).collect();
    for len in 0..=buf.len() {
        assert_eq!(crc32(&buf[..len]), crc32_scalar(&buf[..len]), "prefix len {len}");
    }
    for start in 1..16 {
        let view = &buf[start..];
        assert_eq!(crc32(view), crc32_scalar(view), "offset {start}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Epoch-barrier invariant under randomized epoch sizes, group
    /// counts, and cuts of the stream into `replay` calls (one epoch,
    /// two, or all per call): while replay runs, `global_cmt_ts`
    /// and every `tg_cmt_ts` only ever advance, and no group's published
    /// watermark drops below the global one — the global mark only moves
    /// once an epoch is fully replayed, so a group observed behind it
    /// would mean epoch `e+1` work committed before epoch `e` finished.
    #[test]
    fn epoch_barrier_holds_under_randomized_shapes(
        num_txns in 50usize..250,
        epoch_size in 1usize..64,
        num_groups in 1usize..5,
        per_call_pick in 0usize..3,
    ) {
        let w = tpcc::generate(&tpcc::TpccConfig {
            num_txns,
            warehouses: 2,
            ..Default::default()
        });
        let epochs = encode(&w, epoch_size);
        let n = w.num_tables();
        let grouping = round_robin_grouping(n, num_groups.min(n), &w.analytic_tables);
        let ng = grouping.num_groups();
        let eng = AetsEngine::builder(grouping).config(AetsConfig { threads: 2, ..Default::default() }).build()
        .unwrap();
        let per_call = [1, 2, epochs.len()][per_call_pick];

        let db = MemDb::new(n);
        let board = VisibilityBoard::builder(ng).build();
        let stop = AtomicBool::new(false);
        let violation = std::thread::scope(|scope| {
            // Concurrent observer: samples the board while replay runs.
            // Reading the global mark *before* the group marks makes the
            // barrier check race-free — both only ever advance, so a
            // stale group read can only over-report lag, never hide it.
            let observer = scope.spawn(|| {
                let mut last_global = Timestamp::ZERO;
                let mut last_tg = vec![Timestamp::ZERO; ng];
                while !stop.load(Ordering::Acquire) {
                    let global = board.global_cmt_ts();
                    if global < last_global {
                        return Some(format!("global regressed: {last_global} -> {global}"));
                    }
                    last_global = global;
                    for g in 0..ng as u32 {
                        let tg = board.tg_cmt_ts(GroupId::new(g));
                        if tg < last_tg[g as usize] {
                            return Some(format!("group {g} regressed"));
                        }
                        last_tg[g as usize] = tg;
                        if tg < global {
                            return Some(format!(
                                "barrier violated: group {g} at {tg} behind global {global}"
                            ));
                        }
                    }
                    std::thread::yield_now();
                }
                None
            });
            let txns = replay_in_calls(&eng, &epochs, per_call, &db, &board);
            stop.store(true, Ordering::Release);
            prop_assert_eq!(txns, w.txns.len());
            observer.join().expect("observer panicked")
        });
        prop_assert!(violation.is_none(), "{}", violation.unwrap_or_default());

        // After replay every watermark sits at the last epoch's high-water
        // mark, and the state matches the serial oracle.
        let last = epochs.last().unwrap().max_commit_ts;
        prop_assert_eq!(board.global_cmt_ts(), last);
        for g in 0..ng as u32 {
            prop_assert!(board.tg_cmt_ts(GroupId::new(g)) >= last);
        }
        let oracle = MemDb::new(n);
        SerialEngine.replay_all(&epochs, &oracle).unwrap();
        prop_assert!(db.all_chains_ordered());
        prop_assert_eq!(db.digest_at(Timestamp::MAX), oracle.digest_at(Timestamp::MAX));
        let mid = w.txns[w.txns.len() / 2].commit_ts;
        prop_assert_eq!(db.digest_at(mid), oracle.digest_at(mid));
    }
}
