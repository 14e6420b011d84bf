//! Network chaos suite: framed log shipping over real loopback TCP
//! through a seeded fault-injecting proxy, proven against the serial
//! oracle.
//!
//! The contract under test, per seeded schedule:
//!
//! 1. **Oracle equivalence** — the durable backup fed by the network
//!    receiver matches the serial oracle's digest at the visibility
//!    watermark *mid-chaos* (while the proxy disconnects, partitions,
//!    corrupts, truncates, delays, duplicates, and stalls the stream)
//!    and equals it exactly after drain.
//! 2. **Exactly-once ingest** — reconnect resyncs re-ship the in-flight
//!    window, yet no duplicate, gap, or corrupted epoch ever reaches the
//!    consumer: receiver-side CRC + sequence dedup turn at-least-once
//!    delivery into exactly-once ingest.
//! 3. **Monotone watermark** — `global_cmt_ts` never regresses across
//!    reconnects.
//! 4. **Trace reproducibility** — a JSONL trace captured from the
//!    net-delivered stream replays (in every mode) to the same final
//!    watermark and byte-identical query results.
//!
//! Seeds are pinned for CI reproducibility (the `net-chaos` job runs one
//! per lane); set `AETS_NET_SEED=<u64>` to replay a single seed.

use aets_suite::common::{TableId, Timestamp};
use aets_suite::memtable::MemDb;
use aets_suite::replay::{
    ingest_epoch, AetsConfig, AetsEngine, DurableBackup, DurableOptions, IngestStats, QuerySpec,
    ReplayEngine, RetryPolicy, SerialEngine, TableGrouping,
};
use aets_suite::telemetry::{names, Telemetry};
use aets_suite::transport::{
    ship_epochs, EngineSink, FaultProxy, NetFaultPlan, ReceiverConfig, ReplayMode, ShipReceiver,
    ShipReport, ShipperConfig, TraceRecorder, TraceReplayer, TraceSink,
};
use aets_suite::wal::{batch_into_epochs, encode_epoch, EncodedEpoch, EpochSource};
use aets_suite::workloads::tpcc::{self, TpccConfig};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Per-seed liveness budget: a stream that has not drained by then is a
/// wedged transport, not bad luck.
const DRAIN_BUDGET: Duration = Duration::from_secs(120);

struct Fixture {
    epochs: Vec<EncodedEpoch>,
    grouping: TableGrouping,
    oracle: MemDb,
    target: Timestamp,
    num_tables: usize,
}

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let w = tpcc::generate(&TpccConfig { num_txns: 600, warehouses: 2, ..Default::default() });
        let num_tables = w.num_tables();
        let (groups, rates) = tpcc::paper_grouping();
        let grouping = TableGrouping::new(num_tables, groups, rates, &w.analytic_tables).unwrap();
        let epochs: Vec<EncodedEpoch> =
            batch_into_epochs(w.txns.clone(), 32).unwrap().iter().map(encode_epoch).collect();
        let oracle = MemDb::new(num_tables);
        SerialEngine.replay_all(&epochs, &oracle).unwrap();
        let target = epochs.last().unwrap().max_commit_ts;
        Fixture { epochs, grouping, oracle, target, num_tables }
    })
}

fn scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("aets-net-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One full chaos run under `seed`: primary ships through the faulty
/// proxy, the durable backup ingests from the network receiver, and the
/// oracle digest is checked both mid-chaos and after drain. Returns the
/// shipper's wire report so the driver can confirm the schedule bit.
fn chaos_run(seed: u64) -> ShipReport {
    let fx = fixture();
    let total = fx.epochs.len() as u64;

    // Receiving endpoint. Short fetch timeout so the consumer loop comes
    // up for air (and runs its mid-chaos checks) frequently.
    let tel_rx = Arc::new(Telemetry::new());
    let mut receiver = ShipReceiver::bind(
        "127.0.0.1:0",
        ReceiverConfig { fetch_timeout: Duration::from_millis(50), ..Default::default() },
        tel_rx.clone(),
    )
    .unwrap();

    // The chaos proxy sits between shipper and receiver.
    let mut proxy =
        FaultProxy::start(receiver.addr(), NetFaultPlan::new(seed, 0.03)).expect("start proxy");
    let proxy_addr = proxy.addr();

    // Primary side: ship the whole stream through the proxy; blocks until
    // the receiver's durable floor covers the stream. The result lands in
    // a shared slot so the consumer loop can fail fast on a shipper
    // error instead of spinning to its deadline.
    let epochs = fx.epochs.clone();
    let tel_tx = Arc::new(Telemetry::new());
    let ship_tel = tel_tx.clone();
    let ship_done: Arc<std::sync::Mutex<Option<aets_suite::common::Result<ShipReport>>>> =
        Arc::new(std::sync::Mutex::new(None));
    let ship_slot = ship_done.clone();
    let shipper = std::thread::spawn(move || {
        let r = ship_epochs(
            proxy_addr,
            &epochs,
            &ShipperConfig { window: 8, ..Default::default() },
            &ship_tel,
        );
        *ship_slot.lock().unwrap() = Some(r);
    });

    // Backup side: a durable node pulling from the network source.
    let engine = AetsEngine::builder(fx.grouping.clone())
        .config(AetsConfig { threads: 2, ..Default::default() })
        .build()
        .unwrap();
    let opts = DurableOptions { checkpoint_every: 16, ..Default::default() };
    let mut node = DurableBackup::open(
        scratch(&format!("wal-{seed:x}")),
        scratch(&format!("ckpt-{seed:x}")),
        engine,
        fx.num_tables,
        opts,
        None,
    )
    .unwrap();
    let mut source = receiver.source();

    // Small retry budget: a stalled feed surfaces quickly so the loop can
    // run its mid-chaos oracle checks between drains.
    let retry = RetryPolicy { max_retries: 2, base_backoff_us: 100, max_backoff_us: 1_000 };
    let deadline = Instant::now() + DRAIN_BUDGET;
    let mut prev_wm = Timestamp::ZERO;
    while node.next_seq() < total {
        assert!(
            Instant::now() < deadline,
            "seed {seed:#x}: stream wedged at epoch {}/{total}",
            node.next_seq()
        );
        if let Some(Err(e)) = ship_done.lock().unwrap().as_ref() {
            panic!("seed {seed:#x}: shipper gave up at epoch {}/{total}: {e}", node.next_seq());
        }
        // Stall errors are the feed being mid-reconnect; everything
        // ingested before the stall is already durable. Real corruption
        // can never surface here (the receiver never admits it) and the
        // post-drain metrics assert exactly that.
        let _ = node.ingest_from(&mut source, &retry);

        // Monotone watermark across reconnects/resyncs.
        let wm = node.board().global_cmt_ts();
        assert!(wm >= prev_wm, "seed {seed:#x}: watermark regressed {prev_wm:?} -> {wm:?}");
        prev_wm = wm;

        // Mid-chaos oracle equivalence at the current watermark.
        if wm > Timestamp::ZERO {
            assert_eq!(
                node.db().digest_at(wm),
                fx.oracle.digest_at(wm),
                "seed {seed:#x}: mid-chaos state diverged from oracle at {wm:?}"
            );
        }
    }

    // Post-drain: exact oracle equivalence at the stream head.
    assert_eq!(node.board().global_cmt_ts(), fx.target, "seed {seed:#x}: watermark short of head");
    assert_eq!(
        node.db().digest_at(Timestamp::MAX),
        fx.oracle.digest_at(Timestamp::MAX),
        "seed {seed:#x}: drained state diverged from oracle"
    );
    assert!(node.db().all_chains_ordered());

    // Exactly-once: every epoch was appended durably exactly once, and no
    // gap or corrupted frame ever reached the consumer.
    let m = node.metrics();
    assert_eq!(m.wal_epochs_appended, total, "seed {seed:#x}: duplicate or missing WAL appends");
    assert_eq!(m.checksum_failures, 0, "seed {seed:#x}: corruption leaked past the receiver");
    assert_eq!(m.epoch_gaps, 0, "seed {seed:#x}: out-of-order delivery leaked past the receiver");

    shipper.join().expect("shipper panicked");
    let report =
        ship_done.lock().unwrap().take().expect("shipper finished").expect("shipping failed");
    assert_eq!(report.epochs, total);

    // The sender's own telemetry agrees with its report.
    let snap = tel_tx.snapshot();
    assert_eq!(snap.counter_total(names::NET_CONNECTS), report.connects);
    assert_eq!(snap.counter_total(names::NET_RECONNECTS), report.reconnects);
    assert_eq!(snap.counter_total(names::NET_RESYNCS), report.resyncs);
    assert!(snap.counter_total(names::NET_BYTES_SENT) >= report.bytes_sent);

    receiver.shutdown();
    proxy.shutdown();
    report
}

fn run_seed(seed: u64) {
    let report = chaos_run(seed);
    // Lane log line (visible with --nocapture / in the CI lane output).
    eprintln!("seed {seed:#x}: {report:?}");
    assert!(report.reconnects > 0, "seed {seed:#x} never broke the connection; pick another seed");
    assert!(
        report.frames_sent >= report.epochs,
        "resyncs re-ship, so frames can only meet or exceed the run length"
    );
}

// The three pinned CI lanes (see .github/workflows/ci.yml, `net-chaos`).
// `AETS_NET_SEED=<u64>` overrides all of them for bisecting a failure.

fn seed_override() -> Option<u64> {
    std::env::var("AETS_NET_SEED").ok().and_then(|s| s.parse().ok())
}

#[test]
fn survives_seeded_chaos_lane_1() {
    run_seed(seed_override().unwrap_or(0xA5EED1));
}

#[test]
fn survives_seeded_chaos_lane_2() {
    run_seed(seed_override().unwrap_or(0xB5EED2));
}

#[test]
fn survives_seeded_chaos_lane_3() {
    run_seed(seed_override().unwrap_or(0xC5EED3));
}

#[test]
fn clean_link_ships_without_reconnects() {
    // Control lane: no proxy, direct loopback. One connect, no resyncs,
    // and the same oracle-equivalent end state — proves the recovery
    // machinery is inert when nothing fails.
    let fx = fixture();
    let total = fx.epochs.len() as u64;
    let tel = Arc::new(Telemetry::new());
    let mut receiver =
        ShipReceiver::bind("127.0.0.1:0", ReceiverConfig::default(), tel.clone()).unwrap();
    let addr = receiver.addr();
    let epochs = fx.epochs.clone();
    let ship_tel = Arc::new(Telemetry::new());
    let t = ship_tel.clone();
    let shipper =
        std::thread::spawn(move || ship_epochs(addr, &epochs, &ShipperConfig::default(), &t));

    let engine = AetsEngine::builder(fx.grouping.clone())
        .config(AetsConfig { threads: 2, ..Default::default() })
        .build()
        .unwrap();
    let mut node = DurableBackup::open(
        scratch("clean-wal"),
        scratch("clean-ckpt"),
        engine,
        fx.num_tables,
        DurableOptions::default(),
        None,
    )
    .unwrap();
    let mut source = receiver.source();
    let retry = RetryPolicy { max_retries: 20, base_backoff_us: 100, max_backoff_us: 5_000 };
    let deadline = Instant::now() + DRAIN_BUDGET;
    while node.next_seq() < total {
        assert!(Instant::now() < deadline, "clean link wedged");
        let _ = node.ingest_from(&mut source, &retry);
    }
    let report = shipper.join().unwrap().unwrap();
    assert_eq!(report.connects, 1, "a healthy link needs exactly one session");
    assert_eq!(report.reconnects, 0);
    assert_eq!(report.resyncs, 0);
    assert_eq!(report.frames_sent, total, "no re-ships on a healthy link");
    assert_eq!(node.db().digest_at(Timestamp::MAX), fx.oracle.digest_at(Timestamp::MAX));
    receiver.shutdown();
}

#[test]
fn paced_consumer_slower_than_the_idle_timeout_keeps_its_session() {
    // A shipper whose window is full waits silently for acks, and acks
    // only advance as the consumer fetches. A consumer pacing itself
    // slower than the receiver's idle timeout must not make that silence
    // look like a dead peer: one session, nothing re-shipped.
    let epochs: Vec<EncodedEpoch> = fixture().epochs[..10].to_vec();
    let idle = Duration::from_millis(100);
    let mut receiver = ShipReceiver::bind(
        "127.0.0.1:0",
        ReceiverConfig { conn_idle_timeout: idle, ..Default::default() },
        Arc::new(Telemetry::new()),
    )
    .unwrap();
    let addr = receiver.addr();
    let shipped = epochs.clone();
    let shipper = std::thread::spawn(move || {
        let cfg = ShipperConfig { window: 2, ..Default::default() };
        ship_epochs(addr, &shipped, &cfg, &Telemetry::new())
    });
    let mut source = receiver.source();
    let deadline = Instant::now() + DRAIN_BUDGET;
    for e in &epochs {
        std::thread::sleep(idle * 3 / 2);
        let got = loop {
            assert!(Instant::now() < deadline, "paced consumer wedged");
            if let Some(got) = source.fetch(e.id.raw(), 0) {
                break got;
            }
        };
        assert_eq!(got.id, e.id);
    }
    let report = shipper.join().unwrap().unwrap();
    assert_eq!(report.reconnects, 0, "a waiting shipper was torn down as idle");
    assert_eq!(report.frames_sent, epochs.len() as u64, "frames were re-shipped");
    receiver.shutdown();
}

#[test]
fn restarted_backup_resumes_mid_stream_without_reingest() {
    // Ship the first half, tear everything down, restart the backup from
    // its own durable state, and resume shipping the full stream: the
    // handshake's durable floor must skip everything already ingested.
    let fx = fixture();
    let total = fx.epochs.len() as u64;
    let half = total / 2;
    let wal = scratch("resume-wal");
    let ckpt = scratch("resume-ckpt");
    let retry = RetryPolicy { max_retries: 20, base_backoff_us: 100, max_backoff_us: 5_000 };

    let engine = |fx: &Fixture| {
        AetsEngine::builder(fx.grouping.clone())
            .config(AetsConfig { threads: 2, ..Default::default() })
            .build()
            .unwrap()
    };

    // Phase 1: ship the first half and ingest it durably.
    {
        let tel = Arc::new(Telemetry::new());
        let mut receiver =
            ShipReceiver::bind("127.0.0.1:0", ReceiverConfig::default(), tel).unwrap();
        let addr = receiver.addr();
        let first: Vec<EncodedEpoch> = fx.epochs[..half as usize].to_vec();
        let t = Arc::new(Telemetry::new());
        let tt = t.clone();
        let shipper =
            std::thread::spawn(move || ship_epochs(addr, &first, &ShipperConfig::default(), &tt));
        let mut node = DurableBackup::open(
            wal.clone(),
            ckpt.clone(),
            engine(fx),
            fx.num_tables,
            DurableOptions::default(),
            None,
        )
        .unwrap();
        let mut source = receiver.source();
        let deadline = Instant::now() + DRAIN_BUDGET;
        while node.next_seq() < half {
            assert!(Instant::now() < deadline, "first half wedged");
            let _ = node.ingest_from(&mut source, &retry);
        }
        shipper.join().unwrap().unwrap();
        receiver.shutdown();
    }

    // Phase 2: restart; the receiver announces the restored durable floor
    // and the shipper's resync must skip the already-ingested prefix.
    let mut node =
        DurableBackup::open(wal, ckpt, engine(fx), fx.num_tables, DurableOptions::default(), None)
            .unwrap();
    assert_eq!(node.next_seq(), half, "restart must recover the ingested prefix");
    let tel = Arc::new(Telemetry::new());
    let mut receiver = ShipReceiver::bind(
        "127.0.0.1:0",
        ReceiverConfig { initial_floor: Some(half - 1), ..Default::default() },
        tel,
    )
    .unwrap();
    let addr = receiver.addr();
    let all = fx.epochs.clone();
    let t = Arc::new(Telemetry::new());
    let tt = t.clone();
    let shipper =
        std::thread::spawn(move || ship_epochs(addr, &all, &ShipperConfig::default(), &tt));
    let mut source = receiver.source();
    let deadline = Instant::now() + DRAIN_BUDGET;
    while node.next_seq() < total {
        assert!(Instant::now() < deadline, "resumed half wedged");
        let _ = node.ingest_from(&mut source, &retry);
    }
    let report = shipper.join().unwrap().unwrap();
    assert_eq!(
        report.frames_sent,
        total - half,
        "the resume handshake must skip the already-durable prefix"
    );
    assert_eq!(node.metrics().wal_epochs_appended, total - half, "no re-ingest after restart");
    assert_eq!(node.db().digest_at(Timestamp::MAX), fx.oracle.digest_at(Timestamp::MAX));
    receiver.shutdown();
}

#[test]
fn chaos_spans_reconstruct_the_causal_chain_for_a_single_epoch_id() {
    // The tracing acceptance lane: under seeded chaos (the link breaks
    // and resyncs mid-stream), the sender's and receiver's span rings
    // merged on one epoch id must still close the full causal chain —
    // ship -> net_recv -> wal_append -> dispatch -> translate -> commit
    // -> visibility flip -> first admitted query — with no span ever
    // referencing a missing parent, and the receiver-side chain must be
    // reconstructable live from the node's `/spans.json` endpoint.
    use aets_suite::replay::{NodeOptions, QueryTarget, ServiceOptions};
    use aets_suite::telemetry::trace::{first_orphan, stages};
    use aets_suite::telemetry::{http_get, Span};

    let fx = fixture();
    let total = fx.epochs.len() as u64;
    let seed = seed_override().unwrap_or(0xA5EED1);

    let tel_rx = Arc::new(Telemetry::new());
    let mut receiver = ShipReceiver::bind(
        "127.0.0.1:0",
        ReceiverConfig { fetch_timeout: Duration::from_millis(50), ..Default::default() },
        tel_rx.clone(),
    )
    .unwrap();
    let mut proxy =
        FaultProxy::start(receiver.addr(), NetFaultPlan::new(seed, 0.03)).expect("start proxy");
    let proxy_addr = proxy.addr();
    let epochs = fx.epochs.clone();
    let tel_tx = Arc::new(Telemetry::new());
    let tt = tel_tx.clone();
    let shipper = std::thread::spawn(move || {
        ship_epochs(proxy_addr, &epochs, &ShipperConfig { window: 8, ..Default::default() }, &tt)
    });

    // The backup engine shares the receiver's telemetry, so net_recv,
    // WAL, replay, flip, and query spans all land in one scrapeable ring.
    let engine = AetsEngine::builder(fx.grouping.clone())
        .config(AetsConfig { threads: 2, ..Default::default() })
        .telemetry(tel_rx.clone())
        .build()
        .unwrap();
    let mut node = DurableBackup::open(
        scratch("span-wal"),
        scratch("span-ckpt"),
        engine,
        fx.num_tables,
        DurableOptions::default(),
        None,
    )
    .unwrap();
    let mut source = receiver.source();
    let retry = RetryPolicy { max_retries: 2, base_backoff_us: 100, max_backoff_us: 1_000 };
    let deadline = Instant::now() + DRAIN_BUDGET;
    while node.next_seq() < total {
        assert!(Instant::now() < deadline, "seed {seed:#x}: stream wedged");
        let _ = node.ingest_from(&mut source, &retry);
    }
    let report = shipper.join().unwrap().expect("shipping failed");
    assert!(report.reconnects > 0, "this lane must exercise reconnect/resync paths");
    receiver.shutdown();
    proxy.shutdown();

    // First admitted query after drain: its spans attach to the most
    // recently committed epoch — the probe epoch of the chain below.
    let probe = total - 1;
    assert_eq!(tel_rx.spans().epoch_hint(), Some(probe), "epoch hint tracks the commit");
    let serving = node
        .serve(NodeOptions {
            service: ServiceOptions::builder().obs_addr("127.0.0.1:0").build(),
            ..Default::default()
        })
        .unwrap();
    // Generic-surface read: the served count must equal the serial
    // oracle's answer through the same `QueryTarget` call.
    let got = serving.query_one(fx.target, QuerySpec::count(TableId::new(0))).unwrap();
    assert_eq!(got, fx.oracle.query_one(fx.target, QuerySpec::count(TableId::new(0))).unwrap());

    // Spans survived the chaos: every epoch was admitted exactly once, so
    // every epoch id carries exactly one receive span, and the merged
    // sender + receiver rings are orphan-free.
    let mut merged: Vec<Span> = Vec::new();
    for seq in 0..total {
        let rx = tel_rx.spans().for_epoch(seq);
        let tx = tel_tx.spans().for_epoch(seq);
        assert_eq!(
            rx.iter().filter(|s| s.stage == stages::NET_RECV).count(),
            1,
            "seed {seed:#x}: epoch {seq} must be received exactly once"
        );
        assert!(
            tx.iter().any(|s| s.stage == stages::NET_SHIP),
            "seed {seed:#x}: epoch {seq} lost its ship span"
        );
        merged.extend(tx);
        merged.extend(rx);
    }
    if let Some(orphan) = first_orphan(&merged) {
        panic!("seed {seed:#x}: span references a missing parent: {orphan:?}");
    }

    // The two endpoints' rings join on the shipped span id: the receive
    // span is recorded under the id the sender announced on the wire.
    let probe_spans: Vec<&Span> = merged.iter().filter(|s| s.epoch == probe).collect();
    let recv = probe_spans.iter().find(|s| s.stage == stages::NET_RECV).unwrap();
    assert!(
        probe_spans.iter().any(|s| s.stage == stages::NET_SHIP && s.id == recv.id),
        "seed {seed:#x}: receiver's span id must match the sender's shipped id"
    );

    // The complete lifecycle is present for the single probe epoch id.
    for stage in [
        stages::NET_SHIP,
        stages::NET_RECV,
        stages::WAL_APPEND,
        stages::DISPATCH,
        stages::TRANSLATE,
        stages::COMMIT_WAIT,
        stages::APPLY,
        stages::FLIP_GROUP,
        stages::FLIP_GLOBAL,
        stages::QUERY_ADMISSION,
        stages::QUERY_EXEC,
    ] {
        assert!(
            probe_spans.iter().any(|s| s.stage == stage),
            "seed {seed:#x}: epoch {probe} chain is missing its {stage} span"
        );
    }

    // And the same receiver-side chain is live over HTTP: one epoch id
    // against /spans.json reconstructs ship-arrival through first query.
    let (status, body) =
        http_get(serving.obs_addr().unwrap(), &format!("/spans.json?epoch={probe}"))
            .expect("GET /spans.json");
    assert!(status.contains("200"), "spans endpoint status {status}");
    for stage in [
        "net_recv",
        "wal_append",
        "dispatch",
        "translate",
        "commit_wait",
        "apply",
        "flip_group",
        "flip_global",
        "query_admission",
        "query_exec",
    ] {
        assert!(
            body.contains(&format!("\"stage\": \"{stage}\"")),
            "/spans.json?epoch={probe} is missing the {stage} stage"
        );
    }
}

#[test]
fn net_delivered_stream_traces_and_replays_byte_identically() {
    // The acceptance lane: capture a JSONL trace of the net-delivered
    // stream (epochs + live query results), then replay it into a fresh
    // sink in every mode; the final watermark and every rendered query
    // result must reproduce byte for byte.
    let fx = fixture();
    let total = fx.epochs.len() as u64;
    let tel = Arc::new(Telemetry::new());
    let mut receiver = ShipReceiver::bind("127.0.0.1:0", ReceiverConfig::default(), tel).unwrap();
    let addr = receiver.addr();
    let epochs = fx.epochs.clone();
    let t = Arc::new(Telemetry::new());
    let tt = t.clone();
    let shipper =
        std::thread::spawn(move || ship_epochs(addr, &epochs, &ShipperConfig::default(), &tt));

    let dir = scratch("trace");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("net.trace.jsonl");
    let mut recorder = TraceRecorder::create(&path).unwrap();
    let mut sink = EngineSink::new(fx.num_tables);
    let mut source = receiver.source();
    let retry = RetryPolicy { max_retries: 20, base_backoff_us: 100, max_backoff_us: 5_000 };
    for seq in 0..total {
        let mut stats = IngestStats::default();
        let epoch = ingest_epoch(&mut source, seq, &retry, &mut stats).expect("net delivery");
        sink.ingest(&epoch).unwrap();
        recorder.record_epoch(seq, &epoch).unwrap();
        if seq % 2 == 1 {
            // A live analytical probe at the current watermark, recorded
            // with its result.
            let qts = Timestamp::from_micros(sink.global_cmt_ts_us());
            let spec = QuerySpec::count(TableId::new((seq % fx.num_tables as u64) as u32));
            let out = sink.query(qts, spec.table, spec.key_range, &spec.output).unwrap();
            recorder.record_query(seq, qts, &spec, &out).unwrap();
        }
    }
    let recorded_wm = recorder.finish().unwrap();
    assert_eq!(recorded_wm, fx.target.as_micros());
    shipper.join().unwrap().unwrap();
    receiver.shutdown();

    let replayer = TraceReplayer::open(&path).unwrap();
    for mode in [
        ReplayMode::Sequential,
        ReplayMode::Paced { time_scale: 1_000.0 },
        ReplayMode::AsFastAsPossible,
    ] {
        let mut fresh = EngineSink::new(fx.num_tables);
        let report = replayer.run(mode, &mut fresh).unwrap();
        assert_eq!(report.epochs, total);
        assert!(report.reproduced(), "{mode:?} replay diverged: {:?}", report.mismatches.first());
        assert_eq!(report.final_global_cmt_ts_us, fx.target.as_micros());
        assert_eq!(
            fresh.db().digest_at(Timestamp::MAX),
            fx.oracle.digest_at(Timestamp::MAX),
            "{mode:?} replayed state diverged from oracle"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
