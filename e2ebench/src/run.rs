//! One pass of a workload: ship → WAL → replay → serve, timed from the
//! outside, then restart recovery.
//!
//! Threads: the shipper (`ship_epochs`, the primary's side of the one
//! loopback connection) and the open-loop read client are the only load
//! threads; the ingest loop on the calling thread drives the node the
//! way its own supervisor would.

use crate::check;
use crate::stats::{us, Timed};
use crate::workload::{Def, Inputs, Read};
use aets_memtable::MemDb;
use aets_replay::{
    eval_spec, ingest_epoch, AetsConfig, AetsEngine, BackupNode, DurableBackup, DurableOptions,
    IngestStats, NodeOptions, QueryHandle, QueryOutput, ReadSession, ReplayMetrics, RetryPolicy,
    ServiceOptions, TableGrouping,
};
use aets_telemetry::{names, Telemetry};
use aets_transport::{ship_epochs, ReceiverConfig, ShipReceiver, ShipReport, ShipperConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Harvest interval of the client while results are outstanding: the
/// resolution of every read and scan latency.
const POLL: Duration = Duration::from_micros(200);

/// Traced passes re-execute every read but only every this-many-th scan.
const RESCAN_EVERY: usize = 8;

/// Restarts timed per pass; `recovery` is their median.
const RECOVERY_REPEATS: usize = 7;

/// Per-query deadline; a read past it counts as failed.
pub const QUERY_TIMEOUT: Duration = Duration::from_secs(10);

/// The run's state directory: inside the checkout, removed afterwards.
pub struct Dirs {
    root: PathBuf,
}

impl Dirs {
    pub fn new(base: &Path, tag: &str) -> Dirs {
        let root = base.join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        Dirs { root }
    }

    pub fn wal(&self) -> PathBuf {
        self.root.join("wal")
    }

    pub fn ckpt(&self) -> PathBuf {
        self.root.join("ckpt")
    }

    pub fn scratch(&self) -> PathBuf {
        self.root.join("isolated")
    }
}

impl Drop for Dirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// A node ready to receive: the durable backup and its receiver.
pub struct Node {
    pub backup: DurableBackup,
    pub receiver: ShipReceiver,
    pub tel: Arc<Telemetry>,
    pub dirs: Dirs,
}

fn engine(def: &Def, grouping: TableGrouping, tel: Option<Arc<Telemetry>>) -> AetsEngine {
    let mut b = AetsEngine::builder(grouping)
        .config(AetsConfig { threads: def.threads, ..Default::default() });
    if let Some(tel) = tel {
        b = b.telemetry(tel);
    }
    b.build().expect("engine config")
}

fn durable_options(def: &Def, inputs: &Inputs, controller: bool) -> DurableOptions {
    let mut service = ServiceOptions::builder();
    if let (true, Some(c)) = (controller, &inputs.controller) {
        service = service.controller(c.clone());
    }
    DurableOptions {
        checkpoint_every: def.checkpoint_every,
        segment: def.segment,
        service: service.build(),
        ..Default::default()
    }
}

/// Opens a cold node on fresh directories and binds its receiver.
pub fn open_node(def: &Def, inputs: &Inputs, dirs: Dirs) -> Result<Node, String> {
    let tel = Arc::new(Telemetry::new());
    let backup = DurableBackup::open(
        dirs.wal(),
        dirs.ckpt(),
        engine(def, inputs.grouping.clone(), Some(tel.clone())),
        inputs.num_tables,
        durable_options(def, inputs, true),
        None,
    )
    .map_err(|e| format!("open node: {e}"))?;
    let receiver = ShipReceiver::bind("127.0.0.1:0", ReceiverConfig::default(), tel.clone())
        .map_err(|e| format!("bind receiver: {e}"))?;
    Ok(Node { backup, receiver, tel, dirs })
}

/// One read or scan as served.
#[derive(Debug)]
pub struct ReadOut {
    pub idx: usize,
    pub qts: aets_common::Timestamp,
    pub timed: Timed,
    /// Served outputs, or why the read failed.
    pub outcome: Result<Vec<QueryOutput>, String>,
    /// Traced passes: time to re-execute the specs at `qts` on the node's
    /// memtable right after the result arrived (session still pinned).
    pub exec: Option<Duration>,
    /// Rows the re-execution visited, counted on the oracle after the run.
    pub rows: u64,
}

/// What one pass observed.
pub struct Pass {
    pub start: Instant,
    pub reads: Vec<ReadOut>,
    /// Per epoch: due instant and `ingest` return.
    pub epochs: Vec<Timed>,
    pub last_visible: Instant,
    /// Ingest-loop accounting.
    pub release_wait: Duration,
    pub release_late: Vec<Duration>,
    pub fetch: Duration,
    pub plain: Vec<Duration>,
    pub ckpt: Vec<Duration>,
    pub client_overhead: Duration,
    pub loop_wall: Duration,
    pub fsyncs: u64,
    pub wal_bytes: u64,
    pub ckpt_bytes: u64,
    pub ship: ShipReport,
    pub ship_wall: Duration,
    pub ship_late: Duration,
    pub metrics: ReplayMetrics,
    pub counters: BTreeMap<&'static str, u64>,
    pub inflight_max: usize,
    pub digest_ok: bool,
    pub recovery: Duration,
    pub suffix_epochs: u64,
    pub recovered_ok: bool,
}

/// Largest size seen per file: WAL segments only grow and checkpoint
/// files are written once, so the sum is the bytes the node wrote.
#[derive(Default)]
struct Written {
    sizes: BTreeMap<PathBuf, u64>,
}

impl Written {
    fn scan(&mut self, dir: &Path) {
        let Ok(rd) = std::fs::read_dir(dir) else { return };
        for entry in rd.flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                continue;
            }
            if let Ok(meta) = entry.metadata() {
                let size = self.sizes.entry(path).or_insert(0);
                *size = (*size).max(meta.len());
            }
        }
    }

    fn total(&self) -> u64 {
        self.sizes.values().sum()
    }
}

/// Runs one pass: ships and ingests the stream while the client reads,
/// checks the drained state, then restarts the node through recovery.
pub fn run_pass(
    def: &Def,
    inputs: &Inputs,
    oracle_digest: u64,
    node: Node,
    traced: bool,
) -> Result<Pass, String> {
    let Node { mut backup, mut receiver, tel, dirs } = node;
    let serving = backup
        .serve(NodeOptions {
            query_workers: def.query_workers,
            queue_depth: def.queue_depth,
            default_timeout: QUERY_TIMEOUT,
            ..Default::default()
        })
        .map_err(|e| format!("serve: {e}"))?;
    let addr = receiver.addr();
    let ship_tel = Telemetry::new();
    let n = inputs.epochs.len();
    let mut source = receiver.source();
    let retry = RetryPolicy { max_retries: 200, base_backoff_us: 200, max_backoff_us: 10_000 };
    let mut stats = IngestStats::default();
    let mut written = Written::default();
    // Recovery must rebuild the engine under the grouping of the newest
    // checkpoint, which a live regroup may have changed.
    let mut ckpt_grouping = inputs.grouping.clone();

    let start = Instant::now();
    let mut epochs = Vec::with_capacity(n);
    let (mut release_wait, mut fetch, mut client_overhead) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut plain, mut ckpt, mut release_late) = (Vec::new(), Vec::new(), Vec::new());
    let mut fsyncs = 0u64;

    let (ship, client, loop_wall) = std::thread::scope(|s| {
        let shipper = s.spawn(|| {
            let t = Instant::now();
            let r = ship_epochs(addr, &inputs.epochs, &ShipperConfig::default(), &ship_tel);
            (t.saturating_duration_since(start), t.elapsed(), r)
        });
        let client = s.spawn(|| client_loop(&serving, inputs, start, traced));

        let mut outcome = Ok(());
        for seq in 0..n {
            let due = start + inputs.epoch_due(seq);
            let t_wait = Instant::now();
            if t_wait < due {
                std::thread::sleep(due - t_wait);
            }
            let t0 = Instant::now();
            release_wait += t0 - t_wait;
            // Behind schedule the epoch was already buffered at its due
            // instant, so only an oversleep of the gate counts as late.
            release_late.push(if t_wait < due { t0 - due } else { Duration::ZERO });
            let epoch = match ingest_epoch(&mut source, seq as u64, &retry, &mut stats) {
                Ok(e) => e,
                Err(e) => {
                    outcome = Err(format!("epoch {seq} never arrived: {e}"));
                    break;
                }
            };
            let t1 = Instant::now();
            let (ck, synced) = (backup.last_checkpoint_seq(), backup.wal_synced_seq());
            if let Err(e) = backup.ingest(&epoch) {
                outcome = Err(format!("ingest of epoch {seq}: {e}"));
                break;
            }
            let t2 = Instant::now();
            fetch += t1 - t0;
            epochs.push(Timed { due, issued: t0, done: t2 });
            if backup.last_checkpoint_seq() != ck {
                ckpt.push(t2 - t1);
                written.scan(&dirs.wal());
                written.scan(&dirs.ckpt());
                ckpt_grouping = (*backup.engine().grouping()).clone();
            } else {
                plain.push(t2 - t1);
            }
            if backup.wal_synced_seq() != synced {
                fsyncs += 1;
            }
            client_overhead += t2.elapsed();
        }
        let loop_wall = start.elapsed();
        let client = client.join().expect("client thread");
        // A failed ingest loop leaves the shipper waiting on acks; closing
        // the receiver ends its session attempts.
        if outcome.is_err() {
            receiver.shutdown();
        }
        let ship = shipper.join().expect("shipper thread");
        outcome.map(|()| (ship, client, loop_wall))
    })?;
    let last_visible = epochs.last().map_or(start, |t| t.done);
    let (ship_late, ship_wall, ship) = ship;
    let ship = ship.map_err(|e| format!("shipping: {e}"))?;
    let (reads, inflight_max) = client;

    written.scan(&dirs.wal());
    written.scan(&dirs.ckpt());
    let wal_bytes: u64 =
        written.sizes.iter().filter(|(p, _)| p.starts_with(dirs.wal())).map(|(_, s)| s).sum();
    let ckpt_bytes = written.total() - wal_bytes;

    let digest_ok = backup.db().digest_at(aets_common::Timestamp::MAX) == oracle_digest;
    let metrics = backup.metrics().clone();
    let snap = tel.snapshot();
    let counters: BTreeMap<&'static str, u64> = [
        names::QUERIES_OVERLOADED,
        names::QUERIES_REFUSED_DEGRADED,
        names::QUERIES_TIMED_OUT,
        names::GC_PRUNED,
        names::ADAPT_REGROUPS,
        names::ADAPT_RESPLITS,
        names::ADAPT_REJECTED,
    ]
    .into_iter()
    .map(|name| (name, snap.counter_total(name)))
    .collect();
    drop(serving);
    receiver.shutdown();
    drop(backup);

    // Restart: restore the newest checkpoint and replay the WAL suffix.
    // Opening leaves the directories as they were (the suffix is shorter
    // than the checkpoint cadence, so no checkpoint is cut), so the
    // restart is repeated and its median taken.
    let mut recoveries = Vec::with_capacity(RECOVERY_REPEATS);
    let (mut suffix_epochs, mut recovered_ok) = (0, true);
    for _ in 0..RECOVERY_REPEATS {
        let t = Instant::now();
        let recovered = DurableBackup::open(
            dirs.wal(),
            dirs.ckpt(),
            engine(def, ckpt_grouping.clone(), None),
            inputs.num_tables,
            durable_options(def, inputs, false),
            None,
        )
        .map_err(|e| format!("recovery: {e}"))?;
        recoveries.push(t.elapsed().as_secs_f64());
        suffix_epochs = recovered.recovery().suffix_epochs;
        recovered_ok &= recovered.db().digest_at(aets_common::Timestamp::MAX) == oracle_digest;
    }
    let recovery = Duration::from_secs_f64(crate::stats::median(&recoveries));

    Ok(Pass {
        start,
        reads,
        epochs,
        last_visible,
        release_wait,
        release_late,
        fetch,
        plain,
        ckpt,
        client_overhead,
        loop_wall,
        fsyncs,
        wal_bytes,
        ckpt_bytes,
        ship,
        ship_wall,
        ship_late,
        metrics,
        counters,
        inflight_max,
        digest_ok,
        recovery,
        suffix_epochs,
        recovered_ok,
    })
}

/// A read whose specs are still in flight. The session keeps its `qts`
/// pinned against GC until the read is harvested.
struct Pending<'a> {
    idx: usize,
    session: ReadSession<'a>,
    due: Instant,
    issued: Instant,
    handles: Vec<Option<QueryHandle>>,
    outs: Vec<Option<QueryOutput>>,
    error: Option<String>,
}

impl Pending<'_> {
    /// Collects whatever has completed; true once every spec has.
    fn poll(&mut self) -> bool {
        for (h, out) in self.handles.iter_mut().zip(&mut self.outs) {
            if let Some(handle) = h {
                if let Some(res) = handle.try_wait() {
                    match res {
                        Ok(o) => *out = Some(o),
                        Err(e) => {
                            self.error.get_or_insert_with(|| e.to_string());
                        }
                    }
                    *h = None;
                }
            }
        }
        self.handles.iter().all(Option::is_none)
    }

    fn in_flight(&self) -> usize {
        self.handles.iter().filter(|h| h.is_some()).count()
    }
}

/// The open-loop client: issues every read and scan at its due instant
/// regardless of earlier results, and harvests results as they land.
fn client_loop(
    node: &BackupNode,
    inputs: &Inputs,
    start: Instant,
    traced: bool,
) -> (Vec<ReadOut>, usize) {
    let reads = &inputs.reads;
    let mut next = 0usize;
    let mut pending: Vec<Pending<'_>> = Vec::new();
    let mut out = Vec::with_capacity(reads.len());
    let mut inflight_max = 0usize;
    loop {
        let now = Instant::now();
        while next < reads.len() && start + reads[next].due <= now {
            pending.push(issue(node, &reads[next], next, start));
            next += 1;
        }
        inflight_max = inflight_max.max(pending.iter().map(Pending::in_flight).sum());
        let mut i = 0;
        while i < pending.len() {
            if pending[i].poll() {
                let p = pending.swap_remove(i);
                let read = &reads[p.idx];
                out.push(harvest(node, p, read, traced));
            } else {
                i += 1;
            }
        }
        let finished = next == reads.len();
        if finished && pending.is_empty() {
            break;
        }
        let wake = if finished { now + POLL } else { start + reads[next].due };
        let wake = if pending.is_empty() { wake } else { wake.min(now + POLL) };
        if let Some(d) = wake.checked_duration_since(Instant::now()) {
            std::thread::sleep(d);
        }
    }
    (out, inflight_max)
}

fn issue<'a>(node: &'a BackupNode, r: &Read, idx: usize, start: Instant) -> Pending<'a> {
    let issued = Instant::now();
    let qts = r.qts.unwrap_or_else(|| node.board().global_cmt_ts());
    let session = node.open_session(qts, &r.tables);
    let mut handles = Vec::with_capacity(r.specs.len());
    let mut error = None;
    for spec in &r.specs {
        match session.submit(spec.clone()) {
            Ok(h) => handles.push(Some(h)),
            Err(e) => {
                error = Some(e.to_string());
                break;
            }
        }
    }
    let outs = vec![None; r.specs.len()];
    Pending { idx, session, due: start + r.due, issued, handles, outs, error }
}

fn harvest(node: &BackupNode, p: Pending<'_>, r: &Read, traced: bool) -> ReadOut {
    let done = Instant::now();
    let qts = p.session.qts();
    let mut outcome: Result<Vec<QueryOutput>, String> = match p.error {
        Some(e) => Err(e),
        None => Ok(p.outs.into_iter().map(|o| o.expect("every spec answered")).collect()),
    };
    let mut exec = None;
    // Re-execute at the same snapshot while the session still pins it:
    // pure memtable time, no admission wait. Scans are sampled so the
    // traced pass does not double the scan load it measures.
    let sampled = !r.scan || p.idx.is_multiple_of(RESCAN_EVERY);
    if let (true, true, Ok(live)) = (traced, sampled, &outcome) {
        let t = Instant::now();
        let again: Vec<QueryOutput> =
            r.specs.iter().map(|s| eval_spec(node.db(), s, qts)).collect();
        exec = Some(t.elapsed());
        if let Err(e) = check::compare(live, &again) {
            outcome = Err(format!("re-execution differs from the live answer: {e}"));
        }
    }
    drop(p.session);
    ReadOut {
        idx: p.idx,
        qts,
        timed: Timed { due: p.due, issued: p.issued, done },
        outcome,
        exec,
        rows: 0,
    }
}

/// Checks every served answer against the oracle at its `qts`; returns
/// the number of wrong answers (a failed read is not re-checked). The
/// check runs after the pass, split over the box's cores.
pub fn check_answers(inputs: &Inputs, oracle: &MemDb, reads: &mut [ReadOut]) -> u64 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = reads.len().div_ceil(cores).max(1);
    std::thread::scope(|s| {
        let workers: Vec<_> = reads
            .chunks_mut(chunk)
            .map(|part| {
                s.spawn(|| part.iter_mut().map(|r| check_one(inputs, oracle, r)).sum::<u64>())
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("check thread")).sum()
    })
}

fn check_one(inputs: &Inputs, oracle: &MemDb, r: &mut ReadOut) -> u64 {
    let Ok(live) = &r.outcome else { return 0 };
    let specs = &inputs.reads[r.idx].specs;
    let want = check::oracle_answer(oracle, specs, r.qts);
    if let Err(e) = check::compare(live, &want) {
        r.outcome = Err(format!("wrong answer: {e}"));
        return 1;
    }
    if r.exec.is_some() {
        r.rows = specs.iter().map(|s| check::rows_visited(oracle, s, r.qts)).sum();
    }
    0
}

/// Isolated costs of the stream on fresh instances, away from the
/// running node: WAL appends into a new segment store under the same
/// policy, and engine-only replay of the whole stream.
pub struct Isolated {
    pub wal_append_per_epoch: Duration,
    pub replay_wall: Duration,
}

pub fn isolated(def: &Def, inputs: &Inputs, dir: &Path) -> Result<Isolated, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut wal = aets_wal::SegmentStore::open(dir, def.segment, None)
        .map_err(|e| format!("isolated WAL: {e}"))?;
    let t = Instant::now();
    for e in &inputs.epochs {
        wal.append(e).map_err(|e| format!("isolated append: {e}"))?;
    }
    wal.sync().map_err(|e| format!("isolated sync: {e}"))?;
    let wal_append_per_epoch = t.elapsed() / inputs.epochs.len() as u32;
    drop(wal);
    let _ = std::fs::remove_dir_all(dir);

    let eng = engine(def, inputs.grouping.clone(), None);
    let db = MemDb::new(inputs.num_tables);
    let t = Instant::now();
    aets_replay::ReplayEngine::replay_all(&eng, &inputs.epochs, &db)
        .map_err(|e| format!("isolated replay: {e}"))?;
    Ok(Isolated { wal_append_per_epoch, replay_wall: t.elapsed() })
}

pub fn mean_us(xs: &[Duration]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().map(|d| us(*d)).sum::<f64>() / xs.len() as f64
}
