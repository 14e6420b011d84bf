//! The three workloads: their fixed constants and the seeded inputs
//! each run is built from.
//!
//! Every rate here is a constant of its workload. None is derived from a
//! measured replay cost, so the offered load is the same on every commit
//! and a slower program shows up as lag, not as a lighter load.

use aets_common::{splitmix64, ColumnId, RowKey, TableId, Timestamp};
use aets_forecast::ForecastModel;
use aets_memtable::Aggregate;
use aets_replay::{ControllerConfig, QuerySpec, TableGrouping};
use aets_wal::{batch_into_epochs, encode_epoch, EncodedEpoch, FsyncPolicy, SegmentConfig};
use aets_workloads::bustracker::{self, BusTrackerConfig};
use aets_workloads::drift::{rotating_tpcc, RotatingTpccConfig};
use aets_workloads::tpcc::{self, tables, TpccConfig};
use aets_workloads::Workload;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// TPC-C released at a fixed commit rate; reads wait for admission.
    Fresh,
    /// Rotating-hotspot TPC-C at the same rate, adaptive controller on.
    Drift,
    /// A BusTracker backlog shipped as fast as the link takes it.
    Catchup,
}

/// One workload's fixed configuration. Both sides of any comparison run
/// these exact values.
#[derive(Debug, Clone)]
pub struct Def {
    pub name: &'static str,
    pub kind: Kind,
    /// Transactions per epoch.
    pub epoch_txns: usize,
    /// Replay worker threads (at most the 2 cores of the reference box).
    pub threads: usize,
    /// Checkpoint cadence in epochs.
    pub checkpoint_every: u64,
    /// WAL layout and flush policy.
    pub segment: SegmentConfig,
    /// Query worker threads and admission-queue capacity of the node.
    pub query_workers: usize,
    pub queue_depth: usize,
    /// Primary commit rate (txn/s) of the paced workloads; for the
    /// catch-up backlog, the primary rate its timestamps were stamped at.
    pub commit_rate: f64,
    /// Catch-up only: backlog transactions per second of `--seconds`.
    pub backlog_per_second: usize,
    /// Open-loop rates (per second) of the read and scan streams.
    pub read_rate: f64,
    pub scan_rate: f64,
}

/// Warehouses of both TPC-C workloads.
const WAREHOUSES: u32 = 4;

/// Samples due in this prefix of a run are checked but not timed.
pub const WARM: Duration = Duration::from_millis(500);

/// Coalesced group commit keeps the fsync count per epoch steady on a
/// shared disk; one fsync covers up to 8 epochs or 20 ms of appends.
const FLUSH: FsyncPolicy =
    FsyncPolicy::Coalesced { max_frames: 8, max_wait: Duration::from_millis(20) };

/// Every workload. The paced rates keep the node far from saturation,
/// so the host's varying CPU steal moves the figures little: at 500
/// txn/s an epoch falls due about every 128 ms, against ~6 ms of ingest.
/// A query worker parks in admission until its `qts` is visible, so the
/// paced pool exceeds the ~60–90 specs that wait for one flip; a smaller
/// pool queues every later read behind the next flip. Checkpoints every
/// 16 epochs give each run many stalls, so the p99s sit inside a
/// well-sampled stall population rather than on the edge of one stall.
pub fn all() -> [Def; 3] {
    let tpcc = Def {
        name: "tpcc_fresh",
        kind: Kind::Fresh,
        epoch_txns: 64,
        threads: 2,
        checkpoint_every: 16,
        segment: SegmentConfig { epochs_per_segment: 16, fsync: FLUSH },
        query_workers: 128,
        queue_depth: 2048,
        commit_rate: 500.0,
        backlog_per_second: 0,
        read_rate: 100.0,
        scan_rate: 50.0,
    };
    let drift = Def { name: "tpcc_drift", kind: Kind::Drift, ..tpcc.clone() };
    // Saturates the box by design, so its figures follow the host's
    // speed; it is run by hand, outside the gated set. One replay thread:
    // two that meet at every epoch barrier both stall when one vCPU is
    // stolen.
    let catchup = Def {
        name: "bustracker_catchup",
        kind: Kind::Catchup,
        epoch_txns: 128,
        threads: 1,
        checkpoint_every: 64,
        query_workers: 4,
        commit_rate: 10_000.0,
        backlog_per_second: 12_000,
        read_rate: 200.0,
        scan_rate: 200.0,
        ..tpcc.clone()
    };
    [tpcc, drift, catchup]
}

pub fn by_name(name: &str) -> Option<Def> {
    all().into_iter().find(|d| d.name == name)
}

/// One read or scan of the open-loop client.
#[derive(Debug, Clone)]
pub struct Read {
    /// Query class (the drift workload's rotation phase class).
    pub class: u32,
    /// Whether it belongs to the scan stream (else the read stream).
    pub scan: bool,
    /// Due instant as an offset from the run start.
    pub due: Duration,
    /// Snapshot: the primary-clock arrival, or `None` for the node's
    /// current `global_cmt_ts` at issue (never waits for admission).
    pub qts: Option<Timestamp>,
    pub tables: Vec<TableId>,
    pub specs: Vec<QuerySpec>,
}

/// Everything a run is built from, generated from the seed.
pub struct Inputs {
    pub epochs: Vec<EncodedEpoch>,
    /// Per epoch, its transactions' commit instants (primary clock).
    pub commits: Vec<Vec<Duration>>,
    pub num_tables: usize,
    pub grouping: TableGrouping,
    pub controller: Option<ControllerConfig>,
    /// Reads and scans, ascending by due instant.
    pub reads: Vec<Read>,
    pub entries: u64,
    pub log_bytes: u64,
    /// Whether epochs are released on the primary clock (else all are
    /// due at the start, as a backlog).
    pub paced: bool,
    /// Classes the initial plan did not make hot (drift only).
    pub rotated_classes: Vec<u32>,
}

impl Inputs {
    /// Due instant of epoch `i` as an offset from the run start: its
    /// last commit, or the start for a backlog.
    pub fn epoch_due(&self, i: usize) -> Duration {
        self.commit_due(i, self.commits[i].len() - 1)
    }

    /// Due instant of transaction `t` of epoch `i`: its commit, or the
    /// start for a backlog.
    pub fn commit_due(&self, i: usize, t: usize) -> Duration {
        if self.paced {
            self.commits[i][t]
        } else {
            Duration::ZERO
        }
    }
}

pub fn generate(def: &Def, seed: u64, seconds: f64) -> Inputs {
    match def.kind {
        Kind::Fresh | Kind::Drift => tpcc_inputs(def, seed, seconds),
        Kind::Catchup => catchup_inputs(def, seed, seconds),
    }
}

/// Encoded epochs, and each epoch's transaction commit instants as
/// offsets on the primary clock.
fn encode(w: &Workload, epoch_txns: usize) -> (Vec<EncodedEpoch>, Vec<Vec<Duration>>) {
    let raw = batch_into_epochs(w.txns.clone(), epoch_txns).expect("positive epoch size");
    let commits = raw
        .iter()
        .map(|e| e.txns.iter().map(|t| Duration::from_micros(t.commit_ts.as_micros())).collect())
        .collect();
    (raw.iter().map(encode_epoch).collect(), commits)
}

fn tpcc_inputs(def: &Def, seed: u64, seconds: f64) -> Inputs {
    let base = TpccConfig {
        seed,
        warehouses: WAREHOUSES,
        num_txns: (def.commit_rate * seconds) as usize,
        oltp_tps: def.commit_rate,
        olap_qps: def.read_rate,
    };
    let (w, grouping, controller, rotated_classes) = if def.kind == Kind::Drift {
        let w = rotating_tpcc(&RotatingTpccConfig { base, phases: 4, focus_share: 0.8 });
        let (grouping, controller) = drift_plan(w.num_tables(), def.threads);
        (w, grouping, Some(controller), vec![1, 2])
    } else {
        let w = tpcc::generate(&base);
        let (groups, rates) = tpcc::paper_grouping();
        let grouping = TableGrouping::new(w.num_tables(), groups, rates, &w.analytic_tables)
            .expect("paper grouping");
        (w, grouping, None, vec![])
    };
    let (epochs, commits) = encode(&w, def.epoch_txns);
    let horizon =
        Duration::from_micros(epochs.last().expect("non-empty").max_commit_ts.as_micros());
    let mut reads: Vec<Read> = w
        .queries
        .iter()
        .map(|q| Read {
            class: q.class,
            scan: false,
            due: Duration::from_micros(q.arrival.as_micros()),
            qts: Some(q.arrival),
            specs: q.tables.iter().map(|&t| tpcc_range(t, seed, q.id)).collect(),
            tables: q.tables.clone(),
        })
        .collect();
    // Each scan reads one district's order lines whole, cycling through
    // the districts, plus the two small tables. Like the reads, it waits
    // for its arrival to become visible, so its lag is admission plus a
    // larger memtable read rather than compute alone.
    reads.extend(fixed_rate(def.scan_rate, horizon).enumerate().map(|(i, due)| {
        let slot = (i % (WAREHOUSES as usize * 10)) as u64;
        Read {
            class: 0,
            scan: true,
            due,
            qts: Some(Timestamp::from_micros(due.as_micros() as u64)),
            specs: vec![
                QuerySpec::aggregate(tables::WAREHOUSE, ColumnId::new(0), Aggregate::Sum),
                QuerySpec::aggregate(tables::DISTRICT, ColumnId::new(1), Aggregate::Sum),
                QuerySpec::aggregate(tables::ORDER_LINE, ColumnId::new(2), Aggregate::Sum)
                    .keys(RowKey::new(slot << 36), RowKey::new(((slot + 1) << 36) - 1)),
            ],
            tables: vec![tables::WAREHOUSE, tables::DISTRICT, tables::ORDER_LINE],
        }
    }));
    reads.sort_by_key(|r| r.due);
    finish(w, (epochs, commits), grouping, controller, reads, true, rotated_classes)
}

/// The drift workload's starting point, as `examples/adaptive_bench.rs`
/// sets it up: only the phase-0 StockLevel tables are hot, and the live
/// controller re-plans from HA forecasts of the session access counts.
fn drift_plan(num_tables: usize, threads: usize) -> (TableGrouping, ControllerConfig) {
    let hot = [tables::DISTRICT, tables::ORDER_LINE, tables::STOCK];
    let grouping = TableGrouping::new(
        num_tables,
        vec![
            vec![tables::DISTRICT, tables::STOCK],
            vec![tables::ORDER_LINE],
            (0..num_tables as u32).map(TableId::new).filter(|t| !hot.contains(t)).collect(),
        ],
        vec![100.0, 200.0, 1.0],
        &hot.into_iter().collect(),
    )
    .expect("initial drift grouping");
    let controller = ControllerConfig {
        epoch_window: 8,
        min_history: 2,
        model: ForecastModel::Ha { window: 4 },
        threads,
        hot_min_rate: 0.5,
        ..Default::default()
    };
    (grouping, controller)
}

/// A bounded key-range aggregate over one TPC-C table, placed by a draw
/// from the seed. Key layouts follow `aets_workloads::tpcc`.
fn tpcc_range(table: TableId, seed: u64, read_id: u32) -> QuerySpec {
    let draw = splitmix64(seed ^ splitmix64(u64::from(read_id) << 8 | table.index() as u64));
    let w = draw % u64::from(WAREHOUSES);
    let d = (draw >> 8) % 10;
    let slot = w * 10 + d;
    let sum = |col: u16| QuerySpec::aggregate(table, ColumnId::new(col), Aggregate::Sum);
    let keys = |lo: u64, hi: u64| (RowKey::new(lo), RowKey::new(hi));
    let (spec, (lo, hi)) = match table {
        tables::WAREHOUSE => (sum(0), keys(0, u64::from(WAREHOUSES) - 1)),
        tables::DISTRICT => (sum(1), keys(w * 10, w * 10 + 9)),
        tables::CUSTOMER => {
            let c = (draw >> 16) % 2_900;
            (sum(0), keys(slot * 3_000 + c, slot * 3_000 + c + 99))
        }
        tables::HISTORY => {
            let h = (draw >> 16) % 4_000;
            (sum(1), keys(h, h + 99))
        }
        tables::ORDERS => (sum(2), keys(slot << 32 | 1, slot << 32 | 64)),
        tables::ORDER_LINE => (sum(2), keys((slot << 32 | 1) << 4, (slot << 32 | 64) << 4 | 15)),
        tables::STOCK => {
            let i = (draw >> 16) % 2_000;
            (sum(0), keys(w * 100_000 + i, w * 100_000 + i + 255))
        }
        _ => (QuerySpec::count(table), keys(0, 1_023)),
    };
    spec.keys(lo, hi)
}

fn catchup_inputs(def: &Def, seed: u64, seconds: f64) -> Inputs {
    let w = bustracker::generate(&BusTrackerConfig {
        seed,
        num_txns: (def.backlog_per_second as f64 * seconds) as usize,
        oltp_tps: def.commit_rate,
        ..Default::default()
    });
    let n = w.num_tables();
    let grouping = TableGrouping::dbscan(
        n,
        &w.analytic_tables,
        |t| bustracker::access_rate(t.index(), 0),
        0.3,
    )
    .expect("BusTracker grouping");
    let epochs = encode(&w, def.epoch_txns);
    let hot: Vec<TableId> = (0..bustracker::NUM_HOT as u32).map(TableId::new).collect();
    // Both streams run for the whole window, however fast the backlog
    // drains, so their sample counts do not depend on replay speed.
    let window = Duration::from_secs_f64(seconds);
    // Each scan reads one hot table whole, cycling through all of them.
    let mut reads: Vec<Read> = fixed_rate(def.scan_rate, window)
        .enumerate()
        .map(|(i, due)| {
            let t = hot[i % hot.len()];
            Read {
                class: 0,
                scan: true,
                due,
                qts: None,
                specs: vec![QuerySpec::aggregate(t, ColumnId::new(1), Aggregate::Sum)],
                tables: vec![t],
            }
        })
        .collect();
    reads.extend(fixed_rate(def.read_rate, window).enumerate().map(|(i, due)| {
        let draw = splitmix64(seed ^ splitmix64(i as u64));
        let t = hot[(draw % hot.len() as u64) as usize];
        let k = (draw >> 16) % (5_000 - READ_ROWS);
        Read {
            class: 0,
            scan: false,
            due,
            qts: None,
            specs: vec![QuerySpec::aggregate(t, ColumnId::new(0), Aggregate::Sum)
                .keys(RowKey::new(k), RowKey::new(k + READ_ROWS - 1))],
            tables: vec![t],
        }
    }));
    reads.sort_by_key(|r| r.due);
    finish(w, epochs, grouping, None, reads, false, vec![])
}

/// Key span of a catch-up read: two fifths of a hot table's working set.
const READ_ROWS: u64 = 2_048;

fn fixed_rate(rate: f64, horizon: Duration) -> impl Iterator<Item = Duration> {
    let gap = Duration::from_secs_f64(1.0 / rate);
    (1..).map(move |i| gap * i).take_while(move |d| *d <= horizon)
}

fn finish(
    w: Workload,
    (epochs, commits): (Vec<EncodedEpoch>, Vec<Vec<Duration>>),
    grouping: TableGrouping,
    controller: Option<ControllerConfig>,
    reads: Vec<Read>,
    paced: bool,
    rotated_classes: Vec<u32>,
) -> Inputs {
    Inputs {
        entries: w.total_entries() as u64,
        log_bytes: epochs.iter().map(|e| e.bytes.len() as u64).sum(),
        num_tables: w.num_tables(),
        epochs,
        commits,
        grouping,
        controller,
        reads,
        paced,
        rotated_classes,
    }
}
