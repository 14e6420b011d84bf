//! Real-time HTAP runner for the threaded engines.
//!
//! A thin client of the query-serving [`BackupNode`]: the runner builds a
//! node around the engine, releases epochs according to the replication
//! timeline (an epoch only becomes available after its last transaction
//! committed on the primary, plus network latency), and issues each
//! analytical query at its arrival timestamp through a pinned
//! [`crate::service::ReadSession`], blocking on Algorithm 3 until its
//! data is visible. Measured per-query waits are *wall-clock* visibility
//! delays on the real engine — the hardware-independent counterpart lives
//! in `aets-simulator`.

use crate::engines::ReplayEngine;
use crate::metrics::ReplayMetrics;
use crate::service::{BackupNode, NodeOptions};
use aets_common::{Error, Result, TableId, Timestamp};
use aets_memtable::MemDb;
use aets_wal::EncodedEpoch;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One analytical query to serve during the run.
#[derive(Debug, Clone)]
pub struct RunnerQuery {
    /// Arrival timestamp `qts` on the primary clock.
    pub arrival: Timestamp,
    /// Tables the query reads.
    pub tables: Vec<TableId>,
}

/// The paced input of a real-time run: the epoch stream with its
/// replication-timeline arrivals, plus the analytical query mix.
#[derive(Debug, Clone, Copy, Default)]
pub struct Workload<'a> {
    /// Encoded epochs, in commit order.
    pub epochs: &'a [EncodedEpoch],
    /// Replication-timeline arrival of each epoch (`epochs[k]` is released
    /// to the engine at wall time `arrivals[k] / time_scale`).
    pub arrivals: &'a [Timestamp],
    /// Analytical queries, issued at their own arrival timestamps.
    pub queries: &'a [RunnerQuery],
}

/// Result of one real-time run.
#[derive(Debug)]
pub struct RunnerOutcome {
    /// Replay engine metrics.
    pub metrics: ReplayMetrics,
    /// Wall-clock visibility delay per query, in the order submitted.
    pub delays: Vec<Duration>,
    /// Queries that timed out waiting for visibility (or were refused
    /// because their data sits behind a quarantined group's frozen
    /// watermark).
    pub timed_out: usize,
    /// Prometheus-text telemetry snapshots taken every
    /// [`RunnerConfig::telemetry_every`] epochs (empty when the cadence is
    /// `0` or the engine carries no enabled telemetry).
    pub telemetry_snapshots: Vec<String>,
    /// The snapshot rendered at the moment the run entered degraded mode
    /// (first group quarantined) — the flight recorder for postmortems.
    pub degraded_snapshot: Option<String>,
}

impl RunnerOutcome {
    /// Mean visibility delay.
    pub fn mean_delay(&self) -> Duration {
        if self.delays.is_empty() {
            Duration::ZERO
        } else {
            self.delays.iter().sum::<Duration>() / self.delays.len() as u32
        }
    }

    /// Whether the run ended degraded: at least one group was quarantined
    /// and its visibility watermark frozen. Queries over a quarantined
    /// group show up in `timed_out` rather than reading inconsistent data.
    pub fn degraded(&self) -> bool {
        self.metrics.degraded()
    }
}

/// Configuration of a real-time run.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Compresses primary time: a primary microsecond takes
    /// `1 / time_scale` wall microseconds (e.g. `10.0` replays a
    /// 10-second log in one second).
    pub time_scale: f64,
    /// Per-query visibility timeout.
    pub query_timeout: Duration,
    /// Run a version-chain GC pass after every `gc_every` released epochs
    /// (`0` disables GC). The pass prunes at [`BackupNode::gc_watermark`]:
    /// the oldest open session's `qts` (queries still to arrive count —
    /// they will read at their arrival snapshot), the global commit
    /// high-water mark, and any quarantined group's frozen `tg_cmt_ts`
    /// all clamp the watermark.
    pub gc_every: usize,
    /// Render a telemetry exposition snapshot after every
    /// `telemetry_every` released epochs into
    /// [`RunnerOutcome::telemetry_snapshots`] (`0` disables the cadence).
    /// Has effect only when the engine carries an enabled telemetry
    /// instance (built via `AetsEngine::builder().telemetry(..)`).
    pub telemetry_every: usize,
    /// Worker threads of the node's query pool (the runner's own
    /// visibility waits run on the issuing threads, so the pool only
    /// serves explicitly submitted [`crate::service::QuerySpec`]s).
    pub query_workers: usize,
    /// Admission-queue depth of the node.
    pub queue_depth: usize,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        Self {
            time_scale: 1.0,
            query_timeout: Duration::from_secs(30),
            gc_every: 64,
            telemetry_every: 0,
            query_workers: 2,
            queue_depth: 64,
        }
    }
}

/// Runs `engine` against the paced [`Workload`] while serving its queries.
///
/// Epoch `k` is released to the engine at wall time
/// `arrival_k / time_scale` after the run starts, where `arrival_k` is the
/// epoch's replication-timeline arrival. Queries are issued the same way:
/// each holds a pinned read session from the start of the run (it will
/// read at its arrival snapshot, so GC must not prune past it), sleeps to
/// its arrival instant, then blocks on Algorithm 3 admission.
pub fn run_realtime(
    engine: Arc<dyn ReplayEngine>,
    db: Arc<MemDb>,
    workload: &Workload<'_>,
    cfg: &RunnerConfig,
) -> Result<RunnerOutcome> {
    let Workload { epochs, arrivals, queries } = *workload;
    if epochs.len() != arrivals.len() {
        return Err(Error::Config("one arrival per epoch required".into()));
    }
    if cfg.time_scale <= 0.0 {
        return Err(Error::Config("time_scale must be positive".into()));
    }
    let start = Instant::now();
    let telemetry = engine.telemetry_handle().filter(|t| t.is_enabled());
    // Freshness clock: map wall time back onto the primary clock through
    // the pacing compression, so the recorded visibility lag
    // (`now − primary_commit_ts`) is in primary microseconds regardless
    // of `time_scale`.
    let time_scale = cfg.time_scale;
    let clock: aets_telemetry::ClockFn =
        Arc::new(move || (start.elapsed().as_secs_f64() * time_scale * 1e6) as u64);
    let node = BackupNode::builder()
        .engine(engine.clone())
        .db(db.clone())
        .clock(clock)
        .options(NodeOptions {
            query_workers: cfg.query_workers,
            queue_depth: cfg.queue_depth,
            default_timeout: cfg.query_timeout,
            ..Default::default()
        })
        .build()?;
    let to_wall =
        |ts: Timestamp| -> Duration { Duration::from_secs_f64(ts.as_secs_f64() / cfg.time_scale) };

    // Pin every query's snapshot before the stream starts: a session's
    // RAII floor pin is what keeps GC from pruning past a query that has
    // not arrived yet.
    let sessions: Vec<_> =
        queries.iter().map(|q| node.open_session(q.arrival, &q.tables)).collect();

    std::thread::scope(|scope| -> Result<RunnerOutcome> {
        // Query threads: sleep until arrival, then block on Algorithm 3
        // on their own thread (pure visibility delay, no queueing noise).
        let mut waiters = Vec::with_capacity(queries.len());
        for (q, session) in queries.iter().zip(sessions) {
            let offset = to_wall(q.arrival);
            let timeout = cfg.query_timeout;
            waiters.push(scope.spawn(move || {
                let target = start + offset;
                if let Some(sleep) = target.checked_duration_since(Instant::now()) {
                    std::thread::sleep(sleep);
                }
                // Dropping the session here (end of scope) releases the
                // GC floor pin the moment the query completes.
                session.wait_admitted(timeout)
            }));
        }

        // Feeder + replay on this thread: release epochs one at a time at
        // their arrival instants and replay each as it lands (the engine
        // processes epochs strictly in order anyway).
        let mut metrics = ReplayMetrics { engine: engine.name(), ..Default::default() };
        let mut telemetry_snapshots = Vec::new();
        let mut degraded_snapshot: Option<String> = None;
        for (eidx, (epoch, arrival)) in epochs.iter().zip(arrivals).enumerate() {
            let target = start + to_wall(*arrival);
            if let Some(sleep) = target.checked_duration_since(Instant::now()) {
                std::thread::sleep(sleep);
            }
            let m = node.replay(std::slice::from_ref(epoch))?;
            // Quarantine state is cumulative on the engine; the latest
            // epoch's snapshot is the union of everything poisoned so far.
            metrics.absorb(&m);

            if cfg.gc_every > 0 && (eidx + 1) % cfg.gc_every == 0 {
                let pass = node.gc();
                metrics.gc.merge(pass);
                metrics.gc_passes += 1;
            }

            if let Some(tel) = &telemetry {
                // Flight recorder: dump the full exposition at the moment
                // the run first turns degraded, while the registry still
                // reflects the healthy-to-degraded transition.
                if degraded_snapshot.is_none() && metrics.degraded() {
                    degraded_snapshot = Some(tel.snapshot().render_prometheus());
                }
                if cfg.telemetry_every > 0 && (eidx + 1) % cfg.telemetry_every == 0 {
                    telemetry_snapshots.push(tel.snapshot().render_prometheus());
                }
            }
        }
        metrics.wall = start.elapsed();

        let mut delays = Vec::with_capacity(waiters.len());
        let mut timed_out = 0usize;
        for w in waiters {
            match w.join().map_err(|_| Error::Replay("query thread panicked".into()))? {
                Ok(delay) => delays.push(delay),
                Err(Error::QueryTimeout | Error::Degraded) => timed_out += 1,
                Err(e) => return Err(e),
            }
        }
        Ok(RunnerOutcome { metrics, delays, timed_out, telemetry_snapshots, degraded_snapshot })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::aets::{AetsConfig, AetsEngine};
    use crate::grouping::TableGrouping;
    use aets_wal::{batch_into_epochs, encode_epoch, ReplicationTimeline};
    use aets_workloads::tpcc::{self, TpccConfig};

    fn setup(
        num_txns: usize,
    ) -> (aets_workloads::Workload, Vec<EncodedEpoch>, Vec<Timestamp>, Arc<dyn ReplayEngine>) {
        let w = tpcc::generate(&TpccConfig {
            num_txns,
            warehouses: 2,
            oltp_tps: 20_000.0,
            ..Default::default()
        });
        let raw = batch_into_epochs(w.txns.clone(), 256).unwrap();
        let tl = ReplicationTimeline::default();
        let arrivals = tl.arrivals(&raw);
        let epochs: Vec<_> = raw.iter().map(encode_epoch).collect();
        let (groups, rates) = tpcc::paper_grouping();
        let grouping =
            TableGrouping::new(w.num_tables(), groups, rates, &w.analytic_tables).unwrap();
        let engine = AetsEngine::builder(grouping)
            .config(AetsConfig { threads: 2, ..Default::default() })
            .build()
            .unwrap();
        (w, epochs, arrivals, Arc::new(engine))
    }

    #[test]
    fn realtime_run_serves_all_queries() {
        let (w, epochs, arrivals, engine) = setup(1_000);
        let db = Arc::new(MemDb::new(w.num_tables()));
        let queries: Vec<RunnerQuery> = w
            .queries
            .iter()
            .take(10)
            .map(|q| RunnerQuery { arrival: q.arrival, tables: q.tables.clone() })
            .collect();
        let outcome = run_realtime(
            engine,
            db.clone(),
            &Workload { epochs: &epochs, arrivals: &arrivals, queries: &queries },
            &RunnerConfig { time_scale: 20.0, ..Default::default() },
        )
        .unwrap();
        assert_eq!(outcome.metrics.txns, w.txns.len());
        assert_eq!(outcome.timed_out, 0, "no query may time out");
        assert_eq!(outcome.delays.len(), queries.len());
        assert!(outcome.mean_delay() < Duration::from_secs(5));
        assert!(db.all_chains_ordered());
    }

    #[test]
    fn pacing_spreads_replay_over_the_timeline() {
        let (w, epochs, arrivals, engine) = setup(600);
        let db = Arc::new(MemDb::new(w.num_tables()));
        // 10x compression: a ~30ms primary window takes >= ~3ms wall.
        let cfg = RunnerConfig { time_scale: 10.0, ..Default::default() };
        let expected_min = Duration::from_secs_f64(arrivals.last().unwrap().as_secs_f64() / 10.0);
        let outcome = run_realtime(
            engine,
            db,
            &Workload { epochs: &epochs, arrivals: &arrivals, queries: &[] },
            &cfg,
        )
        .unwrap();
        assert!(
            outcome.metrics.wall >= expected_min,
            "run finished before the last epoch could arrive: {:?} < {:?}",
            outcome.metrics.wall,
            expected_min
        );
        assert_eq!(outcome.metrics.txns, w.txns.len());
    }

    #[test]
    fn periodic_gc_prunes_and_surfaces_stats() {
        let (w, epochs, arrivals, engine) = setup(2_000);
        let db = Arc::new(MemDb::new(w.num_tables()));
        let cfg = RunnerConfig { time_scale: 50.0, gc_every: 2, ..Default::default() };
        let outcome = run_realtime(
            engine,
            db.clone(),
            &Workload { epochs: &epochs, arrivals: &arrivals, queries: &[] },
            &cfg,
        )
        .unwrap();
        assert_eq!(outcome.metrics.gc_passes as usize, epochs.len() / 2);
        assert!(outcome.metrics.gc.nodes > 0, "GC passes must visit chains");
        assert!(outcome.metrics.gc.pruned > 0, "hot TPC-C rows must shed versions");
        assert_eq!(outcome.metrics.txns, w.txns.len());
        assert!(db.all_chains_ordered());
    }

    #[test]
    fn pending_queries_hold_the_gc_floor() {
        // A query with a very early arrival completes immediately, but
        // while any query is outstanding the floor equals the minimum
        // live qts — exercised here end-to-end by running GC with an
        // active query set and checking reads at the query snapshot
        // still succeed afterwards.
        let (w, epochs, arrivals, engine) = setup(1_000);
        let db = Arc::new(MemDb::new(w.num_tables()));
        let q_arrival = epochs[0].max_commit_ts;
        let queries = vec![RunnerQuery { arrival: q_arrival, tables: vec![TableId::new(0)] }];
        let cfg = RunnerConfig { time_scale: 50.0, gc_every: 1, ..Default::default() };
        let outcome = run_realtime(
            engine,
            db.clone(),
            &Workload { epochs: &epochs, arrivals: &arrivals, queries: &queries },
            &cfg,
        )
        .unwrap();
        assert_eq!(outcome.timed_out, 0);
        assert!(outcome.metrics.gc_passes as usize >= epochs.len());
        assert!(db.all_chains_ordered());
    }

    #[test]
    fn telemetry_cadence_renders_parseable_snapshots() {
        use aets_telemetry::{names, parse_exposition, Telemetry};
        let (w, epochs, arrivals, _) = setup(1_000);
        let (groups, rates) = tpcc::paper_grouping();
        let grouping =
            TableGrouping::new(w.num_tables(), groups, rates, &w.analytic_tables).unwrap();
        let tel = Arc::new(Telemetry::new());
        let engine = AetsEngine::builder(grouping)
            .config(AetsConfig { threads: 2, ..Default::default() })
            .telemetry(tel.clone())
            .build()
            .unwrap();
        let db = Arc::new(MemDb::new(w.num_tables()));
        let cfg = RunnerConfig { time_scale: 50.0, telemetry_every: 2, ..Default::default() };
        let outcome = run_realtime(
            Arc::new(engine),
            db,
            &Workload { epochs: &epochs, arrivals: &arrivals, queries: &[] },
            &cfg,
        )
        .unwrap();
        assert_eq!(outcome.telemetry_snapshots.len(), epochs.len() / 2);
        assert!(outcome.degraded_snapshot.is_none(), "healthy run");
        for text in &outcome.telemetry_snapshots {
            parse_exposition(text).expect("snapshot must parse");
        }
        // The registry integrated exactly what the per-call metrics sum to.
        let snap = tel.snapshot();
        assert_eq!(snap.counter_total(names::TXNS) as usize, outcome.metrics.txns);
        assert_eq!(snap.counter_total(names::EPOCHS) as usize, outcome.metrics.epochs);
        // Freshness: the paced run recorded a visibility-lag sample per
        // group publish, on the primary clock.
        let lag = snap.histogram_summary_all(names::VISIBILITY_LAG_US).expect("lag histogram");
        assert!(lag.count > 0, "publishes must record freshness");
        // Epoch lifecycle events came out in dispatch→commit order.
        let evs = tel.drain_events();
        assert!(evs.iter().any(|e| e.kind.name() == "epoch_committed"));
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq), "monotone seqs");
    }

    #[test]
    fn config_validation() {
        let (w, epochs, arrivals, engine) = setup(100);
        let db = Arc::new(MemDb::new(w.num_tables()));
        assert!(run_realtime(
            engine.clone(),
            db.clone(),
            &Workload { epochs: &epochs, arrivals: &arrivals[..arrivals.len() - 1], queries: &[] },
            &RunnerConfig::default(),
        )
        .is_err());
        assert!(run_realtime(
            engine,
            db,
            &Workload { epochs: &epochs, arrivals: &arrivals, queries: &[] },
            &RunnerConfig { time_scale: 0.0, ..Default::default() },
        )
        .is_err());
    }
}
