//! Restart recovery and the durable backup node.
//!
//! [`DurableBackup`] is the crash-consistent composition of the whole
//! stack: every ingested epoch is appended to the WAL segment store
//! *before* it is replayed, checkpoints of the Memtable are cut at epoch
//! barriers at a configurable cadence — full snapshots and deltas of the
//! chains changed since the previous cut — and [`DurableBackup::open`] is
//! the recovery bootstrap — it loads the newest valid restore point, a
//! base plus its deltas (falling back across corrupt ones), seeds the
//! visibility board from
//! the stored replay positions, and re-replays only the WAL *suffix*
//! from the checkpoint's `next_epoch_seq` through the normal two-stage
//! path. Recovery cost is therefore bounded by the checkpoint cadence,
//! not by the length of history.
//!
//! Degraded-mode interaction (the quarantine clamp): while any group is
//! quarantined its `tg_cmt_ts` is frozen but the *log suffix it has not
//! replayed is still in the WAL*. Cutting a checkpoint there — and
//! truncating the WAL behind it — would discard that suffix forever, so
//! checkpoints are skipped while degraded and the skip is counted in
//! `ReplayMetrics::checkpoints_skipped_degraded`. GC is clamped the same
//! way through [`VisibilityBoard::gc_watermark`].

use crate::checkpoint::{CheckpointMeta, CheckpointStore};
use crate::control::AdaptiveController;
use crate::dispatch::{ingest_epoch, IngestStats, RetryPolicy};
use crate::engines::aets::AetsEngine;
use crate::engines::ReplayEngine;
use crate::metrics::ReplayMetrics;
use crate::options::ServiceOptions;
use crate::service::{board_health, BackupNode, NodeOptions};
use crate::visibility::VisibilityBoard;
use aets_common::{Error, GroupId, Result, Timestamp};
use aets_memtable::{gc_db, MemDb, QueryFloor};
use aets_telemetry::trace::stages;
use aets_telemetry::{
    names, EventKind, FlightRecorder, FlightRecorderConfig, ObsServer, Telemetry,
};
use aets_wal::crash::CrashClock;
use aets_wal::{EncodedEpoch, EpochSource, SegmentConfig, SegmentStore};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Durability policy of a [`DurableBackup`].
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Cut a checkpoint every `checkpoint_every` ingested epochs
    /// (`0` = only on explicit [`DurableBackup::checkpoint_now`]).
    pub checkpoint_every: u64,
    /// Restore points to keep on disk, each with the base and deltas it
    /// needs (older ones are pruned after each successful checkpoint; at
    /// least one is always kept, and from two on, one that does not
    /// depend on the newest base whenever one exists).
    pub keep_checkpoints: usize,
    /// WAL segment-store layout and fsync policy.
    pub segment: SegmentConfig,
    /// Run a version-chain GC pass right before cutting each checkpoint,
    /// pruning at [`VisibilityBoard::gc_watermark`] so the snapshot ships
    /// consolidated chains.
    pub gc_before_checkpoint: bool,
    /// Consolidated service-layer knobs shared with the query node and
    /// the fleet: telemetry handle, observability endpoint, flight
    /// recorder, retry policy, and the adaptive control loop.
    pub service: ServiceOptions,
}

impl Default for DurableOptions {
    fn default() -> Self {
        Self {
            checkpoint_every: 32,
            keep_checkpoints: 2,
            segment: SegmentConfig::default(),
            gc_before_checkpoint: true,
            service: ServiceOptions::default(),
        }
    }
}

/// What restart recovery actually did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// `next_epoch_seq` of the checkpoint the state was restored from;
    /// `None` for a cold start (no valid checkpoint on disk).
    pub restored_seq: Option<u64>,
    /// Corrupt manifests skipped before a valid one was found.
    pub manifest_fallbacks: u64,
    /// Epochs re-replayed from the WAL suffix.
    pub suffix_epochs: u64,
    /// Wall time of the whole bootstrap (load + suffix replay).
    pub recovery_wall: Duration,
}

/// A backup node with crash-consistent durability: WAL-first ingest,
/// epoch-aligned checkpoints, suffix-only restart recovery.
#[derive(Debug)]
pub struct DurableBackup {
    engine: Arc<AetsEngine>,
    db: Arc<MemDb>,
    board: Arc<VisibilityBoard>,
    wal: SegmentStore,
    ckpt: CheckpointStore,
    opts: DurableOptions,
    metrics: ReplayMetrics,
    report: RecoveryReport,
    /// Sequence the next ingested epoch must carry.
    next_seq: u64,
    /// `next_epoch_seq` of the last durable checkpoint (0 = none).
    last_ckpt_seq: u64,
    /// The restore point the Memtable's clean chains match — the last
    /// checkpoint written or restored — and so the parent of the next
    /// delta. `None` forces the next cut to be a full snapshot.
    tip: Option<u64>,
    /// Manually published replica floor ([`DurableBackup::set_query_floor`]);
    /// clamps GC together with the pinned read sessions' floor.
    query_floor: Timestamp,
    /// Read sessions' GC floor, shared with every [`BackupNode`] started
    /// via [`DurableBackup::serve`]: a pinned session clamps the
    /// pre-checkpoint GC pass exactly like the manual floor.
    floor: Arc<QueryFloor>,
    /// The engine's telemetry (disabled unless the engine was built with
    /// one); durability events and counters land here too.
    telemetry: Arc<Telemetry>,
    /// Latest ingested epoch's `max_commit_ts` in micros — the "primary
    /// now" the visibility-lag clock reads. An un-paced ingest loop has no
    /// wall-clock relation to the primary, so within-epoch commit lag
    /// (publish ts vs the epoch's high-water mark) is the freshness
    /// measure.
    primary_watermark: Arc<AtomicU64>,
    /// The live observability endpoint, when `opts.obs_addr` asked for
    /// one; dropped (and unbound) with the node.
    obs: Option<ObsServer>,
    /// Live forecast-driven controller, when
    /// [`ServiceOptions::controller`] asked for one; ticked once per
    /// ingested epoch.
    controller: Option<AdaptiveController>,
}

impl DurableBackup {
    /// Recovery bootstrap: restores the newest valid checkpoint, seeds
    /// the visibility board from its replay positions, and re-replays
    /// the WAL suffix through the engine's normal two-stage path.
    ///
    /// `engine` must be fresh (nothing replayed, nothing quarantined) and
    /// grouped identically to the run that produced the on-disk state.
    /// `clock` meters every filesystem operation for crash injection;
    /// pass `None` in production.
    pub fn open(
        wal_dir: impl Into<PathBuf>,
        ckpt_dir: impl Into<PathBuf>,
        engine: AetsEngine,
        num_tables: usize,
        opts: DurableOptions,
        clock: Option<Arc<CrashClock>>,
    ) -> Result<Self> {
        let t0 = Instant::now();
        let num_groups = engine.grouping().num_groups();
        let mut metrics = ReplayMetrics { engine: engine.name(), ..Default::default() };

        let ckpt = CheckpointStore::open(ckpt_dir, clock.clone())?;
        let (loaded, fallbacks) = ckpt.load_latest()?;
        metrics.manifest_fallbacks += fallbacks;

        let telemetry = engine.telemetry().clone();
        // The flight recorder arms before anything replays, so an
        // anomaly during the recovery suffix itself already dumps a
        // bundle.
        if let Some(dir) = opts.service.flight_dir.as_deref() {
            let recorder = FlightRecorder::create(FlightRecorderConfig::new(dir))
                .map_err(|e| Error::Io(format!("flight recorder at {}: {e}", dir.display())))?;
            telemetry.set_flight_recorder(Some(recorder));
        }
        let primary_watermark = Arc::new(AtomicU64::new(0));
        let board = Arc::new({
            // The builder skips the instrumentation when telemetry is
            // disabled, so the one path covers both configurations.
            let wm = primary_watermark.clone();
            let primary_clock: aets_telemetry::ClockFn =
                Arc::new(move || wm.load(Ordering::Relaxed));
            VisibilityBoard::builder(num_groups).telemetry(&telemetry, primary_clock).build()
        });
        if fallbacks > 0 {
            telemetry.registry().counter(names::MANIFEST_FALLBACKS).add(fallbacks);
            telemetry.event(EventKind::RecoveryFallback { manifests_skipped: fallbacks });
        }
        let (db, start_seq, restored_seq) = match loaded {
            Some(c) => {
                if c.meta.tg_cmt_ts.len() != num_groups {
                    return Err(Error::Config(format!(
                        "checkpoint has {} groups, engine has {num_groups}: \
                         grouping changed between runs",
                        c.meta.tg_cmt_ts.len()
                    )));
                }
                // Seed the freshness clock at the restored high-water mark
                // so the board-seeding publishes below record zero lag
                // instead of a bogus warm-up sample.
                primary_watermark.store(c.meta.global_cmt_ts.as_micros(), Ordering::Relaxed);
                for (g, ts) in c.meta.tg_cmt_ts.iter().enumerate() {
                    board.publish_group(GroupId::new(g as u32), *ts);
                }
                board.publish_global(c.meta.global_cmt_ts);
                // Recovery replays the suffix through a fresh engine, so a
                // group the manifest recorded as quarantined is healthy
                // again (the policy today never writes one, but the format
                // carries the field).
                for &g in &c.meta.quarantined {
                    telemetry.event(EventKind::GroupUnquarantined { group: g as usize });
                }
                (c.db, c.meta.next_epoch_seq, Some(c.meta.next_epoch_seq))
            }
            None => (MemDb::new(num_tables), 0, None),
        };

        let mut wal = SegmentStore::open(wal_dir, opts.segment, clock)?;
        // Group-commit observability: every fsync point reports how many
        // frames it made durable (always 1 under `FsyncPolicy::EveryEpoch`).
        let fsync_hist = telemetry.registry().histogram(names::WAL_FSYNC_COALESCED_FRAMES);
        wal.set_sync_observer(Box::new(move |frames| fsync_hist.record_micros(frames)));
        // The WAL must cover everything past the checkpoint: a retained
        // prefix starting *after* `start_seq` means log was truncated
        // beyond the newest restorable checkpoint and recovery cannot be
        // gap-free.
        if let Some(first) = wal.first_retained_seq() {
            if first > start_seq {
                return Err(Error::Replay(format!(
                    "WAL starts at epoch {first} but checkpoint covers only \
                     up to {start_seq}: suffix has a gap"
                )));
            }
        }

        let mut suffix = wal.suffix_source(start_seq)?;
        let suffix_epochs = suffix.num_epochs() as u64;
        if suffix_epochs > 0 {
            let m = engine.replay_stream(&mut suffix, &db, &board)?;
            metrics.absorb(&m);
        }
        metrics.recovery_suffix_epochs += suffix_epochs;
        telemetry.registry().counter(names::RECOVERY_SUFFIX_EPOCHS).add(suffix_epochs);

        let next_seq = start_seq + suffix_epochs;
        let report = RecoveryReport {
            restored_seq,
            manifest_fallbacks: fallbacks,
            suffix_epochs,
            recovery_wall: t0.elapsed(),
        };
        let obs = match opts.service.obs_addr.as_deref() {
            Some(addr) => Some(
                ObsServer::bind(addr, telemetry.clone(), board_health(&board))
                    .map_err(|e| Error::Io(format!("bind obs endpoint {addr}: {e}")))?,
            ),
            None => None,
        };
        // The controller samples the registry the serving layer records
        // `aets_table_access_total` into — the engine's own instance, so
        // a node started via `serve` feeds it automatically.
        let controller = match &opts.service.controller {
            Some(cfg) => Some(AdaptiveController::new(
                cfg.clone(),
                engine.reconfigure_handle(),
                engine.grouping(),
                telemetry.clone(),
            )?),
            None => None,
        };
        let mut node = Self {
            engine: Arc::new(engine),
            db: Arc::new(db),
            board,
            wal,
            ckpt,
            opts,
            metrics,
            report,
            next_seq,
            last_ckpt_seq: restored_seq.unwrap_or(0),
            tip: restored_seq,
            query_floor: Timestamp::MAX,
            floor: Arc::new(QueryFloor::new()),
            telemetry,
            primary_watermark,
            obs,
            controller,
        };
        // If the replayed suffix already spans a full cadence the
        // checkpoint is overdue: cut it now, before any new ingest, so a
        // repeated crash-during-checkpoint can never grow the suffix past
        // `checkpoint_every` across restarts.
        if node.opts.checkpoint_every > 0
            && node.next_seq - node.last_ckpt_seq >= node.opts.checkpoint_every
        {
            node.checkpoint_now()?;
        }
        Ok(node)
    }

    /// Ingests one epoch: durable WAL append first, then replay through
    /// the engine, then (at the configured cadence) a checkpoint.
    ///
    /// A [crash](aets_common::Error::Crash) error means the metered
    /// process died; on a real node the supervisor restarts via
    /// [`DurableBackup::open`], which recovers everything that was acked.
    pub fn ingest(&mut self, epoch: &EncodedEpoch) -> Result<()> {
        let seq = epoch.id.raw();
        let ring = self.telemetry.spans();
        // The append span includes any embedded fsync the policy takes;
        // when the durable watermark advanced, a child fsync point marks
        // the epoch as the one that paid for it.
        let synced_before = self.wal.synced_seq();
        let aspan = ring.begin(seq, stages::WAL_APPEND, None, None);
        self.wal.append(epoch)?;
        let append_id = aspan.map(|s| {
            let id = s.id();
            s.finish(ring);
            id
        });
        if self.wal.synced_seq() != synced_before {
            ring.point(seq, stages::WAL_FSYNC, None, append_id);
        }
        self.metrics.wal_epochs_appended += 1;
        self.telemetry.registry().counter(names::WAL_EPOCHS_APPENDED).inc();
        // Advance "primary now" to this epoch's high-water mark before
        // replaying it, so each group publish records its within-epoch
        // commit lag against the freshest known primary timestamp.
        self.primary_watermark.fetch_max(epoch.max_commit_ts.as_micros(), Ordering::Relaxed);
        let m = self.engine.replay(std::slice::from_ref(epoch), &self.db, &self.board)?;
        self.metrics.absorb(&m);
        self.next_seq = epoch.id.raw() + 1;
        if let Some(ctl) = &mut self.controller {
            // A planning error (e.g. a degenerate clustering) keeps the
            // current plan; the ingest itself already succeeded.
            let _ = ctl.on_epoch();
        }

        if self.opts.checkpoint_every > 0
            && self.next_seq - self.last_ckpt_seq >= self.opts.checkpoint_every
        {
            self.checkpoint_now()?;
        }
        Ok(())
    }

    /// Pulls every epoch the source currently advertises through the
    /// resync loop ([`ingest_epoch`]) and ingests each one durably via
    /// [`DurableBackup::ingest`]. Epochs the node has already ingested
    /// (below [`DurableBackup::next_seq`]) are skipped, so a resumed
    /// network stream that re-ships its in-flight window is absorbed
    /// idempotently. Returns the number of epochs ingested by this call.
    ///
    /// Delivery faults (stalls, checksum failures, gaps) are retried per
    /// `retry`; exhausted retries surface as an error after everything
    /// ingested so far has been made durable. Ingest-loop stats are
    /// folded into [`DurableBackup::metrics`] and the telemetry registry
    /// exactly like the streaming engine path.
    pub fn ingest_from(
        &mut self,
        source: &mut dyn EpochSource,
        retry: &RetryPolicy,
    ) -> Result<u64> {
        let end = source.first_seq() + source.num_epochs() as u64;
        let mut stats = IngestStats::default();
        let mut ingested = 0u64;
        let mut outcome = Ok(());
        while self.next_seq < end {
            match ingest_epoch(source, self.next_seq, retry, &mut stats) {
                Ok(epoch) => {
                    if let Err(e) = self.ingest(&epoch) {
                        outcome = Err(e);
                        break;
                    }
                    ingested += 1;
                }
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        self.metrics.ingest_retries += stats.retries;
        self.metrics.checksum_failures += stats.checksum_failures;
        self.metrics.epoch_gaps += stats.epoch_gaps;
        self.metrics.ingest_stalls += stats.stalls;
        let reg = self.telemetry.registry();
        reg.counter(names::INGEST_RETRIES).add(stats.retries);
        reg.counter(names::CHECKSUM_FAILURES).add(stats.checksum_failures);
        reg.counter(names::EPOCH_GAPS).add(stats.epoch_gaps);
        reg.counter(names::INGEST_STALLS).add(stats.stalls);
        outcome.map(|()| ingested)
    }

    /// Cuts a checkpoint at the current epoch barrier, prunes old
    /// manifests, and retires WAL segments behind the oldest kept restore
    /// point. Returns `false` (and counts the skip) while any group is
    /// quarantined: truncating the WAL past a frozen group's watermark
    /// would lose the suffix it has not replayed.
    ///
    /// The cut is a *delta* — only the chains appended to or rewritten by
    /// GC since the previous checkpoint — while the deltas already
    /// written on the current base total less than the base; otherwise it
    /// is a full snapshot that starts a new chain. A restore therefore
    /// reads the base, older deltas totalling less than the base, and the
    /// newest delta — under twice the base plus one delta — while a cut
    /// writes O(changes), not O(database).
    pub fn checkpoint_now(&mut self) -> Result<bool> {
        if !self.engine.quarantined_groups().is_empty() {
            self.metrics.checkpoints_skipped_degraded += 1;
            self.telemetry.registry().counter(names::CHECKPOINTS_SKIPPED).inc();
            self.telemetry.event(EventKind::CheckpointSkippedDegraded);
            return Ok(false);
        }
        if self.opts.gc_before_checkpoint {
            // Both floors clamp: the manually published replica floor and
            // the oldest read session pinned through a served node.
            let wm = self.board.gc_watermark(&[], self.query_floor.min(self.floor.floor()));
            let pass = gc_db(&self.db, wm);
            self.metrics.gc.merge(pass);
            self.metrics.gc_passes += 1;
            self.telemetry.registry().counter(names::GC_PASSES).inc();
            self.telemetry.registry().counter(names::GC_PRUNED).add(pass.pruned as u64);
            self.telemetry.event(EventKind::GcPass { nodes: pass.nodes, pruned: pass.pruned });
        }
        // Group-commit invariant: the WAL prefix below the checkpoint
        // barrier must be durable before the manifest is — otherwise a
        // crash could leave a checkpoint that outruns the durable log,
        // and the resumed stream would hit an epoch gap.
        self.wal.sync()?;
        let num_groups = self.engine.grouping().num_groups();
        let meta = CheckpointMeta {
            next_epoch_seq: self.next_seq,
            global_cmt_ts: self.board.global_cmt_ts(),
            tg_cmt_ts: (0..num_groups)
                .map(|g| self.board.tg_cmt_ts(GroupId::new(g as u32)))
                .collect(),
            quarantined: vec![],
        };
        // Cutting clears the chains' dirty marks, so a failed write must
        // leave no parent behind: the next cut is then a full snapshot.
        let parent = match self.tip.take() {
            Some(tip) if tip < self.next_seq => {
                self.ckpt.chain_bytes(tip)?.filter(|c| c.deltas < c.base).map(|_| tip)
            }
            _ => None,
        };
        match parent {
            Some(tip) => self.ckpt.write_delta(&meta, tip, &self.db)?,
            None => self.ckpt.write(&meta, &self.db, Timestamp::MAX)?,
        };
        self.tip = Some(self.next_seq);
        self.metrics.checkpoints_written += 1;
        self.telemetry.registry().counter(names::CHECKPOINTS_WRITTEN).inc();
        self.telemetry.event(EventKind::CheckpointWritten { next_epoch_seq: self.next_seq });
        self.last_ckpt_seq = self.next_seq;
        self.ckpt.retain(self.opts.keep_checkpoints)?;
        // Retire WAL only behind the OLDEST retained manifest — the base
        // of the oldest kept chain: if the newest restore point is later
        // found corrupt, recovery falls back to an older one and still
        // needs the log from that point on. Until a restore point exists
        // that does not share the newest base, that fallback is a cold
        // start, and the whole log is kept.
        let retired = match self.ckpt.wal_floor(self.opts.keep_checkpoints)? {
            Some(floor) => self.wal.truncate_before(floor)? as u64,
            None => 0,
        };
        self.metrics.wal_segments_retired += retired;
        if retired > 0 {
            self.telemetry.registry().counter(names::WAL_SEGMENTS_RETIRED).add(retired);
            self.telemetry.event(EventKind::WalSegmentRetired { segments: retired });
        }
        Ok(true)
    }

    /// Publishes the oldest still-active analytical query's `qts` so GC
    /// never prunes a version an admitted query may read. Pass
    /// [`Timestamp::MAX`] when no query is active. Sessions opened
    /// through [`DurableBackup::serve`] pin the floor automatically; this
    /// manual override exists for externally coordinated readers.
    pub fn set_query_floor(&mut self, qts: Timestamp) {
        self.query_floor = qts;
    }

    /// Starts a query-serving [`BackupNode`] over this durable backup's
    /// live state: the node shares the engine, database, visibility
    /// board, telemetry, and GC floor, so sessions opened on it read the
    /// epochs ingested here — including everything recovered from the
    /// checkpoint + WAL suffix after a restart — and their pinned `qts`
    /// clamps the pre-checkpoint GC pass.
    pub fn serve(&self, opts: NodeOptions) -> Result<BackupNode> {
        BackupNode::builder()
            .engine(self.engine.clone())
            .db(self.db.clone())
            .board(self.board.clone())
            .floor(self.floor.clone())
            .telemetry(self.telemetry.clone())
            .options(opts)
            .build()
    }

    /// The Memtable.
    pub fn db(&self) -> &MemDb {
        &self.db
    }

    /// The visibility board queries wait on.
    pub fn board(&self) -> &Arc<VisibilityBoard> {
        &self.board
    }

    /// The replay engine.
    pub fn engine(&self) -> &AetsEngine {
        &self.engine
    }

    /// The node's telemetry instance (disabled unless the engine was
    /// built with `AetsEngine::builder(..).telemetry(..)`).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Accumulated metrics (replay + durability counters).
    pub fn metrics(&self) -> &ReplayMetrics {
        &self.metrics
    }

    /// What the bootstrap recovery did.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.report
    }

    /// Sequence the next ingested epoch must carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// `next_epoch_seq` of the last durable checkpoint.
    pub fn last_checkpoint_seq(&self) -> u64 {
        self.last_ckpt_seq
    }

    /// Complete control windows the adaptive controller has observed;
    /// `None` when [`ServiceOptions::controller`] was unset.
    pub fn adaptive_windows(&self) -> Option<usize> {
        self.controller.as_ref().map(AdaptiveController::windows_observed)
    }

    /// Bound address of the live observability endpoint, when
    /// [`ServiceOptions::obs_addr`] asked for one.
    pub fn obs_addr(&self) -> Option<std::net::SocketAddr> {
        self.obs.as_ref().map(ObsServer::addr)
    }

    /// Highest epoch sequence the WAL knows durable (covered by an fsync
    /// point). Under [`aets_wal::FsyncPolicy::Coalesced`] this is the
    /// crash-loss bound: acknowledged epochs past it may be re-requested
    /// from the primary after a crash, but never epochs at or below it.
    pub fn wal_synced_seq(&self) -> Option<u64> {
        self.wal.synced_seq()
    }

    /// The read sessions' GC floor registry, shared with every
    /// [`BackupNode`] started via [`DurableBackup::serve`]. A fleet
    /// coordinator pins cross-shard session `qts` values here directly so
    /// the pins survive the serving node being torn down and rebuilt.
    pub fn floor(&self) -> &Arc<QueryFloor> {
        &self.floor
    }

    /// First epoch sequence the WAL still retains, or `None` for an empty
    /// store. Pair with [`DurableBackup::oldest_checkpoint_seq`] to check
    /// the retention invariant: the log always covers every retained
    /// manifest's suffix.
    pub fn wal_first_retained_seq(&self) -> Option<u64> {
        self.wal.first_retained_seq()
    }

    /// `next_epoch_seq` of the oldest checkpoint manifest still on disk,
    /// or `None` when no manifest exists. WAL segments are only ever
    /// retired behind this barrier — never behind just the newest one —
    /// so a corrupt newest manifest can still fall back and re-replay.
    pub fn oldest_checkpoint_seq(&self) -> Result<Option<u64>> {
        Ok(self.ckpt.list()?.first().map(|(s, _)| *s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::aets::AetsConfig;
    use crate::grouping::TableGrouping;
    use aets_common::TableId;
    use aets_wal::{batch_into_epochs, encode_epoch};
    use aets_workloads::tpcc::{self, TpccConfig};

    fn scratch(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("aets-rec-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tpcc_stream(num_txns: usize) -> (Vec<EncodedEpoch>, usize, TableGrouping) {
        let w = tpcc::generate(&TpccConfig {
            num_txns,
            warehouses: 2,
            oltp_tps: 20_000.0,
            ..Default::default()
        });
        let raw = batch_into_epochs(w.txns.clone(), 64).unwrap();
        let epochs: Vec<_> = raw.iter().map(encode_epoch).collect();
        let (groups, rates) = tpcc::paper_grouping();
        let grouping =
            TableGrouping::new(w.num_tables(), groups, rates, &w.analytic_tables).unwrap();
        (epochs, w.num_tables(), grouping)
    }

    fn fresh_engine(grouping: &TableGrouping) -> AetsEngine {
        AetsEngine::builder(grouping.clone())
            .config(AetsConfig { threads: 2, ..Default::default() })
            .build()
            .unwrap()
    }

    fn oracle_digest(epochs: &[EncodedEpoch], num_tables: usize, grouping: &TableGrouping) -> u64 {
        let engine = fresh_engine(grouping);
        let db = MemDb::new(num_tables);
        let board = VisibilityBoard::builder(grouping.num_groups()).build();
        engine.replay(epochs, &db, &board).unwrap();
        db.digest_at(Timestamp::MAX)
    }

    #[test]
    fn restart_resumes_from_checkpoint_and_replays_only_the_suffix() {
        let (epochs, num_tables, grouping) = tpcc_stream(2_000);
        let want = oracle_digest(&epochs, num_tables, &grouping);
        let wal_dir = scratch("resume-wal");
        let ckpt_dir = scratch("resume-ckpt");
        let opts = DurableOptions {
            checkpoint_every: 8,
            segment: SegmentConfig { epochs_per_segment: 4, ..Default::default() },
            ..Default::default()
        };

        // First life: ingest the whole stream, checkpointing as we go.
        let ckpts;
        {
            let mut node = DurableBackup::open(
                &wal_dir,
                &ckpt_dir,
                fresh_engine(&grouping),
                num_tables,
                opts.clone(),
                None,
            )
            .unwrap();
            assert!(node.recovery().restored_seq.is_none(), "cold start");
            for e in &epochs {
                node.ingest(e).unwrap();
            }
            ckpts = node.metrics().checkpoints_written;
            assert!(ckpts >= 2, "cadence must have cut checkpoints");
            assert!(node.metrics().wal_segments_retired > 0, "WAL must shrink");
            assert_eq!(node.db().digest_at(Timestamp::MAX), want);
        }

        // Second life: restart. Only the post-checkpoint suffix replays.
        let node = DurableBackup::open(
            &wal_dir,
            &ckpt_dir,
            fresh_engine(&grouping),
            num_tables,
            opts.clone(),
            None,
        )
        .unwrap();
        let rec = node.recovery();
        let restored = rec.restored_seq.expect("must restore from a checkpoint");
        assert_eq!(
            rec.suffix_epochs,
            epochs.len() as u64 - restored,
            "recovery must replay exactly the epochs after the checkpoint"
        );
        assert!(
            rec.suffix_epochs < epochs.len() as u64,
            "suffix replay must be shorter than full history"
        );
        assert_eq!(node.db().digest_at(Timestamp::MAX), want, "restored digest matches oracle");
        assert_eq!(node.next_seq(), epochs.len() as u64);
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    #[test]
    fn ingest_rate_accumulates_replay_wall_time() {
        let (epochs, num_tables, grouping) = tpcc_stream(600);
        let wal_dir = scratch("rate-wal");
        let ckpt_dir = scratch("rate-ckpt");
        let mut node = DurableBackup::open(
            &wal_dir,
            &ckpt_dir,
            fresh_engine(&grouping),
            num_tables,
            DurableOptions::default(),
            None,
        )
        .unwrap();
        for e in &epochs {
            node.ingest(e).unwrap();
        }
        let m = node.metrics();
        assert_eq!(m.epochs, epochs.len());
        assert!(m.wall > Duration::ZERO, "per-ingest replay wall times must be summed");
        assert!(m.entries_per_sec() > 0.0, "ingest rate must be positive after ingesting");
        drop(node);
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    #[test]
    fn restart_after_restart_keeps_ingesting() {
        let (epochs, num_tables, grouping) = tpcc_stream(1_200);
        let want = oracle_digest(&epochs, num_tables, &grouping);
        let wal_dir = scratch("twice-wal");
        let ckpt_dir = scratch("twice-ckpt");
        let opts = DurableOptions {
            checkpoint_every: 5,
            segment: SegmentConfig { epochs_per_segment: 3, ..Default::default() },
            ..Default::default()
        };
        let mid = epochs.len() / 3;
        let later = 2 * epochs.len() / 3;
        {
            let mut node = DurableBackup::open(
                &wal_dir,
                &ckpt_dir,
                fresh_engine(&grouping),
                num_tables,
                opts.clone(),
                None,
            )
            .unwrap();
            for e in &epochs[..mid] {
                node.ingest(e).unwrap();
            }
        }
        {
            let mut node = DurableBackup::open(
                &wal_dir,
                &ckpt_dir,
                fresh_engine(&grouping),
                num_tables,
                opts.clone(),
                None,
            )
            .unwrap();
            assert_eq!(node.next_seq(), mid as u64);
            for e in &epochs[mid..later] {
                node.ingest(e).unwrap();
            }
        }
        let mut node = DurableBackup::open(
            &wal_dir,
            &ckpt_dir,
            fresh_engine(&grouping),
            num_tables,
            opts,
            None,
        )
        .unwrap();
        assert_eq!(node.next_seq(), later as u64);
        for e in &epochs[later..] {
            node.ingest(e).unwrap();
        }
        assert_eq!(node.db().digest_at(Timestamp::MAX), want);
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    #[test]
    fn quarantine_skips_checkpoints_and_preserves_the_frozen_suffix() {
        use aets_wal::{crc32, MetaScanner};

        let (mut epochs, num_tables, grouping) = tpcc_stream(600);
        // Corrupt one record of a cold table mid-stream so its group
        // quarantines: find a DML of the highest-numbered table.
        let victim = TableId::new((num_tables - 1) as u32);
        let eidx = epochs
            .iter()
            .position(|e| {
                MetaScanner::new(e.bytes.clone())
                    .filter_map(|i| i.ok())
                    .any(|(meta, _)| meta.table == Some(victim))
            })
            .expect("some epoch touches the victim table");
        let range = MetaScanner::new(epochs[eidx].bytes.clone())
            .filter_map(|i| i.ok())
            .find(|(meta, _)| meta.table == Some(victim))
            .map(|(_, r)| r)
            .unwrap();
        let mut v = epochs[eidx].bytes.to_vec();
        v[range.end - 1] ^= 0x01;
        epochs[eidx] = EncodedEpoch { crc32: crc32(&v), bytes: v.into(), ..epochs[eidx].clone() };

        let wal_dir = scratch("quar-wal");
        let ckpt_dir = scratch("quar-ckpt");
        let opts = DurableOptions { checkpoint_every: 3, ..Default::default() };
        let mut node = DurableBackup::open(
            &wal_dir,
            &ckpt_dir,
            fresh_engine(&grouping),
            num_tables,
            opts,
            None,
        )
        .unwrap();
        for e in &epochs {
            node.ingest(e).unwrap();
        }
        assert!(node.metrics().degraded(), "the poisoned group must quarantine");
        let after_poison = node.metrics().checkpoints_skipped_degraded;
        assert!(after_poison > 0, "cadence hits while degraded must be skipped, not taken");
        // No checkpoint may cover epochs past the quarantine instant, and
        // the WAL must still hold the frozen group's unreplayed suffix.
        assert!(node.last_checkpoint_seq() <= eidx as u64);
        let first_retained = node.wal.first_retained_seq().expect("WAL must not be empty");
        assert!(
            first_retained <= eidx as u64,
            "WAL retains the suffix from the poisoned epoch on \
             (first retained {first_retained}, poisoned {eidx})"
        );
        // An explicit checkpoint request is also refused.
        assert!(!node.checkpoint_now().unwrap());
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    #[test]
    fn durable_node_emits_checkpoint_and_freshness_telemetry() {
        use aets_telemetry::{names, Telemetry};
        let (epochs, num_tables, grouping) = tpcc_stream(800);
        let wal_dir = scratch("tel-wal");
        let ckpt_dir = scratch("tel-ckpt");
        let tel = Arc::new(Telemetry::new());
        let engine = AetsEngine::builder(grouping.clone())
            .config(AetsConfig { threads: 2, ..Default::default() })
            .telemetry(tel.clone())
            .build()
            .unwrap();
        let opts = DurableOptions {
            checkpoint_every: 4,
            segment: SegmentConfig { epochs_per_segment: 2, ..Default::default() },
            ..Default::default()
        };
        let mut node =
            DurableBackup::open(&wal_dir, &ckpt_dir, engine, num_tables, opts, None).unwrap();
        for e in &epochs {
            node.ingest(e).unwrap();
        }
        let snap = tel.snapshot();
        // Durability counters mirror ReplayMetrics.
        assert_eq!(
            snap.counter_total(names::CHECKPOINTS_WRITTEN),
            node.metrics().checkpoints_written
        );
        assert_eq!(
            snap.counter_total(names::WAL_EPOCHS_APPENDED),
            node.metrics().wal_epochs_appended
        );
        assert_eq!(
            snap.counter_total(names::WAL_SEGMENTS_RETIRED),
            node.metrics().wal_segments_retired
        );
        assert!(snap.counter_total(names::GC_PASSES) > 0);
        // Freshness on the primary-watermark clock: lag samples exist and
        // every one is bounded by the epoch span (no wall-clock bleed).
        let lag = snap.histogram_summary_all(names::VISIBILITY_LAG_US).expect("lag histogram");
        assert!(lag.count > 0);
        let span = epochs.last().unwrap().max_commit_ts.as_micros();
        assert!(lag.max_us <= span, "lag {} exceeds primary span {span}", lag.max_us);
        // Lifecycle events: checkpoints and WAL retirement showed up.
        let evs = tel.drain_events();
        assert!(evs.iter().any(|e| e.kind.name() == "checkpoint_written"));
        assert!(evs.iter().any(|e| e.kind.name() == "wal_segment_retired"));
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    #[test]
    fn restarted_backup_serves_pinned_read_sessions() {
        use crate::service::{QueryOutput, QuerySpec};
        use aets_memtable::Scan;

        let (epochs, num_tables, grouping) = tpcc_stream(1_000);
        let wal_dir = scratch("serve-wal");
        let ckpt_dir = scratch("serve-ckpt");
        let opts = DurableOptions { checkpoint_every: 6, ..Default::default() };
        {
            let mut node = DurableBackup::open(
                &wal_dir,
                &ckpt_dir,
                fresh_engine(&grouping),
                num_tables,
                opts.clone(),
                None,
            )
            .unwrap();
            for e in &epochs {
                node.ingest(e).unwrap();
            }
        }
        // Second life: recover, then serve queries from the recovered
        // state. The board was seeded from the checkpoint and advanced by
        // the suffix replay, so a session at the stream's high-water mark
        // admits without any further ingest.
        let backup = DurableBackup::open(
            &wal_dir,
            &ckpt_dir,
            fresh_engine(&grouping),
            num_tables,
            opts,
            None,
        )
        .unwrap();
        assert!(backup.recovery().restored_seq.is_some());
        let node = backup.serve(crate::service::NodeOptions::default()).unwrap();
        let qts = epochs.last().unwrap().max_commit_ts;
        let table = TableId::new(0);
        let session = node.open_session(qts, &[table]);
        // A pinned session clamps the durable backup's GC floor too.
        assert!(backup.floor.floor() <= qts);
        let served = session.query(QuerySpec::count(table)).unwrap();
        let oracle = Scan::at(qts).count(backup.db().table(table));
        assert_eq!(served, QueryOutput::Count(oracle));
        assert!(oracle > 0, "recovered warehouse table must have rows");
        drop(session);
        assert_eq!(backup.floor.floor(), Timestamp::MAX);
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    #[test]
    fn grouping_mismatch_is_rejected_at_recovery() {
        let (epochs, num_tables, grouping) = tpcc_stream(300);
        let wal_dir = scratch("mismatch-wal");
        let ckpt_dir = scratch("mismatch-ckpt");
        {
            let mut node = DurableBackup::open(
                &wal_dir,
                &ckpt_dir,
                fresh_engine(&grouping),
                num_tables,
                DurableOptions { checkpoint_every: 2, ..Default::default() },
                None,
            )
            .unwrap();
            for e in &epochs {
                node.ingest(e).unwrap();
            }
            assert!(node.metrics().checkpoints_written > 0);
        }
        // An engine with a different group count must not silently adopt
        // the old board positions.
        let single = AetsEngine::tplr_baseline(2, num_tables, &Default::default()).unwrap();
        let err = DurableBackup::open(
            &wal_dir,
            &ckpt_dir,
            single,
            num_tables,
            DurableOptions::default(),
            None,
        )
        .unwrap_err();
        assert_eq!(err.kind(), "config");
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    #[test]
    fn wal_gap_after_checkpoint_is_fatal() {
        // Long enough to cut a second full base: only then may the WAL
        // be retired past epoch 0.
        let (epochs, num_tables, grouping) = tpcc_stream(1_200);
        let wal_dir = scratch("gap-wal");
        let ckpt_dir = scratch("gap-ckpt");
        let opts = DurableOptions {
            checkpoint_every: 4,
            segment: SegmentConfig { epochs_per_segment: 2, ..Default::default() },
            ..Default::default()
        };
        {
            let mut node = DurableBackup::open(
                &wal_dir,
                &ckpt_dir,
                fresh_engine(&grouping),
                num_tables,
                opts.clone(),
                None,
            )
            .unwrap();
            for e in &epochs {
                node.ingest(e).unwrap();
            }
            assert!(node.wal_first_retained_seq() > Some(0), "the WAL must have been retired");
        }
        // Delete every checkpoint: the WAL has been truncated past epoch
        // 0, so a cold-start recovery would have a gap and must refuse.
        for f in std::fs::read_dir(&ckpt_dir).unwrap() {
            std::fs::remove_file(f.unwrap().path()).unwrap();
        }
        let err = DurableBackup::open(
            &wal_dir,
            &ckpt_dir,
            fresh_engine(&grouping),
            num_tables,
            opts,
            None,
        )
        .unwrap_err();
        assert_eq!(err.kind(), "replay");
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }
}
