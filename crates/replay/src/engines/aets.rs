//! The AETS engine: adaptive epoch-based two-stage log replay with TPLR.
//!
//! Per epoch (Section III-D):
//!
//! 1. the dispatcher routes entries into per-group mini-transactions
//!    (metadata-only parse). This runs on its own thread, feeding
//!    dispatched epochs to the replay loop through a bounded channel so
//!    the metadata scan of epoch `e+1` overlaps the stage-1/stage-2
//!    replay of epoch `e` (see DESIGN.md, "Replay datapath");
//! 2. threads are allocated to groups by `λ·n` weights
//!    (Section IV-B), optionally refreshed from a per-epoch rate provider
//!    (the DTGM predictor in the full system);
//! 3. **stage 1** replays all hot groups: per group, workers run TPLR
//!    phase 1 (translate entries to uncommitted cells, no locks, no
//!    dependency tracking) while the group's single commit thread runs
//!    phase 2 (append cells in `commit_order_queue` order, publish
//!    `tg_cmt_ts`);
//! 4. **stage 2** replays the cold groups the same way;
//! 5. `global_cmt_ts` advances to the epoch's last commit.
//!
//! With `two_stage = false` and a single group this is exactly the
//! ungrouped TPLR baseline of Section VI-A5.
//!
//! # Supervision and quarantine
//!
//! Replay is *supervised*: phase-1 workers and the per-group commit
//! threads propagate [`Result`]s instead of panicking, and any panic that
//! does occur inside a replay thread is contained with `catch_unwind`. A
//! group whose replay hits an unrecoverable fault (e.g. a record that
//! passes the epoch frame CRC but fails its own record CRC) is
//! *quarantined*: its `tg_cmt_ts` freezes at the last consistent commit,
//! `global_cmt_ts` stops advancing (so Algorithm 3's global shortcut can
//! never admit a query past the frozen group), and every healthy group
//! keeps replaying. The degraded state is surfaced through
//! `ReplayMetrics::quarantined_groups`; no thread panic ever escapes
//! [`ReplayEngine::replay`].

use crate::alloc::{allocate_threads, UrgencyMode};
use crate::dispatch::{dispatch_epoch, ingest_epoch, DispatchedEpoch, IngestStats, RetryPolicy};
use crate::engines::pool::CellPool;
use crate::engines::{commit_cell, translate_entry, Cell, ReplayEngine};
use crate::grouping::TableGrouping;
use crate::metrics::ReplayMetrics;
use crate::visibility::VisibilityBoard;
use aets_common::{Error, GroupId, Result, TableId};
use aets_memtable::MemDb;
use aets_telemetry::trace::stages;
use aets_telemetry::{names, Counter, EventKind, Gauge, Histogram, OpenSpan, SpanId, Telemetry};
use aets_wal::{EncodedEpoch, EpochSource, SliceSource};
use parking_lot::{Condvar, Mutex, RwLock};
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How many dispatched epochs may sit between the dispatcher thread and
/// the replay loop. The epoch-barrier invariant does not depend on it:
/// the replay loop consumes epochs strictly in order and only ever
/// commits the epoch at the channel head.
const PIPELINE_DEPTH: usize = 2;

/// Per-epoch group access rates, e.g. from the DTGM predictor.
pub type RateFn = Arc<dyn Fn(usize) -> Vec<f64> + Send + Sync>;

/// Configuration of the AETS engine.
#[derive(Clone)]
pub struct AetsConfig {
    /// Total replay worker threads `T`.
    pub threads: usize,
    /// Urgency factor mode (Log = paper, Ignore = AETS-NOAC ablation).
    pub urgency: UrgencyMode,
    /// Replay hot groups in stage 1 before cold groups (the paper's
    /// two-stage design). `false` collapses to a single stage.
    pub two_stage: bool,
    /// Recompute the thread allocation each epoch from pending bytes and
    /// rates. `false` splits threads evenly across groups with work.
    pub adaptive: bool,
    /// Optional per-epoch group-rate provider (predicted access rates);
    /// when absent, the grouping's static rates are used.
    pub rate_fn: Option<RateFn>,
    /// Bounded-retry policy of the ingest resync loop: how often a failed
    /// epoch delivery (torn tail, bit flip, sequence gap, stall) is
    /// re-requested, and with what backoff, before the error is fatal.
    pub retry: RetryPolicy,
}

impl std::fmt::Debug for AetsConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AetsConfig")
            .field("threads", &self.threads)
            .field("urgency", &self.urgency)
            .field("two_stage", &self.two_stage)
            .field("adaptive", &self.adaptive)
            .field("rate_fn", &self.rate_fn.as_ref().map(|_| "<fn>"))
            .field("retry", &self.retry)
            .finish()
    }
}

impl Default for AetsConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            urgency: UrgencyMode::Log,
            two_stage: true,
            adaptive: true,
            rate_fn: None,
            retry: RetryPolicy::default(),
        }
    }
}

/// A live reconfiguration command for a running [`AetsEngine`], sent
/// through a [`ReconfigureHandle`] and applied at the next epoch
/// boundary (see DESIGN.md §15 "Adaptive control loop").
#[derive(Debug, Clone)]
pub enum Reconfigure {
    /// Pin the per-group worker allocation, bypassing the per-epoch
    /// `λ·n` solver until the next `SetThreadSplit`. One slot per group;
    /// zero means the group's commit thread translates inline.
    SetThreadSplit(Vec<usize>),
    /// Replace the table grouping. Must preserve the group count (the
    /// visibility board, quarantine ledger and cell pools are sized to
    /// it) and the table count. Rejected — dropped and counted in
    /// `aets_adapt_rejected_total` — while any group is quarantined: a
    /// frozen group's watermark describes its *old* table set, and
    /// moving tables would silently change what the freeze protects.
    Regroup(TableGrouping),
}

/// Clonable sender half of an engine's reconfiguration channel.
///
/// Commands are validated at send time against the engine's immutable
/// group/table counts, queued, and drained by the *dispatching* side of
/// the replay datapath at the next epoch boundary. Epoch boundaries are
/// exactly the paper's "drain, move, resume" migration points: commit
/// queues are per-epoch objects fully drained at the stage barriers, and
/// every healthy group's watermark equals the epoch's `max_commit_ts`,
/// so a regroup never moves a table with in-flight work and is
/// watermark-neutral.
#[derive(Clone, Debug)]
pub struct ReconfigureHandle {
    inner: Arc<ReconfShared>,
}

#[derive(Debug)]
struct ReconfShared {
    queue: Mutex<VecDeque<Reconfigure>>,
    /// Commands applied so far (monotone; rejected commands excluded).
    applied: AtomicU64,
    num_groups: usize,
    num_tables: usize,
}

impl ReconfigureHandle {
    fn new(num_groups: usize, num_tables: usize) -> Self {
        Self {
            inner: Arc::new(ReconfShared {
                queue: Mutex::new(VecDeque::new()),
                applied: AtomicU64::new(0),
                num_groups,
                num_tables,
            }),
        }
    }

    /// Queues `cmd` for the next epoch boundary. Fails fast on a command
    /// that can never be applied (wrong split length, wrong group or
    /// table count) so the caller's bug surfaces at the send site.
    pub fn send(&self, cmd: Reconfigure) -> Result<()> {
        match &cmd {
            Reconfigure::SetThreadSplit(split) => {
                if split.len() != self.inner.num_groups {
                    return Err(Error::Config(format!(
                        "thread split has {} slots for {} groups",
                        split.len(),
                        self.inner.num_groups
                    )));
                }
            }
            Reconfigure::Regroup(g) => {
                if g.num_groups() != self.inner.num_groups {
                    return Err(Error::Config(format!(
                        "regroup has {} groups, engine is sized for {}",
                        g.num_groups(),
                        self.inner.num_groups
                    )));
                }
                if g.num_tables() != self.inner.num_tables {
                    return Err(Error::Config(format!(
                        "regroup covers {} tables, engine replays {}",
                        g.num_tables(),
                        self.inner.num_tables
                    )));
                }
            }
        }
        self.inner.queue.lock().push_back(cmd);
        Ok(())
    }

    /// Commands applied so far (rejected commands excluded). Lets a
    /// controller confirm a command took effect before planning atop it.
    pub fn applied(&self) -> u64 {
        self.inner.applied.load(Ordering::Acquire)
    }

    /// Commands queued but not yet drained by an epoch boundary.
    pub fn pending(&self) -> usize {
        self.inner.queue.lock().len()
    }
}

/// The grouping (and pinned split) an epoch is dispatched *and* replayed
/// under. Captured once per epoch when the dispatching side drains the
/// reconfiguration queue, and shipped through the pipeline channel with
/// the dispatched work so both halves of the datapath always agree —
/// epoch `e+1` may be dispatched under a newer grouping while epoch `e`
/// is still replaying under the old one.
#[derive(Clone)]
struct EpochPlan {
    /// Grouping generation; the consumer side publishes it to the
    /// visibility board before replaying the first epoch planned under
    /// it (at that point the previous epoch is fully replayed, so every
    /// healthy watermark covers the whole database).
    gen: u64,
    grouping: Arc<TableGrouping>,
    split: Option<Vec<usize>>,
    regroups: u64,
    resplits: u64,
    rejected: u64,
}

/// Converts a contained panic payload into a typed replay error, so a
/// panicking replay thread poisons its group like any other failure
/// instead of tearing the process down.
fn panic_error(who: &str, payload: Box<dyn std::any::Any + Send>) -> Error {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string());
    Error::Replay(format!("{who} panicked: {msg}"))
}

/// Per-group quarantine ledger. Lives on the engine (not one `replay`
/// call) because the realtime runner replays one epoch per call through
/// the same engine: once a group is poisoned, every later epoch skips it
/// and its `tg_cmt_ts` stays frozen at the last consistent commit.
#[derive(Debug)]
struct Quarantine {
    groups: Mutex<Vec<Option<Error>>>,
}

impl Quarantine {
    fn new(n: usize) -> Self {
        Self { groups: Mutex::new((0..n).map(|_| None).collect()) }
    }

    /// Records the first failure of `gid`; later failures keep the
    /// original root cause.
    fn poison(&self, gid: GroupId, err: Error) {
        let mut g = self.groups.lock();
        let slot = &mut g[gid.index()];
        if slot.is_none() {
            *slot = Some(err);
        }
    }

    fn is_poisoned(&self, gid: GroupId) -> bool {
        self.groups.lock()[gid.index()].is_some()
    }

    fn any(&self) -> bool {
        self.groups.lock().iter().any(Option::is_some)
    }

    fn poisoned(&self) -> Vec<usize> {
        self.groups.lock().iter().enumerate().filter_map(|(i, e)| e.as_ref().map(|_| i)).collect()
    }
}

/// Telemetry handles cached at engine construction so the replay hot path
/// never touches the registry map: each record is an atomic op (or a
/// single relaxed load when telemetry is disabled).
#[derive(Debug)]
struct EngineStats {
    epochs: Counter,
    txns: Counter,
    entries: Counter,
    bytes: Counter,
    dispatch_us: Histogram,
    stage1_us: Histogram,
    stage2_us: Histogram,
    replay_busy_us: Counter,
    commit_busy_us: Counter,
    ingest_retries: Counter,
    checksum_failures: Counter,
    epoch_gaps: Counter,
    ingest_stalls: Counter,
    quarantined: Gauge,
    ingest_bps: Gauge,
    cell_recycled: Counter,
    cell_allocated: Counter,
    regroups: Counter,
    resplits: Counter,
    reconf_rejected: Counter,
}

impl EngineStats {
    fn new(tel: &Telemetry) -> Self {
        let reg = tel.registry();
        Self {
            epochs: reg.counter(names::EPOCHS),
            txns: reg.counter(names::TXNS),
            entries: reg.counter(names::ENTRIES),
            bytes: reg.counter(names::BYTES),
            dispatch_us: reg.histogram(names::DISPATCH_US),
            stage1_us: reg.histogram(names::STAGE1_US),
            stage2_us: reg.histogram(names::STAGE2_US),
            replay_busy_us: reg.counter(names::REPLAY_BUSY_US),
            commit_busy_us: reg.counter(names::COMMIT_BUSY_US),
            ingest_retries: reg.counter(names::INGEST_RETRIES),
            checksum_failures: reg.counter(names::CHECKSUM_FAILURES),
            epoch_gaps: reg.counter(names::EPOCH_GAPS),
            ingest_stalls: reg.counter(names::INGEST_STALLS),
            quarantined: reg.gauge(names::QUARANTINED_GROUPS),
            ingest_bps: reg.gauge(names::INGEST_BYTES_PER_SEC),
            cell_recycled: reg.counter(names::CELL_RECYCLED),
            cell_allocated: reg.counter(names::CELL_ALLOCATED),
            regroups: reg.counter(names::ADAPT_REGROUPS),
            resplits: reg.counter(names::ADAPT_RESPLITS),
            reconf_rejected: reg.counter(names::ADAPT_REJECTED),
        }
    }
}

/// The engine's current grouping, paired with the generation it was
/// installed under so admission gids can carry their provenance.
#[derive(Debug)]
struct VersionedGrouping {
    gen: u64,
    grouping: Arc<TableGrouping>,
}

/// The AETS replay engine.
#[derive(Debug)]
pub struct AetsEngine {
    cfg: AetsConfig,
    grouping: RwLock<VersionedGrouping>,
    /// A `SetThreadSplit` pin; `None` restores the per-epoch solver.
    pinned_split: Mutex<Option<Vec<usize>>>,
    reconf: ReconfigureHandle,
    quarantine: Quarantine,
    telemetry: Arc<Telemetry>,
    stats: EngineStats,
}

/// Builds an [`AetsEngine`]: the single construction path —
/// `AetsEngine::builder(grouping).config(cfg).build()`, with
/// `.telemetry(..)` chained for an instrumented engine.
pub struct AetsEngineBuilder {
    cfg: AetsConfig,
    grouping: TableGrouping,
    telemetry: Option<Arc<Telemetry>>,
}

impl AetsEngineBuilder {
    /// Replaces the default [`AetsConfig`].
    pub fn config(mut self, cfg: AetsConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Attaches a telemetry instance the replay path feeds: epoch / txn /
    /// entry / byte counters, per-epoch dispatch and stage-wall
    /// histograms, ingest-resync counters, quarantine gauge and events.
    /// Share the same instance with the visibility board (via
    /// [`crate::VisibilityBoard::builder`]) so freshness lands in the
    /// same registry.
    pub fn telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Finishes the engine. Fails on an invalid config (zero threads).
    pub fn build(self) -> Result<AetsEngine> {
        if self.cfg.threads == 0 {
            return Err(Error::Config("threads must be positive".into()));
        }
        let telemetry = self.telemetry.unwrap_or_else(|| Arc::new(Telemetry::disabled()));
        let quarantine = Quarantine::new(self.grouping.num_groups());
        let stats = EngineStats::new(&telemetry);
        let reconf = ReconfigureHandle::new(self.grouping.num_groups(), self.grouping.num_tables());
        Ok(AetsEngine {
            cfg: self.cfg,
            grouping: RwLock::new(VersionedGrouping { gen: 0, grouping: Arc::new(self.grouping) }),
            pinned_split: Mutex::new(None),
            reconf,
            quarantine,
            telemetry,
            stats,
        })
    }
}

impl AetsEngine {
    /// Starts building an engine over `grouping` (default config,
    /// telemetry disabled).
    pub fn builder(grouping: TableGrouping) -> AetsEngineBuilder {
        AetsEngineBuilder { cfg: AetsConfig::default(), grouping, telemetry: None }
    }

    /// The engine's telemetry instance (disabled unless one was attached
    /// via [`AetsEngineBuilder::telemetry`]).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Board indices of the groups quarantined so far (ascending); empty
    /// while the engine is healthy.
    pub fn quarantined_groups(&self) -> Vec<usize> {
        self.quarantine.poisoned()
    }

    /// The ungrouped TPLR baseline: one group, no staging.
    pub fn tplr_baseline(
        threads: usize,
        num_tables: usize,
        hot_tables: &aets_common::FxHashSet<TableId>,
    ) -> Result<Self> {
        let grouping = TableGrouping::single(num_tables, hot_tables);
        let mut eng = Self::builder(grouping)
            .config(AetsConfig { threads, two_stage: false, ..Default::default() })
            .build()?;
        eng.cfg.adaptive = false;
        Ok(eng)
    }

    /// A snapshot of the engine's current table grouping. Live
    /// reconfiguration means the grouping can change between calls; a
    /// caller that maps tables to groups for admission must pair the
    /// snapshot with its generation via
    /// [`AetsEngine::grouping_versioned`].
    pub fn grouping(&self) -> Arc<TableGrouping> {
        self.grouping.read().grouping.clone()
    }

    /// The current grouping together with the generation it was
    /// installed under, read atomically. Admission gids computed from
    /// the snapshot should be waited on with
    /// [`crate::VisibilityBoard::wait_admission_at`] carrying this
    /// generation: if a regroup lands in between, the stale generation
    /// demotes the wait to the (always-correct) global-watermark path.
    pub fn grouping_versioned(&self) -> (u64, Arc<TableGrouping>) {
        let g = self.grouping.read();
        (g.gen, g.grouping.clone())
    }

    /// The generation of the currently installed grouping (0 until the
    /// first live regroup).
    pub fn grouping_gen(&self) -> u64 {
        self.grouping.read().gen
    }

    /// The sender half of the engine's live reconfiguration channel.
    pub fn reconfigure_handle(&self) -> ReconfigureHandle {
        self.reconf.clone()
    }

    /// Drains the reconfiguration queue at an epoch boundary and returns
    /// the plan — grouping, generation, pinned split — the next epoch is
    /// dispatched and replayed under. Runs on the dispatching side of
    /// the datapath, which is the only place a grouping swap is safe:
    /// between epochs no commit queue holds work and every healthy
    /// watermark sits at the previous epoch's `max_commit_ts`.
    fn apply_pending(&self, at_seq: u64) -> EpochPlan {
        let drained: Vec<Reconfigure> = {
            let mut q = self.reconf.inner.queue.lock();
            if q.is_empty() {
                Vec::new()
            } else {
                q.drain(..).collect()
            }
        };
        let (mut regroups, mut resplits, mut rejected) = (0u64, 0u64, 0u64);
        for cmd in drained {
            match cmd {
                Reconfigure::SetThreadSplit(split) => {
                    self.telemetry.event(EventKind::ThreadSplit { at_seq, split: split.clone() });
                    *self.pinned_split.lock() = Some(split);
                    resplits += 1;
                }
                Reconfigure::Regroup(g) => {
                    if self.quarantine.any() {
                        // Dropped, not deferred: the controller re-plans
                        // from fresh telemetry every window, so a stale
                        // plan must not fire when quarantine lifts.
                        rejected += 1;
                        continue;
                    }
                    let mut cur = self.grouping.write();
                    let moved = (0..g.num_tables())
                        .map(|t| TableId::new(t as u32))
                        .filter(|&t| g.group_of(t) != cur.grouping.group_of(t))
                        .count();
                    cur.gen += 1;
                    cur.grouping = Arc::new(g);
                    let groups = cur.grouping.num_groups();
                    drop(cur);
                    self.telemetry.event(EventKind::Regroup {
                        at_seq,
                        groups,
                        moved_tables: moved,
                    });
                    regroups += 1;
                }
            }
        }
        if regroups + resplits + rejected > 0 {
            self.telemetry.spans().point(at_seq, stages::RECONFIGURE, None, None);
            self.reconf.inner.applied.fetch_add(regroups + resplits, Ordering::Release);
            self.stats.regroups.add(regroups);
            self.stats.resplits.add(resplits);
            self.stats.reconf_rejected.add(rejected);
        }
        let cur = self.grouping.read();
        EpochPlan {
            gen: cur.gen,
            grouping: cur.grouping.clone(),
            split: self.pinned_split.lock().clone(),
            regroups,
            resplits,
            rejected,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_stage(
        &self,
        seq: u64,
        parent: Option<SpanId>,
        work: &DispatchedEpoch,
        stage_groups: &[GroupId],
        alloc: &[usize],
        pools: &[CellPool],
        db: &MemDb,
        board: &VisibilityBoard,
        replay_busy_ns: &AtomicU64,
        commit_busy_ns: &AtomicU64,
    ) {
        let quarantine = &self.quarantine;
        let ring = self.telemetry.spans();
        std::thread::scope(|scope| {
            for &gid in stage_groups {
                // A quarantined group gets no further work: its watermark
                // stays frozen at the last consistent commit.
                if quarantine.is_poisoned(gid) {
                    continue;
                }
                let gw = work.group(gid);
                if gw.mini_txns.is_empty() {
                    continue;
                }
                let workers = alloc[gid.index()];
                let pool = &pools[gid.index()];
                let queue = Arc::new(CommitQueue::new(gw.mini_txns.len()));
                for _ in 0..workers {
                    let queue = queue.clone();
                    scope.spawn(move || {
                        let t0 = Instant::now();
                        // One translate span per worker per (stage, group):
                        // the merged timeline shows how long each worker
                        // spent in phase 1 for this epoch.
                        let tspan = ring.begin(seq, stages::TRANSLATE, Some(gid.index()), parent);
                        while let Some(i) = queue.claim() {
                            let mt = &gw.mini_txns[i];
                            // Contained per mini-txn so a failure (or
                            // panic) still fills this slot and the worker
                            // keeps claiming later ones — every slot gets
                            // an outcome, so the commit thread never
                            // blocks on a task nobody will finish.
                            let res = catch_unwind(AssertUnwindSafe(|| -> Result<Vec<Cell>> {
                                let mut cells = pool.take(mt.entry_ranges.len());
                                for r in &mt.entry_ranges {
                                    cells.push(translate_entry(db, &work.bytes, r.clone())?);
                                }
                                Ok(cells)
                            }))
                            .unwrap_or_else(|p| Err(panic_error("phase-1 worker", p)));
                            queue.finish(i, res);
                        }
                        if let Some(s) = tspan {
                            s.finish(ring);
                        }
                        replay_busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    });
                }
                // The group's single commit thread (phase 2).
                let state_c = queue.clone();
                scope.spawn(move || {
                    // Busy time excludes blocking on phase-1 workers: the
                    // Table II breakdown measures work, not waiting.
                    let mut busy_ns = 0u64;
                    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<()> {
                        // Head-of-line commit-queue wait, then the ordered
                        // apply: the wait span closes when the first
                        // slot's cells are in hand and the apply span
                        // covers the rest of the commit loop. A failure
                        // mid-loop drops the open span — only completed
                        // steps are recorded.
                        let mut wait_span =
                            ring.begin(seq, stages::COMMIT_WAIT, Some(gid.index()), parent);
                        let mut apply_span: Option<OpenSpan> = None;
                        for i in 0..gw.mini_txns.len() {
                            let mt = &gw.mini_txns[i];
                            let mut cells = if workers == 0 {
                                // Degenerate path under thread scarcity:
                                // the commit thread translates inline.
                                let mut cells = pool.take(mt.entry_ranges.len());
                                for r in &mt.entry_ranges {
                                    cells.push(translate_entry(db, &work.bytes, r.clone())?);
                                }
                                cells
                            } else {
                                state_c.wait_take(i)?
                            };
                            if let Some(w) = wait_span.take() {
                                w.finish(ring);
                                apply_span =
                                    ring.begin(seq, stages::APPLY, Some(gid.index()), parent);
                            }
                            let t0 = Instant::now();
                            for cell in cells.drain(..) {
                                commit_cell(cell, mt.commit_ts);
                            }
                            board.publish_group(gid, mt.commit_ts);
                            busy_ns += t0.elapsed().as_nanos() as u64;
                            // The drained buffer goes back to the group's
                            // free list for the next epoch's workers.
                            pool.put(cells);
                        }
                        if let Some(a) = apply_span.take() {
                            a.finish(ring);
                        }
                        Ok(())
                    }));
                    commit_busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
                    // An error or contained panic quarantines this group;
                    // no watermark it already published is retracted (the
                    // committed prefix is fully installed and consistent),
                    // it just never advances again.
                    match outcome {
                        Ok(Ok(())) => {}
                        Ok(Err(e)) => quarantine.poison(gid, e),
                        Err(p) => quarantine.poison(gid, panic_error("commit thread", p)),
                    }
                });
            }
        });
        // Stage barrier passed: every write this epoch routed to a healthy
        // group is installed, so each healthy group is complete up to the
        // epoch's high-water mark. Groups poisoned during the stage stay
        // at their last consistent commit.
        for &gid in stage_groups {
            if !quarantine.is_poisoned(gid) {
                board.publish_group(gid, work.max_commit_ts);
                // Point span at the barrier publish (not the hot
                // per-mini-txn watermark bumps): the timeline shows when
                // the group's epoch-final `tg_cmt_ts` became visible.
                ring.point(seq, stages::FLIP_GROUP, Some(gid.index()), parent);
            }
        }
    }

    /// Replays one dispatched epoch: rate refresh, thread allocation, the
    /// two replay stages, and the global visibility publish. This is the
    /// consumer side of the dispatch pipeline; calling it strictly in
    /// epoch order is what upholds the epoch-barrier invariant.
    #[allow(clippy::too_many_arguments)]
    fn replay_epoch(
        &self,
        eidx: usize,
        seq: u64,
        parent: Option<SpanId>,
        plan: &EpochPlan,
        work: &DispatchedEpoch,
        pools: &[CellPool],
        db: &MemDb,
        board: &VisibilityBoard,
        replay_busy: &AtomicU64,
        commit_busy: &AtomicU64,
        m: &mut ReplayMetrics,
    ) -> Result<()> {
        let grouping = &plan.grouping;
        // The previous epoch is fully replayed (this loop is strictly
        // in-order), so every healthy watermark covers the whole
        // database: now is the safe moment to tell the board that gids
        // computed under older groupings are stale. `fetch_max` makes
        // replays of old plans harmless.
        board.advance_grouping_gen(plan.gen);
        m.regroups_applied += plan.regroups;
        m.resplits_applied += plan.resplits;
        m.reconf_rejected += plan.rejected;

        // Refresh group rates if a predictor drives them.
        let rates: Vec<f64> = match &self.cfg.rate_fn {
            Some(f) => f(eidx),
            None => {
                (0..grouping.num_groups() as u32).map(|g| grouping.rate(GroupId::new(g))).collect()
            }
        };
        if rates.len() != grouping.num_groups() {
            return Err(Error::Config("rate_fn returned wrong length".into()));
        }

        let pending = work.pending_bytes();
        let alloc = if let Some(split) = &plan.split {
            // A live `SetThreadSplit` pins the allocation; the λ·n
            // solver resumes when the pin is replaced or the controller
            // clears it.
            split.clone()
        } else if self.cfg.adaptive {
            allocate_threads(self.cfg.threads, &pending, &rates, self.cfg.urgency)?
        } else {
            even_allocation(self.cfg.threads, &pending)
        };

        let stages: Vec<Vec<GroupId>> = if self.cfg.two_stage {
            vec![grouping.hot_groups(), grouping.cold_groups()]
        } else {
            vec![(0..grouping.num_groups() as u32).map(GroupId::new).collect()]
        };

        // Quarantine set before the stages run, so newly poisoned groups
        // can be diffed into events afterwards. Skipped entirely when
        // telemetry is off — this is the only per-epoch lock it adds.
        let pre_quarantine =
            if self.telemetry.is_enabled() { Some(self.quarantine.poisoned()) } else { None };

        for (sidx, stage_groups) in stages.iter().enumerate() {
            if stage_groups.is_empty() {
                continue;
            }
            let t_stage = Instant::now();
            self.run_stage(
                seq,
                parent,
                work,
                stage_groups,
                &alloc,
                pools,
                db,
                board,
                replay_busy,
                commit_busy,
            );
            let elapsed = t_stage.elapsed();
            if self.cfg.two_stage && sidx == 0 {
                m.stage1_wall += elapsed;
                self.stats.stage1_us.record_micros(elapsed.as_micros() as u64);
            } else {
                m.stage2_wall += elapsed;
                self.stats.stage2_us.record_micros(elapsed.as_micros() as u64);
            }
        }

        if let Some(before) = pre_quarantine {
            let after = self.quarantine.poisoned();
            if after.len() > before.len() {
                for &g in after.iter().filter(|g| !before.contains(g)) {
                    self.telemetry.event(EventKind::GroupQuarantined { group: g });
                }
                if before.is_empty() {
                    self.telemetry.event(EventKind::DegradedEntered { groups: after.clone() });
                }
            }
            self.stats.quarantined.set(after.len() as u64);
        }

        // Mirror the quarantine ledger onto the board so admission waiters
        // over a frozen group fail fast instead of sleeping out their
        // timeout (the board wakes exactly the waiters this decides).
        if self.quarantine.any() {
            board.set_quarantined(&self.quarantine.poisoned());
        }

        // Algorithm 3 admits a query when `global_cmt_ts >= qts` *without*
        // consulting per-group watermarks, so the global may only advance
        // while every group is healthy: with any group quarantined it
        // freezes at the last fully-consistent epoch, and queries over the
        // frozen group block (or time out) instead of reading past it.
        if !self.quarantine.any() {
            board.publish_global(work.max_commit_ts);
            self.telemetry.spans().point(seq, stages::FLIP_GLOBAL, None, parent);
        }
        let entries = work.groups.iter().map(|g| g.entries).sum::<usize>();
        m.txns += work.txn_count;
        m.entries += entries;
        m.bytes += work.bytes.len() as u64;
        m.epochs += 1;
        self.stats.txns.add(work.txn_count as u64);
        self.stats.entries.add(entries as u64);
        self.stats.bytes.add(work.bytes.len() as u64);
        self.stats.epochs.inc();
        Ok(())
    }

    /// Replays every epoch `source` delivers, running the ingest resync
    /// loop in front of the dispatcher: each delivery is CRC- and
    /// sequence-checked and re-requested under `cfg.retry` before it
    /// reaches replay. [`ReplayEngine::replay`] is this over a faithful
    /// in-memory source; pass a `FaultInjector` to exercise recovery.
    ///
    /// Returns an error when ingest or dispatch cannot make progress
    /// (retries exhausted on a fatal delivery fault). Group-level replay
    /// failures do *not* error: the group is quarantined, the run
    /// completes degraded, and `ReplayMetrics::quarantined_groups` /
    /// [`AetsEngine::quarantined_groups`] report it.
    pub fn replay_stream(
        &self,
        source: &mut dyn EpochSource,
        db: &MemDb,
        board: &VisibilityBoard,
    ) -> Result<ReplayMetrics> {
        // The group count is a construction-time invariant: live regroups
        // move tables between groups but never change how many there are.
        let num_groups = self.grouping.read().grouping.num_groups();
        if board.num_groups() != num_groups {
            return Err(Error::Config("board group count mismatch".into()));
        }
        let start = Instant::now();
        let mut m = ReplayMetrics { engine: self.name(), ..Default::default() };
        let mut ingest = IngestStats::default();
        let replay_busy = AtomicU64::new(0);
        let commit_busy = AtomicU64::new(0);
        let pools: Vec<CellPool> = (0..num_groups).map(|_| CellPool::new()).collect();
        let first_seq = source.first_seq();
        let n = source.num_epochs();

        // A dispatcher thread ingests and scans epochs ahead of the replay
        // loop, bounded by `PIPELINE_DEPTH` in-flight dispatched epochs.
        // The channel is FIFO and the loop below finishes epoch e (both
        // stages + global publish) before receiving e+1's work, so no
        // entry of epoch e+1 can commit before epoch e is fully replayed —
        // the dispatcher overlap never weakens the epoch barrier.
        let retry = self.cfg.retry.clone();
        let mut result: Result<()> = Ok(());
        std::thread::scope(|scope| {
            let (tx, rx) = crossbeam::channel::bounded(PIPELINE_DEPTH);
            let engine = self;
            let ring = self.telemetry.spans();
            scope.spawn(move || {
                for eidx in 0..n {
                    let seq = first_seq + eidx as u64;
                    // Epoch boundary on the dispatching side: the plan
                    // crosses the channel with the work, so epoch e+1 can
                    // be dispatched under a newer grouping while epoch e
                    // still replays under the old one.
                    let plan = engine.apply_pending(seq);
                    let mut stats = IngestStats::default();
                    let t_dispatch = Instant::now();
                    // The dispatch span roots the epoch's engine-side
                    // trace tree: it is recorded here and its id crosses
                    // the channel with the work, so every translate /
                    // commit / flip span downstream parents to it.
                    let mut parent: Option<SpanId> = None;
                    // Contained so a dispatcher panic surfaces to the
                    // replay loop as an error instead of escaping through
                    // the scope join.
                    let grouping = plan.grouping.clone();
                    let work = catch_unwind(AssertUnwindSafe(|| {
                        ingest_epoch(&mut *source, seq, &retry, &mut stats).and_then(|epoch| {
                            let dspan = ring.begin(seq, stages::DISPATCH, None, None);
                            let out = dispatch_epoch(&epoch, &grouping);
                            if out.is_ok() {
                                parent = dspan.map(|s| {
                                    let id = s.id();
                                    s.finish(ring);
                                    id
                                });
                            }
                            out
                        })
                    }))
                    .unwrap_or_else(|p| Err(panic_error("dispatcher", p)));
                    let stop = work.is_err();
                    // A send error means the replay loop bailed out and
                    // dropped the receiver; a dispatch error is forwarded
                    // first, then the dispatcher stops.
                    if tx.send((work, stats, t_dispatch.elapsed(), parent, plan)).is_err() || stop {
                        break;
                    }
                }
            });
            for (eidx, (work, stats, dispatch_time, parent, plan)) in rx.iter().enumerate() {
                // Dispatcher busy time is overlapped with replay; it still
                // counts as busy time in the Table II breakdown, which
                // measures work, not the critical path.
                ingest.merge(&stats);
                m.dispatch_busy += dispatch_time;
                self.stats.dispatch_us.record_micros(dispatch_time.as_micros() as u64);
                let seq = first_seq + eidx as u64;
                if work.is_ok() {
                    self.telemetry.event(EventKind::EpochDispatched { seq });
                }
                let step = work.and_then(|work| {
                    self.replay_epoch(
                        eidx,
                        seq,
                        parent,
                        &plan,
                        &work,
                        &pools,
                        db,
                        board,
                        &replay_busy,
                        &commit_busy,
                        &mut m,
                    )
                    .map(|()| work.max_commit_ts)
                });
                match step {
                    Ok(max_commit_ts) => {
                        self.telemetry.event(EventKind::EpochCommitted {
                            seq,
                            max_commit_ts_us: max_commit_ts.as_micros(),
                        });
                        self.telemetry.spans().set_epoch_hint(seq);
                    }
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
            // Dropping the receiver (scope end) unblocks a dispatcher stuck
            // in `send` after an early exit above.
        });
        result?;

        m.ingest_retries = ingest.retries;
        m.checksum_failures = ingest.checksum_failures;
        m.epoch_gaps = ingest.epoch_gaps;
        m.ingest_stalls = ingest.stalls;
        m.quarantined_groups = self.quarantine.poisoned();
        m.cell_buffers_recycled = pools.iter().map(|p| p.recycled()).sum();
        m.cell_buffers_allocated = pools.iter().map(|p| p.allocated()).sum();
        m.replay_busy = std::time::Duration::from_nanos(replay_busy.load(Ordering::Relaxed));
        m.commit_busy = std::time::Duration::from_nanos(commit_busy.load(Ordering::Relaxed));
        m.wall = start.elapsed();
        // Wall-normalised throughput of this call; single-epoch calls from
        // the realtime runner overwrite it each tick, so the gauge always
        // reads the most recent ingest rate.
        let wall_us = m.wall.as_micros() as u64;
        if let Some(bps) = m.bytes.saturating_mul(1_000_000).checked_div(wall_us) {
            self.stats.ingest_bps.set(bps);
        }
        // Per-call deltas feed the cumulative registry counters: the
        // realtime runner calls `replay` once per epoch through the same
        // engine, so the registry integrates what ReplayMetrics reports
        // per call.
        self.stats.ingest_retries.add(ingest.retries);
        self.stats.checksum_failures.add(ingest.checksum_failures);
        self.stats.epoch_gaps.add(ingest.epoch_gaps);
        self.stats.ingest_stalls.add(ingest.stalls);
        self.stats.cell_recycled.add(m.cell_buffers_recycled);
        self.stats.cell_allocated.add(m.cell_buffers_allocated);
        self.stats.replay_busy_us.add(m.replay_busy.as_micros() as u64);
        self.stats.commit_busy_us.add(m.commit_busy.as_micros() as u64);
        Ok(m)
    }
}

/// Pads a value to its own cache line so the producer- and consumer-side
/// cursors of a [`CommitQueue`] never false-share.
#[repr(align(64))]
struct CachePadded<T>(T);

const SLOT_EMPTY: u8 = 0;
const SLOT_READY: u8 = 1;

/// How long the commit thread spins on the head slot before parking on
/// the condvar. Translating one mini-txn is a few µs of work, so a short
/// spin absorbs almost every wait without burning a futex syscall.
const SPIN_LIMIT: u32 = 128;

/// Lock-free in-order commit queue of one group's replay within a stage
/// (the phase-1→phase-2 edge; DESIGN.md §11 "Ingest hot path").
///
/// Phase-1 workers claim mini-txn indices from the cache-line-padded
/// `tail` cursor and publish each translation outcome into its slot with
/// a single release-store; the group's single commit thread — the unique
/// consumer — walks the padded `head` cursor strictly in mini-txn order
/// with acquire-loads. The hand-off hot path is entirely atomic: no
/// mutex, no condvar. The condvar only backs the consumer's *parked*
/// fallback after a bounded spin, preserving the blocking semantics of
/// the mutexed slot protocol this replaces (and its integration with
/// quarantine supervision: failed or panic-contained translations travel
/// through the slots as `Err` outcomes exactly as before).
///
/// Safety of the `UnsafeCell` payloads: slot `i` is written exactly
/// once, by the unique worker whose `claim()` returned `i`, strictly
/// before its `SLOT_READY` release-store; the consumer reads it exactly
/// once, strictly after acquire-loading `SLOT_READY`, and `head` never
/// revisits an index. The release/acquire pair on `state` orders the
/// payload write before the payload read.
#[doc(hidden)] // public only for `examples/ingest_bench.rs`
pub struct CommitQueue {
    /// Producer claim cursor: workers hammer it with `fetch_add`.
    tail: CachePadded<AtomicUsize>,
    /// Consumer position, padded away from `tail` and the slots.
    head: CachePadded<AtomicUsize>,
    slots: Box<[CommitSlot]>,
    /// 1 while the consumer is parked on `cv`; producers skip the mutex
    /// entirely whenever it is 0 (the common case).
    parked: AtomicUsize,
    mx: Mutex<()>,
    cv: Condvar,
}

struct CommitSlot {
    state: AtomicU8,
    /// The translation outcome: cells on success, the worker's (typed or
    /// panic-contained) failure otherwise.
    cells: UnsafeCell<Result<Vec<Cell>>>,
}

// SAFETY: cross-thread access to `cells` is mediated by `state` as
// described on [`CommitQueue`].
unsafe impl Sync for CommitSlot {}

impl CommitQueue {
    #[doc(hidden)]
    pub fn new(n: usize) -> Self {
        Self {
            tail: CachePadded(AtomicUsize::new(0)),
            head: CachePadded(AtomicUsize::new(0)),
            slots: (0..n)
                .map(|_| CommitSlot {
                    state: AtomicU8::new(SLOT_EMPTY),
                    cells: UnsafeCell::new(Ok(Vec::new())),
                })
                .collect(),
            parked: AtomicUsize::new(0),
            mx: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Worker: claims the next untranslated mini-txn index, or `None`
    /// once the stage is exhausted.
    pub fn claim(&self) -> Option<usize> {
        let i = self.tail.0.fetch_add(1, Ordering::Relaxed);
        (i < self.slots.len()).then_some(i)
    }

    /// Worker: publishes the translation outcome of mini-txn `i`.
    pub fn finish(&self, i: usize, cells: Result<Vec<Cell>>) {
        let slot = &self.slots[i];
        // SAFETY: unique writer of slot `i` (see type docs); the consumer
        // is excluded until the release-store below.
        unsafe { *slot.cells.get() = cells };
        slot.state.store(SLOT_READY, Ordering::Release);
        // Dekker hand-off with `wait_take`'s park path: the fences order
        // this READY store against the consumer's `parked` store, so
        // either this load observes the consumer parked (and takes the
        // mutex to wake it), or the consumer's re-check after its own
        // fence observes READY and never sleeps. Without the fences both
        // loads could see stale values and the wakeup would be lost.
        std::sync::atomic::fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) != 0 {
            let _g = self.mx.lock();
            self.cv.notify_all();
        }
    }

    /// Commit thread: blocks until mini-txn `i` — which must be the next
    /// in-order index — is translated, then takes its outcome.
    pub fn wait_take(&self, i: usize) -> Result<Vec<Cell>> {
        debug_assert_eq!(self.head.0.load(Ordering::Relaxed), i, "single in-order consumer");
        let slot = &self.slots[i];
        let mut spins = 0u32;
        while slot.state.load(Ordering::Acquire) != SLOT_READY {
            if spins < SPIN_LIMIT {
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            let mut g = self.mx.lock();
            self.parked.store(1, Ordering::Relaxed);
            std::sync::atomic::fence(Ordering::SeqCst);
            while slot.state.load(Ordering::Acquire) != SLOT_READY {
                self.cv.wait(&mut g);
            }
            self.parked.store(0, Ordering::Relaxed);
            break;
        }
        self.head.0.store(i + 1, Ordering::Relaxed);
        // SAFETY: `SLOT_READY` acquired above; `head` has moved past `i`,
        // so this is the slot's unique (and final) reader.
        unsafe { std::mem::replace(&mut *slot.cells.get(), Ok(Vec::new())) }
    }
}

impl ReplayEngine for AetsEngine {
    fn name(&self) -> &'static str {
        if self.grouping.read().grouping.num_groups() == 1 && !self.cfg.two_stage {
            "tplr"
        } else {
            "aets"
        }
    }

    fn board_groups(&self) -> usize {
        self.grouping.read().grouping.num_groups()
    }

    fn board_groups_for(&self, tables: &[TableId]) -> Vec<GroupId> {
        self.grouping.read().grouping.groups_of(tables)
    }

    fn board_groups_for_at(&self, tables: &[TableId]) -> (u64, Vec<GroupId>) {
        let g = self.grouping.read();
        (g.gen, g.grouping.groups_of(tables))
    }

    fn reconfigure(&self) -> Option<ReconfigureHandle> {
        Some(self.reconf.clone())
    }

    fn current_grouping(&self) -> Option<Arc<TableGrouping>> {
        Some(self.grouping())
    }

    fn replay(
        &self,
        epochs: &[EncodedEpoch],
        db: &MemDb,
        board: &VisibilityBoard,
    ) -> Result<ReplayMetrics> {
        // A faithful in-memory feed: re-requests redeliver the same bytes,
        // so the resync loop in front of dispatch sees no faults.
        let mut source = SliceSource::new(epochs);
        self.replay_stream(&mut source, db, board)
    }

    fn telemetry_handle(&self) -> Option<Arc<Telemetry>> {
        Some(self.telemetry.clone())
    }
}

/// Even split of threads across groups with pending work (the
/// non-adaptive baseline allocation).
fn even_allocation(total: usize, pending: &[u64]) -> Vec<usize> {
    let working: Vec<usize> = (0..pending.len()).filter(|i| pending[*i] > 0).collect();
    let mut out = vec![0usize; pending.len()];
    if working.is_empty() {
        return out;
    }
    let per = (total / working.len()).max(1);
    let mut left = total;
    for &i in &working {
        let n = per.min(left);
        out[i] = n;
        left -= n;
        if left == 0 {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::serial::SerialEngine;
    use aets_common::{FxHashSet, Timestamp};
    use aets_workloads::tpcc::{self, TpccConfig};
    use aets_workloads::Workload;

    fn encode(w: &Workload, epoch_size: usize) -> Vec<EncodedEpoch> {
        aets_wal::batch_into_epochs(w.txns.clone(), epoch_size)
            .unwrap()
            .iter()
            .map(aets_wal::encode_epoch)
            .collect()
    }

    fn tpcc_grouping(w: &Workload) -> TableGrouping {
        let (groups, rates) = tpcc::paper_grouping();
        TableGrouping::new(w.table_names.len(), groups, rates, &w.analytic_tables).unwrap()
    }

    #[test]
    fn aets_matches_serial_oracle() {
        let w = tpcc::generate(&TpccConfig { num_txns: 800, warehouses: 2, ..Default::default() });
        let epochs = encode(&w, 128);

        let db_serial = MemDb::new(w.table_names.len());
        SerialEngine.replay_all(&epochs, &db_serial).unwrap();

        let eng = AetsEngine::builder(tpcc_grouping(&w))
            .config(AetsConfig { threads: 4, ..Default::default() })
            .build()
            .unwrap();
        let db = MemDb::new(w.table_names.len());
        let m = eng.replay_all(&epochs, &db).unwrap();

        assert_eq!(m.txns, w.txns.len());
        assert!(db.all_chains_ordered());
        assert_eq!(db.digest_at(Timestamp::MAX), db_serial.digest_at(Timestamp::MAX));
        // Snapshot equality must hold at intermediate timestamps too.
        let mid = w.txns[w.txns.len() / 2].commit_ts;
        assert_eq!(db.digest_at(mid), db_serial.digest_at(mid));
    }

    #[test]
    fn tplr_baseline_matches_serial() {
        let w = tpcc::generate(&TpccConfig { num_txns: 600, warehouses: 2, ..Default::default() });
        let epochs = encode(&w, 200);
        let db_serial = MemDb::new(w.table_names.len());
        SerialEngine.replay_all(&epochs, &db_serial).unwrap();

        let eng = AetsEngine::tplr_baseline(4, w.table_names.len(), &w.analytic_tables).unwrap();
        assert_eq!(eng.name(), "tplr");
        let db = MemDb::new(w.table_names.len());
        eng.replay_all(&epochs, &db).unwrap();
        assert_eq!(db.digest_at(Timestamp::MAX), db_serial.digest_at(Timestamp::MAX));
    }

    #[test]
    fn hot_groups_become_visible_before_epoch_ends() {
        // With two-stage replay, after replay the hot groups' tg_cmt_ts
        // must equal the last epoch's max commit ts.
        let w = tpcc::generate(&TpccConfig { num_txns: 400, warehouses: 2, ..Default::default() });
        let epochs = encode(&w, 100);
        let eng = AetsEngine::builder(tpcc_grouping(&w))
            .config(AetsConfig { threads: 2, ..Default::default() })
            .build()
            .unwrap();
        let db = MemDb::new(w.table_names.len());
        let board = VisibilityBoard::builder(eng.board_groups()).build();
        eng.replay(&epochs, &db, &board).unwrap();
        let last = epochs.last().unwrap().max_commit_ts;
        for g in 0..eng.board_groups() as u32 {
            assert!(board.tg_cmt_ts(GroupId::new(g)) >= last, "group {g} lagging");
        }
        assert_eq!(board.global_cmt_ts(), last);
    }

    #[test]
    fn single_thread_still_completes() {
        let w = tpcc::generate(&TpccConfig { num_txns: 300, warehouses: 2, ..Default::default() });
        let epochs = encode(&w, 64);
        let eng = AetsEngine::builder(tpcc_grouping(&w))
            .config(AetsConfig { threads: 1, ..Default::default() })
            .build()
            .unwrap();
        let db = MemDb::new(w.table_names.len());
        let m = eng.replay_all(&epochs, &db).unwrap();
        assert_eq!(m.txns, w.txns.len());
        assert!(db.all_chains_ordered());
    }

    #[test]
    fn non_adaptive_and_single_stage_paths_work() {
        let w = tpcc::generate(&TpccConfig { num_txns: 300, warehouses: 2, ..Default::default() });
        let epochs = encode(&w, 64);
        let db_serial = MemDb::new(w.table_names.len());
        SerialEngine.replay_all(&epochs, &db_serial).unwrap();
        for (two_stage, adaptive) in [(false, true), (true, false), (false, false)] {
            let eng = AetsEngine::builder(tpcc_grouping(&w))
                .config(AetsConfig { threads: 3, two_stage, adaptive, ..Default::default() })
                .build()
                .unwrap();
            let db = MemDb::new(w.table_names.len());
            eng.replay_all(&epochs, &db).unwrap();
            assert_eq!(
                db.digest_at(Timestamp::MAX),
                db_serial.digest_at(Timestamp::MAX),
                "two_stage={two_stage} adaptive={adaptive}"
            );
        }
    }

    #[test]
    fn rate_fn_drives_allocation() {
        let w = tpcc::generate(&TpccConfig { num_txns: 200, warehouses: 2, ..Default::default() });
        let epochs = encode(&w, 64);
        let n_groups = tpcc_grouping(&w).num_groups();
        let rate_fn: RateFn = Arc::new(move |_eidx| vec![5.0; n_groups]);
        let eng = AetsEngine::builder(tpcc_grouping(&w))
            .config(AetsConfig { threads: 2, rate_fn: Some(rate_fn), ..Default::default() })
            .build()
            .unwrap();
        let db = MemDb::new(w.table_names.len());
        let m = eng.replay_all(&epochs, &db).unwrap();
        assert!(m.entries > 0);
    }

    #[test]
    fn rejects_bad_configs() {
        let hot: FxHashSet<TableId> = FxHashSet::default();
        let g = TableGrouping::single(2, &hot);
        assert!(AetsEngine::builder(g)
            .config(AetsConfig { threads: 0, ..Default::default() })
            .build()
            .is_err());
    }

    /// Replays `epochs` through `eng` in consecutive `replay` calls of
    /// `per_call` epochs each (the realtime runner's shape at 1, a batch
    /// run's at `epochs.len()`), folding the per-call metrics.
    fn replay_in_calls(
        eng: &AetsEngine,
        epochs: &[EncodedEpoch],
        per_call: usize,
        db: &MemDb,
        board: &VisibilityBoard,
    ) -> ReplayMetrics {
        let mut total = ReplayMetrics::default();
        for chunk in epochs.chunks(per_call) {
            total.absorb(&eng.replay(chunk, db, board).unwrap());
        }
        total
    }

    #[test]
    fn replay_call_granularity_matches_serial_oracle() {
        // However the stream is cut into `replay` calls, the dispatcher
        // pipeline must produce state identical to the serial oracle at
        // the final and a mid-stream snapshot.
        let w = tpcc::generate(&TpccConfig { num_txns: 600, warehouses: 2, ..Default::default() });
        let epochs = encode(&w, 96);
        let db_oracle = MemDb::new(w.table_names.len());
        SerialEngine.replay_all(&epochs, &db_oracle).unwrap();
        let mid = w.txns[w.txns.len() / 2].commit_ts;

        for per_call in [1, 2, epochs.len()] {
            let eng = AetsEngine::builder(tpcc_grouping(&w))
                .config(AetsConfig { threads: 3, ..Default::default() })
                .build()
                .unwrap();
            let db = MemDb::new(w.table_names.len());
            let board = VisibilityBoard::builder(eng.board_groups()).build();
            let m = replay_in_calls(&eng, &epochs, per_call, &db, &board);
            assert_eq!(m.txns, w.txns.len(), "per_call={per_call}");
            assert!(db.all_chains_ordered(), "per_call={per_call}");
            assert_eq!(
                db.digest_at(Timestamp::MAX),
                db_oracle.digest_at(Timestamp::MAX),
                "per_call={per_call}"
            );
            assert_eq!(db.digest_at(mid), db_oracle.digest_at(mid), "per_call={per_call} mid");
        }
    }

    #[test]
    fn cell_pool_recycles_buffers_across_epochs() {
        // With many epochs, steady-state phase 1 must be served from the
        // free list: recycled takes dominate fresh allocations.
        let w = tpcc::generate(&TpccConfig { num_txns: 1200, warehouses: 2, ..Default::default() });
        let epochs = encode(&w, 64);
        assert!(epochs.len() > 10);
        let eng = AetsEngine::builder(tpcc_grouping(&w))
            .config(AetsConfig { threads: 2, ..Default::default() })
            .build()
            .unwrap();
        let db = MemDb::new(w.table_names.len());
        let m = eng.replay_all(&epochs, &db).unwrap();
        assert!(m.cell_buffers_allocated > 0);
        assert!(
            m.cell_buffers_recycled > m.cell_buffers_allocated,
            "recycled {} should exceed allocated {}",
            m.cell_buffers_recycled,
            m.cell_buffers_allocated
        );
    }

    #[test]
    fn pipelined_dispatch_surfaces_decode_errors() {
        let w = tpcc::generate(&TpccConfig { num_txns: 200, warehouses: 2, ..Default::default() });
        let mut epochs = encode(&w, 64);
        // Truncate the last epoch mid-record: the dispatcher must forward
        // the decode error through the pipeline instead of hanging.
        let last = epochs.last().unwrap();
        let mut b = last.bytes.clone();
        let cut = b.split_to(b.len() - 3);
        let corrupt = aets_wal::EncodedEpoch { bytes: cut, ..last.clone() };
        *epochs.last_mut().unwrap() = corrupt;
        let eng = AetsEngine::builder(tpcc_grouping(&w))
            .config(AetsConfig { threads: 2, ..Default::default() })
            .build()
            .unwrap();
        let db = MemDb::new(w.table_names.len());
        let err = eng.replay_all(&epochs, &db).unwrap_err();
        assert!(matches!(err.kind(), "codec" | "protocol"), "got {err}");
    }

    fn two_group_grouping() -> TableGrouping {
        let hot: FxHashSet<TableId> = [TableId::new(0)].into_iter().collect();
        TableGrouping::new(
            3,
            vec![vec![TableId::new(0), TableId::new(1)], vec![TableId::new(2)]],
            vec![10.0, 1.0],
            &hot,
        )
        .unwrap()
    }

    /// 12 transactions, each writing table 0 (group 0, hot) and table 2
    /// (group 1, cold), batched into 3 epochs of 4.
    fn two_group_epochs() -> Vec<EncodedEpoch> {
        use aets_common::{ColumnId, DmlOp, Lsn, RowKey, TxnId, Value};
        use aets_wal::{DmlEntry, TxnLog};
        let txns: Vec<TxnLog> = (1..=12u64)
            .map(|i| TxnLog {
                txn_id: TxnId::new(i),
                commit_ts: Timestamp::from_micros(i * 10),
                entries: [0u32, 2]
                    .iter()
                    .enumerate()
                    .map(|(j, &table)| DmlEntry {
                        lsn: Lsn::new(i * 10 + j as u64),
                        txn_id: TxnId::new(i),
                        ts: Timestamp::from_micros(i * 10),
                        table: TableId::new(table),
                        op: DmlOp::Insert,
                        key: RowKey::new(i),
                        row_version: 1,
                        cols: vec![(ColumnId::new(0), Value::Int(i as i64))],
                        before: None,
                    })
                    .collect(),
            })
            .collect();
        aets_wal::batch_into_epochs(txns, 4).unwrap().iter().map(aets_wal::encode_epoch).collect()
    }

    /// Flips a bit in the record-CRC trailer of `table`'s first DML and
    /// restamps the frame CRC — the `FaultKind::RecordCorruption` shape:
    /// invisible at ingest, fatal at full record decode.
    fn corrupt_first_dml_of(epoch: &EncodedEpoch, table: TableId) -> EncodedEpoch {
        let range = aets_wal::MetaScanner::new(epoch.bytes.clone())
            .filter_map(|i| i.ok())
            .find(|(meta, _)| meta.table == Some(table))
            .map(|(_, r)| r)
            .expect("epoch holds a DML of the table");
        let mut v = epoch.bytes.to_vec();
        v[range.end - 1] ^= 0x01;
        let bytes = bytes::Bytes::from(v);
        EncodedEpoch { crc32: aets_wal::crc32(&bytes), bytes, ..epoch.clone() }
    }

    #[test]
    fn persistent_corruption_quarantines_group_and_freezes_watermarks() {
        let clean = two_group_epochs();
        let db_oracle = MemDb::new(3);
        SerialEngine.replay_all(&clean, &db_oracle).unwrap();
        for per_call in [1, 2, clean.len()] {
            let mut epochs = clean.clone();
            epochs[1] = corrupt_first_dml_of(&epochs[1], TableId::new(2));
            let eng = AetsEngine::builder(two_group_grouping())
                .config(AetsConfig { threads: 2, ..Default::default() })
                .build()
                .unwrap();
            let db = MemDb::new(3);
            let board = VisibilityBoard::builder(2).build();
            let last_consistent = epochs[0].max_commit_ts;

            // Quarantine persists across replay calls on the same engine
            // (the realtime runner replays one epoch per call): once the
            // corrupt epoch has been replayed, the frozen group never
            // advances while healthy groups keep going.
            for (i, chunk) in epochs.chunks(per_call).enumerate() {
                let m = eng.replay(chunk, &db, &board).unwrap();
                let end = (i + 1) * per_call;
                if end < 2 {
                    assert!(!m.degraded(), "per_call={per_call}");
                    continue;
                }
                assert!(m.degraded(), "per_call={per_call}");
                assert_eq!(m.quarantined_groups, vec![1], "per_call={per_call}");
                assert_eq!(eng.quarantined_groups(), vec![1]);
                // The corrupt record sits in group 1's first mini-txn of
                // epoch 1, so nothing of that epoch commits there: tg
                // freezes at the last consistent epoch, and so does the
                // global (else Algorithm 3's global shortcut would admit
                // queries over the quarantined group).
                assert_eq!(
                    board.tg_cmt_ts(GroupId::new(1)),
                    last_consistent,
                    "quarantined group advanced past its last consistent epoch \
                     (per_call={per_call})"
                );
                assert_eq!(board.global_cmt_ts(), last_consistent, "per_call={per_call}");
                // The healthy group replayed every epoch delivered so far,
                // the corrupt one included.
                let last = epochs[end.min(epochs.len()) - 1].max_commit_ts;
                assert_eq!(board.tg_cmt_ts(GroupId::new(0)), last, "per_call={per_call}");
            }
            assert!(db.all_chains_ordered());
            // Up to the freeze the state is the oracle's, and the healthy
            // group's table holds the whole stream.
            assert_eq!(
                db.digest_at(last_consistent),
                db_oracle.digest_at(last_consistent),
                "per_call={per_call}"
            );
            let hot = TableId::new(0);
            assert_eq!(
                db.table(hot).digest_at(Timestamp::MAX),
                db_oracle.table(hot).digest_at(Timestamp::MAX),
                "per_call={per_call}"
            );
        }
    }

    /// The two-group layout after a live regroup: table 1 moves from the
    /// hot group 0 to the cold group 1. Same group and table counts.
    fn regrouped_two_groups() -> TableGrouping {
        let hot: FxHashSet<TableId> = [TableId::new(0)].into_iter().collect();
        TableGrouping::new(
            3,
            vec![vec![TableId::new(0)], vec![TableId::new(1), TableId::new(2)]],
            vec![10.0, 1.0],
            &hot,
        )
        .unwrap()
    }

    #[test]
    fn live_regroup_matches_serial_oracle_and_bumps_generation() {
        // Regroup at a `replay` call boundary — between calls when the
        // stream takes several, at the head of the only call otherwise:
        // the end state must stay byte-equivalent to the serial oracle,
        // the board must learn the new generation, and the metrics must
        // count the regroup.
        let epochs = two_group_epochs();
        let db_oracle = MemDb::new(3);
        SerialEngine.replay_all(&epochs, &db_oracle).unwrap();
        let mid = epochs[epochs.len() / 2].max_commit_ts;

        for per_call in [1, 2, epochs.len()] {
            let eng = AetsEngine::builder(two_group_grouping())
                .config(AetsConfig { threads: 2, ..Default::default() })
                .build()
                .unwrap();
            let db = MemDb::new(3);
            let board = VisibilityBoard::builder(2).build();
            let handle = eng.reconfigure_handle();

            let mut chunks = epochs.chunks(per_call);
            let mut m = ReplayMetrics::default();
            if per_call < epochs.len() {
                m.absorb(&eng.replay(chunks.next().unwrap(), &db, &board).unwrap());
                assert_eq!(board.grouping_gen(), 0, "per_call={per_call}");
            }
            handle.send(Reconfigure::Regroup(regrouped_two_groups())).unwrap();
            assert_eq!(handle.pending(), 1);
            for chunk in chunks {
                m.absorb(&eng.replay(chunk, &db, &board).unwrap());
            }
            assert_eq!(m.regroups_applied, 1, "per_call={per_call}");
            assert_eq!(handle.applied(), 1);
            assert_eq!(handle.pending(), 0);
            assert_eq!(eng.grouping_gen(), 1);
            assert_eq!(board.grouping_gen(), 1, "per_call={per_call}");
            // Table 1 now maps to group 1 under the installed grouping.
            assert_eq!(eng.grouping().group_of(TableId::new(1)), GroupId::new(1));

            assert!(db.all_chains_ordered());
            assert_eq!(
                db.digest_at(Timestamp::MAX),
                db_oracle.digest_at(Timestamp::MAX),
                "per_call={per_call}"
            );
            assert_eq!(db.digest_at(mid), db_oracle.digest_at(mid), "per_call={per_call} mid");
            // All groups replayed everything: watermarks at the tail.
            let last = epochs.last().unwrap().max_commit_ts;
            assert_eq!(board.global_cmt_ts(), last);
        }
    }

    #[test]
    fn thread_split_pin_overrides_solver() {
        let epochs = two_group_epochs();
        let db_oracle = MemDb::new(3);
        SerialEngine.replay_all(&epochs, &db_oracle).unwrap();

        let eng = AetsEngine::builder(two_group_grouping())
            .config(AetsConfig { threads: 2, ..Default::default() })
            .build()
            .unwrap();
        eng.reconfigure_handle().send(Reconfigure::SetThreadSplit(vec![1, 1])).unwrap();
        let db = MemDb::new(3);
        let m = eng.replay_all(&epochs, &db).unwrap();
        assert_eq!(m.resplits_applied, 1);
        assert_eq!(db.digest_at(Timestamp::MAX), db_oracle.digest_at(Timestamp::MAX));
    }

    #[test]
    fn regroup_rejected_while_quarantined() {
        let mut epochs = two_group_epochs();
        epochs[1] = corrupt_first_dml_of(&epochs[1], TableId::new(2));
        let eng = AetsEngine::builder(two_group_grouping())
            .config(AetsConfig { threads: 2, ..Default::default() })
            .build()
            .unwrap();
        let db = MemDb::new(3);
        let board = VisibilityBoard::builder(2).build();
        let m = eng.replay(&epochs[..2], &db, &board).unwrap();
        assert_eq!(m.quarantined_groups, vec![1]);

        // A regroup while group 1's watermark is frozen must be dropped:
        // moving tables would change what the freeze protects.
        let handle = eng.reconfigure_handle();
        handle.send(Reconfigure::Regroup(regrouped_two_groups())).unwrap();
        let m = eng.replay(&epochs[2..], &db, &board).unwrap();
        assert_eq!(m.reconf_rejected, 1);
        assert_eq!(m.regroups_applied, 0);
        assert_eq!(handle.applied(), 0);
        assert_eq!(eng.grouping_gen(), 0);
        assert_eq!(board.grouping_gen(), 0);
        assert_eq!(eng.grouping().group_of(TableId::new(1)), GroupId::new(0));
    }

    #[test]
    fn reconfigure_handle_validates_commands() {
        let eng = AetsEngine::builder(two_group_grouping())
            .config(AetsConfig { threads: 2, ..Default::default() })
            .build()
            .unwrap();
        let handle = eng.reconfigure_handle();
        // Wrong split arity.
        assert!(handle.send(Reconfigure::SetThreadSplit(vec![1, 1, 1])).is_err());
        // Wrong group count (engine is sized for 2 groups).
        let hot: FxHashSet<TableId> = FxHashSet::default();
        assert!(handle
            .send(Reconfigure::Regroup(TableGrouping::per_table(3, &hot, |_| 1.0)))
            .is_err());
        // Wrong table count.
        assert!(handle
            .send(Reconfigure::Regroup(
                TableGrouping::new(
                    2,
                    vec![vec![TableId::new(0)], vec![TableId::new(1)]],
                    vec![1.0, 1.0],
                    &hot,
                )
                .unwrap()
            ))
            .is_err());
        assert_eq!(handle.pending(), 0);
    }

    #[test]
    fn commit_queue_delivers_every_outcome_in_order_under_contention() {
        // Pinned-seed stress of the lock-free hand-off: several producer
        // workers claim and fill slots out of order (with splitmix-driven
        // jitter so interleavings vary but reproduce), while the single
        // consumer takes outcomes strictly in index order — the
        // linearization the old mutexed slot protocol guaranteed. Each
        // outcome carries its index as an `Err` payload so delivery is
        // checked for identity, order, and exactly-once.
        fn splitmix(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let n = 4_000usize;
        let producers = 4usize;
        let seed: u64 =
            std::env::var("AETS_TEST_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xA375);
        let queue = Arc::new(CommitQueue::new(n));
        std::thread::scope(|scope| {
            for p in 0..producers {
                let queue = queue.clone();
                let mut rng = seed.wrapping_add(p as u64);
                scope.spawn(move || {
                    while let Some(i) = queue.claim() {
                        // Jitter: sometimes yield so slots complete out of
                        // claim order and the consumer races ahead/behind.
                        if splitmix(&mut rng).is_multiple_of(7) {
                            std::thread::yield_now();
                        }
                        queue.finish(i, Err(Error::Replay(i.to_string())));
                    }
                });
            }
            for i in 0..n {
                match queue.wait_take(i) {
                    Err(Error::Replay(tag)) => {
                        assert_eq!(tag, i.to_string(), "slot {i} delivered a foreign outcome")
                    }
                    other => panic!("slot {i}: unexpected outcome {other:?}"),
                }
            }
        });
    }

    #[test]
    fn worker_panic_is_contained_and_quarantines_the_group() {
        let epochs = two_group_epochs();
        let eng = AetsEngine::builder(two_group_grouping())
            .config(AetsConfig { threads: 2, ..Default::default() })
            .build()
            .unwrap();
        // A db sized below the workload's table span makes the replay
        // workers panic when they touch table 2. The panic must be
        // contained (no propagation out of replay), poison group 1 from
        // the first epoch on, and leave group 0 fully replayed.
        let db = MemDb::new(2);
        let board = VisibilityBoard::builder(2).build();
        let m = eng.replay(&epochs, &db, &board).unwrap();
        assert_eq!(m.quarantined_groups, vec![1]);
        assert_eq!(board.tg_cmt_ts(GroupId::new(0)), epochs.last().unwrap().max_commit_ts);
        assert_eq!(board.tg_cmt_ts(GroupId::new(1)), Timestamp::ZERO);
        assert_eq!(board.global_cmt_ts(), Timestamp::ZERO);
    }

    #[test]
    fn replay_stream_resyncs_through_transient_faults() {
        use aets_wal::{FaultInjector, FaultKind, FaultPlan};
        let w = tpcc::generate(&TpccConfig { num_txns: 400, warehouses: 2, ..Default::default() });
        let epochs = encode(&w, 64);
        let db_serial = MemDb::new(w.table_names.len());
        SerialEngine.replay_all(&epochs, &db_serial).unwrap();

        let kinds = vec![
            FaultKind::TornTail,
            FaultKind::BitFlip,
            FaultKind::Duplicate,
            FaultKind::Reorder,
            FaultKind::Drop,
            FaultKind::Stall,
        ];
        let retry = RetryPolicy { max_retries: 4, base_backoff_us: 1, max_backoff_us: 50 };
        let eng = AetsEngine::builder(tpcc_grouping(&w))
            .config(AetsConfig { threads: 2, retry, ..Default::default() })
            .build()
            .unwrap();
        let db = MemDb::new(w.table_names.len());
        let board = VisibilityBoard::builder(eng.board_groups()).build();
        let mut source = FaultInjector::new(epochs, FaultPlan::new(42, 0.6, kinds));
        let m = eng.replay_stream(&mut source, &db, &board).unwrap();
        assert!(!m.degraded(), "transient faults must fully heal");
        assert!(m.ingest_retries > 0, "seed 42 at rate 0.6 must fault some epoch");
        assert_eq!(m.ingest_faults(), m.checksum_failures + m.epoch_gaps + m.ingest_stalls);
        assert_eq!(db.digest_at(Timestamp::MAX), db_serial.digest_at(Timestamp::MAX));
    }

    #[test]
    fn metrics_breakdown_is_replay_dominated() {
        let w = tpcc::generate(&TpccConfig { num_txns: 2000, warehouses: 2, ..Default::default() });
        let epochs = encode(&w, 512);
        let eng = AetsEngine::builder(tpcc_grouping(&w))
            .config(AetsConfig { threads: 2, ..Default::default() })
            .build()
            .unwrap();
        let db = MemDb::new(w.table_names.len());
        let m = eng.replay_all(&epochs, &db).unwrap();
        let (d, r, _c) = m.breakdown();
        assert!(r > 0.5, "replay phase should dominate, got {r}");
        assert!(d < 0.4, "dispatch should be a small share, got {d}");
    }
}
