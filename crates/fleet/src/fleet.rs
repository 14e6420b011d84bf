//! The fleet coordinator: supervision loop, heartbeat aggregation,
//! failover, and the health-checked query router.
//!
//! # Correctness model
//!
//! Each shard replays its sub-stream independently, but because every
//! transaction reaches every shard (see [`crate::partition`]) all shards
//! publish the *same* `global_cmt_ts` after the same epoch. The fleet
//! watermark is the **min over the shards' last heartbeat-reported
//! watermarks** — the freshest timestamp every shard is provably at or
//! past. A dead or silent shard freezes its report, which freezes the
//! fleet watermark: reads stay *consistent-but-stale*, never
//! stale-passed-off-as-fresh. Queries at `qts <= global_cmt_ts()` are
//! therefore Algorithm-3 admissible on every routable shard with no
//! wait, and a routed read can never observe data past the fleet
//! watermark on one shard that another shard has not yet replayed.
//!
//! # Supervision
//!
//! [`Fleet::tick`] is one deterministic supervisor interval: inject
//! scheduled faults, let live shards ingest, collect heartbeats, count
//! misses, and fail over any shard that missed
//! [`FleetOptions::failover_after`] consecutive heartbeats. Failover is
//! checkpoint-shipping bootstrap: the replacement re-opens the shard's
//! surviving directories — newest checkpoint first, then only the WAL
//! suffix through normal two-stage replay — re-pins every registered
//! [`FleetSession`] on the fresh query floor, and rejoins routing.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aets_common::{Error, Result, Timestamp};
use aets_memtable::{FloorTicket, QueryFloor};
use aets_replay::{
    ingest_epoch, IngestStats, QueryHandle, QueryOutput, QuerySpec, QueryTarget, ReadSession,
    RetryPolicy, ServiceOptions,
};
use aets_telemetry::trace::stages;
use aets_telemetry::{
    names, shard_label, Counter, EventKind, FlightRecorder, FlightRecorderConfig, Gauge, HealthFn,
    HealthReport, Histogram, ObsServer, Telemetry,
};
use aets_wal::{assemble_txns, Epoch, EpochSource};
use parking_lot::Mutex;

use crate::faults::{FleetFaultKind, FleetFaultPlan};
use crate::partition::partition_epoch;
use crate::plan::ShardPlan;
use crate::shard::{Shard, ShardConfig, ShardHealth};

/// Fleet-level tunables.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Configuration stamped onto every shard.
    pub shard: ShardConfig,
    /// Consecutive missed heartbeats before the supervisor replaces a
    /// shard. The failover bound proven by the chaos suite: a dead shard
    /// is back in routing within this many ticks of its crash.
    pub failover_after: u32,
    /// Deadline stamped on routed queries that carry none of their own.
    pub query_timeout: Duration,
    /// Consolidated service-layer knobs shared with the query node and
    /// the durable backup: telemetry handle, observability endpoint,
    /// flight recorder, and retry policy.
    pub service: ServiceOptions,
}

impl Default for FleetOptions {
    fn default() -> Self {
        Self {
            shard: ShardConfig::default(),
            failover_after: 3,
            query_timeout: Duration::from_secs(5),
            service: ServiceOptions::default(),
        }
    }
}

/// What the router does when a spec's owning shard is not routable (or
/// refuses with [`Error::Degraded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedPolicy {
    /// Fail the whole fleet query with [`Error::Degraded`].
    Refuse,
    /// Answer what is answerable; unreachable specs come back as
    /// [`RoutedPart::Unavailable`] so the caller *knows* what is missing
    /// — a partial answer is explicit, never a silently stale one.
    Partial,
}

/// One spec's slot in a [`FleetAnswer`].
#[derive(Debug, Clone, PartialEq)]
pub enum RoutedPart {
    /// The spec's result from its owning shard.
    Output(QueryOutput),
    /// The owning shard could not answer under [`DegradedPolicy::Partial`].
    Unavailable {
        /// The shard that was down, hung, or degraded.
        shard: usize,
    },
}

/// A merged fleet query result, parts in the order of the submitted specs.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetAnswer {
    /// One part per spec, same order.
    pub parts: Vec<RoutedPart>,
    /// Snapshot timestamp the query ran at.
    pub qts: Timestamp,
    /// Shards that contributed [`RoutedPart::Unavailable`] parts (empty
    /// for a complete answer).
    pub degraded_shards: Vec<usize>,
}

impl FleetAnswer {
    /// Whether every part carries an output.
    pub fn is_complete(&self) -> bool {
        self.degraded_shards.is_empty()
    }

    /// The outputs, or `None` if any part is unavailable.
    pub fn outputs(&self) -> Option<Vec<&QueryOutput>> {
        self.parts
            .iter()
            .map(|p| match p {
                RoutedPart::Output(o) => Some(o),
                RoutedPart::Unavailable { .. } => None,
            })
            .collect()
    }
}

/// Aggregate supervision counters (plain numbers for tests; the same
/// figures land in telemetry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetMetrics {
    /// Supervisor ticks run.
    pub ticks: u64,
    /// Failovers completed (bootstrap + rejoin).
    pub failovers: u64,
    /// Shard crashes injected by the fault plan.
    pub crashes_injected: u64,
    /// Shard hangs injected by the fault plan.
    pub hangs_injected: u64,
    /// Heartbeats the coordinator counted as missed.
    pub heartbeats_missed: u64,
    /// Epochs accepted into shard queues (per shard delivery counted once
    /// per source epoch).
    pub epochs_enqueued: u64,
    /// Sub-epochs acked by shard ingests.
    pub epochs_acked: u64,
}

/// Floor pins a fleet session holds, one slot per shard.
struct SessionPins {
    qts: Timestamp,
    pins: Vec<Option<(Arc<QueryFloor>, FloorTicket)>>,
}

/// Shared pin registry: failover re-pins every live session on the
/// replacement shard's fresh floor, so a pinned read stays GC-protected
/// across the very restart it is supposed to survive.
#[derive(Default)]
struct SessionRegistry {
    next: AtomicU64,
    inner: Mutex<HashMap<u64, SessionPins>>,
}

/// A fleet-wide pinned read session: holds a GC floor at `qts` on every
/// live shard until dropped. The pin follows failovers — a replacement
/// shard is re-pinned before it rejoins routing.
pub struct FleetSession {
    registry: Arc<SessionRegistry>,
    id: u64,
    qts: Timestamp,
}

impl FleetSession {
    /// The pinned snapshot timestamp.
    pub fn qts(&self) -> Timestamp {
        self.qts
    }
}

impl Drop for FleetSession {
    fn drop(&mut self) {
        if let Some(entry) = self.registry.inner.lock().remove(&self.id) {
            for pin in entry.pins.into_iter().flatten() {
                pin.0.release(pin.1);
            }
        }
    }
}

/// Telemetry handles for the `fleet_*` metric family.
struct FleetStats {
    shard_health: Vec<Gauge>,
    failovers: Counter,
    routed_latency: Histogram,
    global_ts: Gauge,
    heartbeats_missed: Counter,
    queries_routed: Counter,
    queries_partial: Counter,
}

impl FleetStats {
    fn new(telemetry: &Telemetry, num_shards: usize) -> Self {
        let reg = telemetry.registry();
        Self {
            shard_health: (0..num_shards)
                .map(|s| reg.gauge_with(names::FLEET_SHARD_HEALTH, shard_label(s)))
                .collect(),
            failovers: reg.counter(names::FLEET_FAILOVERS),
            routed_latency: reg.histogram(names::FLEET_ROUTED_LATENCY_US),
            global_ts: reg.gauge(names::FLEET_GLOBAL_CMT_TS_US),
            heartbeats_missed: reg.counter(names::FLEET_HEARTBEATS_MISSED),
            queries_routed: reg.counter(names::FLEET_QUERIES_ROUTED),
            queries_partial: reg.counter(names::FLEET_QUERIES_PARTIAL),
        }
    }
}

/// A replicated backup fleet behind a stateless router.
pub struct Fleet {
    plan: ShardPlan,
    shards: Vec<Shard>,
    opts: FleetOptions,
    faults: Option<FleetFaultPlan>,
    tick: u64,
    global_cmt_ts: Timestamp,
    registry: Arc<SessionRegistry>,
    telemetry: Arc<Telemetry>,
    stats: FleetStats,
    metrics: FleetMetrics,
    next_source_seq: u64,
    /// Last published per-shard health levels (see [`ShardHealth::level`]),
    /// shared with the `/healthz` handler's thread.
    health_levels: Arc<Vec<AtomicU64>>,
    obs: Option<ObsServer>,
}

impl Fleet {
    /// Boots `plan.num_shards()` shards under `root`
    /// (`root/shard-N/{wal,ckpt}`); existing directories are recovered,
    /// so a whole-fleet restart is just `open` again.
    pub fn open(plan: ShardPlan, root: impl Into<PathBuf>, opts: FleetOptions) -> Result<Self> {
        let root = root.into();
        let telemetry =
            opts.service.telemetry.clone().unwrap_or_else(|| Arc::new(Telemetry::disabled()));
        let num_tables = plan.num_tables();
        let mut shards = Vec::with_capacity(plan.num_shards());
        for s in 0..plan.num_shards() {
            shards.push(Shard::open(
                s,
                &root.join(format!("shard-{s}")),
                plan.grouping().clone(),
                num_tables,
                opts.shard.clone(),
            )?);
        }
        let stats = FleetStats::new(&telemetry, plan.num_shards());
        if let Some(dir) = opts.service.flight_dir.as_deref() {
            let recorder = FlightRecorder::create(FlightRecorderConfig::new(dir))
                .map_err(|e| Error::Io(format!("flight recorder at {}: {e}", dir.display())))?;
            telemetry.set_flight_recorder(Some(recorder));
        }
        let health_levels: Arc<Vec<AtomicU64>> = Arc::new(
            (0..plan.num_shards()).map(|_| AtomicU64::new(ShardHealth::Healthy.level())).collect(),
        );
        let obs = match opts.service.obs_addr.as_deref() {
            Some(addr) => {
                let levels = health_levels.clone();
                let health: HealthFn = Arc::new(move || {
                    let bad: Vec<usize> = levels
                        .iter()
                        .enumerate()
                        .filter(|(_, l)| l.load(Ordering::Relaxed) <= ShardHealth::Hung.level())
                        .map(|(s, _)| s)
                        .collect();
                    if bad.is_empty() {
                        HealthReport::ok()
                    } else {
                        HealthReport::degraded(bad, "shard(s) down or hung")
                    }
                });
                Some(
                    ObsServer::bind(addr, telemetry.clone(), health)
                        .map_err(|e| Error::Io(format!("bind obs endpoint {addr}: {e}")))?,
                )
            }
            None => None,
        };
        Ok(Self {
            plan,
            shards,
            opts,
            faults: None,
            tick: 0,
            global_cmt_ts: Timestamp::ZERO,
            registry: Arc::new(SessionRegistry::default()),
            telemetry,
            stats,
            metrics: FleetMetrics::default(),
            next_source_seq: 0,
            health_levels,
            obs,
        })
    }

    /// Installs a deterministic fault schedule (chaos harness).
    pub fn with_faults(mut self, plan: FleetFaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Partitions one primary epoch and queues the sub-epochs on their
    /// shards. Delivery to a dead shard is fine: the queue survives the
    /// crash and drains after failover.
    pub fn enqueue(&mut self, epoch: &Epoch) {
        self.metrics.epochs_enqueued += 1;
        for (s, sub) in partition_epoch(epoch, &self.plan).iter().enumerate() {
            self.shards[s].enqueue(aets_wal::encode_epoch(sub));
        }
    }

    /// Drains up to `max_epochs` epochs from a pull feed (e.g. a
    /// [network receiver](aets_wal::EpochSource)) through the resync loop
    /// and enqueues each on its shards. Epochs below the fleet's source
    /// cursor are skipped, so a resumed stream that re-ships its
    /// in-flight window is absorbed exactly once.
    ///
    /// A feed that merely ran dry (retries exhausted on stalls alone, no
    /// corruption and no gaps) is *idle*, not broken: the drain returns
    /// `Ok` with what it got and the cursor stays put for the next call.
    /// Checksum failures or epoch gaps that outlive the retry budget
    /// surface as errors.
    pub fn ingest_source(
        &mut self,
        source: &mut dyn EpochSource,
        retry: &RetryPolicy,
        max_epochs: usize,
    ) -> Result<usize> {
        let first = source.first_seq();
        let end = first + source.num_epochs() as u64;
        if self.next_source_seq < first {
            self.next_source_seq = first;
        }
        let mut drained = 0usize;
        let mut records = Vec::new();
        while drained < max_epochs && self.next_source_seq < end {
            let mut stats = IngestStats::default();
            let encoded = match ingest_epoch(source, self.next_source_seq, retry, &mut stats) {
                Ok(e) => e,
                // Stalls with clean delivery otherwise = the feed is idle.
                Err(_)
                    if stats.stalls > 0
                        && stats.checksum_failures == 0
                        && stats.epoch_gaps == 0 =>
                {
                    return Ok(drained)
                }
                Err(e) => return Err(e),
            };
            encoded.decode_records_into(&mut records)?;
            let epoch = Epoch { id: encoded.id, txns: assemble_txns(&records)? };
            self.enqueue(&epoch);
            self.next_source_seq += 1;
            drained += 1;
        }
        Ok(drained)
    }

    /// The next source sequence [`Fleet::ingest_source`] will request.
    pub fn next_source_seq(&self) -> u64 {
        self.next_source_seq
    }

    /// One supervisor interval. See the module docs for the phase order.
    pub fn tick(&mut self) -> Result<()> {
        self.tick += 1;
        let now = self.tick;
        self.metrics.ticks += 1;
        let n = self.shards.len();

        // Phase 1: scheduled faults.
        let mut hb_lost = vec![false; n];
        let mut delayed = vec![false; n];
        if let Some(fp) = self.faults.clone() {
            for s in 0..n {
                match fp.fault_at(s, now) {
                    Some(FleetFaultKind::ShardCrash) if self.shards[s].is_up() => {
                        self.shards[s].kill();
                        self.metrics.crashes_injected += 1;
                        self.telemetry.event(EventKind::ShardDown { shard: s });
                    }
                    Some(FleetFaultKind::ShardHang)
                        if self.shards[s].is_up() && !self.shards[s].is_hung(now) =>
                    {
                        self.shards[s].hung_until = Some(now + fp.hang_ticks(s, now));
                        self.metrics.hangs_injected += 1;
                    }
                    Some(FleetFaultKind::HeartbeatLoss) => hb_lost[s] = true,
                    Some(FleetFaultKind::DelayedWatermark) => delayed[s] = true,
                    _ => {}
                }
            }
        }

        // Phase 2: live shards ingest their backlog.
        for s in 0..n {
            match self.shards[s].ingest_some(now) {
                Ok(acked) => self.metrics.epochs_acked += acked as u64,
                // A mid-ingest death is a crash like any other: the epoch
                // stays queued and the failover path redelivers it.
                Err(e) if e.is_crash() => {
                    self.shards[s].kill();
                    self.telemetry.event(EventKind::ShardDown { shard: s });
                }
                Err(e) => return Err(e),
            }
        }

        // Phase 3: heartbeat collection. A delayed watermark re-reports
        // the previous value (stale, never ahead); a lost heartbeat or a
        // dead/hung shard counts a miss.
        for (s, shard) in self.shards.iter_mut().enumerate() {
            let alive = shard.is_up() && !shard.is_hung(now);
            if alive && !hb_lost[s] {
                let wm = if delayed[s] { shard.reported } else { shard.local_watermark() };
                shard.reported = shard.reported.max(wm);
                shard.missed = 0;
            } else {
                shard.missed += 1;
                self.metrics.heartbeats_missed += 1;
                self.stats.heartbeats_missed.inc();
                self.telemetry
                    .event(EventKind::ShardHeartbeatMissed { shard: s, missed: shard.missed });
            }
        }

        // Phase 4: failover of shards past the miss threshold.
        for s in 0..n {
            if self.shards[s].missed >= self.opts.failover_after {
                self.failover(s)?;
            }
        }

        // Phase 5: fleet watermark (min over reported; monotone because
        // every component is) and health gauges.
        if let Some(wm) = self.shards.iter().map(|s| s.reported).min() {
            self.global_cmt_ts = self.global_cmt_ts.max(wm);
        }
        self.stats.global_ts.set(self.global_cmt_ts.as_micros());
        for (s, shard) in self.shards.iter().enumerate() {
            let level = shard.health(now).level();
            self.stats.shard_health[s].set(level);
            self.health_levels[s].store(level, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Replaces shard `s`: checkpoint-shipping bootstrap off its
    /// surviving directories, session re-pin, rejoin.
    fn failover(&mut self, s: usize) -> Result<()> {
        let intervals_down = u64::from(self.shards[s].missed);
        if self.shards[s].is_up() {
            // Wedged past the threshold: stop waiting, replace it.
            self.shards[s].kill();
            self.telemetry.event(EventKind::ShardDown { shard: s });
        }
        self.shards[s].boot()?;
        let suffix_epochs = self.shards[s].recovery().map_or(0, |r| r.suffix_epochs);

        // Re-pin every registered session on the replacement's fresh
        // floor before it can serve (and GC) anything.
        if let Some(backup) = self.shards[s].backup() {
            let floor = backup.floor().clone();
            let mut sessions = self.registry.inner.lock();
            for entry in sessions.values_mut() {
                if let Some((old_floor, ticket)) = entry.pins[s].take() {
                    old_floor.release(ticket);
                }
                let ticket = floor.pin(entry.qts);
                entry.pins[s] = Some((floor.clone(), ticket));
            }
        }

        let shard = &mut self.shards[s];
        shard.missed = 0;
        shard.reported = shard.reported.max(shard.local_watermark());
        self.metrics.failovers += 1;
        self.stats.failovers.inc();
        self.telemetry.event(EventKind::ShardFailover { shard: s, intervals_down, suffix_epochs });
        Ok(())
    }

    /// Manually kills a shard (tests and demos; scheduled faults use
    /// [`Fleet::with_faults`]).
    pub fn kill_shard(&mut self, s: usize) {
        if self.shards[s].is_up() {
            self.shards[s].kill();
            self.telemetry.event(EventKind::ShardDown { shard: s });
        }
    }

    /// Ticks until the fleet watermark reaches `target` or `max_ticks`
    /// elapse; returns the ticks spent or an error if the budget runs
    /// out (a liveness failure under the installed fault schedule).
    pub fn run_until_fresh(&mut self, target: Timestamp, max_ticks: u64) -> Result<u64> {
        let start = self.tick;
        while self.global_cmt_ts < target {
            if self.tick - start >= max_ticks {
                return Err(Error::Replay(format!(
                    "fleet watermark stuck at {:?} after {max_ticks} ticks (target {target:?})",
                    self.global_cmt_ts
                )));
            }
            self.tick()?;
        }
        Ok(self.tick - start)
    }

    /// Routes `specs` by owning shard, fans them out, and merges results
    /// in spec order. `qts` at or below [`Fleet::global_cmt_ts`] admits
    /// without waiting; a fresher `qts` waits on shard watermarks, which
    /// only advance on [`Fleet::tick`] — so single-threaded drivers
    /// should query at the fleet watermark.
    pub fn query(
        &self,
        qts: Timestamp,
        specs: &[QuerySpec],
        policy: DegradedPolicy,
    ) -> Result<FleetAnswer> {
        let t0 = Instant::now();
        // One routing span per fleet query, covering the fan-out and the
        // merge; it attaches to the latest epoch the fleet ring knows of
        // (shard engines trace into their own rings).
        let ring = self.telemetry.spans();
        let route_span =
            ring.begin(ring.epoch_hint().unwrap_or(0), stages::FLEET_ROUTE, None, None);
        let n = self.shards.len();
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, spec) in specs.iter().enumerate() {
            by_shard[self.plan.shard_of_table(spec.table)].push(i);
        }

        let mut parts: Vec<Option<RoutedPart>> = (0..specs.len()).map(|_| None).collect();
        let mut degraded: Vec<usize> = Vec::new();
        // Sessions stay open until every handle resolved: the pins keep
        // per-shard GC below qts for the whole merged read.
        let mut sessions: Vec<ReadSession<'_>> = Vec::new();
        let mut handles: Vec<(usize, usize, QueryHandle)> = Vec::new();

        for (s, idxs) in by_shard.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let Some(node) = self.shards[s].serving(self.tick) else {
                match policy {
                    DegradedPolicy::Refuse => return Err(Error::Degraded),
                    DegradedPolicy::Partial => {
                        for &i in idxs {
                            parts[i] = Some(RoutedPart::Unavailable { shard: s });
                        }
                        degraded.push(s);
                        self.stats.queries_partial.inc();
                        continue;
                    }
                }
            };
            let tables: Vec<_> = idxs.iter().map(|&i| specs[i].table).collect();
            let session = node.open_session(qts, &tables);
            for &i in idxs {
                let mut spec = specs[i].clone();
                if spec.timeout.is_none() {
                    spec.timeout = Some(self.opts.query_timeout);
                }
                let handle = self.submit_with_retry(&session, spec)?;
                self.stats.queries_routed.inc();
                handles.push((i, s, handle));
            }
            sessions.push(session);
        }

        for (i, s, handle) in handles {
            match handle.wait() {
                Ok(out) => parts[i] = Some(RoutedPart::Output(out)),
                Err(Error::Degraded) => match policy {
                    DegradedPolicy::Refuse => return Err(Error::Degraded),
                    DegradedPolicy::Partial => {
                        parts[i] = Some(RoutedPart::Unavailable { shard: s });
                        if !degraded.contains(&s) {
                            degraded.push(s);
                        }
                        self.stats.queries_partial.inc();
                    }
                },
                Err(e) => return Err(e),
            }
        }
        drop(sessions);

        self.stats.routed_latency.record(t0.elapsed());
        // Errors above drop the open span: only completed routes land in
        // the ring.
        if let Some(s) = route_span {
            s.finish(ring);
        }
        let parts =
            parts.into_iter().map(|p| p.expect("every spec slot filled by routing")).collect();
        Ok(FleetAnswer { parts, qts, degraded_shards: degraded })
    }

    fn submit_with_retry(&self, session: &ReadSession<'_>, spec: QuerySpec) -> Result<QueryHandle> {
        let retry = self.opts.service.retry.clone().unwrap_or_default();
        let mut attempt = 0u32;
        loop {
            match session.submit(spec.clone()) {
                Ok(h) => return Ok(h),
                Err(Error::Overloaded) if attempt < retry.max_retries => {
                    attempt += 1;
                    std::thread::sleep(retry.backoff(attempt));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Pins `qts` on every live shard's GC floor until the session drops;
    /// the pin follows failovers onto replacement shards.
    pub fn open_session(&self, qts: Timestamp) -> FleetSession {
        let pins = self
            .shards
            .iter()
            .map(|shard| {
                shard.backup().map(|b| {
                    let floor = b.floor().clone();
                    let ticket = floor.pin(qts);
                    (floor, ticket)
                })
            })
            .collect();
        let id = self.registry.next.fetch_add(1, Ordering::Relaxed);
        self.registry.inner.lock().insert(id, SessionPins { qts, pins });
        FleetSession { registry: self.registry.clone(), id, qts }
    }

    /// The fleet-wide safe read timestamp: the min over the shards' last
    /// heartbeat-reported watermarks. Monotone; starts at zero until
    /// every shard has reported once.
    pub fn global_cmt_ts(&self) -> Timestamp {
        self.global_cmt_ts
    }

    /// Health of every shard at the current tick.
    pub fn health(&self) -> Vec<ShardHealth> {
        self.shards.iter().map(|s| s.health(self.tick)).collect()
    }

    /// Supervisor counters.
    pub fn metrics(&self) -> FleetMetrics {
        self.metrics
    }

    /// Shard accessor (tests and demos).
    pub fn shard(&self, s: usize) -> &Shard {
        &self.shards[s]
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The placement the router uses.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Fleet telemetry.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Bound address of the live observability endpoint, when
    /// [`ServiceOptions::obs_addr`] asked for one.
    pub fn obs_addr(&self) -> Option<std::net::SocketAddr> {
        self.obs.as_ref().map(ObsServer::addr)
    }

    /// Supervisor ticks elapsed.
    pub fn now(&self) -> u64 {
        self.tick
    }
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("shards", &self.shards)
            .field("tick", &self.tick)
            .field("global_cmt_ts", &self.global_cmt_ts)
            .field("metrics", &self.metrics)
            .finish()
    }
}

/// The fleet behind the same generic surface as a single node: routed
/// fan-out with the strict [`DegradedPolicy::Refuse`] policy, so a dark
/// shard surfaces as [`Error::Degraded`] instead of a partial answer.
/// Callers that want partial answers use [`Fleet::query`] directly.
impl QueryTarget for Fleet {
    fn safe_ts(&self) -> Timestamp {
        self.global_cmt_ts()
    }

    fn query_at(&self, qts: Timestamp, specs: &[QuerySpec]) -> Result<Vec<QueryOutput>> {
        let ans = self.query(qts, specs, DegradedPolicy::Refuse)?;
        ans.parts
            .into_iter()
            .map(|p| match p {
                RoutedPart::Output(out) => Ok(out),
                RoutedPart::Unavailable { .. } => Err(Error::Degraded),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aets_common::{
        ColumnId, DmlOp, EpochId, FxHashSet, GroupId, Lsn, RowKey, TableId, TxnId, Value,
    };
    use aets_replay::TableGrouping;
    use aets_wal::{DmlEntry, TxnLog};

    fn entry(table: u32, key: u64, ts: u64, txn: u64) -> DmlEntry {
        DmlEntry {
            lsn: Lsn::new(ts * 100 + key),
            txn_id: TxnId::new(txn),
            ts: Timestamp::from_micros(ts),
            table: TableId::new(table),
            op: DmlOp::Insert,
            key: RowKey::new(key),
            row_version: 1,
            cols: vec![(ColumnId::new(0), Value::Int((ts * 10 + key) as i64))],
            before: None,
        }
    }

    fn plan() -> ShardPlan {
        let g = TableGrouping::new(
            4,
            vec![
                vec![TableId::new(0), TableId::new(1)],
                vec![TableId::new(2)],
                vec![TableId::new(3)],
            ],
            vec![10.0, 5.0, 1.0],
            &FxHashSet::default(),
        )
        .expect("valid grouping");
        ShardPlan::new(g, vec![0, 1, 0], 2).expect("valid plan")
    }

    /// 8 epochs, one txn each, entries round-robining over the 4 tables.
    fn stream() -> Vec<Epoch> {
        (0..8u64)
            .map(|i| Epoch {
                id: EpochId::new(i),
                txns: vec![TxnLog {
                    txn_id: TxnId::new(i + 1),
                    commit_ts: Timestamp::from_micros(100 * (i + 1)),
                    entries: vec![
                        entry((i % 4) as u32, i, 100 * (i + 1), i + 1),
                        entry(((i + 1) % 4) as u32, i, 100 * (i + 1), i + 1),
                    ],
                }],
            })
            .collect()
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("aets-fleet-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn count_all(fleet: &Fleet, qts: Timestamp) -> Vec<usize> {
        let specs: Vec<QuerySpec> = (0..4).map(|t| QuerySpec::count(TableId::new(t))).collect();
        let ans = fleet.query(qts, &specs, DegradedPolicy::Refuse).expect("query");
        assert!(ans.is_complete());
        ans.parts
            .iter()
            .map(|p| match p {
                RoutedPart::Output(QueryOutput::Count(c)) => *c,
                other => panic!("expected count, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn fleet_replays_and_routes_without_faults() {
        let mut fleet =
            Fleet::open(plan(), scratch("clean"), FleetOptions::default()).expect("open");
        let epochs = stream();
        let target = epochs.last().expect("nonempty").max_commit_ts();
        for e in &epochs {
            fleet.enqueue(e);
        }
        let ticks = fleet.run_until_fresh(target, 64).expect("drain");
        assert!(ticks >= 2, "two shards at batch 4 need at least 2 ticks for 8 epochs");
        assert_eq!(fleet.global_cmt_ts(), target);
        assert_eq!(fleet.metrics().failovers, 0);
        // Each epoch writes 2 entries over tables (i, i+1) % 4 with key i:
        // every table ends up with exactly 4 distinct keys.
        assert_eq!(count_all(&fleet, target), vec![4, 4, 4, 4]);
    }

    #[test]
    fn killed_shard_fails_over_and_rejoins_within_bound() {
        let opts = FleetOptions { failover_after: 2, ..Default::default() };
        let mut fleet = Fleet::open(plan(), scratch("failover"), opts).expect("open");
        let epochs = stream();
        let target = epochs.last().expect("nonempty").max_commit_ts();
        for e in &epochs[..4] {
            fleet.enqueue(e);
        }
        fleet.run_until_fresh(epochs[3].max_commit_ts(), 64).expect("first half");

        fleet.kill_shard(1);
        assert_eq!(fleet.health()[1], ShardHealth::Down);
        let before = fleet.global_cmt_ts();
        for e in &epochs[4..] {
            fleet.enqueue(e);
        }
        // The dead shard freezes the fleet watermark (stale, not wrong).
        fleet.tick().expect("tick");
        assert_eq!(fleet.global_cmt_ts(), before, "down shard must freeze the fleet watermark");
        // Second miss hits the threshold: failover runs in this tick.
        fleet.tick().expect("tick");
        assert_eq!(fleet.metrics().failovers, 1);
        assert_eq!(fleet.health()[1], ShardHealth::Healthy);
        // Bootstrap came from shipped state, not a cold full replay.
        let rec = fleet.shard(1).recovery().expect("rebooted");
        assert!(
            rec.restored_seq.is_some() || rec.suffix_epochs > 0,
            "replacement must restore from checkpoint and/or WAL suffix"
        );
        fleet.run_until_fresh(target, 64).expect("second half");
        assert_eq!(count_all(&fleet, target), vec![4, 4, 4, 4]);
    }

    #[test]
    fn degraded_policy_refuses_or_answers_partially() {
        let opts = FleetOptions { failover_after: 10, ..Default::default() };
        let mut fleet = Fleet::open(plan(), scratch("degraded"), opts).expect("open");
        let epochs = stream();
        let target = epochs.last().expect("nonempty").max_commit_ts();
        for e in &epochs {
            fleet.enqueue(e);
        }
        fleet.run_until_fresh(target, 64).expect("drain");

        fleet.kill_shard(1);
        let specs = vec![
            QuerySpec::count(TableId::new(0)), // shard 0
            QuerySpec::count(TableId::new(2)), // shard 1 (down)
        ];
        let err = fleet.query(target, &specs, DegradedPolicy::Refuse).expect_err("must refuse");
        assert_eq!(err, Error::Degraded);

        let ans = fleet.query(target, &specs, DegradedPolicy::Partial).expect("partial");
        assert!(!ans.is_complete());
        assert_eq!(ans.degraded_shards, vec![1]);
        assert_eq!(ans.parts[0], RoutedPart::Output(QueryOutput::Count(4)));
        assert_eq!(ans.parts[1], RoutedPart::Unavailable { shard: 1 });
        assert!(ans.outputs().is_none());
    }

    #[test]
    fn sessions_follow_failover_repins() {
        let opts = FleetOptions { failover_after: 1, ..Default::default() };
        let mut fleet = Fleet::open(plan(), scratch("repin"), opts).expect("open");
        let epochs = stream();
        let target = epochs.last().expect("nonempty").max_commit_ts();
        for e in &epochs {
            fleet.enqueue(e);
        }
        fleet.run_until_fresh(target, 64).expect("drain");

        let pinned = Timestamp::from_micros(300);
        let session = fleet.open_session(pinned);
        let floor_before = fleet.shard(1).backup().expect("up").floor().floor();
        assert_eq!(floor_before, pinned);

        fleet.kill_shard(1);
        fleet.tick().expect("failover tick");
        assert_eq!(fleet.metrics().failovers, 1);
        // The replacement's *fresh* floor carries the pin already.
        let floor_after = fleet.shard(1).backup().expect("rebooted").floor().floor();
        assert_eq!(floor_after, pinned, "session pin must survive the failover");

        drop(session);
        assert_eq!(
            fleet.shard(1).backup().expect("rebooted").floor().floor(),
            Timestamp::MAX,
            "dropping the fleet session releases every shard pin"
        );
    }

    #[test]
    fn groups_unowned_by_a_shard_advance_via_heartbeats() {
        let mut fleet = Fleet::open(plan(), scratch("hb"), FleetOptions::default()).expect("open");
        let epochs = stream();
        let target = epochs.last().expect("nonempty").max_commit_ts();
        for e in &epochs {
            fleet.enqueue(e);
        }
        fleet.run_until_fresh(target, 64).expect("drain");
        // Shard 1 owns only group 1, yet its board must have advanced all
        // three groups to the stream head (heartbeat mini-txns).
        let board = fleet.shard(1).backup().expect("up").board().clone();
        for g in 0..3 {
            assert_eq!(board.tg_cmt_ts(GroupId::new(g)), target, "group {g} stale on shard 1");
        }
    }
}
