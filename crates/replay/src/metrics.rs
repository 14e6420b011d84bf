//! Replay metrics: throughput, phase time breakdown (Table II), and
//! stage-level replay times (Figures 8b/9b).

use aets_memtable::GcStats;
use aets_telemetry::{names, TelemetrySnapshot};
use std::time::Duration;

/// Measurements collected by one engine run.
#[derive(Debug, Clone, Default)]
pub struct ReplayMetrics {
    /// Engine name ("aets", "atr", "c5", "tplr", "serial").
    pub engine: &'static str,
    /// Transactions replayed.
    pub txns: usize,
    /// DML entries replayed.
    pub entries: usize,
    /// Encoded log bytes processed.
    pub bytes: u64,
    /// Epochs processed.
    pub epochs: usize,
    /// End-to-end wall time of the replay.
    pub wall: Duration,
    /// Serial dispatcher busy time (metadata or full-image parse + route).
    pub dispatch_busy: Duration,
    /// Aggregate replay-worker busy time (phase 1 / apply).
    pub replay_busy: Duration,
    /// Aggregate commit-thread busy time (phase 2 / visibility publish).
    pub commit_busy: Duration,
    /// Wall time spent in stage 1 (hot groups). Zero for engines without
    /// stages.
    pub stage1_wall: Duration,
    /// Wall time spent in stage 2 (cold groups).
    pub stage2_wall: Duration,
    /// Phase-1 cell buffers served from the per-group free-list pools
    /// (zero for engines without cell pooling).
    pub cell_buffers_recycled: u64,
    /// Phase-1 cell buffers that had to be freshly allocated.
    pub cell_buffers_allocated: u64,
    /// Ingest resync: epoch re-requests issued after a failed delivery.
    pub ingest_retries: u64,
    /// Ingest resync: deliveries rejected by the epoch frame CRC.
    pub checksum_failures: u64,
    /// Ingest resync: deliveries rejected as out-of-sequence
    /// (duplicate / reordered / dropped epochs).
    pub epoch_gaps: u64,
    /// Ingest resync: fetches that found the epoch not yet available.
    pub ingest_stalls: u64,
    /// Groups quarantined during replay (board indices, ascending). A
    /// quarantined group's `tg_cmt_ts` is frozen at its last consistent
    /// commit and `global_cmt_ts` stops advancing, while healthy groups
    /// keep replaying. Empty in a healthy run.
    pub quarantined_groups: Vec<usize>,
    /// Aggregate version-chain GC statistics across passes.
    pub gc: GcStats,
    /// Number of GC passes run.
    pub gc_passes: u64,
    /// Checkpoints written durably.
    pub checkpoints_written: u64,
    /// Checkpoint opportunities skipped because a group was quarantined:
    /// advancing the checkpoint (and truncating the WAL) past a frozen
    /// group would lose its unreplayed suffix forever.
    pub checkpoints_skipped_degraded: u64,
    /// Epochs appended durably to the WAL segment store.
    pub wal_epochs_appended: u64,
    /// WAL segments retired (deleted) past the checkpoint watermark.
    pub wal_segments_retired: u64,
    /// Checkpoint manifests skipped at recovery because they failed
    /// validation (torn write, checksum mismatch) before an older valid
    /// one was found.
    pub manifest_fallbacks: u64,
    /// Epochs re-replayed from the WAL suffix during recovery (bounded by
    /// the epochs since the last checkpoint, not the full history).
    pub recovery_suffix_epochs: u64,
    /// Adaptive control: `Regroup` commands applied at epoch boundaries.
    pub regroups_applied: u64,
    /// Adaptive control: `SetThreadSplit` commands applied at epoch
    /// boundaries.
    pub resplits_applied: u64,
    /// Adaptive control: reconfigure commands dropped at the boundary
    /// (e.g. a regroup refused while a group is quarantined).
    pub reconf_rejected: u64,
}

impl ReplayMetrics {
    /// Replayed entries per second of wall time.
    pub fn entries_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.entries as f64 / s
        }
    }

    /// Replayed transactions per second of wall time.
    pub fn txns_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.txns as f64 / s
        }
    }

    /// Whether replay is in degraded mode: at least one group has been
    /// quarantined and its watermark frozen.
    pub fn degraded(&self) -> bool {
        !self.quarantined_groups.is_empty()
    }

    /// Total faulted deliveries the ingest resync loop observed.
    pub fn ingest_faults(&self) -> u64 {
        self.checksum_failures + self.epoch_gaps + self.ingest_stalls
    }

    /// Accumulates another run's counters into this one: sums every
    /// additive counter and duration, `wall` included (a caller with its
    /// own end-to-end clock, like the realtime runner, overwrites it),
    /// skips `engine` (identity, not a counter), and unions the
    /// quarantine sets (sorted, deduped). The union matters
    /// when runs from *different* engine instances are absorbed — e.g. a
    /// restart-recovery run absorbed into the pre-crash run: each engine
    /// only reports its own ledger, so replacing would silently drop
    /// groups quarantined before the restart.
    pub fn absorb(&mut self, other: &ReplayMetrics) {
        self.txns += other.txns;
        self.entries += other.entries;
        self.bytes += other.bytes;
        self.epochs += other.epochs;
        self.wall += other.wall;
        self.dispatch_busy += other.dispatch_busy;
        self.replay_busy += other.replay_busy;
        self.commit_busy += other.commit_busy;
        self.stage1_wall += other.stage1_wall;
        self.stage2_wall += other.stage2_wall;
        self.cell_buffers_recycled += other.cell_buffers_recycled;
        self.cell_buffers_allocated += other.cell_buffers_allocated;
        self.ingest_retries += other.ingest_retries;
        self.checksum_failures += other.checksum_failures;
        self.epoch_gaps += other.epoch_gaps;
        self.ingest_stalls += other.ingest_stalls;
        self.quarantined_groups.extend_from_slice(&other.quarantined_groups);
        self.quarantined_groups.sort_unstable();
        self.quarantined_groups.dedup();
        self.gc.merge(other.gc);
        self.gc_passes += other.gc_passes;
        self.checkpoints_written += other.checkpoints_written;
        self.checkpoints_skipped_degraded += other.checkpoints_skipped_degraded;
        self.wal_epochs_appended += other.wal_epochs_appended;
        self.wal_segments_retired += other.wal_segments_retired;
        self.manifest_fallbacks += other.manifest_fallbacks;
        self.recovery_suffix_epochs += other.recovery_suffix_epochs;
        self.regroups_applied += other.regroups_applied;
        self.resplits_applied += other.resplits_applied;
        self.reconf_rejected += other.reconf_rejected;
    }

    /// Rebuilds the counter view of a run from a telemetry registry
    /// snapshot — the projection the smoke test cross-checks against the
    /// per-run `ReplayMetrics` the engine returns directly.
    ///
    /// Projectable fields are exactly the ones the registry integrates:
    /// throughput counters, busy-time counters, the dispatch/stage
    /// histogram sums, ingest-resync, durability and adaptive-control
    /// counters, and pool hit counts. Not projectable (left at their
    /// defaults): `wall` (the registry holds no end-to-end clock),
    /// `engine`, `gc` node-level stats (only pass/pruned totals are
    /// exported), and the
    /// `quarantined_groups` *indices* (the registry exports the count
    /// gauge; the index set lives in events and on the engine).
    pub fn project(snap: &TelemetrySnapshot) -> ReplayMetrics {
        let hist_sum = |name: &str| {
            Duration::from_micros(
                snap.histogram_summary_all(name).map(|s| s.sum_us).unwrap_or_default(),
            )
        };
        ReplayMetrics {
            txns: snap.counter_total(names::TXNS) as usize,
            entries: snap.counter_total(names::ENTRIES) as usize,
            bytes: snap.counter_total(names::BYTES),
            epochs: snap.counter_total(names::EPOCHS) as usize,
            dispatch_busy: hist_sum(names::DISPATCH_US),
            replay_busy: Duration::from_micros(snap.counter_total(names::REPLAY_BUSY_US)),
            commit_busy: Duration::from_micros(snap.counter_total(names::COMMIT_BUSY_US)),
            stage1_wall: hist_sum(names::STAGE1_US),
            stage2_wall: hist_sum(names::STAGE2_US),
            cell_buffers_recycled: snap.counter_total(names::CELL_RECYCLED),
            cell_buffers_allocated: snap.counter_total(names::CELL_ALLOCATED),
            ingest_retries: snap.counter_total(names::INGEST_RETRIES),
            checksum_failures: snap.counter_total(names::CHECKSUM_FAILURES),
            epoch_gaps: snap.counter_total(names::EPOCH_GAPS),
            ingest_stalls: snap.counter_total(names::INGEST_STALLS),
            gc_passes: snap.counter_total(names::GC_PASSES),
            checkpoints_written: snap.counter_total(names::CHECKPOINTS_WRITTEN),
            checkpoints_skipped_degraded: snap.counter_total(names::CHECKPOINTS_SKIPPED),
            wal_epochs_appended: snap.counter_total(names::WAL_EPOCHS_APPENDED),
            wal_segments_retired: snap.counter_total(names::WAL_SEGMENTS_RETIRED),
            manifest_fallbacks: snap.counter_total(names::MANIFEST_FALLBACKS),
            recovery_suffix_epochs: snap.counter_total(names::RECOVERY_SUFFIX_EPOCHS),
            regroups_applied: snap.counter_total(names::ADAPT_REGROUPS),
            resplits_applied: snap.counter_total(names::ADAPT_RESPLITS),
            reconf_rejected: snap.counter_total(names::ADAPT_REJECTED),
            ..Default::default()
        }
    }

    /// The Table II breakdown: fractions of busy time spent in
    /// (dispatch, replay, commit). Sums to 1 when any work was done.
    pub fn breakdown(&self) -> (f64, f64, f64) {
        let d = self.dispatch_busy.as_secs_f64();
        let r = self.replay_busy.as_secs_f64();
        let c = self.commit_busy.as_secs_f64();
        let total = d + r + c;
        if total <= 0.0 {
            (0.0, 0.0, 0.0)
        } else {
            (d / total, r / total, c / total)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_wall() {
        let m = ReplayMetrics::default();
        assert_eq!(m.entries_per_sec(), 0.0);
        assert_eq!(m.txns_per_sec(), 0.0);
        assert_eq!(m.breakdown(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn breakdown_normalizes() {
        let m = ReplayMetrics {
            dispatch_busy: Duration::from_millis(10),
            replay_busy: Duration::from_millis(80),
            commit_busy: Duration::from_millis(10),
            ..Default::default()
        };
        let (d, r, c) = m.breakdown();
        assert!((d - 0.1).abs() < 1e-9);
        assert!((r - 0.8).abs() < 1e-9);
        assert!((c - 0.1).abs() < 1e-9);
    }

    #[test]
    fn degraded_mode_and_fault_counters() {
        let mut m = ReplayMetrics::default();
        assert!(!m.degraded());
        assert_eq!(m.ingest_faults(), 0);
        m.quarantined_groups.push(2);
        m.checksum_failures = 3;
        m.epoch_gaps = 1;
        m.ingest_stalls = 2;
        assert!(m.degraded());
        assert_eq!(m.ingest_faults(), 6);
    }

    #[test]
    fn absorb_unions_quarantine_sets() {
        // Absorbing runs that each saw a different quarantined group must
        // keep both; a replace would drop the pre-restart set.
        let mut total =
            ReplayMetrics { quarantined_groups: vec![3, 1], txns: 10, ..Default::default() };
        let run = ReplayMetrics { quarantined_groups: vec![2, 1], txns: 5, ..Default::default() };
        total.absorb(&run);
        assert_eq!(total.quarantined_groups, vec![1, 2, 3], "sorted deduped union");
        assert_eq!(total.txns, 15);
        // Absorbing a healthy run must not clear degraded state.
        total.absorb(&ReplayMetrics::default());
        assert_eq!(total.quarantined_groups, vec![1, 2, 3]);
        assert!(total.degraded());
    }

    #[test]
    fn project_rebuilds_counters_from_a_snapshot() {
        use aets_telemetry::{names, Telemetry};
        let tel = Telemetry::new();
        tel.registry().counter(names::TXNS).add(42);
        tel.registry().counter(names::EPOCHS).add(3);
        tel.registry().counter(names::REPLAY_BUSY_US).add(1_500);
        tel.registry().counter(names::CHECKPOINTS_WRITTEN).add(2);
        tel.registry().histogram(names::DISPATCH_US).record_micros(250);
        let m = ReplayMetrics::project(&tel.snapshot());
        assert_eq!(m.txns, 42);
        assert_eq!(m.epochs, 3);
        assert_eq!(m.replay_busy, Duration::from_micros(1_500));
        assert_eq!(m.checkpoints_written, 2);
        assert_eq!(m.dispatch_busy, Duration::from_micros(250));
        assert_eq!(m.wall, Duration::ZERO, "wall is not projectable");
    }

    #[test]
    fn throughput_is_entries_over_wall() {
        let m = ReplayMetrics {
            entries: 1000,
            txns: 100,
            wall: Duration::from_secs(2),
            ..Default::default()
        };
        assert_eq!(m.entries_per_sec(), 500.0);
        assert_eq!(m.txns_per_sec(), 50.0);
    }
}
