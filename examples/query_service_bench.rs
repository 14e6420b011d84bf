//! Concurrency benchmark for the query-serving `BackupNode`.
//!
//! ```sh
//! cargo run --release --example query_service_bench
//! ```
//!
//! A paced TPC-C stream replays into a live node (one epoch per fixed
//! gap, sized with headroom over the measured replay cost) while
//! closed-loop clients run a scan-heavy query mix whose snapshots sit
//! *ahead* of the global watermark — every query parks on Algorithm 3
//! until replay catches up, then scans. On one core the scans themselves
//! cannot parallelise, so any throughput scaling from extra workers is
//! exactly what the worker pool exists for: overlapping the admission
//! waits of concurrent sessions.
//!
//! Two claims are measured, and land in
//! `results/BENCH_query_service.json` when run from the repo root:
//!
//! 1. throughput scales ≥2× from 1 to 4 workers on the scan-heavy mix
//!    (freshness margin: `qts = watermark + 1.5 epoch gaps`);
//! 2. mean replay visibility delay (publish lag + half the epoch gap of
//!    batching staleness) under full query load stays within 10% of a
//!    no-query baseline.

use aets_suite::common::{TableId, Timestamp};
use aets_suite::memtable::{MemDb, Scan};
use aets_suite::replay::{
    AetsConfig, AetsEngine, BackupNode, NodeOptions, QuerySpec, QueryTarget, ReplayEngine,
    SerialEngine, TableGrouping,
};
use aets_suite::telemetry::{names, Telemetry};
use aets_suite::wal::{batch_into_epochs, encode_epoch, EncodedEpoch};
use aets_suite::workloads::tpcc::{self, TpccConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct RunStats {
    served: usize,
    window_s: f64,
    throughput_qps: f64,
    vis_delay_mean_us: f64,
    admission_wait_mean_us: f64,
    latency_mean_us: f64,
}

/// One paced run: a feeder thread replays one epoch per `gap` while
/// `clients` closed-loop readers query `table` at `qts = watermark +
/// margin_us`, capped at the stream head — readers demanding data
/// fresher than what has replayed. Returns throughput over the replay
/// window plus wait/latency/freshness means from the node's own
/// telemetry.
#[allow(clippy::too_many_arguments)]
fn pace_and_serve(
    epochs: &[EncodedEpoch],
    num_tables: usize,
    grouping: &TableGrouping,
    gap: Duration,
    workers: usize,
    clients: usize,
    margin_us: u64,
    table: TableId,
) -> RunStats {
    let tel = Arc::new(Telemetry::new());
    let engine = AetsEngine::builder(grouping.clone())
        .config(AetsConfig { threads: 2, ..Default::default() })
        .telemetry(tel.clone())
        .build()
        .expect("valid config");
    let node = BackupNode::builder()
        .engine(Arc::new(engine))
        .num_tables(num_tables)
        .options(NodeOptions { query_workers: workers, queue_depth: 64, ..Default::default() })
        .build()
        .expect("valid node");

    let last = epochs.last().expect("nonempty stream").max_commit_ts.as_micros();
    node.replay(&epochs[..1]).expect("seed epoch");

    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let (vis_delay_mean_us, window, served) = std::thread::scope(|scope| {
        let feeder = scope.spawn(|| {
            let mut staleness_us = 0u64;
            for i in 1..epochs.len() {
                // Ship epoch i at its arrival instant and charge the mean
                // staleness of its commits: publish lag behind arrival
                // plus half a gap of epoch-batching delay.
                let arrive = gap * i as u32;
                let now = t0.elapsed();
                if arrive > now {
                    std::thread::sleep(arrive - now);
                }
                node.replay(&epochs[i..=i]).expect("replay");
                let lag = t0.elapsed().saturating_sub(arrive);
                staleness_us += lag.as_micros() as u64 + gap.as_micros() as u64 / 2;
            }
            stop.store(true, Ordering::Release);
            (staleness_us as f64 / (epochs.len() - 1) as f64, t0.elapsed())
        });

        let mut readers = Vec::new();
        for _ in 0..clients {
            let (node, stop) = (&node, &stop);
            readers.push(scope.spawn(move || {
                let mut done: Vec<Duration> = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    let qts = (node.safe_ts().as_micros() + margin_us).min(last);
                    // The generic surface: one session over the spec's
                    // footprint, submitted through the admission queue.
                    node.query_one(Timestamp::from_micros(qts), QuerySpec::count(table))
                        .expect("query");
                    done.push(t0.elapsed());
                }
                done
            }));
        }
        let completions: Vec<Vec<Duration>> =
            readers.into_iter().map(|r| r.join().expect("reader")).collect();
        let (vis, window) = feeder.join().expect("feeder");
        let served = completions.iter().flatten().filter(|d| **d <= window).count();
        (vis, window, served)
    });

    let snap = tel.snapshot();
    let mean = |name: &str| snap.histogram_summary_all(name).map_or(0.0, |h| h.mean_us);
    RunStats {
        served,
        window_s: window.as_secs_f64(),
        throughput_qps: served as f64 / window.as_secs_f64(),
        vis_delay_mean_us,
        admission_wait_mean_us: mean(names::QUERY_ADMISSION_WAIT_US),
        latency_mean_us: mean(names::QUERY_LATENCY_US),
    }
}

/// Largest table whose full snapshot count stays under ~900us — heavy
/// enough to be scan-bound, light enough that four concurrent scans on
/// one core leave the replay path its CPU.
fn pick_scan_table(oracle: &MemDb, num_tables: usize) -> (TableId, Duration) {
    let mut best: Option<(TableId, usize, Duration)> = None;
    let mut cheapest: Option<(TableId, usize, Duration)> = None;
    for t in 0..num_tables as u32 {
        let table = TableId::new(t);
        let mut cost = Duration::MAX;
        let mut rows = 0;
        for _ in 0..3 {
            let start = Instant::now();
            rows = Scan::at(Timestamp::MAX).count(oracle.table(table));
            cost = cost.min(start.elapsed());
        }
        if cheapest.is_none_or(|(_, _, c)| cost < c) {
            cheapest = Some((table, rows, cost));
        }
        if cost <= Duration::from_micros(900) && best.is_none_or(|(_, r, _)| rows > r) {
            best = Some((table, rows, cost));
        }
    }
    let (table, rows, cost) = best.or(cheapest).expect("at least one table");
    println!("scan target: table {table} ({rows} rows, ~{cost:.2?} per snapshot count)");
    (table, cost)
}

fn main() {
    let workload =
        tpcc::generate(&TpccConfig { num_txns: 12_800, warehouses: 2, ..Default::default() });
    let coarse: Vec<_> = batch_into_epochs(workload.txns.clone(), 128)
        .expect("positive epoch size")
        .iter()
        .map(encode_epoch)
        .collect();
    let n = workload.num_tables();
    let (groups, rates) = tpcc::paper_grouping();
    let grouping = TableGrouping::new(n, groups, rates, &workload.analytic_tables)
        .expect("paper grouping is well-formed");

    let oracle = MemDb::new(n);
    SerialEngine.replay_all(&coarse, &oracle).expect("oracle replay");
    let (table, scan_cost) = pick_scan_table(&oracle, n);

    // Pacing with headroom over this machine's replay cost, and a
    // freshness margin of 1.5 gaps so margin-policy queries always park.
    let gap = Duration::from_millis(40);
    let margin = gap.as_micros() as u64 * 3 / 2;
    println!("stream: {} txns; {} epochs @ {gap:?}", workload.txns.len(), coarse.len());

    let run = |workers, clients| {
        pace_and_serve(&coarse, n, &grouping, gap, workers, clients, margin, table)
    };
    println!("\n-- replay baseline (no queries) --");
    let base = run(1, 0);
    println!("visibility delay mean {:.0}us", base.vis_delay_mean_us);

    println!("\n-- worker scaling --");
    let one = run(1, 1);
    let four = run(4, 4);
    let scaling = four.throughput_qps / one.throughput_qps;
    for (label, s) in [("1 worker", &one), ("4 workers", &four)] {
        println!(
            "{label}: {} queries in {:.2}s = {:.1} q/s (latency mean {:.1}ms, \
             admission wait mean {:.1}ms)",
            s.served,
            s.window_s,
            s.throughput_qps,
            s.latency_mean_us / 1e3,
            s.admission_wait_mean_us / 1e3,
        );
    }
    println!("scaling 1→4 workers: {scaling:.2}x (target >= 2x)");
    let vis_ratio = four.vis_delay_mean_us / base.vis_delay_mean_us;
    println!(
        "visibility delay under load: {:.0}us vs {:.0}us baseline = {:.3}x (target <= 1.10x)",
        four.vis_delay_mean_us, base.vis_delay_mean_us, vis_ratio
    );

    let scaling_ok = scaling >= 2.0;
    let vis_ok = vis_ratio <= 1.10;
    println!("\nacceptance: scaling {scaling_ok} / visibility {vis_ok}");

    if std::path::Path::new("results").is_dir() {
        let json = format!(
            "{{\n  \"benchmark\": \"query_service\",\n  \"workload\": \"tpcc\",\n  \
             \"txns\": {},\n  \"scan_table\": {},\n  \"scan_cost_us\": {},\n  \
             \"scaling_phase\": {{\n    \"epochs\": {}, \"epoch_gap_ms\": {}, \
             \"freshness_margin_gaps\": 1.5,\n    \
             \"throughput_1_worker_qps\": {:.1}, \"throughput_4_workers_qps\": {:.1},\n    \
             \"scaling_1_to_4\": {:.2}, \"target\": 2.0\n  }},\n  \
             \"freshness_phase\": {{\n    \
             \"vis_delay_baseline_us\": {:.0}, \"vis_delay_under_load_us\": {:.0},\n    \
             \"ratio\": {:.3}, \"target\": 1.10\n  }},\n  \
             \"all_targets_met\": {}\n}}\n",
            workload.txns.len(),
            table.raw(),
            scan_cost.as_micros(),
            coarse.len(),
            gap.as_millis(),
            one.throughput_qps,
            four.throughput_qps,
            scaling,
            base.vis_delay_mean_us,
            four.vis_delay_mean_us,
            vis_ratio,
            scaling_ok && vis_ok,
        );
        std::fs::write("results/BENCH_query_service.json", json).expect("write results");
        println!("wrote results/BENCH_query_service.json");
    }
}
