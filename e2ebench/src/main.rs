//! End-to-end benchmark of the backup node: primary → TCP ship → WAL →
//! two-stage replay → visibility flip → admitted read, checked against
//! the serial oracle.
//!
//! ```sh
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload tpcc_fresh --seed 1 --seconds 40 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of separate traced passes with
//! `--trace 1`. See `e2ebench/README.md` for every metric and workload.

mod check;
mod run;
mod stats;
mod workload;

use aets_memtable::MemDb;
use aets_replay::{ReplayEngine, SerialEngine};
use aets_telemetry::names;
use run::{Dirs, Pass};
use stats::{median, ms, Summary};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Def, Inputs};

/// Passes per run, each set up from scratch. Timings pool the passes'
/// samples; per-pass figures (throughput, recovery, set-up) report the
/// median pass.
const PASSES: usize = 8;

/// The call-level split must cover at least this share of the busy
/// ingest loop, or the breakdown is missing a layer.
const MIN_ACCOUNTED_PCT: f64 = 90.0;

struct Args {
    workload: Def,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = workload::all().iter().map(|d| d.name).collect();
                workload = Some(workload::by_name(&value).ok_or_else(|| {
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(2..=600).contains(&s) {
                    return Err(format!("--seconds must be within 2..=600, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn data_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".data")
}

/// One pass, set up from scratch and checked against the oracle.
struct Checked {
    inputs: Inputs,
    pass: Pass,
    setup_s: f64,
    wrong: u64,
}

impl Checked {
    fn correct(&self) -> bool {
        self.wrong == 0 && self.pass.digest_ok && self.pass.recovered_ok
    }
}

/// Seed of pass `i`, drawn from the run's seed. Each pass gets inputs of
/// its own, so a run averages over several log streams instead of
/// repeating one stream's epoch boundaries and stall placement.
fn pass_seed(seed: u64, i: usize) -> u64 {
    aets_common::splitmix64(seed ^ aets_common::splitmix64(i as u64))
}

/// Sets up (generation, encoding, oracle replay, node open, receiver
/// bind), runs pass `i`, and checks every answer and both digests.
fn checked_pass(args: &Args, i: usize, traced: bool) -> Result<Checked, String> {
    let def = &args.workload;
    let tag = format!("{}-{}{i}", def.name, if traced { "traced-" } else { "" });
    let t = Instant::now();
    let inputs = workload::generate(def, pass_seed(args.seed, i), pass_seconds(args));
    let oracle = MemDb::new(inputs.num_tables);
    SerialEngine.replay_all(&inputs.epochs, &oracle).map_err(|e| format!("oracle: {e}"))?;
    let oracle_digest = oracle.digest_at(aets_common::Timestamp::MAX);
    let node = run::open_node(def, &inputs, Dirs::new(&data_dir(), &tag))?;
    let setup_s = t.elapsed().as_secs_f64();
    let mut pass = run::run_pass(def, &inputs, oracle_digest, node, traced)?;
    let wrong = run::check_answers(&inputs, &oracle, &mut pass.reads);
    report_failures(&pass, wrong);
    Ok(Checked { inputs, pass, setup_s, wrong })
}

/// `--seconds` of measurement is split evenly over the passes.
fn pass_seconds(args: &Args) -> f64 {
    args.seconds as f64 / PASSES as f64
}

/// Peak resident set of this process so far, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Metrics in output order, each with its unit.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The metrics as a JSON object; every value must be a finite number.
    fn json(&self) -> Result<String, String> {
        let mut body = Vec::with_capacity(self.0.len());
        for (n, v, u) in &self.0 {
            if !v.is_finite() {
                return Err(format!("{n} is not a finite number: {v}"));
            }
            body.push(format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"));
        }
        Ok(format!("{{{}}}", body.join(", ")))
    }
}

/// Latencies (ms) of one stream over all passes, due after each pass's
/// warm prefix. A failed read counts as missing every limit: it enters
/// at no less than the query deadline.
fn lags(runs: &[&Checked], scan: bool, keep: impl Fn(u32) -> bool) -> Vec<f64> {
    let mut out = Vec::new();
    for c in runs {
        let warm = c.pass.start + workload::WARM;
        out.extend(
            c.pass
                .reads
                .iter()
                .filter(|r| {
                    let read = &c.inputs.reads[r.idx];
                    read.scan == scan && keep(read.class) && r.timed.due >= warm
                })
                .map(|r| match r.outcome {
                    Ok(_) => ms(r.timed.lag()),
                    Err(_) => ms(run::QUERY_TIMEOUT).max(ms(r.timed.lag())),
                }),
        );
    }
    out
}

/// Replication lag of every transaction: from its commit (its due
/// instant; the pass start for a backlog) to the return of `ingest` for
/// its epoch. Weighting by transaction gives every committed write one
/// sample, so the tail has enough samples without tiny epochs.
fn epoch_lags(runs: &[&Checked]) -> Vec<f64> {
    let mut out = Vec::new();
    for c in runs {
        let warm = c.pass.start + if c.inputs.paced { workload::WARM } else { Duration::ZERO };
        for (i, e) in c.pass.epochs.iter().enumerate() {
            for t in 0..c.inputs.commits[i].len() {
                let due = c.pass.start + c.inputs.commit_due(i, t);
                if due >= warm {
                    out.push(ms(e.done.saturating_duration_since(due)));
                }
            }
        }
    }
    out
}

/// Median over passes of a per-pass figure.
fn med(runs: &[&Checked], f: impl Fn(&Checked) -> f64) -> f64 {
    median(&runs.iter().map(|c| f(c)).collect::<Vec<_>>())
}

fn pooled<T: Copy>(runs: &[&Checked], f: impl Fn(&Pass) -> &[T]) -> Vec<T> {
    runs.iter().flat_map(|c| f(&c.pass).iter().copied()).collect()
}

fn p(samples: &[f64], pct: f64, what: &str) -> Result<f64, String> {
    Summary::at(samples, pct).map_err(|e| format!("{what}: {e}"))
}

fn describe(what: &str, samples: &[f64]) {
    match Summary::of(samples) {
        Some(s) => println!(
            "  {what}: n={} p50={:.3} p{}={:.3} (highest percentile with >=10 samples beyond)",
            s.n, s.p50, s.tail_pct, s.tail
        ),
        None => println!("  {what}: n={} (too few samples for a median)", samples.len()),
    }
}

/// Log entries per second from ship start until the last epoch is
/// visible.
fn entries_per_s(c: &Checked) -> f64 {
    c.inputs.entries as f64 / c.pass.last_visible.duration_since(c.pass.start).as_secs_f64()
}

/// `first_peak` is the peak resident set (MiB) through the first pass.
/// Later passes start on the allocator's leftovers of earlier ones and
/// on the kept results, which raised the run's peak by a varying amount.
fn end_to_end(name: &str, runs: &[&Checked], first_peak: f64) -> Result<Metrics, String> {
    let reads = lags(runs, false, |_| true);
    let scans = lags(runs, true, |_| true);
    let epochs = epoch_lags(runs);
    println!("samples over {} passes of {name}:", runs.len());
    describe("read lag ms", &reads);
    describe("scan lag ms", &scans);
    describe("epoch lag ms", &epochs);
    let mut m = Metrics::default();
    m.put("setup_s", med(runs, |c| c.setup_s), "s");
    m.put("read_lag_p50_ms", p(&reads, 50.0, "read lag")?, "ms");
    m.put("read_lag_p99_ms", p(&reads, 99.0, "read lag")?, "ms");
    m.put("epoch_lag_p50_ms", p(&epochs, 50.0, "epoch lag")?, "ms");
    m.put("epoch_lag_p99_ms", p(&epochs, 99.0, "epoch lag")?, "ms");
    m.put("catchup_entries_per_s", med(runs, entries_per_s), "entries/s");
    m.put("scan_p50_ms", p(&scans, 50.0, "scan lag")?, "ms");
    m.put("scan_p99_ms", p(&scans, 99.0, "scan lag")?, "ms");
    m.put(
        "write_bytes_per_log_byte",
        med(runs, |c| (c.pass.wal_bytes + c.pass.ckpt_bytes) as f64 / c.inputs.log_bytes as f64),
        "ratio",
    );
    m.put("peak_rss_mib", first_peak, "MiB");
    Ok(m)
}

/// The workload's headline figure, used to state the traced passes'
/// overhead: read lag where reads wait on replay, drain time otherwise.
fn headline(runs: &[&Checked]) -> f64 {
    match runs[0].inputs.paced {
        true => median(&lags(runs, false, |_| true)),
        false => 1.0 / med(runs, entries_per_s),
    }
}

fn sum_s(xs: &[Duration]) -> f64 {
    xs.iter().map(Duration::as_secs_f64).sum()
}

/// Busy time of a pass's ingest loop (pacing waits excluded) and the
/// share of it the call-level split accounts for.
fn accounting(pass: &Pass) -> (f64, f64) {
    let busy = (pass.loop_wall - pass.release_wait).as_secs_f64();
    let covered = pass.fetch.as_secs_f64()
        + sum_s(&pass.plain)
        + sum_s(&pass.ckpt)
        + pass.client_overhead.as_secs_f64();
    (busy, covered / busy * 100.0)
}

fn per_layer(
    name: &str,
    runs: &[&Checked],
    untraced: &[&Checked],
    iso: &run::Isolated,
) -> Result<Metrics, String> {
    // The isolated costs were measured on the first traced pass's stream.
    let inputs = &runs[0].inputs;
    let n = inputs.epochs.len() as f64;
    let wal_us = stats::us(iso.wal_append_per_epoch);
    let replay_us = stats::us(iso.replay_wall) / n;
    let plain = pooled(runs, |p| &p.plain);
    let plain_us = run::mean_us(&plain);
    let interference = (plain_us - (wal_us + replay_us)) / plain_us * 100.0;
    let accounted = runs.iter().map(|c| accounting(&c.pass).1).fold(f64::INFINITY, f64::min);

    for c in runs {
        let pass = &c.pass;
        let (busy, acc) = accounting(pass);
        println!("ingest loop of a traced {name} pass ({busy:.3} s busy, {acc:.1}% accounted):");
        for (what, s) in [
            ("transport wait", pass.fetch.as_secs_f64()),
            ("plain ingest", sum_s(&pass.plain)),
            ("checkpoint-bearing ingest", sum_s(&pass.ckpt)),
            ("client overhead", pass.client_overhead.as_secs_f64()),
        ] {
            println!("  {what}: {s:.3} s ({:.1}%)", s / busy * 100.0);
        }
        let ckpt_ms: Vec<String> = pass.ckpt.iter().map(|d| format!("{:.0}", ms(*d))).collect();
        println!("  checkpoint-bearing ingest calls (ms): {}", ckpt_ms.join(" "));
        let mx = &pass.metrics;
        let busy_total = (mx.dispatch_busy + mx.replay_busy + mx.commit_busy).as_secs_f64();
        println!(
            "  aets busy split dispatch/replay/commit = {:.1}/{:.1}/{:.1}% \
             (repro table2, simulated 32 threads: ~1/98/1; not gated)",
            mx.dispatch_busy.as_secs_f64() / busy_total * 100.0,
            mx.replay_busy.as_secs_f64() / busy_total * 100.0,
            mx.commit_busy.as_secs_f64() / busy_total * 100.0,
        );
        println!(
            "  DurableBackup::metrics().entries_per_sec() = {} (its wall clock is never summed)",
            mx.entries_per_sec()
        );
    }
    println!(
        "isolated wal+aets {:.0} us/epoch vs in-place plain ingest {plain_us:.0} us/epoch \
         (interference {interference:.1}%)",
        wal_us + replay_us
    );

    let mut m = Metrics::default();
    let mx = |f: fn(&aets_replay::ReplayMetrics) -> Duration| {
        med(runs, |c| f(&c.pass.metrics).as_secs_f64())
    };
    let counter =
        |name: &str| med(runs, |c| c.pass.counters.get(name).copied().unwrap_or(0) as f64);
    let total = |name: &str| {
        runs.iter().map(|c| c.pass.counters.get(name).copied().unwrap_or(0)).sum::<u64>() as f64
    };

    // transport
    m.put("transport.ship_s", med(runs, |c| c.pass.ship_wall.as_secs_f64()), "s");
    m.put("transport.fetch_wait_s", med(runs, |c| c.pass.fetch.as_secs_f64()), "s");
    m.put(
        "transport.wire_bytes_per_log_byte",
        med(runs, |c| c.pass.ship.bytes_sent as f64 / c.inputs.log_bytes as f64),
        "ratio",
    );
    m.put(
        "transport.frames_resent",
        med(runs, |c| (c.pass.ship.frames_sent - c.pass.ship.epochs) as f64),
        "count",
    );
    m.put("transport.reconnects", med(runs, |c| c.pass.ship.reconnects as f64), "count");

    // recovery: ingest calls that cut no checkpoint
    let plain_ms: Vec<f64> = plain.iter().map(|d| ms(*d)).collect();
    let plain_median = median(&plain_ms);
    m.put("recovery.ingest_p50_ms", plain_median, "ms");
    m.put("recovery.ingest_p95_ms", p(&plain_ms, 95.0, "plain ingest")?, "ms");
    m.put("recovery.open_s", med(runs, |c| c.pass.recovery.as_secs_f64()), "s");
    m.put("recovery.suffix_epochs", med(runs, |c| c.pass.suffix_epochs as f64), "count");
    m.put("recovery.ingest_interference_pct", interference, "%");

    // checkpoint: calls after which a checkpoint landed, less a plain call
    let stalls =
        |c: &Checked| -> Vec<f64> { c.pass.ckpt.iter().map(|d| ms(*d) - plain_median).collect() };
    m.put("checkpoint.count", med(runs, |c| c.pass.ckpt.len() as f64), "count");
    m.put(
        "checkpoint.stall_max_ms",
        med(runs, |c| stalls(c).into_iter().fold(0.0, f64::max)),
        "ms",
    );
    m.put("checkpoint.stall_total_s", med(runs, |c| stalls(c).iter().sum::<f64>() / 1e3), "s");
    m.put("checkpoint.bytes_written", med(runs, |c| c.pass.ckpt_bytes as f64), "bytes");

    // wal
    m.put("wal.bytes_appended", med(runs, |c| c.pass.wal_bytes as f64), "bytes");
    m.put("wal.fsyncs", med(runs, |c| c.pass.fsyncs as f64), "count");
    m.put("wal.append_us_per_epoch", wal_us, "us");

    // aets
    m.put(
        "aets.replay_entries_per_s",
        inputs.entries as f64 / iso.replay_wall.as_secs_f64(),
        "entries/s",
    );
    m.put("aets.dispatch_busy_s", mx(|m| m.dispatch_busy), "s");
    m.put("aets.replay_busy_s", mx(|m| m.replay_busy), "s");
    m.put("aets.commit_busy_s", mx(|m| m.commit_busy), "s");
    m.put("aets.stage1_wall_s", mx(|m| m.stage1_wall), "s");
    m.put("aets.stage2_wall_s", mx(|m| m.stage2_wall), "s");
    m.put(
        "aets.cell_reuse_ratio",
        med(runs, |c| {
            let m = &c.pass.metrics;
            let cells = (m.cell_buffers_recycled + m.cell_buffers_allocated).max(1);
            m.cell_buffers_recycled as f64 / cells as f64
        }),
        "ratio",
    );

    // visibility: read lag less the same read's pure memtable time
    let mut waits = Vec::new();
    for c in runs {
        let warm = c.pass.start + workload::WARM;
        waits.extend(
            c.pass
                .reads
                .iter()
                .filter(|r| !c.inputs.reads[r.idx].scan && r.timed.due >= warm)
                .filter_map(|r| r.exec.map(|e| ms(r.timed.lag().saturating_sub(e)))),
        );
    }
    m.put("visibility.wait_p50_ms", p(&waits, 50.0, "visibility wait")?, "ms");
    m.put("visibility.wait_p99_ms", p(&waits, 99.0, "visibility wait")?, "ms");

    // service: refusals anywhere count, so these are totals
    m.put(
        "service.refused",
        total(names::QUERIES_OVERLOADED) + total(names::QUERIES_REFUSED_DEGRADED),
        "count",
    );
    m.put("service.timed_out", total(names::QUERIES_TIMED_OUT), "count");
    m.put(
        "service.inflight_max",
        runs.iter().map(|c| c.pass.inflight_max).max().unwrap_or(0) as f64,
        "count",
    );

    // memtable
    let reads = runs.iter().flat_map(|c| c.pass.reads.iter());
    let execs: Vec<f64> = reads.clone().filter_map(|r| r.exec.map(stats::us)).collect();
    let exec_s: f64 = reads.clone().filter_map(|r| r.exec).map(|d| d.as_secs_f64()).sum();
    let rows: u64 = reads.map(|r| r.rows).sum();
    m.put("memtable.read_exec_p50_us", p(&execs, 50.0, "read exec")?, "us");
    m.put("memtable.scan_rows_per_s", rows as f64 / exec_s, "rows/s");
    m.put("memtable.gc_pruned", counter(names::GC_PRUNED), "count");

    // control
    m.put("control.regroups", counter(names::ADAPT_REGROUPS), "count");
    m.put("control.resplits", counter(names::ADAPT_RESPLITS), "count");
    m.put("control.reconf_rejected", counter(names::ADAPT_REJECTED), "count");
    let rotated = &inputs.rotated_classes;
    let rot = lags(runs, false, |cl| rotated.is_empty() || rotated.contains(&cl));
    m.put("control.rotated_read_lag_p50_ms", p(&rot, 50.0, "rotated read lag")?, "ms");

    // client
    let late: Vec<f64> =
        runs.iter().flat_map(|c| c.pass.reads.iter().map(|r| ms(r.timed.late()))).collect();
    m.put("client.read_late_p99_ms", p(&late, 99.0, "read lateness")?, "ms");
    let release: Vec<f64> = if inputs.paced {
        pooled(runs, |p| &p.release_late).into_iter().map(ms).collect()
    } else {
        // A backlog has one release per pass: the shipper's start.
        runs.iter().map(|c| ms(c.pass.ship_late)).collect()
    };
    let release_late = if inputs.paced {
        p(&release, 95.0, "epoch release lateness")?
    } else {
        release.iter().copied().fold(0.0, f64::max)
    };
    m.put("client.epoch_release_late_p95_ms", release_late, "ms");
    let (traced, plain) = (headline(runs), headline(untraced));
    m.put("client.trace_overhead_pct", (traced - plain) / plain * 100.0, "%");
    m.put("client.accounted_pct", accounted, "%");

    if accounted < MIN_ACCOUNTED_PCT {
        return Err(format!(
            "the call-level split covers only {accounted:.1}% of an ingest loop \
             (at least {MIN_ACCOUNTED_PCT}% required)"
        ));
    }
    Ok(m)
}

/// Runs the passes; returns the metrics, (attempted, failed) over every
/// read and scan issued, and whether every check passed.
fn bench(args: &Args) -> Result<(Metrics, u64, u64, bool), String> {
    let name = args.workload.name;
    let mut plain = Vec::with_capacity(PASSES);
    let mut traced = Vec::with_capacity(PASSES);
    let mut first_peak = 0.0;
    for i in 0..PASSES {
        plain.push(checked_pass(args, i, false)?);
        if i == 0 {
            first_peak = peak_rss_mib()?;
        }
        // Traced passes alternate with untraced ones, so the overhead
        // figure compares runs made under the same conditions.
        if args.trace {
            traced.push(checked_pass(args, i, true)?);
        }
    }
    let all: Vec<&Checked> = plain.iter().chain(&traced).collect();
    let attempted = all.iter().map(|c| c.pass.reads.len() as u64).sum();
    let failed =
        all.iter().map(|c| c.pass.reads.iter().filter(|r| r.outcome.is_err()).count() as u64).sum();
    let wrong: u64 = all.iter().map(|c| c.wrong).sum();
    let correct = all.iter().all(|c| c.correct());
    if wrong > 0 {
        println!("{wrong} answers differ from the serial oracle");
    }
    let plain: Vec<&Checked> = plain.iter().collect();
    let metrics = if args.trace {
        let traced: Vec<&Checked> = traced.iter().collect();
        let scratch = Dirs::new(&data_dir(), &format!("{name}-isolated"));
        let iso = run::isolated(&args.workload, &traced[0].inputs, &scratch.scratch())?;
        per_layer(name, &traced, &plain, &iso)?
    } else {
        end_to_end(name, &plain, first_peak)?
    };
    Ok((metrics, attempted, failed, correct))
}

fn report_failures(pass: &Pass, wrong: u64) {
    let failed: Vec<_> = pass.reads.iter().filter_map(|r| r.outcome.as_ref().err()).collect();
    for e in failed.iter().take(5) {
        println!("read failed: {e}");
    }
    if failed.len() > 5 {
        println!("... {} failed reads in all", failed.len());
    }
    if wrong > 0 {
        println!("{wrong} answers differ from the serial oracle");
    }
    if !pass.digest_ok {
        println!("drained state differs from the serial oracle");
    }
    if !pass.recovered_ok {
        println!("recovered state differs from the serial oracle");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <tpcc_fresh|tpcc_drift|bustracker_catchup> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} on {} cores",
        args.workload.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    match bench(&args)
        .and_then(|(m, attempted, failed, correct)| Ok((m.json()?, m, attempted, failed, correct)))
    {
        Ok((json, metrics, attempted, failed, correct)) => {
            for (name, value, unit) in &metrics.0 {
                println!("{name} = {value} {unit}");
            }
            println!(
                "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
                 \"metrics\": {json}}}"
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
