//! End-to-end benchmark of the GraphAug serving tier and online loop.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Boots the real topology in process — base training, engine replicas
//! behind the shard router, the ingest listener and the `FineTuner` —
//! drives one workload generated from `--seed`, checks every reply, and
//! prints one JSON line last on stdout: the end-to-end metrics with
//! `--trace 0`, the per-layer ledger with `--trace 1`. A human-readable
//! report goes to stderr.
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//!
//! * `rec_point_zipf` — open loop of single-user `REC … 20` through a
//!   2-shard router on Zipf(1.1) users: half the run at the reference rate
//!   the latency metric is read at, the rest stepped over a rate ladder.
//! * `rec_batch_uniform` — closed loop on two connections of 64-user `REC`
//!   lines through the same router, uniform users, cutoffs drawn from 64
//!   values so the (user, k) keys dwarf the response cache.
//! * `online_put_rec` — fixed-rate `PUT` windows into the ingest listener
//!   with one fine-tune round (`poll_once`, then `reload_if_newer`) per
//!   durable window, beside an open `REC` loop through a 1-shard router.
//!
//! The end-to-end metrics are the ones every workload has: `setup_s`,
//! `rec_p50_us` (the workload's `REC` lines), `lists_per_s` and
//! `peak_rss_mb`. The workload-specific end-to-end numbers — tails, the
//! ladder's highest passing rate, `PUT` acknowledgement and freshness —
//! come with the traced run's per-layer metrics as `e2e.*`, measured on
//! its untraced phase; on a shared two-core machine they vary too much
//! from run to run to gate on.
//!
//! A traced run replays each request layer by layer from the benchmark's
//! own code and keeps the spans; see [`trace`] for how self time and the
//! ledger are computed from the span file.

mod load;
mod stats;
mod topo;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{median, Summary};
use topo::Topology;
use trace::{durations, per_request, read_spans, write_spans, Part, Tracer};
use workloads::{Counts, OnlineOut, Rung, Workload};

/// Setups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// A run whose open-loop generator sent later than this (p99, ms) while
/// its connection was idle, or whose fine-tune windows piled up beyond
/// this many, is invalid.
const LATE_LIMIT_MS: f64 = 20.0;
const BACKLOG_LIMIT: u64 = 2;
/// Time slices `rec_p50_us` takes the median of.
const REC_SLICES: usize = 5;

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s >= 1)
                        .ok_or("bad --seconds (wants an integer >= 1)")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("bad --trace (wants 0 or 1)".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let name = workload.ok_or("missing --workload")?;
    Ok(Args {
        workload: Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?,
        name,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Everything the run reports.
#[derive(Default)]
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    invalid: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds a phase's counts and prints them.
    fn phase(&mut self, name: &str, c: &Counts) {
        eprintln!(
            "phase {name}: sent={} succeeded={} failed={}",
            c.sent,
            c.sent - c.failed,
            c.failed
        );
        self.attempted += c.sent;
        self.failed += c.failed;
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.invalid.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn counts_of(run: &load::OpenLoop) -> Counts {
    Counts {
        sent: run.sent,
        failed: run.failed,
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The serving phase's results, whatever the workload.
struct Serving {
    /// Latency samples of `REC` lines (µs): from due time in open loops.
    rec_us: Vec<f64>,
    /// When each of those lines' reply arrived (s since the first).
    rec_at: Vec<f64>,
    /// Send-to-reply round trips of the same lines (µs).
    rtt_us: Vec<f64>,
    lists_per_s: f64,
    late_ms: Vec<f64>,
    /// `rec_point_zipf` only: the reference rate and the ladder above it.
    rungs: Vec<Rung>,
    /// `online_put_rec` only: writes, rounds and freshness.
    online: Option<OnlineOut>,
    counts: Counts,
}

impl Serving {
    /// The `rec_p50_us` metric: median of [`REC_SLICES`] per-slice
    /// medians over the phase (see [`stats::sliced_median`]).
    fn rec_p50_us(&self) -> f64 {
        stats::sliced_median(&self.rec_us, &self.rec_at, REC_SLICES)
    }
}

fn seconds_since_first(done: &[Instant]) -> Vec<f64> {
    let first = done.iter().min().copied();
    done.iter()
        .map(|t| first.map_or(0.0, |f| t.duration_since(f).as_secs_f64()))
        .collect()
}

/// Runs the workload's serving phase for `secs`; `ladder` adds the rate
/// ladder to `rec_point_zipf` (untraced runs of the full length only).
fn serve_phase(
    w: Workload,
    topo: &mut Topology,
    seed: u64,
    stream: u64,
    secs: f64,
    ladder: bool,
    tracer: Option<&Tracer>,
) -> Result<Serving, String> {
    match w {
        Workload::Point => {
            // The reference rate runs as several segments, each on fresh
            // connections, so one unlucky thread placement does not decide
            // the whole run.
            let segs = workloads::POINT_REF_SEGMENTS;
            let ref_secs = if ladder { secs / 2.0 } else { secs };
            let seg = Duration::from_secs_f64(ref_secs / segs as f64);
            let mut plan = vec![(workloads::POINT_REF_RPS, seg); segs];
            if ladder {
                let step =
                    Duration::from_secs_f64(secs / 2.0 / workloads::POINT_LADDER_RPS.len() as f64);
                plan.extend(workloads::POINT_LADDER_RPS.iter().map(|&r| (r, step)));
            }
            let workloads::Ladder { rungs, secs } =
                workloads::point_phase(topo, seed, stream, &plan, tracer)?;
            let mut reference = Rung {
                rps: workloads::POINT_REF_RPS,
                run: Default::default(),
            };
            let mut counts = Counts::default();
            let mut late = Vec::new();
            let mut lists = 0;
            for r in &rungs {
                counts.sent += r.run.sent;
                counts.failed += r.run.failed;
                late.extend(&r.run.late_ms);
                lists += r.run.due_us.len();
            }
            let mut rungs = rungs.into_iter();
            for r in rungs.by_ref().take(segs) {
                reference.run.absorb(r.run);
            }
            Ok(Serving {
                rec_us: reference.run.due_us.clone(),
                rec_at: seconds_since_first(&reference.run.done),
                rtt_us: reference.run.rtt_us.clone(),
                lists_per_s: lists as f64 / secs,
                late_ms: late,
                rungs: std::iter::once(reference).chain(rungs).collect(),
                online: None,
                counts,
            })
        }
        Workload::Batch => {
            let b =
                workloads::batch_phase(topo, seed, stream, Duration::from_secs_f64(secs), tracer)?;
            Ok(Serving {
                rec_us: b.rtt_us.clone(),
                rec_at: seconds_since_first(&b.done),
                rtt_us: b.rtt_us,
                lists_per_s: b.lists as f64 / b.secs,
                late_ms: Vec::new(),
                rungs: Vec::new(),
                online: None,
                counts: b.counts,
            })
        }
        Workload::Online => {
            let windows = ((secs / workloads::WINDOW_PERIOD.as_secs_f64()) as u64).max(1);
            let o = workloads::online_phase(topo, seed, stream, windows, tracer)?;
            let mut counts = counts_of(&o.rec);
            counts.sent += o.put.sent;
            counts.failed += o.put.failed + o.failed_rounds;
            let mut late = o.rec.late_ms.clone();
            late.extend(&o.put.late_ms);
            Ok(Serving {
                rec_us: o.rec.due_us.clone(),
                rec_at: seconds_since_first(&o.rec.done),
                rtt_us: o.rec.rtt_us.clone(),
                lists_per_s: o.rec.due_us.len() as f64 / o.rec_secs.max(1e-9),
                late_ms: late,
                rungs: Vec::new(),
                online: Some(o),
                counts,
            })
        }
    }
}

/// Highest rung rate whose p99 meets the limit with nothing shed.
fn max_rate(rungs: &[Rung]) -> f64 {
    rungs
        .iter()
        .filter(|r| r.p99_us() <= workloads::POINT_P99_LIMIT_US)
        .map(|r| r.rps)
        .fold(0.0, f64::max)
}

/// Removes the run's work directory however the run ends.
struct Work(PathBuf);

impl Drop for Work {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(a: &Args) -> Result<Outcome, String> {
    let root = Path::new(".bench_work");
    let work = Work(root.join(format!("run-{}", std::process::id())));
    let mut out = Outcome::default();
    let secs = a.seconds as f64;

    // Set up several times (once when traced); keep the last topology.
    let mut setup_s = Vec::new();
    let mut train_rate = Vec::new();
    let mut topo: Option<Topology> = None;
    for i in 0..if a.trace { 1 } else { SETUPS } {
        if let Some(t) = topo.take() {
            t.shutdown();
        }
        let t0 = Instant::now();
        let t = topo::boot(
            &work.0.join(format!("setup-{i}")),
            a.workload.shards(),
            a.trace,
        )?;
        setup_s.push(t0.elapsed().as_secs_f64());
        train_rate.push(t.train_steps as f64 / t.train_secs);
        topo = Some(t);
    }
    let mut topo = topo.expect("at least one setup");
    if let Some(n) = a.workload.compute_threads() {
        graphaug_par::set_thread_count(n);
    }
    eprintln!(
        "setup: {setup_s:?} s (median {:.3}); served mode of REC: {}",
        median(&setup_s),
        topo.served_mode()
    );

    let tracer = a.trace.then(Tracer::new);
    let traced = tracer.as_ref();
    let seed = a.seed;

    // Warm caches and connections; traced runs warm the twins in step.
    let warm = serve_phase(
        a.workload,
        &mut topo,
        seed,
        100,
        workloads::WARMUP.as_secs_f64(),
        false,
        traced,
    )?;
    out.phase("warmup", &warm.counts);

    // A traced run first replays a half-length serving phase layer by
    // layer; the untraced phase that follows gives the end-to-end medians
    // the ledger is read against.
    let mut acked = Vec::new();
    if let Some(t) = traced {
        t.drain();
        let s = serve_phase(a.workload, &mut topo, seed, 200, secs / 2.0, false, Some(t))?;
        out.phase("serve(traced)", &s.counts);
        acked.extend(s.online.iter().flat_map(|o| o.acked.iter().copied()));
    }

    let before = workloads::replica_stats(&topo)?;
    let serving = serve_phase(a.workload, &mut topo, seed, 300, secs, true, None)?;
    let after = workloads::replica_stats(&topo)?;
    out.phase("serve", &serving.counts);
    for r in &serving.rungs {
        eprintln!(
            "  {:>6} rps: {} shed={}",
            r.rps,
            Summary::of(&r.run.due_us).describe("us"),
            r.run.shed
        );
    }
    acked.extend(serving.online.iter().flat_map(|o| o.acked.iter().copied()));
    let (c, notes) = workloads::checks(&topo, seed, 400, &acked)?;
    out.phase("checks", &c);
    for n in notes {
        eprintln!("  check failed: {n}");
    }

    // Run validity: the generator kept to its schedule, fixed-rate loops
    // kept up, and the online loop kept up with its windows.
    let late = Summary::of(&serving.late_ms);
    let late_p99 =
        stats::nearest_rank(&stats::sorted(serving.late_ms.clone()), 99.0).unwrap_or(0.0);
    if late_p99 > LATE_LIMIT_MS {
        out.invalid.push(format!(
            "generator late p99 {late_p99:.2} ms > {LATE_LIMIT_MS} ms"
        ));
    }
    if serving.rungs.first().is_some_and(|r| r.run.overloaded()) {
        out.invalid
            .push("the reference-rate REC loop fell behind its schedule".into());
    }
    if let Some(o) = &serving.online {
        if o.backlog > BACKLOG_LIMIT {
            out.invalid
                .push(format!("{} fine-tune windows piled up", o.backlog));
        }
        if o.rec.overloaded() {
            out.invalid
                .push("the REC loop beside the writes fell behind its schedule".into());
        }
        if o.fresh_ms.is_empty() {
            out.invalid
                .push("no fine-tune round was observed served".into());
        }
    }

    let rec = Summary::of(&serving.rec_us);
    eprintln!(
        "REC latency: {}; median of {REC_SLICES} slice medians {:.1}us",
        rec.describe("us"),
        serving.rec_p50_us()
    );
    eprintln!("lists/s: {:.1}", serving.lists_per_s);
    eprintln!("generator lateness: {}", late.describe("ms"));
    if let Some(o) = &serving.online {
        eprintln!("PUT ack: {}", Summary::of(&o.put.due_us).describe("us"));
        eprintln!("freshness: {}", Summary::of(&o.fresh_ms).describe("ms"));
        eprintln!(
            "fine-tune rounds: {} (backlog max {})",
            o.rounds.len(),
            o.backlog
        );
    }

    if let Some(t) = traced {
        let spans_path = root.join(format!("spans-{}.tsv", a.name));
        write_spans(&spans_path, &t.drain()).map_err(|e| format!("write spans: {e}"))?;
        let spans = read_spans(&spans_path).map_err(|e| format!("read spans: {e}"))?;
        eprintln!("spans: {} in {}", spans.len(), spans_path.display());
        layer_metrics(
            &mut out,
            &spans,
            &serving,
            &topo,
            (&before, &after),
            median(&train_rate),
        );
    } else {
        out.metric("setup_s", median(&setup_s), "s");
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
        out.metric("rec_p50_us", serving.rec_p50_us(), "us");
        out.metric("lists_per_s", serving.lists_per_s, "1/s");
    }
    topo.shutdown();
    Ok(out)
}

type Stats = std::collections::BTreeMap<&'static str, u64>;

/// `after[f] - before[f]`.
fn delta(before: &Stats, after: &Stats, f: &str) -> f64 {
    after[f].saturating_sub(before[f]) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run. Layer times come from the span
/// file; counters from the replicas' `STATS` over the untraced phase; the
/// ledgers divide the traced layers by the untraced end-to-end medians.
/// Layers a workload does not exercise (the online loop's, outside
/// `online_put_rec`) read 0. The `e2e.*` entries are the untraced phase's
/// end-to-end numbers too noisy on a shared two-core box to gate on.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    out: &mut Outcome,
    spans: &[trace::Span],
    serving: &Serving,
    topo: &Topology,
    (before, after): (&Stats, &Stats),
    train_rate: f64,
) {
    let idle = OnlineOut::default();
    let update = serving.online.as_ref().unwrap_or(&idle);
    let med_of = |name: &str, scale: f64| median(&durations(spans, name)) / scale;

    // REC: routed round trip = router relay + per-shard replica round trips;
    // each replica round trip = wire + parse + engine + render; the engine's
    // time splits into its own work and the tables' top-K fan-out.
    let rec_layers = [
        ("rec", Part::SelfTime),
        ("serve.server", Part::SelfTime),
        ("serve.proto.parse", Part::Total),
        ("serve.engine.batch", Part::SelfTime),
        ("serve.tables.fanout", Part::Total),
        ("serve.proto.render", Part::Total),
    ];
    let per = per_request(spans, "rec", &rec_layers);
    let m: Vec<f64> = per.iter().map(|l| median(l)).collect();
    let rec_p50_ns = serving.rec_p50_us() * 1e3;
    let totals = per_request(
        spans,
        "rec",
        &[("rec", Part::Total), ("serve.engine.batch", Part::Total)],
    );
    let overhead: Vec<f64> = totals[0]
        .iter()
        .zip(&totals[1])
        .filter(|(_, &e)| e > 0.0)
        .map(|(&r, &e)| r / e)
        .collect();
    let n_rec = totals[0].len() as f64;
    let n_shard_trips = spans.iter().filter(|s| s.name == "serve.server").count() as f64;
    eprintln!(
        "REC ledger over {} traced requests (ns): relay {:.0}, wire {:.0}, parse {:.0}, engine {:.0}, top-K {:.0}, render {:.0}; untraced p50 {:.0}",
        n_rec, m[0], m[1], m[2], m[3], m[4], m[5], rec_p50_ns
    );
    eprintln!(
        "  wire + relay = {:.1}% of the untraced REC p50",
        ratio(m[0] + m[1], rec_p50_ns) * 100.0
    );
    out.metric("router.relay_us", m[0] / 1e3, "us");
    out.metric(
        "router.shards_per_req",
        ratio(n_shard_trips, n_rec),
        "count",
    );
    out.metric("router.batch_overhead_x", median(&overhead), "x");
    out.metric("serve.server.wire_us", m[1] / 1e3, "us");
    out.metric("serve.proto.parse_ns", m[2], "ns");
    out.metric("serve.proto.render_ns", m[5], "ns");
    out.metric("serve.engine.batch_us", median(&totals[1]) / 1e3, "us");
    out.metric(
        "serve.tables.topk_us",
        med_of("serve.tables.topk", 1e3),
        "us",
    );

    let hits = delta(before, after, "cache_hits");
    let misses = delta(before, after, "cache_misses");
    out.metric(
        "serve.cache.hit_ratio",
        ratio(hits, hits + misses),
        "fraction",
    );
    out.metric("serve.cache.hits", hits, "count");
    out.metric("serve.cache.misses", misses, "count");
    out.metric(
        "serve.quant.served_frac",
        ratio(delta(before, after, "quant_served"), misses),
        "fraction",
    );
    out.metric(
        "serve.ann.cands_per_list",
        ratio(delta(before, after, "ann_cands"), misses),
        "count",
    );
    out.metric(
        "serve.tables.exact_fallbacks",
        delta(before, after, "exact_fallbacks"),
        "count",
    );

    // Freshness: ack → served = log read + delta apply + the rest of the
    // fine-tune round (training, absorb, publish) + replica reloads; what
    // remains is hand-off and the wait for the next routed REC.
    let fresh_layers = [
        ("ingest.log.read", Part::Total),
        ("ingest.delta.apply", Part::Total),
        ("runtime.finetune.round", Part::SelfTime),
        ("serve.engine.reload", Part::Total),
    ];
    let fm: Vec<f64> = per_request(spans, "fresh", &fresh_layers)
        .iter()
        .map(|l| median(l))
        .collect();
    let fresh = Summary::of(&update.fresh_ms);
    eprintln!(
        "freshness ledger (ms): log read {:.3}, delta apply {:.3}, round {:.1}, reload {:.1}; untraced p50 {:.1}",
        fm[0] / 1e6,
        fm[1] / 1e6,
        fm[2] / 1e6,
        fm[3] / 1e6,
        fresh.p50
    );
    out.metric(
        "serve.engine.reload_ms",
        med_of("serve.engine.reload", 1e6),
        "ms",
    );
    let reloads = delta(before, after, "reloads");
    let skips = delta(before, after, "reload_skips");
    out.metric(
        "serve.engine.reload_skip_frac",
        ratio(skips, reloads + skips),
        "fraction",
    );
    out.metric(
        "ingest.log.append_us",
        med_of("ingest.log.append", 1e3),
        "us",
    );
    out.metric("ingest.log.read_us", med_of("ingest.log.read", 1e3), "us");
    out.metric(
        "ingest.delta.apply_us",
        med_of("ingest.delta.apply", 1e3),
        "us",
    );
    let (dups, records): (usize, usize) = update.rounds.iter().fold((0, 0), |(d, n), r| {
        (d + r.duplicates, n + r.duplicates + r.applied)
    });
    out.metric(
        "ingest.delta.dup_frac",
        ratio(dups as f64, records as f64),
        "fraction",
    );
    out.metric(
        "runtime.finetune.round_ms",
        med_of("runtime.finetune.round", 1e6),
        "ms",
    );
    let steps: usize = update.rounds.iter().map(|r| r.steps).sum();
    let round_s: f64 = update.round_ms.iter().sum::<f64>() / 1e3;
    out.metric(
        "runtime.finetune.steps_per_s",
        ratio(steps as f64, round_s),
        "1/s",
    );
    let ckpt_bytes = graphaug_runtime::checkpoint::newest_generation(&topo.ckpt_dir)
        .and_then(|g| {
            std::fs::metadata(graphaug_runtime::checkpoint::generation_path(
                &topo.ckpt_dir,
                g,
            ))
            .ok()
        })
        .map_or(0.0, |m| m.len() as f64);
    out.metric("runtime.checkpoint.bytes", ckpt_bytes, "bytes");
    out.metric("runtime.finetune.backlog", update.backlog as f64, "count");
    out.metric("runtime.train.steps_per_s", train_rate, "1/s");

    out.metric(
        "ledger.explained_pct",
        ratio(m.iter().sum(), rec_p50_ns) * 100.0,
        "%",
    );
    out.metric(
        "ledger.fresh_explained_pct",
        ratio(fm.iter().sum(), fresh.p50 * 1e6) * 100.0,
        "%",
    );
    let traced_rtt = med_of("rec", 1e3);
    let untraced_rtt = median(&serving.rtt_us);
    out.metric(
        "trace.overhead_pct",
        (ratio(traced_rtt, untraced_rtt) - 1.0) * 100.0,
        "%",
    );
    out.metric(
        "gen.late_ms_p99",
        stats::nearest_rank(&stats::sorted(serving.late_ms.clone()), 99.0).unwrap_or(0.0),
        "ms",
    );

    let rec = Summary::of(&serving.rec_us);
    let put = Summary::of(&update.put.due_us);
    out.metric("e2e.rec_tail_us", rec.tail_value(), "us");
    out.metric("e2e.rec_tail_pct", rec.tail_pct() as f64, "%");
    out.metric("e2e.max_rate_rps", max_rate(&serving.rungs), "1/s");
    out.metric("e2e.put_ack_p50_us", put.p50, "us");
    out.metric("e2e.put_ack_tail_us", put.tail_value(), "us");
    out.metric("e2e.put_ack_tail_pct", put.tail_pct() as f64, "%");
    out.metric("e2e.freshness_p50_ms", fresh.p50, "ms");
    out.metric("e2e.freshness_tail_ms", fresh.tail_value(), "ms");
    out.metric("e2e.freshness_tail_pct", fresh.tail_pct() as f64, "%");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!("usage: e2ebench --workload <rec_point_zipf|rec_batch_uniform|online_put_rec> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            for why in &out.invalid {
                eprintln!("INVALID RUN: {why}");
            }
            println!("{}", out.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
