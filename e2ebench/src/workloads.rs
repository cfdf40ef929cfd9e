//! The three workloads, their phases, and the correctness checks.
//!
//! Every request's reply is checked where it arrives: an `ERR`, a
//! malformed line, or a line for the wrong user or cutoff counts as a
//! failed operation. At most two generator threads and two client
//! connections drive the system under test at any time, one per core of
//! the two-core machine the benchmark is sized for; the fine-tune loop
//! runs on the main thread, as the online loop's own thread would. A
//! traced run's replays come after the phase they decompose, on one
//! thread.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use graphaug_ingest::{apply_deltas, log_len, read_range};
use graphaug_rng::StdRng;
use graphaug_router::shard_of;
use graphaug_runtime::{checkpoint, RoundReport};
use graphaug_serve::{
    ok_line, parse_ok_line, parse_request, stats_field, ModelSource, ModelTables, ServeClient,
    UserSampler,
};

use crate::load::{closed_loop, open_loop, ClosedLoop, OpenLoop};
use crate::topo::{connect, Topology, Twins, WINDOW};
use crate::trace::Tracer;

/// Client connections (and generator threads) per serving phase.
pub const CONNS: usize = 2;
/// Zipf exponent of the user popularity in open loops.
const ZIPF_S: f64 = 1.1;
/// Cutoff of every single-user `REC`.
pub const POINT_K: usize = 20;
/// `rec_point_zipf`: the reference rate the latency metrics are read at
/// (half the run, in segments on fresh connections), and the ladder
/// stepped after it (the other half) to find the highest rate that meets
/// the p99 limit.
pub const POINT_REF_RPS: f64 = 4000.0;
pub const POINT_REF_SEGMENTS: usize = 4;
pub const POINT_LADDER_RPS: [f64; 4] = [1000.0, 2000.0, 8000.0, 16000.0];
/// The p99 limit of a routed single-user `REC`.
pub const POINT_P99_LIMIT_US: f64 = 1000.0;
/// A rung sheds the rest of its schedule once the loop is this far
/// behind. Below that, an overloaded rung serves at capacity, so the
/// lists served fall smoothly as capacity falls.
const MAX_BACKLOG: Duration = Duration::from_secs(1);
/// `rec_batch_uniform`: users per `REC` line and the cutoffs drawn for
/// it. 4000 users × 64 cutoffs is far more keys than the 4096-entry
/// response cache holds, so the scoring path does the work.
pub const BATCH_USERS: usize = 64;
const BATCH_K_MIN: usize = 8;
const BATCH_K_COUNT: u64 = 64;
/// The online loop: `REC` rate beside the writes, and the time one
/// window of `PUT`s takes to arrive (the `PUT` rate is `WINDOW` over it).
/// At 1000 `REC`/s the three threads a `REC` passes through sat idle
/// between requests, and the median moved with where the scheduler woke
/// them in each run; at 4000/s it holds.
pub const ONLINE_REC_RPS: f64 = 4000.0;
pub const WINDOW_PERIOD: Duration = Duration::from_millis(1000);
/// Zipf exponent of the online loop's `REC` users. Each reload starts a
/// new cache generation; over one window, Zipf(1.1) users hit the cache
/// 76% of the time, so misses and reads slowed by a round come close to
/// half and move the median from run to run. Zipf(1.5) hits 92%.
const ONLINE_REC_ZIPF_S: f64 = 1.5;
/// How long after the last `PUT` the last round may take to be served.
const FRESH_GRACE: Duration = Duration::from_secs(10);
/// Unmeasured traffic before each workload's first phase.
pub const WARMUP: Duration = Duration::from_millis(500);
/// Users sampled by the routed-vs-direct and `RECX` parity checks.
const CHECK_USERS: usize = 64;

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Open loop of single-user `REC` on Zipf users over a rate ladder.
    Point,
    /// Closed loop of 64-user `REC` lines on uniform users.
    Batch,
    /// `PUT` windows feeding fine-tune rounds beside an open `REC` loop.
    Online,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "rec_point_zipf" => Some(Workload::Point),
            "rec_batch_uniform" => Some(Workload::Batch),
            "online_put_rec" => Some(Workload::Online),
            _ => None,
        }
    }

    /// Shards behind the router.
    pub fn shards(self) -> usize {
        match self {
            Workload::Point | Workload::Batch => 2,
            Workload::Online => 1,
        }
    }

    /// Compute threads once set up, or `None` for one per core. The
    /// online loop trains and reloads on one thread and leaves the other
    /// core to the `REC`s beside it; with both cores training, a third of
    /// the `REC`s waited for a round, close enough to half that the median
    /// moved with the host's scheduler.
    pub fn compute_threads(self) -> Option<usize> {
        match self {
            Workload::Point | Workload::Batch => None,
            Workload::Online => Some(1),
        }
    }
}

/// Requests sent and failed in one phase (the rest succeeded).
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub sent: u64,
    pub failed: u64,
}

/// Checks one `OK` line against the request it answers; returns its
/// generation.
fn check_ok(line: &str, user: u32, k: usize) -> Option<u64> {
    let ok = parse_ok_line(line)?;
    (ok.user == user && ok.k == k && ok.items.len() == k).then_some(ok.gen)
}

/// The sub-request line the router sends a shard for `users`.
fn rec_line(users: &[u32], k: usize) -> String {
    let list: Vec<String> = users.iter().map(u32::to_string).collect();
    format!("REC {} {k}", list.join(","))
}

/// What one generator thread hands back: its observations, when it
/// finished, and its routed-request log (traced runs).
struct GenOut<T> {
    out: T,
    end: Instant,
    log: Vec<Routed>,
}

/// A write the ingest listener acknowledged: `(offset, user, item)`.
pub type Acked = (u64, u32, u32);

/// The `PUT` loop and the writes it got acknowledged.
type PutOut = (OpenLoop, Vec<Acked>);

/// One routed `REC` as its generator saw it, kept by traced runs for the
/// replay after the phase.
pub struct Routed {
    sent: Instant,
    done: Instant,
    users: Vec<u32>,
    k: usize,
}

/// Replays a phase's routed `REC`s layer by layer, in send order, once
/// the phase is over: each per-shard sub-request goes directly to the
/// shard's twin replica server, then through `parse_request`, the twin
/// engine's `recommend_batch_mode`, the tables' `top_k_quant` for every
/// miss (fanned out like the engine does), and `ok_line` for every list.
/// The twins see the real replicas' request sequence, so their caches
/// hit and miss alike. Replaying after the phase, rather than between
/// requests, leaves the routed connections' timing — and with it any
/// TCP-level stall — exactly as in an untraced run.
fn replay(tracer: &Tracer, twins: &Twins, mut log: Vec<Routed>) -> Result<(), String> {
    log.sort_by_key(|r| r.sent);
    let mut clients: Vec<ServeClient> = twins
        .server_addrs
        .iter()
        .map(|a| connect(a))
        .collect::<std::io::Result<_>>()
        .map_err(|e| format!("connect twin: {e}"))?;
    let t = tracer;
    let shards = twins.engines.len();
    for r in &log {
        let req = t.new_id();
        t.record_id(req, "rec", 0, req, r.sent, r.done);
        for (shard, (client, engine)) in clients.iter_mut().zip(&twins.engines).enumerate() {
            let group: Vec<u32> = r
                .users
                .iter()
                .copied()
                .filter(|&u| shard_of(u, shards) == shard)
                .collect();
            if group.is_empty() {
                continue;
            }
            let k = r.k;
            let line = rec_line(&group, k);
            let server = t.new_id();
            let t0 = Instant::now();
            let replies = client.request_lines(&line, group.len());
            t.record_id(server, "serve.server", req, req, t0, Instant::now());
            replies.map_err(|e| format!("twin replica: {e}"))?;
            t.time("serve.proto.parse", server, req, || {
                black_box(parse_request(&line).is_ok())
            });
            let reqs: Vec<(u32, usize)> = group.iter().map(|&u| (u, k)).collect();
            let batch = t.new_id();
            let t0 = Instant::now();
            let recs = engine.recommend_batch_mode(&reqs, false);
            t.record_id(batch, "serve.engine.batch", server, req, t0, Instant::now());
            let misses: Vec<(u32, usize)> = recs
                .iter()
                .flatten()
                .filter(|r| !r.from_cache)
                .map(|r| (r.user, r.k))
                .collect();
            if !misses.is_empty() {
                let tables = engine.tables();
                let fan = t.new_id();
                let t0 = Instant::now();
                graphaug_par::parallel_spans(misses.len(), |_, range| {
                    for &(u, k) in &misses[range] {
                        t.time("serve.tables.topk", fan, req, || {
                            black_box(tables.top_k_quant(u, k).is_ok())
                        });
                    }
                });
                t.record_id(fan, "serve.tables.fanout", batch, req, t0, Instant::now());
            }
            t.time("serve.proto.render", server, req, || {
                for r in recs.iter().flatten() {
                    black_box(ok_line(r));
                }
            });
        }
    }
    clients.into_iter().for_each(ServeClient::quit);
    Ok(())
}

/// Replays `log` when the run is traced.
fn replay_if_traced(
    topo: &Topology,
    tracer: Option<&Tracer>,
    log: Vec<Routed>,
) -> Result<(), String> {
    match (tracer, &topo.twins) {
        (Some(t), Some(twins)) => replay(t, twins, log),
        _ => Ok(()),
    }
}

/// One generator's routed connection; traced runs log what it sent.
struct Conn {
    client: ServeClient,
    log: Option<Vec<Routed>>,
}

impl Conn {
    fn open(router_addr: &str, traced: bool) -> Result<Conn, String> {
        let client = connect(router_addr).map_err(|e| format!("connect router: {e}"))?;
        Ok(Conn {
            client,
            log: traced.then(Vec::new),
        })
    }

    /// A routed `REC` for `users`; `Some(generation)` when every reply
    /// line checks out.
    fn rec(&mut self, users: &[u32], k: usize) -> Option<u64> {
        let sent = Instant::now();
        let lines = if users.len() == 1 {
            self.client.rec_one(users[0], k).map(|l| vec![l])
        } else {
            self.client.rec_raw(users, k)
        };
        let done = Instant::now();
        let lines = lines.ok()?;
        let mut gen = None;
        for (line, &u) in lines.iter().zip(users) {
            gen = Some(check_ok(line, u, k)?);
        }
        if let Some(log) = &mut self.log {
            log.push(Routed {
                sent,
                done,
                users: users.to_vec(),
                k,
            });
        }
        gen
    }

    /// Closes the connection and hands back its log.
    fn close(self) -> Vec<Routed> {
        self.client.quit();
        self.log.unwrap_or_default()
    }
}

/// One rung of the point ladder.
pub struct Rung {
    pub rps: f64,
    pub run: OpenLoop,
}

/// The ladder, and the wall time from its first due time to its last
/// reply.
pub struct Ladder {
    pub rungs: Vec<Rung>,
    pub secs: f64,
}

impl Rung {
    /// p99 of due-time latency, or infinity when the rung shed requests
    /// or failed any (a failed request misses every limit).
    pub fn p99_us(&self) -> f64 {
        if self.run.overloaded() || self.run.failed > 0 {
            return f64::INFINITY;
        }
        crate::stats::nearest_rank(&crate::stats::sorted(self.run.due_us.clone()), 99.0)
            .unwrap_or(f64::INFINITY)
    }
}

/// Open loops of single-user `REC` on Zipf users over `rungs` of
/// `(rate, duration)`, split across [`CONNS`] interleaved connections.
pub fn point_phase(
    topo: &Topology,
    seed: u64,
    stream: u64,
    rungs: &[(f64, Duration)],
    tracer: Option<&Tracer>,
) -> Result<Ladder, String> {
    let sampler = UserSampler::zipf(topo.graph.n_users() as u32, ZIPF_S);
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut bounds = Vec::new();
    let mut at = t0;
    for &(rps, dur) in rungs {
        bounds.push((rps, at, at + dur));
        at += dur;
    }
    let traced = tracer.is_some();
    let per_conn: Vec<Result<GenOut<Vec<OpenLoop>>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let (sampler, bounds) = (&sampler, &bounds);
                s.spawn(move || {
                    let mut rng = StdRng::stream(seed, stream + c as u64);
                    let mut out = Vec::new();
                    let mut log = Vec::new();
                    for &(rps, start, end) in bounds {
                        let mut conn = Conn::open(&topo.router_addr, traced)?;
                        let period = Duration::from_secs_f64(CONNS as f64 / rps);
                        let start = start + period.mul_f64(c as f64 / CONNS as f64);
                        out.push(open_loop(
                            start,
                            period,
                            end,
                            MAX_BACKLOG,
                            &|| false,
                            |_| {
                                let u = sampler.draw(&mut rng);
                                conn.rec(&[u], POINT_K).is_some()
                            },
                        ));
                        log.extend(conn.close());
                    }
                    let end = Instant::now();
                    Ok(GenOut { out, end, log })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut last = t0;
    let mut rungs_out: Vec<Rung> = rungs
        .iter()
        .map(|&(rps, _)| Rung {
            rps,
            run: OpenLoop::default(),
        })
        .collect();
    let mut log = Vec::new();
    for conn in per_conn {
        let GenOut {
            out: runs,
            end,
            log: l,
        } = conn?;
        last = last.max(end);
        log.extend(l);
        for (rung, run) in rungs_out.iter_mut().zip(runs) {
            rung.run.absorb(run);
        }
    }
    replay_if_traced(topo, tracer, log)?;
    Ok(Ladder {
        rungs: rungs_out,
        secs: last.duration_since(t0).as_secs_f64(),
    })
}

/// What a closed loop of batch `REC` lines observed.
#[derive(Default)]
pub struct BatchOut {
    pub rtt_us: Vec<f64>,
    /// When each passing line's reply arrived.
    pub done: Vec<Instant>,
    pub counts: Counts,
    pub lists: u64,
    /// Wall time from the start to the last reply.
    pub secs: f64,
}

/// Closed loops of 64-user `REC` lines on uniform users, one per
/// connection, for `dur`.
pub fn batch_phase(
    topo: &Topology,
    seed: u64,
    stream: u64,
    dur: Duration,
    tracer: Option<&Tracer>,
) -> Result<BatchOut, String> {
    let sampler = UserSampler::uniform(topo.graph.n_users() as u32);
    let start = Instant::now();
    let until = start + dur;
    let traced = tracer.is_some();
    let per_conn: Vec<Result<GenOut<ClosedLoop>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let sampler = &sampler;
                s.spawn(move || {
                    let mut conn = Conn::open(&topo.router_addr, traced)?;
                    let mut rng = StdRng::stream(seed, stream + c as u64);
                    let r = closed_loop(until, |_| {
                        let users: Vec<u32> =
                            (0..BATCH_USERS).map(|_| sampler.draw(&mut rng)).collect();
                        let k = BATCH_K_MIN + rng.bounded_u64(BATCH_K_COUNT) as usize;
                        conn.rec(&users, k).is_some()
                    });
                    let end = Instant::now();
                    Ok(GenOut {
                        out: r,
                        end,
                        log: conn.close(),
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut out = BatchOut::default();
    let mut log = Vec::new();
    for r in per_conn {
        let GenOut {
            out: c,
            end,
            log: l,
        } = r?;
        log.extend(l);
        out.secs = out.secs.max(end.duration_since(start).as_secs_f64());
        out.lists += c.rtt_us.len() as u64 * BATCH_USERS as u64;
        out.rtt_us.extend(c.rtt_us);
        out.done.extend(c.done);
        out.counts.sent += c.sent;
        out.counts.failed += c.failed;
    }
    replay_if_traced(topo, tracer, log)?;
    Ok(out)
}

/// What one online phase observed.
#[derive(Default)]
pub struct OnlineOut {
    /// The open `REC` loop beside the writes.
    pub rec: OpenLoop,
    /// Wall time of the `REC` loop.
    pub rec_secs: f64,
    /// The `PUT` loop (its `due_us` are acknowledgement latencies).
    pub put: OpenLoop,
    /// Acknowledged writes: `(offset, user, item)`.
    pub acked: Vec<Acked>,
    /// Per round: ack of the window's last `PUT` → first routed `REC`
    /// carrying the round's generation, ms.
    pub fresh_ms: Vec<f64>,
    pub rounds: Vec<RoundReport>,
    /// `FineTuner::poll_once` wall time per round, ms.
    pub round_ms: Vec<f64>,
    /// Most windows waiting beyond the one a round absorbs.
    pub backlog: u64,
    /// Rounds that failed to run, publish, reload or be observed.
    pub failed_rounds: u64,
}

/// Writes `windows` windows of `PUT`s at a fixed rate on one connection
/// while an open `REC` loop runs on a second one (through the router), and
/// runs one fine-tune round per window as soon as the window's last `PUT`
/// is acknowledged: `poll_once`, then `reload_if_newer` on every replica.
pub fn online_phase(
    topo: &mut Topology,
    seed: u64,
    stream: u64,
    windows: u64,
    tracer: Option<&Tracer>,
) -> Result<OnlineOut, String> {
    let base_off = log_len(&topo.log_dir).map_err(|e| format!("log length: {e}"))?;
    let n_items = topo.graph.n_items() as u64;
    let users = UserSampler::zipf(topo.graph.n_users() as u32, ZIPF_S);
    let rec_users = UserSampler::zipf(topo.graph.n_users() as u32, ONLINE_REC_ZIPF_S);
    let put_period = WINDOW_PERIOD / WINDOW as u32;
    let start = Instant::now() + Duration::from_millis(20);
    let put_end = start + WINDOW_PERIOD * windows as u32;

    let pending: Mutex<Vec<(u64, Instant, u64)>> = Mutex::new(Vec::new());
    let fresh: Mutex<Vec<(Instant, Instant, u64)>> = Mutex::new(Vec::new());
    let tuner_done = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<Instant>();

    let tuner = &mut topo.tuner;
    let (replicas, log_dir, ingest_addr, router_addr) = (
        &topo.replicas,
        &topo.log_dir,
        &topo.ingest_addr,
        &topo.router_addr,
    );
    let mut twin_log = topo.twins.as_mut().map(|t| &mut t.log);

    let mut out = OnlineOut::default();
    let (put, rec) = std::thread::scope(|s| {
        let users = &users;
        let put = s.spawn(move || -> Result<PutOut, String> {
            let mut client = connect(ingest_addr).map_err(|e| format!("connect ingest: {e}"))?;
            let mut rng = StdRng::stream(seed, stream);
            let mut acked = Vec::new();
            let run = open_loop(
                start,
                put_period,
                put_end,
                Duration::from_secs(1),
                &|| false,
                |i| {
                    let (u, item) = (users.draw(&mut rng), rng.bounded_u64(n_items) as u32);
                    let sent = Instant::now();
                    let reply = client
                        .send_line(&format!("PUT {u} {item}"))
                        .and_then(|_| client.read_line());
                    let done = Instant::now();
                    let off = base_off + i;
                    let ok = reply.is_ok_and(|l| l == format!("OK off={off}"));
                    if let (Some(t), Some(log)) = (tracer, twin_log.as_mut()) {
                        let req = t.new_id();
                        t.record_id(req, "put", 0, req, sent, done);
                        t.time("ingest.log.append", req, req, || {
                            black_box(log.append(u, item).is_ok())
                        });
                    }
                    if ok {
                        acked.push((off, u, item));
                        if (i + 1) % WINDOW == 0 {
                            // The window is durable: start its round now.
                            let _ = tx.send(done);
                        }
                    }
                    ok
                },
            );
            client.quit();
            Ok((run, acked))
        });
        let (pending, fresh, tuner_done, rec_users) = (&pending, &fresh, &tuner_done, &rec_users);
        let rec = s.spawn(move || -> Result<GenOut<OpenLoop>, String> {
            let mut conn = Conn::open(router_addr, tracer.is_some())?;
            let mut rng = StdRng::stream(seed, stream + 1);
            let period = Duration::from_secs_f64(1.0 / ONLINE_REC_RPS);
            let stop = || {
                tuner_done.load(Ordering::SeqCst)
                    && pending.lock().expect("pending lock").is_empty()
            };
            let run = open_loop(
                start,
                period,
                put_end + FRESH_GRACE,
                Duration::from_secs(1),
                &stop,
                |_| {
                    let Some(gen) = conn.rec(&[rec_users.draw(&mut rng)], POINT_K) else {
                        return false;
                    };
                    let now = Instant::now();
                    pending
                        .lock()
                        .expect("pending lock")
                        .retain(|&(g, ack, req)| {
                            let served = g <= gen;
                            if served {
                                fresh.lock().expect("fresh lock").push((ack, now, req));
                            }
                            !served
                        });
                    true
                },
            );
            Ok(GenOut {
                out: run,
                end: Instant::now(),
                log: conn.close(),
            })
        });

        // The fine-tune loop, one round per durable window.
        for ack in rx {
            let wm = tuner.watermark();
            let len = log_len(log_dir).unwrap_or(wm);
            out.backlog = out
                .backlog
                .max((len.saturating_sub(wm) / WINDOW).saturating_sub(1));
            let req = tracer.map_or(0, |t| t.new_id());
            if let Some(t) = tracer {
                let records = t.time("ingest.log.read", req, req, || {
                    read_range(log_dir, wm, wm + WINDOW)
                });
                if let Ok(records) = records {
                    t.time("ingest.delta.apply", req, req, || {
                        black_box(apply_deltas(tuner.graph(), &records).is_ok())
                    });
                }
            }
            let t0 = Instant::now();
            let report = tuner.poll_once();
            let t1 = Instant::now();
            if let Some(t) = tracer {
                t.record("runtime.finetune.round", req, req, t0, t1);
            }
            out.round_ms.push((t1 - t0).as_secs_f64() * 1e3);
            let Ok(Some(report)) = report else {
                out.failed_rounds += 1;
                continue;
            };
            out.rounds.push(report);
            let mut gen = None;
            for engine in replicas {
                let t0 = Instant::now();
                let reloaded = engine.reload_if_newer();
                if let Some(t) = tracer {
                    t.record("serve.engine.reload", req, req, t0, Instant::now());
                }
                gen = reloaded.ok().flatten();
                if gen.is_none() {
                    break;
                }
            }
            match gen {
                Some(g) => pending.lock().expect("pending lock").push((g, ack, req)),
                None => out.failed_rounds += 1,
            }
        }
        tuner_done.store(true, Ordering::SeqCst);
        (
            put.join().expect("PUT generator panicked"),
            rec.join().expect("REC generator panicked"),
        )
    });
    let (put, acked) = put?;
    let GenOut {
        out: rec,
        end: rec_end,
        log,
    } = rec?;
    out.rec = rec;
    out.rec_secs = rec_end.saturating_duration_since(start).as_secs_f64();
    out.put = put;
    out.acked = acked;
    // Published rounds never seen served count as failed.
    out.failed_rounds += pending.into_inner().expect("pending lock").len() as u64;
    for (ack, seen, req) in fresh.into_inner().expect("fresh lock") {
        out.fresh_ms
            .push(seen.duration_since(ack).as_secs_f64() * 1e3);
        if let Some(t) = tracer {
            t.record_id(req, "fresh", 0, req, ack, seen);
        }
    }
    // The twins catch up to the final generation before the replay.
    if let Some(twins) = &topo.twins {
        for twin in twins.all_engines() {
            let _ = twin.reload_if_newer();
        }
    }
    replay_if_traced(topo, tracer, log)?;
    Ok(out)
}

/// Post-phase output checks. Returns the checks run and failed, plus a
/// note per failure.
pub fn checks(
    topo: &Topology,
    seed: u64,
    stream: u64,
    acked: &[Acked],
) -> Result<(Counts, Vec<String>), String> {
    let mut counts = Counts::default();
    let mut notes = Vec::new();
    let mut fail = |counts: &mut Counts, note: String| {
        counts.failed += 1;
        if notes.len() < 8 {
            notes.push(note);
        }
    };
    let mut routed = connect(&topo.router_addr).map_err(|e| format!("connect router: {e}"))?;
    let mut direct: Vec<ServeClient> = topo
        .replica_addrs
        .iter()
        .map(|a| connect(a))
        .collect::<std::io::Result<_>>()
        .map_err(|e| format!("connect replica: {e}"))?;
    let n_users = topo.graph.n_users() as u32;
    let mut rng = StdRng::stream(seed, stream);
    let users: Vec<u32> = (0..CHECK_USERS)
        .map(|_| rng.bounded_u64(n_users as u64) as u32)
        .collect();

    // Routed REC is byte-identical to the owning replica's direct REC.
    for &u in &users {
        counts.sent += 1;
        let a = routed.rec_one(u, POINT_K);
        let shard = shard_of(u, direct.len());
        let b = direct[shard].rec_one(u, POINT_K);
        match (a, b) {
            (Ok(a), Ok(b)) if a == b && check_ok(&a, u, POINT_K).is_some() => {}
            (a, b) => fail(
                &mut counts,
                format!("routed vs direct REC {u}: {a:?} vs {b:?}"),
            ),
        }
    }

    // Routed RECX is hex-identical to ModelTables::top_k on the serving
    // checkpoint, built here independently of the replicas.
    let (gen, state, fingerprint) = checkpoint::load_latest_valid_with_fingerprint(&topo.ckpt_dir)
        .ok_or("no valid checkpoint to check against")?;
    let source = ModelSource::new(topo.cfg.clone(), topo.graph.clone(), &topo.ckpt_dir)
        .log_dir(&topo.log_dir);
    let tables = ModelTables::build(&source, gen, &state, fingerprint)
        .map_err(|e| format!("oracle tables: {e}"))?;
    for &u in &users {
        counts.sent += 1;
        let got = routed.rec_one_mode(u, POINT_K, true);
        let want = tables.top_k(u, POINT_K);
        let same =
            match (&got, &want) {
                (Ok(line), Ok(want)) => parse_ok_line(line).is_some_and(|ok| {
                    ok.gen == gen
                        && ok.user == u
                        && ok.items.len() == want.len()
                        && ok.items.iter().zip(want).all(|(a, b)| {
                            a.item == b.item && a.score.to_bits() == b.score.to_bits()
                        })
                }),
                _ => false,
            };
        if !same {
            fail(
                &mut counts,
                format!("RECX {u} at gen {gen}: {got:?} vs {want:?}"),
            );
        }
    }

    // Every absorbed write is masked out of its user's served list.
    let watermark = topo.tuner.watermark();
    let mut written: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for &(off, u, item) in acked {
        if off < watermark {
            written.entry(u).or_default().push(item);
        }
    }
    for (u, items) in written {
        counts.sent += 1;
        let line = routed.rec_one(u, POINT_K);
        let masked = line
            .as_ref()
            .ok()
            .and_then(|l| parse_ok_line(l))
            .is_some_and(|ok| {
                ok.user == u
                    && ok.items.len() == POINT_K
                    && !ok.items.iter().any(|s| items.contains(&s.item))
            });
        if !masked {
            fail(
                &mut counts,
                format!("seen-mask for user {u} (wrote {items:?}): {line:?}"),
            );
        }
    }
    routed.quit();
    direct.into_iter().for_each(ServeClient::quit);
    Ok((counts, notes))
}

/// Summed `STATS` counters of the replicas, read over their own sockets.
pub fn replica_stats(topo: &Topology) -> Result<BTreeMap<&'static str, u64>, String> {
    const FIELDS: [&str; 7] = [
        "cache_hits",
        "cache_misses",
        "quant_served",
        "ann_cands",
        "exact_fallbacks",
        "reloads",
        "reload_skips",
    ];
    let mut out: BTreeMap<&'static str, u64> = FIELDS.iter().map(|&f| (f, 0)).collect();
    for addr in &topo.replica_addrs {
        let mut c = connect(addr).map_err(|e| format!("connect replica: {e}"))?;
        let line = c.stats_line().map_err(|e| format!("STATS: {e}"))?;
        c.quit();
        for f in FIELDS {
            let v = stats_field(&line, &format!("{f}="))
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("STATS without {f}: {line}"))?;
            *out.get_mut(f).expect("field listed") += v;
        }
    }
    Ok(out)
}
