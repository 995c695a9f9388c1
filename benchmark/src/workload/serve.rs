//! `serve-mixed-rmat14`: an in-process server over localhost TCP with 2
//! workers (1 engine thread each) and 2 closed-loop clients. Each
//! client's seeded sequence is about 90% single-seed PPR and 10% global
//! PageRank, 20 iterations; client 0 also sends a 100-edge update batch
//! as every 20th request. The small graph keeps the kernel's share low,
//! so request handling, engine rehydration, PPR coalescing and update
//! repair dominate.

use super::{med, ms, timed, well_formed, Ctx, Outcome};
use crate::input::SplitMix64;
use crate::json::Json;
use crate::stats;
use crate::trace::Tracer;
use pcpm_algos::personalized_pagerank_many_with_unified_engine;
use pcpm_core::algebra::PlusF32;
use pcpm_core::pagerank::pagerank_with_unified_engine;
use pcpm_core::{Engine, PcpmConfig, Snapshot, SnapshotEngineBuilder, UpdateBatch};
use pcpm_graph::Csr;
use pcpm_serve::{
    Client, EngineSpec, QueryParams, Server, ServerConfig, ServerHandle, ServerStats,
};
use pcpm_stream::{gen_updates, DeltaGraph, UpdateGenConfig};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: u32 = 2;
const WORKERS: usize = 2;
const ENGINE_THREADS: usize = 1;
const SETUP_REPS: usize = 15;
/// Untimed closed-loop seconds before timing starts.
const WARM_LOOP_S: f64 = 1.0;
/// Client 0 sends an update as every `UPDATE_EVERY`-th request.
const UPDATE_EVERY: u64 = 20;
const UPDATE_BATCH: usize = 100;
const UPDATE_DELETE_FRAC: f64 = 0.3;
/// Update batches prepared per second of run: far more than client 0
/// can send at any plausible rate.
const UPDATES_PER_SECOND: f64 = 200.0;
/// Offline reference queries timed in the traced run.
const OFFLINE_REPS: usize = 9;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Ppr,
    Pagerank,
    Update,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Ppr => "ppr",
            Kind::Pagerank => "pagerank",
            Kind::Update => "update",
        }
    }
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    read_ms: Vec<f64>,
    update_ms: Vec<f64>,
    /// Update batches this client sent, by index into the stream.
    updates_sent: usize,
    attempted: u64,
    failures: Vec<String>,
    last_epoch: u64,
}

/// The request at position `i` of a client's sequence.
fn next_kind(rng: &mut SplitMix64, client: u32, i: u64) -> Kind {
    if client == 0 && (i + 1).is_multiple_of(UPDATE_EVERY) {
        Kind::Update
    } else if rng.below(10) == 0 {
        Kind::Pagerank
    } else {
        Kind::Ppr
    }
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    addr: SocketAddr,
    client: u32,
    seed: u64,
    n: u32,
    deadline: Instant,
    updates: &[UpdateBatch],
    mut tr: Tracer,
) -> (ClientLog, Tracer) {
    let mut log = ClientLog::default();
    let loop_span = tr.begin("client.loop");
    let mut conn = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.attempted += 1;
            log.failures
                .push(format!("client {client}: connect failed: {e}"));
            tr.end(loop_span);
            return (log, tr);
        }
    };
    let mut rng = SplitMix64(seed ^ (u64::from(client) + 1).wrapping_mul(0xa076_1d64_78bd_642f));
    let params = QueryParams::default();
    let mut i = 0u64;
    while Instant::now() < deadline {
        let mut kind = next_kind(&mut rng, client, i);
        if kind == Kind::Update && log.updates_sent >= updates.len() {
            kind = Kind::Ppr;
        }
        let id = (u64::from(client) << 32) | i;
        i += 1;
        log.attempted += 1;
        let s = tr.begin_request("client.request", Some((id, kind.name())));
        let t0 = Instant::now();
        let checked: Result<u64, String> = match kind {
            Kind::Ppr => {
                let seedv = rng.below(u64::from(n)) as u32;
                conn.personalized_pagerank(0, &params, &[seedv])
                    .map_err(|e| e.to_string())
                    .and_then(|r| ranks_ok(&r.scores, n, r.epoch))
            }
            Kind::Pagerank => conn
                .pagerank(0, &params)
                .map_err(|e| e.to_string())
                .and_then(|r| ranks_ok(&r.scores, n, r.epoch)),
            Kind::Update => {
                let batch = &updates[log.updates_sent];
                log.updates_sent += 1;
                conn.update(0, batch)
                    .map_err(|e| e.to_string())
                    .and_then(|r| {
                        if r.epoch == log.last_epoch + 1 || log.last_epoch == 0 {
                            Ok(r.epoch)
                        } else {
                            Err(format!(
                                "update published epoch {} after {}",
                                r.epoch, log.last_epoch
                            ))
                        }
                    })
            }
        };
        let took = ms(t0.elapsed());
        tr.end(s);
        match checked {
            Ok(epoch) if epoch >= log.last_epoch => {
                log.last_epoch = epoch;
                if kind == Kind::Update {
                    log.update_ms.push(took);
                } else {
                    log.read_ms.push(took);
                }
            }
            Ok(epoch) => log.failures.push(format!(
                "client {client}: epoch went back from {} to {epoch}",
                log.last_epoch
            )),
            Err(e) => log.failures.push(format!(
                "client {client}: {} request failed: {e}",
                kind.name()
            )),
        }
    }
    drop(conn);
    tr.end(loop_span);
    (log, tr)
}

fn ranks_ok(scores: &[f32], n: u32, epoch: u64) -> Result<u64, String> {
    if well_formed(scores, n as usize) {
        Ok(epoch)
    } else {
        Err(format!(
            "reply has {} entries or non-finite ones (n = {n})",
            scores.len()
        ))
    }
}

fn engine_config() -> PcpmConfig {
    PcpmConfig::default().with_threads(ENGINE_THREADS)
}

/// Builds the engine, snapshots it, binds and spawns the server, and
/// waits for the first `health` reply.
fn start_server(graph: &Arc<Csr>) -> Result<(ServerHandle, Snapshot), String> {
    let engine = Engine::<PlusF32>::builder_shared(graph)
        .config(engine_config())
        .build()
        .map_err(|e| format!("engine build failed: {e}"))?;
    let snapshot = engine
        .snapshot()
        .map_err(|e| format!("snapshot failed: {e}"))?;
    let server = Server::bind(
        "127.0.0.1:0",
        vec![EngineSpec::from_snapshot("rmat14", snapshot.clone())],
        ServerConfig {
            workers: WORKERS,
            threads: Some(ENGINE_THREADS),
            metrics_addr: None,
        },
    )
    .map_err(|e| format!("bind failed: {e}"))?;
    let handle = server.spawn().map_err(|e| format!("spawn failed: {e}"))?;
    let mut c = Client::connect(handle.addr()).map_err(|e| format!("connect failed: {e}"))?;
    c.health().map_err(|e| format!("health failed: {e}"))?;
    Ok((handle, snapshot))
}

fn stop_server(handle: ServerHandle) -> Result<(), String> {
    handle.shutdown();
    handle
        .join()
        .map_err(|e| format!("server did not stop cleanly: {e}"))
}

/// Runs both clients until `seconds` pass; returns their logs and the
/// wall time until the last one finished.
fn closed_loop(
    ctx: &mut Ctx,
    addr: SocketAddr,
    n: u32,
    updates: &[UpdateBatch],
    seconds: f64,
    seed: u64,
) -> (Vec<ClientLog>, Duration) {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let span = ctx.tr.begin("serve.closed_loop");
    let tracers: Vec<Tracer> = (0..CLIENTS).map(|c| ctx.tr.fork(c + 1)).collect();
    let results: Vec<(ClientLog, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = tracers
            .into_iter()
            .enumerate()
            .map(|(c, tr)| {
                let ups = if c == 0 { updates } else { &[][..] };
                s.spawn(move || client_loop(addr, c as u32, seed, n, deadline, ups, tr))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = t0.elapsed();
    ctx.tr.end(span);
    let mut logs = Vec::new();
    for (log, tr) in results {
        ctx.tr.adopt(tr);
        logs.push(log);
    }
    (logs, elapsed)
}

/// [`closed_loop`] with tracing off, inside one span named `name`.
fn untraced_loop(
    ctx: &mut Ctx,
    name: &'static str,
    addr: SocketAddr,
    n: u32,
    updates: &[UpdateBatch],
    seconds: f64,
    seed: u64,
) -> Vec<ClientLog> {
    let s = ctx.tr.begin(name);
    let was = ctx.tr.enabled();
    ctx.tr.set_enabled(false);
    let (logs, _) = closed_loop(ctx, addr, n, updates, seconds, seed);
    ctx.tr.set_enabled(was);
    ctx.tr.end(s);
    logs
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let spec = super::Workload::ServeMixed.spec(ctx.seed);
    let root = ctx.tr.begin("workload");
    let workers0 = rayon::diagnostics::workers_spawned();
    let graph = Arc::new(super::load_graph(ctx, &spec)?);
    let n = graph.num_nodes();
    let batches = ((ctx.seconds * UPDATES_PER_SECOND).ceil() as usize).max(UPDATE_EVERY as usize);
    let s = ctx.tr.begin("stream.gen_updates");
    let updates = gen_updates(
        &graph,
        &UpdateGenConfig {
            batches,
            batch_size: UPDATE_BATCH,
            delete_frac: UPDATE_DELETE_FRAC,
            locality: None,
            seed: ctx.seed,
        },
    )
    .map_err(|e| format!("update generation failed: {e}"));
    ctx.tr.end(s);
    let updates = updates?;
    let mut out = Outcome::default();

    super::warm_up(ctx);
    // Set-up several times; keep the last server.
    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some((h, _)) = server.take() {
            let s = ctx.tr.begin("serve.stop");
            let stopped = stop_server(h);
            ctx.tr.end(s);
            stopped?;
        }
        let s = ctx.tr.begin("serve.setup");
        let (started, took) = timed(|| start_server(&graph));
        ctx.tr.end(s);
        setup_s.push(took.as_secs_f64());
        server = Some(started?);
    }
    let (handle, snapshot) = server.expect("at least one set-up");
    let addr = handle.addr();

    // An untimed phase (checked like the rest) rehydrates the worker
    // engines; then the timed loop.
    let mut logs = untraced_loop(
        ctx,
        "bench.warm_op",
        addr,
        n,
        &updates,
        WARM_LOOP_S,
        ctx.seed,
    );
    let mut sent = logs[0].updates_sent;
    let budget = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut untraced_read = Vec::new();
    if ctx.traced {
        let l = untraced_loop(
            ctx,
            "bench.untraced_reference",
            addr,
            n,
            &updates[sent..],
            budget,
            ctx.seed ^ 1,
        );
        sent += l[0].updates_sent;
        untraced_read = l.iter().flat_map(|l| l.read_ms.iter().copied()).collect();
        logs.extend(l);
    }
    let timed_logs_start = logs.len();
    let (l, elapsed) = closed_loop(ctx, addr, n, &updates[sent..], budget, ctx.seed ^ 2);
    logs.extend(l);

    // Final-epoch PageRank and server counters, over a fresh connection.
    let s = ctx.tr.begin("serve.final_checks");
    let mut c = Client::connect(addr).map_err(|e| format!("connect failed: {e}"))?;
    let served = c.pagerank(0, &QueryParams::default());
    let server_stats = c.stats();
    drop(c);
    ctx.tr.end(s);
    let s = ctx.tr.begin("serve.stop");
    let stopped = stop_server(handle);
    ctx.tr.end(s);
    stopped?;

    let total_updates: usize = logs.iter().map(|l| l.updates_sent).sum();
    let s = ctx.tr.begin("core.update_replay");
    let replay = replay_updates(&graph, &updates[..total_updates]);
    ctx.tr.end(s);

    for l in &logs {
        out.attempted += l.attempted;
        for f in &l.failures {
            out.fail(f.clone());
        }
    }
    let replayed_ms = match (served, replay) {
        (Ok(served), Ok((scores, update_ms))) => {
            out.op(
                served.epoch == total_updates as u64 && super::same_bits(&served.scores, &scores),
                || {
                    format!(
                        "final PageRank at epoch {} differs from the offline replay of {total_updates} batches",
                        served.epoch
                    )
                },
            );
            update_ms
        }
        (Err(e), _) => {
            out.op(false, || format!("final PageRank request failed: {e}"));
            Vec::new()
        }
        (_, Err(e)) => {
            out.op(false, || format!("offline replay failed: {e}"));
            Vec::new()
        }
    };

    let timed_logs = &logs[timed_logs_start..];
    let read: Vec<f64> = timed_logs
        .iter()
        .flat_map(|l| l.read_ms.iter().copied())
        .collect();
    let upd: Vec<f64> = timed_logs
        .iter()
        .flat_map(|l| l.update_ms.iter().copied())
        .collect();
    let completed: usize = timed_logs
        .iter()
        .map(|l| l.read_ms.len() + l.update_ms.len())
        .sum();
    let qps = completed as f64 / elapsed.as_secs_f64();
    out.common(&setup_s, &read);
    out.reported("qps", "1/s", qps);
    out.reported("query_p50_ms", "ms", med(&read));
    out.reported(
        "query_p90_ms",
        "ms",
        stats::percentile(&read, 90.0).unwrap_or(f64::NAN),
    );
    out.reported(
        "query_p99_ms",
        "ms",
        stats::percentile(&read, 99.0).unwrap_or(f64::NAN),
    );
    out.reported("update_p50_ms", "ms", med(&upd));
    out.notes
        .push(("updates_sent".into(), Json::from(total_updates as u64)));
    out.sizes = vec![
        ("rank_vector", 4 * u64::from(n)),
        ("csr", graph.memory_bytes()),
    ];

    if ctx.traced {
        let (ppr_ms, pr_ms) = offline_queries(ctx, &snapshot)?;
        out.layer("serve.engine_ppr_ms", "ms", ppr_ms);
        out.layer("serve.engine_pagerank_ms", "ms", pr_ms);
        out.layer("serve.overhead_ms", "ms", med(&read) - ppr_ms);
        out.layer("serve.query_p50_ms", "ms", med(&read));
        out.layer("serve.qps", "1/s", qps);
        out.layer("serve.update_p50_ms", "ms", med(&upd));
        let st = server_stats.map_err(|e| format!("stats request failed: {e}"))?;
        server_layers(&mut out, &st);
        out.layer("core.update_ms", "ms", med(&replayed_ms));
        out.notes.push((
            "trace_overhead_ms".into(),
            Json::Num(med(&read) - med(&untraced_read)),
        ));
    }
    out.layer(
        "rayon.workers_spawned.serve-mixed-rmat14",
        "count",
        (rayon::diagnostics::workers_spawned() - workers0) as f64,
    );
    ctx.tr.end(root);
    Ok(out)
}

fn server_layers(out: &mut Outcome, st: &ServerStats) {
    for (kind, name) in [
        ("personalized_pagerank", "serve.server_p50_ms.ppr"),
        ("pagerank", "serve.server_p50_ms.pagerank"),
        ("update", "serve.server_p50_ms.update"),
    ] {
        let p50 = st
            .queries
            .iter()
            .find(|q| q.name() == kind)
            .and_then(|q| q.quantile_upper_us(0.5))
            .map_or(f64::NAN, |us| us as f64 / 1e3);
        out.layer(name, "ms", p50);
    }
    out.layer("serve.queue_wait_ms", "ms", st.mean_queue_wait_us() / 1e3);
    let publish = st.writer_publish_us_total as f64 / st.writer_publishes.max(1) as f64;
    out.layer("serve.writer_publish_ms", "ms", publish / 1e3);
}

/// Applies `batches` offline, as the server's writer does, and returns
/// the final PageRank with each `Engine::update` time.
fn replay_updates(
    graph: &Arc<Csr>,
    batches: &[UpdateBatch],
) -> Result<(Vec<f32>, Vec<f64>), String> {
    let cfg = engine_config();
    let mut engine = Engine::<PlusF32>::builder_shared(graph)
        .config(cfg)
        .build()
        .map_err(|e| e.to_string())?;
    let mut delta =
        DeltaGraph::new(Arc::clone(graph), cfg.partition_nodes()).map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    for b in batches {
        let applied = delta.apply(b).map_err(|e| e.to_string())?;
        let g = delta.snapshot();
        let (r, took) = timed(|| engine.update(&g, None, &applied.applied));
        r.map_err(|e| e.to_string())?;
        times.push(ms(took));
    }
    let g = delta.snapshot();
    let r = pagerank_with_unified_engine(&g, &PcpmConfig::default(), &mut engine, None)
        .map_err(|e| e.to_string())?;
    Ok((r.scores, times))
}

/// The served queries offline, on a 1-thread engine from the initial
/// snapshot: median PPR and PageRank times.
fn offline_queries(ctx: &mut Ctx, snapshot: &Snapshot) -> Result<(f64, f64), String> {
    let mut engine =
        SnapshotEngineBuilder::<PlusF32>::from_snapshot(snapshot.clone(), Duration::ZERO)
            .threads(ENGINE_THREADS)
            .build()
            .map_err(|e| e.to_string())?;
    let graph = Arc::clone(snapshot.graph());
    let cfg = PcpmConfig::default();
    let mut rng = SplitMix64(ctx.seed);
    let (mut ppr, mut pr) = (Vec::new(), Vec::new());
    for _ in 0..OFFLINE_REPS {
        let sets = vec![vec![rng.below(u64::from(graph.num_nodes())) as u32]];
        let s = ctx.tr.begin("algos.ppr_many.offline");
        let (r, took) = timed(|| {
            personalized_pagerank_many_with_unified_engine(&graph, &sets, &cfg, &mut engine)
        });
        ctx.tr.end(s);
        r.map_err(|e| e.to_string())?;
        ppr.push(ms(took));
        let s = ctx.tr.begin("core.pagerank.offline");
        let (r, took) = timed(|| pagerank_with_unified_engine(&graph, &cfg, &mut engine, None));
        ctx.tr.end(s);
        r.map_err(|e| e.to_string())?;
        pr.push(ms(took));
    }
    Ok((med(&ppr), med(&pr)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_mix_is_seeded_with_every_twentieth_an_update_on_client_0() {
        let seq = |client, seed| {
            let mut rng = SplitMix64(seed);
            (0..400)
                .map(|i| next_kind(&mut rng, client, i))
                .collect::<Vec<_>>()
        };
        let a = seq(0, 5);
        assert_eq!(a, seq(0, 5));
        assert_eq!(a.iter().filter(|k| **k == Kind::Update).count(), 20);
        assert!(a
            .iter()
            .enumerate()
            .all(|(i, k)| (*k == Kind::Update) == ((i + 1) % 20 == 0)));
        let b = seq(1, 5);
        assert!(!b.contains(&Kind::Update));
        let pr = b.iter().filter(|k| **k == Kind::Pagerank).count();
        assert!((20..=60).contains(&pr), "{pr} PageRank requests of 400");
    }
}
