//! `ppr-batch16-rmat14`: batches of 16 single-seed personalized
//! PageRank queries, 20 iterations each, answered together through the
//! batched SpMM path (`Engine::step_many`), wide bins, 1 thread. The
//! PageRank workload never takes that path. The batch's working set (16
//! rank vectors of 64 KiB plus the bins) stays in a core's L2: at scale
//! 18 it lives in the shared L3, and batch times then drifted by 20-27%
//! between runs with the load of other tenants, while batching loses at
//! every scale (16 solo steps beat one Q=16 pass by 1.6-2.1x).

use super::{
    build_engines, med, ms, op_loop, same_bits, step_input, time_steps, timed, well_formed, Ctx,
    Outcome,
};
use crate::input::SplitMix64;
use crate::json::Json;
use pcpm_algos::{
    personalized_pagerank_many_with_unified_engine, personalized_pagerank_with_unified_engine,
};
use pcpm_core::algebra::PlusF32;
use pcpm_core::{Engine, PcpmConfig, PrResult};
use pcpm_graph::Csr;

/// Queries per batch.
pub const BATCH: usize = 16;
/// A second thread gives no speed-up on a step this small (0.15 ms) and
/// adds wake-up jitter.
const THREADS: usize = 1;
const SETUP_REPS: usize = 15;
const MIN_BATCHES: usize = 3;
const STEP_REPS: usize = 5;

/// `BATCH` distinct seed nodes with outgoing edges, drawn from `seed`.
pub fn seed_sets(graph: &Csr, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = SplitMix64(seed ^ 0x5eed_0099_bb00);
    let n = u64::from(graph.num_nodes());
    let mut sets: Vec<Vec<u32>> = Vec::with_capacity(BATCH);
    while sets.len() < BATCH {
        let v = rng.below(n) as u32;
        if graph.out_degree(v) > 0 && !sets.iter().any(|s| s[0] == v) {
            sets.push(vec![v]);
        }
    }
    sets
}

/// Checks one batch against the first: `BATCH` results of `n` finite
/// scores, bit-identical scores and iteration counts.
pub fn check_batch(reference: &[PrResult], batch: &[PrResult], n: usize) -> Result<(), String> {
    if batch.len() != BATCH {
        return Err(format!("{} results for {BATCH} queries", batch.len()));
    }
    for (q, (a, b)) in reference.iter().zip(batch).enumerate() {
        if !well_formed(&b.scores, n) {
            return Err(format!("query {q}: scores are not n finite values"));
        }
        if a.iterations != b.iterations || !same_bits(&a.scores, &b.scores) {
            return Err(format!("query {q}: result differs from the first batch"));
        }
    }
    Ok(())
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let spec = super::Workload::PprBatch.spec(ctx.seed);
    let root = ctx.tr.begin("workload");
    let workers0 = rayon::diagnostics::workers_spawned();
    let graph = super::load_graph(ctx, &spec)?;
    let n = graph.num_nodes() as usize;
    let cfg = PcpmConfig::default().with_threads(THREADS);
    let sets = seed_sets(&graph, ctx.seed);
    let mut out = Outcome::default();

    super::warm_up(ctx);
    let (mut engine, setup_s) = build_engines(ctx, &graph, cfg, SETUP_REPS)?;
    let mut reference: Option<Vec<PrResult>> = None;
    let batches = op_loop(ctx, MIN_BATCHES, |tr| {
        let s = tr.begin("algos.ppr_many");
        let (r, took) = timed(|| {
            personalized_pagerank_many_with_unified_engine(&graph, &sets, &cfg, &mut engine)
        });
        tr.end(s);
        match r {
            Ok(batch) => {
                let first = reference.get_or_insert_with(|| batch.clone());
                out.op(true, String::new);
                if let Err(e) = check_batch(first, &batch, n) {
                    out.fail(e);
                }
            }
            Err(e) => out.op(false, || format!("batched PPR failed: {e}")),
        }
        took
    });
    let reference = reference.unwrap_or_default();
    // Only batched passes have run on this engine so far.
    let report = engine.report();

    out.common(&setup_s, &batches.all());
    out.reported("ppr_batch_s", "s", med(&batches.all()) / 1e3);
    out.sizes = vec![
        ("rank_vectors", (4 * n * BATCH) as u64),
        ("csr", graph.memory_bytes()),
        ("bins", report.aux_memory_bytes),
    ];

    if ctx.traced {
        // 16 solo queries: what batching has to beat, and a bit-identity
        // check of the batched results.
        let solo = ctx.tr.begin("algos.ppr_solo");
        let t0 = std::time::Instant::now();
        for (q, seeds) in sets.iter().enumerate() {
            let s = ctx.tr.begin("algos.ppr");
            let r = personalized_pagerank_with_unified_engine(&graph, seeds, &cfg, &mut engine);
            ctx.tr.end(s);
            match r {
                Ok(r) => out.op(
                    reference.get(q).is_some_and(|b| {
                        b.iterations == r.iterations && same_bits(&b.scores, &r.scores)
                    }),
                    || format!("query {q}: solo PPR differs from its batched result"),
                ),
                Err(e) => out.op(false, || format!("solo PPR failed: {e}")),
            }
        }
        let solo_s = t0.elapsed().as_secs_f64();
        ctx.tr.end(solo);

        let step_ms = time_steps(ctx, &mut engine, "core.step", STEP_REPS)?.wall_ms;
        let step_many_ms = step_many_ms(ctx, &mut engine)?;
        let iters = cfg.iterations as f64;
        out.layer("core.step_many_ms", "ms", step_many_ms);
        out.layer("core.step_ms.ppr", "ms", step_ms);
        out.layer(
            "core.batch_amortization",
            "ratio",
            BATCH as f64 * step_ms / step_many_ms,
        );
        out.layer(
            "core.dest_bytes_per_query",
            "B",
            report.dest_stream_bytes_per_query().unwrap_or(f64::NAN),
        );
        out.layer(
            "algos.ppr.driver_ms",
            "ms",
            (med(&batches.ms) - iters * step_many_ms) / iters,
        );
        out.layer("algos.ppr.solo_s", "s", solo_s);
        out.notes.push((
            "trace_overhead_ms".into(),
            Json::Num(med(&batches.ms) - med(&batches.untraced_ms)),
        ));
    }
    out.layer(
        "rayon.workers_spawned.ppr-batch16-rmat14",
        "count",
        (rayon::diagnostics::workers_spawned() - workers0) as f64,
    );
    ctx.tr.end(root);
    Ok(out)
}

/// Median wall time of a Q=`BATCH` `Engine::step_many`.
fn step_many_ms(ctx: &mut Ctx, engine: &mut Engine<PlusF32>) -> Result<f64, String> {
    let n = engine.num_src() as usize;
    let xs: Vec<Vec<f32>> = (0..BATCH).map(|q| step_input(n, q)).collect();
    let mut ys = vec![vec![0.0f32; n]; BATCH];
    let mut wall = Vec::new();
    for _ in 0..STEP_REPS {
        let x_refs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
        let mut y_refs: Vec<&mut [f32]> = ys.iter_mut().map(Vec::as_mut_slice).collect();
        let s = ctx.tr.begin("core.step_many");
        let (r, took) = timed(|| engine.step_many(&x_refs, &mut y_refs));
        ctx.tr.end(s);
        r.map_err(|e| format!("step_many failed: {e}"))?;
        wall.push(ms(took));
    }
    Ok(med(&wall))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_sets_are_distinct_non_dangling_and_seeded() {
        let edges: Vec<(u32, u32)> = (0..64u32).map(|v| (v, (v * 7 + 1) % 64)).collect();
        let g = Csr::from_edges(64, &edges).unwrap();
        let a = seed_sets(&g, 3);
        assert_eq!(a, seed_sets(&g, 3));
        assert_ne!(a, seed_sets(&g, 4));
        let mut firsts: Vec<u32> = a.iter().map(|s| s[0]).collect();
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), BATCH);
    }
}
