//! `pagerank-rmat22`: 20-iteration PageRank on a prepared engine, wide
//! bins, default configuration, 2 threads. At scale 22 the rank vector
//! is several times a core's L2 and the bins outgrow the L3, which is
//! the regime the paper's claim is about.

use super::{build_engines, med, op_loop, same_bits, time_steps, timed, well_formed, Ctx, Outcome};
use crate::json::Json;
use pcpm_core::algebra::PlusF32;
use pcpm_core::pagerank::pagerank_with_unified_engine;
use pcpm_core::{BackendKind, BinFormatKind, Engine, PcpmConfig, PcpmError, PrResult};
use pcpm_graph::Csr;

/// Engine threads.
pub const THREADS: usize = 2;
/// Engine builds timed for `setup_s`.
const SETUP_REPS: usize = 3;
/// PageRank runs at least made, however short `--seconds` is.
const MIN_RUNS: usize = 3;
/// Single steps timed per engine in the traced run.
const STEP_REPS: usize = 5;
/// Largest L1 distance allowed between PCPM and pull ranks.
pub const PULL_L1_TOLERANCE: f64 = 1e-5;
/// Partition size for the compact-format reference: the default 256 KB
/// holds more nodes than 16-bit local ids can address.
const COMPACT_PARTITION_BYTES: usize = 128 * 1024;

fn config() -> PcpmConfig {
    PcpmConfig::default().with_threads(THREADS)
}

/// Checks one PageRank run against the first one: same iteration count,
/// `n` finite scores, bit-identical ranks.
pub fn check_run(reference: &[f32], r: &PrResult, iterations: usize) -> Result<(), String> {
    if r.iterations != iterations {
        return Err(format!(
            "ran {} iterations, expected {iterations}",
            r.iterations
        ));
    }
    if !well_formed(&r.scores, reference.len()) {
        return Err("scores are not n finite values".into());
    }
    if !same_bits(reference, &r.scores) {
        return Err("ranks differ from the first run".into());
    }
    Ok(())
}

/// L1 distance between two rank vectors.
pub fn l1(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (f64::from(*x) - f64::from(*y)).abs())
        .sum()
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let spec = super::Workload::Pagerank.spec(ctx.seed);
    let root = ctx.tr.begin("workload");
    let workers0 = rayon::diagnostics::workers_spawned();
    let graph = super::load_graph(ctx, &spec)?;
    let n = graph.num_nodes() as usize;
    let m = graph.num_edges();
    let cfg = config();
    let mut out = Outcome::default();

    super::warm_up(ctx);
    let (mut engine, setup_s) = build_engines(ctx, &graph, cfg, SETUP_REPS)?;
    let mut reference: Option<Vec<f32>> = None;
    let runs = op_loop(ctx, MIN_RUNS, |tr| {
        let s = tr.begin("core.pagerank");
        let (r, took) = timed(|| pagerank_with_unified_engine(&graph, &cfg, &mut engine, None));
        tr.end(s);
        record(&mut out, &mut reference, r, cfg.iterations);
        took
    });
    let reference = reference.unwrap_or_default();
    let report = engine.report();
    let steps = if ctx.traced {
        Some(time_steps(ctx, &mut engine, "core.step", STEP_REPS)?)
    } else {
        None
    };
    drop(engine);

    // Agreement with the pull baseline, once per invocation.
    let s = ctx.tr.begin("baselines.pull.build");
    let pull = Engine::<PlusF32>::builder(&graph)
        .config(cfg)
        .backend(BackendKind::Pull)
        .build();
    ctx.tr.end(s);
    let mut pull = pull.map_err(|e| format!("pull engine build failed: {e}"))?;
    let s = ctx.tr.begin("baselines.pull.pagerank");
    let pulled = pagerank_with_unified_engine(&graph, &cfg, &mut pull, None);
    ctx.tr.end(s);
    let dist = match pulled {
        Ok(p) => {
            let d = l1(&reference, &p.scores);
            out.op(well_formed(&p.scores, n) && d <= PULL_L1_TOLERANCE, || {
                format!("pull baseline disagrees: L1 distance {d:e} > {PULL_L1_TOLERANCE:e}")
            });
            d
        }
        Err(e) => {
            out.op(false, || format!("pull baseline failed: {e}"));
            f64::NAN
        }
    };
    let pull_steps = if ctx.traced {
        Some(time_steps(
            ctx,
            &mut pull,
            "baselines.pull.step",
            STEP_REPS,
        )?)
    } else {
        None
    };
    drop(pull);

    out.common(&setup_s, &runs.all());
    out.reported("pagerank_s", "s", med(&runs.all()) / 1e3);
    out.notes.push(("pull_l1_distance".into(), Json::Num(dist)));
    out.notes
        .push(("kernel".into(), Json::str(report.kernel.unwrap_or("n/a"))));
    let aux = report.aux_memory_bytes;
    out.sizes = vec![
        ("rank_vector", 4 * n as u64),
        ("csr", graph.memory_bytes()),
        ("bins", aux),
        ("dest_stream", report.dest_stream_bytes.unwrap_or(0)),
    ];

    if let (Some(st), Some(pull)) = (steps, pull_steps) {
        let png_ratio = report.compression_ratio.unwrap_or(f64::NAN);
        let dest = report.dest_stream_bytes.unwrap_or(0) as f64;
        let iters = cfg.iterations as f64;
        out.layer("core.step_ms", "ms", st.wall_ms);
        out.layer("core.scatter_ms", "ms", st.scatter_ms);
        out.layer("core.gather_ms", "ms", st.gather_ms);
        out.layer(
            "core.pagerank.driver_ms",
            "ms",
            (med(&runs.ms) - iters * st.wall_ms) / iters,
        );
        out.layer("core.dest_bytes_per_edge", "B", dest / m as f64);
        // Computed, not counted: destID stream once, plus every message
        // written by scatter and read back by gather.
        let msg_bytes = 2.0 * 4.0 * m as f64 / png_ratio;
        out.layer(
            "core.step_gbps_computed",
            "GB/s",
            (dest + msg_bytes) / (st.wall_ms * 1e6),
        );
        out.layer("core.aux_mb", "MiB", aux as f64 / (1u64 << 20) as f64);
        out.layer("core.png_ratio", "ratio", png_ratio);
        out.layer(
            "core.gather_ns_per_edge",
            "ns",
            st.gather_ms * 1e6 / m as f64,
        );
        let s = ctx.tr.begin("memsim.predict");
        let p = pcpm_memsim::predict_kernel(
            n as u64,
            m,
            BinFormatKind::Wide,
            u64::from(cfg.partition_nodes()),
        );
        ctx.tr.end(s);
        let predicted = match report.kernel {
            Some("scalar") => p.scalar_ns_per_edge,
            _ => p.unrolled_ns_per_edge,
        };
        out.layer("memsim.predicted_gather_ns_per_edge", "ns", predicted);
        let compact = format_step_ms(ctx, &graph, BinFormatKind::Compact, COMPACT_PARTITION_BYTES)?;
        out.layer("core.step_ms.compact", "ms", compact);
        let delta = format_step_ms(ctx, &graph, BinFormatKind::Delta, cfg.partition_bytes)?;
        out.layer("core.step_ms.delta", "ms", delta);
        out.layer("baselines.pull.step_ms", "ms", pull.wall_ms);
        out.layer("speedup_vs_pull", "x", pull.wall_ms / st.wall_ms);
        out.notes.push((
            "trace_overhead_ms".into(),
            Json::Num(med(&runs.ms) - med(&runs.untraced_ms)),
        ));
    }
    out.layer(
        "rayon.workers_spawned.pagerank-rmat22",
        "count",
        (rayon::diagnostics::workers_spawned() - workers0) as f64,
    );
    ctx.tr.end(root);
    Ok(out)
}

fn record(
    out: &mut Outcome,
    reference: &mut Option<Vec<f32>>,
    r: Result<PrResult, PcpmError>,
    iterations: usize,
) {
    match r {
        Ok(r) => {
            let first = reference.get_or_insert_with(|| r.scores.clone());
            out.op(true, String::new);
            if let Err(e) = check_run(first, &r, iterations) {
                out.fail(e);
            }
        }
        Err(e) => out.op(false, || format!("pagerank failed: {e}")),
    }
}

/// Median step time of another bin format on the same graph.
fn format_step_ms(
    ctx: &mut Ctx,
    graph: &Csr,
    format: BinFormatKind,
    partition_bytes: usize,
) -> Result<f64, String> {
    let (build, step) = match format {
        BinFormatKind::Compact => ("core.build.compact", "core.step.compact"),
        _ => ("core.build.delta", "core.step.delta"),
    };
    let cfg = config()
        .with_bin_format(format)
        .with_partition_bytes(partition_bytes);
    let s = ctx.tr.begin(build);
    let e = Engine::<PlusF32>::builder(graph).config(cfg).build();
    ctx.tr.end(s);
    let mut e = e.map_err(|e| format!("{build} failed: {e}"))?;
    Ok(time_steps(ctx, &mut e, step, STEP_REPS)?.wall_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(scores: Vec<f32>) -> PrResult {
        PrResult {
            scores,
            iterations: 20,
            converged: false,
            last_delta: 0.0,
            timings: Default::default(),
            preprocess: Default::default(),
            compression_ratio: None,
        }
    }

    #[test]
    fn a_flipped_rank_is_counted_as_a_failure() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 0), (3, 0)]).unwrap();
        let cfg = PcpmConfig::default().with_partition_bytes(8);
        let mut e = Engine::<PlusF32>::builder(&g).config(cfg).build().unwrap();
        let good = pagerank_with_unified_engine(&g, &cfg, &mut e, None).unwrap();
        let mut flipped = good.scores.clone();
        flipped[2] = f32::from_bits(flipped[2].to_bits() ^ 1);

        let mut out = Outcome::default();
        let mut reference = None;
        record(
            &mut out,
            &mut reference,
            Ok(result(good.scores.clone())),
            20,
        );
        record(&mut out, &mut reference, Ok(result(flipped)), 20);
        record(
            &mut out,
            &mut reference,
            Ok(result(good.scores.clone())),
            20,
        );
        assert_eq!((out.attempted, out.failed), (3, 1));
        assert_eq!(
            out.failures,
            vec!["ranks differ from the first run".to_string()]
        );
        assert!(l1(&good.scores, &good.scores) == 0.0);
    }
}
