//! Gather-kernel sweep: step and gather-phase time per bin format on a
//! seeded scale-12 RMAT graph, beside the memsim predictor's estimate.
//!
//! Besides the console table, the suite emits `BENCH_kernels.json` in
//! the working directory (seed baseline committed under
//! `bench-baselines/`) so CI can diff kernel regressions without
//! scraping stdout. Two invariants are asserted in-process:
//!
//! 1. every format produces bit-identical output on the integer grid —
//!    the speed comparison is meaningless otherwise;
//! 2. `pcpm_memsim::predict_kernel` ranks the unrolled gather the
//!    engine runs as cheaper than a scalar loop for every format at
//!    this cache-resident point.
//!
//! The batched delta decode's speed floor (≥ 1.5× the inline varint
//! loop) is asserted by the `pcpm-core` timing probe
//! `delta::perf_probe::probe_decode_cost` at this same graph and
//! partition size.

use pcpm_core::algebra::PlusF32;
use pcpm_core::{BinFormatKind, Engine, PcpmConfig};
use pcpm_graph::gen::{rmat, RmatConfig};
use std::time::Instant;

const SCALE: u32 = 12;
const EDGE_FACTOR: u32 = 8;
const SEED: u64 = 42;
/// 2 KB partitions -> 512 nodes -> 8 partitions per dimension.
const PARTITION_BYTES: usize = 2 * 1024;
const WARMUP_STEPS: usize = 5;
const MEASURED_STEPS: usize = 30;
/// Best-of-`REPS` measurement: each rep times `MEASURED_STEPS` steps
/// and the minimum survives, so scheduler noise (this often runs on a
/// single shared core) does not inflate the row.
const REPS: usize = 10;

struct KernelRow {
    format: BinFormatKind,
    step_us: f64,
    gather_us: f64,
    gather_ns_per_edge: f64,
    predicted_ns_per_edge: f64,
    dest_gbps: f64,
}

fn main() {
    let g = rmat(&RmatConfig::graph500(SCALE, EDGE_FACTOR, SEED)).expect("seeded rmat");
    let n = g.num_nodes() as usize;
    let edges = g.num_edges();
    let x: Vec<f32> = (0..g.num_nodes()).map(|v| (v % 13) as f32).collect();

    let mut rows: Vec<KernelRow> = Vec::new();
    let mut reference: Option<Vec<f32>> = None;
    for format in BinFormatKind::ALL {
        let cfg = PcpmConfig::default()
            .with_partition_bytes(PARTITION_BYTES)
            .with_bin_format(format)
            .with_threads(1);
        let mut engine = Engine::<PlusF32>::builder(&g)
            .config(cfg)
            .build()
            .expect("engine");
        let mut y = vec![0.0f32; n];
        for _ in 0..WARMUP_STEPS {
            engine.step(&x, &mut y).expect("warmup step");
        }
        let mut step_us = f64::INFINITY;
        let mut gather_ns = f64::INFINITY;
        for _ in 0..REPS {
            let gather_before = engine.report().timings.gather;
            let t0 = Instant::now();
            for _ in 0..MEASURED_STEPS {
                engine.step(&x, &mut y).expect("step");
            }
            step_us = step_us.min(t0.elapsed().as_secs_f64() * 1e6 / MEASURED_STEPS as f64);
            let gather = engine.report().timings.gather - gather_before;
            gather_ns = gather_ns.min(gather.as_nanos() as f64 / MEASURED_STEPS as f64);
        }
        match &reference {
            None => reference = Some(y.clone()),
            Some(want) => assert_eq!(want, &y, "{format} diverged from wide"),
        }
        let p = pcpm_memsim::predict_kernel(
            u64::from(g.num_nodes()),
            edges,
            format,
            (PARTITION_BYTES / 4) as u64,
        );
        assert!(
            p.unrolled_ns_per_edge < p.scalar_ns_per_edge,
            "{format}: memsim ranks the engine's unrolled gather behind a scalar loop"
        );
        rows.push(KernelRow {
            format,
            step_us,
            gather_us: gather_ns / 1e3,
            gather_ns_per_edge: gather_ns / edges as f64,
            predicted_ns_per_edge: p.unrolled_ns_per_edge,
            dest_gbps: engine.report().dest_stream_gbps().unwrap_or(0.0),
        });
    }

    println!(
        "kernel sweep — rmat scale {SCALE} ef {EDGE_FACTOR} seed {SEED} \
         ({} nodes, {edges} edges), {PARTITION_BYTES} B partitions",
        g.num_nodes()
    );
    println!(
        "{:<8} {:>12} {:>12} {:>16} {:>16} {:>10}",
        "format", "step(us)", "gather(us)", "gather(ns/edge)", "memsim(ns/edge)", "GB/s"
    );
    for r in &rows {
        println!(
            "{:<8} {:>12.1} {:>12.1} {:>16.3} {:>16.3} {:>10.2}",
            r.format.name(),
            r.step_us,
            r.gather_us,
            r.gather_ns_per_edge,
            r.predicted_ns_per_edge,
            r.dest_gbps
        );
    }

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"graph\": {{\"kind\": \"rmat\", \"scale\": {SCALE}, \"edge_factor\": {EDGE_FACTOR}, \
         \"seed\": {SEED}, \"nodes\": {}, \"edges\": {edges}}},\n",
        g.num_nodes()
    ));
    json.push_str(&format!("  \"partition_bytes\": {PARTITION_BYTES},\n"));
    json.push_str(&format!("  \"measured_steps\": {MEASURED_STEPS},\n"));
    json.push_str("  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"format\": \"{}\", \"step_us\": {:.3}, \"gather_us\": {:.3}, \
             \"gather_ns_per_edge\": {:.4}, \"predicted_ns_per_edge\": {:.4}, \
             \"dest_gbps\": {:.3}}}{}\n",
            r.format,
            r.step_us,
            r.gather_us,
            r.gather_ns_per_edge,
            r.predicted_ns_per_edge,
            r.dest_gbps,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("wrote BENCH_kernels.json");
}
