//! Multi-query (SpMM) amortization sweep: per-format step time and
//! destID-stream traffic for batch sizes Q ∈ {1, 4, 8, 16}.
//!
//! The point of the batched path is that the destination-ID stream —
//! the DRAM-bandwidth-bound term of the paper's cost model — is
//! scanned **once per batched pass**, not once per query. So the
//! engine report's destID bytes per pass (`dest_stream_total_bytes`
//! over `batch_passes`, both as deltas across the measured passes) for
//! a Q-query pass should sit at ~1× the Q=1 pass (asserted here at
//! ≤ 1.15×), while a sequential loop would pay Q×. Batched outputs are
//! also asserted bit-identical to Q independent solo steps, per format.
//!
//! Emits `BENCH_multiquery.json` in the working directory; the seed
//! baseline lives in `bench-baselines/`.

use pcpm_core::algebra::PlusF32;
use pcpm_core::{BinFormatKind, Engine, PcpmConfig};
use pcpm_graph::gen::{rmat, RmatConfig};
use std::time::Instant;

const SCALE: u32 = 12;
const EDGE_FACTOR: u32 = 8;
const SEED: u64 = 42;
const PARTITION_BYTES: usize = 2 * 1024;
const WARMUP_PASSES: usize = 3;
const MEASURED_PASSES: usize = 20;
const BATCH_SIZES: [usize; 4] = [1, 4, 8, 16];
/// Acceptance bound: a Q=8 batched pass may scan at most 1.15× the
/// destID bytes of a Q=1 pass (equal pass counts).
const DEST_BYTES_SLACK: f64 = 1.15;

struct Row {
    format: &'static str,
    q: usize,
    pass_us: f64,
    per_query_us: f64,
    dest_stream_bytes_per_pass: u64,
}

fn main() {
    let g = rmat(&RmatConfig::graph500(SCALE, EDGE_FACTOR, SEED)).expect("seeded rmat");
    let n = g.num_nodes() as usize;
    let xs: Vec<Vec<f32>> = (0..*BATCH_SIZES.iter().max().unwrap() as u32)
        .map(|q| (0..g.num_nodes()).map(|v| ((v + q) % 13) as f32).collect())
        .collect();

    let mut rows: Vec<Row> = Vec::new();
    for format in BinFormatKind::ALL {
        let cfg = PcpmConfig::default()
            .with_partition_bytes(PARTITION_BYTES)
            .with_bin_format(format);
        let mut engine = Engine::<PlusF32>::builder(&g)
            .config(cfg)
            .build()
            .expect("engine");

        // Solo reference: Q independent steps, the bit-identity oracle.
        let solo: Vec<Vec<f32>> = xs
            .iter()
            .map(|x| {
                let mut y = vec![0.0f32; n];
                engine.step(x, &mut y).expect("solo step");
                y
            })
            .collect();

        for &q in &BATCH_SIZES {
            let x_refs: Vec<&[f32]> = xs[..q].iter().map(|x| x.as_slice()).collect();
            let mut ys: Vec<Vec<f32>> = vec![vec![0.0f32; n]; q];
            for _ in 0..WARMUP_PASSES {
                let mut y_refs: Vec<&mut [f32]> = ys.iter_mut().map(|y| y.as_mut_slice()).collect();
                engine.step_many(&x_refs, &mut y_refs).expect("warmup pass");
            }
            for (qi, y) in ys.iter().enumerate() {
                assert_eq!(
                    y, &solo[qi],
                    "{format} Q={q}: batched query {qi} diverged from its solo step"
                );
            }
            let before = engine.report();
            let t0 = Instant::now();
            for _ in 0..MEASURED_PASSES {
                let mut y_refs: Vec<&mut [f32]> = ys.iter_mut().map(|y| y.as_mut_slice()).collect();
                engine.step_many(&x_refs, &mut y_refs).expect("pass");
            }
            let pass_us = t0.elapsed().as_secs_f64() * 1e6 / MEASURED_PASSES as f64;
            let after = engine.report();
            let passes = after.batch_passes - before.batch_passes;
            assert_eq!(
                passes, MEASURED_PASSES,
                "{format} Q={q}: pass count drifted"
            );
            let dest_bytes = after.dest_stream_total_bytes().expect("pcpm stream bytes")
                - before.dest_stream_total_bytes().expect("pcpm stream bytes");
            rows.push(Row {
                format: format.name(),
                q,
                pass_us,
                per_query_us: pass_us / q as f64,
                dest_stream_bytes_per_pass: dest_bytes / passes as u64,
            });
        }
    }

    println!(
        "multiquery sweep — rmat scale {SCALE} ef {EDGE_FACTOR} seed {SEED} \
         ({} nodes, {} edges), {PARTITION_BYTES} B partitions, {MEASURED_PASSES} passes",
        g.num_nodes(),
        g.num_edges()
    );
    println!(
        "{:<8} {:>4} {:>12} {:>14} {:>16}",
        "format", "Q", "pass(us)", "per-query(us)", "dest(B/pass)"
    );
    for r in &rows {
        println!(
            "{:<8} {:>4} {:>12.1} {:>14.1} {:>16}",
            r.format, r.q, r.pass_us, r.per_query_us, r.dest_stream_bytes_per_pass
        );
    }

    // The amortization claim, per format: the destID stream is paid
    // once per pass regardless of Q.
    for format in BinFormatKind::ALL {
        let at = |q: usize| -> &Row {
            rows.iter()
                .find(|r| r.format == format.name() && r.q == q)
                .expect("row")
        };
        let base = at(1).dest_stream_bytes_per_pass as f64;
        for &q in &BATCH_SIZES[1..] {
            let got = at(q).dest_stream_bytes_per_pass as f64;
            assert!(
                got <= base * DEST_BYTES_SLACK,
                "{format} Q={q}: {got} dest-stream bytes/pass vs {base} at Q=1 \
                 (bound {DEST_BYTES_SLACK}x)"
            );
        }
    }

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"graph\": {{\"kind\": \"rmat\", \"scale\": {SCALE}, \"edge_factor\": {EDGE_FACTOR}, \
         \"seed\": {SEED}, \"nodes\": {}, \"edges\": {}}},\n",
        g.num_nodes(),
        g.num_edges()
    ));
    json.push_str(&format!("  \"partition_bytes\": {PARTITION_BYTES},\n"));
    json.push_str(&format!("  \"measured_passes\": {MEASURED_PASSES},\n"));
    json.push_str(&format!("  \"dest_bytes_slack\": {DEST_BYTES_SLACK},\n"));
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"format\": \"{}\", \"q\": {}, \"pass_us\": {:.3}, \
             \"per_query_us\": {:.3}, \"dest_stream_bytes_per_pass\": {}}}{}\n",
            r.format,
            r.q,
            r.pass_us,
            r.per_query_us,
            r.dest_stream_bytes_per_pass,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_multiquery.json", &json).expect("write BENCH_multiquery.json");
    println!("wrote BENCH_multiquery.json");
}
