//! Integration tests for the workspace telemetry layer: the engine
//! report's per-run accounting and span tracing driven through real
//! runs, across all three bin formats.
//!
//! Every count here belongs to one engine and every trace to one
//! thread, so these tests share no state and run in parallel.

use pcpm::core::algebra::PlusF32;
use pcpm::core::telemetry;
use pcpm::core::BinFormatKind;
use pcpm::prelude::*;
use std::sync::Barrier;
use std::time::Duration;

fn test_graph() -> Csr {
    pcpm::graph::gen::erdos_renyi(2000, 16000, 5).unwrap()
}

fn cfg(format: BinFormatKind) -> PcpmConfig {
    PcpmConfig::default()
        .with_partition_bytes(4096)
        .with_bin_format(format)
}

const STEPS: usize = 4;

fn run_steps(graph: &Csr, format: BinFormatKind) -> ExecutionReport {
    let mut engine = Engine::<PlusF32>::builder(graph)
        .config(cfg(format))
        .build()
        .unwrap();
    let x: Vec<f32> = (0..graph.num_nodes()).map(|v| (v % 7) as f32).collect();
    let mut y = vec![0.0f32; graph.num_nodes() as usize];
    for _ in 0..STEPS {
        engine.step(&x, &mut y).unwrap();
    }
    engine.report()
}

#[test]
fn reports_account_dest_stream_and_phase_time_on_all_formats() {
    let graph = test_graph();
    for format in BinFormatKind::ALL {
        // The report carries the dest-stream accounting — it comes from
        // the pipeline itself.
        let report = run_steps(&graph, format);
        let per_step = report.dest_stream_bytes.expect("pcpm reports stream bytes");
        assert!(per_step > 0);
        assert_eq!(
            report.dest_stream_total_bytes(),
            Some(per_step * STEPS as u64)
        );
        let gbps = report.dest_stream_gbps().expect("steps ran, gather timed");
        assert!(gbps > 0.0, "effective bandwidth must be positive");
        assert!(report.timings.scatter > Duration::ZERO, "{format}: scatter");
        assert!(report.timings.gather > Duration::ZERO, "{format}: gather");
    }
}

#[test]
fn wide_stream_is_strictly_larger_than_compact_and_delta() {
    let graph = test_graph();
    let bytes: Vec<u64> = BinFormatKind::ALL
        .iter()
        .map(|&f| run_steps(&graph, f).dest_stream_bytes.unwrap())
        .collect();
    // ALL is [wide, compact, delta]: wide pays 4 B/edge, compact 2,
    // delta ~1-2 — the paper's compression argument in one assert.
    assert!(
        bytes[1] < bytes[0] && bytes[2] < bytes[0],
        "wide must carry the largest dest stream: {bytes:?}"
    );
}

/// Builds an engine on `threads` threads, waits at `start`, and reports
/// the pool jobs its steps dispatched.
fn pool_jobs(graph: &Csr, threads: usize, start: &Barrier) -> u64 {
    let mut engine = Engine::<PlusF32>::builder(graph)
        .config(cfg(BinFormatKind::Wide).with_threads(threads))
        .build()
        .unwrap();
    let x = vec![1.0f32; graph.num_nodes() as usize];
    let mut y = vec![0.0f32; graph.num_nodes() as usize];
    start.wait();
    for _ in 0..3 {
        engine.step(&x, &mut y).unwrap();
    }
    engine.report().pool_jobs_dispatched
}

#[test]
fn pool_diagnostics_fold_into_the_report() {
    let graph = test_graph();
    let alone = pool_jobs(&graph, 2, &Barrier::new(1));
    assert!(alone > 0, "a 2-thread engine's pool must dispatch jobs");
    // A 1-thread pool runs every op inline on the caller.
    assert_eq!(pool_jobs(&graph, 1, &Barrier::new(1)), 0);
    // The count is the engine's own: a second engine stepping on the
    // same shared pool at the same time adds nothing to it.
    let start = Barrier::new(2);
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| pool_jobs(&graph, 2, &start));
        let b = s.spawn(|| pool_jobs(&graph, 2, &start));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!((a, b), (alone, alone), "per-engine job counts");
}

#[test]
fn trace_spans_from_a_real_run_nest_and_serialize() {
    let graph = test_graph();
    telemetry::start_tracing();
    let _ = run_steps(&graph, BinFormatKind::Delta);
    let events = telemetry::stop_tracing();

    let names: Vec<&str> = events.iter().map(|e| e.name).collect();
    for expected in ["prepare", "step", "scatter", "gather"] {
        assert!(
            names.contains(&expected),
            "missing span {expected:?} in {names:?}"
        );
    }
    let steps = events.iter().filter(|e| e.name == "step").count();
    assert_eq!(steps, STEPS);
    // scatter/gather spans nest inside their step span.
    let step = events.iter().find(|e| e.name == "step").unwrap();
    let scatter = events
        .iter()
        .find(|e| e.name == "scatter" && e.ts_us >= step.ts_us)
        .unwrap();
    assert!(scatter.ts_us + scatter.dur_us <= step.ts_us + step.dur_us + 1);

    // The Chrome-trace JSON round-trips through a strict parser shape:
    // starts as an array, one object per span, required keys present.
    let json = telemetry::chrome_trace_json(&events);
    assert!(json.trim_start().starts_with('['));
    assert!(json.trim_end().ends_with(']'));
    assert_eq!(json.matches("\"ph\":\"X\"").count(), events.len());
    assert_eq!(json.matches("\"pid\":1").count(), events.len());
}

#[test]
fn replay_batches_emit_spans() {
    let graph = std::sync::Arc::new(test_graph());
    let batches = gen_updates(
        &graph,
        &UpdateGenConfig {
            batches: 3,
            batch_size: 40,
            delete_frac: 0.3,
            locality: None,
            seed: 9,
        },
    )
    .unwrap();
    telemetry::start_tracing();
    let rc = ReplayConfig {
        cfg: cfg(BinFormatKind::Wide).with_iterations(10),
        backend: BackendKind::Pcpm,
        compaction_threshold: 1.0,
        verify: false,
        cache: None,
    };
    replay(std::sync::Arc::clone(&graph), &batches, &rc).unwrap();
    let events = telemetry::stop_tracing();
    let replay_spans: Vec<_> = events.iter().filter(|e| e.name == "replay_batch").collect();
    assert_eq!(replay_spans.len(), 3, "one span per replayed batch");
    // Batch indices ride along as the span arg, in order.
    let args: Vec<Option<u64>> = replay_spans.iter().map(|e| e.arg).collect();
    assert_eq!(args, vec![Some(0), Some(1), Some(2)]);
}
