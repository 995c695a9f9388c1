//! Closed-form gather-kernel cost estimates, in the same cost-model
//! spirit as [`crate::model`]: per-edge gather nanoseconds for a
//! one-entry-at-a-time scalar loop and for the 4-wide unrolled
//! branch-avoiding gather the engine runs (with, on the delta format,
//! its batched segment decode), for a given graph shape and bin format.
//! The `kernels` bench prints them beside the measured gather cost.

use pcpm_core::format::BinFormatKind;

/// Scratch bytes per decoded delta entry (one `u64` each).
pub const SCRATCH_BYTES_PER_EDGE: u64 = 8;

/// Cache budget for the delta decode scratch: one segment's decoded
/// entries should stay resident while the apply loop re-reads them.
/// 256 KiB matches the paper's per-partition cache budget (a typical L2
/// slice) that `PcpmConfig::default().partition_bytes` targets.
pub const SCRATCH_CACHE_BUDGET: u64 = 256 * 1024;

/// Calibration constants for the per-edge kernel cost model, all in
/// nanoseconds. Calibrated against the committed
/// `bench-baselines/BENCH_kernels.json` numbers (scale-12 RMAT); they
/// only need to *rank* the kernels correctly, not hit wall-clock.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelCosts {
    /// Per-entry overhead of the scalar apply loop (bounds check +
    /// branch + flag arithmetic).
    pub scalar_loop_ns: f64,
    /// Per-entry overhead of the 4-wide unrolled apply loop.
    pub unrolled_loop_ns: f64,
    /// Per encoded byte cost of the inline varint decode's
    /// data-dependent continuation branch (scalar delta path).
    pub varint_branch_ns: f64,
    /// Per encoded byte cost of the batched branch-reduced decode
    /// (unrolled delta path).
    pub batched_decode_ns: f64,
    /// Per-entry cost of the scratch-buffer round trip (one `u64`
    /// write + read) while the segment's scratch stays cache-resident.
    pub scratch_hit_ns: f64,
    /// Per-entry cost of the same round trip once the decoded segment
    /// spills the cache and pays DRAM write + read latency.
    pub scratch_spill_ns: f64,
}

impl Default for KernelCosts {
    fn default() -> Self {
        Self {
            scalar_loop_ns: 1.6,
            unrolled_loop_ns: 1.0,
            varint_branch_ns: 0.9,
            batched_decode_ns: 0.35,
            scratch_hit_ns: 0.4,
            scratch_spill_ns: 3.0,
        }
    }
}

/// The predicted gather costs for one `(graph, format)` point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelPrediction {
    /// Predicted gather cost of the scalar kernel, ns per raw edge.
    pub scalar_ns_per_edge: f64,
    /// Predicted gather cost of the unrolled kernel (the one the engine
    /// runs), ns per raw edge.
    pub unrolled_ns_per_edge: f64,
    /// Average decoded entries per delta bin segment (0 for the
    /// fixed-width formats), the quantity the spill test is about.
    pub avg_segment_edges: u64,
}

/// Number of partitions a dimension of `n` nodes splits into at
/// partition size `q` (matching `pcpm_core::partition::Partitioner`).
fn num_partitions(n: u64, q: u64) -> u64 {
    n.div_ceil(q.max(1)).max(1)
}

/// Predicts the gather cost of each kernel for an `n`-node,
/// `raw_edges`-edge square graph under bin format `format` with
/// partition size `q` (nodes per partition,
/// `PcpmConfig::partition_nodes`).
///
/// For the fixed-width formats the unrolled apply loop strictly shaves
/// loop overhead. For delta the batched decode trades the per-byte
/// decode branch for a scratch round trip, which is cheap while the
/// average segment's decoded scratch ([`SCRATCH_BYTES_PER_EDGE`] per
/// entry) fits the cache budget ([`SCRATCH_CACHE_BUDGET`]) and costs a
/// spill per entry once it does not.
pub fn predict_kernel(n: u64, raw_edges: u64, format: BinFormatKind, q: u64) -> KernelPrediction {
    predict_kernel_with(n, raw_edges, format, q, &KernelCosts::default())
}

/// [`predict_kernel`] with explicit calibration constants.
pub fn predict_kernel_with(
    n: u64,
    raw_edges: u64,
    format: BinFormatKind,
    q: u64,
    costs: &KernelCosts,
) -> KernelPrediction {
    let k = num_partitions(n, q);
    // Encoded bytes per delta entry: 1–2 in practice (partition-local
    // gaps); 1.3 matches the measured delta compression on RMAT graphs.
    const DELTA_BYTES_PER_EDGE: f64 = 1.3;
    let (scalar, unrolled, avg_segment_edges) = match format {
        BinFormatKind::Wide | BinFormatKind::Compact => {
            (costs.scalar_loop_ns, costs.unrolled_loop_ns, 0)
        }
        BinFormatKind::Delta => {
            let segments = k * k;
            let avg = raw_edges / segments.max(1);
            let spills = avg * SCRATCH_BYTES_PER_EDGE > SCRATCH_CACHE_BUDGET;
            let scratch = if spills {
                costs.scratch_spill_ns
            } else {
                costs.scratch_hit_ns
            };
            (
                costs.scalar_loop_ns + DELTA_BYTES_PER_EDGE * costs.varint_branch_ns,
                costs.unrolled_loop_ns + DELTA_BYTES_PER_EDGE * costs.batched_decode_ns + scratch,
                avg,
            )
        }
    };
    KernelPrediction {
        scalar_ns_per_edge: scalar,
        unrolled_ns_per_edge: unrolled,
        avg_segment_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_width_unrolled_is_cheaper() {
        for format in [BinFormatKind::Wide, BinFormatKind::Compact] {
            let p = predict_kernel(1 << 20, 1 << 24, format, 1 << 16);
            assert!(p.unrolled_ns_per_edge < p.scalar_ns_per_edge);
            assert_eq!(p.avg_segment_edges, 0);
        }
    }

    #[test]
    fn delta_cache_resident_batched_decode_is_cheaper() {
        // Scale-12-ish: 4096 nodes, 32 K edges, q = 512 -> 8x8 segments,
        // ~512 entries (~4 KB scratch) per segment: firmly cache-resident.
        let p = predict_kernel(4096, 1 << 15, BinFormatKind::Delta, 512);
        assert_eq!(p.avg_segment_edges, 512);
        assert!(p.unrolled_ns_per_edge < p.scalar_ns_per_edge);
    }

    #[test]
    fn delta_spilling_scratch_raises_the_unrolled_cost() {
        // One giant partition: the whole edge list decodes into one
        // scratch segment far beyond the cache budget.
        let n = 1u64 << 24;
        let spilled = predict_kernel(n, 1 << 28, BinFormatKind::Delta, n);
        let resident = predict_kernel(4096, 1 << 15, BinFormatKind::Delta, 512);
        assert!(spilled.avg_segment_edges * SCRATCH_BYTES_PER_EDGE > SCRATCH_CACHE_BUDGET);
        assert!(spilled.unrolled_ns_per_edge > resident.unrolled_ns_per_edge);
        assert_eq!(spilled.scalar_ns_per_edge, resident.scalar_ns_per_edge);
    }
}
