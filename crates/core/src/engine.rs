//! The PCPM pipeline: a reusable scatter/gather dataplane over a fixed
//! structure, generic over the gather [`Algebra`] and the physical
//! [`BinFormat`].
//!
//! [`FormatPipeline<A, F>`] is the statically-typed dataplane: PNG layout
//! plus `F`'s bin storage, with one shared implementation of build,
//! incremental repair and the scatter→gather round — the skeleton that
//! used to be copy-pasted per encoding. [`PcpmPipeline<A>`] wraps it in a
//! runtime-selected enum (one variant per [`BinFormatKind`]) for callers
//! that pick the format from a [`PcpmConfig`], and is the type the
//! ablation benches switch scatter/gather variants on per call.
//!
//! Most callers should not touch either type directly: the unified
//! [`Engine`](crate::backend::Engine) builder wraps them as the
//! [`BackendKind::Pcpm`](crate::backend::BackendKind) dataplane and fixes
//! the phase variants at build time.

use crate::algebra::{Algebra, PlusF32};
use crate::bins::BinSpace;
use crate::config::PcpmConfig;
use crate::error::PcpmError;
use crate::format::{
    dest_compression, BinFormat, BinFormatKind, CompactFormat, DeltaFormat, WideFormat,
};
use crate::gather::{batch_lanes, gather_algebra, gather_node_major, SegmentEntries};
use crate::partition::Partitioner;
use crate::png::{EdgeView, Png};
use crate::pr::PhaseTimings;
use crate::scatter::{csr_scatter, png_scatter_many};
use crate::update::RepairStats;
use pcpm_graph::Csr;
use std::time::Duration;

/// Which scatter implementation to run (Algorithm 3 vs Algorithm 2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ScatterKind {
    /// PNG-driven branchless scatter (the paper's design, §3.3).
    #[default]
    Png,
    /// Original-CSR traversal with per-edge partition comparison (§3.2),
    /// kept as the data-layout ablation.
    CsrTraversal,
}

/// Which gather implementation to run (Algorithm 4 vs Algorithm 2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GatherKind {
    /// Branch-avoiding pointer arithmetic (§3.4).
    #[default]
    BranchAvoiding,
    /// Conditional MSB check, kept as the branch-avoidance ablation
    /// (wide bin format only).
    Branchy,
}

/// A built PCPM dataplane (PNG layout + message bins) over a fixed edge
/// structure, statically typed over the gather algebra and the bin
/// format.
pub struct FormatPipeline<A: Algebra, F: BinFormat> {
    num_src: u32,
    num_dst: u32,
    png: Png,
    bins: F::Bins<A::T>,
    preprocess: Duration,
}

impl<A: Algebra, F: BinFormat> FormatPipeline<A, F> {
    /// Builds the pipeline from a raw (possibly rectangular) edge view.
    ///
    /// Runs on the caller's current rayon pool — the unified
    /// [`Engine`](crate::backend::Engine) builder installs its
    /// pool around this, so no nested pool is created.
    pub(crate) fn from_view(
        view: EdgeView<'_>,
        cfg: &PcpmConfig,
        weights: Option<&[f32]>,
    ) -> Result<Self, PcpmError> {
        let max_dim = u64::from(view.num_src()).max(u64::from(view.num_dst()));
        if max_dim > pcpm_graph::MAX_NODES {
            return Err(PcpmError::TooManyNodes(max_dim));
        }
        let q = cfg.partition_nodes();
        let src_parts = Partitioner::new(view.num_src(), q)?;
        let dst_parts = Partitioner::new(view.num_dst(), q)?;
        let t0 = crate::telemetry::stopwatch();
        let _span = crate::telemetry::span("prepare");
        let png = Png::build(view, src_parts, dst_parts);
        let bins = F::build(view, &png, weights);
        Ok(Self {
            num_src: view.num_src(),
            num_dst: view.num_dst(),
            png,
            bins,
            preprocess: t0.elapsed(),
        })
    }

    /// Rehydrates a pipeline from snapshot state: no partitioning, PNG
    /// build or bin encoding runs — the structures are adopted as-is,
    /// once the format accepts the layout (a cold build sizes its
    /// partitions to fit through [`PcpmConfig::partition_nodes`]; a
    /// loaded layout is checked here).
    /// `preprocess` records the load wall-clock (the only preprocessing
    /// this process paid).
    pub(crate) fn from_loaded(
        num_src: u32,
        num_dst: u32,
        png: Png,
        bins: F::Bins<A::T>,
        preprocess: Duration,
    ) -> Result<Self, PcpmError> {
        F::validate_layout(&png)?;
        Ok(Self {
            num_src,
            num_dst,
            png,
            bins,
            preprocess,
        })
    }

    /// The serializable dataplane state for the engine-snapshot writer.
    pub(crate) fn export_state(&self) -> crate::snapshot::DataplaneState {
        crate::snapshot::DataplaneState::new(self.png.clone(), F::export_state(&self.bins))
    }

    /// Number of source nodes (length of `x`).
    pub fn num_src(&self) -> u32 {
        self.num_src
    }

    /// Number of destination nodes (length of `y`).
    pub fn num_dst(&self) -> u32 {
        self.num_dst
    }

    /// The PNG layout (for inspection and the memory replays).
    pub fn png(&self) -> &Png {
        &self.png
    }

    /// The bin storage.
    pub fn bins(&self) -> &F::Bins<A::T> {
        &self.bins
    }

    /// Heap bytes held by the message bins.
    pub fn bin_memory_bytes(&self) -> u64 {
        F::aux_memory_bytes(&self.bins)
    }

    /// Destination-ID compression relative to the wide baseline
    /// (`4·|E| / dest-stream bytes`): 1.0 wide, 2.0 compact, measured
    /// for delta.
    pub fn bin_compression(&self) -> f64 {
        dest_compression(self.png.num_raw_edges(), F::dest_stream_bytes(&self.bins))
    }

    /// PNG compression ratio `r = |E| / |E'|`.
    pub fn compression_ratio(&self) -> f64 {
        self.png.compression_ratio()
    }

    /// Physical bytes of the destination-ID bin stream — the sequential
    /// scan every gather pass pays, the paper's bandwidth-bound term.
    pub fn dest_stream_bytes(&self) -> u64 {
        F::dest_stream_bytes(&self.bins)
    }

    /// Pre-processing wall-clock time (PNG build + bin writing), Table 8.
    pub fn preprocess_time(&self) -> Duration {
        self.preprocess
    }

    /// Whether the pipeline carries per-edge weights in its bins.
    pub fn is_weighted(&self) -> bool {
        self.bins.weight_stream().is_some()
    }

    /// Incrementally repairs the prepared state after an edge-set change:
    /// the PNG parts and bin segments of the `touched_parts` *source*
    /// partitions are rebuilt against `view` (the post-update structure);
    /// every other partition's segments are block-copied. With a batch
    /// touching few partitions this is far cheaper than a fresh build —
    /// the counting/filling scans run only over the touched adjacency.
    ///
    /// `view` must keep the dimensions the pipeline was built with, and
    /// `weights` (the full post-update edge-weight slice, parallel to
    /// `view`'s targets) must be present exactly when the pipeline was
    /// built weighted. Repair models *structural* change only: the
    /// weight of every edge outside `touched_parts` must equal its
    /// pre-update value, because untouched bin segments (weights
    /// included) are block-copied, not re-read from `weights`. Mutating
    /// weights of unchanged edges requires a fresh build.
    pub fn repair(
        &mut self,
        view: EdgeView<'_>,
        weights: Option<&[f32]>,
        touched_parts: &[u32],
    ) -> Result<RepairStats, PcpmError> {
        if view.num_src() != self.num_src || view.num_dst() != self.num_dst {
            return Err(PcpmError::DimensionMismatch {
                expected: self.num_src as usize,
                got: view.num_src() as usize,
            });
        }
        if weights.is_some() != self.is_weighted() {
            return Err(PcpmError::BadConfig(
                "repair must supply weights exactly when the pipeline was built weighted",
            ));
        }
        let k = self.png.src_parts().num_partitions();
        let mut touched = vec![false; k as usize];
        for &s in touched_parts {
            if s >= k {
                return Err(PcpmError::BadConfig(
                    "touched source partition out of range",
                ));
            }
            touched[s as usize] = true;
        }
        let t0 = crate::telemetry::stopwatch();
        let _span = crate::telemetry::span_n("repair", touched_parts.len() as u64);
        let old_did_region = self.png.did_region().to_vec();
        self.png.repair(view, touched_parts);
        F::repair(
            &mut self.bins,
            view,
            &self.png,
            &old_did_region,
            &touched,
            weights,
        );
        // Repair is (re-)pre-processing: fold it into the reported cost.
        self.preprocess += t0.elapsed();
        Ok(RepairStats {
            partitions_rebuilt: touched_parts.len() as u32,
            partitions_total: k,
        })
    }

    /// One `y = ⊕ Aᵀ·x` round with explicit phase variants.
    ///
    /// `graph` is required when `scatter` is [`ScatterKind::CsrTraversal`]
    /// (the ablation needs the original adjacency); the branchy gather is
    /// implemented only by the wide format.
    pub fn spmv_with(
        &mut self,
        x: &[A::T],
        y: &mut [A::T],
        scatter: ScatterKind,
        gather: GatherKind,
        graph: Option<&Csr>,
    ) -> Result<PhaseTimings, PcpmError> {
        if x.len() != self.num_src as usize {
            return Err(PcpmError::DimensionMismatch {
                expected: self.num_src as usize,
                got: x.len(),
            });
        }
        if y.len() != self.num_dst as usize {
            return Err(PcpmError::DimensionMismatch {
                expected: self.num_dst as usize,
                got: y.len(),
            });
        }
        let t0 = crate::telemetry::stopwatch();
        {
            let _span = crate::telemetry::span("scatter");
            match scatter {
                ScatterKind::Png => F::scatter_into(&self.png, x, &mut self.bins),
                ScatterKind::CsrTraversal => {
                    let g = graph.ok_or(PcpmError::BadConfig(
                        "CsrTraversal scatter requires the original graph",
                    ))?;
                    csr_scatter(
                        EdgeView::from_csr(g),
                        &self.png,
                        x,
                        F::updates_mut(&mut self.bins),
                    );
                }
            }
        }
        let scatter_t = t0.elapsed();
        let t1 = crate::telemetry::stopwatch();
        {
            let _span = crate::telemetry::span("gather");
            match gather {
                GatherKind::BranchAvoiding => gather_algebra::<A>(&self.png, &self.bins, y),
                GatherKind::Branchy => F::gather_branchy_from::<A>(&self.png, &self.bins, y)?,
            }
        }
        let gather_t = t1.elapsed();
        Ok(PhaseTimings {
            scatter: scatter_t,
            gather: gather_t,
            apply: Duration::ZERO,
        })
    }

    /// One batched SpMM round: `ys[j] = ⊕ Aᵀ·xs[j]` for every query in
    /// the batch, scanning the destination-ID stream **once**.
    ///
    /// The scatter writes one node-major update stream for the whole
    /// batch ([`png_scatter_many`]: each compressed edge's `Q` updates
    /// side by side in a row of [`batch_lanes`]`(Q)` slots); the gather
    /// decodes each bin segment once and applies every entry as one
    /// contiguous row-wide combine into a per-partition accumulator
    /// (the shared skeleton of [`crate::gather`]), so the destID bytes — and,
    /// for the delta format, the per-edge varint decode — are amortized
    /// across the batch. A one-query batch runs the solo
    /// [`FormatPipeline::spmv_with`] round instead (the bins' own update
    /// stream, no batch scratch). Per-query output is bit-identical to
    /// `Q` sequential solo rounds. The scatter and gather ablations have
    /// no batched kernel; callers route them through the sequential
    /// path.
    pub fn spmv_many(
        &mut self,
        xs: &[&[A::T]],
        ys: &mut [&mut [A::T]],
    ) -> Result<PhaseTimings, PcpmError> {
        if xs.len() != ys.len() {
            return Err(PcpmError::BadConfig(
                "spmv_many requires one output vector per input vector",
            ));
        }
        for x in xs {
            if x.len() != self.num_src as usize {
                return Err(PcpmError::DimensionMismatch {
                    expected: self.num_src as usize,
                    got: x.len(),
                });
            }
        }
        for y in ys.iter() {
            if y.len() != self.num_dst as usize {
                return Err(PcpmError::DimensionMismatch {
                    expected: self.num_dst as usize,
                    got: y.len(),
                });
            }
        }
        match (xs, &mut *ys) {
            ([], _) => return Ok(PhaseTimings::default()),
            ([x], [y]) => {
                return self.spmv_with(x, y, ScatterKind::Png, GatherKind::BranchAvoiding, None)
            }
            _ => {}
        }
        let lanes = batch_lanes(xs.len());
        let t0 = crate::telemetry::stopwatch();
        let mut upd = vec![A::T::default(); self.png.num_compressed_edges() as usize * lanes];
        {
            let _span = crate::telemetry::span("scatter_many");
            png_scatter_many(&self.png, xs, lanes, &mut upd);
        }
        let scatter_t = t0.elapsed();
        let t1 = crate::telemetry::stopwatch();
        {
            let _span = crate::telemetry::span("gather_many");
            gather_node_major::<A, _>(&self.png, &self.bins, &upd, lanes, ys);
        }
        let gather_t = t1.elapsed();
        Ok(PhaseTimings {
            scatter: scatter_t,
            gather: gather_t,
            apply: Duration::ZERO,
        })
    }
}

/// The runtime-selected pipeline: one [`FormatPipeline`] variant per
/// [`BinFormatKind`], chosen from [`PcpmConfig::bin_format`].
enum AnyPipeline<A: Algebra> {
    Wide(FormatPipeline<A, WideFormat>),
    Compact(FormatPipeline<A, CompactFormat>),
    Delta(FormatPipeline<A, DeltaFormat>),
}

/// Dispatches a method call to whichever format variant is live.
macro_rules! with_pipeline {
    ($self:expr, $p:ident => $body:expr) => {
        match &$self.inner {
            AnyPipeline::Wide($p) => $body,
            AnyPipeline::Compact($p) => $body,
            AnyPipeline::Delta($p) => $body,
        }
    };
}

macro_rules! with_pipeline_mut {
    ($self:expr, $p:ident => $body:expr) => {
        match &mut $self.inner {
            AnyPipeline::Wide($p) => $body,
            AnyPipeline::Compact($p) => $body,
            AnyPipeline::Delta($p) => $body,
        }
    };
}

/// A built PCPM dataplane with the bin format selected at runtime,
/// generic over the gather algebra.
pub struct PcpmPipeline<A: Algebra = PlusF32> {
    inner: AnyPipeline<A>,
}

impl<A: Algebra> PcpmPipeline<A> {
    /// Builds the pipeline for a square graph.
    pub fn new(graph: &Csr, cfg: &PcpmConfig) -> Result<Self, PcpmError> {
        cfg.validate()?;
        Self::from_view(EdgeView::from_csr(graph), cfg, None)
    }

    /// Builds the pipeline for a square graph with per-edge weights
    /// (parallel to the CSR targets array).
    pub fn new_weighted(
        graph: &Csr,
        weights: &pcpm_graph::EdgeWeights,
        cfg: &PcpmConfig,
    ) -> Result<Self, PcpmError> {
        cfg.validate()?;
        Self::from_view(EdgeView::from_csr(graph), cfg, Some(weights.as_slice()))
    }

    /// Builds the pipeline from a raw (possibly rectangular) edge view,
    /// selecting the format from `cfg.bin_format`.
    pub(crate) fn from_view(
        view: EdgeView<'_>,
        cfg: &PcpmConfig,
        weights: Option<&[f32]>,
    ) -> Result<Self, PcpmError> {
        let inner = match cfg.bin_format {
            BinFormatKind::Wide => {
                AnyPipeline::Wide(FormatPipeline::from_view(view, cfg, weights)?)
            }
            BinFormatKind::Compact => {
                AnyPipeline::Compact(FormatPipeline::from_view(view, cfg, weights)?)
            }
            BinFormatKind::Delta => {
                AnyPipeline::Delta(FormatPipeline::from_view(view, cfg, weights)?)
            }
        };
        Ok(Self { inner })
    }

    /// Dissolves into the statically-typed wide pipeline, when the wide
    /// format is live (the memory replays inspect wide bins directly).
    pub fn as_wide(&self) -> Option<&FormatPipeline<A, WideFormat>> {
        match &self.inner {
            AnyPipeline::Wide(p) => Some(p),
            _ => None,
        }
    }

    /// Number of source nodes (length of `x`).
    pub fn num_src(&self) -> u32 {
        with_pipeline!(self, p => p.num_src())
    }

    /// Number of destination nodes (length of `y`).
    pub fn num_dst(&self) -> u32 {
        with_pipeline!(self, p => p.num_dst())
    }

    /// The PNG layout (for inspection and the memory replays).
    pub fn png(&self) -> &Png {
        with_pipeline!(self, p => p.png())
    }

    /// The wide bins, when the pipeline uses the 32-bit encoding.
    pub fn bins(&self) -> Option<&BinSpace<A::T>> {
        self.as_wide().map(|p| p.bins())
    }

    /// Heap bytes held by the message bins (any format).
    pub fn bin_memory_bytes(&self) -> u64 {
        with_pipeline!(self, p => p.bin_memory_bytes())
    }

    /// Destination-ID compression relative to the wide baseline.
    pub fn bin_compression(&self) -> f64 {
        with_pipeline!(self, p => p.bin_compression())
    }

    /// Physical bytes of the destination-ID bin stream.
    pub fn dest_stream_bytes(&self) -> u64 {
        with_pipeline!(self, p => p.dest_stream_bytes())
    }

    /// PNG compression ratio `r = |E| / |E'|`.
    pub fn compression_ratio(&self) -> f64 {
        with_pipeline!(self, p => p.compression_ratio())
    }

    /// Pre-processing wall-clock time (PNG build + bin writing), Table 8.
    pub fn preprocess_time(&self) -> Duration {
        with_pipeline!(self, p => p.preprocess_time())
    }

    /// The physical bin format this pipeline built.
    pub fn bin_format(&self) -> BinFormatKind {
        match &self.inner {
            AnyPipeline::Wide(_) => BinFormatKind::Wide,
            AnyPipeline::Compact(_) => BinFormatKind::Compact,
            AnyPipeline::Delta(_) => BinFormatKind::Delta,
        }
    }

    /// Whether the pipeline built the compact 16-bit bins.
    pub fn is_compact(&self) -> bool {
        self.bin_format() == BinFormatKind::Compact
    }

    /// Whether the pipeline carries per-edge weights in its bins.
    pub fn is_weighted(&self) -> bool {
        with_pipeline!(self, p => p.is_weighted())
    }

    /// Incrementally repairs the prepared state after an edge-set
    /// change — see [`FormatPipeline::repair`].
    pub fn repair(
        &mut self,
        view: EdgeView<'_>,
        weights: Option<&[f32]>,
        touched_parts: &[u32],
    ) -> Result<RepairStats, PcpmError> {
        with_pipeline_mut!(self, p => p.repair(view, weights, touched_parts))
    }

    /// One `y = ⊕ Aᵀ·x` round with the default (paper) scatter and
    /// gather.
    pub fn spmv(&mut self, x: &[A::T], y: &mut [A::T]) -> Result<PhaseTimings, PcpmError> {
        self.spmv_with(x, y, ScatterKind::Png, GatherKind::BranchAvoiding, None)
    }

    /// One round with explicit phase variants — see
    /// [`FormatPipeline::spmv_with`].
    pub fn spmv_with(
        &mut self,
        x: &[A::T],
        y: &mut [A::T],
        scatter: ScatterKind,
        gather: GatherKind,
        graph: Option<&Csr>,
    ) -> Result<PhaseTimings, PcpmError> {
        with_pipeline_mut!(self, p => p.spmv_with(x, y, scatter, gather, graph))
    }

    /// One batched SpMM round — see [`FormatPipeline::spmv_many`].
    pub fn spmv_many(
        &mut self,
        xs: &[&[A::T]],
        ys: &mut [&mut [A::T]],
    ) -> Result<PhaseTimings, PcpmError> {
        with_pipeline_mut!(self, p => p.spmv_many(xs, ys))
    }

    /// Boxes the live variant as a [`Backend`](crate::backend::Backend)
    /// (the rectangular SpMV front end plugs in through this).
    pub(crate) fn into_boxed_backend(self) -> Box<dyn crate::backend::Backend<A>> {
        match self.inner {
            AnyPipeline::Wide(p) => Box::new(crate::backend::PcpmBackend::from_pipeline(p)),
            AnyPipeline::Compact(p) => Box::new(crate::backend::PcpmBackend::from_pipeline(p)),
            AnyPipeline::Delta(p) => Box::new(crate::backend::PcpmBackend::from_pipeline(p)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcpm_graph::gen::{erdos_renyi, rmat, RmatConfig};

    fn reference(g: &Csr, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; g.num_nodes() as usize];
        for (s, t) in g.edges() {
            y[t as usize] += x[s as usize];
        }
        y
    }

    #[test]
    fn engine_spmv_matches_reference() {
        let g = erdos_renyi(300, 2400, 8).unwrap();
        let cfg = PcpmConfig::default().with_partition_bytes(64 * 4); // q = 64
        let mut eng = PcpmPipeline::<PlusF32>::new(&g, &cfg).unwrap();
        let x: Vec<f32> = (0..300).map(|v| (v as f32).sqrt()).collect();
        let mut y = vec![0.0f32; 300];
        eng.spmv(&x, &mut y).unwrap();
        let want = reference(&g, &x);
        for (a, b) in y.iter().zip(&want) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn all_variant_combinations_agree() {
        let g = rmat(&RmatConfig::graph500(8, 6, 77)).unwrap();
        let cfg = PcpmConfig::default().with_partition_bytes(40 * 4);
        let x: Vec<f32> = (0..g.num_nodes()).map(|v| (v % 17) as f32).collect();
        let mut outputs = Vec::new();
        for scatter in [ScatterKind::Png, ScatterKind::CsrTraversal] {
            for gather in [GatherKind::BranchAvoiding, GatherKind::Branchy] {
                let mut eng = PcpmPipeline::<PlusF32>::new(&g, &cfg).unwrap();
                let mut y = vec![0.0f32; g.num_nodes() as usize];
                eng.spmv_with(&x, &mut y, scatter, gather, Some(&g))
                    .unwrap();
                outputs.push(y);
            }
        }
        for other in &outputs[1..] {
            assert_eq!(&outputs[0], other);
        }
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let g = erdos_renyi(10, 30, 1).unwrap();
        let mut eng = PcpmPipeline::<PlusF32>::new(&g, &PcpmConfig::default()).unwrap();
        let mut y = vec![0.0f32; 10];
        assert!(matches!(
            eng.spmv(&[0.0; 3], &mut y),
            Err(PcpmError::DimensionMismatch {
                expected: 10,
                got: 3
            })
        ));
        let x = vec![0.0f32; 10];
        let mut y_bad = vec![0.0f32; 4];
        assert!(eng.spmv(&x, &mut y_bad).is_err());
    }

    #[test]
    fn csr_traversal_without_graph_errors() {
        let g = erdos_renyi(10, 30, 1).unwrap();
        let mut eng = PcpmPipeline::<PlusF32>::new(&g, &PcpmConfig::default()).unwrap();
        let x = vec![0.0f32; 10];
        let mut y = vec![0.0f32; 10];
        assert!(eng
            .spmv_with(
                &x,
                &mut y,
                ScatterKind::CsrTraversal,
                GatherKind::BranchAvoiding,
                None
            )
            .is_err());
    }

    #[test]
    fn repeated_spmv_reuses_bins() {
        let g = erdos_renyi(100, 500, 4).unwrap();
        let mut eng = PcpmPipeline::<PlusF32>::new(&g, &PcpmConfig::default()).unwrap();
        let x: Vec<f32> = vec![1.0; 100];
        let mut y1 = vec![0.0f32; 100];
        let mut y2 = vec![0.0f32; 100];
        eng.spmv(&x, &mut y1).unwrap();
        eng.spmv(&x, &mut y2).unwrap();
        assert_eq!(y1, y2);
    }

    #[test]
    fn compression_ratio_exposed() {
        let g = rmat(&RmatConfig::graph500(8, 8, 5)).unwrap();
        let eng = PcpmPipeline::<PlusF32>::new(&g, &PcpmConfig::default()).unwrap();
        assert!(eng.compression_ratio() >= 1.0);
    }

    #[test]
    fn integer_algebra_pipeline_runs_min_label() {
        use crate::algebra::MinLabel;
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (3, 2)]).unwrap();
        let cfg = PcpmConfig::default().with_partition_bytes(8);
        let mut pipe = PcpmPipeline::<MinLabel>::new(&g, &cfg).unwrap();
        let x: Vec<u32> = vec![0, 1, 2, 3];
        let mut y = vec![u32::MAX; 4];
        pipe.spmv(&x, &mut y).unwrap();
        assert_eq!(y, vec![u32::MAX, 0, 1, u32::MAX]);
    }

    #[test]
    fn every_format_integer_algebra_matches_wide() {
        use crate::algebra::MinLevel;
        let g = rmat(&RmatConfig::graph500(9, 6, 23)).unwrap();
        let wide_cfg = PcpmConfig::default().with_partition_bytes(128 * 4);
        let mut wide = PcpmPipeline::<MinLevel>::new(&g, &wide_cfg).unwrap();
        let x: Vec<u32> = (0..g.num_nodes()).map(|v| v % 11).collect();
        let n = g.num_nodes() as usize;
        let mut yw = vec![0u32; n];
        wide.spmv(&x, &mut yw).unwrap();
        for format in [BinFormatKind::Compact, BinFormatKind::Delta] {
            let cfg = wide_cfg.with_bin_format(format);
            let mut pipe = PcpmPipeline::<MinLevel>::new(&g, &cfg).unwrap();
            let mut y = vec![0u32; n];
            pipe.spmv(&x, &mut y).unwrap();
            assert_eq!(yw, y, "format {format}");
        }
    }

    #[test]
    fn every_format_engine_matches_wide_engine() {
        let g = rmat(&RmatConfig::graph500(9, 8, 41)).unwrap();
        let wide_cfg = PcpmConfig::default().with_partition_bytes(512 * 4);
        let mut wide = PcpmPipeline::<PlusF32>::new(&g, &wide_cfg).unwrap();
        let x: Vec<f32> = (0..g.num_nodes()).map(|v| (v as f32).cos()).collect();
        let mut yw = vec![0.0f32; g.num_nodes() as usize];
        wide.spmv(&x, &mut yw).unwrap();
        assert!(wide.bins().is_some());
        assert!((wide.bin_compression() - 1.0).abs() < 1e-12);
        for format in [BinFormatKind::Compact, BinFormatKind::Delta] {
            let cfg = wide_cfg.with_bin_format(format);
            let mut pipe = PcpmPipeline::<PlusF32>::new(&g, &cfg).unwrap();
            let mut y = vec![0.0f32; g.num_nodes() as usize];
            pipe.spmv(&x, &mut y).unwrap();
            assert_eq!(yw, y, "format {format}");
            // Every non-wide destination stream is smaller.
            assert!(pipe.bin_memory_bytes() < wide.bin_memory_bytes());
            assert!(pipe.bin_compression() > 1.9, "format {format}");
            assert!(pipe.bins().is_none());
            assert_eq!(pipe.bin_format(), format);
        }
    }

    #[test]
    fn non_wide_formats_reject_branchy_gather() {
        let g = erdos_renyi(100, 400, 2).unwrap();
        for format in [BinFormatKind::Compact, BinFormatKind::Delta] {
            let cfg = PcpmConfig::default()
                .with_partition_bytes(256)
                .with_bin_format(format);
            let mut eng = PcpmPipeline::<PlusF32>::new(&g, &cfg).unwrap();
            let x = vec![0.0f32; 100];
            let mut y = vec![0.0f32; 100];
            assert!(
                eng.spmv_with(&x, &mut y, ScatterKind::Png, GatherKind::Branchy, None)
                    .is_err(),
                "format {format}"
            );
        }
    }
}
