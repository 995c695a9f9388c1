//! Compact 16-bit destination-ID bins (paper §6 future work).
//!
//! The paper's conclusion observes that PCPM "accesses nodes from only
//! one graph partition at a time", so G-Store's smallest-number-of-bits
//! representation can shrink the destination-ID bins: within a gather of
//! partition `p`, a destination is fully identified by its offset inside
//! the partition. With partitions of at most `2^15` nodes, a destination
//! fits in 15 bits plus the MSB demarcation flag — **halving** the
//! destID-bin traffic, the largest single term of PCPM's communication
//! model (`m·di` in Eq. 5).
//!
//! [`CompactBinSpace`] stores exactly that encoding — the
//! [`CompactFormat`](crate::format::CompactFormat) storage of the
//! [`BinFormat`](crate::format::BinFormat) axis; the build/repair logic
//! is the shared fixed-width skeleton in [`crate::format`].
//! [`gather_compact_branch_avoiding`] mirrors Algorithm 4 on it. The
//! batched gather is the shared node-major one of [`crate::gather`]
//! (one accumulator row per destination node, one row-wide combine
//! per entry); this module supplies only the 16-bit entry decode. The
//! engine switches when [`crate::PcpmConfig::bin_format`] selects
//! [`BinFormatKind::Compact`](crate::format::BinFormatKind) and
//! the partition size permits.

use crate::format::{BinFormat, BinScalar, CompactFormat};
use crate::gather::{did_segment, SegmentEntries};
use crate::kernel::{prefetch, KernelKind};
use crate::partition::split_by_lens;
use crate::png::{EdgeView, Png};
use rayon::prelude::*;

/// MSB flag in the 16-bit encoding.
pub const MSB_FLAG16: u16 = 0x8000;

/// Mask extracting the partition-local destination offset.
pub const ID_MASK16: u16 = 0x7FFF;

/// Largest partition size (in nodes) the compact encoding supports.
pub const MAX_COMPACT_PARTITION: u32 = 1 << 15;

/// Message bins with 16-bit partition-local destination IDs.
///
/// Generic over the update scalar `T`, exactly like
/// [`crate::bins::BinSpace`]: PageRank uses `f32`, the algebra layer uses
/// integer labels.
#[derive(Clone, Debug)]
pub struct CompactBinSpace<T = f32> {
    /// Update values, source-partition-major (`|E'|` entries).
    pub updates: Vec<T>,
    /// Partition-local destination offsets with MSB demarcation
    /// (`|E|` entries), written once.
    pub dest_ids: Vec<u16>,
    /// Optional edge weights parallel to [`Self::dest_ids`].
    pub weights: Option<Vec<f32>>,
}

impl<T: BinScalar> CompactBinSpace<T> {
    /// Builds the compact bins; the destination partitioner must satisfy
    /// `partition_size() <= MAX_COMPACT_PARTITION`.
    ///
    /// # Panics
    ///
    /// Panics if the partition size exceeds the 15-bit local ID range
    /// (engine code checks this before choosing the compact path).
    #[deprecated(
        since = "0.3.0",
        note = "construct through the format axis: `CompactFormat::build` \
                (or the engine builder's `.bin_format(BinFormatKind::Compact)`)"
    )]
    pub fn build(view: EdgeView<'_>, png: &Png, edge_weights: Option<&[f32]>) -> Self {
        CompactFormat::build(view, png, edge_weights)
    }

    /// Heap bytes held by the bins.
    pub fn memory_bytes(&self) -> u64 {
        (self.updates.len() * std::mem::size_of::<T>()
            + self.dest_ids.len() * 2
            + self.weights.as_ref().map_or(0, |w| w.len() * 4)) as u64
    }
}

/// Algorithm 4 over compact bins and the `(+, ×)` semiring.
pub fn gather_compact_branch_avoiding(png: &Png, bins: &CompactBinSpace, y: &mut [f32]) {
    gather_compact_algebra::<crate::algebra::PlusF32>(png, bins, y, KernelKind::Scalar);
}

/// Algorithm 4 over compact bins for an arbitrary
/// [`Algebra`](crate::algebra::Algebra): identical pointer arithmetic,
/// local 15-bit destination offsets (no base subtraction needed).
/// [`KernelKind::Unrolled`] applies entries 4-at-a-time in the scalar
/// order (bit-identical output) and prefetches the next segment.
pub fn gather_compact_algebra<A: crate::algebra::Algebra>(
    png: &Png,
    bins: &CompactBinSpace<A::T>,
    y: &mut [A::T],
    kernel: KernelKind,
) {
    assert_eq!(y.len(), png.dst_parts().num_nodes() as usize, "y length");
    let lens = png.dst_parts().lens();
    let slices = split_by_lens(y, &lens);
    let k_src = png.src_parts().num_partitions();
    let unrolled = kernel == KernelKind::Unrolled;
    slices.into_par_iter().enumerate().for_each(|(p, ys)| {
        ys.fill(A::identity());
        for s in 0..k_src {
            let part = png.part(s);
            let ubase = png.upd_region()[s as usize] as usize;
            let dbase = png.did_region()[s as usize] as usize;
            let ulo = ubase + part.upd_off[p] as usize;
            let uhi = ubase + part.upd_off[p + 1] as usize;
            let dlo = dbase + part.did_off[p] as usize;
            let dhi = dbase + part.did_off[p + 1] as usize;
            let us = &bins.updates[ulo..uhi];
            let ds = &bins.dest_ids[dlo..dhi];
            if unrolled && s + 1 < k_src {
                let np = png.part(s + 1);
                let nb = png.did_region()[s as usize + 1] as usize;
                prefetch(&bins.dest_ids[nb + np.did_off[p] as usize..]);
            }
            match &bins.weights {
                None if unrolled => {
                    let mut up = usize::MAX;
                    macro_rules! step {
                        ($id:expr) => {{
                            let id = $id;
                            up = up.wrapping_add((id >> 15) as usize);
                            let slot = &mut ys[(id & ID_MASK16) as usize];
                            *slot = A::combine(*slot, A::extend(us[up]));
                        }};
                    }
                    let mut chunks = ds.chunks_exact(4);
                    for c in &mut chunks {
                        step!(c[0]);
                        step!(c[1]);
                        step!(c[2]);
                        step!(c[3]);
                    }
                    for &id in chunks.remainder() {
                        step!(id);
                    }
                }
                None => {
                    let mut up = usize::MAX;
                    for &id in ds {
                        up = up.wrapping_add((id >> 15) as usize);
                        let slot = &mut ys[(id & ID_MASK16) as usize];
                        *slot = A::combine(*slot, A::extend(us[up]));
                    }
                }
                Some(w) if unrolled => {
                    let ws = &w[dlo..dhi];
                    let mut up = usize::MAX;
                    macro_rules! step {
                        ($id:expr, $wt:expr) => {{
                            let id = $id;
                            up = up.wrapping_add((id >> 15) as usize);
                            let slot = &mut ys[(id & ID_MASK16) as usize];
                            *slot = A::combine(*slot, A::extend_weighted($wt, us[up]));
                        }};
                    }
                    let mut dc = ds.chunks_exact(4);
                    let mut wc = ws.chunks_exact(4);
                    for (c, cw) in (&mut dc).zip(&mut wc) {
                        step!(c[0], cw[0]);
                        step!(c[1], cw[1]);
                        step!(c[2], cw[2]);
                        step!(c[3], cw[3]);
                    }
                    for (&id, &wt) in dc.remainder().iter().zip(wc.remainder()) {
                        step!(id, wt);
                    }
                }
                Some(w) => {
                    let ws = &w[dlo..dhi];
                    let mut up = usize::MAX;
                    for (&id, &wt) in ds.iter().zip(ws) {
                        up = up.wrapping_add((id >> 15) as usize);
                        let slot = &mut ys[(id & ID_MASK16) as usize];
                        *slot = A::combine(*slot, A::extend_weighted(wt, us[up]));
                    }
                }
            }
        }
    });
}

/// Compact entry decode for the node-major batched gather: the 15-bit
/// payload is already the partition-local offset.
impl<T: BinScalar> SegmentEntries for CompactBinSpace<T> {
    fn weight_stream(&self) -> Option<&[f32]> {
        self.weights.as_deref()
    }

    fn prefetch_segment(&self, png: &Png, s: u32, p: usize) {
        prefetch(&self.dest_ids[did_segment(png, s, p)]);
    }

    #[inline(always)]
    fn for_each_entry(
        &self,
        png: &Png,
        s: u32,
        p: usize,
        _kernel: KernelKind,
        _scratch: &mut Vec<u64>,
        mut apply: impl FnMut(usize, usize),
    ) {
        let mut up = usize::MAX;
        for &id in &self.dest_ids[did_segment(png, s, p)] {
            up = up.wrapping_add((id >> 15) as usize);
            apply((id & ID_MASK16) as usize, up);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bins::BinSpace;
    use crate::format::WideFormat;
    use crate::gather::gather_branch_avoiding;
    use crate::partition::Partitioner;
    use crate::scatter::png_scatter;
    use pcpm_graph::gen::{erdos_renyi, rmat, RmatConfig};
    use pcpm_graph::{Csr, EdgeWeights};

    fn setup(g: &Csr, q: u32) -> Png {
        let parts = Partitioner::new(g.num_nodes(), q).unwrap();
        Png::build(EdgeView::from_csr(g), parts, parts)
    }

    fn build_wide(g: &Csr, png: &Png, w: Option<&[f32]>) -> BinSpace {
        WideFormat::build(EdgeView::from_csr(g), png, w)
    }

    fn build_compact(g: &Csr, png: &Png, w: Option<&[f32]>) -> CompactBinSpace {
        CompactFormat::build(EdgeView::from_csr(g), png, w)
    }

    #[test]
    fn compact_gather_equals_wide_gather() {
        let g = rmat(&RmatConfig::graph500(9, 8, 61)).unwrap();
        for q in [16u32, 100, 512] {
            let png = setup(&g, q);
            let x: Vec<f32> = (0..g.num_nodes()).map(|v| (v as f32).sin()).collect();
            let mut wide = build_wide(&g, &png, None);
            let mut compact = build_compact(&g, &png, None);
            png_scatter(&png, &x, &mut wide.updates);
            png_scatter(&png, &x, &mut compact.updates);
            let mut yw = vec![0.0f32; g.num_nodes() as usize];
            let mut yc = vec![0.0f32; g.num_nodes() as usize];
            gather_branch_avoiding(&png, &wide, &mut yw);
            gather_compact_branch_avoiding(&png, &compact, &mut yc);
            assert_eq!(yw, yc, "q={q}");
        }
    }

    #[test]
    fn compact_weighted_gather_equals_wide() {
        let g = erdos_renyi(200, 1500, 3).unwrap();
        let w = EdgeWeights::random(&g, 8);
        let png = setup(&g, 64);
        let x: Vec<f32> = (0..200).map(|v| v as f32 * 0.25).collect();
        let mut wide = build_wide(&g, &png, Some(w.as_slice()));
        let mut compact = build_compact(&g, &png, Some(w.as_slice()));
        png_scatter(&png, &x, &mut wide.updates);
        png_scatter(&png, &x, &mut compact.updates);
        let mut yw = vec![0.0f32; 200];
        let mut yc = vec![0.0f32; 200];
        gather_branch_avoiding(&png, &wide, &mut yw);
        gather_compact_branch_avoiding(&png, &compact, &mut yc);
        assert_eq!(yw, yc);
    }

    #[test]
    fn unrolled_kernel_bit_identical_to_scalar() {
        let g = rmat(&RmatConfig::graph500(9, 8, 61)).unwrap();
        let w = EdgeWeights::random(&g, 8);
        for weights in [None, Some(w.as_slice())] {
            let png = setup(&g, 100);
            let x: Vec<f32> = (0..g.num_nodes()).map(|v| (v as f32).sin()).collect();
            let mut bins = build_compact(&g, &png, weights);
            png_scatter(&png, &x, &mut bins.updates);
            let n = g.num_nodes() as usize;
            let (mut ys, mut yu) = (vec![0.0f32; n], vec![0.0f32; n]);
            gather_compact_algebra::<crate::algebra::PlusF32>(
                &png,
                &bins,
                &mut ys,
                KernelKind::Scalar,
            );
            gather_compact_algebra::<crate::algebra::PlusF32>(
                &png,
                &bins,
                &mut yu,
                KernelKind::Unrolled,
            );
            assert_eq!(ys, yu, "weighted={}", weights.is_some());
        }
    }

    #[test]
    fn memory_footprint_is_halved_on_dest_ids() {
        let g = erdos_renyi(500, 5000, 5).unwrap();
        let png = setup(&g, 128);
        let wide = build_wide(&g, &png, None);
        let compact = build_compact(&g, &png, None);
        let dest_wide = wide.dest_ids.len() * 4;
        let dest_compact = compact.dest_ids.len() * 2;
        assert_eq!(dest_compact * 2, dest_wide);
        assert!(compact.memory_bytes() < wide.memory_bytes());
    }

    #[test]
    #[should_panic(expected = "15-bit compact range")]
    fn oversized_partition_rejected() {
        let n = 70_000u32;
        let g = Csr::from_edges(n, &[(0, 1), (0, 65_000)]).unwrap();
        let png = setup(&g, n); // one partition of 70 K nodes > 2^15
        let _ = build_compact(&g, &png, None);
    }

    #[test]
    fn max_boundary_partition_size_works() {
        // Exactly 2^15-node partitions: local offsets use all 15 bits.
        let n = MAX_COMPACT_PARTITION * 2;
        let edges = [(0u32, MAX_COMPACT_PARTITION - 1), (0, n - 1), (1, 0)];
        let g = Csr::from_edges(n, &edges).unwrap();
        let png = setup(&g, MAX_COMPACT_PARTITION);
        let mut bins = build_compact(&g, &png, None);
        let mut x = vec![0.0f32; n as usize];
        x[0] = 5.0;
        x[1] = 7.0;
        png_scatter(&png, &x, &mut bins.updates);
        let mut y = vec![0.0f32; n as usize];
        gather_compact_branch_avoiding(&png, &bins, &mut y);
        assert_eq!(y[(MAX_COMPACT_PARTITION - 1) as usize], 5.0);
        assert_eq!(y[(n - 1) as usize], 5.0);
        assert_eq!(y[0], 7.0);
    }
}
