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
//! The gather is the shared skeleton of [`crate::gather`]; this module
//! supplies only the 16-bit entry decode. The engine switches when
//! [`crate::PcpmConfig::bin_format`] selects
//! [`BinFormatKind::Compact`](crate::format::BinFormatKind), and
//! [`PcpmConfig::partition_nodes`](crate::PcpmConfig::partition_nodes)
//! then caps partitions at [`MAX_COMPACT_PARTITION`] nodes.

use crate::format::BinScalar;
use crate::gather::{did_segment, unroll4, SegmentEntries};
use crate::png::Png;

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
    /// Heap bytes held by the bins.
    pub fn memory_bytes(&self) -> u64 {
        (self.updates.len() * std::mem::size_of::<T>()
            + self.dest_ids.len() * 2
            + self.weights.as_ref().map_or(0, |w| w.len() * 4)) as u64
    }
}

/// Compact entry decode: the 15-bit payload is already the
/// partition-local offset.
impl<T: BinScalar> SegmentEntries<T> for CompactBinSpace<T> {
    fn updates(&self) -> &[T] {
        &self.updates
    }

    fn weight_stream(&self) -> Option<&[f32]> {
        self.weights.as_deref()
    }

    #[inline(always)]
    fn for_each_entry(
        &self,
        png: &Png,
        s: u32,
        p: usize,
        _scratch: &mut Vec<u64>,
        mut apply: impl FnMut(usize, usize),
    ) {
        let mut up = usize::MAX;
        unroll4(&self.dest_ids[did_segment(png, s, p)], |id| {
            up = up.wrapping_add((id >> 15) as usize);
            apply((id & ID_MASK16) as usize, up);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::PlusF32;
    use crate::bins::BinSpace;
    use crate::format::{BinFormat, CompactFormat, WideFormat};
    use crate::gather::{gather_algebra, gather_branch_avoiding};
    use crate::partition::Partitioner;
    use crate::png::EdgeView;
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
            gather_algebra::<PlusF32>(&png, &compact, &mut yc);
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
        gather_algebra::<PlusF32>(&png, &compact, &mut yc);
        assert_eq!(yw, yc);
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
        gather_algebra::<PlusF32>(&png, &bins, &mut y);
        assert_eq!(y[(MAX_COMPACT_PARTITION - 1) as usize], 5.0);
        assert_eq!(y[(n - 1) as usize], 5.0);
        assert_eq!(y[0], 7.0);
    }
}
