//! The `BinFormat` axis: one dataplane interface, N physical bin
//! encodings.
//!
//! PR 1 unified *execution* behind the [`Backend`](crate::backend::Backend)
//! trait; this module does the same for the PCPM *storage layer*. The
//! paper's message bins admit several physical destination-ID encodings —
//! wide 32-bit global IDs (§3.2), compact 16-bit partition-local IDs (§6)
//! and the delta-varint stream of [`DeltaPackedBins`](crate::delta) — all
//! sharing the same update-stream layout and the same build/repair
//! skeleton. A [`BinFormat`] captures exactly the variation points:
//!
//! - how one PNG message run is **encoded** into the destination stream
//!   ([`BinFormat::build`] / [`BinFormat::repair`]),
//! - how the gather **decodes** it back (the per-segment entry decode
//!   every `Bins` type supplies to the one gather skeleton of
//!   [`crate::gather`], or entry-by-entry through a [`DestCursor`]),
//! - how much auxiliary memory the encoding costs
//!   ([`BinFormat::aux_memory_bytes`], [`BinFormat::dest_stream_bytes`]).
//!
//! The scatter phase is format-independent (updates are laid out
//! identically for every format), so [`BinFormat::scatter_into`] defaults
//! to the shared PNG scatter.
//!
//! The runtime selector is [`BinFormatKind`]
//! ([`PcpmConfig::bin_format`](crate::PcpmConfig::bin_format), the CLI's
//! `--format` flag); the statically-typed entry points are the three
//! marker types [`WideFormat`], [`CompactFormat`] and [`DeltaFormat`].

use crate::algebra::Algebra;
use crate::bins::BinSpace;
use crate::compact::CompactBinSpace;
use crate::delta::DeltaPackedBins;
use crate::error::PcpmError;
use crate::gather::SegmentEntries;
use crate::partition::split_by_lens;
use crate::png::{for_each_run, EdgeView, Png};
use rayon::prelude::*;

/// Scalars that may flow through the update bins: every
/// [`Algebra::T`](crate::algebra::Algebra) satisfies this.
pub trait BinScalar: Copy + Default + Send + Sync + std::fmt::Debug + 'static {}
impl<T: Copy + Default + Send + Sync + std::fmt::Debug + 'static> BinScalar for T {}

/// Runtime selector for the physical bin encoding.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BinFormatKind {
    /// 32-bit global destination IDs with MSB demarcation (the paper's
    /// §3.2 layout; no partition-size restriction).
    #[default]
    Wide,
    /// 16-bit partition-local destination IDs (§6 / G-Store); requires
    /// partitions of at most 2^15 nodes and halves the destID traffic.
    Compact,
    /// Per-partition delta-encoded varints (PNG-style compressed IDs);
    /// no partition-size restriction, typically 1–2 bytes per edge.
    Delta,
}

impl BinFormatKind {
    /// All formats, for sweep tests and benches.
    pub const ALL: [BinFormatKind; 3] = [
        BinFormatKind::Wide,
        BinFormatKind::Compact,
        BinFormatKind::Delta,
    ];

    /// The format name as reported in metrics and accepted by `--format`.
    pub fn name(self) -> &'static str {
        match self {
            BinFormatKind::Wide => "wide",
            BinFormatKind::Compact => "compact",
            BinFormatKind::Delta => "delta",
        }
    }
}

impl std::fmt::Display for BinFormatKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for BinFormatKind {
    type Err = PcpmError;

    fn from_str(s: &str) -> Result<Self, PcpmError> {
        match s {
            "wide" => Ok(BinFormatKind::Wide),
            "compact" => Ok(BinFormatKind::Compact),
            "delta" => Ok(BinFormatKind::Delta),
            _ => Err(PcpmError::BadConfig(
                "unknown bin format (expected wide|compact|delta)",
            )),
        }
    }
}

/// Streaming decoder over one `(source partition, destination partition)`
/// destination-ID segment: yields each raw edge's destination in bin
/// order, flagging the first entry of every message.
///
/// Every format can decode itself through this interface (the format
/// round-trip tests and debugging helpers use it); the gather uses each
/// format's batched segment decode, which yields the identical entry
/// sequence.
pub trait DestCursor {
    /// The next `(global destination ID, starts_new_message)` entry, or
    /// `None` at the end of the segment.
    fn next_entry(&mut self) -> Option<(u32, bool)>;
}

/// A physical bin encoding: storage type, build/repair, scatter/gather
/// and memory accounting.
///
/// Implementations are zero-sized marker types ([`WideFormat`],
/// [`CompactFormat`], [`DeltaFormat`]); the engine picks one statically
/// (`PcpmBackend<A, F>`) or dispatches at runtime from
/// [`BinFormatKind`].
pub trait BinFormat: Send + Sync + 'static {
    /// The bin storage built over a PNG, generic over the update scalar.
    /// Its segment decode is all the gather skeleton of
    /// [`crate::gather`] needs from a format
    /// ([`gather_algebra`](crate::gather::gather_algebra) runs on any of
    /// them).
    type Bins<T: BinScalar>: Send + Sync + Clone + std::fmt::Debug + SegmentEntries<T>;

    /// The segment decoder (see [`DestCursor`]).
    type Cursor<'a>: DestCursor;

    /// The runtime tag of this format.
    const KIND: BinFormatKind;

    /// Rejects PNG layouts this format cannot encode (e.g. compact's
    /// 15-bit partition-size limit). Checked when an engine adopts a
    /// snapshot-loaded layout; a cold build gets a valid one from
    /// [`PcpmConfig::partition_nodes`](crate::PcpmConfig::partition_nodes).
    fn validate_layout(png: &Png) -> Result<(), PcpmError> {
        let _ = png;
        Ok(())
    }

    /// Allocates the bins and writes the destination-ID (and weight)
    /// streams for `png`, in parallel over source partitions.
    fn build<T: BinScalar>(view: EdgeView<'_>, png: &Png, weights: Option<&[f32]>)
        -> Self::Bins<T>;

    /// Incrementally rebuilds the bins after a [`Png::repair`]: touched
    /// source partitions are re-encoded from `view`, untouched segments
    /// are block-copied. `png` must already be repaired;
    /// `old_did_region` is the raw-edge region prefix *before* the
    /// repair; `touched` is a per-source-partition mask.
    fn repair<T: BinScalar>(
        bins: &mut Self::Bins<T>,
        view: EdgeView<'_>,
        png: &Png,
        old_did_region: &[u64],
        touched: &[bool],
        weights: Option<&[f32]>,
    );

    /// One scatter round: writes `x` into the update stream. The update
    /// layout is format-independent, so this defaults to the shared PNG
    /// scatter (Algorithm 3).
    fn scatter_into<T: BinScalar>(png: &Png, x: &[T], bins: &mut Self::Bins<T>) {
        crate::scatter::png_scatter(png, x, Self::updates_mut(bins));
    }

    /// The branchy-gather ablation (Algorithm 2). Only the wide format
    /// implements it; everything else reports a config error.
    fn gather_branchy_from<A: Algebra>(
        png: &Png,
        bins: &Self::Bins<A::T>,
        y: &mut [A::T],
    ) -> Result<(), PcpmError> {
        let _ = (png, bins, y);
        Err(PcpmError::BadConfig(
            "the branchy gather ablation requires the wide bin format",
        ))
    }

    /// Mutable access to the update stream (the CSR-traversal scatter
    /// ablation writes it directly).
    fn updates_mut<T: BinScalar>(bins: &mut Self::Bins<T>) -> &mut [T];

    /// Heap bytes held by the bins (updates + destination stream +
    /// offsets + weights).
    fn aux_memory_bytes<T: BinScalar>(bins: &Self::Bins<T>) -> u64;

    /// Bytes of the destination-ID stream alone (the term the encodings
    /// compete on; the wide format spends `4·|E|`).
    fn dest_stream_bytes<T: BinScalar>(bins: &Self::Bins<T>) -> u64;

    /// A [`DestCursor`] over segment `(s, p)`.
    fn cursor<'a, T: BinScalar>(
        bins: &'a Self::Bins<T>,
        png: &Png,
        s: u32,
        p: u32,
    ) -> Self::Cursor<'a>;

    /// Clones the serializable part of the bins (destination stream +
    /// optional weight stream) for the engine-snapshot writer; the
    /// update stream is scratch and excluded.
    fn export_state<T: BinScalar>(bins: &Self::Bins<T>) -> crate::snapshot::BinState;
}

/// Destination-ID compression relative to the wide baseline
/// (`4·|E| / dest_stream_bytes`); 1.0 for an edgeless graph.
pub fn dest_compression(raw_edges: u64, dest_bytes: u64) -> f64 {
    if dest_bytes == 0 {
        1.0
    } else {
        (raw_edges * 4) as f64 / dest_bytes as f64
    }
}

// ---------------------------------------------------------------------------
// Shared fixed-width build/repair skeleton (wide + compact)
// ---------------------------------------------------------------------------

/// A fixed-width destination encoding: one storage unit per raw edge.
/// Captures the only difference between the wide and compact dataplanes'
/// build/repair code — everything else (region splitting, parallel fill,
/// block-copy repair, weight streams) is the shared skeleton below.
pub(crate) trait FixedDestEncode: Send + Sync + 'static {
    /// Storage unit (`u32` wide, `u16` compact).
    type Unit: Copy + Default + Send + Sync;

    /// Encodes one message run (`out.len() == run.len()`, first entry
    /// carries the demarcation flag). `p_base` is the destination
    /// partition's first node ID.
    fn encode_run(out: &mut [Self::Unit], run: &[u32], p_base: u32);
}

pub(crate) struct WideEncode;

impl FixedDestEncode for WideEncode {
    type Unit = u32;

    #[inline]
    fn encode_run(out: &mut [u32], run: &[u32], _p_base: u32) {
        out[0] = run[0] | crate::MSB_FLAG;
        out[1..].copy_from_slice(&run[1..]);
    }
}

pub(crate) struct CompactEncode;

impl FixedDestEncode for CompactEncode {
    type Unit = u16;

    #[inline]
    fn encode_run(out: &mut [u16], run: &[u32], p_base: u32) {
        out[0] = (run[0] - p_base) as u16 | crate::compact::MSB_FLAG16;
        for (slot, &t) in out[1..].iter_mut().zip(&run[1..]) {
            *slot = (t - p_base) as u16;
        }
    }
}

/// Writes the destination segments (and, when weighted, the weight
/// segments — one combined scan) of source partition `s` into its
/// region through `E`.
fn fill_fixed_partition<E: FixedDestEncode>(
    view: EdgeView<'_>,
    png: &Png,
    s: u32,
    region: &mut [E::Unit],
    weights: Option<(&mut [f32], &[f32])>,
) {
    let q = png.dst_parts().partition_size();
    let part = png.part(s);
    // Per-destination-partition write cursors, local to this region.
    let mut cursor: Vec<u64> = part.did_off[..part.did_off.len() - 1].to_vec();
    let mut wsplit = weights;
    for_each_run(
        view,
        png.src_parts(),
        png.dst_parts(),
        s,
        |_v, p, run, base| {
            let c = cursor[p as usize] as usize;
            E::encode_run(&mut region[c..c + run.len()], run, p * q);
            if let Some((wregion, ew)) = wsplit.as_mut() {
                wregion[c..c + run.len()]
                    .copy_from_slice(&ew[base as usize..base as usize + run.len()]);
            }
            cursor[p as usize] += run.len() as u64;
        },
    );
}

/// The shared fixed-width build: allocate, split, fill in parallel.
/// Returns `(updates, dest_stream, weights)`.
pub(crate) fn build_fixed<E: FixedDestEncode, T: BinScalar>(
    view: EdgeView<'_>,
    png: &Png,
    edge_weights: Option<&[f32]>,
) -> (Vec<T>, Vec<E::Unit>, Option<Vec<f32>>) {
    let updates = vec![T::default(); png.num_compressed_edges() as usize];
    let mut dest = vec![E::Unit::default(); png.num_raw_edges() as usize];
    let mut weights = edge_weights.map(|_| vec![0.0f32; png.num_raw_edges() as usize]);
    let did_lens = png.did_region_lens();
    let regions = split_by_lens(&mut dest, &did_lens);
    match (&mut weights, edge_weights) {
        (Some(w), Some(ew)) => {
            let wregions = split_by_lens(w, &did_lens);
            regions
                .into_par_iter()
                .zip(wregions)
                .enumerate()
                .for_each(|(s, (region, wregion))| {
                    fill_fixed_partition::<E>(view, png, s as u32, region, Some((wregion, ew)));
                });
        }
        _ => {
            regions.into_par_iter().enumerate().for_each(|(s, region)| {
                fill_fixed_partition::<E>(view, png, s as u32, region, None);
            });
        }
    }
    (updates, dest, weights)
}

/// The shared fixed-width repair: touched partitions are re-encoded,
/// untouched segments block-copied from `old_dest` / `old_weights` at
/// their pre-repair offsets.
pub(crate) fn repair_fixed<E: FixedDestEncode, T: BinScalar>(
    old_dest: &[E::Unit],
    old_weights: Option<&[f32]>,
    view: EdgeView<'_>,
    png: &Png,
    old_did_region: &[u64],
    touched: &[bool],
    edge_weights: Option<&[f32]>,
) -> (Vec<T>, Vec<E::Unit>, Option<Vec<f32>>) {
    let updates = vec![T::default(); png.num_compressed_edges() as usize];
    let mut dest = vec![E::Unit::default(); png.num_raw_edges() as usize];
    let mut weights = edge_weights.map(|_| vec![0.0f32; png.num_raw_edges() as usize]);
    let did_lens = png.did_region_lens();
    let regions = split_by_lens(&mut dest, &did_lens);
    match (&mut weights, edge_weights) {
        (Some(w), Some(ew)) => {
            let old_w = old_weights.expect("weighted bins keep weights");
            let wregions = split_by_lens(w, &did_lens);
            regions
                .into_par_iter()
                .zip(wregions)
                .enumerate()
                .for_each(|(s, (region, wregion))| {
                    if touched[s] {
                        fill_fixed_partition::<E>(view, png, s as u32, region, Some((wregion, ew)));
                    } else {
                        let lo = old_did_region[s] as usize;
                        region.copy_from_slice(&old_dest[lo..lo + region.len()]);
                        wregion.copy_from_slice(&old_w[lo..lo + wregion.len()]);
                    }
                });
        }
        _ => {
            regions.into_par_iter().enumerate().for_each(|(s, region)| {
                if touched[s] {
                    fill_fixed_partition::<E>(view, png, s as u32, region, None);
                } else {
                    let lo = old_did_region[s] as usize;
                    region.copy_from_slice(&old_dest[lo..lo + region.len()]);
                }
            });
        }
    }
    (updates, dest, weights)
}

/// Writes the per-edge weight stream in raw-edge bin order (the layout
/// the wide format's destination IDs use; every format stores weights
/// this way, so the gather can zip weights with decoded entries). The
/// fixed-width formats fill weights inline with the destination scan;
/// these helpers serve formats with their own dest geometry (delta).
pub(crate) fn build_weight_stream(view: EdgeView<'_>, png: &Png, ew: &[f32]) -> Vec<f32> {
    let mut w = vec![0.0f32; png.num_raw_edges() as usize];
    let did_lens = png.did_region_lens();
    let regions = split_by_lens(&mut w, &did_lens);
    regions.into_par_iter().enumerate().for_each(|(s, region)| {
        fill_weight_partition(view, png, s as u32, region, ew);
    });
    w
}

/// The weight-stream analogue of the fixed repair.
pub(crate) fn repair_weight_stream(
    old: &[f32],
    view: EdgeView<'_>,
    png: &Png,
    old_did_region: &[u64],
    touched: &[bool],
    ew: &[f32],
) -> Vec<f32> {
    let mut w = vec![0.0f32; png.num_raw_edges() as usize];
    let did_lens = png.did_region_lens();
    let regions = split_by_lens(&mut w, &did_lens);
    regions.into_par_iter().enumerate().for_each(|(s, region)| {
        if touched[s] {
            fill_weight_partition(view, png, s as u32, region, ew);
        } else {
            let lo = old_did_region[s] as usize;
            region.copy_from_slice(&old[lo..lo + region.len()]);
        }
    });
    w
}

fn fill_weight_partition(view: EdgeView<'_>, png: &Png, s: u32, region: &mut [f32], ew: &[f32]) {
    let part = png.part(s);
    let mut cursor: Vec<u64> = part.did_off[..part.did_off.len() - 1].to_vec();
    for_each_run(
        view,
        png.src_parts(),
        png.dst_parts(),
        s,
        |_v, p, run, base| {
            let c = cursor[p as usize] as usize;
            region[c..c + run.len()].copy_from_slice(&ew[base as usize..base as usize + run.len()]);
            cursor[p as usize] += run.len() as u64;
        },
    );
}

// ---------------------------------------------------------------------------
// The three formats
// ---------------------------------------------------------------------------

/// 32-bit global destination IDs (the paper's §3.2 layout).
pub struct WideFormat;

/// Cursor over a wide segment.
pub struct WideCursor<'a> {
    ids: std::slice::Iter<'a, u32>,
}

impl DestCursor for WideCursor<'_> {
    #[inline]
    fn next_entry(&mut self) -> Option<(u32, bool)> {
        self.ids
            .next()
            .map(|&id| (id & crate::ID_MASK, id & crate::MSB_FLAG != 0))
    }
}

impl BinFormat for WideFormat {
    type Bins<T: BinScalar> = BinSpace<T>;
    type Cursor<'a> = WideCursor<'a>;

    const KIND: BinFormatKind = BinFormatKind::Wide;

    fn build<T: BinScalar>(view: EdgeView<'_>, png: &Png, weights: Option<&[f32]>) -> BinSpace<T> {
        let (updates, dest_ids, weights) = build_fixed::<WideEncode, T>(view, png, weights);
        BinSpace {
            updates,
            dest_ids,
            weights,
        }
    }

    fn repair<T: BinScalar>(
        bins: &mut BinSpace<T>,
        view: EdgeView<'_>,
        png: &Png,
        old_did_region: &[u64],
        touched: &[bool],
        weights: Option<&[f32]>,
    ) {
        let (updates, dest_ids, new_weights) = repair_fixed::<WideEncode, T>(
            &bins.dest_ids,
            bins.weights.as_deref(),
            view,
            png,
            old_did_region,
            touched,
            weights,
        );
        bins.updates = updates;
        bins.dest_ids = dest_ids;
        bins.weights = new_weights;
    }

    fn gather_branchy_from<A: Algebra>(
        png: &Png,
        bins: &BinSpace<A::T>,
        y: &mut [A::T],
    ) -> Result<(), PcpmError> {
        crate::gather::gather_algebra_branchy::<A>(png, bins, y);
        Ok(())
    }

    fn updates_mut<T: BinScalar>(bins: &mut BinSpace<T>) -> &mut [T] {
        &mut bins.updates
    }

    fn aux_memory_bytes<T: BinScalar>(bins: &BinSpace<T>) -> u64 {
        bins.memory_bytes()
    }

    fn dest_stream_bytes<T: BinScalar>(bins: &BinSpace<T>) -> u64 {
        bins.dest_ids.len() as u64 * 4
    }

    fn cursor<'a, T: BinScalar>(
        bins: &'a BinSpace<T>,
        png: &Png,
        s: u32,
        p: u32,
    ) -> WideCursor<'a> {
        let part = png.part(s);
        let base = png.did_region()[s as usize];
        let lo = (base + part.did_off[p as usize]) as usize;
        let hi = (base + part.did_off[p as usize + 1]) as usize;
        WideCursor {
            ids: bins.dest_ids[lo..hi].iter(),
        }
    }

    fn export_state<T: BinScalar>(bins: &BinSpace<T>) -> crate::snapshot::BinState {
        crate::snapshot::BinState::wide(bins.dest_ids.clone(), bins.weights.clone())
    }
}

/// 16-bit partition-local destination IDs (§6 future work).
pub struct CompactFormat;

/// Cursor over a compact segment.
pub struct CompactCursor<'a> {
    ids: std::slice::Iter<'a, u16>,
    p_base: u32,
}

impl DestCursor for CompactCursor<'_> {
    #[inline]
    fn next_entry(&mut self) -> Option<(u32, bool)> {
        self.ids.next().map(|&id| {
            (
                self.p_base + u32::from(id & crate::compact::ID_MASK16),
                id & crate::compact::MSB_FLAG16 != 0,
            )
        })
    }
}

impl BinFormat for CompactFormat {
    type Bins<T: BinScalar> = CompactBinSpace<T>;
    type Cursor<'a> = CompactCursor<'a>;

    const KIND: BinFormatKind = BinFormatKind::Compact;

    fn validate_layout(png: &Png) -> Result<(), PcpmError> {
        if png.dst_parts().partition_size() > crate::compact::MAX_COMPACT_PARTITION {
            return Err(PcpmError::BadConfig(
                "compact bins require partitions of at most 2^15 nodes (128 KB of values)",
            ));
        }
        Ok(())
    }

    fn build<T: BinScalar>(
        view: EdgeView<'_>,
        png: &Png,
        weights: Option<&[f32]>,
    ) -> CompactBinSpace<T> {
        let q = png.dst_parts().partition_size();
        assert!(
            q <= crate::compact::MAX_COMPACT_PARTITION,
            "partition size {q} exceeds the 15-bit compact range"
        );
        let (updates, dest_ids, weights) = build_fixed::<CompactEncode, T>(view, png, weights);
        CompactBinSpace {
            updates,
            dest_ids,
            weights,
        }
    }

    fn repair<T: BinScalar>(
        bins: &mut CompactBinSpace<T>,
        view: EdgeView<'_>,
        png: &Png,
        old_did_region: &[u64],
        touched: &[bool],
        weights: Option<&[f32]>,
    ) {
        let (updates, dest_ids, new_weights) = repair_fixed::<CompactEncode, T>(
            &bins.dest_ids,
            bins.weights.as_deref(),
            view,
            png,
            old_did_region,
            touched,
            weights,
        );
        bins.updates = updates;
        bins.dest_ids = dest_ids;
        bins.weights = new_weights;
    }

    fn updates_mut<T: BinScalar>(bins: &mut CompactBinSpace<T>) -> &mut [T] {
        &mut bins.updates
    }

    fn aux_memory_bytes<T: BinScalar>(bins: &CompactBinSpace<T>) -> u64 {
        bins.memory_bytes()
    }

    fn dest_stream_bytes<T: BinScalar>(bins: &CompactBinSpace<T>) -> u64 {
        bins.dest_ids.len() as u64 * 2
    }

    fn cursor<'a, T: BinScalar>(
        bins: &'a CompactBinSpace<T>,
        png: &Png,
        s: u32,
        p: u32,
    ) -> CompactCursor<'a> {
        let part = png.part(s);
        let base = png.did_region()[s as usize];
        let lo = (base + part.did_off[p as usize]) as usize;
        let hi = (base + part.did_off[p as usize + 1]) as usize;
        CompactCursor {
            ids: bins.dest_ids[lo..hi].iter(),
            p_base: p * png.dst_parts().partition_size(),
        }
    }

    fn export_state<T: BinScalar>(bins: &CompactBinSpace<T>) -> crate::snapshot::BinState {
        crate::snapshot::BinState::compact(bins.dest_ids.clone(), bins.weights.clone())
    }
}

/// Delta-encoded varint destination IDs (see [`crate::delta`]).
pub struct DeltaFormat;

impl BinFormat for DeltaFormat {
    type Bins<T: BinScalar> = DeltaPackedBins<T>;
    type Cursor<'a> = crate::delta::DeltaCursor<'a>;

    const KIND: BinFormatKind = BinFormatKind::Delta;

    fn build<T: BinScalar>(
        view: EdgeView<'_>,
        png: &Png,
        weights: Option<&[f32]>,
    ) -> DeltaPackedBins<T> {
        DeltaPackedBins::build(view, png, weights)
    }

    fn repair<T: BinScalar>(
        bins: &mut DeltaPackedBins<T>,
        view: EdgeView<'_>,
        png: &Png,
        old_did_region: &[u64],
        touched: &[bool],
        weights: Option<&[f32]>,
    ) {
        bins.repair(view, png, old_did_region, touched, weights);
    }

    fn updates_mut<T: BinScalar>(bins: &mut DeltaPackedBins<T>) -> &mut [T] {
        &mut bins.updates
    }

    fn aux_memory_bytes<T: BinScalar>(bins: &DeltaPackedBins<T>) -> u64 {
        bins.memory_bytes()
    }

    fn dest_stream_bytes<T: BinScalar>(bins: &DeltaPackedBins<T>) -> u64 {
        bins.dest_stream_bytes()
    }

    fn cursor<'a, T: BinScalar>(
        bins: &'a DeltaPackedBins<T>,
        png: &Png,
        s: u32,
        p: u32,
    ) -> crate::delta::DeltaCursor<'a> {
        bins.cursor(png, s, p)
    }

    fn export_state<T: BinScalar>(bins: &DeltaPackedBins<T>) -> crate::snapshot::BinState {
        bins.export_state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partitioner;
    use pcpm_graph::gen::{erdos_renyi, rmat, RmatConfig};
    use pcpm_graph::Csr;

    fn build_png(g: &Csr, q: u32) -> Png {
        let parts = Partitioner::new(g.num_nodes(), q).unwrap();
        Png::build(EdgeView::from_csr(g), parts, parts)
    }

    /// Decodes every `(s, p)` segment of `F` into message lists through
    /// the cursor interface.
    fn decode_all<F: BinFormat>(png: &Png, bins: &F::Bins<f32>) -> Vec<Vec<Vec<u32>>> {
        let mut all = Vec::new();
        for s in png.src_parts().iter() {
            for p in png.dst_parts().iter() {
                let mut cur = F::cursor(bins, png, s, p);
                let mut msgs: Vec<Vec<u32>> = Vec::new();
                while let Some((dst, first)) = cur.next_entry() {
                    if first {
                        msgs.push(vec![dst]);
                    } else {
                        msgs.last_mut().expect("first entry flagged").push(dst);
                    }
                }
                all.push(msgs);
            }
        }
        all
    }

    #[test]
    fn every_format_decodes_the_same_messages() {
        let g = rmat(&RmatConfig::graph500(9, 8, 61)).unwrap();
        for q in [16u32, 100, 512] {
            let png = build_png(&g, q);
            let view = EdgeView::from_csr(&g);
            let wide = WideFormat::build::<f32>(view, &png, None);
            let compact = CompactFormat::build::<f32>(view, &png, None);
            let delta = DeltaFormat::build::<f32>(view, &png, None);
            let want = decode_all::<WideFormat>(&png, &wide);
            assert_eq!(want, decode_all::<CompactFormat>(&png, &compact), "q={q}");
            assert_eq!(want, decode_all::<DeltaFormat>(&png, &delta), "q={q}");
            // Entry counts: one decoded entry per raw edge.
            let total: usize = want.iter().flatten().map(Vec::len).sum();
            assert_eq!(total as u64, g.num_edges());
        }
    }

    #[test]
    fn dest_stream_strictly_shrinks_wide_to_delta() {
        let g = erdos_renyi(600, 6000, 7).unwrap();
        let png = build_png(&g, 128);
        let view = EdgeView::from_csr(&g);
        let wide = WideFormat::build::<f32>(view, &png, None);
        let compact = CompactFormat::build::<f32>(view, &png, None);
        let delta = DeltaFormat::build::<f32>(view, &png, None);
        let w = WideFormat::dest_stream_bytes(&wide);
        let c = CompactFormat::dest_stream_bytes(&compact);
        let d = DeltaFormat::dest_stream_bytes(&delta);
        assert_eq!(c * 2, w);
        assert!(d < c, "delta ({d}) must beat compact ({c})");
        assert!(dest_compression(g.num_edges(), d) > 2.0);
    }

    #[test]
    fn kind_round_trips_names() {
        for kind in BinFormatKind::ALL {
            assert_eq!(kind.name().parse::<BinFormatKind>().unwrap(), kind);
        }
        assert!("warp".parse::<BinFormatKind>().is_err());
    }

    #[test]
    fn compact_layout_validation_rejects_oversized_partitions() {
        let n = 70_000u32;
        let g = Csr::from_edges(n, &[(0, 1), (0, 65_000)]).unwrap();
        let png = build_png(&g, n);
        assert!(CompactFormat::validate_layout(&png).is_err());
        assert!(WideFormat::validate_layout(&png).is_ok());
        assert!(DeltaFormat::validate_layout(&png).is_ok());
    }
}
