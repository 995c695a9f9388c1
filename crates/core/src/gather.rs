//! PCPM gather phase.
//!
//! One skeleton serves every bin format, the solo SpMV and the batched
//! SpMM: worker `p` owns destination partition `p` exclusively (so the
//! phase is lock-free), walks the `k_src` segments `(s, p)` in
//! source-partition order, and applies every decoded entry as
//! `acc ⊕= extend(update)`. Algorithm 4's branch avoidance lives in the
//! entry decode: the demarcation flag of each destination ID is *added*
//! to the update pointer instead of being branched on (§3.4). A format
//! contributes only that decode, through the crate-internal
//! `SegmentEntries` trait (the wide decode lives here, the compact and
//! delta decodes in their modules); every decode carries the 4-wide
//! unroll of `unroll4`.
//!
//! The update stream is laid out **node-major**: the `Q` updates of a
//! compressed edge sit side by side in one row of [`batch_lanes`]`(Q)`
//! slots, and each decoded entry is one contiguous row-wide combine of
//! an update row into an accumulator row (at `Q = 16` and 4-byte
//! scalars, two 64-byte rows per edge, where a query-major layout
//! touches `2·Q` scattered values). A batch accumulates into one
//! per-partition block that is transposed into the `Q` outputs at the
//! end of the partition; the solo gather is the one-lane case, reading
//! the bins' own update stream and accumulating straight into its slice
//! of `y`.
//!
//! - [`gather_algebra`] — the solo gather over any bin storage and any
//!   gather [`Algebra`] (f32 PageRank sums, min-label, min-plus, …);
//!   [`gather_branch_avoiding`] is its `(+, ×)` / wide specialization.
//! - [`gather_algebra_branchy`] — Algorithm 2's gather: `if MSB(id) != 0
//!   { pop update }`. Mispredicts on every message boundary; kept, with
//!   its own loop, for the branch-avoidance ablation benches (wide bins
//!   only).

use crate::algebra::Algebra;
use crate::bins::BinSpace;
use crate::format::BinScalar;
use crate::partition::split_by_lens;
use crate::png::Png;
use crate::ID_MASK;
use rayon::prelude::*;
use std::ops::Range;

pub(crate) use segment::SegmentEntries;

mod segment {
    use crate::png::Png;

    /// How one bin storage walks a `(source partition, destination
    /// partition)` segment: the only part of the gather that differs
    /// between formats. Public in a private module, so it can bound the
    /// public format API without being implementable outside the crate.
    pub trait SegmentEntries<T>: Sync {
        /// The bins' own update stream (one lane per compressed edge).
        fn updates(&self) -> &[T];

        /// The per-edge weight stream (raw-edge bin order), if weighted.
        fn weight_stream(&self) -> Option<&[f32]>;

        /// Decodes segment `(s, p)` in bin order, calling `apply(local,
        /// up)` once per raw edge: `local` is the destination's offset
        /// inside partition `p`, `up` the segment-local index of its
        /// message's update. `scratch` is the worker's reusable decode
        /// buffer.
        fn for_each_entry(
            &self,
            png: &Png,
            s: u32,
            p: usize,
            scratch: &mut Vec<u64>,
            apply: impl FnMut(usize, usize),
        );
    }
}

/// Algorithm 4 over the `(+, ×)` semiring: branch-avoiding gather.
/// Accumulates all messages into `y` (which is zeroed first). `y.len()`
/// must equal the destination node count.
pub fn gather_branch_avoiding(png: &Png, bins: &BinSpace, y: &mut [f32]) {
    gather_algebra::<crate::algebra::PlusF32>(png, bins, y);
}

/// Algorithm 2 gather over the `(+, ×)` semiring: branch on the MSB flag
/// (ablation baseline).
pub fn gather_branchy(png: &Png, bins: &BinSpace, y: &mut [f32]) {
    gather_algebra_branchy::<crate::algebra::PlusF32>(png, bins, y);
}

/// Branch-avoiding gather (Algorithm 4) over an arbitrary [`Algebra`]
/// and any bin storage (wide [`BinSpace`], compact
/// [`CompactBinSpace`](crate::compact::CompactBinSpace) or
/// [`DeltaPackedBins`](crate::delta::DeltaPackedBins)): the one-lane
/// case of the shared skeleton, reading the bins' own update stream.
///
/// The reduction into `y` starts from `A::identity()` per node; callers
/// that need "keep my own value" semantics (label propagation, BFS)
/// combine `y` with the previous vertex state afterwards.
pub fn gather_algebra<A: Algebra>(png: &Png, bins: &impl SegmentEntries<A::T>, y: &mut [A::T]) {
    gather_node_major::<A, _>(png, bins, bins.updates(), 1, &mut [y]);
}

/// Branchy gather (Algorithm 2) over an arbitrary [`Algebra`] — the
/// branch-avoidance ablation, byte-identical output to
/// [`gather_algebra`]. A plain loop with no unroll: the ablation exists
/// to measure the per-entry branch, which unrolling would blur.
pub fn gather_algebra_branchy<A: Algebra>(png: &Png, bins: &BinSpace<A::T>, y: &mut [A::T]) {
    assert_eq!(y.len(), png.dst_parts().num_nodes() as usize, "y length");
    let lens = png.dst_parts().lens();
    let k_src = png.src_parts().num_partitions();
    split_by_lens(y, &lens)
        .into_par_iter()
        .enumerate()
        .for_each(|(p, ys)| {
            ys.fill(A::identity());
            let base = png.dst_parts().range(p as u32).start as usize;
            for s in 0..k_src {
                let us = &bins.updates[upd_segment(png, s, p)];
                let seg = did_segment(png, s, p);
                let ws = bins.weights.as_deref().map(|w| &w[seg.clone()]);
                let mut up = usize::MAX;
                for (e, &id) in bins.dest_ids[seg].iter().enumerate() {
                    if id >> 31 != 0 {
                        up = up.wrapping_add(1);
                    }
                    let slot = &mut ys[(id & ID_MASK) as usize - base];
                    *slot = lane::<A>(*slot, us[up], ws.map(|w| w[e]));
                }
            }
        });
}

/// Splits each of the `Q` output vectors by destination-partition `lens`
/// and transposes the result: `out[p][j]` is query `j`'s slice of
/// partition `p`. Worker `p` of the batched gather thereby owns its
/// region of *all* `Q` outputs in fully safe code.
fn split_queries_by_parts<'a, T>(ys: &'a mut [&mut [T]], lens: &[usize]) -> Vec<Vec<&'a mut [T]>> {
    let mut per_part: Vec<Vec<&'a mut [T]>> =
        lens.iter().map(|_| Vec::with_capacity(ys.len())).collect();
    for y in ys.iter_mut() {
        for (p, s) in split_by_lens(y, lens).into_iter().enumerate() {
            per_part[p].push(s);
        }
    }
    per_part
}

/// Raw-edge range of segment `(s, p)`: its slice of the fixed-width
/// destID streams and of every format's weight stream (one unit per
/// raw edge).
pub(crate) fn did_segment(png: &Png, s: u32, p: usize) -> Range<usize> {
    let part = png.part(s);
    let base = png.did_region()[s as usize];
    (base + part.did_off[p]) as usize..(base + part.did_off[p + 1]) as usize
}

/// Compressed-edge range of segment `(s, p)`: its rows of the update
/// stream.
fn upd_segment(png: &Png, s: u32, p: usize) -> Range<usize> {
    let part = png.part(s);
    let base = png.upd_region()[s as usize];
    (base + part.upd_off[p]) as usize..(base + part.upd_off[p + 1]) as usize
}

/// Calls `f` on every item of `items` in order, four per loop trip: the
/// gather's 4-wide unroll, shared by every format's entry decode.
#[inline(always)]
pub(crate) fn unroll4<T: Copy>(items: &[T], mut f: impl FnMut(T)) {
    let mut chunks = items.chunks_exact(4);
    for c in &mut chunks {
        f(c[0]);
        f(c[1]);
        f(c[2]);
        f(c[3]);
    }
    for &x in chunks.remainder() {
        f(x);
    }
}

/// Lanes per row of the batched update stream and accumulator for a
/// `q`-query batch: `q` rounded up to the next kernel width (1, 2, 4,
/// 8 or 16) for batches of up to 16 queries, `q` itself above that.
/// The pad lanes hold default values and are never read back.
pub fn batch_lanes(q: usize) -> usize {
    if q <= 16 {
        q.next_power_of_two()
    } else {
        q
    }
}

/// One lane of the apply: `a ⊕ extend(u)`, weighted when `weight` is
/// set.
#[inline(always)]
fn lane<A: Algebra>(a: A::T, u: A::T, weight: Option<f32>) -> A::T {
    let c = match weight {
        None => A::extend(u),
        Some(w) => A::extend_weighted(w, u),
    };
    A::combine(a, c)
}

/// The apply of one decoded entry, `acc[local] ⊕= extend(upd[up])` over
/// rows of `l` lanes (`W` is `l` at compile time, or 0 when `l` is
/// known only at run time). One lane is a single combine. From 4 lanes
/// up, the whole update row is loaded before the accumulator row is
/// stored, so the compiler emits whole vector operations without having
/// to prove the two rows disjoint; 2-lane and runtime-length rows take
/// the plain lane loop.
#[inline(always)]
fn combine_row<A: Algebra, const W: usize>(
    acc: &mut [A::T],
    upd: &[A::T],
    l: usize,
    local: usize,
    up: usize,
    weight: Option<f32>,
) {
    if W == 1 {
        let a = &mut acc[local];
        *a = lane::<A>(*a, upd[up], weight);
    } else if W <= 2 {
        for (a, &u) in acc[local * l..][..l].iter_mut().zip(&upd[up * l..][..l]) {
            *a = lane::<A>(*a, u, weight);
        }
    } else {
        let u: [A::T; W] = upd[up * W..][..W].try_into().expect("update row");
        let a: &mut [A::T; W] = (&mut acc[local * W..][..W])
            .try_into()
            .expect("accumulator row");
        *a = std::array::from_fn(|k| lane::<A>(a[k], u[k], weight));
    }
}

/// The gather skeleton shared by every bin format, solo and batched.
///
/// `upd` is a node-major update stream of `lanes` =
/// [`batch_lanes`]`(ys.len())` slots per compressed edge: the bins' own
/// stream for one query, or the interleaved stream
/// [`png_scatter_many`](crate::scatter::png_scatter_many) writes for a
/// batch (query `j`'s value of compressed edge `i` at `upd[i·lanes +
/// j]`). One lane accumulates straight into `ys[0]`; wider rows
/// accumulate into a `len(p) × lanes` block per partition that is
/// transposed into `ys[j]` at the end. The combines for each (node,
/// query) run in the same edge order at every width, so each `ys[j]` is
/// bit-identical to a solo gather of query `j`.
pub(crate) fn gather_node_major<A: Algebra, B: SegmentEntries<A::T>>(
    png: &Png,
    bins: &B,
    upd: &[A::T],
    lanes: usize,
    ys: &mut [&mut [A::T]],
) {
    assert_eq!(lanes, batch_lanes(ys.len()), "lanes per batch row");
    assert_eq!(
        upd.len() as u64,
        png.num_compressed_edges() * lanes as u64,
        "updates length"
    );
    for y in ys.iter() {
        assert_eq!(y.len(), png.dst_parts().num_nodes() as usize, "y length");
    }
    match (lanes, &mut *ys) {
        (_, []) => {}
        (1, [y]) => {
            let lens = png.dst_parts().lens();
            split_by_lens(y, &lens)
                .into_par_iter()
                .enumerate()
                .for_each(|(p, acc)| {
                    acc.fill(A::identity());
                    accumulate::<A, B, 1>(png, bins, upd, 1, p, acc);
                });
        }
        (2, _) => gather_rows::<A, B, 2>(png, bins, upd, 2, ys),
        (4, _) => gather_rows::<A, B, 4>(png, bins, upd, 4, ys),
        (8, _) => gather_rows::<A, B, 8>(png, bins, upd, 8, ys),
        (16, _) => gather_rows::<A, B, 16>(png, bins, upd, 16, ys),
        _ => gather_rows::<A, B, 0>(png, bins, upd, lanes, ys),
    }
}

/// The batched case of [`gather_node_major`]: one accumulator block per
/// partition, transposed into the `Q` outputs at the end.
fn gather_rows<A: Algebra, B: SegmentEntries<A::T>, const W: usize>(
    png: &Png,
    bins: &B,
    upd: &[A::T],
    lanes: usize,
    ys: &mut [&mut [A::T]],
) {
    let lens = png.dst_parts().lens();
    split_queries_by_parts(ys, &lens)
        .into_par_iter()
        .enumerate()
        .for_each(|(p, mut outs)| {
            // A constant inside the worker, so the fixed-width rows
            // compile to straight-line vector code.
            let l = if W == 0 { lanes } else { W };
            let mut acc = vec![A::identity(); lens[p] * l];
            accumulate::<A, B, W>(png, bins, upd, l, p, &mut acc);
            for (local, row) in acc.chunks_exact(l).enumerate() {
                for (y, &v) in outs.iter_mut().zip(row) {
                    y[local] = v;
                }
            }
        });
}

/// Worker `p`'s pass: every segment `(s, p)` in source-partition order,
/// each decoded entry combined into the accumulator rows `acc`.
#[inline(always)]
fn accumulate<A: Algebra, B: SegmentEntries<A::T>, const W: usize>(
    png: &Png,
    bins: &B,
    upd: &[A::T],
    l: usize,
    p: usize,
    acc: &mut [A::T],
) {
    let weights = bins.weight_stream();
    let mut scratch: Vec<u64> = Vec::new();
    for s in 0..png.src_parts().num_partitions() {
        let rows = upd_segment(png, s, p);
        let us = &upd[rows.start * l..rows.end * l];
        match weights {
            None => bins.for_each_entry(png, s, p, &mut scratch, |local, up| {
                combine_row::<A, W>(acc, us, l, local, up, None);
            }),
            Some(w) => {
                let ws = &w[did_segment(png, s, p)];
                let mut edge = 0usize;
                bins.for_each_entry(png, s, p, &mut scratch, |local, up| {
                    combine_row::<A, W>(acc, us, l, local, up, Some(ws[edge]));
                    edge += 1;
                });
            }
        }
    }
}

/// Wide entry decode: MSB-flagged global IDs, rebased to the partition.
impl<T: BinScalar> SegmentEntries<T> for BinSpace<T> {
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
        let base = png.dst_parts().range(p as u32).start as usize;
        // `up` starts one before the segment; the first entry always
        // carries the MSB flag and advances it to 0.
        let mut up = usize::MAX;
        unroll4(&self.dest_ids[did_segment(png, s, p)], |id| {
            up = up.wrapping_add((id >> 31) as usize);
            apply((id & ID_MASK) as usize - base, up);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{BinFormat, WideFormat};
    use crate::partition::Partitioner;
    use crate::png::EdgeView;
    use crate::scatter::png_scatter;
    use pcpm_graph::{Csr, EdgeWeights};

    fn full_spmv(g: &Csr, q: u32, x: &[f32], branchy: bool) -> Vec<f32> {
        let parts = Partitioner::new(g.num_nodes(), q).unwrap();
        let png = Png::build(EdgeView::from_csr(g), parts, parts);
        let mut bins = WideFormat::build(EdgeView::from_csr(g), &png, None);
        png_scatter(&png, x, &mut bins.updates);
        let mut y = vec![0.0f32; g.num_nodes() as usize];
        if branchy {
            gather_branchy(&png, &bins, &mut y);
        } else {
            gather_branch_avoiding(&png, &bins, &mut y);
        }
        y
    }

    /// Dense reference: y[t] = sum over edges (s -> t) of x[s].
    fn reference(g: &Csr, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; g.num_nodes() as usize];
        for (s, t) in g.edges() {
            y[t as usize] += x[s as usize];
        }
        y
    }

    #[test]
    fn gather_computes_transposed_spmv() {
        let g = pcpm_graph::gen::erdos_renyi(200, 1500, 5).unwrap();
        let x: Vec<f32> = (0..200).map(|v| (v as f32 * 0.37).cos()).collect();
        for q in [1u32, 7, 50, 200, 1000] {
            let y = full_spmv(&g, q, &x, false);
            let want = reference(&g, &x);
            for (i, (a, b)) in y.iter().zip(&want).enumerate() {
                assert!((a - b).abs() < 1e-4, "q={q} node {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn batch_rows_round_small_batches_up_to_a_kernel_width() {
        let lanes: Vec<usize> = [1, 2, 3, 4, 5, 8, 9, 16, 17, 40]
            .into_iter()
            .map(batch_lanes)
            .collect();
        assert_eq!(lanes, [1, 2, 4, 4, 8, 8, 16, 16, 17, 40]);
    }

    #[test]
    fn branchy_equals_branch_avoiding() {
        let g = pcpm_graph::gen::rmat(&pcpm_graph::gen::RmatConfig::graph500(9, 6, 2)).unwrap();
        let x: Vec<f32> = (0..g.num_nodes()).map(|v| v as f32 + 1.0).collect();
        let a = full_spmv(&g, 37, &x, false);
        let b = full_spmv(&g, 37, &x, true);
        assert_eq!(a, b);
    }

    #[test]
    fn weighted_gather_scales_by_edge_weight() {
        let g = Csr::from_edges(4, &[(0, 1), (0, 3), (2, 1), (2, 3)]).unwrap();
        let w = EdgeWeights::new(&g, vec![2.0, 4.0, 8.0, 16.0]).unwrap();
        let parts = Partitioner::new(4, 2).unwrap();
        let png = Png::build(EdgeView::from_csr(&g), parts, parts);
        let mut bins = WideFormat::build(EdgeView::from_csr(&g), &png, Some(w.as_slice()));
        let x = vec![1.0f32, 0.0, 10.0, 0.0];
        png_scatter(&png, &x, &mut bins.updates);
        let mut y = vec![0.0f32; 4];
        gather_branch_avoiding(&png, &bins, &mut y);
        // y[1] = 2*x[0] + 8*x[2] = 82; y[3] = 4*x[0] + 16*x[2] = 164.
        assert_eq!(y, vec![0.0, 82.0, 0.0, 164.0]);
        let mut yb = vec![0.0f32; 4];
        gather_branchy(&png, &bins, &mut yb);
        assert_eq!(y, yb);
    }

    #[test]
    fn gather_zeroes_stale_output() {
        let g = Csr::from_edges(2, &[(0, 1)]).unwrap();
        let parts = Partitioner::new(2, 1).unwrap();
        let png = Png::build(EdgeView::from_csr(&g), parts, parts);
        let mut bins = WideFormat::build(EdgeView::from_csr(&g), &png, None);
        png_scatter(&png, &[3.0, 0.0], &mut bins.updates);
        let mut y = vec![99.0f32; 2];
        gather_branch_avoiding(&png, &bins, &mut y);
        assert_eq!(y, vec![0.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "y length")]
    fn wrong_output_length_panics() {
        let g = Csr::from_edges(2, &[(0, 1)]).unwrap();
        let parts = Partitioner::new(2, 1).unwrap();
        let png = Png::build(EdgeView::from_csr(&g), parts, parts);
        let bins = WideFormat::build(EdgeView::from_csr(&g), &png, None);
        let mut y = vec![0.0f32; 5];
        gather_branch_avoiding(&png, &bins, &mut y);
    }
}
