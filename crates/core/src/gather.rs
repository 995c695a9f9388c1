//! PCPM gather phase.
//!
//! Two implementations of the same reduction, both generic over the
//! gather [`Algebra`] (f32 PageRank sums, min-label, min-plus, …):
//!
//! - [`gather_algebra`] — Algorithm 4: the MSB of each destination ID is
//!   *added* to the update pointer instead of being branched on, so the
//!   inner loop has no unpredictable control flow (§3.4).
//! - [`gather_algebra_branchy`] — Algorithm 2's gather: `if MSB(id) != 0
//!   { pop update }`. Mispredicts on every message boundary; kept for the
//!   branch-avoidance ablation benches.
//!
//! [`gather_branch_avoiding`] and [`gather_branchy`] are the `(+, ×)` /
//! `f32` specializations the PageRank driver uses.
//!
//! Both are parallel over destination partitions: worker `p` owns the
//! partial-sum slice of partition `p` exclusively, so the phase is
//! lock-free. Updates and destination IDs are streamed segment by segment
//! (one segment per source partition, each contiguous).
//!
//! The module also holds the batched (multi-query SpMM) gather every
//! bin format shares, laid out **node-major**: the `Q` updates of a
//! compressed edge sit side by side in one row of an interleaved
//! stream ([`batch_lanes`] slots wide), worker `p` accumulates into one
//! block of such rows, and each decoded entry is one contiguous
//! row-wide combine of an update row into an accumulator row (at
//! `Q = 16` and 4-byte scalars, two 64-byte rows per edge, where a
//! query-major layout touches `2·Q` scattered values). The block is
//! transposed into the `Q` outputs at the end of the partition. A
//! format contributes only its entry decode, through the crate-internal
//! `SegmentEntries` trait; the wide decode lives here.

use crate::algebra::Algebra;
use crate::bins::BinSpace;
use crate::format::BinScalar;
use crate::kernel::{prefetch, KernelKind};
use crate::partition::split_by_lens;
use crate::png::Png;
use crate::ID_MASK;
use rayon::prelude::*;
use std::ops::Range;

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

/// Branch-avoiding gather (Algorithm 4) over an arbitrary [`Algebra`].
///
/// The reduction into `y` starts from `A::identity()` per node; callers
/// that need "keep my own value" semantics (label propagation, BFS)
/// combine `y` with the previous vertex state afterwards.
pub fn gather_algebra<A: Algebra>(png: &Png, bins: &BinSpace<A::T>, y: &mut [A::T]) {
    run_gather::<A>(png, bins, y, false, KernelKind::Scalar);
}

/// [`gather_algebra`] with an explicit kernel variant.
/// [`KernelKind::Unrolled`] applies entries 4-at-a-time (in exactly the
/// scalar order, so f32 output stays bit-identical) and prefetches the
/// next destID segment; any other value runs the scalar loop.
pub fn gather_algebra_kernel<A: Algebra>(
    png: &Png,
    bins: &BinSpace<A::T>,
    y: &mut [A::T],
    kernel: KernelKind,
) {
    run_gather::<A>(png, bins, y, false, kernel);
}

/// Branchy gather (Algorithm 2) over an arbitrary [`Algebra`] — the
/// branch-avoidance ablation, byte-identical output to
/// [`gather_algebra`]. Always scalar: the ablation exists to measure
/// the per-entry branch, which unrolling would blur.
pub fn gather_algebra_branchy<A: Algebra>(png: &Png, bins: &BinSpace<A::T>, y: &mut [A::T]) {
    run_gather::<A>(png, bins, y, true, KernelKind::Scalar);
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

/// How one bin format walks a `(source partition, destination
/// partition)` segment for the batched gather. This is the only part of
/// [`gather_many_node_major`] that differs between formats.
pub(crate) trait SegmentEntries: Sync {
    /// The per-edge weight stream (raw-edge bin order), if weighted.
    fn weight_stream(&self) -> Option<&[f32]>;

    /// Touches the head of segment `(s, p)` (the unrolled kernel's
    /// next-segment prefetch).
    fn prefetch_segment(&self, png: &Png, s: u32, p: usize);

    /// Decodes segment `(s, p)` in bin order, calling `apply(local, up)`
    /// once per raw edge: `local` is the destination's offset inside
    /// partition `p`, `up` the segment-local index of its message's
    /// update. `scratch` is the worker's reusable decode buffer.
    fn for_each_entry(
        &self,
        png: &Png,
        s: u32,
        p: usize,
        kernel: KernelKind,
        scratch: &mut Vec<u64>,
        apply: impl FnMut(usize, usize),
    );
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

/// The `Q`-wide apply of one decoded entry, `acc[j] ⊕= extend(upd[j])`
/// over two contiguous rows of `W` lanes (`W = 0`: a runtime row
/// length). From 4 lanes up, the whole update row is loaded before the
/// accumulator row is stored, so the compiler emits whole vector
/// operations without having to prove the two rows disjoint; narrower
/// and runtime-length rows take the plain lane loop.
#[inline(always)]
fn combine_row<A: Algebra, const W: usize>(acc: &mut [A::T], upd: &[A::T], weight: Option<f32>) {
    if W <= 2 {
        for (a, &u) in acc.iter_mut().zip(upd) {
            *a = lane::<A>(*a, u, weight);
        }
    } else {
        let u: [A::T; W] = upd[..W].try_into().expect("update row");
        let a: &mut [A::T; W] = (&mut acc[..W]).try_into().expect("accumulator row");
        *a = std::array::from_fn(|k| lane::<A>(a[k], u[k], weight));
    }
}

/// The node-major batched gather (the SpMM inner loop) shared by every
/// bin format.
///
/// `upd` is the interleaved update stream
/// [`png_scatter_many`](crate::scatter::png_scatter_many) writes:
/// compressed edge `i` holds query `j`'s value at `upd[i·lanes + j]`,
/// with `lanes` = [`batch_lanes`]`(ys.len())`. Worker `p` owns one
/// `len(p) × lanes` accumulator. Each decoded entry does one contiguous
/// `lanes`-wide combine from an update row into an accumulator row, so
/// an edge touches two contiguous rows instead of `2·Q` scattered
/// values. At the end of the partition the accumulator is transposed
/// into `ys[j]`. The combines for each (node, query) run in the solo
/// gather's edge order, so each `ys[j]` is bit-identical to a solo
/// gather of query `j`.
pub(crate) fn gather_many_node_major<A: Algebra, B: SegmentEntries>(
    png: &Png,
    bins: &B,
    upd: &[A::T],
    lanes: usize,
    ys: &mut [&mut [A::T]],
    kernel: KernelKind,
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
    match lanes {
        _ if ys.is_empty() => {}
        2 => gather_many_lanes::<A, B, 2>(png, bins, upd, 2, ys, kernel),
        4 => gather_many_lanes::<A, B, 4>(png, bins, upd, 4, ys, kernel),
        8 => gather_many_lanes::<A, B, 8>(png, bins, upd, 8, ys, kernel),
        16 => gather_many_lanes::<A, B, 16>(png, bins, upd, 16, ys, kernel),
        _ => gather_many_lanes::<A, B, 0>(png, bins, upd, lanes, ys, kernel),
    }
}

/// [`gather_many_node_major`] at a row width of `W` lanes (`W = 0`:
/// `lanes`, known only at run time).
fn gather_many_lanes<A: Algebra, B: SegmentEntries, const W: usize>(
    png: &Png,
    bins: &B,
    upd: &[A::T],
    lanes: usize,
    ys: &mut [&mut [A::T]],
    kernel: KernelKind,
) {
    let lens = png.dst_parts().lens();
    let per_part = split_queries_by_parts(ys, &lens);
    let k_src = png.src_parts().num_partitions();
    let unrolled = kernel == KernelKind::Unrolled;
    let weights = bins.weight_stream();
    per_part
        .into_par_iter()
        .enumerate()
        .for_each(|(p, mut outs)| {
            // A constant inside the worker, so the fixed-width rows
            // compile to straight-line vector code.
            let l = if W == 0 { lanes } else { W };
            let mut acc = vec![A::identity(); lens[p] * l];
            let mut scratch: Vec<u64> = Vec::new();
            for s in 0..k_src {
                let part = png.part(s);
                let ubase = png.upd_region()[s as usize] as usize;
                let ulo = ubase + part.upd_off[p] as usize;
                let uhi = ubase + part.upd_off[p + 1] as usize;
                let us = &upd[ulo * l..uhi * l];
                if unrolled && s + 1 < k_src {
                    bins.prefetch_segment(png, s + 1, p);
                }
                match weights {
                    None => bins.for_each_entry(png, s, p, kernel, &mut scratch, |local, up| {
                        combine_row::<A, W>(&mut acc[local * l..][..l], &us[up * l..][..l], None);
                    }),
                    Some(w) => {
                        let ws = &w[did_segment(png, s, p)];
                        let mut edge = 0usize;
                        bins.for_each_entry(png, s, p, kernel, &mut scratch, |local, up| {
                            let wt = Some(ws[edge]);
                            combine_row::<A, W>(&mut acc[local * l..][..l], &us[up * l..][..l], wt);
                            edge += 1;
                        });
                    }
                }
            }
            for (local, row) in acc.chunks_exact(l).enumerate() {
                for (y, &v) in outs.iter_mut().zip(row) {
                    y[local] = v;
                }
            }
        });
}

/// Wide entry decode for the node-major batched gather: MSB-flagged
/// global IDs, rebased to the partition.
impl<T: BinScalar> SegmentEntries for BinSpace<T> {
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
        let base = png.dst_parts().range(p as u32).start as usize;
        let mut up = usize::MAX;
        for &id in &self.dest_ids[did_segment(png, s, p)] {
            up = up.wrapping_add((id >> 31) as usize);
            apply((id & ID_MASK) as usize - base, up);
        }
    }
}

fn run_gather<A: Algebra>(
    png: &Png,
    bins: &BinSpace<A::T>,
    y: &mut [A::T],
    branchy: bool,
    kernel: KernelKind,
) {
    assert_eq!(y.len(), png.dst_parts().num_nodes() as usize, "y length");
    let lens = png.dst_parts().lens();
    let slices = split_by_lens(y, &lens);
    let k_src = png.src_parts().num_partitions();
    let unrolled = kernel == KernelKind::Unrolled;
    slices.into_par_iter().enumerate().for_each(|(p, ys)| {
        ys.fill(A::identity());
        let base = png.dst_parts().range(p as u32).start as usize;
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
            match (branchy, &bins.weights) {
                (false, None) if unrolled => {
                    let mut up = usize::MAX;
                    macro_rules! step {
                        ($id:expr) => {{
                            let id = $id;
                            up = up.wrapping_add((id >> 31) as usize);
                            let slot = &mut ys[(id & ID_MASK) as usize - base];
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
                (false, None) => {
                    // `up` starts one before the segment; the first entry
                    // always carries the MSB flag and advances it to 0.
                    let mut up = usize::MAX;
                    for &id in ds {
                        up = up.wrapping_add((id >> 31) as usize);
                        let slot = &mut ys[(id & ID_MASK) as usize - base];
                        *slot = A::combine(*slot, A::extend(us[up]));
                    }
                }
                (false, Some(w)) if unrolled => {
                    let ws = &w[dlo..dhi];
                    let mut up = usize::MAX;
                    macro_rules! step {
                        ($id:expr, $wt:expr) => {{
                            let id = $id;
                            up = up.wrapping_add((id >> 31) as usize);
                            let slot = &mut ys[(id & ID_MASK) as usize - base];
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
                (false, Some(w)) => {
                    let ws = &w[dlo..dhi];
                    let mut up = usize::MAX;
                    for (&id, &wt) in ds.iter().zip(ws) {
                        up = up.wrapping_add((id >> 31) as usize);
                        let slot = &mut ys[(id & ID_MASK) as usize - base];
                        *slot = A::combine(*slot, A::extend_weighted(wt, us[up]));
                    }
                }
                (true, None) => {
                    let mut up = usize::MAX;
                    for &id in ds {
                        if id >> 31 != 0 {
                            up = up.wrapping_add(1);
                        }
                        let slot = &mut ys[(id & ID_MASK) as usize - base];
                        *slot = A::combine(*slot, A::extend(us[up]));
                    }
                }
                (true, Some(w)) => {
                    let ws = &w[dlo..dhi];
                    let mut up = usize::MAX;
                    for (&id, &wt) in ds.iter().zip(ws) {
                        if id >> 31 != 0 {
                            up = up.wrapping_add(1);
                        }
                        let slot = &mut ys[(id & ID_MASK) as usize - base];
                        *slot = A::combine(*slot, A::extend_weighted(wt, us[up]));
                    }
                }
            }
        }
    });
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
    fn unrolled_kernel_bit_identical_to_scalar() {
        let g = pcpm_graph::gen::rmat(&pcpm_graph::gen::RmatConfig::graph500(9, 7, 17)).unwrap();
        let x: Vec<f32> = (0..g.num_nodes())
            .map(|v| (v as f32 * 0.61).sin())
            .collect();
        for q in [1u32, 13, 128, 4096] {
            let parts = Partitioner::new(g.num_nodes(), q).unwrap();
            let png = Png::build(EdgeView::from_csr(&g), parts, parts);
            let mut bins = WideFormat::build(EdgeView::from_csr(&g), &png, None);
            png_scatter(&png, &x, &mut bins.updates);
            let n = g.num_nodes() as usize;
            let (mut ys, mut yu) = (vec![0.0f32; n], vec![0.0f32; n]);
            gather_algebra_kernel::<crate::algebra::PlusF32>(
                &png,
                &bins,
                &mut ys,
                KernelKind::Scalar,
            );
            gather_algebra_kernel::<crate::algebra::PlusF32>(
                &png,
                &bins,
                &mut yu,
                KernelKind::Unrolled,
            );
            assert_eq!(ys, yu, "q={q}");
        }
    }

    #[test]
    fn unrolled_weighted_kernel_bit_identical_to_scalar() {
        let g = pcpm_graph::gen::erdos_renyi(300, 2500, 9).unwrap();
        let w = EdgeWeights::random(&g, 4);
        let parts = Partitioner::new(300, 64).unwrap();
        let png = Png::build(EdgeView::from_csr(&g), parts, parts);
        let mut bins = WideFormat::build(EdgeView::from_csr(&g), &png, Some(w.as_slice()));
        let x: Vec<f32> = (0..300).map(|v| (v as f32 * 0.11).cos()).collect();
        png_scatter(&png, &x, &mut bins.updates);
        let (mut ys, mut yu) = (vec![0.0f32; 300], vec![0.0f32; 300]);
        gather_algebra_kernel::<crate::algebra::PlusF32>(&png, &bins, &mut ys, KernelKind::Scalar);
        gather_algebra_kernel::<crate::algebra::PlusF32>(
            &png,
            &bins,
            &mut yu,
            KernelKind::Unrolled,
        );
        assert_eq!(ys, yu);
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
