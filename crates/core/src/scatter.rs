//! PCPM scatter phase.
//!
//! Two implementations, plus the batched form of the first:
//!
//! - [`png_scatter`] — Algorithm 3, the paper's final design: iterate the
//!   PNG rows of each source partition, streaming updates to one
//!   destination bin at a time. No data-dependent branches, no unused-edge
//!   reads, at most `k` bin switches per partition.
//!   [`png_scatter_many`] writes the same stream for a batch of `Q`
//!   vectors, node-major (each edge's `Q` updates side by side).
//! - [`csr_scatter`] — Algorithm 2, the pre-PNG ablation: traverse the
//!   original CSR, compare each neighbor's partition with the previous one
//!   and emit an update on every partition switch. Reads all `m` edges and
//!   branches per edge; kept for the design-choice benches.
//!
//! Both run in parallel over source partitions; each worker writes only
//! its own contiguous region of the update array, obtained by safe slice
//! splitting, so no synchronization is needed (paper §3.1).

use crate::partition::split_by_lens;
use crate::png::{EdgeView, Png};
use rayon::prelude::*;

/// Algorithm 3: PNG-driven branchless scatter.
///
/// Reads `x[v]` for every compressed edge and writes it into the update
/// region of the edge's destination bin. `updates.len()` must equal
/// `png.num_compressed_edges()`.
///
/// # Panics
///
/// Panics if `updates` has the wrong length or `x` is shorter than the
/// source node count.
pub fn png_scatter<T: Copy + Send + Sync>(png: &Png, x: &[T], updates: &mut [T]) {
    assert_eq!(
        updates.len() as u64,
        png.num_compressed_edges(),
        "updates length"
    );
    assert!(
        x.len() >= png.src_parts().num_nodes() as usize,
        "x too short"
    );
    let lens = png.upd_region_lens();
    let regions = split_by_lens(updates, &lens);
    regions.into_par_iter().enumerate().for_each(|(s, region)| {
        let part = png.part(s as u32);
        let mut cur = 0usize;
        for p in png.dst_parts().iter() {
            for &u in part.row(p) {
                region[cur] = x[u as usize];
                cur += 1;
            }
        }
    });
}

/// Algorithm 3 for a batch of `Q = xs.len()` source vectors, written
/// node-major: compressed edge `i` (in [`png_scatter`]'s order) holds
/// its `Q` values side by side in one row of `lanes ≥ Q` slots,
/// `updates[i·lanes + j] = xs[j][src(i)]`; pad slots `j ≥ Q` are left
/// as they are. The batched gather then reads one contiguous row per
/// message instead of `Q` scattered values. `updates.len()` must equal
/// `lanes · png.num_compressed_edges()`.
///
/// # Panics
///
/// Panics if `updates` has the wrong length, `lanes < Q`, or any
/// `xs[j]` is shorter than the source node count.
pub fn png_scatter_many<T: Copy + Send + Sync>(
    png: &Png,
    xs: &[&[T]],
    lanes: usize,
    updates: &mut [T],
) {
    assert_eq!(
        updates.len() as u64,
        png.num_compressed_edges() * lanes as u64,
        "updates length"
    );
    assert!(lanes >= xs.len(), "fewer lanes than queries");
    for x in xs {
        assert!(
            x.len() >= png.src_parts().num_nodes() as usize,
            "x too short"
        );
    }
    if lanes == 0 {
        return;
    }
    let lens: Vec<usize> = png.upd_region_lens().iter().map(|&l| l * lanes).collect();
    let regions = split_by_lens(updates, &lens);
    regions.into_par_iter().enumerate().for_each(|(s, region)| {
        let part = png.part(s as u32);
        for (&u, row) in part.sources.iter().zip(region.chunks_exact_mut(lanes)) {
            for (slot, x) in row.iter_mut().zip(xs) {
                *slot = x[u as usize];
            }
        }
    });
}

/// Algorithm 2: CSR-traversal scatter (ablation).
///
/// Produces byte-identical update regions to [`png_scatter`] but scans all
/// raw edges of the original structure, emitting one update whenever the
/// destination partition of consecutive (sorted) neighbors changes.
pub fn csr_scatter<T: Copy + Send + Sync>(
    view: EdgeView<'_>,
    png: &Png,
    x: &[T],
    updates: &mut [T],
) {
    assert_eq!(
        updates.len() as u64,
        png.num_compressed_edges(),
        "updates length"
    );
    assert!(
        x.len() >= png.src_parts().num_nodes() as usize,
        "x too short"
    );
    let q = png.dst_parts().partition_size();
    let lens = png.upd_region_lens();
    let regions = split_by_lens(updates, &lens);
    regions.into_par_iter().enumerate().for_each(|(s, region)| {
        let part = png.part(s as u32);
        // Region-local write cursors, one per destination bin.
        let mut cursor: Vec<u64> = part.upd_off[..part.upd_off.len() - 1].to_vec();
        for v in png.src_parts().range(s as u32) {
            let val = x[v as usize];
            let mut prev_bin = u32::MAX;
            for &u in view.neighbors(v) {
                let p = u / q;
                if p != prev_bin {
                    region[cursor[p as usize] as usize] = val;
                    cursor[p as usize] += 1;
                    prev_bin = p;
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partitioner;
    use pcpm_graph::Csr;

    fn setup(n: u32, edges: &[(u32, u32)], q: u32) -> (Csr, Png) {
        let g = Csr::from_edges(n, edges).unwrap();
        let parts = Partitioner::new(n, q).unwrap();
        let png = Png::build(EdgeView::from_csr(&g), parts, parts);
        (g, png)
    }

    #[test]
    fn png_scatter_streams_expected_values() {
        // Fig. 3/4: partition 2 sends updates PR[6], PR[7] to bin 0.
        let (_, png) = setup(
            9,
            &[
                (3, 2),
                (6, 0),
                (6, 1),
                (7, 2),
                (3, 4),
                (6, 3),
                (6, 4),
                (7, 5),
                (2, 8),
                (7, 8),
            ],
            3,
        );
        let x: Vec<f32> = (0..9).map(|v| v as f32 * 10.0).collect();
        let mut updates = vec![0.0f32; png.num_compressed_edges() as usize];
        png_scatter(&png, &x, &mut updates);
        // Partition 2's region: rows to P0 = [6,7], P1 = [6,7], P2 = [7].
        let lo = png.upd_region()[2] as usize;
        assert_eq!(&updates[lo..lo + 5], &[60.0, 70.0, 60.0, 70.0, 70.0]);
    }

    #[test]
    fn csr_scatter_matches_png_scatter() {
        let g = pcpm_graph::gen::rmat(&pcpm_graph::gen::RmatConfig::graph500(9, 8, 33)).unwrap();
        for q in [16u32, 100, 512] {
            let parts = Partitioner::new(g.num_nodes(), q).unwrap();
            let png = Png::build(EdgeView::from_csr(&g), parts, parts);
            let x: Vec<f32> = (0..g.num_nodes()).map(|v| (v as f32).sin()).collect();
            let mut a = vec![0.0f32; png.num_compressed_edges() as usize];
            let mut b = vec![1.0f32; png.num_compressed_edges() as usize];
            png_scatter(&png, &x, &mut a);
            csr_scatter(EdgeView::from_csr(&g), &png, &x, &mut b);
            assert_eq!(a, b, "q={q}");
        }
    }

    #[test]
    fn png_scatter_many_interleaves_the_solo_streams() {
        let g = pcpm_graph::gen::rmat(&pcpm_graph::gen::RmatConfig::graph500(9, 8, 33)).unwrap();
        let n = g.num_nodes();
        for q in [16u32, 100] {
            let parts = Partitioner::new(n, q).unwrap();
            let png = Png::build(EdgeView::from_csr(&g), parts, parts);
            let ne = png.num_compressed_edges() as usize;
            let xs: Vec<Vec<f32>> = (0..3)
                .map(|j| (0..n).map(|v| (v as f32 + j as f32).sin()).collect())
                .collect();
            let refs: Vec<&[f32]> = xs.iter().map(|x| x.as_slice()).collect();
            // Three queries in rows of four lanes: the pad lane is kept.
            let mut many = vec![-1.0f32; ne * 4];
            png_scatter_many(&png, &refs, 4, &mut many);
            for (j, x) in xs.iter().enumerate() {
                let mut solo = vec![0.0f32; ne];
                png_scatter(&png, x, &mut solo);
                let lane: Vec<f32> = many.chunks_exact(4).map(|row| row[j]).collect();
                assert_eq!(lane, solo, "q={q} query {j}");
            }
            assert!(many.chunks_exact(4).all(|row| row[3] == -1.0), "q={q}");
        }
    }

    #[test]
    #[should_panic(expected = "updates length")]
    fn wrong_update_length_panics() {
        let (_, png) = setup(4, &[(0, 1)], 2);
        let x = vec![0.0; 4];
        let mut updates = vec![0.0; 99];
        png_scatter(&png, &x, &mut updates);
    }

    #[test]
    fn empty_graph_scatter_is_noop() {
        let (_, png) = setup(3, &[], 2);
        let x = vec![1.0; 3];
        let mut updates: Vec<f32> = vec![];
        png_scatter(&png, &x, &mut updates);
    }
}
