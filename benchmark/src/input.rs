//! Seeded Graph500 R-MAT inputs and their on-disk cache.
//!
//! The benchmark generates its own inputs, so the program under test
//! only ever receives a finished graph. Edges are sampled with the
//! Graph500 quadrant probabilities `(a, b, c, d) = (0.57, 0.19, 0.19,
//! 0.05)`, without vertex relabelling (the repository's own R-MAT
//! generator makes the same choice), then self-loops are dropped and
//! duplicates removed. The result is written as a CSR file keyed by the
//! generator parameters and the seed, and every later read checks the
//! node count, the edge count and a checksum before the graph is used.

use pcpm_graph::Csr;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

/// Generator parameters of one input graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RmatSpec {
    /// log2 of the node count.
    pub scale: u32,
    /// Sampled edges per node, before self-loops and duplicates go.
    pub edge_factor: u32,
    /// Workload seed.
    pub seed: u64,
}

/// Quadrant thresholds on a 16-bit draw: a, a+b, a+b+c of 65536.
const T_A: u32 = 37_356;
const T_AB: u32 = 49_807;
const T_ABC: u32 = 62_259;
/// Independent RNG streams the sampled edges are split into.
const CHUNKS: u64 = 64;
const MAGIC: &[u8; 8] = b"PCPMBRM1";
/// Cached inputs kept per (scale, edge factor); older ones are removed.
const KEEP_PER_SHAPE: usize = 2;

impl RmatSpec {
    /// Node count.
    pub fn nodes(&self) -> u32 {
        1u32 << self.scale
    }

    /// Edges sampled before clean-up.
    pub fn sampled_edges(&self) -> u64 {
        u64::from(self.nodes()) * u64::from(self.edge_factor)
    }

    fn file_name(&self) -> String {
        format!(
            "rmat{}-ef{}-seed{}.csrbin",
            self.scale, self.edge_factor, self.seed
        )
    }

    fn chunk_seed(&self, chunk: u64) -> u64 {
        let mut s = SplitMix64(self.seed ^ (u64::from(self.scale) << 56));
        s.0 ^= u64::from(self.edge_factor) << 40;
        s.0 = s.0.wrapping_add(chunk.wrapping_mul(0xd6e8_feb8_6659_fd93));
        s.next()
    }

    /// Calls `f(src, dst)` for every sampled edge of one chunk.
    fn for_each_in_chunk(&self, chunk: u64, mut f: impl FnMut(u32, u32)) {
        let m = self.sampled_edges();
        let per = m.div_ceil(CHUNKS);
        let count = per.min(m.saturating_sub(chunk * per));
        let mut rng = SplitMix64(self.chunk_seed(chunk));
        for _ in 0..count {
            let (mut src, mut dst) = (0u32, 0u32);
            let (mut bits, mut left) = (0u64, 0u32);
            for _ in 0..self.scale {
                if left == 0 {
                    bits = rng.next();
                    left = 4;
                }
                let r = (bits & 0xffff) as u32;
                bits >>= 16;
                left -= 1;
                // Branch-free quadrant pick: src is set in c and d,
                // dst in b and d.
                let s_bit = u32::from(r >= T_AB);
                let d_bit = u32::from(r >= T_A) ^ s_bit ^ u32::from(r >= T_ABC);
                src = (src << 1) | s_bit;
                dst = (dst << 1) | d_bit;
            }
            f(src, dst);
        }
    }
}

/// SplitMix64: small, fast and fully determined by its seed.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }
}

/// A generated graph as plain CSR arrays.
#[derive(Debug, PartialEq, Eq)]
pub struct CsrArrays {
    /// Row offsets, `nodes + 1` entries.
    pub offsets: Vec<u64>,
    /// Sorted, duplicate-free targets per row.
    pub targets: Vec<u32>,
}

/// Samples the graph `spec` describes, in two passes over the same RNG
/// streams (count, then place), so memory stays at the size of the
/// result. Each thread owns a fixed set of chunks and, in every row, the
/// slots after those of lower-numbered threads; rows are sorted
/// afterwards, so the result does not depend on the thread count.
pub fn generate(spec: &RmatSpec) -> CsrArrays {
    let n = spec.nodes() as usize;
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get().min(4));
    let per_thread = |f: &(dyn Fn(usize) -> Vec<u64> + Sync)| -> Vec<Vec<u64>> {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|t| s.spawn(move || f(t))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread panicked"))
                .collect()
        })
    };
    let chunks = |t: usize| (t as u64..CHUNKS).step_by(threads);
    let degrees = per_thread(&|t| {
        let mut deg = vec![0u64; n];
        for chunk in chunks(t) {
            spec.for_each_in_chunk(chunk, |src, dst| {
                if src != dst {
                    deg[src as usize] += 1;
                }
            });
        }
        deg
    });
    let mut offsets = vec![0u64; n + 1];
    for v in 0..n {
        offsets[v + 1] = offsets[v] + degrees.iter().map(|d| d[v]).sum::<u64>();
    }
    let slots: Vec<AtomicU32> = (0..offsets[n]).map(|_| AtomicU32::new(0)).collect();
    per_thread(&|t| {
        let mut cursor: Vec<u64> = (0..n)
            .map(|v| offsets[v] + degrees[..t].iter().map(|d| d[v]).sum::<u64>())
            .collect();
        for chunk in chunks(t) {
            spec.for_each_in_chunk(chunk, |src, dst| {
                if src != dst {
                    let c = &mut cursor[src as usize];
                    slots[*c as usize].store(dst, Ordering::Relaxed);
                    *c += 1;
                }
            });
        }
        Vec::new()
    });
    drop(degrees);
    // Same layout, so this reuses the allocation.
    let mut targets: Vec<u32> = slots.into_iter().map(AtomicU32::into_inner).collect();
    // Sort and deduplicate each row, then close the gaps.
    let mut out = 0usize;
    let mut new_offsets = vec![0u64; n + 1];
    for v in 0..n {
        let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
        targets[lo..hi].sort_unstable();
        for i in lo..hi {
            if i == lo || targets[i] != targets[i - 1] {
                targets[out] = targets[i];
                out += 1;
            }
        }
        new_offsets[v + 1] = out as u64;
    }
    targets.truncate(out);
    targets.shrink_to_fit();
    CsrArrays {
        offsets: new_offsets,
        targets,
    }
}

/// FNV-style checksum over the offsets and targets, word by word.
pub fn checksum(offsets: &[u64], targets: &[u32]) -> u64 {
    let mut h = Checksum::new();
    offsets.iter().for_each(|&o| h.add(o));
    targets.iter().for_each(|&t| h.add(u64::from(t)));
    h.0
}

struct Checksum(u64);

impl Checksum {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Path of the cached input for `spec` under the work directory.
pub fn cache_path(work: &Path, spec: &RmatSpec) -> PathBuf {
    work.join("inputs").join(spec.file_name())
}

/// Generates `spec` and writes it to `path` atomically (temp + rename).
pub fn write_cached(spec: &RmatSpec, path: &Path) -> io::Result<()> {
    let g = generate(spec);
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    {
        let mut w = BufWriter::new(File::create(&tmp)?);
        w.write_all(MAGIC)?;
        for word in [
            u64::from(spec.scale),
            u64::from(spec.edge_factor),
            spec.seed,
            u64::from(spec.nodes()),
            g.targets.len() as u64,
            checksum(&g.offsets, &g.targets),
        ] {
            w.write_all(&word.to_le_bytes())?;
        }
        for &o in &g.offsets {
            w.write_all(&o.to_le_bytes())?;
        }
        for &t in &g.targets {
            w.write_all(&t.to_le_bytes())?;
        }
        w.flush()?;
    }
    fs::rename(&tmp, path)?;
    prune_cache(path, spec);
    Ok(())
}

/// Removes older cached inputs of the same shape so scale-22 files do
/// not pile up across seeds.
fn prune_cache(keep: &Path, spec: &RmatSpec) {
    let Some(dir) = keep.parent() else { return };
    let prefix = format!("rmat{}-ef{}-seed", spec.scale, spec.edge_factor);
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut same: Vec<(std::time::SystemTime, PathBuf)> = entries
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
        .filter_map(|e| Some((e.metadata().ok()?.modified().ok()?, e.path())))
        .collect();
    same.sort();
    let excess = same.len().saturating_sub(KEEP_PER_SHAPE);
    for (_, p) in same.into_iter().take(excess) {
        if p != keep {
            let _ = fs::remove_file(p);
        }
    }
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads and re-validates a cached input: parameters, node count, edge
/// count and checksum must all match before the arrays are returned.
pub fn read_cached(spec: &RmatSpec, path: &Path) -> io::Result<CsrArrays> {
    let mut r = BufReader::with_capacity(1 << 20, File::open(path)?);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad(format!("{}: bad magic", path.display())));
    }
    let header: Vec<u64> = (0..6)
        .map(|_| read_u64(&mut r))
        .collect::<io::Result<_>>()?;
    let (nodes, edges, sum) = (header[3], header[4], header[5]);
    let expect = [
        u64::from(spec.scale),
        u64::from(spec.edge_factor),
        spec.seed,
        u64::from(spec.nodes()),
    ];
    if header[..4] != expect {
        return Err(bad(format!(
            "{}: parameters {:?} differ from {:?}",
            path.display(),
            &header[..4],
            expect
        )));
    }
    if edges == 0 || edges > spec.sampled_edges() {
        return Err(bad(format!(
            "{}: edge count {edges} outside 1..={}",
            path.display(),
            spec.sampled_edges()
        )));
    }
    let mut h = Checksum::new();
    let mut offsets = Vec::with_capacity(nodes as usize + 1);
    let mut buf = vec![0u8; 1 << 20];
    let mut left = (nodes as usize + 1) * 8;
    while left > 0 {
        let take = left.min(buf.len());
        r.read_exact(&mut buf[..take])?;
        for w in buf[..take].chunks_exact(8) {
            let o = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
            h.add(o);
            offsets.push(o);
        }
        left -= take;
    }
    let mut targets = Vec::with_capacity(edges as usize);
    left = edges as usize * 4;
    while left > 0 {
        let take = left.min(buf.len());
        r.read_exact(&mut buf[..take])?;
        for w in buf[..take].chunks_exact(4) {
            let t = u32::from_le_bytes(w.try_into().expect("4-byte chunk"));
            h.add(u64::from(t));
            targets.push(t);
        }
        left -= take;
    }
    if r.read(&mut buf[..1])? != 0 {
        return Err(bad(format!("{}: trailing bytes", path.display())));
    }
    if h.0 != sum || offsets.last() != Some(&edges) {
        return Err(bad(format!("{}: checksum mismatch", path.display())));
    }
    Ok(CsrArrays { offsets, targets })
}

/// Hands validated arrays to the program (`Csr::from_parts` checks the
/// structure again).
pub fn into_csr(spec: &RmatSpec, arrays: CsrArrays) -> Result<Csr, String> {
    Csr::from_parts(spec.nodes(), arrays.offsets, arrays.targets).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(seed: u64) -> RmatSpec {
        RmatSpec {
            scale: 10,
            edge_factor: 8,
            seed,
        }
    }

    #[test]
    fn same_seed_gives_the_same_graph() {
        let a = generate(&spec(7));
        let b = generate(&spec(7));
        assert_eq!(a, b);
        assert_ne!(a, generate(&spec(8)));
    }

    #[test]
    fn rows_are_sorted_unique_and_loop_free() {
        let g = generate(&spec(3));
        assert_eq!(g.offsets.len(), 1025);
        assert!(g.targets.len() as u64 > spec(3).sampled_edges() * 8 / 10);
        for v in 0..1024 {
            let row = &g.targets[g.offsets[v] as usize..g.offsets[v + 1] as usize];
            assert!(row.windows(2).all(|w| w[0] < w[1]));
            assert!(!row.contains(&(v as u32)));
        }
    }

    #[test]
    fn cache_round_trips_and_rejects_corruption() {
        let dir = std::env::temp_dir().join(format!("pcpm-benchmark-input-{}", std::process::id()));
        let s = spec(11);
        let path = cache_path(&dir, &s);
        write_cached(&s, &path).unwrap();
        assert_eq!(read_cached(&s, &path).unwrap(), generate(&s));
        assert!(read_cached(&spec(12), &path).is_err());
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        fs::write(&path, &bytes).unwrap();
        assert!(read_cached(&s, &path).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
