//! Engine configuration, and the worker pools engines run on.
//!
//! [`PcpmConfig::threads`] picks a pool by thread count: one pool per
//! count for the whole process ([`shared_pool`]), shared by every engine
//! and baseline driver that asks for that count. Nothing else builds a
//! pool for an explicit thread count.

use crate::error::PcpmError;
use crate::format::BinFormatKind;
use std::sync::{Arc, OnceLock, PoisonError};

/// Size of one PageRank / update value in bytes (the paper uses 4-byte
/// values and indices throughout, §5.1).
pub const VALUE_BYTES: usize = 4;

/// Default partition footprint: 256 KB of vertex values, the empirically
/// optimal point found in the paper's design-space exploration (§5.3.2,
/// Fig. 13–14) for a 256 KB private L2.
pub const DEFAULT_PARTITION_BYTES: usize = 256 * 1024;

/// Configuration for the PCPM engine and the PageRank driver.
///
/// # Examples
///
/// ```
/// use pcpm_core::PcpmConfig;
///
/// let cfg = PcpmConfig::default().with_partition_bytes(64 * 1024);
/// assert_eq!(cfg.partition_nodes(), 16 * 1024);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PcpmConfig {
    /// Bytes of vertex values a partition may occupy; divided by
    /// [`VALUE_BYTES`] this gives the partition size `q` in nodes.
    pub partition_bytes: usize,
    /// Damping factor `d` of the PageRank recurrence (default 0.85).
    pub damping: f64,
    /// Number of PageRank iterations (the paper runs 20).
    pub iterations: usize,
    /// Optional early-exit tolerance on the L1 delta between successive
    /// PageRank vectors; `None` always runs all `iterations`.
    pub tolerance: Option<f64>,
    /// Redistribute the rank mass of dangling nodes uniformly. The paper's
    /// kernels drop it (mass decays); keep `false` to match.
    pub redistribute_dangling: bool,
    /// Physical destination-ID encoding of the PCPM bins: wide 32-bit
    /// global IDs (the paper's §3.2 layout), compact 16-bit
    /// partition-local IDs (§6; [`Self::partition_nodes`] caps its
    /// partitions at 2^15 nodes), or delta-encoded varints
    /// (`--format delta`).
    pub bin_format: BinFormatKind,
    /// Thread count of the worker pool the engine runs on (prepare,
    /// every step and incremental repair): the process-wide
    /// [`shared_pool`] for that count, shared with every other engine
    /// and driver configured the same; `None` uses the ambient global
    /// pool. Engine backends produce bit-identical results for
    /// any value (see the rayon shim's determinism contract); the one
    /// exception is the atomic-accumulation `push_pagerank` baseline
    /// driver in `pcpm-baselines`.
    pub threads: Option<usize>,
}

impl Default for PcpmConfig {
    fn default() -> Self {
        Self {
            partition_bytes: DEFAULT_PARTITION_BYTES,
            damping: 0.85,
            iterations: 20,
            tolerance: None,
            redistribute_dangling: false,
            bin_format: BinFormatKind::Wide,
            threads: None,
        }
    }
}

impl PcpmConfig {
    /// Partition size `q` in nodes. The compact format's 15-bit local
    /// IDs cap it at [`MAX_COMPACT_PARTITION`](crate::compact::MAX_COMPACT_PARTITION)
    /// nodes, so compact bins build at any byte budget (the default one
    /// included) with partitions no larger than they can encode.
    pub fn partition_nodes(&self) -> u32 {
        let q = (self.partition_bytes / VALUE_BYTES).max(1) as u32;
        match self.bin_format {
            BinFormatKind::Compact => q.min(crate::compact::MAX_COMPACT_PARTITION),
            _ => q,
        }
    }

    /// Returns a copy with a different partition byte budget.
    pub fn with_partition_bytes(mut self, bytes: usize) -> Self {
        self.partition_bytes = bytes;
        self
    }

    /// Returns a copy with a different iteration count.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Returns a copy with a convergence tolerance.
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        self.tolerance = Some(tol);
        self
    }

    /// Returns a copy with an explicit thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Returns a copy with a different bin format.
    pub fn with_bin_format(mut self, format: BinFormatKind) -> Self {
        self.bin_format = format;
        self
    }

    /// Returns a copy with compact 16-bit destination bins enabled
    /// (shorthand for `with_bin_format(BinFormatKind::Compact)`).
    pub fn with_compact_bins(mut self) -> Self {
        self.bin_format = BinFormatKind::Compact;
        self
    }

    /// Validates field ranges.
    pub fn validate(&self) -> Result<(), PcpmError> {
        if self.partition_bytes < VALUE_BYTES {
            return Err(PcpmError::PartitionTooSmall);
        }
        if !(0.0..=1.0).contains(&self.damping) {
            return Err(PcpmError::BadConfig("damping must be in [0, 1]"));
        }
        if let Some(t) = self.tolerance {
            // NaN must be rejected too, hence the explicit finite check.
            if !t.is_finite() || t <= 0.0 {
                return Err(PcpmError::BadConfig("tolerance must be positive"));
            }
        }
        if self.threads == Some(0) {
            return Err(PcpmError::BadConfig("threads must be at least 1"));
        }
        Ok(())
    }
}

/// The memoized pools behind [`shared_pool`], one per thread count.
type PoolCache = std::sync::Mutex<std::collections::BTreeMap<usize, Arc<rayon::ThreadPool>>>;

fn pool_cache() -> &'static PoolCache {
    static POOLS: OnceLock<PoolCache> = OnceLock::new();
    POOLS.get_or_init(PoolCache::default)
}

/// Returns the process-wide shared worker pool for `threads`, building
/// it on first request and reusing it for every later one.
///
/// This is the one owner of explicit-thread-count pools: every
/// [`Engine`](crate::Engine) built with `threads: Some(t)` and every
/// baseline driver ([`run_with_threads`]) runs on the pool returned
/// here, so workers for a given thread count are spawned once per
/// process, however many engines are built, rebuilt or dropped.
/// Engines sharing a pool take turns on it: the shim runs one parallel
/// op per pool at a time, and a 1-thread pool runs everything inline on
/// the caller.
///
/// A panic while another thread held the cache lock cannot leave the
/// map half-updated (each entry is one whole `Arc`, inserted in one
/// step), so a poisoned lock is recovered rather than propagated.
pub fn shared_pool(threads: usize) -> Arc<rayon::ThreadPool> {
    let mut pools = pool_cache().lock().unwrap_or_else(PoisonError::into_inner);
    Arc::clone(pools.entry(threads).or_insert_with(|| {
        Arc::new(
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("failed to build rayon pool"),
        )
    }))
}

/// Runs `f` on the shared pool for the configured thread count, or
/// inline on the ambient pool when unset. Shared by every kernel in the
/// workspace so thread-count sweeps treat all methods identically; the
/// pool is memoized per thread count (see [`shared_pool`]), so repeated
/// calls — the five baseline drivers, repeated prepares — never respawn
/// workers.
pub fn run_with_threads<R: Send>(threads: Option<usize>, f: impl FnOnce() -> R + Send) -> R {
    match threads {
        Some(t) => shared_pool(t).install(f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_constants() {
        let c = PcpmConfig::default();
        assert_eq!(c.partition_bytes, 256 * 1024);
        assert_eq!(c.partition_nodes(), 65_536);
        assert_eq!(c.iterations, 20);
        assert!((c.damping - 0.85).abs() < 1e-12);
        c.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_fields() {
        assert_eq!(
            PcpmConfig::default().with_partition_bytes(0).validate(),
            Err(PcpmError::PartitionTooSmall)
        );
        let c = PcpmConfig {
            damping: 1.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = PcpmConfig {
            tolerance: Some(-1.0),
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = PcpmConfig {
            tolerance: Some(f64::NAN),
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = PcpmConfig {
            threads: Some(0),
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn builders_compose() {
        let c = PcpmConfig::default()
            .with_partition_bytes(1024)
            .with_iterations(5)
            .with_tolerance(1e-9)
            .with_threads(2);
        assert_eq!(c.partition_nodes(), 256);
        assert_eq!(c.iterations, 5);
        assert_eq!(c.tolerance, Some(1e-9));
        assert_eq!(c.threads, Some(2));
    }

    #[test]
    fn run_with_threads_executes() {
        assert_eq!(run_with_threads(Some(2), || 41 + 1), 42);
        assert_eq!(run_with_threads(None, || 7), 7);
    }

    #[test]
    fn shared_pool_is_built_once_per_thread_count() {
        // Pool identity proves build-once/serve-many without racing on
        // the process-global spawn counters.
        let a = shared_pool(3);
        let b = shared_pool(3);
        assert!(Arc::ptr_eq(&a, &b), "same pool on every call");
        let c = shared_pool(2);
        assert!(!Arc::ptr_eq(&a, &c), "per-thread-count pools");
        assert_eq!(a.current_num_threads(), 3);
        // And the memoized pool actually runs work.
        assert_eq!(run_with_threads(Some(3), || 6 * 7), 42);
    }

    #[test]
    fn shared_pool_survives_a_poisoned_cache_lock() {
        let before = shared_pool(3);
        let poisoner = std::thread::spawn(|| {
            let _held = pool_cache().lock();
            panic!("panic while holding the pool cache lock");
        });
        assert!(poisoner.join().is_err());
        assert!(pool_cache().is_poisoned());
        let after = shared_pool(3);
        assert!(Arc::ptr_eq(&before, &after), "cache entries survive");
        assert_eq!(shared_pool(2).current_num_threads(), 2);
    }
}
