//! Offline stand-in for the subset of [rayon](https://docs.rs/rayon)
//! this workspace uses — backed by a real `std::thread` work-sharing
//! pool since PR 3 (the build environment has no crates.io access, so
//! upstream rayon cannot be a dependency; swapping it back in remains a
//! one-line change in the root `Cargo.toml` and requires no source
//! edits).
//!
//! # What is real
//!
//! - [`ThreadPool`] spawns persistent named workers
//!   (`ThreadPoolBuilder::num_threads(n)`, `0` = available
//!   parallelism / `RAYON_NUM_THREADS`); dropping the pool shuts the
//!   workers down and joins them.
//! - `par_iter` / `par_iter_mut` / `into_par_iter` over slices, `Vec`s
//!   and integer ranges — the only call-site shapes in the workspace —
//!   run chunked across the pool, as do [`join`] and
//!   `par_sort`/`par_sort_unstable`.
//!
//! # Determinism
//!
//! Every parallel op splits `0..len` into chunks whose boundaries are a
//! pure function of `len` (never of the thread count), drives chunks
//! sequentially in ascending index order, and combines per-chunk
//! results in chunk order. Floating-point reductions therefore round
//! identically on 1 and N threads, and kernels that write disjoint
//! output slices are bit-identical by construction — the property the
//! workspace's `parallel_determinism` suite asserts for every backend.
//!
//! # Divergences from upstream rayon
//!
//! - [`ThreadPool::install`] runs the closure on the *calling* thread
//!   (upstream moves it to a worker); parallel ops inside still
//!   dispatch to the installed pool, so engine semantics are identical.
//! - No work stealing: one job is in flight per pool at a time, and
//!   nested parallel ops (including nested [`join`]) run inline on the
//!   thread that issued them — deadlock-free by construction.
//! - A 1-thread pool executes inline on the caller instead of paying a
//!   cross-thread handoff; the chunk decomposition is unchanged.

mod iter;
mod pool;
mod sort;

/// The parallel-iterator traits, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::iter::{
        FromParallelIterator, IndexedParallelIterator, IntoParallelIterator,
        IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelIterator, ParallelSliceMut,
    };
}

pub use iter::{FromParallelIterator, IndexedParallelIterator, ParallelIterator};

/// Number of threads governing parallel ops started on the current
/// thread: the worker's own pool on pool threads, the installed pool
/// inside [`ThreadPool::install`], otherwise the global default.
pub fn current_num_threads() -> usize {
    pool::current_threads()
}

/// Runs `a` and `b`, potentially in parallel (`b` is offloaded to the
/// ambient pool while the calling thread runs `a`). On worker threads
/// and inside an already-running job both run inline — nested joins
/// never deadlock.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    pool::join(a, b)
}

/// Error type returned by [`ThreadPoolBuilder::build`] (never
/// constructed by the shim; kept for API compatibility).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error (unreachable in the shim)")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A pool of persistent worker threads. Parallel ops started inside
/// [`ThreadPool::install`] run on it; dropping the pool joins the
/// workers.
pub struct ThreadPool {
    handle: pool::PoolHandle,
}

impl ThreadPool {
    /// Runs `op` with this pool installed as the ambient pool for the
    /// duration (on the calling thread — see the module docs for the
    /// divergence from upstream). The `Send` bounds match the real
    /// rayon signature so code written against the shim compiles
    /// unchanged against the real crate.
    pub fn install<R: Send>(&self, op: impl FnOnce() -> R + Send) -> R {
        let _guard = pool::InstallGuard::push(self.handle.shared());
        op()
    }

    /// This pool's thread count.
    pub fn current_num_threads(&self) -> usize {
        self.handle.num_workers()
    }

    /// Shim extension: worker threads this pool spawned (equals the
    /// configured thread count). Used by the workspace's pool
    /// instrumentation regression tests.
    pub fn num_workers(&self) -> usize {
        self.handle.num_workers()
    }
}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    threads: usize,
}

impl ThreadPoolBuilder {
    /// Creates a builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count; `0` (the default) means available
    /// parallelism, honoring `RAYON_NUM_THREADS`.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Spawns the workers.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.threads == 0 {
            pool::default_threads()
        } else {
            self.threads
        };
        Ok(ThreadPool {
            handle: pool::PoolHandle::new(threads),
        })
    }
}

/// Monotonic process-wide instrumentation counters. These only ever
/// increase, so tests can assert deltas without coordinating with
/// concurrently running tests.
pub mod diagnostics {
    use std::sync::atomic::Ordering;

    /// Worker threads spawned since process start.
    pub fn workers_spawned() -> usize {
        crate::pool::WORKERS_SPAWNED.load(Ordering::Relaxed)
    }

    /// Worker threads that have exited (pools joined on drop).
    pub fn workers_exited() -> usize {
        crate::pool::WORKERS_EXITED.load(Ordering::Relaxed)
    }

    /// Jobs dispatched to worker pools (inline runs are not counted).
    pub fn jobs_dispatched() -> usize {
        crate::pool::JOBS_DISPATCHED.load(Ordering::Relaxed)
    }

    /// Jobs the calling thread dispatched to worker pools since it
    /// started. `ThreadPool::install` runs its closure on the caller and
    /// nested ops run inline, so the difference across a call counts
    /// exactly the jobs that call submitted, whatever other threads do.
    pub fn jobs_dispatched_by_this_thread() -> usize {
        crate::pool::JOBS_DISPATCHED_HERE.with(std::cell::Cell::get)
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn pool(n: usize) -> super::ThreadPool {
        super::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
    }

    #[test]
    fn par_iter_matches_iter() {
        let v = vec![1, 2, 3, 4];
        let s: i32 = v.par_iter().sum();
        assert_eq!(s, 10);
        let doubled: Vec<i32> = v.into_par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8]);
    }

    #[test]
    fn par_iter_mut_mutates() {
        let mut v = vec![1, 2, 3];
        v.par_iter_mut().for_each(|x| *x += 1);
        assert_eq!(v, vec![2, 3, 4]);
    }

    #[test]
    fn ranges_and_slices_of_mut_slices_work() {
        let mut data = vec![0u32; 6];
        let (a, b) = data.split_at_mut(3);
        vec![a, b]
            .into_par_iter()
            .enumerate()
            .for_each(|(i, s)| s.fill(i as u32));
        assert_eq!(data, vec![0, 0, 0, 1, 1, 1]);
        let total: u32 = (0u32..5).into_par_iter().sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn pool_installs_and_runs_work() {
        let pool = pool(4);
        assert_eq!(pool.install(|| 21 * 2), 42);
        // A large enough op inside install actually crosses the pool.
        let before = super::diagnostics::jobs_dispatched();
        let n = 1 << 16;
        let mut out = vec![0u64; n];
        pool.install(|| {
            out.par_iter_mut()
                .enumerate()
                .for_each(|(i, slot)| *slot = i as u64 * 3);
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 * 3));
        assert!(super::diagnostics::jobs_dispatched() > before);
    }

    #[test]
    fn per_thread_dispatch_count_ignores_other_threads() {
        let pool = pool(2);
        let work = || {
            let here = super::diagnostics::jobs_dispatched_by_this_thread();
            pool.install(|| (0u64..10_000).into_par_iter().sum::<u64>());
            super::diagnostics::jobs_dispatched_by_this_thread() - here
        };
        let alone = work();
        assert_eq!(alone, 1, "one chunked op is one job");
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(work);
            let b = s.spawn(work);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!((a, b), (alone, alone));
    }

    #[test]
    fn par_sort_sorts() {
        let mut v = vec![3u8, 1, 2];
        v.par_sort_unstable();
        assert_eq!(v, vec![1, 2, 3]);
        // Large enough to exercise the parallel merge path.
        let mut big: Vec<u64> = (0..100_000u64)
            .map(|i| i.wrapping_mul(0x9e3779b9) % 7919)
            .collect();
        let mut want = big.clone();
        want.sort_unstable();
        big.par_sort_unstable();
        assert_eq!(big, want);
        let mut stable: Vec<(u32, u32)> = (0..50_000u32).map(|i| (i % 13, i)).collect();
        let mut want2 = stable.clone();
        want2.sort();
        stable.par_sort();
        assert_eq!(stable, want2);
    }

    #[test]
    fn zip_filter_map_sum_matches_serial() {
        let a: Vec<f32> = (0..10_000).map(|i| (i % 97) as f32).collect();
        let d: Vec<u64> = (0..10_000).map(|i| (i % 3) as u64).collect();
        let par: f64 = a
            .par_iter()
            .zip(&d)
            .filter(|(_, &deg)| deg == 0)
            .map(|(&x, _)| f64::from(x))
            .sum();
        let serial: f64 = a
            .iter()
            .zip(&d)
            .filter(|(_, &deg)| deg == 0)
            .map(|(&x, _)| f64::from(x))
            .sum();
        // Identical chunking on every path keeps this bit-exact.
        assert_eq!(par.to_bits(), serial.to_bits());
    }

    #[test]
    fn reductions_bit_identical_across_thread_counts() {
        // Adversarial float magnitudes: any change in association order
        // would change the rounding, so bit equality proves the chunk
        // decomposition is thread-count independent.
        let v: Vec<f64> = (0..100_000)
            .map(|i| ((i * 2654435761u64 % 1000) as f64).powi((i % 7) as i32 - 3))
            .collect();
        let sums: Vec<u64> = [1usize, 2, 4, 8]
            .iter()
            .map(|&t| pool(t).install(|| v.par_iter().sum::<f64>().to_bits()))
            .collect();
        assert!(sums.windows(2).all(|w| w[0] == w[1]), "sums {sums:?}");
    }

    #[test]
    fn panic_in_one_task_propagates_and_pool_survives() {
        let pool = pool(4);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                (0u32..10_000).into_par_iter().for_each(|i| {
                    assert!(i != 4321, "boom at {i}");
                });
            });
        }));
        let msg = r.expect_err("panic must propagate");
        let text = msg.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(text.contains("boom at 4321"), "payload: {text}");
        // The pool keeps serving jobs after the poisoned one.
        let total: u64 = pool.install(|| (0u64..1000).into_par_iter().sum());
        assert_eq!(total, 499_500);
    }

    #[test]
    fn zero_threads_falls_back_to_available_parallelism() {
        let pool = pool(0);
        assert!(pool.num_workers() >= 1);
        assert_eq!(pool.num_workers(), super::pool::default_threads());
    }

    #[test]
    fn nested_join_does_not_deadlock() {
        let pool = pool(2);
        let r = pool.install(|| {
            super::join(
                || {
                    let (a, b) = super::join(|| 1, || 2);
                    a + b
                },
                || {
                    let (c, d) = super::join(|| 10, || 20);
                    c + d
                },
            )
        });
        assert_eq!(r, (3, 30));
        // join nested inside a parallel op (worker context) is inline.
        let s: u32 = pool.install(|| {
            (0u32..64)
                .into_par_iter()
                .map(|i| super::join(|| i, || i).0)
                .sum()
        });
        assert_eq!(s, 2016);
    }

    #[test]
    fn join_panic_propagates() {
        let pool = pool(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| super::join(|| 1, || panic!("join-b dies")))
        }));
        assert!(r.is_err());
        // And the caller side too.
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| super::join(|| panic!("join-a dies"), || 2))
        }));
        assert!(r.is_err());
        assert_eq!(pool.install(|| super::join(|| 5, || 6)), (5, 6));
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let spawned_before = super::diagnostics::workers_spawned();
        let exited_before = super::diagnostics::workers_exited();
        let p = pool(3);
        assert!(super::diagnostics::workers_spawned() >= spawned_before + 3);
        // The pool is usable before being dropped.
        assert_eq!(
            p.install(|| (0u64..10_000).into_par_iter().sum::<u64>()),
            49_995_000
        );
        drop(p);
        assert!(super::diagnostics::workers_exited() >= exited_before + 3);
    }

    #[test]
    fn collect_preserves_order_with_many_chunks() {
        let n = 123_457usize;
        let v: Vec<usize> = (0..n).into_par_iter().map(|i| i * 7).collect();
        assert_eq!(v.len(), n);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 7));
    }
}
