//! Offline stand-in for `rayon`.
//!
//! The container this workspace builds in has no crates.io access, so
//! this crate provides the parallel-iterator subset the workspace uses
//! (`into_par_iter()` / `par_iter()` followed by one `map` and a
//! terminal `sum` / `collect` / `min_by_key`), executed
//! on scoped `std::thread` workers that **claim items dynamically**
//! from a shared queue (an atomic cursor over the item list) instead of
//! the fixed contiguous chunks earlier versions used. Heterogeneous
//! items — a saturated simulation next to one that drains instantly —
//! therefore balance automatically: a worker that finishes early keeps
//! claiming, it is never stuck with a pre-assigned chunk. (Whole-sweep
//! scheduling with persistent workers, stealing *between* worker
//! deques and streamed results lives one level up, in
//! `slimfly::schedule::Scheduler`; this crate stays a drop-in for
//! rayon's iterator façade.)
//!
//! Thread count: `RAYON_NUM_THREADS` if set, else
//! `std::thread::available_parallelism()`.

/// Everything call sites need in scope.
pub mod prelude {
    pub use crate::iter::{IntoParallelIterator, ParallelSlice};
}

/// The parallel-iterator façade.
pub mod iter {
    /// Number of worker threads to use for a job of `len` items.
    fn num_threads(len: usize) -> usize {
        let configured = std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0);
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        configured.unwrap_or(hw).min(len).max(1)
    }

    /// Applies `f` to every item on scoped worker threads, preserving
    /// input order in the output. Workers claim items one at a time
    /// through a shared atomic cursor, so uneven item costs balance
    /// dynamically (no fixed chunk assignment).
    fn par_map_vec<T, R, F>(items: Vec<T>, f: &F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;

        let threads = num_threads(items.len());
        if threads <= 1 {
            return items.into_iter().map(f).collect();
        }
        // Item cells are taken by exactly one worker; result cells are
        // written by exactly one worker. The per-cell mutexes are
        // uncontended (the cursor hands every index to one claimant)
        // and negligible next to the coarse-grained work items this
        // façade is used for.
        let tasks: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let results: Vec<Mutex<Option<R>>> = (0..tasks.len()).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= tasks.len() {
                        break;
                    }
                    let item = tasks[i]
                        .lock()
                        .expect("task cell poisoned")
                        .take()
                        .expect("task claimed twice");
                    let r = f(item);
                    *results[i].lock().expect("result cell poisoned") = Some(r);
                });
            }
        });
        results
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result cell poisoned")
                    .expect("parallel worker panicked")
            })
            .collect()
    }

    /// A materialized "parallel" iterator: the item list awaiting a
    /// `map` + terminal operation.
    pub struct ParIter<T> {
        items: Vec<T>,
    }

    impl<T: Send> ParIter<T> {
        /// Parallel map; the closure runs on worker threads at the
        /// terminal operation.
        pub fn map<R, F>(self, f: F) -> ParMap<T, F>
        where
            R: Send,
            F: Fn(T) -> R + Sync,
        {
            ParMap {
                items: self.items,
                f,
            }
        }
    }

    /// A mapped parallel iterator; terminal operations execute the map
    /// across threads.
    pub struct ParMap<T, F> {
        items: Vec<T>,
        f: F,
    }

    impl<T, F> ParMap<T, F>
    where
        T: Send,
    {
        /// Runs the map in parallel and collects results in input order.
        pub fn collect<R, C>(self) -> C
        where
            R: Send,
            F: Fn(T) -> R + Sync,
            C: FromIterator<R>,
        {
            par_map_vec(self.items, &self.f).into_iter().collect()
        }

        /// Runs the map in parallel and sums the results.
        pub fn sum<S>(self) -> S
        where
            S: Send + std::iter::Sum<S>,
            F: Fn(T) -> S + Sync,
        {
            par_map_vec(self.items, &self.f).into_iter().sum()
        }

        /// Runs the map in parallel and returns the item minimizing the
        /// key (first such item on ties, matching sequential order).
        pub fn min_by_key<R, K, G>(self, key: G) -> Option<R>
        where
            R: Send,
            K: Ord,
            F: Fn(T) -> R + Sync,
            G: FnMut(&R) -> K,
        {
            let mut key = key;
            par_map_vec(self.items, &self.f)
                .into_iter()
                // min_by_key returns the *last* minimum; fold keeps the
                // first, which matches rayon's deterministic reduce.
                .fold(None::<(K, R)>, |best, r| {
                    let k = key(&r);
                    match best {
                        Some((bk, br)) if bk <= k => Some((bk, br)),
                        _ => Some((k, r)),
                    }
                })
                .map(|(_, r)| r)
        }
    }

    /// Conversion of owned collections (ranges, vectors) into a parallel
    /// iterator.
    pub trait IntoParallelIterator {
        /// Item type.
        type Item: Send;
        /// Materializes the items for parallel processing.
        fn into_par_iter(self) -> ParIter<Self::Item>;
    }

    impl<I> IntoParallelIterator for I
    where
        I: IntoIterator,
        I::Item: Send,
    {
        type Item = I::Item;
        fn into_par_iter(self) -> ParIter<I::Item> {
            ParIter {
                items: self.into_iter().collect(),
            }
        }
    }

    /// `par_iter()` over slices (and anything that derefs to one).
    pub trait ParallelSlice<T: Sync> {
        /// Borrowing parallel iterator.
        fn par_iter(&self) -> ParIter<&T>;
    }

    impl<T: Sync> ParallelSlice<T> for [T] {
        fn par_iter(&self) -> ParIter<&T> {
            ParIter {
                items: self.iter().collect(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u32> = (0..1000u32).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v, (0..1000u32).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_sum() {
        let s: u64 = (0..101u64).into_par_iter().map(|x| x).sum();
        assert_eq!(s, 5050);
    }

    #[test]
    fn par_iter_on_slice() {
        let data = [1.5f64, 2.5, 3.0];
        let doubled: Vec<f64> = data.par_iter().map(|&x| x * 2.0).collect();
        assert_eq!(doubled, vec![3.0, 5.0, 6.0]);
    }

    #[test]
    fn min_by_key_takes_first_minimum() {
        let v = vec![(3, 'a'), (1, 'b'), (1, 'c'), (2, 'd')];
        let m = v.into_par_iter().map(|x| x).min_by_key(|&(k, _)| k);
        assert_eq!(m, Some((1, 'b')));
    }

    #[test]
    fn collect_into_option_vec() {
        let ok: Option<Vec<u32>> = (0..5u32).into_par_iter().map(Some).collect();
        assert_eq!(ok, Some(vec![0, 1, 2, 3, 4]));
        let bad: Option<Vec<u32>> = (0..5u32)
            .into_par_iter()
            .map(|x| if x == 3 { None } else { Some(x) })
            .collect();
        assert_eq!(bad, None);
    }
}
