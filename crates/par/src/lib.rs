//! Deterministic data parallelism on `std::thread::scope`.
//!
//! The offline pipeline (long-term DP, capacitor sizing, experiment
//! sweeps) fans out over independent work items. This crate provides
//! ordered `map` primitives: items are split into contiguous chunks,
//! one scoped worker per chunk, and results are reassembled in input
//! order — so parallel output is byte-for-byte identical to a serial
//! run no matter how the OS schedules the workers.
//!
//! Thread count comes from `HELIO_THREADS=<n>` (an explicit worker
//! count; `1` forces single-threaded execution), else
//! `std::thread::available_parallelism()`.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::any::Any;
use std::env;
use std::num::NonZeroUsize;
use std::panic;

/// A worker panic captured by [`par_zip_chunks_mut_quarantine`]: the
/// payload `std::thread::JoinHandle::join` (or `catch_unwind`) hands
/// back.
pub type PanicPayload = Box<dyn Any + Send + 'static>;

/// Best-effort human-readable text of a captured panic payload
/// (`panic!` with a string literal or formatted message; anything else
/// collapses to `"panic"`).
#[must_use]
pub fn panic_message(payload: &PanicPayload) -> &str {
    if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else {
        "panic"
    }
}

/// Number of worker threads parallel maps will use.
#[must_use]
pub fn configured_threads() -> usize {
    if let Ok(raw) = env::var("HELIO_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `0..n`, in parallel when workers are available,
/// returning results in index order.
///
/// # Panics
///
/// Re-raises any panic from `f` on the calling thread.
pub fn par_map_range<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = configured_threads().min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut parts: Vec<Vec<R>> = Vec::with_capacity(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let f = &f;
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n);
                s.spawn(move || (lo..hi).map(f).collect::<Vec<R>>())
            })
            .collect();
        for handle in handles {
            parts.push(handle.join().unwrap_or_else(|e| panic::resume_unwind(e)));
        }
    });
    parts.into_iter().flatten().collect()
}

/// Splits `0..n` into contiguous ranges of at most `chunk` items and
/// maps `f` over the ranges, in parallel, returning one result per
/// range in range order. This is the fan-out shape of the batched
/// engine: each range becomes one lockstep batch, and ordered
/// reassembly keeps sweep output byte-identical to a serial run.
///
/// # Panics
///
/// Re-raises any panic from `f` on the calling thread.
pub fn par_map_ranges<R, F>(n: usize, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> R + Sync,
{
    let chunk = chunk.max(1);
    let ranges = n.div_ceil(chunk);
    par_map_range(ranges, |c| f(c * chunk..((c + 1) * chunk).min(n)))
}

/// Maps `f` over a slice, in parallel, returning results in input
/// order.
///
/// # Panics
///
/// Re-raises any panic from `f` on the calling thread.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    // Every index is in range, so no `None` is dropped.
    par_map_range(items.len(), |i| items.get(i).map(&f))
        .into_iter()
        .flatten()
        .collect()
}

/// Maps `f(index, item)` over a mutable slice, in parallel, returning
/// results in input order. Each item is handed to exactly one worker,
/// so `f` may update it without a lock.
///
/// # Panics
///
/// Re-raises any panic from `f` on the calling thread.
pub fn par_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let mut indexed: Vec<(usize, &mut T)> = items.iter_mut().enumerate().collect();
    let mut workers = vec![(); configured_threads().min(indexed.len())];
    par_zip_chunks_mut(&mut indexed, &mut workers, |_, chunk, ()| {
        chunk
            .iter_mut()
            .map(|(i, item)| f(*i, item))
            .collect::<Vec<R>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Splits `items` into `states.len()` contiguous chunks (the first
/// `items.len().div_ceil(states.len())` items per chunk, last chunk
/// short) and runs `f(chunk_index, items_chunk, state)` once per chunk
/// with exclusive access to that chunk's state, one scoped worker per
/// chunk. Results come back in chunk order.
///
/// This is the shard-dispatch shape of the sharded batch engine: each
/// worker owns a mutable slice of scenarios plus its own scratch
/// state, and because chunk boundaries depend only on the two lengths
/// — never on thread count or scheduling — a parallel run partitions
/// the work identically to the serial fallback.
///
/// Chunks beyond `items.len()` (more states than items) receive an
/// empty item slice.
///
/// # Panics
///
/// Re-raises any panic from `f` on the calling thread.
pub fn par_zip_chunks_mut<T, S, R, F>(items: &mut [T], states: &mut [S], f: F) -> Vec<R>
where
    T: Send,
    S: Send,
    R: Send,
    F: Fn(usize, &mut [T], &mut S) -> R + Sync,
{
    par_zip_chunks_mut_quarantine(items, states, f)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic::resume_unwind(e)))
        .collect()
}

/// [`par_zip_chunks_mut`] that *quarantines* worker panics instead of
/// re-raising them: each chunk's result is `Ok(r)` or `Err(payload)`,
/// so one poisoned chunk cannot take down the siblings (or the
/// caller). The service layer uses this to turn a panicking scenario
/// into a per-request error line instead of a dead worker pool.
///
/// The chunk whose worker panicked leaves its `items`/`state` in
/// whatever state the unwind found them — callers must treat them as
/// garbage.
pub fn par_zip_chunks_mut_quarantine<T, S, R, F>(
    items: &mut [T],
    states: &mut [S],
    f: F,
) -> Vec<Result<R, PanicPayload>>
where
    T: Send,
    S: Send,
    R: Send,
    F: Fn(usize, &mut [T], &mut S) -> R + Sync,
{
    let chunks = states.len();
    if chunks == 0 {
        return Vec::new();
    }
    let chunk = items.len().div_ceil(chunks).max(1);
    if configured_threads() <= 1 || chunks == 1 {
        let mut rest = items;
        return states
            .iter_mut()
            .enumerate()
            .map(|(c, state)| {
                let take = chunk.min(rest.len());
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(take);
                rest = tail;
                panic::catch_unwind(panic::AssertUnwindSafe(|| f(c, head, state)))
            })
            .collect();
    }
    let mut results: Vec<Result<R, PanicPayload>> = Vec::with_capacity(chunks);
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(chunks);
        let mut rest_items = items;
        let mut rest_states = states;
        for c in 0..chunks {
            let take = chunk.min(rest_items.len());
            let (head, tail) = std::mem::take(&mut rest_items).split_at_mut(take);
            rest_items = tail;
            let (state, states_tail) = match std::mem::take(&mut rest_states).split_first_mut() {
                Some(pair) => pair,
                None => break,
            };
            rest_states = states_tail;
            let f = &f;
            handles.push(s.spawn(move || f(c, head, state)));
        }
        for handle in handles {
            results.push(handle.join());
        }
    });
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let squares = par_map_range(1000, |i| i * i);
        assert_eq!(squares.len(), 1000);
        for (i, s) in squares.iter().enumerate() {
            assert_eq!(*s, i * i);
        }
    }

    #[test]
    fn handles_edge_sizes() {
        assert!(par_map_range(0, |i| i).is_empty());
        assert_eq!(par_map_range(1, |i| i + 7), vec![7]);
        let items = [3.0f64, 1.5, -2.0];
        assert_eq!(par_map(&items, |x| x * 2.0), vec![6.0, 3.0, -4.0]);
    }

    #[test]
    fn matches_serial_map() {
        let parallel = par_map_range(257, |i| format!("{i}:{}", i % 7));
        let serial: Vec<String> = (0..257).map(|i| format!("{i}:{}", i % 7)).collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn map_mut_visits_each_item_once_in_order() {
        let mut items: Vec<usize> = (0..37).collect();
        let out = par_map_mut(&mut items, |i, x| {
            *x += 100;
            (i, *x)
        });
        assert_eq!(out, (0..37).map(|i| (i, i + 100)).collect::<Vec<_>>());
        assert!(items.iter().enumerate().all(|(i, &x)| x == i + 100));
        assert!(par_map_mut(&mut Vec::<u8>::new(), |_, _| 0).is_empty());
    }

    #[test]
    fn range_chunks_cover_exactly_once() {
        let parts = par_map_ranges(10, 4, |r| r.collect::<Vec<usize>>());
        assert_eq!(parts, vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]]);
        assert!(par_map_ranges(0, 4, |r| r.len()).is_empty());
        // A zero chunk is clamped to 1 instead of dividing by zero.
        assert_eq!(par_map_ranges(3, 0, |r| r.start), vec![0, 1, 2]);
    }

    #[test]
    fn zip_chunks_partitions_deterministically() {
        let mut items: Vec<usize> = (0..10).collect();
        let mut states = vec![0usize; 3];
        let seen = par_zip_chunks_mut(&mut items, &mut states, |c, chunk, state| {
            *state = chunk.len();
            (c, chunk.to_vec())
        });
        // 10 items over 3 states: ceil(10/3) = 4 per chunk, last short.
        assert_eq!(
            seen,
            vec![
                (0, vec![0, 1, 2, 3]),
                (1, vec![4, 5, 6, 7]),
                (2, vec![8, 9]),
            ]
        );
        assert_eq!(states, vec![4, 4, 2]);
    }

    #[test]
    fn zip_chunks_mutates_items_and_states() {
        let mut items: Vec<i64> = (0..23).collect();
        let mut states: Vec<i64> = vec![0; 4];
        par_zip_chunks_mut(&mut items, &mut states, |_, chunk, state| {
            for x in chunk.iter_mut() {
                *x *= 2;
                *state += *x;
            }
        });
        let expect: Vec<i64> = (0..23).map(|x| x * 2).collect();
        assert_eq!(items, expect);
        assert_eq!(states.iter().sum::<i64>(), expect.iter().sum::<i64>());
    }

    #[test]
    fn zip_chunks_handles_edge_shapes() {
        // More states than items: trailing chunks see empty slices.
        let mut items = vec![1, 2];
        let mut states = vec![0usize; 5];
        let lens = par_zip_chunks_mut(&mut items, &mut states, |_, chunk, _| chunk.len());
        assert_eq!(lens.iter().sum::<usize>(), 2);
        assert_eq!(lens.len(), 5);
        // No states: nothing runs.
        let mut none: Vec<usize> = Vec::new();
        assert!(par_zip_chunks_mut(&mut items, &mut none, |_, _, _: &mut usize| 1).is_empty());
        // No items: every state still gets a (empty) call.
        let mut empty: Vec<usize> = Vec::new();
        let calls = par_zip_chunks_mut(&mut empty, &mut states, |c, chunk, _| (c, chunk.len()));
        assert_eq!(calls.len(), 5);
        assert!(calls.iter().all(|&(_, n)| n == 0));
    }

    #[test]
    fn zip_chunks_worker_panic_propagates() {
        let result = panic::catch_unwind(|| {
            let mut items: Vec<usize> = (0..8).collect();
            let mut states = vec![(); 4];
            par_zip_chunks_mut(&mut items, &mut states, |c, _, _| {
                assert!(c != 2, "boom");
                c
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn zip_chunks_quarantine_isolates_panicked_chunk() {
        let mut items: Vec<usize> = (0..8).collect();
        let mut states = vec![(); 4];
        let results = par_zip_chunks_mut_quarantine(&mut items, &mut states, |c, chunk, _| {
            assert!(c != 2, "chunk blew up");
            chunk.to_vec()
        });
        assert_eq!(results.len(), 4);
        for (c, r) in results.iter().enumerate() {
            if c == 2 {
                let payload = r.as_ref().expect_err("chunk 2 panicked");
                assert!(panic_message(payload).contains("chunk blew up"));
            } else {
                let v = r.as_ref().expect("healthy chunk survives");
                assert_eq!(v, &vec![2 * c, 2 * c + 1]);
            }
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let result = panic::catch_unwind(|| {
            par_map_range(8, |i| {
                assert!(i != 5, "boom");
                i
            })
        });
        assert!(result.is_err());
    }
}
