//! The crate's one parallel fan-out: independent jobs `0..n` spread over
//! scoped worker threads and reassembled in index order, so the result
//! never depends on which worker ran which job or when.
//!
//! Workers claim indices from a shared atomic counter (natural load
//! balancing when job sizes are skewed) and keep `(index, result)` pairs
//! locally; after the join the pairs are sorted back into index order.
//! There is no shared mutable state beyond the counter.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `job(i)` for every `i` in `0..n` on up to `threads` threads and
/// collect the results in index order. The first error *by index* wins,
/// as it would in a serial loop, so the outcome is identical at every
/// thread count.
///
/// With `threads <= 1` or fewer than two jobs this is a plain serial
/// loop that stops at the first error. The parallel path runs every job
/// before reporting. A panicking job re-raises its panic in the caller
/// once all workers have stopped.
pub(crate) fn try_fan_out<T, E, F>(n: usize, threads: usize, job: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    if threads <= 1 || n < 2 {
        return (0..n).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, job(i)));
        }
    };
    // lint:allow(thread-fanout, the one fan-out site: atomic index counter, per-worker results, index-ordered reassembly)
    let mut done: Vec<(usize, Result<T, E>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(n)).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 7] {
            let out: Result<Vec<usize>, ()> = try_fan_out(20, threads, |i| Ok(i * i));
            let expected: Vec<usize> = (0..20).map(|i| i * i).collect();
            assert_eq!(out, Ok(expected), "threads={threads}");
        }
    }

    #[test]
    fn first_error_by_index_wins() {
        for threads in [1, 2, 7] {
            let out: Result<Vec<usize>, usize> =
                try_fan_out(30, threads, |i| if i % 7 == 3 { Err(i) } else { Ok(i) });
            assert_eq!(out, Err(3), "threads={threads}");
        }
    }

    #[test]
    fn serial_path_stops_at_the_first_error() {
        let calls = AtomicUsize::new(0);
        let out: Result<Vec<usize>, usize> = try_fan_out(10, 1, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            if i == 2 {
                Err(i)
            } else {
                Ok(i)
            }
        });
        assert_eq!(out, Err(2));
        assert_eq!(
            calls.load(Ordering::Relaxed),
            3,
            "jobs after the error never ran"
        );
        // One job is run inline whatever the thread count.
        let out: Result<Vec<usize>, usize> = try_fan_out(1, 8, |i| Err(i + 40));
        assert_eq!(out, Err(40));
    }

    #[test]
    fn empty_and_small_inputs() {
        for threads in [0, 1, 2, 7] {
            let none: Result<Vec<usize>, ()> = try_fan_out(0, threads, |_| unreachable!());
            assert_eq!(none, Ok(Vec::new()), "threads={threads}");
            // Fewer jobs than threads: every job runs exactly once.
            let few: Result<Vec<usize>, ()> = try_fan_out(3, threads, |i| Ok(i + 1));
            assert_eq!(few, Ok(vec![1, 2, 3]), "threads={threads}");
        }
    }
}
