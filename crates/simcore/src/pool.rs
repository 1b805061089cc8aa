//! Fixed-size worker pool: order-preserving parallel map shared by every
//! layer that fans deterministic work across OS threads.
//!
//! It sits in `simcore`, below every simulator crate, so any layer can
//! parallelize behind the same `--jobs`/`MEMENTO_JOBS` knob without
//! depending on the experiments crate. The determinism contract:
//! [`map_ordered`] returns results in input order no matter how many
//! workers run or how the OS schedules them — workers pull work from a
//! shared index and send `(index, result)` back, and results are slotted
//! by index. A parallel sweep is byte-identical to a serial one.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

/// Environment variable overriding the worker count (`--jobs` equivalent
/// for code paths without a CLI).
pub const JOBS_ENV: &str = "MEMENTO_JOBS";

/// Resolves the worker count: an explicit request wins, then `MEMENTO_JOBS`,
/// then the machine's available parallelism, then 1.
pub fn effective_jobs(requested: Option<usize>) -> usize {
    requested
        .or_else(|| {
            std::env::var(JOBS_ENV)
                .ok()
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or_else(|| {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1)
}

/// Maps `f` over `items` on a pool of `jobs` threads, returning results in
/// input order. `jobs <= 1` (or a single item) runs inline on the caller's
/// thread — the serial reference the parallel path must match.
pub fn map_ordered<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len());
    if jobs <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    thread::scope(|s| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            s.spawn(move || loop {
                // lint:allow(atomic-ordering-audit): pure claim counter; results ride the channel
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                if tx.send((i, r)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every index is computed exactly once"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_ordered_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial = map_ordered(1, &items, |x| x * x);
        for jobs in [2, 4, 8] {
            let parallel = map_ordered(jobs, &items, |x| x * x);
            assert_eq!(serial, parallel, "jobs={jobs}");
        }
    }

    #[test]
    fn map_ordered_handles_edge_sizes() {
        let empty: Vec<u32> = Vec::new();
        assert!(map_ordered(4, &empty, |x| *x).is_empty());
        assert_eq!(map_ordered(4, &[7u32], |x| x + 1), vec![8]);
        assert_eq!(map_ordered(64, &[1u32, 2], |x| x * 10), vec![10, 20]);
    }

    #[test]
    fn map_ordered_runs_uneven_work_correctly() {
        // Later items finish first; slots must still land in input order.
        let items: Vec<u64> = (0..32).collect();
        let out = map_ordered(8, &items, |x| {
            std::thread::sleep(std::time::Duration::from_micros(500 * (32 - x)));
            *x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn effective_jobs_prefers_explicit_request() {
        assert_eq!(effective_jobs(Some(3)), 3);
        assert_eq!(effective_jobs(Some(0)), 1, "zero clamps to one worker");
        assert!(effective_jobs(None) >= 1);
    }
}
