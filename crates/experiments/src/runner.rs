//! Fixed-size worker pool for the experiments: an order-preserving
//! parallel map plus the wall-clock instrumentation layered on top. It is
//! the one place in the workspace that spawns threads.
//!
//! Determinism contract: [`map_ordered`] returns results in input order no
//! matter how many workers run or how the OS schedules them — workers pull
//! work from a shared index and send `(index, result)` back, and results
//! are slotted by index. Combined with the stable plan from
//! [`crate::sharding`], a parallel sweep is byte-identical to a serial one;
//! only the wall-clock (reported via [`RunnerTiming`], outside the result
//! tables) differs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

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

/// Timing of one executed shard (one simulation point).
#[derive(Clone, Debug)]
pub struct ShardTiming {
    /// Human-readable shard key (`workload/config`).
    pub key: String,
    /// Wall-clock the shard's worker spent on it.
    pub wall: Duration,
    /// Simulated cycles the shard produced.
    pub sim_cycles: u64,
}

/// Timing summary of a parallel sweep. Reported *next to* — never inside —
/// the deterministic result tables, since wall-clock varies run to run.
#[derive(Clone, Debug, Default)]
pub struct RunnerTiming {
    /// Worker threads used.
    pub jobs: usize,
    /// End-to-end wall-clock of the sweep (includes scheduling).
    pub wall: Duration,
    /// Per-shard timings, in plan order.
    pub shards: Vec<ShardTiming>,
}

impl RunnerTiming {
    /// Merges another sweep's timing into this harness-level total. The
    /// largest jobs value wins the label; walls and shards accumulate.
    pub fn merge(&mut self, other: &RunnerTiming) {
        self.jobs = self.jobs.max(other.jobs);
        self.wall += other.wall;
        self.shards.extend(other.shards.iter().cloned());
    }

    /// Sum of per-shard walls — the serial-equivalent work content. On an
    /// oversubscribed machine this includes time shards spent descheduled,
    /// so `shard_time / wall` measures *concurrency*, not core speedup.
    pub fn shard_time(&self) -> Duration {
        self.shards.iter().map(|s| s.wall).sum()
    }

    /// Simulation points completed per wall-clock second.
    pub fn points_per_sec(&self) -> f64 {
        self.shards.len() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Total simulated cycles produced per wall-clock second.
    pub fn sim_cycles_per_sec(&self) -> f64 {
        let cycles: u64 = self.shards.iter().map(|s| s.sim_cycles).sum();
        cycles as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// The slowest shard, if any ran.
    pub fn slowest(&self) -> Option<&ShardTiming> {
        self.shards.iter().max_by_key(|s| s.wall)
    }
}

impl std::fmt::Display for RunnerTiming {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Harness timing — {} shard(s) on {} worker(s)",
            self.shards.len(),
            self.jobs.max(1)
        )?;
        writeln!(f, "wall-clock:     {:.3} s", self.wall.as_secs_f64())?;
        writeln!(
            f,
            "shard time:     {:.3} s ({:.2}x concurrency)",
            self.shard_time().as_secs_f64(),
            self.shard_time().as_secs_f64() / self.wall.as_secs_f64().max(1e-9)
        )?;
        writeln!(f, "points/sec:     {:.2}", self.points_per_sec())?;
        writeln!(f, "sim cycles/sec: {:.3e}", self.sim_cycles_per_sec())?;
        match self.slowest() {
            Some(s) => write!(
                f,
                "slowest shard:  {} ({:.3} s)",
                s.key,
                s.wall.as_secs_f64()
            ),
            None => write!(f, "slowest shard:  n/a"),
        }
    }
}

/// Runs `f` over `items` like [`map_ordered`] while timing each shard and
/// the sweep; `key` labels each shard for the report. The result carries
/// simulated cycles extracted by `cycles`.
pub fn map_timed<T, R, F, K, C>(
    jobs: usize,
    items: &[T],
    f: F,
    key: K,
    cycles: C,
) -> (Vec<R>, RunnerTiming)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    K: Fn(&T) -> String,
    C: Fn(&R) -> u64,
{
    let start = Instant::now();
    let timed = map_ordered(jobs, items, |item| {
        let t0 = Instant::now();
        let r = f(item);
        (r, t0.elapsed())
    });
    let wall = start.elapsed();
    let mut results = Vec::with_capacity(timed.len());
    let mut shards = Vec::with_capacity(timed.len());
    for (item, (r, shard_wall)) in items.iter().zip(timed) {
        shards.push(ShardTiming {
            key: key(item),
            wall: shard_wall,
            sim_cycles: cycles(&r),
        });
        results.push(r);
    }
    (results, RunnerTiming { jobs, wall, shards })
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

    #[test]
    fn timing_summary_accounts_all_shards() {
        let items = vec![1u64, 2, 3];
        let (out, timing) = map_timed(2, &items, |x| x * 100, |x| format!("shard-{x}"), |r| *r);
        assert_eq!(out, vec![100, 200, 300]);
        assert_eq!(timing.shards.len(), 3);
        assert_eq!(timing.shards[0].key, "shard-1");
        assert!(timing.points_per_sec() > 0.0);
        assert!(timing.sim_cycles_per_sec() > 0.0);
        let text = timing.to_string();
        assert!(text.contains("Harness timing"));
        assert!(text.contains("points/sec"));
    }
}
