//! The workspace's only wall-clock island: stderr progress reporting and
//! the shared worker pool.
//!
//! Every record a sweep produces must be byte-identical at any
//! `--threads N`, so host time and host threads are confined to this one
//! module — `clippy.toml` bans them everywhere else (`disallowed-methods`),
//! and the `#[expect(clippy::disallowed_methods, …)]` attributes below are
//! the workspace's only escapes from that ban outside the criterion shim.
//! The sweep executor ([`crate::exec`]), which runs solo sweeps
//! ([`crate::run_sweep_instrumented`]) and fleet sweeps
//! ([`crate::run_fleet_sweep_instrumented`]) as one flat list of
//! simulations, runs through [`run_pool`], which owns the work queue, the
//! per-item progress lines, and the closing total; its callers never see
//! a timestamp.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A started wall-clock timer for stderr progress reporting.
///
/// Thin wrapper so callers can time a phase without calling
/// `Instant::now` themselves, which `clippy.toml` bans.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts a timer.
    #[must_use]
    #[expect(
        clippy::disallowed_methods,
        reason = "progress timing goes to stderr only, never into a record"
    )]
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// The host's available parallelism: one worker per core, at least one.
#[must_use]
#[expect(
    clippy::disallowed_methods,
    reason = "sizes the worker pool; the thread count never changes a record"
)]
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `labels.len()` independent jobs on a work-queue of `threads`
/// workers and returns the results **in index order**, regardless of
/// which worker ran a job or when it finished.
///
/// Progress goes to stderr — `[name] trial done/n <label> (t s)` per job
/// plus a closing `[name] n <noun> in t s (threads=k)` — and never to
/// stdout, so record streams stay byte-identical for any thread count.
///
/// # Panics
///
/// Panics if a worker panicked while holding a result slot.
#[must_use]
pub fn run_pool<T, F>(name: &str, noun: &str, labels: &[String], threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let n = labels.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    let started = Stopwatch::start();
    let cursor = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();

    // Results land in index-keyed slots, so output order is
    // thread-count-invariant even though completion order is not.
    #[expect(clippy::disallowed_methods, reason = "the workspace's one worker pool")]
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job_started = Stopwatch::start();
                *slots[i].lock().expect("result slot poisoned") = Some(job(i));
                let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                eprintln!(
                    "[{name}] trial {done}/{n} {} ({:.2}s)",
                    labels[i],
                    job_started.elapsed_secs()
                );
            });
        }
    });

    eprintln!(
        "[{name}] {n} {noun} in {:.2}s (threads={threads})",
        started.elapsed_secs()
    );
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every scheduled job produces a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let labels: Vec<String> = (0..17).map(|i| format!("job {i}")).collect();
        let out = run_pool("pool-test", "jobs", &labels, 4, |i| i * i);
        assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let labels: Vec<String> = (0..9).map(|i| format!("j{i}")).collect();
        let a = run_pool("pool-test", "jobs", &labels, 1, |i| i + 1);
        let b = run_pool("pool-test", "jobs", &labels, 8, |i| i + 1);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_pool_is_a_noop() {
        let out: Vec<u32> = run_pool("pool-test", "jobs", &[], 4, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn stopwatch_moves_forward() {
        let sw = Stopwatch::start();
        assert!(sw.elapsed_secs() >= 0.0);
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }
}
