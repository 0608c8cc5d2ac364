//! The worker pool for the "per site in parallel" phases.
//!
//! The paper's §III-B cost model assumes sites work concurrently; the
//! engines charge that to the simulated clocks after each join, so host
//! threads buy wall time only. One call is one [`std::thread::scope`]:
//! the caller and up to `threads − 1` scoped workers claim tasks from one
//! shared cursor, and the scope joins every worker before the call
//! returns, so tasks borrow freely from the caller's stack. The unit of
//! work is a **morsel** — one *(site, chunk)* pair, where chunks are the
//! fixed-size code chunks of `dcd_relation`'s columnar store — so a
//! skewed site is balanced at chunk granularity.
//!
//! [`morsel_map`] and [`scoped_map`] return results in task order,
//! whoever ran what, so reports, ledgers and clocks come out
//! bit-identical for every pool width and chunk size. Width 1 (or a
//! single task) runs inline on the caller. A panicking task is re-raised
//! on the caller with its own payload.
//!
//! Clippy rejects a thread started anywhere else (`disallowed-methods` in
//! the root `clippy.toml`); the one `std::thread::scope` here carries the
//! `#[expect]`. The pool holds no atomic: the cursor is a `Mutex`, and the
//! scope's join orders every result before the caller reads it. The
//! morsel count varies with pool width and chunk size, so it goes to the
//! process-wide host registry (`dcd_pool_morsels_total`), outside the
//! per-run determinism pinning.

use std::panic::resume_unwind;
use std::sync::{Mutex, PoisonError};

/// The pool width used when the caller has no explicit configuration:
/// the machine's available parallelism (1 when that cannot be
/// determined). A caller that wants another width says so in its
/// `RunConfig`.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `task(site, chunk)` for every morsel — site `s` contributes
/// `counts[s]` chunks — on up to `threads` participants and returns the
/// results grouped by site, in (site, chunk) order.
pub fn morsel_map<T, F>(threads: usize, counts: &[usize], task: F) -> Vec<Vec<T>>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let morsels =
        counts.iter().enumerate().flat_map(|(site, &n)| (0..n).map(move |chunk| (site, chunk)));
    let mut results = scoped_map(threads, morsels, |(site, chunk)| task(site, chunk)).into_iter();
    counts.iter().map(|&n| results.by_ref().take(n).collect()).collect()
}

/// Runs `task` on every item on up to `threads` participants — the
/// caller plus scoped workers, claiming items one at a time — and
/// returns the results in item order. A task owns its item, so items may
/// be `&mut` borrows (one per site's relation, one per index).
pub fn scoped_map<I, T, F>(threads: usize, items: impl IntoIterator<Item = I>, task: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let items: Vec<I> = items.into_iter().collect();
    let n = items.len();
    dcd_obs::host_registry()
        .counter("dcd_pool_morsels_total", "Morsels executed by the worker pool", &[])
        .inc(n as u64);
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(task).collect();
    }

    let cursor = Mutex::new(items.into_iter().enumerate());
    let drain = || {
        let mut done = Vec::new();
        loop {
            // A statement of its own, so the guard drops before the task
            // runs: held across it, participants would take turns, and a
            // panicking task would poison the cursor.
            let next = cursor.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((i, item)) = next else { return done };
            done.push((i, task(item)));
        }
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "the pool is where the workspace's threads come from"
    )]
    let joined = std::thread::scope(|s| {
        // A worker that fails to start is skipped: the caller can drain
        // every item alone.
        let workers: Vec<_> = (1..threads.min(n))
            .filter_map(|_| {
                let builder = std::thread::Builder::new().name("dcd-pool-worker".into());
                builder.spawn_scoped(s, drain).ok()
            })
            .collect();
        let mut done = drain();
        let mut panic = None;
        for worker in workers {
            match worker.join() {
                Ok(part) => done.extend(part),
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
        panic.map_or(Ok(done), Err)
    });
    let mut done = joined.unwrap_or_else(|payload| resume_unwind(payload));
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_task_order() {
        for threads in [1, 2, 8, 16] {
            let out = scoped_map(threads, 0..37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>(), "threads = {threads}");
        }
    }

    #[test]
    fn zero_and_single_task_edges() {
        assert_eq!(scoped_map(8, 0..0, |i| i), Vec::<usize>::new());
        assert_eq!(scoped_map(8, 0..1, |i| i + 1), vec![1]);
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        let out = scoped_map(64, 0..3, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn tasks_can_borrow_the_callers_stack() {
        let data = [10usize, 20, 30, 40];
        let sums = scoped_map(4, 0..data.len(), |i| data[i] + 1);
        assert_eq!(sums, vec![11, 21, 31, 41]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn morsel_results_group_by_site_in_chunk_order() {
        let counts = [3usize, 0, 1, 5];
        for threads in [1, 2, 8] {
            let out = morsel_map(threads, &counts, |s, c| (s, c, s * 100 + c));
            assert_eq!(out.len(), counts.len(), "threads = {threads}");
            for (s, per_site) in out.iter().enumerate() {
                let want: Vec<_> = (0..counts[s]).map(|c| (s, c, s * 100 + c)).collect();
                assert_eq!(per_site, &want, "threads = {threads}, site {s}");
            }
        }
    }

    #[test]
    fn skewed_sites_still_produce_ordered_results() {
        // One giant site plus tiny ones: claiming chunk by chunk must not
        // perturb the (site, chunk) result order.
        let counts = [1usize, 200, 1, 1];
        let out = morsel_map(8, &counts, |s, c| s * 1000 + c);
        for (s, per_site) in out.iter().enumerate() {
            assert_eq!(per_site, &(0..counts[s]).map(|c| s * 1000 + c).collect::<Vec<_>>());
        }
    }

    #[test]
    fn panicking_morsel_propagates_to_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            morsel_map(4, &[8usize, 8], |s, c| {
                if s == 1 && c == 3 {
                    panic!("morsel failed");
                }
                s + c
            })
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "morsel failed");
    }

    /// Morsel 0 waits for a message only morsel 1 sends, so the call
    /// returns `[true, true]` only if two participants run at once.
    fn rendezvous(on_each: impl Fn() + Sync) -> Vec<Vec<bool>> {
        let (tx, rx) = mpsc::channel();
        let rx = Mutex::new(rx);
        morsel_map(2, &[2usize], |_, c| {
            let met = if c == 0 {
                rx.lock().unwrap().recv_timeout(Duration::from_secs(10)).is_ok()
            } else {
                tx.send(()).is_ok()
            };
            on_each();
            met
        })
    }

    #[test]
    fn participants_really_run_at_once() {
        assert_eq!(rendezvous(|| {}), [[true, true]]);
    }

    #[test]
    fn a_workers_panic_keeps_its_payload() {
        // The two morsels meet, so they run on two threads: the caller's
        // returns, the worker's panics.
        let caller = std::thread::current().id();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            rendezvous(|| {
                if std::thread::current().id() != caller {
                    panic!("worker failed");
                }
            })
        }));
        let payload = caught.expect_err("the worker's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("worker failed"));
    }

    #[test]
    fn the_pool_stays_usable_after_a_panic() {
        let caught = catch_unwind(|| morsel_map(4, &[8usize], |_, c| assert_ne!(c, 5)));
        assert!(caught.is_err());
        let counts = [3usize, 0, 6, 2];
        let out = morsel_map(4, &counts, |s, c| (s, c));
        let want: Vec<Vec<_>> =
            counts.iter().enumerate().map(|(s, &n)| (0..n).map(|c| (s, c)).collect()).collect();
        assert_eq!(out, want);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "concurrent submitters are what this test is about; they cannot come from the pool under test"
    )]
    fn concurrent_jobs_do_not_interfere() {
        // Submit jobs from several caller threads at once (as concurrent
        // detector runs do).
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|j| {
                    s.spawn(move || {
                        let counts = [5usize, 5];
                        morsel_map(3, &counts, move |site, chunk| j * 100 + site * 10 + chunk)
                    })
                })
                .collect();
            for (j, h) in handles.into_iter().enumerate() {
                let out = h.join().expect("submitter panicked");
                assert_eq!(out[1][4], j * 100 + 14);
            }
        });
    }
}
