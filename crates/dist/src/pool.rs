//! The worker pool for the "per site in parallel" phases.
//!
//! The paper's §III-B cost model assumes sites work concurrently; the
//! engines charge that to the simulated clocks after each join, so host
//! threads buy wall time only. One call is one [`std::thread::scope`]:
//! the caller and up to `threads − 1` scoped workers claim tasks from one
//! shared cursor, and the scope joins every worker before the call
//! returns, so tasks borrow freely from the caller's stack. A task is
//! one site's whole fragment (or one coordinator, one index, one cell),
//! never a slice of one.
//!
//! [`scoped_map`] returns results in task order, whoever ran what, so
//! reports, ledgers and clocks come out bit-identical for every pool
//! width. Width 1 (or a single task) runs inline on the caller. A
//! panicking task is re-raised on the caller with its own payload.
//!
//! Clippy rejects a thread started anywhere else (`disallowed-methods` in
//! the root `clippy.toml`); the one `std::thread::scope` here carries the
//! `#[expect]`. The cursor is a `Mutex`, and the scope's join orders
//! every result before the caller reads it. The task count is host-side
//! bookkeeping, so it goes to the process-wide host registry
//! (`dcd_pool_tasks_total`, added under its lock), outside the per-run
//! determinism pinning.

use std::panic::resume_unwind;
use std::sync::{Mutex, PoisonError};

/// The host-scope family counting the tasks every call ran.
const POOL_TASKS: &str = "dcd_pool_tasks_total";

/// The pool width used when the caller has no explicit configuration:
/// the machine's available parallelism (1 when that cannot be
/// determined). A caller that wants another width says so in its
/// `RunConfig`.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
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
    dcd_obs::host_registry().lock().unwrap_or_else(PoisonError::into_inner).add(
        POOL_TASKS,
        "Tasks executed by the worker pool",
        &[],
        n as u64,
    );
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
    fn width_one_runs_every_task_on_the_caller() {
        let caller = std::thread::current().id();
        let on_caller = scoped_map(1, 0..5, |_| std::thread::current().id() == caller);
        assert_eq!(on_caller, [true; 5]);
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
    fn a_panicking_task_propagates_to_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            scoped_map(4, 0..16, |i| {
                if i == 11 {
                    panic!("task failed");
                }
                i
            })
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "task failed");
    }

    /// Task 0 waits for a message only task 1 sends, so the call
    /// returns `[true, true]` only if two participants run at once.
    fn rendezvous(on_each: impl Fn() + Sync) -> Vec<bool> {
        let (tx, rx) = mpsc::channel();
        let rx = Mutex::new(rx);
        scoped_map(2, 0..2, |i| {
            let met = if i == 0 {
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
        assert_eq!(rendezvous(|| {}), [true, true]);
    }

    #[test]
    fn a_workers_panic_keeps_its_payload() {
        // The two tasks meet, so they run on two threads: the caller's
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
        let caught = catch_unwind(|| scoped_map(4, 0..8, |i| assert_ne!(i, 5)));
        assert!(caught.is_err());
        assert_eq!(scoped_map(4, 0..11, |i| i * 3), (0..11).map(|i| i * 3).collect::<Vec<_>>());
    }

    /// The host count of tasks run so far.
    fn host_tasks() -> u64 {
        dcd_obs::host_registry().lock().unwrap().counter_total(POOL_TASKS)
    }

    #[test]
    fn two_concurrent_calls_each_add_their_task_count() {
        // The rendezvous is two tasks on two threads at once, and each
        // then makes a call of its own: 2 + 9 + 9 tasks. Other tests in
        // this process run tasks too, so the count is read until a
        // window holds only these calls.
        for _ in 0..100 {
            let before = host_tasks();
            let met = rendezvous(|| assert_eq!(scoped_map(3, 0..9, |i| i).len(), 9));
            assert_eq!(met, [true, true]);
            if host_tasks() - before == 20 {
                return;
            }
        }
        panic!("the host count never grew by exactly the calls' 20 tasks");
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
                .map(|j| s.spawn(move || scoped_map(3, 0..10, move |i| j * 100 + i)))
                .collect();
            for (j, h) in handles.into_iter().enumerate() {
                let out = h.join().expect("submitter panicked");
                assert_eq!(out, (0..10).map(|i| j * 100 + i).collect::<Vec<_>>());
            }
        });
    }
}
