//! A persistent, morsel-driven worker pool for the "per site in
//! parallel" phases.
//!
//! The paper's §III-B cost model assumes sites work concurrently; this
//! module makes the simulator actually do so. Workers are **long-lived
//! detached OS threads**, spawned on first demand and parked on a
//! condition variable between jobs, so a detection run pays thread
//! start-up once instead of once per phase. The unit of scheduling is a
//! **morsel** — one *(site, chunk)* pair, where chunks are the fixed-size
//! code chunks of `dcd_relation`'s columnar store — handed out through
//! per-participant **work-stealing deques**: each participant pops its
//! own deque from the front (preserving ascending morsel order for cache
//! locality) and steals from the back of a victim's deque when its own
//! runs dry, so one skewed site no longer serializes a phase.
//!
//! [`morsel_map`] is the native entry point; [`scoped_map`] (one morsel
//! per site) survives as a shim over it for the site-granular phases.
//! Both return results **in task order**, so callers can merge per-site
//! (and per-chunk) outputs deterministically — reports, ledgers and
//! clocks come out bit-identical for every pool width and chunk size,
//! including width 1.
//!
//! ## Determinism and safety protocol
//!
//! Jobs borrow freely from the submitting caller's stack. Soundness rests
//! on a claim-before-call / decrement-after-return protocol:
//!
//! 1. A worker may dereference a job's (lifetime-erased) task pointer
//!    **only** for a morsel index it has just claimed by popping a deque.
//! 2. The job's `remaining` counter counts unfinished morsels (unclaimed
//!    plus in-flight) and is decremented only **after** the task call
//!    for a claimed morsel returns (or its panic is captured).
//! 3. The submitting caller blocks until `remaining == 0` before
//!    returning, so every borrow in the task outlives every dereference:
//!    a morsel still in a deque keeps `remaining > 0`, and a claimed
//!    morsel keeps it `> 0` until its call completes.
//!
//! A panicking morsel is caught, recorded, and re-raised on the caller's
//! thread after the job drains (unstarted morsels are abandoned), exactly
//! like the sequential loop would.
//!
//! ## Atomics audit
//!
//! The pool intentionally uses **no atomics**: all shared state — the job
//! queue, participant slots, the deques, the `remaining` counter and the
//! captured panic — lives behind `Mutex`/`Condvar`, whose lock/unlock
//! pairs and wait/notify edges carry every needed happens-before (each
//! result slot's `Mutex` orders the worker's write before the caller's
//! read; the `remaining == 0` wakeup orders job completion before result
//! collection). Clippy rejects a raw atomic here as anywhere outside the
//! one audited module (`disallowed-types` in the root `clippy.toml`),
//! and thread spawning anywhere else in the workspace
//! (`disallowed-methods`; the two spawns here carry an `#[expect]`). The only
//! atomics in sight are the opaque `dcd_obs` counter handles feeding the
//! **host-scope** observability registry (morsels executed, steals,
//! initial queue depths — values that legitimately vary with pool width
//! and chunk size, so they are excluded from determinism pinning); their
//! `Relaxed` audit lives in `crates/obs/src/registry.rs`.
#![allow(unsafe_code)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// The pool width used when the caller has no explicit configuration:
/// the machine's available parallelism (1 when that cannot be
/// determined). A caller that wants another width says so in its
/// `RunConfig`.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Upper bound on workers ever spawned by the process-wide pool. Purely
/// a resource backstop: jobs complete with any number of workers (the
/// caller always participates and can drain a job alone).
const MAX_WORKERS: usize = 256;

/// One queued job's dynamic state: the shared job plus the next unclaimed
/// participant slot (slot 0 is the caller; workers claim 1..participants).
struct QueuedJob {
    job: Arc<Job>,
    next_participant: usize,
}

struct PoolInner {
    /// Jobs with unclaimed participant slots, oldest first.
    jobs: VecDeque<QueuedJob>,
    /// Workers ever spawned (bounded by [`MAX_WORKERS`]).
    spawned: usize,
    /// Workers currently parked on `work_ready`.
    idle: usize,
}

/// The process-wide persistent pool.
struct Pool {
    inner: Mutex<PoolInner>,
    /// Signaled when a new job is queued.
    work_ready: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        inner: Mutex::new(PoolInner { jobs: VecDeque::new(), spawned: 0, idle: 0 }),
        work_ready: Condvar::new(),
    })
}

/// What a participant still owes a job.
struct JobStatus {
    /// Unfinished morsels: unclaimed + claimed-but-running.
    remaining: usize,
    /// First captured panic payload, re-raised by the caller.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// One submitted job: the erased per-morsel task plus the work-stealing
/// deques of flat morsel indices, one deque per participant.
struct Job {
    /// Per-participant deques. Owners pop the front, thieves the back.
    deques: Vec<Mutex<VecDeque<usize>>>,
    /// The caller's task, lifetime-erased. See the module-level safety
    /// protocol for when dereferencing this is sound.
    task: &'static (dyn Fn(usize) + Sync),
    status: Mutex<JobStatus>,
    /// Signaled when `remaining` hits zero.
    done: Condvar,
    /// Host-scope steal meter (`dcd_pool_steals_total`).
    steals: dcd_obs::Counter,
}

impl Job {
    /// Claims the next morsel for participant `pid`: own deque front
    /// first, then steal from victims' backs. `None` means the job has
    /// no unclaimed work left (for anyone).
    fn claim(&self, pid: usize) -> Option<usize> {
        if let Some(m) = self.deques[pid].lock().expect("deque poisoned").pop_front() {
            return Some(m);
        }
        let p = self.deques.len();
        for off in 1..p {
            let victim = (pid + off) % p;
            if let Some(m) = self.deques[victim].lock().expect("deque poisoned").pop_back() {
                self.steals.inc(1);
                return Some(m);
            }
        }
        None
    }

    /// Runs one claimed morsel and performs the decrement-after-return
    /// step of the safety protocol. A panic is captured (first wins) and
    /// the job's unstarted morsels are abandoned.
    fn run(&self, m: usize) {
        let result = catch_unwind(AssertUnwindSafe(|| (self.task)(m)));
        let mut st = self.status.lock().expect("job status poisoned");
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
            // Abandon unclaimed work: nothing may observe partial results
            // anyway — the caller re-raises instead of collecting.
            for d in &self.deques {
                let mut d = d.lock().expect("deque poisoned");
                st.remaining -= d.len();
                d.clear();
            }
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Participant `pid`'s drain loop: claim-and-run until no unclaimed
    /// work remains anywhere in the job.
    fn work(&self, pid: usize) {
        while let Some(m) = self.claim(pid) {
            self.run(m);
        }
    }
}

/// Erases the caller-stack lifetime of a job task so it can be shared
/// with detached workers.
///
/// # Safety
///
/// The caller must guarantee the referent outlives every dereference.
/// [`morsel_map`] does so via the claim/decrement/block protocol in the
/// module docs: it does not return (and thus does not invalidate the
/// borrow) until `remaining == 0`, after which no worker can claim a
/// morsel and therefore none may dereference the pointer again.
// SAFETY: contract stated in the doc comment above; checked at the call
// site in `morsel_map`.
unsafe fn erase_task(task: &(dyn Fn(usize) + Sync)) -> &'static (dyn Fn(usize) + Sync) {
    // SAFETY: lifetime extension only; the contract above makes every
    // use of the extended reference happen while `'a` is still live.
    unsafe { std::mem::transmute(task) }
}

/// The detached worker body: claim a participant slot in some queued
/// job, drain it, park when no job wants more participants.
fn worker_loop() {
    let pool = pool();
    let mut inner = pool.inner.lock().expect("pool poisoned");
    loop {
        let claimed = claim_participant(&mut inner);
        match claimed {
            Some((job, pid)) => {
                drop(inner);
                job.work(pid);
                inner = pool.inner.lock().expect("pool poisoned");
            }
            None => {
                inner.idle += 1;
                inner = pool.work_ready.wait(inner).expect("pool poisoned");
                inner.idle -= 1;
            }
        }
    }
}

/// Finds the oldest queued job with an open participant slot and claims
/// it; fully subscribed jobs leave the queue (their participants keep
/// draining them through their own `Arc`s).
fn claim_participant(inner: &mut PoolInner) -> Option<(Arc<Job>, usize)> {
    let idx = (0..inner.jobs.len())
        .find(|&i| inner.jobs[i].next_participant < inner.jobs[i].job.deques.len())?;
    let q = &mut inner.jobs[idx];
    let pid = q.next_participant;
    q.next_participant += 1;
    let job = q.job.clone();
    if q.next_participant == job.deques.len() {
        inner.jobs.remove(idx);
    }
    Some((job, pid))
}

/// Runs `task(site, chunk)` for every morsel — site `s` contributes
/// `counts[s]` chunks — on up to `threads` participants (the caller plus
/// pool workers) and returns the results grouped by site, in (site,
/// chunk) order.
///
/// Morsels are distributed to participants as contiguous runs of the
/// flattened (site, chunk) sequence; work stealing rebalances skew at
/// chunk granularity. Result order is fixed by index regardless of which
/// participant computed what, so every merge downstream is bit-identical
/// across pool widths and chunk sizes. With `threads <= 1` (or a single
/// morsel) everything runs inline on the caller's thread — the
/// sequential baseline that parallel runs must match bit-for-bit. A
/// panicking morsel propagates on the caller's thread, exactly like the
/// sequential loop would.
pub fn morsel_map<T, F>(threads: usize, counts: &[usize], task: F) -> Vec<Vec<T>>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let morsels: Vec<(usize, usize)> = counts
        .iter()
        .enumerate()
        .flat_map(|(site, &n)| (0..n).map(move |chunk| (site, chunk)))
        .collect();
    let total = morsels.len();

    // Host-scope observability: what the hardware did, not what the
    // simulation decided. Morsel/steal counts vary with the pool width
    // and the relations' chunk size, so they live in the process-wide
    // registry, outside the per-run determinism pinning.
    let host = dcd_obs::host_registry();
    host.counter("dcd_pool_morsels_total", "Morsels executed by the worker pool", &[])
        .inc(total as u64);

    let mut flat: Vec<Option<T>>;
    if threads <= 1 || total <= 1 {
        flat = morsels.iter().map(|&(s, c)| Some(task(s, c))).collect();
    } else {
        let participants = threads.min(total);
        let slots: Vec<Mutex<Option<T>>> = (0..total).map(|_| Mutex::new(None)).collect();
        let run_one = |m: usize| {
            let (site, chunk) = morsels[m];
            let result = task(site, chunk);
            *slots[m].lock().expect("result slot poisoned") = Some(result);
        };

        // Contiguous morsel runs per participant, ready for stealing.
        let deques: Vec<Mutex<VecDeque<usize>>> = (0..participants)
            .map(|p| {
                let lo = p * total / participants;
                let hi = (p + 1) * total / participants;
                host.gauge(
                    "dcd_pool_queue_depth",
                    "Initial morsel-queue depth per participant at job submission",
                    &[("participant", &p.to_string())],
                )
                .set((hi - lo) as f64);
                Mutex::new((lo..hi).collect())
            })
            .collect();
        let steals =
            host.counter("dcd_pool_steals_total", "Morsels stolen from a victim's deque", &[]);
        // SAFETY: this function blocks below until `remaining == 0`, so
        // `run_one` outlives every dereference (module safety protocol).
        let erased = unsafe { erase_task(&run_one) };
        let job = Arc::new(Job {
            deques,
            task: erased,
            status: Mutex::new(JobStatus { remaining: total, panic: None }),
            done: Condvar::new(),
            steals,
        });

        let pool = pool();
        {
            let mut inner = pool.inner.lock().expect("pool poisoned");
            inner.jobs.push_back(QueuedJob { job: job.clone(), next_participant: 1 });
            let deficit = (participants - 1).saturating_sub(inner.idle);
            for _ in 0..deficit.min(MAX_WORKERS.saturating_sub(inner.spawned)) {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the pool is where the workspace's threads come from"
                )]
                let worker =
                    std::thread::Builder::new().name("dcd-pool-worker".into()).spawn(worker_loop);
                if worker.is_ok() {
                    inner.spawned += 1;
                }
            }
            pool.work_ready.notify_all();
        }

        // The caller is participant 0: drain, then block until every
        // claimed morsel has finished (step 3 of the safety protocol).
        job.work(0);
        let payload = {
            let mut st = job.status.lock().expect("job status poisoned");
            while st.remaining > 0 {
                st = job.done.wait(st).expect("job status poisoned");
            }
            st.panic.take()
        };
        // Drop the stale queue entry (present iff never fully subscribed).
        {
            let mut inner = pool.inner.lock().expect("pool poisoned");
            inner.jobs.retain(|q| !Arc::ptr_eq(&q.job, &job));
        }
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
        flat = slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("result slot poisoned"))
            .collect();
    }

    let mut out: Vec<Vec<T>> = counts.iter().map(|&n| Vec::with_capacity(n)).collect();
    for (i, r) in flat.iter_mut().enumerate() {
        let (site, _) = morsels[i];
        out[site].push(r.take().expect("every morsel was claimed"));
    }
    out
}

/// Runs `task(0) … task(n-1)` on up to `threads` participants and
/// returns the results in index order: the site-granular shim over
/// [`morsel_map`] (one single-chunk morsel per site). Kept for phases
/// whose unit of work really is a whole site — validation at
/// coordinators, per-fragment shipping — and for existing callers.
pub fn scoped_map<T, F>(threads: usize, n: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    morsel_map(threads, &vec![1; n], |site, _chunk| task(site))
        .into_iter()
        .map(|mut per_site| per_site.pop().expect("one chunk per site"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order() {
        for threads in [1, 2, 8, 16] {
            let out = scoped_map(threads, 37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>(), "threads = {threads}");
        }
    }

    #[test]
    fn zero_and_single_task_edges() {
        assert_eq!(scoped_map(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(scoped_map(8, 1, |i| i + 1), vec![1]);
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        let out = scoped_map(64, 3, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn tasks_can_borrow_the_callers_stack() {
        let data = [10usize, 20, 30, 40];
        let sums = scoped_map(4, data.len(), |i| data[i] + 1);
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
        // One giant site plus tiny ones: stealing must not perturb the
        // (site, chunk) result order.
        let counts = [1usize, 200, 1, 1];
        let out = morsel_map(8, &counts, |s, c| s * 1000 + c);
        for (s, per_site) in out.iter().enumerate() {
            assert_eq!(per_site, &(0..counts[s]).map(|c| s * 1000 + c).collect::<Vec<_>>());
        }
    }

    #[test]
    fn morsel_map_reuses_the_persistent_pool() {
        // Back-to-back jobs across widths; workers persist between them.
        for round in 0..5 {
            let counts = [4usize, 4, 4];
            let out = morsel_map(1 + round % 4, &counts, |s, c| s + c);
            assert_eq!(out[2][3], 5);
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
