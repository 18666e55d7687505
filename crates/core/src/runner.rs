//! Deterministic parallel experiment engine, run through a [`RunCtx`].
//!
//! Every figure grid in [`crate::experiments`] is a set of *independent*
//! simulation runs: a cell's result is a pure function of
//! `(SystemConfig, workloads, mitigation, seed)`. This module fans those
//! cells out to a scoped thread pool and reassembles the results **in job
//! order**, so parallel output is bit-for-bit identical to the serial
//! path (`tests/parallel_determinism.rs` pins this).
//!
//! # Worker sizing
//!
//! [`thread_count`] defaults to [`std::thread::available_parallelism`]
//! and honours a `HISS_THREADS` environment variable override (clamped to
//! at least 1). One worker forces the serial path — no threads are
//! spawned at all. An unparseable override is ignored with a one-time
//! warning rather than silently forcing the serial path.
//!
//! # Design notes
//!
//! - Built on [`std::thread::scope`]: borrowing the job closure and its
//!   captured grids requires no `'static` bounds, no channels, and no
//!   external dependencies (the crate registry is unreachable in the
//!   environments this workspace targets).
//! - Work distribution is a single shared [`AtomicUsize`] cursor —
//!   effectively work stealing with a critical section of one
//!   `fetch_add`. Simulation cells take milliseconds, so contention is
//!   unmeasurable.
//! - Each worker buffers `(index, result)` pairs; the pool merges and
//!   sorts by index. Scheduling order therefore cannot leak into output
//!   order.
//! - A panicking job *poisons the cursor* (stores `n`) so sibling
//!   workers stop claiming new jobs, then re-raises the panic on the
//!   caller thread (preserving `should_panic` test behaviour and the
//!   experiment modules' `expect` diagnostics). In-flight jobs finish;
//!   queued ones never start.
//! - The free [`run_jobs_profiled`] is the same pool with wall-clock
//!   instrumentation ([`PoolProfile`]), kept only for the `hissbench`
//!   harness. Wall time is inherently non-deterministic, which is why
//!   the profile is a separate return value and never enters a
//!   [`crate::RunReport`] snapshot.
//!
//! # The long-lived pool
//!
//! [`WorkerPool`] is the serving path's pool: `threads` persistent
//! workers, started by the first submission, take jobs from one FIFO
//! queue shared by every submission. [`WorkerPool::stream`] hands each
//! result to the submitting thread in job order as soon as every earlier
//! one is in, so a caller can act on result 0 while the rest still run.
//! Each submission keeps at most `threads` jobs queued or running, so
//! concurrent submissions interleave instead of queueing behind one
//! another, and a bounded number of finished results wait to be emitted.
//! A panicking job is caught on its worker, which survives, and is
//! re-raised on the submitting thread. Batch runs keep the scoped
//! [`RunCtx`] pool above.
// Sanctioned exemption (see lint.toml): the job pool is the one
// concurrency boundary, and Instant feeds only the hissbench shim
// (`run_jobs_profiled`) and the pool tests.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use hiss_sim::OnlineStats;

use crate::experiments::BaselineCache;

/// Pool invocations (one per `run_jobs*` call) and jobs scheduled:
/// deterministic for a fixed workload whatever the worker count, which
/// lets `hiss-cli bench` gate on them exactly.
#[derive(Debug, Default)]
pub struct PoolTally {
    invocations: AtomicU64,
    jobs: AtomicU64,
}

impl PoolTally {
    /// Adds `(invocations, jobs)` — say, another tally's totals.
    pub fn add(&self, (invocations, jobs): (u64, u64)) {
        self.invocations.fetch_add(invocations, Ordering::Relaxed);
        self.jobs.fetch_add(jobs, Ordering::Relaxed);
    }

    /// `(invocations, jobs_scheduled)` so far.
    pub fn totals(&self) -> (u64, u64) {
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        (load(&self.invocations), load(&self.jobs))
    }
}

/// One unit of work's worker count, [`BaselineCache`] and [`PoolTally`].
/// Front ends build one per command, the bench one per suite and tests
/// their own, so no run state is shared and every counter a context
/// reports is absolute. The service runs on a [`WorkerPool`] instead.
#[derive(Debug)]
pub struct RunCtx {
    threads: usize,
    cache: BaselineCache,
    pool: PoolTally,
}

impl RunCtx {
    /// A context with `threads` workers (clamped to at least 1), an
    /// empty in-memory baseline cache and a zero tally.
    pub fn new(threads: usize) -> RunCtx {
        RunCtx {
            threads: threads.max(1),
            cache: BaselineCache::default(),
            pool: PoolTally::default(),
        }
    }

    /// The context's baseline cache.
    pub fn cache(&self) -> &BaselineCache {
        &self.cache
    }

    /// The pool work done on this context so far.
    pub fn pool(&self) -> &PoolTally {
        &self.pool
    }

    /// Runs jobs `0..n` through `job` on the context's workers and returns
    /// the results in job-index order: `(0..n).map(job).collect()`,
    /// including on panic, but parallel.
    pub fn run_jobs<T: Send>(&self, n: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
        self.pool.add((1, n as u64));
        merge_sorted(run_buckets(self.threads.clamp(1, n.max(1)), n, job), n)
    }
}

/// A queued unit of work: one job of one [`WorkerPool::stream`] call.
type Task = Box<dyn FnOnce() + Send>;

/// The FIFO every worker of a [`WorkerPool`] takes from.
#[derive(Default)]
struct Queue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

#[derive(Default)]
struct QueueState {
    tasks: VecDeque<Task>,
    closing: bool,
}

impl Queue {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        // Tasks catch their own panics, so a poisoned lock still holds
        // a consistent queue.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, task: Task) {
        self.lock().tasks.push_back(task);
        self.ready.notify_one();
    }

    /// A worker's life: run tasks in queue order until the pool closes
    /// and the queue is empty.
    fn work(&self) {
        loop {
            let task = {
                let mut state = self.lock();
                loop {
                    if let Some(task) = state.tasks.pop_front() {
                        break task;
                    }
                    if state.closing {
                        return;
                    }
                    state = self
                        .ready
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            task();
        }
    }
}

/// Sets a submission's cancel flag when its submitter leaves
/// [`WorkerPool::stream`], normally or by unwinding, so jobs of it still
/// queued are skipped rather than run for nobody.
struct Cancel(Arc<AtomicBool>);

impl Drop for Cancel {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// A long-lived pool of `threads` workers shared by every submission of
/// a service: see the module docs. Workers start on the first
/// [`Self::stream`] call, not in [`Self::new`], and dropping the pool
/// joins them.
pub struct WorkerPool {
    threads: usize,
    queue: Arc<Queue>,
    workers: OnceLock<Vec<JoinHandle<()>>>,
    tally: PoolTally,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("started", &self.workers.get().is_some())
            .field("tally", &self.tally)
            .finish()
    }
}

impl WorkerPool {
    /// A pool of `threads` workers (clamped to at least 1). Spawns
    /// nothing until the first submission.
    pub fn new(threads: usize) -> WorkerPool {
        WorkerPool {
            threads: threads.max(1),
            queue: Arc::default(),
            workers: OnceLock::new(),
            tally: PoolTally::default(),
        }
    }

    /// The pool work of every submission so far: one invocation and `n`
    /// jobs per [`Self::stream`] call.
    pub fn tally(&self) -> &PoolTally {
        &self.tally
    }

    /// Runs jobs `0..n` on the pool's workers and calls `emit` on the
    /// calling thread with each result in job order, as soon as it and
    /// every earlier result are in.
    ///
    /// At most `threads` of these jobs are queued or running at once,
    /// and at most `backlog.max(threads)` are started but not yet
    /// emitted, which bounds the finished results waiting on a slow
    /// `emit`. A panicking job panics the caller with its payload once
    /// it is the next result due; jobs not yet started are skipped.
    pub fn stream<T, F>(&self, n: usize, backlog: usize, job: F, mut emit: impl FnMut(T))
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        self.tally.add((1, n as u64));
        if n == 0 {
            return;
        }
        self.start();
        let job = Arc::new(job);
        let cancel = Cancel(Arc::default());
        let (tx, rx) = mpsc::channel();
        let window = backlog.max(self.threads);
        // Results not yet emitted, indexed from `emitted`.
        let mut ready: VecDeque<Option<std::thread::Result<T>>> = VecDeque::new();
        let (mut queued, mut emitted, mut in_flight) = (0, 0, 0);
        while emitted < n {
            while queued < n && in_flight < self.threads && queued - emitted < window {
                let (job, tx, cancelled) = (Arc::clone(&job), tx.clone(), Arc::clone(&cancel.0));
                let i = queued;
                self.queue.push(Box::new(move || {
                    if !cancelled.load(Ordering::Relaxed) {
                        let result = panic::catch_unwind(AssertUnwindSafe(|| job(i)));
                        // The receiver is gone only if the submitter
                        // already unwound; nobody wants the result then.
                        let _ = tx.send((i, result));
                    }
                }));
                queued += 1;
                in_flight += 1;
            }
            // Completions go first, so their workers get the next jobs
            // before a slow `emit`; block only when no result is due.
            let due = ready.front().is_some_and(Option::is_some);
            let done = if due {
                rx.try_recv().ok()
            } else {
                Some(rx.recv().expect("the submitter holds a sender"))
            };
            if let Some((i, result)) = done {
                in_flight -= 1;
                let slot = i - emitted;
                if ready.len() <= slot {
                    ready.resize_with(slot + 1, || None);
                }
                ready[slot] = Some(result);
                continue;
            }
            emitted += 1;
            match ready.pop_front().flatten().expect("a result is due") {
                Ok(v) => emit(v),
                Err(payload) => panic::resume_unwind(payload),
            }
        }
    }

    /// Spawns the workers, once.
    fn start(&self) {
        self.workers.get_or_init(|| {
            (0..self.threads)
                .map(|w| {
                    let queue = Arc::clone(&self.queue);
                    std::thread::Builder::new()
                        .name(format!("hiss-worker-{w}"))
                        .spawn(move || queue.work())
                        .expect("spawning a pool worker")
                })
                .collect()
        });
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.queue.lock().closing = true;
        self.queue.ready.notify_all();
        for worker in self.workers.take().unwrap_or_default() {
            // Jobs catch their panics, so a worker only ever returns.
            let _ = worker.join();
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn warn_bad_threads_once(value: &str) {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        eprintln!(
            "hiss: ignoring unparseable HISS_THREADS={value:?}; \
             falling back to available parallelism"
        );
    });
}

/// Worker count for a given `HISS_THREADS` value (`None` = unset).
///
/// A parseable value is clamped to at least 1; an unparseable one (e.g.
/// `HISS_THREADS=max`) is ignored — with a one-time stderr warning — and
/// the machine's available parallelism is used, exactly as if the
/// variable were unset.
pub fn thread_count_from(var: Option<&str>) -> usize {
    match var {
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) => n.max(1),
            Err(_) => {
                warn_bad_threads_once(v);
                default_threads()
            }
        },
        None => default_threads(),
    }
}

/// Number of worker threads the pool will use: the `HISS_THREADS`
/// environment variable if set (minimum 1; unparseable values are
/// ignored with a warning), otherwise the machine's available
/// parallelism.
pub fn thread_count() -> usize {
    thread_count_from(std::env::var("HISS_THREADS").ok().as_deref())
}

/// Wall-clock profile of one pool invocation.
///
/// Wall time is non-deterministic by nature, so profiles are reported
/// separately from simulation results and **never** merged into a
/// [`crate::RunReport`] metrics snapshot (which must stay bit-identical
/// across thread counts).
#[derive(Debug, Clone)]
pub struct PoolProfile {
    /// Worker threads used (1 = serial path, no threads spawned).
    pub threads: usize,
    /// Jobs executed.
    pub jobs: usize,
    /// End-to-end wall time of the pool invocation, seconds.
    pub wall_s: f64,
    /// Per-job wall time, seconds.
    pub job_s: OnlineStats,
    /// Jobs executed by each worker (queue occupancy; index = worker).
    pub jobs_per_worker: Vec<u64>,
}

/// Runs jobs `0..n` on up to `threads` workers, returning each worker's
/// `(index, result)` buffer. Panics in jobs poison the cursor (siblings
/// stop claiming work) and re-raise on the caller thread.
fn run_buckets<T, F>(threads: usize, n: usize, job: F) -> Vec<Vec<(usize, T)>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads == 1 {
        return vec![(0..n).map(|i| (i, job(i))).collect()];
    }

    let cursor = AtomicUsize::new(0);
    let job = &job;
    let cursor = &cursor;
    let buckets: Vec<std::thread::Result<Vec<(usize, T)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        match panic::catch_unwind(AssertUnwindSafe(|| job(i))) {
                            Ok(v) => out.push((i, v)),
                            Err(payload) => {
                                // Poison: siblings see an exhausted queue
                                // and stop after their in-flight job.
                                cursor.store(n, Ordering::Relaxed);
                                panic::resume_unwind(payload);
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });

    let mut out = Vec::with_capacity(threads);
    let mut panic_payload = None;
    for bucket in buckets {
        match bucket {
            Ok(pairs) => out.push(pairs),
            Err(payload) => panic_payload = Some(payload),
        }
    }
    if let Some(payload) = panic_payload {
        panic::resume_unwind(payload);
    }
    out
}

fn merge_sorted<T: Send>(buckets: Vec<Vec<(usize, T)>>, n: usize) -> Vec<T> {
    let mut indexed: Vec<(usize, T)> = Vec::with_capacity(n);
    for bucket in buckets {
        indexed.extend(bucket);
    }
    indexed.sort_unstable_by_key(|(i, _)| *i);
    debug_assert_eq!(indexed.len(), n);
    indexed.into_iter().map(|(_, v)| v).collect()
}

/// [`RunCtx::run_jobs`] on `threads` workers with wall-clock
/// instrumentation, counted on no context: the in-order results plus a
/// [`PoolProfile`] of per-job durations and per-worker occupancy. Kept
/// only for the `hissbench` harness, which calls it with this
/// signature; it goes when that harness moves to [`RunCtx`].
pub fn run_jobs_profiled<T, F>(threads: usize, n: usize, job: F) -> (Vec<T>, PoolProfile)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    let start = Instant::now();
    let buckets = run_buckets(threads, n, |i| {
        let t0 = Instant::now();
        let v = job(i);
        (v, t0.elapsed().as_secs_f64())
    });

    let mut job_s = OnlineStats::new();
    let mut jobs_per_worker = Vec::with_capacity(buckets.len());
    for bucket in &buckets {
        jobs_per_worker.push(bucket.len() as u64);
        for (_, (_, dur)) in bucket {
            job_s.push(*dur);
        }
    }
    let results = merge_sorted(buckets, n)
        .into_iter()
        .map(|(v, _)| v)
        .collect();
    let profile = PoolProfile {
        threads,
        jobs: n,
        wall_s: start.elapsed().as_secs_f64(),
        job_s,
        jobs_per_worker,
    };
    (results, profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn run_jobs_on<T: Send>(threads: usize, n: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
        RunCtx::new(threads).run_jobs(n, job)
    }

    #[test]
    fn results_are_in_job_order() {
        for threads in [1, 2, 8] {
            let out = run_jobs_on(threads, 100, |i| i * i);
            let want: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(out, want, "threads={threads}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let hits = AtomicU64::new(0);
        let out = run_jobs_on(4, 1000, |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn zero_jobs_is_fine() {
        let out: Vec<usize> = run_jobs_on(8, 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "job 7 exploded")]
    fn worker_panics_propagate() {
        run_jobs_on(4, 16, |i| {
            if i == 7 {
                panic!("job 7 exploded");
            }
            i
        });
    }

    /// Regression: a panicking job must abort the pool, not merely
    /// propagate after every queued job has drained. Pre-fix, all 64
    /// jobs executed; post-fix, only the handful in flight when the
    /// panic poisons the cursor do.
    #[test]
    fn worker_panic_aborts_remaining_jobs() {
        let executed = AtomicU64::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            run_jobs_on(4, 64, |i| {
                executed.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(5));
                if i == 0 {
                    panic!("job 0 exploded");
                }
                i
            });
        }));
        assert!(result.is_err(), "panic must still propagate");
        let ran = executed.load(Ordering::SeqCst);
        // Workers in flight when the cursor is poisoned finish; with 4
        // workers and ~synchronized 5 ms jobs that is a couple of rounds
        // at most. Draining the whole queue (the bug) would hit 64.
        assert!(ran < 32, "pool drained {ran}/64 jobs after a panic");
    }

    /// A context's tally advances by one invocation and `n` jobs per
    /// pool call, and adds into another tally whole.
    #[test]
    fn pool_totals_advance_per_invocation() {
        let ctx = RunCtx::new(4);
        assert_eq!(ctx.pool().totals(), (0, 0));
        ctx.run_jobs(7, |i| i);
        ctx.run_jobs(13, |i| i);
        assert_eq!(ctx.pool().totals(), (2, 20));
        let sum = PoolTally::default();
        sum.add(ctx.pool().totals());
        sum.add(ctx.pool().totals());
        assert_eq!(sum.totals(), (4, 40));
    }

    /// Streams jobs `0..n` of `pool` into a vector, in emission order.
    fn collect<T: Send + 'static>(
        pool: &WorkerPool,
        n: usize,
        job: impl Fn(usize) -> T + Send + Sync + 'static,
    ) -> Vec<T> {
        let mut out = Vec::new();
        pool.stream(n, 8, job, |v| out.push(v));
        out
    }

    #[test]
    fn pool_emits_results_in_job_order() {
        for threads in [1, 2, 8] {
            let pool = WorkerPool::new(threads);
            assert!(pool.workers.get().is_none(), "workers start lazily");
            // Later jobs finish first, so completion order is scrambled.
            let out = collect(&pool, 40, |i| {
                std::thread::sleep(Duration::from_micros(((40 - i) % 7) as u64 * 300));
                i * i
            });
            let want: Vec<usize> = (0..40).map(|i| i * i).collect();
            assert_eq!(out, want, "threads={threads}");
            assert_eq!(pool.workers.get().map(Vec::len), Some(threads));
            assert_eq!(pool.tally().totals(), (1, 40));
        }
    }

    /// The first result reaches the caller while jobs are still running:
    /// the last job waits, boundedly, for `emit(0)` to have happened.
    #[test]
    fn pool_emits_result_zero_before_the_last_job_starts() {
        const N: usize = 6;
        let pool = WorkerPool::new(2);
        let emitted_zero = Arc::new(AtomicBool::new(false));
        let seen = Arc::clone(&emitted_zero);
        let mut out = Vec::new();
        let job = move |i: usize| {
            if i < N - 1 {
                return true;
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            while !seen.load(Ordering::SeqCst) {
                if Instant::now() > deadline {
                    return false;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            true
        };
        pool.stream(N, 8, job, |ok| {
            emitted_zero.store(true, Ordering::SeqCst);
            out.push(ok);
        });
        assert_eq!(out, vec![true; N], "job {} never saw emit(0)", N - 1);
    }

    #[test]
    fn pool_panics_the_submitter_and_survives() {
        let pool = WorkerPool::new(2);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            collect(&pool, 16, |i| {
                if i == 3 {
                    panic!("job 3 exploded");
                }
                i
            })
        }));
        let payload = result.expect_err("the submitter panics");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job 3 exploded"));
        // Both workers still serve the next submission.
        assert_eq!(collect(&pool, 16, |i| i + 1), (1..=16).collect::<Vec<_>>());
    }

    /// Concurrent submitters share the workers: each gets its own
    /// results in order, and no more jobs run at once than there are
    /// workers.
    #[test]
    fn concurrent_submitters_share_the_workers() {
        let pool = WorkerPool::new(2);
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for s in 0..4 {
                let (pool, running, peak) = (&pool, Arc::clone(&running), Arc::clone(&peak));
                scope.spawn(move || {
                    let out = collect(pool, 12, move |i| {
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_micros(500));
                        running.fetch_sub(1, Ordering::SeqCst);
                        (s, i)
                    });
                    let want: Vec<_> = (0..12).map(|i| (s, i)).collect();
                    assert_eq!(out, want, "submitter {s}");
                });
            }
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "{peak:?} jobs ran at once"
        );
        assert_eq!(pool.tally().totals(), (4, 48));
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn thread_count_from_parses_and_clamps() {
        assert_eq!(thread_count_from(Some("4")), 4);
        assert_eq!(thread_count_from(Some(" 8 ")), 8);
        assert_eq!(thread_count_from(Some("0")), 1);
    }

    /// Regression: `HISS_THREADS=max` used to silently force the serial
    /// path; it must fall back to available parallelism, same as unset.
    #[test]
    fn thread_count_from_falls_back_on_garbage() {
        let default = thread_count_from(None);
        assert!(default >= 1);
        assert_eq!(thread_count_from(Some("max")), default);
        assert_eq!(thread_count_from(Some("")), default);
        assert_eq!(thread_count_from(Some("-3")), default);
    }

    #[test]
    fn profiled_results_match_unprofiled() {
        for threads in [1, 4] {
            let (out, profile) = run_jobs_profiled(threads, 50, |i| i * 3);
            assert_eq!(
                out,
                run_jobs_on(threads, 50, |i| i * 3),
                "threads={threads}"
            );
            assert_eq!(profile.jobs, 50);
            assert_eq!(profile.threads, threads);
            assert_eq!(profile.job_s.count(), 50);
            assert_eq!(profile.jobs_per_worker.iter().sum::<u64>(), 50);
            assert!(profile.wall_s >= 0.0);
        }
    }
}
