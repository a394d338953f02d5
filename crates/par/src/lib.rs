//! Deterministic data-parallel primitives for the AHNTP kernels.
//!
//! Every hot path in the reproduction — dense products, sparse
//! aggregations, the autograd backward passes built on them, and the
//! serving index scans — is embarrassingly parallel across *output rows*.
//! This crate supplies the one piece of machinery they share: a
//! lazily-initialized, persistent worker pool plus the banding primitives
//! kernels are written against: [`par_rows`] fills a mutable output band
//! by band, [`par_bands`] builds one fragment per band, and [`par_map`]
//! runs independent tasks.
//!
//! # Determinism contract
//!
//! The primitives only *distribute* work; they never reorder it. Each
//! task owns a contiguous band of the output and runs exactly the serial
//! loop over that band, so every output element is produced by the same
//! sequence of floating-point operations at any thread count. Kernels
//! built this way are **bitwise identical** to their serial versions —
//! which is what keeps autograd gradcheck, checkpoint fingerprints, and
//! the serving `±1e-6` invariant intact when `AHNTP_THREADS` changes.
//!
//! # One context, one hand-off
//!
//! Whose counter a kernel moves, which span it parents under and which
//! failpoints it can hit is one question with one answer: the thread's
//! [`Context`]. A thread gets its context by inheritance only, and the
//! contract is the same wherever work moves to another thread:
//! [`Context::capture`] on the side that hands it over, [`Context::run`]
//! around it on the side that executes it, nothing carried separately.
//! Every pool task runs under its submitter's context whichever thread
//! executes it; [`Context::spawn`] does the same for a dedicated thread
//! (every thread of `ahntp-serve`); [`Context::fresh`] starts a new one.
//!
//! # Sizing
//!
//! The pool size is resolved once from `AHNTP_THREADS` (default: the
//! machine's available parallelism; `1` disables the pool entirely and
//! every primitive degrades to an exact inline serial loop; `0` means
//! "auto"). [`set_threads`] overrides it at runtime; `AHNTP_THREADS` is
//! the one deployment knob, and [`with_pool`] the one way to vary the pool
//! inside a test. Worker threads are spawned on first parallel use, never
//! before, and parked on a condvar when idle.
//!
//! # One loop per kernel
//!
//! A kernel hands [`par_rows`] / [`par_bands`] its estimated scalar-op
//! count and one band closure. The serial/parallel decision is taken here,
//! once: with a single thread, work under the threshold
//! ([`DEFAULT_PAR_THRESHOLD`]; only [`with_pool`] varies it) or fewer than
//! two rows, the closure is called exactly once over the whole range — that
//! call *is* the serial kernel, so no kernel carries a second copy of its
//! loop. [`par_enabled`] exposes the same decision to the one kernel that
//! keeps a different *algorithm* per side (serial scatter, banded gather):
//! `CsrMatrix::t_mul_dense`.
//!
//! # Telemetry
//!
//! `par.tasks` counts tasks executed by the primitives and `par.threads`
//! gauges the resolved pool size (both via `ahntp-telemetry`, in the
//! submitter's context; no-ops while its telemetry is off). Each kernel
//! names a `<kernel>.par_calls` counter that moves when its banded path
//! runs.
//!
//! # Safety
//!
//! Besides `ahntp-mapped` (memory-mapped artifact views) and one guarded
//! call in `ahntp-tensor` (its dense kernel's AVX-512F instantiation) this
//! is the only library crate in the workspace that uses `unsafe`. The pool
//! executes borrowed closures on persistent threads, which requires
//! erasing the closure lifetime (exactly the trick scoped-thread
//! libraries use). Soundness rests on one invariant, enforced by
//! [`run_tasks`]: the submitting call **blocks until every one of its
//! tasks has finished** before returning, so no borrow inside a task can
//! outlive the stack frame that owns the data. The single `unsafe`
//! expression lives in [`erase_lifetime`] with the full argument.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use ahntp_telemetry::{counter_add, gauge_set};

/// Hard cap on the pool size; protects against `AHNTP_THREADS=1000000`.
pub const MAX_THREADS: usize = 256;

/// Default work threshold (estimated scalar ops) below which kernels stay
/// serial: at ~a quarter-million fused ops the serial loop runs long
/// enough (~100µs) to dwarf the ~10µs dispatch cost.
pub const DEFAULT_PAR_THRESHOLD: usize = 262_144;

/// Resolved pool size; 0 = not yet resolved.
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Work threshold for [`par_enabled`].
static PAR_THRESHOLD: AtomicUsize = AtomicUsize::new(DEFAULT_PAR_THRESHOLD);

/// A queued unit of work. `'static` here is a lie told by
/// [`erase_lifetime`]; see the crate-level Safety section.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    /// Worker threads spawned so far (they are never torn down; surplus
    /// workers after [`set_threads`] shrinks the pool simply stay parked).
    workers: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    job_ready: Condvar,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            queue: VecDeque::new(),
            workers: 0,
        }),
        job_ready: Condvar::new(),
    })
}

/// Completion tracking for one submitted batch of tasks.
struct Batch {
    remaining: Mutex<usize>,
    done: Condvar,
    /// First panic payload observed in any task of the batch.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// The number of compute threads the primitives will partition across.
///
/// Resolved once from `AHNTP_THREADS` (malformed values warn and fall
/// back; `0` or unset means the machine's available parallelism), then
/// cached. [`set_threads`] overrides the cached value.
pub fn threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => {
            let resolved = resolve_threads_from_env();
            // Racing initializers compute the same value, so a lost race
            // is harmless either way.
            let _ = THREADS.compare_exchange(0, resolved, Ordering::Relaxed, Ordering::Relaxed);
            let now = THREADS.load(Ordering::Relaxed);
            gauge_set("par.threads", now as f64);
            now
        }
        n => n,
    }
}

fn resolve_threads_from_env() -> usize {
    let auto = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let n = ahntp_telemetry::env_parse("AHNTP_THREADS", 0usize);
    let n = if n == 0 { auto } else { n };
    n.clamp(1, MAX_THREADS)
}

/// Overrides the pool size (clamped to `1..=`[`MAX_THREADS`]). `1` makes
/// every primitive run inline and serially. Shrinking after workers have
/// spawned leaves the surplus parked; growing spawns more on demand.
///
/// Process-wide and never restored: for a binary that pins its pool once.
/// Inside a test [`with_pool`] is the only correct way to vary the pool — it
/// keeps sibling tests' kernels off a size they did not ask for, and puts
/// the size back when the closure panics.
pub fn set_threads(n: usize) {
    let n = n.clamp(1, MAX_THREADS);
    THREADS.store(n, Ordering::Relaxed);
    gauge_set("par.threads", n as f64);
}

/// Current parallelism threshold (estimated scalar ops); see
/// [`par_enabled`].
fn par_threshold() -> usize {
    PAR_THRESHOLD.load(Ordering::Relaxed)
}

/// Overrides the work threshold of [`par_enabled`]. `0` forces every
/// gated kernel onto the parallel path regardless of size. Never restored,
/// so private: [`with_pool`] is the way to vary it.
fn set_par_threshold(threshold: usize) {
    PAR_THRESHOLD.store(threshold, Ordering::Relaxed);
}

/// Whether a kernel expecting `work` scalar operations should take its
/// parallel path: more than one thread and enough work to amortize the
/// dispatch. Results are bitwise identical either way, so this gate is
/// purely a performance decision.
#[inline]
pub fn par_enabled(work: usize) -> bool {
    threads() > 1 && work >= par_threshold()
}

/// Contiguous band length that splits `n` items across the pool: the
/// smallest size giving at most [`threads`] bands. Always ≥ 1.
#[inline]
fn band_size(n: usize) -> usize {
    n.div_ceil(threads()).max(1)
}

/// The execution context a thread works in — telemetry context, trace
/// position and failpoint scope — as one value; see the crate docs.
#[derive(Clone)]
pub struct Context {
    telemetry: ahntp_telemetry::Scope,
    faults: ahntp_faultz::Scope,
}

impl Context {
    /// The calling thread's context.
    pub fn capture() -> Context {
        Context {
            telemetry: ahntp_telemetry::Scope::capture(),
            faults: ahntp_faultz::Scope::capture(),
        }
    }

    /// A new context: empty counters, trace buffers and profile (switches
    /// as the environment set them) and no failpoint armed.
    pub fn fresh() -> Context {
        Context {
            telemetry: ahntp_telemetry::Scope::fresh(),
            faults: ahntp_faultz::Scope::default(),
        }
    }

    /// Runs `f` with this as the calling thread's context, putting the
    /// previous one back afterwards (also on unwind).
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        self.faults.run(|| self.telemetry.run(f))
    }

    /// Spawns a thread that runs `f` under this context.
    pub fn spawn<T: Send + 'static>(
        self,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> std::thread::JoinHandle<T> {
        std::thread::spawn(move || self.run(f))
    }
}

/// Erases the lifetime of a boxed task so it can sit in the `'static`
/// worker queue.
///
/// # Safety
///
/// The caller must not return (or unwind past) the stack frame owning
/// data borrowed by `job` until the job has finished executing.
/// [`run_tasks`] upholds this by blocking on the batch's completion
/// condvar — covering its own early-exit paths too — before returning.
unsafe fn erase_lifetime<'a>(job: Box<dyn FnOnce() + Send + 'a>) -> Job {
    // SAFETY: a trait-object Box has the same layout regardless of the
    // closure's lifetime parameter; the caller guarantees the referent
    // outlives the job's execution (see above).
    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'a>, Job>(job) }
}

/// Runs a set of borrowed tasks to completion across the pool.
///
/// Tasks may run on any worker or on the calling thread (the caller
/// "helps" by draining the shared queue instead of idling), but this
/// function only returns once every task has finished — the invariant
/// that makes lending borrowed closures to persistent threads sound. If a
/// task panics, the batch still runs to completion and the first panic
/// payload is re-raised on the caller.
///
/// With one configured thread, or a single task, everything runs inline
/// in submission order: the exact serial fallback.
fn run_tasks<'a>(tasks: Vec<Box<dyn FnOnce() + Send + 'a>>) {
    let n = tasks.len();
    if n == 0 {
        return;
    }
    counter_add("par.tasks", n as u64);
    if n == 1 || threads() == 1 {
        for task in tasks {
            task();
        }
        return;
    }

    let pool = pool();
    ensure_workers(pool, threads() - 1);

    // A task counts, traces and fails the way its submitter does, and not
    // the way whoever else keeps this worker busy does.
    let ctx = Context::capture();
    let batch = Arc::new(Batch {
        remaining: Mutex::new(n),
        done: Condvar::new(),
        panic: Mutex::new(None),
    });
    {
        let mut state = pool.state.lock().unwrap();
        for task in tasks {
            let (batch, ctx) = (Arc::clone(&batch), ctx.clone());
            let wrapped: Box<dyn FnOnce() + Send + 'a> = Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(|| ctx.run(task)));
                if let Err(payload) = result {
                    let mut slot = batch.panic.lock().unwrap();
                    slot.get_or_insert(payload);
                }
                let mut remaining = batch.remaining.lock().unwrap();
                *remaining -= 1;
                if *remaining == 0 {
                    batch.done.notify_all();
                }
            });
            // SAFETY: this frame blocks below until `batch.remaining`
            // hits zero, so every borrow captured by `wrapped` outlives
            // its execution.
            state.queue.push_back(unsafe { erase_lifetime(wrapped) });
        }
        pool.job_ready.notify_all();
    }

    // Help: drain jobs (ours or a concurrent batch's) instead of idling.
    loop {
        let job = pool.state.lock().unwrap().queue.pop_front();
        match job {
            Some(job) => job(),
            None => break,
        }
    }
    // Wait for workers still mid-task.
    let mut remaining = batch.remaining.lock().unwrap();
    while *remaining > 0 {
        remaining = batch.done.wait(remaining).unwrap();
    }
    drop(remaining);
    let payload = batch.panic.lock().unwrap().take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Spawns parked workers until `target` exist. Workers live for the
/// process; they hold no resources while idle beyond a parked thread.
fn ensure_workers(pool: &'static Pool, target: usize) {
    let mut state = pool.state.lock().unwrap();
    while state.workers < target {
        let id = state.workers;
        // A worker outlives every submitter, so the thread itself belongs to
        // no context: each job it pops installs its own (see `run_tasks`).
        std::thread::Builder::new()
            .name(format!("ahntp-par-{id}"))
            .spawn(move || worker_loop(pool))
            .expect("ahntp-par: failed to spawn worker thread");
        state.workers += 1;
    }
}

fn worker_loop(pool: &'static Pool) {
    loop {
        let job = {
            let mut state = pool.state.lock().unwrap();
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                state = pool.job_ready.wait(state).unwrap();
            }
        };
        // Panics are caught inside the batch wrapper, so a poisoned task
        // cannot take the worker down with it.
        job();
    }
}

/// Splits `data` into contiguous chunks of `chunk_len` elements (the last
/// may be shorter) and runs `f(chunk_index, chunk)` across the pool.
///
/// Each element belongs to exactly one chunk and each chunk to exactly
/// one task, so writes need no synchronization and the result is
/// identical at any thread count as long as `f` itself is deterministic
/// per `(chunk_index, chunk)`.
fn par_chunks<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    let f = &f;
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = data
        .chunks_mut(chunk_len.max(1))
        .enumerate()
        .map(|(i, chunk)| Box::new(move || f(i, chunk)) as Box<dyn FnOnce() + Send + '_>)
        .collect();
    run_tasks(tasks);
}

/// Computes `f(0), f(1), …, f(n-1)` across the pool, returning results in
/// index order.
pub fn par_map<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let f = &f;
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
        .iter_mut()
        .enumerate()
        .map(|(i, slot)| Box::new(move || *slot = Some(f(i))) as Box<dyn FnOnce() + Send + '_>)
        .collect();
    run_tasks(tasks);
    out.into_iter()
        .enumerate()
        .map(|(i, slot)| slot.unwrap_or_else(|| panic!("par_map: task {i} did not run")))
        .collect()
}

/// The one serial/parallel decision, shared by [`par_rows`] and
/// [`par_bands`]: `Some(band length)` when `n` rows carrying `work`
/// estimated scalar ops should be banded across the pool (counted on the
/// kernel's `par_calls` counter), `None` when they should run as one band.
fn band_plan(n: usize, work: usize, par_calls: &str) -> Option<usize> {
    if n < 2 || !par_enabled(work) {
        return None;
    }
    counter_add(par_calls, 1);
    Some(band_size(n))
}

/// Fills `out` — `out.len() / row_len` rows of `row_len` elements — by
/// calling `f(row0, band)` on contiguous row bands, where `band` holds the
/// rows starting at `row0`.
///
/// `work` is the kernel's estimated scalar-op count and `par_calls` its
/// `<kernel>.par_calls` counter. When the rows are not worth banding (see
/// the crate docs), `f(0, out)` is called exactly once: that call is the
/// serial kernel, so write `f` the way that is fastest over the whole
/// output. Each row belongs to exactly one band, so if `f` computes a row
/// the same way wherever its band starts, results are bitwise identical at
/// any thread count. An empty `out` has no rows and `f` is not called.
///
/// # Panics
///
/// Panics if `out.len()` is not a multiple of `row_len`.
pub fn par_rows<T, F>(out: &mut [T], row_len: usize, work: usize, par_calls: &str, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if out.is_empty() {
        return;
    }
    assert!(
        out.len().is_multiple_of(row_len),
        "par_rows: output of {} elements is not whole rows of {row_len}",
        out.len()
    );
    match band_plan(out.len() / row_len, work, par_calls) {
        None => f(0, out),
        Some(band) => par_chunks(out, band * row_len, |ci, chunk| f(ci * band, chunk)),
    }
}

/// Computes one fragment per contiguous band of `0..n` by calling
/// `f(lo, hi)`, returning the fragments in band order — for kernels whose
/// output size is not known up front (CSR products and selections, per-band
/// top-k heaps).
///
/// `work` and `par_calls` are as for [`par_rows`]. When `0..n` is not worth
/// banding, the result is the single fragment `f(0, n)` (also for `n == 0`),
/// so callers stitch fragments the same way on both sides of the decision.
pub fn par_bands<R, F>(n: usize, work: usize, par_calls: &str, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, usize) -> R + Sync,
{
    match band_plan(n, work, par_calls) {
        None => vec![f(0, n)],
        Some(band) => par_map(n.div_ceil(band), |bi| {
            let lo = bi * band;
            f(lo, (lo + band).min(n))
        }),
    }
}

/// Runs `f` with the pool forced to `threads` threads and the work
/// threshold to `threshold` (`0` sends every gated kernel down its banded
/// path), then restores both — also when `f` panics.
///
/// The pool configuration is process-global and `cargo test` runs the tests
/// of one binary on parallel threads, so calls serialise on an internal
/// lock: two tests can neither observe each other's settings nor restore
/// them out of order. Not re-entrant.
pub fn with_pool<R>(threads: usize, threshold: usize, f: impl FnOnce() -> R) -> R {
    static LOCK: Mutex<()> = Mutex::new(());
    struct Restore {
        threads: usize,
        threshold: usize,
        // Dropped after `Drop::drop` has restored the configuration.
        _lock: std::sync::MutexGuard<'static, ()>,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            set_threads(self.threads);
            set_par_threshold(self.threshold);
        }
    }
    // A panicking `f` poisons the lock after `Restore` has put the
    // configuration back, so the guarded state is valid either way.
    let lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = Restore {
        threads: self::threads(),
        threshold: par_threshold(),
        _lock: lock,
    };
    set_threads(threads);
    set_par_threshold(threshold);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pool size `n` at the default threshold, via the public helper.
    fn with_threads(n: usize, f: impl FnOnce()) {
        with_pool(n, DEFAULT_PAR_THRESHOLD, f);
    }

    #[test]
    fn par_map_preserves_index_order() {
        for t in [1, 2, 7] {
            with_threads(t, || {
                let out = par_map(100, |i| i * i);
                assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
            });
        }
    }

    #[test]
    fn par_chunks_touches_every_element_once() {
        for t in [1, 3, 8] {
            with_threads(t, || {
                let mut data = vec![0u32; 1003];
                par_chunks(&mut data, 97, |ci, chunk| {
                    for (j, v) in chunk.iter_mut().enumerate() {
                        *v += (ci * 97 + j) as u32 + 1;
                    }
                });
                for (i, &v) in data.iter().enumerate() {
                    assert_eq!(v, i as u32 + 1, "element {i} written wrongly");
                }
            });
        }
    }

    #[test]
    fn par_chunks_handles_ragged_and_empty() {
        with_threads(7, || {
            // Fewer items than threads.
            let mut tiny = vec![1i64, 2, 3];
            par_chunks(&mut tiny, 1, |_, chunk| chunk[0] *= 10);
            assert_eq!(tiny, vec![10, 20, 30]);
            // Empty input is a no-op.
            let mut empty: Vec<i64> = Vec::new();
            par_chunks(&mut empty, 4, |_, _| panic!("no chunks expected"));
        });
    }

    #[test]
    fn single_thread_runs_inline_without_pool() {
        with_threads(1, || {
            // Would deadlock if dispatched to a pool of zero workers
            // without the caller-helps loop; inline execution also keeps
            // submission order.
            let order = Mutex::new(Vec::new());
            let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..5)
                .map(|i| {
                    let order = &order;
                    Box::new(move || order.lock().unwrap().push(i)) as Box<dyn FnOnce() + Send>
                })
                .collect();
            run_tasks(tasks);
            assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
        });
    }

    #[test]
    fn panics_propagate_and_pool_survives() {
        with_threads(4, || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                par_map(8, |i| {
                    if i == 3 {
                        panic!("task 3 exploded");
                    }
                    i
                })
            }));
            assert!(result.is_err(), "panic must reach the caller");
            // The pool keeps working after a panicked batch.
            assert_eq!(par_map(4, |i| i + 1), vec![1, 2, 3, 4]);
        });
    }

    #[test]
    fn nested_parallelism_does_not_deadlock() {
        with_threads(2, || {
            let out = par_map(4, |i| par_map(4, move |j| i * 4 + j).iter().sum::<usize>());
            assert_eq!(out, vec![6, 22, 38, 54]);
        });
    }

    #[test]
    fn band_size_covers_all_items() {
        with_threads(7, || {
            for n in [0usize, 1, 3, 6, 7, 8, 100] {
                let band = band_size(n);
                assert!(band >= 1);
                assert!(band * 7 >= n, "bands too small for n={n}");
            }
        });
    }

    #[test]
    fn threshold_gates_par_enabled() {
        with_threads(4, || {
            set_par_threshold(1000);
            assert!(!par_enabled(999));
            assert!(par_enabled(1000));
            set_par_threshold(0);
            assert!(par_enabled(0));
        });
    }

    #[test]
    fn one_thread_disables_par_enabled() {
        with_threads(1, || {
            assert!(!par_enabled(usize::MAX));
        });
    }

    /// Row ranges handed to a band closure.
    type Ranges = Vec<(usize, usize)>;

    /// Every `(row0, rows)` / `(lo, hi)` call the two primitives make for
    /// `n` rows of `row_len` elements.
    fn calls_of(n: usize, row_len: usize, work: usize) -> (Ranges, Ranges) {
        let rows_calls = Mutex::new(Vec::new());
        let mut out = vec![0u8; n * row_len];
        par_rows(&mut out, row_len, work, "test.par_calls", |row0, band| {
            assert_eq!(band.len() % row_len, 0, "band splits a row");
            rows_calls
                .lock()
                .unwrap()
                .push((row0, band.len() / row_len));
            band.fill(1);
        });
        assert!(out.iter().all(|&v| v == 1), "a row was never handed out");
        let bands = par_bands(n, work, "test.par_calls", |lo, hi| (lo, hi));
        let mut rows_calls = rows_calls.into_inner().unwrap();
        rows_calls.sort_unstable(); // tasks may finish in any order
        (rows_calls, bands)
    }

    #[test]
    fn serial_decision_is_one_call_over_the_whole_range() {
        // (threads, threshold, rows, work): one thread; work under the
        // threshold; a single row.
        for (threads, threshold, n, work) in
            [(1, 0, 40, usize::MAX), (4, 1000, 40, 999), (4, 0, 1, 5)]
        {
            with_pool(threads, threshold, || {
                let (rows_calls, bands) = calls_of(n, 3, work);
                assert_eq!(rows_calls, vec![(0, n)], "par_rows at {threads} threads");
                assert_eq!(bands, vec![(0, n)], "par_bands at {threads} threads");
            });
        }
        // No rows: nothing to fill, but still exactly one (empty) fragment.
        with_pool(4, 0, || {
            par_rows(&mut [0u8; 0], 3, 0, "test.par_calls", |_, _| {
                panic!("no rows expected")
            });
            assert_eq!(
                par_bands(0, 0, "test.par_calls", |lo, hi| (lo, hi)),
                vec![(0, 0)]
            );
        });
    }

    #[test]
    fn ragged_splits_cover_every_row_once_in_order() {
        for threads in [2, 7] {
            for n in [3usize, 7, 13, 40] {
                with_pool(threads, 0, || {
                    let (rows_calls, bands) = calls_of(n, 5, 0);
                    let as_ranges: Vec<_> = rows_calls
                        .iter()
                        .map(|&(row0, rows)| (row0, row0 + rows))
                        .collect();
                    assert_eq!(as_ranges, bands, "the two primitives band alike");
                    assert!(
                        bands.len() >= 2 && bands.len() <= threads,
                        "n={n}: {bands:?}"
                    );
                    let mut next = 0;
                    for &(lo, hi) in &bands {
                        assert_eq!(lo, next, "n={n} threads={threads}: gap or overlap");
                        assert!(hi > lo, "n={n} threads={threads}: empty band");
                        next = hi;
                    }
                    assert_eq!(next, n, "n={n} threads={threads}: rows left over");
                });
            }
        }
    }

    #[test]
    fn a_task_runs_under_its_submitters_fault_scope() {
        use ahntp_faultz::{hit, scoped, Action, FaultSpec};
        // Which rows of a banded `par_rows` saw `par.tests.site` armed.
        let rows_faulted = || {
            let mut rows = [false; 8];
            par_rows(&mut rows, 1, 0, "test.par_calls", |_, band| {
                band.fill(hit("par.tests.site").is_some());
            });
            rows
        };
        with_pool(4, 0, || {
            let _fault = scoped("par.tests.site", FaultSpec::new(Action::Err));
            // Both submitters feed one queue and help drain it, so each
            // thread runs the other's bands too.
            std::thread::scope(|s| {
                let other = s.spawn(|| (0..20).map(|_| rows_faulted()).collect::<Vec<_>>());
                for _ in 0..20 {
                    assert_eq!(
                        rows_faulted(),
                        [true; 8],
                        "a band missed its submitter's fault"
                    );
                }
                let leaked = other
                    .join()
                    .unwrap()
                    .iter()
                    .any(|rows| rows.contains(&true));
                assert!(!leaked, "a band saw another submitter's fault");
            });
        });
    }

    #[test]
    fn a_band_counts_into_its_submitters_context() {
        use ahntp_telemetry::{counter_get, set_enabled};
        // `rounds` banded kernels of 8 rows, every row counted on `name`
        // from whichever thread runs its band; the submitter's readings.
        let submit = |name: &'static str, rounds: u64| {
            Context::fresh().run(|| {
                set_enabled(true);
                for _ in 0..rounds {
                    par_rows(&mut [0u8; 8], 1, 0, "par.tests.par_calls", |_, band| {
                        counter_add(name, band.len() as u64);
                    });
                }
                [name, "par.tests.par_calls", "par.tasks"].map(counter_get)
            })
        };
        with_pool(4, 0, || {
            // Both submitters feed one queue and help drain it, so each
            // thread runs the other's bands too.
            std::thread::scope(|s| {
                let other = s.spawn(|| {
                    let mine = submit("par.tests.other_rows", 13);
                    (mine, counter_get("par.tests.rows"))
                });
                assert_eq!(submit("par.tests.rows", 20), [160, 20, 80]);
                let (others, seen_of_mine) = other.join().unwrap();
                assert_eq!(others, [104, 13, 52]);
                assert_eq!(
                    seen_of_mine, 0,
                    "a band counted into another submitter's context"
                );
            });
        });
    }

    #[test]
    fn spawn_and_run_carry_the_whole_context() {
        use ahntp_faultz::{hit, scoped, Action, FaultSpec};
        use ahntp_telemetry::{counter_get, set_enabled};
        let ctx = Context::fresh();
        let seen = ctx.run(|| {
            set_enabled(true);
            let _fault = scoped("par.tests.spawned", FaultSpec::new(Action::Err));
            let inherited = Context::capture().spawn(|| hit("par.tests.spawned").is_some());
            let stranger = std::thread::spawn(|| hit("par.tests.spawned").is_some());
            (
                inherited.join().unwrap(),
                stranger.join().unwrap(),
                counter_get("faultz.triggered"),
            )
        });
        assert_eq!(seen, (true, false, 1));
        assert_eq!(
            counter_get("faultz.par.tests.spawned.triggered"),
            0,
            "left the context"
        );
        assert_eq!(
            ctx.run(|| counter_get("faultz.par.tests.spawned.triggered")),
            1
        );
    }

    #[test]
    fn with_pool_restores_on_unwind() {
        // 12345 is a threshold no other test forces, so seeing it after the
        // unwind can only mean the restore did not run. (Reading the ambient
        // values outside the lock would race with sibling tests.)
        let result = catch_unwind(|| with_pool(6, 12345, || panic!("inside with_pool")));
        assert!(result.is_err(), "the panic must reach the caller");
        assert_ne!(par_threshold(), 12345, "threshold left behind by a panic");
        // The lock is free again (poisoned, which `with_pool` tolerates).
        with_pool(2, 9, || assert_eq!((threads(), par_threshold()), (2, 9)));
    }
}
