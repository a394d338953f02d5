//! The execution context a thread works in, and the hand-off that carries
//! it to another thread.
//!
//! Whose counter a kernel moves, which span it parents under and which
//! failpoints it can hit is one question with one answer: the thread's
//! [`Context`]. A thread gets its context by inheritance only, and the
//! contract is the same wherever work moves to another thread:
//! [`Context::capture`] on the side that hands it over, [`Context::run`]
//! around it on the side that executes it, nothing carried separately.
//! [`Context::spawn`] does both for a dedicated thread (every thread of
//! `ahntp-serve`); [`Context::fresh`] starts a new one, which is how a test
//! keeps its counters and failpoints to itself.
//!
//! # One thread per kernel
//!
//! Every kernel of the workspace runs its one loop on the calling thread,
//! so no work is handed to a kernel thread: on the two-vCPU hosts this
//! reproduction is measured on, a second kernel thread lost wall-clock
//! training throughput in every measured run (EXPERIMENTS.md, "One thread,
//! one path").
//!
//! [`threads`], [`set_threads`] and [`par_map`] are shims kept for the
//! benchmark crate alone, which still calls them: `threads` is 1,
//! `set_threads` does nothing and `par_map` maps in order on the calling
//! thread. They go with the next change to `crates/perf`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Always 1: every kernel runs on the calling thread. Kept for
/// `ahntp-perf`, which prints it; it goes with the next change to
/// `crates/perf`.
pub fn threads() -> usize {
    1
}

/// Does nothing: there is no pool to size. Kept for `ahntp-perf`, which
/// pins the size it once had; it goes with the next change to
/// `crates/perf`.
pub fn set_threads(_threads: usize) {}

/// `f(0), f(1), …, f(n-1)` in index order, on the calling thread. Kept for
/// `ahntp-perf`'s `par.dispatch_us` probe; it goes with the next change to
/// `crates/perf`.
pub fn par_map<R>(n: usize, f: impl Fn(usize) -> R) -> Vec<R> {
    (0..n).map(f).collect()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_index_order() {
        assert_eq!(
            par_map(100, |i| i * i),
            (0..100).map(|i| i * i).collect::<Vec<_>>()
        );
    }

    #[test]
    fn single_thread_runs_inline_without_pool() {
        // What `ahntp-perf`'s probe does: ask for two threads, then map.
        set_threads(2);
        assert_eq!(threads(), 1);
        let caller = std::thread::current().id();
        let ran_on = par_map(4, |_| std::thread::current().id());
        assert!(ran_on.iter().all(|&id| id == caller), "{ran_on:?}");
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
}
