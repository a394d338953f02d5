//! The telemetry context: whose counter, span or trace event this is (the
//! crate docs' "Contexts" section is the user's view; this is the machinery).
//!
//! Every switch and buffer of the crate is the [`State`] of one context. A
//! thread acts on the context [`Scope::run`] installed on it, else on the
//! one **root** context, which [`root`] builds from the environment — the
//! only place `AHNTP_TELEMETRY`, `AHNTP_LOG`, `AHNTP_TRACE_OUT`,
//! `AHNTP_TRACE_CAP` and `AHNTP_PROFILE` are read.
//!
//! Cost when nothing is on: every hook first checks a process-wide *count*
//! — live contexts with metrics on, or collect/profile switches that are
//! set — with one relaxed load, and returns when it is zero: no lock, no
//! thread-local, no allocation. Both counts start at [`ROOT_UNBUILT`], so
//! the first hook of the process falls through and builds the root.

use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};

use crate::env::{env_flag, env_parse};
use crate::metrics::Registry;
use crate::trace::{TraceEvent, KERNEL_KINDS};

/// Switch: counters, gauges and histograms record.
pub(crate) const ENABLED: u32 = 1;
/// Switch: closed frames are appended to the Chrome event sink.
pub(crate) const COLLECT: u32 = 2;
/// Switch: kernel self time accumulates into the per-kind profile.
pub(crate) const PROFILE: u32 = 4;

// The counts are gates, not data: every access is `Relaxed`. A thread that
// inherits a context synchronises with whoever switched it on through the
// hand-off itself (thread spawn), and a stale
// non-zero read only costs the thread-local lookup that finds the truth.
/// Held in both counts until [`root`] has read the environment.
const ROOT_UNBUILT: usize = 1 << (usize::BITS - 1);
/// Live contexts whose [`ENABLED`] switch is on.
static METRICS_ON: AtomicUsize = AtomicUsize::new(ROOT_UNBUILT);
/// [`COLLECT`] and [`PROFILE`] switches that are on, over all live contexts.
static TRACING_ON: AtomicUsize = AtomicUsize::new(ROOT_UNBUILT);
static ROOT: OnceLock<State> = OnceLock::new();

/// The process-wide count behind `switches` (metrics, or trace switches).
#[inline]
fn anywhere(switches: u32) -> &'static AtomicUsize {
    if switches == ENABLED {
        &METRICS_ON
    } else {
        &TRACING_ON
    }
}

/// Everything one context owns.
pub(crate) struct State {
    switches: AtomicU32,
    pub(crate) metrics: Registry,
    /// The Chrome event buffer: at most `cap` (`AHNTP_TRACE_CAP`) events,
    /// the rest counted in `dropped`, so a long-running traced server
    /// cannot grow without bound.
    pub(crate) events: Mutex<Vec<TraceEvent>>,
    pub(crate) dropped: AtomicU64,
    cap: usize,
    pub(crate) kernel_self_us: [AtomicU64; KERNEL_KINDS],
    /// Where [`crate::flush_trace_to_env`] writes (`AHNTP_TRACE_OUT`).
    pub(crate) trace_out: Option<PathBuf>,
}

impl State {
    fn new(switches: u32, cap: usize, trace_out: Option<PathBuf>) -> State {
        let state = State {
            switches: AtomicU32::new(0),
            metrics: Registry::default(),
            events: Mutex::default(),
            dropped: AtomicU64::new(0),
            cap,
            kernel_self_us: Default::default(),
            trace_out,
        };
        for switch in [ENABLED, COLLECT, PROFILE] {
            state.set(switch, switches & switch != 0);
        }
        state
    }

    /// Whether any of `switches` is on.
    #[inline]
    pub(crate) fn on(&self, switches: u32) -> bool {
        self.switches.load(Relaxed) & switches != 0
    }

    pub(crate) fn emit(&self, event: TraceEvent) {
        let mut events = self.events.lock().unwrap();
        if events.len() < self.cap {
            events.push(event);
        } else {
            self.dropped.fetch_add(1, Relaxed);
        }
    }

    /// Flips one switch, keeping the process-wide count in step.
    fn set(&self, switch: u32, on: bool) {
        if on && self.switches.fetch_or(switch, Relaxed) & switch == 0 {
            anywhere(switch).fetch_add(1, Relaxed);
        } else if !on && self.switches.fetch_and(!switch, Relaxed) & switch != 0 {
            anywhere(switch).fetch_sub(1, Relaxed);
        }
    }
}

impl Drop for State {
    fn drop(&mut self) {
        for switch in [ENABLED, COLLECT, PROFILE] {
            self.set(switch, false);
        }
    }
}

/// The root context, built from the environment on first use — the one
/// place the crate's switches are read from it.
fn root() -> &'static State {
    ROOT.get_or_init(|| {
        let trace_out = std::env::var("AHNTP_TRACE_OUT")
            .ok()
            .filter(|p| !p.trim().is_empty());
        let on = |yes: bool, switch: u32| if yes { switch } else { 0 };
        let switches = on(
            env_flag("AHNTP_TELEMETRY") || std::env::var("AHNTP_LOG").is_ok(),
            ENABLED,
        ) | on(trace_out.is_some(), COLLECT)
            | on(env_flag("AHNTP_PROFILE"), PROFILE);
        let cap = env_parse("AHNTP_TRACE_CAP", 262_144usize).max(1);
        let root = State::new(switches, cap, trace_out.map(PathBuf::from));
        METRICS_ON.fetch_sub(ROOT_UNBUILT, Relaxed);
        TRACING_ON.fetch_sub(ROOT_UNBUILT, Relaxed);
        root
    })
}

/// A telemetry context together with a trace position (trace id + the span
/// to parent under): what a thread works in, and what crosses a thread
/// hand-off. See the module docs.
#[derive(Clone)]
pub struct Scope {
    /// `None`: the root context.
    state: Option<Arc<State>>,
    pub(crate) trace_id: u64,
    /// Span name inherited across a hand-off; open frames shadow it.
    pub(crate) parent: Option<&'static str>,
}

thread_local! {
    static CURRENT: RefCell<Scope> =
        const { RefCell::new(Scope { state: None, trace_id: 0, parent: None }) };
}

impl Scope {
    /// The calling thread's context and trace position.
    pub fn capture() -> Scope {
        let mut scope = with_current(Scope::clone);
        scope.parent = crate::trace::innermost_span().or(scope.parent);
        scope
    }

    /// A new context: the root's switches, no counters, no events, zero
    /// profile, no trace position.
    pub fn fresh() -> Scope {
        let root = root();
        let state = State::new(
            root.switches.load(Relaxed),
            root.cap,
            root.trace_out.clone(),
        );
        Scope {
            state: Some(Arc::new(state)),
            trace_id: 0,
            parent: None,
        }
    }

    /// Runs `f` with this as the calling thread's context and trace
    /// position, putting the previous ones back afterwards (also on unwind).
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Scope);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT.with(|c| std::mem::swap(&mut *c.borrow_mut(), &mut self.0));
            }
        }
        let _restore = Restore(CURRENT.with(|c| c.replace(self.clone())));
        f()
    }

    pub(crate) fn state(&self) -> &State {
        self.state.as_deref().unwrap_or_else(|| root())
    }
}

/// Runs `f` on the calling thread's current scope.
pub(crate) fn with_current<R>(f: impl FnOnce(&Scope) -> R) -> R {
    CURRENT.with(|c| f(&c.borrow()))
}

/// Sets the calling thread's ambient trace id, returning the previous one.
pub(crate) fn replace_trace_id(trace_id: u64) -> u64 {
    CURRENT.with(|c| std::mem::replace(&mut c.borrow_mut().trace_id, trace_id))
}

/// Runs `f` on the calling thread's scope if any of `switches` — the metrics
/// switch, or trace switches — is on in its context: the gate in front of
/// every counter, span and trace event. One relaxed load when none is on in
/// any context.
#[inline]
pub(crate) fn when_on(switches: u32, f: impl FnOnce(&Scope)) {
    if anywhere(switches).load(Relaxed) != 0 {
        with_current(|scope| {
            if scope.state().on(switches) {
                f(scope)
            }
        });
    }
}

/// Whether [`when_on`]`(switches, …)` would run.
#[inline]
pub(crate) fn is_on(switches: u32) -> bool {
    let mut on = false;
    when_on(switches, |_| on = true);
    on
}

/// Flips one switch of the calling thread's context.
pub(crate) fn set(switch: u32, on: bool) {
    with_current(|scope| scope.state().set(switch, on));
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{counter_add, counter_get, set_enabled, set_trace_collect};
    use crate::{KernelKind, KernelSpan};

    /// Runs `f` under a fresh context with metrics on: how this crate's
    /// tests count from zero.
    pub(crate) fn enabled_context<R>(f: impl FnOnce() -> R) -> R {
        Scope::fresh().run(|| {
            set_enabled(true);
            f()
        })
    }

    #[test]
    fn each_context_counts_and_collects_only_its_own() {
        std::thread::scope(|threads| {
            let workers: Vec<_> = (1..=8u64)
                .map(|n| {
                    threads.spawn(move || {
                        Scope::fresh().run(|| {
                            set_enabled(true);
                            set_trace_collect(true);
                            for _ in 0..n * 100 {
                                counter_add("iso.calls", 1);
                            }
                            drop(KernelSpan::enter("iso.span", KernelKind::Other));
                            let events = with_current(|s| s.state().events.lock().unwrap().len());
                            (counter_get("iso.calls"), events)
                        })
                    })
                })
                .collect();
            for (n, worker) in (1..=8u64).zip(workers) {
                assert_eq!(worker.join().unwrap(), (n * 100, 1), "context {n}");
            }
        });
        assert_eq!(
            counter_get("iso.calls"),
            0,
            "a context leaked into the root"
        );
        let root_events = crate::chrome_trace_json().to_line();
        assert!(!root_events.contains("iso.span"), "{root_events}");
    }

    #[test]
    fn hooks_with_nothing_on_never_install_a_context() {
        // On a fresh thread. Siblings enabling contexts of their own only
        // send the hooks past the process-wide gate — the stricter case.
        std::thread::spawn(|| {
            counter_add("iso.nowhere", 1);
            crate::histogram_record("iso.nowhere.us", 1);
            crate::gauge_set("iso.nowhere.gauge", 1.0);
            drop(KernelSpan::enter("iso.nowhere.span", KernelKind::Other));
            CURRENT.with(|c| {
                let current = c.borrow();
                assert!(current.state.is_none(), "a context was installed");
                assert_eq!((current.trace_id, current.parent), (0, None));
            });
            assert!(
                crate::trace::frames_never_pushed(),
                "a span frame was pushed"
            );
            assert_eq!(counter_get("iso.nowhere"), 0);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_fresh_context_starts_from_the_roots_switches() {
        // No test of this crate flips a switch of the root itself.
        let scope = Scope::fresh();
        for switch in [ENABLED, COLLECT, PROFILE] {
            assert_eq!(
                scope.state().on(switch),
                root().on(switch),
                "switch {switch}"
            );
        }
        scope.run(|| {
            let was = crate::enabled();
            set_enabled(!was);
            assert_eq!(crate::enabled(), !was);
            assert_eq!(root().on(ENABLED), was, "the root followed a fresh context");
        });
    }

    #[test]
    fn run_restores_the_previous_context_on_unwind() {
        let outer = Scope::fresh();
        outer.run(|| {
            set_enabled(true);
            counter_add("iso.outer", 1);
            let inner = Scope::fresh();
            let unwound = std::panic::catch_unwind(|| {
                inner.run(|| {
                    set_enabled(true);
                    counter_add("iso.inner", 1);
                    panic!("inside the inner context");
                })
            });
            assert!(unwound.is_err());
            assert_eq!((counter_get("iso.outer"), counter_get("iso.inner")), (1, 0));
            assert_eq!(inner.run(|| counter_get("iso.inner")), 1);
        });
    }
}
