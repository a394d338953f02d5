//! Deterministic failpoint registry for the AHNTP stack.
//!
//! A *failpoint* is a named site in production code where a test (or an
//! operator, via the environment) can inject a fault: an error return, a
//! panic, or a delay. Sites are compiled in permanently and wired through
//! the hot seams of the stack — checkpoint I/O, the training loop,
//! hypergraph cache builds, every serve request stage — so that "the disk
//! died mid-checkpoint" or "the applier wedged" become deterministic,
//! assertable test scenarios instead of prayers.
//!
//! Everything is plain `std` plus the in-workspace telemetry crate: no
//! external dependencies, mirroring `ahntp-telemetry`'s design.
//!
//! # Cost when disabled
//!
//! The fast path of every site is one relaxed atomic load of the
//! process-wide armed-site count (every live scope plus the environment)
//! followed by a single always-false predicted branch — the same budget as
//! a disabled telemetry hook. No string is hashed, no lock or thread-local
//! is touched, and nothing allocates until at least one failpoint is armed
//! somewhere in the process.
//!
//! # Scope
//!
//! A failpoint belongs to the context that armed it. [`scoped`] arms a site
//! in the calling thread's [`Scope`] (created on first use), and evaluating
//! a site consults the evaluating thread's scope only — a test that arms
//! `train.epoch` faults its own training run, not the sibling test's on the
//! next thread. A scope is *inherited*, never configured, and not on its
//! own: it rides inside `ahntp_par::Context`, the one value captured where
//! work goes to another thread (every thread of an `ahntp-serve` server)
//! together with the telemetry context, so the
//! counters a triggered fault moves are its own context's too. Both sides
//! share one scope, so a server sees what its starter arms *later*.
//! [`Scope::capture`] / [`Scope::run`] are the halves `Context` is built from.
//!
//! The environment is the only process-wide arm: `AHNTP_FAILPOINTS` sites
//! fire on every thread. A scoped spec on the same site *shadows* the
//! environment's within its scope and uncovers it again when its guard
//! drops; each layer keeps its own hit count.
//!
//! # Arming
//!
//! Programmatically (tests):
//!
//! ```
//! use ahntp_faultz::{self as faultz, Action, FaultSpec};
//!
//! let guard = faultz::scoped("demo.site", FaultSpec::new(Action::Err));
//! assert!(faultz::hit("demo.site").is_some());
//! // Other threads are not in this scope…
//! assert!(std::thread::spawn(|| faultz::hit("demo.site")).join().unwrap().is_none());
//! // …unless they inherit it (what `ahntp_par::Context` does at a hand-off).
//! let scope = faultz::Scope::capture();
//! let worker = std::thread::spawn(move || scope.run(|| faultz::hit("demo.site")));
//! assert!(worker.join().unwrap().is_some());
//! drop(guard); // site disarmed, hit count cleared
//! assert!(faultz::hit("demo.site").is_none());
//! ```
//!
//! Or from the environment, read once on first use:
//!
//! ```text
//! AHNTP_FAILPOINTS='ckpt.io.write=err;serve.request=delay(10);train.epoch=nth(3)'
//! ```
//!
//! The env grammar is `site=action` pairs separated by `;` (or `,`), with
//! actions `err` (inject an error on every hit), `panic` (panic on every
//! hit), `delay(ms)` (sleep that many milliseconds on every hit), and
//! `nth(k)` (inject an error on the k-th hit only, 1-based — the
//! "crash on the third checkpoint write" form). Programmatic specs can
//! combine any action with an `nth` gate via [`FaultSpec::on_nth`].
//!
//! # Evaluating
//!
//! Fallible code uses the [`failpoint!`] macro, which early-returns an
//! error converted from [`Injected`] (sites pick their error type via a
//! `From<Injected>` impl, or supply a closure building the return value):
//!
//! ```ignore
//! fn write(path: &Path, bytes: &[u8]) -> io::Result<()> {
//!     failpoint!("ckpt.io.write");            // returns Err(Injected.into())
//!     ...
//! }
//! ```
//!
//! Infallible code (the training loop, cache builds) calls
//! [`enforce`], which escalates an injected error to a panic — the only
//! honest way to "fail" a function that cannot return an error. Code that
//! wants to *degrade* rather than fail calls [`hit`] directly and
//! branches on the result.
//!
//! Every triggered fault increments the `faultz.triggered` telemetry
//! counter (plus per-site `faultz.<site>.triggered`) of the context it fired
//! in, so a chaos test under a fresh context asserts the exact number of
//! injected events.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// The error value a triggered failpoint injects. Consumer crates convert
/// it into their own error types via `From<Injected>` impls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injected {
    site: String,
}

impl Injected {
    /// Name of the failpoint that fired.
    pub fn site(&self) -> &str {
        &self.site
    }
}

impl std::fmt::Display for Injected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at failpoint `{}`", self.site)
    }
}

impl std::error::Error for Injected {}

impl From<Injected> for std::io::Error {
    fn from(inj: Injected) -> std::io::Error {
        std::io::Error::other(inj.to_string())
    }
}

impl From<Injected> for String {
    fn from(inj: Injected) -> String {
        inj.to_string()
    }
}

/// What a triggered failpoint does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Inject an error ([`hit`] returns `Some(Injected)`).
    Err,
    /// Panic with a message naming the site.
    Panic,
    /// Sleep this many milliseconds, then continue normally.
    Delay(u64),
}

/// A full fault specification: an action plus an optional `nth` gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    action: Action,
    /// When set, the action fires only on this (1-based) evaluation of the
    /// site; every other evaluation is a no-op.
    nth: Option<u64>,
}

impl FaultSpec {
    /// A spec that fires its action on every evaluation.
    pub fn new(action: Action) -> FaultSpec {
        FaultSpec { action, nth: None }
    }

    /// Restricts the spec to fire only on the `n`-th evaluation (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn on_nth(mut self, n: u64) -> FaultSpec {
        assert!(n > 0, "nth gates are 1-based");
        self.nth = Some(n);
        self
    }

    /// Parses the env grammar: `err`, `panic`, `delay(ms)`, `nth(k)`.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed spec.
    pub fn parse(text: &str) -> Result<FaultSpec, String> {
        let text = text.trim();
        match text {
            "err" => return Ok(FaultSpec::new(Action::Err)),
            "panic" => return Ok(FaultSpec::new(Action::Panic)),
            _ => {}
        }
        let arg = |prefix: &str| -> Option<Result<u64, String>> {
            let inner = text.strip_prefix(prefix)?.strip_suffix(')')?;
            Some(
                inner
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| format!("bad numeric argument in {text:?}")),
            )
        };
        if let Some(ms) = arg("delay(") {
            return Ok(FaultSpec::new(Action::Delay(ms?)));
        }
        if let Some(k) = arg("nth(") {
            let k = k?;
            if k == 0 {
                return Err(format!("nth is 1-based, got {text:?}"));
            }
            return Ok(FaultSpec::new(Action::Err).on_nth(k));
        }
        Err(format!(
            "unknown failpoint action {text:?} (expected err, panic, delay(ms), or nth(k))"
        ))
    }
}

struct SiteState {
    spec: FaultSpec,
    hits: u64,
}

/// One layer of armed sites: a thread [`Scope`]'s, or the environment's.
#[derive(Default)]
struct Registry {
    sites: Mutex<HashMap<String, SiteState>>,
}

/// Armed sites over every live scope plus the environment.
static ARMED_SITES: AtomicUsize = AtomicUsize::new(0);
static ENV: OnceLock<Registry> = OnceLock::new();

thread_local! {
    /// The scope this thread arms into and evaluates against; `None` until
    /// the thread arms a site, captures its scope, or runs in another's.
    static SCOPE: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

impl Registry {
    fn sites(&self) -> MutexGuard<'_, HashMap<String, SiteState>> {
        // Failpoints panic by design; a poisoned registry is still valid.
        self.sites.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arms `site` with `spec`, replacing any previous spec and resetting
    /// the site's hit count.
    fn arm(&self, site: &str, spec: FaultSpec) {
        let fresh = self
            .sites()
            .insert(site.to_string(), SiteState { spec, hits: 0 })
            .is_none();
        if fresh {
            ARMED_SITES.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Disarms `site` (no-op if it was not armed).
    fn disarm(&self, site: &str) {
        if self.sites().remove(site).is_some() {
            ARMED_SITES.fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn hits(&self, site: &str) -> Option<u64> {
        self.sites().get(site).map(|s| s.hits)
    }

    /// Counts one evaluation of `site`. `None`: not armed in this layer.
    /// `Some(None)`: armed, but the `nth` gate holds this evaluation back.
    fn evaluate(&self, site: &str) -> Option<Option<Action>> {
        let mut sites = self.sites();
        let state = sites.get_mut(site)?;
        state.hits += 1;
        Some(match state.spec.nth {
            Some(n) if state.hits != n => None,
            _ => Some(state.spec.action),
        })
    }
}

/// The environment's registry: `AHNTP_FAILPOINTS`, read once. Malformed
/// entries are warned about and skipped, matching the telemetry crate's
/// env-parsing policy (never silently ignore, never abort).
fn env() -> &'static Registry {
    ENV.get_or_init(|| {
        let env = Registry::default();
        let Ok(raw) = std::env::var("AHNTP_FAILPOINTS") else {
            return env;
        };
        for entry in raw.split([';', ',']).filter(|e| !e.trim().is_empty()) {
            let Some((site, spec)) = entry.split_once('=') else {
                ahntp_telemetry::warn!(
                    "faultz",
                    "AHNTP_FAILPOINTS entry {entry:?} is not site=action; skipped"
                );
                continue;
            };
            match FaultSpec::parse(spec) {
                Ok(spec) => env.arm(site.trim(), spec),
                Err(e) => {
                    ahntp_telemetry::warn!("faultz", "AHNTP_FAILPOINTS: {e}; skipped");
                }
            }
        }
        env
    })
}

/// Runs `f` on the calling thread's scope, if it has one.
fn current<R>(f: impl FnOnce(&Registry) -> Option<R>) -> Option<R> {
    SCOPE.with(|s| s.borrow().as_deref().and_then(f))
}

/// Whether any failpoint is armed, in any scope or by the environment. One
/// relaxed atomic load — the gate the [`failpoint!`] macro and every helper
/// check before doing real work.
#[inline]
pub fn armed() -> bool {
    env();
    ARMED_SITES.load(Ordering::Relaxed) != 0
}

/// The failpoints one context armed, shared by every thread working for
/// that context; see the crate docs. The default is a new scope with
/// nothing armed.
#[derive(Clone, Default)]
pub struct Scope(Arc<Registry>);

impl Scope {
    /// The calling thread's scope, created if this is its first use.
    pub fn capture() -> Scope {
        SCOPE.with(|s| Scope(Arc::clone(s.borrow_mut().get_or_insert_with(Arc::default))))
    }

    /// Runs `f` with this as the calling thread's scope, putting the
    /// thread's previous scope back afterwards (also on unwind).
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Arc<Registry>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                SCOPE.with(|s| *s.borrow_mut() = self.0.take());
            }
        }
        let _restore = Restore(SCOPE.with(|s| s.replace(Some(Arc::clone(&self.0)))));
        f()
    }
}

/// Number of times `site` has been evaluated since it was armed — in the
/// calling thread's scope if it is armed there, else by the environment
/// (0 for unarmed sites — unarmed evaluations are not tracked).
pub fn hits(site: &str) -> u64 {
    current(|scope| scope.hits(site))
        .or_else(|| env().hits(site))
        .unwrap_or(0)
}

/// RAII guard returned by [`scoped`]: disarms its site on drop.
pub struct ScopedFault {
    scope: Scope,
    site: String,
}

impl Drop for ScopedFault {
    fn drop(&mut self) {
        self.scope.0.disarm(&self.site);
    }
}

/// Arms `site` in the calling thread's scope for the lifetime of the
/// returned guard, replacing any spec the scope already held for it and
/// resetting its hit count — the test-friendly entry point that cannot leak
/// armed faults into later tests, nor into concurrent ones.
#[must_use = "the failpoint is disarmed when the guard drops"]
pub fn scoped(site: &str, spec: FaultSpec) -> ScopedFault {
    let scope = Scope::capture();
    scope.0.arm(site, spec);
    ScopedFault {
        scope,
        site: site.to_string(),
    }
}

/// Evaluates the failpoint `site` against the calling thread's scope, then
/// the environment: counts the hit and, if an armed spec matches, performs
/// its action. `Some(Injected)` means "fail now"; `None` means continue
/// (possibly after a delay).
///
/// # Panics
///
/// Panics when the armed action is [`Action::Panic`] — that is the action.
pub fn hit(site: &str) -> Option<Injected> {
    if !armed() {
        return None;
    }
    // The scope's spec shadows the environment's: when the site is armed
    // in both, only the scope's layer counts and decides this evaluation.
    let action = current(|scope| scope.evaluate(site)).or_else(|| env().evaluate(site))??;
    ahntp_telemetry::counter_add("faultz.triggered", 1);
    ahntp_telemetry::counter_add(&format!("faultz.{site}.triggered"), 1);
    // Mark the trigger in the Chrome trace so injected faults line up
    // with the spans they perturbed.
    ahntp_telemetry::trace_instant("faultz", site);
    match action {
        Action::Err => {
            ahntp_telemetry::warn!("faultz", "failpoint `{site}`: injecting error");
            Some(Injected {
                site: site.to_string(),
            })
        }
        Action::Panic => {
            ahntp_telemetry::warn!("faultz", "failpoint `{site}`: injecting panic");
            panic!("failpoint `{site}`: injected panic");
        }
        Action::Delay(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            None
        }
    }
}

/// [`hit`] for infallible contexts: an injected error escalates to a
/// panic (there is no error channel to return it through), delays and
/// panics behave as usual.
///
/// # Panics
///
/// Panics when the armed action is [`Action::Err`] or [`Action::Panic`].
pub fn enforce(site: &str) {
    if let Some(inj) = hit(site) {
        panic!("failpoint `{}`: injected failure ({inj})", inj.site());
    }
}

/// Evaluates a failpoint and early-returns on injection.
///
/// Two forms:
///
/// * `failpoint!("site")` — on injection, `return Err(injected.into())`;
///   the enclosing function's error type must implement `From<Injected>`.
/// * `failpoint!("site", |inj| expr)` — on injection, `return expr;` the
///   closure receives the [`Injected`] value and builds the full return
///   value (not just the error).
///
/// When no failpoint is armed anywhere, both forms cost one relaxed
/// atomic load.
#[macro_export]
macro_rules! failpoint {
    ($site:expr) => {
        if $crate::armed() {
            if let Some(inj) = $crate::hit($site) {
                return Err(inj.into());
            }
        }
    };
    ($site:expr, $ret:expr) => {
        if $crate::armed() {
            if let Some(inj) = $crate::hit($site) {
                #[allow(clippy::redundant_closure_call)]
                return ($ret)(inj);
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_sites_are_silent_and_never_create_a_scope() {
        // On a fresh thread. Siblings arming sites of their own only send
        // `hit` past the `armed()` gate — the stricter case.
        let probe = std::thread::spawn(|| {
            let through_macro = || -> Result<(), String> {
                failpoint!("tests.nowhere");
                Ok(())
            };
            assert_eq!(through_macro(), Ok(()));
            assert!(hit("tests.nowhere").is_none());
            assert_eq!(hits("tests.nowhere"), 0);
            assert!(SCOPE.with(|s| s.borrow().is_none()), "a scope was created");
        });
        probe.join().unwrap();
    }

    #[test]
    fn err_fires_on_every_hit_and_scoped_disarms() {
        let guard = scoped("tests.err", FaultSpec::new(Action::Err));
        for _ in 0..3 {
            let inj = hit("tests.err").expect("armed err fires");
            assert_eq!(inj.site(), "tests.err");
        }
        assert_eq!(hits("tests.err"), 3);
        drop(guard);
        assert!(hit("tests.err").is_none());
    }

    #[test]
    fn triggered_counters_account_for_every_injection_and_nothing_else() {
        ahntp_telemetry::Scope::fresh().run(|| {
            ahntp_telemetry::set_enabled(true);
            let _guard = scoped("tests.counted", FaultSpec::new(Action::Err).on_nth(3));
            let _delay = scoped("tests.counted.delay", FaultSpec::new(Action::Delay(0)));
            for i in 1..=4 {
                assert_eq!(hit("tests.counted").is_some(), i == 3);
            }
            assert!(hit("tests.counted.delay").is_none());
            assert!(hit("tests.counted.unarmed").is_none());
            let expected = r#"{"faultz.tests.counted.delay.triggered":1,"faultz.tests.counted.triggered":1,"faultz.triggered":2}"#;
            assert_eq!(ahntp_telemetry::metrics_snapshot_json().to_line(), expected);
        });
    }

    #[test]
    fn nth_gates_to_exactly_one_hit() {
        let _guard = scoped("tests.nth", FaultSpec::new(Action::Err).on_nth(3));
        assert!(hit("tests.nth").is_none());
        assert!(hit("tests.nth").is_none());
        assert!(hit("tests.nth").is_some(), "third hit fires");
        assert!(hit("tests.nth").is_none(), "and only the third");
    }

    #[test]
    fn panic_action_panics_with_the_site_name() {
        let _guard = scoped("tests.panic", FaultSpec::new(Action::Panic));
        let result = std::panic::catch_unwind(|| hit("tests.panic"));
        let err = result.expect_err("must panic");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("tests.panic"), "{msg}");
    }

    #[test]
    fn delay_returns_none_after_sleeping() {
        let _guard = scoped("tests.delay", FaultSpec::new(Action::Delay(5)));
        let started = std::time::Instant::now();
        assert!(hit("tests.delay").is_none());
        assert!(started.elapsed() >= std::time::Duration::from_millis(5));
    }

    #[test]
    fn enforce_escalates_err_to_panic() {
        let _guard = scoped("tests.enforce", FaultSpec::new(Action::Err));
        let result = std::panic::catch_unwind(|| enforce("tests.enforce"));
        let err = result.expect_err("must panic");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("tests.enforce"), "{msg}");
    }

    #[test]
    fn spec_parsing_covers_the_env_grammar() {
        assert_eq!(
            FaultSpec::parse("err").unwrap(),
            FaultSpec::new(Action::Err)
        );
        assert_eq!(
            FaultSpec::parse(" panic ").unwrap(),
            FaultSpec::new(Action::Panic)
        );
        assert_eq!(
            FaultSpec::parse("delay(25)").unwrap(),
            FaultSpec::new(Action::Delay(25))
        );
        assert_eq!(
            FaultSpec::parse("nth(4)").unwrap(),
            FaultSpec::new(Action::Err).on_nth(4)
        );
        assert!(FaultSpec::parse("nth(0)").is_err());
        assert!(FaultSpec::parse("delay(soon)").is_err());
        assert!(FaultSpec::parse("explode").is_err());
    }

    #[test]
    fn macro_returns_the_converted_error() {
        fn guarded() -> Result<u32, String> {
            failpoint!("tests.macro");
            Ok(7)
        }
        assert_eq!(guarded(), Ok(7), "unarmed: straight through");
        let _guard = scoped("tests.macro", FaultSpec::new(Action::Err));
        let err = guarded().expect_err("armed: injected");
        assert!(err.contains("tests.macro"), "{err}");
    }

    #[test]
    fn macro_closure_form_builds_the_return_value() {
        fn guarded() -> u32 {
            failpoint!("tests.macro.closure", |_inj| 99);
            7
        }
        assert_eq!(guarded(), 7);
        let _guard = scoped("tests.macro.closure", FaultSpec::new(Action::Err));
        assert_eq!(guarded(), 99);
    }

    #[test]
    fn rearming_resets_hit_counts() {
        let _guard = scoped("tests.reset", FaultSpec::new(Action::Err).on_nth(2));
        assert!(hit("tests.reset").is_none());
        assert!(hit("tests.reset").is_some());
        let _again = scoped("tests.reset", FaultSpec::new(Action::Err).on_nth(2));
        assert!(hit("tests.reset").is_none(), "count restarted");
        assert!(hit("tests.reset").is_some());
    }

    #[test]
    fn an_armed_site_is_invisible_to_a_sibling_thread_outside_the_scope() {
        let _guard = scoped("iso.site", FaultSpec::new(Action::Err));
        let scope = Scope::capture();
        std::thread::scope(|threads| {
            threads.spawn(|| {
                for i in 0..1000 {
                    assert!(hit("iso.site").is_none(), "sibling faulted on hit {i}");
                }
                assert!(
                    scope.run(|| hit("iso.site")).is_some(),
                    "inherited scope must fire"
                );
                assert!(hit("iso.site").is_none(), "left the scope, still faulted");
            });
            // Armed here the whole time the sibling was probing.
            assert!(hit("iso.site").is_some());
        });
        assert_eq!(
            hits("iso.site"),
            2,
            "the sibling's 1001 stray hits were counted"
        );
    }

    #[test]
    fn a_scoped_spec_shadows_the_environments_and_uncovers_it_on_drop() {
        // What `AHNTP_FAILPOINTS='tests.shadow=delay(1)'` does at start-up.
        env().arm("tests.shadow", FaultSpec::new(Action::Delay(1)));
        assert!(hit("tests.shadow").is_none(), "a delay continues normally");
        assert_eq!(hits("tests.shadow"), 1);
        {
            let _guard = scoped("tests.shadow", FaultSpec::new(Action::Err));
            assert!(
                hit("tests.shadow").is_some(),
                "the scoped err shadows the delay"
            );
            assert_eq!(hits("tests.shadow"), 1, "the scope counts its own hits");
            let elsewhere = std::thread::spawn(|| hit("tests.shadow"));
            assert!(
                elsewhere.join().unwrap().is_none(),
                "other threads keep the delay"
            );
        }
        let started = std::time::Instant::now();
        assert!(
            hit("tests.shadow").is_none(),
            "the env arm survived the guard"
        );
        assert!(started.elapsed() >= std::time::Duration::from_millis(1));
        assert_eq!(
            hits("tests.shadow"),
            3,
            "env layer: before, elsewhere, after"
        );
        env().disarm("tests.shadow");
    }
}
