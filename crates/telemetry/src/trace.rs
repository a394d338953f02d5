//! Hierarchical tracing, per-request trace propagation, Chrome trace
//! export, and per-kernel profiling accumulators.
//!
//! This module is the causal layer on top of the flat metrics registry;
//! like it, everything but the clock and the id allocators belongs to the
//! calling thread's context ([`crate::Scope`]):
//!
//! * **Hierarchical frames**: every traced span pushes a frame onto a
//!   thread-local stack. When the frame pops, its wall time is split into
//!   *self* time and *child* time (children telescope their duration into
//!   the parent's `child_us`), so summing self time over any set of frames
//!   never exceeds the enclosing wall-clock.
//! * **Kernel profiling** ([`KernelSpan`], [`profile_snapshot`]): kernel
//!   entry points (matmul, CSR, element-wise, reductions, cache builds,
//!   index scoring) open a [`KernelSpan`] tagged with a [`KernelKind`];
//!   self time accumulates into one atomic per kind in the context the
//!   span closed under. The trainer diffs snapshots around each epoch to
//!   attribute epoch wall-clock per kernel.
//! * **Chrome trace export** ([`chrome_trace_json`],
//!   [`write_chrome_trace`]): with `AHNTP_TRACE_OUT=trace.json` (or
//!   [`set_trace_collect`]), closed frames are appended to the context's
//!   bounded in-memory sink as Chrome trace-event "complete" events (`ph:"X"`),
//!   loadable in Perfetto / `chrome://tracing`. Faultz triggers arrive as
//!   instant events (`ph:"i"`) via [`trace_instant`].
//! * **Trace ids** ([`next_trace_id`], [`TraceIdScope`]): the serve layer
//!   allocates one id per request, scopes it onto the handling thread, and
//!   the id rides along into every event closed under that scope (and
//!   across every thread hand-off, as part of the captured [`crate::Scope`]).
//!
//! # Cost when disarmed
//!
//! While no context in the process collects or profiles, [`trace_active`]
//! and [`KernelSpan::enter`] are one relaxed load of a process-wide count —
//! the budget of [`crate::enabled`] — with no thread-local access, no lock
//! and nothing recorded, so golden-trajectory and determinism tests are
//! unaffected.

use std::cell::RefCell;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::context::{self, when_on, with_current, COLLECT, PROFILE};
use crate::json::Json;
use crate::warn;

/// Whether any tracing feature (collection or profiling) is armed in the
/// calling thread's context. One relaxed load while none is armed in any
/// context — cheap enough for inner kernels.
#[inline]
pub fn trace_active() -> bool {
    context::is_on(COLLECT | PROFILE)
}

/// Whether closed frames are being collected into the Chrome event sink.
#[inline]
pub fn trace_collecting() -> bool {
    context::is_on(COLLECT)
}

/// Whether kernel self time is being accumulated per [`KernelKind`].
#[inline]
pub fn profiling_enabled() -> bool {
    context::is_on(PROFILE)
}

/// Programmatically starts/stops Chrome event collection in the calling
/// thread's context (the switch `AHNTP_TRACE_OUT` flips on the root).
/// Mainly for tests and embedders.
pub fn set_trace_collect(on: bool) {
    context::set(COLLECT, on);
}

/// Programmatically starts/stops per-kernel profiling in the calling
/// thread's context (the switch `AHNTP_PROFILE=1` flips on the root).
pub fn set_profiling(on: bool) {
    context::set(PROFILE, on);
}

/// Microseconds since the one process-wide monotonic trace epoch — the
/// clock every trace event and request stage timestamp shares.
pub fn trace_now_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

// ---------------------------------------------------------------------------
// Kernel kinds and the profile accumulators
// ---------------------------------------------------------------------------

/// The kernel families the epoch profiler attributes wall-clock to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum KernelKind {
    /// Dense products: `matmul`, `t_matmul`, `matmul_t`.
    Matmul = 0,
    /// CSR sparse kernels: `spmm`, `mul_dense`, `mul_vec`, … and the
    /// tape's incidence-indexed nodes (`pair_scores`, `weighted_gather`).
    Csr = 1,
    /// Element-wise maps, zips, axpy, broadcasts.
    Elementwise = 2,
    /// Reductions, norms, softmax (per row or per segment), row
    /// normalization, row-paired cosine.
    Reduction = 3,
    /// Hypergraph aggregation-operator / Laplacian cache builds.
    CacheBuild = 4,
    /// Serving-side index scoring and top-k scans.
    Score = 5,
    /// Everything else (request stages, backward pass, hypergroup
    /// extraction). Profiled too, so self times still telescope.
    Other = 6,
}

/// Number of [`KernelKind`] variants (the length of a [`KernelProfile`]).
pub const KERNEL_KINDS: usize = 7;

impl KernelKind {
    /// Stable lower-case label used in ledger records and report tables.
    pub fn label(self) -> &'static str {
        match self {
            KernelKind::Matmul => "matmul",
            KernelKind::Csr => "csr",
            KernelKind::Elementwise => "elementwise",
            KernelKind::Reduction => "reduction",
            KernelKind::CacheBuild => "cache_build",
            KernelKind::Score => "score",
            KernelKind::Other => "other",
        }
    }

    /// All kinds, in `repr` order.
    pub fn all() -> [KernelKind; KERNEL_KINDS] {
        use KernelKind::*;
        [
            Matmul,
            Csr,
            Elementwise,
            Reduction,
            CacheBuild,
            Score,
            Other,
        ]
    }
}

/// A point-in-time copy of the per-kind self-time totals (µs). `Copy`, so
/// it can ride inside `EpochStats` and be diffed with
/// [`KernelProfile::delta_since`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelProfile {
    /// Accumulated *self* microseconds per kind, indexed by
    /// `KernelKind as usize`.
    pub us: [u64; KERNEL_KINDS],
}

impl KernelProfile {
    /// `self − earlier`, element-wise and saturating — the time spent
    /// between two snapshots.
    pub fn delta_since(&self, earlier: &KernelProfile) -> KernelProfile {
        KernelProfile {
            us: std::array::from_fn(|i| self.us[i].saturating_sub(earlier.us[i])),
        }
    }

    /// Total µs across every kind. Because children telescope into their
    /// parents' `child_us`, this never exceeds the wall-clock that
    /// elapsed between the two snapshots on a single-threaded profile.
    pub fn total_us(&self) -> u64 {
        self.us.iter().sum()
    }

    /// `(label, self_us)` per kind, in [`KernelKind`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        KernelKind::all()
            .into_iter()
            .map(move |k| (k.label(), self.us[k as usize]))
    }

    /// JSON object `{"matmul": us, "csr": us, ...}` for the run ledger.
    pub fn to_json(&self) -> Json {
        Json::obj(self.iter().map(|(label, us)| (label, Json::from(us))))
    }
}

/// Copies the calling thread's context's per-kernel self-time totals. Diff
/// two snapshots with [`KernelProfile::delta_since`] to attribute an interval.
pub fn profile_snapshot() -> KernelProfile {
    with_current(|scope| KernelProfile {
        us: std::array::from_fn(|i| scope.state().kernel_self_us[i].load(Ordering::Relaxed)),
    })
}

// ---------------------------------------------------------------------------
// The thread-local frame stack
// ---------------------------------------------------------------------------

struct Frame {
    name: &'static str,
    kind: KernelKind,
    start_us: u64,
    /// Total duration of already-closed direct children, telescoped up.
    child_us: u64,
}

thread_local! {
    static FRAMES: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Name of the innermost span open on this thread — what a captured
/// [`crate::Scope`] parents the other side's spans under.
pub(crate) fn innermost_span() -> Option<&'static str> {
    FRAMES.with(|f| f.borrow().last().map(|frame| frame.name))
}

/// Whether this thread has never pushed a span frame.
#[cfg(test)]
pub(crate) fn frames_never_pushed() -> bool {
    FRAMES.with(|f| f.borrow().capacity() == 0)
}

/// Stable per-thread lane id for Chrome events (pid 1).
fn lane() -> u64 {
    thread_local! {
        static LANE: u64 = {
            static NEXT: AtomicU64 = AtomicU64::new(1);
            NEXT.fetch_add(1, Ordering::Relaxed)
        };
    }
    LANE.with(|l| *l)
}

/// Pops the innermost frame: attributes self time to its kind, telescopes
/// its duration into the parent, and emits a Chrome complete event when
/// collecting.
fn frame_exit() {
    let end_us = trace_now_us();
    let (frame, parent) = FRAMES.with(|f| {
        let mut frames = f.borrow_mut();
        let frame = frames
            .pop()
            .expect("frame_exit without a matching KernelSpan::enter");
        let dur = end_us - frame.start_us;
        let parent = frames.last_mut().map(|p| {
            p.child_us += dur;
            p.name
        });
        (frame, parent)
    });
    let dur_us = end_us - frame.start_us;
    let self_us = dur_us.saturating_sub(frame.child_us);
    when_on(COLLECT | PROFILE, |scope| {
        let state = scope.state();
        if state.on(PROFILE) {
            state.kernel_self_us[frame.kind as usize].fetch_add(self_us, Ordering::Relaxed);
        }
        if state.on(COLLECT) {
            state.emit(TraceEvent {
                name: frame.name.to_string(),
                cat: frame.kind.label(),
                ph: Phase::Complete,
                ts_us: frame.start_us,
                dur_us,
                pid: PID_THREADS,
                tid: lane(),
                trace_id: scope.trace_id,
                parent: parent.or(scope.parent),
            });
        }
    });
}

/// A lightweight RAII kernel timer: participates in the frame hierarchy
/// and the per-kind profile, but never touches the metrics registry, so
/// it is safe on the hottest kernels.
/// Inert (no thread-local access at all) while no context is tracing.
#[must_use = "a kernel span measures the scope it lives in; bind it to a variable"]
pub struct KernelSpan {
    pushed: bool,
}

impl KernelSpan {
    /// Opens a kernel span (pushes a frame); costs one branch when tracing
    /// is off.
    #[inline]
    pub fn enter(name: &'static str, kind: KernelKind) -> KernelSpan {
        let pushed = trace_active();
        if pushed {
            let frame = Frame {
                name,
                kind,
                start_us: trace_now_us(),
                child_us: 0,
            };
            FRAMES.with(|f| f.borrow_mut().push(frame));
        }
        KernelSpan { pushed }
    }
}

impl Drop for KernelSpan {
    #[inline]
    fn drop(&mut self) {
        if self.pushed {
            frame_exit();
        }
    }
}

// ---------------------------------------------------------------------------
// Trace ids and cross-thread context
// ---------------------------------------------------------------------------

/// Allocates a fresh non-zero trace id (serve mints one per request).
/// Render with `format!("{id:016x}")` — that is the `X-Ahntp-Trace-Id`
/// wire format.
///
/// Ids stay below 2^53: they double as Chrome-trace `tid` lane numbers,
/// and JSON numbers are f64s — a larger id would round and merge two
/// requests onto one lane.
pub fn next_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    // Salt with the pid's low 13 bits so ids from concurrent processes
    // sharing one trace file stay distinct; the low 40 bits count
    // requests. 13 + 40 = 53 bits, exactly the f64 integer range.
    ((u64::from(std::process::id()) & 0x1fff) << 40)
        | (NEXT.fetch_add(1, Ordering::Relaxed) & 0xff_ffff_ffff)
}

/// RAII scope that tags the current thread with a trace id; spans closed
/// inside the scope carry it into their Chrome event args. Restores the
/// previous id on drop, so scopes nest.
#[must_use = "the trace id is unscoped when the guard drops"]
pub struct TraceIdScope {
    prev: u64,
}

/// Tags the current thread with `trace_id` until the guard drops.
pub fn set_trace_id_scope(trace_id: u64) -> TraceIdScope {
    TraceIdScope {
        prev: context::replace_trace_id(trace_id),
    }
}

impl Drop for TraceIdScope {
    fn drop(&mut self) {
        context::replace_trace_id(self.prev);
    }
}

// ---------------------------------------------------------------------------
// The Chrome trace-event sink
// ---------------------------------------------------------------------------

/// `pid` of per-thread lanes in the exported trace.
const PID_THREADS: u32 = 1;
/// `pid` of per-request virtual lanes (tid = trace id), so request stages
/// nest strictly without fighting worker-thread lanes.
const PID_REQUESTS: u32 = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Complete,
    Instant,
}

pub(crate) struct TraceEvent {
    name: String,
    cat: &'static str,
    ph: Phase,
    ts_us: u64,
    dur_us: u64,
    pid: u32,
    tid: u64,
    trace_id: u64,
    parent: Option<&'static str>,
}

impl TraceEvent {
    fn to_json(&self) -> Json {
        let mut args = Vec::new();
        if self.trace_id != 0 {
            args.push(("trace_id", Json::from(format!("{:016x}", self.trace_id))));
        }
        if let Some(parent) = self.parent {
            args.push(("parent", Json::from(parent)));
        }
        let mut fields = vec![
            ("name", Json::from(self.name.as_str())),
            ("cat", Json::from(self.cat)),
            ("ts", Json::from(self.ts_us)),
            ("pid", Json::from(u64::from(self.pid))),
            ("tid", Json::from(self.tid)),
        ];
        match self.ph {
            Phase::Complete => {
                fields.push(("ph", Json::from("X")));
                fields.push(("dur", Json::from(self.dur_us)));
            }
            Phase::Instant => {
                fields.push(("ph", Json::from("i")));
                // Global scope: renders as a full-height marker.
                fields.push(("s", Json::from("g")));
            }
        }
        if !args.is_empty() {
            fields.push(("args", Json::obj(args)));
        }
        Json::obj(fields)
    }
}

/// Emits an instant event (`ph:"i"`) onto the current thread's lane — how
/// faultz trigger markers land in the trace. No-op unless collecting.
pub fn trace_instant(cat: &'static str, name: &str) {
    when_on(COLLECT, |scope| {
        scope.state().emit(TraceEvent {
            name: name.to_string(),
            cat,
            ph: Phase::Instant,
            ts_us: trace_now_us(),
            dur_us: 0,
            pid: PID_THREADS,
            tid: lane(),
            trace_id: scope.trace_id,
            parent: None,
        });
    });
}

/// Emits a complete event onto a *request* lane (pid 2, tid = trace id):
/// the serve layer uses this to lay each request's parse → enqueue →
/// queue.wait → score stages under one strictly-nested lane per trace id.
/// No-op unless collecting.
pub fn trace_complete_request(name: &'static str, ts_us: u64, dur_us: u64, trace_id: u64) {
    when_on(COLLECT, |scope| {
        scope.state().emit(TraceEvent {
            name: name.to_string(),
            cat: "serve",
            ph: Phase::Complete,
            ts_us,
            dur_us,
            pid: PID_REQUESTS,
            tid: trace_id,
            trace_id,
            parent: None,
        });
    });
}

/// The buffered events as a Chrome trace-event JSON document:
/// `{"traceEvents":[...], "displayTimeUnit":"ms"}`. Loadable in Perfetto
/// and `chrome://tracing`.
pub fn chrome_trace_json() -> Json {
    let events = with_current(|scope| {
        scope
            .state()
            .events
            .lock()
            .unwrap()
            .iter()
            .map(TraceEvent::to_json)
            .collect()
    });
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::from("ms")),
    ])
}

/// Writes [`chrome_trace_json`] to `path` (creating parent directories).
/// The file is replaced in one rename, so two contexts flushing to one
/// path leave the later one's trace, never a mix of both.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_chrome_trace(path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let staged = path.with_extension(format!("tmp-{}-{}", std::process::id(), lane()));
    std::fs::write(&staged, chrome_trace_json().to_line())?;
    std::fs::rename(&staged, path)
}

/// Writes the buffered trace to the `AHNTP_TRACE_OUT` path, if one is
/// configured; returns the path written. Failures warn instead of
/// propagating — tracing must never kill a run. Call sites: end of
/// training, server shutdown, report binaries.
pub fn flush_trace_to_env() -> Option<PathBuf> {
    let path: PathBuf = with_current(|scope| scope.state().trace_out.clone())?;
    match write_chrome_trace(&path) {
        Ok(()) => {
            let (len, dropped) = with_current(|scope| {
                let state = scope.state();
                (
                    state.events.lock().unwrap().len(),
                    state.dropped.load(Ordering::Relaxed),
                )
            });
            crate::info!(
                "trace",
                "wrote {len} trace events to {} ({dropped} dropped)",
                path.display()
            );
            Some(path)
        }
        Err(e) => {
            warn!("trace", "cannot write trace to {}: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scope;

    /// Runs `f` under a fresh context with the given switches set; the
    /// counters, events and profile `f` sees are its own.
    fn tracing<R>(collect: bool, profile: bool, f: impl FnOnce() -> R) -> R {
        Scope::fresh().run(|| {
            set_trace_collect(collect);
            set_profiling(profile);
            f()
        })
    }

    fn sink_events() -> Vec<Json> {
        match chrome_trace_json().get("traceEvents") {
            Some(Json::Arr(evs)) => evs.clone(),
            _ => Vec::new(),
        }
    }

    #[test]
    fn inactive_tracing_is_inert() {
        tracing(false, false, || {
            {
                let _k = KernelSpan::enter("test.inert", KernelKind::Matmul);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            assert_eq!(profile_snapshot(), KernelProfile::default());
            assert!(sink_events().is_empty());
            assert!(!trace_active());
        });
    }

    #[test]
    fn nested_frames_split_self_and_child_time() {
        let p = tracing(false, true, || {
            {
                let _outer = KernelSpan::enter("test.outer", KernelKind::Reduction);
                std::thread::sleep(std::time::Duration::from_millis(4));
                {
                    let _inner = KernelSpan::enter("test.inner", KernelKind::Matmul);
                    std::thread::sleep(std::time::Duration::from_millis(6));
                }
            }
            profile_snapshot()
        });
        let matmul = p.us[KernelKind::Matmul as usize];
        let reduction = p.us[KernelKind::Reduction as usize];
        assert!(matmul >= 6_000, "inner self time under-measured: {matmul}");
        assert!(
            reduction >= 4_000,
            "outer self time under-measured: {reduction}"
        );
        assert!(
            reduction < matmul + 6_000,
            "outer must exclude child time: outer={reduction} inner={matmul}"
        );
        // Telescoping: total self time ≤ total wall of the outer scope.
        assert!(p.total_us() >= 10_000);
        assert_eq!(
            p.total_us(),
            matmul + reduction,
            "another kind was profiled"
        );
    }

    #[test]
    fn collected_events_are_well_formed_and_nested() {
        let trace_id = next_trace_id();
        let evs = tracing(true, false, || {
            {
                let _scope = set_trace_id_scope(trace_id);
                let _outer = KernelSpan::enter("test.evt.outer", KernelKind::Other);
                std::thread::sleep(std::time::Duration::from_millis(2));
                {
                    let _inner = KernelSpan::enter("test.evt.inner", KernelKind::Csr);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
            trace_instant("faultz", "test.evt.fault");
            sink_events()
        });
        assert_eq!(evs.len(), 3, "{evs:?}");
        let by_name = |n: &str| {
            evs.iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(n))
                .unwrap_or_else(|| panic!("missing event {n}"))
        };
        let outer = by_name("test.evt.outer");
        let inner = by_name("test.evt.inner");
        let fault = by_name("test.evt.fault");
        assert_eq!(outer.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(fault.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(inner.get("cat").and_then(Json::as_str), Some("csr"));
        // Children close before parents: inner is strictly contained.
        let ts = |e: &Json| e.get("ts").and_then(Json::as_f64).unwrap();
        let dur = |e: &Json| e.get("dur").and_then(Json::as_f64).unwrap();
        assert!(ts(inner) >= ts(outer));
        assert!(ts(inner) + dur(inner) <= ts(outer) + dur(outer));
        assert_eq!(
            inner
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_str),
            Some("test.evt.outer")
        );
        let hex = format!("{trace_id:016x}");
        assert_eq!(
            outer
                .get("args")
                .and_then(|a| a.get("trace_id"))
                .and_then(Json::as_str),
            Some(hex.as_str())
        );
    }

    #[test]
    fn spans_on_another_thread_reparent_through_the_captured_scope() {
        let trace_id = next_trace_id();
        let evs = tracing(true, false, || {
            {
                let _scope = set_trace_id_scope(trace_id);
                let _parent = KernelSpan::enter("test.ctx.parent", KernelKind::Other);
                let scope = Scope::capture();
                std::thread::spawn(move || {
                    scope.run(|| drop(KernelSpan::enter("test.ctx.child", KernelKind::Matmul)));
                    // Outside the scope this thread is on the root again.
                    drop(KernelSpan::enter("test.ctx.stray", KernelKind::Matmul));
                })
                .join()
                .unwrap();
            }
            sink_events()
        });
        assert_eq!(evs.len(), 2, "child and parent, not the stray: {evs:?}");
        let child = &evs[0];
        assert_eq!(
            child.get("name").and_then(Json::as_str),
            Some("test.ctx.child")
        );
        assert_eq!(
            child
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_str),
            Some("test.ctx.parent"),
            "worker span must reparent to the spawning span"
        );
        assert_eq!(
            child
                .get("args")
                .and_then(|a| a.get("trace_id"))
                .and_then(Json::as_str)
                .map(str::to_string),
            Some(format!("{trace_id:016x}"))
        );
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn request_lane_events_use_the_trace_id_as_tid() {
        let evs = tracing(true, false, || {
            trace_complete_request("test.lane.request", 10, 50, 0x42);
            sink_events()
        });
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].get("pid").and_then(Json::as_f64), Some(2.0));
        assert_eq!(evs[0].get("tid").and_then(Json::as_f64), Some(66.0));
    }
}
