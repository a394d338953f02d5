//! Hierarchical tracing, per-request trace propagation, Chrome trace
//! export, and per-kernel profiling accumulators.
//!
//! This module is the causal layer on top of the flat metrics registry:
//!
//! * **Hierarchical frames**: every traced span pushes a frame onto a
//!   thread-local stack. When the frame pops, its wall time is split into
//!   *self* time and *child* time (children telescope their duration into
//!   the parent's `child_us`), so summing self time over any set of frames
//!   never exceeds the enclosing wall-clock.
//! * **Kernel profiling** ([`KernelSpan`], [`profile_snapshot`]): kernel
//!   entry points (matmul, CSR, element-wise, reductions, cache builds,
//!   index scoring) open a [`KernelSpan`] tagged with a [`KernelKind`];
//!   self time accumulates into one global atomic per kind. The trainer
//!   diffs snapshots around each epoch to attribute epoch wall-clock per
//!   kernel.
//! * **Chrome trace export** ([`chrome_trace_json`],
//!   [`write_chrome_trace`]): with `AHNTP_TRACE_OUT=trace.json` (or
//!   [`set_trace_collect`]), closed frames are appended to a bounded
//!   in-memory sink as Chrome trace-event "complete" events (`ph:"X"`),
//!   loadable in Perfetto / `chrome://tracing`. Faultz triggers arrive as
//!   instant events (`ph:"i"`) via [`trace_instant`].
//! * **Trace ids** ([`next_trace_id`], [`TraceIdScope`]): the serve layer
//!   allocates one id per request, scopes it onto the handling thread, and
//!   the id rides along into every event closed under that scope (and
//!   across the `ahntp-par` pool via [`TraceContext`]).
//!
//! # Cost when disarmed
//!
//! [`trace_active`] is one `OnceLock` read plus one relaxed atomic load —
//! the same budget as [`crate::enabled`]. A [`KernelSpan`] on an inactive
//! trace does no thread-local access, takes no lock, and records nothing,
//! so golden-trajectory and determinism tests are unaffected.

use std::cell::{Cell, RefCell};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;
use crate::warn;

/// Bit: closed frames are appended to the Chrome event sink.
const COLLECT: u32 = 1;
/// Bit: kernel self time accumulates into the per-kind profile counters.
const PROFILE: u32 = 2;

static FLAGS: AtomicU32 = AtomicU32::new(0);

/// `AHNTP_TRACE_OUT` destination, read once. `None` when unset.
static TRACE_OUT: OnceLock<Option<PathBuf>> = OnceLock::new();

fn trace_out_path() -> Option<&'static Path> {
    TRACE_OUT
        .get_or_init(|| {
            let path = std::env::var("AHNTP_TRACE_OUT")
                .ok()
                .filter(|p| !p.trim().is_empty())
                .map(PathBuf::from);
            let mut flags = 0;
            if path.is_some() {
                flags |= COLLECT;
            }
            if crate::env::env_flag("AHNTP_PROFILE") {
                flags |= PROFILE;
            }
            if flags != 0 {
                FLAGS.fetch_or(flags, Ordering::Relaxed);
            }
            path
        })
        .as_deref()
}

/// Whether any tracing feature (collection or profiling) is armed. One
/// `OnceLock` read plus one relaxed load — cheap enough for inner kernels.
#[inline]
pub fn trace_active() -> bool {
    trace_out_path();
    FLAGS.load(Ordering::Relaxed) != 0
}

/// Whether closed frames are being collected into the Chrome event sink.
#[inline]
pub fn trace_collecting() -> bool {
    trace_out_path();
    FLAGS.load(Ordering::Relaxed) & COLLECT != 0
}

/// Whether kernel self time is being accumulated per [`KernelKind`].
#[inline]
pub fn profiling_enabled() -> bool {
    trace_out_path();
    FLAGS.load(Ordering::Relaxed) & PROFILE != 0
}

/// Programmatically starts/stops Chrome event collection (the same switch
/// `AHNTP_TRACE_OUT` flips). Mainly for tests and embedders.
pub fn set_trace_collect(on: bool) {
    trace_out_path();
    if on {
        FLAGS.fetch_or(COLLECT, Ordering::Relaxed);
    } else {
        FLAGS.fetch_and(!COLLECT, Ordering::Relaxed);
    }
}

/// Programmatically starts/stops per-kernel profiling (the same switch
/// `AHNTP_PROFILE=1` flips).
pub fn set_profiling(on: bool) {
    trace_out_path();
    if on {
        FLAGS.fetch_or(PROFILE, Ordering::Relaxed);
    } else {
        FLAGS.fetch_and(!PROFILE, Ordering::Relaxed);
    }
}

/// One process-wide monotonic epoch; all trace timestamps are µs since it.
fn now_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Microseconds since the process trace epoch — the clock every trace
/// event and request stage timestamp shares.
pub fn trace_now_us() -> u64 {
    now_us()
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
    /// CSR sparse kernels: `spmm`, `mul_dense`, `mul_vec`, …
    Csr = 1,
    /// Element-wise maps, zips, axpy, broadcasts.
    Elementwise = 2,
    /// Reductions, norms, softmax, row normalization.
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
        [
            KernelKind::Matmul,
            KernelKind::Csr,
            KernelKind::Elementwise,
            KernelKind::Reduction,
            KernelKind::CacheBuild,
            KernelKind::Score,
            KernelKind::Other,
        ]
    }
}

static KERNEL_SELF_US: [AtomicU64; KERNEL_KINDS] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

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
        let mut us = [0u64; KERNEL_KINDS];
        for (i, slot) in us.iter_mut().enumerate() {
            *slot = self.us[i].saturating_sub(earlier.us[i]);
        }
        KernelProfile { us }
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

/// Copies the current per-kernel self-time totals. Diff two snapshots with
/// [`KernelProfile::delta_since`] to attribute an interval.
pub fn profile_snapshot() -> KernelProfile {
    let mut us = [0u64; KERNEL_KINDS];
    for (i, slot) in us.iter_mut().enumerate() {
        *slot = KERNEL_SELF_US[i].load(Ordering::Relaxed);
    }
    KernelProfile { us }
}

/// Zeroes the per-kernel accumulators (tests and run isolation).
pub fn profile_reset() {
    for slot in &KERNEL_SELF_US {
        slot.store(0, Ordering::Relaxed);
    }
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
    /// Trace id scoped onto this thread (0 = none).
    static CUR_TRACE: Cell<u64> = const { Cell::new(0) };
    /// Parent span name inherited across a pool boundary.
    static INHERITED_PARENT: Cell<Option<&'static str>> = const { Cell::new(None) };
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

/// Pushes a frame. Returns `true` (the caller must pair it with
/// [`frame_exit`]) unless tracing is inactive.
fn frame_enter(name: &'static str, kind: KernelKind) -> bool {
    if !trace_active() {
        return false;
    }
    let start_us = now_us();
    FRAMES.with(|f| {
        f.borrow_mut().push(Frame {
            name,
            kind,
            start_us,
            child_us: 0,
        });
    });
    true
}

/// Pops the innermost frame: attributes self time to its kind, telescopes
/// its duration into the parent, and emits a Chrome complete event when
/// collecting.
fn frame_exit() {
    let end_us = now_us();
    let (frame, parent) = FRAMES.with(|f| {
        let mut frames = f.borrow_mut();
        let frame = frames
            .pop()
            .expect("frame_exit without a matching frame_enter");
        let dur = end_us - frame.start_us;
        let parent = frames.last_mut().map(|p| {
            p.child_us += dur;
            p.name
        });
        (frame, parent)
    });
    let dur_us = end_us - frame.start_us;
    let self_us = dur_us.saturating_sub(frame.child_us);
    if profiling_enabled() {
        KERNEL_SELF_US[frame.kind as usize].fetch_add(self_us, Ordering::Relaxed);
    }
    if trace_collecting() {
        let parent = parent.or_else(|| INHERITED_PARENT.with(Cell::get));
        emit(TraceEvent {
            name: frame.name.to_string(),
            cat: frame.kind.label(),
            ph: Phase::Complete,
            ts_us: frame.start_us,
            dur_us,
            pid: PID_THREADS,
            tid: lane(),
            trace_id: CUR_TRACE.with(Cell::get),
            parent,
        });
    }
}

/// A lightweight RAII kernel timer: participates in the frame hierarchy
/// and the per-kind profile, but never touches the metrics registry, so
/// it is safe on the hottest kernels.
/// Inert (no thread-local access at all) while tracing is inactive.
#[must_use = "a kernel span measures the scope it lives in; bind it to a variable"]
pub struct KernelSpan {
    pushed: bool,
}

impl KernelSpan {
    /// Opens a kernel span; costs one branch when tracing is off.
    #[inline]
    pub fn enter(name: &'static str, kind: KernelKind) -> KernelSpan {
        KernelSpan {
            pushed: frame_enter(name, kind),
        }
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

/// The trace id scoped onto the current thread (0 = none).
pub fn current_trace_id() -> u64 {
    CUR_TRACE.with(Cell::get)
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
        prev: CUR_TRACE.with(|c| c.replace(trace_id)),
    }
}

impl Drop for TraceIdScope {
    fn drop(&mut self) {
        CUR_TRACE.with(|c| c.set(self.prev));
    }
}

/// A capture of the calling thread's trace position (trace id + innermost
/// span name), cheap to copy into pool tasks so worker-side spans reparent
/// to the span that spawned them. [`TraceContext::default`] (what an
/// inactive trace captures) makes [`with_trace_context`] a plain call.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceContext {
    trace_id: u64,
    parent: Option<&'static str>,
    active: bool,
}

/// Captures the current thread's trace context. Free (all-zero) when
/// tracing is inactive.
pub fn trace_context() -> TraceContext {
    if !trace_active() {
        return TraceContext::default();
    }
    let parent = FRAMES
        .with(|f| f.borrow().last().map(|fr| fr.name))
        .or_else(|| INHERITED_PARENT.with(Cell::get));
    TraceContext {
        trace_id: CUR_TRACE.with(Cell::get),
        parent,
        active: true,
    }
}

/// Runs `f` with `ctx` installed as the thread's trace id and inherited
/// parent, restoring the previous state afterwards (also on panic). The
/// `ahntp-par` pool wraps every queued task in this.
pub fn with_trace_context<R>(ctx: TraceContext, f: impl FnOnce() -> R) -> R {
    if !ctx.active {
        return f();
    }
    struct Restore {
        trace_id: u64,
        parent: Option<&'static str>,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            CUR_TRACE.with(|c| c.set(self.trace_id));
            INHERITED_PARENT.with(|c| c.set(self.parent));
        }
    }
    let _restore = Restore {
        trace_id: CUR_TRACE.with(|c| c.replace(ctx.trace_id)),
        parent: INHERITED_PARENT.with(|c| c.replace(ctx.parent)),
    };
    f()
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

struct TraceEvent {
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

/// Bounded sink: events past the cap are counted, not stored, so a
/// long-running traced server cannot grow without bound.
struct Sink {
    events: Mutex<Vec<TraceEvent>>,
    dropped: AtomicU64,
}

fn sink() -> &'static Sink {
    static SINK: OnceLock<Sink> = OnceLock::new();
    SINK.get_or_init(|| Sink {
        events: Mutex::new(Vec::new()),
        dropped: AtomicU64::new(0),
    })
}

fn sink_cap() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| crate::env::env_parse("AHNTP_TRACE_CAP", 262_144usize).max(1))
}

fn emit(ev: TraceEvent) {
    let s = sink();
    let mut events = s.events.lock().unwrap();
    if events.len() >= sink_cap() {
        s.dropped.fetch_add(1, Ordering::Relaxed);
    } else {
        events.push(ev);
    }
}

/// Emits an instant event (`ph:"i"`) onto the current thread's lane — how
/// faultz trigger markers land in the trace. No-op unless collecting.
pub fn trace_instant(cat: &'static str, name: &str) {
    if !trace_collecting() {
        return;
    }
    emit(TraceEvent {
        name: name.to_string(),
        cat,
        ph: Phase::Instant,
        ts_us: now_us(),
        dur_us: 0,
        pid: PID_THREADS,
        tid: lane(),
        trace_id: CUR_TRACE.with(Cell::get),
        parent: None,
    });
}

/// Emits a complete event onto a *request* lane (pid 2, tid = trace id):
/// the serve layer uses this to lay each request's parse → enqueue →
/// queue.wait → score stages under one strictly-nested lane per trace id.
/// No-op unless collecting.
pub fn trace_complete_request(name: &'static str, ts_us: u64, dur_us: u64, trace_id: u64) {
    if !trace_collecting() {
        return;
    }
    emit(TraceEvent {
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
}

/// Number of events currently buffered in the sink.
pub fn trace_events_len() -> usize {
    sink().events.lock().unwrap().len()
}

/// Events rejected because the sink was full (`AHNTP_TRACE_CAP`).
pub fn trace_events_dropped() -> u64 {
    sink().dropped.load(Ordering::Relaxed)
}

/// Clears the event sink (tests and run isolation). Leaves the profile
/// accumulators alone — use [`profile_reset`] for those.
pub fn trace_reset() {
    let s = sink();
    s.events.lock().unwrap().clear();
    s.dropped.store(0, Ordering::Relaxed);
}

/// The buffered events as a Chrome trace-event JSON document:
/// `{"traceEvents":[...], "displayTimeUnit":"ms"}`. Loadable in Perfetto
/// and `chrome://tracing`.
pub fn chrome_trace_json() -> Json {
    let events = sink().events.lock().unwrap();
    Json::obj([
        (
            "traceEvents",
            Json::Arr(events.iter().map(TraceEvent::to_json).collect()),
        ),
        ("displayTimeUnit", Json::from("ms")),
    ])
}

/// Writes [`chrome_trace_json`] to `path` (creating parent directories).
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
    std::fs::write(path, chrome_trace_json().to_line())
}

/// Writes the buffered trace to the `AHNTP_TRACE_OUT` path, if one is
/// configured; returns the path written. Failures warn instead of
/// propagating — tracing must never kill a run. Call sites: end of
/// training, server shutdown, report binaries.
pub fn flush_trace_to_env() -> Option<PathBuf> {
    let path = trace_out_path()?.to_path_buf();
    match write_chrome_trace(&path) {
        Ok(()) => {
            crate::info!(
                "trace",
                "wrote {} trace events to {} ({} dropped)",
                trace_events_len(),
                path.display(),
                trace_events_dropped()
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

    /// Collection/profiling toggles are process-global; serialize the
    /// tests that flip them.
    fn gate() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn sink_events_named(prefix: &str) -> Vec<Json> {
        match chrome_trace_json().get("traceEvents") {
            Some(Json::Arr(evs)) => evs
                .iter()
                .filter(|e| {
                    e.get("name")
                        .and_then(Json::as_str)
                        .is_some_and(|n| n.starts_with(prefix))
                })
                .cloned()
                .collect(),
            _ => Vec::new(),
        }
    }

    #[test]
    fn inactive_tracing_is_inert() {
        let _g = gate();
        set_trace_collect(false);
        set_profiling(false);
        let before = profile_snapshot();
        {
            let _k = KernelSpan::enter("test.inert", KernelKind::Matmul);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(profile_snapshot(), before);
        assert!(sink_events_named("test.inert").is_empty());
        assert!(!trace_context().active);
    }

    #[test]
    fn nested_frames_split_self_and_child_time() {
        let _g = gate();
        set_profiling(true);
        profile_reset();
        {
            let _outer = KernelSpan::enter("test.outer", KernelKind::Reduction);
            std::thread::sleep(std::time::Duration::from_millis(4));
            {
                let _inner = KernelSpan::enter("test.inner", KernelKind::Matmul);
                std::thread::sleep(std::time::Duration::from_millis(6));
            }
        }
        let p = profile_snapshot();
        set_profiling(false);
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
    }

    #[test]
    fn collected_events_are_well_formed_and_nested() {
        let _g = gate();
        trace_reset();
        set_trace_collect(true);
        let trace_id = next_trace_id();
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
        set_trace_collect(false);

        let evs = sink_events_named("test.evt.");
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
            inner.get("args").and_then(|a| a.get("parent")).and_then(Json::as_str),
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
    fn pool_tasks_reparent_through_the_context() {
        let _g = gate();
        trace_reset();
        set_trace_collect(true);
        let trace_id = next_trace_id();
        let ctx = {
            let _scope = set_trace_id_scope(trace_id);
            let _parent = KernelSpan::enter("test.ctx.parent", KernelKind::Other);
            let ctx = trace_context();
            std::thread::spawn(move || {
                with_trace_context(ctx, || {
                    let _child = KernelSpan::enter("test.ctx.child", KernelKind::Matmul);
                })
            })
            .join()
            .unwrap();
            ctx
        };
        set_trace_collect(false);
        assert!(ctx.active);
        let evs = sink_events_named("test.ctx.child");
        assert_eq!(evs.len(), 1);
        let child = &evs[0];
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
        let _g = gate();
        trace_reset();
        set_trace_collect(true);
        trace_complete_request("test.lane.request", 10, 50, 0x42);
        set_trace_collect(false);
        let evs = sink_events_named("test.lane.request");
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].get("pid").and_then(Json::as_f64), Some(2.0));
        assert_eq!(evs[0].get("tid").and_then(Json::as_f64), Some(66.0));
    }
}
