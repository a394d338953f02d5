//! Zero-dependency tracing, metrics, and run-ledger layer for the AHNTP
//! stack.
//!
//! The reproduction's north star is a production-scale serving/training
//! system; this crate is its instrumentation spine. Everything is plain
//! `std` — no external crates — and every hot-path hook is gated behind one
//! relaxed atomic load so that disabled telemetry costs a single predicted
//! branch.
//!
//! # Contexts
//!
//! A counter belongs to the context that counted it. The metrics registry,
//! the enable/collect/profile switches, the trace-event buffer and the
//! profile accumulators are the state of a *context*; every free function
//! below acts on the calling thread's context: the process's one **root**
//! context (configured by the environment) unless the thread runs inside a
//! [`Scope`]. A context is inherited, never configured — `ahntp-par`
//! carries the scope across every thread hand-off in the workspace — so a
//! server's `/metrics` is its own, and a test that wants exact numbers runs
//! under a fresh context (`ahntp_par::Context::fresh().run(|| …)`): the
//! root's switches, counters and buffers starting at zero.
//!
//! # Components
//!
//! * **Logging** ([`log_enabled`], [`trace!`](crate::trace) …
//!   [`error!`](crate::error)): an env-filterable stderr logger.
//!   `AHNTP_LOG=debug,spmm=trace` sets a global `debug` floor and a
//!   per-target `trace` override for the `spmm` target.
//! * **Metrics** ([`counter_add`], [`gauge_set`], [`histogram_record`],
//!   [`metrics_snapshot`]): a per-context, thread-safe registry of named
//!   counters, gauges and histograms (op counts, FLOP estimates, sparse
//!   nnz throughput, allocation bytes, gradient norms, epoch wall time).
//! * **Tracing & profiling** ([`KernelSpan`], [`trace_instant`],
//!   [`chrome_trace_json`], [`profile_snapshot`]): hierarchical spans with
//!   thread-local parent/child stacks and self-vs-child time, per-request
//!   trace-id propagation (including across the `ahntp-par` pool, inside
//!   the captured [`Scope`]), Chrome trace-event export
//!   (`AHNTP_TRACE_OUT=trace.json`, Perfetto-loadable), and a per-kernel
//!   profiler (`AHNTP_PROFILE=1`) whose self-time accounting telescopes so
//!   per-kernel µs always sum to ≤ the enclosing wall-clock.
//! * **Prometheus exposition** ([`metrics_prometheus_text`]): the metrics
//!   registry in Prometheus text format, served by `ahntp-serve` at
//!   `GET /metrics?format=prometheus`.
//! * **Run ledger** ([`RunLedger`]): serializes training runs to JSONL
//!   (`target/telemetry/<run>.jsonl` by default) — config, per-epoch
//!   loss/time/gradient-norm, final metrics — so benchmark trajectories
//!   are reproducible artifacts. [`json`] is the tiny JSON tree
//!   reader/writer behind it.
//! * **Divergence provenance** ([`record_nonfinite`],
//!   [`first_nonfinite`]): a thread-local tracker the autograd tape feeds
//!   so that "training diverged" panics can name the op that first went
//!   non-finite. Checks are off unless [`set_finite_checks`] (or
//!   `AHNTP_CHECK_FINITE=1`) turns them on.
//! * **Env parsing** ([`env_parse`]): typed environment reads that *warn*
//!   on malformed values instead of silently falling back.
//!
//! # Enabling
//!
//! The root context's telemetry activates when `AHNTP_TELEMETRY=1` or
//! `AHNTP_LOG` is set in the environment; [`set_enabled`] flips it for the
//! calling thread's context. When disabled, counters, histograms and ledger
//! hooks are no-ops; kernel spans have their own switches ([`trace_active`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod divergence;
mod env;
pub mod json;
mod ledger;
mod log;
mod metrics;
mod prometheus;
mod trace;

pub use context::Scope;
pub use divergence::{
    clear_nonfinite, finite_checks_enabled, first_nonfinite, record_nonfinite, set_finite_checks,
    NonFiniteEvent,
};
pub use env::{env_flag, env_parse};
pub use ledger::{default_ledger_dir, RunLedger};
pub use log::{log_enabled, log_message, set_log_filter, Level};
pub use metrics::{
    counter_add, counter_get, gauge_get, gauge_set, histogram_bucket_width, histogram_record,
    metrics_snapshot, metrics_snapshot_json, HistogramSummary, MetricValue, Snapshot,
};
pub use prometheus::metrics_prometheus_text;
pub use trace::{
    chrome_trace_json, flush_trace_to_env, next_trace_id, profile_snapshot, profiling_enabled,
    set_profiling, set_trace_collect, set_trace_id_scope, trace_active, trace_collecting,
    trace_complete_request, trace_instant, trace_now_us, write_chrome_trace, KernelKind,
    KernelProfile, KernelSpan, TraceIdScope, KERNEL_KINDS,
};

/// Whether telemetry is enabled in the calling thread's context. One
/// relaxed atomic load while it is enabled in no context at all — cheap
/// enough for inner kernels.
#[inline]
pub fn enabled() -> bool {
    context::is_on(context::ENABLED)
}

/// Enables or disables telemetry in the calling thread's context (on the
/// root context this overrides the environment). Mainly for tests and
/// embedding applications.
pub fn set_enabled(on: bool) {
    context::set(context::ENABLED, on);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggling_enabled_is_visible() {
        Scope::fresh().run(|| {
            set_enabled(true);
            assert!(enabled());
            set_enabled(false);
            assert!(!enabled());
        });
    }
}
