//! Zero-dependency tracing, metrics, and run-ledger layer for the AHNTP
//! stack.
//!
//! The reproduction's north star is a production-scale serving/training
//! system; this crate is its instrumentation spine. Everything is plain
//! `std` — no external crates — and every hot-path hook is gated behind one
//! relaxed atomic load so that disabled telemetry costs a single predicted
//! branch.
//!
//! # Components
//!
//! * **Logging** ([`log_enabled`], [`trace!`](crate::trace) …
//!   [`error!`](crate::error)): an env-filterable stderr logger.
//!   `AHNTP_LOG=debug,spmm=trace` sets a global `debug` floor and a
//!   per-target `trace` override for the `spmm` target.
//! * **Metrics** ([`counter_add`], [`gauge_set`], [`histogram_record`],
//!   [`metrics_snapshot`]): a global, thread-safe registry of named
//!   counters, gauges and histograms (op counts, FLOP estimates, sparse
//!   nnz throughput, allocation bytes, gradient norms, epoch wall time).
//! * **Tracing & profiling** ([`KernelSpan`], [`trace_instant`],
//!   [`chrome_trace_json`], [`profile_snapshot`]): hierarchical spans with
//!   thread-local parent/child stacks and self-vs-child time, per-request
//!   trace-id propagation (including across the `ahntp-par` pool via
//!   [`trace_context`]), Chrome trace-event export
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
//! Telemetry activates when `AHNTP_TELEMETRY=1` or `AHNTP_LOG` is set in
//! the environment, or programmatically via [`set_enabled`]. When
//! disabled, counters, histograms and ledger hooks are no-ops; kernel
//! spans have their own switch ([`trace_active`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod divergence;
mod env;
pub mod json;
mod ledger;
mod log;
mod metrics;
mod prometheus;
mod trace;

pub use divergence::{
    clear_nonfinite, finite_checks_enabled, first_nonfinite, record_nonfinite,
    set_finite_checks, NonFiniteEvent,
};
pub use env::{env_flag, env_parse};
pub use ledger::{default_ledger_dir, RunLedger};
pub use log::{log_enabled, log_message, set_log_filter, Level};
pub use metrics::{
    counter_add, counter_get, gauge_get, gauge_set, histogram_bucket_width, histogram_record,
    metrics_reset, metrics_snapshot, metrics_snapshot_json, HistogramSummary, MetricValue,
    Snapshot,
};
pub use prometheus::metrics_prometheus_text;
pub use trace::{
    chrome_trace_json, current_trace_id, flush_trace_to_env, next_trace_id, profile_reset,
    profile_snapshot, profiling_enabled, set_profiling, set_trace_collect, set_trace_id_scope,
    trace_active, trace_collecting, trace_complete_request, trace_context, trace_events_dropped,
    trace_events_len, trace_instant, trace_now_us, trace_reset, with_trace_context, write_chrome_trace,
    KernelKind, KernelProfile, KernelSpan, TraceContext, TraceIdScope, KERNEL_KINDS,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: OnceLock<()> = OnceLock::new();

/// Reads the environment once and primes the global enabled flag.
fn init_from_env() {
    ENV_INIT.get_or_init(|| {
        let on = env_flag("AHNTP_TELEMETRY") || std::env::var("AHNTP_LOG").is_ok();
        if on {
            ENABLED.store(true, Ordering::Relaxed);
        }
    });
}

/// Whether telemetry is globally enabled. One relaxed atomic load on the
/// fast path — cheap enough for inner kernels.
#[inline]
pub fn enabled() -> bool {
    init_from_env();
    ENABLED.load(Ordering::Relaxed)
}

/// Programmatically enables or disables telemetry (overrides the
/// environment). Mainly for tests and embedding applications.
pub fn set_enabled(on: bool) {
    init_from_env();
    ENABLED.store(on, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggling_enabled_is_visible() {
        let before = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(before);
    }
}
