//! Env-filterable leveled logging to stderr.
//!
//! The filter grammar is a comma list of `level` (global floor) and
//! `target=level` (per-target override) clauses, e.g.
//! `AHNTP_LOG=debug,spmm=trace` — everything at `debug` and up, plus
//! `trace` for the `spmm` target. Unknown levels in the filter are
//! ignored clause-by-clause rather than poisoning the whole string.

use std::io::Write;
use std::sync::{Mutex, OnceLock};

/// Log severity, ordered from most to least verbose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Per-kernel-call detail (span exits, nnz counts).
    Trace = 0,
    /// Per-epoch / per-phase detail.
    Debug = 1,
    /// Run-level milestones.
    Info = 2,
    /// Something suspicious but recoverable (malformed env var).
    Warn = 3,
    /// Something is wrong (divergence detected).
    Error = 4,
}

impl Level {
    fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "trace" => Some(Level::Trace),
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }

    fn tag(self) -> &'static str {
        match self {
            Level::Trace => "TRACE",
            Level::Debug => "DEBUG",
            Level::Info => "INFO",
            Level::Warn => "WARN",
            Level::Error => "ERROR",
        }
    }
}

/// Parsed filter: a global floor plus per-target overrides.
#[derive(Debug, Clone)]
struct Filter {
    floor: Level,
    targets: Vec<(String, Level)>,
}

impl Filter {
    fn parse(spec: &str) -> Filter {
        let mut floor = Level::Info;
        let mut targets = Vec::new();
        for clause in spec.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            match clause.split_once('=') {
                Some((target, level)) => {
                    if let Some(level) = Level::parse(level) {
                        targets.push((target.trim().to_string(), level));
                    }
                }
                None => {
                    if let Some(level) = Level::parse(clause) {
                        floor = level;
                    }
                }
            }
        }
        Filter { floor, targets }
    }

    fn min_level(&self, target: &str) -> Level {
        self.targets
            .iter()
            .find(|(t, _)| t == target)
            .map(|&(_, l)| l)
            .unwrap_or(self.floor)
    }
}

/// Global filter state, seeded from `AHNTP_LOG` on first use.
static FILTER: OnceLock<Mutex<Filter>> = OnceLock::new();

fn filter_cell() -> &'static Mutex<Filter> {
    FILTER.get_or_init(|| {
        let spec = std::env::var("AHNTP_LOG").unwrap_or_default();
        Mutex::new(Filter::parse(&spec))
    })
}

/// Replaces the active filter, as if `AHNTP_LOG` were set to `spec`.
/// Useful for tests and for embedders that configure logging in code.
pub fn set_log_filter(spec: &str) {
    *filter_cell().lock().unwrap() = Filter::parse(spec);
}

/// Whether a message at `level` for `target` would be emitted.
pub fn log_enabled(level: Level, target: &str) -> bool {
    level >= filter_cell().lock().unwrap().min_level(target)
}

/// Emits one log line to stderr if the filter allows it. Prefer the
/// [`trace!`](macro@crate::trace) … [`error!`](crate::error) macros, which skip
/// message formatting when the line would be dropped.
pub fn log_message(level: Level, target: &str, message: &str) {
    if !log_enabled(level, target) {
        return;
    }
    // The trace clock, so log lines and trace events line up.
    let elapsed_s = crate::trace_now_us() as f64 / 1e6;
    let mut err = std::io::stderr().lock();
    // One write_fmt per line so concurrent threads don't interleave.
    let _ = writeln!(
        err,
        "[{:>9.3}s {:>5} {}] {}",
        elapsed_s,
        level.tag(),
        target,
        message
    );
}

/// Logs at an explicit level; the target is the first argument.
#[macro_export]
macro_rules! log_at {
    ($level:expr, $target:expr, $($arg:tt)+) => {
        if $crate::log_enabled($level, $target) {
            $crate::log_message($level, $target, &format!($($arg)+));
        }
    };
}

/// Logs at `trace` level: `trace!("spmm", "rows={} nnz={}", r, n)`.
#[macro_export]
macro_rules! trace {
    ($target:expr, $($arg:tt)+) => {
        $crate::log_at!($crate::Level::Trace, $target, $($arg)+)
    };
}

/// Logs at `debug` level.
#[macro_export]
macro_rules! debug {
    ($target:expr, $($arg:tt)+) => {
        $crate::log_at!($crate::Level::Debug, $target, $($arg)+)
    };
}

/// Logs at `info` level.
#[macro_export]
macro_rules! info {
    ($target:expr, $($arg:tt)+) => {
        $crate::log_at!($crate::Level::Info, $target, $($arg)+)
    };
}

/// Logs at `warn` level.
#[macro_export]
macro_rules! warn {
    ($target:expr, $($arg:tt)+) => {
        $crate::log_at!($crate::Level::Warn, $target, $($arg)+)
    };
}

/// Logs at `error` level.
#[macro_export]
macro_rules! error {
    ($target:expr, $($arg:tt)+) => {
        $crate::log_at!($crate::Level::Error, $target, $($arg)+)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_grammar() {
        let f = Filter::parse("debug,spmm=trace,matmul=warn");
        assert_eq!(f.min_level("train"), Level::Debug);
        assert_eq!(f.min_level("spmm"), Level::Trace);
        assert_eq!(f.min_level("matmul"), Level::Warn);
    }

    #[test]
    fn malformed_clauses_are_skipped() {
        let f = Filter::parse("bogus,spmm=nope,warn");
        assert_eq!(f.min_level("anything"), Level::Warn);
        assert_eq!(f.min_level("spmm"), Level::Warn);
    }

    #[test]
    fn empty_spec_defaults_to_info() {
        let f = Filter::parse("");
        assert_eq!(f.min_level("x"), Level::Info);
    }

    #[test]
    fn set_filter_controls_enabled() {
        set_log_filter("error");
        assert!(!log_enabled(Level::Info, "t"));
        assert!(log_enabled(Level::Error, "t"));
        set_log_filter("t=trace");
        assert!(log_enabled(Level::Trace, "t"));
        assert!(!log_enabled(Level::Trace, "other"));
    }
}
