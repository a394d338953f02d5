//! In-memory spans for the traced run: the suite wraps every call it
//! makes into a layer in a span (name, start, end, parent, and one `op`
//! id shared by all spans of a request or epoch), keeps them in memory,
//! and writes a Chrome trace when the run ends. Timestamps come from
//! `ahntp_telemetry::trace_now_us`, the clock the server's own request
//! traces use, so server stages nest under the client span that caused
//! them without any clock translation.

use std::borrow::Cow;
use std::collections::BTreeMap;

use ahntp_telemetry::json::Json;
use ahntp_telemetry::trace_now_us;

/// One closed (or still open, `end_us == 0`) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: Cow<'static, str>,
    pub start_us: u64,
    pub end_us: u64,
    /// Shared by every span of one request or epoch.
    pub op: u64,
    /// Index of the causing span in the same log.
    pub parent: Option<usize>,
    /// Lane (client connection or driver thread) for the trace viewer.
    pub lane: u32,
}

/// A span log. Disabled logs make `begin`/`end` a single branch, so the
/// untraced run executes the same driver code.
#[derive(Debug, Default)]
pub struct SpanLog {
    enabled: bool,
    lane: u32,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(enabled: bool, lane: u32) -> SpanLog {
        SpanLog {
            enabled,
            lane,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span now; returns its index for `end` and for children.
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        if !self.enabled {
            return 0;
        }
        self.spans.push(Span {
            name: Cow::Borrowed(name),
            start_us: trace_now_us(),
            end_us: 0,
            op,
            parent,
            lane: self.lane,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, index: usize) {
        if self.enabled {
            self.spans[index].end_us = trace_now_us();
        }
    }

    /// Records an already-measured span (server stages read back from
    /// `/debug/traces`).
    pub fn push_closed(&mut self, span: Span) {
        if self.enabled {
            self.spans.push(span);
        }
    }

    /// Appends another log, re-basing its parent links.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per span name: `(count, total self µs)`, where a span's self time
    /// is its duration minus what its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&str, (u64, u64)> {
        let mut child_us = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us.saturating_sub(s.start_us);
            }
        }
        let mut out: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_us) {
            let own = s.end_us.saturating_sub(s.start_us).saturating_sub(covered);
            let slot = out.entry(s.name.as_ref()).or_default();
            slot.0 += 1;
            slot.1 += own;
        }
        out
    }

    /// The log as a Chrome trace document (`chrome://tracing`, Perfetto).
    pub fn to_chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                let mut args = vec![("op", Json::from(s.op))];
                if let Some(p) = s.parent {
                    args.push(("parent", Json::from(self.spans[p].name.as_ref())));
                }
                Json::obj([
                    ("name", Json::from(s.name.as_ref())),
                    ("ph", "X".into()),
                    ("ts", s.start_us.into()),
                    ("dur", s.end_us.saturating_sub(s.start_us).into()),
                    ("pid", 1u64.into()),
                    ("tid", u64::from(s.lane).into()),
                    ("args", Json::obj(args)),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn closed(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: Cow::Owned(name.to_string()),
            start_us: start,
            end_us: end,
            op: 7,
            parent,
            lane: 0,
        }
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false, 0);
        let s = log.begin("x", 1, None);
        log.end(s);
        log.push_closed(closed("y", 0, 1, None));
        assert!(log.spans.is_empty());
    }

    #[test]
    fn self_time_subtracts_direct_children_and_absorb_rebases_parents() {
        let mut log = SpanLog::new(true, 0);
        log.push_closed(closed("request", 0, 100, None));
        log.push_closed(closed("send", 0, 10, Some(0)));
        log.push_closed(closed("recv", 10, 90, Some(0)));
        let mut other = SpanLog::new(true, 1);
        other.push_closed(closed("request", 0, 50, None));
        other.push_closed(closed("send", 5, 25, Some(0)));
        log.absorb(other);
        assert_eq!(log.spans[4].parent, Some(3));
        let t = log.self_times();
        assert_eq!(t["request"], (2, 10 + 30));
        assert_eq!(t["send"], (2, 30));
        let doc = log.to_chrome_trace().to_line();
        assert!(doc.contains(r#""parent":"request""#), "{doc}");
        assert!(ahntp_telemetry::json::parse(&doc).is_ok());
    }
}
