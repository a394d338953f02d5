//! Bounded in-memory ring of recently served requests.
//!
//! Every request handled by the server — traced or not — deposits a
//! [`RequestTrace`] here: its trace id, method, path, status, wall-clock,
//! and the per-stage breakdown an endpoint collects on its way (for
//! `POST /score`: parse, index read guard, score). `GET /debug/traces` renders the ring as
//! JSON, newest last, so an operator can inspect the last N requests of a
//! live server without any external tooling. The ring is fixed-size
//! ([`ServeConfig::trace_ring`](crate::ServeConfig::trace_ring)); old
//! entries fall off the front.
//!
//! A record owns no heap memory for a routed request: method and path are
//! borrowed from the route tables and the stages sit inline ([`Stages`]).
//! Records are evicted by whichever worker pushes next, so anything a
//! record allocated would be freed on a thread other than the one that
//! allocated it, once per request.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Mutex;

use ahntp_telemetry::json::Json;

/// One timed stage inside a request (e.g. `serve.parse`,
/// `serve.queue.wait`, `serve.score`). Timestamps are µs on the
/// process-wide trace clock ([`ahntp_telemetry::trace_now_us`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Stage {
    pub name: &'static str,
    pub ts_us: u64,
    pub dur_us: u64,
}

impl Stage {
    fn to_json(self) -> Json {
        Json::obj([
            ("name", self.name.into()),
            ("ts_us", self.ts_us.into()),
            ("dur_us", self.dur_us.into()),
        ])
    }
}

/// The most stages one request records (`/score` and `/events` leave
/// four each).
const MAX_STAGES: usize = 4;

/// The stages of one request, inline: what an endpoint collects on its
/// [`Call`](crate::server::Call) and the ring keeps.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Stages {
    items: [Stage; MAX_STAGES],
    len: usize,
}

impl Stages {
    /// Appends a stage. One past [`MAX_STAGES`] is a programming error:
    /// caught in debug builds, dropped in release (a worker never panics
    /// over a trace record).
    pub fn push(&mut self, stage: Stage) {
        debug_assert!(
            self.len < MAX_STAGES,
            "more than {MAX_STAGES} stages: {}",
            stage.name
        );
        if let Some(slot) = self.items.get_mut(self.len) {
            *slot = stage;
            self.len += 1;
        }
    }

    pub fn as_slice(&self) -> &[Stage] {
        &self.items[..self.len]
    }
}

/// One completed request as recorded in the debug ring.
#[derive(Debug, Clone)]
pub(crate) struct RequestTrace {
    /// Request trace id; rendered as the 16-hex-digit wire form used by
    /// the `X-Ahntp-Trace-Id` header.
    pub trace_id: u64,
    /// Borrowed from the route tables; owned only when no route knows it.
    pub method: Cow<'static, str>,
    /// As `method`.
    pub path: Cow<'static, str>,
    pub status: u16,
    pub ts_us: u64,
    pub dur_us: u64,
    pub stages: Stages,
}

impl RequestTrace {
    fn to_json(&self) -> Json {
        Json::obj([
            ("trace_id", format!("{:016x}", self.trace_id).into()),
            ("method", (&*self.method).into()),
            ("path", (&*self.path).into()),
            ("status", u64::from(self.status).into()),
            ("ts_us", self.ts_us.into()),
            ("dur_us", self.dur_us.into()),
            (
                "stages",
                Json::Arr(self.stages.as_slice().iter().map(|s| s.to_json()).collect()),
            ),
        ])
    }
}

/// Fixed-capacity ring buffer of [`RequestTrace`]s, shared by every
/// worker thread.
pub(crate) struct TraceRing {
    ring: Mutex<VecDeque<RequestTrace>>,
    capacity: usize,
}

impl TraceRing {
    pub fn new(capacity: usize) -> TraceRing {
        let capacity = capacity.max(1);
        TraceRing {
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
        }
    }

    /// Appends one completed request, evicting the oldest when full.
    pub fn push(&self, trace: RequestTrace) {
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// `{"capacity": n, "traces": [...oldest→newest...]}`.
    pub fn to_json(&self) -> Json {
        let ring = self.ring.lock().unwrap();
        Json::obj([
            ("capacity", self.capacity.into()),
            (
                "traces",
                Json::Arr(ring.iter().map(RequestTrace::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: u64) -> RequestTrace {
        RequestTrace {
            trace_id: id,
            method: "GET".into(),
            path: "/healthz".into(),
            status: 200,
            ts_us: id * 10,
            dur_us: 5,
            stages: stages(&[Stage {
                name: "serve.parse",
                ts_us: id * 10,
                dur_us: 1,
            }]),
        }
    }

    fn stages(of: &[Stage]) -> Stages {
        let mut stages = Stages::default();
        of.iter().for_each(|&s| stages.push(s));
        stages
    }

    #[test]
    fn ring_evicts_oldest_and_renders_hex_ids() {
        let ring = TraceRing::new(2);
        for id in 1..=3 {
            ring.push(trace(id));
        }
        let doc = ring.to_json();
        assert_eq!(doc.get("capacity").and_then(Json::as_f64), Some(2.0));
        let Some(Json::Arr(traces)) = doc.get("traces") else {
            panic!("no traces array");
        };
        assert_eq!(traces.len(), 2);
        // Oldest (id 1) fell off; ids render as 16 hex digits.
        assert_eq!(
            traces[0].get("trace_id").and_then(Json::as_str),
            Some("0000000000000002")
        );
        assert_eq!(
            traces[1].get("trace_id").and_then(Json::as_str),
            Some("0000000000000003")
        );
        let Some(Json::Arr(stages)) = traces[0].get("stages") else {
            panic!("no stages array");
        };
        assert_eq!(
            stages[0].get("name").and_then(Json::as_str),
            Some("serve.parse")
        );
        // `/debug/traces` is a wire format: pinned byte for byte.
        assert_eq!(
            doc.to_line(),
            concat!(
                r#"{"capacity":2,"traces":[{"dur_us":5,"method":"GET","path":"/healthz","#,
                r#""stages":[{"dur_us":1,"name":"serve.parse","ts_us":20}],"status":200,"#,
                r#""trace_id":"0000000000000002","ts_us":20},{"dur_us":5,"method":"GET","#,
                r#""path":"/healthz","stages":[{"dur_us":1,"name":"serve.parse","ts_us":30}],"#,
                r#""status":200,"trace_id":"0000000000000003","ts_us":30}]}"#,
            )
        );
    }

    #[test]
    fn a_fifth_stage_is_dropped_not_a_release_panic() {
        let stage = |i: u64| Stage {
            name: "serve.parse",
            ts_us: i,
            dur_us: 1,
        };
        let mut full = stages(&[stage(0), stage(1), stage(2), stage(3)]);
        let pushed = std::panic::catch_unwind(move || {
            full.push(stage(4));
            full
        });
        assert_eq!(
            pushed.is_err(),
            cfg!(debug_assertions),
            "caught in debug, dropped in release"
        );
        if let Ok(full) = pushed {
            // The record keeps its four stages and the worker lives.
            assert_eq!(
                full.as_slice().iter().map(|s| s.ts_us).collect::<Vec<_>>(),
                [0, 1, 2, 3]
            );
        }
    }
}
