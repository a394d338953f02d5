//! The front handler: scatter-gather over range-sharded shard servers,
//! served through the one core ([`crate::server`]) — which is why the
//! front has the same connection handling, trace ids, `/metrics*` and
//! `/debug/*` routes and 404/405 answers as a single node, under the
//! `front.*` metric names.
//!
//! A *shard* is an ordinary [`crate::serve`] server started with
//! [`crate::ServeConfig::shard_range`] set: it maps the **full** artifact
//! (so `/score` answers any pair) but its `/topk` scans only the owned
//! contiguous trustee range, always with the exact scalar arithmetic. The
//! *front tier* started by [`serve_sharded`] discovers the shards through
//! their `/healthz` (fingerprints must agree, ranges must partition
//! `[0, n)`), then serves the same HTTP surface as a single node:
//!
//! * `POST /score` — pairs are validated against the cluster id space
//!   (same typed errors as a single node), grouped by the shard owning
//!   each trustee, scored in parallel, and reassembled in request order.
//! * `GET /topk` — fanned out to every shard; the per-shard heaps merge
//!   under the documented **(score desc, user id asc)** total order and
//!   truncate to `k`. Shard scans return global user ids and run the
//!   same scan as a single node, and JSON numbers round-trip
//!   bit-exactly, so the merged body is **byte-identical** to the
//!   single-node response — the invariant `tests/shard_exactness.rs`
//!   sweeps.
//! * `POST /admin/swap` — serialized through a front-level lock and
//!   forwarded to every shard; each shard builds the new snapshot before
//!   taking its write lock ([`crate::SharedIndex::swap`]), so reads never
//!   drop during a swap and a mismatched fingerprint is refused with
//!   `409` cluster-wide.
//! * `POST /events` — broadcast to every shard (each holds the full
//!   artifact, so live patches must land everywhere); the highest-status
//!   reply wins, surfacing any shard's failure.
//! * `GET /healthz` — aggregates shard health (`"ok"` / `"degraded"`),
//!   and `GET /metrics/shards` fans out to the shards' registries
//!   (`GET /metrics` is the front's own, from the core).
//!
//! Every shard call is one `Connection: close` exchange through
//! [`crate::client`].
//!
//! # Fault model
//!
//! Any shard unreachable (or the `shard.rpc` failpoint armed) makes
//! fan-out reads answer `503` + `Retry-After` *deterministically* — a
//! partial top-k merge would be silently wrong, so the front never
//! serves one. A shard whose reply cannot be read — malformed, or a head
//! or `Content-Length` over the client's caps — is a `502` naming the
//! shard. `tests/shard_chaos.rs` drives these paths.

use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ahntp_telemetry::json::{parse, Json};
use ahntp_telemetry::{counter_add, info, warn};

use crate::backend::BackendKind;
use crate::client::Client;
use crate::index::ScoreError;
use crate::node::{bad_request, parse_pairs, topk_query};
use crate::server::{Answer, Call, Core, Handler, Names, Response, Route, ServeConfig};

/// One discovered shard: where it listens and which trustee ids it owns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardInfo {
    /// The shard server's address.
    pub addr: SocketAddr,
    /// First owned trustee id (inclusive).
    pub lo: usize,
    /// One past the last owned trustee id.
    pub hi: usize,
}

/// Splits `[0, n_users)` into `n_shards` contiguous, near-even ranges
/// (the first `n_users % n_shards` shards take one extra id). Use these
/// as the [`ServeConfig::shard_range`] of each shard server.
///
/// # Panics
///
/// Panics when `n_shards` is zero or exceeds `n_users` (an empty shard
/// range is invalid).
pub fn shard_ranges(n_users: usize, n_shards: usize) -> Vec<(usize, usize)> {
    assert!(n_shards > 0, "need at least one shard");
    assert!(
        n_shards <= n_users,
        "{n_shards} shards over {n_users} users would leave a shard empty"
    );
    let base = n_users / n_shards;
    let extra = n_users % n_shards;
    let mut ranges = Vec::with_capacity(n_shards);
    let mut lo = 0;
    for s in 0..n_shards {
        let hi = lo + base + usize::from(s < extra);
        ranges.push((lo, hi));
        lo = hi;
    }
    ranges
}

/// The front: what it learned from the shards at startup, shared
/// (read-only except the swap lock) by every core worker.
pub(crate) struct Front {
    shards: Vec<ShardInfo>,
    n_users: usize,
    model: String,
    fingerprint: String,
    live: bool,
    rpc_timeout: Duration,
    retry_after: Duration,
    /// Serializes `/admin/swap` broadcasts: one cluster-wide swap at a
    /// time, so two concurrent swaps cannot interleave across shards.
    swap_lock: Mutex<()>,
}

impl Handler for Front {
    const NAMES: Names = Names {
        log: "front",
        access: "front.access",
        requests: "front.http.requests",
        errors: "front.http.errors",
        latency_us: "front.request.us",
        span: "front.request",
    };
    const ROUTES: &'static [Route<Front>] = &[
        ("POST", "/score", Front::score),
        ("GET", "/topk", Front::topk),
        ("POST", "/admin/swap", Front::swap),
        ("POST", "/events", Front::events),
        ("GET", "/healthz", Front::healthz),
        ("GET", "/metrics/shards", Front::shard_metrics),
    ];
}

/// A shard's reply: status and body.
type Reply = io::Result<(u16, String)>;

/// One exchange with a shard — `POST` when there is a body, else `GET` —
/// on a fresh `Connection: close` connection (persistent shard
/// connections are a separate, measured change).
///
/// # Errors
///
/// Socket-level failures (connect/read/write, including the `shard.rpc`
/// failpoint), which [`Front::failed`] maps to a deterministic `503`, and
/// [`io::ErrorKind::InvalidData`] for a reply the client refuses, which
/// becomes a `502`.
fn call_shard(addr: SocketAddr, target: &str, body: Option<&str>, timeout: Duration) -> Reply {
    ahntp_faultz::failpoint!("shard.rpc");
    let mut conn = Client::connect(addr, timeout)?.one_shot();
    let reply = match body {
        Some(body) => conn.post(target, body),
        None => conn.get(target),
    }?;
    Ok((reply.status, reply.body))
}

impl Front {
    /// Which shard owns trustee id `v`. Ranges partition `[0, n_users)`
    /// (validated at startup), so this always resolves for valid ids.
    fn owner(&self, v: usize) -> usize {
        self.shards
            .iter()
            .position(|s| s.lo <= v && v < s.hi)
            .expect("ranges partition the id space")
    }

    /// Runs `call(i, shard)` for every shard in parallel; index `i` of the
    /// result pairs with `self.shards[i]`.
    fn fan_out<T: Send>(&self, call: impl Fn(usize, &ShardInfo) -> T + Sync) -> Vec<T> {
        let ctx = &ahntp_par::Context::capture();
        std::thread::scope(|scope| {
            let call = &call;
            let handles: Vec<_> = self
                .shards
                .iter()
                .enumerate()
                .map(|(i, shard)| scope.spawn(move || ctx.run(|| call(i, shard))))
                .collect();
            handles.into_iter().map(|h| h.join().expect("rpc thread panicked")).collect()
        })
    }

    /// The same request to every shard.
    fn broadcast(&self, target: &str, body: Option<&str>) -> Vec<Reply> {
        self.fan_out(|_, shard| call_shard(shard.addr, target, body, self.rpc_timeout))
    }

    /// The answer when a shard call failed. Unreachable: the deterministic
    /// degraded `503` + `Retry-After`, naming the shard — partial fan-out
    /// results are never served. Reachable but unreadable: `502`.
    fn failed(&self, shard: &ShardInfo, e: &io::Error) -> Response {
        if e.kind() == io::ErrorKind::InvalidData {
            return bad_gateway(shard, &format!("unreadable reply: {e}"));
        }
        counter_add("front.shard_unavailable", 1);
        warn!("front", "shard {} unreachable: {e}", shard.addr);
        Response::error(
            503,
            &format!("shard {} (users [{}, {})) unavailable", shard.addr, shard.lo, shard.hi),
        )
        .retry_after(self.retry_after)
    }

    /// A shard's `200` reply as JSON. Anything else ends the request: a
    /// shard-side refusal (shed, deadline, injected fault) is passed
    /// through rather than served around, an unparseable body is a `502`.
    fn ok_json(&self, shard: &ShardInfo, reply: Reply, what: &str) -> Result<Json, Response> {
        let (status, body) = reply.map_err(|e| self.failed(shard, &e))?;
        if status != 200 {
            return Err(self.passthrough(status, &body));
        }
        parse(&body).map_err(|e| bad_gateway(shard, &format!("unparseable {what} body: {e}")))
    }

    /// Forwards a shard reply as the front's own response, re-rendering
    /// the parsed JSON (bit-exact for numeric payloads).
    fn passthrough(&self, status: u16, body: &str) -> Response {
        let doc = parse(body).unwrap_or_else(|_| Json::obj([("error", body.into())]));
        let resp = Response::new(status, doc);
        if status == 503 || status == 504 {
            resp.retry_after(self.retry_after)
        } else {
            resp
        }
    }

    /// `POST /score` on the front: validate ids against the cluster id
    /// space (byte-identical typed errors to a single node), group by the
    /// trustee's owning shard, score in parallel, reassemble in request
    /// order.
    fn score(&self, call: &mut Call<'_>) -> Answer {
        let pairs = parse_pairs(&call.req.body).map_err(bad_request)?;
        // Mirror TrustIndex::score_pairs' validation order (trustor then
        // trustee, first offender wins) so error bodies match bitwise.
        for &(u, v) in &pairs {
            for user in [u, v] {
                if user >= self.n_users {
                    return Err(bad_request(ScoreError::UserOutOfRange { user, n_users: self.n_users }));
                }
            }
        }
        // Group pair positions by owning shard; relative order within a
        // group preserves request order, so reassembly is a scatter write.
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, &(_, v)) in pairs.iter().enumerate() {
            groups[self.owner(v)].push(i);
        }
        let replies = self.fan_out(|s, shard| {
            if groups[s].is_empty() {
                return None;
            }
            let group = groups[s].iter().map(|&i| Json::Arr(vec![pairs[i].0.into(), pairs[i].1.into()]));
            let body = Json::obj([("pairs", Json::Arr(group.collect()))]).to_line();
            Some(call_shard(shard.addr, "/score", Some(&body), self.rpc_timeout))
        });
        let mut scores: Vec<Option<Json>> = vec![None; pairs.len()];
        for ((shard, group), reply) in self.shards.iter().zip(&groups).zip(replies) {
            let Some(reply) = reply else { continue };
            let doc = self.ok_json(shard, reply, "/score")?;
            let Some(Json::Arr(got)) = doc.get("scores") else {
                return Err(bad_gateway(shard, "no scores in /score body"));
            };
            if got.len() != group.len() {
                return Err(bad_gateway(shard, "shard returned a different number of scores"));
            }
            for (&i, s) in group.iter().zip(got) {
                scores[i] = Some(s.clone());
            }
        }
        let scores: Vec<Json> = scores
            .into_iter()
            .map(|s| s.expect("every pair was grouped to exactly one shard"))
            .collect();
        Ok(Response::new(
            200,
            Json::obj([
                ("scores", Json::Arr(scores)),
                ("backend", BackendKind::Exact.name().into()),
            ]),
        ))
    }

    /// `GET /topk` on the front: fan out to every shard, merge the
    /// per-shard candidate heaps under (score desc, user id asc), truncate
    /// to `k`.
    fn topk(&self, call: &mut Call<'_>) -> Answer {
        let (user, k) = topk_query(call.req)?;
        let replies = self.broadcast(&format!("/topk?user={user}&k={k}"), None);
        // (score, user id). f32→f64 is exact and the JSON renderer prints
        // shortest-roundtrip doubles, so sorting the parsed doubles and
        // re-rendering them reproduces the single-node body bytes.
        let mut merged: Vec<(f64, usize)> = Vec::new();
        for (shard, reply) in self.shards.iter().zip(replies) {
            let doc = self.ok_json(shard, reply, "/topk")?;
            let Some(Json::Arr(trustees)) = doc.get("trustees") else {
                return Err(bad_gateway(shard, "no trustees in /topk body"));
            };
            for t in trustees {
                let (Some(v), Some(s)) = (
                    t.get("user").and_then(Json::as_f64),
                    t.get("score").and_then(Json::as_f64),
                ) else {
                    return Err(bad_gateway(shard, "malformed trustee entry"));
                };
                merged.push((s, v as usize));
            }
        }
        // The documented tie-break across shard boundaries: score
        // descending, then user id ascending. Shard ids are global, so no
        // per-shard offset arithmetic happens here (or anywhere).
        merged.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        merged.truncate(k);
        let trustees = merged
            .into_iter()
            .map(|(s, v)| Json::obj([("user", v.into()), ("score", s.into())]))
            .collect();
        Ok(Response::new(
            200,
            Json::obj([
                ("user", user.into()),
                ("trustees", Json::Arr(trustees)),
                ("backend", BackendKind::Exact.name().into()),
            ]),
        ))
    }

    /// `POST /admin/swap` on the front: serialized broadcast; every shard
    /// must accept. A refusal or failure surfaces with that shard named —
    /// shards already swapped stay swapped (snapshots are compatible by
    /// construction; the refusing shard is the operator's signal).
    fn swap(&self, call: &mut Call<'_>) -> Answer {
        let _one_at_a_time = self.swap_lock.lock().expect("swap lock poisoned");
        let body = call.text()?;
        let mut results = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let (status, reply) =
                call_shard(shard.addr, "/admin/swap", Some(body), self.rpc_timeout)
                    .map_err(|e| self.failed(shard, &e))?;
            if status != 200 {
                counter_add("front.swap.refused", 1);
                let error = parse(&reply)
                    .ok()
                    .and_then(|d| d.get("error").and_then(Json::as_str).map(str::to_string))
                    .unwrap_or(reply);
                return Err(Response::new(
                    status,
                    Json::obj([
                        ("error", error.into()),
                        ("shard", shard.addr.to_string().into()),
                    ]),
                ));
            }
            results.push(parse(&reply).unwrap_or(Json::Null));
        }
        counter_add("front.swap.ok", 1);
        info!("front", "snapshot swapped across {} shards", self.shards.len());
        Ok(Response::new(200, Json::obj([("swapped", true.into()), ("shards", Json::Arr(results))])))
    }

    /// `POST /events` on the front: broadcast (every shard holds the full
    /// artifact, so live patches must land on all of them); the
    /// highest-status reply is returned so any shard's failure surfaces.
    fn events(&self, call: &mut Call<'_>) -> Answer {
        let replies = self.broadcast("/events", Some(call.text()?));
        let mut worst: Option<(u16, String)> = None;
        for (shard, reply) in self.shards.iter().zip(replies) {
            let (status, body) = reply.map_err(|e| self.failed(shard, &e))?;
            if worst.as_ref().map_or(true, |(w, _)| status > *w) {
                worst = Some((status, body));
            }
        }
        let (status, body) = worst.expect("at least one shard");
        Ok(self.passthrough(status, &body))
    }

    /// `GET /healthz` on the front: aggregate shard health. Always `200` —
    /// the front itself is alive — with `"status": "degraded"` when any
    /// shard is down.
    fn healthz(&self, _call: &mut Call<'_>) -> Answer {
        let replies = self.broadcast("/healthz", None);
        let mut all_ok = true;
        let shards: Vec<Json> = self
            .shards
            .iter()
            .zip(replies)
            .map(|(shard, reply)| {
                let status = match reply {
                    Ok((200, _)) => "ok",
                    Ok(_) => "unhealthy",
                    Err(_) => "down",
                };
                all_ok &= status == "ok";
                Json::obj([
                    ("addr", shard.addr.to_string().into()),
                    ("lo", shard.lo.into()),
                    ("hi", shard.hi.into()),
                    ("status", status.into()),
                ])
            })
            .collect();
        Ok(Response::new(
            200,
            Json::obj([
                ("status", if all_ok { "ok" } else { "degraded" }.into()),
                ("model", self.model.as_str().into()),
                ("n_users", self.n_users.into()),
                ("fingerprint", self.fingerprint.as_str().into()),
                ("live", self.live.into()),
                ("backend", BackendKind::Exact.name().into()),
                ("sharded", true.into()),
                ("shards", Json::Arr(shards)),
            ]),
        ))
    }

    /// `GET /metrics/shards`: every shard's metrics registry, labeled.
    fn shard_metrics(&self, _call: &mut Call<'_>) -> Answer {
        let replies = self.broadcast("/metrics", None);
        let shards: Vec<Json> = self
            .shards
            .iter()
            .zip(replies)
            .map(|(shard, reply)| {
                let metrics = match reply {
                    Ok((200, body)) => parse(&body).unwrap_or(Json::Null),
                    _ => Json::Null,
                };
                Json::obj([("addr", shard.addr.to_string().into()), ("metrics", metrics)])
            })
            .collect();
        Ok(Response::new(200, Json::obj([("shards", Json::Arr(shards))])))
    }
}

/// A shard reply the front cannot make sense of: `502`, naming the shard.
fn bad_gateway(shard: &ShardInfo, message: &str) -> Response {
    Response::error(502, &format!("shard {}: {message}", shard.addr))
}

/// Handle to a running scatter-gather front. Dropping it shuts the front
/// down (the shard servers it talks to are owned by their own
/// [`crate::ServerHandle`]s and are not touched).
pub struct ShardedHandle {
    core: Core,
    shards: Vec<ShardInfo>,
}

impl ShardedHandle {
    /// The front tier's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.core.addr()
    }

    /// The discovered shard layout, sorted by range.
    pub fn shards(&self) -> &[ShardInfo] {
        &self.shards
    }

    /// Graceful shutdown: stops accepting, finishes in-flight requests,
    /// joins every thread. Shard servers keep running.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.core.stop() {
            info!("front", "front on {} stopped", self.addr());
        }
    }
}

impl Drop for ShardedHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// `n_users` as a shard's `/healthz` states it.
fn n_users_of(healthz: &Json) -> usize {
    healthz.get("n_users").and_then(Json::as_f64).unwrap_or(0.0) as usize
}

/// Discovers one shard through its `/healthz`.
fn discover(addr: SocketAddr, timeout: Duration) -> io::Result<(ShardInfo, Json)> {
    let (status, body) = call_shard(addr, "/healthz", None, timeout)?;
    if status != 200 {
        return Err(io::Error::other(format!("shard {addr} /healthz answered {status}")));
    }
    let doc = parse(&body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("shard {addr}: {e}")))?;
    let n_users = n_users_of(&doc);
    // A shard without an explicit range owns the whole id space (a
    // one-shard cluster over a plain server works).
    let lo = doc.get("shard_lo").and_then(Json::as_f64).unwrap_or(0.0) as usize;
    let hi = doc.get("shard_hi").and_then(Json::as_f64).unwrap_or(n_users as f64) as usize;
    Ok((ShardInfo { addr, lo, hi }, doc))
}

/// Starts the scatter-gather front tier over already-running shard
/// servers (see the module docs for the serving surface).
///
/// Discovery runs once at startup: every shard's `/healthz` must answer,
/// all fingerprints / models / `n_users` must agree, and the
/// advertised ranges must partition `[0, n_users)` exactly — a cluster
/// whose shards could disagree on a single byte of a response is refused
/// before it serves anything.
///
/// The front reads `addr`, `workers`, `trace_ring`, `retry_after` and
/// `deadline` (the per-RPC timeout to a shard) from the [`ServeConfig`];
/// the index-side fields are the shards' business.
///
/// # Errors
///
/// Binding failures, unreachable shards, and layout validation failures.
pub fn serve_sharded(shards: &[SocketAddr], config: &ServeConfig) -> io::Result<ShardedHandle> {
    if shards.is_empty() {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "no shards given"));
    }
    let rpc_timeout = config.deadline;
    let mut infos: Vec<(ShardInfo, Json)> = Vec::with_capacity(shards.len());
    for &addr in shards {
        infos.push(discover(addr, rpc_timeout)?);
    }
    // Cluster-wide invariants: identical snapshot everywhere.
    let invalid = |message: String| io::Error::new(io::ErrorKind::InvalidData, message);
    let field = |doc: &Json, name: &str| -> String {
        doc.get(name).and_then(Json::as_str).unwrap_or("").to_string()
    };
    let first = &infos[0].1;
    let (model, fingerprint) = (field(first, "model"), field(first, "fingerprint"));
    let n_users = n_users_of(first);
    let live = first.get("live") == Some(&Json::Bool(true));
    for (info, doc) in &infos {
        for (name, want) in [("model", &model), ("fingerprint", &fingerprint)] {
            let got = field(doc, name);
            if &got != want {
                return Err(invalid(format!("shard {} {name} {got:?} != {want:?}", info.addr)));
            }
        }
        let got = n_users_of(doc);
        if got != n_users {
            return Err(invalid(format!("shard {} holds {got} users, expected {n_users}", info.addr)));
        }
    }
    // Ranges must partition [0, n_users) with no gap or overlap.
    let mut layout: Vec<ShardInfo> = infos.into_iter().map(|(i, _)| i).collect();
    layout.sort_by_key(|s| s.lo);
    let mut expect = 0usize;
    for shard in &layout {
        if shard.lo != expect || shard.hi <= shard.lo {
            return Err(invalid(format!(
                "shard ranges do not partition [0, {n_users}): shard {} owns [{}, {})\
                 but [{expect}, ..) is next",
                shard.addr, shard.lo, shard.hi
            )));
        }
        expect = shard.hi;
    }
    if expect != n_users {
        return Err(invalid(format!(
            "shard ranges cover [0, {expect}) but the index holds {n_users} users"
        )));
    }

    let front = Arc::new(Front {
        shards: layout,
        n_users,
        model,
        fingerprint,
        live,
        rpc_timeout,
        retry_after: config.retry_after,
        swap_lock: Mutex::new(()),
    });

    let core = Core::start(Arc::clone(&front), config)?;
    info!(
        "front",
        "scatter-gather front on {} over {} shards ({} users)",
        core.addr(),
        front.shards.len(),
        front.n_users
    );
    Ok(ShardedHandle { core, shards: front.shards.clone() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_partition_evenly() {
        assert_eq!(shard_ranges(10, 1), vec![(0, 10)]);
        assert_eq!(shard_ranges(10, 2), vec![(0, 5), (5, 10)]);
        // 10 = 4 + 3 + 3: the remainder lands on the first shards.
        assert_eq!(shard_ranges(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        assert_eq!(
            shard_ranges(7, 7),
            (0..7).map(|i| (i, i + 1)).collect::<Vec<_>>()
        );
        // Every split partitions exactly.
        for n in [1usize, 5, 24, 1000] {
            for s in 1..=n.min(9) {
                let ranges = shard_ranges(n, s);
                assert_eq!(ranges.len(), s);
                assert_eq!(ranges[0].0, 0);
                assert_eq!(ranges[s - 1].1, n);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "contiguous");
                }
                let sizes: Vec<usize> = ranges.iter().map(|(lo, hi)| hi - lo).collect();
                let (min, max) =
                    (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "near-even: {sizes:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "leave a shard empty")]
    fn more_shards_than_users_is_refused() {
        let _ = shard_ranges(3, 4);
    }
}
