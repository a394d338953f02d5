//! The node handler: one index — frozen or live — served through the one
//! core ([`crate::server`]).
//!
//! ```text
//! core worker ── POST /score ──▶ parse ──▶ index read guard ──▶ TrustIndex
//!      ▲                                                            │
//!      └──────────────────────────── render ◀───────────────────────┘
//! ```
//!
//! The core's workers parse HTTP and run this module's endpoints, each on
//! the worker that read the request. `POST /score` takes the index's read
//! guard — one pinned index version per request, as `GET /topk` does — and
//! scores its pairs in one call: eight pairs are a quarter of a
//! microsecond of kernel, so there is nothing to gain from handing them to
//! another thread. On shutdown the core stops first (acceptor, then
//! workers), then the applier drains its channel, then the trace is
//! flushed.
//!
//! # Live trust
//!
//! [`serve_live`] additionally runs an **applier thread** owning a
//! [`LiveTrustModel`]: `POST /events` batches flow to it over a channel
//! (and their replies back through the worker's [`ReplySlot`]), it folds
//! each batch into the model's hypergraphs ([`EventApplier::apply_batch`]),
//! and patches the batch's one refresh into the shared index under a short
//! write lock ([`SharedIndex`]). One consumer means the event log is
//! totally ordered; `/score` and `/topk` keep answering from the live
//! index throughout. A server started with [`serve`] has no model and
//! answers `/events` with `501`.
//!
//! Metrics (all under the `serve.` prefix): the core's
//! `serve.http.requests` / `serve.http.errors` counters and
//! `serve.request.us` latency histogram, plus the `serve.score.batch_size`
//! histogram (pairs per `/score`) from here.
//!
//! # Tracing
//!
//! The trace id the core mints is the worker's ambient id while an
//! endpoint runs (and travels with an ingest job to the applier and
//! back); the endpoints leave their stage timings — for `/score`: parse,
//! the wait for the index read guard (`serve.queue.wait`), score — on the
//! [`Call`], which the core records in the ring behind
//! `GET /debug/traces` and, with trace collection on, emits nested inside
//! the request's `serve.request` span.
//!
//! # Fault tolerance
//!
//! Every `/events` request carries a deadline ([`ServeConfig::deadline`]):
//! a reply that does not arrive in time answers `504` with a
//! `Retry-After` header and bumps `serve.deadline_exceeded`, so a stalled
//! or slow applier can never hang a client past the deadline. An applier
//! that is gone sheds the batch with `503` + `Retry-After` and bumps
//! `serve.shed`. `GET /healthz` never touches the applier, so liveness
//! probes keep answering under every failure mode. Failpoints
//! (`ahntp-faultz`): `serve.request`, `serve.ingest`, `shard.swap`, plus
//! `serve.read` / `serve.write` in the HTTP layer.

use std::io;
use std::net::SocketAddr;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ahntp_par::Context;
use ahntp_telemetry::json::{parse, Json};
use ahntp_telemetry::{
    counter_add, histogram_record, info, trace_now_us, warn, KernelKind, KernelSpan,
};

use ahntp_stream::{parse_events, EventApplier, LiveTrustModel, StalenessBound, TrustEvent};

use crate::backend::{warn_on_removed_backend, BackendKind};
use crate::http::Request;
use crate::index::{SharedIndex, TrustIndex};
use crate::server::{Answer, Call, Core, Handler, Names, Response, Route, ServeConfig};

/// The node: everything its endpoints need to answer one request.
pub(crate) struct Node {
    index: Arc<SharedIndex>,
    /// Channel to the live-event applier thread; `None` on a frozen
    /// server, which answers `POST /events` with `501`.
    ingest: Option<mpsc::Sender<IngestJob>>,
    deadline: Duration,
    retry_after: Duration,
    /// Owned trustee range when serving as a shard
    /// ([`ServeConfig::shard_range`]); restricts `/topk` candidates.
    shard_range: Option<(usize, usize)>,
}

impl Handler for Node {
    const NAMES: Names = Names {
        log: "serve",
        access: "serve.access",
        requests: "serve.http.requests",
        errors: "serve.http.errors",
        latency_us: "serve.request.us",
        span: "serve.request",
    };
    const ROUTES: &'static [Route<Node>] = &[
        ("POST", "/score", Node::score),
        ("POST", "/events", Node::events),
        ("POST", "/admin/swap", Node::swap),
        ("GET", "/topk", Node::topk),
        ("GET", "/healthz", Node::healthz),
    ];
}

/// One worker's rendezvous with the applier thread that answers the
/// ingest job it queued, reused for every request that worker serves. A
/// per-request channel would be allocated on the worker and freed on the
/// applier (and its message block the other way round) on every request;
/// the slot is allocated once per thread and a job carries a refcount on
/// it.
///
/// A worker waits for one reply at a time, so the slot holds one outcome,
/// tagged with the sequence number of the request it belongs to:
/// [`ReplySlot::open`] starts a request, [`ReplySlot::wait`] ends it, and a
/// [`ReplyTo`] settling outside that window — the late answer to a request
/// that already got its `504` — finds another number and is discarded, so
/// it can never be taken for the worker's next request.
struct ReplySlot<T> {
    state: Mutex<SlotState<T>>,
    settled: Condvar,
}

struct SlotState<T> {
    /// Number of the request the worker is waiting on (or waited on last).
    seq: u64,
    /// `Some(Some(reply))` once answered, `Some(None)` once the job was
    /// dropped unanswered.
    outcome: Option<Option<T>>,
}

/// Why [`ReplySlot::wait`] returned without a reply.
#[derive(Debug, PartialEq)]
enum NoReply {
    /// Nothing arrived in time.
    Timeout,
    /// The job was dropped unanswered: its queue stopped, or the thread
    /// that would have answered is gone.
    Dropped,
}

/// The answering side of one request on a [`ReplySlot`], carried by the
/// queued job. Dropping it without [`ReplyTo::send`] wakes the worker with
/// [`NoReply::Dropped`] instead of leaving it to its deadline.
struct ReplyTo<T> {
    slot: Arc<ReplySlot<T>>,
    seq: u64,
}

impl<T> Default for ReplySlot<T> {
    fn default() -> ReplySlot<T> {
        ReplySlot {
            state: Mutex::new(SlotState {
                seq: 0,
                outcome: None,
            }),
            settled: Condvar::new(),
        }
    }
}

impl<T> ReplySlot<T> {
    /// The state, whether or not a thread panicked holding it: every
    /// update is a plain store that leaves it valid, and [`ReplyTo`]'s drop
    /// must not panic over a poisoned lock.
    fn state(&self) -> MutexGuard<'_, SlotState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Starts the worker's next request, discarding whatever an earlier
    /// one left behind.
    fn open(self: &Arc<Self>) -> ReplyTo<T> {
        let mut state = self.state();
        state.seq += 1;
        state.outcome = None;
        ReplyTo {
            slot: Arc::clone(self),
            seq: state.seq,
        }
    }

    /// Waits up to `timeout` for the outcome of the request opened last
    /// (one that is already there is returned whatever the timeout) and
    /// ends the request: what settles later is discarded.
    fn wait(&self, timeout: Duration) -> Result<T, NoReply> {
        let (mut state, _) = self
            .settled
            .wait_timeout_while(self.state(), timeout, |s| s.outcome.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        state.seq += 1;
        match state.outcome.take() {
            Some(Some(reply)) => Ok(reply),
            Some(None) => Err(NoReply::Dropped),
            None => Err(NoReply::Timeout),
        }
    }
}

impl<T> ReplyTo<T> {
    fn send(self, reply: T) {
        self.settle(Some(reply));
    }

    /// Settles the request if it is still the slot's current one and still
    /// open, so the drop that follows a `send` changes nothing.
    fn settle(&self, outcome: Option<T>) {
        let mut state = self.slot.state();
        if state.seq == self.seq && state.outcome.is_none() {
            state.outcome = Some(outcome);
            // Unlock first: the woken worker takes the lock at once.
            drop(state);
            self.slot.settled.notify_one();
        }
    }
}

impl<T> Drop for ReplyTo<T> {
    fn drop(&mut self) {
        self.settle(None);
    }
}

thread_local! {
    /// The calling worker's slot for applier replies.
    static INGEST_REPLY: Arc<ReplySlot<IngestReply>> = Arc::default();
}

/// One queued `POST /events` batch bound for the applier thread.
struct IngestJob {
    events: Vec<TrustEvent>,
    trace_id: u64,
    reply: ReplyTo<IngestReply>,
}

/// What the applier sends back for one ingest batch.
struct IngestReply {
    /// Events applied before the first failure (all of them on success).
    applied: usize,
    /// Affected users summed over the applied events.
    affected: usize,
    /// Rows in the batch's one patch: the union of its dirty users (plus
    /// any a deferred or failed refresh left), each counted once.
    refreshed: usize,
    /// Users still dirty after the batch (staleness-bound refresh failed
    /// or was deferred).
    dirty: usize,
    error: Option<String>,
    /// When the applier drained the job from the channel.
    picked_up_us: u64,
    /// When the batch (including its refresh flush) finished.
    done_us: u64,
}

/// Handle to a running server. Dropping it shuts the server down.
pub struct ServerHandle {
    core: Core,
    /// Live servers only: the ingest channel and the applier thread.
    /// Dropping the sender (after the workers' handler is gone) lets the
    /// applier drain the remaining batches and exit.
    ingest: Option<mpsc::Sender<IngestJob>>,
    applier: Option<JoinHandle<()>>,
    /// The context the server was started under, whose trace it flushes.
    ctx: Context,
}

impl ServerHandle {
    /// The bound address (with the OS-assigned port when the config asked
    /// for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.core.addr()
    }

    /// Graceful shutdown: stops accepting, lets in-flight requests
    /// finish, drains the ingest channel, joins every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // Acceptor, then workers.
        if !self.core.stop() {
            return; // already stopped
        }
        // Workers are gone, so the handle holds the last ingest sender:
        // dropping it disconnects the channel and the applier exits once
        // it has drained the already-queued batches.
        drop(self.ingest.take());
        if let Some(t) = self.applier.take() {
            let _ = t.join();
        }
        // Every thread has quiesced: if AHNTP_TRACE_OUT is set, persist
        // the Chrome trace the server's context collected.
        self.ctx.run(ahntp_telemetry::flush_trace_to_env);
        info!("serve", "server on {} stopped", self.addr());
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Starts a frozen server (no event ingest) and returns once the socket
/// is bound and every thread is running. `POST /events` answers `501`;
/// use [`serve_live`] to serve a mutable model.
///
/// # Errors
///
/// Fails when the address cannot be bound.
pub fn serve(index: TrustIndex, config: &ServeConfig) -> io::Result<ServerHandle> {
    let index = match &config.defense {
        Some(defense) => index
            .with_defense(defense.clone())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?,
        None => index,
    };
    serve_shared(Arc::new(SharedIndex::new(index)), config, None)
}

/// Starts a live server: like [`serve`], plus a `POST /events` endpoint
/// that folds trust events into a [`LiveTrustModel`] and patches the
/// refreshed head rows into the scoring index.
///
/// The factory runs on a dedicated applier thread (models may hold
/// non-`Send` state): it builds the model there, seeds the index from
/// [`LiveTrustModel::export_artifact`], then applies event batches in
/// arrival order — a single consumer, so the event log is totally
/// ordered. `bound`, checked once per batch, decides how much staleness
/// may accumulate between head refreshes; [`StalenessBound::immediate`]
/// keeps the index exact after every batch.
///
/// # Errors
///
/// Fails when the address cannot be bound, when the model factory
/// panics, or when the exported artifact does not validate.
pub fn serve_live<F>(
    factory: F,
    bound: StalenessBound,
    config: &ServeConfig,
) -> io::Result<ServerHandle>
where
    F: FnOnce() -> Box<dyn LiveTrustModel> + Send + 'static,
{
    let (boot_tx, boot_rx) = mpsc::channel();
    let (ingest_tx, ingest_rx) = mpsc::channel::<IngestJob>();
    let defense = config.defense.clone();
    let applier = Context::capture().spawn(move || {
        let model = factory();
        let index = match TrustIndex::from_artifact(model.export_artifact()) {
            Ok(index) => index,
            Err(e) => {
                let _ = boot_tx.send(Err(format!("exported artifact invalid: {e}")));
                return;
            }
        };
        let index = match defense {
            Some(defense) => match index.with_defense(defense) {
                Ok(index) => index,
                Err(e) => {
                    let _ = boot_tx.send(Err(format!("defense prior rejected: {e}")));
                    return;
                }
            },
            None => index,
        };
        let shared = Arc::new(SharedIndex::new(index));
        if boot_tx.send(Ok(Arc::clone(&shared))).is_err() {
            return; // serve_shared failed to bind; nothing to apply onto
        }
        run_applier(&ingest_rx, model, bound, &shared);
    });
    let shared = match boot_rx.recv() {
        Ok(Ok(shared)) => shared,
        Ok(Err(msg)) => {
            let _ = applier.join();
            return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
        }
        // The factory panicked before reporting anything.
        Err(_) => {
            let _ = applier.join();
            return Err(io::Error::other("live model construction failed"));
        }
    };
    serve_shared(shared, config, Some((ingest_tx, applier)))
}

/// The applier loop: single consumer of the ingest channel. Each batch
/// folds into the model through [`EventApplier::apply_batch`] — events in
/// order, the staleness bound checked once after them — and its one patch
/// goes into the shared index under one short write lock, so readers see a
/// batch change the index all at once. A mid-batch apply failure stops the
/// batch, but the applied prefix is still flushed, so the reply always
/// describes an index that has caught up with everything that was applied;
/// a refresh failure keeps the dirty set for the next batch to retry.
fn run_applier(
    jobs: &mpsc::Receiver<IngestJob>,
    model: Box<dyn LiveTrustModel>,
    bound: StalenessBound,
    index: &SharedIndex,
) {
    let mut applier = EventApplier::new(model, bound);
    while let Ok(job) = jobs.recv() {
        let picked_up_us = trace_now_us();
        let _scope = ahntp_telemetry::set_trace_id_scope(job.trace_id);
        let _span = KernelSpan::enter("serve.ingest", KernelKind::Other);
        histogram_record("serve.ingest.batch_size", job.events.len() as u64);
        let batch = applier.apply_batch(&job.events);
        let mut error = batch.error.map(|e| e.to_string());
        let mut refreshed = 0;
        if let Some(patch) = &batch.patch {
            match index.apply_head_patch(patch) {
                Ok(()) => refreshed = patch.users.len(),
                Err(e) => {
                    error.get_or_insert(e);
                }
            }
        }
        if let Some(message) = &error {
            counter_add("serve.ingest.errors", 1);
            warn!(
                "serve",
                "ingest batch failed after {} events: {message}", batch.applied
            );
        }
        job.reply.send(IngestReply {
            applied: batch.applied,
            affected: batch.affected,
            refreshed,
            dirty: applier.dirty_users().len(),
            error,
            picked_up_us,
            done_us: trace_now_us(),
        });
    }
}

/// Shared startup path for [`serve`] and [`serve_live`]: the node handler
/// on the core.
fn serve_shared(
    index: Arc<SharedIndex>,
    config: &ServeConfig,
    live: Option<(mpsc::Sender<IngestJob>, JoinHandle<()>)>,
) -> io::Result<ServerHandle> {
    warn_on_removed_backend();
    if let Some((lo, hi)) = config.shard_range {
        let n_users = index.read().n_users();
        if lo >= hi || hi > n_users {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("shard range [{lo}, {hi}) invalid for an index of {n_users} users"),
            ));
        }
    }
    let (ingest, applier) = live.unzip();
    let node = Arc::new(Node {
        index: Arc::clone(&index),
        ingest: ingest.clone(),
        deadline: config.deadline,
        retry_after: config.retry_after,
        shard_range: config.shard_range,
    });
    let core = Core::start(node, config)?;
    {
        let snapshot = index.read();
        info!(
            "serve",
            "serving {} users of model {:?} on {} with {} workers ({})",
            snapshot.n_users(),
            snapshot.model(),
            core.addr(),
            config.workers.max(1),
            if ingest.is_some() { "live" } else { "frozen" },
        );
    }
    Ok(ServerHandle {
        core,
        ingest,
        applier,
        ctx: Context::capture(),
    })
}

/// Reads `{"pairs": [[u, v], ...]}` out of a `/score` body (shared with
/// the sharded front tier, which re-groups pairs by owning shard).
pub(crate) fn parse_pairs(body: &[u8]) -> Result<Vec<(usize, usize)>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    let Some(Json::Arr(items)) = doc.get("pairs") else {
        return Err("body must be {\"pairs\": [[trustor, trustee], ...]}".to_string());
    };
    let as_user = |v: &Json| -> Result<usize, String> {
        match v.as_f64() {
            Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= u32::MAX as f64 => Ok(n as usize),
            _ => Err(format!(
                "user ids must be non-negative integers, got {}",
                v.to_line()
            )),
        }
    };
    items
        .iter()
        .map(|item| match item {
            Json::Arr(pair) if pair.len() == 2 => Ok((as_user(&pair[0])?, as_user(&pair[1])?)),
            other => Err(format!(
                "each pair must be [trustor, trustee], got {}",
                other.to_line()
            )),
        })
        .collect()
}

/// Reads `user` and `k` (default 10) out of a `/topk` query; `Err` is the
/// ready `400` (shared with the sharded front tier).
pub(crate) fn topk_query(req: &Request) -> Result<(usize, usize), Response> {
    let user = req.query_usize("user").map_err(bad_request)?;
    let k = match req.query.get("k") {
        Some(_) => req.query_usize("k").map_err(bad_request)?,
        None => 10,
    };
    Ok((user, k))
}

/// The `400` for a request the endpoint read but cannot accept.
pub(crate) fn bad_request(message: impl std::fmt::Display) -> Response {
    Response::error(400, &message.to_string())
}

impl Node {
    /// A load-shed answer: `503` + `Retry-After`, counted in `serve.shed`.
    fn shed(&self, message: &str) -> Response {
        counter_add("serve.shed", 1);
        Response::error(503, message).retry_after(self.retry_after)
    }

    /// A missed deadline: `504` + `Retry-After`, counted in
    /// `serve.deadline_exceeded`. The job may still complete behind the
    /// channel; its reply finds the worker's slot moved on and is discarded.
    fn deadline_exceeded(&self, message: &str) -> Response {
        counter_add("serve.deadline_exceeded", 1);
        Response::error(504, message).retry_after(self.retry_after)
    }

    /// Waits out what is left of the request's deadline (its budget started
    /// at `started`, when the request began parsing) for the applier's
    /// reply to the job this worker queued.
    fn await_reply<T>(&self, slot: &ReplySlot<T>, started: Instant) -> Result<T, Response> {
        slot.wait(self.deadline.saturating_sub(started.elapsed()))
            .map_err(|e| match e {
                NoReply::Timeout => self.deadline_exceeded("ingest deadline exceeded"),
                // The applier went away mid-flight (a shutdown race, or it
                // panicked): an overloaded-style answer rather than a hung
                // worker.
                NoReply::Dropped => self.shed("ingest backend stopped"),
            })
    }

    /// `POST /score`: scores the pairs on this worker, under one read
    /// guard — one pinned index version for the whole request.
    fn score(&self, call: &mut Call<'_>) -> Answer {
        let parse_ts = trace_now_us();
        ahntp_faultz::failpoint!("serve.request", |_inj| Err(Response::error(
            500,
            "injected fault in request handling",
        )));
        let pairs = parse_pairs(&call.req.body).map_err(bad_request)?;
        let parsed_us = trace_now_us();
        call.stage("serve.parse", parse_ts, parsed_us);
        // The one wait left before scoring: a live applier's write lock.
        let index = self.index.read();
        let locked_us = trace_now_us();
        call.stage("serve.queue.wait", parsed_us, locked_us);
        histogram_record("serve.score.batch_size", pairs.len() as u64);
        let scores = index.score_pairs(&pairs);
        drop(index);
        call.stage("serve.score", locked_us, trace_now_us());
        let scores = scores.map_err(bad_request)?;
        Ok(Response::new(
            200,
            Json::obj([
                (
                    "scores",
                    Json::Arr(scores.into_iter().map(Json::from).collect()),
                ),
                ("backend", BackendKind::Exact.name().into()),
            ]),
        ))
    }

    /// `POST /events`: parses a trust-event batch, hands it to the applier
    /// thread, and reports what was applied: `affected_users` sums each
    /// applied event's affected users, `refreshed_users` counts the rows
    /// in the batch's one patch (each user once), `dirty_users` what is
    /// left stale. A partial failure (invalid event, armed `stream.*`
    /// failpoint) answers `500` with the applied prefix length; after an
    /// apply failure the index has still caught up with that prefix.
    fn events(&self, call: &mut Call<'_>) -> Answer {
        let started = Instant::now();
        let parse_ts = trace_now_us();
        // Chaos hook: fail ingest before anything reaches the applier.
        ahntp_faultz::failpoint!("serve.ingest", |_inj| Err(Response::error(
            500,
            "injected fault in event ingest",
        )));
        let Some(ingest) = &self.ingest else {
            return Err(Response::error(
                501,
                "this server serves a frozen artifact; start it with serve_live to ingest events",
            ));
        };
        let events = parse_events(call.text()?).map_err(bad_request)?;
        call.stage("serve.parse", parse_ts, trace_now_us());
        let n_events = events.len();
        let slot = INGEST_REPLY.with(Arc::clone);
        let enqueue_ts = trace_now_us();
        if ingest
            .send(IngestJob {
                events,
                trace_id: call.trace_id,
                reply: slot.open(),
            })
            .is_err()
        {
            return Err(self.shed("ingest backend stopped"));
        }
        let enqueued_us = trace_now_us();
        call.stage("serve.enqueue", enqueue_ts, enqueued_us);
        let reply = self.await_reply(&slot, started)?;
        call.stage("serve.ingest.wait", enqueued_us, reply.picked_up_us);
        call.stage("serve.ingest.apply", reply.picked_up_us, reply.done_us);
        let mut entries = vec![
            ("events", Json::from(n_events)),
            ("applied", Json::from(reply.applied)),
            ("affected_users", Json::from(reply.affected)),
            ("refreshed_users", Json::from(reply.refreshed)),
            ("dirty_users", Json::from(reply.dirty)),
        ];
        match reply.error {
            None => Ok(Response::new(200, Json::obj(entries))),
            Some(e) => {
                entries.push(("error", Json::from(e)));
                Err(Response::new(500, Json::obj(entries)))
            }
        }
    }

    /// `POST /admin/swap`: atomically replaces the served snapshot with one
    /// opened (mapped when the frame is v2) from `{"path": "..."}`; the
    /// reply's `mapped` is [`TrustIndex::is_mapped`] of the new index.
    ///
    /// The new index is fully built — mapped/decoded, CRC-checked,
    /// validated, panels laid out, grouped when the serving index is —
    /// *before* the write lock is taken,
    /// so in-flight requests keep scoring the old snapshot throughout and a
    /// crash anywhere before the final swap leaves the old snapshot
    /// serving. Refusals are typed: `409` when the offered snapshot's
    /// fingerprint or shape disagrees with the serving one, `422` when the
    /// file is torn or corrupt (CRC/offsets-table failures surface here as
    /// errors, never panics), `500` when the `shard.swap` failpoint injects
    /// a fault.
    fn swap(&self, call: &mut Call<'_>) -> Answer {
        ahntp_faultz::failpoint!("shard.swap", |_inj| Err(Response::error(
            500,
            "injected fault in snapshot swap",
        )));
        let doc = parse(call.text()?).map_err(|e| bad_request(format!("body is not JSON: {e}")))?;
        let path = doc
            .get("path")
            .and_then(Json::as_str)
            .ok_or_else(|| bad_request("body must be {\"path\": \"...\"}"))?;
        // Build outside the lock: the expensive part of the swap happens
        // while the old snapshot keeps serving.
        let new = TrustIndex::open(path).map_err(|e| {
            counter_add("serve.swap.errors", 1);
            Response::error(422, &format!("snapshot {path:?} unusable: {e}"))
        })?;
        let summary = Json::obj([
            ("swapped", true.into()),
            ("path", path.into()),
            ("fingerprint", format!("{:016x}", new.fingerprint()).into()),
            ("n_users", new.n_users().into()),
            ("mapped", new.is_mapped().into()),
            ("backend", new.backend_name().into()),
        ]);
        self.index.swap(new).map_err(|e| {
            counter_add("serve.swap.refused", 1);
            Response::error(409, &e.to_string())
        })?;
        info!("serve", "snapshot swapped in from {path:?}");
        Ok(Response::new(200, summary))
    }

    /// `GET /topk`: the first one groups the index
    /// ([`SharedIndex::read_grouped`]); each scores under one read guard.
    fn topk(&self, call: &mut Call<'_>) -> Answer {
        let (user, k) = topk_query(call.req)?;
        let index = self.index.read_grouped();
        // A shard scans only its owned trustee range (same arithmetic, so
        // a front-tier merge reproduces the single-node scan bitwise).
        let top = match self.shard_range {
            Some((lo, hi)) => index.top_k_trustees_in(user, k, lo, hi),
            None => index.top_k_trustees(user, k),
        }
        .map_err(bad_request)?;
        let trustees = top
            .into_iter()
            .map(|(v, s)| Json::obj([("user", v.into()), ("score", s.into())]))
            .collect();
        Ok(Response::new(
            200,
            Json::obj([
                ("user", user.into()),
                ("trustees", Json::Arr(trustees)),
                ("backend", index.backend_name().into()),
            ]),
        ))
    }

    /// `GET /healthz` never touches the applier: liveness probes keep
    /// working while ingest is shedding or stalled.
    fn healthz(&self, _call: &mut Call<'_>) -> Answer {
        let index = self.index.read();
        let mut entries = vec![
            ("status", Json::from("ok")),
            ("model", index.model().into()),
            ("n_users", index.n_users().into()),
            // Hex string: u64 fingerprints don't fit in JSON's f64.
            (
                "fingerprint",
                format!("{:016x}", index.fingerprint()).into(),
            ),
            // Whether this server ingests live trust events.
            ("live", self.ingest.is_some().into()),
            ("backend", index.backend_name().into()),
            // Whether the embeddings and trustor head are still zero-copy
            // views of the mapped file (`TrustIndex::is_mapped`).
            ("mapped", index.is_mapped().into()),
            // Whether served scores are Sybil-defense blended.
            ("defended", index.defended().into()),
        ];
        if let Some(defense) = index.defense() {
            entries.push(("defense_alpha", defense.alpha().into()));
        }
        // Shard servers advertise their owned trustee range so a front
        // tier can discover the cluster layout from /healthz.
        if let Some((lo, hi)) = self.shard_range {
            entries.push(("shard_lo", lo.into()));
            entries.push(("shard_hi", hi.into()));
        }
        Ok(Response::new(200, Json::obj(entries)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{self, Client};
    use crate::server::dispatch;
    use crate::trace_ring::TraceRing;
    use ahntp_nn::TrustArtifact;
    use std::collections::BTreeMap;

    fn toy_index(n_users: usize) -> TrustIndex {
        // Unit rows at distinct angles around the circle.
        let row = |i: usize| {
            let a = i as f32 * 0.7;
            vec![a.cos(), a.sin()]
        };
        let artifact = TrustArtifact {
            model: "AHNTP".to_string(),
            fingerprint: 0xfeed_beef_0000_0001,
            calibration: 0.5,
            n_users,
            emb_dim: 2,
            head_dim: 2,
            embeddings: vec![0.0; n_users * 2].into(),
            trustor_head: (0..n_users).flat_map(row).collect(),
            trustee_head: (0..n_users).rev().flat_map(row).collect(),
        };
        TrustIndex::from_artifact(artifact).unwrap()
    }

    /// Runs a test body under a context of its own, so the counters it reads
    /// — its own and those of any server it starts — count from zero.
    fn isolated<R>(body: impl FnOnce() -> R) -> R {
        Context::fresh().run(body)
    }

    fn start(n_users: usize) -> ServerHandle {
        ahntp_telemetry::set_enabled(true);
        serve(
            toy_index(n_users),
            &ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
        )
        .expect("bind 127.0.0.1:0")
    }

    const TIMEOUT: Duration = Duration::from_secs(10);

    fn connect(addr: SocketAddr) -> Client {
        Client::connect(addr, TIMEOUT).unwrap()
    }

    fn get(addr: SocketAddr, target: &str) -> (u16, String) {
        let r = connect(addr).get(target).unwrap();
        (r.status, r.body)
    }

    fn post_score(addr: SocketAddr, body: &str) -> (u16, String) {
        let r = connect(addr).post("/score", body).unwrap();
        (r.status, r.body)
    }

    fn score_body(pairs: &[(usize, usize)]) -> String {
        let pairs = pairs
            .iter()
            .map(|&(u, v)| Json::Arr(vec![u.into(), v.into()]));
        Json::obj([("pairs", Json::Arr(pairs.collect()))]).to_line()
    }

    /// The `/score` body a correct server answers for `pairs`.
    fn expected_score_body(index: &TrustIndex, pairs: &[(usize, usize)]) -> String {
        let scores = index.score_pairs(pairs).unwrap();
        Json::obj([
            (
                "scores",
                Json::Arr(scores.into_iter().map(Json::from).collect()),
            ),
            ("backend", index.backend_name().into()),
        ])
        .to_line()
    }

    fn histogram(name: &str) -> ahntp_telemetry::HistogramSummary {
        match ahntp_telemetry::metrics_snapshot().get(name) {
            Some(ahntp_telemetry::MetricValue::Histogram(summary)) => *summary,
            other => panic!("{name} is not a histogram: {other:?}"),
        }
    }

    #[test]
    fn score_endpoint_matches_the_index() {
        let server = start(6);
        let addr = server.addr();
        let index = toy_index(6);
        let (status, body) = post_score(addr, r#"{"pairs":[[0,1],[2,5],[3,3]]}"#);
        assert_eq!(status, 200, "{body}");
        let doc = parse(&body).unwrap();
        let Some(Json::Arr(scores)) = doc.get("scores") else {
            panic!("no scores in {body}");
        };
        let expected = index.score_pairs(&[(0, 1), (2, 5), (3, 3)]).unwrap();
        assert_eq!(scores.len(), expected.len());
        for (got, want) in scores.iter().zip(&expected) {
            let got = got.as_f64().unwrap();
            assert!((got - f64::from(*want)).abs() < 1e-6, "{got} vs {want}");
        }
        server.shutdown();
    }

    #[test]
    fn bad_requests_get_typed_errors() {
        let server = start(4);
        let addr = server.addr();
        let (status, body) = post_score(addr, "not json at all");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("JSON"), "{body}");
        let (status, body) = post_score(addr, r#"{"pairs":[[0,99]]}"#);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("out of range"), "{body}");
        let (status, _) = post_score(addr, r#"{"pairs":[[0,-1]]}"#);
        assert_eq!(status, 400);
        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);
        let wrong_method = connect(addr).send(b"PUT /score HTTP/1.1\r\n\r\n");
        assert_eq!(wrong_method.unwrap().status, 405);
        server.shutdown();
    }

    #[test]
    fn topk_healthz_and_metrics_respond() {
        isolated(topk_healthz_and_metrics);
    }

    fn topk_healthz_and_metrics() {
        let server = start(5);
        let addr = server.addr();
        let (status, body) = get(addr, "/topk?user=0&k=3");
        assert_eq!(status, 200, "{body}");
        let doc = parse(&body).unwrap();
        let Some(Json::Arr(trustees)) = doc.get("trustees") else {
            panic!("no trustees in {body}");
        };
        assert_eq!(trustees.len(), 3);
        let expected = toy_index(5).top_k_trustees(0, 3).unwrap();
        for (item, (user, _)) in trustees.iter().zip(&expected) {
            assert_eq!(item.get("user").and_then(Json::as_f64), Some(*user as f64));
        }

        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        let doc = parse(&body).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(doc.get("n_users").and_then(Json::as_f64), Some(5.0));
        assert_eq!(
            doc.get("fingerprint").and_then(Json::as_str),
            Some("feedbeef00000001")
        );

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        let doc = parse(&body).unwrap();
        // Exactly the requests this server has read: the two above and
        // the one being answered.
        assert_eq!(
            doc.get("serve.http.requests").and_then(Json::as_f64),
            Some(3.0),
            "{body}"
        );
        assert_eq!(doc.get("serve.http.errors"), None, "{body}");
        server.shutdown();
    }

    /// `k` reaches the scan unchecked from the query string; a `k` no
    /// heap could be allocated for answers every candidate, and the
    /// server goes on answering.
    #[test]
    fn a_huge_k_answers_every_candidate_and_the_server_lives_on() {
        let server = start(5);
        let addr = server.addr();
        let (status, body) = get(addr, "/topk?user=0&k=100000000000");
        assert_eq!(status, 200, "{body}");
        let doc = parse(&body).unwrap();
        let Some(Json::Arr(trustees)) = doc.get("trustees") else {
            panic!("no trustees in {body}");
        };
        assert_eq!(trustees.len(), 4, "{body}");
        assert_eq!(get(addr, "/healthz").0, 200);
        server.shutdown();
    }

    #[test]
    fn keep_alive_serves_multiple_requests_per_connection() {
        let server = start(4);
        let mut conn = connect(server.addr());
        for _ in 0..3 {
            assert_eq!(conn.get("/healthz").unwrap().status, 200);
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_completes_inflight_requests() {
        let server = start(8);
        let addr = server.addr();
        // Hammer the server from several client threads while the main
        // thread shuts it down; every exchange must either complete with
        // 200/503 or fail at the socket level — never hang or panic.
        let clients: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut completed = 0usize;
                    for _ in 0..20 {
                        let body = r#"{"pairs":[[0,1],[2,3],[4,5]]}"#;
                        // Listener already closed, or the connection was
                        // accepted but never served.
                        let exchange =
                            Client::connect(addr, TIMEOUT).and_then(|mut c| c.post("/score", body));
                        let Ok(response) = exchange else {
                            break;
                        };
                        assert!(
                            response.status == 200 || response.status == 503,
                            "unexpected response: {response:?}"
                        );
                        if response.status == 200 {
                            completed += 1;
                        }
                    }
                    completed
                })
            })
            .collect();
        // Let the clients get going, then pull the plug.
        std::thread::sleep(Duration::from_millis(30));
        server.shutdown();
        let total: usize = clients.into_iter().map(|c| c.join().unwrap()).sum();
        assert!(total > 0, "no request completed before shutdown");
    }

    #[test]
    fn a_reply_slot_discards_what_settles_outside_its_request() {
        let slot = Arc::<ReplySlot<u32>>::default();
        // A reply that lands while the worker waits for its next request.
        let late = slot.open();
        assert_eq!(slot.wait(Duration::ZERO), Err(NoReply::Timeout));
        let next = slot.open();
        late.send(1);
        next.send(2);
        assert_eq!(slot.wait(Duration::ZERO), Ok(2));
        // One that lands between two requests.
        let late = slot.open();
        assert_eq!(slot.wait(Duration::ZERO), Err(NoReply::Timeout));
        late.send(3);
        let next = slot.open();
        assert_eq!(slot.wait(Duration::ZERO), Err(NoReply::Timeout));
        drop(next);
        // A job dropped unanswered wakes its worker at once.
        let dropped = slot.open();
        let dropper = std::thread::spawn(move || drop(dropped));
        assert_eq!(slot.wait(TIMEOUT), Err(NoReply::Dropped));
        dropper.join().unwrap();
    }

    /// Every `/score` is one scoring call of its own pairs, and with no
    /// applier writing, the read guard it waits for is free: a median wait
    /// under a millisecond is far above an uncontended lock.
    #[test]
    fn an_idle_batcher_dispatches_each_request_alone_and_at_once() {
        isolated(|| {
            let server = start(8);
            let index = toy_index(8);
            let mut conn = connect(server.addr());
            for i in 0..100 {
                let pairs = [(i % 8, 3), (5, i % 7)];
                let scored = conn.post("/score", &score_body(&pairs)).unwrap();
                assert_eq!(scored.status, 200, "{}", scored.body);
                assert_eq!(scored.body, expected_score_body(&index, &pairs));
            }
            let batches = histogram("serve.score.batch_size");
            assert_eq!((batches.count, batches.min, batches.max), (100, 2, 2));
            // On the same connection: its worker records a request in the
            // ring only after writing the answer, so another worker could
            // read the ring before the last `/score` is in it.
            let doc = parse(&conn.get("/debug/traces").unwrap().body).unwrap();
            let Some(Json::Arr(traces)) = doc.get("traces") else {
                panic!("no traces in {}", doc.to_line());
            };
            let mut waits: Vec<f64> = traces
                .iter()
                .filter_map(|t| match t.get("stages") {
                    Some(Json::Arr(stages)) => stages
                        .iter()
                        .find(|s| s.get("name").and_then(Json::as_str) == Some("serve.queue.wait")),
                    _ => None,
                })
                .map(|s| s.get("dur_us").and_then(Json::as_f64).unwrap())
                .collect();
            assert_eq!(waits.len(), 100);
            waits.sort_by(f64::total_cmp);
            assert!(waits[50] < 1000.0, "median queue wait {} us", waits[50]);
            server.shutdown();
        });
    }

    #[test]
    fn a_job_dropped_unanswered_sheds_well_before_the_deadline() {
        isolated(|| {
            ahntp_telemetry::set_enabled(true);
            // No applier: the only thing that can end the wait early is the
            // job's drop.
            let (ingest, jobs) = mpsc::channel();
            let node = bare_node(4, Some(ingest), 10_000, 2);
            let dropper = std::thread::spawn(move || drop(jobs.recv()));
            let started = Instant::now();
            let resp = dispatch(
                &node,
                &TraceRing::new(4),
                &mut Call::new(&events_request(), 1),
            );
            dropper.join().unwrap();
            assert_eq!(resp.status, 503, "{}", resp.body.to_line());
            assert_eq!(resp.body.to_line(), r#"{"error":"ingest backend stopped"}"#);
            assert_eq!(resp.retry_after, Some(2));
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "waited {:?}",
                started.elapsed()
            );
            let counts =
                ["serve.shed", "serve.deadline_exceeded"].map(ahntp_telemetry::counter_get);
            assert_eq!(counts, [1, 0]);
        });
    }

    #[test]
    fn a_failpoint_faults_only_the_server_its_arming_thread_started() {
        use ahntp_faultz::{scoped, Action, FaultSpec};
        let score = |server: &ServerHandle| post_score(server.addr(), r#"{"pairs":[[0,1]]}"#).0;
        let (armed_tx, armed_rx) = mpsc::channel();
        let (probed_tx, probed_rx) = mpsc::channel::<()>();
        let arming = std::thread::spawn(move || {
            let server = start(4);
            // Armed after the workers spawned: they share the scope, not a copy.
            let _fault = scoped("serve.request", FaultSpec::new(Action::Err));
            armed_tx.send(()).unwrap();
            let status = score(&server);
            let _ = probed_rx.recv(); // stay armed until the sibling has probed
            server.shutdown();
            status
        });
        let server = start(4);
        armed_rx.recv().expect("arming thread died");
        assert_eq!(
            score(&server),
            200,
            "faulted by a sibling thread's failpoint"
        );
        drop(probed_tx);
        assert_eq!(
            arming.join().unwrap(),
            500,
            "the arming thread's own server"
        );
        server.shutdown();
    }

    fn request(method: &str, path: &str, body: &[u8]) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query: BTreeMap::new(),
            headers: BTreeMap::new(),
            body: body.to_vec(),
        }
    }

    fn events_request() -> Request {
        request(
            "POST",
            "/events",
            br#"{"events":[{"op":"decay","factor":0.9}]}"#,
        )
    }

    /// A node with no core behind it, and no applier behind `ingest`: the
    /// test holds (or drops) the receiving end.
    fn bare_node(
        n_users: usize,
        ingest: Option<mpsc::Sender<IngestJob>>,
        deadline_ms: u64,
        retry_after_s: u64,
    ) -> Node {
        Node {
            index: Arc::new(SharedIndex::new(toy_index(n_users))),
            ingest,
            deadline: Duration::from_millis(deadline_ms),
            retry_after: Duration::from_secs(retry_after_s),
            shard_range: None,
        }
    }

    #[test]
    fn deadline_and_shed_responses_carry_retry_after() {
        isolated(deadline_then_shed);
    }

    fn deadline_then_shed() {
        ahntp_telemetry::set_enabled(true);
        let counts = || ["serve.deadline_exceeded", "serve.shed"].map(ahntp_telemetry::counter_get);
        // An ingest channel nobody answers: the first batch is accepted but
        // never answered (deadline path); once the receiving end is gone,
        // the second is shed.
        let (ingest, jobs) = mpsc::channel();
        let node = bare_node(4, Some(ingest), 20, 2);
        let traces = TraceRing::new(4);
        let resp = dispatch(&node, &traces, &mut Call::new(&events_request(), 1));
        assert_eq!(resp.status, 504, "{}", resp.body.to_line());
        assert_eq!(resp.retry_after, Some(2));
        assert_eq!(counts(), [1, 0]);
        drop(jobs);
        let resp = dispatch(&node, &traces, &mut Call::new(&events_request(), 2));
        assert_eq!(resp.status, 503, "{}", resp.body.to_line());
        assert_eq!(resp.retry_after, Some(2));
        assert_eq!(counts(), [1, 1]);
    }

    #[test]
    fn healthz_bypasses_the_scoring_queue() {
        let (ingest, jobs) = mpsc::channel();
        drop(jobs); // ingest is completely dead...
        let node = bare_node(3, Some(ingest), 5, 1);
        let traces = TraceRing::new(4);
        let resp = dispatch(
            &node,
            &traces,
            &mut Call::new(&request("GET", "/healthz", b""), 1),
        );
        assert_eq!(resp.status, 200, "...but liveness still answers");
        // While /events correctly sheds.
        let resp = dispatch(&node, &traces, &mut Call::new(&events_request(), 2));
        assert_eq!(resp.status, 503);
        assert_eq!(resp.retry_after, Some(1));
    }

    #[test]
    fn every_response_carries_a_trace_id_recorded_in_the_debug_ring() {
        let server = start(4);
        let addr = server.addr();
        let body = r#"{"pairs":[[0,1]]}"#;
        let scored = connect(addr).post("/score", body).unwrap();
        assert_eq!(scored.status, 200);
        let trace_id = scored
            .headers
            .get("x-ahntp-trace-id")
            .cloned()
            .expect("X-Ahntp-Trace-Id header on every response");
        assert_eq!(trace_id.len(), 16, "hex wire format: {trace_id}");
        assert!(trace_id.chars().all(|c| c.is_ascii_hexdigit()));

        // The ring remembers the request, with its stage breakdown.
        let (status, body) = get(addr, "/debug/traces");
        assert_eq!(status, 200);
        let doc = parse(&body).unwrap();
        let Some(Json::Arr(traces)) = doc.get("traces") else {
            panic!("no traces in {body}");
        };
        let scored = traces
            .iter()
            .find(|t| t.get("path").and_then(Json::as_str) == Some("/score"))
            .expect("the /score request is in the ring");
        assert_eq!(
            scored.get("trace_id").and_then(Json::as_str),
            Some(trace_id.as_str())
        );
        let Some(Json::Arr(stages)) = scored.get("stages") else {
            panic!("no stages in {}", scored.to_line());
        };
        let names: Vec<_> = stages
            .iter()
            .filter_map(|s| s.get("name").and_then(Json::as_str).map(str::to_string))
            .collect();
        for want in ["serve.parse", "serve.queue.wait", "serve.score"] {
            assert!(
                names.iter().any(|n| n == want),
                "missing {want} in {names:?}"
            );
        }
        server.shutdown();
    }

    #[test]
    fn unrouted_requests_are_recorded_verbatim() {
        let server = start(4);
        let addr = server.addr();
        assert_eq!(
            connect(addr)
                .send(b"PUT /score HTTP/1.1\r\n\r\n")
                .unwrap()
                .status,
            405
        );
        assert_eq!(get(addr, "/nope").0, 404);
        let doc = parse(&get(addr, "/debug/traces").1).unwrap();
        let Some(Json::Arr(traces)) = doc.get("traces") else {
            panic!("no traces in {}", doc.to_line());
        };
        let recorded: Vec<_> = traces
            .iter()
            .map(|t| {
                let text = |key| t.get(key).and_then(Json::as_str).unwrap();
                (
                    text("method"),
                    text("path"),
                    t.get("status").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        assert_eq!(
            recorded,
            [("PUT", "/score", 405.0), ("GET", "/nope", 404.0)]
        );
        server.shutdown();
    }

    /// The backend is named on the wire: a `backend` JSON field on
    /// `/score`, `/topk` and `/healthz`, always `exact`.
    #[test]
    fn responses_carry_the_active_backend() {
        let server = start(6);
        let addr = server.addr();
        let (status, body) = post_score(addr, r#"{"pairs":[[0,1]]}"#);
        assert_eq!(status, 200, "{body}");
        for (path, body) in [
            ("/score", body),
            ("/topk", get(addr, "/topk?user=0&k=2").1),
            ("/healthz", get(addr, "/healthz").1),
        ] {
            let doc = parse(&body).unwrap();
            assert_eq!(
                doc.get("backend").and_then(Json::as_str),
                Some("exact"),
                "{path}: {body}"
            );
        }
        server.shutdown();
    }

    #[test]
    fn prometheus_and_debug_trace_endpoints_respond() {
        let server = start(4);
        let addr = server.addr();
        let client::Response {
            status,
            headers,
            body,
        } = connect(addr).get("/metrics?format=prometheus").unwrap();
        assert_eq!(status, 200, "{body}");
        let ct = headers.get("content-type").unwrap();
        assert!(ct.starts_with("text/plain"), "{ct}");
        assert!(
            body.contains("# TYPE serve_http_requests counter"),
            "{body}"
        );
        let (status, body) = get(addr, "/metrics?format=msgpack");
        assert_eq!(status, 400, "{body}");

        // /debug/trace.json always parses, even with collection off.
        let (status, body) = get(addr, "/debug/trace.json");
        assert_eq!(status, 200);
        let doc = parse(&body).unwrap();
        assert!(doc.get("traceEvents").is_some(), "{body}");
        server.shutdown();
    }

    use ahntp_hypergraph::HypergraphError;
    use ahntp_stream::{AppliedEvent, HeadPatch};

    /// Minimal live model: each user is an angle; adding an edge rotates
    /// its members by the edge weight. Weight-only events affect nobody,
    /// matching the real model's semantics.
    struct ToyLive {
        angles: Vec<f32>,
    }

    impl ToyLive {
        fn new(n: usize) -> ToyLive {
            ToyLive {
                angles: (0..n).map(|u| u as f32 * 0.9).collect(),
            }
        }

        fn rows(&self, users: &[usize]) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
            let emb = users.iter().flat_map(|&u| [self.angles[u], 1.0]).collect();
            let trustor = users
                .iter()
                .flat_map(|&u| [self.angles[u].cos(), self.angles[u].sin()])
                .collect();
            let trustee = users
                .iter()
                .flat_map(|&u| [(self.angles[u] + 0.5).cos(), (self.angles[u] + 0.5).sin()])
                .collect();
            (emb, trustor, trustee)
        }
    }

    impl LiveTrustModel for ToyLive {
        fn n_users(&self) -> usize {
            self.angles.len()
        }

        fn apply_event(
            &mut self,
            event: &TrustEvent,
        ) -> Result<AppliedEvent, ahntp_stream::StreamError> {
            match event {
                TrustEvent::AddEdge {
                    members, weight, ..
                } => {
                    let n = self.angles.len();
                    if let Some(&v) = members.iter().find(|&&m| m >= n) {
                        return Err(HypergraphError::VertexOutOfRange { vertex: v, n }.into());
                    }
                    let mut affected: Vec<usize> = members.clone();
                    affected.sort_unstable();
                    affected.dedup();
                    for &m in &affected {
                        self.angles[m] += weight;
                    }
                    Ok(AppliedEvent {
                        affected_users: affected,
                    })
                }
                // Weight-only semantics: heads stay exact.
                _ => Ok(AppliedEvent::default()),
            }
        }

        fn refresh_heads(&self, users: &[usize]) -> HeadPatch {
            let (emb_rows, trustor_rows, trustee_rows) = self.rows(users);
            HeadPatch {
                users: users.to_vec(),
                emb_dim: 2,
                head_dim: 2,
                emb_rows,
                trustor_rows,
                trustee_rows,
            }
        }

        fn export_artifact(&self) -> TrustArtifact {
            let all: Vec<usize> = (0..self.angles.len()).collect();
            let (embeddings, trustor_head, trustee_head) = self.rows(&all);
            TrustArtifact {
                model: "TOY-LIVE".to_string(),
                fingerprint: 0x70f0_0000_0000_0001,
                calibration: 0.5,
                n_users: self.angles.len(),
                emb_dim: 2,
                head_dim: 2,
                embeddings: embeddings.into(),
                trustor_head: trustor_head.into(),
                trustee_head: trustee_head.into(),
            }
        }

        fn rebuild_artifact(&self) -> TrustArtifact {
            self.export_artifact()
        }
    }

    fn post_events(addr: SocketAddr, body: &str) -> (u16, String) {
        let r = connect(addr).post("/events", body).unwrap();
        (r.status, r.body)
    }

    #[test]
    fn live_server_ingests_events_and_scores_from_the_patched_index() {
        ahntp_telemetry::set_enabled(true);
        let server = serve_live(
            || Box::new(ToyLive::new(5)),
            StalenessBound::immediate(),
            &ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
        )
        .expect("bind live server");
        let addr = server.addr();

        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        let doc = parse(&body).unwrap();
        assert_eq!(doc.get("live"), Some(&Json::Bool(true)), "{body}");

        let (status, body) = post_events(
            addr,
            r#"{"events":[{"op":"add","group":"node","members":[0,2],"weight":0.7}]}"#,
        );
        assert_eq!(status, 200, "{body}");
        let doc = parse(&body).unwrap();
        assert_eq!(
            doc.get("applied").and_then(Json::as_f64),
            Some(1.0),
            "{body}"
        );
        assert_eq!(doc.get("affected_users").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.get("refreshed_users").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.get("dirty_users").and_then(Json::as_f64), Some(0.0));

        // The live index now answers with the mutated geometry: mirror
        // the event on a local model and compare.
        let mut mirror = ToyLive::new(5);
        mirror
            .apply_event(&TrustEvent::AddEdge {
                group: ahntp_stream::HyperGroup::Node,
                members: vec![0, 2],
                weight: 0.7,
            })
            .unwrap();
        let want = TrustIndex::from_artifact(mirror.export_artifact())
            .unwrap()
            .score_pairs(&[(0, 2), (2, 4), (1, 1)])
            .unwrap();
        let (status, body) = post_score(addr, r#"{"pairs":[[0,2],[2,4],[1,1]]}"#);
        assert_eq!(status, 200, "{body}");
        let doc = parse(&body).unwrap();
        let Some(Json::Arr(scores)) = doc.get("scores") else {
            panic!("no scores in {body}");
        };
        for (got, want) in scores.iter().zip(&want) {
            let got = got.as_f64().unwrap();
            assert!((got - f64::from(*want)).abs() < 1e-6, "{got} vs {want}");
        }

        // A malformed body is rejected before it reaches the applier.
        let (status, body) = post_events(addr, r#"{"events":[{"op":"levitate"}]}"#);
        assert_eq!(status, 400, "{body}");

        // An invalid event mid-batch: the prefix lands, the offender is
        // reported, and nothing after it applies.
        let (status, body) = post_events(
            addr,
            r#"{"events":[
                {"op":"add","group":"node","members":[1],"weight":0.1},
                {"op":"add","group":"node","members":[0,9],"weight":1.0},
                {"op":"add","group":"node","members":[3],"weight":9.9}
            ]}"#,
        );
        assert_eq!(status, 500, "{body}");
        let doc = parse(&body).unwrap();
        assert_eq!(
            doc.get("applied").and_then(Json::as_f64),
            Some(1.0),
            "{body}"
        );
        assert!(
            doc.get("error")
                .and_then(Json::as_str)
                .unwrap_or("")
                .contains("out of range"),
            "{body}"
        );
        // The mirror applies the same prefix; scores still agree.
        mirror
            .apply_event(&TrustEvent::AddEdge {
                group: ahntp_stream::HyperGroup::Node,
                members: vec![1],
                weight: 0.1,
            })
            .unwrap();
        let want = TrustIndex::from_artifact(mirror.export_artifact())
            .unwrap()
            .score(1, 3)
            .unwrap();
        let (status, body) = post_score(addr, r#"{"pairs":[[1,3]]}"#);
        assert_eq!(status, 200, "{body}");
        let got = parse(&body)
            .unwrap()
            .get("scores")
            .and_then(|s| match s {
                Json::Arr(a) => a[0].as_f64(),
                _ => None,
            })
            .unwrap();
        assert!((got - f64::from(want)).abs() < 1e-6, "{got} vs {want}");
        server.shutdown();
    }

    /// Grouping is paid by the first `/topk` alone: a server that has
    /// answered only `/score` and `/events` never groups, and the first
    /// `/topk` groups once for every later one.
    #[test]
    fn only_a_topk_groups_the_index() {
        isolated(|| {
            ahntp_telemetry::set_enabled(true);
            let server = serve_live(
                || Box::new(ToyLive::new(1000)),
                StalenessBound::immediate(),
                &ServeConfig {
                    workers: 2,
                    ..ServeConfig::default()
                },
            )
            .expect("bind live server");
            let addr = server.addr();
            let groupings = || {
                let (_, body) = get(addr, "/metrics");
                let doc = parse(&body).unwrap();
                doc.get("serve.index.groupings")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            assert_eq!(post_score(addr, &score_body(&[(0, 1), (2, 999)])).0, 200);
            let (status, body) = post_events(
                addr,
                r#"{"events":[{"op":"add","group":"node","members":[0,2],"weight":0.7}]}"#,
            );
            assert_eq!(status, 200, "{body}");
            assert_eq!(post_score(addr, &score_body(&[(0, 2)])).0, 200);
            assert_eq!(groupings(), 0.0);
            for user in [0, 500] {
                assert_eq!(get(addr, &format!("/topk?user={user}&k=3")).0, 200);
            }
            assert_eq!(groupings(), 1.0);
            server.shutdown();
        });
    }

    #[test]
    fn a_batched_staleness_bound_defers_refreshes_until_exceeded() {
        ahntp_telemetry::set_enabled(true);
        let server = serve_live(
            || Box::new(ToyLive::new(4)),
            StalenessBound::batched(2),
            &ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        )
        .expect("bind live server");
        let addr = server.addr();
        // Two events stay under the bound: applied but not refreshed.
        let (status, body) = post_events(
            addr,
            r#"{"events":[
                {"op":"add","group":"node","members":[0],"weight":0.3},
                {"op":"add","group":"node","members":[1],"weight":0.3}
            ]}"#,
        );
        assert_eq!(status, 200, "{body}");
        let doc = parse(&body).unwrap();
        assert_eq!(
            doc.get("refreshed_users").and_then(Json::as_f64),
            Some(0.0),
            "{body}"
        );
        assert_eq!(doc.get("dirty_users").and_then(Json::as_f64), Some(2.0));
        // The third event exceeds max_pending_events = 2: everything
        // dirty refreshes in one patch.
        let (status, body) = post_events(
            addr,
            r#"{"events":[{"op":"add","group":"node","members":[2],"weight":0.3}]}"#,
        );
        assert_eq!(status, 200, "{body}");
        let doc = parse(&body).unwrap();
        assert_eq!(
            doc.get("refreshed_users").and_then(Json::as_f64),
            Some(3.0),
            "{body}"
        );
        assert_eq!(doc.get("dirty_users").and_then(Json::as_f64), Some(0.0));
        server.shutdown();
    }

    /// The applier's late reply to a timed-out batch lands while the same
    /// worker — same connection, same reply slot — waits for its next
    /// batch, which must still get its own answer.
    #[test]
    fn a_late_ingest_reply_never_answers_the_next_request() {
        use ahntp_faultz::{scoped, Action, FaultSpec};
        isolated(|| {
            ahntp_telemetry::set_enabled(true);
            let server = serve_live(
                || Box::new(ToyLive::new(5)),
                StalenessBound::immediate(),
                &ServeConfig {
                    workers: 2,
                    deadline: Duration::from_millis(400),
                    ..ServeConfig::default()
                },
            )
            .expect("bind live server");
            let _fault = scoped("stream.apply", FaultSpec::new(Action::Delay(600)).on_nth(1));
            let mut conn = connect(server.addr());
            let first = conn
                .post(
                    "/events",
                    r#"{"events":[{"op":"add","group":"node","members":[0,2],"weight":0.7}]}"#,
                )
                .unwrap();
            assert_eq!(first.status, 504, "{}", first.body);
            let second = conn
                .post(
                    "/events",
                    r#"{"events":[
                        {"op":"add","group":"node","members":[1],"weight":0.1},
                        {"op":"add","group":"node","members":[3,4],"weight":0.2}
                    ]}"#,
                )
                .unwrap();
            assert_eq!(second.status, 200, "{}", second.body);
            assert_eq!(
                second.body,
                r#"{"affected_users":3,"applied":2,"dirty_users":0,"events":2,"refreshed_users":3}"#
            );
            assert_eq!(ahntp_telemetry::counter_get("serve.deadline_exceeded"), 1);
            server.shutdown();
        });
    }

    #[test]
    fn events_on_a_frozen_server_answer_501() {
        let server = start(4);
        let addr = server.addr();
        let (status, body) = post_events(addr, r#"{"events":[{"op":"decay","factor":0.9}]}"#);
        assert_eq!(status, 501, "{body}");
        assert!(body.contains("serve_live"), "{body}");
        let (status, _) = get(addr, "/events");
        assert_eq!(status, 405);
        // And the frozen health check says so.
        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        assert_eq!(
            parse(&body).unwrap().get("live"),
            Some(&Json::Bool(false)),
            "{body}"
        );
        server.shutdown();
    }
}
