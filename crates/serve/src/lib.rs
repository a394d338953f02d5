//! Trust-inference serving stack for the AHNTP reproduction.
//!
//! Training (the `ahntp` crate) produces a model whose forward pass needs
//! hypergraph convolutions; answering "does u trust v?" online does not.
//! This crate is the online half:
//!
//! * [`TrustIndex`] — loads an `AHNTPSRV1` artifact (exported by
//!   `ahntp::Ahntp::export_artifact`, format in `ahntp_nn::artifact`) and
//!   scores pairs with one `O(d)` dot product per query. Head rows are
//!   L2-normalised at export, so the dot *is* the cosine of Eq. 19;
//!   [`TrustIndex::top_k_trustees`] ranks candidates with a bounded heap
//!   over one scan of the trustee head, which the index holds once, in
//!   16-user panels.
//! * One server core (module `server`) — a zero-dependency HTTP/1.1
//!   server on `std::net::TcpListener`: a fixed worker pool, one
//!   keep-alive connection loop, the observability surface below, and
//!   cooperative graceful shutdown that finishes in-flight requests. A
//!   crate-private request handler with two implementations (node, front)
//!   parameterises it; the three entry points are thin constructors.
//! * [`serve`] — the node handler over a frozen index: a bounded queue
//!   in front of one batcher thread, which takes whatever `POST /score`
//!   requests are queued the moment it is free — a lone request is scored
//!   at once, a backlog coalesces into one batch — and never waits on a
//!   timer. Endpoints: `POST /score`, `GET /topk`,
//!   `GET /healthz`, `GET /metrics` (all JSON, via
//!   `ahntp_telemetry::json`).
//! * [`serve_live`] — the same node bound to a mutable
//!   [`ahntp_stream::LiveTrustModel`]: `POST /events` ingests trust
//!   events (add/remove/reweight/decay hyperedges), a dedicated applier
//!   thread folds each batch into the model's hypergraphs, and the
//!   batch's one refresh is patched into the [`SharedIndex`] under a
//!   short write lock — `/score` and `/topk` answer from the live index
//!   throughout. The `ahntp_stream::StalenessBound`, checked once per
//!   batch, decides how much staleness may accumulate between refreshes;
//!   the default refreshes after every batch, keeping the index exact.
//! * [`serve_sharded`] — the front handler: a scatter-gather tier over
//!   shard servers that each own a contiguous trustee id range
//!   ([`ServeConfig::shard_range`]): `/score` requests are re-grouped by
//!   owning shard, `/topk` fans out to every shard and merges the
//!   per-shard heaps under the documented (score desc, id asc) order —
//!   bitwise identical to the single-node exact scan. `POST /admin/swap`
//!   (on shards and the front) hot-swaps a new artifact snapshot behind
//!   the [`SharedIndex`] write lock with zero dropped requests, refusing
//!   fingerprint or shape mismatches with `409`; v2 artifacts are mapped
//!   ([`TrustIndex::open`]), so a shard (re)start serves the embeddings
//!   and trustor head zero-copy and copies only the trustee head, into
//!   its panels, instead of parsing.
//! * [`client`] — the one blocking HTTP/1.1 client (timeouts, capped
//!   response head and body): what the front calls its shards with, and
//!   what the load generator, benches, example and tests drive servers
//!   with.
//!
//! Request latency (`serve.request.us`), batch sizes
//! (`serve.score.batch_size`), queue depth (`serve.queue.depth`) and
//! request/error counters land in the `ahntp_telemetry` metrics registry,
//! so `GET /metrics` and the training run ledger share one vocabulary.
//!
//! # Observability
//!
//! All of this is the server core's, so the front has it too, under
//! `front.*` names (`front.request.us`, `front.access`, …). A server
//! belongs to the `ahntp_par::Context` it was started under — every one of
//! its threads runs in it — so its `/metrics` and `/debug/trace.json` are
//! its own: two servers started under two contexts report disjoint
//! numbers, in one process as in two.
//!
//! Every request is assigned a trace id, echoed back in the
//! `X-Ahntp-Trace-Id` response header and recorded (with the request's
//! per-stage timing breakdown) in a bounded in-memory ring served at
//! `GET /debug/traces`. When trace collection is on
//! (`AHNTP_TRACE_OUT`, or `ahntp_telemetry::set_trace_collect`), each
//! request also emits Chrome trace events — one `serve.request` span per
//! request with its queue/batch/score stages nested under the same trace
//! id — retrievable live at `GET /debug/trace.json` or written to
//! `AHNTP_TRACE_OUT` on shutdown. `GET /metrics?format=prometheus` and
//! `GET /metrics/prometheus` expose the registry in Prometheus text
//! format. An access-log line per request is emitted at `debug` level
//! under the `serve.access` target (off by default; enable with
//! `AHNTP_LOG=serve.access=debug`).
//!
//! # Scoring
//!
//! Every `/score` and `/topk` is computed by one path, the panel scan:
//! each pair's score is one chain over the trustee row in element order,
//! and a `/topk` scans 16 candidates per panel with one accumulator each,
//! so every score is **bitwise** the seed's scalar f32 dot. A server
//! started with `AHNTP_BACKEND` set to anything but `exact` warns once
//! that the backend it names was removed and serves exact.
//!
//! # Defended scoring
//!
//! A [`DefensePrior`] (per-node trust mass from personalized PageRank
//! over honest seeds, `ahntp_graph::trust_prior`) can be attached to the
//! index ([`TrustIndex::with_defense`]) or to the server
//! ([`ServeConfig::defense`]). `/score` and `/topk` then serve
//! `(1 − α) · learned + α · prior[trustee]` blended probabilities: mass
//! entering a Sybil region under PPR is bounded by the attack-edge cut,
//! so the blend caps how much trust a fake cluster can manufacture out
//! of a fooled model. Defended `/topk` ranks every candidate before it
//! truncates (the prior reweights candidates, so the raw dot order cannot
//! pre-rank for it). `/healthz` advertises `defended`
//! and `defense_alpha`, and a hot `/admin/swap` keeps the active defense
//! unless the incoming snapshot carries its own.
//!
//! # Threads
//!
//! Scoring itself is data-parallel: the batch dot and the candidate scans
//! are each one band closure run through `ahntp_par::par_rows` /
//! `par_bands`, which either bands it over the process-wide worker pool
//! once the work is large enough (`serve.score_pairs.par_calls`,
//! `serve.topk.par_calls` and `serve.topk.range.par_calls` count those
//! dispatches) or calls it once over the whole range — there is no
//! separate serial scan. The pool is sized by
//! the `AHNTP_THREADS` environment variable (unset or `0` = one thread
//! per core, `1` = plain serial execution) and by nothing else — the pool
//! is process-wide, so a server does not resize it. Banding never
//! reorders the per-score arithmetic, so responses are bitwise identical
//! at every thread count. The HTTP side is sized by
//! [`ServeConfig::workers`]; batch size, queue capacity and the
//! idle-connection read timeout are constants.
//!
//! ```no_run
//! use ahntp_serve::{serve, ServeConfig, TrustIndex};
//!
//! let bytes = std::fs::read("model.ahntpsrv").unwrap();
//! let index = TrustIndex::load(&bytes).unwrap();
//! let server = serve(index, &ServeConfig::default()).unwrap();
//! println!("listening on {}", server.addr());
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
pub mod client;
pub mod http;
mod index;
mod node;
mod server;
mod shard;
mod trace_ring;

pub use backend::BackendKind;
pub use index::{DefensePrior, ScoreError, SharedIndex, SwapError, TrustIndex};
pub use node::{serve, serve_live, ServerHandle};
pub use server::ServeConfig;
pub use shard::{serve_sharded, shard_ranges, ShardInfo, ShardedHandle};
