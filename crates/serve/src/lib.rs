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
//! * [`serve`] — the node handler over a frozen index: each request is
//!   answered on the worker that read it, `POST /score` and `GET /topk`
//!   under one index read guard apiece — no queue, no scoring thread.
//!   Endpoints: `POST /score`, `GET /topk`, `GET /healthz`, `GET /metrics`
//!   (all JSON, via `ahntp_telemetry::json`).
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
//! Request latency (`serve.request.us`), pairs per `/score`
//! (`serve.score.batch_size`) and request/error counters land in the
//! `ahntp_telemetry` metrics registry, so `GET /metrics` and the training
//! run ledger share one vocabulary.
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
//! request with its stages (for `/score`: parse, read-guard wait, score)
//! nested under the same trace id — retrievable live at
//! `GET /debug/trace.json` or written to `AHNTP_TRACE_OUT` on shutdown.
//! `GET /metrics?format=prometheus` exposes the registry in Prometheus
//! text format. An access-log line per request is emitted at `debug` level
//! under the `serve.access` target (off by default; enable with
//! `AHNTP_LOG=serve.access=debug`).
//!
//! # Scoring
//!
//! Every `/score` and `/topk` is computed by one path, the panel scan:
//! each pair's score is one chain over the trustee row in element order,
//! and a `/topk` scores 16 candidates per panel with one accumulator each,
//! so every score is **bitwise** the seed's scalar f32 dot. A server
//! started with `AHNTP_BACKEND` set to anything but `exact` warns once
//! that the backend it names was removed and serves exact.
//!
//! A served score is an inner product of two heads, so `/topk` is an
//! exact maximum-inner-product search, and it prunes. The first `/topk` a
//! server answers groups the trustee head, under the index's write lock
//! and once ([`SharedIndex::read_grouped`], counted in
//! `serve.index.groupings`): a few rounds of spherical k-means on a
//! strided sample pick one centre per 384 users (at most 64; below two
//! groups nothing changes), every row joins its nearest centre, and the
//! rows are permuted in place so that each group is a contiguous run of
//! panels, ascending by user id within it. Two `u32` maps locate rows
//! (8 bytes per user), and each group keeps its mean `c_g` and radius
//! `r_g`; grouping a 24 000 × 32 head takes a few milliseconds. A `/topk`
//! then walks the groups in descending `⟨q, c_g⟩ + ‖q‖·r_g` and stops at
//! the first whose bound, plus a slack that covers the f32 dot's
//! rounding, is below the heap's `k`-th score: no row it skips could have
//! entered the heap, not even on the id tie-break, so the answer is the
//! exhaustive scan's, bitwise (the proof is in `backend/panels.rs`).
//! `serve.topk.scanned` counts the candidates scored. A range scan (a
//! shard's, or [`TrustIndex::top_k_trustees_in`]) scores each group's
//! in-range run; a defended one ranks every candidate. Live patches grow
//! the radius of the row's group, never shrink it, so every bound stays
//! valid. A server that only scores pairs or ingests events never groups.
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
//! The batch dot is data-parallel: one band closure run through
//! `ahntp_par::par_rows`, which either bands it over the process-wide
//! worker pool once the work is large enough (`serve.score_pairs.par_calls`
//! counts those dispatches) or calls it once over the whole batch. The
//! top-k walk runs on the thread that asked for it. The pool is sized by
//! the `AHNTP_THREADS` environment variable (unset or `0` = one thread
//! per core, `1` = plain serial execution) and by nothing else — the pool
//! is process-wide, so a server does not resize it. Banding never
//! reorders the per-score arithmetic, so responses are bitwise identical
//! at every thread count. The HTTP side is sized by
//! [`ServeConfig::workers`]; the idle-connection read timeout is a
//! constant.
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
