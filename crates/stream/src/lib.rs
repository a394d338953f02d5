//! Live trust: the streaming half of the AHNTP reproduction.
//!
//! The paper's conclusion names dynamic networks as future work; this crate
//! supplies the event vocabulary and the bookkeeping that turn the static
//! pipeline into a live one:
//!
//! * [`TrustEvent`] — the mutation log entries a growing trust network
//!   produces: hyperedge additions, removals, reweights, and batched
//!   time-decay. Event order comes from outside (e.g.
//!   `TemporalTrustDataset`'s creation order); this crate only defines the
//!   vocabulary and its JSON wire form ([`parse_events`]).
//! * [`LiveTrustModel`] — the contract a model implements to be servable
//!   live: fold one event into its hypergraphs
//!   ([`LiveTrustModel::apply_event`], returning the affected users) and
//!   recompute just those users' scoring-head rows
//!   ([`LiveTrustModel::refresh_heads`], returning a [`HeadPatch`]).
//! * [`EventApplier`] — folds events into a model and decides, per the
//!   [`StalenessBound`] policy, when the accumulated dirty users are
//!   re-scored. Between refreshes the serving index answers from rows that
//!   are *consistent but stale* — exactly as old as the staleness gauge
//!   (`stream.staleness_seconds`) reports. A batch of events
//!   ([`EventApplier::apply_batch`], one `POST /events` body) is the unit
//!   of ingest: its events apply in order and the bound is checked once,
//!   after the last, so one refresh recomputes the union of the batch's
//!   dirty users against the final structure.
//!
//! Failpoints `stream.apply` and `stream.refresh` (see `ahntp-faultz`) cut
//! the two halves: an injected apply fault rejects the event before any
//! mutation, an injected refresh fault leaves the dirty set intact so the
//! next refresh picks up where the faulted one stopped. Either way the
//! live index never observes a half-applied event.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ahntp_faultz::failpoint;
use ahntp_hypergraph::HypergraphError;
use ahntp_nn::TrustArtifact;
use ahntp_telemetry::json::{parse, Json};
use ahntp_telemetry::{counter_add, gauge_set};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Which of the model's two hypergraph tiers an event mutates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HyperGroup {
    /// The node-level hypergraph (social influence + attribute groups).
    Node,
    /// The structure-level hypergraph (pairwise + multi-hop groups).
    Structure,
}

impl HyperGroup {
    /// Wire name (`"node"` / `"structure"`).
    pub fn name(&self) -> &'static str {
        match self {
            HyperGroup::Node => "node",
            HyperGroup::Structure => "structure",
        }
    }
}

/// One entry of the live mutation log.
#[derive(Debug, Clone, PartialEq)]
pub enum TrustEvent {
    /// A new hyperedge over `members` with the given positive weight.
    AddEdge {
        /// Mutated tier.
        group: HyperGroup,
        /// Member vertices (deduplicated, in range).
        members: Vec<usize>,
        /// Hyperedge weight, positive and finite.
        weight: f32,
    },
    /// Removal of hyperedge `edge` (ids follow swap-remove renaming: the
    /// last edge takes the removed id).
    RemoveEdge {
        /// Mutated tier.
        group: HyperGroup,
        /// Edge id to remove.
        edge: usize,
    },
    /// Replaces the weight of hyperedge `edge`.
    ReweightEdge {
        /// Mutated tier.
        group: HyperGroup,
        /// Edge id to reweight.
        edge: usize,
        /// New weight, positive and finite.
        weight: f32,
    },
    /// Time decay: scales every hyperedge weight in *both* tiers by
    /// `factor` (one batched reweight).
    Decay {
        /// Multiplicative decay factor in `(0, 1]` typically; any
        /// strictly-positive finite factor is accepted.
        factor: f32,
    },
}

impl TrustEvent {
    /// Short operation name for metrics and logs.
    pub fn op(&self) -> &'static str {
        match self {
            TrustEvent::AddEdge { .. } => "add",
            TrustEvent::RemoveEdge { .. } => "remove",
            TrustEvent::ReweightEdge { .. } => "reweight",
            TrustEvent::Decay { .. } => "decay",
        }
    }
}

/// What applying one event touched.
#[derive(Debug, Clone, Default)]
pub struct AppliedEvent {
    /// Users whose scoring-head rows are now stale (sorted, deduplicated).
    /// Empty for weight-only events: the serving forward pass reads the
    /// trainable per-edge weights, not the hypergraph weights, so reweight
    /// and decay leave every head row exact.
    pub affected_users: Vec<usize>,
}

/// A batch of recomputed scoring-head rows, ready to patch into a serving
/// index. Rows are row-major and aligned with `users`; `trustor_rows` /
/// `trustee_rows` are L2-normalised exactly as artifact export normalises
/// them.
#[derive(Debug, Clone)]
pub struct HeadPatch {
    /// Users the rows belong to (sorted, deduplicated).
    pub users: Vec<usize>,
    /// Width of each embedding row.
    pub emb_dim: usize,
    /// Width of each head row.
    pub head_dim: usize,
    /// `users.len() × emb_dim` refreshed comprehensive embeddings.
    pub emb_rows: Vec<f32>,
    /// `users.len() × head_dim` refreshed, L2-normalised trustor rows.
    pub trustor_rows: Vec<f32>,
    /// `users.len() × head_dim` refreshed, L2-normalised trustee rows.
    pub trustee_rows: Vec<f32>,
}

impl HeadPatch {
    /// An empty patch (nothing to refresh).
    pub fn empty(emb_dim: usize, head_dim: usize) -> HeadPatch {
        HeadPatch {
            users: Vec::new(),
            emb_dim,
            head_dim,
            emb_rows: Vec::new(),
            trustor_rows: Vec::new(),
            trustee_rows: Vec::new(),
        }
    }

    /// True when the patch carries no rows.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Internal consistency check: row buffers match `users × dim`.
    pub fn check(&self) -> Result<(), String> {
        let n = self.users.len();
        if self.emb_rows.len() != n * self.emb_dim {
            return Err(format!(
                "head patch: {} emb values for {n} users × {}",
                self.emb_rows.len(),
                self.emb_dim
            ));
        }
        for (name, rows) in [
            ("trustor", &self.trustor_rows),
            ("trustee", &self.trustee_rows),
        ] {
            if rows.len() != n * self.head_dim {
                return Err(format!(
                    "head patch: {} {name} values for {n} users × {}",
                    rows.len(),
                    self.head_dim
                ));
            }
        }
        Ok(())
    }
}

/// Errors of the live path.
#[derive(Debug)]
pub enum StreamError {
    /// The underlying hypergraph mutation was invalid (bad edge id, bad
    /// weight, out-of-range member). The model is untouched.
    Hypergraph(HypergraphError),
    /// A `stream.*` failpoint fired.
    Injected(ahntp_faultz::Injected),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Hypergraph(e) => write!(f, "event rejected: {e}"),
            StreamError::Injected(e) => write!(f, "fault injected at {}", e.site()),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<HypergraphError> for StreamError {
    fn from(e: HypergraphError) -> StreamError {
        StreamError::Hypergraph(e)
    }
}

impl From<ahntp_faultz::Injected> for StreamError {
    fn from(e: ahntp_faultz::Injected) -> StreamError {
        StreamError::Injected(e)
    }
}

/// The contract a model implements to serve live traffic.
///
/// The exactness invariant every implementation must uphold: after any
/// sequence of successful [`LiveTrustModel::apply_event`] calls, an
/// artifact assembled from [`LiveTrustModel::export_artifact`] plus all
/// [`HeadPatch`]es equals [`LiveTrustModel::rebuild_artifact`] (a
/// from-scratch forward pass over the mutated structure) within float
/// round-off — bitwise wherever no reassociation occurs.
pub trait LiveTrustModel {
    /// Number of users (rows in every head matrix).
    fn n_users(&self) -> usize;

    /// Folds one event into the model's hypergraphs and reports which
    /// users' head rows went stale.
    ///
    /// # Errors
    ///
    /// Invalid mutations come back as [`StreamError::Hypergraph`] and
    /// leave the model untouched.
    fn apply_event(&mut self, event: &TrustEvent) -> Result<AppliedEvent, StreamError>;

    /// Recomputes the scoring-head rows of `users` (sorted, deduplicated,
    /// in range) against the current structure.
    fn refresh_heads(&self, users: &[usize]) -> HeadPatch;

    /// Exports the current full artifact (used to seed a serving index).
    fn export_artifact(&self) -> TrustArtifact;

    /// Recomputes the full artifact from scratch, bypassing every cache —
    /// the verification oracle for the exactness contract.
    fn rebuild_artifact(&self) -> TrustArtifact;
}

impl<M: LiveTrustModel + ?Sized> LiveTrustModel for Box<M> {
    fn n_users(&self) -> usize {
        (**self).n_users()
    }
    fn apply_event(&mut self, event: &TrustEvent) -> Result<AppliedEvent, StreamError> {
        (**self).apply_event(event)
    }
    fn refresh_heads(&self, users: &[usize]) -> HeadPatch {
        (**self).refresh_heads(users)
    }
    fn export_artifact(&self) -> TrustArtifact {
        (**self).export_artifact()
    }
    fn rebuild_artifact(&self) -> TrustArtifact {
        (**self).rebuild_artifact()
    }
}

/// When accumulated staleness forces a head refresh.
///
/// A refresh triggers as soon as *any* bound is exceeded, checked whenever
/// [`EventApplier::maybe_refresh`] runs — for the server, once per
/// [`EventApplier::apply_batch`], i.e. once per `POST /events` batch. The
/// default is the immediate policy (refresh whenever anything is pending),
/// which keeps the serving index exact after every batch. The bound is
/// never checked mid-batch, so a batch of `len` events refreshes at most
/// `len − 1` events later than a check after every event would have.
#[derive(Debug, Clone, Copy)]
pub struct StalenessBound {
    /// Refresh once more than this many events are pending.
    pub max_pending_events: usize,
    /// Refresh once more than this many users are dirty.
    pub max_dirty_users: usize,
    /// Refresh once the oldest pending event is at least this old.
    /// `None` disables the age bound.
    pub max_age: Option<Duration>,
}

impl Default for StalenessBound {
    fn default() -> StalenessBound {
        StalenessBound::immediate()
    }
}

impl StalenessBound {
    /// Refresh at every check — zero staleness once a batch is applied.
    pub fn immediate() -> StalenessBound {
        StalenessBound {
            max_pending_events: 0,
            max_dirty_users: 0,
            max_age: None,
        }
    }

    /// Batch up to `events` pending events (and unboundedly many dirty
    /// users) before refreshing.
    pub fn batched(events: usize) -> StalenessBound {
        StalenessBound {
            max_pending_events: events,
            max_dirty_users: usize::MAX,
            max_age: None,
        }
    }

    /// True when the accumulated state exceeds any bound.
    pub fn exceeded(&self, pending: usize, dirty: usize, age: Option<Duration>) -> bool {
        if pending > self.max_pending_events || dirty > self.max_dirty_users {
            return true;
        }
        match (self.max_age, age) {
            (Some(limit), Some(age)) => age >= limit,
            _ => false,
        }
    }
}

/// What one [`EventApplier::apply_batch`] did.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Events applied before the first apply failure (all of them when
    /// none failed).
    pub applied: usize,
    /// Affected users summed over the applied events; a user two events
    /// dirtied counts twice.
    pub affected: usize,
    /// The batch's one refresh: rows for every dirty user, recomputed
    /// against the structure the whole batch left. `None` when the bound
    /// deferred it, nothing was dirty, or the refresh failed.
    pub patch: Option<HeadPatch>,
    /// The first failure: the apply error that stopped the batch, or else
    /// the refresh error.
    pub error: Option<StreamError>,
}

/// Folds a [`TrustEvent`] stream into a [`LiveTrustModel`] and schedules
/// head refreshes per a [`StalenessBound`].
#[derive(Debug)]
pub struct EventApplier<M> {
    model: M,
    bound: StalenessBound,
    dirty: BTreeSet<usize>,
    pending: usize,
    oldest_pending: Option<Instant>,
}

impl<M: LiveTrustModel> EventApplier<M> {
    /// Wraps a model with a staleness policy.
    pub fn new(model: M, bound: StalenessBound) -> EventApplier<M> {
        EventApplier {
            model,
            bound,
            dirty: BTreeSet::new(),
            pending: 0,
            oldest_pending: None,
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Users whose head rows are stale right now.
    pub fn dirty_users(&self) -> Vec<usize> {
        self.dirty.iter().copied().collect()
    }

    /// Events applied since the last refresh.
    pub fn pending_events(&self) -> usize {
        self.pending
    }

    /// Age of the oldest unrefreshed event.
    pub fn staleness(&self) -> Duration {
        self.oldest_pending
            .map(|t| t.elapsed())
            .unwrap_or(Duration::ZERO)
    }

    /// Applies one event to the model and accumulates its affected users
    /// into the dirty set. Counts `stream.events` / `stream.affected_users`
    /// and updates the staleness gauges.
    ///
    /// # Errors
    ///
    /// An armed `stream.apply` failpoint or an invalid mutation rejects
    /// the event *before* any model state changes.
    pub fn apply(&mut self, event: &TrustEvent) -> Result<AppliedEvent, StreamError> {
        failpoint!("stream.apply");
        let applied = self.model.apply_event(event)?;
        counter_add("stream.events", 1);
        counter_add("stream.affected_users", applied.affected_users.len() as u64);
        self.dirty.extend(applied.affected_users.iter().copied());
        self.pending += 1;
        self.oldest_pending.get_or_insert_with(Instant::now);
        self.publish_gauges();
        Ok(applied)
    }

    /// Applies `events` in order, then checks the staleness bound once.
    ///
    /// An apply failure stops the batch — later events never reach the
    /// model — and flushes the applied prefix whatever the bound says, so
    /// a failed batch never hides index lag. A refresh failure keeps the
    /// dirty set for the next refresh to retry, as
    /// [`EventApplier::force_refresh`] does. Exact, not just cheaper than a
    /// refresh per event: a user's refreshed row depends only on the
    /// structure it is computed against, so the row computed after the
    /// batch is the one a per-event refresh would have written last.
    pub fn apply_batch(&mut self, events: &[TrustEvent]) -> BatchOutcome {
        let mut outcome = BatchOutcome {
            applied: 0,
            affected: 0,
            patch: None,
            error: None,
        };
        for event in events {
            match self.apply(event) {
                Ok(applied) => {
                    outcome.applied += 1;
                    outcome.affected += applied.affected_users.len();
                }
                Err(e) => {
                    outcome.error = Some(e);
                    break;
                }
            }
        }
        let refreshed = match outcome.error {
            Some(_) => self.force_refresh(),
            None => self.maybe_refresh(),
        };
        match refreshed {
            Ok(patch) => outcome.patch = patch,
            Err(e) => {
                outcome.error.get_or_insert(e);
            }
        }
        outcome
    }

    /// Refreshes if the staleness bound is exceeded; otherwise leaves the
    /// dirty set to age.
    ///
    /// # Errors
    ///
    /// As [`EventApplier::force_refresh`].
    pub fn maybe_refresh(&mut self) -> Result<Option<HeadPatch>, StreamError> {
        let age = self.oldest_pending.map(|t| t.elapsed());
        if self.bound.exceeded(self.pending, self.dirty.len(), age) {
            self.force_refresh()
        } else {
            Ok(None)
        }
    }

    /// Recomputes every dirty user's head rows now. Returns `None` when
    /// nothing is dirty (weight-only events leave heads exact; their
    /// pending count is still cleared).
    ///
    /// # Errors
    ///
    /// An armed `stream.refresh` failpoint fails the refresh but *keeps*
    /// the dirty set — the rows stay consistent-but-stale and the next
    /// refresh retries the full set.
    pub fn force_refresh(&mut self) -> Result<Option<HeadPatch>, StreamError> {
        failpoint!("stream.refresh");
        let patch = if self.dirty.is_empty() {
            None
        } else {
            let users = self.dirty_users();
            Some(self.model.refresh_heads(&users))
        };
        self.dirty.clear();
        self.pending = 0;
        self.oldest_pending = None;
        self.publish_gauges();
        Ok(patch)
    }

    fn publish_gauges(&self) {
        gauge_set("stream.dirty_users", self.dirty.len() as f64);
        gauge_set("stream.pending_events", self.pending as f64);
        gauge_set("stream.staleness_seconds", self.staleness().as_secs_f64());
    }
}

/// Parses the `POST /events` wire form: `{"events":[{...}, ...]}` where
/// each entry is one of
///
/// ```json
/// {"op":"add","group":"node","members":[0,1,2],"weight":1.5}
/// {"op":"remove","group":"structure","edge":3}
/// {"op":"reweight","group":"node","edge":2,"weight":0.7}
/// {"op":"decay","factor":0.95}
/// ```
///
/// `group` accepts `"node"` and `"structure"` (or `"struct"`).
///
/// # Errors
///
/// Malformed JSON, unknown ops/groups, and non-integer ids come back as a
/// message suitable for a 400 body. Weight *validity* (positive, finite)
/// is the model's concern, not the parser's.
pub fn parse_events(body: &str) -> Result<Vec<TrustEvent>, String> {
    let doc = parse(body)?;
    let entries = match doc.get("events") {
        Some(Json::Arr(entries)) => entries,
        _ => return Err("expected {\"events\": [...]}".to_string()),
    };
    entries.iter().enumerate().map(parse_event).collect()
}

fn parse_event((i, entry): (usize, &Json)) -> Result<TrustEvent, String> {
    let op = entry
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("event {i}: missing \"op\""))?;
    let group = || -> Result<HyperGroup, String> {
        match entry.get("group").and_then(Json::as_str) {
            Some("node") => Ok(HyperGroup::Node),
            Some("structure") | Some("struct") => Ok(HyperGroup::Structure),
            Some(other) => Err(format!("event {i}: unknown group {other:?}")),
            None => Err(format!("event {i}: missing \"group\"")),
        }
    };
    let id = |key: &str| -> Result<usize, String> {
        let n = entry
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing numeric \"{key}\""))?;
        if n < 0.0 || n.fract() != 0.0 || n > u32::MAX as f64 {
            return Err(format!(
                "event {i}: \"{key}\" must be a non-negative integer"
            ));
        }
        Ok(n as usize)
    };
    let num = |key: &str| -> Result<f32, String> {
        entry
            .get(key)
            .and_then(Json::as_f64)
            .map(|n| n as f32)
            .ok_or_else(|| format!("event {i}: missing numeric \"{key}\""))
    };
    match op {
        "add" => {
            let members = match entry.get("members") {
                Some(Json::Arr(items)) if !items.is_empty() => items
                    .iter()
                    .map(|m| {
                        let n = m
                            .as_f64()
                            .ok_or_else(|| format!("event {i}: non-numeric member"))?;
                        if n < 0.0 || n.fract() != 0.0 || n > u32::MAX as f64 {
                            return Err(format!(
                                "event {i}: members must be non-negative integers"
                            ));
                        }
                        Ok(n as usize)
                    })
                    .collect::<Result<Vec<usize>, String>>()?,
                _ => return Err(format!("event {i}: \"members\" must be a non-empty array")),
            };
            Ok(TrustEvent::AddEdge {
                group: group()?,
                members,
                weight: num("weight")?,
            })
        }
        "remove" => Ok(TrustEvent::RemoveEdge {
            group: group()?,
            edge: id("edge")?,
        }),
        "reweight" => Ok(TrustEvent::ReweightEdge {
            group: group()?,
            edge: id("edge")?,
            weight: num("weight")?,
        }),
        "decay" => Ok(TrustEvent::Decay {
            factor: num("factor")?,
        }),
        other => Err(format!("event {i}: unknown op {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahntp_faultz::{Action, FaultSpec};
    use std::cell::RefCell;

    /// A scripted model: an add dirties its members, a remove dirties
    /// `edge % n`, weight-only events dirty nobody; refresh writes a
    /// recognizable constant into each requested row and records the call.
    struct MockModel {
        n: usize,
        applied: usize,
        /// The `users` argument of every `refresh_heads` call, in order.
        refreshes: RefCell<Vec<Vec<usize>>>,
    }

    impl MockModel {
        fn new(n: usize) -> MockModel {
            MockModel {
                n,
                applied: 0,
                refreshes: RefCell::default(),
            }
        }
    }

    impl LiveTrustModel for MockModel {
        fn n_users(&self) -> usize {
            self.n
        }
        fn apply_event(&mut self, event: &TrustEvent) -> Result<AppliedEvent, StreamError> {
            let affected = match event {
                TrustEvent::AddEdge { members, .. } => {
                    let mut v = members.clone();
                    v.sort_unstable();
                    v.dedup();
                    if v.iter().any(|&u| u >= self.n) {
                        return Err(StreamError::Hypergraph(HypergraphError::VertexOutOfRange {
                            vertex: *v.last().unwrap(),
                            n: self.n,
                        }));
                    }
                    v
                }
                TrustEvent::RemoveEdge { edge, .. } => vec![edge % self.n],
                TrustEvent::ReweightEdge { .. } | TrustEvent::Decay { .. } => Vec::new(),
            };
            self.applied += 1;
            Ok(AppliedEvent {
                affected_users: affected,
            })
        }
        fn refresh_heads(&self, users: &[usize]) -> HeadPatch {
            self.refreshes.borrow_mut().push(users.to_vec());
            let mut patch = HeadPatch::empty(2, 2);
            patch.users = users.to_vec();
            patch.emb_rows = vec![1.0; users.len() * 2];
            patch.trustor_rows = vec![0.5; users.len() * 2];
            patch.trustee_rows = vec![0.5; users.len() * 2];
            patch
        }
        fn export_artifact(&self) -> TrustArtifact {
            TrustArtifact {
                model: "mock".to_string(),
                fingerprint: 0,
                calibration: 1.0,
                n_users: self.n,
                emb_dim: 2,
                head_dim: 2,
                embeddings: vec![0.0; self.n * 2].into(),
                trustor_head: vec![0.0; self.n * 2].into(),
                trustee_head: vec![0.0; self.n * 2].into(),
            }
        }
        fn rebuild_artifact(&self) -> TrustArtifact {
            self.export_artifact()
        }
    }

    fn add(members: &[usize]) -> TrustEvent {
        TrustEvent::AddEdge {
            group: HyperGroup::Node,
            members: members.to_vec(),
            weight: 1.0,
        }
    }

    #[test]
    fn immediate_bound_refreshes_after_every_dirtying_event() {
        let mut applier = EventApplier::new(MockModel::new(8), StalenessBound::immediate());
        let applied = applier.apply(&add(&[1, 3])).unwrap();
        assert_eq!(applied.affected_users, vec![1, 3]);
        assert_eq!(applier.pending_events(), 1);
        let patch = applier.maybe_refresh().unwrap().expect("dirty users exist");
        assert_eq!(patch.users, vec![1, 3]);
        patch.check().unwrap();
        assert_eq!(applier.pending_events(), 0);
        assert!(applier.dirty_users().is_empty());
    }

    #[test]
    fn weight_only_events_dirty_nobody_but_still_clear_pending() {
        let mut applier = EventApplier::new(MockModel::new(8), StalenessBound::immediate());
        applier.apply(&TrustEvent::Decay { factor: 0.9 }).unwrap();
        assert_eq!(applier.pending_events(), 1);
        assert!(applier.dirty_users().is_empty());
        // Exceeded (pending 1 > 0) but nothing to patch.
        assert!(applier.maybe_refresh().unwrap().is_none());
        assert_eq!(applier.pending_events(), 0);
    }

    #[test]
    fn batched_bound_accumulates_until_exceeded() {
        let mut applier = EventApplier::new(MockModel::new(8), StalenessBound::batched(3));
        for k in 0..3 {
            applier.apply(&add(&[k])).unwrap();
            assert!(
                applier.maybe_refresh().unwrap().is_none(),
                "bound not exceeded at {} pending",
                k + 1
            );
        }
        applier.apply(&add(&[7])).unwrap();
        let patch = applier.maybe_refresh().unwrap().expect("4 > 3 pending");
        assert_eq!(patch.users, vec![0, 1, 2, 7]);
    }

    #[test]
    fn a_batch_refreshes_once_with_the_union_of_its_dirty_users() {
        let mut applier = EventApplier::new(MockModel::new(8), StalenessBound::immediate());
        let remove = TrustEvent::RemoveEdge {
            group: HyperGroup::Structure,
            edge: 14,
        };
        let batch = applier.apply_batch(&[add(&[3, 1]), add(&[1, 5]), remove]);
        assert!(batch.error.is_none(), "{:?}", batch.error);
        assert_eq!((batch.applied, batch.affected), (3, 5));
        assert_eq!(*applier.model().refreshes.borrow(), vec![vec![1, 3, 5, 6]]);
        assert_eq!(
            batch.patch.expect("dirty users exist").users,
            vec![1, 3, 5, 6]
        );
        assert_eq!(applier.pending_events(), 0);
        assert!(applier.dirty_users().is_empty());
    }

    #[test]
    fn a_weight_only_batch_refreshes_nothing_and_clears_pending() {
        let mut applier = EventApplier::new(MockModel::new(8), StalenessBound::immediate());
        let reweight = TrustEvent::ReweightEdge {
            group: HyperGroup::Node,
            edge: 2,
            weight: 0.7,
        };
        let batch = applier.apply_batch(&[TrustEvent::Decay { factor: 0.9 }, reweight]);
        assert!(batch.error.is_none(), "{:?}", batch.error);
        assert_eq!((batch.applied, batch.affected), (2, 0));
        assert!(batch.patch.is_none());
        assert!(applier.model().refreshes.borrow().is_empty());
        assert_eq!(applier.pending_events(), 0);
    }

    #[test]
    fn an_apply_failure_stops_the_batch_and_flushes_its_prefix_once() {
        // The bound alone would defer: the flush is the failure's doing.
        let mut applier = EventApplier::new(MockModel::new(8), StalenessBound::batched(100));
        let batch = applier.apply_batch(&[add(&[1]), add(&[2]), add(&[9]), add(&[4])]);
        assert!(
            matches!(batch.error, Some(StreamError::Hypergraph(_))),
            "{:?}",
            batch.error
        );
        assert_eq!(batch.applied, 2);
        // The event after the failure never reached the model.
        assert_eq!(applier.model().applied, 2);
        assert_eq!(*applier.model().refreshes.borrow(), vec![vec![1, 2]]);
        assert_eq!(batch.patch.expect("prefix flushed").users, vec![1, 2]);
        assert!(applier.dirty_users().is_empty());
    }

    #[test]
    fn a_refresh_failure_after_a_batch_applies_every_event_and_keeps_dirty() {
        let mut applier = EventApplier::new(MockModel::new(8), StalenessBound::immediate());
        let batch = {
            let _fp = ahntp_faultz::scoped("stream.refresh", FaultSpec::new(Action::Err));
            applier.apply_batch(&[add(&[1]), add(&[2, 3])])
        };
        assert!(
            matches!(batch.error, Some(StreamError::Injected(_))),
            "{:?}",
            batch.error
        );
        assert_eq!(batch.applied, 2);
        assert!(batch.patch.is_none());
        assert_eq!(applier.dirty_users(), vec![1, 2, 3]);
        // The next batch's one refresh covers the retained set too.
        let batch = applier.apply_batch(&[add(&[5])]);
        assert_eq!(
            batch.patch.expect("healthy refresh").users,
            vec![1, 2, 3, 5]
        );
        assert_eq!(*applier.model().refreshes.borrow(), vec![vec![1, 2, 3, 5]]);
    }

    #[test]
    fn a_batched_bound_is_checked_once_after_the_batch() {
        let mut applier = EventApplier::new(MockModel::new(8), StalenessBound::batched(3));
        let batch = applier.apply_batch(&[add(&[0]), add(&[1]), add(&[2])]);
        assert!(batch.patch.is_none(), "3 pending do not exceed 3");
        assert_eq!(applier.pending_events(), 3);
        // A check per event would refresh after the 1st of these four and
        // leave 3 pending; the batch refreshes once, 3 = len − 1 events
        // later, and leaves nothing pending.
        let batch = applier.apply_batch(&[add(&[3]), add(&[4]), add(&[5]), add(&[6])]);
        assert_eq!(
            batch.patch.expect("7 > 3 pending").users,
            vec![0, 1, 2, 3, 4, 5, 6]
        );
        assert_eq!(
            *applier.model().refreshes.borrow(),
            vec![vec![0, 1, 2, 3, 4, 5, 6]]
        );
        assert_eq!(applier.pending_events(), 0);
    }

    #[test]
    fn invalid_event_is_rejected_without_dirtying() {
        let mut applier = EventApplier::new(MockModel::new(4), StalenessBound::immediate());
        let err = applier.apply(&add(&[9])).unwrap_err();
        assert!(matches!(err, StreamError::Hypergraph(_)), "{err}");
        assert!(applier.dirty_users().is_empty());
        assert_eq!(applier.pending_events(), 0);
    }

    #[test]
    fn box_dyn_models_fold_through_the_applier() {
        let model: Box<dyn LiveTrustModel> = Box::new(MockModel::new(8));
        let mut applier = EventApplier::new(model, StalenessBound::immediate());
        applier.apply(&add(&[2])).unwrap();
        assert_eq!(applier.model().n_users(), 8);
        let patch = applier.force_refresh().unwrap().unwrap();
        assert_eq!(patch.users, vec![2]);
    }

    #[test]
    fn apply_failpoint_rejects_before_mutation_and_refresh_failpoint_keeps_dirty() {
        let mut applier = EventApplier::new(MockModel::new(8), StalenessBound::batched(100));
        applier.apply(&add(&[1])).unwrap();

        {
            let _fp = ahntp_faultz::scoped("stream.apply", FaultSpec::new(Action::Err));
            let err = applier.apply(&add(&[2])).unwrap_err();
            assert!(matches!(err, StreamError::Injected(_)), "{err}");
        }
        // The faulted event never reached the model.
        assert_eq!(applier.model().applied, 1);
        assert_eq!(applier.dirty_users(), vec![1]);

        {
            let _fp = ahntp_faultz::scoped("stream.refresh", FaultSpec::new(Action::Err));
            let err = applier.force_refresh().unwrap_err();
            assert!(matches!(err, StreamError::Injected(_)), "{err}");
        }
        // Dirty set retained: the next refresh covers the full backlog.
        assert_eq!(applier.dirty_users(), vec![1]);
        let patch = applier.force_refresh().unwrap().unwrap();
        assert_eq!(patch.users, vec![1]);
    }

    #[test]
    fn staleness_bound_age_trigger() {
        let bound = StalenessBound {
            max_pending_events: usize::MAX,
            max_dirty_users: usize::MAX,
            max_age: Some(Duration::from_millis(5)),
        };
        assert!(!bound.exceeded(3, 3, Some(Duration::from_millis(1))));
        assert!(bound.exceeded(3, 3, Some(Duration::from_millis(5))));
        assert!(!bound.exceeded(3, 3, None));
    }

    #[test]
    fn parse_events_round_trips_every_op() {
        let body = r#"{"events":[
            {"op":"add","group":"node","members":[0,1,2],"weight":1.5},
            {"op":"remove","group":"structure","edge":3},
            {"op":"reweight","group":"struct","edge":2,"weight":0.7},
            {"op":"decay","factor":0.95}
        ]}"#;
        let events = parse_events(body).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events[0],
            TrustEvent::AddEdge {
                group: HyperGroup::Node,
                members: vec![0, 1, 2],
                weight: 1.5,
            }
        );
        assert_eq!(
            events[1],
            TrustEvent::RemoveEdge {
                group: HyperGroup::Structure,
                edge: 3,
            }
        );
        assert_eq!(events[2].op(), "reweight");
        assert_eq!(events[3], TrustEvent::Decay { factor: 0.95 });
    }

    #[test]
    fn parse_events_rejects_malformed_entries() {
        for (body, needle) in [
            ("{}", "expected"),
            (r#"{"events":[{"group":"node"}]}"#, "missing \"op\""),
            (r#"{"events":[{"op":"warp"}]}"#, "unknown op"),
            (
                r#"{"events":[{"op":"add","group":"x","members":[0],"weight":1}]}"#,
                "unknown group",
            ),
            (
                r#"{"events":[{"op":"add","group":"node","members":[],"weight":1}]}"#,
                "non-empty",
            ),
            (
                r#"{"events":[{"op":"add","group":"node","members":[-1],"weight":1}]}"#,
                "non-negative",
            ),
            (
                r#"{"events":[{"op":"remove","group":"node","edge":1.5}]}"#,
                "non-negative integer",
            ),
            (
                r#"{"events":[{"op":"decay"}]}"#,
                "missing numeric \"factor\"",
            ),
        ] {
            let err = parse_events(body).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }
}
