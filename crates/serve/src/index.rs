//! The in-memory scoring index behind the serving endpoints.
//!
//! A [`TrustIndex`] takes a decoded [`TrustArtifact`] apart and answers
//! trust queries with no graph machinery: the artifact's head rows are
//! already L2-normalised, so `score(u, v)` is one `O(d)` dot product
//! followed by the trainer's calibrated sigmoid, and `top_k_trustees`
//! ranks candidates over one bound-pruned walk. The trustee head is kept
//! once, re-laid in place into 16-user panels (`backend/panels.rs`); the
//! embeddings and the trustor head stay as the artifact held them. Every
//! score is bitwise the seed's scalar f32 dot (`tests/backend_exactness.rs`
//! keeps that loop as the oracle).
//!
//! [`TrustIndex::group_trustees`] permutes the trustee rows, in place,
//! into centroid–radius groups, and `top_k_trustees` then skips every
//! group whose bound proves it cannot enter the top `k` (the proof is in
//! `backend/panels.rs`). Grouping costs a few milliseconds and is paid
//! once, by the first `/topk` ([`SharedIndex::read_grouped`]): a server
//! that only scores pairs never groups. An ungrouped index answers the
//! same, bitwise, by scoring every candidate.
//!
//! Big batches are split across the `ahntp-par` worker pool: each pair is
//! scored by exactly one task with banding-invariant arithmetic, so
//! results are bitwise identical to serial execution at any thread count.
//! The top-k walk runs on the calling thread.
//!
//! # Top-k tie-break
//!
//! [`TrustIndex::top_k_trustees`] orders its output by **score
//! descending, then user id ascending**, so responses are deterministic
//! when distinct candidates collide on a score, and a scatter-gather
//! front can merge per-shard lists into the single-node answer.

use std::sync::{RwLock, RwLockReadGuard};

use ahntp_nn::{ArtifactError, Rows, TrustArtifact};
use ahntp_stream::HeadPatch;
use ahntp_telemetry::counter_add;

use crate::backend::{top_k_in, BackendKind, Heads, Panels};

/// Errors from scoring queries against a [`TrustIndex`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScoreError {
    /// A queried user id is not a row of the index.
    UserOutOfRange {
        /// The offending user id.
        user: usize,
        /// Number of users the index holds (valid ids are `0..n_users`).
        n_users: usize,
    },
}

impl std::fmt::Display for ScoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScoreError::UserOutOfRange { user, n_users } => {
                write!(f, "user {user} out of range (index holds {n_users} users)")
            }
        }
    }
}

impl std::error::Error for ScoreError {}

/// A Sybil-defense prior attached to a [`TrustIndex`]: per-node trust
/// mass from personalized PageRank over honest seeds
/// (`ahntp_graph::trust_prior`), blended into every served score as
/// `(1 − α) · learned + α · prior[trustee]`.
///
/// The prior is indexed by *trustee*: trust is something the target has
/// to have earned from the honest region, regardless of who asks. Since
/// PPR mass entering a Sybil region is bounded by the attack-edge cut,
/// blending caps how much score a fake cluster can manufacture no matter
/// what the learned model was talked into.
#[derive(Debug, Clone, PartialEq)]
pub struct DefensePrior {
    alpha: f32,
    trust: Vec<f32>,
}

impl DefensePrior {
    /// Builds a defense prior.
    ///
    /// # Errors
    ///
    /// Rejects an `alpha` outside `[0, 1]`, an empty prior, or prior
    /// values outside `[0, 1]` (including non-finite ones).
    pub fn new(alpha: f32, trust: Vec<f32>) -> Result<DefensePrior, String> {
        if !(alpha.is_finite() && (0.0..=1.0).contains(&alpha)) {
            return Err(format!("defense alpha must be in [0, 1], got {alpha}"));
        }
        if trust.is_empty() {
            return Err("defense prior is empty".to_string());
        }
        if let Some((i, &v)) = trust
            .iter()
            .enumerate()
            .find(|&(_, &v)| !(v.is_finite() && (0.0..=1.0).contains(&v)))
        {
            return Err(format!("defense prior[{i}] = {v} outside [0, 1]"));
        }
        Ok(DefensePrior { alpha, trust })
    }

    /// [`DefensePrior::new`] with the blend weight taken from the
    /// `AHNTP_PPR_ALPHA` environment knob (default `0.3`; malformed
    /// values warn and fall back, matching every other env knob).
    ///
    /// # Errors
    ///
    /// As [`DefensePrior::new`].
    pub fn from_env(trust: Vec<f32>) -> Result<DefensePrior, String> {
        DefensePrior::new(ahntp_telemetry::env_parse("AHNTP_PPR_ALPHA", 0.3f32), trust)
    }

    /// The blend weight on the prior.
    pub fn alpha(&self) -> f32 {
        self.alpha
    }

    /// Number of users the prior covers.
    pub fn len(&self) -> usize {
        self.trust.len()
    }

    /// Always false — construction rejects an empty prior.
    pub fn is_empty(&self) -> bool {
        self.trust.is_empty()
    }

    /// The per-node trust prior.
    pub fn trust(&self) -> &[f32] {
        &self.trust
    }

    /// Blends one calibrated probability with the trustee's prior.
    fn blend(&self, trustee: usize, learned: f32) -> f32 {
        (1.0 - self.alpha) * learned + self.alpha * self.trust[trustee]
    }
}

/// Trust-scoring index over an exported [`TrustArtifact`]. "Frozen" in
/// the sense that only live-trust head patches mutate it.
#[derive(Debug, Clone)]
pub struct TrustIndex {
    model: String,
    fingerprint: u64,
    calibration: f32,
    emb_dim: usize,
    embeddings: Rows,
    heads: Heads,
    /// Sybil-defense prior; `None` serves raw learned scores.
    defense: Option<DefensePrior>,
}

impl TrustIndex {
    /// Builds the index from a decoded artifact, re-validating it. The
    /// trustee head is re-laid into panels in place: an owned matrix is
    /// reused, a mapped one is copied once.
    ///
    /// # Errors
    ///
    /// Returns the artifact's own [`ArtifactError`] when it is
    /// inconsistent.
    pub fn from_artifact(artifact: TrustArtifact) -> Result<TrustIndex, ArtifactError> {
        artifact.validate()?;
        let TrustArtifact {
            model,
            fingerprint,
            calibration,
            n_users,
            emb_dim,
            head_dim,
            embeddings,
            trustor_head,
            trustee_head,
        } = artifact;
        Ok(TrustIndex {
            model,
            fingerprint,
            calibration,
            emb_dim,
            embeddings,
            heads: Heads {
                trustor: trustor_head,
                trustee: Panels::new(trustee_head.into_vec(), n_users, head_dim),
            },
            defense: None,
        })
    }

    /// [`TrustIndex::from_artifact`]; `kind` is ignored (see
    /// [`BackendKind`]: it goes with the next change to the benchmark
    /// harness).
    ///
    /// # Errors
    ///
    /// As [`TrustIndex::from_artifact`].
    pub fn from_artifact_with(
        artifact: TrustArtifact,
        _kind: BackendKind,
    ) -> Result<TrustIndex, ArtifactError> {
        TrustIndex::from_artifact(artifact)
    }

    /// Decodes an `AHNTPSRV1` frame and builds the index.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError`] on malformed, unsupported, or
    /// inconsistent frames.
    pub fn load(bytes: &[u8]) -> Result<TrustIndex, ArtifactError> {
        TrustIndex::from_artifact(TrustArtifact::decode(bytes)?)
    }

    /// Opens an artifact file and builds the index, zero-copy where the
    /// layout allows: the frame is memory-mapped and its matrices become
    /// borrowed views ([`TrustArtifact::open`]). The embeddings and the
    /// trustor head stay views; the trustee head is copied once while it
    /// is re-laid into panels — one pass beside the CRC pass `open`
    /// already makes over every byte. Platforms without the fast path
    /// fall back to a parsing decode — same index either way.
    ///
    /// # Errors
    ///
    /// I/O errors from the filesystem; corrupt or unsupported frames
    /// (failed CRC seal, torn offsets table) surface as
    /// [`std::io::ErrorKind::InvalidData`] — a typed error, never a
    /// panic, which is what the chaos tier asserts for torn artifacts.
    pub fn open<P: AsRef<std::path::Path>>(path: P) -> std::io::Result<TrustIndex> {
        let artifact = TrustArtifact::open(path)?;
        TrustIndex::from_artifact(artifact)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Whether what the index still serves from the mapping — the
    /// embeddings and the trustor head — is a zero-copy view (true after
    /// [`TrustIndex::open`] until the first live head patch copies them).
    /// The trustee head is never a view: it is re-laid into panels at
    /// build time.
    pub fn is_mapped(&self) -> bool {
        self.embeddings.is_mapped() && self.heads.trustor.is_mapped()
    }

    /// Attaches a Sybil-defense prior: every served probability becomes
    /// `(1 − α) · learned + α · prior[trustee]` (see [`DefensePrior`]).
    /// `/topk` under defense ranks every candidate — the prior reweights
    /// them, so the raw dot order is no filter for the blended one.
    ///
    /// # Errors
    ///
    /// Rejects a prior that does not cover exactly `n_users` nodes; the
    /// index is unchanged on error.
    pub fn with_defense(mut self, defense: DefensePrior) -> Result<TrustIndex, String> {
        if defense.len() != self.n_users() {
            return Err(format!(
                "defense prior covers {} users but the index holds {}",
                defense.len(),
                self.n_users()
            ));
        }
        self.defense = Some(defense);
        Ok(self)
    }

    /// Detaches the defense prior, returning to raw learned scores.
    pub fn without_defense(mut self) -> TrustIndex {
        self.defense = None;
        self
    }

    /// The attached defense prior, if any.
    pub fn defense(&self) -> Option<&DefensePrior> {
        self.defense.as_ref()
    }

    /// Whether served scores are defense-blended.
    pub fn defended(&self) -> bool {
        self.defense.is_some()
    }

    /// Applies the defense blend when one is attached.
    fn defended_score(&self, trustee: usize, learned: f32) -> f32 {
        match &self.defense {
            Some(d) => d.blend(trustee, learned),
            None => learned,
        }
    }

    /// `"exact"`, the `backend` field of `/score`, `/topk` and `/healthz`
    /// (see [`BackendKind`]: it goes with the next change to the
    /// benchmark harness).
    pub fn backend_name(&self) -> &'static str {
        BackendKind::Exact.name()
    }

    /// Groups the trustee head for the bound-pruned `/topk` walk (see
    /// the module docs), once: later calls change nothing. Every answer
    /// stays bitwise what it was; only how many candidates a top-k scores
    /// changes. Counted in `serve.index.groupings`.
    pub fn group_trustees(&mut self) {
        if self.heads.trustee.is_grouped() {
            return;
        }
        let _k = ahntp_telemetry::KernelSpan::enter(
            "serve.index.group",
            ahntp_telemetry::KernelKind::Score,
        );
        self.heads.trustee.group();
        counter_add("serve.index.groupings", 1);
    }

    /// Whether [`TrustIndex::group_trustees`] has run.
    pub(crate) fn is_grouped(&self) -> bool {
        self.heads.trustee.is_grouped()
    }

    /// Number of users the index can score.
    pub fn n_users(&self) -> usize {
        self.heads.n()
    }

    /// Embedding dimension of the exported model.
    pub fn emb_dim(&self) -> usize {
        self.emb_dim
    }

    /// Head dimension (the per-pair dot length).
    pub fn head_dim(&self) -> usize {
        self.heads.d()
    }

    /// Name of the exporting model (e.g. `"AHNTP"`).
    pub fn model(&self) -> &str {
        &self.model
    }

    /// Architecture fingerprint of the exporting model (0 = untagged).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn check(&self, user: usize) -> Result<(), ScoreError> {
        if user >= self.n_users() {
            Err(ScoreError::UserOutOfRange {
                user,
                n_users: self.n_users(),
            })
        } else {
            Ok(())
        }
    }

    fn calibrated(&self, dot: f32) -> f32 {
        1.0 / (1.0 + (-dot / self.calibration).exp())
    }

    /// Probability that `trustor` trusts `trustee`:
    /// `σ(⟨trustor_head[u], trustee_head[v]⟩ / c)`, matching
    /// `Ahntp::predict` within float tolerance.
    ///
    /// # Errors
    ///
    /// Returns [`ScoreError::UserOutOfRange`] when either id is not a row.
    pub fn score(&self, trustor: usize, trustee: usize) -> Result<f32, ScoreError> {
        self.check(trustor)?;
        self.check(trustee)?;
        Ok(self.defended_score(trustee, self.calibrated(self.heads.dot(trustor, trustee))))
    }

    /// Scores a batch of `(trustor, trustee)` pairs in order.
    ///
    /// # Errors
    ///
    /// Fails on the first out-of-range id; no partial results.
    pub fn score_pairs(&self, pairs: &[(usize, usize)]) -> Result<Vec<f32>, ScoreError> {
        let _k = ahntp_telemetry::KernelSpan::enter(
            "serve.score_pairs.exact",
            ahntp_telemetry::KernelKind::Score,
        );
        counter_add("serve.score_pairs.exact.calls", 1);
        for &(u, v) in pairs {
            self.check(u)?;
            self.check(v)?;
        }
        let mut out = vec![0.0f32; pairs.len()];
        ahntp_par::par_rows(
            &mut out,
            1,
            2 * pairs.len() * self.head_dim(),
            "serve.score_pairs.par_calls",
            |off, band| {
                for (&(u, v), o) in pairs[off..off + band.len()].iter().zip(band) {
                    *o = self.heads.dot(u, v);
                }
            },
        );
        for v in &mut out {
            *v = self.calibrated(*v);
        }
        if let Some(d) = &self.defense {
            // The blend is per-element and runs after the (possibly
            // banded) dot batch, so thread-invariance is untouched.
            for (&(_, trustee), v) in pairs.iter().zip(&mut out) {
                *v = d.blend(trustee, *v);
            }
        }
        Ok(out)
    }

    /// The `k` most-trusted candidate trustees for `trustor` (excluding
    /// `trustor` itself), ordered by **score descending, then user id
    /// ascending** — the documented deterministic tie-break. Returns
    /// fewer than `k` entries only when the index holds fewer candidates;
    /// any `k` is accepted, and costs no more than `k = n_users − 1`.
    ///
    /// # Errors
    ///
    /// Returns [`ScoreError::UserOutOfRange`] for an unknown trustor.
    pub fn top_k_trustees(
        &self,
        trustor: usize,
        k: usize,
    ) -> Result<Vec<(usize, f32)>, ScoreError> {
        let _k = ahntp_telemetry::KernelSpan::enter(
            "serve.topk.exact",
            ahntp_telemetry::KernelKind::Score,
        );
        counter_add("serve.topk.exact.calls", 1);
        self.check(trustor)?;
        Ok(self.ranked_in(trustor, k, 0, self.n_users()))
    }

    /// [`TrustIndex::top_k_trustees`] restricted to the candidate id
    /// range `lo..hi` — the shard-local `/topk` scan. Candidate ids are
    /// **global** user ids throughout (the range selects, it does not
    /// re-base), so a scatter-gather front merges per-shard results
    /// without any id translation: the union of disjoint ranges covering
    /// `0..n`, merged under (score desc, id asc) and truncated to `k`, is
    /// bitwise identical to the single-node `top_k_trustees`.
    ///
    /// `hi` is clamped to `n_users`; an empty or inverted range returns
    /// no candidates.
    ///
    /// # Errors
    ///
    /// Returns [`ScoreError::UserOutOfRange`] for an unknown trustor
    /// (the *trustor* need not lie in `lo..hi` — any shard can rank for
    /// any trustor; the range restricts candidates only).
    pub fn top_k_trustees_in(
        &self,
        trustor: usize,
        k: usize,
        lo: usize,
        hi: usize,
    ) -> Result<Vec<(usize, f32)>, ScoreError> {
        let _k = ahntp_telemetry::KernelSpan::enter(
            "serve.topk.range",
            ahntp_telemetry::KernelKind::Score,
        );
        counter_add("serve.topk.range.calls", 1);
        self.check(trustor)?;
        let hi = hi.min(self.n_users());
        if lo >= hi {
            return Ok(Vec::new());
        }
        Ok(self.ranked_in(trustor, k, lo, hi))
    }

    /// The candidate scan shared by `top_k_trustees` and
    /// `top_k_trustees_in`: the top-k walk over `lo..hi`, each candidate
    /// calibrated (and blended, when defended), then the documented
    /// (score desc, id asc) sort and truncation to `k`. The dot →
    /// probability map is monotonic, so the sort equals the dot order
    /// except where calibration rounds two distinct dots to one f32,
    /// where the id tie-break takes over. Because the blend happens
    /// before the per-shard sort, the union of disjoint shard ranges
    /// covering `0..n`, merged under the same order, is bitwise identical
    /// to the single-node scan.
    fn ranked_in(&self, trustor: usize, k: usize, lo: usize, hi: usize) -> Vec<(usize, f32)> {
        // The prior reweights candidates, so the raw dot order cannot
        // pre-rank a defended scan: it keeps the whole range and
        // truncates to `k` only *after* blending, or the prior could not
        // promote a candidate the dot order had cut.
        let keep = match self.defense {
            Some(_) => hi - lo,
            None => k,
        };
        let mut out: Vec<(usize, f32)> = top_k_in(&self.heads, trustor, keep, lo, hi)
            .into_iter()
            .map(|r| {
                (
                    r.user,
                    self.defended_score(r.user, self.calibrated(r.score)),
                )
            })
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out.truncate(k);
        out
    }

    /// Patches refreshed head rows from a live model into the index in
    /// place. Rows arrive already L2-normalised (the export invariant),
    /// so scoring stays one dot product per pair.
    ///
    /// # Errors
    ///
    /// Returns a message when the patch is internally inconsistent, its
    /// dimensions disagree with the artifact, or a user id is out of
    /// range. The index is untouched on error.
    pub fn apply_head_patch(&mut self, patch: &HeadPatch) -> Result<(), String> {
        patch.check()?;
        if patch.is_empty() {
            return Ok(());
        }
        if patch.emb_dim != self.emb_dim() || patch.head_dim != self.head_dim() {
            return Err(format!(
                "head patch dims {}×{} do not match index dims {}×{}",
                patch.emb_dim,
                patch.head_dim,
                self.emb_dim(),
                self.head_dim()
            ));
        }
        if let Some(&bad) = patch.users.iter().find(|&&u| u >= self.n_users()) {
            return Err(format!(
                "head patch user {bad} out of range (index holds {} users)",
                self.n_users()
            ));
        }
        let (ed, hd) = (patch.emb_dim, patch.head_dim);
        // `to_mut` copies a zero-copy mapped matrix on first write: a
        // freshly mapped shard pays for exactly the matrices live patches
        // touch. The trustee head was copied into panels at build time.
        for (k, &u) in patch.users.iter().enumerate() {
            self.embeddings.to_mut()[u * ed..(u + 1) * ed]
                .copy_from_slice(&patch.emb_rows[k * ed..(k + 1) * ed]);
            self.heads.trustor.to_mut()[u * hd..(u + 1) * hd]
                .copy_from_slice(&patch.trustor_rows[k * hd..(k + 1) * hd]);
            self.heads
                .trustee
                .set_row(u, &patch.trustee_rows[k * hd..(k + 1) * hd]);
        }
        counter_add("serve.index.patched_rows", patch.users.len() as u64);
        Ok(())
    }
}

/// Why [`SharedIndex::swap`] refused a candidate snapshot. Refusals leave
/// the currently-served index untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwapError {
    /// The offered snapshot's architecture fingerprint disagrees with the
    /// serving one — it was exported by a different model lineage and
    /// would silently change scoring semantics.
    FingerprintMismatch {
        /// Fingerprint of the index currently serving.
        current: u64,
        /// Fingerprint of the refused snapshot.
        offered: u64,
    },
    /// The offered snapshot's shape (`n_users`, `emb_dim`, `head_dim`)
    /// disagrees with the serving one — shard ranges and batched requests
    /// are sized against the current shape.
    ShapeMismatch {
        /// `(n_users, emb_dim, head_dim)` currently serving.
        current: (usize, usize, usize),
        /// `(n_users, emb_dim, head_dim)` of the refused snapshot.
        offered: (usize, usize, usize),
    },
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::FingerprintMismatch { current, offered } => write!(
                f,
                "snapshot fingerprint {offered:#018x} does not match serving fingerprint {current:#018x}"
            ),
            SwapError::ShapeMismatch { current, offered } => write!(
                f,
                "snapshot shape {offered:?} does not match serving shape {current:?} (n_users, emb_dim, head_dim)"
            ),
        }
    }
}

impl std::error::Error for SwapError {}

/// A [`TrustIndex`] behind a reader-writer lock: request workers score
/// under read locks while the live-event applier patches
/// refreshed head rows under short write locks. A frozen server wraps its
/// index here too and simply never writes.
#[derive(Debug)]
pub struct SharedIndex {
    inner: RwLock<TrustIndex>,
}

impl SharedIndex {
    /// Wraps an index for shared serving.
    pub fn new(index: TrustIndex) -> SharedIndex {
        SharedIndex {
            inner: RwLock::new(index),
        }
    }

    /// Read access for scoring. The guard pins one index version: every
    /// score taken under a single guard sees one consistent artifact.
    pub fn read(&self) -> RwLockReadGuard<'_, TrustIndex> {
        self.inner.read().expect("index lock poisoned")
    }

    /// [`SharedIndex::read`] for a top-k: the first call groups the
    /// trustee head ([`TrustIndex::group_trustees`]) under the write lock,
    /// once; every call then scores under a read guard.
    pub fn read_grouped(&self) -> RwLockReadGuard<'_, TrustIndex> {
        {
            let index = self.read();
            if index.is_grouped() {
                return index;
            }
        }
        self.inner
            .write()
            .expect("index lock poisoned")
            .group_trustees();
        self.read()
    }

    /// Applies a head patch under the write lock.
    ///
    /// # Errors
    ///
    /// As [`TrustIndex::apply_head_patch`]; the index is untouched on
    /// error.
    pub fn apply_head_patch(&self, patch: &HeadPatch) -> Result<(), String> {
        self.inner
            .write()
            .expect("index lock poisoned")
            .apply_head_patch(patch)
    }

    /// Atomically replaces the served index with a fully-built snapshot.
    ///
    /// The hot-swap discipline: callers build (decode/map + validate +
    /// panel layout) `new` **before** calling, and when the serving index
    /// was grouped, `new` is grouped here before the lock is taken, so the
    /// write lock is held only for two compatibility checks and a
    /// pointer-sized move. In-flight requests holding read guards finish against the
    /// old index; requests arriving after the lock drops see the new one
    /// — no request ever observes a half-swapped state, and a crash
    /// before this call leaves the old snapshot serving untouched.
    ///
    /// # Errors
    ///
    /// Refuses (and leaves the current index serving) when the offered
    /// snapshot's fingerprint or shape disagrees with the serving one —
    /// see [`SwapError`].
    pub fn swap(&self, mut new: TrustIndex) -> Result<(), SwapError> {
        if self.read().is_grouped() {
            new.group_trustees();
        }
        let mut guard = self.inner.write().expect("index lock poisoned");
        if guard.fingerprint() != new.fingerprint() {
            return Err(SwapError::FingerprintMismatch {
                current: guard.fingerprint(),
                offered: new.fingerprint(),
            });
        }
        let current = (guard.n_users(), guard.emb_dim(), guard.head_dim());
        let offered = (new.n_users(), new.emb_dim(), new.head_dim());
        if current != offered {
            return Err(SwapError::ShapeMismatch { current, offered });
        }
        // The defense prior is graph-derived state, not snapshot state: a
        // hot model swap keeps the active defense unless the incoming
        // index carries its own (the shape check above guarantees the
        // carried prior still covers every user).
        if new.defense.is_none() {
            new.defense = guard.defense.clone();
        }
        *guard = new;
        counter_add("serve.index.swaps", 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built artifact with unit head rows at known angles so every
    /// dot product is predictable.
    fn toy_index() -> TrustIndex {
        let artifact = TrustArtifact {
            model: "AHNTP".to_string(),
            fingerprint: 0,
            calibration: 0.5,
            n_users: 4,
            emb_dim: 2,
            head_dim: 2,
            embeddings: vec![0.0; 8].into(),
            // Trustor rows: all point along +x.
            trustor_head: vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0].into(),
            // Trustee rows at distinct angles: cos = 1, 0.6, 0, -1.
            trustee_head: vec![1.0, 0.0, 0.6, 0.8, 0.0, 1.0, -1.0, 0.0].into(),
        };
        TrustIndex::from_artifact(artifact).unwrap()
    }

    #[test]
    fn scores_are_the_calibrated_sigmoid_of_the_dot() {
        let index = toy_index();
        let sig = |cos: f32| 1.0 / (1.0 + (-cos / 0.5).exp());
        assert_eq!(index.score(0, 0).unwrap(), sig(1.0));
        assert_eq!(index.score(1, 1).unwrap(), sig(0.6));
        assert_eq!(index.score(2, 2).unwrap(), 0.5); // cos 0 → σ(0)
        assert_eq!(index.score(3, 3).unwrap(), sig(-1.0));
    }

    #[test]
    fn batch_scores_match_singles() {
        let index = toy_index();
        let pairs = [(0, 1), (1, 3), (3, 0), (2, 2)];
        let batch = index.score_pairs(&pairs).unwrap();
        for (&(u, v), &b) in pairs.iter().zip(&batch) {
            assert_eq!(index.score(u, v).unwrap(), b);
        }
    }

    #[test]
    fn out_of_range_users_are_typed_errors() {
        let index = toy_index();
        assert_eq!(
            index.score(0, 7),
            Err(ScoreError::UserOutOfRange {
                user: 7,
                n_users: 4
            })
        );
        assert!(index.score_pairs(&[(0, 1), (9, 0)]).is_err());
        assert!(index.top_k_trustees(4, 1).is_err());
        let msg = ScoreError::UserOutOfRange {
            user: 7,
            n_users: 4,
        }
        .to_string();
        assert!(msg.contains('7') && msg.contains('4'), "{msg}");
    }

    #[test]
    fn top_k_ranks_by_score_and_excludes_self() {
        let index = toy_index();
        // Trustor 0 scores trustees by cosine: u1 = 0.6, u2 = 0.0, u3 = -1.
        let top = index.top_k_trustees(0, 2).unwrap();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, 1);
        assert_eq!(top[1].0, 2);
        assert!(top[0].1 > top[1].1);
        assert_eq!(top[0].1, index.score(0, 1).unwrap());
        // k beyond the candidate count returns everyone but the trustor.
        let all = index.top_k_trustees(0, 10).unwrap();
        assert_eq!(
            all.iter().map(|&(u, _)| u).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        // k = 0 is empty, not an error.
        assert!(index.top_k_trustees(0, 0).unwrap().is_empty());
    }

    /// The documented deterministic tie-break: score descending, then
    /// user id ascending — asserted on exact ties.
    #[test]
    fn top_k_breaks_score_ties_by_ascending_user_id() {
        // Five trustees; ids 1, 2, 4 share one row bit-for-bit (dot 0.6
        // from trustor 0), id 3 scores higher, id 0 is the trustor.
        let tied = [0.6f32, 0.8];
        let artifact = TrustArtifact {
            model: "AHNTP".to_string(),
            fingerprint: 7,
            calibration: 0.5,
            n_users: 5,
            emb_dim: 2,
            head_dim: 2,
            embeddings: vec![0.0; 10].into(),
            trustor_head: [1.0, 0.0].repeat(5).into(),
            trustee_head: [&tied[..], &tied[..], &tied[..], &[1.0, 0.0][..], &tied[..]]
                .concat()
                .into(),
        };
        let index = TrustIndex::from_artifact(artifact).unwrap();
        let ids = |k: usize| -> Vec<usize> {
            index
                .top_k_trustees(0, k)
                .unwrap()
                .into_iter()
                .map(|(u, _)| u)
                .collect()
        };
        // Highest score first, then the tied block in ascending id.
        assert_eq!(ids(5), vec![3, 1, 2, 4]);
        // A k that cuts through the tied block keeps the same prefix.
        assert_eq!(ids(2), vec![3, 1]);
    }

    /// `k` is clamped to the candidate count before anything is allocated
    /// for it: a `k` past every candidate answers them all.
    #[test]
    fn a_huge_k_is_clamped_to_the_candidates() {
        let index = toy_index();
        let all = index.top_k_trustees(0, 3).unwrap();
        assert_eq!(index.top_k_trustees(0, 100_000_000_000).unwrap(), all);
        assert_eq!(index.top_k_trustees(0, usize::MAX).unwrap(), all);
        assert_eq!(
            index.top_k_trustees_in(0, usize::MAX, 1, 3).unwrap().len(),
            2
        );
        let defended = toy_index().with_defense(toy_defense(0.5)).unwrap();
        assert_eq!(defended.top_k_trustees(1, usize::MAX).unwrap().len(), 3);
    }

    /// Grouping changes which candidates a top-k scores, never what any
    /// query answers, and runs once however often it is asked for.
    #[test]
    fn grouping_runs_once_and_changes_no_answer() {
        ahntp_par::Context::fresh().run(|| {
            ahntp_telemetry::set_enabled(true);
            let n = 1000;
            let ungrouped = TrustIndex::from_artifact(wide_artifact(n)).unwrap();
            let mut grouped = ungrouped.clone();
            assert!(!grouped.is_grouped());
            grouped.group_trustees();
            grouped.group_trustees();
            assert!(grouped.is_grouped());
            assert_eq!(ahntp_telemetry::counter_get("serve.index.groupings"), 1);
            let pairs: Vec<(usize, usize)> = (0..n).map(|u| (u, (u * 7 + 3) % n)).collect();
            assert_eq!(
                ungrouped.score_pairs(&pairs).unwrap(),
                grouped.score_pairs(&pairs).unwrap()
            );
            let bits = |list: Vec<(usize, f32)>| -> Vec<(usize, u32)> {
                list.into_iter().map(|(v, s)| (v, s.to_bits())).collect()
            };
            for u in [0, 1, 499, 999] {
                for k in [1, 10, n] {
                    assert_eq!(
                        bits(ungrouped.top_k_trustees(u, k).unwrap()),
                        bits(grouped.top_k_trustees(u, k).unwrap()),
                        "top_k({u}, {k})"
                    );
                    assert_eq!(
                        bits(ungrouped.top_k_trustees_in(u, k, 250, 600).unwrap()),
                        bits(grouped.top_k_trustees_in(u, k, 250, 600).unwrap()),
                        "top_k_in({u}, {k})"
                    );
                }
            }
            // A unit query against unit rows in two groups skips at least
            // one of them.
            let scanned = ahntp_telemetry::counter_get("serve.topk.scanned");
            grouped.top_k_trustees(0, 1).unwrap();
            let grouped_scan = ahntp_telemetry::counter_get("serve.topk.scanned") - scanned;
            assert!(grouped_scan < n as u64, "scanned {grouped_scan} of {n}");
        });
    }

    /// The first top-k read groups the shared index, once; a swap while
    /// grouped hands over an index that is grouped already.
    #[test]
    fn the_shared_index_groups_on_its_first_top_k_read() {
        ahntp_par::Context::fresh().run(|| {
            ahntp_telemetry::set_enabled(true);
            let shared = SharedIndex::new(TrustIndex::from_artifact(wide_artifact(900)).unwrap());
            assert!(!shared.read().is_grouped(), "a plain read never groups");
            assert!(shared.read_grouped().is_grouped());
            assert!(shared.read_grouped().is_grouped());
            assert_eq!(ahntp_telemetry::counter_get("serve.index.groupings"), 1);
            shared
                .swap(TrustIndex::from_artifact(wide_artifact(900)).unwrap())
                .unwrap();
            assert!(shared.read().is_grouped(), "the incoming index was grouped");
            assert_eq!(ahntp_telemetry::counter_get("serve.index.groupings"), 2);
        });
    }

    #[test]
    fn loading_rejects_garbage_frames() {
        assert!(TrustIndex::load(b"definitely not an artifact").is_err());
    }

    #[test]
    fn head_patches_update_exactly_the_named_rows() {
        // Under a context of its own, so the counter below counts from zero.
        ahntp_par::Context::fresh().run(|| {
            ahntp_telemetry::set_enabled(true);
            let mut index = toy_index();
            let sig = |cos: f32| 1.0 / (1.0 + (-cos / 0.5).exp());
            let patch = HeadPatch {
                users: vec![1, 3],
                emb_dim: 2,
                head_dim: 2,
                emb_rows: vec![0.5, 0.5, -0.5, -0.5],
                trustor_rows: vec![0.0, 1.0, 1.0, 0.0],
                trustee_rows: vec![1.0, 0.0, 0.0, -1.0],
            };
            index.apply_head_patch(&patch).unwrap();
            // Patched rows answer with the new geometry: trustor 1 now points
            // along +y, trustee 3 along −y.
            assert_eq!(index.score(1, 2).unwrap(), sig(1.0));
            assert_eq!(index.score(0, 3).unwrap(), 0.5);
            // Rows the patch did not name are untouched.
            assert_eq!(index.score(2, 2).unwrap(), 0.5);
            assert_eq!(index.score(0, 0).unwrap(), sig(1.0));
            assert_eq!(ahntp_telemetry::counter_get("serve.index.patched_rows"), 2);
        });
    }

    #[test]
    fn bad_head_patches_are_rejected_and_leave_the_index_alone() {
        let mut index = toy_index();
        let before = index.score_pairs(&[(0, 1), (2, 3)]).unwrap();
        // Inconsistent row buffer.
        let mut patch = HeadPatch::empty(2, 2);
        patch.users = vec![0];
        assert!(index.apply_head_patch(&patch).is_err());
        // Dimension mismatch.
        let patch = HeadPatch {
            users: vec![0],
            emb_dim: 3,
            head_dim: 2,
            emb_rows: vec![0.0; 3],
            trustor_rows: vec![1.0, 0.0],
            trustee_rows: vec![1.0, 0.0],
        };
        let err = index.apply_head_patch(&patch).unwrap_err();
        assert!(err.contains("do not match"), "{err}");
        // Out-of-range user.
        let patch = HeadPatch {
            users: vec![9],
            emb_dim: 2,
            head_dim: 2,
            emb_rows: vec![0.0; 2],
            trustor_rows: vec![1.0, 0.0],
            trustee_rows: vec![1.0, 0.0],
        };
        let err = index.apply_head_patch(&patch).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        assert_eq!(index.score_pairs(&[(0, 1), (2, 3)]).unwrap(), before);
        // The empty patch is a no-op, not an error.
        assert!(index.apply_head_patch(&HeadPatch::empty(2, 2)).is_ok());
    }

    #[test]
    fn shared_index_serves_reads_and_applies_writes() {
        let shared = SharedIndex::new(toy_index());
        let before = shared.read().score(0, 1).unwrap();
        let patch = HeadPatch {
            users: vec![1],
            emb_dim: 2,
            head_dim: 2,
            emb_rows: vec![0.0, 0.0],
            trustor_rows: vec![0.0, 1.0],
            trustee_rows: vec![1.0, 0.0],
        };
        shared.apply_head_patch(&patch).unwrap();
        let after = shared.read().score(0, 1).unwrap();
        // Trustee 1 rotated from cos 0.6 to cos 1.0.
        assert!(after > before, "{after} vs {before}");
    }

    #[test]
    fn range_top_k_unions_reproduce_the_full_scan() {
        let artifact = wide_artifact(23);
        let index = TrustIndex::from_artifact(artifact).unwrap();
        for trustor in [0usize, 7, 22] {
            for k in [1usize, 5, 23] {
                let want = index.top_k_trustees(trustor, k).unwrap();
                // Split 0..23 unevenly, merge per-range results under the
                // documented tie-break, truncate — must match bitwise.
                let mut merged: Vec<(usize, f32)> = Vec::new();
                for (lo, hi) in [(0usize, 9usize), (9, 10), (10, 23)] {
                    merged.extend(index.top_k_trustees_in(trustor, k, lo, hi).unwrap());
                }
                merged.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                merged.truncate(k);
                let got: Vec<(usize, u32)> =
                    merged.into_iter().map(|(u, s)| (u, s.to_bits())).collect();
                let want: Vec<(usize, u32)> =
                    want.into_iter().map(|(u, s)| (u, s.to_bits())).collect();
                assert_eq!(want, got, "trustor {trustor}, k {k}");
            }
        }
        // Ranges clamp and empty ranges are empty, not errors.
        assert!(index.top_k_trustees_in(0, 3, 23, 23).unwrap().is_empty());
        assert!(index.top_k_trustees_in(0, 3, 9, 4).unwrap().is_empty());
        assert_eq!(
            index.top_k_trustees_in(0, 3, 20, 99).unwrap(),
            index.top_k_trustees_in(0, 3, 20, 23).unwrap()
        );
        // The trustor itself may lie outside the candidate range.
        assert!(index.top_k_trustees_in(0, 3, 5, 9).is_ok());
        assert!(index.top_k_trustees_in(99, 3, 0, 23).is_err());
    }

    #[test]
    fn swap_replaces_compatible_snapshots_and_refuses_mismatches() {
        let shared = SharedIndex::new(toy_index());
        let before = shared.read().score(0, 1).unwrap();

        // A compatible snapshot (same fingerprint and shape) swaps in.
        let mut replacement = toy_index();
        let patch = HeadPatch {
            users: vec![1],
            emb_dim: 2,
            head_dim: 2,
            emb_rows: vec![0.0, 0.0],
            trustor_rows: vec![1.0, 0.0],
            trustee_rows: vec![1.0, 0.0], // trustee 1: cos 0.6 → 1.0
        };
        replacement.apply_head_patch(&patch).unwrap();
        shared.swap(replacement).unwrap();
        assert!(shared.read().score(0, 1).unwrap() > before);

        // A fingerprint mismatch is refused and the served index is
        // untouched.
        let mut artifact = TrustArtifact {
            model: "AHNTP".to_string(),
            fingerprint: 0xbad,
            calibration: 0.5,
            n_users: 4,
            emb_dim: 2,
            head_dim: 2,
            embeddings: vec![0.0; 8].into(),
            trustor_head: [1.0, 0.0].repeat(4).into(),
            trustee_head: [0.0, 1.0].repeat(4).into(),
        };
        let stranger = TrustIndex::from_artifact(artifact.clone()).unwrap();
        let err = shared.swap(stranger).unwrap_err();
        assert!(
            matches!(err, SwapError::FingerprintMismatch { offered: 0xbad, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("fingerprint"), "{err}");

        // Same fingerprint, different shape: also refused.
        artifact.fingerprint = 0;
        artifact.n_users = 3;
        artifact.embeddings = vec![0.0; 6].into();
        artifact.trustor_head = [1.0, 0.0].repeat(3).into();
        artifact.trustee_head = [0.0, 1.0].repeat(3).into();
        let shrunk = TrustIndex::from_artifact(artifact).unwrap();
        let err = shared.swap(shrunk).unwrap_err();
        assert!(matches!(err, SwapError::ShapeMismatch { .. }), "{err}");
        assert_eq!(
            shared.read().n_users(),
            4,
            "refusals leave the index serving"
        );
    }

    /// Many-user index with distinct head angles so rankings are
    /// nontrivial and dots collide only where calibration rounds.
    fn wide_artifact(n_users: usize) -> TrustArtifact {
        let row = |i: usize| {
            let a = i as f32 * 0.37;
            vec![a.cos(), a.sin()]
        };
        TrustArtifact {
            model: "AHNTP".to_string(),
            fingerprint: 0,
            calibration: 0.5,
            n_users,
            emb_dim: 2,
            head_dim: 2,
            embeddings: vec![0.0; n_users * 2].into(),
            trustor_head: (0..n_users).flat_map(row).collect(),
            trustee_head: (0..n_users).rev().flat_map(row).collect(),
        }
    }

    #[test]
    fn parallel_scoring_is_bitwise_identical_to_serial_for_every_backend() {
        let artifact = wide_artifact(41); // ragged over every band size below
        let pairs: Vec<(usize, usize)> = (0..37).map(|i| (i % 41, (i * 7 + 3) % 41)).collect();
        // Batch scores and every user's top-5 as bits, with the banded
        // path forced (threshold 0) — index construction included.
        let surface_at = |t: usize| -> (Vec<u32>, Vec<Vec<(usize, u32)>>) {
            ahntp_par::with_pool(t, 0, || {
                let index = TrustIndex::from_artifact(artifact.clone()).unwrap();
                let scores = index
                    .score_pairs(&pairs)
                    .unwrap()
                    .iter()
                    .map(|s| s.to_bits())
                    .collect();
                let topk = (0..41)
                    .map(|u| {
                        index
                            .top_k_trustees(u, 5)
                            .unwrap()
                            .into_iter()
                            .map(|(v, s)| (v, s.to_bits()))
                            .collect()
                    })
                    .collect();
                (scores, topk)
            })
        };
        let (scores_serial, topk_serial) = surface_at(1);
        for t in [2usize, 7] {
            let (scores, topk) = surface_at(t);
            assert_eq!(scores_serial, scores, "score_pairs at {t} threads");
            for (u, (want, got)) in topk_serial.iter().zip(&topk).enumerate() {
                assert_eq!(want, got, "top_k_trustees({u}) at {t} threads");
            }
        }
    }

    /// The `RwLock` is all that stands between live updates and torn reads:
    /// readers score while one thread hot-swaps between two snapshots and
    /// another patches every row over to one or the other, and each answer
    /// must be one snapshot's in full — never a mix of rows.
    #[test]
    fn concurrent_swaps_and_patches_never_tear_a_read() {
        use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
        const N: usize = 64;
        let a = wide_artifact(N);
        let mut b = a.clone();
        b.trustee_head = a
            .trustee_head
            .iter()
            .map(|x| -x)
            .collect::<Vec<f32>>()
            .into();
        let snapshots = [&a, &b].map(|art| TrustIndex::from_artifact(art.clone()).unwrap());
        let patches = [&a, &b].map(|art| HeadPatch {
            users: (0..N).collect(),
            emb_dim: art.emb_dim,
            head_dim: art.head_dim,
            emb_rows: art.embeddings.to_vec(),
            trustor_rows: art.trustor_head.to_vec(),
            trustee_rows: art.trustee_head.to_vec(),
        });
        let pairs: Vec<(usize, usize)> = (0..N).map(|i| (i, (i * 7 + 3) % N)).collect();
        let answer = |index: &TrustIndex| -> Vec<u32> {
            index
                .score_pairs(&pairs)
                .unwrap()
                .iter()
                .map(|s| s.to_bits())
                .collect()
        };
        let answers = snapshots.each_ref().map(answer);
        assert_ne!(
            answers[0], answers[1],
            "the snapshots must score differently"
        );

        for threads in [1usize, 4] {
            // Threshold 0: at 4 threads every read is banded over the pool
            // while its submitter holds the read guard.
            ahntp_par::with_pool(threads, 0, || {
                let shared = SharedIndex::new(snapshots[0].clone());
                let stop = AtomicBool::new(false);
                let until_stopped = |write: &dyn Fn(usize)| {
                    (0..).take_while(|_| !stop.load(Relaxed)).for_each(write)
                };
                std::thread::scope(|s| {
                    for _ in 0..threads {
                        s.spawn(|| {
                            until_stopped(&|_| {
                                let got = answer(&shared.read());
                                assert!(answers.contains(&got), "torn read: {got:08x?}");
                            })
                        });
                    }
                    s.spawn(|| until_stopped(&|i| shared.swap(snapshots[i % 2].clone()).unwrap()));
                    s.spawn(|| {
                        until_stopped(&|i| shared.apply_head_patch(&patches[i % 2]).unwrap())
                    });
                    std::thread::sleep(std::time::Duration::from_millis(400));
                    stop.store(true, Relaxed);
                });
            });
        }
    }

    /// The trustee head is held once: building from an owned artifact
    /// re-lays the artifact's own allocation into panels. A copying build
    /// fails this.
    #[test]
    fn the_trustee_head_is_re_laid_in_place() {
        let artifact = wide_artifact(53);
        let allocation = artifact.trustee_head.as_ptr();
        let index = TrustIndex::from_artifact(artifact).unwrap();
        assert_eq!(index.heads.trustee.as_ptr(), allocation);
    }

    /// `is_mapped` reports what is still a view of the file: after `open`
    /// the embeddings and trustor head are, and the first live patch
    /// copies them (the trustee head is panels either way).
    #[test]
    fn open_reports_the_mapped_views_until_a_patch_copies_them() {
        let path = std::env::temp_dir().join(format!(
            "ahntp-index-mapped-{}-{:?}.ahntpsrv",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&path, wide_artifact(20).encode_v2()).unwrap();
        let opened = TrustIndex::open(&path);
        let _ = std::fs::remove_file(&path);
        let mut index = opened.unwrap();
        assert!(
            index.is_mapped(),
            "embeddings and trustor head map zero-copy"
        );
        let before = index.score(0, 5).unwrap();
        let patch = HeadPatch {
            users: vec![0],
            emb_dim: 2,
            head_dim: 2,
            emb_rows: vec![0.0, 0.0],
            trustor_rows: vec![0.0, 1.0],
            trustee_rows: index.heads.trustee.row(0),
        };
        index.apply_head_patch(&patch).unwrap();
        assert!(!index.is_mapped(), "a trustor-row patch copies the views");
        assert_ne!(index.score(0, 5).unwrap(), before);
    }

    // ------------------------- defended scoring -------------------------

    fn toy_defense(alpha: f32) -> DefensePrior {
        // Trustees 0-2 honest (full prior), trustee 3 Sybil (no prior).
        DefensePrior::new(alpha, vec![1.0, 1.0, 1.0, 0.0]).unwrap()
    }

    #[test]
    fn defense_prior_validates_its_inputs() {
        assert!(DefensePrior::new(0.0, vec![0.5]).is_ok());
        assert!(DefensePrior::new(1.0, vec![0.5]).is_ok());
        assert!(DefensePrior::new(-0.1, vec![0.5]).is_err());
        assert!(DefensePrior::new(1.1, vec![0.5]).is_err());
        assert!(DefensePrior::new(f32::NAN, vec![0.5]).is_err());
        assert!(DefensePrior::new(0.5, vec![]).is_err());
        assert!(DefensePrior::new(0.5, vec![0.5, 1.5]).is_err());
        assert!(DefensePrior::new(0.5, vec![f32::NAN]).is_err());
        // Length must match the index.
        let err = toy_index().with_defense(DefensePrior::new(0.5, vec![1.0]).unwrap());
        assert!(err.is_err());
    }

    #[test]
    fn defended_scores_are_the_documented_blend() {
        let raw = toy_index();
        let alpha = 0.4f32;
        let index = toy_index().with_defense(toy_defense(alpha)).unwrap();
        assert!(index.defended() && !raw.defended());
        assert_eq!(index.defense().unwrap().alpha(), alpha);
        for (u, v, prior) in [(0, 1, 1.0f32), (1, 3, 0.0), (2, 0, 1.0)] {
            let learned = raw.score(u, v).unwrap();
            let expected = (1.0 - alpha) * learned + alpha * prior;
            assert_eq!(index.score(u, v).unwrap(), expected, "score({u}, {v})");
        }
        // Batch path blends identically.
        let pairs = [(0, 1), (1, 3), (2, 0), (3, 2)];
        let batch = index.score_pairs(&pairs).unwrap();
        for (&(u, v), &b) in pairs.iter().zip(&batch) {
            assert_eq!(index.score(u, v).unwrap(), b, "batch score({u}, {v})");
        }
        // alpha = 0 serves the raw learned score bitwise.
        let undefended = toy_index().with_defense(toy_defense(0.0)).unwrap();
        for &(u, v) in &pairs {
            assert_eq!(
                undefended.score(u, v).unwrap().to_bits(),
                raw.score(u, v).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn defended_top_k_lets_the_prior_rerank() {
        // Undefended, trustor 0 ranks trustees 1 > 2 > 3 by cosine. With
        // a prior of 0 on trustee 1 (treat it as the Sybil) and a strong
        // alpha, trustee 1 must fall to the bottom.
        let prior = DefensePrior::new(0.9, vec![1.0, 0.0, 1.0, 1.0]).unwrap();
        let index = toy_index().with_defense(prior).unwrap();
        let got: Vec<usize> = index
            .top_k_trustees(0, 3)
            .unwrap()
            .into_iter()
            .map(|(u, _)| u)
            .collect();
        assert_eq!(
            got,
            vec![2, 3, 1],
            "prior must be able to demote a candidate"
        );
        // Entries agree with the pair-scoring path bitwise.
        for (u, s) in index.top_k_trustees(0, 3).unwrap() {
            assert_eq!(s.to_bits(), index.score(0, u).unwrap().to_bits());
        }
        // Range unions still reproduce the full defended scan.
        let full = index.top_k_trustees(0, 3).unwrap();
        let mut merged: Vec<(usize, f32)> = [(0usize, 2usize), (2, 4)]
            .iter()
            .flat_map(|&(lo, hi)| index.top_k_trustees_in(0, 3, lo, hi).unwrap())
            .collect();
        merged.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        merged.truncate(3);
        assert_eq!(
            full.iter()
                .map(|&(u, s)| (u, s.to_bits()))
                .collect::<Vec<_>>(),
            merged
                .iter()
                .map(|&(u, s)| (u, s.to_bits()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn defense_survives_clone_backend_rebuild_and_swap() {
        let index = toy_index().with_defense(toy_defense(0.5)).unwrap();
        assert!(index.clone().defended(), "Clone must carry the defense");
        // A hot swap keeps the active defense when the snapshot has none…
        let shared = SharedIndex::new(index);
        shared.swap(toy_index()).unwrap();
        assert!(
            shared.read().defended(),
            "swap must keep the active defense"
        );
        assert_eq!(shared.read().defense().unwrap().alpha(), 0.5);
        // …and honors the snapshot's own defense when it has one.
        let replacement = toy_index().with_defense(toy_defense(0.25)).unwrap();
        shared.swap(replacement).unwrap();
        assert_eq!(shared.read().defense().unwrap().alpha(), 0.25);
        // `without_defense` detaches.
        assert!(!toy_index()
            .with_defense(toy_defense(0.5))
            .unwrap()
            .without_defense()
            .defended());
    }
}
