//! Run ledger: one JSONL file per training run.
//!
//! Each line is a self-contained JSON object with a `kind` field:
//!
//! * `{"kind":"run_start","run":...,"seq":0,...}` — run name + config.
//! * `{"kind":"epoch","seq":n,"epoch":e,"loss":...,"wall_us":...,
//!   "grad_norm":...}` — one per completed epoch. When per-kernel
//!   profiling is on (`AHNTP_PROFILE=1`), an extra
//!   `"profile":{"matmul":us,...}` object attributes the epoch's
//!   wall-clock per kernel family.
//! * `{"kind":"event","seq":n,...}` — free-form milestones.
//! * `{"kind":"run_end","seq":n,"final":{...},"metrics":{...}}` — final
//!   report plus a metrics-registry snapshot.
//!
//! `seq` is a strictly increasing per-ledger sequence number, so two
//! ledgers can be diffed line-by-line with ordinary text tools. The
//! default directory is `target/telemetry/` (override with
//! `AHNTP_TELEMETRY_DIR`); tests should use [`RunLedger::create_in`] to
//! avoid racing on process-wide environment state.

use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::metrics::metrics_snapshot_json;
use crate::{info, warn};

/// Directory ledgers are written to: `AHNTP_TELEMETRY_DIR` if set,
/// otherwise `target/telemetry` under the current directory.
pub fn default_ledger_dir() -> PathBuf {
    match std::env::var("AHNTP_TELEMETRY_DIR") {
        Ok(dir) if !dir.trim().is_empty() => PathBuf::from(dir),
        _ => PathBuf::from("target").join("telemetry"),
    }
}

/// An open JSONL run ledger. Lines are flushed as they are written, so a
/// crashed run still leaves a readable prefix.
pub struct RunLedger {
    writer: BufWriter<File>,
    path: PathBuf,
    seq: u64,
}

impl RunLedger {
    /// Opens `<default_ledger_dir()>/<run>.jsonl` and writes the
    /// `run_start` record. Returns `None` (with a warning) if the
    /// filesystem refuses — telemetry must never kill a training run.
    pub fn create(run: &str, config: Json) -> Option<RunLedger> {
        Self::create_in(&default_ledger_dir(), run, config)
    }

    /// As [`RunLedger::create`] but with an explicit directory; the
    /// env-independent entry point tests should use.
    pub fn create_in(dir: &Path, run: &str, config: Json) -> Option<RunLedger> {
        if let Err(e) = fs::create_dir_all(dir) {
            warn!("ledger", "cannot create {}: {e}", dir.display());
            return None;
        }
        let path = dir.join(format!("{run}.jsonl"));
        let file = match File::create(&path) {
            Ok(f) => f,
            Err(e) => {
                warn!("ledger", "cannot open {}: {e}", path.display());
                return None;
            }
        };
        let mut ledger = RunLedger {
            writer: BufWriter::new(file),
            path,
            seq: 0,
        };
        ledger.write_record("run_start", [("run", Json::from(run)), ("config", config)]);
        info!(
            "ledger",
            "recording run {run:?} to {}",
            ledger.path.display()
        );
        Some(ledger)
    }

    /// Path of the underlying `.jsonl` file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records one completed epoch with an optional per-kernel profile
    /// object (`{"matmul": us, "csr": us, ...}` — see
    /// [`crate::KernelProfile::to_json`]). The per-kernel µs are *self*
    /// times, so they sum to ≤ `wall_us`.
    pub fn epoch_profiled(
        &mut self,
        epoch: usize,
        loss: f64,
        wall_us: u64,
        grad_norm: f64,
        profile: Option<Json>,
    ) {
        let mut fields = vec![
            ("epoch", Json::from(epoch)),
            ("loss", Json::from(loss)),
            ("wall_us", Json::from(wall_us)),
            ("grad_norm", Json::from(grad_norm)),
        ];
        if let Some(profile) = profile {
            fields.push(("profile", profile));
        }
        self.write_record("epoch", fields);
    }

    /// Records a free-form event (e.g. `early_stop`, `divergence`).
    pub fn event(&mut self, name: &str, fields: impl IntoIterator<Item = (&'static str, Json)>) {
        let mut all = vec![("event", Json::from(name))];
        all.extend(fields);
        self.write_record("event", all);
    }

    /// Writes the `run_end` record: caller-supplied final fields plus a
    /// snapshot of every registered metric, then flushes.
    pub fn finish(mut self, final_fields: impl IntoIterator<Item = (&'static str, Json)>) {
        let metrics = metrics_snapshot_json();
        let mut fields: Vec<(&'static str, Json)> = final_fields.into_iter().collect();
        fields.push(("metrics", metrics));
        self.write_record("run_end", fields);
        let _ = self.writer.flush();
    }

    fn write_record(&mut self, kind: &str, fields: impl IntoIterator<Item = (&'static str, Json)>) {
        let mut obj = Json::obj([("kind", Json::from(kind)), ("seq", Json::from(self.seq))]);
        if let Json::Obj(map) = &mut obj {
            for (k, v) in fields {
                map.insert(k.to_string(), v);
            }
        }
        self.seq += 1;
        let line = obj.to_line();
        if writeln!(self.writer, "{line}")
            .and_then(|_| self.writer.flush())
            .is_err()
        {
            // Disk full / closed fd: drop silently, training must go on.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::tests::enabled_context;
    use crate::json::parse;
    use crate::metrics::counter_add;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ahntp-telemetry-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn ledger_round_trips_through_the_parser() {
        enabled_context(ledger_round_trip);
    }

    fn ledger_round_trip() {
        let dir = temp_dir("roundtrip");
        let mut ledger = RunLedger::create_in(
            &dir,
            "unit",
            Json::obj([("epochs", 3usize.into()), ("lr", 0.01f64.into())]),
        )
        .expect("ledger should open in temp dir");
        let path = ledger.path().to_path_buf();

        counter_add("test.ledger.counter", 5);
        ledger.epoch_profiled(0, 0.9, 1200, 0.4, None);
        ledger.epoch_profiled(1, 0.5, 1100, 0.2, None);
        ledger.event("early_stop", [("epoch", Json::from(1usize))]);
        ledger.finish([("best_loss", Json::from(0.5f64))]);

        let text = fs::read_to_string(&path).unwrap();
        let records: Vec<_> = text
            .lines()
            .map(|l| parse(l).expect("every ledger line parses"))
            .collect();
        assert_eq!(records.len(), 5);

        // seq strictly increases from 0.
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.get("seq").and_then(Json::as_f64), Some(i as f64));
        }
        assert_eq!(
            records[0].get("kind").and_then(Json::as_str),
            Some("run_start")
        );
        assert_eq!(
            records[0]
                .get("config")
                .and_then(|c| c.get("epochs"))
                .and_then(Json::as_f64),
            Some(3.0)
        );
        assert_eq!(records[1].get("loss").and_then(Json::as_f64), Some(0.9));
        assert_eq!(
            records[2].get("grad_norm").and_then(Json::as_f64),
            Some(0.2)
        );
        assert_eq!(
            records[3].get("event").and_then(Json::as_str),
            Some("early_stop")
        );
        let end = records.last().unwrap();
        assert_eq!(end.get("kind").and_then(Json::as_str), Some("run_end"));
        assert_eq!(end.get("best_loss").and_then(Json::as_f64), Some(0.5));
        // The metrics snapshot made it into run_end.
        let metrics = end.get("metrics").expect("run_end carries metrics");
        assert_eq!(metrics.to_line(), r#"{"test.ledger.counter":5}"#);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_dir_degrades_to_none() {
        // A path under a regular *file* cannot be created as a directory.
        let dir = temp_dir("blocked");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("occupied");
        fs::write(&file, b"x").unwrap();
        let ledger = RunLedger::create_in(&file.join("sub"), "r", Json::Null);
        assert!(ledger.is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
