//! `serve_live`: writes beside reads. One connection posts trust events
//! (one writer, so the event order is deterministic and write latency is
//! free of writer-writer queueing) while a second reads `/score` and
//! `/topk` until the writer stops.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use ahntp::Ahntp;
use ahntp_data::{DatasetConfig, Split, TrustDataset};
use ahntp_eval::TrustModel;
use ahntp_serve::{serve_live, ServerHandle};
use ahntp_stream::{EventApplier, LiveTrustModel, StalenessBound, TrustEvent};
use ahntp_telemetry::json::{parse, Json};

use crate::gen::{events_body, pair_batches, score_body, topk_users, EventGen, EVENTS_PER_REQUEST};
use crate::host::process_cpu_us;
use crate::http::Client;
use crate::serve::{
    index_of, serve_config, server_traces, stage_times, stitch_server_spans, Connection,
    PAIRS_PER_REQUEST, TOP_K,
};
use crate::span::SpanLog;
use crate::stats::median;
use crate::train::{model_config, DATA_SEED};
use crate::workload::{fnv1a, Opts, Ready, Timed, Workload};

/// Users in the Ciao-like dataset (the repo's default scale).
pub const USERS: usize = 220;
/// The reader's rest between two reads (about 150 reads a second).
const READ_PAUSE: Duration = Duration::from_millis(5);
/// Epochs the served model is trained for during set-up.
pub const TRAIN_EPOCHS: usize = 20;

pub fn dataset(users: usize, seed: u64) -> (TrustDataset, Split) {
    let ds = TrustDataset::generate(&DatasetConfig::ciao_like(users, DATA_SEED));
    let split = ds.split(0.8, 0.2, 2, seed);
    (ds, split)
}

fn new_model(ds: &TrustDataset, split: &Split, seed: u64) -> Ahntp {
    Ahntp::new(
        &ds.features,
        &ds.attributes,
        &split.train_graph,
        &model_config(seed),
    )
}

struct Live {
    /// Held for its `Drop`, which stops the server and joins its threads.
    _server: ServerHandle,
    addr: SocketAddr,
    seed: u64,
    ds: TrustDataset,
    split: Split,
    /// The trained weights the server started from.
    checkpoint: Vec<u8>,
    gen: EventGen,
    reads: Vec<(&'static str, String, String)>,
    reads_sent: usize,
    writes_sent: u64,
    /// What the mirror oracle replays: the warm-up batches, and what the
    /// server answered for the probe pairs right after them.
    warm_events: Vec<Vec<TrustEvent>>,
    probe_pairs: Vec<(usize, usize)>,
    served_probe: Vec<f64>,
    bad_replies: Vec<String>,
    /// Client-side latency of every measured `/events` request, µs: a
    /// diagnostic beside the CPU cost that is the workload's sample.
    events_wall_us: Vec<f64>,
    stitch: HashMap<u64, usize>,
    corrupt: bool,
}

pub fn setup(opts: &Opts) -> Ready {
    let started = process_cpu_us();
    let (users, epochs, warm_requests) = if opts.quick {
        (40, 2, 3)
    } else {
        (USERS, TRAIN_EPOCHS, 6)
    };
    let seed = opts.seed;
    let (ds, split) = dataset(users, seed);
    // The factory runs on the server's applier thread (the model is not
    // `Send`); what the oracle needs comes back over a channel.
    let (tx, rx) = mpsc::channel();
    let (factory_ds, factory_split) = (ds.clone(), split.clone());
    let server = serve_live(
        move || {
            let mut model = new_model(&factory_ds, &factory_split, seed);
            let losses: Vec<f32> = (0..epochs)
                .map(|_| model.train_epoch(&factory_split.train))
                .collect();
            let _ = tx.send((model.save(), model.hyperedge_counts(), losses));
            Box::new(model) as Box<dyn LiveTrustModel>
        },
        StalenessBound::default(),
        &serve_config(),
    )
    .expect("start live server");
    let (checkpoint, (node_edges, struct_edges), losses) = rx.recv().expect("factory reported");
    let addr = server.addr();
    let reads = pair_batches(seed, users, 64, PAIRS_PER_REQUEST)
        .iter()
        .zip(topk_users(seed, users, 64))
        .flat_map(|(pairs, user)| {
            [
                ("POST", "/score".to_string(), score_body(pairs)),
                ("GET", format!("/topk?user={user}&k={TOP_K}"), String::new()),
            ]
        })
        .collect();
    let mut live = Live {
        _server: server,
        addr,
        seed,
        ds,
        split,
        checkpoint,
        gen: EventGen::new(seed, users, node_edges, struct_edges),
        reads,
        reads_sent: 0,
        writes_sent: 0,
        warm_events: Vec::new(),
        probe_pairs: (0..users).map(|u| (u, (u * 7 + 3) % users)).collect(),
        served_probe: Vec::new(),
        bad_replies: Vec::new(),
        events_wall_us: Vec::new(),
        stitch: HashMap::new(),
        corrupt: opts.corrupt,
    };
    let warm = live.drive(
        Some(warm_requests),
        f64::INFINITY,
        &mut SpanLog::new(false, 0),
    );
    assert_eq!(
        warm.failed, 0,
        "warm-up requests failed: {:?}",
        live.bad_replies
    );
    let setup_s = (process_cpu_us() - started) / 1e6;
    live.served_probe = live.fetch_probe_scores();
    let fingerprint = fnv1a(losses.iter().flat_map(|l| l.to_bits().to_le_bytes()));
    Ready {
        workload: Box::new(live),
        setup_s,
        fingerprint,
    }
}

impl Live {
    fn fetch_probe_scores(&self) -> Vec<f64> {
        let reply = Client::connect(self.addr)
            .and_then(|mut c| c.post("/score", &score_body(&self.probe_pairs)))
            .expect("probe /score");
        let doc = parse(&reply.body).expect("probe /score answers JSON");
        match doc.get("scores") {
            Some(Json::Arr(scores)) => scores.iter().filter_map(Json::as_f64).collect(),
            _ => Vec::new(),
        }
    }

    /// Writer and reader side by side until the writer has sent `limit`
    /// requests or `seconds` have passed.
    fn drive(&mut self, limit: Option<usize>, seconds: f64, log: &mut SpanLog) -> Timed {
        let (addr, trace, warming) = (self.addr, log.enabled(), limit.is_some());
        let (gen, reads) = (&mut self.gen, &self.reads);
        let (reads_sent, writes_sent) = (self.reads_sent, self.writes_sent);
        let writer_done = AtomicBool::new(false);
        let started = Instant::now();
        let (writer, batches, wall_us, reader) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let mut c = Connection::open(addr, trace, 1);
                let (mut batches, mut wall_us) = (Vec::new(), Vec::new());
                for i in 0.. {
                    if limit.is_some_and(|l| i >= l) || started.elapsed().as_secs_f64() >= seconds {
                        break;
                    }
                    let events = gen.next_request();
                    let body = events_body(&events);
                    if warming {
                        batches.push(events);
                    }
                    let op = writes_sent + i as u64;
                    // What the request cost the process, not how long
                    // the writer waited: applying four events keeps one
                    // thread computing for tens of milliseconds, and on
                    // a shared host the wait also counts what was stolen
                    // meanwhile. The paced reader's share rides along.
                    let cpu = process_cpu_us();
                    if let Some((latency_us, reply)) = c.exchange(op, "POST", "/events", &body) {
                        c.timed.samples_us.push(process_cpu_us() - cpu);
                        c.timed.work += EVENTS_PER_REQUEST as f64;
                        wall_us.push(latency_us);
                        if let Err(why) = check_events_reply(&reply) {
                            c.bad.push(format!("POST /events answered {reply}: {why}"));
                        }
                    }
                }
                writer_done.store(true, Ordering::SeqCst);
                (c, batches, wall_us)
            });
            let reader = scope.spawn(|| {
                let mut c = Connection::open(addr, trace, 2);
                for i in 0.. {
                    if writer_done.load(Ordering::SeqCst) {
                        break;
                    }
                    // A presence beside the writer, not a load: the
                    // reader's CPU time lands in the writer's samples.
                    std::thread::sleep(READ_PAUSE);
                    let (method, target, body) = &reads[(reads_sent + i) % reads.len()];
                    let op = (1u64 << 32) | (reads_sent + i) as u64;
                    match c.exchange(op, method, target, body) {
                        Some((_, reply)) if reply.is_empty() => {
                            c.bad.push(format!("{method} {target}: empty body"));
                        }
                        Some(_) | None => {}
                    }
                }
                c
            });
            let (writer, batches, wall_us) = writer.join().expect("writer thread");
            (
                writer,
                batches,
                wall_us,
                reader.join().expect("reader thread"),
            )
        });
        if !warming {
            self.events_wall_us.extend(wall_us);
        }
        self.writes_sent += writer.timed.attempted;
        self.reads_sent += reader.timed.attempted as usize;
        self.warm_events.extend(batches);
        // The samples and the work are the writer's; the reader adds its
        // attempts, failures and complaints.
        let mut timed = writer.finish(log, &mut self.stitch, &mut self.bad_replies);
        timed.absorb(reader.finish(log, &mut self.stitch, &mut self.bad_replies));
        timed.wall_s = started.elapsed().as_secs_f64();
        timed
    }

    /// Replays the warm-up batches through a mirror applier built from
    /// the same weights and compares what the server served right after
    /// them with the mirror's index.
    fn mirror_mismatch(&self) -> Option<String> {
        let model = new_model(&self.ds, &self.split, self.seed);
        if let Err(e) = model.load(&self.checkpoint) {
            return Some(format!("mirror could not load the served checkpoint: {e}"));
        }
        let mut index = index_of(Ahntp::export_artifact(&model));
        let mut applier = EventApplier::new(model, StalenessBound::default());
        for event in self.warm_events.iter().flatten() {
            if let Err(e) = applier.apply(event) {
                return Some(format!("mirror rejected a generated event: {e}"));
            }
            match applier.maybe_refresh() {
                Ok(Some(patch)) => index.apply_head_patch(&patch).expect("mirror patch"),
                Ok(None) => {}
                Err(e) => return Some(format!("mirror refresh failed: {e}")),
            }
        }
        let mut want = index
            .score_pairs(&self.probe_pairs)
            .expect("probe pairs in range");
        if self.corrupt {
            want[0] += 0.5;
        }
        if want.len() != self.served_probe.len() {
            return Some(format!(
                "{} probe scores served, {} expected",
                self.served_probe.len(),
                want.len()
            ));
        }
        want.iter()
            .zip(&self.served_probe)
            .enumerate()
            .find_map(|(i, (w, got))| {
                ((f64::from(*w) - got).abs() > 1e-6).then(|| {
                    format!(
                        "probe pair {i}: served {got}, mirror {w} after {} events",
                        self.warm_events.len() * EVENTS_PER_REQUEST
                    )
                })
            })
    }
}

/// A healthy ingest reply applied every event and left nothing dirty.
fn check_events_reply(body: &str) -> Result<(), String> {
    let doc = parse(body)?;
    let field = |name: &str| doc.get(name).and_then(Json::as_f64);
    if field("applied") != Some(EVENTS_PER_REQUEST as f64) {
        return Err(format!("applied != {EVENTS_PER_REQUEST}"));
    }
    if field("dirty_users") != Some(0.0) {
        return Err("dirty users left behind".to_string());
    }
    Ok(())
}

impl Workload for Live {
    fn measure(&mut self, seconds: f64, log: &mut SpanLog) -> Timed {
        self.drive(None, seconds, log)
    }

    fn verify(&mut self, log: &mut SpanLog) -> Vec<String> {
        let mut errors = Vec::new();
        if !self.bad_replies.is_empty() {
            errors.push(format!(
                "{} bad replies; first: {}",
                self.bad_replies.len(),
                self.bad_replies[0]
            ));
        }
        errors.extend(self.mirror_mismatch());
        if let Some(p50) = median(&self.events_wall_us) {
            eprintln!("# POST /events client-side latency p50 {p50:.1} us (wall, unscaled)");
        }
        if log.enabled() {
            match server_traces(self.addr) {
                Ok(traces) => {
                    stitch_server_spans(log, &traces, &self.stitch);
                    eprintln!("# server-side typical times for /events (us):");
                    for (name, us) in stage_times(&traces, "/events") {
                        eprintln!("#   {name}: {us:.1}");
                    }
                }
                Err(e) => errors.push(format!("GET /debug/traces failed: {e}")),
            }
        }
        errors
    }
}
