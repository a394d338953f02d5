//! Per-layer probes for the traced run. Layers are the crates: each
//! probe times one layer's public functions on seed-generated inputs of
//! the workloads' sizes (fixed operation counts, median reported), or
//! reads a number the layer already publishes on an endpoint. The probes
//! do not depend on which workload the traced run belongs to, so every
//! workload's traced run reports every per-layer metric.

use std::io::BufReader;
use std::time::Instant;

use ahntp::Ahntp;
use ahntp_data::{sample_edges, MiniBatchConfig};
use ahntp_eval::{auc, BatchPlan, TrustModel};
use ahntp_graph::{motif_pagerank, MotifPageRankConfig, PageRankConfig};
use ahntp_hypergraph::{
    attribute_hypergroup, social_influence_hypergroup, AggregationCache, Hypergraph,
};
use ahntp_nn::{AdaptiveHypergraphConv, Session, TrustArtifact};
use ahntp_serve::{http, serve, serve_sharded, shard_ranges, ServeConfig, ServerHandle};
use ahntp_stream::{parse_events, EventApplier, LiveTrustModel, StalenessBound};
use ahntp_telemetry::json::parse;
use ahntp_telemetry::KernelKind;
use ahntp_tensor::{xavier_uniform, Tensor};

use crate::gen::{clustered_artifact, events_body, pair_batches, score_body, topk_users, EventGen};
use crate::http::Client;
use crate::serve::{
    closed_loop_p50, healthz_p50_us, index_of, serve_config, server_traces, stage_times, HEAD_DIM,
    PAIRS_PER_REQUEST, TOP_K,
};
use crate::stats::median;
use crate::workload::{output_dir, Metric, Opts};
use crate::{live, train};

/// Median wall time of one call, µs, over `reps` samples after an untimed
/// call. A sample times as many back-to-back calls as fill ~20 µs, so a
/// sub-microsecond probe is not quantised to the clock's nanoseconds.
fn time_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let t = Instant::now();
    std::hint::black_box(f());
    let first_us = t.elapsed().as_secs_f64() * 1e6;
    let calls = ((20.0 / first_us.max(1e-3)).ceil() as usize).clamp(1, 10_000);
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                std::hint::black_box(f());
            }
            t.elapsed().as_secs_f64() * 1e6 / calls as f64
        })
        .collect();
    median(&samples).unwrap_or(f64::NAN)
}

/// The dense products one full-batch epoch issues at 260 users / 4 617
/// pairs with conv 64-32-16 and a 16-wide tower, frozen as `(m, k, n)`:
/// input projections, the three conv layers' `θ` products on vertices,
/// and the pair towers.
const MATMUL_SHAPES: [(usize, usize, usize); 6] = [
    (260, 24, 64),
    (260, 64, 64),
    (260, 64, 32),
    (260, 32, 16),
    (4617, 32, 16),
    (4617, 16, 16),
];

struct Probes {
    metrics: Vec<Metric>,
    /// Repetitions of a sub-millisecond probe; slower ones scale down.
    reps: usize,
}

impl Probes {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn us<T>(&mut self, name: &'static str, f: impl FnMut() -> T) {
        let value = time_us(self.reps, f);
        self.push(name, value, "us");
    }

    /// For probes that take milliseconds: a tenth of the repetitions.
    fn ms<T>(&mut self, name: &'static str, f: impl FnMut() -> T) {
        let value = time_us((self.reps / 10).max(3), f) / 1e3;
        self.push(name, value, "ms");
    }
}

/// Runs every probe and returns the per-layer metrics.
pub fn run(opts: &Opts) -> Vec<Metric> {
    let mut p = Probes {
        metrics: Vec::new(),
        reps: if opts.quick { 5 } else { 60 },
    };
    tensor(&mut p, opts);
    training_layers(&mut p, opts);
    live_layers(&mut p, opts);
    serving_layers(&mut p, opts);
    par(&mut p);
    p.metrics
}

fn tensor(p: &mut Probes, opts: &Opts) {
    let mats: Vec<(Tensor, Tensor)> = MATMUL_SHAPES
        .iter()
        .enumerate()
        .map(|(i, &(m, k, n))| {
            (
                xavier_uniform(m, k, opts.seed + i as u64),
                xavier_uniform(k, n, opts.seed + 100 + i as u64),
            )
        })
        .collect();
    p.us("tensor.matmul_us", || {
        mats.iter().map(|(a, b)| a.matmul(b).len()).sum::<usize>()
    });
    let flops: usize = MATMUL_SHAPES.iter().map(|&(m, k, n)| 2 * m * k * n).sum();
    p.push("tensor.matmul_flops", flops as f64, "count");
    let (a, b) = (
        xavier_uniform(256, 256, opts.seed),
        xavier_uniform(256, 256, opts.seed + 1),
    );
    p.us("tensor.matmul256_us", || a.matmul(&b));
}

/// graph, hypergraph, data, core, nn, autograd, eval: what `train_*` and
/// the set-up of `serve_live` run.
fn training_layers(p: &mut Probes, opts: &Opts) {
    let users = if opts.quick { 60 } else { train::USERS };
    let seed = opts.seed;
    p.ms("data.generate_ms", || train::dataset(users, seed));
    let (ds, split) = train::dataset(users, seed);
    let cfg = train::model_config(seed);
    let graph = &split.train_graph;
    let pagerank = MotifPageRankConfig {
        alpha: cfg.alpha,
        pagerank: PageRankConfig::default(),
    };
    p.ms("graph.motif_pagerank_ms", || {
        motif_pagerank(graph, cfg.motif, &pagerank)
    });
    let influence = motif_pagerank(graph, cfg.motif, &pagerank);
    let node_level = || {
        let hss = social_influence_hypergroup(graph, &influence, cfg.top_k_influence);
        let attr = attribute_hypergroup(graph.n(), &ds.attributes);
        Hypergraph::concat(&[&hss, &attr])
    };
    p.ms("hypergraph.build_ms", || {
        let cache = AggregationCache::new(node_level());
        (cache.full_ops(), cache.full_laplacian())
    });
    p.ms("core.new_ms", || {
        Ahntp::new(&ds.features, &ds.attributes, graph, &cfg)
    });

    let node_hg = node_level();
    let incidence = node_hg.incidence();
    let x = xavier_uniform(node_hg.n_vertices(), 64, seed);
    p.us("tensor.csr_mul_dense_us", || {
        incidence.mul_dense(&incidence.t_mul_dense(&x))
    });

    let cache = AggregationCache::new(node_hg.clone());
    let mut epoch = 0u64;
    p.ms("hypergraph.slice_ms", || {
        epoch += 1;
        cache.slice_ops(&sample_edges(cache.n_edges(), 0.5, seed, epoch))
    });
    let minibatch = MiniBatchConfig::sampled(0.5, 512, 2, seed);
    p.us("eval.plan_us", || {
        epoch += 1;
        BatchPlan::for_epoch(&split.train, &minibatch, epoch)
    });

    let conv = AdaptiveHypergraphConv::new("probe", &node_hg, 64, 64, seed);
    p.ms("nn.conv_fwd_ms", || {
        let s = Session::new();
        conv.forward(&s, &s.graph().leaf(x.clone())).value().len()
    });
    p.ms("autograd.fwd_bwd_ms", || {
        let s = Session::new();
        let input = s.graph().leaf(x.clone());
        conv.forward(&s, &input).sum().backward();
        input.grad().map(|g| g.len())
    });

    // Per-epoch self times from the layers' own profiler, on full-batch
    // epochs of the `train_full` model.
    let mut model = Ahntp::new(&ds.features, &ds.attributes, graph, &cfg);
    model.train_epoch(&split.train);
    let epochs = if opts.quick { 2 } else { 5 };
    ahntp_telemetry::set_profiling(true);
    let before = ahntp_telemetry::profile_snapshot();
    for _ in 0..epochs {
        model.train_epoch(&split.train);
    }
    let profile = ahntp_telemetry::profile_snapshot().delta_since(&before);
    ahntp_telemetry::set_profiling(false);
    let per_epoch_ms = |kind: KernelKind| profile.us[kind as usize] as f64 / 1e3 / epochs as f64;
    p.push(
        "tensor.matmul_self_ms",
        per_epoch_ms(KernelKind::Matmul),
        "ms",
    );
    p.push("tensor.csr_self_ms", per_epoch_ms(KernelKind::Csr), "ms");
    p.push(
        "tensor.elementwise_self_ms",
        per_epoch_ms(KernelKind::Elementwise),
        "ms",
    );
    p.push(
        "autograd.other_self_ms",
        per_epoch_ms(KernelKind::Other),
        "ms",
    );
    let labels: Vec<bool> = split.test.iter().map(|pair| pair.label).collect();
    p.push(
        "eval.test_auc",
        auc(&model.predict(&split.test), &labels),
        "count",
    );
    // `export_artifact` answers from the head cache after the first call;
    // the from-scratch rebuild is the forward pass an export really costs.
    p.ms("core.rebuild_artifact_ms", || {
        model.rebuild_artifact().n_users
    });
}

/// hypergraph deltas, core and stream: what one `POST /events` costs
/// behind the socket.
fn live_layers(p: &mut Probes, opts: &Opts) {
    let users = if opts.quick { 40 } else { live::USERS };
    let seed = opts.seed;
    let (ds, split) = live::dataset(users, seed);
    let mut model = Ahntp::new(
        &ds.features,
        &ds.attributes,
        &split.train_graph,
        &train::model_config(seed),
    );
    model.train_epoch(&split.train);
    let (node_edges, struct_edges) = model.hyperedge_counts();
    let mut gen = EventGen::new(seed, users, node_edges, struct_edges);
    let requests = if opts.quick { 2 } else { 6 };

    // core: apply_event, then refresh_heads on the cone it reports.
    let (mut apply_us, mut refresh_ms, mut cone_rows) = (Vec::new(), Vec::new(), Vec::new());
    for event in (0..requests).flat_map(|_| gen.next_request()) {
        let t = Instant::now();
        let applied = model.apply_event(&event).expect("generated event is valid");
        apply_us.push(t.elapsed().as_secs_f64() * 1e6);
        if !applied.affected_users.is_empty() {
            cone_rows.push(applied.affected_users.len() as f64);
            let t = Instant::now();
            std::hint::black_box(model.refresh_heads(&applied.affected_users));
            refresh_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    p.push(
        "core.apply_event_us",
        median(&apply_us).unwrap_or(f64::NAN),
        "us",
    );
    p.push(
        "core.refresh_heads_ms",
        median(&refresh_ms).unwrap_or(f64::NAN),
        "ms",
    );
    p.push(
        "core.cone_rows",
        cone_rows.iter().sum::<f64>() / cone_rows.len().max(1) as f64,
        "count",
    );

    // stream: the applier's apply + refresh, as the server's ingest
    // thread runs them.
    let mut applier = EventApplier::new(model, StalenessBound::default());
    let (mut per_event_ms, mut refreshed, mut events) = (Vec::new(), 0usize, 0usize);
    for event in (0..requests).flat_map(|_| gen.next_request()) {
        let t = Instant::now();
        applier.apply(&event).expect("generated event is valid");
        let patch = applier.maybe_refresh().expect("no failpoints armed");
        per_event_ms.push(t.elapsed().as_secs_f64() * 1e3);
        refreshed += patch.map_or(0, |patch| patch.users.len());
        events += 1;
    }
    // Mean, not median: half the events (reweight, decay) refresh nothing.
    p.push(
        "stream.apply_refresh_ms",
        per_event_ms.iter().sum::<f64>() / events as f64,
        "ms",
    );
    p.push(
        "stream.rows_refreshed_per_event",
        refreshed as f64 / events as f64,
        "count",
    );
    let body = events_body(&gen.next_request());
    p.us("stream.parse_events_us", || {
        parse_events(&body).map(|e| e.len())
    });

    // hypergraph: delta maintenance of one cached level, add then remove.
    let attr = attribute_hypergroup(users, &ds.attributes);
    let mut cache = AggregationCache::new(attr);
    let _ = (cache.full_ops(), cache.full_laplacian());
    let mut i = 0usize;
    p.us("hypergraph.mutate_us", || {
        i += 1;
        let edge = cache.apply_add(&[i % users, (i * 7 + 1) % users], 1.0);
        edge.and_then(|e| cache.apply_remove(e))
            .map(|removed| removed.members.len())
    });
}

/// nn artifact codec, mapped, serve: in process, then over sockets.
fn serving_layers(p: &mut Probes, opts: &Opts) {
    let users = if opts.quick { 400 } else { crate::serve::USERS };
    let seed = opts.seed;
    let artifact = clustered_artifact(seed, users, HEAD_DIM);
    p.ms("nn.artifact_encode_ms", || artifact.encode_v2().len());
    let frame = artifact.encode_v2();
    p.ms("nn.artifact_decode_ms", || {
        TrustArtifact::decode(&frame).map(|a| a.n_users)
    });
    let path = output_dir().join(format!("probe-{}.ahntpsrv", std::process::id()));
    let written =
        std::fs::create_dir_all(output_dir()).and_then(|()| std::fs::write(&path, &frame));
    match written {
        Ok(()) => p.us("mapped.open_us", || {
            TrustArtifact::open(&path).map(|a| a.n_users)
        }),
        Err(e) => {
            eprintln!("# cannot write {}: {e}", path.display());
            p.push("mapped.open_us", f64::NAN, "us");
        }
    }
    let _ = std::fs::remove_file(&path);
    p.ms("serve.index_build_ms", || {
        index_of(artifact.clone()).n_users()
    });

    let index = index_of(artifact.clone());
    let pairs = pair_batches(seed, users, 64, PAIRS_PER_REQUEST);
    let trustors = topk_users(seed, users, 64);
    let mut i = 0usize;
    p.us("serve.score_pairs8_us", || {
        i += 1;
        index.score_pairs(&pairs[i % pairs.len()])
    });
    p.us("serve.topk_us", || {
        i += 1;
        index.top_k_trustees(trustors[i % trustors.len()], TOP_K)
    });
    p.us("serve.topk_range_us", || {
        i += 1;
        index.top_k_trustees_in(trustors[i % trustors.len()], TOP_K, 0, users / 2)
    });

    let body = score_body(&pairs[0]);
    let request = format!(
        "POST /score HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    p.us("serve.http_parse_us", || {
        http::read_request(&mut BufReader::new(request.as_bytes())).map(|r| r.is_some())
    });
    let answer = crate::serve::expected_score_body(&index, &pairs[0]);
    p.us("serve.http_write_us", || {
        let mut out = Vec::with_capacity(256);
        http::write_response(
            &mut out,
            200,
            "OK",
            "application/json",
            answer.as_bytes(),
            true,
        )
        .map(|()| out.len())
    });

    single_node_session(p, opts, &artifact, &pairs, &trustors);
    sharded_session(p, opts, &artifact, &trustors);
}

/// One connection against a single node: the request floor, and the
/// stages the server itself records for `/score`.
fn single_node_session(
    p: &mut Probes,
    opts: &Opts,
    artifact: &TrustArtifact,
    pairs: &[Vec<(usize, usize)>],
    trustors: &[usize],
) {
    let requests = if opts.quick { 10 } else { 200 };
    // The batch-size histogram behind /metrics only records while
    // telemetry is on; the timed runs keep it off.
    ahntp_telemetry::set_enabled(true);
    let server = serve(index_of(artifact.clone()), &serve_config()).expect("bind probe server");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect to probe server");
    let score_p50 = closed_loop_p50(&mut client, requests, |i| {
        (
            "POST",
            "/score".to_string(),
            score_body(&pairs[i % pairs.len()]),
        )
    });
    closed_loop_p50(&mut client, requests, |i| {
        (
            "GET",
            format!("/topk?user={}&k={TOP_K}", trustors[i % trustors.len()]),
            String::new(),
        )
    });
    let floor = healthz_p50_us(addr, requests);
    p.push("serve.healthz_p50_us", floor, "us");
    let stages = server_traces(addr)
        .map(|t| stage_times(&t, "/score"))
        .unwrap_or_default();
    let stage = |name: &str| stages.get(name).copied().unwrap_or(f64::NAN);
    p.push("serve.server_us", stage("server"), "us");
    p.push("serve.queue_wait_us", stage("serve.queue.wait"), "us");
    p.push("serve.score_stage_us", stage("serve.score"), "us");
    let batch_mean = client
        .get("/metrics")
        .ok()
        .and_then(|r| parse(&r.body).ok())
        .and_then(|doc| {
            let h = doc.get("serve.score.batch_size")?;
            Some(h.get("sum")?.as_f64()? / h.get("count")?.as_f64()?)
        })
        .unwrap_or(f64::NAN);
    p.push("serve.batch_pairs_mean", batch_mean, "count");
    eprintln!(
        "# probe /score: client p50 {score_p50:.1} us; residual over floor + queue.wait + score: {:.1} us",
        score_p50 - floor - stage("serve.queue.wait") - stage("serve.score")
    );
    drop(client);
    server.shutdown();
    ahntp_telemetry::set_enabled(false);
}

/// `/topk` straight to one shard and through the front over two.
fn sharded_session(p: &mut Probes, opts: &Opts, artifact: &TrustArtifact, trustors: &[usize]) {
    let requests = if opts.quick { 10 } else { 200 };
    let config = serve_config();
    let shards: Vec<ServerHandle> = shard_ranges(artifact.n_users, 2)
        .into_iter()
        .map(|range| {
            let cfg = ServeConfig {
                shard_range: Some(range),
                ..config.clone()
            };
            serve(index_of(artifact.clone()), &cfg).expect("bind probe shard")
        })
        .collect();
    let addrs: Vec<_> = shards.iter().map(ServerHandle::addr).collect();
    let front = serve_sharded(&addrs, &config).expect("start probe front");
    let topk = |i: usize| {
        (
            "GET",
            format!("/topk?user={}&k={TOP_K}", trustors[i % trustors.len()]),
            String::new(),
        )
    };
    let mut direct = Client::connect(addrs[0]).expect("connect to probe shard");
    let direct_p50 = closed_loop_p50(&mut direct, requests, topk);
    let mut fronted = Client::connect(front.addr()).expect("connect to probe front");
    let front_p50 = closed_loop_p50(&mut fronted, requests, topk);
    p.push("serve.shard_direct_topk_us", direct_p50, "us");
    p.push("serve.front_overhead_us", front_p50 - direct_p50, "us");
    drop((direct, fronted));
    front.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

/// The hand-off cost that forced `par_threads = 1`: what two small tasks
/// on a two-thread pool take beyond one of them run alone. Zero would be
/// a free hand-off; one task's own time means nothing ran in parallel.
fn par(p: &mut Probes) {
    let data: Vec<f32> = (0..16_384).map(|i| i as f32 * 1e-3).collect();
    let task = |i: usize| data.iter().map(|v| (v + i as f32).sqrt()).sum::<f32>();
    let alone = time_us(p.reps, || task(0));
    ahntp_par::set_threads(2);
    let pair = time_us(p.reps, || ahntp_par::par_map(2, task));
    ahntp_par::set_threads(1);
    p.push("par.dispatch_us", pair - alone, "us");
}
